"""Sub-channel (grouped) quantization via a change of variables.

Splitting a channel's d_in inputs into groups of size g, each with its own
affine parameters (a_i, b_i), the reconstruction loss can be rewritten in
scaled coordinates. With per-coordinate vectors a, b (each group's values
repeated over its coordinates) and D = diag(a):

    || X (w - a*q - b) ||^2  =  || (X D) (D^-1 w - q - D^-1 b) ||^2
                             =  (q - z~)' H~ (q - z~),

    H~ = D H D    (row/column scaling, X is never touched again),
    z~ = (w - b) / a   elementwise.

So grouped code optimization is exactly the per-channel engines run on
(H~, z~) with unit scale; the trace's scaled loss already equals the true
loss. Degenerate groups (constant weights, zero scale) contribute zero
rows/columns to H~, which makes every candidate change at their coordinates
a zero-delta move that the engines never accept, so their codes stay 0.

Clip strengths themselves are optimized by a greedy coordinate descent over
groups: residuals D(i, beta) = w_i - a_i(beta) q_i(beta) - b_i are
precomputed for every group i and grid value beta, and with the maintained
vector v = -2 H e (e the current full residual) the exact loss change of
swapping group i's strength to beta is

    d' H_ii d - v_i' d,      d = D(i, beta) - D(i, current).

Applying a swap updates v by the rank-g correction -2 H[:, group] d.

Both clip-strength searches take their candidates from one table,
``quantcore._affine_table``: the affine fit of every (group, grid value)
pair in one vectorized pass; the descent's start state is one more table
call, at each group's own clip strength.
The grid search scores the whole table against the stacked diagonal blocks
of H in one batched product; ``quantcore._best_clips``'s rounding screen
keeps each group's choice exactly that of a per-candidate loop. H~ is built
with one d_in x d_in temporary, scaled in place.
In the descent, d and the quadratic term d' H_ii d depend only on group i's
own state, so they are kept across steps; a swap recomputes the swapped
group's row alone (on a length-1 slice, which yields the same bits as the
full einsum), and only the linear term v_i' d is recomputed in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import ShapeMismatchError
from .quantcore import (ChannelProblem, QuantParams, _affine_table, _best_clips,
                        _check_grouping, default_gamma_grid)
from .descent import DescentConfig, descend


def _check_shapes(w: np.ndarray, hessian: np.ndarray, n_groups: int) -> int:
    """The size of each of ``n_groups`` groups of w, once they divide it and H matches w."""
    if not n_groups or w.shape[0] % n_groups:
        raise ShapeMismatchError(f"{n_groups} groups do not divide d_in={w.shape[0]}")
    if hessian.shape[0] != w.shape[0]:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")
    return w.shape[0] // n_groups


def tilde_transform(w: np.ndarray, hessian: np.ndarray,
                    params: tuple[QuantParams, ...]) -> ChannelProblem:
    """The grouped problem in per-channel form: H~ = D H D (row/column scaling
    of H, no activation matrix needed) and target z~ = (w - b) / a, at unit
    scale and zero bias, so the engines' scaled loss is the true loss.

    ``params`` holds one entry per group, of size ``len(w) // len(params)``.
    A zero group scale is only legal for a constant group (the degenerate
    path); anything else means the params are inconsistent with the weights.
    """
    w = np.asarray(w, dtype=np.float64)
    g = _check_shapes(w, hessian, len(params))

    avec = np.repeat(np.array([p.scale for p in params], dtype=np.float64), g)
    bvec = np.repeat(np.array([p.bias for p in params], dtype=np.float64), g)
    for i, p in enumerate(params):
        grp = w[i * g:(i + 1) * g]
        if p.scale == 0.0 and float(grp.max() - grp.min()) != 0.0:
            raise ValueError(f"zero scale for non-constant group {i}")

    h_tilde = hessian * avec[:, None]
    h_tilde *= avec[None, :]  # in place: one d_in x d_in temporary, same two products
    active = avec > 0.0
    z_tilde = np.zeros_like(w)
    z_tilde[active] = (w[active] - bvec[active]) / avec[active]
    unit = QuantParams(scale=1.0, bias=0.0, bits=params[0].bits, gamma=1.0)
    return ChannelProblem(weights=z_tilde, hessian=h_tilde, params=unit, target=z_tilde)


def _diag_blocks(hmat: np.ndarray, n_groups: int, g: int) -> np.ndarray:
    """The (n_groups, g, g) stack of H's diagonal blocks, copied in one gather."""
    return hmat.reshape(n_groups, g, n_groups, g)[np.arange(n_groups), :, np.arange(n_groups), :]


def minmax_group_init(w: np.ndarray, bits: int,
                      group_size: int) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """Independent per-group min-max fit (clip strength 1): (params per group, codes)."""
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    table = _affine_table(w.reshape(n_groups, group_size), bits, np.ones(1))
    return tuple(table.params(i, 0) for i in range(n_groups)), table.codes[:, 0].ravel()


def owc_group_init(w: np.ndarray, hessian: np.ndarray, bits: int, group_size: int,
                   grid_size: int = 50) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """Per-group clip-strength grid search against the group's own H block:
    (params per group, codes).

    Cross-group coupling is ignored here (block-diagonal approximation);
    the clip-strength coordinate descent below is what accounts for it.
    """
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    _check_shapes(w, hessian, n_groups)
    table = _affine_table(w.reshape(n_groups, group_size), bits, default_gamma_grid(grid_size))
    best = _best_clips(table, _diag_blocks(hessian, n_groups, group_size))
    params = tuple(table.params(i, int(k)) for i, k in enumerate(best))
    return params, table.codes[np.arange(n_groups), best].ravel()


@dataclass
class OwcCdResult:
    """Outcome of the clip-strength coordinate descent.

    Each swap is (group, new clip strength, loss change, loss after it), the
    loss accumulated from ``initial_loss``; ``final_loss`` is recomputed.
    """

    params: tuple[QuantParams, ...]
    codes: np.ndarray
    swaps: list[tuple[int, float, float, float]] = field(default_factory=list)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    final_v: Optional[np.ndarray] = None


def owc_cd(w: np.ndarray, hessian: np.ndarray, params: tuple[QuantParams, ...],
           gamma_grid: Optional[np.ndarray] = None,
           steps: Optional[int] = None) -> OwcCdResult:
    """Greedy coordinate descent over per-group clip strengths.

    Residuals for every (group, grid value) pair come from one affine table,
    built once; each step applies the single swap with the most negative
    exact loss change (ties to the smallest (group, grid index)) and stops
    early at a fixed point, which cannot change the outcome because the
    candidate table is static. Default step budget is one pass,
    d_in / group_size, with group size ``len(w) // len(params)``.
    """
    w = np.asarray(w, dtype=np.float64)
    n_groups = len(params)
    g = _check_shapes(w, hessian, n_groups)
    gamma_grid = default_gamma_grid() if gamma_grid is None else np.asarray(gamma_grid, dtype=np.float64)
    if gamma_grid.size == 0:
        raise ValueError("empty clip-strength grid")
    if steps is None:
        steps = n_groups
    if steps < 0:
        raise ValueError("steps must be >= 0")
    bits = params[0].bits
    n_grid = gamma_grid.shape[0]

    # Every (group, grid value) fit, from one vectorized table.
    wg = w.reshape(n_groups, g)
    table = _affine_table(wg, bits, gamma_grid)
    resid_table = table.resid

    # Current state from the params as passed in: each group fit at its own
    # gamma (which need not be on the grid), with codes 0 where its scale is 0.
    cur_params = list(params)
    scales = np.array([[p.scale] for p in params])
    biases = np.array([[p.bias] for p in params])
    start = _affine_table(wg, bits, np.array([[p.gamma] for p in params])).codes[:, 0]
    start[scales[:, 0] == 0.0] = 0
    cur_resid = wg - (scales * start.astype(np.float64) + biases)
    cur_codes = start.ravel()

    hblocks = _diag_blocks(hessian, n_groups, g)
    err = cur_resid.ravel()
    h_err = hessian @ err
    v = -2.0 * h_err
    loss = float(err @ h_err)
    result = OwcCdResult(params=params, codes=cur_codes, initial_loss=loss)

    # The quadratic term d' H_ii d depends only on group i's own state, so it
    # is kept across steps and only the swapped group's row is recomputed.
    diff = resid_table - cur_resid[:, None, :]
    quad = np.einsum("nvg,ngh,nvh->nv", diff, hblocks, diff)
    for _ in range(steps):
        change = quad - np.einsum("nvg,ng->nv", diff, v.reshape(n_groups, g))
        flat = int(np.argmin(change))
        i_star, v_star = divmod(flat, n_grid)
        best = float(change.flat[flat])
        if best >= 0.0:
            break
        sl = slice(i_star * g, (i_star + 1) * g)
        row = slice(i_star, i_star + 1)
        delta = resid_table[i_star, v_star] - cur_resid[i_star]
        v -= 2.0 * (hessian[:, sl] @ delta)
        cur_resid[i_star] = resid_table[i_star, v_star]
        cur_codes[sl] = table.codes[i_star, v_star]
        cur_params[i_star] = table.params(i_star, v_star)
        diff[row] = resid_table[row] - cur_resid[row, None, :]
        quad[row] = np.einsum("nvg,ngh,nvh->nv", diff[row], hblocks[row], diff[row])
        loss += best
        result.swaps.append((i_star, float(gamma_grid[v_star]), best, loss))

    err = cur_resid.ravel()
    result.params = tuple(cur_params)
    result.codes = cur_codes
    result.final_loss = float(err @ (hessian @ err))
    result.final_v = v.copy()
    return result


def quantize_channel_grouped(w: np.ndarray, hessian: np.ndarray, method: str, bits: int,
                             group_size: int, cfg: DescentConfig, grid_size: int,
                             owc_cd_refine: bool) -> tuple[tuple[QuantParams, ...], np.ndarray, int]:
    """Grouped counterpart of the per-channel pipeline: the per-group grid
    search (optionally refined by the clip-strength descent), then
    ``descent.descend`` on the scaled problem. Returns (params, codes,
    steps_taken), one params entry per group.
    """
    if method == "rtn":
        params, codes = minmax_group_init(w, bits, group_size)
        return params, codes, 0
    params, codes = owc_group_init(w, hessian, bits, group_size, grid_size)
    steps = 0
    if owc_cd_refine:
        refined = owc_cd(w, hessian, params, default_gamma_grid(grid_size))
        params, codes = refined.params, refined.codes
        steps += len(refined.swaps)
    if method != "owc":
        codes, engine_steps = descend(tilde_transform(w, hessian, params), codes, method, cfg)
        steps += engine_steps
    return params, codes, steps
