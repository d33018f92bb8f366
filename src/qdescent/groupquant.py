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

Both clip-strength searches work on one table per channel,
``quantcore._affine_table``: the affine fit of every (group, grid value)
pair in one vectorized pass. The grid search picks one grid index per group,
and the descent starts from those indices and moves them; ``rtn`` is the grid
search on the one-point grid {1}.
The grid search scores the whole table against the stacked diagonal blocks
of H in one batched product; ``quantcore._best_clips``'s rounding screen
keeps each group's choice exactly that of a per-candidate loop. H~ is built
with one d_in x d_in temporary, scaled in place.
In the descent, d and the quadratic term d' H_ii d depend only on group i's
own state, so they are kept across steps and a swap renews the swapped
group's row alone; only the linear term v_i' d is recomputed in full. The
quadratic term is scored in BLAS, and ``_quad_screen``'s rounding bound keeps
every candidate that could be the pick of the exact einsum. Only those are
re-scored with the einsum, each on its own (1, 1, g) slice (for g = 2, on the
whole table), which yields the full table's bits; so every swap and its
recorded change are those of the einsum over the whole table at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import ShapeMismatchError
from .quantcore import (AffineTable, ChannelProblem, QuantParams, _affine_table, _best_clips,
                        _check_grouping, _rowdot, default_gamma_grid)
from .descent import DescentConfig, descend


def _check_hessian(hessian: np.ndarray, d_in: int) -> None:
    if hessian.shape[0] != d_in:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")


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
    if not params or w.shape[0] % len(params):
        raise ShapeMismatchError(f"{len(params)} groups do not divide d_in={w.shape[0]}")
    _check_hessian(hessian, w.shape[0])
    g = w.shape[0] // len(params)

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


def owc_group_init(w: np.ndarray, hessian: np.ndarray, bits: int, group_size: int,
                   grid_size: int = 50) -> tuple[AffineTable, np.ndarray]:
    """Per-group clip-strength grid search against the group's own H block:
    the channel's affine table and each group's best grid index in it, whose
    params and codes ``table.pick(picks)`` gives.

    Cross-group coupling is ignored here (block-diagonal approximation);
    the clip-strength coordinate descent below is what accounts for it.
    """
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    _check_hessian(hessian, w.shape[0])
    table = _affine_table(w.reshape(n_groups, group_size), bits, default_gamma_grid(grid_size))
    return table, _best_clips(table, _diag_blocks(hessian, n_groups, group_size))


@dataclass
class OwcCdResult:
    """Outcome of the clip-strength coordinate descent.

    ``picks`` holds each group's final grid index in the table. Each swap is
    (group, new clip strength, loss change, loss after it), the loss
    accumulated from ``initial_loss``; ``final_loss`` is recomputed.
    """

    picks: np.ndarray
    swaps: list[tuple[int, float, float, float]] = field(default_factory=list)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    final_v: Optional[np.ndarray] = None


#: Multiplier of ``owc_cd``'s rounding bound; ``_quad_screen`` proves it sound above 1.0004.
QUAD_SCREEN_FACTOR = 1.01
_U = 2.0 ** -53


def _quad_screen(diff: np.ndarray, hblocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched quadratic terms f (n, v) of the (n, v, g) differences d against
    the (n, g, g) blocks H, and the part of the rounding bound that does not
    depend on the linear term.

    ``owc_cd`` needs the candidate with the lowest change c = q - l, where
    q = einsum("nvg,ngh,nvh->nv", d, H, d) (a naive loop, without BLAS) and l
    the linear term, both as computed. It scores a = f - l instead, with
    f = rowsum((d H) * d) in BLAS, and bounds |a - c| by

        b = F (g+1)(g+2) u M + 4 F u (|f| + |l|) + tau,     F = 1.01,
        M = rowsum((|d| |H|) * |d|),   tau = 2^-1000 g^2 (1 + eta)(1 + delta)

    with u = 2^-53, delta = max |d|, eta = max |H|, and tau = 0 when d = 0.
    The screen holds for a candidate when g^2 (1 + eta)(1 + delta)^2 <= 2^1000
    and |l| <= 2^1000 (false for NaN); any other candidate gets b = inf.
    Only candidates with a - b <= min_j (a_j + b_j) survive, and they are
    re-scored with q itself. Proof, with A = |d|'|H||d| and Q = d'Hd exact:

    1. Scores. q sums g^2 products of three factors: each is within a relative
       gamma_2 of exact, and the sum within gamma_(g^2) of theirs, in any
       order, association or use of fused multiply-adds; so
       |q - Q| <= gamma_(g^2+2) A. f is two dot products of length g, so
       |f - Q| <= (2 gamma_g + gamma_g^2) A, and M >= (1 - gamma_g)^2 A, all
       nonnegative terms. With g <= 2^20 (one H block would need 8 TiB
       beyond that), gamma_m <= 1.0002 m u for m <= g^2 + 2, so
       (1 + u) |f - q| <= 1.0004 (g^2 + 2g + 2) u M before underflow.
    2. Underflow. A product that underflows is off by at most 2^-1075, which
       a later factor scales by at most delta + eta; sums of subnormals are
       exact. So q, f and M each carry at most 1.01 g^2 2^-1075 (2 + delta +
       eta) more, which tau exceeds more than 2^60-fold. When d = 0 every
       product is an exact zero and nothing is lost.
    3. Subtraction. Within range |q|, |f| <= 1.03 * 2^1000 and |l| <= 2^1000,
       so c = (q - l)(1 + e1), a = (f - l)(1 + e2), |e1|, |e2| <= u, and
       |a - c| + u (|a| + b) <= (1 + u) |f - q| + 3.0001 u (|f| + |l|) + u b,
       which b (computed to a relative 8u) exceeds: |a - c| <= b - u (|a| + b).
       (For d = 0, f and q are zeros and a = c, up to the sign of zero.)
    4. Screen. Let k be the pick of argmin(c): the first minimum, or the
       first NaN. Each rounded a_j + b_j is at least c_j >= c_k, or is inf or
       NaN, which the threshold's fmin ignores; a rounded a_k - b_k is at most
       c_k. So k, and every candidate tied with it, survives. A NaN c within
       range comes from a NaN l, so a is NaN too and survives the comparison;
       out of range, a - inf survives too. Re-scoring the survivors with q
       and taking the first minimum in flat order returns k, bit for bit.
       If every rounded a - b is >= 0, every c is >= 0 and none is NaN, so
       the step that would find no negative change is skipped.
    """
    g = diff.shape[2]
    with np.errstate(all="ignore"):
        fast = _rowdot(np.matmul(diff, hblocks), diff)
        absd, habs = np.abs(diff), np.abs(hblocks)
        mag = _rowdot(np.matmul(absd, habs), absd)
        delta = absd.max(axis=2)
        scale = g * g * (1.0 + habs.max(axis=(1, 2))[:, None])
        tau = 2.0 ** -1000 * scale * (1.0 + delta) * (delta > 0.0)
        base = QUAD_SCREEN_FACTOR * _U * ((g + 1) * (g + 2) * mag + 4.0 * np.abs(fast)) + tau
        base[~(scale * (1.0 + delta) ** 2 <= 2.0 ** 1000)] = np.inf
    return fast, base


def owc_cd(table: AffineTable, hessian: np.ndarray, picks: np.ndarray,
           steps: Optional[int] = None) -> OwcCdResult:
    """Greedy coordinate descent over per-group clip strengths, from grid index
    ``picks[i]`` of each group i of ``table`` (as ``owc_group_init`` returns them).

    Each step applies the single swap with the most negative exact loss change
    (ties to the smallest (group, grid index)) and stops early at a fixed
    point, which cannot change the outcome because the candidate table is
    static. Default step budget is one pass, one step per group. Changes are
    those of the einsum over the whole table, found by ``_quad_screen``.
    """
    n_groups, n_grid, g = table.resid.shape
    _check_hessian(hessian, n_groups * g)
    if steps is None:
        steps = n_groups
    if steps < 0:
        raise ValueError("steps must be >= 0")
    picks = np.array(picks, dtype=np.intp)
    cur_resid = table.resid[np.arange(n_groups), picks]

    hblocks = _diag_blocks(hessian, n_groups, g)
    err = cur_resid.ravel()
    h_err = hessian @ err
    v = -2.0 * h_err
    loss = float(err @ h_err)
    result = OwcCdResult(picks=picks, initial_loss=loss)

    # The quadratic term d' H_ii d depends only on group i's own state, so its
    # batched score and bound are kept across steps, and so is the einsum value
    # of every candidate the screen keeps; a swap renews the swapped group's.
    diff = table.resid - cur_resid[:, None, :]
    fast, base = _quad_screen(diff, hblocks)
    exact = np.empty((n_groups, n_grid))
    known = np.zeros((n_groups, n_grid), dtype=bool)
    for _ in range(steps):
        lin = np.einsum("nvg,ng->nv", diff, v.reshape(n_groups, g))
        with np.errstate(all="ignore"):
            approx = fast - lin
            alin = np.abs(lin)
            bound = base + QUAD_SCREEN_FACTOR * 4.0 * _U * alin
            bound[alin > 2.0 ** 1000] = np.inf
            lo = approx - bound
            if lo.min() >= 0.0:
                break
            keep = np.flatnonzero(~(lo > np.fmin.reduce(approx + bound, axis=None)))
        for k in keep:
            if known.flat[k]:
                continue
            i, j = divmod(int(k), n_grid)
            # numpy sums a lone 2 x 2 block in two pairs but most tables' blocks in
            # one run, so for g = 2 the whole table is scored (see test_owc_cd_screen).
            at = (slice(i, i + 1), slice(j, j + 1)) if g != 2 else (slice(None), slice(None))
            exact[at] = np.einsum("nvg,ngh,nvh->nv", diff[at], hblocks[at[0]], diff[at])
            known[at] = True
        change = exact.flat[keep] - lin.flat[keep]
        pick = int(np.argmin(change))
        i_star, v_star = divmod(int(keep[pick]), n_grid)
        best = float(change[pick])
        if best >= 0.0:
            break
        sl = slice(i_star * g, (i_star + 1) * g)
        row = slice(i_star, i_star + 1)
        delta = table.resid[i_star, v_star] - cur_resid[i_star]
        v -= 2.0 * (hessian[:, sl] @ delta)
        cur_resid[i_star] = table.resid[i_star, v_star]
        picks[i_star] = v_star
        diff[row] = table.resid[row] - cur_resid[row, None, :]
        fast[row], base[row] = _quad_screen(diff[row], hblocks[row])
        known[row] = False
        loss += best
        result.swaps.append((i_star, float(table.gammas[i_star, v_star]), best, loss))

    err = cur_resid.ravel()
    result.final_loss = float(err @ (hessian @ err))
    result.final_v = v.copy()
    return result


def quantize_channel_grouped(w: np.ndarray, hessian: np.ndarray, method: str, bits: int,
                             group_size: int, cfg: DescentConfig, grid_size: int,
                             owc_cd_refine: bool) -> tuple[tuple[QuantParams, ...], np.ndarray, int]:
    """Grouped counterpart of the per-channel pipeline: the per-group grid
    search (on the one-point grid {1} for rtn), optionally refined by the
    clip-strength descent, then ``descent.descend`` on the scaled problem.
    Returns (params, codes, steps_taken), one params entry per group.
    """
    rtn = method == "rtn"
    table, picks = owc_group_init(w, hessian, bits, group_size, 1 if rtn else grid_size)
    steps = 0
    if owc_cd_refine and not rtn:
        refined = owc_cd(table, hessian, picks)
        picks = refined.picks
        steps += len(refined.swaps)
    params, codes = table.pick(picks)
    if method not in ("rtn", "owc"):
        codes, engine_steps = descend(tilde_transform(w, hessian, params), codes, method, cfg)
        steps += engine_steps
    return params, codes, steps
