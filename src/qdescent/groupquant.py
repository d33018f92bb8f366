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
search on the one-point grid {1}; ``AffineTable.pick`` gives the fit as arrays.
The grid search scores the whole table against the stacked diagonal blocks
of H in one batched product; ``quantcore._best_clips``'s rounding screen
keeps each group's choice exactly that of a per-candidate loop. H~ is built
with one d_in x d_in temporary, scaled in place.
In the descent, d and the quadratic term d' H_ii d depend only on group i's
own state, so they are kept across steps and a swap renews the swapped
group's row alone; only the linear term v_i' d is recomputed in full. The
quadratic term is scored by the grid search's batched product and screen,
``quantcore._clip_screen``, whose bound ``owc_cd`` widens for the einsum; it
keeps every candidate that could be the pick of the exact einsum. At every
step those are re-scored with the einsum, each on its own (1, 1, g) slice (for
g = 2, on its group's (1, v, 2) row), which yields the full table's bits; so
every swap and its recorded change are those of the einsum over the whole
table at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .calibration import ShapeMismatchError
from .quantcore import (AffineTable, ChannelProblem, RunSettings, _affine_table, _best_clips,
                        _check_grouping, _clip_screen, check_scales, default_gamma_grid)
from .descent import descend


def _check_hessian(hessian: np.ndarray, d_in: int) -> None:
    if hessian.shape[0] != d_in:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")


def tilde_transform(w: np.ndarray, hessian: np.ndarray, scales: np.ndarray,
                    biases: np.ndarray, bits: int) -> ChannelProblem:
    """The grouped problem in per-channel form: H~ = D H D (row/column scaling
    of H, no activation matrix needed) and target z~ = (w - b) / a, at unit
    scale and zero bias, so the engines' scaled loss is the true loss.

    ``scales`` and ``biases`` hold one entry per group, of size
    ``len(w) // len(scales)``; each scale must be finite and >= 0. A zero group
    scale is only legal for a constant group (the degenerate path); anything
    else means the scales are inconsistent with the weights.
    """
    w = np.asarray(w, dtype=np.float64)
    scales = check_scales(scales)
    n_groups = len(scales)
    if not n_groups or w.shape[0] % n_groups:
        raise ShapeMismatchError(f"{n_groups} groups do not divide d_in={w.shape[0]}")
    _check_hessian(hessian, w.shape[0])
    g = w.shape[0] // n_groups
    wg = w.reshape(n_groups, g)
    bad = np.flatnonzero((scales == 0.0) & (wg.max(axis=1) - wg.min(axis=1) != 0.0))
    if bad.size:
        raise ValueError(f"zero scale for non-constant group {bad[0]}")

    avec = np.repeat(scales, g)
    bvec = np.repeat(np.asarray(biases, dtype=np.float64), g)
    h_tilde = hessian * avec[:, None]
    h_tilde *= avec[None, :]  # in place: one d_in x d_in temporary, same two products
    active = avec > 0.0
    z_tilde = np.zeros_like(w)
    z_tilde[active] = (w[active] - bvec[active]) / avec[active]
    return ChannelProblem(z_tilde, h_tilde, 1.0, 0.0, bits)


def _diag_blocks(hmat: np.ndarray, n_groups: int, g: int) -> np.ndarray:
    """The (n_groups, g, g) stack of H's diagonal blocks, copied in one gather."""
    return hmat.reshape(n_groups, g, n_groups, g)[np.arange(n_groups), :, np.arange(n_groups), :]


def owc_group_init(w: np.ndarray, hessian: np.ndarray, bits: int, group_size: int,
                   grid_size: int = RunSettings.grid_size) -> tuple[AffineTable, np.ndarray]:
    """Per-group clip-strength grid search against the group's own H block:
    the channel's affine table and each group's best grid index in it, whose
    scales, biases, clip strengths and codes ``table.pick(picks)`` gives.

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


def _change_bound(scores: np.ndarray, bounds: np.ndarray, lin: np.ndarray,
                  g: int) -> np.ndarray:
    """``owc_cd``'s bound on how far a = s - l lies from the einsum's change, for the
    ``_clip_screen`` ``scores`` s and ``bounds`` of groups of size ``g`` and the
    linear terms ``lin`` l; ``owc_cd`` proves it."""
    alin = np.abs(lin)
    bound = bounds * ((g + 4) / 4) + 2.0 ** -51 * (np.abs(scores) + alin)
    bound[alin > 2.0 ** 1000] = np.inf
    return bound


def owc_cd(table: AffineTable, hessian: np.ndarray, picks: np.ndarray,
           steps: Optional[int] = None) -> OwcCdResult:
    """Greedy coordinate descent over per-group clip strengths, from grid index
    ``picks[i]`` of each group i of ``table`` (as ``owc_group_init`` returns them).

    Each step applies the single swap with the most negative exact loss change
    (ties to the smallest (group, grid index)) and stops early at a fixed
    point, which cannot change the outcome because the candidate table is
    static. Default step budget is one pass, one step per group.

    A change is c = q - l as computed, q = einsum("nvg,ngh,nvh->nv", d, H, d)
    over each candidate's difference d from its group's current residual and
    l the linear term. ``quantcore._clip_screen`` scores d'Hd as s with bound
    b, and only candidates with a - beta <= min_j (a_j + beta_j) are
    re-scored with q, for a = s - l and beta = (g + 4) / 4 b + 4u (|s| + |l|),
    inf where |l| > 2^1000 (``_change_bound``). Proof, on top of
    ``_best_clips``' and under its range rule, with A = |d|'|H||d|:

    1. Widening. q sums g^2 products of three factors in some order, so it is
       within gamma_(g^2+2) A of d'Hd, plus at most 1.01 g^2 2^-1075
       (1 + max(|d|, |H|)) of underflow, under 2^-70 of (g + 4) / 4 tau. As
       2.01 gamma_g + gamma_(g^2+2) <= (g + 4) / 4 * 4.02 gamma_g for g <= 2^20,
       step 2 there gives |s - q| <= 0.672 (g + 4) / 4 b. A row of exact zeros
       has s = q = 0.
    2. Subtraction. In range |s|, |q| <= 1.01 * 2^1000, so with |l| <= 2^1000,
       |a - c| <= (1 + u) |s - q| + 2u (|s| + |l|), which beta, computed to a
       relative 3u, exceeds.
    3. Screen. Rounding is monotone, so a rounded a_j - beta_j <= c_j <= a
       rounded a_j + beta_j, and the pick of argmin(c), the first minimum or
       the first NaN, survives as in step 3 there. A NaN c comes from a NaN l,
       which makes a NaN, or has beta = inf: a - beta is then NaN or -inf, so
       it survives and the step is not skipped. A step is skipped only when
       every rounded a - beta is >= 0, so every c is >= 0.
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
    # batched score and bound are kept across steps; a swap renews the swapped
    # group's.
    diff = table.resid - cur_resid[:, None, :]
    scores, bounds = _clip_screen(diff, hblocks)
    for _ in range(steps):
        lin = np.einsum("nvg,ng->nv", diff, v.reshape(n_groups, g))
        with np.errstate(all="ignore"):
            approx = scores - lin
            bound = _change_bound(scores, bounds, lin, g)
            lo = approx - bound
            if lo.min() >= 0.0:
                break
            keep = np.flatnonzero(~(lo > np.fmin.reduce(approx + bound, axis=None)))
        exact = np.empty(keep.size)
        for t, k in enumerate(keep):
            i, j = divmod(int(k), n_grid)
            # numpy sums a lone 2 x 2 block in two pairs but a row of them in one
            # run, so for g = 2 the group's whole row is scored (see test_owc_cd_screen).
            first, count = (j, 1) if g != 2 else (0, n_grid)
            one = diff[i:i + 1, first:first + count]
            exact[t] = np.einsum("nvg,ngh,nvh->nv", one, hblocks[i:i + 1], one)[0, j - first]
        change = exact - lin.flat[keep]
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
        scores[row], bounds[row] = _clip_screen(diff[row], hblocks[row])
        loss += best
        result.swaps.append((i_star, float(table.gammas[i_star, v_star]), best, loss))

    err = cur_resid.ravel()
    result.final_loss = float(err @ (hessian @ err))
    result.final_v = v.copy()
    return result


def quantize_channel_grouped(w: np.ndarray, hessian: np.ndarray, run: RunSettings) -> tuple:
    """Grouped counterpart of the per-channel pipeline: the per-group grid
    search, optionally refined by the clip-strength descent, then
    ``descent.descend`` on the scaled problem; a channel of constant groups runs
    no engine. Returns (scales, biases, gammas, codes, steps_taken), one entry
    per group in the first three.
    """
    table, picks = owc_group_init(w, hessian, run.bits, run.group_size, run.init_grid)
    steps = 0
    if run.owc_cd:
        refined = owc_cd(table, hessian, picks)
        picks = refined.picks
        steps += len(refined.swaps)
    scales, biases, gammas, codes = table.pick(picks)
    if run.engines and table.live.any():
        prob = tilde_transform(w, hessian, scales, biases, run.bits)
        codes, engine_steps = descend(prob, codes, run)
        steps += engine_steps
    return scales, biases, gammas, codes, steps
