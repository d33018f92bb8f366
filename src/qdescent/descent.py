"""Descent engines for integer code optimization, plus full-matrix orchestration.

All engines minimize the scaled loss

    L(q) = (q - z)' H (q - z),        z = (w - b) / a,

whose true counterpart is a^2 * L(q); the scale factor never changes which
candidate wins an argmin, so decisions are made on L directly. Each engine
maintains the gradient g = 2 H (q - z) incrementally: changing coordinate i
from q_i to r shifts the loss by exactly

    delta(i, r) = (r - q_i)^2 * H_ii + (r - q_i) * g_i

and shifts g by 2 (r - q_i) * H[:, i]. The block variant evaluates the same
expansion jointly over k coordinates,

    delta(B, r) = (r - q_B)' H_BB (r - q_B) + (r - q_B)' g_B,

for every value combination r in {0..2^c-1}^k of every block B of a fresh
random partition drawn each step.

Engines:

* greedy: per step, the single (coordinate, value) change with the largest
  loss reduction over all d_in * 2^c candidates, found in O(d_in): delta is
  a parabola in r with vertex r* = q_i - g_i / (2 H_ii), so each coordinate
  scores only the closed-form window {floor(r*), floor(r*) + 1} (shifted into
  range), which provably holds its best value while no value outside it can
  tie (see ``_best_moves``).
* block: per step, the best joint update of one random k-block over all
  2^(k*c) value combinations. For k = 2 an exact pair screen proves most
  steps to be no-ops before any block is scored: it lists the pairs whose
  best joint update could come within a safety margin of 1e-9 times the sum
  of the absolute terms of the delta expansion above, a margin that
  dominates the rounding of the screen's and the engine's arithmetic by six
  orders of magnitude. Partitions are drawn ``DRAW_ROWS`` at a time, the
  same rows as one draw per step, and the listed pairs are checked against
  all drawn partitions at once: the steps before the first partition that
  holds a listed pair are recorded as no-ops without scanning. Once no pair
  is listed every remaining step is a no-op, so the run stops drawing. The
  screen compares against a coupling table of about d_in^2 / 2 floats that
  depends on H alone, built once per layer when the channels share H and
  once per run otherwise. Codes and traces are exactly those of scanning
  every step.
* cyclic: coordinates visited in fixed order 0..d_in-1, one best value per
  visit, chosen by the same closed-form window; the classic one-sweep
  baseline.

Greedy and cyclic descent are one engine, ``cd_quantize``, which takes its
visiting order from ``run.method``; greedy stops at its first no-op, a fixed
point. Every engine takes a ``ChannelProblem``, whose scale is never 0 (a
constant channel raises when its problem is built), gets its codes, gradient
and trace from ``_start`` and returns through ``_finish``. It runs at most
``RunSettings.total_steps(d_in)`` steps, tracks the loss incrementally
(``loss += delta``) in each step's ``loss_after`` and computes ``final_loss``
from scratch on the final codes; ``oracle.verify_trace`` is the from-scratch
audit of every step.

Determinism: argmin ties break to the lexicographically smallest
(coordinate, value) or (block, values); block partitions come from a
counter-based Philox stream. Only block descent with blocks of two or more
draws, so only its runs derive per-channel seeds, from the global seed and
the channel index: a channel's result does not depend on the other channels
or on the order they run in. The other methods never read the seed and never
load ``numpy.random``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .calibration import ShapeMismatchError
from .quantcore import (ChannelProblem, QuantizedLayer, RunSettings, _check_block, group_count,
                        layer_records, owc_quantize)
from .tensorio import BenchRecord


@dataclass(frozen=True)
class TraceStep:
    """One engine step. ``coords``/``values`` are empty for no-op steps."""

    index: int
    coords: tuple[int, ...]
    values: tuple[int, ...]
    predicted_delta: float
    loss_after: float
    accepted: bool


@dataclass
class DescentTrace:
    """Step-by-step record of one engine run on one channel.

    ``loss_after`` entries are accumulated (the previous loss plus
    ``predicted_delta``); ``final_loss`` is recomputed from scratch on the
    final codes. ``oracle.verify_trace`` replays a trace against
    from-scratch losses, so it checks both the predicted deltas and the
    accumulated losses. ``final_gradient`` is the incrementally maintained g
    at termination.
    """

    initial_loss: float
    steps: list[TraceStep] = field(default_factory=list)
    final_loss: float = 0.0
    loss_scale: float = 1.0
    final_gradient: Optional[np.ndarray] = None

    @property
    def true_loss(self) -> float:
        return self.loss_scale * self.final_loss

    @property
    def accepted_steps(self) -> int:
        return sum(1 for s in self.steps if s.accepted)


def dump_trace(trace: DescentTrace, path: str | Path) -> None:
    """JSON-lines debug dump: one header object, then one object per step."""
    with open(path, "w") as f:
        header = {"initial_loss": trace.initial_loss, "final_loss": trace.final_loss,
                  "true_loss": trace.true_loss, "loss_scale": trace.loss_scale,
                  "steps": len(trace.steps)}
        f.write(json.dumps(header) + "\n")
        for s in trace.steps:
            f.write(json.dumps({"index": s.index, "coords": list(s.coords),
                                "values": list(s.values), "predicted_delta": s.predicted_delta,
                                "loss_after": s.loss_after, "accepted": s.accepted}) + "\n")


def _loss(hmat: np.ndarray, codes: np.ndarray, z: np.ndarray) -> float:
    """The scaled loss (q - z)' H (q - z), from scratch."""
    err = codes - z
    return float(err @ (hmat @ err))


def _start(prob: ChannelProblem, q0: np.ndarray) -> tuple[np.ndarray, np.ndarray, DescentTrace]:
    """Every engine's start from ``q0``, once it fits the problem's dimension and
    bit width: its codes as float64, the gradient 2 H (q0 - z), and a trace
    holding the loss of q0."""
    hmat = prob.hessian
    q0 = np.asarray(q0)
    if q0.shape[0] != hmat.shape[0]:
        raise ShapeMismatchError("initial codes do not match the Hessian dimension")
    if q0.size and int(q0.max(initial=0)) >= prob.levels:
        raise ValueError("initial code out of range for the configured bit width")
    codes = np.array(q0, dtype=np.float64)
    err = codes - prob.target
    h_err = hmat @ err
    return codes, 2.0 * h_err, DescentTrace(float(err @ h_err), loss_scale=prob.scale ** 2)


def _finish(prob: ChannelProblem, codes: np.ndarray, gradient: np.ndarray,
            trace: DescentTrace) -> tuple[np.ndarray, DescentTrace]:
    """Every engine's finish: the final codes as uint8 and the trace, with its
    from-scratch ``final_loss`` and the maintained gradient."""
    trace.final_loss = _loss(prob.hessian, codes, prob.target)
    trace.final_gradient = gradient.copy()
    return codes.astype(np.uint8), trace


def _best_moves(codes: np.ndarray, gradient: np.ndarray, hdiag: np.ndarray,
                levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Best single-coordinate move of every row, (values, scores), in O(rows).

    Entry i is the value r minimizing ``diff*diff*hdiag[i] + diff*gradient[i]``
    over r in {0..levels-1}, diff = r - codes[i], ties to the smaller r, with
    that score: bitwise what a scan of all ``levels`` values of the row
    returns. With h = H_ii > 0, q = codes[i] and g = gradient[i] the exact
    score is the parabola

        S(r) = (r - q)^2 h + (r - q) g = h (r - r*)^2 - h (q - r*)^2,   r* = q - g / (2h),

    so a row scores only the window {lo, lo + 1}, lo = clip(floor(r^), 0, L - 2),
    where r^ is the computed r* and L = levels <= 2^8. Both values are scored
    with the scan's own formula and the lower one wins a tie, so the result
    is the scan's whenever every value outside the window scores strictly
    above a window value. Proof, with u = 2^-53 and g finite:

    1. r^ = q - 0.5 (g / h) has two roundings, so
       |r^ - r*| <= 2.1 u (L + |r*|), less than e = 1e-12 when |r*| <= 4L;
       when |r*| > 4L, r^ has the sign of r* (also if g / h overflows to
       +-inf). A value r < lo exists only if lo >= 1, and then r^ >= lo, so
       r* > lo - e (or r* > 4L > lo). A value r > lo + 1 exists only if
       lo <= L - 3, so lo = max(floor(r^), 0) and r^ < lo + 1, so
       r* < lo + 1 + e (or r* < -4L).
    2. Exact gap. For r < lo, against lo (which lies between r and r*),

           S(r) - S(lo) = h (lo - r) (2r* - r - lo) >= h ((r* - r) + (r* - lo)) > h (|r - r*| - e),

       and for r > lo + 1 against lo + 1 the same bound follows from
       r* < lo + 1 + e. As |r - r*| > 1 - e, the gap exceeds h (1 - 2e).
    3. Rounding. The scan computes fl(fl(D^2 h) + fl(D g)) with D = r - q an
       exact integer, |D| <= L - 1, so a score is within 3u (D^2 h + |D g|)
       of S. Since |g| = 2h |q - r*| <= 2h (|D| + |r - r*|), that is at most
       3u h (L-1) (3(L-1) + 2 |r - r*|), and the window value of step 2 is
       no farther from r* than r. The two errors together stay below
       1.3e-10 h + 3.5e-13 h |r - r*|, far less than the gap of step 2.

    Rows with h <= 0, where the argument does not hold (the zero rows of H~
    for a constant group, whose scores are all exactly 0), get the full scan.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rstar = codes - 0.5 * (gradient / hdiag)
    lo = np.clip(np.floor(rstar), 0.0, float(levels - 2))
    hi = lo + 1.0
    d_lo, d_hi = lo - codes, hi - codes
    s_lo = d_lo * d_lo * hdiag + d_lo * gradient
    s_hi = d_hi * d_hi * hdiag + d_hi * gradient
    values = np.where(s_hi < s_lo, hi, lo)
    scores = np.minimum(s_lo, s_hi)

    no_vertex = ~(hdiag > 0.0)
    if no_vertex.any():
        rows = np.flatnonzero(no_vertex)
        diff = np.arange(levels, dtype=np.float64) - codes[rows, None]
        delta = diff * diff * hdiag[rows, None] + diff * gradient[rows, None]
        col = np.argmin(delta, axis=1)
        values[rows] = col
        scores[rows] = delta[np.arange(rows.size), col]
    return values, scores


def cd_quantize(prob: ChannelProblem, q0: np.ndarray,
                run: RunSettings) -> tuple[np.ndarray, DescentTrace]:
    """Coordinate descent by single moves, ``run.total_steps(d_in)`` steps: cyclic
    when ``run.method`` is "cyclic", greedy for every other method.

    Step s takes coordinate ``s % d_in`` (cyclic) or the first coordinate
    whose best score reaches the minimum (greedy), which is the lexicographic
    argmin of the full scan of all d_in * 2^c candidates. The coordinate moves
    to its best value from ``_best_moves`` (ties to the smaller value) when
    that strictly improves the loss, and otherwise the step is a no-op (a
    zero delta counts as keep-current). Every row's best move stays valid
    until a step changes the state, so the moves are recomputed only after an
    accepted step. A greedy no-op is a fixed point, so greedy stops after
    recording it. ``loss_after`` accumulates the predicted deltas;
    ``final_loss`` is recomputed from scratch.
    """
    cyclic = run.method == "cyclic"
    codes, gradient, trace = _start(prob, q0)
    hmat = prob.hessian
    d = hmat.shape[0]
    hdiag = np.diag(hmat).copy()
    levels = prob.levels
    loss = trace.initial_loss
    scores = None
    for step in range(run.total_steps(d)):
        if scores is None:
            values, scores = _best_moves(codes, gradient, hdiag, levels)
        i = step % d if cyclic else int(np.argmin(scores))
        best = float(scores[i])
        if best < 0.0:
            r = float(values[i])
            gradient += (2.0 * (r - codes[i])) * hmat[:, i]
            codes[i] = r
            loss += best
            scores = None
            trace.steps.append(TraceStep(step, (i,), (int(r),), best, loss, True))
        else:
            trace.steps.append(TraceStep(step, (), (), 0.0, loss, False))
            if not cyclic:
                break
    return _finish(prob, codes, gradient, trace)


def _value_combinations(levels: int, k: int) -> np.ndarray:
    """All value tuples of a k-block in lexicographic order, shape (levels^k, k)."""
    grids = np.meshgrid(*([np.arange(levels, dtype=np.float64)] * k), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, k)


#: Relative safety margin of the pair screen; see ``_pair_screen``.
SCREEN_MARGIN = 1e-9
#: Rows per chunk of the coupling table, so the filter's compare temporaries
#: stay O(chunk * d_in).
SCREEN_CHUNK_ROWS = 32
#: Candidate pairs per chunk of the exact check, times levels^2 values each.
SCREEN_CHECK_VALUES = 1 << 14
#: Partitions the block engine draws per call of the Philox stream.
DRAW_ROWS = 64
#: Partitions times listed pairs per chunk of the block engine's partner check.
PARTNER_CHECK_ENTRIES = 1 << 14


def _pair_coupling(hmat: np.ndarray) -> list[np.ndarray]:
    """The left side of ``_pair_screen``'s filter, which depends on H alone.

    Chunk c covers rows lo = c * SCREEN_CHUNK_ROWS up to hi (at most d_in - 1)
    and columns lo..d_in-1, and holds ``(1 + 4 margin) / 2 * (|H_ij| + |H_ji|)``
    at (i - lo, j - lo) for j > i and -inf on and below the diagonal, where
    no pair lies: ``-inf > x`` is false for every x, NaN included, so the
    filter compares whole chunks and never lists a pair i >= j. Together the
    chunks hold about d_in^2 / 2 floats (1 MiB at d_in = 512).
    ``quantize_matrix`` builds the table once per layer for per-channel runs,
    whose columns share one H; ``bcd_quantize`` builds its own otherwise.
    """
    d = hmat.shape[0]
    half_factor = 0.5 * (1.0 + 4.0 * SCREEN_MARGIN)
    tables = []
    for lo in range(0, d - 1, SCREEN_CHUNK_ROWS):
        hi = min(lo + SCREEN_CHUNK_ROWS, d - 1)
        table = half_factor * (np.abs(hmat[lo:hi, lo:]) + np.abs(hmat[lo:, lo:hi].T))
        table[np.tril_indices(hi - lo, 0, d - lo)] = -np.inf
        tables.append(table)
    return tables


def _pair_screen(hmat: np.ndarray, codes: np.ndarray, gradient: np.ndarray,
                 r_grid: np.ndarray, coupling: list[np.ndarray]) -> Optional[np.ndarray]:
    """Pairs (i, j), i < j, whose 2-block scan might accept a step; None if unscreenable.

    A 2-block update (D_i, D_j) changes the loss by exactly

        E = S_i(D_i) + S_j(D_j) + D_i D_j (H_ij + H_ji),   S_i(D) = D^2 H_ii + D g_i,

    and the engine accepts it only if its own rounded evaluation of E is
    negative. A pair is left out of the result only when, for every value
    pair, ``E >= SCREEN_MARGIN * T`` where T is the sum of the absolute
    values of the terms of E. That is a proof that the pair's scan is a
    no-op: the engine's factored re-check ``dvec @ hwin @ dvec + dvec @ g``
    is a handful of dot products over the same terms (the D are small exact
    integers), so its rounding error is at most gamma_4 * T ~ 4.5e-16 * T,
    and the screen's own arithmetic below (tables, products, square roots)
    errs by a few more units of 2^-53 relative to T or to the compared
    values. The margin of 1e-9 * T dominates both by six orders of
    magnitude. Terms that are exactly zero (T = 0, as on the zero rows of
    H~ for a constant group) are evaluated exactly by both sides.

    Stages:

    1. Single moves (D_j = 0). The slack is ``sigma_i(D) = S_i(D) -
       SCREEN_MARGIN * (D^2 |H_ii| + |D g_i|)``. If any slack is negative,
       a pair containing i could improve through its single move, so the
       state has no screen and None is returned. Otherwise
       ``rho_i = min over D != 0 of sigma_i(D) / D^2`` and ``mu_i = sqrt(rho_i)``.
    2. Filter. By AM-GM, ``rho_i D_i^2 + rho_j D_j^2 >= 2 mu_i mu_j |D_i D_j|``,
       so a pair cannot come within the margin unless
       ``(1 + margin) (|H_ij| + |H_ji|) / 2 > mu_i mu_j``. The left side,
       with a slightly larger factor to absorb rounding, is ``coupling``
       (``_pair_coupling(hmat)``); each chunk is compared whole against the
       outer product of its rows' and columns' mu, and its -inf entries on
       and below the diagonal never pass, so one ``flatnonzero`` per chunk
       lists the candidates in row-major (i, j) order. mu below 1e-150 is
       taken as 0 so that mu_i mu_j never underflows.
    3. Exact check of the pairs that pass the filter: all levels^2 value
       pairs of ``sigma_i + sigma_j + D_i D_j c - margin |D_i D_j| a`` with
       ``c = H_ij + H_ji`` and ``a = |H_ij| + |H_ji|``; a pair is returned
       if any of them is negative.
    """
    d = hmat.shape[0]
    hdiag = np.diag(hmat)
    diff = r_grid[None, :] - codes[:, None]
    sq = diff * diff
    step = diff * gradient[:, None]
    slack = (sq * hdiag[:, None] + step) - SCREEN_MARGIN * (sq * np.abs(hdiag)[:, None]
                                                            + np.abs(step))
    if (slack < 0.0).any():
        return None
    ratio = slack / np.maximum(sq, 1.0)
    ratio[diff == 0.0] = np.inf
    mu = np.sqrt(ratio.min(axis=1))
    mu[mu < 1e-150] = 0.0

    rows_i, cols_j = [], []
    for lo, table in zip(range(0, d - 1, SCREEN_CHUNK_ROWS), coupling):
        hit = np.flatnonzero(table > np.multiply.outer(mu[lo:lo + table.shape[0]], mu[lo:]))
        rows_i.append(hit // table.shape[1] + lo)
        cols_j.append(hit % table.shape[1] + lo)
    cand_i, cand_j = np.concatenate(rows_i), np.concatenate(cols_j)

    keep = np.zeros(cand_i.shape[0], dtype=bool)
    per_chunk = max(1, SCREEN_CHECK_VALUES // (r_grid.shape[0] ** 2))
    for lo in range(0, cand_i.shape[0], per_chunk):
        i, j = cand_i[lo:lo + per_chunk], cand_j[lo:lo + per_chunk]
        h_ij, h_ji = hmat[i, j], hmat[j, i]
        cross = (h_ij + h_ji)[:, None, None]
        weight = (np.abs(h_ij) + np.abs(h_ji))[:, None, None]
        prod = diff[i][:, :, None] * diff[j][:, None, :]
        value = (slack[i][:, :, None] + slack[j][:, None, :] + prod * cross
                 - SCREEN_MARGIN * (np.abs(prod) * weight))
        keep[lo:lo + per_chunk] = (value < 0.0).any(axis=(1, 2))
    return np.stack([cand_i[keep], cand_j[keep]], axis=1)


def _first_paired_row(block_of: np.ndarray, flagged: np.ndarray, start: int) -> int:
    """The first row s >= start whose partition puts a flagged pair (i, j) in one block,
    that is ``block_of[s, i] == block_of[s, j]``; the row count if there is none."""
    rows = max(1, PARTNER_CHECK_ENTRIES // flagged.shape[0])
    for lo in range(start, block_of.shape[0], rows):
        chunk = block_of[lo:lo + rows]
        paired = (chunk[:, flagged[:, 0]] == chunk[:, flagged[:, 1]]).any(axis=1)
        if paired.any():
            return lo + int(paired.argmax())
    return block_of.shape[0]


def bcd_quantize(prob: ChannelProblem, q0: np.ndarray, run: RunSettings,
                 coupling: Optional[list[np.ndarray]] = None) -> tuple[np.ndarray, DescentTrace]:
    """Block coordinate descent over fresh random partitions.

    Every step shuffles the coordinates into d_in/k blocks of size k
    (canonicalized: coordinates sorted inside each block, blocks ordered by
    their first coordinate) and scans all blocks x 2^(k*c) joint updates.
    A non-improving step is recorded as a no-op and iteration continues,
    since the next partition may still improve. With k = 1 the partition is
    always the same, and the call returns ``cd_quantize(prob, q0, run)``: greedy
    descent, which stops at its first no-op, for every method but cyclic. Only
    library and test callers take it: ``RunSettings.engines`` lists this engine
    only for blocks of two or more.

    Partitions are drawn ``DRAW_ROWS`` at a time (fewer for the last draw)
    by one ``Generator.permuted`` call over rows of 0..d_in-1: the rows of as
    many successive ``permutation(d_in)`` calls, leaving the Philox stream in
    the same state.

    For k = 2 an exact pair screen (``_pair_screen``) lists the pairs whose
    block might still improve the current state. While the list is current,
    ``_first_paired_row`` finds the first drawn partition that blocks a
    listed pair together; the steps before it are recorded as the no-ops the
    scan would have produced, without scanning. The screen is built at the
    start and again at the first no-op step after an accepted one, since
    only accepted steps change the state, each time against one coupling
    table of H (``_pair_coupling``): ``coupling`` when given, which must be
    ``_pair_coupling(prob.hessian)`` (``quantize_matrix`` builds it once per
    layer for per-channel runs), and otherwise a table built once per call.
    When the screen lists no pair at all, every remaining step is a no-op:
    they are recorded and drawing stops. Codes, traces and
    ``final_gradient`` are identical to scanning every step with one draw
    per step. For k >= 3 every step is scanned (a triple can improve even
    when no pair can).
    """
    k = run.blocks
    if k == 1:  # 1-blocks pass the block rules at every bit width and d_in
        return cd_quantize(prob, q0, run)
    codes, gradient, trace = _start(prob, q0)
    hmat = prob.hessian
    d = hmat.shape[0]
    _check_block(k, prob.bits, d)

    levels = prob.levels
    r_grid = np.arange(levels, dtype=np.float64)
    combos = _value_combinations(levels, k)
    # Scores come from the expanded quadratic r'Hr - 2r'Hq + q'Hq + (r-q)'g,
    # a handful of small matrix products; the r'Hr table needs the combo
    # outer products, which only pay off while they fit comfortably.
    expanded = combos.shape[0] * k * k <= (1 << 22)
    combos_outer = (combos[:, :, None] * combos[:, None, :]).reshape(-1, k * k) \
        if expanded else None
    per_block = combos.shape[0] * (k * k if expanded else k)
    block_chunk = max(1, (1 << 22) // per_block)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(run.seed)))
    loss = trace.initial_loss
    n_blocks = d // k
    total = run.total_steps(d)
    use_screen = k == 2
    if use_screen and coupling is None:
        coupling = _pair_coupling(hmat)
    flagged = _pair_screen(hmat, codes, gradient, r_grid, coupling) if use_screen else None
    fresh = use_screen  # whether ``flagged`` was computed for the current state
    perms = np.empty((0, d), dtype=np.intp)  # the drawn partitions; row ``row`` is next
    row = 0
    block_of = None  # block_of[s, i]: the block that partition ``perms[s]`` puts i in
    step = 0
    while step < total:
        if flagged is not None and not flagged.shape[0]:
            # No pair can improve and no-op steps leave the state as it is.
            trace.steps.extend(TraceStep(s, (), (), 0.0, loss, False) for s in range(step, total))
            break
        if row == perms.shape[0]:
            # The rows of n successive ``rng.permutation(d)`` calls, in one call.
            n = min(DRAW_ROWS, total - step)
            perms = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
            row, block_of = 0, None
        if flagged is not None:
            if block_of is None:
                block_of = np.empty_like(perms)
                block_of[np.arange(perms.shape[0])[:, None], perms] = np.arange(d) // k
            paired = _first_paired_row(block_of, flagged, row)
            trace.steps.extend(TraceStep(s, (), (), 0.0, loss, False)
                               for s in range(step, step + paired - row))
            step += paired - row
            row = paired
            if row == perms.shape[0]:
                continue
        perm = perms[row]
        row += 1
        blocks = np.sort(perm.reshape(n_blocks, k), axis=1)
        blocks = blocks[np.argsort(blocks[:, 0])]
        # Blocks are scanned in canonical order and chunked to bound the
        # score matrix; tracking the running minimum with a strict < keeps
        # the global argmin lexicographic in (block, values).
        best = np.inf
        best_block = best_combo = -1
        for lo in range(0, n_blocks, block_chunk):
            chunk = blocks[lo:lo + block_chunk]
            hblk = hmat[chunk[:, :, None], chunk[:, None, :]]
            qblk = codes[chunk]
            gblk = gradient[chunk]
            if expanded:
                hq = np.matmul(hblk, qblk[:, :, None])                       # (b, k, 1)
                r_h_r = combos_outer @ hblk.reshape(chunk.shape[0], -1).T    # (v, b)
                r_h_q = np.matmul(combos[None, :, :], hq)[:, :, 0]           # (b, v)
                q_h_q = np.matmul(qblk[:, None, :], hq)[:, 0, 0]             # (b,)
                r_g = combos @ gblk.T                                        # (v, b)
                q_g = (qblk * gblk).sum(axis=1)                              # (b,)
                delta = r_h_r.T - 2.0 * r_h_q + (q_h_q - q_g)[:, None] + r_g.T
            else:
                diff = combos[None, :, :] - qblk[:, None, :]
                delta = ((np.matmul(diff, hblk) * diff).sum(axis=2)
                         + (diff * gblk[:, None, :]).sum(axis=2))
            flat = int(np.argmin(delta))
            if float(delta.flat[flat]) < best:
                bi, vi = divmod(flat, combos.shape[0])
                best = float(delta.flat[flat])
                best_block, best_combo = lo + bi, vi
        best_coords = blocks[best_block]
        best_values = combos[best_combo]
        # Re-derive the winner's delta from the factored form: it is exact
        # (a keep-current candidate scores exactly zero), so round-off in
        # the expanded scores can never turn a no-op into a step.
        dvec = best_values - codes[best_coords]
        hwin = hmat[best_coords[:, None], best_coords[None, :]]
        best = float(dvec @ hwin @ dvec + dvec @ gradient[best_coords])

        if best < 0.0:
            gradient += 2.0 * (hmat[:, best_coords] @ dvec)
            codes[best_coords] = best_values
            loss += best
            trace.steps.append(TraceStep(step, tuple(int(c) for c in best_coords),
                                         tuple(int(v) for v in best_values), best, loss, True))
            flagged, fresh = None, False
        else:
            trace.steps.append(TraceStep(step, (), (), 0.0, loss, False))
            if use_screen and not fresh:
                flagged, fresh = _pair_screen(hmat, codes, gradient, r_grid, coupling), True
        step += 1
    return _finish(prob, codes, gradient, trace)


def channel_seed(seed: int, channel: int) -> int:
    """Stable per-channel seed so results are independent of scheduling."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(channel,))
    return int(ss.generate_state(1, np.uint64)[0])


def descend(prob: ChannelProblem, codes: np.ndarray, run: RunSettings,
            coupling: Optional[list[np.ndarray]] = None) -> tuple[np.ndarray, int]:
    """Each of ``run.engines`` on ``prob`` in turn, each warm-started from the last
    one's codes, shared by the per-channel and grouped pipelines: ``cd_quantize``
    for "cd" and "cyclic", and ``bcd_quantize``, handed ``coupling``, for "bcd".
    Returns (codes, steps_taken); with no engine, ``codes`` and 0.

    The engines are looked up as module globals at each call, so a wrapper
    rebound over them (a tracer, a profiler) sees every call.
    """
    steps = 0
    for engine in run.engines:
        codes, trace = (bcd_quantize(prob, codes, run, coupling) if engine == "bcd"
                        else cd_quantize(prob, codes, run))
        steps += len(trace.steps)
    return codes, steps


def _quantize_channel(w: np.ndarray, hessian: np.ndarray, run: RunSettings,
                      coupling: Optional[list[np.ndarray]] = None) -> tuple:
    """Per-channel pipeline: the clip-strength grid search, then :func:`descend` on
    the channel's own problem, with the layer's bcd ``coupling`` table if given;
    a constant channel runs no engine. Returns (scales, biases, gammas, codes,
    steps_taken), one entry each in the first three.
    """
    scales, biases, gammas, codes = owc_quantize(w, hessian, run.bits, run.init_grid)
    if not run.engines or scales[0] == 0.0:
        return scales, biases, gammas, codes, 0
    prob = ChannelProblem(w, hessian, scales[0], biases[0], run.bits)
    return (scales, biases, gammas, *descend(prob, codes, run, coupling))


def quantize_matrix(weights: np.ndarray, hessian: np.ndarray, run: RunSettings, *,
                    collect_timing: bool = True) -> tuple[QuantizedLayer, list[BenchRecord]]:
    """Quantize a (d_in, d_out) weight matrix column by column with the settings ``run``,
    checked against d_in before any work; its run block is the layer's ``meta``.

    Channels are independent problems sharing the read-only Hessian; they
    run one after another, each filling its row of the layer, and BLAS
    threads the products inside each. Group quantization (group_size > 0)
    routes through the sub-channel pipeline. Each channel runs the stages
    ``RunSettings`` lists. Per-channel bcd with blocks of two builds the pair
    screen's coupling table of H once for all channels. Every run refuses an H
    that is not a finite d_in x d_in matrix. A run that descends (any of
    ``run.engines``, or ``owc_cd``) steps on 2 H (q - z), the loss's gradient
    only for H == H.T, so it refuses any other H; ``build_hessian`` and the
    eigen-clip return one. A run that only fits scores e' H e alone, and takes
    an asymmetric H. Only the bcd engine draws: the channels of a run that
    lists it run on seeds ``channel_seed(run.seed, j)``, and every other run
    passes ``run`` through unchanged, deriving no seed and loading no
    ``numpy.random``. Each record's wall time covers its channel's
    quantization only.
    """
    from . import groupquant  # deferred: groupquant imports this module's engines

    weights = np.asarray(weights)
    if weights.ndim != 2:
        raise ShapeMismatchError("weights must be a (d_in, d_out) matrix")
    d_in, d_out = weights.shape
    run = run.check(d_in)
    if hessian.shape != (d_in, d_in):
        raise ShapeMismatchError(f"weights have d_in={d_in} but the Hessian has shape "
                                 f"{hessian.shape}")
    if not np.isfinite(hessian).all():
        raise ValueError("the Hessian holds non-finite values")
    if (run.owc_cd or run.engines) and not np.array_equal(hessian, hessian.T):
        raise ValueError("the Hessian is not exactly symmetric (H != H.T), which descent needs")
    if d_out == 0:
        raise ShapeMismatchError("weights have d_out=0; there is no channel to quantize")
    if not np.isfinite(weights).all():
        raise ValueError("weights hold non-finite values")

    w64 = weights.astype(np.float64)
    params_shape = (d_out, group_count(d_in, run.group_size))
    layer = QuantizedLayer(
        d_in=d_in, d_out=d_out, bits=run.bits, group_size=run.group_size,
        **{name: np.empty(params_shape, np.float32) for name in ("scales", "biases", "gammas")},
        codes=np.empty((d_out, d_in), np.uint8), meta=run.run_block())
    draws = "bcd" in run.engines  # the only engine that reads run.seed
    coupling = (_pair_coupling(hessian)
                if draws and run.blocks == 2 and not run.group_size else None)
    steps, walls = [], []
    for j in range(d_out):
        start = time.perf_counter()
        crun = replace(run, seed=channel_seed(run.seed, j)) if draws else run
        w = w64[:, j]
        if run.group_size == 0:
            fit = _quantize_channel(w, hessian, crun, coupling)
        else:
            fit = groupquant.quantize_channel_grouped(w, hessian, crun)
        layer.scales[j], layer.biases[j], layer.gammas[j], layer.codes[j], taken = fit
        steps.append(taken)
        walls.append((time.perf_counter() - start) * 1e3 if collect_timing else 0.0)
    layer.validate()
    return layer, layer_records(layer, run, w64, hessian, steps, walls)
