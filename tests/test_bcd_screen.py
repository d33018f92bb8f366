"""Differential tests of the bcd pair screen against the engine it replaced.

``reference_bcd_quantize`` is a verbatim copy of ``bcd_quantize`` before the
exact pair screen (k = 2) was added: it scans every block of every step and
draws one partition per step. The screen claims to skip only scans that are
provably no-ops, and the partitions drawn ``DRAW_ROWS`` at a time are the
same rows, so codes, every trace step, the final loss and the final gradient
must be identical. ``conftest.reference_pair_screen``, the screen before its
coupling table was built once per run, must list the same pairs. A layer of
per-channel runs builds the table once and shares it; a run given that table
must equal the run that builds its own.
"""

import numpy as np
import pytest

from qdescent import descent
from qdescent.descent import (MAX_BLOCK_BITS, DescentConfig, DescentTrace, EnumerationGuardError,
                              TraceStep, _check_engine_inputs, _pair_coupling, _pair_screen,
                              _value_combinations, bcd_quantize, cd_quantize)
from qdescent.oracle import brute_force, verify_trace
from qdescent.quantcore import ChannelProblem, owc_quantize

from conftest import (GradientState, grouped_problem, integer_problem, random_problem,
                      reference_pair_screen)


def reference_bcd_quantize(prob: ChannelProblem, q0: np.ndarray,
                 cfg: DescentConfig) -> tuple[np.ndarray, DescentTrace]:
    """``bcd_quantize`` as it was before the pair screen: every step scans every block."""
    hmat, z = _check_engine_inputs(prob, q0)
    d = hmat.shape[0]
    k = cfg.block_size
    bits = prob.bits
    if d % k:
        raise EnumerationGuardError(f"block size {k} does not divide d_in={d}")
    if k * bits > MAX_BLOCK_BITS:
        raise EnumerationGuardError(
            f"block enumeration needs 2^{k * bits} combinations; guard is 2^{MAX_BLOCK_BITS}")

    state = GradientState.init(hmat, q0, z)
    levels = prob.levels
    r_grid = np.arange(levels, dtype=np.float64)
    hdiag = np.diag(hmat).copy()
    if k > 1:
        combos = _value_combinations(levels, k)
        # Scores come from the expanded quadratic r'Hr - 2r'Hq + q'Hq + (r-q)'g,
        # a handful of small matrix products; the r'Hr table needs the combo
        # outer products, which only pay off while they fit comfortably.
        expanded = combos.shape[0] * k * k <= (1 << 22)
        combos_outer = (combos[:, :, None] * combos[:, None, :]).reshape(-1, k * k) \
            if expanded else None
        per_block = combos.shape[0] * (k * k if expanded else k)
        block_chunk = max(1, (1 << 22) // per_block)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))

    trace = DescentTrace(initial_loss=state.loss(hmat, z),
                         loss_scale=prob.scale ** 2)
    loss = trace.initial_loss
    n_blocks = d // k
    for step in range(cfg.total_steps(d)):
        if k == 1:
            # Singleton partition: identical candidate set regardless of the
            # shuffle, so skip the draw and use the greedy scan directly.
            diff = r_grid[None, :] - state.codes[:, None]
            delta = diff * diff * hdiag[:, None] + diff * state.gradient[:, None]
            flat = int(np.argmin(delta))
            bi, vi = divmod(flat, levels)
            best = float(delta.flat[flat])
            best_coords = np.array([bi])
            best_values = np.array([float(vi)])
        else:
            perm = rng.permutation(d)
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
                qblk = state.codes[chunk]
                gblk = state.gradient[chunk]
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
            dvec = best_values - state.codes[best_coords]
            hwin = hmat[best_coords[:, None], best_coords[None, :]]
            best = float(dvec @ hwin @ dvec + dvec @ state.gradient[best_coords])

        if best < 0.0:
            change = best_values - state.codes[best_coords]
            state.gradient += 2.0 * (hmat[:, best_coords] @ change)
            state.codes[best_coords] = best_values
            loss += best
            trace.steps.append(TraceStep(step, tuple(int(c) for c in best_coords),
                                         tuple(int(v) for v in best_values), best, loss, True))
        else:
            trace.steps.append(TraceStep(step, (), (), 0.0, loss, False))
            if k == 1:
                break
    trace.final_loss = state.loss(hmat, z)
    trace.final_gradient = state.gradient.copy()
    return state.codes.astype(np.uint8), trace


def assert_same_run(prob, q0, cfg):
    codes, trace = bcd_quantize(prob, q0, cfg)
    ref_codes, ref_trace = reference_bcd_quantize(prob, q0, cfg)
    np.testing.assert_array_equal(codes, ref_codes)
    assert trace.steps == ref_trace.steps
    assert trace.initial_loss == ref_trace.initial_loss
    assert trace.final_loss == ref_trace.final_loss
    np.testing.assert_array_equal(trace.final_gradient, ref_trace.final_gradient)
    return trace


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("epochs", [1, 2])
def test_screen_matches_reference_on_random_problems(bits, epochs):
    for seed in range(6):
        d = 2 * int(np.random.default_rng(seed).integers(4, 33))
        prob, owc_codes = random_problem(d, bits, seed=100 * bits + seed)
        cfg = DescentConfig(block_size=2, epochs=epochs, seed=seed)
        cd_codes, _ = cd_quantize(prob, owc_codes, cfg)
        for q0 in (owc_codes, cd_codes):
            assert_same_run(prob, q0, cfg)


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_screen_matches_reference_on_near_ties(bits):
    for seed in range(40):
        prob, q0 = integer_problem(8, bits, seed)
        cfg = DescentConfig(block_size=2, epochs=2, seed=seed)
        cd_codes, _ = cd_quantize(prob, q0, cfg)
        assert_same_run(prob, q0, cfg)
        assert_same_run(prob, cd_codes, cfg)


def test_screen_matches_reference_with_a_constant_group():
    for seed in range(8):
        prob, owc_codes = grouped_problem(64, 16, bits=2 + seed % 2, seed=seed,
                                          constant_group=seed % 4)
        cfg = DescentConfig(block_size=2, epochs=1 + seed % 2, seed=seed)
        cd_codes, _ = cd_quantize(prob, owc_codes, cfg)
        assert_same_run(prob, owc_codes, cfg)
        assert_same_run(prob, cd_codes, cfg)


def test_blocks_of_three_are_unchanged():
    for seed in range(4):
        prob, q0 = random_problem(12, 2, seed=seed)
        assert_same_run(prob, q0, DescentConfig(block_size=3, seed=seed))


@pytest.mark.parametrize("k, bits", [(6, 3), (9, 2)])
def test_whole_vector_block_uses_the_factored_score(k, bits):
    # levels^k * k^2 > 2^22, so blocks are scored as (r - q)'H(r - q) + (r - q)'g,
    # not by the expanded quadratic; one block of all k coordinates makes the
    # first step an exhaustive search and the second a no-op. Codes, not losses,
    # are compared with the oracle: the two sum the same loss in different orders.
    assert (2 ** bits) ** k * k * k > 1 << 22
    for seed in range(3):
        prob, _ = random_problem(k, bits, seed=seed)
        q0 = np.zeros(k, dtype=np.uint8)
        cfg = DescentConfig(block_size=k, steps=2, seed=seed)
        trace = assert_same_run(prob, q0, cfg)
        assert [s.accepted for s in trace.steps] == [True, False]
        codes, _ = bcd_quantize(prob, q0, cfg)
        np.testing.assert_array_equal(codes, brute_force(prob).codes)
        assert verify_trace(prob, q0, trace).ok


def test_screen_is_empty_at_a_decoupled_fixed_point():
    # Weak coupling: after cd no pair can improve, so bcd records its step
    # budget of no-ops without scanning a single block.
    rng = np.random.default_rng(5)
    d, bits = 16, 3
    a = rng.standard_normal((4 * d, d))
    h = np.diag(rng.uniform(1.0, 2.0, size=d)) + 1e-3 * (a.T @ a) / (4 * d)
    w = rng.standard_normal(d)
    scales, biases, _, q0 = owc_quantize(w, h, bits, 50)
    prob = ChannelProblem(w, h, scales[0], biases[0], bits)
    cfg = DescentConfig(block_size=2, epochs=2, seed=3)
    cd_codes, _ = cd_quantize(prob, q0, cfg)

    state = GradientState.init(h, cd_codes, prob.target)
    flagged = _pair_screen(h, state.codes, state.gradient, np.arange(2 ** bits, dtype=np.float64),
                           _pair_coupling(h))
    assert flagged is not None and flagged.shape == (0, 2)
    trace = assert_same_run(prob, cd_codes, cfg)
    assert len(trace.steps) == 2 * d and not any(s.accepted for s in trace.steps)


def test_screen_returns_none_when_a_single_move_improves():
    prob, q0 = random_problem(16, 3, seed=2)
    codes, _ = cd_quantize(prob, q0, DescentConfig())
    codes[0] = 7 if codes[0] < 4 else 0  # moving coordinate 0 back now improves
    state = GradientState.init(prob.hessian, codes, prob.target)
    levels = np.arange(8, dtype=np.float64)
    diff = levels[None, :] - state.codes[:, None]
    single = diff * diff * np.diag(prob.hessian)[:, None] + diff * state.gradient[:, None]
    assert single.min() < 0.0
    assert _pair_screen(prob.hessian, state.codes, state.gradient, levels,
                        _pair_coupling(prob.hessian)) is None


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_unflagged_pairs_cannot_improve(bits):
    # Soundness of the screen itself: every pair it leaves out scores >= 0
    # for every value pair, in the engine's own re-check arithmetic.
    levels = np.arange(2 ** bits, dtype=np.float64)
    checked = 0
    for seed in range(12):
        maker = random_problem if seed % 2 else integer_problem
        prob, q0 = maker(10, bits, seed=seed)
        hmat = prob.hessian
        codes, _ = cd_quantize(prob, q0, DescentConfig())
        state = GradientState.init(hmat, codes, prob.target)
        flagged = _pair_screen(hmat, state.codes, state.gradient, levels, _pair_coupling(hmat))
        if flagged is None:
            continue
        flagged = {tuple(p) for p in flagged.tolist()}
        for i in range(10):
            for j in range(i + 1, 10):
                if (i, j) in flagged:
                    continue
                coords = np.array([i, j])
                hwin = hmat[coords[:, None], coords[None, :]]
                for ri in levels:
                    for rj in levels:
                        dvec = np.array([ri, rj]) - state.codes[coords]
                        assert dvec @ hwin @ dvec + dvec @ state.gradient[coords] >= 0.0
                checked += 1
    assert checked > 0


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return bool(np.array_equal(a, b))


@pytest.mark.parametrize("d, rows", [(2, 1), (64, 3), (64, 7), (512, 64), (512, 33)])
def test_permuted_rows_are_successive_permutations(d, rows):
    # The block engine draws its partitions ``rows`` at a time with one
    # ``permuted`` call, the last draw shorter when ``rows`` does not divide
    # the step count: that must give the rows, and leave the stream state, of
    # one ``permutation(d)`` call per step.
    steps = 100
    one_by_one, by_rows = (np.random.Generator(np.random.Philox(np.random.SeedSequence(d + rows)))
                           for _ in range(2))
    expected = np.stack([one_by_one.permutation(d) for _ in range(steps)])
    drawn = [by_rows.permuted(np.tile(np.arange(d), (min(rows, steps - s), 1)), axis=1)
             for s in range(0, steps, rows)]
    np.testing.assert_array_equal(np.concatenate(drawn), expected)
    assert _same_state(by_rows.bit_generator.state, one_by_one.bit_generator.state)


def _draw_rows_cases():
    """k = 2 runs of 2 epochs of 37 steps, a budget that no tested DRAW_ROWS > 1 divides.
    The random H are of rank d/2, whose strong coupling keeps pairs listed."""
    cases = []
    for seed in range(3):
        for d, bits in ((16, 2), (34, 3), (70, 2)):
            prob, owc_codes = random_problem(d, bits, seed=10 * seed + d, n=d // 2)
            cfg = DescentConfig(block_size=2, steps=37, epochs=2, seed=seed)
            cd_codes, _ = cd_quantize(prob, owc_codes, cfg)
            cases += [(prob, owc_codes, cfg), (prob, cd_codes, cfg)]
    for seed in range(8):
        prob, q0 = integer_problem(8, 2, seed)
        cases.append((prob, q0, DescentConfig(block_size=2, steps=37, epochs=2, seed=seed)))
    for seed in range(2):
        prob, owc_codes = grouped_problem(64, 16, bits=3, seed=seed, constant_group=1 + seed)
        cases.append((prob, owc_codes, DescentConfig(block_size=2, steps=37, epochs=2, seed=seed)))
    return cases


@pytest.mark.parametrize("draw_rows", [1, 3, 64])
def test_row_block_draws_match_reference(monkeypatch, draw_rows):
    monkeypatch.setattr(descent, "DRAW_ROWS", draw_rows)
    screens = []
    screen = descent._pair_screen

    def recorded_screen(*args):
        screens.append(screen(*args))
        return screens[-1]

    monkeypatch.setattr(descent, "_pair_screen", recorded_screen)
    stops = []  # the first step of each run recorded after its screen emptied, with its budget
    for prob, q0, cfg in _draw_rows_cases():
        screens.clear()
        trace = assert_same_run(prob, q0, cfg)
        accepted = [s.index for s in trace.steps if s.accepted]
        if accepted and screens[-1] is not None and not screens[-1].shape[0]:
            # The no-op after the last accepted step rebuilt the screen, and it was empty.
            stops.append((accepted[-1] + 2, cfg.total_steps(prob.hessian.shape[0])))
    mid_block = [stop for stop, total in stops if stop < total and stop % draw_rows]
    assert stops and (draw_rows == 1 or mid_block)


def _screen_states():
    """(H, codes, gradient, levels) at the start and at the cd fixed point of random,
    near-tie, constant-group (zero rows of H~) and non-symmetric problems."""
    problems = [random_problem(d, bits, seed=d + bits)
                for d, bits in ((10, 3), (33, 2), (70, 3), (100, 1))]
    problems += [integer_problem(8, bits, seed) for bits in (1, 2, 3) for seed in range(4)]
    problems += [grouped_problem(64, 16, bits=2 + seed % 2, seed=seed, constant_group=seed % 4)
                 for seed in range(4)]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for d, bits in ((12, 2), (40, 3)):
            for lower in (False, True):
                # A rank-d/2 symmetric part plus a strictly triangular one, so
                # |H_ij| and |H_ji| differ and the filter must read both.
                a = rng.standard_normal((d // 2, d))
                tri = np.triu(rng.standard_normal((d, d)), 1)
                h = a.T @ a / d + 0.5 * np.eye(d) + 0.5 * (tri.T if lower else tri)
                z = rng.uniform(0.0, 2 ** bits - 1, size=d)
                prob = ChannelProblem(weights=z, hessian=h, scale=1.0, bias=0.0, bits=bits)
                problems.append((prob, rng.integers(0, 2 ** bits, size=d).astype(np.uint8)))
    states = []
    for prob, q0 in problems:
        cd_codes, _ = cd_quantize(prob, q0, DescentConfig(epochs=20))
        for codes in (q0, cd_codes):
            state = GradientState.init(prob.hessian, codes, prob.target)
            states.append((prob.hessian, state.codes, state.gradient,
                           np.arange(prob.levels, dtype=np.float64)))
    return states


def test_screen_matches_reference_screen():
    listed = screened = 0
    for hmat, codes, gradient, levels in _screen_states():
        pairs = _pair_screen(hmat, codes, gradient, levels, _pair_coupling(hmat))
        ref = reference_pair_screen(hmat, codes, gradient, levels)
        if ref is None:
            assert pairs is None
            continue
        assert pairs.dtype == ref.dtype and pairs.shape == ref.shape
        np.testing.assert_array_equal(pairs, ref)
        listed += ref.shape[0]
        screened += 1
    assert listed > 0 and screened > 10


def _edge_states():
    """(label, H, codes, gradient, levels) at the chunk edges of the coupling table and
    at the extremes of float64.

    The table's chunks hold 32 rows each, the last ending at row d - 2: d_in
    2 gives one chunk of one row, 32 one chunk of 31 rows, 64 two chunks,
    and 66 a last chunk of one row whose columns end at d - 1. H scaled by
    2^+-500 moves every compared value by 2^+-500 (its mu by 2^+-250); 2^1020
    overflows the table and the gradient to inf, and 2^-1060 makes H
    subnormal, so its mu fall under the 1e-150 rule. The H~ of a channel with
    a constant group has zero rows, placed last at d_in = 66. Each H is taken
    at the start and at the cd fixed point of the unscaled problem.
    """
    cases = []
    for d in (2, 32, 64, 66):
        for bits in (1, 2, 3):
            cases.append((f"d{d}-b{bits}", random_problem(d, bits, seed=7 * d + bits, n=d // 2 + 1),
                          [0]))
    for d, bits in ((64, 2), (66, 3)):
        cases.append((f"d{d}-b{bits}-scaled", random_problem(d, bits, seed=d, n=d // 2),
                      [500, -500, 1020, -1060]))
    for seed, (d, g, group) in enumerate(((66, 33, 1), (64, 16, 3), (32, 16, 0))):
        cases.append((f"tilde-d{d}-g{group}", grouped_problem(d, g, bits=2 + seed % 2, seed=seed,
                                                               constant_group=group), [0]))
    states = []
    for label, (prob, q0), exponents in cases:
        cd_codes, _ = cd_quantize(prob, q0, DescentConfig(epochs=20))
        for codes in (q0, cd_codes):
            for e in exponents:
                with np.errstate(all="ignore"):
                    hmat = np.ldexp(prob.hessian, e)
                    state = GradientState.init(hmat, codes, prob.target)
                states.append((f"{label}-2^{e}", hmat, state.codes, state.gradient,
                               np.arange(prob.levels, dtype=np.float64)))
    return states


def test_screen_matches_reference_at_chunk_edges_and_extremes():
    listed = screened = 0
    overflowed = subnormal = False
    for label, hmat, codes, gradient, levels in _edge_states():
        with np.errstate(all="ignore"):
            coupling = _pair_coupling(hmat)
            pairs = _pair_screen(hmat, codes, gradient, levels, coupling)
            ref = reference_pair_screen(hmat, codes, gradient, levels)
        overflowed |= any(np.isposinf(table).any() for table in coupling)
        subnormal |= bool((np.abs(hmat[hmat != 0.0]) < np.finfo(np.float64).tiny).all())
        if ref is None:
            assert pairs is None, label
            continue
        assert pairs.dtype == ref.dtype and pairs.shape == ref.shape, label
        np.testing.assert_array_equal(pairs, ref, err_msg=label)
        listed += ref.shape[0]
        screened += 1
    assert listed > 0 and screened > 20 and overflowed and subnormal


def _count_couplings(monkeypatch):
    built = []
    coupling = descent._pair_coupling

    def counted(hmat):
        built.append(hmat)
        return coupling(hmat)

    monkeypatch.setattr(descent, "_pair_coupling", counted)
    return built


def test_per_channel_layer_builds_one_coupling_table(monkeypatch):
    built = _count_couplings(monkeypatch)
    prob, _ = random_problem(32, 2, seed=1)
    weights = np.random.default_rng(1).standard_normal((32, 5))
    weights[:, 2] = 0.5  # a constant column runs no engine
    descent.quantize_matrix(weights, prob.hessian, "bcd", bits=2,
                            cfg=DescentConfig(block_size=2, seed=1))
    assert len(built) == 1 and built[0] is prob.hessian
    built.clear()
    for method, k in (("bcd", 1), ("bcd", 4), ("cd", 2)):
        descent.quantize_matrix(weights, prob.hessian, method, bits=2,
                                cfg=DescentConfig(block_size=k, seed=1))
    assert built == []


def test_grouped_layer_builds_one_coupling_table_per_live_channel(monkeypatch):
    built = _count_couplings(monkeypatch)
    prob, _ = random_problem(64, 2, seed=2)
    weights = np.random.default_rng(2).standard_normal((64, 5))
    weights[:, 1] = 0.5         # every group constant: no engine runs
    weights[16:32, 3] = -0.25   # one constant group: the engines run on H~
    descent.quantize_matrix(weights, prob.hessian, "bcd", bits=2, group_size=16,
                            cfg=DescentConfig(block_size=2, seed=2))
    assert len(built) == 4 and all(h is not prob.hessian for h in built)


@pytest.mark.parametrize("d, bits", [(32, 2), (66, 3)])
def test_bcd_with_the_layer_table_matches_its_own(d, bits):
    prob, owc_codes = random_problem(d, bits, seed=d, n=d // 2)
    layer_table = _pair_coupling(prob.hessian)
    accepted = 0
    for seed in range(3):
        cfg = DescentConfig(block_size=2, epochs=2, seed=seed)
        cd_codes, _ = cd_quantize(prob, owc_codes, cfg)
        q0 = owc_codes if seed % 2 else cd_codes
        codes, trace = bcd_quantize(prob, q0, cfg)
        shared_codes, shared = bcd_quantize(prob, q0, cfg, layer_table)
        assert codes.dtype == shared_codes.dtype
        np.testing.assert_array_equal(codes, shared_codes)
        np.testing.assert_array_equal(trace.final_gradient, shared.final_gradient)
        assert (trace.steps, trace.initial_loss, trace.final_loss, trace.loss_scale) == \
            (shared.steps, shared.initial_loss, shared.final_loss, shared.loss_scale)
        accepted += trace.accepted_steps
    assert accepted > 0
