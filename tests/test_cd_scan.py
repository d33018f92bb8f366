"""Differential tests of the closed-form greedy and cyclic scans.

``reference_cd_quantize`` and ``reference_cyclic_cd_quantize`` are the greedy
and cyclic engines as they were before the closed-form window scan (reading H
and z off the problem); ``cd_quantize`` runs either order by its method. In
the references every step scores all levels values of every coordinate, and
every accepted step recomputes the loss from scratch. The window scan claims
to return the full scan's result bit for bit, so codes, every step's coords,
values, predicted delta and accepted flag, the final loss and the final
gradient must be identical; the accumulated ``loss_after`` must agree to 1e-12
relative.
"""

from dataclasses import replace

import numpy as np
import pytest

from qdescent.descent import DescentTrace, TraceStep, _best_moves, cd_quantize
from qdescent.oracle import verify_trace
from qdescent.quantcore import ChannelProblem, RunSettings

from conftest import GradientState, grouped_problem, integer_problem, random_problem


def reference_cd_quantize(prob: ChannelProblem, q0: np.ndarray,
                          cfg: RunSettings) -> tuple[np.ndarray, DescentTrace]:
    """``cd_quantize`` as it was before the closed-form scan."""
    hmat, z = prob.hessian, prob.target
    state = GradientState.init(hmat, q0, z)
    hdiag = np.diag(hmat).copy()
    r_grid = np.arange(prob.levels, dtype=np.float64)

    trace = DescentTrace(initial_loss=state.loss(hmat, z),
                         loss_scale=prob.scale ** 2)
    loss = trace.initial_loss
    for step in range(cfg.total_steps(hmat.shape[0])):
        diff = r_grid[None, :] - state.codes[:, None]
        delta = diff * diff * hdiag[:, None] + diff * state.gradient[:, None]
        flat = int(np.argmin(delta))
        i, r = divmod(flat, r_grid.shape[0])
        best = float(delta.flat[flat])
        if best < 0.0:
            change = float(r) - state.codes[i]
            state.gradient += (2.0 * change) * hmat[:, i]
            state.codes[i] = float(r)
            loss = state.loss(hmat, z)
            trace.steps.append(TraceStep(step, (i,), (int(r),), best, loss, True))
        else:
            trace.steps.append(TraceStep(step, (), (), 0.0, loss, False))
            break
    trace.final_loss = loss
    trace.final_gradient = state.gradient.copy()
    return state.codes.astype(np.uint8), trace


def reference_cyclic_cd_quantize(prob: ChannelProblem, q0: np.ndarray,
                                 cfg: RunSettings) -> tuple[np.ndarray, DescentTrace]:
    """Cyclic ``cd_quantize`` as it was before the closed-form scan."""
    hmat, z = prob.hessian, prob.target
    d = hmat.shape[0]
    state = GradientState.init(hmat, q0, z)
    hdiag = np.diag(hmat).copy()
    r_grid = np.arange(prob.levels, dtype=np.float64)

    trace = DescentTrace(initial_loss=state.loss(hmat, z),
                         loss_scale=prob.scale ** 2)
    loss = trace.initial_loss
    step = 0
    for _ in range(cfg.epochs):
        for i in range(d):
            diff = r_grid - state.codes[i]
            delta = diff * diff * hdiag[i] + diff * state.gradient[i]
            r = int(np.argmin(delta))
            best = float(delta[r])
            if best < 0.0:
                change = float(r) - state.codes[i]
                state.gradient += (2.0 * change) * hmat[:, i]
                state.codes[i] = float(r)
                loss = state.loss(hmat, z)
                trace.steps.append(TraceStep(step, (i,), (r,), best, loss, True))
            else:
                trace.steps.append(TraceStep(step, (), (), 0.0, loss, False))
            step += 1
    trace.final_loss = loss
    trace.final_gradient = state.gradient.copy()
    return state.codes.astype(np.uint8), trace


#: ``cd_quantize``'s method, greedy or cyclic, and the reference of that order.
ENGINES = (("cd", reference_cd_quantize), ("cyclic", reference_cyclic_cd_quantize))


def assert_same_run(method, reference, prob, q0, cfg):
    codes, trace = cd_quantize(prob, q0, replace(cfg, method=method))
    ref_codes, ref_trace = reference(prob, q0, cfg)
    np.testing.assert_array_equal(codes, ref_codes)
    assert [(s.index, s.coords, s.values, s.predicted_delta, s.accepted) for s in trace.steps] \
        == [(s.index, s.coords, s.values, s.predicted_delta, s.accepted) for s in ref_trace.steps]
    for s, ref in zip(trace.steps, ref_trace.steps):
        assert abs(s.loss_after - ref.loss_after) <= 1e-12 * abs(ref.loss_after)
    assert trace.initial_loss == ref_trace.initial_loss
    assert trace.final_loss == ref_trace.final_loss
    np.testing.assert_array_equal(trace.final_gradient, ref_trace.final_gradient)
    report = verify_trace(prob, q0, trace)
    assert report.ok, report.violations
    return trace


def assert_both_engines(prob, q0, cfg):
    return [assert_same_run(method, reference, prob, q0, cfg) for method, reference in ENGINES]


@pytest.mark.parametrize("bits", range(1, 9))
def test_scan_matches_reference_on_random_problems(bits):
    for seed in range(4):
        d = int(np.random.default_rng(seed).integers(4, 48))
        prob, owc_codes = random_problem(d, bits, seed=100 * bits + seed)
        zero_codes = np.zeros(d, dtype=np.uint8)
        for q0 in (owc_codes, zero_codes):
            assert_both_engines(prob, q0, RunSettings(epochs=1 + seed % 2))


@pytest.mark.parametrize("bits", range(1, 9))
def test_scan_matches_reference_on_near_ties(bits):
    # Small-integer H and targets on integers and half-integers: many moves
    # tie within a row (r* on a half-integer) and across rows.
    accepted = 0
    for seed in range(20):
        prob, q0 = integer_problem(8, bits, seed)
        for trace in assert_both_engines(prob, q0, RunSettings(epochs=2)):
            accepted += sum(1 for s in trace.steps if s.accepted)
    assert accepted > 0


def test_best_moves_breaks_exact_ties_to_the_smaller_value():
    # h = 1, g = -1: r* = q + 1/2, so q and q + 1 both score exactly 0 and q
    # (no move) must win; g = -3 puts q + 1 and q + 2 on an exact tie at -2.
    # The last two rows put r* just outside the range, below 0 and above 7.
    codes = np.array([3.0, 3.0, 0.0, 7.0])
    gradient = np.array([-1.0, -3.0, 1.0, -1.0])
    values, scores = _best_moves(codes, gradient, np.ones(4), 8)
    np.testing.assert_array_equal(values, [3.0, 4.0, 0.0, 7.0])
    np.testing.assert_array_equal(scores, [0.0, -2.0, 0.0, 0.0])


@pytest.mark.parametrize("bits", [1, 2, 3, 8])
def test_scan_matches_reference_with_a_constant_group(bits):
    for seed in range(4):
        prob, owc_codes = grouped_problem(64, 16, bits=bits, seed=seed, constant_group=seed)
        assert (np.diag(prob.hessian) == 0.0).sum() == 16
        assert_both_engines(prob, owc_codes, RunSettings(epochs=1 + seed % 2))


def scaled_problem(d, bits, seed, tiny, tiny_rows):
    """PSD problem whose ``tiny_rows`` are scaled by ``tiny``: r* there lies far outside."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * d, d))
    scale = np.ones(d)
    scale[tiny_rows] = tiny
    h = scale[:, None] * (a.T @ a) * scale[None, :] + 1e-3 * np.diag(scale * scale)
    z = rng.uniform(0.0, 2 ** bits - 1, size=d)
    prob = ChannelProblem(weights=z, hessian=h, scale=1.0, bias=0.0, bits=bits)
    return prob, rng.integers(0, 2 ** bits, size=d).astype(np.uint8)


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_scan_matches_reference_with_r_star_far_outside(bits):
    for seed, tiny in enumerate((1e-4, 1e-8, 1e-150)):
        prob, q0 = scaled_problem(24, bits, seed, tiny, tiny_rows=[0, 5, 6, 23])
        state = GradientState.init(prob.hessian, q0, prob.target)
        rstar = state.codes - 0.5 * state.gradient / np.diag(prob.hessian)
        assert np.abs(rstar[[0, 5, 6, 23]]).max() > 4 * 2 ** bits
        assert_both_engines(prob, q0, RunSettings(epochs=2))


def test_scan_matches_reference_on_indefinite_and_overflowing_rows():
    # Not a Hessian, but the engines accept it: a negative diagonal (concave
    # row, full-scan fallback) and a subnormal one whose g / h overflows.
    rng = np.random.default_rng(3)
    d, bits = 12, 4
    a = rng.standard_normal((2 * d, d))
    h = a.T @ a
    h[2, 2] = -0.5
    h[7, 7] = 5e-324
    z = rng.uniform(0.0, 15.0, size=d)
    prob = ChannelProblem(weights=z, hessian=h, scale=1.0, bias=0.0, bits=bits)
    q0 = rng.integers(0, 16, size=d).astype(np.uint8)
    state = GradientState.init(h, q0, z)
    with np.errstate(over="ignore"):
        assert np.isinf(state.gradient[7] / h[7, 7])
    assert_both_engines(prob, q0, RunSettings(epochs=2))


def test_scan_matches_reference_on_a_large_8_bit_problem():
    prob, owc_codes = random_problem(256, 8, seed=11)
    assert_both_engines(prob, owc_codes, RunSettings())
    traces = assert_both_engines(prob, np.full(256, 128, dtype=np.uint8), RunSettings())
    assert sum(s.accepted for s in traces[0].steps) > 200


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_best_moves_equals_the_full_row_scan(bits):
    rng = np.random.default_rng(bits)
    levels = 2 ** bits
    n = 4000
    codes = rng.integers(0, levels, size=n).astype(np.float64)
    hdiag = np.exp(rng.uniform(-40.0, 10.0, size=n))
    hdiag[::17] = 0.0
    hdiag[5::31] *= -1.0
    hdiag[::13] = rng.integers(1, 4, size=hdiag[::13].size)
    gradient = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, size=n))
    gradient[::13] = rng.integers(-4 * levels, 4 * levels, size=gradient[::13].size)
    gradient[::19] = 0.0
    values, scores = _best_moves(codes, gradient, hdiag, levels)
    diff = np.arange(levels, dtype=np.float64)[None, :] - codes[:, None]
    delta = diff * diff * hdiag[:, None] + diff * gradient[:, None]
    col = np.argmin(delta, axis=1)
    np.testing.assert_array_equal(values, col)
    np.testing.assert_array_equal(scores, delta[np.arange(n), col])
