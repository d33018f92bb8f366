"""Exhaustive solver against a naive reference, plus trace verification."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import objective, random_problem
from qdescent.descent import (DescentConfig, EnumerationGuardError, TraceStep, bcd_quantize,
                              cd_quantize)
from qdescent.oracle import brute_force, canonical_problem, verify_trace
from qdescent.quantcore import ChannelProblem, QuantParams


def naive_enumeration(prob):
    """Independent reference: itertools over all code tuples, min with first-wins ties."""
    hmat = prob.hessian
    z = prob.target
    best = None
    for combo in itertools.product(range(prob.params.levels), repeat=z.shape[0]):
        err = np.asarray(combo, dtype=np.float64) - z
        loss = float(err @ hmat @ err)
        if best is None or loss < best[0]:
            best = (loss, combo)
    return best


def test_canonical_enumeration():
    prob, _ = canonical_problem()
    # the four candidates in enumeration order score 1.52, 0.72, 0.32, 1.52
    scores = {}
    for combo in itertools.product((0, 1), repeat=2):
        err = np.asarray(combo, dtype=np.float64) - prob.target
        scores[combo] = float(err @ prob.hessian @ err)
    assert scores[(0, 0)] == pytest.approx(1.52, abs=1e-12)
    assert scores[(1, 0)] == pytest.approx(0.72, abs=1e-12)
    assert scores[(0, 1)] == pytest.approx(0.32, abs=1e-12)
    assert scores[(1, 1)] == pytest.approx(1.52, abs=1e-12)

    result = brute_force(prob)
    np.testing.assert_array_equal(result.codes, [0, 1])
    assert result.scaled_objective == pytest.approx(0.32, abs=1e-12)
    assert result.enumeration_count == 4


def test_brute_force_matches_naive_reference():
    for seed in range(20):
        d = int(np.random.default_rng(seed).integers(2, 6))
        prob, _ = random_problem(d, 2, seed=seed)
        result = brute_force(prob)
        ref_loss, ref_codes = naive_enumeration(prob)
        np.testing.assert_array_equal(result.codes, ref_codes)
        assert result.scaled_objective == pytest.approx(ref_loss, rel=1e-12)


def test_brute_force_exact_weights():
    params = QuantParams(scale=1.0, bias=0.0, bits=2)
    h = np.eye(3)
    prob = ChannelProblem.build(np.array([0.0, 2.0, 3.0]), h, params)
    result = brute_force(prob)
    assert result.scaled_objective == 0.0
    np.testing.assert_array_equal(result.codes, [0, 2, 3])


def test_brute_force_tie_break_lexicographic():
    params = QuantParams(scale=1.0, bias=0.0, bits=1)
    h = np.eye(2)
    prob = ChannelProblem.build(np.array([0.5, 0.5]), h, params)
    result = brute_force(prob)  # all four codes tie at 0.5
    np.testing.assert_array_equal(result.codes, [0, 0])


def test_brute_force_guard():
    prob, _ = random_problem(25, 1, seed=0)
    with pytest.raises(EnumerationGuardError, match="2\\^25"):
        brute_force(prob)


def test_brute_force_chunking_consistent():
    # d_in * c large enough to span several enumeration chunks
    prob, _ = random_problem(9, 2, seed=5)  # 2^18 candidates
    result = brute_force(prob)
    codes, trace = cd_quantize(prob, np.zeros(9, dtype=np.uint8), DescentConfig(steps=100))
    assert result.scaled_objective <= trace.final_loss + 1e-12
    assert result.enumeration_count == 4 ** 9


def test_true_objective_matches_quantcore():
    prob, _ = random_problem(4, 2, seed=9)
    result = brute_force(prob)
    assert result.true_objective == objective(prob.weights, result.codes, prob.params,
                                              prob.hessian)


def test_oracle_not_above_engines():
    for seed in range(20):
        prob, q0 = random_problem(6, 2, seed=seed)
        opt = brute_force(prob).scaled_objective
        for engine, cfg in ((cd_quantize, DescentConfig()),
                            (bcd_quantize, DescentConfig(block_size=2, seed=seed))):
            _, trace = engine(prob, q0, cfg)
            assert opt <= trace.final_loss + 1e-12


# ---------------------------------------------------------------------------
# verify_trace


def test_verify_valid_trace():
    prob, q0 = random_problem(10, 2, seed=3)
    _, trace = cd_quantize(prob, q0, DescentConfig())
    report = verify_trace(prob, q0, trace)
    assert report.ok and report.violations == []
    assert report.n_steps == len(trace.steps)


def test_verify_flags_tampered_delta():
    prob, q0 = random_problem(10, 2, seed=4)
    _, trace = cd_quantize(prob, q0, DescentConfig())
    accepted = [i for i, s in enumerate(trace.steps) if s.accepted]
    i = accepted[0]
    trace.steps[i] = replace(trace.steps[i], predicted_delta=trace.steps[i].predicted_delta * 1.5)
    report = verify_trace(prob, q0, trace)
    assert not report.ok
    assert len(report.violations) == 1
    assert f"step {i}" in report.violations[0]


@pytest.mark.parametrize("field, message", [("initial_loss", "initial loss "),
                                            ("loss_after", "step 0: recorded loss "),
                                            ("final_loss", "final loss ")])
def test_verify_flags_tampered_loss(field, message):
    prob, q0 = random_problem(10, 2, seed=4)
    _, trace = cd_quantize(prob, q0, DescentConfig())
    assert trace.steps[0].accepted
    if field == "loss_after":
        trace.steps[0] = replace(trace.steps[0], loss_after=trace.steps[0].loss_after * 1.5)
    else:
        setattr(trace, field, getattr(trace, field) * 1.5)
    report = verify_trace(prob, q0, trace)
    assert not report.ok and len(report.violations) == 1
    assert report.violations[0].startswith(message)


def test_verify_flags_loss_increase():
    # One more step away from cd's fixed point, its delta and losses recorded
    # truly: only the increase itself is wrong.
    prob, q0 = random_problem(10, 2, seed=4)
    codes, trace = cd_quantize(prob, q0, DescentConfig())
    worse = codes.astype(np.float64)
    worse[0] = 0.0 if codes[0] >= 2 else 3.0
    loss, new_loss = (float((q - prob.target) @ (prob.hessian @ (q - prob.target)))
                      for q in (codes.astype(np.float64), worse))
    assert new_loss > loss * 1.01
    n = len(trace.steps)
    trace.steps.append(TraceStep(index=n, coords=(0,), values=(int(worse[0]),),
                                 predicted_delta=new_loss - loss, loss_after=new_loss,
                                 accepted=True))
    trace.final_loss = new_loss
    report = verify_trace(prob, q0, trace)
    assert report.violations == [f"step {n}: loss increased by {new_loss - loss}"]


def test_verify_bcd_noop_steps():
    prob, q0 = random_problem(8, 1, seed=6)
    _, trace = bcd_quantize(prob, q0, DescentConfig(block_size=2, epochs=2, seed=0))
    assert any(not s.accepted for s in trace.steps)
    report = verify_trace(prob, q0, trace)
    assert report.ok, report.violations


@pytest.mark.parametrize("field", ["loss_after", "predicted_delta"])
def test_verify_flags_tampered_noop_step(field):
    # verify_trace reuses the previous from-scratch loss on a no-op step; a
    # recorded loss off by 1e-6 relative, or a nonzero predicted delta, on such
    # a step must still be flagged, and only there.
    prob, q0 = random_problem(8, 1, seed=6)
    _, trace = bcd_quantize(prob, q0, DescentConfig(block_size=2, epochs=2, seed=0))
    i = next(i for i, s in enumerate(trace.steps) if not s.accepted)
    step = trace.steps[i]
    if field == "loss_after":
        trace.steps[i] = replace(step, loss_after=step.loss_after * (1 + 1e-6))
        message = f"step {i}: recorded loss "
    else:
        trace.steps[i] = replace(step, predicted_delta=-1e-6 * step.loss_after)
        message = f"step {i}: predicted delta "
    report = verify_trace(prob, q0, trace)
    assert not report.ok and len(report.violations) == 1
    assert report.violations[0].startswith(message)


def test_verify_mismatched_trace_rejected():
    prob, q0 = random_problem(6, 1, seed=7)
    _, trace = cd_quantize(prob, q0, DescentConfig())
    trace.steps.append(TraceStep(index=99, coords=(17,), values=(1,), predicted_delta=0.0,
                                 loss_after=0.0, accepted=True))
    with pytest.raises(ValueError, match="mismatch"):
        verify_trace(prob, q0, trace)
