"""Engine behavior: exact deltas, tie-breaking, reductions, and orchestration."""

import itertools

import numpy as np
import pytest

from conftest import GradientState, minmax_quantize, objective, random_problem
from qdescent import descent
from qdescent.calibration import build_hessian
from qdescent.descent import (DescentConfig, EnumerationGuardError, bcd_quantize,
                              cd_quantize, check_settings, cyclic_cd_quantize, descend,
                              dump_trace, quantize_matrix)
from qdescent.oracle import canonical_problem, verify_trace
from qdescent.quantcore import ChannelProblem, DegenerateChannelError, QuantParams, owc_quantize


def test_cd_canonical_trace():
    prob, q0 = canonical_problem()
    state = GradientState.init(prob.hessian, q0, prob.target)
    np.testing.assert_allclose(state.gradient, [-2.8, -3.2])

    codes, trace = cd_quantize(prob, q0, DescentConfig())
    np.testing.assert_array_equal(codes, [0, 1])
    assert trace.initial_loss == pytest.approx(1.52, abs=1e-12)
    step1 = trace.steps[0]
    assert step1.coords == (1,) and step1.values == (1,)
    assert step1.predicted_delta == pytest.approx(-1.2, abs=1e-12)
    assert trace.final_loss == pytest.approx(0.32, abs=1e-12)
    # second step probes, finds nothing negative, stops
    assert len(trace.steps) == 2 and not trace.steps[1].accepted


def test_cd_diagonal_h_rtn_init_is_fixed_point():
    rng = np.random.default_rng(0)
    for seed in range(5):
        w = rng.standard_normal(8)
        h = np.diag(rng.uniform(0.5, 3.0, size=8))
        params, q0 = minmax_quantize(w, 2)
        prob = ChannelProblem.build(w, h, params)
        codes, trace = cd_quantize(prob, q0, DescentConfig())
        np.testing.assert_array_equal(codes, q0)
        assert trace.accepted_steps == 0


def test_cd_scale_invariance_power_of_two():
    prob, q0 = random_problem(10, 2, seed=3)
    codes_a, trace_a = cd_quantize(prob, q0, DescentConfig())
    scaled = ChannelProblem(weights=prob.weights,
                            hessian=4.0 * prob.hessian,
                            params=prob.params, target=prob.target)
    codes_b, trace_b = cd_quantize(scaled, q0, DescentConfig())
    np.testing.assert_array_equal(codes_a, codes_b)
    assert [(s.coords, s.values) for s in trace_a.steps] == \
           [(s.coords, s.values) for s in trace_b.steps]
    for sa, sb in zip(trace_a.steps, trace_b.steps):
        assert sb.predicted_delta == pytest.approx(4.0 * sa.predicted_delta, rel=1e-12)


def test_cd_scale_invariance_generic_factor():
    prob, q0 = random_problem(12, 2, seed=4)
    codes_a, trace_a = cd_quantize(prob, q0, DescentConfig())
    scaled = ChannelProblem(weights=prob.weights,
                            hessian=3.7 * prob.hessian,
                            params=prob.params, target=prob.target)
    codes_b, trace_b = cd_quantize(scaled, q0, DescentConfig())
    np.testing.assert_array_equal(codes_a, codes_b)


def test_cd_rejects_degenerate_scale():
    h = np.eye(2)
    params = QuantParams(scale=0.0, bias=1.0, bits=2)
    prob = ChannelProblem.build(np.ones(2), h, params)
    with pytest.raises(DegenerateChannelError):
        cd_quantize(prob, np.zeros(2, dtype=np.uint8), DescentConfig())


def test_bcd_k1_identical_to_cd():
    for seed in range(50):
        d = int(np.random.default_rng(seed).integers(4, 12))
        prob, q0 = random_problem(d, 2, seed=seed)
        cfg = DescentConfig(seed=seed)
        codes_cd, trace_cd = cd_quantize(prob, q0, cfg)
        codes_bcd, trace_bcd = bcd_quantize(prob, q0, cfg)
        np.testing.assert_array_equal(codes_cd, codes_bcd)
        assert len(trace_cd.steps) == len(trace_bcd.steps)
        for a, b in zip(trace_cd.steps, trace_bcd.steps):
            assert (a.coords, a.values, a.accepted) == (b.coords, b.values, b.accepted)
            assert a.predicted_delta == b.predicted_delta  # same arithmetic, bitwise
            assert a.loss_after == b.loss_after


def test_bcd_full_block_solves_canonical():
    prob, q0 = canonical_problem()
    codes, trace = bcd_quantize(prob, q0, DescentConfig(block_size=2, steps=1, seed=0))
    np.testing.assert_array_equal(codes, [0, 1])
    assert trace.final_loss == pytest.approx(0.32, abs=1e-12)


def test_bcd_deterministic_given_seed():
    prob, q0 = random_problem(12, 2, seed=21)
    cfg = DescentConfig(block_size=2, seed=77)
    codes_a, trace_a = bcd_quantize(prob, q0, cfg)
    codes_b, trace_b = bcd_quantize(prob, q0, cfg)
    np.testing.assert_array_equal(codes_a, codes_b)
    assert [(s.coords, s.values, s.predicted_delta) for s in trace_a.steps] == \
           [(s.coords, s.values, s.predicted_delta) for s in trace_b.steps]


def test_bcd_runs_full_step_budget():
    prob, q0 = random_problem(8, 2, seed=5)
    codes, trace = bcd_quantize(prob, q0, DescentConfig(block_size=2, epochs=2, seed=1))
    assert len(trace.steps) == 2 * 8  # no early stop for k > 1, no-ops included


def test_bcd_guards():
    prob, q0 = random_problem(9, 2, seed=6)
    with pytest.raises(EnumerationGuardError, match="does not divide"):
        bcd_quantize(prob, q0, DescentConfig(block_size=2))
    prob8, q08 = random_problem(9, 8, seed=6)
    with pytest.raises(EnumerationGuardError, match="guard"):
        bcd_quantize(prob8, q08, DescentConfig(block_size=3))


def test_cyclic_canonical_one_pass():
    prob, q0 = canonical_problem()
    codes, trace = cyclic_cd_quantize(prob, q0, DescentConfig())
    np.testing.assert_array_equal(codes, [1, 0])
    assert trace.final_loss == pytest.approx(0.72, abs=1e-12)
    assert trace.steps[0].coords == (0,) and trace.steps[0].values == (1,)
    assert trace.steps[0].predicted_delta == pytest.approx(-0.8, abs=1e-12)
    assert not trace.steps[1].accepted  # visit to coordinate 1 keeps 0


def test_cyclic_diagonal_single_pass_is_optimal():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(6)
    h = np.diag(rng.uniform(0.2, 2.0, size=6))
    params, _ = minmax_quantize(w, 2)
    prob = ChannelProblem.build(w, h, params)
    q0 = np.zeros(6, dtype=np.uint8)
    codes, _ = cyclic_cd_quantize(prob, q0, DescentConfig())
    # separable loss: each coordinate lands on its independent best value
    expected = np.clip(np.sign(prob.target) * np.floor(np.abs(prob.target) + 0.5), 0, 3)
    np.testing.assert_array_equal(codes, expected.astype(np.uint8))


def test_cyclic_fixed_point_under_many_epochs():
    prob, q0 = random_problem(10, 2, seed=9)
    codes1, trace1 = cyclic_cd_quantize(prob, q0, DescentConfig(epochs=1))
    codes20, trace20 = cyclic_cd_quantize(prob, q0, DescentConfig(epochs=20))
    d = 10
    # after the last epoch that changed anything, every later visit is a no-op
    last_change = max((s.index for s in trace20.steps if s.accepted), default=-1)
    fixed_from = (last_change // d + 1) * d
    assert all(not s.accepted for s in trace20.steps if s.index >= fixed_from)
    assert trace20.final_loss <= trace1.final_loss + 1e-12


def test_cyclic_steps_is_the_per_epoch_budget():
    prob, _ = random_problem(10, 3, seed=4)
    q0 = np.zeros(10, dtype=np.uint8)
    codes2, trace2 = cyclic_cd_quantize(prob, q0, DescentConfig(epochs=2))
    codes, trace = cyclic_cd_quantize(prob, q0, DescentConfig(steps=20, epochs=1))
    np.testing.assert_array_equal(codes, codes2)
    assert trace.steps == trace2.steps and len(trace.steps) == 20
    assert trace.final_loss == trace2.final_loss
    np.testing.assert_array_equal(trace.final_gradient, trace2.final_gradient)
    _, short = cyclic_cd_quantize(prob, q0, DescentConfig(steps=13))
    assert short.steps == trace2.steps[:13]
    assert short.steps[12].coords == (2,)  # step 12 visits coordinate 12 % 10


def test_traces_verify_on_random_instances():
    for seed in range(10):
        prob, q0 = random_problem(16, 3, seed=seed)
        for engine, cfg in ((cd_quantize, DescentConfig()),
                            (bcd_quantize, DescentConfig(block_size=2, seed=seed)),
                            (cyclic_cd_quantize, DescentConfig(epochs=2))):
            codes, trace = engine(prob, q0, cfg)
            report = verify_trace(prob, q0, trace)
            assert report.ok, report.violations
            losses = [trace.initial_loss] + [s.loss_after for s in trace.steps]
            assert all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(losses, losses[1:]))


def test_gradient_maintenance_drift():
    prob, _ = random_problem(32, 2, seed=13, scale=1.0)
    codes, trace = cd_quantize(prob, np.zeros(32, dtype=np.uint8), DescentConfig())
    assert trace.accepted_steps == 32
    fresh = 2.0 * (prob.hessian @ (codes.astype(np.float64) - prob.target))
    assert np.abs(trace.final_gradient - fresh).max() < 1e-6


def test_dump_trace_jsonl(tmp_path):
    import json
    prob, q0 = canonical_problem()
    _, trace = cd_quantize(prob, q0, DescentConfig())
    path = tmp_path / "trace.jsonl"
    dump_trace(trace, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["steps"] == len(trace.steps)
    assert lines[1]["coords"] == [1]


# ---------------------------------------------------------------------------
# quantize_matrix


def _layer_inputs(d_in=16, d_out=6, seed=0, n=64):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in)).astype(np.float32)
    w = rng.standard_normal((d_in, d_out)).astype(np.float32)
    return w, build_hessian(x, 0.01)


def _raised(call):
    """The type of the ValueError ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("method", ["rtn", "owc", "cyclic", "cd", "bcd", "gptq"])
@pytest.mark.parametrize("d_in", [6, 8])
def test_check_settings_raises_exactly_when_quantize_matrix_does(method, d_in):
    # Every settings rule of a run is in check_settings: on valid data, quantize_matrix
    # fails on a setting only where check_settings does, and with the same type.
    rng = np.random.default_rng(d_in)
    w = rng.standard_normal((d_in, 2))
    h = build_hessian(rng.standard_normal((4 * d_in, d_in)))
    seen = set()
    for bits, group_size, block_size, grid_size, owc_cd in itertools.product(
            (0, 2, 8, 9), (-1, 0, 2, 3, 4), (1, 3, 11), (0, 2), (False, True)):
        kw = dict(bits=bits, group_size=group_size, grid_size=grid_size, owc_cd_refine=owc_cd,
                  cfg=DescentConfig(steps=2, block_size=block_size))
        expected = _raised(lambda: check_settings(method, **kw, d_in=d_in))
        assert _raised(lambda: quantize_matrix(w, h, method, **kw)) is expected, kw
        seen.add(expected)
    assert None in seen or method == "gptq"
    assert (EnumerationGuardError in seen) == (method == "bcd")


def test_quantize_matrix_rtn_exact_weights():
    w = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=np.float32)
    h = build_hessian(np.eye(4, dtype=np.float32), 0.0)
    layer, records = quantize_matrix(w, h, "rtn", bits=2)
    assert all(r.objective == 0.0 for r in records)
    np.testing.assert_allclose(layer.dequantize(), w)


def test_quantize_matrix_monotone_pipeline():
    w, h = _layer_inputs(d_in=32, d_out=12, seed=3, n=128)
    cfg = DescentConfig(block_size=2, seed=0)
    results = {}
    for method in ("owc", "cd", "bcd"):
        _, records = quantize_matrix(w, h, method, bits=3, cfg=cfg)
        results[method] = np.array([r.objective for r in records])
    assert np.all(results["cd"] <= results["owc"] + 1e-12)
    assert np.all(results["bcd"] <= results["cd"] + 1e-12)


def test_quantize_matrix_degenerate_column():
    w, h = _layer_inputs(d_in=8, d_out=3, seed=4)
    w[:, 1] = 2.5  # constant column: degenerate path, zero steps
    layer, records = quantize_matrix(w, h, "cd", bits=2)
    assert records[1].steps == 0
    assert records[1].objective == pytest.approx(0.0)
    np.testing.assert_allclose(layer.dequantize()[:, 1], 2.5)


def test_quantize_matrix_zero_column_relative():
    w, h = _layer_inputs(d_in=8, d_out=3, seed=4)
    w[:, 2] = 0.0
    _, records = quantize_matrix(w, h, "cd", bits=2)
    assert records[2].objective == 0.0 and records[2].relative_objective == 0.0


def test_quantize_matrix_shape_checks():
    w, h = _layer_inputs(d_in=8, d_out=3)
    with pytest.raises(ValueError):
        quantize_matrix(w[:6], h, "cd", bits=2)
    with pytest.raises(ValueError):
        quantize_matrix(w, h, "cd", bits=2, group_size=3)
    with pytest.raises(ValueError):
        quantize_matrix(w, h, "nope", bits=2)


def test_quantize_matrix_owc_cd_needs_groups():
    w, h = _layer_inputs(d_in=8, d_out=3)
    with pytest.raises(ValueError, match="group_size"):
        quantize_matrix(w, h, "cd", bits=2, owc_cd_refine=True)


def test_quantize_matrix_owc_objectives_match_engine_inits():
    w, h = _layer_inputs(d_in=12, d_out=4, seed=8)
    layer, records = quantize_matrix(w, h, "owc", bits=3)
    for j, rec in enumerate(records):
        params, codes = owc_quantize(w[:, j].astype(np.float64), h, 3, 50)
        assert rec.objective == pytest.approx(
            objective(w[:, j].astype(np.float64), codes, params, h), rel=1e-12)
        np.testing.assert_array_equal(layer.codes[j], codes)


def test_descend_chains_the_engines():
    prob, q0 = random_problem(16, 2, seed=21)
    cfg = DescentConfig(block_size=2, seed=5)
    cd_codes, cd_trace = cd_quantize(prob, q0, cfg)
    bcd_codes, bcd_trace = bcd_quantize(prob, cd_codes, cfg)
    cyc_codes, cyc_trace = cyclic_cd_quantize(prob, q0, cfg)
    for method, codes, steps in (("cd", cd_codes, len(cd_trace.steps)),
                                 ("bcd", bcd_codes, len(cd_trace.steps) + len(bcd_trace.steps)),
                                 ("cyclic", cyc_codes, len(cyc_trace.steps))):
        out, taken = descend(prob, q0, method, cfg)
        np.testing.assert_array_equal(out, codes)
        assert taken == steps
    for method in ("rtn", "owc", "gptq"):
        with pytest.raises(ValueError, match="unknown method"):
            descend(prob, q0, method, cfg)


def test_bcd_with_blocks_of_one_is_cd(monkeypatch):
    # With k = 1, bcd is greedy cd, and the cd stage has already run it to its
    # fixed point: bcd gives the codes and steps of cd, from one cd run per channel.
    w, h = _layer_inputs(d_in=16, d_out=4, seed=11)
    runs = []
    cd = descent.cd_quantize
    monkeypatch.setattr(descent, "cd_quantize", lambda *args: runs.append(1) or cd(*args))
    bcd_layer, bcd_records = quantize_matrix(w, h, "bcd", bits=3, cfg=DescentConfig(),
                                             collect_timing=False)
    assert len(runs) == 4
    cd_layer, cd_records = quantize_matrix(w, h, "cd", bits=3, cfg=DescentConfig(),
                                           collect_timing=False)
    np.testing.assert_array_equal(bcd_layer.codes, cd_layer.codes)
    assert [r.steps for r in bcd_records] == [r.steps for r in cd_records]
    assert any(r.steps > 1 for r in cd_records)  # some channel accepted a step
