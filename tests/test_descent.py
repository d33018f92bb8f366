"""Engine behavior: exact deltas, tie-breaking, reductions, and orchestration."""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import GradientState, as_params, minmax_quantize, objective, random_problem
from test_cd_scan import assert_same_run, reference_cd_quantize, reference_cyclic_cd_quantize
from qdescent import descent, groupquant
from qdescent.calibration import ShapeMismatchError, build_hessian
from qdescent.descent import bcd_quantize, cd_quantize, descend, dump_trace, quantize_matrix
from qdescent.oracle import canonical_problem, verify_trace
from qdescent.quantcore import (ChannelProblem, DegenerateChannelError, EnumerationGuardError,
                                RunSettings, owc_quantize)


def test_cd_canonical_trace():
    prob, q0 = canonical_problem()
    state = GradientState.init(prob.hessian, q0, prob.target)
    np.testing.assert_allclose(state.gradient, [-2.8, -3.2])

    codes, trace = cd_quantize(prob, q0, RunSettings())
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
        prob = ChannelProblem(w, h, params.scale, params.bias, params.bits)
        codes, trace = cd_quantize(prob, q0, RunSettings())
        np.testing.assert_array_equal(codes, q0)
        assert trace.accepted_steps == 0


def test_cd_scale_invariance_power_of_two():
    prob, q0 = random_problem(10, 2, seed=3)
    codes_a, trace_a = cd_quantize(prob, q0, RunSettings())
    scaled = ChannelProblem(weights=prob.weights,
                            hessian=4.0 * prob.hessian,
                            scale=prob.scale, bias=prob.bias, bits=prob.bits)
    codes_b, trace_b = cd_quantize(scaled, q0, RunSettings())
    np.testing.assert_array_equal(codes_a, codes_b)
    assert [(s.coords, s.values) for s in trace_a.steps] == \
           [(s.coords, s.values) for s in trace_b.steps]
    for sa, sb in zip(trace_a.steps, trace_b.steps):
        assert sb.predicted_delta == pytest.approx(4.0 * sa.predicted_delta, rel=1e-12)


def test_cd_scale_invariance_generic_factor():
    prob, q0 = random_problem(12, 2, seed=4)
    codes_a, trace_a = cd_quantize(prob, q0, RunSettings())
    scaled = ChannelProblem(weights=prob.weights,
                            hessian=3.7 * prob.hessian,
                            scale=prob.scale, bias=prob.bias, bits=prob.bits)
    codes_b, trace_b = cd_quantize(scaled, q0, RunSettings())
    np.testing.assert_array_equal(codes_a, codes_b)


def test_cd_rejects_degenerate_scale():
    # A constant channel never becomes a problem, so no engine sees scale 0.
    with pytest.raises(DegenerateChannelError):
        ChannelProblem(np.ones(2), np.eye(2), 0.0, 1.0, 2)


def test_bcd_k1_identical_to_cd():
    for seed in range(50):
        d = int(np.random.default_rng(seed).integers(4, 12))
        prob, q0 = random_problem(d, 2, seed=seed)
        cfg = RunSettings(block_size=1, seed=seed)
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
    codes, trace = bcd_quantize(prob, q0, RunSettings(block_size=2, steps=1, seed=0))
    np.testing.assert_array_equal(codes, [0, 1])
    assert trace.final_loss == pytest.approx(0.32, abs=1e-12)


def test_bcd_deterministic_given_seed():
    prob, q0 = random_problem(12, 2, seed=21)
    cfg = RunSettings(block_size=2, seed=77)
    codes_a, trace_a = bcd_quantize(prob, q0, cfg)
    codes_b, trace_b = bcd_quantize(prob, q0, cfg)
    np.testing.assert_array_equal(codes_a, codes_b)
    assert [(s.coords, s.values, s.predicted_delta) for s in trace_a.steps] == \
           [(s.coords, s.values, s.predicted_delta) for s in trace_b.steps]


def test_bcd_runs_full_step_budget():
    prob, q0 = random_problem(8, 2, seed=5)
    codes, trace = bcd_quantize(prob, q0, RunSettings(block_size=2, epochs=2, seed=1))
    assert len(trace.steps) == 2 * 8  # no early stop for k > 1, no-ops included


def test_bcd_guards():
    prob, q0 = random_problem(9, 2, seed=6)
    # The divisor rule is a usage error, as in RunSettings.check, not the guard.
    with pytest.raises(ValueError, match="does not divide") as err:
        bcd_quantize(prob, q0, RunSettings(block_size=2))
    assert not isinstance(err.value, EnumerationGuardError)
    prob8, q08 = random_problem(9, 8, seed=6)
    with pytest.raises(EnumerationGuardError, match="guard"):
        bcd_quantize(prob8, q08, RunSettings(block_size=3))


def test_cyclic_canonical_one_pass():
    prob, q0 = canonical_problem()
    codes, trace = cd_quantize(prob, q0, RunSettings("cyclic"))
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
    prob = ChannelProblem(w, h, params.scale, params.bias, params.bits)
    q0 = np.zeros(6, dtype=np.uint8)
    codes, _ = cd_quantize(prob, q0, RunSettings("cyclic"))
    # separable loss: each coordinate lands on its independent best value
    expected = np.clip(np.sign(prob.target) * np.floor(np.abs(prob.target) + 0.5), 0, 3)
    np.testing.assert_array_equal(codes, expected.astype(np.uint8))


def test_cyclic_fixed_point_under_many_epochs():
    prob, q0 = random_problem(10, 2, seed=9)
    codes1, trace1 = cd_quantize(prob, q0, RunSettings("cyclic", epochs=1))
    codes20, trace20 = cd_quantize(prob, q0, RunSettings("cyclic", epochs=20))
    d = 10
    # after the last epoch that changed anything, every later visit is a no-op
    last_change = max((s.index for s in trace20.steps if s.accepted), default=-1)
    fixed_from = (last_change // d + 1) * d
    assert all(not s.accepted for s in trace20.steps if s.index >= fixed_from)
    assert trace20.final_loss <= trace1.final_loss + 1e-12


def test_cyclic_steps_is_the_per_epoch_budget():
    prob, _ = random_problem(10, 3, seed=4)
    q0 = np.zeros(10, dtype=np.uint8)
    codes2, trace2 = cd_quantize(prob, q0, RunSettings("cyclic", epochs=2))
    codes, trace = cd_quantize(prob, q0, RunSettings("cyclic", steps=20, epochs=1))
    np.testing.assert_array_equal(codes, codes2)
    assert trace.steps == trace2.steps and len(trace.steps) == 20
    assert trace.final_loss == trace2.final_loss
    np.testing.assert_array_equal(trace.final_gradient, trace2.final_gradient)
    _, short = cd_quantize(prob, q0, RunSettings("cyclic", steps=13))
    assert short.steps == trace2.steps[:13]
    assert short.steps[12].coords == (2,)  # step 12 visits coordinate 12 % 10


def test_traces_verify_on_random_instances():
    for seed in range(10):
        prob, q0 = random_problem(16, 3, seed=seed)
        for engine, cfg in ((cd_quantize, RunSettings()),
                            (bcd_quantize, RunSettings(block_size=2, seed=seed)),
                            (cd_quantize, RunSettings("cyclic", epochs=2))):
            codes, trace = engine(prob, q0, cfg)
            report = verify_trace(prob, q0, trace)
            assert report.ok, report.violations
            losses = [trace.initial_loss] + [s.loss_after for s in trace.steps]
            assert all(b <= a + 1e-9 * max(1.0, a) for a, b in zip(losses, losses[1:]))


def test_gradient_maintenance_drift():
    prob, _ = random_problem(32, 2, seed=13, scale=1.0)
    codes, trace = cd_quantize(prob, np.zeros(32, dtype=np.uint8), RunSettings())
    assert trace.accepted_steps == 32
    fresh = 2.0 * (prob.hessian @ (codes.astype(np.float64) - prob.target))
    assert np.abs(trace.final_gradient - fresh).max() < 1e-6


def test_dump_trace_jsonl(tmp_path):
    import json
    prob, q0 = canonical_problem()
    _, trace = cd_quantize(prob, q0, RunSettings())
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
    # Every settings rule of a run is in RunSettings.check: on valid data, quantize_matrix
    # fails on a setting only where check does, and with the same type.
    rng = np.random.default_rng(d_in)
    w = rng.standard_normal((d_in, 2))
    h = build_hessian(rng.standard_normal((4 * d_in, d_in)))
    seen = set()
    for bits, group_size, block_size, grid_size, owc_cd in itertools.product(
            (0, 2, 8, 9), (-1, 0, 2, 3, 4), (1, 3, 11), (0, 2), (False, True)):
        kw = dict(bits=bits, group_size=group_size, block_size=block_size, steps=2,
                  grid_size=grid_size, owc_cd=owc_cd)
        expected = _raised(lambda: RunSettings(method, **kw).check(d_in))
        assert _raised(lambda: quantize_matrix(w, h, RunSettings(method, **kw))) is expected, kw
        seen.add(expected)
    assert None in seen or method == "gptq"
    assert (EnumerationGuardError in seen) == (method == "bcd")


def test_quantize_matrix_rtn_exact_weights():
    w = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=np.float32)
    h = build_hessian(np.eye(4, dtype=np.float32), 0.0)
    layer, records = quantize_matrix(w, h, RunSettings("rtn", 2))
    assert all(r.objective == 0.0 for r in records)
    np.testing.assert_allclose(layer.dequantize(), w)


def test_quantize_matrix_monotone_pipeline():
    w, h = _layer_inputs(d_in=32, d_out=12, seed=3, n=128)
    cfg = RunSettings(bits=3, block_size=2, seed=0)
    results = {}
    for method in ("owc", "cd", "bcd"):
        _, records = quantize_matrix(w, h, replace(cfg, method=method))
        results[method] = np.array([r.objective for r in records])
    assert np.all(results["cd"] <= results["owc"] + 1e-12)
    assert np.all(results["bcd"] <= results["cd"] + 1e-12)


def test_quantize_matrix_degenerate_column():
    w, h = _layer_inputs(d_in=8, d_out=3, seed=4)
    w[:, 1] = 2.5  # constant column: degenerate path, zero steps
    layer, records = quantize_matrix(w, h, RunSettings("cd", 2))
    assert records[1].steps == 0
    assert records[1].objective == pytest.approx(0.0)
    np.testing.assert_allclose(layer.dequantize()[:, 1], 2.5)


def test_quantize_matrix_zero_column_relative():
    w, h = _layer_inputs(d_in=8, d_out=3, seed=4)
    w[:, 2] = 0.0
    _, records = quantize_matrix(w, h, RunSettings("cd", 2))
    assert records[2].objective == 0.0 and records[2].relative_objective == 0.0


def test_quantize_matrix_shape_checks():
    w, h = _layer_inputs(d_in=8, d_out=3)
    with pytest.raises(ValueError):
        quantize_matrix(w[:6], h, RunSettings("cd", 2))
    with pytest.raises(ValueError):
        quantize_matrix(w, h, RunSettings("cd", 2, 3))
    with pytest.raises(ValueError):
        quantize_matrix(w, h, RunSettings("nope", 2))


DESCENDING_RUNS = {"cd": RunSettings("cd", 3), "cyclic": RunSettings("cyclic", 3),
                   "bcd": RunSettings("bcd", 3),
                   "owc-owc_cd": RunSettings("owc", 3, 4, owc_cd=True),
                   "cd-owc_cd": RunSettings("cd", 3, 4, owc_cd=True)}


@pytest.mark.parametrize("name", DESCENDING_RUNS)
def test_quantize_matrix_refuses_an_asymmetric_hessian(name):
    # The engines and owc_cd step on 2 H (q - z), the loss's gradient only where
    # H == H.T; the check is exact, so one entry one ulp off its mirror is refused
    # too. rtn and owc without owc_cd only score e'He.
    w, h = _layer_inputs(d_in=16, d_out=3, seed=5)
    skew = np.random.default_rng(5).standard_normal((16, 16))
    one_ulp = h.copy()
    one_ulp[2, 7] = np.nextafter(h[2, 7], np.inf)
    for hmat in (h + (skew - skew.T), one_ulp):
        with pytest.raises(ValueError, match="^the Hessian is not exactly symmetric"):
            quantize_matrix(w, hmat, DESCENDING_RUNS[name])
        for scored in (RunSettings("rtn", 3), RunSettings("owc", 3), RunSettings("owc", 3, 4)):
            quantize_matrix(w, hmat, scored)


def _nan_on_the_diagonal(h):
    h = h.copy()
    h[3, 3] = np.nan
    return h


def _inf_pair(h):
    h = h.copy()
    h[2, 7] = h[7, 2] = np.inf
    return h


@pytest.mark.parametrize("method", ["rtn", "owc", "cd"])
@pytest.mark.parametrize("bad, error, message", [
    (_nan_on_the_diagonal, ValueError, "^the Hessian holds non-finite values$"),
    (_inf_pair, ValueError, "^the Hessian holds non-finite values$"),
    (lambda h: np.hstack([h, h[:, :1]]), ShapeMismatchError,
     r"^weights have d_in=16 but the Hessian has shape \(16, 17\)$")],
    ids=["nan-diagonal", "inf-pair", "16x17"])
def test_quantize_matrix_refuses_a_hessian_that_is_not_a_finite_square(method, bad, error,
                                                                       message):
    # Every method refuses these before any work: unchecked, rtn returned NaN
    # objectives or ran on, and owc and cd failed inside numpy or the engines.
    w, h = _layer_inputs(d_in=16, d_out=3, seed=5)
    with pytest.raises(error, match=message):
        quantize_matrix(w, bad(h), RunSettings(method, 3))


def test_quantize_matrix_owc_cd_needs_groups():
    w, h = _layer_inputs(d_in=8, d_out=3)
    with pytest.raises(ValueError, match="group_size"):
        quantize_matrix(w, h, RunSettings("cd", 2, owc_cd=True))


def test_quantize_matrix_owc_objectives_match_engine_inits():
    w, h = _layer_inputs(d_in=12, d_out=4, seed=8)
    layer, records = quantize_matrix(w, h, RunSettings("owc", 3))
    for j, rec in enumerate(records):
        fit = owc_quantize(w[:, j].astype(np.float64), h, 3, 50)
        params, codes = as_params(fit, 3)[0], fit[3]
        assert rec.objective == pytest.approx(
            objective(w[:, j].astype(np.float64), codes, params, h), rel=1e-12)
        np.testing.assert_array_equal(layer.codes[j], codes)


def test_descend_chains_the_engines():
    # cd_quantize is greedy for every method but cyclic, and cyclic for it: bit
    # for bit the reference engine of each order. descend runs it for cd, cyclic
    # and bcd, bcd's block stage after it, and no engine for rtn and owc.
    prob, q0 = random_problem(16, 2, seed=21)
    cfg = RunSettings(block_size=2, seed=5)
    traces = {method: assert_same_run(method, reference_cyclic_cd_quantize if method == "cyclic"
                                      else reference_cd_quantize, prob, q0, cfg)
              for method in (None, "cd", "bcd", "cyclic")}
    assert traces["cyclic"].steps != traces[None].steps
    cd_codes, cd_trace = cd_quantize(prob, q0, cfg)
    bcd_codes, bcd_trace = bcd_quantize(prob, cd_codes, cfg)
    cyc_codes, cyc_trace = cd_quantize(prob, q0, replace(cfg, method="cyclic"))
    for method, codes, steps in (("cd", cd_codes, len(cd_trace.steps)),
                                 ("bcd", bcd_codes, len(cd_trace.steps) + len(bcd_trace.steps)),
                                 ("cyclic", cyc_codes, len(cyc_trace.steps))):
        out, taken = descend(prob, q0, replace(cfg, method=method))
        np.testing.assert_array_equal(out, codes)
        assert taken == steps
    for method in ("rtn", "owc"):
        out, taken = descend(prob, q0, replace(cfg, method=method))
        assert out is q0 and taken == 0
    with pytest.raises(ValueError, match="unknown method"):
        descend(prob, q0, replace(cfg, method="gptq"))


def test_bcd_with_blocks_of_one_is_cd(monkeypatch):
    # With k = 1, bcd is greedy cd, and the cd stage has already run it to its
    # fixed point: bcd gives the codes and steps of cd, from one cd run per channel.
    w, h = _layer_inputs(d_in=16, d_out=4, seed=11)
    runs = []
    cd = descent.cd_quantize
    monkeypatch.setattr(descent, "cd_quantize", lambda *args: runs.append(1) or cd(*args))
    bcd_layer, bcd_records = quantize_matrix(w, h, RunSettings("bcd", 3, block_size=1),
                                             collect_timing=False)
    assert len(runs) == 4
    cd_layer, cd_records = quantize_matrix(w, h, RunSettings("cd", 3), collect_timing=False)
    np.testing.assert_array_equal(bcd_layer.codes, cd_layer.codes)
    assert [r.steps for r in bcd_records] == [r.steps for r in cd_records]
    assert any(r.steps > 1 for r in cd_records)  # some channel accepted a step


@pytest.mark.parametrize("group_size", [0, 6])
@pytest.mark.parametrize("method, block_size", [
    ("rtn", None), ("owc", None), ("cyclic", None), ("cd", None),
    ("bcd", None), ("bcd", 1), ("bcd", 2), ("bcd", 3)])
def test_each_column_runs_the_engines_of_its_run(monkeypatch, group_size, method, block_size):
    # Per channel and grouped, each column calls cd_quantize for each "cd" and
    # "cyclic" of run.engines and bcd_quantize for "bcd", in that order. A
    # constant column (column 1) runs no engine.
    w, h = _layer_inputs(d_in=12, d_out=3, seed=8)
    w[:, 1] = 0.25
    columns = []
    for name in ("cd_quantize", "bcd_quantize"):
        engine = getattr(descent, name)
        monkeypatch.setattr(descent, name, lambda *args, name=name, engine=engine:
                            columns[-1].append(name) or engine(*args))
    module, name = (groupquant, "quantize_channel_grouped") if group_size else (
        descent, "_quantize_channel")
    pipeline = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: columns.append([]) or pipeline(*args))
    run = RunSettings(method, 2, group_size, block_size)
    layer, records = quantize_matrix(w, h, run, collect_timing=False)
    calls = [{"bcd": "bcd_quantize"}.get(engine, "cd_quantize") for engine in run.engines]
    assert columns == [calls, [], calls]
    assert records[1].steps == 0 and not layer.codes[1].any()


@pytest.mark.parametrize("group_size", [0, 6])
@pytest.mark.parametrize("method, block_size, draws", [
    ("rtn", 1, False), ("owc", 1, False), ("cyclic", 1, False), ("cd", 1, False),
    ("bcd", 1, False), ("bcd", 2, True), ("bcd", 3, True)])
def test_channel_seeds_are_derived_only_for_runs_that_draw(monkeypatch, group_size, method,
                                                           block_size, draws):
    # Only bcd with blocks of two or more draws partitions. No other engine
    # reads run.seed, so its runs derive no per-channel seed.
    w, h = _layer_inputs(d_in=12, d_out=3, seed=4)
    seeds = []
    derive = descent.channel_seed
    monkeypatch.setattr(descent, "channel_seed", lambda *args: seeds.append(args) or derive(*args))
    layer, _ = quantize_matrix(w, h, RunSettings(method, 2, group_size, block_size, seed=9),
                               collect_timing=False)
    assert seeds == ([(9, j) for j in range(3)] if draws else [])
    assert layer.meta["seed"] == 9


def test_readme_library_use_block_runs():
    # README's "Library use" example, run verbatim, so the API it shows stays the package's.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
