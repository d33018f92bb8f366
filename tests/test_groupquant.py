"""Grouped quantization: scaled-problem reduction, group inits, clip-strength descent."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import _fit_affine, as_params, expand_params, minmax_group_init, random_problem
from qdescent import groupquant
from qdescent.calibration import SynthSpec, build_hessian, gen_calibration, gen_weights
from qdescent.descent import bcd_quantize, cd_quantize, quantize_matrix
from qdescent.groupquant import owc_cd, owc_group_init, quantize_channel_grouped, tilde_transform
from qdescent.quantcore import (ChannelProblem, RunSettings, _affine_table, channel_objective,
                                owc_quantize)


def _rand_instance(d, seed, n=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n or 4 * d, d))
    return rng.standard_normal(d), build_hessian(x, 0.01)


def _group_init(w, h, bits, group_size, grid_size=50):
    """``owc_group_init``'s (scales, biases, gammas, codes)."""
    table, picks = owc_group_init(w, h, bits, group_size, grid_size)
    return table.pick(picks)


def test_tilde_identity_when_scales_one():
    w, h = _rand_instance(6, 0)
    tilde = tilde_transform(w, h, np.full(3, 1.0), np.full(3, 0.25), 2)
    np.testing.assert_array_equal(tilde.hessian, h)
    np.testing.assert_allclose(tilde.target, w - 0.25)
    assert tilde.weights.tobytes() == tilde.target.tobytes()
    assert (tilde.scale, tilde.bias, tilde.bits) == (1.0, 0.0, 2)


def test_tilde_uniform_scale_matches_per_channel_trajectory():
    prob, q0 = random_problem(12, 2, seed=1)
    tilde = tilde_transform(prob.weights, prob.hessian, np.full(4, prob.scale),
                            np.full(4, prob.bias), prob.bits)
    codes_g, trace_g = cd_quantize(tilde, q0, RunSettings())
    codes_c, trace_c = cd_quantize(prob, q0, RunSettings())
    np.testing.assert_array_equal(codes_g, codes_c)
    assert [(s.coords, s.values) for s in trace_g.steps] == \
           [(s.coords, s.values) for s in trace_c.steps]
    # tilde loss is the true loss; per-channel true loss carries the a^2 factor
    assert trace_g.final_loss == pytest.approx(trace_c.true_loss, rel=1e-9)


def test_tilde_rejects_inconsistent_zero_scale():
    w, h = _rand_instance(4, 2)
    with pytest.raises(ValueError, match="zero scale"):
        tilde_transform(w, h, np.zeros(2), np.zeros(2), 2)


@pytest.mark.parametrize("d, g", [(6, 2), (128, 32), (1024, 32)])
def test_tilde_matrix_bitwise_equals_two_temporary_expression(d, g):
    w, h = _rand_instance(d, 4)
    w[g:2 * g] = 0.75  # a constant group: zero scale, zero rows and columns of H~
    scales, biases, _, _ = _group_init(w, h, bits=3, group_size=g)
    assert scales[1] == 0.0
    avec, _ = expand_params(scales, biases, d)
    expected = h * avec[:, None] * avec[None, :]
    h_tilde = tilde_transform(w, h, scales, biases, 3).hessian
    assert h_tilde.tobytes() == expected.tobytes()
    assert not h_tilde[g:2 * g].any() and not h_tilde[:, g:2 * g].any()


def test_tilde_degenerate_group_constant_weights():
    w, h = _rand_instance(6, 3)
    w[2:4] = 1.5  # middle group constant
    scales, biases, _, codes = _group_init(w, h, bits=2, group_size=2)
    assert scales[1] == 0.0
    np.testing.assert_array_equal(codes[2:4], [0, 0])
    # engines never touch the degenerate coordinates
    out, trace = cd_quantize(tilde_transform(w, h, scales, biases, 2), codes, RunSettings())
    np.testing.assert_array_equal(out[2:4], [0, 0])
    avec, bvec = expand_params(scales, biases, 6)
    np.testing.assert_allclose((avec * out + bvec)[2:4], [1.5, 1.5])


def test_single_group_reduces_to_per_channel_bitwise():
    w, h = _rand_instance(10, 4)
    fit_c = owc_quantize(w, h, 3, 50)
    fit_g = _group_init(w, h, bits=3, group_size=10)
    assert as_params(fit_g, 3) == as_params(fit_c, 3)
    codes_c, codes_g = fit_c[3], fit_g[3]
    np.testing.assert_array_equal(codes_g, codes_c)

    cfg = RunSettings(seed=3, block_size=2)
    prob = ChannelProblem(w, h, fit_c[0][0], fit_c[1][0], 3)
    out_c, _ = cd_quantize(prob, codes_c, cfg)
    out_g, _ = cd_quantize(tilde_transform(w, h, fit_g[0], fit_g[1], 3), codes_g, cfg)
    np.testing.assert_array_equal(out_c, out_g)

    bcd_c, _ = bcd_quantize(tilde_transform(w, h, fit_g[0], fit_g[1], 3), codes_g, cfg)
    bcd_ref, _ = bcd_quantize(prob, codes_c, cfg)
    np.testing.assert_array_equal(bcd_c, bcd_ref)


def test_group_pipeline_equals_per_channel_pipeline_at_full_group():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((8, 5)).astype(np.float32)
    x = rng.standard_normal((32, 8)).astype(np.float32)
    h = build_hessian(x, 0.01)
    cfg = RunSettings(block_size=2, seed=9)
    for method in ("rtn", "owc", "cd", "cyclic", "bcd"):
        per_channel, _ = quantize_matrix(w, h, replace(cfg, method=method, bits=2))
        grouped, _ = quantize_matrix(w, h, replace(cfg, method=method, bits=2, group_size=8))
        np.testing.assert_array_equal(per_channel.codes, grouped.codes)
        assert per_channel.scales.tobytes() == grouped.scales.tobytes()
        assert per_channel.biases.tobytes() == grouped.biases.tobytes()
        assert per_channel.gammas.tobytes() == grouped.gammas.tobytes()


def _block_diag_hessian(d, g, seed):
    rng = np.random.default_rng(seed)
    mat = np.zeros((d, d))
    for i in range(d // g):
        sl = slice(i * g, (i + 1) * g)
        x = rng.standard_normal((3 * g, g))
        mat[sl, sl] = x.T @ x + 0.05 * np.eye(g)
    return mat


def test_block_diagonal_groups_decouple():
    d, g = 8, 2
    h = _block_diag_hessian(d, g, 7)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(d)
    scales, biases, _, q0 = _group_init(w, h, bits=2, group_size=g)
    cfg = RunSettings(steps=64)
    joint, _ = cd_quantize(tilde_transform(w, h, scales, biases, 2), q0, cfg)

    for i in range(d // g):
        sl = slice(i * g, (i + 1) * g)
        sub_h = h[sl, sl].copy()
        prob = ChannelProblem(w[sl], sub_h, scales[i], biases[i], 2)
        sub_codes, _ = cd_quantize(prob, q0[sl], RunSettings(steps=64))
        np.testing.assert_array_equal(joint[sl], sub_codes)


def test_owc_group_init_grid_one_is_group_minmax():
    w, h = _rand_instance(8, 10)
    a_fit = _group_init(w, h, bits=3, group_size=4, grid_size=1)
    b_params, b_codes = minmax_group_init(w, 3, 4)
    assert as_params(a_fit, 3) == b_params
    np.testing.assert_array_equal(a_fit[3], b_codes)


def test_owc_group_init_local_objective_never_worse_than_minmax():
    for seed in range(10):
        w, h = _rand_instance(12, seed)
        owc_scales, owc_biases, _, owc_codes = _group_init(w, h, bits=2, group_size=4)
        mm_params, mm_codes = minmax_group_init(w, 2, 4)
        for i in range(3):
            sl = slice(i * 4, (i + 1) * 4)
            hblk = h[sl, sl]
            e_owc = w[sl] - (owc_scales[i] * owc_codes[sl] + owc_biases[i])
            e_mm = w[sl] - (mm_params[i].scale * mm_codes[sl] + mm_params[i].bias)
            assert e_owc @ hblk @ e_owc <= e_mm @ hblk @ e_mm + 1e-12


def test_grouped_owc_promise_is_per_group_block():
    # What "never worse than min-max" promises for grouped owc: each group's
    # stored pick scores, exactly as the grid search scores it, no worse on its
    # own diagonal block of H than the gamma = 1 fit that rtn stores. It ignores
    # cross-group coupling, so the whole channel's loss can be worse than rtn's;
    # these instances, with outlier directions, hold such channels.
    worse = 0
    for seed, outliers in itertools.product(range(3), (0, 2)):
        x = gen_calibration(SynthSpec(d_in=64, n=256, spectrum_exponent=1.0,
                                      outlier_directions=outliers, outlier_gain=30.0, seed=seed))
        w = gen_weights(64, 16, seed).astype(np.float64)
        h = build_hessian(x, 0.01)
        for g, bits in itertools.product((8, 16), (2, 3)):
            owc, _ = quantize_matrix(w, h, RunSettings("owc", bits, g))
            rtn, _ = quantize_matrix(w, h, RunSettings("rtn", bits, g))
            for j, i in itertools.product(range(16), range(64 // g)):
                sl = slice(i * g, (i + 1) * g)
                block = np.ascontiguousarray(h[sl, sl])
                scores = []
                for layer in (owc, rtn):
                    e = w[sl, j] - (np.float64(layer.scales[j, i]) * layer.codes[j, sl]
                                    + np.float64(layer.biases[j, i]))
                    scores.append(e @ (block @ e))
                assert scores[0] <= scores[1], (seed, outliers, g, bits, j, i)
            for j in range(16):
                owc_loss, rtn_loss = (channel_objective(w[:, j], layer.scales[j], layer.biases[j],
                                                        layer.codes[j], h)[0]
                                      for layer in (owc, rtn))
                worse += owc_loss > rtn_loss
    assert worse > 0


def _joint_objective(w, hmat, g, gammas, bits):
    """Exhaustive-oracle helper: fit every group at its gamma and score e'He."""
    err = np.empty_like(w)
    for i, gamma in enumerate(gammas):
        sl = slice(i * g, (i + 1) * g)
        p, q = _fit_affine(w[sl], bits, gamma=gamma)
        err[sl] = w[sl] - (p.scale * q.astype(np.float64) + p.bias)
    return float(err @ hmat @ err)


def test_owc_cd_single_group_matches_grid_search():
    w, h = _rand_instance(6, 11)
    table, picks = owc_group_init(w, h, bits=2, group_size=6)
    result = owc_cd(table, h, picks, steps=10)
    _, _, (gamma,), codes = table.pick(result.picks)
    _, _, (ref_gamma,), ref_codes = owc_quantize(w, h, 2, 50)
    assert gamma == ref_gamma
    np.testing.assert_array_equal(codes, ref_codes)
    assert result.swaps == []  # init already sits at the grid optimum


def test_owc_cd_block_diagonal_makes_no_move():
    d, g = 8, 2
    h = _block_diag_hessian(d, g, 12)
    w = np.random.default_rng(13).standard_normal(d)
    table, picks = owc_group_init(w, h, bits=2, group_size=g)
    result = owc_cd(table, h, picks, steps=20)
    assert result.swaps == []


def test_owc_cd_one_column_table_makes_no_swap():
    # The one-point grid {1} leaves no other clip strength to swap to.
    d, g = 16, 4
    w, h = _rand_instance(d, 15)
    table = _affine_table(w.reshape(d // g, g), 3, np.ones(1))
    start = np.zeros(d // g, dtype=np.intp)
    result = owc_cd(table, h, start)
    assert result.swaps == [] and result.final_loss == result.initial_loss
    np.testing.assert_array_equal(result.picks, start)


def test_owc_cd_two_groups_vs_exhaustive_pairs():
    d, g, bits = 4, 2, 2
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    w, h = _rand_instance(d, 14)
    table, picks = owc_group_init(w, h, bits=bits, group_size=g, grid_size=4)
    np.testing.assert_array_equal(table.gammas[0], grid)
    init_pair = tuple(grid[picks])
    result = owc_cd(table, h, picks, steps=20)
    final_pair = tuple(grid[result.picks])

    table = {(g0, g1): _joint_objective(w, h, g, (g0, g1), bits)
             for g0, g1 in itertools.product(grid, repeat=2)}
    assert result.final_loss == pytest.approx(table[final_pair], rel=1e-9)
    assert result.final_loss <= table[init_pair] + 1e-12
    # converged (stopped before the budget): no single-group swap improves
    assert len(result.swaps) < 20
    for beta in grid:
        assert table[(beta, final_pair[1])] >= result.final_loss - 1e-9
        assert table[(final_pair[0], beta)] >= result.final_loss - 1e-9


def test_owc_cd_monotone_and_v_maintenance():
    for seed in range(10):
        d, g = 16, 4
        w, h = _rand_instance(d, seed)
        table, picks = owc_group_init(w, h, bits=2, group_size=g, grid_size=8)
        result = owc_cd(table, h, picks, steps=d // g)
        losses = [result.initial_loss] + [s[3] for s in result.swaps]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        # the predicted change of every swap matches the realized change
        for (i, beta, predicted, after), before in zip(result.swaps, losses):
            assert after - before == pytest.approx(predicted, rel=1e-9, abs=1e-12)
        scales, biases, _, codes = table.pick(result.picks)
        avec, bvec = expand_params(scales, biases, d)
        err = w - (avec * codes + bvec)
        fresh_v = -2.0 * (h @ err)
        assert np.abs(result.final_v - fresh_v).max() < 1e-6


def test_owc_cd_final_never_worse_than_init():
    for seed in range(5):
        w, h = _rand_instance(12, 100 + seed)
        table, picks = owc_group_init(w, h, bits=3, group_size=3)
        scales, biases, _, codes = table.pick(picks)
        avec, bvec = expand_params(scales, biases, 12)
        err = w - (avec * codes + bvec)
        init_loss = float(err @ h @ err)
        result = owc_cd(table, h, picks)
        assert result.final_loss <= init_loss + 1e-12
        assert result.initial_loss == pytest.approx(init_loss, rel=1e-12)


def test_quantize_channel_grouped_monotone():
    w, h = _rand_instance(16, 17)
    cfg = RunSettings(bits=2, group_size=4, block_size=2, seed=2)
    objectives = {}
    for method in ("owc", "cd", "bcd"):
        scales, biases, _, codes, steps = quantize_channel_grouped(w, h,
                                                                    replace(cfg, method=method))
        avec, bvec = expand_params(scales, biases, 16)
        err = w - (avec * codes + bvec)
        objectives[method] = float(err @ h @ err)
    assert objectives["cd"] <= objectives["owc"] + 1e-12
    assert objectives["bcd"] <= objectives["cd"] + 1e-12


def test_owc_cd_refine_improves_group_init():
    for seed in range(5):
        w, h = _rand_instance(16, 30 + seed)
        cfg = RunSettings("owc", 2, 4, seed=1)
        plain = quantize_channel_grouped(w, h, cfg)
        refined = quantize_channel_grouped(w, h, replace(cfg, owc_cd=True))
        def loss(scales, biases, gammas, codes, steps):
            avec, bvec = expand_params(scales, biases, 16)
            err = w - (avec * codes + bvec)
            return float(err @ h @ err)
        assert loss(*refined) <= loss(*plain) + 1e-12


def test_grouped_channel_builds_one_table():
    # The grid search's table is the descent's: one affine fit per channel.
    w, h = _rand_instance(16, 40)
    calls = []

    def counted(*args):
        calls.append(args)
        return _affine_table(*args)

    for method in ("owc", "cd"):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(groupquant, "_affine_table", counted)
            quantize_channel_grouped(w, h, RunSettings(method, 2, 4, owc_cd=True))
        assert len(calls) == 1, method


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("group_size,owc_cd_refine", [(0, False), (4, False)])
def test_rtn_does_not_read_the_hessian(group_size, owc_cd_refine):
    rng = np.random.default_rng(41)
    w = rng.standard_normal((16, 5)).astype(np.float32)
    w[:, 2] = 0.5   # a constant column
    h = build_hessian(rng.standard_normal((64, 16)).astype(np.float32), 0.01)
    layers = [quantize_matrix(w, hmat, RunSettings("rtn", 3, group_size, owc_cd=owc_cd_refine))[0]
              for hmat in (h, np.zeros_like(h), 1e300 * np.eye(16), np.triu(h))]
    for layer in layers[1:]:
        for name in ("codes", "scales", "biases", "gammas"):
            assert getattr(layer, name).tobytes() == getattr(layers[0], name).tobytes(), name


@pytest.mark.parametrize("method", ["cd", "cyclic", "bcd"])
def test_channel_without_live_group_runs_no_engine(method):
    # Column 0 is constant; column 1 is constant within each group of 8, at a
    # different value per group. Neither has a live group, so neither runs an
    # engine: 0 steps, as a constant column reports per channel, and the layer
    # of the grid search alone.
    rng = np.random.default_rng(18)
    w = rng.standard_normal((32, 3))
    w[:, 0] = 0.75
    w[:, 1] = np.repeat([-1.0, 0.5, 2.0, 3.25], 8)
    h = build_hessian(rng.standard_normal((128, 32)), 0.01)
    layer, records = quantize_matrix(w, h, RunSettings(method, 3, 8, block_size=2),
                                     collect_timing=False)
    owc_layer, owc_records = quantize_matrix(w, h, RunSettings("owc", 3, 8), collect_timing=False)
    assert [r.steps for r in records[:2]] == [0, 0]
    assert records[2].steps > 0
    for name in ("codes", "scales", "biases", "gammas"):
        assert getattr(layer, name)[:2].tobytes() == getattr(owc_layer, name)[:2].tobytes(), name
    assert [r.objective for r in records[:2]] == [r.objective for r in owc_records[:2]]
