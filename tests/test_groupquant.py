"""Grouped quantization: scaled-problem reduction, group inits, clip-strength descent."""

import itertools

import numpy as np
import pytest

from conftest import random_problem
from qdescent.calibration import Hessian, build_hessian
from qdescent.descent import DescentConfig, bcd_quantize, cd_quantize, quantize_matrix
from qdescent.groupquant import (GroupScheme, default_gamma_grid, expand_scheme,
                                 minmax_group_init, owc_cd, owc_group_init,
                                 quantize_channel_grouped, tilde_transform)
from qdescent.quantcore import (QuantParams, _fit_affine, minmax_quantize, objective,
                                owc_quantize)


def _rand_instance(d, seed, n=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n or 4 * d, d))
    return rng.standard_normal(d), build_hessian(x, 0.01)


def _uniform_scheme(d, g, params):
    return GroupScheme(group_size=g, params=tuple([params] * (d // g)))


def test_tilde_identity_when_scales_one():
    w, h = _rand_instance(6, 0)
    scheme = _uniform_scheme(6, 2, QuantParams(scale=1.0, bias=0.25, bits=2))
    tilde = tilde_transform(w, h, scheme)
    np.testing.assert_array_equal(tilde.hessian.matrix, h.matrix)
    np.testing.assert_allclose(tilde.target, w - 0.25)
    assert tilde.weights is tilde.target and tilde.hessian.damping == h.damping
    assert (tilde.params.scale, tilde.params.bias, tilde.params.bits) == (1.0, 0.0, 2)


def test_tilde_uniform_scale_matches_per_channel_trajectory():
    prob, q0 = random_problem(12, 2, seed=1)
    params = prob.params
    scheme = _uniform_scheme(12, 3, params)
    codes_g, trace_g = cd_quantize(tilde_transform(prob.weights, prob.hessian, scheme), q0,
                                   DescentConfig())
    codes_c, trace_c = cd_quantize(prob, q0, DescentConfig())
    np.testing.assert_array_equal(codes_g, codes_c)
    assert [(s.coords, s.values) for s in trace_g.steps] == \
           [(s.coords, s.values) for s in trace_c.steps]
    # tilde loss is the true loss; per-channel true loss carries the a^2 factor
    assert trace_g.final_loss == pytest.approx(trace_c.true_loss, rel=1e-9)


def test_tilde_rejects_inconsistent_zero_scale():
    w, h = _rand_instance(4, 2)
    scheme = _uniform_scheme(4, 2, QuantParams(scale=0.0, bias=0.0, bits=2))
    with pytest.raises(ValueError, match="zero scale"):
        tilde_transform(w, h, scheme)


@pytest.mark.parametrize("d, g", [(6, 2), (128, 32), (1024, 32)])
def test_tilde_matrix_bitwise_equals_two_temporary_expression(d, g):
    w, h = _rand_instance(d, 4)
    w[g:2 * g] = 0.75  # a constant group: zero scale, zero rows and columns of H~
    scheme, _ = owc_group_init(w, h, bits=3, group_size=g)
    assert scheme.params[1].scale == 0.0
    avec, _ = expand_scheme(scheme)
    expected = h.matrix * avec[:, None] * avec[None, :]
    h_tilde = tilde_transform(w, h, scheme).hessian.matrix
    assert h_tilde.tobytes() == expected.tobytes()
    assert not h_tilde[g:2 * g].any() and not h_tilde[:, g:2 * g].any()


def test_tilde_degenerate_group_constant_weights():
    w, h = _rand_instance(6, 3)
    w[2:4] = 1.5  # middle group constant
    scheme, codes = owc_group_init(w, h, bits=2, group_size=2)
    assert scheme.params[1].scale == 0.0
    np.testing.assert_array_equal(codes[2:4], [0, 0])
    # engines never touch the degenerate coordinates
    out, trace = cd_quantize(tilde_transform(w, h, scheme), codes, DescentConfig())
    np.testing.assert_array_equal(out[2:4], [0, 0])
    avec, bvec = expand_scheme(scheme)
    np.testing.assert_allclose((avec * out + bvec)[2:4], [1.5, 1.5])


def test_single_group_reduces_to_per_channel_bitwise():
    w, h = _rand_instance(10, 4)
    params_c, codes_c = owc_quantize(w, h, 3, 50)
    scheme_g, codes_g = owc_group_init(w, h, bits=3, group_size=10)
    assert scheme_g.params[0] == params_c
    np.testing.assert_array_equal(codes_g, codes_c)

    cfg = DescentConfig(seed=3, block_size=2)
    from qdescent.quantcore import ChannelProblem
    prob = ChannelProblem.build(w, h, params_c)
    out_c, _ = cd_quantize(prob, codes_c, cfg)
    out_g, _ = cd_quantize(tilde_transform(w, h, scheme_g), codes_g, cfg)
    np.testing.assert_array_equal(out_c, out_g)

    bcd_c, _ = bcd_quantize(tilde_transform(w, h, scheme_g), codes_g, cfg)
    bcd_ref, _ = bcd_quantize(prob, codes_c, cfg)
    np.testing.assert_array_equal(bcd_c, bcd_ref)


def test_group_pipeline_equals_per_channel_pipeline_at_full_group():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((8, 5)).astype(np.float32)
    x = rng.standard_normal((32, 8)).astype(np.float32)
    h = build_hessian(x, 0.01)
    cfg = DescentConfig(block_size=2, seed=9)
    for method in ("rtn", "owc", "cd", "cyclic", "bcd"):
        per_channel, _ = quantize_matrix(w, h, method, bits=2, group_size=0, cfg=cfg)
        grouped, _ = quantize_matrix(w, h, method, bits=2, group_size=8, cfg=cfg)
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
    return Hessian(matrix=mat, damping=0.05)


def test_block_diagonal_groups_decouple():
    d, g = 8, 2
    h = _block_diag_hessian(d, g, 7)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(d)
    scheme, q0 = owc_group_init(w, h, bits=2, group_size=g)
    cfg = DescentConfig(steps=64)
    joint, _ = cd_quantize(tilde_transform(w, h, scheme), q0, cfg)

    for i in range(d // g):
        sl = slice(i * g, (i + 1) * g)
        sub_h = Hessian(matrix=h.matrix[sl, sl].copy(), damping=h.damping)
        from qdescent.quantcore import ChannelProblem
        prob = ChannelProblem.build(w[sl], sub_h, scheme.params[i])
        sub_codes, _ = cd_quantize(prob, q0[sl], DescentConfig(steps=64))
        np.testing.assert_array_equal(joint[sl], sub_codes)


def test_owc_group_init_grid_one_is_group_minmax():
    w, h = _rand_instance(8, 10)
    a_scheme, a_codes = owc_group_init(w, h, bits=3, group_size=4, grid_size=1)
    b_scheme, b_codes = minmax_group_init(w, 3, 4)
    assert a_scheme == b_scheme
    np.testing.assert_array_equal(a_codes, b_codes)


def test_owc_group_init_local_objective_never_worse_than_minmax():
    for seed in range(10):
        w, h = _rand_instance(12, seed)
        owc_scheme, owc_codes = owc_group_init(w, h, bits=2, group_size=4)
        mm_scheme, mm_codes = minmax_group_init(w, 2, 4)
        for i in range(3):
            sl = slice(i * 4, (i + 1) * 4)
            hblk = h.matrix[sl, sl]
            e_owc = w[sl] - (owc_scheme.params[i].scale * owc_codes[sl] + owc_scheme.params[i].bias)
            e_mm = w[sl] - (mm_scheme.params[i].scale * mm_codes[sl] + mm_scheme.params[i].bias)
            assert e_owc @ hblk @ e_owc <= e_mm @ hblk @ e_mm + 1e-12


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
    scheme, codes = owc_group_init(w, h, bits=2, group_size=6)
    result = owc_cd(w, h, scheme, default_gamma_grid(50), steps=10)
    ref_params, ref_codes = owc_quantize(w, h, 2, 50)
    assert result.scheme.params[0].gamma == ref_params.gamma
    np.testing.assert_array_equal(result.codes, ref_codes)
    assert result.swaps == []  # init already sits at the grid optimum


def test_owc_cd_block_diagonal_makes_no_move():
    d, g = 8, 2
    h = _block_diag_hessian(d, g, 12)
    w = np.random.default_rng(13).standard_normal(d)
    scheme, _ = owc_group_init(w, h, bits=2, group_size=g)
    result = owc_cd(w, h, scheme, default_gamma_grid(50), steps=20)
    assert result.swaps == []


def test_owc_cd_two_groups_vs_exhaustive_pairs():
    d, g, bits = 4, 2, 2
    grid = np.array([0.25, 0.5, 0.75, 1.0])
    w, h = _rand_instance(d, 14)
    scheme, _ = owc_group_init(w, h, bits=bits, group_size=g, grid_size=4)
    init_pair = scheme.gammas
    result = owc_cd(w, h, scheme, grid, steps=20)
    final_pair = result.scheme.gammas

    table = {(g0, g1): _joint_objective(w, h.matrix, g, (g0, g1), bits)
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
        scheme, _ = owc_group_init(w, h, bits=2, group_size=g, grid_size=8)
        result = owc_cd(w, h, scheme, default_gamma_grid(8), steps=d // g)
        losses = [result.initial_loss] + [s[3] for s in result.swaps]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        # the predicted change of every swap matches the realized change
        for (i, beta, predicted, after), before in zip(result.swaps, losses):
            assert after - before == pytest.approx(predicted, rel=1e-9, abs=1e-12)
        avec, bvec = expand_scheme(result.scheme)
        err = w - (avec * result.codes + bvec)
        fresh_v = -2.0 * (h.matrix @ err)
        assert np.abs(result.final_v - fresh_v).max() < 1e-6


def test_owc_cd_final_never_worse_than_init():
    for seed in range(5):
        w, h = _rand_instance(12, 100 + seed)
        scheme, codes = owc_group_init(w, h, bits=3, group_size=3)
        avec, bvec = expand_scheme(scheme)
        err = w - (avec * codes + bvec)
        init_loss = float(err @ h.matrix @ err)
        result = owc_cd(w, h, scheme)
        assert result.final_loss <= init_loss + 1e-12
        assert result.initial_loss == pytest.approx(init_loss, rel=1e-12)


def test_quantize_channel_grouped_monotone():
    w, h = _rand_instance(16, 17)
    cfg = DescentConfig(block_size=2, seed=2)
    objectives = {}
    for method in ("owc", "cd", "bcd"):
        params, codes, steps = quantize_channel_grouped(w, h, method, 2, 4, cfg, 50, False)
        avec, bvec = expand_scheme(GroupScheme(group_size=4, params=params))
        err = w - (avec * codes + bvec)
        objectives[method] = float(err @ h.matrix @ err)
    assert objectives["cd"] <= objectives["owc"] + 1e-12
    assert objectives["bcd"] <= objectives["cd"] + 1e-12


def test_owc_cd_refine_improves_group_init():
    for seed in range(5):
        w, h = _rand_instance(16, 30 + seed)
        cfg = DescentConfig(seed=1)
        plain_params, plain_codes, _ = quantize_channel_grouped(w, h, "owc", 2, 4, cfg, 50, False)
        refined_params, refined_codes, _ = quantize_channel_grouped(w, h, "owc", 2, 4, cfg, 50,
                                                                    True)
        def loss(params, codes):
            avec, bvec = expand_scheme(GroupScheme(group_size=4, params=params))
            err = w - (avec * codes + bvec)
            return float(err @ h.matrix @ err)
        assert loss(refined_params, refined_codes) <= loss(plain_params, plain_codes) + 1e-12
