"""Affine quantizers, objective evaluation, and layer serialization."""

import numpy as np
import pytest

from conftest import minmax_quantize, objective
from qdescent.calibration import build_hessian
from qdescent.descent import DescentConfig, _quantize_channel
from qdescent.quantcore import (ChannelProblem, QuantizedLayer, _reconstruct, channel_objective,
                                load_layer, owc_quantize, round_half_away, save_layer,
                                zero_baseline)


def hess(mat):
    return np.asarray(mat, dtype=np.float64)


def test_round_half_away_from_zero():
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, 0.49, -0.49])
    np.testing.assert_array_equal(round_half_away(x), [1, 2, 3, -1, -2, 0, -0])


def _f32(*values):
    return np.array(values, dtype=np.float32)


def _rtn(w, bits):
    """(params, codes) of the ``rtn`` method's per-channel path: the min-max fit."""
    w = np.asarray(w, dtype=np.float64)
    (params,), codes, _ = _quantize_channel(w, np.eye(w.shape[0]), "rtn", bits,
                                            DescentConfig(), 50)
    return params, codes


def _loss(w, codes, params, h):
    """``channel_objective``'s loss of one channel under one params entry."""
    return channel_objective(w, _f32(params.scale), _f32(params.bias), codes, h)[0]


def _deq(codes, params):
    return _reconstruct(_f32(params.scale), _f32(params.bias), codes)


def test_dequantize_examples():
    np.testing.assert_array_equal(_reconstruct(_f32(1.0), _f32(0.0), np.array([0, 1, 2, 3])),
                                  [0, 1, 2, 3])
    np.testing.assert_array_equal(_reconstruct(_f32(0.0), _f32(5.0), np.array([0, 0])),
                                  [5.0, 5.0])
    np.testing.assert_allclose(_reconstruct(_f32(0.5), _f32(-1.0), np.array([1, 3])), [-0.5, 0.5])


def test_objective_examples():
    w = np.array([0.0, 1.0, 2.0, 3.0])
    assert channel_objective(w, _f32(1.0), _f32(0.0), np.array([0, 1, 2, 3]),
                             hess(np.eye(4)))[0] == 0.0

    w1 = np.array([0.4, 0.6])
    assert channel_objective(w1, _f32(1.0), _f32(0.0), np.array([0, 1]),
                             hess(np.eye(2)))[0] == pytest.approx(0.32)

    h = hess([[2.0, 1.0], [1.0, 2.0]])
    w2 = np.array([-0.4, -0.6])  # codes 0, error is w itself
    assert channel_objective(w2, _f32(1.0), _f32(0.0), np.array([0, 0]), h)[0] == \
        pytest.approx(1.52)


def test_objective_shape_mismatch():
    with pytest.raises(ValueError):
        channel_objective(np.array([1.0, 2.0, 3.0]), _f32(1.0), _f32(0.0), np.array([0, 1]),
                          hess(np.eye(2)))


def test_objective_strictly_positive_off_grid():
    # with damping the Hessian is positive definite, so any nonzero error scores > 0
    rng = np.random.default_rng(12)
    h = build_hessian(rng.standard_normal((4, 8)), 0.01)  # PD only through damping
    for _ in range(20):
        w = rng.standard_normal(8)
        params, q = _rtn(w, 2)
        err = w - _deq(q, params)
        got = _loss(w, q, params, h)
        assert got >= 0.0
        if np.abs(err).max() > 1e-12:
            assert got > 0.0


def test_objective_vs_explicit_data_products():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal((40, 6))
        h = build_hessian(x, 0.01)
        w = rng.standard_normal(6)
        params, q = _rtn(w, 3)
        err = w - _deq(q, params)
        lam = 0.01 * np.mean(np.diag(x.T @ x))
        direct = np.linalg.norm(x @ err) ** 2 + lam * np.linalg.norm(err) ** 2
        got = _loss(w, q, params, h)
        assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


def test_minmax_examples():
    params, q = _rtn(np.array([0.0, 1.0, 2.0, 3.0]), 2)
    assert (params.scale, params.bias) == (1.0, 0.0)
    np.testing.assert_array_equal(q, [0, 1, 2, 3])

    params, q = _rtn(np.array([-1.0, 0.0, 1.0]), 1)
    assert (params.scale, params.bias) == (2.0, -1.0)
    np.testing.assert_array_equal(q, [0, 1, 1])  # midpoint rounds away from zero

    params, q = _rtn(np.array([5.0, 5.0]), 3)
    assert params.scale == 0.0 and params.bias == 5.0
    np.testing.assert_array_equal(q, [0, 0])
    np.testing.assert_array_equal(_deq(q, params), [5.0, 5.0])


def test_minmax_empty():
    with pytest.raises(ValueError):
        _rtn(np.array([]), 2)


def test_requantize_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.standard_normal(16)
        params, q = _rtn(w, 3)
        deq = _deq(q, params)
        # same params: rounding (deq - b) / a recovers the codes exactly
        again = np.clip(round_half_away((deq - params.bias) / params.scale),
                        0, params.levels - 1).astype(np.uint8)
        np.testing.assert_array_equal(again, q)
        # fresh min-max fit of the dequantized vector reproduces it bit for bit
        params2, q2 = _rtn(deq, 3)
        np.testing.assert_array_equal(_deq(q2, params2), deq)


def test_owc_grid_one_is_minmax_bitwise():
    rng = np.random.default_rng(5)
    h = build_hessian(rng.standard_normal((30, 10)), 0.01)
    for _ in range(20):
        w = rng.standard_normal(10)
        pm, qm = minmax_quantize(w, 3)
        po, qo = owc_quantize(w, h, 3, grid_size=1)
        assert (po.scale, po.bias, po.gamma) == (pm.scale, pm.bias, pm.gamma)
        np.testing.assert_array_equal(qo, qm)


def test_owc_never_worse_than_minmax():
    rng = np.random.default_rng(6)
    h = build_hessian(rng.standard_normal((40, 12)), 0.01)
    for _ in range(100):
        w = rng.standard_normal(12) * rng.uniform(0.1, 10)
        pm, qm = minmax_quantize(w, 2)
        po, qo = owc_quantize(w, h, 2, grid_size=50)
        assert objective(w, qo, po, h) <= objective(w, qm, pm, h)


def test_owc_exact_grid_point():
    w = np.array([0.0, 1.0, 2.0, 3.0])
    h = hess(np.eye(4))
    params, q = owc_quantize(w, h, 2, grid_size=50)
    assert params.gamma == 1.0
    assert objective(w, q, params, h) == 0.0


def test_owc_matches_independent_grid_scan():
    # Plain-loop oracle recomputing every grid candidate from first principles.
    w = np.array([0.0, 1.0, 1.1, 10.0])
    h = hess(np.eye(4))
    bits, grid = 2, 50

    best = None
    for j in range(1, grid + 1):
        gamma = j / grid
        b = w.min()
        a = float(np.float32(gamma * (w.max() - b) / (2 ** bits - 1)))
        q = np.clip(np.sign((w - b) / a) * np.floor(np.abs((w - b) / a) + 0.5),
                    0, 2 ** bits - 1)
        e = w - (a * q + b)
        score = float(e @ h @ e)
        if best is None or score <= best[0]:  # later j wins ties, toward larger gamma
            best = (score, gamma, a, q)

    params, q = owc_quantize(w, h, bits, grid_size=grid)
    assert params.gamma == pytest.approx(best[1])
    assert params.scale == pytest.approx(best[2])
    np.testing.assert_array_equal(q, best[3])
    assert objective(w, q, params, h) == pytest.approx(best[0])


def test_owc_degenerate_constant():
    h = hess(np.eye(2))
    params, q = owc_quantize(np.array([3.0, 3.0]), h, 4)
    assert params.scale == 0.0 and params.gamma == 1.0
    np.testing.assert_array_equal(q, [0, 0])


def test_channel_objective():
    w = np.array([0.4, 0.6])
    h = hess([[2.0, 1.0], [1.0, 2.0]])
    obj, rel, base = channel_objective(w, _f32(1.0), _f32(0.0), np.array([0, 1]), h)
    assert base == pytest.approx(1.52)
    assert obj == pytest.approx(0.32) and rel == pytest.approx(0.32 / 1.52)

    # dequantized output identical to w (up to the f32 params): ratio ~0
    obj, rel, _ = channel_objective(w, _f32(0.2), _f32(0.4), np.array([0, 1]), h)
    assert rel == pytest.approx(0.0, abs=1e-12)

    # dequantized output of all zeros: ratio 1
    obj, rel, base = channel_objective(w, _f32(0.0), _f32(0.0), np.array([0, 0]), h)
    assert obj == base and rel == 1.0

    # zero baseline: reported as 0, as in the records, not raised
    assert channel_objective(np.zeros(2), _f32(0.0), _f32(0.0), np.array([0, 0]), h) == \
        (0.0, 0.0, 0.0)


def test_channel_objective_groups_and_stored_params():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(6)
    h = build_hessian(rng.standard_normal((24, 6)), 0.01)
    params, codes = owc_quantize(w, h, 3)
    obj, rel, base = channel_objective(w, _f32(params.scale), _f32(params.bias), codes, h)
    assert obj == objective(w, codes, params, h) and base == zero_baseline(w, h)
    assert rel == obj / base
    # three groups of two: group k dequantizes with its own (scale, bias)
    scales, biases = _f32(0.5, 0.0, 0.25), _f32(-1.0, 0.75, 0.5)
    q = np.array([1, 3, 0, 0, 2, 1])
    err = w - (np.repeat(scales.astype(np.float64), 2) * q + np.repeat(biases.astype(np.float64), 2))
    assert channel_objective(w, scales, biases, q, h)[0] == float(err @ (h @ err))


def test_channel_problem_target_cache():
    h = hess(np.eye(3))
    w = np.array([0.1, 0.5, 0.9])
    params, _ = _rtn(w, 2)
    prob = ChannelProblem.build(w, h, params)
    np.testing.assert_allclose(prob.target, (w - params.bias) / params.scale, atol=1e-12)

    pc, _ = _rtn(np.array([1.0, 1.0, 1.0]), 2)
    degenerate = ChannelProblem.build(np.array([1.0, 1.0, 1.0]), h, pc)
    assert degenerate.target is None


# ---------------------------------------------------------------------------
# layer serialization


def _toy_layer():
    return QuantizedLayer(
        d_in=4, d_out=3, bits=3, group_size=2,
        scales=np.arange(6, dtype=np.float32).reshape(3, 2) / 7 + 0.1,
        biases=-np.ones((3, 2), dtype=np.float32),
        gammas=np.full((3, 2), 0.5, dtype=np.float32),
        codes=np.arange(12, dtype=np.uint8).reshape(3, 4) % 8,
        meta={"method": "cd", "lambda_rel": 0.01},
    )


def test_layer_roundtrip_packed(tmp_path):
    layer = _toy_layer()
    save_layer(layer, tmp_path / "layer")
    back = load_layer(tmp_path / "layer")
    assert (back.d_in, back.d_out, back.bits, back.group_size) == (4, 3, 3, 2)
    np.testing.assert_array_equal(back.codes, layer.codes)
    assert back.scales.tobytes() == layer.scales.tobytes()
    assert back.meta["method"] == "cd"
    np.testing.assert_array_equal(back.dequantize(), layer.dequantize())


def test_layer_validation_errors():
    layer = _toy_layer()
    layer.codes = layer.codes[:, :3]
    with pytest.raises(ValueError):
        layer.validate()


def test_layer_dequantize_groups():
    layer = _toy_layer()
    a = np.repeat(layer.scales[1].astype(np.float64), layer.group_size)
    b = np.repeat(layer.biases[1].astype(np.float64), layer.group_size)
    assert a.shape == (4,)
    expected = a * layer.codes[1] + b
    np.testing.assert_allclose(layer.dequantize()[:, 1], expected)
