"""Shared instance factories for the test suite."""

import numpy as np

from qdescent.calibration import build_hessian
from qdescent.groupquant import tilde_transform
from qdescent.quantcore import ChannelProblem, QuantParams, owc_quantize


def random_problem(d_in, bits, seed, n=None, lambda_rel=0.01, grid_size=50, scale=1.0):
    """Random calibration Hessian + weight column, initialized by the grid search.

    Returns (problem, initial_codes). Weights are scaled so spans vary across
    instances; the Hessian is PSD with relative damping.
    """
    rng = np.random.default_rng(seed)
    n = n or 4 * d_in
    x = rng.standard_normal((n, d_in))
    hessian = build_hessian(x, lambda_rel)
    w = rng.standard_normal(d_in) * scale
    params, q0 = owc_quantize(w, hessian, bits, grid_size)
    prob = ChannelProblem.build(w, hessian, params)
    return prob, q0


def integer_problem(d, bits, seed):
    """Near-tie instance: small-integer PSD H, target on integers and half-integers."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(d, d)).astype(np.float64)
    h = a.T @ a + np.diag(rng.integers(0, 2, size=d).astype(np.float64))
    levels = 2 ** bits
    z = rng.integers(0, 2 * levels - 1, size=d) / 2.0
    params = QuantParams(scale=1.0, bias=0.0, bits=bits, gamma=1.0)
    prob = ChannelProblem(weights=z, hessian=h, params=params, target=z)
    q0 = rng.integers(0, levels, size=d).astype(np.uint8)
    return prob, q0


def expand_params(params, d):
    """Per-coordinate (scale, bias) float64 vectors of one params entry per group of d weights."""
    g = d // len(params)
    return (np.repeat(np.array([p.scale for p in params], dtype=np.float64), g),
            np.repeat(np.array([p.bias for p in params], dtype=np.float64), g))


def grouped_problem(d, group_size, bits, seed, constant_group):
    """Tilde problem (H~ = D H D) of a channel whose ``constant_group`` has one value."""
    prob, _ = random_problem(d, bits, seed=seed)
    w = prob.weights.copy()
    sl = slice(constant_group * group_size, (constant_group + 1) * group_size)
    w[sl] = 0.25
    params, codes = [], np.empty(d, dtype=np.uint8)
    for g in range(d // group_size):
        gsl = slice(g * group_size, (g + 1) * group_size)
        p, q = owc_quantize(w[gsl], prob.hessian[gsl, gsl], bits, 20)
        params.append(p)
        codes[gsl] = q
    tilde = tilde_transform(w, prob.hessian, tuple(params))
    assert not tilde.hessian[sl].any()  # the constant group's rows of H~ are zero
    return tilde, codes
