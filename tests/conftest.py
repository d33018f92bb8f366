"""Shared instance factories and reference copies for the test suite.

``_fit_affine``, ``objective`` (with ``dequantize``), ``GradientState``,
``minmax_quantize`` and ``minmax_group_init`` are verbatim copies of code the
package no longer has: the scalar affine fit that ``quantcore._affine_table``
must match bit for bit, the one-params objective that independent checks score
with, the engines' old state class, which the tests' reference engine copies
still use, and the min-max fits that the grid searches on the one-point grid
{1} (the ``rtn`` method) must reproduce.
"""

from dataclasses import dataclass

import numpy as np

from qdescent.calibration import ShapeMismatchError, build_hessian
from qdescent.groupquant import tilde_transform
from qdescent.quantcore import (ChannelProblem, CodeVector, QuantParams, _affine_table,
                                _check_grouping, owc_quantize, round_half_away)


def _f32(value: float) -> float:
    return float(np.float32(value))


def _fit_affine(w: np.ndarray, bits: int, gamma: float) -> tuple[QuantParams, np.ndarray]:
    """Affine fit at a fixed clip strength; grid searches use its vectorized
    twin ``_affine_table``, which must match it bit for bit."""
    span = float(w.max() - w.min())
    bias = _f32(float(w.min()))
    if span == 0.0:
        params = QuantParams(scale=0.0, bias=bias, bits=bits, gamma=1.0)
        return params, np.zeros(w.shape[0], dtype=np.uint8)
    scale = _f32(gamma * span / ((1 << bits) - 1))
    params = QuantParams(scale=scale, bias=bias, bits=bits, gamma=gamma)
    q = round_half_away((w - params.bias) / params.scale)
    q = np.clip(q, 0, params.levels - 1).astype(np.uint8)
    return params, q


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Return a*q + b as float64; a constant b vector when scale is zero."""
    q = np.asarray(codes)
    if q.size and int(q.max(initial=0)) >= params.levels:
        raise ValueError(f"code out of range for {params.bits} bits")
    return params.scale * q.astype(np.float64) + params.bias


def objective(weights: np.ndarray, codes: np.ndarray, params: QuantParams,
              hessian: np.ndarray) -> float:
    """Reconstruction loss e' H e with e = w - dequantize(q)."""
    h = np.asarray(hessian, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != h.shape[0] or w.shape[0] != np.asarray(codes).shape[0]:
        raise ShapeMismatchError("weights, codes and Hessian dimensions disagree")
    err = w - dequantize(codes, params)
    return float(err @ (h @ err))


def minmax_quantize(w: np.ndarray, bits: int) -> tuple[QuantParams, CodeVector]:
    """Min-max affine quantization (clip strength 1, i.e. no clipping)."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    table = _affine_table(w[None, :], bits, np.ones(1))
    return table.params(0, 0), table.codes[0, 0].copy()


def minmax_group_init(w: np.ndarray, bits: int,
                      group_size: int) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """Independent per-group min-max fit (clip strength 1): (params per group, codes)."""
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    table = _affine_table(w.reshape(n_groups, group_size), bits, np.ones(1))
    return tuple(table.params(i, 0) for i in range(n_groups)), table.codes[:, 0].ravel()


@dataclass
class GradientState:
    """Maintained codes and gradient of the scaled loss.

    ``codes`` is a float64 working copy of q (entries are exact small
    integers); ``gradient`` is kept equal to 2 H (q - z) by rank-1 (or
    rank-k) updates as codes change.
    """

    codes: np.ndarray
    gradient: np.ndarray

    @classmethod
    def init(cls, hmat: np.ndarray, q0: np.ndarray, z: np.ndarray) -> "GradientState":
        codes = np.asarray(q0, dtype=np.float64).copy()
        return cls(codes=codes, gradient=2.0 * (hmat @ (codes - z)))

    def loss(self, hmat: np.ndarray, z: np.ndarray) -> float:
        err = self.codes - z
        return float(err @ (hmat @ err))


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
