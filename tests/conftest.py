"""Shared instance factories and reference copies for the test suite.

``QuantParams``, ``_fit_affine``, ``objective`` (with ``dequantize``),
``GradientState``, ``minmax_quantize``, ``minmax_group_init`` and
``reference_pair_screen`` are verbatim copies of code the package no longer
has: the one-group params class that the references build and return (the
package keeps a fit as plain scale, bias and clip-strength arrays, which
``as_params`` turns into these for comparison), the scalar affine fit that
``quantcore._affine_table`` must match bit for bit, the one-params objective
that independent checks score with, the engines' old state class, which the
tests' reference engine copies still use, the min-max fits that the grid
searches on the one-point grid {1} (the ``rtn`` method) must reproduce, and the
bcd pair screen as it was before its coupling table was built once per run
(renamed from ``descent._pair_screen``), whose pairs the new screen must match.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from qdescent.calibration import ShapeMismatchError, build_hessian
from qdescent.descent import SCREEN_CHECK_VALUES, SCREEN_CHUNK_ROWS, SCREEN_MARGIN
from qdescent.groupquant import tilde_transform
from qdescent.quantcore import (ChannelProblem, _affine_table, _check_grouping, check_bits,
                                owc_quantize, round_half_away)


@dataclass(frozen=True)
class QuantParams:
    """Affine dequantization parameters for one channel or group."""

    scale: float
    bias: float
    bits: int
    gamma: float = 1.0

    def __post_init__(self):
        check_bits(self.bits)
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    @property
    def levels(self) -> int:
        return 1 << self.bits


def as_params(fit, bits: int) -> tuple[QuantParams, ...]:
    """One ``QuantParams`` per group of a fit's leading (scales, biases, gammas) arrays."""
    scales, biases, gammas = fit[:3]
    return tuple(QuantParams(scale=float(a), bias=float(b), bits=bits, gamma=float(c))
                 for a, b, c in zip(scales, biases, gammas))


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


def minmax_quantize(w: np.ndarray, bits: int) -> tuple[QuantParams, np.ndarray]:
    """Min-max affine quantization (clip strength 1, i.e. no clipping)."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    table = _affine_table(w[None, :], bits, np.ones(1))
    return as_params(table.pick(np.zeros(1, dtype=np.intp)), bits)[0], table.codes[0, 0].copy()


def minmax_group_init(w: np.ndarray, bits: int,
                      group_size: int) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """Independent per-group min-max fit (clip strength 1): (params per group, codes)."""
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    table = _affine_table(w.reshape(n_groups, group_size), bits, np.ones(1))
    return as_params(table.pick(np.zeros(n_groups, dtype=np.intp)), bits), table.codes[:, 0].ravel()


def reference_pair_screen(hmat: np.ndarray, codes: np.ndarray, gradient: np.ndarray,
                          r_grid: np.ndarray) -> Optional[np.ndarray]:
    """Pairs (i, j), i < j, whose 2-block scan might accept a step; None if unscreenable.

    A 2-block update (D_i, D_j) changes the loss by exactly

        E = S_i(D_i) + S_j(D_j) + D_i D_j (H_ij + H_ji),   S_i(D) = D^2 H_ii + D g_i,

    and the engine accepts it only if its own rounded evaluation of E is
    negative. A pair is left out of the result only when, for every value
    pair, ``E >= SCREEN_MARGIN * T`` where T is the sum of the absolute
    values of the terms of E. That is a proof that the pair's scan is a
    no-op: the engine's factored re-check ``dvec @ hwin @ dvec + dvec @ g``
    is a handful of dot products over the same terms (the D are small exact
    integers), so its rounding error is at most gamma_4 * T ~ 4.5e-16 * T,
    and the screen's own arithmetic below (tables, products, square roots)
    errs by a few more units of 2^-53 relative to T or to the compared
    values. The margin of 1e-9 * T dominates both by six orders of
    magnitude. Terms that are exactly zero (T = 0, as on the zero rows of
    H~ for a constant group) are evaluated exactly by both sides.

    Stages:

    1. Single moves (D_j = 0). The slack is ``sigma_i(D) = S_i(D) -
       SCREEN_MARGIN * (D^2 |H_ii| + |D g_i|)``. If any slack is negative,
       a pair containing i could improve through its single move, so the
       state has no screen and None is returned. Otherwise
       ``rho_i = min over D != 0 of sigma_i(D) / D^2`` and ``mu_i = sqrt(rho_i)``.
    2. Filter. By AM-GM, ``rho_i D_i^2 + rho_j D_j^2 >= 2 mu_i mu_j |D_i D_j|``,
       so a pair cannot come within the margin unless
       ``(1 + margin) (|H_ij| + |H_ji|) / 2 > mu_i mu_j``. The test runs over
       row chunks of H with a slightly larger factor to absorb rounding; mu
       below 1e-150 is taken as 0 so that mu_i mu_j never underflows.
    3. Exact check of the pairs that pass the filter: all levels^2 value
       pairs of ``sigma_i + sigma_j + D_i D_j c - margin |D_i D_j| a`` with
       ``c = H_ij + H_ji`` and ``a = |H_ij| + |H_ji|``; a pair is returned
       if any of them is negative.
    """
    d = hmat.shape[0]
    hdiag = np.diag(hmat)
    diff = r_grid[None, :] - codes[:, None]
    sq = diff * diff
    step = diff * gradient[:, None]
    slack = (sq * hdiag[:, None] + step) - SCREEN_MARGIN * (sq * np.abs(hdiag)[:, None]
                                                            + np.abs(step))
    if (slack < 0.0).any():
        return None
    ratio = slack / np.maximum(sq, 1.0)
    ratio[diff == 0.0] = np.inf
    mu = np.sqrt(ratio.min(axis=1))
    mu[mu < 1e-150] = 0.0

    half_factor = 0.5 * (1.0 + 4.0 * SCREEN_MARGIN)
    rows_i, cols_j = [], []
    for lo in range(0, d - 1, SCREEN_CHUNK_ROWS):
        hi = min(lo + SCREEN_CHUNK_ROWS, d - 1)
        coupling = np.abs(hmat[lo:hi, lo + 1:]) + np.abs(hmat[lo + 1:, lo:hi].T)
        hit = half_factor * coupling > mu[lo:hi, None] * mu[None, lo + 1:]
        ii, jj = np.nonzero(hit)
        jj += 1
        upper = jj > ii
        rows_i.append(ii[upper] + lo)
        cols_j.append(jj[upper] + lo)
    cand_i, cand_j = np.concatenate(rows_i), np.concatenate(cols_j)

    keep = np.zeros(cand_i.shape[0], dtype=bool)
    per_chunk = max(1, SCREEN_CHECK_VALUES // (r_grid.shape[0] ** 2))
    for lo in range(0, cand_i.shape[0], per_chunk):
        i, j = cand_i[lo:lo + per_chunk], cand_j[lo:lo + per_chunk]
        h_ij, h_ji = hmat[i, j], hmat[j, i]
        cross = (h_ij + h_ji)[:, None, None]
        weight = (np.abs(h_ij) + np.abs(h_ji))[:, None, None]
        prod = diff[i][:, :, None] * diff[j][:, None, :]
        value = (slack[i][:, :, None] + slack[j][:, None, :] + prod * cross
                 - SCREEN_MARGIN * (np.abs(prod) * weight))
        keep[lo:lo + per_chunk] = (value < 0.0).any(axis=(1, 2))
    return np.stack([cand_i[keep], cand_j[keep]], axis=1)


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
    scales, biases, _, q0 = owc_quantize(w, hessian, bits, grid_size)
    prob = ChannelProblem(w, hessian, scales[0], biases[0], bits)
    return prob, q0


def integer_problem(d, bits, seed):
    """Near-tie instance: small-integer PSD H, target on integers and half-integers."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(d, d)).astype(np.float64)
    h = a.T @ a + np.diag(rng.integers(0, 2, size=d).astype(np.float64))
    levels = 2 ** bits
    z = rng.integers(0, 2 * levels - 1, size=d) / 2.0
    prob = ChannelProblem(weights=z, hessian=h, scale=1.0, bias=0.0, bits=bits)
    q0 = rng.integers(0, levels, size=d).astype(np.uint8)
    return prob, q0


def expand_params(scales, biases, d):
    """Per-coordinate (scale, bias) float64 vectors of one scale and bias per group of d weights."""
    g = d // len(scales)
    return (np.repeat(np.asarray(scales, dtype=np.float64), g),
            np.repeat(np.asarray(biases, dtype=np.float64), g))


def grouped_problem(d, group_size, bits, seed, constant_group):
    """Tilde problem (H~ = D H D) of a channel whose ``constant_group`` has one value."""
    prob, _ = random_problem(d, bits, seed=seed)
    w = prob.weights.copy()
    sl = slice(constant_group * group_size, (constant_group + 1) * group_size)
    w[sl] = 0.25
    n_groups = d // group_size
    scales, biases, codes = np.empty(n_groups), np.empty(n_groups), np.empty(d, dtype=np.uint8)
    for g in range(n_groups):
        gsl = slice(g * group_size, (g + 1) * group_size)
        scales[g:g + 1], biases[g:g + 1], _, codes[gsl] = owc_quantize(
            w[gsl], prob.hessian[gsl, gsl], bits, 20)
    tilde = tilde_transform(w, prob.hessian, scales, biases, bits)
    assert not tilde.hessian[sl].any()  # the constant group's rows of H~ are zero
    return tilde, codes
