"""Synthetic calibration activations and the curvature matrix built from them.

Every optimizer in this package scores a candidate quantization of a weight
column w against ``e' H e`` where ``e`` is the reconstruction error and
``H = X'X (+ damping)`` is accumulated from calibration activations X.

The synthetic generator draws from a zero-mean Gaussian whose covariance has
a power-law eigenvalue spectrum, optionally with a few directions boosted by
a large gain to imitate activation distributions that concentrate in a
handful of directions.

Reproducibility: all randomness comes from numpy's counter-based Philox
generator keyed by ``SeedSequence(seed)``. Draw order is fixed: first the
d*d standard normals that seed the orthogonal eigenbasis (QR with sign
canonicalization), then the n*d standard normal samples. Given the same
seed, the generated matrix is identical across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand dimensions do not agree."""


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic activation generator."""

    d_in: int
    n: int
    spectrum_exponent: float = 0.0
    outlier_directions: int = 0
    outlier_gain: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.outlier_directions <= self.d_in:
            raise ValueError("outlier_directions must be in 0..d_in")
        if not 1.0 <= self.outlier_gain <= sys.float_info.max:
            raise ValueError(f"outlier_gain must be finite and >= 1, got {self.outlier_gain!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.eigenvalues()

    def eigenvalues(self) -> np.ndarray:
        """``(i+1)^-spectrum_exponent``, the top ``outlier_directions`` times ``outlier_gain``."""
        with np.errstate(over="ignore", invalid="ignore"):
            eigvals = np.arange(1, self.d_in + 1, dtype=np.float64) ** (-self.spectrum_exponent)
            eigvals[: self.outlier_directions] *= self.outlier_gain
        if not np.isfinite(eigvals).all():
            raise ValueError(f"spectrum_exponent={self.spectrum_exponent!r} and outlier_gain="
                             f"{self.outlier_gain!r} give a non-finite eigenvalue spectrum")
        return eigvals


#: Elements of scratch one chunked step holds: a generated block of rows, a
#: scanned chunk of X, a symmetrized band of the Gram matrix.
CHUNK_ELEMENTS = 1 << 16
#: The largest X'X diagonal entry ``build_hessian`` accepts without scanning X and
#: checking all of H for overflow.
DIAG_LIMIT = sys.float_info.max / 4


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def gen_calibration(spec: SynthSpec, dtype=np.float32) -> np.ndarray:
    """An (n, d_in) activation matrix whose covariance has ``spec.eigenvalues()``.

    The samples are float32 values whatever ``dtype`` holds them: with
    ``np.float64`` each is rounded to float32 and widened exactly, so a
    caller that builds H from the samples holds one float64 X, not a float32
    one and its float64 copy. They are drawn and mixed in float64 a block of
    rows at a time, straight into the result, so the float64 work holds one
    block's draw and product at a time. Each row comes out as it would from
    one draw of all n rows: the draws continue one stream, and no block holds
    a single row (unless n = 1), whose product BLAS would round differently.
    """
    rng = _rng(spec.seed)
    d = spec.d_in

    basis_seed = rng.standard_normal((d, d))
    q, r = np.linalg.qr(basis_seed)
    q *= np.sign(np.diag(r))  # canonical sign; keeps the stream deterministic

    # M satisfies M'M = Q diag(eigvals) Q', so X = Z M has the target covariance.
    mix = np.sqrt(spec.eigenvalues())[:, None] * q.T
    del basis_seed, q, r
    limit = float(np.finfo(np.float32).max)
    samples = np.empty((spec.n, d), dtype=dtype)
    starts = list(range(0, spec.n, max(2, CHUNK_ELEMENTS // d)))
    if len(starts) > 1 and spec.n - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [spec.n]):
        block = rng.standard_normal((hi - lo, d)) @ mix
        if not (-limit <= block.min() and block.max() <= limit):  # NaN fails too
            raise ValueError(f"spectrum_exponent={spec.spectrum_exponent!r} and outlier_gain="
                             f"{spec.outlier_gain!r} give samples beyond the float32 range")
        samples[lo:hi] = block.astype(np.float32, copy=False)
        del block  # so that the next block is not drawn while this one is held
    return samples


def gen_weights(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Standard-normal float32 weight matrix of shape (d_in, d_out), Philox-seeded."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    return rng.standard_normal((d_in, d_out)).astype(np.float32)


def check_hessian_settings(lambda_rel: float = 0.0, clip_fraction: float = 0.0) -> None:
    """The ranges of ``build_hessian``'s lambda_rel and ``clip_hessian_eigenvalues``'s fraction."""
    if not 0 <= lambda_rel <= sys.float_info.max:
        raise ValueError(f"lambda_rel must be finite and nonnegative, got {lambda_rel!r}")
    if not 0.0 <= clip_fraction < 1.0:
        raise ValueError("clip_fraction must be in [0, 1)")


def build_hessian(x: np.ndarray, lambda_rel: float = 0.01) -> np.ndarray:
    """The float64 matrix H = X'X + lambda*I with lambda = lambda_rel * mean(diag(X'X)).

    Accumulation is in float64 regardless of the input dtype; the result is
    forced exactly symmetric. A float64 X is used as it is, any other dtype is
    widened into one float64 copy first, so a caller that reads X as float64
    (``read_container(path, dtype=np.float64)``) holds it once. Beside X the
    build holds the Gram matrix and scratch of at most ``CHUNK_ELEMENTS``
    elements (or one row of X or H): the Gram matrix is symmetrized and
    damped in place, with the bits of ``(g + g.T) / 2`` and
    ``g + lambda * np.eye(d)``.

    X is not scanned for NaN/Inf when the Gram matrix's diagonal is finite and
    at most ``DIAG_LIMIT`` (DBL_MAX/4); a container read has already checked
    every element. That diagonal check stands for the scan and for an
    overflow check of all of H:

    * ``g[c, c]`` sums ``x[k, c]**2 >= 0``, so a NaN anywhere in column c makes
      it NaN and a +-inf makes it +inf or NaN.
    * Rounded in any order, with or without fused multiply-adds, a computed
      sum of n products is off the exact one by at most ``e_n`` times the sum
      of their magnitudes, ``e_n = n*eps / (1 - n*eps)``; underflow adds an
      absolute error no bound near overflow feels. The diagonal sums squares,
      so ``g[c, c] >= (1 - e_n) S_c`` for the exact squared column norm
      ``S_c``, and by Cauchy-Schwarz ``|g[i, j]|``, and every partial sum of
      it, is at most ``(1 + e_n) sqrt(S_i S_j)``. So ``|g[i, j]|`` is at most
      ``(1 + e_n) / (1 - e_n) * DBL_MAX/4``, below DBL_MAX/2 for any n under
      1e15: no entry overflows, and no ``g[i, j] + g[j, i]`` in
      ``_symmetrize`` does, i = j included.

    Otherwise X is scanned in row chunks (a NaN/Inf raises), and all of the
    symmetrized Gram matrix is checked: H beyond the float64 range raises
    before any damping is computed.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatchError("calibration matrix must be 2-d with d_in >= 1")
    x64 = x.astype(np.float64, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite H is caught below
        gram = x64.T @ x64
        _symmetrize(gram)  # keeps each diagonal entry, or makes it inf past DBL_MAX/2
    in_range = np.diag(gram).max() <= DIAG_LIMIT  # NaN fails too
    if not in_range:
        rows = max(1, CHUNK_ELEMENTS // x.shape[1])
        for lo in range(0, x.shape[0], rows):
            if not np.isfinite(x[lo:lo + rows]).all():
                raise ValueError("calibration matrix holds non-finite values")
    check_hessian_settings(lambda_rel=lambda_rel)
    if not in_range and not np.isfinite(gram).all():
        raise ValueError("calibration matrix X'X exceeds the float64 range")
    with np.errstate(over="ignore"):
        lam = float(lambda_rel * np.mean(np.diag(gram)))
        damped = np.diag(gram) + lam
    if not np.isfinite(damped).all():
        raise ValueError(f"lambda_rel={lambda_rel!r} overflows the damped Hessian diagonal")
    _add_damping(gram, lam)
    return gram


def _symmetrize(g: np.ndarray) -> None:
    """``g[:] = (g + g.T) / 2`` in place, one row band of the upper triangle at a time.

    Both g[i, j] and g[j, i] become ``(g[i, j] + g[j, i]) / 2``, which is
    what ``(g + g.T) / 2`` holds at each, since IEEE addition commutes; a sum
    that overflows becomes inf as it does there. A band reads only rows and
    columns at or past its first row, which no earlier band wrote.
    """
    d = g.shape[0]
    rows = max(1, CHUNK_ELEMENTS // d)
    for lo in range(0, d, rows):
        hi = min(lo + rows, d)
        band = g[lo:hi, lo:] + g[lo:, lo:hi].T
        band /= 2.0
        g[lo:hi, lo:] = band
        g[lo:, lo:hi] = band.T
        del band  # so that the next band is not made while this one is held


def _add_damping(g: np.ndarray, lam: float) -> None:
    """``g[:] = g + lam * np.eye(d)`` in place for a finite lam >= 0; nothing for lam = 0.

    Off the diagonal ``lam * 0`` is +0.0, so every entry first gets 0.0 added
    (which turns -0.0 into +0.0), then the diagonal gets lam.
    """
    if lam:
        g += 0.0
        g[np.diag_indices_from(g)] += lam


def clip_hessian_eigenvalues(hessian: np.ndarray, clip_fraction: float) -> np.ndarray:
    """Flatten the top ceil(rho*d) eigenvalues down to the next one.

    Eigenvectors are preserved, the output is re-symmetrized, and clipping is
    idempotent: the flattened eigenvalues tie with the threshold, so a second
    pass with the same fraction changes nothing.
    """
    check_hessian_settings(clip_fraction=clip_fraction)
    d = hessian.shape[0]
    m = math.ceil(clip_fraction * d)
    if m == 0:
        return hessian.copy()
    if m >= d:
        raise ValueError(f"cannot clip {m} of {d} eigenvalues: nothing left to clip against")

    eigvals, eigvecs = np.linalg.eigh(hessian)  # ascending
    threshold = eigvals[d - m - 1]
    clipped = eigvals.copy()
    clipped[d - m:] = threshold
    out = (eigvecs * clipped) @ eigvecs.T
    return (out + out.T) / 2.0
