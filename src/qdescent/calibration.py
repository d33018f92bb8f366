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
from dataclasses import dataclass, asdict

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand dimensions do not agree."""


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic activation generator (flat-JSON serializable)."""

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

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SynthSpec":
        return cls(**obj)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def gen_calibration(spec: SynthSpec) -> np.ndarray:
    """Generate an (n, d_in) float32 activation matrix from a SynthSpec.

    Covariance eigenvalues decay as ``(i+1)^-spectrum_exponent`` with the top
    ``outlier_directions`` eigenvalues multiplied by ``outlier_gain``.
    """
    rng = _rng(spec.seed)
    d = spec.d_in

    with np.errstate(over="ignore", invalid="ignore"):
        eigvals = np.arange(1, d + 1, dtype=np.float64) ** (-spec.spectrum_exponent)
        if spec.outlier_directions:
            eigvals[: spec.outlier_directions] *= spec.outlier_gain
    if not np.isfinite(eigvals).all():
        raise ValueError(f"spectrum_exponent={spec.spectrum_exponent!r} and outlier_gain="
                         f"{spec.outlier_gain!r} give a non-finite eigenvalue spectrum")

    basis_seed = rng.standard_normal((d, d))
    q, r = np.linalg.qr(basis_seed)
    q *= np.sign(np.diag(r))  # canonical sign; keeps the stream deterministic

    # M satisfies M'M = Q diag(eigvals) Q', so X = Z M has the target covariance.
    mix = np.sqrt(eigvals)[:, None] * q.T
    samples = rng.standard_normal((spec.n, d)) @ mix
    limit = float(np.finfo(np.float32).max)
    if not (-limit <= samples.min() and samples.max() <= limit):  # NaN fails too
        raise ValueError(f"spectrum_exponent={spec.spectrum_exponent!r} and outlier_gain="
                         f"{spec.outlier_gain!r} give samples beyond the float32 range")
    return samples.astype(np.float32)


def gen_weights(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Standard-normal float32 weight matrix of shape (d_in, d_out), Philox-seeded."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    return rng.standard_normal((d_in, d_out)).astype(np.float32)


def build_hessian(x: np.ndarray, lambda_rel: float = 0.01) -> np.ndarray:
    """The float64 matrix H = X'X + lambda*I with lambda = lambda_rel * mean(diag(X'X)).

    Accumulation is in float64 regardless of the input dtype; the result is
    forced exactly symmetric.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatchError("calibration matrix must be 2-d with d_in >= 1")
    if x.size and not np.isfinite(x).all():
        raise ValueError("calibration matrix holds non-finite values")
    if not 0 <= lambda_rel <= sys.float_info.max:
        raise ValueError(f"lambda_rel must be finite and nonnegative, got {lambda_rel!r}")

    x64 = x.astype(np.float64, copy=False)
    gram = x64.T @ x64
    gram = (gram + gram.T) / 2.0
    with np.errstate(over="ignore"):
        lam = float(lambda_rel * np.mean(np.diag(gram)))
        damped = np.diag(gram) + lam
    if not np.isfinite(damped).all():
        raise ValueError(f"lambda_rel={lambda_rel!r} overflows the damped Hessian diagonal")
    if lam:
        gram = gram + lam * np.eye(gram.shape[0])
    return gram


def clip_hessian_eigenvalues(hessian: np.ndarray, clip_fraction: float) -> np.ndarray:
    """Flatten the top ceil(rho*d) eigenvalues down to the next one.

    Eigenvectors are preserved, the output is re-symmetrized, and clipping is
    idempotent: the flattened eigenvalues tie with the threshold, so a second
    pass with the same fraction changes nothing.
    """
    if not 0.0 <= clip_fraction < 1.0:
        raise ValueError("clip_fraction must be in [0, 1)")
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
