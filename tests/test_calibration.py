"""Synthetic generator, Hessian accumulation, and eigenvalue clipping."""

import numpy as np
import pytest

from qdescent.calibration import (SynthSpec, build_hessian, clip_hessian_eigenvalues,
                                  gen_calibration, gen_weights)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(d_in=0, n=10)
    with pytest.raises(ValueError):
        SynthSpec(d_in=4, n=0)
    with pytest.raises(ValueError):
        SynthSpec(d_in=4, n=10, outlier_directions=5)
    with pytest.raises(ValueError):
        SynthSpec(d_in=4, n=10, outlier_gain=0.5)


def test_gen_deterministic():
    spec = SynthSpec(d_in=6, n=100, seed=7)
    a = gen_calibration(spec)
    b = gen_calibration(spec)
    assert a.dtype == np.float32
    assert a.tobytes() == b.tobytes()


def test_gen_isotropic_correlations_small():
    x = gen_calibration(SynthSpec(d_in=4, n=1000, spectrum_exponent=0.0,
                                  outlier_directions=0, seed=7)).astype(np.float64)
    corr = np.corrcoef(x, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.15


def test_gen_outlier_dominance():
    x = gen_calibration(SynthSpec(d_in=4, n=1000, outlier_directions=1,
                                  outlier_gain=100.0, seed=3))
    h = build_hessian(x, 0.0)
    eig = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert eig[0] >= 20.0 * eig[1]


@pytest.mark.filterwarnings("error")
def test_gen_rejects_samples_beyond_float32():
    spec = SynthSpec(d_in=8, n=16, outlier_directions=1, outlier_gain=1e300)
    with pytest.raises(ValueError, match="float32 range"):
        gen_calibration(spec)
    # A gain whose samples fit in float32 still generates.
    x = gen_calibration(SynthSpec(d_in=8, n=16, outlier_directions=1, outlier_gain=1e60))
    assert x.dtype == np.float32 and np.isfinite(x).all()


def test_gen_weights_deterministic():
    a = gen_weights(8, 3, seed=5)
    b = gen_weights(8, 3, seed=5)
    assert a.shape == (8, 3) and a.dtype == np.float32
    assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# build_hessian


def test_hessian_identity_inputs():
    x = np.eye(2, dtype=np.float32)
    h = build_hessian(x, 0.0)
    np.testing.assert_allclose(h, np.eye(2))
    lam = 0.0 * np.mean(np.diag(x.T @ x))
    np.testing.assert_array_equal(h, x.T @ x + lam * np.eye(2))


def test_hessian_rank_one():
    h = build_hessian(np.array([[1.0, 1.0]]), 0.0)
    np.testing.assert_allclose(h, np.ones((2, 2)))


def test_hessian_damping_formula():
    x = np.eye(2)
    h = build_hessian(x, 0.01)
    np.testing.assert_allclose(h, 1.01 * np.eye(2))
    lam = 0.01 * np.mean(np.diag(x.T @ x))
    assert lam == pytest.approx(0.01)
    np.testing.assert_allclose(h - x.T @ x, lam * np.eye(2))


def test_hessian_matches_explicit_product():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal((30, 7))
        h = build_hessian(x, 0.0)
        ref = x.T @ x
        err = np.linalg.norm(h - ref) / np.linalg.norm(ref)
        assert err < 1e-10
        np.testing.assert_array_equal(h, h.T)


def test_hessian_damped_is_positive_definite():
    rng = np.random.default_rng(2)
    for i in range(100):
        d = int(rng.integers(2, 10))
        x = rng.standard_normal((max(1, d // 2), d))  # rank-deficient without damping
        h = build_hessian(x, 0.01)
        np.linalg.cholesky(h)  # raises LinAlgError on a zero pivot
        lam = 0.01 * np.mean(np.diag(x.T @ x))
        assert np.linalg.eigvalsh(h).min() >= lam * (1 - 1e-9)


def test_hessian_rejects_nan():
    with pytest.raises(ValueError):
        build_hessian(np.array([[np.nan, 1.0]]), 0.0)


def test_hessian_psd_probe_vectors():
    rng = np.random.default_rng(6)
    for seed in range(20):
        x = rng.standard_normal((5, 9))  # rank deficient, undamped
        h = build_hessian(x, 0.0)
        eps = 1e-8 * np.trace(h)
        for _ in range(20):
            v = rng.standard_normal(9)
            assert v @ h @ v >= -eps * (v @ v)


# ---------------------------------------------------------------------------
# eigenvalue clipping


def test_clip_diag_forced_example():
    h = np.diag([100.0, 1.0, 1.0])
    clipped = clip_hessian_eigenvalues(h, 1 / 3)  # m = 1
    np.testing.assert_allclose(clipped, np.eye(3), atol=1e-12)


def test_clip_identity_noop():
    h = np.eye(5)
    for rho in (0.0, 0.2, 0.5, 0.8):  # m = ceil(rho*5) must stay below d
        clipped = clip_hessian_eigenvalues(h, rho)
        np.testing.assert_allclose(clipped, np.eye(5), atol=1e-12)


def _random_psd(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * d, d))
    return build_hessian(x, 0.01)


def test_clip_max_eig_matches_third_largest():
    h = _random_psd(8, 4)
    eig_in = np.sort(np.linalg.eigvalsh(h))[::-1]
    clipped = clip_hessian_eigenvalues(h, 2 / 8)  # m = 2
    eig_out = np.sort(np.linalg.eigvalsh(clipped))[::-1]
    assert abs(eig_out.max() - eig_in[2]) < 1e-9 * max(1.0, eig_in[2])
    np.testing.assert_array_equal(clipped, clipped.T)
    assert eig_out.min() >= -1e-8 * np.trace(h)


def test_clip_idempotent():
    h = _random_psd(10, 9)
    once = clip_hessian_eigenvalues(h, 0.3)
    twice = clip_hessian_eigenvalues(once, 0.3)
    assert np.abs(twice - once).max() < 1e-9


def test_clip_monotone_quadratic_forms():
    h = _random_psd(12, 1)
    clipped = clip_hessian_eigenvalues(h, 0.25)
    rng = np.random.default_rng(0)
    slack = 1e-9 * np.trace(h)
    for _ in range(50):
        x = rng.standard_normal(12)
        assert x @ clipped @ x <= x @ h @ x + slack * (x @ x)


def test_clip_errors():
    h = _random_psd(4, 0)
    with pytest.raises(ValueError):
        clip_hessian_eigenvalues(h, 1.0)
    with pytest.raises(ValueError):
        clip_hessian_eigenvalues(h, -0.1)
    with pytest.raises(ValueError, match="nothing left"):
        clip_hessian_eigenvalues(h, 0.99)  # m = ceil(3.96) = 4 = d


def test_clip_preserves_eigenvectors():
    # Eigenbasis check: clip in a known basis and compare reconstructions.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    vals = np.array([50.0, 10.0, 3.0, 2.0, 1.0])
    h = (q * vals) @ q.T
    clipped = clip_hessian_eigenvalues(h, 1 / 5)
    expected = (q * np.array([10.0, 10.0, 3.0, 2.0, 1.0])) @ q.T
    np.testing.assert_allclose(clipped, expected, atol=1e-9)
