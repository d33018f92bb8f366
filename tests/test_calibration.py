"""Synthetic generator, Hessian accumulation, and eigenvalue clipping."""

import math
import sys

import numpy as np
import pytest

from qdescent import calibration
from qdescent.calibration import (SynthSpec, build_hessian, clip_hessian_eigenvalues,
                                  gen_calibration, gen_weights)

F32_MAX = float(np.finfo(np.float32).max)


def _whole_matrix_samples(spec):
    """The float64 samples as ``gen_calibration`` drew them before it drew in
    row blocks: all n rows in one draw, mixed in one product."""
    rng = calibration._rng(spec.seed)
    d = spec.d_in
    basis_seed = rng.standard_normal((d, d))
    q, r = np.linalg.qr(basis_seed)
    q *= np.sign(np.diag(r))
    mix = np.sqrt(spec.eigenvalues())[:, None] * q.T
    return rng.standard_normal((spec.n, d)) @ mix


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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


@pytest.mark.parametrize("d_in,n,chunk", [
    (16, 1, 32),            # n = 1: the one block holds one row
    (16, 37, 48),           # 3-row blocks; a trailing row joins the last block
    (16, 100, 7 * 16),      # 7-row blocks, 100 = 14 * 7 + 2
    (64, 300, 64 * 64),     # 64-row blocks, 300 = 4 * 64 + 44
    (64, 300, None),        # the default: one block
    (1024, 5, 2048),        # 2-row blocks at d_in = 1024
])
def test_gen_in_row_blocks_equals_the_whole_matrix_draw(monkeypatch, d_in, n, chunk):
    if chunk is not None:
        monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", chunk)
    spec = SynthSpec(d_in=d_in, n=n, spectrum_exponent=1.0, outlier_directions=1,
                     outlier_gain=50.0, seed=41)
    whole = _whole_matrix_samples(spec).astype(np.float32)
    assert gen_calibration(spec).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7])
def test_gen_draws_no_one_row_block_unless_n_is_one(monkeypatch, n):
    monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", 2 * 8)  # 2-row blocks at d_in = 8
    rows = []
    make_rng = calibration._rng

    class Recording:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def standard_normal(self, shape):
            rows.append(shape[0])
            return self.rng.standard_normal(shape)

    monkeypatch.setattr(calibration, "_rng", Recording)
    gen_calibration(SynthSpec(d_in=8, n=n, seed=3))
    blocks = rows[1:]  # the first draw seeds the basis
    assert sum(blocks) == n and (n == 1 or min(blocks) >= 2), blocks


def test_gen_range_error_from_a_late_block(monkeypatch):
    monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", 4 * 8)  # 16 blocks of 4 rows
    base = SynthSpec(d_in=8, n=64, outlier_directions=1, outlier_gain=1e70, seed=1)
    block_max = np.abs(_whole_matrix_samples(base)).max(axis=1).reshape(16, 4).max(axis=1)
    late = int(np.argmax(block_max))
    earlier = block_max[:late].max()
    assert late > 0 and block_max[late] > 1.5 * earlier
    # Samples scale with the square root of the outlier gain: put the float32
    # limit between the earlier blocks' largest sample and the late block's.
    spec = SynthSpec(d_in=8, n=64, outlier_directions=1, seed=1,
                     outlier_gain=1e70 * F32_MAX ** 2 / (block_max[late] * earlier))
    samples = _whole_matrix_samples(spec)
    assert np.abs(samples[:4 * late]).max() <= F32_MAX < np.abs(samples[4 * late:]).max()
    with pytest.raises(ValueError, match="float32 range"):
        gen_calibration(spec)


@pytest.mark.parametrize("n", [1, 5, 1001])
def test_gen_float64_holds_the_float32_samples(monkeypatch, n):
    monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", 7 * 16)
    spec = SynthSpec(d_in=16, n=n, spectrum_exponent=1.0, outlier_directions=2,
                     outlier_gain=50.0, seed=3)
    wide = gen_calibration(spec, np.float64)
    assert wide.dtype == np.float64 and wide.shape == (n, 16)
    assert (_bits(wide) == _bits(gen_calibration(spec).astype(np.float64))).all()


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


@pytest.mark.parametrize("row", [0, 4, 8])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hessian_rejects_non_finite_in_any_scan_chunk(monkeypatch, row, bad):
    monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", 2 * 4)  # 2-row chunks
    x = np.ones((9, 4), dtype=np.float32)
    x[row, 1] = bad
    with pytest.raises(ValueError, match="calibration matrix holds non-finite values"):
        build_hessian(x, 0.01)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hessian_rejects_non_finite_in_any_column_and_row(dtype, where, bad):
    # No scan stands before X'X: the NaN or inf reaches H's diagonal and sends
    # the build to the scan, whose message it keeps.
    rng = np.random.default_rng(3)
    for row, col in ((where, 2), (4, where)):
        x = rng.standard_normal((7, 7)).astype(dtype)
        x[row, col] = bad
        with pytest.raises(ValueError, match="^calibration matrix holds non-finite values$"):
            build_hessian(x, 0.01)


def test_hessian_error_precedence():
    bad_x = np.array([[np.nan, 1.0]])
    huge_x = np.full((4, 8), 6e153)  # finite, but X'X's symmetrized diagonal overflows
    huge_x[::2, ::3] *= -1.0
    with pytest.raises(ValueError, match="non-finite values"):
        build_hessian(bad_x, -1.0)
    with pytest.raises(ValueError, match="lambda_rel must be finite"):
        build_hessian(np.ones((2, 2)), -1.0)
    with pytest.raises(ValueError, match="lambda_rel must be finite"):
        build_hessian(huge_x, -1.0)
    for lambda_rel in (0.0, 0.01):  # warnings are errors here, so none is raised
        with pytest.raises(ValueError, match="^calibration matrix X'X exceeds the float64 range$"):
            build_hessian(huge_x, lambda_rel)
    with pytest.raises(ValueError, match="lambda_rel=1e\\+308 overflows the damped"):
        build_hessian(np.ones((2, 2)), 1e308)


@pytest.mark.parametrize("lambda_rel", [0.0, 0.01])
def test_hessian_accepts_a_diagonal_above_the_limit_that_does_not_overflow(lambda_rel):
    big = math.sqrt(0.2 * sys.float_info.max)
    x = np.array([[big, -big], [big, 0.5 * big], [0.25 * big, big]])
    diag = np.diag(x.T @ x)
    assert (diag > calibration.DIAG_LIMIT).all() and (diag < sys.float_info.max / 2).all()
    h = build_hessian(x, lambda_rel)
    assert np.isfinite(h).all()
    assert (_bits(h) == _bits(_reference_build_hessian(x, lambda_rel))).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hessian_checks_o_of_d_in_elements_on_a_finite_x(monkeypatch, dtype):
    # The diagonal stands for a scan of X: np.isfinite sees at most a few d_in
    # elements, where a scan would hand it all n * d_in of them.
    n, d = 500, 20
    seen = []
    isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        seen.append(np.size(a))
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    x = np.random.default_rng(5).standard_normal((n, d)).astype(dtype)
    build_hessian(x, 0.01)
    assert sum(seen) <= 4 * d, seen


def _reference_build_hessian(x, lambda_rel):
    """``build_hessian`` as it was before it worked in place."""
    x64 = np.asarray(x).astype(np.float64, copy=False)
    gram = x64.T @ x64
    gram = (gram + gram.T) / 2.0
    lam = float(lambda_rel * np.mean(np.diag(gram)))
    if lam:
        gram = gram + lam * np.eye(gram.shape[0])
    return gram


@pytest.mark.parametrize("chunk", [None, 3 * 37, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lambda_rel", [0.0, 0.01])
def test_hessian_bits_equal_the_whole_matrix_build(monkeypatch, chunk, dtype, lambda_rel):
    if chunk is not None:
        monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", chunk)
    rng = np.random.default_rng(8)
    for n, d in ((1, 1), (3, 7), (200, 37), (40, 90)):
        x = rng.standard_normal((n, d)).astype(dtype)
        x[:, d // 2] = 0.0  # a zero row and column of X'X
        h = build_hessian(x, lambda_rel)
        assert h.dtype == np.float64 and h.flags.c_contiguous
        assert (_bits(h) == _bits(_reference_build_hessian(x, lambda_rel))).all()


def _unsymmetric_matrices():
    """Matrices X'X never is: not symmetric, non-finite, -0.0, and sums that overflow."""
    rng = np.random.default_rng(4)
    plain = rng.standard_normal((10, 10))
    special = plain.copy()
    special[1, 4] = special[3, 3] = np.nan
    special[6, 2], special[2, 6] = np.inf, -np.inf  # their sum is NaN
    special[8, 0], special[5, 9] = -np.inf, np.inf
    zeros = plain.copy()
    zeros[2, 5] = zeros[5, 2] = zeros[4, 4] = -0.0
    zeros[7, 1], zeros[1, 7] = -0.0, 0.0
    huge = plain * 1e300
    huge[0, 9] = huge[9, 0] = huge[3, 3] = 0.6 * sys.float_info.max
    huge[5, 6] = huge[6, 5] = -0.7 * sys.float_info.max
    return {"plain": plain, "special": special, "zeros": zeros, "huge": huge}


@pytest.mark.parametrize("band_rows", [1, 3, 4, 10])
@pytest.mark.parametrize("case", ["plain", "special", "zeros", "huge"])
def test_symmetrize_in_place_has_the_bits_of_the_whole_matrix_mean(monkeypatch, band_rows, case):
    monkeypatch.setattr(calibration, "CHUNK_ELEMENTS", band_rows * 10)
    g = _unsymmetric_matrices()[case]
    with np.errstate(all="ignore"):
        expected = (g + g.T) / 2.0
        calibration._symmetrize(g)
    assert (_bits(g) == _bits(expected)).all()
    if case == "huge":  # the overflowing sums are reached, on and off the diagonal
        assert np.isposinf(g[0, 9]) and np.isposinf(g[3, 3]) and np.isneginf(g[6, 5])
    if case == "zeros":
        assert np.signbit(g[2, 5]) and np.signbit(g[4, 4]) and not np.signbit(g[7, 1])


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("case", ["plain", "special", "zeros", "huge"])
def test_damping_in_place_has_the_bits_of_adding_lambda_eye(case, lam):
    g = _unsymmetric_matrices()[case]
    expected = g + lam * np.eye(10) if lam else g.copy()
    calibration._add_damping(g, lam)
    assert (_bits(g) == _bits(expected)).all()
    if case == "zeros":  # -0.0 stays at lam = 0, and becomes +0.0 off the diagonal otherwise
        assert np.signbit(g[2, 5]) == (lam == 0)


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
