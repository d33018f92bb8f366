"""Differential tests of the batched clip-strength score and its rounding screen.

``quantcore._best_clips`` scores every candidate of a clip-strength search in
one batched product and keeps the per-candidate loop's argmin exactly. The
per-channel search and ``owc_group_init`` must match verbatim copies of the
loops they replaced (``reference_*`` below) bit for bit; the screen's bound
must hold against the loop's scores and the exact value, and so must
``owc_cd``'s widening of it against the einsum's; and candidates the
screen cannot separate (duplicates, exact ties computed in different
orders, near-ties) must be re-scored by the loop's own expression.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qdescent import quantcore
from qdescent.calibration import ShapeMismatchError, build_hessian
from qdescent.groupquant import _change_bound, _check_grouping, _diag_blocks, owc_group_init
from qdescent.quantcore import (_affine_table, _best_clips, _clip_screen, default_gamma_grid,
                                owc_quantize)

from conftest import QuantParams, as_params


def reference_best_clip(resid: np.ndarray, hmat: np.ndarray) -> int:
    """Index of the candidate residual row with the lowest ``e' H e``; ties go to
    the last index, which on an ascending grid is the larger clip strength."""
    scores = np.empty(resid.shape[0])
    for k, err in enumerate(resid):
        scores[k] = err @ (hmat @ err)
    return int(np.flatnonzero(scores == scores.min()).max())


def reference_owc_search(w: np.ndarray, hmat: np.ndarray, bits: int, grid_size: int):
    """Grid search over clip strengths {j/grid_size}, ties toward larger gamma."""
    grid = default_gamma_grid(grid_size)
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    table = _affine_table(w[None, :], bits, grid)
    best = reference_best_clip(table.resid[0], hmat) if table.live[0] else 0
    return as_params(table.pick(np.array([best])), bits)[0], table.codes[0, best].copy()


def reference_owc_group_init(w: np.ndarray, hessian: np.ndarray, bits: int, group_size: int,
                             grid_size: int = 50) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """Per-group clip-strength grid search against the group's own H block.

    Cross-group coupling is ignored here (block-diagonal approximation);
    the clip-strength coordinate descent below is what accounts for it.
    """
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    if hessian.shape[0] != w.shape[0]:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")
    table = _affine_table(w.reshape(n_groups, group_size), bits, default_gamma_grid(grid_size))
    bests, codes = np.zeros(n_groups, dtype=np.intp), np.empty(w.shape[0], dtype=np.uint8)
    for i in range(n_groups):
        sl = slice(i * group_size, (i + 1) * group_size)
        best = reference_best_clip(table.resid[i], hessian[sl, sl]) if table.live[i] else 0
        bests[i] = best
        codes[sl] = table.codes[i, best]
    return as_params(table.pick(bests), bits), codes


@pytest.fixture
def loop_calls(monkeypatch):
    """Records the number of candidates of every call of the loop fallback."""
    calls = []
    loop = quantcore._loop_argmin

    def counted(resid, hmat, ks):
        calls.append(len(ks))
        return loop(resid, hmat, ks)

    monkeypatch.setattr(quantcore, "_loop_argmin", counted)
    return calls


def calib_hessian(d: int, seed: int) -> np.ndarray:
    return build_hessian(np.random.default_rng(seed).standard_normal((2 * d, d)), 0.01)


def spectrum_hessian(d: int, seed: int, eigs: np.ndarray) -> np.ndarray:
    """Q diag(eigs) Q' for a random orthogonal Q; not bitwise symmetric."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return (q * eigs) @ q.T


HESSIANS = {
    "calib": calib_hessian,
    "ill-conditioned": lambda d, seed: spectrum_hessian(d, seed, np.logspace(-14, 2, d)),
    "indefinite": lambda d, seed: spectrum_hessian(
        d, seed, np.random.default_rng(seed + 1).standard_normal(d)),
}


@pytest.fixture(scope="module")
def h1024() -> np.ndarray:
    return calib_hessian(1024, 0)


def assert_same_params(got, ref):
    assert (got.scale, got.bias, got.bits, got.gamma) == (ref.scale, ref.bias, ref.bits, ref.gamma)


@pytest.mark.parametrize("grid_size", [1, 8, 50])
@pytest.mark.parametrize("bits", range(1, 9))
def test_owc_search_matches_loop(bits, grid_size, h1024, loop_calls):
    rng = np.random.default_rng(100 * bits + grid_size)
    for d in (2, 16, 256, 1024):
        hmat = h1024[:d, :d]
        for _ in range(2):
            w = rng.standard_normal(d) * rng.choice([1e-3, 1.0, 30.0])
            fit = owc_quantize(w, hmat, bits, grid_size)
            (p,), q = as_params(fit, bits), fit[3]
            ref_p, ref_q = reference_owc_search(w, hmat, bits, grid_size)
            assert_same_params(p, ref_p)
            assert np.array_equal(q, ref_q)
    assert loop_calls == []  # one survivor in every search: the loop never runs


@pytest.mark.parametrize("kind", sorted(HESSIANS))
def test_owc_search_matches_loop_on_hard_hessians(kind, loop_calls):
    for d, seed in ((8, 1), (64, 2), (512, 3)):
        hmat = HESSIANS[kind](d, seed)
        w = np.random.default_rng(seed).standard_normal(d)
        for bits in (2, 4, 8):
            fit = owc_quantize(w, hmat, bits, 50)
            (p,), q = as_params(fit, bits), fit[3]
            ref_p, ref_q = reference_owc_search(w, hmat, bits, 50)
            assert_same_params(p, ref_p)
            assert np.array_equal(q, ref_q)


@pytest.mark.parametrize("grid_size", [1, 8, 50])
@pytest.mark.parametrize("bits", range(1, 9))
def test_owc_group_init_matches_loop(bits, grid_size, h1024, loop_calls):
    rng = np.random.default_rng(10 * bits + grid_size)
    for d, g in ((1024, 32), (1024, 128), (256, 4), (96, 1), (12, 12)):
        hessian = h1024[:d, :d]
        w = rng.standard_normal(d)
        w[:g] = 0.5  # a constant group: scale 0, codes 0, never scored
        if d // g > 2:
            w[2 * g:3 * g] = -1.25
        table, picks = owc_group_init(w, hessian, bits, g, grid_size)
        fit = table.pick(picks)
        params, codes = as_params(fit, bits), fit[3]
        ref_params, ref_codes = reference_owc_group_init(w, hessian, bits, g, grid_size)
        assert len(params) == len(ref_params) == d // g
        for p, ref_p in zip(params, ref_params, strict=True):
            assert_same_params(p, ref_p)
        assert np.array_equal(codes, ref_codes)
        assert codes.dtype == ref_codes.dtype
    # g = 1 groups are constant, and every other group has one survivor.
    assert loop_calls == []


def test_all_groups_constant_returns_first_index():
    w = np.full(64, 0.75)
    table, picks = owc_group_init(w, calib_hessian(64, 1), 3, 16)
    fit = table.pick(picks)
    params, codes = as_params(fit, 3), fit[3]
    ref_params, ref_codes = reference_owc_group_init(w, calib_hessian(64, 1), 3, 16)
    assert params == ref_params and np.array_equal(codes, ref_codes)
    assert all(p.scale == 0.0 and p.gamma == 1.0 for p in params)


def _fixed(x: float) -> int:
    """x * 2^1074 as an exact integer: every finite double is a multiple of 2^-1074."""
    num, den = float(x).as_integer_ratio()
    return num * (2 ** 1074 // den)


def exact_score(e: np.ndarray, h: np.ndarray) -> Fraction:
    fe = [_fixed(x) for x in e]
    fh = [[_fixed(x) for x in row] for row in h]
    total = sum(fe[i] * sum(fh[i][j] * fe[j] for j in range(len(fe))) for i in range(len(fe)))
    return Fraction(total, 2 ** (3 * 1074))


def gamma(m: int) -> Fraction:
    """gamma_m = m u / (1 - m u), u = 2^-53, exactly."""
    mu = Fraction(m, 2 ** 53)
    return mu / (1 - mu)


#: The reference scores that the batched score is screened against: the grid
#: search's loop and ``owc_cd``'s einsum, each with the bound it is screened by
#: (``_clip_screen``'s b, or ``owc_cd``'s widened bound at a zero linear term)
#: and its rounding error in any summation order, per unit of |e|'|H||e|.
SCREEN_REFERENCES = {
    "loop": (lambda e, h: e @ (h @ e), lambda s, b, g: b,
             lambda g: Fraction(201, 100) * gamma(g)),
    "einsum": (lambda e, h: np.einsum("nvg,ngh,nvh->nv", e[None, None], h[None],
                                      e[None, None])[0, 0],
               lambda s, b, g: _change_bound(s, b, np.zeros_like(s), g),
               lambda g: gamma(g * g + 2)),
}


@pytest.mark.parametrize("reference,kind", [
    pytest.param(ref, kind, id=kind if ref == "loop" else f"{ref}-{kind}")
    for ref in sorted(SCREEN_REFERENCES) for kind in sorted(HESSIANS)])
def test_screen_bound_holds(reference, kind):
    # Small g: the batched score lies within half the bound of the exact value,
    # the reference's score within the rest of it, and both scores' rounding in
    # any summation order within 0.672 of it. Large g: the two scores are within
    # the bound of each other.
    score, bound_for, model = SCREEN_REFERENCES[reference]
    for d, seed, exact in ((12, 5, True), (24, 6, True), (1024, 7, False)):
        hmat = HESSIANS[kind](d, seed)
        w = np.random.default_rng(seed).standard_normal(d)
        table = _affine_table(w[None, :], 3, default_gamma_grid(50))
        scores, bounds = _clip_screen(table.resid, hmat[None])
        assert np.isfinite(bounds).all()
        assert (bounds > 0).all() and (bounds <= 1e-9 * np.abs(scores).max()).all()
        allowed = bound_for(scores, bounds, d)
        slack = [Fraction(x) for x in allowed[0]]
        for k, err in enumerate(table.resid[0]):
            ref = score(err, hmat)
            assert abs(scores[0, k] - ref) <= allowed[0, k]
            if exact:
                true = exact_score(err, hmat)
                assert abs(Fraction(scores[0, k]) - true) <= Fraction(bounds[0, k]) / 2
                assert abs(Fraction(ref) - true) <= slack[k] - Fraction(bounds[0, k]) / 2
                worst = (Fraction(201, 100) * gamma(d) + model(d)) * exact_score(np.abs(err),
                                                                                 np.abs(hmat))
                assert worst <= Fraction(672, 1000) * slack[k]


def test_zero_residual_row_gets_no_slack(h1024):
    # A row of exact zeros scores an exact 0 in every summation order, so its
    # bound is 0; a nonzero row whose squares underflow keeps the underflow
    # allowance, and a group out of range keeps inf for every row.
    w = np.random.default_rng(9).standard_normal(1024)
    resid = _affine_table(w.reshape(32, 32), 4, default_gamma_grid(50)).resid.copy()
    resid[:, 3] = 0.0
    resid[:, 5] = 0.0
    resid[:, 5, 7] = 2.0 ** -600
    blocks = _diag_blocks(h1024, 32, 32)
    blocks[0] = 0.0
    scores, bounds = _clip_screen(resid, blocks)
    assert np.isinf(bounds[0]).all()
    assert (scores[1:, 3] == 0.0).all() and (bounds[1:, 3] == 0.0).all()
    assert (bounds[1:, 5] > 0.0).all() and np.isfinite(bounds[1:]).all()


def test_screen_bound_holds_per_group(h1024):
    w = np.random.default_rng(8).standard_normal(1024)
    table = _affine_table(w.reshape(32, 32), 4, default_gamma_grid(50))
    blocks = _diag_blocks(h1024, 32, 32)
    scores, bounds = _clip_screen(table.resid, blocks)
    assert np.isfinite(bounds).all()
    for i in range(32):
        view = h1024[32 * i:32 * (i + 1), 32 * i:32 * (i + 1)]
        loop = np.array([err @ (view @ err) for err in table.resid[i]])
        assert (np.abs(scores[i] - loop) <= bounds[i]).all()


def channel_table(d: int, seed: int, bits: int = 4):
    w = np.random.default_rng(seed).standard_normal(d)
    return _affine_table(w[None, :], bits, default_gamma_grid(50))


def involution_hessian(d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """H and an involution p with H[p][:, p] == H bitwise, so e and e[p] tie exactly."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    p = np.arange(d)[::-1].copy()
    h = a @ a.T / d
    h = h + h[p][:, p]
    assert np.array_equal(h[p][:, p], h)
    return h, p


def test_duplicate_rows_tie_to_larger_gamma(loop_calls):
    hmat = calib_hessian(128, 9)
    table = channel_table(128, 9)
    best = reference_best_clip(table.resid[0], hmat)
    for other in (0, best // 2, 49):
        if other == best:
            continue
        resid = table.resid.copy()
        resid[0, other] = resid[0, best]
        forced = replace(table, resid=resid)
        got = int(_best_clips(forced, hmat[None])[0])
        assert got == reference_best_clip(resid[0], hmat) == max(other, best)
    assert loop_calls and all(n >= 2 for n in loop_calls)


def test_exact_ties_in_different_order_are_rescored(loop_calls):
    # e and e[p] have the same exact score under an H with H[p][:, p] == H, but
    # the two are summed in different orders, so their rounded scores can
    # differ and order differently in the batched product than in the loop.
    picks = set()
    for seed in range(40):
        d = 64 + seed
        hmat, p = involution_hessian(d, seed)
        table = channel_table(d, seed)
        resid = table.resid.copy()
        k = reference_best_clip(resid[0], hmat)
        j = (k + 1 + seed % 49) % 50
        resid[0, j] = resid[0, k][p]
        ref = reference_best_clip(resid[0], hmat)
        got = int(_best_clips(replace(table, resid=resid), hmat[None])[0])
        assert got == ref
        picks.add(ref == max(j, k))
    assert picks == {True, False}  # the loop's rounding, not the index, decided some ties
    assert len(loop_calls) == 40


def test_near_ties_are_rescored(loop_calls):
    for seed in range(40):
        hmat = calib_hessian(96, seed)
        table = channel_table(96, seed, bits=3)
        resid = table.resid.copy()
        k = reference_best_clip(resid[0], hmat)
        j = (k + 7) % 50
        resid[0, j] = resid[0, k]
        resid[0, j, seed % 96] = np.nextafter(resid[0, k, seed % 96], np.inf * (-1) ** seed)
        ref = reference_best_clip(resid[0], hmat)
        got = int(_best_clips(replace(table, resid=resid), hmat[None])[0])
        assert got == ref
    assert len(loop_calls) == 40 and all(n >= 2 for n in loop_calls)


def test_forced_ties_per_group(loop_calls):
    hmat, p = involution_hessian(64, 3)
    w = np.random.default_rng(3).standard_normal(64)
    table = _affine_table(w.reshape(4, 16), 3, default_gamma_grid(50))
    resid = table.resid.copy()
    views = [hmat[16 * i:16 * (i + 1), 16 * i:16 * (i + 1)] for i in range(4)]
    for i in range(4):
        k = reference_best_clip(resid[i], views[i])
        resid[i, (k + 1 + i) % 50] = resid[i, k]
    forced = replace(table, resid=resid)
    got = _best_clips(forced, _diag_blocks(hmat, 4, 16))
    assert list(got) == [reference_best_clip(resid[i], views[i]) for i in range(4)]
    assert len(loop_calls) == 4


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("factor", [1e306, 1e-150, 0.0])
def test_out_of_range_hessian_runs_the_loop(factor, loop_calls):
    # 1e306: some scores overflow to inf (a diagonal H, so no inf - inf);
    # 1e-150: ||H||_F below 2^-450; 0: every candidate ties.
    hmat = calib_hessian(32, 4)
    hmat = (np.diag(np.diag(hmat)) if factor > 1.0 else hmat) * factor
    w = np.random.default_rng(4).standard_normal(32)
    table = _affine_table(w[None, :], 3, default_gamma_grid(50))
    _, bounds = _clip_screen(table.resid, hmat[None])
    assert np.isinf(bounds).all()
    fit = owc_quantize(w, hmat, 3, 50)
    (p,), q = as_params(fit, 3), fit[3]
    ref_p, ref_q = reference_owc_search(w, hmat, 3, 50)
    assert_same_params(p, ref_p)
    assert np.array_equal(q, ref_q)
    assert loop_calls == [50]
    if factor > 1.0:
        loop = np.array([err @ (hmat @ err) for err in table.resid[0]])
        assert np.isinf(loop).any() and np.isfinite(loop).any()


def test_non_finite_hessian_fails_like_the_loop():
    hmat = calib_hessian(16, 5).copy()
    hmat[3, 4] = np.nan
    w = np.random.default_rng(5).standard_normal(16)
    with pytest.raises(ValueError):
        reference_owc_search(w, hmat, 3, 8)
    with pytest.raises(ValueError):
        owc_quantize(w, hmat, 3, 8)
