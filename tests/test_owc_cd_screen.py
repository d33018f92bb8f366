"""Differential tests of ``owc_cd``'s rounding screen on the quadratic term.

``owc_cd`` scores each candidate's quadratic term d' H_ii d with
``quantcore._clip_screen`` and keeps only the candidates that the widened
bound of ``groupquant._change_bound`` cannot rule out; those are re-scored
with the reference einsum. The bound must hold against that einsum and the
exact value on hard instances, and ties,
near-ties, out-of-range and non-finite inputs must give what
``reference_owc_cd`` (the full einsum at every step) gives, bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest

from qdescent.calibration import build_hessian
from qdescent.groupquant import _change_bound, _diag_blocks, owc_cd
from qdescent.quantcore import _clip_screen, default_gamma_grid

from test_owc_table import _check_owc_cd, _instance, _start, reference_owc_cd

U = 2.0 ** -53
QUAD = "nvg,ngh,nvh->nv"


@pytest.fixture
def quad_calls(monkeypatch):
    """Counts the 3-operand einsums (the re-scored candidates) while enabled."""
    calls = {"on": False, "n": 0}
    einsum = np.einsum

    def counted(spec, *ops, **kw):
        if calls["on"] and spec == QUAD:
            calls["n"] += 1
        return einsum(spec, *ops, **kw)

    monkeypatch.setattr(np, "einsum", counted)
    return calls


def _first_step_survivors(quad_calls, table, h, picks):
    """How many candidates the screen keeps at the first step: each is re-scored
    once there, as nothing is cached yet."""
    quad_calls["n"], quad_calls["on"] = 0, True
    try:
        owc_cd(table, h, picks, steps=1)
    finally:
        quad_calls["on"] = False
    return quad_calls["n"]


def _hard_blocks(kind, n, g, seed):
    rng = np.random.default_rng(seed)
    if kind == "calib":
        h = build_hessian(rng.standard_normal((2 * n * g, n * g)), 0.01)
        return _diag_blocks(h, n, g)
    q, _ = np.linalg.qr(rng.standard_normal((n, g, g)))
    if kind == "ill-conditioned":
        eigs = np.logspace(-14, 2, g)
    else:
        eigs = rng.standard_normal(g)
    return (q * eigs[None, None, :]) @ np.swapaxes(q, 1, 2)


def _hard_diff(n, v, g, seed):
    """Differences mixed over 10^-3..10^3 per candidate and per coordinate, with
    zero rows (a constant group, a candidate equal to the current state) and
    rows that are zero but for one coordinate."""
    rng = np.random.default_rng(seed)
    diff = (rng.standard_normal((n, v, g)) * 10.0 ** rng.integers(-3, 4, size=(n, v, 1))
            * 10.0 ** rng.integers(-3, 4, size=(n, v, g)))
    diff[0] = 0.0
    diff[1, ::7] = 0.0
    diff[2, ::5, 1:] = 0.0
    return diff


@pytest.mark.parametrize("kind", ["calib", "ill-conditioned", "indefinite"])
@pytest.mark.parametrize("scale", ["unit", "near-top", "near-bottom"])
def test_quad_bound_holds_on_hard_instances(kind, scale):
    n, v, g = 6, 40, 16
    hblocks = _hard_blocks(kind, n, g, 3)
    diff = _hard_diff(n, v, g, 4)
    if scale == "near-top":       # N (1 + E) close to 2^1000, on both sides
        hblocks, diff = hblocks * 2.0 ** 300, diff * 2.0 ** 330
    elif scale == "near-bottom":  # ||H_ii||_F above 2^-450, products deep in the subnormal range
        hblocks, diff = hblocks * 2.0 ** -440, diff * 2.0 ** -310
    with np.errstate(all="ignore"):
        fast, bounds = _clip_screen(diff, hblocks)
        base = _change_bound(fast, bounds, np.zeros((n, v)), g)
        quad = np.einsum(QUAD, diff, hblocks, diff)
    live = np.isfinite(base)
    assert live.any()
    if scale == "near-top":
        assert not live.all()
    assert (np.abs(fast - quad)[live] <= base[live]).all()
    assert (base[0] == 0.0).all() and (fast[0] == 0.0).all()   # zero rows: no slack at all

    rng = np.random.default_rng(5)
    for lin in (np.zeros((n, v)), quad * rng.uniform(-2.0, 2.0, (n, v)), quad.copy(),
                quad * (1.0 + 2.0 ** -40)):
        with np.errstate(all="ignore"):
            bound = _change_bound(fast, bounds, lin, g)
            ok = np.isfinite(bound)
            a, c = fast - lin, quad - lin
            slack = np.abs(a - c) + U * (np.abs(a) + bound)
        assert (slack[ok] <= bound[ok]).all()

    if scale == "unit":
        nonzero = live & (np.abs(diff).max(axis=2) > 0.0)
        mag = np.einsum(QUAD, np.abs(diff), np.abs(hblocks), np.abs(diff))
        assert (base[nonzero] <= 1e-9 * mag[nonzero]).all()   # tight enough to screen


def _exact_quad(d, h):
    fd = [Fraction(x) for x in d]
    return sum(fd[a] * Fraction(h[a, b]) * fd[b] for a in range(len(d)) for b in range(len(d)))


@pytest.mark.parametrize("g", [3, 4, 8])
def test_quad_bound_holds_against_exact_value(g):
    n, v = 3, 12
    hblocks = _hard_blocks("indefinite", n, g, g)
    diff = _hard_diff(n, v, g, g + 1)
    fast, bounds = _clip_screen(diff, hblocks)
    base = _change_bound(fast, bounds, np.zeros((n, v)), g)
    quad = np.einsum(QUAD, diff, hblocks, diff)
    for i in range(n):
        for k in range(v):
            exact = _exact_quad(diff[i, k], hblocks[i])
            err = abs(Fraction(fast[i, k]) - exact) + abs(Fraction(quad[i, k]) - exact)
            assert err <= Fraction(base[i, k])


def _copies(seed, g, n, block):
    """n copies of one group's weights, under H = kron(I, block)."""
    w = np.tile(np.random.default_rng(seed).standard_normal(g), n)
    return w, np.kron(np.eye(n), block)


def test_forced_ties_go_to_the_smallest_flat_index(quad_calls):
    # Equal groups under a diagonal H: every group's changes tie bit for bit,
    # in the reference's scores too, so the groups swap in index order.
    g, n = 16, 6
    for seed in range(6):
        w = np.tile(np.random.default_rng(seed).standard_normal(g), n)
        h = np.diag(np.tile(np.random.default_rng(seed + 1).uniform(0.5, 2.0, g), n))
        table, picks, params = _start("minmax", w, h, 2, g, 50, seed)
        result = _check_owc_cd(w, h, table, picks, params)
        assert [s[0] for s in result.swaps] == list(range(n))
        assert _first_step_survivors(quad_calls, table, h, picks) == n


@pytest.mark.parametrize("how", ["ulp", "permuted"])
def test_near_ties_match_reference(how, quad_calls):
    # Equal groups under equal diagonal blocks of H. "ulp": group i moves its
    # weight i by one ulp. "permuted": odd groups hold the weights reversed,
    # under a block that reversal leaves unchanged, so the changes tie in exact
    # arithmetic and rounding decides.
    g, n = 16, 6
    crowded = 0
    for seed in range(12):
        block = build_hessian(np.random.default_rng(seed).standard_normal((4 * g, g)), 0.01)
        if how == "permuted":
            block = block + block[::-1, ::-1]
        w, h = _copies(seed, g, n, block)
        for i in range(n):
            if how == "ulp":
                w[i * g + i] = np.nextafter(w[i * g + i], np.inf * (-1) ** (seed + i))
            elif i % 2:
                w[i * g:(i + 1) * g] = w[i * g:(i + 1) * g][::-1]
        table, picks, params = _start("minmax", w, h, 2 + seed % 2, g, 50, seed)
        _check_owc_cd(w, h, table, picks, params)
        crowded += _first_step_survivors(quad_calls, table, h, picks) > 1
    assert crowded >= 6   # the screen could not separate the near-ties


@pytest.mark.parametrize("bits", [1, 2])
@pytest.mark.parametrize("grid_size", [1, 3, 8, 50])
def test_owc_cd_group_size_two_matches_reference(bits, grid_size):
    # Weights near 3e8 lie far from their float32 bias, so both coordinates of a
    # group's difference change with the clip strength. numpy sums a lone 2 x 2
    # block in another order than a row of them, so g = 2 needs the row.
    # On the one-point grid neither descent has anywhere to move.
    for seed in range(6):
        _, h = _instance(100 + seed, 32, coupling=1.0)
        w = 3.0e8 + np.random.default_rng(seed).uniform(0.0, 60.0, 32)
        _check_owc_cd(w, h, *_start("minmax", w, h, bits, 2, grid_size, seed))
    if grid_size == 50:   # 128 groups, many of which swap
        _, h = _instance(200 + bits, 256, coupling=1.0)
        w = 3.0e8 + np.random.default_rng(bits).uniform(0.0, 60.0, 256)
        assert len(_check_owc_cd(w, h, *_start("minmax", w, h, bits, 2, 50, 0)).swaps) >= 16


def _outcome(fn, *args):
    """The result of ``fn``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:   # any type: the reference decides which is right
        return type(exc)


def _assert_same_outcome(table, got, ref):
    if isinstance(ref, type) or isinstance(got, type):
        assert got == ref
        return
    _, _, gammas, codes = table.pick(got.picks)
    # The running loss of each swap is left out: owc_cd accumulates it while the
    # reference recomputes e'He (see test_owc_table), so at non-finite scale one
    # can be NaN where the other is inf.
    np.testing.assert_array_equal(np.array([s[:3] for s in got.swaps]).reshape(-1, 3),
                                  np.array([s[:3] for s in ref.swaps]).reshape(-1, 3))
    np.testing.assert_array_equal(codes, ref.codes)
    assert list(gammas) == [p.gamma for p in ref.params]
    np.testing.assert_array_equal(
        np.array([(got.initial_loss, got.final_loss)]), np.array([(ref.initial_loss, ref.final_loss)]))
    np.testing.assert_array_equal(got.final_v, ref.final_v)


@pytest.mark.parametrize("case", ["huge-h", "tiny-h", "bottom-h", "zero-h", "huge-w", "nan-h",
                                  "inf-h"])
def test_out_of_range_and_non_finite_match_reference(case, quad_calls):
    g, n = 8, 6
    w, h = _instance(7, n * g, coupling=1.0)
    if case == "huge-h":
        h = h * 1e300
    elif case == "tiny-h":
        h = h * 1e-300
    elif case == "bottom-h":   # ||H_ii||_F below 2^-450, products deep in the subnormal range
        h = h * 2.0 ** -560
    elif case == "zero-h":
        h = np.zeros_like(h)
    elif case == "huge-w":
        w = w * 1e160
    elif case == "nan-h":
        h[3, 4] = np.nan
    else:
        h[20, 20] = np.inf
    with np.errstate(all="ignore"):
        table, picks, params = _start("minmax", w, h, 3, g, 20, 0)
        quad_calls["on"] = True
        got = _outcome(owc_cd, table, h, picks)
        quad_calls["on"] = False
        ref = _outcome(reference_owc_cd, w, h, params, default_gamma_grid(20))
        _, base = _clip_screen(table.resid - table.resid[:, -1:], _diag_blocks(h, n, g))
    _assert_same_outcome(table, got, ref)
    if case in ("huge-h", "huge-w", "bottom-h"):
        assert np.isinf(base).all()
    elif case in ("nan-h", "inf-h"):
        assert np.isinf(base).any() and not np.isinf(base).all()
    if case == "bottom-h":   # every candidate is re-scored at every step, the last one too
        assert quad_calls["n"] == min(n, len(got.swaps) + 1) * n * 20
