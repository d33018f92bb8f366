"""Differential tests of the vectorized clip-strength table against the scalar fits.

``_affine_table`` must reproduce ``_fit_affine`` (the scalar fit, a verbatim
copy in ``conftest.py``) entry by entry, for one grid shared by all groups
and for a grid per group, and the OWC searches and the clip-strength descent
built on it must match verbatim copies of the code they replaced
(``reference_*`` below): same swaps, losses, codes, parameters and final
gradient, bit for bit. ``owc_cd`` moves grid indices in the grid search's
table; its codes and parameters are those the table gives for its final
indices, and the reference starts from the parameters of its start indices.
The one exception is the loss recorded with each swap:
``owc_cd`` accumulates it as ``loss + change`` while the reference recomputes
``e' H e``. The changes are summed at the scale of the starting loss, so the
two agree to 1e-12 of ``initial_loss``.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest

from qdescent.calibration import ShapeMismatchError, build_hessian
from qdescent.descent import DescentConfig
from qdescent.groupquant import _check_grouping, owc_cd, owc_group_init, quantize_channel_grouped
from qdescent.quantcore import QuantParams, _affine_table, default_gamma_grid, owc_quantize

from conftest import _fit_affine, minmax_group_init


def reference_owc_search(w: np.ndarray, hmat: np.ndarray, bits: int,
                         grid_size: int) -> tuple[QuantParams, np.ndarray]:
    """``quantcore.owc_quantize`` as it was before the table: one scalar fit per candidate."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    if float(w.max() - w.min()) == 0.0:
        return _fit_affine(w, bits, gamma=1.0)

    candidates = []
    scores = np.empty(grid_size)
    for j in range(1, grid_size + 1):
        params, q = _fit_affine(w, bits, gamma=j / grid_size)
        err = w - (params.scale * q.astype(np.float64) + params.bias)
        scores[j - 1] = err @ (hmat @ err)
        candidates.append((params, q))
    best = int(np.flatnonzero(scores == scores.min()).max())
    return candidates[best]


def reference_owc_group_init(w: np.ndarray, hessian: np.ndarray, bits: int, group_size: int,
                             grid_size: int = 50) -> tuple[tuple[QuantParams, ...], np.ndarray]:
    """``groupquant.owc_group_init`` as it was before the table."""
    w = np.asarray(w, dtype=np.float64)
    n_groups = _check_grouping(w.shape[0], group_size)
    if hessian.shape[0] != w.shape[0]:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")
    params, codes = [], np.empty(w.shape[0], dtype=np.uint8)
    for i in range(n_groups):
        sl = slice(i * group_size, (i + 1) * group_size)
        p, q = reference_owc_search(w[sl], hessian[sl, sl], bits, grid_size)
        params.append(p)
        codes[sl] = q
    return tuple(params), codes


@dataclass
class OwcCdResult:
    """``owc_cd``'s result as it was when it returned params and codes, not grid
    indices: the result of ``reference_owc_cd``.

    Each swap is (group, new clip strength, loss change, loss after it), the
    loss accumulated from ``initial_loss``; ``final_loss`` is recomputed.
    """

    params: tuple[QuantParams, ...]
    codes: np.ndarray
    swaps: list[tuple[int, float, float, float]] = field(default_factory=list)
    initial_loss: float = 0.0
    final_loss: float = 0.0
    final_v: Optional[np.ndarray] = None


def reference_owc_cd(w: np.ndarray, hessian: np.ndarray, params: tuple[QuantParams, ...],
           gamma_grid: Optional[np.ndarray] = None,
           steps: Optional[int] = None) -> OwcCdResult:
    """``owc_cd`` as it was before the shared affine table and the cached quadratic term.

    Residuals for every (group, grid value) pair are precomputed once; each
    step applies the single swap with the most negative exact loss change
    (ties to the smallest (group, grid index)) and stops early at a fixed
    point, which cannot change the outcome because the candidate table is
    static. Default step budget is one pass, d_in / group_size.
    """
    w = np.asarray(w, dtype=np.float64)
    g = w.shape[0] // len(params)
    n_groups = _check_grouping(w.shape[0], g)
    if hessian.shape[0] != w.shape[0]:
        raise ShapeMismatchError("Hessian dimension disagrees with the weight length")
    gamma_grid = default_gamma_grid() if gamma_grid is None else np.asarray(gamma_grid, dtype=np.float64)
    if gamma_grid.size == 0:
        raise ValueError("empty clip-strength grid")
    if steps is None:
        steps = n_groups
    if steps < 0:
        raise ValueError("steps must be >= 0")
    hmat = hessian
    bits = params[0].bits
    n_grid = gamma_grid.shape[0]

    # Residual and code tables over (group, grid value).
    resid_table = np.empty((n_groups, n_grid, g))
    codes_table = np.empty((n_groups, n_grid, g), dtype=np.uint8)
    params_table: list[list[QuantParams]] = []
    for i in range(n_groups):
        grp = w[i * g:(i + 1) * g]
        row = []
        for v, beta in enumerate(gamma_grid):
            p, q = _fit_affine(grp, bits, gamma=float(beta))
            row.append(p)
            codes_table[i, v] = q
            resid_table[i, v] = grp - (p.scale * q.astype(np.float64) + p.bias)
        params_table.append(row)

    # Current state from the params as passed in (their gammas need not be on the grid).
    cur_params = list(params)
    cur_codes = np.empty(w.shape[0], dtype=np.uint8)
    cur_resid = np.empty((n_groups, g))
    for i, p in enumerate(cur_params):
        sl = slice(i * g, (i + 1) * g)
        grp = w[sl]
        if p.scale == 0.0:
            q = np.zeros(g, dtype=np.uint8)
        else:
            _, q = _fit_affine(grp, bits, gamma=p.gamma)
        cur_codes[sl] = q
        cur_resid[i] = grp - (p.scale * q.astype(np.float64) + p.bias)

    hblocks = hmat.reshape(n_groups, g, n_groups, g)[np.arange(n_groups), :, np.arange(n_groups), :]
    err = cur_resid.ravel()
    v = -2.0 * (hmat @ err)
    loss = float(err @ (hmat @ err))
    result = OwcCdResult(params=params, codes=cur_codes, initial_loss=loss, final_loss=loss)

    for _ in range(steps):
        diff = resid_table - cur_resid[:, None, :]
        change = (np.einsum("nvg,ngh,nvh->nv", diff, hblocks, diff)
                  - np.einsum("nvg,ng->nv", diff, v.reshape(n_groups, g)))
        flat = int(np.argmin(change))
        i_star, v_star = divmod(flat, n_grid)
        best = float(change.flat[flat])
        if best >= 0.0:
            break
        sl = slice(i_star * g, (i_star + 1) * g)
        delta = resid_table[i_star, v_star] - cur_resid[i_star]
        v -= 2.0 * (hmat[:, sl] @ delta)
        cur_resid[i_star] = resid_table[i_star, v_star]
        cur_codes[sl] = codes_table[i_star, v_star]
        cur_params[i_star] = params_table[i_star][v_star]
        err = cur_resid.ravel()
        loss = float(err @ (hmat @ err))
        result.swaps.append((i_star, float(gamma_grid[v_star]), best, loss))

    result.params = tuple(cur_params)
    result.codes = cur_codes
    result.final_loss = loss
    result.final_v = v.copy()
    return result


def _weights(rng, n_groups, g, kind):
    """Group rows of float32-representable weights of one flavour."""
    wg = rng.standard_normal((n_groups, g)).astype(np.float32).astype(np.float64)
    if kind == "negative":
        wg = -np.abs(wg) - 3.0
    elif kind == "wide":
        wg = wg * 1e4
    elif kind == "tiny":
        wg = wg * 1e-30
    elif kind == "constant":
        wg[::2] = wg[::2, :1]
    elif kind == "all-equal":
        wg[:] = -0.75
    elif kind == "constant-large":
        # Not float32-representable: w - float32(w) is far from 0 in these groups.
        wg[1::2] = 3.0e8 + 10.3
    elif kind == "ties":
        # Integer weights put many (w - b) / a quotients exactly on halves.
        wg = rng.integers(-8, 9, size=(n_groups, g)).astype(np.float64)
    return wg


def _instance(seed, d, coupling=1.0):
    """A weight column and a damped calibration Hessian with cross-group coupling."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((4 * d, d))
    x = x + coupling * rng.standard_normal((4 * d, 1))   # a shared direction couples all inputs
    w = rng.standard_normal(d).astype(np.float32).astype(np.float64)
    return w, build_hessian(x, 0.01)


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("kind", ["normal", "negative", "wide", "tiny", "constant", "all-equal",
                                  "constant-large", "ties"])
@pytest.mark.parametrize("grid_size", [1, 8, 50])
def test_affine_table_equals_scalar_fit(bits, kind, grid_size):
    rng = np.random.default_rng(1000 * bits + grid_size)
    wg = _weights(rng, 5, 7, kind)
    grid = default_gamma_grid(grid_size)
    table = _affine_table(wg, bits, grid)
    assert table.codes.shape == table.resid.shape == (5, grid_size, 7)
    for i in range(5):
        assert bool(table.live[i]) == (float(wg[i].max() - wg[i].min()) != 0.0)
        for k, gamma in enumerate(grid):
            p, q = _fit_affine(wg[i], bits, gamma=float(gamma))
            assert table.params(i, k) == p
            assert table.scales[i, k] == p.scale
            assert table.biases[i] == p.bias
            np.testing.assert_array_equal(table.codes[i, k], q)
            np.testing.assert_array_equal(table.resid[i, k],
                                          wg[i] - (p.scale * q.astype(np.float64) + p.bias))


def test_affine_table_off_grid_gammas():
    rng = np.random.default_rng(7)
    wg = _weights(rng, 4, 16, "normal")
    gammas = rng.uniform(0.01, 1.0, size=13)
    table = _affine_table(wg, 3, gammas)
    for i in range(4):
        for k, gamma in enumerate(gammas):
            p, q = _fit_affine(wg[i], 3, gamma=float(gamma))
            assert table.params(i, k) == p
            np.testing.assert_array_equal(table.codes[i, k], q)


def test_affine_table_per_group_grids():
    rng = np.random.default_rng(11)
    wg = _weights(rng, 6, 16, "constant")
    gammas = rng.uniform(0.01, 1.0, size=(6, 5))
    table = _affine_table(wg, 3, gammas)
    assert table.gammas.shape == table.scales.shape == (6, 5)
    for i in range(6):
        for k in range(5):
            p, q = _fit_affine(wg[i], 3, gamma=float(gammas[i, k]))
            assert table.params(i, k) == p
            np.testing.assert_array_equal(table.codes[i, k], q)
            np.testing.assert_array_equal(table.resid[i, k],
                                          wg[i] - (p.scale * q.astype(np.float64) + p.bias))


@pytest.mark.parametrize("bits", range(1, 9))
@pytest.mark.parametrize("grid_size", [1, 8, 50])
def test_owc_search_matches_scalar_search(bits, grid_size):
    for seed in range(3):
        w, h = _instance(100 * bits + seed, 24)
        if seed == 2:
            w[:] = 0.125
        p, q = owc_quantize(w, h, bits, grid_size)
        ref_p, ref_q = reference_owc_search(w, h, bits, grid_size)
        assert p == ref_p
        np.testing.assert_array_equal(q, ref_q)


def test_owc_search_ties_go_to_larger_gamma():
    # A zero Hessian scores every candidate 0, so the whole grid ties.
    w, _ = _instance(3, 16)
    p, q = owc_quantize(w, np.zeros((16, 16)), 3, 8)
    ref_p, ref_q = reference_owc_search(w, np.zeros((16, 16)), 3, 8)
    assert p == ref_p and p.gamma == 1.0
    np.testing.assert_array_equal(q, ref_q)
    # Zero H blocks tie the per-group searches too.
    table, picks = owc_group_init(w, np.zeros((16, 16)), 3, 4, 8)
    params, codes = table.pick(picks)
    ref_params, ref_codes = reference_owc_group_init(w, np.zeros((16, 16)), 3, 4, 8)
    assert params == ref_params and tuple(p.gamma for p in params) == (1.0,) * 4
    np.testing.assert_array_equal(codes, ref_codes)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("d,g", [(32, 8), (64, 16), (128, 32)])
def test_owc_group_init_matches_scalar_init(bits, d, g):
    w, h = _instance(bits + d, d)
    w[g:2 * g] = -1.5   # one constant group
    table, picks = owc_group_init(w, h, bits, g)
    params, codes = table.pick(picks)
    ref_params, ref_codes = reference_owc_group_init(w, h, bits, g)
    assert params == ref_params
    np.testing.assert_array_equal(codes, ref_codes)


def _assert_same_result(table, result, ref: OwcCdResult):
    params, codes = table.pick(result.picks)
    assert [s[:3] for s in result.swaps] == [s[:3] for s in ref.swaps]
    for s, ref_s in zip(result.swaps, ref.swaps):
        assert abs(s[3] - ref_s[3]) <= 1e-12 * ref.initial_loss
    np.testing.assert_array_equal(codes, ref.codes)
    assert params == ref.params
    assert result.initial_loss == ref.initial_loss
    assert result.final_loss == ref.final_loss
    np.testing.assert_array_equal(result.final_v, ref.final_v)


def _start(start, w, h, bits, g, grid_size, seed):
    """The table of w on the default grid, the grid indices ``owc_cd`` starts
    from, and the params ``reference_owc_cd`` starts from."""
    if start == "owc":
        table, picks = owc_group_init(w, h, bits, g, grid_size)
        return table, picks, table.pick(picks)[0]
    table = _affine_table(w.reshape(-1, g), bits, default_gamma_grid(grid_size))
    if start == "minmax":   # gamma = 1 is the grid's last entry
        return table, np.full(w.shape[0] // g, grid_size - 1), minmax_group_init(w, bits, g)[0]
    picks = np.random.default_rng(seed).integers(0, grid_size, w.shape[0] // g)
    return table, picks, table.pick(picks)[0]


def _check_owc_cd(w, h, table, picks, params, steps=None):
    """``owc_cd`` from ``picks`` equals ``reference_owc_cd`` from ``params``."""
    result = owc_cd(table, h, picks, steps)
    _assert_same_result(table, result, reference_owc_cd(w, h, params, table.gammas[0], steps))
    return result


@pytest.mark.parametrize("start", ["owc", "minmax", "random"])
@pytest.mark.parametrize("bits,d,g,grid_size", [(1, 32, 4, 8), (2, 64, 8, 50), (3, 128, 32, 50),
                                                (4, 96, 16, 20), (3, 64, 16, 1)])
def test_owc_cd_matches_reference(start, bits, d, g, grid_size):
    swaps = 0
    for seed in range(3):
        w, h = _instance(10 * d + seed, d, coupling=float(seed))
        result = _check_owc_cd(w, h, *_start(start, w, h, bits, g, grid_size, seed))
        swaps += len(result.swaps)
    if grid_size > 1:
        assert swaps > 0   # the descent moved, so the cached rows were exercised


def test_owc_cd_matches_reference_with_constant_groups():
    d, g, bits = 128, 16, 3
    w, h = _instance(5, d, coupling=2.0)
    w[0:g] = 0.25
    w[5 * g:6 * g] = -2.0
    for start in ("owc", "minmax"):
        table, picks, params = _start(start, w, h, bits, g, 50, 5)
        final, _ = table.pick(_check_owc_cd(w, h, table, picks, params).picks)
        assert final[0].scale == 0.0 and final[5].scale == 0.0


@pytest.mark.parametrize("steps", [0, 1, 3, 40])
def test_owc_cd_matches_reference_step_budgets(steps):
    d, g, bits = 64, 8, 2   # 8 groups: 40 steps exceeds the default single pass
    w, h = _instance(21, d, coupling=1.5)
    result = _check_owc_cd(w, h, *_start("minmax", w, h, bits, g, 50, 0), steps=steps)
    if steps == 0:
        assert result.swaps == [] and result.final_loss == result.initial_loss


def test_owc_cd_matches_reference_default_grid_and_steps():
    w, h = _instance(33, 64, coupling=1.0)
    table, picks = owc_group_init(w, h, 3, 16)
    _assert_same_result(table, owc_cd(table, h, picks),
                        reference_owc_cd(w, h, table.pick(picks)[0]))


@pytest.mark.parametrize("n,v,g", [(1, 1, 1), (3, 5, 2), (8, 50, 16), (32, 50, 32),
                                   (7, 13, 24), (4, 256, 64), (16, 50, 2), (512, 50, 2)])
def test_einsum_row_slice_equals_full_row(n, v, g):
    """One row of the quadratic term, einsum'd on a length-1 slice.

    That row must be bit-identical to the same row of the full einsum, which
    depends on the einsum's iteration order; this pins that order down.
    """
    rng = np.random.default_rng(n * v * g)
    hmat = rng.standard_normal((n * g, n * g))
    hblocks = hmat.reshape(n, g, n, g)[np.arange(n), :, np.arange(n), :]
    diff = rng.standard_normal((n, v, g)) * 10.0 ** rng.integers(-3, 4, size=(n, v, 1))
    full = np.einsum("nvg,ngh,nvh->nv", diff, hblocks, diff)
    for i in range(n):
        row = slice(i, i + 1)
        part = np.einsum("nvg,ngh,nvh->nv", diff[row], hblocks[row], diff[row])
        np.testing.assert_array_equal(part[0], full[i])


@pytest.mark.parametrize("n,v,g", [(1, 1, 1), (3, 5, 3), (8, 50, 16), (32, 50, 32),
                                   (7, 13, 24), (4, 256, 64), (2, 3, 128)])
def test_einsum_candidate_slice_equals_full_entry(n, v, g):
    """``owc_cd`` re-scores a candidate the screen keeps on its own (1, 1, g) slice.

    That value must be bit-identical to the candidate's entry of the full
    einsum. The shapes are the row test's, with g = 3 for its g = 2 and one
    block larger than numpy's 8192-element buffer. For g = 2 numpy sums a lone
    2 x 2 block as two pairs but the blocks of most tables in one run of four,
    so there ``owc_cd`` scores the candidate's whole row, which the row test
    pins to the full einsum
    (``test_owc_cd_screen.py::test_owc_cd_group_size_two_matches_reference``).
    """
    rng = np.random.default_rng(n * v * g)
    hmat = rng.standard_normal((n * g, n * g))
    hblocks = hmat.reshape(n, g, n, g)[np.arange(n), :, np.arange(n), :]
    diff = rng.standard_normal((n, v, g)) * 10.0 ** rng.integers(-3, 4, size=(n, v, 1))
    full = np.einsum("nvg,ngh,nvh->nv", diff, hblocks, diff)
    for i in range(n):
        for k in range(v):
            one = diff[i:i + 1, k:k + 1]
            part = np.einsum("nvg,ngh,nvh->nv", one, hblocks[i:i + 1], one)
            assert part[0, 0] == full[i, k]


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_minmax_group_init_matches_scalar_fits(bits):
    # rtn's grouped path, the grid search on the one-point grid {1}, is the min-max fit.
    w, h = _instance(bits, 64)
    w[16:32] = 0.625
    params, codes, _ = quantize_channel_grouped(w, h, "rtn", bits, 16, DescentConfig(), 50, False)
    for i in range(4):
        sl = slice(i * 16, (i + 1) * 16)
        p, q = _fit_affine(w[sl], bits, gamma=1.0)
        assert params[i] == p
        np.testing.assert_array_equal(codes[sl], q)
