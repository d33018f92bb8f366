"""Core quantization types, the reconstruction objective, and affine initializers.

A weight column w is represented as ``a*q + b`` with integer codes
q in {0..2^c-1}. The affine parameters come from a clip-strength grid
search: for strength gamma in (0, 1],

    a = gamma * (max(w) - min(w)) / (2^c - 1),    b = min(w),
    q = clamp(round((w - b) / a), 0, 2^c - 1).

gamma = 1 is plain min-max quantization; shrinking gamma trades clipping of
the extremes for a finer grid over the bulk of the weights. The search
scores each candidate with the calibration-weighted reconstruction loss
``e' H e`` (e = w - a*q - b) and keeps the best, so its result can never be
worse than min-max. All candidates are scored in one batched product, and a
rounding screen (``_best_clips``) proves which of them a per-candidate loop
of ``e @ (H @ e)`` could pick; when more than one could, those are re-scored
by exactly that loop, so the choice is the loop's, bit for bit.

Scales and biases are canonicalized to float32 at creation time: that is
the precision they are stored at, and evaluating with the exact stored
values keeps on-disk artifacts and in-memory results bit-identical.

Rounding is half-away-from-zero throughout, never banker's rounding.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .calibration import ShapeMismatchError
from . import tensorio

#: Integer codes are plain uint8 numpy vectors; every entry must be < 2^bits.
CodeVector = np.ndarray

LAYER_META_FILENAME = "meta.json"


class DegenerateChannelError(ValueError):
    """Scale is zero (constant weight vector), descent is undefined."""


def check_bits(bits: int) -> None:
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in 1..8, got {bits}")


def _check_grouping(d_in: int, group_size: int) -> int:
    if group_size < 1 or d_in % group_size:
        raise ValueError(f"group size {group_size} does not divide d_in={d_in}")
    return d_in // group_size


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


@dataclass(frozen=True)
class ChannelProblem:
    """One output channel's quantization problem.

    ``target`` caches z = (w - b) / a, the real-valued point the integer
    codes chase; it is None for degenerate (constant-weight) channels.
    """

    weights: np.ndarray
    hessian: np.ndarray
    params: QuantParams
    target: Optional[np.ndarray]

    @classmethod
    def build(cls, weights: np.ndarray, hessian: np.ndarray,
              params: QuantParams) -> "ChannelProblem":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != hessian.shape[0]:
            raise ShapeMismatchError(
                f"weights have shape {w.shape}, Hessian is {hessian.shape[0]}x{hessian.shape[0]}")
        target = (w - params.bias) / params.scale if params.scale > 0 else None
        return cls(weights=w, hessian=hessian, params=params, target=target)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round halves away from zero (0.5 -> 1, -0.5 -> -1)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def zero_baseline(weights: np.ndarray, hessian: np.ndarray) -> float:
    """Loss of the all-zero reconstruction, w' H w."""
    h = np.asarray(hessian, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return float(w @ (h @ w))


def channel_objective(weights: np.ndarray, scales: np.ndarray, biases: np.ndarray,
                      codes: CodeVector, hessian: np.ndarray) -> tuple[float, float, float]:
    """(objective, relative objective, baseline) of one stored channel.

    ``scales``/``biases`` hold the channel's float32 params, one per group
    (one in all for per-channel quantization); the objective is e' H e with
    e = w - (a*q + b), the baseline w' H w, and the relative objective their
    ratio, 0 where the baseline is not positive. ``quantize`` and ``eval``
    both report these numbers, so they agree bit for bit.
    """
    w = np.asarray(weights, dtype=np.float64)
    err = w - _reconstruct(scales, biases, codes)
    obj = float(err @ (hessian @ err))
    base = zero_baseline(w, hessian)
    return obj, (obj / base if base > 0.0 else 0.0), base


def _reconstruct(scales: np.ndarray, biases: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """a*q + b of one channel or a layer, each group's float32 params repeated over its codes."""
    reps = codes.shape[-1] // scales.shape[-1]
    a = np.repeat(scales.astype(np.float64), reps, axis=-1)
    b = np.repeat(biases.astype(np.float64), reps, axis=-1)
    return a * codes.astype(np.float64) + b


@dataclass(frozen=True)
class AffineTable:
    """Affine fits of n equal-size groups at v clip strengths each.

    Entry (i, k) fits group i at clip strength ``gammas[i, k]`` by the module
    docstring's formulas, with scale and bias rounded to float32 before the codes;
    a constant group (``live[i]`` false) has scale 0, codes 0 and clip strength
    1 at every k.
    """

    bits: int
    gammas: np.ndarray    # (n, v) clip strengths
    scales: np.ndarray    # (n, v) float32 values held as float64
    biases: np.ndarray    # (n,) float32 values held as float64
    codes: np.ndarray     # (n, v, g) uint8
    resid: np.ndarray     # (n, v, g) float64, w - (scale * q + bias)
    live: np.ndarray      # (n,) bool, the group is not constant

    def params(self, i: int, k: int) -> QuantParams:
        if not self.live[i]:
            return QuantParams(scale=0.0, bias=float(self.biases[i]), bits=self.bits, gamma=1.0)
        return QuantParams(scale=float(self.scales[i, k]), bias=float(self.biases[i]),
                           bits=self.bits, gamma=float(self.gammas[i, k]))

    def pick(self, ks: np.ndarray) -> tuple[tuple[QuantParams, ...], np.ndarray]:
        """The params of each group i at index ``ks[i]``, and their codes, concatenated."""
        return (tuple(self.params(i, int(k)) for i, k in enumerate(ks)),
                self.codes[np.arange(len(ks)), ks].ravel())


def _affine_table(wg: np.ndarray, bits: int, gamma_grid: np.ndarray) -> AffineTable:
    """The affine fit of each of the (n, g) groups ``wg`` at each clip strength of
    ``gamma_grid``, one (v,) grid shared by all groups or an (n, v) grid per group,
    in one numpy pass. Every initializer fits through here, so ``bits`` is checked here.
    """
    check_bits(bits)
    wg = np.asarray(wg, dtype=np.float64)
    levels = 1 << bits
    wmin = wg.min(axis=1)
    span = wg.max(axis=1) - wmin
    live = span != 0.0
    biases = wmin.astype(np.float32).astype(np.float64)
    grid = np.asarray(gamma_grid, dtype=np.float64)
    gammas = np.broadcast_to(grid, (wg.shape[0], grid.shape[-1]))
    scales = ((gammas * span[:, None]) / (levels - 1)).astype(np.float32).astype(np.float64)
    # A live span below about (2^c - 1) * 2^-149 rounds to an f32 scale of 0;
    # it gets the smallest f32 scale instead, so no live group divides by 0.
    scales = np.where(live[:, None], np.maximum(scales, 2.0 ** -149), 0.0)
    divisor = np.where(live[:, None], scales, 1.0)
    q = round_half_away((wg[:, None, :] - biases[:, None, None]) / divisor[:, :, None])
    codes = np.clip(q, 0, levels - 1).astype(np.uint8)
    codes[~live] = 0
    resid = wg[:, None, :] - (scales[:, :, None] * codes.astype(np.float64) + biases[:, None, None])
    return AffineTable(bits=bits, gammas=gammas, scales=scales, biases=biases, codes=codes,
                       resid=resid, live=live)


#: Multiplier of the clip screen's rounding bound; ``_best_clips`` proves it sound above 5.04.
CLIP_SCREEN_FACTOR = 6.0
#: Absolute slack of the clip screen for underflow; see ``_best_clips``.
_CLIP_SCREEN_TINY = 2.0 ** -1000


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis, as BLAS calls (``np.vecdot`` on numpy >= 2)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _loop_argmin(resid: np.ndarray, hmat: np.ndarray, ks: np.ndarray) -> int:
    """Among candidate rows ``ks``, the one with the lowest ``err @ (hmat @ err)``;
    ties go to the last index, which on an ascending grid is the larger clip strength."""
    scores = np.array([resid[k] @ (hmat @ resid[k]) for k in ks])
    return int(ks[np.flatnonzero(scores == scores.min()).max()])


def _best_clips(table: AffineTable, blocks: np.ndarray) -> np.ndarray:
    """Each group's best clip strength: the index k minimizing ``e' H e`` over its
    candidate residuals ``e = table.resid[i][k]``, ties to the larger k; 0 for a
    constant group and for a one-column table, which leaves nothing to score and
    so never reads ``blocks``.

    ``blocks`` is an (n, g, g) array holding each group's H block: the result
    is, bit for bit, what a loop of ``err @ (blocks[i] @ err)`` over all
    candidates picks. All candidates of all groups are scored at once,
    s = rowsum((E B) * E), and a rounding screen proves which ones the loop
    could pick. For one group with H = H_i, u = 2^-53, gamma_g = g u / (1 - g u),
    and N = ||H||_F and E_k = ||e_k||^2 as computed, the bound is

        b_k = 6 gamma_g N E_k + tau_k,    tau_k = 2^-1000 g (1 + N) (2 + g E_k),

    with tau_k = 0 for a row e_k of exact zeros, and only candidates with
    s_k - b_k <= min_j (s_j + b_j) survive. Proof, with t_k the loop's score
    of candidate k:

    1. Scores. A dot product of length g, in any summation order and with or
       without fused multiply-adds, is within gamma_g sum_j |x_j y_j| of exact,
       plus 2^-1075 (1 + gamma_g) per underflowing product. The loop's
       e'(H e) and the batched (e'H) e are two such rounds each, so both lie
       within 2.01 gamma_g A + 1.01 g 2^-1075 (1 + ||e||_1) of the exact e'He,
       A = |e|'|H||e|.
    2. Bound. A <= ||H||_F ||e||^2 (Cauchy-Schwarz on |H| and |e|). With
       N >= 2^-450 and g <= 2^20, the computed N is within a relative
       gamma_(g^2) + 2^-100 <= 2^-12 of ||H||_F (squares that underflow lose at
       most g^2 2^-1075 against N^2 >= 2^-900), and ||e||^2 <= E_k (1 + gamma_g)
       + g 2^-1075. So |s_k - t_k| <= 4.03 gamma_g N E_k plus underflow terms,
       which tau_k exceeds more than 2^60-fold, since 1 + ||e||_1 <= 1.5 +
       g ||e||^2 / 2. Hence |s_k - t_k| <= 0.672 b_k. A row of exact zeros
       has s_k = t_k = 0, as H is finite in range (step 4), so b_k = 0 holds.
    3. Screen. Let k* be the loop's pick, so t_k* <= t_j for every j. Then
       s_k* - b_k* <= t_k* - 0.328 b_k* and s_j + b_j >= t_j + 0.328 b_j. The
       two sums are rounded once each, by at most u (|s| + b); as
       |s| <= 1.01 N E + tau <= 0.17 b / (g u), that is below 0.18 b, and b
       itself is computed to a relative 5u, so the rounded comparison still
       admits k*. The same holds for every candidate
       tied with k*, so re-scoring the survivors with the loop's own
       expression and taking the last minimum returns k*, and a single
       survivor is k*.
    4. Range. The bound holds only when 2^-450 <= N and
       N (1 + max_k E_k) <= 2^1000 (false for NaN); then no partial sum of
       either score exceeds 1.01 N (1 + E_k), so nothing overflows. A bound
       that overflows to inf only lets more candidates survive. A group out
       of range gets b = inf, so s - b is -inf or NaN, neither of which
       exceeds the threshold (the fmin of the s + b, which ignores NaN):
       every candidate survives and the loop scores all of them.
    """
    best = np.zeros(table.live.shape[0], dtype=np.intp)
    rows = np.flatnonzero(table.live)
    if rows.size == 0 or table.resid.shape[1] == 1:
        return best
    resid = table.resid
    if rows.size < best.size:
        resid, blocks = resid[rows], blocks[rows]
    scores, bounds = _clip_screen(resid, blocks)
    with np.errstate(invalid="ignore"):
        survive = ~(scores - bounds > np.fmin.reduce(scores + bounds, axis=1, keepdims=True))
    picks = np.argmax(survive, axis=1)
    for j in np.flatnonzero(survive.sum(axis=1) != 1):
        picks[j] = _loop_argmin(resid[j], blocks[j], np.flatnonzero(survive[j]))
    best[rows] = picks
    return best


def _clip_screen(resid: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched scores s (n, v) of the (n, v, g) residuals against the (n, g, g)
    blocks and their bounds b (n, v), inf for a group out of the screen's range;
    the formulas and their proof are in ``_best_clips``."""
    g = resid.shape[2]
    gamma_g = g * 2.0 ** -53 / (1.0 - g * 2.0 ** -53)
    with np.errstate(all="ignore"):
        scores = _rowdot(np.matmul(resid, blocks), resid)
        sq = _rowdot(resid, resid)
        flat = blocks.reshape(blocks.shape[0], -1)
        hnorm = np.sqrt(_rowdot(flat, flat))[:, None]
        tau = _CLIP_SCREEN_TINY * g * (1.0 + hnorm) * (2.0 + g * sq) * resid.any(axis=2)
        bounds = CLIP_SCREEN_FACTOR * gamma_g * hnorm * sq + tau
        in_range = ((hnorm >= 2.0 ** -450)
                    & (hnorm * (1.0 + sq.max(axis=1, keepdims=True)) <= 2.0 ** 1000))
    return scores, np.where(in_range, bounds, np.inf)


def default_gamma_grid(grid_size: int = 50) -> np.ndarray:
    """The clip-strength grid {j/grid_size : j=1..grid_size}; excludes 0, includes 1."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    return np.arange(1, grid_size + 1, dtype=np.float64) / grid_size


def owc_quantize(w: np.ndarray, hessian: np.ndarray, bits: int,
                 grid_size: int = 50) -> tuple[QuantParams, CodeVector]:
    """Clip-strength grid search {j/grid_size} scored by the calibration-weighted
    loss, ties toward larger gamma.

    The grid always contains gamma = 1, the min-max fit, so the returned
    objective is never worse than min-max; grid_size = 1 is that fit alone,
    which reads no H (the ``rtn`` method).
    """
    grid = default_gamma_grid(grid_size)
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    table = _affine_table(w[None, :], bits, grid)
    (params,), codes = table.pick(_best_clips(table, hessian[None]))
    return params, codes


def group_count(d_in: int, group_size: int) -> int:
    """Groups per channel: one for per-channel quantization (group size 0)."""
    return 1 if group_size == 0 else d_in // group_size


@dataclass
class QuantizedLayer:
    """A quantized d_in x d_out weight matrix with per-(channel, group) params.

    ``codes[j]`` holds channel j's d_in codes; scales/biases/gammas have one
    column per group (a single column for per-channel quantization). ``meta``
    carries run provenance (method, damping, seed, ...) and is serialized
    verbatim.
    """

    d_in: int
    d_out: int
    bits: int
    group_size: int               # 0 means per-channel
    scales: np.ndarray            # (d_out, n_groups) float32
    biases: np.ndarray            # (d_out, n_groups) float32
    gammas: np.ndarray            # (d_out, n_groups) float32
    codes: np.ndarray             # (d_out, d_in) uint8
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.group_size and self.d_in % self.group_size:
            raise ValueError("group_size must divide d_in")
        expected = (self.d_out, group_count(self.d_in, self.group_size))
        for name in ("scales", "biases", "gammas"):
            if getattr(self, name).shape != expected:
                raise ShapeMismatchError(f"{name} must have shape {expected}")
        if self.codes.shape != (self.d_out, self.d_in):
            raise ShapeMismatchError(f"codes must have shape {(self.d_out, self.d_in)}")
        if self.codes.size and int(self.codes.max()) >= (1 << self.bits):
            raise ValueError("code out of range for declared bit width")

    def dequantize(self) -> np.ndarray:
        """Reconstructed (d_in, d_out) float64 weight matrix."""
        return _reconstruct(self.scales, self.biases, self.codes).T


def save_layer(layer: QuantizedLayer, directory: str | Path) -> None:
    """Serialize a layer to a directory: JSON metadata, f32 param containers,
    and the code matrix packed row-major."""
    layer.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": tensorio.FORMAT_VERSION,
        "d_in": layer.d_in,
        "d_out": layer.d_out,
        "bits": layer.bits,
        "group_size": layer.group_size,
        "meta": layer.meta,
    }
    with open(directory / LAYER_META_FILENAME, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")

    tensorio.write_container(directory / "scales.tc", layer.scales.astype(np.float32))
    tensorio.write_container(directory / "biases.tc", layer.biases.astype(np.float32))
    tensorio.write_container(directory / "gammas.tc", layer.gammas.astype(np.float32))
    tensorio.write_packed(directory / "codes.pc",
                          tensorio.pack_codes(layer.codes.ravel(), layer.bits))


def layer_records(layer: QuantizedLayer, weights: np.ndarray, hessian: np.ndarray,
                  steps: Optional[list[int]] = None,
                  walls: Optional[list[float]] = None) -> list[tensorio.BenchRecord]:
    """The report rows ``quantize`` writes and ``eval`` recomputes: per channel, its
    :func:`channel_objective`, run keys from ``layer.meta`` (block size 0 unless
    bcd), and its ``steps`` and ``walls`` (ms), 0 where not given."""
    meta = layer.meta
    method = meta.get("method", "?")
    block_size = meta.get("block_size", 0) if method == "bcd" else 0
    w64 = np.asarray(weights, dtype=np.float64)
    records = []
    for j in range(layer.d_out):
        obj, rel, _ = channel_objective(w64[:, j], layer.scales[j], layer.biases[j],
                                        layer.codes[j], hessian)
        records.append(tensorio.BenchRecord(
            method=method, bits=layer.bits, group_size=layer.group_size, block_size=block_size,
            epochs=meta.get("epochs", 1), column=j, objective=obj, relative_objective=rel,
            steps=steps[j] if steps else 0, wall_millis=walls[j] if walls else 0.0))
    return records


class LayerMetaError(tensorio.TensorIOError):
    """A layer's meta.json lacks a required key or holds one of the wrong type or range."""


_LAYER_META_REQUIRED = ("format_version", "d_in", "d_out", "bits", "group_size")
_LAYER_META_TYPES = {**dict.fromkeys(_LAYER_META_REQUIRED, int), "meta": dict}
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_LAYER_META_RULES = {"format_version": (lambda v: v == tensorio.FORMAT_VERSION,
                                        str(tensorio.FORMAT_VERSION)),
                     "bits": (lambda v: 1 <= v <= 8, "in 1..8"), "d_in": _AT_LEAST_1,
                     "d_out": _AT_LEAST_1}
#: Optional run-provenance keys of the inner ``meta`` object that eval reads.
_RUN_META_TYPES = {"weights_path": str, "method": str, "lambda_rel": float,
                   "clip_fraction": float, "block_size": int, "epochs": int}
_RUN_META_RULES = {"lambda_rel": (lambda v: 0 <= v <= sys.float_info.max, "finite and >= 0"),
                   "clip_fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
                   "block_size": _AT_LEAST_1, "epochs": _AT_LEAST_1}


def _read_layer_meta(path: Path) -> dict:
    # Not strict: a layer from an older version also holds ``codes_packed``.
    meta = tensorio.read_json(path, "layer metadata", _LAYER_META_TYPES, strict=False,
                              required=_LAYER_META_REQUIRED, rules=_LAYER_META_RULES,
                              error=LayerMetaError)
    tensorio.check_json(f"{path}: run metadata", meta.get("meta", {}), _RUN_META_TYPES,
                        strict=False, rules=_RUN_META_RULES, error=LayerMetaError)
    if meta["group_size"] < 0 or meta["group_size"] and meta["d_in"] % meta["group_size"]:
        raise LayerMetaError(f"{path}: layer metadata key 'group_size' must be 0 or a divisor "
                             f"of d_in={meta['d_in']}, got {meta['group_size']}")
    return meta


def load_layer(directory: str | Path) -> QuantizedLayer:
    directory = Path(directory)
    meta = _read_layer_meta(directory / LAYER_META_FILENAME)
    d_in, d_out, bits, group_size = (meta[key] for key in ("d_in", "d_out", "bits", "group_size"))
    path = directory / "codes.pc"
    packed = tensorio.read_packed(path)
    if packed.bit_width != bits:
        raise LayerMetaError(f"{directory / LAYER_META_FILENAME}: layer metadata key 'bits' "
                             f"is {bits}, but codes.pc holds {packed.bit_width}-bit codes")
    with tensorio.naming(path):
        codes = tensorio.unpack_codes(packed)
    if codes.size != d_in * d_out:
        raise tensorio.PayloadMismatchError(f"{path}: holds {codes.size} codes, a {d_in} x "
                                            f"{d_out} layer needs {d_in * d_out}")
    shape = (d_out, group_count(d_in, group_size))
    params = {}
    for name in ("scales", "biases", "gammas"):
        path = directory / f"{name}.tc"
        params[name] = tensorio.read_container(path).array
        if params[name].dtype != np.float32 or params[name].shape != shape:
            raise tensorio.PayloadMismatchError(
                f"{path}: {name} must be f32 of shape {shape}, got {params[name].dtype} "
                f"of shape {params[name].shape}")
    if params["scales"].size and params["scales"].min() < 0.0:
        raise tensorio.PayloadMismatchError(f"{directory / 'scales.tc'}: scales must be >= 0, "
                                            f"got {params['scales'].min()}")
    # Every rule of QuantizedLayer.validate is checked above, each naming its file.
    return QuantizedLayer(d_in=d_in, d_out=d_out, bits=bits, group_size=group_size,
                          codes=codes.reshape(d_out, d_in), meta=meta.get("meta", {}), **params)
