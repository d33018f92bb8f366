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
worse than min-max.

Scales and biases are canonicalized to float32 at creation time: that is
the precision they are stored at, and evaluating with the exact stored
values keeps on-disk artifacts and in-memory results bit-identical.

Rounding is half-away-from-zero throughout, never banker's rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .calibration import Hessian, ShapeMismatchError
from . import tensorio

#: Integer codes are plain uint8 numpy vectors; every entry must be < 2^bits.
CodeVector = np.ndarray

LAYER_META_FILENAME = "meta.json"


class DegenerateChannelError(ValueError):
    """Scale is zero (constant weight vector), descent is undefined."""


class ZeroBaselineError(ValueError):
    """w'Hw = 0, the relative objective has a zero denominator."""


@dataclass(frozen=True)
class QuantParams:
    """Affine dequantization parameters for one channel or group."""

    scale: float
    bias: float
    bits: int
    gamma: float = 1.0

    def __post_init__(self):
        if not 1 <= self.bits <= 8:
            raise ValueError(f"bits must be in 1..8, got {self.bits}")
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
    hessian: Hessian
    params: QuantParams
    target: Optional[np.ndarray]

    @classmethod
    def build(cls, weights: np.ndarray, hessian: Hessian, params: QuantParams) -> "ChannelProblem":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != hessian.dim:
            raise ShapeMismatchError(
                f"weights have shape {w.shape}, Hessian is {hessian.dim}x{hessian.dim}")
        target = (w - params.bias) / params.scale if params.scale > 0 else None
        return cls(weights=w, hessian=hessian, params=params, target=target)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round halves away from zero (0.5 -> 1, -0.5 -> -1)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def dequantize(codes: CodeVector, params: QuantParams) -> np.ndarray:
    """Return a*q + b as float64; a constant b vector when scale is zero."""
    q = np.asarray(codes)
    if q.size and int(q.max(initial=0)) >= params.levels:
        raise ValueError(f"code out of range for {params.bits} bits")
    return params.scale * q.astype(np.float64) + params.bias


def objective(weights: np.ndarray, codes: CodeVector, params: QuantParams,
              hessian: Hessian | np.ndarray) -> float:
    """Reconstruction loss e' H e with e = w - dequantize(q)."""
    h = hessian.matrix if isinstance(hessian, Hessian) else np.asarray(hessian, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != h.shape[0] or w.shape[0] != np.asarray(codes).shape[0]:
        raise ShapeMismatchError("weights, codes and Hessian dimensions disagree")
    err = w - dequantize(codes, params)
    return float(err @ (h @ err))


def zero_baseline(weights: np.ndarray, hessian: Hessian | np.ndarray) -> float:
    """Loss of the all-zero reconstruction, w' H w."""
    h = hessian.matrix if isinstance(hessian, Hessian) else np.asarray(hessian, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    return float(w @ (h @ w))


def relative_objective(weights: np.ndarray, codes: CodeVector, params: QuantParams,
                       hessian: Hessian | np.ndarray) -> float:
    """objective / (w' H w); raises ZeroBaselineError when the base is zero."""
    base = zero_baseline(weights, hessian)
    if base == 0.0:
        raise ZeroBaselineError("zero denominator: w'Hw = 0")
    return objective(weights, codes, params, hessian) / base


def _f32(value: float) -> float:
    return float(np.float32(value))


def _fit_affine(w: np.ndarray, bits: int, gamma: float) -> tuple[QuantParams, CodeVector]:
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


@dataclass(frozen=True)
class AffineTable:
    """Affine fits of n equal-size groups at each of v clip strengths.

    Entry (i, k) is what ``_fit_affine(wg[i], bits, gammas[k])`` returns;
    a constant group (``live[i]`` false) has scale 0 and codes 0 at every k.
    """

    bits: int
    gammas: np.ndarray    # (v,) clip strengths
    scales: np.ndarray    # (n, v) float32 values held as float64
    biases: np.ndarray    # (n,) float32 values held as float64
    codes: np.ndarray     # (n, v, g) uint8
    resid: np.ndarray     # (n, v, g) float64, w - (scale * q + bias)
    live: np.ndarray      # (n,) bool, the group is not constant

    def params(self, i: int, k: int) -> QuantParams:
        if not self.live[i]:
            return QuantParams(scale=0.0, bias=float(self.biases[i]), bits=self.bits, gamma=1.0)
        return QuantParams(scale=float(self.scales[i, k]), bias=float(self.biases[i]),
                           bits=self.bits, gamma=float(self.gammas[k]))


def _affine_table(wg: np.ndarray, bits: int, gamma_grid: np.ndarray) -> AffineTable:
    """``_fit_affine`` over every (group, clip strength) pair in one numpy pass.

    The operations are ``_fit_affine``'s, in its order, so every entry is
    bit-identical to the scalar fit.
    """
    wg = np.asarray(wg, dtype=np.float64)
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    levels = 1 << bits
    wmin = wg.min(axis=1)
    span = wg.max(axis=1) - wmin
    live = span != 0.0
    biases = wmin.astype(np.float32).astype(np.float64)
    scales = ((gammas[None, :] * span[:, None]) / (levels - 1)).astype(np.float32).astype(np.float64)
    scales[~live] = 0.0
    divisor = np.where(live[:, None], scales, 1.0)
    q = round_half_away((wg[:, None, :] - biases[:, None, None]) / divisor[:, :, None])
    codes = np.clip(q, 0, levels - 1).astype(np.uint8)
    codes[~live] = 0
    resid = wg[:, None, :] - (scales[:, :, None] * codes.astype(np.float64) + biases[:, None, None])
    return AffineTable(bits=bits, gammas=gammas, scales=scales, biases=biases, codes=codes,
                       resid=resid, live=live)


def _best_clip(resid: np.ndarray, hmat: np.ndarray) -> int:
    """Index of the candidate residual row with the lowest ``e' H e``; ties go to
    the last index, which on an ascending grid is the larger clip strength."""
    scores = np.empty(resid.shape[0])
    for k, err in enumerate(resid):
        scores[k] = err @ (hmat @ err)
    return int(np.flatnonzero(scores == scores.min()).max())


def default_gamma_grid(grid_size: int = 50) -> np.ndarray:
    """The clip-strength grid {j/grid_size : j=1..grid_size}; excludes 0, includes 1."""
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    return np.arange(1, grid_size + 1, dtype=np.float64) / grid_size


def minmax_quantize(w: np.ndarray, bits: int) -> tuple[QuantParams, CodeVector]:
    """Min-max affine quantization (clip strength 1, i.e. no clipping)."""
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    return _fit_affine(w, bits, gamma=1.0)


def _owc_search(w: np.ndarray, hmat: np.ndarray, bits: int,
                grid_size: int) -> tuple[QuantParams, CodeVector]:
    """Grid search over clip strengths {j/grid_size}, ties toward larger gamma."""
    grid = default_gamma_grid(grid_size)
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    table = _affine_table(w[None, :], bits, grid)
    best = _best_clip(table.resid[0], hmat) if table.live[0] else 0
    return table.params(0, best), table.codes[0, best].copy()


def owc_quantize(w: np.ndarray, hessian: Hessian, bits: int,
                 grid_size: int = 50) -> tuple[QuantParams, CodeVector]:
    """Clip-strength grid search scored by the calibration-weighted loss.

    The grid always contains gamma = 1, so the returned objective is never
    worse than :func:`minmax_quantize`, and grid_size = 1 reproduces it
    bit for bit.
    """
    return _owc_search(w, hessian.matrix, bits, grid_size)


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

    @property
    def n_groups(self) -> int:
        return 1 if self.group_size == 0 else self.d_in // self.group_size

    def validate(self) -> None:
        if self.group_size and self.d_in % self.group_size:
            raise ValueError("group_size must divide d_in")
        expected = (self.d_out, self.n_groups)
        for name in ("scales", "biases", "gammas"):
            if getattr(self, name).shape != expected:
                raise ShapeMismatchError(f"{name} must have shape {expected}")
        if self.codes.shape != (self.d_out, self.d_in):
            raise ShapeMismatchError(f"codes must have shape {(self.d_out, self.d_in)}")
        if self.codes.size and int(self.codes.max()) >= (1 << self.bits):
            raise ValueError("code out of range for declared bit width")

    def channel_scale_vectors(self, channel: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (scale, bias) vectors for one channel."""
        reps = self.d_in if self.group_size == 0 else self.group_size
        a = np.repeat(self.scales[channel].astype(np.float64), reps)
        b = np.repeat(self.biases[channel].astype(np.float64), reps)
        return a, b

    def dequantize_channel(self, channel: int) -> np.ndarray:
        a, b = self.channel_scale_vectors(channel)
        return a * self.codes[channel].astype(np.float64) + b

    def dequantize(self) -> np.ndarray:
        """Reconstructed (d_in, d_out) float64 weight matrix."""
        out = np.empty((self.d_in, self.d_out))
        for j in range(self.d_out):
            out[:, j] = self.dequantize_channel(j)
        return out


def save_layer(layer: QuantizedLayer, directory: str | Path, packed: bool = True) -> None:
    """Serialize a layer to a directory: JSON metadata, f32 param containers,
    and the code matrix packed row-major (or a u8 container in debug mode)."""
    layer.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": tensorio.FORMAT_VERSION,
        "d_in": layer.d_in,
        "d_out": layer.d_out,
        "bits": layer.bits,
        "group_size": layer.group_size,
        "codes_packed": bool(packed),
        "meta": layer.meta,
    }
    with open(directory / LAYER_META_FILENAME, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")

    tensorio.write_container(directory / "scales.tc", layer.scales.astype(np.float32))
    tensorio.write_container(directory / "biases.tc", layer.biases.astype(np.float32))
    tensorio.write_container(directory / "gammas.tc", layer.gammas.astype(np.float32))
    if packed:
        tensorio.write_packed(directory / "codes.pc",
                              tensorio.pack_codes(layer.codes.ravel(), layer.bits))
    else:
        tensorio.write_container(directory / "codes.tc", layer.codes.astype(np.uint8))


class LayerMetaError(tensorio.TensorIOError):
    """A layer's meta.json lacks a required key or holds one of the wrong type."""


_LAYER_META_TYPES = {"d_in": int, "d_out": int, "bits": int, "group_size": int,
                     "codes_packed": bool}


def _read_layer_meta(path: Path) -> dict:
    with open(path) as f:
        meta = json.load(f)
    if not isinstance(meta, dict):
        raise LayerMetaError(f"{path}: layer metadata is not a JSON object")
    for key, kind in _LAYER_META_TYPES.items():
        if key not in meta:
            raise LayerMetaError(f"{path}: layer metadata lacks required key {key!r}")
        if not tensorio.json_value_is(meta[key], kind):
            raise LayerMetaError(f"{path}: layer metadata key {key!r} must be "
                                 f"{kind.__name__}, got {meta[key]!r}")
    return meta


def load_layer(directory: str | Path) -> QuantizedLayer:
    directory = Path(directory)
    meta = _read_layer_meta(directory / LAYER_META_FILENAME)
    d_in, d_out = int(meta["d_in"]), int(meta["d_out"])
    if meta["codes_packed"]:
        packed = tensorio.read_packed(directory / "codes.pc")
        if packed.count != d_in * d_out:
            raise tensorio.PayloadMismatchError("code count disagrees with layer dims")
        codes = tensorio.unpack_codes(packed).reshape(d_out, d_in)
    else:
        codes = tensorio.read_container(directory / "codes.tc").array.reshape(d_out, d_in)
    layer = QuantizedLayer(
        d_in=d_in,
        d_out=d_out,
        bits=int(meta["bits"]),
        group_size=int(meta["group_size"]),
        scales=tensorio.read_container(directory / "scales.tc").array,
        biases=tensorio.read_container(directory / "biases.tc").array,
        gammas=tensorio.read_container(directory / "gammas.tc").array,
        codes=codes,
        meta=meta.get("meta", {}),
    )
    layer.validate()
    return layer
