"""Binary tensor containers, low-bit code packing, and benchmark reports.

File formats
------------
Tensor container (``.tc``), little-endian throughout:

    magic    4 bytes  b"QDTC"
    version  u32      currently 1
    dtype    u8       0 = f32, 1 = f64, 2 = u8
    order    u8       1 = row-major (the only supported layout)
    ndim     u32
    dims     u64 * ndim
    payload  raw row-major element bytes

Packed code stream (``.pc``):

    magic      4 bytes  b"QDPC"
    version    u32      currently 1
    bit_width  u8       1..8
    count      u64      number of codes
    payload    ceil(count * bit_width / 8) bytes

Code ``j`` of the stream occupies bits ``[j*c, (j+1)*c)`` counted from bit 0
(the least significant bit) of byte 0; bits are little-endian within each
byte and the final byte is zero-padded. Example for c=4, codes [1, 2]:
single byte 0x21 (code 0 in the low nibble).

Floating-point payloads must be finite: NaN/Inf is rejected at write time
and again at read time, so corrupt or undefined data never enters the
optimization pipeline. JSON inputs are decoded as UTF-8 whatever the locale
and checked by :func:`check_json`, and every read error names its file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CONTAINER_MAGIC = b"QDTC"
PACKED_MAGIC = b"QDPC"
FORMAT_VERSION = 1

_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_TAG_TO_DTYPE = {v: k for k, v in _DTYPE_TO_TAG.items()}


class TensorIOError(Exception):
    """Base class for container/packing format errors."""


class MalformedHeaderError(TensorIOError):
    """Header bytes do not describe a valid container."""


class PayloadMismatchError(TensorIOError):
    """Payload length disagrees with the header-declared shape."""


class NonFiniteDataError(TensorIOError):
    """Floating-point payload contains NaN or Inf."""


class MalformedJSONError(TensorIOError):
    """A JSON input file is not valid UTF-8 JSON."""


@contextmanager
def naming(path: str | Path):
    """Prefix ``path`` to the message of a TensorIOError raised in the block."""
    try:
        yield
    except TensorIOError as exc:
        raise type(exc)(f"{path}: {exc}") from None


_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
                    dict: "an object"}


def json_value_is(value, kind) -> bool:
    """Type check of a decoded JSON value: a bool is not an int, an int is a float,
    and ``[kind]`` stands for a list of kind."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(json_value_is(v, kind[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def check_json(where: str, obj, types: dict, *, required=(), nullable=(), strict=True,
               rules=None, error: type[Exception] = ValueError) -> dict:
    """``obj`` once it is a JSON object holding the ``required`` keys, no other key
    than ``types``' unless not ``strict``, and each key of its type in ``types`` (or
    null where ``nullable``) that passes its ``(test, text)`` rule; else ``error``."""
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    for key in required:
        if key not in obj:
            raise error(f"{where} lacks required key {key!r}")
    unknown = sorted(set(obj) - set(types))
    if strict and unknown:
        raise error(f"{where} holds unknown keys {unknown}")
    rules = rules or {}
    for key, kind in types.items():
        value = obj.get(key)
        if key not in obj or value is None and key in nullable:
            continue
        if not json_value_is(value, kind):
            text = (f"a list, each entry {_JSON_TYPE_NAMES[kind[0]]}" if isinstance(kind, list)
                    else _JSON_TYPE_NAMES[kind])
        elif key in rules and not rules[key][0](value):
            text = rules[key][1]
        else:
            continue
        got = json.dumps(value)
        got = got if len(got) <= 60 else got[:60] + "…"  # one short line, however long or deep
        raise error(f"{where} key {key!r} must be {text}, got {got}")
    return obj


def read_json(path: str | Path, what: str, types: dict, **checks) -> dict:
    """The UTF-8 JSON object in the file at ``path``, checked by :func:`check_json` as
    ``"<path>: <what>"``; MalformedJSONError names the path if the file is not JSON."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also too deep a nesting, too long an int
        raise MalformedJSONError(f"{path}: not a UTF-8 JSON file: {exc}") from None
    return check_json(f"{path}: {what}", obj, types, **checks)


@dataclass(frozen=True)
class TensorContainer:
    """In-memory image of a container file: its payload array."""

    array: np.ndarray


def write_container(path: str | Path, array: np.ndarray) -> None:
    """Write a tensor container; raises NonFiniteDataError on NaN/Inf payloads."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _DTYPE_TO_TAG:
        raise MalformedHeaderError(f"unsupported dtype {arr.dtype} (use f32, f64 or u8)")
    if arr.ndim == 0:
        raise MalformedHeaderError("shape must be nonempty (0-d tensors not supported)")
    if arr.dtype.kind == "f" and arr.size and not np.isfinite(arr).all():
        raise NonFiniteDataError("refusing to write non-finite values")

    header = bytearray()
    header += CONTAINER_MAGIC
    header += struct.pack("<I", FORMAT_VERSION)
    header += struct.pack("<BB", _DTYPE_TO_TAG[arr.dtype], 1)
    header += struct.pack("<I", arr.ndim)
    for dim in arr.shape:
        header += struct.pack("<Q", dim)

    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C")
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(payload)


#: Elements of payload read, checked and cast at a time: 1 MiB of an f32 file.
READ_CHUNK_ELEMENTS = 1 << 18


def read_container(path: str | Path, dtype=None) -> TensorContainer:
    """Read a container written by :func:`write_container`.

    The header is parsed and the payload length checked against the file size
    before the payload is read, ``READ_CHUNK_ELEMENTS`` at a time, each chunk
    checked for NaN/Inf and cast into the returned array of ``dtype`` (default:
    the file's). So an f32 file read as float64 is never held whole as f32. A
    ``dtype`` the payload cannot be cast to without loss is refused.
    """
    with naming(path), open(path, "rb") as f:
        head = f.read(14)
        if len(head) < 14 or head[:4] != CONTAINER_MAGIC:
            raise MalformedHeaderError("bad magic: not a tensor container")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != FORMAT_VERSION:
            raise MalformedHeaderError(f"unsupported container version {version}")
        dtype_tag, order_flag = struct.unpack_from("<BB", head, 8)
        if dtype_tag not in _TAG_TO_DTYPE:
            raise MalformedHeaderError(f"unknown dtype tag {dtype_tag}")
        if order_flag != 1:
            raise MalformedHeaderError("only row-major containers are supported")
        (ndim,) = struct.unpack_from("<I", head, 10)
        if ndim == 0 or ndim > 32:
            raise MalformedHeaderError(f"invalid rank {ndim}")
        dims = f.read(8 * ndim)
        if len(dims) < 8 * ndim:
            raise MalformedHeaderError("truncated header")
        shape = struct.unpack(f"<{ndim}Q", dims)
        offset = 14 + 8 * ndim

        stored = _TAG_TO_DTYPE[dtype_tag]
        target = stored if dtype is None else np.dtype(dtype)
        if not np.can_cast(stored, target, "safe"):
            raise TensorIOError(f"{stored} payload cannot be read as {target} without loss")
        expected = math.prod(shape) * stored.itemsize  # Python ints: no wraparound
        size = os.fstat(f.fileno()).st_size - offset
        if size != expected:
            raise PayloadMismatchError(
                f"payload length mismatch: header declares {expected} bytes, file has {size}"
            )
        arr = np.empty(shape, dtype=target)
        flat = arr.reshape(-1)
        chunk = np.empty(min(flat.size, READ_CHUNK_ELEMENTS), stored.newbyteorder("<"))
        got, finite = 0, True
        for start in range(0, flat.size, READ_CHUNK_ELEMENTS):
            part = chunk[:flat.size - start]
            n = f.readinto(part.view(np.uint8))
            got += n
            if n != part.nbytes:
                break
            finite = finite and (stored.kind != "f" or bool(np.isfinite(part).all()))
            flat[start:start + part.size] = part
        if got != expected:
            raise PayloadMismatchError(
                f"payload length mismatch: header declares {expected} bytes, file has {got}"
            )
        if not finite:
            raise NonFiniteDataError("container holds non-finite values")
    return TensorContainer(array=arr)


@dataclass(frozen=True)
class PackedCodes:
    """Bit-packed low-bit integer codes."""

    bit_width: int
    count: int
    payload: bytes

    def __post_init__(self):
        if not 1 <= self.bit_width <= 8:
            raise ValueError(f"bit_width must be in 1..8, got {self.bit_width}")
        expected = (self.count * self.bit_width + 7) // 8
        if len(self.payload) != expected:
            raise PayloadMismatchError(
                f"packed payload has {len(self.payload)} bytes, expected {expected}"
            )


def pack_codes(codes: Sequence[int] | np.ndarray, bit_width: int) -> PackedCodes:
    """Pack integer codes into the canonical little-endian bit stream."""
    if not 1 <= bit_width <= 8:
        raise ValueError(f"bit_width must be in 1..8, got {bit_width}")
    arr = np.asarray(codes, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << bit_width)):
        raise ValueError(f"code out of range for {bit_width}-bit packing")
    # One row of little-endian bits per code, flattened so that bit j*c+t of
    # the stream is bit t of code j, then packed LSB-first.
    bits = ((arr[:, None] >> np.arange(bit_width)) & 1).astype(np.uint8)
    payload = np.packbits(bits.ravel(), bitorder="little").tobytes()
    return PackedCodes(bit_width=bit_width, count=int(arr.size), payload=payload)


def unpack_codes(packed: PackedCodes) -> np.ndarray:
    """Invert :func:`pack_codes`; returns a uint8 vector of length ``count``."""
    c = packed.bit_width
    nbits = packed.count * c
    flat = np.unpackbits(np.frombuffer(packed.payload, dtype=np.uint8), bitorder="little")
    if flat[nbits:].any():
        raise PayloadMismatchError("nonzero padding bits in packed stream")
    bits = flat[:nbits].reshape(packed.count, c).astype(np.uint16)
    codes = (bits << np.arange(c, dtype=np.uint16)).sum(axis=1)
    return codes.astype(np.uint8)


def write_packed(path: str | Path, packed: PackedCodes) -> None:
    with open(path, "wb") as f:
        f.write(PACKED_MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<BQ", packed.bit_width, packed.count))
        f.write(packed.payload)


def read_packed(path: str | Path) -> PackedCodes:
    with naming(path), open(path, "rb") as f:
        raw = f.read()
        if len(raw) < 17 or raw[:4] != PACKED_MAGIC:
            raise MalformedHeaderError("bad magic: not a packed code stream")
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != FORMAT_VERSION:
            raise MalformedHeaderError(f"unsupported packed-codes version {version}")
        bit_width, count = struct.unpack_from("<BQ", raw, 8)
        if not 1 <= bit_width <= 8:
            raise MalformedHeaderError(f"packed bit width must be in 1..8, got {bit_width}")
        return PackedCodes(bit_width=bit_width, count=count, payload=raw[17:])


@dataclass(frozen=True)
class BenchRecord:
    """One (method, column) measurement row of a quantization run."""

    method: str
    bits: int
    group_size: int
    block_size: int
    epochs: int
    column: int
    objective: float
    relative_objective: float
    steps: int
    wall_millis: float


REPORT_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def emit_report(records: Iterable[BenchRecord], path: str | Path) -> None:
    """Write records as CSV with a header row of ``REPORT_COLUMNS``, in input order."""
    rows = list(records)
    if not rows:
        raise ValueError("empty report")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for rec in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in (getattr(rec, col) for col in REPORT_COLUMNS)])
