"""Container round-trips, bit packing, and report emission."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdescent import tensorio
from qdescent.tensorio import (BenchRecord, MalformedHeaderError, MalformedJSONError,
                               NonFiniteDataError, PackedCodes, PayloadMismatchError,
                               TensorContainer, TensorIOError, check_json, emit_report,
                               pack_codes, read_container, read_json, read_packed, unpack_codes,
                               write_container, write_packed)


def test_container_roundtrip_identity(tmp_path):
    arr = np.eye(2, dtype=np.float32)
    path = tmp_path / "id.tc"
    write_container(path, arr)
    back = read_container(path).array
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_container_roundtrip_bit_exact_f32(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 5)).astype(np.float32)
    path = tmp_path / "x.tc"
    write_container(path, arr)
    back = read_container(path).array
    assert back.tobytes() == arr.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_container_roundtrip_dtypes(tmp_path, dtype):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 200, size=(3, 4)).astype(dtype)
    path = tmp_path / "d.tc"
    write_container(path, arr)
    back = read_container(path)
    assert back.array.dtype == dtype
    assert back.array.shape == (3, 4)
    np.testing.assert_array_equal(back.array, arr)


def test_container_empty_shape_ok(tmp_path):
    arr = np.zeros((0,), dtype=np.float32)
    path = tmp_path / "empty.tc"
    write_container(path, arr)
    back = read_container(path).array
    assert back.shape == (0,)


def test_container_truncated_payload(tmp_path):
    path = tmp_path / "trunc.tc"
    write_container(path, np.ones((4, 4), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(PayloadMismatchError, match="payload length mismatch"):
        read_container(path)


@pytest.mark.parametrize("change, found", [(-1, 47), (1, 49)])
def test_container_payload_one_byte_off(tmp_path, change, found):
    path = tmp_path / "off.tc"
    write_container(path, np.arange(12, dtype=np.float32).reshape(3, 4))
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + b"\x00")
    with pytest.raises(PayloadMismatchError,
                       match=f"header declares 48 bytes, file has {found}$"):
        read_container(path)


def _header(dtype_tag, dims):
    """A container header declaring ``dims``, for a payload written by hand."""
    return (b"QDTC" + struct.pack("<IBBI", 1, dtype_tag, 1, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims))


def _huge_dims_container(path, dims):
    """A f64 container whose header declares ``dims`` and whose payload is 8 bytes."""
    path.write_bytes(_header(1, dims) + struct.pack("<d", 1.0))


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 64 - 1,)])
def test_container_huge_dims_report_true_byte_count(tmp_path, dims):
    # In int64 these element counts wrap: 2^64 to 0 bytes (which passed the
    # length check) and 2^64 - 1 to -1, i.e. "-8 bytes".
    path = tmp_path / "huge.tc"
    _huge_dims_container(path, dims)
    declared = 8 * dims[0] * (dims[1] if len(dims) > 1 else 1)
    with pytest.raises(PayloadMismatchError,
                       match=f"header declares {declared} bytes, file has 8$"):
        read_container(path)


@pytest.mark.parametrize("offset, value, message", [
    (4, struct.pack("<I", 2), "unsupported container version 2"),
    (9, b"\x00", "only row-major containers are supported"),
    (10, struct.pack("<I", 0), "invalid rank 0"),
    (10, struct.pack("<I", 33), "invalid rank 33"),
    (10, struct.pack("<I", 3), "truncated header"),
])
def test_container_malformed_header_messages(tmp_path, offset, value, message):
    path = tmp_path / "hdr.tc"
    write_container(path, np.ones(1, dtype=np.uint8))  # header 22 bytes, payload 1
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(value)] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedHeaderError, match=f"^{re.escape(str(path))}: {message}$"):
        read_container(path)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.tc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(MalformedHeaderError):
        read_container(path)


def test_container_bad_dtype_tag(tmp_path):
    path = tmp_path / "bad2.tc"
    write_container(path, np.ones(3, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedHeaderError):
        read_container(path)


def test_nan_rejected_at_write(tmp_path):
    arr = np.array([1.0, np.nan], dtype=np.float32)
    with pytest.raises(NonFiniteDataError):
        write_container(tmp_path / "nan.tc", arr)
    with pytest.raises(NonFiniteDataError):
        write_container(tmp_path / "inf.tc", np.array([np.inf], dtype=np.float64))


def test_nan_rejected_at_read(tmp_path):
    # Craft a file whose payload holds a NaN without going through write_container.
    path = tmp_path / "craft.tc"
    path.write_bytes(_header(0, (1,)) + struct.pack("<f", float("nan")))
    with pytest.raises(NonFiniteDataError):
        read_container(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(MalformedHeaderError):
        write_container(tmp_path / "i64.tc", np.ones(3, dtype=np.int64))


# ---------------------------------------------------------------------------
# widened reads: read_container(path, dtype=np.float64)

#: Chunk sizes in elements: 1, 3, 5 (which divides no row of 7 elements) and the default.
CHUNKS = [1, 3, 5, tensorio.READ_CHUNK_ELEMENTS]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
@pytest.mark.parametrize("shape", [(4, 7), (31,), (0,), (3, 0), (2, 0, 5)])
def test_widened_read_equals_astype(tmp_path, monkeypatch, chunk, dtype, shape):
    rng = np.random.default_rng(len(shape))
    arr = (rng.integers(0, 256, shape) if dtype is np.uint8 else rng.standard_normal(shape) * 100
           ).astype(dtype)
    path = tmp_path / "w.tc"
    write_container(path, arr)
    monkeypatch.setattr(tensorio, "READ_CHUNK_ELEMENTS", chunk)
    plain = read_container(path).array
    wide = read_container(path, dtype=np.float64).array
    assert plain.dtype == dtype and wide.dtype == np.float64 and wide.shape == shape
    assert wide.tobytes() == plain.astype(np.float64).tobytes()


def _errors(path, **kwargs):
    """The (class, message) that reading ``path`` raises."""
    with pytest.raises(TensorIOError) as info:
        read_container(path, **kwargs)
    return type(info.value), str(info.value)


def _same_error_widened(path):
    plain = _errors(path)
    assert plain == _errors(path, dtype=np.float64)
    assert plain[1].startswith(f"{path}: ")
    return plain


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("cut", [-8, -1, 1])
def test_widened_read_length_errors_match(tmp_path, monkeypatch, chunk, cut):
    monkeypatch.setattr(tensorio, "READ_CHUNK_ELEMENTS", chunk)
    path = tmp_path / "cut.tc"
    write_container(path, np.arange(28, dtype=np.float32).reshape(4, 7))
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\x00" * cut)
    kind, message = _same_error_widened(path)
    assert kind is PayloadMismatchError and message.endswith(f"file has {112 + cut}")


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 64 - 1,)])
def test_widened_read_huge_dims_errors_match(tmp_path, dims):
    path = tmp_path / "huge.tc"
    _huge_dims_container(path, dims)
    assert _same_error_widened(path)[0] is PayloadMismatchError


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("where", [0, 13, 27])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_widened_read_non_finite_in_any_chunk(tmp_path, monkeypatch, chunk, where, bad):
    # Element 0 is in the first chunk, 13 in a middle one (for chunks of 1, 3
    # and 5) and 27 in the last.
    monkeypatch.setattr(tensorio, "READ_CHUNK_ELEMENTS", chunk)
    arr = np.arange(28, dtype=np.float32)
    arr[where] = bad
    path = tmp_path / "bad.tc"
    path.write_bytes(_header(0, arr.shape) + arr.tobytes())
    kind, message = _same_error_widened(path)
    assert kind is NonFiniteDataError and message.endswith("container holds non-finite values")


def test_widened_read_refuses_a_lossy_dtype(tmp_path):
    path = tmp_path / "f64.tc"
    write_container(path, np.ones(3))
    with pytest.raises(TensorIOError, match=f"^{re.escape(str(path))}: float64 payload cannot "
                                            "be read as float32 without loss$"):
        read_container(path, dtype=np.float32)
    write_container(path, np.ones(3, dtype=np.uint8))
    assert read_container(path, dtype=np.float32).array.tolist() == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# packing


def test_pack_examples_forced_by_bit_order():
    assert pack_codes([1, 2], 4).payload == bytes([0x21])
    assert pack_codes([7, 7, 7], 3).payload == bytes([0xFF, 0x01])
    assert pack_codes([3, 0, 1, 2], 2).payload == bytes([0x93])


def test_pack_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        pack_codes([4], 2)
    with pytest.raises(ValueError):
        pack_codes([-1], 3)


def test_pack_empty():
    packed = pack_codes([], 5)
    assert packed.count == 0 and packed.payload == b""
    assert unpack_codes(packed).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_pack_unpack_bijection(c, data):
    n = data.draw(st.integers(min_value=0, max_value=200))
    codes = data.draw(st.lists(st.integers(0, 2 ** c - 1), min_size=n, max_size=n))
    packed = pack_codes(codes, c)
    assert len(packed.payload) == (n * c + 7) // 8
    np.testing.assert_array_equal(unpack_codes(packed), np.asarray(codes, dtype=np.uint8))


def test_packed_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 8, size=1000)
    packed = pack_codes(codes, 3)
    path = tmp_path / "codes.pc"
    write_packed(path, packed)
    back = read_packed(path)
    assert back == packed
    np.testing.assert_array_equal(unpack_codes(back), codes.astype(np.uint8))


def test_packed_nonzero_padding_rejected():
    packed = pack_codes([1, 1, 1], 3)  # 9 bits, 7 pad bits
    tampered = PackedCodes(bit_width=3, count=3,
                           payload=packed.payload[:1] + bytes([packed.payload[1] | 0x80]))
    with pytest.raises(PayloadMismatchError):
        unpack_codes(tampered)


# ---------------------------------------------------------------------------
# reports


def _records(n):
    return [BenchRecord(method="cd", bits=3, group_size=0, block_size=0, epochs=1,
                        column=j, objective=1.5 * j, relative_objective=0.1 * j,
                        steps=j, wall_millis=0.0) for j in range(n)]


def test_emit_csv(tmp_path):
    path = tmp_path / "r.csv"
    emit_report(_records(1), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("method,bits,group_size,block_size,epochs,column,objective")


def test_emit_empty_rejected(tmp_path):
    with pytest.raises(ValueError, match="empty report"):
        emit_report([], tmp_path / "never.csv")


def test_emit_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(_records(5), a)
    emit_report(_records(5), b)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# JSON inputs

_TYPES = {"n": int, "x": float, "names": [str], "flag": bool}


@pytest.mark.parametrize("obj, checks, message", [
    ([1], {}, "where is not a JSON object"),
    ({"x": 1}, {"required": ("n",)}, "where lacks required key 'n'"),
    ({"n": 1, "z": 0, "a": 0}, {}, "where holds unknown keys ['a', 'z']"),
    ({"n": True}, {}, "where key 'n' must be an integer, got true"),
    ({"n": None}, {"nullable": ("x",)}, "where key 'n' must be an integer, got null"),
    ({"x": "1"}, {}, "where key 'x' must be a number, got \"1\""),
    ({"names": ["a", 1]}, {}, "where key 'names' must be a list, each entry a string, "
                              "got [\"a\", 1]"),
    ({"n": 0}, {"rules": {"n": (lambda v: v >= 1, "at least 1")}},
     "where key 'n' must be at least 1, got 0"),
])
def test_check_json_names_where_and_key(obj, checks, message):
    with pytest.raises(ValueError) as info:
        check_json("where", obj, _TYPES, **checks)
    assert str(info.value) == message


def test_check_json_accepts_a_valid_object():
    obj = {"n": None, "x": 1, "names": [], "flag": False, "other": [1]}
    rules = {"n": (lambda v: v >= 1, "at least 1"), "names": (lambda v: v == [], "empty")}
    assert check_json("where", obj, _TYPES, required=("x",), nullable=("n",), strict=False,
                      rules=rules) is obj

    class Custom(Exception):
        pass

    with pytest.raises(Custom, match="^where holds unknown keys \\['other'\\]$"):
        check_json("where", obj, _TYPES, nullable=("n",), error=Custom)


def test_read_json_decodes_utf8_and_names_the_file(tmp_path):
    path = tmp_path / "in.json"
    path.write_bytes('{"name": "é"}'.encode("utf-8"))
    assert read_json(path, "input", {"name": str}) == {"name": "é"}
    path.write_bytes('{"name": "é"}'.encode("latin-1"))
    with pytest.raises(MalformedJSONError,
                       match=f"^{re.escape(str(path))}: not a UTF-8 JSON file: .*utf-8"):
        read_json(path, "input", {"name": str})
    path.write_bytes(b'{"name": 1}')
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: input key 'name' must be a string, got 1$"):
        read_json(path, "input", {"name": str})
