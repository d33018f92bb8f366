"""Corrupted inputs end in a documented exit code, never in a traceback.

Each example corrupts one file of a valid set of inputs (weights,
calibration, a packed and an unpacked layer, a config file), runs
``cli.main`` in-process on it (``quantize`` for the weights, calibration and
config, ``eval`` for the layer files) and restores the file. Every
corruption below makes the input invalid, so the run must return 2, 3, 4 or
5 with a one-line error; an exception escaping ``main`` fails the test.
Pytest parameters pick what to corrupt, so that every field and key is
covered, and hypothesis draws the new bytes and values. The runs are
derandomized, so the examples are the same on every run.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qdescent import tensorio
from qdescent.cli import EXIT_GUARD, EXIT_IO, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from qdescent.descent import METHODS
from qdescent.quantcore import LAYER_META_FILENAME

ERROR_CODES = {EXIT_USAGE, EXIT_IO, EXIT_SHAPE, EXIT_GUARD}
# Each example resets capsys itself, so the function-scoped fixture is safe to share.
FUZZ = dict(deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.function_scoped_fixture])

#: (offset, size) of each header field of a ``.tc`` container (2-d) and a ``.pc`` stream.
TC_FIELDS = ((0, 4), (4, 4), (8, 1), (9, 1), (10, 4), (14, 8), (22, 8))
PC_FIELDS = ((0, 4), (4, 4), (8, 1), (9, 8))
#: (file, header fields, command) for each binary input.
BINARY_TARGETS = {
    "weights": ("w.tc", TC_FIELDS, "quantize"),
    "calib": ("x.tc", TC_FIELDS, "quantize"),
    "codes.pc": ("packed/codes.pc", PC_FIELDS, "eval-packed"),
    "scales": ("packed/scales.tc", TC_FIELDS, "eval-packed"),
    "biases": ("packed/biases.tc", TC_FIELDS, "eval-packed"),
    "gammas": ("packed/gammas.tc", TC_FIELDS, "eval-packed"),
    "codes.tc": ("unpacked/codes.tc", TC_FIELDS, "eval-unpacked"),
}
#: A valid grouped bcd run with ``--owc-cd``, so that every config key is read.
CONFIG = {"method": "bcd", "bits": 3, "group_size": 4, "block_size": 2, "epochs": 1,
          "steps": 4, "grid_size": 8, "lambda_rel": 0.01, "clip_fraction": 0.0, "seed": 1,
          "threads": 1, "owc_cd": True, "report_format": "csv"}
CONFIG_TYPES = {"method": str, "bits": int, "group_size": int, "block_size": int,
                "epochs": int, "steps": int, "grid_size": int, "lambda_rel": float,
                "clip_fraction": float, "seed": int, "threads": int, "owc_cd": bool,
                "report_format": str}
#: Config keys where null means "use the default"; for these, null is valid.
CONFIG_NULL_OK = ("block_size", "steps", "threads")
#: Values outside each config key's range. Only invalid directions: a large
#: budget or grid would be valid and merely slow.
OUT_OF_RANGE = {
    "method": st.text(max_size=6).filter(lambda s: s not in METHODS),
    "bits": st.integers().filter(lambda b: not 1 <= b <= 8),
    "group_size": st.integers(max_value=-1) | st.sampled_from([3, 5, 6, 7, 9, 16]),
    "block_size": st.integers(max_value=0) | st.sampled_from([3, 5, 16]),
    "epochs": st.integers(max_value=0),
    "steps": st.integers(max_value=-1),
    "grid_size": st.integers(max_value=0),
    "lambda_rel": st.floats(max_value=-1e-300) | st.sampled_from([float("nan"), float("inf")]),
    "clip_fraction": (st.floats(max_value=-1e-300) | st.floats(min_value=1.0)
                      | st.just(float("nan"))),
    "seed": st.integers(max_value=-1),
    "report_format": st.text(max_size=6).filter(lambda s: s not in ("csv", "jsonl")),
}
#: Layer keys that ``eval`` reads, and the JSON type of each.
LAYER_TYPES = {"d_in": int, "d_out": int, "bits": int, "group_size": int, "codes_packed": bool}
RUN_TYPES = {"weights_path": str, "method": str, "lambda_rel": float, "clip_fraction": float,
             "block_size": int, "epochs": int}

json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
json_non_objects = json_leaves | st.lists(json_values, max_size=3)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Valid inputs: 8 x 2 weights, calibration, a packed and an unpacked grouped layer."""
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(0)
    tensorio.write_container(root / "w.tc", rng.standard_normal((8, 2)).astype(np.float32))
    tensorio.write_container(root / "x.tc", rng.standard_normal((32, 8)).astype(np.float32))
    (root / "config.json").write_text(json.dumps(CONFIG))
    for name, extra in (("packed", []), ("unpacked", ["--unpacked-codes"])):
        assert main(["quantize", "--weights", str(root / "w.tc"), "--calib", str(root / "x.tc"),
                     "--out", str(root / name), "--method", "cd", "--bits", "3",
                     "--group-size", "4", "--no-timing"] + extra) == EXIT_OK
    for command in ("quantize", "eval-packed", "eval-unpacked"):
        assert _run(root, command) == EXIT_OK
    return root


def _run(root: Path, command: str) -> int:
    inputs = ["--weights", str(root / "w.tc"), "--calib", str(root / "x.tc")]
    if command == "quantize":
        return main(["quantize", *inputs, "--config", str(root / "config.json"),
                     "--out", str(root / "out")])
    layer = root / command.split("-")[1]
    return main(["eval", "--layer", str(layer), *inputs, "--out", str(root / "eval.csv")])


def _run_corrupted(pristine: Path, name: str, data: bytes, command: str, capsys) -> None:
    original = (pristine / name).read_bytes()
    assume(data != original)
    (pristine / name).write_bytes(data)
    try:
        capsys.readouterr()
        code = _run(pristine, command)
    finally:
        (pristine / name).write_bytes(original)
    err = capsys.readouterr().err
    assert code in ERROR_CODES, (name, data, code)
    assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=30, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("target", sorted(BINARY_TARGETS))
def test_corrupted_binary_header_exits_with_a_code(pristine, capsys, target, st_data):
    # One header field gets a drawn value, a few more header bytes may change
    # and the file may be cut short; an unchanged file is skipped.
    name, fields, command = BINARY_TARGETS[target]
    raw = bytearray((pristine / name).read_bytes())
    offset, size = st_data.draw(st.sampled_from(fields))
    value = st_data.draw(st.integers(0, 2 ** (8 * size) - 1))
    raw[offset:offset + size] = value.to_bytes(size, "little")
    header = sum(fields[-1])
    for offset, byte in st_data.draw(st.lists(st.tuples(st.integers(0, header - 1),
                                                        st.integers(0, 255)), max_size=3)):
        raw[offset] = byte
    cut = st_data.draw(st.none() | st.integers(0, len(raw) - 1))
    _run_corrupted(pristine, name, bytes(raw[:cut]), command, capsys)


def _wrong_type(st_data, kind, null_ok=False):
    return st_data.draw(json_values.filter(
        lambda v: not tensorio.json_value_is(v, kind) and not (null_ok and v is None)))


@settings(max_examples=12, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(LAYER_TYPES))
@pytest.mark.parametrize("layer", ["packed", "unpacked"])
def test_layer_meta_other_value_exits_with_a_code(pristine, capsys, layer, key, st_data):
    # With 2 groups of 4 and 3-bit packed codes, any other value of a single
    # layer key disagrees with the stored files. Unpacked codes are also valid
    # at any width that holds the largest one.
    meta = json.loads((pristine / layer / LAYER_META_FILENAME).read_text())
    stored = meta[key]
    if key == "codes_packed":
        meta[key] = not stored
    else:
        widest = int(tensorio.read_container(pristine / "unpacked/codes.tc").array.max())
        meta[key] = st_data.draw(st.integers(-2, 2 * stored + 2).filter(
            lambda v: v != stored and not (layer == "unpacked" and key == "bits"
                                           and widest.bit_length() <= v <= 8)))
    _run_corrupted(pristine, f"{layer}/{LAYER_META_FILENAME}", json.dumps(meta).encode(),
                   f"eval-{layer}", capsys)


@settings(max_examples=25, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("how", ["truncate", "drop", "type", "run-type", "not-dict"])
def test_corrupted_layer_meta_exits_with_a_code(pristine, capsys, how, st_data):
    layer = st_data.draw(st.sampled_from(["packed", "unpacked"]))
    text = (pristine / layer / LAYER_META_FILENAME).read_text()
    meta = json.loads(text)
    if how == "truncate":
        data = text.encode()[:st_data.draw(st.integers(0, len(text) - 1))]
    else:
        if how == "drop":
            del meta[st_data.draw(st.sampled_from(sorted(LAYER_TYPES)))]
        elif how == "type":
            key = st_data.draw(st.sampled_from(sorted(LAYER_TYPES)))
            meta[key] = _wrong_type(st_data, LAYER_TYPES[key])
        elif how == "run-type":
            key = st_data.draw(st.sampled_from(sorted(RUN_TYPES)))
            meta["meta"][key] = _wrong_type(st_data, RUN_TYPES[key])
        else:
            meta = st_data.draw(json_non_objects)
        data = json.dumps(meta).encode()
    _run_corrupted(pristine, f"{layer}/{LAYER_META_FILENAME}", data, f"eval-{layer}", capsys)


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(CONFIG_TYPES))
def test_config_wrong_type_exits_with_a_code(pristine, capsys, key, st_data):
    config = dict(CONFIG, **{key: _wrong_type(st_data, CONFIG_TYPES[key], key in CONFIG_NULL_OK)})
    _run_corrupted(pristine, "config.json", json.dumps(config).encode(), "quantize", capsys)


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
def test_config_out_of_range_exits_with_a_code(pristine, capsys, key, st_data):
    config = dict(CONFIG, **{key: st_data.draw(OUT_OF_RANGE[key])})
    _run_corrupted(pristine, "config.json", json.dumps(config).encode(), "quantize", capsys)


@settings(max_examples=25, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("how", ["truncate", "unknown", "not-dict"])
def test_corrupted_config_exits_with_a_code(pristine, capsys, how, st_data):
    text = json.dumps(CONFIG)
    if how == "truncate":
        data = text.encode()[:st_data.draw(st.integers(0, len(text) - 1))]
    elif how == "unknown":
        key = st_data.draw(st.text(max_size=8).filter(lambda k: k not in CONFIG))
        data = json.dumps(dict(CONFIG, **{key: st_data.draw(json_values)})).encode()
    else:
        data = json.dumps(st_data.draw(json_non_objects)).encode()
    _run_corrupted(pristine, "config.json", data, "quantize", capsys)
