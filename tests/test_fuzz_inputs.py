"""Corrupted inputs end in a documented exit code, never in a traceback.

Each example corrupts one file of a valid set of inputs (weights,
calibration, a grouped and a per-channel layer, a config file, a bench suite),
runs ``cli.main`` in-process on it (``quantize`` for the weights, calibration
and config, ``eval`` for the layer files, ``bench`` for the suite) and
restores the file. Every corruption below makes the input invalid, so the
run must return 2, 3, 4 or 5 with a one-line error; an exception escaping
``main`` fails the test. A failed ``bench`` must also leave no output
directory, and must fail before it generates an instance or quantizes.
Pytest parameters pick what to corrupt, so that every field and key is
covered, and hypothesis draws the new bytes and values. The runs are
derandomized, so the examples are the same on every run.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from qdescent import calibration, descent, tensorio
from qdescent.cli import EXIT_GUARD, EXIT_IO, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from qdescent.quantcore import LAYER_META_FILENAME, METHODS

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
}
#: A valid grouped bcd run with ``--owc-cd``, so that every config key is read.
CONFIG = {"method": "bcd", "bits": 3, "group_size": 4, "block_size": 2, "epochs": 1,
          "steps": 4, "grid_size": 8, "lambda_rel": 0.01, "clip_fraction": 0.0, "seed": 1,
          "threads": 1, "owc_cd": True}
CONFIG_TYPES = {"method": str, "bits": int, "group_size": int, "block_size": int,
                "epochs": int, "steps": int, "grid_size": int, "lambda_rel": float,
                "clip_fraction": float, "seed": int, "threads": int, "owc_cd": bool}
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
}
#: A valid grouped suite with ``owc_cd`` on one 4 x 2 instance, so that every
#: suite and instance key is read and the valid runs take milliseconds.
INSTANCE = {"d_in": 4, "d_out": 2, "n": 8, "seed": 0, "spectrum_exponent": 1.0,
            "outlier_directions": 1, "outlier_gain": 10.0}
SUITE = {"instances": [INSTANCE], "methods": list(METHODS), "bits": [2], "group_size": 2,
         "block_size": 2, "epochs": 1, "grid_size": 8, "lambda_rel": 0.01, "clip_fraction": 0.0,
         "owc_cd": True}
SUITE_TYPES = {"instances": [dict], "methods": [str], "bits": [int], "group_size": int,
               "block_size": int, "epochs": int, "grid_size": int, "lambda_rel": float,
               "clip_fraction": float, "owc_cd": bool}
INSTANCE_TYPES = {"d_in": int, "d_out": int, "n": int, "seed": int, "spectrum_exponent": float,
                  "outlier_directions": int, "outlier_gain": float}
INSTANCE_REQUIRED = ("d_in", "d_out", "n", "seed")


def _with_one(valid, invalid):
    """Lists of ``valid`` entries with one ``invalid`` entry inserted."""
    return st.tuples(st.lists(valid, max_size=2), invalid, st.integers(0, 2)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


#: Values outside each suite key's range; an empty list is its own case below.
#: ``owc_cd`` has none of its own: the suite turns it on, so group size 0 is out
#: of range instead.
SUITE_OUT_OF_RANGE = {
    "methods": _with_one(st.sampled_from(METHODS), OUT_OF_RANGE["method"]),
    "bits": _with_one(st.integers(1, 8), OUT_OF_RANGE["bits"]),
    "group_size": st.integers(max_value=0) | st.integers(min_value=3).filter(lambda g: 4 % g),
    "block_size": st.integers(max_value=0) | st.just(3) | st.integers(min_value=5),
    **{key: OUT_OF_RANGE[key] for key in ("epochs", "grid_size", "lambda_rel", "clip_fraction")},
}
#: Values outside each instance key's range for a 4 x 2 instance; a spectrum
#: exponent of -600 or below overflows (i+1)^-exponent at d_in 4.
INSTANCE_OUT_OF_RANGE = {
    "d_in": st.integers(max_value=0),
    "d_out": st.integers(max_value=0),
    "n": st.integers(max_value=0),
    "seed": st.integers(max_value=-1),
    "spectrum_exponent": st.floats(max_value=-600.0) | st.just(float("nan")),
    "outlier_directions": st.integers(max_value=-1) | st.integers(min_value=5),
    "outlier_gain": (st.floats(max_value=1.0, exclude_max=True)
                     | st.sampled_from([float("nan"), float("inf")])),
}
#: Layer keys that ``eval`` reads, and the JSON type of each.
LAYER_TYPES = {"format_version": int, "d_in": int, "d_out": int, "bits": int, "group_size": int}
RUN_TYPES = {"weights_path": str, "method": str, "lambda_rel": float, "clip_fraction": float,
             "block_size": int, "epochs": int, "steps": int}

json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
json_non_objects = json_leaves | st.lists(json_values, max_size=3)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Valid inputs: 8 x 2 weights, calibration, a grouped layer (in ``packed``) and a
    per-channel one (in ``channel``)."""
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(0)
    tensorio.write_container(root / "w.tc", rng.standard_normal((8, 2)).astype(np.float32))
    tensorio.write_container(root / "x.tc", rng.standard_normal((32, 8)).astype(np.float32))
    (root / "config.json").write_text(json.dumps(CONFIG))
    for name, extra in (("packed", ["--group-size", "4"]), ("channel", [])):
        assert main(["quantize", "--weights", str(root / "w.tc"), "--calib", str(root / "x.tc"),
                     "--out", str(root / name), "--method", "cd", "--bits", "3",
                     "--no-timing"] + extra) == EXIT_OK
    for command in ("quantize", "eval-packed", "eval-channel"):
        assert _run(root, command) == EXIT_OK
    return root


def _run(root: Path, command: str) -> int:
    inputs = ["--weights", str(root / "w.tc"), "--calib", str(root / "x.tc")]
    if command == "quantize":
        return main(["quantize", *inputs, "--config", str(root / "config.json"),
                     "--out", str(root / "out")])
    layer = root / command.split("-")[1]
    return main(["eval", "--layer", str(layer), *inputs, "--out", str(root / "eval.csv")])


def _run_corrupted(pristine: Path, name: str, data: bytes, command: str, capsys) -> tuple:
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
    return code, err


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
    code, err = _run_corrupted(pristine, name, bytes(raw[:cut]), command, capsys)
    # A file-format failure names the corrupted file.
    assert code != EXIT_IO or Path(name).name in err, err


def _is_kind(value, kind) -> bool:
    """Whether a JSON value has ``kind``; ``[kind]`` stands for a list of kind."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(tensorio.json_value_is(v, kind[0]) for v in value)
    return tensorio.json_value_is(value, kind)


def _wrong_type(st_data, kind, null_ok=False):
    return st_data.draw(json_values.filter(
        lambda v: not _is_kind(v, kind) and not (null_ok and v is None)))


@settings(max_examples=12, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(LAYER_TYPES))
@pytest.mark.parametrize("layer", ["packed", "channel"])
def test_layer_meta_other_value_exits_with_a_code(pristine, capsys, layer, key, st_data):
    # With 3-bit codes and 2 groups of 4 (or one group of 8), any other value of
    # a single layer key disagrees with the stored files.
    meta = json.loads((pristine / layer / LAYER_META_FILENAME).read_text())
    stored = meta[key]
    meta[key] = st_data.draw(st.integers(-2, 2 * stored + 2).filter(lambda v: v != stored))
    _run_corrupted(pristine, f"{layer}/{LAYER_META_FILENAME}", json.dumps(meta).encode(),
                   f"eval-{layer}", capsys)


@settings(max_examples=25, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("how", ["truncate", "drop", "type", "run-type", "not-dict"])
def test_corrupted_layer_meta_exits_with_a_code(pristine, capsys, how, st_data):
    layer = st_data.draw(st.sampled_from(["packed", "channel"]))
    text = (pristine / layer / LAYER_META_FILENAME).read_text()
    meta = json.loads(text)
    if how == "truncate":
        # Cut inside the JSON value, so that no example keeps it whole.
        data = text.encode()[:st_data.draw(st.integers(0, len(text.rstrip()) - 1))]
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


@pytest.fixture(scope="module")
def suite_root(tmp_path_factory):
    """A directory holding the valid suite, which ``bench`` runs with exit 0."""
    root = tmp_path_factory.mktemp("suite")
    (root / "suite.json").write_text(json.dumps(SUITE))
    assert main(["bench", "--suite", str(root / "suite.json"), "--out-dir", str(root / "valid"),
                 "--no-timing"]) == EXIT_OK
    return root


def _run_bench_on(root: Path, data: bytes, capsys) -> None:
    """Run ``bench`` on ``data`` as the suite file: it must fail with a code, one
    line and no output directory, before any instance is generated or quantized."""
    (root / "suite.json").write_bytes(data)
    calls = []
    try:
        with pytest.MonkeyPatch.context() as mp:
            for module, name in ((descent, "quantize_matrix"), (calibration, "gen_calibration")):
                mp.setattr(module, name, lambda *a, _f=getattr(module, name), _name=name, **kw:
                           calls.append(_name) or _f(*a, **kw))
            capsys.readouterr()
            code = main(["bench", "--suite", str(root / "suite.json"),
                         "--out-dir", str(root / "out"), "--no-timing"])
    finally:
        (root / "suite.json").write_text(json.dumps(SUITE))
    err = capsys.readouterr().err
    assert code in ERROR_CODES, (data, code)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (root / "out").exists(), data
    assert calls == [], (data, calls)


def _suite_with_instance(**inst) -> dict:
    return dict(SUITE, instances=[inst])


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(SUITE_TYPES))
def test_suite_wrong_type_exits_with_a_code(suite_root, capsys, key, st_data):
    suite = dict(SUITE, **{key: _wrong_type(st_data, SUITE_TYPES[key])})
    _run_bench_on(suite_root, json.dumps(suite).encode(), capsys)


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(SUITE_OUT_OF_RANGE))
def test_suite_out_of_range_exits_with_a_code(suite_root, capsys, key, st_data):
    suite = dict(SUITE, **{key: st_data.draw(SUITE_OUT_OF_RANGE[key])})
    _run_bench_on(suite_root, json.dumps(suite).encode(), capsys)


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(INSTANCE_TYPES))
def test_suite_instance_wrong_type_exits_with_a_code(suite_root, capsys, key, st_data):
    suite = _suite_with_instance(**dict(INSTANCE, **{key: _wrong_type(st_data,
                                                                      INSTANCE_TYPES[key])}))
    _run_bench_on(suite_root, json.dumps(suite).encode(), capsys)


@settings(max_examples=8, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("key", sorted(INSTANCE_OUT_OF_RANGE))
def test_suite_instance_out_of_range_exits_with_a_code(suite_root, capsys, key, st_data):
    suite = _suite_with_instance(**dict(INSTANCE, **{key: st_data.draw(
        INSTANCE_OUT_OF_RANGE[key])}))
    _run_bench_on(suite_root, json.dumps(suite).encode(), capsys)


@pytest.mark.parametrize("key", ["instances", "methods", "bits"])
def test_suite_empty_list_exits_with_a_code(suite_root, capsys, key):
    _run_bench_on(suite_root, json.dumps(dict(SUITE, **{key: []})).encode(), capsys)


@pytest.mark.parametrize("key", INSTANCE_REQUIRED)
def test_suite_instance_without_required_key_exits_with_a_code(suite_root, capsys, key):
    inst = {k: v for k, v in INSTANCE.items() if k != key}
    _run_bench_on(suite_root, json.dumps(_suite_with_instance(**inst)).encode(), capsys)


@settings(max_examples=25, **FUZZ)
@given(st_data=st.data())
@pytest.mark.parametrize("how", ["truncate", "unknown", "instance-unknown", "not-dict"])
def test_corrupted_suite_exits_with_a_code(suite_root, capsys, how, st_data):
    text = json.dumps(SUITE)
    if how == "truncate":
        data = text.encode()[:st_data.draw(st.integers(0, len(text) - 1))]
    elif how == "unknown":
        key = st_data.draw(st.text(max_size=8).filter(lambda k: k not in SUITE))
        data = json.dumps(dict(SUITE, **{key: st_data.draw(json_values)})).encode()
    elif how == "instance-unknown":
        key = st_data.draw(st.text(max_size=8).filter(lambda k: k not in INSTANCE))
        inst = dict(INSTANCE, **{key: st_data.draw(json_values)})
        data = json.dumps(_suite_with_instance(**inst)).encode()
    else:
        data = json.dumps(st_data.draw(json_non_objects)).encode()
    _run_bench_on(suite_root, data, capsys)
