"""End-to-end CLI behavior: exit codes, file outputs, determinism."""

import argparse
import csv
import json
import filecmp
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdescent
from qdescent import calibration, cli, descent, oracle, quantcore, tensorio
from qdescent.cli import EXIT_GUARD, EXIT_IO, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from qdescent.quantcore import load_layer


def write_inputs(tmp_path, d_in=8, d_out=4, n=48, seed=0, exact_bits=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_in)).astype(np.float32)
    if exact_bits is not None:
        levels = np.arange(2 ** exact_bits, dtype=np.float32)
        w = np.stack([levels[rng.integers(0, 2 ** exact_bits, size=d_in)] * 0.25 - 1.0
                      for _ in range(d_out)], axis=1)
        # force the full span so the min-max grid lands exactly on the values
        w[0, :] = levels[0] * 0.25 - 1.0
        w[1, :] = levels[-1] * 0.25 - 1.0
    else:
        w = rng.standard_normal((d_in, d_out)).astype(np.float32)
    wpath, xpath = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(wpath, w.astype(np.float32))
    tensorio.write_container(xpath, x)
    return str(wpath), str(xpath)


def read_records(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def test_gen_calib_deterministic(tmp_path):
    a, b = tmp_path / "a.tc", tmp_path / "b.tc"
    args = ["gen-calib", "--d-in", "16", "--n", "64", "--seed", "1"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_calib_missing_out_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-calib", "--d-in", "4", "--n", "8"])
    assert exc.value.code == EXIT_USAGE


def test_gen_calib_outlier_dominance(tmp_path):
    out = tmp_path / "x.tc"
    assert main(["gen-calib", "--d-in", "6", "--n", "800", "--outlier-directions", "2",
                 "--outlier-gain", "50", "--seed", "3", "--out", str(out)]) == EXIT_OK
    x = tensorio.read_container(out).array.astype(np.float64)
    eig = np.sort(np.linalg.eigvalsh(x.T @ x))[::-1]
    assert eig[1] >= 10.0 * eig[2]  # two boosted directions dominate the rest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [
    ["--spectrum-exponent", "nan"],
    ["--spectrum-exponent", "-1000"],   # (i+1)^1000 overflows
    ["--outlier-directions", "2", "--outlier-gain", "nan"],
    ["--outlier-directions", "2", "--outlier-gain", "inf"],
    # finite spectra whose samples lie beyond the float32 range
    ["--outlier-directions", "1", "--outlier-gain", "1e300"],
    ["--spectrum-exponent", "-200"],
])
def test_gen_calib_non_finite_spectrum_exits_usage(tmp_path, capsys, flags):
    out = tmp_path / "x.tc"
    code = main(["gen-calib", "--d-in", "8", "--n", "16", "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_quantize_exact_weights_zero_objective(tmp_path):
    w, x = write_inputs(tmp_path, exact_bits=3)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--method", "cd", "--bits", "3"]) == EXIT_OK
    recs = read_records(out / "records.csv")
    assert all(float(r["relative_objective"]) == 0.0 for r in recs)


def test_quantize_deterministic_across_threads(tmp_path):
    w, x = write_inputs(tmp_path, d_in=12, d_out=6)
    dirs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"layer{threads}"
        assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                     "--method", "bcd", "--bits", "2", "--block-size", "2", "--seed", "9",
                     "--threads", str(threads), "--no-timing"]) == EXIT_OK
        dirs.append(out)
    ref = dir_bytes(dirs[0])
    for d in dirs[1:]:
        assert dir_bytes(d) == ref


def test_quantize_repeat_identical(tmp_path):
    w, x = write_inputs(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["quantize", "--weights", w, "--calib", x, "--method", "bcd", "--bits", "2",
            "--block-size", "2", "--epochs", "2", "--seed", "9", "--no-timing"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert dir_bytes(a) == dir_bytes(b)


def test_quantize_block_guard(tmp_path):
    w, x = write_inputs(tmp_path, d_in=9)
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "bcd", "--bits", "8", "--block-size", "3"])
    assert code == EXIT_GUARD


@pytest.mark.parametrize("d_in,bits,block,expected", [
    (8, 2, 3, EXIT_USAGE),   # 3 does not divide d_in: a usage error
    (9, 8, 3, EXIT_GUARD),   # divides, but 2^(3*8) combinations exceed the guard
])
def test_quantize_block_size_exit_codes(tmp_path, capsys, d_in, bits, block, expected):
    w, x = write_inputs(tmp_path, d_in=d_in)
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "bcd", "--bits", str(bits), "--block-size", str(block)])
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_quantize_block_size_without_bcd(tmp_path):
    w, x = write_inputs(tmp_path)
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "cd", "--bits", "2", "--block-size", "2"])
    assert code == EXIT_USAGE


def _quantize_error(tmp_path, capsys, argv):
    """Run quantize with ``argv`` added; returns its exit code and its one-line error."""
    w, x = write_inputs(tmp_path)
    capsys.readouterr()
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
@pytest.mark.filterwarnings("error")
def test_quantize_non_finite_lambda_rel_exits_usage(tmp_path, capsys, value):
    code, err = _quantize_error(tmp_path, capsys, ["--method", "cd", "--bits", "2",
                                                   "--lambda-rel", value])
    assert code == EXIT_USAGE and "lambda_rel" in err


@pytest.mark.parametrize("value", ["nan", "-0.5"])
def test_quantize_clip_fraction_out_of_range_exits_usage(tmp_path, capsys, value):
    code, err = _quantize_error(tmp_path, capsys, ["--method", "cd", "--bits", "2",
                                                   f"--clip-fraction={value}"])
    assert code == EXIT_USAGE and "clip_fraction" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["NaN", "1" + "0" * 400], ids=["nan", "int-1e400"])
def test_quantize_config_non_finite_lambda_rel_exits_usage(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"method": "cd", "bits": 2, "lambda_rel": {value}}}')
    code, err = _quantize_error(tmp_path, capsys, ["--config", str(cfg)])
    assert code == EXIT_USAGE and "lambda_rel" in err


def test_quantize_x_gram_beyond_float64_exits_usage_with_one_line(tmp_path):
    # X is finite, but X'X's symmetrized diagonal overflows: one error line
    # naming X'X, with no numpy warning and no blame on a damping of zero.
    x = np.full((4, 8), 6e153)
    x[1::2] *= -1.0
    xpath, wpath = tmp_path / "x.tc", tmp_path / "w.tc"
    tensorio.write_container(xpath, x)
    tensorio.write_container(wpath, calibration.gen_weights(8, 2, 0))
    src = str(Path(qdescent.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "qdescent.cli", "quantize", "--weights",
                           str(wpath), "--calib", str(xpath), "--out", str(tmp_path / "o"),
                           "--method", "cd", "--bits", "2", "--lambda-rel", "0"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == "error: calibration matrix X'X exceeds the float64 range\n"


def test_main_trims_the_heap_after_every_command(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_MALLOC_TRIM", calls.append)
    assert main(["oracle", "--canonical"]) == EXIT_OK
    assert main(["eval", "--layer", str(tmp_path / "none"), "--calib", "x.tc"]) == EXIT_IO
    assert calls == [0, 0]
    monkeypatch.setattr(cli, "_MALLOC_TRIM", None)  # a C library without malloc_trim
    assert main(["oracle", "--canonical"]) == EXIT_OK


def test_quantize_grid_too_large_to_allocate_exits_usage(tmp_path, capsys):
    # 2^50 float64 grid values need 8 PiB, beyond the address space, so
    # numpy refuses the allocation without touching memory.
    code, err = _quantize_error(tmp_path, capsys, ["--method", "owc", "--bits", "2",
                                                   "--grid-size", str(2 ** 50)])
    assert code == EXIT_USAGE and "out of memory" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,config", [
    (["--owc-cd"], {}),
    ([], {"owc_cd": True}),
    (["--group-size", "0", "--owc-cd"], {}),
])
def test_quantize_owc_cd_without_groups_exits_usage(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "cd", "bits": 2, **config}))
    code, err = _quantize_error(tmp_path, capsys, ["--config", str(cfg)] + argv)
    assert code == EXIT_USAGE and "owc" in err
    assert not (tmp_path / "o").exists()


def test_quantize_shape_mismatch(tmp_path, capsys):
    # quantize, oracle and eval each name both files whose shapes disagree.
    w, x8 = write_inputs(tmp_path, d_in=8)
    (tmp_path / "sub").mkdir(exist_ok=True)
    w6, x = write_inputs(tmp_path / "sub", d_in=6)
    for argv in (["quantize", "--out", str(tmp_path / "o"), "--method", "cd", "--bits", "2"],
                 ["oracle", "--bits", "2"]):
        capsys.readouterr()
        assert main(argv + ["--weights", w, "--calib", x]) == EXIT_SHAPE
        assert capsys.readouterr().err == (f"error: calibration {x} has d_in=6 but weights {w} "
                                           f"have d_in=8\n")
    layer = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x8, "--out", str(layer),
                 "--method", "rtn", "--bits", "2"]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--layer", str(layer), "--weights", w6, "--calib", x]) == EXIT_SHAPE
    assert capsys.readouterr().err == (f"error: weights {w6} have shape (6, 4), which does not "
                                       f"match layer {layer} (8, 4)\n")


def test_quantize_missing_file(tmp_path):
    w, x = write_inputs(tmp_path)
    code = main(["quantize", "--weights", str(tmp_path / "nope.tc"), "--calib", x,
                 "--out", str(tmp_path / "o"), "--method", "cd", "--bits", "2"])
    assert code == EXIT_IO


@pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (2 ** 64 - 1,)])
def test_quantize_huge_container_dims_exit_io(tmp_path, capsys, dims):
    w, x = write_inputs(tmp_path)
    header = b"QDTC" + struct.pack("<I", 1) + struct.pack("<BB", 1, 1)
    header += struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    Path(w).write_bytes(header + struct.pack("<d", 1.0))
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "cd", "--bits", "2"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    declared = 8 * dims[0] * (dims[1] if len(dims) > 1 else 1)
    assert err == (f"error: {w}: payload length mismatch: header declares {declared} bytes, "
                   f"file has 8\n")


def test_quantize_group_size_must_divide(tmp_path):
    w, x = write_inputs(tmp_path, d_in=8)
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "cd", "--bits", "2", "--group-size", "3"])
    assert code == EXIT_USAGE


def test_quantize_config_file_precedence(tmp_path):
    w, x = write_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "rtn", "bits": 2, "seed": 4}))
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--config", str(cfg), "--bits", "3"]) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    assert meta["bits"] == 3  # flag wins
    assert meta["meta"]["method"] == "rtn"  # from config file


@pytest.mark.parametrize("config", [
    {"bits": "3", "method": "rtn"},
    {"bits": 3, "method": "rtn", "owc_cd": 1},
    {"bits": True, "method": "rtn"},
    {"bits": 3.0, "method": "rtn"},
    {"bits": 3, "method": "rtn", "lambda_rel": "0.01"},
    {"bits": 3, "method": "rtn", "grid_size": None},
    {"bits": 3, "method": ["rtn"]},
    ["bits", 3],
    {"bits": "x" * 5000, "method": "rtn"},
    {"bits": json.loads("[" * 300 + "3" + "]" * 300), "method": "rtn"},
])
def test_quantize_config_type_mismatch_exits_usage(tmp_path, capsys, config):
    w, x = write_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    # A long or deep value is echoed as a prefix, so the line stays short.
    assert len(err) < len(str(cfg)) + 150


def test_quantize_config_accepts_json_types(tmp_path):
    w, x = write_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "cd", "bits": 2, "lambda_rel": 1, "clip_fraction": 0.0,
                               "owc_cd": False, "steps": None, "threads": None}))
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--config", str(cfg)]) == EXIT_OK
    assert (out / "records.csv").exists()


@pytest.mark.parametrize("config", [
    {"method": "cd", "bits": 2, "report_format": "xml"},
    {"method": "x", "bits": 2},
])
def test_quantize_config_bad_choice_exits_before_any_work(tmp_path, capsys, config):
    # argparse checks choices only on the command line, not on defaults from a file.
    # report_format is not a config key, so the first config exits 2 as an unknown key.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, err = _quantize_error(tmp_path, capsys, ["--config", str(cfg)])
    assert code == EXIT_USAGE and "unknown" in err
    assert not (tmp_path / "o").exists()


def _eval_with_edited_meta(tmp_path, capsys, edit):
    """Quantize, apply ``edit`` to the stored meta.json, then run eval; returns
    eval's exit code and its one-line error."""
    w, x = write_inputs(tmp_path)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--method", "rtn", "--bits", "2"]) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text())
    edit(meta)
    (out / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    code = main(["eval", "--layer", str(out), "--calib", x])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("key", ["format_version", "d_in", "d_out", "bits", "group_size"])
def test_eval_layer_meta_missing_key_exits_io(tmp_path, capsys, key):
    code, err = _eval_with_edited_meta(tmp_path, capsys, lambda meta: meta.pop(key))
    assert code == EXIT_IO and repr(key) in err


@pytest.mark.parametrize("key,value", [("d_in", "8"), ("bits", 2.0),
                                       ("group_size", None), ("meta", "x"),
                                       ("bits", 9), ("bits", 0), ("bits", -1), ("bits", 3),
                                       ("d_in", 0), ("d_out", 0), ("group_size", 3),
                                       ("group_size", -4), ("format_version", 99),
                                       ("format_version", 0), ("format_version", 1.0)])
def test_eval_layer_meta_wrong_type_exits_io(tmp_path, capsys, key, value):
    code, err = _eval_with_edited_meta(tmp_path, capsys, lambda meta: meta.update({key: value}))
    assert code == EXIT_IO and repr(key) in err


@pytest.mark.parametrize("key,value", [("weights_path", 5), ("method", 1), ("lambda_rel", "x"),
                                       ("clip_fraction", [1]), ("block_size", 2.0),
                                       ("epochs", True), ("lambda_rel", -0.5),
                                       ("lambda_rel", float("nan")), ("lambda_rel", float("inf")),
                                       pytest.param("lambda_rel", 10 ** 400,
                                                    id="lambda_rel-int-1e400"),
                                       ("clip_fraction", 1.0), ("clip_fraction", -0.1),
                                       ("block_size", 0), ("epochs", 0)])
def test_eval_run_meta_wrong_type_exits_io(tmp_path, capsys, key, value):
    code, err = _eval_with_edited_meta(tmp_path, capsys,
                                       lambda meta: meta["meta"].update({key: value}))
    assert code == EXIT_IO and repr(key) in err


@pytest.mark.parametrize("target", ["meta.json", "config", "suite"])
def test_non_utf8_json_file_exits_io(tmp_path, capsys, target):
    # Bytes that do not decode as UTF-8 are a file-format failure, as bad JSON is.
    w, x = write_inputs(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"method": "\xff"}')
    if target == "meta.json":
        out = tmp_path / "layer"
        assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                     "--method", "rtn", "--bits", "2"]) == EXIT_OK
        (out / "meta.json").write_bytes(b"\xff" + (out / "meta.json").read_bytes())
        argv = ["eval", "--layer", str(out), "--calib", x]
    elif target == "config":
        argv = ["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                "--config", str(bad)]
    else:
        argv = ["bench", "--suite", str(bad), "--out-dir", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("data", [b'{"bits": ', b'{"method": "\xff"}', b"[" * 100_000,
                                  b'{"bits": ' + b"1" * 5000 + b"}"],
                         ids=["truncated", "not-utf8", "too-deep", "too-long-int"])
@pytest.mark.parametrize("target", ["meta.json", "config", "suite"])
def test_malformed_json_file_exits_io_naming_it(tmp_path, capsys, target, data):
    # Whatever makes the file unreadable as JSON, the one-line error starts with its path.
    w, x = write_inputs(tmp_path)
    if target == "meta.json":
        out = tmp_path / "layer"
        assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                     "--method", "rtn", "--bits", "2"]) == EXIT_OK
        path, argv = out / "meta.json", ["eval", "--layer", str(out), "--calib", x]
    elif target == "config":
        path = tmp_path / "cfg.json"
        argv = ["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                "--config", str(path)]
    else:
        path = tmp_path / "suite.json"
        argv = ["bench", "--suite", str(path), "--out-dir", str(tmp_path / "o")]
    path.write_bytes(data)
    capsys.readouterr()
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a UTF-8 JSON file: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_meta_json_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # A text-mode open would decode meta.json with the locale's codec, ASCII here.
    w, x = write_inputs(tmp_path)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--method", "rtn", "--bits", "2"]) == EXIT_OK
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    meta["meta"]["note"] = "été"
    (out / "meta.json").write_text(json.dumps(meta, ensure_ascii=False), encoding="utf-8")
    src = str(Path(qdescent.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), "LC_ALL": "C",
           "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "qdescent.cli", "eval",
                           "--layer", str(out), "--calib", x], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == EXIT_OK, proc.stderr


@pytest.mark.parametrize("offset", [0, 4], ids=["magic", "version"])
@pytest.mark.parametrize("name", ["scales.tc", "biases.tc", "gammas.tc", "codes.pc", "weights",
                                  "calib"])
def test_eval_corrupted_header_exits_io_naming_the_file(tmp_path, capsys, name, offset):
    # eval reads seven files; a bad header in any of the six binary ones names that file.
    w, x = write_inputs(tmp_path)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                 "--method", "cd", "--bits", "3"]) == EXIT_OK
    path = {"weights": w, "calib": x}.get(name, out / name)
    raw = bytearray(Path(path).read_bytes())
    raw[offset] ^= 0xFF
    Path(path).write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--layer", str(out), "--calib", x]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert ("bad magic" if offset == 0 else "version") in err


def test_quantize_zero_output_channels_exits_shape(tmp_path, capsys):
    w, x = write_inputs(tmp_path)
    empty = tmp_path / "w0.tc"
    tensorio.write_container(empty, np.zeros((8, 0), dtype=np.float32))
    capsys.readouterr()
    code = main(["quantize", "--weights", str(empty), "--calib", x, "--out",
                 str(tmp_path / "layer"), "--method", "cd", "--bits", "2"])
    err = capsys.readouterr().err
    assert code == EXIT_SHAPE and err.startswith("error: ") and err.count("\n") == 1
    assert "d_out=0" in err


def test_eval_matches_quantize_records(tmp_path, capsys):
    # Per-channel cd, cyclic and bcd, and grouped with a constant group
    # (column 3) and an all-zero column (1, zero baseline): eval's report must
    # equal records.csv in every column but steps and wall_millis, and both
    # commands must print the same summary.
    w, x = write_inputs(tmp_path, d_in=12, d_out=5)
    weights = tensorio.read_container(w).array.copy()
    weights[:, 1] = 0.0
    weights[4:8, 3] = 0.5
    w_grouped = str(tmp_path / "w_grouped.tc")
    tensorio.write_container(w_grouped, weights)
    for tag, wpath, extra in (("cd", w, ["--method", "cd"]),
                              ("cyclic", w, ["--method", "cyclic"]),
                              ("bcd", w, ["--method", "bcd", "--block-size", "2"]),
                              ("grp", w_grouped, ["--method", "cd", "--group-size", "4"])):
        out = tmp_path / tag
        capsys.readouterr()
        assert main(["quantize", "--weights", wpath, "--calib", x, "--out", str(out),
                     "--bits", "3", "--seed", "2"] + extra) == EXIT_OK
        quantize_printed = capsys.readouterr().out.splitlines()
        report = tmp_path / f"{tag}.csv"
        assert main(["eval", "--layer", str(out), "--calib", x, "--out", str(report)]) == EXIT_OK
        eval_printed = capsys.readouterr().out.splitlines()
        assert quantize_printed[1:-1] == eval_printed
        quantize_rows = read_records(out / "records.csv")
        eval_rows = read_records(report)
        assert len(quantize_rows) == len(eval_rows) == 5
        for qr, er in zip(quantize_rows, eval_rows):
            for row in (qr, er):
                del row["steps"], row["wall_millis"]
            assert qr == er
        if tag == "grp":
            assert quantize_rows[1]["objective"] == "0.0"
            assert quantize_rows[1]["relative_objective"] == "0.0"
            assert "column 1: zero denominator (excluded from means)" in eval_printed
            assert eval_printed[-1].endswith("over 4 channels")


def test_quantize_large_layer_threads_identical_and_eval_matches(tmp_path):
    # At d_in = 1024 the BLAS calls are large enough for OpenBLAS to thread
    # them, unlike the small layers above, and the eigenvalue clip depends on
    # the BLAS thread count. --threads must still give byte-identical
    # artifacts, and eval must recompute each channel's objective to the same
    # text as records.csv. One fresh interpreter runs quantize and eval, as a
    # benchmark child does, so BLAS state left by earlier tests cannot mask a
    # BLAS thread-count change made by either command.
    from qdescent.calibration import SynthSpec, gen_calibration, gen_weights

    d_in, d_out = 1024, 4
    wpath, xpath = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(wpath, gen_weights(d_in, d_out, 7))
    tensorio.write_container(xpath, gen_calibration(SynthSpec(
        d_in=d_in, n=2 * d_in, spectrum_exponent=1.0, outlier_directions=4,
        outlier_gain=100.0, seed=7)))
    dirs = [tmp_path / f"layer{threads}" for threads in (1, 2)]
    report = tmp_path / "eval.csv"
    runs = [["quantize", "--weights", str(wpath), "--calib", str(xpath), "--out", str(out),
             "--method", "cd", "--bits", "8", "--clip-fraction", "0.01",
             "--threads", str(threads), "--no-timing"] for threads, out in zip((1, 2), dirs)]
    runs.append(["eval", "--layer", str(dirs[1]), "--calib", str(xpath), "--out", str(report)])
    script = ("import json, sys\nfrom qdescent.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = str(Path(qdescent.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert dir_bytes(dirs[0]) == dir_bytes(dirs[1])
    quantized = [r["objective"] for r in read_records(dirs[1] / "records.csv")]
    assert quantized == [r["objective"] for r in read_records(report)]


def test_eval_flags_zero_columns(tmp_path, capsys):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 3)).astype(np.float32)
    w[:, 1] = 0.0
    wpath, xpath = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(wpath, w)
    tensorio.write_container(xpath, rng.standard_normal((32, 8)).astype(np.float32))
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", str(wpath), "--calib", str(xpath),
                 "--out", str(out), "--method", "cd", "--bits", "2"]) == EXIT_OK
    assert main(["eval", "--layer", str(out), "--calib", str(xpath)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "column 1: zero denominator" in printed


@pytest.mark.parametrize("extra", [
    ["--method", "cd", "--group-size", "4"],
    ["--method", "bcd", "--block-size", "2", "--group-size", "4", "--owc-cd"],
    ["--method", "cd"],
    ["--method", "owc"],
    ["--method", "bcd", "--block-size", "2"],
], ids=["grouped-cd", "grouped-bcd-owc-cd", "cd", "owc", "bcd"])
def test_quantize_subnormal_span_gets_a_nonzero_scale(tmp_path, extra):
    # Column 0 alternates 0 and the smallest f32 subnormal: its span is live
    # but rounds to an f32 scale of 0, which used to divide by zero.
    rng = np.random.default_rng(0)
    w = rng.standard_normal((8, 2)).astype(np.float32)
    w[:, 0] = np.array([0.0, 1e-45] * 4, dtype=np.float32)
    wpath, xpath = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(wpath, w)
    tensorio.write_container(xpath, rng.standard_normal((48, 8)).astype(np.float32))
    out, report = tmp_path / "layer", tmp_path / "eval.csv"
    assert main(["quantize", "--weights", str(wpath), "--calib", str(xpath), "--out", str(out),
                 "--bits", "3"] + extra) == EXIT_OK
    assert main(["eval", "--layer", str(out), "--calib", str(xpath),
                 "--out", str(report)]) == EXIT_OK
    layer = load_layer(out)
    np.testing.assert_array_equal(layer.scales[0], np.float32(2.0 ** -149))
    np.testing.assert_array_equal(layer.codes[0], [0, 1] * 4)
    assert [r["objective"] for r in read_records(out / "records.csv")] \
        == [r["objective"] for r in read_records(report)]


def test_eval_per_channel_and_full_group_agree(tmp_path):
    w, x = write_inputs(tmp_path, d_in=8, d_out=4)
    rows = {}
    for tag, extra in (("pc", []), ("grp", ["--group-size", "8"])):
        out = tmp_path / tag
        assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out),
                     "--method", "cd", "--bits", "2"] + extra) == EXIT_OK
        report = tmp_path / f"{tag}.csv"
        assert main(["eval", "--layer", str(out), "--calib", x, "--out", str(report)]) == EXIT_OK
        rows[tag] = read_records(report)
    for a, b in zip(rows["pc"], rows["grp"]):
        assert float(a["objective"]) == pytest.approx(float(b["objective"]), rel=1e-12)


def test_bench_small_suite(tmp_path):
    suite = {
        "instances": [{"d_in": 16, "d_out": 8, "n": 64, "seed": 0},
                      {"d_in": 16, "d_out": 8, "n": 64, "seed": 1}],
        "methods": ["owc", "cyclic", "cd", "bcd"],
        "bits": [2],
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite_path), "--out-dir", str(out),
                 "--no-timing"]) == EXIT_OK
    rows = read_records(out / "records.csv")
    canonical = {r["method"]: float(r["objective"]) for r in rows if r["method"].startswith("canonical")}
    assert canonical["canonical:oracle"] == pytest.approx(0.32, abs=1e-12)
    assert canonical["canonical:cd"] == pytest.approx(0.32, abs=1e-12)
    assert canonical["canonical:cyclic"] == pytest.approx(0.72, abs=1e-12)

    agg = [json.loads(l) for l in (out / "aggregate.jsonl").read_text().splitlines()]
    by_key = {(a["method"], a["seed"]): a["median_relative"] for a in agg}
    for seed in (0, 1):
        assert by_key[("bcd", seed)] <= by_key[("cd", seed)] + 1e-12
        assert by_key[("cd", seed)] <= by_key[("owc", seed)] + 1e-12


def test_bench_empty_methods(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"methods": [], "instances": [{"d_in": 4, "d_out": 2, "n": 8, "seed": 0}]}))
    assert main(["bench", "--suite", str(suite_path), "--out-dir", str(tmp_path / "b")]) == EXIT_USAGE


def _run_suite(tmp_path, capsys, suite):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    capsys.readouterr()
    code = main(["bench", "--suite", str(suite_path), "--out-dir", str(tmp_path / "b")])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return code, err


_INSTANCE = {"d_in": 4, "d_out": 2, "n": 8, "seed": 0}


def test_bench_suite_not_an_object(tmp_path, capsys):
    code, err = _run_suite(tmp_path, capsys, [{"methods": ["cd"]}])
    assert code == EXIT_USAGE and "JSON object" in err


def test_bench_suite_instance_missing_key(tmp_path, capsys):
    inst = {k: v for k, v in _INSTANCE.items() if k != "d_in"}
    code, err = _run_suite(tmp_path, capsys, {"instances": [inst], "methods": ["cd"]})
    assert code == EXIT_USAGE and "'d_in'" in err


def test_bench_suite_wrong_value_type(tmp_path, capsys):
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE], "bits": "x"})
    assert code == EXIT_USAGE and "'bits'" in err
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE], "bits": [2, "x"]})
    assert code == EXIT_USAGE and "'bits'" in err
    code, err = _run_suite(tmp_path, capsys, {"instances": [dict(_INSTANCE, seed=1.5)]})
    assert code == EXIT_USAGE and "'seed'" in err


@pytest.mark.parametrize("key", ["d_in", "d_out", "n"])
def test_bench_suite_instance_dim_below_one(tmp_path, capsys, key):
    inst = dict(_INSTANCE, **{key: 0})
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE, inst], "methods": ["cd"]})
    assert code == EXIT_USAGE and repr(key) in err and "instance 1" in err
    assert not (tmp_path / "b").exists()


def test_bench_suite_owc_cd_without_groups(tmp_path, capsys):
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE], "owc_cd": True})
    assert code == EXIT_USAGE and "'owc_cd'" in err
    assert not (tmp_path / "b").exists()


def test_bench_suite_methods_string(tmp_path, capsys):
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE], "methods": "cd"})
    assert code == EXIT_USAGE and "'methods'" in err and "'c'" not in err


@pytest.mark.parametrize("bits", [[], [2, 0]], ids=["empty", "second-invalid"])
def test_bench_bad_bits_list_leaves_no_output_dir(tmp_path, capsys, monkeypatch, bits):
    # An empty list must not exit 0 having measured nothing, and a width that
    # fails after the first one must not leave an empty directory behind.
    runs = _count_calls(monkeypatch, descent, "quantize_matrix")
    gens = _count_calls(monkeypatch, calibration, "gen_calibration")
    code, err = _run_suite(tmp_path, capsys, {"instances": [_INSTANCE], "bits": bits})
    assert code == EXIT_USAGE and ("'bits'" in err or "bits must be in 1..8" in err)
    assert not (tmp_path / "b").exists()
    assert runs == [] and gens == []


def _count_calls(monkeypatch, module, name):
    """A list that gains one entry per call of ``module.name`` from here on."""
    calls, inner = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or inner(*a, **kw))
    return calls


@pytest.mark.parametrize("suite,code", [
    ({"instances": [_INSTANCE, dict(_INSTANCE, seed=-1)]}, EXIT_USAGE),
    ({"instances": [_INSTANCE, dict(_INSTANCE, outlier_directions=5)]}, EXIT_USAGE),
    ({"instances": [_INSTANCE, dict(_INSTANCE, outlier_gain=0.5)]}, EXIT_USAGE),
    ({"instances": [_INSTANCE, dict(_INSTANCE, spectrum_exponent=-600.0)]}, EXIT_USAGE),
    ({"instances": [_INSTANCE, dict(_INSTANCE, d_in=6)], "methods": ["rtn", "bcd"],
      "block_size": 4}, EXIT_USAGE),
    ({"instances": [_INSTANCE], "methods": ["cd", "bcd"], "bits": [2, 8], "block_size": 4},
     EXIT_GUARD),
    ({"instances": [_INSTANCE], "methods": ["rtn", "cd"], "grid_size": 0}, EXIT_USAGE),
    ({"instances": [_INSTANCE], "lambda_rel": -1.0}, EXIT_USAGE),
    ({"instances": [_INSTANCE], "clip_fraction": 1.0}, EXIT_USAGE),
], ids=["seed", "outlier-directions", "outlier-gain", "spectrum", "block-divisor", "block-guard",
        "grid-size", "lambda-rel", "clip-fraction"])
def test_bench_bad_setting_fails_before_any_instance(tmp_path, capsys, monkeypatch, suite, code):
    # A setting that fails in the last instance or run must fail before the first one.
    runs = _count_calls(monkeypatch, descent, "quantize_matrix")
    gens = _count_calls(monkeypatch, calibration, "gen_calibration")
    assert _run_suite(tmp_path, capsys, suite)[0] == code
    assert runs == [] and gens == []
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("settings,flags", [
    ({}, []),
    ({"group_size": 4, "owc_cd": True, "block_size": 4, "epochs": 2, "grid_size": 10,
      "lambda_rel": 0.1, "clip_fraction": 0.05},
     ["--group-size", "4", "--owc-cd", "--block-size", "4", "--epochs", "2", "--grid-size", "10",
      "--lambda-rel", "0.1", "--clip-fraction", "0.05"]),
], ids=["defaults", "grouped"])
def test_bench_rows_equal_quantize_records(tmp_path, settings, flags):
    # bench and quantize share each setting's default and the engine call, so a
    # suite instance gives quantize's records for the same inputs and seed.
    inst = {"d_in": 16, "d_out": 4, "n": 64, "seed": 3}
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"instances": [inst], "methods": ["bcd"], "bits": [2],
                                      **settings}))
    assert main(["bench", "--suite", str(suite_path), "--out-dir", str(tmp_path / "b"),
                 "--no-timing"]) == EXIT_OK
    x, w = tmp_path / "x.tc", tmp_path / "w.tc"
    assert main(["gen-calib", "--d-in", "16", "--n", "64", "--seed", "3", "--out", str(x)]) == 0
    tensorio.write_container(w, calibration.gen_weights(16, 4, 3))
    assert main(["quantize", "--weights", str(w), "--calib", str(x), "--out", str(tmp_path / "q"),
                 "--method", "bcd", "--bits", "2", "--seed", "3", "--no-timing", *flags]) == 0
    bench_rows = [r for r in read_records(tmp_path / "b/records.csv") if r["method"] == "bcd"]
    assert bench_rows == read_records(tmp_path / "q/records.csv")


def test_oracle_canonical(tmp_path, capsys):
    assert main(["oracle", "--canonical"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_objective"] == pytest.approx(0.32, abs=1e-12)
    assert payload["cd_objective"] == pytest.approx(0.32, abs=1e-12)
    assert payload["gap"] == pytest.approx(0.0, abs=1e-12)
    assert payload["oracle_codes"] == [0, 1]
    assert payload["enumeration_count"] == 4


def test_oracle_canonical_gap_is_exactly_zero(capsys):
    # benchmarks/run.py refuses to run unless this gap is exactly 0.
    assert main(["oracle", "--canonical"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] == 0.0
    assert payload["cd_objective"].hex() == payload["oracle_objective"].hex()


def test_oracle_file_instance(tmp_path, capsys):
    w, x = write_inputs(tmp_path, d_in=6, d_out=2)
    assert main(["oracle", "--weights", w, "--calib", x, "--channel", "1",
                 "--bits", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["gap"] >= -1e-12
    assert payload["enumeration_count"] == 4 ** 6


def test_oracle_out_json_as_from_the_whole_matrix_widened(tmp_path):
    # oracle widens only the chosen column to float64; its JSON is what
    # widening the whole weight matrix and then taking the column gives.
    w, x = write_inputs(tmp_path, d_in=10, d_out=3, n=64, seed=5)
    weights, hessian = cli._read_inputs(w, x, 0.01, 0.0)
    for channel in range(3):
        out = tmp_path / f"oracle-{channel}.json"
        assert main(["oracle", "--weights", w, "--calib", x, "--channel", str(channel),
                     "--bits", "2", "--out", str(out)]) == EXIT_OK
        col = weights.astype(np.float64)[:, channel]
        scales, biases, _, q0 = quantcore.owc_quantize(col, hessian, 2)
        prob = quantcore.ChannelProblem(col, hessian, scales[0], biases[0], 2)
        opt = oracle.brute_force(prob)
        codes, trace = descent.cd_quantize(prob, q0, descent.DescentConfig())
        assert json.loads(out.read_text()) == {
            "enumeration_count": opt.enumeration_count,
            "oracle_objective": opt.scaled_objective,
            "oracle_codes": opt.codes.tolist(), "cd_objective": trace.final_loss,
            "cd_codes": codes.tolist(), "gap": trace.final_loss - opt.scaled_objective}


def test_oracle_channel_out_of_range(tmp_path, capsys):
    w, x = write_inputs(tmp_path, d_in=6, d_out=4)
    for channel in ("9", "4", "-9", "-1"):
        capsys.readouterr()
        assert main(["oracle", "--weights", w, "--calib", x, "--channel", channel,
                     "--bits", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and channel in err


def test_oracle_negative_channel_reads_no_input(tmp_path, capsys):
    # A negative channel is out of range for any layer, so it is rejected
    # before the inputs are read: these paths do not exist.
    capsys.readouterr()
    assert main(["oracle", "--weights", str(tmp_path / "none.tc"), "--calib",
                 str(tmp_path / "none-calib.tc"), "--channel", "-1", "--bits", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--channel" in err


def test_oracle_constant_channel(tmp_path, capsys):
    w, x = write_inputs(tmp_path, d_in=6, d_out=3)
    weights = tensorio.read_container(w).array.copy()
    weights[:, 2] = 0.75
    tensorio.write_container(w, weights)
    capsys.readouterr()
    assert main(["oracle", "--weights", w, "--calib", x, "--channel", "2",
                 "--bits", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: channel 2 is constant; nothing to search\n"


def test_oracle_guard(tmp_path):
    w, x = write_inputs(tmp_path, d_in=30, d_out=2)
    assert main(["oracle", "--weights", w, "--calib", x, "--bits", "1"]) == EXIT_GUARD


def test_oracle_needs_inputs():
    assert main(["oracle"]) == EXIT_USAGE


def test_threads_env_default(tmp_path, monkeypatch):
    # QDESCENT_THREADS, --threads and the threads config key are still accepted
    # and leave the artifacts byte-identical to a plain run.
    monkeypatch.delenv("QDESCENT_THREADS", raising=False)
    w, x = write_inputs(tmp_path)
    base = ["quantize", "--weights", w, "--calib", x, "--method", "cd", "--bits", "2",
            "--no-timing"]
    ref = tmp_path / "ref"
    assert main(base + ["--out", str(ref)]) == EXIT_OK
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    for name, extra in (("flag", ["--threads", "2"]), ("config", ["--config", str(cfg)])):
        assert main(base + ["--out", str(tmp_path / name)] + extra) == EXIT_OK
        assert dir_bytes(tmp_path / name) == dir_bytes(ref)
    monkeypatch.setenv("QDESCENT_THREADS", "2")
    assert main(base + ["--out", str(tmp_path / "env")]) == EXIT_OK
    assert dir_bytes(tmp_path / "env") == dir_bytes(ref)


def test_eval_old_unpacked_layer_exits_io(tmp_path, capsys):
    # Layers once could store their codes as a u8 container, codes.tc; eval now
    # reads codes.pc only, so such a layer fails at the missing file.
    w, x = write_inputs(tmp_path)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out), "--method", "rtn",
                 "--bits", "2"]) == EXIT_OK
    tensorio.write_container(out / "codes.tc", load_layer(out).codes)
    (out / "codes.pc").unlink()
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps(dict(meta, codes_packed=False)))
    capsys.readouterr()
    assert main(["eval", "--layer", str(out), "--calib", x]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "codes.pc" in err


def _eval_with_rewritten_codes(tmp_path, capsys, rewrite, name="codes.pc"):
    """Quantize a 16 x 4 layer with 3-bit codes, replace the array held by its
    ``name`` file (the codes by default, re-packed at 3 bits) by ``rewrite(array)``,
    then run eval; returns eval's exit code and its one-line error, which must
    name the file."""
    w, x = write_inputs(tmp_path, d_in=16, d_out=4)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out), "--method", "cd",
                 "--bits", "3"]) == EXIT_OK
    if name == "codes.pc":
        codes = tensorio.unpack_codes(tensorio.read_packed(out / name))
        tensorio.write_packed(out / name, tensorio.pack_codes(rewrite(codes), 3))
    else:
        array = tensorio.read_container(out / name).array
        tensorio.write_container(out / name, rewrite(array))
    capsys.readouterr()
    code = main(["eval", "--layer", str(out), "--calib", x])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
    return code, err


@pytest.mark.parametrize("bit_width", [0, 9])
def test_eval_packed_bit_width_out_of_range_exits_io(tmp_path, capsys, bit_width):
    # The payload length matches the declared width, so only the width is wrong.
    w, x = write_inputs(tmp_path, d_in=16, d_out=4)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out), "--method", "cd",
                 "--bits", "3"]) == EXIT_OK
    path = out / "codes.pc"
    raw = path.read_bytes()
    (count,) = struct.unpack_from("<Q", raw, 9)
    path.write_bytes(raw[:8] + bytes([bit_width]) + raw[9:17] + bytes((count * bit_width + 7) // 8))
    capsys.readouterr()
    assert main(["eval", "--layer", str(out), "--calib", x]) == EXIT_IO
    assert (capsys.readouterr().err
            == f"error: {path}: packed bit width must be in 1..8, got {bit_width}\n")


def test_eval_packed_nonzero_padding_exits_io_naming_the_file(tmp_path, capsys):
    w, x = write_inputs(tmp_path, d_in=6, d_out=3)
    out = tmp_path / "layer"
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(out), "--method", "cd",
                 "--bits", "3"]) == EXIT_OK
    path = out / "codes.pc"
    raw = bytearray(path.read_bytes())
    raw[-1] |= 0x80  # 18 codes of 3 bits fill 54 of the last byte's 56 bits
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["eval", "--layer", str(out), "--calib", x]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {path}: nonzero padding bits in packed stream\n"


def test_eval_codes_wrong_count_exits_io(tmp_path, capsys):
    code, err = _eval_with_rewritten_codes(tmp_path, capsys, lambda codes: codes[:48])
    assert code == EXIT_IO and "holds 48 codes" in err and "needs 64" in err


@pytest.mark.parametrize("name", ["scales.tc", "biases.tc", "gammas.tc"])
def test_eval_params_not_f32_exits_io(tmp_path, capsys, name):
    code, err = _eval_with_rewritten_codes(tmp_path, capsys,
                                           lambda params: params.astype(np.float64), name)
    assert code == EXIT_IO and "f32" in err


@pytest.mark.parametrize("name", ["scales.tc", "biases.tc", "gammas.tc"])
@pytest.mark.parametrize("rewrite", [lambda p: np.concatenate([p, p], axis=1),
                                     lambda p: p[:3], lambda p: p.ravel()],
                         ids=["columns", "rows", "flat"])
def test_eval_params_wrong_shape_exits_io(tmp_path, capsys, name, rewrite):
    # A per-channel 16 x 4 layer stores (4, 1) params.
    code, err = _eval_with_rewritten_codes(tmp_path, capsys, rewrite, name)
    assert code == EXIT_IO and "(4, 1)" in err


def test_eval_negative_scale_exits_io(tmp_path, capsys):
    def rewrite(scales):
        scales = scales.copy()
        scales[1, 0] = -1.0
        return scales
    code, err = _eval_with_rewritten_codes(tmp_path, capsys, rewrite, "scales.tc")
    assert code == EXIT_IO and ">= 0" in err


_BITS_0 = "bits must be in 1..8, got 0"


@pytest.mark.parametrize("argv,suite,message", [
    (["quantize", "--method", "rtn", "--bits", "0"], None, _BITS_0),
    (["quantize", "--method", "cd", "--bits", "0"], None, _BITS_0),
    (["quantize", "--method", "owc", "--bits", "-1"], None, "bits must be in 1..8, got -1"),
    (["quantize", "--method", "bcd", "--bits", "0", "--group-size", "4"], None, _BITS_0),
    (["oracle", "--bits", "0"], None, _BITS_0),
    (["bench"], {"instances": [_INSTANCE], "methods": ["cd", "owc", "bcd"], "bits": [0]},
     _BITS_0),
    (["quantize", "--method", "cd", "--bits", "2", "--seed", "-1"], None,
     "seed must be >= 0, got -1"),
    (["gen-calib", "--d-in", "4", "--n", "8", "--seed", "-1"], None, "seed must be >= 0, got -1"),
    (["bench"], {"instances": [dict(_INSTANCE, seed=-1)], "methods": ["cd"]},
     "seed must be >= 0, got -1"),
], ids=["quantize-rtn-bits0", "quantize-cd-bits0", "quantize-owc-bits-1", "grouped-bcd-bits0",
        "oracle-bits0", "bench-bits0", "quantize-seed-1", "gen-calib-seed-1",
        "bench-seed-1"])
def test_bad_bits_or_seed_exits_usage(tmp_path, capsys, argv, suite, message):
    w, x = write_inputs(tmp_path)
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    files = {"quantize": ["--weights", w, "--calib", x, "--out", str(tmp_path / "layer")],
             "oracle": ["--weights", w, "--calib", x],
             "gen-calib": ["--out", str(tmp_path / "calib.tc")],
             "bench": ["--suite", str(suite_path), "--out-dir", str(tmp_path / "b")]}
    capsys.readouterr()
    code = main(argv + files[argv[0]])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and err == f"error: {message}\n"


@pytest.mark.parametrize("argv,code", [
    (["--bits", "0"], EXIT_USAGE),
    (["--bits", "9"], EXIT_USAGE),
    (["--bits", "2", "--grid-size", "0"], EXIT_USAGE),
    (["--bits", "2", "--epochs", "0"], EXIT_USAGE),
    (["--bits", "2", "--steps", "-1"], EXIT_USAGE),
    (["--bits", "2", "--seed", "-1"], EXIT_USAGE),
    (["--bits", "2", "--group-size", "-2"], EXIT_USAGE),
    (["--bits", "2", "--lambda-rel", "-1"], EXIT_USAGE),
    (["--bits", "2", "--clip-fraction", "1"], EXIT_USAGE),
    (["--method", "bcd", "--bits", "8", "--block-size", "4"], EXIT_GUARD),
], ids=["bits0", "bits9", "grid0", "epochs0", "steps-1", "seed-1", "group-2", "lambda-1",
        "clip1", "bcd-guard"])
def test_quantize_bad_setting_reads_no_input(tmp_path, capsys, monkeypatch, argv, code):
    # Each setting is checked before either container is read.
    reads = _count_calls(monkeypatch, tensorio, "read_container")
    got, _ = _quantize_error(tmp_path, capsys, ["--method", "cd"] + argv)
    assert got == code and reads == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--bits", "9"], ["--bits", "2", "--grid-size", "0"]],
                         ids=["bits9", "grid0"])
def test_oracle_bad_setting_reads_no_input(tmp_path, capsys, monkeypatch, argv):
    w, x = write_inputs(tmp_path, d_in=6, d_out=2)
    reads = _count_calls(monkeypatch, tensorio, "read_container")
    capsys.readouterr()
    assert main(["oracle", "--weights", w, "--calib", x] + argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and reads == []


@pytest.mark.parametrize("argv", [["--grid-size", "0"], ["--group-size", "4", "--owc-cd"]],
                         ids=["grid0", "groups-owc-cd"])
def test_quantize_rtn_ignores_grid_and_owc_cd(tmp_path, argv):
    # rtn reads neither the clip-strength grid nor the clip-strength refinement.
    w, x = write_inputs(tmp_path)
    assert main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                 "--method", "rtn", "--bits", "2"] + argv) == EXIT_OK


def test_setting_errors_come_before_input_errors(tmp_path, capsys):
    # A bad setting is reported ahead of a missing file, and the bcd guard
    # ahead of the block divisor rule and of the layer's contents.
    w, x = write_inputs(tmp_path, d_in=8)
    base = ["quantize", "--calib", x, "--out", str(tmp_path / "o")]
    assert main(base + ["--weights", str(tmp_path / "nope.tc"), "--method", "cd",
                        "--bits", "9"]) == EXIT_USAGE
    assert main(base + ["--weights", w, "--method", "bcd", "--bits", "3",
                        "--block-size", "7"]) == EXIT_GUARD
    tensorio.write_container(tmp_path / "c.tc", np.ones((8, 2), np.float32))
    assert main(base + ["--weights", str(tmp_path / "c.tc"), "--method", "bcd", "--bits", "8",
                        "--block-size", "4"]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.count("\n") == 3 and err.count("guard is 2^20") == 2


def test_option_surface():
    # Every long flag of every subcommand and every config key: an option is
    # added or removed only together with an edit here.
    parser, _ = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [opt for a in p._actions for opt in a.option_strings
                    if opt.startswith("--") and opt != "--help"]
             for name, p in sub.choices.items()}
    assert flags == {
        "gen-calib": ["--d-in", "--n", "--spectrum-exponent", "--outlier-directions",
                      "--outlier-gain", "--seed", "--out"],
        "quantize": ["--weights", "--calib", "--out", "--config", "--method", "--bits",
                     "--group-size", "--block-size", "--epochs", "--steps", "--grid-size",
                     "--lambda-rel", "--clip-fraction", "--seed", "--threads", "--owc-cd",
                     "--no-timing"],
        "eval": ["--layer", "--calib", "--weights", "--out"],
        "bench": ["--suite", "--out-dir", "--threads", "--no-timing"],
        "oracle": ["--canonical", "--weights", "--calib", "--channel", "--bits", "--grid-size",
                   "--lambda-rel", "--out"],
    }
    assert sorted(cli._CONFIG_TYPES) == ["bits", "block_size", "clip_fraction", "epochs",
                                         "grid_size", "group_size", "lambda_rel", "method",
                                         "owc_cd", "seed", "steps", "threads"]


@pytest.mark.parametrize("argv", [
    ["quantize", "--unpacked-codes"],
    ["quantize", "--report-format", "csv"],
    ["eval", "--report-format", "csv"],
    ["gen-calib", "--spec-out", "spec.json"],
], ids=["unpacked-codes", "quantize-report-format", "eval-report-format", "spec-out"])
def test_removed_options_exit_usage(tmp_path, argv):
    # Each removed option is now an unknown argument, which argparse rejects with exit 2.
    w, x = write_inputs(tmp_path)
    required = {"quantize": ["--weights", w, "--calib", x, "--out", str(tmp_path / "o"),
                             "--method", "rtn", "--bits", "2"],
                "eval": ["--layer", str(tmp_path / "o"), "--calib", x],
                "gen-calib": ["--d-in", "4", "--n", "8", "--out", str(tmp_path / "g.tc")]}
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + required[argv[0]] + argv[1:])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "o").exists() and not (tmp_path / "g.tc").exists()
