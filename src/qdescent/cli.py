"""Command-line front end.

Subcommands:

* ``gen-calib``  synthesize a calibration activation matrix
* ``quantize``   quantize a weight matrix against calibration data
* ``eval``       recompute objectives for a stored quantized layer
* ``bench``      run a method x config experiment matrix
* ``oracle``     exhaustive optimum vs the greedy engine on a tiny instance

Exit codes: 0 success, 2 usage/invalid flags, 3 I/O or file-format failure
(the message names the file), 4 shape mismatch, 5 enumeration guard exceeded.

All flags are long-form. ``quantize`` optionally reads a flat JSON config
file whose values become the flags' defaults, so flags win over it; a
``bench`` suite's settings default to the same flags' defaults. Both files,
like a layer's ``meta.json``, go through ``tensorio.read_json``. Channels
are quantized one after another; ``--threads`` and the ``threads`` config
key are accepted for old command lines and configs, and have no effect.
``quantize`` writes a layer directory whose codes are always bit-packed
(``codes.pc``) and a ``records.csv`` report; ``eval --out`` and ``bench``
write the same CSV columns. Report files embed per-channel wall-clock times
unless --no-timing is given, which zeroes them so reports are byte-stable.

When a command ends, ``main`` hands the heap it freed back to the operating
system (glibc's ``malloc_trim``; nothing where the C library lacks it). A
freed LAPACK workspace raises glibc's mmap and trim thresholds, so a process
that runs ``eval`` after an untrimmed ``quantize`` would start eval with the
eigen-clip's freed d_in^2 temporaries still resident. A single command's
peak is the same either way.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from . import calibration, descent, oracle, quantcore, tensorio
from .calibration import ShapeMismatchError, SynthSpec
from .descent import DescentConfig, EnumerationGuardError
from .tensorio import BenchRecord, TensorIOError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_GUARD = 5
#: The exit code of each error kind main() reports; the first match wins.
_EXIT_CODES = {EnumerationGuardError: EXIT_GUARD, ShapeMismatchError: EXIT_SHAPE,
               TensorIOError: EXIT_IO, OSError: EXIT_IO, ValueError: EXIT_USAGE,
               MemoryError: EXIT_USAGE}


#: glibc's ``malloc_trim``, or None where the C library has no such symbol.
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
    _MALLOC_TRIM = None


def _clip(h: np.ndarray, clip_fraction: float) -> np.ndarray:
    return calibration.clip_hessian_eigenvalues(h, clip_fraction) if clip_fraction else h


def _read_inputs(weights_path: str, calib_path: str, lambda_rel: float,
                 clip_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights and the calibration Hessian, once both containers hold matrices of one d_in.

    The calibration X is read as float64, the dtype ``build_hessian`` works in,
    so it is held once, and it is dropped before the eigen-clip.
    """
    calibration.check_hessian_settings(lambda_rel, clip_fraction)
    weights = tensorio.read_container(weights_path).array
    calib = tensorio.read_container(calib_path, dtype=np.float64).array
    for path, shape in ((weights_path, weights.shape), (calib_path, calib.shape)):
        if len(shape) != 2:
            raise ShapeMismatchError(f"{path}: expected a 2-d tensor, got shape {shape}")
    if calib.shape[1] != weights.shape[0]:
        raise ShapeMismatchError(f"calibration {calib_path} has d_in={calib.shape[1]} but "
                                 f"weights {weights_path} have d_in={weights.shape[0]}")
    hessian = calibration.build_hessian(calib, lambda_rel)
    del calib
    return weights, _clip(hessian, clip_fraction)


def _print_summary(records: list[BenchRecord], weights: np.ndarray, hessian: np.ndarray) -> None:
    """Mean and median relative objective, leaving out and naming each channel
    whose baseline w'Hw is not positive (it reports 0, so only 0s are checked)."""
    w64 = np.asarray(weights, dtype=np.float64)
    zero = [r.column for r in records if r.relative_objective == 0.0
            and not quantcore.zero_baseline(w64[:, r.column], hessian) > 0.0]
    for j in zero:
        print(f"column {j}: zero denominator (excluded from means)")
    kept = [r.relative_objective for r in records if r.column not in zero]
    if kept:
        print(f"relative objective mean {statistics.fmean(kept):.6g}, "
              f"median {statistics.median(kept):.6g} over {len(kept)} channels")


# ---------------------------------------------------------------------------
# gen-calib


def cmd_gen_calib(args) -> int:
    spec = SynthSpec(d_in=args.d_in, n=args.n, spectrum_exponent=args.spectrum_exponent,
                     outlier_directions=args.outlier_directions, outlier_gain=args.outlier_gain,
                     seed=args.seed)
    x = calibration.gen_calibration(spec)
    tensorio.write_container(args.out, x)
    print(f"wrote {args.out}: {x.shape[0]} x {x.shape[1]} f32 calibration matrix")
    return EXIT_OK


# ---------------------------------------------------------------------------
# quantize

#: The settings ``quantize`` and ``bench`` share, and the JSON type of each;
#: their defaults are the quantize flags'.
_SETTING_TYPES = {"group_size": int, "block_size": int, "epochs": int, "grid_size": int,
                  "lambda_rel": float, "clip_fraction": float, "owc_cd": bool}
#: Config-file keys and the JSON type each value must have.
_CONFIG_TYPES = {"method": str, "bits": int, "steps": int, "seed": int, "threads": int,
                 **_SETTING_TYPES}


def _read_config(path: str, quantize_parser: argparse.ArgumentParser) -> dict:
    """A quantize config file's settings, type-checked, to become the flags' defaults."""
    # null stands for "not set" only where the flag's own default is unset too.
    return tensorio.read_json(path, "config", _CONFIG_TYPES, nullable=[
        k for k in _CONFIG_TYPES if quantize_parser.get_default(k) is None])


def _engine_settings(method: str, bits: int, seed: int, settings: dict, *, steps=None,
                     d_in=None) -> dict:
    """``descent.quantize_matrix``'s keywords from the shared settings of a quantize run or
    a bench suite (a block size of None means 2), once ``descent.check_settings`` accepts them."""
    block_size = 2 if settings["block_size"] is None else settings["block_size"]
    cfg = DescentConfig(steps=steps, epochs=settings["epochs"], block_size=block_size, seed=seed)
    kwargs = dict(bits=bits, group_size=settings["group_size"], cfg=cfg,
                  grid_size=settings["grid_size"], owc_cd_refine=settings["owc_cd"])
    descent.check_settings(method, **kwargs, d_in=d_in)
    return kwargs


def cmd_quantize(args) -> int:
    if args.method is None or args.bits is None:
        raise ValueError("--method and --bits are required (flag or config file)")
    kwargs = _engine_settings(args.method, args.bits, args.seed, vars(args), steps=args.steps)
    if args.block_size is not None and args.method != "bcd":
        raise ValueError("--block-size only applies to --method bcd")

    weights, hessian = _read_inputs(args.weights, args.calib, args.lambda_rel, args.clip_fraction)
    # Called through the module, so a wrapper rebound over it (the benchmark's timer) sees it.
    layer, records = descent.quantize_matrix(weights, hessian, args.method, **kwargs,
                                             collect_timing=not args.no_timing)
    layer.meta.update(lambda_rel=args.lambda_rel, clip_fraction=args.clip_fraction,
                      weights_path=args.weights, calib_path=args.calib)

    out_dir = Path(args.out)
    quantcore.save_layer(layer, out_dir)
    report_path = out_dir / "records.csv"
    tensorio.emit_report(records, report_path)
    print(f"quantized {weights.shape[0]} x {weights.shape[1]} with {args.method}")
    _print_summary(records, weights, hessian)
    print(f"layer -> {out_dir}, records -> {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    layer = quantcore.load_layer(args.layer)
    meta = layer.meta
    weights_path = args.weights or meta.get("weights_path")
    if not weights_path:
        raise ValueError("--weights required (layer metadata holds no weights path)")
    weights, hessian = _read_inputs(weights_path, args.calib,
                                    meta.get("lambda_rel", args.lambda_rel),
                                    meta.get("clip_fraction", args.clip_fraction))
    if weights.shape != (layer.d_in, layer.d_out):
        raise ShapeMismatchError(f"weights {weights_path} have shape {weights.shape}, which does "
                                 f"not match layer {args.layer} ({layer.d_in}, {layer.d_out})")
    records = quantcore.layer_records(layer, weights, hessian)
    if args.out:
        tensorio.emit_report(records, args.out)
    _print_summary(records, weights, hessian)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def default_suite() -> dict:
    """The built-in matrix; the settings a suite leaves out take the quantize flags' defaults."""
    return {
        "instances": [{"d_in": 128, "d_out": 64, "n": 512, "seed": seed}
                      for seed in range(10)],
        "methods": ["owc", "cyclic", "cd", "bcd"],
        "bits": [2, 3, 4],
    }


#: Bench-suite keys and the JSON type of each value; ``[kind]`` is a list of kind.
_SUITE_TYPES = {"instances": [dict], "methods": [str], "bits": [int], **_SETTING_TYPES}
#: Only a suite can empty a list: the built-in matrix's are non-empty.
_SUITE_RULES = {key: (bool, "a non-empty list") for key in ("instances", "methods", "bits")}
#: Bench-suite instance keys and the JSON type of each value.
_INSTANCE_TYPES = {"d_in": int, "d_out": int, "n": int, "seed": int, "spectrum_exponent": float,
                   "outlier_directions": int, "outlier_gain": float}
_INSTANCE_RULES = {key: (lambda v: v >= 1, "at least 1") for key in ("d_in", "d_out", "n")}


def _read_suite(path: str) -> dict:
    """A suite file's keys, each value type-checked."""
    suite = tensorio.read_json(path, "suite", _SUITE_TYPES, rules=_SUITE_RULES)
    for i, inst in enumerate(suite.get("instances", [])):
        tensorio.check_json(f"{path}: suite instance {i}", inst, _INSTANCE_TYPES,
                            required=("d_in", "d_out", "n", "seed"), rules=_INSTANCE_RULES)
    return suite


def _canonical_records() -> list[BenchRecord]:
    """Fixed regression rows: the 2-d instance's oracle/greedy/cyclic objectives."""
    prob, q0 = oracle.canonical_problem()
    opt = oracle.brute_force(prob)
    cfg = DescentConfig()
    _, cd_trace = descent.cd_quantize(prob, q0, cfg)
    _, cyc_trace = descent.cyclic_cd_quantize(prob, q0, cfg)
    base = quantcore.zero_baseline(prob.weights, prob.hessian)
    rows = []
    for name, obj, steps in (("canonical:oracle", opt.scaled_objective, 0),
                             ("canonical:cd", cd_trace.true_loss, len(cd_trace.steps)),
                             ("canonical:cyclic", cyc_trace.true_loss, len(cyc_trace.steps))):
        rows.append(BenchRecord(method=name, bits=1, group_size=0, block_size=0, epochs=1,
                                column=0, objective=obj, relative_objective=obj / base,
                                steps=steps, wall_millis=0.0))
    return rows


def cmd_bench(args) -> int:
    suite = {**default_suite(), **{key: getattr(args, key) for key in _SETTING_TYPES}}
    if args.suite:
        suite.update(_read_suite(args.suite))
    # Every setting of every run is checked before the first instance is generated.
    calibration.check_hessian_settings(suite["lambda_rel"], suite["clip_fraction"])
    instances = [(inst, SynthSpec(**{k: v for k, v in inst.items() if k != "d_out"}),
                  [(b, m, _engine_settings(m, b, inst["seed"], suite, d_in=inst["d_in"]))
                   for b in suite["bits"] for m in suite["methods"]])
                 for inst in suite["instances"]]

    records = _canonical_records()
    aggregates = []
    for inst, spec, runs in instances:
        # X is generated as float64, so build_hessian widens no copy of it, and it
        # is only an argument here, so it is freed before the eigen-clip.
        hessian = calibration.build_hessian(calibration.gen_calibration(spec, np.float64),
                                            suite["lambda_rel"])
        hessian = _clip(hessian, suite["clip_fraction"])
        weights = calibration.gen_weights(inst["d_in"], inst["d_out"], inst["seed"])
        for bits, method, kwargs in runs:
            _, recs = descent.quantize_matrix(weights, hessian, method, **kwargs,
                                              collect_timing=not args.no_timing)
            records.extend(recs)
            rels = [r.relative_objective for r in recs]
            aggregates.append({
                "method": method, "bits": bits, "seed": inst["seed"],
                "group_size": recs[0].group_size, "block_size": recs[0].block_size,
                "epochs": recs[0].epochs,
                "median_relative": statistics.median(rels),
                "mean_relative": statistics.fmean(rels),
                "wall_millis": sum(r.wall_millis for r in recs),
            })

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tensorio.emit_report(records, out_dir / "records.csv")
    with open(out_dir / "aggregate.jsonl", "w") as f:
        for row in aggregates:
            f.write(json.dumps(row) + "\n")

    print(f"{'method':<10} {'bits':>4} {'median rel':>12} {'mean rel':>12} {'wall ms':>10}")
    summary: dict[tuple, list] = {}
    for row in aggregates:
        summary.setdefault((row["method"], row["bits"]), []).append(row)
    for (method, bits), rows in sorted(summary.items()):
        med = statistics.median(r["median_relative"] for r in rows)
        mean = statistics.fmean(r["mean_relative"] for r in rows)
        wall = sum(r["wall_millis"] for r in rows)
        print(f"{method:<10} {bits:>4} {med:>12.6f} {mean:>12.6f} {wall:>10.1f}")
    for rec in records[:3]:
        print(f"{rec.method:<18} objective {rec.objective:.6f}")
    print(f"records -> {out_dir / 'records.csv'}, aggregate -> {out_dir / 'aggregate.jsonl'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    if args.canonical:
        prob, q0 = oracle.canonical_problem()
    else:
        if not (args.weights and args.calib) or args.bits is None:
            raise ValueError("oracle needs --canonical, or --weights/--calib/--bits")
        descent.check_settings("cd", bits=args.bits, group_size=0, cfg=None,
                               grid_size=args.grid_size, owc_cd_refine=False)
        if args.channel < 0:
            raise ValueError(f"--channel must be >= 0, got {args.channel}")
        weights, hessian = _read_inputs(args.weights, args.calib, args.lambda_rel, 0.0)
        if args.channel >= weights.shape[1]:
            raise ValueError(f"--channel {args.channel} is outside [0, {weights.shape[1]})")
        w = weights[:, args.channel].astype(np.float64)
        scales, biases, _, q0 = quantcore.owc_quantize(w, hessian, args.bits, args.grid_size)
        if scales[0] == 0.0:
            raise ValueError(f"channel {args.channel} is constant; nothing to search")
        prob = quantcore.ChannelProblem(w, hessian, scales[0], biases[0], args.bits)

    result = oracle.brute_force(prob)
    codes, trace = descent.cd_quantize(prob, q0, DescentConfig())
    payload = {
        "enumeration_count": result.enumeration_count,
        "oracle_objective": result.scaled_objective,
        "oracle_codes": [int(v) for v in result.codes],
        "cd_objective": trace.final_loss,
        "cd_codes": [int(v) for v in codes],
        "gap": trace.final_loss - result.scaled_objective,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser and its ``quantize`` subparser, whose defaults a
    ``--config`` file replaces."""
    parser = argparse.ArgumentParser(prog="qdescent",
                                     description="Low-bit weight quantization by coordinate descent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-calib", help="synthesize calibration activations")
    p.add_argument("--d-in", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum-exponent", type=float, default=0.0)
    p.add_argument("--outlier-directions", type=int, default=0)
    p.add_argument("--outlier-gain", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_calib)

    q = sub.add_parser("quantize", help="quantize a weight matrix")
    q.add_argument("--weights", required=True)
    q.add_argument("--calib", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--config", default=None, help="flat JSON config of defaults; flags override it")
    q.add_argument("--method", choices=descent.METHODS, default=None)
    q.add_argument("--bits", type=int, default=None)
    q.add_argument("--group-size", type=int, default=0, dest="group_size")
    q.add_argument("--block-size", type=int, default=None, dest="block_size")
    q.add_argument("--epochs", type=int, default=1)
    q.add_argument("--steps", type=int, default=None)
    q.add_argument("--grid-size", type=int, default=50, dest="grid_size")
    q.add_argument("--lambda-rel", type=float, default=0.01, dest="lambda_rel")
    q.add_argument("--clip-fraction", type=float, default=0.0, dest="clip_fraction")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--threads", type=int, default=None, help="accepted; has no effect")
    q.add_argument("--owc-cd", action="store_true", dest="owc_cd",
                   help="refine group clip strengths by coordinate descent before the engines")
    q.add_argument("--no-timing", action="store_true",
                   help="zero wall-clock fields so reports are byte-stable")
    q.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="recompute objectives for a stored layer")
    p.add_argument("--layer", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--weights", default=None,
                   help="original weights; defaults to the path recorded in layer metadata")
    p.add_argument("--out", default=None)
    # A layer without lambda_rel or clip_fraction in its metadata was made with these.
    p.set_defaults(func=cmd_eval, lambda_rel=q.get_default("lambda_rel"),
                   clip_fraction=q.get_default("clip_fraction"))

    p = sub.add_parser("bench", help="run a method x config experiment matrix")
    p.add_argument("--suite", default=None, help="suite JSON; defaults to the built-in matrix")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--threads", type=int, default=None, help="accepted; has no effect")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_bench, **{key: q.get_default(key) for key in _SETTING_TYPES})

    p = sub.add_parser("oracle", help="exhaustive optimum vs greedy descent")
    p.add_argument("--canonical", action="store_true", help="run the fixed 2-d instance")
    p.add_argument("--weights", default=None)
    p.add_argument("--calib", default=None)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--grid-size", type=int, default=q.get_default("grid_size"), dest="grid_size")
    p.add_argument("--lambda-rel", type=float, default=q.get_default("lambda_rel"),
                   dest="lambda_rel")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser, q


def main(argv=None) -> int:
    parser, quantize_parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            quantize_parser.set_defaults(**_read_config(args.config, quantize_parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))
        note = "out of memory: " if isinstance(exc, MemoryError) else ""  # a size too large
        print(f"error: {note}{exc}", file=sys.stderr)
        return code
    finally:
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


if __name__ == "__main__":
    sys.exit(main())
