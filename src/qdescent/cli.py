"""Command-line front end.

Subcommands:

* ``gen-calib``  synthesize a calibration activation matrix
* ``quantize``   quantize a weight matrix against calibration data
* ``eval``       recompute objectives for a stored quantized layer
* ``bench``      run a method x config experiment matrix
* ``oracle``     exhaustive optimum vs the greedy engine on a tiny instance

Exit codes: 0 success, 2 usage/invalid flags, 3 I/O or file-format failure,
4 shape mismatch, 5 enumeration guard exceeded.

All flags are long-form. ``quantize`` optionally reads a flat JSON config
file whose values become the flags' defaults, so explicit flags win over
it. Channels are quantized one after another; ``--threads`` and the
``threads`` config key are still accepted for old command lines and
configs, and have no effect. Report files embed per-channel wall-clock
times unless --no-timing is given, which zeroes them so reports are
byte-stable too.
"""

from __future__ import annotations

import argparse
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


class UsageError(ValueError):
    """Invalid flag combination detected after parsing."""


def _build_hessian_pipeline(calib: np.ndarray, lambda_rel: float, clip_fraction: float):
    hessian = calibration.build_hessian(calib, lambda_rel)
    if clip_fraction != 0.0:  # so that a negative or NaN fraction is range-checked
        hessian = calibration.clip_hessian_eigenvalues(hessian, clip_fraction)
    return hessian


def _read_inputs(weights_path: str, calib_path: str, lambda_rel: float,
                 clip_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights and the calibration Hessian, once both containers hold matrices of one d_in."""
    weights, calib = (tensorio.read_container(path).array for path in (weights_path, calib_path))
    for path, arr in ((weights_path, weights), (calib_path, calib)):
        if arr.ndim != 2:
            raise ShapeMismatchError(f"{path}: expected a 2-d tensor, got shape {arr.shape}")
    if calib.shape[1] != weights.shape[0]:
        raise ShapeMismatchError(
            f"calibration d_in={calib.shape[1]} but weights d_in={weights.shape[0]}")
    return weights, _build_hessian_pipeline(calib, lambda_rel, clip_fraction)


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
    if args.spec_out:
        with open(args.spec_out, "w") as f:
            json.dump(spec.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"wrote {args.out}: {x.shape[0]} x {x.shape[1]} f32 calibration matrix")
    return EXIT_OK


# ---------------------------------------------------------------------------
# quantize

#: Config-file keys and the JSON type each value must have.
_CONFIG_TYPES = {"method": str, "bits": int, "group_size": int, "block_size": int, "epochs": int,
                 "steps": int, "grid_size": int, "lambda_rel": float, "clip_fraction": float,
                 "seed": int, "threads": int, "owc_cd": bool, "report_format": str}
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
                    dict: "an object"}
_REPORT_FORMATS = ("csv", "jsonl")


def _check_json_types(where: str, obj: dict, types: dict, nullable=()) -> None:
    """Reject keys outside ``types`` and values of another JSON type; ``[kind]``
    stands for a list of kind, and keys in ``nullable`` may also hold null."""
    unknown = set(obj) - set(types)
    if unknown:
        raise UsageError(f"unknown {where} keys: {sorted(unknown)}")
    for key, value in obj.items():
        kind = types[key]
        if value is None and key in nullable:
            continue
        if isinstance(kind, list):
            if not (isinstance(value, list)
                    and all(tensorio.json_value_is(v, kind[0]) for v in value)):
                raise UsageError(f"{where} key {key!r} must be a list, each entry "
                                 f"{_JSON_TYPE_NAMES[kind[0]]}, got {json.dumps(value)}")
        elif not tensorio.json_value_is(value, kind):
            raise UsageError(f"{where} key {key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                             f"got {json.dumps(value)}")


def _read_config(path: str, quantize_parser: argparse.ArgumentParser) -> dict:
    """A quantize config file's settings, type-checked, to become the flags' defaults."""
    with open(path) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise UsageError(f"config file {path} does not hold a JSON object")
    # null stands for "not set" only where the flag's own default is unset too.
    _check_json_types("config", config, _CONFIG_TYPES,
                      nullable=[k for k in _CONFIG_TYPES if quantize_parser.get_default(k) is None])
    return config


def cmd_quantize(args) -> int:
    if args.method is None or args.bits is None:
        raise UsageError("--method and --bits are required (flag or config file)")
    if args.method not in descent.METHODS:
        raise UsageError(f"unknown method {args.method!r}")
    if args.report_format not in _REPORT_FORMATS:
        raise UsageError(f"unknown report format {args.report_format!r}")
    if args.block_size is not None and args.method != "bcd":
        raise UsageError("--block-size only applies to --method bcd")
    if args.owc_cd and not args.group_size:
        raise UsageError("--owc-cd only applies with --group-size > 0")

    weights, hessian = _read_inputs(args.weights, args.calib, args.lambda_rel,
                                    args.clip_fraction)
    if args.group_size and weights.shape[0] % args.group_size:
        raise UsageError(f"group size {args.group_size} does not divide d_in={weights.shape[0]}")

    cfg = DescentConfig(steps=args.steps, epochs=args.epochs,
                        block_size=2 if args.block_size is None else args.block_size,
                        seed=args.seed)
    layer, records = descent.quantize_matrix(
        weights, hessian, args.method, bits=args.bits, group_size=args.group_size, cfg=cfg,
        grid_size=args.grid_size, owc_cd_refine=args.owc_cd, collect_timing=not args.no_timing)
    layer.meta.update(lambda_rel=args.lambda_rel, clip_fraction=args.clip_fraction,
                      weights_path=args.weights, calib_path=args.calib)

    out_dir = Path(args.out)
    quantcore.save_layer(layer, out_dir, packed=not args.unpacked_codes)
    report_path = out_dir / f"records.{args.report_format}"
    tensorio.emit_report(records, args.report_format, report_path)
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
        raise UsageError("--weights required (layer metadata holds no weights path)")
    weights, hessian = _read_inputs(weights_path, args.calib, meta.get("lambda_rel", 0.01),
                                    meta.get("clip_fraction", 0.0))
    if weights.shape != (layer.d_in, layer.d_out):
        raise ShapeMismatchError(f"weights shape {weights.shape} does not match layer "
                                 f"({layer.d_in}, {layer.d_out})")
    records = quantcore.layer_records(layer, weights, hessian)
    if args.out:
        tensorio.emit_report(records, args.report_format, args.out)
    _print_summary(records, weights, hessian)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def default_suite() -> dict:
    return {
        "instances": [{"d_in": 128, "d_out": 64, "n": 512, "seed": seed}
                      for seed in range(10)],
        "methods": ["owc", "cyclic", "cd", "bcd"],
        "bits": [2, 3, 4],
        "group_size": 0,
        "block_size": 2,
        "epochs": 1,
        "grid_size": 50,
        "lambda_rel": 0.01,
        "clip_fraction": 0.0,
        "owc_cd": False,
    }


#: Bench-suite keys and the JSON type of each value; ``[kind]`` is a list of kind.
_SUITE_TYPES = {"instances": [dict], "methods": [str], "bits": [int], "group_size": int,
                "block_size": int, "epochs": int, "grid_size": int, "lambda_rel": float,
                "clip_fraction": float, "owc_cd": bool}
#: Bench-suite instance keys and the JSON type of each value.
_INSTANCE_TYPES = {"d_in": int, "d_out": int, "n": int, "seed": int, "spectrum_exponent": float,
                   "outlier_directions": int, "outlier_gain": float}
_INSTANCE_REQUIRED = ("d_in", "d_out", "n", "seed")


def _read_suite(path: str) -> dict:
    """A suite file merged over :func:`default_suite`, each value type-checked."""
    with open(path) as f:
        suite = json.load(f)
    if not isinstance(suite, dict):
        raise UsageError(f"suite file {path} does not hold a JSON object")
    _check_json_types("suite", suite, _SUITE_TYPES)
    for i, inst in enumerate(suite.get("instances", [])):
        missing = [key for key in _INSTANCE_REQUIRED if key not in inst]
        if missing:
            raise UsageError(f"suite instance {i} lacks required keys {missing}")
        _check_json_types(f"suite instance {i}", inst, _INSTANCE_TYPES)
        for key in ("d_in", "d_out", "n"):
            if inst[key] < 1:
                raise UsageError(f"suite instance {i} key {key!r} must be at least 1, "
                                 f"got {inst[key]}")
    return {**default_suite(), **suite}


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
    suite = _read_suite(args.suite) if args.suite else default_suite()
    if not suite.get("methods"):
        raise UsageError("bench suite has an empty method list")
    if not suite.get("instances"):
        raise UsageError("bench suite has no instances")
    for m in suite["methods"]:
        if m not in descent.METHODS:
            raise UsageError(f"unknown method {m!r} in suite")
    if suite["owc_cd"] and not suite["group_size"]:
        raise UsageError("bench suite key 'owc_cd' only applies with 'group_size' > 0")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = _canonical_records()
    aggregates = []
    for inst in suite["instances"]:
        spec = SynthSpec(d_in=inst["d_in"], n=inst["n"],
                         spectrum_exponent=inst.get("spectrum_exponent", 0.0),
                         outlier_directions=inst.get("outlier_directions", 0),
                         outlier_gain=inst.get("outlier_gain", 1.0), seed=inst["seed"])
        calib = calibration.gen_calibration(spec)
        weights = calibration.gen_weights(inst["d_in"], inst["d_out"], inst["seed"])
        hessian = _build_hessian_pipeline(calib, suite["lambda_rel"], suite["clip_fraction"])
        for bits in suite["bits"]:
            for method in suite["methods"]:
                cfg = DescentConfig(epochs=suite["epochs"], block_size=suite["block_size"],
                                    seed=inst["seed"])
                _, recs = descent.quantize_matrix(
                    weights, hessian, method, bits=bits, group_size=suite["group_size"],
                    cfg=cfg, grid_size=suite["grid_size"], owc_cd_refine=suite["owc_cd"],
                    collect_timing=not args.no_timing)
                records.extend(recs)
                rels = [r.relative_objective for r in recs]
                aggregates.append({
                    "method": method, "bits": bits, "seed": inst["seed"],
                    "group_size": suite["group_size"],
                    "block_size": suite["block_size"] if method == "bcd" else 0,
                    "epochs": suite["epochs"],
                    "median_relative": statistics.median(rels),
                    "mean_relative": statistics.fmean(rels),
                    "wall_millis": sum(r.wall_millis for r in recs),
                })

    tensorio.emit_report(records, "csv", out_dir / "records.csv")
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
            raise UsageError("oracle needs --canonical, or --weights/--calib/--bits")
        weights, hessian = _read_inputs(args.weights, args.calib, args.lambda_rel, 0.0)
        if not 0 <= args.channel < weights.shape[1]:
            raise UsageError(f"--channel {args.channel} is outside [0, {weights.shape[1]})")
        w = weights.astype(np.float64)[:, args.channel]
        params, q0 = quantcore.owc_quantize(w, hessian, args.bits, args.grid_size)
        if params.scale == 0.0:
            raise UsageError(f"channel {args.channel} is constant; nothing to search")
        prob = quantcore.ChannelProblem.build(w, hessian, params)

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
    p.add_argument("--spec-out", default=None, help="also write the generator spec as JSON")
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
    q.add_argument("--report-format", choices=_REPORT_FORMATS, default="csv",
                   dest="report_format")
    q.add_argument("--no-timing", action="store_true",
                   help="zero wall-clock fields so reports are byte-stable")
    q.add_argument("--unpacked-codes", action="store_true",
                   help="store codes as a u8 container instead of bit-packing (debug)")
    q.set_defaults(func=cmd_quantize)

    p = sub.add_parser("eval", help="recompute objectives for a stored layer")
    p.add_argument("--layer", required=True)
    p.add_argument("--calib", required=True)
    p.add_argument("--weights", default=None,
                   help="original weights; defaults to the path recorded in layer metadata")
    p.add_argument("--out", default=None)
    p.add_argument("--report-format", choices=_REPORT_FORMATS, default="csv",
                   dest="report_format")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="run a method x config experiment matrix")
    p.add_argument("--suite", default=None, help="suite JSON; defaults to the built-in matrix")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--threads", type=int, default=None, help="accepted; has no effect")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="exhaustive optimum vs greedy descent")
    p.add_argument("--canonical", action="store_true", help="run the fixed 2-d instance")
    p.add_argument("--weights", default=None)
    p.add_argument("--calib", default=None)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--grid-size", type=int, default=50, dest="grid_size")
    p.add_argument("--lambda-rel", type=float, default=0.01, dest="lambda_rel")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (TensorIOError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size argument too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
