"""Child process of the benchmark: generates inputs, or runs one quantize + eval.

Usage (started by ``run.py`` with ``src/`` on PYTHONPATH, from the checkout root):

    python3 child.py gen --workload NAME --seed N --dir DIR
    python3 child.py run --workload NAME --seed N --dir DIR --iteration I --trace 0|1

``gen`` writes ``weights.tc`` and ``calib.tc``, checks that
``qdescent oracle --canonical`` reports a zero gap, and records host facts.
``run`` calls ``cli.main(["quantize", ...])`` then ``cli.main(["eval", ...])``
in this process and writes its timings to ``result-<I>.json``. Untraced, the
only instrumentation is one timestamp on entry to ``descent.quantize_matrix``.
Traced, every target of ``tracer.TARGETS`` is wrapped and the spans are
written to ``spans-<I>.jsonl`` after both commands have finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def _cache_size(name: str) -> str:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "l2_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
            "l3_bytes": _cache_size("LEVEL3_CACHE_SIZE")}


def cmd_gen(args) -> int:
    from qdescent import calibration, cli, tensorio

    wl = WORKLOADS[args.workload]
    out = Path(args.dir)
    spec = calibration.SynthSpec(d_in=wl.d_in, n=wl.n, spectrum_exponent=1.0,
                                 outlier_directions=wl.outlier_directions,
                                 outlier_gain=wl.outlier_gain, seed=args.seed)
    tensorio.write_container(out / "calib.tc", calibration.gen_calibration(spec))
    tensorio.write_container(out / "weights.tc",
                             calibration.gen_weights(wl.d_in, wl.d_out, args.seed))
    rc = cli.main(["oracle", "--canonical", "--out", str(out / "oracle.json")])
    gap = json.loads((out / "oracle.json").read_text())["gap"] if rc == 0 else None
    (out / "gen.json").write_text(json.dumps({"oracle_rc": rc, "oracle_gap": gap,
                                              "host": _host_info()}))
    return 0


def _argv(args, wl) -> tuple[list[str], list[str]]:
    d = Path(args.dir)
    layer = d / f"layer-{args.iteration}"
    quantize = ["quantize", "--weights", str(d / "weights.tc"), "--calib", str(d / "calib.tc"),
                "--out", str(layer), "--seed", str(args.seed), *wl.flags]
    evaluate = ["eval", "--layer", str(layer), "--calib", str(d / "calib.tc"),
                "--out", str(d / f"eval-{args.iteration}.csv")]
    return quantize, evaluate


def cmd_run(args) -> int:
    from qdescent import cli, descent

    wl = WORKLOADS[args.workload]
    quantize_argv, eval_argv = _argv(args, wl)
    result: dict = {}
    tracer = None
    if args.trace:
        import tracer as tracing
        from qdescent import oracle

        tracer = tracing.Tracer()
        result["missing_targets"] = tracer.install()
    # setup_s ends where quantize_matrix begins. This wrapper sits outside the
    # tracer's, so the timestamp is taken the same way in both modes.
    inner = descent.quantize_matrix
    entered: list[float] = []

    def quantize_matrix(*a, **kw):
        entered.append(time.perf_counter())
        return inner(*a, **kw)

    descent.quantize_matrix = quantize_matrix

    if tracer:
        tracer.run = f"{args.iteration}/quantize"
    t0 = time.perf_counter()
    result["rc_quantize"] = cli.main(quantize_argv)
    t1 = time.perf_counter()
    if tracer:
        tracer.run = f"{args.iteration}/eval"
    result["rc_eval"] = cli.main(eval_argv)
    t2 = time.perf_counter()

    result.update(quantize_s=t1 - t0, eval_s=t2 - t1,
                  setup_s=(entered[0] - t0) if entered else None)
    if tracer:
        result["calls"] = tracing.calls(tracer.spans)
        result["layer"] = tracing.layer_metrics(tracer.spans)
        result["audit_failures"] = (tracer.audit_failures
                                    + tracer.verify_first_traces(oracle.verify_trace))
        result["verified"] = sorted(tracer.first_traces)
        tracer.dump(Path(args.dir) / f"spans-{args.iteration}.jsonl")
    Path(args.dir, f"result-{args.iteration}.json").write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("gen", cmd_gen), ("run", cmd_run)):
        p = sub.add_parser(name)
        p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--dir", required=True)
        if name == "run":
            p.add_argument("--iteration", type=int, required=True)
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.set_defaults(func=func)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
