"""Benchmark of ``qdescent quantize`` + ``eval`` end to end and per module.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 benchmarks/run.py --workload chan-bcd3 --seed 1 --seconds 24 --trace 0

One run generates the workload's inputs from ``--seed`` in a child process,
checks that ``qdescent oracle --canonical`` reports a zero gap, then starts
one fresh child per iteration, each running the real CLI path (quantize, then
eval on the layer just written), until ``--seconds`` have passed. Every
iteration's outputs are checked; an iteration whose check fails counts as a
failed attempt and its timings are dropped. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (medians over iterations) with
``--trace 0``, the per-layer metrics with ``--trace 1``. The traced run
alternates untraced and traced children, so it also reports the tracing
overhead. See ``README.md`` for the metrics, the workloads and the noise.

Exit codes: 0 with a result line; 1 when the preflight check fails or no
iteration succeeded (a result line with ``correct: false`` is still
printed); 2 when the checkout holds no ``src/qdescent`` package, without a
result line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
#: The whole run, input generation included, must end well within 180 s.
RUN_DEADLINE_S = 165.0
#: Thread settings removed from each child's environment, so that the
#: program's own defaults apply and BLAS oversubscription stays visible.
SCRUBBED_ENV = ("QDESCENT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Layer files whose bytes must be identical on every run of a workload and seed.
DIGEST_FILES = ("codes.pc", "scales.tc", "biases.tc", "gammas.tc")
UNITS = {"channels_per_s": "ch/s", "setup_s": "s", "eval_s": "s", "peak_rss_mb": "MiB",
         "rel_obj_mean": "ratio", "rel_obj_p90": "ratio"}


class CheckFailed(Exception):
    """An iteration's outputs failed a correctness check."""


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv: list[str], root: Path, log: Path, deadline: float):
    """Run a child to completion; returns (exit code, peak RSS in MiB).

    The child is reaped with ``os.wait4`` so that its own rusage gives the
    peak resident memory; it is killed when the run's deadline passes.
    """
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=root,
                                env=_child_env(root), stdout=out, stderr=subprocess.STDOUT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # Linux reports KiB


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _digest(layer: Path) -> str:
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        h.update(name.encode() + b"\0")
        h.update((layer / name).read_bytes())
    return h.hexdigest()


def _check_outputs(work: Path, it: int, wl, result: dict) -> dict:
    """Exit codes, eval == quantize-time objectives, and the artifact digest."""
    if result.get("rc_quantize") != 0 or result.get("rc_eval") != 0:
        raise CheckFailed(f"exit codes quantize={result.get('rc_quantize')} "
                          f"eval={result.get('rc_eval')}")
    if result.get("setup_s") is None:
        raise CheckFailed("quantize never entered descent.quantize_matrix")
    layer = work / f"layer-{it}"
    records = _read_csv(layer / "records.csv")
    evaluated = _read_csv(work / f"eval-{it}.csv")
    if len(records) != wl.d_out or len(evaluated) != wl.d_out:
        raise CheckFailed(f"{len(records)} records and {len(evaluated)} eval rows, "
                          f"expected {wl.d_out}")
    for rec, ev in zip(records, evaluated):
        if rec["column"] != ev["column"] or rec["objective"] != ev["objective"]:
            raise CheckFailed(f"column {rec['column']}: quantize objective {rec['objective']} "
                              f"!= eval {ev['objective']}")
    rel = [float(r["relative_objective"]) for r in records]
    return {"digest": _digest(layer),
            "objectives": hashlib.sha256("".join(r["objective"] + "," for r in records)
                                         .encode()).hexdigest(),
            "rel_obj_mean": statistics.fmean(rel),
            "rel_obj_p90": statistics.quantiles(rel, n=10, method="inclusive")[-1],
            "rel_obj_max": max(rel)}


def _check_trace(wl, result: dict) -> None:
    """Span coverage against the workload's expected calls, and the audits."""
    problems = [f"target {t} no longer exists" for t in result.get("missing_targets", [])]
    got = result["calls"]
    for span, want in sorted(wl.expected_calls.items()):
        have = got.get(span, 0)
        if have != want:
            state = "absent" if have == 0 else f"{have} calls"
            problems.append(f"span {span}: {state}, expected {want} calls")
    for name, want in wl.expected_counts.items():
        if result["layer"][name] != want:
            problems.append(f"{name} = {result['layer'][name]}, expected {want}")
    problems += result["audit_failures"]
    engines = {s for s in ("descent.cd_quantize", "descent.bcd_quantize")
               if wl.expected_calls.get(s)}
    if set(result["verified"]) != engines:
        problems.append(f"verify_trace ran on {result['verified']}, expected {sorted(engines)}")
    if problems:
        raise CheckFailed("; ".join(problems))


#: Per-layer metrics that count work; they must repeat exactly between runs.
COUNT_SUFFIXES = (".calls", ".steps", ".accepted", ".swaps", ".bytes", ".accept_ratio")


def _counts(result: dict) -> dict:
    return {k: v for k, v in result["layer"].items() if k.endswith(COUNT_SUFFIXES)}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} n=1"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} median {q2:.6g} q3 {q3:.6g} n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qdescent" / "__init__.py").is_file():
        print(f"error: {root} holds no src/qdescent package to benchmark", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = BENCH_DIR / "_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    keep = BENCH_DIR / "_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    keep.mkdir(exist_ok=True)
    log = work / "children.log"
    try:
        return _run(args, wl, root, work, keep, log, deadline)
    finally:
        if log.exists():
            shutil.copyfile(log, keep / f"{wl.name}-{args.seed}-trace{args.trace}.log")
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, root: Path, work: Path, keep: Path, log: Path, deadline: float) -> int:
    common = ["--workload", wl.name, "--seed", str(args.seed), "--dir", str(work)]
    rc, _ = _spawn(["gen", *common], root, log, deadline)
    gen = json.loads((work / "gen.json").read_text()) if rc == 0 else {}
    host = gen.get("host", {})
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload {wl.name} seed {args.seed}: d_in {wl.d_in} d_out {wl.d_out} n {wl.n} "
          f"flags {' '.join(wl.flags)}")
    if rc != 0 or gen.get("oracle_rc") != 0 or gen.get("oracle_gap") != 0:
        print(f"FAIL preflight: gen exit {rc}, oracle --canonical {gen.get('oracle_rc')}, "
              f"gap {gen.get('oracle_gap')}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print("preflight: oracle --canonical gap 0")

    untraced: list[dict] = []
    traced: list[dict] = []
    reference: dict = {}
    attempted = failed = 0
    start = time.monotonic()
    # Traced runs alternate untraced and traced children, so both see the
    # same machine state and their ratio is the tracing overhead.
    min_iterations = 2 if args.trace else 1
    while True:
        it = attempted
        trace = args.trace == 1 and it % 2 == 1
        attempted += 1
        began = time.monotonic()
        rc, peak_mib = _spawn(["run", *common, "--iteration", str(it), "--trace", str(int(trace))],
                              root, log, deadline)
        try:
            res_path = work / f"result-{it}.json"
            if rc != 0 or not res_path.exists():
                raise CheckFailed(f"child exited {rc}")
            result = json.loads(res_path.read_text())
            out = _check_outputs(work, it, wl, result)
            for key in ("digest", "objectives"):
                if reference.setdefault(key, out[key]) != out[key]:
                    raise CheckFailed(f"{key} {out[key]} differs from the first run's")
            if trace:
                _check_trace(wl, result)
                counts = _counts(result)
                if reference.setdefault("counts", counts) != counts:
                    raise CheckFailed(f"counts {counts} differ from the first traced run's")
                shutil.copyfile(work / f"spans-{it}.jsonl",
                                keep / f"{wl.name}-{args.seed}-spans.jsonl")
            result.update(out, peak_rss_mb=peak_mib)
            (traced if trace else untraced).append(result)
            print(f"iteration {it}{' traced' if trace else ''}: quantize {result['quantize_s']:.4f} s, "
                  f"setup {result['setup_s']:.4f} s, eval {result['eval_s']:.4f} s, "
                  f"peak rss {peak_mib:.1f} MiB")
        except CheckFailed as exc:
            failed += 1
            print(f"FAIL iteration {it}: {exc}")
        shutil.rmtree(work / f"layer-{it}", ignore_errors=True)
        now = time.monotonic()
        if now - start >= args.seconds and attempted >= min_iterations:
            break
        if now + (now - began) > deadline:
            print(f"stopped after {attempted} iterations: the next one would pass the deadline")
            break

    if not untraced or (args.trace == 1 and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(f"digest {reference['digest']} (sha256 of {', '.join(DIGEST_FILES)})")
    print(f"iterations: {len(untraced)} untraced, {len(traced)} traced, {failed} failed")
    if args.trace == 0:
        metrics = _end_to_end(wl, untraced)
    else:
        metrics = _per_layer(wl, untraced, traced)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _end_to_end(wl, runs: list[dict]) -> dict:
    series = {
        "channels_per_s": [wl.d_out / r["quantize_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "eval_s": [r["eval_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "rel_obj_mean": [r["rel_obj_mean"] for r in runs],
        "rel_obj_p90": [r["rel_obj_p90"] for r in runs],
    }
    print(f"quantize_s {_quartiles([r['quantize_s'] for r in runs])}")
    print(f"rel_obj_max [ratio] {runs[0]['rel_obj_max']:.6g} (unbounded; see README.md)")
    metrics = {}
    for name, values in series.items():
        print(f"{name} [{UNITS[name]}] {_quartiles(values)}")
        metrics[name] = {"value": statistics.median(values), "unit": UNITS[name]}
    return metrics


#: Unit of each per-layer metric, by name suffix.
LAYER_UNITS = {".s": "s", ".self_s": "s", ".calls": "count", ".steps": "count",
               ".accepted": "count", ".swaps": "count", ".bytes": "B",
               ".accept_ratio": "ratio", ".parallelism": "ratio"}


def _layer_unit(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def _per_layer(wl, untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    absent = sorted(span for span, want in wl.expected_calls.items() if want == 0)
    print(f"absent by design on {wl.name}: {', '.join(absent) or 'none'} "
          "(their metrics read 0 calls and 0 s)")
    counts = _counts(traced[0])
    for name in traced[0]["layer"]:
        values = [r["layer"][name] for r in traced]
        unit = _layer_unit(name)
        # Counts are equal in every traced iteration (checked); times are medians.
        value = counts[name] if name in counts else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} [{unit}] {_quartiles(values)}")
    wall_u = statistics.median(r["quantize_s"] + r["eval_s"] for r in untraced)
    wall_t = statistics.median(r["quantize_s"] + r["eval_s"] for r in traced)
    # The worst channel is deterministic but swings too much from seed to seed
    # to carry a bound; it is reported here, next to the other exact counts.
    metrics["rel_obj_max"] = {"value": traced[0]["rel_obj_max"], "unit": "ratio"}
    print(f"rel_obj_max [ratio] {traced[0]['rel_obj_max']:.6g}")
    metrics["trace.untraced_wall_s"] = {"value": wall_u, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": wall_t, "unit": "s"}
    metrics["trace.overhead"] = {"value": wall_t / wall_u, "unit": "ratio"}
    print(f"tracing overhead {wall_t / wall_u:.4f} = traced {wall_t:.4f} s / "
          f"untraced {wall_u:.4f} s (medians of quantize + eval wall time)")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
