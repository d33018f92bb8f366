"""The benchmark's hooks into the package still resolve.

``benchmarks/tracer.py`` wraps package functions by module and name, and each
workload in ``benchmarks/workloads.py`` lists the span counts one traced
``quantize`` + ``eval`` must produce. A rename or deletion in ``qdescent``
makes ``benchmarks/run.py --trace 1`` fail; these tests catch it without
running the benchmark. Both files are imported, never modified.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "benchmarks"


def _load(name: str):
    """Execute ``benchmarks/<name>.py`` as a module of its own, writing no bytecode there."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def bench_modules():
    return _load("tracer"), _load("workloads")


def test_every_trace_target_resolves(bench_modules):
    tracer, _ = bench_modules
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracer.TARGETS
               if not callable(getattr(importlib.import_module(f"qdescent.{mod}"), fn, None))]
    assert missing == []


def test_expected_spans_are_trace_targets(bench_modules):
    tracer, workloads = bench_modules
    spans = {span for _, _, span in tracer.TARGETS}
    for name, workload in workloads.WORKLOADS.items():
        assert set(workload.expected_calls) <= spans, name


#: One traced ``quantize`` + ``eval --out`` of a workload's flags on a small
#: layer, as ``benchmarks/child.py run --trace 1`` does it. The inputs are
#: written before the tracer is installed, as the benchmark writes them in a
#: separate process. It runs in a child interpreter because the tracer
#: rebinds module globals and cannot be uninstalled.
_TRACED_RUN = """
import json, sys
from pathlib import Path
import tracer as tracing
from workloads import WORKLOADS
from qdescent import calibration, cli, oracle, tensorio

wl, d = WORKLOADS[sys.argv[1]], Path(sys.argv[2])
spec = calibration.SynthSpec(d_in=64, n=256, spectrum_exponent=1.0,
                             outlier_directions=wl.outlier_directions,
                             outlier_gain=wl.outlier_gain, seed=41)
tensorio.write_container(d / "calib.tc", calibration.gen_calibration(spec))
tensorio.write_container(d / "weights.tc", calibration.gen_weights(64, wl.d_out, 41))
tracer = tracing.Tracer()
missing = tracer.install()
rc_quantize = cli.main(["quantize", "--weights", str(d / "weights.tc"), "--calib",
                        str(d / "calib.tc"), "--out", str(d / "layer"), "--seed", "41",
                        *wl.flags])
rc_eval = cli.main(["eval", "--layer", str(d / "layer"), "--calib", str(d / "calib.tc"),
                    "--out", str(d / "eval.csv")])
(d / "result.json").write_text(json.dumps({
    "rc": [rc_quantize, rc_eval], "missing_targets": missing,
    "calls": tracing.calls(tracer.spans), "audit_failures": tracer.audit_failures,
    "verify_failures": tracer.verify_first_traces(oracle.verify_trace),
    "verified": sorted(tracer.first_traces)}))
"""


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_traced_run_matches_expected_calls(bench_modules, tmp_path, name):
    """What ``run.py``'s ``_check_trace`` checks, on a 64 x d_out layer."""
    wl = bench_modules[1].WORKLOADS[name]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])}
    subprocess.run([sys.executable, "-B", "-c", _TRACED_RUN, name, str(tmp_path)], env=env,
                   check=True, capture_output=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["rc"] == [0, 0]
    assert result["missing_targets"] == []
    assert {span: result["calls"].get(span, 0) for span in wl.expected_calls} == wl.expected_calls
    assert result["audit_failures"] == [] and result["verify_failures"] == []
    engines = sorted(s for s in ("descent.cd_quantize", "descent.bcd_quantize")
                     if wl.expected_calls.get(s))
    assert result["verified"] == engines
