"""The benchmark's hooks into the package still resolve.

``benchmarks/tracer.py`` wraps package functions by module and name, and each
workload in ``benchmarks/workloads.py`` lists the span counts one traced
``quantize`` + ``eval`` must produce. A rename or deletion in ``qdescent``
makes ``benchmarks/run.py --trace 1`` fail; these tests catch it without
running the benchmark. Both files are imported, never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


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
