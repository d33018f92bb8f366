"""In-memory span tracer that wraps the package's public functions from outside.

The tracer rebinds each target function in every ``qdescent`` module that
binds it, because modules import engines by name (``groupquant`` binds
``cd_quantize`` itself, so wrapping ``descent.cd_quantize`` alone would miss
the grouped calls). Each span records its name, start, end, parent span, run
id and thread. Parents come from a per-thread stack; a span opened by a
worker thread with an empty stack is parented to the innermost open span of
the installing thread, which is the ``quantize_matrix`` call that started
the pool. Spans stay in memory and are written out by the caller at the end.

The wrappers also audit what they return: every ``cd``/``bcd`` trace and
every ``owc_cd`` result must end at a loss no higher than where it started,
and the first trace of each engine is kept for ``oracle.verify_trace``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

#: (module, function, span name). Both channel pipelines share one span name,
#: the per-channel span behind ``descent.quantize_matrix.parallelism``.
TARGETS = (
    ("cli", "cmd_quantize", "cli.quantize"),
    ("cli", "cmd_eval", "cli.eval"),
    ("descent", "quantize_matrix", "descent.quantize_matrix"),
    ("descent", "_quantize_channel", "descent.channel"),
    ("groupquant", "quantize_channel_grouped", "descent.channel"),
    ("descent", "cd_quantize", "descent.cd_quantize"),
    ("descent", "bcd_quantize", "descent.bcd_quantize"),
    ("quantcore", "owc_quantize", "quantcore.owc_quantize"),
    ("quantcore", "save_layer", "quantcore.save_layer"),
    ("quantcore", "load_layer", "quantcore.load_layer"),
    ("groupquant", "owc_group_init", "groupquant.owc_group_init"),
    ("groupquant", "owc_cd", "groupquant.owc_cd"),
    ("groupquant", "tilde_transform", "groupquant.tilde_transform"),
    ("calibration", "build_hessian", "calibration.build_hessian"),
    ("calibration", "clip_hessian_eigenvalues", "calibration.clip_hessian_eigenvalues"),
    ("tensorio", "read_container", "tensorio.read_container"),
    ("tensorio", "write_container", "tensorio.write_container"),
    ("tensorio", "write_packed", "tensorio.write_packed"),
    ("tensorio", "pack_codes", "tensorio.pack_codes"),
    ("tensorio", "emit_report", "tensorio.emit_report"),
)

#: Spans summed into ``tensorio.write.s``.
WRITE_SPANS = ("tensorio.write_container", "tensorio.write_packed", "tensorio.pack_codes")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    thread: int
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around the package's functions once :meth:`install` ran."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self.audit_failures: list[str] = []
        self.first_traces: dict[str, tuple] = {}
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack: list[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = observe(args, result) if observe else None
            self.spans.append(Span(sid, name, start, end, parent, self.run,
                                   threading.get_ident(), attrs))
            return result
        return traced

    # -- observers: counters and audits taken from what the call returned --

    def _engine_observer(self, name: str) -> Callable:
        def observe(args, result):
            _, trace = result
            if not trace.final_loss <= trace.initial_loss:
                self.audit_failures.append(
                    f"{name}: final loss {trace.final_loss!r} > initial {trace.initial_loss!r}")
            with self._lock:
                if name not in self.first_traces:
                    prob, q0 = args[0], np.array(args[1], copy=True)
                    self.first_traces[name] = (prob, q0, trace)
            return {"steps": len(trace.steps), "accepted": trace.accepted_steps}
        return observe

    def _owc_cd_observer(self, args, result):
        if not result.final_loss <= result.initial_loss:
            self.audit_failures.append(
                f"groupquant.owc_cd: final loss {result.final_loss!r} > "
                f"initial {result.initial_loss!r}")
        return {"swaps": len(result.swaps)}

    @staticmethod
    def _read_observer(args, result):
        return {"bytes": int(result.array.nbytes)}

    def install(self) -> list[str]:
        """Rebind every target in every loaded ``qdescent`` module.

        Returns the targets that no longer exist, so the caller can report
        them; their spans then show up as absent in the coverage check.
        """
        observers = {
            "descent.cd_quantize": self._engine_observer("descent.cd_quantize"),
            "descent.bcd_quantize": self._engine_observer("descent.bcd_quantize"),
            "groupquant.owc_cd": self._owc_cd_observer,
            "tensorio.read_container": self._read_observer,
        }
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qdescent" or key.startswith("qdescent."))]
        missing = []
        for mod_name, fn_name, span in TARGETS:
            owner = sys.modules.get(f"qdescent.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(span, original, observers.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return missing

    def verify_first_traces(self, verify_trace: Callable) -> list[str]:
        """Replay the first trace of each engine from scratch; returns violations."""
        failures = []
        for name, (prob, q0, trace) in sorted(self.first_traces.items()):
            report = verify_trace(prob, q0, trace)
            if not report.ok:
                failures.append(f"{name}: verify_trace: {report.violations[:3]}")
        return failures

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of its children covers."""
    covered, reach = 0.0, span.start
    for lo, hi in sorted((c.start, c.end) for c in children):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_time(spans: list[Span], name: str) -> float:
    """Summed self time of every span called ``name``: duration minus child coverage."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return sum(s.duration - _covered(s, children.get(s.id, []))
               for s in spans if s.name == name)


def calls(spans: list[Span]) -> dict[str, int]:
    return dict(Counter(s.name for s in spans))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced quantize + eval (see README.md).

    A span that did not run contributes 0 calls and 0 s; the coverage check
    compares the call counts against the workload's expected counts, so a
    span that disappears fails the run instead of reading as a speed-up.
    """
    def total(name: str, key: Optional[str] = None) -> float:
        if key is None:
            return sum(s.duration for s in spans if s.name == name)
        return sum(s.attrs[key] for s in spans if s.name == name)

    n = calls(spans)
    m: dict[str, float] = {}
    for engine in ("descent.cd_quantize", "descent.bcd_quantize"):
        m[f"{engine}.s"] = total(engine)
        m[f"{engine}.calls"] = n.get(engine, 0)
        m[f"{engine}.steps"] = total(engine, "steps")
        m[f"{engine}.accepted"] = total(engine, "accepted")
    steps = m["descent.bcd_quantize.steps"]
    m["descent.bcd_quantize.accept_ratio"] = (
        m["descent.bcd_quantize.accepted"] / steps if steps else 0.0)

    qm_wall = total("descent.quantize_matrix")
    m["descent.quantize_matrix.s"] = qm_wall
    m["descent.quantize_matrix.self_s"] = self_time(spans, "descent.quantize_matrix")
    m["descent.channel.s"] = total("descent.channel")
    m["descent.quantize_matrix.parallelism"] = (
        m["descent.channel.s"] / qm_wall if qm_wall else 0.0)

    m["quantcore.owc_quantize.s"] = total("quantcore.owc_quantize")
    m["quantcore.owc_quantize.calls"] = n.get("quantcore.owc_quantize", 0)
    m["quantcore.save_layer.s"] = total("quantcore.save_layer")
    m["quantcore.load_layer.s"] = total("quantcore.load_layer")

    m["groupquant.owc_group_init.s"] = total("groupquant.owc_group_init")
    m["groupquant.owc_cd.s"] = total("groupquant.owc_cd")
    m["groupquant.owc_cd.swaps"] = total("groupquant.owc_cd", "swaps")
    m["groupquant.tilde_transform.s"] = total("groupquant.tilde_transform")

    m["calibration.build_hessian.s"] = total("calibration.build_hessian")
    m["calibration.clip_hessian_eigenvalues.s"] = total("calibration.clip_hessian_eigenvalues")

    m["tensorio.read_container.s"] = total("tensorio.read_container")
    m["tensorio.read_container.bytes"] = total("tensorio.read_container", "bytes")
    m["tensorio.write.s"] = sum(total(name) for name in WRITE_SPANS)
    m["tensorio.emit_report.s"] = total("tensorio.emit_report")

    m["cli.quantize.self_s"] = self_time(spans, "cli.quantize")
    m["cli.eval.self_s"] = self_time(spans, "cli.eval")
    return m
