"""Exhaustive ground-truth solver and step-by-step trace verification.

Finding the optimal integer codes is NP-hard in general, so the exact
solver simply enumerates all 2^(c * d_in) code vectors; a hard guard keeps
that below 2^24 states. It scores the scaled loss (q - z)' H (q - z), the
same quantity the engines descend on, and ties break to the code vector
that is lexicographically smallest (which is also the enumeration order).

``verify_trace`` replays an engine trace against a from-scratch loss
recomputation after every accepted step, flagging any step whose actual loss
change disagrees with the predicted delta and any loss increase. A no-op
step leaves the codes unchanged, so its actual loss is the previous
from-scratch one, bit for bit, and is reused rather than recomputed. It
shares no incremental state with the engines, so it catches bookkeeping bugs
in the gradient updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descent import DescentTrace, EnumerationGuardError, _loss
from .quantcore import ChannelProblem, DegenerateChannelError, QuantParams, channel_objective

#: Enumeration guard: at most 2^24 (about 16.7M) candidate code vectors.
MAX_SEARCH_BITS = 24

_CHUNK = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    codes: np.ndarray
    scaled_objective: float
    true_objective: float
    enumeration_count: int


def brute_force(prob: ChannelProblem) -> OracleResult:
    """Enumerate every code vector and return the scaled-loss minimizer."""
    if prob.params.scale == 0.0 or prob.target is None:
        raise DegenerateChannelError("constant weight vector has the trivial all-zero optimum")
    hmat = prob.hessian
    z = prob.target
    d = hmat.shape[0]
    c = prob.params.bits
    if c * d > MAX_SEARCH_BITS:
        raise EnumerationGuardError(
            f"search space is 2^{c * d} code vectors; guard is 2^{MAX_SEARCH_BITS}")

    levels = 1 << c
    total = levels ** d
    place = levels ** np.arange(d - 1, -1, -1, dtype=np.int64)  # first coord most significant

    best_loss = np.inf
    best_index = -1
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        codes = (idx[:, None] // place[None, :]) % levels
        err = codes.astype(np.float64) - z[None, :]
        losses = np.einsum("nd,nd->n", err @ hmat, err)
        j = int(np.argmin(losses))
        if float(losses[j]) < best_loss:  # strict: earlier (lexicographic) index wins ties
            best_loss = float(losses[j])
            best_index = int(idx[j])

    best_codes = ((best_index // place) % levels).astype(np.uint8)
    true_objective, _, _ = channel_objective(prob.weights, np.array([prob.params.scale]),
                                             np.array([prob.params.bias]), best_codes, hmat)
    return OracleResult(codes=best_codes, scaled_objective=best_loss,
                        true_objective=true_objective, enumeration_count=total)


@dataclass
class VerifyReport:
    ok: bool = True
    n_steps: int = 0
    violations: list[str] = field(default_factory=list)

    def flag(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


def verify_trace(prob: ChannelProblem, q0: np.ndarray, trace: DescentTrace,
                 rel_tol: float = 1e-9) -> VerifyReport:
    """Replay a trace, recomputing the loss from scratch after every accepted step."""
    if prob.target is None:
        raise DegenerateChannelError("cannot verify a trace on a degenerate channel")
    hmat = prob.hessian
    z = prob.target
    levels = prob.params.levels
    codes = np.asarray(q0, dtype=np.float64).copy()
    if codes.shape[0] != hmat.shape[0]:
        raise ValueError("trace/problem mismatch: initial codes have the wrong length")

    report = VerifyReport(n_steps=len(trace.steps))
    loss = _loss(hmat, codes, z)
    if abs(loss - trace.initial_loss) > rel_tol * max(abs(loss), 1e-30):
        report.flag(f"initial loss {trace.initial_loss} != recomputed {loss}")

    for s in trace.steps:
        new_loss = loss
        if s.accepted:
            if len(s.coords) != len(s.values):
                raise ValueError(f"trace/problem mismatch at step {s.index}")
            for i, r in zip(s.coords, s.values):
                if not (0 <= i < codes.shape[0]) or not (0 <= r < levels):
                    raise ValueError(f"trace/problem mismatch at step {s.index}")
                codes[i] = float(r)
            new_loss = _loss(hmat, codes, z)
        actual = new_loss - loss
        scale = max(abs(s.predicted_delta), abs(loss), 1.0e-30)
        if abs(actual - s.predicted_delta) > rel_tol * scale:
            report.flag(f"step {s.index}: predicted delta {s.predicted_delta}, actual {actual}")
        if actual > rel_tol * max(abs(loss), 1e-30):
            report.flag(f"step {s.index}: loss increased by {actual}")
        if abs(new_loss - s.loss_after) > rel_tol * max(abs(new_loss), 1e-30):
            report.flag(f"step {s.index}: recorded loss {s.loss_after} != recomputed {new_loss}")
        loss = new_loss

    if abs(loss - trace.final_loss) > rel_tol * max(abs(loss), 1e-30):
        report.flag(f"final loss {trace.final_loss} != recomputed {loss}")
    return report


def canonical_problem() -> tuple[ChannelProblem, np.ndarray]:
    """The fixed 2-d regression instance used across tests and the bench suite.

    H = [[2, 1], [1, 2]], z = (0.4, 0.6), 1-bit codes, unit scale, starting
    from codes (0, 0). The four candidate code vectors score 1.52, 0.72,
    0.32 and 1.52 (in enumeration order), so the optimum is q = (0, 1) at
    0.32; the greedy engine reaches it while a single cyclic sweep commits
    to coordinate 0 first and lands on q = (1, 0) at 0.72.
    """
    hessian = np.array([[2.0, 1.0], [1.0, 2.0]])
    params = QuantParams(scale=1.0, bias=0.0, bits=1, gamma=1.0)
    weights = np.array([0.4, 0.6])
    prob = ChannelProblem.build(weights, hessian, params)
    return prob, np.zeros(2, dtype=np.uint8)
