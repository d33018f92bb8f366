"""Benchmark workloads: input shapes, CLI flags and expected span counts.

Each workload is one synthetic layer quantized through the real CLI. Inputs
come from ``gen_calibration`` (power-law spectrum, exponent 1) and
``gen_weights``, both keyed by the benchmark's ``--seed``. Why each workload
exists, and which layer it stresses, is written in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    d_in: int
    d_out: int
    n: int
    flags: tuple[str, ...]
    outlier_directions: int = 0
    outlier_gain: float = 1.0
    #: Call count of each span in one quantize + eval; 0 means the span must not run.
    expected_calls: dict = field(default_factory=dict)
    #: Exact per-run totals of step counters that do not depend on the data.
    expected_counts: dict = field(default_factory=dict)


def _calls(d_out: int, *, owc: int = 0, bcd: int = 0, grouped: int = 0,
           clip: int = 0) -> dict:
    """Spans of one ``quantize`` followed by one ``eval --out``.

    Container reads: weights and calibration in quantize; scales, biases,
    gammas, weights and calibration in eval. Writes: three f32 containers,
    one packed code stream. Reports: records.csv and eval.csv.
    """
    return {
        "cli.quantize": 1, "cli.eval": 1,
        "descent.quantize_matrix": 1, "descent.channel": d_out,
        "descent.cd_quantize": d_out, "descent.bcd_quantize": bcd,
        "quantcore.owc_quantize": owc,
        "quantcore.save_layer": 1, "quantcore.load_layer": 1,
        "groupquant.owc_group_init": grouped, "groupquant.owc_cd": grouped,
        "groupquant.tilde_transform": grouped,
        "calibration.build_hessian": 2, "calibration.clip_hessian_eigenvalues": clip,
        "tensorio.read_container": 7, "tensorio.write_container": 3,
        "tensorio.write_packed": 1, "tensorio.pack_codes": 1, "tensorio.emit_report": 2,
    }


def _chan_bcd3() -> Workload:
    d_in, d_out = 512, 32
    return Workload(
        name="chan-bcd3", d_in=d_in, d_out=d_out, n=2048,
        flags=("--method", "bcd", "--bits", "3", "--block-size", "2", "--threads", "1"),
        expected_calls=_calls(d_out, owc=d_out, bcd=d_out),
        # k > 1 never stops early: one epoch is exactly d_in block steps per channel.
        expected_counts={"descent.bcd_quantize.steps": d_in * d_out})


def _group_owccd3() -> Workload:
    d_out = 32
    return Workload(
        name="group-owccd3", d_in=1024, d_out=d_out, n=4096,
        flags=("--method", "cd", "--bits", "3", "--group-size", "32", "--owc-cd",
               "--threads", "1"),
        expected_calls=_calls(d_out, grouped=d_out))


def _chan_cd8_mt() -> Workload:
    d_out = 32
    return Workload(
        name="chan-cd8-mt", d_in=1024, d_out=d_out, n=16384,
        outlier_directions=4, outlier_gain=100.0,
        flags=("--method", "cd", "--bits", "8", "--clip-fraction", "0.01", "--threads", "2"),
        expected_calls=_calls(d_out, owc=d_out, clip=2))


WORKLOADS = {w.name: w for w in (_chan_bcd3(), _group_owccd3(), _chan_cd8_mt())}
