"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete (pytest otherwise shows them only for
failures). Criteria with runtime budgets measure and report wall time.
"""

import json
import time
from pathlib import Path

import numpy as np

from conftest import expand_params, minmax_quantize, objective, random_problem
from qdescent import calibration, descent, groupquant, oracle, tensorio
from qdescent.calibration import SynthSpec, build_hessian, clip_hessian_eigenvalues
from qdescent.cli import EXIT_OK, main
from qdescent.descent import DescentConfig, bcd_quantize, cd_quantize, cyclic_cd_quantize
from qdescent.quantcore import owc_quantize, zero_baseline


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"[criterion {num:02d}] {status}: {desc}{tail}", flush=True)
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_01_canonical_instance():
    prob, q0 = oracle.canonical_problem()

    def solve():
        opt = oracle.brute_force(prob)
        cd_codes, cd_trace = cd_quantize(prob, q0, DescentConfig())
        cyc_codes, cyc_trace = cyclic_cd_quantize(prob, q0, DescentConfig(epochs=1))
        return opt, cd_codes, cd_trace, cyc_codes, cyc_trace

    solve()  # warm-up
    best = min(_timed(solve) for _ in range(5))
    opt, cd_codes, cd_trace, cyc_codes, cyc_trace = solve()

    ok = (
        abs(opt.scaled_objective - 0.32) <= 1e-12
        and list(opt.codes) == [0, 1]
        and list(cd_codes) == [0, 1]
        and abs(cd_trace.final_loss - 0.32) <= 1e-12
        and cd_trace.accepted_steps == 1
        and not cd_trace.steps[-1].accepted  # greedy probes once more, then stops
        and list(cyc_codes) == [1, 0]
        and abs(cyc_trace.final_loss - 0.72) <= 1e-12
        and best < 1e-3
    )
    _report(1, "canonical instance: oracle 0.32 @ [0,1], greedy reaches it, cyclic 0.72 @ [1,0]",
            ok, f"runtime {best * 1e3:.3f} ms")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_oracle_sandwich():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for seed in range(200):
        d_in = 2 + seed % 5
        bits = 1 + (seed // 5) % 2
        prob, q0 = random_problem(d_in, bits, seed=seed)
        opt = oracle.brute_force(prob).scaled_objective
        cd_codes, cd_trace = cd_quantize(prob, q0, DescentConfig())
        init_obj, cd_obj = cd_trace.initial_loss, cd_trace.final_loss
        slack = 1e-12 * max(1.0, init_obj)
        if not (opt <= cd_obj + slack and cd_obj <= init_obj + slack):
            ok, detail = False, f"seed {seed}: {opt} / {cd_obj} / {init_obj}"
            break
        if d_in % 2 == 0:
            _, bcd_trace = bcd_quantize(prob, cd_codes,
                                        DescentConfig(block_size=2, epochs=1, seed=seed))
            if not bcd_trace.final_loss <= cd_obj + slack:
                ok, detail = False, f"seed {seed}: bcd {bcd_trace.final_loss} > cd {cd_obj}"
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "200-instance sandwich: oracle <= CD <= OWC init, BCD(k=2) <= CD",
            ok, detail or f"runtime {elapsed:.1f} s")


def test_criterion_03_delta_exactness_and_monotone():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for seed in range(50):
        bits = (2, 3, 4)[seed % 3]
        prob, q0 = random_problem(64, bits, seed=seed)
        runs = ((cd_quantize, DescentConfig()),
                (bcd_quantize, DescentConfig(block_size=2, seed=seed)),
                (cyclic_cd_quantize, DescentConfig()))
        for engine, cfg in runs:
            _, trace = engine(prob, q0, cfg)
            report = oracle.verify_trace(prob, q0, trace, rel_tol=1e-9)
            if not report.ok:
                ok, detail = False, f"seed {seed} {engine.__name__}: {report.violations[:2]}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, "50 instances (d=64): predicted deltas exact to 1e-9, losses non-increasing",
            ok, detail or f"runtime {elapsed:.1f} s")


def test_criterion_04_gradient_and_v_drift():
    worst_g = 0.0
    for seed in range(5):
        prob, _ = random_problem(64, 2, seed=100 + seed)
        codes, trace = cd_quantize(prob, np.zeros(64, dtype=np.uint8), DescentConfig())
        assert len(trace.steps) == trace.accepted_steps == 64
        fresh = 2.0 * (prob.hessian @ (codes.astype(np.float64) - prob.target))
        worst_g = max(worst_g, float(np.abs(trace.final_gradient - fresh).max()))

    worst_v = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        d, g = 32, 4
        x = rng.standard_normal((4 * d, d))
        hessian = build_hessian(x, 0.01)
        w = rng.standard_normal(d)
        table, picks = groupquant.owc_group_init(w, hessian, bits=2, group_size=g, grid_size=16)
        result = groupquant.owc_cd(table, hessian, picks, steps=d // g)
        params, codes = table.pick(result.picks)
        avec, bvec = expand_params(params, d)
        err = w - (avec * codes + bvec)
        fresh_v = -2.0 * (hessian @ err)
        worst_v = max(worst_v, float(np.abs(result.final_v - fresh_v).max()))

    ok = worst_g < 1e-6 and worst_v < 1e-6
    _report(4, "maintained gradient/v match from-scratch recomputation within 1e-6",
            ok, f"max |g drift| {worst_g:.2e}, max |v drift| {worst_v:.2e}")


def test_criterion_05_exact_equivalences():
    rng = np.random.default_rng(0)
    hessian = build_hessian(rng.standard_normal((60, 12)), 0.01)

    owc_is_minmax = True
    owc_not_worse = True
    for _ in range(100):
        w = rng.standard_normal(12) * rng.uniform(0.2, 5.0)
        pm, qm = minmax_quantize(w, 3)
        p1, q1 = owc_quantize(w, hessian, 3, grid_size=1)
        if (p1, list(q1)) != (pm, list(qm)):
            owc_is_minmax = False
        p50, q50 = owc_quantize(w, hessian, 3, grid_size=50)
        if objective(w, q50, p50, hessian) > objective(w, qm, pm, hessian):
            owc_not_worse = False

    traces_equal = True
    for seed in range(25):
        prob, q0 = random_problem(10, 2, seed=300 + seed)
        cfg = DescentConfig(seed=seed)
        _, cd_trace = cd_quantize(prob, q0, cfg)
        _, bcd_trace = bcd_quantize(prob, q0, cfg)  # block_size defaults to 1
        if [(s.coords, s.values, s.predicted_delta, s.loss_after, s.accepted)
                for s in cd_trace.steps] != \
           [(s.coords, s.values, s.predicted_delta, s.loss_after, s.accepted)
                for s in bcd_trace.steps]:
            traces_equal = False

    pipelines_equal = True
    w = rng.standard_normal((8, 6)).astype(np.float32)
    h8 = build_hessian(rng.standard_normal((40, 8)).astype(np.float32), 0.01)
    for method in ("rtn", "owc", "cd", "bcd"):
        cfg = DescentConfig(block_size=2, seed=11)
        per_channel, _ = descent.quantize_matrix(w, h8, method, bits=2, group_size=0, cfg=cfg)
        grouped, _ = descent.quantize_matrix(w, h8, method, bits=2, group_size=8, cfg=cfg)
        if (per_channel.codes.tobytes() != grouped.codes.tobytes()
                or per_channel.scales.tobytes() != grouped.scales.tobytes()
                or per_channel.biases.tobytes() != grouped.biases.tobytes()
                or per_channel.gammas.tobytes() != grouped.gammas.tobytes()):
            pipelines_equal = False

    ok = owc_is_minmax and owc_not_worse and traces_equal and pipelines_equal
    _report(5, "grid-1 search == min-max bitwise; BCD(k=1) == CD traces; "
               "full-group pipeline == per-channel; per-channel search never worse than "
               "min-max", ok,
            f"minmax {owc_is_minmax}, <= {owc_not_worse}, traces {traces_equal}, "
            f"pipeline {pipelines_equal}")


def test_criterion_06_qualitative_ordering():
    t0 = time.perf_counter()
    cells = {}
    for seed in range(10):
        x = calibration.gen_calibration(SynthSpec(d_in=128, n=512, seed=seed))
        w = calibration.gen_weights(128, 64, seed)
        hessian = build_hessian(x, 0.01)
        for bits in (2, 3, 4):
            med = {}
            for method in ("cyclic", "cd", "bcd"):
                _, recs = descent.quantize_matrix(
                    w, hessian, method, bits=bits,
                    cfg=DescentConfig(block_size=2, epochs=1, seed=seed),
                    collect_timing=False)
                med[method] = float(np.median([r.relative_objective for r in recs]))
            cells[(seed, bits)] = med
    elapsed = time.perf_counter() - t0

    bcd_le_cd = all(m["bcd"] <= m["cd"] + 1e-15 for m in cells.values())
    cd_wins = sum(1 for m in cells.values() if m["cd"] <= m["cyclic"])
    fraction = cd_wins / len(cells)
    ok = bcd_le_cd and fraction >= 0.7 and elapsed < 120.0
    _report(6, "default suite: median BCD(k=2) <= CD everywhere, CD <= cyclic on >= 70% of cells",
            ok, f"CD<=cyclic in {cd_wins}/{len(cells)} cells, runtime {elapsed:.1f} s")


def test_criterion_07_eigenvalue_clipping():
    rng = np.random.default_rng(7)
    spectral_ok = True
    for d, m in ((16, 2), (24, 3), (8, 1)):
        h = build_hessian(rng.standard_normal((3 * d, d)), 0.01)
        eig_in = np.sort(np.linalg.eigvalsh(h))[::-1]
        clipped = clip_hessian_eigenvalues(h, m / d)
        eig_out = np.sort(np.linalg.eigvalsh(clipped))[::-1]
        if not (np.array_equal(clipped, clipped.T)
                and eig_out.min() >= -1e-8 * np.trace(h)
                and abs(eig_out[0] - eig_in[m]) <= 1e-9 * max(1.0, eig_in[m])):
            spectral_ok = False

    wins = 0
    n_seeds = 20
    d_in, d_out, outliers = 32, 16, 2
    for seed in range(n_seeds):
        train = calibration.gen_calibration(SynthSpec(
            d_in=d_in, n=256, outlier_directions=outliers, outlier_gain=100.0, seed=seed))
        held_out = calibration.gen_calibration(SynthSpec(d_in=d_in, n=512, seed=seed + 1000))
        w = calibration.gen_weights(d_in, d_out, seed)
        h_train = build_hessian(train, 0.01)
        h_clip = clip_hessian_eigenvalues(h_train, outliers / d_in)
        h_ref = build_hessian(held_out, 0.01)
        means = {}
        for tag, h in (("plain", h_train), ("clip", h_clip)):
            layer, _ = descent.quantize_matrix(w, h, "cd", bits=3,
                                               cfg=DescentConfig(seed=seed),
                                               collect_timing=False)
            deq = layer.dequantize()
            rels = []
            for j in range(d_out):
                err = w[:, j].astype(np.float64) - deq[:, j]
                rels.append(float(err @ h_ref @ err)
                            / zero_baseline(w[:, j].astype(np.float64), h_ref))
            means[tag] = float(np.mean(rels))
        wins += means["clip"] < means["plain"]

    ok = spectral_ok and wins >= 0.7 * n_seeds
    _report(7, "clipping: spectrum flattened exactly; quantizing the outlier-dominated "
               "instance with the clipped Hessian wins on the balanced reference metric",
            ok, f"spectral {spectral_ok}, clip wins {wins}/{n_seeds}")


def test_criterion_08_thread_determinism(tmp_path):
    rng = np.random.default_rng(1)
    wpath, xpath = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(wpath, rng.standard_normal((32, 16)).astype(np.float32))
    tensorio.write_container(xpath, rng.standard_normal((128, 32)).astype(np.float32))
    snapshots = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main(["quantize", "--weights", str(wpath), "--calib", str(xpath),
                     "--out", str(out), "--method", "bcd", "--bits", "3",
                     "--block-size", "2", "--seed", "5", "--threads", str(threads),
                     "--no-timing"])
        assert code == EXIT_OK
        snapshots.append({p.name: p.read_bytes() for p in sorted(Path(out).iterdir())})
    ok = snapshots[0] == snapshots[1] == snapshots[2]
    _report(8, "quantize artifacts byte-identical across 1, 2 and 8 worker threads", ok)


def test_criterion_09_epoch_semantics():
    d_in = 16
    prob, q0 = random_problem(d_in, 2, seed=42)
    _, one = bcd_quantize(prob, q0, DescentConfig(block_size=2, epochs=1, seed=0))
    _, two = bcd_quantize(prob, q0, DescentConfig(block_size=2, epochs=2, seed=0))
    ok = len(one.steps) == d_in and len(two.steps) == 2 * d_in
    _report(9, "block descent with epochs=2 executes exactly 2*d_in steps",
            ok, f"{len(two.steps)} steps at d_in={d_in}")


def test_criterion_10_bit_exact_roundtrips(tmp_path):
    rng = np.random.default_rng(3)
    pack_ok = True
    for i in range(1000):
        c = 1 + i % 8
        n = int(rng.integers(0, 200))
        codes = rng.integers(0, 1 << c, size=n)
        packed = tensorio.pack_codes(codes, c)
        if not np.array_equal(tensorio.unpack_codes(packed), codes.astype(np.uint8)):
            pack_ok = False
            break

    container_ok = True
    for i in range(50):
        arr = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        arr = arr.astype(np.float32)
        path = tmp_path / f"c{i}.tc"
        tensorio.write_container(path, arr)
        if tensorio.read_container(path).array.tobytes() != arr.tobytes():
            container_ok = False
            break

    nan_rejected = False
    try:
        tensorio.write_container(tmp_path / "nan.tc", np.array([np.nan], dtype=np.float32))
    except tensorio.NonFiniteDataError:
        nan_rejected = True

    ok = pack_ok and container_ok and nan_rejected
    _report(10, "pack/unpack bijective over c=1..8 (1000 vectors); containers bit-exact; "
                "NaN rejected at write", ok)
