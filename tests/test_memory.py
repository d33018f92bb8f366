"""Memory of the calibration and the Hessian build: X is generated block by
block, held once as float64 while H is built in place, and is gone by the
time the eigen-clip runs; a command hands the heap it freed back to the
operating system.

``tracemalloc`` sees numpy's array allocations, so these bounds hold for the
arrays the program makes, whatever else the interpreter holds. What stays
resident after a command is read from ``/proc/self/status`` in a fresh
process.
"""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qdescent
from qdescent import calibration, cli, tensorio

#: X is 8 MiB as f32 and 16 MiB as float64; d_in^2 float64 is 128 KiB.
N, D = 16384, 128


@pytest.fixture
def inputs(tmp_path):
    w, x = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(w, calibration.gen_weights(D, 2, 0))
    tensorio.write_container(x, np.random.default_rng(0).standard_normal((N, D)).astype(np.float32))
    return str(w), str(x)


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


@pytest.fixture
def at_clip(monkeypatch):
    """The traced bytes in use each time the eigen-clip is entered."""
    seen = []
    clip = calibration.clip_hessian_eigenvalues

    def probe(*args, **kwargs):
        seen.append(tracemalloc.get_traced_memory()[0])
        return clip(*args, **kwargs)

    monkeypatch.setattr(calibration, "clip_hessian_eigenvalues", probe)
    return seen


def test_read_inputs_peak_is_one_float64_copy_of_x(inputs, traced):
    cli._read_inputs(*inputs, 0.01, 0.01)
    _, peak = tracemalloc.get_traced_memory()
    # One float64 X, a few d_in^2 matrices, and one f32 chunk of the read
    # with its mask.
    bound = N * D * 8 + 4 * D * D * 8 + tensorio.READ_CHUNK_ELEMENTS * 5
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_quantize_frees_x_before_the_eigen_clip(inputs, tmp_path, traced, at_clip):
    w, x = inputs
    assert cli.main(["quantize", "--weights", w, "--calib", x, "--out", str(tmp_path / "q"),
                     "--method", "rtn", "--bits", "2", "--clip-fraction", "0.01"]) == 0
    assert len(at_clip) == 1 and at_clip[0] < N * D * 4, at_clip


def test_bench_frees_x_before_the_eigen_clip(tmp_path, traced, at_clip):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [{"d_in": D, "d_out": 2, "n": N, "seed": 0}],
                                 "methods": ["rtn"], "bits": [2], "clip_fraction": 0.01}))
    assert cli.main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "b")]) == 0
    assert len(at_clip) == 1 and at_clip[0] < N * D * 4, at_clip


def test_bench_holds_one_float64_copy_of_x(tmp_path, traced):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [{"d_in": D, "d_out": 2, "n": N, "seed": 0}],
                                 "methods": ["rtn"], "bits": [2]}))
    assert cli.main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "b")]) == 0
    _, peak = tracemalloc.get_traced_memory()
    # X is generated as float64, so nothing widens a float32 X into a second copy.
    bound = 1.1 * N * D * 8
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def _has_malloc_trim():
    try:
        ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return False
    return True


#: Runs in a fresh process: warm BLAS and LAPACK up with one X'X and one eigh,
#: run one quantize with an eigen-clip, then trim the heap once more. Prints
#: the exit code and VmRSS in KiB before quantize, after it and after the trim.
_RESIDENT_SCRIPT = """
import ctypes
import sys
import numpy as np
from qdescent import cli

def vm_rss():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:"))

x = np.random.default_rng(1).standard_normal((1024, 512))
np.linalg.eigh(x.T @ x)
del x
before = vm_rss()
code = cli.main(["quantize", "--weights", sys.argv[1], "--calib", sys.argv[2], "--out", sys.argv[3],
                 "--method", "rtn", "--bits", "2", "--clip-fraction", "0.01"])
after = vm_rss()
ctypes.CDLL(None).malloc_trim(0)
print(code, before, after, vm_rss())
"""


@pytest.mark.skipif(not _has_malloc_trim() or not Path("/proc/self/status").exists(),
                    reason="needs glibc's malloc_trim and /proc/self/status")
def test_quantize_hands_back_the_heap_it_freed(tmp_path):
    # The eigen-clip's eigh frees an mmap'd LAPACK workspace, which raises
    # glibc's mmap and trim thresholds, so the clip's d_in^2 temporaries,
    # once freed, would stay resident (untrimmed, on x86-64 glibc with
    # OpenBLAS: 27 MiB of growth, 24 MiB of it freed heap).
    n, d = 2048, 1024
    w, x = tmp_path / "w.tc", tmp_path / "x.tc"
    tensorio.write_container(w, calibration.gen_weights(d, 2, 0))
    tensorio.write_container(x, np.random.default_rng(0).standard_normal((n, d)).astype(np.float32))
    src = str(Path(qdescent.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _RESIDENT_SCRIPT, str(w), str(x),
                           str(tmp_path / "q")], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, before, after, trimmed = map(int, proc.stdout.split()[-4:])
    assert code == 0
    assert after - before <= 4 * 1024, f"VmRSS grew {(after - before) / 1024:.1f} MiB"
    assert after - trimmed <= 1024, f"a later trim freed {(after - trimmed) / 1024:.1f} MiB"


def test_build_hessian_holds_one_d_squared_matrix_above_x():
    n, d = 2048, 512
    x = np.random.default_rng(0).standard_normal((n, d))
    tracemalloc.start()
    try:
        calibration.build_hessian(x, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # H, one scan chunk's mask (a byte an element), one float64 band of the
    # symmetrize, and a few d_in vectors. ``(g + g.T) / 2`` would hold a
    # second d_in^2 matrix, and a mask of all of X n * d_in bytes.
    bound = d * d * 8 + calibration.CHUNK_ELEMENTS * 9 + 16 * d * 8
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_gen_calibration_holds_the_f32_result_and_one_block(traced):
    calibration.gen_calibration(calibration.SynthSpec(d_in=D, n=N, seed=0))
    _, peak = tracemalloc.get_traced_memory()
    # The f32 X, one block's float64 draw and its product with the mixing
    # matrix, and a few d_in^2 matrices.
    bound = N * D * 4 + calibration.CHUNK_ELEMENTS * 2 * 8 + 4 * D * D * 8
    assert peak < bound, f"peak {peak} bytes, bound {bound}"
