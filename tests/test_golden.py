"""Golden-record gate: ``quantize --no-timing`` output must stay byte-identical.

Each case quantizes a small seeded layer through the CLI and compares the
report byte for byte, and the layer files by SHA-256, against files checked
in under ``tests/golden/<case>/``. Engine changes that claim identical
results (fast paths, refactors) must pass this unchanged.

To write a case's files deliberately, for a new case or an output change that
is meant, name it:

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

Only the named cases are rewritten; ``--all`` rewrites every case. With no
argument, or a name that is not in ``CASES``, the script prints its usage
and exits 2 without writing anything.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qdescent import tensorio
from qdescent.calibration import SynthSpec, gen_calibration, gen_weights
from qdescent.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"
LAYER_FILES = ("codes.pc", "scales.tc", "biases.tc", "gammas.tc")

CASES = {
    # Per-channel owc -> cd -> bcd with 2-blocks.
    "chan-bcd3": dict(d_in=128, d_out=8, n=512, seed=3, constant_group=None,
                      flags=("--method", "bcd", "--bits", "3", "--block-size", "2")),
    # Grouped bcd on the tilde problem; column 0 has one constant group, so
    # H~ has zero rows and columns there.
    "group32-bcd2": dict(d_in=128, d_out=8, n=512, seed=4, constant_group=(0, slice(32, 64)),
                         flags=("--method", "bcd", "--bits", "2", "--group-size", "32")),
    # Grouped owc -> clip-strength descent -> cd; column 3 has one constant
    # group, so the table's degenerate path runs in both OWC stages.
    "group32-owccd3": dict(d_in=128, d_out=8, n=512, seed=5, constant_group=(3, slice(64, 96)),
                           flags=("--method", "cd", "--bits", "3", "--group-size", "32",
                                  "--owc-cd")),
    # Per-channel owc -> cd at 8 bits on an eigen-clipped Hessian: every
    # channel's clip strength comes from the 50-candidate OWC grid score.
    "chan-cd8": dict(d_in=256, d_out=8, n=1024, seed=6, constant_group=None,
                     flags=("--method", "cd", "--bits", "8", "--clip-fraction", "0.01")),
    # Per-channel rtn; column 2 is constant, so its scale is 0.
    "chan-rtn3": dict(d_in=128, d_out=8, n=512, seed=7, constant_group=(2, slice(0, 128)),
                      flags=("--method", "rtn", "--bits", "3")),
    # Per-channel owc; column 5 is constant, so the clip search is skipped there.
    "chan-owc3": dict(d_in=128, d_out=8, n=512, seed=8, constant_group=(5, slice(0, 128)),
                      flags=("--method", "owc", "--bits", "3")),
    # Per-channel owc -> two epochs of cyclic descent.
    "chan-cyclic3": dict(d_in=128, d_out=8, n=512, seed=9, constant_group=None,
                         flags=("--method", "cyclic", "--bits", "3", "--epochs", "2")),
    # Grouped rtn; column 1 has one constant group.
    "group32-rtn3": dict(d_in=128, d_out=8, n=512, seed=10, constant_group=(1, slice(0, 32)),
                         flags=("--method", "rtn", "--bits", "3", "--group-size", "32")),
    # Grouped owc (no clip-strength descent); column 6 has one constant group.
    "group32-owc3": dict(d_in=128, d_out=8, n=512, seed=11, constant_group=(6, slice(96, 128)),
                         flags=("--method", "owc", "--bits", "3", "--group-size", "32")),
    # Grouped owc -> cyclic descent on the tilde problem.
    "group32-cyclic3": dict(d_in=128, d_out=8, n=512, seed=12, constant_group=None,
                            flags=("--method", "cyclic", "--bits", "3", "--group-size", "32")),
    # Grouped owc -> clip-strength descent -> cd -> bcd with 2-blocks; column 2
    # is constant, so all its groups are, and it never reaches the engines.
    "group16-owcbcd2": dict(d_in=128, d_out=8, n=512, seed=13, constant_group=(2, slice(0, 128)),
                            flags=("--method", "bcd", "--bits", "2", "--group-size", "16",
                                   "--owc-cd")),
    # Per-channel owc -> cd -> bcd with 3-blocks, which scan every step
    # unscreened; column 4 is constant, so its scale is 0.
    "chan-bcd2-k3": dict(d_in=96, d_out=8, n=384, seed=14, constant_group=(4, slice(0, 96)),
                         flags=("--method", "bcd", "--bits", "2", "--block-size", "3")),
    # Grouped owc -> cd at 8 bits; column 1 has one constant group, whose zero
    # rows of H~ take the full 256-value scan of ``_best_moves``.
    "group16-cd8": dict(d_in=128, d_out=8, n=512, seed=15, constant_group=(1, slice(16, 32)),
                        flags=("--method", "cd", "--bits", "8", "--group-size", "16")),
}


def run_case(name: str, work_dir: Path) -> Path:
    """Quantize the case's layer into ``work_dir/layer`` and return that directory."""
    case = CASES[name]
    calib = gen_calibration(SynthSpec(d_in=case["d_in"], n=case["n"], spectrum_exponent=1.0,
                                      seed=case["seed"]))
    weights = gen_weights(case["d_in"], case["d_out"], case["seed"])
    if case["constant_group"] is not None:
        col, rows = case["constant_group"]
        weights[rows, col] = 0.5
    wpath, xpath, out = work_dir / "w.tc", work_dir / "x.tc", work_dir / "layer"
    tensorio.write_container(wpath, weights)
    tensorio.write_container(xpath, calib)
    code = main(["quantize", "--weights", str(wpath), "--calib", str(xpath), "--out", str(out),
                 *case["flags"], "--seed", str(case["seed"]), "--threads", "1", "--no-timing"])
    assert code == EXIT_OK
    return out


def digests(layer_dir: Path) -> dict:
    return {f: hashlib.sha256((layer_dir / f).read_bytes()).hexdigest() for f in LAYER_FILES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_records_and_layer_identical(name, tmp_path):
    out = run_case(name, tmp_path)
    golden = GOLDEN_DIR / name
    assert (out / "records.csv").read_bytes() == (golden / "records.csv").read_bytes()
    assert digests(out) == json.loads((golden / "sha256.json").read_text())


def regenerate(argv: list[str], golden_dir: Path = GOLDEN_DIR) -> int:
    """Write the golden files of the cases named in ``argv`` (every case for
    ``--all``) under ``golden_dir``; exit status 2 with usage on bad arguments."""
    names = sorted(CASES) if argv == ["--all"] else argv
    unknown = [name for name in names if name not in CASES]
    if not names or unknown:
        print("usage: PYTHONPATH=src python tests/test_golden.py CASE [CASE ...] | --all",
              file=sys.stderr)
        if unknown:
            print(f"unknown case(s): {' '.join(unknown)}", file=sys.stderr)
        print(f"cases: {' '.join(sorted(CASES))}", file=sys.stderr)
        return 2
    for case_name in names:
        with tempfile.TemporaryDirectory() as tmp:
            layer = run_case(case_name, Path(tmp))
            dest = golden_dir / case_name
            dest.mkdir(parents=True, exist_ok=True)
            (dest / "records.csv").write_bytes((layer / "records.csv").read_bytes())
            (dest / "sha256.json").write_text(json.dumps(digests(layer), indent=2) + "\n")
        print(f"wrote {dest}", file=sys.stderr)
    return 0


@pytest.mark.parametrize("argv", [[], ["no-such-case"], ["chan-rtn3", "no-such-case"],
                                  ["--all", "chan-rtn3"]])
def test_regenerate_rejects_bad_arguments(argv, tmp_path, capsys):
    assert regenerate(argv, tmp_path) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.startswith("usage: ")


def test_regenerate_writes_only_the_named_cases(tmp_path):
    assert regenerate(["chan-rtn3", "group32-rtn3"], tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chan-rtn3", "group32-rtn3"]
    for name in ("chan-rtn3", "group32-rtn3"):
        for f in ("records.csv", "sha256.json"):
            assert (tmp_path / name / f).read_bytes() == (GOLDEN_DIR / name / f).read_bytes()


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
