"""Byte identity of the CLI's CSV output across commits.

Each scenario runs in a fresh interpreter with one BLAS thread, in a
temporary working directory (the relative trajectory path is recorded in the
header), and the SHA-256 of every CSV it writes must equal the digest
recorded here.  The digests were taken with NumPy 2.4 on its bundled
OpenBLAS 0.3.31 (x86-64); the bits of the floating-point results can move
with the NumPy or BLAS build.  A change that alters output on purpose
updates these digests and states the measured size of the change in
CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# A label, then its scenario, overrides, and the digest of each CSV the run writes.
GOLDENS = {
    "minimax-shootout": (
        "minimax-shootout", ["--set", "n=6", "--set", "trajectory_out=traj.csv"],
        {"out.csv": "5bc62e4f5781b50ba917871a0095966beef00f28897a9cb8748bc3b2e39a6af4",
         "traj.csv": "d83dd7e4f4095ec75c58ca5e48e2462ea6ff7ba582d80eab6cdd11f636ac7c09"},
    ),
    "trotter-sweep": (
        "trotter-sweep", [],
        {"out.csv": "e2481ed56e85a04e7f568fbddb70071eecabb45415b17163f754eb72b88d9ef1"},
    ),
    "mpf-sweep": (
        "mpf-sweep", ["--set", "n=4", "--set", "bounds=on"],
        {"out.csv": "3e44a296ce11e7ed1842ad5c544fa052df3e7234d6cf07b0d8d9aabe927b8b25"},
    ),
    "bound-eval": (
        "bound-eval", [],
        {"out.csv": "d93f50ba7e93d146d0fec2ffcff2bfdb713c203a1ebe258056fe27fc0df018c0"},
    ),
    "tuple-search": (
        "tuple-search", ["--set", "reference=4,13,17"],
        {"out.csv": "c5ed073987cc7c7902ff31f20ac7e43bd7d16740cce4f7d6fcf739302e03c262"},
    ),
    "solve-coeffs": (
        "solve-coeffs", [],
        {"out.csv": "d4b84e2539f80e7b6f37f010e482a1b0962d4c42a39defdf3d4984bd8d31b7a5"},
    ),
    # The benchmark's bound-eval config.
    "bound-eval-n6": (
        "bound-eval", ["--set", "n=6", "--set", "t_count=2"],
        {"out.csv": "3ac74b6e92ed0da8b69c0157609ece036c70420f9b49e93d67f49db8b1aecdae"},
    ),
    # The mixture bound at the window cap.
    "mpf-sweep-n8-bounds": (
        "mpf-sweep", ["--set", "n=8", "--set", "bounds=on"],
        {"out.csv": "cf961b96860909f13a6c6339da1ef20b5a5d456471a501117701bbd5c10ab93b"},
    ),
}


@pytest.mark.parametrize("label", list(GOLDENS))
def test_cli_output_matches_its_recorded_digest(label, tmp_path):
    scenario, args, digests = GOLDENS[label]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "mpf_lab.cli", scenario, *args, "--out", "out.csv"],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert written == digests
