"""Byte identity of the CLI's CSV output across commits.

Each scenario runs in a fresh interpreter, once with one BLAS thread and
once with two, in a temporary working directory (the relative trajectory and
operator paths are recorded in the header), and the SHA-256 of every CSV it
writes must equal the digest recorded here under either thread count.  The digests were taken with NumPy 2.4 on its bundled
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

# XX bonds, Z fields, and an X and a Y on the end qubits: one invariant block
# of all 16 states, so the Trotter kernel runs on the whole space.
CONSERVES_NOTHING = """\
1.0 XXII
0.8 IXXI
1.2 IIXX
0.5 ZIII
-0.3 IZII
0.4 IIZI
-0.6 IIIZ
0.35 XIII
0.25 IIIY
"""

# A label, then its scenario, overrides, and the digest of each CSV the run writes.
GOLDENS = {
    "minimax-shootout": (
        "minimax-shootout", ["--set", "n=6", "--set", "trajectory_out=traj.csv"],
        {"out.csv": "3b1756bc5b6c7311ab04cba5f9e44f2f729bd170f3497dea5279b02f3a69ca63",
         "traj.csv": "5069a290861d6cc6543c6838b9f5ef81a19034d3a1107ee8f9117bc0564f39ed"},
    ),
    # The benchmark's shootout config: the paper's defaults, n=10.
    "minimax-shootout-n10": (
        "minimax-shootout", ["--set", "trajectory_out=traj.csv"],
        {"out.csv": "fbe52eea52b53009f81a2fac35a46cb37fc0b63654258053bc29f0f7c646cd15",
         "traj.csv": "020562748bd84dc71d9c7815f1cf283c54657137f3d84abf8dfbc7d109ab60d7"},
    ),
    "trotter-sweep": (
        "trotter-sweep", [],
        {"out.csv": "ff634f2bb08b2f0d80c28651dc7606d0412bee0372db5577589212c28f80e4b8"},
    ),
    "mpf-sweep": (
        "mpf-sweep", ["--set", "n=4", "--set", "bounds=on"],
        {"out.csv": "cf1dc1034adedd1683b6eebdb37a7e06a653768e43ffb13b0925d1646b08dbc2"},
    ),
    "bound-eval": (
        "bound-eval", [],
        {"out.csv": "d93f50ba7e93d146d0fec2ffcff2bfdb713c203a1ebe258056fe27fc0df018c0"},
    ),
    "tuple-search": (
        "tuple-search", ["--set", "reference=4,13,17"],
        {"out.csv": "cbd3a5e1a421898c2c481aa26b44f0c1f0418a2ca60bb02c7489aae4af88f5ad"},
    ),
    # Fifth-order extrapolation of a fourth-order formula: the widest
    # coefficient spread the tuple search ranks.
    "tuple-search-p4": (
        "tuple-search", ["--set", "p=4", "--set", "r=5", "--set", "k_max=30"],
        {"out.csv": "7eba345b4804ca9d7b624f25a667eceae83b3f29663f01656993d1ada506e6fa"},
    ),
    "solve-coeffs": (
        "solve-coeffs", [],
        {"out.csv": "55c084b2ef775dc34897757c7c8f3812abf481cf5ec8c405eeabba4638812c6b"},
    ),
    # The benchmark's bound-eval config.
    "bound-eval-n6": (
        "bound-eval", ["--set", "n=6", "--set", "t_count=2"],
        {"out.csv": "3ac74b6e92ed0da8b69c0157609ece036c70420f9b49e93d67f49db8b1aecdae"},
    ),
    # The mixture bound at the window cap.
    "mpf-sweep-n8-bounds": (
        "mpf-sweep", ["--set", "n=8", "--set", "bounds=on"],
        {"out.csv": "b164e5cff35f6cf0338b3c0aa28f1fbe788670602ea62835171c8b4b64517276"},
    ),
    # Above the window cap: the commutator sums take their norms on the
    # Pauli-sum route, one block search per piece, and the state path runs on
    # the 252-state sector.
    "trotter-sweep-n10": (
        "trotter-sweep", ["--set", "n=10"],
        {"out.csv": "bb283b5bda8ab5a38397d0b47103ecc985862a52ba478fc629d7f838fbdb1351"},
    ),
    # The fourth-order Suzuki formula, its commutator sum and fit.
    "trotter-sweep-p4": (
        "trotter-sweep", ["--set", "p=4", "--set", "n=4"],
        {"out.csv": "e6b5ef1ae1b668f04c5cfe0038b061b7fac070cf68d456e814306958725b5ce4"},
    ),
    # The whole-space kernel, from an operator file written beside the output.
    "trotter-sweep-conserves-nothing": (
        "trotter-sweep", ["--set", "n=4", "--set", "hamiltonian=ham.txt"],
        {"out.csv": "cab6cca8b8afaf508b03c61ef4766453ec464618e99bb5bbd63268c45ccf5e96"},
    ),
}

# Input files a golden's run reads, written into its working directory first.
INPUTS = {"trotter-sweep-conserves-nothing": {"ham.txt": CONSERVES_NOTHING}}


@pytest.mark.parametrize("label, threads", [
    *(pytest.param(label, "1", id=label) for label in GOLDENS),
    *(pytest.param(label, "2", id=f"{label}-blas2") for label in GOLDENS),
])
def test_cli_output_matches_its_recorded_digest(label, threads, tmp_path):
    scenario, args, digests = GOLDENS[label]
    for name, text in INPUTS.get(label, {}).items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "mpf_lab.cli", scenario, *args, "--out", "out.csv"],
                   cwd=tmp_path, env=env, capture_output=True, check=True)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert written == digests
