"""Every demo script runs to completion in a fresh interpreter and prints
the bytes it printed when its digest was taken.

A change that alters what a demo prints on purpose regenerates that
demo's digest and says so in CHANGES.md. To print fresh digests:

    PYTHONPATH=src python -m tests.test_demos

The same printout, under each other CPython that pyenv holds in its
default place, must give the same digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli_golden import OTHER_INTERPRETERS, printed_digests

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
DIGESTS = {
    "01_graph_families.py": "ae7c429be1aa70a842e3038ff5396383369535858d9c698c0bacf25e3ef11f76",
    "02_walks_and_searches.py": "8e8ff1e3f7c0a6e8ef58a5bb85dd69eed8dcb3d754cc4935da0d2f18857583ed",
    "03_positional_encodings.py": "9d44eee252ccceb5c086f4b118a470695864b363950ff4c018c2aa118e582188",
    "04_coverage_and_bounds.py": "1ba341b2bcb0d220a98df431b737cd18aa26a4dd61b8b4ac5a42d443d438a96d",
    "05_color_refinement.py": "2b08aba56bf8ad0c4809083d476e31953fb8b2ecff6cd831dd7a1ef8cf8a6bef",
    "06_invariance.py": "60b341042092299f29bbd1065be95d409c3a3c8ea0e2f08b4e3b2c2b37463da0",
    "07_reconstruction.py": "e2476a0a038ce015422f876b43381c7d919a59e052b85ce8b14fdd5205262f2c",
}


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


def test_all_demos_found():
    assert [d.name for d in DEMOS] == sorted(DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip()
    assert b"Traceback" not in done.stdout + done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo.name]


@pytest.mark.parametrize("version", OTHER_INTERPRETERS)
def test_other_interpreters_print_the_digests(version, tmp_path):
    assert printed_digests(version, "tests.test_demos", tmp_path) == DIGESTS


if __name__ == "__main__":
    for demo in DEMOS:
        digest = hashlib.sha256(run_demo(demo).stdout).hexdigest()
        print(f'    "{demo.name}": "{digest}",')
