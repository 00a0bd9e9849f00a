"""Every demo prints exactly its golden output.

Each script under ``demos/`` runs in a subprocess against this checkout's
``src``; its stdout must equal ``tests/data/demos/<name>.txt`` byte for
byte.  To record a new golden file, run the demo with ``PYTHONPATH=src``
and save its stdout there.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"


def test_every_demo_has_a_golden_file():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
