"""The sub-second demos run to completion.

`threshold_sweep.py` is left out: it takes about 10 s, and criterion 11
already runs the sweep path it shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hampower

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["braid_gallery", "containment_search", "normalization_walkthrough", "threshold_tables"]
)
def test_demo_runs(name):
    src = os.path.dirname(os.path.dirname(hampower.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
