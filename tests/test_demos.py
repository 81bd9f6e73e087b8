"""The demos run to completion.

Demo 04 trains a model for about 18 s and is left out to keep the suite
quick; run it by hand with `python demos/04_train_toy_model.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_autodiff_basics.py",
    "02_memory_cell_walkthrough.py",
    "03_episode_generation.py",
    "05_transfer_protocols.py",
])
def test_demo_exits_cleanly(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
