import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import alohagame

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(alohagame.__file__).resolve().parent.parent

# 02 is left out: it integrates the dynamics from 40 starts to t = 400
# with RK4 and takes 10-13 s on 2 cores, while each of the others takes
# under a second.
SLOW = {"02_attraction_region.py"}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DEMOS.glob("[0-9]*.py") if p.name not in SLOW)
)
def test_demo_runs(name, tmp_path):
    # a demo writes its files next to itself, under output/
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    proc = subprocess.run(
        # -W error, like the suite's filterwarnings setting
        [sys.executable, "-W", "error", str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
