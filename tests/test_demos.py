"""The fast demos run to completion against the installed package.

01 (about 20 s) and 03 (minutes) are left out; the others take seconds.
"""
import os
import subprocess
import sys

import pytest

import bardina

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(bardina.__file__)))


@pytest.mark.parametrize("name", [
    "02_instability_ladder.py", "04_dimension_bounds.py", "05_inequality_suite.py",
])
def test_demo_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
