"""The demo scripts run to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["generic_certificates.py", "hartshorne_walkthrough.py"])
def test_demo_runs(name, child_env):
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=child_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
