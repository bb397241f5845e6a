"""The demo scripts and the README's examples run to completion
against this checkout."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"


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


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
