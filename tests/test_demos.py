"""The demo scripts and the README's examples run to completion
against this checkout."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import starconfig

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


def test_readme_library_block_imports_only_exported_names():
    # the Library section's imports are the package root's public API,
    # so trimming an export the docs rely on fails here
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.M | re.S).group(1)
    imported = re.search(r"from starconfig import \((.*?)\)", block, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(starconfig.__all__)
    assert all(hasattr(starconfig, name) for name in starconfig.__all__)
    exec(compile(block, str(README), "exec"), {})


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
