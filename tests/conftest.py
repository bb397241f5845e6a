import os
import sys
from pathlib import Path

import pytest

import starconfig


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this starconfig."""
    src = str(Path(starconfig.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, inherited]) if inherited else src)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo acceptance verdict lines where capture cannot swallow them."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
