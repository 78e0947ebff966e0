"""Smoke test: every numbered demo, and the README's library example, runs standalone and exits cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
README_PYTHON = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_all_six_demos_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05", "06"]


def _run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_cleanly(demo):
    _run(str(demo))


def test_readme_library_example_exits_cleanly():
    (example,) = README_PYTHON
    _run("-c", example)
