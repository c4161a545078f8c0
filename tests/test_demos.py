"""Every demo script, and the README's quick start, runs to completion with
warnings turned into errors; the README describes the current version."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eigenschaft

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    done = run_python(str(script))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    done = run_python("-c", block)
    assert done.returncode == 0, done.stderr


def test_readme_states_the_current_version_only():
    """Earlier versions' changes live in CHANGES.md, not in the README."""
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"^## Changed in (.*)$", readme, re.M) == [
        eigenschaft.__version__]
    assert not re.findall(r"^## Removed in ", readme, re.M)
