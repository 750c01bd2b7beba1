"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_fuzz_sweep_tabulates_one_cell():
    done = _run("fuzz_sweep.py", "--presets", "em", "--sizes", "10", "--count", "3")
    assert done.returncode == 0, done.stderr
    rows = [l.split() for l in done.stdout.splitlines() if l.split()[:1] == ["em"]]
    assert len(rows) == 1 and rows[0][1:3] == ["10", "3"]
    assert "violations: 0" in done.stdout


def test_fuzz_sweep_refuses_a_size_below_one():
    done = _run("fuzz_sweep.py", "--presets", "em", "--sizes", "10,0", "--count", "3")
    assert done.returncode == 2
    assert "usage:" in done.stderr and "sizes must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""


def test_trace_anatomy_dissects_one_example():
    done = _run("trace_anatomy.py", "--example", "godel")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("== godel")
    assert "normal form:" in done.stdout


def test_trace_anatomy_refuses_an_unknown_example():
    done = _run("trace_anatomy.py", "--example", "no-such-example")
    assert done.returncode == 1
    assert "no such example" in done.stdout
