"""The command fails fast, printing no result, without the program's source."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "comm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "cannot benchmark" in done.stderr
