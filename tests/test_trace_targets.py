"""The benchmark's tracer wraps library functions by the name a module
imports them under (perfbench/tracing.py), so a name a module stops
importing would break only a traced run. Every target must resolve."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        targets = importlib.import_module("run").trace_targets()
    finally:
        # the benchmark's modules have generic names; leave none behind
        for name in set(sys.modules) - before:
            where = getattr(sys.modules[name], "__file__", None) or ""
            if Path(where).parent == PERFBENCH:
                del sys.modules[name]
    assert len(targets) >= 12
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
