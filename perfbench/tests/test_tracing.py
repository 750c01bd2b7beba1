"""Spans: self time, parents, and wrappers that come off again."""

import time
import types

from tracing import Tracer


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.03)
    assert tr.calls == {"outer": 1, "inner": 1}
    assert tr.total_s["outer"] >= tr.total_s["inner"] >= 0.03
    assert abs(tr.self_s["outer"] - (tr.total_s["outer"] - tr.total_s["inner"])) < 1e-9
    assert tr.self_s["inner"] == tr.total_s["inner"]


def test_installed_wraps_and_restores():
    mod = types.SimpleNamespace(f=lambda n: list(range(n)))
    original = mod.f
    tr = Tracer()
    with tr.installed([(mod, "f", "layer.f", True)]):
        assert mod.f is not original
        assert mod.f(3) == [0, 1, 2]
        mod.f(4)
    assert mod.f is original
    assert tr.calls["layer.f"] == 2 and tr.items["layer.f"] == 7


def test_exceptions_still_close_the_span():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tr.wrapped(boom, "boom")
    try:
        wrapped()
    except KeyError:
        pass
    assert tr.calls["boom"] == 1 and tr.open == []
