#!/usr/bin/env python3
"""Dissect the reduction of the bundled example programs: which rules fire
in which cycle and phase, how the communication measure of the term
evolves, and what the normal form looks like.

    python3 scripts/trace_anatomy.py
    python3 scripts/trace_anatomy.py --example mobility --states
"""

import argparse
from collections import Counter
from importlib import resources

from lax import (
    TypingContext,
    check,
    communication_measure,
    normalize,
    parse_program,
    show_term,
)
from lax.cli import example_options


def bundled():
    root = resources.files("lax") / "examples"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".lax"):
            yield entry.name[: -len(".lax")], entry.read_text()


def measure_key(t):
    try:
        n, h, g = communication_measure(t)
    except Exception:
        return (-1, 0, 0), None
    return (n, sum(g.values()), sum(h.values())), (n, h, g)


def measure_str(m) -> str:
    n, h, g = m
    hs = ",".join(f"{k}:{v}" for k, v in sorted(h.items())) or "-"
    gs = ",".join(f"{k}:{v}" for k, v in sorted(g.items())) or "-"
    return f"n={n} h={{{hs}}} g={{{gs}}}"


def dissect(name: str, source: str, show_states: bool) -> None:
    prog = parse_program(source)
    ctx = TypingContext(ivars=dict(prog.gamma))
    t, ty = check(prog.term, ctx)
    underline = example_options(source).get("underline") == "on"
    final, trace = normalize(t, underline_discipline=underline)

    print(f"== {name}  (type {ty}, underline={'on' if underline else 'off'})")
    # dict insertion order is first-appearance order, which is what we want
    by_cycle_phase: dict[tuple[int, str], Counter] = {}
    for s in trace.steps:
        by_cycle_phase.setdefault((s.cycle, s.phase), Counter())[s.redex.rule] += 1
    for (cycle, phase), rules in by_cycle_phase.items():
        fired = ", ".join(f"{r} x{n}" if n > 1 else r for r, n in rules.items())
        print(f"   cycle {cycle} {phase:<15} {fired}")
    peak = max(
        (measure_key(u) for u in [t] + [s.term_after for s in trace.steps]),
        key=lambda km: km[0],
    )[1]
    if show_states:
        for i, s in enumerate(trace.steps):
            print(f"   [{i}] {s.redex.rule} at {list(s.redex.position)}")
            print(f"       {show_term(s.term_after)}")
    print(f"   steps: {len(trace.steps)}, cycles: {trace.cycles}")
    if peak is not None:
        print(f"   peak measure: {measure_str(peak)}")
    print(f"   normal form: {show_term(final)}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--example", default=None, help="only this bundled program")
    ap.add_argument("--states", action="store_true", help="print every intermediate term")
    args = ap.parse_args()

    found = False
    for name, source in bundled():
        if args.example and name != args.example:
            continue
        found = True
        dissect(name, source, args.states)
    if not found:
        names = ", ".join(n for n, _ in bundled())
        print(f"no such example; bundled: {names}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
