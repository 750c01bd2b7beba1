#!/usr/bin/env python3
"""Sweep the random-term generator across axiom presets and size budgets,
normalize everything, and tabulate how much work the strategy does.

Typical questions this answers: how often do generated terms actually
contain sessions, how many steps and cycles does normalization take as
terms grow, and how often activations, crosses and garbage collections
fire (the cross column leaves GarbageCross out).

    python3 scripts/fuzz_sweep.py
    python3 scripts/fuzz_sweep.py --presets em,c3 --sizes 10,20,40 --count 200
"""

import argparse
import time
from collections import Counter
from dataclasses import dataclass, field

from lax import (
    GenConfig,
    TypingContext,
    audit_trace,
    generate_corpus,
    is_normal,
    is_parallel_form,
    normalize,
)
from lax.rewrite import CROSSES, RedexKind
from lax.terms import ParBind, iter_subterms


@dataclass
class SweepConfig:
    presets: list[str] = field(default_factory=lambda: ["em", "em3", "c3", "g2", "godel"])
    sizes: list[int] = field(default_factory=lambda: [10, 20, 40])
    count: int = 100
    seed: int = 0
    max_steps: int = 100_000
    audit: bool = True


@dataclass
class Row:
    preset: str
    size: int
    terms: int = 0
    with_sessions: int = 0
    steps: list[int] = field(default_factory=list)
    cycles: list[int] = field(default_factory=list)
    rules: Counter = field(default_factory=Counter)
    violations: int = 0
    wall: float = 0.0


def run_cell(cfg: SweepConfig, preset: str, size: int) -> Row:
    row = Row(preset=preset, size=size)
    gen = GenConfig(preset=preset, max_size=size)
    t0 = time.monotonic()
    for gamma, t in generate_corpus(cfg.seed, cfg.count, gen):
        row.terms += 1
        if any(isinstance(s, ParBind) for _, s in iter_subterms(t)):
            row.with_sessions += 1
        final, trace = normalize(t, max_steps=cfg.max_steps)
        row.steps.append(len(trace.steps))
        row.cycles.append(trace.cycles)
        for s in trace.steps:
            row.rules[s.redex.kind] += 1
        ok = is_normal(final) and is_parallel_form(final)
        if cfg.audit:
            ok = ok and audit_trace(TypingContext(ivars=gamma), trace).holds
        if not ok:
            row.violations += 1
    row.wall = time.monotonic() - t0
    return row


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def size_list(text: str) -> list[int]:
    """Comma-separated size budgets, each at least 1 (the generator's floor)."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")
    if any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be at least 1: {text!r}")
    return sizes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--presets", default=None, help="comma-separated preset names")
    ap.add_argument(
        "--sizes", type=size_list, default=None, help="comma-separated size budgets"
    )
    ap.add_argument("--count", type=int, default=None, help="terms per cell")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--no-audit", action="store_true", help="skip per-run audits")
    args = ap.parse_args()

    cfg = SweepConfig()
    if args.presets:
        cfg.presets = args.presets.split(",")
    if args.sizes:
        cfg.sizes = args.sizes
    if args.count is not None:
        cfg.count = args.count
    if args.seed is not None:
        cfg.seed = args.seed
    if args.no_audit:
        cfg.audit = False

    hdr = (
        f"{'preset':>7} {'size':>5} {'terms':>6} {'sess%':>6} "
        f"{'steps':>7} {'max':>5} {'cyc':>5} {'act':>5} {'cross':>5} "
        f"{'garb':>5} {'bad':>4} {'sec':>7}"
    )
    print(hdr)
    print("-" * len(hdr))
    total_bad = 0
    for preset in cfg.presets:
        for size in cfg.sizes:
            row = run_cell(cfg, preset, size)
            total_bad += row.violations
            crosses = sum(row.rules[k] for k in CROSSES)
            print(
                f"{preset:>7} {size:>5} {row.terms:>6} "
                f"{100 * row.with_sessions / max(row.terms, 1):>5.1f}% "
                f"{mean(row.steps):>7.2f} {max(row.steps, default=0):>5} "
                f"{mean(row.cycles):>5.2f} {row.rules[RedexKind.ACTIVATION]:>5} "
                f"{crosses:>5} {row.rules[RedexKind.GARBAGE_CROSS]:>5} "
                f"{row.violations:>4} {row.wall:>7.2f}"
            )
    print()
    print(f"violations: {total_bad}")
    return 0 if total_bad == 0 else 3


if __name__ == "__main__":
    raise SystemExit(main())
