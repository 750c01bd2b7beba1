"""One program from source text to verdict, and closed-loop passes.

A program is parsed, type-checked, normalized, and judged by the audit and
the two property checks. Every call goes through the attribute of the
module that defines the layer, so a Tracer that wraps those attributes sees
it. The benchmark's own correctness checks run after the clock stops.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from calibrate import Meter
from lax import analysis, parser, rewrite, strategy, typecheck
from lax.terms import Term, alpha_eq, term_size


@dataclass
class Program:
    name: str
    source: str
    underline: bool
    reference: Optional[Term]
    digest: Optional[str]


def prepare(records: list[dict]) -> list[Program]:
    """Programs with their references parsed, ready to run."""
    out = []
    for r in records:
        ref = None
        if r["reference"] is not None:
            gamma = parser.parse_program(r["source"]).gamma
            ref = parser.parse_term(r["reference"], dict(gamma))
        out.append(
            Program(r["name"], r["source"], r["underline"], ref, r["trace_sha256"])
        )
    return out


@dataclass
class Outcome:
    verdict_s: float
    failures: list[str]
    normalize_s: Optional[float] = None
    verify_s: Optional[float] = None
    nodes: int = 0
    # reached a normal form, alpha-equal to the reference if there is one
    normal_form_ok: bool = False
    trace: Optional[strategy.Trace] = None
    # clock readings at the start, after check, after normalize, at the end
    marks: tuple[float, ...] = ()

    def rescale(self, scale: Callable[[float, float], float]) -> None:
        """Turn the times into reference seconds, each by ``scale`` over
        its own span of the clock."""
        t = self.marks
        self.verdict_s *= scale(t[0], t[-1])
        if self.normalize_s is not None:
            self.normalize_s *= scale(t[1], t[2])
            self.verify_s *= scale(t[2], t[3])


def run_program(p: Program, clock=time.perf_counter) -> Outcome:
    """Source text to verdict, timed on ``clock``. A program fails on an
    exception, a failed report, a final term that is not a parallel normal
    form, or a normal form that is not alpha-equal to its reference."""
    t0 = clock()
    try:
        prog = parser.parse_program(p.source)
        ctx = typecheck.TypingContext(ivars=dict(prog.gamma))
        term, _ = typecheck.check(prog.term, ctx)
        t1 = clock()
        final, trace = strategy.normalize(term, underline_discipline=p.underline)
        t2 = clock()
        reports = (
            analysis.audit_trace(ctx, trace),
            analysis.check_parallel_nf_property(final, p.underline),
            analysis.check_subformula(ctx, final),
        )
        t3 = clock()
    except Exception as e:  # counted as a failed program, never fatal
        t3 = clock()
        return Outcome(t3 - t0, [f"{type(e).__name__}: {e}"], marks=(t0, t3))
    failures = [r.name for r in reports if not r.holds]
    if rewrite.find_redexes(final, p.underline):
        failures.append("not-normal")
    if not rewrite.is_parallel_form(final):
        failures.append("not-parallel-form")
    matches = p.reference is None or alpha_eq(final, p.reference)
    if not matches:
        failures.append("reference-mismatch")
    return Outcome(
        t3 - t0,
        failures,
        t2 - t1,
        t3 - t2,
        term_size(term),
        matches,
        trace,
        (t0, t1, t2, t3),
    )


@dataclass
class Pass:
    nodes: int = 0
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    phases: Counter = field(default_factory=Counter)
    rules: Counter = field(default_factory=Counter)

    def add(self, p: Program, o: Outcome) -> None:
        self.nodes += o.nodes
        if o.trace is not None:
            for s in o.trace.steps:
                self.phases[s.phase] += 1
                self.rules[s.redex.kind.value] += 1
        # traces can be large; keep timings and verdicts only
        self.outcomes[p.name] = replace(o, trace=None)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.failures)

    def verdicts(self) -> dict[str, tuple[str, ...]]:
        return {n: tuple(o.failures) for n, o in self.outcomes.items()}


def run_passes(
    programs: list[Program],
    seconds: float,
    shuffle: Callable[[list], None],
    observe: Optional[Callable[[int, Program, Outcome], None]] = None,
    min_passes: int = 1,
    meter: Optional[Meter] = None,
) -> list[Pass]:
    """Closed loop, one caller: whole passes over the programs, each in a
    fresh order. After ``min_passes``, another pass starts while ending
    after it is expected to land nearer to ``seconds`` than stopping now.
    ``observe`` sees every outcome after its clock has stopped. With a
    ``meter``, programs are timed on its clock while it samples the
    kernel, and their times are turned into reference seconds."""
    clock = meter.clock if meter is not None else time.perf_counter
    start = time.perf_counter()
    passes: list[Pass] = []
    walls: list[float] = []
    with meter.running() if meter is not None else nullcontext():
        while True:
            order = list(programs)
            shuffle(order)
            ps = Pass()
            t = time.perf_counter()
            for p in order:
                o = run_program(p, clock)
                if observe is not None:
                    observe(len(passes), p, o)
                ps.add(p, o)
            if meter is not None:
                for o in ps.outcomes.values():
                    o.rescale(meter.scale)
            passes.append(ps)
            walls.append(time.perf_counter() - t)
            expected_end = time.perf_counter() - start + statistics.median(walls) / 2
            if len(passes) >= min_passes and expected_end > seconds:
                return passes


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples above it."""
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return 100 * (n - 10) // n


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile."""
    xs = sorted(values)
    rank = max(1, math.ceil(p * len(xs) / 100))
    return xs[rank - 1]


def per_program_median(passes: list[Pass], attr: str) -> list[float]:
    """Each program's median time over the passes."""
    out = []
    for name in passes[0].outcomes:
        xs = [getattr(ps.outcomes[name], attr) for ps in passes]
        xs = [x for x in xs if x is not None]
        if xs:
            out.append(statistics.median(xs))
    return out


def verdict(passes) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over every pass of the run."""
    first = passes[0]
    repeats = all(
        ps.verdicts() == first.verdicts()
        and ps.phases == first.phases
        and ps.rules == first.rules
        for ps in passes
    )
    reached = all(o.normal_form_ok for ps in passes for o in ps.outcomes.values())
    attempted = sum(len(ps.outcomes) for ps in passes)
    failed = sum(ps.failed for ps in passes)
    return repeats and reached, attempted, failed
