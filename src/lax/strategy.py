"""The master reduction strategy: drive a typed term to a normal parallel form.

The driver first permutes every parallel node onto the outer spine, then
cycles three phases until a full cycle makes no step:

1. intuitionistic: beta, case-on-injection, projection and case
   permutations, leftmost-innermost;
2. activation: activate sessions holding a transmittable value,
   outermost first;
3. communication: repeatedly fire the side strategy's move at the first
   uppermost active session that offers one (hoist a nested parallel
   component, else cross and chase the projections and case permutations
   the message created, else collect garbage), then sweep garbage on
   inactive sessions.

Every step lands in a Trace; auditing and replay live in the analysis
module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from .printer import show_term
from .rewrite import (
    ACTIVATION,
    CHASE,
    CROSSES,
    INTUITIONISTIC,
    Redex,
    RedexKind,
    find_redexes,
    is_parallel_form,
    pick_redex,
    redexes_at,
    step,
    uppermost_active_sessions,
)
from .terms import Term, subterm_at
from .typecheck import require_type

PHASE_PARALLEL = "ParallelForm"
PHASE_INTUITIONISTIC = "Intuitionistic"
PHASE_ACTIVATION = "Activation"
PHASE_COMMUNICATION = "Communication"

DEFAULT_MAX_STEPS = 100_000


class StrategyError(Exception):
    pass


class StepBudgetError(StrategyError, ValueError):
    """The step budget is not a positive integer."""


def parse_max_steps(raw: str, source: str) -> int:
    """A step budget given as text; source names where the text came from."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        raise StepBudgetError(f"{source} must be a positive integer, got {raw!r}")
    return n


def default_max_steps() -> int:
    raw = os.environ.get("LAX_MAX_STEPS")
    if raw is None:
        return DEFAULT_MAX_STEPS
    return parse_max_steps(raw, "LAX_MAX_STEPS")


class ParallelFormFailure(StrategyError):
    """A parallel node is stuck under a case branch; no permutation reaches it."""


class StepLimitExceeded(StrategyError):
    def __init__(self, term: Term, trace: "Trace"):
        super().__init__(f"step limit hit after {len(trace.steps)} steps")
        self.term = term
        self.trace = trace


@dataclass(frozen=True)
class TraceStep:
    cycle: int
    phase: str
    redex: Redex
    term_after: Term

    def to_json(self) -> dict:
        return {
            "cycle": self.cycle,
            "phase": self.phase,
            "rule": self.redex.rule,
            "position": list(self.redex.position),
            "complexity": self.redex.complexity,
            "term_after": show_term(self.term_after),
        }


@dataclass
class Trace:
    initial: Term
    steps: list[TraceStep] = field(default_factory=list)
    cycles: int = 0
    limit_hit: bool = False
    underline_discipline: bool = False

    @property
    def final(self) -> Term:
        return self.steps[-1].term_after if self.steps else self.initial

    def phase_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.phase] = out.get(s.phase, 0) + 1
        return out

    def to_json_lines(self) -> list[str]:
        import json

        return [json.dumps(s.to_json(), sort_keys=True) for s in self.steps]


class _Run:
    def __init__(self, t: Term, max_steps: Optional[int], discipline: bool):
        if max_steps is None:
            max_steps = default_max_steps()
        elif max_steps <= 0:
            raise StepBudgetError(
                f"the step budget must be a positive integer, got {max_steps}"
            )
        self.t = t
        self.max_steps = max_steps
        self.discipline = discipline
        self.trace = Trace(initial=t, underline_discipline=discipline)
        self.cycle = 0
        self.phase = PHASE_PARALLEL

    def fire(self, r: Redex) -> None:
        if len(self.trace.steps) >= self.max_steps:
            self.trace.limit_hit = True
            raise StepLimitExceeded(self.t, self.trace)
        self.t = step(self.t, r)
        self.trace.steps.append(TraceStep(self.cycle, self.phase, r, self.t))


# ---------------------------------------------------------------------------
# phases

_PAR_PERM = frozenset({RedexKind.PAR_PERM})
_GARBAGE = frozenset({RedexKind.GARBAGE_CROSS})
# the side strategy's move kinds, in the order it prefers them
_SIDE_MOVES = (frozenset({RedexKind.PAR_PAR_PERM}), CROSSES, _GARBAGE)


def _parallel_form(run: _Run) -> None:
    run.phase = PHASE_PARALLEL
    while not is_parallel_form(run.t):
        perm = pick_redex(run.t, run.discipline, _PAR_PERM)
        if perm is None:
            raise ParallelFormFailure(
                "no permutation applies; a parallel node sits under a case "
                "branch, which no rule can permute out"
            )
        run.fire(perm)


def _exhaust(run: _Run, kinds: frozenset, innermost: bool = False) -> int:
    """Fire the leftmost-outermost (or -innermost) redex of these kinds
    until there is none; the count."""
    made = 0
    while (r := pick_redex(run.t, run.discipline, kinds, innermost)) is not None:
        run.fire(r)
        made += 1
    return made


def _intuitionistic(run: _Run) -> int:
    run.phase = PHASE_INTUITIONISTIC
    return _exhaust(run, INTUITIONISTIC, innermost=True)


def _activation(run: _Run) -> int:
    run.phase = PHASE_ACTIVATION
    return _exhaust(run, ACTIVATION)


def _side_move(run: _Run) -> Optional[Redex]:
    """The side strategy's next move: the first move offered by an
    uppermost active session, shallowest first and leftmost among equals.
    A session offers its first hoist of a nested parallel component, else
    its first cross, else its garbage cross, first in redexes_at order."""
    upper = uppermost_active_sessions(run.t)
    for path, session in sorted(upper, key=lambda ps: (len(ps[0]), ps[0])):
        here = redexes_at(session, path, run.discipline)
        for kinds in _SIDE_MOVES:
            for r in here:
                if r.kind in kinds:
                    return r
    return None


def _inactive_garbage(run: _Run) -> Optional[Redex]:
    """The first garbage cross on a session that will never activate.

    The cross rules only fire on active sessions, but a session whose
    channel is missing from some component can already be dissolved; doing
    it here is what makes the final term redex-free.
    """
    for r in find_redexes(run.t, run.discipline, _GARBAGE):
        if not subterm_at(run.t, r.position).active:
            return r
    return None


def _communication(run: _Run) -> int:
    """Side moves, each cross chased by the projections and case
    permutations its message created, then the inactive sessions' garbage.
    The count leaves the chase steps out."""
    run.phase = PHASE_COMMUNICATION
    made = 0
    while (r := _side_move(run)) is not None:
        run.fire(r)
        if r.kind in CROSSES:
            _exhaust(run, CHASE)
        made += 1
    while (r := _inactive_garbage(run)) is not None:
        run.fire(r)
        made += 1
    return made


# ---------------------------------------------------------------------------
# public driver

def normalize(
    t: Term,
    max_steps: Optional[int] = None,
    underline_discipline: bool = False,
) -> tuple[Term, Trace]:
    """Run the full strategy; returns the final term and the trace.

    Raises TypingError when t does not type (see typecheck.require_type),
    StepLimitExceeded when the step budget runs out and ParallelFormFailure
    when a parallel node cannot be permuted onto the spine. Identical
    inputs and flags give identical traces.
    """
    require_type(t)
    run = _Run(t, max_steps, underline_discipline)
    _parallel_form(run)
    cycle = 0
    while True:
        cycle += 1
        run.cycle = cycle
        made = _intuitionistic(run)
        made += _activation(run)
        made += _communication(run)
        if made == 0:
            break
    run.trace.cycles = cycle
    return run.t, run.trace
