"""Checkers for the engine's metatheoretic guarantees on concrete runs.

Nothing here proves anything; these functions decide, for one term or one
trace, whether the guarantees the reduction theory promises actually held,
and report witnesses when they did not. They are deliberately written
against the definitions rather than against the engine's internals, so an
engine bug shows up as a failed report instead of being replicated. The
trace audit reads the path each step rebuilt, and whole states only where
that does not settle the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import groupby

from .formulas import (
    BOT,
    TOP,
    Formula,
    prime_factors,
    proper_subformulas,
    subformulas,
)
from .rewrite import (
    ACTIVATION,
    CHASE,
    COMMUNICATION,
    CROSSES,
    GROUP1,
    GROUP2,
    INTUITIONISTIC,
    PEAK_GROUPS,
    InvalidRedex,
    Redex,
    RedexKind,
    contractum,
    find_redexes,
    is_parallel_form,
    redex_peaks,
    redexes_at,
    uppermost_active_sessions,
)
from .strategy import (
    PHASE_ACTIVATION,
    PHASE_COMMUNICATION,
    PHASE_INTUITIONISTIC,
    PHASE_PARALLEL,
    Trace,
)
from .terms import (
    Chan,
    Contract,
    ParBind,
    Path,
    Term,
    children,
    comp_body,
    node_data,
    subterm_at,
)
from .typecheck import (
    TypingContext,
    check,
    check_subject_reduction,
    has_type,
    type_of,
    types_in,
)


class NotNormal(Exception):
    pass


@dataclass
class PropertyReport:
    name: str
    holds: bool
    witnesses: list[tuple[str, str]] = field(default_factory=list)
    note: str = ""

    def add(self, where: str, why: str) -> None:
        self.holds = False
        self.witnesses.append((where, why))

    def to_json(self) -> dict:
        return {
            "property": self.name,
            "holds": self.holds,
            "witnesses": [{"where": w, "why": e} for w, e in self.witnesses],
            "note": self.note,
        }


def is_normal(t: Term, underline_discipline: bool = False) -> bool:
    return not find_redexes(t, underline_discipline)


def check_parallel_nf_property(
    t: Term, underline_discipline: bool = False
) -> PropertyReport:
    rep = PropertyReport("parallel-normal-form", True)
    if not is_normal(t, underline_discipline):
        rep.note = "term is not normal; nothing to check"
        return rep
    if not is_parallel_form(t):
        rep.add("[]", "normal term is not in parallel form")
    return rep


# ---------------------------------------------------------------------------
# subformula property

def _allowed_formulas(ctx: TypingContext, conclusion: Formula) -> frozenset[Formula]:
    out: set[Formula] = {TOP, BOT}
    for ty in ctx.ivars.values():
        out |= subformulas(ty)
    out |= subformulas(conclusion)
    for kind in ctx.chans.values():
        out |= proper_subformulas(kind)
    return frozenset(out)


def _formula_traceable(f: Formula, allowed: frozenset[Formula]) -> bool:
    """f is a subformula or a conjunction of subformulas of the context."""
    return all(p in allowed for p in prime_factors(f))


def _binder_kind_formulas(s: ParBind) -> list[Formula]:
    """The formulas a session's channel occurrences transport."""
    ax = s.axiom
    if ax.mode in ("em", "broadcast"):
        return [ax.carrier, BOT]
    out: list[Formula] = []
    for f, g in ax.components:
        out.append(f)
        out.append(g)
    return out


def check_subformula(ctx: TypingContext, t: Term) -> PropertyReport:
    """Both clauses of the subformula property for a normal, typed term:
    the witnesses of the sessions' channels, then of the subterms' types
    (channel occurrences left to their binder), each in preorder.

    Top and Bot count as traceable everywhere: negation is implication
    into Bot and the unit type seeds fresh carriers, so both constants
    appear even when the context never mentions them. The walk is an
    explicit stack, and a node holds only a link to its parent's place; a
    path is spelled out for a witness alone.
    """
    if not is_normal(t):
        raise NotNormal("subformula property is only claimed for normal terms")
    if types_in(t, ctx):  # checked already: elaborated, typed at each node
        conclusion = type_of(t)
    else:
        t, conclusion = check(t, ctx)  # raises, or elaborates t
    allowed = _allowed_formulas(ctx, conclusion)
    chans: list[tuple[tuple, str]] = []
    types: list[tuple[tuple, str]] = []
    todo: list[tuple[Term, tuple]] = [(t, ())]
    while todo:
        s, at = todo.pop()
        if isinstance(s, ParBind):
            for f in _binder_kind_formulas(s):
                if not _formula_traceable(f, allowed):
                    chans.append((at, f"channel {s.chan} transports {f}, whose "
                                  "prime factors do not all trace back to the context"))
        if type(s) is not Chan and not _formula_traceable(ty := type_of(s), allowed):
            types.append((at, f"subterm has type {ty}, which is not a "
                          "conjunction of traceable subformulas"))
        cs = children(s)
        for i in range(len(cs) - 1, -1, -1):
            todo.append((cs[i], (at, i)))
    rep = PropertyReport("subformula", True)
    for at, why in chans + types:
        path = []
        while at:
            at, i = at
            path.append(i)
        rep.add(str(path[::-1]), why)
    return rep


# ---------------------------------------------------------------------------
# trace auditing

# no channel occurs free; shared by every tally, and never changed
_NO_OCCURRENCES: dict[str, int] = {}


def _tally(t: Term, table: dict) -> tuple:
    """(t, active sessions, parallel nodes, free occurrences per channel):
    each counted at every position in t, t included. A session drops its
    own channel from the occurrences, so no occurrence under a session that
    binds the name again is counted.

    table maps id(node) to the node's tally, which holds the node, so no
    id is reused while table lives; a node already in it costs one lookup.
    The walk is an explicit stack over children."""
    entry = table.get(id(t))
    if entry is not None:
        return entry
    todo: list = [(t, None)]
    while todo:
        s, cs = todo.pop()
        if cs is None:
            if id(s) in table:  # pushed by two parents
                continue
            cs = children(s)
            missing = [(c, None) for c in cs if id(c) not in table]
            if missing:
                todo.append((s, cs))
                todo += missing
                continue
        active = par = 0
        occ = {s.name: 1} if type(s) is Chan else _NO_OCCURRENCES
        for c in cs:
            _, a, p, o = table[id(c)]
            active += a
            par += p
            if not occ:
                occ = o
            elif o:
                occ = dict(occ)
                for name, k in o.items():
                    occ[name] = occ.get(name, 0) + k
        if type(s) is ParBind:
            active += s.active
            par += 1
            if s.chan in occ:
                occ = dict(occ)
                del occ[s.chan]
        elif type(s) is Contract:
            par += 1
        table[id(s)] = (s, active, par, occ)
    return table[id(t)]


def communication_measure(
    t: Term, table: dict | None = None
) -> tuple[int, dict[int, int], dict[int, int]]:
    """The (n, h, g) triple the communication phase drives down: active
    non-uppermost sessions, then parallel material still buried inside
    uppermost active sessions, then their channel occurrence counts.

    h counts parallel nodes inside each uppermost active session rather
    than its tree height: a hoisting step replaces one session by copies
    that each contain strictly fewer parallel nodes, which stays a strict
    multiset decrease even when two components tie for the tallest
    subtree (heights alone can tie and stall there).

    table holds each node's tally (see _tally); states that share nodes
    and share a table pay only for the nodes not tallied before."""
    if table is None:
        table = {}
    active = _tally(t, table)[1]
    upper = uppermost_active_sessions(t)
    h: dict[int, int] = {}
    g: dict[int, int] = {}
    for _, s in upper:
        buried = occ = 0
        for c in s.comps:
            _, _, p, o = table[id(comp_body(c))]
            buried += p
            occ += o.get(s.chan, 0)
        if buried >= 1:
            h[buried] = h.get(buried, 0) + 1
        g[occ] = g.get(occ, 0) + 1
    return active - len(upper), h, g


def _fn_less(a: dict[int, int], b: dict[int, int]) -> bool:
    """a < b in the ordering that compares counts at the largest index first."""
    keys = sorted(set(a) | set(b), reverse=True)
    ta = tuple(a.get(k, 0) for k in keys)
    tb = tuple(b.get(k, 0) for k in keys)
    return ta < tb


def _measure_decreases(before: tuple, after: tuple) -> bool:
    """The communication measure after is below before."""
    (n0, h0, g0), (n1, h1, g1) = before, after
    if n1 != n0:
        return n1 < n0
    if h1 != h0:
        return _fn_less(h1, h0)
    return _fn_less(g1, g0)


def audit_trace(ctx: TypingContext, trace: Trace) -> PropertyReport:
    """Everything the run promised, checked against the recorded steps:
    replay, phase order, per-step subject reduction, the two decrease
    clauses, no activations after a chased cross, the shrinking
    communication measure, and the per-cycle complexity ceiling."""
    rep = PropertyReport("trace-audit", True)
    disc = trace.underline_discipline
    terms = [trace.initial] + [s.term_after for s in trace.steps]
    # discovery reads a state only if it types; subject reduction names
    # every step into or out of one that does not
    typed = [has_type(t) for t in terms]

    replayed = _audit_replay(rep, trace, terms, typed)
    _audit_phase_order(rep, trace)
    _audit_subject_reduction(rep, ctx, trace, terms)
    _audit_decrease(rep, trace, terms, typed, replayed, disc)
    _audit_activation_phases(rep, trace, terms, typed, disc)
    _audit_freeze(rep, trace, terms, typed, disc)
    _audit_communication_measure(rep, trace, terms, typed)
    _audit_cycle_complexity(rep, trace, terms, typed, disc)
    return rep


def _audit_replay(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool]
) -> list[bool]:
    """Whether each step's recorded state after is what its redex gives."""
    replayed = [False] * len(trace.steps)
    for i, ts in enumerate(trace.steps):
        r = ts.redex
        try:
            if not typed[i]:  # no redex applies in a state that does not type
                raise InvalidRedex(r.rule)
            new = contractum(terms[i], r)
        except InvalidRedex as e:
            rep.add(f"step {i}", f"recorded redex no longer applies: {e}")
            continue
        if _same_after(terms[i], ts.term_after, r.position, new):
            replayed[i] = True
        else:
            rep.add(f"step {i}", f"replaying {r.rule} gives a different term")
    return replayed


def _same_after(before: Term, after: Term, path: Path, new: Term) -> bool:
    """after is before with new at path (a path of before), told without
    rebuilding before: down path the two hold nodes of one class, with
    equal data and as many children, each child off path is shared or
    equal, and after holds new where path ends. The walk is a loop, so a
    path of any length is walked."""
    for k in path:
        if type(before) is not type(after) or node_data(before) != node_data(after):
            return False
        cb, ca = children(before), children(after)
        if len(cb) != len(ca):
            return False
        for j, b in enumerate(cb):
            if j != k and b is not ca[j] and not _same_term(b, ca[j]):
                return False
        before, after = cb[k], ca[k]
    return _same_term(new, after)


def _same_term(t1: Term, t2: Term) -> bool:
    """t1 == t2, compared on an explicit stack; a node shared by both is
    equal without a look inside."""
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b) or node_data(a) != node_data(b):
            return False
        ca, cb = children(a), children(b)
        if len(ca) != len(cb):
            return False
        todo.extend(zip(ca, cb))
    return True


def _audit_phase_order(rep: PropertyReport, trace: Trace) -> None:
    order = {
        PHASE_PARALLEL: 0,
        PHASE_INTUITIONISTIC: 1,
        PHASE_ACTIVATION: 2,
        PHASE_COMMUNICATION: 3,
    }
    prev_cycle, prev_phase = 0, 0
    for i, ts in enumerate(trace.steps):
        ph = order[ts.phase]
        if ts.phase == PHASE_PARALLEL:
            ok = prev_cycle == 0 and prev_phase == 0
        elif ts.cycle == prev_cycle:
            ok = ph >= prev_phase
        else:
            ok = ts.cycle > prev_cycle and ph >= 1
        if not ok:
            rep.add(
                f"step {i}",
                f"phase {ts.phase} of cycle {ts.cycle} breaks the cyclic order",
            )
        prev_cycle, prev_phase = ts.cycle, ph


def _audit_subject_reduction(
    rep: PropertyReport, ctx: TypingContext, trace: Trace, terms: list[Term]
) -> None:
    for i, ts in enumerate(trace.steps):
        sr = check_subject_reduction(ctx, terms[i], ts.term_after)
        if not sr.ok:
            rep.add(f"step {i}", f"subject reduction failed: {sr.message}")


def _audit_decrease(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool],
    replayed: list[bool], disc: bool,
) -> None:
    """Every redex after a step is within its group's bound under the fired
    redex's clause: on what a replayed step built, else on both whole states."""
    for i, ts in enumerate(trace.steps):
        if ts.phase == PHASE_PARALLEL or not (typed[i] and typed[i + 1]):
            continue
        fired = ts.redex
        if fired.kind in (
            RedexKind.PAR_PERM, RedexKind.PAR_PAR_PERM, RedexKind.ACTIVATION
        ):
            continue
        if replayed[i] and _built_within(terms[i], terms[i + 1], fired, disc):
            continue
        peaks = redex_peaks(terms[i], disc)
        clause, bound = _clause_bounds(fired.group, fired.complexity, peaks)
        if all(p <= b for p, b in zip(redex_peaks(terms[i + 1], disc), bound.values())):
            continue
        for q in find_redexes(terms[i + 1], disc):
            if q.complexity > bound[q.group]:
                rep.add(
                    f"step {i}",
                    f"after {fired.rule} (complexity {fired.complexity}), redex "
                    f"{q.rule} at {list(q.position)} has complexity {q.complexity}, "
                    f"above every bound of the {clause} decrease clause",
                )


@cache  # few groups, complexities and peaks recur; the bounds are only read
def _clause_bounds(group, tau: int, peaks: tuple = ()) -> tuple[str, dict]:
    """A fired redex's clause and each group's bound after it, from peaks before
    or from the fired redex alone (only the first clause reads CasePerm's)."""
    *caps, case_perm = peaks or [tau if g == group else -1 for g in PEAK_GROUPS] + [-1]
    if group == GROUP1:
        clause, floor = "first", max(tau - 1, case_perm)
    else:
        clause, floor = "second", tau
    return clause, {g: max(floor, c) for g, c in zip(PEAK_GROUPS, caps)}


def _peaks(redexes: list[Redex]) -> tuple:
    """redex_peaks' maxima over these redexes alone."""
    top = [-1] * (len(PEAK_GROUPS) + 1)
    for r in redexes:  # its group's slot, and the last for a CasePerm
        for k in [PEAK_GROUPS.index(r.group)] + [-1] * (r.kind is RedexKind.CASE_PERM):
            top[k] = max(top[k], r.complexity)
    return tuple(top)


def _built_within(before: Term, after: Term, fired: Redex, disc: bool) -> bool:
    """What a replayed step built (the path's new own redexes and the subtree at
    the position; off the path both states are equal) is within bounds read low
    from before's redexes on the path. A session offers hoists of complexity 0,
    else redexes at a value complexity it sends, which its formulas bound."""
    old, built = [fired], []
    _, bound = _clause_bounds(fired.group, fired.complexity)
    for k in fired.position:
        if type(after) is not ParBind or bound[GROUP2] < max(
                f.complexity for f in _binder_kind_formulas(after)):
            high = [r for r in redexes_at(after, (), disc) if r.complexity > bound[r.group]]
            if high:
                here = redexes_at(before, (), disc)
                old += here
                built += [r for r in high if r not in here]
        before, after = children(before)[k], children(after)[k]
    if len(old) > 1:  # a node before raised the bounds
        _, bound = _clause_bounds(fired.group, fired.complexity, _peaks(old))
    return all(r.complexity <= bound[r.group] for r in built) and all(
        p <= b for p, b in zip(redex_peaks(after, disc), bound.values()))


def _phase_spans(trace: Trace, phase: str) -> list[tuple[int, int]]:
    """Maximal runs [start, end) of steps with the given phase tag."""
    spans, i = [], 0
    for (tag, _), run in groupby(trace.steps, lambda s: (s.phase, s.cycle)):
        j = i + len(list(run))
        if tag == phase:
            spans.append((i, j))
        i = j
    return spans


def _audit_activation_phases(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool],
    disc: bool,
) -> None:
    for start, end in _phase_spans(trace, PHASE_ACTIVATION):
        if not (typed[start] and typed[end]):
            continue
        pre = find_redexes(terms[start], disc, COMMUNICATION)
        tau = max((r.complexity for r in pre), default=-1)
        for q in find_redexes(terms[end], disc, INTUITIONISTIC | COMMUNICATION):
            if q.kind == RedexKind.ACTIVATION:
                rep.add(
                    f"step {end - 1}",
                    "activation phase ended with an activation redex left at "
                    f"{list(q.position)}",
                )
            elif q.kind in INTUITIONISTIC:
                rep.add(
                    f"step {end - 1}",
                    "activation phase ended with an intuitionistic redex at "
                    f"{list(q.position)}",
                )
            elif q.kind in COMMUNICATION and q.complexity > tau:
                rep.add(
                    f"step {end - 1}",
                    f"activation raised the communication bound: {q.rule} has "
                    f"complexity {q.complexity} > {tau}",
                )


def _chase_end(trace: Trace, i: int) -> int:
    j = i + 1
    while (
        j < len(trace.steps)
        and trace.steps[j].phase == PHASE_COMMUNICATION
        and trace.steps[j].redex.kind in CHASE
    ):
        j += 1
    return j


def _audit_freeze(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool],
    disc: bool,
) -> None:
    for i, ts in enumerate(trace.steps):
        if ts.phase != PHASE_COMMUNICATION or ts.redex.kind not in CROSSES:
            continue
        j = _chase_end(trace, i)
        if not typed[j]:
            continue
        for q in find_redexes(terms[j], disc, ACTIVATION):
            rep.add(
                f"step {i}",
                f"cross {ts.redex.rule} left an activation redex at "
                f"{list(q.position)} after its chase",
            )


def _audit_communication_measure(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool]
) -> None:
    measures: dict[int, tuple] = {}  # each state is measured once
    table: dict = {}  # node tallies, shared by every state of the trace

    def measure(k: int) -> tuple:
        if k not in measures:
            measures[k] = communication_measure(terms[k], table)
        return measures[k]

    for start, end in _phase_spans(trace, PHASE_COMMUNICATION):
        i = start
        while i < end:
            ts = trace.steps[i]
            kind = ts.redex.kind
            if kind == RedexKind.GARBAGE_CROSS and not _fired_on_active(
                terms[i], ts.redex
            ):
                i += 1  # the inactive-session sweep sits outside the measure
                continue
            j = _chase_end(trace, i) if kind in CROSSES else i + 1
            if typed[i] and typed[j] and not _measure_decreases(measure(i), measure(j)):
                rep.add(
                    f"step {i}",
                    f"side-strategy move {ts.redex.rule} did not shrink the "
                    "(sessions, heights, occurrences) measure",
                )
            i = j
        # steps inside a chase were skipped over by j above


def _fired_on_active(t: Term, r: Redex) -> bool:
    try:
        s = subterm_at(t, r.position)
    except IndexError:
        return False  # the replay reports the step
    return isinstance(s, ParBind) and s.active


def _cycle_entry_indices(trace: Trace) -> dict[int, int]:
    """Index into terms[] of the first state of each cycle."""
    entries: dict[int, int] = {}
    for i, ts in enumerate(trace.steps):
        if ts.phase != PHASE_PARALLEL:
            entries.setdefault(ts.cycle, i)
    return entries


def _top_peak(t: Term, disc: bool) -> int:
    """The highest complexity of any redex of t, -1 when it has none."""
    return max(redex_peaks(t, disc)[: len(PEAK_GROUPS)])


def _audit_cycle_complexity(
    rep: PropertyReport, trace: Trace, terms: list[Term], typed: list[bool],
    disc: bool,
) -> None:
    if trace.limit_hit:
        return  # a truncated run proves nothing about its cycles
    entries = _cycle_entry_indices(trace)
    if not entries:
        return
    # the final, quiescent cycle leaves no steps; its entry state is the end
    entries[max(entries) + 1] = len(terms) - 1
    ks = sorted(entries)
    taus = {k: _top_peak(terms[i], disc) for k, i in entries.items() if typed[i]}
    for a, b in zip(ks, ks[1:]):
        if a in taus and b in taus and taus[b] > taus[a]:
            rep.add(
                f"cycle {b}",
                f"max redex complexity rose from {taus[a]} to {taus[b]}",
            )
    for a, c in zip(ks, ks[2:]):
        if a in taus and c in taus and taus[a] > 0 and not taus[c] < taus[a]:
            rep.add(
                f"cycle {c}",
                f"max redex complexity {taus[c]} failed to drop below the "
                f"bound {taus[a]} from two cycles earlier",
            )
