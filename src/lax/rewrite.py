"""Values, complexity measures, redex discovery, and single-step reduction.

Everything here works on elaborated terms (occurrences carry types). All
functions are pure; step() never mutates its input.

Conventions used throughout:

- "rightmost occurrence" of a channel in a component is the occurrence that
  comes last in depth-first left-to-right traversal, which matches reading
  the printed term right to left. A rightmost occurrence can have no
  channel occurrence inside its own argument.
- a message is "closed" when it mentions no variable and no channel that is
  bound between the component root and the occurrence; names free in the
  whole program are fine.
- communication complexity of a session is the maximum value complexity
  over the arguments of applied channel occurrences, 0 when there are none
  (arguments containing nested parallel nodes count 0; by the time
  communication fires the strategy has made the components simply typed).
- the parallel permutations have one table, _PERM_SLOTS: for each
  constructor, the children a parallel node can be permuted out of, by
  child index, each with its trace label, in the order discovery tries
  them (the first match wins; case branches are not listed, so a parallel
  node there is stuck).
  An eliminator's first slot, child 0, is labelled "stack": it is its
  hole (terms.HOLES), which is also where the case permutation looks.
- EM's basic cross is the broadcast cross with a single receiver; only the
  full cross, which ships an open message, is EM's own.

Discovery runs on facts each node remembers (terms.remembered): its own
redexes, rooted at it, at position (), and the mask of the rule kinds in
its subtree, its own OR its children's. find_redexes enters only the
children whose mask meets the kinds asked for and moves the remembered
redexes to their absolute path, so a state that step() rebuilt along one
path is discovered again at the cost of that path. A session's own redexes
come from its scan, so they are computed on first demand, once, with no
discipline; the underline discipline is a filter on what the scan found.
Until then its own bits are what its activity allows (_SESSION_BITS), a
superset, and a walk that asks for no session kind never scans a session.
The facts depend on nothing but the node's subtree, and nodes never
change, so they cannot go stale.

The mask also answers the strategy's structural questions. One bit above
the kind bits (_PARALLEL), which sessions, joins and marks set, says the
subtree is not simply typed (is_simply_typed). A cross bit says it holds
an active session, since only an active session's own bits set one
(contains_active_session, uppermost_active_sessions).

A scan walks no component. Each node remembers its send summary (_sends):
per free channel, the highest _vc_safe of an argument applied to it and
whether one such argument is a value. A component's entry for the
session's channel says whether it mentions the channel (the garbage
cross's survivors), whether it sends a value (activation), and the
highest complexity it sends (the communication complexity, which _comm
alone computes). An inactive session offers only those two rules, so
inactive sessions share one scan per entry tuple (_inactive_scan). The
crosses need the rightmost occurrence, which _rightmost finds by a
descent along the summaries and the component remembers; the
contractions read the same descent, and no other module reads a summary.
So a session that a step rebuilt around components shared with the
state before is scanned again at the cost of its arity, plus the nodes
the step rebuilt and, if it is active, a descent into each rebuilt one.

The remembered redexes are also the one judge of whether a redex applies:
step(t, r) contracts r exactly when the subterm at r.position offers it,
with no discipline, and raises InvalidRedex otherwise. Each rule's side
conditions are stated once, in discovery; the contractions assume them.
A contraction rebuilds through the shape table (terms.with_child and
with_children), as discovery reads through children: a cross fills a
component through _put, and only the full crosses build a new session.

The strategy fires one redex at a time, so pick_redex finds one without
the list: leftmost-outermost, find_redexes' walk stopped at its first
redex; leftmost-innermost, a descent from the root into the first child
whose mask meets the kinds, taking the first own redex of the node where
no child's does. The descent is exact only for kinds no session offers,
since a session's own bits are a superset until it is scanned; the
strategy asks it for INTUITIONISTIC. The audit's decrease and cycle checks
read maxima, so each node also remembers, per discipline, its complexity
peaks (redex_peaks): the highest complexity of each redex group in its
subtree and of its CasePerm redexes. They are filled through the same
terms.remembered loop, entering only the children whose kind mask is not
0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional, Sequence

from .axioms import em_axiom, general_axiom
from .formulas import BOT, Formula, Impl, conj
from .terms import (
    App,
    Case,
    Chan,
    Contract,
    Efq,
    HOLES,
    Inj,
    Lam,
    Pair,
    PARALLEL_NODES,
    ParBind,
    Path,
    Proj,
    TT,
    Term,
    Underline,
    Var,
    all_names,
    apply_stack,
    binder_names,
    build_tuple,
    children,
    comp_body,
    comp_marked,
    contract_join,
    decompose_stack,
    flatten_pairs,
    free_names,
    free_occurrences,
    fresh_name,
    is_parallel_node,
    rebind,
    remembered,
    replace_at,
    subst,
    subst_chan_bare,
    subterm_at,
    with_child,
    with_children,
)
from .typecheck import type_of


class NotParallelForm(Exception):
    pass


class InvalidRedex(Exception):
    pass


class NotSimplyTyped(Exception):
    pass


# ---------------------------------------------------------------------------
# values

def is_value(t: Term) -> bool:
    """Tuples (possibly of length one) with at least one witness component.

    Witnesses: a lambda, an injection, an efq application, a case term, or a
    stack applied to an active channel. Only the right-nested pair spine is
    flattened; tt alone is not a value.
    """
    for part in flatten_pairs(t):
        if isinstance(part, (Lam, Inj, Efq, Case)):
            return True
        head, _ = decompose_stack(part)
        if isinstance(head, Chan) and head.active:
            return True
    return False


def value_complexity(t: Term) -> int:
    """First clause that matches decides; see the measure's definition.

    lambda / injection: complexity of the term's type. Pair: max of the
    halves. A case term under a case-free stack: max over the branches with
    the stack pushed inside. Anything else: 0.
    """
    best, todo = 0, [t]
    while todo:  # left before right, as the clauses read
        t = todo.pop()
        if isinstance(t, (ParBind, Contract, Underline)):
            raise NotSimplyTyped(f"value complexity of a parallel term: {t}")
        if isinstance(t, (Lam, Inj)):
            best = max(best, type_of(t).complexity)
        elif isinstance(t, Pair):
            todo += (t.right, t.left)
        else:
            _, stack = decompose_stack(t)
            cases = [i for i, f in enumerate(stack) if isinstance(f, Case)]
            if cases:
                case, sigma = stack[cases[-1]], stack[cases[-1] + 1:]
                todo += (apply_stack(case.rbody, sigma), apply_stack(case.lbody, sigma))
    return best


def _vc_safe(t: Term) -> int:
    if not is_simply_typed(t):
        return 0
    return value_complexity(t)


# ---------------------------------------------------------------------------
# redexes

class RedexKind(str, Enum):
    BETA = "Beta"
    PROJ_PAIR = "ProjPair"
    CASE_INJ = "CaseInj"
    CASE_PERM = "CasePerm"
    PAR_PERM = "ParPerm"
    PAR_PAR_PERM = "ParParPerm"
    ACTIVATION = "Activation"
    BASIC_CROSS = "BasicCross"
    FULL_CROSS = "FullCross"
    GARBAGE_CROSS = "GarbageCross"
    BROADCAST_CROSS = "BroadcastCross"


GROUP1 = 1
GROUP2 = 2
GROUP_OTHER = "other"

_GROUPS = {
    RedexKind.BETA: GROUP1,
    RedexKind.CASE_INJ: GROUP1,
    RedexKind.PROJ_PAIR: GROUP2,
    RedexKind.CASE_PERM: GROUP2,
    RedexKind.ACTIVATION: GROUP2,
    RedexKind.BASIC_CROSS: GROUP2,
    RedexKind.FULL_CROSS: GROUP2,
    RedexKind.GARBAGE_CROSS: GROUP2,
    RedexKind.BROADCAST_CROSS: GROUP2,
    RedexKind.PAR_PERM: GROUP_OTHER,
    RedexKind.PAR_PAR_PERM: GROUP_OTHER,
}

# the rule kinds each phase of the strategy may fire
INTUITIONISTIC = frozenset(
    {RedexKind.BETA, RedexKind.CASE_INJ, RedexKind.PROJ_PAIR, RedexKind.CASE_PERM}
)
CHASE = frozenset({RedexKind.PROJ_PAIR, RedexKind.CASE_PERM})
CROSSES = frozenset(
    {RedexKind.BASIC_CROSS, RedexKind.FULL_CROSS, RedexKind.BROADCAST_CROSS}
)
ACTIVATION = frozenset({RedexKind.ACTIVATION})
COMMUNICATION = CROSSES | ACTIVATION | {RedexKind.GARBAGE_CROSS}


@dataclass(frozen=True, slots=True)
class Redex:
    kind: RedexKind
    position: Path
    complexity: int
    # which parallel permutation / which component gets hoisted
    which: Optional[str] = None
    comp: Optional[int] = None
    sender: Optional[int] = None
    receiver: Optional[int] = None
    survivors: Optional[tuple[int, ...]] = None

    @property
    def group(self):
        return _GROUPS[self.kind]

    @property
    def rule(self) -> str:
        if self.kind == RedexKind.PAR_PERM:
            return f"ParPerm({self.which})"
        if self.kind == RedexKind.PAR_PAR_PERM:
            return f"ParParPerm({self.comp})"
        if self.kind == RedexKind.BASIC_CROSS:
            return f"BasicCross({self.sender},{self.receiver})"
        if self.kind == RedexKind.GARBAGE_CROSS:
            return f"GarbageCross{list(self.survivors or ())}"
        return self.kind.value


# ---------------------------------------------------------------------------
# channel occurrences

@dataclass(frozen=True, slots=True)
class Occurrence:
    app_path: Optional[Path]  # path of the App node when applied
    negated: bool
    arg: Optional[Term]
    binders_above: frozenset[str]  # variable and channel names bound above


def _closed_at(occ: Occurrence, msg: Term) -> bool:
    """No free name of msg is bound between the component root and the hole."""
    return not (_captured_chans(occ, msg) or _captured_vars(occ, msg))


def _captured_vars(occ: Occurrence, msg: Term) -> list[tuple[str, Formula]]:
    """Free variables of msg bound above the hole, in first-use order, each
    with its first occurrence's type.

    Variables bound inside msg do not count, even when a binder above the
    hole has the same name (beta duplicates binders, so this happens).
    """
    fv, _ = free_occurrences(msg)
    return [(x, v.ty) for x, v in fv.items() if x in occ.binders_above]


def _captured_chans(occ: Occurrence, msg: Term) -> frozenset[str]:
    return occ.binders_above.intersection(_sends(msg))


# ---------------------------------------------------------------------------
# send summaries (see the module docstring): a bare occurrence counts as
# (0, False), and a node shares its child's map when that holds its own

_NO_SENDS: dict[str, tuple[int, bool]] = {}


@functools.cache  # one map per channel name, shared by its bare occurrences
def _bare(name: str) -> dict[str, tuple[int, bool]]:
    return {name: (0, False)}


def _joined(a: dict, b: dict) -> dict:
    """The summaries a and b together; a itself when it holds b's."""
    out = None
    for c, (vc, value) in b.items():
        old = a.get(c)
        if old is not None:
            if old[0] >= vc and (old[1] or not value):
                continue
            vc, value = max(old[0], vc), old[1] or value
        if out is None:
            out = dict(a)
        out[c] = (vc, value)
    return a if out is None else out


def _node_sends(s: Term, kids: list[dict]) -> dict:
    cls = type(s)
    if cls is Chan:
        return _bare(s.name)
    if cls is App and type(s.fun) is Chan:
        # the head's bare entry is below the send's own
        return _joined(kids[1], {s.fun.name: (_vc_safe(s.arg), is_value(s.arg))})
    out = _NO_SENDS
    for k in kids:
        if k and k is not out:
            out = _joined(k, out) if len(k) > len(out) else _joined(out, k)
    if cls is ParBind and s.chan in out:
        out = {c: v for c, v in out.items() if c != s.chan} or _NO_SENDS
    return out


def _sends(t: Term) -> dict[str, tuple[int, bool]]:
    return remembered(t, "sends", _node_sends)


def _sends_on(s: ParBind) -> list[Optional[tuple[int, bool]]]:
    """Each component's summary of what it sends on s's channel, None for
    a component that does not mention it."""
    return [_sends(comp_body(c)).get(s.chan) for c in s.comps]


def session_comm_complexity(bind: ParBind) -> int:
    """The highest value complexity among the messages sent on bind's
    channel, 0 when there are none."""
    return _comm(_sends_on(bind))


def _comm(sends: Sequence[Optional[tuple[int, bool]]]) -> int:
    return max((e[0] for e in sends if e is not None), default=0)


def _rightmost(bind: ParBind, i: int) -> Occurrence:
    """The rightmost occurrence of bind's channel in its i-th component,
    which mentions it: the last free occurrence in preorder in the
    component's body.

    A descent from body: at each node it takes the last child in which the
    channel is free, which its send summary says, and gathers the names
    bound on the way, so it costs O(depth x arity). It stops at a bare
    occurrence, or at an application of the channel whose argument does not
    mention it. body remembers the answer per channel.
    """
    body, name = comp_body(bind.comps[i]), bind.chan
    _sends(body)  # the descent reads the summaries below body
    f = body._facts
    known = f.rightmost
    if known is None:
        known = f.rightmost = {}
    occ = known.get(name)
    if occ is not None:
        return occ
    path: list[int] = []
    above: frozenset[str] = frozenset()
    t = body
    while True:
        cls = type(t)
        if cls is Chan:
            occ = Occurrence(None, t.negated, None, above)
            break
        if (cls is App and type(t.fun) is Chan and t.fun.name == name
                and name not in t.arg._facts.sends):
            occ = Occurrence(tuple(path), t.fun.negated, t.arg, above)
            break
        cs = children(t)
        k = len(cs) - 1
        while name not in cs[k]._facts.sends:
            k -= 1
        vs, chs = binder_names(t, k)
        if vs or chs:
            above = above.union(vs, chs)
        path.append(k)
        t = cs[k]
    known[name] = occ
    return occ


# ---------------------------------------------------------------------------
# discovery, on the facts each node remembers (see the module docstring)

_BIT = {k: 1 << i for i, k in enumerate(RedexKind)}
_ALL_BITS = sum(_BIT.values())


@functools.cache  # one entry per set of kinds asked for
def _bits(kinds: frozenset) -> int:
    return sum(_BIT[k] for k in kinds)


_SESSION_BITS = {
    False: _bits(frozenset({RedexKind.ACTIVATION, RedexKind.GARBAGE_CROSS})),
    True: _bits(CROSSES | {RedexKind.GARBAGE_CROSS, RedexKind.PAR_PAR_PERM}),
}

# the mask's structural bit, above the kind bits: a parallel node or a
# component mark in the subtree
_PARALLEL = 1 << len(RedexKind)
# an active session in the subtree: a cross bit, which only an active
# session's own bits set
_ACTIVE = _bits(CROSSES)


def _node_redex_facts(s: Term, kids: list) -> tuple[int, object]:
    """(mask, own): own is a tuple of (bit, redex) pairs, or for a session
    None until it is scanned, then the pair (all, disciplined) of them."""
    mask = 0
    for m, _ in kids:
        mask |= m
    cls = type(s)
    if cls is ParBind:
        return mask | _PARALLEL | _SESSION_BITS[s.active], None
    if cls is Contract or cls is Underline:
        return mask | _PARALLEL, ()
    if cls not in _PERM_SLOTS:  # the only hosts of the other rules
        return mask, ()
    own = _local_redexes(s)
    if not own:
        return mask, ()
    for r in own:
        mask |= _BIT[r.kind]
    return mask, tuple((_BIT[r.kind], r) for r in own)


def _redex_facts(t: Term) -> tuple[int, object]:
    return remembered(t, "redexes", _node_redex_facts)


def is_simply_typed(t: Term) -> bool:
    """No parallel nodes (and no stray marks) anywhere in t. The answer is
    read off t's redex facts, so t must be elaborated."""
    return not _redex_facts(t)[0] & _PARALLEL


def contains_active_session(t: Term) -> bool:
    return bool(_redex_facts(t)[0] & _ACTIVE)


def uppermost_active_sessions(t: Term) -> list[tuple[Path, ParBind]]:
    """Active sessions with no active session inside, in preorder.

    The walk enters only subtrees that hold an active session; a node that
    holds one while none of its children does is such a session.
    """
    out: list[tuple[Path, ParBind]] = []
    if not _redex_facts(t)[0] & _ACTIVE:
        return out
    todo = [((), t)]
    while todo:
        path, s = todo.pop()
        cs = children(s)
        inner = [i for i in range(len(cs)) if cs[i]._facts.redexes[0] & _ACTIVE]
        if not inner:
            out.append((path, s))
        for i in reversed(inner):
            todo.append((path + (i,), cs[i]))
    return out


def _own(s: Term, discipline: bool) -> tuple:
    """s's own (bit, redex) pairs, at (); a session is scanned once, on
    first demand."""
    f = s._facts
    own = f.redexes[1]
    if type(s) is ParBind:
        if own is None:
            own = _scanned(s)
            f.redexes = (f.redexes[0], own)
        own = own[1] if discipline else own[0]
    return own


def _scanned(s: ParBind) -> tuple[tuple, tuple]:
    """(all, disciplined): the session's own (bit, redex) pairs, and those
    the underline discipline keeps. In a general session with a marked
    component, only a marked sender's basic crosses are kept."""
    sends = _sends_on(s)
    if not s.active:
        return _inactive_scan(tuple(sends))
    every = tuple((_BIT[r.kind], r) for r in _session_redexes(sends, s))
    if s.axiom.mode != "general":
        return every, every
    marked = {i for i, c in enumerate(s.comps) if comp_marked(c)}
    if not marked:
        return every, every
    return every, tuple(
        (bit, r) for bit, r in every
        if r.kind is not RedexKind.BASIC_CROSS or r.sender in marked
    )


def _moved(r: Redex, path: Path) -> Redex:
    if path == r.position:
        return r
    return Redex(r.kind, path, r.complexity, r.which, r.comp, r.sender,
                 r.receiver, r.survivors)


def _offers(s: Term, want: int) -> bool:
    """s may have own redexes of the kinds in want: a session that offers
    none of them is not scanned."""
    return type(s) is not ParBind or bool(_SESSION_BITS[s.active] & want)


def _want(kinds: Optional[frozenset]) -> int:
    return _ALL_BITS if kinds is None else _bits(frozenset(kinds))


def _preorder(t: Term, discipline: bool, want: int) -> Iterator[Redex]:
    """The redexes of the kinds in want, lazily, in preorder; a subtree
    whose mask does not meet want is not entered."""
    if not _redex_facts(t)[0] & want:
        return
    todo = [((), t)]
    while todo:
        path, s = todo.pop()
        if _offers(s, want):
            for bit, r in _own(s, discipline):
                if bit & want:
                    yield _moved(r, path)
        cs = children(s)
        for i in range(len(cs) - 1, -1, -1):
            if cs[i]._facts.redexes[0] & want:
                todo.append((path + (i,), cs[i]))


def find_redexes(
    t: Term, underline_discipline: bool = False, kinds: Optional[frozenset] = None
) -> list[Redex]:
    """Every redex of every rule, leftmost-outermost (preorder) order.

    With underline_discipline=True, general sessions that carry a component
    mark only offer basic crosses whose sender is the marked component. With
    kinds, only redexes of those kinds come out, in the same order:
    find_redexes(t, d, kinds) == [r for r in find_redexes(t, d) if r.kind
    in kinds], and the walk skips every subtree that holds none of them.
    """
    return list(_preorder(t, underline_discipline, _want(kinds)))


_ANY_SESSION_BITS = _SESSION_BITS[False] | _SESSION_BITS[True]


def pick_redex(
    t: Term,
    underline_discipline: bool = False,
    kinds: Optional[frozenset] = None,
    innermost: bool = False,
) -> Optional[Redex]:
    """One redex of the kinds asked for, or None, without building a list.

    By default the leftmost-outermost one, find_redexes(t, d, kinds)[0]: the
    same preorder walk, stopped at the first redex it emits. With
    innermost, the leftmost-innermost one, the first redex at the least
    position among those with no redex of these kinds strictly below them:
    the walk descends from the root into the first child whose kind mask
    meets kinds and takes the first own redex of the node where no child's
    does. Masks are exact for the kinds no session offers, but a session's
    own bits are a superset until it is scanned, so innermost refuses
    session kinds (the strategy asks it for INTUITIONISTIC only).
    """
    want = _want(kinds)
    if not innermost:
        return next(_preorder(t, underline_discipline, want), None)
    if want & _ANY_SESSION_BITS:
        raise ValueError("the innermost descent needs kinds no session offers")
    if not _redex_facts(t)[0] & want:
        return None
    path, s = (), t
    while True:
        cs = children(s)
        i = next((i for i in range(len(cs)) if cs[i]._facts.redexes[0] & want), None)
        if i is None:  # s is no session, so its own redexes are listed
            return next(_moved(r, path) for bit, r in s._facts.redexes[1] if bit & want)
        path, s = path + (i,), cs[i]


def redexes_at(
    s: Term, path: Path, discipline: bool, kinds: Optional[frozenset] = None
) -> list[Redex]:
    """The redexes rooted at s, the subterm at path, in find_redexes order;
    with kinds, only those of these kinds.

    Within a kind the order is a contract, and the side strategy takes the
    first of each kind: a session offers its hoists (ParParPerm) by
    component, and its basic crosses by sender and then receiver, before
    its full cross."""
    _redex_facts(s)
    want = _want(kinds)
    if not _offers(s, want):
        return []
    return [_moved(r, path) for bit, r in _own(s, discipline) if bit & want]


# the groups in the order redex_peaks gives their peaks
PEAK_GROUPS = (GROUP1, GROUP2, GROUP_OTHER)
_PEAK_SLOT = {k: PEAK_GROUPS.index(g) for k, g in _GROUPS.items()}
_CASE_PERM_SLOT = len(PEAK_GROUPS)
_NO_PEAKS = (-1,) * (_CASE_PERM_SLOT + 1)


def redex_peaks(t: Term, discipline: bool = False) -> tuple[int, int, int, int]:
    """The highest complexity among t's redexes of each group in
    PEAK_GROUPS, then among its CasePerm redexes; -1 where there is none.

    The same maxima as over find_redexes(t, discipline), from a subtree
    fact each node remembers per discipline (terms.remembered), which
    enters only the children whose kind mask is not 0. A session
    contributes its scanned own redexes.
    """
    if not _redex_facts(t)[0] & _ALL_BITS:
        return _NO_PEAKS
    return remembered(
        t,
        "disciplined_peaks" if discipline else "peaks",
        lambda s, kids: _node_peaks(s, kids, discipline),
        _with_redexes,
    )


def _with_redexes(s: Term) -> list[Term]:
    return [c for c in children(s) if c._facts.redexes[0] & _ALL_BITS]


def _node_peaks(s: Term, kids: list[tuple], discipline: bool) -> tuple:
    own = _own(s, discipline)
    if not own and len(kids) == 1:
        return kids[0]
    top = list(_NO_PEAKS)
    for _, r in own:
        k = _PEAK_SLOT[r.kind]
        top[k] = max(top[k], r.complexity)
        if r.kind is RedexKind.CASE_PERM:
            top[_CASE_PERM_SLOT] = max(top[_CASE_PERM_SLOT], r.complexity)
    for peaks in kids:
        top = list(map(max, top, peaks))
    return tuple(top)


def _local_redexes(s: Term) -> list[Redex]:
    """The redexes rooted at s, at position (), unless s is a session."""
    out = []
    # intuitionistic redexes
    if isinstance(s, App) and isinstance(s.fun, Lam):
        out.append(Redex(RedexKind.BETA, (), type_of(s.fun).complexity))
    if isinstance(s, Proj) and isinstance(s.arg, Pair):
        out.append(Redex(RedexKind.PROJ_PAIR, (), _vc_safe(s.arg)))
    if isinstance(s, Case) and isinstance(s.scrut, Inj):
        out.append(Redex(RedexKind.CASE_INJ, (), s.scrut.disj.complexity))

    # one-frame permutation over a case term
    hole = HOLES.get(type(s))
    if hole is not None and isinstance(getattr(s, hole), Case):
        out.append(Redex(RedexKind.CASE_PERM, (), _vc_safe(getattr(s, hole))))

    # parallel permutations: a frame or constructor over a parallel node
    slot = _perm_slot(s)
    if slot is not None:
        out.append(Redex(RedexKind.PAR_PERM, (), 0, which=slot[1]))
    return out


# constructor -> ((child index, ParPerm label), ...), first match wins; an
# eliminator's first slot is its hole, child 0
_PERM_SLOTS = {
    App: ((0, "stack"), (1, "app-left")),
    Proj: ((0, "stack"),),
    Efq: ((0, "stack"),),
    Case: ((0, "stack"),),
    Lam: ((0, "lam"),),
    Inj: ((0, "inj"),),
    Pair: ((0, "pair-left"), (1, "pair-right")),
}


def _perm_slot(s: Term) -> Optional[tuple[int, str]]:
    """(child index, label) of the slot a parallel node permutes out of, if
    any."""
    cs = children(s)
    for slot in _PERM_SLOTS.get(type(s), ()):
        if isinstance(cs[slot[0]], PARALLEL_NODES):
            return slot
    return None


@functools.cache  # inactive sessions with the same entries share one scan
def _inactive_scan(sends: tuple) -> tuple[tuple, tuple]:
    """(all, disciplined), equal: the discipline filters basic crosses."""
    every = tuple((_BIT[r.kind], r) for r in _session_redexes(sends))
    return every, every


def _session_redexes(
    sends: Sequence[Optional[tuple[int, bool]]], s: Optional[ParBind] = None
) -> Iterator[Redex]:
    """The redexes rooted at a session, at position (), whose components
    have these entries (_sends_on): the active session s, or an inactive
    one, whose redexes depend on its entries alone."""
    comm = _comm(sends)

    # activation: inactive binder, some applied occurrence of a value
    if s is None:
        if any(e is not None and e[1] for e in sends):
            yield Redex(RedexKind.ACTIVATION, (), comm)
    else:
        bodies = [comp_body(c) for c in s.comps]
        yield from _cross_redexes(s, bodies, sends, comm)

    # garbage: keep the components that do not mention the channel (any
    # activity)
    survivors = tuple(i for i, e in enumerate(sends) if e is None)
    if survivors:
        yield Redex(RedexKind.GARBAGE_CROSS, (), comm, survivors=survivors)

    # hoisting a nested parallel component out of an active session
    if s is not None and not any(contains_active_session(b) for b in bodies):
        for k, b in enumerate(bodies):
            if is_parallel_node(b):
                yield Redex(RedexKind.PAR_PAR_PERM, (), 0, comp=k)


def _cross_redexes(
    s: ParBind,
    bodies: list[Term],
    sends: list[Optional[tuple[int, bool]]],
    comm: int,
) -> Iterator[Redex]:
    ax = s.axiom
    simple = [is_simply_typed(b) for b in bodies]

    # EM is the broadcast with one receiver, plus the full cross
    if ax.mode in ("em", "broadcast"):
        if not all(simple) or sends[0] is None:
            return
        last = _rightmost(s, 0)
        msg = last.arg
        if not last.negated or msg is None or _captured_chans(last, msg):
            return
        em = ax.mode == "em"
        if _closed_at(last, msg):
            if em:
                yield Redex(RedexKind.BASIC_CROSS, (), comm, sender=0, receiver=1)
            else:
                yield Redex(RedexKind.BROADCAST_CROSS, (), comm)
        elif em:
            yield Redex(RedexKind.FULL_CROSS, (), comm)
        return

    # general mode: the rightmost occurrence in each simply typed component
    # that mentions the channel
    last = [
        _rightmost(s, i) if simple[i] and sends[i] is not None else None
        for i in range(len(bodies))
    ]
    for i, sender_occ in enumerate(last):
        if sender_occ is None:
            continue
        msg = sender_occ.arg
        if msg is None or not _closed_at(sender_occ, msg):
            continue
        fi, _ = ax.components[i]
        for j, recv_occ in enumerate(last):
            if j == i or recv_occ is None or recv_occ.arg is None:
                continue
            _, gj = ax.components[j]
            if fi == gj:
                yield Redex(RedexKind.BASIC_CROSS, (), comm, sender=i, receiver=j)

    if all(simple) and all(
        o is not None and o.arg is not None and not _captured_chans(o, o.arg)
        for o in last
    ):
        yield Redex(RedexKind.FULL_CROSS, (), comm)


# ---------------------------------------------------------------------------
# multiple substitution

def multiple_subst(u: Term, ys: list[Var], v: Term) -> Term:
    """Replace each y_i by the i-th projection of v (right-nested tuples).

    A single variable takes v itself; an empty list leaves u unchanged.
    The type of v must be the right-nested conjunction of the ys' types.
    """
    n = len(ys)
    if n == 0:
        return u
    want = conj([y.ty for y in ys])
    got = type_of(v)
    if got is not want:
        raise ValueError(f"multiple_subst: v has type {got}, the ys want {want}")

    def sel(i: int) -> Term:
        cur = v
        for _ in range(i):
            cur = Proj(cur, 1)
        if i < n - 1:
            cur = Proj(cur, 0)
        return cur

    for i, y in enumerate(ys):
        u = subst(u, y.name, sel(i))
    return u


# ---------------------------------------------------------------------------
# stepping

def step(t: Term, r: Redex) -> Term:
    """Contract the redex r inside t: t with contractum(t, r) at
    r.position, every node off that path shared. InvalidRedex when r does
    not apply (see contractum)."""
    return replace_at(t, r.position, contractum(t, r))


def contractum(t: Term, r: Redex) -> Term:
    """The term the redex r inside t contracts to, which step puts at
    r.position; t itself is not rebuilt.

    r applies exactly when the subterm at r.position offers it with no
    underline discipline: a redex of the same kind, complexity, which, comp,
    sender, receiver and survivors. Otherwise, or when the position
    addresses no subterm, contractum raises InvalidRedex.
    """
    s = _offering(t, r)
    if s is None:
        raise InvalidRedex(r.rule)
    return _contract(s, r, t)


def _offering(t: Term, r: Redex) -> Optional[Term]:
    """The subterm at r.position when it offers r, else None; the facts
    discovery left on it are read, not recomputed."""
    try:
        s = subterm_at(t, r.position)
    except IndexError:
        return None
    _redex_facts(s)
    here = _moved(r, ())
    return s if any(q == here for _, q in _own(s, False)) else None


def _contract(s: Term, r: Redex, host: Term) -> Term:
    """The contractum of r at s, which offers it (see contractum)."""
    k = r.kind
    if k == RedexKind.BETA:
        return subst(s.fun.body, s.fun.var, s.arg)
    if k == RedexKind.PROJ_PAIR:
        return s.arg.left if s.index == 0 else s.arg.right
    if k == RedexKind.CASE_INJ:
        inj = s.scrut
        if inj.index == 0:
            return subst(s.lbody, s.lvar, inj.arg)
        return subst(s.rbody, s.rvar, inj.arg)
    if k == RedexKind.CASE_PERM:
        return _case_perm(s, host)
    if k == RedexKind.PAR_PERM:
        return _par_perm(s, host)
    if k == RedexKind.PAR_PAR_PERM:
        return _par_par_perm(s, r.comp, host)
    if k == RedexKind.ACTIVATION:
        return rebind(replace(s, active=True), 0, fresh_name(s.chan, all_names(host)))
    if k == RedexKind.GARBAGE_CROSS:
        return contract_join([comp_body(s.comps[i]) for i in r.survivors])
    em = s.axiom.mode == "em"
    if k == RedexKind.BROADCAST_CROSS or (em and k == RedexKind.BASIC_CROSS):
        return _broadcast_cross(s)
    if k == RedexKind.BASIC_CROSS:
        return _general_basic_cross(s, r.sender, r.receiver)
    if em:
        return _em_full_cross(s, host)
    return _general_full_cross(s, host)


def _case_perm(s: Term, host: Term) -> Term:
    # the frame moves under the branch binders, which beta may have
    # duplicated; its hole is its child 0
    case = _freshen(getattr(s, HOLES[type(s)]), with_child(s, 0, TT), host)
    return with_children(
        case, (case.scrut, with_child(s, 0, case.lbody), with_child(s, 0, case.rbody))
    )


def _freshen(t: Term, other: Term, host: Term) -> Term:
    """Rename each binder of t that other, which moves under it, mentions
    free: the side condition of the permutations ("a not in w" for the
    parallel ones). The names of other and of host are collected only when
    first needed, host's once: renaming adds no name the next binder could
    clash with, as each new name is fresh for host, which holds other."""
    fv = fc = used = None
    for i in range(len(children(t))):
        vs, chs = binder_names(t, i)
        if not (vs or chs):
            continue
        if fv is None:
            fv, fc = free_names(other)
        if not (fv.isdisjoint(vs) and fc.isdisjoint(chs)):
            if used is None:
                used = all_names(host)
            t = rebind(t, i, fresh_name((vs + chs)[0], used))
    return t


def _par_perm(s: Term, host: Term) -> Term:
    i = _perm_slot(s)[0]
    # everything else in s moves under the parallel node's binder, and into
    # each component below its mark
    par = _freshen(children(s)[i], with_child(s, i, TT), host)
    return with_children(par, tuple(
        replace_at(c, (0,) if comp_marked(c) else (), with_child(s, i, comp_body(c)))
        for c in children(par)
    ))


def _par_par_perm(s: ParBind, k: int, host: Term) -> Term:
    # the host's other components move under the inner binder; each inner
    # component takes the hoisted one's slot, without its mark if the host
    # already has one
    others = [c for i, c in enumerate(s.comps) if i != k]
    inner = _freshen(comp_body(s.comps[k]), contract_join(others), host)
    others_marked = any(comp_marked(c) for c in others)
    return with_children(inner, tuple(
        with_child(s, k, comp_body(w) if others_marked else w) for w in children(inner)
    ))


def _put(s: ParBind, i: int, new: Term) -> ParBind:
    """s with new at the application of the rightmost occurrence in its i-th
    component, below the component's mark."""
    mark = (0,) if comp_marked(s.comps[i]) else ()
    return replace_at(s, (i,) + mark + _rightmost(s, i).app_path, new)


def _broadcast_cross(s: ParBind) -> Term:
    """Every receiver gets the closed message; EM's basic cross is the case
    of one receiver."""
    msg = _rightmost(s, 0).arg
    receivers = [subst_chan_bare(comp_body(c), s.chan, msg) for c in s.comps[1:]]
    return contract_join(receivers)


def _em_full_cross(s: ParBind, host: Term) -> Term:
    occ = _rightmost(s, 0)
    ys = [Var(n, ty) for n, ty in _captured_vars(occ, occ.arg)]
    b = fresh_name("b", all_names(host))
    b_ty = conj([y.ty for y in ys])
    # sender keeps running, now telling b what it used to tell a
    send = App(Chan(b, Impl(b_ty, BOT), False, True), build_tuple(tuple(ys)))
    inner = _put(s, 0, send)
    # the receiver copy gets the message with its captured variables read
    # off the fresh channel
    msg = multiple_subst(occ.arg, ys, Chan(b, b_ty, False, False))
    copy = subst_chan_bare(comp_body(s.comps[1]), s.chan, msg)
    return ParBind(b, False, em_axiom(b_ty), (inner, copy))


def _general_basic_cross(s: ParBind, i: int, j: int) -> Term:
    msg = _rightmost(s, i).arg
    if any(comp_marked(c) for c in s.comps):
        # the mark rides along with the message to the receiver
        bodies = [comp_body(c) for c in s.comps]
        bodies[j] = Underline(bodies[j])
        s = with_children(s, tuple(bodies))
    return _put(s, j, msg)


def _general_full_cross(s: ParBind, host: Term) -> Term:
    # component i's copy tells b its captured variables; unless its
    # consequent is Bot (no target in jmap), the target's message reads them
    ax = s.axiom
    occs = [_rightmost(s, i) for i in range(len(s.comps))]
    ys = [[Var(n, ty) for n, ty in _captured_vars(o, o.arg)] for o in occs]
    b_tys = [conj([y.ty for y in v]) for v in ys]
    pairs = [(b_tys[i], BOT if j is None else b_tys[j]) for i, j in enumerate(ax.jmap)]
    derived = general_axiom(tuple(pairs), derived=True)
    b = fresh_name("b", all_names(host))

    def copy_for(i: int, j: Optional[int]) -> Term:
        b_i = Chan(b, derived.occurrence_type(i), False, False)
        payload = App(b_i, build_tuple(tuple(ys[i])))
        if j is not None:
            payload = multiple_subst(occs[j].arg, ys[j], payload)
        return _put(s, i, payload)

    return ParBind(b, False, derived, tuple(map(copy_for, range(len(ys)), ax.jmap)))


# ---------------------------------------------------------------------------
# height

def _parallel_height(t: Term) -> Optional[int]:
    """t's height when it is in parallel form, None when it is not: parallel
    nodes only at the top, simply typed components at the leaves. The
    height is the most parallel nodes on a path from the root to a leaf."""
    best, todo = 0, [(t, 0)]
    while todo:  # leftmost first, as is_simply_typed fills its facts
        s, depth = todo.pop()
        body = comp_body(s)
        if is_parallel_node(body):
            todo += ((c, depth + 1) for c in reversed(children(body)))
        elif is_simply_typed(body):
            best = max(best, depth)
        else:
            return None
    return best


def is_parallel_form(t: Term) -> bool:
    """Parallel nodes only at the top, simply typed components at the leaves."""
    return _parallel_height(t) is not None


def height(t: Term) -> int:
    h = _parallel_height(t)
    if h is None:
        raise NotParallelForm(str(t))
    return h
