"""Independent reference implementations used to cross-check the engine.

The oracles deliberately avoid the library's traversal helpers
(decompose_stack, the remembered walks) and re-derive every side condition
from the raw constructors, so a bug in a shared helper cannot cancel out on
both sides of a comparison. iter_subterms, the walk with paths that only
tests use, apply_stack, which puts a stack over a term, and random_stack,
which draws one, live here too. chan_occurrences, the walk the engine used to find
channel occurrences, communication_measure_oracle, the measure's
whole-term walks, replay_oracle, the trace replay that rebuilds each
state, decrease_oracle, the decrease clauses over every redex of both
states, side_move_oracle, the side strategy's choice by least fields,
show_formula_oracle, the recursive printer, and check_oracle and
type_of_oracle, the recursive typer and type synthesis, are kept here to
check what replaced them. The oracles that type a term
(subject_reduction_oracle, value_complexity_oracle) use these two, so they
stay independent of the engine's one typer and its judgements.
"""

from __future__ import annotations

from dataclasses import fields, make_dataclass, replace
from functools import cache
from operator import is_
from typing import Optional

from lax import (
    BOT,
    TOP,
    App,
    Atom,
    AxiomScheme,
    Bot,
    Case,
    Chan,
    Conj,
    Contract,
    Disj,
    Efq,
    Formula,
    GenConfig,
    Impl,
    Inj,
    InvalidRedex,
    Lam,
    LaxSyntaxError,
    Pair,
    ParBind,
    Proj,
    Redex,
    RedexKind,
    SubjectReductionReport,
    Term,
    Top,
    TypeIssue,
    TypingContext,
    TypingError,
    Underline,
    Unit,
    Var,
    find_redexes,
    generate,
    redexes_at,
    show_formula,
    step,
)
from lax.rewrite import CROSSES, Occurrence
from lax.terms import TT, binder_names, children, with_child

Path = tuple[int, ...]


def apply_stack(t: Term, s: tuple[Term, ...]) -> Term:
    """t with each eliminator of s, innermost first, put over it."""
    for f in s:
        t = with_child(f, 0, t)
    return t


def random_stack(rng, ty: Formula) -> tuple[tuple[Term, ...], Formula]:
    """A type-directed, case-free, possibly empty stack over a term of
    type ty, together with the result type; each eliminator's hole is tt,
    and each argument is generated in the generator's default context."""
    frames = []
    atoms = [Atom("A"), Atom("B"), Atom("C"), TOP]
    while True:
        if frames and rng.random() < 0.4:
            break
        if isinstance(ty, Impl):
            _, arg = generate(rng, GenConfig(preset=None, max_size=8, goal=ty.left))
            frames.append(App(TT, arg))
            ty = ty.right
        elif isinstance(ty, Conj):
            i = rng.randrange(2)
            frames.append(Proj(TT, i))
            ty = ty.left if i == 0 else ty.right
        elif isinstance(ty, Bot):
            target = rng.choice(atoms)
            frames.append(Efq(TT, target))
            ty = target
        else:
            break
    return tuple(frames), ty


def iter_subterms(t: Term, path: Path = ()):
    """Preorder (leftmost-outermost) walk yielding (path, subterm), on an
    explicit stack, so deep terms do not exhaust the call stack."""
    todo = [(path, t)]
    while todo:
        path, s = todo.pop()
        yield path, s
        cs = children(s)
        for i in range(len(cs) - 1, -1, -1):
            todo.append((path + (i,), cs[i]))


# ---------------------------------------------------------------------------
# value complexity, by outside-in recursion
#
# The engine decomposes the whole spine at once and indexes into the frame
# list; here we peel frames from the outside one at a time and stop at the
# first case node, rebuilding the suffix around each branch by hand.

def _formula_weight(f) -> int:
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    return 1 + _formula_weight(f.left) + _formula_weight(f.right)


def value_complexity_oracle(t: Term) -> int:
    if isinstance(t, (ParBind, Contract, Underline)):
        raise ValueError("oracle only covers simply typed terms")
    if isinstance(t, (Lam, Inj)):
        return _formula_weight(type_of_oracle(t))
    if isinstance(t, Pair):
        return max(value_complexity_oracle(t.left), value_complexity_oracle(t.right))
    return _peel(t, [])


def _peel(t: Term, outer: list) -> int:
    """outer holds the case-free frames seen so far, outermost first."""
    if isinstance(t, Case):
        return max(
            value_complexity_oracle(_rebuild(t.lbody, outer)),
            value_complexity_oracle(_rebuild(t.rbody, outer)),
        )
    if isinstance(t, App):
        return _peel(t.fun, outer + [("app", t.arg)])
    if isinstance(t, Proj):
        return _peel(t.arg, outer + [("proj", t.index)])
    if isinstance(t, Efq):
        return _peel(t.arg, outer + [("efq", t.target)])
    return 0


def _rebuild(t: Term, outer: list) -> Term:
    for kind, payload in reversed(outer):
        if kind == "app":
            t = App(t, payload)
        elif kind == "proj":
            t = Proj(t, payload)
        else:
            t = Efq(t, payload)
    return t


# ---------------------------------------------------------------------------
# free names, with shadowing, built from scratch

def _free_names(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """(free variables, free channels) of t."""
    fv: set[str] = set()
    fc: set[str] = set()

    def go(s: Term, bound_v: frozenset[str], bound_c: frozenset[str]):
        if isinstance(s, Var):
            if s.name not in bound_v:
                fv.add(s.name)
        elif isinstance(s, Chan):
            if s.name not in bound_c:
                fc.add(s.name)
        elif isinstance(s, Lam):
            go(s.body, bound_v | {s.var}, bound_c)
        elif isinstance(s, App):
            go(s.fun, bound_v, bound_c)
            go(s.arg, bound_v, bound_c)
        elif isinstance(s, Pair):
            go(s.left, bound_v, bound_c)
            go(s.right, bound_v, bound_c)
        elif isinstance(s, (Proj, Efq, Inj)):
            go(s.arg, bound_v, bound_c)
        elif isinstance(s, Case):
            go(s.scrut, bound_v, bound_c)
            go(s.lbody, bound_v | {s.lvar}, bound_c)
            go(s.rbody, bound_v | {s.rvar}, bound_c)
        elif isinstance(s, ParBind):
            for c in s.comps:
                go(c, bound_v, bound_c | {s.chan})
        elif isinstance(s, (Contract, Underline)):
            for c in (s.left, s.right) if isinstance(s, Contract) else (s.body,):
                go(c, bound_v, bound_c)
        elif isinstance(s, Unit):
            pass
        else:
            raise TypeError(f"unknown node: {s!r}")

    go(t, frozenset(), frozenset())
    return frozenset(fv), frozenset(fc)


def _mentions_parallel(t: Term) -> bool:
    if isinstance(t, (ParBind, Contract, Underline)):
        return True
    return any(_mentions_parallel(c) for c in _kids(t))


def _mentions_active_session(t: Term) -> bool:
    if isinstance(t, ParBind) and t.active:
        return True
    return any(_mentions_active_session(c) for c in _kids(t))


def _kids(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Var, Chan, Unit)):
        return ()
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, App):
        return (t.fun, t.arg)
    if isinstance(t, Pair):
        return (t.left, t.right)
    if isinstance(t, (Proj, Inj, Efq)):
        return (t.arg,)
    if isinstance(t, Case):
        return (t.scrut, t.lbody, t.rbody)
    if isinstance(t, ParBind):
        return tuple(t.comps)
    if isinstance(t, Contract):
        return (t.left, t.right)
    if isinstance(t, Underline):
        return (t.body,)
    raise TypeError(f"unknown node: {t!r}")


def _is_value(t: Term) -> bool:
    parts = []
    while isinstance(t, Pair):
        parts.append(t.left)
        t = t.right
    parts.append(t)
    for p in parts:
        if isinstance(p, (Lam, Inj, Efq, Case)):
            return True
        h = p
        while isinstance(h, (App, Proj, Case, Efq)):
            h = h.fun if isinstance(h, App) else (h.scrut if isinstance(h, Case) else h.arg)
        if isinstance(h, Chan) and h.active:
            return True
    return False


def uppermost_active_oracle(t: Term) -> list[tuple[Path, Term]]:
    """Active sessions with no active session inside, in preorder."""
    out: list[tuple[Path, Term]] = []

    def visit(s: Term, path: Path):
        if (
            isinstance(s, ParBind)
            and s.active
            and not any(_mentions_active_session(c) for c in s.comps)
        ):
            out.append((path, s))
        for i, c in enumerate(_kids(s)):
            visit(c, path + (i,))

    visit(t, ())
    return out


# ---------------------------------------------------------------------------
# the side strategy's move, by least fields
#
# The strategy takes the first move of each kind in discovery's order; here
# the hoist of least component and the basic cross of least (sender,
# receiver) are looked for, so nothing rests on discovery's order within a
# kind.

def side_move_oracle(t: Term, discipline: bool) -> Optional[Redex]:
    """The move of the first uppermost active session that offers one,
    shallowest first and leftmost among equals: its hoist of the least
    component, else its basic cross of least (sender, receiver), else its
    first cross, else its garbage cross."""
    upper = uppermost_active_oracle(t)
    for path, session in sorted(upper, key=lambda ps: (len(ps[0]), ps[0])):
        here = redexes_at(session, path, discipline)
        hoists = [r for r in here if r.kind == RedexKind.PAR_PAR_PERM]
        if hoists:
            return min(hoists, key=lambda r: r.comp)
        basics = [r for r in here if r.kind == RedexKind.BASIC_CROSS]
        if basics:
            return min(basics, key=lambda r: (r.sender, r.receiver))
        crosses = [r for r in here if r.kind in CROSSES]
        if crosses:
            return crosses[0]
        garbage = [r for r in here if r.kind == RedexKind.GARBAGE_CROSS]
        if garbage:
            return garbage[0]
    return None


# ---------------------------------------------------------------------------
# the communication measure, by whole-term walks
#
# The library tallies each node once, into a table the states of a trace
# share; here every state is walked whole: once to count the active
# sessions that are not uppermost, and twice more inside each uppermost
# session, for its parallel nodes and its channel's occurrences.

def _comp_body(c: Term) -> Term:
    return c.body if isinstance(c, Underline) else c


def _parallel_inside(s: ParBind) -> int:
    """Parallel nodes properly contained in a session's components."""
    n, todo = 0, [_comp_body(c) for c in s.comps]
    while todo:
        t = todo.pop()
        if isinstance(t, (ParBind, Contract)):
            n += 1
        todo.extend(_kids(t))
    return n


def _chan_occurrence_count(s: ParBind) -> int:
    """Occurrences of the session's channel, not counting those under a
    session that binds the name again."""
    a = s.chan
    n, todo = 0, [_comp_body(c) for c in s.comps]
    while todo:
        t = todo.pop()
        if isinstance(t, ParBind) and t.chan == a:
            continue
        if isinstance(t, Chan) and t.name == a:
            n += 1
        todo.extend(_kids(t))
    return n


def communication_measure_oracle(t: Term) -> tuple[int, dict[int, int], dict[int, int]]:
    """(active sessions that are not uppermost, buried parallel nodes per
    uppermost session, channel occurrences per uppermost session)."""
    upper = uppermost_active_oracle(t)
    upper_paths = {p for p, _ in upper}
    n, todo = 0, [((), t)]
    while todo:
        path, s = todo.pop()
        if isinstance(s, ParBind) and s.active and path not in upper_paths:
            n += 1
        todo.extend((path + (i,), c) for i, c in enumerate(_kids(s)))
    h: dict[int, int] = {}
    g: dict[int, int] = {}
    for _, s in upper:
        buried = _parallel_inside(s)
        if buried >= 1:
            h[buried] = h.get(buried, 0) + 1
        occ = _chan_occurrence_count(s)
        g[occ] = g.get(occ, 0) + 1
    return n, h, g


# ---------------------------------------------------------------------------
# discovery without remembered subtree facts
#
# The library walks only the subtrees whose remembered kind mask meets the
# kinds asked for; here every node is visited, in preorder, and asked for
# the redexes rooted at it.

# the fields _kids reads, in its order; a session's components are one field
_KID_FIELDS = {
    Lam: ("body",),
    App: ("fun", "arg"),
    Pair: ("left", "right"),
    Proj: ("arg",),
    Inj: ("arg",),
    Efq: ("arg",),
    Case: ("scrut", "lbody", "rbody"),
    Contract: ("left", "right"),
    Underline: ("body",),
}


def with_kids_oracle(t: Term, kids) -> Term:
    """A new node like t with the children kids (_kids' order), built
    through dataclasses.replace rather than the library's builders."""
    if isinstance(t, ParBind):
        return replace(t, comps=tuple(kids))
    return replace(t, **dict(zip(_KID_FIELDS.get(type(t), ()), kids)))


def replace_at_oracle(t: Term, path: Path, new: Term) -> Term:
    """t with the subterm at path replaced by new, by recursion on path."""
    if not path:
        return new
    kids = list(_kids(t))
    kids[path[0]] = replace_at_oracle(kids[path[0]], path[1:], new)
    return with_kids_oracle(t, kids)


def fresh_copy(t: Term) -> Term:
    """A structurally equal term of new nodes, none remembering anything."""
    return with_kids_oracle(t, [fresh_copy(c) for c in _kids(t)])


def find_redexes_oracle(t: Term, underline_discipline: bool = False, kinds=None) -> list:
    """redexes_at concatenated over every node, in preorder."""
    out: list = []
    todo: list[tuple[Path, Term]] = [((), t)]
    while todo:
        path, s = todo.pop()
        out.extend(redexes_at(s, path, underline_discipline, kinds))
        kids = _kids(s)
        for i in range(len(kids) - 1, -1, -1):
            todo.append((path + (i,), kids[i]))
    return out


# ---------------------------------------------------------------------------
# leftmost-innermost selection, by pairwise comparison
#
# The strategy scans its preorder list once; here every redex is compared
# with every other, so nothing rests on the list being in preorder.

def leftmost_innermost_oracle(rs: list):
    """The redex with the least position among those with no redex strictly
    below them; of several at that position, the first in rs."""

    def below(p: Path, q: Path) -> bool:
        return len(p) < len(q) and q[: len(p)] == p

    innermost = [
        r
        for r in rs
        if not any(q is not r and below(r.position, q.position) for q in rs)
    ]
    return min(innermost, key=lambda r: r.position)


# ---------------------------------------------------------------------------
# subterm types, by a top-down derivation walk
#
# The library reads each type off the elaborated annotations bottom-up;
# here types flow down through environments the way the typing rules do.

def _preorder(t: Term) -> list[Term]:
    out = [t]
    for c in _kids(t):
        out.extend(_preorder(c))
    return out


def subterm_types_by_derivation(t: Term) -> dict[Path, Formula]:
    """Type of every subterm except channel occurrences."""
    out: dict[Path, Formula] = {}

    def walk(s: Term, path: Path, env: dict[str, Formula], chans: dict) -> Formula:
        ty: Formula
        if isinstance(s, Var):
            ty = env[s.name]
        elif isinstance(s, Chan):
            ax, i = chans[s.name]
            if s.negated:
                return Impl(ax.carrier, BOT)
            if ax.bare_allowed(i):
                return ax.carrier
            return ax.occurrence_type(i)  # never recorded: kinds, not types
        elif isinstance(s, Lam):
            body = walk(s.body, path + (0,), {**env, s.var: s.ann}, chans)
            ty = Impl(s.ann, body)
        elif isinstance(s, App):
            fun = walk(s.fun, path + (0,), env, chans)
            walk(s.arg, path + (1,), env, chans)
            assert isinstance(fun, Impl)
            ty = fun.right
        elif isinstance(s, Pair):
            ty = Conj(
                walk(s.left, path + (0,), env, chans),
                walk(s.right, path + (1,), env, chans),
            )
        elif isinstance(s, Proj):
            arg = walk(s.arg, path + (0,), env, chans)
            assert isinstance(arg, Conj)
            ty = arg.left if s.index == 0 else arg.right
        elif isinstance(s, Inj):
            walk(s.arg, path + (0,), env, chans)
            ty = s.disj
        elif isinstance(s, Case):
            scrut = walk(s.scrut, path + (0,), env, chans)
            assert isinstance(scrut, Disj)
            lt = walk(s.lbody, path + (1,), {**env, s.lvar: scrut.left}, chans)
            walk(s.rbody, path + (2,), {**env, s.rvar: scrut.right}, chans)
            ty = lt
        elif isinstance(s, Efq):
            walk(s.arg, path + (0,), env, chans)
            ty = s.target
        elif isinstance(s, Unit):
            ty = TOP
        elif isinstance(s, ParBind):
            tys = []
            for i, c in enumerate(s.comps):
                sub = {**chans, s.chan: (s.axiom, i)}
                tys.append(walk(c, path + (i,), env, sub))
            ty = tys[0]
        elif isinstance(s, Contract):
            ty = walk(s.left, path + (0,), env, chans)
            walk(s.right, path + (1,), env, chans)
        elif isinstance(s, Underline):
            ty = walk(s.body, path + (0,), env, chans)
        else:
            raise AssertionError(f"unhandled node {s!r}")
        out[path] = ty
        return ty

    env: dict[str, Formula] = {}
    chans: dict = {}
    for s in _preorder(t):
        if isinstance(s, Var) and s.ty is not None:
            env.setdefault(s.name, s.ty)
        elif isinstance(s, Chan) and s.ty is not None and s.name not in chans:
            # free channels in a typing context are bare carriers
            chans[s.name] = (_FreeKind(s.ty), 0)
    walk(t, (), env, chans)
    return out


class _FreeKind:
    """Duck-typed stand-in for a scheme when a channel is context-free."""

    def __init__(self, carrier: Formula):
        self.carrier = carrier
        self.mode = "em"

    def bare_allowed(self, i: int) -> bool:
        return True


# ---------------------------------------------------------------------------
# channel occurrences inside one component

def _occurrences(body: Term, name: str) -> list[dict]:
    """Preorder list of free occurrences of the session channel.

    Each entry: negated flag, the applied argument when the occurrence is
    the head of an application (else None), and the names bound between the
    component root and the occurrence.
    """
    out: list[dict] = []

    def go(s: Term, above: frozenset[str]):
        if isinstance(s, ParBind) and s.chan == name:
            return
        if isinstance(s, App) and isinstance(s.fun, Chan) and s.fun.name == name:
            out.append({"negated": s.fun.negated, "arg": s.arg, "above": above})
            go(s.arg, above)
            return
        if isinstance(s, Chan) and s.name == name:
            out.append({"negated": s.negated, "arg": None, "above": above})
            return
        extra: dict[int, frozenset[str]] = {}
        if isinstance(s, Lam):
            extra[0] = frozenset({s.var})
        elif isinstance(s, Case):
            extra[1] = frozenset({s.lvar})
            extra[2] = frozenset({s.rvar})
        elif isinstance(s, ParBind):
            for i in range(len(s.comps)):
                extra[i] = frozenset({s.chan})
        for i, c in enumerate(_kids(s)):
            go(c, above | extra.get(i, frozenset()))

    go(body, frozenset())
    return out


def chan_occurrences(comp: Term, name: str) -> list[Occurrence]:
    """Free occurrences of `name` in preorder; the last one is rightmost."""
    out: list[Occurrence] = []
    todo: list[tuple[Term, Path, frozenset[str]]] = [(comp, (), frozenset())]
    while todo:
        t, path, above = todo.pop()
        if isinstance(t, App) and isinstance(t.fun, Chan) and t.fun.name == name:
            out.append(Occurrence(path, t.fun.negated, t.arg, above))
            todo.append((t.arg, path + (1,), above))
            continue
        if isinstance(t, Chan):
            if t.name == name:
                out.append(Occurrence(None, t.negated, None, above))
            continue
        cs = children(t)
        for i in range(len(cs) - 1, -1, -1):
            vs, chs = binder_names(t, i)
            if name in chs:  # a nu rebinding name shadows it
                continue
            todo.append((cs[i], path + (i,), above.union(vs, chs)))
    return out


def _captured(occ: dict) -> tuple[frozenset[str], frozenset[str]]:
    """Names free in the message but bound above the hole: (vars, chans)."""
    fv, fc = _free_names(occ["arg"])
    return fv & occ["above"], fc & occ["above"]


# ---------------------------------------------------------------------------
# the matcher itself

_PAR = (ParBind, Contract)


def brute_force_redexes(t: Term, underline_discipline: bool = False) -> set[tuple[str, Path]]:
    """Every (rule label, position) pair, re-derived from first principles."""
    found: set[tuple[str, Path]] = set()

    def visit(s: Term, path: Path):
        for rule in _match(s, underline_discipline):
            found.add((rule, path))
        for i, c in enumerate(_kids(s)):
            visit(c, path + (i,))

    visit(t, ())
    return found


def _match(s: Term, disc: bool) -> list[str]:
    rules: list[str] = []
    if isinstance(s, App) and isinstance(s.fun, Lam):
        rules.append("Beta")
    if isinstance(s, Proj) and isinstance(s.arg, Pair):
        rules.append("ProjPair")
    if isinstance(s, Case) and isinstance(s.scrut, Inj):
        rules.append("CaseInj")

    first = {
        App: lambda n: n.fun,
        Proj: lambda n: n.arg,
        Efq: lambda n: n.arg,
        Case: lambda n: n.scrut,
    }.get(type(s))
    if first is not None and isinstance(first(s), Case):
        rules.append("CasePerm")

    rules.extend(_par_perm(s))
    if isinstance(s, ParBind):
        rules.extend(_session(s, disc))
    return rules


def _par_perm(s: Term) -> list[str]:
    if isinstance(s, App):
        if isinstance(s.fun, _PAR):
            return ["ParPerm(stack)"]
        if isinstance(s.arg, _PAR):
            return ["ParPerm(app-left)"]
    if isinstance(s, (Proj, Efq)) and isinstance(s.arg, _PAR):
        return ["ParPerm(stack)"]
    if isinstance(s, Case) and isinstance(s.scrut, _PAR):
        return ["ParPerm(stack)"]
    if isinstance(s, Lam) and isinstance(s.body, _PAR):
        return ["ParPerm(lam)"]
    if isinstance(s, Inj) and isinstance(s.arg, _PAR):
        return ["ParPerm(inj)"]
    if isinstance(s, Pair):
        if isinstance(s.left, _PAR):
            return ["ParPerm(pair-left)"]
        if isinstance(s.right, _PAR):
            return ["ParPerm(pair-right)"]
    return []


def _session(s: ParBind, disc: bool) -> list[str]:
    rules: list[str] = []
    bodies = [c.body if isinstance(c, Underline) else c for c in s.comps]
    occs = [_occurrences(b, s.chan) for b in bodies]
    simple = [not _mentions_parallel(b) for b in bodies]

    if not s.active and any(
        o["arg"] is not None and _is_value(o["arg"]) for per in occs for o in per
    ):
        rules.append("Activation")

    if s.active:
        rules.extend(_crosses(s, bodies, occs, simple, disc))

    survivors = [i for i, per in enumerate(occs) if not per]
    if survivors:
        rules.append(f"GarbageCross{survivors}")

    if s.active and not any(_mentions_active_session(b) for b in bodies):
        for k, b in enumerate(bodies):
            if isinstance(b, _PAR):
                rules.append(f"ParParPerm({k})")
    return rules


def _crosses(s: ParBind, bodies, occs, simple, disc: bool) -> list[str]:
    ax = s.axiom
    rules: list[str] = []

    if ax.mode == "em":
        if not (simple[0] and simple[1]) or not occs[0]:
            return rules
        last = occs[0][-1]
        if last["negated"] and last["arg"] is not None:
            cap_v, cap_c = _captured(last)
            if cap_c:
                return rules
            rules.append("BasicCross(0,1)" if not cap_v else "FullCross")
        return rules

    if ax.mode == "broadcast":
        if all(simple) and occs[0]:
            last = occs[0][-1]
            if last["negated"] and last["arg"] is not None:
                cap_v, cap_c = _captured(last)
                if not cap_v and not cap_c:
                    rules.append("BroadcastCross")
        return rules

    marked = [i for i, c in enumerate(s.comps) if isinstance(c, Underline)]
    senders = marked if (disc and marked) else list(range(len(bodies)))
    for i in senders:
        if not simple[i] or not occs[i]:
            continue
        last = occs[i][-1]
        if last["arg"] is None:
            continue
        cap_v, cap_c = _captured(last)
        if cap_v or cap_c:
            continue
        fi = ax.components[i][0]
        for j in range(len(bodies)):
            if j == i or not simple[j] or not occs[j]:
                continue
            if occs[j][-1]["arg"] is None:
                continue
            if fi == ax.components[j][1]:
                rules.append(f"BasicCross({i},{j})")

    full = all(simple)
    for per in occs:
        if not (per and per[-1]["arg"] is not None):
            full = False
            break
        _, cap_c = _captured(per[-1])
        if cap_c:
            full = False
            break
    if full:
        rules.append("FullCross")
    return rules


# ---------------------------------------------------------------------------
# the typer by recursion, as the library typed before check moved onto an
# explicit stack: types flow down through environments, every error is
# worded where it is found, and type_of_oracle recomputes a type bottom-up

# chan_env entries: name -> (scheme, component index, binder activity)
_ChanEnv = dict[str, tuple[AxiomScheme, int, bool]]


def _fail(code: str, path: Path, msg: str):
    raise TypingError(TypeIssue(code, path, msg))


def _mismatch(path: Path, expected: str, found: str, what: str = ""):
    lead = f"{what}: " if what else ""
    _fail("TypeMismatch", path, f"{lead}expected {expected}, found {found}")


def check_oracle(t: Term, ctx: Optional[TypingContext] = None) -> tuple[Term, Formula]:
    """Elaborate and type t; raises TypingError on the first violation."""
    ctx = ctx or TypingContext()
    return _infer(t, dict(ctx.ivars), {}, ctx.chans, ())


def _infer(
    t: Term,
    env: dict[str, Formula],
    chans: _ChanEnv,
    free_chan_tys: dict[str, Formula],
    path: Path,
) -> tuple[Term, Formula]:
    if isinstance(t, Var):
        if t.name not in env:
            _fail("UnboundName", path, f"unbound variable {t.name!r}")
        ty = env[t.name]
        return (t if t.ty == ty else Var(t.name, ty)), ty

    if isinstance(t, Chan):
        return _infer_chan(t, chans, free_chan_tys, path, applied=False)

    if isinstance(t, Unit):
        return t, TOP

    if isinstance(t, Lam):
        env2 = dict(env)
        env2[t.var] = t.ann
        body, bt = _infer(t.body, env2, chans, free_chan_tys, path + (0,))
        return (t if body is t.body else Lam(t.var, t.ann, body)), Impl(t.ann, bt)

    if isinstance(t, App):
        if isinstance(t.fun, Chan):
            name = t.fun.name
            if name in chans and not chans[name][0].bare_allowed(chans[name][1]):
                fun, fty = _infer_chan(
                    t.fun, chans, free_chan_tys, path + (0,), applied=True
                )
                arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (1,))
                assert isinstance(fty, Impl)
                if at != fty.left:
                    _mismatch(
                        path + (1,),
                        show_formula(fty.left),
                        show_formula(at),
                        f"argument of channel {name}",
                    )
                return _app(t, fun, arg), fty.right
        fun, fty = _infer(t.fun, env, chans, free_chan_tys, path + (0,))
        if not isinstance(fty, Impl):
            _mismatch(path + (0,), "a function type", show_formula(fty))
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (1,))
        if at != fty.left:
            _mismatch(path + (1,), show_formula(fty.left), show_formula(at), "argument")
        return _app(t, fun, arg), fty.right

    if isinstance(t, Pair):
        l, lt = _infer(t.left, env, chans, free_chan_tys, path + (0,))
        r, rt = _infer(t.right, env, chans, free_chan_tys, path + (1,))
        return (t if l is t.left and r is t.right else Pair(l, r)), Conj(lt, rt)

    if isinstance(t, Proj):
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if not isinstance(at, Conj):
            _mismatch(path + (0,), "a conjunction", show_formula(at), "projection")
        proj = t if arg is t.arg else Proj(arg, t.index)
        return proj, at.left if t.index == 0 else at.right

    if isinstance(t, Inj):
        if not isinstance(t.disj, Disj):
            _mismatch(path, "a disjunction annotation", show_formula(t.disj))
        want = t.disj.left if t.index == 0 else t.disj.right
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if at != want:
            _mismatch(path + (0,), show_formula(want), show_formula(at),
                      f"inj{t.index} argument")
        return (t if arg is t.arg else Inj(t.index, t.disj, arg)), t.disj

    if isinstance(t, Case):
        scrut, st = _infer(t.scrut, env, chans, free_chan_tys, path + (0,))
        if not isinstance(st, Disj):
            _mismatch(path + (0,), "a disjunction", show_formula(st), "case scrutinee")
        envl = dict(env)
        envl[t.lvar] = st.left
        lbody, lt = _infer(t.lbody, envl, chans, free_chan_tys, path + (1,))
        envr = dict(env)
        envr[t.rvar] = st.right
        rbody, rt = _infer(t.rbody, envr, chans, free_chan_tys, path + (2,))
        if lt != rt:
            _mismatch(path + (2,), show_formula(lt), show_formula(rt), "case branches")
        if scrut is t.scrut and lbody is t.lbody and rbody is t.rbody:
            return t, lt
        return Case(scrut, t.lvar, lbody, t.rvar, rbody), lt

    if isinstance(t, Efq):
        if isinstance(t.target, Bot) or not isinstance(t.target, (Atom, Top)):
            _fail(
                "EfqTargetNotAtomic",
                path,
                f"efq target must be an atom or Top, got {show_formula(t.target)}",
            )
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if not isinstance(at, Bot):
            _mismatch(path + (0,), "Bot", show_formula(at), "efq argument")
        return (t if arg is t.arg else Efq(arg, t.target)), t.target

    if isinstance(t, ParBind):
        ax = t.axiom
        if len(t.comps) != ax.arity:
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"axiom {ax} wants {ax.arity} components, got {len(t.comps)}",
            )
        marks = 0
        out = []
        session_ty: Optional[Formula] = None
        for i, comp in enumerate(t.comps):
            chans2 = dict(chans)
            chans2[t.chan] = (ax, i, t.active)
            inner = comp
            if isinstance(comp, Underline):
                marks += 1
                inner = comp.body
                if isinstance(inner, Underline):
                    _fail("ChannelDisciplineViolation", path + (i,),
                          "nested component marks")
            body, bt = _infer(inner, env, chans2, free_chan_tys, path + (i,))
            if session_ty is None:
                session_ty = bt
            elif bt != session_ty:
                _mismatch(
                    path + (i,),
                    show_formula(session_ty),
                    show_formula(bt),
                    f"component {i} of session {t.chan}",
                )
            if isinstance(comp, Underline):
                body = comp if body is inner else Underline(body)
            out.append(body)
        if marks > 1:
            _fail("ChannelDisciplineViolation", path,
                  "more than one marked component")
        if all(map(is_, out, t.comps)):
            return t, session_ty
        return ParBind(t.chan, t.active, ax, tuple(out)), session_ty

    if isinstance(t, Contract):
        l, lt = _infer(t.left, env, chans, free_chan_tys, path + (0,))
        r, rt = _infer(t.right, env, chans, free_chan_tys, path + (1,))
        if lt != rt:
            _mismatch(path + (1,), show_formula(lt), show_formula(rt), "contraction")
        return (t if l is t.left and r is t.right else Contract(l, r)), lt

    if isinstance(t, Underline):
        _fail("ChannelDisciplineViolation", path,
              "component mark outside a session")

    raise TypeError(f"not a term: {t!r}")


def _infer_chan(
    t: Chan,
    chans: _ChanEnv,
    free_chan_tys: dict[str, Formula],
    path: Path,
    applied: bool,
) -> tuple[Term, Formula]:
    if t.name in chans:
        ax, i, active = chans[t.name]
        if t.active != active:
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"occurrence of {t.name} has activity {t.active}, binder says {active}",
            )
        if t.negated != ax.occurrence_negated(i):
            want = "sender (not-) polarity" if ax.occurrence_negated(i) else "plain polarity"
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"occurrence of {t.name} in component {i} must have {want}",
            )
        if not applied and not ax.bare_allowed(i):
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"channel {t.name} cannot occur alone in component {i}",
            )
        ty = ax.occurrence_type(i)
        return (t if t.ty == ty else Chan(t.name, ty, t.active, t.negated)), ty
    if t.name in free_chan_tys:
        if t.negated:
            _fail("ChannelDisciplineViolation", path,
                  f"free channel {t.name} has no sender polarity")
        ty = free_chan_tys[t.name]
        return (t if t.ty == ty else Chan(t.name, ty, t.active, False)), ty
    _fail("UnboundName", path, f"unbound channel {t.name!r}")


def _app(t: App, fun: Term, arg: Term) -> Term:
    return t if fun is t.fun and arg is t.arg else App(fun, arg)


# ---------------------------------------------------------------------------
# bottom-up type synthesis on elaborated terms


def type_of_oracle(t: Term) -> Formula:
    """Type of an elaborated term. No environment: occurrences carry types."""
    if isinstance(t, (Var, Chan)):
        if t.ty is None:
            raise ValueError(f"type_of on unelaborated occurrence {t!r}")
        return t.ty
    if isinstance(t, Unit):
        return TOP
    if isinstance(t, Lam):
        return Impl(t.ann, type_of_oracle(t.body))
    if isinstance(t, App):
        ft = type_of_oracle(t.fun)
        assert isinstance(ft, Impl), f"ill-typed application head: {show_formula(ft)}"
        return ft.right
    if isinstance(t, Pair):
        return Conj(type_of_oracle(t.left), type_of_oracle(t.right))
    if isinstance(t, Proj):
        pt = type_of_oracle(t.arg)
        assert isinstance(pt, Conj)
        return pt.left if t.index == 0 else pt.right
    if isinstance(t, Inj):
        return t.disj
    if isinstance(t, Case):
        return type_of_oracle(t.lbody)
    if isinstance(t, Efq):
        return t.target
    if isinstance(t, ParBind):
        return type_of_oracle(t.comps[0])
    if isinstance(t, Contract):
        return type_of_oracle(t.left)
    if isinstance(t, Underline):
        return type_of_oracle(t.body)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# subject reduction, judged on whole states
#
# The engine types only the subterm a step rewrote; here both states are
# typed whole, as type preservation is stated, and their free names are
# collected from scratch.

def subject_reduction_oracle(
    ctx: TypingContext | None, before: Term, after: Term
) -> SubjectReductionReport:
    ctx = ctx or TypingContext()
    try:
        _, tb = check_oracle(before, ctx)
    except TypingError as e:
        return SubjectReductionReport(False, None, None, f"before does not type: {e}")
    try:
        _, ta = check_oracle(after, ctx)
    except TypingError as e:
        return SubjectReductionReport(
            False, show_formula(tb), None, f"after does not type: {e}"
        )
    if tb != ta:
        return SubjectReductionReport(
            False, show_formula(tb), show_formula(ta), "type changed"
        )
    (fv_b, fc_b), (fv_a, fc_a) = _free_names(before), _free_names(after)
    new = (fv_a - fv_b) | (fc_a - fc_b)
    if new:
        return SubjectReductionReport(
            False,
            show_formula(tb),
            show_formula(ta),
            f"new free names appeared: {sorted(new)}",
        )
    return SubjectReductionReport(True, show_formula(tb), show_formula(ta))


# ---------------------------------------------------------------------------
# formulas printed by recursion, as the library did before its printer
# moved onto an explicit stack

def show_formula_oracle(f: Formula, prec: int = 0) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "Top"
    if isinstance(f, Bot):
        return "Bot"
    if isinstance(f, Impl):
        if isinstance(f.right, Bot):
            return "~" + show_formula_oracle(f.left, 4)
        s = show_formula_oracle(f.left, 2) + " -> " + show_formula_oracle(f.right, 1)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(f, Disj):
        s = show_formula_oracle(f.left, 3) + " \\/ " + show_formula_oracle(f.right, 2)
        return "(" + s + ")" if prec > 2 else s
    if isinstance(f, Conj):
        s = show_formula_oracle(f.left, 4) + " /\\ " + show_formula_oracle(f.right, 3)
        return "(" + s + ")" if prec > 3 else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# formulas as the frozen dataclasses they were before interning: their ==,
# hash and repr recurse through the structure and know no table

_DATACLASSES = {
    name: make_dataclass(name, fields, frozen=True)
    for name, fields in [
        ("Atom", ["name"]), ("Top", []), ("Bot", []),
        ("Impl", ["left", "right"]), ("Conj", ["left", "right"]),
        ("Disj", ["left", "right"]),
    ]
}


def dataclass_oracle(f: Formula):
    """f rebuilt, by recursion, as the frozen dataclass of its class."""
    cls = _DATACLASSES[type(f).__name__]
    if isinstance(f, Atom):
        return cls(f.name)
    if isinstance(f, (Top, Bot)):
        return cls()
    return cls(dataclass_oracle(f.left), dataclass_oracle(f.right))


# ---------------------------------------------------------------------------
# classical tautologies, by truth table

def _atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (Top, Bot)):
        return set()
    return _atoms(f.left) | _atoms(f.right)


def _column(f: Formula, cols: dict[str, int], full: int) -> int:
    """f's column of the truth table, one bit per valuation."""
    if isinstance(f, Atom):
        return cols[f.name]
    if isinstance(f, (Top, Bot)):
        return full if isinstance(f, Top) else 0
    left, right = _column(f.left, cols, full), _column(f.right, cols, full)
    if isinstance(f, Impl):
        return (full & ~left) | right
    return left & right if isinstance(f, Conj) else left | right


@cache
def _truth_table(atoms: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Each atom's column, and the column of Top."""
    rows = range(1 << len(atoms))
    cols = {a: sum(1 << n for n in rows if n >> k & 1) for k, a in enumerate(atoms)}
    return cols, (1 << len(rows)) - 1


def is_tautology_oracle(components) -> bool:
    """Whether the disjunction of the implications F_i -> G_i holds under
    every valuation of its atoms. Valuation number n makes the k-th atom
    true when bit k of n is set."""
    atoms = tuple(sorted(set().union(*(_atoms(f) | _atoms(g) for f, g in components))))
    cols, full = _truth_table(atoms)
    out = 0
    for f, g in components:
        out |= _column(Impl(f, g), cols, full)
    return out == full


# ---------------------------------------------------------------------------
# tokens, by a character loop
#
# The engine lexes with one compiled pattern; here each character is looked
# at in turn, with str's own classification of letters and digits.

_SYMBOLS = [  # longest first so |+| wins over || wins over |
    "|+|", "||", "->", "/\\", "\\/",
    "(", ")", "[", "]", "{", "}", "<", ">",
    ",", ".", ":", ";", "|", "~", "\\", "@", "*", "!",
]


def lex_oracle(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) of each token, ending with ("eof", "", line,
    col); a `#` comment does not advance the column."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LaxSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# reduction in random order
#
# The paper states subject reduction for the reduction relation, and the
# normal-form theorems for every normal term, not only for the master
# strategy's runs. random_order_run contracts a redex drawn uniformly from
# all the library offers, so it reaches the contractions the strategy
# seldom or never picks.

def random_order_run(t: Term, discipline: bool, rng, budget: int):
    """(states, redexes, ended): a run from t that contracts, at each step,
    a redex rng draws uniformly from find_redexes(state, discipline); the
    states from t on, the redex contracted in each, and whether the last
    state has no redex. The run stops after budget steps."""
    states, fired = [t], []
    for _ in range(budget):
        redexes = find_redexes(t, discipline)
        if not redexes:
            return states, fired, True
        r = rng.choice(redexes)
        t = step(t, r)
        states.append(t)
        fired.append(r)
    return states, fired, not find_redexes(t, discipline)


# ---------------------------------------------------------------------------
# the trace replay, rebuilding each state
#
# The audit contracts each recorded redex where it sits and compares only
# the recorded path of the state after. Here step rebuilds the whole state
# and every node of it is compared with the recorded one.

def _data_oracle(t: Term) -> tuple:
    """t's fields other than the ones _kids reads."""
    kids = ("comps",) if isinstance(t, ParBind) else _KID_FIELDS.get(type(t), ())
    return tuple(getattr(t, f.name) for f in fields(t) if f.name not in kids)


def _same_oracle(a: Term, b: Term) -> bool:
    """a equals b node by node through _kids, by recursion."""
    ka, kb = _kids(a), _kids(b)
    return (
        type(a) is type(b)
        and _data_oracle(a) == _data_oracle(b)
        and len(ka) == len(kb)
        and all(map(_same_oracle, ka, kb))
    )


def replay_oracle(trace) -> list[tuple[str, str]]:
    """The witnesses of the trace audit's replay, in its wording: step
    fires each recorded redex in the state before it, and the state it
    builds must equal the one recorded after."""
    out, before = [], trace.initial
    for i, ts in enumerate(trace.steps):
        try:
            redone = step(before, ts.redex)
        except InvalidRedex as e:
            out.append((f"step {i}", f"recorded redex no longer applies: {e}"))
        else:
            if not _same_oracle(redone, ts.term_after):
                out.append(
                    (f"step {i}", f"replaying {ts.redex.rule} gives a different term")
                )
        before = ts.term_after
    return out


# ---------------------------------------------------------------------------
# the decrease clauses, over every redex of both states
#
# The audit checks a replayed step on what it built, against bounds read
# low from the path, and compares whole states by their complexity peaks
# only when that fails. Here every redex of both states is listed, and
# each redex after the step is held to its clause's bound.

_FIRST_GROUP = frozenset({RedexKind.BETA, RedexKind.CASE_INJ})
_PERMUTATIONS = frozenset({RedexKind.PAR_PERM, RedexKind.PAR_PAR_PERM})
_UNBOUNDED = _PERMUTATIONS | {RedexKind.ACTIVATION}


def _clause_group(kind: RedexKind) -> int:
    """1 for the first group, 3 for the parallel permutations, 2 for every
    other rule."""
    return 1 if kind in _FIRST_GROUP else 3 if kind in _PERMUTATIONS else 2


def decrease_oracle(trace) -> list[tuple[str, str]]:
    """The witnesses of the trace audit's decrease check, in its wording.

    After a redex of complexity τ of the first group (Beta, CaseInj), a
    redex is within the first clause when its complexity is at most τ − 1,
    at most that of a CasePerm of the state before, or at most that of a
    redex of its own group before. After one of the second group, the
    second clause allows τ, or again its own group's highest before. The
    parallel-form phase, the permutations and activations are bound by
    neither clause. Every state must type."""
    out: list[tuple[str, str]] = []
    disc = trace.underline_discipline
    before = trace.initial
    for i, ts in enumerate(trace.steps):
        r, after = ts.redex, ts.term_after
        if ts.phase != "ParallelForm" and r.kind not in _UNBOUNDED:
            old = find_redexes_oracle(before, disc)
            tau = r.complexity
            if r.kind in _FIRST_GROUP:
                perms = [q.complexity for q in old if q.kind is RedexKind.CASE_PERM]
                clause, floor = "first", max([tau - 1] + perms)
            else:
                clause, floor = "second", tau
            for q in find_redexes_oracle(after, disc):
                group = _clause_group(q.kind)
                if q.complexity > floor and all(
                    q.complexity > p.complexity
                    for p in old if _clause_group(p.kind) == group
                ):
                    out.append((
                        f"step {i}",
                        f"after {r.rule} (complexity {tau}), redex {q.rule} at "
                        f"{list(q.position)} has complexity {q.complexity}, above "
                        f"every bound of the {clause} decrease clause",
                    ))
        before = after
    return out
