"""Term syntax shared by every calculus mode, plus path and binding utilities.

Terms are immutable dataclasses. Paths address subterms as tuples of child
indices; the child order fixed by children() is the one reduction traces and
redex positions refer to.

Variable occurrences and channel occurrences carry the type the checker
assigned to them (ty is None straight out of the parser). All engine code
assumes elaborated terms, so a bottom-up type_of needs no environment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .axioms import AxiomScheme
from .formulas import Formula, Conj, TOP


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        from .printer import show_term

        return show_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str
    ty: Optional[Formula] = None


@dataclass(frozen=True)
class Chan(Term):
    """One occurrence of a session channel.

    negated is the sender polarity of the EM / broadcast modes. active mirrors
    the binder's flag on every occurrence so value checks work on open
    subterms.
    """

    name: str
    ty: Optional[Formula] = None
    active: bool = False
    negated: bool = False


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ann: Formula
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Proj(Term):
    arg: Term
    index: int


@dataclass(frozen=True)
class Inj(Term):
    index: int
    disj: Formula
    arg: Term


@dataclass(frozen=True)
class Case(Term):
    scrut: Term
    lvar: str
    lbody: Term
    rvar: str
    rbody: Term


@dataclass(frozen=True)
class Efq(Term):
    arg: Term
    target: Formula


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class ParBind(Term):
    """nu chan . [comps[0] || comps[1] || ...], with the axiom scheme attached."""

    chan: str
    active: bool
    axiom: AxiomScheme
    comps: tuple[Term, ...]


@dataclass(frozen=True)
class Contract(Term):
    """Contraction join t1 |+| t2; both sides share one type. n-ary joins
    are right-nested applications of this node."""

    left: Term
    right: Term


@dataclass(frozen=True)
class Underline(Term):
    """Scheduling mark on one parallel component (prints as @t)."""

    body: Term


TT = Unit()


# ---------------------------------------------------------------------------
# generic traversal

def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Var, Chan, Unit)):
        return ()
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, App):
        return (t.fun, t.arg)
    if isinstance(t, Pair):
        return (t.left, t.right)
    if isinstance(t, Proj):
        return (t.arg,)
    if isinstance(t, Inj):
        return (t.arg,)
    if isinstance(t, Case):
        return (t.scrut, t.lbody, t.rbody)
    if isinstance(t, Efq):
        return (t.arg,)
    if isinstance(t, ParBind):
        return t.comps
    if isinstance(t, Contract):
        return (t.left, t.right)
    if isinstance(t, Underline):
        return (t.body,)
    raise TypeError(f"not a term: {t!r}")


def with_children(t: Term, cs: tuple[Term, ...]) -> Term:
    if isinstance(t, (Var, Chan, Unit)):
        assert cs == ()
        return t
    if isinstance(t, Lam):
        return replace(t, body=cs[0])
    if isinstance(t, App):
        return App(cs[0], cs[1])
    if isinstance(t, Pair):
        return Pair(cs[0], cs[1])
    if isinstance(t, Proj):
        return Proj(cs[0], t.index)
    if isinstance(t, Inj):
        return Inj(t.index, t.disj, cs[0])
    if isinstance(t, Case):
        return Case(cs[0], t.lvar, cs[1], t.rvar, cs[2])
    if isinstance(t, Efq):
        return Efq(cs[0], t.target)
    if isinstance(t, ParBind):
        return replace(t, comps=cs)
    if isinstance(t, Contract):
        return Contract(cs[0], cs[1])
    if isinstance(t, Underline):
        return Underline(cs[0])
    raise TypeError(f"not a term: {t!r}")


Path = tuple[int, ...]


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = children(t)[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    if not path:
        return new
    cs = list(children(t))
    cs[path[0]] = replace_at(cs[path[0]], path[1:], new)
    return with_children(t, tuple(cs))


def iter_subterms(t: Term, path: Path = ()) -> Iterator[tuple[Path, Term]]:
    """Preorder (leftmost-outermost) walk yielding (path, subterm)."""
    yield path, t
    for i, c in enumerate(children(t)):
        yield from iter_subterms(c, path + (i,))


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in children(t))


# ---------------------------------------------------------------------------
# binding structure

def binder_names(t: Term, child_index: int) -> tuple[str, ...]:
    """Names t binds inside its child_index-th child."""
    if isinstance(t, Lam):
        return (t.var,)
    if isinstance(t, Case):
        if child_index == 1:
            return (t.lvar,)
        if child_index == 2:
            return (t.rvar,)
        return ()
    if isinstance(t, ParBind):
        return (t.chan,)
    return ()


def free_vars(t: Term) -> frozenset[str]:
    """Free intuitionistic variables (channel occurrences do not count)."""
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, (Chan, Unit)):
        return frozenset()
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.var}
    if isinstance(t, Case):
        return (
            free_vars(t.scrut)
            | (free_vars(t.lbody) - {t.lvar})
            | (free_vars(t.rbody) - {t.rvar})
        )
    out: frozenset[str] = frozenset()
    for c in children(t):
        out |= free_vars(c)
    return out


def free_chans(t: Term) -> frozenset[str]:
    """Names of channels with at least one free occurrence in t."""
    if isinstance(t, Chan):
        return frozenset({t.name})
    if isinstance(t, ParBind):
        out: frozenset[str] = frozenset()
        for c in t.comps:
            out |= free_chans(c)
        return out - {t.chan}
    out = frozenset()
    for c in children(t):
        out |= free_chans(c)
    return out


def all_names(t: Term) -> set[str]:
    """Every variable/channel name appearing anywhere, bound or free."""
    out: set[str] = set()
    for _, s in iter_subterms(t):
        if isinstance(s, Var):
            out.add(s.name)
        elif isinstance(s, Chan):
            out.add(s.name)
        elif isinstance(s, Lam):
            out.add(s.var)
        elif isinstance(s, Case):
            out.add(s.lvar)
            out.add(s.rvar)
        elif isinstance(s, ParBind):
            out.add(s.chan)
    return out


def fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    n = 0
    while f"{base}{n}" in used:
        n += 1
    return f"{base}{n}"


# ---------------------------------------------------------------------------
# alpha equivalence
#
# Binders (lambda, case branches, nu) are compared by binding depth; free
# names by spelling. Occurrence types are ignored (they are determined by
# annotations, which are compared), so elaborated and raw parses of the same
# text compare equal.

def alpha_eq(t1: Term, t2: Term) -> bool:
    return _alpha(t1, t2, {}, {}, 0)


def _alpha(t1: Term, t2: Term, env1: dict, env2: dict, depth: int) -> bool:
    if type(t1) is not type(t2):
        return False
    if isinstance(t1, Var):
        d1, d2 = env1.get(("v", t1.name)), env2.get(("v", t2.name))
        if (d1 is None) != (d2 is None):
            return False
        return d1 == d2 if d1 is not None else t1.name == t2.name
    if isinstance(t1, Chan):
        if t1.negated != t2.negated or t1.active != t2.active:
            return False
        d1, d2 = env1.get(("c", t1.name)), env2.get(("c", t2.name))
        if (d1 is None) != (d2 is None):
            return False
        return d1 == d2 if d1 is not None else t1.name == t2.name
    if isinstance(t1, Unit):
        return True
    if isinstance(t1, Lam):
        if t1.ann != t2.ann:
            return False
        e1 = dict(env1)
        e2 = dict(env2)
        e1[("v", t1.var)] = depth
        e2[("v", t2.var)] = depth
        return _alpha(t1.body, t2.body, e1, e2, depth + 1)
    if isinstance(t1, Case):
        if not _alpha(t1.scrut, t2.scrut, env1, env2, depth):
            return False
        e1 = dict(env1)
        e2 = dict(env2)
        e1[("v", t1.lvar)] = depth
        e2[("v", t2.lvar)] = depth
        if not _alpha(t1.lbody, t2.lbody, e1, e2, depth + 1):
            return False
        e1 = dict(env1)
        e2 = dict(env2)
        e1[("v", t1.rvar)] = depth
        e2[("v", t2.rvar)] = depth
        return _alpha(t1.rbody, t2.rbody, e1, e2, depth + 1)
    if isinstance(t1, ParBind):
        if t1.active != t2.active or t1.axiom != t2.axiom:
            return False
        if len(t1.comps) != len(t2.comps):
            return False
        e1 = dict(env1)
        e2 = dict(env2)
        e1[("c", t1.chan)] = depth
        e2[("c", t2.chan)] = depth
        return all(
            _alpha(c1, c2, e1, e2, depth + 1)
            for c1, c2 in zip(t1.comps, t2.comps)
        )
    if isinstance(t1, Proj) and t1.index != t2.index:
        return False
    if isinstance(t1, Inj) and (t1.index != t2.index or t1.disj != t2.disj):
        return False
    if isinstance(t1, Efq) and t1.target != t2.target:
        return False
    return all(
        _alpha(c1, c2, env1, env2, depth)
        for c1, c2 in zip(children(t1), children(t2))
    )


# ---------------------------------------------------------------------------
# pair spines and stacks

def flatten_pairs(t: Term) -> tuple[Term, ...]:
    """Components of the maximal right-nested pair spine; [t] when not a pair."""
    if isinstance(t, Pair):
        return (t.left,) + flatten_pairs(t.right)
    return (t,)


def build_tuple(ts: tuple[Term, ...]) -> Term:
    """Right-nested pair of the components; empty gives tt."""
    if not ts:
        return TT
    acc = ts[-1]
    for u in reversed(ts[:-1]):
        acc = Pair(u, acc)
    return acc


def tuple_type(tys: tuple[Formula, ...]) -> Formula:
    if not tys:
        return TOP
    acc = tys[-1]
    for a in reversed(tys[:-1]):
        acc = Conj(a, acc)
    return acc


@dataclass(frozen=True)
class ArgFrame:
    arg: Term


@dataclass(frozen=True)
class ProjFrame:
    index: int


@dataclass(frozen=True)
class CaseFrame:
    lvar: str
    lbody: Term
    rvar: str
    rbody: Term


@dataclass(frozen=True)
class EfqFrame:
    target: Formula


Frame = ArgFrame | ProjFrame | CaseFrame | EfqFrame
Stack = tuple[Frame, ...]


def decompose_stack(t: Term) -> tuple[Term, Stack]:
    """Maximal spine walk: head plus the stack applied to it, innermost first.

    x pi0 u decomposes to (x, [ProjFrame 0, ArgFrame u]).
    """
    frames: list[Frame] = []
    while True:
        if isinstance(t, App):
            frames.append(ArgFrame(t.arg))
            t = t.fun
        elif isinstance(t, Proj):
            frames.append(ProjFrame(t.index))
            t = t.arg
        elif isinstance(t, Case):
            frames.append(CaseFrame(t.lvar, t.lbody, t.rvar, t.rbody))
            t = t.scrut
        elif isinstance(t, Efq):
            frames.append(EfqFrame(t.target))
            t = t.arg
        else:
            return t, tuple(reversed(frames))


def apply_frame(t: Term, f: Frame) -> Term:
    if isinstance(f, ArgFrame):
        return App(t, f.arg)
    if isinstance(f, ProjFrame):
        return Proj(t, f.index)
    if isinstance(f, CaseFrame):
        return Case(t, f.lvar, f.lbody, f.rvar, f.rbody)
    if isinstance(f, EfqFrame):
        return Efq(t, f.target)
    raise TypeError(f"not a frame: {f!r}")


def apply_stack(t: Term, s: Stack) -> Term:
    for f in s:
        t = apply_frame(t, f)
    return t


# ---------------------------------------------------------------------------
# parallel components, with and without the scheduling mark

def contract_join(ts: list[Term] | tuple[Term, ...]) -> Term:
    """Right-nested contraction of ts (non-empty)."""
    ts = tuple(ts)
    acc = ts[-1]
    for u in reversed(ts[:-1]):
        acc = Contract(u, acc)
    return acc


def comp_body(c: Term) -> Term:
    return c.body if isinstance(c, Underline) else c


def comp_marked(c: Term) -> bool:
    return isinstance(c, Underline)


def is_parallel_node(t: Term) -> bool:
    return isinstance(t, (ParBind, Contract))


def is_simply_typed(t: Term) -> bool:
    """No parallel nodes (and no stray marks) anywhere in t."""
    return not any(
        isinstance(s, (ParBind, Contract, Underline)) for _, s in iter_subterms(t)
    )


def contains_active_session(t: Term) -> bool:
    return any(
        isinstance(s, ParBind) and s.active for _, s in iter_subterms(t)
    )


def uppermost_active_sessions(t: Term) -> list[tuple[Path, ParBind]]:
    """Active sessions with no active session inside, in preorder."""
    return [
        (path, s)
        for path, s in iter_subterms(t)
        if isinstance(s, ParBind)
        and s.active
        and not any(contains_active_session(c) for c in s.comps)
    ]


# ---------------------------------------------------------------------------
# substitution

def rename_var(t: Term, old: str, new: str) -> Term:
    """Rename free occurrences of variable old to new, keeping occurrence types.

    new must be fresh for t, so no capture check is needed.
    """
    if isinstance(t, Var):
        return Var(new, t.ty) if t.name == old else t
    if isinstance(t, (Chan, Unit)):
        return t
    if isinstance(t, Lam) and t.var == old:
        return t
    if isinstance(t, Case):
        scrut = rename_var(t.scrut, old, new)
        lbody = t.lbody if t.lvar == old else rename_var(t.lbody, old, new)
        rbody = t.rbody if t.rvar == old else rename_var(t.rbody, old, new)
        return Case(scrut, t.lvar, lbody, t.rvar, rbody)
    return with_children(t, tuple(rename_var(c, old, new) for c in children(t)))


def subst(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of v for the free variable x in t."""
    return _subst(t, x, v, free_vars(v))


def _subst(t: Term, x: str, v: Term, fv: frozenset[str]) -> Term:
    if isinstance(t, Var):
        return v if t.name == x else t
    if isinstance(t, (Chan, Unit)):
        return t
    if x not in free_vars(t):
        return t
    if isinstance(t, Lam):
        if t.var == x:
            return t
        var, body = t.var, t.body
        if var in fv:
            var = fresh_name(var, set(fv) | all_names(body) | {x})
            body = rename_var(body, t.var, var)
        return Lam(var, t.ann, _subst(body, x, v, fv))
    if isinstance(t, Case):
        scrut = _subst(t.scrut, x, v, fv)
        lvar, lbody = _subst_branch(t.lvar, t.lbody, x, v, fv)
        rvar, rbody = _subst_branch(t.rvar, t.rbody, x, v, fv)
        return Case(scrut, lvar, lbody, rvar, rbody)
    if isinstance(t, ParBind):
        # channel binders cannot capture term variables
        return replace(t, comps=tuple(_subst(c, x, v, fv) for c in t.comps))
    return with_children(t, tuple(_subst(c, x, v, fv) for c in children(t)))


def _subst_branch(var: str, body: Term, x: str, v: Term, fv: frozenset[str]):
    if var == x or x not in free_vars(body):
        return var, body
    if var in fv:
        fresh = fresh_name(var, set(fv) | all_names(body) | {x})
        body = rename_var(body, var, fresh)
        var = fresh
    return var, _subst(body, x, v, fv)


def subst_chan_bare(t: Term, a: str, v: Term) -> Term:
    """Replace every free bare (non-negated) occurrence of channel a by v.

    Used by the dissolving cross rules, where every receiver occurrence gets
    the same closed message.
    """
    if isinstance(t, Chan):
        if t.name == a and not t.negated:
            return v
        return t
    if isinstance(t, (Var, Unit)):
        return t
    if isinstance(t, ParBind) and t.chan == a:
        return t
    return with_children(t, tuple(subst_chan_bare(c, a, v) for c in children(t)))


def rename_chan(t: Term, old: str, new: str, active: bool) -> Term:
    """Rename free occurrences of channel old to new, setting the active flag."""
    if isinstance(t, Chan):
        if t.name == old:
            return Chan(new, t.ty, active, t.negated)
        return t
    if isinstance(t, (Var, Unit)):
        return t
    if isinstance(t, ParBind) and t.chan == old:
        return t
    return with_children(t, tuple(rename_chan(c, old, new, active) for c in children(t)))
