"""Term syntax shared by every calculus mode, plus path and binding utilities.

Terms are immutable dataclasses. Paths address subterms as tuples of child
indices; the child order fixed by children() is the one reduction traces and
redex positions refer to.

binder_names() is the one statement of binding: which variables and which
channels a constructor binds in which child. Free names, renaming, channel
substitution and alpha-equivalence are walks over children() that read it;
only the capture-avoiding substitution, which renames binders, and the
parser's hygiene pass name the binder fields themselves.

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

def binder_names(t: Term, child_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(variables, channels) t binds inside its child_index-th child.

    A lambda binds its variable in its body, each case branch binds its own
    variable (the scrutinee is outside both), and nu binds its channel in
    every component. Variables and channels are separate namespaces: nu binds
    only a channel, lambda and case only variables.
    """
    if isinstance(t, Lam):
        return (t.var,), ()
    if isinstance(t, Case):
        if child_index == 1:
            return (t.lvar,), ()
        if child_index == 2:
            return (t.rvar,), ()
        return (), ()
    if isinstance(t, ParBind):
        return (), (t.chan,)
    return (), ()


def free_occurrences(t: Term) -> tuple[dict[str, Var], dict[str, Chan]]:
    """The first free occurrence of each variable and of each channel of t.

    One iterative preorder walk, so each dict lists names in first-use order
    and deep terms do not exhaust the call stack.
    """
    fv: dict[str, Var] = {}
    fc: dict[str, Chan] = {}
    nothing: frozenset[str] = frozenset()
    todo: list[tuple[Term, frozenset[str], frozenset[str]]] = [(t, nothing, nothing)]
    while todo:
        s, bv, bc = todo.pop()
        if isinstance(s, Var):
            if s.name not in bv and s.name not in fv:
                fv[s.name] = s
        elif isinstance(s, Chan):
            if s.name not in bc and s.name not in fc:
                fc[s.name] = s
        else:
            cs = children(s)
            for i in range(len(cs) - 1, -1, -1):
                vs, chs = binder_names(s, i)
                todo.append(
                    (cs[i], bv.union(vs) if vs else bv, bc.union(chs) if chs else bc)
                )
    return fv, fc


def free_names(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """(free variables, free channels) of t."""
    fv, fc = free_occurrences(t)
    return frozenset(fv), frozenset(fc)


def free_vars(t: Term) -> frozenset[str]:
    """Free intuitionistic variables (channel occurrences do not count)."""
    return frozenset(free_occurrences(t)[0])


def free_chans(t: Term) -> frozenset[str]:
    """Names of channels with at least one free occurrence in t."""
    return frozenset(free_occurrences(t)[1])


def all_names(t: Term) -> set[str]:
    """Every variable/channel name appearing anywhere, bound or free."""
    out: set[str] = set()
    for _, s in iter_subterms(t):
        if isinstance(s, (Var, Chan)):
            out.add(s.name)
        for i in range(len(children(s))):
            vs, chs = binder_names(s, i)
            out.update(vs, chs)
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
# Binders are compared by binding depth; free names by spelling. Occurrence
# types are ignored (they are determined by annotations, which are
# compared), so elaborated and raw parses of the same text compare equal.

# the fields compared besides children and names
_LABELS: dict[type, tuple[str, ...]] = {
    Chan: ("negated", "active"),
    Lam: ("ann",),
    Proj: ("index",),
    Inj: ("index", "disj"),
    Efq: ("target",),
    ParBind: ("active", "axiom"),
}


def alpha_eq(t1: Term, t2: Term) -> bool:
    todo: list[tuple[Term, Term, dict, dict, int]] = [(t1, t2, {}, {}, 0)]
    while todo:
        t1, t2, env1, env2, depth = todo.pop()
        if type(t1) is not type(t2):
            return False
        if any(getattr(t1, f) != getattr(t2, f) for f in _LABELS.get(type(t1), ())):
            return False
        if isinstance(t1, (Var, Chan)):
            # the occurrence's class is its namespace
            d1 = env1.get((type(t1), t1.name))
            d2 = env2.get((type(t2), t2.name))
            if d1 != d2 or (d1 is None and t1.name != t2.name):
                return False
            continue
        cs1, cs2 = children(t1), children(t2)
        if len(cs1) != len(cs2):
            return False
        for i, (c1, c2) in enumerate(zip(cs1, cs2)):
            (vs1, chs1), (vs2, chs2) = binder_names(t1, i), binder_names(t2, i)
            if not (vs1 or chs1):
                todo.append((c1, c2, env1, env2, depth))
                continue
            e1, e2 = dict(env1), dict(env2)
            for cls, names1, names2 in ((Var, vs1, vs2), (Chan, chs1, chs2)):
                for x1, x2 in zip(names1, names2):
                    e1[(cls, x1)] = depth
                    e2[(cls, x2)] = depth
            todo.append((c1, c2, e1, e2, depth + 1))
    return True


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

def _map_free(t: Term, name: str, chan: bool, f) -> Term:
    """t with f applied to every free occurrence of name: to its channel
    occurrences when chan, to its variable occurrences otherwise."""
    if isinstance(t, Chan if chan else Var):
        return f(t) if t.name == name else t
    cs = []
    for i, c in enumerate(children(t)):
        vs, chs = binder_names(t, i)
        cs.append(c if name in (chs if chan else vs) else _map_free(c, name, chan, f))
    return with_children(t, tuple(cs))


def rename_var(t: Term, old: str, new: str) -> Term:
    """Rename free occurrences of variable old to new, keeping occurrence types.

    new must be fresh for t, so no capture check is needed.
    """
    return _map_free(t, old, False, lambda v: Var(new, v.ty))


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
    return _map_free(t, a, True, lambda c: c if c.negated else v)


def rename_chan(t: Term, old: str, new: str, active: bool) -> Term:
    """Rename free occurrences of channel old to new, setting the active flag."""
    return _map_free(t, old, True, lambda c: Chan(new, c.ty, active, c.negated))
