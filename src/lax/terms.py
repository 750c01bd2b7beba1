"""Term syntax shared by every calculus mode, plus path and binding utilities.

Terms are immutable dataclasses. Paths address subterms as tuples of child
indices; the child order fixed by children() is the one reduction traces and
redex positions refer to.

One table, _SHAPES, states each constructor's shape: the fields holding its
subterms, in path order, and which field names what it binds in which
child. children(), with_children(), binder() and binder_names() are read off
it. Free names, renaming, channel substitution, alpha-equivalence and
channel occurrences are walks over children() that read binder_names();
rebind() is the only code that renames a bound name, and substitution, the
parser's hygiene pass, the permutations' freshening and activation all go
through it.

Variable occurrences and channel occurrences carry the type the checker
assigned to them (ty is None straight out of the parser). All engine code
assumes elaborated terms, so a bottom-up type_of needs no environment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter, is_
from typing import Iterator, NamedTuple, Optional

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
# node shapes: the one table of subterms and binders


class _Shape(NamedTuple):
    # the fields holding the subterms, in path order
    kids: tuple[str, ...]
    # (field naming the bound name, the occurrence class it binds, the child
    # it binds in or None for every child); at most one binder per child
    binds: tuple[tuple[str, type, Optional[int]], ...] = ()
    # kids is one field holding the tuple of subterms
    spread: bool = False


_SHAPES: dict[type, _Shape] = {
    Var: _Shape(()),
    Chan: _Shape(()),
    Unit: _Shape(()),
    Lam: _Shape(("body",), (("var", Var, 0),)),
    App: _Shape(("fun", "arg")),
    Pair: _Shape(("left", "right")),
    Proj: _Shape(("arg",)),
    Inj: _Shape(("arg",)),
    Case: _Shape(("scrut", "lbody", "rbody"), (("lvar", Var, 1), ("rvar", Var, 2))),
    Efq: _Shape(("arg",)),
    ParBind: _Shape(("comps",), (("chan", Chan, None),), spread=True),
    Contract: _Shape(("left", "right")),
    Underline: _Shape(("body",)),
}


def _getter(shape: _Shape):
    if shape.spread:
        return attrgetter(shape.kids[0])
    if len(shape.kids) == 1:
        get = attrgetter(shape.kids[0])
        return lambda t: (get(t),)
    if shape.kids:
        return attrgetter(*shape.kids)
    return lambda t: ()


_CHILDREN = {cls: _getter(shape) for cls, shape in _SHAPES.items()}


def children(t: Term) -> tuple[Term, ...]:
    get = _CHILDREN.get(type(t))
    if get is None:
        raise TypeError(f"not a term: {t!r}")
    return get(t)


def with_children(t: Term, cs: tuple[Term, ...]) -> Term:
    shape = _SHAPES[type(t)]
    if not shape.kids:
        return t
    if shape.spread:
        return replace(t, **{shape.kids[0]: cs})
    return replace(t, **dict(zip(shape.kids, cs)))


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
    """Preorder (leftmost-outermost) walk yielding (path, subterm), on an
    explicit stack, so deep terms do not exhaust the call stack."""
    todo = [(path, t)]
    while todo:
        path, s = todo.pop()
        yield path, s
        cs = children(s)
        for i in range(len(cs) - 1, -1, -1):
            todo.append((path + (i,), cs[i]))


def term_size(t: Term) -> int:
    n, todo = 0, [t]
    while todo:
        n += 1
        todo.extend(children(todo.pop()))
    return n


# ---------------------------------------------------------------------------
# binding structure

def binder(t: Term, child_index: int) -> Optional[tuple[str, type]]:
    """(field, occurrence class) of the binder t puts over its
    child_index-th child, or None when there is none.

    A lambda binds its variable in its body, each case branch binds its own
    variable (the scrutinee is outside both), and nu binds its channel in
    every component.
    """
    for field, cls, child in _SHAPES[type(t)].binds:
        if child is None or child == child_index:
            return field, cls
    return None


def binder_names(t: Term, child_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(variables, channels) t binds inside its child_index-th child.

    Variables and channels are separate namespaces: nu binds only a channel,
    lambda and case only variables.
    """
    b = binder(t, child_index)
    if b is None:
        return (), ()
    name = (getattr(t, b[0]),)
    return (name, ()) if b[1] is Var else ((), name)


def rebind(t: Term, child_index: int, new: str) -> Term:
    """t with the binder over its child_index-th child renamed to new in
    every child it binds: a variable in one child, or a session's channel in
    every component, whose occurrences take the session's activity.

    new must be fresh for those children, so no capture check is needed.
    """
    field, cls = binder(t, child_index)
    old = getattr(t, field)
    cs = list(children(t))
    for j, c in enumerate(cs):
        if binder(t, j) == (field, cls):
            if cls is Var:
                cs[j] = rename_var(c, old, new)
            else:
                cs[j] = rename_chan(c, old, new, t.active)
    return replace(with_children(t, tuple(cs)), **{field: new})


@dataclass(frozen=True)
class Occurrence:
    chan_path: Path  # path of the Chan node within the component body
    app_path: Optional[Path]  # path of the App node when applied
    negated: bool
    arg: Optional[Term]
    binders_above: frozenset[str]  # variable and channel names bound above


def chan_occurrences(comp: Term, name: str) -> list[Occurrence]:
    """Free occurrences of `name` in preorder; the last one is rightmost."""
    out: list[Occurrence] = []

    def walk(t: Term, path: Path, above: frozenset[str]):
        if isinstance(t, App) and isinstance(t.fun, Chan) and t.fun.name == name:
            out.append(
                Occurrence(path + (0,), path, t.fun.negated, t.arg, above)
            )
            walk(t.arg, path + (1,), above)
            return
        if isinstance(t, Chan) and t.name == name:
            out.append(Occurrence(path, None, t.negated, None, above))
            return
        for i, c in enumerate(children(t)):
            vs, chs = binder_names(t, i)
            if name not in chs:  # a nu rebinding name shadows it
                walk(c, path + (i,), above.union(vs, chs))

    walk(comp, (), frozenset())
    return out


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
    cs = children(t)
    new = list(cs)
    for i in range(len(cs)):
        vs = binder_names(t, i)[0]
        if x in vs:
            continue
        if not fv.isdisjoint(vs):
            # v would be captured: rename the binder, unless x is not free
            # below it and nothing is substituted there
            if x not in free_vars(cs[i]):
                continue
            t = rebind(t, i, fresh_name(vs[0], fv | all_names(cs[i]) | {x}))
            new[i] = children(t)[i]
        new[i] = _subst(new[i], x, v, fv)
    if all(map(is_, new, cs)):
        return t
    return with_children(t, tuple(new))


def subst_chan_bare(t: Term, a: str, v: Term) -> Term:
    """Replace every free bare (non-negated) occurrence of channel a by v.

    Used by the dissolving cross rules, where every receiver occurrence gets
    the same closed message.
    """
    return _map_free(t, a, True, lambda c: c if c.negated else v)


def rename_chan(t: Term, old: str, new: str, active: bool) -> Term:
    """Rename free occurrences of channel old to new, setting the active flag."""
    return _map_free(t, old, True, lambda c: Chan(new, c.ty, active, c.negated))
