"""Term syntax shared by every calculus mode, plus path and binding utilities.

Terms are immutable dataclasses. Paths address subterms as tuples of child
indices; the child order fixed by children() is the one reduction traces and
redex positions refer to.

One table, _SHAPES, states each constructor's shape: the fields holding its
subterms, in path order, and which field names what it binds in which
child. children(), node_data(), with_children(), with_child(), binder() and
binder_names() are read off it, and so is HOLES, the hole of each
eliminator: its first child. A node is rebuilt by one positional call of
its constructor: at import, each constructor gets a getter of its children
and functions that build it anew with all its children or with one,
generated from its shape. replace_at() makes one such call per level of the
path; dataclasses.replace is left for a field that is not a child. Free
names and alpha-equivalence are walks over children() that read
binder_names(). Substitution, renaming and channel substitution share one
walk, _map_free, on an explicit stack; it returns a node none of whose
children changed itself, so an untouched subtree keeps its remembered facts.
rebind() is the only code that renames a bound name, and substitution, the
permutations' freshening and activation all go through it.

Variable occurrences and channel occurrences carry the type the checker
assigned to them (ty is None straight out of the parser). All engine code
assumes elaborated terms, so type_of, read off a node's judgement, needs no
environment.

A node remembers facts in one record (Facts) kept in a slot outside its
dataclass fields, so equality, hashing, repr and replace() ignore them.
Nodes are frozen and every change builds fresh nodes, so a remembered fact
cannot go stale; a node shared by several terms, or sitting at several
positions of one, has the same facts at each. remembered() is the loop
that fills a subtree fact: bottom-up, on an explicit stack, over the
children a fact asks it to enter; it makes a node's record when it first
enters a node that has none. This module defines no fact of its own.
rewrite fills each node's redexes (whose mask also says whether the
subtree is simply typed and holds an active session), its complexity
peaks, its send summary and a component's rightmost occurrences.
typecheck's check keeps the judgement of every node it types, through
facts_of(), and remembered() fills it for the nodes a step builds: its
type, free names and mark, which depend on no context.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter, is_
from typing import Callable, NamedTuple, Optional

from .axioms import AxiomScheme
from .formulas import Formula


class Term:
    # every node has room for its Facts record (see remembered())
    __slots__ = ("_facts",)

    def __str__(self) -> str:
        from .printer import show_term

        return show_term(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    ty: Optional[Formula] = None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    ann: Formula
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Proj(Term):
    arg: Term
    index: int


@dataclass(frozen=True, slots=True)
class Inj(Term):
    index: int
    disj: Formula
    arg: Term


@dataclass(frozen=True, slots=True)
class Case(Term):
    scrut: Term
    lvar: str
    lbody: Term
    rvar: str
    rbody: Term


@dataclass(frozen=True, slots=True)
class Efq(Term):
    arg: Term
    target: Formula


@dataclass(frozen=True, slots=True)
class Unit(Term):
    pass


@dataclass(frozen=True, slots=True)
class ParBind(Term):
    """nu chan . [comps[0] || comps[1] || ...], with the axiom scheme attached."""

    chan: str
    active: bool
    axiom: AxiomScheme
    comps: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Contract(Term):
    """Contraction join t1 |+| t2; both sides share one type. n-ary joins
    are right-nested applications of this node."""

    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
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


def _compiled(cls: type, shape: _Shape) -> tuple[Callable, ...]:
    """(kids, data, build, put) for cls, generated from its shape so that
    no field is named twice: kids(t) gives t's children in path order,
    data(t) its other fields in field order, build(t, cs) is t with the
    children cs and put(t, i, c) is t with c for its i-th child, each one
    positional call of the constructor."""
    names = [f.name for f in fields(cls)]

    def fields_of(ns) -> str:
        return "(" + "".join(f"t.{n}, " for n in ns) + ")"

    def call(kid: Callable[[str], str]) -> str:
        args = (kid(n) if n in shape.kids else f"t.{n}" for n in names)
        return f"{cls.__name__}({', '.join(args)})"

    data = fields_of(n for n in names if n not in shape.kids)
    if not shape.kids:
        kids, build, put = "()", "t", "()[i]"  # a leaf has no child to put
    elif shape.spread:
        kids = f"t.{shape.kids[0]}"
        build = call(lambda n: "cs")
        put = call(lambda n: f"t.{n}[:i] + (c,) + t.{n}[i + 1:]")
    else:
        kids = fields_of(shape.kids)
        build = call(lambda n: f"cs[{shape.kids.index(n)}]")
        put = call(lambda n: "c" if n == shape.kids[-1] else f"t.{n}")
        for i in range(len(shape.kids) - 2, -1, -1):
            here = call(lambda n: "c" if n == shape.kids[i] else f"t.{n}")
            put = f"{here} if i == {i} else {put}"
    scope = {cls.__name__: cls}
    return tuple(
        eval(f"lambda {args}: {body}", scope)
        for args, body in (("t", kids), ("t", data), ("t, cs", build), ("t, i, c", put))
    )


_CHILDREN, _DATA, _BUILD, _PUT = {}, {}, {}, {}
for _cls, _shape in _SHAPES.items():
    _CHILDREN[_cls], _DATA[_cls], _BUILD[_cls], _PUT[_cls] = _compiled(_cls, _shape)

# the constructors that bind a name in some child
_BINDERS = frozenset(cls for cls, shape in _SHAPES.items() if shape.binds)


def children(t: Term) -> tuple[Term, ...]:
    try:
        return _CHILDREN[type(t)](t)
    except KeyError:
        raise TypeError(f"not a term: {t!r}") from None


def node_data(t: Term) -> tuple:
    """t's fields other than its subterms (labels, annotations, bound
    names), in field order: two nodes of one constructor with equal data
    and identical children are equal."""
    return _DATA[type(t)](t)


def with_children(t: Term, cs: tuple[Term, ...]) -> Term:
    """t with the children cs, in path order; a leaf is itself."""
    return _BUILD[type(t)](t, cs)


def with_child(t: Term, i: int, c: Term) -> Term:
    """t with c for its i-th child, 0 <= i < len(children(t))."""
    return _PUT[type(t)](t, i, c)


Path = tuple[int, ...]

# eliminator -> the field holding its hole, its first child
HOLES = {cls: _SHAPES[cls].kids[0] for cls in (App, Proj, Case, Efq)}


def subterm_at(t: Term, path: Path) -> Term:
    """The subterm at path; IndexError when path addresses none, by an
    index out of range or negative."""
    for i in path:
        cs = children(t)
        if not 0 <= i < len(cs):
            raise IndexError(f"{type(t).__name__} has no child {i}")
        t = cs[i]
    return t


def replace_at(t: Term, path: Path, new: Term) -> Term:
    """t with the subterm at path replaced by new; only the nodes along the
    path are rebuilt, every sibling is shared. IndexError when path
    addresses no subterm, as for subterm_at."""
    spine = []
    for i in path:
        spine.append(t)
        if i < 0:  # the rebuild below takes i as a child's number
            raise IndexError(f"{type(t).__name__} has no child {i}")
        t = children(t)[i]
    for s, i in zip(reversed(spine), reversed(path)):
        new = _PUT[type(s)](s, i, new)
    return new


def term_size(t: Term) -> int:
    n, todo = 0, [t]
    while todo:
        n += 1
        todo.extend(children(todo.pop()))
    return n


# ---------------------------------------------------------------------------
# remembered facts


class Facts:
    """What one node remembers, None until known: its redex facts, whose
    mask also holds its subtree's structure (see rewrite.find_redexes and
    rewrite.is_simply_typed), its complexity peaks without and with the
    underline discipline (peaks, disciplined_peaks: rewrite.redex_peaks),
    its send summary (sends: each free channel mapped to rewrite's summary
    of the messages sent on it, see rewrite.session_comm_complexity), the
    rightmost occurrence of each channel asked of it as a component root
    (rightmost, see rewrite._rightmost), and its judgement: its type, free
    names and mark, in no context (see typecheck._node_judgement).

    One record per node, in a slot of Term outside the dataclass fields.
    """

    __slots__ = (
        "redexes", "peaks", "disciplined_peaks", "sends", "rightmost", "judgement"
    )

    def __init__(self):
        self.redexes = self.peaks = self.disciplined_peaks = self.sends = None
        self.rightmost = self.judgement = None


# one getter per fact
_GET = {key: attrgetter(key) for key in Facts.__slots__}
_set_facts = Term._facts.__set__


def remembered(
    t: Term,
    key: str,
    compute: Callable[[Term, list], object],
    enter: Callable[[Term], tuple | list] = children,
):
    """The subtree fact key of t, where a node's fact is compute(node, the
    facts of the children enter(node) gives).

    The first time, compute runs bottom-up, on an explicit stack, on every
    node below t that enter reaches and that does not know the fact yet,
    and each keeps its value; a node entered with no Facts record yet gets
    one then. Nodes that know the fact are not entered.
    """
    get = _GET[key]
    if (known := get(facts_of(t))) is not None:
        return known
    todo = [t]
    while todo:
        s = todo[-1]
        waiting = len(todo)
        kids = []
        for c in enter(s):
            f = getattr(c, "_facts", None)
            if f is None:  # its record, made as it is entered
                _set_facts(c, Facts())
                todo.append(c)
            elif (v := get(f)) is None:
                todo.append(c)  # the children first
            else:
                kids.append(v)
        if len(todo) == waiting:
            todo.pop()
            f = s._facts
            if get(f) is None:  # else shared below two parents, done
                setattr(f, key, compute(s, kids))
    return get(t._facts)


def facts_of(t: Term) -> Facts:
    """t's record, made now if it has none, for a walk that fills a fact
    in its own order (typecheck.check keeps the judgements it makes)."""
    f = getattr(t, "_facts", None)
    if f is None:
        f = Facts()
        _set_facts(t, f)
    return f


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


def free_occurrences(t: Term) -> tuple[dict[str, Var], dict[str, Chan]]:
    """The first free occurrence of each variable and of each channel of t.

    One iterative preorder walk, so each dict lists names in first-use order
    and deep terms do not exhaust the call stack. The names bound around the
    node at hand are kept in bv, bc; a child under a binder is pushed between
    two (bv, bc) pairs, the first of which sets them for its subtree and the
    second restores them.
    """
    fv: dict[str, Var] = {}
    fc: dict[str, Chan] = {}
    bv: frozenset[str] = frozenset()
    bc: frozenset[str] = bv
    todo: list = [t]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is Var:
            if s.name not in bv and s.name not in fv:
                fv[s.name] = s
        elif cls is Chan:
            if s.name not in bc and s.name not in fc:
                fc[s.name] = s
        elif cls is tuple:
            bv, bc = s
        elif cls in _BINDERS:
            cs = children(s)
            for i in range(len(cs) - 1, -1, -1):
                vs, chs = binder_names(s, i)
                if vs or chs:
                    todo += ((bv, bc), cs[i], (bv.union(vs), bc.union(chs)))
                else:
                    todo.append(cs[i])
        else:
            todo.extend(reversed(children(s)))
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
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, (Var, Chan)):
            out.add(s.name)
            continue
        for field, _, _ in _SHAPES[type(s)].binds:
            out.add(getattr(s, field))
        todo.extend(children(s))
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
    parts = []
    while isinstance(t, Pair):
        parts.append(t.left)
        t = t.right
    parts.append(t)
    return tuple(parts)


def build_tuple(ts: tuple[Term, ...]) -> Term:
    """Right-nested pair of the components; empty gives tt."""
    if not ts:
        return TT
    acc = ts[-1]
    for u in reversed(ts[:-1]):
        acc = Pair(u, acc)
    return acc


def decompose_stack(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Maximal spine walk: head plus the stack applied to it, innermost first.

    A stack is a tuple of eliminator nodes whose holes (HOLES) are ignored:
    x pi0 u decomposes to (x, (x pi0, x pi0 u)).
    """
    frames = []
    while (hole := HOLES.get(type(t))) is not None:
        frames.append(t)
        t = getattr(t, hole)
    return t, tuple(reversed(frames))


def apply_stack(t: Term, s: tuple[Term, ...]) -> Term:
    """t with each eliminator of s, innermost first, put over it."""
    for f in s:
        t = with_child(f, 0, t)
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


PARALLEL_NODES = (ParBind, Contract)


def is_parallel_node(t: Term) -> bool:
    return isinstance(t, PARALLEL_NODES)


# ---------------------------------------------------------------------------
# substitution

def _map_free(t: Term, name: str, chan: bool, f, on_binder=None) -> Term:
    """t with f applied to every free occurrence of name: to its channel
    occurrences when chan, to its variable occurrences otherwise.

    The one walk of substitution and renaming, on an explicit stack. A
    child that a binder of name shields is not entered; on_binder, when
    given, maps each binder to the node to walk before the walk enters it,
    the root included: subst renames capturing binders apart there. The
    renaming walks that this starts (through rebind) get no on_binder, so
    walks nest at most two deep. A node none of whose children changed is
    returned itself, so it keeps its remembered facts.
    """
    occ, side = (Chan, 1) if chan else (Var, 0)
    # one frame per node entered and not finished: (node, its children,
    # their images so far, the indices of the children still to map, last
    # the one being mapped)
    frames = []
    s = t
    while True:
        cls = type(s)
        if cls is occ:
            out = f(s) if s.name == name else s
        elif not (cs := children(s)):
            out = s
        else:
            if cls in _BINDERS:
                if on_binder is not None:
                    s = on_binder(s)
                    cs = children(s)
                todo = [
                    i for i in range(len(cs) - 1, -1, -1)
                    if name not in binder_names(s, i)[side]
                ]
            else:
                todo = list(range(len(cs) - 1, -1, -1))
            if todo:
                frames.append((s, cs, list(cs), todo))
                s = cs[todo[-1]]
                continue
            out = s
        # out is the image of the node just finished: it goes to its parent
        while frames:
            node, cs, new, todo = frames[-1]
            new[todo.pop()] = out
            if todo:
                s = cs[todo[-1]]
                break
            frames.pop()
            out = node if all(map(is_, new, cs)) else with_children(node, tuple(new))
        else:
            return out


def rename_var(t: Term, old: str, new: str) -> Term:
    """Rename free occurrences of variable old to new, keeping occurrence types.

    new must be fresh for t, so no capture check is needed.
    """
    return _map_free(t, old, False, lambda v: Var(new, v.ty))


def subst(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of v for the free variable x in t."""
    fv, fc = free_names(v)
    unshadow = (lambda s: _unshadow(s, x, fv, fc)) if fv or fc else None
    return _map_free(t, x, False, lambda _: v, unshadow)


def _unshadow(t: Term, x: str, fv: frozenset[str], fc: frozenset[str]) -> Term:
    """t with each binder renamed that would capture a free name of the
    value substituted for x (fv, fc): a variable or a session's channel.
    A binder stays when x is not free in any child it binds, since nothing
    is substituted there; a new name is fresh for every such child."""
    for i in range(len(children(t))):
        vs, chs = binder_names(t, i)
        if x in vs or (fv.isdisjoint(vs) and fc.isdisjoint(chs)):
            continue
        b = binder(t, i)
        scope = [c for j, c in enumerate(children(t)) if binder(t, j) == b]
        if all(x not in free_vars(c) for c in scope):
            continue
        used = (fv if vs else fc) | {x}
        for c in scope:
            used |= all_names(c)
        t = rebind(t, i, fresh_name((vs + chs)[0], used))
    return t


def subst_chan_bare(t: Term, a: str, v: Term) -> Term:
    """Replace every free bare (non-negated) occurrence of channel a by v.

    Used by the dissolving cross rules, where every receiver occurrence gets
    the same closed message.
    """
    return _map_free(t, a, True, lambda c: c if c.negated else v)


def rename_chan(t: Term, old: str, new: str, active: bool) -> Term:
    """Rename free occurrences of channel old to new, setting the active flag."""
    return _map_free(t, old, True, lambda c: Chan(new, c.ty, active, c.negated))
