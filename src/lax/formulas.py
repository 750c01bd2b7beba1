"""Propositional formulas over ->, /\\, \\/ with Top and Bot.

Negation is not a connective: ~F is parsed as F -> Bot and printed back
the same way.
"""

from __future__ import annotations


class Formula:
    """A formula. The constructors hand out one object per structure, so
    formulas compare by identity (the default ==). Each stores, when it is
    built, its complexity and its hash: the hash of the tuple of its
    fields, as a frozen dataclass's."""

    __slots__ = ("_hash", "complexity")
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def _frozen(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of a formula")

    __setattr__ = __delattr__ = _frozen

    def __deepcopy__(self, memo) -> Formula:
        # copy and pickle rebuild through __reduce__, and the table gives
        # them this formula back; deepcopy would copy the children first,
        # by recursion
        return self

    def __reduce__(self):
        # one flat program, so pickle never descends into the children
        return _rebuilt, (_postfix(self),)

    def __str__(self) -> str:
        return show_formula(self)

    def __repr__(self) -> str:
        """Constructor syntax with field names, as a dataclass prints, on an
        explicit stack."""
        out: list[str] = []
        todo: list = [self]
        while todo:
            f = todo.pop()
            if type(f) is str:
                out.append(f)
            elif type(f) is Atom:
                out.append(f"Atom(name={f.name!r})")
            elif isinstance(f, _Binary):
                out.append(f"{type(f).__name__}(left=")
                todo += (")", f.right, ", right=", f.left)
            else:
                out.append(f"{type(f).__name__}()")
        return "".join(out)


# Every formula built, by structure: (Atom, name) for an atom, the class
# for a constant, (class, id(left), id(right)) for a connective. The ids
# are safe keys because the table keeps each formula, and so its children,
# alive.
_TABLE: dict = {}


def _made(key, cls, complexity: int, *values) -> Formula:
    f = object.__new__(cls)
    object.__setattr__(f, "_hash", hash(values))
    object.__setattr__(f, "complexity", complexity)
    for name, value in zip(cls._fields, values):
        object.__setattr__(f, name, value)
    # not a store: of two threads that build one formula at once, both get
    # the first one's
    return _TABLE.setdefault(key, f)


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str) -> Atom:
        f = _TABLE.get((cls, name))
        return _made((cls, name), cls, 0, name) if f is None else f


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls) -> Formula:
        f = _TABLE.get(cls)
        return _made(cls, cls, 0) if f is None else f


class Top(_Constant):
    __slots__ = ()


class Bot(_Constant):
    __slots__ = ()


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Formula:
        key = (cls, id(left), id(right))
        f = _TABLE.get(key)
        if f is None:
            # a hit needs no check: only formulas' ids are in the keys, and
            # another object's id could be reused once it is freed
            if not isinstance(left, Formula) or not isinstance(right, Formula):
                raise TypeError(f"{cls.__name__} of a non-formula: {left!r}, {right!r}")
            f = _made(key, cls, 1 + left.complexity + right.complexity, left, right)
        return f


class Impl(_Binary):
    __slots__ = ()


class Conj(_Binary):
    __slots__ = ()


class Disj(_Binary):
    __slots__ = ()


TOP = Top()
BOT = Bot()


def _postfix(f: Formula) -> tuple:
    """f as a postfix program over its distinct subformulas, children
    first: an atom is its name, a constant or a connective its class, and
    a subformula met again the number of its first appearance."""
    out: list = []
    number: dict[Formula, int] = {}
    todo: list = [(f, False)]
    while todo:
        g, ready = todo.pop()
        k = number.get(g)
        if k is not None:
            out.append(k)
        elif ready or not isinstance(g, _Binary):
            number[g] = len(number)
            out.append(g.name if type(g) is Atom else type(g))
        else:
            todo += ((g, True), (g.right, False), (g.left, False))
    return tuple(out)


def _rebuilt(program: tuple) -> Formula:
    """The formula _postfix(f) encodes, built through the constructors,
    so it is f itself."""
    made: list[Formula] = []
    stack: list[Formula] = []
    for x in program:
        if type(x) is int:
            stack.append(made[x])
            continue
        if type(x) is str:
            f = Atom(x)
        elif issubclass(x, _Binary):
            right = stack.pop()
            f = x(stack.pop(), right)
        else:
            f = x()
        made.append(f)
        stack.append(f)
    return stack.pop()


def neg(f: Formula) -> Formula:
    return Impl(f, BOT)


def complexity(f: Formula) -> int:
    """Number of connective occurrences (atoms and constants count 0),
    stored when f is built."""
    return f.complexity


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, including f itself."""
    out = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if g not in out:
            out.add(g)
            if isinstance(g, _Binary):
                todo += (g.right, g.left)
    return frozenset(out)


def proper_subformulas(f: Formula) -> frozenset[Formula]:
    return subformulas(f) - {f}


def prime_factors(f: Formula) -> tuple[Formula, ...]:
    """Split top-level conjunctions: A /\\ (B /\\ C) -> (A, B, C).

    Anything that is not a conjunction is its own single factor, so the
    result is never empty.
    """
    out = []
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) is Conj:
            todo += (g.right, g.left)
        else:
            out.append(g)
    return tuple(out)


def conj(factors: tuple[Formula, ...] | list[Formula]) -> Formula:
    """Right-nested conjunction of the factors; empty list gives Top."""
    fs = tuple(factors)
    if not fs:
        return TOP
    acc = fs[-1]
    for g in reversed(fs[:-1]):
        acc = Conj(g, acc)
    return acc


# precedence: -> (1, right assoc) < \/ (2) < /\ (3) < atoms. Each binary
# connective: its symbol, its own precedence, and the precedences its left
# and right operands are printed at.
_INFIX = {
    Impl: (" -> ", 1, 2, 1),
    Disj: (" \\/ ", 2, 3, 2),
    Conj: (" /\\ ", 3, 4, 3),
}
_CONSTANTS = {Top: "Top", Bot: "Bot"}


def show_formula(f: Formula, prec: int = 0) -> str:
    """f in the surface syntax, parenthesised as an operand at precedence
    prec needs. An explicit stack of formulas and closing text, so deep
    formulas do not exhaust the call stack."""
    out: list[str] = []
    todo: list = [(f, prec)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, prec = item
        cls = type(f)
        if cls is Atom:
            out.append(f.name)
        elif cls in _CONSTANTS:
            out.append(_CONSTANTS[cls])
        elif cls is Impl and type(f.right) is Bot:
            # print the sugar form; reparsing yields the same tree
            out.append("~")
            todo.append((f.left, 4))
        elif cls in _INFIX:
            symbol, own, left, right = _INFIX[cls]
            if prec > own:
                out.append("(")
                todo.append(")")
            todo += ((f.right, right), symbol, (f.left, left))
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)
