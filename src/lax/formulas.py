"""Propositional formulas over ->, /\\, \\/ with Top and Bot.

Negation is not a connective: ~F is parsed as F -> Bot and printed back
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return show_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Impl(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Conj(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Disj(Formula):
    left: Formula
    right: Formula


TOP = Top()
BOT = Bot()


def neg(f: Formula) -> Formula:
    return Impl(f, BOT)


def complexity(f: Formula) -> int:
    """Number of connective occurrences (atoms and constants count 0)."""
    if isinstance(f, (Atom, Top, Bot)):
        return 0
    assert isinstance(f, (Impl, Conj, Disj))
    return 1 + complexity(f.left) + complexity(f.right)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of f, including f itself."""
    out = {f}
    if isinstance(f, (Impl, Conj, Disj)):
        out |= subformulas(f.left)
        out |= subformulas(f.right)
    return frozenset(out)


def proper_subformulas(f: Formula) -> frozenset[Formula]:
    return subformulas(f) - {f}


def prime_factors(f: Formula) -> tuple[Formula, ...]:
    """Split top-level conjunctions: A /\\ (B /\\ C) -> (A, B, C).

    Anything that is not a conjunction is its own single factor, so the
    result is never empty.
    """
    if isinstance(f, Conj):
        return prime_factors(f.left) + prime_factors(f.right)
    return (f,)


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
