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


# precedence: -> (1, right assoc) < \/ (2) < /\ (3) < atoms
def show_formula(f: Formula, prec: int = 0) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "Top"
    if isinstance(f, Bot):
        return "Bot"
    if isinstance(f, Impl):
        if isinstance(f.right, Bot):
            # print the sugar form; reparsing yields the same tree
            return "~" + show_formula(f.left, 4)
        s = show_formula(f.left, 2) + " -> " + show_formula(f.right, 1)
        return "(" + s + ")" if prec > 1 else s
    if isinstance(f, Disj):
        s = show_formula(f.left, 3) + " \\/ " + show_formula(f.right, 2)
        return "(" + s + ")" if prec > 2 else s
    if isinstance(f, Conj):
        s = show_formula(f.left, 4) + " /\\ " + show_formula(f.right, 3)
        return "(" + s + ")" if prec > 3 else s
    raise TypeError(f"not a formula: {f!r}")
