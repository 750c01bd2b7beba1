"""Formula algebra: connectives, measures, decompositions, printing."""

import copy
import json
import pickle
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lax import (
    BOT,
    TOP,
    Atom,
    Bot,
    Conj,
    Disj,
    Impl,
    Pair,
    ParBind,
    Top,
    TypingContext,
    Var,
    check_subformula,
    complexity,
    infer_type,
    neg,
    parse_formula,
    parse_program,
    prime_factors,
    proper_subformulas,
    show_formula,
    subformulas,
)

from oracles import _formula_weight, dataclass_oracle, iter_subterms, show_formula_oracle

atoms = st.sampled_from([Atom("A"), Atom("B"), Atom("C"), Atom("P1"), TOP, BOT])
formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(Impl, sub, sub),
        st.builds(Conj, sub, sub),
        st.builds(Disj, sub, sub),
    ),
    max_leaves=12,
)


def test_negation_is_implication_into_absurdity():
    a = Atom("A")
    assert neg(a) == Impl(a, Bot())
    assert neg(neg(a)) == Impl(Impl(a, Bot()), Bot())


def test_complexity_counts_connectives():
    a, b = Atom("A"), Atom("B")
    assert complexity(a) == 0
    assert complexity(TOP) == 0
    assert complexity(Impl(a, b)) == 1
    assert complexity(Disj(Conj(a, b), Impl(a, BOT))) == 3


def test_constants_are_singletons_by_equality():
    assert Top() == TOP
    assert Bot() == BOT
    assert Top() != Bot()
    assert Atom("A") != Atom("B")


@given(formulas)
def test_subformulas_contains_self_and_is_transitively_closed(f):
    subs = subformulas(f)
    assert f in subs
    for g in subs:
        assert subformulas(g) <= subs


@given(formulas)
def test_proper_subformulas_drops_exactly_self(f):
    assert proper_subformulas(f) == subformulas(f) - {f}


@given(formulas)
def test_complexity_strictly_dominates_subformulas(f):
    for g in proper_subformulas(f):
        assert complexity(g) < complexity(f)


@given(formulas)
def test_prime_factors_multiply_back(f):
    """Factors are conjunction-free and joining them restores the formula
    up to reassociation (right-nesting)."""
    factors = prime_factors(f)
    assert factors
    for g in factors:
        assert not isinstance(g, Conj)
    rebuilt = factors[-1]
    for g in reversed(factors[:-1]):
        rebuilt = Conj(g, rebuilt)
    assert prime_factors(rebuilt) == factors


@given(formulas)
def test_show_parse_round_trip(f):
    assert parse_formula(show_formula(f)) == f


def test_show_formula_precedence():
    a, b, c = Atom("A"), Atom("B"), Atom("C")
    assert show_formula(Impl(a, Impl(b, c))) == "A -> B -> C"
    assert show_formula(Impl(Impl(a, b), c)) == "(A -> B) -> C"
    assert show_formula(Conj(a, Disj(b, c))) == "A /\\ (B \\/ C)"
    assert show_formula(Disj(Conj(a, b), c)) == "A /\\ B \\/ C"


def test_parse_formula_sugar():
    assert parse_formula("~A") == neg(Atom("A"))
    assert parse_formula("~~A") == neg(neg(Atom("A")))
    assert parse_formula("A /\\ B -> Bot") == Impl(Conj(Atom("A"), Atom("B")), BOT)
    assert parse_formula("A \\/ Top") == Disj(Atom("A"), TOP)


# --------------------------------------------------------------------------
# the printer on an explicit stack against the recursive one


@cache
def _corpus_formulas():
    """Every formula the frozen programs write: declared types, binder,
    injection and efq annotations, axiom formulas, and each program's type."""
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    out = []
    for path in sorted(data.glob("*.jsonl")):
        for line in path.read_text().splitlines()[1:]:
            prog = parse_program(json.loads(line)["source"])
            out += prog.gamma.values()
            for _, s in iter_subterms(prog.term):
                out += [getattr(s, f) for f in ("ann", "disj", "target") if hasattr(s, f)]
                if isinstance(s, ParBind):
                    ax = s.axiom
                    out += [ax.carrier] if ax.carrier else []
                    out += [f for comp in ax.components for f in comp]
            out.append(infer_type(prog.term, TypingContext(ivars=dict(prog.gamma))))
    return out


def test_show_formula_prints_the_frozen_corpus_as_the_recursive_printer():
    formulas = _corpus_formulas()
    assert len(formulas) > 5_000
    for f in formulas:
        for prec in range(5):
            assert show_formula(f, prec) == show_formula_oracle(f, prec)


@given(formulas, st.integers(0, 4))
def test_show_formula_prints_as_the_recursive_printer(f, prec):
    assert show_formula(f, prec) == show_formula_oracle(f, prec)


def test_show_formula_prints_a_deep_formula():
    f = Atom("A")
    for _ in range(5_000):
        f = Conj(Atom("A"), Impl(f, BOT))
    assert show_formula(f) == "A /\\ ~(" * 4_999 + "A /\\ ~A" + ")" * 4_999


# --------------------------------------------------------------------------
# interning: one object per structure, against the recursive definitions


def _interned_as_the_oracles_say(f):
    assert complexity(f) == f.complexity == _formula_weight(f)
    as_dataclass = dataclass_oracle(f)
    assert hash(f) == hash(as_dataclass)
    assert repr(f) == repr(as_dataclass)
    assert parse_formula(show_formula(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    if isinstance(f, (Impl, Conj, Disj)):
        for cls in (Impl, Conj, Disj):
            g = cls(f.left, f.right)
            assert type(g) is cls and (g is f) == (cls is type(f))


def test_the_frozen_corpus_is_interned_as_the_oracles_say():
    formulas = _corpus_formulas()
    assert len(formulas) > 5_000
    by_structure = {}
    for f in formulas:
        _interned_as_the_oracles_say(f)
        # structurally equal formulas are one object, and only they
        assert by_structure.setdefault(dataclass_oracle(f), f) is f
    assert len(by_structure) == len({id(f) for f in formulas})


@given(formulas, formulas)
def test_formulas_are_interned_as_the_oracles_say(f, g):
    _interned_as_the_oracles_say(f)
    assert (f is g) == (f == g) == (dataclass_oracle(f) == dataclass_oracle(g))


def test_a_formula_refuses_assignment():
    a = Atom("A")
    for f, field in [(a, "name"), (TOP, "complexity"), (Impl(a, BOT), "left"),
                     (Conj(a, a), "right"), (Disj(a, a), "extra")]:
        with pytest.raises(AttributeError):
            setattr(f, field, a)
        with pytest.raises(AttributeError):
            delattr(f, field)
    assert Impl(a, BOT).left is a and a.name == "A"


def test_a_connective_of_a_non_formula_is_refused():
    with pytest.raises(TypeError):
        Impl("A", BOT)
    with pytest.raises(TypeError):
        Conj(BOT, None)


# --------------------------------------------------------------------------
# depth: nothing on a formula recurses


def _chain(n: int):
    """P{n-1} /\\ ... /\\ P0 /\\ A, built from the bottom up."""
    f = Atom("A")
    for i in range(n):
        f = Conj(Atom(f"P{i}"), f)
    return f


_FACTORS = tuple(Atom(f"P{i}") for i in reversed(range(5_000))) + (Atom("A"),)


@pytest.mark.parametrize("holds", [
    lambda f, g: f == g and f is g and f != _chain(4_999),
    lambda f, g: hash(f) == hash(g) != hash(_chain(4_999)),
    lambda f, g: complexity(f) == 5_000,
    lambda f, g: len(subformulas(f)) == 10_001 and _chain(2_500) in subformulas(g),
    lambda f, g: proper_subformulas(f) == subformulas(g) - {f},
    lambda f, g: prime_factors(f) == _FACTORS,
    lambda f, g: show_formula(f) == " /\\ ".join(map(show_formula, _FACTORS)),
    lambda f, g: repr(f).startswith("Conj(left=Atom(name='P4999'), right=Conj("),
    lambda f, g: copy.deepcopy(f) is f,
    lambda f, g: copy.copy(f) is f and pickle.loads(pickle.dumps(f)) is g,
], ids=["eq", "hash", "complexity", "subformulas", "proper_subformulas",
        "prime_factors", "show_formula", "repr", "deepcopy", "pickle"])
def test_a_deep_formula_needs_no_recursion(holds):
    """Two 5 000-deep conjunctions, built apart."""
    assert holds(_chain(5_000), _chain(5_000))


def test_a_formula_pickles_each_subformula_once():
    """5 000 levels whose two sides are one subformula: the pickle grows
    with the depth, not with the tree, and loads as the formula itself."""
    f = Atom("A")
    for _ in range(5_000):
        f = Impl(f, Conj(f, TOP))
    data = pickle.dumps(f)
    assert len(data) < 100_000
    assert pickle.loads(data) is f


def test_the_subformula_property_reads_a_deep_context():
    deep = _chain(5_000)
    x, y = Var("x", deep), Var("y", Impl(deep, BOT))
    ctx = TypingContext(ivars={"x": deep, "y": y.ty})
    for t in (x, Pair(x, y)):
        assert check_subformula(ctx, t).holds
