"""Axiom schemes: construction, validation, routing, presets."""

from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from lax import (
    BOT,
    TOP,
    Atom,
    AxiomScheme,
    AxiomValidationError,
    Impl,
    broadcast_axiom,
    cyclic_axiom,
    em_axiom,
    general_axiom,
    goedel_axiom,
    neg,
    parse_axiom,
    preset,
    show_axiom,
)
from lax.axioms import _PRESETS

from oracles import is_tautology_oracle

A, B, C = Atom("A"), Atom("B"), Atom("C")


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def test_em_shape():
    ax = em_axiom(A)
    assert ax.mode == "em"
    assert ax.arity == 2
    assert ax.occurrence_type(0) == neg(A)
    assert ax.occurrence_type(1) == A
    assert ax.occurrence_negated(0) and not ax.occurrence_negated(1)
    assert not ax.bare_allowed(0) and ax.bare_allowed(1)


def test_broadcast_shape():
    ax = broadcast_axiom(A, 3)
    assert ax.arity == 4
    assert ax.occurrence_type(0) == neg(A)
    for i in (1, 2, 3):
        assert ax.occurrence_type(i) == A
        assert ax.bare_allowed(i)
    with pytest.raises(AxiomValidationError):
        broadcast_axiom(A, 0)


def test_general_occurrences_are_component_implications():
    ax = general_axiom(((A, B), (B, A)))
    assert ax.arity == 2
    assert ax.occurrence_type(0) == Impl(A, B)
    assert ax.occurrence_type(1) == Impl(B, A)
    assert not ax.occurrence_negated(0)
    assert not ax.bare_allowed(0)


def test_routing_map_points_at_matching_antecedent():
    ax = cyclic_axiom([A, B, C])
    # consequent of component i is the antecedent of component i+1
    assert ax.jmap == (1, 2, 0)
    g2 = goedel_axiom(A, B)
    assert g2.jmap == (1, None)  # Bot consequent routes nowhere


def test_duplicate_antecedents_rejected():
    with pytest.raises(AxiomValidationError) as exc:
        general_axiom(((A, B), (A, C)))
    assert "more than once" in str(exc.value)


def test_unmatched_consequent_rejected():
    with pytest.raises(AxiomValidationError):
        general_axiom(((A, B), (C, A)))  # B matches no antecedent


def test_component_shape_restrictions():
    with pytest.raises(AxiomValidationError):
        general_axiom(((Impl(A, B), A), (A, BOT)))
    with pytest.raises(AxiomValidationError):
        general_axiom(((A, Impl(A, B)),) * 2)
    with pytest.raises(AxiomValidationError):
        general_axiom(((A, B),))


def test_a_scheme_whose_consequents_are_all_bot_is_rejected():
    """Top -> Bot, A -> Bot fails when A holds; accepting it proves ~A."""
    with pytest.raises(AxiomValidationError) as exc:
        general_axiom(((TOP, BOT), (A, BOT)))
    assert exc.value.code == "NotATautology"
    assert parse_axiom("AX!{Top -> Bot, A -> Bot}").derived


def test_the_validator_accepts_exactly_the_tautologies():
    """Every scheme of arity 2 to 4 with distinct antecedents from Top, A,
    B, C, D and consequents from Bot, A, B, C, D: accepted exactly when its
    consequents match antecedents and the truth table says tautology."""
    letters = [TOP, A, B, C, Atom("D")]
    consequents = [BOT] + letters[1:]
    seen = {"accepted": 0, "NotATautology": 0, "UnmatchedAntecedent": 0}
    for n in (2, 3, 4):
        for ants in permutations(letters, n):
            for gs in product(consequents, repeat=n):
                comps = tuple(zip(ants, gs))
                try:
                    general_axiom(comps)
                    code = "accepted"
                except AxiomValidationError as e:
                    code = e.code
                matched = all(g == BOT or g in ants for g in gs)
                want = "accepted" if is_tautology_oracle(comps) else "NotATautology"
                assert code == (want if matched else "UnmatchedAntecedent"), comps
                seen[code] += 1
    assert min(seen.values()) > 0


def test_derived_schemes_skip_the_shape_check():
    """Mid-run crosses can leave compound antecedents behind; those schemes
    are marked derived and only need the routing map to stay total."""
    ax = general_axiom(((Impl(A, B), BOT), (TOP, Impl(A, B))), derived=True)
    assert ax.derived
    assert show_axiom(ax).startswith("AX!{")
    with pytest.raises(AxiomValidationError):
        general_axiom(((Impl(A, B), BOT), (TOP, Impl(A, B))))


def test_presets_cover_the_documented_names():
    assert preset_names() == ["c3", "em", "em3", "g2", "godel"]
    assert preset("em").mode == "em"
    assert preset("em3").mode == "broadcast" and preset("em3").fanout == 3
    assert preset("c3").arity == 3
    assert preset("g2").jmap == (1, None)
    assert preset("godel").jmap == (1, 0)
    with pytest.raises(KeyError):
        preset("em4")


@given(st.sampled_from(["em", "em3", "c3", "g2", "godel"]))
def test_show_parse_round_trip_on_presets(name):
    ax = preset(name)
    assert parse_axiom(show_axiom(ax)) == ax


def test_show_parse_round_trip_on_derived():
    ax = general_axiom(((Impl(A, B), BOT), (TOP, Impl(A, B))), derived=True)
    assert parse_axiom(show_axiom(ax)) == ax


def test_scheme_is_hashable_and_frozen():
    ax = em_axiom(A)
    assert hash(ax) == hash(em_axiom(A))
    with pytest.raises(Exception):
        ax.mode = "general"


def test_arity_bounds_are_enforced():
    ax = cyclic_axiom([A, B])
    with pytest.raises(Exception):
        ax.occurrence_type(2)
