"""The typed-term generator: determinism, typing, structural promises."""

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    Atom,
    Case,
    GenConfig,
    Impl,
    ParBind,
    TypingContext,
    check,
    default_context,
    free_chans,
    free_vars,
    generate,
    generate_corpus,
    infer_type,
    term_size,
)
from lax.rewrite import is_simply_typed
from lax.terms import children

from oracles import iter_subterms

PRESETS = ["em", "em3", "c3", "g2", "godel"]


def test_same_seed_same_term():
    a = generate(20240817, GenConfig(preset="c3", max_size=30))
    b = generate(20240817, GenConfig(preset="c3", max_size=30))
    assert a == b


def test_corpus_is_deterministic_and_sized():
    cfg = GenConfig(preset="em", max_size=20)
    xs = list(generate_corpus(5, 25, cfg))
    ys = list(generate_corpus(5, 25, cfg))
    assert xs == ys
    assert len(xs) == 25


@pytest.mark.parametrize("size", [0, -5])
def test_a_size_budget_below_one_is_refused(size):
    with pytest.raises(ValueError, match="max_size must be at least 1"):
        GenConfig(preset="em", max_size=size)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS + [None]))
def test_generated_terms_type_in_their_context(seed, preset):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=24))
    infer_type(t, TypingContext(ivars=gamma))
    assert set(free_vars(t)) <= set(gamma)
    assert not (free_chans(t) - set())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS))
def test_size_budget_is_respected(seed, preset):
    cfg = GenConfig(preset=preset, max_size=18)
    _, t = generate(seed, cfg)
    assert term_size(t) <= 18


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_closed_mode_yields_closed_terms(seed):
    gamma, t = generate(seed, GenConfig(preset="em", max_size=24, closed=True))
    assert gamma == {}
    assert not free_vars(t) and not free_chans(t)
    check(t)


def test_goal_is_honored():
    goal = Impl(Atom("A"), Atom("A"))
    gamma, t = generate(3, GenConfig(preset=None, max_size=20, goal=goal))
    assert infer_type(t, TypingContext(ivars=gamma)) == goal


def test_no_preset_means_no_sessions():
    for seed in range(30):
        _, t = generate(seed, GenConfig(preset=None, max_size=22))
        assert is_simply_typed(t)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS))
def test_sessions_match_their_preset(seed, preset):
    _, t = generate(seed, GenConfig(preset=preset, max_size=26))
    for _, s in iter_subterms(t):
        if not isinstance(s, ParBind):
            continue
        ax = s.axiom
        if preset == "em":
            assert ax.mode == "em"
        elif preset == "em3":
            assert ax.mode == "broadcast" and ax.fanout == 3
        else:
            assert ax.mode == "general"
            assert len(s.comps) == ax.arity


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS))
def test_sessions_stay_out_of_case_branches(seed, preset):
    """Sessions under a branch binder cannot be permuted to the top, so the
    generator must never put them there."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=30))

    def no_sessions(s):
        return not any(isinstance(x, ParBind) for _, x in iter_subterms(s))

    for _, s in iter_subterms(t):
        if isinstance(s, Case):
            assert no_sessions(s.lbody) and no_sessions(s.rbody)


def test_default_context_is_the_documented_one():
    gamma = default_context()
    assert set(gamma) == {"va", "vb", "vc", "vp", "vq", "vf", "w0"}
    assert gamma["vf"] == Impl(Atom("A"), Atom("B"))


def test_sessions_actually_occur():
    cfg = GenConfig(preset="c3", max_size=35)
    with_sessions = sum(
        1
        for _, t in generate_corpus(1234, 60, cfg)
        if any(isinstance(s, ParBind) for _, s in iter_subterms(t))
    )
    assert with_sessions >= 15
