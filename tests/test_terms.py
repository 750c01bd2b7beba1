"""Node shapes and binding structure: children, rebuilding, binder
renaming, free names, renaming, substitution, channel substitution, and
alpha-equivalence, on terms built with the constructors (the parser's
hygiene would rename the clashes these tests need)."""

import dataclasses
import json
from importlib import resources
from operator import is_
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    App,
    Atom,
    Case,
    Chan,
    Disj,
    Efq,
    GenConfig,
    Impl,
    Inj,
    Lam,
    Pair,
    ParBind,
    Proj,
    TypingContext,
    Underline,
    Var,
    alpha_eq,
    check,
    em_axiom,
    find_redexes,
    free_chans,
    free_names,
    free_vars,
    generate,
    normalize,
    parse_program,
    redex_peaks,
    term_size,
)
from lax import rewrite, terms
from lax.rewrite import (
    contains_active_session,
    is_simply_typed,
    uppermost_active_sessions,
)
from lax.terms import (
    TT,
    all_names,
    binder_names,
    children,
    facts_of,
    fresh_name,
    node_data,
    rebind,
    replace_at,
    rename_chan,
    rename_var,
    subst,
    subst_chan_bare,
    subterm_at,
    with_child,
    with_children,
)

from oracles import (
    _free_names,
    _kids,
    _mentions_active_session,
    _mentions_parallel,
    fresh_copy,
    iter_subterms,
    replace_at_oracle,
    uppermost_active_oracle,
    with_kids_oracle,
)

A, B = Atom("A"), Atom("B")
EM = em_axiom(A)


def _run_states(t):
    _, trace = normalize(t, max_steps=10_000)
    return [t] + [s.term_after for s in trace.steps]


def _assert_free_names_match_the_oracle(states):
    for i, u in enumerate(states):
        want = _free_names(u)
        assert free_names(u) == want, f"state {i}"
        assert (free_vars(u), free_chans(u)) == want, f"state {i}"


def _example_states(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
    return _run_states(t)


EXAMPLES = ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"]


# --------------------------------------------------------------------------
# node shapes


def _preorder(t, path=()):
    yield path, t
    for i, c in enumerate(_kids(t)):
        yield from _preorder(c, path + (i,))


def _assert_shapes_match_the_oracle(states):
    for k, u in enumerate(states):
        nodes = list(_preorder(u))
        assert [p for p, _ in iter_subterms(u)] == [p for p, _ in nodes], f"state {k}"
        assert term_size(u) == len(nodes), f"state {k}"
        for _, s in nodes:
            kids = _kids(s)
            assert children(s) == kids, f"state {k}: {s}"
            assert with_children(s, children(s)) == s, f"state {k}: {s}"
            for i in range(len(kids)):
                vs, chs = binder_names(s, i)
                if not (vs or chs):
                    continue
                renamed = rebind(s, i, fresh_name((vs + chs)[0], all_names(s)))
                assert renamed != s and alpha_eq(renamed, s), f"state {k}: {s}"
                assert free_names(renamed) == free_names(s), f"state {k}: {s}"


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
)
def test_shapes_match_the_oracle_on_every_node(seed, preset_name):
    _, t = generate(seed, GenConfig(preset=preset_name, max_size=18))
    _assert_shapes_match_the_oracle(_run_states(t))


@pytest.mark.parametrize("name", EXAMPLES)
def test_shapes_match_the_oracle_on_the_examples(name):
    _assert_shapes_match_the_oracle(_example_states(name))


def _pair_chain(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = Pair(Var("x"), t)
    return t


def test_subst_asks_for_free_variables_once(monkeypatch):
    """Only v's free variables are needed when no binder is in the way; the
    walk used to ask at every node it descended through."""
    calls = []
    real = terms.free_occurrences

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(terms, "free_occurrences", counted)
    out = subst(_pair_chain(400, Var("x")), "x", Var("v"))
    assert len(calls) == 1
    leaves = [s.name for _, s in iter_subterms(out) if isinstance(s, Var)]
    assert leaves == ["v"] * 401


def test_the_walks_survive_a_deep_term():
    depth = 5_000
    t = _pair_chain(depth, Proj(Pair(Var("a"), Var("b")), 0))
    assert sum(1 for _ in iter_subterms(t)) == 2 * depth + 4
    assert term_size(t) == 2 * depth + 4
    assert [r.position for r in find_redexes(t)] == [(1,) * depth]
    assert is_simply_typed(t)
    assert not is_simply_typed(_pair_chain(depth, Underline(TT)))


def test_a_redex_at_the_bottom_of_a_deep_chain_normalizes():
    depth = 5_000
    t = _pair_chain(depth, Proj(Pair(Var("a"), Var("b")), 0))
    final, trace = normalize(t)
    assert [s.redex.position for s in trace.steps] == [(1,) * depth]
    assert subterm_at(final, (1,) * depth) == Var("a")
    assert term_size(final) == 2 * depth + 1
    # only the path is rebuilt; every sibling is shared
    out, old = replace_at(t, (1,) * depth, Var("c")), t
    for _ in range(depth):
        assert out is not old and out.left is old.left
        out, old = out.right, old.right
    assert out == Var("c")


# --------------------------------------------------------------------------
# rebuilding: one positional constructor call per node

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _frozen_and_example_terms():
    """The checked initial terms of the benchmark's 589 frozen programs,
    then every state of the five examples' runs."""
    for path in sorted(DATA.glob("*.jsonl")):
        for line in path.read_text().splitlines()[1:]:
            prog = parse_program(json.loads(line)["source"])
            yield check(prog.term, TypingContext(ivars=dict(prog.gamma)))[0]
    for name in EXAMPLES:
        yield from _example_states(name)


def test_the_builders_agree_with_replace_on_every_node():
    new = Var("new")
    seen = set()
    for t in _frozen_and_example_terms():
        for _, s in iter_subterms(t):
            seen.add(type(s))
            kids = children(s)
            out = with_children(s, kids)
            assert out == dataclasses.replace(s) and node_data(out) == node_data(s)
            assert all(map(is_, children(out), kids)), s
            if not kids:
                assert out is s
                continue
            assert out is not s and getattr(out, "_facts", None) is None
            for i in range(len(kids)):
                put = with_child(s, i, new)
                want = with_kids_oracle(s, kids[:i] + (new,) + kids[i + 1:])
                assert put == want and node_data(put) == node_data(s)
                assert all(map(is_, children(put), children(want))), (s, i)
    assert seen == set(terms._SHAPES)


@pytest.mark.parametrize("path", [(2,), (-1,), (0, 0), (1, -2)])
def test_replace_at_refuses_a_path_that_addresses_no_subterm(path):
    t = Pair(Var("a"), Case(Var("s"), "x", Var("x"), "y", Var("y")))
    with pytest.raises(IndexError):
        subterm_at(t, path)
    with pytest.raises(IndexError):
        replace_at(t, path, Var("new"))


def test_replace_at_rebuilds_the_path_and_shares_every_sibling():
    new = Var("new")
    for t in _frozen_and_example_terms():
        for path, _ in iter_subterms(t):
            out = replace_at(t, path, new)
            assert out == replace_at_oracle(t, path, new), path
            old = t
            for i in path:
                kids, was = children(out), children(old)
                assert all(kids[j] is was[j] for j in range(len(was)) if j != i)
                out, old = kids[i], was[i]
            assert out is new


# --------------------------------------------------------------------------
# remembered subtree facts


def _assert_subtree_facts_match_the_oracle(states):
    """The remembered subtree facts, asked top-down on each state and
    bottom-up on a fresh copy."""
    for k, u in enumerate(states):
        nodes = [s for _, s in iter_subterms(u)]
        copy = [s for _, s in iter_subterms(fresh_copy(u))]
        for s in nodes + copy[::-1]:
            assert is_simply_typed(s) == (not _mentions_parallel(s)), f"state {k}: {s}"
            assert contains_active_session(s) == _mentions_active_session(s), f"state {k}"
            assert free_chans(s) == _free_names(s)[1], f"state {k}: {s}"
        assert uppermost_active_sessions(u) == uppermost_active_oracle(u), f"state {k}"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
)
def test_subtree_facts_match_the_oracle_on_every_state(seed, preset_name):
    _, t = generate(seed, GenConfig(preset=preset_name, max_size=18))
    _assert_subtree_facts_match_the_oracle(_run_states(t))


@pytest.mark.parametrize("name", EXAMPLES)
def test_subtree_facts_match_the_oracle_on_the_examples(name):
    _assert_subtree_facts_match_the_oracle(_example_states(name))


def test_remembered_facts_leave_equality_hashing_and_repr_alone():
    t = _example_states("mobility")[0]
    copy = fresh_copy(t)
    find_redexes(t)
    is_simply_typed(t)
    assert t == copy and hash(t) == hash(copy) and repr(t) == repr(copy)
    # replace() builds a new node, which knows nothing yet
    assert facts_of(dataclasses.replace(t)).redexes is None


def _counting(calls):
    """A compute for terms.remembered that records each node it is run on."""
    def compute(s, kids):
        calls.append(s)
        return 1 + sum(kids)
    return compute


def test_remembered_computes_each_distinct_node_once():
    t = fresh_copy(_example_states("scheduler_c3")[3])
    calls = []
    size = terms.remembered(t, "peaks", _counting(calls))
    assert size == term_size(t) == len(calls)
    assert {id(s) for s in calls} == {id(s) for _, s in iter_subterms(t)}
    assert terms.remembered(t, "peaks", _counting(calls)) == size
    assert len(calls) == size  # the second call computes nothing


def test_remembered_computes_a_node_at_two_positions_once():
    x = fresh_copy(App(Lam("y", A, Var("y", A)), Var("z", A)))
    t = Pair(x, x)
    calls = []
    # x is entered from both positions; whichever comes second finds its
    # fact known
    assert terms.remembered(t, "peaks", _counting(calls)) == 1 + 2 * 4
    assert [type(s) for s in calls].count(App) == 1 and len(calls) == 5
    assert facts_of(x).peaks == 4


def test_remembered_never_computes_a_child_enter_skips(monkeypatch):
    """The peaks enter only the children with a redex below; the others are
    never computed and keep no peaks."""
    t = fresh_copy(_example_states("mobility")[0])
    calls = []
    real = rewrite._node_peaks
    monkeypatch.setattr(
        rewrite, "_node_peaks", lambda s, kids, d: calls.append(s) or real(s, kids, d)
    )
    redex_peaks(t)
    entered, todo = [], [t]
    while todo:
        s = todo.pop()
        entered.append(s)
        todo.extend(rewrite._with_redexes(s))
    assert {id(s) for s in calls} == {id(s) for s in entered}
    assert len(calls) == len(entered) < term_size(t)
    skipped = [s for _, s in iter_subterms(t) if all(s is not c for c in entered)]
    assert skipped and all(facts_of(s).peaks is None for s in skipped)


# --------------------------------------------------------------------------
# substitution


def test_subst_renames_a_nu_binder_the_value_mentions():
    """The substituted channel a stays free: the session's a is renamed in
    every component, also the one where x does not occur."""
    t = ParBind("a", False, EM, (Var("x"), Chan("a")))
    assert subst(t, "x", Chan("a")) == ParBind("a0", False, EM, (Chan("a"), Chan("a0")))
    t = ParBind("a", False, EM, (Chan("a"), Var("x")))
    assert subst(t, "x", Chan("a")) == ParBind("a0", False, EM, (Chan("a0"), Chan("a")))
    # nothing to rename where x does not occur
    t = ParBind("a", False, EM, (Var("y"), Chan("a")))
    assert subst(t, "x", Chan("a")) is t


def test_subst_renames_a_lambda_binder_the_value_mentions():
    # the fresh name avoids v (y0), the body (y1) and x (y2)
    v = Pair(Var("y"), Var("y0"))
    t = Lam("y", A, Pair(Var("y2"), Pair(Var("y"), Var("y1"))))
    want = Lam("y3", A, Pair(v, Pair(Var("y3"), Var("y1"))))
    assert subst(t, "y2", v) == want


def test_subst_renames_a_case_branch_binder_the_value_mentions():
    v = Pair(Var("y"), Var("y0"))
    t = Case(Var("y2"), "y", Pair(Var("y2"), Var("y1")), "y", Var("y"))
    want = Case(v, "y3", Pair(v, Var("y1")), "y", Var("y"))
    assert subst(t, "y2", v) == want


def test_subst_leaves_a_binder_of_x_alone():
    v = Var("y")
    lam = Lam("x", A, Pair(Var("x"), Var("y")))
    assert subst(lam, "x", v) == lam
    case = Case(Var("x"), "x", Var("x"), "z", Var("x"))
    assert subst(case, "x", v) == Case(v, "x", Var("x"), "z", v)
    # a binder v mentions stays when x is not free below it
    assert subst(Lam("y", A, Var("y")), "x", v) == Lam("y", A, Var("y"))


# --------------------------------------------------------------------------
# free names


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
)
def test_free_names_match_the_oracle_on_every_state(seed, preset_name):
    """Beta duplicates binders, so later states shadow names the initial
    term keeps apart."""
    _, t = generate(seed, GenConfig(preset=preset_name, max_size=18))
    _assert_free_names_match_the_oracle(_run_states(t))


@pytest.mark.parametrize("name", EXAMPLES)
def test_free_names_match_the_oracle_on_the_examples(name):
    _assert_free_names_match_the_oracle(_example_states(name))


def test_free_names_see_through_shadowing():
    # x is bound in the left branch only; a is free outside its own nu
    t = Pair(
        Case(Var("x"), "x", Var("x"), "y", Var("x")),
        App(Chan("a"), ParBind("a", False, EM, (Chan("a"), Var("a")))),
    )
    assert free_names(t) == (frozenset({"x", "a"}), frozenset({"a"}))


# --------------------------------------------------------------------------
# namespaces stay apart


def test_rename_var_passes_through_a_nu_binding_its_name():
    t = ParBind("x", False, EM, (Var("x"), Chan("x")))
    want = ParBind("x", False, EM, (Var("z"), Chan("x")))
    assert rename_var(t, "x", "z") == want


def test_rename_var_stops_at_a_binder_of_its_name():
    t = Pair(Var("x"), Lam("x", A, Var("x")))
    assert rename_var(t, "x", "z") == Pair(Var("z"), Lam("x", A, Var("x")))
    c = Case(Var("x"), "x", Var("x"), "y", Var("x"))
    assert rename_var(c, "x", "z") == Case(Var("z"), "x", Var("x"), "y", Var("z"))


def test_rename_chan_passes_through_a_lambda_and_stops_at_a_nu():
    t = Pair(
        Lam("a", A, App(Chan("a"), Var("a"))),
        ParBind("a", False, EM, (Chan("a"),)),
    )
    want = Pair(
        Lam("a", A, App(Chan("b", active=True), Var("a"))),
        ParBind("a", False, EM, (Chan("a"),)),
    )
    assert rename_chan(t, "a", "b", True) == want


def test_subst_chan_bare_passes_through_a_lambda_and_stops_at_a_nu():
    msg = Var("m")
    t = Pair(
        Lam("a", A, Pair(Chan("a"), Chan("a", negated=True))),
        Underline(ParBind("a", False, EM, (Chan("a"),))),
    )
    want = Pair(
        Lam("a", A, Pair(msg, Chan("a", negated=True))),
        Underline(ParBind("a", False, EM, (Chan("a"),))),
    )
    assert subst_chan_bare(t, "a", msg) == want


def _assert_shared_where_not_free(old, new, a):
    """Every child of old in which the channel a is not free is the same
    object in new, at every depth."""
    todo = [(old, new)]
    while todo:
        old, new = todo.pop()
        if a not in free_chans(old):
            assert new is old
        elif new is not old:
            todo.extend(zip(children(old), children(new)))


@pytest.mark.parametrize("name", EXAMPLES)
def test_channel_renaming_and_substitution_keep_what_they_do_not_change(name):
    """Each session's channel, renamed or substituted in each of its
    components, in every state of the example's run."""
    seen = 0
    for state in _example_states(name):
        for _, s in iter_subterms(state):
            if not isinstance(s, ParBind):
                continue
            for c in s.comps:
                seen += 1
                for out in (
                    rename_chan(c, s.chan, "fresh", True),
                    subst_chan_bare(c, s.chan, Var("m")),
                ):
                    _assert_shared_where_not_free(c, out, s.chan)
    assert seen


# --------------------------------------------------------------------------
# alpha-equivalence


def test_renaming_a_bound_variable_is_alpha_equivalent():
    assert alpha_eq(Lam("x", A, Var("x")), Lam("y", A, Var("y")))
    assert alpha_eq(
        Case(Var("s"), "x", Var("x"), "y", Var("y")),
        Case(Var("s"), "u", Var("u"), "v", Var("v")),
    )


def test_renaming_a_bound_channel_is_alpha_equivalent():
    assert alpha_eq(
        ParBind("a", True, EM, (App(Chan("a", active=True), TT), Chan("a", active=True))),
        ParBind("b", True, EM, (App(Chan("b", active=True), TT), Chan("b", active=True))),
    )


DISJ = Disj(A, B)
DIFFERENT_FIELDS = {
    "lambda annotation": (Lam("x", A, Var("x")), Lam("x", B, Var("x"))),
    "projection index": (Proj(Var("p"), 0), Proj(Var("p"), 1)),
    "injection index": (Inj(0, DISJ, Var("a")), Inj(1, DISJ, Var("a"))),
    "injection annotation": (Inj(0, DISJ, Var("a")), Inj(0, Disj(A, A), Var("a"))),
    "efq target": (Efq(Var("f"), A), Efq(Var("f"), B)),
    "session activity": (
        ParBind("a", False, EM, (TT, TT)),
        ParBind("a", True, EM, (TT, TT)),
    ),
    "session axiom": (
        ParBind("a", False, EM, (TT, TT)),
        ParBind("a", False, em_axiom(B), (TT, TT)),
    ),
    "session arity": (
        ParBind("a", False, EM, (TT, TT)),
        ParBind("a", False, EM, (TT, TT, TT)),
    ),
    "channel polarity": (Chan("a"), Chan("a", negated=True)),
    "channel activity": (Chan("a"), Chan("a", active=True)),
    "binding depth": (
        Lam("x", A, Lam("y", A, Var("x"))),
        Lam("x", A, Lam("y", A, Var("y"))),
    ),
    "bound against free": (Lam("x", A, Var("x")), Lam("x", A, Var("z"))),
    "free spelling": (Var("x"), Var("y")),
    "variable against channel": (Var("a"), Chan("a")),
}


@pytest.mark.parametrize("field", sorted(DIFFERENT_FIELDS))
def test_alpha_eq_tells_apart(field):
    t1, t2 = DIFFERENT_FIELDS[field]
    assert alpha_eq(t1, t1) and alpha_eq(t2, t2)
    assert not alpha_eq(t1, t2)
    assert not alpha_eq(t2, t1)


def test_a_variable_binder_does_not_bind_a_channel_of_its_name():
    """The channel occurrence a belongs to the nu, whichever name the
    lambda between them binds."""
    assert alpha_eq(
        ParBind("a", False, EM, (Lam("a", A, Chan("a")), TT)),
        ParBind("a", False, EM, (Lam("b", A, Chan("a")), TT)),
    )


def test_alpha_eq_ignores_occurrence_types():
    assert alpha_eq(Var("x", A), Var("x"))
    assert alpha_eq(Chan("a", Impl(A, B)), Chan("a"))
