"""Single-step reduction: values, complexity measures, discovery, contraction."""

import dataclasses
import json
import random
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    TOP,
    App,
    Atom,
    Bot,
    Case,
    Chan,
    Conj,
    Disj,
    Efq,
    GenConfig,
    Impl,
    Inj,
    InvalidRedex,
    Lam,
    NotSimplyTyped,
    Pair,
    ParBind,
    Proj,
    RedexKind,
    Top,
    TypingContext,
    Var,
    alpha_eq,
    audit_trace,
    check,
    check_subject_reduction,
    default_context,
    em_axiom,
    find_redexes,
    generate,
    generate_corpus,
    height,
    is_parallel_form,
    is_value,
    normalize,
    parse_program,
    parse_term,
    redexes_at,
    session_comm_complexity,
    show_term,
    step,
    value_complexity,
)
from lax import rewrite
from lax.rewrite import (
    CHASE,
    CROSSES,
    GROUP1,
    GROUP2,
    INTUITIONISTIC,
    PEAK_GROUPS,
    Occurrence,
    Redex,
    _inactive_scan,
    _rightmost,
    _scanned,
    _sends,
    _sends_on,
    contains_active_session,
    is_simply_typed,
    pick_redex,
    redex_peaks,
)
from lax.terms import (
    children,
    comp_body,
    comp_marked,
    facts_of,
    free_chans,
    free_names,
    is_parallel_node,
    rename_chan,
    replace_at,
    subterm_at,
)

from oracles import (
    _free_names,
    _mentions_parallel,
    _occurrences,
    apply_stack,
    brute_force_redexes,
    chan_occurrences,
    find_redexes_oracle,
    fresh_copy,
    iter_subterms,
    leftmost_innermost_oracle,
    random_order_run,
    random_stack,
    value_complexity_oracle,
)

A, B, C, Z, V = Atom("A"), Atom("B"), Atom("C"), Atom("Z"), Atom("V0")


def _typed(src, gamma=None):
    gamma = dict(gamma or {})
    t, _ = check(parse_term(src, gamma), TypingContext(ivars=gamma))
    return t


def _step_rule(t, rule):
    matches = [r for r in find_redexes(t) if rule in r.rule]
    assert matches, f"no {rule} redex in {show_term(t)}"
    return step(t, matches[0])


def _eq(t, src, gamma=None):
    return alpha_eq(t, _typed(src, gamma))


def _run_states(t, discipline=False):
    """Every state of the strategy's run from t, and its trace."""
    _, trace = normalize(t, max_steps=10_000, underline_discipline=discipline)
    return [t] + [s.term_after for s in trace.steps], trace


def _assert_discovery_matches_the_oracle(states, discipline):
    for i, u in enumerate(states):
        got = {(r.rule, r.position) for r in find_redexes(u, discipline)}
        assert got == brute_force_redexes(u, discipline), f"state {i}"


# the strategy's phase sets, and each kind alone (its activation,
# parallel-form and garbage-sweep sets among them)
KIND_SETS = [INTUITIONISTIC, CHASE] + [frozenset({k}) for k in RedexKind]


def _assert_kinds_filter_the_full_list(states, discipline):
    for i, u in enumerate(states):
        everything = find_redexes(u, discipline)
        for kinds in KIND_SETS:
            want = [r for r in everything if r.kind in kinds]
            assert find_redexes(u, discipline, kinds) == want, f"state {i}"


def _assert_remembered_discovery_matches_the_oracle(states, discipline):
    """The kind-restricted walks run first, so sessions are scanned on the
    demand of the strategy's sets before the full list asks for them all."""
    for i, u in enumerate(states):
        got = [find_redexes(u, discipline, kinds) for kinds in KIND_SETS + [None]]
        want = [find_redexes_oracle(u, discipline, kinds) for kinds in KIND_SETS + [None]]
        assert got == want, f"state {i}"


def _assert_answers_repeat(states, discipline):
    """Asked again, and on a fresh copy first asked under the other
    discipline, discovery gives the same lists."""
    for i, u in enumerate(states):
        first = [find_redexes(u, discipline, kinds) for kinds in [None] + KIND_SETS]
        again = [find_redexes(u, discipline, kinds) for kinds in [None] + KIND_SETS]
        copy = fresh_copy(u)
        assert copy == u and copy is not u
        find_redexes(copy, not discipline)
        fresh = [find_redexes(copy, discipline, kinds) for kinds in [None] + KIND_SETS]
        assert first == again == fresh, f"state {i}"
        assert find_redexes(u, not discipline) == find_redexes(copy, not discipline)


# --------------------------------------------------------------------------
# values

def test_value_witnesses():
    from lax import Disj

    assert is_value(_typed("\\x : A. x"))
    assert is_value(_typed("inj0[A \\/ B](x)", {"x": A}))
    assert is_value(_typed("efq[A](z)", {"z": Bot()}))
    assert is_value(_typed("case s of {u. u | w. w}", {"s": Disj(A, A)}))


def test_non_values():
    assert not is_value(_typed("tt"))
    assert not is_value(_typed("x", {"x": A}))
    assert not is_value(_typed("f x", {"f": Impl(A, B), "x": A}))
    assert not is_value(_typed("<x, y>", {"x": A, "y": B}))


def test_tuple_with_one_witness_is_a_value():
    assert is_value(_typed("<x, \\y : A. y>", {"x": A}))
    assert is_value(_typed("<\\y : A. y, x>", {"x": A}))


def test_active_channel_spine_is_a_value():
    t = Chan("a", ty=Impl(A, B), active=True)
    assert is_value(t)
    assert not is_value(Chan("a", ty=Impl(A, B), active=False))


def test_value_complexity_of_abstractions_and_injections():
    assert value_complexity(_typed("\\x : A. x")) == 1  # A -> A
    assert value_complexity(_typed("\\x : A. \\y : B. x")) == 2
    assert value_complexity(_typed("inj0[A \\/ B](x)", {"x": A})) == 1
    assert value_complexity(_typed("x", {"x": A})) == 0
    assert value_complexity(_typed("f x", {"f": Impl(A, B), "x": A})) == 0


def test_value_complexity_of_pairs_takes_the_max():
    t = _typed("<\\x : A. \\y : B. x, \\x : A. x>")
    assert value_complexity(t) == 2


def test_value_complexity_pushes_stacks_into_case_branches():
    from lax import Disj

    gamma = {"s": Disj(A, A), "z": A}
    src = "(case s of {u. \\x : A. \\y : A. u | w. \\x : A. \\y : A. w}) z"
    t = _typed(src, gamma)
    # the pushed stack turns each branch into an application, which is
    # no exposed abstraction, so the whole term measures 0
    assert value_complexity(t) == 0
    u = _typed("case s of {u. \\x : A. \\y : A. u | w. \\x : A. \\y : A. w}", gamma)
    assert value_complexity(u) == 2


def test_value_complexity_refuses_parallel_terms():
    t = _typed("x |+| y", {"x": A, "y": A})
    with pytest.raises(NotSimplyTyped):
        value_complexity(t)


def test_value_complexity_builds_no_node_on_a_deep_nest(monkeypatch):
    """5 000 levels, alternately a case whose other branch is a case
    under an application, and a pair, around a two-argument lambda. The
    tier-1 time bound holds the walk to its nodes."""
    from lax.terms import _SHAPES

    s, z = Var("s", Disj(A, A)), Var("z", A)
    deep, ty = Lam("x", A, Lam("y", A, Var("x", A))), Impl(A, Impl(A, A))
    gamma = {"s": s.ty, "z": A}
    for k in range(5000):
        if k % 2:
            deep, ty = Pair(deep, Lam("x", A, Var("x", A))), Conj(ty, Impl(A, A))
        else:
            y = gamma[f"y{k}"] = ty
            lam = Lam("x", A, Var(f"y{k}", y))
            deep = Case(s, "u", deep, "w", App(Case(s, "u", lam, "w", lam), z))
    deep, _ = check(deep, TypingContext(ivars=gamma))
    built = []
    for cls in _SHAPES:
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda t, *a, _init=init: built.append(t) or _init(t, *a))
    assert value_complexity(deep) == 2
    assert built == []
    App(deep, z)  # the count sees a constructor call
    assert len(built) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_value_complexity_matches_the_oracle(seed):
    _, t = generate(seed, GenConfig(preset=None, max_size=18))
    assert value_complexity(t) == value_complexity_oracle(t)


# terms heavy in cases, which generate() seldom builds: cases under a
# random case-free stack, inside pairs, nested in each other's branches and
# scrutinees, with branches that are lambdas, injections or pairs; each
# type gets one free variable, named apart from the default context
_CASE_TYPES = (
    A, B, TOP, Bot(), Impl(A, B), Conj(A, B), Disj(A, B), Impl(Impl(A, A), B),
    Conj(Impl(A, B), Disj(B, A)), Disj(Impl(B, B), Conj(A, A)),
)


def _free(ty, gamma):
    name = gamma.setdefault(ty, f"q{len(gamma)}")
    return Var(name)


def _case(rng, ty, depth, gamma):
    """A case of type ty: its scrutinee a free variable or itself a case,
    its branches _caseful."""
    disj = rng.choice([f for f in _CASE_TYPES if isinstance(f, Disj)])
    if rng.random() < 0.3:
        scrut = _case(rng, disj, depth - 1, gamma)
    else:
        scrut = _free(disj, gamma)
    return Case(scrut, f"u{depth}", _caseful(rng, ty, depth - 1, gamma),
                f"w{depth}", _caseful(rng, ty, depth - 1, gamma))


def _caseful(rng, ty, depth, gamma):
    if depth <= 0 or rng.random() < 0.15:
        return _free(ty, gamma)
    pick = rng.randrange(5)
    if pick == 0:
        return _case(rng, ty, depth, gamma)
    if pick == 1:  # a case under one frame, which the case permutation moves
        other = rng.choice(_CASE_TYPES)
        frames = [
            lambda: App(_case(rng, Impl(other, ty), depth, gamma),
                        _caseful(rng, other, depth - 1, gamma)),
            lambda: Proj(_case(rng, Conj(ty, other), depth, gamma), 0),
            lambda: Proj(_case(rng, Conj(other, ty), depth, gamma), 1),
        ]
        if isinstance(ty, (Atom, Top)):
            frames.append(lambda: Efq(_case(rng, Bot(), depth, gamma), ty))
        return rng.choice(frames)()
    if pick == 2:  # a projection of a pair
        other = rng.choice(_CASE_TYPES)
        halves = [_caseful(rng, ty, depth - 1, gamma), _caseful(rng, other, depth - 1, gamma)]
        i = rng.randrange(2)
        return Proj(Pair(*halves) if i == 0 else Pair(*reversed(halves)), i)
    if isinstance(ty, Impl):
        return Lam(f"x{depth}", ty.left, _caseful(rng, ty.right, depth - 1, gamma))
    if isinstance(ty, Conj):
        return Pair(_caseful(rng, ty.left, depth - 1, gamma),
                    _caseful(rng, ty.right, depth - 1, gamma))
    if isinstance(ty, Disj):
        i = rng.randrange(2)
        return Inj(i, ty, _caseful(rng, (ty.left, ty.right)[i], depth - 1, gamma))
    return _case(rng, ty, depth, gamma)


def _case_heavy(seed):
    """A checked term: a pair of one or two cases, each under a random
    case-free stack (random_stack, possibly empty)."""
    rng = random.Random(seed)
    gamma = {}
    parts = []
    for _ in range(rng.randint(1, 2)):
        ty = rng.choice(_CASE_TYPES)
        sigma, _ = random_stack(rng, ty)
        parts.append(apply_stack(_case(rng, ty, rng.randint(1, 4), gamma), sigma))
    ctx = default_context() | {name: ty for ty, name in gamma.items()}
    t, _ = check(Pair(*parts) if len(parts) == 2 else parts[0], TypingContext(ivars=ctx))
    return t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_value_complexity_matches_the_oracle_on_case_heavy_terms(seed):
    t = _case_heavy(seed)
    for path, s in iter_subterms(t):
        assert value_complexity(s) == value_complexity_oracle(s), path
    for r in find_redexes(t):
        s = subterm_at(t, r.position)
        if r.kind is RedexKind.CASE_PERM:
            assert r.complexity == value_complexity_oracle(children(s)[0]), r
        elif r.kind is RedexKind.PROJ_PAIR:
            assert r.complexity == value_complexity_oracle(s.arg), r


# --------------------------------------------------------------------------
# discovery

def test_redexes_come_out_in_preorder():
    from lax import Disj

    gamma = {"x": A, "s": Disj(A, A)}
    t = _typed("<(\\y : A. y) x, (case s of {u. u | w. w}) |+| x>", gamma)
    rs = find_redexes(t)
    assert [r.position for r in rs] == sorted(r.position for r in rs)
    assert {r.kind for r in rs} >= {RedexKind.BETA, RedexKind.PAR_PERM}


def test_groups():
    gamma = {"x": A, "y": B}
    beta = find_redexes(_typed("(\\u : A. u) x", gamma))[0]
    assert beta.group == GROUP1
    proj = find_redexes(_typed("<x, y> pi0", gamma))[0]
    assert proj.group == GROUP2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_discovery_matches_the_brute_force_matcher(seed, preset, discipline):
    """Checked on every state of a run: initial terms hold no active session,
    so only later states offer crosses."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=14))
    states, _ = _run_states(t, discipline)
    _assert_discovery_matches_the_oracle(states, discipline)


EXAMPLES = ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"]


def _example(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
    return t


def test_discovery_matches_the_brute_force_matcher_on_the_examples():
    fired = set()
    for name in EXAMPLES:
        for discipline in (False, True):
            states, trace = _run_states(_example(name), discipline)
            _assert_discovery_matches_the_oracle(states, discipline)
            fired |= {s.redex.kind for s in trace.steps}
    assert CROSSES | {RedexKind.GARBAGE_CROSS} <= fired


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_discovery_by_kind_filters_the_full_list(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _ = _run_states(t, discipline)
    _assert_kinds_filter_the_full_list(states, discipline)


def test_discovery_by_kind_filters_the_full_list_on_the_examples():
    for name in EXAMPLES:
        for discipline in (False, True):
            states, _ = _run_states(_example(name), discipline)
            _assert_kinds_filter_the_full_list(states, discipline)


# --------------------------------------------------------------------------
# remembered redex facts


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_remembered_discovery_matches_the_oracle(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _ = _run_states(t, discipline)
    _assert_remembered_discovery_matches_the_oracle(states, discipline)
    _assert_answers_repeat(states, discipline)


def test_remembered_discovery_matches_the_oracle_on_the_examples():
    for name in EXAMPLES:
        for discipline in (False, True):
            states, _ = _run_states(_example(name), discipline)
            _assert_remembered_discovery_matches_the_oracle(states, discipline)
            _assert_answers_repeat(states, discipline)


def test_a_node_at_two_positions_offers_its_redexes_at_both():
    """Beta shares its argument between the occurrences of the variable."""
    t = _typed("(\\x : A -> A. <x, x>) (\\u : A. (\\v : A. v) u)")
    after = step(t, find_redexes(t)[0])
    assert after.left is after.right
    rs = find_redexes(after)
    assert [(r.rule, r.position) for r in rs] == [("Beta", (0, 0)), ("Beta", (1, 0))]
    assert rs == find_redexes_oracle(after)
    assert find_redexes(after.left) == [Redex(RedexKind.BETA, (0,), 1)]


def test_a_phase_that_asks_no_session_kind_scans_no_session():
    gamma = {"f": Impl(A, B), "x": A}
    t = _typed("nu a : EM[A]. [ efq[B](nota x) || f ((\\u : A. u) a) ]", gamma)
    assert [r.rule for r in find_redexes(t, kinds=INTUITIONISTIC)] == ["Beta"]
    assert pick_redex(t, kinds=INTUITIONISTIC, innermost=True).rule == "Beta"
    assert facts_of(t).redexes[1] is None
    # nor does it fill any send summary
    assert all(facts_of(s).sends is None for _, s in iter_subterms(t))
    assert [r.rule for r in find_redexes(t)] == ["Beta"]
    assert facts_of(t).redexes[1][0] == ()
    assert all(facts_of(c).sends is not None for c in t.comps)


# --------------------------------------------------------------------------
# one redex, and the complexity peaks, without the list


def _peaks_oracle(rs):
    """Each group's highest complexity, then CasePerm's; -1 for none."""
    groups = tuple(
        max((r.complexity for r in rs if r.group == g), default=-1) for g in PEAK_GROUPS
    )
    case_perm = max(
        (r.complexity for r in rs if r.kind == RedexKind.CASE_PERM), default=-1
    )
    return groups + (case_perm,)


def _assert_one_redex_and_peaks_match_the_oracle(states, discipline):
    """On each state, which the run walked, and on a fresh copy of it, whose
    peaks are asked before anything else is remembered."""
    for i, state in enumerate(states):
        copy = fresh_copy(state)
        first = redex_peaks(copy, discipline)
        for u in (copy, state):
            inner = find_redexes_oracle(u, discipline, INTUITIONISTIC)
            got = pick_redex(u, discipline, INTUITIONISTIC, innermost=True)
            assert got == (leftmost_innermost_oracle(inner) if inner else None), i
            for kinds in KIND_SETS + [None]:
                rs = find_redexes_oracle(u, discipline, kinds)
                assert pick_redex(u, discipline, kinds) == (rs[0] if rs else None), i
            want = _peaks_oracle(find_redexes_oracle(u, discipline))
            assert redex_peaks(u, discipline) == want, i
        assert first == want, i


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_one_redex_and_peaks_match_the_oracle(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _ = _run_states(t, discipline)
    _assert_one_redex_and_peaks_match_the_oracle(states, discipline)


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("discipline", [False, True])
def test_one_redex_and_peaks_match_the_oracle_on_the_examples(name, discipline):
    states, _ = _run_states(_example(name), discipline)
    _assert_one_redex_and_peaks_match_the_oracle(states, discipline)


def test_peaks_of_a_node_at_two_positions():
    t = _typed("(\\x : A -> A -> A. <x, x>) (\\u : A. (\\v : A -> A. v) (\\w : A. u))")
    after = step(t, find_redexes(t)[0])
    assert after.left is after.right
    assert redex_peaks(after.left) == (3, -1, -1, -1)
    assert redex_peaks(after) == _peaks_oracle(find_redexes_oracle(after))


def test_peaks_keep_the_case_permutations_apart():
    """The CasePerm (complexity 1) sits below a ProjPair of complexity 2 in
    its group; the first decrease clause's floor reads the former."""
    from lax import Disj

    gamma = {"s": Disj(A, B), "y": A, "x": A}
    t = _typed(
        "<(case s of {u. \\z : A. z | w. \\z : A. z}) y, "
        "<\\p : A. \\q : A. p, x> pi0>",
        gamma,
    )
    assert sorted(r.rule for r in find_redexes(t)) == ["CasePerm", "ProjPair"]
    assert redex_peaks(t) == (-1, 2, -1, 1)


def test_peaks_count_a_session_s_own_redexes():
    t = _typed("nu a : EM[A -> A]. [ efq[B](nota (\\u : A. u)) || y ]", {"y": B})
    rs = find_redexes_oracle(t)
    assert [r.rule for r in rs] == ["Activation", "GarbageCross[1]"]
    assert redex_peaks(fresh_copy(t)) == _peaks_oracle(rs) == (-1, 1, -1, -1)


def test_message_binders_are_not_captured_variables():
    """The message's own binder g shares its name with the binder above the
    hole, after beta duplicated it; the message is closed, so EM crosses it
    with the basic rule, as the oracle says."""
    gamma = {"y0": Atom("Y"), "k": Impl(Atom("Y"), Atom("P"))}
    src = (
        "nu a : EM[(Y -> P) -> A -> A /\\ P]. "
        "[ (\\g:(Y -> P) -> A -> A /\\ P. g (\\y:Y. efq[P](nota g))) "
        "(\\h:Y -> P. \\x:A. <x, h y0>) || a k ]"
    )
    states, trace = _run_states(_typed(src, gamma))
    _assert_discovery_matches_the_oracle(states, False)
    rules = [s.redex.rule for s in trace.steps]
    assert rules == ["Beta", "Beta", "Beta", "Activation", "BasicCross(0,1)", "Beta"]
    assert _eq(trace.final, "\\x:A. <x, k y0>", {**gamma, "A": A})


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_redexes_at_is_find_redexes_at_one_position(seed, preset, discipline):
    """Checked on every state of a run, so active sessions show up too."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    _, trace = normalize(t, max_steps=10_000, underline_discipline=discipline)
    for u in [t] + [s.term_after for s in trace.steps]:
        everywhere = find_redexes(u, discipline)
        for path, _ in iter_subterms(u):
            here = list(redexes_at(subterm_at(u, path), path, discipline))
            assert here == [r for r in everywhere if r.position == path]


def test_discipline_restricts_senders_to_the_marked_component():
    src = "nu a* : AX{A -> B, B -> A}. [ @f (a x) || g (a y) ]"
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    t = _typed(src, gamma)
    free = {r.rule for r in find_redexes(t, False)}
    tight = {r.rule for r in find_redexes(t, True)}
    assert "BasicCross(1,0)" in free
    assert tight == {"BasicCross(0,1)", "FullCross"}
    # the session still offers the unmarked sender's cross, so it steps:
    # step reads the view with no discipline
    (r,) = [r for r in find_redexes(t) if r.rule == "BasicCross(1,0)"]
    after = step(t, r)
    assert _eq(after, "nu a* : AX{A -> B, B -> A}. [ @f y || g (a y) ]", gamma)


# --------------------------------------------------------------------------
# session scans on send summaries, against whole-component walks


def _message_complexity_oracle(arg):
    return 0 if _mentions_parallel(arg) else value_complexity_oracle(arg)


def _sends_oracle(s):
    """Each free channel of s: (highest complexity of a message sent on
    it, whether one is a value), from the oracle's occurrence walk."""
    out = {}
    for c in _free_names(s)[1]:
        args = [o["arg"] for o in _occurrences(s, c) if o["arg"] is not None]
        out[c] = (
            max((_message_complexity_oracle(m) for m in args), default=0),
            any(is_value(m) for m in args),
        )
    return out


def _comm_oracle(s):
    return max(
        (
            _message_complexity_oracle(o["arg"])
            for c in s.comps
            for o in _occurrences(comp_body(c), s.chan)
            if o["arg"] is not None
        ),
        default=0,
    )


def _comm_complexity(occs):
    """Maximum value complexity over the applied occurrences' arguments."""
    return max(
        (
            value_complexity(o.arg) if is_simply_typed(o.arg) else 0
            for per in occs
            for o in per
            if o.arg is not None
        ),
        default=0,
    )


def _closed_at(occ, msg):
    fv, fc = free_names(msg)
    return occ.binders_above.isdisjoint(fv | fc)


def _reference_session_redexes(s, discipline):
    """The session's own redexes, at (), with every component walked whole
    by chan_occurrences."""
    bodies = [comp_body(c) for c in s.comps]
    occs = [chan_occurrences(b, s.chan) for b in bodies]
    comm = _comm_complexity(occs)
    out = []
    if not s.active:
        if any(o.arg is not None and is_value(o.arg) for per in occs for o in per):
            out.append(Redex(RedexKind.ACTIVATION, (), comm))
    else:
        out += _reference_crosses(s, bodies, occs, comm)
    survivors = tuple(i for i, per in enumerate(occs) if not per)
    if survivors:
        out.append(Redex(RedexKind.GARBAGE_CROSS, (), comm, survivors=survivors))
    if s.active and not any(contains_active_session(b) for b in bodies):
        out += [
            Redex(RedexKind.PAR_PAR_PERM, (), 0, comp=k)
            for k, b in enumerate(bodies) if is_parallel_node(b)
        ]
    marked = {i for i, c in enumerate(s.comps) if comp_marked(c)}
    if discipline and marked and s.axiom.mode == "general":
        out = [r for r in out
               if r.kind is not RedexKind.BASIC_CROSS or r.sender in marked]
    return out


def _reference_crosses(s, bodies, occs, comm):
    ax = s.axiom
    simple = [is_simply_typed(b) for b in bodies]
    if ax.mode in ("em", "broadcast"):
        if not all(simple) or not occs[0]:
            return []
        last = occs[0][-1]
        msg = last.arg
        if not last.negated or msg is None or free_chans(msg) & last.binders_above:
            return []
        if _closed_at(last, msg):
            if ax.mode == "em":
                return [Redex(RedexKind.BASIC_CROSS, (), comm, sender=0, receiver=1)]
            return [Redex(RedexKind.BROADCAST_CROSS, (), comm)]
        return [Redex(RedexKind.FULL_CROSS, (), comm)] if ax.mode == "em" else []
    out = []
    for i in range(len(bodies)):
        if not simple[i] or not occs[i]:
            continue
        sender = occs[i][-1]
        if sender.arg is None or not _closed_at(sender, sender.arg):
            continue
        for j in range(len(bodies)):
            if j == i or not simple[j] or not occs[j] or occs[j][-1].arg is None:
                continue
            if ax.components[i][0] == ax.components[j][1]:
                out.append(
                    Redex(RedexKind.BASIC_CROSS, (), comm, sender=i, receiver=j)
                )
    if all(simple) and all(
        per and per[-1].arg is not None
        and not free_chans(per[-1].arg) & per[-1].binders_above
        for per in occs
    ):
        out.append(Redex(RedexKind.FULL_CROSS, (), comm))
    return out


def _assert_session_scans_match_the_walks(states, discipline):
    """On each state as run, and on a fresh copy, which remembers nothing
    and is asked for the rightmost occurrences before anything else."""
    for k, state in enumerate(states):
        for u, descent_first in ((fresh_copy(state), True), (state, False)):
            sessions = [(p, s) for p, s in iter_subterms(u) if isinstance(s, ParBind)]
            for path, s in sessions:
                where = f"state {k}, session at {path}"
                mentioned = [
                    i for i, c in enumerate(s.comps)
                    if chan_occurrences(comp_body(c), s.chan)
                ]
                rightmost = [
                    chan_occurrences(comp_body(s.comps[i]), s.chan)[-1]
                    for i in mentioned
                ]
                if descent_first:
                    assert [_rightmost(s, i) for i in mentioned] == rightmost, where
                assert redexes_at(s, path, discipline) == [
                    r._replace(position=path)
                    for r in _reference_session_redexes(s, discipline)
                ], where
                assert session_comm_complexity(s) == _comm_oracle(s), where
                assert [_rightmost(s, i) for i in mentioned] == rightmost, where
            for _, s in iter_subterms(u):
                assert _sends(s) == _sends_oracle(s), f"state {k}: {s}"


def _shadowed():
    """A session whose second component is a session rebinding its
    channel, which sends a message of complexity 1 there."""
    gamma = {"f": Impl(Z, B), "y": Z, "x": A}
    t = _typed(
        "nu a : EM[A]. [ efq[B](nota x) || "
        "nu b : EM[Z -> Z]. [ efq[B](notb (\\z : Z. z)) || f (b y) ] ]",
        gamma,
    )
    inner = t.comps[1]
    comps = tuple(rename_chan(c, "b", "a", inner.active) for c in inner.comps)
    return dataclasses.replace(t, comps=(t.comps[0], ParBind("a", False, inner.axiom, comps)))


def test_a_rebound_channel_is_not_the_session_s():
    t = _shadowed()
    assert show_term(t).count("nu a") == 2
    assert session_comm_complexity(t) == 0
    assert [r.rule for r in redexes_at(t, (), False)] == ["GarbageCross[1]"]
    for discipline in (False, True):
        _assert_session_scans_match_the_walks(_run_states(t, discipline)[0], discipline)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_session_scans_match_the_walks(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _ = _run_states(t, discipline)
    _assert_session_scans_match_the_walks(states, discipline)


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("discipline", [False, True])
def test_session_scans_match_the_walks_on_the_examples(name, discipline):
    states, _ = _run_states(_example(name), discipline)
    _assert_session_scans_match_the_walks(states, discipline)


# --------------------------------------------------------------------------
# closedness, against the walk over the message (_closed_at above)

COMM_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "comm.jsonl"


def _closedness_runs(source):
    """The runs whose session scans the closedness check is compared on:
    the examples under both disciplines, the frozen comm programs (read
    only), or random-order runs of every preset."""
    if source == "examples":
        for name in EXAMPLES:
            for discipline in (False, True):
                normalize(_example(name), underline_discipline=discipline)
    elif source == "comm":
        for line in COMM_DATA.read_text().splitlines()[1:]:
            rec = json.loads(line)
            prog = parse_program(rec["source"])
            t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
            normalize(t, underline_discipline=rec["underline"])
    else:
        for preset in ("em", "em3", "c3", "g2", "godel"):
            for seed in range(20):
                _, t = generate(seed, GenConfig(preset=preset, max_size=30))
                for discipline in (False, True):
                    random_order_run(t, discipline, random.Random(seed), 60)


@pytest.mark.parametrize("source", ["examples", "comm", "random"])
def test_closedness_matches_the_walk_on_every_session_scan(source, monkeypatch):
    seen = []
    engine = rewrite._closed_at

    def compared(occ, msg):
        got = engine(occ, msg)
        seen.append((got, _closed_at(occ, msg)))
        return got

    monkeypatch.setattr(rewrite, "_closed_at", compared)
    _closedness_runs(source)
    assert seen
    assert [k for k, (got, want) in enumerate(seen) if got != want] == []


def _occurrence(above, msg):
    return Occurrence((1,), False, msg, frozenset(above))


def test_a_message_that_mentions_a_lambda_variable_bound_above_is_open():
    gamma = {"h": Impl(Impl(Z, V), B), "f": Impl(Z, B), "w": Z}
    src = "nu a* : EM[Z -> Z]. [ h (\\y : Z. efq[V0](nota (\\q : Z. y))) || f (a w) ]"
    t = _typed(src, gamma)
    occ = _rightmost(t, 0)
    assert occ.binders_above == {"y"} and free_names(occ.arg) == ({"y"}, frozenset())
    assert not rewrite._closed_at(occ, occ.arg)
    assert [r.rule for r in redexes_at(t, (), False) if r.kind in CROSSES] == ["FullCross"]


def test_a_message_that_mentions_a_channel_named_as_a_binder_above_is_open():
    """A simply typed component binds no channel, so a message's channel
    counts as captured only when a variable bound above the hole has its
    name: here the inner session's sender sends the outer channel b from
    under a lambda whose variable is also called b."""
    gamma = {"x": A, "c": C, "k": Impl(B, Z), "k2": Impl(A, Z), "y": B}
    src = ("nu b : EM[A]. [ efq[Z](notb x) || nu a* : AX{A -> B, B -> A}. "
           "[ (\\z : C. k (a b)) c || k2 (a y) ] ]")
    t = _typed(src, gamma)
    lam = subterm_at(t, (1, 0, 0))
    clash = replace_at(t, (1, 0, 0), dataclasses.replace(lam, var="b"))
    basic = RedexKind.BASIC_CROSS
    for u, closed in ((t, True), (clash, False)):
        inner = u.comps[1]
        occ = _rightmost(inner, 0)
        assert free_names(occ.arg) == (frozenset(), {"b"})
        assert rewrite._closed_at(occ, occ.arg) is closed is _closed_at(occ, occ.arg)
        assert [r.sender for r in redexes_at(inner, (1,), False) if r.kind is basic] == (
            [0, 1] if closed else [1]
        )
    assert not rewrite._closed_at(_occurrence({"b"}, Chan("b", A)), Chan("b", A))


def test_a_message_with_no_name_bound_above_is_closed():
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    t = _typed("nu a* : AX{A -> B, B -> A}. [ f (a x) || g ((\\q : B. a y) y) ]", gamma)
    occ = _rightmost(t, 1)
    assert occ.binders_above == {"q"} and occ.arg.name == "y"
    assert rewrite._closed_at(occ, occ.arg)
    assert rewrite._closed_at(_occurrence({"y"}, Var("x", A)), Var("x", A))
    assert [r.rule for r in redexes_at(t, (), False) if r.kind in CROSSES] == [
        "BasicCross(0,1)", "BasicCross(1,0)", "FullCross"
    ]


def test_inactive_sessions_with_equal_entries_share_one_scan():
    gamma = {"x": A, "z": C, "y": B}
    t = _typed(
        "<nu a : EM[A]. [ efq[B](nota x) || y ], "
        "nu b : EM[C]. [ efq[B](notb z) || y ]>",
        gamma,
    )
    s, u = t.left, t.right
    assert s.axiom != u.axiom and _sends_on(s) == _sends_on(u)
    assert _scanned(s) is _scanned(u)
    everything, disciplined = _scanned(s)
    assert everything is disciplined
    assert [r.position for r in find_redexes(t) if r.kind == RedexKind.GARBAGE_CROSS] == [
        (0,), (1,)
    ]
    assert s._facts.redexes[1] is u._facts.redexes[1]


def test_the_inactive_scan_cache_stays_small_without_a_bound():
    """_inactive_scan keeps one entry per distinct tuple of send entries
    for the life of the process, and needs no bound: tuples repeat. 500
    terms (100 per preset, seed 1000, max_size 80) leave 45 entries; the
    4 000 terms of seeds 1000-1007 leave 73."""
    _inactive_scan.cache_clear()
    for preset in ("em", "em3", "c3", "g2", "godel"):
        for gamma, t in generate_corpus(1000, 100, GenConfig(preset=preset, max_size=80)):
            ctx = TypingContext(ivars=dict(gamma))
            t, _ = check(t, ctx)
            _, trace = normalize(t)
            assert audit_trace(ctx, trace).holds
    assert _inactive_scan.cache_info().currsize <= 45


@pytest.mark.parametrize("entries, other", [
    (((1, True), None), ((1, False), None)),  # the value flag alone
    (((1, True), None), ((2, True), None)),  # the complexity alone
    (((0, False), (1, True)), (None, (1, True))),  # a bare mention or none
    (((0, False), None), (None, None)),
])
def test_inactive_scans_tell_every_part_of_an_entry_apart(entries, other):
    assert _inactive_scan(entries) != _inactive_scan(other)


def test_an_inactive_scan_is_activation_and_garbage_at_the_best_message():
    def scan(entries):
        return [r for _, r in _inactive_scan(entries)[0]]

    assert scan(((2, True), (0, False), None)) == [
        Redex(RedexKind.ACTIVATION, (), 2),
        Redex(RedexKind.GARBAGE_CROSS, (), 2, survivors=(2,)),
    ]
    assert scan(((1, False), (0, False))) == []
    assert scan((None, None)) == [
        Redex(RedexKind.GARBAGE_CROSS, (), 0, survivors=(0, 1))
    ]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_shared_inactive_scans_match_the_walks(seed, preset, discipline):
    """Along a random-order run, which wakes sessions the strategy leaves
    asleep and rebuilds them around shared components."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _, _ = random_order_run(t, discipline, random.Random(seed), 60)
    for k, state in enumerate(states):
        for u in (state, fresh_copy(state)):
            for path, s in iter_subterms(u):
                if isinstance(s, ParBind) and not s.active:
                    assert redexes_at(s, path, discipline) == [
                        r._replace(position=path)
                        for r in _reference_session_redexes(s, discipline)
                    ], f"state {k}, session at {path}"


# --------------------------------------------------------------------------
# intuitionistic steps

def test_beta():
    t = _typed("(\\x : A. <x, x>) y", {"y": A})
    assert _eq(_step_rule(t, "Beta"), "<y, y>", {"y": A})


def test_proj_pair():
    t = _typed("<x, y> pi1", {"x": A, "y": B})
    assert _eq(_step_rule(t, "ProjPair"), "y", {"y": B})


def test_case_inj():
    gamma = {"f": Impl(A, B), "x": A, "y": B}
    t = _typed("case inj0[A \\/ C](x) of {u. f u | w. y}", gamma)
    assert _eq(_step_rule(t, "CaseInj"), "f x", gamma)


def test_case_perm_pushes_one_frame():
    from lax import Disj

    gamma = {"s": Disj(A, A), "f": Impl(A, B), "g": Impl(A, B), "z": A}
    t = _typed("(case s of {u. f | w. g}) z", gamma)
    out = _step_rule(t, "CasePerm")
    assert _eq(out, "case s of {u. f z | w. g z}", gamma)


@pytest.mark.parametrize("frame, want", [
    ("(case s of {u. p | w. p}) pi0", "case s of {u. p pi0 | w. p pi0}"),
    ("efq[A](case s of {u. o | w. o})", "case s of {u. efq[A](o) | w. efq[A](o)}"),
    ("case (case s of {u. s | w. s}) of {x. x | y. y}",
     "case s of {u. case s of {x. x | y. y} | w. case s of {x. x | y. y}}"),
])
def test_case_perm_pushes_the_other_eliminators(frame, want):
    from lax import Conj, Disj

    gamma = {"s": Disj(A, A), "p": Conj(A, B), "o": Bot()}
    assert _eq(_step_rule(_typed(frame, gamma), "CasePerm"), want, gamma)


def test_case_perm_renames_a_branch_binder_the_frame_mentions():
    # the argument x is free; pushing it into the left branch, whose binder
    # is also named x, must not capture it
    from lax import Case, Disj

    gamma = {"s": Disj(C, C), "f": Impl(A, B), "g": Impl(C, Impl(A, B)), "x": A}
    case = Case(Var("s"), "x", App(Var("g"), Var("x")), "y", Var("f"))
    ctx = TypingContext(ivars=gamma)
    t, _ = check(App(case, Var("x")), ctx)
    out = _step_rule(t, "CasePerm")
    assert check_subject_reduction(ctx, t, out).ok
    assert _eq(out, "case s of {u. g u x | y. f x}", gamma)


# --------------------------------------------------------------------------
# permutations around parallel nodes

@pytest.mark.parametrize("src, which, want", [
    ("(h |+| h) x", "stack", "h x |+| h x"),
    ("(h |+| h) (x |+| x)", "stack", "h (x |+| x) |+| h (x |+| x)"),
    ("h (x |+| x)", "app-left", "h x |+| h x"),
    ("(p |+| p) pi1", "stack", "p pi1 |+| p pi1"),
    ("efq[A](o |+| o)", "stack", "efq[A](o) |+| efq[A](o)"),
    ("case (s |+| s) of {u. u | w. w}", "stack",
     "case s of {u. u | w. w} |+| case s of {u. u | w. w}"),
    ("\\q : B. (x |+| x)", "lam", "(\\q : B. x) |+| (\\q : B. x)"),
    ("inj1[B \\/ A](x |+| x)", "inj", "inj1[B \\/ A](x) |+| inj1[B \\/ A](x)"),
    ("<x |+| x, y |+| y>", "pair-left", "<x, y |+| y> |+| <x, y |+| y>"),
    ("<x, y |+| y>", "pair-right", "<x, y> |+| <x, y>"),
])
def test_par_perm_slots(src, which, want):
    """The first slot holding a parallel node, in the table's order, names
    the permutation, and the contraction rebuilds the node around each side."""
    from lax import Conj, Disj

    gamma = {"h": Impl(A, B), "x": A, "y": B, "p": Conj(A, B), "o": Bot(),
             "s": Disj(A, A)}
    t = _typed(src, gamma)
    (r,) = [r for r in find_redexes(t) if r.position == ()]
    assert r.rule == f"ParPerm({which})"
    assert _eq(step(t, r), want, gamma)


def test_par_perm_lambda():
    t = _typed("\\x : A. (u |+| v)", {"u": B, "v": B})
    assert _eq(_step_rule(t, "ParPerm"), "(\\x : A. u) |+| (\\x : A. v)", {"u": B, "v": B})


def test_par_perm_stack_pushes_into_every_component():
    gamma = {"x": A, "g": Impl(A, Impl(A, B)), "y": A}
    t = _typed("(nu a : EM[A]. [ \\w : A. efq[B](nota x) || g a ]) y", gamma)
    out = _step_rule(t, "ParPerm")
    assert _eq(out, "nu a : EM[A]. [ (\\w : A. efq[B](nota x)) y || g a y ]", gamma)


def test_par_perm_pair_and_injection():
    gamma = {"u": A, "v": A, "y": B}
    t = _typed("<u |+| v, y>", gamma)
    assert _eq(_step_rule(t, "ParPerm"), "<u, y> |+| <v, y>", gamma)
    t2 = _typed("inj0[A \\/ B](u |+| v)", gamma)
    assert _eq(_step_rule(t2, "ParPerm"), "inj0[A \\/ B](u) |+| inj0[A \\/ B](v)", gamma)


def test_par_perm_renames_a_binder_the_moving_context_mentions():
    # the argument c is the outer channel; pushing it into the inner session
    # named c must not capture it
    gamma = {"x": A, "f": Impl(A, B)}
    em = em_axiom(A)

    def send(chan, msg):
        return Efq(App(Chan(chan, negated=True), msg), B)

    inner = ParBind("c", False, em, (Lam("w", A, send("c", Var("x"))), Var("f")))
    ctx = TypingContext(ivars=gamma)
    t, _ = check(ParBind("c", False, em, (send("c", Var("x")), App(inner, Chan("c")))), ctx)
    out = _step_rule(t, "ParPerm(stack)")
    assert check_subject_reduction(ctx, t, out).ok
    want = ("nu c : EM[A]. [ efq[B](notc x) || "
            "nu d : EM[A]. [ (\\w : A. efq[B](notd x)) c || f c ] ]")
    assert _eq(out, want, gamma)


def test_par_par_perm_duplicates_the_session_around_the_inner_node():
    gamma = {"x": A, "u": B, "v": B}
    t = _typed("nu a* : EM[A]. [ efq[B](nota x) || (u |+| v) ]", gamma)
    out = _step_rule(t, "ParParPerm")
    want = "nu a* : EM[A]. [ efq[B](nota x) || u ] |+| nu a* : EM[A]. [ efq[B](nota x) || v ]"
    assert _eq(out, want, gamma)


def test_par_par_perm_keeps_marks_on_their_components():
    gamma = {"f": Impl(B, C), "g": Impl(A, Z), "x": A, "y": B, "h": Impl(Z, C)}
    src = ("nu a* : AX{A -> B, B -> A}. "
           "[ f (a x) || nu c : EM[Z]. [ @efq[C](notc (g (a y))) || h c ] ]")
    out = _step_rule(_typed(src, gamma), "ParParPerm")
    want = ("nu c : EM[Z]. [ nu a* : AX{A -> B, B -> A}. [ f (a x) || @efq[C](notc (g (a y))) ] "
            "|| nu a* : AX{A -> B, B -> A}. [ f (a x) || h c ] ]")
    assert _eq(out, want, gamma)


def test_par_perm_keeps_the_mark_on_its_component():
    gamma = {"x": A}
    src = "(nu a* : AX{A -> B, B -> A}. [ @(\\z : A. z) || (\\z : A. z) ]) x"
    out = _step_rule(_typed(src, gamma), "ParPerm(stack)")
    want = "nu a* : AX{A -> B, B -> A}. [ @((\\z : A. z) x) || (\\z : A. z) x ]"
    assert _eq(out, want, gamma)


def test_par_par_perm_drops_the_inner_mark_when_the_host_has_one():
    """Each copy of the host keeps the host's mark, so the hoisted
    component's own mark goes: a copy holds one mark at most."""
    gamma = {"x": A, "u": B}
    src = "nu a* : EM[A]. [ @efq[B](nota x) || nu c : EM[B]. [ @efq[B](notc u) || c ] ]"
    out = _step_rule(_typed(src, gamma), "ParParPerm(1)")
    want = ("nu c : EM[B]. [ nu a* : EM[A]. [ @efq[B](nota x) || efq[B](notc u) ] "
            "|| nu a* : EM[A]. [ @efq[B](nota x) || c ] ]")
    assert _eq(out, want, gamma)


def test_par_par_perm_renames_an_inner_binder_a_sibling_mentions():
    # the sibling efq[B](nota c) reads the outer c; hoisting the inner
    # session named c over it must not capture that occurrence
    gamma = {"x": A, "f": Impl(A, B)}
    em = em_axiom(A)

    def send(chan, msg, active=False):
        return Efq(App(Chan(chan, active=active, negated=True), msg), B)

    inner = ParBind("c", False, em, (send("c", Var("x")), App(Var("f"), Chan("c"))))
    host = ParBind("a", True, em, (send("a", Chan("c"), active=True), inner))
    ctx = TypingContext(ivars=gamma)
    t, _ = check(ParBind("c", False, em, (send("c", Var("x")), host)), ctx)
    out = _step_rule(t, "ParParPerm")
    assert check_subject_reduction(ctx, t, out).ok
    want = (
        "nu c : EM[A]. [ efq[B](notc x) || nu d : EM[A]. "
        "[ nu a* : EM[A]. [ efq[B](nota c) || efq[B](notd x) ] "
        "|| nu a* : EM[A]. [ efq[B](nota c) || f d ] ] ]"
    )
    assert _eq(out, want, gamma)


# --------------------------------------------------------------------------
# communications

def test_activation_freshens_and_wakes_the_binder():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    out = _step_rule(t, "Activation")
    assert out.active
    assert _eq(out, "nu a* : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)


def test_no_activation_without_an_applied_value():
    gamma = {"f": Impl(Z, B), "y": Z, "x": Impl(Z, Z)}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota x) || f (a y) ]", gamma)
    assert not [r for r in find_redexes(t) if r.kind == RedexKind.ACTIVATION]


def test_em_basic_cross_collapses_to_the_receiver():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a* : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    out = _step_rule(t, "BasicCross")
    assert _eq(out, "f ((\\z : Z. z) y)", gamma)


def test_broadcast_offers_no_cross_for_an_open_message():
    """Only EM has a full cross: a broadcast sender whose message mentions a
    variable bound above it blocks the session."""
    gamma = {"h": Impl(Impl(Z, V), B), "f": Impl(Z, B), "w": Z}
    src = ("nu a* : EMN[Z -> Z; 2]. [ h (\\y : Z. efq[V0](nota (\\q : Z. y))) "
           "|| f (a w) || f (a w) ]")
    t = _typed(src, gamma)
    assert not [r for r in find_redexes(t) if r.kind in CROSSES]
    _assert_discovery_matches_the_oracle([t], False)


def test_general_basic_cross_feeds_the_receiver_and_keeps_the_sender():
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    t = _typed("nu a* : AX{A -> B, B -> A}. [ f (a x) || g (a y) ]", gamma)
    out01 = _step_rule(t, "BasicCross(0,1)")
    assert _eq(out01, "nu a* : AX{A -> B, B -> A}. [ f (a x) || g x ]", gamma)
    out10 = _step_rule(t, "BasicCross(1,0)")
    assert _eq(out10, "nu a* : AX{A -> B, B -> A}. [ f y || g (a y) ]", gamma)


def test_the_rightmost_occurrence_is_under_the_last_child_that_holds_it():
    """Each component applies the channel twice, under the two children of
    one application, so a descent into the first child finds the wrong
    occurrence and ships the wrong message."""
    gamma = {"k": Impl(B, Impl(B, C)), "m": Impl(A, Impl(A, C)),
             "x1": A, "x2": A, "y1": B, "y2": B}
    src = "nu a* : AX{A -> B, B -> A}. [ k (a x1) (a x2) || m (a y1) (a y2) ]"
    t = _typed(src, gamma)
    for u in (fresh_copy(t), t):
        for i, last in enumerate(("x2", "y2")):
            occ = _rightmost(u, i)
            assert occ == chan_occurrences(comp_body(u.comps[i]), "a")[-1]
            assert occ.app_path == (1,) and occ.arg.name == last
    out01 = _step_rule(t, "BasicCross(0,1)")
    want = "nu a* : AX{A -> B, B -> A}. [ k (a x1) (a x2) || m (a y1) x2 ]"
    assert _eq(out01, want, gamma)
    out10 = _step_rule(t, "BasicCross(1,0)")
    want = "nu a* : AX{A -> B, B -> A}. [ k (a x1) y2 || m (a y1) (a y2) ]"
    assert _eq(out10, want, gamma)


def test_full_cross_mints_a_channel_for_the_captured_variables():
    gamma = {"h": Impl(Impl(Z, V), B), "f": Impl(Z, B), "w": Z}
    src = "nu a* : EM[Z -> Z]. [ h (\\y : Z. efq[V0](nota (\\q : Z. y))) || f (a w) ]"
    t = _typed(src, gamma)
    out = _step_rule(t, "FullCross")
    want = ("nu b : EM[Z]. [ nu a* : EM[Z -> Z]. [ h (\\y : Z. efq[V0](notb y)) || f (a w) ] "
            "|| f ((\\q : Z. b) w) ]")
    assert _eq(out, want, gamma)


def test_general_full_cross_sends_each_component_its_target_s_message():
    """Component 0 routes to component 1's antecedent, so its copy gets the
    receiver's message with z read off b; component 1's consequent is Bot,
    so its copy just tells b its captured variable."""
    gamma = {"f": Impl(Impl(A, B), C), "h": Impl(Impl(B, Bot()), C)}
    ax = "AX{A -> B, B -> Bot}"
    t = _typed(f"nu a* : {ax}. [ f (\\y : A. a y) || h (\\z : B. a z) ]", gamma)
    out = _step_rule(t, "FullCross")
    want = (f"nu b : AX!{{A -> B, B -> Bot}}. [ "
            f"nu a* : {ax}. [ f (\\y : A. b y) || h (\\z : B. a z) ] || "
            f"nu a* : {ax}. [ f (\\y : A. a y) || h (\\z : B. b z) ] ]")
    assert _eq(out, want, gamma)


def test_broadcast_cross_contracts_the_receivers():
    gamma = {"f": Impl(Z, B), "y": Z, "w": Z}
    src = "nu a* : EMN[Z -> Z; 2]. [ efq[B](nota (\\z : Z. z)) || f (a y) || f (a w) ]"
    out = _step_rule(_typed(src, gamma), "BroadcastCross")
    assert _eq(out, "f ((\\z : Z. z) y) |+| f ((\\z : Z. z) w)", gamma)


def test_garbage_cross_contracts_the_survivors():
    gamma = {"x0": B, "x1": B}
    t = _typed("nu a : EM[A]. [ x0 || x1 ]", gamma)
    out = _step_rule(t, "GarbageCross")
    assert _eq(out, "x0 |+| x1", gamma)


def test_session_comm_complexity_is_the_best_message():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    assert session_comm_complexity(t) == 1  # the identity at Z -> Z
    u = _typed("nu a : EM[Z -> Z]. [ efq[B](nota x) || f (a y) ]",
               {**gamma, "x": Impl(Z, Z)})
    assert session_comm_complexity(u) == 0


# --------------------------------------------------------------------------
# stepping errors and shapes

def test_step_rejects_a_stale_redex():
    gamma = {"y": A}
    t = _typed("(\\x : A. x) y", gamma)
    r = find_redexes(t)[0]
    done = step(t, r)
    with pytest.raises(InvalidRedex):
        step(done, r)


def test_step_rejects_a_permutation_out_of_another_slot():
    gamma = {"u": A, "v": A, "y": B}
    t = _typed("<u |+| v, y>", gamma)
    (r,) = [r for r in find_redexes(t) if r.kind == RedexKind.PAR_PERM]
    assert r.which == "pair-left"
    for which in ("pair-right", "stack", "lam", "no-such-slot"):
        with pytest.raises(InvalidRedex):
            step(t, Redex(RedexKind.PAR_PERM, (), 0, which=which))


def test_step_rejects_a_case_permutation_outside_a_frame():
    from lax import Disj

    gamma = {"s": Disj(A, A)}
    t = _typed("\\x : A. case s of {u. u | w. w}", gamma)
    with pytest.raises(InvalidRedex):
        step(t, Redex(RedexKind.CASE_PERM, (), 0))


def test_step_rejects_a_stale_garbage_cross():
    gamma = {"x0": B, "x": A, "f": Impl(A, B)}
    t = _typed("nu a : EM[A]. [ efq[B](nota x) || x0 ]", gamma)
    (r,) = [r for r in find_redexes(t) if r.kind == RedexKind.GARBAGE_CROSS]
    assert r.survivors == (1,)
    # the same session after its components changed: now 0 survives, not 1
    moved = _typed("nu a : EM[A]. [ x0 || f a ]", gamma)
    with pytest.raises(InvalidRedex):
        step(moved, r)
    # one that names no survivors is refused the same way
    with pytest.raises(InvalidRedex):
        step(t, Redex(RedexKind.GARBAGE_CROSS, (), 0))


@pytest.mark.parametrize("position", [(3,), (0, 0, 7), (-1,)])
def test_step_rejects_a_position_that_addresses_no_subterm(position):
    """A negative index would address the last child, here a Beta."""
    t = _typed("<y, (\\x : A. x) y>", {"y": A})
    with pytest.raises(InvalidRedex):
        step(t, Redex(RedexKind.BETA, position, 1))


# --------------------------------------------------------------------------
# the one gate: step accepts exactly the redexes discovery offers

_PERM_LABELS = ("stack", "app-left", "lam", "inj", "pair-left", "pair-right")


def _positions_off(path):
    """The position one index off either way; below the root, its first
    and its last child."""
    if not path:
        return [(0,), (-1,)]
    return [path[:-1] + (path[-1] + d,) for d in (1, -1)]


def _perturbations(r):
    """r with one field changed at a time."""
    out = [
        r._replace(complexity=r.complexity + 1),
        r._replace(complexity=r.complexity - 1),
        r._replace(kind=next(k for k in RedexKind if k != r.kind)),
    ]
    out += [r._replace(position=p) for p in _positions_off(r.position)]
    if r.which is not None:
        out += [r._replace(which=w) for w in _PERM_LABELS if w != r.which]
    if r.comp is not None:
        out.append(r._replace(comp=r.comp + 1))
    if r.sender is not None:
        out.append(r._replace(sender=r.receiver, receiver=r.sender))
    if r.survivors is not None:
        out.append(r._replace(survivors=r.survivors[1:]))
    return out


def _assert_step_accepts_exactly_the_offered(states):
    """Every redex offered with no discipline steps; a perturbation of one
    steps only when it is offered too (a shared sibling, say)."""
    for i, u in enumerate(states):
        offered = find_redexes(u)
        for r in offered:
            step(u, r)
            for q in _perturbations(r):
                if q in offered:
                    continue
                with pytest.raises(InvalidRedex):
                    step(u, q)
                    pytest.fail(f"state {i}: {q} stepped")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_step_accepts_exactly_the_offered_redexes(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=18))
    states, _ = _run_states(t, discipline)
    _assert_step_accepts_exactly_the_offered(states)


def test_step_accepts_exactly_the_offered_redexes_on_the_examples():
    fired = set()
    for name in EXAMPLES:
        for discipline in (False, True):
            states, trace = _run_states(_example(name), discipline)
            _assert_step_accepts_exactly_the_offered(states)
            fired |= {s.redex.kind for s in trace.steps}
    assert CROSSES | {RedexKind.GARBAGE_CROSS} <= fired


def test_a_redex_is_an_immutable_value():
    """Equal redexes, found on two copies of a state, are equal and hash
    equal; no field of one can be set."""
    seen = set()
    for name in EXAMPLES:
        states, _ = _run_states(_example(name), True)
        for u in states:
            rs, again = find_redexes(u, True), find_redexes(fresh_copy(u), True)
            assert rs == again and [hash(r) for r in rs] == [hash(r) for r in again]
            seen.update(rs)
            seen.update(again)
            for r in rs:
                for field in Redex._fields:
                    with pytest.raises(AttributeError):
                        setattr(r, field, None)
    assert CROSSES | {RedexKind.GARBAGE_CROSS, RedexKind.PAR_PAR_PERM} <= {r.kind for r in seen}


def test_parallel_form_and_height():
    gamma = {"x0": B, "x1": B, "x": A}
    flat = _typed("x0", gamma)
    assert is_parallel_form(flat) and height(flat) == 0
    sess = _typed("nu a : EM[A]. [ efq[B](nota x) || x0 ]", gamma)
    assert is_parallel_form(sess) and height(sess) == 1
    deep = _typed("nu a : EM[A]. [ efq[B](nota x) || (x0 |+| x1) ]", gamma)
    assert is_parallel_form(deep) and height(deep) == 2
    not_pf = _typed("\\w : A. (x0 |+| x1)", gamma)
    assert not is_parallel_form(not_pf)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "c3", "godel"]))
def test_every_discovered_redex_actually_steps(seed, preset):
    """step() accepts exactly what find_redexes discovered, and the result
    differs from the input except for bare activations."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=16))
    for r in find_redexes(t):
        out = step(t, r)
        assert out is not None
