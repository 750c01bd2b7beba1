"""Run validation: normal forms, subformula checking, trace audits."""

import dataclasses
import json
import random
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    App,
    Atom,
    Bot,
    Chan,
    Contract,
    Disj,
    Efq,
    GenConfig,
    Impl,
    Lam,
    NotNormal,
    Pair,
    ParBind,
    Proj,
    PropertyReport,
    StepLimitExceeded,
    TypingContext,
    TypingError,
    Underline,
    Var,
    audit_trace,
    check,
    check_parallel_nf_property,
    check_subject_reduction,
    check_subformula,
    communication_measure,
    em_axiom,
    find_redexes,
    generate,
    is_normal,
    normalize,
    parse_program,
    parse_term,
    redexes_at,
    show_term,
    step,
    type_of,
)
from lax import analysis, typecheck
from lax.rewrite import CROSSES, INTUITIONISTIC, Redex, RedexKind
from lax.strategy import Trace, TraceStep
from lax.terms import (
    build_tuple,
    children,
    contract_join,
    replace_at,
    subterm_at,
)

from oracles import (
    communication_measure_oracle,
    decrease_oracle,
    fresh_copy,
    iter_subterms,
    random_order_run,
    replay_oracle,
    subject_reduction_oracle,
    subterm_types_by_derivation,
)

A, B, Z = Atom("A"), Atom("B"), Atom("Z")


def _typed(src, gamma=None):
    gamma = dict(gamma or {})
    t, _ = check(parse_term(src, gamma), TypingContext(ivars=gamma))
    return t


def _run(seed, preset="em", size=22):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=size))
    ctx = TypingContext(ivars=gamma)
    final, trace = normalize(t, max_steps=20_000)
    return ctx, final, trace


# --------------------------------------------------------------------------
# reports

def test_property_report_flips_on_first_witness():
    rep = PropertyReport("demo", True)
    assert rep.holds
    rep.add("here", "because")
    assert not rep.holds
    assert rep.to_json()["witnesses"] == [{"where": "here", "why": "because"}]


def test_is_normal():
    assert is_normal(_typed("x", {"x": A}))
    assert not is_normal(_typed("(\\x : A. x) y", {"y": A}))


def test_parallel_nf_report_is_vacuous_on_non_normal_terms():
    rep = check_parallel_nf_property(_typed("(\\x : A. x) y", {"y": A}))
    assert rep.holds
    assert "not normal" in rep.note


def test_parallel_nf_report_on_an_actual_normal_form():
    ctx, final, _ = _run(7, "c3")
    rep = check_parallel_nf_property(final)
    assert rep.holds and not rep.witnesses and rep.note == ""


# --------------------------------------------------------------------------
# subformula property

def test_check_subformula_requires_a_normal_form():
    gamma = {"y": A}
    with pytest.raises(NotNormal):
        check_subformula(TypingContext(ivars=gamma), _typed("(\\x : A. x) y", gamma))


def test_check_subformula_types_a_term_not_checked_first():
    rep = check_subformula(TypingContext(ivars={"x": A}), Var("x"))
    assert rep.holds, rep.witnesses


def test_check_subformula_on_normal_forms():
    for seed, preset in [(3, "em"), (4, "em3"), (5, "c3"), (6, "g2"), (7, "godel")]:
        ctx, final, _ = _run(seed, preset)
        rep = check_subformula(ctx, final)
        assert rep.holds, rep.witnesses


def test_check_subformula_checks_a_term_only_when_its_judgement_fails_the_context(monkeypatch):
    """A normal form whose judgement holds in the context is read, not
    checked again; in another context check runs and raises as before."""
    ctx, final, _ = _run(3, "em")
    want = check_subformula(ctx, final)
    checked = []
    monkeypatch.setattr(analysis, "check", lambda *a: checked.append(a) or check(*a))
    assert check_subformula(ctx, final) == want
    assert checked == []
    with pytest.raises(TypingError):
        check_subformula(TypingContext(), final)
    assert len(checked) == 1


def test_the_subformula_witnesses_come_sessions_first_each_in_preorder(monkeypatch):
    """With nothing traceable, each session's transported formulas and
    then each subterm's type is a witness at its path, in preorder, as a
    walk that holds every node's path gives them."""
    gamma = {"f": Impl(Z, A), "y": Z, "g": Impl(A, B)}
    session = "nu {0} : EM[A]. [ efq[B](not{0} (f y)) || g {0} ]"
    t = _typed(session.format("a") + " |+| " + session.format("b"), gamma)
    assert is_normal(t)
    monkeypatch.setattr(analysis, "_formula_traceable", lambda f, allowed: False)
    want = [
        (str(list(p)), f"channel {s.chan} transports {f}, whose prime factors "
         "do not all trace back to the context")
        for p, s in iter_subterms(t) if isinstance(s, ParBind)
        for f in (A, Bot())
    ] + [
        (str(list(p)), f"subterm has type {ty}, which is not a conjunction of "
         "traceable subformulas")
        for p, ty in subterm_types(t).items()
    ]
    assert len(want) == 4 + 17
    assert check_subformula(TypingContext(ivars=gamma), t).witnesses == want


def test_check_subformula_holds_no_path_per_node():
    """A path is spelled out for a witness alone: on an 8 000-deep normal
    form the walk's traced peak stays far below the hundreds of MB that a
    path per node would hold."""
    t = Var("x")
    for i in range(8_000):
        t = Lam("y", A, t) if i % 2 else Pair(Var("x"), t)
    ctx = TypingContext(ivars={"x": A})
    t, _ = check(t, ctx)
    tracemalloc.start()
    try:
        assert check_subformula(ctx, t).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def subterm_types(t):
    """Type of every subterm but the channel occurrences, by path, read
    off the elaborated occurrence annotations."""
    return {path: type_of(s) for path, s in iter_subterms(t) if not isinstance(s, Chan)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "em3", "c3", "g2", "godel", None]))
def test_the_two_subterm_typers_agree(seed, preset):
    """A bottom-up reading from the annotations and a top-down derivation
    walk must assign every position the same formula."""
    _, t = generate(seed, GenConfig(preset=preset, max_size=20))
    assert subterm_types(t) == subterm_types_by_derivation(t)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_the_two_subterm_typers_agree_after_reduction(seed):
    _, t = generate(seed, GenConfig(preset="c3", max_size=20))
    final, _ = normalize(t, max_steps=10_000)
    assert subterm_types(final) == subterm_types_by_derivation(final)


# --------------------------------------------------------------------------
# every reduction order, not only the strategy's
#
# Subject reduction holds for the reduction relation, and the parallel
# normal form and subformula properties for every normal term. A run in
# random order that exhausts its budget is no failure: the paper proves
# termination for the master strategy, not for every order.

def _random_run(ctx, t, discipline, seed, budget=200):
    """(state, redex contracted in it) along a random-order run from t, in
    which every state types to t's type, and which, if it ends, ends in a
    term with both properties."""
    states, fired, ended = random_order_run(t, discipline, random.Random(seed), budget)
    for k, s in enumerate(states[1:]):
        rep = subject_reduction_oracle(ctx, t, s)
        assert rep.ok, f"after {fired[k]}: {rep.message}"
    if ended:
        assert check_parallel_nf_property(states[-1], discipline).holds
        assert check_subformula(ctx, states[-1]).holds
    return list(zip(states, fired))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
    st.integers(0, 10**9),
)
def test_every_reduction_order_keeps_the_type(seed, preset, discipline, order):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=40))
    ctx = TypingContext(ivars=gamma)
    t, _ = check(t, ctx)
    _random_run(ctx, t, discipline, order)


def test_every_reduction_order_on_the_examples_fires_every_cross():
    """Random orders reach what the strategy never picks on the examples,
    the general full cross among them."""
    fired = set()
    for name in ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"]:
        source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
        prog = parse_program(source)
        ctx = TypingContext(ivars=dict(prog.gamma))
        t, _ = check(prog.term, ctx)
        for discipline in (False, True):
            for seed in range(10):
                for s, r in _random_run(ctx, t, discipline, seed):
                    mode = subterm_at(s, r.position).axiom.mode if r.kind in CROSSES else None
                    fired.add((r.kind, mode))
    kinds = {k for k, _ in fired}
    assert kinds >= CROSSES | {RedexKind.GARBAGE_CROSS}
    assert {(RedexKind.FULL_CROSS, "em"), (RedexKind.FULL_CROSS, "general")} <= fired


# --------------------------------------------------------------------------
# trace audits

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "em3", "c3", "g2", "godel"]))
def test_honest_runs_audit_clean(seed, preset):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=25))
    ctx = TypingContext(ivars=gamma)
    final, trace = normalize(t, max_steps=20_000)
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses


def test_truncated_runs_still_audit_clean():
    gamma, t = generate(99, GenConfig(preset="c3", max_size=35))
    ctx = TypingContext(ivars=gamma)
    try:
        _, trace = normalize(t, max_steps=4)
    except StepLimitExceeded as e:
        trace = e.trace
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses


def test_audit_catches_a_tampered_step():
    gamma = {"y": A}
    ctx = TypingContext(ivars=gamma)
    t = _typed("(\\x : A. <x, x>) y", gamma)
    _, trace = normalize(t)
    fake = _typed("<y, y> |+| <y, y>", gamma)
    trace.steps[0] = dataclasses.replace(trace.steps[0], term_after=fake)
    rep = audit_trace(ctx, trace)
    assert not rep.holds
    assert any("replaying" in why for _, why in rep.witnesses)


def test_audit_catches_a_phase_swap():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    ctx = TypingContext(ivars=gamma)
    _, trace = normalize(t)
    # pretend the activation happened in the communication phase and the
    # basic cross before it in the activation phase
    trace.steps[0] = dataclasses.replace(trace.steps[0], phase="Communication")
    trace.steps[1] = dataclasses.replace(trace.steps[1], phase="Activation")
    rep = audit_trace(ctx, trace)
    assert not rep.holds
    assert any("cyclic order" in why for _, why in rep.witnesses)


def test_audit_flags_a_context_that_cannot_type_the_run():
    gamma = {"y": A}
    t = _typed("(\\x : A. x) y", gamma)
    _, trace = normalize(t)
    rep = audit_trace(TypingContext(), trace)  # empty context: y unbound
    assert not rep.holds


def _sr_witnesses(rep):
    return [(w, why) for w, why in rep.witnesses if "subject reduction" in why]


def test_an_ill_typed_state_fails_the_step_into_it_and_the_step_out(monkeypatch):
    """Both steps report the ill-typed state. Its judgement does not hold
    in the context, so neither step is settled by the judgements, and each
    types its states whole until one fails."""
    gamma = {"y": A}
    states = [
        _typed("(\\x : A. x) ((\\x : A. x) y)", gamma),
        _typed("(\\x : A. x) z", {"z": A}),  # z is not in the context
        _typed("y", gamma),
    ]
    trace = Trace(initial=states[0])
    for after in states[1:]:
        trace.steps.append(TraceStep(1, "Intuitionistic", Redex(RedexKind.BETA, (), 1), after))
    typed = []
    infer = typecheck.infer_type

    def counted(t, ctx=None):
        typed.append(t)
        return infer(t, ctx)

    monkeypatch.setattr(typecheck, "infer_type", counted)
    rep = audit_trace(TypingContext(ivars=gamma), trace)
    unbound = "UnboundName at [1]: unbound variable 'z'"
    assert _sr_witnesses(rep) == [
        ("step 0", f"subject reduction failed: after does not type: {unbound}"),
        ("step 1", f"subject reduction failed: before does not type: {unbound}"),
    ]
    # once step 1's before fails, its after is not needed
    assert typed == [states[0], states[1], states[1]]


def test_subject_reduction_judges_again_in_another_context():
    gamma = {"y": A}
    before, after = _typed("(\\x : A. x) y", gamma), _typed("y", gamma)
    ctx = TypingContext(ivars=dict(gamma))
    assert check_subject_reduction(ctx, before, after).ok
    assert not check_subject_reduction(TypingContext(), before, after).ok
    ctx.ivars.clear()  # the same context, changed in place
    assert not check_subject_reduction(ctx, before, after).ok
    ctx.ivars.update(gamma)
    assert check_subject_reduction(ctx, before, after).ok


def _count_discovery(monkeypatch):
    """The states the decrease audit hands find_redexes, in order."""
    calls = []
    found = analysis.find_redexes

    def counted(*args, **kwargs):
        calls.append(args[0])
        return found(*args, **kwargs)

    monkeypatch.setattr(analysis, "find_redexes", counted)
    return calls


def _count_peaks(monkeypatch):
    """The terms the decrease audit hands redex_peaks, in order."""
    calls = []
    peaks = analysis.redex_peaks

    def counted(*args, **kwargs):
        calls.append(args[0])
        return peaks(*args, **kwargs)

    monkeypatch.setattr(analysis, "redex_peaks", counted)
    return calls


def _decrease_witnesses(trace):
    """The decrease audit's witnesses, after the replay it reads."""
    rep = PropertyReport("decrease", True)
    terms = [trace.initial] + [s.term_after for s in trace.steps]
    typed = [typecheck.has_type(t) for t in terms]
    replayed = analysis._audit_replay(PropertyReport("replay", True), trace, terms, typed)
    analysis._audit_decrease(
        rep, trace, terms, typed, replayed, trace.underline_discipline
    )
    return rep.witnesses


def _same_nodes(calls, expected):
    return len(calls) == len(expected) and all(map(lambda a, b: a is b, calls, expected))


def test_decrease_audit_finds_each_state_s_redexes_once(monkeypatch):
    gamma = {"y": A}
    _, trace = normalize(_typed("(\\x : A. <x, <x, x>>) y pi1 pi0", gamma))
    assert [s.redex.rule for s in trace.steps] == ["Beta", "ProjPair", "ProjPair"]
    calls = _count_discovery(monkeypatch)
    assert _decrease_witnesses(trace) == []
    # a clean step is judged without listing any state
    assert calls == []


def test_a_clean_step_reads_no_whole_state(monkeypatch):
    """Each step below the root is judged on its path and on the peaks of
    the subtree at its position alone."""
    gamma = {"y": A}
    _, trace = normalize(_typed("<y, (\\x : A. <x, <x, x>>) y pi1 pi0>", gamma))
    assert [s.redex.rule for s in trace.steps] == ["Beta", "ProjPair", "ProjPair"]
    assert all(s.redex.position for s in trace.steps)
    found, peaks = _count_discovery(monkeypatch), _count_peaks(monkeypatch)
    assert _decrease_witnesses(trace) == []
    assert found == []
    assert _same_nodes(peaks, [subterm_at(s.term_after, s.redex.position)
                               for s in trace.steps])


def _one_step(src, gamma, phase, redex, after):
    """A trace of one recorded step from src to after."""
    trace = Trace(initial=_typed(src, gamma))
    trace.steps.append(TraceStep(1, phase, redex, _typed(after, gamma)))
    return trace


# an inactive EM session in a case scrutinee whose second component
# survives the garbage cross as an injection: the case above it becomes a
# CaseInj of complexity 2, above the second clause's bound 0
_EM = ("nu a : EM[A /\\ B]. [ inj0[P \\/ B \\/ C](efq[P](nota <efq[A](w), efq[B](w)>))"
       " || inj0[P \\/ B \\/ C](p) ]")
_EM_GAMMA = {"w": Bot(), "p": Atom("P")}
_GARBAGE = Redex(RedexKind.GARBAGE_CROSS, (0, 0), 0, survivors=(1,))


def test_a_step_that_builds_a_redex_above_every_bound_is_reported(monkeypatch):
    trace = _one_step(
        f"efq[P](case {_EM} of {{u. w | v. w}})", _EM_GAMMA, "Communication",
        _GARBAGE, "efq[P](case inj0[P \\/ B \\/ C](p) of {u. w | v. w})",
    )
    found = _count_discovery(monkeypatch)
    witnesses = [(
        "step 0",
        "after GarbageCross[1] (complexity 0), redex CaseInj at [0] has "
        "complexity 2, above every bound of the second decrease clause",
    )]
    assert _decrease_witnesses(trace) == witnesses == decrease_oracle(trace)
    assert _same_nodes(found, [trace.steps[0].term_after])


def test_a_built_redex_that_an_old_one_covers_holds_on_the_whole_states(monkeypatch):
    """The rebuilt case offers a CaseInj of complexity 2, above the bounds
    read from the path, but the CaseInj off the path has it too: the
    whole states' peaks settle the step, and no state is listed."""
    old = "case inj0[P \\/ B \\/ C](p) of {u. w | v. w}"
    redex = _GARBAGE._replace(position=(0, 0, 0))
    trace = _one_step(
        f"<efq[P](case {_EM} of {{u. w | v. w}}), {old}>", _EM_GAMMA,
        "Communication", redex, f"<efq[P]({old}), {old}>",
    )
    found, peaks = _count_discovery(monkeypatch), _count_peaks(monkeypatch)
    assert _decrease_witnesses(trace) == [] == decrease_oracle(trace)
    assert found == []
    assert _same_nodes(peaks, [trace.initial, trace.steps[0].term_after])


def test_a_step_that_does_not_replay_is_judged_on_the_whole_states(monkeypatch):
    """The recorded state after is not what the Beta gives: the ProjPair
    off the Beta's path is new, and only the whole states show it."""
    trace = _one_step(
        "<(\\x : A. x) y, y>", {"y": A}, "Intuitionistic",
        Redex(RedexKind.BETA, (0,), 1), "<y, <\\u : A. u, y> pi0>",
    )
    found, peaks = _count_discovery(monkeypatch), _count_peaks(monkeypatch)
    witnesses = [(
        "step 0",
        "after Beta (complexity 1), redex ProjPair at [1] has complexity 1, "
        "above every bound of the first decrease clause",
    )]
    assert _decrease_witnesses(trace) == witnesses == decrease_oracle(trace)
    after = trace.steps[0].term_after
    assert _same_nodes(peaks, [trace.initial, after]) and _same_nodes(found, [after])


def test_the_first_clause_allows_one_less_than_the_fired_complexity():
    """A Beta of complexity 2 drops the session that kept the projected
    case from being simply typed: the CasePerm over it rises from 0 to 2,
    the complexity of the injections in its branches, which the first
    clause does not allow."""
    gamma = {"w": Bot(), "a0": A, "b": B, "p": Atom("P")}
    inj = "inj1[Q \\/ (P -> P)](\\z : P. p)"
    branches = f"{{u. <p, {inj}> | v. <p, {inj}>}}"
    session = "nu c : AX{A -> B, B -> C, C -> A}. [ efq[A](w) || efq[A](w) || a0 ]"
    trace = _one_step(
        f"case (\\x : A. inj0[B \\/ C](b)) {session} of {branches} pi1", gamma,
        "Intuitionistic", Redex(RedexKind.BETA, (0, 0, 0), 2),
        f"case inj0[B \\/ C](b) of {branches} pi1",
    )
    witnesses = [(
        "step 0",
        "after Beta (complexity 2), redex CasePerm at [] has complexity 2, "
        "above every bound of the first decrease clause",
    )]
    assert _decrease_witnesses(trace) == witnesses == decrease_oracle(trace)


def test_a_session_on_the_path_that_starts_to_send_a_value_is_scanned():
    """The garbage cross of the inner session leaves a λ as the message of
    the outer one, which then offers an Activation of complexity 1: its
    channel transports A -> A, above the second clause's bound 0."""
    gamma = {"g": Impl(A, B), "y": A, "c0": Atom("C")}
    inner = "nu b : EM[C]. [ \\v : A. efq[A](notb c0) || \\u : A. u ]"
    trace = _one_step(
        f"nu a : EM[A -> A]. [ efq[B](nota ({inner})) || g (a y) ]", gamma,
        "Communication", Redex(RedexKind.GARBAGE_CROSS, (0, 0, 1), 0, survivors=(1,)),
        "nu a : EM[A -> A]. [ efq[B](nota (\\u : A. u)) || g (a y) ]",
    )
    witnesses = [(
        "step 0",
        "after GarbageCross[1] (complexity 0), redex Activation at [] has "
        "complexity 1, above every bound of the second decrease clause",
    )]
    assert _decrease_witnesses(trace) == witnesses == decrease_oracle(trace)


@pytest.mark.parametrize("phase, skipped", [
    ("Activation", Redex(RedexKind.ACTIVATION, (), 0)),
    ("ParallelForm", Redex(RedexKind.PAR_PERM, (), 0, which="stack")),
    ("Communication", Redex(RedexKind.PAR_PAR_PERM, (), 0, comp=0)),
])
def test_decrease_audit_finds_the_state_after_a_skipped_step_afresh(
    monkeypatch, phase, skipped
):
    """Step 1 is not decrease-checked, so step 2's "before" is its own state,
    not step 0's "after": bounds from that empty state would let the Beta at
    [0] through as a second witness. Only the offending step's state after
    is listed."""
    gamma = {"x": A}
    states = [
        _typed(src, gamma)
        for src in (
            "(\\u : A. u) x",
            "x",
            "(\\g : A -> A. g) (\\u : A. u)",
            "<(\\g : A -> A. g) (\\u : A. u), <\\h : (A -> A) -> A -> A. h, x> pi0>",
        )
    ]
    trace = Trace(initial=states[0])
    for phase_i, redex, after in (
        ("Intuitionistic", Redex(RedexKind.BETA, (), 1), states[1]),
        (phase, skipped, states[2]),
        ("Intuitionistic", Redex(RedexKind.BETA, (), 3), states[3]),
    ):
        trace.steps.append(TraceStep(1, phase_i, redex, after))
    calls = _count_discovery(monkeypatch)
    assert _decrease_witnesses(trace) == [(
        "step 2",
        "after Beta (complexity 3), redex ProjPair at [1] has complexity 7, "
        "above every bound of the first decrease clause",
    )]
    assert calls == [states[3]]


def _pair_chain(depth, leaf):
    t = leaf
    for _ in range(depth):
        t = Pair(Var("x"), t)
    return t


def test_a_deep_chain_audits_clean_with_subject_reduction():
    """Built elaborated, the 5 000-deep chain is judged on explicit stacks
    only: its judgements, the types compared and the types printed."""
    depth = 5_000
    leaf = Proj(Pair(Var("a", A), Var("b", A)), 0)
    t = leaf
    for _ in range(depth):
        t = Pair(Var("x", A), t)
    _, trace = normalize(t)
    assert len(trace.steps) == 1
    rep = audit_trace(TypingContext(ivars={"a": A, "b": A, "x": A}), trace)
    assert rep.holds, rep.witnesses


# Each builds, for n: (a term, its context, its text, the rules the
# strategy fires, the normal form's text).

def _beta_into_a_deep_body(n):
    body = Var("x")
    for _ in range(n):
        body = Pair(Var("x"), body)
    return (
        App(Lam("x", A, body), Var("y")), {"y": A},
        "(\\x:A. <" + ", ".join(["x"] * (n + 1)) + ">) y",
        ["Beta"], "<" + ", ".join(["y"] * (n + 1)) + ">",
    )


def _a_long_projected_tuple(n):
    t = Proj(build_tuple(tuple(Lam("z", A, Var("z")) for _ in range(n))), 0)
    text = "<" + ", ".join(["\\z:A. z"] * n) + "> pi0"
    return t, {}, text, ["ProjPair"], "\\z:A. z"


def _a_wide_join(n):
    last = App(Lam("z", A, Var("z")), Var("x"))
    return (
        contract_join([Var("x")] * (n - 1) + [last]), {"x": A},
        "x |+| " * (n - 1) + "(\\z:A. z) x", ["Beta"], "x |+| " * (n - 1) + "x",
    )


def _an_activation_over_a_deep_component(n):
    """The activation renames the session's channel in the deep component,
    which the cross then rebuilds."""
    receiver = App(Var("f"), App(Chan("a"), Var("y")))
    for _ in range(n):
        receiver = App(Var("g"), receiver)
    sender = Efq(App(Chan("a", negated=True), Lam("z", Z, Var("z"))), B)
    return (
        ParBind("a", False, em_axiom(Impl(Z, Z)), (sender, receiver)),
        {"f": Impl(Z, B), "g": Impl(B, B), "y": Z},
        "nu a:EM[Z -> Z]. [efq[B](nota (\\z:Z. z)) || "
        + "g (" * n + "f (a y)" + ")" * n + "]",
        ["Activation", "BasicCross(0,1)", "Beta"],
        "g (" * n + "f y" + ")" * n,
    )


DEEP_TERMS = {
    "beta": _beta_into_a_deep_body,
    "tuple": _a_long_projected_tuple,
    "join": _a_wide_join,
    "activation": _an_activation_over_a_deep_component,
}


@pytest.mark.parametrize("shape", sorted(DEEP_TERMS))
def test_a_deep_or_wide_term_checks_prints_normalizes_and_audits(shape):
    """Substitution, renaming, printing, the value complexity and the
    parallel-form test all run on explicit stacks."""
    t, gamma, text, rules, final_text = DEEP_TERMS[shape](5_000)
    ctx = TypingContext(ivars=gamma)
    t, _ = check(t, ctx)
    assert show_term(t) == text
    final, trace = normalize(t)
    assert [s.redex.rule for s in trace.steps] == rules
    assert show_term(final) == final_text
    for rep in (
        audit_trace(ctx, trace),
        check_parallel_nf_property(final),
        check_subformula(ctx, final),
    ):
        assert rep.holds, rep.witnesses


def test_a_deep_chain_audits_clean():
    """The replay comparison runs on an explicit stack: the 5 000-deep
    chain passes, and a change at its bottom is still seen. The chain is
    checked first: discovery reads only a state whose judgement holds."""
    depth = 5_000
    ctx = TypingContext(ivars={"a": A, "b": A, "x": A})
    t, _ = check(_pair_chain(depth, Proj(Pair(Var("a"), Var("b")), 0)), ctx)
    _, trace = normalize(t)
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses
    tampered = Trace(initial=t)
    tampered.steps.append(dataclasses.replace(
        trace.steps[0], term_after=_pair_chain(depth, Var("b"))
    ))
    rep = audit_trace(ctx, tampered)
    assert ("step 0", "replaying ProjPair gives a different term") in rep.witnesses


# --------------------------------------------------------------------------
# a recorded state after that the replay must reject

# a Beta whose contractum is a pair, below a pair, an injection, a
# projection and a pair again
_SPINE = ("<z, inj0[(A /\\ A) \\/ B](<(\\x : A. <x, x>) y, z> pi0)>", {"y": A, "z": B})
# a Beta in a session's second component
_SESSION = ("nu a : EM[A]. [ efq[B](nota x) || (\\w : B. w) x0 ]", {"x0": B, "x": A})


def _replay_witnesses(witnesses):
    return [w for w in witnesses
            if w[1].startswith(("recorded redex no longer applies: ", "replaying "))]


def _at(t, path, make):
    """t with make(s) for its subterm s at path."""
    return replace_at(t, path, make(subterm_at(t, path)))


def _replay_of_a_tampered_beta(program, tamper):
    """The audit's witnesses when the Beta of program is recorded as giving
    tamper(the state it gives)."""
    src, gamma = program
    t = _typed(src, gamma)
    (r,) = [q for q in find_redexes(t) if q.kind == RedexKind.BETA]
    trace = Trace(initial=t)
    trace.steps.append(TraceStep(1, "Intuitionistic", r, tamper(step(t, r))))
    return audit_trace(TypingContext(ivars=dict(gamma)), trace).witnesses


@pytest.mark.parametrize("program, tamper", [
    # another node at the root
    (_SPINE, lambda h: h.left),
    # a spine node with other data: the projection's index, the
    # injection's disjunction
    (_SPINE, lambda h: _at(h, (1, 0), lambda s: dataclasses.replace(s, index=1))),
    (_SPINE, lambda h: _at(h, (1,), lambda s: dataclasses.replace(s, disj=Disj(B, B)))),
    # a spine node of another class with the same data and as many children
    (_SPINE, lambda h: _at(h, (1, 0, 0), lambda s: Contract(s.left, s.right))),
    # a sibling off the path, deep and at the root
    (_SPINE, lambda h: _at(h, (1, 0, 0, 1), lambda s: dataclasses.replace(s, name="y"))),
    (_SPINE, lambda h: _at(h, (0,), lambda s: dataclasses.replace(s, name="y"))),
    # inside the contractum
    (_SPINE, lambda h: _at(h, (1, 0, 0, 0, 1), lambda s: dataclasses.replace(s, name="z"))),
    # fewer levels than the path: the projection dropped
    (_SPINE, lambda h: _at(h, (1, 0), lambda s: s.arg)),
    # a session with one component more, or one fewer
    (_SESSION, lambda h: dataclasses.replace(h, comps=h.comps + (h.comps[1],))),
    (_SESSION, lambda h: dataclasses.replace(h, comps=h.comps[:1])),
], ids=[
    "root", "projection-index", "injection-disjunction", "spine-class",
    "deep-sibling", "root-sibling", "contractum", "level-dropped",
    "session-component-more", "session-component-fewer",
])
def test_the_replay_rejects_a_tampered_state_after(program, tamper):
    witnesses = _replay_of_a_tampered_beta(program, tamper)
    assert ("step 0", "replaying Beta gives a different term") in witnesses


@pytest.mark.parametrize("program", [_SPINE, _SESSION], ids=["spine", "session"])
def test_the_replay_accepts_the_state_after_built_afresh(program):
    assert _replay_witnesses(_replay_of_a_tampered_beta(program, fresh_copy)) == []


# --------------------------------------------------------------------------
# a recorded redex the replay cannot fire


def _one_step_audit(src, gamma, phase, redex, after):
    t = _typed(src, gamma)
    trace = Trace(initial=t)
    trace.steps.append(TraceStep(1, phase, redex, _typed(after, gamma)))
    return audit_trace(TypingContext(ivars=dict(gamma)), trace).witnesses


@pytest.mark.parametrize("src, redex, after", [
    # a position out of range, at depth and at the root's children
    ("(\\x : A. x) y", Redex(RedexKind.BETA, (0, 0, 7), 1), "y"),
    ("(\\x : A. x) y", Redex(RedexKind.BETA, (3,), 1), "y"),
    # a negative index, which would address the last child, a Beta
    ("<y, (\\x : A. x) y>", Redex(RedexKind.BETA, (-1,), 1), "<y, y>"),
    # the complexity off by one
    ("(\\x : A. x) y", Redex(RedexKind.BETA, (), 2), "y"),
])
def test_a_recorded_beta_that_is_not_offered_is_reported(src, redex, after):
    witnesses = _one_step_audit(src, {"y": A}, "Intuitionistic", redex, after)
    assert ("step 0", "recorded redex no longer applies: Beta") in witnesses


@pytest.mark.parametrize("position", [(5,), (-1,)])
def test_a_recorded_garbage_cross_at_no_subterm_is_reported(position):
    """The communication measure reads the recorded position too."""
    gamma = {"x0": B, "x": A}
    src = "nu a : EM[A]. [ efq[B](nota x) || x0 ]"
    redex = Redex(RedexKind.GARBAGE_CROSS, position, 0, survivors=(1,))
    witnesses = _one_step_audit(src, gamma, "Communication", redex, "x0")
    assert ("step 0", "recorded redex no longer applies: GarbageCross[1]") in witnesses


# --------------------------------------------------------------------------
# the communication measure

def test_measure_of_a_quiet_term_is_empty():
    n, h, g = communication_measure(_typed("x", {"x": A}))
    assert (n, h, g) == (0, {}, {})


def test_measure_sees_uppermost_active_sessions():
    gamma = {"f": Impl(B, Atom("C")), "g": Impl(A, Atom("C")), "x": A, "y": B}
    t = _typed("nu a* : AX{A -> B, B -> A}. [ f (a x) || g (a y) ]", gamma)
    n, h, g = communication_measure(t)
    assert n == 0
    assert h == {}  # nothing parallel buried inside
    assert g == {2: 1}  # one applied occurrence per component


def test_measure_counts_buried_parallel_nodes():
    gamma = {"x": A, "u": B, "v": B}
    t = _typed("nu a* : EM[A]. [ efq[B](nota x) || (u |+| v) ]", gamma)
    n, h, g = communication_measure(t)
    assert n == 0
    assert h == {1: 1}  # one contraction buried in one uppermost session


def test_measure_of_a_session_over_a_deep_chain():
    depth = 5_000
    a = Chan("a", Impl(A, Bot()), active=True, negated=True)
    chain = _pair_chain(depth, Pair(App(a, Var("x")), Contract(Var("u"), Var("v"))))
    t = ParBind("a", True, em_axiom(A), (chain, Var("y")))
    assert communication_measure(t) == (0, {1: 1}, {1: 1})


def test_measure_skips_the_occurrences_a_namesake_session_binds():
    def occurrence(active):
        return App(Chan("a", Impl(A, Bot()), active=active, negated=True), Var("x"))

    inner = ParBind("a", False, em_axiom(A), (occurrence(False), Var("y")))
    t = ParBind("a", True, em_axiom(A), (occurrence(True), inner))
    assert communication_measure(t) == (0, {1: 1}, {1: 1})


def _measures_as_the_oracle_says(states):
    """Every state measures as the oracle does, with one table shared
    along the run, as the audit shares it."""
    table = {}
    for t in states:
        assert communication_measure(t, table) == communication_measure_oracle(t)


def _frozen_comm_runs(workload="comm", every=1):
    """(context, trace) of the run of each frozen program of workload, or
    of every every-th one."""
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data" / f"{workload}.jsonl"
    records = [json.loads(line) for line in data.read_text().splitlines()[1:]]
    assert len(records) > 20
    for rec in records[::every]:
        prog = parse_program(rec["source"])
        ctx = TypingContext(ivars=dict(prog.gamma))
        t, _ = check(prog.term, ctx)
        yield ctx, normalize(t, underline_discipline=rec["underline"])[1]


def _example(name):
    """(context, checked term) of a bundled example."""
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    ctx = TypingContext(ivars=dict(prog.gamma))
    return ctx, check(prog.term, ctx)[0]


EXAMPLES = ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"]


def test_the_measure_is_the_oracles_on_every_state_of_the_frozen_comm_programs():
    for _, trace in _frozen_comm_runs():
        _measures_as_the_oracle_says([trace.initial] + [s.term_after for s in trace.steps])


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_measure_is_the_oracles_on_the_examples(name):
    _, t = _example(name)
    for discipline in (False, True):
        _, trace = normalize(t, underline_discipline=discipline)
        _measures_as_the_oracle_says([trace.initial] + [s.term_after for s in trace.steps])
        for seed in range(5):
            states, _, _ = random_order_run(t, discipline, random.Random(seed), 200)
            _measures_as_the_oracle_says(states)


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel"])
def test_the_measure_is_the_oracles_along_random_orders(preset):
    for seed in range(30):
        _, t = generate(seed, GenConfig(preset=preset, max_size=40))
        states, _, _ = random_order_run(t, seed % 2 == 1, random.Random(seed), 200)
        _measures_as_the_oracle_says(states)


def _sent(chan, active=True):
    return App(Chan(chan, Impl(A, Bot()), active=active, negated=True), Var("x"))


def _session(chan, active, *comps):
    return ParBind(chan, active, em_axiom(A), comps)


_JOIN = Contract(Var("u"), Var("v"))

# (term, its measure), each built by hand
HAND_MEASURED = {
    "a component rebinds the name": (
        _session("a", True, _sent("a"), _session("a", False, _sent("a", False), Var("y"))),
        (0, {1: 1}, {1: 1}),
    ),
    "a rebinding deep inside a component": (
        _session("a", True, Pair(_sent("a"), Lam("z", A, _session(
            "a", False, _sent("a", False), _sent("a", False)))), Var("y")),
        (0, {1: 1}, {1: 1}),
    ),
    "a session of another name": (
        _session("a", True, _session("b", False, _sent("a"), _sent("b", False)), _sent("a")),
        (0, {1: 1}, {2: 1}),
    ),
    "marked components": (
        _session("a", True, Underline(_sent("a")), Underline(Pair(_sent("a"), _JOIN))),
        (0, {1: 1}, {2: 1}),
    ),
    "contractions": (
        _session("a", True, Contract(_sent("a"), _sent("a")), Contract(Var("u"), _JOIN)),
        (0, {3: 1}, {2: 1}),
    ),
    "one join at two positions": (
        _session("a", True, Pair(_JOIN, _JOIN), Var("y")),
        (0, {2: 1}, {0: 1}),
    ),
    "an active session inside an inactive one": (
        _session("b", False, _session("a", True, _sent("a"), Var("y")), _sent("b", False)),
        (0, {}, {1: 1}),
    ),
    "an active session inside an active one": (
        _session("b", True, _session("a", True, _sent("a"), Var("y")), _sent("b")),
        (1, {}, {1: 1}),
    ),
    "two uppermost sessions": (
        Pair(_session("a", True, _sent("a"), _JOIN), _session("b", True, _sent("b"), Var("y"))),
        (0, {1: 1}, {1: 2}),
    ),
}


@pytest.mark.parametrize("case", sorted(HAND_MEASURED))
def test_the_measure_of_a_hand_built_term(case):
    t, measure = HAND_MEASURED[case]
    assert communication_measure_oracle(t) == measure
    assert communication_measure(t) == measure


def test_one_table_serves_every_hand_built_term():
    table = {}
    for case in sorted(HAND_MEASURED) * 2:
        t, measure = HAND_MEASURED[case]
        assert communication_measure(t, table) == measure


def test_the_measure_and_the_audit_pass_over_a_deep_active_component():
    """The tallies are taken on an explicit stack: an active session over a
    5 000-deep component measures, and its run audits clean."""
    depth = 5_000
    receiver = App(Var("f"), App(Chan("a", active=True), Var("y")))
    for _ in range(depth):
        receiver = App(Var("g"), receiver)
    sender = Efq(App(Chan("a", active=True, negated=True), Lam("z", Z, Var("z"))), B)
    t = ParBind("a", True, em_axiom(Impl(Z, Z)), (sender, receiver))
    ctx = TypingContext(ivars={"f": Impl(Z, B), "g": Impl(B, B), "y": Z})
    t, _ = check(t, ctx)
    assert communication_measure(t) == (0, {}, {2: 1})
    _, trace = normalize(t)
    assert [s.phase for s in trace.steps][0] == "Communication"
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses


# --------------------------------------------------------------------------
# the replay against its oracle, which rebuilds every state


def _replays_as_the_oracle_says(ctx, trace):
    witnesses = replay_oracle(trace)
    assert _replay_witnesses(audit_trace(ctx, trace).witnesses) == witnesses
    return witnesses


def test_the_replay_is_the_oracles_on_the_frozen_comm_programs():
    for ctx, trace in _frozen_comm_runs():
        assert _replays_as_the_oracle_says(ctx, trace) == []


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_replay_is_the_oracles_on_the_examples(name):
    ctx, t = _example(name)
    for discipline in (False, True):
        _, trace = normalize(t, underline_discipline=discipline)
        assert _replays_as_the_oracle_says(ctx, trace) == []


def _label(s):
    """The first field of s that holds a flag, an index or a name, if any."""
    return next((f.name for f in dataclasses.fields(s)
                 if type(getattr(s, f.name)) in (bool, int, str)), None)


def _tampered(trace, rng):
    """(how, i, trace with its i-th state after tampered): a subterm swapped
    for one of another state, one node's label changed (a flag flipped, an
    index swapped, a name primed), or a node replaced by one of its
    children (a level dropped)."""
    states = [trace.initial] + [s.term_after for s in trace.steps]
    i = rng.randrange(len(trace.steps))
    after = states[i + 1]
    nodes = list(iter_subterms(after))
    labelled = [(p, s) for p, s in nodes if _label(s)]
    inner = [(p, s) for p, s in nodes if children(s)]
    how = rng.choice(["swap"] + ["data"] * bool(labelled) + ["drop"] * bool(inner))
    if how == "swap":
        other = rng.choice(states[: i + 1] + states[i + 2:])
        path, new = rng.choice(nodes)[0], rng.choice(list(iter_subterms(other)))[1]
    elif how == "data":
        path, s = rng.choice(labelled)
        name = _label(s)
        v = getattr(s, name)
        v = not v if type(v) is bool else 1 - v if type(v) is int else v + "'"
        new = dataclasses.replace(s, **{name: v})
    else:
        path, s = rng.choice(inner)
        new = rng.choice(children(s))
    steps = list(trace.steps)
    steps[i] = dataclasses.replace(steps[i], term_after=replace_at(after, path, new))
    return how, i, dataclasses.replace(trace, steps=steps)


def _replay_expected(trace):
    """replay_oracle's witnesses, one step at a time, except that a step
    out of a state that does not type no longer applies: discovery cannot
    read such a state, and the oracle's step may raise ValueError in it."""
    out, before = [], trace.initial
    for k, ts in enumerate(trace.steps):
        if typecheck.has_type(before):
            out += [(f"step {k}", why)
                    for _, why in replay_oracle(Trace(initial=before, steps=[ts]))]
        else:
            out.append((f"step {k}", f"recorded redex no longer applies: {ts.redex.rule}"))
        before = ts.term_after
    return out


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel"])
def test_the_replay_is_the_oracles_on_tampered_traces(preset):
    """audit_trace raises on no tampered trace, and its replay gives the
    oracle's witnesses, step by step. A changed label or a dropped level is
    caught at its step; a swapped subterm may happen to be equal."""
    for seed in range(20):
        gamma, t = generate(seed, GenConfig(preset=preset, max_size=40))
        _, trace = normalize(t, underline_discipline=seed % 2 == 1)
        if not trace.steps:
            continue
        rng = random.Random(seed)
        for _ in range(3):
            how, i, tampered = _tampered(trace, rng)
            rep = audit_trace(TypingContext(ivars=dict(gamma)), tampered)
            witnesses = _replay_witnesses(rep.witnesses)
            assert witnesses == _replay_expected(tampered)
            try:
                replay_oracle(tampered)
            except ValueError:  # where the whole-trace oracle raises
                rule = tampered.steps[i + 1].redex.rule
                assert (f"step {i + 1}", f"recorded redex no longer applies: {rule}") in witnesses
            if how != "swap":
                rule = tampered.steps[i].redex.rule
                assert (f"step {i}", f"replaying {rule} gives a different term") in witnesses


# --------------------------------------------------------------------------
# the decrease audit against its oracle, which lists every redex of both
# states


def _decreases_as_the_oracle_says(trace):
    witnesses = decrease_oracle(trace)
    assert _decrease_witnesses(trace) == witnesses
    return witnesses


@pytest.mark.parametrize("name", EXAMPLES)
def test_the_decrease_audit_is_the_oracles_on_the_examples(name):
    _, t = _example(name)
    for discipline in (False, True):
        _, trace = normalize(t, underline_discipline=discipline)
        assert _decreases_as_the_oracle_says(trace) == []


@pytest.mark.parametrize("workload, every", [("heavy", 2), ("comm", 1)])
def test_the_decrease_audit_is_the_oracles_on_frozen_programs(workload, every):
    for _, trace in _frozen_comm_runs(workload, every):
        _decreases_as_the_oracle_says(trace)


def _random_order_trace(t, discipline, seed, budget=150):
    """A random-order run from t as a trace; its phases are the rules'."""
    states, fired, _ = random_order_run(t, discipline, random.Random(seed), budget)
    trace = Trace(initial=t, underline_discipline=discipline)
    for r, after in zip(fired, states[1:]):
        phase = "Intuitionistic" if r.kind in INTUITIONISTIC else "Communication"
        trace.steps.append(TraceStep(1, phase, r, after))
    return trace


def _count_settled(monkeypatch):
    """How often the check on what a step built settled it, and how often
    the whole states had to be compared."""
    settled = {True: 0, False: 0}
    built_within = analysis._built_within

    def counted(*args):
        ok = built_within(*args)
        settled[ok] += 1
        return ok

    monkeypatch.setattr(analysis, "_built_within", counted)
    return settled


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel", None])
def test_the_decrease_audit_is_the_oracles_along_random_orders(preset, monkeypatch):
    """Random orders build redexes that the path's bounds do not settle,
    so the whole states are compared too."""
    settled = _count_settled(monkeypatch)
    for seed in range(40):
        gamma, t = generate(seed, GenConfig(preset=preset, max_size=40))
        t, _ = check(t, TypingContext(ivars=gamma))
        for discipline in (False, True):
            _decreases_as_the_oracle_says(_random_order_trace(t, discipline, seed))
    assert settled[True] > 0 and settled[False] > 0


# random-order runs in which a step builds a redex above every bound: on a
# rebuilt node of the path, or inside the contractum (em3 144)
@pytest.mark.parametrize("preset, seed, found", [
    ("em", 159, 1), ("em3", 144, 2), ("c3", 274, 1), ("g2", 17, 1),
    ("g2", 111, 1), ("g2", 220, 1), ("godel", 220, 1),
])
def test_the_decrease_audit_is_the_oracles_where_random_orders_break_a_clause(
    preset, seed, found
):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=40))
    t, _ = check(t, TypingContext(ivars=gamma))
    for discipline in (False, True):
        trace = _random_order_trace(t, discipline, seed)
        assert len(_decreases_as_the_oracle_says(trace)) == found


def _decrease_expected(trace):
    """decrease_oracle's witnesses, one step at a time, for the steps
    between states that type: the audit judges no other step."""
    out = []
    states = [trace.initial] + [s.term_after for s in trace.steps]
    for k, ts in enumerate(trace.steps):
        if typecheck.has_type(states[k]) and typecheck.has_type(states[k + 1]):
            one = Trace(initial=states[k], steps=[ts],
                        underline_discipline=trace.underline_discipline)
            out += [(f"step {k}", why) for _, why in decrease_oracle(one)]
    return out


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel"])
def test_the_decrease_audit_is_the_oracles_on_tampered_traces(preset):
    """A tampered step does not replay, so it is judged on the whole
    states, as the oracle judges it."""
    for seed in range(20):
        _, t = generate(seed, GenConfig(preset=preset, max_size=40))
        _, trace = normalize(t, underline_discipline=seed % 2 == 1)
        if not trace.steps:
            continue
        rng = random.Random(seed)
        for _ in range(3):
            _, _, tampered = _tampered(trace, rng)
            assert _decrease_witnesses(tampered) == _decrease_expected(tampered)


def _sessions_offer_within_their_formulas(states, discipline):
    """Every session's own redexes are hoists of complexity 0, or of the
    second group at a complexity no formula its channel transports falls
    below: the fact that lets the decrease audit leave a session unscanned."""
    for t in states:
        for _, s in iter_subterms(t):
            if isinstance(s, ParBind):
                top = max(f.complexity for f in analysis._binder_kind_formulas(s))
                for r in redexes_at(s, (), discipline):
                    if r.kind == RedexKind.PAR_PAR_PERM:
                        assert r.complexity == 0, r
                    else:
                        assert r.group == 2 and r.complexity <= top, (r, top)


@pytest.mark.parametrize("name", EXAMPLES)
def test_sessions_offer_within_their_formulas_on_the_examples(name):
    _, t = _example(name)
    for discipline in (False, True):
        _, trace = normalize(t, underline_discipline=discipline)
        _sessions_offer_within_their_formulas(
            [trace.initial] + [s.term_after for s in trace.steps], discipline
        )
        for seed in range(5):
            states, _, _ = random_order_run(t, discipline, random.Random(seed), 200)
            _sessions_offer_within_their_formulas(states, discipline)


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel"])
def test_sessions_offer_within_their_formulas_along_random_orders(preset):
    for seed in range(20):
        _, t = generate(seed, GenConfig(preset=preset, max_size=40))
        states, _, _ = random_order_run(t, seed % 2 == 1, random.Random(seed), 150)
        _sessions_offer_within_their_formulas(states, seed % 2 == 1)


def test_sessions_offer_within_their_formulas_on_the_frozen_comm_programs():
    for _, trace in _frozen_comm_runs():
        _sessions_offer_within_their_formulas(
            [trace.initial] + [s.term_after for s in trace.steps],
            trace.underline_discipline,
        )
