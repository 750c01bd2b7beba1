"""Typing rules, elaboration, and the subject-reduction report."""

import json
import random
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from lax import (
    App,
    Atom,
    Bot,
    Case,
    Chan,
    Conj,
    Contract,
    Disj,
    Efq,
    GenConfig,
    Impl,
    Inj,
    Lam,
    Pair,
    ParBind,
    Proj,
    Top,
    TypingContext,
    TypingError,
    Underline,
    Unit,
    Var,
    alpha_eq,
    audit_trace,
    broadcast_axiom,
    check,
    check_subject_reduction,
    em_axiom,
    free_names,
    find_redexes,
    generate,
    infer_type,
    normalize,
    parse_program,
    parse_term,
    show_formula,
    step,
    type_of,
)
from lax import typecheck
from lax.rewrite import multiple_subst
from lax.terms import facts_of, replace_at, subterm_at

from oracles import (
    check_oracle,
    fresh_copy,
    iter_subterms,
    subject_reduction_oracle,
    type_of_oracle,
)

A, B, C = Atom("A"), Atom("B"), Atom("C")


def _infer(src: str, gamma=None):
    return infer_type(parse_term(src, gamma or {}), TypingContext(ivars=gamma or {}))


def check_report(t, ctx=None) -> dict:
    """Machine-readable result: {ok, type, errors: [{code, position, message}]}."""
    try:
        _, ty = check(t, ctx)
        return {"ok": True, "type": show_formula(ty), "errors": []}
    except TypingError as e:
        return {"ok": False, "type": None, "errors": [e.issue.to_json()]}


# --------------------------------------------------------------------------
# rule-by-rule positives

def test_identity():
    assert _infer("\\x : A. x") == Impl(A, A)


def test_application():
    assert _infer("f x", {"f": Impl(A, B), "x": A}) == B


def test_pair_and_projections():
    assert _infer("<x, y>", {"x": A, "y": B}) == Conj(A, B)
    assert _infer("<x, y> pi1", {"x": A, "y": B}) == B


def test_injection_and_case():
    assert _infer("inj0[A \\/ B](x)", {"x": A}) == Disj(A, B)
    src = "case s of {u. f u | w. w}"
    assert _infer(src, {"s": Disj(A, B), "f": Impl(A, B)}) == B


def test_unit_and_absurdity():
    assert _infer("tt") == Top()
    assert _infer("efq[P9](z)", {"z": Bot()}) == Atom("P9")
    assert _infer("efq[Top](z)", {"z": Bot()}) == Top()


def test_em_session_types_both_occurrence_polarities():
    src = "nu a : EM[A]. [ efq[B](nota x) || f a ]"
    assert _infer(src, {"x": A, "f": Impl(A, B)}) == B


def test_general_session_components_share_the_conclusion():
    src = "nu a : AX{A -> B, B -> A}. [ f (a x) || g (a y) ]"
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    assert _infer(src, gamma) == C


def test_broadcast_session():
    src = "nu a : EMN[A; 2]. [ efq[B](nota x) || f a || f a ]"
    assert _infer(src, {"x": A, "f": Impl(A, B)}) == B


def test_contraction_joins_equal_types():
    assert _infer("x |+| y", {"x": A, "y": A}) == A


def test_mark_is_transparent_to_the_type():
    src = "nu a* : AX{A -> B, B -> A}. [ @f (a x) || g (a y) ]"
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    assert _infer(src, gamma) == C


# --------------------------------------------------------------------------
# rule-by-rule negatives

@pytest.mark.parametrize(
    "src,gamma",
    [
        ("f x", {"f": Impl(A, B), "x": B}),  # argument type mismatch
        ("x pi0", {"x": A}),  # projecting a non-pair type
        ("inj0[A \\/ B](x)", {"x": B}),  # wrong side
        ("inj0[A](x)", {"x": A}),  # annotation is not a disjunction
        ("case s of {u. u | w. w}", {"s": A}),  # scrutinee not a disjunction
        ("efq[A](x)", {"x": A}),  # argument must be absurd
        ("efq[A -> B](z)", {"z": Bot()}),  # target must be prime
        ("x |+| y", {"x": A, "y": B}),  # contraction of unequal types
        ("tt tt", {}),  # applying a non-function
    ],
)
def test_ill_typed_terms_are_rejected(src, gamma):
    with pytest.raises(TypingError):
        _infer(src, gamma)


def test_session_arity_must_match_the_scheme():
    with pytest.raises(TypingError):
        _infer("nu a : EM[A]. [ efq[B](nota x) || f a || f a ]", {"x": A, "f": Impl(A, B)})


def test_occurrence_polarity_is_per_component():
    # comp 1 of an EM session holds the bare side; nota there is an error
    with pytest.raises(TypingError):
        _infer("nu a : EM[A]. [ efq[B](nota x) || efq[B](nota y) ]", {"x": A, "y": A})
    # and the bare channel cannot stand in comp 0
    with pytest.raises(TypingError):
        _infer("nu a : EM[A]. [ f a || f a ]", {"f": Impl(A, B)})


def test_components_must_agree_on_the_conclusion():
    with pytest.raises(TypingError):
        _infer("nu a : EM[A]. [ efq[B](nota x) || g a ]", {"x": A, "g": Impl(A, C)})


def test_mark_outside_a_session_is_rejected():
    from lax import LaxSyntaxError

    with pytest.raises(LaxSyntaxError):
        _infer("@x", {"x": A})


def test_issue_carries_code_and_position():
    rep = check_report(parse_term("f x", {"f": Impl(A, B), "x": B}),
                       TypingContext(ivars={"f": Impl(A, B), "x": B}))
    assert not rep["ok"]
    assert rep["errors"][0]["code"]
    assert isinstance(rep["errors"][0]["position"], list)


# --------------------------------------------------------------------------
# elaboration

def test_elaboration_fills_occurrence_types():
    t = parse_term("\\x : A. x")
    elab, ty = check(t)
    assert ty == Impl(A, A)
    assert elab.body.ty == A
    assert type_of(elab) == ty


def test_elaboration_is_idempotent():
    gamma = {"x": A, "f": Impl(A, B)}
    t = parse_term("f x", gamma)
    ctx = TypingContext(ivars=gamma)
    once, ty1 = check(t, ctx)
    twice, ty2 = check(once, ctx)
    assert once == twice and ty1 == ty2


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "c3", "godel", None]))
def test_generated_terms_check_and_reports_agree(seed, preset):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=20))
    ctx = TypingContext(ivars=gamma)
    elab, ty = check(t, ctx)
    assert infer_type(t, ctx) == ty
    assert check_report(t, ctx)["ok"]
    assert type_of(elab) == ty
    for _, u in iter_subterms(elab):
        assert type_of(u) == type_of_oracle(u)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_closed_generated_terms_need_no_context(seed):
    gamma, t = generate(seed, GenConfig(preset="em", max_size=20, closed=True))
    assert gamma == {}
    check(t)


# --------------------------------------------------------------------------
# mutations of constrained positions

def _mutate_constrained(t):
    """Break an annotation the context genuinely pins down, or None.

    An annotation in dead code (say, under a projection that drops it) can
    change freely without making the term ill-typed, so the mutation targets
    positions where typing has no slack: the bound of an applied lambda and
    the side of an injection whose disjuncts differ.
    """
    from lax import RedexKind

    for r in find_redexes(t):
        s = subterm_at(t, r.position)
        if r.kind == RedexKind.BETA:
            lam = replace(s.fun, ann=Conj(s.fun.ann, C))
            return replace_at(t, r.position, replace(s, fun=lam))
        if r.kind == RedexKind.CASE_INJ and s.scrut.disj.left != s.scrut.disj.right:
            inj = replace(s.scrut, index=1 - s.scrut.index)
            return replace_at(t, r.position, replace(s, scrut=inj))
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_broken_annotations_break_the_term(seed):
    gamma, t = generate(seed, GenConfig(preset=None, max_size=18))
    bad = _mutate_constrained(t)
    if bad is None:
        return
    with pytest.raises(TypingError):
        infer_type(bad, TypingContext(ivars=gamma))


# --------------------------------------------------------------------------
# subject reduction report

def test_subject_reduction_accepts_a_real_step():
    gamma = {"x": A}
    t = parse_term("(\\y : A. y) x", gamma)
    ctx = TypingContext(ivars=gamma)
    elab, _ = check(t, ctx)
    r = find_redexes(elab)[0]
    after = step(elab, r)
    rep = check_subject_reduction(ctx, elab, after)
    assert rep.ok
    assert rep.type_before == rep.type_after == "A"


def test_subject_reduction_flags_a_type_change():
    gamma = {"x": A, "y": B}
    ctx = TypingContext(ivars=gamma)
    rep = check_subject_reduction(ctx, parse_term("x", gamma), parse_term("y", gamma))
    assert not rep.ok
    assert "type changed" in rep.message


def test_subject_reduction_flags_new_free_names():
    gamma = {"x": A, "y": A}
    ctx = TypingContext(ivars=gamma)
    rep = check_subject_reduction(
        ctx, parse_term("x", gamma), parse_term("(\\u : A. u) y", gamma)
    )
    assert not rep.ok
    assert "free names" in rep.message


# --------------------------------------------------------------------------
# subject reduction judged by replacement: the same report as whole states

GAMMA = {"x": A, "y": A, "w": A, "z": B, "f": Impl(A, A), "g": Impl(B, A),
         "s": Disj(A, B)}
u, l, r, x, y, w, z, f = (Var(n) for n in "ulrxywzf")


def _typed(src, gamma=GAMMA):
    gamma = dict(gamma)
    return check(parse_term(src, gamma), TypingContext(ivars=gamma))[0]


def _judged(before, after, gamma=GAMMA):
    """The report, after checking it is the whole-state oracle's."""
    ctx = TypingContext(ivars=dict(gamma))
    rep = check_subject_reduction(ctx, before, after)
    assert rep == subject_reduction_oracle(ctx, before, after)
    return rep


def _typed_whole(monkeypatch):
    """The terms typed through infer_type: the states of each step that the
    judgements do not settle."""
    typed = []
    infer = typecheck.infer_type

    def counted(t, ctx=None):
        typed.append(t)
        return infer(t, ctx)

    monkeypatch.setattr(typecheck, "infer_type", counted)
    return typed


def _checked_whole(monkeypatch):
    """The terms typed whole through check."""
    typed = []
    whole = typecheck.check

    def counted(t, ctx=None):
        typed.append(t)
        return whole(t, ctx)

    monkeypatch.setattr(typecheck, "check", counted)
    return typed


def _judging(monkeypatch):
    """The nodes whose judgement is computed."""
    judged = []
    judge = typecheck._node_judgement

    def counted(s, kids):
        judged.append(s)
        return judge(s, kids)

    monkeypatch.setattr(typecheck, "_node_judgement", counted)
    return judged


def _built(before, after):
    """The ids of the nodes of after that are not nodes of before."""
    old = {id(s) for _, s in iter_subterms(before)}
    return sorted({id(s) for _, s in iter_subterms(after)} - old)


@pytest.mark.parametrize("src, path, new, message", [
    # in a lambda
    ("\\u : A. <(\\v : A. v) u, y>", (0, 0), u, ""),
    ("\\u : A. <(\\v : A. v) u, y>", (0, 0), f, "type changed"),
    ("\\u : A. <(\\v : A. v) u, y>", (0, 0), Var("nobody"),
     "after does not type: UnboundName at [0, 0]: unbound variable 'nobody'"),
    # in a case branch
    ("case s of {l. (\\v : A. v) l | r. g r}", (1,), l, ""),
    ("case s of {l. (\\v : A. v) l | r. g r}", (1,), r,
     "after does not type: UnboundName at [1]: unbound variable 'r'"),
    ("case s of {l. (\\v : A. v) l | r. g r}", (1,), z,
     "after does not type: TypeMismatch at [2]: case branches: expected B, found A"),
    ("case s of {l. (\\v : B. v) z | r. r}", (1,), l,
     "after does not type: TypeMismatch at [2]: case branches: expected A, found B"),
    # in a session component
    ("nu a : EM[A]. [ efq[A](nota x) || (\\v : A. v) a ]", (1,), Chan("a"), ""),
    ("nu a : EM[A]. [ efq[A](nota x) || (\\v : A. v) a ]", (1,), y,
     "new free names appeared: ['y']"),
    ("nu a : EM[A]. [ efq[A](nota x) || (\\v : A. v) a ]", (1,),
     Chan("a", negated=True),
     "after does not type: ChannelDisciplineViolation at [1]: occurrence of a "
     "in component 1 must have plain polarity"),
])
def test_a_contraction_deep_in_a_term(src, path, new, message):
    before = _typed(src)
    rep = _judged(before, replace_at(before, path, replace(new)))  # a fresh node
    assert (rep.ok, rep.message) == (not message, message)


def test_a_step_that_changes_a_label_on_the_path():
    before = _typed("\\u : A. (\\v : A. v) y")
    assert _judged(before, Lam("u", B, y)).message == "type changed"
    before = _typed("inj0[A \\/ B]((\\v : A. v) x)")
    after = Inj(1, Disj(A, B), x)
    assert _judged(before, after).message == (
        "after does not type: TypeMismatch at [0]: inj1 argument: expected B, found A"
    )


def test_a_remembered_subterm_is_typed_again_under_other_binders():
    """The u the first step writes is a Top; the state that shares it binds
    u to A."""
    before = _typed("\\u : Top. (\\v : Top. v) u")
    after = replace_at(before, (0,), Var("u"))
    assert _judged(before, after).ok
    again = Lam("u", A, after.body)
    assert _judged(again, Lam("u", A, parse_term("tt"))).message == "type changed"


def test_a_step_that_changes_a_sibling_is_typed_where_the_walk_stops(monkeypatch):
    """The judgements settle the step: only the nodes it built are judged,
    and no state is typed whole."""
    before = _typed("\\u : A. <(\\v : A. v) x, y>")
    assert _judged(before, before).ok  # judges every node of before
    typed, judged = _typed_whole(monkeypatch), _judging(monkeypatch)
    after = replace_at(before, (0,), Pair(Var("x", A), Var("u", A)))  # u is bound
    assert _judged(before, after).ok
    assert sorted(map(id, judged)) == _built(before, after) and typed == []
    wrong = replace_at(before, (0,), Pair(Var("x", A), Var("f", Impl(A, A))))
    assert _judged(before, wrong).message == "type changed"
    assert typed == [before, wrong]  # the types differ: judged whole


SESSION = "nu a : EM[A]. [ efq[A](nota x) || (\\v : A. v) a ]"
MARKED = "nu a : EM[A]. [ @efq[A](nota x) || (\\v : A. v) a ]"


@pytest.mark.parametrize("src, path, new, message", [
    # a mark added to an unmarked session, at its root or below a lambda
    (SESSION, (1,), lambda t: Underline(Chan("a")), ""),
    ("\\u : A. " + SESSION, (0, 1), lambda t: Underline(Chan("a")), ""),
    # a second mark
    (MARKED, (1,), lambda t: Underline(Chan("a")),
     "after does not type: ChannelDisciplineViolation at []: more than one "
     "marked component"),
    # a mark removed
    (MARKED, (0,), lambda t: t.comps[0].body, ""),
    ("\\u : A. " + MARKED, (0, 0), lambda t: t.body.comps[0].body, ""),
    # a mark off the components
    ("\\u : A. <(\\v : A. v) x, y>", (0, 0), lambda t: Underline(x),
     "after does not type: ChannelDisciplineViolation at [0, 0]: component mark "
     "outside a session"),
])
def test_a_contractum_that_adds_or_removes_a_component_mark(src, path, new, message):
    before = _typed(src)
    rep = _judged(before, replace_at(before, path, new(before)))
    assert (rep.ok, rep.message) == (not message, message)


def test_a_bare_channel_that_becomes_an_applied_head(monkeypatch):
    before = _typed("nu a : EM[A -> A]. [ efq[A](nota f) || (\\h : A -> A. h) a x ]")
    typed = _typed_whole(monkeypatch)
    after = replace_at(before, (1, 0), before.comps[1].fun.arg)  # the channel
    assert _judged(before, after).ok and typed == []
    # one occurrence, bare in before and the head of an application in after
    form = (Impl(A, A), False, False)
    judgement = typecheck._judgement
    assert judgement(before.comps[1])[2] == {"a": frozenset({form + (True,)})}
    assert judgement(after.comps[1])[2] == {"a": frozenset({form + (False,)})}
    # in a general session the channel may only occur applied
    before = _typed(
        "nu a : AX{A -> B, B -> A}. [ (\\h : A -> B. g (h x)) (\\v : A. a v) || a z ]"
    )
    after = replace_at(before, (0, 1), before.comps[0].arg.body.fun)
    assert _judged(before, after).message == (
        "after does not type: ChannelDisciplineViolation at [0, 1]: channel a "
        "cannot occur alone in component 0"
    )
    # the component alone types; its session refuses the bare form
    bare = (Impl(A, B), False, False, True)
    assert judgement(after.comps[0])[2] == {"a": frozenset({bare})}
    refusal = judgement(after)
    assert not refusal and typed == [before, after]
    assert refusal.message == "channel a cannot occur alone in component 0"


def test_a_new_free_name_bound_on_the_path_or_free_elsewhere(monkeypatch):
    typed = _typed_whole(monkeypatch)
    before = _typed("\\u : A. (\\v : A. v) y")
    assert _judged(before, replace_at(before, (0,), Var("u", A))).ok
    before = _typed("<(\\v : A. v) y, x>")
    assert _judged(before, replace_at(before, (0,), Var("x", A))).ok
    assert typed == []  # the lambda binds u, and x is free in before too
    after = replace_at(before, (0,), Var("w", A))
    assert _judged(before, after).message == "new free names appeared: ['w']"
    assert typed == [before, after]
    # a variable named as the channel bound on the path is still new
    gamma = {**GAMMA, "a": A}
    before = check(
        ParBind("a", False, em_axiom(A), (
            Efq(App(Chan("a", negated=True), x), A),
            App(Lam("v", A, Var("v")), Chan("a")),
        )),
        TypingContext(ivars=dict(gamma)),
    )[0]
    after = replace_at(before, (1,), Var("a", A))
    assert typecheck._judgement(after)[1] == {"x": A, "a": A}
    assert _judged(before, after, gamma).message == "new free names appeared: ['a']"


def test_checking_a_deep_step_types_only_the_redex(monkeypatch):
    t = Proj(Pair(x, y), 0)
    for _ in range(400):
        t = Pair(x, t)
    ctx = TypingContext(ivars=dict(GAMMA))
    before, _ = check(t, ctx)
    (redex,) = find_redexes(before)
    after = step(before, redex)
    assert check_subject_reduction(ctx, before, before).ok  # check judged before
    calls = _checked_whole(monkeypatch)
    judged = _judging(monkeypatch)
    assert check_subject_reduction(ctx, before, after).ok
    assert calls == []
    # the 400 pairs on the path; the contractum x is a node of before
    assert sorted(map(id, judged)) == _built(before, after) and len(judged) == 400


@pytest.mark.parametrize("src, path, new, message", [
    # a free variable annotated with a type its context does not give it
    ("<x, g z> pi1", (), lambda t: App(Var("g", Impl(B, A)), Var("x", B)),
     "TypeMismatch at [1]: argument: expected B, found A"),
    # a bound variable annotated with a type its binder does not give it
    ("\\v : A. (\\u : B. x) z", (0,), lambda t: App(Var("g", Impl(B, A)), Var("v", B)),
     "TypeMismatch at [0, 1]: argument: expected B, found A"),
    # a channel occurrence annotated with a type its session does not give it
    (SESSION, (1,), lambda t: App(Var("g", Impl(B, A)), Chan("a", B)),
     "TypeMismatch at [1, 1]: argument: expected B, found A"),
    # a mark off the components, and a second mark
    ("<x, y>", (0,), lambda t: Underline(t.left),
     "ChannelDisciplineViolation at [0]: component mark outside a session"),
    (MARKED, (1,), lambda t: Underline(t.comps[1].arg),
     "ChannelDisciplineViolation at []: more than one marked component"),
    # a session short of a component
    ("nu a : EMN[A; 2]. [ efq[A](nota x) || a || a ]", (),
     lambda t: replace(t, comps=t.comps[:2]),
     "ChannelDisciplineViolation at []: axiom EMN[A;2] wants 3 components, got 2"),
])
def test_an_elaborated_node_whose_judgement_does_not_hold(src, path, new, message):
    """Each new node is elaborated, and its annotations type it on their own;
    its judgement refuses what check refuses in place."""
    before = _typed(src)
    after = replace_at(before, path, new(before))
    assert _judged(before, after).message == f"after does not type: {message}"
    ctx = TypingContext(ivars=dict(GAMMA))
    assert not typecheck._holds(typecheck._judgement(after), ctx)


def test_a_free_channel_judged_in_a_context_that_types_it():
    ctx = TypingContext(chans={"c": A})
    before, after = Chan("c", A), Chan("c", A, negated=True)
    assert check_subject_reduction(ctx, before, before).ok
    rep = check_subject_reduction(ctx, before, after)
    assert rep == subject_reduction_oracle(ctx, before, after)
    assert rep.message == (
        "after does not type: ChannelDisciplineViolation at []: free channel c "
        "has no sender polarity"
    )
    # check types a free channel as its context does, whatever it is annotated
    ctx = TypingContext(chans={"c": B})
    rep = check_subject_reduction(ctx, before, before)
    assert rep == subject_reduction_oracle(ctx, before, before)
    assert rep.ok and rep.type_before == "B"


def _assert_steps_match_the_oracle(ctx, t, discipline):
    """Every step of the run, and the step that puts a variable of the
    wrong type, or an unbound one, in place of each contractum."""
    _, trace = normalize(t, max_steps=10_000, underline_discipline=discipline)
    states = [trace.initial] + [ts.term_after for ts in trace.steps]
    for i, ts in enumerate(trace.steps):
        before, after = states[i], states[i + 1]
        assert check_subject_reduction(ctx, before, after) == subject_reduction_oracle(
            ctx, before, after
        )
    for i, ts in enumerate(trace.steps):
        for name in sorted(ctx.ivars)[:2] + ["nobody"]:
            wrong = replace_at(states[i], ts.redex.position, Var(name))
            assert check_subject_reduction(
                ctx, states[i], wrong
            ) == subject_reduction_oracle(ctx, states[i], wrong)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel"]),
    st.booleans(),
)
def test_subject_reduction_matches_the_whole_state_oracle(seed, preset, discipline):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=20))
    _assert_steps_match_the_oracle(TypingContext(ivars=gamma), t, discipline)


@pytest.mark.parametrize("name", ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"])
def test_subject_reduction_matches_the_whole_state_oracle_on_the_examples(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    ctx = TypingContext(ivars=dict(prog.gamma))
    t, _ = check(prog.term, ctx)
    for discipline in (False, True):
        _assert_steps_match_the_oracle(ctx, t, discipline)


# --------------------------------------------------------------------------
# judgements: what check says of a node, with no context

PRESETS = ["em", "em3", "c3", "g2", "godel", None]
EXAMPLES = ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"]


def _example(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    ctx = TypingContext(ivars=dict(prog.gamma))
    return ctx, check(prog.term, ctx)[0]


def _states(t, discipline):
    _, trace = normalize(t, max_steps=10_000, underline_discipline=discipline)
    return [trace.initial] + [ts.term_after for ts in trace.steps]


def _assert_judgements_hold(ctx, t, discipline):
    """Every state's judgement, remembered and on a fresh copy, holds in
    ctx with check's type and the state's free names."""
    for state in _states(t, discipline):
        for u in (state, fresh_copy(state)):
            j = typecheck._judgement(u)
            assert typecheck._holds(j, ctx)
            assert j[0] == infer_type(u, ctx)
            assert (j[1].keys(), j[2].keys()) == free_names(u)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS), st.booleans())
def test_every_state_is_judged_as_check_types_it(seed, preset, discipline):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=20))
    _assert_judgements_hold(TypingContext(ivars=gamma), t, discipline)


@pytest.mark.parametrize("name", EXAMPLES)
def test_every_state_is_judged_as_check_types_it_on_the_examples(name):
    ctx, t = _example(name)
    for discipline in (False, True):
        _assert_judgements_hold(ctx, t, discipline)


def _tampers(t, rng):
    """t with one annotation changed, a few times for each kind: a
    variable's type, a channel's activity or polarity, a lambda's bound."""
    kinds = {"ty": [], "active": [], "negated": [], "ann": []}
    for path, s in iter_subterms(t):
        if type(s) is Var:
            kinds["ty"].append((path, replace(s, ty=Impl(s.ty, s.ty))))
        elif type(s) is Chan:
            kinds["active"].append((path, replace(s, active=not s.active)))
            kinds["negated"].append((path, replace(s, negated=not s.negated)))
        elif type(s) is Lam:
            kinds["ann"].append((path, replace(s, ann=Conj(s.ann, s.ann))))
    for found in kinds.values():
        for path, new in rng.sample(found, min(3, len(found))):
            yield replace_at(t, path, new)


def _assert_tampers_match_the_oracle(ctx, t, discipline, rng):
    """A tampered annotation in either state of a step gives the whole-state
    oracle's report."""
    states = _states(t, discipline)
    for before, after in zip(states, states[1:]):
        pairs = [(before, a) for a in _tampers(after, rng)]
        pairs += [(b, after) for b in _tampers(before, rng)]
        for b, a in pairs:
            rep = check_subject_reduction(ctx, b, a)
            assert rep == subject_reduction_oracle(ctx, b, a)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS), st.booleans())
def test_a_tampered_annotation_is_reported_as_the_oracle_reports_it(
    seed, preset, discipline
):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=20))
    ctx = TypingContext(ivars=gamma)
    _assert_tampers_match_the_oracle(ctx, t, discipline, random.Random(seed))


@pytest.mark.parametrize("name", EXAMPLES)
def test_a_tampered_annotation_is_reported_as_the_oracle_reports_it_on_the_examples(
    name,
):
    ctx, t = _example(name)
    for discipline in (False, True):
        _assert_tampers_match_the_oracle(ctx, t, discipline, random.Random(name))


# --------------------------------------------------------------------------
# check on an explicit stack: the recursive typer's results, first errors,
# deep terms and deep types

def _result(typer, t, ctx):
    try:
        return typer(t, ctx)
    except TypingError as e:
        return e.issue


def _assert_checks_as_the_oracle(t, ctx):
    """The same type and elaborated term, or the same error (code, path and
    message); an elaborated term comes back as it is, and type_of reads
    every subterm's type as the recursive type_of computes it."""
    got, want = _result(check, t, ctx), _result(check_oracle, t, ctx)
    if isinstance(want, typecheck.TypeIssue):
        assert got == want
        return want
    (elab, ty), (oracle_elab, oracle_ty) = got, want
    assert alpha_eq(elab, oracle_elab) and ty == oracle_ty
    assert check(elab, ctx)[0] is elab
    for _, u in iter_subterms(elab):
        assert type_of(u) == type_of_oracle(u)
    return None


def _formula_pool(t, gamma):
    pool = [A, Atom("Z"), Bot(), Top(), Impl(A, B), Conj(A, B), Disj(A, B)]
    pool += gamma.values()
    for _, s in iter_subterms(t):
        pool += [getattr(s, f) for f in ("ann", "disj", "target") if hasattr(s, f)]
    return pool


def _typing_mutant(rng, t, ctx):
    """One seeded typing mutant of t, or None: a swapped annotation or free
    type, a tampered occurrence type, activity or polarity, a component or
    mark dropped or added, a subterm moved, a session component taken out
    of its session. It may change ctx, a context of its own."""
    subs, pool = list(iter_subterms(t)), _formula_pool(t, ctx.ivars)

    def pick(cls):
        found = [(p, s) for p, s in subs if isinstance(s, cls)]
        return rng.choice(found) if found else (None, None)

    def at(cls, new):
        p, s = pick(cls)
        return None if s is None else replace_at(t, p, new(s))

    def comps(s):
        cs = list(s.comps)
        how = rng.randrange(4)
        if how == 0:
            cs.pop(rng.randrange(len(cs)))
        elif how == 1:
            cs.insert(rng.randrange(len(cs) + 1), rng.choice(cs))
        elif how == 2:
            rng.shuffle(cs)
        else:
            i = rng.randrange(len(cs))
            cs[i] = Underline(cs[i])
        return replace(s, comps=tuple(cs))

    kind = rng.randrange(16)
    if kind == 0:
        return at(Lam, lambda s: replace(s, ann=rng.choice(pool)))
    if kind == 1:
        return at(Inj, lambda s: replace(s, disj=rng.choice(pool)))
    if kind == 2:
        return at(Efq, lambda s: replace(s, target=rng.choice(pool)))
    if kind == 3:
        args = [Unit(), rng.choice(subs)[1]] + [Var(x) for x in sorted(ctx.ivars)]
        return at(Efq, lambda s: replace(s, arg=rng.choice(args)))
    if kind in (4, 5) and ctx.ivars:
        x = rng.choice(sorted(ctx.ivars))
        if kind == 4:
            ctx.ivars[x] = rng.choice(pool)
        else:
            del ctx.ivars[x]
        return t
    if kind == 6:
        return at((Var, Chan), lambda s: replace(s, ty=rng.choice(pool + [None])))
    if kind == 7:
        return at(Chan, lambda s: replace(s, active=not s.active))
    if kind == 8:
        return at(Chan, lambda s: replace(s, negated=not s.negated))
    if kind == 9:
        return at(ParBind, comps)
    if kind == 10:
        if rng.random() < 0.5:
            return at(Underline, lambda s: rng.choice([Underline(s), s.body]))
        p, s = rng.choice(subs)
        return replace_at(t, p, Underline(s))
    if kind == 11:
        (p, _), (_, u) = rng.choice(subs), rng.choice(subs)
        return replace_at(t, p, u)
    if kind == 12:
        axioms = [s.axiom for _, s in subs if isinstance(s, ParBind)]
        return at(ParBind, lambda s: replace(s, axiom=rng.choice(axioms)))
    if kind == 13:
        _, s = pick(ParBind)
        if s is None:
            return None
        if rng.random() < 0.8:  # its channel free, typed by the context
            ctx.chans[s.chan] = s.axiom.carrier or rng.choice(pool)
        comp = rng.choice(s.comps)
        return comp.body if isinstance(comp, Underline) else comp
    if kind == 14:
        (p, u), (_, v) = rng.choice(subs), rng.choice(subs)
        return replace_at(t, p, Contract(u, v))
    if kind == 15:
        heads = [(p, s) for p, s in subs if isinstance(s, App) and isinstance(s.fun, Chan)]
        if heads:
            p, s = rng.choice(heads)
            return replace_at(t, p, rng.choice([s.fun, replace(s, fun=rng.choice(subs)[1])]))
    return None


def _frozen_programs():
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    for path in sorted(data.glob("*.jsonl")):
        for line in path.read_text().splitlines()[1:]:
            record = json.loads(line)
            prog = parse_program(record["source"])
            yield prog.term, dict(prog.gamma)
            if record["reference"] is not None:
                yield parse_term(record["reference"], dict(prog.gamma)), dict(prog.gamma)
    for name in EXAMPLES:
        prog = parse_program((resources.files("lax") / "examples" / f"{name}.lax").read_text())
        yield prog.term, dict(prog.gamma)


# a pattern for each of the 22 errors check words; a message is the first
# one's it contains
_ERROR_SITES = [
    "unbound variable", "unbound channel", "argument of channel", "a function type",
    "inj", "efq argument", "argument:", "projection:", "a disjunction annotation",
    "case scrutinee", "case branches", "efq target", "wants", "nested component marks",
    "of session", "more than one marked", "contraction", "outside a session",
    "has activity", "must have", "cannot occur alone", "no sender polarity",
]


def _site(issue):
    return next(s for s in _ERROR_SITES if s in issue.message)


def test_check_is_the_recursive_typer_on_the_frozen_corpus_and_its_mutants():
    """The 589 frozen programs, their references and the examples, each as
    it is and elaborated, then 6 000 seeded typing mutants of them; every
    error check fires."""
    programs = []
    for t, gamma in _frozen_programs():
        ctx = TypingContext(ivars=gamma)
        assert _assert_checks_as_the_oracle(t, ctx) is None
        programs.append((t, gamma))
        programs.append((check_oracle(t, ctx)[0], gamma))
    assert len(programs) == 2 * 1_183
    rng, fired, made = random.Random(2026), set(), 0
    while made < 6_000:
        t, gamma = rng.choice(programs)
        ctx = TypingContext(ivars=dict(gamma))
        bad = _typing_mutant(rng, t, ctx)
        if bad is not None:
            made += 1
            issue = _assert_checks_as_the_oracle(bad, ctx)
            if issue is not None:
                fired.add(_site(issue))
    assert fired == set(_ERROR_SITES)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PRESETS))
def test_check_is_the_recursive_typer_on_generated_terms(seed, preset):
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=30))
    ctx, rng = TypingContext(ivars=gamma), random.Random(seed)
    elab = check(t, ctx)[0]
    for u in [t, elab, *_tampers(elab, rng)]:
        _assert_checks_as_the_oracle(u, ctx)
    for _ in range(20):
        mutant_ctx = TypingContext(ivars=dict(gamma))
        bad = _typing_mutant(rng, t, mutant_ctx)
        if bad is not None:
            _assert_checks_as_the_oracle(bad, mutant_ctx)


NOBODY = Var("nobody")


@pytest.mark.parametrize("t, error", [
    # a head that is no function, then an unbound argument
    (App(Pair(x, y), NOBODY), "TypeMismatch at [0]: expected a function type, found A /\\ A"),
    # a scrutinee that is no disjunction, then branches that fail
    (Case(x, "l", NOBODY, "r", Underline(x)),
     "TypeMismatch at [0]: case scrutinee: expected a disjunction, found A"),
    # a component of the wrong type, then a later one that fails
    (ParBind("a", False, broadcast_axiom(A, 2), (
        Efq(App(Chan("a", negated=True), x), B), x, NOBODY)),
     "TypeMismatch at [1]: component 1 of session a: expected B, found A"),
    # an annotation, a target or a mark refused before the subterm is read
    (Inj(0, A, NOBODY), "TypeMismatch at []: expected a disjunction annotation, found A"),
    (Efq(NOBODY, Conj(A, B)), "EfqTargetNotAtomic at []: efq target must be an atom "
     "or Top, got A /\\ B"),
    (Pair(x, Underline(NOBODY)), "ChannelDisciplineViolation at [1]: component mark "
     "outside a session"),
    # an argument after its head, and a channel's argument
    (App(f, App(NOBODY, x)), "UnboundName at [1, 0]: unbound variable 'nobody'"),
    (ParBind("a", False, em_axiom(A), (Efq(App(Chan("a", negated=True), z), A), Chan("a"))),
     "TypeMismatch at [0, 0, 1]: argument of channel a: expected A, found B"),
    # the mark of a component is no level of the path
    (ParBind("a", False, em_axiom(A), (
        Underline(Efq(App(Chan("a", negated=True), x), A)), Lam("v", A, NOBODY))),
     "UnboundName at [1, 0]: unbound variable 'nobody'"),
    (ParBind("a", False, em_axiom(A), (
        Underline(Efq(App(Chan("a", negated=True), NOBODY), A)), Chan("a"))),
     "UnboundName at [0, 0, 1]: unbound variable 'nobody'"),
])
def test_the_first_error_is_the_one_the_rules_meet_first(t, error):
    ctx = TypingContext(ivars=dict(GAMMA))
    with pytest.raises(TypingError) as e:
        check(t, ctx)
    assert str(e.value) == error
    assert e.value.issue == _result(check_oracle, t, ctx)


def _conj_chain(depth):
    f = A
    for _ in range(depth):
        f = Conj(A, f)
    return f


@pytest.mark.parametrize("grow", [
    lambda t: Lam("x", A, t), lambda t: Pair(x, t), lambda t: App(f, t),
], ids=["lambda", "pair", "application"])
def test_a_deep_chain_checks(grow):
    """5 000 deep, check, infer_type and type_of run on explicit stacks;
    the types are compared without recursion."""
    t = x
    for _ in range(5_000):
        t = grow(t)
    ctx = TypingContext(ivars=dict(GAMMA))
    elab, ty = check(t, ctx)
    assert infer_type(t, ctx) is ty
    assert type_of(elab) is ty
    again, again_ty = check(elab, ctx)  # judged already: the same objects
    assert again is elab and again_ty is ty


def test_a_deep_type_is_compared_without_recursion():
    """Two 5 000-deep conjunctions built apart: the argument matches its
    binder, and a multiple substitution accepts one for the other."""
    deep, again = _conj_chain(5_000), _conj_chain(5_000)
    t = App(Lam("y", deep, Var("y")), Var("z"))
    elab, ty = check(t, TypingContext(ivars={"z": again}))
    assert ty is deep and type_of(elab) is deep
    v = elab.arg
    assert multiple_subst(Var("y", deep), [Var("y", deep)], v) is v


def test_a_state_fresh_from_check_holds_its_judgements(monkeypatch):
    """check keeps every node's judgement, so the audit's first step judges
    only the nodes that step built."""
    ctx = TypingContext(ivars=dict(GAMMA))
    before, ty = check(parse_term("\\u : A. <(\\v : A. v) x, <y, f u>>", GAMMA), ctx)
    assert all(facts_of(u).judgement for _, u in iter_subterms(before))
    assert type_of(before) is ty
    _, trace = normalize(before)
    (first,) = trace.steps
    judged = _judging(monkeypatch)
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses
    assert sorted(map(id, judged)) == _built(before, first.term_after)
    assert len(judged) == 2  # the lambda and the pair above the contractum


# --------------------------------------------------------------------------
# formulas that differ only in their connective, or Top against Bot, are
# told apart wherever the typer compares two types

def _other(ty):
    """ty with its outermost class changed and its fields kept."""
    if isinstance(ty, (Top, Bot)):
        return Bot() if isinstance(ty, Top) else Top()
    if isinstance(ty, Atom):
        return Conj(ty, ty)
    return (Conj if isinstance(ty, Impl) else Impl)(ty.left, ty.right)


AB = Conj(A, B)


@pytest.mark.parametrize("src, gamma", [
    ("(\\v : A /\\ B. v) x", {"x": Impl(A, B)}),
    ("x |+| y", {"x": AB, "y": Impl(A, B)}),
    ("inj0[(A /\\ B) \\/ C](x)", {"x": Impl(A, B)}),
    ("case s of {l. x | r. y}", {"s": Disj(C, C), "x": AB, "y": Disj(A, B)}),
    ("nu a : EM[C]. [ x || y ]", {"x": AB, "y": Impl(A, B)}),
    ("(\\v : Top. v) x", {"x": Bot()}),
])
def test_the_typer_refuses_a_type_that_differs_only_in_its_connective(src, gamma):
    with pytest.raises(TypingError, match="TypeMismatch"):
        _infer(src, gamma)


def test_the_judgement_refuses_annotations_that_differ_only_in_the_connective():
    ab, ba = Var("x", AB), Var("x", Impl(A, B))
    for t in (Pair(ab, ba), Lam("x", AB, ba), Lam("x", Top(), Var("x", Bot()))):
        with pytest.raises(ValueError, match="two types"):
            type_of(t)
    # the occurrence's annotation agrees with its component, not its axiom
    t = ParBind("a", False, em_axiom(AB), (Var("f", Impl(A, B)), Chan("a", Impl(A, B))))
    with pytest.raises(ValueError, match="not typed A /\\\\ B"):
        type_of(t)


def test_a_passing_step_prints_its_types_only_when_they_are_read(monkeypatch):
    ctx = TypingContext(ivars={"x": A})
    before, _ = check(parse_term("(\\y : A. y) x", ctx.ivars), ctx)
    after = step(before, find_redexes(before)[0])
    printed = []
    monkeypatch.setattr(typecheck, "show_formula", lambda f: printed.append(f) or str(f))
    rep = check_subject_reduction(ctx, before, after)
    assert rep.ok and printed == []
    assert (rep.type_before, rep.type_after) == ("A", "A")
    assert printed == [A, A]


def test_subject_reduction_tells_a_connective_apart():
    before, _ = check(Pair(Unit(), Unit()))
    after, _ = check(Lam("v", Top(), Var("v")))
    rep = check_subject_reduction(None, before, after)
    assert (rep.ok, rep.type_before, rep.type_after) == (False, "Top /\\ Top", "Top -> Top")
    # occurrences annotated against another context are judged in this one
    ctx = TypingContext(ivars={"x": Impl(A, B)}, chans={"a": Impl(A, B)})
    for t in (Var("x", AB), Chan("a", AB)):
        rep = check_subject_reduction(ctx, t, t)
        assert (rep.ok, rep.type_before) == (True, "A -> B")


def test_multiple_subst_refuses_a_tuple_of_another_connective():
    with pytest.raises(ValueError, match="multiple_subst"):
        multiple_subst(x, [Var("y", A), Var("v", B)], Var("p", Impl(A, B)))


@pytest.mark.parametrize("name", EXAMPLES)
def test_an_occurrence_retyped_by_its_connective_is_typed_again(name):
    """check puts back the type of every occurrence whose annotation differs
    only in its connective, and the judgement refuses it where it is bound."""
    ctx, elab = _example(name)
    for path, s in iter_subterms(elab):
        if not isinstance(s, (Var, Chan)):
            continue
        tampered = replace_at(elab, path, replace(s, ty=_other(s.ty)))
        assert check(tampered, ctx)[0] == elab
        free = ctx.ivars if isinstance(s, Var) else ctx.chans
        if s.name not in free:
            with pytest.raises(ValueError):
                type_of(tampered)
