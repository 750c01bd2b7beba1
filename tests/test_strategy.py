"""The phased normalization loop: order, determinism, limits, traces."""

import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    App,
    Atom,
    Chan,
    Disj,
    GenConfig,
    Impl,
    Lam,
    Pair,
    ParallelFormFailure,
    ParBind,
    Proj,
    RedexKind,
    StepBudgetError,
    StepLimitExceeded,
    TypingContext,
    TypingError,
    Underline,
    Var,
    alpha_eq,
    check,
    em_axiom,
    generate,
    is_normal,
    is_parallel_form,
    normalize,
    parse_program,
    parse_term,
    step,
)
from lax.rewrite import (
    CHASE,
    INTUITIONISTIC,
    find_redexes,
    pick_redex,
    redexes_at,
    uppermost_active_sessions,
)
from lax.strategy import _communication, _intuitionistic, _parallel_form, _Run, _side_move

from oracles import (
    find_redexes_oracle,
    leftmost_innermost_oracle,
    side_move_oracle,
    uppermost_active_oracle,
)

A, B, C, D, Z = Atom("A"), Atom("B"), Atom("C"), Atom("D"), Atom("Z")

PHASES = ["ParallelForm", "Intuitionistic", "Activation", "Communication"]


def _typed(src, gamma=None):
    gamma = dict(gamma or {})
    t, _ = check(parse_term(src, gamma), TypingContext(ivars=gamma))
    return t


def to_parallel_form(t, max_steps=None, underline_discipline=False):
    """The strategy's first phase alone: (its result, its trace)."""
    run = _Run(t, max_steps, underline_discipline)
    _parallel_form(run)
    return run.t, run.trace


def run_phase_intuitionistic(t, max_steps=None):
    """One intuitionistic phase of the first cycle alone."""
    run = _Run(t, max_steps, False)
    run.cycle = 1
    _intuitionistic(run)
    return run.t, run.trace


def test_simply_typed_terms_normalize_in_one_cycle():
    t = _typed("(\\x : A. <x, x>) y pi0", {"y": A})
    final, trace = normalize(t)
    assert alpha_eq(final, _typed("y", {"y": A}))
    # all work lands in cycle 1; the loop then runs one empty cycle to
    # convince itself nothing is left
    assert all(s.cycle == 1 for s in trace.steps)
    assert trace.cycles == 2
    assert [s.phase for s in trace.steps] == ["Intuitionistic"] * 2


def test_session_runs_to_a_case_free_answer():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    final, trace = normalize(t)
    assert alpha_eq(final, _typed("f y", gamma))
    rules = [s.redex.rule for s in trace.steps]
    assert rules == ["Activation", "BasicCross(0,1)", "Beta"]


def test_trace_replays_exactly():
    gamma = {"f": Impl(Z, B), "y": Z}
    t = _typed("nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]", gamma)
    _, trace = normalize(t)
    cur = trace.initial
    for s in trace.steps:
        cur = step(cur, s.redex)
        assert cur == s.term_after  # structural, not just alpha


def test_parallel_form_steps_carry_cycle_zero():
    gamma = {"u": B, "v": B}
    t = _typed("\\x : A. (u |+| v)", gamma)
    final, trace = normalize(t)
    assert trace.steps[0].phase == "ParallelForm"
    assert trace.steps[0].cycle == 0
    assert all(s.cycle >= 1 for s in trace.steps[1:])


def test_phases_stay_in_cyclic_order():
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    t = _typed("nu a : AX{A -> B, B -> A}. [ f (a ((\\u : A. u) x)) || g (a y) ]", gamma)
    _, trace = normalize(t)
    seen = [(s.cycle, PHASES.index(s.phase)) for s in trace.steps]
    assert seen == sorted(seen)
    assert is_normal(trace.final)


def test_normalization_is_deterministic():
    gamma, t = generate(424242, GenConfig(preset="c3", max_size=30))
    f1, tr1 = normalize(t)
    f2, tr2 = normalize(t)
    assert f1 == f2
    assert tr1.to_json_lines() == tr2.to_json_lines()


def test_step_limit_raises_with_partial_trace():
    t = _typed("(\\x : A. <x, x>) y pi0", {"y": A})
    with pytest.raises(StepLimitExceeded) as exc:
        normalize(t, max_steps=1)
    err = exc.value
    assert err.trace.limit_hit
    assert len(err.trace.steps) == 1
    assert err.term == err.trace.steps[-1].term_after


@pytest.mark.parametrize("budget", [0, -3])
def test_non_positive_step_budgets_are_refused(budget):
    t = _typed("(\\x : A. x) y", {"y": A})
    with pytest.raises(StepBudgetError):
        normalize(t, max_steps=budget)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_malformed_step_budget_variable_is_refused(raw, monkeypatch):
    monkeypatch.setenv("LAX_MAX_STEPS", raw)
    t = _typed("(\\x : A. x) y", {"y": A})
    with pytest.raises(StepBudgetError):
        normalize(t)
    assert normalize(t, max_steps=5)[1].steps  # an explicit budget wins


def _refusal(t):
    with pytest.raises(TypingError) as e:
        normalize(t)
    issue = e.value.issue
    return issue.code, issue.position, issue.message


def test_normalize_refuses_an_unelaborated_term():
    t = App(Lam("x", A, Var("x")), Var("y"))
    assert _refusal(t) == ("TypeMismatch", (0, 0), "an occurrence carries no type")
    # only a ProjPair redex, which no discovery types
    assert _refusal(Proj(Pair(Var("a"), Var("b")), 0))[0] == "TypeMismatch"


@pytest.mark.parametrize("t, gamma", [
    (App(Lam("x", A, Var("x", A)), Var("y", B)), {"y": B}),
    (
        ParBind("a", False, em_axiom(A), (
            Underline(Pair(Underline(Var("v", A)), Var("v", A))), Chan("a", A)
        )),
        {"v": A},
    ),
])
def test_normalize_refuses_what_check_refuses_with_its_code_position_and_message(t, gamma):
    with pytest.raises(TypingError) as e:
        check(t, TypingContext(ivars=gamma))
    want = e.value.issue
    assert _refusal(t) == (want.code, want.position, want.message)


def test_session_under_a_case_branch_cannot_reach_parallel_form():
    gamma = {"s": Disj(C, C), "x": A, "y": B}
    src = "case s of {u. nu a : EM[A]. [ efq[B](nota x) || y ] | w. y}"
    t = _typed(src, gamma)
    with pytest.raises(ParallelFormFailure):
        normalize(t)


def test_to_parallel_form_stops_at_the_form():
    gamma = {"x": A, "u": B, "v": B}
    t = _typed("\\w0 : A. (nu a : EM[A]. [ efq[B](nota x) || (u |+| v) ])", gamma)
    pf, trace = to_parallel_form(t)
    assert is_parallel_form(pf)
    assert all(s.phase == "ParallelForm" for s in trace.steps)
    # the lambda was pushed inside, no reductions beyond permutations
    assert all(s.redex.kind in (RedexKind.PAR_PERM, RedexKind.PAR_PAR_PERM)
               for s in trace.steps)


def test_intuitionistic_phase_runs_group_rules_only():
    t = _typed("(\\x : A. x) ((\\y : A. y) z)", {"z": A})
    out, trace = run_phase_intuitionistic(t)
    assert alpha_eq(out, _typed("z", {"z": A}))
    assert {s.redex.kind for s in trace.steps} <= {
        RedexKind.BETA, RedexKind.PROJ_PAIR, RedexKind.CASE_INJ, RedexKind.CASE_PERM
    }


def test_underline_discipline_source_order():
    """With the discipline on, the marked component talks first and the mark
    hops to each receiver in turn."""
    gamma = {"f": Impl(B, C), "g": Impl(A, C), "x": A, "y": B}
    src = "nu a* : AX{A -> B, B -> A}. [ @f (a x) || g (a y) ]"
    t = _typed(src, gamma)
    _, tr = normalize(t, underline_discipline=True)
    crosses = [s.redex for s in tr.steps if s.redex.kind == RedexKind.BASIC_CROSS]
    assert crosses and crosses[0].sender == 0
    assert tr.underline_discipline


def test_leftmost_redex_fires_first_within_a_phase():
    t = _typed("<(\\x : A. x) u, (\\y : A. y) v>", {"u": A, "v": A})
    _, trace = normalize(t)
    first, second = trace.steps[0].redex, trace.steps[1].redex
    assert first.position < second.position


def _innermost(u):
    return pick_redex(u, False, INTUITIONISTIC, innermost=True)


def _innermost_oracle(u):
    return leftmost_innermost_oracle(find_redexes_oracle(u, False, INTUITIONISTIC))


_NESTED = [
    # a Beta whose argument holds a ProjPair
    ("(\\x : A. x) (<y, y> pi0)", [("ProjPair", (1,)), ("Beta", ())]),
    # a CasePerm frame over a CaseInj
    (
        "(case inj0[A \\/ B](y) of {u. \\z : A. z | w. \\z : A. z}) y",
        [("CaseInj", (0,)), ("Beta", ())],
    ),
    # a Beta nested in the left half, a Beta in the right
    (
        "<(\\x : A. x) ((\\x : A. x) y), (\\x : A. x) y>",
        [("Beta", (0, 1)), ("Beta", (0,)), ("Beta", (1,))],
    ),
    # the CasePerm under a Beta, over a CaseInj under another Beta
    (
        "(\\f : A. f) ((case inj1[A \\/ B]((\\v : B. v) b) of "
        "{u. \\z : A. z | w. \\z : A. z}) y)",
        [("Beta", (1, 0, 0, 0)), ("CaseInj", (1, 0)), ("Beta", (1,)), ("Beta", ())],
    ),
]


def test_leftmost_innermost_matches_the_oracle_on_nested_redexes():
    for src, want in _NESTED:
        t = _typed(src, {"y": A, "b": B})
        _, trace = normalize(t)
        assert [(s.redex.rule, s.redex.position) for s in trace.steps] == want, src
        for u in [t] + [s.term_after for s in trace.steps[:-1]]:
            assert _innermost(u) == _innermost_oracle(u), src
        assert _innermost(trace.final) is None


def test_leftmost_innermost_on_a_node_at_two_positions():
    """The outer Beta shares its argument between the two occurrences of x:
    the shared node's redex is innermost at both, the left one first."""
    t = _typed("(\\x : A -> A. <x, x>) (\\u : A. (\\v : A. v) u)")
    after = step(t, find_redexes(t)[0])
    assert after.left is after.right
    assert _innermost(after) == _innermost_oracle(after)
    assert _innermost(after).position == (0, 0)
    again = step(after, _innermost(after))
    assert _innermost(again) == _innermost_oracle(again)
    assert _innermost(again).position == (1, 0)


def test_the_innermost_descent_refuses_session_kinds():
    t = _typed("x", {"x": A})
    with pytest.raises(ValueError):
        pick_redex(t, False, frozenset({RedexKind.GARBAGE_CROSS}), innermost=True)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["em", "em3", "c3", "g2", "godel", None]),
    st.booleans(),
)
def test_leftmost_innermost_matches_the_oracle_on_run_states(seed, preset, discipline):
    _, t = generate(seed, GenConfig(preset=preset, max_size=25))
    _, trace = normalize(t, max_steps=10_000, underline_discipline=discipline)
    for u in [t] + [s.term_after for s in trace.steps]:
        rs = find_redexes(u, discipline, INTUITIONISTIC)
        got = pick_redex(u, discipline, INTUITIONISTIC, innermost=True)
        assert got == (leftmost_innermost_oracle(rs) if rs else None)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "em3", "c3", "g2", "godel"]))
def test_normalize_reaches_a_normal_parallel_form(seed, preset):
    _, t = generate(seed, GenConfig(preset=preset, max_size=25))
    final, trace = normalize(t, max_steps=10_000)
    assert is_normal(final)
    assert is_parallel_form(final)
    assert not trace.limit_hit
    assert trace.final == final


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_trace_replay_property(seed):
    _, t = generate(seed, GenConfig(preset="g2", max_size=22))
    _, trace = normalize(t, max_steps=10_000)
    cur = trace.initial
    for s in trace.steps:
        cur = step(cur, s.redex)
        assert cur == s.term_after


def test_uppermost_active_sessions_skip_sessions_with_active_ones_inside():
    gamma = {"x": A, "u": B, "v": B}
    inner = "nu c* : EM[A]. [ efq[B](notc x) || u ]"
    t = _typed(f"nu a* : EM[A]. [ efq[B](nota x) || {inner} ] |+| "
               f"nu b* : EM[A]. [ efq[B](notb x) || v ]", gamma)
    assert [p for p, _ in uppermost_active_sessions(t)] == [(0, 1), (1,)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "em3", "c3", "g2", "godel"]))
def test_uppermost_active_sessions_match_the_oracle(seed, preset):
    _, t = generate(seed, GenConfig(preset=preset, max_size=22))
    _, trace = normalize(t, max_steps=10_000)
    for u in [t] + [s.term_after for s in trace.steps]:
        assert uppermost_active_sessions(u) == uppermost_active_oracle(u)


@pytest.mark.parametrize("name", ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"])
def test_uppermost_active_sessions_match_the_oracle_on_the_examples(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
    _, trace = normalize(t)
    states = [t] + [s.term_after for s in trace.steps]
    assert any(uppermost_active_sessions(u) for u in states)
    for u in states:
        assert uppermost_active_sessions(u) == uppermost_active_oracle(u)


# --------------------------------------------------------------------------
# the side strategy's move


def _side_move_in(t, discipline):
    return _side_move(_Run(t, None, discipline))


def _side_moves_as_the_oracle_says(trace):
    """_side_move is side_move_oracle at every state the communication
    phase starts a move from, and at the end of the run; a side move
    starts where no projection or case permutation is left to chase.
    The kinds of choice the states offered: (several hoists at one
    session, several basic crosses, a basic and a full cross)."""
    d = trace.underline_discipline
    states = [trace.initial] + [s.term_after for s in trace.steps]
    at = [i for i, s in enumerate(trace.steps)
          if s.phase == "Communication" and s.redex.kind not in CHASE]
    offered = set()
    for i in at + [len(states) - 1]:
        u = states[i]
        assert _side_move_in(u, d) == side_move_oracle(u, d)
        assert i == len(states) - 1 or pick_redex(u, d, CHASE) is None
        for path, session in uppermost_active_sessions(u):
            kinds = [r.kind for r in redexes_at(session, path, d)]
            if kinds.count(RedexKind.PAR_PAR_PERM) > 1:
                offered.add("hoists")
            if kinds.count(RedexKind.BASIC_CROSS) > 1:
                offered.add("basics")
            if RedexKind.BASIC_CROSS in kinds and RedexKind.FULL_CROSS in kinds:
                offered.add("basic and full")
    return offered


def _frozen_runs(workload):
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data" / f"{workload}.jsonl"
    for line in data.read_text().splitlines()[1:]:
        rec = json.loads(line)
        prog = parse_program(rec["source"])
        t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
        yield normalize(t, underline_discipline=rec["underline"])[1]


@pytest.mark.parametrize("workload, choices", [
    ("comm", {"basics", "basic and full"}),
    ("heavy", {"hoists"}),
])
def test_the_side_move_is_the_oracles_on_the_frozen_programs(workload, choices):
    offered = set()
    for trace in _frozen_runs(workload):
        offered |= _side_moves_as_the_oracle_says(trace)
    assert choices <= offered


@pytest.mark.parametrize("name", ["broadcast_em3", "godel", "mobility", "or", "scheduler_c3"])
def test_the_side_move_is_the_oracles_on_the_examples(name):
    source = (resources.files("lax") / "examples" / f"{name}.lax").read_text()
    prog = parse_program(source)
    t, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
    for discipline in (False, True):
        _side_moves_as_the_oracle_says(normalize(t, underline_discipline=discipline)[1])


@pytest.mark.parametrize("preset", ["em", "em3", "c3", "g2", "godel"])
def test_the_side_move_is_the_oracles_on_generated_runs(preset):
    for seed in range(30):
        _, t = generate(seed, GenConfig(preset=preset, max_size=40))
        _side_moves_as_the_oracle_says(normalize(t, underline_discipline=seed % 2 == 1)[1])


# three components whose basic crosses run 0 -> 1, 0 -> 2 and 1 -> 0
_GENERAL = "nu a* : AX{A -> B, B -> A, C -> A}. [ f (a x) || g (a y) || h (a z) ]"
_GENERAL_GAMMA = {"f": Impl(B, D), "g": Impl(A, D), "h": Impl(A, D), "x": A, "y": B, "z": C}


def test_a_session_offers_its_basic_crosses_by_sender_then_receiver_before_its_full_cross():
    t = _typed(_GENERAL, _GENERAL_GAMMA)
    assert [r.rule for r in redexes_at(t, (), False)] == [
        "BasicCross(0,1)", "BasicCross(0,2)", "BasicCross(1,0)", "FullCross",
    ]
    assert _side_move_in(t, False).rule == "BasicCross(0,1)"


@pytest.mark.parametrize("marked, move", [
    ("f (a x)", "BasicCross(0,1)"),
    ("g (a y)", "BasicCross(1,0)"),
    ("h (a z)", "FullCross"),  # the marked sender has no receiver
])
def test_under_the_discipline_the_marked_sender_crosses_first(marked, move):
    t = _typed(_GENERAL.replace(marked, "@" + marked), _GENERAL_GAMMA)
    assert _side_move_in(t, True).rule == move
    assert _side_move_in(t, True) == side_move_oracle(t, True)


def test_a_hoist_comes_before_a_cross():
    t = _typed(_GENERAL.replace("h (a z)", "(h (a z) |+| h (a z))"), _GENERAL_GAMMA)
    assert [r.rule for r in redexes_at(t, (), False)] == [
        "BasicCross(0,1)", "BasicCross(1,0)", "ParParPerm(2)",
    ]
    assert _side_move_in(t, False).rule == "ParParPerm(2)"


def test_an_active_session_hoists_its_first_parallel_component_first():
    src = _GENERAL.replace("f (a x)", "(f (a x) |+| f (a x))").replace(
        "h (a z)", "(h (a z) |+| h (a z))")
    t = _typed(src, _GENERAL_GAMMA)
    assert [r.rule for r in redexes_at(t, (), False)] == ["ParParPerm(0)", "ParParPerm(2)"]
    assert _side_move_in(t, False).rule == "ParParPerm(0)"


def test_the_shallower_session_moves_first_though_the_deeper_is_leftmost():
    gamma = {"x": A, "u": B, "v": B}
    inner = "nu c* : EM[A]. [ efq[B](notc x) || u ]"
    t = _typed(f"nu a* : EM[A]. [ efq[B](nota x) || {inner} ] |+| "
               f"nu b* : EM[A]. [ efq[B](notb x) || v ]", gamma)
    assert [p for p, _ in uppermost_active_sessions(t)] == [(0, 1), (1,)]
    assert _side_move_in(t, False).position == (1,)


def test_the_sweep_leaves_an_active_session_s_garbage_alone():
    """The outer session is active and offers garbage, but it holds an
    active session that offers nothing, so the side strategy never reaches
    it, and the sweep collects only on inactive sessions."""
    gamma = {"x": A, "u": B, "v": B, "p": Impl(A, Impl(B, B))}
    t = _typed("nu a* : EM[A]. [ efq[B](nota x) || "
               "nu c* : EM[A]. [ efq[B](notc x) || p c (u |+| v) ] ]", gamma)
    assert [r.rule for r in find_redexes(t, False, frozenset({RedexKind.GARBAGE_CROSS}))] == [
        "GarbageCross[1]"
    ]
    run = _Run(t, None, False)
    assert _communication(run) == 0
    assert run.trace.steps == []
