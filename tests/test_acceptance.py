"""Acceptance runs: the end-to-end behaviors the package promises.

Each test prints one pass line (visible under pytest -s; the -v test name
carries the same verdict) and enforces the stated step and time budgets.
"""

import random
import time

from lax import (
    Disj,
    GenConfig,
    RedexKind,
    TOP,
    TypingContext,
    alpha_eq,
    audit_trace,
    check,
    check_subformula,
    find_redexes,
    generate,
    generate_corpus,
    is_normal,
    is_parallel_form,
    normalize,
    parse_program,
    parse_term,
    value_complexity,
)
from lax.terms import ParBind

from oracles import (
    apply_stack,
    brute_force_redexes,
    iter_subterms,
    random_stack,
    value_complexity_oracle,
)

BOOL = Disj(TOP, TOP)
T_SRC = "inj0[Top \\/ Top](tt)"
F_SRC = "inj1[Top \\/ Top](tt)"


def _or_term(x_src: str, y_src: str, gamma):
    src = f"""
    nu a : EM[Top \\/ Top].
      [ case {x_src} of
          {{ w. {T_SRC}
          | w. inj0[Top \\/ Top](efq[Top](nota ({F_SRC}))) }}
      || case {y_src} of
          {{ w. {T_SRC}
          | w. a }} ]
    """
    ctx = TypingContext(ivars=dict(gamma))
    t, _ = check(parse_term(src, dict(gamma)), ctx)
    return t


def _expect(t, want_src, gamma):
    want = parse_term(want_src, dict(gamma))
    final, trace = normalize(t)
    assert len(trace.steps) <= 100, f"took {len(trace.steps)} steps"
    assert alpha_eq(final, want), f"got {final}"
    return trace


def test_acceptance_1_parallel_or():
    t0 = time.monotonic()
    _expect(_or_term(F_SRC, F_SRC, {}), F_SRC, {})
    gamma = {"x": BOOL}
    _expect(_or_term(T_SRC, "x", gamma), T_SRC, gamma)
    _expect(_or_term("x", T_SRC, gamma), T_SRC, gamma)
    took = time.monotonic() - t0
    assert took < 1.0
    print(f"acceptance 1 (parallel or): PASS ({took:.3f}s)")


MOBILITY = """
free g : (Z -> Z) -> W;
nu d : EM[((V0 -> V0) -> Bot) -> Bot].
  [ efq[W](notd (\\x : (V0 -> V0) -> Bot. x (\\v : V0. v)))
  || nu a : EM[(Z -> Z) /\\ (V0 -> V0)].
       [ efq[W](d (\\y : V0 -> V0. nota <\\z : Z. z, y>))
       || g (a pi0) ] ]
"""


def test_acceptance_2_code_mobility():
    t0 = time.monotonic()
    prog = parse_program(MOBILITY)
    ctx = TypingContext(ivars=dict(prog.gamma))
    t, _ = check(prog.term, ctx)
    final, trace = normalize(t)
    assert alpha_eq(final, parse_term("g (\\z : Z. z)", dict(prog.gamma)))

    def chan_names(u):
        return {s.chan for _, s in iter_subterms(u) if isinstance(s, ParBind)}

    minted = False
    before = chan_names(trace.initial)
    for s in trace.steps:
        if s.redex.kind == RedexKind.FULL_CROSS:
            minted = minted or bool(chan_names(s.term_after) - before)
    took = time.monotonic() - t0
    assert minted, "no full cross minted a fresh channel"
    assert took < 1.0
    print(f"acceptance 2 (code mobility): PASS ({took:.3f}s)")


SCHEDULER = """
free r : B -> A;
free s : A -> C;
free t : C -> B;
free k1 : B -> D0;
free k2 : A -> D0;
free k3 : C -> D0;
free q : Bot;
nu a : AX{A -> B, C -> A, B -> C}.
  [ @ k1 (a (r (a (efq[A](q)))))
  || k2 (a (s (a (efq[C](q)))))
  || k3 (a (t (a (efq[B](q))))) ]
"""

RING_STATES = [
    # the token leaves worker 1, then walks 2 -> 3 -> 1
    """nu a* : AX{A -> B, C -> A, B -> C}.
       [ k1 (a (r (a (efq[A](q)))))
       || @ k2 (a (s (efq[A](q))))
       || k3 (a (t (a (efq[B](q))))) ]""",
    """nu a* : AX{A -> B, C -> A, B -> C}.
       [ k1 (a (r (a (efq[A](q)))))
       || k2 (a (s (efq[A](q))))
       || @ k3 (a (t (s (efq[A](q))))) ]""",
    """nu a* : AX{A -> B, C -> A, B -> C}.
       [ @ k1 (a (r (t (s (efq[A](q))))))
       || k2 (a (s (efq[A](q))))
       || k3 (a (t (s (efq[A](q))))) ]""",
]


def test_acceptance_3_cyclic_scheduler():
    t0 = time.monotonic()
    prog = parse_program(SCHEDULER)
    ctx = TypingContext(ivars=dict(prog.gamma))
    t, _ = check(prog.term, ctx)
    final, trace = normalize(t, underline_discipline=True)
    assert is_normal(final)

    seen = [s.term_after for s in trace.steps]
    wanted = [parse_term(w, dict(prog.gamma)) for w in RING_STATES]
    i = 0
    for u in seen:
        if i < len(wanted) and alpha_eq(u, wanted[i]):
            i += 1
    took = time.monotonic() - t0
    assert i == len(wanted), f"only {i} of {len(wanted)} ring states appeared"
    assert took < 1.0
    print(f"acceptance 3 (cyclic scheduler): PASS ({took:.3f}s)")


BROADCAST = """
free g : (X -> X) -> P;
nu a : EMN[X -> X; 3].
  [ efq[P](nota (\\x : X. x))
  || g a
  || g a
  || g a ]
"""


def test_acceptance_4_broadcast():
    t0 = time.monotonic()
    prog = parse_program(BROADCAST)
    ctx = TypingContext(ivars=dict(prog.gamma))
    t, _ = check(prog.term, ctx)
    final, _ = normalize(t)
    want = parse_term(
        "g (\\x : X. x) |+| g (\\x : X. x) |+| g (\\x : X. x)", dict(prog.gamma)
    )
    took = time.monotonic() - t0
    assert alpha_eq(final, want)
    assert took < 1.0
    print(f"acceptance 4 (broadcast): PASS ({took:.3f}s)")


def test_acceptance_5_metatheorem_corpus():
    t0 = time.monotonic()
    presets = ["em", "em3", "c3", "g2", "godel"]
    per_preset = 500
    violations = []
    for pi, preset in enumerate(presets):
        cfg = GenConfig(preset=preset, max_size=40)
        for i, (gamma, t) in enumerate(generate_corpus(42 + pi, per_preset, cfg)):
            ctx = TypingContext(ivars=gamma)
            final, trace = normalize(t, max_steps=100_000)
            tag = f"{preset}[{i}]"
            if trace.limit_hit:
                violations.append((tag, "step limit"))
                continue
            if not (is_normal(final) and is_parallel_form(final)):
                violations.append((tag, "not a normal parallel form"))
            sub = check_subformula(ctx, final)
            if not sub.holds:
                violations.append((tag, f"subformula: {sub.witnesses[:1]}"))
            audit = audit_trace(ctx, trace)
            if not audit.holds:
                violations.append((tag, f"audit: {audit.witnesses[:1]}"))
    took = time.monotonic() - t0
    assert not violations, violations[:5]
    assert took < 300.0
    print(
        f"acceptance 5 (metatheorems on {per_preset * len(presets)} terms): "
        f"PASS ({took:.1f}s)"
    )


def test_acceptance_6_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(606)
    redex_mismatches = 0
    for preset in ["em", "em3", "c3", "g2", "godel"]:
        cfg = GenConfig(preset=preset, max_size=12)
        for _ in range(200):
            _, t = generate(rng, cfg)
            for disc in (False, True):
                got = {(r.rule, r.position) for r in find_redexes(t, disc)}
                if got != brute_force_redexes(t, disc):
                    redex_mismatches += 1
    vc_mismatches = 0
    cfg = GenConfig(preset=None, max_size=16)
    for _ in range(1000):
        _, t = generate(rng, cfg)
        if value_complexity(t) != value_complexity_oracle(t):
            vc_mismatches += 1
    took = time.monotonic() - t0
    assert redex_mismatches == 0 and vc_mismatches == 0
    print(
        "acceptance 6 (oracle equivalence, 1000 redex sets + 1000 measures): "
        f"PASS ({took:.1f}s)"
    )


def test_acceptance_7_applied_stacks_measure_zero():
    t0 = time.monotonic()
    rng = random.Random(707)
    from lax import infer_type

    pairs = 0
    bad = 0
    while pairs < 1000:
        gamma, u = generate(rng, GenConfig(preset=None, max_size=14))
        ty = infer_type(u, TypingContext(ivars=gamma))
        sigma, _ = random_stack(rng, ty)
        if not sigma:
            continue
        pairs += 1
        applied = apply_stack(u, sigma)
        if value_complexity(applied) != 0 or value_complexity_oracle(applied) != 0:
            bad += 1
    took = time.monotonic() - t0
    assert bad == 0
    print(f"acceptance 7 (applied stacks measure zero, 1000 pairs): PASS ({took:.1f}s)")
