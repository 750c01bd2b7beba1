"""Surface syntax round-trips and error reporting."""

import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lax import (
    App,
    Atom,
    Case,
    GenConfig,
    Impl,
    Inj,
    Lam,
    LaxSyntaxError,
    Pair,
    ParBind,
    Proj,
    Top,
    TypingContext,
    Underline,
    Unit,
    Var,
    alpha_eq,
    audit_trace,
    check,
    em_axiom,
    generate,
    normalize,
    parse_axiom,
    parse_formula,
    parse_program,
    parse_term,
    show_formula,
    show_term,
)
from lax.cli import main
from lax.parser import _lex, _words
from lax.terms import Chan
from oracles import lex_oracle, parse_oracle

A, B = Atom("A"), Atom("B")


def _round_trip(gamma, t):
    return parse_term(show_term(t), dict(gamma))


def test_application_associates_left():
    t = parse_term("f x y", {"f": Impl(A, Impl(A, B)), "x": A, "y": A})
    assert isinstance(t, App) and isinstance(t.fun, App)
    assert show_term(t) == "f x y"


def test_lambda_body_extends_right():
    t = parse_term("\\x : A. \\y : B. x")
    assert isinstance(t, Lam) and isinstance(t.body, Lam)
    assert show_term(t) == "\\x:A. \\y:B. x"


def test_projection_is_postfix():
    t = parse_term("<tt, inj0[Top \\/ Top](tt)> pi0")
    assert isinstance(t, Proj) and t.index == 0
    assert isinstance(t.arg, Pair)
    assert isinstance(t.arg.right, Inj)
    assert isinstance(t.arg.left, Unit)


def test_case_binds_one_variable_per_branch():
    t = parse_term(
        "case inj1[A \\/ B](y) of {u. u | w. w}", {"y": B}
    )
    assert isinstance(t, Case)
    assert t.lvar == "u" and t.rvar == "w"
    assert isinstance(t.lbody, Var)


def test_comments_and_whitespace_are_skipped():
    t = parse_term("\\x : A. x  # the identity\n")
    u = parse_term("\\x\n:\nA\n.\nx")
    assert alpha_eq(t, u)


def test_session_syntax_active_star_and_negated_occurrence():
    src = "nu a : EM[A]. [ efq[B](nota (f x)) || f a ]"
    t = parse_term(src, {"f": Impl(A, A), "x": A})
    assert not t.active
    back = parse_term(show_term(t), {"f": Impl(A, A), "x": A})
    assert alpha_eq(t, back)
    active = parse_term(src.replace("nu a :", "nu a* :"), {"f": Impl(A, A), "x": A})
    assert active.active


def test_mark_and_contraction_round_trip():
    src = "nu a* : AX{A -> B, B -> A}. [ @f (a x) || g (a y) ]"
    gamma = {"f": Impl(B, A), "g": Impl(A, A), "x": A, "y": B}
    t = parse_term(src, gamma)
    assert alpha_eq(t, parse_term(show_term(t), gamma))
    c = parse_term("x |+| y", {"x": A, "y": A})
    assert show_term(c) == "x |+| y"


def test_unbound_name_is_a_syntax_error():
    with pytest.raises(LaxSyntaxError):
        parse_term("x")


def test_error_carries_line_and_column():
    try:
        parse_term("\\x : A.\n(x", {})
    except LaxSyntaxError as e:
        assert e.line == 2
        assert e.col >= 2
    else:
        raise AssertionError("expected a syntax error")


@pytest.mark.parametrize("digit", ["\u00b2", "\u2778", "\u2460"])
def test_only_decimal_digits_lex_as_integers(digit):
    with pytest.raises(LaxSyntaxError, match="unexpected character") as e:
        parse_program(f"free f : A;\nnu a : EMN[A;1{digit}]. [f || f]\n")
    assert (e.value.line, e.value.col) == (2, 15)
    # a decimal digit of another script is an integer all the same
    parse_program("free f : A;\nnu a : EMN[A;\u0663]. [f || f]\n")


# the token texts and positions against the character loop of tests/oracles.py

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"


def _frozen_texts() -> list[str]:
    """Every frozen program's source, and its reference where it has one."""
    out = []
    for path in sorted(DATA.glob("*.jsonl")):
        for line in path.read_text().splitlines()[1:]:
            rec = json.loads(line)
            out += [rec["source"]] + ([rec["reference"]] if rec["reference"] else [])
    return out


def _mutants(texts: list[str]) -> list[str]:
    """2 000 texts, each a frozen text with one character inserted,
    replaced or deleted, seeded."""
    rng = random.Random(13)
    mutants = []
    for _ in range(2000):
        s = rng.choice(texts)
        i = rng.randrange(len(s) + 1)
        c = rng.choice(_FRAGMENTS + [chr(rng.randrange(0x20, 0x3000))])[:1]
        mutants.append(rng.choice([s[:i] + c + s[i:], s[:i] + c + s[i + 1:], s[:i] + s[i + 1:]]))
    return mutants


def _error(e: LaxSyntaxError):
    return ("error", e.message, e.line, e.col)


def _same_tokens_as_the_oracle(text):
    """The texts the parser reads are the oracle's token texts, the
    positions its errors report are the oracle's, and a text the oracle
    does not lex fails to parse with the oracle's error."""
    try:
        want = lex_oracle(text)
    except LaxSyntaxError as e:
        want = _error(e)
        with pytest.raises(LaxSyntaxError) as got:
            _lex(text)
        assert _error(got.value) == want
        with pytest.raises(LaxSyntaxError) as got:
            parse_program(text)
        assert _error(got.value) == want
        return
    assert _lex(text) == want
    assert _words(text) == [tok[1] for tok in want]


# fragments the token rules treat specially: blanks, comments up to the end
# of the input, numerals that are not decimal digits (², ½), letters outside
# ASCII (ª, é), a decimal digit of another script (٣), and the symbols that
# share a prefix
_FRAGMENTS = [
    " ", "\t", "\r", "\n", "#", "# c", "x", "x'", "_", "not", "pi0", "0", "12",
    "\u00b2", "\u00bd", "\u00aa", "\u00e9", "\u0663", "|+|", "||", "|", "+",
    "->", "-", "/\\", "\\/", "\\", "/", "(", ")", "[", "]", "<", ">", ".", ":", "@", "*",
]


def test_the_lexer_agrees_with_the_oracle_on_the_frozen_programs_and_their_mutants():
    texts = _frozen_texts()
    for text in texts + _mutants(texts):
        _same_tokens_as_the_oracle(text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.characters()), max_size=40).map("".join))
def test_the_lexer_agrees_with_the_oracle_on_any_text(text):
    _same_tokens_as_the_oracle(text)


# the parser against the recursive descent of tests/oracles.py

# every name the frozen programs declare free, for the text after their
# declarations read as a term
_FREE = ("va", "vb", "vc", "vp", "vq", "vf", "w0", "f", "g", "x", "y")


def _parsed(entry: str, text: str):
    """Each entry point's result on text (a program's term part, as parse_term
    reads it) next to the oracle's, or the (message, line, col) of its
    error."""
    if entry == "term":
        text = text.rsplit(";", 1)[-1]
    parse = {
        "program": parse_program,
        "term": lambda text: parse_term(text, set(_FREE)),
        "formula": parse_formula,
        "axiom": parse_axiom,
    }[entry]
    out = []
    for f in (parse, lambda text: parse_oracle(entry, text, set(_FREE))):
        try:
            out.append(f(text))
        except LaxSyntaxError as e:
            out.append(_error(e))
    return out


ENTRIES = ("program", "term", "formula", "axiom")


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_parser_agrees_with_the_oracle_on_the_frozen_programs_and_their_mutants(entry):
    texts = _frozen_texts()
    for text in texts + _mutants(texts):
        got, want = _parsed(entry, text)
        assert got == want, text


# pieces of the grammar, so that random texts reach every construct and
# most of the parser's errors
_GRAMMAR = [
    "\\x : A.", "\\y:A -> B.", "x", "y", "f", "nota", "notx", "a", "b", "(", ")", "<", ",",
    ">", "tt", "pi0", "pi1", "inj0[A \\/ B](", "inj1[", "efq[A](", "efq", "case", "of",
    "{", "u.", "|", "}", "nu a : EM[A]. [", "nu b* : AX{A -> B, B -> A}. [",
    "nu a : EMN[A;2]. [", "nu a :", "||", "]", "[", "@", "|+|", "free x : A;", "free",
    "A", "Top", "Bot", "~", "->", "/\\", "\\/", "EM[", "EMN[", ";", "2", "C[", "G[", "AX{",
    "AX!{", "A -> B", ":", ".", "*", "!", "#", "\n", "Z", "99999999999",
]


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(ENTRIES),
    st.lists(st.one_of(st.sampled_from(_GRAMMAR), st.characters()), max_size=30).map(" ".join),
)
def test_the_parser_agrees_with_the_oracle_on_any_text(entry, text):
    got, want = _parsed(entry, text)
    assert got == want


# texts built by the grammar, closed or not, typed or not: binders that
# shadow one another and the free names, channels read bare, applied and
# negated, and every precedence left to the parser
_FORMULAS = st.recursive(
    st.sampled_from(["A", "B", "C", "Top", "Bot"]),
    lambda inner: st.one_of(
        st.builds("~{}".format, inner),
        st.builds("({})".format, inner),
        *(st.builds(("{} %s {}" % op).format, inner, inner) for op in ("->", "/\\", "\\/")),
    ),
    max_leaves=6,
)
_AXIOMS = st.one_of(
    st.builds("EM[{}]".format, _FORMULAS),
    st.builds("EMN[{};{}]".format, _FORMULAS, st.sampled_from(["0", "1", "2", "x"])),
    st.builds("C[{}, {}]".format, _FORMULAS, _FORMULAS),
    st.builds("G[{}, {}]".format, _FORMULAS, _FORMULAS),
    st.builds("AX{{{}, {}}}".format, _FORMULAS, _FORMULAS),
    st.builds("AX!{{{}, {}}}".format, _FORMULAS, _FORMULAS),
)
_BINDERS = st.sampled_from(["x", "y", "a", "b", "x0", "nota", "va"])
_TERMS = st.recursive(
    st.sampled_from(["x", "y", "a", "b", "x0", "nota", "notb", "va", "tt", "pi0"]),
    lambda inner: st.one_of(
        st.builds("\\{}:{}. {}".format, _BINDERS, _FORMULAS, inner),
        st.builds("{} {}".format, inner, inner),
        st.builds("({})".format, inner),
        st.builds("<{}, {}>".format, inner, inner),
        st.builds("<{}>".format, inner),
        st.builds("{} pi1".format, inner),
        st.builds("inj0[{}]({})".format, _FORMULAS, inner),
        st.builds("efq[{}]({})".format, _FORMULAS, inner),
        st.builds("case {} of {{{}. {} | {}. {}}}".format, inner, _BINDERS, inner, _BINDERS, inner),
        st.builds("nu {}{} : {}. [{} || {}]".format,
                  _BINDERS, st.sampled_from(["", "*"]), _AXIOMS, inner, inner),
        st.builds("nu a : EM[A]. [{} || @{} || {}]".format, inner, inner, inner),
        st.builds("{} |+| {}".format, inner, inner),
    ),
    max_leaves=10,
)


def _cut(text: str, i: int, keep: bool) -> str:
    """text with its i-th blank-separated piece doubled, or dropped."""
    pieces = text.split(" ")
    i %= len(pieces)
    return " ".join(pieces[:i] + [pieces[i]] * (2 if keep else 0) + pieces[i + 1:])


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("term"), _TERMS),
        st.tuples(st.just("program"), _TERMS.map("free va : A; free y : Top; {}".format)),
        st.tuples(st.just("formula"), _FORMULAS),
        st.tuples(st.just("axiom"), _AXIOMS),
    ),
    st.one_of(st.none(), st.tuples(st.integers(0, 99), st.booleans())),
)
def test_the_parser_agrees_with_the_oracle_on_texts_the_grammar_builds(case, cut):
    entry, text = case
    if cut is not None:
        text = _cut(text, *cut)
    got, want = _parsed(entry, text)
    assert got == want


# depth: no nesting exhausts the recursion limit

DEPTH = 5_000

# each nesting construct, n deep, around x; f and x are free
_TERM_NESTS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "pair, first component": lambda n: "<" * n + "x" + ", x>" * n,
    "pair, last component": lambda n: "<x, " * n + "x" + ">" * n,
    "injection": lambda n: "inj0[A \\/ A](" * n + "x" + ")" * n,
    "efq": lambda n: "efq[A](" * n + "x" + ")" * n,
    "case scrutinee": lambda n: "case " * n + "x" + " of {u. u | v. v}" * n,
    "case, left branch": lambda n: "case x of {u. " * n + "u" + " | v. v}" * n,
    "case, right branch": lambda n: "case x of {u. u | v. " * n + "v" + "}" * n,
    "session, first component": lambda n: "nu a : EM[A]. [" * n + "x" + " || a]" * n,
    "session, last component": lambda n: "nu a : EM[A]. [nota x || " * n + "a" + "]" * n,
    "marked component": lambda n: "nu a : EM[A]. [nota x || @" * n + "a" + "]" * n,
    "lambda body": lambda n: "\\x : A. " * n + "x",
    "join, right operand": lambda n: "x |+| " * n + "x",
    "application argument": lambda n: "f (" * n + "x" + ")" * n,
    "application head": lambda n: "(" * n + "f" + " x)" * n,
}

_FORMULA_NESTS = {
    "parentheses": lambda n: "(" * n + "A" + ")" * n,
    "negation": lambda n: "~" * n + "A",
    "implication": lambda n: "A -> " * n + "A",
    "conjunction": lambda n: "A /\\ " * n + "A",
    "disjunction": lambda n: "A \\/ " * n + "A",
    "left operand": lambda n: "(" * n + "A" + " -> A)" * n,
    "mixed": lambda n: "(~A \\/ B /\\ " * n + "A" + ") -> A" * n,
}


@pytest.mark.parametrize("shape", sorted(_TERM_NESTS))
def test_a_deep_nest_of_each_term_construct_parses(shape):
    """As the oracle reads it where its recursion reaches, and printed back
    where it does not."""
    nest = _TERM_NESTS[shape]
    assert parse_term(nest(40), {"f", "x"}) == parse_oracle("term", nest(40), {"f", "x"})
    assert sys.getrecursionlimit() <= 1_000
    text = show_term(parse_term(nest(DEPTH), {"f", "x"}))
    assert show_term(parse_term(text, {"f", "x"})) == text


@pytest.mark.parametrize("shape", sorted(_FORMULA_NESTS))
def test_a_deep_nest_of_each_formula_construct_parses(shape):
    nest = _FORMULA_NESTS[shape]
    assert parse_formula(nest(40)) is parse_oracle("formula", nest(40))
    assert sys.getrecursionlimit() <= 1_000
    f = parse_formula(nest(DEPTH))
    assert parse_formula(show_formula(f)) is f
    assert parse_axiom(f"EM[{nest(DEPTH)}]").carrier is f


def test_a_chain_of_binders_of_one_name_is_renamed_in_linear_time():
    """Each binder takes the next fresh name, as terms.fresh_name would pick
    it, without trying again the suffixes the binders before it took."""
    small = "\\x : A. " * 300 + "x"
    assert parse_term(small) == parse_oracle("term", small)
    start = time.perf_counter()
    t = parse_term("\\x : A. " * DEPTH + "x")
    took = time.perf_counter() - start
    names = []
    while type(t) is Lam:
        names.append(t.var)
        t = t.body
    assert names == ["x"] + [f"x{k}" for k in range(DEPTH - 1)]
    assert t == Var(f"x{DEPTH - 2}")
    assert took < 1.0


def test_a_deep_parsed_term_checks_prints_normalizes_and_audits():
    """Read from text, a 5 000-deep component goes through every stage,
    subject reduction included, within the test's time bound."""
    body = "g (" * DEPTH + "f (a y)" + ")" * DEPTH
    text = f"nu a:EM[Z -> Z]. [efq[B](nota (\\z:Z. z)) || {body}]"
    prog = parse_program(f"free f : Z -> B;\nfree g : B -> B;\nfree y : Z;\n{text}\n")
    ctx = TypingContext(ivars=prog.gamma)
    t, _ = check(prog.term, ctx)
    assert show_term(t) == text
    final, trace = normalize(t)
    assert [s.redex.rule for s in trace.steps] == ["Activation", "BasicCross(0,1)", "Beta"]
    assert show_term(final) == "g (" * DEPTH + "f y" + ")" * DEPTH
    rep = audit_trace(ctx, trace)
    assert rep.holds, rep.witnesses


def test_a_receiver_count_too_long_for_int_is_a_syntax_error():
    with pytest.raises(LaxSyntaxError, match="receiver count too large") as e:
        parse_program("free f : A;\nnu a : EMN[A;" + "1" * 5000 + "]. [f || f]\n")
    assert (e.value.line, e.value.col) == (2, 14)


BARE_GENERAL = "free va : A;\nfree vb : B;\nnu a : AX{A -> B, B -> A}. [a va || a]\n"


def test_a_bare_general_channel_is_a_syntax_error(tmp_path):
    with pytest.raises(LaxSyntaxError, match="cannot occur alone") as e:
        parse_program(BARE_GENERAL)
    assert (e.value.line, e.value.col) == (3, 1)
    path = tmp_path / "bare.lax"
    path.write_text(BARE_GENERAL)
    assert main(["check", str(path)]) == 1


GENERAL = "nu a : AX{A -> B, B -> A}. [%s]"


@pytest.mark.parametrize("comps, bare", [
    ("a va || (a) vb", False),  # a parenthesised head is applied
    ("((a)) va || a (a vb)", False),
    ("a va || a", True),
    ("<a, a va> pi1 || a vb", True),
    ("(\\h : A -> B. h va) a || a vb", True),
    ("a va pi0 || a vb", False),
    ("a pi0 va || a vb", True),
    # a general session inside another checks its own channel only
    ("nu b : AX{A -> B, B -> A}. [b va || b (a vb)] || a va", False),
    ("nu b : AX{A -> B, B -> A}. [b va || b a] || a va", True),
])
def test_a_general_channel_is_bare_unless_it_heads_an_application(comps, bare):
    src = "free va : A;\nfree vb : B;\n" + GENERAL % comps
    if not bare:
        parse_program(src)
        return
    with pytest.raises(LaxSyntaxError, match="channel 'a' cannot occur alone") as e:
        parse_program(src)
    assert (e.value.line, e.value.col) == (3, 1)


def test_a_bare_channel_is_legal_where_em_binds_it():
    # an EM receiver, and an EM session inside a general one that rebinds a
    parse_program("free va : A;\nnu a : EM[A]. [nota va || a]\n")
    parse_program(
        "free va : A;\nfree vb : B;\n"
        "nu a : AX{A -> B, B -> A}. [a va || a (nu a : EM[B]. [nota vb || a])]\n"
    )


# hygiene: no binder shadows a free name or another binder


def test_hygiene_renames_a_shadowing_lambda():
    assert parse_term("\\x:A. (\\x:A. x)") == Lam("x", A, Lam("x0", A, Var("x0")))


def test_hygiene_renames_each_case_branch_apart():
    t = parse_term("case z of {x. x | x. x}", {"x", "z"})
    assert t == Case(Var("z"), "x0", Var("x0"), "x1", Var("x1"))


def test_hygiene_renames_a_session_in_every_component_keeping_its_activity():
    t = parse_term("<a, nu a* : EM[A]. [nota tt || @a]>", {"a"})
    want = ParBind(
        "a0",
        True,
        t.right.axiom,
        (
            App(Chan("a0", None, True, True), Unit()),
            Underline(Chan("a0", None, True, False)),
        ),
    )
    assert t == Pair(Var("a"), want)


def test_hygiene_never_renames_a_binder_onto_a_name_bound_deeper():
    C = Atom("C")
    t = parse_term("\\x:A. \\x:B. \\x0:C. x")
    assert t == Lam("x", A, Lam("x0", B, Lam("x00", C, Var("x0"))))


def test_hygiene_keeps_an_occurrence_on_its_case_branch_variable():
    t = parse_term("\\x:A. case y of {x. \\x0:B. x | z. z}", {"y"})
    want = Case(Var("y"), "x0", Lam("x00", B, Var("x0")), "z", Var("z"))
    assert t == Lam("x", A, want)


def test_hygiene_keeps_a_negated_occurrence_on_its_session():
    C = Atom("C")
    t = parse_term(
        "nu a : EM[A]. [a || nu a : EM[B]. [nu a0 : EM[C]. [nota vb || a0] || a]]",
        {"vb"},
    )
    inner = ParBind(
        "a00",
        False,
        em_axiom(C),
        (App(Chan("a0", None, False, True), Var("vb")), Chan("a00")),
    )
    middle = ParBind("a0", False, em_axiom(B), (inner, Chan("a0")))
    assert t == ParBind("a", False, em_axiom(A), (Chan("a"), middle))


def test_a_renamed_channel_is_reported_by_its_name_in_the_input():
    with pytest.raises(LaxSyntaxError, match="channel 'a' cannot occur alone"):
        parse_program("free a : A;\nfree va : A;\nnu a : AX{A -> B, B -> A}. [a va || a]\n")


def test_program_free_declarations():
    prog = parse_program(
        """
        # tiny program
        free f : A -> B ;
        free x : A ;
        f x
        """
    )
    assert prog.gamma["f"] == Impl(A, B)
    assert isinstance(prog.term, App)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["em", "em3", "c3", "g2", "godel", None]))
def test_print_parse_round_trip_on_generated_terms(seed, preset):
    """show_term output parses back to an alpha-equal term, annotations and
    session machinery included."""
    gamma, t = generate(seed, GenConfig(preset=preset, max_size=25))
    assert alpha_eq(t, _round_trip(gamma, t))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_round_trip_survives_reduction_states(seed):
    from lax import normalize

    gamma, t = generate(seed, GenConfig(preset="c3", max_size=20))
    final, trace = normalize(t, max_steps=300)
    for u in [trace.initial, final]:
        assert alpha_eq(u, _round_trip(gamma, u))
