"""The lax command line, driven in-process through main()."""

import json

import pytest

from lax import GenConfig, RedexKind, generate_corpus, normalize
from lax.cli import main

GOOD = """
# a two-step program
free y : A ;
(\\x : A. <x, x>) y pi0
"""

SESSION = """
free f : Z -> B ;
free y : Z ;
nu a : EM[Z -> Z]. [ efq[B](nota (\\z : Z. z)) || f (a y) ]
"""

ILL_TYPED = """
free y : A ;
y y
"""

BROKEN = "free y : A \n y (("


@pytest.fixture
def prog(tmp_path):
    def write(text, name="prog.lax"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_check_ok(prog, capsys):
    assert main(["check", prog(GOOD)]) == 0
    out = capsys.readouterr().out
    assert "A" in out and "ok" in out


def test_check_json(prog, capsys):
    assert main(["check", prog(GOOD), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["ok"] is True
    assert payload["type"] == "A"


# three binders where the parser renames the middle one onto x0: the body
# must stay the middle variable, of type B
SHADOWED = "\\x:A. \\x:B. \\x0:C. x\n"


def test_check_types_a_renamed_binder_by_its_own_variable(prog, capsys):
    assert main(["check", prog(SHADOWED)]) == 0
    assert capsys.readouterr().out.strip() == "ok: A -> B -> C -> B"
    assert main(["check", prog(SHADOWED), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "A -> B -> C -> B"


def test_check_rejects_ill_typed(prog, capsys):
    assert main(["check", prog(ILL_TYPED)]) == 1
    assert "expected" in capsys.readouterr().out


def test_check_rejects_syntax_errors(prog, capsys):
    assert main(["check", prog(BROKEN)]) == 1
    out = capsys.readouterr().out
    assert "error" in out.lower()


def test_missing_file_is_an_input_error(capsys):
    assert main(["check", "/nonexistent/nowhere.lax"]) == 1


@pytest.fixture
def not_utf8(tmp_path):
    p = tmp_path / "bin.lax"
    p.write_bytes(b"\xff\xfe free y : A ; y")
    return str(p)


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_file_that_is_not_utf8_is_an_input_error(not_utf8, command, capsys):
    assert main([command, not_utf8]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ") and "not UTF-8" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_file_that_is_not_utf8_is_an_error_event_in_json(not_utf8, command, capsys):
    assert main([command, not_utf8, "--format", "json"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    payload = json.loads(line)
    if command == "check":
        assert payload["command"] == "check" and payload["ok"] is False
    else:
        assert payload["event"] == "error"
    assert "not UTF-8" in payload["error"] and captured.err == ""


# digits that str.isdigit accepts but int() rejects
NOT_DECIMAL = ["\u00b2", "\u2778", "\u2460"]


@pytest.mark.parametrize("digit", NOT_DECIMAL)
@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_digit_that_is_not_decimal_is_a_syntax_error(prog, digit, command, capsys):
    path = prog(f"free f : A ;\nnu a : EMN[A;{digit}]. [f || f]\n")
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"error: 2:14: unexpected character {digit!r}\n"
    assert captured.err == ""


@pytest.mark.parametrize("digit", NOT_DECIMAL)
@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_digit_that_is_not_decimal_is_an_error_in_json(prog, digit, command, capsys):
    path = prog(f"free f : A ;\nnu a : EMN[A;{digit}]. [f || f]\n")
    assert main([command, path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == f"2:14: unexpected character {digit!r}"
    assert captured.err == ""


def test_normalize_pretty_trace(prog, capsys):
    assert main(["normalize", prog(GOOD), "--trace", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "[cycle 1 Intuitionistic] Beta" in out
    assert "y" in out.splitlines()[-1] or "normal" in out


def test_normalize_json_stream(prog, capsys):
    assert main(["normalize", prog(SESSION), "--trace", "--audit",
                 "--format", "json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    events = {l["event"] for l in lines}
    assert {"step", "normal_form", "report"} <= events
    rules = [l["rule"] for l in lines if l["event"] == "step"]
    assert "BasicCross(0,1)" in rules
    reports = [l for l in lines if l["event"] == "report"]
    assert all(r["holds"] for r in reports)
    assert {r["property"] for r in reports} == {
        "trace-audit", "parallel-normal-form", "subformula"
    }


def test_normalize_is_deterministic(prog, capsys):
    path = prog(SESSION)
    main(["normalize", path, "--trace", "--format", "json"])
    first = capsys.readouterr().out
    main(["normalize", path, "--trace", "--format", "json"])
    assert capsys.readouterr().out == first


def test_normalize_step_budget_exit(prog, capsys):
    assert main(["normalize", prog(GOOD), "--max-steps", "1"]) == 2
    assert main(["normalize", prog(GOOD), "--max-steps", "5"]) == 0


def test_step_budget_env_var(prog, capsys, monkeypatch):
    monkeypatch.setenv("LAX_MAX_STEPS", "1")
    assert main(["normalize", prog(GOOD)]) == 2
    monkeypatch.delenv("LAX_MAX_STEPS")
    assert main(["normalize", prog(GOOD)]) == 0


@pytest.mark.parametrize("budget", ["0", "-3", "abc", ""])
def test_non_positive_or_malformed_max_steps_is_bad_input(prog, capsys, budget):
    path = prog(GOOD)
    assert main(["normalize", path, "--max-steps", budget]) == 1
    assert "error" in capsys.readouterr().out
    assert main(["normalize", path, "--max-steps", budget, "--format", "json"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["event"] == "error"


NOT_A_TAUTOLOGY = "nu a : AX{Top -> Bot, A -> Bot}. [\\x : A. a tt || \\y : A. a y]\n"


def test_an_axiom_that_is_no_tautology_is_bad_input(prog, capsys):
    """Accepting Top -> Bot, A -> Bot would type this program as ~A."""
    path = prog(NOT_A_TAUTOLOGY)
    assert main(["check", path]) == 1
    assert "NotATautology" in capsys.readouterr().out
    assert main(["check", path, "--format", "json"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["ok"] is False and "NotATautology" in payload["error"]
    assert main(["normalize", path, "--audit"]) == 1
    assert "NotATautology" in capsys.readouterr().out
    assert main(["normalize", path, "--audit", "--format", "json"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["event"] == "error" and "NotATautology" in payload["error"]


CASE_BRANCH_SESSION = (
    "case inj0[Top \\/ Top](tt) of "
    "{x. nu a:EM[Top]. [efq[Top](nota tt) || a] | y. tt}\n"
)

NORMALIZE_ERRORS = {
    "syntax": (BROKEN, "2:2: expected ';', found 'y'"),
    "typing": (ILL_TYPED, "TypeMismatch at [0]: expected a function type, found A"),
    "missing-file": (None, "[Errno 2] No such file or directory: {path!r}"),
    "case-branch-session": (
        CASE_BRANCH_SESSION,
        "no permutation applies; a parallel node sits under a case branch, "
        "which no rule can permute out",
    ),
}


@pytest.mark.parametrize("fmt", ["pretty", "json"])
@pytest.mark.parametrize("name", sorted(NORMALIZE_ERRORS))
def test_normalize_reports_each_input_error_on_one_line(prog, tmp_path, capsys, name, fmt):
    text, message = NORMALIZE_ERRORS[name]
    path = prog(text) if text is not None else str(tmp_path / "missing.lax")
    message = message.format(path=path)
    assert main(["normalize", path, "--trace", "--format", fmt]) == 1
    want = (
        json.dumps({"error": message, "event": "error"})
        if fmt == "json" else f"error: {message}"
    )
    assert capsys.readouterr().out == want + "\n"


def test_malformed_step_budget_env_var(prog, capsys, monkeypatch):
    monkeypatch.setenv("LAX_MAX_STEPS", "abc")
    path = prog(GOOD)
    assert main(["check", path]) == 0
    capsys.readouterr()
    for argv in (["normalize", path], ["examples"], ["fuzz", "--count", "1"]):
        assert main(argv + ["--format", "json"]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        payload = json.loads(line)
        assert payload["event"] == "error" and "LAX_MAX_STEPS" in payload["error"]
    # an explicit budget does not read the variable
    assert main(["normalize", path, "--max-steps", "5"]) == 0


def test_underline_flag_parses(prog, capsys):
    assert main(["normalize", prog(SESSION), "--underline", "on"]) == 0


def test_bundled_examples_replay(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in ("or", "mobility", "scheduler_c3", "broadcast_em3", "godel"):
        assert f"PASS {name}" in out


def test_fuzz_small_batch(capsys):
    assert main(["fuzz", "--seed", "7", "--count", "10", "--size", "18",
                 "--axiom", "c3", "--format", "json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
    stats = lines[-1]
    assert stats["terms"] == 10
    assert stats["violations"] == 0


def test_fuzz_counts_phases_in_the_order_they_first_fire(capsys):
    argv = ["fuzz", "--seed", "3", "--count", "30", "--axiom", "em"]
    steps = [
        s
        for _, t in generate_corpus(3, 30, GenConfig(preset="em", max_size=40))
        for s in normalize(t)[1].steps
    ]
    phases = [s.phase for s in steps]
    want = {p: phases.count(p) for p in dict.fromkeys(phases)}
    kinds = [s.redex.kind.value for s in steps]
    assert main(argv) == 0
    assert f"phases {want}," in capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert stats["phase_counts"] == want and stats["total_steps"] == len(steps)
    assert stats["rules"] == {k: kinds.count(k) for k in set(kinds)}


def _fuzz_stats(argv, capsys):
    assert main(["fuzz", *argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    return json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize(
    "argv", [["--count", "0"], ["--seed", "5", "--count", "20", "--axiom", "c3"]]
)
def test_fuzz_rules_and_never_fired_partition_the_rule_kinds(argv, capsys):
    stats, out = _fuzz_stats(argv, capsys)
    fired, never = set(stats["rules"]), stats["never_fired"]
    assert fired.isdisjoint(never)
    assert fired | set(never) == {k.value for k in RedexKind}
    assert never == [k.value for k in RedexKind if k.value in never]
    assert sum(stats["rules"].values()) == stats["total_steps"]
    assert _fuzz_stats(argv, capsys)[1] == out


def test_a_broadcast_axiom_never_fires_the_full_cross(capsys):
    argv = ["--seed", "1", "--count", "20", "--axiom", "em3"]
    stats, _ = _fuzz_stats(argv, capsys)
    assert "FullCross" in stats["never_fired"]
    assert main(["fuzz", *argv]) == 0
    assert capsys.readouterr().out.rstrip().endswith(
        "never fired: " + ", ".join(stats["never_fired"])
    )


def test_fuzz_without_sessions(capsys):
    assert main(["fuzz", "--count", "5", "--axiom", "none"]) == 0


USAGE_ERRORS = [
    ["fuzz", "--seed", "abc"],
    ["fuzz", "--size", "0"],
    ["fuzz", "--size", "-1"],
    ["fuzz", "--count", "-3"],
    ["fuzz", "--axiom", "nope"],
    ["normalize", "prog.lax", "--underline", "x"],
    ["no-such-command"],
    [],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_are_bad_input(argv, capsys):
    """Exit 1, not argparse's 2, which is the step-limit code; under
    --format json the error is one JSON event on stdout."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert main(argv + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert json.loads(line)["event"] == "error"
    assert captured.err == ""


@pytest.mark.parametrize("fmt", [["--format=json"], ["--form", "json"], ["--f=json"]])
def test_format_is_found_in_every_spelling(fmt, capsys):
    assert main(["fuzz", *fmt, "--seed", "abc"]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert "--seed" in json.loads(line)["error"]


def test_fuzz_accepts_the_smallest_sizes_and_counts(capsys):
    assert main(["fuzz", "--count", "0", "--format", "json"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["terms"] == 0
    assert main(["fuzz", "--size", "1", "--count", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["terms"] == 3


DEEP = {
    "parentheses": "(" * 400 + "tt" + ")" * 400,
    "lambdas": "(\\x : A." * 300 + "x" + ")" * 300,
    "lambdas-5000": "(\\x : A." * 5_000 + "x" + ")" * 5_000,
}


@pytest.mark.parametrize("command", ["check", "normalize"])
@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_input_is_read_and_run(prog, capsys, command, shape):
    """No nesting is too deep for the parser or anything after it: the
    input runs and exits 0 with no traceback, and under --format json its
    one line is one JSON object."""
    path = prog(DEEP[shape])
    depth = DEEP[shape].count("(")
    want = "Top" if shape == "parentheses" else "A -> " * depth + "A"
    assert main([command, path]) == 0
    captured = capsys.readouterr()
    if command == "check":
        assert captured.out == f"ok: {want}\n"
    assert captured.err == ""
    assert main([command, path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    event = json.loads(line)
    if command == "check":
        assert event == {"command": "check", "ok": True, "type": want}
    else:
        assert (event["event"], event["steps"]) == ("normal_form", 0)
    assert captured.err == ""


def _boom(*args, **kwargs):
    raise KeyError("boom")


@pytest.mark.parametrize("command, target", [
    ("check", "_typed"),
    ("normalize", "normalize"),
    ("examples", "normalize"),
    ("fuzz", "normalize"),
])
def test_an_unexpected_exception_is_an_error_event(prog, command, target, capsys, monkeypatch):
    """An exception no handler expects is a fault of lax: it exits 4 with
    one error event, under both formats, and prints no traceback."""
    from lax import cli

    monkeypatch.setattr(cli, target, _boom)
    argv = [command] + ([prog(GOOD)] if command in ("check", "normalize") else [])
    msg = "internal error: KeyError: 'boom'"
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == f"error: {msg}\n"
    assert captured.err == ""
    assert main(argv + ["--format", "json"]) == 4
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert json.loads(line) == {"event": "error", "error": msg}
    assert captured.err == ""
