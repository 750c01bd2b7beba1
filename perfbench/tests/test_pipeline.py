"""Percentile rule, failure counting and the verdict over passes."""

import pytest

import inputs
from calibrate import Meter
from pipeline import (
    Pass,
    Program,
    per_program_median,
    percentile,
    prepare,
    run_passes,
    run_program,
    tail_percentile,
    verdict,
)

OK_SOURCE = "free g : A -> B; free x : A; (\\y:A. g y) x"


@pytest.mark.parametrize("n, p", [(11, 9), (29, 65), (60, 83), (500, 98), (1000, 99)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, p):
    assert tail_percentile(n) == p
    xs = list(range(n))
    beyond = [x for x in xs if x > percentile(xs, p)]
    assert len(beyond) >= 10
    higher = p + 1
    assert len([x for x in xs if x > percentile(xs, higher)]) < 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_percentile_is_nearest_rank():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50) == 3.0
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 80) == 4.0
    assert percentile([5.0, 1.0], 1) == 1.0


def _program(name, source, reference):
    rec = {
        "name": name,
        "source": source,
        "underline": False,
        "reference": reference,
        "trace_sha256": None,
    }
    return prepare([rec])[0]


def test_a_program_that_reaches_its_reference_passes():
    o = run_program(_program("ok", OK_SOURCE, "g x"))
    assert o.failures == [] and o.normal_form_ok
    assert o.normalize_s is not None and o.verify_s is not None


def test_a_wrong_normal_form_fails_and_is_not_correct():
    o = run_program(_program("wrong", OK_SOURCE, "(\\y:A. g y) x"))
    assert o.failures == ["reference-mismatch"] and not o.normal_form_ok


def test_an_exception_fails_without_a_normal_form():
    p = Program("broken", "free x : A; x x", False, None, None)
    o = run_program(p)
    assert len(o.failures) == 1 and o.failures[0].startswith("TypingError")
    assert not o.normal_form_ok and o.normalize_s is None


def test_the_em_11_audit_failure_counts_as_failed_but_correct():
    _, records = inputs.load("heavy")
    em11 = prepare([r for r in records if r["name"] == "em/11"])
    ok = prepare([r for r in records if r["name"] == "em/0"])
    passes = []
    for _ in range(2):
        ps = Pass()
        for p in em11 + ok:
            ps.add(p, run_program(p))
        passes.append(ps)
    assert passes[0].verdicts() == {"em/11": ("trace-audit",), "em/0": ()}
    assert verdict(passes) == (True, 4, 2)


def test_disagreeing_passes_are_not_correct():
    p = _program("ok", OK_SOURCE, "g x")
    a, b = Pass(), Pass()
    a.add(p, run_program(p))
    o = run_program(p)
    o.failures = ["trace-audit"]
    b.add(p, o)
    assert verdict([a, b]) == (False, 2, 1)


def test_run_passes_covers_every_program_each_pass():
    programs = [_program(f"p{i}", OK_SOURCE, "g x") for i in range(3)]
    seen = []
    passes = run_passes(
        programs, 0.0, list.reverse, lambda i, p, o: seen.append((i, p.name))
    )
    assert len(passes) == 1
    assert seen == [(0, "p2"), (0, "p1"), (0, "p0")]
    assert passes[0].rules == {"Beta": 3}


def test_each_program_counts_its_median_run():
    p = _program("ok", OK_SOURCE, "g x")
    passes = []
    for verdict_s in (0.3, 0.1, 0.2):
        ps = Pass()
        o = run_program(p)
        o.verdict_s = verdict_s
        ps.add(p, o)
        passes.append(ps)
    assert per_program_median(passes, "verdict_s") == [0.2]


def test_each_time_is_rescaled_by_the_speed_over_its_own_span():
    o = run_program(_program("ok", OK_SOURCE, "g x"))
    t0, t1, t2, t3 = o.marks
    assert (o.verdict_s, o.normalize_s, o.verify_s) == (t3 - t0, t2 - t1, t3 - t2)
    o.rescale(lambda a, b: {(t0, t3): 1.0, (t1, t2): 2.0, (t2, t3): 3.0}[a, b])
    assert (o.verdict_s, o.normalize_s, o.verify_s) == (
        t3 - t0, 2 * (t2 - t1), 3 * (t3 - t2),
    )
    broken = run_program(Program("broken", "free x : A; x x", False, None, None))
    broken.rescale(lambda a, b: 2.0)
    assert broken.verdict_s == 2 * (broken.marks[1] - broken.marks[0])


def test_run_passes_rescales_with_the_meter():
    programs = [_program(f"p{i}", OK_SOURCE, "g x") for i in range(2)]
    passes = run_passes(programs, 0.0, list.reverse, meter=Meter())
    for o in passes[0].outcomes.values():
        assert 0 < o.verdict_s != o.marks[-1] - o.marks[0]
