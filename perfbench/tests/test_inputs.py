"""The frozen inputs: ring reference, source round trip, frozen files."""

import json
from importlib import resources

import pytest

import inputs
from lax import (
    TypingContext,
    alpha_eq,
    check,
    normalize,
    parse_program,
    parse_term,
    show_term,
)
from lax.terms import term_size


def _typed(source):
    prog = parse_program(source)
    ctx = TypingContext(ivars=dict(prog.gamma))
    return prog, check(prog.term, ctx)[0]


@pytest.mark.parametrize("depth", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("underline", [True, False])
def test_ring_reference_is_the_engine_normal_form(depth, underline):
    prog, term = _typed(inputs.ring_source(depth, underline))
    final, _ = normalize(term, underline_discipline=underline)
    ref = parse_term(inputs.ring_reference(depth, underline), dict(prog.gamma))
    assert alpha_eq(final, ref)


def test_ring_of_depth_two_is_the_bundled_scheduler():
    root = resources.files("lax") / "examples"
    example, example_term = _typed((root / "scheduler_c3.lax").read_text())
    ring, ring_term = _typed(inputs.ring_source(2, True))
    assert alpha_eq(ring_term, example_term)
    golden = parse_term((root / "scheduler_c3.golden").read_text(), dict(example.gamma))
    ref = parse_term(inputs.ring_reference(2, True), dict(ring.gamma))
    assert alpha_eq(golden, ref)


def test_ring_references_differ_by_depth_only_with_the_mark():
    assert inputs.ring_reference(3, False) == inputs.ring_reference(9, False)
    assert inputs.ring_reference(3, True) != inputs.ring_reference(4, True)


def test_generated_programs_round_trip_through_source():
    # program_source raises unless the source parses and checks back to
    # the generated term
    records = inputs.generated_records("heavy", 7)
    assert len(records) == len(inputs.PRESETS) * inputs.HEAVY_COUNT
    for rec in records:
        prog, term = _typed(rec["source"])
        assert inputs.program_source(prog.gamma, term) == rec["source"]


def test_frozen_generated_programs_match_a_fresh_draw():
    for workload in ("breadth", "heavy"):
        header, frozen = inputs.load(workload)
        assert header["programs"] == len(frozen)
        names = [r["name"] for r in frozen]
        assert len(set(names)) == len(names)
    assert "em/11" in names
    fresh = inputs.generated_records("heavy", inputs.HEAVY_SEED)
    assert len(fresh) == len(frozen)
    for f, g in zip(frozen, fresh):
        assert f["origin"] == g["origin"] and f["source"] == g["source"]


def test_frozen_comm_matches_a_fresh_build():
    _, frozen = inputs.load("comm")
    rings = [r for r in frozen if r["reference_kind"] == "ring"]
    for f, g in zip(rings, inputs.ring_records()):
        assert (f["source"], f["reference"]) == (g["source"], g["reference"])
    assert len(rings) == len(inputs.ring_records())
    goldens = [r for r in frozen if r["reference_kind"] == "golden"]
    assert len(goldens) == 5


def test_peak_state_round_trips():
    with open(inputs.DATA / "peak_state.json", encoding="utf-8") as fh:
        frozen = json.load(fh)
    prog, term = _typed(frozen["source"])
    assert term_size(term) == frozen["nodes"] == 3724
    again = inputs.program_source(prog.gamma, term)
    assert show_term(_typed(again)[1]) == show_term(term)
