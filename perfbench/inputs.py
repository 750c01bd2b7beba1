"""Benchmark inputs: frozen program records and the functions that made them.

A workload is a list of records read from ``data/<workload>.jsonl``. The
first line of each file is a header naming the workload and why it was
chosen; every further line is one program:

    name            unique within the workload
    origin          where the program came from (preset, max_size, seed, index)
    source          surface source: ``free`` declarations plus show_term output
    underline       run the strategy with the underline discipline
    reference       surface source of the normal form it must reach
    reference_kind  "golden" (hand-written), "ring" (hand-derived formula)
                    or "recorded" (normal form recorded when frozen)
    trace_sha256    sha256 of Trace.to_json_lines() recorded when frozen

Generated programs are frozen so that changes to the generator do not change
the workloads; ``generated_records`` rebuilds them, or fresh hold-out corpora
from another seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from lax.formulas import show_formula
from lax.generator import GenConfig, generate_corpus
from lax.parser import parse_program
from lax.printer import show_term
from lax.terms import alpha_eq
from lax.typecheck import TypingContext, check

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("breadth", "heavy", "comm")
PRESETS = ("em", "em3", "c3", "g2", "godel")

# breadth: preset i draws from master seed BREADTH_SEED + i (42..46)
BREADTH_SIZE, BREADTH_COUNT, BREADTH_SEED = 40, 100, 42
# heavy: the first HEAVY_COUNT programs of every preset's seed-7 stream;
# em index 11 fails its audit and must stay in
HEAVY_SIZE, HEAVY_COUNT, HEAVY_SEED = 160, 12, 7
# comm: the c3 scheduler ring at these nesting depths, underline on and off
RING_DEPTHS = tuple(range(2, 13)) + (16,)

WHY = {
    "breadth": "many small generated terms: per-call overhead, parse and "
    "typecheck take their largest share; discovery per call is cheap",
    "heavy": "large generated terms (up to ~850 nodes mid-run): redex "
    "discovery and leftmost-innermost selection dominate normalize and audit",
    "comm": "bundled examples against goldens and the c3 scheduler ring: "
    "cross-redex enumeration dominates, the intuitionistic phase is idle",
}


def program_source(gamma: dict, term) -> str:
    """Surface source that parses and checks back to ``term``; raises if not."""
    decls = "".join(f"free {n} : {show_formula(f)};\n" for n, f in gamma.items())
    source = decls + show_term(term)
    back = parse_program(source)
    elab, _ = check(back.term, TypingContext(ivars=dict(back.gamma)))
    if not alpha_eq(elab, term):
        raise ValueError(f"source does not round-trip: {source}")
    return source


def trace_digest(json_lines: list[str]) -> str:
    """sha256 of Trace.to_json_lines(), one line per step."""
    return hashlib.sha256("\n".join(json_lines).encode()).hexdigest()


def generated_records(workload: str, seed: int) -> list[dict]:
    """The breadth or heavy corpus drawn from ``seed`` (42 and 7 when frozen).

    References and digests are left empty; freezing fills them in.
    """
    out = []
    for i, preset in enumerate(PRESETS):
        if workload == "breadth":
            size, count, master = BREADTH_SIZE, BREADTH_COUNT, seed + i
        elif workload == "heavy":
            size, count, master = HEAVY_SIZE, HEAVY_COUNT, seed
        else:
            raise ValueError(f"{workload} has no generated programs")
        cfg = GenConfig(preset=preset, max_size=size)
        for k, (gamma, term) in enumerate(generate_corpus(master, count, cfg)):
            out.append(
                {
                    "name": f"{preset}/{k}",
                    "origin": {
                        "preset": preset,
                        "max_size": size,
                        "seed": master,
                        "index": k,
                    },
                    "source": program_source(gamma, term),
                    "underline": False,
                    "reference": None,
                    "reference_kind": "recorded",
                    "trace_sha256": None,
                }
            )
    return out


RING_DECLS = (
    "free r : B -> A;\nfree s : A -> C;\nfree t : C -> B;\n"
    "free k1 : B -> D0;\nfree k2 : A -> D0;\nfree k3 : C -> D0;\nfree q : Bot;\n"
)


def ring_source(depth: int, underline: bool) -> str:
    """The scheduler_c3 example with ``depth`` channel uses per worker.

    Depth 2 is the bundled example: worker i applies the channel, its
    converter, the channel again, ..., ``depth`` channel uses deep.
    """

    def worker(k: str, conv: str, seed: str) -> str:
        s = f"a ({seed})"
        for _ in range(depth - 1):
            s = f"a ({conv} ({s}))"
        return f"{k} ({s})"

    mark = "@ " if underline else ""
    return (
        RING_DECLS
        + "nu a : AX{A -> B, C -> A, B -> C}.\n  [ "
        + mark
        + worker("k1", "r", "efq[A](q)")
        + "\n  || "
        + worker("k2", "s", "efq[C](q)")
        + "\n  || "
        + worker("k3", "t", "efq[B](q)")
        + " ]"
    )


def ring_reference(depth: int, underline: bool) -> str:
    """Hand-derived normal form of ring_source(depth, underline).

    With the mark, the token walks the ring and worker 2 ends with
    ``r (t (s ...))`` wrapped depth - 1 times around efq[A](q). Without it,
    workers 1 and 2 each answer at once and the rest is garbage.
    """
    if not underline:
        return "k1 (efq[B](q)) |+| k2 (efq[A](q))"
    s = "efq[A](q)"
    for _ in range(depth - 1):
        s = f"r (t (s ({s})))"
    return f"k2 ({s})"


def ring_records() -> list[dict]:
    out = []
    for depth in RING_DEPTHS:
        for underline in (True, False):
            out.append(
                {
                    "name": f"ring/{depth}/{'on' if underline else 'off'}",
                    "origin": {"ring_depth": depth},
                    "source": ring_source(depth, underline),
                    "underline": underline,
                    "reference": ring_reference(depth, underline),
                    "reference_kind": "ring",
                    "trace_sha256": None,
                }
            )
    return out


def load(workload: str) -> tuple[dict, list[dict]]:
    """(header, records) of a frozen workload."""
    path = DATA / f"{workload}.jsonl"
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0], lines[1:]


def save(workload: str, records: list[dict]) -> None:
    header = {"workload": workload, "why": WHY[workload], "programs": len(records)}
    DATA.mkdir(exist_ok=True)
    with open(DATA / f"{workload}.jsonl", "w", encoding="utf-8") as fh:
        for obj in [header] + records:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
