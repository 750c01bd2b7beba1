#!/usr/bin/env python3
"""Write the frozen benchmark inputs under perfbench/data.

    python3 perfbench/freeze.py            # every workload and the peak state
    python3 perfbench/freeze.py comm       # one workload

Generated programs are drawn with the generator of this checkout, and each
program's normal form and trace digest are recorded from this checkout's
engine. Bundled examples keep their hand-written goldens and the ring its
hand-derived formula; freezing stops if the engine disagrees with either.
The peak state alone takes about a minute, since reaching it means
normalizing a 929-step run.
"""

from __future__ import annotations

import json
import sys
from importlib import resources

from checkout import use_checkout_src

use_checkout_src()

import inputs  # noqa: E402
from lax.generator import GenConfig, generate_corpus  # noqa: E402
from lax.printer import show_term  # noqa: E402
from lax.strategy import normalize  # noqa: E402
from lax.terms import term_size  # noqa: E402
from pipeline import prepare, run_program  # noqa: E402

# ROADMAP's heavy-tail state: em, max_size 320, seed 7, index 5
PEAK = {"preset": "em", "max_size": 320, "seed": 7, "index": 5}


def example_records() -> list[dict]:
    root = resources.files("lax") / "examples"
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".lax"):
            continue
        name = entry.name[: -len(".lax")]
        source = entry.read_text()
        out.append(
            {
                "name": f"example/{name}",
                "origin": {"example": entry.name},
                "source": source,
                "underline": "# options: underline=on" in source,
                "reference": (root / f"{name}.golden").read_text().strip(),
                "reference_kind": "golden",
                "trace_sha256": None,
            }
        )
    return out


def record_runs(records: list[dict]) -> list[dict]:
    """Fill in the recorded normal forms and trace digests."""
    for rec, prog in zip(records, prepare(records)):
        o = run_program(prog)
        if o.trace is None or not o.normal_form_ok:
            raise SystemExit(f"{rec['name']}: {o.failures}")
        if rec["reference"] is None:
            rec["reference"] = show_term(o.trace.final)
        rec["trace_sha256"] = inputs.trace_digest(o.trace.to_json_lines())
        if o.failures:
            print(f"  {rec['name']} fails today: {o.failures}")
    return records


def freeze_peak_state() -> None:
    cfg = GenConfig(preset=PEAK["preset"], max_size=PEAK["max_size"])
    stream = generate_corpus(PEAK["seed"], PEAK["index"] + 1, cfg)
    gamma, term = list(stream)[-1]
    _, trace = normalize(term)
    states = [term] + [s.term_after for s in trace.steps]
    k = max(range(len(states) - 1), key=lambda i: term_size(states[i]))
    fired = trace.steps[k].redex
    obj = {
        "origin": PEAK,
        "why": "largest state of ROADMAP's heavy-tail run: one find_redexes "
        "here costs ~1600x one step",
        "state_index": k,
        "nodes": term_size(states[k]),
        "redex": {"rule": fired.rule, "position": list(fired.position)},
        "source": inputs.program_source(gamma, states[k]),
    }
    with open(inputs.DATA / "peak_state.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"peak_state: step {k}, {obj['nodes']} nodes, next {fired.rule}")


def main(argv: list[str]) -> int:
    todo = argv or list(inputs.WORKLOADS) + ["peak_state"]
    for what in todo:
        print(f"freezing {what}", flush=True)
        if what == "peak_state":
            freeze_peak_state()
            continue
        if what == "comm":
            records = example_records() + inputs.ring_records()
        else:
            seed = inputs.BREADTH_SEED if what == "breadth" else inputs.HEAVY_SEED
            records = inputs.generated_records(what, seed)
        inputs.save(what, record_runs(records))
        print(f"  {len(records)} programs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
