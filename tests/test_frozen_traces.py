"""The benchmark's frozen programs still run to the traces recorded for them.

perfbench/data holds 589 programs, each with the sha256 of the trace the
strategy gave when it was frozen. A change that means to keep every trace
byte-identical is checked here on all of them; the files are only read.
"""

import hashlib
import json
from pathlib import Path

from lax import TypingContext, check, normalize, parse_program

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

# heavy em/11 was frozen before the ParParPerm capture fix, which changed
# its run; this is the digest of the fixed run, until the data is frozen again
PINNED = {
    ("heavy", "em/11"): "7d4b838e46e345ae676a8d530363a030342e9de7423aa15658fbdeeec89d08f9",
}


def _programs():
    for path in sorted(DATA.glob("*.jsonl")):
        lines = path.read_text().splitlines()
        for line in lines[1:]:  # the first line describes the workload
            yield path.stem, json.loads(line)


def test_every_frozen_program_gives_its_recorded_trace():
    drifted = []
    count = 0
    for workload, rec in _programs():
        count += 1
        prog = parse_program(rec["source"])
        term, _ = check(prog.term, TypingContext(ivars=dict(prog.gamma)))
        _, trace = normalize(term, underline_discipline=rec["underline"])
        digest = hashlib.sha256("\n".join(trace.to_json_lines()).encode()).hexdigest()
        key = (workload, rec["name"])
        if digest != PINNED.get(key, rec["trace_sha256"]):
            drifted.append(key)
    assert count == 589
    assert drifted == []
