#!/usr/bin/env python3
"""The lax benchmark: time to normal form and time to verdict.

    python3 perfbench/run.py --workload breadth --seed 1 --seconds 30 --trace 0

One workload runs in this one process as a closed loop with one caller:
whole passes over the workload's frozen programs, each program from
source text to verdict (parse_program, check, normalize, then audit_trace,
check_parallel_nf_property and check_subformula). ``--seed`` only orders
the programs of each pass, so every seed does the same work.

With ``--trace 0`` the run prints the end-to-end metrics. Every program
runs at least twice, and its time is its median run in reference seconds:
a fixed kernel sampled while it ran cancels the shared machine's changing
speed (see calibrate.py). Set-up time comes from separate processes that
only set up. With ``--trace 1`` the run spends half of
``--seconds`` untraced and half with spans around every layer, then prints
the per-layer metrics, including the difference between the two halves
(the tracing overhead). The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``correct`` is false when a program reaches no normal form, a normal form
is not alpha-equal to its reference, or passes disagree on any verdict or
rule count. ``failed`` counts program runs whose verdict failed: an
exception, a failed audit or property check, or a wrong normal form.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibrate import REF_S, Meter, kernel, kernel_s
from checkout import MissingSource, use_checkout_src

try:
    use_checkout_src()
except MissingSource as e:
    sys.exit(f"cannot benchmark: {e}")

import inputs  # noqa: E402
from lax import analysis, parser, rewrite, strategy, typecheck  # noqa: E402
from lax.generator import GenConfig, generate_corpus  # noqa: E402
from lax.rewrite import RedexKind  # noqa: E402
from lax.terms import term_size  # noqa: E402
from pipeline import (  # noqa: E402
    per_program_median,
    percentile,
    prepare,
    run_passes,
    tail_percentile,
    verdict,
)
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 7
SETUP_TICKS = 20  # kernel samples a set-up process takes once it is ready
MIN_PASSES = 2
PEAK_FIND_REPS = 7
PEAK_STEP_REPS = 101
GEN_PROBE_COUNT = 20  # programs per preset, breadth's size and seeds


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0, help="orders each pass")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--holdout-seed", type=int, default=None,
        help="run breadth or heavy on a corpus freshly generated from this "
        "seed instead of the frozen one (no reference normal forms)",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    if args.holdout_seed is not None and args.workload != "comm":
        records = inputs.generated_records(args.workload, args.holdout_seed)
    else:
        records = inputs.load(args.workload)[1]
    return prepare(records)


def measure_setup(args) -> float:
    """Median over fresh processes of start to first program ready, in
    reference seconds. Each process samples the kernel right after it is
    ready, on whichever core it ran, and its time is scaled by those."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", args.workload]
    if args.holdout_seed is not None:
        cmd += ["--holdout-seed", str(args.holdout_seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = child.stdout.read().split()
        if line.strip() != "ready" or child.returncode != 0 or not rest:
            raise RuntimeError(f"set-up process failed: {child.returncode}")
        times.append(elapsed * REF_S / float(rest[-1]))
    return statistics.median(times)


class Observer:
    """Work on each outcome after its clock stopped: the trace digest on
    the first pass and, when traced, serialisation time and peak size."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.checked = 0
        self.drifted = 0
        self.peak_nodes = 0

    def __call__(self, index, program, outcome) -> None:
        trace = outcome.trace
        if trace is None or (index > 0 and self.tracer is None):
            return
        with self.tracer.span("printer.trace_json") if self.tracer else nullcontext():
            lines = trace.to_json_lines()
        if index > 0:
            return
        if program.digest is not None:
            self.checked += 1
            self.drifted += inputs.trace_digest(lines) != program.digest
        if self.tracer is not None:
            states = [trace.initial] + [s.term_after for s in trace.steps]
            self.peak_nodes = max([self.peak_nodes] + [term_size(t) for t in states])


def end_to_end(passes, setup_s, notes) -> dict:
    out = {"setup_s": (setup_s, "s")}
    for name in ("total_s", "normalize_s", "verify_s"):
        attr = "verdict_s" if name == "total_s" else name
        out[name] = (sum(per_program_median(passes, attr)), "s")
    for name, attr in (("normal_form_ms", "normalize_s"), ("verdict_ms", "verdict_s")):
        xs = per_program_median(passes, attr)
        p = tail_percentile(len(xs))
        out[f"{name}.p50"] = (statistics.median(xs) * 1e3, "ms")
        out[f"{name}.tail"] = (percentile(xs, p) * 1e3, "ms")
        notes.append(
            f"{name}.tail is p{p} of {len(xs)} programs, each its median "
            f"over {len(passes)} passes"
        )
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kib / 1024, "MB")
    return out


def trace_targets():
    """(module, attribute, span name, count results) for every traced call."""
    return [
        (parser, "parse_program", "parser.parse_program", False),
        (typecheck, "check", "typecheck.check", False),
        (strategy, "normalize", "strategy.normalize", False),
        (strategy, "find_redexes", "rewrite.find_redexes.by_strategy", True),
        (strategy, "step", "rewrite.step", False),
        (rewrite, "session_comm_complexity", "rewrite.session_comm_complexity", False),
        (analysis, "audit_trace", "analysis.audit_trace", False),
        (analysis, "find_redexes", "rewrite.find_redexes.by_audit", False),
        (
            analysis,
            "check_subject_reduction",
            "typecheck.check_subject_reduction",
            False,
        ),
        (analysis, "communication_measure", "analysis.communication_measure", False),
        (
            analysis,
            "check_parallel_nf_property",
            "analysis.check_parallel_nf_property",
            False,
        ),
        (analysis, "check_subformula", "analysis.check_subformula", False),
    ]


def peak_state_microbench() -> tuple[bool, float, float]:
    """(state intact, find_redexes ms, step ms) on the frozen peak state."""
    with open(inputs.DATA / "peak_state.json", encoding="utf-8") as fh:
        frozen = json.load(fh)
    prog = parser.parse_program(frozen["source"])
    ctx = typecheck.TypingContext(ivars=dict(prog.gamma))
    term, _ = typecheck.check(prog.term, ctx)
    want = frozen["redex"]
    fired = [
        r
        for r in rewrite.find_redexes(term)
        if r.rule == want["rule"] and list(r.position) == want["position"]
    ]
    intact = term_size(term) == frozen["nodes"] and len(fired) == 1

    def median_ms(fn, reps):
        xs = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            xs.append(time.perf_counter() - t0)
        return statistics.median(xs) * 1e3

    find_ms = median_ms(lambda: rewrite.find_redexes(term), PEAK_FIND_REPS)
    step_ms = 0.0
    if fired:
        step_ms = median_ms(lambda: rewrite.step(term, fired[0]), PEAK_STEP_REPS)
    return intact, find_ms, step_ms


def generator_probe() -> tuple[float, int]:
    """(seconds, nodes) to generate GEN_PROBE_COUNT breadth programs per preset."""
    t0 = time.perf_counter()
    nodes = 0
    for i, preset in enumerate(inputs.PRESETS):
        cfg = GenConfig(preset=preset, max_size=inputs.BREADTH_SIZE)
        for _, t in generate_corpus(inputs.BREADTH_SEED + i, GEN_PROBE_COUNT, cfg):
            nodes += term_size(t)
    return time.perf_counter() - t0, nodes


def per_layer(tracer, untraced, traced, observer) -> tuple[dict, bool]:
    n = len(traced)
    T, S, C = tracer.total_s, tracer.self_s, tracer.calls
    first = traced[0]
    steps = sum(first.rules.values())
    fs, fa = "rewrite.find_redexes.by_strategy", "rewrite.find_redexes.by_audit"
    out = {
        f"{fs}.s": (T[fs] / n, "s"),
        f"{fs}.calls": (C[fs] / n, "count"),
        f"{fs}.calls_per_step": (C[fs] / n / max(steps, 1), "ratio"),
        "rewrite.redexes_per_call": (tracer.items[fs] / max(C[fs], 1), "ratio"),
        "rewrite.redex_yield": (steps / max(tracer.items[fs] / n, 1), "ratio"),
    }
    for name in ("rewrite.session_comm_complexity", "rewrite.step"):
        out[f"{name}.s"] = (T[name] / n, "s")
        out[f"{name}.calls"] = (C[name] / n, "count")
    out["strategy.normalize.s"] = (T["strategy.normalize"] / n, "s")
    out["strategy.normalize.self_s"] = (S["strategy.normalize"] / n, "s")
    out["strategy.steps"] = (steps, "count")
    for phase in (
        strategy.PHASE_PARALLEL,
        strategy.PHASE_INTUITIONISTIC,
        strategy.PHASE_ACTIVATION,
        strategy.PHASE_COMMUNICATION,
    ):
        out[f"strategy.steps.{phase}"] = (first.phases[phase], "count")
    for kind in RedexKind:
        out[f"strategy.rule.{kind.value}"] = (first.rules[kind.value], "count")
    out["strategy.peak_nodes"] = (observer.peak_nodes, "count")
    out["analysis.audit_trace.s"] = (T["analysis.audit_trace"] / n, "s")
    out["analysis.audit_trace.self_s"] = (S["analysis.audit_trace"] / n, "s")
    out[f"{fa}.s"] = (T[fa] / n, "s")
    out[f"{fa}.calls_per_step"] = (C[fa] / n / max(steps, 1), "ratio")
    for name in (
        "analysis.communication_measure",
        "analysis.check_parallel_nf_property",
        "analysis.check_subformula",
        "typecheck.check",
        "typecheck.check_subject_reduction",
        "parser.parse_program",
        "printer.trace_json",
    ):
        out[f"{name}.s"] = (T[name] / n, "s")
    out["typecheck.check_subject_reduction.calls"] = (
        C["typecheck.check_subject_reduction"] / n, "count",
    )
    out["parser.nodes_per_s"] = (
        first.nodes / max(T["parser.parse_program"] / n, 1e-9), "nodes/s",
    )
    gen_s, gen_nodes = generator_probe()
    out["generator.generate_corpus.s"] = (gen_s, "s")
    out["generator.nodes_per_s"] = (gen_nodes / gen_s, "nodes/s")
    intact, find_ms, step_ms = peak_state_microbench()
    out["rewrite.find_redexes.peak_state_ms"] = (find_ms, "ms")
    out["rewrite.step.peak_state_ms"] = (step_ms, "ms")
    out["tracing.overhead_s"] = (
        sum(per_program_median(traced, "verdict_s"))
        - sum(per_program_median(untraced, "verdict_s")),
        "s",
    )
    out["trace_drift"] = (observer.drifted, "count")
    return out, intact


def report(args, programs, passes, observer, metrics, notes, correct) -> None:
    ok, attempted, failed = verdict(passes)
    correct = correct and ok
    first = passes[0]
    print(
        f"workload {args.workload}: {len(programs)} programs, {len(passes)} "
        f"passes, seed {args.seed}, trace {args.trace}"
    )
    for name, why in sorted(first.verdicts().items()):
        if why:
            print(f"failed {name}: {'; '.join(why)}")
    print(f"failed_share {failed / attempted} ratio ({failed}/{attempted})")
    print("counts.phase " + json.dumps(dict(sorted(first.phases.items()))))
    rules = {k.value: first.rules[k.value] for k in RedexKind}
    print("counts.rule " + json.dumps(rules))
    print(f"trace_drift {observer.drifted} count (of {observer.checked})")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )


def main(argv) -> int:
    args = parse_args(argv, inputs.WORKLOADS)
    if args.setup_only:
        setup(args)
        print("ready", flush=True)
        kernel()  # warm
        print(statistics.fmean(kernel_s() for _ in range(SETUP_TICKS)))
        return 0

    notes: list[str] = []
    correct = True
    if args.trace == 0:
        setup_s = measure_setup(args)
        programs = setup(args)
        shuffle = random.Random(args.seed).shuffle
        observer = Observer()
        passes = run_passes(
            programs, args.seconds, shuffle, observer, MIN_PASSES, Meter()
        )
        metrics = end_to_end(passes, setup_s, notes)
    else:
        programs = setup(args)
        shuffle = random.Random(args.seed).shuffle
        meter = Meter()
        untraced = run_passes(programs, args.seconds / 2, shuffle, meter=meter)
        tracer = Tracer(meter.clock)
        observer = Observer(tracer)
        with tracer.installed(trace_targets()):
            traced = run_passes(
                programs, args.seconds / 2, shuffle, observer, meter=meter
            )
        metrics, correct = per_layer(tracer, untraced, traced, observer)
        passes = untraced + traced
    report(args, programs, passes, observer, metrics, notes, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
