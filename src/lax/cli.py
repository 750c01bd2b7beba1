"""Command-line front end.

Four commands: `check` types a file, `normalize` runs the terminating
strategy with optional trace streaming and run auditing, `examples`
replays the bundled programs against their golden normal forms, and
`fuzz` generates random well-typed terms and audits every run.

Exit codes: 0 success, 1 bad input (usage errors included), 2 step limit
exceeded, 3 a checked property failed, 4 an internal error. With --format
json, every line printed to stdout is one JSON object; identical invocations
print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from typing import Optional

from .analysis import (
    PropertyReport,
    audit_trace,
    check_parallel_nf_property,
    check_subformula,
)
from .generator import GenConfig, generate_corpus
from .formulas import show_formula
from .parser import LaxSyntaxError, Program, parse_program, parse_term
from .printer import show_term
from .rewrite import RedexKind
from .strategy import (
    DEFAULT_MAX_STEPS,
    ParallelFormFailure,
    StepBudgetError,
    StepLimitExceeded,
    Trace,
    normalize,
    parse_max_steps,
)
from .terms import alpha_eq
from .typecheck import TypingContext, TypingError, check

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4


class _Out:
    """Either pretty text or JSON lines, one object per event."""

    def __init__(self, fmt: str):
        self.json = fmt == "json"

    def emit(self, obj: dict, pretty: str) -> None:
        if self.json:
            print(json.dumps(obj, sort_keys=True))
        else:
            print(pretty)


class _InputError(Exception):
    pass


class _UsageError(Exception):
    def __init__(self, usage: str, message: str):
        super().__init__(message)
        self.usage = usage


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting 2, the step-limit code."""

    def error(self, message: str):
        raise _UsageError(self.format_usage(), f"{self.prog}: {message}")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lo}, got {text!r}"
            )
        return n

    return parse


def _format_in(argv: list[str]) -> str:
    """The --format an argument list asks for, read without argparse (which
    also takes a unique prefix such as --form)."""
    fmt = "pretty"
    for i, a in enumerate(argv):
        name, eq, value = a.partition("=")
        if len(name) > 2 and "--format".startswith(name):
            if eq:
                fmt = value
            elif i + 1 < len(argv):
                fmt = argv[i + 1]
    return fmt


def _load(path: str) -> Program:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise _InputError(str(e))
    except UnicodeDecodeError as e:
        raise _InputError(f"{path}: not UTF-8 text: {e}")
    return parse_program(text)


def _typed(prog: Program):
    ctx = TypingContext(ivars=dict(prog.gamma))
    elab, ty = check(prog.term, ctx)
    return ctx, elab, ty


def cmd_check(args) -> int:
    out = _Out(args.format)
    try:
        prog = _load(args.file)
        _, _, ty = _typed(prog)
    except (LaxSyntaxError, TypingError, _InputError) as e:
        out.emit({"command": "check", "ok": False, "error": str(e)}, f"error: {e}")
        return EXIT_INPUT
    out.emit(
        {"command": "check", "ok": True, "type": show_formula(ty)},
        f"ok: {show_formula(ty)}",
    )
    return EXIT_OK


def _emit_trace(out: _Out, trace: Trace) -> None:
    for s in trace.steps:
        out.emit(
            {"event": "step", **s.to_json()},
            f"[cycle {s.cycle} {s.phase}] {s.redex.rule} @ "
            f"{list(s.redex.position)} c={s.redex.complexity}",
        )


def _emit_reports(out: _Out, reports) -> bool:
    ok = True
    for rep in reports:
        out.emit(
            {"event": "report", **rep.to_json()},
            f"{rep.name}: {'ok' if rep.holds else 'FAILED'}"
            + "".join(f"\n  at {w}: {e}" for w, e in rep.witnesses),
        )
        ok = ok and rep.holds
    return ok


def _verdicts(ctx: TypingContext, trace: Trace, final) -> list[PropertyReport]:
    """The reports a run is judged by: its trace audit and the two
    properties of its normal form."""
    return [
        audit_trace(ctx, trace),
        check_parallel_nf_property(final, trace.underline_discipline),
        check_subformula(ctx, final),
    ]


def cmd_normalize(args) -> int:
    out = _Out(args.format)
    max_steps = None
    if args.max_steps is not None:
        max_steps = parse_max_steps(args.max_steps, "--max-steps")
    ctx, elab, _ = _typed(_load(args.file))
    discipline = args.underline == "on"
    try:
        final, trace = normalize(
            elab, max_steps=max_steps, underline_discipline=discipline
        )
    except StepLimitExceeded as e:
        if args.trace:
            _emit_trace(out, e.trace)
        out.emit(
            {"event": "limit", "steps": len(e.trace.steps)},
            f"step limit exceeded after {len(e.trace.steps)} steps",
        )
        return EXIT_LIMIT

    if args.trace:
        _emit_trace(out, trace)
    out.emit(
        {
            "event": "normal_form",
            "term": show_term(final),
            "steps": len(trace.steps),
            "cycles": trace.cycles,
        },
        show_term(final),
    )
    if args.audit and not _emit_reports(out, _verdicts(ctx, trace, final)):
        return EXIT_VIOLATION
    return EXIT_OK


def _example_options(text: str) -> dict[str, str]:
    """The key=value pairs on an example's "# options:" lines."""
    opts: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# options:"):
            for piece in line[len("# options:") :].split(","):
                if "=" in piece:
                    k, v = piece.split("=", 1)
                    opts[k.strip()] = v.strip()
    return opts


def _bundled_examples() -> list[tuple[str, str, str]]:
    """(name, source, golden) for every bundled example, sorted by name."""
    root = resources.files(__package__) / "examples"
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".lax"):
            name = entry.name[: -len(".lax")]
            golden = root / f"{name}.golden"
            out.append((name, entry.read_text(), golden.read_text()))
    return out


def cmd_examples(args) -> int:
    out = _Out(args.format)
    worst = EXIT_OK
    for name, source, golden_text in _bundled_examples():
        opts = _example_options(source)
        try:
            prog = parse_program(source)
            ctx, elab, _ = _typed(prog)
            golden = parse_term(golden_text, dict(prog.gamma))
            final, trace = normalize(
                elab, underline_discipline=opts.get("underline") == "on"
            )
        except (LaxSyntaxError, TypingError, ParallelFormFailure) as e:
            out.emit(
                {"event": "example", "name": name, "pass": False, "error": str(e)},
                f"FAIL {name}: {e}",
            )
            worst = max(worst, EXIT_INPUT)
            continue
        except StepLimitExceeded:
            out.emit(
                {"event": "example", "name": name, "pass": False, "error": "limit"},
                f"FAIL {name}: step limit",
            )
            worst = max(worst, EXIT_LIMIT)
            continue
        ok = alpha_eq(final, golden)
        failed = [rep for rep in _verdicts(ctx, trace, final) if not rep.holds]
        passed = ok and not failed
        out.emit(
            {
                "event": "example",
                "name": name,
                "pass": passed,
                "steps": len(trace.steps),
                "normal_form": show_term(final),
            },
            f"{'PASS' if passed else 'FAIL'} {name} "
            f"({len(trace.steps)} steps)"
            + ("" if ok else f"\n  got      {show_term(final)}\n  expected {golden_text.strip()}")
            + "".join(f"\n  {rep.name}: {rep.witnesses}" for rep in failed),
        )
        if not passed:
            worst = max(worst, EXIT_VIOLATION)
    return worst


def cmd_fuzz(args) -> int:
    out = _Out(args.format)
    preset = None if args.axiom == "none" else args.axiom
    cfg = GenConfig(preset=preset, max_size=args.size)
    violations = 0
    total_steps = 0
    max_steps_seen = 0
    max_complexity = -1
    phase_counts: dict[str, int] = {}
    rules: dict[str, int] = {}
    for i, (gamma, term) in enumerate(
        generate_corpus(args.seed, args.count, cfg)
    ):
        ctx = TypingContext(ivars=dict(gamma))
        try:
            final, trace = normalize(term)
        except (ParallelFormFailure, StepLimitExceeded) as e:
            violations += 1
            out.emit(
                {"event": "violation", "index": i, "error": type(e).__name__},
                f"violation at {i}: {type(e).__name__} on {show_term(term)}",
            )
            continue
        total_steps += len(trace.steps)
        max_steps_seen = max(max_steps_seen, len(trace.steps))
        for s in trace.steps:
            max_complexity = max(max_complexity, s.redex.complexity)
            kind = s.redex.kind.value
            rules[kind] = rules.get(kind, 0) + 1
        for phase, n in trace.phase_counts().items():
            phase_counts[phase] = phase_counts.get(phase, 0) + n
        for rep in _verdicts(ctx, trace, final):
            if not rep.holds:
                violations += 1
                out.emit(
                    {
                        "event": "violation",
                        "index": i,
                        "report": rep.to_json(),
                        "term": show_term(term),
                    },
                    f"violation at {i}: {rep.name} on {show_term(term)}\n  "
                    + "\n  ".join(f"{w}: {e}" for w, e in rep.witnesses),
                )
    never_fired = [k.value for k in RedexKind if k.value not in rules]
    out.emit(
        {
            "event": "stats",
            "terms": args.count,
            "axiom": args.axiom,
            "seed": args.seed,
            "total_steps": total_steps,
            "max_steps": max_steps_seen,
            "max_complexity": max_complexity,
            "phase_counts": phase_counts,
            "rules": rules,
            "never_fired": never_fired,
            "violations": violations,
        },
        f"{args.count} terms ({args.axiom}, seed {args.seed}): "
        f"{total_steps} steps total, longest run {max_steps_seen}, "
        f"max redex complexity {max_complexity}, phases {phase_counts}, "
        f"{violations} violations, never fired: "
        f"{', '.join(never_fired) or 'none'}",
    )
    return EXIT_VIOLATION if violations else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="lax",
        description="Type checker and reduction engine for concurrent "
        "lambda-calculi over disjunctive axioms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument(
            "--format", choices=("pretty", "json"), default="pretty",
            help="output style (default pretty)",
        )

    c = sub.add_parser("check", help="parse and typecheck a file")
    c.add_argument("file")
    add_format(c)
    c.set_defaults(fn=cmd_check)

    n = sub.add_parser("normalize", help="run the terminating strategy")
    n.add_argument("file")
    n.add_argument("--trace", action="store_true", help="print every step")
    n.add_argument(
        "--audit", action="store_true",
        help="audit the trace and check the normal form, exit 3 on failure",
    )
    n.add_argument(
        "--max-steps", default=None,
        help=f"step budget (default {DEFAULT_MAX_STEPS}, or LAX_MAX_STEPS)",
    )
    n.add_argument(
        "--underline", choices=("on", "off"), default="off",
        help="restrict senders to the marked component",
    )
    add_format(n)
    n.set_defaults(fn=cmd_normalize)

    e = sub.add_parser("examples", help="replay bundled programs against goldens")
    add_format(e)
    e.set_defaults(fn=cmd_examples)

    f = sub.add_parser("fuzz", help="generate, normalize, and audit random terms")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--count", type=_int_at_least(0), default=100)
    f.add_argument("--size", type=_int_at_least(1), default=40)
    f.add_argument(
        "--axiom",
        choices=("em", "em3", "c3", "g2", "godel", "none"),
        default="em",
    )
    add_format(f)
    f.set_defaults(fn=cmd_fuzz)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        if _format_in(argv) == "json":
            _Out("json").emit({"event": "error", "error": str(e)}, "")
        else:
            sys.stderr.write(f"{e.usage}{e}\n")
        return EXIT_INPUT
    try:
        return args.fn(args)
    except (
        StepBudgetError, LaxSyntaxError, TypingError, _InputError,
        ParallelFormFailure,
    ) as e:
        msg, code = str(e), EXIT_INPUT
    except Exception as e:  # a fault of lax itself: reported, no traceback
        msg, code = f"internal error: {type(e).__name__}: {e}", EXIT_INTERNAL
    _Out(args.format).emit({"event": "error", "error": msg}, f"error: {msg}")
    return code


if __name__ == "__main__":
    sys.exit(main())
