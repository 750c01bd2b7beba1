"""Type checking and elaboration.

check() walks the term once, synthesizing every type from binder and
constructor annotations. It returns an elaborated copy in which every
variable and channel occurrence carries its type, so later passes can
recompute any subterm's type bottom-up without an environment (type_of).
A subterm that is elaborated already comes back as it is, not copied.

Channel occurrences are the delicate part. Inside component i of a session
the channel must appear exactly as the axiom dictates: sender polarity and
application for the first EM/broadcast component, bare uses for the
receiving components, and applied non-negated occurrences typed
F_i -> G_i in the general mode, where bare channels are not terms at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Optional

from .axioms import AxiomScheme
from .formulas import (
    Atom,
    Bot,
    Conj,
    Disj,
    Formula,
    Impl,
    TOP,
    Top,
    show_formula,
)
from .terms import (
    App,
    Case,
    Chan,
    Contract,
    Efq,
    Inj,
    Lam,
    Pair,
    ParBind,
    Path,
    Proj,
    Term,
    Underline,
    Unit,
    Var,
    facts,
    free_names,
)


@dataclass(frozen=True)
class TypeIssue:
    code: str  # TypeMismatch | ChannelDisciplineViolation | EfqTargetNotAtomic | UnboundName
    position: Path
    message: str

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "position": list(self.position),
            "message": self.message,
        }


class TypingError(Exception):
    def __init__(self, issue: TypeIssue):
        super().__init__(f"{issue.code} at {list(issue.position)}: {issue.message}")
        self.issue = issue


@dataclass
class TypingContext:
    ivars: dict[str, Formula] = field(default_factory=dict)
    chans: dict[str, Formula] = field(default_factory=dict)


def _fail(code: str, path: Path, msg: str):
    raise TypingError(TypeIssue(code, path, msg))


def _mismatch(path: Path, expected: str, found: str, what: str = ""):
    lead = f"{what}: " if what else ""
    _fail("TypeMismatch", path, f"{lead}expected {expected}, found {found}")


# chan_env entries: name -> (scheme, component index, binder activity)
_ChanEnv = dict[str, tuple[AxiomScheme, int, bool]]


def check(t: Term, ctx: Optional[TypingContext] = None) -> tuple[Term, Formula]:
    """Elaborate and type t; raises TypingError on the first violation."""
    ctx = ctx or TypingContext()
    return _infer(t, dict(ctx.ivars), {}, ctx.chans, ())


def infer_type(t: Term, ctx: Optional[TypingContext] = None) -> Formula:
    return check(t, ctx)[1]


def _infer(
    t: Term,
    env: dict[str, Formula],
    chans: _ChanEnv,
    free_chan_tys: dict[str, Formula],
    path: Path,
) -> tuple[Term, Formula]:
    if isinstance(t, Var):
        if t.name not in env:
            _fail("UnboundName", path, f"unbound variable {t.name!r}")
        ty = env[t.name]
        return (t if t.ty == ty else Var(t.name, ty)), ty

    if isinstance(t, Chan):
        return _infer_chan(t, chans, free_chan_tys, path, applied=False)

    if isinstance(t, Unit):
        return t, TOP

    if isinstance(t, Lam):
        env2 = dict(env)
        env2[t.var] = t.ann
        body, bt = _infer(t.body, env2, chans, free_chan_tys, path + (0,))
        return (t if body is t.body else Lam(t.var, t.ann, body)), Impl(t.ann, bt)

    if isinstance(t, App):
        if isinstance(t.fun, Chan):
            name = t.fun.name
            if name in chans and not chans[name][0].bare_allowed(chans[name][1]):
                fun, fty = _infer_chan(
                    t.fun, chans, free_chan_tys, path + (0,), applied=True
                )
                arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (1,))
                assert isinstance(fty, Impl)
                if at != fty.left:
                    _mismatch(
                        path + (1,),
                        show_formula(fty.left),
                        show_formula(at),
                        f"argument of channel {name}",
                    )
                return _app(t, fun, arg), fty.right
        fun, fty = _infer(t.fun, env, chans, free_chan_tys, path + (0,))
        if not isinstance(fty, Impl):
            _mismatch(path + (0,), "a function type", show_formula(fty))
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (1,))
        if at != fty.left:
            _mismatch(path + (1,), show_formula(fty.left), show_formula(at), "argument")
        return _app(t, fun, arg), fty.right

    if isinstance(t, Pair):
        l, lt = _infer(t.left, env, chans, free_chan_tys, path + (0,))
        r, rt = _infer(t.right, env, chans, free_chan_tys, path + (1,))
        return (t if l is t.left and r is t.right else Pair(l, r)), Conj(lt, rt)

    if isinstance(t, Proj):
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if not isinstance(at, Conj):
            _mismatch(path + (0,), "a conjunction", show_formula(at), "projection")
        proj = t if arg is t.arg else Proj(arg, t.index)
        return proj, at.left if t.index == 0 else at.right

    if isinstance(t, Inj):
        if not isinstance(t.disj, Disj):
            _mismatch(path, "a disjunction annotation", show_formula(t.disj))
        want = t.disj.left if t.index == 0 else t.disj.right
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if at != want:
            _mismatch(path + (0,), show_formula(want), show_formula(at),
                      f"inj{t.index} argument")
        return (t if arg is t.arg else Inj(t.index, t.disj, arg)), t.disj

    if isinstance(t, Case):
        scrut, st = _infer(t.scrut, env, chans, free_chan_tys, path + (0,))
        if not isinstance(st, Disj):
            _mismatch(path + (0,), "a disjunction", show_formula(st), "case scrutinee")
        envl = dict(env)
        envl[t.lvar] = st.left
        lbody, lt = _infer(t.lbody, envl, chans, free_chan_tys, path + (1,))
        envr = dict(env)
        envr[t.rvar] = st.right
        rbody, rt = _infer(t.rbody, envr, chans, free_chan_tys, path + (2,))
        if lt != rt:
            _mismatch(path + (2,), show_formula(lt), show_formula(rt), "case branches")
        if scrut is t.scrut and lbody is t.lbody and rbody is t.rbody:
            return t, lt
        return Case(scrut, t.lvar, lbody, t.rvar, rbody), lt

    if isinstance(t, Efq):
        if isinstance(t.target, Bot) or not isinstance(t.target, (Atom, Top)):
            _fail(
                "EfqTargetNotAtomic",
                path,
                f"efq target must be an atom or Top, got {show_formula(t.target)}",
            )
        arg, at = _infer(t.arg, env, chans, free_chan_tys, path + (0,))
        if not isinstance(at, Bot):
            _mismatch(path + (0,), "Bot", show_formula(at), "efq argument")
        return (t if arg is t.arg else Efq(arg, t.target)), t.target

    if isinstance(t, ParBind):
        ax = t.axiom
        if len(t.comps) != ax.arity:
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"axiom {ax} wants {ax.arity} components, got {len(t.comps)}",
            )
        marks = 0
        out = []
        session_ty: Optional[Formula] = None
        for i, comp in enumerate(t.comps):
            chans2 = dict(chans)
            chans2[t.chan] = (ax, i, t.active)
            inner = comp
            if isinstance(comp, Underline):
                marks += 1
                inner = comp.body
                if isinstance(inner, Underline):
                    _fail("ChannelDisciplineViolation", path + (i,),
                          "nested component marks")
            body, bt = _infer(inner, env, chans2, free_chan_tys, path + (i,))
            if session_ty is None:
                session_ty = bt
            elif bt != session_ty:
                _mismatch(
                    path + (i,),
                    show_formula(session_ty),
                    show_formula(bt),
                    f"component {i} of session {t.chan}",
                )
            if isinstance(comp, Underline):
                body = comp if body is inner else Underline(body)
            out.append(body)
        if marks > 1:
            _fail("ChannelDisciplineViolation", path,
                  "more than one marked component")
        if all(map(is_, out, t.comps)):
            return t, session_ty
        return ParBind(t.chan, t.active, ax, tuple(out)), session_ty

    if isinstance(t, Contract):
        l, lt = _infer(t.left, env, chans, free_chan_tys, path + (0,))
        r, rt = _infer(t.right, env, chans, free_chan_tys, path + (1,))
        if lt != rt:
            _mismatch(path + (1,), show_formula(lt), show_formula(rt), "contraction")
        return (t if l is t.left and r is t.right else Contract(l, r)), lt

    if isinstance(t, Underline):
        _fail("ChannelDisciplineViolation", path,
              "component mark outside a session")

    raise TypeError(f"not a term: {t!r}")


def _infer_chan(
    t: Chan,
    chans: _ChanEnv,
    free_chan_tys: dict[str, Formula],
    path: Path,
    applied: bool,
) -> tuple[Term, Formula]:
    if t.name in chans:
        ax, i, active = chans[t.name]
        if t.active != active:
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"occurrence of {t.name} has activity {t.active}, binder says {active}",
            )
        if t.negated != ax.occurrence_negated(i):
            want = "sender (not-) polarity" if ax.occurrence_negated(i) else "plain polarity"
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"occurrence of {t.name} in component {i} must have {want}",
            )
        if not applied and not ax.bare_allowed(i):
            _fail(
                "ChannelDisciplineViolation",
                path,
                f"channel {t.name} cannot occur alone in component {i}",
            )
        ty = ax.occurrence_type(i)
        return (t if t.ty == ty else Chan(t.name, ty, t.active, t.negated)), ty
    if t.name in free_chan_tys:
        if t.negated:
            _fail("ChannelDisciplineViolation", path,
                  f"free channel {t.name} has no sender polarity")
        ty = free_chan_tys[t.name]
        return (t if t.ty == ty else Chan(t.name, ty, t.active, False)), ty
    _fail("UnboundName", path, f"unbound channel {t.name!r}")


def _app(t: App, fun: Term, arg: Term) -> Term:
    return t if fun is t.fun and arg is t.arg else App(fun, arg)


# ---------------------------------------------------------------------------
# bottom-up type synthesis on elaborated terms

def type_of(t: Term) -> Formula:
    """Type of an elaborated term. No environment: occurrences carry types."""
    if isinstance(t, (Var, Chan)):
        if t.ty is None:
            raise ValueError(f"type_of on unelaborated occurrence {t!r}")
        return t.ty
    if isinstance(t, Unit):
        return TOP
    if isinstance(t, Lam):
        return Impl(t.ann, type_of(t.body))
    if isinstance(t, App):
        ft = type_of(t.fun)
        assert isinstance(ft, Impl), f"ill-typed application head: {show_formula(ft)}"
        return ft.right
    if isinstance(t, Pair):
        return Conj(type_of(t.left), type_of(t.right))
    if isinstance(t, Proj):
        pt = type_of(t.arg)
        assert isinstance(pt, Conj)
        return pt.left if t.index == 0 else pt.right
    if isinstance(t, Inj):
        return t.disj
    if isinstance(t, Case):
        return type_of(t.lbody)
    if isinstance(t, Efq):
        return t.target
    if isinstance(t, ParBind):
        return type_of(t.comps[0])
    if isinstance(t, Contract):
        return type_of(t.left)
    if isinstance(t, Underline):
        return type_of(t.body)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# reporting

def check_report(t: Term, ctx: Optional[TypingContext] = None) -> dict:
    """Machine-readable result: {ok, type, errors: [{code, position, message}]}."""
    try:
        _, ty = check(t, ctx)
        return {"ok": True, "type": show_formula(ty), "errors": []}
    except TypingError as e:
        return {"ok": False, "type": None, "errors": [e.issue.to_json()]}


@dataclass(frozen=True)
class SubjectReductionReport:
    ok: bool
    type_before: Optional[str]
    type_after: Optional[str]
    message: str = ""


def _judgement(t: Term, ctx: TypingContext, snap: tuple) -> tuple:
    """(snap, t's type or its TypingError, t's free names or None).

    snap is a copy of ctx's (ivars, chans). The judgement is remembered on
    t together with snap, and reused while the context is equal to it.
    """
    f = facts(t)
    if f.judgement is None or f.judgement[0] != snap:
        try:
            f.judgement = (snap, infer_type(t, ctx), free_names(t))
        except TypingError as e:
            f.judgement = (snap, e, None)
    return f.judgement


def check_subject_reduction(
    ctx: Optional[TypingContext], before: Term, after: Term
) -> SubjectReductionReport:
    """Type preservation plus no new free names, reported, never raised.

    Along a trace each state is judged once: a step's after keeps its
    judgement until the next step takes it up as its before, so no more
    than one judgement is held at a time.
    """
    ctx = ctx or TypingContext()
    snap = (dict(ctx.ivars), dict(ctx.chans))
    _, tb, names_before = _judgement(before, ctx, snap)
    if before is not after:
        facts(before).judgement = None
    if isinstance(tb, TypingError):
        return SubjectReductionReport(False, None, None, f"before does not type: {tb}")
    _, ta, names_after = _judgement(after, ctx, snap)
    if isinstance(ta, TypingError):
        return SubjectReductionReport(
            False, show_formula(tb), None, f"after does not type: {ta}"
        )
    if tb != ta:
        return SubjectReductionReport(
            False, show_formula(tb), show_formula(ta), "type changed"
        )
    (fv_after, fc_after), (fv_before, fc_before) = names_after, names_before
    fv_new = fv_after - fv_before
    fc_new = fc_after - fc_before
    if fv_new or fc_new:
        return SubjectReductionReport(
            False,
            show_formula(tb),
            show_formula(ta),
            f"new free names appeared: {sorted(fv_new | fc_new)}",
        )
    return SubjectReductionReport(True, show_formula(tb), show_formula(ta))
