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

check_subject_reduction audits one step from judgements that need no
context. Each node of an elaborated term remembers its judgement (see
_node_judgement): its type, its free variables with their annotated types,
its free channels with the forms their occurrences take, and whether it is
a component mark. A node makes _infer's checks against what its children's
judgements say instead of against a context. A step rebuilds only the path
to its redex and the contractum, so judging the state after costs the
nodes the step built. When both states' judgements hold in the context,
agree on the type and after has no free name before lacks, the step
passes; otherwise both states go through the whole-term judgement, so a
failure reads exactly as that judgement words it.
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
    free_names,
    remembered,
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


# chan_env entries: name -> (scheme, component index, binder activity)
_ChanEnv = dict[str, tuple[AxiomScheme, int, bool]]


@dataclass
class TypingContext:
    ivars: dict[str, Formula] = field(default_factory=dict)
    # free channels: name -> the type of every occurrence
    chans: dict[str, Formula] = field(default_factory=dict)


def _fail(code: str, path: Path, msg: str):
    raise TypingError(TypeIssue(code, path, msg))


def _mismatch(path: Path, expected: str, found: str, what: str = ""):
    lead = f"{what}: " if what else ""
    _fail("TypeMismatch", path, f"{lead}expected {expected}, found {found}")


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
# subject reduction

@dataclass(frozen=True)
class SubjectReductionReport:
    ok: bool
    type_before: Optional[str]
    type_after: Optional[str]
    message: str = ""


def check_subject_reduction(
    ctx: Optional[TypingContext], before: Term, after: Term
) -> SubjectReductionReport:
    """Type preservation plus no new free names, reported, never raised.

    The step passes at once when both states' judgements (_judgement) hold
    in ctx, give one type, and after has no free name before lacks. Each
    node remembers its judgement, so a step judges only the nodes it built.
    Every other step is judged on the whole states, as the theorem is
    stated, so a failed step reports exactly what a whole-term check
    reports.
    """
    ctx = ctx or TypingContext()
    jb, ja = _judgement(before), _judgement(after)
    if (
        _holds(jb, ctx)
        and _holds(ja, ctx)
        and _same(jb[0], ja[0])
        and ja[1].keys() <= jb[1].keys()
        and ja[2].keys() <= jb[2].keys()
    ):
        ty = show_formula(jb[0])
        return SubjectReductionReport(True, ty, ty)
    try:
        tb = infer_type(before, ctx)
    except TypingError as e:
        return SubjectReductionReport(False, None, None, f"before does not type: {e}")
    try:
        ta = infer_type(after, ctx)
    except TypingError as e:
        return SubjectReductionReport(
            False, show_formula(tb), None, f"after does not type: {e}"
        )
    if not _same(tb, ta):
        return SubjectReductionReport(
            False, show_formula(tb), show_formula(ta), "type changed"
        )
    (fv_before, fc_before), (fv_after, fc_after) = free_names(before), free_names(after)
    new = (fv_after - fv_before) | (fc_after - fc_before)
    if new:
        return SubjectReductionReport(
            False,
            show_formula(tb),
            show_formula(ta),
            f"new free names appeared: {sorted(new)}",
        )
    return SubjectReductionReport(True, show_formula(tb), show_formula(ta))


# ---------------------------------------------------------------------------
# judgements: what check would say of a node, in no context
#
# A node's judgement is False, or (its type, its free variables, its free
# channels, whether it is a component mark). Each free variable maps to the
# type its occurrences are annotated with, and each free channel to the set
# of its occurrence forms (type, activity, sender polarity, bare). A node
# makes the checks _infer makes of it, reading its occurrences' annotations
# where _infer reads its context: a binder checks what its occurrences say
# against what it binds, then drops the name. False means some check
# failed, or an occurrence is unelaborated; it settles nothing.
#
# So a judgement that holds in a context (_holds: each free name as the
# context types it, no mark at the root) is what check gives there. An
# annotation that disagrees with the context can only make it fail.

_NONE: dict = {}  # the empty map, shared


def _judgement(t: Term):
    return remembered(t, "judgement", _node_judgement)


def _holds(j, ctx: TypingContext) -> bool:
    """The judgement j says t types in ctx."""
    if not j or j[3]:
        return False
    for x, ty in j[1].items():
        want = ctx.ivars.get(x)
        if want is None or not _same(want, ty):
            return False
    for a, forms in j[2].items():
        want = ctx.chans.get(a)
        if want is None:
            return False
        for ty, _, negated, _ in forms:
            if negated or not _same(want, ty):
                return False
    return True


def _same(f: Formula, g: Formula) -> bool:
    """f == g, on an explicit stack; a formula shared by both is equal
    without a look inside."""
    if f is g:
        return True
    todo = [(f, g)]
    while todo:
        f, g = todo.pop()
        if f is g:
            continue
        cls = type(f)
        if cls is not type(g) or cls is Atom and f.name != g.name:
            return False
        if cls is Impl or cls is Conj or cls is Disj:
            todo += ((f.right, g.right), (f.left, g.left))
    return True


def _vars_joined(a: dict, b: dict) -> Optional[dict]:
    """The free variables of a and b together, a or b itself when it holds
    the other's; None when they annotate one variable with two types."""
    if not b or a is b:
        return a
    if len(b) > len(a):
        a, b = b, a
    out = None
    for x, ty in b.items():
        old = a.get(x)
        if old is None:
            if out is None:
                out = dict(a)
            out[x] = ty
        elif not _same(old, ty):
            return None
    return a if out is None else out


def _chans_joined(a: dict, b: dict) -> dict:
    """The free channels of a and b together, each with the forms of both;
    a or b itself when it holds the other's."""
    if not b or a is b:
        return a
    if len(b) > len(a):
        a, b = b, a
    out = None
    for c, forms in b.items():
        old = a.get(c)
        if old is not None and forms <= old:
            continue
        if out is None:
            out = dict(a)
        out[c] = forms if old is None else old | forms
    return a if out is None else out


def _dropped(names: dict, x: str) -> dict:
    """names without x."""
    if len(names) == 1:
        return _NONE
    return {y: v for y, v in names.items() if y != x}


def _bound(fv: dict, x: str, ty: Formula) -> Optional[dict]:
    """fv once a binder of x at ty closes it; None when x is annotated
    with another type."""
    old = fv.get(x)
    if old is None:
        return fv
    return _dropped(fv, x) if _same(old, ty) else None


def _forms(c: Chan, bare: bool) -> dict:
    return {c.name: frozenset({(c.ty, c.active, c.negated, bare)})}


_UNIT = (TOP, _NONE, _NONE, False)


def _node_judgement(s: Term, kids: list):
    cls = type(s)
    if cls is Var:
        return False if s.ty is None else (s.ty, {s.name: s.ty}, _NONE, False)
    if cls is Chan:
        return False if s.ty is None else (s.ty, _NONE, _forms(s, True), False)
    if cls is Unit:
        return _UNIT
    if not all(kids):
        return False
    if cls is ParBind:
        return _session_judgement(s, kids)
    for k in kids:
        if k[3]:  # a mark outside the components of a session
            return False
    if cls is App:
        (fty, fv, fc, _), (aty, afv, afc, _) = kids
        if type(fty) is not Impl or not _same(fty.left, aty):
            return False
        if type(s.fun) is Chan:  # an applied occurrence, not a bare one
            fc = _forms(s.fun, False)
        ty = fty.right
        fv, fc = _vars_joined(fv, afv), _chans_joined(fc, afc)
    elif cls is Lam:
        ((bty, fv, fc, _),) = kids
        fv = _bound(fv, s.var, s.ann)
        ty = Impl(s.ann, bty)
    elif cls is Pair or cls is Contract:
        (lty, fv, fc, _), (rty, rfv, rfc, _) = kids
        if cls is Contract and not _same(lty, rty):
            return False
        ty = Conj(lty, rty) if cls is Pair else lty
        fv, fc = _vars_joined(fv, rfv), _chans_joined(fc, rfc)
    elif cls is Proj:
        ((aty, fv, fc, _),) = kids
        if type(aty) is not Conj:
            return False
        ty = aty.left if s.index == 0 else aty.right
    elif cls is Inj:
        ((aty, fv, fc, _),) = kids
        ty = s.disj
        if type(ty) is not Disj or not _same(ty.left if s.index == 0 else ty.right, aty):
            return False
    elif cls is Case:
        (sty, fv, fc, _), (ty, lfv, lfc, _), (rty, rfv, rfc, _) = kids
        if type(sty) is not Disj or not _same(ty, rty):
            return False
        lfv, rfv = _bound(lfv, s.lvar, sty.left), _bound(rfv, s.rvar, sty.right)
        if lfv is None or rfv is None:
            return False
        fv = _vars_joined(fv, lfv)
        fv = fv if fv is None else _vars_joined(fv, rfv)
        fc = _chans_joined(_chans_joined(fc, lfc), rfc)
    elif cls is Efq:
        ((aty, fv, fc, _),) = kids
        ty = s.target
        if type(ty) not in (Atom, Top) or type(aty) is not Bot:
            return False
    elif cls is Underline:
        ((ty, fv, fc, _),) = kids
        return (ty, fv, fc, True)
    else:
        raise TypeError(f"not a term: {s!r}")
    return False if fv is None else (ty, fv, fc, False)


def _session_judgement(s: ParBind, kids: list):
    """A session checks its arity and its marks, and every form of its
    channel in component i against what the axiom allows there."""
    ax = s.axiom
    if not kids or len(kids) != ax.arity:
        return False
    ty, fv, fc, marks = kids[0][0], _NONE, _NONE, 0
    for i, (kty, kfv, kfc, marked) in enumerate(kids):
        if not _same(ty, kty):
            return False
        marks += marked
        forms = kfc.get(s.chan)
        if forms is not None:
            want, negated = ax.occurrence_type(i), ax.occurrence_negated(i)
            bare_allowed = ax.bare_allowed(i)
            for fty, active, neg, bare in forms:
                if (active != s.active or neg != negated
                        or bare and not bare_allowed or not _same(want, fty)):
                    return False
            kfc = _dropped(kfc, s.chan)
        fv = _vars_joined(fv, kfv)
        if fv is None:
            return False
        fc = _chans_joined(fc, kfc)
    if marks > 1:
        return False
    return (ty, fv, fc, False)
