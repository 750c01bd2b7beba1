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
A context can hold such sessions around the term (TypingContext.sessions),
so a subterm of a component types on its own as it does in place.

check_subject_reduction audits one step by the replacement argument: every
rule reads only the types of its subterms, except that a session reads
whether a component is marked and an application whether its head is a
channel. So when after is before with one subterm replaced, and no such
parent reads the form of that subterm, after has before's type as soon as
the old and the new subterm have one type in the context their path binds.
A step goes through the whole-term judgement only when this does not
settle it, so its failures read exactly as that judgement words them.
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
    children,
    facts,
    free_names,
    node_data,
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
    # channels bound by sessions around the term, as inside component i of
    # each: name -> (scheme, i, the session's activity)
    sessions: _ChanEnv = field(default_factory=dict)


def _fail(code: str, path: Path, msg: str):
    raise TypingError(TypeIssue(code, path, msg))


def _mismatch(path: Path, expected: str, found: str, what: str = ""):
    lead = f"{what}: " if what else ""
    _fail("TypeMismatch", path, f"{lead}expected {expected}, found {found}")


def check(t: Term, ctx: Optional[TypingContext] = None) -> tuple[Term, Formula]:
    """Elaborate and type t; raises TypingError on the first violation."""
    ctx = ctx or TypingContext()
    return _infer(t, dict(ctx.ivars), ctx.sessions, ctx.chans, ())


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


def _judgement(t: Term, key: tuple, ctx: TypingContext) -> list:
    """[key, t's type in ctx or its TypingError, t's free names or None].

    key names ctx in full: a copy of the caller's context and the binders
    the path to t passes. The judgement is remembered on t with key, and
    reused while the context is equal to it; free names are filled in when
    first asked for (_names).
    """
    f = facts(t)
    j = f.judgement
    if j is None or j[0] != key:
        try:
            ty = infer_type(t, ctx)
        except TypingError as e:
            ty = e
        f.judgement = j = [key, ty, None]
    return j


def _names(t: Term, j: list) -> tuple[frozenset[str], frozenset[str]]:
    if j[2] is None:
        j[2] = free_names(t)
    return j[2]


def check_subject_reduction(
    ctx: Optional[TypingContext], before: Term, after: Term
) -> SubjectReductionReport:
    """Type preservation plus no new free names, reported, never raised.

    before is typed whole, unless it is the after of the step checked just
    before in the same context, which leaves its type remembered. after is
    then judged by replacement (_replaced): only the subterm the step
    rewrote is typed, old and new, in the context its path binds. When that
    does not settle the step, both states are judged whole, so a failed
    step reports exactly what a whole-term check reports.

    Along a trace a state's judgement is held until the next step takes it
    up as its before; so is the judgement of the subterm a step wrote, in
    case the next step rewrites that subterm again.
    """
    ctx = ctx or TypingContext()
    key = ((dict(ctx.ivars), dict(ctx.chans), dict(ctx.sessions)), ())
    jb = _judgement(before, key, ctx)
    key, tb = jb[0], jb[1]  # share the remembered copy of the context
    replaced = not isinstance(tb, TypingError) and _replaced(ctx, key, before, after)
    if before is not after:
        facts(before).judgement = None
    if isinstance(tb, TypingError):
        return SubjectReductionReport(False, None, None, f"before does not type: {tb}")
    if replaced:
        fa = facts(after)
        if fa.judgement is None or fa.judgement[0] != key:
            fa.judgement = [key, tb, None]
        return SubjectReductionReport(True, show_formula(tb), show_formula(tb))
    ja = _judgement(after, key, ctx)
    ta = ja[1]
    if isinstance(ta, TypingError):
        return SubjectReductionReport(
            False, show_formula(tb), None, f"after does not type: {ta}"
        )
    if tb != ta:
        return SubjectReductionReport(
            False, show_formula(tb), show_formula(ta), "type changed"
        )
    (fv_after, fc_after), (fv_before, fc_before) = _names(after, ja), _names(before, jb)
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


def _replaced(ctx: TypingContext, key: tuple, before: Term, after: Term) -> bool:
    """True when the replacement argument shows that after, like before
    (which types), has before's type and no free name before lacks.

    The walk goes down from the roots while the two nodes have one
    constructor and equal data and exactly one child differs; it stops at
    the first node where they part. It then climbs past each parent whose
    rule reads more than that node's type: a mark (Underline) is read by
    its session and a channel by the application it heads. Every rule above
    reads only the types of its children, so the old and the new subterm,
    typed in the context the path binds, must have one type, and every free
    name the new one adds must be bound on the path. False only means this
    argument does not settle the step.
    """
    spine, path = [(before, after)], []
    b, a = before, after
    while b is not a and type(b) is type(a) and node_data(b) == node_data(a):
        cb, ca = children(b), children(a)
        if len(cb) != len(ca):
            break
        diff = [i for i in range(len(cb)) if cb[i] is not ca[i]]
        if len(diff) != 1:
            break
        path.append(diff[0])
        b, a = cb[diff[0]], ca[diff[0]]
        spine.append((b, a))
    if b is a:  # before is after
        return True
    d = len(path)
    while d and (
        type(b) is Underline
        or type(a) is Underline
        or (path[d - 1] == 0 and type(spine[d - 1][0]) is App
            and (type(b) is Chan or type(a) is Chan))
    ):
        d -= 1
        b, a = spine[d]

    # the context at the path's end; binders lists what the path binds, in
    # order: (variable, type) and (channel, axiom, component, activity)
    local = TypingContext(dict(ctx.ivars), ctx.chans, dict(ctx.sessions))
    binders: list[tuple] = []
    bound_vars, bound_chans = set(), set()
    for k in range(d):
        node, i = spine[k][0], path[k]
        cls = type(node)
        if cls is Lam:
            x, ty = node.var, node.ann
        elif cls is Case and i:
            st = _judgement(node.scrut, (key[0], tuple(binders)), local)[1]
            if not isinstance(st, Disj):
                return False
            x, ty = (node.lvar, st.left) if i == 1 else (node.rvar, st.right)
        elif cls is ParBind:
            local.sessions[node.chan] = (node.axiom, i, node.active)
            binders.append((node.chan, node.axiom, i, node.active))
            bound_chans.add(node.chan)
            continue
        else:
            continue
        local.ivars[x] = ty
        binders.append((x, ty))
        bound_vars.add(x)

    key = (key[0], tuple(binders))
    jb, ja = _judgement(b, key, local), _judgement(a, key, local)
    facts(b).judgement = None  # b is not in after
    if isinstance(jb[1], TypingError) or jb[1] != ja[1]:
        return False
    (fv_b, fc_b), (fv_a, fc_a) = _names(b, jb), _names(a, ja)
    return fv_a - fv_b <= bound_vars and fc_a - fc_b <= bound_chans
