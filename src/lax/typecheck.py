"""Type checking and elaboration.

Every typing rule is stated once, per node, in _node_judgement: a node's
judgement (its type, free names and mark) is made from its children's
alone, so it needs no context and each node remembers its own.

check() walks the term once, on an explicit stack. Going down, it carries
the variables and session channels in scope and makes the only checks that
need them: a variable against its binder, and a channel occurrence against
its session's (axiom, component, activity), by the form test the session
rule uses too. It elaborates as it goes: every variable and channel
occurrence comes back carrying its type, and a subterm that is elaborated
already comes back as it is. Going up, it rebuilds a node only when a child
changed and keeps the node's judgement, from which type_of reads a type
with no environment. The first violation is the one the rules meet first,
each child's constraint right after that child (see _raise).

Channel occurrences are the delicate part. Inside component i of a session
the channel must appear exactly as the axiom dictates: sender polarity and
application for the first EM/broadcast component, bare uses for the
receiving components, and applied non-negated occurrences typed
F_i -> G_i in the general mode, where bare channels are not terms at all.

check_subject_reduction audits one step from the judgements: check judged
the initial state, and a step rebuilds only the path to its redex and the
contractum, so judging the state after costs the nodes the step built.
When both states' judgements hold in the context, agree on the type and
after has no free name before lacks, the step passes; otherwise both states
are checked whole, so a failure reads exactly as check words it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import NamedTuple, Optional

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
    facts_of,
    free_names,
    remembered,
    with_children,
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


_CDV = "ChannelDisciplineViolation"
_OUTSIDE = "component mark outside a session"


def check(t: Term, ctx: Optional[TypingContext] = None) -> tuple[Term, Formula]:
    """Elaborate and type t; raises TypingError on the first violation."""
    ctx = ctx or TypingContext()
    env = dict(ctx.ivars)  # the variables in scope, with their types
    scopes: _ChanEnv = {}  # the session channels in scope
    # one frame per node entered and not finished: [node, its children,
    # their judgements and elaborations so far, the binding to undo when
    # the child entered returns, the channel the node applies if it must]
    frames: list = []
    node = t
    while True:
        cls = type(node)
        if cls is Var:
            ty = env.get(node.name)
            if ty is None:
                _raise(frames, "UnboundName", f"unbound variable {node.name!r}")
            out = node if node.ty is ty else Var(node.name, ty)
        elif cls is Chan:
            out = _chan(node, scopes, ctx.chans, frames)
        elif cls is Unit:
            out = node
        else:
            if cls is Underline:
                if not frames or type(frames[-1][0]) is not ParBind:
                    _raise(frames, _CDV, _OUTSIDE)
                if type(node.body) is Underline:
                    _raise(frames, _CDV, "nested component marks")
            applied = None
            if cls is App and type(node.fun) is Chan:
                scope = scopes.get(node.fun.name)
                if scope is not None and not scope[0].bare_allowed(scope[1]):
                    applied = node.fun.name
            frames.append([node, children(node), [], [], None, applied])
            if cls is ParBind and len(node.comps) != node.axiom.arity:
                _raise(frames)  # before a component is entered
            out = None
        if out is not None:
            j = _kept(out, ())
        # hand out up, finish every frame whose children are all done, and
        # enter the next child
        while True:
            if out is not None:
                if not frames:
                    return out, j[0]
                frame = frames[-1]
                if frame[4] is not None:  # the child's binding goes
                    scope, name, old = frame[4]
                    scope[name], frame[4] = old, None
                frame[2].append(j)
                frame[3].append(out)
            frame = frames[-1]
            s, cs, kids, elab = frame[0], frame[1], frame[2], frame[3]
            k = len(kids)
            if k < len(cs):
                cls = type(s)
                if cls is Lam:
                    frame[4] = _bind(env, s.var, s.ann)
                elif cls is Case and k:
                    sty = kids[0][0]
                    if type(sty) is not Disj:
                        _raise(frames)  # the scrutinee's rule
                    if k == 1:
                        frame[4] = _bind(env, s.lvar, sty.left)
                    else:
                        frame[4] = _bind(env, s.rvar, sty.right)
                elif cls is ParBind:
                    frame[4] = _bind(scopes, s.chan, (s.axiom, k, s.active))
                node = cs[k]
                break
            if not all(map(is_, elab, cs)):
                s = frame[0] = with_children(s, tuple(elab))
            j = _kept(s, kids)
            if not j:
                _raise(frames)
            frames.pop()
            out = s


def infer_type(t: Term, ctx: Optional[TypingContext] = None) -> Formula:
    return check(t, ctx)[1]


def _bind(scope: dict, name: str, value) -> tuple:
    """Bind name to value in scope; what undoes it (None is no binding)."""
    old = scope.get(name)
    scope[name] = value
    return scope, name, old


def _kept(s: Term, kids) -> object:
    """The judgement of s, made from kids and kept if s has none yet."""
    facts = facts_of(s)
    if facts.judgement is None:
        facts.judgement = _node_judgement(s, kids)
    return facts.judgement


def _chan(c: Chan, scopes: _ChanEnv, free: dict, frames: list) -> Chan:
    """The occurrence c typed in the scope of the sessions in scopes and
    the free channels free."""
    name = c.name
    scope = scopes.get(name)
    if scope is not None:
        ax, i, active = scope
        # the head of an application is an applied occurrence
        bare = not frames or type(frames[-1][0]) is not App or bool(frames[-1][2])
        why = _misplaced(name, ax, i, active, (c.ty, c.active, c.negated, bare))
        if why:
            _raise(frames, _CDV, why)
        ty = ax.occurrence_type(i)
        return c if c.ty is ty else Chan(name, ty, c.active, c.negated)
    ty = free.get(name)
    if ty is None:
        _raise(frames, "UnboundName", f"unbound channel {name!r}")
    if c.negated:
        _raise(frames, _CDV, f"free channel {name} has no sender polarity")
    return c if c.ty is ty else Chan(name, ty, c.active, False)


def _misplaced(name: str, ax: AxiomScheme, i: int, active: bool, form) -> Optional[str]:
    """Why an occurrence of the channel name of this form (type, activity,
    sender polarity, bare) may not stand in component i of its session, on
    ax with activity active; None when it may."""
    _, occ_active, negated, bare = form
    if occ_active != active:
        return f"occurrence of {name} has activity {occ_active}, binder says {active}"
    if negated != ax.occurrence_negated(i):
        want = "sender (not-) polarity" if ax.occurrence_negated(i) else "plain polarity"
        return f"occurrence of {name} in component {i} must have {want}"
    if bare and not ax.bare_allowed(i):
        return f"channel {name} cannot occur alone in component {i}"
    return None


def _raise(frames: list, code: str = "", message: str = ""):
    """Raise the first violation: the typing rules read outside in and
    left to right, each child's constraint right after that child, so it
    is the first refusal of a node on the stack, outermost first, asked of
    the children it has judged; when none refuses, code and message at
    the node being entered. The path is read off the stack, where the mark
    of a session component is not a level of its own."""
    path = []
    for s, _, kids, _, _, applied in frames:
        r = _node_judgement(s, kids)
        if type(r) is _Refusal:
            if r.child is not None:
                path.append(r.child)
            code, message = r.code, r.message
            if applied is not None and r.child == 1:  # names the channel
                message = message.replace("argument", f"argument of channel {applied}", 1)
            break
        if type(s) is not Underline:  # a component's mark adds no level
            path.append(len(kids))
    raise TypingError(TypeIssue(code, tuple(path), message))


# ---------------------------------------------------------------------------
# subject reduction

@dataclass(frozen=True)
class SubjectReductionReport:
    """A step's verdict and the types of its two states, where they type;
    type_before and type_after print them when read."""

    ok: bool
    ty_before: Optional[Formula]
    ty_after: Optional[Formula]
    message: str = ""

    @property
    def type_before(self) -> Optional[str]:
        return None if self.ty_before is None else show_formula(self.ty_before)

    @property
    def type_after(self) -> Optional[str]:
        return None if self.ty_after is None else show_formula(self.ty_after)


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
        and jb[0] is ja[0]
        and ja[1].keys() <= jb[1].keys()
        and ja[2].keys() <= jb[2].keys()
    ):
        return SubjectReductionReport(True, jb[0], jb[0])
    try:
        tb = infer_type(before, ctx)
    except TypingError as e:
        return SubjectReductionReport(False, None, None, f"before does not type: {e}")
    try:
        ta = infer_type(after, ctx)
    except TypingError as e:
        return SubjectReductionReport(False, tb, None, f"after does not type: {e}")
    if tb is not ta:
        return SubjectReductionReport(False, tb, ta, "type changed")
    (fv_before, fc_before), (fv_after, fc_after) = free_names(before), free_names(after)
    new = (fv_after - fv_before) | (fc_after - fc_before)
    if new:
        return SubjectReductionReport(
            False, tb, ta, f"new free names appeared: {sorted(new)}"
        )
    return SubjectReductionReport(True, tb, ta)


# ---------------------------------------------------------------------------
# judgements: the typing rules, one node at a time, in no context
#
# A node's judgement is (its type, its free variables, its free channels,
# whether it is a component mark), or a _Refusal. Each free variable maps
# to the type its occurrences are annotated with, and each free channel to
# the set of its occurrence forms (type, activity, sender polarity, bare).
# A node reads its occurrences' annotations where check reads its scope: a
# binder checks what its occurrences say against what it binds, then drops
# the name. A refusal below is the node's, and an unelaborated occurrence
# is refused.
#
# So a judgement that holds in a context (_holds: each free name as the
# context types it, no mark at the root) is what check gives there. An
# annotation that disagrees with the context can only make it fail.

class _Refusal(NamedTuple):
    """A failed judgement: the violation's code, the child it is reported
    at (None for the node itself) and its message. False, as a truth
    value."""

    code: str
    child: Optional[int]
    message: str

    def __bool__(self) -> bool:
        return False


_NONE: dict = {}  # the empty map, shared


def type_of(t: Term) -> Formula:
    """Type of an elaborated term, read off its judgement. No environment:
    occurrences carry types. ValueError when the judgement refuses t."""
    j = _judgement(t)
    if not j:
        raise ValueError(f"type_of on a term that does not type: {j.message}")
    return j[0]


def free_names_of(t: Term) -> tuple[dict, dict]:
    """(free variables, free channels) of an elaborated term, two maps
    keyed by name, read off its judgement; ValueError as for type_of."""
    j = _judgement(t)
    if not j:
        raise ValueError(f"free_names_of on a term that does not type: {j.message}")
    return j[1], j[2]


def has_type(t: Term) -> bool:
    """t's judgement holds in some context, so type_of reads t and each
    subterm of it."""
    return bool(_judgement(t))


def types_in(t: Term, ctx: TypingContext) -> bool:
    """t's judgement holds in ctx: check(t, ctx) gives t back, typed
    type_of(t)."""
    return _holds(_judgement(t), ctx)


def require_type(t: Term) -> None:
    """Refuse t unless its judgement holds in some context: a TypingError
    with the refusal's code and message, at the node that makes it (a
    component's mark is no level, as in check). A checked term pays one
    remembered read."""
    if _judgement(t):
        return
    path = []
    while True:  # down to the first refused child, while there is one
        i = next((i for i, c in enumerate(children(t)) if not _judgement(c)), None)
        if i is None:
            break
        if type(t) is not Underline:
            path.append(i)
        t = children(t)[i]
    r = _judgement(t)
    if r.child is not None:
        path.append(r.child)
    raise TypingError(TypeIssue(r.code, tuple(path), r.message))


def _judgement(t: Term):
    return remembered(t, "judgement", _node_judgement)


def _holds(j, ctx: TypingContext) -> bool:
    """The judgement j says t types in ctx."""
    if not j or j[3]:
        return False
    for x, ty in j[1].items():
        want = ctx.ivars.get(x)
        if want is None or want is not ty:
            return False
    for a, forms in j[2].items():
        want = ctx.chans.get(a)
        if want is None:
            return False
        for ty, _, negated, _ in forms:
            if negated or want is not ty:
                return False
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
        elif old is not ty:
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
    return _dropped(fv, x) if old is ty else None


def _forms(c: Chan, bare: bool) -> dict:
    return {c.name: frozenset({(c.ty, c.active, c.negated, bare)})}


def _mismatch(child: Optional[int], expected: str, found: str, what: str = "") -> _Refusal:
    lead = f"{what}: " if what else ""
    return _Refusal("TypeMismatch", child, f"{lead}expected {expected}, found {found}")


_UNIT = (TOP, _NONE, _NONE, False)
_UNELABORATED = _Refusal("TypeMismatch", None, "an occurrence carries no type")
_TWO_TYPES = _Refusal("TypeMismatch", None, "a variable annotated with two types")


def _node_judgement(s: Term, kids):
    """The judgement of s from its children's, kids, or the refusal of the
    first check that fails, each child's constraint right after that
    child. kids may judge only the first children (see _raise): then the
    checks those settle are made, and None says they pass."""
    cls = type(s)
    if cls is Var:
        return _UNELABORATED if s.ty is None else (s.ty, {s.name: s.ty}, _NONE, False)
    if cls is Chan:
        return _UNELABORATED if s.ty is None else (s.ty, _NONE, _forms(s, True), False)
    if cls is Unit:
        return _UNIT
    if not all(kids):
        return next(k for k in kids if not k)
    if cls is ParBind:
        return _session_judgement(s, kids)
    for i, k in enumerate(kids):
        if k[3]:  # a mark outside the components of a session
            return _Refusal(_CDV, i, _OUTSIDE)
    n = len(kids)
    if cls is App:
        if not n:
            return None
        fty = kids[0][0]
        if type(fty) is not Impl:
            return _mismatch(0, "a function type", show_formula(fty))
        if n == 1:
            return None
        (_, fv, fc, _), (aty, afv, afc, _) = kids
        if fty.left is not aty:
            return _mismatch(1, show_formula(fty.left), show_formula(aty), "argument")
        if type(s.fun) is Chan:  # an applied occurrence, not a bare one
            fc = _forms(s.fun, False)
        ty = fty.right
        fv, fc = _vars_joined(fv, afv), _chans_joined(fc, afc)
    elif cls is Lam:
        if not n:
            return None
        ((bty, fv, fc, _),) = kids
        fv = _bound(fv, s.var, s.ann)
        ty = Impl(s.ann, bty)
    elif cls is Pair or cls is Contract:
        if n < 2:
            return None
        (lty, fv, fc, _), (rty, rfv, rfc, _) = kids
        if cls is Contract and lty is not rty:
            return _mismatch(1, show_formula(lty), show_formula(rty), "contraction")
        ty = Conj(lty, rty) if cls is Pair else lty
        fv, fc = _vars_joined(fv, rfv), _chans_joined(fc, rfc)
    elif cls is Proj:
        if not n:
            return None
        ((aty, fv, fc, _),) = kids
        if type(aty) is not Conj:
            return _mismatch(0, "a conjunction", show_formula(aty), "projection")
        ty = aty.left if s.index == 0 else aty.right
    elif cls is Inj:
        ty = s.disj
        if type(ty) is not Disj:
            return _mismatch(None, "a disjunction annotation", show_formula(ty))
        if not n:
            return None
        ((aty, fv, fc, _),) = kids
        want = ty.left if s.index == 0 else ty.right
        if want is not aty:
            return _mismatch(0, show_formula(want), show_formula(aty),
                             f"inj{s.index} argument")
    elif cls is Case:
        if not n:
            return None
        sty = kids[0][0]
        if type(sty) is not Disj:
            return _mismatch(0, "a disjunction", show_formula(sty), "case scrutinee")
        if n < 3:
            return None
        (_, fv, fc, _), (ty, lfv, lfc, _), (rty, rfv, rfc, _) = kids
        if ty is not rty:
            return _mismatch(2, show_formula(ty), show_formula(rty), "case branches")
        lfv, rfv = _bound(lfv, s.lvar, sty.left), _bound(rfv, s.rvar, sty.right)
        if lfv is None or rfv is None:
            return _TWO_TYPES
        fv = _vars_joined(fv, lfv)
        fv = fv if fv is None else _vars_joined(fv, rfv)
        fc = _chans_joined(_chans_joined(fc, lfc), rfc)
    elif cls is Efq:
        ty = s.target
        if type(ty) is not Atom and type(ty) is not Top:
            return _Refusal("EfqTargetNotAtomic", None,
                            f"efq target must be an atom or Top, got {show_formula(ty)}")
        if not n:
            return None
        ((aty, fv, fc, _),) = kids
        if type(aty) is not Bot:
            return _mismatch(0, "Bot", show_formula(aty), "efq argument")
    elif cls is Underline:
        if not n:
            return None
        ((ty, fv, fc, _),) = kids
        return (ty, fv, fc, True)
    else:
        raise TypeError(f"not a term: {s!r}")
    return _TWO_TYPES if fv is None else (ty, fv, fc, False)


def _session_judgement(s: ParBind, kids):
    """A session checks its arity, every component's type against the
    first's and every form of its channel in component i against what the
    axiom allows there, and, once all are judged, that at most one is
    marked."""
    ax, name = s.axiom, s.chan
    if len(s.comps) != ax.arity:
        return _Refusal(_CDV, None, f"axiom {ax} wants {ax.arity} components, "
                                    f"got {len(s.comps)}")
    fv, fc, marks = _NONE, _NONE, 0
    for i, (kty, kfv, kfc, marked) in enumerate(kids):
        ty = kids[0][0]
        if ty is not kty:
            return _mismatch(i, show_formula(ty), show_formula(kty),
                             f"component {i} of session {name}")
        marks += marked
        forms = kfc.get(name)
        if forms is not None:
            want = ax.occurrence_type(i)
            for form in forms:
                why = _misplaced(name, ax, i, s.active, form)
                if why or want is not form[0]:
                    return _Refusal(_CDV, i, why or f"occurrence of {name} in "
                                    f"component {i} not typed {show_formula(want)}")
            kfc = _dropped(kfc, name)
        fv = _vars_joined(fv, kfv)
        if fv is None:
            return _TWO_TYPES
        fc = _chans_joined(fc, kfc)
    if len(kids) < len(s.comps):
        return None
    if marks > 1:
        return _Refusal(_CDV, None, "more than one marked component")
    return (kids[0][0], fv, fc, False)
