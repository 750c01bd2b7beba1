"""Single-line term printing. parse_term(show_term(t)) is alpha-equal to t."""

from __future__ import annotations

from .axioms import show_axiom
from .formulas import show_formula
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
    Proj,
    Term,
    Underline,
    Unit,
    Var,
    flatten_pairs,
)

# precedence: 0 lambda body / component, 1 contraction, 2 application spine,
# 3 argument position (primaries only)


def show_term(t: Term, prec: int = 0) -> str:
    """t printed in a context of precedence prec, on an explicit stack: each
    node gives its pieces, strings and (subterm, prec) slots, and a slot is
    expanded in place."""
    out = []
    todo = [(t, prec)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            todo.extend(reversed(_pieces(*piece)))
    return "".join(out)


def _parens(wrap: bool, pieces: list) -> list:
    return ["(", *pieces, ")"] if wrap else pieces


def _between(sep: str, ts) -> list:
    """The slots of ts at precedence 0, with sep between each two."""
    pieces = []
    for t in ts:
        pieces += (sep, (t, 0))
    return pieces[1:]


def _pieces(t: Term, prec: int) -> list:
    """The strings and (subterm, prec) slots that print t, in order."""
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Chan):
        return [("not" + t.name) if t.negated else t.name]
    if isinstance(t, Unit):
        return ["tt"]
    if isinstance(t, Lam):
        return _parens(prec > 0, [f"\\{t.var}:{show_formula(t.ann)}. ", (t.body, 0)])
    if isinstance(t, Contract):
        return _parens(prec > 1, [(t.left, 2), " |+| ", (t.right, 1)])
    if isinstance(t, App):
        return _parens(prec > 2, [(t.fun, 2), " ", (t.arg, 3)])
    if isinstance(t, Proj):
        return _parens(prec > 2, [(t.arg, 2), f" pi{t.index}"])
    if isinstance(t, Pair):
        return ["<", *_between(", ", flatten_pairs(t)), ">"]
    if isinstance(t, Inj):
        return [f"inj{t.index}[{show_formula(t.disj)}](", (t.arg, 0), ")"]
    if isinstance(t, Case):
        return [
            "case ", (t.scrut, 0), f" of {{{t.lvar}. ", (t.lbody, 0),
            f" | {t.rvar}. ", (t.rbody, 0), "}",
        ]
    if isinstance(t, Efq):
        return [f"efq[{show_formula(t.target)}](", (t.arg, 0), ")"]
    if isinstance(t, ParBind):
        star = "*" if t.active else ""
        head = f"nu {t.chan}{star}:{show_axiom(t.axiom)}. ["
        return [head, *_between(" || ", t.comps), "]"]
    if isinstance(t, Underline):
        return ["@", (t.body, 3 if prec > 0 else 0)]
    raise TypeError(f"not a term: {t!r}")
