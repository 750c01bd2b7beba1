"""Hand-rolled lexer and recursive-descent parser for the surface syntax.

Formulas:  A, Top, Bot, ~F, F -> G, F /\\ G, F \\/ G
Terms:     \\x:F. t   t u   <t, u>   t pi0   t pi1   inj0[F](t)   inj1[F](t)
           case t of {x. u | y. v}   efq[P](t)   tt
           nu a:AX. [t1 || t2 || ...]   (active binders: nu a*:AX. [...])
           t1 |+| t2   @t (component mark)
Axioms:    EM[A]   EMN[A;3]   C[A,B,C]   G[A,B]   AX{A->B, B->C}
           AX!{...} is the engine-minted form and skips the user-level
           shape checks.

`nota` resolves to the sender polarity of an enclosing EM/broadcast binder
for channel a (innermost exact binding of the whole identifier wins, so a
lambda-bound `nota` stays an ordinary variable).

Program files may open with `free NAME : FORMULA ;` declarations and may
contain `#` line comments. Identifiers that are neither bound nor declared
free are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_

from .axioms import (
    AxiomScheme,
    AxiomValidationError,
    broadcast_axiom,
    cyclic_axiom,
    em_axiom,
    general_axiom,
    goedel_axiom,
)
from .formulas import Atom, BOT, Conj, Disj, Formula, Impl, TOP, neg
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
    TT,
    Underline,
    Var,
    binder,
    chan_occurrences,
    children,
    free_names,
    fresh_name,
    rebind,
    with_children,
)


class LaxSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = {"free", "case", "of", "tt", "nu", "pi0", "pi1", "inj0", "inj1", "efq"}

# longest first so |+| wins over || wins over |
_SYMBOLS = [
    "|+|", "||", "->", "/\\", "\\/",
    "(", ")", "[", "]", "{", "}", "<", ">",
    ",", ".", ":", ";", "|", "~", "\\", "@", "*", "!",
]


@dataclass
class _Tok:
    kind: str  # ident | int | sym | eof
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Tok("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LaxSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str, free_names: dict[str, Formula] | set[str] | None):
        self.toks = _lex(text)
        self.i = 0
        self.free_names = set(free_names) if free_names else set()
        # innermost scope last; entries: name -> ("var",) | ("chan", mode, active)
        self.scopes: list[dict[str, tuple]] = []

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def advance(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise LaxSyntaxError(msg, tok.line, tok.col)

    def eat(self, text: str) -> _Tok:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            self.err(f"expected {text!r}, found {t.text!r}")
        return self.advance()

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def eat_ident(self) -> _Tok:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            self.err(f"expected an identifier, found {t.text!r}")
        return self.advance()

    # ---- formulas ------------------------------------------------------

    def formula(self) -> Formula:
        left = self.f_disj()
        if self.at("->"):
            self.advance()
            return Impl(left, self.formula())
        return left

    def f_disj(self) -> Formula:
        left = self.f_conj()
        if self.at("\\/"):
            self.advance()
            return Disj(left, self.f_disj())
        return left

    def f_conj(self) -> Formula:
        left = self.f_unary()
        if self.at("/\\"):
            self.advance()
            return Conj(left, self.f_conj())
        return left

    def f_unary(self) -> Formula:
        if self.at("~"):
            self.advance()
            return neg(self.f_unary())
        return self.f_atom()

    def f_atom(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.advance()
            f = self.formula()
            self.eat(")")
            return f
        if t.kind == "ident":
            if t.text == "Top":
                self.advance()
                return TOP
            if t.text == "Bot":
                self.advance()
                return BOT
            if t.text in KEYWORDS:
                self.err(f"{t.text!r} is reserved")
            self.advance()
            return Atom(t.text)
        self.err(f"expected a formula, found {t.text!r}")

    # ---- axiom literals ------------------------------------------------

    def axiom(self) -> AxiomScheme:
        t = self.peek()
        try:
            if t.text == "EM":
                self.advance()
                self.eat("[")
                f = self.formula()
                self.eat("]")
                return em_axiom(f)
            if t.text == "EMN":
                self.advance()
                self.eat("[")
                f = self.formula()
                self.eat(";")
                ntok = self.peek()
                if ntok.kind != "int":
                    self.err("expected a receiver count")
                try:
                    fanout = int(ntok.text)
                except ValueError:  # more digits than int() converts
                    self.err("receiver count too large")
                self.advance()
                self.eat("]")
                return broadcast_axiom(f, fanout)
            if t.text == "C":
                self.advance()
                self.eat("[")
                atoms = [self.f_atom()]
                while self.at(","):
                    self.advance()
                    atoms.append(self.f_atom())
                self.eat("]")
                return cyclic_axiom(atoms)
            if t.text == "G":
                self.advance()
                self.eat("[")
                a = self.f_atom()
                self.eat(",")
                b = self.f_atom()
                self.eat("]")
                return goedel_axiom(a, b)
            if t.text == "AX":
                self.advance()
                derived = False
                if self.at("!"):
                    self.advance()
                    derived = True
                self.eat("{")
                comps = [self._axiom_component()]
                while self.at(","):
                    self.advance()
                    comps.append(self._axiom_component())
                self.eat("}")
                return general_axiom(tuple(comps), derived=derived)
        except AxiomValidationError as e:
            self.err(str(e), t)
        self.err(f"expected an axiom literal, found {t.text!r}")

    def _axiom_component(self) -> tuple[Formula, Formula]:
        tok = self.peek()
        f = self.formula()
        if not isinstance(f, Impl):
            self.err("axiom component must be an implication", tok)
        return (f.left, f.right)

    # ---- terms ---------------------------------------------------------

    def resolve(self, name: str, tok: _Tok) -> Term:
        for scope in reversed(self.scopes):
            if name in scope:
                entry = scope[name]
                if entry[0] == "var":
                    return Var(name)
                _, mode, active = entry
                return Chan(name, None, active, False)
        if name.startswith("not") and len(name) > 3:
            base = name[3:]
            for scope in reversed(self.scopes):
                if base in scope:
                    entry = scope[base]
                    if entry[0] == "chan":
                        _, mode, active = entry
                        if mode == "general":
                            self.err(
                                f"channel {base!r} has no sender polarity "
                                "(general axiom)", tok,
                            )
                        return Chan(base, None, active, True)
                    break
        if name in self.free_names:
            return Var(name)
        self.err(f"unbound identifier {name!r}", tok)

    def term(self) -> Term:
        if self.at("\\"):
            self.advance()
            v = self.eat_ident()
            self.eat(":")
            ann = self.formula()
            self.eat(".")
            self.scopes.append({v.text: ("var",)})
            body = self.term()
            self.scopes.pop()
            return Lam(v.text, ann, body)
        return self.contract()

    def contract(self) -> Term:
        left = self.juxt()
        if self.at("|+|"):
            self.advance()
            return Contract(left, self.contract())
        return left

    _PRIMARY_STARTS = {"(", "<", "tt", "inj0", "inj1", "case", "efq", "nu"}

    def juxt(self) -> Term:
        t = self.primary()
        while True:
            nxt = self.peek()
            if nxt.text in ("pi0", "pi1") and nxt.kind == "ident":
                self.advance()
                t = Proj(t, 0 if nxt.text == "pi0" else 1)
            elif nxt.text in self._PRIMARY_STARTS or (
                nxt.kind == "ident" and nxt.text not in KEYWORDS
            ):
                t = App(t, self.primary())
            else:
                return t

    def primary(self) -> Term:
        t = self.peek()
        if t.text == "(":
            self.advance()
            inner = self.term()
            self.eat(")")
            return inner
        if t.text == "<":
            self.advance()
            parts = [self.term()]
            while self.at(","):
                self.advance()
                parts.append(self.term())
            self.eat(">")
            if len(parts) < 2:
                self.err("a pair needs at least two components", t)
            acc = parts[-1]
            for u in reversed(parts[:-1]):
                acc = Pair(u, acc)
            return acc
        if t.text == "tt":
            self.advance()
            return TT
        if t.text in ("inj0", "inj1"):
            self.advance()
            self.eat("[")
            disj = self.formula()
            self.eat("]")
            self.eat("(")
            arg = self.term()
            self.eat(")")
            return Inj(0 if t.text == "inj0" else 1, disj, arg)
        if t.text == "efq":
            self.advance()
            self.eat("[")
            target = self.formula()
            self.eat("]")
            self.eat("(")
            arg = self.term()
            self.eat(")")
            return Efq(arg, target)
        if t.text == "case":
            self.advance()
            scrut = self.term()
            self.eat("of")
            self.eat("{")
            lv = self.eat_ident()
            self.eat(".")
            self.scopes.append({lv.text: ("var",)})
            lbody = self.term()
            self.scopes.pop()
            self.eat("|")
            rv = self.eat_ident()
            self.eat(".")
            self.scopes.append({rv.text: ("var",)})
            rbody = self.term()
            self.scopes.pop()
            self.eat("}")
            return Case(scrut, lv.text, lbody, rv.text, rbody)
        if t.text == "nu":
            self.advance()
            name = self.eat_ident()
            active = False
            if self.at("*"):
                self.advance()
                active = True
            self.eat(":")
            ax = self.axiom()
            self.eat(".")
            self.eat("[")
            self.scopes.append({name.text: ("chan", ax.mode, active)})
            comps = [self._component()]
            while self.at("||"):
                self.advance()
                comps.append(self._component())
            self.scopes.pop()
            self.eat("]")
            if len(comps) < 2:
                self.err("a session needs at least two components", t)
            bind = ParBind(name.text, active, ax, tuple(comps))
            self._check_channel_applied(bind, t)
            return bind
        if t.kind == "ident":
            self.advance()
            return self.resolve(t.text, t)
        self.err(f"expected a term, found {t.text!r}")

    def _component(self) -> Term:
        if self.at("@"):
            self.advance()
            return Underline(self.juxt_or_term())
        return self.juxt_or_term()

    def juxt_or_term(self) -> Term:
        # components are full terms; the brackets delimit them
        return self.term()

    def _check_channel_applied(self, bind: ParBind, tok: _Tok) -> None:
        """Bare occurrences are only legal for EM/broadcast receivers."""
        if bind.axiom.mode == "general" and any(
            occ.app_path is None
            for comp in bind.comps
            for occ in chan_occurrences(comp, bind.chan)
        ):
            self.err(
                f"channel {bind.chan!r} cannot occur alone; "
                "apply it to an argument", tok,
            )


# ---------------------------------------------------------------------------
# hygiene: after parsing, bound names never shadow free names, and binders
# are pairwise distinct (makes substitution renaming almost never fire)

def _hygiene(t: Term, used: set[str]) -> Term:
    cs = children(t)
    new = []
    handled = set()  # a nu's binder is over every component; rename it once
    for i in range(len(cs)):
        b = binder(t, i)
        if b is not None and b not in handled:
            handled.add(b)
            name = getattr(t, b[0])
            if name in used:
                name = fresh_name(name, used)
                t = rebind(t, i, name)
                cs = children(t)
            used.add(name)
        new.append(_hygiene(cs[i], used))
    if all(map(is_, new, cs)):
        return t
    return with_children(t, tuple(new))


def parse_formula(text: str) -> Formula:
    p = _Parser(text, None)
    f = p.formula()
    if p.peek().kind != "eof":
        p.err(f"trailing input {p.peek().text!r}")
    return f


def parse_axiom(text: str) -> AxiomScheme:
    p = _Parser(text, None)
    ax = p.axiom()
    if p.peek().kind != "eof":
        p.err(f"trailing input {p.peek().text!r}")
    return ax


def _hygienic_term(p: _Parser) -> Term:
    """The term that runs to the end of p's input, renamed so that no binder
    shadows a free name of the term or a name p declares free."""
    t = p.term()
    if p.peek().kind != "eof":
        p.err(f"trailing input {p.peek().text!r}")
    return _hygiene(t, p.free_names.union(*free_names(t)))


def parse_term(text: str, free_names: dict[str, Formula] | set[str] | None = None) -> Term:
    return _hygienic_term(_Parser(text, free_names))


@dataclass(frozen=True)
class Program:
    gamma: dict[str, Formula]
    term: Term


def parse_program(text: str) -> Program:
    """`free NAME : FORMULA ;` declarations followed by one term."""
    p = _Parser(text, None)
    gamma: dict[str, Formula] = {}
    while p.at("free"):
        p.advance()
        name = p.eat_ident()
        if name.text in gamma:
            p.err(f"duplicate free declaration {name.text!r}", name)
        p.eat(":")
        gamma[name.text] = p.formula()
        p.eat(";")
    p.free_names = set(gamma)
    return Program(gamma, _hygienic_term(p))
