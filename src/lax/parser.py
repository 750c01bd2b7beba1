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

The parser is hygienic in the same pass: a binder (lambda or case variable,
nu channel) whose name is declared free or already taken by a binder opened
before it takes fresh_name instead, and the occurrences it binds are read as
that name. So no binder shadows a free name and binders are pairwise
distinct, which makes substitution renaming almost never fire.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    ParBind,
    Proj,
    Term,
    TT,
    Underline,
    Var,
    build_tuple,
    fresh_name,
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

# (kind, text, line, col): kind is ident, int, sym or eof, and the eof
# token's text is empty
Token = tuple[str, str, int, int]

# One match per token, after the blanks and the comment before it. Taken
# greedily, they always leave a branch that matches, so no part of them is
# read again as a token and every match ends where the next begins: what no
# other branch takes is one `bad` character, and an input with nothing left
# matches `eof`, empty. [^\W\d] also admits numerals that are not letters
# (², ½); _lex rejects those, since an identifier starts where
# str.isalpha() or _ holds.
_TOKEN = re.compile(
    r"[ \t\r]*(?:\#[^\n]*)?"
    r"(?:(?P<nl>\n)|(?P<int>\d+)|(?P<ident>[^\W\d][\w']*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")"
    r"|(?P<bad>.)|(?P<eof>\Z))",
    re.S,
)


def _lex(text: str) -> list[Token]:
    toks = []
    line, bol = 1, 0  # bol: where the current line begins
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            bol = m.end()
            continue
        if kind == "eof":
            break
        word = m[kind]
        col = m.start(kind) - bol + 1
        if kind == "bad" or kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
            raise LaxSyntaxError(f"unexpected character {word[0]!r}", line, col)
        toks.append((kind, word, line, col))
    # a comment ending the input leaves eof at the column of its #
    end = text.find("#", m.start())
    toks.append(("eof", "", line, (len(text) if end < 0 else end) - bol + 1))
    return toks


class _Parser:
    def __init__(self, text: str, free_names: dict[str, Formula] | set[str] | None):
        self.toks = _lex(text)
        self.i = 0
        self.free_names = set(free_names) if free_names else set()
        # every name a binder has taken, and the declared free names
        self.used = set(self.free_names)
        # innermost binder last: (source name, fresh name, the axiom mode of
        # a channel or None for a variable, whether the session is active)
        self.scopes: list[tuple[str, str, str | None, bool]] = []
        # the channel of each open general session -> how many of its
        # occurrences read so far are not the head of an application
        self.bare: dict[str, int] = {}

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def err(self, msg: str, tok: Token | None = None):
        _, _, line, col = tok or self.peek()
        raise LaxSyntaxError(msg, line, col)

    def eat(self, text: str) -> Token:
        t = self.toks[self.i]
        if t[1] != text:
            self.err(f"expected {text!r}, found {t[1]!r}")
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def eat_ident(self) -> Token:
        t = self.toks[self.i]
        if t[0] != "ident" or t[1] in KEYWORDS:
            self.err(f"expected an identifier, found {t[1]!r}")
        self.i += 1
        return t

    def finish(self, result):
        """result, once the whole input has been read."""
        if self.peek()[0] != "eof":
            self.err(f"trailing input {self.peek()[1]!r}")
        return result

    def bind(self, name: str, mode: str | None = None, active: bool = False) -> str:
        """Open the scope of a binder of name; the name it takes is fresh for
        the declared free names and every binder opened before it."""
        new = fresh_name(name, self.used)
        self.used.add(new)
        self.scopes.append((name, new, mode, active))
        if mode == "general":
            self.bare[new] = 0
        return new

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
        kind, text, _, _ = self.peek()
        if text == "(":
            self.advance()
            f = self.formula()
            self.eat(")")
            return f
        if kind == "ident":
            if text == "Top":
                self.advance()
                return TOP
            if text == "Bot":
                self.advance()
                return BOT
            if text in KEYWORDS:
                self.err(f"{text!r} is reserved")
            self.advance()
            return Atom(text)
        self.err(f"expected a formula, found {text!r}")

    # ---- axiom literals ------------------------------------------------

    def axiom(self) -> AxiomScheme:
        t = self.peek()
        text = t[1]
        try:
            if text == "EM":
                self.advance()
                self.eat("[")
                f = self.formula()
                self.eat("]")
                return em_axiom(f)
            if text == "EMN":
                self.advance()
                self.eat("[")
                f = self.formula()
                self.eat(";")
                kind, count, _, _ = self.peek()
                if kind != "int":
                    self.err("expected a receiver count")
                try:
                    fanout = int(count)
                except ValueError:  # more digits than int() converts
                    self.err("receiver count too large")
                self.advance()
                self.eat("]")
                return broadcast_axiom(f, fanout)
            if text == "C":
                self.advance()
                self.eat("[")
                atoms = [self.f_atom()]
                while self.at(","):
                    self.advance()
                    atoms.append(self.f_atom())
                self.eat("]")
                return cyclic_axiom(atoms)
            if text == "G":
                self.advance()
                self.eat("[")
                a = self.f_atom()
                self.eat(",")
                b = self.f_atom()
                self.eat("]")
                return goedel_axiom(a, b)
            if text == "AX":
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
        self.err(f"expected an axiom literal, found {text!r}")

    def _axiom_component(self) -> tuple[Formula, Formula]:
        tok = self.peek()
        f = self.formula()
        if not isinstance(f, Impl):
            self.err("axiom component must be an implication", tok)
        return (f.left, f.right)

    # ---- terms ---------------------------------------------------------

    def resolve(self, tok: Token) -> Term:
        name = tok[1]
        for source, new, mode, active in reversed(self.scopes):
            if source == name:
                if mode is None:
                    return Var(new)
                if mode == "general":
                    self.bare[new] += 1
                return Chan(new, None, active, False)
        if name.startswith("not") and len(name) > 3:
            base = name[3:]
            for source, new, mode, active in reversed(self.scopes):
                if source == base:
                    if mode is None:
                        break
                    if mode == "general":
                        self.err(
                            f"channel {base!r} has no sender polarity "
                            "(general axiom)", tok,
                        )
                    return Chan(new, None, active, True)
        if name in self.free_names:
            return Var(name)
        self.err(f"unbound identifier {name!r}", tok)

    def term(self) -> Term:
        if self.at("\\"):
            self.advance()
            v = self.eat_ident()[1]
            self.eat(":")
            ann = self.formula()
            self.eat(".")
            name = self.bind(v)
            body = self.term()
            self.scopes.pop()
            return Lam(name, ann, body)
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
            kind, text, _, _ = self.peek()
            if text == "pi0" or text == "pi1":
                self.advance()
                t = Proj(t, 0 if text == "pi0" else 1)
            elif text in self._PRIMARY_STARTS or (
                kind == "ident" and text not in KEYWORDS
            ):
                if type(t) is Chan and t.name in self.bare:
                    self.bare[t.name] -= 1  # an applied occurrence
                t = App(t, self.primary())
            else:
                return t

    def primary(self) -> Term:
        t = self.peek()
        text = t[1]
        if text == "(":
            self.advance()
            inner = self.term()
            self.eat(")")
            return inner
        if text == "<":
            self.advance()
            parts = [self.term()]
            while self.at(","):
                self.advance()
                parts.append(self.term())
            self.eat(">")
            if len(parts) < 2:
                self.err("a pair needs at least two components", t)
            return build_tuple(tuple(parts))
        if text == "tt":
            self.advance()
            return TT
        if text == "inj0" or text == "inj1":
            self.advance()
            self.eat("[")
            disj = self.formula()
            self.eat("]")
            self.eat("(")
            arg = self.term()
            self.eat(")")
            return Inj(0 if text == "inj0" else 1, disj, arg)
        if text == "efq":
            self.advance()
            self.eat("[")
            target = self.formula()
            self.eat("]")
            self.eat("(")
            arg = self.term()
            self.eat(")")
            return Efq(arg, target)
        if text == "case":
            self.advance()
            scrut = self.term()
            self.eat("of")
            self.eat("{")
            lv = self.eat_ident()[1]
            self.eat(".")
            lv = self.bind(lv)
            lbody = self.term()
            self.scopes.pop()
            self.eat("|")
            rv = self.eat_ident()[1]
            self.eat(".")
            rv = self.bind(rv)
            rbody = self.term()
            self.scopes.pop()
            self.eat("}")
            return Case(scrut, lv, lbody, rv, rbody)
        if text == "nu":
            self.advance()
            source = self.eat_ident()[1]
            active = False
            if self.at("*"):
                self.advance()
                active = True
            self.eat(":")
            ax = self.axiom()
            self.eat(".")
            self.eat("[")
            name = self.bind(source, ax.mode, active)
            comps = [self._component()]
            while self.at("||"):
                self.advance()
                comps.append(self._component())
            self.scopes.pop()
            self.eat("]")
            if len(comps) < 2:
                self.err("a session needs at least two components", t)
            if self.bare.pop(name, 0):
                # bare occurrences are only legal for EM/broadcast receivers
                self.err(
                    f"channel {source!r} cannot occur alone; "
                    "apply it to an argument", t,
                )
            return ParBind(name, active, ax, tuple(comps))
        if t[0] == "ident":
            self.advance()
            return self.resolve(t)
        self.err(f"expected a term, found {text!r}")

    def _component(self) -> Term:
        # components are full terms; the brackets delimit them
        if self.at("@"):
            self.advance()
            return Underline(self.term())
        return self.term()


def parse_formula(text: str) -> Formula:
    p = _Parser(text, None)
    return p.finish(p.formula())


def parse_axiom(text: str) -> AxiomScheme:
    p = _Parser(text, None)
    return p.finish(p.axiom())


def parse_term(text: str, free_names: dict[str, Formula] | set[str] | None = None) -> Term:
    p = _Parser(text, free_names)
    return p.finish(p.term())


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
        if name[1] in gamma:
            p.err(f"duplicate free declaration {name[1]!r}", name)
        p.eat(":")
        gamma[name[1]] = p.formula()
        p.eat(";")
    p.free_names = set(gamma)
    p.used = set(gamma)
    return Program(gamma, p.finish(p.term()))
