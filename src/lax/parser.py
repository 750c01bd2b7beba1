"""Lexer and loop parser for the surface syntax.

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

The parser reads token texts only. An ASCII text is split into them by one
findall; any other text goes through the positional lexer (_lex). Token
positions are computed only when an error is raised: the positional lexer
runs then, raises first if a character does not lex, and gives the line
and column of the token the error is reported at. Nothing recurses with
the nesting of the input: formulas are read by precedence climbing on an
explicit operator stack, terms by one loop over an explicit stack of the
constructs entered and not yet finished.

The parser is hygienic in the same pass: a binder (lambda or case variable,
nu channel) whose name is declared free or already taken by a binder opened
before it takes the next fresh name instead (as terms.fresh_name picks it),
and the occurrences it binds are read as that name. So no binder shadows a
free name and binders are pairwise distinct, which makes substitution
renaming almost never fire.
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


# The token texts of an ASCII text, its comments and any character that
# starts no token: an identifier, a symbol no other symbol extends (one
# class), the symbols that share a prefix (longest first), an integer, a
# comment, or one character. Blanks start no match and are skipped. A
# character that starts no token never makes a token the parser accepts, so
# a text that parses has none and every other text raises _lex's error.
_SHARED = [s for s in _SYMBOLS if len(s) > 1 or any(o.startswith(s) for o in _SYMBOLS if o != s)]
_WORD = re.compile(
    r"[A-Za-z_][\w']*"
    r"|[" + re.escape("".join(s for s in _SYMBOLS if s not in _SHARED)) + "]"
    r"|" + "|".join(map(re.escape, _SHARED)) + r"|\d+|\#[^\n]*|[^ \t\r\n]"
)


def _words(text: str) -> list[str]:
    """The texts of text's tokens, ending with eof's empty text."""
    if not text.isascii():
        return [tok[1] for tok in _lex(text)]
    words = _WORD.findall(text)
    if "#" in text:
        words = [w for w in words if w[0] != "#"]
    words.append("")
    return words


# binary connectives: (binding strength, constructor); all associate right
_BINARY = {"->": (1, Impl), "\\/": (2, Disj), "/\\": (3, Conj)}

# the frames of the term loop, by what they wait for: a join's right
# operand and a λ's body (the two that a term closes when it ends), an
# application's argument, a parenthesised term, a pair's components, an
# injection's or efq's argument, a case's scrutinee and branches, a
# component under its mark, and a session's components
_JOIN, _LAM, _APP, _PAREN, _PAIR, _INJ, _EFQ, _CASE, _MARK, _SESSION = range(10)

# the frame each token that opens a construct pushes
_STARTS = {
    "\\": _LAM, "(": _PAREN, "<": _PAIR, "inj0": _INJ, "inj1": _INJ,
    "efq": _EFQ, "case": _CASE, "nu": _SESSION,
}

# whether a symbol or keyword starts an application's argument, which any
# other identifier does
_ARGUMENT = dict.fromkeys(_SYMBOLS + list(KEYWORDS), False)
_ARGUMENT.update(dict.fromkeys(_STARTS.keys() - {"\\"} | {"tt"}, True))


class _Parse:
    def __init__(self, text: str, free_names: dict[str, Formula] | set[str] | None):
        self.text = text
        self.words = _words(text)
        self.free_names = set(free_names) if free_names else set()
        # every name a binder has taken, and the declared free names
        self.used = set(self.free_names)
        # the suffix fresh names of each base start from: used only grows,
        # so every smaller suffix is taken already
        self.suffix: dict[str, int] = {}
        # source name -> its open binders, innermost last: (fresh name, the
        # axiom mode of a channel or None for a variable, whether the
        # session is active)
        self.scopes: dict[str, list[tuple[str, str | None, bool]]] = {}
        # the channel of each open general session -> how many of its
        # occurrences read so far are not the head of an application
        self.bare: dict[str, int] = {}
        # the atoms read so far and the constants, by their text
        self.atoms: dict[str, Formula] = {"Top": TOP, "Bot": BOT}

    def fail(self, message: str, i: int):
        """Raise message at the i-th token; first _lex's error, if any."""
        _, _, line, col = _lex(self.text)[i]
        raise LaxSyntaxError(message, line, col)

    def expect(self, text: str, i: int) -> int:
        """The index after the i-th token, which must read text."""
        if self.words[i] != text:
            self.fail(f"expected {text!r}, found {self.words[i]!r}", i)
        return i + 1

    def name(self, i: int) -> str:
        """The i-th token, which must be an identifier."""
        w = self.words[i]
        if w in KEYWORDS or not (w[:1].isalpha() or w[:1] == "_"):
            self.fail(f"expected an identifier, found {w!r}", i)
        return w

    def finish(self, i: int) -> None:
        if self.words[i]:
            self.fail(f"trailing input {self.words[i]!r}", i)

    def bind(self, name: str, mode: str | None = None, active: bool = False) -> str:
        """Open the scope of a binder of name; the name it takes is fresh for
        the declared free names and every binder opened before it, the one
        terms.fresh_name gives."""
        new = name
        if name in self.used:
            n = self.suffix.get(name, 0)
            while f"{name}{n}" in self.used:
                n += 1
            self.suffix[name] = n + 1
            new = f"{name}{n}"
        self.used.add(new)
        self.scopes.setdefault(name, []).append((new, mode, active))
        if mode == "general":
            self.bare[new] = 0
        return new

    # ---- formulas ------------------------------------------------------

    def constant(self, i: int) -> Formula:
        """The atom or constant the i-th token reads."""
        w = self.words[i]
        f = self.atoms.get(w)
        if f is not None:
            return f
        if w[:1].isalpha() or w[:1] == "_":
            if w in KEYWORDS:
                self.fail(f"{w!r} is reserved", i)
            f = self.atoms[w] = Atom(w)
            return f
        self.fail(f"expected a formula, found {w!r}", i)

    def formula(self, i: int) -> tuple[Formula, int]:
        """The formula at the i-th token, and the index after it."""
        words, atoms = self.words, self.atoms
        f = atoms.get(words[i])
        if f is not None and words[i + 1] not in _BINARY:
            return f, i + 1  # one atom, the commonest formula
        # open parentheses, negations, and binary connectives with their
        # left operands, innermost last
        stack: list = []
        while True:
            while words[i] == "~" or words[i] == "(":
                stack.append(words[i])
                i += 1
            f = atoms.get(words[i])
            if f is None:
                f = self.constant(i)
            i += 1
            while True:
                w = words[i]
                op = _BINARY.get(w)
                if op is None and not stack:
                    return f, i
                strength = op[0] if op else 0
                # what binds tighter than the token after f takes f
                while stack and (top := stack[-1]) != "(" and (top == "~" or top[0] > strength):
                    stack.pop()
                    f = neg(f) if top == "~" else top[1](top[2], f)
                if op:
                    stack.append((strength, op[1], f))
                    i += 1
                    break
                if not stack:
                    return f, i
                if w != ")":  # only open parentheses are left
                    self.fail(f"expected ')', found {w!r}", i)
                stack.pop()
                i += 1

    def atom(self, i: int) -> tuple[Formula, int]:
        """An atom, a constant or a parenthesised formula, and the index
        after it."""
        if self.words[i] != "(":
            return self.constant(i), i + 1
        f, i = self.formula(i + 1)
        return f, self.expect(")", i)

    # ---- axiom literals ------------------------------------------------

    def axiom(self, i: int) -> tuple[AxiomScheme, int]:
        words = self.words
        start, w = i, words[i]
        try:
            if w == "EM":
                f, i = self.formula(self.expect("[", i + 1))
                return em_axiom(f), self.expect("]", i)
            if w == "EMN":
                f, i = self.formula(self.expect("[", i + 1))
                i = self.expect(";", i)
                if not words[i][:1].isdecimal():
                    self.fail("expected a receiver count", i)
                try:
                    fanout = int(words[i])
                except ValueError:  # more digits than int() converts
                    self.fail("receiver count too large", i)
                i = self.expect("]", i + 1)
                return broadcast_axiom(f, fanout), i
            if w == "C":
                a, i = self.atom(self.expect("[", i + 1))
                atoms = [a]
                while words[i] == ",":
                    a, i = self.atom(i + 1)
                    atoms.append(a)
                i = self.expect("]", i)
                return cyclic_axiom(atoms), i
            if w == "G":
                a, i = self.atom(self.expect("[", i + 1))
                b, i = self.atom(self.expect(",", i))
                i = self.expect("]", i)
                return goedel_axiom(a, b), i
            if w == "AX":
                i += 1
                derived = words[i] == "!"
                i = self.expect("{", i + derived)
                comps = []
                while True:
                    f, j = self.formula(i)
                    if not isinstance(f, Impl):
                        self.fail("axiom component must be an implication", i)
                    comps.append((f.left, f.right))
                    if words[j] != ",":
                        break
                    i = j + 1
                i = self.expect("}", j)
                return general_axiom(tuple(comps), derived=derived), i
        except AxiomValidationError as e:
            self.fail(str(e), start)
        self.fail(f"expected an axiom literal, found {w!r}", start)

    # ---- terms ---------------------------------------------------------

    def resolve(self, i: int) -> Term:
        """The occurrence the identifier at the i-th token reads."""
        name = self.words[i]
        binders = self.scopes.get(name)
        if binders:
            new, mode, active = binders[-1]
            if mode is None:
                return Var(new)
            if mode == "general":
                self.bare[new] += 1
            return Chan(new, None, active, False)
        if name.startswith("not") and len(name) > 3:
            base = name[3:]
            binders = self.scopes.get(base)
            if binders and binders[-1][1] is not None:
                new, mode, active = binders[-1]
                if mode == "general":
                    self.fail(
                        f"channel {base!r} has no sender polarity "
                        "(general axiom)", i,
                    )
                return Chan(new, None, active, True)
        if name in self.free_names:
            return Var(name)
        self.fail(f"unbound identifier {name!r}", i)

    def term(self, i: int) -> tuple[Term, int]:
        """The term at the i-th token, and the index after it.

        One loop: t is None while a term or a primary starts at i, else it
        is the primary just read. Each construct entered pushes a frame,
        which the term or primary it waits for completes; only the operand
        of an application or a join is a primary, which no λ opens."""
        words, scopes, bare, free = self.words, self.scopes, self.bare, self.free_names
        expect = self.expect
        stack: list = []
        t = None
        while True:
            if t is None:
                w = words[i]
                start = _STARTS.get(w)
                if start is None:  # an identifier, or no term
                    binders = scopes.get(w)  # only an identifier is bound
                    if binders and binders[-1][1] is None:
                        t = Var(binders[-1][0])
                    elif w == "tt":
                        t = TT
                    elif w[:1].isalpha() or w[:1] == "_":
                        if not binders and w in free and w[:3] != "not":
                            t = Var(w)
                        else:
                            t = self.resolve(i)
                    else:
                        self.fail(f"expected a term, found {w!r}", i)
                    i += 1
                elif start == _LAM and (not stack or stack[-1][0] not in (_APP, _JOIN)):
                    v = self.name(i + 1)
                    ann, i = self.formula(expect(":", i + 2))
                    i = expect(".", i)
                    stack.append((_LAM, v, self.bind(v), ann))
                    continue
                else:
                    if start == _PAREN:
                        stack.append((_PAREN,))
                        i += 1
                    elif start == _INJ or start == _EFQ:
                        f, i = self.formula(expect("[", i + 1))
                        i = expect("(", expect("]", i))
                        if start == _EFQ:
                            stack.append((_EFQ, f))
                        else:
                            stack.append((_INJ, 0 if w == "inj0" else 1, f))
                    elif start == _PAIR:
                        stack.append((_PAIR, i, []))
                        i += 1
                    elif start == _SESSION:
                        source = self.name(i + 1)
                        active = words[i + 2] == "*"
                        ax, j = self.axiom(expect(":", i + 2 + active))
                        j = expect("[", expect(".", j))
                        name = self.bind(source, ax.mode, active)
                        stack.append((_SESSION, i, source, name, active, ax, []))
                        i = j
                        if words[i] == "@":
                            stack.append((_MARK,))
                            i += 1
                    elif start == _CASE:
                        stack.append([_CASE, None, None, None, None, None])
                        i += 1
                    else:
                        self.fail(f"expected a term, found {w!r}", i)
                    continue
            # t is a primary: an application's argument, then its
            # projections, then the next argument or the end of its juxt
            if stack and stack[-1][0] == _APP:
                t = App(stack.pop()[1], t)
            w = words[i]
            while w == "pi0" or w == "pi1":
                t = Proj(t, 0 if w == "pi0" else 1)
                i += 1
                w = words[i]
            argument = _ARGUMENT.get(w)
            if argument is None:
                argument = w[:1].isalpha() or w[:1] == "_"
            if argument:
                if type(t) is Chan and t.name in bare:
                    bare[t.name] -= 1  # an applied occurrence
                stack.append((_APP, t))
                t = None
                continue
            if w == "|+|":
                stack.append((_JOIN, t))
                t = None
                i += 1
                continue
            # t is a term: close the joins and λs that open it, and hand it
            # to the construct that waits for it
            while stack and (top := stack[-1])[0] <= _LAM:
                stack.pop()
                if top[0] == _JOIN:
                    t = Contract(top[1], t)
                else:
                    scopes[top[1]].pop()
                    t = Lam(top[2], top[3], t)
            if not stack:
                return t, i
            kind = top[0]
            if kind == _PAREN:
                stack.pop()
                i = expect(")", i)
            elif kind == _PAIR:
                top[2].append(t)
                if w == ",":
                    t = None
                    i += 1
                    continue
                stack.pop()
                i = expect(">", i)
                if len(top[2]) < 2:
                    self.fail("a pair needs at least two components", top[1])
                t = build_tuple(tuple(top[2]))
            elif kind == _INJ:
                stack.pop()
                i = expect(")", i)
                t = Inj(top[1], top[2], t)
            elif kind == _EFQ:
                stack.pop()
                i = expect(")", i)
                t = Efq(t, top[1])
            elif kind == _CASE:
                # [_CASE, scrutinee, the open branch's source name, left
                # variable, left branch, right variable]
                if top[1] is None:
                    top[1] = t
                    i = expect("{", expect("of", i))
                elif top[4] is None:
                    scopes[top[2]].pop()
                    top[4] = t
                    i = expect("|", i)
                else:
                    scopes[top[2]].pop()
                    stack.pop()
                    i = expect("}", i)
                    t = Case(top[1], top[3], top[4], top[5], t)
                    continue
                v = self.name(i)
                i = expect(".", i + 1)
                top[2] = v
                top[3 if top[4] is None else 5] = self.bind(v)
                t = None
                continue
            else:
                if kind == _MARK:
                    stack.pop()
                    t = Underline(t)
                    top = stack[-1]
                # a component of the session top
                comps = top[6]
                comps.append(t)
                if w == "||":
                    t = None
                    i += 1
                    if words[i] == "@":
                        stack.append((_MARK,))
                        i += 1
                    continue
                stack.pop()
                _, at, source, name, active, ax, _ = top
                scopes[source].pop()
                i = expect("]", i)
                if len(comps) < 2:
                    self.fail("a session needs at least two components", at)
                if bare.pop(name, 0):
                    # bare occurrences are only legal for EM/broadcast receivers
                    self.fail(
                        f"channel {source!r} cannot occur alone; "
                        "apply it to an argument", at,
                    )
                t = ParBind(name, active, ax, tuple(comps))


def parse_formula(text: str) -> Formula:
    p = _Parse(text, None)
    f, i = p.formula(0)
    p.finish(i)
    return f


def parse_axiom(text: str) -> AxiomScheme:
    p = _Parse(text, None)
    ax, i = p.axiom(0)
    p.finish(i)
    return ax


def parse_term(text: str, free_names: dict[str, Formula] | set[str] | None = None) -> Term:
    p = _Parse(text, free_names)
    t, i = p.term(0)
    p.finish(i)
    return t


@dataclass(frozen=True)
class Program:
    gamma: dict[str, Formula]
    term: Term


def parse_program(text: str) -> Program:
    """`free NAME : FORMULA ;` declarations followed by one term."""
    p = _Parse(text, None)
    gamma: dict[str, Formula] = {}
    i = 0
    while p.words[i] == "free":
        name = p.name(i + 1)
        if name in gamma:
            p.fail(f"duplicate free declaration {name!r}", i + 1)
        gamma[name], i = p.formula(p.expect(":", i + 2))
        i = p.expect(";", i)
    p.free_names = set(gamma)
    p.used = set(gamma)
    t, i = p.term(i)
    p.finish(i)
    return Program(gamma, t)
