"""Seeded construction of well-typed terms for fuzzing and property tests.

Generation is goal directed: pick a type, then build a term of that type
from introductions, eliminations, context variables, and channel
occurrences. Dead ends (a goal nobody can inhabit) unwind to the nearest
choice point, and a whole attempt restarts when the budget runs out, so
every call returns a term that really typechecks. Identical seeds and
configs give identical output.

Two vocabularies are in play. Closed terms draw all types from Top, since
no atom has a closed inhabitant. Context terms draw from a small fixed
supply of atoms backed by free variables, including one of type Bot so
that efq and sender occurrences are constructible outside sessions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .axioms import AxiomScheme, broadcast_axiom, em_axiom, preset
from .formulas import BOT, TOP, Atom, Conj, Disj, Formula, Impl
from .terms import (
    App,
    Case,
    Chan,
    Efq,
    Inj,
    Lam,
    Pair,
    ParBind,
    Proj,
    Term,
    Unit,
    Var,
    term_size,
)
from .typecheck import TypingContext, check

ATOMS = (Atom("A"), Atom("B"), Atom("C"), Atom("P"), Atom("Q"))


def default_context() -> dict[str, Formula]:
    """The small free-variable supply used in non-closed mode."""
    gamma: dict[str, Formula] = {}
    for a in ATOMS:
        gamma["v" + a.name.lower()] = a
    gamma["vf"] = Impl(Atom("A"), Atom("B"))
    gamma["w0"] = BOT
    return gamma


@dataclass(frozen=True)
class GenConfig:
    preset: Optional[str] = None  # axiom preset; None disables sessions
    max_size: int = 40
    closed: bool = False
    goal: Optional[Formula] = None

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError(f"max_size must be at least 1, got {self.max_size}")


class _Dead(Exception):
    """Unwinds a branch whose goal has no inhabitant under the budget."""


@dataclass(frozen=True)
class _ChanUse:
    name: str
    scheme: AxiomScheme
    comp: int


class _Synth:
    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.gamma = {} if cfg.closed else default_context()
        self.budget = cfg.max_size
        self.counter = 0

    # -- naming ------------------------------------------------------------

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    # -- types -------------------------------------------------------------

    def atom(self) -> Formula:
        return TOP if self.cfg.closed else self.rng.choice(ATOMS)

    def formula(self, depth: int = 2) -> Formula:
        if depth == 0 or self.rng.random() < 0.4:
            return self.atom()
        kind = self.rng.choice((Impl, Conj, Disj))
        return kind(self.formula(depth - 1), self.formula(depth - 1))

    def mint_scheme(self) -> AxiomScheme:
        # em and em3 keep their preset's shape but draw a random carrier
        name = self.cfg.preset
        if name == "em":
            return em_axiom(self.formula(1))
        if name == "em3":
            return broadcast_axiom(self.formula(1), preset(name).fanout)
        return preset(name)

    # -- inhabitation ------------------------------------------------------

    def can_inhabit(self, ty: Formula, env: dict[str, Formula]) -> bool:
        if ty == TOP:
            return True
        if any(t == ty for t in env.values()):
            return True
        if isinstance(ty, Impl):
            return self.can_inhabit(ty.right, {**env, "?": ty.left})
        if isinstance(ty, Conj):
            return self.can_inhabit(ty.left, env) and self.can_inhabit(ty.right, env)
        if isinstance(ty, Disj):
            return self.can_inhabit(ty.left, env) or self.can_inhabit(ty.right, env)
        return False

    def inhabit(self, ty: Formula, env: dict[str, Formula]) -> Term:
        """Smallest-effort inhabitant, used at the budget's edge."""
        names = [n for n, t in env.items() if t == ty]
        if names:
            self.spend(1)
            return Var(self.rng.choice(names))
        if ty == TOP:
            self.spend(1)
            return Unit()
        if isinstance(ty, Impl):
            self.spend(1)
            x = self.fresh("x")
            return Lam(x, ty.left, self.inhabit(ty.right, {**env, x: ty.left}))
        if isinstance(ty, Conj):
            self.spend(1)
            return Pair(self.inhabit(ty.left, env), self.inhabit(ty.right, env))
        if isinstance(ty, Disj):
            self.spend(1)
            sides = [0, 1]
            self.rng.shuffle(sides)
            for side in sides:
                part = ty.left if side == 0 else ty.right
                if self.can_inhabit(part, env):
                    return Inj(side, ty, self.inhabit(part, env))
        raise _Dead(f"no inhabitant for {ty}")

    # -- budget ------------------------------------------------------------

    def spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise _Dead("budget exhausted")

    # -- term construction ---------------------------------------------------

    def term(
        self,
        ty: Formula,
        env: dict[str, Formula],
        chans: tuple[_ChanUse, ...],
        sessions_ok: bool,
        depth: int,
    ) -> Term:
        if self.budget <= 2 or depth > 8:
            return self.inhabit(ty, env)

        options: list[tuple[int, object]] = []

        def leaf() -> Term:
            return self.inhabit(ty, env)

        options.append((2, leaf))

        for use in chans:
            occ = use.scheme.occurrence_type(use.comp)
            if use.scheme.bare_allowed(use.comp) and use.scheme.carrier == ty:
                options.append((6, lambda u=use: self.bare_chan(u)))
            if isinstance(occ, Impl) and occ.right == ty and self.can_inhabit(
                occ.left, env
            ):
                options.append(
                    (6, lambda u=use, o=occ: self.applied_chan(u, o, env, chans, depth))
                )

        if isinstance(ty, Impl):
            options.append((4, lambda: self.lam(ty, env, chans, sessions_ok, depth)))
        if isinstance(ty, Conj):
            options.append((4, lambda: self.pair(ty, env, chans, sessions_ok, depth)))
        if isinstance(ty, Disj):
            options.append((4, lambda: self.inj(ty, env, chans, sessions_ok, depth)))

        options.append((2, lambda: self.app(ty, env, chans, sessions_ok, depth)))
        options.append((1, lambda: self.proj(ty, env, chans, sessions_ok, depth)))
        if self.budget >= 6:
            options.append((2, lambda: self.case(ty, env, chans, sessions_ok, depth)))
        if (isinstance(ty, Atom) or ty == TOP) and self.bot_source(env, chans):
            options.append((2, lambda: self.efq(ty, env, chans, sessions_ok, depth)))
        if ty == BOT and not self.bot_source(env, chans):
            raise _Dead("no source of Bot here")
        if (
            sessions_ok
            and self.cfg.preset is not None
            and self.budget >= 8
            and depth <= 4
        ):
            options.append((3, lambda: self.session(ty, env, chans, depth)))

        picked = self.weighted_order(options)
        state = self.budget, self.counter
        for fn in picked:
            try:
                return fn()
            except _Dead:
                self.budget, self.counter = state
        raise _Dead(f"all productions failed for {ty}")

    def weighted_order(self, options) -> list:
        """Random order biased toward heavier weights, trying everything once."""
        pool = list(options)
        out = []
        while pool:
            total = sum(w for w, _ in pool)
            pick = self.rng.randrange(total)
            for k, (w, fn) in enumerate(pool):
                pick -= w
                if pick < 0:
                    out.append(fn)
                    del pool[k]
                    break
        return out

    def bot_source(self, env: dict[str, Formula], chans) -> bool:
        if any(t == BOT for t in env.values()):
            return True
        return any(
            u.scheme.occurrence_negated(u.comp)
            and self.can_inhabit(u.scheme.carrier, env)
            for u in chans
        )

    # individual productions

    def bare_chan(self, use: _ChanUse) -> Term:
        self.spend(1)
        return Chan(use.name)

    def applied_chan(self, use, occ, env, chans, depth) -> Term:
        self.spend(2)
        neg = use.scheme.occurrence_negated(use.comp)
        msg = self.term(occ.left, env, chans, False, depth + 1)
        return App(Chan(use.name, negated=neg), msg)

    def lam(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        x = self.fresh("x")
        body = self.term(ty.right, {**env, x: ty.left}, chans, sessions_ok, depth + 1)
        return Lam(x, ty.left, body)

    def pair(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        return Pair(
            self.term(ty.left, env, chans, sessions_ok, depth + 1),
            self.term(ty.right, env, chans, sessions_ok, depth + 1),
        )

    def inj(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        side = self.rng.choice((0, 1))
        part = ty.left if side == 0 else ty.right
        if not self.can_inhabit(part, env):
            side = 1 - side
            part = ty.left if side == 0 else ty.right
            if not self.can_inhabit(part, env):
                raise _Dead("uninhabitable disjunction")
        return Inj(side, ty, self.term(part, env, chans, sessions_ok, depth + 1))

    def arg_type(self, env, chans) -> Formula:
        choices = [self.atom(), self.formula(1)]
        for u in chans:
            occ = u.scheme.occurrence_type(u.comp)
            if isinstance(occ, Impl):
                choices.append(occ.right)
            if u.scheme.bare_allowed(u.comp):
                choices.append(u.scheme.carrier)
        choices = [c for c in choices if self.can_inhabit(c, env)]
        if not choices:
            raise _Dead("no usable argument type")
        return self.rng.choice(choices)

    def app(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        a = self.arg_type(env, chans)
        fun = self.term(Impl(a, ty), env, chans, sessions_ok, depth + 1)
        arg = self.term(a, env, chans, sessions_ok, depth + 1)
        return App(fun, arg)

    def proj(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        other = self.arg_type(env, chans)
        side = self.rng.choice((0, 1))
        conj = Conj(ty, other) if side == 0 else Conj(other, ty)
        return Proj(self.term(conj, env, chans, sessions_ok, depth + 1), side)

    def case(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        l, r = self.arg_type(env, chans), self.arg_type(env, chans)
        scrut = self.term(Disj(l, r), env, chans, sessions_ok, depth + 1)
        # session binders never live inside branches; extrusion cannot
        # reach them there
        xl, xr = self.fresh("w"), self.fresh("w")
        lbody = self.term(ty, {**env, xl: l}, chans, False, depth + 1)
        rbody = self.term(ty, {**env, xr: r}, chans, False, depth + 1)
        return Case(scrut, xl, lbody, xr, rbody)

    def efq(self, ty, env, chans, sessions_ok, depth) -> Term:
        self.spend(1)
        return Efq(self.term(BOT, env, chans, sessions_ok, depth + 1), ty)

    def session(self, ty, env, chans, depth) -> Term:
        ax = self.mint_scheme()
        self.spend(2)
        a = self.fresh("a")
        comps = []
        for i in range(ax.arity):
            inner = chans + (_ChanUse(a, ax, i),)
            comps.append(self.term(ty, env, inner, True, depth + 1))
        return ParBind(a, False, ax, tuple(comps))


def generate(
    seed: int | random.Random, cfg: GenConfig = GenConfig()
) -> tuple[dict[str, Formula], Term]:
    """One well-typed term plus the free-variable context it lives in."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    last: Optional[Exception] = None
    for _ in range(200):
        synth = _Synth(rng, cfg)
        goal = cfg.goal or synth.formula(2)
        try:
            raw = synth.term(goal, dict(synth.gamma), (), True, 0)
        except _Dead as e:
            last = e
            continue
        if term_size(raw) > cfg.max_size:
            continue
        ctx = TypingContext(ivars=dict(synth.gamma))
        elab, _ = check(raw, ctx)
        return dict(synth.gamma), elab
    raise RuntimeError(f"generation kept dead-ending: {last}")


def generate_corpus(seed: int, count: int, cfg: GenConfig = GenConfig()):
    """Deterministic stream of (gamma, term) pairs from one master seed."""
    rng = random.Random(seed)
    for _ in range(count):
        yield generate(rng, cfg)
