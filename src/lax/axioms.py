"""Axiom schemes that parameterize the calculus.

A scheme is either the two-sided excluded-middle session (mode "em", one
sender of type ~A and one receiver of type A), its n-receiver broadcast
variant (mode "broadcast"), or a general disjunction of implications
F_1 -> G_1, ..., F_m -> G_m (mode "general").

General schemes written by the user go through validate_components: the
antecedents must be pairwise distinct, every consequent other than Bot
must literally equal one of the antecedents, and the disjunction must be a
classical tautology. With antecedents that are atoms or Top, it is false
only under a valuation making every antecedent true and every consequent
false; a consequent that is an antecedent rules that out, so the scheme is
a tautology exactly when some consequent is not Bot. The recorded witness
jmap[i] is the least j with components[j].antecedent ==
components[i].consequent; it is what cross reductions use to route
messages. Schemes minted by the engine for fresh channels (derived=True)
skip the user-level shape restrictions; their jmap is recomputed with the
same least-index rule so printing and reparsing agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .formulas import Atom, Bot, Formula, Impl, Top, BOT, neg, show_formula


@dataclass(frozen=True)
class AxiomValidationError(Exception):
    # DuplicateAntecedent | UnmatchedAntecedent | NotATautology
    # | BadComponentShape
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class AxiomScheme:
    mode: str  # "em" | "broadcast" | "general"
    carrier: Optional[Formula] = None
    fanout: int = 1  # broadcast receiver count
    components: tuple[tuple[Formula, Formula], ...] = ()
    jmap: tuple[Optional[int], ...] = ()
    derived: bool = False

    @property
    def arity(self) -> int:
        if self.mode == "em":
            return 2
        if self.mode == "broadcast":
            return 1 + self.fanout
        return len(self.components)

    def occurrence_type(self, i: int) -> Formula:
        """Type every occurrence of the channel must have inside component i."""
        if self.mode in ("em", "broadcast"):
            return neg(self.carrier) if i == 0 else self.carrier
        f, g = self.components[i]
        return Impl(f, g)

    def occurrence_negated(self, i: int) -> bool:
        return self.mode in ("em", "broadcast") and i == 0

    def bare_allowed(self, i: int) -> bool:
        """May the channel occur as a stand-alone term in component i?"""
        return self.mode in ("em", "broadcast") and i > 0

    def __str__(self) -> str:
        return show_axiom(self)


def _jmap_least(
    components: tuple[tuple[Formula, Formula], ...],
) -> tuple[Optional[int], ...]:
    ants = [f for f, _ in components]
    jmap: list[Optional[int]] = []
    for i, (_, g) in enumerate(components):
        if isinstance(g, Bot):
            jmap.append(None)
            continue
        for j, f in enumerate(ants):
            if f == g:
                jmap.append(j)
                break
        else:
            raise AxiomValidationError(
                "UnmatchedAntecedent",
                f"consequent {show_formula(g)} of component {i} "
                f"matches no antecedent",
            )
    return tuple(jmap)


def validate_components(
    components: tuple[tuple[Formula, Formula], ...],
) -> tuple[Optional[int], ...]:
    """Check the disjunctive-axiom side conditions, returning the j-map.

    Raises AxiomValidationError on duplicate antecedents, on a consequent
    (other than Bot) without a matching antecedent, and when every
    consequent is Bot, which is no tautology.
    """
    ants = [f for f, _ in components]
    for i, f in enumerate(ants):
        if f in ants[:i]:
            raise AxiomValidationError(
                "DuplicateAntecedent",
                f"antecedent {show_formula(f)} appears more than once",
            )
    jmap = _jmap_least(components)
    if all(j is None for j in jmap):
        raise AxiomValidationError(
            "NotATautology",
            "every consequent is Bot, so the axiom is false when every "
            "antecedent is true",
        )
    return jmap


def _check_shape(components: tuple[tuple[Formula, Formula], ...]) -> None:
    if len(components) < 2:
        raise AxiomValidationError(
            "BadComponentShape", "a general axiom needs at least two components"
        )
    for f, g in components:
        if not isinstance(f, (Atom, Top)):
            raise AxiomValidationError(
                "BadComponentShape",
                f"antecedent {show_formula(f)} must be a variable or Top",
            )
        if not isinstance(g, (Atom, Bot)):
            raise AxiomValidationError(
                "BadComponentShape",
                f"consequent {show_formula(g)} must be a variable or Bot",
            )


def general_axiom(components, derived: bool = False) -> AxiomScheme:
    comps = tuple(components)
    if derived:
        # shapes and distinctness are the engine's business here; consequents
        # still need a match so the routing map is total
        jmap = _jmap_least(comps)
    else:
        _check_shape(comps)
        jmap = validate_components(comps)
    return AxiomScheme(
        mode="general", components=comps, jmap=jmap, derived=derived
    )


def em_axiom(carrier: Formula) -> AxiomScheme:
    return AxiomScheme(mode="em", carrier=carrier)


def broadcast_axiom(carrier: Formula, fanout: int) -> AxiomScheme:
    if fanout < 1:
        raise AxiomValidationError(
            "BadComponentShape", "broadcast needs at least one receiver"
        )
    return AxiomScheme(mode="broadcast", carrier=carrier, fanout=fanout)


def cyclic_axiom(atoms: list[Formula]) -> AxiomScheme:
    """C[A1, ..., An]: components A1 -> A2, ..., An -> A1."""
    n = len(atoms)
    if n < 2:
        raise AxiomValidationError(
            "BadComponentShape", "cyclic axiom needs at least two atoms"
        )
    comps = tuple(
        (atoms[i], atoms[(i + 1) % n]) for i in range(n)
    )
    return general_axiom(comps)


def goedel_axiom(a: Formula, b: Formula) -> AxiomScheme:
    """G[A, B]: components A -> B, B -> Bot."""
    return general_axiom(((a, b), (b, BOT)))


_PRESETS = {
    "em": lambda: em_axiom(Atom("A")),
    "em3": lambda: broadcast_axiom(Atom("A"), 3),
    "c3": lambda: cyclic_axiom([Atom("A"), Atom("B"), Atom("C")]),
    "g2": lambda: goedel_axiom(Atom("A"), Atom("B")),
    "godel": lambda: general_axiom(((Atom("A"), Atom("B")), (Atom("B"), Atom("A")))),
}


def preset(name: str) -> AxiomScheme:
    key = name.lower().replace("_", "")
    if key not in _PRESETS:
        raise KeyError(
            f"unknown axiom preset {name!r}; known: {', '.join(sorted(_PRESETS))}"
        )
    return _PRESETS[key]()


def show_axiom(ax: AxiomScheme) -> str:
    if ax.mode == "em":
        return f"EM[{show_formula(ax.carrier)}]"
    if ax.mode == "broadcast":
        return f"EMN[{show_formula(ax.carrier)};{ax.fanout}]"
    body = ", ".join(
        f"{show_formula(f, 2)} -> {show_formula(g, 2)}" for f, g in ax.components
    )
    bang = "!" if ax.derived else ""
    return "AX" + bang + "{" + body + "}"
