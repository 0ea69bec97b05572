"""
The twisted Brauer monoid: pairs (twist, diagram) under the star product.

The twist is a natural number counting floating components accumulated
along the way: (i, a) * (j, b) = (i + j + tau(a, b), ab).  Plain diagrams
embed as twist-0 elements, but the embedding is not a homomorphism --
whenever a product creates floating components the twist goes up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BrauerDiagram, DegreeMismatchError, DiagramError, is_int, multiply


@dataclass(frozen=True, order=True)
class TwistedElement:
    """An element (twist, diagram) of the twisted Brauer monoid."""

    twist: int
    diagram: BrauerDiagram

    def __post_init__(self) -> None:
        if not is_int(self.twist) or self.twist < 0:
            raise DiagramError(f"twist must be a natural number, got {self.twist!r}")

    @property
    def degree(self) -> int:
        return self.diagram.degree

    @property
    def rank(self) -> int:
        return self.diagram.rank

    def star_involution(self) -> TwistedElement:
        """(i, a) -> (i, a*): the involution of the twisted monoid."""
        return TwistedElement(self.twist, self.diagram.star())

    def __mul__(self, other) -> TwistedElement:
        return star(self, other)

    def to_text(self) -> str:
        return f"{self.twist} * {self.diagram.to_text()}"

    def to_json_obj(self) -> dict:
        obj = self.diagram.to_json_obj()
        obj["twist"] = self.twist
        return obj

    def __repr__(self) -> str:
        return f"TwistedElement({self.twist}, {self.diagram!r})"


def as_twisted(x) -> TwistedElement:
    """Coerce a plain diagram to twist 0; pass twisted elements through."""
    if isinstance(x, TwistedElement):
        return x
    if isinstance(x, BrauerDiagram):
        return TwistedElement(0, x)
    raise TypeError(f"cannot interpret {x!r} as a twisted element")


def star(x, y) -> TwistedElement:
    """The star product (i, a) * (j, b) = (i + j + tau(a, b), ab)."""
    x, y = as_twisted(x), as_twisted(y)
    if x.degree != y.degree:
        raise DegreeMismatchError(f"degrees differ: {x.degree} vs {y.degree}")
    prod, extra = multiply(x.diagram, y.diagram)
    return TwistedElement(x.twist + y.twist + extra, prod)


def star_chain(*factors) -> TwistedElement:
    """Left fold of the star product over diagrams or twisted elements.

    By associativity any other bracketing gives the same element, so the
    twist of the result is the chain twist tau(a_1, ..., a_k).
    """
    if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
        factors = tuple(factors[0])
    if not factors:
        raise DiagramError("star_chain needs at least one factor")
    acc = as_twisted(factors[0])
    for f in factors[1:]:
        acc = star(acc, f)
    return acc


def is_idempotent_plain(alpha: BrauerDiagram) -> bool:
    """Idempotent in the plain Brauer monoid: a*a == a ignoring twist."""
    return multiply(alpha, alpha)[0] == alpha


def is_idempotent_twisted(x) -> bool:
    """Idempotent under the star product: twist 0, a^2 = a and tau(a, a) = 0."""
    if not isinstance(x, BrauerDiagram):
        x = as_twisted(x)
        if x.twist != 0:
            return False
        x = x.diagram
    return multiply(x, x) == (x, 0)
