"""
The twisted Brauer monoid: pairs (twist, diagram) under the star product.

The twist is a natural number counting floating components accumulated
along the way: (i, a) * (j, b) = (i + j + tau(a, b), ab).  Plain diagrams
embed as twist-0 elements, but the embedding is not a homomorphism --
whenever a product creates floating components the twist goes up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BrauerDiagram, DiagramError, _raw_diagram, is_int, multiply


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


def _check_plain(x) -> BrauerDiagram:
    """Return x if it is a plain diagram; refuse a twisted element or any other value."""
    if not isinstance(x, BrauerDiagram):
        kind = "twisted element" if isinstance(x, TwistedElement) else type(x).__name__
        raise DiagramError(f"expected a plain diagram, got a {kind}")
    return x


def star(x, y) -> TwistedElement:
    """The star product (i, a) * (j, b) = (i + j + tau(a, b), ab)."""
    x, y = as_twisted(x), as_twisted(y)
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


def _square_walk(alpha: BrauerDiagram) -> int:
    """Middle points of alpha·alpha covered by the walks from alpha's top
    transversals, or -1 as soon as a walk does not come back down to its
    own bottom point.

    Each walk enters the middle row through the first copy's transversal
    i -> j, follows the second copy's upper hooks and the first copy's
    lower hooks, and must leave through the second copy's edge to j.  When
    every walk does, the square keeps alpha's transversals, and its hooks
    are alpha's own: alpha^2 = alpha.  The middle points no walk covers
    then lie on floating loops.  A walk past n covered points is no walk of
    an involution, so it stops there and gives -1.
    """
    n, p = alpha.degree, alpha.pairing
    covered = 0
    for i in range(n):
        j = p[i]
        if j < n:
            continue
        q = p[j - n]  # the second copy's edge from middle point j - n
        covered += 1
        while q < n and covered <= n:  # an upper hook, back into the middle row at q
            m = p[n + q]  # the first copy's edge from middle point q
            if m < n:  # a transversal: the walk climbs to the top row
                return -1
            q = p[m - n]  # through a lower hook to middle point m - n
            covered += 2
        if q != j:
            return -1
    return covered


def _hook_idempotent(n: int, upper, lower) -> BrauerDiagram:
    """The twisted idempotent with upper hooks ``upper`` and lower hooks
    ``lower``, 0-based point pairs (top v and bottom v' are point v), by
    the path rule: an H-class holds one exactly when every component of
    U u C is a path from a U-free point to a C-free point, and its
    transversals join each U-free top u to the C-free end of u's path.  A
    hook on a point already used, a path with two U-free ends or a cycle
    raises DiagramError."""
    out = [-1] * (2 * n)
    for hooks, row in ((upper, 0), (lower, n)):  # row: the index of point 0 in the row
        for x, y in hooks:
            x, y = row + x, row + y
            if out[x] >= 0 or out[y] >= 0 or x == y:
                raise DiagramError("a hook meets a point already used")
            out[x], out[y] = y, x
    covered = 0
    for u in range(n):
        if out[u] < 0:  # a U-free top: walk its path
            v, covered = u, covered + 1
            while (w := out[n + v]) >= 0:  # a lower hook to w, then the upper hook onward
                v, covered = out[w - n], covered + 2
                if v < 0 or covered > n:  # w is U-free (two U-free ends), or a slip loops
                    raise DiagramError("the hooks are not an edge: no twisted idempotent")
            out[u], out[n + v] = n + v, u
    if covered != n or min(out, default=0) < 0:  # points on cycles, or a negative slip
        raise DiagramError("the hooks are not an edge: no twisted idempotent")
    return _raw_diagram(n, tuple(out))


def is_idempotent_plain(alpha: BrauerDiagram) -> bool:
    """Idempotent in the plain Brauer monoid: a*a == a ignoring twist."""
    return _square_walk(alpha) >= 0


def is_idempotent_twisted(x) -> bool:
    """Idempotent under the star product: twist 0, a^2 = a and tau(a, a) = 0."""
    if not isinstance(x, BrauerDiagram):
        x = as_twisted(x)
        if x.twist != 0:
            return False
        x = x.diagram
    return _square_walk(x) == x.degree
