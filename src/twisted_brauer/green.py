"""
Green's relations and pre-orders on the Brauer monoid and its twisted cover.

All decisions run off the structural characterisations: the R pre-order
compares kernels (upper-hook sets), L compares cokernels, J compares
ranks; on the twisted monoid a pre-order additionally reverses the twist
component.  The pre-order proofs are constructive, and the witnesses are
materialised here: ``factor_right(a, b)`` returns a specific d with
a = bd and tau(b, d) = 0, and similarly for the left and two-sided
versions.  Witnesses are not unique; the ones returned are the canonical
pairings fixed by the module's notation ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import BrauerDiagram, DiagramError, PreconditionError, _check_degrees, _from_pairs
from .twisted import _hook_idempotent, as_twisted

RELATIONS = ("R", "L", "H", "D", "J")


def _check_relation(relation: str, names) -> None:
    if relation not in names:
        raise DiagramError(f"relation must be one of {', '.join(names)}, not {relation!r}")


def leq_R(alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
    """a <=_R b iff ker(a) contains ker(b), i.e. hooks(b) <= hooks(a).

    Decided in one pass over beta's top row: beta's upper hook at x is
    one of alpha's exactly when their pairings agree at x.
    """
    _check_degrees(alpha, beta)
    n, pa, pb = alpha.degree, alpha.pairing, beta.pairing
    for x in range(n):
        y = pb[x]
        if y < n and pa[x] != y:
            return False
    return True


def leq_L(alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
    """a <=_L b iff coker(a) contains coker(b), decided as leq_R is, over
    the bottom row."""
    _check_degrees(alpha, beta)
    n, pa, pb = alpha.degree, alpha.pairing, beta.pairing
    for x in range(n, 2 * n):
        y = pb[x]
        if y >= n and pa[x] != y:
            return False
    return True


def leq_J(alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
    """a <=_J b iff rank(a) <= rank(b)."""
    _check_degrees(alpha, beta)
    return alpha.rank <= beta.rank


_LEQ = {"R": leq_R, "L": leq_L, "J": leq_J}


def _right_pairs(alpha: BrauerDiagram, beta: BrauerDiagram) -> list[tuple[int, int]]:
    """The 0-based point pairs of factor_right(alpha, beta), in one pass
    over the two pairings; raises PreconditionError unless ker(alpha)
    contains ker(beta)."""
    n, pa, pb = alpha.degree, alpha.pairing, beta.pairing
    pairs, split = [], 0
    for x in range(n):
        y = pa[x]
        if pb[x] < n:  # beta's upper hook at x must be alpha's
            if y != pb[x]:
                raise PreconditionError("ker(alpha) does not contain ker(beta)")
        elif y >= n:  # alpha's transversal x - y leaves beta's image of x
            pairs.append((pb[x] - n, y))
        elif x < y:  # an upper hook of alpha that beta lacks, on beta's images
            pairs.append((pb[x] - n, pb[y] - n))
            split += 1
    lower = [(c, pa[c]) for c in range(n, 2 * n) if c < pa[c]]
    pairs += lower[:split]  # d's own lower hooks
    beta_lower = [e for e in range(n, 2 * n) if e < pb[e]]
    for e, (c, d) in zip(beta_lower, lower[split:]):  # beta's lower hooks feed the rest
        pairs += ((e - n, c), (pb[e] - n, d))
    return pairs


def factor_right(alpha: BrauerDiagram, beta: BrauerDiagram) -> BrauerDiagram:
    """A diagram d with alpha = beta*d and tau(beta, d) = 0.

    Requires ker(alpha) >= ker(beta).  The returned d joins beta's
    codomain to alpha's codomain along the matched transversals, routes
    the hooks of alpha that beta lacks through beta's images, and feeds
    beta's lower hooks into fresh transversals ending at alpha's spare
    lower hooks.  When the kernels are equal, d is a unit.
    """
    _check_degrees(alpha, beta)
    return _from_pairs(alpha.degree, _right_pairs(alpha, beta))


def factor_left(alpha: BrauerDiagram, beta: BrauerDiagram) -> BrauerDiagram:
    """A diagram g with alpha = g*beta and tau(g, beta) = 0.

    Requires coker(alpha) >= coker(beta); obtained from factor_right by
    the * duality.
    """
    if not leq_L(alpha, beta):
        raise PreconditionError("coker(alpha) does not contain coker(beta)")
    return factor_right(alpha.star(), beta.star()).star()


def factor_two_sided(
    alpha: BrauerDiagram, beta: BrauerDiagram
) -> tuple[BrauerDiagram, BrauerDiagram]:
    """Diagrams (g, d) with alpha = g*beta*d and chain twist 0.

    Requires rank(alpha) <= rank(beta).  An intermediate diagram e is
    built with coker(e) = coker(alpha) and ker(e) >= ker(beta): it keeps
    beta's first rank(alpha) transversal tops, closes the remaining
    transversal tops of beta into fresh upper hooks pairwise, and copies
    alpha's lower hooks.  Then d = factor_right(e, beta), and g is the
    unit carrying alpha's top structure onto e's.
    """
    _check_degrees(alpha, beta)
    n, pa, pb = alpha.degree, alpha.pairing, beta.pairing
    alpha_tops = [x for x in range(n) if pa[x] >= n]
    beta_tops = [x for x in range(n) if pb[x] >= n]
    r = len(alpha_tops)
    if r > len(beta_tops):
        raise PreconditionError("rank(alpha) exceeds rank(beta)")
    kept, spare = beta_tops[:r], beta_tops[r:]
    eps_upper = list(zip(spare[::2], spare[1::2]))  # beta's spare tops closed pairwise
    eps_upper += [(x, pb[x]) for x in range(n) if x < pb[x] < n]
    eps = _from_pairs(n, [(t, pa[i]) for i, t in zip(alpha_tops, kept)] + eps_upper
                      + [(c, pa[c]) for c in range(n, 2 * n) if c < pa[c]])
    delta = _from_pairs(n, _right_pairs(eps, beta))

    unit = [(i, n + t) for i, t in zip(alpha_tops, kept)]
    alpha_upper = [(x, pa[x]) for x in range(n) if x < pa[x] < n]
    for (a, b), (g, h) in zip(alpha_upper, eps_upper):
        unit += ((a, n + g), (b, n + h))
    return _from_pairs(n, unit), delta


def twisted_leq(relation: str, x, y) -> bool:
    """(i, a) <=_K (j, b) in the twisted monoid iff i >= j and a <=_K b."""
    _check_relation(relation, _LEQ)
    x, y = as_twisted(x), as_twisted(y)
    _check_degrees(x, y)
    return x.twist >= y.twist and _LEQ[relation](x.diagram, y.diagram)


@dataclass(frozen=True)
class ClassDescription:
    """Invariant data identifying a Green's class of the twisted monoid."""

    relation: str
    twist: int
    rank: int | None = None
    kernel: tuple[tuple[int, int], ...] | None = None
    cokernel: tuple[tuple[int, int], ...] | None = None

    def __str__(self) -> str:
        parts = [f"{self.relation}-class", f"twist={self.twist}"]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.kernel is not None:
            parts.append("ker=" + "".join(f"({a},{b})" for a, b in self.kernel))
        if self.cokernel is not None:
            parts.append("coker=" + "".join(f"({a},{b})" for a, b in self.cokernel))
        return " ".join(parts)


def green_class(relation: str, x) -> ClassDescription:
    """Describe the K-class of a twisted element; the class is {i} x K_a."""
    _check_relation(relation, RELATIONS)
    x = as_twisted(x)
    d = x.diagram
    ker = tuple(d.top_hooks()) if relation in ("R", "H") else None
    coker = tuple(d.bottom_hooks()) if relation in ("L", "H") else None
    rank = d.rank if relation in ("D", "J") else None
    return ClassDescription(relation, x.twist, rank, ker, coker)


def same_class(relation: str, x, y) -> bool:
    """Whether two twisted elements lie in the same K-class (D = J, H = R n L)."""
    x, y = as_twisted(x), as_twisted(y)
    _check_degrees(x.diagram, y.diagram)
    return green_class(relation, x) == green_class(relation, y)


def is_regular(x) -> bool:
    """Regularity in the twisted monoid: twist 0 and positive rank.

    Degree 0 is the trivial monoid, whose unique untwisted element is its
    identity and hence regular despite having rank 0.
    """
    x = as_twisted(x)
    return x.twist == 0 and (x.diagram.rank > 0 or x.degree == 0)


def canonical_idempotent(n: int, r: int) -> BrauerDiagram:
    """The hook-chain idempotent of rank r witnessing regularity of D_{r;0}.

    Straight transversals on 1..r-1, one long transversal from r down to
    n', upper hooks on adjacent pairs of r+1..n, and lower hooks on
    adjacent pairs of r..n-1.  Its square is itself with no floating
    component.  Requires 0 < r <= n with r = n (mod 2); rank 0 classes
    contain no twisted idempotents.
    """
    if not (0 < r <= n and (n - r) % 2 == 0):
        raise PreconditionError(f"no canonical idempotent for degree {n}, rank {r}")
    # 0-based hooks; the path rule draws the transversals
    return _hook_idempotent(n, [(a, a + 1) for a in range(r, n - 1, 2)],
                            [(c, c + 1) for c in range(r - 1, n - 2, 2)])
