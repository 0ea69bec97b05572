"""
The ideal lattice of the twisted Brauer monoid.

A principal ideal I(r;k) consists of all elements of rank at most r and
twist at least k; every ideal is a finite union of principal ones, and
has a unique canonical form with both the rank and the twist parameters
strictly decreasing.  This module also houses the counting formulas
rho(n, r) and delta(n, r), the rank table for principal ideals, and the
constructive lemmas used to build generators: rank-dropping products,
twist-raising and twist-keeping right identities, and the idempotent
absorption of transpositions.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass

from .diagram import (BrauerDiagram, DiagramError, PreconditionError, _check_degree,
                      _check_degrees, _from_pairs)
from .twisted import _hook_idempotent, as_twisted


def index_set(n: int) -> range:
    """The possible ranks in degree n: I(n) = {z, z+2, ..., n}, z = n mod 2."""
    return range(n % 2, n + 1, 2)


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)... down to 1 or 2; empty product for m <= 0.

    >>> [double_factorial(m) for m in (-1, 0, 1, 3, 5)]
    [1, 1, 1, 3, 15]
    """
    if m <= 0:
        return 1
    evens = math.factorial(m // 2) << m // 2  # 2 * 4 * ... * 2h for h = m // 2
    return math.factorial(m) // evens if m % 2 else evens


def _check_rank_param(n: int, r: int) -> None:
    ranks = index_set(n)  # empty at a negative degree
    if r not in ranks:  # up to degree 15, I(n) has at most 8 ranks
        shown = tuple(ranks) if n < 16 else f"({ranks[0]}, {ranks[1]}, ..., {n})"
        raise DiagramError(f"rank {r} is not in I({n}) = {shown}")


def _check_term(n: int, r: int, k: int) -> None:
    _check_rank_param(n, r)
    if k < 0:
        raise DiagramError(f"twist parameter {k} must be non-negative")


def _check_degree_3(n: int, subject: str) -> None:
    if n < 3:
        raise PreconditionError(f"{subject} is stated for n >= 3, got n = {n}")


def _check_proper_rank(n: int, r: int, subject: str) -> None:
    if not 0 < r < n:  # where I(r;0) is idempotent-generated
        raise PreconditionError(f"{subject} is stated for 0 < r < n, got r = {r} in degree {n}")


def rho(n: int, r: int) -> int:
    """Number of R-classes (= L-classes) in the rank-r D-class of degree n."""
    _check_rank_param(n, r)
    return math.comb(n, r) * double_factorial(n - r - 1)


def delta(n: int, r: int) -> int:
    """Size of the rank-r D-class of degree n: rho(n, r)^2 * r!."""
    return rho(n, r) ** 2 * math.factorial(r)


# The capped counts, which every size guard decides by, are exact up to |B_10| = 19!!
# and COUNT_CAP above it, where a count of any unit in COSTS exceeds the step budget.
COUNT_CAP = double_factorial(19) + 1
# unit: (nanoseconds per unit of work, bytes per unit held), measured on one 2-core
# host (Python 3.11.7) by tests/measure_costs.py; verify's checks name theirs too
COSTS = {
    "streamed diagram": (2_100, 0),
    "oracle diagram": (17_000, 810),  # held with its Cayley graph rows and reach masks
    "GH candidate": (2_800, 0),  # and gh-conditions', rank-table's and singular-rank's items
    "grid element": (1_600, 120),
    "generator degree": (980, 360),  # the four top generators, per unit of degree
    "closure product": (3_400, 760),  # bytes per element of the bound; and the closure checks'
    "cocycle triple degree": (8_400, 570),  # per triple and unit of degree; bytes per degree
    "pre-order pair": (35_000, 820),  # bytes per diagram of B_n, with the oracle's
    "classified diagram": (5_900, 150),
    "regularity pair": (3_600, 0),
    "classification element": (2_400, 120),  # bytes per truncation element
    "lemma diagram": (13_000, 0),
    "absorbed transposition": (21_000, 0),
    "factored diagram": (77_000, 0),
}
STEP_BUDGET_NS, BYTE_BUDGET = 60 * 10**9, 10**9  # 60 s and 1 GB


def check_cost(subject: str, unit: str, work: int, held: int = 0) -> None:
    """The one size guard, called once per request: refuse ``subject`` when its ``work``
    units of ``unit`` take more than 60 s, or its ``held`` units more than 1 GB."""
    ns, size = COSTS[unit]
    budget = "1 GB" if held * size > BYTE_BUDGET else "60 s" if work * ns > STEP_BUDGET_NS else ""
    if budget:
        raise DiagramError(f"{subject} refused: it needs more than {budget}")


def capped_rho(n: int, r: int) -> int:
    """min(rho(n, r), COUNT_CAP); past n - r = 20 a factor (n-r-1)!! >= 21!!
    exceeds the cap."""
    _check_rank_param(n, r)
    return COUNT_CAP if n - r > 20 else min(rho(n, r), COUNT_CAP)


def capped_delta(n: int, r: int) -> int:
    """min(delta(n, r), COUNT_CAP); past degree 12 every D-class exceeds the
    cap (13! does, and so does rho(n, r)^2 below rank 13)."""
    _check_rank_param(n, r)
    return COUNT_CAP if n > 12 else min(delta(n, r), COUNT_CAP)


def capped_diagrams(n: int, max_rank: int | None = None) -> int:
    """min(count, COUNT_CAP) for the diagrams of degree n >= 0, of rank at
    most ``max_rank`` if given.  Summed from the top rank down, so a huge
    degree costs one term; |B_11| = 21!! exceeds the cap."""
    if max_rank is None or max_rank >= n:
        return COUNT_CAP if n > 10 else double_factorial(2 * n - 1)
    top = max_rank - (n - max_rank) % 2
    return capped_sum(capped_delta(n, s) for s in range(top, -1, -2))


def capped_sum(counts) -> int:
    """min(sum, COUNT_CAP) of non-negative counts; no count is drawn once
    the sum reaches the cap."""
    total = 0
    for count in counts:
        total += count
        if total >= COUNT_CAP:
            return COUNT_CAP
    return total


def gh_degree(n: int, r: int) -> int:
    """The common degree b of the Graham-Houghton graph of D_r, 0 < r < n:
    2^k * r(r+1)...(r+k-1) with k = (n - r) / 2.  A kernel with k upper
    hooks meets b cokernels whose H-class holds a twisted idempotent.

    >>> [gh_degree(4, 2), gh_degree(5, 3), gh_degree(7, 1)]
    [4, 6, 48]
    """
    _check_rank_param(n, r)
    _check_proper_rank(n, r, "the Graham-Houghton degree")
    k = (n - r) // 2
    return 2**k * math.prod(range(r, r + k))


@dataclass(frozen=True)
class IdealSpec:
    """A canonical finite union of principal ideals I(r_1;k_1) u ... u I(r_s;k_s).

    Canonical form is an antichain with r_1 > ... > r_s and k_1 > ... > k_s;
    use :func:`ideal_normalize` to build one from arbitrary terms.
    """

    degree: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_degree(self.degree)
        for r, k in self.terms:
            _check_term(self.degree, r, k)
        ranks = [r for r, _ in self.terms]
        twists = [k for _, k in self.terms]
        if ranks != sorted(ranks, reverse=True) or len(set(ranks)) != len(ranks):
            raise DiagramError("term ranks must be strictly decreasing")
        if twists != sorted(twists, reverse=True) or len(set(twists)) != len(twists):
            raise DiagramError("term twists must be strictly decreasing")

    def is_principal(self) -> bool:
        return len(self.terms) == 1

    def to_text(self) -> str:
        if not self.terms:
            return "I()"
        return " + ".join(f"I({r};{k})" for r, k in self.terms)

    def to_json_obj(self) -> dict:
        return {"n": self.degree, "terms": [list(t) for t in self.terms]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def ideal_normalize(degree: int, terms) -> IdealSpec:
    """Drop dominated terms and sort into the canonical antichain.

    A term (r, k) is dominated by (q, l) when r <= q and k >= l, since then
    I(r;k) is contained in I(q;l).
    """
    _check_degree(degree)
    terms = [(int(r), int(k)) for r, k in terms]
    for r, k in terms:
        _check_term(degree, r, k)
    kept = []
    for r, k in sorted(set(terms), key=lambda t: (-t[0], t[1])):
        if not any(r <= q and k >= l for q, l in kept):
            kept.append((r, k))
    return IdealSpec(degree, tuple(kept))


def ideal_contains(spec: IdealSpec, x) -> bool:
    """Membership: some term (r, k) has rank(x) <= r and twist(x) >= k."""
    x = as_twisted(x)
    _check_degrees(x, spec)
    return any(x.rank <= r and x.twist >= k for r, k in spec.terms)


def ideal_subset(left: IdealSpec, right: IdealSpec) -> bool:
    """Containment of ideals: every left term is dominated by a right term."""
    _check_degrees(left, right)
    return all(
        any(r <= q and k >= l for q, l in right.terms) for r, k in left.terms
    )


def ideal_equal(left: IdealSpec, right: IdealSpec) -> bool:
    return left.degree == right.degree and left.terms == right.terms


_IDEAL_TERM = re.compile(r"\s*I\s*\(\s*(\d+)\s*;\s*(\d+)\s*\)\s*")
_IDEAL_EMPTY = re.compile(r"\s*(I\s*\(\s*\))?\s*")


def parse_ideal(text: str, degree: int) -> IdealSpec:
    """Parse the text form ``I(5;2) + I(3;4)`` (terms in any order), or
    ``I()`` or nothing for the empty ideal.  Any whitespace may pad the
    tokens; anything else in the text is an error."""
    terms = []
    if not _IDEAL_EMPTY.fullmatch(text):
        for part in text.split("+"):
            m = _IDEAL_TERM.fullmatch(part)
            if m is None:
                raise DiagramError(f"unparsable ideal: {text!r}")
            terms.append((int(m.group(1)), int(m.group(2))))
    return ideal_normalize(degree, terms)


# ---------------------------------------------------------------------------
# Constructive lemmas
# ---------------------------------------------------------------------------


def _bottoms_and_hooks(alpha: BrauerDiagram) -> tuple[list[int], list[tuple[int, int]]]:
    """alpha's transversal bottoms in top order and its lower hooks in
    canonical order, 0-based: top v is index v, bottom v' is n + v."""
    n, p = alpha.degree, alpha.pairing
    return ([q - n for q in p[:n] if q >= n],
            [(x - n, p[x] - n) for x in range(n, 2 * n) if x < p[x]])


def _links(chain):
    """The upper hooks d_m - c_{m+1} along consecutive hooks (c_m, d_m) of ``chain``."""
    return [(d, c) for (_, d), (c, _) in zip(chain, chain[1:])]


def _pairing(n, through, chain, lower, blocks):
    """The diagram with through-lines v - v' for v in ``through``, the upper
    hooks ``_links(chain)``, the lower hooks ``lower`` and the point-index
    pairs ``blocks``; all vertices 0-based.  The caller covers each point
    exactly once; a point left unpaired raises DiagramError."""
    return _from_pairs(n, blocks + [(v, n + v) for v in through] + _links(chain)
                       + [(n + c, n + d) for c, d in lower])


def lemma_rank_drop(alpha: BrauerDiagram) -> tuple[BrauerDiagram, BrauerDiagram]:
    """Diagrams (b, g) of rank r+2 with b*g = alpha and no floating component.

    Requires rank(alpha) <= n - 4.  b is alpha with its first hook pair
    promoted to two transversals; g repairs the bottom row with a chain of
    shifted hooks so that the product closes back up without cycles.
    """
    n, p = alpha.degree, alpha.pairing
    bottoms, C = _bottoms_and_hooks(alpha)
    if len(bottoms) > n - 4:
        raise PreconditionError(f"rank {len(bottoms)} exceeds {n} - 4; cannot drop from above")
    # b: the first upper hook (a, e) and the first lower hook (c, d) become a - c', e - d'
    a = next(x for x in range(n) if x < p[x] < n)
    (c, d), e = C[0], p[a]
    beta = [(x, p[x]) for x in range(2 * n) if x < p[x] and x != a and x != n + c]
    gamma = _pairing(n, bottoms, C[1:], C[:1] + C[2:],
                     [(C[1][0], n + C[1][0]), (C[-1][1], n + C[1][1]), C[0]])
    return _from_pairs(n, beta + [(a, n + c), (e, n + d)]), gamma


def lemma_twist_raise(alpha: BrauerDiagram) -> BrauerDiagram:
    """A diagram b of the same rank with alpha*b = alpha and tau = 1.

    Requires alpha outside the unit group.  The upper hooks of b chain
    alpha's lower hooks with one long bridging hook, closing a single
    middle cycle in the product.
    """
    n = alpha.degree
    bottoms, C = _bottoms_and_hooks(alpha)
    if len(bottoms) == n:
        raise PreconditionError("units admit no twist-raising right identity")
    return _pairing(n, bottoms, C, C, [(C[0][0], C[-1][1])])


def lemma_twist_keep(alpha: BrauerDiagram) -> BrauerDiagram:
    """A diagram b with alpha*b = alpha and tau = 0.

    Requires alpha outside the unit group.  For positive rank, b lies in
    the D-class of alpha and threads the hook chain through the last
    transversal; for rank 0, b has rank 2 and threads it through the
    first and last lower-hook vertices.
    """
    n = alpha.degree
    bottoms, C = _bottoms_and_hooks(alpha)
    if len(bottoms) == n:
        raise PreconditionError("units are excluded from the twist-keeping lemma")
    if bottoms:
        *keep, last = bottoms
        return _pairing(n, keep, C, C, [(C[-1][1], n + last), (last, C[0][0])])
    return _pairing(n, [], C, C[1:], [(C[0][0], n + C[0][0]), (C[-1][1], n + C[0][1])])


# ---------------------------------------------------------------------------
# Absorbing a transposition into twisted idempotents
# ---------------------------------------------------------------------------


def idempotent_factor_sigma(
    alpha: BrauerDiagram, i: int, j: int
) -> list[BrauerDiagram]:
    """Twisted idempotents whose chain after alpha realises alpha * sigma_ij.

    Returns a list B of at most two twisted idempotents of the same rank
    as alpha such that the star chain alpha * B[0] * ... equals
    (0, alpha sigma_ij).  There are four cases by the position of {i, j}
    relative to the codomain and cokernel of alpha: two codomain vertices
    need two idempotents, mixed or split hook vertices need one, and a
    cokernel hook is absorbed outright (empty list).  Requires
    0 < rank(alpha) < n.

    Each idempotent is stated by its hooks alone, read from alpha's
    pairing, and built by the path rule (``_hook_idempotent``).  The lower
    hooks, with the one or two holding i or j moved to the front, are
    strung into a chain of upper hooks d_m - c_{m+1} (``_links``); one
    more upper hook and one or two lower hooks at i, j and the chain's
    ends close it up.
    """
    n, p = alpha.degree, alpha.pairing
    bottoms, hooks = _bottoms_and_hooks(alpha)  # 0-based from here on
    r = len(bottoms)
    _check_proper_rank(n, r, "the absorption of sigma_ij")
    if not 1 <= i < j <= n:
        raise PreconditionError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    i, j = i - 1, j - 1
    i_codom, j_codom = p[n + i] < n, p[n + j] < n

    if i_codom and j_codom:  # two idempotents are needed
        links, (c0, _), (cl, dl) = _links(hooks), hooks[0], hooks[-1]
        return [_hook_idempotent(n, links + [(j, c0)], hooks[:-1] + [(i, cl)]),
                _hook_idempotent(n, links + [(i, dl)], hooks)]
    if i_codom or j_codom:  # u is in the codomain, v sits in a lower hook
        u, v = (i, j) if i_codom else (j, i)
        w = p[n + v] - n
        rest = [h for h in hooks if v not in h]
        return [_hook_idempotent(n, _links([(v, w)] + rest) + [(u, v)], rest + [(u, w)])]
    if p[n + i] == n + j:
        return []  # sigma_ij permutes a lower hook of alpha: alpha sigma_ij = alpha
    # i and j sit in two different lower hooks
    oi, oj = p[n + i] - n, p[n + j] - n
    rest = [h for h in hooks if i not in h and j not in h]
    return [_hook_idempotent(n, _links([(oi, i), (j, oj)] + rest) + [(bottoms[-1], oi)],
                             rest + [(oi, j), (i, oj)])]


# ---------------------------------------------------------------------------
# The rank table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealRank:
    """Rank data of a principal ideal (four regimes by r and k)."""

    degree: int
    term: tuple[int, int]
    rank: int
    idempotent_generated: bool
    idrank: int | None

    def to_json_obj(self) -> dict:
        return {
            "n": self.degree,
            "r": self.term[0],
            "k": self.term[1],
            "rank": self.rank,
            "idempotent_generated": self.idempotent_generated,
            "idrank": self.idrank,
        }


def rank_of_ideal(n: int, r: int, k: int) -> IdealRank:
    """Smallest generating-set size of I(r;k), for degree n >= 3.

    The value is 4 at the top (r = n, k = 0), rho(n, r) for the proper
    idempotent-generated ideals (0 < r < n, k = 0), and otherwise the size
    of the grid M(r;k): (k + [r = 0]) * sum of delta(n, s) over s in I(r).
    Only the 0 < r < n, k = 0 ideals are idempotent-generated, and there
    the idempotent rank equals the rank.

    A rank longer than Python's int-to-text limit (if set) is refused: by an
    lgamma estimate where its leading term has twice as many digits, else exactly.
    """
    _check_degree_3(n, "the rank table")
    _check_term(n, r, k)
    max_digits = sys.get_int_max_str_digits()
    h = (n - r) // 2  # ln rho(n, r) = ln n! - ln r! - h ln 2 - ln h!
    try:
        log_lead = math.lgamma(n + 1) - math.lgamma(r + 1) - h * math.log(2) - math.lgamma(h + 1)
        if not k == 0 < r:
            log_lead = math.log(k + (r == 0)) + 2 * log_lead + math.lgamma(r + 1)
    except OverflowError:  # a parameter past the float range
        log_lead = math.inf
    if max_digits and log_lead > 2 * max_digits * math.log(10):
        value = None  # refused uncomputed
    elif k == 0 and r == n:
        value = 4
    elif k == 0 and 0 < r < n:
        value = rho(n, r)
    else:  # the M(r;k) grid: twists k to 2k, 2k itself only at r = 0
        value = (k + (r == 0)) * sum(delta(n, s) for s in index_set(r))
    if max_digits and (value is None or value >= 10**max_digits):
        raise DiagramError(f"rank of I({r};{k}) in degree {n} refused: it has more than "
                           f"{max_digits} digits, the int-to-text limit")
    ig = 0 < r < n and k == 0
    return IdealRank(n, (r, k), value, ig, value if ig else None)
