"""
Exhaustive iteration over Brauer diagrams, D-classes, idempotents and
twist-bounded closures.

Everything here is the brute-force side of a dual route: streams are
deterministic and restartable, and closures and the divisibility oracle
rest on one Cayley-graph engine, so the structural characterisations of
Green's pre-orders can be checked against plain products.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .diagram import (BrauerDiagram, DiagramError, _check_degree, _raw_diagram, identity,
                      make_diagram, permutation_diagram, transposition)
from .ideals import _check_rank_param, capped_delta, capped_diagrams, check_cost, index_set
from .twisted import TwistedElement, as_twisted, is_idempotent_plain, is_idempotent_twisted, star

def _check_size(n: int, r: int | None = None) -> None:
    """Refuse a negative degree, or a stream of the (2n-1)!! diagrams of degree n,
    or of the delta(n, r) of rank r, that costs more than the budget."""
    _check_degree(n)
    check_cost(f"enumeration of degree {n}", "streamed diagram",
               capped_diagrams(n) if r is None else capped_delta(n, r))


def _matchings(pairing: list[int], free: list[int], hooks: int):
    """Every set of ``hooks`` disjoint pairs on the points ``free``, written
    into the shared array ``pairing`` (each pair both ways, a point left
    single as -1), which is yielded as is.  The first free point is left
    single before it is paired with each later point, so with every point
    paired the arrays come out lexicographically sorted."""
    if not hooks:
        for p in free:
            pairing[p] = -1
        yield pairing
        return
    first, rest = free[0], free[1:]
    if len(rest) >= 2 * hooks:
        pairing[first] = -1
        yield from _matchings(pairing, rest, hooks)
    for idx, partner in enumerate(rest):
        pairing[first], pairing[partner] = partner, first
        yield from _matchings(pairing, rest[:idx] + rest[idx + 1 :], hooks - 1)


def all_diagrams(n: int):
    """All (2n-1)!! diagrams of degree n, in canonical (sorted) order.

    The smallest unpaired point is repeatedly joined to each larger
    unpaired point, so the pairing arrays come out lexicographically
    sorted without any post-processing.

    >>> [sum(1 for _ in all_diagrams(n)) for n in range(5)]
    [1, 1, 3, 15, 105]
    """
    _check_size(n)
    for pairing in _matchings([0] * (2 * n), list(range(2 * n)), n):
        yield _raw_diagram(n, tuple(pairing))


def all_diagrams_split(n: int, first_partner: int):
    """The slice of all_diagrams(n) where point 0 pairs with ``first_partner``.

    The slices over first partners 1..2n-1 partition the full stream and
    each is independently restartable, so they can be consumed in parallel.
    """
    _check_size(n)
    if not 1 <= first_partner < 2 * n:
        raise DiagramError(f"first partner {first_partner} out of range")
    pairing = [0] * (2 * n)
    pairing[0], pairing[first_partner] = first_partner, 0
    free = [p for p in range(1, 2 * n) if p != first_partner]
    for full in _matchings(pairing, free, n - 1):
        yield _raw_diagram(n, tuple(full))


def hook_patterns(n: int, r: int):
    """All rho(n, r) ways to choose (n-r)/2 disjoint hooks on [n],
    as (hooks, leftover) with both parts sorted."""
    _check_rank_param(n, r)
    for pairing in _matchings([-1] * n, list(range(n)), (n - r) // 2):
        yield ([(a + 1, b + 1) for a, b in enumerate(pairing) if a < b],
               [a + 1 for a, b in enumerate(pairing) if b < 0])


def d_class(n: int, r: int):
    """All delta(n, r) diagrams of rank r: every choice of upper hooks,
    lower hooks and transversal bijection.  Each pairing is an involution
    by construction, so the diagrams skip validation.

    The order is part of the contract: the stream runs through the pairs
    of hook_patterns(n, r) (the rows below, in the same order), upper hooks
    in the outer loop and lower hooks in the inner one, and yields a block
    of r! bijections for each pair.
    So diagram k has the upper hooks (kernel) of pattern
    (k // r!) // rho(n, r) and the lower hooks (cokernel) of pattern
    (k // r!) % rho(n, r).

    >>> [hooks for hooks, _ in hook_patterns(3, 1)]
    [[(2, 3)], [(1, 2)], [(1, 3)]]
    >>> [(d.top_hooks(), d.bottom_hooks()) for d in d_class(3, 1)][:4]
    [([(2, 3)], [(2, 3)]), ([(2, 3)], [(1, 2)]), ([(2, 3)], [(1, 3)]), ([(1, 2)], [(2, 3)])]
    """
    _check_size(n, r)
    rows = [list(p) for p in _matchings([-1] * n, list(range(n)), (n - r) // 2)]
    for upper in rows:
        tops = [v for v in range(n) if upper[v] < 0]
        for lower in rows:
            # one list per block: every bijection rewrites all 2r
            # transversal slots, so the hook slots are written once
            pairing = upper + [n + v for v in lower]
            for image in itertools.permutations([n + v for v in range(n) if lower[v] < 0]):
                for x, y in zip(tops, image):
                    pairing[x], pairing[y] = y, x
                yield _raw_diagram(n, tuple(pairing))


def truncation(n: int, twists, max_rank: int | None = None) -> list[TwistedElement]:
    """The elements (i, d), i in ``twists`` and d of degree n and rank at most
    ``max_rank``: twist by twist, each over one pool of D-classes, lowest first."""
    _check_degree(n)
    pool = [d for s in index_set(n) if max_rank is None or s <= max_rank for d in d_class(n, s)]
    return [TwistedElement(i, d) for i in twists for d in pool]


def idempotents(n: int, twisted: bool = True):
    """Stream of idempotent diagrams; the twisted ones are those whose
    square also creates no floating component."""
    test = is_idempotent_twisted if twisted else is_idempotent_plain
    for d in all_diagrams(n):
        if test(d):
            yield d


# one rng.randrange call draws the digits of a whole run; below 2**62 the
# index fits two 32-bit words and decodes with small-int divmod
_RUN_LIMIT = 1 << 62


@functools.lru_cache(maxsize=64)
def _digit_runs(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The radices 2n-1, 2n-3, ..., 3 of a degree-n matching, cut in order
    into runs whose product stays below _RUN_LIMIT, as (product, radices)."""
    runs = []
    product, radices = 1, []
    for radix in range(2 * n - 1, 2, -2):
        if product * radix >= _RUN_LIMIT:
            runs.append((product, tuple(radices)))
            product, radices = 1, []
        product *= radix
        radices.append(radix)
    if radices:
        runs.append((product, tuple(radices)))
    return tuple(runs)


def random_diagram(n: int, rng: random.Random) -> BrauerDiagram:
    """A uniformly random diagram, drawn as its mixed-radix digits.

    A perfect matching on 2n points is a sequence of digits in the radices
    2n-1, 2n-3, ..., 3, 1: each digit picks, among the points still free,
    the partner of the last free point.  The digits of each run of
    _digit_runs come from one rng.randrange call over the run's product,
    so every one of the (2n-1)!! diagrams is equally likely.
    """
    free = list(range(2 * n))
    pairing = [0] * (2 * n)
    for product, radices in _digit_runs(n):
        k = rng.randrange(product)
        for radix in radices:  # radix + 1 points are free
            k, d = divmod(k, radix)
            p, q = free[radix], free[d]
            free[d] = free[radix - 1]  # the last point still free fills q's slot
            pairing[p], pairing[q] = q, p
    if n > 0:  # radix 1: the two points left pair up
        p, q = free[1], free[0]
        pairing[p], pairing[q] = q, p
    return BrauerDiagram(n, tuple(pairing))


class CayleyGraph:
    """The semigroup generated by ``generators`` under an associative
    ``product``, with its right and left Cayley graphs, by the algorithm of
    Froidure & Pin, "Algorithms for computing finite semigroups" (1997).

    Every element has a shortest word over the generator indices, the least
    in short-lex order.  ``elements`` lists the elements in short-lex order
    of these words and ``index`` maps each to its position.
    ``right[i][j]`` is the position of ``elements[i] * generators[j]`` and
    ``left[i][j]`` that of ``generators[j] * elements[i]``, or None where the
    product fails ``keep`` and is dropped; any drop clears ``complete``.  A
    duplicate generator gets its own column, but no element of its own.

    ``keep`` must hold of every factor of a kept product: a product with a
    dropped factor is dropped as well.  Then no element is missed, since
    every prefix of a kept word is kept, and a dropped entry may be copied
    from the entry it is rewritten to without computing its product.

    The words are found one length at a time.  Let x = a * s, where a is
    the first letter of x's word and s the element of the rest of it.  If
    t = s * g has a shortest word other than word(s) + g, then
    x * g = a * prefix(t) * last(t) is read off the left row of prefix(t)
    and a right row that is complete already, or is x's own row at an
    earlier column.  Only where word(s) + g is a shortest word is
    ``product`` called.  The left graph of each length is then filled with
    no products at all: g * (p * b) = (g * p) * b.
    """

    def __init__(self, generators, product, keep=None):
        gens = list(generators)
        self.elements: list = []
        self.index: dict = {}
        # each element's word: its prefix, last letter, first letter and rest
        self._words: list[tuple[int, int, int, int]] = []
        elements, index, words = self.elements, self.index, self._words
        for j, g in enumerate(gens):
            if g not in index:
                index[g] = len(elements)
                elements.append(g)
                words.append((-1, j, j, -1))
        column = [index[g] for g in gens]  # the element of each generator
        right: list[list[int | None]] = []
        left: list[list[int | None]] = []
        self.right, self.left, self.complete = right, left, True
        start = 0
        while start < len(elements):
            end = len(elements)  # the words of one length
            for i in range(start, end):
                x, (_, _, a, s) = elements[i], words[i]
                row: list[int | None] = [None] * len(gens)
                right.append(row)
                for j, g in enumerate(gens):
                    if s >= 0:
                        t = right[s][j]
                        if t is None:
                            continue
                        p, b = words[t][:2]
                        if p != s or b != j:
                            y = column[a] if p < 0 else left[p][a]
                            row[j] = None if y is None else right[y][b]
                            continue
                    z = product(x, g)
                    if keep is None or keep(z):
                        k = row[j] = index.setdefault(z, len(elements))
                        if k == len(elements):
                            elements.append(z)
                            words.append((i, j, a, column[j] if s < 0 else t))
                if None in row:
                    self.complete = False
            for i in range(start, end):
                p, b = words[i][:2]
                prefix_row = column if p < 0 else left[p]
                left.append([None if y is None else right[y][b] for y in prefix_row])
            start = end


@dataclass(frozen=True)
class ClosureResult:
    """A twist-bounded closure: the reachable elements with twist <= bound,
    and whether the bound was ever hit (if not, the set is a genuine
    subsemigroup, not just a truncation)."""

    bound: int
    elements: frozenset[TwistedElement]
    saturated_within_bound: bool


def bounded_closure(generators, twist_bound: int) -> ClosureResult:
    """Close a generator set under the star product, discarding any product
    whose twist exceeds ``twist_bound``.

    Twist never falls along a product, so every prefix of a word within
    the bound is itself within it and the Cayley graph misses nothing.
    Terminates because the closure lies in the twists from the least generator
    twist to the bound, at ranks up to the greatest generator rank, where its
    products must fit the budget.  Monotone in the bound and the generator set.
    """
    if twist_bound < 0:
        raise DiagramError(f"bound must be at least 0, got {twist_bound}")
    gens = [as_twisted(g) for g in generators]
    if any(g.twist > twist_bound for g in gens):
        raise DiagramError("twist bound lies below a generator's twist")
    if gens:
        n, least = gens[0].degree, min(g.twist for g in gens)
        size = (twist_bound + 1 - least) * capped_diagrams(n, max(g.rank for g in gens))
        check_cost(f"closure of degree {n}", "closure product", size * len(gens), size)
    graph = CayleyGraph(gens, star, keep=lambda p: p.twist <= twist_bound)
    return ClosureResult(twist_bound, frozenset(graph.elements), graph.complete)


def plain_closure(generators) -> frozenset[BrauerDiagram]:
    """Close a set of diagrams under the plain (untwisted) product."""
    return frozenset(CayleyGraph(generators, BrauerDiagram.__mul__).elements)


def _component_reach(succ: list[list[int]]) -> tuple[list[int], list[int]]:
    """The strongly connected components of the graph in which vertex v
    leads to the vertices in ``succ[v]``, found by one iterative pass of
    Tarjan's algorithm (SIAM J. Comput. 1972), with the reach mask of each
    component: a bit for every vertex reached from it.

    Returns the component of each vertex and the mask of each component.
    Tarjan closes the components in reverse topological order, so each
    mask is its own members OR the masks of the components its edges lead
    to, all of which are closed already.  Those components are noted on a
    stack of links, which a closing component empties down to where it
    stood when the component's root was visited.
    """
    size = len(succ)
    order = [0] * size  # discovery number, from 1; 0 until visited
    low = [0] * size
    component = [-1] * size  # -1 while on the stack
    masks: list[int] = []
    stack: list[int] = []
    links: list[int] = []  # closed components that edges from the stack lead to
    number = itertools.count(1).__next__
    for root in range(size):
        if order[root]:
            continue
        order[root] = low[root] = number()
        stack.append(root)
        work = [(root, iter(succ[root]), 0)]
        while work:
            v, successors, mark = work[-1]
            for w in successors:
                if not order[w]:
                    order[w] = low[w] = number()
                    stack.append(w)
                    work.append((w, iter(succ[w]), len(links)))
                    break
                if component[w] >= 0:
                    links.append(component[w])
                elif order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    c, bits, w = len(masks), bytearray(size // 8 + 1), -1
                    while w != v:
                        w = stack.pop()
                        component[w] = c
                        bits[w >> 3] |= 1 << (w & 7)
                    mask = int.from_bytes(bits, "little")
                    for d in set(links[mark:]):
                        mask |= masks[d]
                    del links[mark:]
                    masks.append(mask)
                if work:
                    u = work[-1][0]
                    if component[v] >= 0:
                        links.append(component[v])
                    elif low[v] < low[u]:
                        low[u] = low[v]
    return component, masks


class DivisibilityOracle:
    """Green's pre-orders on one degree, as reachability in Cayley graphs.

    B_n is enumerated from the identity, a transposition, an n-cycle and
    one hook.  alpha <=_R beta when alpha is reached from beta in the right
    Cayley graph, <=_L in the left one and <=_J in their union; the first
    query of each relation finds the components of its graph and their
    reach masks, which answer every later query.  It never
    consults kernels or ranks: this is the independent route the
    characterisations are verified against.  It checks itself by reaching
    all (2n-1)!! diagrams, and holds no more than the budget allows.
    """

    def __init__(self, n: int):
        _check_degree(n)
        size = capped_diagrams(n)
        check_cost(f"divisibility oracle of degree {n}", "oracle diagram", size, size)
        gens = [identity(n)]
        if n >= 2:
            gens += [
                transposition(n, 1, 2),
                permutation_diagram(n, list(range(2, n + 1)) + [1]),
                make_diagram(n, [(1, 2), (-1, -2)] + [(i, -i) for i in range(3, n + 1)]),
            ]
        graph = CayleyGraph(gens, BrauerDiagram.__mul__)
        self.n = n
        self.diagrams = graph.elements
        if len(self.diagrams) != size:
            raise DiagramError(f"reached {len(self.diagrams)} of {size} diagrams")
        self._index = graph.index
        self._right, self._left = graph.right, graph.left
        self._reach: dict[str, tuple[list[int], list[int]]] = {}

    def _reaches(self, rel: str, alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
        """Whether alpha is reached from beta, read off the reach mask of
        beta's strongly connected component in the graph of ``rel``, which
        is searched once, on its first query."""
        reach = self._reach.get(rel)
        if reach is None:
            right, left = self._right, self._left
            succ = {"R": right, "L": left}.get(rel) or [r + l for r, l in zip(right, left)]
            reach = self._reach[rel] = _component_reach(succ)
        component, masks = reach
        return bool(masks[component[self._index[beta]]] >> self._index[alpha] & 1)

    def leq_R(self, alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
        """Whether alpha = beta * d for some diagram d."""
        return self._reaches("R", alpha, beta)

    def leq_L(self, alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
        """Whether alpha = g * beta for some diagram g."""
        return self._reaches("L", alpha, beta)

    def leq_J(self, alpha: BrauerDiagram, beta: BrauerDiagram) -> bool:
        """Whether alpha = g * beta * d for some diagrams g, d."""
        return self._reaches("J", alpha, beta)
