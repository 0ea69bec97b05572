"""
Graham-Houghton graphs, generating sets, the singular ideal and
idempotent generation.

The Graham-Houghton graph of a rank-r D-class is bipartite: one side per
R-class (indexed by its kernel, a set of upper hooks), one per L-class
(by its cokernel, a set of lower hooks), with an edge wherever the
intersection H-class contains a twisted idempotent.  When such a graph is connected, balanced and
satisfies the Strong Hall Condition, the rank and idempotent rank of the
ideal generated by the D-class both equal the common side size, and an
explicit generating set of that size is read off a perfect matching;
``generating_set`` gives the minimal generating set of any principal ideal.

This module also carries the end-to-end factorization of any singular
diagram into twisted idempotents whose chain product creates no floating
components at all.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .diagram import (BrauerDiagram, DiagramError, _raw_diagram, identity, permutation_diagram,
                      transposition)
from .green import canonical_idempotent
from .ideals import (IdealSpec, _bottoms_and_hooks, _check_least_degree, _check_proper_rank,
                     _check_rank_ceiling, _links, capped_delta, capped_diagrams, check_cost,
                     idempotent_factor_sigma, lemma_rank_drop, rho)
from .twisted import TwistedElement, _hook_idempotent, _square_walk, as_twisted, is_idempotent_twisted
from . import enumeration

SUBSET_ORACLE_LIMIT = 16  # the largest |J| whose 2^|J| subsets the subset oracle walks


@dataclass(frozen=True)
class GHGraph:
    """Bipartite Graham-Houghton graph of the rank-r D-class in degree n.

    Kernels and cokernels of a D-class range over the same hook sets, so
    ``signatures`` (each a sorted hook tuple, in sorted order) indexes both
    sides.  The edges are an int adjacency in compressed sparse row form:
    kernel l meets the cokernels ``edges[starts[l]:starts[l + 1]]``, each
    row increasing, so ``len(edges)`` counts the edges.  The twisted
    idempotent of an edge's H-class is built on demand by ``idempotent``.
    """

    degree: int
    rank: int
    signatures: tuple[tuple[tuple[int, int], ...], ...]
    starts: array  # array("i"), one more entry than signatures
    edges: array  # array("i") of cokernel indices

    def neighbors(self, li: int) -> array:
        """Cokernel neighbours of kernel vertex ``li``, in increasing order."""
        return self.edges[self.starts[li]:self.starts[li + 1]]

    def idempotent(self, li: int, ri: int) -> BrauerDiagram:
        """The twisted idempotent of the H-class of kernel ``li`` and
        cokernel ``ri``, built from the two hook sets by the path rule
        (``twisted._hook_idempotent``); a non-edge raises DiagramError."""
        size = len(self.signatures)
        if not (0 <= li < size and 0 <= ri < size):
            raise DiagramError(f"({li}, {ri}) is not a vertex pair of the graph")
        return _hook_idempotent(self.degree, [(a - 1, b - 1) for a, b in self.signatures[li]],
                                [(c - 1, d - 1) for c, d in self.signatures[ri]])

    def common_degree(self) -> int | None:
        """The shared vertex degree if the graph is regular, else None."""
        starts = self.starts
        counts = [0] * len(self.signatures)  # cokernel vertices
        for r in self.edges:
            counts[r] += 1
        degrees = set(counts).union(b - a for a, b in zip(starts, starts[1:]))
        return degrees.pop() if len(degrees) == 1 else None

    def is_connected(self) -> bool:
        """Whether the edges, taken both ways, leave one component or none."""
        size = len(self.signatures)
        adj = [array("i", [size + r for r in self.neighbors(l)]) for l in range(size)]
        adj += [array("i") for _ in range(size)]
        for l in range(size):
            for r in self.neighbors(l):
                adj[size + r].append(l)
        return len(enumeration._component_reach(adj)[1]) <= 1

    def to_dot(self) -> str:
        """DOT rendering; vertices carry their hooks, e.g. ``(1,2)(3,4)``."""
        labels = ["".join(f"({a},{b})" for a, b in sig) or "()" for sig in self.signatures]
        lines = ["graph graham_houghton {", "  rankdir=LR;"]
        lines += [f'  L{i} [label="ker {s}" shape=box];' for i, s in enumerate(labels)]
        lines += [f'  R{i} [label="coker {s}" shape=ellipse];' for i, s in enumerate(labels)]
        for l in range(len(labels)):
            lines.extend(f"  L{l} -- R{r};" for r in self.neighbors(l))
        lines.append("}")
        return "\n".join(lines)


def build_gh_graph(n: int, r: int) -> GHGraph:
    """Enumerate the twisted idempotents of the rank-r D-class and record
    each one's (kernel, cokernel) pair.  Requires n >= 3 and 0 < r < n, and
    refuses a D-class whose delta(n, r) candidates cost more than the budget.

    Each candidate's H-class is read off its place in the d_class stream
    (whose docstring fixes the block order), so no kernel is computed from
    a diagram, and only the two signature indices are kept."""
    _check_least_degree(n, "the Graham-Houghton analysis")
    _check_proper_rank(n, r, "the Graham-Houghton analysis")
    check_cost(f"Graham-Houghton graph of D_{r} in degree {n}", "GH candidate",
               capped_delta(n, r))
    patterns = [tuple(hooks) for hooks, _ in enumeration.hook_patterns(n, r)]
    signatures = tuple(sorted(patterns))
    index = {hooks: i for i, hooks in enumerate(signatures)}
    position = [index[hooks] for hooks in patterns]  # pattern -> signature index
    block, side = math.factorial(r), len(patterns)
    rows = [array("i") for _ in signatures]  # cokernels per kernel, in stream order
    for k, d in enumerate(enumeration.d_class(n, r)):
        if _square_walk(d) == n:  # a twisted idempotent
            upper, lower = divmod(k // block, side)
            row, c = rows[position[upper]], position[lower]
            # an H-class is one block of the stream, so a repeat is adjacent
            if row and row[-1] == c:
                raise DiagramError("an H-class contained two idempotents")
            row.append(c)
    starts, edges = array("i", [0]), array("i")
    for row in rows:
        edges.extend(sorted(row))
        starts.append(len(edges))
    return GHGraph(n, r, signatures, starts, edges)


def perfect_matching(graph: GHGraph) -> dict[int, int] | None:
    """A perfect matching left -> right via augmenting paths, or None.

    Deterministic: left vertices and neighbor lists are scanned in
    canonical signature order.  Each search is a depth-first search on an
    explicit stack, so path length is not bounded by the recursion limit.
    """
    size = len(graph.signatures)
    masks = [sum(1 << r for r in graph.neighbors(l)) for l in range(size)]
    match_right: dict[int, int] = {}
    for root in range(size):
        # rows and unbanned vertices are bitmasks; a frame's next candidate is
        # the lowest unbanned vertex of its row, since rows increase and every
        # vertex a frame has passed is already banned
        unbanned = (1 << size) - 1
        stack = [root]
        path: list[int] = []  # the right vertex taken from each stack frame
        while stack:
            free = masks[stack[-1]] & unbanned
            if not free:  # this frame is exhausted: back up one step
                stack.pop()
                if path:
                    path.pop()
                continue
            low = free & -free
            unbanned ^= low
            r = low.bit_length() - 1
            path.append(r)
            if r in match_right:
                stack.append(match_right[r])
                continue
            for l, r in zip(stack, path):  # flip the augmenting path
                match_right[r] = l
            break
        else:
            return None
    return {l: r for r, l in match_right.items()}


def strong_hall_check(graph: GHGraph) -> bool:
    """Strong Hall Condition: |N(H)| > |H| for every proper nonempty H.

    Decided in polynomial time: a perfect matching must exist (otherwise
    Hall already fails), and given one, a proper tight set exists exactly
    when the digraph "l to matched partner of each neighbour" is not
    strongly connected.
    """
    size = len(graph.signatures)
    if size <= 1:
        return True  # no proper nonempty subsets; vacuously Strong Hall
    matching = perfect_matching(graph)
    if matching is None:
        return False
    inverse = {r: l for l, r in matching.items()}
    # lists, not sets: a row holds no repeat, and at (9, 1) the 945 sets
    # of 384 successors took 27 MB more
    succ = [[inverse[r] for r in graph.neighbors(l)] for l in range(size)]
    return len(enumeration._component_reach(succ)[1]) == 1


def strong_hall_subset_oracle(graph: GHGraph) -> bool:
    """The 2^|J| definition in O(|J|) ints, an independent check for small |J|."""
    size = len(graph.signatures)
    if size > SUBSET_ORACLE_LIMIT:
        raise DiagramError(f"subset oracle refused for |J| = {size} > {SUBSET_ORACLE_LIMIT}")
    masks = [sum(1 << r for r in graph.neighbors(l)) for l in range(size)]
    # level[t]: neighbourhood of the latest subset with lowest member t, and
    # level[-1] = 0 for the empty set.  In increasing order, S - low(S) is the
    # latest subset seen with its lowest member, so N(S) is one union away.
    level = [0] * (size + 1)
    for subset in range(1, (1 << size) - 1):
        low = subset & -subset
        rest = subset ^ low
        t = low.bit_length() - 1
        level[t] = level[(rest & -rest).bit_length() - 1] | masks[t]
        if level[t].bit_count() <= subset.bit_count():
            return False
    return True


@dataclass(frozen=True)
class GHReport:
    """Outcome of certifying rank = idrank = rho(n, r) for an ideal I(r;0)."""

    degree: int
    rank_param: int
    side_size: int
    expected_side: int
    balanced: bool
    common_degree: int | None
    connected: bool
    strong_hall: bool
    certified_rank: int | None

    @property
    def certified(self) -> bool:
        return self.certified_rank is not None

    def to_json_obj(self) -> dict:
        return {
            "n": self.degree,
            "r": self.rank_param,
            "side": self.side_size,
            "rho": self.expected_side,
            "balanced": self.balanced,
            "b": self.common_degree,
            "connected": self.connected,
            "strong_hall": self.strong_hall,
            "certified_rank": self.certified_rank,
        }


def rank_idrank_report(graph: GHGraph) -> GHReport:
    """Check the sufficient conditions (balanced, connected, Strong Hall,
    degree >= 2) on a built Graham-Houghton graph and certify rho(n, r)."""
    n, r = graph.degree, graph.rank
    expected = rho(n, r)
    balanced = len(graph.signatures) == expected
    b = graph.common_degree()
    hall = strong_hall_check(graph)
    # Strong Hall implies connectivity on two or more kernels; on one, an edge decides
    connected = hall and len(graph.edges) >= len(graph.signatures) or graph.is_connected()
    good = balanced and connected and hall and b is not None and b >= 2
    return GHReport(
        n, r, len(graph.signatures), expected, balanced, b, connected, hall,
        expected if good else None,
    )


def verify_rank_idrank(n: int, r: int) -> GHReport:
    """Build the Graham-Houghton graph of D_r and certify rho(n, r)."""
    return rank_idrank_report(build_gh_graph(n, r))


def idempotent_generating_set(n: int, r: int) -> list[TwistedElement]:
    """rho(n, r) twisted idempotents generating I(r;0), one per matched edge
    of a perfect matching of the Graham-Houghton graph.

    Which perfect matching is used is a free choice; this takes the one
    found by augmenting paths in canonical vertex order.
    """
    graph = build_gh_graph(n, r)
    matching = perfect_matching(graph)
    if matching is None:
        raise DiagramError(f"Graham-Houghton graph of D_{r} has no perfect matching")
    return [as_twisted(graph.idempotent(l, r)) for l, r in sorted(matching.items())]


@dataclass(frozen=True)
class GeneratingSet:
    """A generating set for a principal ideal, with its provenance."""

    kind: str  # "top-four" | "idempotent-matching" | "d-class-grid"
    elements: tuple[TwistedElement, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def generating_set(spec: IdealSpec) -> GeneratingSet:
    """The minimal generating set of a principal ideal, materialised.

    For the whole monoid (r = n, k = 0) this is a four-element set; for
    0 < r < n, k = 0 it is a set of rho(n, r) twisted idempotents read off
    a perfect matching of the Graham-Houghton graph; otherwise it is
    M(r;k), the grid of D-classes with twist between k and 2k (inclusive
    on both ends when r = 0, exclusive above otherwise).
    """
    if not spec.is_principal():
        raise DiagramError("generating sets are computed for principal ideals only")
    n = spec.degree
    (r, k), = spec.terms
    if k == 0 and r == n:
        _check_least_degree(n, "the four-generator description")
        check_cost(f"the four generators of degree {n}", "generator degree", n, n)
        cycle = permutation_diagram(n, list(range(2, n + 1)) + [1])
        elements = (
            as_twisted(transposition(n, 1, 2)),
            as_twisted(cycle),
            as_twisted(canonical_idempotent(n, n - 2)),
            TwistedElement(1, identity(n)),
        )
        return GeneratingSet("top-four", elements)
    if k == 0 and 0 < r < n:
        return GeneratingSet("idempotent-matching", tuple(idempotent_generating_set(n, r)))
    size = (k + (r == 0)) * capped_diagrams(n, r)
    check_cost(f"M({r};{k}) in degree {n}", "grid element", size, size)
    elements = tuple(enumeration.truncation(n, range(k, 2 * k + (r == 0)), r))
    return GeneratingSet("d-class-grid", elements)


def singular_rank(n: int) -> int:
    """Smallest generating set size of the singular ideal: C(n, 2) + n!."""
    _check_least_degree(n, "the singular rank formula")
    return math.comb(n, 2) + math.factorial(n)


def singular_generating_set(n: int) -> list[TwistedElement]:
    """A generating set of the singular ideal matching the rank formula:
    C(n, 2) idempotents for I(n-2;0) plus every unit at twist 1."""
    _check_least_degree(n, "the singular generating set")
    gens = idempotent_generating_set(n, n - 2)
    gens += [TwistedElement(1, u) for u in enumeration.d_class(n, n)]
    return gens


def ig_subsemigroup_rank(n: int) -> int:
    """Rank (= idempotent rank) of the idempotent-generated subsemigroup:
    C(n, 2) + 1."""
    _check_least_degree(n, "the idempotent-generated subsemigroup's rank")
    return math.comb(n, 2) + 1


def in_idempotent_generated(x) -> bool:
    """Membership in the subsemigroup generated by the twisted idempotents:
    the untwisted identity, plus everything of rank at most n - 2."""
    x = as_twisted(x)
    _check_least_degree(x.degree, "the idempotent-generated subsemigroup")
    return x.rank <= x.degree - 2 or x.twist == 0 and x.diagram == identity(x.degree)


# ---------------------------------------------------------------------------
# Factorization into twisted idempotents
# ---------------------------------------------------------------------------


def _transposition_factors(images: list[int]) -> list[tuple[int, int]]:
    """Transpositions (i, j), i < j, whose left-to-right product is the
    permutation v -> images[v] of 0, ..., n-1: a cycle (c_0 c_1 ... c_m)
    from its least point gives (c_(m-1), c_m), ..., (c_0, c_1)."""
    images = list(images)  # each point walked is marked fixed
    factors: list[tuple[int, int]] = []
    for start, v in enumerate(images):
        cycle = [start]
        while v != start:
            cycle.append(v)
            images[v], v = v, images[v]
        factors += [(min(a, b), max(a, b)) for a, b in zip(cycle[-2::-1], cycle[:0:-1])]
    return factors


def _swap_points(d: BrauerDiagram, a: int, b: int) -> BrauerDiagram:
    """``d`` with point indices a and b relabelled into each other.

    Swapping top points i and j is the product ``transposition(n, i, j) * d``;
    swapping bottom points i' and j' is ``d * transposition(n, i, j)``, which
    is how ``factor_into_idempotents`` moves its partial product on.  Two
    points joined by one block give d back."""
    p = d.pairing
    pa, pb = p[a], p[b]
    if pa == b:
        return d
    out = list(p)
    out[a], out[b] = pb, pa
    out[pa], out[pb] = b, a
    return _raw_diagram(d.degree, tuple(out))


def _kernel_idempotent(alpha: BrauerDiagram) -> tuple[BrauerDiagram, list[int]]:
    """The twisted idempotent eps on alpha's own kernel and domain, and the
    unit rho with alpha = eps * rho, as the list of its 0-based images.
    Requires 0 < rank < n.

    With transversal tops t_1 < ... < t_r and upper hooks (a_1, b_1), ...,
    (a_k, b_k) in canonical order, eps keeps those hooks and takes the
    lower hooks t_r' - a_1', b_1' - a_2', ..., b_{k-1}' - a_k'.  Their
    union is one path from t_r to b_k, so the path rule
    (``_hook_idempotent``) gives the lines t - t' for t < t_r and
    t_r - b_k'.  rho sends the m-th lower hook of eps onto the
    m-th of alpha, and each transversal bottom onto alpha's.
    """
    n, p = alpha.degree, alpha.pairing
    bottoms, lowers = _bottoms_and_hooks(alpha)  # 0-based points from here on
    t = p[n + bottoms[-1]]
    upper = [(a, p[a]) for a in range(n) if a < p[a] < n]  # (a_m, b_m)
    chain = _links([(t, t)] + upper)  # t_r' - a_1', b_1' - a_2', ...
    images = [q - n for q in p[:n]]  # right at each top but t_r; chain points are rewritten
    images[upper[-1][1]] = bottoms[-1]
    for (x, y), (c, d) in zip(chain, lowers):
        images[x], images[y] = c, d
    return _hook_idempotent(n, upper, chain), images


def factor_into_idempotents(alpha: BrauerDiagram) -> list[BrauerDiagram]:
    """Twisted idempotents whose star chain is exactly (0, alpha).

    Requires degree >= 3 and alpha outside the unit group (no unit other
    than the identity is a product of idempotents).  A positive-rank
    diagram is written as eps * unit, eps the twisted idempotent on its own
    kernel and domain (``_kernel_idempotent``), and the unit is absorbed
    transposition by transposition: each absorption writes its one or two
    idempotents straight into pairing arrays, and the partial product moves
    on by a swap of two bottom points rather than a product.  At most n - 1
    transpositions give at most 2n - 1 terms.  Rank-0 diagrams are first
    split into two rank-2 factors with no floating component.
    """
    n, r = alpha.degree, alpha.rank
    _check_least_degree(n, "idempotent factorization")
    _check_rank_ceiling(n, r, "idempotent factorization")
    if is_idempotent_twisted(alpha):
        return [alpha]
    if r == 0:
        beta, gamma = lemma_rank_drop(alpha)
        return factor_into_idempotents(beta) + factor_into_idempotents(gamma)

    current, images = _kernel_idempotent(alpha)
    chain = [current]
    for i, j in _transposition_factors(images):
        chain.extend(idempotent_factor_sigma(current, i + 1, j + 1))
        current = _swap_points(current, n + i, n + j)
    return chain
