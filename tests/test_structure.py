"""Graham-Houghton graphs, Strong Hall, singular ideal, idempotent
generation end to end."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from twisted_brauer import (
    BrauerDiagram,
    DiagramError,
    PreconditionError,
    TwistedElement,
    all_diagrams,
    as_twisted,
    bounded_closure,
    build_gh_graph,
    d_class,
    delta,
    factor_into_idempotents,
    idempotent_generating_set,
    idempotents,
    identity,
    ig_subsemigroup_rank,
    in_idempotent_generated,
    index_set,
    is_idempotent_plain,
    is_idempotent_twisted,
    make_diagram,
    multiply,
    perfect_matching,
    permutation_diagram,
    plain_closure,
    rho,
    singular_generating_set,
    singular_rank,
    star_chain,
    strong_hall_check,
    strong_hall_subset_oracle,
    verify_rank_idrank,
)
from twisted_brauer.enumeration import random_diagram
from twisted_brauer.green import canonical_idempotent
from twisted_brauer.ideals import gh_degree
from twisted_brauer.structure import (
    GH_CANDIDATE_LIMIT,
    _kernel_idempotent,
    _swap_points,
    _transposition_factors,
    rank_idrank_report,
)
from conftest import (
    csr_graph,
    dict_walk_transposition_factors,
    factor_into_idempotents_bfs,
    hand_written_kernel_idempotent,
    kernel_keyed_idempotents,
    product_absorption_chain,
    recursive_matching,
    subset_strong_hall,
)


def _gh_cases(max_n):
    return [(n, r) for n in range(3, max_n + 1) for r in range(1, n) if (n - r) % 2 == 0]


def test_gh_graph_shape_n4_r2():
    graph = build_gh_graph(4, 2)
    assert len(graph.signatures) == rho(4, 2) == 6
    assert graph.common_degree() == 4
    assert len(graph.edges) == 24
    assert graph.is_connected()
    # per-vertex counts match bucketing the idempotents by kernel
    idems = [d for d in d_class(4, 2) if is_idempotent_twisted(d)]
    for li, sig in enumerate(graph.signatures):
        in_r_class = sum(1 for d in idems if d.ker == frozenset(sig))
        assert in_r_class == len(graph.neighbors(li)) == 4


def test_gh_graph_regular_degrees_up_to_6():
    for n in range(3, 7):
        for r in index_set(n):
            if r in (0, n):
                continue
            graph = build_gh_graph(n, r)
            b = graph.common_degree()
            assert b is not None and b >= 2
            assert len(graph.edges) == b * rho(n, r)
            idem_count = sum(1 for d in d_class(n, r) if is_idempotent_twisted(d))
            assert idem_count == len(graph.edges)


@pytest.mark.parametrize("n, r", _gh_cases(7) + [(8, 6)])
def test_gh_graph_matches_kernel_keyed_oracle(n, r):
    # H-classes read off the stream position agree with ker and coker, and
    # the path rule builds each edge's enumerated idempotent
    graph = build_gh_graph(n, r)
    signatures, idems = kernel_keyed_idempotents(n, r)
    assert graph == csr_graph(n, r, signatures, idems)
    assert graph.common_degree() == gh_degree(n, r)
    for l, r_ in itertools.product(range(len(signatures)), repeat=2):
        if (l, r_) in idems:
            w = graph.idempotent(l, r_)
            assert w == idems[l, r_]
            assert frozenset(graph.signatures[l]) == w.ker
            assert frozenset(graph.signatures[r_]) == w.coker
        else:
            with pytest.raises(DiagramError, match="not an edge"):
                graph.idempotent(l, r_)
    size = len(signatures)
    for l, r_ in ((-1, 0), (0, -1), (size, 0), (0, size)):
        with pytest.raises(DiagramError, match="not a vertex pair"):
            graph.idempotent(l, r_)


def test_gh_graph_rejects_extreme_ranks():
    with pytest.raises(PreconditionError):
        build_gh_graph(4, 0)
    with pytest.raises(PreconditionError):
        build_gh_graph(4, 4)
    with pytest.raises(PreconditionError):
        build_gh_graph(2, 2)


def test_h_class_idempotent_is_unique():
    # at most one idempotent per (kernel, cokernel) cell
    for n, r in ((3, 1), (4, 2), (5, 3)):
        seen = set()
        for d in d_class(n, r):
            if is_idempotent_twisted(d):
                key = (d.ker, d.coker)
                assert key not in seen
                seen.add(key)


def _synthetic_graph(edges, size=2):
    hooks = [((1, 2),), ((3, 4),)]
    return csr_graph(4, 2, hooks[:size], edges)


def test_strong_hall_path_graph_fails():
    # 2+2 path: one endpoint's neighborhood is a single vertex
    path = _synthetic_graph({(0, 0), (1, 0), (1, 1)})
    assert not strong_hall_check(path)
    assert not strong_hall_subset_oracle(path)


def test_strong_hall_complete_graph_passes():
    complete = _synthetic_graph({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert strong_hall_check(complete)
    assert strong_hall_subset_oracle(complete)


def test_strong_hall_no_matching_fails():
    isolated = _synthetic_graph({(0, 0), (1, 0)})
    assert perfect_matching(isolated) is None
    assert not strong_hall_check(isolated)
    assert not strong_hall_subset_oracle(isolated)


def test_strong_hall_scc_matches_subset_oracle_on_built_graphs():
    for n, r in ((3, 1), (4, 2), (5, 1), (5, 3), (6, 4)):
        graph = build_gh_graph(n, r)
        if len(graph.signatures) > 16:
            continue
        assert strong_hall_check(graph) == strong_hall_subset_oracle(graph)


def _union_find_connected(size, edges):
    # kernel vertices 0..size-1, cokernel vertices size..2*size-1
    parent = list(range(2 * size))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for l, r in edges:
        parent[find(l)] = find(size + r)
    return len({find(v) for v in range(2 * size)}) <= 1


def test_strong_hall_scc_matches_oracle_on_random_bipartite():
    rng = random.Random(4)
    outcomes = set()
    hooks = [((1, 2),), ((1, 3),), ((1, 4),), ((2, 3),), ((2, 4),), ((3, 4),)]
    for _ in range(300):
        size = rng.randrange(1, 6)
        edges = frozenset(
            (l, r)
            for l in range(size)
            for r in range(size)
            if rng.random() < 0.45
        )
        graph = csr_graph(4, 2, hooks[:size], edges)
        assert strong_hall_check(graph) == strong_hall_subset_oracle(graph)
        assert _same_matching(perfect_matching(graph), recursive_matching(graph))
        connected = _union_find_connected(size, edges)
        assert graph.is_connected() == connected
        degrees = {sum(1 for e in edges if e[side] == v) for side in (0, 1) for v in range(size)}
        regular = next(iter(degrees)) if len(degrees) == 1 else None
        assert graph.common_degree() == regular
        outcomes.add((connected, regular is None))
    assert outcomes == {(c, irregular) for c in (True, False) for irregular in (True, False)}


def test_report_connectivity_matches_union_find():
    # the report takes connectivity from Strong Hall where it implies it;
    # the 1 x 1 graph with no edge is Strong Hall yet disconnected
    rng = random.Random(18)
    cases = [(0, set()), (1, set()), (1, {(0, 0)})]
    for _ in range(400):
        size = rng.randrange(0, 9)
        density = rng.uniform(0.05, 0.9)
        cases.append((size, {(l, r) for l in range(size) for r in range(size)
                             if rng.random() < density}))
    outcomes = set()
    for size, edges in cases:
        graph = csr_graph(4, 2, (((1, 2),),) * size, edges)
        report = rank_idrank_report(graph)
        expected = _union_find_connected(size, edges)
        assert report.connected == expected == graph.is_connected(), (size, sorted(edges))
        outcomes.add((report.strong_hall, expected))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    assert not rank_idrank_report(csr_graph(4, 2, (((1, 2),),), [])).connected


def test_subset_oracle_matches_the_definition_on_random_bipartite():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        size = rng.randrange(1, 11)
        density = rng.uniform(0.2, 0.95)
        edges = {(l, r) for l in range(size) for r in range(size) if rng.random() < density}
        graph = csr_graph(4, 2, (((1, 2),),) * size, edges)
        expected = subset_strong_hall(graph)
        assert strong_hall_subset_oracle(graph) == expected == strong_hall_check(graph)
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_subset_oracle_keeps_one_neighbourhood_per_vertex():
    # the complete graph passes, so every proper subset of 16 is visited;
    # a table of all 2^16 neighbourhoods would take megabytes
    side = (((1, 2),),) * 16
    complete = csr_graph(4, 2, side, itertools.product(range(16), repeat=2))
    tracemalloc.start()
    try:
        assert strong_hall_subset_oracle(complete)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(DiagramError, match="refused for .J. = 17 > 16"):
        strong_hall_subset_oracle(csr_graph(4, 2, side + side[:1], []))


def _same_matching(got, expected):
    # the same pairs, inserted in the same order
    return got == expected and (got is None or list(got.items()) == list(expected.items()))


def test_matching_adjacency_and_witnesses_on_built_graphs():
    for n, r in _gh_cases(7):
        graph = build_gh_graph(n, r)
        assert _same_matching(perfect_matching(graph), recursive_matching(graph)), (n, r)
        size = len(graph.signatures)
        assert len(graph.starts) == size + 1 and graph.starts[0] == 0
        assert graph.starts[-1] == len(graph.edges)
        for l in range(size):
            row = list(graph.neighbors(l))
            assert row == sorted(set(row)) and all(0 <= k < size for k in row)
            assert all(is_idempotent_twisted(graph.idempotent(l, k)) for k in row)


def test_perfect_matching_follows_a_long_augmenting_path():
    # left i meets {i, i+1}; the last left vertex meets only right 0, so its
    # one augmenting path runs through every vertex: far past the
    # interpreter's recursion limit for a recursive search
    size = 1500
    edges = frozenset((i, j) for i in range(size - 1) for j in (i, i + 1)) | {(size - 1, 0)}
    graph = csr_graph(4, 2, (((1, 2),),) * size, edges)
    matching = perfect_matching(graph)
    assert matching == {i: (i + 1) % size for i in range(size)}


def test_perfect_matching_matches_recursive_matcher_on_larger_graphs():
    rng = random.Random(9)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        size = rng.randrange(8, 61)
        density = rng.uniform(0.03, 0.5)
        edges = {(l, r) for l in range(size) for r in range(size) if rng.random() < density}
        graph = csr_graph(4, 2, (((1, 2),),) * size, edges)
        expected = recursive_matching(graph)
        assert _same_matching(perfect_matching(graph), expected), (size, sorted(edges))
        outcomes[expected is None] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_gh_graph_size_guard():
    largest_to_8 = max(delta(n, r) for n, r in _gh_cases(8))
    assert largest_to_8 == delta(8, 4) == 1_058_400 <= GH_CANDIDATE_LIMIT < delta(9, 3)
    with pytest.raises(DiagramError, match="refused"):
        build_gh_graph(9, 3)
    with pytest.raises(DiagramError, match="refused"):
        verify_rank_idrank(11, 5)


def test_verify_rank_idrank_certifies():
    for n, r in ((3, 1), (4, 2), (5, 3)):
        report = verify_rank_idrank(n, r)
        assert report.certified and report.certified_rank == rho(n, r)
    assert verify_rank_idrank(5, 3).certified_rank == 10


def test_idempotent_generating_set_shape():
    sigma = idempotent_generating_set(4, 2)
    assert len(sigma) == rho(4, 2) == 6
    assert all(x.twist == 0 and is_idempotent_twisted(x.diagram) for x in sigma)
    kernels = {x.diagram.ker for x in sigma}
    cokernels = {x.diagram.coker for x in sigma}
    assert len(kernels) == len(cokernels) == 6  # a perfect matching hits every class


def test_idempotent_generating_set_generates_desk_scale():
    sigma = idempotent_generating_set(3, 1)
    closure = bounded_closure(sigma, 2).elements
    expected = {
        TwistedElement(i, d) for i in range(3) for d in all_diagrams(3) if d.rank == 1
    }
    assert closure == expected


def test_gh_graph_dot_export():
    dot = build_gh_graph(4, 2).to_dot()
    assert dot.startswith("graph graham_houghton {")
    assert dot.rstrip().endswith("}")
    assert 'L0 [label="ker (1,2)"' in dot
    assert dot.count(" -- ") == 24


def test_singular_rank_values():
    assert singular_rank(3) == 9
    assert singular_rank(4) == 30
    assert singular_rank(5) == math.comb(5, 2) + 120
    with pytest.raises(DiagramError):
        singular_rank(2)


def test_singular_generating_set_covers_truncation():
    gens = singular_generating_set(3)
    assert len(gens) == 9
    units_at_one = [g for g in gens if g.twist == 1]
    assert len(units_at_one) == 6 and all(g.rank == 3 for g in units_at_one)
    closure = bounded_closure(gens, 2).elements
    singular_truncation = {
        TwistedElement(i, d)
        for i in range(2)
        for d in all_diagrams(3)
        if i >= 1 or d.rank < 3
    }
    assert singular_truncation <= closure


def test_in_idempotent_generated():
    rank0 = next(iter(d_class(4, 0)))
    assert in_idempotent_generated(TwistedElement(5, rank0))
    assert in_idempotent_generated(as_twisted(identity(4))) is True
    assert in_idempotent_generated(TwistedElement(1, identity(4))) is False
    sigma = make_diagram(4, [(1, -2), (2, -1), (3, -3), (4, -4)])
    assert in_idempotent_generated(as_twisted(sigma)) is False
    assert ig_subsemigroup_rank(4) == 7


def test_in_idempotent_generated_matches_closure():
    pool = list(all_diagrams(3))
    gens = [d for d in pool if is_idempotent_twisted(d)]
    closure = bounded_closure(gens, 2).elements
    for i in range(3):
        for d in pool:
            x = TwistedElement(i, d)
            assert in_idempotent_generated(x) == (x in closure)


def test_transposition_factors_compose():
    from twisted_brauer import permutation_diagram, transposition

    rng = random.Random(6)
    for _ in range(80):
        images = list(range(5))  # 0-based
        rng.shuffle(images)
        factors = _transposition_factors(images)
        acc = identity(5)
        for i, j in factors:
            acc = acc * transposition(5, i + 1, j + 1)
        assert acc == permutation_diagram(5, [v + 1 for v in images])


def test_transposition_factors_match_the_dict_walk():
    # the 0-based list walk against the 1-based dict walk it replaced: every
    # permutation of degree <= 6, then seeded ones of degree 7 to 64
    perms = [list(p) for n in range(7) for p in itertools.permutations(range(n))]
    rng = random.Random(44)
    for _ in range(2000):
        images = list(range(rng.randrange(7, 65)))
        rng.shuffle(images)
        perms.append(images)
    for images in perms:
        before = list(images)
        expected = dict_walk_transposition_factors([v + 1 for v in images])
        assert _transposition_factors(images) == [(i - 1, j - 1) for i, j in expected]
        assert images == before  # the walk marks a copy


def test_swap_points_is_a_transposition_product():
    from twisted_brauer import multiply, transposition

    hooked = 0
    for n in range(2, 6):
        for d in all_diagrams(n):
            for i, j in itertools.combinations(range(1, n + 1), 2):
                t = transposition(n, i, j)
                assert _swap_points(d, n + i - 1, n + j - 1) == multiply(d, t)[0]
                assert _swap_points(d, i - 1, j - 1) == multiply(t, d)[0]
                hooked += d.pairing[i - 1] == j - 1
    assert hooked > 0  # i and j joined by an upper hook: d comes back unchanged


def _singular_diagrams(seed, extra, min_rank=0):
    """Every diagram of degree 3-5 and rank in [min_rank, n), then
    ``extra`` seeded ones of degree 3-40 with the same ranks."""
    alphas = [a for n in (3, 4, 5) for a in all_diagrams(n) if min_rank <= a.rank < n]
    total = len(alphas) + extra
    rng = random.Random(seed)
    while len(alphas) < total:
        alpha = random_diagram(rng.randrange(3, 41), rng)
        if min_rank <= alpha.rank < alpha.degree:
            alphas.append(alpha)
    return alphas


def _chain_bound(alpha):
    # at most n - 1 transpositions, each absorbed by at most two idempotents,
    # after the start idempotent; rank 0 splits into two such chains
    n = alpha.degree
    return 2 * n - 1 if alpha.rank else 4 * n - 2


def test_factor_into_idempotents_matches_product_absorption():
    for alpha in _singular_diagrams(40, 300):
        assert factor_into_idempotents(alpha) == product_absorption_chain(alpha)


def test_kernel_idempotent_rebuilds_alpha_by_products():
    # the start idempotent is checked against products alone, as well as
    # against its hand-written reference below
    for alpha in _singular_diagrams(41, 500, min_rank=1):
        n = alpha.degree
        eps, images = _kernel_idempotent(alpha)  # 0-based images
        assert multiply(eps, eps) == (eps, 0)
        assert (eps.ker, eps.dom) == (alpha.ker, alpha.dom)
        assert multiply(eps, permutation_diagram(n, [v + 1 for v in images])) == (alpha, 0)


def test_kernel_idempotent_matches_hand_written():
    alphas = [a for n in range(2, 7) for a in all_diagrams(n) if 0 < a.rank < n]
    total, rng = len(alphas) + 2000, random.Random(43)
    while len(alphas) < total:
        alpha = random_diagram(rng.randrange(3, 65), rng)
        if 0 < alpha.rank < alpha.degree:
            alphas.append(alpha)
    for alpha in alphas:
        eps, images = hand_written_kernel_idempotent(alpha)  # 1-based images
        assert _kernel_idempotent(alpha) == (eps, [v - 1 for v in images])


# alpha, then its factor_into_idempotents chain, all in canonical text; the
# first transposition absorbed puts two codomain points, mixed points, points
# of two lower hooks or the points of one lower hook of the partial product
FACTOR_GOLDEN = [
    ("n=8: (1,5)(2,2')(3,8)(4,6')(6,1')(7,8')(3',4')(5',7')",
     ["n=8: (1,5)(2,2')(3,8)(4,4')(6,6')(7,8')(1',7')(3',5')",
      "n=8: (1,6)(2,2')(3,7)(4,6')(5,5')(8,8')(1',7')(3',4')",
      "n=8: (1,4')(2,2')(3,7)(4,5)(6,6')(8,8')(1',7')(3',5')",
      "n=8: (1,4)(2,2')(3,7)(5,1')(6,6')(8,8')(3',5')(4',7')",
      "n=8: (1,1')(2,2')(3,7)(4,8')(5,8)(6,6')(3',4')(5',7')"]),
    ("n=9: (1,1')(2,8)(3,6)(4,4')(5,5')(7,7')(9,9')(2',6')(3',8')",
     ["n=9: (1,1')(2,8)(3,6)(4,4')(5,5')(7,7')(9,6')(2',9')(3',8')",
      "n=9: (1,1')(2,3)(4,4')(5,5')(6,9)(7,7')(8,9')(2',6')(3',8')"]),
    ("n=10: (1,7)(2,7')(3,4)(5,5')(6,6')(8,9)(10,9')(1',3')(2',10')(4',8')",
     ["n=10: (1,7)(2,2')(3,4)(5,5')(6,6')(8,9)(10,9')(1',10')(3',7')(4',8')",
      "n=10: (1,4)(2,2')(3,10)(5,5')(6,6')(7,9)(8,9')(1',3')(4',8')(7',10')",
      "n=10: (1,10)(2,7)(3,4)(5,5')(6,6')(8,7')(9,9')(1',3')(2',10')(4',8')"]),
    ("n=10: (1,2)(3,6)(4,10)(5,10')(7,9')(8,9)(1',7')(2',6')(3',4')(5',8')",
     ["n=10: (1,2)(3,6)(4,10)(5,5')(7,9')(8,9)(1',7')(2',3')(4',6')(8',10')",
      "n=10: (1,4)(2,9)(3,6)(5,5')(7,8)(10,9')(1',7')(2',6')(3',4')(8',10')",
      "n=10: (1,8)(2,7)(3,6)(4,10')(5,10)(9,9')(1',7')(2',6')(3',4')(5',8')"]),
]


@pytest.mark.parametrize("alpha, chain", FACTOR_GOLDEN,
                         ids=["8-codomain", "9-mixed", "10-split", "10-shared"])
def test_idempotent_chains_are_the_canonical_ones(alpha, chain):
    # other chains are valid too; these pin the canonical ones
    alpha = BrauerDiagram.from_text(alpha)
    got = factor_into_idempotents(alpha)
    assert [e.to_text() for e in got] == chain
    assert all(is_idempotent_twisted(e) for e in got)
    assert star_chain(got) == TwistedElement(0, alpha)


def test_kernel_idempotent_of_a_canonical_kernel_is_canonical():
    for n in range(3, 9):
        for r in range(n - 2, 0, -2):
            eps = canonical_idempotent(n, r)
            assert _kernel_idempotent(eps) == (eps, list(range(n)))


def test_factor_into_idempotents_chain_length_bound():
    for alpha in _singular_diagrams(42, 1000):
        assert len(factor_into_idempotents(alpha)) <= _chain_bound(alpha)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1))
def test_factor_into_idempotents_property(n, seed):
    alpha = random_diagram(n, random.Random(seed))
    if alpha.rank == n:
        with pytest.raises(PreconditionError):
            factor_into_idempotents(alpha)
        return
    chain = factor_into_idempotents(alpha)
    assert all(is_idempotent_twisted(b) for b in chain)
    assert star_chain(chain) == TwistedElement(0, alpha)
    assert len(chain) <= _chain_bound(alpha)


def test_factor_into_idempotents_exhaustive_n3():
    for alpha in all_diagrams(3):
        if alpha.rank == 3:
            continue
        chain = factor_into_idempotents(alpha)
        assert all(is_idempotent_twisted(b) for b in chain)
        assert star_chain(chain) == TwistedElement(0, alpha)


def test_factor_into_idempotents_exhaustive_n4():
    for alpha in all_diagrams(4):
        if alpha.rank == 4:
            continue
        chain = factor_into_idempotents(alpha)
        assert all(is_idempotent_twisted(b) for b in chain)
        assert star_chain(chain) == TwistedElement(0, alpha)


def test_factor_into_idempotents_random_n6():
    rng = random.Random(8)
    done = 0
    while done < 40:
        alpha = random_diagram(6, rng)
        if alpha.rank == 6:
            continue
        chain = factor_into_idempotents(alpha)
        assert star_chain(chain) == TwistedElement(0, alpha)
        assert all(is_idempotent_twisted(b) for b in chain)
        done += 1


def test_factor_into_idempotents_fixed_point_on_idempotents():
    for eps in idempotents(4, twisted=True):
        if eps == identity(4):
            continue  # the only unit idempotent, excluded by precondition
        assert factor_into_idempotents(eps) == [eps]


def test_factor_into_idempotents_rejects_units():
    with pytest.raises(PreconditionError):
        factor_into_idempotents(identity(4))
    with pytest.raises(PreconditionError):
        factor_into_idempotents(make_diagram(2, [(1, 2), (-1, -2)]))  # degree 2


def _bfs_cross_validates_pipeline(n):
    for alpha in all_diagrams(n):
        if alpha.rank == n:
            continue
        bfs_chain = factor_into_idempotents_bfs(alpha)
        assert bfs_chain is not None
        assert star_chain(bfs_chain) == TwistedElement(0, alpha)
        assert all(is_idempotent_twisted(b) for b in bfs_chain)
        pipeline_chain = factor_into_idempotents(alpha)
        assert len(bfs_chain) <= len(pipeline_chain)  # BFS chains are shortest


def test_bfs_fallback_cross_validates_pipeline_n3():
    _bfs_cross_validates_pipeline(3)


def test_bfs_fallback_cross_validates_pipeline_n4():
    _bfs_cross_validates_pipeline(4)


def test_bfs_fallback_rejects_units():
    sigma = make_diagram(3, [(1, -2), (2, -1), (3, -3)])
    assert factor_into_idempotents_bfs(sigma) is None


def test_plain_idempotent_submonoids_coincide_n3():
    pool = list(all_diagrams(3))
    expected = {d for d in pool if d.rank < 3} | {identity(3)}
    plain = plain_closure([d for d in pool if is_idempotent_plain(d)])
    twisted = plain_closure([d for d in pool if is_idempotent_twisted(d)])
    assert plain == twisted == expected


def test_degree2_anomaly():
    pool = list(all_diagrams(2))
    hook = make_diagram(2, [(1, 2), (-1, -2)])
    plain = plain_closure([d for d in pool if is_idempotent_plain(d)])
    assert plain == {identity(2), hook}
    twisted_gens = [d for d in pool if is_idempotent_twisted(d)]
    assert twisted_gens == [identity(2)]
    assert plain_closure(twisted_gens) == {identity(2)}
    tw_closure = bounded_closure(twisted_gens, 3).elements
    assert tw_closure == {as_twisted(identity(2))}


def test_units_are_the_rank_n_d_class():
    # singular_generating_set takes its units from d_class(n, n)
    for n in range(7):
        units = [permutation_diagram(n, p) for p in itertools.permutations(range(1, n + 1))]
        assert list(d_class(n, n)) == units
    units_at_one = [g.diagram for g in singular_generating_set(4) if g.twist == 1]
    assert units_at_one == list(d_class(4, 4))
