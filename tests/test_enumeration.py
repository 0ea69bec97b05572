"""Streams, closures, the Cayley-graph engine and the divisibility oracle."""

import functools
import itertools
import math
import random

import pytest

from conftest import (cayley_word, closure_oracle, copy_per_candidate_d_class,
                      filtered_hook_patterns, searched_reach)
from twisted_brauer import (
    BrauerDiagram,
    DiagramError,
    DivisibilityOracle,
    TwistedElement,
    all_diagrams,
    as_twisted,
    bounded_closure,
    d_class,
    delta,
    idempotents,
    identity,
    index_set,
    is_idempotent_plain,
    is_idempotent_twisted,
    make_diagram,
    multiply,
    permutation_diagram,
    plain_closure,
    star,
    transposition,
)
from twisted_brauer.enumeration import (
    CayleyGraph,
    _digit_runs,
    all_diagrams_split,
    hook_patterns,
    random_diagram,
    truncation,
)
from twisted_brauer.ideals import double_factorial


def test_counts_match_double_factorial():
    expected = [1, 1, 3, 15, 105, 945, 10395]
    for n, count in enumerate(expected):
        assert sum(1 for _ in all_diagrams(n)) == count


def test_stream_is_sorted_and_duplicate_free():
    for n in (2, 3, 4):
        pool = list(all_diagrams(n))
        assert pool == sorted(pool)
        assert len(set(pool)) == len(pool)


def test_stream_restartable():
    first = list(all_diagrams(3))
    second = list(all_diagrams(3))
    assert first == second


def test_degree_guard():
    # refused by cost, (2n-1)!! or delta(n, r) streamed diagrams, before
    # anything is enumerated: every stream of degree 8 fits, and at degree 9
    # only the D-classes below 33 million diagrams do
    text = "enumeration of degree {} refused: it needs more than 60 s"
    for stream, n in ((all_diagrams(9), 9), (d_class(11, 5), 11), (idempotents(9), 9),
                      (d_class(11, 11), 11)):
        with pytest.raises(DiagramError) as refused:
            next(stream)
        assert str(refused.value) == text.format(n)
    assert next(all_diagrams(8)) == min(all_diagrams(8))
    assert next(d_class(10, 10)) == identity(10)
    assert next(d_class(9, 1)).rank == 1


def test_split_prefixes_partition():
    for n in (2, 3):
        whole = list(all_diagrams(n))
        pieces = [
            list(all_diagrams_split(n, p)) for p in range(1, 2 * n)
        ]
        recombined = [d for piece in pieces for d in piece]
        assert sorted(recombined) == whole
        assert sum(len(p) for p in pieces) == len(whole)


def test_hook_patterns_count():
    from twisted_brauer import rho

    for n in (3, 4, 5):
        for r in index_set(n):
            assert sum(1 for _ in hook_patterns(n, r)) == rho(n, r)


@pytest.mark.parametrize("n", range(11))
def test_hook_patterns_keep_the_filtered_order(n):
    # the pruned recursion yields exactly the partial matchings of [n] with
    # (n - r) / 2 hooks, in the order of the filter over all of them
    for r in index_set(n):
        assert list(hook_patterns(n, r)) == list(filtered_hook_patterns(n, r))


def test_d_class_counts():
    assert sum(1 for _ in d_class(4, 2)) == 72
    for n in (3, 4, 5):
        for r in index_set(n):
            members = list(d_class(n, r))
            assert len(members) == delta(n, r)
            assert len(set(members)) == len(members)
            assert all(m.rank == r for m in members)


def test_d_class_is_the_rank_slice_of_all_diagrams():
    # d_class skips validation, so rebuild each member through the checks
    for n in range(6):
        for r in index_set(n):
            members = [BrauerDiagram(n, d.pairing) for d in d_class(n, r)]
            assert set(members) == {d for d in all_diagrams(n) if d.rank == r}


def test_truncation_is_the_twist_and_rank_slice():
    # every rank bound, of either parity, below and above the degree
    for n in range(6):
        for max_rank in (None, *range(-1, n + 2)):
            got = truncation(n, (0, 2), max_rank)
            pool = [d for d in all_diagrams(n) if max_rank is None or d.rank <= max_rank]
            assert len(got) == len(set(got)) == 2 * len(pool)
            assert set(got) == {TwistedElement(i, d) for i in (0, 2) for d in pool}
            # twist by twist, D-class by D-class from the lowest rank up
            assert [x.twist for x in got] == sorted(x.twist for x in got)
            assert [x.rank for x in got[:len(pool)]] == sorted(d.rank for d in pool)


def _attainable(max_n):
    return [(n, r) for n in range(max_n + 1) for r in index_set(n)]


def test_d_class_matches_copy_per_candidate_stream():
    # the in-place stream yields what a fresh copy per candidate yields,
    # in the same order, and every pairing passes validation
    for n, r in _attainable(6):
        assert list(d_class(n, r)) == list(copy_per_candidate_d_class(n, r))


def test_d_class_block_order():
    # diagram k has the kernel of pattern (k // r!) // rho and the cokernel
    # of pattern (k // r!) % rho: the order build_gh_graph relies on
    for n, r in _attainable(6):
        patterns = [frozenset(h) for h, _ in hook_patterns(n, r)]
        block, side = math.factorial(r), len(patterns)
        for k, d in enumerate(d_class(n, r)):
            upper, lower = divmod(k // block, side)
            assert (d.ker, d.coker) == (patterns[upper], patterns[lower]), (n, r, k)


def test_top_d_class_is_symmetric_group():
    units = set(d_class(4, 4))
    assert len(units) == math.factorial(4)
    assert identity(4) in units


def test_idempotent_streams_nested():
    for n in range(2, 6):
        twisted = set(idempotents(n, twisted=True))
        plain = set(idempotents(n, twisted=False))
        assert twisted < plain
        assert all(is_idempotent_twisted(d) for d in twisted)
        assert all(is_idempotent_plain(d) for d in plain)


def test_idempotent_counts_golden():
    # frozen on first run; the twisted count is rho_nr * b_nr summed over r
    plain_counts = [len(set(idempotents(n, twisted=False))) for n in range(5)]
    twisted_counts = [len(set(idempotents(n, twisted=True))) for n in range(5)]
    assert plain_counts == [1, 1, 2, 10, 40]
    assert twisted_counts == [1, 1, 1, 7, 25]


def test_random_diagram_uniform_support():
    rng = random.Random(0)
    counts = {}
    for _ in range(15_000):
        d = random_diagram(3, rng)
        counts[d] = counts.get(d, 0) + 1
    assert set(counts) == set(all_diagrams(3))
    assert all(800 <= c <= 1200 for c in counts.values()), counts


class _FixedIndex:
    """An rng stub whose randrange returns one chosen index."""

    def __init__(self, k):
        self.k = k

    def randrange(self, stop):
        assert 0 <= self.k < stop
        return self.k


def test_random_diagram_digits_are_a_bijection():
    # below degree 6 the digits form one run, so one index picks the diagram
    for n in range(6):
        size = double_factorial(2 * n - 1)
        drawn = [random_diagram(n, _FixedIndex(k)) for k in range(size)]
        assert sorted(drawn) == list(all_diagrams(n))
    assert random_diagram(0, random.Random(0)) == BrauerDiagram(0, ())


def test_random_diagram_digit_runs():
    for n in (0, 1, 40, 200):
        runs = _digit_runs(n)
        assert all(product < 2**62 for product, _ in runs)
        assert math.prod(product for product, _ in runs) == double_factorial(2 * n - 1)
        radices = [r for _, rs in runs for r in rs]
        assert radices == list(range(2 * n - 1, 2, -2))
        assert all(product == math.prod(rs) for product, rs in runs)


def test_streams_yield_what_validation_accepts():
    # the streams build their pairings as involutions and skip validation
    for n in range(7):
        streams = [all_diagrams(n)]
        streams += [all_diagrams_split(n, p) for p in range(1, 2 * n)]
        streams += [d_class(n, r) for r in index_set(n)]
        for d in itertools.chain(*streams):
            assert BrauerDiagram(n, d.pairing) == d
    rng = random.Random(64)
    for _ in range(500):
        n = rng.randrange(65)
        d = random_diagram(n, rng)
        assert BrauerDiagram(n, d.pairing) == d


def test_bounded_closure_identity_only():
    result = bounded_closure([identity(3)], 2)
    assert result.elements == {as_twisted(identity(3))}
    assert result.saturated_within_bound


def test_bounded_closure_monotone():
    gens = [d for d in d_class(3, 1) if is_idempotent_twisted(d)]
    small = bounded_closure(gens, 1).elements
    large = bounded_closure(gens, 2).elements
    assert small <= large
    fewer = bounded_closure(gens[:2], 2).elements
    assert fewer <= large


def test_bounded_closure_is_closed_under_bound():
    gens = [d for d in d_class(3, 1) if is_idempotent_twisted(d)]
    result = bounded_closure(gens, 2)
    for x, y in itertools.product(result.elements, repeat=2):
        p = star(x, y)
        assert p.twist > 2 or p in result.elements
    assert not result.saturated_within_bound  # twist can exceed 2 here


def test_bounded_closure_rejects_low_bound():
    with pytest.raises(DiagramError):
        bounded_closure([TwistedElement(3, identity(2))], 2)
    for gens in ([], [identity(2)]):  # a negative bound, before any generator is read
        with pytest.raises(DiagramError, match="bound must be at least 0, got -1"):
            bounded_closure(gens, -1)


def test_plain_closure_b2():
    hook = make_diagram(2, [(1, 2), (-1, -2)])
    assert plain_closure([identity(2), hook]) == {identity(2), hook}


def test_closures_match_all_pairs_worklist():
    rng = random.Random(3)
    flags = set()
    for n in (2, 3, 4):
        pool = list(all_diagrams(n))
        for _ in range(15):
            gens = [TwistedElement(rng.randrange(2), rng.choice(pool))
                    for _ in range(rng.randint(1, 3))]
            for bound in range(max(g.twist for g in gens), 4):
                result = bounded_closure(gens, bound)
                want = closure_oracle(gens, star, lambda p: p.twist <= bound)
                assert (result.elements, result.saturated_within_bound) == want
                flags.add(result.saturated_within_bound)
            plain = [g.diagram for g in gens]
            want, _ = closure_oracle(plain, lambda x, y: multiply(x, y)[0])
            assert plain_closure(plain) == want
    assert flags == {True, False}


def _oracle_generators(n):
    """The generators DivisibilityOracle(n) enumerates B_n from."""
    if n < 2:
        return [identity(n)]
    hook = make_diagram(n, [(1, 2), (-1, -2)] + [(i, -i) for i in range(3, n + 1)])
    return [identity(n), transposition(n, 1, 2),
            permutation_diagram(n, list(range(2, n + 1)) + [1]), hook]


def _assert_engine_matches_products(gens, product, keep=None, want=None):
    """Every graph entry against a direct product, the elements against
    ``want`` (by default the all-pairs worklist), the words, and the
    products computed: one for each generator x and each of its columns,
    and one for each x = a * s and column g with word(s) + g a shortest
    word, where the rest are read off the tables."""
    kept = (lambda p: True) if keep is None else keep
    calls = []
    graph = CayleyGraph(gens, lambda x, y: calls.append(1) or product(x, y), keep)
    want, complete = closure_oracle(gens, product, kept) if want is None else want
    assert set(graph.elements) == want and len(graph.elements) == len(want)
    assert graph.complete == complete
    assert all(graph.index[x] == i for i, x in enumerate(graph.elements))
    for i, x in enumerate(graph.elements):
        for j, g in enumerate(gens):
            for table, p in ((graph.right, product(x, g)), (graph.left, product(g, x))):
                assert table[i][j] == (graph.index[p] if kept(p) else None), (i, j)
    words = [cayley_word(graph, x) for x in graph.elements]
    assert all((len(u), u) < (len(w), w) for u, w in zip(words, words[1:]))
    shortest = set(map(tuple, words))
    assert len(calls) == sum(len(gens) if len(w) == 1 else
                             sum(tuple(w[1:]) + (j,) in shortest for j in range(len(gens)))
                             for w in words)
    for x, w in zip(graph.elements, words):
        assert functools.reduce(product, [gens[j] for j in w]) == x


def test_engine_matches_direct_products_on_the_oracle_generators():
    for n in range(6):
        gens = _oracle_generators(n)
        # all of B_n is generated: at degree 5 the all-pairs worklist is too slow
        want = (set(all_diagrams(n)), True) if n == 5 else None
        _assert_engine_matches_products(gens, BrauerDiagram.__mul__, want=want)


@pytest.mark.parametrize("n, r, bound", [(3, 1, 2), (4, 2, 2), (4, 2, 4), (5, 3, 1)])
def test_engine_matches_direct_products_on_bounded_idempotent_closures(n, r, bound):
    gens = [as_twisted(d) for d in idempotents(n) if d.rank == r]
    want = None
    if n == 5:  # the theorem of verify idempotent-closure: the truncation of I(3;0)
        pool = [d for d in all_diagrams(n) if d.rank <= r]
        want = {TwistedElement(i, d) for i in range(bound + 1) for d in pool}, False
    _assert_engine_matches_products(gens, star, lambda p: p.twist <= bound, want)


def test_engine_matches_direct_products_on_plain_idempotent_closures():
    for twisted in (False, True):
        _assert_engine_matches_products(list(idempotents(4, twisted)), BrauerDiagram.__mul__)


def test_engine_matches_direct_products_on_random_generators_with_duplicates():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(5)
        pool = list(all_diagrams(n))
        gens = [TwistedElement(rng.randrange(2), rng.choice(pool))
                for _ in range(rng.randint(1, 3))]
        gens += [rng.choice(gens) for _ in range(rng.randint(1, 2))]
        rng.shuffle(gens)
        bound = max(g.twist for g in gens) + rng.randrange(2)
        _assert_engine_matches_products(gens, star, lambda p: p.twist <= bound)
        _assert_engine_matches_products([g.diagram for g in gens], BrauerDiagram.__mul__)
        zero = [as_twisted(g.diagram) for g in gens]
        _assert_engine_matches_products(zero, star, lambda p: p.twist == 0)


@pytest.mark.parametrize("n", range(6))
def test_oracle_reach_matches_a_search_from_each_source(n):
    oracle, gens = DivisibilityOracle(n), _oracle_generators(n)
    steps = {
        "R": lambda x: [x * g for g in gens],
        "L": lambda x: [g * x for g in gens],
        "J": lambda x: [x * g for g in gens] + [g * x for g in gens],
    }
    pool = oracle.diagrams
    sources = pool if n <= 4 else random.Random(5).sample(pool, 6)
    for rel, step in steps.items():
        leq = getattr(oracle, f"leq_{rel}")
        for beta in sources:
            assert {alpha for alpha in pool if leq(alpha, beta)} == searched_reach(beta, step)


def test_oracle_reaches_every_diagram():
    for n in range(7):
        oracle = DivisibilityOracle(n)
        assert len(oracle.diagrams) == math.prod(range(2 * n - 1, 0, -2))
        if n <= 4:
            assert sorted(oracle.diagrams) == list(all_diagrams(n))
    with pytest.raises(DiagramError):
        DivisibilityOracle(11)


@pytest.mark.parametrize("n", range(7))
def test_the_oracle_holds_all_diagrams_in_pairing_order(n):
    # verify green-pre-orders samples this pool in place of all_diagrams(n)
    pool = sorted(DivisibilityOracle(n).diagrams, key=lambda d: d.pairing)
    assert pool == list(all_diagrams(n))


def test_oracle_refuses_by_its_memory_size():
    # it holds every diagram with two Cayley graphs and their components'
    # reach masks, about 110 MB at degree 7: degree 8 needs more than 1 GB
    for n in (8, 10):
        with pytest.raises(DiagramError) as refused:
            DivisibilityOracle(n)
        assert str(refused.value) == (
            f"divisibility oracle of degree {n} refused: it needs more than 1 GB")
