"""Acceptance suite: one test per criterion, each printing a pass line.

Every check is exact (integer combinatorics, no tolerances); the stated
wall-time budgets are asserted where the criterion carries one.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import math
import time

from twisted_brauer import (
    TwistedElement,
    all_diagrams,
    delta,
    factor_left,
    factor_right,
    factor_two_sided,
    index_set,
    leq_J,
    leq_L,
    leq_R,
    multiply,
    rho,
    star_chain,
    strong_hall_subset_oracle,
    verify_rank_idrank,
)
from twisted_brauer import build_gh_graph, strong_hall_check
from twisted_brauer import verify as V


def _announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_cardinalities():
    start = time.perf_counter()
    counts = [sum(1 for _ in all_diagrams(n)) for n in range(7)]
    elapsed = time.perf_counter() - start
    assert counts == [1, 1, 3, 15, 105, 945, 10395]
    assert elapsed < 1.0
    _announce(1, f"|B_n| = (2n-1)!! for n = 0..6 in {elapsed:.3f}s")


def test_criterion_02_figure1_golden(figure1):
    a, b, product = figure1
    multiply(a, b)  # warm-up outside the timed run
    start = time.perf_counter()
    result = multiply(a, b)
    elapsed = time.perf_counter() - start
    assert result == (product, 1)
    assert elapsed < 0.001
    _announce(2, f"degree-10 golden product with tau = 1 in {elapsed * 1e6:.0f}us")


def test_criterion_03_tau_identity():
    exhaustive = V.check_tau_identity(n=3, samples=None)
    assert exhaustive.passed and exhaustive.counts["triples"] == 3375
    sampled = V.check_tau_identity(n=6, samples=100_000, seed=0)
    assert sampled.passed
    total = exhaustive.seconds + sampled.seconds
    assert total < 10.0
    _announce(3, f"tau cocycle identity: 3375 exhaustive + 1e5 sampled in {total:.1f}s")


def test_criterion_04_green_characterizations():
    small = V.check_green_preorders(n=3, factor=False)
    assert small.passed and small.counts["pairs"] == 225
    big = V.check_green_preorders(n=5, samples=10_000, seed=0, factor=False)
    assert big.passed and big.counts["pairs"] == 10_000
    assert small.seconds + big.seconds < 5.0
    _announce(
        4,
        "kernel/cokernel/rank characterizations match the divisibility oracle "
        f"(225 pairs at n=3, 1e4 seeded pairs at n=5, {small.seconds + big.seconds:.1f}s)",
    )


def test_criterion_05_constructive_factorizations():
    start = time.perf_counter()
    pool = list(all_diagrams(4))
    checked = [0, 0, 0]
    for a, b in itertools.product(pool, repeat=2):
        if leq_R(a, b):
            assert multiply(b, factor_right(a, b)) == (a, 0)
            checked[0] += 1
        if leq_L(a, b):
            assert multiply(factor_left(a, b), b) == (a, 0)
            checked[1] += 1
        if leq_J(a, b):
            gamma, delta_w = factor_two_sided(a, b)
            assert star_chain(gamma, b, delta_w) == TwistedElement(0, a)
            checked[2] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert all(c > 0 for c in checked)
    _announce(5, f"factor witnesses exhaustive at n=4 {checked} in {elapsed:.1f}s")


def test_criterion_06_regularity():
    report = V.check_regularity(n=3, bound=1)
    assert report.passed and report.counts["elements"] == 30
    _announce(6, "regularity = (twist 0 and positive rank), vs bounded witness search")


def test_criterion_07_counting():
    for n in range(7):
        by_rank = {}
        for d in all_diagrams(n):
            by_rank.setdefault(d.rank, []).append(d)
        assert sorted(by_rank) == list(index_set(n))
        for r, members in by_rank.items():
            assert len(members) == delta(n, r)
            assert len({m.ker for m in members}) == rho(n, r)
            assert len({m.coker for m in members}) == rho(n, r)
            h_sizes = {}
            for m in members:
                h_sizes[(m.ker, m.coker)] = h_sizes.get((m.ker, m.coker), 0) + 1
            assert set(h_sizes.values()) == {math.factorial(r)}
    _announce(7, "D/R/L/H class counts match delta, rho, rho, r! for n <= 6")


def test_criterion_08_lemma_constructions():
    for check in (V.check_rank_drop, V.check_twist_raise, V.check_twist_keep):
        report = check(n=4)
        assert report.passed, report.counterexample
    _announce(8, "rank-drop, twist-raise, twist-keep lemmas exhaustive at n=4")


def test_criterion_09_idempotent_generation():
    sweep = V.check_idempotent_generation(n=4, r=2)
    assert sweep.passed and sweep.counts["triples"] == 432
    closure = V.check_idempotent_closure(n=3, r=1, bound=2)
    assert closure.passed and closure.counts["closure"] == 27
    _announce(9, "sigma absorption exhaustive at n=4, r=2; closure covers I(1;0) to twist 2")


def test_criterion_10_graham_houghton():
    start = time.perf_counter()
    for n, r in ((3, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 4)):
        report = verify_rank_idrank(n, r)
        assert report.certified, (n, r, report)
        assert report.side_size == rho(n, r)
        assert report.common_degree >= 2
        graph = build_gh_graph(n, r)
        if len(graph.signatures) <= 16:
            assert strong_hall_check(graph) == strong_hall_subset_oracle(graph)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(10, f"GH graphs balanced, regular, connected, Strong Hall in {elapsed:.1f}s")


def test_criterion_11_rank_table():
    for n in (3, 4):
        report = V.check_rank_table(n=n)
        assert report.passed, report.counterexample
    for r in (1, 3):
        gens = V.check_minimal_gens(n=3, r=r, k=1)
        assert gens.passed, gens.counterexample
    _announce(11, "four-case rank table and M(r;k) minimality at n=3, k=1")


def test_criterion_12_applications():
    singular = V.check_singular_rank(n=3)
    assert singular.passed and singular.counts["rank"] == 9
    from twisted_brauer import singular_rank

    assert singular_rank(4) == 30
    ig = V.check_ig_subsemigroup(n=3, bound=2)
    assert ig.passed
    mm = V.check_maltcev_mazorchuk(n=3)
    assert mm.passed and mm.counts["singular_diagrams"] == 9
    anomaly = V.check_ig_subsemigroup(n=2)
    assert anomaly.passed
    _announce(
        12,
        "singular ranks 9 and 30, idempotent-generated subsemigroup matches closure, "
        "zero-twist idempotent factorizations at n=3, degree-2 anomaly reproduced",
    )
