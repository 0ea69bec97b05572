"""Ideal lattice: counting formulas, canonical forms, membership, the
constructive lemmas and minimal generating sets."""

import collections
import itertools
import math
import random
import time

import pytest

from twisted_brauer import (
    BrauerDiagram,
    DiagramError,
    IdealSpec,
    PreconditionError,
    TwistedElement,
    all_diagrams,
    as_twisted,
    d_class,
    delta,
    generating_set,
    ideal_contains,
    ideal_equal,
    ideal_normalize,
    ideal_subset,
    idempotent_factor_sigma,
    identity,
    index_set,
    is_idempotent_twisted,
    lemma_rank_drop,
    lemma_twist_keep,
    lemma_twist_raise,
    make_diagram,
    multiply,
    parse_ideal,
    rank_of_ideal,
    rho,
    star,
    star_chain,
    transposition,
)
from twisted_brauer.enumeration import random_diagram
from twisted_brauer.diagram import _from_pairs
from twisted_brauer import ideals
from twisted_brauer.ideals import BYTE_BUDGET, COSTS, STEP_BUDGET_NS, double_factorial
from conftest import (block_list_rank_drop, block_list_sigma, block_list_twist_keep,
                      block_list_twist_raise)


def test_rho_delta_golden_values():
    assert rho(4, 2) == 6 and delta(4, 2) == 72
    assert delta(4, 4) == 24 and delta(4, 0) == 9
    assert 24 + 72 + 9 == 105
    assert rho(3, 1) == 3 and rho(5, 3) == 10 and rho(7, 5) == math.comb(7, 5)
    for n in (2, 5, 8):
        assert rho(n, n) == 1 and delta(n, n) == math.factorial(n)
    with pytest.raises(DiagramError):
        rho(4, 3)


def test_delta_sums_to_double_factorial():
    for n in range(9):
        total = sum(delta(n, r) for r in index_set(n))
        expected = math.prod(range(2 * n - 1, 0, -2)) if n else 1
        assert total == expected


def test_double_factorial_is_the_alternating_product():
    for m in range(-3, 300):
        assert double_factorial(m) == math.prod(range(m, 0, -2))


def test_rho_delta_closed_forms_agree():
    for n in range(9):
        for r in index_set(n):
            s = (n - r) // 2
            assert rho(n, r) == math.factorial(n) // (2**s * math.factorial(s) * math.factorial(r))
            assert delta(n, r) == math.factorial(n) ** 2 // (
                2 ** (2 * s) * math.factorial(s) ** 2 * math.factorial(r)
            )


def test_rho_counts_kernels_of_B5():
    by_rank = {}
    for d in all_diagrams(5):
        by_rank.setdefault(d.rank, set()).add(d.ker)
    assert {r: len(v) for r, v in by_rank.items()} == {
        r: rho(5, r) for r in (1, 3, 5)
    }


def test_ideal_spec_canonical_form():
    spec = IdealSpec(7, ((5, 4), (3, 2)))
    assert spec.is_principal() is False
    with pytest.raises(DiagramError):
        IdealSpec(7, ((3, 2), (5, 4)))  # ranks must decrease
    with pytest.raises(DiagramError):
        IdealSpec(7, ((5, 2), (3, 4)))  # twists must decrease
    with pytest.raises(DiagramError):
        IdealSpec(7, ((4, 2),))  # 4 not in I(7)


def test_ideal_normalize_drops_dominated_terms():
    # (3, k) with k >= 2 is inside I(5;2): rank 3 <= 5 and twist k >= 2
    assert ideal_normalize(7, [(5, 2), (3, 3)]).terms == ((5, 2),)
    assert ideal_normalize(7, [(5, 2), (3, 4)]).terms == ((5, 2),)
    assert ideal_normalize(7, [(3, 2), (5, 4)]).terms == ((5, 4), (3, 2))
    assert ideal_normalize(7, [(5, 0), (5, 3)]).terms == ((5, 0),)
    assert ideal_normalize(4, [(2, 1), (2, 1)]).terms == ((2, 1),)


def test_ideal_membership(figure1):
    spec = ideal_normalize(7, [(5, 2)])
    rank5 = make_diagram(7, [(1, -1), (2, -2), (3, -3), (4, -4), (5, -5), (6, 7), (-6, -7)])
    assert rank5.rank == 5
    assert ideal_contains(spec, TwistedElement(2, rank5))
    assert not ideal_contains(spec, TwistedElement(1, rank5))
    assert not ideal_contains(ideal_normalize(7, [(5, 0)]), as_twisted(identity(7)))
    assert ideal_contains(ideal_normalize(7, [(7, 0)]), as_twisted(identity(7)))


def test_ideal_closed_under_star_bounded():
    spec = ideal_normalize(3, [(1, 1)])
    pool = list(all_diagrams(3))
    inside = [
        TwistedElement(i, d)
        for i in range(3)
        for d in pool
        if ideal_contains(spec, TwistedElement(i, d))
    ]
    everything = [TwistedElement(i, d) for i in range(3) for d in pool]
    for x in inside:
        for y in everything:
            assert ideal_contains(spec, star(x, y))
            assert ideal_contains(spec, star(y, x))


def test_ideal_subset_and_equal():
    big = ideal_normalize(7, [(5, 0)])
    small = ideal_normalize(7, [(3, 2)])
    assert ideal_subset(small, big) and not ideal_subset(big, small)
    assert ideal_subset(big, big)
    assert ideal_equal(big, ideal_normalize(7, [(5, 0), (3, 1)]))


def test_ideal_subset_matches_membership_oracle():
    rng = random.Random(9)
    n, bound = 3, 4
    ranks = index_set(n)
    grid = [(r, i) for r in ranks for i in range(bound + 1)]
    for _ in range(50):
        specs = []
        for _ in range(2):
            terms = [
                (rng.choice(ranks), rng.randrange(bound)) for _ in range(rng.randrange(1, 4))
            ]
            specs.append(ideal_normalize(n, terms))
        a, b = specs

        def members(spec):
            return {(r, i) for r, i in grid if any(r <= q and i >= l for q, l in spec.terms)}

        assert ideal_subset(a, b) == (members(a) <= members(b))


def test_ideal_serialization():
    spec = ideal_normalize(7, [(3, 2), (5, 4)])
    assert spec.to_text() == "I(5;4) + I(3;2)"
    assert parse_ideal("I(3;2) + I(5;4)", 7) == spec
    assert spec.to_json_obj() == {"n": 7, "terms": [[5, 4], [3, 2]]}


def test_parse_ideal_whitespace_and_junk():
    spec = ideal_normalize(7, [(3, 2), (5, 4)])
    assert parse_ideal(" I( 3 ;2 )\t+\n I(5; 4)  ", 7) == spec
    assert parse_ideal("I(5;4)+I(3;2)", 7) == spec
    for empty in ("", "  ", "I()", " I( ) "):
        assert parse_ideal(empty, 7) == ideal_normalize(7, [])
    for junk in ("I(3;2) + junk", "I(3;2) x I(1;0)", "I(3;2) +", "+ I(3;2)",
                 "I(3;2) I(5;4)", "I(3;2) + I()", "I(3;-2)"):
        with pytest.raises(DiagramError, match="unparsable"):
            parse_ideal(junk, 7)


# -- lemmas -----------------------------------------------------------------


def test_rank_drop_exhaustive_n4():
    for alpha in d_class(4, 0):
        beta, gamma = lemma_rank_drop(alpha)
        assert beta.rank == gamma.rank == 2
        assert multiply(beta, gamma) == (alpha, 0)


def test_rank_drop_rejects_high_rank():
    with pytest.raises(PreconditionError):
        lemma_rank_drop(identity(4))
    with pytest.raises(PreconditionError):
        lemma_rank_drop(next(iter(d_class(4, 2))))


def test_rank_drop_on_worked_example(alpha6):
    beta, gamma = lemma_rank_drop(alpha6)
    assert beta.rank == gamma.rank == 4
    assert multiply(beta, gamma) == (alpha6, 0)


def test_twist_raise_exhaustive_n4():
    seen = 0
    for alpha in all_diagrams(4):
        if alpha.rank == 4:
            continue
        beta = lemma_twist_raise(alpha)
        assert beta.rank == alpha.rank
        assert multiply(alpha, beta) == (alpha, 1)
        seen += 1
    assert seen == 81


def test_twist_raise_on_worked_example(alpha6):
    beta = lemma_twist_raise(alpha6)
    assert multiply(alpha6, beta) == (alpha6, 1)


def test_twist_raise_rejects_units():
    with pytest.raises(PreconditionError):
        lemma_twist_raise(transposition(4, 1, 2))


def test_twist_keep_exhaustive_n4():
    for alpha in all_diagrams(4):
        if alpha.rank == 4:
            continue
        beta = lemma_twist_keep(alpha)
        assert beta.rank == (alpha.rank if alpha.rank else 2)
        assert multiply(alpha, beta) == (alpha, 0)
    with pytest.raises(PreconditionError):
        lemma_twist_keep(identity(2))


def test_twist_keep_smallest_degrees():
    hook = make_diagram(2, [(1, 2), (-1, -2)])
    beta = lemma_twist_keep(hook)
    assert beta.rank == 2 and multiply(hook, beta) == (hook, 0)


# alpha (rank <= n - 4), then the witnesses of lemma_rank_drop (beta, gamma),
# lemma_twist_raise and lemma_twist_keep, all in canonical text
LEMMA_GOLDEN = [
    ("n=8: (1,3')(2,4)(3,8)(5,7')(6,7)(1',5')(2',8')(4',6')",
     ("n=8: (1,3')(2,1')(3,8)(4,5')(5,7')(6,7)(2',8')(4',6')",
      "n=8: (1,5)(2,2')(3,3')(4,8)(6,8')(7,7')(1',5')(4',6')"),
     "n=8: (1,6)(2,5)(3,3')(4,8)(7,7')(1',5')(2',8')(4',6')",
     "n=8: (1,7)(2,5)(3,3')(4,8)(6,7')(1',5')(2',8')(4',6')"),
    ("n=8: (1,2')(2,7)(3,8')(4,5)(6,1')(8,5')(3',6')(4',7')",
     ("n=8: (1,2')(2,3')(3,8')(4,5)(6,1')(7,6')(8,5')(4',7')",
      "n=8: (1,1')(2,2')(3,6)(4,4')(5,5')(7,7')(8,8')(3',6')"),
     "n=8: (1,1')(2,2')(3,7)(4,6)(5,5')(8,8')(3',6')(4',7')",
     "n=8: (1,1')(2,2')(3,5)(4,6)(7,5')(8,8')(3',6')(4',7')"),
    ("n=9: (1,7)(2,9)(3,5)(4,6')(6,8)(1',3')(2',9')(4',7')(5',8')",
     ("n=9: (1,1')(2,9)(3,5)(4,6')(6,8)(7,3')(2',9')(4',7')(5',8')",
      "n=9: (1,3)(2,2')(4,9)(5,7)(6,6')(8,9')(1',3')(4',7')(5',8')"),
     "n=9: (1,8)(2,3)(4,9)(5,7)(6,6')(1',3')(2',9')(4',7')(5',8')",
     "n=9: (1,6)(2,3)(4,9)(5,7)(8,6')(1',3')(2',9')(4',7')(5',8')"),
    ("n=10: (1,6)(2,3)(4,10)(5,8)(7,9)(1',10')(2',7')(3',5')(4',9')(6',8')",
     ("n=10: (1,1')(2,3)(4,10)(5,8)(6,10')(7,9)(2',7')(3',5')(4',9')(6',8')",
      "n=10: (1,10)(2,2')(3,7)(4,5)(6,9)(8,7')(1',10')(3',5')(4',9')(6',8')"),
     "n=10: (1,8)(2,10)(3,7)(4,5)(6,9)(1',10')(2',7')(3',5')(4',9')(6',8')",
     "n=10: (1,1')(2,10)(3,7)(4,5)(6,9)(8,10')(2',7')(3',5')(4',9')(6',8')"),
]


@pytest.mark.parametrize("alpha, drop, raise_, keep", LEMMA_GOLDEN,
                         ids=["8-rank2", "8-rank4", "9-rank1", "10-rank0"])
def test_lemma_witnesses_are_the_canonical_ones(alpha, drop, raise_, keep):
    # the lemmas admit other valid witnesses; these pin the canonical ones
    alpha = BrauerDiagram.from_text(alpha)
    beta, gamma = lemma_rank_drop(alpha)
    assert (beta.to_text(), gamma.to_text()) == drop
    assert multiply(beta, gamma) == (alpha, 0)
    beta = lemma_twist_raise(alpha)
    assert beta.to_text() == raise_ and multiply(alpha, beta) == (alpha, 1)
    beta = lemma_twist_keep(alpha)
    assert beta.to_text() == keep and multiply(alpha, beta) == (alpha, 0)



def test_pairing_refuses_a_point_left_unpaired():
    # lemma_rank_drop's gamma with C[:1] slipped to C[:0] leaves two bottom
    # points unpaired, and multiply never returns on such a pairing
    alpha = BrauerDiagram.from_text(LEMMA_GOLDEN[0][0])
    n = alpha.degree
    bottoms, C = ideals._bottoms_and_hooks(alpha)
    blocks = [(C[1][0], n + C[1][0]), (C[-1][1], n + C[1][1]), C[0]]
    assert ideals._pairing(n, bottoms, C[1:], C[:1] + C[2:], blocks) == lemma_rank_drop(alpha)[1]
    start = time.perf_counter()
    with pytest.raises(DiagramError, match="left a point unpaired"):
        ideals._pairing(n, bottoms, C[1:], C[:0] + C[2:], blocks)
    assert time.perf_counter() - start < 0.5
    # the writer itself: n - 1 pairs, a point used twice (in n pairs and in
    # n + 1 pairs that leave no point at -1), an (x, x) pair
    assert _from_pairs(2, [(0, 3), (1, 2)]) == BrauerDiagram(2, (3, 2, 1, 0))
    for pairs in ([(0, 3)], [(0, 3), (0, 2)], [(0, 3), (1, 2), (0, 2)], [(0, 3), (1, 1)]):
        with pytest.raises(DiagramError, match="left a point unpaired"):
            _from_pairs(2, pairs)
    # a negative point other than -1 that fills every entry: (0, -2) writes
    # -2 at point 0 and 0 at point 2, so no entry is left at -1
    with pytest.raises(DiagramError, match="left a point unpaired"):
        _from_pairs(2, [(0, -2), (1, 3)])

def _lemmas_agree_with_block_lists(alpha):
    """Compare the three lemmas with their block-list references and
    re-validate every witness.  Returns the number of witnesses."""
    n = alpha.degree
    got = [lemma_twist_raise(alpha), lemma_twist_keep(alpha)]
    expected = [block_list_twist_raise(alpha), block_list_twist_keep(alpha)]
    if alpha.rank <= n - 4:
        got += lemma_rank_drop(alpha)
        expected += block_list_rank_drop(alpha)
    assert got == expected
    for w in got:
        assert BrauerDiagram(n, w.pairing) == w
    return len(got)


def test_lemmas_match_block_lists_exhaustive():
    # every singular diagram with n <= 6: 10,591, of which 4,509 have rank <= n - 4
    sizes = collections.Counter()
    for n in range(1, 7):
        for alpha in all_diagrams(n):
            if alpha.rank < n:
                sizes[_lemmas_agree_with_block_lists(alpha)] += 1
    assert sizes == {2: 6_082, 4: 4_509}


def test_lemmas_match_block_lists_random():
    rng = random.Random(18)
    sizes = collections.Counter()
    while sum(sizes.values()) < 2000:
        alpha = random_diagram(rng.randrange(4, 65), rng)
        if alpha.rank < alpha.degree:
            sizes[_lemmas_agree_with_block_lists(alpha)] += 1
    assert set(sizes) == {2, 4}


def test_lemma_preconditions_match_block_lists():
    for n in range(5):
        for lemma, reference in ((lemma_rank_drop, block_list_rank_drop),
                                 (lemma_twist_raise, block_list_twist_raise),
                                 (lemma_twist_keep, block_list_twist_keep)):
            with pytest.raises(PreconditionError) as got:
                lemma(identity(n))
            with pytest.raises(PreconditionError) as expected:
                reference(identity(n))
            assert str(got.value) == str(expected.value)
    high = next(iter(d_class(6, 4)))
    text = "^the rank-drop lemma is stated for r <= n - 4, got r = 4 in degree 6$"
    with pytest.raises(PreconditionError, match=text):
        block_list_rank_drop(high)
    with pytest.raises(PreconditionError, match=text):
        lemma_rank_drop(high)


# -- sigma absorption --------------------------------------------------------


def test_sigma_case_of_cokernel_hook():
    alpha = make_diagram(4, [(1, -1), (2, -2), (3, 4), (-3, -4)])
    assert idempotent_factor_sigma(alpha, 3, 4) == []
    assert (alpha * transposition(4, 3, 4)) == alpha


def test_sigma_exhaustive_n4_r2():
    for alpha in d_class(4, 2):
        for i, j in itertools.combinations(range(1, 5), 2):
            factors = idempotent_factor_sigma(alpha, i, j)
            target = alpha * transposition(4, i, j)
            assert star_chain(alpha, *factors) == TwistedElement(0, target)
            for f in factors:
                assert is_idempotent_twisted(f)
                assert f.rank == 2


def test_sigma_exhaustive_n5_both_ranks():
    for r in (1, 3):
        for alpha in d_class(5, r):
            for i, j in itertools.combinations(range(1, 6), 2):
                factors = idempotent_factor_sigma(alpha, i, j)
                target = alpha * transposition(5, i, j)
                assert star_chain(alpha, *factors) == TwistedElement(0, target)
                assert all(is_idempotent_twisted(f) and f.rank == r for f in factors)


def test_sigma_sampled_n6_r4():
    # rank n-2: a single hook per row, so every absorption case is tight
    rng = random.Random(41)
    members = list(d_class(6, 4))
    for alpha in rng.sample(members, 400):
        for i, j in itertools.combinations(range(1, 7), 2):
            factors = idempotent_factor_sigma(alpha, i, j)
            target = alpha * transposition(6, i, j)
            assert star_chain(alpha, *factors) == TwistedElement(0, target)
            assert all(is_idempotent_twisted(f) and f.rank == 4 for f in factors)


def test_sigma_random_large_degree():
    rng = random.Random(23)
    done = 0
    while done < 120:
        alpha = random_diagram(7, rng)
        if alpha.rank in (0, 7):
            continue
        i = rng.randrange(1, 7)
        j = rng.randrange(i + 1, 8)
        factors = idempotent_factor_sigma(alpha, i, j)
        target = alpha * transposition(7, i, j)
        assert star_chain(alpha, *factors) == TwistedElement(0, target)
        assert all(is_idempotent_twisted(f) and f.rank == alpha.rank for f in factors)
        done += 1


def test_sigma_case_counts():
    # two codomain points need two idempotents, a coker hook none, else one
    alpha = make_diagram(6, [(1, -1), (2, -2), (3, 4), (5, 6), (-3, -4), (-5, -6)])
    assert len(idempotent_factor_sigma(alpha, 1, 2)) == 2
    assert len(idempotent_factor_sigma(alpha, 1, 3)) == 1
    assert len(idempotent_factor_sigma(alpha, 3, 5)) == 1
    assert len(idempotent_factor_sigma(alpha, 3, 4)) == 0


def test_sigma_precondition():
    with pytest.raises(PreconditionError):
        idempotent_factor_sigma(identity(4), 1, 2)
    rank0 = next(iter(d_class(4, 0)))
    with pytest.raises(PreconditionError):
        idempotent_factor_sigma(rank0, 1, 2)


def _sigma_agrees_with_block_lists(alpha, rank, i, j):
    """Compare with the block-list oracle; re-validate every output and
    check it is a twisted idempotent of alpha's rank.  Returns the size."""
    factors = idempotent_factor_sigma(alpha, i, j)
    assert factors == block_list_sigma(alpha, i, j)
    for e in factors:
        assert BrauerDiagram(alpha.degree, e.pairing) == e
        assert is_idempotent_twisted(e) and e.rank == rank
    return len(factors)


def test_sigma_matches_block_lists_exhaustive():
    # every diagram with 0 < rank < n, n <= 6, and every i < j
    sizes = collections.Counter()
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for alpha in all_diagrams(n):
            rank = alpha.rank
            if 0 < rank < n:
                for i, j in pairs:
                    sizes[_sigma_agrees_with_block_lists(alpha, rank, i, j)] += 1
    assert sum(sizes.values()) == 150_459
    assert set(sizes) == {0, 1, 2}  # cokernel hook, one idempotent, two


def test_sigma_matches_block_lists_random():
    rng = random.Random(64)
    sizes = collections.Counter()
    while sum(sizes.values()) < 3000:
        n = rng.randrange(3, 65)
        alpha = random_diagram(n, rng)
        if 0 < alpha.rank < n:
            i = rng.randrange(1, n)
            j = rng.randrange(i + 1, n + 1)
            sizes[_sigma_agrees_with_block_lists(alpha, alpha.rank, i, j)] += 1
    assert set(sizes) == {0, 1, 2}


# -- generating sets and the rank table --------------------------------------


def test_generating_set_sizes():
    assert rank_of_ideal(4, 2, 1).rank == 81
    assert rank_of_ideal(4, 0, 2).rank == 27
    assert rank_of_ideal(3, 3, 0).rank == 4
    assert rank_of_ideal(3, 1, 0).rank == 3
    grid = generating_set(ideal_normalize(4, [(2, 1)]))
    assert grid.kind == "d-class-grid" and grid.size == 81
    column = generating_set(ideal_normalize(4, [(0, 2)]))
    assert column.size == 27
    assert {x.twist for x in column.elements} == {2, 3, 4}
    top = generating_set(ideal_normalize(3, [(3, 0)]))
    assert top.kind == "top-four" and top.size == 4
    matched = generating_set(ideal_normalize(4, [(2, 0)]))
    assert matched.kind == "idempotent-matching" and matched.size == 6
    assert all(is_idempotent_twisted(x.diagram) and x.twist == 0 for x in matched.elements)


def test_generating_set_builds_a_grid_of_exactly_the_limit(monkeypatch):
    # M(1;k) in degree 3 and M(0;k) in degree 4 have 9(k + [r = 0]) elements;
    # at these costs 9 elements fill the step budget, or the byte budget
    for cost, budget in (((STEP_BUDGET_NS // 9, 0), "60 s"), ((1, BYTE_BUDGET // 9), "1 GB")):
        monkeypatch.setitem(COSTS, "grid element", cost)
        assert generating_set(ideal_normalize(3, [(1, 1)])).size == 9
        assert generating_set(ideal_normalize(4, [(0, 0)])).size == 9
        for n, r, k in ((3, 1, 2), (4, 0, 1)):
            with pytest.raises(DiagramError) as refused:
                generating_set(ideal_normalize(n, [(r, k)]))
            assert str(refused.value) == (
                f"M({r};{k}) in degree {n} refused: it needs more than {budget}")


def test_generating_set_rejects_non_principal():
    with pytest.raises(DiagramError):
        generating_set(ideal_normalize(7, [(5, 4), (3, 2)]))


def test_m_grid_membership():
    grid = generating_set(ideal_normalize(7, [(5, 2)]))
    assert {x.twist for x in grid.elements} == {2, 3}
    assert all(x.rank <= 5 for x in grid.elements)


def test_rank_table_golden():
    assert rank_of_ideal(3, 3, 0).rank == 4
    assert rank_of_ideal(3, 1, 0).rank == 3
    assert rank_of_ideal(4, 2, 1).rank == 81
    assert rank_of_ideal(4, 0, 2).rank == 27
    info = rank_of_ideal(5, 3, 0)
    assert info.idempotent_generated and info.idrank == info.rank == 10
    info = rank_of_ideal(5, 3, 2)
    assert not info.idempotent_generated and info.idrank is None
    assert info.rank == 2 * (delta(5, 1) + delta(5, 3))
    with pytest.raises(DiagramError):
        rank_of_ideal(2, 2, 0)
    with pytest.raises(DiagramError):
        rank_of_ideal(4, 3, 0)


def test_rank_table_is_idempotent_generated_only_at_k0_mid():
    for r in index_set(4):
        for k in range(3):
            info = rank_of_ideal(4, r, k)
            assert info.idempotent_generated == (0 < r < 4 and k == 0)


def test_four_generators_reach_whole_monoid_desk_scale():
    from twisted_brauer import bounded_closure

    top = generating_set(ideal_normalize(3, [(3, 0)]))
    closure = bounded_closure(top.elements, 2).elements
    everything = {
        TwistedElement(i, d) for i in range(3) for d in all_diagrams(3)
    }
    assert closure == everything


def test_no_three_of_the_four_generators_suffice():
    from twisted_brauer import bounded_closure

    top = generating_set(ideal_normalize(3, [(3, 0)]))
    everything = {
        TwistedElement(i, d) for i in range(3) for d in all_diagrams(3)
    }
    for dropped in range(4):
        subset = [g for i, g in enumerate(top.elements) if i != dropped]
        assert bounded_closure(subset, 2).elements < everything
