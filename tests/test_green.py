"""Green's pre-orders and relations, constructive witnesses, regularity."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from twisted_brauer import (
    DiagramError,
    DivisibilityOracle,
    PreconditionError,
    TwistedElement,
    all_diagrams,
    as_twisted,
    canonical_idempotent,
    d_class,
    delta,
    factor_left,
    factor_right,
    factor_two_sided,
    green_class,
    identity,
    index_set,
    is_idempotent_twisted,
    is_regular,
    leq_J,
    leq_L,
    leq_R,
    make_diagram,
    multiply,
    permutation_diagram,
    rho,
    same_class,
    star,
    star_chain,
    twisted_leq,
)
from twisted_brauer.enumeration import random_diagram

from conftest import block_list_factor_right, block_list_factor_two_sided


def test_preorders_reflexive_transitive_n3():
    pool = list(all_diagrams(3))
    for rel in (leq_R, leq_L, leq_J):
        for a in pool:
            assert rel(a, a)
        for a, b, c in itertools.product(pool, repeat=3):
            if rel(a, b) and rel(b, c):
                assert rel(a, c)


def test_preorders_match_divisibility_oracle_n3():
    oracle = DivisibilityOracle(3)
    pool = oracle.diagrams
    for a, b in itertools.product(pool, repeat=2):
        assert leq_R(a, b) == oracle.leq_R(a, b)
        assert leq_L(a, b) == oracle.leq_L(a, b)
        assert leq_J(a, b) == oracle.leq_J(a, b)


def _assert_invariants_match_hook_sets(a, b):
    assert leq_R(a, b) == (b.ker <= a.ker)
    assert leq_L(a, b) == (b.coker <= a.coker)
    assert a.rank == len(a.transversal_pairs())


def test_preorders_match_hook_sets_exhaustive_n4():
    pool = list(all_diagrams(4))
    for a, b in itertools.product(pool, repeat=2):
        _assert_invariants_match_hook_sets(a, b)


def _kernel_inside(alpha, rng):
    """A random diagram whose upper hooks are a random subset of alpha's."""
    n = alpha.degree
    hooks = [h for h in alpha.top_hooks() if rng.random() < 0.5]
    closed = {x for h in hooks for x in h}
    bottoms = rng.sample(range(1, n + 1), n)
    blocks = hooks + [(x, -bottoms.pop()) for x in range(1, n + 1) if x not in closed]
    blocks += [(-bottoms[i], -bottoms[i + 1]) for i in range(0, len(bottoms), 2)]
    return make_diagram(n, blocks)


@pytest.mark.parametrize("n", [6, 10, 20, 40])
def test_preorders_match_hook_sets_random(n):
    rng = random.Random(n)
    comparable = 0
    for k in range(600):
        a = random_diagram(n, rng)
        b = (random_diagram(n, rng), _kernel_inside(a, rng),
             _kernel_inside(a.star(), rng).star())[k % 3]
        _assert_invariants_match_hook_sets(a, b)
        comparable += leq_R(a, b) or leq_L(a, b)
    assert comparable >= 600 // 4


def test_mutual_R_is_kernel_equality_n3():
    pool = list(all_diagrams(3))
    for a, b in itertools.product(pool, repeat=2):
        assert (leq_R(a, b) and leq_R(b, a)) == (a.ker == b.ker)


def test_rank0_below_everything():
    low = [d for d in all_diagrams(4) if d.rank == 0]
    assert len(low) == 9
    for a in low:
        for b in all_diagrams(4):
            assert leq_J(a, b)


def test_factor_right_unit_when_kernels_equal():
    pool = list(all_diagrams(4))
    for a, b in itertools.product(pool, repeat=2):
        if a.ker == b.ker:
            dlt = factor_right(a, b)
            assert dlt.rank == 4  # a unit
            assert multiply(b, dlt) == (a, 0)


def test_factor_right_requires_precondition():
    a = identity(4)
    b = next(d for d in all_diagrams(4) if d.rank == 2)
    with pytest.raises(PreconditionError):
        factor_right(a, b)


def test_factor_exhaustive_n4():
    pool = list(all_diagrams(4))
    pairs = 0
    for a, b in itertools.product(pool, repeat=2):
        if leq_R(a, b):
            assert multiply(b, factor_right(a, b)) == (a, 0)
            pairs += 1
        if leq_L(a, b):
            assert multiply(factor_left(a, b), b) == (a, 0)
    assert pairs > len(pool)  # reflexivity alone already gives |B_4|


def test_factor_left_mirrors_right(alpha6):
    gamma = factor_left(alpha6, alpha6)
    assert multiply(gamma, alpha6) == (alpha6, 0)
    delta_w = factor_right(alpha6.star(), alpha6.star())
    assert gamma == delta_w.star()


def test_factor_two_sided_exhaustive_n3():
    pool = list(all_diagrams(3))
    seen = 0
    for a, b in itertools.product(pool, repeat=2):
        if a.rank <= b.rank:
            g, d = factor_two_sided(a, b)
            assert star_chain(g, b, d) == TwistedElement(0, a)
            seen += 1
    assert seen == 171


def test_factor_two_sided_unit_case():
    rng = random.Random(3)
    sigma = permutation_diagram(5, (2, 1, 4, 5, 3))
    for _ in range(100):
        a = random_diagram(5, rng)
        g, d = factor_two_sided(a, sigma)
        assert star_chain(g, sigma, d) == TwistedElement(0, a)


def test_factor_two_sided_random_n5():
    rng = random.Random(31)
    done = 0
    while done < 100:
        a, b = random_diagram(5, rng), random_diagram(5, rng)
        if a.rank > b.rank:
            continue
        g, d = factor_two_sided(a, b)
        assert star_chain(g, b, d) == TwistedElement(0, a)
        done += 1


def _outcome(factor, alpha, beta):
    """A factorization's witness, or the message of its PreconditionError."""
    try:
        return factor(alpha, beta)
    except PreconditionError as refusal:
        return "refused: " + str(refusal)


def _block_list_factor_left(alpha, beta):
    """Reference factor_left: its coker check and the * duality over
    ``block_list_factor_right``."""
    if not beta.coker <= alpha.coker:
        raise PreconditionError("coker(alpha) does not contain coker(beta)")
    return block_list_factor_right(alpha.star(), beta.star()).star()


def _factors_agree_with_block_lists(alpha, beta):
    """Compare the three factorizations of (alpha, beta) with their
    block-list references; returns the number of refusals."""
    refused = 0
    for factor, reference in ((factor_right, block_list_factor_right),
                              (factor_left, _block_list_factor_left),
                              (factor_two_sided, block_list_factor_two_sided)):
        got = _outcome(factor, alpha, beta)
        assert got == _outcome(reference, alpha, beta)
        refused += isinstance(got, str)
    return refused


def test_factors_match_block_lists_exhaustive():
    # every pair with n <= 4: 11,261 pairs, 33,783 factorizations, 17,664 refused
    refused = 0
    for n in range(5):
        pool = list(all_diagrams(n))
        for a, b in itertools.product(pool, repeat=2):
            refused += _factors_agree_with_block_lists(a, b)
    assert refused == 17_664


def test_factors_match_block_lists_random():
    # 2,000 pairs at degrees 1-64: b*d, g*b and g*b*d in turn against b, so
    # the right, left and two-sided pre-orders hold by construction
    rng = random.Random(20)
    for k in range(2000):
        n = rng.randrange(1, 65)
        b, d, g = (random_diagram(n, rng) for _ in range(3))
        _factors_agree_with_block_lists((b * d, g * b, g * b * d)[k % 3], b)


def test_twisted_leq_statement():
    a = next(d for d in all_diagrams(4) if d.rank == 2)
    b = identity(4)
    assert twisted_leq("J", TwistedElement(2, a), TwistedElement(1, b))
    assert not twisted_leq("R", TwistedElement(0, a), TwistedElement(1, a))
    assert twisted_leq("R", TwistedElement(1, a), TwistedElement(0, a))


def test_twisted_leq_against_bounded_witness_search():
    pool = list(all_diagrams(3))
    elements = [TwistedElement(i, d) for i in range(3) for d in pool]
    low = [x for x in elements if x.twist <= 1]
    rng = random.Random(17)
    sample = [(rng.choice(low), rng.choice(low)) for _ in range(150)]
    for x, y in sample:
        found = any(
            star_chain(g, y, d) == x
            for g in elements
            if g.twist <= x.twist
            for d in pool
        )
        assert found == twisted_leq("J", x, y)


def test_green_classes_counts():
    n = 4
    for r in index_set(n):
        members = list(d_class(n, r))
        assert len(members) == delta(n, r)
        assert len({m.ker for m in members}) == rho(n, r)
        assert len({(m.ker, m.coker) for m in members}) == rho(n, r) ** 2
    assert rho(4, 2) == 6
    descriptions = {
        green_class("D", TwistedElement(i, d))
        for i in range(3)
        for d in all_diagrams(4)
    }
    assert len(descriptions) == 9  # 3 ranks x 3 twists


def test_d_class_order_is_product_of_chains():
    # one representative per rank; order = (rank ascending) x (twist descending)
    reps = {r: next(iter(d_class(4, r))) for r in index_set(4)}
    for (r1, a), (r2, b) in itertools.product(reps.items(), repeat=2):
        for i, j in itertools.product(range(4), repeat=2):
            expected = r1 <= r2 and i >= j
            assert twisted_leq("J", TwistedElement(i, a), TwistedElement(j, b)) == expected


def test_same_class_semantics():
    pool = list(all_diagrams(3))
    for a, b in itertools.product(pool, repeat=2):
        for rel, plain in (
            ("R", a.ker == b.ker),
            ("L", a.coker == b.coker),
            ("H", a.ker == b.ker and a.coker == b.coker),
            ("D", a.rank == b.rank),
            ("J", a.rank == b.rank),
        ):
            assert same_class(rel, as_twisted(a), as_twisted(b)) == plain
            assert not same_class(rel, TwistedElement(1, a), TwistedElement(0, b))
            assert same_class(rel, TwistedElement(2, a), TwistedElement(2, b)) == plain
    # an unknown relation is refused even when the twists already differ
    a = pool[0]
    with pytest.raises(DiagramError):
        same_class("X", TwistedElement(0, a), TwistedElement(1, a))


def test_green_class_description():
    x = TwistedElement(1, identity(3))
    desc = green_class("D", x)
    assert desc.twist == 1 and desc.rank == 3
    assert "rank=3" in str(desc)
    assert green_class("R", x).kernel == ()


def test_class_equals_unit_translates_n3():
    pool = list(all_diagrams(3))
    units = [d for d in pool if d.rank == 3]
    for a in pool:
        r_class = {b for b in pool if same_class("R", as_twisted(a), as_twisted(b))}
        assert r_class == {(a * s) for s in units}
        l_class = {b for b in pool if same_class("L", as_twisted(a), as_twisted(b))}
        assert l_class == {(s * a) for s in units}
        d_cls = {b for b in pool if same_class("D", as_twisted(a), as_twisted(b))}
        assert d_cls == {(s * a) * t for s in units for t in units}


def test_is_regular_statement():
    assert not is_regular(TwistedElement(1, identity(4)))
    rank0 = next(d for d in all_diagrams(4) if d.rank == 0)
    assert not is_regular(as_twisted(rank0))
    assert is_regular(as_twisted(identity(4)))
    assert is_regular(as_twisted(identity(0)))  # trivial monoid


def test_is_regular_against_witness_search():
    pool = list(all_diagrams(3))
    elements = [TwistedElement(i, d) for i in range(2) for d in pool]
    for x in elements:
        found = any(star(star(x, y), x) == x for y in elements)
        assert found == is_regular(x)


def test_canonical_idempotent_shapes():
    for n in range(1, 7):
        for r in index_set(n):
            if r == 0:
                with pytest.raises(PreconditionError):
                    canonical_idempotent(n, r)
                continue
            eps = canonical_idempotent(n, r)
            assert eps.rank == r
            assert is_idempotent_twisted(eps)
    assert canonical_idempotent(5, 5) == identity(5)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_factor_postconditions_property(n, seed):
    rng = random.Random(seed)
    b, d, g = (random_diagram(n, rng) for _ in range(3))
    alpha = b * d
    assert multiply(b, factor_right(alpha, b)) == (alpha, 0)
    alpha = g * b
    assert multiply(factor_left(alpha, b), b) == (alpha, 0)
    alpha = g * b * d
    gamma, dlt = factor_two_sided(alpha, b)
    assert star_chain(gamma, b, dlt) == TwistedElement(0, alpha)
    assert gamma.rank == n  # a unit
