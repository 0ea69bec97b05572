"""Twisted monoid: star product, chains, involution, idempotents."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from twisted_brauer import (
    DiagramError,
    TwistedElement,
    all_diagrams,
    as_twisted,
    identity,
    is_idempotent_plain,
    is_idempotent_twisted,
    make_diagram,
    multiply,
    permutation_diagram,
    star,
    star_chain,
)
from twisted_brauer.enumeration import hook_patterns, random_diagram
from twisted_brauer.ideals import gh_degree, index_set
from twisted_brauer.structure import factor_into_idempotents
from twisted_brauer.twisted import _hook_idempotent, _square_walk
from conftest import within


def test_star_figure1(figure1):
    a, b, product = figure1
    assert star(a, b) == TwistedElement(1, product)
    assert star(TwistedElement(0, a), TwistedElement(0, b)).twist == 1


def test_star_accumulates_on_units():
    one = identity(4)
    assert star(TwistedElement(3, one), TwistedElement(4, one)) == TwistedElement(7, one)


def test_twist_must_be_natural():
    for twist in (-1, True, 1.0, "1"):
        with pytest.raises(DiagramError):
            TwistedElement(twist, identity(2))


def test_star_degree_mismatch():
    with pytest.raises(DiagramError, match="degrees differ: 2 vs 3"):
        star(identity(2), identity(3))


def test_star_associative_exhaustive_n3():
    pool = [as_twisted(d) for d in all_diagrams(3)]
    for x, y, z in itertools.product(pool, repeat=3):
        assert star(star(x, y), z) == star(x, star(y, z))


def test_star_chain_folds_and_rebrackets():
    rng = random.Random(11)
    for n, rounds in ((4, 400), (5, 1000)):
        for _ in range(rounds):
            a, b, c = (random_diagram(n, rng) for _ in range(3))
            left = star(star(as_twisted(a), b), c)
            right = star(as_twisted(a), star(b, c))
            assert star_chain(a, b, c) == left == right


def test_star_chain_of_units_has_no_twist():
    perms = list(itertools.permutations((1, 2, 3, 4)))
    rng = random.Random(5)
    for _ in range(50):
        sigmas = [permutation_diagram(4, rng.choice(perms)) for _ in range(4)]
        assert star_chain(*sigmas).twist == 0


def test_star_chain_single_and_empty():
    assert star_chain(identity(2)) == as_twisted(identity(2))
    assert star_chain([identity(2)]) == as_twisted(identity(2))
    with pytest.raises(DiagramError):
        star_chain()


def test_embedding_not_homomorphism(figure1):
    a, b, _ = figure1
    assert star(a, b) != as_twisted((a * b))


def test_involution_antiautomorphism(figure1):
    a, b, _ = figure1
    x, y = as_twisted(a), as_twisted(b)
    assert star(x, y).star_involution() == star(y.star_involution(), x.star_involution())
    one = as_twisted(identity(10))
    assert one.star_involution() == one
    for d in all_diagrams(4):
        x = as_twisted(d)
        assert x.star_involution().star_involution() == x


def test_involution_antiautomorphism_exhaustive_n3():
    pool = [as_twisted(d) for d in all_diagrams(3)]
    for x, y in itertools.product(pool, repeat=2):
        assert star(x, y).star_involution() == star(y.star_involution(), x.star_involution())


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_cocycle_and_associativity_property(n, seed):
    # tau(a,b) + tau(ab,c) = tau(a,bc) + tau(b,c) and (ab)c = a(bc), past
    # the degrees the exhaustive tests reach
    rng = random.Random(seed)
    a, b, c = (random_diagram(n, rng) for _ in range(3))
    ab, t_ab = multiply(a, b)
    bc, t_bc = multiply(b, c)
    left, t_ab_c = multiply(ab, c)
    right, t_a_bc = multiply(a, bc)
    assert left == right and t_ab + t_ab_c == t_a_bc + t_bc


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_involution_antiautomorphism_property(n, seed):
    # (xy)* = y*x*, twist included
    rng = random.Random(seed)
    x, y = (TwistedElement(rng.randrange(4), random_diagram(n, rng)) for _ in range(2))
    assert star(x, y).star_involution() == star(y.star_involution(), x.star_involution())


def test_idempotent_examples_degree6():
    plain_only = make_diagram(6, [(1, -1), (3, -3), (2, 4), (5, 6), (-2, -4), (-5, -6)])
    assert is_idempotent_plain(plain_only)
    assert not is_idempotent_twisted(plain_only)
    assert star(plain_only, plain_only) == TwistedElement(2, plain_only)

    genuinely_twisted = make_diagram(
        6, [(1, -1), (3, -2), (2, 4), (5, 6), (-4, -5), (-3, -6)]
    )
    assert is_idempotent_twisted(genuinely_twisted)
    assert is_idempotent_twisted(identity(6))


def test_twisted_idempotents_inside_plain_strictly():
    for n in range(2, 7):
        plain = {d for d in all_diagrams(n) if is_idempotent_plain(d)}
        twisted = {d for d in all_diagrams(n) if is_idempotent_twisted(d)}
        assert twisted < plain


def _idempotent_by_product(d):
    prod, tau = multiply(d, d)
    return prod == d, prod == d and tau == 0


def test_idempotent_walk_matches_product_exhaustive():
    plain_counts, twisted_counts = [], []
    for n in range(7):
        plain = twisted = 0
        for d in all_diagrams(n):
            expected = _idempotent_by_product(d)
            assert (is_idempotent_plain(d), is_idempotent_twisted(d)) == expected, d
            plain += expected[0]
            twisted += expected[1]
        plain_counts.append(plain)
        twisted_counts.append(twisted)
    assert twisted_counts == [1, 1, 1, 7, 25, 181, 1201]
    assert plain_counts == [1, 1, 2, 10, 40, 296, 1936]


def test_idempotent_walk_matches_product_random():
    # idempotent chains supply twisted idempotents, and a a* supplies plain
    # idempotents that mostly carry floating loops
    rng = random.Random(11)
    seen = {(False, False): 0, (True, False): 0, (True, True): 0}
    for _ in range(200):
        n = rng.randrange(3, 65)
        alpha = random_diagram(n, rng)
        pool = [alpha, multiply(alpha, alpha.star())[0]]
        if alpha.rank < n:
            pool += factor_into_idempotents(alpha)
        for d in pool:
            expected = _idempotent_by_product(d)
            assert (is_idempotent_plain(d), is_idempotent_twisted(d)) == expected, d
            seen[expected] += 1
    assert min(seen.values()) > 100


def test_positive_twist_never_idempotent():
    for d in all_diagrams(3):
        for i in (1, 2):
            assert not is_idempotent_twisted(TwistedElement(i, d))


def test_idempotent_test_takes_plain_and_twisted_alike():
    for d in all_diagrams(4):
        assert is_idempotent_twisted(d) == is_idempotent_twisted(TwistedElement(0, d))
    with pytest.raises(TypeError):
        is_idempotent_twisted("n=1: (1,1')")


def test_text_and_json_forms():
    x = TwistedElement(2, make_diagram(2, [(1, 2), (-1, -2)]))
    assert x.to_text() == "2 * n=2: (1,2)(1',2')"
    assert x.to_json_obj() == {"n": 2, "blocks": [[1, 2], [-1, -2]], "twist": 2}


@pytest.mark.parametrize("n", range(8))
def test_hook_idempotent_on_every_hook_pair(n):
    # each (U, C) pair of a rank either raises or gives a twisted idempotent
    # on exactly those hooks, and each U meets gh_degree(n, r) such C
    for r in index_set(n):
        patterns = [hooks for hooks, _ in hook_patterns(n, r)]
        for upper in patterns:
            built = 0
            for lower in patterns:
                try:
                    e = _hook_idempotent(n, [(a - 1, b - 1) for a, b in upper],
                                         [(c - 1, d - 1) for c, d in lower])
                except DiagramError as exc:
                    assert "not an edge" in str(exc)
                    continue
                built += 1
                assert (e.ker, e.coker) == (frozenset(upper), frozenset(lower))
                assert _square_walk(e) == n and multiply(e, e) == (e, 0)
            assert built == gh_degree(n, r)


def test_hook_idempotent_refuses_negated_hook_ends_without_looping():
    # each hook's second end negated, as by a slip row + x, row - y in the
    # writer: the walk would loop on some of these, and every one is refused
    with within(10.0):
        for n in range(2, 8):
            for r in range(n % 2, n, 2):
                patterns = [[(a - 1, 1 - b) for a, b in hooks] for hooks, _ in hook_patterns(n, r)]
                for upper, lower in itertools.product(patterns, repeat=2):
                    with pytest.raises(DiagramError):
                        _hook_idempotent(n, upper, lower)


def test_hook_idempotent_refuses_overlapping_hooks():
    # a first or a second end on a used point, and a hook on one point
    for upper, lower in (([(0, 1), (1, 2)], []), ([(0, 1), (2, 1)], []), ([(3, 3)], []),
                         ([], [(0, 2), (2, 3)]), ([], [(0, 2), (3, 0)]), ([], [(1, 1)])):
        with pytest.raises(DiagramError, match="meets a point already used"):
            _hook_idempotent(4, upper, lower)
