"""Core diagram type: construction, invariants, product, involution,
notation and serialization."""

import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from twisted_brauer import (
    BrauerDiagram,
    DiagramError,
    TwistedElement,
    all_diagrams,
    diagram_from_json,
    diagram_from_json_obj,
    identity,
    is_idempotent_plain,
    is_idempotent_twisted,
    make_diagram,
    multiply,
    parse_diagram,
    permutation_diagram,
    transposition,
)
from twisted_brauer.cli import parse_element
from twisted_brauer.diagram import _raw_diagram
from twisted_brauer.enumeration import random_diagram
from conftest import (product_oracle, token_by_token_make_diagram, union_find_product,
                      unchecked_walk_product, within)


# a JSON string, a signed number or one other character
_TOKEN = re.compile(r'"[^"]*"|-?\d+|\S')


def _spaced(text: str, rng: random.Random) -> str:
    """``text`` with a random run of whitespace before each token and at the end."""
    def gap():
        return "".join(rng.choice(" \t\n") for _ in range(rng.randrange(3)))
    return "".join(gap() + token for token in _TOKEN.findall(text)) + gap()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_parse_emit_round_trip_property(n, seed):
    rng = random.Random(seed)
    d = random_diagram(n, rng)
    x = TwistedElement(rng.randrange(1, 4), d)
    assert parse_diagram(_spaced(d.to_text(), rng)) == d
    assert diagram_from_json(_spaced(d.to_json(), rng)) == d
    assert parse_element(_spaced(x.to_text(), rng)) == x
    assert parse_element(_spaced(json.dumps(x.to_json_obj()), rng)) == x


def test_make_diagram_golden(alpha6):
    assert alpha6.to_text() == "n=6: (1,3)(2,3')(4,1')(5,6)(2',6')(4',5')"


def test_make_diagram_empty():
    empty = make_diagram(0, [])
    assert empty.degree == 0 and empty.rank == 0
    assert list(all_diagrams(0)) == [empty]


def test_make_diagram_errors():
    with pytest.raises(DiagramError, match=r"block \(1, 1\) does not have size 2"):
        make_diagram(2, [(1, 1), (2, -1), (-2,)])
    with pytest.raises(DiagramError, match=r"block \(1, 2, -1\) does not have size 2"):
        make_diagram(2, [(1, 2, -1), (-2,)])
    with pytest.raises(DiagramError, match="vertex token 3 out of range for degree 2"):
        make_diagram(2, [(1, 3), (2, -1)])
    with pytest.raises(DiagramError, match="vertex token 0 out of range for degree 2"):
        make_diagram(2, [(0, 1), (2, -1)])
    with pytest.raises(DiagramError, match=r"vertex repeated in block \(1, -1\)"):
        make_diagram(2, [(1, 2), (1, -1), (-1, -2)])
    with pytest.raises(DiagramError, match="vertex 1' is not covered"):
        make_diagram(2, [(1, 2)])


def test_pairing_invariant_rejected():
    with pytest.raises(DiagramError):
        BrauerDiagram(1, (0, 1))  # fixed points
    with pytest.raises(DiagramError):
        BrauerDiagram(1, (1, 0, 3, 2))  # wrong length


def test_constructor_refuses_bad_types():
    # each once built a diagram that printed wrong or failed later on hash,
    # or raised TypeError
    for degree, pairing, message in (
        (2.0, (1, 0, 3, 2), "need an int degree and a tuple pairing, got 2.0 and a tuple"),
        (True, (1, 0), "need an int degree and a tuple pairing, got True and a tuple"),
        (1, [1, 0], "need an int degree and a tuple pairing, got 1 and a list"),
        (1, (1.0, 0), "pairing entries must be integers"),
        (1, ("1", 0), "pairing entries must be integers"),
    ):
        with pytest.raises(DiagramError, match=message):
            BrauerDiagram(degree, pairing)


def test_structural_invariants(alpha6):
    assert alpha6.rank == 2
    assert alpha6.dom == (2, 4)
    assert alpha6.codom == (1, 3)
    assert alpha6.ker == frozenset({(1, 3), (5, 6)})
    assert alpha6.coker == frozenset({(2, 6), (4, 5)})
    assert alpha6.degree - 2 * len(alpha6.ker) == alpha6.rank == 2


def test_identity_and_units():
    e = identity(4)
    assert e.rank == 4 and e.ker == frozenset()
    t = transposition(3, 1, 2)
    assert multiply(t, t) == (identity(3), 0)
    with pytest.raises(DiagramError, match="need 1 <= i < j <= n, got i=2, j=2, n=3"):
        transposition(3, 2, 2)
    with pytest.raises(DiagramError, match=r"^\[1, 1, 2\] is not a bijection of \[3\]$"):
        permutation_diagram(3, [1, 1, 2])


def test_permutation_composition_matches():
    import math

    perms = list(itertools.permutations((1, 2, 3)))
    assert len(perms) == math.factorial(3)
    for p in perms:
        for q in perms:
            composed = [q[p[i] - 1] for i in range(3)]  # apply p, then q
            lhs = multiply(permutation_diagram(3, p), permutation_diagram(3, q))
            assert lhs == (permutation_diagram(3, composed), 0)


def test_figure1_product(figure1):
    a, b, product = figure1
    assert multiply(a, b) == (product, 1)


def test_multiply_identity_neutral():
    for n in (0, 1, 3):
        for a in all_diagrams(n):
            assert multiply(a, identity(n)) == (a, 0)
            assert multiply(identity(n), a) == (a, 0)


def test_multiply_against_path_closure_oracle():
    for n in (0, 1, 2, 3):
        for a, b in itertools.product(list(all_diagrams(n)), repeat=2):
            assert multiply(a, b) == product_oracle(a, b)


def test_multiply_matches_union_find_exhaustive():
    for n in range(5):
        for a, b in itertools.product(list(all_diagrams(n)), repeat=2):
            assert multiply(a, b) == union_find_product(a, b)


def test_multiply_matches_union_find_random():
    rng = random.Random(11)
    taus = set()
    for n in list(range(65)) * 40:
        a, b = random_diagram(n, rng), random_diagram(n, rng)
        result = multiply(a, b)
        assert result == union_find_product(a, b)
        taus.add(result[1])
    assert {0, 1, 2} <= taus  # products with several floating cycles are covered


def test_multiply_refuses_a_pairing_that_is_no_involution():
    # points 1 and 2 both name point 0: the unchecked walk never returns
    with within(1.0), pytest.raises(DiagramError, match="met a middle point twice"):
        multiply(_raw_diagram(2, (1, 0, 0, 2)), identity(2))


def test_multiply_terminates_on_any_pairing_tuple():
    # entries in range but no involution: every call raises DiagramError or
    # returns a product that validation accepts, and both idempotent tests end
    rng = random.Random(13)
    raised = 0
    with within(10.0):
        for n in list(range(1, 13)) * 200:
            a, b = (_raw_diagram(n, tuple(rng.randrange(2 * n) for _ in range(2 * n)))
                    for _ in range(2))
            for test in (is_idempotent_plain, is_idempotent_twisted):
                assert test(a) in (False, True) and test(b) in (False, True)
            try:
                d, _ = multiply(a, b)
            except DiagramError:
                raised += 1
                continue
            BrauerDiagram(d.degree, d.pairing)
    assert raised > 0


@pytest.mark.parametrize("n", [6, 12, 64])
def test_multiply_matches_the_unchecked_walk(n):
    rng = random.Random(12 + n)
    for _ in range(2000):
        a, b = random_diagram(n, rng), random_diagram(n, rng)
        assert multiply(a, b) == unchecked_walk_product(a, b)


def test_multiply_degree_mismatch():
    with pytest.raises(DiagramError, match="degrees differ: 2 vs 3"):
        multiply(identity(2), identity(3))


def _assert_involution(d):
    n2 = 2 * d.degree
    assert len(d.pairing) == n2
    for p, q in enumerate(d.pairing):
        assert 0 <= q < n2 and q != p and d.pairing[q] == p


def test_operations_preserve_pairing_invariant():
    # products and stars take a validation-free construction path, so the
    # fixed-point-free involution property is checked here explicitly
    import random

    from twisted_brauer.enumeration import random_diagram

    pool = list(all_diagrams(3))
    for a, b in itertools.product(pool, repeat=2):
        _assert_involution(multiply(a, b)[0])
        _assert_involution(a.star())
    rng = random.Random(13)
    for _ in range(500):
        a, b = random_diagram(6, rng), random_diagram(6, rng)
        _assert_involution(multiply(a, b)[0])
        _assert_involution(a.star())


def test_units_never_twist():
    units = [permutation_diagram(4, p) for p in itertools.permutations((1, 2, 3, 4))]
    for sigma in units:
        for a in all_diagrams(4):
            assert multiply(sigma, a)[1] == 0
            assert multiply(a, sigma)[1] == 0


def test_ker_coker_monotone_under_product():
    pool = list(all_diagrams(3))
    for a, b in itertools.product(pool, repeat=2):
        ab = multiply(a, b)[0]
        assert a.ker <= ab.ker
        assert b.coker <= ab.coker
        assert set(ab.dom) <= set(a.dom)
        assert set(ab.codom) <= set(b.codom)


def test_ker_coker_equal_validated_signatures():
    # each is a set of disjoint hooks (a, b), 1 <= a < b <= n, equal to the
    # hooks listed in canonical order
    for n in range(6):
        for d in all_diagrams(n):
            for hooks, listed in ((d.ker, d.top_hooks()), (d.coker, d.bottom_hooks())):
                assert hooks == frozenset(listed) and len(listed) == len(hooks)
                assert all(1 <= a < b <= n for a, b in hooks)
                assert len({v for hook in hooks for v in hook}) == 2 * len(hooks)
                assert len(hooks) == (n - d.rank) // 2


def test_star_involution_golden(alpha6):
    assert alpha6.star() == make_diagram(
        6, [(1, -4), (2, 6), (3, -2), (4, 5), (-1, -3), (-5, -6)]
    )
    assert identity(5).star() == identity(5)


def test_star_antiautomorphism():
    pool = list(all_diagrams(3))
    for a in pool:
        assert a.star().star() == a
        assert a.star().rank == a.rank
        assert a.star().ker == a.coker
    for a, b in itertools.product(pool, repeat=2):
        assert multiply(a, b)[0].star() == multiply(b.star(), a.star())[0]


def test_tau_flips_under_star():
    for n in range(5):
        for a, b in itertools.product(list(all_diagrams(n)), repeat=2):
            assert multiply(a, b)[1] == multiply(b.star(), a.star())[1]


def test_plain_monoid_is_star_regular():
    # a * a^T * a = a under the plain product (twist may well be positive)
    for n in range(5):
        for a in all_diagrams(n):
            assert (a * a.star()) * a == a


def _from_notation(n, transversals, upper_hooks, lower_hooks):
    blocks = [(i, -j) for i, j in transversals] + list(upper_hooks)
    return make_diagram(n, blocks + [(-c, -d) for c, d in lower_hooks])


def test_notation_golden(alpha6):
    assert alpha6.transversal_pairs() == [(2, 3), (4, 1)]
    assert alpha6.top_hooks() == [(1, 3), (5, 6)]
    assert alpha6.bottom_hooks() == [(2, 6), (4, 5)]
    assert _from_notation(
        6, alpha6.transversal_pairs(), alpha6.top_hooks(), alpha6.bottom_hooks()
    ) == alpha6


def test_notation_identity_and_roundtrip():
    one = identity(4)
    assert len(one.transversal_pairs()) == 4 and not one.top_hooks()
    for a in all_diagrams(4):
        assert _from_notation(4, a.transversal_pairs(), a.top_hooks(), a.bottom_hooks()) == a


def test_total_order_and_hashing():
    pool = list(all_diagrams(3))
    assert pool == sorted(pool)
    assert len(set(pool)) == len(pool)
    assert sorted(set(pool)) == pool


def test_text_roundtrip_and_noncanonical_order(alpha6):
    assert parse_diagram(alpha6.to_text()) == alpha6
    scrambled = "n=6: (4',5')(3',2)(1,3)(6,5)(1',4)(6',2')"
    assert parse_diagram(scrambled) == alpha6
    with pytest.raises(DiagramError):
        parse_diagram("(1,2)")  # no degree anywhere
    assert parse_diagram("(1,2)(1',2')", degree=2) == make_diagram(2, [(1, 2), (-1, -2)])


def test_parse_whitespace_and_junk():
    assert parse_diagram("n=1: (1, 1')") == identity(1)
    assert parse_diagram("n=2: (1,2)\n(1' , 2' )\n") == make_diagram(2, [(1, 2), (-1, -2)])
    for junk in ("n=2: (1, 2)x(1',2')", "n=2: (1,2)(1',2'),", "n=2: (1,2) (1',2')x"):
        with pytest.raises(DiagramError):
            parse_diagram(junk)


def test_non_integers_rejected():
    for blocks in ([(True, -1)], [(1.0, -1)], [("1", -1)]):
        with pytest.raises(DiagramError):
            make_diagram(1, blocks)
    for degree in (True, "1", 1.0):
        with pytest.raises(DiagramError):
            make_diagram(degree, [(1, -1)])
    for obj in ({"n": "2", "blocks": [[1, 2], [-1, -2]]}, {"n": True, "blocks": [[1, -1]]},
                {"n": 1, "blocks": [1, -1]}, [1]):
        with pytest.raises(DiagramError):
            diagram_from_json_obj(obj)


class _Token(int):
    """An int subclass: accepted as a vertex token, like any int but bool."""


_MALFORMED = ("size1", "size3", "equal", "zero", "above", "below", "bool", "float",
              "str", "repeat", "missing")


def _block_corpus(rng: random.Random):
    """Seeded (kinds, degree, blocks): valid block lists in random order and
    orientation, the same with int-subclass tokens, and one to three
    malformations drawn from _MALFORMED, so that the order in which errors
    are found matters."""
    for _ in range(4000):
        kinds = [rng.choice(("valid", "subclass") + _MALFORMED)]
        if kinds[0] in _MALFORMED:
            kinds += rng.choices(_MALFORMED, k=rng.choice((0, 0, 1, 2)))
        n = rng.randrange(2, 9)
        blocks = [list(b) for b in random_diagram(n, rng).blocks()]
        rng.shuffle(blocks)
        for b in blocks:
            rng.shuffle(b)
        for kind in kinds:
            k = rng.randrange(len(blocks))
            side = rng.randrange(len(blocks[k]))
            if kind == "subclass":
                blocks[k] = [_Token(t) for t in blocks[k]]
            elif kind == "size1":
                blocks[k] = blocks[k][:1]
            elif kind == "size3":
                blocks[k] = blocks[k] + [rng.choice(blocks[k])]
            elif kind == "equal":
                blocks[k] = [blocks[k][side]] * 2
            elif kind in ("zero", "above", "below", "bool", "float", "str"):
                t = blocks[k][side]
                blocks[k][side] = {"zero": 0, "above": n + 1, "below": -(n + 1),
                                   "bool": True, "float": float(t), "str": str(t)}[kind]
            elif kind == "repeat" and len(blocks) > 1:
                blocks[k][side] = rng.choice(rng.choice(blocks[:k] + blocks[k + 1:]))
            elif kind == "missing" and len(blocks) > 1:
                del blocks[k]
        yield kinds, n, [tuple(b) for b in blocks]


# the message of each way a block list fails to be a perfect matching
FAILURE_MODES = ("does not have size 2", "out of range for degree", "vertex repeated in block",
                 "is not covered")


def test_make_diagram_matches_token_by_token_oracle():
    accepted, raised = set(), set()
    for kinds, n, blocks in _block_corpus(random.Random(2015)):
        try:
            want = token_by_token_make_diagram(n, blocks)
        except DiagramError as exc:
            with pytest.raises(DiagramError) as got:
                make_diagram(n, blocks)
            assert str(got.value) == str(exc), (n, blocks)
            raised.update(mode for mode in FAILURE_MODES if mode in str(exc))
            continue
        got = make_diagram(n, blocks)
        assert got == want and BrauerDiagram(n, got.pairing) == got, (n, blocks)
        accepted.update(kinds)
    assert accepted == {"valid", "subclass"}
    assert raised == set(FAILURE_MODES)


def test_make_diagram_validates_int_subclass_tokens():
    class Liar(int):
        def __eq__(self, other):
            return False

        __hash__ = int.__hash__

    # unequal to itself, so (1, 1) passes the block check; read as an exact
    # int, its two tokens name one point
    with pytest.raises(DiagramError, match=r"^vertex repeated in block \(1, 1\)$"):
        make_diagram(1, [(Liar(1), Liar(1)), (Liar(-1), Liar(-1))])


def test_json_roundtrip(alpha6):
    assert alpha6.to_json() == (
        '{"n": 6, "blocks": [[1, 3], [2, -3], [4, -1], [5, 6], [-2, -6], [-4, -5]]}'
    )
    assert diagram_from_json(alpha6.to_json()) == alpha6
    assert diagram_from_json('{"n": 6, "blocks": [[-4, -5], [3, 1], [2, -3], [4, -1], [6, 5], [-2, -6]]}') == alpha6


def test_hook_lists_are_already_sorted():
    for n in range(7):
        for d in all_diagrams(n):
            assert d.top_hooks() == sorted(d.top_hooks())
            assert d.bottom_hooks() == sorted(d.bottom_hooks())


def test_json_blocks_follow_the_block_list():
    for n in range(6):
        for d in all_diagrams(n):
            assert d.to_json_obj() == {"n": n, "blocks": [list(b) for b in d.blocks()]}
