"""Each hypothesis of the paper and each input rule is raised by one helper,
with one text, at every entry point that states it.

The results hold from a least degree (n >= 3 for most), the
idempotent-generated ideals I(r;0) are those of proper rank 0 < r < n, the
twist lemmas and the idempotent factorization need a singular diagram
(r <= n - 2), the rank-drop lemma needs r <= n - 4, and a transposition
sigma_ij needs 1 <= i < j <= n: outside a hypothesis an entry point raises
PreconditionError.  A negative twist parameter, operands of different
degrees, a negative degree, an unknown relation, a value below its least,
terms out of order and an operand that is not a plain diagram are malformed
input: DiagramError.  Every call below sits just outside its rule."""

import random

import pytest

import twisted_brauer
from twisted_brauer import (
    BrauerDiagram,
    DiagramError,
    DivisibilityOracle,
    IdealSpec,
    PreconditionError,
    TwistedElement,
    all_diagrams,
    build_gh_graph,
    d_class,
    factor_into_idempotents,
    factor_left,
    factor_right,
    factor_two_sided,
    generating_set,
    green,
    green_class,
    ideal_contains,
    ideal_normalize,
    ideal_subset,
    identity,
    idempotent_factor_sigma,
    ig_subsemigroup_rank,
    in_idempotent_generated,
    leq_J,
    leq_L,
    leq_R,
    make_diagram,
    multiply,
    random_diagram,
    rank_of_ideal,
    same_class,
    singular_generating_set,
    singular_rank,
    transposition,
    twisted_leq,
)
from twisted_brauer.cli import main
from twisted_brauer.enumeration import bounded_closure, truncation
from twisted_brauer.ideals import gh_degree, lemma_rank_drop, lemma_twist_keep, lemma_twist_raise
from twisted_brauer.verify import CHECKS

HOOK2 = make_diagram(2, [(1, 2), (-1, -2)])
RANK0 = make_diagram(4, [(1, 2), (3, 4), (-1, -2), (-3, -4)])
SPEC2, SPEC3 = IdealSpec(2, ((2, 0),)), IdealSpec(3, ((1, 0),))


def degree_3(subject):
    return f"{subject} is stated for n >= 3, got n = 2"


def proper_rank(subject, r, n):
    return f"{subject} is stated for 0 < r < n, got r = {r} in degree {n}"


def singular(subject, r=3, n=3, gap=2):
    return f"{subject} is stated for r <= n - {gap}, got r = {r} in degree {n}"


PAIR = "need 1 <= i < j <= n, got i=2, j=2, n=3"
RANK1 = make_diagram(3, [(1, -1), (2, 3), (-2, -3)])


HYPOTHESES = {  # entry point -> (call, text)
    "build_gh_graph degree": (lambda: build_gh_graph(2, 0),
                              degree_3("the Graham-Houghton analysis")),
    "generating_set top-four": (lambda: generating_set(SPEC2),
                                degree_3("the four-generator description")),
    "ig_subsemigroup_rank": (lambda: ig_subsemigroup_rank(2),
                             degree_3("the idempotent-generated subsemigroup's rank")),
    "factor_into_idempotents": (lambda: factor_into_idempotents(HOOK2),
                                degree_3("idempotent factorization")),
    "rank_of_ideal degree": (lambda: rank_of_ideal(2, 0, 1), degree_3("the rank table")),
    "singular_rank": (lambda: singular_rank(2), degree_3("the singular rank formula")),
    "singular_generating_set": (lambda: singular_generating_set(2),
                                degree_3("the singular generating set")),
    "in_idempotent_generated": (lambda: in_idempotent_generated(HOOK2),
                                degree_3("the idempotent-generated subsemigroup")),
    "build_gh_graph rank n": (lambda: build_gh_graph(3, 3),
                              proper_rank("the Graham-Houghton analysis", 3, 3)),
    "build_gh_graph rank 0": (lambda: build_gh_graph(4, 0),
                              proper_rank("the Graham-Houghton analysis", 0, 4)),
    "gh_degree rank n": (lambda: gh_degree(3, 3), proper_rank("the Graham-Houghton degree", 3, 3)),
    "gh_degree rank 0": (lambda: gh_degree(4, 0), proper_rank("the Graham-Houghton degree", 0, 4)),
    "idempotent_factor_sigma rank n": (lambda: idempotent_factor_sigma(identity(3), 1, 2),
                                       proper_rank("the absorption of sigma_ij", 3, 3)),
    "idempotent_factor_sigma rank 0": (lambda: idempotent_factor_sigma(RANK0, 1, 2),
                                       proper_rank("the absorption of sigma_ij", 0, 4)),
    **{f"verify {theorem} rank {r}": (lambda theorem=theorem, r=r: CHECKS[theorem](n=3, r=r),
                                      proper_rank(f"verify {theorem}", r, 3))
       for theorem in ("idempotent-closure", "idempotent-generation", "gh-conditions")
       for r in (0, 3)},
    "verify gh-conditions degree": (lambda: CHECKS["gh-conditions"](n=2),
                                    "verify gh-conditions is stated for n >= 3, got n = 2"),
    "verify tau-identity degree": (lambda: CHECKS["tau-identity"](n=-1),
                                   "verify tau-identity is stated for n >= 0, got n = -1"),
    "verify minimal-gens k = 0": (lambda: CHECKS["minimal-gens"](n=3, r=1, k=0),
                                  "verify minimal-gens is stated for k >= 1 or r = 0, got r = 1, "
                                  "k = 0"),
    "lemma_rank_drop": (lambda: lemma_rank_drop(next(d_class(6, 4))),
                        singular("the rank-drop lemma", 4, 6, 4)),
    "lemma_twist_raise": (lambda: lemma_twist_raise(identity(3)),
                          singular("the twist-raising lemma")),
    "lemma_twist_keep": (lambda: lemma_twist_keep(identity(3)),
                         singular("the twist-keeping lemma")),
    "factor_into_idempotents unit": (lambda: factor_into_idempotents(identity(3)),
                                     singular("idempotent factorization")),
    "transposition": (lambda: transposition(3, 2, 2), PAIR),
    "idempotent_factor_sigma pair": (lambda: idempotent_factor_sigma(RANK1, 2, 2), PAIR),
}

TWIST = "twist parameter -1 must be non-negative"
DEGREES = "degrees differ: 2 vs 3"
DEGREE = "degree must be a non-negative integer, got -1"
ORDER = "term ranks and twists must be strictly decreasing"
# operands that are no diagram: a twist-0 element, a str and None miss the
# oracle's index, and a list is no key at all
NOT_DIAGRAMS = (("twisted element", TwistedElement(0, identity(3))), ("str", "x"),
                ("NoneType", None), ("list", [1]))
INPUT_RULES = {
    "IdealSpec twist": (lambda: IdealSpec(4, ((2, -1),)), TWIST),
    "ideal_normalize twist": (lambda: ideal_normalize(4, [(2, -1)]), TWIST),
    "rank_of_ideal twist": (lambda: rank_of_ideal(4, 2, -1), TWIST),
    "ideal_contains": (lambda: ideal_contains(SPEC3, identity(2)), DEGREES),
    "ideal_subset": (lambda: ideal_subset(SPEC2, SPEC3), DEGREES),
    **{name: (lambda f=f: f(identity(2), identity(3)), DEGREES)
       for name, f in (("leq_R", leq_R), ("leq_L", leq_L), ("leq_J", leq_J),
                       ("factor_right", factor_right), ("factor_left", factor_left),
                       ("factor_two_sided", factor_two_sided), ("multiply", multiply))},
    "same_class": (lambda: same_class("R", identity(2), identity(3)), DEGREES),
    # the degrees are checked before the twists can decide
    "twisted_leq": (lambda: twisted_leq("R", TwistedElement(0, identity(2)),
                                        TwistedElement(1, identity(3))), DEGREES),
    "twisted_leq swapped": (lambda: twisted_leq("R", TwistedElement(1, identity(3)),
                                                TwistedElement(0, identity(2))),
                            "degrees differ: 3 vs 2"),
    **{f"DivisibilityOracle {rel}": (lambda rel=rel: getattr(DivisibilityOracle(3), rel)(
        identity(2), identity(3)), DEGREES) for rel in ("leq_R", "leq_L", "leq_J")},
    "DivisibilityOracle beta": (lambda: DivisibilityOracle(3).leq_R(identity(3), identity(2)),
                                "degrees differ: 3 vs 2"),
    "DivisibilityOracle both operands": (
        lambda: DivisibilityOracle(3).leq_R(identity(2), identity(2)), DEGREES),
    "make_diagram": (lambda: make_diagram(-1, []), DEGREE),
    "identity": (lambda: identity(-1), DEGREE),
    "all_diagrams": (lambda: next(all_diagrams(-1)), DEGREE),
    "d_class": (lambda: next(d_class(-1, 1)), DEGREE),
    "truncation": (lambda: truncation(-1, [0]), DEGREE),
    "IdealSpec degree": (lambda: IdealSpec(-1, ()), DEGREE),
    "ideal_normalize degree": (lambda: ideal_normalize(-1, []), DEGREE),
    "BrauerDiagram": (lambda: BrauerDiagram(-1, ()), DEGREE),
    "random_diagram": (lambda: random_diagram(-1, random.Random(0)), DEGREE),
    "green_class relation": (lambda: green_class("X", identity(2)),
                             "relation must be one of R, L, H, D, J, not 'X'"),
    "twisted_leq relation": (lambda: twisted_leq("H", identity(2), identity(2)),
                             "relation must be one of R, L, J, not 'H'"),
    "bounded_closure bound": (lambda: bounded_closure([identity(2)], -1),
                              "bound must be at least 0, got -1"),
    "verify regularity bound": (lambda: CHECKS["regularity"](n=2, bound=-1),
                                "bound must be at least 0, got -1"),
    "IdealSpec rank order": (lambda: IdealSpec(7, ((3, 2), (5, 4))), ORDER),
    "IdealSpec twist order": (lambda: IdealSpec(7, ((5, 2), (3, 4))), ORDER),
    "IdealSpec equal ranks": (lambda: IdealSpec(7, ((5, 4), (5, 2))), ORDER),
    "IdealSpec equal twists": (lambda: IdealSpec(7, ((5, 2), (3, 2))), ORDER),
    **{f"DivisibilityOracle {rel} {kind}": (
        lambda rel=rel, x=x: getattr(DivisibilityOracle(3), rel)(x, identity(3)),
        f"expected a plain diagram, got a {kind}")
       for rel in ("leq_R", "leq_L", "leq_J") for kind, x in NOT_DIAGRAMS},
    **{f"DivisibilityOracle beta {kind}": (
        lambda x=x: DivisibilityOracle(3).leq_R(identity(3), x),
        f"expected a plain diagram, got a {kind}") for kind, x in NOT_DIAGRAMS},
}


@pytest.mark.parametrize("entry", HYPOTHESES)
def test_a_request_outside_a_hypothesis_is_a_precondition_error(entry):
    call, text = HYPOTHESES[entry]
    with pytest.raises(DiagramError) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (PreconditionError, text)


@pytest.mark.parametrize("entry", INPUT_RULES)
def test_malformed_input_is_a_diagram_error(entry):
    call, text = INPUT_RULES[entry]
    with pytest.raises(DiagramError) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (DiagramError, text)


@pytest.mark.parametrize("theorem, n, r", [
    ("idempotent-closure", 3, 3), ("gh-conditions", 3, 3), ("idempotent-generation", 3, 3),
    ("idempotent-generation", 12, 12),  # refused by its rank before its size
])
def test_verify_refuses_a_rank_that_is_not_proper(capsys, theorem, n, r):
    code = main(["verify", theorem, "--n", str(n), "--r", str(r)])
    out = capsys.readouterr()
    text = proper_rank(f"verify {theorem}", r, n)
    assert (code, out.out, out.err) == (1, "", f"error: {text}\n")


def test_the_precondition_error_is_importable_where_it_was():
    assert twisted_brauer.PreconditionError is green.PreconditionError is PreconditionError
    assert issubclass(PreconditionError, DiagramError)
