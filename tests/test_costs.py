"""One cost check behind every size guard.

Each guarded entry point counts its units of work and the units it holds
from the capped counts, and ``ideals.check_cost`` refuses it above the step
budget (60 s) or the byte budget (1 GB), at the costs of the entry point's
unit in ``ideals.COSTS``.  ``BOUNDARIES`` calls every guarded entry point at
the largest request it admits, the smallest it refuses and one at 10^9, with
the check made to stop an admitted request before any of its work runs."""

import re

import pytest

from twisted_brauer import (
    DiagramError,
    DivisibilityOracle,
    all_diagrams,
    bounded_closure,
    build_gh_graph,
    d_class,
    enumeration,
    generating_set,
    ideal_normalize,
    idempotents,
    structure,
    verify,
)
from twisted_brauer.ideals import BYTE_BUDGET, COSTS, COUNT_CAP, STEP_BUDGET_NS, check_cost

ONE_TEXT = re.compile(r".+ refused: it needs more than (60 s|1 GB)")


class Admitted(Exception):
    """Raised where the check admits the call under test."""


@pytest.fixture
def stop_when_admitted(monkeypatch):
    """Patch the check where every guard calls it: an admitted call that
    names ``stop`` as its subject or its unit raises Admitted, and every
    other call is checked as usual."""
    def install(stop):
        def guard(subject, unit, work, held=0):
            check_cost(subject, unit, work, held)
            if stop in (subject, unit):
                raise Admitted

        for module in (enumeration, structure, verify):
            monkeypatch.setattr(module, "check_cost", guard)
    return install


def largest(unit, work, held):
    """The largest count c whose c * work units of work and c * held units
    held the budgets admit at the costs of ``unit``."""
    ns, size = COSTS[unit]
    counts = [STEP_BUDGET_NS // (work * ns)]
    if held * size:
        counts.append(BYTE_BUDGET // (held * size))
    return min(counts)


def gens(n, r, k):
    return generating_set(ideal_normalize(n, [(r, k)]))


TOP_3 = gens(3, 3, 0).elements  # twists 0 and 1, rank up to 3: a bound of 15 diagrams a twist

# the largest degree each verify check admits at its defaults, which give
# idempotent-closure the rank n - 2 and minimal-gens a rank in I(n)
LARGEST_DEGREES = {
    "tau-identity": 4, "green-pre-orders": 5, "green-relations": 8, "regularity": 5,
    "ideal-classification": 8, "rank-drop-lemma": 8, "twist-raise-lemma": 8,
    "twist-keep-lemma": 8, "idempotent-generation": 7, "idempotent-closure": 6,
    "gh-conditions": 9, "rank-table": 7, "minimal-gens": 6, "singular-rank": 9,
    "ig-subsemigroup": 5, "maltcev-mazorchuk": 7,
}
PARAMETERS = {"idempotent-closure": lambda n: {"n": n, "r": n - 2},
              "minimal-gens": lambda n: {"n": n, "r": n % 2}}


def _verify(theorem):
    def call(n):
        return verify.CHECKS[theorem](**PARAMETERS.get(theorem, lambda n: {"n": n})(n))
    return call


# entry point -> (its unit, or a verify check's subject; a call on one
# count; the largest count it admits)
BOUNDARIES = {
    "all_diagrams": ("streamed diagram", lambda n: next(all_diagrams(n)), 8),
    "idempotents": ("streamed diagram", lambda n: next(idempotents(n)), 8),
    "d_class": ("streamed diagram", lambda n: next(d_class(n, n)), 10),
    "DivisibilityOracle": ("oracle diagram", DivisibilityOracle, 7),
    "build_gh_graph": ("GH candidate", lambda n: build_gh_graph(n, n - 2), 9),
    "generating_set grid": ("grid element", lambda k: gens(3, 1, k),
                            largest("grid element", 9, 9)),
    "generating_set top": ("generator degree", lambda n: gens(n, n, 0),
                           largest("generator degree", 1, 1)),
    "bounded_closure": ("closure product", lambda bound: bounded_closure(TOP_3, bound),
                        largest("closure product", 15 * 4, 15) - 1),
    "tau-identity samples": ("cocycle triple degree",
                             lambda s: verify.check_tau_identity(n=10**6, samples=s),
                             largest("cocycle triple degree", 10**6, 0)),
    "tau-identity degree": ("cocycle triple degree",
                            lambda n: verify.check_tau_identity(n=n, samples=1),
                            largest("cocycle triple degree", 1, 1)),
    **{f"verify {theorem}": (f"verify {theorem}", _verify(theorem), n)
       for theorem, n in LARGEST_DEGREES.items()},
}


def test_the_boundaries_cover_every_check():
    assert set(LARGEST_DEGREES) == set(verify.CHECKS)


@pytest.mark.parametrize("entry", BOUNDARIES)
def test_each_guard_admits_its_largest_request_and_refuses_the_next(stop_when_admitted, entry):
    stop, call, admitted = BOUNDARIES[entry]
    stop_when_admitted(stop)
    with pytest.raises(Admitted):
        call(admitted)
    for refused in (admitted + 1, 10**9):
        with pytest.raises(DiagramError) as refusal:
            call(refused)
        assert ONE_TEXT.fullmatch(str(refusal.value)), (refused, str(refusal.value))


def test_a_count_past_the_cap_is_refused_in_every_unit():
    assert all(COUNT_CAP * ns > STEP_BUDGET_NS for ns, _ in COSTS.values())


@pytest.mark.parametrize("over_steps, over_bytes, budget", [
    (True, False, "60 s"), (False, True, "1 GB"),
    (True, True, "1 GB"),  # both over: the byte budget is named
])
def test_the_one_text_names_the_budget_it_exceeds(over_steps, over_bytes, budget):
    ns, size = COSTS["closure product"]
    most_work, most_held = STEP_BUDGET_NS // ns, BYTE_BUDGET // size
    check_cost("a closure", "closure product", most_work, most_held)  # both at their budget
    with pytest.raises(DiagramError) as refusal:
        check_cost("a closure", "closure product", most_work + over_steps, most_held + over_bytes)
    assert str(refusal.value) == f"a closure refused: it needs more than {budget}"
