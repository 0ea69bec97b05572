"""The verification harness itself: registry coverage, report shape,
determinism of seeded runs."""

import json
import time

import pytest

from twisted_brauer import DiagramError, all_diagrams, verify
from twisted_brauer.ideals import double_factorial

EXPECTED_IDS = {
    "tau-identity",
    "green-pre-orders",
    "green-relations",
    "regularity",
    "ideal-classification",
    "rank-drop-lemma",
    "twist-raise-lemma",
    "twist-keep-lemma",
    "idempotent-generation",
    "idempotent-closure",
    "gh-conditions",
    "rank-table",
    "minimal-gens",
    "singular-rank",
    "ig-subsemigroup",
    "maltcev-mazorchuk",
}


def test_registry_ids():
    assert set(verify.CHECKS) == EXPECTED_IDS


@pytest.mark.parametrize("theorem", sorted(EXPECTED_IDS))
def test_every_check_passes_at_defaults(theorem):
    report = verify.CHECKS[theorem]()
    assert report.passed, (theorem, report.counterexample)
    assert report.counterexample is None
    assert report.seconds >= 0
    payload = json.loads(report.to_json())
    assert payload["theorem"] == theorem
    assert payload["counts"]


def test_sampled_checks_are_deterministic():
    first = verify.check_tau_identity(n=4, exhaustive=False, samples=500, seed=9)
    second = verify.check_tau_identity(n=4, exhaustive=False, samples=500, seed=9)
    assert first.passed and second.passed
    assert first.params == second.params
    assert first.counts == second.counts


def test_fail_reports_carry_counterexamples():
    report = verify.VerificationReport("demo", {"n": 1})
    report.fail(alpha="n=1: (1,1')")
    assert report.status == "fail"
    assert report.counterexample == {"alpha": "n=1: (1,1')"}
    report.fail(alpha="other")  # first witness is kept
    assert report.counterexample == {"alpha": "n=1: (1,1')"}


def test_sampled_triples_refuse_fewer_than_one_sample():
    for samples in (0, -3):
        with pytest.raises(DiagramError):
            verify.check_tau_identity(n=7, samples=samples)


def test_sampled_pairs_refuse_fewer_than_one_sample():
    # refused before the degree-7 divisibility oracle, which takes seconds
    start = time.perf_counter()
    with pytest.raises(DiagramError):
        verify.check_green_preorders(n=7, samples=0)
    assert time.perf_counter() - start < 1.0


def test_ideal_classification_refuses_fewer_than_one_case():
    with pytest.raises(DiagramError):
        verify.check_ideal_classification(cases=0)


def test_sweep_counts_are_exact_up_to_the_limit():
    for n in range(7):
        ranks = [d.rank for d in all_diagrams(n)]
        for r in range(-1, n + 1):
            assert verify._diagrams(n, r) == sum(1 for rank in ranks if rank <= r)
    for n in range(9):  # |B_8| = SWEEP_LIMIT
        assert verify._diagrams(n) == double_factorial(2 * n - 1) <= verify.SWEEP_LIMIT
    assert verify._diagrams(9) > verify.SWEEP_LIMIT
