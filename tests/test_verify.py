"""The verification harness itself: registry coverage, report shape,
determinism of seeded runs."""

import json
import time

import pytest

from twisted_brauer import DiagramError, verify

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
