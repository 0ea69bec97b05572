"""The verification harness itself: registry coverage, report shape,
determinism of seeded runs."""

import itertools
import json
import time

import pytest

from twisted_brauer import DiagramError, all_diagrams, verify
from twisted_brauer.ideals import (
    COUNT_CAP,
    capped_delta,
    capped_diagrams,
    capped_rho,
    capped_sum,
    delta,
    double_factorial,
    index_set,
    rho,
)

# the report of each check at its defaults, without the elapsed seconds
GOLDEN = """
{"theorem": "tau-identity", "params": {"n": 3, "samples": null, "seed": null}, "status": "pass", "counts": {"triples": 3375}, "counterexample": null}
{"theorem": "green-pre-orders", "params": {"n": 3, "samples": null, "seed": null}, "status": "pass", "counts": {"pairs": 225, "right": 117, "left": 117, "two_sided": 171}, "counterexample": null}
{"theorem": "green-relations", "params": {"n": 4}, "status": "pass", "counts": {"diagrams": 105, "ranks": 3}, "counterexample": null}
{"theorem": "regularity", "params": {"n": 3, "bound": 1}, "status": "pass", "counts": {"elements": 30, "candidates": 30}, "counterexample": null}
{"theorem": "ideal-classification", "params": {"n": 3, "bound": 4, "cases": 50, "seed": 0}, "status": "pass", "counts": {"spec_pairs": 50, "closure_products": 1080}, "counterexample": null}
{"theorem": "rank-drop-lemma", "params": {"n": 4}, "status": "pass", "counts": {"diagrams": 9}, "counterexample": null}
{"theorem": "twist-raise-lemma", "params": {"n": 4}, "status": "pass", "counts": {"diagrams": 81}, "counterexample": null}
{"theorem": "twist-keep-lemma", "params": {"n": 4}, "status": "pass", "counts": {"diagrams": 81}, "counterexample": null}
{"theorem": "idempotent-generation", "params": {"n": 4, "r": 2}, "status": "pass", "counts": {"triples": 432}, "counterexample": null}
{"theorem": "idempotent-closure", "params": {"n": 3, "r": 1, "bound": 2}, "status": "pass", "counts": {"generators": 6, "closure": 27, "truncation": 27}, "counterexample": null}
{"theorem": "gh-conditions", "params": {"n": 4, "r": 2}, "status": "pass", "counts": {"side": 6, "b": 4, "edges": 24, "oracle": "agrees"}, "counterexample": null}
{"theorem": "rank-table", "params": {"n": 3, "max_k": 3}, "status": "pass", "counts": {"cells": 8}, "counterexample": null}
{"theorem": "minimal-gens", "params": {"n": 3, "r": 1, "k": 1}, "status": "pass", "counts": {"generators": 9, "closure": 36}, "counterexample": null}
{"theorem": "singular-rank", "params": {"n": 3, "bound": 2}, "status": "pass", "counts": {"rank": 9, "generators": 9, "closure": 39}, "counterexample": null}
{"theorem": "ig-subsemigroup", "params": {"n": 3, "bound": 2}, "status": "pass", "counts": {"idempotents": 7, "closure": 28, "rank": 4}, "counterexample": null}
{"theorem": "maltcev-mazorchuk", "params": {"n": 3}, "status": "pass", "counts": {"singular_diagrams": 9, "submonoid": 10}, "counterexample": null}
"""
GOLDEN_REPORTS = {json.loads(line)["theorem"]: line for line in GOLDEN.strip().splitlines()}
EXPECTED_IDS = set(GOLDEN_REPORTS)


def test_registry_ids():
    assert set(verify.CHECKS) == EXPECTED_IDS
    # tracers patch each registered check by identity with the module's name
    assert all(getattr(verify, check.__name__) is check for check in verify.CHECKS.values())


@pytest.mark.parametrize("theorem", sorted(EXPECTED_IDS))
def test_every_check_passes_at_defaults(theorem):
    report = verify.CHECKS[theorem]()
    assert report.passed, (theorem, report.counterexample)
    assert report.counterexample is None
    assert report.seconds >= 0
    payload = json.loads(report.to_json())
    del payload["seconds"]
    assert json.dumps(payload) == GOLDEN_REPORTS[theorem]


def test_sampled_checks_are_deterministic():
    first = verify.check_tau_identity(n=4, samples=500, seed=9)
    second = verify.check_tau_identity(n=4, samples=500, seed=9)
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


def test_a_parameter_the_sweep_would_ignore_is_refused():
    with pytest.raises(DiagramError, match="tau-identity ignores --seed with"):
        verify.check_tau_identity(3, seed=2)  # without samples it sweeps every triple
    with pytest.raises(DiagramError, match="singular-rank ignores --bound with"):
        verify.check_singular_rank(4, 3)  # the closure runs at n <= 3 only
    with pytest.raises(DiagramError, match="refused: it needs more than 60 s"):
        verify.check_tau_identity(9, seed=3)  # the size guard comes first
    # None is no value given, and a value the report echoes is taken
    assert verify.check_tau_identity(3, samples=None, seed=None).passed
    assert verify.check_tau_identity(3, samples=5, seed=2).passed


@pytest.mark.parametrize("call, params", [  # the calls of bench/workloads.py
    (lambda: verify.check_tau_identity(n=6, samples=300, seed=5),
     {"n": 6, "samples": 300, "seed": 5}),
    (lambda: verify.check_tau_identity(n=50, samples=40, seed=6),
     {"n": 50, "samples": 40, "seed": 6}),
    (lambda: verify.check_green_preorders(n=5, samples=1000, seed=7, factor=False),
     {"n": 5, "samples": 1000, "seed": 7}),
    (lambda: verify.check_idempotent_closure(4, 2, 2), {"n": 4, "r": 2, "bound": 2}),
], ids=["tau-identity-6", "tau-identity-50", "green-pre-orders", "idempotent-closure"])
def test_every_parameter_the_benchmark_sets_is_used(call, params):
    report = call()
    assert report.passed and report.params == params


@pytest.mark.parametrize("theorem", sorted(EXPECTED_IDS))
def test_every_check_refuses_a_negative_degree(theorem):
    with pytest.raises(DiagramError, match="n must be at least 0, got -1"):
        verify.CHECKS[theorem](n=-1)


def test_sweep_counts_are_exact_up_to_the_limit():
    # one cap, |B_10| + 1: a count past it costs more than a budget in every unit
    assert COUNT_CAP == 654_729_076 == double_factorial(19) + 1
    for n in range(7):
        ranks = [d.rank for d in all_diagrams(n)]
        for r in range(-1, n + 1):
            assert capped_diagrams(n, r) == sum(1 for rank in ranks if rank <= r)
    for n in range(80):
        for r in index_set(n):
            assert capped_rho(n, r) == min(rho(n, r), COUNT_CAP), (n, r)
            assert capped_delta(n, r) == min(delta(n, r), COUNT_CAP), (n, r)
        for max_rank in range(-2, n + 2):
            exact = sum(delta(n, s) for s in index_set(n) if s <= max_rank)
            assert capped_diagrams(n, max_rank) == min(exact, COUNT_CAP), (n, max_rank)
        assert capped_diagrams(n) == min(double_factorial(2 * n - 1), COUNT_CAP), n
    # past the cap a count is the cap, found in one term, and a sum stops drawing
    for n in (10**5, 10**9):
        assert capped_diagrams(n) == capped_diagrams(n, 2) == capped_delta(n, n) == COUNT_CAP
        assert capped_rho(n, n) == 1 and capped_rho(n, 2) == COUNT_CAP
    assert capped_sum(itertools.chain([COUNT_CAP - 1, 1], map(int, "x"))) == COUNT_CAP


def test_a_failing_sweep_reports_its_witness(monkeypatch):
    monkeypatch.setattr(verify.ideals, "gh_degree", lambda n, r: 5)
    report = verify.check_gh_conditions(4, 2)
    assert (report.status, report.counts) == ("fail", {})
    assert report.counterexample == {
        "reason": "degree or edge count differs from the closed form", "b": 5}
    assert json.loads(report.to_json())["status"] == "fail"
