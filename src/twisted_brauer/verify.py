"""
Theorem verification harness.

Each checker replays one structural result at a chosen (desk) scale and
returns a :class:`VerificationReport`: pass/fail, the witness counts, a
re-checkable counterexample on failure, and the elapsed wall time.  The
registry at the bottom maps stable theorem ids onto checkers; the CLI
``verify`` subcommand is a thin wrapper around it.

All randomised sweeps take an explicit seed, which is echoed in the
report.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from . import enumeration, green, ideals, structure
from .diagram import BrauerDiagram, DiagramError, identity, multiply, transposition
from .twisted import (
    TwistedElement,
    as_twisted,
    is_idempotent_twisted,
    star,
    star_chain,
)


@dataclass
class VerificationReport:
    theorem: str
    params: dict
    status: str = "pass"  # pass | fail | skipped
    counts: dict = field(default_factory=dict)
    counterexample: dict | None = None
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def fail(self, **witness) -> None:
        self.status = "fail"
        if self.counterexample is None:
            self.counterexample = witness

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem": self.theorem,
                "params": self.params,
                "status": self.status,
                "counts": self.counts,
                "counterexample": self.counterexample,
                "seconds": round(self.seconds, 6),
            }
        )


def _timed(check):
    @functools.wraps(check)
    def wrapper(*args, **kwargs) -> VerificationReport:
        start = time.perf_counter()
        report = check(*args, **kwargs)
        report.seconds = time.perf_counter() - start
        return report

    return wrapper


def _check_count(name: str, count: int) -> None:
    # a sweep over fewer than one sample would pass without checking anything
    if count < 1:
        raise DiagramError(f"{name} must be at least 1, got {count}")


# |B_8| = 15!!: the most items one check may visit.  Every D-class that
# structure.GH_CANDIDATE_LIMIT admits (at most 2,000,000 diagrams) fits.
SWEEP_LIMIT = 2_027_025


def _check_sweep(report: VerificationReport, size: int, unit: str) -> None:
    """Refuse a sweep of more than SWEEP_LIMIT items, counted from the check's
    parameters and the counting formulas before anything is enumerated."""
    if size > SWEEP_LIMIT:
        raise DiagramError(
            f"verify {report.theorem} refused: it visits more than {SWEEP_LIMIT} {unit}")


def _diagrams(n: int, max_rank: int | None = None) -> int:
    """The number of diagrams of degree n, of rank at most max_rank if given.
    Exact up to SWEEP_LIMIT; past it, the first partial sum above SWEEP_LIMIT,
    summed from the top rank down, so that a huge degree costs one term."""
    total = 0
    for s in reversed(ideals.index_set(n)):
        if total <= SWEEP_LIMIT and (max_rank is None or s <= max_rank):
            total += ideals.delta(n, s)
    return total


@_timed
def check_tau_identity(
    n: int = 3, exhaustive: bool | None = None, samples: int = 100_000, seed: int = 0
) -> VerificationReport:
    """tau(a,b) + tau(ab,c) = tau(a,bc) + tau(b,c), and (ab)c = a(bc)."""
    if exhaustive is None:
        exhaustive = n <= 3
    report = VerificationReport(
        "tau-identity",
        {"n": n, "exhaustive": exhaustive, "samples": None if exhaustive else samples,
         "seed": None if exhaustive else seed},
    )
    _check_count("samples", samples)
    total = _diagrams(n) ** 3 if exhaustive else samples
    _check_sweep(report, total, "triples")
    rng = random.Random(seed)
    triples = (itertools.product(list(enumeration.all_diagrams(n)), repeat=3) if exhaustive else
               (tuple(enumeration.random_diagram(n, rng) for _ in range(3))
                for _ in range(samples)))
    for a, b, c in triples:
        ab, t_ab = multiply(a, b)
        bc, t_bc = multiply(b, c)
        left_prod, t_ab_c = multiply(ab, c)
        right_prod, t_a_bc = multiply(a, bc)
        if left_prod != right_prod or t_ab + t_ab_c != t_bc + t_a_bc:
            report.fail(a=a.to_text(), b=b.to_text(), c=c.to_text())
            break
    report.counts["triples"] = total
    return report


def _truncation(n: int, twists, max_rank: int | None = None) -> list[TwistedElement]:
    """The elements (i, d) with i in ``twists`` and d of degree n and rank at
    most ``max_rank``, twist by twist in canonical diagram order."""
    pool = [d for d in enumeration.all_diagrams(n) if max_rank is None or d.rank <= max_rank]
    return [TwistedElement(i, d) for i in twists for d in pool]


@_timed
def check_green_preorders(
    n: int = 3, samples: int | None = None, seed: int = 0, factor: bool = True
) -> VerificationReport:
    """Kernel/cokernel/rank pre-order decisions against the divisibility
    oracle, plus the constructive factorization postconditions."""
    report = VerificationReport(
        "green-pre-orders", {"n": n, "samples": samples, "seed": seed if samples else None}
    )
    if samples is not None:  # before the oracle, which takes seconds at degree 7
        _check_count("samples", samples)
    size = _diagrams(n)
    total = size ** 2 if samples is None else samples
    # a query from a new source may search all of B_n in the oracle's graphs
    _check_sweep(report, total + min(total, size) * size, "pairs and oracle search steps")
    oracle = enumeration.DivisibilityOracle(n)
    pool, rng = list(enumeration.all_diagrams(n)), random.Random(seed)
    pairs = (itertools.product(pool, repeat=2) if samples is None else
             ((rng.choice(pool), rng.choice(pool)) for _ in range(samples)))
    factored = {"right": 0, "left": 0, "two_sided": 0}
    for a, b in pairs:
        for rel, fast, slow in (
            ("R", green.leq_R, oracle.leq_R),
            ("L", green.leq_L, oracle.leq_L),
            ("J", green.leq_J, oracle.leq_J),
        ):
            claimed = fast(a, b)
            if claimed != slow(a, b):
                report.fail(relation=rel, alpha=a.to_text(), beta=b.to_text())
                return report
            if not (claimed and factor):
                continue
            if rel == "R":
                delta = green.factor_right(a, b)
                ok = multiply(b, delta) == (a, 0)
                factored["right"] += 1
            elif rel == "L":
                gamma = green.factor_left(a, b)
                ok = multiply(gamma, b) == (a, 0)
                factored["left"] += 1
            else:
                gamma, delta = green.factor_two_sided(a, b)
                ok = star_chain(gamma, b, delta) == TwistedElement(0, a)
                factored["two_sided"] += 1
            if not ok:
                report.fail(relation=rel + "-factor", alpha=a.to_text(), beta=b.to_text())
                return report
    report.counts = {"pairs": total, **factored}
    return report


@_timed
def check_green_relations(n: int = 4) -> VerificationReport:
    """D-class sizes, R/L-class counts and H-class sizes against the
    delta, rho and r! formulas, and the twisted class semantics."""
    report = VerificationReport("green-relations", {"n": n})
    _check_sweep(report, _diagrams(n), "diagrams")
    # one pass over B_n, keeping per rank only the H-class sizes, keyed by
    # (kernel, cokernel), and the first six diagrams: memory grows with
    # the sum of rho^2, not with |B_n|
    h_sizes: dict[int, Counter] = {}
    first: dict[int, list[BrauerDiagram]] = {}
    for d in enumeration.all_diagrams(n):
        r = d.rank
        if r not in h_sizes:
            h_sizes[r], first[r] = Counter(), []
        h_sizes[r][d.ker, d.coker] += 1
        if len(first[r]) < 6:
            first[r].append(d)
    if sorted(h_sizes) != list(ideals.index_set(n)):
        report.fail(reason="rank support differs from I(n)", found=sorted(h_sizes))
        return report
    total = 0
    for r, sizes in sorted(h_sizes.items()):
        d_size = sum(sizes.values())
        total += d_size
        kernels = {ker for ker, _ in sizes}
        cokernels = {coker for _, coker in sizes}
        expected_rho, expected_delta = ideals.rho(n, r), ideals.delta(n, r)
        if (
            d_size != expected_delta
            or len(kernels) != expected_rho
            or len(cokernels) != expected_rho
            or set(sizes.values()) != {math.factorial(r)}
        ):
            report.fail(rank=r, d_size=d_size, r_classes=len(kernels))
            return report
    # twisted semantics: classes are {i} x K_alpha
    pool = first[min(first)] + first[max(first)]
    for a, b in itertools.product(pool[:6], repeat=2):
        for i, j in ((0, 0), (0, 1), (2, 2)):
            x, y = TwistedElement(i, a), TwistedElement(j, b)
            for rel in green.RELATIONS:
                plain = green.same_class(rel, as_twisted(a), as_twisted(b))
                if green.same_class(rel, x, y) != (i == j and plain):
                    report.fail(relation=rel, twists=(i, j))
                    return report
    report.counts = {"diagrams": total, "ranks": len(h_sizes)}
    return report


@_timed
def check_regularity(n: int = 3, twist_bound: int = 1) -> VerificationReport:
    """is_regular against brute-force search for y with x*y*x = x."""
    report = VerificationReport("regularity", {"n": n, "twist_bound": twist_bound})
    # a non-regular element is tried against every candidate
    _check_sweep(report, (len(range(twist_bound + 1)) * _diagrams(n)) ** 2, "pairs")
    candidates = _truncation(n, range(twist_bound + 1))
    checked = 0
    for x in candidates:
        found = any(star(star(x, y), x) == x for y in candidates)
        if found != green.is_regular(x):
            report.fail(element=x.to_text(), witness_found=found)
            return report
        checked += 1
    report.counts = {"elements": checked, "candidates": len(candidates)}
    return report


@_timed
def check_ideal_classification(
    n: int = 3, twist_bound: int = 4, cases: int = 50, seed: int = 0
) -> VerificationReport:
    """Canonical-form subset/normalize decisions against pointwise
    membership on a twist-bounded truncation, and closure of ideals."""
    report = VerificationReport(
        "ideal-classification",
        {"n": n, "twist_bound": twist_bound, "cases": cases, "seed": seed},
    )
    _check_count("cases", cases)
    # two 2-twist truncations; the closure products below are strided to <= 2 * 80 * 80
    _check_sweep(report, cases + 4 * _diagrams(n), "spec pairs and truncation elements")
    rng = random.Random(seed)
    ranks = ideals.index_set(n)
    grid = [(r, i) for r in ranks for i in range(twist_bound + 1)]

    def truncation(spec):
        return {
            (r, i) for r, i in grid
            if any(r <= q and i >= l for q, l in spec.terms)
        }

    for _ in range(cases):
        specs = []
        for _ in range(2):
            terms = [
                (rng.choice(ranks), rng.randrange(twist_bound + 1))
                for _ in range(rng.randrange(1, 4))
            ]
            specs.append(ideals.ideal_normalize(n, terms))
        left, right = specs
        if ideals.ideal_subset(left, right) != (truncation(left) <= truncation(right)):
            report.fail(left=left.to_text(), right=right.to_text())
            return report
        if ideals.ideal_equal(left, right) != (truncation(left) == truncation(right)):
            report.fail(left=left.to_text(), right=right.to_text(), kind="equality")
            return report
    # closure of a principal ideal truncation under both-sided products
    spec = ideals.ideal_normalize(n, [(ranks[0], 1)])
    inside = [x for x in _truncation(n, range(1, 3)) if ideals.ideal_contains(spec, x)]
    outside = _truncation(n, range(2))
    closure_checked = 0
    for x in inside[:: max(1, len(inside) // 40)]:
        for y in outside[:: max(1, len(outside) // 40)]:
            for p in (star(x, y), star(y, x)):
                if not ideals.ideal_contains(spec, p):
                    report.fail(x=x.to_text(), y=y.to_text(), product=p.to_text())
                    return report
                closure_checked += 1
    report.counts = {"spec_pairs": cases, "closure_products": closure_checked}
    return report


@_timed
def check_rank_drop(n: int = 4) -> VerificationReport:
    """D_r lies in D_{r+2} * D_{r+2} with no floating component, r <= n-4."""
    report = VerificationReport("rank-drop-lemma", {"n": n})
    _check_sweep(report, _diagrams(n, n - 4), "diagrams")
    checked = 0
    for r in ideals.index_set(n):
        if r > n - 4:
            continue
        for alpha in enumeration.d_class(n, r):
            beta, gamma = ideals.lemma_rank_drop(alpha)
            if (
                beta.rank != r + 2
                or gamma.rank != r + 2
                or multiply(beta, gamma) != (alpha, 0)
            ):
                report.fail(alpha=alpha.to_text())
                return report
            checked += 1
    report.counts = {"diagrams": checked}
    return report


@_timed
def check_twist_raise(n: int = 4) -> VerificationReport:
    """alpha = alpha*beta with tau = 1 and rank preserved, alpha singular."""
    report = VerificationReport("twist-raise-lemma", {"n": n})
    _check_sweep(report, _diagrams(n), "diagrams")
    checked = 0
    for alpha in enumeration.all_diagrams(n):
        if alpha.rank == n:
            continue
        beta = ideals.lemma_twist_raise(alpha)
        if beta.rank != alpha.rank or multiply(alpha, beta) != (alpha, 1):
            report.fail(alpha=alpha.to_text(), beta=beta.to_text())
            return report
        checked += 1
    report.counts = {"diagrams": checked}
    return report


@_timed
def check_twist_keep(n: int = 4) -> VerificationReport:
    """alpha = alpha*beta with tau = 0; beta in D_alpha, or D_2 at rank 0."""
    report = VerificationReport("twist-keep-lemma", {"n": n})
    _check_sweep(report, _diagrams(n), "diagrams")
    checked = 0
    for alpha in enumeration.all_diagrams(n):
        if alpha.rank == n:
            continue
        beta = ideals.lemma_twist_keep(alpha)
        want_rank = alpha.rank if alpha.rank > 0 else 2
        if beta.rank != want_rank or multiply(alpha, beta) != (alpha, 0):
            report.fail(alpha=alpha.to_text(), beta=beta.to_text())
            return report
        checked += 1
    report.counts = {"diagrams": checked}
    return report


@_timed
def check_idempotent_generation(n: int = 4, r: int | None = None) -> VerificationReport:
    """Transposition absorption: alpha * sigma_ij is a zero-twist chain of
    alpha with rank-preserving twisted idempotents, all cases.  The rank
    defaults to n - 2."""
    r = n - 2 if r is None else r
    report = VerificationReport("idempotent-generation", {"n": n, "r": r})
    _check_sweep(report, ideals.delta(n, r) * math.comb(n, 2), "(diagram, transposition) pairs")
    checked = 0
    for alpha in enumeration.d_class(n, r):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            factors = ideals.idempotent_factor_sigma(alpha, i, j)
            target = multiply(alpha, transposition(n, i, j))[0]
            if star_chain(alpha, *factors) != TwistedElement(0, target):
                report.fail(alpha=alpha.to_text(), i=i, j=j)
                return report
            for b in factors:
                if not is_idempotent_twisted(b) or b.rank != r:
                    report.fail(alpha=alpha.to_text(), i=i, j=j, factor=b.to_text())
                    return report
            checked += 1
    report.counts = {"triples": checked}
    return report


@_timed
def check_idempotent_closure(n: int = 3, r: int = 1, bound: int = 2) -> VerificationReport:
    """Bounded closure of the twisted idempotents of D_r covers the
    twist-bounded truncation of I(r;0)."""
    report = VerificationReport("idempotent-closure", {"n": n, "r": r, "bound": bound})
    # the closure lies in the truncation; an H-class holds at most one idempotent
    products = len(range(bound + 1)) * _diagrams(n, r) * ideals.rho(n, r) ** 2
    _check_sweep(report, _diagrams(n) + products, "diagrams and closure products")
    gens = [d for d in enumeration.idempotents(n) if d.rank == r]
    closure = enumeration.bounded_closure(gens, bound).elements
    spec = ideals.ideal_normalize(n, [(r, 0)])
    expected = set(_truncation(n, range(bound + 1), r))
    if not expected <= closure:
        missing = next(iter(expected - closure))
        report.fail(missing=missing.to_text())
        return report
    if not all(ideals.ideal_contains(spec, x) for x in closure):
        report.fail(reason="closure escapes the ideal")
        return report
    report.counts = {"generators": len(gens), "closure": len(closure),
                     "truncation": len(expected)}
    return report


@_timed
def check_gh_conditions(n: int = 4, r: int | None = None) -> VerificationReport:
    """Balance, degree-regularity with b >= 2, connectivity and Strong Hall
    for the Graham-Houghton graph; SCC decision against the subset oracle
    when the side is small enough.  The rank defaults to n - 2."""
    r = n - 2 if r is None else r
    report = VerificationReport("gh-conditions", {"n": n, "r": r})
    # build_gh_graph refuses its delta(n, r) candidates above GH_CANDIDATE_LIMIT < SWEEP_LIMIT
    graph = structure.build_gh_graph(n, r)
    gh_report = structure.rank_idrank_report(graph)
    report.counts = {
        "side": gh_report.side_size,
        "b": gh_report.common_degree,
        "edges": len(graph.edges),
    }
    if not gh_report.certified:
        report.fail(**gh_report.to_json_obj())
        return report
    if len(graph.signatures) <= 16:
        if structure.strong_hall_check(graph) != structure.strong_hall_subset_oracle(graph):
            report.fail(reason="SCC method disagrees with subset oracle")
            return report
        report.counts["oracle"] = "agrees"
    # recounted from the product definition, independently of the build's
    # idempotent test
    idempotent_count = sum(
        1 for d in enumeration.d_class(n, r) if multiply(d, d) == (d, 0)
    )
    if idempotent_count != len(graph.edges) or idempotent_count != gh_report.common_degree * gh_report.side_size:
        report.fail(reason="edge count differs from idempotent count",
                    idempotents=idempotent_count)
    return report


@_timed
def check_rank_table(n: int = 3, max_k: int = 3) -> VerificationReport:
    """The four-case rank formula, cross-checked against the materialised
    minimal generating set in every cell."""
    report = VerificationReport("rank-table", {"n": n, "max_k": max_k})
    cells = [(r, k) for r in ideals.index_set(n) for k in range(max_k + 1)]
    # a proper k = 0 cell tests the delta(n, r) GH candidates; the others list generators
    size = 0
    for r, k in cells:
        if size <= SWEEP_LIMIT:  # once past the limit, the sum need not be exact
            proper = k == 0 and 0 < r < n
            size += ideals.delta(n, r) if proper else ideals.rank_of_ideal(n, r, k).rank
    _check_sweep(report, size, "candidates and generators")
    for r, k in cells:
        info = ideals.rank_of_ideal(n, r, k)
        if info.idempotent_generated != (0 < r < n and k == 0):
            report.fail(r=r, k=k, reason="idempotent-generated flag")
            return report
        if info.idempotent_generated and info.idrank != info.rank:
            report.fail(r=r, k=k, reason="idrank differs from rank")
            return report
        gens = ideals.generating_set(ideals.ideal_normalize(n, [(r, k)]))
        if gens.size != info.rank:
            report.fail(r=r, k=k, got=gens.size, expected=info.rank,
                        reason="materialised set size")
            return report
    report.counts = {"cells": len(cells)}
    return report


@_timed
def check_minimal_gens(n: int = 3, r: int = 1, k: int = 1) -> VerificationReport:
    """M(r;k): star-indecomposable inside I(r;k), and its bounded closure
    recovers the bounded truncation of the ideal."""
    report = VerificationReport("minimal-gens", {"n": n, "r": r, "k": k})
    # the generators lie in the pool, and the closure in its truncation
    pool_size = len(range(k, 2 * k + 1)) * _diagrams(n, r)
    closure_size = len(range(k, 2 * k + 3)) * _diagrams(n, r)
    _check_sweep(report, pool_size * (pool_size + closure_size), "pairs and closure products")
    spec = ideals.ideal_normalize(n, [(r, k)])
    gens = ideals.generating_set(spec).elements
    gen_set = set(gens)
    pool = _truncation(n, range(k, 2 * k + 1), r)
    for x, y in itertools.product(pool, repeat=2):
        if star(x, y) in gen_set:
            report.fail(x=x.to_text(), y=y.to_text())
            return report
    bound = 2 * k + 2
    closure = enumeration.bounded_closure(gens, bound).elements
    expected = set(_truncation(n, range(k, bound + 1), r))
    if closure != expected:
        report.fail(
            missing=[x.to_text() for x in list(expected - closure)[:3]],
            extra=[x.to_text() for x in list(closure - expected)[:3]],
        )
        return report
    report.counts = {"generators": len(gens), "closure": len(closure)}
    return report


@_timed
def check_singular_rank(n: int = 3, closure_bound: int = 2) -> VerificationReport:
    """The C(n,2) + n! formula, the matching generating set, and (desk
    scale) its bounded closure covering the singular truncation."""
    report = VerificationReport("singular-rank", {"n": n})
    value = structure.singular_rank(n)
    # the GH build tests delta(n, n-2) candidates, and the set lists the n! units
    _check_sweep(report, ideals.delta(n, n - 2) + math.factorial(n), "diagrams")
    if value != math.comb(n, 2) + math.factorial(n):
        report.fail(value=value)
        return report
    gens = structure.singular_generating_set(n)
    if len(gens) != value:
        report.fail(generating_set_size=len(gens), expected=value)
        return report
    report.counts = {"rank": value, "generators": len(gens)}
    if n <= 3:
        closure = enumeration.bounded_closure(gens, closure_bound).elements
        expected = set(_truncation(n, [0], n - 2) + _truncation(n, [1]))
        if not expected <= closure:
            report.fail(missing=next(iter(expected - closure)).to_text())
            return report
        report.counts["closure"] = len(closure)
    return report


@_timed
def check_ig_subsemigroup(n: int = 3, bound: int = 2) -> VerificationReport:
    """The idempotent-generated subsemigroup is {1} u I(n-2;0) (degree >= 3);
    at degree 2 the twisted idempotents generate only {1}."""
    report = VerificationReport("ig-subsemigroup", {"n": n, "bound": bound})
    # the closure lies in the truncation; an H-class holds at most one idempotent
    generators = sum(ideals.rho(n, r) ** 2 for r in ideals.index_set(n))
    products = len(range(bound + 1)) * _diagrams(n) * generators
    _check_sweep(report, _diagrams(n) + products, "diagrams and closure products")
    twisted_idems = list(enumeration.idempotents(n))
    closure = enumeration.bounded_closure(twisted_idems, bound).elements
    if n == 2:
        if closure != {as_twisted(identity(2))}:
            report.fail(closure_size=len(closure))
            return report
        plain = enumeration.plain_closure(enumeration.idempotents(2, twisted=False))
        if plain != {d for d in enumeration.all_diagrams(2) if d.rank < 2 or d == identity(2)}:
            report.fail(reason="untwisted closure at degree 2")
            return report
        report.counts = {"twisted_closure": len(closure), "plain_closure": len(plain)}
        return report
    mismatch = [
        x for x in _truncation(n, range(bound + 1))
        if structure.in_idempotent_generated(x) != (x in closure)
    ]
    if mismatch:
        report.fail(element=mismatch[0].to_text())
        return report
    report.counts = {
        "idempotents": len(twisted_idems),
        "closure": len(closure),
        "rank": structure.ig_subsemigroup_rank(n),
    }
    return report


@_timed
def check_maltcev_mazorchuk(n: int = 3) -> VerificationReport:
    """Every singular diagram is a zero-twist chain of twisted idempotents,
    and the idempotent-generated submonoids of the plain monoid coincide."""
    report = VerificationReport("maltcev-mazorchuk", {"n": n})
    _check_sweep(report, _diagrams(n), "diagrams")
    factored = 0
    for alpha in enumeration.all_diagrams(n):
        if alpha.rank == n:
            continue
        chain = structure.factor_into_idempotents(alpha)
        if not all(is_idempotent_twisted(b) for b in chain):
            report.fail(alpha=alpha.to_text(), reason="non-idempotent factor")
            return report
        if star_chain(chain) != TwistedElement(0, alpha):
            report.fail(alpha=alpha.to_text(), reason="chain does not rebuild alpha")
            return report
        factored += 1
    report.counts = {"singular_diagrams": factored}
    if n <= 4:
        plain = enumeration.plain_closure(enumeration.idempotents(n, twisted=False))
        twisted = enumeration.plain_closure(enumeration.idempotents(n))
        expected = {d for d in enumeration.all_diagrams(n) if d.rank < n or d == identity(n)}
        if plain != expected or twisted != expected:
            report.fail(reason="generated submonoids differ from {1} u singular")
            return report
        report.counts["submonoid"] = len(expected)
    return report


CHECKS = {
    "tau-identity": check_tau_identity,
    "green-pre-orders": check_green_preorders,
    "green-relations": check_green_relations,
    "regularity": check_regularity,
    "ideal-classification": check_ideal_classification,
    "rank-drop-lemma": check_rank_drop,
    "twist-raise-lemma": check_twist_raise,
    "twist-keep-lemma": check_twist_keep,
    "idempotent-generation": check_idempotent_generation,
    "idempotent-closure": check_idempotent_closure,
    "gh-conditions": check_gh_conditions,
    "rank-table": check_rank_table,
    "minimal-gens": check_minimal_gens,
    "singular-rank": check_singular_rank,
    "ig-subsemigroup": check_ig_subsemigroup,
    "maltcev-mazorchuk": check_maltcev_mazorchuk,
}
