"""
Theorem verification harness.

Each checker replays one structural result at a chosen (desk) scale and
returns a :class:`VerificationReport`: pass/fail, the witness counts, a
re-checkable counterexample on failure, and the elapsed wall time.  One
runner, :func:`_check`, registers every checker in ``CHECKS`` under its
stable theorem id; the CLI ``verify`` subcommand is a thin wrapper around
that registry.

All randomised sweeps take an explicit seed, which is echoed in the
report.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

from . import enumeration, green, ideals, structure
from .diagram import BrauerDiagram, DiagramError, identity, multiply, transposition
from .ideals import capped_delta, capped_diagrams, capped_rho, capped_sum, check_cost
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
    status: str = "pass"  # pass | fail
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
        return json.dumps({**asdict(self), "seconds": round(self.seconds, 6)})


# each parameter a request can set, one verify flag each, with its least value
# (None for none): below it a sweep crashes or checks nothing
PARAMETERS = {"n": 0, "r": None, "k": 0, "bound": 0, "samples": 1, "seed": None}

CHECKS: dict[str, Callable[..., VerificationReport]] = {}


class _Fail(Exception):
    """Raised by a check's sweep, carrying the counterexample as keywords."""

    def __init__(self, **witness):
        self.witness = witness


def _check(theorem: str, unit: str, least_n: int = 0):
    """Register a check under ``theorem`` in CHECKS, for the result it
    replays, which is stated for the degrees n >= ``least_n``.

    The decorated body is a generator.  It first yields ``(params, work,
    held)``: the parameters its report echoes and the units of ``unit`` its
    sweep does and holds at once, from the capped counts of ``ideals``.  It
    then sweeps, and returns the report's counts or raises _Fail with a
    counterexample.  The runner refuses a parameter below its least value, a
    degree below ``least_n`` (before the body runs), a sweep that costs more
    than ``ideals.check_cost`` admits and a parameter that the params do not
    echo as given, and builds and times the report."""

    def register(body):
        signature = inspect.signature(body)
        default_n = signature.parameters["n"].default

        @functools.wraps(body)
        def check(*args, **kwargs) -> VerificationReport:
            start = time.perf_counter()
            passed = signature.bind(*args, **kwargs).arguments
            given = {name: passed[name] for name in PARAMETERS if passed.get(name) is not None}
            for name, value in given.items():
                if (least := PARAMETERS[name]) is not None and value < least:
                    raise DiagramError(f"{name} must be at least {least}, got {value}")
            if (n := given.get("n", default_n)) < least_n:
                raise DiagramError(f"verify {theorem} is stated for n >= {least_n}, got n = {n}")
            sweep = body(*args, **kwargs)
            params, work, held = next(sweep)
            check_cost(f"verify {theorem}", unit, work, held)
            ignored = [f"--{name}" for name, value in given.items() if params.get(name) != value]
            if ignored:
                raise DiagramError(
                    f"verify {theorem} ignores {', '.join(ignored)} with these parameters")
            report = VerificationReport(theorem, params)
            try:
                next(sweep)
            except StopIteration as done:
                report.counts = done.value
            except _Fail as failure:
                report.fail(**failure.witness)
            report.seconds = time.perf_counter() - start
            return report

        CHECKS[theorem] = check
        return check

    return register


@_check("tau-identity", "cocycle triple degree")
def check_tau_identity(n: int = 3, samples: int | None = None, seed: int = 0):
    """tau(a,b) + tau(ab,c) = tau(a,bc) + tau(b,c), and (ab)c = a(bc)."""
    total = capped_diagrams(n) ** 3 if samples is None else samples
    yield {"n": n, "samples": samples, "seed": seed if samples else None}, total * n, n
    rng = random.Random(seed)
    triples = (itertools.product(list(enumeration.all_diagrams(n)), repeat=3) if samples is None
               else (tuple(enumeration.random_diagram(n, rng) for _ in range(3))
                     for _ in range(samples)))
    for a, b, c in triples:
        ab, t_ab = multiply(a, b)
        bc, t_bc = multiply(b, c)
        left_prod, t_ab_c = multiply(ab, c)
        right_prod, t_a_bc = multiply(a, bc)
        if left_prod != right_prod or t_ab + t_ab_c != t_bc + t_a_bc:
            raise _Fail(a=a.to_text(), b=b.to_text(), c=c.to_text())
    return {"triples": total}


@_check("green-pre-orders", "pre-order pair")
def check_green_preorders(
    n: int = 3, samples: int | None = None, seed: int = 0, factor: bool = True
):
    """Kernel/cokernel/rank pre-order decisions against the divisibility
    oracle, plus the constructive factorization postconditions."""
    size = capped_diagrams(n)
    total = size * size if samples is None else samples
    # the oracle searches the graph of each relation once, over all of B_n
    yield {"n": n, "samples": samples, "seed": seed if samples else None}, total + 3 * size, size
    oracle = enumeration.DivisibilityOracle(n)
    pool, rng = list(enumeration.all_diagrams(n)), random.Random(seed)
    pairs = (itertools.product(pool, repeat=2) if samples is None else
             ((rng.choice(pool), rng.choice(pool)) for _ in range(samples)))
    factored = {"right": 0, "left": 0, "two_sided": 0}
    for a, b in pairs:
        for rel, fast, slow in (("R", green.leq_R, oracle.leq_R), ("L", green.leq_L, oracle.leq_L),
                                ("J", green.leq_J, oracle.leq_J)):
            claimed = fast(a, b)
            if claimed != slow(a, b):
                raise _Fail(relation=rel, alpha=a.to_text(), beta=b.to_text())
            if not (claimed and factor):
                continue
            if rel == "R":
                ok, key = multiply(b, green.factor_right(a, b)) == (a, 0), "right"
            elif rel == "L":
                ok, key = multiply(green.factor_left(a, b), b) == (a, 0), "left"
            else:
                gamma, delta = green.factor_two_sided(a, b)
                ok, key = star_chain(gamma, b, delta) == TwistedElement(0, a), "two_sided"
            factored[key] += 1
            if not ok:
                raise _Fail(relation=rel + "-factor", alpha=a.to_text(), beta=b.to_text())
    return {"pairs": total, **factored}


@_check("green-relations", "classified diagram")
def check_green_relations(n: int = 4):
    """D-class sizes, R/L-class counts and H-class sizes against the
    delta, rho and r! formulas, and the twisted class semantics."""
    yield {"n": n}, capped_diagrams(n), capped_diagrams(n)
    # one pass over B_n, keeping per rank only the H-class sizes, keyed by
    # (kernel, cokernel), and the first six diagrams
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
        raise _Fail(reason="rank support differs from I(n)", found=sorted(h_sizes))
    total = 0
    for r, sizes in sorted(h_sizes.items()):
        d_size = sum(sizes.values())
        total += d_size
        kernels = {ker for ker, _ in sizes}
        cokernels = {coker for _, coker in sizes}
        if (d_size != ideals.delta(n, r) or {len(kernels), len(cokernels)} != {ideals.rho(n, r)}
                or set(sizes.values()) != {math.factorial(r)}):
            raise _Fail(rank=r, d_size=d_size, r_classes=len(kernels))
    # twisted semantics: classes are {i} x K_alpha
    pool = first[min(first)] + first[max(first)]
    for a, b in itertools.product(pool[:6], repeat=2):
        for i, j in ((0, 0), (0, 1), (2, 2)):
            x, y = TwistedElement(i, a), TwistedElement(j, b)
            for rel in green.RELATIONS:
                plain = green.same_class(rel, as_twisted(a), as_twisted(b))
                if green.same_class(rel, x, y) != (i == j and plain):
                    raise _Fail(relation=rel, twists=(i, j))
    return {"diagrams": total, "ranks": len(h_sizes)}


@_check("regularity", "regularity pair")
def check_regularity(n: int = 3, bound: int = 1):
    """is_regular against brute-force search for y with x*y*x = x."""
    elements = (bound + 1) * capped_diagrams(n)
    # a non-regular element is tried against every candidate
    yield {"n": n, "bound": bound}, elements * elements, 0
    candidates = enumeration.truncation(n, range(bound + 1))
    for x in candidates:
        found = any(star(star(x, y), x) == x for y in candidates)
        if found != green.is_regular(x):
            raise _Fail(element=x.to_text(), witness_found=found)
    return {"elements": len(candidates), "candidates": len(candidates)}


@_check("ideal-classification", "classification element")
def check_ideal_classification(n: int = 3, bound: int = 4, seed: int = 0):
    """Canonical-form subset/normalize decisions against pointwise
    membership on a twist-bounded truncation, and closure of ideals."""
    cases = 50
    # pairs decided on |I(n)| ranks by bound + 1 twists; two 2-twist truncations held
    yield ({"n": n, "bound": bound, "cases": cases, "seed": seed},
           cases * (n // 2 + 1) * (bound + 1) + 4 * capped_diagrams(n), 4 * capped_diagrams(n))
    rng = random.Random(seed)
    ranks = ideals.index_set(n)
    grid = [(r, i) for r in ranks for i in range(bound + 1)]

    def truncation(spec):
        return {(r, i) for r, i in grid if any(r <= q and i >= l for q, l in spec.terms)}

    def random_spec():
        terms = [(rng.choice(ranks), rng.randrange(bound + 1)) for _ in range(rng.randrange(1, 4))]
        return ideals.ideal_normalize(n, terms)

    for _ in range(cases):
        left, right = random_spec(), random_spec()
        if ideals.ideal_subset(left, right) != (truncation(left) <= truncation(right)):
            raise _Fail(left=left.to_text(), right=right.to_text())
        if ideals.ideal_equal(left, right) != (truncation(left) == truncation(right)):
            raise _Fail(left=left.to_text(), right=right.to_text(), kind="equality")
    # closure of a principal ideal truncation under both-sided products
    spec = ideals.ideal_normalize(n, [(ranks[0], 1)])
    inside = [x for x in enumeration.truncation(n, range(1, 3)) if ideals.ideal_contains(spec, x)]
    outside = enumeration.truncation(n, range(2))
    closure_checked = 0
    for x in inside[:: max(1, len(inside) // 40)]:
        for y in outside[:: max(1, len(outside) // 40)]:
            for p in (star(x, y), star(y, x)):
                if not ideals.ideal_contains(spec, p):
                    raise _Fail(x=x.to_text(), y=y.to_text(), product=p.to_text())
                closure_checked += 1
    return {"spec_pairs": cases, "closure_products": closure_checked}


@_check("rank-drop-lemma", "lemma diagram", least_n=4)  # below it no rank r <= n - 4 exists
def check_rank_drop(n: int = 4):
    """D_r lies in D_{r+2} * D_{r+2} with no floating component, r <= n-4."""
    yield {"n": n}, capped_diagrams(n, n - 4), 0
    checked = 0
    for r in ideals.index_set(n)[:-2]:  # the ranks r <= n - 4
        for alpha in enumeration.d_class(n, r):
            beta, gamma = ideals.lemma_rank_drop(alpha)
            if beta.rank != r + 2 or gamma.rank != r + 2 or multiply(beta, gamma) != (alpha, 0):
                raise _Fail(alpha=alpha.to_text())
            checked += 1
    return {"diagrams": checked}


def _twist_lemma(n: int, lemma, tau: int):
    """The sweep of the twist lemmas: alpha = alpha * lemma(alpha) with twist
    tau for every singular alpha, and lemma(alpha) of the rank of alpha, or
    of rank 2 when the twist is kept at rank 0."""
    yield {"n": n}, capped_diagrams(n), 0
    checked = 0
    for alpha in enumeration.all_diagrams(n):
        if alpha.rank == n:
            continue
        beta = lemma(alpha)
        want_rank = alpha.rank if tau or alpha.rank > 0 else 2
        if beta.rank != want_rank or multiply(alpha, beta) != (alpha, tau):
            raise _Fail(alpha=alpha.to_text(), beta=beta.to_text())
        checked += 1
    return {"diagrams": checked}


@_check("twist-raise-lemma", "lemma diagram", least_n=2)  # below it no diagram is singular
def check_twist_raise(n: int = 4):
    """alpha = alpha*beta with tau = 1 and rank preserved, alpha singular."""
    return _twist_lemma(n, ideals.lemma_twist_raise, 1)


@_check("twist-keep-lemma", "lemma diagram", least_n=2)
def check_twist_keep(n: int = 4):
    """alpha = alpha*beta with tau = 0; beta in D_alpha, or D_2 at rank 0."""
    return _twist_lemma(n, ideals.lemma_twist_keep, 0)


@_check("idempotent-generation", "absorbed transposition", least_n=3)
def check_idempotent_generation(n: int = 4, r: int | None = None):
    """Transposition absorption: alpha * sigma_ij is a zero-twist chain of
    alpha with rank-preserving twisted idempotents, all cases.  The rank
    defaults to n - 2."""
    r = n - 2 if r is None else r
    ideals._check_proper_rank(n, r, "verify idempotent-generation")
    yield {"n": n, "r": r}, capped_delta(n, r) * math.comb(n, 2), 0
    checked = 0
    for alpha in enumeration.d_class(n, r):
        for i, j in itertools.combinations(range(1, n + 1), 2):
            factors = ideals.idempotent_factor_sigma(alpha, i, j)
            target = multiply(alpha, transposition(n, i, j))[0]
            if star_chain(alpha, *factors) != TwistedElement(0, target):
                raise _Fail(alpha=alpha.to_text(), i=i, j=j)
            for b in factors:
                if not is_idempotent_twisted(b) or b.rank != r:
                    raise _Fail(alpha=alpha.to_text(), i=i, j=j, factor=b.to_text())
            checked += 1
    return {"triples": checked}


@_check("idempotent-closure", "closure product", least_n=3)
def check_idempotent_closure(n: int = 3, r: int = 1, bound: int = 2):
    """Bounded closure of the twisted idempotents of D_r covers the
    twist-bounded truncation of I(r;0), which is idempotent-generated
    exactly when 0 < r < n."""
    ideals._check_proper_rank(n, r, "verify idempotent-closure")
    # the closure lies in the truncation; an H-class holds at most one idempotent
    truncated = (bound + 1) * capped_diagrams(n, r)
    yield ({"n": n, "r": r, "bound": bound},
           capped_diagrams(n) + truncated * capped_rho(n, r) ** 2, truncated)
    gens = [d for d in enumeration.idempotents(n) if d.rank == r]
    closure = enumeration.bounded_closure(gens, bound).elements
    spec = ideals.ideal_normalize(n, [(r, 0)])
    expected = set(enumeration.truncation(n, range(bound + 1), r))
    if not expected <= closure:
        raise _Fail(missing=next(iter(expected - closure)).to_text())
    if not all(ideals.ideal_contains(spec, x) for x in closure):
        raise _Fail(reason="closure escapes the ideal")
    return {"generators": len(gens), "closure": len(closure), "truncation": len(expected)}


@_check("gh-conditions", "GH candidate", least_n=3)
def check_gh_conditions(n: int = 4, r: int | None = None):
    """Balance, degree-regularity with b >= 2, connectivity and Strong Hall
    for the Graham-Houghton graph; SCC decision against the subset oracle
    when the side is small enough; the degree and the edge count against
    the closed form ideals.gh_degree.  The rank defaults to n - 2."""
    r = n - 2 if r is None else r
    ideals._check_proper_rank(n, r, "verify gh-conditions")
    yield {"n": n, "r": r}, capped_delta(n, r), 0
    graph = structure.build_gh_graph(n, r)
    gh_report = structure.rank_idrank_report(graph)
    if not gh_report.certified:
        raise _Fail(**gh_report.to_json_obj())
    counts = {"side": gh_report.side_size, "b": gh_report.common_degree,
              "edges": len(graph.edges)}
    if len(graph.signatures) <= 16:
        if gh_report.strong_hall != structure.strong_hall_subset_oracle(graph):
            raise _Fail(reason="SCC method disagrees with subset oracle")
        counts["oracle"] = "agrees"
    b = ideals.gh_degree(n, r)
    if gh_report.common_degree != b or len(graph.edges) != ideals.rho(n, r) * b:
        raise _Fail(reason="degree or edge count differs from the closed form", b=b)
    return counts


@_check("rank-table", "GH candidate", least_n=3)
def check_rank_table(n: int = 3):
    """The four-case rank formula, cross-checked against the materialised
    minimal generating set in every cell of twist k <= 3."""
    max_k = 3
    # a proper k = 0 cell tests its delta(n, r) GH candidates, the others list generators
    size = capped_sum((4 if r == n else capped_delta(n, r)) if k == 0
                      else (k + (r == 0)) * capped_diagrams(n, r)
                      for r in reversed(ideals.index_set(n)) for k in range(max_k + 1))
    yield {"n": n, "max_k": max_k}, size, 0
    cells = [(r, k) for r in ideals.index_set(n) for k in range(max_k + 1)]
    for r, k in cells:
        info = ideals.rank_of_ideal(n, r, k)
        if info.idempotent_generated != (0 < r < n and k == 0):
            raise _Fail(r=r, k=k, reason="idempotent-generated flag")
        if info.idempotent_generated and info.idrank != info.rank:
            raise _Fail(r=r, k=k, reason="idrank differs from rank")
        gens = structure.generating_set(ideals.ideal_normalize(n, [(r, k)]))
        if gens.size != info.rank:
            raise _Fail(r=r, k=k, got=gens.size, expected=info.rank,
                        reason="materialised set size")
    return {"cells": len(cells)}


@_check("minimal-gens", "closure product", least_n=1)
def check_minimal_gens(n: int = 3, r: int = 1, k: int = 1):
    """M(r;k): star-indecomposable inside I(r;k), and its bounded closure
    recovers the bounded truncation of the ideal.  M(r;k) generates I(r;k)
    for n >= 1 when k >= 1 or r = 0."""
    if k == 0 < r:
        raise DiagramError(
            f"verify minimal-gens is stated for k >= 1 or r = 0, got r = {r}, k = {k}")
    # the generators lie in P, of twists k to 2k, and the closure in T, of twists to 2k + 2
    pool = (k + 1) * capped_diagrams(n, r)
    closure_size = (k + 3) * capped_diagrams(n, r)
    yield {"n": n, "r": r, "k": k}, pool * (pool + closure_size), closure_size
    spec = ideals.ideal_normalize(n, [(r, k)])
    gens = structure.generating_set(spec).elements
    gen_set = set(gens)
    for x, y in itertools.product(enumeration.truncation(n, range(k, 2 * k + 1), r), repeat=2):
        if star(x, y) in gen_set:
            raise _Fail(x=x.to_text(), y=y.to_text())
    bound = 2 * k + 2
    closure = enumeration.bounded_closure(gens, bound).elements
    expected = set(enumeration.truncation(n, range(k, bound + 1), r))
    if closure != expected:
        raise _Fail(
            missing=[x.to_text() for x in list(expected - closure)[:3]],
            extra=[x.to_text() for x in list(closure - expected)[:3]],
        )
    return {"generators": len(gens), "closure": len(closure)}


@_check("singular-rank", "GH candidate", least_n=3)
def check_singular_rank(n: int = 3, bound: int = 2):
    """The C(n,2) + n! formula, the matching generating set, and (desk
    scale) its bounded closure covering the singular truncation."""
    # the GH build tests delta(n, n-2) candidates, and the set lists the n! units;
    # the closure, which takes the bound, runs at desk scale only
    yield ({"n": n, "bound": bound} if n <= 3 else {"n": n},
           capped_delta(n, n - 2) + capped_delta(n, n), 0)
    value = structure.singular_rank(n)
    if value != math.comb(n, 2) + math.factorial(n):
        raise _Fail(value=value)
    gens = structure.singular_generating_set(n)
    if len(gens) != value:
        raise _Fail(generating_set_size=len(gens), expected=value)
    counts = {"rank": value, "generators": len(gens)}
    if n <= 3:
        closure = enumeration.bounded_closure(gens, bound).elements
        expected = set(enumeration.truncation(n, [0], n - 2) + enumeration.truncation(n, [1]))
        if not expected <= closure:
            raise _Fail(missing=next(iter(expected - closure)).to_text())
        counts["closure"] = len(closure)
    return counts


@_check("ig-subsemigroup", "closure product", least_n=2)
def check_ig_subsemigroup(n: int = 3, bound: int = 2):
    """The idempotent-generated subsemigroup is {1} u I(n-2;0) (degree >= 3);
    at degree 2 the twisted idempotents generate only {1}."""
    # the closure lies in the truncation; an H-class holds at most one idempotent
    generators = capped_sum(capped_rho(n, r) ** 2 for r in reversed(ideals.index_set(n)))
    truncated = (bound + 1) * capped_diagrams(n)
    yield {"n": n, "bound": bound}, capped_diagrams(n) + truncated * generators, truncated
    twisted_idems = list(enumeration.idempotents(n))
    closure = enumeration.bounded_closure(twisted_idems, bound).elements
    if n == 2:
        if closure != {as_twisted(identity(2))}:
            raise _Fail(closure_size=len(closure))
        plain = enumeration.plain_closure(enumeration.idempotents(2, twisted=False))
        if plain != {d for d in enumeration.all_diagrams(2) if d.rank < 2 or d == identity(2)}:
            raise _Fail(reason="untwisted closure at degree 2")
        return {"twisted_closure": len(closure), "plain_closure": len(plain)}
    mismatch = [
        x for x in enumeration.truncation(n, range(bound + 1))
        if structure.in_idempotent_generated(x) != (x in closure)
    ]
    if mismatch:
        raise _Fail(element=mismatch[0].to_text())
    return {"idempotents": len(twisted_idems), "closure": len(closure),
            "rank": structure.ig_subsemigroup_rank(n)}


@_check("maltcev-mazorchuk", "factored diagram", least_n=3)
def check_maltcev_mazorchuk(n: int = 3):
    """Every singular diagram is a zero-twist chain of twisted idempotents,
    and the idempotent-generated submonoids of the plain monoid coincide."""
    yield {"n": n}, capped_diagrams(n), 0
    factored = 0
    for alpha in enumeration.all_diagrams(n):
        if alpha.rank == n:
            continue
        chain = structure.factor_into_idempotents(alpha)
        if not all(is_idempotent_twisted(b) for b in chain):
            raise _Fail(alpha=alpha.to_text(), reason="non-idempotent factor")
        if star_chain(chain) != TwistedElement(0, alpha):
            raise _Fail(alpha=alpha.to_text(), reason="chain does not rebuild alpha")
        factored += 1
    counts = {"singular_diagrams": factored}
    if n <= 4:
        plain = enumeration.plain_closure(enumeration.idempotents(n, twisted=False))
        twisted = enumeration.plain_closure(enumeration.idempotents(n))
        expected = {d for d in enumeration.all_diagrams(n) if d.rank < n or d == identity(n)}
        if plain != expected or twisted != expected:
            raise _Fail(reason="generated submonoids differ from {1} u singular")
        counts["submonoid"] = len(expected)
    return counts
