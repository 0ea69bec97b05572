"""Measure the per-unit costs of ``twisted_brauer.ideals.COSTS`` on this machine.

Each unit has calibration requests: calls, of about 0.01 to 12 s each, of
the entry points whose guard names the unit.  Every request runs three
times, each in a fresh child process, which reads the work and held counts
of the first guard call that names the unit, the elapsed time and the
growth of its peak resident set.  A unit's cost is the largest, over its
requests, of the median nanoseconds per unit of work, and the largest bytes
per unit held at its request that holds the most (where the interpreter's
own growth weighs least); the table holds these rounded up to two
significant digits.  Run from the repository root

    PYTHONPATH=src python tests/measure_costs.py [unit ...]

which prints each unit's measured costs next to the table's, and marks a
table entry below its measurement with ``<``.
"""

from __future__ import annotations

import collections
import json
import math
import resource
import statistics
import subprocess
import sys
import time

from twisted_brauer import enumeration, ideals, structure, verify

# request texts, evaluated with the names below in scope
CALIBRATION = {
    "streamed diagram": ["deque(all_diagrams(7), 0)", "deque(all_diagrams(8), 0)",
                         "deque(d_class(9, 1), 0)", "deque(d_class(10, 10), 0)"],
    "oracle diagram": ["oracle(6)", "oracle(7)"],
    "GH candidate": ["structure.build_gh_graph(7, 3)", "structure.build_gh_graph(8, 4)",
                     "structure.build_gh_graph(9, 1)", "check('gh-conditions', n=7, r=3)",
                     "check('rank-table', n=5)", "check('singular-rank', n=7)"],
    "grid element": ["gens(3, 1, 100_000)", "gens(5, 3, 200)", "gens(7, 5, 3)"],
    "generator degree": ["gens(10**5, 10**5, 0)", "gens(10**6, 10**6, 0)"],
    "closure product": ["top_closure(6, 2)", "top_closure(7, 1)",
                        "enumeration.bounded_closure(idempotents(5, 3), 2)",
                        "check('idempotent-closure', n=5, r=3, bound=2)",
                        "check('ig-subsemigroup', n=5, bound=1)",
                        "check('minimal-gens', n=4, r=2, k=1)"],
    "cocycle triple degree": ["check('tau-identity', n=3)",
                              "check('tau-identity', n=4, samples=20_000)",
                              "check('tau-identity', n=50, samples=2_000)",
                              "check('tau-identity', n=10**5, samples=2)",
                              "check('tau-identity', n=10**6, samples=1)"],
    "pre-order pair": ["check('green-pre-orders', n=4)",
                       "check('green-pre-orders', n=5, samples=20_000)",
                       "check('green-pre-orders', n=5, samples=200_000)",
                       "check('green-pre-orders', n=6, samples=1_000)"],
    "classified diagram": ["check('green-relations', n=6)", "check('green-relations', n=7)"],
    "regularity pair": ["check('regularity', n=4, bound=1)", "check('regularity', n=4, bound=3)"],
    "classification element": ["check('ideal-classification', n=6)",
                               "check('ideal-classification', n=7)"],
    "lemma diagram": ["check('rank-drop-lemma', n=7)", "check('twist-raise-lemma', n=7)",
                      "check('twist-keep-lemma', n=7)"],
    "absorbed transposition": ["check('idempotent-generation', n=5, r=3)",
                               "check('idempotent-generation', n=6, r=4)"],
    "factored diagram": ["check('maltcev-mazorchuk', n=5)", "check('maltcev-mazorchuk', n=6)",
                         "check('maltcev-mazorchuk', n=7)"],
}
RUNS = 3


def check(theorem, **params):
    return verify.CHECKS[theorem](**params)


def oracle(n):
    """A divisibility oracle with each of its three relations searched."""
    found = enumeration.DivisibilityOracle(n)
    a = found.diagrams[-1]
    return found.leq_R(a, a), found.leq_L(a, a), found.leq_J(a, a)


def gens(n, r, k):
    return structure.generating_set(ideals.ideal_normalize(n, [(r, k)]))


def idempotents(n, r):
    return [d for d in enumeration.idempotents(n) if d.rank == r]


def top_closure(n, bound):
    """The closure of the four top generators, which fills its bound."""
    return enumeration.bounded_closure(gens(n, n, 0).elements, bound)


def _child(unit: str, request: str) -> None:
    """Run ``request`` once and print [seconds, bytes, work, held] as JSON."""
    calls = []
    real = ideals.check_cost

    def recording(subject, named, work, held=0):
        if named == unit:
            calls.append((work, held))
        real(subject, named, work, held)

    for module in (enumeration, structure, verify):
        module.check_cost = recording
    scope = {**globals(), "deque": collections.deque, "all_diagrams": enumeration.all_diagrams,
             "d_class": enumeration.d_class}
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    eval(request, scope)
    seconds = time.perf_counter() - start
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) * 1024  # KB on Linux
    work, held = calls[0]
    print(json.dumps([seconds, grown, work, held]))


def _round_up(x: float) -> int:
    """x rounded up to two significant digits."""
    if x <= 0:
        return 0
    step = 10 ** max(0, math.floor(math.log10(x)) - 1)
    return math.ceil(x / step) * step


def measure(unit: str) -> tuple[int, int]:
    """The unit's cost in nanoseconds per unit of work and bytes per unit held."""
    ns, most, size = 0.0, 0, 0.0
    for request in CALIBRATION[unit]:
        runs = [json.loads(subprocess.run(
            [sys.executable, __file__, "--child", unit, request], check=True,
            capture_output=True, text=True).stdout) for _ in range(RUNS)]
        seconds, grown, (work, held) = (statistics.median(r[0] for r in runs),
                                        max(r[1] for r in runs), runs[0][2:])
        ns = max(ns, seconds * 1e9 / work)
        if held > most:
            most, size = held, grown / held
        print(f"  {request}: work {work}, held {held}, {seconds:.3f} s, "
              f"{grown / 2**20:.1f} MiB", flush=True)
    return _round_up(ns), _round_up(size)


def main(units) -> None:
    for unit in units or ideals.COSTS:
        print(unit, flush=True)
        measured = measure(unit)
        table = ideals.COSTS[unit]
        marks = ["<" if t < m else " " for t, m in zip(table, measured)]
        print(f"  measured {measured[0]:>7} ns {measured[1]:>6} B;  "
              f"table {table[0]:>7} ns{marks[0]} {table[1]:>6} B{marks[1]}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(*sys.argv[2:4])
    else:
        main(sys.argv[1:])
