"""
The four benchmark workloads.

Each workload runs *items*: fixed units of work that call the package's
public functions and check every output.  The inputs of item ``i`` are
made from the run's seed and ``i`` by this file alone (no package code
runs while inputs are made), just before the item starts and outside its
timing.  So no run repeats an input, and input generation is neither in
an item's time nor in set-up time.  An item reports how many operations it attempted, how many failed (a failing
report, a postcondition mismatch or an uncaught exception) and a digest of
everything it produced, so that traced and untraced runs can be compared.

Why these four:

* ``cocycle``: random triples through the verify harness; nearly all time
  is ``diagram.multiply`` on fresh diagrams plus ``random_diagram``.  It
  bypasses worklists, Graham-Houghton graphs and witnesses.
* ``oracle``: the divisibility oracle's product tables over the 945
  diagrams of degree 5 and two twist-bounded / plain closures, the product
  worklists of the package.
* ``gh``: Graham-Houghton graphs up to degree 7, where the time goes to
  enumerating D-classes and testing every candidate for idempotence.
* ``witnesses``: text requests at mixed degrees that parse two diagrams,
  decide the pre-orders, build every witness and an idempotent chain, and
  emit JSON; a fixed share goes through the CLI.  It loads the diagram
  layer with construction rather than products.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass, field


@dataclass
class ItemResult:
    attempted: int = 0
    failed: int = 0
    facts: dict = field(default_factory=dict)
    _hash: object = field(default_factory=hashlib.sha256)

    def output(self, text: str) -> None:
        self._hash.update(text.encode())
        self._hash.update(b"\n")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"exception in {what}:\n{traceback.format_exc()}", file=sys.stderr)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


class Modules:
    """The package modules, looked up at call time so that a tracer's
    replacements are the functions that run."""

    def __init__(self, with_cli: bool):
        self.package = importlib.import_module("twisted_brauer")
        for name in ("diagram", "twisted", "green", "structure", "verify"):
            setattr(self, name, importlib.import_module(f"twisted_brauer.{name}"))
        self.cli = importlib.import_module("twisted_brauer.cli") if with_cli else None


def report_text(report) -> str:
    """A verify report without its timing, for the output digest."""
    return json.dumps(
        {"theorem": report.theorem, "params": report.params, "status": report.status,
         "counts": report.counts, "counterexample": report.counterexample},
        sort_keys=True,
    )


def item_rng(workload: str, seed: int, i: int) -> random.Random:
    """The generator of item ``i``'s inputs.  A string seed is hashed with
    SHA-512, so it does not depend on ``PYTHONHASHSEED``."""
    return random.Random(f"{workload}:{seed}:{i}")


# -- counting formulas, restated here so that checks do not trust the package --


def rho(n: int, r: int) -> int:
    return math.comb(n, r) * math.prod(range(n - r - 1, 0, -2))


def delta(n: int, r: int) -> int:
    return rho(n, r) ** 2 * math.factorial(r)


# -- cocycle --------------------------------------------------------------------

COCYCLE_BATCHES = ((6, 2000), (50, 400))  # (degree, triples) per item


def cocycle_inputs(seed: int, i: int):
    rng = item_rng("cocycle", seed, i)
    return [(n, samples, rng.randrange(2**31)) for n, samples in COCYCLE_BATCHES]


def cocycle_item(mods: Modules, inputs) -> ItemResult:
    res = ItemResult()
    triples = 0
    for n, samples, seed in inputs:
        try:
            report = mods.verify.check_tau_identity(n=n, samples=samples, seed=seed)
        except Exception:
            res.crashed(f"tau-identity n={n} seed={seed}")
            continue
        res.output(report_text(report))
        res.check(report.passed and report.counts.get("triples") == samples,
                  f"tau-identity n={n} seed={seed}: {report.counterexample}")
        triples += samples
    res.facts["triples"] = triples
    return res


def cocycle_identities(layers: dict, facts: dict, builds):
    yield ("diagram.multiply.calls == 4 * triples",
           layers["diagram.multiply.calls"], 4 * facts.get("triples", 0))


# -- oracle ---------------------------------------------------------------------

# With 1,000 pairs the oracle's tables fill to within 1% of the same size
# for every seed; with 100 they differ by 10% from seed to seed.
ORACLE_DEGREE, ORACLE_PAIRS = 5, 1000


def oracle_inputs(seed: int, i: int):
    return item_rng("oracle", seed, i).randrange(2**31)


def oracle_item(mods: Modules, seed) -> ItemResult:
    res = ItemResult()
    V = mods.verify
    runs = (
        (lambda: V.check_green_preorders(n=ORACLE_DEGREE, samples=ORACLE_PAIRS,
                                         seed=seed, factor=False),
         "pairs", ORACLE_PAIRS),
        (lambda: V.check_idempotent_closure(4, 2, 2), "closure", 243),
        (lambda: V.check_maltcev_mazorchuk(4), "submonoid", 82),
    )
    for call, key, want in runs:
        try:
            report = call()
        except Exception:
            res.crashed(f"oracle seed {seed} ({key})")
            continue
        res.output(report_text(report))
        res.check(report.passed and report.counts.get(key) == want,
                  f"{report.theorem}: {key}={report.counts.get(key)} want {want}, "
                  f"{report.counterexample}")
    return res


# -- gh -------------------------------------------------------------------------

GH_CASES = ((3, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 4), (7, 1), (7, 3), (7, 5))
SUBSET_ORACLE_LIMIT = 16


def gh_inputs(seed: int, i: int):
    # Deterministic: every item builds the same graphs, and the seed is unused.
    return GH_CASES


def gh_item(mods: Modules, inputs) -> ItemResult:
    res = ItemResult()
    degrees = {}
    for n, r in inputs:
        try:
            report = mods.structure.verify_rank_idrank(n, r)
        except Exception:
            res.crashed(f"verify_rank_idrank({n}, {r})")
            continue
        res.output(json.dumps(report.to_json_obj(), sort_keys=True))
        b = report.common_degree
        degrees[f"{n},{r}"] = b
        res.check(report.certified_rank == rho(n, r) and report.side_size == rho(n, r)
                  and b is not None and b >= 2,
                  f"GH graph ({n},{r}): {report.to_json_obj()}")
        if rho(n, r) <= SUBSET_ORACLE_LIMIT:
            try:
                check = mods.verify.check_gh_conditions(n, r)
            except Exception:
                res.crashed(f"gh-conditions ({n}, {r})")
                continue
            res.output(report_text(check))
            res.check(check.passed and check.counts.get("oracle") == "agrees"
                      and check.counts.get("b") == b,
                      f"gh-conditions ({n},{r}): {check.counterexample}")
    res.facts["b"] = degrees
    return res


def gh_identities(layers: dict, facts: dict, builds):
    b = facts.get("b", {})
    yield ("structure.gh.candidates == sum delta(n, r) over graph builds",
           layers["structure.gh.candidates"], sum(delta(n, r) for n, r in builds))
    yield ("structure.gh.edges == sum rho(n, r) * b over graph builds",
           layers["structure.gh.edges"],
           sum(rho(n, r) * (b.get(f"{n},{r}") or 0) for n, r in builds))


# -- witnesses --------------------------------------------------------------------

WITNESS_DEGREES = (6, 10, 20, 40)
WITNESS_PER_DEGREE = 20  # requests per degree in one item
WITNESS_INDEPENDENT = 4  # of those, pairs drawn independently (pre-orders may fail)
WITNESS_VIA_CLI = 2  # of the comparable ones, requests sent through cli.main


def _random_blocks(n: int, rng: random.Random):
    """A uniform perfect matching as signed blocks (+i top, -i bottom)."""
    points = [i for i in range(1, n + 1)] + [-i for i in range(1, n + 1)]
    rng.shuffle(points)
    return [(points[k], points[k + 1]) for k in range(0, 2 * n, 2)]


def _below(n: int, blocks, rng: random.Random):
    """Blocks of a diagram below ``blocks`` in R, L and J at once: pairs of
    transversals are closed into one upper and one lower hook each."""
    transversals = [(a, b) if a > 0 else (b, a) for a, b in blocks if (a > 0) != (b > 0)]
    hooks = [blk for blk in blocks if (blk[0] > 0) == (blk[1] > 0)]
    if len(transversals) < 2:
        return list(blocks)
    rng.shuffle(transversals)
    k = rng.randint(1, len(transversals) // 2)
    out = hooks + transversals[2 * k:]
    for m in range(k):
        (t1, b1), (t2, b2) = transversals[2 * m], transversals[2 * m + 1]
        out += [(t1, t2), (b1, b2)]
    return out


def _shape(blocks):
    """(upper hooks, lower hooks, rank) of signed blocks."""
    upper = {frozenset(blk) for blk in blocks if blk[0] > 0 and blk[1] > 0}
    lower = {frozenset(blk) for blk in blocks if blk[0] < 0 and blk[1] < 0}
    rank = sum(1 for a, b in blocks if (a > 0) != (b > 0))
    return upper, lower, rank


def _text(n: int, blocks) -> str:
    tok = lambda t: str(t) if t > 0 else f"{-t}'"
    return f"n={n}: " + "".join(f"({tok(a)},{tok(b)})" for a, b in blocks)


def witness_inputs(seed: int, i: int):
    rng = item_rng("witnesses", seed, i)
    batch = []
    for n in WITNESS_DEGREES:
        for k in range(WITNESS_PER_DEGREE):
            y = _random_blocks(n, rng)
            independent = k < WITNESS_INDEPENDENT
            x = _random_blocks(n, rng) if independent else _below(n, y, rng)
            ux, lx, rx = _shape(x)
            uy, ly, ry = _shape(y)
            batch.append({
                "n": n,
                "x": _text(n, x),
                "y": _text(n, y),
                "expect": [uy <= ux, ly <= lx, rx <= ry],
                "singular": rx < n,
                "cli": not independent and k < WITNESS_INDEPENDENT + WITNESS_VIA_CLI,
            })
    rng.shuffle(batch)
    return batch


def _run_cli(mods: Modules, argv) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(argv)
    if code != 0:
        print(f"cli {argv[:2]} exited {code}: {err.getvalue()}", file=sys.stderr)
    return code, out.getvalue().splitlines()


def _witness_request(mods: Modules, req, res: ItemResult) -> None:
    D, G, T, S = mods.diagram, mods.green, mods.twisted, mods.structure
    n = req["n"]
    x, y = D.parse_diagram(req["x"]), D.parse_diagram(req["y"])
    zero_x = T.TwistedElement(0, x)
    decided = [G.leq_R(x, y), G.leq_L(x, y), G.leq_J(x, y)]
    ok = decided == req["expect"]
    out: dict = {"n": n, "leq": decided}
    if decided[0]:
        d = G.factor_right(x, y)
        ok &= D.multiply(y, d) == (x, 0)
        out["right"] = d.to_json_obj()
    if decided[1]:
        g = G.factor_left(x, y)
        ok &= D.multiply(g, y) == (x, 0)
        out["left"] = g.to_json_obj()
    if decided[2]:
        if req["cli"]:
            code, lines = _run_cli(mods, ["green", "factor", "--mode", "two-sided",
                                          "--n", str(n), req["x"], req["y"]])
            ok &= code == 0 and len(lines) == 2
            g, d = (D.parse_diagram(line) for line in lines)
        else:
            g, d = G.factor_two_sided(x, y)
        ok &= T.star_chain(g, y, d) == zero_x
        out["two_sided"] = [g.to_json_obj(), d.to_json_obj()]
    if req["singular"]:
        if req["cli"]:
            code, lines = _run_cli(mods, ["factor", "--idempotents", "--n", str(n), req["x"]])
            ok &= code == 0
            chain = [D.parse_diagram(line) for line in lines]
        else:
            chain = S.factor_into_idempotents(x)
        ok &= all(T.is_idempotent_twisted(e) for e in chain)
        ok &= T.star_chain(chain) == zero_x
        out["chain"] = [e.to_json_obj() for e in chain]
    res.output(json.dumps(out, sort_keys=True))
    res.check(ok, f"witness request {req['x']!r} vs {req['y']!r}")


def witness_item(mods: Modules, inputs) -> ItemResult:
    res = ItemResult()
    for req in inputs:
        try:
            _witness_request(mods, req, res)
        except Exception:
            res.crashed(f"witness request {req['x']!r} vs {req['y']!r}")
    return res


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    item_inputs: object  # (seed, item index) -> the item's inputs
    run_item: object  # (modules, inputs) -> ItemResult
    trace_items: int  # items in a traced run: fixed work, so counts repeat
    with_cli: bool = False
    identities: object = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cocycle", cocycle_inputs, cocycle_item, trace_items=4,
                 identities=cocycle_identities),
        Workload("oracle", oracle_inputs, oracle_item, trace_items=1),
        Workload("gh", gh_inputs, gh_item, trace_items=1, identities=gh_identities),
        Workload("witnesses", witness_inputs, witness_item, trace_items=3, with_cli=True),
    )
}
