"""
Span tracer that wraps the package's public functions from outside.

The package binds names with ``from .diagram import multiply``, so a
function is replaced in every module namespace of the package that holds
it, not only where it is defined.  Methods, properties and
``__post_init__`` are replaced on their class.  Nothing under ``src/`` is
edited: a traced run imports the package, calls :meth:`Tracer.install`
and runs the same workload code as an untraced run.

Spans are kept in parallel arrays (name, parent, run id, start, end) and
written out only when the run ends.  The benchmark is single-threaded, so
spans nest strictly and a span's self time is its duration minus the part
of it covered by its children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter

FUNC, STREAM, METHOD, PROPERTY = "func", "stream", "method", "property"

# (span name, module under twisted_brauer, attribute path, kind).  A target
# that a later version of the package no longer has is skipped, and every
# metric built on it then reads 0.
TARGETS = [
    ("diagram.multiply", "diagram", "multiply", FUNC),
    ("diagram.validate", "diagram", "BrauerDiagram.__post_init__", METHOD),
    ("diagram.make_diagram", "diagram", "make_diagram", FUNC),
    ("diagram.star", "diagram", "BrauerDiagram.star", METHOD),
    ("diagram.kernel", "diagram", "BrauerDiagram.ker", PROPERTY),
    ("diagram.kernel", "diagram", "BrauerDiagram.coker", PROPERTY),
    ("diagram.parse", "diagram", "parse_diagram", FUNC),
    ("diagram.parse", "diagram", "diagram_from_json_obj", FUNC),
    ("diagram.emit", "diagram", "BrauerDiagram.to_text", METHOD),
    ("diagram.emit", "diagram", "BrauerDiagram.to_json_obj", METHOD),
    ("diagram.emit", "diagram", "BrauerDiagram.to_json", METHOD),
    ("twisted.star", "twisted", "star", FUNC),
    ("green.leq", "green", "leq_R", FUNC),
    ("green.leq", "green", "leq_L", FUNC),
    ("green.leq", "green", "leq_J", FUNC),
    ("green.leq", "green", "twisted_leq", FUNC),
    ("green.factor", "green", "factor_right", FUNC),
    ("green.factor", "green", "factor_left", FUNC),
    ("green.factor", "green", "factor_two_sided", FUNC),
    ("ideals.sigma", "ideals", "idempotent_factor_sigma", FUNC),
    ("ideals.lemmas", "ideals", "lemma_rank_drop", FUNC),
    ("ideals.lemmas", "ideals", "lemma_twist_raise", FUNC),
    ("ideals.lemmas", "ideals", "lemma_twist_keep", FUNC),
    ("enumeration.stream", "enumeration", "all_diagrams", STREAM),
    ("enumeration.stream", "enumeration", "all_diagrams_split", STREAM),
    ("enumeration.stream", "enumeration", "d_class", STREAM),
    ("enumeration.stream", "enumeration", "idempotents", STREAM),
    ("enumeration.random_diagram", "enumeration", "random_diagram", FUNC),
    ("enumeration.oracle", "enumeration", "DivisibilityOracle.leq_R", METHOD),
    ("enumeration.oracle", "enumeration", "DivisibilityOracle.leq_L", METHOD),
    ("enumeration.oracle", "enumeration", "DivisibilityOracle.leq_J", METHOD),
    ("enumeration.closure", "enumeration", "bounded_closure", FUNC),
    ("enumeration.closure", "enumeration", "plain_closure", FUNC),
    ("structure.gh.build", "structure", "build_gh_graph", FUNC),
    ("structure.matching", "structure", "perfect_matching", FUNC),
    ("structure.strong_hall", "structure", "strong_hall_check", FUNC),
    ("structure.subset_oracle", "structure", "strong_hall_subset_oracle", FUNC),
    ("structure.factor", "structure", "factor_into_idempotents", FUNC),
    ("cli.main", "cli", "main", FUNC),
]
# every check in verify.CHECKS is traced as "verify.check"
VERIFY_SPAN = "verify.check"


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.run_id = 0
        # stream yields keyed by the span name of the consumer
        self.yields: Counter = Counter()
        # facts read off return values: closure sizes, graph sizes, chains
        self.facts: Counter = Counter()
        self.gh_builds: list[tuple[int, int]] = []
        self._undo: list = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_result is not None:
                on_result(self, idx, args, result)
            return result

        return wrapper

    def wrap_stream(self, name: str, fn):
        """Wrap a generator function: one span per resumption, so the time
        spent producing each item is charged to the stream."""
        nid = self.name_id(name)

        def resume(inner):
            try:
                while True:
                    consumer = self.stack[-1]
                    idx = self.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.yields[self.names[self.name[consumer]] if consumer >= 0 else None] += 1
                    yield item
            finally:
                inner.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return wrapper

    # -- installing wrappers ------------------------------------------------

    def install(self, package) -> list[str]:
        """Wrap every target the package has; returns the targets skipped."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("diagram", "twisted", "green", "ideals", "enumeration",
                      "structure", "verify", "cli")
        ]
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        skipped = []
        for name, module, path, kind in TARGETS:
            owner = by_short[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or attr not in vars(cls):
                    skipped.append(path)
                    continue
                self._patch_class(cls, attr, name, kind)
            elif not self._patch_function(modules, owner, path, name, kind):
                skipped.append(path)
        verify = by_short["verify"]
        for check in list(getattr(verify, "CHECKS", {}).values()):
            self._patch_object(modules, check, self.wrap(VERIFY_SPAN, check))
        return skipped

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _patch_function(self, modules, owner, attr, name, kind) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        if kind == STREAM:
            wrapped = self.wrap_stream(name, fn)
        else:
            wrapped = self.wrap(name, fn, ON_RESULT.get(name))
        self._patch_object(modules, fn, wrapped)
        return True

    def _patch_object(self, modules, original, wrapped) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def _patch_class(self, cls, attr, name, kind) -> None:
        raw = vars(cls)[attr]
        if kind == PROPERTY:
            wrapped = property(self.wrap(name, raw.fget), doc=raw.__doc__)
        else:
            wrapped = self.wrap(name, raw, ON_RESULT.get(name))
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    # -- output -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: str) -> None:
        """Spans as gzip JSON lines: a header naming the span names, then
        one ``[run, name, parent, start_ns, end_ns]`` row per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.run, self.name, self.parent, self.start, self.end):
                out.write("[%d,%d,%d,%d,%d]\n" % row)


def _closure_result(tracer, idx, args, result):
    elements = getattr(result, "elements", result)
    tracer.facts["closure.elements"] += len(elements)


def _gh_result(tracer, idx, args, result):
    tracer.facts["gh.edges"] += len(result.edges)
    tracer.gh_builds.append((result.degree, result.rank))


def _factor_result(tracer, idx, args, result):
    parent = tracer.parent[idx]
    if parent < 0 or tracer.names[tracer.name[parent]] != "structure.factor":
        tracer.facts["factor.chain_len"] += len(result)


ON_RESULT = {
    "enumeration.closure": _closure_result,
    "structure.gh.build": _gh_result,
    "structure.factor": _factor_result,
}


def self_times(parent, start, end) -> list[int]:
    """Self time of every span: its duration minus the union of the parts
    of it that its direct children cover.

    Spans must be listed in start order, as a tracer records them; then
    the children of each span also arrive in start order, and their union
    is measured in one pass by remembering how far each parent is covered.
    """
    count = len(parent)
    covered = [0] * count
    reach = list(start)
    for i in range(count):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(count)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times, keyed by the BENCHMARK.json names."""
    names = tracer.names
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    child_calls: Counter = Counter()  # (parent span name, child span name)
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        self_ns[name] += selfs[i]
        p = tracer.parent[i]
        if p >= 0:
            child_calls[(names[tracer.name[p]], name)] += 1

    def s(name):
        return self_ns[name] / 1e9

    products = (child_calls[("enumeration.closure", "twisted.star")]
                + child_calls[("enumeration.closure", "diagram.multiply")])
    elements = tracer.facts["closure.elements"]
    candidates = tracer.yields["structure.gh.build"]
    edges = tracer.facts["gh.edges"]
    out = {}
    for layer in ("diagram.multiply", "diagram.validate", "diagram.make_diagram",
                  "diagram.star", "diagram.kernel"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = s(layer)
    out["diagram.parse.self_s"] = s("diagram.parse")
    out["diagram.emit.self_s"] = s("diagram.emit")
    out["twisted.star.calls"] = calls["twisted.star"]
    out["twisted.star.self_s"] = s("twisted.star")
    for layer in ("green.leq", "green.factor", "ideals.sigma"):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = s(layer)
    out["ideals.lemmas.self_s"] = s("ideals.lemmas")
    out["enumeration.stream.yielded"] = sum(tracer.yields.values())
    out["enumeration.stream.self_s"] = s("enumeration.stream")
    out["enumeration.random_diagram.calls"] = calls["enumeration.random_diagram"]
    out["enumeration.random_diagram.self_s"] = s("enumeration.random_diagram")
    out["enumeration.oracle.queries"] = calls["enumeration.oracle"]
    out["enumeration.oracle.table_products"] = child_calls[
        ("enumeration.oracle", "diagram.multiply")]
    out["enumeration.oracle.self_s"] = s("enumeration.oracle")
    out["enumeration.closure.products"] = products
    out["enumeration.closure.elements"] = elements
    out["enumeration.closure.useful_ratio"] = elements / products if products else 0.0
    out["structure.gh.candidates"] = candidates
    out["structure.gh.edges"] = edges
    out["structure.gh.useful_ratio"] = edges / candidates if candidates else 0.0
    out["structure.gh.build_self_s"] = s("structure.gh.build")
    out["structure.matching.self_s"] = s("structure.matching")
    out["structure.strong_hall.self_s"] = s("structure.strong_hall")
    out["structure.subset_oracle.self_s"] = s("structure.subset_oracle")
    out["structure.factor.calls"] = calls["structure.factor"]
    out["structure.factor.self_s"] = s("structure.factor")
    out["structure.factor.chain_len"] = tracer.facts["factor.chain_len"]
    out["verify.check.self_s"] = s(VERIFY_SPAN)
    out["cli.main.calls"] = calls["cli.main"]
    out["cli.main.self_s"] = s("cli.main")
    return out
