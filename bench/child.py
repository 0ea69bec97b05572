"""
One fresh benchmark process: set up a workload, run its items, report.

Usage (the parent, ``run.py``, starts this; run it by hand to debug)::

    python3 bench/child.py --workload gh --seed 1 --seconds 20
    python3 bench/child.py --workload gh --seed 1 --items 1 --trace 1 --spans out.jsonl.gz
    python3 bench/child.py --workload gh --seed 1 --setup-only
    python3 bench/child.py --workload gh --seed 1 --seconds 20 --src ../parent/src

Set-up is the import of the package (and of its CLI where the workload
uses it), timed inside this process, so interpreter start is excluded and
work moved into import shows.  Items then run back to back in a closed
loop, either for ``--seconds`` or for exactly ``--items`` items.  Each
item's inputs are made just before it, outside its timing.  ``--src``
names the directory the package is imported from (default: ``src/`` of
this checkout).  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402  (bench module; imports no package code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--items", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, os.path.abspath(args.src))

    start = time.perf_counter()
    mods = workloads.Modules(with_cli=wl.with_cli)
    setup_s = time.perf_counter() - start
    where = os.path.dirname(os.path.dirname(os.path.abspath(mods.package.__file__)))
    if where != os.path.abspath(args.src):
        print(f"twisted_brauer was imported from {where}, not from {args.src}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        skipped = tracer.install(mods.package)
        if skipped:
            print(f"tracer: targets not found: {', '.join(skipped)}", file=sys.stderr)

    walls, digests = [], []
    attempted = failed = 0
    facts: dict = {}
    loop_start = time.perf_counter()
    i = 0
    while (i < args.items) if args.items else (time.perf_counter() - loop_start < args.seconds):
        if tracer is not None:
            tracer.run_id = i
        inputs = wl.item_inputs(args.seed, i)
        t0 = time.perf_counter()
        res = wl.run_item(mods, inputs)
        walls.append(time.perf_counter() - t0)
        digests.append(res.digest)
        attempted += res.attempted
        failed += res.failed
        for key, value in res.facts.items():
            if isinstance(value, dict):
                facts.setdefault(key, {}).update(value)
            else:
                facts[key] = facts.get(key, 0) + value
        i += 1

    out = {
        "setup_s": setup_s,
        "item_walls": walls,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer)
        out["gh_builds"] = tracer.gh_builds
        out["spans"] = len(tracer)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
