"""
Benchmark of the twisted_brauer package: four seeded workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

One run (the form BENCHMARK.json names; the last stdout line is JSON)::

    python3 bench/run.py --workload cocycle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload gh --seed 1 --seconds 20 --trace 1

Every workload and metric, repeated over seeds, into a stamped result file::

    python3 bench/run.py suite --runs 10 --seed 1 --out bench/out/mine.json

The same, alternating seed by seed with the package of a parent checkout,
into two result files whose runs are paired::

    python3 bench/run.py suite --runs 10 --seed 1 --out bench/out/change.json \
        --parent-root ../parent --parent-out bench/out/parent.json

Verdicts for a change against its parent, one row per workload and metric::

    python3 bench/run.py compare bench/out/parent.json bench/out/change.json

The process is single-threaded and closed-loop: it starts one fresh child
process at a time (``child.py``) and waits for it, and each child runs its
items back to back.  See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import stats  # noqa: E402
import workloads  # noqa: E402

# Fresh processes whose set-up time is the median: the measuring child and
# SETUP_SAMPLES - 1 set-up-only children, half before and half after it.
# The host's speed moves between levels every few seconds, and samples
# spread over the run span more of them than samples taken back to back.
SETUP_SAMPLES = 21
RUN_LIMIT_S = 170.0  # one run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn(deadline: float, workload: str, seed: int, src: str, *extra: str) -> dict:
    """Run one child, importing the package from ``src``, to completion and
    return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"),
           "--workload", workload, "--seed", str(seed), "--src", src, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(cmd)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float, deadline: float, src: str) -> dict:
    def setup_samples(count):
        return [spawn(deadline, workload, seed, src, "--setup-only")["setup_s"]
                for _ in range(count)]

    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(before)
    main = spawn(deadline, workload, seed, src, "--seconds", str(seconds))
    setups += [main["setup_s"]] + setup_samples(SETUP_SAMPLES - 1 - before)
    walls = main["item_walls"]
    # The host's speed shifts between levels every few seconds.  A median
    # of items snaps to one level; the mean averages them and so varies
    # less from run to run (10.7% against 17.3% quartile spread on cocycle).
    metrics = {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    tail = stats.tail_percentile(len(walls))
    notes = [f"wall_s is the mean of {len(walls)} items; their median is "
             f"{statistics.median(walls):.6f} s"
             + (f", p{tail:g} {stats.percentile(walls, tail):.6f} s" if tail else ""),
             f"setup_s is the median of {len(setups)} fresh processes; their minimum "
             f"is {min(setups):.6f} s"]
    return {"attempted": main["attempted"], "failed": main["failed"], "checks_ok": True,
            "metrics": metrics, "item_walls": walls, "notes": notes}


def run_traced(workload: str, seed: int, deadline: float, src: str, label: str) -> dict:
    """An untraced and two traced runs of the same fixed items; the layer
    metrics come from the first traced run, and the three must agree."""
    wl = workloads.WORKLOADS[workload]
    items = str(wl.trace_items)
    os.makedirs(OUT, exist_ok=True)
    plain = spawn(deadline, workload, seed, src, "--items", items)
    traced = [
        spawn(deadline, workload, seed, src, "--items", items, "--trace", "1", "--spans",
              os.path.join(OUT, f"spans-{label}{workload}-{tag}.jsonl.gz"))
        for tag in ("a", "b")
    ]
    first = traced[0]
    metrics = dict(first["layers"])
    metrics["trace.overhead_s"] = sum(first["item_walls"]) - sum(plain["item_walls"])
    declared = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    checks = [("traced and untraced output digests agree",
               plain["digest"] == first["digest"] == traced[1]["digest"])]
    counts = [k for k, unit in declared.items() if unit != "s"]
    differ = [k for k in counts if first["layers"][k] != traced[1]["layers"][k]]
    checks.append(("counts repeat across two traced runs"
                   + (f" (differ: {', '.join(differ)})" if differ else ""), not differ))
    if wl.identities is not None:
        for label, got, want in wl.identities(first["layers"], first["facts"],
                                              first["gh_builds"]):
            checks.append((f"{label}: {got} vs {want}", got == want))
    notes = [f"{'ok  ' if ok else 'FAIL'} {label}" for label, ok in checks]
    notes.append(f"{first['spans']} spans per traced run, written to {os.path.relpath(OUT, ROOT)}/")
    return {
        "attempted": plain["attempted"] + sum(t["attempted"] for t in traced),
        "failed": plain["failed"] + sum(t["failed"] for t in traced),
        "checks_ok": all(ok for _, ok in checks),
        "metrics": metrics,
        "notes": notes,
    }


def run_once(workload: str, seed: int, seconds: float, trace: bool, src: str = SRC,
             label: str = "") -> dict:
    """One run, importing the package from ``src``; ``label`` prefixes the
    names of a traced run's span files."""
    if not os.path.isdir(os.path.join(src, "twisted_brauer")):
        raise BenchError(f"no package source under {src}")
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result = run_traced(workload, seed, deadline, src, label)
    else:
        result = run_untraced(workload, seed, seconds, deadline, src)
    spec = load_benchmark()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(result["metrics"]):
        raise BenchError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    result["units"] = {m["name"]: m["unit"] for m in declared}
    result["correct"] = result["failed"] == 0 and result["checks_ok"]
    return result


def _format(value) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def single_run(argv) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:38s} {_format(value):>16s} {result['units'][name]}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"  {'fail_ratio':38s} {ratio:>16g} ({result['failed']} of {result['attempted']} operations)")
    for note in result["notes"]:
        print(f"  # {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


# -- suite: repeated runs into a stamped result file ------------------------------


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def stamp(root: str, seeds, seconds: float, started: str, side: str,
          paired_with: str | None) -> dict:
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown",
        "src_modified": None if commit is None else bool(git("status", "--porcelain", "--", "src")),
        "seeds": seeds,
        "runs": len(seeds),
        "seconds": seconds,
        "started": started,
        "finished": now(),
        # A suite run against a parent checkout writes one file per side;
        # both carry the same start time here, which marks their runs as
        # interleaved and so paired.
        "side": side,
        "paired_with": paired_with,
    }


def suite(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py suite", description=(
        "run every workload --runs times (seeds --seed, --seed+1, ...), plus one "
        "traced run each, and write a stamped result file; with --parent-root, "
        "alternate each run with the same run on the parent's package"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent-root", help="root of a checkout of the parent commit")
    parser.add_argument("--parent-out", help="result file of the parent (with --parent-root)")
    args = parser.parse_args(argv)
    if (args.parent_root is None) != (args.parent_out is None):
        parser.error("--parent-root and --parent-out go together")
    spec = load_benchmark()
    seconds = spec["run_seconds"]
    seeds = [args.seed + i for i in range(args.runs)]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sides = {"change": (ROOT, args.out)}
    if args.parent_root:
        sides = {"parent": (os.path.abspath(args.parent_root), args.parent_out), **sides}
    results = {side: {w: {"attempted": [], "failed": [], "correct": [], "item_walls": [],
                          "metrics": {m: [] for m in units}} for w in workloads.WORKLOADS}
               for side in sides}
    started = now()
    for k, seed in enumerate(seeds):
        # Round robin over workloads, so drift in the machine spreads over
        # them; the side that goes first alternates from seed to seed.
        order = list(sides) if k % 2 == 0 else list(reversed(sides))
        for w in workloads.WORKLOADS:
            for side in order:
                r = run_once(w, seed, seconds, False, os.path.join(sides[side][0], "src"))
                entry = results[side][w]
                for key in ("attempted", "failed", "correct"):
                    entry[key].append(r[key])
                entry["item_walls"].append(r["item_walls"])
                for m, v in r["metrics"].items():
                    entry["metrics"][m].append(v)
                print(f"{side:6s} {w:10s} seed {seed:3d}  " + "  ".join(
                    f"{m} {v:.5g}" for m, v in r["metrics"].items()), flush=True)
    for w in workloads.WORKLOADS:
        for side, (root, _) in sides.items():
            label = f"{side}-" if len(sides) > 1 else ""
            r = run_once(w, seeds[0], seconds, True, os.path.join(root, "src"), label)
            results[side][w]["trace"] = {"seed": seeds[0], "correct": r["correct"],
                                         "metrics": r["metrics"], "checks": r["notes"]}
            print(f"{side:6s} {w:10s} traced: {'correct' if r['correct'] else 'NOT CORRECT'}",
                  flush=True)
    paired_with = started if len(sides) > 1 else None
    for side, (root, out) in sides.items():
        doc = {"stamp": stamp(root, seeds, seconds, started, side, paired_with),
               "units": units, "workloads": results[side]}
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
        print(f"{side}: {out}")
        print_suite(doc, spec)
    return 0


def print_suite(doc: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':10s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} runs")
    for w, entry in doc["workloads"].items():
        for m, values in entry["metrics"].items():
            q1, med, q3 = stats.quartiles(values)
            print(f"{w:10s} {m:12s} {med:11.6g} {q1:11.6g} {q3:11.6g} "
                  f"{stats.spread(values):7.2%} {bounds[m]:6.0%} {len(values)}  {doc['units'][m]}")
        items = [t for walls in entry["item_walls"] for t in walls]
        tail = stats.tail_percentile(len(items))
        if tail:
            print(f"{w:10s} {'item wall':12s} median {statistics.median(items):.6g} s, "
                  f"p{tail:g} {stats.percentile(items, tail):.6g} s over {len(items)} items")
        attempted, failed = sum(entry["attempted"]), sum(entry["failed"])
        print(f"{w:10s} {'fail_ratio':12s} {failed / attempted:11.6g}   "
              f"({failed} of {attempted} operations over {len(entry['failed'])} runs)")


# -- compare: verdicts for a change against its parent ----------------------------------


def interleaved(parent: dict, change: dict) -> bool:
    """Whether the two result files come from one suite that alternated
    parent and change runs seed by seed."""
    p, c = parent["stamp"], change["stamp"]
    return (p.get("paired_with") is not None and p.get("paired_with") == c.get("paired_with")
            and p.get("side") == "parent" and c.get("side") == "change"
            and p["seeds"] == c["seeds"])


def compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=(
        "one verdict per workload and end-to-end metric: better, worse, "
        "unchanged or unresolved"))
    parser.add_argument("parent", help="result file of the parent commit")
    parser.add_argument("change", help="result file of the change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    spec = load_benchmark()
    for label, doc in (("parent", parent), ("change", change)):
        s = doc["stamp"]
        print(f"{label}: commit {s['git_commit'][:12]} python {s['python']} nproc {s['nproc']} "
              f"runs {s['runs']} x {s['seconds']} s, seeds {s['seeds'][0]}..{s['seeds'][-1]}, "
              f"{s['started']} to {s['finished']}")
    paired = interleaved(parent, change)
    if paired:
        print("runs alternated seed by seed: pairs are valid")
    else:
        print("runs were not alternated: the host's speed may differ between the two "
              "suites, so no row is rated better, and a shift up to the bound reads "
              "unchanged")
    print(f"{'workload':10s} {'metric':12s} {'parent':>11s} {'change':>11s} {'change%':>8s} "
          f"{'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict")
    worse = 0
    for w in parent["workloads"]:
        if w not in change["workloads"]:
            print(f"{w:10s} missing from the change's results")
            continue
        p, c = parent["workloads"][w], change["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            v = stats.verdict(p["metrics"][name], c["metrics"][name], m["bound"],
                              lower_is_better=m["better"] == "lower", paired=paired)
            worse += v["verdict"] == stats.WORSE
            print(f"{w:10s} {name:12s} {statistics.median(p['metrics'][name]):11.6g} "
                  f"{statistics.median(c['metrics'][name]):11.6g} {v['change']:8.2%} "
                  f"{v['spread']:7.2%} {m['bound']:6.0%} {v['wins']:>3d}/{v['pairs']:<2d}  "
                  f"{v['verdict']}")
        pr = sum(p["failed"]) / sum(p["attempted"])
        cr = sum(c["failed"]) / sum(c["attempted"])
        fail = stats.WORSE if cr > pr else stats.BETTER if cr < pr else stats.UNCHANGED
        worse += fail == stats.WORSE
        print(f"{w:10s} {'fail_ratio':12s} {pr:11.6g} {cr:11.6g} {'':8s} {'':7s} {'':6s} "
              f"{'':6s}  {fail}  ({sum(c['failed'])} of {sum(c['attempted'])})")
    print_layer_changes(parent, change)
    return 1 if worse else 0


def print_layer_changes(parent: dict, change: dict) -> None:
    """Per-layer counts of the traced runs that differ, to show where a
    saving appears; self times are listed for the same layers."""
    for w, p in parent["workloads"].items():
        pt, ct = p.get("trace"), change["workloads"].get(w, {}).get("trace")
        if not pt or not ct:
            continue
        if pt["seed"] != ct["seed"]:
            print(f"{w}: traced runs used seeds {pt['seed']} and {ct['seed']}; "
                  "per-layer counts are not comparable")
            continue
        moved = [k for k in pt["metrics"] if pt["metrics"][k] != ct["metrics"].get(k)
                 and not k.endswith("_s")]
        if moved:
            print(f"{w}: per-layer counts that moved (traced run, seed {pt['seed']}):")
            for k in moved:
                print(f"  {k:38s} {pt['metrics'][k]:>14.6g} -> {ct['metrics'].get(k, 0):<14.6g}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = {"suite": suite, "compare": compare}.get(argv[0] if argv else "", single_run)
    try:
        return command(argv[1:] if command is not single_run else argv)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
