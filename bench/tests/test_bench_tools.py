"""Tests of the benchmark's own helpers: span self times, the tracer's
wrapping, the percentile choice, the compare verdict and the pairing of
result files, and the seeding of workload inputs.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import os
import statistics
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0,100] > a [10,30] > grandchild [15,20]; root > b [40,60]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 15, 40]
    end = [100, 30, 20, 60]
    assert tracing.self_times(parent, start, end) == [60, 15, 5, 20]


def test_self_times_clip_children_and_count_overlap_once():
    # children overlap each other and one runs past its parent's end
    parent = [-1, 0, 0, 0]
    start = [0, 10, 15, 90]
    end = [100, 30, 40, 120]
    # covered: [10,40] and [90,100] -> 40 of 100
    assert tracing.self_times(parent, start, end)[0] == 60


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def test_tracer_nests_spans_and_counts_stream_yields():
    tracer = tracing.Tracer(clock=FakeClock())
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    stream = tracer.wrap_stream("stream", lambda k: (leaf(i) for i in range(k)))
    outer = tracer.wrap("outer", lambda: sum(stream(3)))
    assert outer() == 6
    names = [tracer.names[n] for n in tracer.name]
    assert names.count("leaf") == 3
    assert names.count("stream") == 4  # three yields and the final resumption
    assert tracer.yields == {"outer": 3}
    selfs = tracing.self_times(tracer.parent, tracer.start, tracer.end)
    total = tracer.end[0] - tracer.start[0]
    assert sum(selfs) == total  # self times partition the root span
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] < tracer.start[i] < tracer.end[i] < tracer.end[p]


def test_install_wraps_every_namespace_and_uninstall_restores():
    import twisted_brauer
    from twisted_brauer import diagram, verify

    original = diagram.multiply
    tracer = tracing.Tracer()
    assert tracer.install(twisted_brauer) == []
    try:
        assert verify.multiply is not original and diagram.multiply is verify.multiply
        verify.check_tau_identity(n=4, samples=10, seed=0)
    finally:
        tracer.uninstall()
    assert verify.multiply is original and twisted_brauer.multiply is original
    layers = tracing.layer_metrics(tracer)
    assert layers["diagram.multiply.calls"] == 40
    assert layers["enumeration.random_diagram.calls"] == 30
    assert layers["diagram.validate.calls"] == 30
    assert layers["verify.check.self_s"] > 0


@pytest.mark.parametrize("count, expected", [
    (1, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([5.0], 75) == 5.0


def test_quartiles_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, statistics.median(values), q3)


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_unchanged_for_the_same_runs():
    assert stats.verdict(BASE, BASE, 0.1)["verdict"] == stats.UNCHANGED


def test_verdict_small_worsening_within_bound_is_unchanged():
    assert stats.verdict(BASE, [v * 1.05 for v in BASE], 0.1)["verdict"] == stats.UNCHANGED


def test_verdict_better_needs_nine_tenths_of_pairs():
    change = [v * 0.8 for v in BASE]
    assert stats.verdict(BASE, change, 0.1)["verdict"] == stats.BETTER
    mixed = change[:8] + [1.2, 1.2]  # wins 8 of 10 pairs
    assert stats.verdict(BASE, mixed, 0.1)["verdict"] != stats.BETTER
    assert stats.verdict(BASE[:9], change[:9], 0.1)["verdict"] != stats.BETTER


def test_verdict_worse_beyond_bound():
    v = stats.verdict(BASE, [v * 1.2 for v in BASE], 0.1)
    assert v["verdict"] == stats.WORSE and v["worse_by"] == pytest.approx(0.2)


def test_verdict_higher_is_better_flips_direction():
    assert stats.verdict(BASE, [v * 1.2 for v in BASE], 0.1,
                         lower_is_better=False)["verdict"] == stats.BETTER


def test_verdict_gain_of_unpaired_runs_is_unresolved():
    change = [v * 0.8 for v in BASE]
    assert stats.verdict(BASE, change, 0.1, paired=False)["verdict"] == stats.UNRESOLVED
    worse = [v * 1.2 for v in BASE]
    assert stats.verdict(BASE, worse, 0.1, paired=False)["verdict"] == stats.WORSE


def test_verdict_wide_spread_is_unresolved():
    noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.05]
    assert stats.verdict(BASE, noisy, 0.1)["verdict"] == stats.UNRESOLVED


def test_verdict_wide_spread_but_every_run_better():
    noisy_parent = [2.0, 3.0, 2.2, 2.8, 2.5, 2.1, 2.9, 2.4, 2.6, 2.3]
    assert stats.verdict(noisy_parent, BASE, 0.1)["verdict"] == stats.BETTER


def test_witness_inputs_are_seeded_per_item_and_comparable_pairs_hold():
    a, b = workloads.witness_inputs(7, 0), workloads.witness_inputs(7, 0)
    assert a == b and a != workloads.witness_inputs(8, 0)
    assert a != workloads.witness_inputs(7, 1)
    assert len(a) == len(workloads.WITNESS_DEGREES) * workloads.WITNESS_PER_DEGREE
    for req in a:
        if req["cli"]:
            assert req["expect"] == [True, True, True] and req["singular"]


def test_item_inputs_do_not_repeat_across_items():
    for name, wl in workloads.WORKLOADS.items():
        if name == "gh":  # deterministic by design
            continue
        first = [wl.item_inputs(3, i) for i in range(50)]
        assert len({json.dumps(x) for x in first}) == 50, name


def _suite_doc(side, paired_with, seeds=(1, 2)):
    return {"stamp": {"side": side, "paired_with": paired_with, "seeds": list(seeds)}}


def test_interleaved_needs_one_alternating_suite():
    assert run.interleaved(_suite_doc("parent", "t0"), _suite_doc("change", "t0"))
    assert not run.interleaved(_suite_doc("parent", None), _suite_doc("change", None))
    assert not run.interleaved(_suite_doc("parent", "t0"), _suite_doc("change", "t1"))
    assert not run.interleaved(_suite_doc("change", "t0"), _suite_doc("parent", "t0"))
    assert not run.interleaved(_suite_doc("parent", "t0"),
                               _suite_doc("change", "t0", seeds=(2, 3)))
