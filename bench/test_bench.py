"""Tests of the benchmark's own arithmetic and bookkeeping.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import stats  # noqa: E402
from tracer import Span, Tracer, relabel, self_times  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert stats.tail_percentile(values, 0.99) == 990  # 991..1000 lie beyond
    assert stats.tail_percentile(reversed(values), 0.5) == 500
    with pytest.raises(ValueError, match="9 beyond"):
        stats.tail_percentile(values[:999], 0.99)
    assert stats.tail_percentile(range(1, 201), 0.95) == 190
    with pytest.raises(ValueError):
        stats.tail_percentile(values, 1.0)


def test_quartile_spread_is_iqr_over_median():
    median, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    q1, _, q3 = 2.75, 5.5, 8.25  # statistics.quantiles, exclusive method
    assert median == 5.5
    assert spread == pytest.approx((q3 - q1) / 5.5)


def _span(name, start, end, parent=-1, rid=None, tag=0):
    return Span(name, start, end, parent, rid, tag, False)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("d", 2.0, 3.0, parent=1),
        _span("c", 3.0, 6.0, parent=0),  # overlaps b: covered once, not twice
        _span("e", 8.0, 12.0, parent=0),  # runs past its parent: only 8..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 1, 3, 4])


def test_tracer_records_nesting_and_restores_originals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def broken():
        raise KeyError("boom")

    mod.inner, mod.outer, mod.broken = inner, outer, broken
    tracer.wrap(mod, "inner", "layer.inner", tag=lambda args, result: result)
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.wrap(mod, "broken", "layer.broken")
    tracer.rid = 7
    assert mod.outer(1) == 4
    with pytest.raises(KeyError):
        mod.broken()
    tracer.enabled = False
    mod.inner(5)
    tracer.restore()
    assert (mod.inner, mod.outer, mod.broken) == (inner, outer, broken)

    outer_span, inner_span, broken_span = tracer.spans
    assert (outer_span.name, outer_span.parent, outer_span.start, outer_span.end) == ("layer.outer", -1, 0, 3)
    assert (inner_span.name, inner_span.parent, inner_span.start, inner_span.end) == ("layer.inner", 0, 1, 2)
    assert inner_span.tag == 2 and inner_span.rid == 7
    assert broken_span.error and not outer_span.error
    assert self_times(tracer.spans) == [2.0, 1.0, 1.0]


def test_tracer_wraps_methods_on_classes():
    class Pipe:
        def apply(self, x):
            return x * 3

    tracer = Tracer()
    original = Pipe.apply
    tracer.wrap(Pipe, "apply", "layer.apply", tag=lambda args, result: id(args[0]))
    pipe = Pipe()
    assert pipe.apply(2) == 6
    tracer.restore()
    assert Pipe.apply is original
    assert tracer.spans[0].tag == id(pipe)


def test_relabel_names_stage_spans_and_their_children():
    spans = [
        _span("train_hierarchy", 0, 10, rid="train"),
        _span("fit", 0, 1, parent=0, rid="train", tag=11),
        _span("train", 1, 5, parent=0, rid="train", tag=22),
        _span("backprop", 2, 3, parent=2, rid="train", tag=500),
        _span("save", 10, 11, rid="model", tag=22),  # same id outside the phase
    ]
    relabel(spans, "train", {11: "Linux", 22: "Linux"})
    assert [s.rid for s in spans] == ["train", "Linux", "Linux", "Linux", "model"]


def test_useful_generation_share():
    from neuralfp.neural import TrainHistory

    def history(mses):
        return TrainHistory([(g, m, 0.01, None) for g, m in enumerate(mses, start=1)])

    # generation 4 is the last to beat the last useful mse (0.5 at generation 2) by 1%
    assert stats.useful_generation_share(history([1.0, 0.5, 0.499, 0.45, 0.449, 0.4489])) == 4 / 6
    # slow progress counts once it adds up to 1%
    assert stats.useful_generation_share(history([1.0, 0.995, 0.99])) == 1.0
    assert stats.useful_generation_share(history([0.3])) == 1.0
    assert stats.useful_generation_share(history([0.3, 0.31, 0.4, 0.35])) == 0.25


def test_benchmark_json_lists_every_reported_metric():
    import layers
    import pipeline

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(pipeline.PROFILES)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == pipeline.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == layers.METRICS





def test_speed_scales_by_the_samples_during_a_timing():
    import speed as speed_module
    from speed import KERNEL_REPEATS, NOMINAL_S, Speed

    wall = [0.0]

    def clock():
        return wall[0]

    speed = Speed(clock=clock)

    def sample_at(t, kernel_s):
        # each of the KERNEL_REPEATS kernel runs takes kernel_s of wall time
        wall[0] = t
        runs = iter([kernel_s] * KERNEL_REPEATS)

        def timed_kernel():
            wall[0] += next(runs)

        original, speed_module.kernel = speed_module.kernel, timed_kernel
        try:
            speed.sample()
        finally:
            speed_module.kernel = original

    k = NOMINAL_S
    sample_at(0.0, k)          # before
    sample_at(1.0, 3 * k)      # during
    sample_at(2.0, 2 * k)      # during
    sample_at(3.0, 2 * k)      # after
    sample_at(4.0, 9 * k)      # later, not used
    taken = KERNEL_REPEATS * k * (1 + 3 + 2 + 2 + 9)
    assert speed.sampling_s == pytest.approx(taken)
    assert speed.now() == pytest.approx(4.0 + 9 * k * KERNEL_REPEATS - taken)

    # on now()'s clock the samples sit at 0, 1 - 5k, 2 - 20k, 3 - 30k, 4 - 40k
    start, end = 0.5, 2.5
    assert speed.scaled(start, end) == pytest.approx(2.0 * k / ((k + 3 * k + 2 * k + 2 * k) / 4))
    # an interval between two samples uses those two
    assert speed.scaled(0.1, 0.2) == pytest.approx(0.1 * k / ((k + 3 * k) / 2))
    assert speed.slowdown() == pytest.approx(2.0)


def test_process_timings_scale_by_the_reference_starts_around_them():
    from speed import NOMINAL_PROCESS_S, scale_process

    assert scale_process(0.3, NOMINAL_PROCESS_S, NOMINAL_PROCESS_S) == pytest.approx(0.3)
    assert scale_process(0.3, 1.0 * NOMINAL_PROCESS_S, 2.0 * NOMINAL_PROCESS_S) == pytest.approx(0.2)


def test_cold_hosts_take_the_kinds_in_turn():
    import pipeline

    def host(name, family, dump):
        return pipeline.Host(name, dump, family, None, None)

    hosts = [host("w1", "Windows", "dump"), host("n1", None, None), host("l1", "Linux", None),
             host("n2", None, None), host("w2", "Windows", None), host("w3", "Windows", "dump")]
    assert [h.obs_text for h in pipeline.cold_hosts(hosts, 6)] == ["n1", "l1", "w1", "n2", "w2", "w3"]
    assert pipeline.cold_hosts(hosts, 0) == []
