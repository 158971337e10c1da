"""Tests of the benchmark's own math and request generator.

Run with ``python3 -m pytest perfbench -q``; none of them needs the
program under test.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import PAD_S, REF_KERNEL_S, HostSpeed  # noqa: E402
from servemix import (BLOCK, FAMILY, HITS_PER_BLOCK, MIN_MISSES,  # noqa: E402
                      SpecStream, enough)
from spans import SpanRecorder, summarize  # noqa: E402
from stats import (beyond, percentile, self_times, supported,  # noqa: E402
                   unique_share)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(n, q):
    values = [random.Random(n * 7 + i).expovariate(1.0) for i in range(n)]
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_support_needs_ten_samples_beyond():
    # Samples strictly above the interpolated rank (n - 1) * q.
    assert beyond(100, 90) == 10 and supported(100, 90)
    assert beyond(92, 90) == 10 and supported(92, 90)
    assert beyond(91, 90) == 9 and not supported(91, 90)
    assert supported(902, 99) and not supported(901, 99)
    assert not supported(0, 50)


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: the union 1..6 counts once
        ("a.child", 2.0, 3.0, 1),
        ("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_recorder_nests_spans_and_sums_self_time():
    recorder = SpanRecorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap("leaf", leaf)
    with recorder.request(7):
        with recorder.span("outer"):
            traced_leaf()
            traced_leaf()
    records = recorder.records()
    assert [r[0] for r in records] == ["outer", "leaf", "leaf"]
    assert records[0][3] == -1 and records[1][3] == 0 and records[2][3] == 0
    assert all(r[4] == 7 for r in records)
    summary = summarize(records)
    assert summary["leaf"]["calls"] == 2
    outer = summary["outer"]
    assert outer["self_ms"] == pytest.approx(
        outer["incl_ms"] - summary["leaf"]["incl_ms"])
    second_leaf = records[2][1]
    windowed = summarize(records, window=(second_leaf, second_leaf))
    assert list(windowed) == ["leaf"] and windowed["leaf"]["calls"] == 1


def test_unique_share_counts_only_gathered_gemms():
    from types import SimpleNamespace as NS

    gathered = NS(input_unique=30, m=20, k_blocks=3)   # 30 of 60 kept
    dense = NS(input_unique=None, m=99, k_blocks=9)    # not gathered
    cell = NS(traces=[NS(gemms=[gathered, dense]),
                      NS(gemms=[NS(input_unique=10, m=10, k_blocks=4)])])
    assert unique_share([cell]) == pytest.approx(40 / 100)
    assert unique_share([]) == 0.0


def test_host_speed_scales_spans_by_the_kernel_time_around_them():
    k = REF_KERNEL_S
    rows = [(t / 10, cpu, (cpu + 1) * k) for t in range(100) for cpu in (0, 1)]
    speed = HostSpeed(rows)
    # Both CPUs pooled: mean kernel 1.5 k, so the span shrinks by 1.5.
    assert speed.normalize(3.0, 4.0) == pytest.approx(2.0)
    # Only CPU 1 (kernel 2 k): at reference speed the span is halved.
    assert speed.normalize(3.0, 4.0, {1}) == pytest.approx(1.5)
    assert speed.normalize(3.0, 4.0, {0}) == pytest.approx(3.0)


def test_host_speed_window_is_padded_and_falls_back_to_nearest():
    rows = [(0.0, 0, 4e-3), (10.0, 0, 1e-3), (10.0 + PAD_S + 1.0, 0, 9e-3)]
    speed = HostSpeed(rows)
    # A span ending just before t=10 sees that sample through the pad,
    # and none of the far ones.
    assert speed.kernel_s(9.0, 10.0 - PAD_S / 2) == pytest.approx(1e-3)
    # No sample within the padded window: the nearest one is used.
    assert speed.kernel_s(4.0, 4.1) == pytest.approx(4e-3)
    with pytest.raises(RuntimeError):
        HostSpeed([])


def test_sweep_pass_rates_group_warm_re_runs_under_their_cold_pass():
    from types import SimpleNamespace as NS

    import run

    cpus = frozenset({0})
    phase = NS(cold=[(0.0, 4.0, cpus), (10.0, 2.0, cpus)],
               warm=[(4.0, 0.5, cpus), (4.5, 0.5, cpus), (12.0, 1.0, cpus)])
    cold = [s for _, s, _ in phase.cold]
    warm = [s for _, s, _ in phase.warm]
    # Pass 1: 3 ops in 5 s; pass 2: 2 ops in 3 s.
    assert run.pass_rates(phase, cold, warm) == pytest.approx([0.6, 2 / 3])


def _draws(seed, n=500):
    stream = SpecStream(seed)
    return stream.pool, [stream.next() for _ in range(n)]


def test_spec_stream_is_deterministic_per_seed():
    assert _draws(3) == _draws(3)
    assert _draws(3) != _draws(4)


def test_spec_stream_hits_repeat_the_pool_and_misses_are_fresh():
    n = 12 * BLOCK
    pool, draws = _draws(5, n=n)
    assert [d[0] for d in draws] == list(range(n))
    misses = [spec for _, kind, spec in draws if kind == "miss"]
    hits = [spec for _, kind, spec in draws if kind == "hit"]
    assert len(set(misses)) == len(misses)
    assert set(hits) <= set(pool) and not set(misses) & set(pool)
    assert all(spec.startswith(FAMILY + ":seed=") for spec in pool + misses)
    for start in range(0, len(draws), BLOCK):
        block = [kind for _, kind, _ in draws[start:start + BLOCK]]
        assert block.count("hit") == HITS_PER_BLOCK


def test_spec_stream_mix_is_configurable():
    kinds = [SpecStream(9, block=1, hits=0).next()[1] for _ in range(50)]
    assert set(kinds) == {"miss"}
    stream = SpecStream(9, block=4, hits=3)
    kinds = [stream.next()[1] for _ in range(400)]
    assert kinds.count("miss") == 100


def test_enough_needs_hit_tail_support_and_min_misses():
    assert enough(100, MIN_MISSES)
    assert not enough(91, MIN_MISSES)
    assert not enough(10_000, MIN_MISSES - 1)


def test_metric_lists_match_benchmark_json():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(names)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
