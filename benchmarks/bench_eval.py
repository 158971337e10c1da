"""Sharded per-sample evaluation over a video grid.

The acceptance gate for the eval-sharding PR: for a grid of (model,
method) cells — dense baseline, focus, and an INT8 focus arm — every
cell evaluated as per-sample-span ``eval-shard`` jobs on a 4-worker
engine must be *bit-identical* to the serial whole-cell evaluation,
and growing ``--samples`` must execute only the new suffix spans with
the prefix served from the span cache.  The run doubles as the
telemetry emitter: ``benchmarks/results/BENCH_eval.json`` records
wall-clock for the serial, sharded-cold, and grown (prefix-reuse)
sweeps, the shard count, the cache hit rate, and the prefix-reuse hit
rate, giving future PRs a perf trajectory for the evaluation phase
like BENCH_sim.json provides for simulation.
"""

import json
import time

from repro.engine import EvalJob, ExperimentEngine
from repro.eval.eval_shards import EVAL_SHARD_KIND
from repro.model.zoo import VIDEO_MODELS

from conftest import bench_samples

DATASET = "videomme"
GRID_METHODS = ("dense", "focus")
SHARD_WORKERS = 4


def _grid_jobs(samples):
    """Whole-cell jobs: the video models x methods grid plus an INT8 arm."""
    jobs = {
        (model, method, False): EvalJob(
            model=model, dataset=DATASET, method=method,
            num_samples=samples, seed=0,
        )
        for model in VIDEO_MODELS
        for method in GRID_METHODS
    }
    jobs[("llava-video", "focus", True)] = EvalJob(
        model="llava-video", dataset=DATASET, method="focus",
        num_samples=samples, seed=0, quantized=True,
    )
    return jobs


def test_eval_sharding_parity_and_telemetry(benchmark, results_dir):
    samples = max(2, bench_samples() // 2)
    jobs = _grid_jobs(samples)

    serial_engine = ExperimentEngine(workers=1)
    serial_start = time.perf_counter()
    serial = serial_engine.run(list(jobs.values()))
    serial_wall = time.perf_counter() - serial_start

    sharded_engine = ExperimentEngine(
        workers=SHARD_WORKERS, eval_shards=1
    )

    def sharded_sweep():
        return sharded_engine.run(list(jobs.values()))

    cold_start = time.perf_counter()
    sharded = benchmark.pedantic(sharded_sweep, rounds=1, iterations=1)
    cold_wall = time.perf_counter() - cold_start

    # The tentpole guarantee: sharded == serial, bit for bit, on every
    # cell of the grid (focus, dense baseline, and the INT8 arm).
    for key, job in jobs.items():
        assert sharded[job] == serial[job], key
    shards_executed = sharded_engine.stats.executed_by_kind.get(
        EVAL_SHARD_KIND, 0
    )
    assert shards_executed == len(jobs) * samples

    # Prefix reuse: doubling every cell's sample count on the same
    # cache executes only the new suffix spans.
    grown_jobs = _grid_jobs(samples * 2)
    cache = sharded_engine.cache
    hits_before = cache.stats.hits_by_kind.get(EVAL_SHARD_KIND, 0)
    grown_engine = ExperimentEngine(
        workers=SHARD_WORKERS, eval_shards=1, cache=cache
    )
    grown_start = time.perf_counter()
    grown = grown_engine.run(list(grown_jobs.values()))
    grown_wall = time.perf_counter() - grown_start

    suffix_executed = grown_engine.stats.executed_by_kind.get(
        EVAL_SHARD_KIND, 0
    )
    prefix_hits = (
        cache.stats.hits_by_kind.get(EVAL_SHARD_KIND, 0) - hits_before
    )
    assert suffix_executed == len(jobs) * samples
    assert prefix_hits == len(jobs) * samples
    for key, job in jobs.items():
        cell = grown[grown_jobs[key]]
        assert cell.correct[:samples] == serial[job].correct, key
        assert cell.sparsities[:samples] == serial[job].sparsities, key

    prefix_lookups = prefix_hits + suffix_executed
    hit_rate = cache.stats.hit_rate
    benchmark.extra_info["grid_cells"] = len(jobs)
    benchmark.extra_info["shards_executed"] = shards_executed
    benchmark.extra_info["cache_hit_rate"] = hit_rate

    payload = {
        "samples": samples,
        "grid_cells": len(jobs),
        "workers": SHARD_WORKERS,
        "serial_wall_s": round(serial_wall, 4),
        "sharded_cold_wall_s": round(cold_wall, 4),
        "grown_wall_s": round(grown_wall, 4),
        "shards_executed": shards_executed,
        "cache_hit_rate": round(hit_rate, 4),
        "cache": cache.stats.as_dict(),
        "prefix_reuse": {
            "grown_samples": samples * 2,
            "suffix_shards_executed": suffix_executed,
            "prefix_span_hits": prefix_hits,
            "hit_rate": round(prefix_hits / prefix_lookups, 4),
        },
    }
    (results_dir / "BENCH_eval.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    serial_engine.close()
    sharded_engine.close()
    grown_engine.close()

