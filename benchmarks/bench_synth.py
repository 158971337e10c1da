"""Workload synthesis benchmark: frame-vectorized vs per-token renderer.

The gate for the vectorized renderer: for sample 0 of every dataset
profile at each distinct zoo layout, :func:`render_video` must return
the *same bytes* as the per-token oracle kept in
``tests/test_video.py`` and be at least ``SPEEDUP_GATE`` x faster over
the whole set.  The run doubles as the telemetry emitter:
``benchmarks/results/BENCH_synth.json`` records both wall clocks, the
speedup and the host class (cores, Python, NumPy, BLAS).

The render arguments are captured from :func:`make_dataset_span`
itself, so the benchmark renders exactly the scenes, seeds and
parameters the program does.
"""

import importlib.util
import json
import os
import pathlib
import platform
import time

import numpy

from repro.model.embedding import positional_table
from repro.model.zoo import MODEL_CONFIGS
from repro.workloads import datasets
from repro.workloads.datasets import ALL_PROFILES, make_dataset_span
from repro.workloads.video import render_video

SPEEDUP_GATE = 3.0
ROUNDS = 3
"""Best-of-N timing; the minimum is robust against scheduler noise."""


def _oracle():
    path = pathlib.Path(__file__).parents[1] / "tests" / "test_video.py"
    spec = importlib.util.spec_from_file_location("_video_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._render_video_reference


def _host_class() -> dict:
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
    }


def _render_calls(monkeypatch):
    """``(label, args)`` of every render behind sample 0 of each
    profile at each distinct zoo layout."""
    layouts = {config.layout.hidden: config.layout
               for config in MODEL_CONFIGS.values()}
    calls = []

    def capture(*args):
        calls.append((label, args))
        return render_video(*args)

    monkeypatch.setattr(datasets, "render_video", capture)
    for hidden, layout in sorted(layouts.items()):
        for name in ALL_PROFILES:
            label = f"{name}@{hidden}"
            make_dataset_span(name, layout, 0, 1, seed=0)
    monkeypatch.undo()
    return calls


def _best_wall(render, calls):
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _, args in calls:
            render(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_synth_parity_and_speedup(benchmark, results_dir, monkeypatch):
    reference = _oracle()
    calls = _render_calls(monkeypatch)
    assert len(calls) == len(ALL_PROFILES) * len(
        {config.hidden for config in MODEL_CONFIGS.values()}
    )

    # First pass with no cached positional tables: what a fresh process
    # pays for its first sample of each grid shape.
    positional_table.cache_clear()
    start = time.perf_counter()
    rendered = [render_video(*args) for _, args in calls]
    first_pass = time.perf_counter() - start
    for (label, args), tokens in zip(calls, rendered):
        assert tokens.tobytes() == reference(*args).tobytes(), (
            f"{label}: vectorized render differs from the per-token oracle"
        )

    reference_wall = _best_wall(reference, calls)
    vectorized_wall = _best_wall(render_video, calls)
    speedup = reference_wall / vectorized_wall
    assert speedup >= SPEEDUP_GATE, (
        f"vectorized render speedup {speedup:.2f}x below the "
        f"{SPEEDUP_GATE}x gate"
    )

    benchmark.pedantic(
        lambda: [render_video(*args) for _, args in calls],
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup"] = round(speedup, 3)

    payload = {
        "host": _host_class(),
        "gate": {"min_speedup": SPEEDUP_GATE, "speedup": round(speedup, 3)},
        "rounds": ROUNDS,
        "renders": [label for label, _ in calls],
        "tokens": sum(args[0].num_visual_tokens for _, args in calls),
        "reference_wall_s": round(reference_wall, 5),
        "vectorized_wall_s": round(vectorized_wall, 5),
        "first_pass_s": round(first_pass, 5),
    }
    (results_dir / "BENCH_synth.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
