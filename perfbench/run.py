#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-serial --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
of ``--seconds`` untraced and half with span hooks installed, and
prints the per-layer metrics plus the tracing overhead (traced minus
untraced end-to-end numbers).  The last line of standard output is the
result object; the lines before it record the host class, sample
counts and the raw wall-clock figures.  Latencies, throughput and
set-up time are scaled to reference host speed (``hostspeed.py``).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import host  # noqa: E402
import hostspeed  # noqa: E402
import servemix  # noqa: E402
import spans as spanlib  # noqa: E402
import sweep  # noqa: E402
from stats import median, percentile, supported  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("miss_latency_p50_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("workloads.synth_ms", "ms"),
    ("workloads.samples_made", "count"),
    ("workloads.distinct_share", "ratio"),
    ("model.build_ms", "ms"),
    ("model.forward_ms", "ms"),
    ("model.forward_ms.dense", "ms"),
    ("model.forward_ms.focus", "ms"),
    ("model.host_speedup", "x"),
    ("model.mac_ratio", "x"),
    ("core.gather_ms", "ms"),
    ("core.match_ms", "ms"),
    ("core.sec_ms", "ms"),
    ("core.gather_calls", "count"),
    ("core.unique_share", "ratio"),
    ("accel.simulate_ms", "ms"),
    ("accel.simulate_calls", "count"),
    ("accel.focus_speedup", "x"),
    ("accel.focus_energy_ratio", "x"),
    ("eval.job_ms", "ms"),
    ("eval.assemble_ms", "ms"),
    ("eval.format_ms", "ms"),
    ("engine.run_self_ms", "ms"),
    ("engine.cache_get_ms", "ms"),
    ("engine.cache_put_ms", "ms"),
    ("engine.disk_hits", "count"),
    ("engine.memory_hits", "count"),
    ("engine.executed", "count"),
    ("engine.job_ms_p50", "ms"),
    ("engine.worker_busy_share", "ratio"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.first_event_ms_p50", "ms"),
    ("serve.events_per_run", "count"),
    ("serve.cpu_ms_per_run", "ms"),
    ("store.bytes_per_run", "B"),
    ("trace.overhead.miss_latency_p50_ms", "ms"),
    ("trace.overhead.hit_latency_p50_ms", "ms"),
    ("trace.overhead.runs_per_s", "1/s"),
)

OVERHEAD_OF = ("miss_latency_p50_ms", "hit_latency_p50_ms", "runs_per_s")


class Result:
    """What one workload run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.values: dict[str, float] = {}
        self.info: dict[str, object] = {}

    def wrong(self, why: str) -> None:
        print(f"check failed: {why}", file=sys.stderr)
        self.correct = False


def latency_values(miss_s, hit_s, runs_per_s: float) -> dict:
    """The latency and throughput metrics from the per-op seconds of
    the successful operations; a class without one fails the run."""
    if not miss_s or not hit_s:
        raise RuntimeError(f"{len(miss_s)} misses and {len(hit_s)} hits "
                           "succeeded; both latency classes need samples")
    return {
        "miss_latency_p50_ms": median(miss_s) * 1e3,
        "hit_latency_p50_ms": median(hit_s) * 1e3,
        "runs_per_s": runs_per_s,
    }


def counts_info(miss_s, hit_s) -> dict:
    """Sample counts, and the tails (not gate metrics) that have ten
    samples beyond them."""
    info = {"miss_samples": len(miss_s), "hit_samples": len(hit_s)}
    for name, sample, q in (("hit_latency_p90_ms", hit_s, 90),
                            ("hit_latency_p99_ms", hit_s, 99),
                            ("miss_latency_p90_ms", miss_s, 90)):
        if supported(len(sample), q):
            info[name] = percentile(sample, q) * 1e3
    return info


def speed_info(speed: hostspeed.HostSpeed, wall: dict) -> dict:
    """The raw wall-clock metrics and the median kernel time, so a
    reader can see how far the host was from reference speed."""
    kernel_ms = median([row[2] for row in speed.rows]) * 1e3
    return {"kernel_ms_p50": kernel_ms, "wall": wall}


def setup_value(spans, speed: hostspeed.HostSpeed) -> float:
    """Median set-up seconds at reference speed."""
    return median([speed.normalize(seconds, start)
                   for start, seconds in spans])


def span_layers(summary: dict, ops: int) -> dict[str, float]:
    """Per-layer values derived from spans, per operation."""

    def entry(name: str) -> dict:
        return summary.get(name, {"calls": 0, "self_ms": 0.0, "attrs": []})

    synth = entry("workloads.synth")["attrs"]
    made = sum(a["stop"] - a["start"] for a in synth)
    distinct = {(a["rid"], *map(str, a["key"]), i)
                for a in synth for i in range(a["start"], a["stop"])}
    forwards = entry("model.forward")["attrs"]

    def by_plugin(plugin: str, key: str) -> float:
        return sum(a[key] for a in forwards if a["plugin"] == plugin)

    dense_ms, focus_ms = by_plugin("DensePlugin", "ms"), by_plugin(
        "FocusPlugin", "ms")
    dense_macs, focus_macs = by_plugin("DensePlugin", "macs"), by_plugin(
        "FocusPlugin", "macs")
    values = {
        "workloads.synth_ms": entry("workloads.synth")["self_ms"] / ops,
        "workloads.samples_made": made / ops,
        "workloads.distinct_share": len(distinct) / made if made else 0.0,
        "model.forward_ms": entry("model.forward")["self_ms"] / ops,
        "model.forward_ms.dense": dense_ms / ops,
        "model.forward_ms.focus": focus_ms / ops,
        "model.host_speedup": dense_ms / focus_ms if focus_ms else 0.0,
        "model.mac_ratio": dense_macs / focus_macs if focus_macs else 0.0,
        "core.gather_calls": entry("core.gather")["calls"] / ops,
        "accel.simulate_calls": entry("accel.simulate")["calls"] / ops,
    }
    for metric, span in (
        ("core.gather_ms", "core.gather"), ("core.match_ms", "core.match"),
        ("core.sec_ms", "core.sec"), ("accel.simulate_ms", "accel.simulate"),
        ("eval.job_ms", "eval.job"), ("eval.assemble_ms", "eval.assemble"),
        ("eval.format_ms", "eval.format"),
        ("engine.run_self_ms", "engine.run"),
        ("engine.cache_get_ms", "engine.cache_get"),
        ("engine.cache_put_ms", "engine.cache_put"),
    ):
        values[metric] = entry(span)["self_ms"] / ops
    return values


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def span_seconds(spans, speed: hostspeed.HostSpeed | None) -> list[float]:
    """Wall seconds of sweep spans, at reference speed unless
    ``speed`` is ``None``."""
    if speed is None:
        return [seconds for _, seconds, _ in spans]
    return [speed.normalize(seconds, start, cpus)
            for start, seconds, cpus in spans]


def pass_rates(phase, cold: list[float], warm: list[float]) -> list[float]:
    """Operations per second of each pass: a cold regeneration and the
    warm re-runs after it, over the seconds spent in them."""
    starts = [start for start, _, _ in phase.cold]
    busy, ops = list(cold), [1] * len(cold)
    for (start, _, _), seconds in zip(phase.warm, warm):
        index = bisect.bisect_right(starts, start) - 1
        busy[index] += seconds
        ops[index] += 1
    return [n / s for n, s in zip(ops, busy)]


def sweep_values(phase, speed: hostspeed.HostSpeed | None) -> dict:
    """Sweep metrics; ``runs_per_s`` is the median over passes of
    operations per second of the time spent in them."""
    cold = span_seconds(phase.cold, speed)
    warm = span_seconds(phase.warm, speed)
    if not cold:
        raise RuntimeError("no cold pass succeeded")
    return latency_values(cold, warm, median(pass_rates(phase, cold, warm)))


def check_sweep(result: Result, phase, reference: str,
                min_passes: int = sweep.MIN_PASSES) -> None:
    result.attempted += phase.attempted
    result.failed += phase.failed
    if phase.failed:
        result.wrong(f"{phase.failed} operations failed")
    if len(phase.cold) < min_passes or not phase.warm:
        result.wrong(f"{len(phase.cold)} cold passes and {len(phase.warm)} "
                     f"warm re-runs; the run needs {min_passes} passes")
    if len(phase.digests) != 1:
        result.wrong(f"{len(phase.digests)} distinct report digests")
    if phase.digests and phase.digests != {reference}:
        result.wrong("reports differ from the serial warm-up pass")
    if len(phase.focus) != 1 or len(phase.unique_share) != 1:
        result.wrong("simulated ratios or unique share did not repeat")


def run_sweep(args, tmp: str, env: dict, workers: int) -> Result:
    result = Result()
    with hostspeed.Sampler(os.path.join(tmp, "host-speed")) as sampler:
        build_ms, first_pass_s, reference = sweep.prepare(
            workers, args.seed, tmp)
        if not args.trace:
            phase = sweep.run_phase(workers, args.seed, args.seconds, tmp)
            setup = sweep.setup_spans(env)
        else:
            half = args.seconds / 2
            plain = sweep.run_phase(workers, args.seed, half, tmp,
                                    min_passes=sweep.TRACED_MIN_PASSES)
            recorder = spanlib.SpanRecorder()
            traced = sweep.run_phase(workers, args.seed, half, tmp,
                                     recorder=recorder,
                                     min_passes=sweep.TRACED_MIN_PASSES)
    speed = sampler.speed
    if not args.trace:
        check_sweep(result, phase, reference)
        result.values = sweep_values(phase, speed)
        result.values["peak_rss_mb"] = sweep.rss_mb()
        result.values["setup_s"] = setup_value(setup, speed)
        result.info = counts_info(span_seconds(phase.cold, speed),
                                  span_seconds(phase.warm, speed))
        result.info["first_pass_s"] = first_pass_s
        result.info.update(speed_info(speed, sweep_values(phase, None)))
        return result
    for phase in (plain, traced):
        check_sweep(result, phase, reference, sweep.TRACED_MIN_PASSES)
    if (plain.digests, plain.focus, plain.unique_share) != (
            traced.digests, traced.focus, traced.unique_share):
        result.wrong("traced outputs differ from untraced outputs")
    ops = max(1, traced.ops)
    values = span_layers(spanlib.summarize(recorder.records()), ops)
    speedup, energy = next(iter(traced.focus), (0.0, 0.0))
    values.update({
        "model.build_ms": build_ms,
        "core.unique_share": next(iter(traced.unique_share), 0.0),
        "accel.focus_speedup": speedup,
        "accel.focus_energy_ratio": energy,
        "engine.disk_hits": traced.disk_hits / ops,
        "engine.memory_hits": traced.memory_hits / ops,
        "engine.executed": traced.executed / ops,
        "engine.job_ms_p50": median(traced.job_ms) if traced.job_ms else 0.0,
        "engine.worker_busy_share": (
            median(traced.busy_share) if traced.busy_share else 0.0),
    })
    values.update(overhead(sweep_values(plain, speed),
                           sweep_values(traced, speed)))
    result.values = values
    result.info = {"traced_ops": ops, "spans": len(recorder.spans)}
    return result


def overhead(plain: dict, traced: dict) -> dict[str, float]:
    return {f"trace.overhead.{name}": traced[name] - plain[name]
            for name in OVERHEAD_OF}


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

def serve_argv(spans_out: str | None) -> list[str]:
    flags = ["--port", "0"]
    if spans_out is None:
        return [sys.executable, "-m", "repro.cli", "serve", *flags]
    return [sys.executable, os.path.join(HERE, "serve_traced.py"),
            spans_out, *flags]


def serve_latencies(phase, speed: hostspeed.HostSpeed | None,
                    ) -> tuple[list[float], list[float]]:
    """Seconds from POST to terminal event of the successful misses
    and hits (run by :func:`servemix.check` first), at reference speed
    unless ``speed`` is ``None``."""
    out: dict[str, list[float]] = {"miss": [], "hit": []}
    for o in phase.outcomes:
        if not o.error:
            seconds = o.latency_ms / 1e3
            out[o.kind].append(seconds if speed is None
                               else speed.normalize(seconds, o.start))
    return out["miss"], out["hit"]


def serve_values(phase, speed: hostspeed.HostSpeed | None) -> dict:
    """Serving metrics; ``runs_per_s`` is successful runs per second of
    the closed loop."""
    miss, hit = serve_latencies(phase, speed)
    wall = phase.wall_s if speed is None else speed.normalize(
        phase.wall_s, phase.window[0])
    return latency_values(miss, hit, (len(miss) + len(hit)) / wall)


def check_serve(result: Result, phase, reference, seed: int) -> None:
    failed, wrong = servemix.check(phase, reference)
    result.attempted += len(phase.outcomes)
    result.failed += failed
    if failed:
        result.wrong(f"{failed} requests failed, {wrong} of them "
                     "with a report that differs from the reference")
    miss, hit = serve_latencies(phase, None)
    if not servemix.enough(len(hit), len(miss)):
        result.wrong(f"{len(hit)} hits and {len(miss)} misses are "
                     "too few for the latencies")
    offline = reference.unique_share(servemix.SpecStream(seed).pool)
    if phase.pool_unique_share != offline:
        result.wrong("the server's unique share differs from the "
                     "offline reference")


def run_serve(args, tmp: str, env: dict) -> Result:
    result = Result()
    reference = servemix.Reference(args.seed)
    try:
        phases = []
        recorder_path = os.path.join(tmp, "server-spans.json")
        plan = [(args.seconds, None)] if not args.trace else [
            (args.seconds / 2, None), (args.seconds / 2, recorder_path)]
        with hostspeed.Sampler(os.path.join(tmp, "host-speed")) as sampler:
            for seconds, spans_out in plan:
                phases.append(servemix.run_phase(
                    serve_argv(spans_out), tempfile.mkdtemp(dir=tmp), env,
                    args.seed, seconds, reference))
            if not args.trace:
                setup = servemix.setup_spans(serve_argv(None), tmp, env,
                                             phases[0].ready)
        speed = sampler.speed
        for phase in phases:
            check_serve(result, phase, reference, args.seed)
        if not args.trace:
            phase = phases[0]
            result.values = serve_values(phase, speed)
            result.values["peak_rss_mb"] = phase.peak_rss_mb
            result.values["setup_s"] = setup_value(setup, speed)
            result.info = counts_info(*serve_latencies(phase, speed))
            result.info.update(speed_info(speed, serve_values(phase, None)))
            return result
        plain, traced = phases
        if plain.pool_unique_share != traced.pool_unique_share:
            result.wrong("unique share differs between traced and untraced")
        result.values = serve_layers(traced, recorder_path)
        result.values.update(overhead(serve_values(plain, speed),
                                      serve_values(traced, speed)))
        result.info = {"traced_ops": len(traced.outcomes)}
        return result
    finally:
        reference.close()


def serve_layers(phase, spans_path: str) -> dict[str, float]:
    records = spanlib.load_spans(spans_path)
    builds = [r for r in records if r[0] == "model.build"]
    ops = max(1, len(phase.outcomes))
    values = span_layers(spanlib.summarize(records, phase.window), ops)
    outcomes = phase.outcomes
    job_ms = [ms for o in outcomes for ms in o.job_ms]
    values.update({
        "model.build_ms": sum((r[2] - r[1]) * 1e3 for r in builds),
        "core.unique_share": phase.pool_unique_share,
        "accel.focus_speedup": 0.0,
        "accel.focus_energy_ratio": 0.0,
        "engine.disk_hits": sum(o.disk_hits for o in outcomes) / ops,
        "engine.memory_hits": sum(o.memory_hits for o in outcomes) / ops,
        "engine.executed": sum(o.executed for o in outcomes) / ops,
        "engine.job_ms_p50": median(job_ms) if job_ms else 0.0,
        "engine.worker_busy_share": sum(job_ms) / 1e3 / phase.wall_s,
        "serve.admit_ms_p50": median([o.admit_ms for o in outcomes] or [0]),
        "serve.first_event_ms_p50": median(
            [o.first_event_ms for o in outcomes] or [0]),
        "serve.events_per_run": sum(o.events for o in outcomes) / ops,
        "serve.cpu_ms_per_run": phase.cpu_s * 1e3 / ops,
        "store.bytes_per_run": phase.store_bytes / ops,
    })
    return values


# ---------------------------------------------------------------------------

# ``sweep-parallel`` is not in BENCHMARK.json (see README): it is kept so
# the spread recorded there can be reproduced, and so the thread-budget
# change can add it back.
WORKLOADS = {
    "sweep-serial": lambda a, t, e: run_sweep(a, t, e, workers=1),
    "sweep-parallel": lambda a, t, e: run_sweep(a, t, e,
                                                workers=host.nproc()),
    "serve-mix": run_serve,
}


def metrics(result: Result, trace: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit in names:
        value = result.values.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    signal.signal(signal.SIGTERM, _terminate)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        print(json.dumps({"host": host.host_class()}), flush=True)
        result = WORKLOADS[args.workload](args, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed_share = result.failed / max(1, result.attempted)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "failed_share": failed_share, **result.info}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics(result, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
