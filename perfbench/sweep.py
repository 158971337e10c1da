"""Sweep workloads: the README's ``table2 fig9`` regeneration.

One *pass* is one cold regeneration on an empty on-disk cache
followed by :data:`WARM_PER_PASS` warm re-runs, each in a fresh engine
(fresh memory tier) on the now-filled cache directory.  Every pass
uses the same grid and seed, so every report of a run must have the
same sha256.

Every timed operation is kept as a :data:`Span` -- start, wall
seconds, and the CPUs its thread ran on at start and end -- so that
``run.py`` can scale it to reference host speed (``hostspeed.py``).
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import host
import spans as spanlib
import stats

NAMES = ("table2", "fig9")
SAMPLES = 1
WARM_PER_PASS = 25
MIN_PASSES = 5
TRACED_MIN_PASSES = 2
SETUP_PROBES = 9

SETUP_CODE = """
import repro.eval.experiments, repro.eval.reporting
from repro.eval.runner import ModelCache
from repro.model.zoo import VIDEO_MODELS
for name in VIDEO_MODELS:
    ModelCache.get(name)
"""


# (start, wall seconds, CPUs the timing thread ran on) of one operation
Span = tuple[float, float, frozenset]


def setup_spans(env: dict) -> list[tuple[float, float]]:
    """``(start, seconds)`` of fresh interpreters importing the program
    and constructing the sweep's models."""
    spans = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       check=True, timeout=120)
        spans.append((start, time.perf_counter() - start))
    return spans


@dataclass
class Phase:
    """Measurements of one (untraced or traced) stretch of passes."""

    cold: list[Span] = field(default_factory=list)
    warm: list[Span] = field(default_factory=list)
    job_ms: list[float] = field(default_factory=list)
    busy_share: list[float] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)
    focus: set[tuple[float, float]] = field(default_factory=set)
    unique_share: set[float] = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    disk_hits: int = 0
    memory_hits: int = 0
    executed: int = 0

    @property
    def ops(self) -> int:
        return len(self.cold) + len(self.warm)


class JobClock:
    """``progress`` callback timing each job from ``started`` to
    ``completed`` with the benchmark's own clock."""

    def __init__(self) -> None:
        self.started: dict[str, float] = {}
        self.ms: list[float] = []

    def __call__(self, event) -> None:
        now = time.perf_counter()
        if event.action == "started":
            self.started[event.job.job_id] = now
        elif event.action == "completed":
            begun = self.started.pop(event.job.job_id, None)
            if begun is not None:
                self.ms.append((now - begun) * 1e3)


def regenerate(workers: int, cache_dir: str, seed: int, progress=None):
    """One ``table2 fig9`` run through the public API, formatted."""
    from repro.engine import ExperimentEngine, ResultCache, registry

    engine = ExperimentEngine(workers=workers,
                              cache=ResultCache(cache_dir=cache_dir))
    try:
        results = registry.run_experiments(
            NAMES, engine=engine, progress=progress,
            num_samples=SAMPLES, seed=seed,
        )
        texts = {name: registry.format_result(name, results[name])
                 for name in NAMES}
    finally:
        engine.close()
    return engine, results, texts


def digest(texts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(texts):
        h.update(name.encode() + b"\0" + texts[name].encode() + b"\0")
    return h.hexdigest()


def unique_share(cache_dir: str, seed: int) -> float:
    """Share of gathered input vectors that SIC kept unique, from the
    focus cells' GEMM traces (read back from the run's disk cache)."""
    from repro.engine import ExperimentEngine, ResultCache, get_spec

    jobs = [job for name in NAMES
            for job in get_spec(name).plan(num_samples=SAMPLES,
                                           seed=seed).jobs
            if job.method == "focus"]
    with ExperimentEngine(cache=ResultCache(cache_dir=cache_dir)) as engine:
        return stats.unique_share(engine.run(jobs).values())


def run_phase(workers: int, seed: int, seconds: float, tmp: str,
              recorder: spanlib.SpanRecorder | None = None,
              min_passes: int = MIN_PASSES) -> Phase:
    """Whole passes for about ``seconds`` (at least one): a pass starts
    only while the time left exceeds the previous pass's duration.
    Passes go on past that, for up to ``seconds`` more, until
    ``min_passes`` cold passes succeeded."""
    phase = Phase()
    begun = time.perf_counter()
    deadline = begun + seconds
    last = 0.0
    op = 0

    def more() -> bool:
        now = time.perf_counter()
        if not phase.attempted or now + last <= deadline:
            return True
        short = len(phase.cold) < min_passes
        return short and now < deadline + seconds

    while more():
        cache_dir = tempfile.mkdtemp(dir=tmp)
        start = time.perf_counter()
        try:
            op = _one_pass(phase, workers, seed, cache_dir, recorder, op)
        finally:
            last = time.perf_counter() - start
        try:
            phase.unique_share.add(unique_share(cache_dir, seed))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return phase


@contextmanager
def _traced(recorder: spanlib.SpanRecorder | None, op: int):
    """Hooks installed and request id ``op`` set, when tracing."""
    if recorder is None:
        yield
        return
    with spanlib.installed(recorder), recorder.request(op):
        yield


def _one_pass(phase: Phase, workers: int, seed: int, cache_dir: str,
              recorder, op: int) -> int:
    clock = JobClock()
    phase.attempted += 1
    try:
        with _traced(recorder, op):
            cpu = host.current_cpu()
            start = time.perf_counter()
            engine, results, texts = regenerate(workers, cache_dir, seed,
                                                progress=clock)
            cold = time.perf_counter() - start
    except Exception as exc:  # a failed op is counted, not fatal
        print(f"cold pass failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        phase.failed += 1
        return op + 1
    phase.cold.append((start, cold, frozenset((cpu, host.current_cpu()))))
    phase.job_ms.extend(clock.ms)
    phase.busy_share.append(sum(clock.ms) / 1e3 / (workers * cold))
    _count(phase, engine)
    phase.digests.add(digest(texts))
    fig9 = results["fig9"]
    phase.focus.add((fig9.geomean_speedup["focus"],
                     1.0 / fig9.geomean_energy["focus"]))
    op += 1
    for _ in range(WARM_PER_PASS):
        phase.attempted += 1
        try:
            with _traced(recorder, op):
                cpu = host.current_cpu()
                start = time.perf_counter()
                engine, _, texts = regenerate(workers, cache_dir, seed)
                warm = time.perf_counter() - start
        except Exception as exc:
            print(f"warm re-run failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            phase.failed += 1
            op += 1
            continue
        phase.warm.append((start, warm,
                           frozenset((cpu, host.current_cpu()))))
        op += 1
        _count(phase, engine)
        if engine.stats.executed:
            print(f"warm re-run executed {engine.stats.executed} jobs",
                  file=sys.stderr)
            phase.failed += 1
        phase.digests.add(digest(texts))
    return op


def _count(phase: Phase, engine) -> None:
    phase.executed += engine.stats.executed
    phase.disk_hits += engine.cache.stats.disk_hits
    phase.memory_hits += engine.cache.stats.memory_hits


def prepare(workers: int, seed: int, tmp: str) -> tuple[float, float, str]:
    """Untimed preparation in this process: construct the sweep's
    models, then run one serial cold pass so lazily filled per-process
    state is warm before timing starts.

    Returns the model construction ms, the warm-up pass seconds, and
    that pass's report digest (the serial reference every later pass,
    serial or parallel, must match).
    """
    from repro.eval.runner import ModelCache
    from repro.model.zoo import VIDEO_MODELS

    start = time.perf_counter()
    for name in VIDEO_MODELS:
        ModelCache.get(name)
    build_ms = (time.perf_counter() - start) * 1e3
    cache_dir = tempfile.mkdtemp(dir=tmp)
    try:
        start = time.perf_counter()
        texts = regenerate(1, cache_dir, seed)[2]
        return build_ms, time.perf_counter() - start, digest(texts)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def rss_mb() -> float:
    return max(host.peak_rss_mb(), host.children_peak_rss_mb())
