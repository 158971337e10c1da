"""``serve-mix``: a closed loop of clients against a live ``repro serve``.

Each request POSTs one ``scenario`` run and reads its JSON-lines event
stream to the terminal event.  A seeded :class:`SpecStream` makes
:data:`HITS_PER_BLOCK` of every :data:`BLOCK` requests repeats of a
pool of specs the server has already served (hits) and the rest fresh
``mtconv`` specs (misses).  The client is the benchmark's own (stdlib
``http.client``, one connection per client thread at a time), so
changes to the program's load generator cannot change the benchmark.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import host
import stats

FAMILY = "mtconv"
POOL = 8
SAMPLES = 1

# The request mix.  ``repro serve`` has no recorded traffic to copy a
# hit rate from, so the mix follows one stated criterion: hits and
# misses take equal shares of the loop's time, so that ``runs_per_s``
# moves by the same amount for the same relative speed-up of either
# path.  With h and m the closed-loop seconds per hit and per miss
# (from hits-only and misses-only loops), the miss share is
# h / (h + m).  ``python3 perfbench/mixcost.py`` measures both; on the
# seed code (2-core x86_64, 2 clients) h = 2.1 ms and m = 377 ms, a
# miss share of 1/179, so one request in every block of 180 is a miss.
BLOCK = 180
HITS_PER_BLOCK = 179

# Samples a phase needs before its closed loop may stop: ten hits
# beyond the hit p90 (printed with the result), and at least
# MIN_MISSES misses for the miss median.  A phase that has not reached
# them at its deadline keeps going for up to as long again; see
# :func:`closed_loop`.
HIT_TAIL_Q = 90
MIN_MISSES = 20
SETUP_SPAWNS = 9
TERMINAL = ("run-done", "run-partial", "run-failed", "run-cancelled")
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 120.0


class SpecStream:
    """Deterministic request sequence for one workload seed.

    Requests come in blocks of ``block`` (:data:`BLOCK`), each a seeded
    shuffle of ``hits`` (:data:`HITS_PER_BLOCK`) hits and the rest
    misses, so every window of the run sees the same mix.  A hit
    repeats a spec from :attr:`pool`; a miss uses a spec no earlier
    request used.  Pool and miss scenario seeds come from disjoint
    ranges, and misses all come from one family at ``samples=1`` so
    their latencies form one mode.
    """

    def __init__(self, seed: int, pool: int = POOL, block: int = BLOCK,
                 hits: int = HITS_PER_BLOCK) -> None:
        self._rng = random.Random(seed)
        self._mix = ["hit"] * hits + ["miss"] * (block - hits)
        self.pool = [f"{FAMILY}:seed={s}"
                     for s in self._rng.sample(range(1, 1 << 20), pool)]
        self._next_miss = (1 << 21) + self._rng.randrange(1 << 20)
        self._block: list[str] = []
        self._lock = threading.Lock()
        self._index = 0

    def next(self) -> tuple[int, str, str]:
        """``(index, kind, spec)`` of the next request."""
        with self._lock:
            if not self._block:
                self._block = list(self._mix)
                self._rng.shuffle(self._block)
            kind = self._block.pop()
            index = self._index
            self._index += 1
            if kind == "hit":
                return index, kind, self.pool[
                    self._rng.randrange(len(self.pool))]
            self._next_miss += 1
            return index, kind, f"{FAMILY}:seed={self._next_miss}"


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------

class Server:
    """A ``repro serve`` subprocess on an ephemeral port.

    :meth:`stop` escalates from SIGINT (graceful shutdown) to
    terminate to kill, and always reaps the process.
    """

    def __init__(self, argv: list[str], cwd: str, env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            preexec_fn=host.die_with_parent,
        )
        self.log: list[str] = []
        self._ready: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            url = self._ready.get(timeout=READY_TIMEOUT_S)
        except queue.Empty:
            url = None
        if url is None:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.log))
        self.port = int(url.rsplit(":", 1)[1].split()[0].rstrip("/"))
        self.pid = self.proc.pid

    def _drain(self) -> None:
        marker = "listening on http://"
        for line in self.proc.stderr:
            self.log.append(line)
            if marker in line:
                self._ready.put(line.split(marker, 1)[1])
        self._ready.put(None)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def healthz(port: int) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# One request
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    index: int
    kind: str
    spec: str
    start: float
    latency_ms: float = 0.0
    admit_ms: float = 0.0
    first_event_ms: float = 0.0
    events: int = 0
    terminal: str = ""
    sha256: str = ""
    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    job_ms: list[float] = field(default_factory=list)
    error: str = ""


def request(port: int, index: int, kind: str, spec: str,
            seed: int) -> Outcome:
    """POST one scenario run and follow its event stream to the end."""
    out = Outcome(index=index, kind=kind, spec=spec,
                  start=time.perf_counter())
    body = json.dumps({"experiments": ["scenario"], "scenario": spec,
                       "samples": SAMPLES, "seed": seed})
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", "/runs", body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        out.admit_ms = (time.perf_counter() - out.start) * 1e3
        if response.status != 201:
            out.error = f"POST /runs answered {response.status}"
            return out
        run_id = json.loads(payload)["run_id"]
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", f"/runs/{run_id}/events?format=jsonl")
            response = conn.getresponse()
            if response.status != 200:
                out.error = f"GET events answered {response.status}"
                return out
            _follow(response, out)
        finally:
            conn.close()
    except (OSError, http.client.HTTPException, ValueError,
            KeyError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def _follow(response, out: Outcome) -> None:
    started: dict[str, float] = {}
    while True:
        line = response.readline()
        now = time.perf_counter()
        if not line:
            out.error = "event stream ended before a terminal event"
            return
        if not line.strip():
            continue
        if not out.events:
            out.first_event_ms = (now - out.start) * 1e3
        out.events += 1
        event = json.loads(line)
        name = event.get("event")
        if name == "progress":
            job = event["job"]["job_id"]
            if event["action"] == "started":
                started[job] = now
            elif event["action"] == "completed":
                out.executed += 1
                if job in started:
                    out.job_ms.append((now - started.pop(job)) * 1e3)
        elif name in TERMINAL:
            out.latency_ms = (now - out.start) * 1e3
            out.terminal = name
            reports = event.get("reports") or {}
            out.sha256 = reports.get("scenario", {}).get("sha256", "")
            tiers = event.get("cache") or {}
            out.memory_hits = int(tiers.get("memory", 0))
            out.disk_hits = int(tiers.get("disk", 0))
            return


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

def enough(hits: int, misses: int) -> bool:
    """Whether a phase has the samples its latencies need."""
    return stats.supported(hits, HIT_TAIL_Q) and misses >= MIN_MISSES


def closed_loop(port: int, stream: SpecStream, seed: int, clients: int,
                seconds: float, need=enough) -> tuple[list[Outcome], float]:
    """``clients`` threads, zero think time, for ``seconds``, and then
    on until ``need(hits, misses)`` holds for the successful runs so
    far or ``seconds`` more passed.

    Requests started before the end run to completion.  Returns the
    outcomes and the wall time until the last one finished.
    """
    outcomes: list[Outcome] = []
    done = {"hit": 0, "miss": 0}
    lock = threading.Lock()
    begun = time.perf_counter()
    deadline = begun + seconds

    def more() -> bool:
        now = time.perf_counter()
        if now < deadline:
            return True
        with lock:
            short = not need(done["hit"], done["miss"])
        return short and now < deadline + seconds

    def client() -> None:
        while more():
            index, kind, spec = stream.next()
            outcome = request(port, index, kind, spec, seed)
            with lock:
                outcomes.append(outcome)
                if not outcome.error and outcome.terminal == "run-done":
                    done[kind] += 1

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - begun


# ---------------------------------------------------------------------------
# Offline reference
# ---------------------------------------------------------------------------

class Reference:
    """Report digests of an offline run of each spec, in this process."""

    def __init__(self, seed: int) -> None:
        from repro.engine import ExperimentEngine, ResultCache

        self.seed = seed
        self.engine = ExperimentEngine(workers=1, cache=ResultCache())
        self.digests: dict[str, str] = {}

    def digest(self, spec: str) -> str:
        if spec not in self.digests:
            from repro.engine import registry

            result = registry.run_experiments(
                ["scenario"], engine=self.engine, scenario=spec,
                num_samples=SAMPLES, seed=self.seed,
            )["scenario"]
            text = registry.format_result("scenario", result)
            self.digests[spec] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
        return self.digests[spec]

    def focus_jobs(self, specs: list[str]) -> list:
        """The focus-method jobs of the ``scenario`` runs of ``specs``."""
        from repro.engine import get_spec

        return [job for spec in specs
                for job in get_spec("scenario").plan(
                    scenario=spec, num_samples=SAMPLES,
                    seed=self.seed).jobs
                if job.method == "focus"]

    def unique_share(self, specs: list[str]) -> float:
        """Share of gathered input vectors SIC kept unique over the
        focus cells of ``specs`` (from their GEMM traces), offline."""
        jobs = self.focus_jobs(specs)
        return stats.unique_share(self.engine.run(jobs).values())

    def close(self) -> None:
        self.engine.close()


# ---------------------------------------------------------------------------
# One phase: spawn, warm the pool, measure, stop
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    outcomes: list[Outcome]
    wall_s: float
    window: tuple[float, float]
    cpu_s: float
    store_bytes: int
    peak_rss_mb: float
    ready: tuple[float, float]
    pool_unique_share: float = 0.0


def served_unique_share(port: int, jobs: list) -> float:
    """The unique share of ``jobs`` as the server computed them.

    The jobs go to the server's fleet endpoint ``POST /jobs``, which
    answers from the results the server's engine already holds (it
    executes only what its cache lacks), and each returned payload is
    checked against its digest before it is read.
    """
    from repro.remote import protocol

    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/jobs", protocol.encode_jobs(jobs),
                     {"Content-Type": "application/octet-stream"})
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"POST /jobs answered {response.status}")
    entries = protocol.decode_job_results(body)
    cells = []
    for job in jobs:
        entry = entries[job.job_id]
        if entry[0] != "ok" or protocol.payload_digest(entry[2]) != entry[1]:
            raise RuntimeError(f"POST /jobs: bad entry for {job.job_id}")
        cells.append(protocol.decode_payload(entry[2]))
    return stats.unique_share(cells)


def store_bytes(workdir: str) -> int:
    return sum(os.path.getsize(os.path.join(workdir, name))
               for name in os.listdir(workdir)
               if name.startswith("repro-runs.sqlite"))


def run_phase(argv: list[str], workdir: str, env: dict, seed: int,
              seconds: float, reference: Reference) -> Phase:
    stream = SpecStream(seed)
    with Server(argv, workdir, env) as server:
        healthz(server.port)
        ready = (server.started, time.perf_counter() - server.started)
        for spec in stream.pool:
            warm = request(server.port, -1, "pool", spec, seed)
            if warm.error or warm.terminal != "run-done" or (
                    warm.sha256 != reference.digest(spec)):
                raise RuntimeError(
                    f"warm-up of {spec} failed: {warm.error or warm.terminal}")
        cpu_before = host.cpu_seconds(server.pid)
        bytes_before = store_bytes(workdir)
        window_start = time.perf_counter()
        outcomes, wall_s = closed_loop(server.port, stream, seed,
                                       host.nproc(), seconds)
        cpu_s = host.cpu_seconds(server.pid) - cpu_before
        grown = store_bytes(workdir) - bytes_before
        rss = host.peak_rss_mb(server.pid)
        unique = served_unique_share(server.port,
                                     reference.focus_jobs(stream.pool))
    return Phase(outcomes=outcomes, wall_s=wall_s,
                 window=(window_start, window_start + wall_s), cpu_s=cpu_s,
                 store_bytes=grown, peak_rss_mb=rss, ready=ready,
                 pool_unique_share=unique)


def check(phase: Phase, reference: Reference) -> tuple[int, int]:
    """``(failed, wrong)`` requests: a failure is an error, a terminal
    event other than ``run-done``, or a wrong report; a report is wrong
    when its digest differs from the offline reference."""
    failed = wrong = 0
    for outcome in phase.outcomes:
        if not outcome.error and outcome.terminal != "run-done":
            outcome.error = f"terminal event {outcome.terminal!r}"
        if not outcome.error and (
                outcome.sha256 != reference.digest(outcome.spec)):
            outcome.error = "report differs from the offline reference"
            wrong += 1
        if outcome.error:
            failed += 1
            print(f"request {outcome.index} ({outcome.kind} {outcome.spec})"
                  f" failed: {outcome.error}", file=sys.stderr)
    return failed, wrong


def setup_spans(argv: list[str], tmp: str, env: dict,
                first: tuple[float, float]) -> list[tuple[float, float]]:
    """``(start, seconds)`` from spawn to ready: ``first`` plus fresh
    spawns, each in its own empty working directory."""
    import tempfile

    spans = [first]
    for _ in range(SETUP_SPAWNS - 1):
        with Server(argv, tempfile.mkdtemp(dir=tmp), env) as server:
            healthz(server.port)
            spans.append((server.started,
                          time.perf_counter() - server.started))
    return spans
