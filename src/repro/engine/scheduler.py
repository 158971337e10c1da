"""The experiment engine: dedupe, cache, and execute job batches.

:class:`ExperimentEngine` takes a batch of :class:`~repro.engine.jobs.
EvalJob` objects — possibly collected from *several* experiments —
collapses duplicates by key, serves what it can from the result cache,
and runs the remainder through one dispatch loop, whose executor is
either the calling thread (``workers=1``) or a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Progress events
(``cache-hit`` / ``started`` / ``completed``, over every job kind the
batch schedules: whole-cell ``eval``, per-span ``eval-shard``, sharded
``sim``, ``fig2b``, …) stream to an optional callback as jobs finish.
With ``eval_shards`` set, whole-cell ``eval`` jobs are further split
into per-sample-span shards (:mod:`repro.eval.eval_shards`) that
execute, dedupe, and cache individually and stream ``eval-shard-done``
partial results as they land.

Execution is fault tolerant (see :mod:`repro.engine.faults`): a
:class:`~repro.engine.faults.RetryPolicy` re-dispatches failed
attempts with deterministic backoff, per-job wall-clock timeouts
reclaim hung workers, and a worker crash (``BrokenProcessPool``) no
longer aborts the batch — the pool is respawned and only the in-flight
cohort is re-dispatched, one job at a time so a repeat crash indicts
exactly one job, which is then quarantined as *poisoned*.  A pool that
cannot be rebuilt leaves the loop running in-process.  In
partial-results mode (``run(..., on_error="collect")``) permanently
failed jobs map to structured :class:`~repro.engine.faults.JobFailure`
records instead of raising, and the retry lifecycle streams as
``retrying`` / ``gave-up`` / ``quarantined`` progress events.  Fleet
peers (``peers=``) take whole shares of a batch beside the loop; what
they cannot deliver joins it afterwards.

The engine is safe to drive from several threads at once — the async
serving layer (:mod:`repro.serve`) runs many concurrent
:meth:`ExperimentEngine.run` batches against one engine and one
:class:`~repro.engine.cache.ResultCache`.  Every emitted
:class:`ProgressEvent` carries an engine-wide monotonic sequence
number; per-batch callbacks are passed to :meth:`run` itself, while
:meth:`subscribe` attaches engine-wide observers that see the
interleaved stream of every batch in sequence order.

Because every job is a pure function of its key (see
:mod:`repro.engine.jobs`), parallel execution is bit-identical to
serial execution: worker count, completion order, retries, and crash
recovery influence only wall-clock time, never results.
"""

from __future__ import annotations

import itertools
import logging
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.engine.cache import MISS, Counters, ResultCache
from repro.engine.faults import (
    DEFAULT_RETRY_POLICY,
    JobFailure,
    JobTimeout,
    PeerUnreachable,
    PoisonedJob,
    RetryPolicy,
    run_job_attempt,
    shard_failure,
)
from repro.engine.jobs import EvalJob

logger = logging.getLogger("repro.engine")


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed scheduling event.

    Attributes:
        action: ``"cache-hit"``, ``"started"``, ``"completed"``,
            ``"eval-shard-done"`` (a sharded cell's span finished —
            streamed *in addition to* the span job's own
            cache-hit/completed event), ``"retrying"`` (a failed,
            timed-out, or crash-interrupted attempt is being
            re-dispatched), ``"gave-up"`` (the job's attempt budget is
            exhausted), or ``"quarantined"`` (the job repeatedly
            killed its worker and is poisoned).
        job: The job the event refers to.
        completed: Jobs finished so far (including cache hits and
            permanent failures).
        total: Schedulable units in this batch (sharded cells count
            their spans, not the merged parent).
        elapsed_s: Seconds since the batch started.
        detail: Action-specific payload; for ``eval-shard-done`` the
            running partial result of the shard's parent cell
            (``parent``, ``shards_done``, ``shards_total``,
            ``samples``, ``accuracy``, ``sparsity`` — see
            :meth:`repro.eval.eval_shards.ShardProgress.as_detail`);
            for ``retrying`` the attempt counters, backoff, and
            reason; for ``gave-up``/``quarantined`` the
            :meth:`~repro.engine.faults.JobFailure.as_detail` payload.
        seq: Engine-wide monotonic sequence number, assigned under the
            emit lock.  Events observed by any single callback are
            strictly increasing in ``seq``; with several concurrent
            batches, engine-wide subscribers can totally order the
            interleaved stream by it.
    """

    action: str
    job: EvalJob
    completed: int
    total: int
    elapsed_s: float = 0.0
    detail: Any = None
    seq: int = 0


ProgressCallback = Callable[[ProgressEvent], None]


def _warm_up_probe() -> None:
    """Picklable no-op submitted by :meth:`ExperimentEngine.warm_up`."""
    return None


def _reset_signals() -> None:
    """Pool-worker initializer: the interpreter's default signal handling.

    A forked worker inherits the parent's handlers and, before Python
    3.12, its wakeup fd.  Under ``repro serve`` those belong to the
    asyncio loop: a worker would ignore SIGTERM and write the signal
    number into the server loop's self-pipe, shutting the server down.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)


@dataclass
class EngineStats(Counters):
    """Cumulative scheduling counters (one engine's lifetime).

    ``executed`` counts actual evaluation calls; the acceptance
    criterion "a warm-cache re-run performs zero new ``evaluate()``
    calls" is checked against it — a job executed by a fleet peer
    counts in ``remote_jobs`` instead, never in ``executed``.
    ``retries`` counts re-dispatches of a failed, timed-out, or
    crash-interrupted attempt, ``timeouts`` hung attempts reclaimed by
    killing the pool, ``pool_crashes`` pool teardowns forced by a
    worker crash, ``peer_failures`` peer batches that degraded to
    local execution (their jobs' requeues are not retries), and
    ``failed`` / ``quarantined`` permanently failed and poisoned jobs.
    """

    jobs_submitted: int = 0
    jobs_unique: int = 0
    jobs_deduped: int = 0
    cache_hits: int = 0
    executed: int = 0
    remote_jobs: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_crashes: int = 0
    peer_failures: int = 0
    failed: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    executed_by_kind: dict[str, int] = field(default_factory=dict)


@dataclass
class _JobState:
    """One pending job's scheduling state across attempts.

    ``dispatches`` counts every hand-off to a worker (it is the
    attempt number fault plans see, so an injected "kill on attempt 1"
    cannot re-fire after an unattributed cohort re-dispatch), while
    ``attempts`` counts only *attributed* failures and is what the
    retry budget is charged against.  ``crash_attempts`` tracks
    consecutive worker crashes with exact (singleton) attribution —
    reaching ``RetryPolicy.max_crash_attempts`` quarantines the job.
    """

    job: EvalJob
    started: bool = False
    dispatches: int = 0
    attempts: int = 0
    crash_attempts: int = 0
    tracebacks: list[str] = field(default_factory=list)
    not_before: float = 0.0  # monotonic clock gate for backoff
    deadline: float | None = None  # wall-clock budget while in flight


class _InlineExecutor(Executor):
    """Runs each submitted call to completion in the calling thread.

    The dispatch loop drives it like a pool of one worker: an
    attempt's exception lands in its future, so retries, backoff, and
    failure records take the pool's path.  A crash or a hang cannot be
    told apart from the scheduler itself here, so ``kill`` faults
    surface as :class:`~repro.engine.faults.InjectedCrash` and
    wall-clock budgets go unenforced.
    """

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@dataclass
class _Batch:
    """One :meth:`ExperimentEngine.run` call's state, and the
    transitions every execution path shares: a job is ``started``,
    then ``settle``-d with a payload, or ``charge``-d an attributed
    failure — which means ``retrying`` it or ``give_up`` on it.

    ``results`` and ``failures`` are written by the local dispatch
    loop and by fleet peer-share threads alike.  ``total`` is known
    only once the batch is classified (sharding changes the unit
    count); ``on_done`` sees every settled unit.
    """

    engine: "ExperimentEngine"
    progress: ProgressCallback | None
    on_error: str
    start: float = field(default_factory=time.perf_counter)
    total: int = 0
    on_done: Callable[[EvalJob, Any, int], None] | None = None
    results: dict[EvalJob, Any] = field(default_factory=dict)
    failures: dict[EvalJob, JobFailure] = field(default_factory=dict)

    def emit(
        self, action: str, job: EvalJob, detail: Any = None,
        completed: int | None = None,
    ) -> None:
        """Build one sequenced event and deliver it to every observer.

        ``self.progress`` is the batch-local callback handed to
        :meth:`ExperimentEngine.run` (exceptions propagate — the async
        layer cancels a run by raising from it), ``engine.progress``
        the engine-wide one from the constructor.
        :meth:`~ExperimentEngine.subscribe` observers are notified
        under the emit lock so each sees a strictly ``seq``-ordered
        stream even across concurrent batches; a subscriber that
        raises is dropped with a logged warning.  ``completed``
        defaults to the units finished so far, capped at ``total``
        because parent-cell failures are recorded after every unit.
        """
        engine = self.engine
        if (
            self.progress is None
            and engine.progress is None
            and not engine._subscribers
        ):
            return
        if completed is None:
            completed = min(
                len(self.results) + len(self.failures), self.total
            )
        with engine._lock:
            event = ProgressEvent(
                action=action, job=job, completed=completed,
                total=self.total,
                elapsed_s=time.perf_counter() - self.start,
                detail=detail, seq=next(engine._seq),
            )
            for token, callback in list(engine._subscribers.items()):
                try:
                    callback(event)
                except Exception:
                    engine._subscribers.pop(token, None)
                    logger.warning(
                        "dropping progress subscriber %d after its "
                        "callback raised",
                        token, exc_info=True,
                    )
        for callback in (self.progress, engine.progress):
            if callback is not None:
                callback(event)

    def started(self, state: _JobState, peer: str | None = None) -> None:
        if not state.started:
            state.started = True
            self.emit(
                "started", state.job,
                detail=None if peer is None else {"peer": peer},
            )

    def settle(
        self, state: _JobState, payload: Any, peer: str | None = None
    ) -> None:
        """Record a payload executed here, or delivered by ``peer``."""
        engine = self.engine
        with engine._lock:
            if peer is None:
                engine.stats.executed += 1
                by_kind = engine.stats.executed_by_kind
                by_kind[state.job.kind] = by_kind.get(state.job.kind, 0) + 1
            else:
                engine.stats.remote_jobs += 1
        # A peer's own cache already published what it executed.
        engine.cache.put(state.job, payload, publish=peer is None)
        self.results[state.job] = payload
        done = len(self.results) + len(self.failures)
        self.emit(
            "completed", state.job,
            detail=None if peer is None else {"peer": peer},
            completed=done,
        )
        if self.on_done is not None:
            self.on_done(state.job, payload, done)

    def retrying(
        self, state: _JobState, delay: float, reason: str,
        peer: str | None = None,
    ) -> None:
        """Announce a re-dispatch.  A local one counts as a retry; a
        job requeued from ``peer`` does not (its share counts one peer
        failure instead)."""
        detail = {
            "attempt": state.attempts,
            "max_attempts": self.engine.retry_policy.max_attempts,
            "delay_s": delay,
            "reason": reason,
        }
        if peer is None:
            with self.engine._lock:
                self.engine.stats.retries += 1
        else:
            detail["peer"] = peer
        self.emit("retrying", state.job, detail=detail)

    def charge(
        self, state: _JobState, exc: BaseException,
        queue: deque[_JobState], reason: str | None = None,
        trace: str | None = None,
    ) -> None:
        """Charge ``state`` one attempt for ``exc``: put it back at the
        front of ``queue``, gated by its backoff, or give up on it."""
        policy = self.engine.retry_policy
        state.attempts += 1
        state.crash_attempts = 0
        state.tracebacks.append(
            trace or "".join(traceback.format_exception(exc))
        )
        if not policy.should_retry(exc, state.attempts):
            kind = "timeout" if isinstance(exc, JobTimeout) else "error"
            self.give_up(state, kind, exc)
            return
        delay = policy.delay_s(state.job, state.attempts)
        state.not_before = time.monotonic() + delay
        self.retrying(
            state, delay, reason or f"{type(exc).__name__}: {exc}"
        )
        queue.appendleft(state)

    def give_up(
        self, state: _JobState, kind: str,
        exc: BaseException | None = None,
    ) -> None:
        """Register a job's terminal failure; raise in raise-mode."""
        attempts = (
            state.crash_attempts if kind == "poisoned" else state.attempts
        )
        failure = JobFailure(
            job=state.job, kind=kind, attempts=attempts,
            tracebacks=tuple(state.tracebacks),
        )
        with self.engine._lock:
            self.engine.stats.failed += 1
            if kind == "poisoned":
                self.engine.stats.quarantined += 1
        self.failures[state.job] = failure
        self.emit(
            "quarantined" if kind == "poisoned" else "gave-up",
            state.job, detail=failure.as_detail(),
        )
        if self.on_error == "raise":
            raise exc if exc is not None else PoisonedJob(failure)


class ExperimentEngine:
    """Schedules deduplicated job batches over a cache and worker pool.

    Args:
        workers: Process-pool size; ``1`` runs jobs in the calling
            thread (still through the cache and the dispatch loop).
        cache: Result cache; defaults to a fresh memory-only cache.
        progress: Optional streaming callback invoked from the
            scheduling process as jobs hit the cache, start, and
            complete.
        sim_shards: Shards to split each trace-simulation batch into
            when a driver routes :func:`repro.accel.simulator.
            simulate_many` through this engine (the CLI's
            ``--sim-shards``); ``None`` means one shard per worker.
        eval_shards: Samples per evaluation shard (the CLI's
            ``--eval-shards``).  When set, whole-cell ``eval`` jobs
            that miss the cache are split into per-sample-span
            ``eval-shard`` jobs (:mod:`repro.eval.eval_shards`) that
            parallelize on the worker pool and stream
            ``eval-shard-done`` partial results; the spans are
            re-folded in global sample order, bit-identical to the
            serial cell for any worker count and span size.  Span keys
            exclude the cell's total sample count, so growing a cell
            re-executes only its new suffix spans.  ``None`` (default)
            schedules whole cells.
        retry_policy: How failed attempts are retried (the CLI's
            ``--retries`` / ``--retry-backoff``).  Defaults to
            :data:`~repro.engine.faults.DEFAULT_RETRY_POLICY` — no
            exception retries, but worker-crash recovery and the
            poison-quarantine threshold stay active.
        job_timeout_s: Per-job wall-clock budget, measured from
            dispatch (the CLI's ``--job-timeout``).  Enforced on the
            worker pool: a hung attempt is reclaimed by tearing the
            pool down (running futures cannot be cancelled), innocent
            in-flight jobs are re-dispatched without penalty, and the
            timed-out job is retried or failed per the retry policy.
            ``None`` (default) disables the budget.
        peers: Fleet peer base URLs (the CLI's ``--peers``) — other
            ``repro serve`` processes exposing ``POST /jobs``.  Each
            batch is partitioned by rendezvous hashing on job id over
            peers + the local engine (see :mod:`repro.remote.
            dispatch`), remote shares execute concurrently with the
            local one, and an unreachable peer's share is requeued for
            local execution without penalty — a fleet of any size
            degrades gracefully to, and stays bit-identical with,
            local-only execution.

    Every batch runs through one dispatch loop (:meth:`_dispatch`), in
    the calling thread or on a process pool that is created lazily on
    the first parallel batch and reused across :meth:`run` calls — a
    driver that runs many small sharded-simulation batches pays the
    pool spawn cost once, not per batch.  :meth:`close` (or the
    context-manager protocol) releases the workers; a closed engine
    recreates the pool on next use.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        sim_shards: int | None = None,
        eval_shards: int | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_s: float | None = None,
        peers: Iterable[str] | None = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        if sim_shards is not None and sim_shards < 1:
            raise ValueError(f"sim_shards must be >= 1, got {sim_shards}")
        self.sim_shards = sim_shards
        if eval_shards is not None and eval_shards < 1:
            raise ValueError(
                f"eval_shards must be >= 1, got {eval_shards}"
            )
        self.eval_shards = eval_shards
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else DEFAULT_RETRY_POLICY
        )
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be > 0, got {job_timeout_s}"
            )
        self.job_timeout_s = job_timeout_s
        self.fleet = None
        peer_urls = list(peers) if peers is not None else []
        if peer_urls:
            # Lazy: the engine layer stays importable without the
            # remote package; only a fleet run needs it.
            from repro.remote.dispatch import FleetDispatcher

            self.fleet = FleetDispatcher(peer_urls)
        self.stats = EngineStats()
        self._pool: ProcessPoolExecutor | None = None
        # One reentrant lock guards the counters, the pool handle, and
        # event emission, so concurrent run() threads (the async
        # serving layer) stay consistent and sequence numbers stay
        # monotonic per observer.
        self._lock = threading.RLock()
        self._seq = itertools.count(1)
        self._subscribers: dict[int, ProgressCallback] = {}
        self._subscriber_tokens = itertools.count(1)

    def subscribe(self, callback: ProgressCallback) -> int:
        """Attach an engine-wide progress observer; returns a token.

        Subscribers see every event from every batch (all concurrent
        :meth:`run` calls), delivered under the emit lock in strictly
        increasing ``seq`` order.  A subscriber that raises is dropped
        (with a logged warning) — a broken monitor must not kill
        unrelated runs.  Per-batch streaming belongs in :meth:`run`'s
        ``progress`` argument instead.
        """
        with self._lock:
            token = next(self._subscriber_tokens)
            self._subscribers[token] = callback
            return token

    def unsubscribe(self, token: int) -> None:
        """Detach a :meth:`subscribe` observer (idempotent)."""
        with self._lock:
            self._subscribers.pop(token, None)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent) and drain
        any pending remote-cache publishes."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        flush = getattr(self.cache, "flush_remote", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown; atexit reaps the workers

    # -- internals ---------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_reset_signals
                )
            return self._pool

    def _discard_pool(
        self, pool: ProcessPoolExecutor, terminate: bool = False
    ) -> None:
        """Drop a broken/poisoned pool so the next use starts fresh.

        ``terminate`` additionally SIGKILLs the worker processes —
        required when reclaiming a hung worker, whose running future
        can never be cancelled.  SIGKILL runs no handler, so whatever
        the job installed cannot keep the worker alive.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        )
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if terminate:
            for proc in processes:
                try:
                    proc.kill()
                except Exception:
                    pass

    def warm_up(self) -> None:
        """Start the worker pool now instead of on the first batch.

        Idempotent; a no-op for ``workers=1``.  Under the default
        ``fork`` start method every worker process is forked at the
        pool's first submission, and forked children inherit all open
        file descriptors — including accepted client sockets, whose
        inherited duplicates would keep a connection from ever
        delivering EOF after the parent closes it.  The serving
        frontend therefore warms the pool *before* it opens its
        listening socket.
        """
        if self.workers > 1:
            self._ensure_pool().submit(_warm_up_probe).result()

    def _dispatch(self, batch: _Batch, pending: list[_JobState]) -> None:
        """The resilient dispatch loop.

        Jobs are dispatched through a bounded in-flight window of
        ``workers`` futures (so dispatch ≈ start, which keeps per-job
        deadlines honest and crash cohorts small), collected as they
        finish, and retried per the engine's :class:`RetryPolicy`; a
        retried job waits out its backoff at the front of the queue
        while ready jobs go ahead of it.  A worker crash tears the
        pool down and re-dispatches the in-flight cohort through an
        *isolation* queue — one job at a time — so a repeat crash
        indicts exactly one job; hung jobs are reclaimed by
        terminating the pool and re-dispatching the innocent
        bystanders without penalty.

        The executor is the calling thread (window 1) for ``workers=1``
        or a lone job with no timeout to enforce, since a pool cannot
        pay for itself there; if the pool cannot be (re)built at all,
        the remaining jobs continue in-process on the same loop.
        """
        policy = self.retry_policy
        ready: deque[_JobState] = deque(pending)
        isolation: deque[_JobState] = deque()
        inflight: dict[Any, _JobState] = {}
        inline = self.workers == 1 or (
            len(pending) == 1 and self.job_timeout_s is None
        )
        pool: Executor | None = None

        def dispatch(state: _JobState) -> None:
            batch.started(state)
            future = pool.submit(
                run_job_attempt, state.job, state.dispatches + 1,
                not inline,
            )
            state.dispatches += 1
            state.deadline = (
                time.monotonic() + self.job_timeout_s
                if self.job_timeout_s is not None else None
            )
            inflight[future] = state

        def drain() -> list[_JobState]:
            """Cancel every in-flight future; return their states."""
            states = list(inflight.values())
            for future in inflight:
                future.cancel()
            inflight.clear()
            return states

        try:
            while ready or isolation or inflight:
                if pool is None and (ready or isolation):
                    if not inline:
                        try:
                            pool = self._ensure_pool()
                        except Exception:
                            logger.warning(
                                "worker pool could not be rebuilt; "
                                "continuing in-process", exc_info=True,
                            )
                            inline = True
                    if inline:
                        pool = _InlineExecutor()
                # Crash-cohort attribution: while suspects remain,
                # dispatch exactly one at a time, alone in the pool.
                queue = isolation or ready
                window = 1 if inline or isolation else self.workers

                # -- dispatch ---------------------------------------
                now = time.monotonic()
                gate: float | None = None  # earliest backoff release
                blocked: list[_JobState] = []
                try:
                    while queue and len(inflight) < window:
                        state = queue[0]
                        if state.not_before <= now:
                            dispatch(state)
                        else:
                            blocked.append(state)
                            if gate is None or state.not_before < gate:
                                gate = state.not_before
                        queue.popleft()
                except BrokenProcessPool:
                    # The pool broke while idle (a worker died between
                    # batches): recycle it and re-dispatch in-flight
                    # jobs without penalty.
                    with self._lock:
                        self.stats.pool_crashes += 1
                    ready.extendleft(reversed(drain()))
                    self._discard_pool(pool)
                    pool = None
                    continue
                finally:
                    queue.extendleft(reversed(blocked))

                # -- wait -------------------------------------------
                if not inflight:
                    if gate is not None:
                        pause = max(0.0, gate - time.monotonic())
                        time.sleep(min(pause, 0.5))
                    continue
                # Wake for the nearest deadline or backoff release.
                wakes = [
                    s.deadline for s in inflight.values()
                    if s.deadline is not None
                ] + ([] if gate is None else [gate])
                timeout = (
                    max(0.0, min(wakes) - time.monotonic())
                    if wakes else None
                )
                done, _ = wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                # -- collect ----------------------------------------
                crashed: list[_JobState] = []
                for future in done:
                    state = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        crashed.append(state)
                    except Exception as exc:
                        batch.charge(state, exc, ready)
                    else:
                        batch.settle(state, payload)

                if crashed:
                    # A worker crash kills the whole pool: everything
                    # still in flight died with it and joins the
                    # cohort.
                    with self._lock:
                        self.stats.pool_crashes += 1
                    crashed.extend(drain())
                    self._discard_pool(pool)
                    pool = None
                    if len(crashed) == 1:
                        # Singleton cohort: attribution is exact.
                        state = crashed[0]
                        state.crash_attempts += 1
                        state.tracebacks.append(
                            "worker crashed (BrokenProcessPool) on "
                            f"dispatch {state.dispatches}"
                        )
                        if (
                            state.crash_attempts
                            >= policy.max_crash_attempts
                        ):
                            batch.give_up(state, "poisoned")
                        else:
                            delay = policy.delay_s(
                                state.job, state.crash_attempts
                            )
                            state.not_before = (
                                time.monotonic() + delay
                            )
                            batch.retrying(state, delay, "worker-crash")
                            isolation.append(state)
                    else:
                        # Cohort of several: the culprit is unknown,
                        # so nobody is charged; re-dispatch one at a
                        # time so a repeat crash indicts exactly one
                        # job.
                        for state in crashed:
                            batch.retrying(state, 0.0, "worker-lost")
                            isolation.append(state)
                    continue

                # -- timeouts ---------------------------------------
                if self.job_timeout_s is not None and inflight:
                    now = time.monotonic()
                    hung: list[_JobState] = []
                    for future, state in list(inflight.items()):
                        if now < state.deadline:
                            continue
                        del inflight[future]
                        if future.cancel():
                            # Never started: back in line, no penalty.
                            ready.appendleft(state)
                        else:
                            hung.append(state)
                    if hung:
                        # A running future cannot be cancelled:
                        # reclaim the workers by terminating the pool,
                        # then re-dispatch the innocent in-flight jobs
                        # without penalty.
                        with self._lock:
                            self.stats.timeouts += len(hung)
                        ready.extendleft(reversed(drain()))
                        self._discard_pool(pool, terminate=True)
                        pool = None
                        for state in hung:
                            exc = JobTimeout(
                                f"{state.job.describe()} exceeded "
                                f"{self.job_timeout_s:g}s wall clock "
                                f"(attempt {state.attempts + 1})"
                            )
                            batch.charge(
                                state, exc, ready, reason="timeout",
                                trace=f"JobTimeout: {exc}",
                            )
        except BaseException:
            # Quiesce the batch before propagating (what the old
            # pool-per-run `with` block guaranteed): no orphan futures
            # keep the persistent pool busy behind the caller's back.
            for future in inflight:
                future.cancel()
            wait(set(inflight))
            raise

    def _run_fleet(self, batch: _Batch, pending: list[_JobState]) -> None:
        """Partition the batch over the fleet and run shares
        concurrently.

        Rendezvous hashing owns each job to a peer or the local
        engine; peer shares ship as one ``POST /jobs`` batch each on a
        thread of their own while the local share runs on the local
        dispatch loop.  Any job a peer cannot deliver — the peer is
        unreachable, an entry is missing, a digest fails verification,
        or the peer reports a job-level failure — is requeued for
        local execution *without penalty* (its retry budget is
        untouched, exactly like a crashed worker's cohort), so the
        fleet degrades to local-only and results stay bit-identical to
        a serial run by construction.
        """
        from repro.remote.dispatch import LOCAL_NODE

        by_job = {state.job: state for state in pending}
        shares = self.fleet.partition(by_job)
        local_states = [
            by_job[job] for job in shares.pop(LOCAL_NODE, [])
        ]
        with ThreadPoolExecutor(
            max_workers=max(1, len(shares)),
            thread_name_prefix="repro-fleet",
        ) as threads:
            peer_shares = [
                threads.submit(
                    self._run_peer_share, batch, url,
                    [by_job[job] for job in jobs],
                )
                for url, jobs in shares.items()
            ]
            if local_states:
                self._dispatch(batch, local_states)
        requeued = [
            state for share in peer_shares for state in share.result()
        ]
        if requeued:
            self._dispatch(batch, requeued)

    def _run_peer_share(
        self, batch: _Batch, url: str, states: list[_JobState]
    ) -> list[_JobState]:
        """Ship one peer's share, settle what it delivers, and return
        the states it did not deliver."""
        from repro.remote import protocol

        def requeue(
            undelivered: list[_JobState], reason: str
        ) -> list[_JobState]:
            # Penalty-free, like a crashed worker's cohort: the batch
            # counts one peer failure, not one retry per job — the
            # jobs did nothing wrong.
            with self._lock:
                self.stats.peer_failures += 1
            for state in undelivered:
                batch.retrying(state, 0.0, reason, peer=url)
            return undelivered

        for state in states:
            batch.started(state, peer=url)
        try:
            entries = self.fleet.peer(url).execute(
                [state.job for state in states]
            )
        except PeerUnreachable as exc:
            return requeue(states, f"peer-unreachable: {exc}")

        leftovers: list[_JobState] = []
        for state in states:
            payload = protocol.unpack_ok_entry(entries.get(state.job.job_id))
            if payload is MISS:
                # Missing entry, job-level failure, or corrupt bytes:
                # local execution is the authoritative fallback for
                # all of them (it reproduces failures with the
                # coordinator's own retry policy and records).
                leftovers.append(state)
            else:
                batch.settle(state, payload, peer=url)
        return requeue(leftovers, "peer-incomplete") if leftovers else []

    # -- public API --------------------------------------------------

    def run(
        self,
        jobs: Iterable[EvalJob],
        progress: ProgressCallback | None = None,
        *,
        on_error: str = "raise",
    ) -> Mapping[EvalJob, Any]:
        """Execute a job batch; return payloads keyed by job.

        Duplicate jobs (equal keys) are computed once; the returned
        mapping resolves *any* submitted job, duplicate or not, since
        jobs hash by key.

        ``progress`` is a batch-local callback that sees only *this*
        call's events (the constructor's engine-wide callback and any
        :meth:`subscribe` observers still see them too).  Concurrent
        ``run`` calls from different threads are safe and share the
        worker pool and cache; a batch-local callback that raises
        aborts its own batch — pending pool futures are cancelled and
        awaited — without touching the others, which is how the async
        serving layer implements cancellation.

        ``on_error`` selects the failure mode once a job's retry
        budget (see ``retry_policy``) is exhausted: ``"raise"``
        (default) propagates the final exception — or
        :class:`~repro.engine.faults.PoisonedJob` for a quarantined
        job — after quiescing the batch, exactly like the pre-retry
        engine; ``"collect"`` records a structured
        :class:`~repro.engine.faults.JobFailure` *as the job's value
        in the returned mapping* and keeps going, so one bad job
        costs one result, not the batch.  Worker-crash recovery and
        timeouts apply in both modes.

        With ``eval_shards`` set, whole-cell ``eval`` jobs that miss
        the cache are split into per-sample-span ``eval-shard`` jobs,
        which dedupe and cache individually (two cells covering the
        same span share it, even at different total sample counts).
        Each finished span streams an ``eval-shard-done`` event with
        its cell's running partial result; the merged cell — re-folded
        in global sample order, bit-identical to serial evaluation —
        is stored back under the whole-cell key and returned alongside
        the span results.  In collect mode a cell with failed spans
        maps to a ``shards-failed`` :class:`JobFailure` naming them.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f'on_error must be "raise" or "collect", '
                f"got {on_error!r}"
            )
        batch = _Batch(self, progress, on_error)
        submitted = list(jobs)
        unique: dict[EvalJob, None] = {}
        for job in submitted:
            unique.setdefault(job, None)
        ordered = list(unique)

        with self._lock:
            self.stats.jobs_submitted += len(submitted)
            self.stats.jobs_unique += len(ordered)
            self.stats.jobs_deduped += len(submitted) - len(ordered)

        shard_lib = None
        if self.eval_shards is not None:
            # Lazy: the engine layer must stay importable without the
            # eval layer; only a sharding run needs it.
            from repro.eval import eval_shards as shard_lib

        if getattr(self.cache, "remote", None) is not None:
            # One batched manifest round-trip resolves the whole
            # schedule's remote existence up front (spans included),
            # so per-job lookups either fetch or skip the network.
            candidates = list(ordered)
            if shard_lib is not None:
                candidates.extend(
                    shard
                    for job in ordered if job.kind == "eval"
                    for shard in shard_lib.plan_eval_shards(
                        job, self.eval_shards
                    )
                )
            self.cache.prefetch(candidates)

        results, failures = batch.results, batch.failures
        hits: list[EvalJob] = []
        hit_tiers: dict[EvalJob, str | None] = {}
        pending: list[EvalJob] = []
        plans: dict[EvalJob, tuple[EvalJob, ...]] = {}
        trackers: dict[EvalJob, Any] = {}
        shard_parents: dict[EvalJob, list[EvalJob]] = {}

        classified: set[EvalJob] = set()
        for job in ordered:
            if job in classified:
                continue  # already scheduled as some cell's span
            classified.add(job)
            payload, tier = self.cache.lookup(job)
            if payload is not MISS:
                with self._lock:
                    self.stats.cache_hits += 1
                results[job] = payload
                hits.append(job)
                hit_tiers[job] = tier
                continue
            if shard_lib is not None and job.kind == "eval":
                shards = shard_lib.plan_eval_shards(job, self.eval_shards)
                plans[job] = shards
                trackers[job] = shard_lib.ShardProgress(
                    shards_total=len(shards)
                )
                for shard in shards:
                    shard_parents.setdefault(shard, []).append(job)
                    if shard in classified:
                        # Span shared with an earlier cell, or the
                        # same job was submitted directly: scheduled
                        # once, merged into every parent.
                        continue
                    classified.add(shard)
                    span_payload, span_tier = self.cache.lookup(shard)
                    if span_payload is not MISS:
                        with self._lock:
                            self.stats.cache_hits += 1
                        results[shard] = span_payload
                        hits.append(shard)
                        hit_tiers[shard] = span_tier
                    else:
                        pending.append(shard)
            else:
                pending.append(job)

        # Sharding changes the batch's unit count, so the total is only
        # known now; cache-hit events are emitted after classification.
        batch.total = len(hits) + len(pending)

        def note_shard_done(
            shard: EvalJob, payload: Any, completed: int
        ) -> None:
            # Under the engine lock: fleet peer threads land shards
            # concurrently with the local share, and the trackers'
            # running tallies must not race.
            with self._lock:
                for parent in shard_parents.get(shard, ()):
                    tracker = trackers[parent]
                    tracker.update(payload)
                    batch.emit(
                        "eval-shard-done", shard,
                        detail=tracker.as_detail(parent),
                        completed=completed,
                    )

        for done, job in enumerate(hits, start=1):
            batch.emit(
                "cache-hit", job, detail={"tier": hit_tiers[job]},
                completed=done,
            )
            if job in shard_parents:
                note_shard_done(job, results[job], done)

        if pending:
            batch.on_done = note_shard_done if plans else None
            states = [_JobState(job=job) for job in pending]
            if self.fleet is not None and self.fleet.peers:
                self._run_fleet(batch, states)
            else:
                self._dispatch(batch, states)

        for parent, shards in plans.items():
            failed = [
                failures[shard] for shard in shards if shard in failures
            ]
            if failed:
                # The cell cannot be merged; surface a parent-level
                # failure naming the lost spans (collect mode only —
                # raise mode never reaches the merge step).
                parent_failure = shard_failure(parent, failed)
                failures[parent] = parent_failure
                batch.emit(
                    "gave-up", parent, detail=parent_failure.as_detail()
                )
                continue
            merged = shard_lib.merge_eval_shards(
                parent, [results[shard] for shard in shards]
            )
            self.cache.put(parent, merged)
            results[parent] = merged

        if failures:
            results.update(failures)

        with self._lock:
            self.stats.wall_s += time.perf_counter() - batch.start
        return results
