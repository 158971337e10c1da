"""Host-speed sampling: time spans normalized to a reference host speed.

On a shared VM the same code runs at different speeds from one second
to the next (other tenants share the physical cores), and the guest
cannot see it: the slowdown shows up in wall time *and* in CPU time.
Raw wall-clock latencies then measure the host as much as the program.

A sampler subprocess (``python3 perfbench/hostspeed.py OUT``) runs a
fixed :func:`kernel` of pure-Python and NumPy element-wise work on each
CPU in turn, every :data:`PERIOD_S`, and records the kernel's *thread
CPU time*: time the sampler waits for a CPU (because the program keeps
it busy) is not counted, so the samples follow the host's speed and
not the program's load.  The kernel uses no BLAS and imports nothing
from the program, so no change to the program can change it.

:meth:`HostSpeed.normalize` scales a wall-clock span by
``REF_KERNEL_S / k``, with ``k`` the mean kernel time sampled during
the span (padded by :data:`PAD_S`): the span as it would read on a host
where the kernel takes :data:`REF_KERNEL_S`.  The sampler takes about
3 % of one CPU.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time

import host

PERIOD_S = 0.02
PAD_S = 0.25
REF_KERNEL_S = 1.0e-3

_HERE = os.path.abspath(__file__)


def kernel(table: dict, array) -> None:
    """The fixed unit of work whose CPU time measures host speed
    (about 1 ms on a 2-core x86_64 VM)."""
    for i in range(3000):
        table[i & 63] = table.get(i & 63, 0) + i
    for _ in range(5):
        (array * 1.5 + 2.0).sum()


def _sample(out: str) -> None:
    """Sampler main loop: until SIGTERM, then write the samples."""
    import numpy

    array = numpy.arange(20_000, dtype=numpy.float64)
    cpus = sorted(os.sched_getaffinity(0))
    rows: list[tuple[float, int, float]] = []

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    try:
        while True:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                cpu_start = time.thread_time()
                kernel({}, array)
                rows.append((start, cpu, time.thread_time() - cpu_start))
                if len(rows) == 1:
                    print("ready", flush=True)
                time.sleep(PERIOD_S)
    finally:
        with open(out + ".part", "w", encoding="ascii") as fh:
            fh.writelines(f"{t!r} {c} {k!r}\n" for t, c, k in rows)
        os.replace(out + ".part", out)


class HostSpeed:
    """Kernel samples of one run, and spans normalized by them."""

    def __init__(self, rows: list[tuple[float, int, float]]) -> None:
        rows = sorted(rows)
        if not rows:
            raise RuntimeError("the host-speed sampler recorded nothing")
        self.times = [r[0] for r in rows]
        self.rows = rows

    @classmethod
    def load(cls, path: str) -> "HostSpeed":
        with open(path, encoding="ascii") as fh:
            return cls([(float(t), int(c), float(k))
                        for t, c, k in (line.split() for line in fh)])

    def kernel_s(self, start: float, end: float,
                 cpus: set[int] | None = None) -> float:
        """Mean kernel CPU seconds sampled in ``[start, end]`` padded by
        :data:`PAD_S`, on ``cpus`` (all when ``None``); the nearest
        samples when none fall inside."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        pick = [k for _, c, k in self.rows[lo:hi]
                if cpus is None or c in cpus]
        if not pick:
            near = min(self.rows, key=lambda r: abs(r[0] - start))
            pick = [near[2]]
        return sum(pick) / len(pick)

    def normalize(self, seconds: float, start: float,
                  cpus: set[int] | None = None) -> float:
        """``seconds`` of wall time from ``start``, at reference speed."""
        return seconds * REF_KERNEL_S / self.kernel_s(
            start, start + seconds, cpus)


class Sampler:
    """The sampler subprocess for the span of a ``with`` block;
    :attr:`speed` holds its samples after the block."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.speed: HostSpeed | None = None
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen(
            [sys.executable, _HERE, self.out], stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True,
            preexec_fn=host.die_with_parent)
        if self.proc.stdout.readline() != "ready\n":
            self.__exit__(RuntimeError, None, None)
            raise RuntimeError("the host-speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        proc = self.proc
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
        if exc[0] is None:
            self.speed = HostSpeed.load(self.out)


if __name__ == "__main__":
    _sample(sys.argv[1])
