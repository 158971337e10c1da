"""Host class and ``/proc`` readings for benchmark results."""

from __future__ import annotations

import os
import platform
import resource
import signal

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_class() -> dict:
    """Cores, Python, NumPy, the BLAS library, and the thread caps as
    found in the environment (the benchmark sets none)."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        pass
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
    }


def _status_kb(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set (``VmHWM``) of a live process, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's reaped children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def current_cpu() -> int:
    """The CPU the calling thread last ran on."""
    with open("/proc/thread-self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def die_with_parent() -> None:
    """``preexec_fn`` of the benchmark's subprocesses: the kernel sends
    the child SIGTERM if the benchmark dies first, so even a killed
    run leaves nothing behind."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                             signal.SIGTERM)
