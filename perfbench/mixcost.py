#!/usr/bin/env python3
"""Measure the closed-loop cost of a ``serve-mix`` hit and miss.

Usage (from the repository root)::

    python3 perfbench/mixcost.py [--seconds 10]

Runs a hits-only and then a misses-only closed loop of ``nproc``
clients against a fresh default ``repro serve`` each, and prints the
seconds per completed run of each kind (h and m) and the miss share
h / (h + m) at which hits and misses take equal shares of the loop's
time -- the criterion ``servemix.BLOCK`` and ``HITS_PER_BLOCK`` follow.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import host  # noqa: E402
import servemix  # noqa: E402


def seconds_per_run(hits: int, seed: int, seconds: float, tmp: str,
                    env: dict) -> float:
    """Closed-loop wall seconds per successful run of one kind."""
    stream = servemix.SpecStream(seed, block=1, hits=hits)
    argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    with servemix.Server(argv, tempfile.mkdtemp(dir=tmp), env) as server:
        servemix.healthz(server.port)
        for spec in stream.pool:
            servemix.request(server.port, -1, "pool", spec, seed)
        outcomes, wall_s = servemix.closed_loop(
            server.port, stream, seed, host.nproc(), seconds,
            need=lambda hits, misses: True)
    ok = [o for o in outcomes if not o.error and o.terminal == "run-done"]
    if not ok:
        raise RuntimeError("no run completed")
    return wall_s / len(ok)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        h = seconds_per_run(1, args.seed, args.seconds, tmp, env)
        m = seconds_per_run(0, args.seed, args.seconds, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"host": host.host_class(), "hit_ms": h * 1e3,
                      "miss_ms": m * 1e3, "miss_share": h / (h + m),
                      "block": round((h + m) / h)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
