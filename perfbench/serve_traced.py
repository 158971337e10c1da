"""Run ``repro serve`` with the benchmark's span hooks installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT [serve flags...]``
with the program's ``src`` on ``PYTHONPATH``.  The spans recorded
inside the server are written to ``SPANS_OUT`` when it shuts down
(SIGINT).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out, serve_flags = argv[0], argv[1:]
    recorder = spans.SpanRecorder()
    from repro.cli import main as cli_main

    try:
        with spans.installed(recorder):
            return cli_main(["serve", *serve_flags])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
