"""Run the ``repro.experiments`` CLI with layer tracing installed.

Usage::

    python3 perfbench/traced_entry.py [--phases] TRACE.json <cli arguments...>

The tracer's counters (with ``--phases``, only the phase clock's phase
times) are written to ``TRACE.json`` when the process exits, including
after SIGTERM (the CLI turns it into a normal exit).
"""

from __future__ import annotations

import atexit
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import PhaseClock, Tracer  # noqa: E402


def main() -> int:
    phases = sys.argv[1] == "--phases"
    out, argv = sys.argv[1 + phases], sys.argv[2 + phases:]
    tracer = (PhaseClock if phases else Tracer)().install()

    def dump() -> None:
        Path(out).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")

    atexit.register(dump)
    from repro.experiments.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
