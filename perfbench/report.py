"""Run every workload once and print every metric by name with its unit.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs through ``run.py`` with tracing off (end-to-end
metrics, correctness gates); ``--trace`` adds the separate traced run
(per-layer metrics and tracing overhead).  Besides the metrics the
result line carries, the table shows ``failed_frac`` and, from the run
record, the service latency figures and each operation kind's share of
the timed stream.  Exits non-zero if any workload failed a correctness
gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.run import WORKLOADS  # noqa: E402

#: Service-mix figures kept in the run record (name -> unit).
LATENCY_UNITS = {
    "hit_p50_ms": "ms", "hit_p99_ms": "ms", "read_p50_ms": "ms", "cold_p50_ms": "ms",
    "cold_p90_ms": "ms", "chain_first_ms": "ms", "chain_s": "s",
    "job_s": "s", "rps": "1/s",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            record, result = run_once(workload, args.seed, args.seconds, trace)
            ok &= result["correct"]
            rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
            if not trace:
                rows["failed_frac"] = (result["failed"] / result["attempted"], "ratio")
                latency = record.get("latency", {})
                for name, value in latency.items():
                    if name in LATENCY_UNITS:
                        # A tail percentile is lowered when fewer than ten
                        # samples lie above it; say which one was used.
                        used = name.endswith("_ms") and latency.get(name[:-3] + "_pct")
                        unit = LATENCY_UNITS[name] + (f" (p{used})" if used else "")
                        rows[name] = (value, unit)
                for kind, share in latency.get("share", {}).items():
                    rows[f"share.{kind}"] = (share, "ratio")
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for problem in record.get("problems", []):
                print(f"   FAILED: {problem}")
            for name, (value, unit) in rows.items():
                print(f"   {name:44s} {value:14.4f} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
