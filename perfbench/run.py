"""The repository's benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-cold --seed 2013 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``batch-cold``  — ``write-md --scale tiny --processes 2`` on an empty store;
* ``service-hot`` — closed-loop cached-hash hits and scenario reads
  against ``serve``: the HTTP/store read path alone;
* ``service-mix`` — a closed-loop request mix against ``serve``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer metrics and the tracing
overhead.  ``--smoke`` runs the smallest setting of a workload (used by
``perfbench/selftest.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workloads ``BENCHMARK.json`` lists, in its order.
WORKLOADS = ("batch-cold", "service-hot", "service-mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest setting of the workload (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import batch, common, service_mix

    work = common.fresh_dir(common.WORK / f"{args.workload}-{os.getpid()}")
    stamp = common.stamp(args.seed)
    try:
        if args.workload == "batch-cold":
            out = batch.run(work, args.seed, args.seconds, bool(args.trace), args.smoke)
        else:
            out = service_mix.run(work, args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
    except Exception:  # noqa: BLE001 - report the crash, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_after"] = list(os.getloadavg())
    record = {"workload": args.workload, "trace": args.trace, "stamp": stamp,
              "problems": out["problems"], **out["record"]}
    for problem in out["problems"]:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    common.emit(record, {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
