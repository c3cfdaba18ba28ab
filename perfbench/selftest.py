"""Self-test for the benchmark: every workload, smallest setting.

Run from the root of a checkout::

    python3 perfbench/selftest.py [workload ...]

For each workload it runs ``run.py --smoke`` with tracing off and on,
on a seed other than the default, and checks that the result passes
its correctness gates and reports exactly the metrics ``BENCHMARK.json``
names (end-to-end with tracing off, per-layer with it on), each with
the recorded unit.  It also checks that ``BENCHMARK.json`` and the
tracer agree on the per-layer metric list, and that the benchmark fails
(without printing a result) in a directory holding only itself.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import WORK, fresh_dir  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.tracing import LAYER_METRICS  # noqa: E402

SEED = 2014


def _result(argv: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def check_spec(spec: dict) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload list"
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == LAYER_METRICS, "BENCHMARK.json per_layer != tracing.LAYER_METRICS"
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"]), "setup_s missing"


def check_workload(spec: dict, workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
        code, last = _result(argv, ROOT)
        assert code == 0, f"{workload} trace={trace}: exit {code}"
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, result
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = result["metrics"]
        assert set(got) == set(want), f"{workload} trace={trace}: {set(got) ^ set(want)}"
        for name, metric in got.items():
            assert metric["unit"] == want[name], f"{name}: unit {metric['unit']}"
            assert isinstance(metric["value"], (int, float)), name
            if key == "end_to_end":
                assert metric["value"] > 0, f"{workload}: {name} is not positive"
        print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
              f"{result['attempted']} attempted")


def check_bare_directory() -> None:
    """Without the program sources the benchmark must fail, printing
    no result line."""
    bare = fresh_dir(WORK / "selftest-bare")
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0, "bare directory: exit 0"
        assert '"metrics"' not in proc.stdout, "bare directory: printed a result"
        print("ok  bare directory fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_bare_directory()
    for workload in argv or WORKLOADS:
        check_workload(spec, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
