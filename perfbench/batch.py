"""``batch-cold``: regenerating EXPERIMENTS.md from an empty store.

Each regeneration runs ``python -m repro.experiments write-md --scale
tiny`` as a child process, the way a user does, on an empty scenario
store: the scenario plane evaluates, stores and fans work out over the
supervised fork pool, and every experiment then consumes its results.

Timed regenerations run the CLI under ``traced_entry.py --phases``,
which clocks each phase (context builds, evaluations, every
experiment's plan and consume step); ``wall_s`` is the sum of each
phase's fastest time over the run's regenerations (``fastest_parts``).
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from .common import (
    ROOT,
    fastest_parts,
    fresh_dir,
    masked_markdown_digest,
    median,
    reference,
    repeat_timed,
    run_child,
)
from .tracing import layer_metrics

SCALE = "tiny"
PROCESSES = 2
#: timed regenerations per run (at least): ``wall_s`` combines the
#: fastest time of each of their phases (see ``fastest_parts``).
RUNS = 3
#: CLI start-ups timed as the set-up (``setup_s`` is their median).
SETUPS = 9
_SUMMARY = re.compile(r"(\d+) evaluated, (\d+) cache hits, (\d+) total")


class Regeneration:
    """One ``write-md`` child process and what the gates need from it."""

    def __init__(self, work: Path, seed: int, processes: int, trace_to: Path | None = None,
                 phased: bool = False):
        cli = ["write-md", "--scale", SCALE, "--seed", str(seed),
               "--processes", str(processes), "--cache-dir", str(work / "store"),
               "--out", str(work / "EXPERIMENTS.md")]
        entry = [sys.executable, str(ROOT / "perfbench" / "traced_entry.py")]
        phase_file = work / "phases.json"
        if phased:
            phase_file.unlink(missing_ok=True)
            argv = [*entry, "--phases", str(phase_file), *cli]
        elif trace_to is None:
            argv = [sys.executable, "-m", "repro.experiments", *cli]
        else:
            argv = [*entry, str(trace_to), *cli]
        self.child = run_child(argv, cwd=work)
        #: seconds per phase, plus ``rest`` (start-up, rendering, ...):
        #: the parts :func:`fastest_parts` combines.
        self.parts = None
        if phased and phase_file.exists():
            self.parts = json.loads(phase_file.read_text(encoding="utf-8"))["phases"]
            self.parts["rest"] = self.child.wall_s - sum(self.parts.values())
        match = _SUMMARY.search(self.child.stdout)
        self.evaluated, self.hits, self.total = (
            map(int, match.groups()) if match else (-1, -1, -1)
        )
        md = work / "EXPERIMENTS.md"
        self.digest = masked_markdown_digest(md.read_text(encoding="utf-8")) if md.exists() else None

    def failures(self, expect_digest: str | None) -> list[str]:
        """Every correctness gate this regeneration misses."""
        out = []
        if self.child.returncode != 0:
            out.append(f"write-md exited {self.child.returncode}: {self.child.stderr[-400:]}")
        if "scenario_failed" in self.child.stderr:
            out.append("scenario_failed incidents")
        if self.digest is None:
            out.append("no EXPERIMENTS.md written")
        elif expect_digest is not None and self.digest != expect_digest:
            out.append(f"EXPERIMENTS.md digest {self.digest} != {expect_digest}")
        if self.evaluated <= 0:
            out.append(f"cold run evaluated {self.evaluated} scenarios")
        if self.parts is not None and self.parts["rest"] < 0:
            out.append("phase times exceed the regeneration's wall time")
        return out


def _warm_up(work: Path) -> float:
    """Empty the store and start the CLI once (interpreter, package
    import, experiment registry) so no timed run pays a cold page cache."""
    fresh_dir(work / "store")
    return run_child([sys.executable, "-m", "repro.experiments", "list"], cwd=work).wall_s


def run(work: Path, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    expected = reference("write-md", seed)
    problems: list[str] = []
    attempted = failed = 0

    def regenerate(processes: int, **kwargs) -> Regeneration:
        nonlocal attempted, failed, expected
        fresh_dir(work / "store")
        regen = Regeneration(work, seed, processes, **kwargs)
        attempted += 1
        misses = regen.failures(expected)
        failed += bool(misses)
        problems.extend(misses)
        if expected is None:
            expected = regen.digest  # every later output must match the first
        return regen

    setups = [_warm_up(work) for _ in range(1 if smoke else SETUPS)]
    record = {"scale": SCALE, "processes": PROCESSES}

    if trace:
        # Like for like: both sides serial, so every layer runs in this
        # child where the wrappers can see it.
        plain = regenerate(1)
        trace_file = work / "trace.json"
        traced = regenerate(1, trace_to=trace_file)
        snap = json.loads(trace_file.read_text(encoding="utf-8")) if trace_file.exists() else None
        if snap is None:
            problems.append("traced run left no trace")
        metrics = layer_metrics([snap] if snap else [], {
            "trace.wall_s": traced.child.wall_s,
            "trace.untraced_wall_s": plain.child.wall_s,
            "trace.overhead_pct": 100.0 * (traced.child.wall_s / plain.child.wall_s - 1.0),
        })
        record.update(processes=1, traced_processes_note=(
            "traced runs use --processes 1: fork workers are invisible "
            "to wrappers in the parent"))
    else:
        runs = repeat_timed(seconds, 1 if smoke else RUNS,
                            lambda: regenerate(PROCESSES, phased=True))
        parts = [r.parts for r in runs if r.parts is not None]
        if len(parts) != len(runs):
            problems.append("a timed regeneration left no phase times")
            parts = [{"total": r.child.wall_s} for r in runs]
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": fastest_parts(parts), "unit": "s"},
            "peak_rss_mb": {"value": median(r.child.peak_rss_mb for r in runs), "unit": "MB"},
        }
        last = runs[-1]
        record.update(
            runs=len(runs),
            wall_s_estimator="sum over phases of each phase's fastest time",
            phases=len(parts[0]),
            wall_s_each=[r.child.wall_s for r in runs],
            cpu_s_each=[r.child.cpu_s for r in runs],
            setup_s_each=setups,
            store={"evaluated": last.evaluated, "hits": last.hits, "total": last.total,
                   "hit_ratio": last.hits / max(1, last.hits + last.evaluated)},
        )
    record["digest"] = expected
    record["digest_recorded"] = reference("write-md", seed) is not None
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "record": record}
