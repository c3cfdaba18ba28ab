"""Layer-attributed tracing, installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` (module names below are the layer names) and counts calls,
items and busy seconds at those boundaries.  Nothing inside ``src/`` is
edited: functions are rebound in every loaded ``repro`` module that
imported them by name, methods are rebound on their class, and
experiment specs are swapped in the registry.  Busy time is inclusive
(a layer's span contains the spans of the layers it calls) and only
the outermost call of a re-entrant span is timed.

Work done in fork workers is invisible to wrappers in the parent, so
traced runs evaluate in one process (``--processes 1``).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

from .common import median, tail_percentile

#: Experiments whose consume phase (``spec.run``) gets its own metric:
#: the ones that dominate a warm ``write-md`` outside the scenario plane.
CONSUME_IDS = (
    "lp2", "hysteresis", "ablation_tiebreak", "fig4", "fig9", "fig12",
    "islands", "lpk_sweep",
)

#: Kernel path names as ``DestinationSweep.last_delta_path`` spells
#: them, mapped to metric suffixes.
DELTA_PATHS = {"pure": "pure", "vectorized": "np", "dense": "dense"}

_S, _N, _MS, _R, _PCT = "s", "count", "ms", "ratio", "%"

#: Every per-layer metric: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "topology.generate_s": (_S, "lower"),
    "topology.tiers_s": (_S, "lower"),
    "topology.ixp_s": (_S, "lower"),
    "core.routing.per_pair_calls": (_N, "lower"),
    "core.routing.per_pair_s": (_S, "lower"),
    "core.routing.context_build_s": (_S, "lower"),
    "core.routing.sweep_baselines": (_N, "lower"),
    "core.routing.sweep_baseline_s": (_S, "lower"),
    "core.routing.delta_calls": (_N, "lower"),
    "core.routing.delta_s": (_S, "lower"),
    **{f"core.routing.delta_path.{p}": (_N, "lower") for p in DELTA_PATHS.values()},
    "core.routing.advance_calls": (_N, "lower"),
    "core.routing.advance_s": (_S, "lower"),
    "core.metrics.batch_pairs": (_N, "lower"),
    "core.metrics.batch_s": (_S, "lower"),
    "core.metrics.rollout_pairsteps": (_N, "lower"),
    "core.metrics.rollout_s": (_S, "lower"),
    "core.partitions.calls": (_N, "lower"),
    "core.partitions.s": (_S, "lower"),
    "bgpsim.runs": (_N, "lower"),
    "bgpsim.run_s": (_S, "lower"),
    "bgpsim.activations": (_N, "lower"),
    "bgpsim.messages": (_N, "lower"),
    "experiments.scenarios.declared": (_N, "lower"),
    "experiments.scenarios.unique": (_N, "lower"),
    "experiments.scenarios.chains": (_N, "lower"),
    "experiments.scenarios.detect_chains_s": (_S, "lower"),
    "experiments.runner.evaluate_s": (_S, "lower"),
    "experiments.runner.metric_calls": (_N, "lower"),
    "experiments.runner.metric_chain_calls": (_N, "lower"),
    "experiments.runner.map_tasks_calls": (_N, "lower"),
    "experiments.runner.map_tasks_items": (_N, "lower"),
    "experiments.runner.map_tasks_s": (_S, "lower"),
    "experiments.runner.pool_run_s": (_S, "lower"),
    "experiments.store.get_calls": (_N, "lower"),
    "experiments.store.get_s": (_S, "lower"),
    "experiments.store.put_calls": (_N, "lower"),
    "experiments.store.put_s": (_S, "lower"),
    "experiments.store.hit_ratio": (_R, "higher"),
    "experiments.plan_s": (_S, "lower"),
    "experiments.consume_s": (_S, "lower"),
    **{f"experiments.consume.{eid}_s": (_S, "lower") for eid in CONSUME_IDS},
    "experiments.writeup.render_s": (_S, "lower"),
    "service.app.handler_p50_ms": (_MS, "lower"),
    "service.app.handler_p99_ms": (_MS, "lower"),
    "service.http.overhead_p50_ms": (_MS, "lower"),
    "service.app.context_for_s": (_S, "lower"),
    "service.app.hits": (_N, "higher"),
    "service.app.misses": (_N, "lower"),
    "service.app.coalesced": (_N, "higher"),
    "service.app.shed": (_N, "lower"),
    "service.app.evaluations": (_N, "lower"),
    "service.jobs.run_s": (_S, "lower"),
    "trace.wall_s": (_S, "lower"),
    "trace.untraced_wall_s": (_S, "lower"),
    "trace.overhead_pct": (_PCT, "lower"),
}


class Tracer:
    """Counters and busy-time accumulators keyed by metric name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.values: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list = []

    # -- recording ---------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.values[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def _enter(self, span: str) -> bool:
        active = self._local.__dict__.setdefault("active", set())
        if span in active:
            return False
        active.add(span)
        return True

    def _leave(self, span: str) -> None:
        self._local.active.discard(span)

    def span(self, busy: str | None, count: str | None = None, after=None):
        """Decorator factory: time calls into ``busy`` (seconds), count
        them into ``count``, then call ``after(result, args, kwargs)``."""

        def wrap(fn):
            if inspect.iscoroutinefunction(fn):

                @functools.wraps(fn)
                async def traced_async(*args, **kwargs):
                    t0 = time.perf_counter()
                    result = await fn(*args, **kwargs)
                    if busy:
                        self.add(busy, time.perf_counter() - t0)
                    if count:
                        self.add(count)
                    if after:
                        after(result, args, kwargs)
                    return result

                return traced_async

            span_id = busy or count

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                outer = self._enter(span_id)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if outer:
                        self._leave(span_id)
                        if busy:
                            self.add(busy, time.perf_counter() - t0)
                if outer:
                    if count:
                        self.add(count)
                    if after:
                        after(result, args, kwargs)
                return result

            return traced

        return wrap

    # -- patching ----------------------------------------------------
    def patch_function(self, module: str, name: str, wrapper, everywhere: bool = True) -> None:
        """Rebind ``module.name`` and, with ``everywhere``, every
        ``repro`` module that imported the same object by name
        (otherwise only the binding ``module`` itself looks up)."""
        home = importlib.import_module(module)
        original = getattr(home, name)
        replacement = wrapper(original)
        owners = [home]
        if everywhere:
            owners = [
                mod for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").startswith("repro")
                and mod.__dict__.get(name) is original
            ]
        for mod in owners:
            setattr(mod, name, replacement)
            self._undo.append(functools.partial(setattr, mod, name, original))

    def patch_method(self, cls, name: str, wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrapper(original))
        self._undo.append(functools.partial(setattr, cls, name, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points; :meth:`uninstall` undoes it."""
        # Import every layer first so name-imports exist to be rebound.
        for mod in (
            "repro.experiments.cli", "repro.experiments.writeup",
            "repro.experiments.sweeps", "repro.service.app",
            "repro.service.jobs", "repro.bgpsim.simulator",
        ):
            importlib.import_module(mod)
        from repro.bgpsim.simulator import BGPSimulator
        from repro.core import routing
        from repro.experiments import registry, runner
        from repro.experiments.store import ResultStore, SqliteResultStore
        from repro.service.app import Service

        pf, pm, span = self.patch_function, self.patch_method, self.span

        pf("repro.topology.generate", "generate_topology", span("topology.generate_s"))
        pf("repro.topology.tiers", "classify_tiers", span("topology.tiers_s"))
        pf("repro.topology.ixp", "augment_with_ixp_peering", span("topology.ixp_s"))

        pf("repro.core.routing", "compute_routing_outcome",
           span("core.routing.per_pair_s", "core.routing.per_pair_calls"))
        pm(routing.RoutingContext, "__init__", span("core.routing.context_build_s"))
        pm(routing.DestinationSweep, "__init__",
           span("core.routing.sweep_baseline_s", "core.routing.sweep_baselines"))
        pm(routing.RolloutSweep, "__init__",
           span("core.routing.sweep_baseline_s", "core.routing.sweep_baselines"))
        for cls in (routing.DestinationSweep, routing.RolloutSweep):
            pm(cls, "happiness_counts", self._delta_wrapper)
        pm(routing.RolloutSweep, "advance",
           span("core.routing.advance_s", "core.routing.advance_calls"))

        pf("repro.core.metrics", "batch_happiness", span(
            "core.metrics.batch_s",
            after=lambda r, a, k: self.add("core.metrics.batch_pairs", len(r)),
        ))
        pf("repro.core.metrics", "rollout_happiness", span(
            "core.metrics.rollout_s",
            after=lambda r, a, k: self.add(
                "core.metrics.rollout_pairsteps", sum(len(step) for step in r)
            ),
        ))
        pf("repro.core.partitions", "compute_partitions",
           span("core.partitions.s", "core.partitions.calls"))

        def _convergence(report, args, kwargs):
            self.add("bgpsim.activations", report.activations)
            self.add("bgpsim.messages", report.messages)

        pm(BGPSimulator, "run", span("bgpsim.run_s", "bgpsim.runs", after=_convergence))

        # Only the scheduler's chain detection: the service's admission
        # detects chains too, then evaluates each through the scheduler.
        pf("repro.experiments.runner", "detect_chains", span(
            "experiments.scenarios.detect_chains_s",
            after=lambda r, a, k: self.add("experiments.scenarios.chains", len(r)),
        ), everywhere=False)
        pf("repro.experiments.runner", "evaluate_requests", self._evaluate_wrapper)
        ectx_cls = runner.ExperimentContext
        pm(ectx_cls, "metric", span(None, "experiments.runner.metric_calls"))
        pm(ectx_cls, "metric_chain", span(None, "experiments.runner.metric_chain_calls"))
        pm(ectx_cls, "map_tasks", span(
            "experiments.runner.map_tasks_s", "experiments.runner.map_tasks_calls",
            after=lambda r, a, k: self.add("experiments.runner.map_tasks_items", len(r)),
        ))
        pm(runner.SupervisedPool, "run", span("experiments.runner.pool_run_s"))

        def _got(result, args, kwargs):
            self.add("store.lookups")
            if result is not None:
                self.add("store.found")

        for cls in (ResultStore, SqliteResultStore):
            pm(cls, "get", span("experiments.store.get_s", "experiments.store.get_calls",
                                after=_got))
            pm(cls, "put", span("experiments.store.put_s", "experiments.store.put_calls"))

        specs = registry.all_experiments()
        for eid, spec in specs.items():
            consume = [f"experiments.consume.{eid}_s"] if eid in CONSUME_IDS else []
            registry._REGISTRY[eid] = dataclasses.replace(
                spec,
                requests=span("experiments.plan_s")(spec.requests),
                run=self._consume_wrapper(spec.run, consume),
            )
        self._undo.append(functools.partial(registry._REGISTRY.update, specs))

        pf("repro.experiments.writeup", "write_markdown", span("writeup.total_s"))
        pf("repro.experiments.writeup", "run_all", span("writeup.run_all_s"))

        pm(Service, "handle_metrics", self._handler_wrapper)
        pm(Service, "context_for", span("service.app.context_for_s"))
        pf("repro.service.jobs", "run_experiment", span("service.jobs.run_s"),
           everywhere=False)
        return self

    # -- wrappers with bespoke bookkeeping ---------------------------
    def _delta_wrapper(self, fn):
        @functools.wraps(fn)
        def happiness_counts(sweep, attacker):
            sweep.last_delta_path = None
            t0 = time.perf_counter()
            result = fn(sweep, attacker)
            self.add("core.routing.delta_s", time.perf_counter() - t0)
            self.add("core.routing.delta_calls")
            path = sweep.last_delta_path
            if path is not None:  # None: a rollout memo hit ran no kernel
                self.add(f"core.routing.delta_path.{DELTA_PATHS[path]}")
            return result

        return happiness_counts

    def _evaluate_wrapper(self, fn):
        @functools.wraps(fn)
        def evaluate_requests(ectx, requests, *args, **kwargs):
            requests = list(requests)
            self.add("experiments.scenarios.declared", len(requests))
            self.add(
                "experiments.scenarios.unique",
                len({request.scenario_hash for request in requests}),
            )
            t0 = time.perf_counter()
            try:
                return fn(ectx, requests, *args, **kwargs)
            finally:
                self.add("experiments.runner.evaluate_s", time.perf_counter() - t0)

        return evaluate_requests

    def _consume_wrapper(self, fn, extra: list[str]):
        @functools.wraps(fn)
        def run(ectx, results):
            t0 = time.perf_counter()
            try:
                return fn(ectx, results)
            finally:
                elapsed = time.perf_counter() - t0
                for name in ["experiments.consume_s", *extra]:
                    self.add(name, elapsed)

        return run

    def _handler_wrapper(self, fn):
        @functools.wraps(fn)
        async def handle_metrics(service, request):
            # Only requests answered from cache are sampled: the cache
            # counters moved by a hit and by nothing else.  The stream is
            # closed-loop, so no other request overlaps a hit.
            before = (service.hits, service.misses, service.coalesced)
            t0 = time.perf_counter()
            result = await fn(service, request)
            elapsed = time.perf_counter() - t0
            hits, misses, coalesced = service.hits, service.misses, service.coalesced
            if hits > before[0] and (misses, coalesced) == before[1:]:
                self.sample("service.app.handler_ms", elapsed * 1e3)
            return result

        return handle_metrics

    # -- results -----------------------------------------------------
    def snapshot(self) -> dict:
        """Raw counters and samples (JSON-ready; crosses processes)."""
        with self._lock:
            return {"values": dict(self.values), "samples": dict(self.samples)}


class PhaseClock(Tracer):
    """Wall time of a ``write-md`` run's coarse phases, in call order.

    The phases are context builds, scenario evaluations and each
    experiment's plan and consume step; a phase started inside another
    is part of the outer one.  Keys carry the occurrence (``evaluate#1``
    is the second evaluation: the IXP rerun), so repetitions of one
    regeneration have the same keys.  About a hundred wrapped calls per
    regeneration: the clock costs nothing measurable.
    """

    def __init__(self) -> None:
        super().__init__()
        self.phases: dict[str, float] = {}
        self._depth = 0
        self._seen: dict[str, int] = defaultdict(int)

    def phase(self, name: str):
        def wrap(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                if self._depth:
                    return fn(*args, **kwargs)
                self._depth += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    self._depth -= 1
                    self.phases[f"{name}#{self._seen[name]}"] = elapsed
                    self._seen[name] += 1

            return timed

        return wrap

    def install(self) -> "PhaseClock":
        for mod in ("repro.experiments.cli", "repro.experiments.writeup"):
            importlib.import_module(mod)
        from repro.experiments import registry

        self.patch_function("repro.experiments.runner", "make_context",
                            self.phase("make_context"))
        self.patch_function("repro.experiments.runner", "evaluate_requests",
                            self.phase("evaluate"))
        specs = registry.all_experiments()
        for eid, spec in specs.items():
            registry._REGISTRY[eid] = dataclasses.replace(
                spec,
                requests=self.phase(f"plan:{eid}")(spec.requests),
                run=self.phase(f"consume:{eid}")(spec.run),
            )
        self._undo.append(functools.partial(registry._REGISTRY.update, specs))
        return self

    def snapshot(self) -> dict:
        return {"phases": dict(self.phases)}


def layer_metrics(snapshots: list[dict], extra: dict[str, float]) -> dict:
    """Fold tracer snapshots (parent and/or child processes) and
    client-side figures into every metric of :data:`LAYER_METRICS`."""
    values: dict[str, float] = defaultdict(float)
    samples: dict[str, list[float]] = defaultdict(list)
    for snap in snapshots:
        for name, value in snap["values"].items():
            values[name] += value
        for name, xs in snap["samples"].items():
            samples[name].extend(xs)
    lookups = values.pop("store.lookups", 0)
    found = values.pop("store.found", 0)
    values["experiments.store.hit_ratio"] = found / lookups if lookups else 0.0
    total = values.pop("writeup.total_s", 0.0)
    run_all = values.pop("writeup.run_all_s", 0.0)
    values["experiments.writeup.render_s"] = max(0.0, total - run_all)
    handler = samples.get("service.app.handler_ms", [])
    if handler:
        values["service.app.handler_p50_ms"] = median(handler)
        values["service.app.handler_p99_ms"] = tail_percentile(handler, 99, 0)[1]
    values.update(extra)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, (unit, _better) in LAYER_METRICS.items()
    }
