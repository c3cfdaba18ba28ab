"""``service-hot`` and ``service-mix``: closed-loop streams against ``serve``.

The server runs as a child process (``serve --scale small --preload``,
sqlite store) on loopback.  One client drives a fixed, seeded stream
over two keep-alive connections and sends each request only after the
previous reply arrived: the service's callers are scripts that wait
for each answer.

* ``service-hot`` sends only cached-hash ``POST /v1/metrics`` hits and
  ``GET /v1/scenarios/{hash}`` reads, so its time is the HTTP, admission
  and store read path and nothing else.
* ``service-mix`` adds seeded cold misses, identical cold bodies sent on
  both connections at once (so single-flight coalescing runs),
  ``"stream": true`` NDJSON rollout chains and an experiment job polled
  to completion.  It is the only workload that reaches the evaluation,
  coalescing and job layers through the service.

Both share one server set-up: start to the ready line, then seed the
warm hashes the hits and reads ask for.  Every pass does the same kinds
of work in the same order; ``wall_s`` is the sum over a pass's segments
of each segment's fastest time across the run's passes
(``fastest_parts``), and the record keeps every pass's total.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from .common import (
    ROOT,
    child_env,
    fastest_parts,
    fresh_dir,
    median,
    repeat_timed,
    tail_percentile,
    wait_child,
)
from .tracing import layer_metrics

SCALE = "small"
SETUPS = 5
WARM = 8
#: (attacker, destination) pairs per cold request: the size the cold
#: miss latency (~140 ms at p50) was measured at when the benchmark was
#: specified.
PAIRS = 48
#: Operations per pass, by kind.  There is no record of real service
#: traffic, so the counts are chosen, not measured.  The rule: each
#: layer the stream exists for carries a fixed share of a pass's time,
#: so that doubling that layer's cost moves ``wall_s`` by about its
#: share.  Count = share x pass time / per-operation cost, with costs
#: measured on a 2-vCPU machine at ``small`` scale: a hit or a read
#: ~1.3 ms, a 48-pair cold miss ~190 ms, a coalesced pair about one
#: cold, a 48-pair rollout chain ~500 ms, a ``fig13`` job ~1.2 s.  Each
#: run records the shares it saw (``latency.share``).
#:
#: * service-hot, ~0.5 s passes: hits 75% (the route every repeat
#:   caller takes) and scenario reads 25%.
#: * service-mix, passes of ~4-5.5 s: cached hits 25% and scenario reads 5%
#:   (the read path, gated on its own by service-hot), cold misses 25%
#:   (admission and evaluation, the costliest kind a caller meets),
#:   coalesced pairs and chains ~15% each, and one job (~20%, the
#:   smallest unit).
HOT_MIX = {"hit": 300, "scenario": 100}
MIX = {"hit": 1000, "scenario": 200, "cold": 7, "coalesce": 4, "chain": 2, "job": 1}
SMOKE_MIX = {"hit": 20, "scenario": 4, "cold": 2, "coalesce": 1, "chain": 1, "job": 1}
#: service-hot makes passes while another fits in ``--seconds`` (10 at
#: least).  service-mix makes a fixed count, ``--seconds`` over its
#: nominal pass time: the server keeps every cold result it computed, so
#: its peak RSS grows with each pass and a count that followed the
#: machine's speed would move ``peak_rss_mb``.
MIN_HOT_PASSES = 10
MIX_PASS_S = 4.5
#: consecutive runs of operations a pass is cut into (equal counts):
#: ``wall_s`` adds up each segment's fastest time over the run's passes.
SEGMENTS = {"service-hot": 40, "service-mix": 60}
#: untimed seconds of cached hits and reads before a measured stream,
#: so the first timed pass does not pay for cold caches.
WARMUP_S = 2.0
#: passes of each side of a traced run: the tracing overhead is their
#: difference, so each side measures a few seconds.
TRACE_PASSES = {"service-hot": 8, "service-mix": 2}
#: an experiment whose run is mostly its own work, not scenario-store
#: lookups, so a repeat job costs as much as the first.
JOB_EXPERIMENT = "fig13"
READY_TIMEOUT_S = 60


class Server:
    """One ``serve`` child: started until its ready line, stopped with
    SIGTERM and reaped with ``wait4`` (peak RSS, CPU time)."""

    def __init__(self, work: Path, seed: int, trace_to: Path | None = None):
        self.store_dir = fresh_dir(work / "store")
        cli = ["serve", "--scale", SCALE, "--seed", str(seed), "--preload",
               "--port", "0", "--cache-dir", str(self.store_dir),
               "--store-backend", "sqlite"]
        if trace_to is None:
            argv = [sys.executable, "-m", "repro.experiments", *cli]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_entry.py"),
                    str(trace_to), *cli]
        self._stderr = open(work / "serve.err", "wb")
        self.proc = subprocess.Popen(argv, cwd=work, env=child_env(),
                                     stdout=subprocess.PIPE, stderr=self._stderr)
        self.usage = None
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.stdout.read()
            try:
                _, self.usage = wait_child(self.proc, 60)
            except TimeoutError:
                self.proc.kill()
                self.proc.wait()
                raise
        self.proc.stdout.close()
        self._stderr.close()

    @property
    def peak_rss_mb(self) -> float:
        return self.usage.ru_maxrss / 1024.0


class Client:
    """Two keep-alive connections and everything the gates need."""

    def __init__(self, port: int):
        self.conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=120) for _ in range(2)]
        self.turn = 0
        self.lat: dict[str, list[float]] = {}
        self.requests = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: dict[str, dict] = {}   # hash -> result record seen
        self.scenario_reads: dict[str, dict] = {}

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _conn(self) -> http.client.HTTPConnection:
        self.turn ^= 1
        return self.conns[self.turn]

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    @staticmethod
    def _send(conn, method: str, path: str, body=None) -> None:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        conn.request(method, path, body=payload, headers=headers)

    def _reply(self, conn, what: str):
        resp = conn.getresponse()
        data = resp.read()
        self.requests += 1
        if not 200 <= resp.status < 300:
            self._fail(f"{what}: HTTP {resp.status} {data[:200]!r}")
            return None
        return json.loads(data)

    def _note(self, kind: str, started: float) -> None:
        self.lat.setdefault(kind, []).append(time.perf_counter() - started)

    def _keep_results(self, body, what: str) -> None:
        if body is None:
            return
        if body.get("failed"):
            self._fail(f"{what}: {body['failed']} failed result(s)")
        for event in body["results"]:
            self._keep_event(event, what)

    def _keep_event(self, event: dict, what: str) -> None:
        if not event.get("ok"):
            self._fail(f"{what}: result not ok: {event.get('error')}")
            return
        seen = self.results.setdefault(event["hash"], event["result"])
        if seen != event["result"]:
            self._fail(f"{what}: {event['hash']} answered two different results")

    # -- operations ----------------------------------------------------
    def metrics(self, kind: str, request: dict) -> None:
        conn = self._conn()
        t0 = time.perf_counter()
        self._send(conn, "POST", "/v1/metrics", {"request": request})
        body = self._reply(conn, kind)
        self._note(kind, t0)
        self._keep_results(body, kind)

    def batch(self, requests: list[dict]) -> None:
        conn = self._conn()
        self._send(conn, "POST", "/v1/metrics", {"requests": requests})
        self._keep_results(self._reply(conn, "seed"), "seed")

    def coalesce(self, request: dict) -> None:
        """The same cold body on both connections before either reply."""
        t0 = time.perf_counter()
        for conn in self.conns:
            self._send(conn, "POST", "/v1/metrics", {"request": request})
        for conn in self.conns:
            self._keep_results(self._reply(conn, "coalesce"), "coalesce")
        self._note("coalesce", t0)

    def chain(self, requests: list[dict]) -> None:
        conn = self._conn()
        t0 = time.perf_counter()
        self._send(conn, "POST", "/v1/metrics", {"requests": requests, "stream": True})
        resp = conn.getresponse()
        self.requests += 1
        if resp.status != 200:
            self._fail(f"chain: HTTP {resp.status} {resp.read()[:200]!r}")
            return
        steps, first = 0, None
        for line in resp:
            if not line.strip():
                continue
            event = json.loads(line)
            if event.get("event") == "result":
                steps += 1
                if first is None:
                    first = time.perf_counter() - t0
                self._keep_event(event, "chain")
        self._note("chain", t0)
        self.lat.setdefault("chain_first", []).append(first if first is not None else float("nan"))
        if steps != len(requests):
            self._fail(f"chain: {steps} result events for {len(requests)} steps")

    def scenario(self, scenario_hash: str) -> None:
        conn = self._conn()
        t0 = time.perf_counter()
        self._send(conn, "GET", f"/v1/scenarios/{scenario_hash}")
        body = self._reply(conn, "scenario")
        self._note("scenario", t0)
        if body is not None:
            self.scenario_reads[scenario_hash] = body

    def job(self, experiment: str, seed: int) -> None:
        conn = self._conn()
        t0 = time.perf_counter()
        self._send(conn, "POST", f"/v1/experiments/{experiment}/run",
                   {"scale": SCALE, "seed": seed})
        body = self._reply(conn, "job submit")
        if body is None:
            return
        state = body["state"]
        while state in ("pending", "running"):
            time.sleep(0.01)
            self._send(conn, "GET", f"/v1/jobs/{body['id']}")
            polled = self._reply(conn, "job poll")
            if polled is None:
                return
            state = polled["state"]
        self._note("job", t0)
        if state != "done":
            self._fail(f"job {body['id']} ended {state!r}")

    def stats(self) -> dict:
        conn = self._conn()
        self._send(conn, "GET", "/v1/stats")
        return self._reply(conn, "stats") or {}


class Inputs:
    """Seeded request bodies for one topology (``EvalRequest.canonical``)."""

    def __init__(self, seed: int):
        from repro import core
        from repro.core.deployment import tier12_rollout
        from repro.experiments.runner import make_context

        with make_context(scale=SCALE, seed=seed) as ectx:
            self.asns = list(ectx.graph.asns)
            self.rollout = [step.deployment for step in tier12_rollout(ectx.graph, ectx.tiers)]
            self.deployments = [core.Deployment.empty(), ectx.catalog.get("t12_full"),
                                *self.rollout]
        self.models = (core.BASELINE, core.SECURITY_FIRST, core.SECURITY_SECOND,
                       core.SECURITY_THIRD)
        self.seed = seed
        self.rng = random.Random(f"{seed}/perfbench/service")
        self.warm = [self.cold() for _ in range(WARM)]

    def _pairs(self) -> list[tuple[int, int]]:
        pairs = set()
        while len(pairs) < PAIRS:
            m, d = self.rng.sample(self.asns, 2)
            pairs.add((m, d))
        return sorted(pairs)

    def _request(self, pairs, deployment, model) -> dict:
        from repro.experiments.scenarios import EvalRequest

        return EvalRequest.build(scale=SCALE, seed=self.seed, ixp=False, pairs=pairs,
                                 deployment=deployment, model=model).canonical()

    def cold(self, deployment=None, model=None) -> dict:
        if deployment is None:
            deployment, model = self.rng.choice(self.deployments), self.rng.choice(self.models)
        return self._request(self._pairs(), deployment, model)

    def chain(self) -> list[dict]:
        pairs = self._pairs()
        return [self._request(pairs, dep, self.models[2]) for dep in self.rollout]

    @staticmethod
    def hash_of(request: dict) -> str:
        from repro.experiments.scenarios import EvalRequest

        return EvalRequest.from_canonical(request).scenario_hash

    def plan(self, mix: dict) -> list:
        """The order of a pass's operations: ``mix[kind]`` of each kind,
        shuffled once, with the deployment and model of every cold and
        coalesced request, so that every pass does like work in like
        order (what :func:`fastest_parts` compares).  The order does not
        depend on the seed: seeds change the topology and the pairs, not
        which kinds of work a pass does when."""
        rng = random.Random("perfbench/service/order")
        order = []
        for kind, count in mix.items():
            for _ in range(count):
                shape = None
                if kind in ("cold", "coalesce"):
                    shape = (self.deployments[rng.randrange(len(self.deployments))],
                             self.models[rng.randrange(len(self.models))])
                order.append((kind, shape))
        rng.shuffle(order)
        return order

    def stream(self, order: list) -> list:
        """One pass of ``order``: cold, coalesced and chain requests get
        new pairs in every pass; hits and reads pick a warm hash."""
        warm_hashes = [self.hash_of(r) for r in self.warm]
        make = {
            "hit": lambda shape: self.rng.choice(self.warm),
            "scenario": lambda shape: self.rng.choice(warm_hashes),
            "cold": lambda shape: self.cold(*shape),
            "coalesce": lambda shape: self.cold(*shape),
            "chain": lambda shape: self.chain(),
            "job": lambda shape: self.seed,
        }
        return [(kind, make[kind](shape)) for kind, shape in order]


def _drive(client: Client, ops, segments: int) -> dict[str, float]:
    """Run one pass; returns the seconds of each of ``segments``
    consecutive runs of operations (equal counts)."""
    segments = min(segments, len(ops))
    bounds = [round(i * len(ops) / segments) for i in range(1, segments + 1)]
    parts: dict[str, float] = {}
    t0 = time.perf_counter()
    for i, (kind, arg) in enumerate(ops, 1):
        if kind in ("hit", "cold"):
            client.metrics(kind, arg)
        elif kind == "coalesce":
            client.coalesce(arg)
        elif kind == "chain":
            client.chain(arg)
        elif kind == "scenario":
            client.scenario(arg)
        else:
            client.job(JOB_EXPERIMENT, arg)
        if i == bounds[len(parts)]:
            now = time.perf_counter()
            parts[f"segment{len(parts)}"] = now - t0
            t0 = now
    return parts


def _start(work: Path, inputs: Inputs, trace_to: Path | None = None) -> tuple[Server, Client, float]:
    """Set-up: a server on a fresh store, ready, with the warm hashes
    evaluated once; returns the set-up time with it."""
    t0 = time.perf_counter()
    server = Server(work, inputs.seed, trace_to)
    client = Client(server.port)
    try:
        client.batch(inputs.warm)
    except BaseException:
        client.close()
        server.stop()
        raise
    return server, client, time.perf_counter() - t0


def _verify(server: Server, client: Client) -> None:
    """Every result the service returned equals its store record."""
    from repro.experiments.store import open_store

    with open_store(server.store_dir, backend="sqlite") as store:
        for scenario_hash, result in client.results.items():
            record = store.raw_record(scenario_hash)
            if record is None or record["result"] != result:
                client._fail(f"{scenario_hash}: served result differs from the store record")
        for scenario_hash, payload in client.scenario_reads.items():
            record = store.raw_record(scenario_hash)
            if record is None or payload != {k: v for k, v in record.items() if k != "crc"}:
                client._fail(f"GET /v1/scenarios/{scenario_hash} differs from the store record")


def _latencies(client: Client, wall: float) -> dict:
    lat = {k: [x * 1e3 for x in v] for k, v in client.lat.items()}
    out = {"requests": client.requests, "rps": client.requests / wall,
           # Each kind's share of the timed stream, to check the mix's
           # weighting against what was measured.
           "share": {k: sum(v) / 1e3 / wall for k, v in lat.items() if k != "chain_first"}}
    if lat.get("hit"):
        out["hit_p50_ms"] = median(lat["hit"])
        out["hit_p99_pct"], out["hit_p99_ms"] = tail_percentile(lat["hit"], 99)
        out["hit_samples"] = len(lat["hit"])
    if lat.get("scenario"):
        out["read_p50_ms"] = median(lat["scenario"])
    if lat.get("cold"):
        out["cold_p50_ms"] = median(lat["cold"])
        out["cold_p90_pct"], out["cold_p90_ms"] = tail_percentile(lat["cold"], 90)
        out["cold_samples"] = len(lat["cold"])
    if lat.get("chain"):
        out["chain_first_ms"] = median(lat["chain_first"])
        out["chain_s"] = median(lat["chain"]) / 1e3
    if lat.get("job"):
        out["job_s"] = median(lat["job"]) / 1e3
    return out


def _session(work, inputs, passes, order, segments=1, trace_to=None, seconds=0.0,
             warmup=0.0):
    """Start a server, warm it up for ``warmup`` seconds of hits and
    reads, drive at least ``passes`` passes of the stream (more while
    another fits in ``seconds``), stop the server and verify every
    answer against its store; returns the per-segment seconds of each
    pass."""
    server, client, setup = _start(work, inputs, trace_to)
    try:
        if warmup:
            hot = inputs.plan(HOT_MIX)
            repeat_timed(warmup, 1, lambda: _drive(client, inputs.stream(hot), 1))
            client.lat.clear()
        walls = repeat_timed(seconds, passes,
                             lambda: _drive(client, inputs.stream(order), segments))
        stats = client.stats()
    finally:
        client.close()
        server.stop()
    _verify(server, client)
    return server, client, setup, walls, stats


def _stat_counters(stats: dict) -> dict:
    cache = stats.get("cache", {})
    return {
        "hits": cache.get("hits", 0), "misses": cache.get("misses", 0),
        "coalesced": cache.get("coalesced", 0),
        "shed": stats.get("admission", {}).get("shed", 0),
        "evaluations": stats.get("evaluations", 0),
    }


def run(work: Path, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    # Client and server share one CPU: in a closed loop one of them
    # waits while the other works, and cross-CPU wake-ups (whose cost
    # varies with where the scheduler put each side) stay out of the
    # figures.  The server inherits the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    inputs = Inputs(seed)
    mix = HOT_MIX if workload == "service-hot" else MIX
    if smoke:
        mix = {kind: SMOKE_MIX[kind] for kind in mix}
    order = inputs.plan(mix)
    problems: list[str] = []
    record: dict = {"scale": SCALE, "connections": 2, "loop": "closed", "pairs": PAIRS,
                    "mix": mix}
    if trace:
        # Traced figures include the set-up's work (seeding warm hashes).
        passes = 1 if smoke else TRACE_PASSES[workload]
        plain = _session(work, inputs, passes, order)
        trace_file = work / "trace.json"
        traced = _session(work, inputs, passes, order, trace_to=trace_file)
        done = [plain[:2], traced[:2]]
        plain_wall = sum(sum(parts.values()) for parts in plain[3])
        traced_wall = sum(sum(parts.values()) for parts in traced[3])
        client, stats = traced[1], traced[4]
        snap = json.loads(trace_file.read_text(encoding="utf-8")) if trace_file.exists() else None
        if snap is None:
            problems.append("traced server left no trace")
        hit_ms = [x * 1e3 for x in client.lat.get("hit", [])]
        handler_ms = (snap or {}).get("samples", {}).get("service.app.handler_ms", [])
        counters = _stat_counters(stats)
        extra = {f"service.app.{k}": v for k, v in counters.items()}
        extra.update({
            # Client round trip minus server handler time, at the median.
            "service.http.overhead_p50_ms": (
                median(hit_ms) - median(handler_ms) if hit_ms and handler_ms else 0.0),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": plain_wall,
            "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
        })
        metrics = layer_metrics([snap] if snap else [], extra)
        record["latency"] = _latencies(client, traced_wall)
    else:
        setups, done = [], []
        for _ in range(0 if smoke else SETUPS - 1):
            server, client, setup = _start(work, inputs)
            client.close()
            server.stop()
            setups.append(setup)
            done.append((server, client))
        if smoke:
            passes, budget = 1, 0.0
        elif workload == "service-hot":
            passes, budget = MIN_HOT_PASSES, seconds
        else:
            passes, budget = max(3, round(seconds / MIX_PASS_S)), 0.0
        server, client, setup, parts, stats = _session(
            work, inputs, passes, order, SEGMENTS[workload], seconds=budget,
            warmup=0.0 if smoke else WARMUP_S)
        done.append((server, client))
        setups.append(setup)
        counters = _stat_counters(stats)
        walls = [sum(p.values()) for p in parts]
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": fastest_parts(parts), "unit": "s"},
            "peak_rss_mb": {"value": server.peak_rss_mb, "unit": "MB"},
        }
        record.update(passes=len(walls), segments=SEGMENTS[workload],
                      wall_s_estimator="sum over a pass's segments of each segment's "
                                       "fastest time",
                      wall_s_each=walls, wall_s_median_pass=median(walls),
                      setup_s_each=setups, latency=_latencies(client, sum(walls)))
    record["stats"] = counters
    attempted = failed = 0
    for server, client in done:
        attempted += client.requests
        failed += client.failed
        problems += client.problems
        if server.proc.returncode not in (0, 128 + signal.SIGTERM):
            problems.append(f"serve exited {server.proc.returncode}")
    if "coalesce" in mix and counters["coalesced"] <= 0:
        problems.append("no request coalesced onto an in-flight evaluation")
    if counters["shed"] != 0:
        problems.append(f"{counters['shed']} request(s) shed: latency would measure shedding")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "record": record}
