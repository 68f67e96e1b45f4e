"""The four workloads: drive the program, check its outputs, derive metrics.

Each workload runs a fixed, seeded request list (:mod:`traffic`) through
the program closed-loop.  A run is:

1. set-up, several times: launch the program and send the untimed warm-up
   (``setup_s`` is their median; only the last program is kept);
2. the timed pass over the request list (end-to-end metrics);
3. with ``--trace 1`` only, a second pass with tracing on (per-layer
   metrics, and ``trace.overhead_pct`` against the untraced pass);
4. the correctness checks, outside any timed window.

Every end-to-end time and rate is stated at the reference host speed: the
measured value divided (a rate: multiplied) by the
:class:`program.SpeedProbe` slowdown over the window it was measured in.
The measured values are printed in the traffic record beside them.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.api as api
from repro.api import canonical_result
from repro.cluster import BackendPool, RouterService
from repro.core.result import evaluate_anchor_set
from repro.graph.graph import Graph
from repro.service.protocol import parse_request_line

import layers
import program
import traffic as traffic_module

SETUPS = 3
#: Fresh specs per run that are re-solved in-process: checked against the
#: program's reply, and (traced pass) replayed under the layer timer.
CHECK_SAMPLE = 24
#: Lines per run the codec timings sample.
CODEC_SAMPLE = 300


@dataclass
class RunResult:
    attempted: int = 0
    succeeded: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    traffic: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def check(self, condition: bool, message: str) -> None:
        if not condition and len(self.problems) < 20:
            self.problems.append(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(canonical_result(payload), sort_keys=True)


def _expected(line: str) -> str:
    outcome = api.solve(parse_request_line(line))
    outcome.raise_for_error()
    return _canonical(outcome.result)  # type: ignore[arg-type]


def _end_to_end(
    latencies: Sequence[float], ok: Sequence[bool], wall: float, setups: Sequence[float]
) -> Dict[str, float]:
    """p50 and p99 (a failed request misses every latency limit),
    successful requests per second of the pass's wall time, and the median
    set-up time; all in seconds in, ms and 1/s out."""
    counted = [latency if good else math.inf for latency, good in zip(latencies, ok)]
    return {
        "latency_p50_ms": 1e3 * statistics.median(counted),
        "latency_p99_ms": 1e3 * percentile(counted, 0.99),
        "throughput_rps": sum(ok) / wall,
        "setup_s": statistics.median(setups),
    }


def _setup_at_reference(
    probe: program.SpeedProbe, launched: float, setup_s: float, cpu: Optional[int] = None
) -> float:
    return setup_s / probe.slowdown(launched, launched + setup_s, cpu)


# ---------------------------------------------------------------------------
# gas-large
# ---------------------------------------------------------------------------
def _host_pass(
    host: program.Host, lines: Sequence[str]
) -> Tuple[List[Dict[str, object]], List[Tuple[float, float]], float, float]:
    """Replies, each solve's ``(sent, replied)`` window, the pass's start and
    its wall time."""
    clock = time.perf_counter
    replies, windows = [], []
    began = clock()
    for line in lines:
        sent = clock()
        replies.append(host.request(line))
        windows.append((sent, clock()))
    return replies, windows, began, clock() - began


def gas_large(
    seed: int, seconds: float, trace: bool, probe: program.SpeedProbe
) -> RunResult:
    inputs = traffic_module.gas_large(seed, seconds)
    run = RunResult(traffic=inputs.record())
    cpu = probe.cpus[0]
    setups: List[Tuple[float, float]] = []
    host = None
    for _ in range(1 if trace else SETUPS):
        if host is not None:
            host.close()
        host, setup_s = program.start_host(False, cpu, inputs.warmup)
        setups.append((host.program.launched, setup_s))
    try:
        replies, windows, began, wall = _host_pass(host, inputs.lines)
        run.metrics["peak_rss_mb"] = host.program.peak_rss_mb()
    finally:
        host.close()
    passes = [replies]
    if trace:
        traced_host, _setup_s = program.start_host(True, cpu, inputs.warmup)
        try:
            traced_replies, _windows, traced_began, traced_wall = _host_pass(
                traced_host, inputs.lines
            )
        finally:
            traced_host.close()
        passes.append(traced_replies)

    for pass_replies in passes:
        for line, edges, reply in zip(inputs.lines, inputs.graphs, pass_replies):
            run.attempted += 1
            outcome = reply["outcome"]
            if not outcome["ok"]:  # type: ignore[index]
                run.check(False, f"solve failed: {outcome['error']}")  # type: ignore[index]
                continue
            run.succeeded += 1
            result = outcome["result"]  # type: ignore[index]
            anchors = [tuple(edge) for edge in result["anchors"]]
            recheck = evaluate_anchor_set(Graph.from_edges(edges), anchors)
            run.check(
                recheck.gain == result["gain"],
                f"{outcome['id']}: reported gain {result['gain']} != "  # type: ignore[index]
                f"re-evaluated {recheck.gain}",
            )
    # Each solve is scaled by its CPU's speed during that solve.
    solve_s = [r["solve_s"] for r in replies]
    ok = [bool(r["outcome"]["ok"]) for r in replies]  # type: ignore[index]
    slowdown = probe.slowdown(began, began + wall, cpu)
    run.traffic["measured"] = _end_to_end(solve_s, ok, wall, [s for _l, s in setups])
    run.metrics.update(
        _end_to_end(
            [s / probe.slowdown(*window, cpu) for s, window in zip(solve_s, windows)],  # type: ignore[operator]
            ok,
            wall / slowdown,
            [_setup_at_reference(probe, *setup, cpu) for setup in setups],
        )
    )
    run.traffic["host_slowdown"] = slowdown
    run.traffic["tail_samples_beyond_p99"] = len(replies) - math.ceil(0.99 * len(replies))

    if trace:
        solves = [
            {"outcome": r["outcome"], "solve_s": r["solve_s"], "layers": r["layers"]}
            for r in traced_replies
        ]
        for solve in solves:
            run.check(
                layers.check_follower_calls(solve),
                "compute_followers calls != sum(recomputed_entries_per_round)",
            )
        run.metrics.update(layers.core_metrics(solves))
        run.metrics.update(
            {
                "api.decode_us": 1e6 * statistics.median(r["decode_s"] for r in traced_replies),
                "api.encode_us": 1e6 * statistics.median(r["encode_s"] for r in traced_replies),
                "api.request_kb": inputs.record()["request_bytes_mean"] / 1024,  # type: ignore[operator]
                "api.response_kb": statistics.fmean(
                    len(json.dumps(r["outcome"], sort_keys=True)) + 1 for r in traced_replies
                )
                / 1024,
                "api.resolve_ms": layers.resolve_ms(inputs.lines),
                "trace.overhead_pct": 100.0
                * (
                    traced_wall / probe.slowdown(traced_began, traced_began + traced_wall, cpu)
                    / (wall / slowdown)
                    - 1.0
                ),
            }
        )
    return run


# ---------------------------------------------------------------------------
# serve-* workloads
# ---------------------------------------------------------------------------
@dataclass
class ServePass:
    latencies: List[float]
    outcomes: List[Dict[str, object]]
    replies: List[str]
    began: float
    wall: float
    scrape: Dict[str, object]
    #: ``(launched, seconds)`` of each set-up.
    setups: List[Tuple[float, float]]
    peak_rss_mb: float

    @property
    def ok(self) -> List[bool]:
        return [bool(o.get("ok")) for o in self.outcomes]


def _serve_pass(argv: Sequence[str], inputs: traffic_module.Traffic, setups: int) -> ServePass:
    """Set up ``setups`` times (keeping the last server), then time one pass."""
    setup_times: List[Tuple[float, float]] = []
    server = None
    for _ in range(setups):
        if server is not None:
            server.close()
        server, setup_s = program.start_server(argv, 2, inputs.warmup)
        setup_times.append((server.program.launched, setup_s))
    try:
        results, began, wall = server.run(inputs.lines)
        peak = server.program.peak_rss_mb()
        scrape = server.scrape("metrics")
    finally:
        server.close()
    replies = [reply for _latency, reply in results]
    return ServePass(
        latencies=[latency for latency, _reply in results],
        outcomes=[json.loads(reply) for reply in replies],
        replies=replies,
        began=began,
        wall=wall,
        scrape=scrape,
        setups=setup_times,
        peak_rss_mb=peak,
    )


def _serve_end_to_end(
    served: ServePass, probe: program.SpeedProbe
) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """End-to-end metrics at the reference speed, as measured, and the
    pass's slowdown."""
    slowdown = probe.slowdown(served.began, served.began + served.wall)
    measured = _end_to_end(
        served.latencies, served.ok, served.wall, [s for _l, s in served.setups]
    )
    scaled = _end_to_end(
        [latency / slowdown for latency in served.latencies],
        served.ok,
        served.wall / slowdown,
        [_setup_at_reference(probe, *setup) for setup in served.setups],
    )
    return scaled, measured, slowdown


def _counter(scrape: Dict[str, object], name: str) -> float:
    return float(scrape.get("counters", {}).get(name, 0))  # type: ignore[union-attr]


def _is_cache_hit(outcome: Dict[str, object]) -> bool:
    cache = outcome.get("cache", {})
    return bool(cache.get("store") or cache.get("memo") or cache.get("router_store"))  # type: ignore[union-attr]


def _expected_replies(inputs: traffic_module.Traffic, seed: int) -> Dict[str, str]:
    """In-process ``repro.api.solve`` of every hot spec and a seeded sample
    of the fresh ones: spec line -> canonical result."""
    fresh = [i for i, kind in enumerate(inputs.kinds) if kind == "fresh"]
    sample = random.Random(f"check:{inputs.workload}:{seed}").sample(
        fresh, min(CHECK_SAMPLE, len(fresh))
    )
    expected = {line: _expected(line) for line in inputs.hot}
    expected.update({inputs.lines[i]: _expected(inputs.lines[i]) for i in sample})
    return expected


def _check_serve(
    run: RunResult,
    inputs: traffic_module.Traffic,
    served: ServePass,
    expected: Dict[str, str],
) -> None:
    """Every reply ok and in order; the expected ones byte-equal."""
    for line, outcome in zip(inputs.lines, served.outcomes):
        run.attempted += 1
        if not outcome.get("ok"):
            run.check(False, f"request failed: {outcome.get('error')}")
            continue
        run.succeeded += 1
        spec_id = json.loads(line)["id"]
        run.check(outcome["id"] == spec_id, f"reply id {outcome['id']} != {spec_id}")
        want = expected.get(line)
        if want is not None:
            run.check(
                _canonical(outcome["result"]) == want,  # type: ignore[arg-type]
                f"{spec_id}: reply differs from in-process repro.api.solve",
            )


def _replay(inputs: traffic_module.Traffic, seed: int, warm: bool) -> List[Dict[str, object]]:
    """Traced in-process replay of a seeded sample of the fresh specs.

    ``warm`` replays through one resident :class:`repro.api.Session` per
    graph, first warmed (untraced) with that graph's hot specs as the
    server's warm-up warms its sessions; otherwise each spec is a cold
    ``repro.api.solve``, as on serve-cold.
    """
    fresh = [inputs.lines[i] for i, kind in enumerate(inputs.kinds) if kind == "fresh"]
    sample = random.Random(f"replay:{inputs.workload}:{seed}").sample(
        fresh, min(CHECK_SAMPLE, len(fresh))
    )
    specs = [parse_request_line(line) for line in sample]
    sessions: Dict[object, api.Session] = {}
    if warm:
        for spec in specs:
            if spec.edges not in sessions:
                sessions[spec.edges] = api.Session(edges=spec.edges)
        for line in inputs.hot:
            hot = parse_request_line(line)
            if hot.edges in sessions:
                sessions[hot.edges].solve(hot).raise_for_error()
    timer = layers.LayerTimer()
    timer.install()
    try:
        solves: List[Dict[str, object]] = []
        for spec in specs:
            call: Callable[[], api.SolveOutcome] = (
                (lambda spec=spec: sessions[spec.edges].solve(spec))
                if warm
                else (lambda spec=spec: api.solve(spec))
            )
            solves.append(layers.traced_solve(timer, call))
    finally:
        timer.restore()
    return solves


def _service_metrics(served: ServePass, inputs: traffic_module.Traffic) -> Dict[str, float]:
    outcomes = served.outcomes
    count = len(outcomes)
    timed = [
        (latency, o["timings"])
        for latency, o in zip(served.latencies, outcomes)
        if o.get("timings")
    ]
    fresh = [o for o in outcomes if o.get("ok") and not _is_cache_hit(o)]
    solver_s = [o["result"]["timings"]["elapsed_seconds"] for o in fresh]  # type: ignore[index]

    def share(test: Callable[[Dict[str, object]], bool]) -> float:
        return sum(1 for o in outcomes if test(o.get("cache", {}))) / count  # type: ignore[arg-type]

    queued = [t["queued_s"] for _l, t in timed]
    sample = inputs.lines[:: max(1, len(inputs.lines) // CODEC_SAMPLE)]
    return {
        "core.solver_ms": 1e3 * statistics.median(solver_s) if solver_s else 0.0,
        "service.queue_ms_p50": 1e3 * statistics.median(queued),
        "service.queue_ms_p99": 1e3 * percentile(queued, 0.99),
        "service.solve_ms_p50": 1e3 * statistics.median(t["solve_s"] for _l, t in timed),
        "service.wire_ms_p50": 1e3
        * statistics.median(l - t["queued_s"] - t["solve_s"] for l, t in timed),
        "service.store_hit_ratio": share(lambda c: bool(c.get("store"))),
        "service.memo_hit_ratio": share(lambda c: bool(c.get("memo"))),
        "service.session_hit_ratio": share(lambda c: c.get("session") == "hit"),
        "service.session_evictions": _counter(served.scrape, "sessions.evictions"),
        "service.retries": _counter(served.scrape, "service.retries"),
        "service.dispatch_ms_p50": 1e3
        * statistics.median(
            o["timings"]["solve_s"] - o["result"]["timings"]["elapsed_seconds"]  # type: ignore[index]
            for o in fresh
        )
        if fresh
        else 0.0,
        "service.spec_pickle_us": layers.spec_pickle_us(sample),
    }


def _cluster_metrics(served: ServePass, inputs: traffic_module.Traffic) -> Dict[str, float]:
    outcomes = served.outcomes
    routed = [
        (latency, o)
        for latency, o in zip(served.latencies, outcomes)
        if o.get("cache", {}).get("backend") is not None  # type: ignore[union-attr]
    ]
    backends: Dict[str, int] = {}
    for _latency, o in routed:
        backend = o["cache"]["backend"]  # type: ignore[index]
        backends[backend] = backends.get(backend, 0) + 1
    router = RouterService(BackendPool(), workers=1)
    try:
        specs = [parse_request_line(line) for line in inputs.lines]
        fingerprint_us = layers.per_call_us(router.fingerprint_of, specs)
    finally:
        router.close()
    return {
        "cluster.router_store_hit_ratio": sum(
            1 for o in outcomes if o.get("cache", {}).get("router_store")  # type: ignore[union-attr]
        )
        / len(outcomes),
        "cluster.hop_ms_p50": 1e3
        * statistics.median(
            latency - o["timings"]["queued_s"] - o["timings"]["solve_s"]  # type: ignore[index]
            for latency, o in routed
        ),
        "cluster.fingerprint_us": fingerprint_us,
        "cluster.backend_session_hit_ratio": sum(
            1 for _l, o in routed if o["cache"].get("session") == "hit"  # type: ignore[union-attr]
        )
        / len(routed),
        "cluster.backend_share_max": max(backends.values()) / len(routed),
        "cluster.reroutes": _counter(served.scrape, "router.reroutes"),
    }


def _serve_workload(
    inputs: traffic_module.Traffic,
    argv: Callable[[bool], List[str]],
    seed: int,
    trace: bool,
    probe: program.SpeedProbe,
    warm: bool,
) -> RunResult:
    run = RunResult(traffic=inputs.record())
    served = _serve_pass(argv(False), inputs, 1 if trace else SETUPS)
    scaled, measured, slowdown = _serve_end_to_end(served, probe)
    run.metrics.update(scaled)
    run.metrics["peak_rss_mb"] = served.peak_rss_mb
    run.traffic.update(
        {
            "measured": measured,
            "host_slowdown": slowdown,
            "achieved_hit_share": sum(1 for o in served.outcomes if _is_cache_hit(o))
            / len(served.outcomes),
            "response_bytes_mean": statistics.fmean(len(r) for r in served.replies),
            "tail_samples_beyond_p99": len(served.outcomes)
            - math.ceil(0.99 * len(served.outcomes)),
        }
    )
    passes = [served]
    if trace:
        traced = _serve_pass(argv(True), inputs, 1)
        passes.append(traced)
        traced_scaled, _measured, _slowdown = _serve_end_to_end(traced, probe)
        sample = max(1, len(inputs.lines) // CODEC_SAMPLE)
        fresh = [inputs.lines[i] for i, k in enumerate(inputs.kinds) if k == "fresh"]
        solves = _replay(inputs, seed, warm)
        for solve in solves:
            run.check(
                layers.check_follower_calls(solve),
                "compute_followers calls != sum(recomputed_entries_per_round)",
            )
        run.metrics.update(layers.core_metrics(solves))
        run.metrics.update(
            layers.api_metrics(inputs.lines[::sample], traced.replies[::sample])
        )
        run.metrics["api.resolve_ms"] = layers.resolve_ms(fresh[:CHECK_SAMPLE])
        run.metrics.update(_service_metrics(traced, inputs))
        if inputs.workload == "serve-routed":
            run.metrics.update(_cluster_metrics(traced, inputs))
            # The cluster command has no --metrics switch: both passes run
            # the same program, so tracing costs it nothing.
            run.metrics["trace.overhead_pct"] = 0.0
        else:
            run.metrics["trace.overhead_pct"] = 100.0 * (
                scaled["throughput_rps"] / traced_scaled["throughput_rps"] - 1.0
            )
    expected = _expected_replies(inputs, seed)
    for served_pass in passes:
        _check_serve(run, inputs, served_pass, expected)
    return run


def serve_warm(
    seed: int, seconds: float, trace: bool, probe: program.SpeedProbe
) -> RunResult:
    # The process executor keeps fresh solves off the coordinator's GIL.
    # Under the thread executor a cache hit waits for GIL hand-offs from
    # the other connection's solve (5 ms switch interval), which put the
    # p50 between two modes: 5.6-8.3 ms over five seeds, against
    # 1.84-1.89 ms here.
    return _serve_workload(
        traffic_module.serve_warm(seed, seconds),
        lambda traced: program.serve_argv("process", 2, traced),
        seed,
        trace,
        probe,
        warm=True,
    )


def serve_cold(
    seed: int, seconds: float, trace: bool, probe: program.SpeedProbe
) -> RunResult:
    return _serve_workload(
        traffic_module.serve_cold(seed, seconds),
        lambda traced: program.serve_argv("process", 2, traced),
        seed,
        trace,
        probe,
        warm=False,
    )


def serve_routed(
    seed: int, seconds: float, trace: bool, probe: program.SpeedProbe
) -> RunResult:
    return _serve_workload(
        traffic_module.serve_routed(seed, seconds),
        lambda _traced: program.cluster_argv(2, 1, traffic_module.ROUTED_SESSION_CACHE),
        seed,
        trace,
        probe,
        warm=True,
    )


WORKLOADS = {
    "gas-large": gas_large,
    "serve-warm": serve_warm,
    "serve-cold": serve_cold,
    "serve-routed": serve_routed,
}
