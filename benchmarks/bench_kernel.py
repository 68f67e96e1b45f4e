#!/usr/bin/env python
"""Before/after benchmark of the truss kernel and the solver engine.

Two generations of the same harness write into ``BENCH_kernel.json``:

* the **PR 1 sections** (``decomposition`` / ``followers`` / ``gas``) time
  the integer-indexed kernel against the seed tuple-domain implementation
  (``legacy_mode`` patches the seams).  The "after" bar is the *pre-engine*
  solver stack, preserved as ``gas_reference``, so the numbers stay
  comparable across PRs;
* the **``engine`` section** (PR 2) times the ``SolverEngine`` layer —
  incremental re-peeling of commits and of BASE's per-candidate
  evaluations — against that same pre-engine stack
  (``base_greedy_reference`` / ``gas_reference``) on the Fig. 9 stand-ins.
  Targets: BASE >= 5x end to end, GAS no slower (>= 0.9x to absorb noise);
* the **``engine_v2`` section** (PR 3) times the incremental component-tree
  maintenance plus the lazy candidate heap against the PR 2 engine
  (``tree_mode="rebuild"`` + ``candidates="scan"`` force the old behaviour
  on the *same* code base, so the bar isolates exactly the two new
  mechanisms).  Targets: GAS >= 2x end to end on the Fig. 9 stand-ins,
  BASE and exact at parity (>= 0.9x — they do not use the tree, the rows
  guard against accidental regressions);
* the **``service`` section** (PR 4) times the serving layer: a warm
  ``SolveService`` (engine-session cache + grouped batching + memoisation)
  against cold single-shot solves of the same request batch (target: >= 3x
  throughput on the Fig. 9 stand-ins), asserts batched results are
  byte-identical to single-shot solves for **every** registered solver, and
  records the ROADMAP's paper-budget (b=100) heap-vs-scan GAS row on the
  largest stand-in loaded through the on-disk SNAP pipeline;
* the **``api`` section** (PR 5) covers the ``repro.api`` v1 redesign: a
  byte-identity grid of every registered solver across {raw solver-fn
  path, ``repro.api``} x {thread, process} executors x {stdio, tcp}
  transports, the process-pool vs thread-pool wall clock on a 4-graph
  Fig. 9 stand-in workload (target: >= 1.8x given >= 2 cores;
  ``cpu_count`` is recorded so 1-core boxes read honestly), and the GAS
  warm-path win from the persisted baseline follower cache;
* the **``resilience`` section** (PR 6) measures the resilience layer:
  overload fast-reject latency (a shed request must answer in
  microseconds, not solve time), worker-crash recovery wall clock (kill a
  process worker, time until the rebuilt pool answers), and steady-state
  throughput with admission control armed vs the unbounded service on the
  same workload (target: >= 0.95x — bounded admission must be ~free when
  not shedding);
* the **``kernel_v2`` section** (PR 7) times the array-native kernel —
  CSR triangle enumeration (:mod:`repro.graph.csr`) plus the vectorised
  bucketed peel (:mod:`repro.truss.peel`) — against the seed reference on
  the same stand-ins and with the same fields as the PR 1
  ``decomposition`` / ``gas`` sections.  Targets: cold
  ``truss_decomposition`` >= 5x (the cold bar now includes the array
  index build), anchored sequence and GAS re-run in the same section so
  the trajectory stays comparable.  The resolved peel backend and numba
  availability are recorded alongside;
* the **``world`` section** (PR 8) measures the scenario world
  (:mod:`repro.world`): wall time of the registry-wide sweep over the
  sampled parameter space, the per-family spread of the incremental
  engine's speedup over forced full re-peels (GAS with
  ``full_peel_threshold`` inf vs 0.0), and the invariant rig pass on the
  same points (the recorded ``violations`` count must stay 0);
* the **``obs`` section** (PR 9) measures the observability layer
  (:mod:`repro.obs`): instrumented-vs-uninstrumented warm-path wall clock
  on the same workload (target: <= 3% overhead), canonical-result byte
  identity between an obs-off service and a fully armed one (process-global
  registry + per-request trace), and the content of a live metrics scrape
  and a completed trace;
* the **``cluster`` section** (PR 10) measures the sharded serving tier
  (:mod:`repro.cluster`): routed-vs-direct canonical byte identity for
  every registered solver over thread and process backends, 3-backend vs
  1-backend routed throughput with the cluster-wide warm-shard session
  hit rate (merged ``sessions.*`` counters), mid-batch backend-kill
  failover with survivors byte-identical, the router-tier result store
  answering repeats, and the re-attempted process-vs-thread row gated on
  ``os.cpu_count() >= 2`` (``cpu_count`` recorded either way).

Run with::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--full] [--smoke]
        [--engine-only] [--engine-v2-only] [--service-only] [--api-only]
        [--resilience-only] [--kernel-v2-only] [--world-only] [--obs-only]
        [--cluster-only] [--force] [--output PATH]

``--engine-only`` / ``--engine-v2-only`` / ``--service-only`` /
``--api-only`` / ``--resilience-only`` / ``--kernel-v2-only`` /
``--world-only`` / ``--obs-only`` / ``--cluster-only`` recompute
just that section and
merge it into the existing output file.  Sections already present in the
output are **never overwritten** unless ``--force`` is given (the ROADMAP's
trajectory rule: later PRs append comparable sections, they do not replace
history).  ``--smoke`` shrinks every section to the smallest stand-in for CI.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import repro.core.gas  # noqa: F401 - imported for sys.modules lookup below
from repro.core.component_tree import TrussComponentTree
from repro.core.exact import exact_atr
from repro.core.followers import FollowerMethod, compute_followers
from repro.core.followers_reference import (
    followers_candidate_peel_reference,
    followers_support_check_reference,
)
from repro.core.gas import gas, gas_reference
from repro.core.greedy import base_greedy, base_greedy_reference
from repro.core.reuse import compute_reuse_decision_reference
from repro.datasets import extract_ego_subgraph, load_dataset
from repro.service.protocol import result_to_json as result_to_json_payload
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.graph.sampling import sample_edges
from repro.truss import state as state_module
from repro.truss.decomposition import (
    truss_decomposition,
    truss_decomposition_reference,
)
from repro.truss.state import TrussState

# ``repro.core.gas`` the module is shadowed by the ``gas`` function re-export
# on the package, so fetch it from sys.modules.
gas_module = sys.modules["repro.core.gas"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"

#: Number of growing anchor sets in the anchored-sequence benchmark (the
#: laptop profile's budget sweep tops out at b=10 and the paper uses b=100;
#: BASE additionally runs one decomposition per *candidate* per round, so a
#: 12-round sequence is a conservative stand-in for the solver access
#: pattern).
ANCHOR_ROUNDS = 12
#: Candidate edges evaluated in the follower benchmark.
FOLLOWER_CANDIDATES = 60
#: Fig. 9 sampling seed (matches the quick experiment profile).
SAMPLING_SEED = 42


def _legacy_compute_followers(
    state: TrussState,
    anchor,
    method=FollowerMethod.SUPPORT_CHECK,
    candidate_filter=None,
    candidate_filter_ids=None,
):
    """Dispatch to the seed follower implementations (tuple filters only).

    Both dense-id spellings are converted to a tuple filter: an id set, and
    the ``(node_of_eid, node_ids)`` membership pair the GAS loop passes.
    """
    if candidate_filter_ids is not None:
        edge_of = state.index.edge_of
        if isinstance(candidate_filter_ids, tuple):
            node_of_eid, node_ids = candidate_filter_ids
            candidate_filter_ids = [
                eid for eid, node_id in enumerate(node_of_eid) if node_id in node_ids
            ]
        candidate_filter = {edge_of[eid] for eid in candidate_filter_ids}
    method = FollowerMethod(method)
    if method is FollowerMethod.PEEL:
        return followers_candidate_peel_reference(state, anchor, candidate_filter)
    return followers_support_check_reference(state, anchor, candidate_filter)


@contextmanager
def legacy_mode() -> Iterator[None]:
    """Temporarily run the whole solver stack on the seed implementation.

    Patches the four kernel seams: the decomposition used by
    ``TrussState.compute``, the component-tree construction (per-level
    tuple-domain triangle connectivity, per-edge ``sla``), the follower
    machinery used by the (pre-engine) GAS loop, and the triangle queries
    behind ``TrussState.triangle_list``.
    """
    saved_decomposition = state_module.truss_decomposition
    saved_build = TrussComponentTree.build
    saved_followers = gas_module.compute_followers
    saved_reuse = gas_module.compute_reuse_decision
    saved_triangle_list = TrussState.triangle_list

    def legacy_triangle_list(self: TrussState, edge) -> list:
        return list(self._triangles_reference(edge))

    state_module.truss_decomposition = truss_decomposition_reference
    TrussComponentTree.build = TrussComponentTree.build_reference  # type: ignore[method-assign]
    gas_module.compute_followers = _legacy_compute_followers
    gas_module.compute_reuse_decision = compute_reuse_decision_reference
    TrussState.triangle_list = legacy_triangle_list  # type: ignore[method-assign]
    try:
        yield
    finally:
        state_module.truss_decomposition = saved_decomposition
        TrussComponentTree.build = saved_build  # type: ignore[method-assign]
        gas_module.compute_followers = saved_followers
        gas_module.compute_reuse_decision = saved_reuse
        TrussState.triangle_list = saved_triangle_list  # type: ignore[method-assign]


def _timed(fn: Callable[[], object], repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (shaves scheduler noise)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _anchor_sets(graph: Graph) -> List[List[tuple]]:
    """Deterministic growing anchor sets: prefixes of the edge-id order."""
    edges = graph.edge_list()[:ANCHOR_ROUNDS]
    return [edges[: i + 1] for i in range(len(edges))]


def bench_decomposition(name: str, graph: Graph) -> Dict[str, object]:
    anchor_sets = _anchor_sets(graph)

    # Cold: the kernel pays its one-off index build (fresh copy has no cached
    # index; the copy itself happens outside the timed region).
    fresh_cold = graph.copy()
    reference_cold = _timed(lambda: truss_decomposition_reference(graph))
    kernel_cold = _timed(lambda: truss_decomposition(fresh_cold))

    # Anchored sequence: one decomposition per growing anchor set — the
    # access pattern of the greedy rounds (BASE additionally runs one per
    # candidate).  The kernel side runs warm: inside any solver the index
    # already exists, because the follower machinery and the component tree
    # share the same snapshot.  The cold number above reports the one-off
    # build cost transparently.
    def run_reference() -> None:
        truss_decomposition_reference(graph)
        for anchors in anchor_sets:
            truss_decomposition_reference(graph, anchors)

    def run_kernel() -> None:
        truss_decomposition(fresh_cold)
        for anchors in anchor_sets:
            truss_decomposition(fresh_cold, anchors)

    reference_seq = _timed(run_reference, repeats=3)
    kernel_seq = _timed(run_kernel, repeats=3)

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "cold": {
            "reference_s": round(reference_cold, 4),
            "kernel_s": round(kernel_cold, 4),
            "speedup": round(reference_cold / kernel_cold, 2),
        },
        "anchored_sequence": {
            "rounds": 1 + len(anchor_sets),
            "reference_s": round(reference_seq, 4),
            "kernel_s": round(kernel_seq, 4),
            "speedup": round(reference_seq / kernel_seq, 2),
        },
    }


def bench_followers(name: str, graph: Graph) -> Dict[str, object]:
    candidates = graph.edge_list()[:FOLLOWER_CANDIDATES]

    with legacy_mode():
        state = TrussState.compute(graph)
        legacy_s = _timed(
            lambda: [followers_support_check_reference(state, e) for e in candidates],
            repeats=3,
        )

    fresh = graph.copy()
    state = TrussState.compute(fresh)
    kernel_s = _timed(
        lambda: [compute_followers(state, e, method="support-check") for e in candidates],
        repeats=3,
    )

    return {
        "edges": graph.num_edges,
        "candidates": len(candidates),
        "reference_s": round(legacy_s, 4),
        "kernel_s": round(kernel_s, 4),
        "speedup": round(legacy_s / kernel_s, 2),
    }


def bench_gas(name: str, graph: Graph, budget: int, repeats: int = 5) -> Dict[str, object]:
    # The "kernel" bar of this PR 1 section is the *pre-engine* solver stack
    # (gas_reference), so the numbers stay comparable with earlier runs; the
    # engine layer is measured separately in bench_engine_gas.  Pre-warm the
    # graph's cached index so the legacy run does not pay for a kernel
    # structure it never uses; the kernel run gets a fresh copy and pays its
    # own index build end-to-end.  Best-of-N on both sides to shave
    # scheduler noise.
    GraphIndex.of(graph)
    legacy_s = math.inf
    kernel_s = math.inf
    for _ in range(repeats):
        with legacy_mode():
            legacy_result = gas_reference(graph, budget)
        fresh = graph.copy()
        kernel_result = gas_reference(fresh, budget)
        if legacy_result.anchors != kernel_result.anchors:  # pragma: no cover
            raise AssertionError(
                f"kernel GAS diverged from legacy GAS on {name}: "
                f"{legacy_result.anchors} != {kernel_result.anchors}"
            )
        legacy_s = min(legacy_s, legacy_result.elapsed_seconds)
        kernel_s = min(kernel_s, kernel_result.elapsed_seconds)
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "budget": budget,
        "reference_s": round(legacy_s, 4),
        "kernel_s": round(kernel_s, 4),
        "speedup": round(legacy_s / kernel_s, 2),
    }


# ---------------------------------------------------------------------------
# PR 2: the SolverEngine layer (incremental re-peeling) vs the PR 1 stack
# ---------------------------------------------------------------------------
def bench_engine_pair(
    label: str,
    name: str,
    graph: Graph,
    budget: int,
    reference_fn: Callable,
    engine_fn: Callable,
    repeats: int,
) -> Dict[str, object]:
    """Pre-engine solver vs its engine counterpart, asserting identical anchors."""
    GraphIndex.of(graph)
    reference_s = math.inf
    engine_s = math.inf
    for _ in range(repeats):
        reference_result = reference_fn(graph, budget)
        engine_result = engine_fn(graph, budget)
        if reference_result.anchors != engine_result.anchors:  # pragma: no cover
            raise AssertionError(
                f"engine {label} diverged from pre-engine {label} on {name}: "
                f"{reference_result.anchors} != {engine_result.anchors}"
            )
        reference_s = min(reference_s, reference_result.elapsed_seconds)
        engine_s = min(engine_s, engine_result.elapsed_seconds)
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "budget": budget,
        "reference_s": round(reference_s, 4),
        "engine_s": round(engine_s, 4),
        "speedup": round(reference_s / engine_s, 2),
    }


def run_engine_section(
    gas_graphs: Dict[str, Graph],
    base_graphs: Dict[str, Graph],
    base_budget: int,
    gas_budget: int,
) -> Dict[str, object]:
    section: Dict[str, object] = {
        "description": "SolverEngine layer (incremental re-peeling) vs the "
        "pre-engine PR 1 solver stack (base_greedy_reference / gas_reference)",
        "targets": {"base": 5.0, "gas": 0.9},
        "base": {},
        "gas": {},
    }
    runs = (
        # (section key, banner, graphs, budget, reference, engine, repeats)
        # BASE's reference bar runs a full decomposition per candidate, so
        # one repetition is already expensive; GAS is cheap enough for
        # best-of-5.
        ("base", "BASE (incremental per-candidate re-peel)", base_graphs,
         base_budget, base_greedy_reference, base_greedy, 1),
        ("gas", "GAS (incremental commits)", gas_graphs,
         gas_budget, gas_reference, gas, 5),
    )
    for key, banner, graphs, budget, reference_fn, engine_fn, repeats in runs:
        print(f"== engine: {banner} ==")
        for name, graph in graphs.items():
            entry = bench_engine_pair(
                key.upper(), name, graph, budget, reference_fn, engine_fn, repeats
            )
            section[key][name] = entry
            print(
                f"{name:>14}  {entry['speedup']:>7.2f}x  "
                f"({entry['reference_s']}s -> {entry['engine_s']}s, b={budget})"
            )
    base_min = min(entry["speedup"] for entry in section["base"].values())
    gas_min = min(entry["speedup"] for entry in section["gas"].values())
    section["summary"] = {
        "base_speedup_min": base_min,
        "gas_speedup_min": gas_min,
        "meets_base_target": base_min >= 5.0,
        "gas_not_slower": gas_min >= 0.9,
    }
    return section


def merge_engine_summary(report: Dict[str, object]) -> None:
    """Propagate the engine section's summary into the top-level summary."""
    engine_summary = report["engine"]["summary"]
    summary = report.setdefault("summary", {})
    summary["engine_base_speedup_min"] = engine_summary["base_speedup_min"]
    summary["engine_gas_speedup_min"] = engine_summary["gas_speedup_min"]
    summary["meets_engine_base_target"] = engine_summary["meets_base_target"]
    summary["engine_gas_not_slower"] = engine_summary["gas_not_slower"]


# ---------------------------------------------------------------------------
# PR 3: incremental component tree + lazy candidate heap vs the PR 2 engine
# ---------------------------------------------------------------------------
def _gas_v2(graph: Graph, budget: int):
    """GAS with the PR 3 defaults: patched tree + lazy candidate heap."""
    return gas(graph, budget)


def _gas_pr2(graph: Graph, budget: int):
    """GAS forced onto the PR 2 engine path: full tree rebuild + full scan."""
    return gas(graph, budget, tree_mode="rebuild", candidates="scan")


def run_engine_v2_section(
    gas_graphs: Dict[str, Graph],
    exact_graphs: Dict[str, Graph],
    gas_budget: int,
    base_budget: int,
    exact_budget: int,
) -> Dict[str, object]:
    """The PR 3 section: same harness, new bars.

    The "reference" bar is the PR 2 engine itself (``tree_mode="rebuild"``,
    ``candidates="scan"``), so the measured speedup isolates exactly the
    incremental tree patch and the candidate heap.  GAS uses a larger budget
    than the ``engine`` section (the two mechanisms only pay off from round
    two onwards; the paper's budgets are 100).  BASE and exact never touch
    the component tree — their rows run the identical engine path twice and
    guard parity.
    """
    section: Dict[str, object] = {
        "description": "incremental component-tree maintenance + lazy candidate "
        "heap (PR 3) vs the PR 2 engine (full tree rebuild + full candidate "
        "scan per round), same solver code with the old paths forced",
        "targets": {"gas": 2.0, "base": 0.9, "exact": 0.9},
        "gas": {},
        "base": {},
        "exact": {},
    }
    runs = (
        ("gas", "GAS (tree patch + candidate heap)", gas_graphs,
         gas_budget, _gas_pr2, _gas_v2, 5),
        ("base", "BASE (parity guard, no tree use)", gas_graphs,
         base_budget, base_greedy, base_greedy, 3),
        ("exact", "exact (parity guard, no tree use)", exact_graphs,
         exact_budget, exact_atr, exact_atr, 3),
    )
    for key, banner, graphs, budget, reference_fn, engine_fn, repeats in runs:
        print(f"== engine_v2: {banner} ==")
        for name, graph in graphs.items():
            entry = bench_engine_pair(
                key.upper(), name, graph, budget, reference_fn, engine_fn, repeats
            )
            section[key][name] = entry
            print(
                f"{name:>14}  {entry['speedup']:>7.2f}x  "
                f"({entry['reference_s']}s -> {entry['engine_s']}s, b={budget})"
            )
    gas_min = min(entry["speedup"] for entry in section["gas"].values())
    base_min = min(entry["speedup"] for entry in section["base"].values())
    exact_min = min(entry["speedup"] for entry in section["exact"].values())
    section["summary"] = {
        "gas_speedup_min": gas_min,
        "base_speedup_min": base_min,
        "exact_speedup_min": exact_min,
        "meets_gas_target": gas_min >= 2.0,
        "base_at_parity": base_min >= 0.9,
        "exact_at_parity": exact_min >= 0.9,
    }
    return section


def merge_engine_v2_summary(report: Dict[str, object]) -> None:
    """Propagate the engine_v2 summary into the top-level summary."""
    v2 = report["engine_v2"]["summary"]
    summary = report.setdefault("summary", {})
    summary["engine_v2_gas_speedup_min"] = v2["gas_speedup_min"]
    summary["meets_engine_v2_gas_target"] = v2["meets_gas_target"]
    summary["engine_v2_base_at_parity"] = v2["base_at_parity"]
    summary["engine_v2_exact_at_parity"] = v2["exact_at_parity"]


# ---------------------------------------------------------------------------
# PR 4: the serving layer (warm engine sessions + batching) vs cold solves
# ---------------------------------------------------------------------------
#: Per-stand-in serving workload: (algorithm, budget, params).  Each template
#: repeats SERVICE_REPEAT times in the batch — the repeated-request pattern an
#: engine-session cache (and the memo) is built for.
SERVICE_WORKLOAD = (
    ("gas", 2, {}),
    ("sup", 5, {"seed": 7, "repetitions": 5}),
    ("base", 1, {}),
)
SERVICE_REPEAT = 4

#: Determinism rows: one representative request per registered solver (the
#: section asserts batched-service output == single-shot solve for each).
SERVICE_DETERMINISM = {
    "base": ("college", 2, {}),
    "base+": ("college", 2, {}),
    "gas": ("college", 3, {}),
    "rand": ("college", 3, {"seed": 11, "repetitions": 10}),
    "sup": ("college", 3, {"seed": 11, "repetitions": 10}),
    "tur": ("college", 3, {"seed": 11, "repetitions": 10}),
    "exact": ("exact", 2, {}),
}


def _service_requests(name: str, graph: Graph, repeat: int) -> list:
    from repro.api import SolveSpec

    edges = tuple(graph.edge_list())
    return [
        SolveSpec(
            request_id=f"{name}/{algorithm}/b{budget}/{round_index}",
            edges=edges,
            algorithm=algorithm,
            budget=budget,
            params=params,
        )
        for round_index in range(repeat)
        for algorithm, budget, params in SERVICE_WORKLOAD
    ]


def bench_service_workload(name: str, graph: Graph, repeat: int) -> Dict[str, object]:
    """Warm batched serving vs cold single-shot solves of the same requests.

    *Cold* runs every request through a zero-capacity, memo-free service —
    a fresh engine (index + baseline peel) per request, i.e. the
    ``repro-atr solve`` cost paid N times.  *Warm* runs the identical batch
    through a caching service: one session per graph, repeats answered from
    the memo.  Both sides must agree canonically on every response — the
    speedup only counts if the answers are byte-identical.
    """
    from repro.service import SolveService, run_batch

    requests = _service_requests(name, graph, repeat)
    with SolveService(workers=1, session_capacity=0, memoize=False) as cold_service:
        cold_start = time.perf_counter()
        cold_responses = [cold_service.solve(request) for request in requests]
        cold_s = time.perf_counter() - cold_start
    with SolveService(workers=2, session_capacity=4, memoize=True) as warm_service:
        warm_start = time.perf_counter()
        warm_responses = run_batch(warm_service, requests)
        warm_s = time.perf_counter() - warm_start
        warm_stats = warm_service.stats()
    for cold, warm in zip(cold_responses, warm_responses):
        if not cold.ok or cold.canonical() != warm.canonical():  # pragma: no cover
            raise AssertionError(
                f"service diverged from cold solve on {cold.request_id}: "
                f"{cold.error or cold.canonical()} != {warm.error or warm.canonical()}"
            )
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "requests": len(requests),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_throughput_rps": round(len(requests) / cold_s, 2),
        "warm_throughput_rps": round(len(requests) / warm_s, 2),
        "speedup": round(cold_s / warm_s, 2),
        "memo_hits": warm_stats["memo_hits"],
        "session_hits": warm_stats["sessions"]["hits"],  # type: ignore[index]
    }


def bench_service_determinism(exact_graph: Graph) -> Dict[str, object]:
    """Byte-identity of batched service results vs single-shot solves.

    Covers **every** solver in the registry (a newly registered solver that
    is not given a determinism row fails the run, on purpose).  Each request
    is submitted to the warm service twice — the second answer comes from
    the session/memo — and both must match the canonical single-shot result.
    """
    from repro.api import SolveSpec
    from repro.core.engine import available_solvers, get_solver
    from repro.service import SolveService, canonical_result

    missing = set(available_solvers()) - set(SERVICE_DETERMINISM)
    if missing:  # pragma: no cover - trips when a solver gains no row
        raise AssertionError(
            f"no determinism row for registered solver(s): {sorted(missing)}; "
            "extend SERVICE_DETERMINISM"
        )
    college = load_dataset("college")
    exact_edges = tuple(exact_graph.edge_list())
    college_edges = tuple(college.edge_list())
    rows: Dict[str, bool] = {}
    with SolveService(workers=2, session_capacity=4, memoize=True) as service:
        for solver_name in available_solvers():
            source, budget, params = SERVICE_DETERMINISM[solver_name]
            graph = exact_graph if source == "exact" else college
            edges = exact_edges if source == "exact" else college_edges
            single = get_solver(solver_name)(graph, budget, **dict(params))
            expected = json.dumps(
                canonical_result(result_to_json_payload(single)), sort_keys=True
            )
            request = SolveSpec(
                request_id=f"determinism/{solver_name}",
                edges=edges,
                algorithm=solver_name,
                budget=budget,
                params=params,
            )
            for attempt in ("fresh", "memo"):
                response = service.solve(request)
                got = json.dumps(canonical_result(response.result), sort_keys=True)
                if got != expected:  # pragma: no cover
                    raise AssertionError(
                        f"service result for {solver_name} ({attempt}) differs "
                        "from single-shot solve"
                    )
            rows[solver_name] = True
    return {"identical": all(rows.values()), "solvers": rows}


def bench_service_paper_budget(
    dataset_name: str, budget: int
) -> Dict[str, object]:
    """Heap-vs-scan at a paper-scale budget on a graph loaded from disk.

    The ROADMAP follow-up: the lazy candidate heap's advantage compounds
    with every round, so the b=5 ``engine_v2`` rows understate it.  The
    graph goes through the on-disk SNAP pipeline (materialise -> parse ->
    ``.npz`` reload), whose timings are recorded alongside.
    """
    from repro.core.gas import gas as gas_solver
    from repro.datasets import load_snap_report, materialize_dataset

    with tempfile.TemporaryDirectory() as tmp_dir:
        path = materialize_dataset(dataset_name, tmp_dir)
        parse_start = time.perf_counter()
        graph, first = load_snap_report(path)
        parse_s = time.perf_counter() - parse_start
        reload_start = time.perf_counter()
        graph, second = load_snap_report(path)
        reload_s = time.perf_counter() - reload_start
        assert first["cache"] == "rebuilt" and second["cache"] == "hit"
    GraphIndex.of(graph)
    heap_start = time.perf_counter()
    heap_result = gas_solver(graph, budget)
    heap_s = time.perf_counter() - heap_start
    scan_start = time.perf_counter()
    scan_result = gas_solver(graph, budget, candidates="scan")
    scan_s = time.perf_counter() - scan_start
    if heap_result.anchors != scan_result.anchors:  # pragma: no cover
        raise AssertionError(
            f"heap GAS diverged from scan GAS at b={budget} on {dataset_name}"
        )
    return {
        "dataset": dataset_name,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "budget": budget,
        "loader": {
            "parse_s": round(parse_s, 4),
            "npz_reload_s": round(reload_s, 4),
        },
        "scan_s": round(scan_s, 4),
        "heap_s": round(heap_s, 4),
        "speedup": round(scan_s / heap_s, 2),
    }


def run_service_section(
    service_graphs: Dict[str, Graph],
    exact_graph: Graph,
    paper_dataset: str,
    paper_budget: int,
) -> Dict[str, object]:
    section: Dict[str, object] = {
        "description": "SolveService (engine-session cache + request batching "
        "+ memoisation) vs cold single-shot solves of the same request batch; "
        "determinism rows assert batched output == single-shot solve for "
        "every registered solver; paper_budget records heap-vs-scan GAS at "
        "paper scale on a graph loaded through the on-disk SNAP pipeline",
        "targets": {"warm_vs_cold": 3.0},
        "workloads": {},
    }
    print("== service: warm batched vs cold single-shot ==")
    for name, graph in service_graphs.items():
        entry = bench_service_workload(name, graph, SERVICE_REPEAT)
        section["workloads"][name] = entry
        print(
            f"{name:>14}  {entry['speedup']:>7.2f}x  "
            f"({entry['cold_s']}s -> {entry['warm_s']}s, "
            f"{entry['requests']} requests, {entry['memo_hits']} memo hits)"
        )
    print("== service: determinism across the registry ==")
    section["determinism"] = bench_service_determinism(exact_graph)
    print(f"identical: {sorted(section['determinism']['solvers'])}")
    print(f"== service: paper budget b={paper_budget} on {paper_dataset} ==")
    entry = bench_service_paper_budget(paper_dataset, paper_budget)
    section["paper_budget"] = entry
    print(
        f"{paper_dataset:>14}  {entry['speedup']:>7.2f}x  "
        f"(scan {entry['scan_s']}s -> heap {entry['heap_s']}s)"
    )
    warm_min = min(entry["speedup"] for entry in section["workloads"].values())
    section["summary"] = {
        "warm_vs_cold_speedup_min": warm_min,
        "meets_warm_target": warm_min >= 3.0,
        "determinism_identical": section["determinism"]["identical"],
        "paper_budget_heap_speedup": section["paper_budget"]["speedup"],
    }
    return section


def merge_service_summary(report: Dict[str, object]) -> None:
    """Propagate the service summary into the top-level summary."""
    service = report["service"]["summary"]
    summary = report.setdefault("summary", {})
    summary["service_warm_vs_cold_speedup_min"] = service["warm_vs_cold_speedup_min"]
    summary["meets_service_warm_target"] = service["meets_warm_target"]
    summary["service_determinism_identical"] = service["determinism_identical"]
    summary["service_paper_budget_heap_speedup"] = service["paper_budget_heap_speedup"]


# ---------------------------------------------------------------------------
# PR 5: repro.api v1 — executor/transport identity grid, process-pool
# parallelism, and the GAS warm-path win
# ---------------------------------------------------------------------------
def bench_api_identity_grid(exact_graph: Graph) -> Dict[str, object]:
    """Canonical byte-identity of every solver across every execution path.

    For each registered solver the same canonical spec runs through: the raw
    solver-fn path (a hand-driven ``SolverEngine``, the way embedding code
    bypasses the service), ``repro.api.solve``, a thread-executor service, a
    process-executor service, the stdio transport and the TCP transport.
    All six canonical payloads must be byte-identical — the acceptance grid
    of the ``repro.api`` redesign.
    """
    import io

    import repro.api as api
    from repro.api import SolveSpec, canonical_result
    from repro.core.engine import SolverEngine, available_solvers, get_solver
    from repro.service import (
        SolveService,
        StdioTransport,
        TcpTransport,
        request_lines_over_tcp,
    )

    missing = set(available_solvers()) - set(SERVICE_DETERMINISM)
    if missing:  # pragma: no cover - trips when a solver gains no row
        raise AssertionError(
            f"no identity row for registered solver(s): {sorted(missing)}; "
            "extend SERVICE_DETERMINISM"
        )
    college = load_dataset("college")
    paths = ("solver_fn", "api", "thread", "process", "stdio", "tcp")
    rows: Dict[str, Dict[str, bool]] = {}

    with SolveService(workers=2, executor="thread") as thread_service, SolveService(
        workers=2, executor="process"
    ) as process_service:
        tcp = TcpTransport(port=0)
        host, port = tcp.start(thread_service)
        for solver_name in available_solvers():
            source, budget, params = SERVICE_DETERMINISM[solver_name]
            graph = exact_graph if source == "exact" else college
            spec = SolveSpec(
                request_id=f"grid/{solver_name}",
                edges=tuple(graph.edge_list()),
                algorithm=solver_name,
                budget=budget,
                params=dict(params),
            )
            # 1. the raw solver-fn path: an unbound spec against a
            # hand-driven engine, the way embedding code bypasses the service
            unbound = SolveSpec(
                algorithm=solver_name, budget=budget, params=dict(params)
            )
            engine = SolverEngine(graph)
            engine.reset(unbound.initial_anchors)
            engine.solve_count += 1
            raw_result = get_solver(solver_name).fn(engine, unbound)
            payloads = {
                "solver_fn": canonical_result(result_to_json_payload(raw_result))
            }
            # 2. the canonical one-shot
            payloads["api"] = canonical_result(api.solve(spec).result)
            # 3./4. both executors
            payloads["thread"] = canonical_result(thread_service.solve(spec).result)
            payloads["process"] = canonical_result(process_service.solve(spec).result)
            # 5. stdio transport
            stdout = io.StringIO()
            StdioTransport(
                stdin=io.StringIO(json.dumps(spec.to_json_dict()) + "\n"),
                stdout=stdout,
            ).serve(thread_service)
            payloads["stdio"] = canonical_result(
                json.loads(stdout.getvalue())["result"]
            )
            # 6. tcp transport
            (line,) = request_lines_over_tcp(
                host, port, [json.dumps(spec.to_json_dict())]
            )
            payloads["tcp"] = canonical_result(json.loads(line)["result"])

            expected = json.dumps(payloads["solver_fn"], sort_keys=True)
            row = {
                path: json.dumps(payloads[path], sort_keys=True) == expected
                for path in paths
            }
            if not all(row.values()):  # pragma: no cover
                raise AssertionError(
                    f"identity grid diverged for {solver_name}: "
                    f"{[path for path, ok in row.items() if not ok]}"
                )
            rows[solver_name] = row
        tcp.close()
    return {
        "paths": list(paths),
        "solvers": rows,
        "identical": all(all(row.values()) for row in rows.values()),
    }


def bench_api_executors(
    workload_graphs: Dict[str, Graph], budget: int, workers: int
) -> Dict[str, object]:
    """Process-executor vs thread-executor wall clock on a multi-graph batch.

    One GAS request per distinct graph: the thread executor overlaps them
    under one GIL, the process executor runs them on separate cores.  Both
    sides serve the identical batch through fresh, memo-free services and
    must agree canonically on every outcome.  The >= 1.8x target needs real
    cores — ``cpu_count`` is recorded so a 1-core CI box reading ~1.0x is
    interpretable.
    """
    import os

    from repro.api import SolveSpec, canonical_result
    from repro.service import SolveService

    specs = [
        SolveSpec(
            request_id=name,
            edges=tuple(graph.edge_list()),
            algorithm="gas",
            budget=budget,
        )
        for name, graph in workload_graphs.items()
    ]
    with SolveService(workers=workers, memoize=False) as thread_service:
        thread_start = time.perf_counter()
        thread_outcomes = thread_service.solve_many(specs)
        thread_s = time.perf_counter() - thread_start
    with SolveService(
        workers=workers, memoize=False, executor="process"
    ) as process_service:
        process_start = time.perf_counter()
        process_outcomes = process_service.solve_many(specs)
        process_s = time.perf_counter() - process_start
    for thread_outcome, process_outcome in zip(thread_outcomes, process_outcomes):
        if (
            not thread_outcome.ok
            or canonical_result(thread_outcome.result)
            != canonical_result(process_outcome.result)
        ):  # pragma: no cover
            raise AssertionError(
                f"executors diverged on {thread_outcome.request_id}"
            )
    return {
        "graphs": {
            name: {"vertices": g.num_vertices, "edges": g.num_edges}
            for name, g in workload_graphs.items()
        },
        "budget": budget,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "thread_s": round(thread_s, 4),
        "process_s": round(process_s, 4),
        "speedup": round(thread_s / process_s, 2),
    }


def bench_api_gas_warm_path(name: str, graph: Graph, budget: int) -> Dict[str, object]:
    """The ROADMAP PR 4 follow-up: GAS's first round on a warm session.

    A session's first GAS solve snapshots the baseline follower cache;
    every later unanchored solve restores it, so round one recomputes zero
    candidate followers.  Measures cold vs warm end-to-end on one engine
    and records the recompute counts that prove the mechanism.
    """
    from repro.core.engine import SolverEngine

    GraphIndex.of(graph)
    engine = SolverEngine(graph)
    cold_start = time.perf_counter()
    cold = engine.solve("gas", budget)
    cold_s = time.perf_counter() - cold_start
    warm_s = math.inf
    for _ in range(3):
        warm_start = time.perf_counter()
        warm = engine.solve("gas", budget)
        warm_s = min(warm_s, time.perf_counter() - warm_start)
    if warm.anchors != cold.anchors:  # pragma: no cover
        raise AssertionError(f"warm GAS diverged from cold GAS on {name}")
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "budget": budget,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
        "cold_round1_recomputes": cold.extra["recomputed_entries_per_round"][0],
        "warm_round1_recomputes": warm.extra["recomputed_entries_per_round"][0],
    }


def run_api_section(
    executor_graphs: Dict[str, Graph],
    warm_graphs: Dict[str, Graph],
    exact_graph: Graph,
    executor_budget: int,
    warm_budget: int,
    workers: int,
) -> Dict[str, object]:
    section: Dict[str, object] = {
        "description": "repro.api v1: canonical byte-identity of every solver "
        "across {raw solver-fn path, repro.api} x {thread, process} "
        "executors x {stdio, tcp} transports; process-pool vs thread-pool "
        "wall clock on a multi-graph batch (needs >= 2 cores to show "
        "parallelism); GAS warm-path win from the persisted baseline "
        "follower cache",
        "targets": {"process_vs_thread": 1.8, "gas_warm_path": 1.0},
    }
    print("== api: identity grid (paths x solvers) ==")
    section["identity_grid"] = bench_api_identity_grid(exact_graph)
    print(f"identical across {section['identity_grid']['paths']}: "
          f"{sorted(section['identity_grid']['solvers'])}")
    print("== api: process vs thread executor (multi-graph batch) ==")
    entry = bench_api_executors(executor_graphs, executor_budget, workers)
    section["executors"] = entry
    print(
        f"{len(executor_graphs)} graphs  {entry['speedup']:>7.2f}x  "
        f"(thread {entry['thread_s']}s -> process {entry['process_s']}s, "
        f"{entry['cpu_count']} cpu(s))"
    )
    print("== api: GAS warm path (persisted baseline followers) ==")
    section["gas_warm_path"] = {}
    for name, graph in warm_graphs.items():
        entry = bench_api_gas_warm_path(name, graph, warm_budget)
        section["gas_warm_path"][name] = entry
        print(
            f"{name:>14}  {entry['speedup']:>7.2f}x  "
            f"({entry['cold_s']}s -> {entry['warm_s']}s, round-1 recomputes "
            f"{entry['cold_round1_recomputes']} -> {entry['warm_round1_recomputes']})"
        )
    warm_min = min(entry["speedup"] for entry in section["gas_warm_path"].values())
    section["summary"] = {
        "identity_grid_identical": section["identity_grid"]["identical"],
        "process_vs_thread_speedup": section["executors"]["speedup"],
        "cpu_count": section["executors"]["cpu_count"],
        "meets_process_target": section["executors"]["speedup"] >= 1.8,
        "gas_warm_path_speedup_min": warm_min,
        "gas_warm_round1_recomputes": max(
            entry["warm_round1_recomputes"]
            for entry in section["gas_warm_path"].values()
        ),
    }
    return section


def merge_api_summary(report: Dict[str, object]) -> None:
    """Propagate the api summary into the top-level summary."""
    api_summary = report["api"]["summary"]
    summary = report.setdefault("summary", {})
    summary["api_identity_grid_identical"] = api_summary["identity_grid_identical"]
    summary["api_process_vs_thread_speedup"] = api_summary["process_vs_thread_speedup"]
    summary["api_meets_process_target"] = api_summary["meets_process_target"]
    summary["api_gas_warm_path_speedup_min"] = api_summary["gas_warm_path_speedup_min"]


# ---------------------------------------------------------------------------
# PR 6: resilience layer — overload fast-reject, crash recovery, admission
# overhead at steady state
# ---------------------------------------------------------------------------
def bench_resilience_fast_reject(samples: int) -> Dict[str, object]:
    """Latency of a shed response while the service is saturated.

    A shed request must cost an admission-counter check, not a solve: the
    worker is pinned by a long fault-solver sleep, the queue depth is zero,
    and every probe request is timed from ``submit`` to resolved future.
    """
    from repro.service import SolveService

    edges = tuple(load_dataset("college").edge_list())
    with SolveService(workers=1, max_inflight=1, max_queue_depth=0) as service:
        blocker = service.submit(
            _fault_probe_spec("blocker", edges, sleep_s=max(0.5, samples * 0.01))
        )
        latencies = []
        for index in range(samples):
            start = time.perf_counter()
            outcome = service.submit(
                _fault_probe_spec(f"probe-{index}", edges, nonce=index)
            ).result()
            latencies.append(time.perf_counter() - start)
            if outcome.ok or outcome.error_kind != "overloaded":  # pragma: no cover
                raise AssertionError(
                    f"probe {index} was not shed: {outcome.canonical()}"
                )
        blocker.result()
        shed = service.stats()["shed"]
    latencies.sort()
    return {
        "samples": samples,
        "shed": shed,
        "p50_us": round(latencies[len(latencies) // 2] * 1e6, 1),
        "p99_us": round(latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))] * 1e6, 1),
        "max_us": round(latencies[-1] * 1e6, 1),
    }


def _fault_probe_spec(request_id: str, edges, **params):
    from repro.api import SolveSpec
    from repro.service.faults import FAULT_SOLVER

    return SolveSpec(
        request_id=request_id,
        edges=edges,
        algorithm=FAULT_SOLVER,
        budget=1,
        params=params,
    )


def bench_resilience_crash_recovery(rounds: int) -> Dict[str, object]:
    """Wall clock from a worker crash to the rebuilt pool answering again.

    Each round kills the single process worker with a crash fault
    (``max_attempts=1``: no retry, so the number measures detection +
    rebuild, not backoff) and times crash-submit -> next successful solve.
    """
    from repro.service import RetryPolicy, SolveService

    edges = tuple(load_dataset("college").edge_list())
    recovery_s = []
    with SolveService(
        workers=1,
        executor="process",
        retry_policy=RetryPolicy(max_attempts=1),
    ) as service:
        # Warm the pool so round one measures recovery, not process start-up.
        if not service.solve(_fault_probe_spec("warm", edges)).ok:  # pragma: no cover
            raise AssertionError("warm-up solve failed")
        for index in range(rounds):
            start = time.perf_counter()
            crashed = service.solve(
                _fault_probe_spec(f"crash-{index}", edges, fault="crash", nonce=index)
            )
            revived = service.solve(
                _fault_probe_spec(f"revive-{index}", edges, nonce=index)
            )
            recovery_s.append(time.perf_counter() - start)
            if crashed.error_kind != "worker_crash" or not revived.ok:  # pragma: no cover
                raise AssertionError(
                    f"round {index}: {crashed.canonical()} / {revived.canonical()}"
                )
        stats = service.stats()
    return {
        "rounds": rounds,
        "mean_s": round(sum(recovery_s) / len(recovery_s), 4),
        "max_s": round(max(recovery_s), 4),
        "worker_crashes": stats["worker_crashes"],
        "pool_rebuilds": stats["pool_rebuilds"],
    }


def bench_resilience_steady_state(repeat: int, workers: int) -> Dict[str, object]:
    """Admission-control overhead when nothing is shed.

    The identical GAS workload runs through an unbounded service and a
    bounded one whose window is wide enough to admit everything; bounded
    throughput must stay >= 0.95x (the counters are two lock acquisitions
    per request — effectively free next to a solve).
    """
    from repro.api import SolveSpec
    from repro.service import SolveService

    edges = tuple(load_dataset("college").edge_list())
    specs = [
        SolveSpec(
            request_id=f"steady-{index}",
            edges=edges,
            algorithm="gas",
            budget=2,
            params={},
        )
        for index in range(repeat)
    ]

    def run(**kwargs) -> float:
        with SolveService(workers=workers, memoize=False, **kwargs) as service:
            start = time.perf_counter()
            outcomes = service.solve_many(specs)
            elapsed = time.perf_counter() - start
        if not all(outcome.ok for outcome in outcomes):  # pragma: no cover
            raise AssertionError("steady-state workload failed")
        return elapsed

    unbounded_s = run()
    bounded_s = run(max_inflight=workers, max_queue_depth=len(specs))
    return {
        "requests": repeat,
        "workers": workers,
        "unbounded_s": round(unbounded_s, 4),
        "bounded_s": round(bounded_s, 4),
        "throughput_ratio": round(unbounded_s / bounded_s, 3),
    }


def run_resilience_section(
    reject_samples: int, crash_rounds: int, steady_repeat: int, workers: int
) -> Dict[str, object]:
    from repro.service.faults import install_fault_solver, uninstall_fault_solver

    section: Dict[str, object] = {
        "description": "resilience layer (PR 6): overload fast-reject latency "
        "(shed = admission check, not solve time), worker-crash recovery "
        "wall clock (detect BrokenProcessPool + rebuild + answer), and "
        "steady-state throughput with admission control armed vs the "
        "unbounded service on the same workload",
        "targets": {"steady_state_throughput_ratio": 0.95},
    }
    install_fault_solver()
    try:
        print("== resilience: overload fast-reject latency ==")
        entry = bench_resilience_fast_reject(reject_samples)
        section["fast_reject"] = entry
        print(
            f"{entry['samples']} shed probes  p50 {entry['p50_us']}us  "
            f"p99 {entry['p99_us']}us"
        )
        print("== resilience: worker-crash recovery ==")
        entry = bench_resilience_crash_recovery(crash_rounds)
        section["crash_recovery"] = entry
        print(
            f"{entry['rounds']} crash(es)  mean {entry['mean_s']}s  "
            f"max {entry['max_s']}s  (rebuilds {entry['pool_rebuilds']})"
        )
        print("== resilience: steady-state admission overhead ==")
        entry = bench_resilience_steady_state(steady_repeat, workers)
        section["steady_state"] = entry
        print(
            f"{entry['requests']} requests  ratio {entry['throughput_ratio']}x  "
            f"(unbounded {entry['unbounded_s']}s vs bounded {entry['bounded_s']}s)"
        )
    finally:
        # Solver-table assertions elsewhere must never see the fault solver.
        uninstall_fault_solver()
    section["summary"] = {
        "fast_reject_p99_us": section["fast_reject"]["p99_us"],
        "crash_recovery_mean_s": section["crash_recovery"]["mean_s"],
        "steady_state_throughput_ratio": section["steady_state"]["throughput_ratio"],
        "meets_steady_state_target": section["steady_state"]["throughput_ratio"] >= 0.95,
    }
    return section


def merge_resilience_summary(report: Dict[str, object]) -> None:
    """Propagate the resilience summary into the top-level summary."""
    resilience_summary = report["resilience"]["summary"]
    summary = report.setdefault("summary", {})
    summary["resilience_fast_reject_p99_us"] = resilience_summary["fast_reject_p99_us"]
    summary["resilience_crash_recovery_mean_s"] = resilience_summary[
        "crash_recovery_mean_s"
    ]
    summary["resilience_steady_state_throughput_ratio"] = resilience_summary[
        "steady_state_throughput_ratio"
    ]
    summary["resilience_meets_steady_state_target"] = resilience_summary[
        "meets_steady_state_target"
    ]


# ---------------------------------------------------------------------------
# PR 7: the array-native kernel (CSR enumeration + vectorised peel) vs the
# seed reference, same stand-ins and fields as the PR 1 sections
# ---------------------------------------------------------------------------
def bench_decomposition_v2(name: str, graph: Graph) -> Dict[str, object]:
    """Cold + anchored-sequence timings of the array-native kernel.

    Same fields as :func:`bench_decomposition` so the ``kernel_v2`` rows read
    like the PR 1 ``decomposition`` rows.  The cold bar is best-of-7 with a
    *fresh copy per repetition* (a repeat on the same graph would hit the
    cached index and measure the warm path); copies are made outside the
    timed region, and reference/kernel repetitions are interleaved so timing
    drift affects both sides alike.  One untimed warm-up run on each side
    first-touches the allocator arenas and lazy imports, so the recorded
    numbers measure the kernels rather than process start-up.
    """
    anchor_sets = _anchor_sets(graph)
    cold_repeats = 7
    copies = [graph.copy() for _ in range(cold_repeats)]
    truss_decomposition(graph.copy())
    truss_decomposition_reference(graph)
    # Interleave the two sides rep by rep so slow scheduler/thermal periods
    # hit both measurements equally instead of biasing whichever block ran
    # during the dip.
    reference_cold = math.inf
    kernel_cold = math.inf
    for fresh in copies:
        start = time.perf_counter()
        truss_decomposition_reference(graph)
        reference_cold = min(reference_cold, time.perf_counter() - start)
        start = time.perf_counter()
        truss_decomposition(fresh)
        kernel_cold = min(kernel_cold, time.perf_counter() - start)

    warm = copies[0]  # index already built by the cold run above

    def run_reference() -> None:
        truss_decomposition_reference(graph)
        for anchors in anchor_sets:
            truss_decomposition_reference(graph, anchors)

    def run_kernel() -> None:
        truss_decomposition(warm)
        for anchors in anchor_sets:
            truss_decomposition(warm, anchors)

    reference_seq = _timed(run_reference, repeats=3)
    kernel_seq = _timed(run_kernel, repeats=3)

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "cold": {
            "reference_s": round(reference_cold, 4),
            "kernel_s": round(kernel_cold, 4),
            "speedup": round(reference_cold / kernel_cold, 2),
        },
        "anchored_sequence": {
            "rounds": 1 + len(anchor_sets),
            "reference_s": round(reference_seq, 4),
            "kernel_s": round(kernel_seq, 4),
            "speedup": round(reference_seq / kernel_seq, 2),
        },
    }


def run_kernel_v2_section(
    decomposition_datasets: List[str],
    gas_graphs: Dict[str, Graph],
    gas_budget: int,
    gas_repeats: int,
) -> Dict[str, object]:
    import gc

    from repro.truss.peel import (
        get_peel_backend,
        numba_available,
        resolve_peel_backend,
    )

    # The preloaded stand-ins hold millions of objects; freeze them out of
    # the collector so the timed regions measure the kernels rather than
    # gen-2 scans triggered mid-build.
    gc.collect()
    gc.freeze()

    section: Dict[str, object] = {
        "description": "array-native kernel (PR 7): CSR triangle enumeration "
        "(repro.graph.csr) + vectorised bucketed peel (repro.truss.peel) vs "
        "the seed tuple-domain reference; same stand-ins and fields as the "
        "PR 1 decomposition/gas sections, cold bar includes the array index "
        "build",
        "targets": {"cold_truss_decomposition": 5.0, "gas": 3.0},
        "backend": {
            "configured": get_peel_backend(),
            "resolved": resolve_peel_backend(),
            "numba_available": numba_available(),
        },
        "decomposition": {},
        "gas": {},
    }
    print("== kernel_v2: truss_decomposition (array-native kernel) ==")
    for name in decomposition_datasets:
        graph = load_dataset(name)
        entry = bench_decomposition_v2(name, graph)
        section["decomposition"][name] = entry
        print(
            f"{name:>10}  cold {entry['cold']['speedup']:>6.2f}x   "
            f"anchored-sequence {entry['anchored_sequence']['speedup']:>6.2f}x"
        )
    print("== kernel_v2: gas() end-to-end (pre-engine stack) ==")
    for name, graph in gas_graphs.items():
        entry = bench_gas(name, graph, gas_budget, repeats=gas_repeats)
        section["gas"][name] = entry
        print(
            f"{name:>14}  {entry['speedup']:>6.2f}x  "
            f"({entry['reference_s']}s -> {entry['kernel_s']}s)"
        )
    cold_min = min(
        entry["cold"]["speedup"] for entry in section["decomposition"].values()
    )
    anchored_min = min(
        entry["anchored_sequence"]["speedup"]
        for entry in section["decomposition"].values()
    )
    gas_min = min(entry["speedup"] for entry in section["gas"].values())
    section["summary"] = {
        "cold_speedup_min": cold_min,
        "anchored_speedup_min": anchored_min,
        "gas_speedup_min": gas_min,
        "meets_cold_target": cold_min >= 5.0,
        "meets_gas_target": gas_min >= 3.0,
        "resolved_backend": section["backend"]["resolved"],
    }
    return section


def merge_kernel_v2_summary(report: Dict[str, object]) -> None:
    """Propagate the kernel_v2 summary into the top-level summary."""
    v2 = report["kernel_v2"]["summary"]
    summary = report.setdefault("summary", {})
    summary["kernel_v2_cold_speedup_min"] = v2["cold_speedup_min"]
    summary["kernel_v2_anchored_speedup_min"] = v2["anchored_speedup_min"]
    summary["kernel_v2_gas_speedup_min"] = v2["gas_speedup_min"]
    summary["kernel_v2_meets_cold_target"] = v2["meets_cold_target"]
    summary["kernel_v2_resolved_backend"] = v2["resolved_backend"]


def run_world_section(
    points_count: int,
    seed: int,
    budget: int,
    n_range: tuple,
) -> Dict[str, object]:
    import statistics

    from repro.core.engine import get_solver
    from repro.world.axes import WorldAxes, sample_points
    from repro.world.invariants import InvariantViolation, check_world_point
    from repro.world.sweep import run_sweep

    axes = WorldAxes(n=n_range)
    points = sample_points(points_count, seed=seed, axes=axes)
    section: Dict[str, object] = {
        "description": "scenario world (PR 8): registry-wide sweep wall time "
        "over the sampled parameter space, per-family incremental-vs-full "
        "engine speedup spread (gas, full_peel_threshold inf vs 0.0) and "
        "the invariant rig pass on the same points",
        "axes": {"families": list(axes.families), "n": list(axes.n)},
        "sweep": {},
        "engine_speedup_by_family": {},
        "invariants": {},
    }

    print("== world: registry-wide sweep ==")
    start = time.perf_counter()
    rows = run_sweep(points, budget=budget)
    wall = time.perf_counter() - start
    section["sweep"] = {
        "points": len(points),
        "rows": len(rows),
        "budget": budget,
        "wall_s": round(wall, 4),
        "families": sorted({row["family"] for row in rows}),
    }
    print(f"  {len(rows)} rows over {len(points)} points in {wall:.2f}s")

    print("== world: incremental vs full re-peel (gas) ==")
    gas_solver = get_solver("gas")
    speedups_by_family: Dict[str, List[float]] = {}
    for point in points:
        graph = point.build_graph()
        if graph.num_edges < 2:
            continue
        point_budget = min(budget, graph.num_edges)
        full_s = _timed(
            lambda: gas_solver(graph, point_budget, full_peel_threshold=0.0)
        )
        incremental_s = _timed(
            lambda: gas_solver(graph, point_budget, full_peel_threshold=math.inf)
        )
        speedups_by_family.setdefault(point.family, []).append(
            full_s / max(incremental_s, 1e-9)
        )
    for family, speedups in sorted(speedups_by_family.items()):
        entry = {
            "points": len(speedups),
            "min": round(min(speedups), 3),
            "median": round(statistics.median(speedups), 3),
            "max": round(max(speedups), 3),
        }
        section["engine_speedup_by_family"][family] = entry
        print(
            f"  {family:>10}  median {entry['median']:>6.2f}x  "
            f"(min {entry['min']:.2f}x / max {entry['max']:.2f}x)"
        )

    print("== world: invariant rig ==")
    violations = 0
    for point in points:
        try:
            check_world_point(point)
        except InvariantViolation as exc:
            violations += 1
            print(f"  VIOLATION: {exc}")
    section["invariants"] = {
        "points_checked": len(points),
        "violations": violations,
    }
    print(f"  {len(points)} point(s) checked, {violations} violation(s)")

    medians = [
        entry["median"] for entry in section["engine_speedup_by_family"].values()
    ]
    section["summary"] = {
        "sweep_wall_s": section["sweep"]["wall_s"],
        "families": len(section["sweep"]["families"]),
        "violations": violations,
        "engine_speedup_median_min": min(medians) if medians else None,
        "engine_speedup_median_max": max(medians) if medians else None,
    }
    return section


def merge_world_summary(report: Dict[str, object]) -> None:
    """Propagate the world summary into the top-level summary."""
    world = report["world"]["summary"]
    summary = report.setdefault("summary", {})
    summary["world_sweep_wall_s"] = world["sweep_wall_s"]
    summary["world_families"] = world["families"]
    summary["world_violations"] = world["violations"]
    summary["world_engine_speedup_median_min"] = world["engine_speedup_median_min"]
    summary["world_engine_speedup_median_max"] = world["engine_speedup_median_max"]


# ---------------------------------------------------------------------------
# obs section (PR 9): telemetry overhead, identity, exposition
# ---------------------------------------------------------------------------
def run_obs_section(
    dataset: str, batches: int, solves_per_batch: int, budget: int
) -> Dict[str, object]:
    """Measure the observability layer against its own invariants.

    Three rows: (1) instrumented-vs-uninstrumented warm-path wall clock on
    the same workload (two thread-executor services, warm sessions,
    ``memoize=False`` so every request really solves; batches interleaved
    A/B/B/A to cancel drift, min batch mean per side — target overhead
    <= 3%); (2) canonical-result byte identity between an obs-off service
    and a fully armed one (process-global registry + per-request trace);
    (3) what a live metrics scrape and a completed trace actually contain.
    """
    import statistics

    from repro.api.spec import SolveSpec
    from repro.obs.metrics import MetricsRegistry, set_default_registry
    from repro.obs.tracing import get_trace, new_trace_id
    from repro.service import SolveService, canonical_result

    graph = load_dataset(dataset)
    edges = tuple(graph.edge_list())
    section: Dict[str, object] = {
        "description": "observability layer (PR 9): instrumented vs "
        "uninstrumented warm-path wall clock on the same workload, "
        "obs-on/off canonical-result byte identity, and the content of a "
        "live metrics scrape and a completed request trace",
        "workload": {
            "dataset": dataset,
            "edges": graph.num_edges,
            "algorithm": "gas",
            "budget": budget,
            "batches": batches,
            "solves_per_batch": solves_per_batch,
        },
    }

    def _spec(request_id: str) -> SolveSpec:
        return SolveSpec(
            request_id=request_id, edges=edges, algorithm="gas", budget=budget
        )

    def _batch(service: SolveService, tag: str) -> float:
        start = time.perf_counter()
        for index in range(solves_per_batch):
            outcome = service.solve(_spec(f"{tag}-{index}"))
            assert outcome.ok, outcome.error
        return (time.perf_counter() - start) / solves_per_batch

    print("== obs: instrumented vs uninstrumented warm path ==")
    with SolveService(workers=1, memoize=False) as instrumented, SolveService(
        workers=1, memoize=False, metrics=False
    ) as bare:
        # Warm both sessions before measuring.
        _batch(instrumented, "warm-on")
        _batch(bare, "warm-off")
        on_means: List[float] = []
        off_means: List[float] = []
        for round_index in range(batches):
            # A/B/B/A ordering cancels slow drift (thermal, allocator).
            if round_index % 2 == 0:
                on_means.append(_batch(instrumented, f"on-{round_index}"))
                off_means.append(_batch(bare, f"off-{round_index}"))
            else:
                off_means.append(_batch(bare, f"off-{round_index}"))
                on_means.append(_batch(instrumented, f"on-{round_index}"))
        snapshot = instrumented.metrics.snapshot()
    on_s = min(on_means)
    off_s = min(off_means)
    overhead_pct = (on_s - off_s) / off_s * 100.0
    section["overhead"] = {
        "instrumented_s": round(on_s, 6),
        "uninstrumented_s": round(off_s, 6),
        "overhead_pct": round(overhead_pct, 2),
        "target_pct": 3.0,
        "instrumented_mean_s": round(statistics.mean(on_means), 6),
        "uninstrumented_mean_s": round(statistics.mean(off_means), 6),
    }
    print(
        f"  per-solve {off_s * 1e3:.3f}ms bare -> {on_s * 1e3:.3f}ms "
        f"instrumented ({overhead_pct:+.2f}%, target <= 3%)"
    )

    section["exposition"] = {
        "counters": sorted(snapshot["counters"]),
        "histograms": sorted(snapshot["histograms"]),
        "solve_count": snapshot["histograms"]["service.solve_s"]["count"],
    }

    print("== obs: canonical-result byte identity (off vs fully armed) ==")
    with SolveService(workers=1, memoize=False, metrics=False) as service:
        reference = json.dumps(
            canonical_result(service.solve(_spec("identity-off")).result),
            sort_keys=True,
        )
    trace_id = new_trace_id("bench")
    previous = set_default_registry(MetricsRegistry())
    try:
        with SolveService(workers=1, memoize=False) as service:
            traced = service.solve(
                SolveSpec(
                    request_id="identity-on",
                    edges=edges,
                    algorithm="gas",
                    budget=budget,
                    trace_id=trace_id,
                )
            )
    finally:
        set_default_registry(previous)
    armed = json.dumps(canonical_result(traced.result), sort_keys=True)
    identical = armed == reference
    section["identity"] = {"solver": "gas", "identical": identical}
    print(f"  identical: {identical}")

    trace_dict = get_trace(trace_id)
    span_names = sorted(
        {entry["name"] for entry in (trace_dict or {}).get("spans", [])}
    )
    section["trace"] = {
        "recorded": trace_dict is not None,
        "spans": len((trace_dict or {}).get("spans", [])),
        "span_names": span_names,
    }
    print(f"  trace spans: {section['trace']['spans']} ({', '.join(span_names)})")

    section["summary"] = {
        "warm_path_overhead_pct": section["overhead"]["overhead_pct"],
        "target_overhead_pct": 3.0,
        "identity": identical,
        "trace_spans": section["trace"]["spans"],
    }
    return section


def merge_obs_summary(report: Dict[str, object]) -> None:
    """Propagate the obs summary into the top-level summary."""
    obs = report["obs"]["summary"]
    summary = report.setdefault("summary", {})
    summary["obs_warm_path_overhead_pct"] = obs["warm_path_overhead_pct"]
    summary["obs_identity"] = obs["identity"]
    summary["obs_trace_spans"] = obs["trace_spans"]


# ---------------------------------------------------------------------------
# Cluster section (PR 10): sharded multi-backend serving
# ---------------------------------------------------------------------------
def _cluster_graphs(count: int, size: Tuple[int, int], seed: int = 0):
    """``count`` distinct small community graphs (distinct fingerprints, so
    the ring genuinely shards them) as inline edge tuples."""
    from repro.graph.generators import community_graph

    graphs = {}
    for index in range(count):
        graph = community_graph(
            [size[0], size[1]], p_in=0.7, p_out=0.05, seed=seed + index
        )
        graphs[f"g{index}"] = tuple(tuple(edge) for edge in graph.edges())
    return graphs


def _make_cluster(backends: int, workers: int, session_capacity: int,
                  memoize: bool):
    """A router over ``backends`` in-process thread-executor backends."""
    from repro.cluster import BackendPool, InProcessBackend, RouterService

    pool = BackendPool(probe_interval_s=30.0)
    for index in range(backends):
        pool.add_managed(
            f"b{index}",
            InProcessBackend(
                workers=workers,
                session_capacity=session_capacity,
                memoize=memoize,
            ),
        )
    router = RouterService(pool, workers=max(4, backends * 2), memoize=memoize)
    return pool, router


def bench_cluster_identity(budget: int) -> Dict[str, object]:
    """Routed vs direct canonical byte identity, all solvers, both executors.

    Every registered solver's spec (randomized ones seeded) is served
    directly by a single ``SolveService`` and through a 2-backend routed
    cluster — once with thread backends, once with process backends — and
    every routed outcome must be byte-identical (``canonical_result``).
    """
    from repro.api import SolveSpec, canonical_result
    from repro.cluster import BackendPool, InProcessBackend, RouterService
    from repro.core.engine import available_solvers, solver_table
    from repro.graph.generators import community_graph
    from repro.service import SolveService

    graph = community_graph([12, 10], p_in=0.7, p_out=0.05, seed=41)
    edges = tuple(tuple(edge) for edge in graph.edges())
    table = solver_table()
    specs = [
        SolveSpec(
            request_id=f"identity-{name}",
            edges=edges,
            algorithm=name,
            budget=budget,
            params={"seed": 7} if table[name].randomized else {},
        )
        for name in available_solvers()
    ]
    with SolveService(workers=1) as direct:
        reference = {
            spec.request_id: json.dumps(
                canonical_result(direct.solve(spec).result), sort_keys=True
            )
            for spec in specs
        }
    identical = True
    for executor in ("thread", "process"):
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(2):
            pool.add_managed(
                f"{executor}-{index}",
                InProcessBackend(
                    workers=1, executor=executor, session_capacity=4
                ),
            )
        router = RouterService(pool, workers=2)
        try:
            for spec, outcome in zip(specs, router.solve_many(specs)):
                if not outcome.ok or json.dumps(
                    canonical_result(outcome.result), sort_keys=True
                ) != reference[spec.request_id]:  # pragma: no cover
                    identical = False
        finally:
            router.close()
            pool.close()
    return {
        "solvers": sorted(available_solvers()),
        "executors": ["thread", "process"],
        "budget": budget,
        "identical": identical,
    }


def bench_cluster_throughput(
    graph_count: int, repeats: int, budget: int, size: Tuple[int, int]
) -> Dict[str, object]:
    """3-backend vs 1-backend routed throughput + warm-shard hit rate.

    The same workload — ``graph_count`` distinct graphs × ``repeats``
    rounds, distinct request ids, memoisation off so every request truly
    solves — routed through a 1-backend and a 3-backend cluster.  Repeat
    rounds land on the shard whose session is already warm; the
    cluster-wide ``sessions.hits`` / ``sessions.misses`` counters (merged
    across backends) give the warm-shard hit rate.  On a 1-CPU container
    the throughput ratio measures routing overhead, not parallelism —
    ``cpu_count`` is recorded so the number stays interpretable.
    """
    import os

    from repro.api import SolveSpec

    graphs = _cluster_graphs(graph_count, size)
    def _wave(tag: str):
        return [
            SolveSpec(
                request_id=f"{tag}-r{round_index}-{name}",
                edges=edges,
                algorithm="gas",
                budget=budget,
            )
            for round_index in range(repeats)
            for name, edges in graphs.items()
        ]

    results: Dict[str, object] = {}
    for label, backends in (("one_backend", 1), ("three_backend", 3)):
        pool, router = _make_cluster(
            backends, workers=2, session_capacity=graph_count, memoize=False
        )
        try:
            specs = _wave(label)
            start = time.perf_counter()
            outcomes = router.solve_many(specs)
            elapsed = time.perf_counter() - start
            assert all(outcome.ok for outcome in outcomes)
            merged = router.metrics_snapshot()
            hits = merged["counters"].get("sessions.hits", 0)
            misses = merged["counters"].get("sessions.misses", 0)
            results[label] = {
                "elapsed_s": round(elapsed, 4),
                "requests": len(specs),
                "req_per_s": round(len(specs) / elapsed, 2),
                "session_hits": hits,
                "session_misses": misses,
                "warm_hit_rate": round(hits / (hits + misses), 4)
                if hits + misses
                else 0.0,
            }
        finally:
            router.close()
            pool.close()
    one = results["one_backend"]
    three = results["three_backend"]
    return {
        "graphs": graph_count,
        "repeats": repeats,
        "budget": budget,
        "cpu_count": os.cpu_count(),
        **results,
        "three_vs_one": round(one["elapsed_s"] / three["elapsed_s"], 2),
    }


def bench_cluster_failover(budget: int, size: Tuple[int, int]) -> Dict[str, object]:
    """Kill one backend mid-batch; survivors must stay byte-identical.

    A first wave routes across 3 backends, the owner of one graph is
    killed, and a second wave re-runs everything: requests owned by live
    backends are untouched, the victim's requests fail over to the ring
    successor, and *every* outcome matches a direct solve canonically.
    """
    from repro.api import SolveSpec, canonical_result
    from repro.service import SolveService

    graphs = _cluster_graphs(6, size, seed=100)
    pool, router = _make_cluster(3, workers=2, session_capacity=8, memoize=True)
    try:
        owners = {
            name: router.ring.owner(
                router.fingerprint_of(
                    SolveSpec(edges=edges, algorithm="gas", budget=budget)
                )
            )
            for name, edges in graphs.items()
        }
        victim = owners["g0"]
        first = router.solve_many(
            [
                SolveSpec(
                    request_id=f"pre-{name}", edges=edges, algorithm="gas",
                    budget=budget,
                )
                for name, edges in graphs.items()
            ]
        )
        assert all(outcome.ok for outcome in first)
        pool.kill(victim)
        second_specs = [
            SolveSpec(
                request_id=f"post-{name}", edges=edges, algorithm="gas",
                budget=budget + 1,
            )
            for name, edges in graphs.items()
        ]
        second = router.solve_many(second_specs)
        identical = True
        with SolveService(workers=2) as direct:
            for spec, outcome in zip(second_specs, second):
                if not outcome.ok or canonical_result(
                    outcome.result
                ) != canonical_result(direct.solve(spec).result):
                    identical = False  # pragma: no cover
        counters = router.stats()["counters"]
        return {
            "backends": 3,
            "killed": victim,
            "graphs": len(graphs),
            "victim_shard_graphs": sum(
                1 for owner in owners.values() if owner == victim
            ),
            "survivors_identical": identical,
            "reroutes": counters["reroutes"],
            "backend_failures": counters["backend_failures"],
        }
    finally:
        router.close()
        pool.close()


def bench_cluster_store(budget: int, size: Tuple[int, int]) -> Dict[str, object]:
    """A repeated deterministic request is answered at the router tier."""
    from repro.api import SolveSpec, canonical_result

    graphs = _cluster_graphs(1, size, seed=200)
    pool, router = _make_cluster(3, workers=2, session_capacity=4, memoize=True)
    try:
        spec = SolveSpec(
            request_id="store-1",
            edges=graphs["g0"],
            algorithm="gas",
            budget=budget,
        )
        first = router.solve(spec)
        second = router.solve(spec)
        hit = bool(second.cache.get("router_store"))
        identical = first.ok and second.ok and canonical_result(
            first.result
        ) == canonical_result(second.result)
        return {
            "repeat_hit": hit,
            "identical": identical,
            "store_hits": router.stats()["counters"]["store_hits"],
        }
    finally:
        router.close()
        pool.close()


def bench_cluster_process_retry(
    workload_graphs: Dict[str, Graph], budget: int, workers: int
) -> Dict[str, object]:
    """Re-attempt the PR 5 process-vs-thread row, gated on real cores.

    The api section recorded 0.42x on a 1-CPU container (target >= 1.8x:
    the process pool needs cores to beat the GIL).  The row now runs only
    when ``os.cpu_count() >= 2`` and records ``cpu_count`` either way, so
    the trajectory stays honest on any box.
    """
    import os

    cpu_count = os.cpu_count() or 1
    if cpu_count < 2:
        return {
            "attempted": False,
            "cpu_count": cpu_count,
            "target": 1.8,
            "reason": "process-pool parallelism needs >= 2 CPUs; "
            "skipped honestly on this container",
        }
    row = bench_api_executors(workload_graphs, budget, workers)
    row["attempted"] = True
    row["target"] = 1.8
    row["meets_target"] = row["speedup"] >= 1.8
    return row


def run_cluster_section(
    graph_count: int,
    repeats: int,
    budget: int,
    size: Tuple[int, int],
    executor_graphs: Dict[str, Graph],
    executor_budget: int,
    api_workers: int,
) -> Dict[str, object]:
    """The PR 10 section: sharded multi-backend serving.

    Five rows: (1) routed-vs-direct canonical byte identity for every
    registered solver on thread and process backends; (2) 3-backend vs
    1-backend routed throughput with the cluster-wide warm-shard session
    hit rate; (3) backend-kill failover with survivors byte-identical;
    (4) the router-tier result store answering a repeat; (5) the
    re-attempted process-vs-thread row, gated on ``os.cpu_count() >= 2``.
    """
    section: Dict[str, object] = {
        "description": "cluster tier (PR 10): consistent-hash routed "
        "serving over supervised SolveService backends — routed-vs-direct "
        "byte identity, 3-vs-1 backend throughput with warm-shard session "
        "hit rate, mid-batch failover, router-tier store repeats, and the "
        "re-attempted (CPU-gated) process-vs-thread row",
    }

    print("== cluster: routed vs direct byte identity ==")
    section["identity"] = bench_cluster_identity(budget)
    print(
        f"  identical: {section['identity']['identical']} "
        f"({len(section['identity']['solvers'])} solvers x "
        f"{section['identity']['executors']})"
    )

    print("== cluster: 3-backend vs 1-backend routed throughput ==")
    section["throughput"] = bench_cluster_throughput(
        graph_count, repeats, budget, size
    )
    throughput = section["throughput"]
    print(
        f"  1 backend {throughput['one_backend']['req_per_s']} req/s, "
        f"3 backends {throughput['three_backend']['req_per_s']} req/s "
        f"({throughput['three_vs_one']}x, cpu_count="
        f"{throughput['cpu_count']}); warm-shard hit rate "
        f"{throughput['three_backend']['warm_hit_rate']}"
    )

    print("== cluster: mid-batch backend-kill failover ==")
    section["failover"] = bench_cluster_failover(budget, size)
    print(
        f"  survivors identical: {section['failover']['survivors_identical']} "
        f"(killed {section['failover']['killed']}, "
        f"{section['failover']['reroutes']} reroute(s))"
    )

    print("== cluster: router-tier store repeat ==")
    section["store"] = bench_cluster_store(budget, size)
    print(
        f"  repeat hit: {section['store']['repeat_hit']} "
        f"(identical: {section['store']['identical']})"
    )

    print("== cluster: process-vs-thread retry (CPU-gated) ==")
    section["process_vs_thread_retry"] = bench_cluster_process_retry(
        executor_graphs, executor_budget, api_workers
    )
    retry = section["process_vs_thread_retry"]
    if retry["attempted"]:
        print(
            f"  speedup {retry['speedup']}x on {retry['cpu_count']} CPU(s) "
            f"(target >= 1.8x)"
        )
    else:
        print(f"  skipped: cpu_count={retry['cpu_count']} ({retry['reason']})")

    section["summary"] = {
        "identity": section["identity"]["identical"],
        "failover_identical": section["failover"]["survivors_identical"],
        "store_repeat_hit": section["store"]["repeat_hit"],
        "warm_session_hit_rate": throughput["three_backend"]["warm_hit_rate"],
        "three_vs_one_throughput": throughput["three_vs_one"],
        "cpu_count": throughput["cpu_count"],
        "process_retry_attempted": retry["attempted"],
        "process_retry_speedup": retry.get("speedup"),
    }
    return section


def merge_cluster_summary(report: Dict[str, object]) -> None:
    """Propagate the cluster summary into the top-level summary."""
    cluster = report["cluster"]["summary"]
    summary = report.setdefault("summary", {})
    summary["cluster_identity"] = cluster["identity"]
    summary["cluster_failover_identical"] = cluster["failover_identical"]
    summary["cluster_store_repeat_hit"] = cluster["store_repeat_hit"]
    summary["cluster_warm_session_hit_rate"] = cluster["warm_session_hit_rate"]
    summary["cluster_three_vs_one_throughput"] = cluster[
        "three_vs_one_throughput"
    ]
    summary["cluster_cpu_count"] = cluster["cpu_count"]
    summary["cluster_process_retry_attempted"] = cluster[
        "process_retry_attempted"
    ]


# ---------------------------------------------------------------------------
# Append-only output handling (the ROADMAP trajectory rule)
# ---------------------------------------------------------------------------
class SectionExistsError(RuntimeError):
    """Raised when a run would overwrite an already-recorded section."""


def merge_report_sections(
    existing: Dict[str, object],
    fresh: Dict[str, object],
    force: bool = False,
) -> Dict[str, object]:
    """Merge ``fresh`` into ``existing``, appending sections only.

    ``BENCH_kernel.json`` is a *trajectory*: each PR appends comparable
    sections; replacing an existing section silently would rewrite history
    and break before/after comparisons across PRs.  A section that is
    already present therefore raises :class:`SectionExistsError` unless
    ``force`` is given.  The ``summary`` mapping is the one exception — its
    per-section keys merge freely (each section owns its own keys).
    """
    merged = dict(existing)
    for key, value in fresh.items():
        if key == "summary":
            summary = dict(merged.get("summary", {}))  # type: ignore[arg-type]
            summary.update(value)  # type: ignore[call-overload]
            merged["summary"] = summary
        elif key in ("description", "targets"):
            merged.setdefault(key, value)  # metadata, not a measurement
        elif key in merged and not force:
            raise SectionExistsError(
                f"section {key!r} already exists in the output file; "
                "append-only (rerun with --force to overwrite, or use "
                "--output to write elsewhere)"
            )
        else:
            merged[key] = value
    return merged


def write_report(
    output: Path, report: Dict[str, object], force: bool
) -> Dict[str, object]:
    """Merge ``report`` into ``output`` (append-only) and write it."""
    if output.exists():
        existing = json.loads(output.read_text(encoding="utf-8"))
        report = merge_report_sections(existing, report, force=force)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="also benchmark the pokec stand-in and the 0.7 sampling rate "
        "(slower; the default sticks to the quick Fig. 9 configuration)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink every section to the smallest stand-in (CI smoke run)",
    )
    parser.add_argument(
        "--engine-only",
        action="store_true",
        help="recompute only the 'engine' section and merge it into the "
        "existing output file (PR 1 sections are left untouched)",
    )
    parser.add_argument(
        "--engine-v2-only",
        action="store_true",
        help="recompute only the 'engine_v2' section (PR 3: incremental "
        "tree + candidate heap) and append it to the existing output file",
    )
    parser.add_argument(
        "--service-only",
        action="store_true",
        help="recompute only the 'service' section (PR 4: warm engine "
        "sessions, batching, memoisation, paper-budget heap-vs-scan) and "
        "append it to the existing output file",
    )
    parser.add_argument(
        "--api-only",
        action="store_true",
        help="recompute only the 'api' section (PR 5: executor/transport "
        "identity grid, process-pool parallelism, GAS warm path) and append "
        "it to the existing output file",
    )
    parser.add_argument(
        "--resilience-only",
        action="store_true",
        help="recompute only the 'resilience' section (PR 6: overload "
        "fast-reject latency, worker-crash recovery, steady-state admission "
        "overhead) and append it to the existing output file",
    )
    parser.add_argument(
        "--kernel-v2-only",
        action="store_true",
        help="recompute only the 'kernel_v2' section (PR 7: CSR triangle "
        "enumeration + vectorised peel vs the seed reference, with the "
        "anchored-sequence and GAS rows re-run) and append it to the "
        "existing output file",
    )
    parser.add_argument(
        "--world-only",
        action="store_true",
        help="recompute only the 'world' section (PR 8: scenario-world sweep "
        "wall time, per-family incremental-vs-full engine speedup spread, "
        "invariant rig pass) and append it to the existing output file",
    )
    parser.add_argument(
        "--obs-only",
        action="store_true",
        help="recompute only the 'obs' section (PR 9: instrumented vs "
        "uninstrumented warm-path overhead, obs-on/off byte identity, "
        "metrics/trace exposition) and append it to the existing output file",
    )
    parser.add_argument(
        "--cluster-only",
        action="store_true",
        help="recompute only the 'cluster' section (PR 10: routed-vs-direct "
        "byte identity, 3-vs-1 backend throughput with warm-shard session "
        "hit rate, mid-batch failover, router-tier store repeats, CPU-gated "
        "process-vs-thread retry) and append it to the existing output file",
    )
    parser.add_argument(
        "--api-workers", type=int, default=4,
        help="worker count for the api section's thread-vs-process comparison",
    )
    parser.add_argument(
        "--paper-budget", type=int, default=100,
        help="GAS budget for the service section's paper-scale heap-vs-scan "
        "row (the paper's experiments use b=100)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting sections that already exist in the output "
        "file (default: append-only, per the ROADMAP trajectory rule)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"output JSON path (default: {DEFAULT_OUTPUT}; --smoke defaults "
        "to a scratch file so it never clobbers the curated trajectory)",
    )
    parser.add_argument(
        "--gas-budget", type=int, default=2, help="anchor budget for the gas() benchmarks"
    )
    parser.add_argument(
        "--base-budget", type=int, default=1, help="anchor budget for the BASE benchmarks"
    )
    parser.add_argument(
        "--gas-v2-budget",
        type=int,
        default=5,
        help="anchor budget for the engine_v2 GAS comparison (the tree patch "
        "and candidate heap pay off from round two onwards, so a budget of "
        "one or two mostly measures the cold first round)",
    )
    parser.add_argument(
        "--exact-budget", type=int, default=2,
        help="anchor budget for the engine_v2 exact parity row",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        # A --smoke run measures the wrong stand-ins for the trajectory file;
        # keep it away from BENCH_kernel.json unless explicitly requested.
        args.output = (
            Path(tempfile.gettempdir()) / "bench_kernel_smoke.json"
            if args.smoke
            else DEFAULT_OUTPUT
        )
    if args.smoke:
        # Smoke output is scratch by definition (wrong stand-ins for the
        # trajectory): re-runs overwrite instead of tripping the
        # append-only guard.
        args.force = True

    if args.smoke:
        decomposition_datasets = ["college"]
        follower_datasets = ["college"]
        gas_rates: List[float] = []
        engine_gas_graphs = {"college": load_dataset("college")}
        engine_base_graphs = {"college": load_dataset("college")}
        exact_graphs = {
            "facebook-ego": extract_ego_subgraph(
                load_dataset("facebook"), 55, seed=SAMPLING_SEED
            )
        }
        service_graphs = {"college": load_dataset("college")}
        paper_dataset, paper_budget = "college", min(args.paper_budget, 10)
        api_executor_graphs = {
            "college": load_dataset("college"),
            "facebook": load_dataset("facebook"),
        }
        api_warm_graphs = {"college": load_dataset("college")}
        api_executor_budget, api_warm_budget = 1, 2
        reject_samples, crash_rounds, steady_repeat = 50, 2, 8
        kernel_v2_datasets = ["college"]
        kernel_v2_gas_graphs = {"college": load_dataset("college")}
        kernel_v2_gas_repeats = 2
        world_points, world_budget, world_n = 6, 1, (30, 60)
        obs_batches, obs_per_batch, obs_budget = 3, 4, 1
        cluster_graphs, cluster_repeats, cluster_budget = 3, 2, 1
        cluster_size = (10, 8)
    else:
        decomposition_datasets = ["patents", "pokec"] if args.full else ["patents"]
        follower_datasets = ["college", "facebook"]
        gas_rates = [0.5, 0.7, 1.0] if args.full else [0.5, 1.0]
        patents = load_dataset("patents")
        engine_gas_graphs = {
            f"patents@{rate}": sample_edges(patents, rate, seed=SAMPLING_SEED)
            for rate in gas_rates
        }
        # BASE's pre-engine bar runs one full decomposition per candidate
        # edge, so even one round on the full patents stand-in is expensive;
        # the Fig. 9 samples keep the "before" measurement honest but finite.
        engine_base_graphs = dict(engine_gas_graphs)
        # The exact parity row runs on a Fig. 5 style ego subgraph (the
        # solver is combinatorial; whole stand-ins are out of reach).
        exact_graphs = {
            "facebook-ego": extract_ego_subgraph(
                load_dataset("facebook"), 55, seed=SAMPLING_SEED
            )
        }
        service_graphs = dict(engine_gas_graphs)
        # Paper-budget row: the largest stand-in the pipeline can load.
        paper_dataset, paper_budget = "pokec", args.paper_budget
        # The api section's 4-graph Fig. 9 stand-in workload: distinct
        # graphs, so the process pool has genuine cross-graph parallelism
        # to exploit (patents and pokec at two sampling rates each).
        pokec = load_dataset("pokec")
        api_executor_graphs = {
            "patents@0.5": sample_edges(patents, 0.5, seed=SAMPLING_SEED),
            "patents@1.0": patents,
            "pokec@0.5": sample_edges(pokec, 0.5, seed=SAMPLING_SEED),
            "pokec@1.0": pokec,
        }
        api_warm_graphs = {
            "patents@0.5": api_executor_graphs["patents@0.5"],
            "pokec@0.5": api_executor_graphs["pokec@0.5"],
        }
        api_executor_budget, api_warm_budget = 2, 5
        reject_samples, crash_rounds, steady_repeat = 200, 5, 24
        # The kernel_v2 acceptance covers both large stand-ins regardless of
        # --full (the PR 7 target is cold >= 5x on patents AND pokec).
        kernel_v2_datasets = ["patents", "pokec"]
        kernel_v2_gas_graphs = dict(engine_gas_graphs)
        kernel_v2_gas_repeats = 5
        world_points, world_budget, world_n = 18, 2, (60, 120)
        obs_batches, obs_per_batch, obs_budget = 6, 20, 2
        # The cluster section measures routing/sharding behaviour, not
        # kernel scale: many distinct small graphs (distinct fingerprints)
        # with repeat rounds is exactly the warm-shard workload.
        cluster_graphs, cluster_repeats, cluster_budget = 6, 4, 1
        cluster_size = (14, 12)

    try:
        if args.engine_only:
            report = {
                "engine": run_engine_section(
                    engine_gas_graphs,
                    engine_base_graphs,
                    args.base_budget,
                    args.gas_budget,
                )
            }
            merge_engine_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (engine section only)")
            print(json.dumps(report["engine"]["summary"], indent=2))
            return 0

        if args.engine_v2_only:
            report = {
                "engine_v2": run_engine_v2_section(
                    engine_gas_graphs,
                    exact_graphs,
                    args.gas_v2_budget,
                    args.base_budget,
                    args.exact_budget,
                )
            }
            merge_engine_v2_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (engine_v2 section only)")
            print(json.dumps(report["engine_v2"]["summary"], indent=2))
            return 0

        if args.service_only:
            report = {
                "service": run_service_section(
                    service_graphs,
                    exact_graphs["facebook-ego"],
                    paper_dataset,
                    paper_budget,
                )
            }
            merge_service_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (service section only)")
            print(json.dumps(report["service"]["summary"], indent=2))
            return 0

        if args.api_only:
            report = {
                "api": run_api_section(
                    api_executor_graphs,
                    api_warm_graphs,
                    exact_graphs["facebook-ego"],
                    api_executor_budget,
                    api_warm_budget,
                    args.api_workers,
                )
            }
            merge_api_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (api section only)")
            print(json.dumps(report["api"]["summary"], indent=2))
            return 0

        if args.resilience_only:
            report = {
                "resilience": run_resilience_section(
                    reject_samples,
                    crash_rounds,
                    steady_repeat,
                    workers=2,
                )
            }
            merge_resilience_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (resilience section only)")
            print(json.dumps(report["resilience"]["summary"], indent=2))
            return 0

        if args.kernel_v2_only:
            report = {
                "kernel_v2": run_kernel_v2_section(
                    kernel_v2_datasets,
                    kernel_v2_gas_graphs,
                    args.gas_budget,
                    kernel_v2_gas_repeats,
                )
            }
            merge_kernel_v2_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (kernel_v2 section only)")
            print(json.dumps(report["kernel_v2"]["summary"], indent=2))
            return 0

        if args.world_only:
            report = {
                "world": run_world_section(
                    world_points,
                    SAMPLING_SEED,
                    world_budget,
                    world_n,
                )
            }
            merge_world_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (world section only)")
            print(json.dumps(report["world"]["summary"], indent=2))
            return 0

        if args.obs_only:
            report = {
                "obs": run_obs_section(
                    "college",
                    obs_batches,
                    obs_per_batch,
                    obs_budget,
                )
            }
            merge_obs_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (obs section only)")
            print(json.dumps(report["obs"]["summary"], indent=2))
            return 0

        if args.cluster_only:
            report = {
                "cluster": run_cluster_section(
                    cluster_graphs,
                    cluster_repeats,
                    cluster_budget,
                    cluster_size,
                    api_executor_graphs,
                    api_executor_budget,
                    args.api_workers,
                )
            }
            merge_cluster_summary(report)
            report = write_report(args.output, report, args.force)
            print(f"\nwrote {args.output} (cluster section only)")
            print(json.dumps(report["cluster"]["summary"], indent=2))
            return 0
    except SectionExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report: Dict[str, object] = {
        "description": "before/after timings of the integer-indexed truss kernel "
        "(reference = seed tuple-domain implementation)",
        "targets": {"truss_decomposition": 5.0, "gas": 3.0},
        "decomposition": {},
        "followers": {},
        "gas": {},
    }

    print("== truss_decomposition ==")
    for name in decomposition_datasets:
        graph = load_dataset(name)
        entry = bench_decomposition(name, graph)
        report["decomposition"][name] = entry
        print(
            f"{name:>10}  cold {entry['cold']['speedup']:>6.2f}x   "
            f"anchored-sequence {entry['anchored_sequence']['speedup']:>6.2f}x"
        )

    print("== compute_followers (support-check) ==")
    for name in follower_datasets:
        graph = load_dataset(name)
        entry = bench_followers(name, graph)
        report["followers"][name] = entry
        print(f"{name:>10}  {entry['speedup']:>6.2f}x  ({entry['candidates']} candidates)")

    print("== gas() end-to-end (Fig. 9 samples, pre-engine stack) ==")
    if args.smoke:
        graph = load_dataset("college")
        entry = bench_gas("college", graph, args.gas_budget, repeats=2)
        report["gas"]["college"] = entry
        print(f"college      {entry['speedup']:>6.2f}x")
    else:
        for rate in gas_rates:
            graph = sample_edges(load_dataset("patents"), rate, seed=SAMPLING_SEED)
            entry = bench_gas(f"patents@{rate}", graph, args.gas_budget)
            report["gas"][f"patents@{rate}"] = entry
            print(
                f"patents@{rate:<4}  {entry['speedup']:>6.2f}x  "
                f"({entry['reference_s']}s -> {entry['kernel_s']}s)"
            )

    report["engine"] = run_engine_section(
        engine_gas_graphs, engine_base_graphs, args.base_budget, args.gas_budget
    )
    report["engine_v2"] = run_engine_v2_section(
        engine_gas_graphs,
        exact_graphs,
        args.gas_v2_budget,
        args.base_budget,
        args.exact_budget,
    )
    report["service"] = run_service_section(
        service_graphs,
        exact_graphs["facebook-ego"],
        paper_dataset,
        paper_budget,
    )
    report["api"] = run_api_section(
        api_executor_graphs,
        api_warm_graphs,
        exact_graphs["facebook-ego"],
        api_executor_budget,
        api_warm_budget,
        args.api_workers,
    )
    report["kernel_v2"] = run_kernel_v2_section(
        kernel_v2_datasets,
        kernel_v2_gas_graphs,
        args.gas_budget,
        kernel_v2_gas_repeats,
    )
    report["world"] = run_world_section(
        world_points,
        SAMPLING_SEED,
        world_budget,
        world_n,
    )
    report["obs"] = run_obs_section(
        "college",
        obs_batches,
        obs_per_batch,
        obs_budget,
    )
    report["cluster"] = run_cluster_section(
        cluster_graphs,
        cluster_repeats,
        cluster_budget,
        cluster_size,
        api_executor_graphs,
        api_executor_budget,
        args.api_workers,
    )

    decomposition_speedup = min(
        entry["anchored_sequence"]["speedup"] for entry in report["decomposition"].values()
    )
    gas_speedup = min(entry["speedup"] for entry in report["gas"].values())
    report["summary"] = {
        "decomposition_anchored_speedup_min": decomposition_speedup,
        "decomposition_cold_speedup_min": min(
            entry["cold"]["speedup"] for entry in report["decomposition"].values()
        ),
        "follower_speedup_min": min(
            entry["speedup"] for entry in report["followers"].values()
        ),
        "gas_speedup_min": gas_speedup,
        "meets_decomposition_target": decomposition_speedup >= 5.0,
        "meets_gas_target": gas_speedup >= 3.0,
    }
    merge_engine_summary(report)
    merge_engine_v2_summary(report)
    merge_service_summary(report)
    merge_api_summary(report)
    merge_kernel_v2_summary(report)
    merge_world_summary(report)
    merge_obs_summary(report)
    merge_cluster_summary(report)

    try:
        report = write_report(args.output, report, args.force)
    except SectionExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\nwrote {args.output}")
    print(json.dumps(report["summary"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
