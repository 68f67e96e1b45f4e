"""GAS — the paper's full algorithm (Algorithm 6).

GAS runs the same greedy framework as BASE+ but avoids recomputing follower
sets from scratch in every round:

1. follower sets are cached *per (candidate edge, tree node)* — ``F[e][id]``
   in the paper's notation;
2. after an anchor is committed, the truss component tree is advanced (by
   the engine's incremental patch, or a rebuild) and the reuse rule of
   :mod:`repro.core.reuse` decides which cached entries are still valid;
3. in the next round only the invalidated entries are recomputed, and the
   recomputation is restricted to the affected tree nodes (the
   ``(node_of_eid, node_ids)`` membership filter of the follower search).

Because the reuse rule is conservative, GAS selects exactly the same anchors
as BASE+ and BASE (under the shared smallest-edge-id tie-breaking); the
test-suite verifies this equivalence.

Candidate selection: heap vs scan
---------------------------------
Historically every round re-scanned *all* candidate edges to find the best
gain, even though the reuse rule proves that most cached gains are
unchanged.  The default ``candidates="heap"`` strategy replaces the scan
with a **lazily-invalidated max-heap** keyed by the cached gains:

* a commit yields (via :meth:`SolverEngine.take_reuse_decision`) the exact
  set of *dirty* candidates — the edges inside the re-peel's dirty closure,
  the edges whose ``sla`` sets the tree patch touched, and the edges whose
  ``sla`` references an invalidated node; only those are refreshed and
  re-pushed;
* every other candidate's cached gain is provably unchanged, so its heap
  entry is still valid; stale entries (superseded scores) are discarded
  lazily at pop time;
* ties break exactly like the scan: the heap key is ``(-gain, eid)``, so
  the smallest edge id among the maximal gains wins.

``candidates="scan"`` forces the previous full-scan behaviour (the
reference twin); both strategies share the per-candidate refresh helper, so
anchors, gains, reuse statistics and recompute counts are byte-identical —
asserted by the test-suite on randomized anchored graphs.

The public :func:`gas` is a thin wrapper over the solver registry: the round
loop runs against a :class:`~repro.core.engine.SolverEngine`, which owns the
state (advanced by incremental re-peeling after each committed anchor), the
component tree and the follower caches.  The pre-engine implementation is
preserved verbatim as :func:`gas_reference` for the equivalence tests and
the before/after benchmarks.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.api.spec import SolveSpec
from repro.core.component_tree import TrussComponentTree
from repro.core.engine import SolverEngine, register_solver
from repro.core.followers import FollowerMethod, compute_followers
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.core.reuse import (
    ReuseDecision,
    ReuseInvalidation,
    ReuseStats,
    classify_reuse,
    compute_reuse_decision,
)
from repro.graph.graph import Edge, Graph
from repro.graph.index import GraphIndex
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError

CacheEntry = Dict[int, FrozenSet[Edge]]

#: Shared empty sla set for edges that close no triangle.
_EMPTY_SLA: FrozenSet[int] = frozenset()


def _validate(graph: Graph, budget: int, method: FollowerMethod | str) -> FollowerMethod:
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    if budget > graph.num_edges:
        raise InvalidParameterError(
            f"budget {budget} exceeds the number of edges {graph.num_edges}"
        )
    method = FollowerMethod(method)
    if method is FollowerMethod.RECOMPUTE:
        raise InvalidParameterError(
            "GAS requires a local follower method ('support-check' or 'peel')"
        )
    return method


def _refresh_entry(
    state: TrussState,
    tree: TrussComponentTree,
    cache: Dict[int, CacheEntry],
    totals: Dict[int, int],
    method: FollowerMethod,
    decision: Optional[ReuseDecision],
    invalid_eids: Optional[Set[int]],
    eid: int,
    edge: Edge,
    sla_ids,
    stats: ReuseStats,
) -> bool:
    """Refresh one candidate's cached follower entry ``F[edge][*]``.

    This is the per-candidate body shared by the full scan and the heap
    strategy — keeping it in one place is what makes the two strategies
    byte-identical (entries, totals, reuse classification and recompute
    accounting all come from here).  Returns ``True`` when followers were
    actually recomputed (the ``recomputed_entries_per_round`` metric).
    """
    entry = cache.get(eid)
    dirty = False
    if invalid_eids is None or entry is None or eid in invalid_eids:
        entry = {}
        cache[eid] = entry
        needed = set(sla_ids)
        dirty = True
        if decision is not None:
            stats.non_reusable += 1
    else:
        for node_id in list(entry):
            if node_id not in sla_ids:
                del entry[node_id]
                dirty = True
        invalid_node_ids = decision.invalid_node_ids
        needed = {
            node_id
            for node_id in sla_ids
            if node_id not in entry or node_id in invalid_node_ids
        }
        category = classify_reuse(sla_ids, decision, edge)
        if category == "FR" and not needed:
            stats.fully_reusable += 1
        elif needed and len(needed) != len(sla_ids):
            stats.partially_reusable += 1
        elif needed:
            stats.non_reusable += 1
        else:
            stats.fully_reusable += 1

    recomputed = False
    if needed:
        recomputed = True
        # Membership filter: the follower search tests each edge's tree node
        # against ``needed`` instead of a union of the nodes' edge sets.
        followers = compute_followers(
            state, edge, method=method,
            candidate_filter_ids=(tree.node_of_eid, needed),
        )
        buckets: Dict[int, Set[Edge]] = {node_id: set() for node_id in needed}
        for follower in followers:
            buckets[tree.node_of_edge[follower]].add(follower)
        for node_id, bucket in buckets.items():
            entry[node_id] = frozenset(bucket)
        dirty = True

    if dirty:
        totals[eid] = sum(len(bucket) for bucket in entry.values())
    return recomputed


def _pop_best(heap: List[Tuple[int, int]], score_of: Dict[int, int]) -> Tuple[int, int]:
    """Pop the best *fresh* heap entry: max gain, smallest eid on ties.

    Entries whose score no longer matches the candidate's current score (or
    whose candidate was committed) are stale and discarded lazily; every
    live candidate always has one fresh entry, pushed when its score last
    changed.
    """
    while heap:
        neg_score, eid = heapq.heappop(heap)
        if score_of.get(eid) == -neg_score:
            return eid, -neg_score
    return -1, -1


@register_solver(
    "gas",
    description="greedy with per-tree-node follower reuse (Algorithm 6)",
    params=("method", "collect_reuse_stats", "candidates"),
)
def _solve_gas(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    graph = engine.graph
    budget = request.budget
    method = _validate(graph, budget, request.param("method", FollowerMethod.SUPPORT_CHECK))
    collect_reuse_stats = bool(request.param("collect_reuse_stats", True))
    strategy = str(request.param("candidates", "heap"))
    if strategy not in ("heap", "scan"):
        raise InvalidParameterError(
            f"unknown candidates strategy {strategy!r}; expected 'heap' or 'scan'"
        )
    use_heap = strategy == "heap"

    start = time.perf_counter()
    original_state = engine.original_state
    state = engine.state
    tree = engine.tree()

    # Follower cache F[e][node_id], keyed by dense edge id (stable for the
    # lifetime of the run — the graph is never mutated), plus the cached
    # total follower count per entry (recomputed only when the entry moves).
    # Both live on the engine so a session spans rounds (and solves).
    cache = engine.follower_cache
    totals = engine.follower_totals
    # Warm path: an unanchored session that solved before restores its
    # baseline follower snapshot — every entry was computed against exactly
    # this first-round state (and the freshly rebuilt tree's node ids are
    # deterministic), so round one reads cached totals instead of
    # recomputing every candidate's followers.
    warm_baseline = budget > 0 and engine.restore_baseline_followers()
    invalidation: Optional[ReuseInvalidation] = None
    # Lazy candidate max-heap: entries are (-gain, eid); score_of holds each
    # live candidate's current gain (the freshness check at pop time).
    heap: List[Tuple[int, int]] = []
    score_of: Dict[int, int] = {}
    per_round_gain: List[int] = []
    reuse_rounds: List[Dict[str, float]] = []
    recompute_counts: List[int] = []
    cumulative_seconds: List[float] = []

    for _round in range(budget):
        stats = ReuseStats()
        recomputed_entries = 0
        # The candidate refresh runs in the dense-id domain of the shared
        # index: trussness deltas are list lookups, sla sets come
        # precomputed from the tree, and the smallest-edge-id tie-break is
        # plain eid order (dense ids are ascending in public edge id).
        index, current_trussness, _ly, anchor_mask = state.kernel_views()
        original_trussness = original_state.kernel_views()[1]
        edge_of = index.edge_of
        sla_sets = tree.sla_sets  # None only for reference-built trees
        decision = invalidation.decision if invalidation is not None else None
        invalid_eids: Optional[Set[int]] = None
        if decision is not None:
            eid_of = index.eid_of
            invalid_eids = {eid_of[e] for e in decision.invalid_edges}
        dirty_eids = invalidation.dirty_eids if invalidation is not None else None

        if _round == 0 and warm_baseline:
            # Warm first round (restored baseline snapshot): every cached
            # entry and total is already exact for this state, so the scan
            # only reads totals — zero follower recomputations.  Scores and
            # heap contents end up identical to a cold first round, which
            # keeps every later round byte-identical too.
            best_eid = -1
            best_count = -1
            for eid in range(index.num_edges):
                if anchor_mask[eid]:
                    continue
                total = totals[eid]
                if use_heap and score_of.get(eid) != total:
                    score_of[eid] = total
                    heapq.heappush(heap, (-total, eid))
                if total > best_count:
                    best_eid, best_count = eid, total
        elif use_heap and decision is not None and dirty_eids is not None:
            # Heap round: only the dirty closure is re-examined; every other
            # candidate's cached gain (and FR classification) is provably
            # unchanged, so its heap entry is still fresh.
            refreshed = 0
            for eid in sorted(dirty_eids):
                if anchor_mask[eid]:
                    continue
                refreshed += 1
                edge = edge_of[eid]
                sla_ids = sla_sets[eid] or _EMPTY_SLA  # type: ignore[index]
                if _refresh_entry(
                    state, tree, cache, totals, method, decision,
                    invalid_eids, eid, edge, sla_ids, stats,
                ):
                    recomputed_entries += 1
                score = totals[eid] - (
                    current_trussness[eid] - original_trussness[eid]
                )
                if score_of.get(eid) != score:
                    score_of[eid] = score
                    heapq.heappush(heap, (-score, eid))
            stats.fully_reusable += (
                index.num_edges - len(state.anchors) - refreshed
            )
            best_eid, best_count = _pop_best(heap, score_of)
        else:
            # Full pass: the first round, the forced "scan" strategy, and
            # heap rounds right after a from-scratch tree rebuild
            # (tree_mode="rebuild": no dirty closure available).
            best_eid = -1
            best_count = -1
            for eid in range(index.num_edges):
                if anchor_mask[eid]:
                    continue
                edge = edge_of[eid]
                if sla_sets is not None:
                    sla_ids = sla_sets[eid] or _EMPTY_SLA  # precomputed
                else:
                    sla_ids = tree.sla(edge)
                if _refresh_entry(
                    state, tree, cache, totals, method, decision,
                    invalid_eids, eid, edge, sla_ids, stats,
                ):
                    recomputed_entries += 1
                # Marginal gain of Definition 4: follower count minus the
                # gain the candidate itself accumulated as a follower of
                # earlier anchors (forfeited once it becomes an anchor).
                accumulated = current_trussness[eid] - original_trussness[eid]
                total = totals[eid] - accumulated
                if use_heap and score_of.get(eid) != total:
                    score_of[eid] = total
                    heapq.heappush(heap, (-total, eid))
                if total > best_count:
                    best_eid, best_count = eid, total

        if _round == 0 and not warm_baseline:
            # Cold unanchored first round: persist the freshly computed
            # baseline follower cache across future resets (no-op when the
            # session carries anchors or already has a snapshot).
            engine.snapshot_baseline_followers()

        if best_eid < 0:
            break
        best_edge = edge_of[best_eid]

        followers_of_best: Set[Edge] = set()
        for bucket in cache[best_eid].values():
            followers_of_best |= bucket

        engine.commit_anchor(best_edge)
        cache.pop(best_eid, None)
        totals.pop(best_eid, None)
        score_of.pop(best_eid, None)
        per_round_gain.append(best_count)
        recompute_counts.append(recomputed_entries)
        if collect_reuse_stats and decision is not None:
            reuse_rounds.append(stats.fractions())

        if _round + 1 < budget:
            # The incremental state advance, tree patch and reuse analysis
            # only feed the next round's candidate refresh; after the final
            # anchor there is no next round (the engine's state is lazy, so
            # nothing is computed for it).
            state = engine.state
            tree = engine.tree()
            invalidation = engine.take_reuse_decision(best_edge, followers_of_best)
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    # Evaluate against the engine's own baseline: no redundant recompute, and
    # with an anchored baseline_state the reported gain measures the same
    # problem the rounds actually scored.
    result = evaluate_anchor_set(
        graph,
        engine.anchors,
        algorithm="GAS",
        elapsed_seconds=elapsed,
        baseline_state=original_state,
    )
    result.per_round_gain = per_round_gain
    result.extra["follower_method"] = method.value
    result.extra["candidate_strategy"] = strategy
    result.extra["recomputed_entries_per_round"] = recompute_counts
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    if collect_reuse_stats:
        result.extra["reuse_stats"] = reuse_rounds
    result.extra["engine"] = dict(engine.stats)
    return result


def gas(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
    collect_reuse_stats: bool = True,
    candidates: str = "heap",
    tree_mode: str = "patch",
) -> AnchorResult:
    """Select ``budget`` anchor edges with the GAS algorithm.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    budget:
        Number of anchor edges to select (the paper's ``b``).
    initial_anchors:
        Edges considered already anchored before the first round.
    method:
        Follower-computation strategy used for the per-node recomputations
        (``support-check`` by default; ``peel`` for the ablation study).
    collect_reuse_stats:
        When true, the per-round FR/PR/NR reuse statistics (Fig. 10) are
        recorded in ``result.extra["reuse_stats"]``.
    candidates:
        Candidate-selection strategy: ``"heap"`` (default, lazily-invalidated
        max-heap — only the dirty closure of each commit is re-examined) or
        ``"scan"`` (the previous full scan per round; reference twin).
    tree_mode:
        Component-tree maintenance of the underlying engine: ``"patch"``
        (default, incremental) or ``"rebuild"`` (full rebuild per round;
        reference twin).  Both knobs change timings only — never results.
    """
    engine = SolverEngine(graph, tree_mode=tree_mode)
    return engine.solve(
        "gas",
        budget,
        initial_anchors=initial_anchors,
        method=method,
        collect_reuse_stats=collect_reuse_stats,
        candidates=candidates,
    )


def gas_reference(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
    collect_reuse_stats: bool = True,
) -> AnchorResult:
    """Pre-engine GAS: full re-decomposition and tree rebuild per round.

    Kept verbatim as the ground truth for the engine equivalence tests and
    as the "PR 1" bar of the engine benchmarks (and, under the benchmark's
    ``legacy_mode``, as the carrier of the seed tuple-domain stack).
    """
    method = _validate(graph, budget, method)

    start = time.perf_counter()
    # One frozen kernel snapshot is shared by every decomposition, follower
    # recomputation and tree rebuild below (anchors are overlay sets, so the
    # graph — and therefore the index — never changes during the run).
    GraphIndex.of(graph)
    anchors: List[Edge] = [graph.require_edge(e) for e in initial_anchors]
    original_state = TrussState.compute(graph)
    state = (
        TrussState.compute(graph, anchors) if anchors else original_state
    )
    tree = TrussComponentTree.build(state)

    cache: Dict[int, CacheEntry] = {}
    totals: Dict[int, int] = {}
    decision: Optional[ReuseDecision] = None
    per_round_gain: List[int] = []
    reuse_rounds: List[Dict[str, float]] = []
    recompute_counts: List[int] = []
    cumulative_seconds: List[float] = []

    for _round in range(budget):
        stats = ReuseStats()
        recomputed_entries = 0
        best_eid = -1
        best_count = -1
        index, current_trussness, _ly, anchor_mask = state.kernel_views()
        original_trussness = original_state.kernel_views()[1]
        edge_of = index.edge_of
        sla_sets = tree.sla_sets  # None only for reference-built trees
        invalid_eids: Optional[Set[int]] = None
        if decision is not None:
            eid_of = index.eid_of
            invalid_eids = {eid_of[e] for e in decision.invalid_edges}

        for eid in range(index.num_edges):
            if anchor_mask[eid]:
                continue
            edge = edge_of[eid]
            if sla_sets is not None:
                sla_ids = sla_sets[eid] or _EMPTY_SLA  # precomputed, read-only
            else:
                sla_ids = tree.sla(edge)
            entry = cache.get(eid)
            dirty = False
            if invalid_eids is None or entry is None or eid in invalid_eids:
                entry = {}
                cache[eid] = entry
                needed = set(sla_ids)
                dirty = True
                if decision is not None:
                    stats.non_reusable += 1
            else:
                for node_id in list(entry):
                    if node_id not in sla_ids:
                        del entry[node_id]
                        dirty = True
                invalid_node_ids = decision.invalid_node_ids
                needed = {
                    node_id
                    for node_id in sla_ids
                    if node_id not in entry or node_id in invalid_node_ids
                }
                category = classify_reuse(sla_ids, decision, edge)
                if category == "FR" and not needed:
                    stats.fully_reusable += 1
                elif needed and len(needed) != len(sla_ids):
                    stats.partially_reusable += 1
                elif needed:
                    stats.non_reusable += 1
                else:
                    stats.fully_reusable += 1

            if needed:
                recomputed_entries += 1
                candidate_filter_ids: Set[int] = set()
                for node_id in needed:
                    candidate_filter_ids |= tree.nodes[node_id].edge_ids
                followers = compute_followers(
                    state, edge, method=method, candidate_filter_ids=candidate_filter_ids
                )
                buckets: Dict[int, Set[Edge]] = {node_id: set() for node_id in needed}
                for follower in followers:
                    buckets[tree.node_of_edge[follower]].add(follower)
                for node_id, bucket in buckets.items():
                    entry[node_id] = frozenset(bucket)
                dirty = True

            if dirty:
                totals[eid] = sum(len(bucket) for bucket in entry.values())
            accumulated = current_trussness[eid] - original_trussness[eid]
            total = totals[eid] - accumulated
            if total > best_count:
                best_eid, best_count = eid, total

        if best_eid < 0:
            break
        best_edge = edge_of[best_eid]

        followers_of_best: Set[Edge] = set()
        for bucket in cache[best_eid].values():
            followers_of_best |= bucket

        anchors.append(best_edge)
        cache.pop(best_eid, None)
        totals.pop(best_eid, None)
        per_round_gain.append(best_count)
        recompute_counts.append(recomputed_entries)
        if collect_reuse_stats and decision is not None:
            reuse_rounds.append(stats.fractions())

        if _round + 1 < budget:
            old_tree = tree
            state = TrussState.compute(graph, anchors)
            tree = TrussComponentTree.build(state)
            decision = compute_reuse_decision(old_tree, tree, best_edge, followers_of_best)
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    result = evaluate_anchor_set(graph, anchors, algorithm="GAS", elapsed_seconds=elapsed)
    result.per_round_gain = per_round_gain
    result.extra["follower_method"] = method.value
    result.extra["recomputed_entries_per_round"] = recompute_counts
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    if collect_reuse_stats:
        result.extra["reuse_stats"] = reuse_rounds
    return result
