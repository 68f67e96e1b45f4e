"""The solver engine: one session object behind every anchor-selection run.

Before this layer existed each solver owned its own round loop and rebuilt
the shared machinery — :class:`~repro.graph.index.GraphIndex`,
:class:`~repro.truss.state.TrussState`, the
:class:`~repro.core.component_tree.TrussComponentTree` and the GAS follower
caches — independently, and BASE re-peeled the *whole graph* once per
candidate edge per round.  :class:`SolverEngine` consolidates that round
machinery:

* it owns the index, the original (anchor-free) state, the current anchored
  state, the component tree and the per-candidate follower caches for one
  solve session;
* committed anchors advance the state by **incremental re-peeling** (see
  below) instead of a full :func:`~repro.truss.decomposition.truss_decomposition`;
* BASE's per-candidate gain evaluation runs the same restricted re-peel, so
  a candidate costs work proportional to its *dirty region* instead of the
  whole graph;
* solvers are plain functions ``(engine, request) -> AnchorResult`` looked
  up in a registry (:func:`register_solver` / :func:`get_solver`), so the
  CLI table and the experiment harness pick up a new solver from one
  registration instead of five hand-maintained edits.

Incremental re-peeling
----------------------
Anchoring a single edge ``x`` on top of an exact state changes the
decomposition in a bounded region:

1. *Trussness.*  By Lemma 1 every follower gains exactly ``+1``, and by
   Lemma 2 the followers are contained in the upward-route reachable
   closure of ``x``'s triangle neighbours.  The engine expands a
   layer-free superset of that closure (safe even while intermediate
   layers are unknown, e.g. in chained evaluations), then runs the
   greatest-fixed-point peel of each trussness level restricted to the
   closure — exactly the per-level condition of the follower search, which
   yields the exact follower set and therefore the exact new trussness of
   every edge.
2. *Layers.*  The synchronous peeling layers of phase ``k`` depend only on
   which edges have (new) trussness ``>= k``, so a phase needs re-peeling
   exactly when its membership or mid-phase removals changed: the old and
   new level of every follower, the old level of ``x`` itself, and every
   level above ``t(x)`` where ``x``'s new permanent presence closes a
   triangle with a still-present partner.  Those hulls are re-peeled with
   the same synchronous-wave rule as the full decomposition; every other
   level keeps its old layers unchanged.

When the dirty closure exceeds ``full_peel_threshold * m`` edges the engine
falls back to a full peel — the incremental path is an optimisation, never a
semantic fork, and the test-suite asserts both produce identical
decompositions on randomized anchored graphs.  Either path records the same
:class:`CommitDelta` (the full peel by diffing the dense arrays), so the
component tree is patched after every commit, never rebuilt.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.api.spec import SolveSpec
from repro.core.component_tree import TreePatchInfo, TrussComponentTree
from repro.core.result import AnchorResult
from repro.core.reuse import ReuseDecision, ReuseInvalidation, compute_reuse_decision
from repro.graph.graph import Edge, Graph
from repro.graph.index import GraphIndex
from repro.obs.tracing import span as _span
from repro.truss.peel import peel_trussness_fast
from repro.truss.decomposition import TrussDecomposition
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError

__all__ = [
    "CommitDelta",
    "SolveSpec",
    "SolverEngine",
    "SolverSpec",
    "register_solver",
    "get_solver",
    "available_solvers",
    "solver_table",
    "solve",
]

#: Fraction of the edge count above which the dirty closure triggers a full
#: re-peel instead of the incremental one (the incremental bookkeeping no
#: longer pays off once most of the graph is dirty anyway).
DEFAULT_FULL_PEEL_THRESHOLD = 0.25

#: Component-tree maintenance strategies (``SolverEngine(tree_mode=...)``).
TREE_MODES = ("patch", "rebuild")

#: Pending invalidation entries kept before collapsing to a stale marker —
#: a consumer (GAS) drains the log every round; anything far beyond that is
#: an engine user who never calls :meth:`SolverEngine.take_reuse_decision`.
_INVALIDATION_LOG_LIMIT = 64

_INF = math.inf


@dataclass
class CommitDelta:
    """Everything an incremental re-peel learned about one committed anchor.

    Recorded by :meth:`SolverEngine._advance` for every commit — the
    incremental path knows it from the re-peel, the full-peel fallback
    diffs the new dense arrays against the old ones — and consumed by the
    incremental component-tree patch
    (:meth:`~repro.core.component_tree.TrussComponentTree.apply_commit`):

    * ``anchor_eid`` — dense id of the committed anchor;
    * ``follower_eids`` — its exact follower set (every one gained ``+1``);
    * ``changed_eids`` — every edge whose trussness *or* peeling layer
      differs from the pre-commit state (the anchor itself included); this
      is exactly the ``invalid_edges`` set of the reuse rule (Algorithm 5);
    * ``state_after`` — the materialised post-commit state (cleared once the
      tree has consumed the delta, so chained states do not accumulate).
    """

    anchor_eid: int
    follower_eids: Tuple[int, ...]
    changed_eids: FrozenSet[int]
    state_after: Optional[TrussState]


# ---------------------------------------------------------------------------
# Incremental re-peeling primitives (dense-id domain)
# ---------------------------------------------------------------------------
def _dirty_closure(
    index: GraphIndex,
    truss: List[float],
    anchor_eid: int,
    limit: Optional[float] = None,
) -> Optional[Set[int]]:
    """Layer-free superset of the Lemma-2 upward-route closure of ``anchor_eid``.

    Seeds are the anchor's non-anchored triangle neighbours with trussness at
    least ``t(x)``; the expansion walks same-trussness triangle neighbours.
    Dropping the layer comparisons keeps the closure valid when intermediate
    layers are stale (chained evaluations) — it is only ever a superset, and
    the per-level greatest fixed point below is exact for any member set
    sandwiched between the followers and the whole hull.

    When ``limit`` is given the walk aborts and returns ``None`` as soon as
    the closure exceeds it — the caller falls back to a full peel, so there
    is no point paying for the rest of the expansion.
    """
    tri = index.edge_triangles
    t_anchor = truss[anchor_eid]
    seen: Set[int] = {anchor_eid}
    stack: List[int] = []
    for a, b, _w in tri[anchor_eid]:
        for eid in (a, b):
            if eid not in seen and t_anchor <= truss[eid] != _INF:
                seen.add(eid)
                stack.append(eid)
    closure: Set[int] = set(stack)
    if limit is not None and len(closure) > limit:
        return None
    while stack:
        eid = stack.pop()
        k = truss[eid]
        for a, b, _w in tri[eid]:
            for nxt in (a, b):
                if nxt not in seen and truss[nxt] == k:
                    seen.add(nxt)
                    closure.add(nxt)
                    stack.append(nxt)
        if limit is not None and len(closure) > limit:
            return None
    return closure


def _gfp_level(
    index: GraphIndex,
    truss: List[float],
    anchor_eid: int,
    k: int,
    members: Set[int],
) -> Set[int]:
    """Level-``k`` followers: greatest fixed point of the support condition.

    A member survives iff it closes at least ``k - 1`` triangles whose other
    two edges are each *solid* (the new anchor, an existing anchor or an edge
    of trussness ``>= k + 1`` — anchors hold ``inf`` in ``truss``) or another
    surviving member.  ``members`` may be any superset of the level-k
    followers drawn from the k-hull; extras are peeled away.
    """
    tri = index.edge_triangles
    solid = k + 1
    alive = set(members)
    support: Dict[int, int] = {}
    for eid in alive:
        count = 0
        for a, b, _w in tri[eid]:
            if (a == anchor_eid or truss[a] >= solid or a in alive) and (
                b == anchor_eid or truss[b] >= solid or b in alive
            ):
                count += 1
        support[eid] = count
    threshold = k - 1
    queue = [eid for eid in alive if support[eid] < threshold]
    removed = set(queue)
    while queue:
        eid = queue.pop()
        alive.discard(eid)
        for a, b, _w in tri[eid]:
            for member, partner in ((a, b), (b, a)):
                if member in alive and (
                    partner == anchor_eid or truss[partner] >= solid or partner in alive
                ):
                    support[member] -= 1
                    if support[member] < threshold and member not in removed:
                        removed.add(member)
                        queue.append(member)
    return alive


def _followers_on_arrays(
    index: GraphIndex, truss: List[float], anchor_eid: int, dirty: Set[int]
) -> List[int]:
    """Exact follower eids of anchoring ``anchor_eid``, given the dirty closure."""
    by_level: Dict[int, Set[int]] = {}
    for eid in dirty:
        by_level.setdefault(int(truss[eid]), set()).add(eid)
    followers: List[int] = []
    for k, members in by_level.items():
        followers.extend(_gfp_level(index, truss, anchor_eid, k, members))
    return followers


def _repeel_hull_layers(
    index: GraphIndex,
    truss: List[float],
    layer: List[float],
    k: int,
    members: List[int],
) -> None:
    """Recompute the synchronous peeling layers of the ``k``-hull in place.

    ``members`` are the eids with (new) trussness exactly ``k``; support is
    counted against the phase-``k`` graph ``{t >= k}`` (anchors hold ``inf``).
    The wave rule mirrors :func:`repro.graph.index.peel_trussness`: waves are
    processed in ascending eid order, removals take effect immediately within
    a wave, and an edge whose support drops to the threshold mid-wave joins
    the *next* wave.
    """
    tri = index.edge_triangles
    threshold = k - 2
    support: Dict[int, int] = {}
    for eid in members:
        count = 0
        for a, b, _w in tri[eid]:
            if truss[a] >= k and truss[b] >= k:
                count += 1
        support[eid] = count
    removed: Set[int] = set()
    scheduled: Set[int] = set()
    frontier = sorted(eid for eid in members if support[eid] <= threshold)
    scheduled.update(frontier)
    layer_index = 0
    while frontier:
        layer_index += 1
        next_frontier: List[int] = []
        for eid in frontier:
            layer[eid] = layer_index
            removed.add(eid)
            for a, b, _w in tri[eid]:
                if (
                    truss[a] >= k
                    and truss[b] >= k
                    and a not in removed
                    and b not in removed
                ):
                    if truss[a] == k:
                        support[a] -= 1
                        if support[a] <= threshold and a not in scheduled:
                            scheduled.add(a)
                            next_frontier.append(a)
                    if truss[b] == k:
                        support[b] -= 1
                        if support[b] <= threshold and b not in scheduled:
                            scheduled.add(b)
                            next_frontier.append(b)
        next_frontier.sort()
        frontier = next_frontier


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class SolverEngine:
    """Shared session state for one (or several) solves over a fixed graph.

    The engine owns everything the solvers used to rebuild independently:
    the frozen :class:`GraphIndex`, the anchor-free baseline state, the
    current anchored state (advanced by incremental re-peeling on every
    committed anchor), the truss component tree of the current state and the
    GAS follower caches.  Solvers access it through :meth:`solve` or drive
    the primitives (:meth:`commit_anchor`, :meth:`evaluate_gain`,
    :meth:`tree`) directly.
    """

    def __init__(
        self,
        graph: Graph,
        baseline_state: Optional[TrussState] = None,
        full_peel_threshold: float = DEFAULT_FULL_PEEL_THRESHOLD,
        tree_mode: str = "patch",
    ) -> None:
        if tree_mode not in TREE_MODES:
            raise InvalidParameterError(
                f"unknown tree_mode {tree_mode!r}; expected one of {TREE_MODES}"
            )
        self.graph = graph
        self.index = GraphIndex.of(graph)
        self.full_peel_threshold = full_peel_threshold
        #: ``"patch"`` (default) maintains the component tree incrementally
        #: after each commit; ``"rebuild"`` forces the PR 2 behaviour (a full
        #: :meth:`TrussComponentTree.build` per state) — the reference twin
        #: the equivalence tests and benchmarks pin the patched path against.
        self.tree_mode = tree_mode
        self._original_state = baseline_state
        # Committed anchor chain + the prefix of it already materialised as a
        # TrussState (commits are lazy: a final round that never reads the
        # state costs nothing, mirroring the solvers' old skip-last-round
        # optimisation).
        self.anchors: List[Edge] = []
        self._materialized_state: Optional[TrussState] = None
        self._materialized_count = 0
        self._tree: Optional[TrussComponentTree] = None
        self._tree_state: Optional[TrussState] = None
        # Per-commit deltas recorded by _advance, aligned with the
        # materialised chain; the component tree consumes them from
        # _tree_commit_index onwards.
        self._deltas: List[CommitDelta] = []
        self._tree_commit_index = 0
        # Invalidation log since the last take_reuse_decision() call:
        # ("patch", TreePatchInfo, CommitDelta) per patched commit,
        # ("rebuild", (previous_tree, commit_span), None) for a rebuild, or
        # ("stale", None, None) once the log can no longer yield an exact
        # decision (mixed batches, overflow) — stale entries pin no memory.
        self._invalidation_log: List[Tuple[str, object, Optional[CommitDelta]]] = []
        # GAS per-candidate follower caches: F[eid][node_id] plus the cached
        # per-candidate totals.  Owned here so a session can span rounds.
        self.follower_cache: Dict[int, Dict[int, FrozenSet[Edge]]] = {}
        self.follower_totals: Dict[int, int] = {}
        # Baseline follower snapshot (the GAS warm-path fix): the follower
        # cache of an *unanchored* first round, captured once per session by
        # :meth:`snapshot_baseline_followers` and surviving :meth:`reset` —
        # a warm session's first GAS round restores it instead of
        # recomputing every candidate's followers from scratch.
        self._baseline_followers: Optional[
            Tuple[Dict[int, Dict[int, FrozenSet[Edge]]], Dict[int, int]]
        ] = None
        #: Diagnostics: how often each re-peel path ran for the *current*
        #: solve.  :meth:`reset` folds the counters into
        #: :attr:`lifetime_stats` and zeroes them, so a warm (cached) engine
        #: reports exactly the same per-solve stats as a fresh one — the
        #: serving layer's byte-identity guarantee depends on this.
        self.stats: Dict[str, int] = {
            "incremental_peels": 0,
            "full_peels": 0,
            "incremental_gain_evals": 0,
            "full_gain_evals": 0,
            "dirty_edges": 0,
            "tree_patches": 0,
            "tree_rebuilds": 0,
        }
        #: Accumulated counters of every solve that was *reset away* (the
        #: current solve's counters live in :attr:`stats` until the next
        #: reset); see :meth:`session_info` for the combined view.
        self.lifetime_stats: Dict[str, int] = dict.fromkeys(self.stats, 0)
        #: Number of :meth:`solve` calls served by this engine instance.
        self.solve_count = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    @property
    def original_state(self) -> TrussState:
        """The anchor-free baseline state (Definition 4's reference point)."""
        if self._original_state is None:
            self._original_state = TrussState.compute(self.graph)
        return self._original_state

    @property
    def state(self) -> TrussState:
        """The state of the committed anchor chain (materialised on demand).

        The chain always extends :attr:`original_state` — if a provided
        baseline carries anchors of its own, committed anchors stack on top
        of them, regardless of whether the state was first read before or
        after the commits.
        """
        state = self._materialized_state
        if state is None:
            state = self.original_state
        while self._materialized_count < len(self.anchors):
            state = self._advance(state, self.anchors[self._materialized_count])
            self._materialized_count += 1
        self._materialized_state = state
        return state

    def reset(self, initial_anchors: Iterable[Edge] = ()) -> None:
        """Start a fresh solve: drop the chain, caches, tree and per-solve stats.

        The expensive session assets — the :class:`GraphIndex`, the
        anchor-free baseline state and the baseline follower snapshot —
        survive, which is exactly what a warm (cached) engine amortises
        across requests.  Everything a solver can observe is restored: the
        state chain, the component tree, the follower caches and the
        :attr:`stats` counters (folded into :attr:`lifetime_stats`), so a
        solve on a reused engine returns results canonically identical to
        the same solve on a fresh engine (only work-rate diagnostics such
        as GAS's recompute counters may differ — a warm first round
        recomputes nothing; see
        :func:`repro.api.canonical_result`).

        Duplicate initial anchors are dropped (first occurrence wins) —
        anchoring is idempotent, and the chain advance rejects re-anchoring.
        """
        for key, value in self.stats.items():
            self.lifetime_stats[key] = self.lifetime_stats.get(key, 0) + value
            self.stats[key] = 0
        seen: Set[Edge] = set()
        self.anchors = []
        for e in initial_anchors:
            edge = self.graph.require_edge(e)
            if edge not in seen:
                seen.add(edge)
                self.anchors.append(edge)
        self._materialized_state = None
        self._materialized_count = 0
        self._tree = None
        self._tree_state = None
        self._deltas = []
        self._tree_commit_index = 0
        self._invalidation_log = []
        self.follower_cache.clear()
        self.follower_totals.clear()

    def snapshot_baseline_followers(self) -> None:
        """Persist the unanchored first-round follower cache for future solves.

        Called by GAS right after a cold first-round full pass on an
        **unanchored** session (no committed or initial anchors): at that
        point every ``F[e][node]`` entry and every cached total was computed
        against :attr:`original_state`, so they are valid for the first
        round of *any* later unanchored solve on this engine.  A no-op when
        anchors are present, when a snapshot already exists, or when there
        is nothing to snapshot.
        """
        if self.anchors or self._baseline_followers is not None:
            return
        if not self.follower_cache:
            return
        self._baseline_followers = (
            {eid: dict(entry) for eid, entry in self.follower_cache.items()},
            dict(self.follower_totals),
        )

    def restore_baseline_followers(self) -> bool:
        """Refill the live follower caches from the baseline snapshot.

        Returns ``True`` when the snapshot applied: the session is
        unanchored (the snapshot was taken against :attr:`original_state`,
        which every solve chain starts from) and a snapshot exists.  The
        restore mutates the cache dicts in place, so aliases held by a
        running solver stay valid.  Entries are copied out — the solver
        mutates its cache across rounds and the snapshot must keep serving
        pristine baselines.
        """
        if self.anchors or self._baseline_followers is None:
            return False
        cache, totals = self._baseline_followers
        self.follower_cache.clear()
        for eid, entry in cache.items():
            self.follower_cache[eid] = dict(entry)
        self.follower_totals.clear()
        self.follower_totals.update(totals)
        return True

    def commit_anchor(self, edge: Edge) -> None:
        """Append ``edge`` to the anchor chain (state advances lazily)."""
        self.anchors.append(self.graph.require_edge(edge))

    def tree(self) -> TrussComponentTree:
        """The truss component tree of the current state.

        With ``tree_mode="patch"`` (the default) an existing tree is advanced
        **incrementally**: each commit's :class:`CommitDelta` is applied via
        :meth:`TrussComponentTree.apply_commit`, touching only the nodes whose
        trussness levels changed — after a full-peel fallback too, whose
        delta is a diff of the dense arrays.  The tree is built from scratch
        only when no tree exists yet, or on every state with
        ``tree_mode="rebuild"`` (the reference behaviour).  Every absorbed
        commit is logged so :meth:`take_reuse_decision` can report the exact
        invalidation.
        """
        state = self.state
        if self._tree is not None and self._tree_state is state:
            return self._tree
        tree = self._tree
        if (
            self.tree_mode == "patch"
            and tree is not None
            and self._tree_commit_index < self._materialized_count
        ):
            while self._tree_commit_index < self._materialized_count:
                delta = self._deltas[self._tree_commit_index]
                assert delta.state_after is not None
                info = tree.apply_commit(delta, delta.state_after)
                self.stats["tree_patches"] += 1
                self._invalidation_log.append(("patch", info, delta))
                delta.state_after = None  # release the chained state
                self._tree_commit_index += 1
            if len(self._invalidation_log) > _INVALIDATION_LOG_LIMIT:
                # Nobody is draining the log; stop accumulating exact info.
                self._invalidation_log = [("stale", None, None)]
            self._tree_state = state
            return tree
        if tree is not None:
            if self._invalidation_log:
                # A mixed batch can never yield an exact decision; collapse
                # to a stale marker so the old tree is not pinned in memory.
                self._invalidation_log = [("stale", None, None)]
            else:
                span = self._materialized_count - self._tree_commit_index
                self._invalidation_log.append(("rebuild", (tree, span), None))
        with _span("engine.tree_rebuild"):
            self._tree = TrussComponentTree.build(state)
        self.stats["tree_rebuilds"] += 1
        self._tree_state = state
        self._tree_commit_index = self._materialized_count
        for delta in self._deltas:
            delta.state_after = None
        return self._tree

    def take_reuse_decision(
        self, committed_anchor: Edge, committed_followers: Iterable[Edge]
    ) -> Optional[ReuseInvalidation]:
        """Exact follower-reuse invalidation for the commits since last asked.

        Refreshes the component tree, then consumes the invalidation log:

        * if every absorbed commit was an incremental tree patch, the
          decision is assembled from the patch bookkeeping alone — no
          before/after tree diff, no full scan — and ``dirty_eids`` narrows
          the candidates the GAS heap must re-examine to the dirty closure;
        * if the tree was rebuilt (``tree_mode="rebuild"``), the decision
          comes from the classic before/after diff
          (:func:`compute_reuse_decision`) and ``dirty_eids`` is ``None``
          (re-examine everything);
        * returns ``None`` when no information is available (no commit since
          the last call, or several mixed commits at once) — callers must
          then treat every cached entry as invalid.

        Either way the returned decision is byte-identical to what
        :func:`compute_reuse_decision` would produce, which the test-suite
        asserts on randomized graphs.
        """
        self.tree()
        log = self._invalidation_log
        self._invalidation_log = []
        if not log:
            return None
        if len(log) == 1 and log[0][0] == "rebuild":
            previous_tree, span = log[0][1]  # type: ignore[misc]
            assert isinstance(previous_tree, TrussComponentTree)
            if span != 1:
                # The rebuild absorbed several commits at once; steps 2-3 of
                # the reuse rule (sla adjacency, follower hosts) would only
                # cover the last anchor — be conservative instead.
                return None
            decision = compute_reuse_decision(
                previous_tree,
                self._tree,  # type: ignore[arg-type]
                committed_anchor,
                set(committed_followers),
            )
            return ReuseInvalidation(decision=decision, dirty_eids=None)
        if all(kind == "patch" for kind, _info, _delta in log):
            decision = ReuseDecision()
            dirty: Set[int] = set()
            edge_of = self.index.edge_of
            for _kind, info, delta in log:
                assert isinstance(info, TreePatchInfo) and delta is not None
                decision.invalid_node_ids |= info.invalid_node_ids
                for eid in delta.changed_eids:
                    decision.invalid_edges.add(edge_of[eid])
                dirty |= info.dirty_candidate_eids
            return ReuseInvalidation(decision=decision, dirty_eids=dirty)
        return None  # pragma: no cover - mixed multi-commit batches

    # ------------------------------------------------------------------
    # Incremental re-peeling
    # ------------------------------------------------------------------
    def _advance(self, state: TrussState, new_anchor: Edge) -> TrussState:
        """Exact state for ``state.anchors + {new_anchor}`` via incremental re-peel."""
        index = self.index
        eid = index.eid_of[new_anchor]
        _index, truss, layer, mask = state.kernel_views()
        if mask[eid]:
            raise InvalidParameterError(f"edge {new_anchor!r} is already anchored")
        m = index.num_edges

        dirty = _dirty_closure(index, truss, eid, self.full_peel_threshold * m)
        if dirty is None:
            self.stats["full_peels"] += 1
            with _span("engine.full_peel", edges=m):
                new_state = TrussState.compute(
                    self.graph, set(state.anchors) | {new_anchor}
                )
            # Diff the dense arrays for the delta (followers: non-anchor
            # edges whose trussness moved; anchors hold inf on both sides),
            # so the tree is patched after a full peel as after an
            # incremental one.
            _index, new_truss, new_layer, _new_mask = new_state.kernel_views()
            followers = [
                e2 for e2 in range(m) if truss[e2] != new_truss[e2] != _INF
            ]
            changed = {e2 for e2 in range(m) if new_layer[e2] != layer[e2]}
            changed.update(followers)
            changed.add(eid)
            self._record_delta(eid, followers, changed, new_state)
            return new_state
        self.stats["dirty_edges"] += len(dirty)
        self.stats["incremental_peels"] += 1

        with _span("engine.incremental_peel", dirty_edges=len(dirty)):
            return self._advance_incremental(
                state, new_anchor, eid, dirty, truss, layer, mask, m
            )

    def _advance_incremental(
        self,
        state: TrussState,
        new_anchor: Edge,
        eid: int,
        dirty: Set[int],
        truss,
        layer,
        mask,
        m: int,
    ) -> TrussState:
        index = self.index
        followers = _followers_on_arrays(index, truss, eid, dirty)

        new_truss: List[float] = list(truss)
        new_layer: List[float] = list(layer)
        new_mask = bytearray(mask)
        t_x = truss[eid]
        affected_levels: Set[int] = {int(t_x)}
        for f in followers:
            k = int(truss[f])
            new_truss[f] = k + 1
            affected_levels.add(k)
            affected_levels.add(k + 1)
        new_truss[eid] = _INF
        new_layer[eid] = _INF
        new_mask[eid] = 1
        # Levels above t(x) where the anchor's new permanent presence closes
        # a triangle with a still-present partner: their waves gain support.
        for a, b, _w in index.edge_triangles[eid]:
            for c, d in ((a, b), (b, a)):
                tc = new_truss[c]
                if t_x < tc != _INF and new_truss[d] >= tc:
                    affected_levels.add(int(tc))

        # One pass grouping the members of the affected hulls (and the new
        # k_max, which the same scan yields for free).
        members_by_level: Dict[int, List[int]] = {k: [] for k in affected_levels}
        k_max = 1
        for e2 in range(m):
            t = new_truss[e2]
            if t == _INF:
                continue
            if t > k_max:
                k_max = int(t)
            bucket = members_by_level.get(t)
            if bucket is not None:
                bucket.append(e2)
        for k, members in members_by_level.items():
            if members:
                _repeel_hull_layers(index, new_truss, new_layer, k, members)

        anchor_set = frozenset(state.anchors | {new_anchor})
        # Anchors already hold inf in the dense arrays; the tuple-domain
        # dicts materialise lazily from them if a consumer ever asks.
        decomposition = TrussDecomposition.from_dense(
            index.edge_of,
            new_truss,
            new_layer,
            anchor_set,
            k_max,
            (index, new_truss, new_layer, new_mask),
        )
        new_state = TrussState(graph=self.graph, anchors=anchor_set, decomposition=decomposition)

        # Record the commit delta for the incremental tree patch: the exact
        # followers plus every edge whose trussness OR layer moved (scanning
        # only the re-peeled hulls — layer changes cannot occur elsewhere,
        # which is invariant 3 of the incremental re-peel).
        changed: Set[int] = {eid}
        changed.update(followers)
        for members in members_by_level.values():
            for e2 in members:
                if new_layer[e2] != layer[e2] or new_truss[e2] != truss[e2]:
                    changed.add(e2)
        self._record_delta(eid, followers, changed, new_state)
        return new_state

    def _record_delta(
        self,
        anchor_eid: int,
        followers: Iterable[int],
        changed: Set[int],
        new_state: TrussState,
    ) -> None:
        self._deltas.append(
            CommitDelta(
                anchor_eid=anchor_eid,
                follower_eids=tuple(sorted(followers)),
                changed_eids=frozenset(changed),
                # The chained state is only kept while a tree exists to
                # consume it (the patch path); solvers that never read the
                # tree must not pin the whole chain in memory.
                state_after=new_state if self._tree is not None else None,
            )
        )

    def evaluate_gain(self, edge: Edge) -> int:
        """Trussness gain of anchoring ``edge`` on top of the current state.

        This is BASE's per-candidate evaluation: a re-peel restricted to the
        dirty region (with the full-peel fallback), diffed against the
        current state.  By Lemma 1 the diff equals the follower count.
        """
        state = self.state
        index = self.index
        eid = index.eid_of[self.graph.require_edge(edge)]
        _index, truss, _layer, mask = state.kernel_views()
        if mask[eid]:
            raise InvalidParameterError(f"edge {edge!r} is already anchored")
        m = index.num_edges
        dirty = _dirty_closure(index, truss, eid, self.full_peel_threshold * m)
        if dirty is None:
            self.stats["full_gain_evals"] += 1
            eid_of = index.eid_of
            anchor_eids = [eid_of[a] for a in state.anchors]
            anchor_eids.append(eid)
            new_truss, _new_layer, _k_max = peel_trussness_fast(index, anchor_eids)
            gain = 0
            for e2 in range(m):
                if mask[e2] or e2 == eid:
                    continue
                gain += new_truss[e2] - truss[e2]
            return int(gain)
        self.stats["incremental_gain_evals"] += 1
        return len(_followers_on_arrays(index, truss, eid, dirty))

    def apply_anchor_to_arrays(
        self,
        truss: List[float],
        mask: bytearray,
        eid: int,
        anchored_eids: Sequence[int],
    ) -> Tuple[List[float], bytearray]:
        """Anchor ``eid`` on top of dense ``(truss, mask)`` overlay arrays.

        ``anchored_eids`` must list every eid already anchored in ``truss``
        (baseline anchors included) — the full-peel fallback re-anchors all
        of them.  Returns fresh arrays; the inputs are not mutated.  Layers
        are *not* maintained: this is the trussness-only chain primitive
        behind :meth:`evaluate_anchor_chain_gain` and the exact solver's
        prefix-shared enumeration.
        """
        index = self.index
        all_anchors = list(anchored_eids)
        all_anchors.append(eid)
        new_mask = bytearray(mask)
        new_mask[eid] = 1
        dirty = _dirty_closure(
            index, truss, eid, self.full_peel_threshold * index.num_edges
        )
        if dirty is None:
            self.stats["full_gain_evals"] += 1
            new_truss: List[float] = list(peel_trussness_fast(index, all_anchors)[0])
            for done in all_anchors:  # anchors carry the peeling sentinel 0
                new_truss[done] = _INF
        else:
            self.stats["incremental_gain_evals"] += 1
            new_truss = list(truss)
            for f in _followers_on_arrays(index, truss, eid, dirty):
                new_truss[f] += 1
            new_truss[eid] = _INF
        return new_truss, new_mask

    def evaluate_anchor_chain_gain(self, edges: Iterable[Edge]) -> int:
        """Gain of an arbitrary anchor set, chained one incremental step at a
        time from the original state (Definition 4).

        Convenience wrapper over :meth:`apply_anchor_to_arrays` for one-off
        subset evaluations (used by the equivalence tests and available to
        custom solvers).  The exact solver does *not* call it — it shares the
        arrays of common subset prefixes across its whole enumeration, which
        a per-subset chain cannot.
        """
        index = self.index
        m = index.num_edges
        eid_of = index.eid_of
        graph = self.graph
        _index, base_truss, _layer, base_mask = self.original_state.kernel_views()
        truss: List[float] = list(base_truss)
        mask = bytearray(base_mask)
        anchored = [eid_of[a] for a in self.original_state.anchors]
        for edge in edges:
            eid = eid_of[graph.require_edge(edge)]
            if mask[eid]:
                continue
            truss, mask = self.apply_anchor_to_arrays(truss, mask, eid, anchored)
            anchored.append(eid)
        gain = 0
        for e2 in range(m):
            if mask[e2] or base_mask[e2]:
                continue
            gain += truss[e2] - base_truss[e2]
        return int(gain)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        algorithm: str,
        budget: int,
        initial_anchors: Iterable[Edge] = (),
        **params: object,
    ) -> AnchorResult:
        """Run a registered solver against this session.

        ``algorithm`` is a registry name (see :func:`available_solvers`);
        ``initial_anchors`` are committed before round one; ``params`` are
        solver-specific knobs validated against the solver's declared
        parameter list (a typo fails loudly).  Convenience wrapper that
        builds the canonical (unbound) :class:`repro.api.SolveSpec` and
        delegates to :meth:`solve_spec`.
        """
        return self.solve_spec(
            SolveSpec(
                algorithm=algorithm,
                budget=budget,
                initial_anchors=tuple(initial_anchors),
                params=params,
            )
        )

    def solve_spec(self, spec: SolveSpec) -> AnchorResult:
        """Serve one canonical :class:`repro.api.SolveSpec` on this session.

        The single ingress every solve funnels through (the CLI, the Python
        API, the serving layer and the registry's graph-level convenience
        all end up here).  The spec's graph *source*, if any, is the
        caller's responsibility — :class:`repro.api.Session` and the
        serving layer verify it resolves to this engine's graph before
        calling.  Engine-construction options in the spec must match this
        engine (a mismatch would silently solve under different knobs than
        the spec asked for).  The session is reset first, so one engine can
        serve many solves while reusing its :class:`GraphIndex`, baseline
        state and baseline follower snapshot.
        """
        solver = get_solver(spec.algorithm)
        if solver.params is not None:
            unknown = {name for name, _v in spec.params} - set(solver.params)
            if unknown:
                raise InvalidParameterError(
                    f"unknown parameter(s) for solver {spec.algorithm!r}: "
                    f"{', '.join(sorted(unknown))}; accepted: "
                    f"{', '.join(sorted(solver.params)) or '(none)'}"
                )
        for option, value in spec.engine:
            own = getattr(self, option)
            if own != value:
                raise InvalidParameterError(
                    f"spec engine option {option}={value!r} does not match "
                    f"this engine's {option}={own!r}"
                )
        self.reset(spec.initial_anchors)
        self.solve_count += 1
        with _span("engine.solve_spec", algorithm=spec.algorithm, budget=spec.budget):
            return solver.fn(self, spec)

    def session_info(self) -> Dict[str, object]:
        """Session-level diagnostics for long-lived (cached) engines.

        Returns the solve count plus the lifetime re-peel counters (the
        accumulated :attr:`lifetime_stats` merged with the current solve's
        :attr:`stats`).  The serving layer attaches this to its responses so
        operators can see how warm a session actually is.
        """
        combined = dict(self.lifetime_stats)
        for key, value in self.stats.items():
            combined[key] = combined.get(key, 0) + value
        return {
            "solve_count": self.solve_count,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "lifetime_stats": combined,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SolverEngine(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"anchors={len(self.anchors)})"
        )


# ---------------------------------------------------------------------------
# Solver registry
# ---------------------------------------------------------------------------
SolverFn = Callable[[SolverEngine, SolveSpec], AnchorResult]

#: Engine-construction keywords accepted by :meth:`SolverSpec.__call__` and
#: stripped from the solver params.
_ENGINE_KWARGS = ("baseline_state", "full_peel_threshold", "tree_mode")


@dataclass(frozen=True)
class SolverSpec:
    """One registry entry: a named solver with its engine-level entry point.

    ``params`` declares the parameter names the solver reads from
    ``request.params``; :meth:`SolverEngine.solve` rejects anything else, so
    a typo'd keyword fails loudly instead of silently running with defaults.
    ``None`` (the default for third-party registrations) skips the check.

    ``randomized`` marks solvers whose result depends on randomness unless a
    ``seed`` parameter is supplied (the Rand/Sup/Tur baselines).  The serving
    layer consults it before memoising a result: a deterministic solver is a
    pure function of ``(graph, request)`` and can be answered from cache; a
    randomized one without a seed must be re-run every time.
    """

    name: str
    fn: SolverFn
    description: str = ""
    params: Optional[Tuple[str, ...]] = None
    randomized: bool = False

    def __call__(
        self, graph: Graph, budget: int, initial_anchors: Iterable[Edge] = (), **params: object
    ) -> AnchorResult:
        """Convenience graph-level invocation (builds a one-shot engine)."""
        engine_kwargs = {
            key: params.pop(key) for key in _ENGINE_KWARGS if key in params
        }
        engine = SolverEngine(graph, **engine_kwargs)  # type: ignore[arg-type]
        return engine.solve(self.name, budget, initial_anchors=initial_anchors, **params)


_REGISTRY: Dict[str, SolverSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtin_solvers() -> None:
    """Import the built-in solver modules so their registrations run.

    Deferred (instead of top-level imports) to keep this module free of
    cycles: the solver modules import the registry from here.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.core.exact  # noqa: F401
    import repro.core.gas  # noqa: F401
    import repro.core.greedy  # noqa: F401
    import repro.core.heuristics  # noqa: F401
    if os.environ.get("REPRO_FAULT_SOLVER") == "1":
        # The chaos suite armed fault injection (see repro.service.faults).
        # Registries are per-process, so a process-pool worker would not
        # know the test-only solver its coordinator registered; the env
        # flag survives the fork and re-registers it here.
        import repro.service.faults

        repro.service.faults.install_fault_solver()


def register_solver(
    name: str,
    fn: Optional[SolverFn] = None,
    description: str = "",
    replace: bool = False,
    params: Optional[Tuple[str, ...]] = None,
    randomized: bool = False,
) -> Callable[[SolverFn], SolverFn]:
    """Register ``fn`` under ``name`` (usable as a decorator).

    Registering an existing name raises unless ``replace=True`` — silently
    shadowing a solver is how benchmark tables go subtly wrong.  ``params``
    optionally declares the accepted ``request.params`` keys and
    ``randomized`` marks seed-dependent solvers (see :class:`SolverSpec`).
    """

    def _register(solver_fn: SolverFn) -> SolverFn:
        if not replace and name in _REGISTRY:
            raise InvalidParameterError(f"solver {name!r} is already registered")
        _REGISTRY[name] = SolverSpec(
            name=name,
            fn=solver_fn,
            description=description,
            params=params,
            randomized=randomized,
        )
        return solver_fn

    if fn is not None:
        return _register(fn)
    return _register


def get_solver(name: str) -> SolverSpec:
    """Look up a registered solver by name."""
    _ensure_builtin_solvers()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown solver {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from exc


def available_solvers() -> List[str]:
    """Names of every registered solver, sorted."""
    _ensure_builtin_solvers()
    return sorted(_REGISTRY)


class _RegistryView(Mapping):
    """A live read-only mapping view over the solver registry.

    The CLI's solver table is an instance of this class, so a solver
    registered anywhere (including third-party code) shows up without any
    table edit.
    """

    def __getitem__(self, name: str) -> SolverSpec:
        _ensure_builtin_solvers()
        return _REGISTRY[name]

    def __iter__(self):
        _ensure_builtin_solvers()
        return iter(sorted(_REGISTRY))

    def __len__(self) -> int:
        _ensure_builtin_solvers()
        return len(_REGISTRY)


def solver_table() -> Mapping[str, SolverSpec]:
    """A live name -> solver mapping (the CLI's ``_SOLVERS`` view)."""
    return _RegistryView()


def solve(graph: Graph, budget: int, algorithm: str = "gas", **params: object) -> AnchorResult:
    """One-shot convenience: build an engine and run ``algorithm``.

    Equivalent to ``SolverEngine(graph).solve(algorithm, budget, **params)``
    with engine-construction keywords (``baseline_state``,
    ``full_peel_threshold``, ``tree_mode``) split off automatically.  Use a
    long-lived :class:`SolverEngine` instead when running several solves
    over the same graph.
    """
    return get_solver(algorithm)(graph, budget, **params)
