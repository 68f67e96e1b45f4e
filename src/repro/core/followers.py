"""Follower computation for a single anchor edge (Section III-B of the paper).

When an edge ``x`` is anchored its support becomes infinite, which may allow
other edges to survive one more level of the truss peeling.  The edges whose
trussness increases are the *followers* ``F(x, G)``; by Lemma 1 every
follower increases by exactly one, so the trussness gain of anchoring ``x``
equals ``|F(x, G)|``.

Three interchangeable implementations are provided:

``recompute``
    Ground truth: rerun the anchored truss decomposition on the whole graph
    and diff the trussness values.  ``O(m^{1.5})`` per anchor — this is what
    the paper's ``BASE`` algorithm does.

``peel``
    Candidate restriction via the upward-route reachable set (Lemma 2)
    followed by an exact greatest-fixed-point peeling per trussness level.
    This keeps the work proportional to the size of the affected region.

``support-check``
    A faithful implementation of the paper's Algorithm 3: per-hull min-heaps
    keyed by the peeling layer, optimistic *effective triangle* counting
    (Definition 8), and the ``Retract`` cascade that withdraws support when a
    candidate is eliminated.

All three return exactly the same follower set; the test-suite asserts this
on hundreds of random graphs.

The local methods run in the *integer domain* of the shared
:class:`~repro.graph.index.GraphIndex`: candidates, heaps and status flags
are keyed by dense edge ids, trussness/layer lookups are list indexing, and
triangle queries read the precomputed per-edge triple lists.  The original
tuple-domain implementations are preserved verbatim in
:mod:`repro.core.followers_reference` and the test-suite asserts both agree.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.graph.graph import Edge
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError


#: The dense-id candidate restriction: either a set of dense edge ids, or a
#: membership pair ``(node_of_eid, node_ids)`` admitting ``eid`` when
#: ``node_of_eid[eid] in node_ids`` (GAS passes the component tree's
#: ``node_of_eid`` and the tree-node ids it needs recomputed).
CandidateFilterIds = Union[AbstractSet[int], Tuple[Sequence[int], AbstractSet[int]]]


class FollowerMethod(str, Enum):
    """Selector for the follower-computation strategy."""

    RECOMPUTE = "recompute"
    PEEL = "peel"
    SUPPORT_CHECK = "support-check"


# ---------------------------------------------------------------------------
# Ground truth: full anchored re-decomposition
# ---------------------------------------------------------------------------
def followers_by_recompute(state: TrussState, anchor: Edge) -> Set[Edge]:
    """Followers of ``anchor`` obtained by re-running truss decomposition."""
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")
    anchored_state = state.with_anchor(anchor)
    return anchored_state.followers_relative_to(state)


def trussness_gain_of_anchor(state: TrussState, anchor: Edge) -> int:
    """Trussness gain of anchoring one extra edge (``= |F(x, G)|`` by Lemma 1)."""
    return len(followers_by_recompute(state, anchor))


# ---------------------------------------------------------------------------
# Candidate collection (upward-route reachable superset, Lemma 2)
# ---------------------------------------------------------------------------
def _initial_candidate_ids(state: TrussState, anchor_id: int, strict: bool) -> Set[int]:
    """Dense ids of the anchor's neighbour-edges satisfying Lemma 2 cond (i).

    With ``strict=True`` the layer comparison is strict (``l(e) > l(x)``),
    exactly as written in the paper.  With ``strict=False`` same-layer
    neighbour-edges are also included; this is only ever a superset and is
    used by the peeling method for extra safety margin.
    """
    index, trussness, layer, anchor_mask = state.kernel_views()
    t_anchor = trussness[anchor_id]
    l_anchor = layer[anchor_id]
    result: Set[int] = set()
    for e1, e2, _w in index.edge_triangles[anchor_id]:
        for eid in (e1, e2):
            if eid in result or anchor_mask[eid]:
                continue
            t_edge = trussness[eid]
            if t_edge > t_anchor:
                result.add(eid)
            elif t_edge == t_anchor:
                l_edge = layer[eid]
                if l_edge > l_anchor or (not strict and l_edge == l_anchor):
                    result.add(eid)
    return result


def _expand_candidate_ids(state: TrussState, seeds: Set[int]) -> Set[int]:
    """Upward-route reachable closure of ``seeds`` (dense edge ids).

    From a candidate ``e`` at trussness ``k`` the search may move to any
    neighbour-edge ``e'`` with ``t(e') = k`` and ``e ≺ e'`` (Definition 7).
    The closure is a superset of the follower set by Lemma 2.
    """
    index, trussness, layer, anchor_mask = state.kernel_views()
    edge_triangles = index.edge_triangles
    candidates: Set[int] = set(seeds)
    stack: List[int] = list(seeds)
    while stack:
        eid = stack.pop()
        k = trussness[eid]
        l_edge = layer[eid]
        for e1, e2, _w in edge_triangles[eid]:
            for nxt in (e1, e2):
                if nxt in candidates or anchor_mask[nxt]:
                    continue
                if trussness[nxt] == k and layer[nxt] >= l_edge:
                    candidates.add(nxt)
                    stack.append(nxt)
    return candidates


def _initial_candidates(state: TrussState, anchor: Edge, strict: bool) -> Set[Edge]:
    """Tuple-domain view of :func:`_initial_candidate_ids` (upward routes)."""
    index = state.index
    anchor_id = index.eid_of[state.graph.require_edge(anchor)]
    edge_of = index.edge_of
    return {edge_of[eid] for eid in _initial_candidate_ids(state, anchor_id, strict)}


def _expand_candidates(state: TrussState, seeds: Set[Edge]) -> Set[Edge]:
    """Tuple-domain view of :func:`_expand_candidate_ids` (upward routes)."""
    index = state.index
    eid_of = index.eid_of
    edge_of = index.edge_of
    seed_ids = {eid_of[state.graph.require_edge(e)] for e in seeds}
    return {edge_of[eid] for eid in _expand_candidate_ids(state, seed_ids)}


def _resolve_filter(
    state: TrussState,
    candidate_filter: Optional[Set[Edge]],
    candidate_filter_ids: Optional[CandidateFilterIds],
) -> Optional[Tuple[Sequence[int], AbstractSet[int]]]:
    """Normalise every filter spelling to one membership pair (or ``None``).

    The result is ``(key_of, allowed)``: an edge id ``eid`` passes the filter
    when ``key_of[eid] in allowed``.  A GAS membership pair
    ``(tree.node_of_eid, needed)`` is used as is, so no union of node edge
    sets is ever built; dense-id sets and edge-tuple sets map to the identity
    key (``range``) over the id set.
    """
    if candidate_filter_ids is not None:
        if isinstance(candidate_filter_ids, tuple):
            return candidate_filter_ids
        return range(state.index.num_edges), candidate_filter_ids
    if candidate_filter is None:
        return None
    eid_of = state.index.eid_of
    graph = state.graph
    allowed = {eid_of[graph.require_edge(e)] for e in candidate_filter}
    return range(state.index.num_edges), allowed


# ---------------------------------------------------------------------------
# Method "peel": exact greatest fixed point on the candidate set
# ---------------------------------------------------------------------------
def followers_candidate_peel(
    state: TrussState,
    anchor: Edge,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_filter_ids: Optional[CandidateFilterIds] = None,
) -> Set[Edge]:
    """Followers of ``anchor`` via candidate restriction + per-level peeling.

    For every trussness level ``k`` present among the candidates, the level-k
    followers are exactly the maximal set ``S`` of level-k candidates such
    that every member closes at least ``k - 1`` triangles whose other two
    edges are each either the anchor, an already-anchored edge, an edge of
    trussness ``>= k + 1``, or another member of ``S``.  The maximal such set
    is computed by iterative peeling.

    ``candidate_filter`` (edge tuples) or ``candidate_filter_ids`` (a
    dense-id set, or the ``(node_of_eid, node_ids)`` membership pair GAS
    passes) optionally restricts the seeds and the expanded candidates to
    selected tree nodes.
    """
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")

    index, trussness, _layer, _anchor_mask = state.kernel_views()
    anchor_id = index.eid_of[anchor]
    member = _resolve_filter(state, candidate_filter, candidate_filter_ids)

    seeds = _initial_candidate_ids(state, anchor_id, strict=False)
    if member is not None:
        key_of, allowed = member
        seeds = {eid for eid in seeds if key_of[eid] in allowed}
    candidates = _expand_candidate_ids(state, seeds)
    if member is not None:
        candidates = {eid for eid in candidates if key_of[eid] in allowed}
    candidates.discard(anchor_id)

    by_level: Dict[int, Set[int]] = {}
    for eid in candidates:
        by_level.setdefault(int(trussness[eid]), set()).add(eid)

    edge_of = index.edge_of
    followers: Set[Edge] = set()
    for k, level_candidates in by_level.items():
        for eid in _peel_level_ids(state, anchor_id, k, level_candidates):
            followers.add(edge_of[eid])
    return followers


def _peel_level_ids(
    state: TrussState, anchor_id: int, k: int, members: Set[int]
) -> Set[int]:
    """Greatest fixed point of the level-k support condition over ``members``."""
    index, trussness, _layer, anchor_mask = state.kernel_views()
    edge_triangles = index.edge_triangles
    solid_level = k + 1

    def is_solid(eid: int) -> bool:
        # Edges guaranteed to be in the (k+1)-truss of the anchored graph:
        # the new anchor, previously anchored edges, and edges whose
        # trussness is already at least k + 1.
        return eid == anchor_id or anchor_mask[eid] or trussness[eid] >= solid_level

    alive: Set[int] = set(members)
    support: Dict[int, int] = {}
    for eid in alive:
        count = 0
        for e1, e2, _w in edge_triangles[eid]:
            if (is_solid(e1) or e1 in alive) and (is_solid(e2) or e2 in alive):
                count += 1
        support[eid] = count

    threshold = k - 1
    queue: List[int] = [eid for eid in alive if support[eid] < threshold]
    removed: Set[int] = set(queue)
    while queue:
        eid = queue.pop()
        alive.discard(eid)
        for e1, e2, _w in edge_triangles[eid]:
            for member, partner in ((e1, e2), (e2, e1)):
                if member in alive and (is_solid(partner) or partner in alive):
                    support[member] -= 1
                    if support[member] < threshold and member not in removed:
                        removed.add(member)
                        queue.append(member)
    return alive


# ---------------------------------------------------------------------------
# Method "support-check": the paper's Algorithm 3
# ---------------------------------------------------------------------------
def followers_support_check(
    state: TrussState,
    anchor: Edge,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_filter_ids: Optional[CandidateFilterIds] = None,
) -> Set[Edge]:
    """Followers of ``anchor`` via the paper's Algorithm 3 (GetFollowers).

    The algorithm walks the upward routes rooted at the anchor's qualifying
    neighbour-edges hull by hull.  Candidates are popped from a min-heap
    keyed by their peeling layer; a popped candidate *survives* when its
    number of effective triangles (Definition 8) reaches ``t(e) - 1``,
    otherwise it is *eliminated* and the ``Retract`` cascade withdraws the
    support it had lent to previously surviving edges.

    ``candidate_filter`` / ``candidate_filter_ids`` restrict both the initial
    pushes and the route expansion to the given edges (used by GAS for
    per-tree-node reuse, as a ``(node_of_eid, node_ids)`` membership pair).

    Everything runs on dense edge ids: the heap holds ``(layer, eid)`` pairs
    (dense-id order equals public edge-id order, so the tie-breaking matches
    the reference), the per-level status lives in two small sets (survived,
    eliminated) — nothing per call is sized by the graph — and triangle
    queries read the index's precomputed triple lists.
    """
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")

    index, trussness, layer, anchor_mask = state.kernel_views()
    edge_triangles = index.edge_triangles
    anchor_id = index.eid_of[anchor]
    member = _resolve_filter(state, candidate_filter, candidate_filter_ids)

    initial = _initial_candidate_ids(state, anchor_id, strict=True)
    if member is not None:
        key_of, allowed = member
        initial = {eid for eid in initial if key_of[eid] in allowed}
    if not initial:
        # Common on sparse graphs (no qualifying neighbour-edges): skip the
        # per-call heap setup entirely.
        return set()

    heaps: Dict[int, List[Tuple[float, int]]] = {}
    for eid in initial:
        heaps.setdefault(int(trussness[eid]), []).append((layer[eid], eid))
    pushed: Set[int] = set(initial)

    heappush = heapq.heappush
    heappop = heapq.heappop

    followers_ids: List[int] = []

    for level in sorted(heaps):
        heap = heaps[level]
        heapq.heapify(heap)
        survived: Set[int] = set()
        eliminated: Set[int] = set()
        needed = level - 1

        def effective_triangles(eid: int) -> int:
            """Triangles of ``eid`` whose two other edges are both effective."""
            count = 0
            l_edge = layer[eid]
            for e1, e2, _w in edge_triangles[eid]:
                # Inlined effectiveness(eid, other) for both triangle edges:
                # the anchor, anchored edges and surviving edges always help;
                # eliminated or lower-trussness edges never do; an unchecked
                # edge helps when the deletion order eid ≺ other holds
                # (Definition 8).
                if e1 != anchor_id and not anchor_mask[e1] and e1 not in survived:
                    if e1 in eliminated:
                        continue
                    t1 = trussness[e1]
                    if t1 < level or (t1 == level and layer[e1] < l_edge):
                        continue
                if e2 != anchor_id and not anchor_mask[e2] and e2 not in survived:
                    if e2 in eliminated:
                        continue
                    t2 = trussness[e2]
                    if t2 < level or (t2 == level and layer[e2] < l_edge):
                        continue
                count += 1
            return count

        def retract(eid: int) -> None:
            """Cascade eliminations after ``eid`` lost its survived status."""
            stack = [eid]
            while stack:
                lost = stack.pop()
                for e1, e2, _w in edge_triangles[lost]:
                    for neighbour in (e1, e2):
                        if neighbour in survived:
                            if effective_triangles(neighbour) < needed:
                                survived.discard(neighbour)
                                eliminated.add(neighbour)
                                stack.append(neighbour)

        while heap:
            l_edge, eid = heappop(heap)
            if eid in survived or eid in eliminated:
                continue
            if effective_triangles(eid) >= needed:
                survived.add(eid)
                for e1, e2, _w in edge_triangles[eid]:
                    for neighbour in (e1, e2):
                        if neighbour in pushed or anchor_mask[neighbour]:
                            continue
                        if member is not None and key_of[neighbour] not in allowed:
                            continue
                        if trussness[neighbour] == level and layer[neighbour] >= l_edge:
                            heappush(heap, (layer[neighbour], neighbour))
                            pushed.add(neighbour)
            else:
                eliminated.add(eid)
                retract(eid)

        followers_ids.extend(survived)

    edge_of = index.edge_of
    return {edge_of[eid] for eid in followers_ids if eid != anchor_id}


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------
def compute_followers(
    state: TrussState,
    anchor: Edge,
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_filter_ids: Optional[CandidateFilterIds] = None,
) -> Set[Edge]:
    """Compute ``F(anchor, G_A)`` with the selected method.

    Parameters
    ----------
    state:
        Current trussness state (graph + already-anchored edges).
    anchor:
        The edge whose anchoring is being evaluated.
    method:
        One of :class:`FollowerMethod` (or its string value).
    candidate_filter:
        Optional restriction of the candidate edges (tree-node reuse); not
        supported by the ``recompute`` method.
    candidate_filter_ids:
        The same restriction in the dense-id domain (takes precedence):
        a set of dense edge ids, or a membership pair
        ``(node_of_eid, node_ids)`` admitting an edge when its tree node is
        in ``node_ids``.  The GAS hot loop passes the pair, so it never
        materialises the union of the needed nodes' edge sets.
    """
    method = FollowerMethod(method)
    if method is FollowerMethod.RECOMPUTE:
        if candidate_filter is not None or candidate_filter_ids is not None:
            raise InvalidParameterError("candidate_filter is not supported by 'recompute'")
        return followers_by_recompute(state, anchor)
    if method is FollowerMethod.PEEL:
        return followers_candidate_peel(state, anchor, candidate_filter, candidate_filter_ids)
    return followers_support_check(state, anchor, candidate_filter, candidate_filter_ids)
