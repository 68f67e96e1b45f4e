"""Tests for the incremental component-tree maintenance and the GAS
candidate heap (PR 3): the patched tree must be structurally identical to a
from-scratch rebuild after every commit, the patch-assembled reuse decision
must equal the classic before/after tree diff, and the heap strategy must be
byte-identical to the full scan — including reuse statistics and recompute
counts — on randomized anchored graphs with both paths forced.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.component_tree import TrussComponentTree
from repro.core.engine import SolverEngine, get_solver
from repro.graph.graph import Graph
from repro.utils.errors import InvalidParameterError
from repro.world.invariants import tree_signature

from tests.conftest import anchor_schedule, random_test_graph

#: Force the incremental re-peel (the closure can never exceed this).
ALWAYS_INCREMENTAL = math.inf


def _double_k4_graph() -> Graph:
    """Two K4s sharing the edge (0, 1); (4, 5) closes the second K4.

    The shared edge has four triangles but trussness 4 (= k_max): anchoring
    the six edges around it makes it the only follower of the final commit,
    raising k_max to 5 — the smallest graph we know of where a commit grows
    the tree upward.
    """
    graph = Graph()
    for u, v in [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 4), (0, 5), (1, 4), (1, 5), (4, 5),
    ]:
        graph.add_edge(u, v)
    return graph


class TestTreePatchEquivalence:
    """apply_commit must reproduce TrussComponentTree.build exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_patch_matches_rebuild_forced_incremental(self, seed):
        graph = random_test_graph(seed + 9000, min_n=10, max_n=22)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        for edge in anchor_schedule(graph, seed, length=6):
            engine.commit_anchor(edge)
            patched = engine.tree()
            rebuilt = TrussComponentTree.build(engine.state)
            assert tree_signature(patched) == tree_signature(rebuilt)
        assert engine.stats["tree_patches"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_patch_matches_rebuild_default_threshold(self, seed):
        """With the default threshold, full-peel fallbacks interleave with
        patches; the tree must be exact either way."""
        graph = random_test_graph(seed + 13000, min_n=10, max_n=24)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        engine = SolverEngine(graph)
        for edge in anchor_schedule(graph, seed, length=6):
            engine.commit_anchor(edge)
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_commit_patch_batches(self, seed):
        """tree() may absorb several pending deltas at once."""
        graph = random_test_graph(seed + 12000, min_n=18, max_n=30)
        if graph.num_edges < 12:
            pytest.skip("graph too small")
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.tree()
        chain = anchor_schedule(graph, seed, length=8)
        for i, edge in enumerate(chain):
            engine.commit_anchor(edge)
            if i % 3 == 2 or i == len(chain) - 1:
                assert tree_signature(engine.tree()) == tree_signature(
                    TrussComponentTree.build(engine.state)
                )
        assert engine.stats["tree_rebuilds"] == 1  # only the initial build

    def test_rebuild_mode_never_patches(self, fig3_graph):
        engine = SolverEngine(fig3_graph, tree_mode="rebuild")
        engine.tree()
        engine.commit_anchor(fig3_graph.edge_list()[0])
        engine.tree()
        assert engine.stats["tree_patches"] == 0
        assert engine.stats["tree_rebuilds"] == 2

    def test_unknown_tree_mode_rejected(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            SolverEngine(fig3_graph, tree_mode="incremental-ish")

    def test_patch_requires_kernel_tree(self, fig3_graph):
        engine = SolverEngine(fig3_graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        reference = TrussComponentTree.build_reference(engine.state)
        engine.commit_anchor(fig3_graph.edge_list()[0])
        delta = engine._deltas[0] if engine.state else None
        assert delta is not None
        with pytest.raises(InvalidParameterError):
            reference.apply_commit(delta, engine.state)


class TestTreePatchEdgeCases:
    def test_commit_that_splits_a_node_across_levels(self):
        """A commit whose followers leave members behind: the old node's edge
        set splits across two trussness levels (the remaining members keep
        the node, the followers found or join a node one level up)."""
        graph = random_test_graph(61, min_n=8, max_n=16)
        edge = (0, 4)
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        before = engine.tree()
        node_of_eid = list(before.node_of_eid)
        old_nodes = {nid: set(node.edge_ids) for nid, node in before.nodes.items()}
        engine.commit_anchor(edge)
        engine.state  # materialise the commit (deltas are recorded lazily)
        delta = engine._deltas[0]
        assert delta is not None and delta.follower_eids
        anchor_eid = engine.index.eid_of[engine.graph.require_edge(edge)]
        split = False
        for follower in delta.follower_eids:
            members = old_nodes[node_of_eid[follower]]
            stayed = members - set(delta.follower_eids) - {anchor_eid}
            if stayed:
                split = True
        assert split, "seed 61/(0,4) no longer splits a node; pick a new seed"
        assert tree_signature(engine.tree()) == tree_signature(
            TrussComponentTree.build(engine.state)
        )

    def test_commit_that_raises_k_max(self):
        """The final commit of the double-K4 chain lifts the shared edge to a
        brand-new top trussness level; the patched tree must grow upward."""
        graph = _double_k4_graph()
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        assert engine.state.k_max == 4
        for edge in [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]:
            engine.commit_anchor(edge)
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )
        assert engine.state.k_max == 5
        assert engine.state.trussness((0, 1)) == 5
        assert engine.stats["full_peels"] == 0
        assert any(node.k == 5 for node in engine.tree().nodes.values())

    def test_commit_with_empty_dirty_closure_reuses_heap_entries(self):
        """Anchoring a triangle-free edge has no followers and an empty dirty
        closure: the next heap round must refresh nothing and recompute no
        follower entries, while still matching the scan exactly."""
        graph = random_test_graph(4242, min_n=10, max_n=16)
        graph.add_edge("pendant-a", "pendant-b")  # closes no triangle
        pendant = graph.require_edge(("pendant-a", "pendant-b"))

        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        state = engine.state
        assert not state.triangle_list(pendant)

        heap_run = get_solver("gas")(graph, 2, initial_anchors=[pendant])
        scan_run = get_solver("gas")(
            graph, 2, initial_anchors=[pendant],
            tree_mode="rebuild", candidates="scan",
        )
        assert heap_run.anchors == scan_run.anchors
        assert heap_run.gain == scan_run.gain

        # Direct check on the invalidation: committing the pendant dirties
        # no candidate at all.
        engine.tree()  # take_reuse_decision needs a pre-commit tree to patch
        engine.commit_anchor(pendant)
        invalidation = engine.take_reuse_decision(pendant, set())
        assert invalidation is not None
        assert invalidation.dirty_eids is not None
        non_anchor_dirty = {
            eid for eid in invalidation.dirty_eids
            if not engine.state.kernel_views()[3][eid]
        }
        assert non_anchor_dirty == set()


#: random_test_graph(seed + 15000, 12, 24) seeds whose default-threshold
#: runs (a 6-commit schedule and GAS b=4) both hit the full-peel fallback.
FULL_PEEL_SEEDS = (0, 1, 2, 3, 5, 6)


def _full_peel_graph(seed: int) -> Graph:
    return random_test_graph(seed + 15000, min_n=12, max_n=24)


class TestFullPeelPatch:
    """A full-peel fallback records a CommitDelta diffed from the dense
    arrays: the tree is patched after it (never rebuilt) and GAS keeps the
    heap path, with results identical to every reference mode."""

    @pytest.mark.parametrize("seed", FULL_PEEL_SEEDS)
    def test_tree_patched_after_full_peels(self, seed):
        graph = _full_peel_graph(seed)
        engine = SolverEngine(graph)
        incremental = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.tree()
        for i, edge in enumerate(anchor_schedule(graph, seed, length=6)):
            engine.commit_anchor(edge)
            incremental.commit_anchor(edge)
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )
            invalidation = engine.take_reuse_decision(edge, set())
            assert invalidation is not None and invalidation.dirty_eids is not None
            # The diffed delta equals the one the incremental re-peel records.
            incremental.state
            got, want = engine._deltas[i], incremental._deltas[i]
            assert got.anchor_eid == want.anchor_eid
            assert got.follower_eids == want.follower_eids
            assert got.changed_eids == want.changed_eids
        assert engine.stats["full_peels"] > 0
        assert engine.stats["tree_rebuilds"] == 1

    @pytest.mark.parametrize("seed", FULL_PEEL_SEEDS)
    def test_gas_identical_across_modes(self, seed):
        graph = _full_peel_graph(seed)
        spec = get_solver("gas")
        heap = spec(graph, 4)
        assert heap.extra["engine"]["full_peels"] > 0
        assert heap.extra["engine"]["tree_rebuilds"] == 1
        for kwargs in ({"candidates": "scan"}, {"tree_mode": "rebuild"}):
            run = spec(graph, 4, **kwargs)
            assert run.anchors == heap.anchors
            assert run.per_round_gain == heap.per_round_gain
            assert run.extra["reuse_stats"] == heap.extra["reuse_stats"]
            assert (
                run.extra["recomputed_entries_per_round"]
                == heap.extra["recomputed_entries_per_round"]
            )


class TestAssembledDecision:
    """The patch-assembled reuse decision equals the before/after tree diff."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tree_diff(self, seed):
        graph = random_test_graph(seed + 15000, min_n=10, max_n=24)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        patch = SolverEngine(
            graph, full_peel_threshold=ALWAYS_INCREMENTAL, tree_mode="patch"
        )
        diff = SolverEngine(
            graph, full_peel_threshold=ALWAYS_INCREMENTAL, tree_mode="rebuild"
        )
        patch.tree()
        diff.tree()
        previous = patch.state
        for edge in anchor_schedule(graph, seed, length=5):
            patch.commit_anchor(edge)
            diff.commit_anchor(edge)
            current = patch.state
            followers = current.followers_relative_to(previous)
            previous = current
            from_patch = patch.take_reuse_decision(edge, followers)
            from_diff = diff.take_reuse_decision(edge, followers)
            assert from_patch is not None and from_diff is not None
            assert (
                from_patch.decision.invalid_node_ids
                == from_diff.decision.invalid_node_ids
            )
            assert from_patch.decision.invalid_edges == from_diff.decision.invalid_edges
            assert from_patch.dirty_eids is not None  # patched: narrow closure
            assert from_diff.dirty_eids is None  # rebuilt: re-examine everything


class TestInvalidationLogHygiene:
    def test_multi_commit_rebuild_is_conservative(self):
        """A rebuild that absorbed several commits cannot attribute steps
        2-3 of the reuse rule to one anchor — the decision must be None."""
        graph = random_test_graph(555, min_n=12, max_n=18)
        engine = SolverEngine(graph, tree_mode="rebuild")
        engine.tree()
        edges = graph.edge_list()
        engine.commit_anchor(edges[0])
        engine.commit_anchor(edges[3])
        assert engine.take_reuse_decision(edges[3], set()) is None
        engine.commit_anchor(edges[5])  # single commit: exact diff again
        invalidation = engine.take_reuse_decision(edges[5], set())
        assert invalidation is not None
        assert invalidation.dirty_eids is None

    def test_undrained_log_does_not_pin_old_trees(self):
        """tree() across commits without take_reuse_decision() collapses the
        log to a stale marker instead of accumulating whole trees."""
        graph = random_test_graph(555, min_n=12, max_n=18)
        engine = SolverEngine(graph, tree_mode="rebuild")
        engine.tree()
        for edge in graph.edge_list()[:6]:
            engine.commit_anchor(edge)
            engine.tree()
        assert engine._invalidation_log == [("stale", None, None)]
        # the stale marker yields the conservative answer
        assert engine.take_reuse_decision(graph.edge_list()[5], set()) is None


class TestHeapScanEquivalence:
    """candidates='heap' is byte-identical to candidates='scan' across tree
    modes and fallback thresholds — anchors, gains, followers, reuse stats
    and recompute counts."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, 0.0, None])
    def test_full_matrix(self, seed, threshold):
        graph = random_test_graph(seed + 20000, min_n=12, max_n=26)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        rng = random.Random(seed)
        initial = rng.sample(graph.edge_list(), 2) if seed % 3 == 0 else []
        kwargs = {} if threshold is None else {"full_peel_threshold": threshold}
        spec = get_solver("gas")
        reference = spec(
            graph, 4, initial_anchors=initial,
            tree_mode="rebuild", candidates="scan", **kwargs,
        )
        for tree_mode in ("patch", "rebuild"):
            for candidates in ("heap", "scan"):
                run = spec(
                    graph, 4, initial_anchors=initial,
                    tree_mode=tree_mode, candidates=candidates, **kwargs,
                )
                assert run.anchors == reference.anchors
                assert run.gain == reference.gain
                assert run.per_round_gain == reference.per_round_gain
                assert run.followers == reference.followers
                assert (
                    run.extra["recomputed_entries_per_round"]
                    == reference.extra["recomputed_entries_per_round"]
                )
                assert run.extra["reuse_stats"] == reference.extra["reuse_stats"]

    def test_heap_strategy_is_the_default(self, two_communities):
        result = get_solver("gas")(two_communities, 3)
        assert result.extra["candidate_strategy"] == "heap"
        assert result.extra["engine"]["tree_patches"] > 0

    def test_unknown_candidates_strategy_rejected(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            get_solver("gas")(fig3_graph, 1, candidates="btree")

    def test_peel_method_through_heap(self, two_communities):
        a = get_solver("gas")(two_communities, 3, method="peel")
        b = get_solver("gas")(
            two_communities, 3, method="peel",
            tree_mode="rebuild", candidates="scan",
        )
        assert a.anchors == b.anchors
        assert a.gain == b.gain

    def test_session_reuse_with_heap(self, two_communities):
        """One engine serving several heap solves matches fresh engines."""
        engine = SolverEngine(two_communities)
        first = engine.solve("gas", 3)
        second = engine.solve("gas", 3)
        assert first.anchors == second.anchors
        assert first.gain == second.gain
