"""Tests for the serving layer: protocol, session cache, scheduler, batching.

The load-bearing properties:

* **determinism** — whatever the batching, thread count, session reuse or
  memoisation, a response's canonical payload equals the single-shot
  ``SolverEngine`` solve of the same request (hammered from many threads);
* **session reuse** — repeated requests against one graph share a warm
  engine (hits recorded), eviction and fingerprint collisions degrade to
  cold-but-correct serving;
* **robustness** — malformed requests become ``ok=False`` responses, never
  exceptions, and never poison the rest of a batch.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import SolveOutcome, SolveSpec
from repro.api import resolve as resolve_module
from repro.core.engine import SolverEngine
from repro.datasets import graph_fingerprint, materialize_dataset
from repro.graph.generators import community_graph, overlapping_cliques_graph
from repro.graph.graph import Graph
from repro.service import (
    EngineSessionCache,
    ProtocolError,
    SolveService,
    canonical_result,
    group_requests,
    parse_request_line,
    read_request_file,
    result_to_json,
    run_batch,
    run_batch_file,
)


def small_graph(seed: int) -> Graph:
    return community_graph([10, 8], p_in=0.7, p_out=0.05, seed=seed)


def canonical_json(payload: dict) -> str:
    return json.dumps(canonical_result(payload), sort_keys=True)


def single_shot(graph: Graph, request: SolveSpec) -> str:
    """The ground truth: a fresh engine solving the same request."""
    engine = SolverEngine(graph, **request.engine_map)  # type: ignore[arg-type]
    result = engine.solve_spec(request)
    return canonical_json(result_to_json(result))


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_parse_minimal_request(self):
        request = parse_request_line('{"dataset": "college"}', "fallback")
        assert request.dataset == "college"
        assert request.algorithm == "gas"
        assert request.budget == 5
        assert request.request_id == "fallback"

    def test_roundtrip_through_to_dict(self):
        request = SolveSpec(
            request_id="r1",
            edges=((1, 2), (2, 3), (1, 3)),
            algorithm="base",
            budget=2,
            params={"candidate_pool": "scan"},
            engine={"tree_mode": "rebuild"},
        )
        parsed = parse_request_line(json.dumps(request.to_dict()))
        assert parsed == request

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse_request_line('{"dataset": "college", "budgett": 3}')

    def test_unknown_engine_option_rejected(self):
        with pytest.raises(ProtocolError, match="unknown engine option"):
            parse_request_line('{"dataset": "college", "engine": {"mode": "x"}}')

    def test_engine_option_value_must_be_scalar(self):
        # A non-scalar value would make the session cache key unhashable.
        with pytest.raises(ProtocolError, match="must be a scalar"):
            parse_request_line(
                '{"dataset": "college", "engine": {"tree_mode": ["patch"]}}'
            )

    def test_graph_source_values_must_be_strings(self):
        with pytest.raises(ProtocolError, match="dataset must be a string"):
            parse_request_line('{"dataset": {"x": 1}}')
        with pytest.raises(ProtocolError, match="edge_list must be a string"):
            parse_request_line('{"edge_list": 3}')

    def test_explicit_falsy_id_is_preserved(self):
        request = parse_request_line('{"id": 0, "dataset": "college"}', "line-9")
        assert request.request_id == "0"
        assert parse_request_line('{"dataset": "college"}', "line-9").request_id == "line-9"

    def test_exactly_one_graph_source(self):
        with pytest.raises(ProtocolError, match="exactly one graph source"):
            parse_request_line('{"algorithm": "gas"}')
        with pytest.raises(ProtocolError, match="exactly one graph source"):
            parse_request_line('{"dataset": "college", "edges": [[1, 2]]}')

    def test_non_integer_budget_rejected(self):
        with pytest.raises(ProtocolError, match="budget"):
            parse_request_line('{"dataset": "college", "budget": "five"}')

    def test_malformed_edges_rejected(self):
        with pytest.raises(ProtocolError, match="pairs"):
            parse_request_line('{"edges": [[1, 2, 3]]}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            parse_request_line("{nope")

    def test_canonical_result_strips_volatile_fields_only(self):
        payload = {
            "gain": 3,
            "timings": {"elapsed_seconds": 1.0},
            "extra": {
                "cumulative_seconds_per_round": [0.1],
                "recomputed_entries_per_round": [120, 4],
                "engine": {"x": 1},
            },
        }
        canonical = canonical_result(payload)
        # Wall-clock splits and warmth-dependent work counters go; solution
        # content (and the reset-stable engine counters) stay.
        assert canonical == {"gain": 3, "extra": {"engine": {"x": 1}}}
        # and the input payload is untouched
        assert "timings" in payload
        assert "cumulative_seconds_per_round" in payload["extra"]
        assert "recomputed_entries_per_round" in payload["extra"]


# ---------------------------------------------------------------------------
# Session cache
# ---------------------------------------------------------------------------
class TestEngineSessionCache:
    def test_hit_returns_same_session(self):
        cache = EngineSessionCache(capacity=2)
        graph = small_graph(1)
        first, status1 = cache.acquire("k", graph, {})
        second, status2 = cache.acquire("k", graph, {})
        assert first is second
        assert (status1, status2) == ("miss", "hit")
        assert cache.stats()["hits"] == 1

    def test_lru_eviction(self):
        cache = EngineSessionCache(capacity=2)
        graphs = {name: small_graph(i) for i, name in enumerate("abc")}
        for name, graph in graphs.items():
            cache.acquire(name, graph, {})
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        # "a" (the LRU entry) was evicted: re-acquiring is a miss
        _session, status = cache.acquire("a", graphs["a"], {})
        assert status == "miss"

    def test_zero_capacity_bypasses(self):
        cache = EngineSessionCache(capacity=0)
        graph = small_graph(2)
        first, status1 = cache.acquire("k", graph, {})
        second, status2 = cache.acquire("k", graph, {})
        assert status1 == status2 == "bypass"
        assert first is not second

    def test_collision_serves_fresh_session(self):
        cache = EngineSessionCache(capacity=2)
        graph_a = small_graph(3)
        graph_b = overlapping_cliques_graph(3, 5, 2, noise_edges=4, seed=4)
        cached, _ = cache.acquire("same-key", graph_a, {})
        collided, status = cache.acquire("same-key", graph_b, {})
        assert status == "bypass"
        assert collided is not cached
        assert collided.graph is graph_b
        assert cache.stats()["collisions"] == 1
        # the original session is still cached and still serves graph_a
        again, status = cache.acquire("same-key", graph_a, {})
        assert again is cached and status == "hit"


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
class TestSolveService:
    def test_single_request_matches_single_shot(self):
        graph = small_graph(5)
        request = SolveSpec(
            request_id="r", edges=tuple(graph.edge_list()), algorithm="gas", budget=2
        )
        with SolveService(workers=2) as service:
            response = service.solve(request)
        assert response.ok
        assert response.fingerprint == graph_fingerprint(graph)
        assert canonical_json(response.result) == single_shot(graph, request)

    def test_warm_session_and_memo_stay_byte_identical(self):
        graph = small_graph(6)
        request = SolveSpec(
            request_id="r", edges=tuple(graph.edge_list()), algorithm="base", budget=2
        )
        expected = single_shot(graph, request)
        with SolveService(workers=1) as service:
            responses = [service.solve(request) for _ in range(3)]
        assert [r.cache["session"] for r in responses] == ["miss", "hit", "hit"]
        assert [r.cache["memo"] for r in responses] == [False, True, True]
        for response in responses:
            assert canonical_json(response.result) == expected

    def test_memo_disabled_still_identical(self):
        graph = small_graph(6)
        request = SolveSpec(
            request_id="r", edges=tuple(graph.edge_list()), algorithm="gas", budget=2
        )
        with SolveService(workers=1, memoize=False) as service:
            responses = [service.solve(request) for _ in range(2)]
        assert [r.cache["memo"] for r in responses] == [False, False]
        assert canonical_json(responses[0].result) == canonical_json(responses[1].result)

    def test_randomized_solver_without_seed_not_memoized(self):
        graph = small_graph(7)
        edges = tuple(graph.edge_list())
        unseeded = SolveSpec(
            request_id="u", edges=edges, algorithm="rand", budget=2,
            params={"repetitions": 3},
        )
        seeded = SolveSpec(
            request_id="s", edges=edges, algorithm="rand", budget=2,
            params={"repetitions": 3, "seed": 5},
        )
        with SolveService(workers=1) as service:
            assert [service.solve(unseeded).cache["memo"] for _ in range(2)] == [
                False,
                False,
            ]
            assert [service.solve(seeded).cache["memo"] for _ in range(2)] == [
                False,
                True,
            ]

    def test_engine_options_split_sessions(self):
        graph = small_graph(8)
        edges = tuple(graph.edge_list())
        a = SolveSpec(request_id="a", edges=edges, algorithm="gas", budget=2)
        b = SolveSpec(
            request_id="b", edges=edges, algorithm="gas", budget=2,
            engine={"tree_mode": "rebuild"},
        )
        with SolveService(workers=1) as service:
            first = service.solve(a)
            second = service.solve(b)
            assert service.sessions.stats()["size"] == 2
        # different engine modes, identical results except the engine's own
        # tree counters: patch mode never rebuilds more than rebuild mode
        patch_engine = first.result["extra"]["engine"]
        rebuild_engine = second.result["extra"]["engine"]
        assert patch_engine["tree_rebuilds"] <= rebuild_engine["tree_rebuilds"]
        patch_canonical = canonical_result(first.result)
        rebuild_canonical = canonical_result(second.result)
        del patch_canonical["extra"]["engine"]
        del rebuild_canonical["extra"]["engine"]
        assert patch_canonical == rebuild_canonical

    def test_errors_become_responses(self):
        graph = small_graph(9)
        edges = tuple(graph.edge_list())
        bad = [
            SolveSpec(request_id="unknown-solver", edges=edges, algorithm="nope"),
            SolveSpec(request_id="bad-budget", edges=edges, budget=10**6),
            SolveSpec(
                request_id="bad-param", edges=edges, algorithm="gas",
                params={"tyop": 1},
            ),
            SolveSpec(request_id="no-file", edge_list="/does/not/exist.txt"),
        ]
        with SolveService(workers=2) as service:
            responses = service.solve_many(bad)
        assert [r.ok for r in responses] == [False] * 4
        assert all(r.error for r in responses)
        assert service.stats()["errors"] == 4

    def test_unexpected_exceptions_become_responses_too(self):
        """The serving boundary must never let an exception kill the loop."""
        # A list is not a hashable vertex label: Graph.add_edge raises
        # TypeError, which is not a ReproError — the catch-all must still
        # turn it into a failed response.
        request = SolveSpec(
            request_id="weird", edges=(((1,), 2), ((2,), 3)), algorithm="gas", budget=1
        )
        with SolveService(workers=1) as service:
            response = service.solve(request)
        assert not response.ok
        assert response.error

    def test_dataset_and_path_routes_share_a_session(self, tmp_path):
        path = materialize_dataset("college", tmp_path)
        by_name = SolveSpec(request_id="n", dataset="college", budget=1)
        by_path = SolveSpec(request_id="p", edge_list=str(path), budget=1)
        with SolveService(workers=1) as service:
            first = service.solve(by_name)
            second = service.solve(by_path)
        # same content -> same fingerprint -> the second request hits the
        # session the first one warmed, despite the different route
        assert first.fingerprint == second.fingerprint
        assert second.cache["session"] == "hit"
        assert canonical_json(first.result) == canonical_json(second.result)

    def test_fingerprint_collision_is_correct_not_warm(self, monkeypatch):
        graph_a = small_graph(10)
        graph_b = overlapping_cliques_graph(3, 5, 2, noise_edges=4, seed=11)
        monkeypatch.setattr(
            resolve_module, "graph_fingerprint", lambda _graph: "collide"
        )
        req_a = SolveSpec(
            request_id="a", edges=tuple(graph_a.edge_list()), algorithm="gas", budget=2
        )
        req_b = SolveSpec(
            request_id="b", edges=tuple(graph_b.edge_list()), algorithm="gas", budget=2
        )
        with SolveService(workers=1) as service:
            first = service.solve(req_a)
            second = service.solve(req_b)
            stats = service.sessions.stats()
        assert first.ok and second.ok
        assert stats["collisions"] >= 1
        assert second.cache["session"] == "bypass"
        assert canonical_json(first.result) == single_shot(graph_a, req_a)
        assert canonical_json(second.result) == single_shot(graph_b, req_b)

    def test_eviction_under_small_capacity_stays_correct(self):
        graphs = [small_graph(20 + i) for i in range(3)]
        requests = [
            SolveSpec(
                request_id=f"g{i}-{repeat}",
                edges=tuple(graph.edge_list()),
                algorithm="gas",
                budget=2,
            )
            for repeat in range(2)
            for i, graph in enumerate(graphs)
        ]
        expected = {
            request.request_id: single_shot(graphs[int(request.request_id[1])], request)
            for request in requests
        }
        with SolveService(workers=1, session_capacity=1) as service:
            responses = [service.solve(request) for request in requests]
            stats = service.sessions.stats()
        assert stats["evictions"] >= 4  # three graphs through one slot, twice
        for response in responses:
            assert canonical_json(response.result) == expected[response.request_id]


class TestConcurrency:
    def test_hammer_mixed_requests_matches_sequential(self):
        """Many threads, mixed graphs/solvers: byte-identical to sequential."""
        graphs = {f"g{i}": small_graph(40 + i) for i in range(3)}
        requests = []
        for name, graph in graphs.items():
            edges = tuple(graph.edge_list())
            for repeat in range(2):
                requests.append(
                    SolveSpec(
                        request_id=f"{name}/gas/{repeat}", edges=edges,
                        algorithm="gas", budget=2,
                    )
                )
                requests.append(
                    SolveSpec(
                        request_id=f"{name}/base/{repeat}", edges=edges,
                        algorithm="base", budget=1,
                    )
                )
                requests.append(
                    SolveSpec(
                        request_id=f"{name}/sup/{repeat}", edges=edges,
                        algorithm="sup", budget=2,
                        params={"seed": 13, "repetitions": 3},
                    )
                )
        expected = {
            request.request_id: single_shot(
                graphs[request.request_id.split("/")[0]], request
            )
            for request in requests
        }
        with SolveService(workers=8, session_capacity=4) as service:
            responses = service.solve_many(requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        for response in responses:
            assert response.ok, response.error
            assert canonical_json(response.result) == expected[response.request_id]

    def test_submissions_from_many_threads(self):
        graph = small_graph(50)
        edges = tuple(graph.edge_list())
        request = SolveSpec(
            request_id="r", edges=edges, algorithm="gas", budget=2
        )
        expected = single_shot(graph, request)
        results = []
        errors = []
        with SolveService(workers=4, session_capacity=2) as service:

            def _worker():
                try:
                    results.append(service.solve(request))
                except Exception as exc:  # pragma: no cover - would be a bug
                    errors.append(exc)

            threads = [threading.Thread(target=_worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 8
        for response in results:
            assert canonical_json(response.result) == expected


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------
class TestBatching:
    def test_group_requests_by_session_identity(self):
        a = SolveSpec(request_id="1", dataset="college")
        b = SolveSpec(request_id="2", dataset="facebook")
        c = SolveSpec(request_id="3", dataset="college")
        d = SolveSpec(
            request_id="4", dataset="college", engine={"tree_mode": "rebuild"}
        )
        assert group_requests([a, b, c, d]) == [[0, 2], [1], [3]]

    def test_run_batch_preserves_input_order(self):
        graphs = [small_graph(60 + i) for i in range(2)]
        requests = [
            SolveSpec(
                request_id=str(i),
                edges=tuple(graphs[i % 2].edge_list()),
                algorithm="gas",
                budget=1,
            )
            for i in range(6)
        ]
        with SolveService(workers=3) as service:
            responses = run_batch(service, requests)
        assert [r.request_id for r in responses] == [str(i) for i in range(6)]
        assert all(r.ok for r in responses)

    def test_request_file_roundtrip(self, tmp_path):
        graph = small_graph(70)
        edges = [list(e) for e in graph.edge_list()]
        lines = [
            "# a comment",
            json.dumps({"id": "a", "edges": edges, "algorithm": "gas", "budget": 2}),
            "",
            json.dumps({"id": "b", "edges": edges, "algorithm": "gas", "budget": 2}),
            '{"id": "broken"',  # malformed JSON
            json.dumps({"edges": edges, "algorithm": "base", "budget": 1}),
        ]
        input_path = tmp_path / "requests.jsonl"
        input_path.write_text("\n".join(lines) + "\n")
        output_path = tmp_path / "responses.jsonl"
        with SolveService(workers=2) as service:
            summary = run_batch_file(service, input_path, output_path)
        assert summary["requests"] == 4
        assert summary["ok"] == 3
        assert summary["errors"] == 1
        responses = [
            json.loads(line) for line in output_path.read_text().splitlines()
        ]
        assert [r["id"] for r in responses] == ["a", "b", "line-5", "line-6"]
        assert [r["ok"] for r in responses] == [True, True, False, True]
        # the two identical requests must agree byte-for-byte canonically
        assert canonical_json(responses[0]["result"]) == canonical_json(
            responses[1]["result"]
        )

    def test_parse_errors_do_not_abort_the_batch(self, tmp_path):
        input_path = tmp_path / "requests.jsonl"
        input_path.write_text('{"budget": 1}\n')  # no graph source
        parsed = read_request_file(input_path)
        assert len(parsed) == 1
        request, error = parsed[0]
        assert request is None
        assert isinstance(error, SolveOutcome) and not error.ok
