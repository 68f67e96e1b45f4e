"""Seeded inputs for every workload: graphs, spec lines and request lists.

Everything here is a pure function of ``(workload, seed, seconds)``: the
same arguments give byte-identical request lines, so every run at one seed
does the same work.  The program under test only ever sees the generated
JSON lines.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.api import SolveSpec
from repro.graph.generators import powerlaw_cluster_graph

Edges = Tuple[Tuple[int, int], ...]

#: Share of serve-warm / serve-routed requests that are exact repeats.  At
#: 80% the p50 sits inside the cache-hit mode and the p99 inside the
#: fresh-solve mode; at 50% the p50 falls between the modes and jumps.
HOT_SHARE = 0.8

#: Requests per second the list length is sized by, so that one timed pass
#: lasts about ``--seconds`` on a 2-CPU machine.  ``MIN_REQUESTS`` keeps at
#: least 10 samples beyond the p99 of every serve workload.
SERVE_RATE = {"serve-warm": 200, "serve-routed": 180, "serve-cold": 40}
MIN_REQUESTS = 1000

#: gas-large: one GAS b=5 solve of a ~10k-edge graph takes ~2.5 s.  Six
#: graphs at least, so the per-solve medians ride out a few slow seconds.
GAS_LARGE_SOLVE_S = 2.5
GAS_LARGE_MIN_GRAPHS = 6

#: serve-routed: graphs in the working set, and each backend's session cache.
ROUTED_GRAPHS = 20
ROUTED_SESSION_CACHE = 16


@dataclass
class Traffic:
    """One workload's generated inputs."""

    workload: str
    seed: int
    graphs: List[Edges]
    #: Timed request lines, in send order.
    lines: List[str]
    #: Untimed warm-up lines (sent once per set-up, before timing).
    warmup: List[str]
    #: Index into ``lines`` -> spec kind: ``"hot"`` or ``"fresh"``.
    kinds: List[str]
    #: The distinct exact-repeat spec lines (empty for cold workloads).
    hot: List[str] = field(default_factory=list)

    def record(self) -> Dict[str, object]:
        """What the run measured: sizes and shares, printed beside the metrics."""
        sizes = sorted(len(edges) for edges in self.graphs)
        return {
            "seed": self.seed,
            "requests": len(self.lines),
            "distinct_graphs": len(self.graphs),
            "edges_per_graph_min": sizes[0],
            "edges_per_graph_median": sizes[len(sizes) // 2],
            "edges_per_graph_max": sizes[-1],
            "hot_specs": len(self.hot),
            "planned_hot_share": self.kinds.count("hot") / len(self.kinds),
            "request_bytes_mean": sum(len(line) + 1 for line in self.lines)
            / len(self.lines),
        }


def _graph(rng: random.Random, n: int) -> Edges:
    graph = powerlaw_cluster_graph(n, 5, 0.5, seed=rng.randrange(2**31))
    return tuple(graph.edges())


def _line(**fields: object) -> str:
    return SolveSpec(**fields).canonical_json()  # type: ignore[arg-type]


def gas_large(seed: int, seconds: float) -> Traffic:
    """Distinct ~10k-edge powerlaw-cluster graphs, one GAS b=5 solve each.

    The graphs are the same at every seed; the seed orders the solves and
    makes the warm-up graph.  Solve times of such graphs have an
    interquartile range of a third of their median, so six graphs drawn
    afresh per seed moved the p50 by a quarter between seeds; even
    relabelling the vertices changed, on one graph in six, how many
    follower sets GAS computed (20.8k-27.8k: ties are broken by id).
    """
    count = max(GAS_LARGE_MIN_GRAPHS, math.ceil(seconds / GAS_LARGE_SOLVE_S))
    shared = random.Random("gas-large:graphs")
    graphs = [_graph(shared, 2000) for _ in range(count)]
    rng = random.Random(f"gas-large:{seed}")
    rng.shuffle(graphs)
    lines = [
        _line(algorithm="gas", budget=5, edges=edges, request_id=f"g{i}")
        for i, edges in enumerate(graphs)
    ]
    warmup = [_line(algorithm="gas", budget=2, edges=_graph(rng, 100), request_id="w0")]
    return Traffic("gas-large", seed, graphs, lines, warmup, ["fresh"] * count)


def serve_cold(seed: int, seconds: float) -> Traffic:
    """Every request a never-seen ~750-edge inline graph, GAS b=1."""
    rng = random.Random(f"serve-cold:{seed}")
    count = max(MIN_REQUESTS, round(SERVE_RATE["serve-cold"] * seconds))
    graphs = [_graph(rng, 150) for _ in range(count)]
    lines = [
        _line(algorithm="gas", budget=1, edges=edges, request_id=f"c{i}")
        for i, edges in enumerate(graphs)
    ]
    warmup = [
        _line(algorithm="gas", budget=1, edges=_graph(rng, 150), request_id=f"w{i}")
        for i in range(4)
    ]
    return Traffic("serve-cold", seed, graphs, lines, warmup, ["fresh"] * count)


def _mixed(workload: str, seed: int, seconds: float, graph_count: int) -> Traffic:
    """The warm mix: ~300-edge resident graphs, 80% exact repeats.

    Hot specs are GAS b=2 and b=3 on each graph; fresh specs are unique
    warm-session GAS solves (budget 1-3 plus one seeded initial anchor),
    drawn without replacement so none of them repeats.
    """
    rng = random.Random(f"{workload}:{seed}")
    count = max(MIN_REQUESTS, round(SERVE_RATE[workload] * seconds))
    graphs = [_graph(rng, 65) for _ in range(graph_count)]
    hot = [
        _line(algorithm="gas", budget=budget, edges=edges, request_id=f"h{g}b{budget}")
        for g, edges in enumerate(graphs)
        for budget in (2, 3)
    ]
    fresh_keys = [
        (g, budget, anchor)
        for g, edges in enumerate(graphs)
        for budget in (1, 2, 3)
        for anchor in range(len(edges))
    ]
    fresh_count = round((1 - HOT_SHARE) * count)
    warmup_fresh = 20
    picked = rng.sample(fresh_keys, fresh_count + warmup_fresh)

    def fresh_line(key: Tuple[int, int, int], request_id: str) -> str:
        g, budget, anchor = key
        edges = graphs[g]
        return _line(
            algorithm="gas",
            budget=budget,
            edges=edges,
            initial_anchors=(edges[anchor],),
            request_id=request_id,
        )

    fresh_positions = set(rng.sample(range(count), fresh_count))
    lines: List[str] = []
    kinds: List[str] = []
    fresh_iter = iter(picked[:fresh_count])
    for i in range(count):
        if i in fresh_positions:
            lines.append(fresh_line(next(fresh_iter), f"f{i}"))
            kinds.append("fresh")
        else:
            lines.append(hot[rng.randrange(len(hot))])
            kinds.append("hot")
    # Warm-up: every hot spec once (fills the result store and warms one
    # session per graph), then a short burst of the mix with its own fresh
    # specs, so timing starts on a steady server.
    warmup = list(hot)
    for j, key in enumerate(picked[fresh_count:]):
        warmup.append(fresh_line(key, f"wf{j}"))
        warmup.extend(hot[rng.randrange(len(hot))] for _ in range(4))
    return Traffic(workload, seed, graphs, lines, warmup, kinds, hot)


def serve_warm(seed: int, seconds: float) -> Traffic:
    # Six graphs fit the server's 8-session cache.
    return _mixed("serve-warm", seed, seconds, graph_count=6)


def serve_routed(seed: int, seconds: float) -> Traffic:
    # More graphs than one backend's session cache holds, no more than the
    # two backends hold together, so ring placement matters.  Twenty graphs
    # (rather than ten over the default 8-session cache) keep the
    # seed-to-seed split between the backends near even.
    return _mixed("serve-routed", seed, seconds, graph_count=ROUTED_GRAPHS)
