"""Per-layer measurement from outside the program.

Nothing under ``src/`` is instrumented for the benchmark.  Layers are timed
in one of two ways:

* :class:`LayerTimer` wraps public entry points of ``repro.core``,
  ``repro.truss`` and ``repro.graph`` where their callers look them up, and
  keeps self time (a span's duration minus its wrapped children) and call
  counts.  It runs only in the traced pass.
* :func:`per_call_us` times one public call (spec decode, outcome encode,
  graph resolve, spec pickle, shard-key fingerprint) over the run's own
  inputs, in the load generator.
"""

from __future__ import annotations

import importlib
import json
import pickle
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Sequence

from repro.api import GraphResolver, SolveOutcome
from repro.core.component_tree import TrussComponentTree
from repro.graph.index import GraphIndex
from repro.service.protocol import parse_request_line

#: ``(layer, owner, attribute)``: where each layer's entry point is looked
#: up by its callers.  ``peel_trussness_fast`` is imported by name into two
#: modules, so both call sites are wrapped.  (``repro.core.gas`` is fetched
#: with ``import_module`` because the package re-exports a function of the
#: same name.)
TARGETS = (
    ("core.followers", importlib.import_module("repro.core.gas"), "compute_followers"),
    ("core.tree_build", TrussComponentTree, "build"),
    ("truss.peel", importlib.import_module("repro.core.engine"), "peel_trussness_fast"),
    ("truss.peel", importlib.import_module("repro.truss.decomposition"), "peel_trussness_fast"),
    ("graph.index", GraphIndex, "of"),
)

ENGINE_COUNTERS = ("full_peels", "incremental_peels", "tree_rebuilds", "tree_patches")


class LayerTimer:
    """Self time and call count per layer, for single-threaded callers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._children: List[float] = []
        self._saved: List[tuple] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        def timed(*args, **kwargs):
            self._children.append(0.0)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - began
                self.self_s[layer] += duration - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += duration

        return timed

    def install(self) -> None:
        for layer, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = staticmethod(self._wrap(layer, getattr(owner, attr)))
            else:
                wrapped = self._wrap(layer, original)
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> Dict[str, Dict[str, float]]:
        """This solve's self seconds and calls per layer; then reset."""
        snapshot = {"self_s": dict(self.self_s), "calls": dict(self.calls)}
        self.self_s.clear()
        self.calls.clear()
        return snapshot


def traced_solve(timer: LayerTimer, solve: Callable[[], SolveOutcome]) -> Dict[str, object]:
    """Run one solve under ``timer``; its outcome, wall time and layer split."""
    timer.take()
    began = time.perf_counter()
    outcome = solve()
    total = time.perf_counter() - began
    layers = timer.take()
    return {"outcome": outcome.to_json_dict(), "solve_s": total, "layers": layers}


def core_metrics(solves: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Aggregate traced solves into the core/truss/graph layer metrics.

    Times are per-solve medians in ms; counts are totals over the solves.
    ``core.gas_self_ms`` is the solve's wall time minus every wrapped layer,
    which leaves the solver's own round bookkeeping and candidate filters.
    """
    def per_solve_ms(layer: str) -> float:
        return 1e3 * statistics.median(
            s["layers"]["self_s"].get(layer, 0.0) for s in solves  # type: ignore[index]
        )

    def total_calls(layer: str) -> int:
        return sum(s["layers"]["calls"].get(layer, 0) for s in solves)  # type: ignore[index]

    def engine_total(key: str) -> int:
        return sum(
            s["outcome"]["result"]["extra"]["engine"][key] for s in solves  # type: ignore[index]
        )

    gas_self = [
        s["solve_s"] - sum(s["layers"]["self_s"].values())  # type: ignore[index]
        for s in solves
    ]
    metrics = {
        "graph.index_ms": per_solve_ms("graph.index"),
        "truss.peel_ms": per_solve_ms("truss.peel"),
        "truss.peel_calls": total_calls("truss.peel"),
        "core.followers_ms": per_solve_ms("core.followers"),
        "core.followers_calls": total_calls("core.followers"),
        "core.tree_build_ms": per_solve_ms("core.tree_build"),
        "core.tree_builds": total_calls("core.tree_build"),
        "core.gas_self_ms": 1e3 * statistics.median(gas_self),
    }
    for key in ENGINE_COUNTERS:
        metrics[f"core.engine_{key}"] = engine_total(key)
    return metrics


def check_follower_calls(solve: Dict[str, object]) -> bool:
    """The wrapped ``compute_followers`` count equals GAS's own recompute count."""
    recomputed = solve["outcome"]["result"]["extra"]["recomputed_entries_per_round"]  # type: ignore[index]
    return solve["layers"]["calls"].get("core.followers", 0) == sum(recomputed)  # type: ignore[index]


def per_call_us(fn: Callable[[object], object], items: Iterable[object]) -> float:
    """Median microseconds of ``fn(item)`` over ``items``."""
    clock = time.perf_counter
    samples = []
    for item in items:
        began = clock()
        fn(item)
        samples.append(clock() - began)
    return 1e6 * statistics.median(samples)


def api_metrics(lines: Sequence[str], replies: Sequence[str]) -> Dict[str, float]:
    """Wire codec cost and size on the run's own request and reply lines."""
    outcomes = [SolveOutcome.from_json_dict(json.loads(reply)) for reply in replies]
    return {
        "api.decode_us": per_call_us(parse_request_line, lines),
        "api.encode_us": per_call_us(SolveOutcome.to_json_line, outcomes),
        "api.request_kb": statistics.fmean(len(line) + 1 for line in lines) / 1024,
        "api.response_kb": statistics.fmean(len(reply) for reply in replies) / 1024,
    }


def resolve_ms(lines: Sequence[str]) -> float:
    """``GraphResolver.resolve`` of never-seen inline specs (a fresh cache each)."""
    specs = [parse_request_line(line) for line in lines]
    return 1e-3 * per_call_us(lambda spec: GraphResolver().resolve(spec), specs)


def spec_pickle_us(lines: Sequence[str]) -> float:
    """Pickling one spec: the process executor's dispatch payload."""
    specs = [parse_request_line(line) for line in lines]
    return per_call_us(pickle.dumps, specs)
