#!/usr/bin/env python3
"""Layered ATR benchmark: one command, four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` adds a traced pass and prints every per-layer metric.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the traffic the run saw.  Any
check failure exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

WORKLOAD_NAMES = ("gas-large", "serve-warm", "serve-cold", "serve-routed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no repro package under {ROOT / 'src'}: run from a full checkout")

    from program import SpeedProbe
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    probe = SpeedProbe()
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), probe)
    finally:
        probe.close()

    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in run.metrics and not args.trace:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        # A per-layer metric of a layer this workload never calls reads 0.
        value = float(run.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
    run.traffic.update(
        {"workload": args.workload, "succeeded": run.succeeded, "problems": run.problems}
    )
    print(json.dumps({"traffic": run.traffic}, sort_keys=True))
    correct = not run.problems and run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
