"""Solve host for the gas-large workload: in-process ``repro.api.solve``.

Reads one JSON spec line per stdin line and answers each with one stdout
line ``{"reply": {...}}`` carrying the outcome and the wall time of the
``repro.api.solve`` call, so the timing is what an in-process caller sees.
With ``--trace`` the solve runs under :class:`layers.LayerTimer` and the
reply also carries the per-layer split.  Started by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/gas_host.py [--trace] < specs.jsonl
"""

from __future__ import annotations

import json
import sys
import time

import repro.api as api
from repro.service.protocol import parse_request_line

from layers import LayerTimer, traced_solve


def main() -> int:
    timer = LayerTimer() if "--trace" in sys.argv[1:] else None
    if timer is not None:
        timer.install()
    for line in sys.stdin:
        clock = time.perf_counter
        began = clock()
        spec = parse_request_line(line)
        decode_s = clock() - began
        if timer is not None:
            reply = traced_solve(timer, lambda: api.solve(spec))
        else:
            began = clock()
            outcome = api.solve(spec)
            reply = {"outcome": outcome.to_json_dict(), "solve_s": clock() - began}
        began = clock()
        api.SolveOutcome.from_json_dict(reply["outcome"]).to_json_line()
        reply["encode_s"] = clock() - began
        reply["decode_s"] = decode_s
        sys.stdout.write(json.dumps({"reply": reply}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
