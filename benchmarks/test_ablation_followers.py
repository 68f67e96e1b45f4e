"""Benchmark: ablation of the GAS pipeline (BASE / BASE+ / GAS, follower methods)."""

from repro.experiments.ablation import render_ablation


def test_ablation_followers(ablation_for, profile, record_artifact):
    # Shares one session run with tests/test_experiments.py (see conftest.py);
    # the rendered table carries each variant's own solve time.
    result = ablation_for(profile)
    record_artifact("ablation_followers", render_ablation(result))
    full_graph_gains = {row["gain"] for row in result["rows"] if "small" not in row["variant"]}
    assert len(full_graph_gains) == 1
