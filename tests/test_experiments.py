"""Integration tests for the experiment harness (quick profile).

These tests run every experiment end-to-end on the ``quick`` profile and
check the *shape* of the results (the qualitative claims of the paper), not
absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import render_ablation
from repro.experiments.config import PROFILES, get_profile
from repro.experiments.fig5_exact import render_fig5, run_fig5
from repro.experiments.fig6_effectiveness import render_fig6, run_fig6
from repro.experiments.fig7_case_study import render_fig7, run_fig7
from repro.experiments.fig8_efficiency import render_fig8, run_fig8
from repro.experiments.fig9_scalability import render_fig9, run_fig9
from repro.experiments.fig10_reuse import render_fig10, run_fig10
from repro.experiments.fig11_distribution import render_fig11, run_fig11
from repro.experiments.runner import available_experiments, run_experiment
from repro.experiments.table3 import render_table3, run_table3
from repro.experiments.table4_routes import render_table4, run_table4
from repro.experiments.table5_akt import render_table5, run_table5
from repro.utils.errors import InvalidParameterError


@pytest.fixture(scope="module")
def profile():
    return get_profile("quick")


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"quick", "laptop", "paper"}
        assert get_profile("laptop").default_budget > get_profile("quick").default_budget

    def test_unknown_profile(self):
        with pytest.raises(InvalidParameterError):
            get_profile("cluster")

    def test_runner_lists_all_experiments(self):
        assert set(available_experiments()) == {
            "table3",
            "table4",
            "table5",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablation",
        }


@pytest.mark.slow
class TestTable3(object):
    def test_shape(self, profile):
        result = run_table3(profile)
        rows = result["rows"]
        assert len(rows) == len(profile.datasets)
        for row in rows:
            # the headline effectiveness claim: GAS >= every random baseline
            assert row["gain_gas"] >= row["gain_rand"]
            assert row["gain_gas"] >= row["gain_sup"]
            assert row["gain_gas"] >= row["gain_tur"]
        text = render_table3(result)
        assert "Table III" in text


@pytest.mark.slow
class TestFig5(object):
    def test_gas_close_to_exact(self, profile):
        result = run_fig5(profile)
        for payload in result["datasets"].values():
            series = payload["series"]
            # b = 1: greedy's first pick maximises the single-anchor gain, so
            # it matches the optimum exactly.
            assert series["gas_over_exact"][0] == pytest.approx(1.0)
            # larger budgets: never better than the optimum, and within a
            # sensible fraction of it.  The paper reports >= 0.9 on 150-250
            # edge subgraphs; the quick-profile subgraphs are much smaller,
            # where a single missed joint effect weighs heavily, so the bound
            # here is intentionally loose (EXPERIMENTS.md discusses this).
            for ratio in series["gas_over_exact"]:
                assert 0.0 <= ratio <= 1.0 + 1e-9
            for exact_gain, gas_gain in zip(series["exact_gain"], series["gas_gain"]):
                assert gas_gain <= exact_gain
            # ... and the exhaustive solver is the one paying for optimality
            assert series["gas_seconds"][-1] <= series["exact_seconds"][-1]
        assert "Fig. 5" in render_fig5(result)


@pytest.mark.slow
class TestFig6(object):
    def test_gas_dominates_random_baselines(self, profile):
        result = run_fig6(profile)
        for series in result["datasets"].values():
            for index in range(len(result["budgets"])):
                assert series["GAS"][index] >= series["Rand"][index]
                assert series["GAS"][index] >= series["Sup"][index]
                assert series["GAS"][index] >= series["Tur"][index]
            # gain is monotone in the budget for the greedy prefix
            assert series["GAS"] == sorted(series["GAS"])
        assert "Fig. 6" in render_fig6(result)


@pytest.mark.slow
class TestFig7(object):
    def test_gas_beats_akt_and_edge_deletion(self, profile):
        result = run_fig7(profile)
        # Edge-deletion-critical edges are poor anchors — strict claim.
        assert result["gas"]["total"] >= result["edge_deletion"]["total"]
        # AKT is compared with a small tolerance: at laptop-scale budgets a
        # vertex anchor unlocks a whole star at once, which narrows the gap
        # the paper observes with b = 100 (see EXPERIMENTS.md).
        assert result["gas"]["total"] >= 0.6 * result["akt"]["total"]
        # GAS lifts edges across several trussness levels, AKT across one.
        assert len(result["gas"]["by_trussness"]) >= len(result["akt"]["by_trussness"])
        assert "Fig. 7" in render_fig7(result)


@pytest.mark.slow
class TestFig8(object):
    def test_gas_faster_than_base_plus_at_max_budget(self, profile):
        result = run_fig8(profile)
        for name, payload in result["datasets"].items():
            gas_times = [t for t in payload["GAS"] if t != "-"]
            base_times = [t for t in payload["BASE+"] if t != "-"]
            assert gas_times == sorted(gas_times)
            assert base_times == sorted(base_times)
            # At the largest budget the reuse must pay off.  On very small
            # graphs the tree-building overhead can dominate (the paper sees
            # the same effect on Patents), so allow a one-second cushion.
            assert gas_times[-1] <= base_times[-1] * 1.5 + 1.0
            # both solvers achieve the same gain
            assert payload["gain_check"][0] == payload["gain_check"][1]
        assert "Fig. 8" in render_fig8(result)


@pytest.mark.slow
class TestFig9(object):
    def test_runtime_grows_with_sample_size(self, profile):
        result = run_fig9(profile)
        for payload in result["datasets"].values():
            for mode in ("vary_edges", "vary_vertices"):
                ratios = payload[mode]["edge_ratio"]
                assert ratios == sorted(ratios)
        assert "Fig. 9" in render_fig9(result)


@pytest.mark.slow
class TestFig10(object):
    def test_majority_of_results_reusable(self, profile):
        result = run_fig10(profile)
        for payload in result["datasets"].values():
            assert payload["FR"] >= 0.5
            # fractions are rounded to 4 decimals by the harness
            assert payload["FR"] + payload["PR"] + payload["NR"] == pytest.approx(1.0, abs=2e-3)
        assert "Fig. 10" in render_fig10(result)


@pytest.mark.slow
class TestTable4(object):
    def test_routes_are_small_relative_to_graph(self, profile):
        result = run_table4(profile)
        for row in result["rows"]:
            assert row["min_size"] >= 0
            assert row["max_size"] <= row["edges"]
            assert row["avg_size"] <= row["max_size"]
        assert "Table IV" in render_table4(result)


@pytest.mark.slow
class TestTable5(object):
    def test_ratios_are_reported_consistently(self, profile):
        result = run_table5(profile)
        for row in result["rows"]:
            assert row["akt_max_gain"] >= row["akt_avg_gain"] >= 0
            assert row["avg_ratio"] <= row["max_ratio"] + 1e-9
            assert row["gas_gain"] >= 0
            assert set(row["gains_by_k"])  # at least one k evaluated
        assert "Table V" in render_table5(result)


@pytest.mark.slow
class TestFig11(object):
    def test_distribution_shapes(self, profile):
        result = run_fig11(profile)
        budgets = result["budgets"]
        # GAS gain grows with the budget
        gains = [result["gas_gain_per_budget"][b] for b in budgets]
        assert gains == sorted(gains)
        # AKT gain for any (k, b) never exceeds the gain GAS reaches with the
        # full budget (the Fig. 11 overlay claim)
        best_gas = max(gains) if gains else 0
        for row in result["akt_grid"].values():
            for value in row.values():
                assert value <= max(best_gas, 1)
        assert "Fig. 11" in render_fig11(result)


@pytest.mark.slow
class TestAblation(object):
    def test_all_variants_agree_on_gain(self, profile, ablation_for):
        result = ablation_for(profile)
        gains = {row["gain"] for row in result["rows"] if "small" not in row["variant"]}
        assert len(gains) == 1
        assert "Ablation" in render_ablation(result)


class TestRunner:
    def test_run_single_experiment(self, profile):
        _result, text = run_experiment("table4", profile)
        assert "Table IV" in text
