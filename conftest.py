"""Session fixtures shared by the test-suite and the benchmark harness."""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.experiments.ablation import run_ablation
from repro.experiments.config import ExperimentProfile


@pytest.fixture(scope="session")
def ablation_for() -> Callable[[ExperimentProfile], Dict[str, object]]:
    """``run_ablation`` memoised per profile for the whole session.

    The follower ablation is the slowest experiment of the suite; both
    ``tests/test_experiments.py`` and ``benchmarks/test_ablation_followers.py``
    assert on it, so it runs once per profile.
    """
    results: Dict[ExperimentProfile, Dict[str, object]] = {}

    def _ablation(profile: ExperimentProfile) -> Dict[str, object]:
        if profile not in results:
            results[profile] = run_ablation(profile)
        return results[profile]

    return _ablation
