"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see DESIGN.md
§2).  The experiment profile is selected with the ``REPRO_BENCH_PROFILE``
environment variable:

* ``quick``  (default) — small datasets / budgets, finishes in a few minutes;
* ``laptop`` — the full eight-dataset configuration used for EXPERIMENTS.md;
* ``paper``  — the paper's original parameters (not practical in pure Python).

Each benchmark prints the rendered table/series and also writes it to
``<name>.txt`` under pytest's temporary directory, so a test run leaves the
tracked reference renderings in ``benchmarks/output/`` untouched.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.config import get_profile

try:  # pragma: no cover - exercised only when the plugin is installed
    import pytest_benchmark  # noqa: F401

    _HAVE_PYTEST_BENCHMARK = True
except ImportError:
    _HAVE_PYTEST_BENCHMARK = False


if not _HAVE_PYTEST_BENCHMARK:

    class _FallbackBenchmark:
        """Minimal stand-in for pytest-benchmark's ``benchmark`` fixture.

        Supports both calling conventions used by this suite — direct
        ``benchmark(fn, *args)`` and ``benchmark.pedantic(fn, args=...,
        kwargs=..., rounds=..., iterations=...)`` — by running the function
        once, printing the wall time and returning the result, so the
        benchmarks stay runnable (and assertable) without the plugin.
        """

        def __call__(self, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            name = getattr(fn, "__name__", repr(fn))
            print(f"\n[benchmark] {name}: {elapsed:.4f}s")
            return result

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return self(fn, *args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


def pytest_collection_modifyitems(items):
    """Every benchmark regenerates a full paper artefact — mark them all
    ``slow`` so ``pytest -m "not slow"`` gives a fast default loop.

    The hook receives the whole session's items, so restrict the marking to
    tests that actually live in this directory.
    """
    benchmark_dir = str(Path(__file__).parent)
    for item in items:
        if str(item.fspath).startswith(benchmark_dir):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def profile():
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    return get_profile(name)


@pytest.fixture(scope="session")
def record_artifact(tmp_path_factory):
    """Return a callable that persists a rendered experiment artefact."""
    output_dir = tmp_path_factory.mktemp("output")

    def _record(name: str, text: str) -> None:
        (output_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n")

    return _record
