"""The public API surface: everything in ``__all__`` imports and works."""

import importlib

import pytest

import repro


def test_version_is_exposed():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"{name} missing from repro namespace"


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.geometry",
        "repro.mechanics",
        "repro.cache",
        "repro.readahead",
        "repro.scheduling",
        "repro.controller",
        "repro.disk",
        "repro.bus",
        "repro.array",
        "repro.fs",
        "repro.oscache",
        "repro.hdc",
        "repro.host",
        "repro.workloads",
        "repro.ingest",
        "repro.loadgen",
        "repro.analysis",
        "repro.metrics",
        "repro.obs",
        "repro.experiments",
        "repro.perfkit",
        "repro.service",
    ],
)
def test_every_subpackage_imports(module):
    assert importlib.import_module(module)


def test_histogram_is_the_only_metric_type():
    """One metric shape: no counter/registry types, no copied run
    summary, and ``nearest_rank`` as the one exact percentile."""
    import repro.obs
    import repro.perfkit
    import repro.service

    removed = {
        "Counter",
        "MetricsRegistry",
        "default_latency_buckets_ms",
        "default_size_buckets_blocks",
        "RunSummary",
        "summarize_run",
        "ServiceMetrics",
    }
    for module in (repro, repro.obs, repro.perfkit, repro.service):
        assert not removed & set(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert {"Histogram", "LATENCY_BUCKETS_MS", "nearest_rank"} <= set(
        repro.obs.__all__
    )
    assert "components_ms" in repro.perfkit.__all__


def test_quickstart_from_module_docstring_runs():
    """The __init__ docstring's example must actually work."""
    from repro import (
        FOR,
        SEGM,
        SyntheticSpec,
        SyntheticWorkload,
        TechniqueRunner,
        ultrastar_36z15_config,
    )

    layout, trace = SyntheticWorkload(SyntheticSpec(n_requests=100)).build()
    runner = TechniqueRunner(layout, trace)
    config = ultrastar_36z15_config()
    base = runner.run(config, SEGM)
    fancy = runner.run(config, FOR)
    assert fancy.speedup_vs(base) > 0


def test_public_docstrings_present():
    """Every public class/function in __all__ carries a docstring."""
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, type) and obj.__doc__ is None:
            missing.append(name)
        if isinstance(obj, type) and not obj.__doc__:
            missing.append(name)
    assert not missing, f"missing docstrings: {missing}"
