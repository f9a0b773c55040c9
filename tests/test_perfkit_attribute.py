"""Cross-run component attribution over duck-typed run results."""

from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.obs.timeline import MEDIA_STATES
from repro.perfkit.attribute import (
    COMPONENTS,
    attribute_shift,
    phase_attribution_table,
    components_ms,
    phase_media_breakdown,
)


def fake_result(
    records=100,
    mean_latency_ms=5.0,
    seek=100.0,
    rotation=150.0,
    transfer=200.0,
    overhead=50.0,
    block_hits=0,
    media_blocks=400,
    throughput_mb_s=10.0,
):
    """A minimal object shaped like RunResult, per-disk totals given."""
    states = {
        "overhead": overhead,
        "seek": seek,
        "rotation": rotation,
        "transfer": transfer,
    }
    states["busy"] = sum(states.values())
    return SimpleNamespace(
        records=records,
        io_time_ms=1000.0,
        mean_latency_ms=mean_latency_ms,
        throughput_mb_s=throughput_mb_s,
        time_in_state=[states],
        cache=SimpleNamespace(block_hits=block_hits),
        controller=SimpleNamespace(
            media_blocks_read=media_blocks, media_blocks_written=0
        ),
        cache_hit_rate=0.0,
        hdc_hit_rate=0.0,
    )


def test_summary_has_every_component():
    assert set(components_ms(fake_result())) == set(COMPONENTS)


def test_media_components_are_per_record():
    components = components_ms(fake_result(records=100, seek=100.0))
    assert components["seek"] == pytest.approx(1.0)
    assert components["rotation"] == pytest.approx(1.5)


def test_queue_is_signed_residual():
    # media work = 5.0 ms/record; latency 7.0 -> +2.0 queueing
    components = components_ms(fake_result(mean_latency_ms=7.0))
    assert components["queue"] == pytest.approx(2.0)
    # latency 3.0 < media work: overlap across disks, negative residual
    overlapped = components_ms(fake_result(mean_latency_ms=3.0))
    assert overlapped["queue"] == pytest.approx(-2.0)


def test_cache_credit_is_negative_ms():
    # 200 hits over 100 records at busy 500ms / 400 media blocks
    components = components_ms(fake_result(block_hits=200))
    assert components["cache"] == pytest.approx(-2 * 500.0 / 400)
    no_hits = components_ms(fake_result(block_hits=0))
    assert no_hits["cache"] == 0.0


def test_zero_record_run_does_not_divide_by_zero():
    # floored to one record: every component defined, media per record
    # equals the run's totals
    components = components_ms(fake_result(records=0, seek=100.0))
    assert set(components) == set(COMPONENTS)
    assert components["seek"] == pytest.approx(100.0)


def test_ranking_orders_by_absolute_delta():
    base = fake_result()
    new = fake_result(seek=300.0, mean_latency_ms=7.0)
    report = attribute_shift(base, new)
    assert report.ranking[0].component in ("seek", "queue")
    deltas = [abs(a.delta_ms) for a in report.ranking]
    assert deltas == sorted(deltas, reverse=True)
    assert sum(a.share for a in report.ranking) == pytest.approx(1.0)


def test_identical_runs_rank_deterministically():
    report = attribute_shift(fake_result(), fake_result(), "a", "b")
    # all-zero deltas: ties break in canonical component order
    assert [a.component for a in report.ranking] == list(COMPONENTS)
    assert all(a.share == 0.0 for a in report.ranking)
    assert report.latency_delta_ms == 0.0


def test_report_text_names_top_component():
    base = fake_result()
    new = fake_result(seek=400.0, mean_latency_ms=8.0, throughput_mb_s=8.0)
    report = attribute_shift(base, new, "Segm", "FOR")
    text = report.to_text()
    assert "FOR vs Segm" in text
    assert "slower" in text
    assert "seek" in text
    # headline and context read the runs themselves
    assert report.latency_delta_ms == pytest.approx(3.0)
    assert report.throughput_delta_mb_s == pytest.approx(-2.0)
    assert "throughput 10.00 -> 8.00 MB/s" in text


# -- per-phase media binning ------------------------------------------


def span(ts, dur, name, disk=0, run=1):
    """One tracer media-state span event tuple."""
    return (run, "X", f"disk{disk}/state", name, ts, dur, 7, None)


def test_phase_media_breakdown_bins_by_start_time():
    events = [
        span(1.0, 2.0, "seek"),
        span(5.0, 1.0, "transfer"),
        span(12.0, 3.0, "rotation"),
        span(15.0, 1.0, "overhead", disk=3),
    ]
    bounds = [(0.0, 10.0), (10.0, 14.0)]
    out = phase_media_breakdown(events, bounds)
    assert len(out) == 2
    assert out[0]["seek"] == 2.0 and out[0]["transfer"] == 1.0
    assert out[1]["rotation"] == 3.0
    # span starting past the last bound folds into the final phase
    assert out[1]["overhead"] == 1.0


def test_phase_media_breakdown_ignores_non_media_events():
    events = [
        span(1.0, 2.0, "seek"),
        (1, "X", "host/requests", "request", 1.0, 5.0, 8, None),
        (1, "i", "disk0/state", "seek", 2.0, 0.0, 9, None),
    ]
    out = phase_media_breakdown(events, [(0.0, 10.0)])
    assert out[0]["seek"] == 2.0
    assert sum(out[0].values()) == 2.0


def test_phase_media_breakdown_filters_by_run():
    events = [span(1.0, 2.0, "seek", run=1), span(1.5, 4.0, "seek", run=2)]
    out = phase_media_breakdown(events, [(0.0, 10.0)], run=2)
    assert out[0]["seek"] == 4.0


def test_phase_media_breakdown_empty_bounds():
    assert phase_media_breakdown([span(1.0, 2.0, "seek")], []) == []


def test_phase_attribution_table_checks_lengths():
    phases = [SimpleNamespace(index=0, n_records=10)]
    with pytest.raises(ReproError):
        phase_attribution_table(phases, [], [{}])


def test_phase_attribution_table_renders_deltas():
    phases = [SimpleNamespace(index=0, n_records=10)]
    base = [dict.fromkeys(MEDIA_STATES, 10.0)]
    new = [dict.fromkeys(MEDIA_STATES, 5.0)]
    table = phase_attribution_table(phases, base, new)
    assert "-0.500" in table  # (5 - 10) / 10 records
    for state in MEDIA_STATES:
        assert state in table
