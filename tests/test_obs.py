"""The observability layer: tracer, histograms, result neutrality."""

import pytest

from repro import SEGM, SyntheticSpec, SyntheticWorkload, TechniqueRunner
from repro import ultrastar_36z15_config
from repro.host.streams import ReplayDriver
from repro.host.system import System
from repro.obs.metrics import LATENCY_BUCKETS_MS, Histogram, nearest_rank
from repro.obs.timeline import drive_time_in_state, spans_time_in_state
from repro.obs.tracer import (
    NULL_TRACER,
    Tracer,
    active_tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from repro.units import KB


def small_workload():
    spec = SyntheticSpec(n_requests=200, file_size_bytes=16 * KB)
    return SyntheticWorkload(spec).build()


class TestHistogram:
    def test_observe_and_counts(self):
        h = Histogram()
        # 0.005 under the first bound, one sample on a bound (bisect_left
        # files it in the bucket it closes), one mid-ladder, one overflow.
        for v in (0.005, 0.01, 3.0, 1e6):
            h.observe(v)
        assert len(h.counts) == len(LATENCY_BUCKETS_MS) + 1
        assert h.counts[0] == 2
        assert h.counts[LATENCY_BUCKETS_MS.index(5.0)] == 1
        assert h.counts[-1] == 1
        assert sum(h.counts) == h.count == 4
        assert h.sum == 0.005 + 0.01 + 3.0 + 1e6
        assert h.min == 0.005 and h.max == 1e6

    def test_ladder_is_one_two_and_a_half_five(self):
        assert LATENCY_BUCKETS_MS[:4] == (0.01, 0.025, 0.05, 0.1)
        assert LATENCY_BUCKETS_MS[-1] == 500_000.0
        assert len(LATENCY_BUCKETS_MS) == 24
        assert list(LATENCY_BUCKETS_MS) == sorted(set(LATENCY_BUCKETS_MS))

    def test_percentile_bracketed_by_buckets(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(float(i))
        # p50 of 1..100 is 50; the containing bucket is (25, 50].
        assert 25.0 <= h.percentile(50) <= 50.0
        assert h.percentile(50) <= h.percentile(95) <= h.percentile(99)
        assert h.percentile(100) <= h.max

    def test_interpolates_inside_one_bucket(self):
        # Four samples in the (10, 25] bucket: rank r of 4 sits r/4 of
        # the way from min to max.
        h = Histogram()
        for v in (12.0, 14.0, 20.0, 24.0):
            h.observe(v)
        assert h.percentile(25) == pytest.approx(12.0 + 12.0 * 0.25)
        assert h.percentile(50) == pytest.approx(12.0 + 12.0 * 0.5)
        assert h.percentile(100) == pytest.approx(24.0)

    def test_overflow_bucket_reports_max(self):
        h = Histogram()
        h.observe(2e5)
        h.observe(3e5)
        assert h.percentile(99) == 3e5

    def test_empty(self):
        h = Histogram()
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_bad_percentile_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_equality(self):
        a = Histogram()
        b = Histogram()
        assert a == b
        a.observe(2.0)
        assert a != b
        b.observe(2.0)
        assert a == b


def test_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank(ordered, 50) == 2.0
    assert nearest_rank(ordered, 100) == 4.0
    assert nearest_rank(ordered, 1) == 1.0  # rank floors at 1
    assert nearest_rank([7.0], 99) == 7.0
    assert nearest_rank([], 50) == 0.0


class TestTracer:
    def test_span_ids_and_balance(self):
        t = Tracer()
        s1 = t.begin("host", "record", stream=0)
        s2 = t.begin("host", "record", stream=1)
        assert s1 != s2 and s1 > 0
        assert t.open_spans == 2
        t.end("host", "record", s2)
        t.end("host", "record", s1)
        assert t.open_spans == 0
        phases = [e[1] for e in t.events]
        assert phases == ["b", "b", "e", "e"]

    def test_limit_drops_and_counts(self):
        t = Tracer(limit=3)
        for _ in range(5):
            t.instant("bus", "tick")
        assert len(t.events) == 3
        assert t.dropped == 2
        with pytest.raises(ValueError):
            Tracer(limit=0)

    def test_limit_still_closes_open_spans(self):
        t = Tracer(limit=1)
        span = t.begin("host", "record")
        t.instant("bus", "tick")  # dropped
        t.end("host", "record", span)  # forced through
        assert [e[1] for e in t.events] == ["b", "e"]

    def test_limit_never_orphans_ends(self):
        """A truncated trace must stay balanced: an "e" whose "b" was
        dropped is dropped too, so the export still validates."""
        from repro.obs.export import chrome_trace_dict
        from repro.obs.validate import validate_chrome_trace

        t = Tracer(limit=3)
        kept = t.begin("host", "record")   # recorded
        t.instant("bus", "tick")           # recorded
        t.instant("bus", "tick")           # recorded (at limit now)
        lost = t.begin("host", "record")   # dropped
        t.end("host", "record", lost)      # must also be dropped
        t.end("host", "record", kept)      # forced through
        assert t.open_spans == 0
        phases = [e[1] for e in t.events]
        assert phases == ["b", "i", "i", "e"]
        assert validate_chrome_trace(chrome_trace_dict(t)) == []

    def test_new_run_partitions(self):
        t = Tracer()
        t.new_run("first")
        assert t.runs == ["first"]  # renames the implicit empty run
        t.instant("bus", "tick")
        t.new_run("second")
        t.instant("bus", "tick")
        assert t.runs == ["first", "second"]
        assert [e[0] for e in t.events] == [0, 1]

    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.begin("host", "x") == 0
        NULL_TRACER.end("host", "x", 0)
        NULL_TRACER.complete("host", "x", 0.0, 1.0)
        NULL_TRACER.instant("host", "x")
        assert NULL_TRACER.events == ()
        assert len(NULL_TRACER) == 0

    def test_active_tracer_registry(self):
        assert active_tracer() is NULL_TRACER
        t = Tracer()
        install_tracer(t)
        try:
            assert active_tracer() is t
        finally:
            uninstall_tracer()
        assert active_tracer() is NULL_TRACER

    def test_tracing_context_restores(self):
        t = Tracer()
        with tracing(t) as inside:
            assert inside is t
            assert active_tracer() is t
        assert active_tracer() is NULL_TRACER


class TestTracedRuns:
    @pytest.fixture(scope="class")
    def traced(self):
        layout, trace = small_workload()
        config = ultrastar_36z15_config()
        tracer = Tracer()
        with tracing(tracer):
            system = System(config)
            driver = ReplayDriver(system, trace)
            elapsed = driver.run()
        return tracer, system, driver, elapsed

    def test_all_spans_closed(self, traced):
        tracer, _, _, _ = traced
        assert tracer.open_spans == 0

    def test_one_host_span_per_record(self, traced):
        tracer, _, driver, _ = traced
        begins = [e for e in tracer.events if e[1] == "b" and e[2] == "host"]
        assert len(begins) == driver.records_completed

    def test_span_timestamps_ordered(self, traced):
        tracer, _, _, elapsed = traced
        opens = {}
        for _run, ph, track, _name, ts, dur, span, _args in tracer.events:
            assert 0.0 <= ts <= elapsed
            if ph == "X":
                assert dur >= 0.0 and ts + dur <= elapsed + 1e-6
            elif ph == "b":
                opens[span] = ts
            elif ph == "e":
                assert ts >= opens.pop(span)
        assert not opens

    def test_media_spans_cover_drive_busy_time(self, traced):
        tracer, system, _, _ = traced
        per_disk = spans_time_in_state(tracer.events)
        for ctrl in system.controllers:
            drive = ctrl.drive
            if drive.busy_time == 0:
                continue
            covered = per_disk[f"disk{ctrl.disk_id}"]["busy"]
            assert covered >= 0.99 * drive.busy_time
            assert covered <= drive.busy_time + 1e-6

    def test_span_and_drive_breakdowns_agree(self, traced):
        tracer, system, _, elapsed = traced
        per_disk = spans_time_in_state(tracer.events, elapsed_ms=elapsed)
        for ctrl in system.controllers:
            from_drive = drive_time_in_state(ctrl.drive, elapsed)
            from_spans = per_disk[f"disk{ctrl.disk_id}"]
            for state in ("overhead", "seek", "rotation", "transfer", "busy"):
                assert from_spans[state] == pytest.approx(from_drive[state])


class TestTracingNeutrality:
    """Tracing must observe the simulation, never perturb it."""

    @pytest.fixture(scope="class")
    def pair(self):
        layout, trace = small_workload()
        config = ultrastar_36z15_config()
        runner = TechniqueRunner(layout, trace)
        plain = runner.run(config, SEGM)
        with tracing(Tracer()):
            traced = runner.run(config, SEGM)
        return plain, traced

    def test_results_identical(self, pair):
        plain, traced = pair
        assert traced.io_time_ms == plain.io_time_ms
        assert traced.records == plain.records
        assert traced.commands == plain.commands
        assert traced.record_latencies_ms == plain.record_latencies_ms
        assert traced.latency_histogram == plain.latency_histogram
        assert traced.controller == plain.controller
        assert traced.cache == plain.cache
        assert traced.disk_utilizations == plain.disk_utilizations
        assert traced.bus_utilization == plain.bus_utilization
        assert traced.time_in_state == plain.time_in_state

    def test_time_in_state_consistent(self, pair):
        plain, _ = pair
        assert plain.time_in_state, "collector must fill time_in_state"
        for b in plain.time_in_state:
            assert b["busy"] == pytest.approx(
                b["overhead"] + b["seek"] + b["rotation"] + b["transfer"]
            )
            assert b["idle"] >= 0.0

    def test_controller_stats_expose_phase_split(self, pair):
        plain, _ = pair
        stats = plain.controller
        assert stats.media_busy_ms > 0
        assert stats.media_busy_ms == pytest.approx(
            stats.seek_ms + stats.rotation_ms + stats.transfer_ms
            + stats.overhead_ms
        )
