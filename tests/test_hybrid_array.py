"""The hybrid_array experiment driver and device-aware mirroring.

Covers the PR's acceptance bar for the new experiment: same-seed
reruns are byte-identical, the knee post-processing is pure (works on
any merged :class:`SeriesResult`), and the hybrid mirror actually
steers reads toward the flash replicas via expected-service-time
weighting.
"""

from repro.array.raid import MirroredArray
from repro.config import ArrayParams, DeviceKind, ultrastar_36z15_config
from repro.experiments import hybrid_array
from repro.experiments.base import SeriesResult
from repro.host.system import System
from repro.units import KB

RUN_KW = dict(
    scale=0.02,
    arrays=("hdd", "hybrid"),
    techniques=("segm",),
    streams=(4, 16),
)


def test_rerun_is_byte_identical():
    a = hybrid_array.run(**RUN_KW)
    b = hybrid_array.run(**RUN_KW)
    assert a.to_text() == b.to_text()
    assert a.series == b.series


def test_array_axis_and_metrics_present():
    res = hybrid_array.run(**RUN_KW)
    assert res.x_values == ["hdd", "hybrid"]
    for n in (4, 16):
        assert len(res.get(f"mb_s[segm]@{n}")) == 2
        assert all(v > 0 for v in res.get(f"p99_ms[segm]@{n}"))
    # flash channels engaged on the hybrid array, absent on all-HDD
    hdd_peak, hybrid_peak = res.get("ssd_peak_ch")
    assert hdd_peak == 0
    assert hybrid_peak >= 1


def test_hybrid_mirror_steers_reads_to_flash():
    """Expected-service-time replica selection sends reads to the SSD
    half of an HDD+SSD mirror (flat flash latency beats seeking)."""
    config = ultrastar_36z15_config(
        array=ArrayParams(n_disks=4, striping_unit_bytes=16 * KB),
        devices=("ultrastar_36z15",) * 2 + ("generic_ssd",) * 2,
        seed=5,
    )
    assert config.device_kinds == (
        DeviceKind.HDD,
        DeviceKind.HDD,
        DeviceKind.SSD,
        DeviceKind.SSD,
    )
    system = System(config)
    mirror = MirroredArray(system.array)
    for i in range(20):
        mirror.submit_logical(i * 512, 4)
    system.sim.run()
    primary, secondary = mirror.read_balance()
    assert primary + secondary == 20
    assert secondary == 20  # every read chose the flash replica


def test_same_kind_pairs_keep_the_legacy_balancer():
    """All-HDD mirrors must take the legacy queue-length/seek-distance
    path (the availability goldens depend on those exact choices)."""
    config = ultrastar_36z15_config(
        array=ArrayParams(n_disks=4, striping_unit_bytes=16 * KB),
        seed=5,
    )
    system = System(config)
    mirror = MirroredArray(system.array)
    for i in range(20):
        mirror.submit_logical(i * 512, 4)
    system.sim.run()
    primary, secondary = mirror.read_balance()
    assert primary + secondary == 20
    assert primary > 0 and secondary > 0  # balanced, not one-sided


def _fake_result(p99s):
    res = SeriesResult(
        exp_id="hybrid_array",
        title="t",
        x_label="array",
        x_values=list(p99s),
    )
    for n, idx in ((4, 0), (16, 1), (64, 2)):
        for array_kind in p99s:
            res.add_point(f"p99_ms[segm]@{n}", p99s[array_kind][idx])
            res.add_point(f"mb_s[segm]@{n}", 1.0)
    return res


def test_find_knees_flags_first_blowup_level():
    res = _fake_result(
        {
            "hdd": [1.0, 12.0, 40.0],  # knee at 16 (>= 10x base)
            "ssd": [1.0, 2.0, 3.0],  # never knees
        }
    )
    knees = hybrid_array.find_knees(res, techniques=("segm",))
    assert knees[("hdd", "segm")] == 16
    assert knees[("ssd", "segm")] is None


def test_knee_table_renders_all_cells():
    res = _fake_result({"hdd": [1.0, 12.0, 40.0], "ssd": [1.0, 2.0, 3.0]})
    table = hybrid_array.knee_table(res, techniques=("segm",))
    assert "hdd" in table and "ssd" in table
    assert "> 64" in table  # the un-kneed cell renders as beyond-range


def test_registry_exposes_hybrid_array():
    from repro.experiments.registry import EXPERIMENTS

    exp = EXPERIMENTS["hybrid_array"]
    assert exp.run is hybrid_array.run
    assert exp.axis == "arrays"
    assert exp.values == tuple(hybrid_array.ARRAYS)
    assert exp.analysis is hybrid_array.knee_table
