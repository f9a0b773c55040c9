"""Experiment plumbing: techniques, runner, series containers, CLI."""


import pytest

from repro.config import (
    CacheOrganization,
    ReadAheadKind,
    ultrastar_36z15_config,
)
from repro.experiments.base import SeriesResult, scaled_count
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.experiments.runner import TechniqueRunner
from repro.experiments.techniques import (
    ALL_TECHNIQUES,
    BLOCK,
    FOR,
    FOR_HDC,
    NORA,
    SEGM,
    SEGM_HDC,
    technique_config,
)
from repro.units import KB, MB
from repro.workloads.synthetic import SyntheticSpec, SyntheticWorkload


@pytest.fixture(scope="module")
def tiny_runner():
    spec = SyntheticSpec(n_requests=150, n_files=300, file_size_bytes=16 * KB)
    layout, trace = SyntheticWorkload(spec).build()
    return TechniqueRunner(layout, trace)


class TestTechniques:
    def test_registry_covers_paper_systems(self):
        assert set(ALL_TECHNIQUES) == {
            "segm", "block", "nora", "for", "segm+hdc", "for+hdc"
        }

    def test_segm_config(self):
        config = technique_config(ultrastar_36z15_config(), SEGM)
        assert config.cache.organization is CacheOrganization.SEGMENT
        assert config.readahead is ReadAheadKind.BLIND
        assert config.hdc_bytes == 0

    def test_for_config(self):
        config = technique_config(ultrastar_36z15_config(), FOR)
        assert config.cache.organization is CacheOrganization.BLOCK
        assert config.readahead is ReadAheadKind.FILE_ORIENTED

    def test_nora_config(self):
        config = technique_config(ultrastar_36z15_config(), NORA)
        assert config.readahead is ReadAheadKind.NONE

    def test_hdc_bytes_only_applied_when_enabled(self):
        base = ultrastar_36z15_config()
        assert technique_config(base, SEGM, hdc_bytes=2 * MB).hdc_bytes == 0
        assert technique_config(base, SEGM_HDC, hdc_bytes=2 * MB).hdc_bytes == 2 * MB

    def test_with_hdc_derivation(self):
        assert SEGM.with_hdc().key == "segm+hdc"
        assert FOR.with_hdc().label == "FOR+HDC"


class TestTechniqueRunner:
    def test_all_techniques_run_to_completion(self, tiny_runner):
        config = ultrastar_36z15_config()
        for tech in (SEGM, BLOCK, NORA, FOR):
            result = tiny_runner.run(config, tech)
            assert result.records == 150
            assert result.io_time_ms > 0

    def test_hdc_techniques_pin_and_flush(self, tiny_runner):
        config = ultrastar_36z15_config()
        result = tiny_runner.run(config, FOR_HDC, hdc_bytes=2 * MB)
        assert result.controller.pins_loaded > 0
        assert result.controller.flush_commands >= 8  # one per disk

    def test_hdc_hit_rate_positive_with_perfect_knowledge(self, tiny_runner):
        config = ultrastar_36z15_config()
        result = tiny_runner.run(config, SEGM_HDC, hdc_bytes=2 * MB)
        assert result.hdc_hit_rate > 0

    def test_pin_fraction_shrinks_pin_set(self, tiny_runner):
        config = ultrastar_36z15_config()
        full = tiny_runner.run(config, SEGM_HDC, hdc_bytes=2 * MB)
        frac = tiny_runner.run(
            config, SEGM_HDC, hdc_bytes=2 * MB, hdc_pin_fraction=0.1
        )
        assert frac.controller.pins_loaded < full.controller.pins_loaded

    def test_bitmaps_memoised_per_striping(self, tiny_runner):
        config = ultrastar_36z15_config()
        first = tiny_runner.bitmaps_for(config)
        second = tiny_runner.bitmaps_for(config)
        assert first is second

    def test_profile_memoised(self, tiny_runner):
        assert tiny_runner.profile() is tiny_runner.profile()

    def test_same_workload_same_randomness(self, tiny_runner):
        config = ultrastar_36z15_config()
        a = tiny_runner.run(config, SEGM)
        b = tiny_runner.run(config, SEGM)
        assert a.io_time_ms == pytest.approx(b.io_time_ms)


class TestSeriesResult:
    def test_add_and_get(self):
        series = SeriesResult("x", "t", "k", x_values=[1, 2])
        series.add_point("a", 1.0)
        series.add_point("a", 2.0)
        assert series.get("a") == [1.0, 2.0]

    def test_to_text_contains_all(self):
        series = SeriesResult("fig00", "demo", "x", x_values=[1])
        series.add_point("y", 0.5)
        series.notes.append("hello")
        text = series.to_text()
        assert "fig00" in text and "0.500" in text and "hello" in text

    def test_missing_points_render_nan(self):
        series = SeriesResult("x", "t", "k", x_values=[1, 2])
        series.add_point("a", 1.0)
        assert "nan" in series.to_text()

    def test_json_roundtrip(self, tmp_path):
        series = SeriesResult("figRT", "roundtrip", "x", x_values=[1, 2])
        series.add_point("y", 0.25)
        series.add_point("y", 0.5)
        series.notes.append("a note")
        path = tmp_path / "result.json"
        series.save_json(path)
        loaded = SeriesResult.load_json(path)
        assert loaded.exp_id == "figRT"
        assert loaded.x_values == [1, 2]
        assert loaded.get("y") == [0.25, 0.5]
        assert loaded.notes == ["a note"]

    def test_scaled_count(self):
        assert scaled_count(1000, 0.5) == 500
        assert scaled_count(10, 0.0001, minimum=3) == 3


class TestRegistryAndCli:
    def test_registry_covers_every_paper_artifact(self):
        expected = {f"fig{i:02d}" for i in range(1, 13)}
        expected |= {"table1", "table2", "validation", "ext_frag"}
        expected |= {"availability"}  # fault-injection extension
        expected |= {"trace_replay"}  # real-trace ingestion extension
        expected |= {"scale_sweep"}  # client-population scale extension
        expected |= {"service_demo"}  # live block-service extension
        expected |= {"hybrid_array"}  # heterogeneous-array extension
        assert set(EXPERIMENTS) == expected

    def test_cli_help(self, capsys):
        assert cli_main([]) == 0
        assert "fig03" in capsys.readouterr().out

    def test_cli_unknown_experiment(self, capsys):
        assert cli_main(["nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_cli_runs_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        assert "Number of disks" in capsys.readouterr().out

    def stdout_of(self, argv, capsys):
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    def test_one_print_path_for_every_flag_mix(
        self, tmp_path, monkeypatch, capsys
    ):
        """Serial, --jobs and --chart runs print the same text, analysis
        section included."""
        monkeypatch.chdir(tmp_path)
        no_cache = ["--no-cache"]
        sweep = ["scale_sweep", "--scale", "0.02"]
        serial = self.stdout_of(sweep, capsys)
        assert "== scale_sweep: p99 knee" in serial
        for jobs in ("1", "2"):
            parallel = self.stdout_of(sweep + ["--jobs", jobs] + no_cache, capsys)
            assert parallel == serial, jobs
        chart = self.stdout_of(sweep + ["--chart"], capsys)
        assert chart.startswith(serial)
        assert len(chart) > len(serial)

        table1 = self.stdout_of(["table1"], capsys)
        parallel = self.stdout_of(["table1", "--jobs", "1"] + no_cache, capsys)
        assert parallel == table1
        assert "nan" not in table1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scale", "abc"],
            ["--scale"],
            ["--jobs"],
            ["--jobs", "two"],
            ["--trace-limit"],
            ["--trace-limit", "1e3"],
            ["--scale", "--chart"],
        ],
    )
    def test_cli_rejects_missing_or_non_numeric_values(self, flags, capsys):
        assert cli_main(["validation", *flags]) == 2
        err = capsys.readouterr().err
        assert f"argument {flags[0]}: " in err
        assert "usage: repro-exp" in err

    # --scale, --jobs and --trace-limit with no value: the test above.
    @pytest.mark.parametrize(
        "flags",
        [
            ["--faults"],
            ["--cache-dir"],
            ["--report"],
            ["--trace-out"],
            ["--scale", "0.2", "--faults"],
            ["--sclae", "0.2"],
            ["--bogus-flag"],
        ],
    )
    def test_cli_rejects_valueless_or_unknown_flags(
        self, flags, monkeypatch, capsys
    ):
        def must_not_run(**kwargs):
            raise AssertionError("the experiment ran despite a bad flag")

        monkeypatch.setitem(
            EXPERIMENTS, "validation", Experiment(must_not_run)
        )
        assert cli_main(["validation", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: repro-exp" in captured.err

    def test_cli_runs_validation(self, capsys):
        assert cli_main(["validation", "--scale", "0.2"]) == 0
        assert "error_frac" in capsys.readouterr().out

    def test_cli_report_flag_writes_perfkit_page(self, tmp_path, capsys):
        out = tmp_path / "fig01.md"
        assert cli_main(["fig01", "--report", str(out)]) == 0
        md = out.read_text(encoding="utf-8")
        assert md.startswith("# perfkit report — fig01")
        assert "## Sparklines" in md
        assert str(out) in capsys.readouterr().err
