"""Tests for the observability layer: timers, telemetry, manifests."""

import dataclasses
import json

import pytest

from repro import cli
from repro.core.configs import base_config, single_core_configs
from repro.engine import ExperimentEngine
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    check_manifest,
    current_recorder,
    metrics_path,
    record_section,
    recording,
    timer,
    validate_manifest,
    write_manifest,
)
from repro.uarch.multicore import run_parallel
from repro.uarch.ooo import STALL_CAUSES, run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_by_name
from repro.workloads.spec import spec_profiles

UOPS = 600

#: A well-formed ``explore`` manifest section.
EXPLORE_SECTION = {
    "space": "grid", "kind": "cartesian", "store": None, "chunk_size": 8,
    "in_flight": 2, "total_points": 4, "unique_points": 4, "evaluated": 4,
    "skipped": 0, "duplicates": 0, "chunks": 1, "frontier_size": 2,
    "seconds": 0.5, "points_per_second": 8.0, "pool_reuses": 0,
}


def _small_engine_with_work(jobs: int = 1) -> ExperimentEngine:
    engine = ExperimentEngine(jobs=jobs)
    engine.single_core_runs(
        UOPS,
        configs=single_core_configs()[:2],
        profiles=spec_profiles()[:2],
    )
    return engine


class TestTimer:
    def test_span_records_duration(self):
        with recording() as rec:
            with timer("unit.test") as span:
                pass
        assert span.seconds >= 0.0
        assert [s.name for s in rec.spans] == ["unit.test"]

    def test_record_false_skips_registry(self):
        with recording() as rec:
            with timer("unit.skipped", record=False):
                pass
        assert rec.spans == []

    def test_span_survives_exceptions(self):
        with recording() as rec:
            with pytest.raises(RuntimeError):
                with timer("unit.raises"):
                    raise RuntimeError("boom")
        assert [s.name for s in rec.spans] == ["unit.raises"]


class TestRecorder:
    def test_scope_isolates_sections_spans_and_telemetry(self):
        root = current_recorder()
        engine = ExperimentEngine(jobs=1)
        with recording() as outer:
            record_section("explore", {"space": "outer"})
            with recording() as inner:
                assert current_recorder() is inner
                engine.single_core_runs(
                    UOPS, configs=single_core_configs()[:1],
                    profiles=spec_profiles()[:1])
                with timer("unit.inner"):
                    pass
                manifest = build_manifest("unit-test", engine=engine)
            assert current_recorder() is outer
        assert current_recorder() is root
        # The inner scope saw its own work and nothing of the outer's.
        assert "explore" not in manifest
        assert [t["name"] for t in manifest["timers"]] == ["unit.inner"]
        assert len(manifest["specs"]) == 1
        assert validate_manifest(manifest) == []
        # The engine's own telemetry and the outer scope stayed empty.
        assert engine.telemetry.spec_timings == []
        assert outer.telemetry.spec_timings == [] and outer.spans == []
        assert outer.sections == {"explore": {"space": "outer"}}


class TestStallAttribution:
    def test_counters_present_and_nonzero(self):
        profile = spec_profiles()[0]
        trace = generate_trace(profile, 2000, seed=1234)
        result = run_trace(base_config(), trace)
        stalls = result.stats.stall_cycles
        assert set(stalls) == set(STALL_CAUSES)
        assert all(v >= 0 for v in stalls.values())
        assert sum(stalls.values()) > 0  # something always stalls

    def test_hit_rate_counters(self):
        profile = spec_profiles()[0]
        trace = generate_trace(profile, 2000, seed=1234)
        result = run_trace(base_config(), trace)
        assert 0.0 <= result.stats.branch_accuracy <= 1.0
        rates = result.stats.cache_hit_rates()
        assert rates  # loads happened
        assert abs(sum(rates.values()) - 1.0) < 1e-9

    def test_multicore_aggregates_stalls(self):
        water = parallel_by_name()["Water-Spatial"]
        result = run_parallel(base_config(num_cores=4), water, 8000)
        totals = result.stall_cycles
        assert set(totals) == set(STALL_CAUSES)
        for cause in STALL_CAUSES:
            assert totals[cause] == sum(
                core.stats.stall_cycles[cause] for core in result.per_core
            )


class TestEngineTelemetry:
    def test_batches_and_specs_recorded(self):
        engine = _small_engine_with_work()
        telemetry = engine.telemetry
        assert len(telemetry.batches) == 1
        batch = telemetry.batches[0]
        assert batch.specs == 4 and batch.misses == 4 and batch.hits == 0
        assert len(telemetry.spec_timings) == 4
        assert all(s.seconds is not None for s in telemetry.spec_timings)
        assert telemetry.counters["uops"] > 0
        assert sum(telemetry.stall_cycles.values()) > 0

    def test_cache_hits_marked(self):
        engine = _small_engine_with_work()
        engine.single_core_runs(
            UOPS,
            configs=single_core_configs()[:2],
            profiles=spec_profiles()[:2],
        )
        second_batch = engine.telemetry.spec_timings[4:]
        assert all(s.cached and s.seconds is None for s in second_batch)
        assert engine.telemetry.batches[1].hits == 4


class TestManifest:
    def test_build_and_validate(self):
        engine = _small_engine_with_work()
        manifest = build_manifest("unit-test", engine=engine, timers=[])
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["cache"]["stores"] == 4
        assert len(manifest["specs"]) == 4
        assert sum(manifest["stalls"].values()) > 0
        assert manifest["counters"]["cycles"] > 0

    def test_manifest_is_json_serialisable(self, tmp_path):
        engine = _small_engine_with_work()
        manifest = build_manifest("unit-test", engine=engine, timers=[])
        out = write_manifest(manifest, tmp_path / "m.json")
        assert validate_manifest(json.loads(out.read_text())) == []

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: m.update(schema="repro-manifest-v999"),
            lambda m: m.update(schema="repro-manifest-v8"),
            lambda m: m.pop("cache"),
            lambda m: m["cache"].pop("disk_put_failures"),
            lambda m: m["counters"].update(uops="lots"),
            lambda m: m["specs"].append({"key": "x"}),
            lambda m: m["stalls"].update(rob=-1),
            lambda m: m.update(code_fingerprint="nothex"),
            lambda m: m["timers"].append({"name": 3, "seconds": "fast"}),
            lambda m: m.update(explore=dict(EXPLORE_SECTION, chunk_size=-1)),
        ],
    )
    def test_validation_rejects_corruption(self, corrupt):
        engine = _small_engine_with_work()
        manifest = build_manifest("unit-test", engine=engine, timers=[])
        corrupt(manifest)
        assert validate_manifest(manifest) != []
        with pytest.raises(ManifestError):
            check_manifest(manifest)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ManifestError):
            write_manifest({"schema": "nope"}, tmp_path / "bad.json")

    def test_validator_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main as validate_main

        engine = _small_engine_with_work()
        good = write_manifest(
            build_manifest("unit-test", engine=engine, timers=[]),
            tmp_path / "good.json",
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert validate_main([str(good)]) == 0
        assert validate_main([str(bad)]) == 1
        assert validate_main([str(tmp_path / "missing.json")]) == 1

    def test_metrics_path_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        assert metrics_path(None) is None
        assert metrics_path("cli.json") == "cli.json"
        monkeypatch.setenv("REPRO_METRICS", "env.json")
        assert metrics_path(None) == "env.json"
        assert metrics_path("cli.json") == "cli.json"  # CLI wins


class TestCliManifests:
    def _read_valid(self, path):
        manifest = json.loads(path.read_text())
        assert validate_manifest(manifest) == []
        return manifest

    def test_figure6_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        cli.main(["--uops", str(UOPS), "figure6", "--metrics-out", str(out)])
        capsys.readouterr()
        manifest = self._read_valid(out)
        assert sum(manifest["stalls"].values()) > 0
        assert manifest["cache"]["stores"] > 0
        assert any(s["seconds"] is not None for s in manifest["specs"])

    def test_flag_before_subcommand(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        cli.main(["--uops", str(UOPS), "--metrics-out", str(out),
                  "figure", "6"])
        capsys.readouterr()
        self._read_valid(out)

    def test_env_var_equivalent(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "env.json"
        monkeypatch.setenv("REPRO_METRICS", str(out))
        cli.main(["--uops", str(UOPS), "figure", "6"])
        capsys.readouterr()
        self._read_valid(out)

    def test_no_flag_no_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        cli.main(["frequencies"])
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestTraceMemoRegression:
    """The trace memo must key on profile *content*, not profile name:
    an ablation profile built with dataclasses.replace() keeps the name
    but must not reuse the original's trace (the pre-fix memo did)."""

    def test_replaced_profile_gets_fresh_trace(self):
        from repro.engine.sweep import _TRACE_MEMO, _trace_for

        _TRACE_MEMO.clear()
        profile = spec_profiles()[0]
        original = _trace_for(profile, 400, 1234)
        variant = dataclasses.replace(
            profile, load_frac=profile.load_frac + 0.05
        )
        assert variant.name == profile.name
        fresh = _trace_for(variant, 400, 1234)
        assert fresh is not original
        # And the traces genuinely differ (different instruction mix).
        loads = lambda t: sum(1 for op in t.ops if op.address is not None)
        assert loads(fresh) != loads(original)

    def test_engine_result_matches_unmemoized_run(self):
        from repro.engine.sweep import _TRACE_MEMO

        _TRACE_MEMO.clear()
        profile = spec_profiles()[0]
        variant = dataclasses.replace(
            profile, hot_frac=max(0.0, profile.hot_frac - 0.3)
        )
        engine = ExperimentEngine(jobs=1)
        engine.simulate(base_config(), profile, UOPS)  # populates the memo
        via_engine = engine.simulate(base_config(), variant, UOPS)
        expected = run_trace(
            base_config(), generate_trace(variant, UOPS, seed=1234)
        )
        assert via_engine.cycles == expected.cycles
        assert via_engine.stats == expected.stats
