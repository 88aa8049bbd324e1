"""The batched SoA kernel (:mod:`repro.uarch.kernel`).

The kernel's contract is *cycle-exactness*: ``run_trace_batch`` must
return results indistinguishable (full dataclass equality — stats,
stall attribution, memory-level histograms, everything) from per-config
``OutOfOrderCore.run`` calls, at every batch width its one generated
timing loop is compiled for.  These tests pin that
contract, the multicore batch equivalent, the engine's byte-identical
figure output with the kernel on vs off, and the generator digests the
replay-sharing optimisations silently depend on.
"""

import dataclasses
import os

import pytest

from repro.core.configs import (
    base_config,
    multicore_configs,
    single_core_configs,
)
from repro.golden import TRACE_CASES, load_golden, trace_digest
from repro.uarch import kernel, native
from repro.uarch.kernel import (
    kernel_enabled,
    run_trace_batch,
    simulate_core,
    vector_min_width,
)
from repro.uarch.multicore import run_parallel, run_parallel_batch
from repro.uarch.ooo import run_trace
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles

if os.environ.get("REPRO_KERNEL") in ("0", "false", "off", "no"):
    pytest.skip("kernel disabled via $REPRO_KERNEL", allow_module_level=True)


def _fresh_trace(profile, uops, seed=1234, thread=None):
    if thread is None:
        return generate_trace(profile, uops, seed=seed)
    return generate_trace(profile, uops, seed=seed, thread=thread)


# ---------------------------------------------------------------------------
# Single-core exactness: batch == oracle at every width
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 4, 9])
def test_batch_matches_oracle_paper_configs(profile_index):
    profile = spec_profiles()[profile_index]
    configs = single_core_configs()
    trace = _fresh_trace(profile, 1500)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 1500))
    assert batched == oracle  # full SimResult equality, stats included


def test_batch_matches_oracle_edge_configs():
    """Narrow widths, hetero penalty, shared L2, tiny queues."""
    base = base_config()
    configs = [
        base,
        dataclasses.replace(base, name="narrow", dispatch_width=1,
                            issue_width=1, commit_width=1),
        dataclasses.replace(base, name="hetero", hetero=True, is_3d=True,
                            load_to_use_cycles=3,
                            branch_mispredict_cycles=12),
        dataclasses.replace(base, name="sharedl2", shared_l2=True),
        dataclasses.replace(base, name="tinyq", rob_entries=8, iq_entries=4,
                            lq_entries=2, sq_entries=2),
        dataclasses.replace(base, name="fast", frequency=4.4e9),
    ]
    profile = spec_profiles()[2]
    trace = _fresh_trace(profile, 1200)
    oracle = [run_trace(config, trace) for config in configs]
    assert run_trace_batch(configs, _fresh_trace(profile, 1200)) == oracle


def test_batch_preserves_config_order_and_duplicates():
    configs = single_core_configs()
    shuffled = [configs[3], configs[0], configs[3], configs[5]]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in shuffled]
    batched = run_trace_batch(shuffled, _fresh_trace(profile, 800))
    assert batched == oracle
    assert [r.config_name for r in batched] == [c.name for c in shuffled]


def test_simulate_core_matches_oracle_single():
    """The per-core primitive agrees with the oracle on its own."""
    config = base_config()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 1000)
    expected = run_trace(config, trace)
    replay_trace = _fresh_trace(profile, 1000)
    image = kernel.replay_memory(replay_trace, config)
    assert simulate_core(replay_trace, [config], image) == [expected]


@pytest.mark.parametrize("width", [1, 2, 64, 65, 129])
def test_dispatch_boundary_widths(width):
    """Exactness at the widths where the batch shape changes: a single
    config, the narrowest merge, a full chunk, and one config past one
    and two chunk boundaries (mixed L2 geometries and hetero configs)."""
    base = base_config()
    configs = [
        dataclasses.replace(base, name=f"b{k}",
                            rob_entries=base.rob_entries + k,
                            dispatch_width=1 + k % 4,
                            hetero=k % 3 == 1,
                            shared_l2=k % 5 == 2)
        for k in range(width)
    ]
    profile = spec_profiles()[1]
    trace = _fresh_trace(profile, 900)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 900))
    assert batched == oracle  # 0.0 divergence vs the OOO oracle


def test_equal_width_batches_share_one_compiled_loop():
    """The generated loop is keyed by batch width alone: two batches of
    equal width but different timing geometry reuse one compiled loop."""
    base = base_config()
    wide = [dataclasses.replace(base, name=f"w{k}", rob_entries=64 + k,
                                issue_width=base.issue_width + k)
            for k in range(3)]
    narrow = [dataclasses.replace(base, name=f"n{k}", dispatch_width=1,
                                  commit_width=1, hetero=True,
                                  lq_entries=2 + k)
              for k in range(3)]
    profile = spec_profiles()[2]
    kernel._LOOPS.pop(3, None)
    first = run_trace_batch(wide, _fresh_trace(profile, 500))
    compiled = kernel._LOOPS[3]
    second = run_trace_batch(narrow, _fresh_trace(profile, 500))
    assert kernel._LOOPS[3] is compiled
    trace = _fresh_trace(profile, 500)
    assert first == [run_trace(config, trace) for config in wide]
    assert second == [run_trace(config, trace) for config in narrow]


# ---------------------------------------------------------------------------
# Environment gates
# ---------------------------------------------------------------------------


def test_kernel_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert kernel_enabled()
    for value in ("0", "false", "off", "no"):
        monkeypatch.setenv("REPRO_KERNEL", value)
        assert not kernel_enabled()
    monkeypatch.setenv("REPRO_KERNEL", "1")
    assert kernel_enabled()


def test_vector_min_width_env(monkeypatch):
    """Every group takes the generated loop: the dispatch threshold is
    the constant 1, and the retired ``$REPRO_KERNEL_VECTOR_MIN`` knob no
    longer moves it."""
    monkeypatch.delenv("REPRO_KERNEL_VECTOR_MIN", raising=False)
    assert vector_min_width() == 1
    monkeypatch.setenv("REPRO_KERNEL_VECTOR_MIN", "3")
    assert vector_min_width() == 1


# ---------------------------------------------------------------------------
# Multicore batch
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_index", [0, 2])
def test_parallel_batch_matches_run_parallel(profile_index):
    profile = parallel_profiles()[profile_index]
    configs = multicore_configs()
    oracle = [run_parallel(config, profile, 2400, seed=1234)
              for config in configs]
    batched = run_parallel_batch(configs, profile, 2400, seed=1234)
    assert batched == oracle


def test_parallel_batch_rejects_serial_profiles():
    with pytest.raises(ValueError):
        run_parallel_batch(multicore_configs(), spec_profiles()[0], 1000)


# ---------------------------------------------------------------------------
# Columnar traces: the kernel path never builds MicroOp objects
# ---------------------------------------------------------------------------


def test_kernel_path_builds_no_microops(monkeypatch):
    """Generation, decode, replay, the predictor pass, digests and both
    batch entry points read the trace columns; only the scalar oracle builds
    the lazy ``trace.ops`` list."""
    from repro.uarch.isa import MicroOp

    built = [0]
    check = MicroOp.__post_init__

    def counting_post_init(self):
        built[0] += 1
        check(self)

    monkeypatch.setattr(MicroOp, "__post_init__", counting_post_init)
    configs = single_core_configs()
    # A seed no other test uses, so no memoized trace is reused.
    seed = 4242
    trace = _fresh_trace(spec_profiles()[3], 900, seed=seed)
    kernel.decode(trace)
    kernel.branch_outcomes(trace)
    kernel.replay_memory(trace, configs[0])
    trace_digest(trace)
    run_trace_batch(configs, trace)
    run_parallel_batch(multicore_configs(), parallel_profiles()[1], 1600,
                       seed=seed)
    assert built[0] == 0

    oracle_trace = _fresh_trace(spec_profiles()[3], 900, seed=seed)
    run_trace(configs[0], oracle_trace)
    assert built[0] == len(oracle_trace) > 0


# ---------------------------------------------------------------------------
# Engine regression: figure6 identical with the kernel on and off
# ---------------------------------------------------------------------------


def test_figure6_identical_with_kernel_disabled(monkeypatch):
    from repro import engine
    from repro.experiments.figures import figure6

    engine.configure(jobs=1, cache_dir=None)
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    with_kernel = figure6(uops=900)
    engine.configure(jobs=1, cache_dir=None)  # drop the cached sweep
    monkeypatch.setenv("REPRO_KERNEL", "0")
    without_kernel = figure6(uops=900)
    engine.configure(jobs=1, cache_dir=None)
    assert with_kernel == without_kernel


def test_engine_telemetry_counts_kernel_batches():
    from repro.engine.sweep import ExperimentEngine

    eng = ExperimentEngine(jobs=1, cache_dir=None)
    eng.single_core_runs(700, profiles=spec_profiles()[:2])
    summary = eng.telemetry.kernel_summary()
    assert summary["groups"] == 2  # one batch per profile
    assert summary["batched_specs"] == 2 * len(single_core_configs())
    assert summary["max_width"] == len(single_core_configs())
    assert summary["fallback_specs"] == 0


# ---------------------------------------------------------------------------
# Generator pinning: the replay-sharing memos assume traces are
# deterministic functions of (profile, uops, seed, thread).  The pinned
# digests live in goldens/traces.json; the cases, the hash and the
# golden store are all repro.golden's (re-bless with
# `repro validate --update --only traces`).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", TRACE_CASES,
                         ids=lambda c: f"{c[0]}{c[1]}-u{c[2]}-s{c[3]}")
def test_generated_trace_digests_pinned(case):
    suite, index, uops, seed, thread = case
    expected = {
        (c["suite"], c["index"], c["uops"], c["seed"], c["thread"]):
            c["digest"]
        for c in load_golden("traces")["payload"]["cases"]
    }[(suite, index, uops, seed, thread)]
    profiles = spec_profiles() if suite == "spec" else parallel_profiles()
    trace = _fresh_trace(profiles[index], uops, seed=seed, thread=thread)
    assert trace_digest(trace) == expected


# ---------------------------------------------------------------------------
# Manifest: the kernel section validates and reflects engine activity
# ---------------------------------------------------------------------------


def test_manifest_kernel_section_roundtrip():
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import build_manifest, validate_manifest

    eng = ExperimentEngine(jobs=1, cache_dir=None)
    eng.single_core_runs(600, profiles=spec_profiles()[:1])
    manifest = build_manifest("test", engine=eng)
    assert validate_manifest(manifest) == []
    assert manifest["kernel"]["summary"]["batched_specs"] == len(
        single_core_configs()
    )
    assert all(batch["used_kernel"]
               for batch in manifest["kernel"]["batches"])


def test_manifest_reports_replay_path():
    """Each kernel batch and the summary say which cache replay ran;
    one reference batch marks the whole run degraded."""
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import EngineTelemetry, build_manifest, validate_manifest

    eng = ExperimentEngine(jobs=1, cache_dir=None)
    eng.single_core_runs(600, profiles=spec_profiles()[1:2])
    manifest = build_manifest("test", engine=eng)
    assert validate_manifest(manifest) == []
    path = "native" if native.replay_library() is not None else "reference"
    assert manifest["kernel"]["summary"]["replay"] == path
    assert {b["replay"] for b in manifest["kernel"]["batches"]} == {path}

    telemetry = EngineTelemetry()
    assert telemetry.kernel_summary()["replay"] == "none"
    telemetry.record_kernel_batch("single", 1, 0.1, False)
    assert telemetry.kernel_summary()["replay"] == "none"
    telemetry.record_kernel_batch("single", 6, 0.1, True, replay="native")
    assert telemetry.kernel_summary()["replay"] == "native"
    telemetry.record_kernel_batch("multi", 4, 0.1, True, replay="reference")
    assert telemetry.kernel_summary()["replay"] == "reference"


def test_manifest_rejects_malformed_kernel_section():
    from repro.engine.sweep import ExperimentEngine
    from repro.obs import build_manifest, validate_manifest

    manifest = build_manifest(
        "test", engine=ExperimentEngine(jobs=1, cache_dir=None)
    )
    manifest["kernel"] = {"summary": {"groups": "lots"}, "batches": [{}]}
    problems = validate_manifest(manifest)
    assert any("kernel.summary" in p for p in problems)
    assert any("kernel.batches[0]" in p for p in problems)


# ---------------------------------------------------------------------------
# Deprecation shim (satellite: the module-global limiter counter)
# ---------------------------------------------------------------------------


def test_last_tracked_cycles_deprecated_and_on_stats():
    from repro.uarch import ooo

    result = run_trace(base_config(), _fresh_trace(spec_profiles()[0], 400))
    assert result.stats.tracked_limiter_cycles > 0
    with pytest.warns(DeprecationWarning):
        legacy = ooo.last_tracked_cycles()
    assert legacy == result.stats.tracked_limiter_cycles


def test_kernel_results_carry_tracked_limiter_cycles():
    configs = single_core_configs()
    profile = spec_profiles()[0]
    trace = _fresh_trace(profile, 800)
    oracle = [run_trace(config, trace) for config in configs]
    batched = run_trace_batch(configs, _fresh_trace(profile, 800))
    assert [r.stats.tracked_limiter_cycles for r in batched] == \
        [r.stats.tracked_limiter_cycles for r in oracle]
