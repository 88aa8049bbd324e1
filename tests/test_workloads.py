"""Tests for application profiles and the trace generator."""

import hashlib

import pytest

from repro.golden import trace_digest
from repro.uarch.isa import MicroOp, OpClass, Trace, validate_trace
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.parallel import parallel_by_name, parallel_profiles
from repro.workloads.profiles import AppProfile, classify, memory_bound_score
from repro.workloads.spec import spec_by_name, spec_profiles


class TestProfiles:
    def test_twenty_one_spec_profiles(self):
        assert len(spec_profiles()) == 21

    def test_fifteen_parallel_profiles(self):
        assert len(parallel_profiles()) == 15

    def test_figure_order_starts_with_astar(self):
        assert spec_profiles()[0].name == "Astar"
        assert spec_profiles()[-1].name == "Xalancbmk"

    def test_parallel_figure_order(self):
        names = [p.name for p in parallel_profiles()]
        assert names[0] == "Barnes"
        assert names[-1] == "Water-Spatial"

    def test_mix_sums_below_one(self):
        for profile in spec_profiles() + parallel_profiles():
            assert profile.alu_frac >= 0.0, profile.name

    def test_mcf_memory_bound_gamess_not(self):
        profiles = spec_by_name()
        assert memory_bound_score(profiles["Mcf"]) > memory_bound_score(
            profiles["Gamess"]
        )

    def test_classification(self):
        profiles = spec_by_name()
        kind, branchy = classify(profiles["Sjeng"])
        assert branchy == "branchy"

    def test_parallel_profiles_have_barriers(self):
        for profile in parallel_profiles():
            assert profile.is_parallel
            assert profile.barrier_period > 0

    def test_spec_profiles_sequential(self):
        for profile in spec_profiles():
            assert not profile.is_parallel

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            AppProfile(name="bad", suite="x", load_frac=0.9, store_frac=0.2)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            AppProfile(name="bad", suite="x", hot_frac=1.5)


class TestGenerator:
    def test_trace_length_includes_warmup(self):
        trace = generate_trace(spec_by_name()["Gamess"], 1000, warmup_frac=0.5)
        assert trace.warmup_ops == 500
        assert len(trace) >= 1500

    def test_deterministic_per_seed(self):
        profile = spec_by_name()["Gcc"]
        a = generate_trace(profile, 500, seed=42)
        b = generate_trace(profile, 500, seed=42)
        assert [op.op for op in a.ops] == [op.op for op in b.ops]
        assert [op.address for op in a.ops] == [op.address for op in b.ops]

    def test_different_seeds_differ(self):
        profile = spec_by_name()["Gcc"]
        a = generate_trace(profile, 500, seed=1)
        b = generate_trace(profile, 500, seed=2)
        assert [op.address for op in a.ops] != [op.address for op in b.ops]

    def test_mix_tracks_profile(self):
        profile = spec_by_name()["Lbm"]
        trace = generate_trace(profile, 8000)
        mix = trace.op_mix()
        assert mix[OpClass.LOAD] == pytest.approx(profile.load_frac, abs=0.03)
        assert mix[OpClass.STORE] == pytest.approx(profile.store_frac, abs=0.03)

    def test_fp_profile_emits_fp_ops(self):
        trace = generate_trace(spec_by_name()["Namd"], 4000)
        mix = trace.op_mix()
        fp = (
            mix.get(OpClass.FP_ADD, 0)
            + mix.get(OpClass.FP_MUL, 0)
            + mix.get(OpClass.FP_DIV, 0)
        )
        assert fp == pytest.approx(spec_by_name()["Namd"].fp_frac, abs=0.04)

    def test_dependencies_valid(self):
        trace = generate_trace(spec_by_name()["Mcf"], 2000)
        validate_trace(trace.ops)

    def test_parallel_traces_carry_barriers(self):
        profile = parallel_by_name()["Ocean"]
        trace = generate_trace(profile, 20000)
        syncs = [op for op in trace.ops if op.op is OpClass.SYNC]
        assert len(syncs) >= 2

    def test_threads_use_disjoint_private_regions(self):
        profile = parallel_by_name()["Fft"]
        t0 = generate_trace(profile, 2000, thread=0)
        t1 = generate_trace(profile, 2000, thread=1)
        privates0 = {
            op.address for op in t0.ops
            if op.address is not None and op.address < (1 << 40)
        }
        privates1 = {
            op.address for op in t1.ops
            if op.address is not None and op.address < (1 << 40)
        }
        assert not privates0 & privates1

    def test_threads_share_the_shared_region(self):
        profile = parallel_by_name()["Canneal"]
        t0 = generate_trace(profile, 8000, thread=0)
        shared = [
            op.address for op in t0.ops
            if op.address is not None and op.address >= (1 << 40)
        ]
        assert shared  # sharing_frac > 0 produces shared accesses

    def test_resident_sets_attached(self):
        trace = generate_trace(spec_by_name()["Gamess"], 1000)
        assert trace.resident_data
        assert trace.resident_code

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            TraceGenerator(spec_by_name()["Gcc"]).generate(0)


# Whole-suite generator pins: one SHA-256 over the ordered per-trace
# digests of every SPEC profile (default thread) or every parallel
# profile at threads 0-7, at 600 measured uops.  Computed with the
# per-op MicroOp generator that preceded the columnar one, so they pin
# the random draw sequence across the rewrite.
SUITE_DIGESTS = {
    ("spec", 1234):
        "c7fd8ed64dc6bcdf3ccdd0bb8a934df7b93348c4d0beb839cacd4c4b58f44b69",
    ("parallel", 1234):
        "500fbcfd53d7ea8f587af96c3274a63a9cbb600242a073bc30526b9b62a8669f",
    ("spec", 7):
        "435abbfd7d1bbc36778c144f7fb795fcd8b2b79bf057bcf5f9bef87f4b6354f2",
    ("parallel", 7):
        "220f06c20066ab90258385901378a13b63573945a5850cb9d41858e3145f113c",
}


@pytest.mark.parametrize("suite, seed", sorted(SUITE_DIGESTS),
                         ids=lambda v: str(v))
def test_suite_trace_digests_pinned(suite, seed):
    hasher = hashlib.sha256()
    if suite == "spec":
        for profile in spec_profiles():
            trace = generate_trace(profile, 600, seed=seed)
            hasher.update(trace_digest(trace).encode())
    else:
        for profile in parallel_profiles():
            for thread in range(8):
                trace = generate_trace(profile, 600, seed=seed, thread=thread)
                hasher.update(trace_digest(trace).encode())
    assert hasher.hexdigest() == SUITE_DIGESTS[(suite, seed)]


class TestColumns:
    def test_ops_and_columns_round_trip(self):
        trace = generate_trace(parallel_by_name()["Ocean"], 3000, thread=1)
        rebuilt = Trace(trace.name, ops=trace.ops,
                        warmup_ops=trace.warmup_ops,
                        resident_data=trace.resident_data,
                        resident_code=trace.resident_code)
        assert len(rebuilt) == len(trace)
        assert trace_digest(rebuilt) == trace_digest(trace)
        assert rebuilt.op_mix() == trace.op_mix()

    def test_hand_built_trace_derives_columns(self):
        ops = [
            MicroOp(op=OpClass.ALU, pc=4096),
            MicroOp(op=OpClass.LOAD, src1=1, address=128, pc=4100),
            MicroOp(op=OpClass.BRANCH, src1=2, pc=4104, taken=True),
            MicroOp(op=OpClass.SYNC, barrier=0),
        ]
        trace = Trace("unit", ops=ops)
        columns = trace.columns
        assert columns.src1 == [0, 1, 2, 0]
        assert columns.address == [None, 128, None, None]
        assert columns.taken == [False, False, True, False]
        assert columns.barrier == [-1, -1, -1, 0]
        assert columns.to_ops() == ops
        assert trace.op_mix()[OpClass.LOAD] == pytest.approx(0.25)

    def test_ops_built_once(self):
        trace = generate_trace(spec_by_name()["Gcc"], 400)
        assert trace.ops is trace.ops

    def test_needs_exactly_one_body(self):
        with pytest.raises(ValueError):
            Trace("empty")
