"""The compiled cache replay walk: exactness against the oracle's own
hierarchy, the no-cache-objects guarantee, and its build cache's
behaviour under races, corruption and a missing or failing compiler."""

import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import (
    base_config,
    m3d_het_config,
    multicore_configs,
    single_core_configs,
)
from repro.uarch import kernel, native
from repro.uarch.cache import CacheHierarchy, CoherenceDirectory
from repro.uarch.isa import OP_CODE, OpClass, Trace, TraceColumns
from repro.uarch.multicore import run_parallel_batch
from repro.uarch.ooo import FETCH_BLOCK_UOPS
from repro.workloads.generator import generate_trace
from repro.workloads.parallel import parallel_profiles
from repro.workloads.spec import spec_profiles

_LOAD = OP_CODE[OpClass.LOAD]
_STORE = OP_CODE[OpClass.STORE]
_LEVELS = ("L1", "L2", "L3", "DRAM")

needs_native = pytest.mark.skipif(
    native.replay_library() is None, reason="no C compiler for the walk"
)


# ---------------------------------------------------------------------------
# Exactness: native images == the oracle hierarchy's images
# ---------------------------------------------------------------------------

#: Strides that land successive lines in one set of IL1 (8 KiB), DL1
#: (4 KiB), L2 (32 / 64 KiB) and L3 (128 KiB), forcing conflicts and
#: evictions with a few dozen distinct lines, plus dense ones.
STRIDES = (8, 64, 4096, 8192, 32 * 1024, 64 * 1024, 128 * 1024)


@st.composite
def column_traces(draw, thread):
    n = draw(st.integers(0, 240))
    stride = draw(st.sampled_from(STRIDES))
    base = draw(st.sampled_from([0, 1 << 20, 1 << 40]))
    ops = draw(st.lists(
        st.sampled_from([OpClass.ALU, OpClass.LOAD, OpClass.STORE,
                         OpClass.BRANCH]),
        min_size=n, max_size=n))
    codes = [OP_CODE[op] for op in ops]
    # Shared lines (k < 4) are the same address on every core, so
    # coherence sees remote-dirty reads and write invalidations.
    lines = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    addresses = [
        (base + line * stride + (0 if line < 4 else thread << 30))
        if code in (_LOAD, _STORE) else None
        for code, line in zip(codes, lines)
    ]
    pcs = draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 1 << 16).map(lambda k: k * 4)),
        min_size=n, max_size=n))
    resident = st.one_of(
        st.just([]),
        st.lists(st.integers(0, 1 << 22).map(lambda k: k * 64), max_size=60),
        st.builds(lambda lo, count, step: range(lo, lo + count * step, step),
                  st.integers(0, 1 << 20), st.integers(0, 3000),
                  st.sampled_from([32, 64, 4096])),
        st.builds(lambda a, b: (range(0, a * 4096, 4096),
                                range(1 << 30, (1 << 30) + b * 64, 64)),
                  st.integers(0, 600), st.integers(0, 600)),
    )
    return Trace(
        f"t{thread}",
        columns=TraceColumns(codes, [0] * n, [0] * n, addresses, pcs,
                             [False] * n, [-1] * n),
        warmup_ops=draw(st.integers(0, n)),
        resident_data=draw(resident),
        resident_code=draw(resident),
    )


def _oracle_image(trace, config, core_id, directory, noc_penalty):
    """The image the scalar oracle's hierarchy implies: walk it as
    ``OutOfOrderCore.warmup``/``run`` do, coherence inside
    ``data_access``, and recover each load's remote flag from its
    latency."""
    caches = CacheHierarchy(config, core_id, directory)
    if trace.resident_data or trace.resident_code:
        caches.preload(trace.resident_data, trace.resident_code)
    columns = trace.columns
    base = {
        "L1": config.dl1_cycles,
        "L2": config.l2_cycles,
        "L3": config.l3_cycles + noc_penalty,
        "DRAM": config.l3_cycles + noc_penalty + config.dram_cycles,
    }
    fetch, loads, remote = [], [], []
    warmup = trace.warmup_ops
    for i, code in enumerate(columns.op):
        index = i if i < warmup else i - warmup
        if index % FETCH_BLOCK_UOPS == 0:
            level = caches.fetch(columns.pc[i] or index * 4).level
            if i >= warmup:
                fetch.append(_LEVELS.index(level))
        if code in (_LOAD, _STORE):
            access = caches.data_access(columns.address[i], code == _STORE,
                                        noc_penalty)
            if code == _LOAD and i >= warmup:
                loads.append(_LEVELS.index(access.level))
                remote.append(int(access.latency != base[access.level]))
    return fetch, loads, remote


def _as_lists(image):
    return (image.fetch_levels.tolist(), image.load_levels.tolist(),
            image.load_remote.tolist())


def _counts(loads):
    return {level: loads.count(code) for code, level in enumerate(_LEVELS)
            if loads.count(code)}


@needs_native
@settings(deadline=None, max_examples=60)
@given(data=st.data(), shared_l2=st.booleans(), cores=st.integers(1, 4),
       noc_penalty=st.sampled_from([0, 1, 7]))
def test_native_images_match_oracle_hierarchy(data, shared_l2, cores,
                                              noc_penalty):
    config = (m3d_het_config if shared_l2 else base_config)(num_cores=4)
    assert config.shared_l2 == shared_l2
    traces = [data.draw(column_traces(thread)) for thread in range(cores)]
    # One core replays alone (no directory); more share one directory
    # and run in core order, as the multicore batch does.
    coupled = cores > 1
    directories = {path: CoherenceDirectory() if coupled else None
                   for path in ("native", "reference", "oracle")}
    for core_id, trace in enumerate(traces):
        expected = _oracle_image(trace, config, core_id,
                                 directories["oracle"], noc_penalty)
        for path in ("native", "reference"):
            replay = Trace(trace.name, columns=trace.columns,
                           warmup_ops=trace.warmup_ops,
                           resident_data=trace.resident_data,
                           resident_code=trace.resident_code)
            library = native.replay_library() if path == "native" else None
            with mock.patch.object(native, "_library", library):
                image = kernel.replay_memory(
                    replay, config, core_id=core_id,
                    coherence=directories[path], noc_penalty=noc_penalty)
            assert _as_lists(image) == expected, path
            assert image.mem_level_counts == _counts(expected[1])
    if coupled:
        oracle = directories["oracle"]
        for path in ("native", "reference"):
            assert directories[path].transfers == oracle.transfers
            assert directories[path].invalidations == oracle.invalidations


@needs_native
def test_out_of_range_addresses_take_the_reference_walk():
    """Negative addresses (C and Python disagree on their ``/`` and
    ``%``) are replayed by the reference hierarchy, exactly."""
    codes = [_LOAD, _STORE, _LOAD, _LOAD] * 8
    addresses = [-(k * 4096) - 8 for k in range(len(codes))]
    trace = Trace("neg", columns=TraceColumns(
        codes, [0] * 32, [0] * 32, addresses, [0] * 32, [False] * 32,
        [-1] * 32), warmup_ops=5)
    config = base_config()
    assert not kernel._replay_columns(trace)["in_range"]
    image = kernel.replay_memory(trace, config)
    assert image.replay == "reference"
    assert _as_lists(image) == _oracle_image(trace, config, 0, None, 0)


@needs_native
def test_batches_report_the_replay_they_timed():
    """``take_replay_path`` names the walk behind the images timed since
    its last call: an out-of-range trace is a reference replay even with
    the compiled walk loaded."""
    codes = [_LOAD, _STORE] * 16
    configs = single_core_configs()[:2]
    kernel.take_replay_path()
    assert kernel.take_replay_path() == "none"
    kernel.run_trace_batch(configs, generate_trace(spec_profiles()[3], 500,
                                                   seed=61))
    assert kernel.take_replay_path() == "native"
    negative = Trace("neg", columns=TraceColumns(
        codes, [0] * 32, [0] * 32, [-64 * k - 64 for k in range(32)],
        [0] * 32, [False] * 32, [-1] * 32))
    kernel.run_trace_batch(configs, negative)
    assert kernel.take_replay_path() == "reference"


# ---------------------------------------------------------------------------
# The kernel path builds no cache objects
# ---------------------------------------------------------------------------


@needs_native
def test_kernel_path_builds_no_cache_objects(monkeypatch):
    """With the compiled walk available, batched single-core and
    multicore timing replay over flat arrays: no
    :class:`SetAssociativeCache` (so no ``CacheHierarchy``) is built."""
    from repro.uarch import cache

    built = [0]
    init = cache.SetAssociativeCache.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cache.SetAssociativeCache, "__init__", counting_init)
    # A seed no other test uses, so no memoized trace or image is reused.
    seed = 5151
    kernel.run_trace_batch(single_core_configs(),
                           generate_trace(spec_profiles()[2], 900, seed=seed))
    run_parallel_batch(multicore_configs(), parallel_profiles()[2], 1600,
                       seed=seed)
    assert built[0] == 0


# ---------------------------------------------------------------------------
# Build cache: races, corruption, missing or failing compiler
# ---------------------------------------------------------------------------

_RACER = """
import os, sys, time
go = sys.argv[1]
while not os.path.exists(go):
    time.sleep(0.001)
from repro.uarch import kernel
from repro.core.configs import single_core_configs
from repro.golden import payload_digest
from repro.workloads.generator import generate_trace
from repro.workloads.spec import spec_profiles
trace = generate_trace(spec_profiles()[0], 600, seed=77)
results = kernel.run_trace_batch(single_core_configs()[:2], trace)
assert kernel.take_replay_path() == "native"
print(payload_digest([r.cycles for r in results]))
"""


def _user_cache(tmp_path: Path) -> Path:
    """:func:`native.cache_dir` of a process whose ``TMPDIR`` is
    ``tmp_path``."""
    return tmp_path / f"repro-native-{os.getuid()}"


def _src_env(tmp_path: Path) -> dict:
    env = dict(os.environ)
    src = str(Path(kernel.__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = str(tmp_path)
    return env


@needs_native
def test_racing_cold_builds_load_one_working_library(tmp_path):
    """Two processes released together on a cold cache directory both
    build or load a working library; one intact file is left behind."""
    go = tmp_path / "go"
    env = _src_env(tmp_path)
    racers = [
        subprocess.Popen([sys.executable, "-c", _RACER, str(go)], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    go.touch()
    outputs = [racer.communicate(timeout=300) for racer in racers]
    for racer, (out, err) in zip(racers, outputs):
        assert racer.returncode == 0, err
        assert "RuntimeWarning" not in err
    digests = {out.strip() for out, _ in outputs}
    assert len(digests) == 1
    built = list(_user_cache(tmp_path).iterdir())
    assert [path.name for path in built] == [
        native.library_path(_user_cache(tmp_path)).name
    ]
    assert native._intact(built[0])


@needs_native
@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_damaged_cached_library_is_rebuilt(tmp_path, monkeypatch, damage):
    """A truncated or bit-flipped cached library fails its digest check
    and is rebuilt before anything loads it."""
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    path = native.library_path(tmp_path)
    native._build(path)
    blob = path.read_bytes()
    if damage == "truncate":
        path.write_bytes(blob[: len(blob) // 2])
    else:
        middle = len(blob) // 2
        path.write_bytes(blob[:middle] + bytes([blob[middle] ^ 0xFF])
                         + blob[middle + 1:])
    assert not native._intact(path)
    library = native.load()
    assert native._intact(path)
    assert path.read_bytes() == blob
    trace = generate_trace(spec_profiles()[1], 700, seed=91)
    with mock.patch.object(native, "_library", library):
        rebuilt = kernel.replay_memory(trace, base_config())
    with mock.patch.object(native, "_library", None):
        reference = kernel.replay_memory(
            generate_trace(spec_profiles()[1], 700, seed=91), base_config())
    assert _as_lists(rebuilt) == _as_lists(reference)


@pytest.mark.parametrize("breakage", ["no-compiler", "compile-error"])
def test_failing_compiler_falls_back_with_one_warning(tmp_path, monkeypatch,
                                                      breakage):
    """Without a working compiler the kernel replays through the
    reference hierarchy: one warning, identical results."""
    profile = spec_profiles()[4]
    configs = single_core_configs()
    expected = kernel.run_trace_batch(
        configs, generate_trace(profile, 800, seed=303))
    kernel.take_replay_path()

    monkeypatch.setattr(native, "_library", native._UNLOADED)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(native, "cache_dir",
                        lambda: tmp_path / "repro-native")
    if breakage == "no-compiler":
        monkeypatch.setenv("PATH", str(tmp_path))
    else:
        monkeypatch.setattr(native, "COMPILE", (*native.COMPILE,
                                                "--no-such-flag"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = kernel.run_trace_batch(
            configs, generate_trace(profile, 800, seed=303))
        again = kernel.run_trace_batch(
            configs, generate_trace(profile, 800, seed=304))
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "reference cache hierarchy" in str(caught[0].message)
    assert fallback == expected
    assert kernel.take_replay_path() == "reference"
    assert len(again) == len(configs)
    assert not list((tmp_path / "repro-native").glob("*.so"))


def _plant(directory: Path) -> bytes:
    """Put a library with a valid digest trailer where the loader looks
    in ``directory``; returns its bytes."""
    directory.mkdir(exist_ok=True)
    body = b"\x7fELF not really a library"
    blob = body + hashlib.sha256(body).digest()
    native.library_path(directory).write_bytes(blob)
    return blob


def _loaded_from(library) -> Path:
    return Path(library._name).resolve().parent


@needs_native
@pytest.mark.parametrize("owner", ["anyone-writes", "another-user"])
def test_foreign_cache_directory_is_never_loaded_from(tmp_path, monkeypatch,
                                                      owner):
    """A cache directory another user made, or anyone can write to, is
    not trusted: the library is built privately and nothing planted
    there is loaded (or touched)."""
    planted = tmp_path / "cache"
    blob = _plant(planted)
    if owner == "anyone-writes":
        planted.chmod(0o777)
    else:
        if os.geteuid() != 0:
            pytest.skip("handing a directory to another user needs root")
        os.chown(planted, 65534, 65534)
        os.chown(native.library_path(planted), 65534, 65534)
        planted.chmod(0o755)
    monkeypatch.setattr(native, "cache_dir", lambda: planted)
    library = native.load()
    assert _loaded_from(library) != planted.resolve()
    assert native.library_path(planted).read_bytes() == blob
    assert sorted(planted.iterdir()) == [native.library_path(planted)]
    trace = generate_trace(spec_profiles()[1], 500, seed=92)
    with mock.patch.object(native, "_library", library):
        image = kernel.replay_memory(trace, base_config())
    with mock.patch.object(native, "_library", None):
        reference = kernel.replay_memory(
            generate_trace(spec_profiles()[1], 500, seed=92), base_config())
    assert _as_lists(image) == _as_lists(reference)


@needs_native
def test_cached_library_others_can_write_is_rebuilt(tmp_path, monkeypatch):
    """In the private cache directory, a library that group or others
    can write to is replaced by a fresh build before loading."""
    monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
    tmp_path.chmod(0o700)
    path = native.library_path(tmp_path)
    _plant(tmp_path)
    path.chmod(0o666)
    library = native.load()
    assert _loaded_from(library) == tmp_path.resolve()
    assert native._intact(path)
    assert not path.stat().st_mode & 0o022
    assert b"not really a library" not in path.read_bytes()


def test_cache_directory_is_private_to_the_user(tmp_path, monkeypatch):
    """A fresh cache directory is named for and readable by this user
    only."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    assert native.cache_dir() == _user_cache(tmp_path)
    try:
        native.load()
    except (OSError, subprocess.SubprocessError):
        pass  # no compiler: the directory is made all the same
    assert _user_cache(tmp_path).stat().st_mode & 0o777 == 0o700


def test_nothing_compiles_at_import(tmp_path):
    """Importing the package (and the kernel) builds and loads nothing."""
    probe = ("import sys; import repro.uarch.kernel, repro.uarch.native as n;"
             " sys.exit(0 if n._library is n._UNLOADED else 1)")
    env = _src_env(tmp_path)
    subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                   timeout=120)
    assert not list(tmp_path.glob("repro-native*"))


def test_warm_state_arrays_are_never_mutated_by_replay():
    """The native walk runs on copies: replaying twice from the memoized
    warm state gives the same image."""
    trace_args = (spec_profiles()[5], 900)
    first = kernel.replay_memory(generate_trace(*trace_args, seed=17),
                                 base_config())
    second = kernel.replay_memory(generate_trace(*trace_args, seed=17),
                                  base_config())
    assert _as_lists(first) == _as_lists(second)
