"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Target, Tracer, count_first_len, count_iterated  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def declared(section):
    return [metric["name"] for metric in SPEC[section]]


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_file_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") \
            and ".." not in path.split("/")
    assert len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 for arg in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) \
        and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_metric_names_and_units_use_allowed_characters():
    names = [w["name"] for w in SPEC["workloads"]] + declared("end_to_end") \
        + declared("per_layer")
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric


def test_end_to_end_bounds_and_setup_metric():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- every workload emits every metric it declares ------------------------------


def traced_layer_names():
    tracer = Tracer(worker.TARGETS)
    zero = {"hits": 0, "misses": 0, "spawns": 0, "respawns": 0}
    layers = worker.traced_layers(tracer, 0.0, 1.0, [0], zero, zero)
    layers.update(run.serve_layers([]))
    layers.update(run.overhead(1.0, 1.5))
    return layers


def test_traced_layers_are_exactly_the_declared_per_layer_metrics():
    assert sorted(traced_layer_names()) == sorted(declared("per_layer"))


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def report_output(raw, trace):
    args = types.SimpleNamespace(workload="serve", seed=3, seconds=1,
                                 trace=trace)
    bench_run = run.Run(args, Path("/nonexistent"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        correct = run.report(bench_run, raw, loadavg=0.5)
    return correct, out.getvalue()


RAW = {
    "attempted": 4, "failed": 0, "problems": [], "knobs": {},
    "setups": [0.5, 0.7, 0.6], "wall_s": 2.0, "sim_uops": 1000,
    "points": 3, "latencies_ms": [10.0, 20.0, 30.0, 400.0],
    "peak_rss_mb": 100.0, "model_err_pct": 4.0,
}


@pytest.mark.parametrize("trace", [0, 1])
def test_report_prints_every_declared_metric(trace):
    raw = dict(RAW, layers=traced_layer_names())
    correct, text = report_output(raw, trace)
    result = last_json_line(text)
    assert correct
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(section)
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert re.search(rf"^\s+{re.escape(name)}\s", text, re.M)
    assert "failed_ratio" in text


def test_a_wrong_output_marks_the_result_incorrect():
    raw = dict(RAW, failed=1, problems=["figure6: drift"])
    correct, text = report_output(raw, 0)
    assert not correct
    assert last_json_line(text)["correct"] is False


def test_end_to_end_metric_values():
    metrics = run.end_to_end(RAW)
    assert metrics["setup_s"] == 0.6
    assert metrics["sim_uops_per_s"] == 500.0
    assert metrics["req_per_s"] == 2.0
    assert metrics["p50_ms"] == 25.0
    assert 30.0 < metrics["p90_ms"] < 400.0
    one = run.end_to_end(dict(RAW, latencies_ms=[2000.0]))
    assert one["p50_ms"] == one["p90_ms"] == 2000.0


# -- correctness checks fail on corrupted outputs -------------------------------


def test_golden_check_passes_and_fails_on_corruption():
    from repro.experiments.tables import TABLE_PAYLOADS

    payload = TABLE_PAYLOADS["table1"]()
    assert checks.golden_failures({"table1": payload}, {}) == []
    corrupted = copy.deepcopy(payload)
    row = next(iter(corrupted["rows"].values()))
    key = next(iter(row["model"]))
    row["model"][key] = row["model"][key] * 1.5 + 1.0
    assert checks.golden_failures({"table1": corrupted}, {})


def test_oracle_check_passes_and_fails_on_corruption():
    import random

    from repro.engine.sweep import ExperimentEngine, suite_specs
    from repro.design.resolve import paper_single_core_configs
    from repro.workloads.spec import spec_profiles

    engine = ExperimentEngine(jobs=1)
    engine.single_core_runs(300, seed=7)
    engine.multicore_runs(600, seed=7)
    assert checks.oracle_failures(engine, 7, 300, 600,
                                  random.Random(1)) == []
    specs = suite_specs("single", 300, 7, paper_single_core_configs(),
                        spec_profiles())
    wrong = engine.cache.get(specs[0].cache_key())[1]
    for spec in specs[1:]:
        engine.cache.put(spec.cache_key(), wrong)
    assert checks.oracle_failures(engine, 7, 300, 600, random.Random(1))


def test_explore_check_passes_and_fails_on_corruption(tmp_path):
    from repro.design.space import SpaceSpec
    from repro.explore import explore
    from repro.explore.store import ResultStore

    space = SpaceSpec.from_dict(dict(inputs.ANCHOR_SPACE,
                                     axes={"top_layer_slowdown": [0.0]}))
    store_path = tmp_path / "store.jsonl"
    explore(space, store_path=store_path, uops=200, apps=1)
    with ResultStore(store_path) as store:
        records = list(store.records())
    assert checks.explore_record_failures(records) == []
    corrupted = copy.deepcopy(records[0])
    corrupted["ghz"] += 0.5
    assert checks.explore_record_failures([corrupted])


def test_serve_check_passes_and_fails_on_corruption():
    from repro.serve import serial_reference

    body = {"points": ["Base", "M3D-Het"], "uops": 200, "apps": 1}
    reference = serial_reference("/sweep", dict(body))
    entry = {"endpoint": "/sweep", "body": body, "identity": reference}
    assert checks.divergent_responses([entry]) == []
    corrupted = copy.deepcopy(entry)
    corrupted["identity"]["results"]["evaluations"][1]["ghz"] += 0.1
    assert checks.divergent_responses([entry, corrupted]) == [1]


def test_model_error_is_the_mean_absolute_percentage():
    assert checks.model_error_pct([(1.1, 1.0), (0.9, 1.0)]) == \
        pytest.approx(10.0)
    with pytest.raises(ValueError):
        checks.model_error_pct([])


# -- tracer ----------------------------------------------------------------------


def make_modules():
    """``pbfake_a`` defines the functions; ``pbfake_b`` imported
    ``inner`` by name, the way ``repro.engine.sweep`` imports
    ``generate_trace``."""
    a = types.ModuleType("pbfake_a")
    exec(
        "import time\n"
        "def inner(delay):\n"
        "    time.sleep(delay)\n"
        "def outer(delay):\n"
        "    time.sleep(delay)\n"
        "    inner(delay)\n"
        "    inner(delay)\n"
        "class Box:\n"
        "    def put_many(self, items):\n"
        "        return sum(1 for _ in items)\n"
        "def size(items):\n"
        "    return len(items)\n",
        a.__dict__,
    )
    b = types.ModuleType("pbfake_b")
    b.inner = a.inner
    sys.modules["pbfake_a"] = a
    sys.modules["pbfake_b"] = b
    return a, b


def test_tracer_subtracts_child_time_and_restores_functions():
    a, b = make_modules()
    originals = (a.inner, a.outer, a.Box.__dict__["put_many"], a.size)
    tracer = Tracer([
        Target("fake.outer", "pbfake_a:outer"),
        Target("fake.inner", "pbfake_a:inner"),
        Target("fake.put_many", "pbfake_a:Box.put_many",
               hook=count_iterated(1), counter="items"),
        Target("fake.size", "pbfake_a:size", hook=count_first_len,
               counter="items"),
    ], prefixes=("pbfake_",))
    try:
        start = time.perf_counter()
        with tracer:
            assert b.inner is a.inner is not originals[0]
            a.outer(0.05)
            b.inner(0.02)
            time.sleep(0.05)  # covered by no span
            assert a.Box().put_many(iter(range(7))) == 7
            assert a.size([1, 2, 3]) == 3
        end = time.perf_counter()
        assert (a.inner, a.outer, a.Box.__dict__["put_many"], a.size) \
            == originals
        assert b.inner is originals[0]
        metrics = tracer.layer_metrics(start, end)
        assert metrics["fake.outer.calls"] == 1
        assert metrics["fake.inner.calls"] == 3
        assert 0.05 <= metrics["fake.outer.self_s"] < 0.09
        assert 0.12 <= metrics["fake.inner.self_s"] < 0.2
        assert metrics["fake.put_many.items"] == 7
        assert metrics["fake.size.items"] == 3
        assert 0.05 <= metrics["untraced_s"] < 0.09
        assert sum(v for k, v in metrics.items() if k.endswith("self_s")) \
            + metrics["untraced_s"] == pytest.approx(end - start, abs=1e-6)
    finally:
        del sys.modules["pbfake_a"], sys.modules["pbfake_b"]


def test_tracer_restores_even_when_the_call_raises():
    a, _ = make_modules()
    original = a.inner
    try:
        with pytest.raises(TypeError):
            with Tracer([Target("fake.inner", "pbfake_a:inner")],
                        prefixes=("pbfake_",)):
                a.inner("not a delay")
        assert a.inner is original
    finally:
        del sys.modules["pbfake_a"], sys.modules["pbfake_b"]


def test_every_target_resolves():
    tracer = Tracer(worker.TARGETS)
    with tracer:
        pass


# -- seeds ------------------------------------------------------------------------


def test_same_seed_same_inputs_and_different_seeds_differ():
    assert inputs.explore_space(5, 20) == inputs.explore_space(5, 20)
    assert inputs.serve_requests(5, 20) == inputs.serve_requests(5, 20)
    assert inputs.paper_seed(5) == inputs.paper_seed(5)
    assert inputs.explore_space(5, 20) != inputs.explore_space(6, 20)
    assert inputs.serve_requests(5, 20) != inputs.serve_requests(6, 20)
    assert inputs.paper_seed(5) != inputs.paper_seed(6)
    assert inputs.paper_seed(inputs.GOLDEN_SEED) == 1234


def test_serve_mix_and_distinct_plans():
    requests = inputs.serve_requests(9, 20)
    unique = [body for endpoint, body in requests if endpoint == "/points"]
    assert len(requests) == 7 * len(unique)
    plans = {(p["points"][0]["stack"], p["points"][0]["top_layer_slowdown"],
              p["points"][0]["partition"]) for p in unique}
    assert len(plans) == min(len(unique), len(inputs.PLANS))
    assert not plans & set(inputs.HOT_PLANS)


# -- whole runs -------------------------------------------------------------------


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("workload", ["explore", "serve"])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr[-2000:]
    result = last_json_line(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == declared(section)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
