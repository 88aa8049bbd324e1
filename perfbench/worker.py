"""One workload in a fresh process: set up, run the timed work, check it.

``run.py`` starts this file once per measured pass.  It prints
``perfbench-ready`` on stdout the moment set-up is done (the parent
times process start to that line as ``setup_s``), runs the workload,
runs its correctness checks outside the timed window and writes one JSON
result to ``--out``.

Modes:

* ``paper`` / ``explore`` — the workload itself; ``--setup-only`` stops
  after the ready line (the extra set-up samples).
* ``serve-host`` — hosts :class:`repro.serve.ReproServer` in this process
  for the traced serve pass, so the tracer reaches the request path.  The
  parent writes ``start`` and ``stop`` lines on stdin around the load.
* ``serve-check`` — serial references for the served responses.

With ``--trace 1`` the layer functions in :data:`TARGETS` are wrapped for
the timed window only.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Target, Tracer, count_first_len, count_iterated  # noqa: E402

READY = "perfbench-ready"

#: The traced layer functions, by the metric prefix they report under.
TARGETS = (
    Target("workloads.generate_trace",
           "repro.workloads.generator:generate_trace"),
    Target("uarch.decode", "repro.uarch.kernel:decode"),
    Target("uarch.replay_memory", "repro.uarch.kernel:replay_memory"),
    Target("uarch.run_trace", "repro.uarch.ooo:run_trace"),
    Target("uarch.simulate_core", "repro.uarch.kernel:simulate_core"),
    Target("uarch.run_trace_batch", "repro.uarch.kernel:run_trace_batch",
           hook=count_first_len, counter="configs"),
    Target("uarch.run_parallel_batch",
           "repro.uarch.multicore:run_parallel_batch"),
    Target("partition.plan_core", "repro.partition.planner:plan_core"),
    Target("design.resolve", "repro.design.resolve:resolve"),
    Target("power.power_model_for",
           "repro.power.core_power:power_model_for"),
    Target("thermal.solve_floorplans", "repro.thermal.grid:solve_floorplans"),
    Target("engine.cache.get", "repro.engine.cache:ResultCache.get"),
    # Both cache write paths report as one layer; sweeps use put_many.
    Target("engine.cache.put", "repro.engine.cache:ResultCache.put"),
    Target("engine.cache.put", "repro.engine.cache:ResultCache.put_many"),
    Target("engine.cache.make_key", "repro.engine.cache:make_key"),
    Target("engine.pool.wait", "repro.engine.pool:PoolLease.resolve"),
    Target("explore.store.append_many",
           "repro.explore.store:ResultStore.append_many",
           hook=count_iterated(1), counter="records"),
    Target("obs.build_manifest", "repro.obs.manifest:build_manifest"),
)


def ready() -> None:
    print(READY, flush=True)


def count_disagreements() -> List[int]:
    """Count :class:`ModelDisagreementWarning` instead of printing it.

    Returns a one-element list the count accumulates in.
    """
    from repro.obs import ModelDisagreementWarning

    count = [0]
    shown = warnings.showwarning

    def show(message, category, *args, **kwargs):
        if issubclass(category, ModelDisagreementWarning):
            count[0] += 1
        else:
            shown(message, category, *args, **kwargs)

    warnings.simplefilter("always", ModelDisagreementWarning)
    warnings.showwarning = show
    return count


def knobs() -> Dict[str, Any]:
    """The effective kernel and pool settings of this process."""
    from repro.engine.pool import persistent_pool_enabled
    from repro.uarch.kernel import kernel_enabled, vector_min_width

    return {
        "kernel_enabled": kernel_enabled(),
        "vector_min_width": vector_min_width(),
        "persistent_pool_enabled": persistent_pool_enabled(),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Largest resident set of this process (or of its reaped children)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def counters(engine) -> Dict[str, int]:
    """Counts the program keeps itself: cache lookups and pool spawns."""
    from repro.engine.pool import pool_stats

    pool = pool_stats()
    return {"hits": engine.cache.stats.hits,
            "misses": engine.cache.stats.misses,
            "spawns": pool["spawns"], "respawns": pool["respawns"]}


def traced_layers(tracer: Tracer, start: float, end: float,
                  disagreements: List[int], before: Dict[str, int],
                  after: Dict[str, int]) -> Dict[str, float]:
    """The tracer's layer metrics plus the counts read from the program
    over the same window."""
    delta = {name: after[name] - before[name] for name in before}
    layers = tracer.layer_metrics(start, end)
    layers["engine.pool.wait_s"] = layers.pop("engine.pool.wait.self_s")
    del layers["engine.pool.wait.calls"]
    layers["engine.pool.spawns"] = delta["spawns"]
    layers["engine.pool.respawns"] = delta["respawns"]
    layers["design.model_disagreements"] = disagreements[0]
    lookups = delta["hits"] + delta["misses"]
    layers["engine.cache.hit_ratio"] = \
        delta["hits"] / lookups if lookups else 0.0
    return layers


def timed(work: Callable[[], Any], trace: bool, disagreements: List[int],
          engine) -> Dict[str, Any]:
    """Run ``work`` once, traced or not; wall time plus layer metrics."""
    tracer = Tracer(TARGETS) if trace else None
    before = counters(engine)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        value = work()
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.restore()
    out: Dict[str, Any] = {"value": value, "wall_s": end - start}
    if tracer is not None:
        out["layers"] = traced_layers(tracer, start, end, disagreements,
                                      before, counters(engine))
    return out


# -- paper --------------------------------------------------------------------


def paper(args: argparse.Namespace) -> Dict[str, Any]:
    from repro import engine as engine_module
    from repro.experiments import figures, tables

    engine_module.configure(jobs=1, cache_dir=None)
    engine = engine_module.get_engine()
    disagreements = count_disagreements()
    ready()
    if args.setup_only:
        return {}
    seed = inputs.paper_seed(args.seed)

    def work() -> Dict[str, Any]:
        payloads = {name: build() for name, build
                    in tables.TABLE_PAYLOADS.items()}
        for name, (builder, multicore) in figures.FIGURE_BUILDERS.items():
            uops = inputs.PAPER_MULTICORE_UOPS if multicore \
                else inputs.PAPER_UOPS
            extra = {"grid": inputs.PAPER_GRID} if name == "figure8" else {}
            payloads[name] = builder(uops, seed=seed, **extra).as_dict()
        return payloads

    run = timed(work, args.trace, disagreements, engine)
    rss = peak_rss_mb()
    payloads = run.pop("value")
    fresh = [t for t in engine.telemetry.spec_timings if not t.cached]

    problems = checks.oracle_failures(
        engine, seed, inputs.PAPER_UOPS, inputs.PAPER_MULTICORE_UOPS,
        random.Random(inputs.derive(args.seed, "paper-oracle")))
    if seed == inputs.GOLDEN_SEED:
        problems += checks.golden_failures(payloads, {
            "uops": inputs.PAPER_UOPS,
            "multicore_uops": inputs.PAPER_MULTICORE_UOPS,
            "seed": seed, "grid": inputs.PAPER_GRID,
        })
    # Operations: the artifacts built and the sampled specs re-checked.
    wrong = {problem.split(":", 1)[0] for problem in problems}
    return {
        **run,
        "attempted": len(payloads) + checks.ORACLE_SINGLE_SPECS
        + checks.ORACLE_MULTICORE_SPECS,
        "failed": len(wrong),
        "problems": problems,
        "sim_uops": sum(t.uops for t in fresh),
        "points": len({(t.mode, t.config) for t in fresh}),
        "model_err_pct": checks.model_error_pct(checks.paper_pairs(payloads)),
        "peak_rss_mb": rss,
        "knobs": knobs(),
    }


# -- explore ------------------------------------------------------------------


def explore(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.design.space import SpaceSpec
    from repro.engine.pool import shutdown_pool, warm_up
    from repro.engine.sweep import ExperimentEngine
    from repro.explore import explore as run_explore
    from repro.explore.store import ResultStore

    engine = ExperimentEngine(jobs=inputs.EXPLORE_JOBS)
    warm_up(inputs.EXPLORE_JOBS)
    disagreements = count_disagreements()
    ready()
    if args.setup_only:
        return {}
    spaces = [SpaceSpec.from_dict(inputs.ANCHOR_SPACE),
              SpaceSpec.from_dict(inputs.explore_space(args.seed,
                                                       args.seconds))]
    store_path = Path(args.tmp) / "explore-store.jsonl"
    sizes = {"uops": inputs.EXPLORE_UOPS, "apps": inputs.EXPLORE_APPS}

    def work():
        return [run_explore(space, store_path=store_path, engine=engine,
                            **sizes) for space in spaces]

    run = timed(work, args.trace, disagreements, engine)
    rss = peak_rss_mb()
    reports = run.pop("value")
    fresh = [t for t in engine.telemetry.spec_timings if not t.cached]
    attempted = sum(report.unique_points for report in reports)
    evaluated = sum(report.evaluated for report in reports)

    with ResultStore(store_path) as store:
        records = list(store.records())
        lines = store.line_count()
    resume_engine = ExperimentEngine(jobs=1)
    resumed = sum(run_explore(space, store_path=store_path,
                              engine=resume_engine, **sizes).evaluated
                  for space in spaces)
    problems = [] if resumed == 0 else \
        [f"resume: re-evaluated {resumed} committed points"]
    if lines != evaluated or len(records) != evaluated:
        problems.append(f"store: {lines} lines and {len(records)} records "
                        f"for {evaluated} evaluated points")
    rng = random.Random(inputs.derive(args.seed, "explore-check"))
    problems += checks.explore_record_failures(rng.sample(
        records, min(checks.EXPLORE_RECOMPUTED, len(records))))

    anchors = {}
    for record in records:
        for name, fields in inputs.ANCHOR_DESIGNS.items():
            if record["name"].startswith(inputs.ANCHOR_SPACE["name"]) and \
                    all(record["point"][k] == v for k, v in fields.items()):
                anchors[name] = record["summary"]
    shutdown_pool()
    return {
        **run,
        "attempted": attempted,
        "failed": attempted - evaluated + len(problems),
        "problems": problems,
        "sim_uops": sum(t.uops for t in fresh),
        "points": evaluated,
        "model_err_pct": checks.model_error_pct(checks.design_pairs(anchors)),
        "peak_rss_mb": max(rss, peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "knobs": knobs(),
    }


# -- serve --------------------------------------------------------------------


def serve_host(args: argparse.Namespace) -> Dict[str, Any]:
    """Host the server in-process; trace between ``start`` and ``stop``."""
    from repro import engine as engine_module
    from repro.serve import ReproServer

    engine_module.configure(jobs=1, cache_dir=Path(args.tmp) / "cache")
    server = ReproServer(port=0).start()
    disagreements = count_disagreements()
    print(f"serving on http://{server.host}:{server.port}", flush=True)
    ready()
    engine = engine_module.get_engine()
    tracer = Tracer(TARGETS)
    window: List[float] = []
    marks = []
    for line in sys.stdin:
        command = line.strip()
        if command == "start":
            marks.append(counters(engine))
            disagreements[0] = 0
            tracer.install()
            window.append(time.perf_counter())
        elif command == "stop":
            window.append(time.perf_counter())
            tracer.restore()
            marks.append(counters(engine))
        else:
            continue
        print(f"perfbench-{command}", flush=True)
        if command == "stop":
            break
    server.wait(timeout=120)
    return {
        "layers": traced_layers(tracer, window[0], window[1], disagreements,
                                marks[0], marks[1]),
        "knobs": knobs(),
    }


def serve_check(args: argparse.Namespace) -> Dict[str, Any]:
    """Serial references for the distinct served responses, plus the
    model error of the hot response's paper designs."""
    from repro.engine.sweep import ExperimentEngine

    served = json.loads(Path(args.served).read_text())
    count_disagreements()
    ready()
    divergent = checks.divergent_responses(served, ExperimentEngine(jobs=1))
    designs = {
        evaluation["name"]: evaluation["summary"]
        for entry in served if entry["endpoint"] == "/sweep"
        for evaluation in entry["identity"]["results"]["evaluations"]
    }
    return {
        "divergent": divergent,
        "model_err_pct": checks.model_error_pct(checks.design_pairs(designs))
        if designs else None,
        "knobs": knobs(),
    }


MODES = {
    "paper": paper,
    "explore": explore,
    "serve-host": serve_host,
    "serve-check": serve_check,
}


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--seed", type=int, default=inputs.GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True,
                        help="scratch directory of this run")
    parser.add_argument("--out", required=True,
                        help="where to write the JSON result")
    parser.add_argument("--served", help="serve-check: served responses")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = MODES[args.mode](args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
