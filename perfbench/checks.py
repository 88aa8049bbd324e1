"""Correctness checks and the model-fidelity metric.

Each check returns a list of problems (empty when the outputs are
right).  The benchmark runs them outside the timed window and marks the
run incorrect when any returns a problem.  The program is imported
inside the functions, so this module loads without it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

#: Sampled specs the paper oracle check re-simulates per run.
ORACLE_SINGLE_SPECS = 3
ORACLE_MULTICORE_SPECS = 1

#: Committed explore records recomputed serially per run.
EXPLORE_RECOMPUTED = 4


def model_error_pct(pairs: Iterable[Tuple[float, float]]) -> float:
    """Mean absolute error of ``(model, published)`` pairs, in percent."""
    errors = [abs(model - paper) / abs(paper) for model, paper in pairs]
    if not errors:
        raise ValueError("no published counterpart to compare against")
    return 100.0 * sum(errors) / len(errors)


def paper_pairs(payloads: Mapping[str, Any]) -> List[Tuple[float, float]]:
    """Model vs published: Table 11 GHz and the suite averages of
    Figures 6, 7, 9 and 10."""
    from repro.core import reference

    pairs = [
        (row["model"]["ghz"], reference.TABLE11_FREQUENCIES[name])
        for name, row in payloads["table11"]["rows"].items()
        if name in reference.TABLE11_FREQUENCIES
    ]
    for figure, published in (
        ("figure6", reference.FIGURE6_AVG_SPEEDUP),
        ("figure7", reference.FIGURE7_AVG_ENERGY),
        ("figure9", reference.FIGURE9_AVG_SPEEDUP),
        ("figure10", reference.FIGURE10_AVG_ENERGY),
    ):
        averages = payloads[figure]["averages"]
        pairs.extend(
            (averages[config], value)
            for config, value in published.items() if config in averages
        )
    return pairs


def design_pairs(designs: Mapping[str, Mapping[str, float]]
                 ) -> List[Tuple[float, float]]:
    """Model vs published for evaluated paper designs, given as
    ``{paper name: {"ghz", "speedup", "energy"}}``: Table 11 GHz and the
    Figure 6 and 7 suite averages."""
    from repro.core import reference

    pairs = []
    for name, summary in designs.items():
        for field, published in (
            ("ghz", reference.TABLE11_FREQUENCIES),
            ("speedup", reference.FIGURE6_AVG_SPEEDUP),
            ("energy", reference.FIGURE7_AVG_ENERGY),
        ):
            if name in published:
                pairs.append((summary[field], published[name]))
    return pairs


def golden_failures(payloads: Mapping[str, Any],
                    params: Mapping[str, int],
                    goldens_dir=None) -> List[str]:
    """Every artifact against its committed golden, under the golden
    tolerance policy.  ``params`` are the sizes the payloads were built
    at; a simulated artifact blessed at other sizes is a problem."""
    from repro.golden import GoldenError, compare_payloads, load_golden
    from repro.golden.artifacts import get_artifact

    problems = []
    for name, payload in payloads.items():
        try:
            envelope = load_golden(name, goldens_dir)
        except GoldenError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not get_artifact(name).static:
            blessed = {key: envelope["params"].get(key) for key in params}
            if blessed != dict(params):
                problems.append(f"{name}: golden blessed at {blessed}, "
                                f"built at {dict(params)}")
                continue
        comparison = compare_payloads(name, envelope["payload"], payload)
        problems.extend(
            f"{name}:{drift.path}: {drift.message}"
            for drift in comparison.drifts
        )
    return problems


def oracle_failures(engine, seed: int, uops: int, multicore_uops: int,
                    rng: random.Random) -> List[str]:
    """Re-simulate sampled paper specs on the scalar OOO oracle; each must
    equal the result the sweep cached, field for field."""
    from repro.design.resolve import (
        paper_multicore_configs,
        paper_single_core_configs,
    )
    from repro.engine.sweep import execute_spec, suite_specs
    from repro.workloads.parallel import parallel_profiles
    from repro.workloads.spec import spec_profiles

    single = suite_specs("single", uops, seed, paper_single_core_configs(),
                         spec_profiles())
    multi = suite_specs("multicore", multicore_uops, seed,
                        paper_multicore_configs(), parallel_profiles())
    sampled = rng.sample(single, ORACLE_SINGLE_SPECS) \
        + rng.sample(multi, ORACLE_MULTICORE_SPECS)
    problems = []
    for spec in sampled:
        label = f"{spec.mode}/{spec.profile.name}/{spec.config.name}"
        hit, cached = engine.cache.get(spec.cache_key())
        if not hit:
            problems.append(f"{label}: the sweep left no result")
        elif execute_spec(spec) != cached:
            problems.append(f"{label}: differs from the scalar oracle")
    return problems


def explore_record_failures(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Recompute committed explore records serially (fresh ``jobs=1``
    engine); each must equal the committed record exactly."""
    from repro.design.point import DesignPoint
    from repro.design.sweep import evaluate_points
    from repro.engine.sweep import ExperimentEngine
    from repro.explore.store import evaluation_record
    from repro.golden.serialize import canonical_dumps

    problems = []
    for record in records:
        point = DesignPoint.from_dict(record["point"])
        params = record["params"]
        evaluation = evaluate_points(
            [point], uops=params["uops"], seed=params["seed"],
            grid=params["grid"], apps=params["apps"],
            engine=ExperimentEngine(jobs=1),
        )[0]
        expected = evaluation_record(record["key"], point, evaluation, params)
        if canonical_dumps(expected) != canonical_dumps(record):
            problems.append(f"{record['name']}: committed record differs "
                            f"from the serial recomputation")
    return problems


def divergent_responses(served: Sequence[Dict[str, Any]],
                        engine=None) -> List[int]:
    """Indices of served responses whose identity payload differs from
    the serial reference of their request.  ``served`` holds
    ``{"endpoint", "body", "identity"}`` entries, one per distinct
    response."""
    from repro.golden.serialize import canonical_dumps
    from repro.serve import serial_reference

    return [
        index for index, entry in enumerate(served)
        if canonical_dumps(serial_reference(entry["endpoint"],
                                            dict(entry["body"]), engine))
        != canonical_dumps(entry["identity"])
    ]
