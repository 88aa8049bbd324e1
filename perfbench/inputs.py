"""Workload inputs, made from the benchmark's ``--seed`` alone.

Pure Python with no import of the program, so the load generator can
build the serve request sequence without loading the model stack.  The
same ``(seed, seconds)`` always gives the same inputs; different seeds
give different explore samples, serve request orders and serve points,
and paper traces.

``--seconds`` sizes the work, not the clock: each workload is sized to
take about that long on a 2-CPU reference host, and the work (not a
timer) ends the run, so ``wall_s`` compares equal work across commits.
The paper workload is always one full reproduction.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, Dict, List, Tuple

#: The seed the committed ``goldens/`` were blessed at.
GOLDEN_SEED = 1234

#: Paper workload sizes: the golden build parameters.
PAPER_UOPS = 8000
PAPER_MULTICORE_UOPS = 24000
PAPER_GRID = 12

#: Explore workload: few apps and short traces, so traces are shared
#: across points and partition planning plus timing dominate.
EXPLORE_UOPS = 1000
EXPLORE_APPS = 2
EXPLORE_JOBS = 2
EXPLORE_POINTS_PER_SECOND = 30

#: The seven axes the explore points are drawn from.  Ten slowdowns give
#: 40 distinct partition plans, which a run of a few hundred samples
#: nearly always covers, so planning work hardly depends on the seed.
#: ``issue_width`` starts at the default dispatch width (4): a narrower
#: issue stage is not modelled.
AXES: Dict[str, Tuple[Any, ...]] = {
    "stack": ("2D", "M3D", "TSV3D"),
    "top_layer_slowdown": (0.0, 0.05, 0.1, 0.15, 0.17, 0.2, 0.25, 0.3,
                           0.4, 0.5),
    "partition": ("symmetric", "asymmetric"),
    "frequency_policy": ("base", "derived", "derived-naive"),
    "vdd": (0.8, 0.9, 1.0, 1.1),
    "issue_width": (4, 6, 8, 10),
    "commit_width": (2, 4, 6, 8),
}

#: A 2D stack has no layers to derive a 3D clock from.
CONSTRAINTS = ("stack != '2D' or frequency_policy == 'base'",)

#: The cartesian anchor space every explore run starts with: it holds the
#: paper's M3D-Iso (slowdown 0, symmetric) and M3D-Het (slowdown 0.17,
#: asymmetric) designs, so explore output has published counterparts.
ANCHOR_SPACE: Dict[str, Any] = {
    "name": "perfbench-anchor",
    "kind": "cartesian",
    "base": {"stack": "M3D", "frequency_policy": "derived"},
    "axes": {"top_layer_slowdown": [0.0, 0.17],
             "partition": ["symmetric", "asymmetric"]},
}

#: Paper designs among the anchors, by their physical fields.
ANCHOR_DESIGNS = {
    "M3D-Iso": {"top_layer_slowdown": 0.0, "partition": "symmetric"},
    "M3D-Het": {"top_layer_slowdown": 0.17, "partition": "asymmetric"},
}

#: Serve workload: the hot request and the size every request shares,
#: so a unique point's Base reference runs are cache hits and only the
#: new point simulates.
SERVE_UOPS = 1500
SERVE_HOT_POINTS = ("Base", "TSV3D", "M3D-Het")
SERVE_REQUESTS_PER_SECOND = 5
SERVE_HOT_PER_UNIQUE = 6
SERVE_CONNECTIONS = 2


def derive(seed: int, purpose: str) -> int:
    """An independent 63-bit seed for one purpose of one run seed."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def paper_seed(seed: int) -> int:
    """The trace seed of the paper figures: the run seed itself, so the
    golden seed reproduces the committed goldens."""
    return seed


def explore_space(seed: int, seconds: int) -> Dict[str, Any]:
    """The seeded random ``SpaceSpec`` (as a dict) of the explore run."""
    return {
        "name": "perfbench-explore",
        "kind": "random",
        "samples": max(1, EXPLORE_POINTS_PER_SECOND * seconds),
        "seed": derive(seed, "explore"),
        "axes": {field: list(values) for field, values in AXES.items()},
        "constraints": list(CONSTRAINTS),
    }


#: The partition plans the hot request's designs already need (M3D-Het).
HOT_PLANS = (("M3D", 0.17, "asymmetric"),)

#: ``(stack, top_layer_slowdown, partition)``: what a derived clock's
#: partition plan depends on.  Each unique serve point takes its own
#: (15 plans, one per unique request of a 20-second run), so every
#: unique request pays one fresh plan and the slow mode of the latency
#: distribution costs the same work whatever the seed.
PLANS = tuple(
    (stack, slowdown, partition)
    for stack in ("M3D", "TSV3D")
    for slowdown in (0.0, 0.17, 0.3, 0.5)
    for partition in AXES["partition"]
    if (stack, slowdown, partition) not in HOT_PLANS
)


def serve_points(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` design points for ``/points``, each with a derived clock.

    The seed orders the plans (cycling when ``count`` exceeds them) and
    draws the voltage and widths.
    """
    rng = random.Random(derive(seed, "serve-points"))
    plans = rng.sample(PLANS, len(PLANS))
    points = []
    for index in range(count):
        stack, slowdown, partition = plans[index % len(plans)]
        points.append({
            "name": f"perfbench-serve-{index}",
            "stack": stack,
            "top_layer_slowdown": slowdown,
            "partition": partition,
            "frequency_policy": "derived",
            "vdd": rng.choice(AXES["vdd"]),
            "issue_width": rng.choice(AXES["issue_width"]),
            "commit_width": rng.choice(AXES["commit_width"]),
        })
    return points


def serve_requests(seed: int, seconds: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The serve request sequence: ``(endpoint, body)`` in send order.

    Each block of ``SERVE_HOT_PER_UNIQUE + 1`` requests holds one unique
    ``/points`` request; the rest repeat one hot ``/sweep``.  The counts
    are fixed by ``seconds``; the seed picks the unique points and their
    places in the blocks.
    """
    block = SERVE_HOT_PER_UNIQUE + 1
    blocks = max(1, math.ceil(SERVE_REQUESTS_PER_SECOND * seconds / block))
    rng = random.Random(derive(seed, "serve-order"))
    points = serve_points(seed, blocks)
    requests: List[Tuple[str, Dict[str, Any]]] = []
    for point in points:
        unique_at = rng.randrange(block)
        for index in range(block):
            requests.append(
                ("/points", {"points": [point], "uops": SERVE_UOPS})
                if index == unique_at else ("/sweep", hot_request()))
    return requests


def hot_request() -> Dict[str, Any]:
    """The one hot ``/sweep`` body every hot request repeats."""
    return {"points": list(SERVE_HOT_POINTS), "uops": SERVE_UOPS}
