"""The repo benchmark: ``paper``, ``explore`` and ``serve`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1234 --seconds 15 --trace 0

Every workload runs in fresh processes against the shipped defaults,
with every ``REPRO_*`` variable removed and ``REPRO_TUNING_FILE``
pointing at a missing file in the run's scratch directory.  ``--trace 0``
measures the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
makes one untraced and one traced pass and reports the per-layer
metrics, with the tracing overhead as the difference of the two walls.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit, ``failed_ratio``, and the run's
environment.  The exit code is 1 when an output is wrong.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import importlib.metadata
import itertools
import json
import os
import platform
import queue
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: Set-up samples per measured run (the median is reported).
SETUP_SAMPLES = 5

#: Longest any one child process may take, in seconds.
CHILD_TIMEOUT = 150.0

#: Host-side HTTP timeout for one request, in seconds.
REQUEST_TIMEOUT = 120.0


class RunError(RuntimeError):
    """A workload process failed; the run prints no result."""


# -- child processes ----------------------------------------------------------


class Child:
    """A process of the workload, started in its own session.

    Its stdout is drained by a thread into a queue, so ``expect`` can
    wait for a line with a timeout; stderr goes to a log file.
    """

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log: Path, stdin: bool = False) -> None:
        self.log = log
        self._log_handle = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log_handle,
            start_new_session=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, pattern: str, timeout: float = CHILD_TIMEOUT
               ) -> Tuple["re.Match", float]:
        """Wait for a stdout line matching ``pattern``; return the match
        and the time it arrived."""
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            try:
                line = self._lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise RunError(f"no line matching {pattern!r} within "
                               f"{timeout:.0f}s; see {self.log}") from None
            if line is None:
                raise RunError(f"process exited before {pattern!r}:\n"
                               f"{self.tail()}")
            match = re.search(pattern, line)
            if match:
                return match, time.perf_counter()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float = CHILD_TIMEOUT) -> None:
        """Wait for a clean exit; a non-zero exit is a :class:`RunError`."""
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RunError(f"timed out after {timeout:.0f}s; "
                           f"see {self.log}") from None
        self._reader.join(timeout=10)
        self._log_handle.close()
        if code != 0:
            raise RunError(f"exited with {code}:\n{self.tail()}")

    def stop(self) -> None:
        """Kill the whole session (workers included) and reap it."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        self._reader.join(timeout=10)
        if not self._log_handle.closed:
            self._log_handle.close()

    def tail(self, lines: int = 30) -> str:
        if not self._log_handle.closed:
            self._log_handle.flush()
        text = self.log.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])


class Run:
    """One benchmark invocation: arguments, scratch space, children."""

    def __init__(self, args: argparse.Namespace, tmp: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.tmp = tmp
        self.children: List[Child] = []
        self._serial = itertools.count()
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env["REPRO_TUNING_FILE"] = str(tmp / "no-tuning" /
                                            "kernel_tuning.json")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(tmp)

    def scratch(self, label: str) -> Path:
        path = self.tmp / f"{next(self._serial):02d}-{label}"
        path.mkdir()
        return path

    def spawn(self, argv: Sequence[str], label: str,
              stdin: bool = False) -> Child:
        child = Child(argv, self.env, self.tmp / f"{label}.log", stdin=stdin)
        self.children.append(child)
        return child

    def worker(self, mode: str, scratch: Path, *extra: str,
               stdin: bool = False) -> Child:
        argv = [sys.executable, str(HERE / "worker.py"), mode,
                "--seed", str(self.seed), "--seconds", str(self.seconds),
                "--tmp", str(scratch), "--out", str(scratch / "result.json"),
                *extra]
        return self.spawn(argv, scratch.name, stdin=stdin)

    def stop_all(self) -> None:
        for child in self.children:
            child.stop()


def result_of(scratch: Path) -> Dict[str, Any]:
    return json.loads((scratch / "result.json").read_text())


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped child (or of this process)."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak_kb / 1024.0


# -- paper and explore --------------------------------------------------------


def worker_pass(run: Run, trace: bool) -> Tuple[Dict[str, Any], float]:
    """One workload process; returns its result and its set-up time."""
    scratch = run.scratch(f"{run.workload}-trace{int(trace)}")
    child = run.worker(run.workload, scratch, "--trace", str(int(trace)))
    _, at = child.expect(r"^perfbench-ready$")
    child.finish()
    return result_of(scratch), at - child.started


def setup_probe(run: Run) -> float:
    scratch = run.scratch(f"{run.workload}-setup")
    child = run.worker(run.workload, scratch, "--setup-only")
    _, at = child.expect(r"^perfbench-ready$")
    child.finish()
    return at - child.started


def measure_worker_workload(run: Run) -> Dict[str, Any]:
    """The ``paper`` and ``explore`` workloads: one request each, the
    whole run."""
    if run.trace:
        untraced, _ = worker_pass(run, trace=False)
        traced, _ = worker_pass(run, trace=True)
        return {
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "problems": untraced["problems"] + traced["problems"],
            "knobs": traced["knobs"],
            "layers": {**traced["layers"], **serve_layers([]),
                       **overhead(untraced["wall_s"], traced["wall_s"])},
        }
    setups = [setup_probe(run) for _ in range(SETUP_SAMPLES - 1)]
    result, setup = worker_pass(run, trace=False)
    wall = result["wall_s"]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "knobs": result["knobs"],
        "setups": setups + [setup],
        "wall_s": wall,
        "sim_uops": result["sim_uops"],
        "points": result["points"],
        "latencies_ms": [wall * 1000.0],
        "peak_rss_mb": result["peak_rss_mb"],
        "model_err_pct": result["model_err_pct"],
    }


def overhead(untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """The traced wall and what tracing added to the untraced one."""
    return {"traced_wall_s": traced_wall,
            "trace_overhead_s": traced_wall - untraced_wall}


# -- serve --------------------------------------------------------------------


def post(port: int, endpoint: str, body: Dict[str, Any]
         ) -> Tuple[Optional[int], Any]:
    """One closed-loop request; ``(None, error)`` when the connection
    fails."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT)
    try:
        conn.request("POST", endpoint, body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def healthy(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


def closed_loop(port: int, requests: Sequence[Tuple[str, Dict[str, Any]]],
                connections: int) -> Tuple[List[tuple], float]:
    """Send ``requests`` in order over ``connections`` closed-loop
    clients; each sends its next request only after its reply.  Returns
    ``[(latency_s, status, payload)]`` in request order and the wall."""
    results: List[Optional[tuple]] = [None] * len(requests)
    lock = threading.Lock()
    counter = itertools.count()

    def client() -> None:
        while True:
            with lock:
                index = next(counter)
            if index >= len(requests):
                return
            endpoint, body = requests[index]
            start = time.perf_counter()
            status, payload = post(port, endpoint, body)
            results[index] = (time.perf_counter() - start, status, payload)

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RunError("serve load generator did not finish")
    return results, wall


@dataclasses.dataclass
class Server:
    child: Child
    port: int
    setup_s: float  # process start to the first healthy /healthz
    scratch: Path


def start_server(run: Run, traced: bool) -> Server:
    """Start the server process; return it once ``/healthz`` answers."""
    scratch = run.scratch("serve-host" if traced else "serve")
    if traced:
        child = run.worker("serve-host", scratch, stdin=True)
    else:
        child = run.spawn([sys.executable, "-m", "repro",
                           "--cache-dir", str(scratch / "cache"),
                           "serve", "--port", "0"], scratch.name)
    match, _ = child.expect(r"serving on http://[^:]+:(\d+)")
    port = int(match.group(1))
    deadline = time.perf_counter() + CHILD_TIMEOUT
    while not healthy(port):
        if time.perf_counter() > deadline or child.proc.poll() is not None:
            raise RunError(f"server never became healthy:\n{child.tail()}")
        time.sleep(0.01)
    return Server(child, port, time.perf_counter() - child.started, scratch)


def shutdown_server(server: Server) -> None:
    status, payload = post(server.port, "/shutdown", {})
    if status != 200:
        raise RunError(f"/shutdown answered {status}: {payload}")
    server.child.finish()


def serve_pass(run: Run, requests, traced: bool) -> Dict[str, Any]:
    server = start_server(run, traced)
    status, payload = post(server.port, "/sweep", inputs.hot_request())
    if status != 200:
        raise RunError(f"warm-up request answered {status}: {payload}")
    if traced:
        server.child.send("start")
        server.child.expect(r"^perfbench-start$")
    results, wall = closed_loop(server.port, requests,
                                inputs.SERVE_CONNECTIONS)
    if traced:
        server.child.send("stop")
        server.child.expect(r"^perfbench-stop$")
    shutdown_server(server)
    return {"results": results, "wall_s": wall, "setup_s": server.setup_s,
            "scratch": server.scratch}


def serve_layers(results: Sequence[tuple]) -> Dict[str, float]:
    """Queue wait and service time from each response manifest; the rest
    of each client-observed latency is transport."""
    wait = service = transport = 0.0
    for latency, status, payload in results:
        if status != 200:
            continue
        serve = payload["manifest"]["serve"]
        wait += serve["wait_seconds"]
        service += serve["service_seconds"]
        transport += latency - serve["wait_seconds"] - serve["service_seconds"]
    return {"serve.wait_s": wait, "serve.service_s": service,
            "serve.transport_s": transport}


def identity(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {key: payload[key] for key in ("endpoint", "request", "results")}


def check_served(run: Run, requests, passes: Sequence[Dict[str, Any]]
                 ) -> Dict[str, Any]:
    """Check every distinct response against the serial path, in a fresh
    process; count every response that is refused or wrong."""
    distinct: Dict[str, Dict[str, Any]] = {}
    owners: Dict[str, int] = {}
    failed = 0
    for serve in passes:
        for (endpoint, body), (_, status, payload) in \
                zip(requests, serve["results"]):
            if status != 200:
                failed += 1
                continue
            key = json.dumps(identity(payload), sort_keys=True)
            distinct.setdefault(key, {"endpoint": endpoint, "body": body,
                                      "identity": identity(payload)})
            owners[key] = owners.get(key, 0) + 1
    entries = list(distinct.values())
    model_err_pct = None
    # Two checkers in parallel, each on its own share of the responses.
    shares = []
    for part in range(2):
        scratch = run.scratch("serve-check")
        served = scratch / "served.json"
        served.write_text(json.dumps(entries[part::2]))
        shares.append((scratch, run.worker("serve-check", scratch,
                                           "--served", str(served))))
    divergent = []
    for part, (scratch, child) in enumerate(shares):
        child.finish()
        check = result_of(scratch)
        divergent += [part + 2 * index for index in check["divergent"]]
        if check["model_err_pct"] is not None:
            model_err_pct = check["model_err_pct"]
    if model_err_pct is None:
        raise RunError("no hot /sweep response to compare with the paper")
    keys = list(distinct)
    problems = [f"{run.workload}: non-200 or failed requests: {failed}"] \
        if failed else []
    for index in sorted(divergent):
        failed += owners[keys[index]]
        problems.append(f"{entries[index]['endpoint']} "
                        f"{json.dumps(entries[index]['body'])[:120]}: "
                        f"differs from the serial reference")
    return {"failed": failed, "problems": problems,
            "model_err_pct": model_err_pct, "knobs": check["knobs"]}


def served_work(results: Sequence[tuple]) -> Tuple[int, int]:
    """Simulated micro-ops and freshly simulated design points, from the
    response manifests (cache hits count zero)."""
    uops = points = 0
    for _, status, payload in results:
        if status != 200:
            continue
        fresh = [spec for spec in payload["manifest"]["specs"]
                 if not spec["cached"]]
        uops += sum(spec["uops"] for spec in fresh)
        points += len({spec["config"] for spec in fresh})
    return uops, points


def measure_serve(run: Run) -> Dict[str, Any]:
    requests = inputs.serve_requests(run.seed, run.seconds)
    if run.trace:
        untraced = serve_pass(run, requests, traced=False)
        traced = serve_pass(run, requests, traced=True)
        check = check_served(run, requests, [untraced, traced])
        return {
            "attempted": 2 * len(requests),
            "failed": check["failed"],
            "problems": check["problems"],
            "knobs": check["knobs"],
            "layers": {**result_of(traced["scratch"])["layers"],
                       **serve_layers(traced["results"]),
                       **overhead(untraced["wall_s"], traced["wall_s"])},
        }
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server = start_server(run, traced=False)
        shutdown_server(server)
        setups.append(server.setup_s)
    serve = serve_pass(run, requests, traced=False)
    rss = children_peak_rss_mb()
    check = check_served(run, requests, [serve])
    uops, points = served_work(serve["results"])
    return {
        "attempted": len(requests),
        "failed": check["failed"],
        "problems": check["problems"],
        "knobs": check["knobs"],
        "setups": setups + [serve["setup_s"]],
        "wall_s": serve["wall_s"],
        "sim_uops": uops,
        "points": points,
        "latencies_ms": [latency * 1000.0
                         for latency, _, _ in serve["results"]],
        "peak_rss_mb": rss,
        "model_err_pct": check["model_err_pct"],
    }


WORKLOADS = {
    "paper": measure_worker_workload,
    "explore": measure_worker_workload,
    "serve": measure_serve,
}


# -- metrics ------------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    """Linear-interpolated percentile (one sample is its own)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    wall = raw["wall_s"]
    latencies = raw["latencies_ms"]
    return {
        "setup_s": statistics.median(raw["setups"]),
        "wall_s": wall,
        "sim_uops_per_s": raw["sim_uops"] / wall,
        "points_per_s": raw["points"] / wall,
        "req_per_s": len(latencies) / wall,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "peak_rss_mb": raw["peak_rss_mb"],
        "model_err_pct": raw["model_err_pct"],
    }


def declared(section: str) -> List[Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[section]


def report(run: Run, raw: Dict[str, Any], loadavg: float) -> bool:
    """Print every metric with its unit, the environment, and the JSON
    result line; return whether the outputs were correct."""
    section = "per_layer" if run.trace else "end_to_end"
    values = raw["layers"] if run.trace else end_to_end(raw)
    metrics = {}
    for metric in declared(section):
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and not raw["problems"]
    print(f"perfbench {run.workload} seed={run.seed} "
          f"seconds={run.seconds} trace={int(run.trace)}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not run.trace:
        print(f"  {'(latency samples)':<40} {len(raw['latencies_ms']):>16d}"
              f" count")
    print(f"  {'failed_ratio':<40} {failed / attempted:>16.6g} "
          f"({failed}/{attempted})")
    for problem in raw["problems"][:20]:
        print(f"  WRONG: {problem}")
    print("env " + json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_1m_at_start": loadavg,
        **raw["knobs"],
    }, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    loadavg = os.getloadavg()[0]
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=scratch_root))
    run = Run(args, tmp)
    try:
        raw = WORKLOADS[args.workload](run)
    except RunError as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if report(run, raw, loadavg) else 1


if __name__ == "__main__":
    sys.exit(main())
