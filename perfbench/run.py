"""The repository's benchmark: the distributed string sorters, end to end.

Run from the root of the repository::

    python3 perfbench/run.py --workload cc-merge --seed 1 --seconds 25 --trace 0

A run generates the workload's input from ``--seed`` (untimed), then sorts
it with every algorithm of :data:`workloads.ALGORITHMS` through
``repro.session.Cluster.sort``, one round after another, until ``--seconds``
have passed.  Every sort is checked outside its timer (``verify.py``).

``--trace 0`` reports the end-to-end metrics, with tracing off, plus the
cold set-up time measured in fresh interpreters (``setup_probe.py``).
``--trace 1`` alternates untraced rounds with traced ones, whose spans are
recorded by wrappers around each layer (``spans.py``) and by
``Cluster(trace=True)``, and reports the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  The
lines before it are for people.  ``--out PATH`` also writes the full results
(provenance, samples, failures) to PATH; without it the run writes nothing
but the spans of forked ranks, to a temporary directory it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import (
    ALGORITHMS, ROOT, SETUP_STRINGS, WORKLOADS, import_repro, stop_helper_processes,
)

HERE = Path(__file__).resolve().parent

#: cold set-ups timed per ``--trace 0`` run; ``setup_s`` is their median
SETUP_PROBES = 7


def _metric_stem(algorithm: str) -> str:
    return algorithm.replace("-", "_")


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, generate_s: float) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_generation_s": generate_s,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }


# ---------------------------------------------------------------------------
# timed sorts
# ---------------------------------------------------------------------------

class Sorts:
    """Every timed sort of a run: its time, result figures and check."""

    def __init__(self):
        self.seconds: Dict[str, List[float]] = defaultdict(list)
        self.wire_bytes_per_string: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, cluster, data, algorithm: str, reference, scope=nullcontext):
        """Time one sort (inside ``scope()``); returns its result or ``None``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with scope():
                result = cluster.sort(data, algorithm=algorithm)
        except Exception as exc:  # a failed sort is counted, the run goes on
            self.failures.append(f"{algorithm}: raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        problem = reference.check(result)
        if problem is not None:
            self.failures.append(f"{algorithm}: {problem}")
            return None
        self.seconds[algorithm].append(elapsed)
        self.wire_bytes_per_string[algorithm].append(
            result.report.origin_bytes_sent / result.num_strings
        )
        return result


def _warm_up(cluster, data) -> None:
    """One untimed round: the first sorts of a process run slower, because
    they grow the allocator's arenas and fault in pages that later sorts
    reuse."""
    for algorithm in ALGORITHMS:
        cluster.sort(data, algorithm=algorithm)


def time_setups(workload_name: str, warmup: List[bytes]) -> List[float]:
    """Cold set-up seconds, each in a fresh interpreter (``setup_probe.py``)."""
    job = json.dumps({
        "workload": workload_name,
        "algorithm": "ms",
        "strings": [s.decode("latin-1") for s in warmup],
    })
    seconds = []
    for _ in range(SETUP_PROBES):
        # its own process group, so a probe that overruns goes down together
        # with every process it started
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = probe.communicate(job, timeout=150)
        finally:
            if probe.poll() is None:
                os.killpg(probe.pid, signal.SIGKILL)
                probe.wait()
        if probe.returncode != 0:
            raise subprocess.CalledProcessError(probe.returncode, probe.args, out)
        seconds.append(float(out.split()[-1]))
    return seconds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the peak of its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def measure_end_to_end(args, workload, data, reference) -> Tuple[Dict, Sorts]:
    from repro.session import Cluster

    setups = time_setups(workload.name, data[:SETUP_STRINGS])
    sorts = Sorts()
    with Cluster(trace=False, **workload.cluster) as cluster:
        _warm_up(cluster, data)
        deadline = time.perf_counter() + args.seconds
        while not sorts.attempted or time.perf_counter() < deadline:
            for algorithm in ALGORITHMS:
                sorts.run(cluster, data, algorithm, reference)

    timed = [t for ts in sorts.seconds.values() for t in ts]
    metrics: Dict[str, Tuple[Optional[float], str, int]] = {
        "setup_s": (_median(setups), "s", len(setups)),
        "strings_per_s": (
            len(data) * len(timed) / sum(timed) if timed else None,
            "strings/s", len(timed),
        ),
    }
    for algorithm in ALGORITHMS:
        samples = sorts.seconds[algorithm]
        metrics[f"{_metric_stem(algorithm)}_sort_s"] = (_median(samples), "s", len(samples))
    for algorithm in ("ms", "pdms"):
        samples = sorts.wire_bytes_per_string[algorithm]
        metrics[f"{algorithm}_wire_bytes_per_string"] = (_median(samples), "B", len(samples))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB", 1)
    return metrics, sorts


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def sort_figures(spans, result, sort_wall: float) -> Dict[str, float]:
    """Additive figures of one traced sort, from its spans and its report."""
    from spans import RANK

    f: Dict[str, float] = defaultdict(float)
    f["sorts"] = 1
    f["sort_wall"] = sort_wall
    for span in spans:
        layer = span["layer"]
        f[f"{layer}.busy"] += span["self_busy"]
        f[f"{layer}.wait"] += span["self_wall"] - span["self_busy"]
        f[f"{layer}.wall"] += span["wall"]
        f[f"{layer}.calls"] += 1
        f[f"{layer}.minflt"] += span["minflt"]
        f[f"{layer}.chars"] += span.get("chars", 0)
        f[f"{layer}.comparisons"] += span.get("comparisons", 0)
        if layer == RANK:
            f["rank.total_busy"] += span["busy"]
            f["rank.max_wall"] = max(f["rank.max_wall"], span["wall"])
    report = result.report
    f["barrier_wait"] = sum(report.barrier_wait_seconds.values())
    f["transported_bytes"] = report.transported_bytes
    f["total_bytes"] = report.total_bytes_sent
    f["exchange_bytes"] = report.phase_bytes.get("exchange", 0)
    f["prefix_doubling_bytes"] = report.phase_bytes.get("prefix-doubling", 0)
    f["forwarded_bytes"] = report.forwarded_bytes
    f["overlap_fraction"] = report.overlap_fraction("exchange")
    f["messages_max_per_pe"] = max(report.messages_per_pe, default=0)
    f["doubling_rounds"] = result.extra.get("doubling_rounds", 0)
    f["fingerprints_sent"] = result.extra.get("fingerprints_sent", 0)
    for phase, seconds in report.timeline.stage_seconds().items():
        f[f"phase.{phase}"] += seconds
    return f


def _layer(name: str, figure: str) -> Callable[[Dict[str, float]], float]:
    return lambda r: r[f"{name}.{figure}"]


#: (metric, unit, better, value from one traced round's summed figures)
PER_LAYER: List[Tuple[str, str, str, Callable[[Dict[str, float]], float]]] = [
    ("session.distribute.busy_s", "s", "lower", _layer("session.distribute", "busy")),
    ("session.assemble_s", "s", "lower", lambda r: r["session.sort.wall"]
        - r["session.distribute.wall"] - r["mpi.engine_run.wall"]),
    ("mpi.launch_overhead_s", "s", "lower",
        lambda r: r["mpi.engine_run.wall"] - r["rank.max_wall"]),
    ("mpi.barrier_wait_s", "s", "lower", lambda r: r["barrier_wait"]),
    ("mpi.shm.dumps_s", "s", "lower", _layer("mpi.shm.dumps", "busy")),
    ("mpi.shm.loads_s", "s", "lower", _layer("mpi.shm.loads", "busy")),
    ("mpi.shm.calls", "count", "lower",
        lambda r: r["mpi.shm.dumps.calls"] + r["mpi.shm.loads.calls"]),
    ("mpi.transported_bytes", "B", "lower", lambda r: r["transported_bytes"]),
    ("mpi.transport_amplification", "ratio", "lower",
        lambda r: r["transported_bytes"] / r["total_bytes"]),
    ("sequential.local_sort.busy_s", "s", "lower", _layer("sequential.local_sort", "busy")),
    ("sequential.local_sort.wait_s", "s", "lower", _layer("sequential.local_sort", "wait")),
    ("sequential.local_sort.chars_inspected", "count", "lower",
        _layer("sequential.local_sort", "chars")),
    ("sequential.local_sort.minflt", "count", "lower", _layer("sequential.local_sort", "minflt")),
    ("sequential.lcp_merge.busy_s", "s", "lower", _layer("sequential.lcp_merge", "busy")),
    ("sequential.lcp_merge.wait_s", "s", "lower", _layer("sequential.lcp_merge", "wait")),
    ("sequential.lcp_merge.chars_inspected", "count", "lower",
        _layer("sequential.lcp_merge", "chars")),
    ("sequential.lcp_merge.comparisons", "count", "lower",
        _layer("sequential.lcp_merge", "comparisons")),
    ("sequential.lcp_merge.minflt", "count", "lower", _layer("sequential.lcp_merge", "minflt")),
    ("sequential.merge.busy_s", "s", "lower", _layer("sequential.merge", "busy")),
    ("sequential.merge.chars_inspected", "count", "lower", _layer("sequential.merge", "chars")),
    ("dist.splitters.busy_s", "s", "lower", _layer("dist.splitters", "busy")),
    ("dist.partition.busy_s", "s", "lower", _layer("dist.partition", "busy")),
    ("dist.exchange.busy_s", "s", "lower", _layer("dist.exchange", "busy")),
    ("dist.exchange.wait_s", "s", "lower", _layer("dist.exchange", "wait")),
    ("dist.exchange.encode_s", "s", "lower", _layer("dist.exchange.encode", "busy")),
    ("dist.exchange.decode_s", "s", "lower", _layer("dist.exchange.decode", "busy")),
    ("dist.prefix_doubling.busy_s", "s", "lower", _layer("dist.prefix_doubling", "busy")),
    ("dist.prefix_doubling.wait_s", "s", "lower", _layer("dist.prefix_doubling", "wait")),
    ("dist.prefix_doubling.rounds", "count", "lower", lambda r: r["doubling_rounds"]),
    ("dist.prefix_doubling.fingerprints_sent", "count", "lower",
        lambda r: r["fingerprints_sent"]),
    ("dist.golomb.busy_s", "s", "lower", _layer("dist.golomb", "busy")),
    ("dist.hquick.busy_s", "s", "lower", _layer("dist.hquick", "busy")),
    ("dist.hquick.wait_s", "s", "lower", _layer("dist.hquick", "wait")),
    ("strings.lcp.busy_s", "s", "lower", _layer("strings.lcp", "busy")),
    ("strings.materialize.busy_s", "s", "lower", _layer("strings.materialize", "busy")),
    ("net.exchange_bytes", "B", "lower", lambda r: r["exchange_bytes"]),
    ("net.prefix_doubling_bytes", "B", "lower", lambda r: r["prefix_doubling_bytes"]),
    ("net.forwarded_bytes", "B", "lower", lambda r: r["forwarded_bytes"]),
    ("net.overlap_fraction", "ratio", "higher", lambda r: r["overlap_fraction"] / r["sorts"]),
    ("net.messages_max_per_pe", "count", "lower", lambda r: r["messages_max_per_pe"]),
    ("faults.seal.busy_s", "s", "lower", _layer("faults.seal", "busy")),
    ("rank.busy_s", "s", "lower", lambda r: r["rank.total_busy"]),
    ("rank.unattributed_busy_s", "s", "lower", _layer("rank", "busy")),
    ("obs.trace_overhead_ratio", "ratio", "lower",
        lambda r: r["sort_wall"] / r["untraced_wall"] - 1.0),
] + [
    (f"obs.phase.{phase}_s", "s", "lower", _layer("phase", phase))
    for phase in ("local-sort", "exchange", "merge", "prefix-doubling")
]

#: per-algorithm metrics, from the medians over that algorithm's sorts
PER_ALGORITHM = [
    ("rank.busy_s.{}", "s", "lower"),
    ("obs.trace_overhead_ratio.{}", "ratio", "lower"),
]
MS_LCP_MERGE_SHARE = "sequential.lcp_merge.ms_busy_share"
MS_TRANSPORTED = "mpi.ms_transported_bytes_per_string"


#: layers whose spans run in the calling thread, outside every rank program
SESSION_LAYERS = ("session.sort", "session.distribute", "mpi.engine_run")


def busy_shares(figures: List[Dict[str, float]]) -> Dict[str, float]:
    """Median share of rank busy time per layer, over one algorithm's sorts."""
    layers = sorted(
        {k[: -len(".busy")] for f in figures for k in f if k.endswith(".busy")}
        - set(SESSION_LAYERS)
    )
    shares = {}
    for layer in layers:
        values = [f[f"{layer}.busy"] / f["rank.total_busy"] for f in figures if f["rank.total_busy"]]
        shares["unattributed" if layer == "rank" else layer] = _median(values) or 0.0
    return shares


def measure_layers(args, workload, data, reference):
    from repro.session import Cluster
    from spans import SpanRecorder, install, traced_cluster

    untraced, traced_sorts = Sorts(), Sorts()
    per_algorithm: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    rounds: List[Dict[str, float]] = []
    transported: List[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as spill:
        recorder = SpanRecorder(spill)
        with Cluster(trace=False, **workload.cluster) as plain, traced_cluster(
            recorder, **workload.cluster
        ) as traced:
            _warm_up(plain, data)
            install(recorder)
            try:
                _warm_up(traced, data)
            finally:
                recorder.restore()
            recorder.drain()

            deadline = time.perf_counter() + args.seconds
            while not rounds or time.perf_counter() < deadline:
                round_sum: Dict[str, float] = defaultdict(float)
                for algorithm in ALGORITHMS:
                    if untraced.run(plain, data, algorithm, reference) is not None:
                        round_sum["untraced_wall"] += untraced.seconds[algorithm][-1]
                install(recorder)
                try:
                    for algorithm in ALGORITHMS:
                        result = traced_sorts.run(
                            traced, data, algorithm, reference,
                            scope=lambda: recorder.span("session.sort"),
                        )
                        spans = recorder.drain()
                        if result is None:
                            continue
                        figures = sort_figures(
                            spans, result, traced_sorts.seconds[algorithm][-1]
                        )
                        per_algorithm[algorithm].append(figures)
                        if algorithm == "ms":
                            transported.append(result.report.transported_bytes / len(data))
                        for key, value in figures.items():
                            round_sum[key] += value
                finally:
                    recorder.restore()
                rounds.append(round_sum)

    metrics: Dict[str, Tuple[Optional[float], str, int]] = {}
    for name, unit, _, value in PER_LAYER:
        samples = [value(r) for r in rounds if r["sorts"]]
        metrics[name] = (_median(samples), unit, len(samples))
    shares = {a: busy_shares(per_algorithm[a]) for a in ALGORITHMS}
    for algorithm in ALGORITHMS:
        figures = per_algorithm[algorithm]
        busy = [f["rank.total_busy"] for f in figures]
        metrics[f"rank.busy_s.{algorithm}"] = (_median(busy), "s", len(busy))
        traced_walls = traced_sorts.seconds[algorithm]
        untraced_walls = untraced.seconds[algorithm]
        overhead = None
        if traced_walls and untraced_walls:
            overhead = _median(traced_walls) / _median(untraced_walls) - 1.0
        metrics[f"obs.trace_overhead_ratio.{algorithm}"] = (overhead, "ratio", len(traced_walls))
    metrics[MS_LCP_MERGE_SHARE] = (
        shares["ms"].get("sequential.lcp_merge"), "ratio", len(per_algorithm["ms"])
    )
    metrics[MS_TRANSPORTED] = (_median(transported), "B", len(transported))
    untraced.attempted += traced_sorts.attempted
    untraced.failures += traced_sorts.failures
    return metrics, untraced, shares


def per_layer_spec() -> List[Dict[str, str]]:
    """The ``per_layer`` entries of BENCHMARK.json, in report order."""
    spec = [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]
    for pattern, unit, better in PER_ALGORITHM:
        spec += [{"name": pattern.format(a), "unit": unit, "better": better} for a in ALGORITHMS]
    spec.append({"name": MS_LCP_MERGE_SHARE, "unit": "ratio", "better": "lower"})
    spec.append({"name": MS_TRANSPORTED, "unit": "B", "better": "lower"})
    return spec


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; see NOTES.md for the held-out seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting rounds of sorts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full results here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_helper_processes()


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    import_repro()
    from verify import Reference

    start = time.perf_counter()
    data = workload.generate(args.seed)
    generate_s = time.perf_counter() - start
    reference = Reference(data)
    info = provenance(args, generate_s)
    print(json.dumps({"provenance": info}))

    shares = None
    if args.trace:
        metrics, sorts, shares = measure_layers(args, workload, data, reference)
    else:
        metrics, sorts = measure_end_to_end(args, workload, data, reference)

    failed = len(sorts.failures)
    for problem in sorts.failures:
        print(f"FAILED {problem}")
    print(f"failed_sort_ratio = {failed / sorts.attempted:.4g} ratio "
          f"({failed} of {sorts.attempted} sorts)")
    for name, (value, unit, count) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit} (n={count})")
    if shares:
        for algorithm, layers in shares.items():
            top = sorted(layers.items(), key=lambda kv: -kv[1])
            print(f"{algorithm} rank busy shares: "
                  + ", ".join(f"{layer} {share:.1%}" for layer, share in top if share >= 0.005))

    if args.out is not None:
        args.out.write_text(json.dumps({
            "provenance": info,
            "attempted": sorts.attempted,
            "failures": sorts.failures,
            "metrics": {n: {"value": v, "unit": u, "samples": c}
                        for n, (v, u, c) in metrics.items()},
            "sort_seconds": sorts.seconds,
            "rank_busy_shares": shares,
        }, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v, _, _ in metrics.values()),
        "attempted": sorts.attempted,
        "failed": failed,
        "metrics": {
            n: {"value": None if v is None else float(v), "unit": u}
            for n, (v, u, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
