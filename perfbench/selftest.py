"""Self-test of the benchmark: tracing changes nothing, and is undone.

Run from the root of the repository::

    python3 perfbench/selftest.py

On seed 1, for every workload and algorithm, one untraced sort and one
traced sort (layer wrappers installed, ``Cluster(trace=True)``, wrapped rank
runners) must give bit-identical outputs, LCP arrays, origins and origin wire bytes,
and the untraced output must pass ``verify.py``.  After each traced sort
every wrapped attribute must be the original object again.  Also checks
that BENCHMARK.json lists exactly the metrics ``run.py`` reports.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from typing import List

from workloads import ALGORITHMS, ROOT, WORKLOADS, import_repro, stop_helper_processes


def _lcps(result) -> List[List[int]]:
    return [None if h is None else [int(x) for x in h] for h in result.lcps_per_pe]


def compare(plain, traced) -> List[str]:
    problems = []
    if plain.outputs_per_pe != traced.outputs_per_pe:
        problems.append("outputs differ")
    if _lcps(plain) != _lcps(traced):
        problems.append("LCP arrays differ")
    if plain.origins_per_pe != traced.origins_per_pe:
        problems.append("origins differ")
    if plain.report.origin_bytes_sent != traced.report.origin_bytes_sent:
        problems.append("origin wire bytes differ")
    return problems


def check_benchmark_json() -> List[str]:
    from run import per_layer_spec

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if spec["per_layer"] != per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from run.py's per-layer metrics")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def selftest_workload(name: str, seed: int) -> List[str]:
    from repro.session import Cluster
    from spans import SpanRecorder, install, traced_cluster
    from verify import Reference

    workload = WORKLOADS[name]
    data = workload.generate(seed)
    reference = Reference(data)
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as spill:
        recorder = SpanRecorder(spill)
        with Cluster(trace=False, **workload.cluster) as plain, traced_cluster(
            recorder, **workload.cluster
        ) as traced:
            for algorithm in ALGORITHMS:
                untraced_result = plain.sort(data, algorithm=algorithm)
                install(recorder)
                try:
                    with recorder.span("session.sort"):
                        traced_result = traced.sort(data, algorithm=algorithm)
                finally:
                    restored = recorder.restore()
                spans = recorder.drain()
                found = compare(untraced_result, traced_result)
                problem = reference.check(untraced_result)
                if problem:
                    found.append(problem)
                if any(vars(owner)[attr] is not raw for owner, attr, raw in restored):
                    found.append("a wrapper was left installed")
                ranks = {s["rank"] for s in spans if s["layer"] == "rank"}
                if ranks != set(range(workload.cluster["num_pes"])):
                    found.append(f"rank spans from ranks {sorted(ranks)}")
                status = "; ".join(found) if found else "ok"
                print(f"{name} {algorithm}: {status} ({len(spans)} spans, "
                      f"{len(restored)} wrappers restored)")
                problems += [f"{name} {algorithm}: {p}" for p in found]
    return problems


def main() -> int:
    import_repro()
    problems = check_benchmark_json()
    try:
        for name in sorted(WORKLOADS):
            problems += selftest_workload(name, seed=1)
    finally:
        stop_helper_processes()
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
