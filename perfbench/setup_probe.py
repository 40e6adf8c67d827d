"""Time one cold set-up of a workload's cluster, in a fresh interpreter.

Reads ``{"workload": name, "algorithm": name, "strings": [latin-1 text]}``
as JSON on stdin and prints the seconds from before ``import repro``,
through ``Cluster(...)``, to the end of one sort of the given strings.
``run.py`` starts this script several times per run and reports the median.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import WORKLOADS, import_repro, stop_helper_processes


def main() -> None:
    job = json.load(sys.stdin)
    strings = [s.encode("latin-1") for s in job["strings"]]
    cluster_kwargs = WORKLOADS[job["workload"]].cluster
    start = time.perf_counter()
    import_repro()
    from repro.session import Cluster

    try:
        with Cluster(trace=False, **cluster_kwargs) as cluster:
            cluster.sort(strings, algorithm=job["algorithm"])
            elapsed = time.perf_counter() - start
    finally:
        stop_helper_processes()
    print(repr(elapsed))


if __name__ == "__main__":
    main()
