"""The benchmark's workloads: seeded inputs plus the cluster that sorts them.

Every workload runs the same five algorithms, so every end-to-end metric
exists on every workload.  The comment above each names the algorithms it
was chosen for; NOTES.md gives the rationale and the predicted movers.

Importing this module does not import :mod:`repro`; :func:`import_repro`
does, from the ``src`` directory of the checkout this file lives in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: every workload times one ``Cluster.sort`` of each, in this order, per round
ALGORITHMS: Tuple[str, ...] = ("ms", "fkmerge", "hquick", "pdms", "pdms-golomb")

#: strings of the input the cold set-up's warm-up sort runs on
SETUP_STRINGS = 2000


def import_repro():
    """Import :mod:`repro` from this checkout's ``src``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from {SRC}")
    return repro


def stop_helper_processes() -> None:
    """Stop the processes :mod:`multiprocessing` started here, and reap each.

    The ``processes`` engine starts the resource tracker, a child that
    otherwise lives on until it reads end of file after this interpreter
    has exited, and then as an unreaped orphan.  Stopping it closes its pipe
    and waits for it to exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()  # a no-op when none runs


def _commoncrawl(seed: int) -> List[bytes]:
    from repro.strings.generators import commoncrawl_like

    return commoncrawl_like(40000, seed=seed)


def _dn_long(seed: int) -> List[bytes]:
    from repro.strings.generators import dn_instance

    return dn_instance(20000, 0.5, length=500, seed=seed)


def _dna_reads(seed: int) -> List[bytes]:
    from repro.strings.generators import dna_reads

    return dna_reads(40000, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], List[bytes]]
    #: keyword arguments of ``repro.session.Cluster`` (every toggle pinned,
    #: so no ``REPRO_*`` environment variable changes what is measured)
    cluster: Dict[str, Any]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # for ms, fkmerge, hquick: short lines with high D/N interleave the
        # runs, so MS time is mostly the LCP loser-tree merge
        Workload(
            "cc-merge",
            _commoncrawl,
            dict(
                num_pes=4,
                engine="threads",
                exchange_topology="direct",
                async_exchange=False,
                wire_checksums=False,
            ),
        ),
        # for ms, pdms, pdms-golomb: 500-character keys make local sort
        # heavy and prefix doubling dominate PDMS; the routed, split-phase,
        # sealed exchange
        Workload(
            "dn-long",
            _dn_long,
            dict(
                num_pes=4,
                engine="threads",
                exchange_topology="hypercube",
                async_exchange=True,
                wire_checksums=True,
            ),
        ),
        # for ms, pdms, fkmerge: one rank per core on real processes, the
        # only workload that moves bytes between address spaces
        Workload(
            "proc-transport",
            _dna_reads,
            dict(
                num_pes=2,
                engine="processes",
                exchange_topology="direct",
                async_exchange=False,
                wire_checksums=False,
            ),
        ),
    )
}
