"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public functions that the rank programs call into
each layer of :mod:`repro`.  A wrapper replaces the name in the namespace
that calls it (``repro.dist.api`` binds its kernels with ``from ... import``,
so patching the defining module would miss those calls) and records one span
per call: wall time, thread CPU time ("busy"), minor page faults, and the
counters of the call's :class:`~repro.sequential.stats.CharStats`.

Spans nest on a per-thread stack.  A span's *self* figures exclude the spans
opened inside it on the same thread, so the self busy times of all layers of
one rank add up to that rank program's busy time, and the rank span's own
self busy time is the part no wrapper labels.

Spans stay in memory.  A rank of the ``processes`` engine is a forked copy of
this process, so its spans are written to a file in ``spill_dir`` when its
rank program returns, and :meth:`SpanRecorder.drain` folds them back in.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sequential.stats import CharStats

Span = Dict[str, Any]

#: the layer of the span a wrapped rank program records
RANK = "rank"


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _char_stats(args, kwargs) -> Optional[CharStats]:
    for value in (*args, *kwargs.values()):
        if isinstance(value, CharStats):
            return value
    return None


class SpanRecorder:
    """Collects spans from wrapped functions; see the module docstring."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> list:
        # [wall0, busy0, minflt0, child wall, child busy, child minflt]
        frame = [time.perf_counter(), time.thread_time(), _minflt(), 0.0, 0.0, 0]
        self._stack().append(frame)
        return frame

    def _end(self, layer: str, frame: list, counts: Optional[Dict[str, int]] = None):
        wall = time.perf_counter() - frame[0]
        busy = time.thread_time() - frame[1]
        faults = _minflt() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[3] += wall
            parent[4] += busy
            parent[5] += faults
        span = {
            "layer": layer,
            "rank": getattr(self._local, "rank", None),
            "wall": wall,
            "busy": busy,
            "self_wall": wall - frame[3],
            "self_busy": busy - frame[4],
            "minflt": faults - frame[5],
        }
        if counts:
            span.update(counts)
        self.spans.append(span)

    @contextmanager
    def span(self, layer: str):
        """Record one span around a block of the benchmark's own code."""
        frame = self._begin()
        try:
            yield
        finally:
            self._end(layer, frame)

    def timed(self, layer: str, fn: Callable, drain: bool = False) -> Callable:
        """``fn`` wrapped to record a ``layer`` span per call.

        ``drain=True`` is for generator functions: the span covers consuming
        the whole generator, and the caller iterates the drained items.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = _char_stats(args, kwargs)
            if stats is not None:
                chars0, comps0 = stats.chars_inspected, stats.string_comparisons
            frame = self._begin()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                counts = None
                if stats is not None:
                    counts = {
                        "chars": int(stats.chars_inspected - chars0),
                        "comparisons": int(stats.string_comparisons - comps0),
                    }
                self._end(layer, frame, counts)
            return iter(result) if drain else result

        return wrapper

    def rank_runner(self, runner: Callable) -> Callable:
        """A registry runner wrapped to record the rank program's span."""

        @functools.wraps(runner)
        def run(comm, local, spec):
            forked = os.getpid() != self._pid
            if forked:
                # a processes-engine rank: drop the spans inherited at fork
                self.spans = []
            self._local.stack = []
            self._local.rank = comm.rank
            frame = self._begin()
            try:
                return runner(comm, local, spec)
            finally:
                self._end(RANK, frame)
                self._local.rank = None
                if forked:
                    path = self.spill_dir / f"spans-{os.getpid()}.json"
                    path.write_text(json.dumps(self.spans))

        return run

    def drain(self) -> List[Span]:
        """All spans recorded since the last drain, forked ranks' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            spans.extend(json.loads(path.read_text()))
            path.unlink()
        return spans

    # ------------------------------------------------------------------ patching
    def wrap(self, owner: Any, name: str, layer: str, drain: bool = False) -> None:
        """Replace ``owner.name`` (a module or class attribute) by a wrapper."""
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.timed(layer, raw.__func__, drain))
        else:
            wrapped = self.timed(layer, raw, drain)
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, raw))

    def restore(self) -> List[Tuple[Any, str, Any]]:
        """Undo every :meth:`wrap`; returns what was restored."""
        restored = list(self._patches)
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches = []
        return restored


def traced_cluster(recorder: SpanRecorder, **cluster_kwargs):
    """A ``Cluster(trace=True)`` whose rank programs and engine run are spanned.

    The rank runners are wrapped in a copy of the default registry, so no
    process-wide state changes; :func:`install` adds the layer wrappers.
    """
    from repro.session import Cluster, default_registry

    registry = default_registry().copy()
    for entry in list(registry):
        registry.register(
            entry.name, recorder.rank_runner(entry.runner), entry.spec_cls, overwrite=True
        )
    cluster = Cluster(trace=True, registry=registry, **cluster_kwargs)
    cluster.engine.run = recorder.timed("mpi.engine_run", cluster.engine.run)
    return cluster


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the rank programs and the session cross."""
    from repro.dist import api, exchange, golomb, hquick
    from repro.mpi import shm
    from repro.net import router
    from repro.session import cluster, registry
    from repro.strings import packed

    for owner, name, layer in (
        (cluster, "distribute_strings", "session.distribute"),
        (api, "sort_strings_with_lcp", "sequential.local_sort"),
        (hquick, "sort_strings_with_lcp", "sequential.local_sort"),
        (api, "lcp_multiway_merge_packed", "sequential.lcp_merge"),
        (api, "lcp_multiway_merge", "sequential.lcp_merge"),
        (api, "multiway_merge", "sequential.merge"),
        (api, "determine_splitters", "dist.splitters"),
        (api, "split_into_buckets", "dist.partition"),
        (api, "exchange_buckets", "dist.exchange"),
        (exchange.LcpCompressedBlock, "encode", "dist.exchange.encode"),
        (exchange.StringBlock, "__init__", "dist.exchange.encode"),
        (exchange.LcpCompressedBlock, "decode_run", "dist.exchange.decode"),
        (exchange.StringBlock, "decode_run", "dist.exchange.decode"),
        (api, "approximate_dist_prefixes", "dist.prefix_doubling"),
        (golomb.GolombCodedSet, "__init__", "dist.golomb"),
        (golomb.GolombCodedSet, "decode", "dist.golomb"),
        (registry, "hquick_sort", "dist.hquick"),
        (api, "lcp_array", "strings.lcp"),
        (api, "packed_lcp_array", "strings.lcp"),
        (packed.PackedStringArray, "to_list", "strings.materialize"),
        (exchange, "block_checksum", "faults.seal"),
        (router, "payload_checksum", "faults.seal"),
        (shm, "dumps", "mpi.shm.dumps"),
        (shm, "loads", "mpi.shm.loads"),
    ):
        recorder.wrap(owner, name, layer)
    recorder.wrap(api, "exchange_buckets_async", "dist.exchange", drain=True)
