"""LCP-aware K-way loser tree (Section II-B).

The LCP loser tree generalises binary LCP-merging (Ng & Kakehi) to ``K``
ways: every sorted input run carries its LCP array, internal nodes store the
loser run *and* the LCP of the loser's current string with the winner string
that passed the node.  With these cached values most comparisons are decided
without inspecting characters; characters are only read when two cached LCP
values tie, and then only from that position onward.  The paper cites the
bound of ``m log K + Delta L`` character comparisons for merging ``m``
strings, which embedded into mergesort yields ``O(D + n log n)`` total work.

Key invariant (which makes the cached values comparable): whenever the path
from run ``w``'s leaf to the root is replayed (because ``w`` just produced
the global minimum), every node on this path stored its loser's LCP relative
to that very global minimum — the element that passed the node on its way to
the root.  The replacement string from run ``w`` knows its LCP to the same
reference from ``w``'s own input LCP array.  Hence all LCP values on the
path refer to the last output string and the standard LCP-compare rules
apply:

* larger cached LCP  →  smaller string (no characters inspected),
* equal cached LCPs  →  compare characters starting at that offset.

The merge also produces the LCP array of the output sequence for free.

Two implementations share these rules: :class:`LcpLoserTree` /
:func:`lcp_multiway_merge`, the readable scalar tree over ``list[bytes]``
that the tests use as the oracle, and :func:`lcp_multiway_merge_packed`,
the kernel the distributed merge sort runs on packed runs, which must match
the oracle's outputs, LCP arrays and :class:`CharStats` exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..strings.packed import PackedStringArray
from .stats import CharStats

__all__ = ["LcpLoserTree", "lcp_multiway_merge", "lcp_multiway_merge_packed"]


class LcpLoserTree:
    """LCP-aware tournament tree over sorted runs with LCP arrays."""

    def __init__(
        self,
        runs: Sequence[Sequence[bytes]],
        lcps: Optional[Sequence[Sequence[int]]] = None,
        stats: Optional[CharStats] = None,
    ):
        """Build the tree.

        Parameters
        ----------
        runs:
            Sorted runs of byte strings.
        lcps:
            Matching LCP arrays (``lcps[i][j] = LCP(runs[i][j-1], runs[i][j])``,
            first entry ignored).  When omitted they are computed here, which
            costs extra character scans but keeps the API convenient for
            tests.
        stats:
            Optional character/comparison counter.
        """
        self.stats = stats
        k = max(1, len(runs))
        size = 1
        while size < k:
            size *= 2
        self._k = size
        self._runs: List[List[bytes]] = [list(r) for r in runs] + [
            [] for _ in range(size - len(runs))
        ]
        if lcps is None:
            self._run_lcps = [self._compute_lcps(r) for r in self._runs]
        else:
            self._run_lcps = [list(h) for h in lcps] + [
                [] for _ in range(size - len(lcps))
            ]
            for i, r in enumerate(self._runs):
                if len(self._run_lcps[i]) != len(r):
                    raise ValueError(
                        f"run {i}: LCP array length {len(self._run_lcps[i])} "
                        f"!= run length {len(r)}"
                    )

        self._pos = [0] * size
        self._current: List[Optional[bytes]] = [
            self._runs[i][0] if self._runs[i] else None for i in range(size)
        ]
        # LCP of each run's current string w.r.t. the last output string;
        # only meaningful for runs on the most recently replayed path, which
        # is exactly when the value is read.
        self._cur_lcp = [0] * size
        # node i >= 1: loser run index (its LCP to the winner that passed the
        # node lives in ``_cur_lcp`` — a run is the loser of one node at most)
        self._loser = [0] * size
        self._winner = 0
        self._winner_lcp = 0
        self._init_tree()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _compute_lcps(run: Sequence[bytes]) -> List[int]:
        out = [0] * len(run)
        for j in range(1, len(run)):
            a, b = run[j - 1], run[j]
            limit = min(len(a), len(b))
            i = 0
            while i < limit and a[i] == b[i]:
                i += 1
            out[j] = i
        return out

    def _char_compare(self, a: bytes, b: bytes, start: int) -> Tuple[int, int]:
        """Three-way compare from offset ``start``; returns ``(cmp, lcp)``."""
        limit = min(len(a), len(b))
        i = start
        while i < limit and a[i] == b[i]:
            i += 1
        if self.stats is not None:
            self.stats.add_comparison(i - start + (1 if i < limit else 0))
        if i == limit:
            return (len(a) - len(b), i)
        return (a[i] - b[i], i)

    def _play(self, x: int, y: int) -> Tuple[int, int, int]:
        """Play runs ``x`` against ``y`` using their ``_cur_lcp`` values.

        Returns ``(winner, loser, lcp_between_them)``.  Both ``_cur_lcp``
        values must refer to the same reference string (the last output, or
        the empty string during initialisation).
        """
        a, b = self._current[x], self._current[y]
        if a is None:
            return (y, x, 0)
        if b is None:
            return (x, y, 0)
        hx, hy = self._cur_lcp[x], self._cur_lcp[y]
        if hx > hy:
            # x matches the reference longer, so x < y; they diverge at hy
            return (x, y, hy)
        if hy > hx:
            return (y, x, hx)
        cmp, h = self._char_compare(a, b, hx)
        if cmp < 0 or (cmp == 0 and x < y):
            return (x, y, h)
        return (y, x, h)

    def _init_tree(self) -> None:
        """Bottom-up initialisation with real comparisons (reference = '')."""
        size = self._k
        for i in range(size):
            self._cur_lcp[i] = 0
        winners = [0] * (2 * size)
        winner_lcps = [0] * (2 * size)
        for i in range(size):
            winners[size + i] = i
            winner_lcps[size + i] = 0
        for node in range(size - 1, 0, -1):
            left, right = winners[2 * node], winners[2 * node + 1]
            w, loser, h = self._play(left, right)
            winners[node] = w
            self._loser[node] = loser
            # the loser's cached LCP must refer to the winner that passed it,
            # which is the reference string the next replay of this node uses
            self._cur_lcp[loser] = h
            winner_lcps[node] = self._cur_lcp[w]
        self._winner = winners[1] if size > 1 else 0
        self._winner_lcp = 0

    # ------------------------------------------------------------------ public API
    def empty(self) -> bool:
        """True when every run is exhausted."""
        return self._current[self._winner] is None

    def peek(self) -> Optional[bytes]:
        """Smallest remaining string (None when the tree is empty)."""
        return self._current[self._winner]

    def pop(self) -> Tuple[bytes, int]:
        """Remove the smallest string; returns ``(string, lcp_to_previous_output)``."""
        w = self._winner
        value = self._current[w]
        if value is None:
            raise IndexError("pop from an empty LcpLoserTree")
        out_lcp = self._winner_lcp

        # Advance run w.  The new front's LCP w.r.t. the last output (which
        # is the string we just removed, from the same run) is the run's own
        # LCP array entry.
        self._pos[w] += 1
        run = self._runs[w]
        if self._pos[w] < len(run):
            self._current[w] = run[self._pos[w]]
            self._cur_lcp[w] = self._run_lcps[w][self._pos[w]]
        else:
            self._current[w] = None
            self._cur_lcp[w] = 0

        # Replay the leaf-to-root path.  Candidate and every stored loser on
        # this path hold LCP values relative to the string just output.
        cand = w
        node = (self._k + w) // 2
        while node >= 1:
            opp = self._loser[node]
            winner, loser, h = self._play(cand, opp)
            self._loser[node] = loser
            # the loser's cached lcp (vs last output) stays what it was; the
            # node additionally remembers LCP(loser, winner) = h for the next
            # time this node is replayed with this winner as the reference
            self._cur_lcp_store(loser, h)
            cand = winner
            node //= 2
        self._winner = cand
        self._winner_lcp = self._cur_lcp[cand] if self._current[cand] is not None else 0
        return value, out_lcp

    def _cur_lcp_store(self, run: int, lcp_vs_winner: int) -> None:
        """Record the loser's LCP relative to the winner that just passed it.

        The next time the loser participates in a comparison is when the
        winner's path is replayed — at that moment the winner is the last
        output string, so ``lcp_vs_winner`` is exactly the "LCP w.r.t. last
        output" the comparison rules need.
        """
        self._cur_lcp[run] = lcp_vs_winner


def lcp_multiway_merge(
    runs: Sequence[Sequence[bytes]],
    lcps: Optional[Sequence[Sequence[int]]] = None,
    stats: Optional[CharStats] = None,
) -> Tuple[List[bytes], List[int]]:
    """Merge sorted runs (with LCP arrays) into one sorted run + LCP array."""
    tree = LcpLoserTree(runs, lcps, stats)
    total = sum(len(r) for r in runs)
    out: List[bytes] = []
    out_lcps: List[int] = []
    for _ in range(total):
        s, h = tree.pop()
        out.append(s)
        out_lcps.append(h)
    if out_lcps:
        out_lcps[0] = 0
    return out, out_lcps


#: consecutive wins of one run after which the packed merge gallops
GALLOP_STREAK = 4
#: first lookahead window of a gallop (each further window doubles)
GALLOP_WINDOW = 16


def lcp_multiway_merge_packed(
    runs: Sequence[PackedStringArray],
    lcps: Sequence[np.ndarray],
    stats: Optional[CharStats] = None,
) -> Tuple[PackedStringArray, np.ndarray]:
    """Merge packed sorted runs into one packed run + ``int64`` LCP array.

    The fast twin of :func:`lcp_multiway_merge`, which stays as its test
    oracle: the same tournament, run in one loop over plain Python values —
    each run's characters as one ``bytes`` object, its offsets and LCPs as
    ``int`` lists — so a pop costs ``O(log K)`` interpreter steps and no
    numpy call.  Output strings, LCP values and comparison statistics are
    bit-identical to the oracle.

    **Galloping.**  Once one run has won :data:`GALLOP_STREAK` times in a
    row, its whole next segment is emitted at once.  When the winner ``V``
    of run ``w`` is popped, every live loser ``l`` on ``w``'s leaf-to-root
    path caches ``LCP(l, V)`` (``V`` passed each of those nodes on its way
    to the root), and those losers are the minima of their subtrees, i.e.
    the only contenders the next candidate must beat.  Let the *ceiling*
    be the largest of those cached values.  A following string of run
    ``w`` whose run-LCP exceeds the ceiling wins every path comparison on
    the cached values alone (strictly larger LCP ⇒ smaller string, no
    characters inspected) and leaves every cached value unchanged —
    ``LCP(l, new) = LCP(l, prev)`` because ``LCP(prev, new) > LCP(l,
    prev)``.  The replays skipped are therefore state no-ops with zero
    character reads, and one replay after the segment restores the scalar
    state.  The end of the segment is the first run-LCP at or below the
    ceiling: the first :data:`GALLOP_WINDOW` entries are scanned in plain
    Python, further ones in numpy windows of doubling size, so the search
    reads ``O(segment + GALLOP_WINDOW)`` LCP entries in ``O(log segment)``
    numpy calls, and none for the short segments of interleaved runs.  Runs
    that do not interleave (MS buckets of one sorted run, say) would
    otherwise pay one replay per string.

    **Emission.**  The loop records segments ``(run, start, stop,
    first_lcp)`` and the output characters as ``bytes`` pieces; one
    vectorized gather over the concatenated run arrays then builds the
    output offsets and LCP array, and one ``b"".join`` the buffer.
    """
    k = len(runs)
    if len(lcps) != k:
        raise ValueError(f"{len(lcps)} LCP arrays for {k} runs")
    size = 1
    while size < k:
        size *= 2
    lens = [len(r) for r in runs] + [0] * (size - k)
    datas: List[bytes] = []
    offs: List[List[int]] = []
    run_h: List[np.ndarray] = []
    hls: List[List[int]] = []
    for i, (run, h) in enumerate(zip(runs, lcps)):
        h = np.asarray(h, dtype=np.int64)
        if len(h) != lens[i]:
            raise ValueError(
                f"run {i}: LCP array length {len(h)} != run length {lens[i]}"
            )
        base = int(run.offsets[0])
        datas.append(run.buffer[base : int(run.offsets[-1])].tobytes())
        offs.append((run.offsets - base).tolist())
        run_h.append(h)
        hls.append(h.tolist())
    total = sum(lens)
    if total == 0:
        return PackedStringArray.empty(), np.zeros(0, dtype=np.int64)

    # per run: current string (None once exhausted), its cached LCP, its
    # position; per node >= 1: the loser run.  The first round, played on
    # the runs' first strings, is the oracle's own initialisation.
    tree = LcpLoserTree(
        [[datas[i][: offs[i][1]]] if lens[i] else [] for i in range(k)], stats=stats
    )
    cur, cl, loser, winner = tree._current, tree._cur_lcp, tree._loser, tree._winner
    pos = [0] * size
    n_cmp = n_chars = 0
    wl = 0  # LCP of the winner to the last output string

    parts: List[bytes] = []
    # flat (run, start, stop, first_lcp) quadruples: plain ints, which the
    # garbage collector does not track, unlike one tuple per segment
    segs: List[int] = []
    prev = -1
    seg_start = seg_lcp = streak = 0
    while True:
        w = winner
        v = cur[w]
        if v is None:
            break
        start = pos[w]
        if w == prev:
            streak += 1
        else:
            if prev >= 0:
                segs += (prev, seg_start, pos[prev], seg_lcp)
            prev, seg_start, seg_lcp, streak = w, start, wl, 1
        stop = start + 1
        n = lens[w]
        if streak >= GALLOP_STREAK and stop < n:
            streak = 0
            ceiling = -1
            node = (size + w) >> 1
            while node:
                o = loser[node]
                if cur[o] is not None and cl[o] > ceiling:
                    ceiling = cl[o]
                node >>= 1
            # the first window in plain Python (most segments end there),
            # then numpy windows of doubling size
            hl = hls[w]
            end = stop + GALLOP_WINDOW
            if end > n:
                end = n
            while stop < end and hl[stop] > ceiling:
                stop += 1
            if stop == end:
                h_arr = run_h[w]
                width = 2 * GALLOP_WINDOW
                while stop < n:
                    blocked = h_arr[stop : stop + width] <= ceiling
                    first = int(blocked.argmax())
                    if blocked[first]:
                        stop += first
                        break
                    stop += width
                    width *= 2
                else:
                    stop = n
            off = offs[w]
            parts.append(datas[w][off[start] : off[stop]])
        else:
            parts.append(v)
        pos[w] = stop
        if stop < n:
            off = offs[w]
            a = cur[w] = datas[w][off[stop] : off[stop + 1]]
            hc = cl[w] = hls[w][stop]
        else:
            a = cur[w] = None
            hc = cl[w] = 0

        # replay w's leaf-to-root path; every cached LCP on it refers to
        # the string just output (an exhausted run's cached LCP stays 0)
        cand = w
        node = (size + w) >> 1
        while node:
            o = loser[node]
            b = cur[o]
            if a is None:
                loser[node] = cand
                cand, a, hc = o, b, cl[o]
            elif b is not None:
                ho = cl[o]
                if ho > hc:
                    loser[node] = cand
                    cl[cand] = hc
                    cand, a, hc = o, b, ho
                elif ho == hc:
                    la, lb = len(a), len(b)
                    lim = la if la < lb else lb
                    i = hc
                    while i < lim and a[i] == b[i]:
                        i += 1
                    n_cmp += 1
                    n_chars += i - hc + 1 if i < lim else i - hc
                    c = la - lb if i == lim else a[i] - b[i]
                    if c < 0 or (c == 0 and cand < o):
                        cl[o] = i
                    else:
                        loser[node] = cand
                        cl[cand] = i
                        cand, a = o, b
            node >>= 1
        winner = cand
        wl = hc if a is not None else 0
    segs += (prev, seg_start, pos[prev], seg_lcp)

    if stats is not None:
        stats.string_comparisons += n_cmp
        stats.chars_inspected += n_chars

    # one gather: output string j is global string idx[j] of the
    # concatenated runs
    seg = np.array(segs, dtype=np.int64).reshape(-1, 4)
    run_base = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(lens, out=run_base[1:])
    seg_len = seg[:, 2] - seg[:, 1]
    out_start = np.zeros(len(seg), dtype=np.int64)
    np.cumsum(seg_len[:-1], out=out_start[1:])
    idx = np.repeat(run_base[seg[:, 0]] + seg[:, 1] - out_start, seg_len)
    idx += np.arange(total, dtype=np.int64)
    all_lens = np.concatenate([r.lengths for r in runs])
    out_off = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(all_lens[idx], out=out_off[1:])
    out_lcps = np.concatenate(run_h)[idx]
    out_lcps[out_start] = seg[:, 3]
    out_lcps[0] = 0
    buffer = np.frombuffer(b"".join(parts), dtype=np.uint8)
    return PackedStringArray(buffer, out_off), out_lcps
