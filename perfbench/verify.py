"""Output checks for timed sorts, in O(n log n) per sort.

The library's ``repro.strings.checker.check_prefix_permutation`` is
quadratic (see NOTES.md), so the benchmark checks sorts itself, against one
reference sort of the input computed per run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Reference:
    """The sorted input of one run, and the checks of a sort against it."""

    def __init__(self, data: Sequence[bytes]):
        self.sorted: List[bytes] = sorted(data)
        lcps = [0] + [_lcp(a, b) for a, b in zip(self.sorted, self.sorted[1:])] + [0]
        # distinguishing prefix length of each string in sorted order
        self.dist: List[int] = [
            min(len(s), 1 + max(lcps[i], lcps[i + 1])) for i, s in enumerate(self.sorted)
        ]

    def check(self, result) -> Optional[str]:
        """``None`` when ``result`` (a ``DSortResult``) is correct, else why not."""
        outputs = [s for part in result.outputs_per_pe for s in part]
        if result.origins_per_pe is None:
            if outputs != self.sorted:
                return "output differs from the reference sort"
            return None
        return self._check_prefixes(result, outputs)

    def _check_prefixes(self, result, prefixes: List[bytes]) -> Optional[str]:
        """The PDMS contract: prefixes of a permutation, in sorted order.

        An origin is ``(source PE, position in that PE's locally sorted
        block)``; the full strings the origins name must be the reference
        sort.  Each output prefix must start its origin's string and be at
        least that string's distinguishing prefix, and the prefixes
        themselves must be sorted, within and across PEs.
        """
        local_sorted = [sorted(block) for block in result.inputs_per_pe]
        origins = [tuple(o) for part in result.origins_per_pe for o in part]
        if len(origins) != len(self.sorted) or len(prefixes) != len(self.sorted):
            return "output or origin count differs from the input size"
        expected = {(pe, i) for pe, block in enumerate(local_sorted) for i in range(len(block))}
        if set(origins) != expected:
            return "origins are not a permutation of the input"
        full = [local_sorted[pe][i] for pe, i in origins]
        if any(not s.startswith(p) for s, p in zip(full, prefixes)):
            return "a prefix does not start its origin string"
        if any(a > b for a, b in zip(prefixes, prefixes[1:])):
            return "output prefixes are not in sorted order"
        if full != self.sorted:
            return "origin strings are not in sorted order"
        if any(len(p) < d for p, d in zip(prefixes, self.dist)):
            return "a prefix is shorter than its string's distinguishing prefix"
        return None


def _lcp(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix, by binary search on slices."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo
