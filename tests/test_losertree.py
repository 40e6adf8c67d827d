"""Tests for the atomic and the LCP-aware K-way loser trees."""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sequential import (
    CharStats,
    LcpLoserTree,
    LoserTree,
    lcp_merge,
    lcp_multiway_merge,
    multiway_merge,
)
from repro.sequential.lcp_losertree import (
    GALLOP_STREAK,
    GALLOP_WINDOW,
    lcp_multiway_merge_packed,
)
from repro.strings.generators import duplicate_heavy, random_strings
from repro.strings.lcp import lcp_array
from repro.strings.packed import PackedStringArray


def _runs_from(strings, k, seed=0):
    """Deal strings into k sorted runs."""
    runs = [[] for _ in range(k)]
    for i, s in enumerate(strings):
        runs[i % k].append(s)
    return [sorted(r) for r in runs]


class TestAtomicLoserTree:
    def test_merge_two_runs(self):
        runs = [[b"a", b"c"], [b"b", b"d"]]
        assert multiway_merge(runs) == [b"a", b"b", b"c", b"d"]

    def test_merge_empty_runs(self):
        assert multiway_merge([[], [], []]) == []
        assert multiway_merge([[], [b"x"]]) == [b"x"]

    def test_merge_single_run(self):
        assert multiway_merge([[b"a", b"b"]]) == [b"a", b"b"]

    def test_merge_non_power_of_two_runs(self):
        runs = _runs_from(random_strings(100, 0, 8, seed=1), 5)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_merge_many_runs(self):
        runs = _runs_from(random_strings(300, 0, 6, alphabet_size=3, seed=2), 17)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_merge_with_duplicates(self):
        runs = _runs_from(duplicate_heavy(200, 8, 5, seed=3), 6)
        assert multiway_merge(runs) == sorted(itertools.chain(*runs))

    def test_pop_and_peek_interface(self):
        tree = LoserTree([[b"b"], [b"a"]])
        assert not tree.empty()
        assert tree.peek() == b"a"
        assert tree.pop() == b"a"
        assert tree.pop() == b"b"
        assert tree.empty()
        with pytest.raises(IndexError):
            tree.pop()

    def test_counts_characters(self):
        stats = CharStats()
        runs = [[b"aaaa1", b"aaaa3"], [b"aaaa2", b"aaaa4"]]
        multiway_merge(runs, stats)
        # atomic merging rescans the common prefix on every comparison
        assert stats.chars_inspected >= 10


class TestLcpLoserTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 16])
    def test_matches_reference(self, k):
        strings = random_strings(250, 0, 10, alphabet_size=3, seed=k)
        runs = _runs_from(strings, k)
        lcps = [lcp_array(r) for r in runs]
        merged, out_lcps = lcp_multiway_merge(runs, lcps)
        expected = sorted(strings)
        assert merged == expected
        assert out_lcps == lcp_array(expected)

    def test_computes_lcps_when_not_given(self):
        runs = [[b"aa", b"ab"], [b"aab", b"b"]]
        merged, out_lcps = lcp_multiway_merge(runs)
        assert merged == [b"aa", b"aab", b"ab", b"b"]
        assert out_lcps == [0, 2, 1, 0]

    def test_rejects_mismatched_lcp_arrays(self):
        with pytest.raises(ValueError):
            LcpLoserTree([[b"a", b"b"]], [[0]])

    def test_empty_inputs(self):
        merged, lcps = lcp_multiway_merge([[], []])
        assert merged == [] and lcps == []

    def test_heavy_duplicates(self):
        strings = duplicate_heavy(300, 5, 6, seed=9)
        runs = _runs_from(strings, 7)
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        assert merged == sorted(strings)
        assert out_lcps == lcp_array(sorted(strings))

    def test_all_runs_identical(self):
        run = [b"dup"] * 10
        runs = [list(run) for _ in range(4)]
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        assert merged == [b"dup"] * 40
        assert out_lcps == [0] + [3] * 39

    def test_prefix_chains_across_runs(self):
        runs = [[b"a", b"abc"], [b"ab", b"abcd"], [b"abcde"]]
        merged, out_lcps = lcp_multiway_merge(runs, [lcp_array(r) for r in runs])
        expected = sorted(itertools.chain(*runs))
        assert merged == expected
        assert out_lcps == lcp_array(expected)

    def test_pop_returns_lcp_pairs(self):
        tree = LcpLoserTree([[b"ab", b"ac"], [b"abq"]])
        values = []
        while not tree.empty():
            values.append(tree.pop())
        assert [v[0] for v in values] == [b"ab", b"abq", b"ac"]
        assert [v[1] for v in values] == [0, 2, 1]
        with pytest.raises(IndexError):
            tree.pop()

    def test_peek(self):
        tree = LcpLoserTree([[b"z"], [b"a"]])
        assert tree.peek() == b"a"


class TestLcpEfficiency:
    def test_lcp_tree_saves_character_work_on_long_prefixes(self):
        # runs whose strings share a 500-character prefix: the atomic tree
        # rescans it for every comparison, the LCP tree only once per run
        common = b"c" * 500
        strings = [common + bytes([97 + i % 26, 97 + (i // 26) % 26]) for i in range(200)]
        runs = _runs_from(strings, 8)
        lcps = [lcp_array(r) for r in runs]

        atomic_stats = CharStats()
        multiway_merge(runs, atomic_stats)
        lcp_stats = CharStats()
        merged, _ = lcp_multiway_merge(runs, lcps, lcp_stats)

        assert merged == sorted(strings)
        assert lcp_stats.chars_inspected * 10 < atomic_stats.chars_inspected


class TestBinaryLcpMerge:
    def test_binary_merge_reference(self):
        a = sorted(random_strings(80, 0, 8, seed=1))
        b = sorted(random_strings(90, 0, 8, seed=2))
        merged, lcps = lcp_merge(a, lcp_array(a), b, lcp_array(b))
        expected = sorted(a + b)
        assert merged == expected
        assert lcps == lcp_array(expected)

    def test_binary_merge_one_side_empty(self):
        a = sorted(random_strings(10, 1, 5, seed=3))
        merged, lcps = lcp_merge(a, lcp_array(a), [], [])
        assert merged == a
        assert lcps == lcp_array(a)

    def test_binary_merge_rejects_bad_lcps(self):
        with pytest.raises(ValueError):
            lcp_merge([b"a"], [], [b"b"], [0])

    def test_binary_and_kway_agree(self):
        a = sorted(random_strings(60, 0, 6, alphabet_size=2, seed=4))
        b = sorted(random_strings(60, 0, 6, alphabet_size=2, seed=5))
        m1, l1 = lcp_merge(a, lcp_array(a), b, lcp_array(b))
        m2, l2 = lcp_multiway_merge([a, b], [lcp_array(a), lcp_array(b)])
        assert m1 == m2
        assert l1 == l2


def _packed_matches_oracle(runs):
    """Merge ``runs`` with the packed kernel and the scalar oracle; compare
    strings, LCP arrays and every ``CharStats`` field."""
    runs = [sorted(r) for r in runs]
    lcps = [lcp_array(r) for r in runs]
    oracle_stats = CharStats()
    expected, expected_lcps = lcp_multiway_merge(runs, lcps, oracle_stats)
    # the runs are zero-copy views into one shared buffer, like buckets cut
    # out of a received block, so their offsets do not start at zero
    whole = PackedStringArray.from_strings([b"pad"] + [s for r in runs for s in r])
    packed_runs, lo = [], 1
    for r in runs:
        packed_runs.append(whole[lo : lo + len(r)])
        lo += len(r)
    stats = CharStats()
    merged, merged_lcps = lcp_multiway_merge_packed(
        packed_runs, [np.asarray(h, dtype=np.int64) for h in lcps], stats
    )
    assert merged.to_list() == expected
    assert merged_lcps.dtype == np.int64
    assert merged_lcps.tolist() == expected_lcps
    assert stats == oracle_stats


# NUL bytes, empty strings and a three-letter alphabet: many duplicates and
# shared prefixes, where cached-LCP ties need character comparisons
_text = st.lists(st.sampled_from(b"\x00ab"), max_size=8).map(bytes)


class TestPackedMergeMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_text, max_size=20), max_size=9))
    def test_arbitrary_runs(self, runs):
        # covers no runs, empty runs, K = 1 and K not a power of two
        _packed_matches_oracle(runs)

    @settings(max_examples=50, deadline=None)
    @given(_text, st.lists(st.integers(0, 40), min_size=1, max_size=6))
    def test_all_equal_runs(self, s, counts):
        _packed_matches_oracle([[s] * c for c in counts])

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 600),
        st.lists(st.tuples(st.integers(0, 600), _text), max_size=12),
        st.integers(1, 4),
    )
    def test_long_winning_stretches(self, length, cuts, k):
        # run 0 holds numbered strings and the other runs' strings land
        # between them, so run 0 wins long stretches; each ends where the
        # numbering's run-LCP drops to the cached LCP of the next contender
        run = [b"b%05d" % j for j in range(length)]
        others = [b"b%05d" % x + s for x, s in cuts]
        _packed_matches_oracle([run] + [others[i::k] for i in range(k)])

    @pytest.mark.parametrize("doublings", [1, 2, 3])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("blocked", [True, False])
    def test_gallop_stops_at_window_boundary(self, doublings, shift, blocked):
        # run A wins from its first string on, so its first gallop starts
        # after GALLOP_STREAK pops and searches windows of GALLOP_WINDOW,
        # 2 * GALLOP_WINDOW, ... strings.  The gallop ends at a run-LCP of 1
        # (a switch from "ma" to "mb", blocked by B's "mz") or at the end
        # of run A, placed on, just before and just past a window boundary.
        boundary = GALLOP_STREAK + GALLOP_WINDOW * (2**doublings - 1)
        run_a = [b"ma%04d" % i for i in range(boundary + shift)]
        if blocked:
            run_a += [b"mb%04d" % i for i in range(2 * GALLOP_WINDOW)]
        _packed_matches_oracle([run_a, [b"mz"]])
