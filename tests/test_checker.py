"""Unit tests for the sorting-output checkers."""

import time

import pytest

from repro.strings.checker import (
    SortCheckError,
    check_distributed_sort,
    check_is_permutation,
    check_locally_sorted,
    check_prefix_permutation,
    check_sequential_sort,
)
from repro.strings.generators import dn_instance
from repro.strings.lcp import distinguishing_prefixes


class TestLocallySorted:
    def test_accepts_sorted(self):
        check_locally_sorted([b"a", b"ab", b"b"])

    def test_accepts_duplicates(self):
        check_locally_sorted([b"a", b"a"])

    def test_accepts_empty(self):
        check_locally_sorted([])

    def test_rejects_unsorted(self):
        with pytest.raises(SortCheckError):
            check_locally_sorted([b"b", b"a"])


class TestPermutation:
    def test_accepts_reordering_with_duplicates(self):
        check_is_permutation([b"a", b"b", b"a"], [b"a", b"a", b"b"])

    def test_rejects_missing_element(self):
        with pytest.raises(SortCheckError):
            check_is_permutation([b"a", b"b"], [b"a", b"a"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(SortCheckError):
            check_is_permutation([b"a"], [b"a", b"a"])


class TestSequentialCheck:
    def test_full_check_passes(self):
        inputs = [b"b", b"a", b"ab"]
        outputs = [b"a", b"ab", b"b"]
        report = check_sequential_sort(inputs, outputs, [0, 1, 0])
        assert report.num_strings == 3

    def test_rejects_wrong_lcp(self):
        with pytest.raises(SortCheckError):
            check_sequential_sort([b"a", b"ab"], [b"a", b"ab"], [0, 0])

    def test_lcp_optional(self):
        check_sequential_sort([b"a"], [b"a"])


class TestDistributedCheck:
    def test_valid_distribution(self):
        inputs = [[b"d", b"a"], [b"c", b"b"]]
        outputs = [[b"a", b"b"], [b"c", b"d"]]
        report = check_distributed_sort(inputs, outputs)
        assert report.num_pes == 2

    def test_empty_pe_is_skipped(self):
        inputs = [[b"b", b"a"], []]
        outputs = [[b"a", b"b"], []]
        report = check_distributed_sort(inputs, outputs)
        assert any("no strings" in n for n in report.notes)

    def test_rejects_boundary_violation(self):
        inputs = [[b"a", b"b"], [b"c", b"d"]]
        outputs = [[b"a", b"c"], [b"b", b"d"]]
        with pytest.raises(SortCheckError, match="boundary"):
            check_distributed_sort(inputs, outputs)

    def test_rejects_locally_unsorted_pe(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"b", b"a"]]
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs)

    def test_rejects_lost_string(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"a"]]
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs)

    def test_checks_lcp_arrays_when_given(self):
        inputs = [[b"ab", b"aa"]]
        outputs = [[b"aa", b"ab"]]
        check_distributed_sort(inputs, outputs, [[0, 1]])
        with pytest.raises(SortCheckError):
            check_distributed_sort(inputs, outputs, [[0, 2]])


class TestPrefixPermutationCheck:
    def test_accepts_valid_prefix_output(self):
        inputs = [[b"alpha", b"beta"], [b"alps", b"bet"]]
        # prefixes long enough to distinguish, globally sorted across PEs
        outputs = [[b"alph", b"alps"], [b"bet", b"beta"]]
        report = check_prefix_permutation(inputs, outputs)
        assert report.num_strings == 4

    def test_accepts_full_strings_as_prefixes(self):
        inputs = [[b"a", b"b"]]
        outputs = [[b"a", b"b"]]
        check_prefix_permutation(inputs, outputs)

    def test_rejects_count_mismatch(self):
        with pytest.raises(SortCheckError):
            check_prefix_permutation([[b"a", b"b"]], [[b"a"]])

    def test_rejects_prefix_of_nothing(self):
        inputs = [[b"alpha"]]
        outputs = [[b"zzz"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_rejects_unsorted_prefixes(self):
        inputs = [[b"alpha", b"beta"]]
        outputs = [[b"bet", b"alp"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_rejects_boundary_violation(self):
        inputs = [[b"aa", b"zz"], [b"mm", b"nn"]]
        outputs = [[b"aa", b"zz"], [b"mm", b"nn"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_rejects_prefix_whose_only_extension_is_taken(self):
        # "a" extends only to "ab", which the exact output "ab" needs
        inputs = [[b"ab", b"b"]]
        outputs = [[b"a", b"ab"]]
        with pytest.raises(SortCheckError):
            check_prefix_permutation(inputs, outputs)

    def test_matching_scales_n_log_n(self):
        # every output is a proper prefix, so no exact match short-cuts the
        # search: a scan over the unmatched inputs per prefix is quadratic
        def timed(n):
            strings = dn_instance(n, 0.5, length=40, seed=3)
            order = sorted(range(n), key=strings.__getitem__)
            dist = distinguishing_prefixes(strings)
            outputs = [[strings[i][: dist[i]] for i in order]]
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                check_prefix_permutation([strings], outputs)
                best = min(best, time.perf_counter() - t0)
            return best

        small, large = timed(5_000), timed(20_000)
        assert large / small <= 6, f"t(20k)/t(5k) = {large / small:.1f}"
