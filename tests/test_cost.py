import dataclasses
import tracemalloc

import numpy as np
import pytest

from povmtree import ParseError
from povmtree.cost import compare, crossover


class TestCompare:
    def test_qubit_sixteen_outcomes(self):
        report = compare(16, 2)
        assert (report.neumark_ops, report.single_extra_dim_ops, report.binary_tree_ops) == (
            120,
            42,
            24,
        )
        assert report.binary_tree_depth == 4

    def test_minimal_case(self):
        report = compare(2, 2)
        assert (report.neumark_ops, report.single_extra_dim_ops, report.binary_tree_ops) == (
            1,
            0,
            6,
        )

    def test_large_qubit_table(self):
        report = compare(1024, 2)
        assert (report.neumark_ops, report.single_extra_dim_ops, report.binary_tree_ops) == (
            523776,
            3066,
            60,
        )
        assert report.binary_tree_depth == 10

    def test_doubling_increment(self):
        for d in (2, 3, 5):
            step = d * (2 * d - 1)
            n = max(2, d)
            # round up to a power of two so depth increments exactly once
            n = 1 << (n - 1).bit_length()
            for _ in range(8):
                assert compare(2 * n, d).binary_tree_ops - compare(n, d).binary_tree_ops == step
                n *= 2

    def test_non_power_of_two_depth(self):
        assert compare(5, 2).binary_tree_depth == 3
        assert compare(5, 2).binary_tree_ops == 18

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 1024, 1025, 2**53, 2**53 + 1,
                                   2**60, 2**60 + 1])
    def test_depth_is_the_exact_ceil_log2(self, n):
        # float log2 rounds 2**53 + 1 down to 2**53 and would give 53 levels;
        # compile_tree pads to 2**54 outcomes and builds 54
        report = compare(n, 2)
        depth = report.binary_tree_depth
        assert 2 ** (depth - 1) < n <= 2**depth
        assert report.binary_tree_ops == depth * 6

    def test_average_field(self):
        # half the worst case, always: a property, not a field filled on request
        report = compare(16, 2)
        assert report.single_extra_dim_ops_average == 21.0 == report.single_extra_dim_ops / 2
        assert "single_extra_dim_ops_average" not in {f.name for f in dataclasses.fields(report)}
        with pytest.raises(TypeError):
            compare(16, 2, average=True)

    @pytest.mark.parametrize("n,d", [(1, 2), (4, 1), (3, 4), (3.7, 2), (4, 2.0), ("5", 2),
                                     (True, 2), (4, True)])
    def test_invalid_dimensions(self, n, d):
        with pytest.raises(ParseError) as err:
            compare(n, d)
        assert err.value.what == "dimensions"


def scanned_crossover(d, n_max=1 << 20):
    """The scan ``crossover`` once ran: every N up to ``n_max`` at once, as arrays."""
    ns = np.arange(max(d, 2), n_max + 1, dtype=np.int64)
    # (n - 1).bit_length() of each n: the count of powers of two 2**k < n
    depth = np.searchsorted(1 << np.arange(63, dtype=np.int64), ns)
    neumark = ns * (ns - 1) // 2
    single = (ns - d) * (d + 1) * d // 2
    binary = depth * d * (2 * d - 1)
    holds = (binary < single) & (single < neumark)
    if not holds[-1]:
        return None
    violations = np.nonzero(~holds)[0]
    first = 0 if violations.size == 0 else violations[-1] + 1
    return int(ns[first])


class TestCrossover:
    @pytest.mark.parametrize("d", range(2, 41))
    def test_equals_the_scan(self, d):
        # n_max on both sides of d^2, where single-extra >= one-shot stops, of
        # each power of two, where the depth steps, and of the crossover itself
        n_star = scanned_crossover(d, 1 << 14)
        edges = [d, d * d, n_star, *(1 << k for k in range(1, 15))]
        n_maxes = sorted({n for e in edges for n in (e - 1, e, e + 1) if n >= d}
                         | set(range(d, 4 * d * d, d)))
        expected = [scanned_crossover(d, n) for n in n_maxes]
        assert None in expected and expected[-1] is not None and n_star is not None
        assert [crossover(d, n) for n in n_maxes] == expected

    def test_peak_memory(self):
        # the scan held six arrays of 2**20 entries, 44 MB for these four calls
        tracemalloc.start()
        try:
            results = [crossover(d) for d in (2, 3, 8, 64)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert results == [11, 14, 65, 4097]
        assert peak < 64 * 1024

    def test_qubit_crossover(self):
        n_star = crossover(2, n_max=1 << 14)
        assert n_star is not None
        # the chain holds at the crossover and for everything scanned above it
        for n in range(n_star, 4096):
            r = compare(n, 2)
            assert r.binary_tree_ops < r.single_extra_dim_ops < r.neumark_ops
        below = compare(n_star - 1, 2)
        assert not (below.binary_tree_ops < below.single_extra_dim_ops < below.neumark_ops)

    def test_logarithmic_growth(self):
        # doubling N adds exactly d(2d-1) operations
        for d in (2, 4):
            ops = [compare(1 << t, d).binary_tree_ops for t in range(max(2, d).bit_length(), 16)]
            steps = {b - a for a, b in zip(ops, ops[1:])}
            assert steps == {d * (2 * d - 1)}

    @pytest.mark.parametrize("d", [3, 8])
    def test_agrees_with_compare(self, d):
        # the first N after the last N at which compare's chain fails
        n_max = 1 << 10
        reports = [compare(n, d) for n in range(d, n_max + 1)]
        fails = [r.n_outcomes for r in reports
                 if not r.binary_tree_ops < r.single_extra_dim_ops < r.neumark_ops]
        assert crossover(d, n_max=n_max) == fails[-1] + 1

    def test_invalid_dimension(self):
        for d in (1, 2.0, "3", True):
            with pytest.raises(ParseError) as err:
                crossover(d)
            assert err.value.what == "dimensions"

    @pytest.mark.parametrize("n_max", [0, -4, 2.5, 64.0, "9", True, False, None], ids=repr)
    def test_invalid_n_max(self, n_max):
        with pytest.raises(ParseError) as err:
            crossover(3, n_max=n_max)
        assert err.value.what == "dimensions"

    def test_numpy_integers(self):
        assert crossover(np.int64(3), n_max=np.int64(64)) == crossover(3, n_max=64) == 14
        assert crossover(3, n_max=np.int32(13)) is None
        assert crossover(3, n_max=1) is None
