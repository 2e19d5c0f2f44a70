"""Scaling bench: exact buffer accounting and fitted slopes."""

import numpy as np
import pytest

from epiview.bench import bench_csv_rows, fit_loglog_slope, run_scaling_bench


@pytest.fixture(scope="module")
def rows():
    return run_scaling_bench(sizes=(8, 16, 32), reps=3, seed=0)


class TestBufferCounts:
    def test_full_is_l_fourth_exactly(self, rows):
        for r in rows:
            if r.mode == "full":
                assert r.buffer_elems == r.size ** 4

    def test_epipolar_is_l_cubed_exactly(self, rows):
        """L*L queries against the max(W, H) = L slots of each line."""
        for r in rows:
            if r.mode == "epipolar":
                assert r.buffer_elems == r.size ** 3

    def test_counts_machine_independent(self):
        a = run_scaling_bench(sizes=(8, 16), reps=3, seed=0)
        b = run_scaling_bench(sizes=(8, 16), reps=3, seed=0)
        assert [r.buffer_elems for r in a] == [r.buffer_elems for r in b]


class TestSlopes:
    def test_full_slope_is_four(self, rows):
        sizes = [r.size for r in rows if r.mode == "full"]
        elems = [r.buffer_elems for r in rows if r.mode == "full"]
        assert abs(fit_loglog_slope(sizes, elems) - 4.0) < 0.05

    def test_epipolar_slope_at_most_three(self, rows):
        sizes = [r.size for r in rows if r.mode == "epipolar"]
        elems = [r.buffer_elems for r in rows if r.mode == "epipolar"]
        assert fit_loglog_slope(sizes, elems) <= 3.05

    def test_fit_recovers_known_exponent(self):
        sizes = [8, 16, 32, 64]
        assert abs(fit_loglog_slope(sizes, [7 * s ** 3 for s in sizes]) - 3.0) < 1e-12


class TestHarness:
    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            run_scaling_bench(sizes=(16, 8), reps=3)

    def test_rejects_too_few_reps(self):
        with pytest.raises(ValueError):
            run_scaling_bench(sizes=(8,), reps=1)

    @pytest.mark.parametrize("kwargs, named", [
        ({"sizes": (0, 8)}, r"sizes must be positive and ascending, got \(0, 8\)"),
        ({"sizes": (8,), "reps": 2}, "reps must be an integer >= 3, got 2"),
    ], ids=["size-0", "reps-2"])
    def test_a_knob_breaking_its_rule_is_named(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            run_scaling_bench(**kwargs)

    def test_csv_layout(self, rows):
        table = bench_csv_rows(rows)
        assert table[0] == ("L", "mode", "buffer_elems", "wall_ns_median", "reps")
        assert len(table) == len(rows) + 1
        assert all(len(r) == 5 for r in table)

    def test_times_positive(self, rows):
        assert all(r.wall_ns_median > 0 for r in rows)
