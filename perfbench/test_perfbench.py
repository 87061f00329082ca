"""Self-tests of the benchmark's arithmetic and tracing shim.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import math

import pytest

import specmp
from stats import covered, cycle_band, median, self_time, tail_latency
from tracing import Tracer


class TestTailLatency:
    def test_leaves_ten_ops_beyond(self):
        latencies = list(range(100, 0, -1))  # unsorted 1..100
        assert tail_latency(latencies) == 90  # 91..100 lie beyond it

    def test_smallest_run_is_its_minimum(self):
        latencies = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
        assert tail_latency(latencies) == 1.0

    def test_needs_eleven_ops(self):
        with pytest.raises(ValueError):
            tail_latency([1.0] * 10)

    def test_capped_at_the_99th_percentile(self):
        latencies = list(range(1, 10001))
        assert tail_latency(latencies) == 9901  # index 9900: 99 ops lie beyond it, not 10
        assert tail_latency(list(range(1, 1101))) == 1090  # both rules give index 1089

    def test_run_of_three_op_kinds_sits_above_median(self):
        # a `simulate` run: 12 cycles of a fast, a middling and a slow case
        latencies = [t for _ in range(12) for t in (0.35, 0.58, 0.90)]
        assert tail_latency(latencies) == 0.90  # the 26th of 36 sorted values
        assert tail_latency(latencies) >= median(latencies)


class TestCycleBand:
    def test_keeps_the_slower_half_less_the_slowest_tenth(self):
        # twenty cycles of two ops, cycle k taking 1 + k; ranks 10..17 are kept
        ops = [(k, (1.0 + k) * t, "ok") for k in range(20) for t in (0.25, 0.75)]
        assert sorted({op[0] for op in cycle_band(ops)}) == list(range(10, 18))
        assert len(cycle_band(ops)) == 16

    def test_ranks_by_cycle_total_not_by_op(self):
        # cycle 1 holds the slowest op, cycle 0 the larger total
        ops = [(0, 1.0, "ok"), (0, 1.0, "ok"), (1, 0.1, "ok"), (1, 1.5, "ok")]
        assert {op[0] for op in cycle_band(ops)} == {0}

    def test_keeps_at_least_one_cycle(self):
        assert cycle_band([(0, 2.0, "ok")]) == [(0, 2.0, "ok")]
        assert cycle_band([(0, 1.0, "ok"), (1, 2.0, "ok")]) == [(1, 2.0, "ok")]


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_disjoint_children(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)

    def test_overlap_counts_once(self):
        assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (5.5, 7.0)]) == pytest.approx(6.0)

    def test_children_clipped_to_parent(self):
        assert self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)


def synthetic_tracer():
    # one op: cli.main [0, 10] -> default_grid [1, 5] -> solve [2, 4] -> rule [2.5, 3.5]
    #                          -> invert_to_density [6, 9] -> solve [7, 8]
    tracer = Tracer()
    tracer.spans = [
        [0, None, "op", 0.0, 10.0, False],
        [0, 0, "cli.main", 0.0, 10.0, False],
        [0, 1, "stieltjes.default_grid", 1.0, 5.0, False],
        [0, 2, "stieltjes.solve_fixed_point", 2.0, 4.0, False],
        [0, 3, "toeplitz_lsd.rule", 2.5, 3.5, False],
        [0, 1, "stieltjes.invert_to_density", 6.0, 9.0, False],
        [0, 5, "stieltjes.solve_fixed_point", 7.0, 8.0, True],
    ]
    tracer.counters["stieltjes.invert_to_density.grid_points"] = 2
    return tracer


class TestLayerMetrics:
    def test_self_and_layer_times(self):
        m = synthetic_tracer().layer_metrics([8.0], tangential_warnings=0)
        assert m["cli.self_s"] == pytest.approx(3.0)  # 10 - 4 - 3
        assert m["stieltjes.default_grid.s"] == pytest.approx(3.0)  # keeps its solve, not the rule
        assert m["stieltjes.solve_fixed_point.s"] == pytest.approx(2.0)  # (2 - 1) + 1
        assert m["stieltjes.invert_to_density.self_s"] == pytest.approx(2.0)
        assert m["toeplitz_lsd.rule.s"] == pytest.approx(1.0)
        assert m["toeplitz_lsd.rule.op_share"] == pytest.approx(0.1)

    def test_counts_and_overhead(self):
        m = synthetic_tracer().layer_metrics([8.0], tangential_warnings=3)
        assert m["stieltjes.solve_fixed_point.calls"] == 2
        assert m["stieltjes.solve_fixed_point.failed"] == 1
        assert m["stieltjes.solves_per_grid_point"] == pytest.approx(0.5)
        assert m["toeplitz_lsd.tangential_warnings"] == 3
        assert m["trace.overhead_s"] == pytest.approx(2.0)
        assert m["trace.overhead_frac"] == pytest.approx(0.25)


def test_shim_records_library_calls_and_restores_them():
    original = specmp.stieltjes.solve_fixed_point
    lsd = specmp.atomic_lsd(specmp.PiecewiseSpectralDensity(((0.0, 2.0 * math.pi, 1.0),)))
    tracer = Tracer()
    tracer.install()
    try:
        latency, solution = tracer.run_op(0, lambda: specmp.stieltjes.solve_fixed_point(lsd, 2.0, 1.0 + 1.0j))
    finally:
        tracer.uninstall()
    assert specmp.stieltjes.solve_fixed_point is original
    assert specmp.solve_fixed_point is original
    assert [span[2] for span in tracer.spans] == ["op", "stieltjes.solve_fixed_point"]
    assert tracer.spans[1][1] == 0 and latency > 0.0
    assert tracer.counters["stieltjes.solve_fixed_point.iterations"] == solution.iterations
