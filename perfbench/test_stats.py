"""Self-tests of the benchmark's statistics (run.py runs them before every
measurement; also runnable as `python3 perfbench/test_stats.py`)."""

import json
import unittest
from pathlib import Path

import stats

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileRule(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        # p99 of 999 samples: rank 990, 9 samples above it.
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)
        # p5 of 200 samples: rank 10, 9 samples below it.
        with self.assertRaises(ValueError):
            stats.percentile(list(range(200)), 5)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 50)

    def test_accepts_exactly_ten_beyond(self):
        self.assertEqual(stats.percentile(list(range(1000)), 99), 989)
        self.assertEqual(stats.percentile(list(range(201)), 5), 10)
        self.assertEqual(stats.percentile(list(range(20)), 50), 9)

    def test_nearest_rank_ignores_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(stats.percentile(samples, 50), 3.0)


class Blocks(unittest.TestCase):
    def test_blocks_stay_within_a_run_and_the_last_takes_the_remainder(self):
        runs = [list(range(2500)), list(range(999)), list(range(1000))]
        self.assertEqual([len(b) for b in stats.blocks(runs)], [1000, 1500, 1000])
        self.assertEqual(stats.blocks(runs)[1][-1], 2499)

    def test_median_of_block_percentiles_ignores_a_burst(self):
        calm = [100.0] * 990 + [200.0] * 10
        burst = [100.0] * 900 + [5000.0] * 100
        value, count = stats.block_percentile([calm * 4 + burst], 99)
        self.assertEqual((value, count), (100.0, 5))
        self.assertEqual(stats.percentile(calm * 4 + burst, 99), 5000.0)

    def test_refuses_runs_without_a_block(self):
        with self.assertRaises(ValueError):
            stats.block_percentile([list(range(999)), []], 50)


class LatencyPercentile(unittest.TestCase):
    def test_every_workload_has_its_latency_percentile(self):
        import run
        self.assertEqual(set(stats.LATENCY_PERCENTILE), set(run.WORKLOADS))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent(self):
        spans = [
            [0, -1, 7, 100, 200],  # root, 100 ns
            [1, 0, 7, 110, 140],   # child, 30 ns, with a 10 ns grandchild
            [2, 1, 7, 120, 130],
            [1, 0, 7, 150, 190],   # second child, 40 ns
        ]
        rows = stats.self_times(spans)
        self.assertEqual(rows, [(0, 7, 30), (1, 7, 20), (2, 7, 10), (1, 7, 40)])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [[0, -1, 1, 0, 100], [1, 0, 1, 10, 50], [1, 0, 1, 40, 80], [1, 0, 1, 90, 130]]
        self.assertEqual(stats.self_times(spans)[0], (0, 1, 100 - 70 - 10))

    def test_ops_with_an_open_span_are_skipped(self):
        spans = [[0, -1, 1, 0, 10], [0, -1, 2, 20, 0]]
        self.assertEqual(stats.self_times(spans), [(0, 1, 10)])

    def test_layer_median_sums_within_an_op_and_reports_absent_layers_as_zero(self):
        names = ["op", "layer", "unused"]
        log = [
            [0, -1, 0, 0, 10_000], [1, 0, 0, 0, 1_000], [1, 0, 0, 2_000, 4_000],
            [0, -1, 1, 10_000, 20_000], [1, 0, 1, 10_000, 11_000],
        ]
        other_thread = [[0, -1, 0, 0, 5_000], [1, 0, 0, 0, 5_000]]
        got = stats.layer_self_us([log, other_thread], names)
        self.assertEqual(got["layer"], 3.0)  # median of 3, 1 and 5 us
        self.assertEqual(got["op"], 7.0)     # median of 7, 9 and 0 us
        self.assertEqual(got["unused"], 0.0)


def fake_raw(trace):
    n = 2000
    return {
        "setup_s": [0.03, 0.02, 0.04], "latency_us": [[float(i) for i in range(n)]],
        "untraced_latency_us": [[float(i) for i in range(n)]], "measured_s": 2.0,
        "completed": n, "attempted": n, "failed": 0, "first_loss": 3.0, "mean_loss": 1.5,
        "peak_rss_mb": 7.0, "checks": {}, "layer": {}, "trace": trace, "workload": "train_lm",
        "span_names": ["train.step", "nn.forward"], "spans": [[[0, -1, 0, 0, 10], [1, 0, 0, 0, 5]]],
    }


class MetricNames(unittest.TestCase):
    def test_every_metric_in_benchmark_json_is_reported_with_its_unit(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            reported = stats.per_layer(fake_raw(1)) if trace else stats.end_to_end(fake_raw(0))
            expected = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({name: unit for name, (_, unit, _) in reported.items()}, expected)


if __name__ == "__main__":
    unittest.main()
