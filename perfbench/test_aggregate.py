"""Tests of the benchmark's own aggregation.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import aggregate


class PercentileTest(unittest.TestCase):
    def test_known_inputs(self):
        xs = [15, 20, 35, 40, 50]
        self.assertEqual(aggregate.percentile(xs, 0), 15)
        self.assertEqual(aggregate.percentile(xs, 100), 50)
        self.assertEqual(aggregate.percentile(xs, 50), 35)
        self.assertAlmostEqual(aggregate.percentile(xs, 40), 29)
        self.assertAlmostEqual(aggregate.percentile(xs, 90), 46)

    def test_order_does_not_matter(self):
        self.assertEqual(aggregate.percentile([3, 1, 2], 50), 2)

    def test_median_of_even_count_interpolates(self):
        self.assertEqual(aggregate.median([1, 2, 3, 4]), 2.5)
        self.assertEqual(aggregate.median([1, 2, 3, 4]),
                         statistics.median([1, 2, 3, 4]))

    def test_p99_of_hundred_and_one(self):
        xs = list(range(101))
        self.assertEqual(aggregate.percentile(xs, 99), 99)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            aggregate.percentile([], 50)


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(aggregate.tail_percentile(19))
        self.assertEqual(aggregate.tail_percentile(20), 50)
        self.assertEqual(aggregate.tail_percentile(99), 50)
        self.assertEqual(aggregate.tail_percentile(100), 90)
        self.assertEqual(aggregate.tail_percentile(999), 90)
        self.assertEqual(aggregate.tail_percentile(1000), 99)
        self.assertEqual(aggregate.tail_percentile(10000), 99.9)

    def test_custom_ladder(self):
        self.assertEqual(aggregate.tail_percentile(200, (50, 95)), 95)


class FailureAccountingTest(unittest.TestCase):
    def test_share_of_completed(self):
        self.assertEqual(aggregate.completed_share(200, 0), 1.0)
        self.assertEqual(aggregate.completed_share(200, 50), 0.75)

    def test_cas_conflicts_are_not_failures(self):
        # The driver counts a lost compare-and-set as attempted, not failed.
        text = "attempted 10\nfailed 1\nvalue ops_s 5\n"
        res = aggregate.parse_results(text)
        self.assertEqual(aggregate.completed_share(res["attempted"],
                                                   res["failed"]), 0.9)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            aggregate.completed_share(0, 0)


class SelfTimeTest(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [(1, 0, "op.read", 0, 100),
                 (2, 1, "store.head_resolve", 10, 30),
                 (3, 1, "postree.lookup", 40, 90),
                 (4, 3, "chunk.get", 50, 70)]
        selfs = aggregate.self_times(spans)
        self.assertEqual(selfs, {1: 30, 2: 20, 3: 30, 4: 20})

    def test_overlapping_children_count_once(self):
        spans = [(1, 0, "op.x", 0, 100),
                 (2, 1, "net.a", 10, 60),
                 (3, 1, "net.b", 40, 80)]
        self.assertEqual(aggregate.self_times(spans)[1], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(1, 0, "op.x", 0, 100), (2, 1, "net.a", 90, 150)]
        self.assertEqual(aggregate.self_times(spans)[1], 90)

    def test_layer_table_sums_to_the_root(self):
        spans = [(1, 0, "op.read", 0, 100),
                 (2, 1, "store.head_resolve", 10, 30),
                 (3, 1, "postree.lookup", 40, 90),
                 (4, 3, "chunk.get", 50, 70),
                 (5, 0, "chunk.get", 200, 300)]  # outside any op: ignored
        total, layers, residual = aggregate.layer_table(spans)
        self.assertEqual(total, 100)
        self.assertEqual(residual, 30)
        self.assertEqual(layers["store"], 20)
        self.assertEqual(layers["postree"], 30)
        self.assertEqual(layers["chunk"], 20)
        self.assertEqual(sum(layers.values()) + residual, total)


class ParseAndReportTest(unittest.TestCase):
    TEXT = "\n".join([
        "ctx sha256_backend shani",
        "attempted 4",
        "failed 0",
        "check verify.b0 ok",
        "check diff_rows FAIL 3 rows, 2 changed",
        "value ops_s 12.5",
        "value storage_bytes_per_user_byte 0.5",
        "samples setup_s 1 2 3",
        "samples ingest_mb_s 40 50 60",
        "samples read_us 1 2 3 4 5",
        "samples write_us 10 20",
        "samples version_ms 1 2",
        "samples diff_ms 0.5",
        "samples push_ms 7 9",
        "samples clone_mb_s 100",
        "span 1 0 op.read 0 10",
    ])

    def test_parse(self):
        res = aggregate.parse_results(self.TEXT)
        self.assertEqual(res["ctx"], {"sha256_backend": "shani"})
        self.assertEqual(res["checks"][0], ("verify.b0", True, ""))
        self.assertEqual(res["checks"][1],
                         ("diff_rows", False, "3 rows, 2 changed"))
        self.assertEqual(res["spans"], [(1, 0, "op.read", 0, 10)])

    def test_every_end_to_end_metric_is_reported(self):
        metrics = aggregate.end_to_end(aggregate.parse_results(self.TEXT))
        self.assertEqual(list(metrics), [m[0] for m in aggregate.END_TO_END])
        self.assertEqual(metrics["setup_s"], (2, "s"))
        self.assertEqual(metrics["read_us_p50"], (3, "us"))
        self.assertEqual(metrics["write_us_p90"][0], 19)
        self.assertEqual(metrics["completed_op_share"], (1.0, "share"))

    def test_a_metric_without_samples_is_none(self):
        res = aggregate.parse_results(self.TEXT)
        del res["samples"]["diff_ms"]
        self.assertIsNone(aggregate.end_to_end(res)["diff_ms_p50"][0])

    def test_every_per_layer_metric_is_reported(self):
        metrics = aggregate.per_layer(aggregate.parse_results(self.TEXT))
        self.assertEqual(list(metrics), [m[0] for m in aggregate.PER_LAYER])
        self.assertEqual(metrics["layer.residual_share"], (1.0, "share"))


if __name__ == "__main__":
    unittest.main()
