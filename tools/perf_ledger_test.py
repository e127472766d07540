#!/usr/bin/env python3
"""Proves that the gate of `perf_ledger.py check` fires: feeds its
comparison the newest ledger entry with results equal to the entry's
change side (must pass), and doctored copies of the entry (must each
fail). Runs no perfbench.

    python3 tools/perf_ledger_test.py
"""
import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_ledger  # noqa: E402


def check(entry, measured):
    """The gate's verdict on the two: 0 when it holds, else 1, and its
    report, one line per difference."""
    problems = perf_ledger.compare(entry["trace1"]["change"], measured)
    return (1 if problems else 0), "\n".join(problems)


class DoctoredEntries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(perf_ledger.newest_entry()) as f:
            cls.entry = json.load(f)
        cls.measured = copy.deepcopy(cls.entry["trace1"]["change"])

    def doctored(self, edit):
        entry = copy.deepcopy(self.entry)
        edit(entry["trace1"]["change"])
        return entry

    def test_entry_itself_passes(self):
        status, out = check(self.entry, self.measured)
        self.assertEqual(status, 0, out)

    def test_count_one_higher_fails(self):
        for metric in ("sim.events", "sim.allocs", "core.tx_packets"):
            def edit(side, metric=metric):
                side["p2p_stream"]["metrics"][metric]["value"] += 1
            status, out = check(self.doctored(edit), self.measured)
            self.assertEqual(status, 1, out)
            self.assertIn("p2p_stream %s" % metric, out)
            self.assertIn("lower than the entry's", out)

    def test_count_one_lower_fails(self):
        def edit(side):
            side["bfs_graph500"]["metrics"]["pcie.chunks"]["value"] -= 1
        status, out = check(self.doctored(edit), self.measured)
        self.assertEqual(status, 1, out)
        self.assertIn("bfs_graph500 pcie.chunks", out)
        self.assertIn("higher than the entry's", out)

    def test_missing_workload_fails(self):
        status, out = check(self.doctored(lambda s: s.pop("hsg_halo")),
                            self.measured)
        self.assertEqual(status, 1, out)
        self.assertIn("hsg_halo: missing from the entry", out)

    def test_failed_points_fail(self):
        measured = copy.deepcopy(self.measured)
        measured["rdma_pingpong"]["failed"] = 2
        status, out = check(self.entry, measured)
        self.assertEqual(status, 1, out)
        self.assertIn("rdma_pingpong: 2 failed points", out)

    def test_host_times_are_not_gated(self):
        measured = copy.deepcopy(self.measured)
        measured["bfs_graph500"]["metrics"]["bfs.run_ms"]["value"] *= 3
        status, out = check(self.entry, measured)
        self.assertEqual(status, 0, out)


if __name__ == "__main__":
    unittest.main()
