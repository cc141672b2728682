"""Unit tests of run.py: --compare on synthetic sets, and the contract file's own rules."""
import io
import json
import os
import tempfile
import unittest

import run

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "throughput_mops", "unit": "Mops/s", "better": "higher", "bound": 0.1},
        {"name": "get_p50_ns", "unit": "ns", "better": "lower", "bound": 0.1},
    ],
}


def a_set(throughput, p50, spread=0.01, failed=0.0, threads=2, models=None):
    def summary(v):
        return {"median": v, "q1": v, "q3": v, "spread": spread, "values": [v]}
    return {"threads": threads, "workloads": {"w": {
        "failed_ops_share": failed,
        "per_layer": {} if models is None else {"alt.num_models": models},
        "end_to_end": {"throughput_mops": summary(throughput), "get_p50_ns": summary(p50)}}}}


class Compare(unittest.TestCase):
    def verdicts(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, content in (("a.json", a), ("b.json", b)):
                paths.append(os.path.join(d, name))
                with open(paths[-1], "w") as f:
                    json.dump(content, f)
            out = io.StringIO()
            code = run.compare(paths[0], paths[1], spec=SPEC, out=out)
        return code, [line.split()[-1] for line in out.getvalue().splitlines()]

    def test_within_the_bound_is_same(self):
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(0.95, 105)), (0, ["same", "same", "same"]))

    def test_direction_follows_better(self):
        # Higher throughput and lower latency are both better.
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(1.2, 80)), (0, ["better", "better", "same"]))
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(0.8, 100)), (1, ["worse", "same", "same"]))
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(1.0, 120)), (1, ["same", "worse", "same"]))

    def test_a_spread_above_the_bound_is_unresolved_not_same(self):
        code, rows = self.verdicts(a_set(1.0, 100), a_set(0.5, 100, spread=0.3))
        self.assertEqual((code, rows), (0, ["unresolved", "unresolved", "same"]))

    def test_more_failed_ops_fail_the_comparison(self):
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(1.0, 100, failed=1e-6)), (1, ["same", "same", "worse"]))

    def test_exact_counts_are_reported_identical_or_not(self):
        rows = self.verdicts(a_set(1.0, 100, models=389), a_set(1.0, 100, models=389))[1]
        self.assertEqual(rows, ["same", "same", "identical", "same"])
        rows = self.verdicts(a_set(1.0, 100, models=389), a_set(1.0, 100, models=390))[1]
        self.assertEqual(rows, ["same", "same", "differs", "same"])

    def test_sets_with_different_client_threads_are_refused(self):
        self.assertEqual(self.verdicts(a_set(1.0, 100), a_set(1.0, 100, threads=4))[0], 2)


class Contract(unittest.TestCase):
    def test_benchmark_json_keeps_its_own_rules(self):
        spec = run.contract()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used once")
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual([(m["unit"], m["better"]) for m in setup], [("s", "lower")])
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]), setup[0]["bound"])
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * (spec["run_seconds"] + 12), 3420, "the driver's runs fit its time limit")


if __name__ == "__main__":
    unittest.main()
