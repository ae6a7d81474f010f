"""Every metric BENCHMARK.json names is emitted, with its unit.

Runs the built benchmark binary briefly on every workload, in both modes.
`python3 e2ebench/run.py --self-test` builds the binary and runs this file
with E2EBENCH_BIN and E2EBENCH_SCRATCH set.
"""

import json
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, env=None):
    return subprocess.run(
        [os.environ["E2EBENCH_BIN"], "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", trace,
         "--scratch", os.environ["E2EBENCH_SCRATCH"]],
        capture_output=True, text=True, env=env)


class MetricsTest(unittest.TestCase):

    def check(self, trace, expected):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                out = run(workload, trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stdout)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                units = {name: m["unit"]
                         for name, m in result["metrics"].items()}
                self.assertEqual(
                    units, {m["name"]: m["unit"] for m in expected})

    def test_end_to_end_metrics(self):
        self.check("0", SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check("1", SPEC["per_layer"])

    def test_dispatch_override_fails_fast(self):
        out = run("static_range", "0",
                  env=dict(os.environ, ASF_DISPATCH="scan"))
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_unknown_workload_fails(self):
        out = run("no_such_workload", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
