"""Self-test of the benchmark: every workload at a tiny volume, traced and
untraced, must pass the correctness gate and emit every metric named in
BENCHMARK.json with its unit.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1200)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertEqual(proc.stdout.strip().splitlines()[-1], "smoke: ok")


if __name__ == "__main__":
    unittest.main()
