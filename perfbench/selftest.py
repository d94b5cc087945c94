#!/usr/bin/env python3
"""Exact-count self-test of the benchmark.

Runs every workload briefly (a fixed number of operations), twice, at one
seed, with tracing on. The work counters must repeat exactly, and nothing
may be shed, evicted, rejected or failed. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
import unittest

SEED = 7
OPS = {"port": 4, "serve-cold": 12, "serve-hot": 200, "model": 3}
EXACT = ["decode.calls", "decode.tokens", "generate.stmts", "regression.pass",
         "journal.records", "cache.hits"]
ZERO = ["evloop.shed", "cache.evictions", "cache.misses", "server.rejected"]


def run(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "60", "--trace", "1",
         "--ops", str(OPS[workload])],
        check=True, stdout=subprocess.PIPE, text=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


class ExactCounts(unittest.TestCase):
    def check(self, workload):
        first, second = run(workload), run(workload)
        for result in (first, second):
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["attempted"], 2 * OPS[workload])
            for name in ZERO:
                self.assertEqual(result["metrics"][name]["value"], 0, name)
        for name in EXACT:
            self.assertEqual(first["metrics"][name]["value"],
                             second["metrics"][name]["value"], name)
        return first["metrics"]

    def test_port(self):
        m = self.check("port")
        self.assertEqual(m["generate.calls"]["value"], OPS["port"])
        self.assertGreater(m["decode.calls"]["value"], 0)

    def test_serve_cold(self):
        m = self.check("serve-cold")
        self.assertGreater(m["journal.records"]["value"], 0)
        self.assertGreater(m["decode.calls"]["value"], 0)

    def test_serve_hot(self):
        m = self.check("serve-hot")
        self.assertEqual(m["decode.calls"]["value"], 0)
        self.assertEqual(m["cache.hits"]["value"], OPS["serve-hot"])

    def test_model(self):
        m = self.check("model")
        self.assertGreater(m["decode.tokens"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
