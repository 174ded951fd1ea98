"""Tests of the benchmark itself.

    python3 benchmarks/selftest.py

Traced counters must repeat exactly between two runs on the same input,
and the output checker must count a RIP curve value off by 1e-9 as a
failure.  Kept out of the package's test suite on purpose: these tests
start the program many times and take about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
import unittest

import checker
import run
import tracer


class _WorkDir(unittest.TestCase):
    def setUp(self):
        self.work = run.RESULTS / f"selftest-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.addCleanup(shutil.rmtree, self.work, ignore_errors=True)
        self.env = run.child_env()
        self.deadline = time.perf_counter() + 600

    def traced(self, argv: list[str], tag: str) -> tuple[dict, int]:
        spans = self.work / tag
        spans.mkdir()
        [record] = run.run_pass([run.Call(tag, argv, lambda out: [])], self.env, self.work,
                                self.deadline, spans)
        self.assertEqual(record["exit"], 0, record["problems"])
        return tracer.summarize(sorted(spans.glob("*.npz")))


class TraceCountersRepeat(_WorkDir):
    def test_estimate_counts_repeat(self):
        argv = run._cli("estimate", "--p", 103, "--k", 30, "--trials", 1000, "--seed", 1)
        counts = [{name: entry["calls"] for name, entry in self.traced(argv, f"run{i}")[0].items()}
                  for i in range(2)]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["spectra.hermitian_spectrum"], 29_000)
        self.assertEqual(counts[0]["spectra.lapack"], 29_000)
        self.assertEqual(counts[0]["rng.random_subset"], 1_000)

    def test_exact_rip_solves_repeat(self):
        spec = self.work / "input.json"
        spec.write_text(json.dumps({"exact": [[23, 6]], "bordered_p": 103,
                                    "bordered_supports": []}))
        argv = [str(run.BENCH_DIR / "oracle_job.py"), str(spec)]
        runs = [self.traced(argv, f"run{i}") for i in range(2)]
        self.assertEqual(runs[0][1], math.comb(23, 6))
        self.assertEqual(runs[1][1], math.comb(23, 6))
        self.assertEqual({k: v["calls"] for k, v in runs[0][0].items()},
                         {k: v["calls"] for k, v in runs[1][0].items()})


class CheckerFaultInjection(_WorkDir):
    def test_perturbed_d_is_a_failure(self):
        seed = 5
        out, err = self.work / "curve.csv", self.work / "curve.err"
        argv = [sys.executable, *run._cli("estimate", "--p", 103, "--k", 30, "--seed", seed)]
        code, _, _ = run.spawn(argv, self.env, out, err, self.deadline)
        self.assertEqual(code, 0, err.read_text())
        lines = out.read_text().splitlines(keepends=True)
        self.assertEqual(checker.check_ripcurve("".join(lines), 103, 30, 1, seed), [])
        for j in (2, 3, 17, 30):
            for delta in (1e-9, -1e-9):
                fields = lines[j].split(",")
                fields[1] = format(float(fields[1]) + delta, ".17g")
                text = "".join(lines[:j] + [",".join(fields)] + lines[j + 1:])
                with self.subTest(j=j, delta=delta):
                    self.assertTrue(checker.check_ripcurve(text, 103, 30, 1, seed))


if __name__ == "__main__":
    unittest.main()
