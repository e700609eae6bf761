#!/usr/bin/env python3
"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py        (from the repository root)

Checks that BENCHMARK.json and run.py name the same metrics, that a tiny
run of every workload completes and emits every metric BENCHMARK.json
lists (untraced and traced), that a deliberately corrupted expected
value makes each workload's output check fail, that the command line
is strict, and that the benchmark fails cleanly without the sources.
Takes about two minutes; the first run also builds.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

TINY = "2"


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    r = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    last = None
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            pass
    return r.returncode, last, r


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        b = declared()
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace, key):
        code, last, r = bench("--workload", workload, "--seed", "7",
                              "--seconds", TINY, "--trace", trace)
        self.assertEqual(code, 0, r.stderr[-2000:])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        want = [(m["name"], m["unit"]) for m in declared()[key]]
        got = [(n, m["unit"]) for n, m in last["metrics"].items()]
        self.assertEqual(sorted(got), sorted(want))
        for name, m in last["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if key == "end_to_end":
            for name, m in last["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, "0", "end_to_end")

    def test_traced_runs_emit_every_per_layer_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, "1", "per_layer")


class OutputChecksAreLive(unittest.TestCase):
    def test_corrupted_expected_value_fails_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, last, r = bench("--workload", w, "--seed", "7",
                                      "--seconds", TINY, "--corrupt-expected")
                self.assertEqual(code, 1, r.stderr[-2000:])
                self.assertFalse(last["correct"])
                self.assertGreaterEqual(last["failed"], 1)


class StrictCli(unittest.TestCase):
    def test_bad_command_lines_exit_2_without_a_result(self):
        bad = [
            ["--workload", "sharded-mix"],
            ["--workload", "sharded-mix", "--seed", "-1"],
            ["--workload", "sharded-mix", "--seed", "x"],
            ["--workload", "sharded-mix", "--seed", "1", "--seconds", "0"],
            ["--workload", "sharded-mix", "--seed", "1", "--seconds", "1.5"],
            ["--workload", "sharded-mix", "--seed", "1", "--trace", "2"],
            ["--workload", "nope", "--seed", "1"],
            ["--workload", "sharded-mix", "--seed", "1", "--quick"],
            ["--work", "sharded-mix", "--seed", "1"],
        ]
        for args in bad:
            with self.subTest(args=args):
                code, last, r = bench(*args)
                self.assertEqual(code, 2)
                self.assertEqual(r.stdout, "")

    def test_without_sources_the_run_fails_without_a_result(self):
        tmp = os.path.join(run.build_dir(), "selftest-bare")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "systems-replay", "--seed", "1"], cwd=tmp, env=env,
                           capture_output=True, text=True, timeout=180)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
