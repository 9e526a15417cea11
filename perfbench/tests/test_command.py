#!/usr/bin/env python3
"""Exit-code contract of the benchmark command.

    python3 perfbench/tests/test_command.py <path/to/pelta_perfbench> <path/to/perfbench>

Checks that a clean run exits 0 with a correct result, that a forced logits
mismatch makes the run exit non-zero with "correct": false, that bad
arguments exit non-zero, and that run.py outside a full checkout (only the
benchmark's own files present) exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BINARY = None
PERFBENCH_DIR = None


def run_binary(*extra):
    env = dict(os.environ, PELTA_THREADS="2")
    command = [BINARY, "--workload", "serve_vit_fp32", "--seed", "3", "--seconds", "0.5",
               "--trace", "0", *extra]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=170)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


class CommandContract(unittest.TestCase):
    def test_clean_run_is_correct(self):
        done = run_binary()
        self.assertEqual(done.returncode, 0, done.stderr)
        result = last_json(done.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_forced_logits_mismatch_fails_the_run(self):
        done = run_binary("--inject-fault", "logits")
        self.assertNotEqual(done.returncode, 0)
        result = last_json(done.stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_bad_arguments_fail(self):
        done = subprocess.run([BINARY, "--workload", "no_such_workload", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], capture_output=True, text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertIsNone(last_json(done.stdout))

    def test_without_library_sources_run_py_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as bare:
            shutil.copytree(PERFBENCH_DIR, os.path.join(bare, "perfbench"))
            done = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                                   "--workload", "fl_round", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=bare, capture_output=True, text=True,
                                  timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    BINARY = os.path.abspath(sys.argv[1])
    PERFBENCH_DIR = os.path.abspath(sys.argv[2])
    unittest.main(argv=sys.argv[:1])
