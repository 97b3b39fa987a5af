"""The benchmark's own tests, at reduced size (about a minute in all).

    python3 -m unittest discover -s ladbench/tests -v
"""
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload, *extra, seed=1, trace=0, env=None):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--small", "1", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, check=False)


def lines(proc):
    out = proc.stdout.strip().splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        names += WORKLOADS
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))


class SmallRuns(unittest.TestCase):
    """Every workload runs at reduced size, correct, with every metric."""

    def check(self, workload, trace, declared):
        proc = run(workload, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        header, result = lines(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[declared]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name in got:
            self.assertRegex(name, NAME)
        return header, result

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = self.check(w, 0, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_replay_counts_match_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                header, result = self.check(w, 1, "per_layer")
                metrics = result["metrics"]
                self.assertEqual(metrics["trace.ops"]["value"],
                                 header["ops_per_pass"])
                self.assertEqual(metrics["trace.shadow_mismatches"]["value"], 0)
                self.assertGreater(metrics["trace.coverage"]["value"], 0.5)


class Digests(unittest.TestCase):
    def digests(self, workload, threads, seed=1):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "d.txt"
            env = dict(os.environ, LAD_THREADS=str(threads))
            proc = run(workload, "--threads", str(threads), "--digests-out",
                       str(path), seed=seed, env=env)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return path.read_text().splitlines()[0]

    def test_stable_across_thread_counts_and_match_references(self):
        refs = (BENCH / "refs" / "digests.txt").read_text().splitlines()
        for w in WORKLOADS:
            for seed in (1, 2):  # the dev seed and the held-out seed
                with self.subTest(workload=w, seed=seed):
                    one = self.digests(w, 1, seed)
                    four = self.digests(w, 4, seed)
                    self.assertEqual(one, four)
                    self.assertIn(one, refs)

    def test_wrong_digest_is_a_failure_not_a_crash(self):
        refs = (BENCH / "refs" / "digests.txt").read_text().splitlines()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                line = next(l for l in refs if l.startswith(f"{w} small 1 "))
                head, digests = line.rsplit(" ", 1)
                first, _, rest = digests.partition(",")
                flipped = f"{int(first, 16) ^ 1:08x}"
                bad = f"{head} {flipped}{',' if rest else ''}{rest}\n"
                with tempfile.TemporaryDirectory() as tmp:
                    path = pathlib.Path(tmp) / "refs.txt"
                    path.write_text(bad)
                    proc = run(w, "--refs", str(path))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                _, result = lines(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, pathlib.Path(tmp) / "ladbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = [sys.executable, "ladbench/run.py", "--workload", "figures",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=tmp, capture_output=True,
                                  text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
