#!/usr/bin/env python3
"""Builds the LAD benchmark from this checkout and makes one run.

    python3 ladbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The first call configures and builds
ladbench (Release) into .bench_build/ladbench; later calls only rebuild
what changed.  Build output goes to stderr, so the last line of stdout is
the benchmark's result object.  Extra flags (--small 1, --refs FILE,
--digests-out FILE, --threads T) pass through to the binary.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs" / "digests.txt"


def fail(msg):
    print(f"ladbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "ladbench"


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "ladbench"]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed")
    return out / "ladbench"


def git_rev():
    # The ceiling stops git from reporting an enclosing repository's rev
    # when the checkout itself is not a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             env=env, check=False)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "correction", "online_check"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    for need in (ROOT / "src" / "CMakeLists.txt", ROOT / "CMakeLists.txt",
                 ROOT / "bench" / "scenarios"):
        if not need.exists():
            fail(f"not a LAD checkout: {need} is missing")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenarios", "bench/scenarios", "--out", ".bench_out",
           "--git-rev", git_rev()]
    if "--refs" not in extra:
        cmd += ["--refs", str(REFS)]
    res = subprocess.run(cmd + extra, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=False)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
