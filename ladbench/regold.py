#!/usr/bin/env python3
"""Regenerates ladbench/refs/digests.txt, the reference digests every run is
checked against.

    python3 ladbench/regold.py                # full size, seeds 0..63; small, seeds 1, 2

Each line is "<workload> <size> <seed> <digests>": one 32-bit FNV-1a digest
per scenario work item (its CSV rows as written), or, for online_check, one
digest of the whole verdict stream.  Only regenerate when a change is meant
to alter outputs, and say so in the change: the project's contract is that
CSVs stay byte-identical.
"""
import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["figures", "correction", "online_check"]
SMALL_SEEDS = [1, 2]  # the dev seed and the held-out seed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full-seeds", type=int, default=64,
                    help="full-size references for seeds 0..N-1")
    args = ap.parse_args()

    fd, tmp = tempfile.mkstemp(suffix=".txt")
    os.close(fd)
    runs = [(w, s, True) for w in WORKLOADS for s in SMALL_SEEDS]
    runs += [(w, s, False) for w in WORKLOADS for s in range(args.full_seeds)]
    for workload, seed, small in runs:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.001", "--trace", "0",
               "--refs", "", "--digests-out", tmp]
        if small:
            cmd += ["--small", "1"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=False)
        if res.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{res.stderr}")
    lines = pathlib.Path(tmp).read_text().splitlines()
    os.unlink(tmp)
    header = ("# ladbench reference digests (regenerate: python3 "
              "ladbench/regold.py)\n"
              "# <workload> <size> <seed> <digest per work item | verdict "
              "stream digest>\n")
    (BENCH / "refs" / "digests.txt").write_text(header + "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} reference lines")


if __name__ == "__main__":
    main()
