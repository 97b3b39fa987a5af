#!/usr/bin/env python3
"""Steadiness report: repeats benchmark runs over seeds and prints, for every
end-to-end metric, the median, the quartiles and the spread (q3 - q1) as a
share of the median, next to the bound BENCHMARK.json gives it.

    python3 ladbench/steady.py --seeds 10                # every workload
    python3 ladbench/steady.py --workloads figures --seeds 5 --first-seed 100

Quartiles are statistics.quantiles(values, n=4).  A metric is steady when
its spread is below a third of its bound (setup_s is reported but only its
median is compared between two reports).  --json FILE keeps the raw values.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}:\n"
                           f"{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", help="write the raw values here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    worst = 0.0
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = one_run(w, seed, args.seconds)
            if not r["correct"]:
                print(f"{w} seed {seed}: INCORRECT ({r['failed']} of "
                      f"{r['attempted']} failed)", file=sys.stderr)
            runs.append(r)
        raw[w] = runs
        print(f"\n{w}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1}, {args.seconds:g} s each")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
                if spread > bounds[name] / 3:
                    flag = "  <- above bound/3"
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{bounds[name]:>7.2f}  {unit}{flag}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
