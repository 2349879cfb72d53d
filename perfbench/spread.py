"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads diagram,exact-mix,sampling \
        --seeds 1-10 [--trace 0] [--save results.json]

For every workload and metric prints the median, the quartiles and the
spread (Q3 - Q1) / median, which for end-to-end metrics is compared with a
third of the metric's bound in BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write every run's result object to this JSON file")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    saved, worst = {}, 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            stamp = next(json.loads(ln[6:]) for ln in lines if ln.startswith("stamp "))
            runs.append(dict(res, stamp=stamp, report=lines[1:-1]))
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed")
        saved[w] = runs
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            note = ""
            if bounds.get(name) is not None:
                note = f"  bound/3 {bounds[name] / 3:.4f}"
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
            print(f"{w:10s} {name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}{note}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
    if not args.trace:
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
