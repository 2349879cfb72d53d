"""Fast self-check of the benchmark harness (about a minute).

    python3 perfbench/selfcheck.py        # from the root of a checkout

1. The self-time arithmetic of the tracer on hand-made spans.
2. Every workload at the tiny scale, untraced and traced twice: every task
   and gate passes, every metric is printed, and the traced counts repeat
   exactly between the two traced runs.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits non-zero on the first failure.  Not part of the repository's test
suite: it checks the benchmark, not the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Tracer, self_times  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_self_times() -> None:
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],    # overlaps a: the union [1, 5] counts once
        ["c", 9.0, 12.0, 0],   # overhangs the parent: only [9, 10] counts
        ["a.x", 1.5, 2.5, 1],  # a grandchild never reaches the root
        ["d", 6.0, 6.0, 0],    # empty
    ]
    got = self_times(spans)
    want = [5.0, 1.0, 3.0, 3.0, 1.0, 0.0]
    check(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
          f"self_times {got} != {want}")

    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    leaf_w = tr.spanned("leaf", lambda: 1)
    outer_w = tr.spanned("outer", lambda: leaf_w() + leaf_w())
    check(outer_w() == 2, "wrapped call changed the result")
    # clock: outer opens at 0, leaves run 1-2 and 3-4, outer closes at 5
    check(tr.spans == [["outer", 0.0, 5.0, -1], ["leaf", 1.0, 2.0, 0],
                       ["leaf", 3.0, 4.0, 0]], f"spans {tr.spans}")
    check(self_times(tr.spans) == [3.0, 1.0, 1.0], f"self {self_times(tr.spans)}")


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        results = []
        for trace in (0, 1, 1):
            proc = run_bench(w, trace)
            check(proc.returncode == 0, f"{w} trace={trace} exited {proc.returncode}\n"
                                        f"{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w}: result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace={trace}: {res['failed']} failed\n{proc.stderr}")
            check(set(res["metrics"]) == (per_layer if trace else e2e),
                  f"{w} trace={trace}: metrics {sorted(res['metrics'])}")
            results.append(res["metrics"])
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] in ("count", "B")}
                  for m in results[1:]]
        check(counts[0] == counts[1], f"{w}: traced counts differ between runs")
        print(f"selfcheck: {w} ok")


def check_without_source() -> None:
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-selfcheck-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("diagram", 0, cwd=tmp)
        check(proc.returncode != 0, "ran without the package source")
        check('"correct"' not in proc.stdout, "printed a result without the source")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    check_self_times()
    print("selfcheck: self-time arithmetic ok")
    check_without_source()
    print("selfcheck: no-source directory exits non-zero")
    check_workloads()
    print("selfcheck: all ok")
