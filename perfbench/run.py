"""Benchmark of the pspin-glauber CLI and library, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload diagram --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `diagram`, `exact-mix`, `sampling`.

Each repetition of a workload runs in a fresh interpreter (worker.py), one
at a time, so every repetition pays the import and first-call set-up a CLI
user pays, and no cache survives from one repetition to the next.
Repetitions continue while the next one fits in --seconds (at least one),
and never past RUN_LIMIT_S of wall time.  Figures are medians over
repetitions; costs are CPU time of the worker, rescaled to a reference
machine speed measured all through the run (see worker.py and README.md).
Set-up is also measured in a few extra interpreters that only import and
make the first call.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced repetitions, traced first, and prints the per-layer metrics,
including the tracing overhead.  The last stdout line is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 when a result was printed, 1 when a repetition could not run,
2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import RATE_NAMES, WORKLOADS  # noqa: E402

SETUP_RUNS = 5
# Every run must end within 180 s of wall time.  Repetitions stop early
# enough that one more as long as the longest so far still ends by this.
RUN_LIMIT_S = 150.0


def metric_specs() -> tuple[list, list]:
    """(end_to_end, per_layer) as [(name, unit)] from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ([(m["name"], m["unit"]) for m in bench["end_to_end"]],
            [(m["name"], m["unit"]) for m in bench["per_layer"]])


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    env = dict(os.environ)
    # One thread, so that the worker's CPU time is the work of its tasks
    # and no idle pool thread spins on the clock.
    threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env.pop("PSPIN_GLAUBER_JOBS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(cfg: dict, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker exceeded {timeout:.0f} s: {cfg}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {cfg}\n{proc.stderr}")
    return json.loads(lines[-1])


def commit_id() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the package's source files, a commit id that needs no git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "pspin_glauber")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    env = worker_env()
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    t_start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    base = {"root": ROOT, "workload": workload, "seed": seed, "scale": scale,
            "tmpdir": tmpdir, "traced": False, "setup_only": False}
    try:
        setups = [run_worker(dict(base, setup_only=True), env, remaining())
                  for _ in range(SETUP_RUNS)]
        reps = []
        t0 = time.monotonic()
        longest = 0.0
        while True:
            traced = trace and len(reps) % 2 == 0
            r0 = time.monotonic()
            rep = run_worker(dict(base, traced=traced), env, remaining())
            rep["traced"] = traced
            reps.append(rep)
            longest = max(longest, time.monotonic() - r0)
            kinds = {r["traced"] for r in reps}
            complete = kinds == {True, False} if trace else True
            if longest > remaining() - 5.0:  # the next one might not end in time
                if not complete:
                    raise RuntimeError("no time left for an untraced repetition")
                break
            if complete and time.monotonic() - t0 + longest > seconds:
                break
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return {"setups": setups, "reps": reps}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarise(raw: dict, trace: bool) -> tuple[dict, dict, dict]:
    """(end-to-end, per-layer, unscaled) figures of one run.

    End-to-end costs and rates are the workers' CPU figures at reference
    speed (see worker.py); memory is as measured.  The unscaled CPU times
    and the wall times are returned too, with the speed factor: CPU time at
    reference speed / unscaled.
    """
    plain = [r for r in raw["reps"] if not r["traced"]]
    traced = [r for r in raw["reps"] if r["traced"]]
    setups = raw["setups"] + raw["reps"]
    e2e = {
        "cpu_s": median([r["cpu_ref_s"] for r in plain]),
        "setup_s": median([r["setup_ref_s"] for r in setups]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "primary_rate": median([r["rates_ref"]["primary"] for r in plain]),
        "secondary_rate": median([r["rates_ref"]["secondary"] for r in plain]),
    }
    unscaled = {
        "cpu_s": median([r["cpu_s"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in setups]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "setup_wall_s": median([r["setup_wall_s"] for r in setups]),
        "speed_factor": e2e["cpu_s"] / median([r["cpu_s"] for r in plain]),
    }
    layers = {}
    if trace:
        for k in traced[0]["layers"]:
            vals = [r["layers"][k] for r in traced]
            layers[k] = vals[0] if isinstance(vals[0], int) else median(vals)
            if isinstance(vals[0], int) and len(set(vals)) != 1:
                raise RuntimeError(f"count {k} differs between traced repetitions: {vals}")
        layers["setup.import_s"] = median([r["import_s"] for r in traced])
        traced_cpu = median([r["cpu_ref_s"] for r in traced])
        layers["trace.overhead_frac"] = (traced_cpu - e2e["cpu_s"]) / e2e["cpu_s"]
    return e2e, layers, unscaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="'tiny' runs every task and gate on small inputs (self-check)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pspin_glauber", "__init__.py")):
        print("error: package source src/pspin_glauber not found under "
              f"{ROOT}", file=sys.stderr)
        return 2
    # A terminated run still stops its worker and removes its temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    trace = bool(args.trace)
    try:
        end_to_end, per_layer_specs = metric_specs()
        raw = measure(args.workload, args.seed, args.seconds, trace, args.scale)
        e2e, per_layer, unscaled = summarise(raw, trace)
        specs, values = (per_layer_specs, per_layer) if trace else (end_to_end, e2e)
        missing = sorted({n for n, _ in specs} - values.keys())
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1

    reps = raw["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for f in r["failures"]:
            print(f"FAILED: {f}", file=sys.stderr)

    stamp = {
        "commit": commit_id(), "source_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "nproc": nproc(),
        "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": reps[0]["versions"]["numpy"], "scipy": reps[0]["versions"]["scipy"],
        "repetitions": len(reps), "setup_samples": len(raw["setups"]) + len(reps),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload} speed_factor = {unscaled['speed_factor']:.4g} "
          f"(cpu_s at reference speed / unscaled cpu_s)")
    print(f"{args.workload} unscaled cpu_s = {unscaled['cpu_s']:.6g} s, "
          f"setup_s = {unscaled['setup_s']:.6g} s")
    print(f"{args.workload} wall time of the task list = {unscaled['wall_s']:.6g} s, "
          f"of set-up = {unscaled['setup_wall_s']:.6g} s")
    primary, secondary = RATE_NAMES[args.workload]
    alias = {"primary_rate": primary, "secondary_rate": secondary}
    for name, unit in end_to_end:
        label = f"{name} ({alias[name]})" if name in alias else name
        print(f"{args.workload} {label} = {e2e[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} tasks and gates)")
    plain = [r for r in reps if not r["traced"]]
    for label in plain[0]["task_s"]:
        secs = median([r["task_s"][label] for r in plain])
        print(f"{args.workload} task {label} = {secs:.4g} s CPU")
    for name, unit in per_layer_specs if trace else []:
        print(f"{args.workload} {name} = {per_layer[name]:.6g} {unit}")

    metrics = {n: {"value": values[n], "unit": u} for n, u in specs}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
