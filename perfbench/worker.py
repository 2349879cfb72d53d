"""One repetition of one workload, in a fresh interpreter.

Usage (normally started by run.py):
    python3 perfbench/worker.py '{"root": ".", "workload": "diagram", "seed": 1,
                                  "scale": "full", "traced": false,
                                  "tmpdir": ".perfbench-tmp-123", "setup_only": false}'

Imports the package from <root>/src, pays the first-call set-up a CLI user
pays, runs the workload's tasks (timed, outputs kept), then checks every
output.  Prints one JSON object as the last line of stdout.

Costs are CPU time of this process (numpy/BLAS pools are pinned to one
thread by run.py), so a machine shared with other processes slows the wall
clock but not the figures.  They come raw and at reference speed ("_ref"):
the CPU time of fixed work still changes with what shares the core, so
fixed computations (the probes) are timed, in CPU time, all through the task
list, and each cost is rescaled by PROBE_REF_S / (mean probe while it ran).
Wall times are reported beside them.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# The smallest CLI invocation; its cost is part of set-up.
FIRST_CALL = ["classify", "--p", "4", "--beta", "0.51", "--h", "0.184"]

# The reference speed: each probe's median CPU time on the machine where the
# benchmark was defined (2-core Xeon VM, Python 3.11) was 0.8-1.1 ms, and
# "_ref" costs are at the speed where it takes PROBE_REF_S.
PROBE_REF_S = 0.8e-3
PROBE_INTERVAL_S = 0.05
SETUP_PROBES = 15
# Tasks of one label are rescaled by the mean of the probes taken while they
# ran, if there are this many; else by every probe of the task list.  The
# host's speed flips between two levels many times a second (a busy or idle
# sibling hyperthread), so a cost is the work times the mean slowdown over
# its stretch: the mean of the probes follows it, a median does not, and
# trimming the slowest probes would miss the slow stretches.  A probe is
# timed in CPU time, so being descheduled does not inflate it.
MIN_SAMPLES = 10



def scalar_probe() -> float:
    """~1 ms of interpreter and libm work, like the chain step loops;
    allocates no tracked objects."""
    s, x = 0.0, 0.3
    for i in range(2500):
        s += math.tanh(x * 1.0001) + math.sqrt(i * 0.5) + math.log1p(x)
        x = 0.3 + (i & 7) * 0.01
    return s


_LEVELS: list = []  # up, down, stay, start law; made on first use


def vector_probe() -> float:
    """~1 ms of elementwise numpy work on 3201-level arrays, like the level
    law pushforward.  numpy is imported on first use, so that set-up,
    measured before, still pays for it."""
    import numpy as np
    if not _LEVELS:
        up = np.linspace(0.1, 0.4, 3201)
        down = up[::-1].copy()
        _LEVELS.extend([up, down, 1.0 - up - down, np.full(3201, 1.0 / 3201)])
    up, down, stay, start = _LEVELS
    mu, new = start.copy(), np.empty_like(start)
    for _ in range(60):
        np.multiply(mu, stay, out=new)
        new[1:] += mu[:-1] * up[:-1]
        new[:-1] += mu[1:] * down[1:]
        mu, new = new, mu
    return float(mu.sum())


def _calls_f(x: float) -> float:
    return math.tanh(1.3 * x) - 0.9 * x + 0.01


_CALLS_XS = [0.05 + 0.0004 * i for i in range(5000)]


def calls_probe() -> float:
    """~1 ms of calls to a small Python function from a C loop, like the
    many free-energy evaluations of the phase diagram's root finding."""
    return sum(map(_calls_f, _CALLS_XS))


# A task is rescaled by the probe whose work is most like its own
# (`workloads.Task.probe`).  In trials on the defining machine, under a
# contended CPU, the matching probe cut the spread of a task's rescaled CPU
# time to a half to a quarter of the raw one; an unlike probe did less.
PROBES = {"scalar": scalar_probe, "vector": vector_probe, "calls": calls_probe}


def timed_probe(kind: str = "scalar") -> float:
    """CPU time of one probe of this kind."""
    t = time.process_time()
    PROBES[kind]()
    return time.process_time() - t


class SpeedProbe:
    """Times each probe of `kinds` every PROBE_INTERVAL_S of wall time, on a
    SIGALRM.

    The handler runs between bytecodes of whatever task is running, so the
    samples follow the machine's speed through the whole task list.
    `spent_cpu` and `spent_wall` are what the handler took, which callers
    subtract from what they time.  A signal that arrives while a sample is being taken is
    dropped, and the handler is left ignoring SIGALRM on exit, so a late
    signal can neither nest samples nor end the process.
    """

    def __init__(self, kinds):
        self.samples = {kind: [] for kind in kinds}  # CPU seconds per probe
        self.spent_cpu = 0.0
        self.spent_wall = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        w, c = time.perf_counter(), time.process_time()
        for kind, series in self.samples.items():
            series.append(timed_probe(kind))
        self.spent_cpu += time.process_time() - c
        self.spent_wall += time.perf_counter() - w
        self._busy = False

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample(None, None)

    def count(self) -> int:
        return len(next(iter(self.samples.values())))

    def mean(self, kind: str, spans: list) -> float:
        """Mean probe of this kind over the sample index ranges `spans`, or
        over all samples if they hold fewer than MIN_SAMPLES."""
        series = self.samples[kind]
        picked = [x for lo, hi in spans for x in series[lo:hi]]
        return statistics.fmean(picked if len(picked) >= MIN_SAMPLES else series)


def _import_package(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    from pspin_glauber import cli, dynamics, mixing_analysis, phase_geometry, potential
    return SimpleNamespace(cli=cli, dynamics=dynamics, mixing_analysis=mixing_analysis,
                           phase_geometry=phase_geometry, potential=potential)


def main(cfg: dict) -> dict:
    before = [timed_probe() for _ in range(SETUP_PROBES)]
    t0, c0 = time.perf_counter(), time.process_time()
    modules = _import_package(cfg["root"])
    import_s = time.process_time() - c0
    with redirect_stdout(io.StringIO()):
        rc = modules.cli.main(FIRST_CALL)
    setup_s = time.process_time() - c0
    setup_wall_s = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"first call exited {rc}")

    import workloads
    from tracer import Tracer

    after = [timed_probe() for _ in range(SETUP_PROBES)]
    import numpy
    import scipy
    out = {"import_s": import_s, "setup_s": setup_s, "setup_wall_s": setup_wall_s,
           "setup_ref_s": setup_s * PROBE_REF_S / statistics.fmean(before + after),
           "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if cfg.get("setup_only"):
        return out

    tracer = Tracer() if cfg["traced"] else None
    runner = workloads.Runner(modules, tracer)
    wl = workloads.build(cfg["workload"], cfg["seed"], cfg["scale"], runner, cfg["tmpdir"])
    if tracer is not None:
        import layers
        layers.instrument(tracer, modules)

    # (output, error, CPU s and wall s without the probes' time)
    results = []
    spans = {}  # label -> sample index ranges taken while its tasks ran
    with SpeedProbe({task.probe for task in wl.tasks}) as speed:
        for task in wl.tasks:
            n0 = speed.count()
            t, c = time.perf_counter(), time.process_time()
            spent_cpu, spent_wall = speed.spent_cpu, speed.spent_wall
            try:
                res, err = task.run(), None
            except Exception:
                res, err = None, traceback.format_exc()
            cpu = time.process_time() - c - (speed.spent_cpu - spent_cpu)
            wall = time.perf_counter() - t - (speed.spent_wall - spent_wall)
            results.append((res, err, cpu, wall))
            spans.setdefault(task.label, []).append((n0, speed.count()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.unpatch_all()
        runner.tracer = None  # the checks' own CLI calls are not traced

    failures = []
    work = {"primary": [0.0, 0.0], "secondary": [0.0, 0.0]}  # units, CPU s at ref
    task_s = {}
    cpu_s = cpu_ref_s = wall_s = 0.0
    for task, (res, err, cpu, wall) in zip(wl.tasks, results):
        cpu_ref = cpu * PROBE_REF_S / speed.mean(task.probe, spans[task.label])
        cpu_s += cpu
        cpu_ref_s += cpu_ref
        wall_s += wall
        task_s[task.label] = task_s.get(task.label, 0.0) + cpu
        if err is None:
            try:
                task.check(res)
                for key, units in task.work.items():
                    work[key][0] += units(res) if callable(units) else units
                    work[key][1] += cpu_ref
            except workloads.CheckFailed as exc:
                err = f"check failed: {exc}"
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failures.append(f"{task.name}: {err}")
    for name, gate in wl.gates:
        try:
            gate()
        except workloads.CheckFailed as exc:
            failures.append(f"gate {name}: {exc}")
        except Exception:
            failures.append(f"gate {name}: {traceback.format_exc()}")

    out.update(
        cpu_s=cpu_s, cpu_ref_s=cpu_ref_s, wall_s=wall_s, peak_rss_mb=rss_mb,
        attempted=len(wl.tasks) + len(wl.gates), failed=len(failures),
        failures=failures, info=wl.info, task_s=task_s,
        rates_ref={k: (u / s if s > 0 else 0.0) for k, (u, s) in work.items()},
    )
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, wl.info)
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
