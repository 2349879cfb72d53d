"""The benchmark's workloads: task lists, the work each task does, and checks.

A workload is a list of `Task`s run back to back in one process.  Each task
drives the program the way a user does: `pspin_glauber.cli.main(argv)` for a
CLI command, or the public library function where no command exists.  The
workload seed only shapes the generated argv and library arguments.

Every task carries a check that raises `CheckFailed` on a wrong output, and
every workload has gates run after the timed tasks.  Checks compare against
`oracles` (independent of the package) or against answers recorded at the
commit that defined the benchmark (`reference.json`).
"""

from __future__ import annotations

import base64
import io
import json
import math
import os
import random
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Phase-diagram ranges of the README example (the step is per scale, see
# SCALES: the full scale uses twice the README's 0.005, a quarter of its
# cells); the point-query betas come from (0.34, 1.2), the part of the p=4
# axis above beta_hat where curves exist.
GRID_BETA = (0.01, 1.2)
GRID_H = (-1.0, 1.0)
CLASSIFY_BETA_RANGE = (0.34, 1.2)

REGULAR = (4, 0.054, 0.5)
SPECIAL = (4, "1/3", "0.40996906622851137")
CRITICAL = (4, 0.51, 0.184)
COEXIST = (4, 0.9, 0.0)
COUPLING = (3, 0.05, 0.1)
EPS = 0.35

# Sizes per scale.  "full" is the benchmark; "tiny" runs every task and gate
# in a few seconds for the harness self-check.
SCALES = {
    "full": {
        "grid_step": 0.01, "grid_ps": (4, 5),
        "classify_betas": 12, "classify_per_beta": 25,
        "regular_ns": (400, 800, 1600, 3200, 6400), "special_ns": (200, 400, 800, 1600),
        "sweep_cap": 1_000_000, "critical_n": 200, "critical_cap": 100_000,
        "restricted_n": 400, "bottleneck_n": 3200,
        "power_checks": (("regular", 400), ("special", 200)),
        "sample_n": 2000, "coupling_n": 200, "coupling_steps": 100_000,
        "chain_n": 200, "chain_steps": 100_000,
        "mc_n": 200, "mc_replicas": 10_000, "draws_n": 200, "draws": 10_000,
    },
    "tiny": {
        "grid_step": 0.05, "grid_ps": (4, 5),
        "classify_betas": 3, "classify_per_beta": 4,
        "regular_ns": (40, 80), "special_ns": (40,),
        "sweep_cap": 100_000, "critical_n": 40, "critical_cap": 3000,
        "restricted_n": 40, "bottleneck_n": 100,
        "power_checks": (("regular", 40), ("special", 40)),
        "sample_n": 100, "coupling_n": 40, "coupling_steps": 3000,
        "chain_n": 40, "chain_steps": 3000,
        "mc_n": 40, "mc_replicas": 4000, "draws_n": 40, "draws": 8000,
    },
}

WORKLOADS = ("diagram", "exact-mix", "sampling")

# What primary_rate and secondary_rate count on each workload.
RATE_NAMES = {
    "diagram": ("grid_cells_per_s", "classify_points_per_s"),
    "exact-mix": ("level_steps_per_s", "sweep_level_steps_per_s"),
    "sampling": ("chain_steps_per_s", "sampler_draws_per_s"),
}


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class CliOutput:
    rc: int
    stdout: str


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # metric name -> work units, or a function of the output giving them
    work: dict = field(default_factory=dict)
    label: str = ""  # tasks with one label are timed together; default name
    # the speed probe its cost is rescaled by (worker.PROBES): "calls" for
    # diagram, "vector" for the level-law pushforward of exact-mix, "scalar"
    # for sampling, the replica engine included (in trials it followed the
    # scalar probe)
    probe: str = "scalar"

    def __post_init__(self):
        self.label = self.label or self.name


@dataclass
class Workload:
    tasks: list
    gates: list  # (name, fn) run after the timed tasks
    info: dict = field(default_factory=dict)  # counts the checks observed


def _num(x) -> str:
    return x if isinstance(x, str) else repr(x)


def _real(x) -> float:
    if isinstance(x, str) and "/" in x:
        a, b = x.split("/")
        return float(a) / float(b)
    return float(x)


def _model_args(point) -> list[str]:
    p, beta, h = point
    return ["--p", str(p), "--beta", _num(beta), "--h", _num(h)]


def _model(point):
    p, beta, h = point
    return p, _real(beta), _real(h)


def load_reference(scale: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[scale]


def decode_grid(text: str) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.int8)


def encode_grid(codes) -> str:
    raw = np.asarray(codes, dtype=np.int8).tobytes()
    return base64.b64encode(zlib.compress(raw, 9)).decode("ascii")


class Runner:
    """Calls into the program: cli.main in-process, with stdout captured."""

    def __init__(self, modules, tracer=None):
        self.m = modules
        self.tracer = tracer

    def cli(self, argv: list[str]) -> CliOutput:
        buf = io.StringIO()
        span = self.tracer.open("cli.main") if self.tracer else None
        try:
            with redirect_stdout(buf):
                rc = self.m.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv: a failed task
            rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            if span is not None:
                self.tracer.close(span)
        return CliOutput(rc=rc, stdout=buf.getvalue())


def _json_payload(out: CliOutput, kind: str) -> dict:
    require(out.rc == 0, f"exit code {out.rc}")
    doc = json.loads(out.stdout)
    require(doc.get("schema_version") == "1" and doc.get("report") == kind,
            f"not a {kind} document")
    return doc["payload"]


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("# schema_version="),
            "missing schema line")
    require(lines[1] == header, f"header {lines[1]!r} != {header!r}")
    return [ln.split(",") for ln in lines[2:]]


# -- diagram ------------------------------------------------------------------


def _diagram(sc, rng, runner, ref, tmpdir) -> Workload:
    info = {"uncertain_cells": 0, "cells_changed": 0}
    bands = {p: oracles.CurveBand(p) for p in sc["grid_ps"] + (4,)}
    tasks = []
    step = sc["grid_step"]
    for p in sc["grid_ps"]:
        prefix = os.path.join(tmpdir, f"diagram_p{p}")
        argv = ["phase-diagram", "--p", str(p),
                "--beta-min", repr(GRID_BETA[0]), "--beta-max", repr(GRID_BETA[1]),
                "--beta-step", repr(step), "--h-min", repr(GRID_H[0]),
                "--h-max", repr(GRID_H[1]), "--h-step", repr(step),
                "--jobs", "1", "--out-prefix", prefix]
        n_beta = int(math.floor((GRID_BETA[1] - GRID_BETA[0]) / step + 1e-9)) + 1
        n_h = int(math.floor((GRID_H[1] - GRID_H[0]) / step + 1e-9)) + 1
        tasks.append(Task(
            name=f"phase-diagram p={p}",
            run=lambda argv=argv: runner.cli(argv),
            check=lambda out, p=p, prefix=prefix, n_beta=n_beta, n_h=n_h:
                _check_grid(out, p, prefix, n_beta, n_h, bands[p],
                            decode_grid(ref["grids"][str(p)]), info),
            work={"primary": n_beta * n_h},
            probe="calls",
        ))

    # Stratified betas: the range is cut at beta_tilde(4), above which the
    # C curve vanishes and a query costs about a tenth as much, and each part
    # into slices of near-equal width with one beta drawn per slice.  Every
    # seed then puts the same number of queries on each side of beta_tilde.
    lo, hi = CLASSIFY_BETA_RANGE
    cut = oracles.beta_tilde(4)
    n_b = sc["classify_betas"]
    n_lo = max(1, round(n_b * (cut - lo) / (hi - lo)))
    slices = ([(lo + (cut - lo) * i / n_lo, (cut - lo) / n_lo) for i in range(n_lo)]
              + [(cut + (hi - cut) * i / (n_b - n_lo), (hi - cut) / (n_b - n_lo))
                 for i in range(n_b - n_lo)])
    queries = []
    for start, width in slices:
        beta = start + width * rng.random()
        for _ in range(sc["classify_per_beta"]):
            queries.append((beta, rng.uniform(-1.0, 1.0)))
    for beta, h in queries:
        # "--h=" form: a tiny negative h prints as "-5e-05", which argparse
        # would take for an option after a separate "--h"
        argv = ["classify", "--p", "4", f"--beta={beta!r}", f"--h={h!r}", "--margins"]
        tasks.append(Task(
            name=f"classify p=4 beta={beta!r} h={h!r}",
            run=lambda argv=argv: runner.cli(argv),
            check=lambda out, beta=beta, h=h: _check_classify(out, beta, h, bands[4]),
            work={"secondary": 1},
            label="classify p=4 --margins",
            probe="calls",
        ))

    def reference_points():
        expect = [(REGULAR, "LocallyRegular"), (SPECIAL, "Special"),
                  (CRITICAL, "LocallyCritical")]
        for point, region in expect:
            got = _json_payload(runner.cli(["classify"] + _model_args(point)),
                                "PhaseReport")["region"]
            require(got == region, f"{point} classified {got}, expected {region}")

    return Workload(tasks=tasks, gates=[("reference points", reference_points)],
                    info=info)


def _check_grid(out, p, prefix, n_beta, n_h, band, ref_codes, info):
    require(out.rc == 0, f"exit code {out.rc}")
    with open(prefix + ".grid.csv") as fh:
        rows = _csv_rows(fh.read(), "beta,h,region_code")
    require(len(rows) == n_beta * n_h, f"{len(rows)} grid rows, expected {n_beta * n_h}")
    codes = np.array([int(r[2]) for r in rows], dtype=np.int8)
    require(set(np.unique(codes).tolist()) <= {0, 1, 2, 3, 9}, "unknown region code")
    agree = total = 0
    for r, code in zip(rows, codes.tolist()):
        expected = band.verdict(float(r[0]), float(r[1]))
        if expected is None:
            continue
        total += 1
        agree += (code == 1) == (expected == 1)
    require(total > 0 and agree / total > 0.999,
            f"p={p}: grid agrees with the U/L band on {agree}/{total} cells")
    info["uncertain_cells"] += int((codes == 9).sum())
    info["cells_changed"] += int((codes != ref_codes).sum()) if len(ref_codes) == len(codes) else len(codes)

    with open(prefix + ".curves.csv") as fh:
        curves = _csv_rows(fh.read(), "beta,U,L,C")
    # curves exist only above beta_hat; the curves file lists only those betas
    above = sum(GRID_BETA[0] + i * (GRID_BETA[1] - GRID_BETA[0]) / (n_beta - 1)
                > band.b_hat + 1e-9 for i in range(n_beta))
    require(len(curves) == above, f"{len(curves)} curve rows, expected {above}")
    for beta_s, U, L, _ in curves:
        beta = float(beta_s)
        require(beta > band.b_hat, f"curve row below beta_hat at {beta}")
        u_ref, l_ref = band.curves(beta)
        require(abs(float(U) - u_ref) <= 1e-8, f"U({beta}) = {U}, oracle {u_ref}")
        if abs(beta - band.b_prime) > 1e-6:
            require((L == "") == (l_ref is None), f"L presence differs at {beta}")
        if L != "" and l_ref is not None:
            require(abs(float(L) - l_ref) <= 1e-8, f"L({beta}) = {L}, oracle {l_ref}")


def _check_classify(out, beta, h, band):
    d = _json_payload(out, "PhaseReport")
    require(d["region"] in ("LocallyRegular", "LocallyCritical", "Special", "Boundary"),
            f"unknown region {d['region']}")
    require(d["margin"] is not None and abs(d["margin"] - band.margin(beta, h)) <= 1e-8,
            f"margin {d['margin']} vs oracle {band.margin(beta, h)}")
    maxima = [s for s in d["stationary_points"] if s["kind"] == "LocalMax"]
    require(len(maxima) >= 1, "no local maximizer reported")
    require((d["region"] == "LocallyCritical") == (len(maxima) >= 2),
            "region disagrees with the number of maximizers")
    verdict = band.verdict(beta, h)
    if verdict is not None:
        require((d["region"] == "LocallyCritical") == (verdict == 1),
                f"region {d['region']} but the U/L band says {verdict}")


# -- exact-mix ----------------------------------------------------------------


def _levels_work(t_by_start: dict, cap: int, N: int) -> int:
    """Sum over starts of the horizon (crossing time, or cap if capped) x (N+1)."""
    return sum((cap if t is None else t) * (N + 1) for t in t_by_start.values())


def _exact_mix(sc, rng, runner, ref, tmpdir) -> Workload:
    tasks = []
    cap = sc["sweep_cap"]
    sweep_t = {}  # (name, N) -> reported t_mix, for the power gate
    for name, point, ns in (("regular", REGULAR, sc["regular_ns"]),
                            ("special", SPECIAL, sc["special_ns"])):
        argv = (["mix-sweep"] + _model_args(point)
                + ["--n-list", ",".join(map(str, ns)), "--cap", str(cap), "--jobs", "1"])
        refs = {n: ref["mix"][f"{name}/{n}"] for n in ns}
        work = sum(_levels_work(_starts(r), cap, n) for n, r in refs.items())
        tasks.append(Task(
            name=f"mix-sweep {name}",
            run=lambda argv=argv: runner.cli(argv),
            check=lambda out, name=name, refs=refs: _check_sweep(out, name, refs, sweep_t),
            work={"primary": work, "secondary": work},
            probe="vector",
        ))

    for name, cmd, n, c in (("critical", "mix", sc["critical_n"], sc["critical_cap"]),
                            ("restricted", "restricted-mix", sc["restricted_n"],
                             sc["critical_cap"])):
        argv = [cmd] + _model_args(CRITICAL) + ["--n", str(n), "--cap", str(c)]
        r = ref["mix"][f"{name}/{n}"]
        tasks.append(Task(
            name=f"{cmd} critical N={n}",
            run=lambda argv=argv: runner.cli(argv),
            check=lambda out, r=r: _check_mix_report(out, r),
            work={"primary": lambda out, c=c, n=n: _levels_work(
                      _starts(_json_payload(out, "MixingReport")), c, n)},
            probe="vector",
        ))

    nb = sc["bottleneck_n"]
    tasks.append(Task(
        name=f"bottleneck critical N={nb}",
        run=lambda: runner.cli(["bottleneck"] + _model_args(CRITICAL) + ["--n", str(nb)]),
        check=lambda out: _check_bottleneck(out, nb),
        probe="vector",
    ))

    def power_gate():
        for name, n in sc["power_checks"]:
            p, beta, h = _model(REGULAR if name == "regular" else SPECIAL)
            want = oracles.mixing_time_by_power(p, beta, h, n, EPS, cap)
            got = sweep_t.get((name, n))
            require(got == want, f"{name} N={n}: t_mix {got}, level-chain power {want}")

    return Workload(tasks=tasks, gates=[("level-chain power", power_gate)])


def _starts(r: dict) -> dict:
    return {int(k): v for k, v in r["t_by_start"].items()}


def _check_sweep(out, name, refs, sweep_t):
    require(out.rc == 0, f"exit code {out.rc}")
    rows = _csv_rows(out.stdout, "N,t_mix,capped,method")
    require([int(r[0]) for r in rows] == sorted(refs), "N values differ")
    for n_s, t_s, capped_s, method in rows:
        n, r = int(n_s), refs[int(n_s)]
        require(method == "ExactProjected", f"method {method}")
        require((capped_s == "true") == r["capped"], f"{name} N={n}: capped flag differs")
        t = None if t_s == "" else int(t_s)
        sweep_t[(name, n)] = t
        require((t is None) == (r["t_mix"] is None)
                and (t is None or abs(t - r["t_mix"]) <= 1),
                f"{name} N={n}: t_mix {t}, recorded {r['t_mix']}")


def _check_mix_report(out, r):
    d = _json_payload(out, "MixingReport")
    require(d["capped"] == r["capped"], "capped flag differs from the recorded one")
    require((d["t_mix"] is None) == (r["t_mix"] is None)
            and (d["t_mix"] is None or abs(d["t_mix"] - r["t_mix"]) <= 1),
            f"t_mix {d['t_mix']}, recorded {r['t_mix']}")
    for k, t in r["t_by_start"].items():
        got = d["t_by_start"].get(k)
        require((got is None) == (t is None) and (t is None or abs(got - t) <= 1),
                f"t_by_start[{k}] = {got}, recorded {t}")


def _check_bottleneck(out, N):
    d = _json_payload(out, "BottleneckReport")
    require(len(d["cuts"]) == 2 * N, f"{len(d['cuts'])} cuts, expected {2 * N}")
    p, beta, h = _model(CRITICAL)
    want = oracles.log_phi_star(p, beta, h, N)
    require(abs(d["log_phi_star"] - want) <= 1e-9 * max(1.0, abs(want)),
            f"log phi* {d['log_phi_star']}, oracle {want}")
    require(min(c["log_ratio"] for c in d["cuts"] if c["log_pi_A"] <= math.log(0.5))
            == d["log_phi_star"], "log phi* is not the minimum over admissible cuts")


# -- sampling -----------------------------------------------------------------


def _sampling(sc, rng, runner, ref, tmpdir) -> Workload:
    m = runner.m
    seeds = [rng.randrange(1 << 31) for _ in range(5)]
    tasks = []

    n = sc["sample_n"]
    burn = int(math.ceil(10.0 * n * math.log(n)))
    tasks.append(Task(
        name=f"sample coexistence N={n}",
        run=lambda: runner.cli(["sample"] + _model_args(COEXIST)
                               + ["--n", str(n), "--seed", str(seeds[0])]),
        check=lambda out: _check_sample(out, n, burn),
        work={"primary": 2 * burn},
    ))

    nc, steps = sc["coupling_n"], sc["coupling_steps"]
    tasks.append(Task(
        name=f"coupling N={nc}",
        run=lambda: runner.cli(["coupling"] + _model_args(COUPLING)
                               + ["--n", str(nc), "--steps", str(steps),
                                  "--seed", str(seeds[1])]),
        check=lambda out: _check_coupling(out, nc, steps),
        work={"primary": steps},
    ))

    nr, rsteps = sc["chain_n"], sc["chain_steps"]
    tasks.append(Task(
        name=f"run_chain N={nr}",
        run=lambda: m.dynamics.run_chain(m.dynamics.RunSpec(
            params=m.potential.ModelParams(*_model(COEXIST)), N=nr,
            steps=rsteps, seed=seeds[2])),
        check=lambda trace: _check_chain(trace, nr, rsteps),
        work={"primary": rsteps},
    ))

    nm = sc["mc_n"]
    tasks.append(Task(
        name=f"mix --method mc regular N={nm}",
        run=lambda: runner.cli(["mix"] + _model_args(REGULAR)
                               + ["--n", str(nm), "--method", "mc",
                                  "--replicas", str(sc["mc_replicas"]),
                                  "--seed", str(seeds[3])]),
        check=lambda out: _check_mc_mix(out, nm),
    ))

    nd, draws = sc["draws_n"], sc["draws"]
    tasks.append(Task(
        name=f"metastable_sample_sums N={nd}",
        run=lambda: m.dynamics.metastable_sample_sums(m.dynamics.MetastableSpec(
            params=m.potential.ModelParams(*_model(COEXIST)), N=nd,
            seed=seeds[4]), draws),
        check=lambda sums: _check_draws(sums, nd, draws),
        work={"secondary": draws},
    ))
    return Workload(tasks=tasks, gates=[])


def _check_sample(out, N, burn):
    d = _json_payload(out, "SamplerReport")
    require(d["burn_steps"] == burn, f"burn {d['burn_steps']}, expected {burn}")
    require(len(d["windows"]) == 2 and len(d["weights"]) == 2,
            "coexistence point must give two windows")
    require(abs(sum(d["weights"]) - 1.0) <= 1e-12, "weights do not sum to 1")
    for (lo, hi), s, acc in zip(d["windows"], d["final_sums"], d["acceptance_rates"]):
        require(lo <= s <= hi and abs(s) <= N and (s + N) % 2 == 0,
                f"final sum {s} outside window [{lo}, {hi}] or state space")
        require(0.0 < acc <= 1.0, f"acceptance rate {acc}")
    require(d["chosen"] in (0, 1), f"chosen {d['chosen']}")


def _check_coupling(out, N, steps):
    require(out.rc == 0, f"exit code {out.rc}")
    rows = _csv_rows(out.stdout, "t,mag_sum,hamming,untouched")
    require(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
    ham = [int(r[2]) for r in rows]
    require(ham[0] == N and ham[-1] == 0, "coupled chains did not coalesce")
    first = ham.index(0)
    require(all(v == 0 for v in ham[first:]), "coupled chains separated again")
    untouched = [int(r[3]) for r in rows]
    require(all(a >= b for a, b in zip(untouched, untouched[1:])),
            "untouched count increased")


def _check_chain(trace, N, steps):
    sums = np.asarray(trace.mag_sums)
    require(len(sums) == steps + 1 and list(trace.times[:2]) == [0, 1],
            "trace length or times wrong")
    require(int(sums[0]) == N and bool(np.all(np.abs(sums) <= N)), "sum out of range")
    require(set(np.unique(np.abs(np.diff(sums))).tolist()) <= {0, 2},
            "a step moved the sum by other than 0 or 2")


def _check_mc_mix(out, N):
    d = _json_payload(out, "MixingReport")
    require(d["method"] == "MonteCarlo" and not d["capped"], "MC run capped")
    p, beta, h = _model(REGULAR)
    exact = oracles.mixing_time_by_power(p, beta, h, N, EPS, 1_000_000)
    require(abs(d["t_mix"] - exact) <= 0.2 * exact,
            f"MC t_mix {d['t_mix']} more than 20% from exact {exact}")


def _check_draws(sums, N, draws):
    sums = np.asarray(sums)
    require(sums.shape == (draws,), f"shape {sums.shape}")
    require(bool(np.all(np.abs(sums) <= N)) and bool(np.all((sums + N) % 2 == 0)),
            "draw outside the state space")
    hist = np.bincount((sums + N) // 2, minlength=N + 1) / draws
    law = oracles.gibbs_level_law(*_model(COEXIST), N)
    dist = oracles.tv(hist, law)
    require(dist < 0.05, f"TV to the Gibbs level law {dist:.4f} >= 0.05")


WORKLOAD_TASKS = {"diagram": _diagram, "exact-mix": _exact_mix, "sampling": _sampling}


def build(name: str, seed: int, scale: str, runner: Runner, tmpdir: str) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    return WORKLOAD_TASKS[name](SCALES[scale], rng, runner, load_reference(scale), tmpdir)
