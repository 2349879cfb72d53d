"""Per-layer instrumentation: which entry points get spans or counters, and
how spans and counters become the per-layer metrics.

The layers are the package's modules.  `svg` is left out: it is small and no
workload leans on it.
"""

from __future__ import annotations

import inspect

from tracer import Tracer, self_times

# Hot leaves: counters only.  One p=5 grid makes ~1.8M free_energy_d1 calls.
COUNTED = [
    ("potential", "free_energy_d1", "potential.d1"),
    ("phase_geometry", "free_energy_d1", "potential.d1"),
    ("potential", "free_energy_d2", "potential.d2"),
    ("phase_geometry", "free_energy_d2", "potential.d2"),
    ("potential", "evaluate_potential", "potential.evaluate_potential"),
    ("dynamics", "flip_up_probability", "dynamics.flip_up"),
]

SPANNED = [
    ("phase_geometry", "scan_grid"),
    ("phase_geometry", "scan_column"),
    ("phase_geometry", "boundary_curves"),
    ("phase_geometry", "classify_point"),
    ("phase_geometry", "thresholds"),
    ("dynamics", "run_chain"),
    ("dynamics", "run_coupling"),
    ("dynamics", "metastable_sample"),
    ("dynamics", "metastable_sample_sums"),
    ("dynamics", "simulate_mag_replicas"),
    ("mixing_analysis", "simulate_mag_replicas"),
    ("dynamics", "kernel_arrays"),
    ("mixing_analysis", "kernel_arrays"),
    ("mixing_analysis", "mixing_time"),
    ("mixing_analysis", "restricted_mixing_time"),
    ("mixing_analysis", "tv_curve"),
    ("mixing_analysis", "stationary_mag"),
    ("mixing_analysis", "bottleneck"),
]

# Imported-by-name copies are spanned under the defining module's name.
HOME = {"simulate_mag_replicas": "dynamics", "kernel_arrays": "dynamics"}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _hooks(modules):
    """on_return hooks that turn arguments and results into work counters."""
    dyn, ma = modules.dynamics, modules.mixing_analysis
    run_chain, run_coupling = dyn.run_chain, dyn.run_coupling
    sim, tv_curve = dyn.simulate_mag_replicas, ma.tv_curve

    def scalar_spec(fn):
        def hook(c, args, kwargs, result):
            c["dynamics.scalar_steps"] += _bound(fn, args, kwargs)["spec"].steps
        return hook

    def metastable(c, args, kwargs, result):
        _, report = result
        steps = report.burn_steps * len(report.windows)
        c["dynamics.scalar_steps"] += steps
        c["dynamics.proposed"] += steps
        c["dynamics.accepted"] += round(sum(report.acceptance_rates) * report.burn_steps)

    def replicas(c, args, kwargs, result):
        a = _bound(sim, args, kwargs)
        c["dynamics.replica_steps"] += len(a["start_ks"]) * a["steps"]

    def curve(c, args, kwargs, result):
        a = _bound(tv_curve, args, kwargs)
        N, k_min = a["N"], a["k_min"]
        levels = N + 1 if k_min is None or k_min <= -N else N + 1 - (k_min + N + 1) // 2
        pushes = len(result.ts) - 1
        c["mixing_analysis.pushforwards"] += pushes
        c["mixing_analysis.level_updates"] += pushes * levels

    def mixing(c, args, kwargs, result):
        c["mixing_analysis.capped_starts"] += sum(
            v is None for v in result.t_by_start.values())

    return {
        ("dynamics", "run_chain"): scalar_spec(run_chain),
        ("dynamics", "run_coupling"): scalar_spec(run_coupling),
        ("dynamics", "metastable_sample"): metastable,
        ("dynamics", "simulate_mag_replicas"): replicas,
        ("mixing_analysis", "simulate_mag_replicas"): replicas,
        ("mixing_analysis", "tv_curve"): curve,
        ("mixing_analysis", "mixing_time"): mixing,
    }


def instrument(tracer: Tracer, modules) -> None:
    """Patch every traced entry point of the package's modules."""
    for mod, attr, counter in COUNTED:
        owner = getattr(modules, mod)
        tracer.patch(owner, attr, tracer.counted(counter, getattr(owner, attr)))
    hooks = _hooks(modules)
    for mod, attr in SPANNED:
        owner = getattr(modules, mod)
        name = f"{HOME.get(attr, mod)}.{attr}"
        tracer.patch(owner, attr, tracer.spanned(name, getattr(owner, attr),
                                                 hooks.get((mod, attr))))
    cls = modules.potential.LandscapeStructure
    tracer.patch(cls, "__init__", tracer.spanned("potential.landscape_build", cls.__init__))
    tracer.patch(cls, "stationary_points",
                 tracer.spanned("potential.stationary_points", cls.stationary_points))

    cli = modules.cli
    write = cli._write

    def counting_write(out_path, payload):
        tracer.counters["cli.bytes_written"] += len(payload.encode())
        return write(out_path, payload)

    tracer.patch(cli, "_write", counting_write)


# Float64 arrays one pushforward step touches in the reference formulation:
# mu, up, down, stay read and the new law written.  Computed, not measured.
PUSHFORWARD_ARRAYS = 5


def layer_metrics(tracer: Tracer, info: dict) -> dict:
    """Per-layer metrics of one traced run (all but setup and overhead)."""
    selfs = self_times(tracer.spans)
    calls, incl, own = {}, {}, {}
    for (name, start, end, _), s in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
    c = tracer.counters

    def per(num_s, den):
        return 1e9 * num_s / den if den else 0.0

    scalar_s = sum(own.get(f"dynamics.{f}", 0.0)
                   for f in ("run_chain", "run_coupling", "metastable_sample"))
    return {
        "potential.landscape_builds": calls.get("potential.landscape_build", 0),
        "potential.landscape_build_s": incl.get("potential.landscape_build", 0.0),
        "potential.stationary_points_calls": calls.get("potential.stationary_points", 0),
        "potential.stationary_points_s": incl.get("potential.stationary_points", 0.0),
        "potential.d1_calls": c["potential.d1"],
        "potential.d2_calls": c["potential.d2"],
        "potential.evaluate_potential_calls": c["potential.evaluate_potential"],
        "phase_geometry.scan_column_calls": calls.get("phase_geometry.scan_column", 0),
        "phase_geometry.scan_column_self_s": own.get("phase_geometry.scan_column", 0.0),
        "phase_geometry.boundary_curves_calls": calls.get("phase_geometry.boundary_curves", 0),
        "phase_geometry.boundary_curves_s": incl.get("phase_geometry.boundary_curves", 0.0),
        "phase_geometry.classify_point_calls": calls.get("phase_geometry.classify_point", 0),
        "phase_geometry.classify_point_self_s": own.get("phase_geometry.classify_point", 0.0),
        "phase_geometry.thresholds_s": incl.get("phase_geometry.thresholds", 0.0),
        "phase_geometry.uncertain_cells": info.get("uncertain_cells", 0),
        "phase_geometry.cells_changed": info.get("cells_changed", 0),
        "dynamics.scalar_steps": c["dynamics.scalar_steps"],
        "dynamics.scalar_ns_per_step": per(scalar_s, c["dynamics.scalar_steps"]),
        "dynamics.flip_up_calls": c["dynamics.flip_up"],
        "dynamics.replica_steps": c["dynamics.replica_steps"],
        "dynamics.replica_ns_per_step": per(incl.get("dynamics.simulate_mag_replicas", 0.0),
                                            c["dynamics.replica_steps"]),
        "dynamics.acceptance_ratio": (c["dynamics.accepted"] / c["dynamics.proposed"]
                                      if c["dynamics.proposed"] else 0.0),
        "dynamics.kernel_arrays_calls": calls.get("dynamics.kernel_arrays", 0),
        "dynamics.kernel_arrays_s": incl.get("dynamics.kernel_arrays", 0.0),
        "mixing_analysis.pushforwards": c["mixing_analysis.pushforwards"],
        "mixing_analysis.level_updates": c["mixing_analysis.level_updates"],
        "mixing_analysis.tv_curve_self_s": own.get("mixing_analysis.tv_curve", 0.0),
        "mixing_analysis.ns_per_level_update": per(own.get("mixing_analysis.tv_curve", 0.0),
                                                   c["mixing_analysis.level_updates"]),
        "mixing_analysis.pushforward_bytes_computed":
            8 * PUSHFORWARD_ARRAYS * c["mixing_analysis.level_updates"],
        "mixing_analysis.stationary_mag_calls": calls.get("mixing_analysis.stationary_mag", 0),
        "mixing_analysis.stationary_mag_s": incl.get("mixing_analysis.stationary_mag", 0.0),
        "mixing_analysis.bottleneck_s": incl.get("mixing_analysis.bottleneck", 0.0),
        "mixing_analysis.capped_starts": c["mixing_analysis.capped_starts"],
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.bytes_written": c["cli.bytes_written"],
    }
