"""Record the answers the exact-mix and diagram checks compare against.

    python3 perfbench/record_reference.py     # from the root of a checkout

Writes perfbench/reference.json: for each scale, every exact mixing time of
the exact-mix workload (per start) and the region codes of each diagram
grid.  The file in the repository was recorded at the commit that defined
the benchmark; re-record only when a change of answer is intended, and say
so in the change.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from pspin_glauber import mixing_analysis as ma  # noqa: E402
from pspin_glauber import phase_geometry as pg  # noqa: E402
from pspin_glauber.potential import ModelParams  # noqa: E402

import workloads as w  # noqa: E402


def _report(rep) -> dict:
    return {"t_mix": rep.t_mix, "capped": rep.capped,
            "t_by_start": {str(k): v for k, v in rep.t_by_start.items()}}


def record(sc: dict) -> dict:
    mix = {}
    for name, point, ns in (("regular", w.REGULAR, sc["regular_ns"]),
                            ("special", w.SPECIAL, sc["special_ns"])):
        for n in ns:
            rep = ma.mixing_time(ModelParams(*w._model(point)), n, w.EPS, sc["sweep_cap"])
            mix[f"{name}/{n}"] = _report(rep)
    crit = ModelParams(*w._model(w.CRITICAL))
    n = sc["critical_n"]
    mix[f"critical/{n}"] = _report(ma.mixing_time(crit, n, w.EPS, sc["critical_cap"]))
    n = sc["restricted_n"]
    mix[f"restricted/{n}"] = _report(
        ma.restricted_mixing_time(crit, n, w.EPS, sc["critical_cap"]))

    grids = {}
    step = sc["grid_step"]
    for p in sc["grid_ps"]:
        spec = pg.GridSpec(p=p, beta_min=w.GRID_BETA[0], beta_max=w.GRID_BETA[1],
                           beta_step=step, h_min=w.GRID_H[0], h_max=w.GRID_H[1],
                           h_step=step)
        grids[str(p)] = w.encode_grid(pg.scan_grid(spec).cells.ravel())
    return {"mix": mix, "grids": grids}


if __name__ == "__main__":
    out = {scale: record(sc) for scale, sc in w.SCALES.items()}
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
