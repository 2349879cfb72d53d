"""Command-line front end.

Subcommands dispatch to the analysis modules and emit CSV, JSON or SVG;
the modules return data, and every CSV table is written here by `_csv`.
All randomness flows through --seed (on mix, sample and coupling, the
commands that draw random numbers), output ordering is deterministic, and
numeric flags accept simple rationals ("1/3") so threshold parameters are
representable to the closest double.

Exit codes: 0 success, 1 domain or I/O error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import operator
import os
import re
import sys
import types
import typing
from enum import Enum

import numpy as np

from . import dynamics, mixing_analysis, phase_geometry, svg
from .potential import DomainError, ModelParams, drift_field

SCHEMA_VERSION = "1"
JOBS_ENV = "PSPIN_GLAUBER_JOBS"


def real(text: str) -> float:
    """Parse a decimal or a simple rational like '1/3'."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"division by zero in {text!r}") from None
    return float(s)


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join a negative value to its flag: '--h -8.5e-05' -> '--h=-8.5e-05'.

    argparse only takes plain decimals such as '-0.5' for negative numbers
    and reads '-8.5e-05' or '-1/3' as an unknown option.  No flag here
    starts with '-' and a digit.
    """
    out: list[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and re.match(r"-\.?\d", tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _positive_int(text: str) -> int:
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def _order_p(text: str) -> int:
    v = int(text)
    if v < 2:
        raise argparse.ArgumentTypeError(f"p must be an integer >= 2, got {v}")
    return v


def _positive_real(text: str) -> float:
    v = real(text)
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {v}")
    return v


def _eps_real(text: str) -> float:
    v = real(text)
    if not 0.0 < v < 0.5:
        raise argparse.ArgumentTypeError(f"eps must lie in (0, 1/2), got {v}")
    return v


def _int_list(text: str) -> list[int]:
    values = [_positive_int(t) for t in text.split(",") if t.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


def _write(out_path: str, payload: str) -> None:
    if out_path == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise RuntimeError(f"cannot write {out_path}: {exc}") from exc


# -- report codec -------------------------------------------------------------
# A report's payload holds its dataclass fields by name, enums by value, dict
# keys as str and tuples as lists; _from_payload inverts that by field type.
# _json_text writes it straight from the report, as json.dumps(payload,
# sort_keys=True, indent=2) would write the payload as a dict tree.

_REPORTS = {cls.__name__: cls for cls in (
    phase_geometry.PhaseReport, mixing_analysis.MixingReport,
    mixing_analysis.BottleneckReport, dynamics.SamplerReport)}
_fields = functools.cache(dataclasses.fields)
_hints = functools.cache(typing.get_type_hints)
_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


@functools.cache
def _names(cls) -> list[str]:
    return sorted(f.name for f in _fields(cls))


def _json_text(obj, nl: str = "\n") -> str:
    """obj as JSON, its nested lines indented past nl (a newline and the
    current indent)."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = _record_rows(obj, inner) or [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(rows) + nl + "]"
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
    elif isinstance(obj, Enum):
        return _json_text(obj.value, nl)
    else:
        items = [(name, getattr(obj, name)) for name in _names(type(obj))]
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(
        f"{_quote(k)}: {_json_text(v, inner)}" for k, v in items) + nl + "}"


def _column_text(values: list, nl: str) -> list[str]:
    kinds = set(map(type, values))
    if kinds == {float}:
        text = list(map(float.__repr__, values))
        if not math.isfinite(sum(values)):
            text = [_NON_FINITE.get(t, t) for t in text]
        return text
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(_quote, values))
    return [_json_text(v, nl) for v in values]


def _record_rows(items, nl: str) -> list[str] | None:
    """The JSON of each of items, all of one dataclass, written column by
    column into one row template; None for any other list."""
    cls, *others = set(map(type, items))
    if others or not dataclasses.is_dataclass(cls):
        return None
    names = _names(cls)
    if not names:
        return None
    inner = nl + "  "
    row = "{" + inner + ("," + inner).join(
        _quote(name) + ": %s" for name in names) + nl + "}"
    columns = [_column_text(list(map(operator.attrgetter(name), items)), inner)
               for name in names]
    return [row % cells for cells in zip(*columns)]


def _from_payload(tp, value):
    if value is None:
        return None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (tp,) = [a for a in args if a is not type(None)]
        return _from_payload(tp, value)
    if origin is list:
        return [_from_payload(args[0], v) for v in value]
    if origin is tuple:
        return tuple(_from_payload(a, v) for a, v in zip(args, value))
    if origin is dict:
        return {args[0](k): _from_payload(args[1], v) for k, v in value.items()}
    if dataclasses.is_dataclass(tp):  # init=False fields are derived, not read
        return tp(**{f.name: _from_payload(_hints(tp)[f.name], value[f.name])
                     for f in _fields(tp) if f.init})
    return tp(value) if issubclass(tp, Enum) else value


def _json_envelope(report) -> str:
    return _json_text({"schema_version": SCHEMA_VERSION,
                       "report": type(report).__name__, "payload": report}) + "\n"


def load_report(text: str):
    """The report whose JSON output, envelope included, is `text`.

    Raises ValueError on a `schema_version` other than SCHEMA_VERSION or an
    unknown `report` kind.
    """
    doc = json.loads(text)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"schema_version {version!r}, expected {SCHEMA_VERSION!r}")
    kind = doc.get("report")
    if str(kind) not in _REPORTS:
        raise ValueError(f"unknown report kind {kind!r}")
    return _from_payload(_REPORTS[kind], doc["payload"])


# -- CSV tables ---------------------------------------------------------------

_CSV_BATCH = 4096  # rows per % call


def _csv(header: str, *columns) -> str:
    """The schema line, `header` and one row per index of the equal-length
    columns.  A column is a list of preformatted str, written as is, or an
    int numpy array, written with %d; floats are formatted by `_fmt`.

    Each batch of rows interleaves its columns into one flat list by slice
    assignment and goes through one % call; no numpy column is turned into
    a list whole.  A numpy column constant over a batch is written once,
    into that batch's row template, and takes no cells.
    """
    n = len(columns[0])
    parts = [f"# schema_version={SCHEMA_VERSION}\n{header}\n"]
    for a in range(0, n, _CSV_BATCH):
        b = min(a + _CSV_BATCH, n)
        fields, varying = [], []
        for col in columns:
            part = col[a:b]
            if not isinstance(col, np.ndarray):
                fields.append("%s")
                varying.append(part)
            elif part.min() == part.max():
                fields.append("%d" % part[0])
            else:
                fields.append("%d")
                varying.append(part.tolist())
        row = ",".join(fields) + "\n"
        if not varying:
            parts.append(row * (b - a))
            continue
        k = len(varying)
        cells = [None] * (k * (b - a))
        for j, part in enumerate(varying):
            cells[j::k] = part
        parts.append(row * (b - a) % tuple(cells))
    return "".join(parts)


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def _curves_csv(samples: list[phase_geometry.CurveSample]) -> str:
    return _csv("beta,U,L,C", *([_fmt(getattr(s, key)) for s in samples]
                                for key in ("beta", "U", "L", "C")))


def _params(args) -> ModelParams:
    return ModelParams(args.p, args.beta, args.h)


def _jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    text = os.environ.get(JOBS_ENV, "1")
    if not text.strip().isdigit() or int(text) < 1:
        raise ValueError(f"{JOBS_ENV} must be a positive integer, got {text!r}")
    return int(text)


def _map(jobs: int, fn, *iterables) -> list:
    """[fn(*args) for args in zip(*iterables)], in a pool of `jobs` worker
    processes when jobs > 1."""
    if jobs == 1:
        return list(map(fn, *iterables))
    # imported here: the pool's modules (multiprocessing, socket, logging)
    # would cost every command their import time
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, *iterables))


# -- subcommand implementations ----------------------------------------------


def _cmd_classify(args) -> None:
    _write(args.out, _json_envelope(phase_geometry.classify_point(
        args.p, args.beta, args.h, with_margin=args.margins)))


def _cmd_curves(args) -> None:
    if args.p < 3:
        raise DomainError(f"the curves U, L and C are defined for p >= 3, got p={args.p}")
    betas = phase_geometry.curve_betas(args.beta_min, args.beta_max, args.beta_step)
    samples = [phase_geometry.boundary_curves(args.p, b) for b in betas.tolist()]
    if args.svg:
        series = []
        for key in ("U", "L", "C"):
            pts = [(s.beta, getattr(s, key)) for s in samples
                   if getattr(s, key) is not None]
            if pts:
                series.append((key, pts))
        _write(args.out, svg.emit_svg(series, x_label="beta", y_label="h"))
    else:
        _write(args.out, _curves_csv(samples))


def _cmd_phase_diagram(args) -> None:
    spec = phase_geometry.GridSpec(
        p=args.p, beta_min=args.beta_min, beta_max=args.beta_max,
        beta_step=args.beta_step, h_min=args.h_min, h_max=args.h_max,
        h_step=args.h_step, max_cells=args.max_cells,
    )
    jobs = _jobs(args)
    beta_axis, h_axis = phase_geometry.grid_axes(spec)  # before any pool starts
    columns = _map(jobs, functools.partial(phase_geometry.scan_column, spec.p,
                                           h_axis=h_axis), beta_axis.tolist())
    grid = phase_geometry.scan_grid(spec, columns=columns)
    hs = list(map(_fmt, grid.h_axis.tolist()))
    betas = [b for b in map(_fmt, grid.beta_axis.tolist()) for _ in hs]
    _write(args.out_prefix + ".grid.csv", _csv(  # ordered by beta, then h
        "beta,h,region_code", betas, hs * len(grid.beta_axis), grid.cells.ravel()))
    _write(args.out_prefix + ".curves.csv", _curves_csv(grid.curves))
    sys.stdout.write(f"wrote {args.out_prefix}.grid.csv and "
                     f"{args.out_prefix}.curves.csv\n")


def _mixing_report(params, n, eps, cap, restricted, **options):
    run = (mixing_analysis.restricted_mixing_time if restricted
           else mixing_analysis.mixing_time)
    return run(params, n, eps, cap, **options)


def _cmd_mix(args) -> None:
    options = {} if args.restricted else dict(
        mode=mixing_analysis.MONTE_CARLO if args.method == "mc" else mixing_analysis.EXACT,
        seed=args.seed, replicas=args.replicas)
    _write(args.out, _json_envelope(_mixing_report(
        _params(args), args.n, args.eps, args.cap, args.restricted, **options)))


def _cmd_mix_sweep(args) -> None:
    jobs, ns = _jobs(args), sorted(args.n_list)
    run = functools.partial(_mixing_report, _params(args), eps=args.eps, cap=args.cap,
                            restricted=args.restricted)
    reports = _map(jobs, run, ns)
    if args.svg:
        measured = [(n, float(rep.t_mix)) for n, rep in zip(ns, reports)
                    if rep.t_mix is not None]
        if not measured:
            raise DomainError("all sweep points capped; nothing to plot")
        series = [("t_mix", measured)]
        if args.reference == "nlogn":
            series.append(("10 N log N",
                           [(n, 10.0 * n * math.log(n)) for n, _ in measured]))
        elif args.reference == "n3/2":
            series.append(("4 N^(3/2)",
                           [(n, 4.0 * n**1.5) for n, _ in measured]))
        _write(args.out, svg.emit_svg(series, log_x=True, log_y=True,
                                      x_label="N", y_label="t_mix"))
        return
    _write(args.out, _csv(
        "N,t_mix,capped,method", list(map(str, ns)),
        ["" if rep.t_mix is None else str(rep.t_mix) for rep in reports],
        [str(rep.capped).lower() for rep in reports], [rep.method for rep in reports]))


def _cmd_sample(args) -> None:
    spec = dynamics.MetastableSpec(
        params=_params(args), N=args.n, burn_steps=args.burn, seed=args.seed,
        require_coexistence=args.require_coexistence,
    )
    _write(args.out, _json_envelope(dynamics.metastable_sample(spec)[1]))


def _cmd_coupling(args) -> None:
    spec = dynamics.CouplingSpec(
        params=_params(args), N=args.n, start_x="all_plus",
        start_y="all_minus", steps=args.steps, seed=args.seed,
        record_every=args.record_every,
    )
    trace = dynamics.run_coupling(spec)  # mag_sum is the first chain's
    _write(args.out, _csv("t,mag_sum,hamming,untouched", trace.times, trace.mags_x,
                          trace.hamming, trace.untouched))


def _cmd_bottleneck(args) -> None:
    _write(args.out, _json_envelope(mixing_analysis.bottleneck(_params(args), args.n)))


def _cmd_drift(args) -> None:
    params = _params(args)
    if args.c is not None:
        cs = [args.c]
    else:
        cs = np.linspace(-1.0, 1.0, args.c_grid).tolist()
    _write(args.out, _csv("c,drift", list(map(_fmt, cs)),
                          [_fmt(drift_field(params, args.n, c)) for c in cs]))


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args fills a fresh namespace on every call, so the shared parser
    carries nothing from one call of `main` to the next.
    """
    ap = argparse.ArgumentParser(
        prog="pspin-glauber",
        description="Heat-bath dynamics, mixing times and phase geometry "
                    "of the p-spin Curie-Weiss model",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model(sp, with_n=True):
        sp.add_argument("--p", type=_order_p, required=True,
                        help="tensor order (integer >= 2)")
        sp.add_argument("--beta", type=_positive_real, required=True,
                        help="inverse temperature (decimals or '1/3')")
        sp.add_argument("--h", type=real, required=True, help="external field")
        if with_n:
            sp.add_argument("--n", type=_positive_int, required=True,
                            help="number of spins")

    def add_out(sp):
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")

    def add_seed(sp):  # only where the command draws random numbers
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("classify", help="phase region of a (beta, h) point")
    add_model(sp, with_n=False)
    sp.add_argument("--margins", action="store_true",
                    help="include distance to the nearest boundary curve")
    add_out(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("curves", help="sample the U/L/C boundary curves")
    sp.add_argument("--p", type=_order_p, required=True)
    sp.add_argument("--beta-min", type=real, required=True)
    sp.add_argument("--beta-max", type=real, required=True)
    sp.add_argument("--beta-step", type=real, default=0.005)
    sp.add_argument("--svg", action="store_true", help="emit an SVG plot")
    add_out(sp)
    sp.set_defaults(func=_cmd_curves)

    sp = sub.add_parser("phase-diagram", help="full region grid + curves")
    sp.add_argument("--p", type=_order_p, required=True)
    sp.add_argument("--beta-min", type=real, required=True)
    sp.add_argument("--beta-max", type=real, required=True)
    sp.add_argument("--beta-step", type=real, default=0.005)
    sp.add_argument("--h-min", type=real, required=True)
    sp.add_argument("--h-max", type=real, required=True)
    sp.add_argument("--h-step", type=real, default=0.005)
    sp.add_argument("--max-cells", type=int, default=phase_geometry.MAX_CELLS)
    sp.add_argument("--jobs", type=_positive_int, default=None,
                    help=f"worker processes (default ${JOBS_ENV} or 1)")
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=_cmd_phase_diagram)

    for name, restricted in (("mix", False), ("restricted-mix", True)):
        sp = sub.add_parser(name, help=f"{'restricted ' if restricted else ''}"
                                       "mixing time at level eps")
        add_model(sp)
        sp.add_argument("--eps", type=_eps_real, default=0.35)
        sp.add_argument("--cap", type=_positive_int, default=10_000)
        if not restricted:  # Monte-Carlo mixing is `mix --method mc` only
            sp.add_argument("--method", choices=("exact", "mc"), default="exact")
            sp.add_argument("--replicas", type=_positive_int, default=10_000)
            add_seed(sp)
        add_out(sp)
        sp.set_defaults(func=_cmd_mix, restricted=restricted)

    sp = sub.add_parser("mix-sweep", help="mixing time across N values")
    sp.add_argument("--p", type=_order_p, required=True)
    sp.add_argument("--beta", type=_positive_real, required=True)
    sp.add_argument("--h", type=real, required=True)
    sp.add_argument("--n-list", type=_int_list, required=True,
                    help="comma-separated N values")
    sp.add_argument("--eps", type=_eps_real, default=0.35)
    sp.add_argument("--cap", type=_positive_int, default=10_000)
    sp.add_argument("--restricted", action="store_true")
    sp.add_argument("--svg", action="store_true",
                    help="emit a log-log SVG plot instead of CSV")
    sp.add_argument("--reference", choices=("none", "nlogn", "n3/2"),
                    default="none", help="reference curve for --svg")
    sp.add_argument("--jobs", type=_positive_int, default=None)
    add_out(sp)
    sp.set_defaults(func=_cmd_mix_sweep)

    sp = sub.add_parser("sample", help="metastable window sampler")
    add_model(sp)
    sp.add_argument("--burn", type=_positive_int, default=None,
                    help="burn-in steps per window (default: 10 N log N)")
    sp.add_argument("--require-coexistence", action="store_true")
    add_seed(sp)
    add_out(sp)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("coupling", help="coupled chains from extreme starts")
    add_model(sp)
    sp.add_argument("--steps", type=_positive_int, required=True)
    sp.add_argument("--record-every", type=_positive_int, default=1)
    add_seed(sp)
    add_out(sp)
    sp.set_defaults(func=_cmd_coupling)

    sp = sub.add_parser("bottleneck", help="conductance cut scan")
    add_model(sp)
    add_out(sp)
    sp.set_defaults(func=_cmd_bottleneck)

    sp = sub.add_parser("drift", help="expected one-step magnetization drift")
    add_model(sp)
    sp.add_argument("--c", type=real, default=None,
                    help="single magnetization (default: a grid)")
    sp.add_argument("--c-grid", type=_positive_int, default=201)
    add_out(sp)
    sp.set_defaults(func=_cmd_drift)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_glue_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        args.func(args)
    except (DomainError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
