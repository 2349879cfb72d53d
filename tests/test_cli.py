"""Command-line dispatch, output envelopes, report round-trips, SVG."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from enum import Enum

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pspin_glauber import (
    MONTE_CARLO,
    BottleneckReport,
    MixingReport,
    ModelParams,
    PhaseReport,
    SamplerReport,
    bottleneck,
    classify_point,
    cli,
    mixing_time,
    phase_geometry,
)
from pspin_glauber.cli import (
    _csv,
    _fmt,
    _grid_csv,
    _json_envelope,
    build_parser,
    load_report,
    main,
    real,
)
from pspin_glauber.svg import emit_svg


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _src_env():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_commands_leave_scipy_unloaded():
    # the runtime depends on numpy alone: scipy is a test-only dependency,
    # and neither importing the CLI nor running its commands may load it
    probe = """
import contextlib, io, sys
from pspin_glauber.cli import main
for cmd in ("classify --p 4 --beta 0.51 --h 0.184 --margins",
            "mix --p 4 --beta 0.054 --h 0.5 --n 100 --cap 100000",
            "restricted-mix --p 4 --beta 0.51 --h 0.184 --n 100 --cap 100000",
            "bottleneck --p 4 --beta 0.51 --h 0.184 --n 100",
            "sample --p 4 --beta 0.9 --h 0 --n 100",
            "coupling --p 3 --beta 0.05 --h 0.1 --n 100 --steps 400"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd.split()) == 0, cmd
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_commands_leave_the_worker_pool_unloaded(tmp_path):
    # the process pool is imported only for --jobs > 1: importing the CLI and
    # running the two pooled commands with --jobs 1 loads no multiprocessing
    probe = f"""
import contextlib, io, sys
from pspin_glauber.cli import main
for cmd in ("mix-sweep --p 4 --beta 0.054 --h 0.5 --n-list 100,200 --cap 100000 --jobs 1",
            "phase-diagram --p 4 --beta-min 0.3 --beta-max 0.6 --beta-step 0.1"
            " --h-min -0.3 --h-max 0.3 --h-step 0.1 --jobs 1"
            " --out-prefix {tmp_path / 'diagram'}"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd.split()) == 0, cmd
print(sorted(m for m in sys.modules if m == "multiprocessing"
             or m.startswith(("multiprocessing.", "concurrent.futures.process"))))
"""
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_overflowing_level_weights_are_one_error_line():
    # N*(beta c^p + h c) overflows at h = 1e308: one error line, no warning
    for cmd in ("mix --p 4 --beta 0.5 --h 1e308 --n 50",
                "bottleneck --p 4 --beta 0.5 --h 1e308 --n 4"):
        n = cmd.split()[-1]
        run = subprocess.run([sys.executable, "-m", "pspin_glauber.cli", *cmd.split()],
                             env=_src_env(), capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (1, ""), cmd
        assert run.stderr.startswith(f"error: the level weights overflow at N={n}:"), cmd
        assert run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("cmd", [
    "coupling --p 3 --beta 0.05 --h 0.1 --n 10 --steps 1000000000000000",
    "mix --p 4 --beta 0.054 --h 0.5 --n 10 --method mc --replicas 9223372036854775808",
    "drift --p 4 --beta 0.5 --h 0.1 --n 10 --c-grid 1000000000000000",
])
def test_oversized_arrays_are_one_error_line(cmd):
    # each asks for a first array of petabytes, which fails at once, or
    # (mix) for 2**63 chains, one more than an int64 count holds
    run = subprocess.run([sys.executable, "-m", "pspin_glauber.cli", *cmd.split()],
                         env=_src_env(), capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, ""), cmd
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "Traceback" not in run.stderr


def test_overflowing_drift_tables_raise_no_warning():
    # at h = 1e308, 2d overflows to inf while f = sigmoid(2d) is 1: the
    # kernel tables, and mix's two finite Gibbs weights at N = 1, are formed
    # without a RuntimeWarning
    env = dict(_src_env(), PYTHONWARNINGS="error")
    for cmd in ("coupling --p 4 --beta 0.5 --h 1e308 --n 10 --steps 10",
                "mix --p 4 --beta 0.5 --h 1e308 --n 1"):
        run = subprocess.run([sys.executable, "-m", "pspin_glauber.cli", *cmd.split()],
                             env=env, capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, ""), cmd


def test_curves_at_very_high_order_write_nothing_to_stderr():
    # a fresh process, so that warnings print as a user would see them
    run = subprocess.run([sys.executable, "-m", "pspin_glauber.cli", "curves",
                          "--p", "100", "--beta-min", "0.1", "--beta-max", "0.1"],
                         env=_src_env(), capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.splitlines()[1:] == ["beta,U,L,C", "0.1,5.37094225585,,1.12608422974"]


def test_benchmark_hooks_name_package_attributes():
    # perfbench/layers.py patches these module attributes by name; a rename
    # or a dropped import there would only show in the benchmark's own run
    import ast
    import importlib

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("COUNTED", "SPANNED")}
    assert set(lists) == {"COUNTED", "SPANNED"}
    for mod, attr, *_ in lists["COUNTED"] + lists["SPANNED"]:
        module = importlib.import_module(f"pspin_glauber.{mod}")
        assert callable(getattr(module, attr, None)), (mod, attr)


def test_real_parsing():
    assert real("0.25") == 0.25
    assert real("1/3") == 1.0 / 3.0
    assert real(" 2/8 ") == 0.25


def test_division_by_zero_is_a_usage_error(capsys):
    for args in (["classify", "--p", "4", "--beta", "1/0", "--h", "0"],
                 ["drift", "--p", "4", "--beta", "0.5", "--h", "0", "--n", "10",
                  "--c", "1/0"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "division by zero" in capsys.readouterr().err


def test_negative_exponent_value_as_separate_argument(capsys):
    code, spaced, _ = run_cli(["classify", "--p", "4", "--beta", "0.5",
                               "--h", "-8.5e-05"], capsys)
    assert code == 0
    _, glued, _ = run_cli(["classify", "--p", "4", "--beta", "0.5",
                           "--h=-8.5e-05"], capsys)
    assert spaced == glued
    assert json.loads(spaced)["payload"]["stationary_points"][0]["m"] < 0
    code, out, _ = run_cli(["drift", "--p", "3", "--beta", "0.5", "--h", "-1/3",
                            "--n", "10", "--c", "-2.5e-1"], capsys)
    assert code == 0
    assert out.splitlines()[2].startswith("-0.25,")


def test_classify_json(capsys):
    code, out, _ = run_cli(["classify", "--p", "4", "--beta", "0.51",
                            "--h", "0.184"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["payload"]["region"] == "LocallyCritical"
    assert len(doc["payload"]["stationary_points"]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "1", "--beta", "0.5", "--h", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--p", "4", "--beta", "0.5", "--h", "0",
              "--unknown-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    ("classify --p 4 --beta 0.5 --h 0 --seed 1", 2),
    ("restricted-mix --p 4 --beta 0.51 --h 0.184 --n 60 --method mc", 2),
    ("mix-sweep --p 4 --beta 0.054 --h 0.5 --n-list 40 --method mc", 2),
    ("mix --p 4 --beta 0.054 --h 0.5 --n 40 --cap 400 --method mc --replicas 200"
     " --seed 1", 0)])
def test_seed_and_monte_carlo_only_where_read(argv, code, capsys):
    # --seed is taken only by the commands that draw random numbers, and
    # Monte-Carlo mixing is `mix --method mc` only
    try:
        got = main(argv.split())
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    if code == 2:
        assert "unrecognized arguments" in err


def test_curves_at_p_30_tie_up_to_beta_0_6(capsys):
    # from beta = 0.585 on the top maximizer at the tie lies past 1 - 1e-15
    # (at 1 - 9.1e-16 there), and each of those rows still prints a tie
    from conftest import maximizer_height_gap

    code, out, err = run_cli(["curves", "--p", "30", "--beta-min", "0.4",
                              "--beta-max", "0.6"], capsys)
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[2:]]
    deep = [(float(b), float(C)) for b, _, _, C in rows if float(b) >= 0.585]
    assert len(deep) == 4
    for beta, C in deep:  # the row's 12 digits round C by up to 5e-13
        assert abs(maximizer_height_gap(30, beta, C)) <= 1e-12, (beta, C)


def test_curves_tie_inside_the_root_finding_range(capsys):
    # p = 30 at beta = 0.44: the tie's maxima sit at 0.288 and 1 - 3.8e-12,
    # and every field near the band's top end puts the top one past
    # 1 - 1e-15
    from conftest import maximizer_height_gap

    code, out, _ = run_cli(["curves", "--p", "30", "--beta-min", "0.4",
                            "--beta-max", "0.58"], capsys)
    assert code == 0
    rows = {row.split(",")[0]: row.split(",") for row in out.splitlines()[2:]}
    C = float(rows["0.44"][3])
    # the row's 12 digits round C by up to 5e-13
    assert abs(maximizer_height_gap(30, 0.44, C)) <= 1e-12


def test_curves_at_p_13_tie_past_beta_1_4(capsys):
    # p = 13 at beta 1.4 and 1.45: the tie puts a maximizer past 1 - 1e-15
    from conftest import maximizer_height_gap

    code, out, err = run_cli(["curves", "--p", "13", "--beta-min", "1.4",
                              "--beta-max", "1.45", "--beta-step", "0.05"], capsys)
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in out.splitlines()[2:]]
    assert [b for b, _, _, _ in rows] == ["1.4", "1.45"]
    for b, _, _, C in rows:  # the row's 12 digits round C by up to 5e-13
        assert abs(maximizer_height_gap(13, float(b), float(C))) <= 1e-12, (b, C)


def test_curves_past_the_beta_budget_name_the_count(capsys):
    # 1.19e12 betas: refused before the axis is allocated
    code, out, err = run_cli(["curves", "--p", "4", "--beta-min", "0.01",
                              "--beta-max", "1.2", "--beta-step", "1e-12"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: curves needs 1190000000001 betas, budget is 4000000")
    assert err.count("\n") == 1
    # a step whose count overflows a float is a bad axis, not an OverflowError
    code, out, err = run_cli(["curves", "--p", "4", "--beta-min", "0.01",
                              "--beta-max", "1.2", "--beta-step", "5e-324"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: bad axis range [0.01, 1.2] step 5e-324\n"


def test_empty_or_nonpositive_n_list_is_a_usage_error(capsys):
    for n_list, message in ((",", "no values in ','"), ("", "no values in ''"),
                            ("40,0", "must be positive, got 0")):
        for extra in ([], ["--svg"]):
            with pytest.raises(SystemExit) as exc:
                main(["mix-sweep", "--p", "4", "--beta", "0.054", "--h", "0.5",
                      f"--n-list={n_list}"] + extra)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert message in err and "capped" not in err


def test_cached_parser_carries_nothing_between_calls(capsys):
    # restricted-mix sets `restricted` through set_defaults on the shared
    # parser; the first mix passes options the last one leaves at default
    model = ["--p", "4", "--beta", "0.51", "--h", "0.184", "--n", "60"]
    calls = [["mix"] + model + ["--eps", "0.3", "--cap", "400", "--seed", "5"],
             ["restricted-mix"] + model,
             ["mix"] + model + ["--eps", "0.7"],
             ["mix"] + model]

    def run(args):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    assert build_parser() is build_parser()
    in_one_process = [run(args) for args in calls]
    fresh = []
    for args in calls:
        build_parser.cache_clear()
        fresh.append(run(args))
    assert in_one_process == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0]
    assert len({out for _, out, _ in fresh}) == 4


def test_deep_well_next_to_minus_one_classifies(capsys):
    # p*beta = 15 puts a local minimum within 1e-12 of -1 and a maximum
    # within 1e-12 of +1
    code, out, err = run_cli(["classify", "--p", "30", "--beta", "0.5",
                              "--h", "0.1"], capsys)
    assert code == 0, err
    ms = [s["m"] for s in json.loads(out)["payload"]["stationary_points"]]
    assert min(ms) < -1 + 1e-12 and max(ms) > 1 - 1e-12


def test_sample_with_maximizers_that_round_to_one(capsys):
    # at p*beta = 20 the maximizers lie within 1e-17 of -1 and +1, where
    # they round to -1.0 and 1.0; their mirror wells hold half the Gibbs
    # mass each
    code, out, err = run_cli(["sample", "--p", "4", "--beta", "5", "--h", "0",
                              "--n", "200"], capsys)
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert payload["maximizers"] == [-1.0, 1.0]
    assert payload["weights"] == [0.5, 0.5]


def test_domain_error_exit_code(capsys):
    # a maximizer at u = atanh(m) = 402, past the |u| of about 354 where
    # H'' = -cosh(u)^2 overflows: a semantic failure
    code, _, err = run_cli(["classify", "--p", "4", "--beta", "0.5",
                            "--h", "400"], capsys)
    assert code == 1
    assert "error" in err


def test_large_beta_error_names_the_parameters(capsys):
    code, _, err = run_cli(["classify", "--p", "4", "--beta", "1e6",
                            "--h", "0"], capsys)
    assert code == 1
    assert "p=4, beta=1000000.0, h=0.0" in err
    assert "p*beta or |h| is too large" in err


def test_margins_and_curves_at_high_order(capsys):
    # at p = 20 from beta 0.54 on, the maximizer near the upper end of the
    # coexistence band lies past 1 - 1e-9
    for p, beta_min, beta_max in (("10", "0.25", "0.3"), ("12", "0.25", "0.3"),
                                  ("20", "0.5", "0.55")):
        code, out, _ = run_cli(["classify", "--p", p, "--beta", "0.5", "--h", "0.1",
                                "--margins"], capsys)
        assert code == 0 and json.loads(out)["payload"]["margin"] is not None
        code, out, _ = run_cli(["curves", "--p", p, "--beta-min", beta_min,
                                "--beta-max", beta_max], capsys)
        assert code == 0 and out.splitlines()[1] == "beta,U,L,C"


def test_phase_diagram_over_budget_writes_nothing(tmp_path, capsys):
    prefix = str(tmp_path / "big")
    # --jobs 2: the budget is checked before a worker pool could start
    code, out, err = run_cli(["phase-diagram", "--p", "4", "--beta-min", "0.1",
                              "--beta-max", "1.0", "--beta-step", "0.001",
                              "--h-min", "-1", "--h-max", "1", "--h-step", "0.001",
                              "--max-cells", "1000", "--jobs", "2",
                              "--out-prefix", prefix], capsys)
    assert code == 1
    assert "budget" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_phase_diagram_budget_is_checked_before_the_axes(tmp_path, capsys):
    # 5.95e12 cells: the beta axis alone would take terabytes
    code, out, err = run_cli(["phase-diagram", "--p", "4", "--beta-min", "0.01",
                              "--beta-max", "1.2", "--beta-step", "1e-12",
                              "--h-min", "-1", "--h-max", "1", "--h-step", "0.5",
                              "--out-prefix", str(tmp_path / "x")], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: grid needs 5950000000005 cells, budget is 4000000")
    assert list(tmp_path.iterdir()) == []


def test_mix_json_reference_parameters(capsys):
    code, out, _ = run_cli(["mix", "--p", "4", "--beta", "0.333333",
                            "--h", "0.41", "--n", "200", "--eps", "0.35",
                            "--cap", "10000", "--method", "exact"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["payload"]["t_mix"], int)


def test_cli_determinism(capsys):
    args = ["mix", "--p", "4", "--beta", "0.4", "--h", "0.1", "--n", "80",
            "--eps", "0.3", "--cap", "5000", "--method", "mc", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    _, out3, _ = run_cli(["drift", "--p", "3", "--beta", "0.7", "--h", "0.2",
                          "--n", "50"], capsys)
    _, out4, _ = run_cli(["drift", "--p", "3", "--beta", "0.7", "--h", "0.2",
                          "--n", "50"], capsys)
    assert out3 == out4


def test_csv_headers(capsys, tmp_path):
    code, out, _ = run_cli(["curves", "--p", "4", "--beta-min", "0.4",
                            "--beta-max", "0.5", "--beta-step", "0.05"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "beta,U,L,C"

    code, out, _ = run_cli(["mix-sweep", "--p", "4", "--beta", "0.054",
                            "--h", "0.5", "--n-list", "40,60", "--eps", "0.35",
                            "--cap", "10000"], capsys)
    assert out.splitlines()[1] == "N,t_mix,capped,method"

    code, out, _ = run_cli(["coupling", "--p", "3", "--beta", "0.3", "--h", "0.0",
                            "--n", "20", "--steps", "50",
                            "--record-every", "10"], capsys)
    assert out.splitlines()[1] == "t,mag_sum,hamming,untouched"

    code, out, _ = run_cli(["drift", "--p", "3", "--beta", "0.3", "--h", "0.0",
                            "--n", "20", "--c-grid", "5"], capsys)
    assert out.splitlines()[1] == "c,drift"


def test_csv_writer_round_trips_its_columns():
    # 0 rows, one full batch of 4096 rows and one row past it; negative ints
    # of two dtypes and empty str fields
    for n in (0, 4096, 4097):
        ints = np.arange(n, dtype=np.int64) - n // 2
        codes = (ints % 7 - 3).astype(np.int8)
        strs = ["" if i % 3 == 0 else f"x{i}" for i in range(n)]
        text = _csv("a,b,c", ints, strs, codes)
        schema, body = text.split("\n", 1)
        assert schema == "# schema_version=1"
        header, *rows = csv.reader(io.StringIO(body))
        assert header == ["a", "b", "c"]
        assert len(rows) == n and text.count("\n") == n + 2
        assert [int(r[0]) for r in rows] == ints.tolist()
        assert [r[1] for r in rows] == strs
        assert [int(r[2]) for r in rows] == codes.tolist()


# a column of the CSV writer: an int array constant, constant in two parts
# (split inside the first batch), varying, or a list of str
_csv_columns = st.lists(
    st.tuples(st.sampled_from(["constant", "two parts", "varying", "str"]),
              st.integers(-128, 127), st.sampled_from([np.int64, np.int8])),
    min_size=1, max_size=4)


@given(st.sampled_from([1, 5, 4096, 4097, 8193]), _csv_columns)
def test_csv_writer_matches_a_per_row_join(n, specs):
    # batches of 4096 rows: whole and one-row last batches, with columns
    # constant over a batch, over part of one, or all of them
    columns = []
    for kind, value, dtype in specs:
        if kind == "str":
            columns.append([f"s{i % 3}" for i in range(n)])
            continue
        col = np.full(n, value, dtype=dtype)
        if kind == "two parts":
            col[n // 3:] = -value - 1
        elif kind == "varying":
            col += (np.arange(n) % 5).astype(dtype)
        columns.append(col)
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    want = ["# schema_version=1", "h", *(",".join(map(str, row)) for row in rows), ""]
    # compared as lists of lines, whose first mismatch pytest reports cheaply
    assert _csv("h", *columns).split("\n") == want


def _grid_by_columns(beta_axis, h_axis, cells):
    """The grid table as `_csv` writes it from its three columns spelled out
    cell by cell: a beta list and an h list of one entry per cell."""
    hs = list(map(_fmt, h_axis.tolist()))
    betas = [b for b in map(_fmt, beta_axis.tolist()) for _ in hs]
    return _csv("beta,h,region_code", betas, hs * len(beta_axis), cells.ravel())


# axis values whose text has an exponent, a sign or 12 digits, or none
_axis_value = st.one_of(
    st.sampled_from([1e-05, -8.5e-05, 0.0, -0.0, 1e-300, 123456789012345.0, 1 / 3]),
    st.floats(-10, 10, allow_nan=False))


@st.composite
def _grids(draw):
    n_beta, n_h = draw(st.one_of(
        st.just((1, 1)), st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.just((25, 201))))  # 5,025 rows: two batches of `_csv`
    present = sorted(draw(st.sets(st.integers(0, 3), min_size=1)))
    codes = draw(st.lists(st.sampled_from(present), min_size=n_beta * n_h,
                          max_size=n_beta * n_h))
    return (np.array(draw(st.lists(_axis_value, min_size=n_beta, max_size=n_beta))),
            np.array(draw(st.lists(_axis_value, min_size=n_h, max_size=n_h))),
            np.array(codes, dtype=np.int8).reshape(n_beta, n_h))


@given(_grids())
def test_grid_writer_matches_the_columns_spelled_out(grid):
    # one-cell, one-beta and one-h grids, any set of the codes 0-3, and
    # axis texts with exponents
    assert _grid_csv(*grid).split("\n") == _grid_by_columns(*grid).split("\n")


def test_grid_writer_memory_stays_near_its_output():
    # the text of 1,981 x 201 cells, its blocks and their join: about twice
    # the output, where two per-cell columns of str took over three times it
    spec = phase_geometry.GridSpec(p=4, beta_min=0.01, beta_max=1.0, beta_step=0.0005,
                                   h_min=-1, h_max=1, h_step=0.01, max_cells=10**6)
    beta_axis, h_axis = phase_geometry.grid_axes(spec)
    cells = np.random.default_rng(1).integers(0, 4, (len(beta_axis), len(h_axis)),
                                              dtype=np.int8)
    peaks = []
    for writer in (_grid_csv, _grid_by_columns):
        tracemalloc.start()
        try:
            size = len(writer(beta_axis, h_axis, cells))
            peaks.append(tracemalloc.get_traced_memory()[1] / size)
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2.5 < peaks[1], peaks


def test_commands_write_each_file_as_one_str(tmp_path, monkeypatch, capsys):
    # perfbench's traced runs count the bytes of each payload `_write` is
    # handed, so every file is one str, even an axis of several CSV batches
    calls = []
    monkeypatch.setattr(cli, "_write", lambda path, payload: calls.append((path, payload)))
    prefix = str(tmp_path / "d")
    assert main(["phase-diagram", "--p", "4", "--beta-min", "0.3", "--beta-max", "0.6",
                 "--beta-step", "0.1", "--h-min", "-0.3", "--h-max", "0.3",
                 "--h-step", "0.1", "--out-prefix", prefix]) == 0
    assert main(["curves", "--p", "5", "--beta-min", "0.3", "--beta-max", "1.5",
                 "--beta-step", "0.0002"]) == 0  # 6,001 betas
    assert [path for path, _ in calls] == [prefix + ".grid.csv", prefix + ".curves.csv", "-"]
    assert all(type(payload) is str for _, payload in calls)
    assert calls[2][1].count("\n") == 6001 + 2


def test_phase_diagram_files(tmp_path, capsys):
    prefix = str(tmp_path / "diagram")
    code, _, _ = run_cli(["phase-diagram", "--p", "4", "--beta-min", "0.3",
                          "--beta-max", "0.6", "--beta-step", "0.1",
                          "--h-min", "-0.3", "--h-max", "0.3",
                          "--h-step", "0.1", "--out-prefix", prefix], capsys)
    assert code == 0
    grid_text = open(prefix + ".grid.csv").read()
    curve_text = open(prefix + ".curves.csv").read()
    assert grid_text.splitlines()[1] == "beta,h,region_code"
    assert curve_text.splitlines()[1] == "beta,U,L,C"

    # a worker pool must produce the identical artifact
    prefix2 = str(tmp_path / "diagram2")
    code, _, _ = run_cli(["phase-diagram", "--p", "4", "--beta-min", "0.3",
                          "--beta-max", "0.6", "--beta-step", "0.1",
                          "--h-min", "-0.3", "--h-max", "0.3",
                          "--h-step", "0.1", "--jobs", "2",
                          "--out-prefix", prefix2], capsys)
    assert code == 0
    assert open(prefix2 + ".grid.csv").read() == grid_text
    assert open(prefix2 + ".curves.csv").read() == curve_text


def test_phase_diagram_at_p_2(tmp_path, capsys):
    # p = 2 is in the documented domain; U/L/C are not defined there, so the
    # curves file is the header alone, and `curves` says why it has nothing
    prefix = str(tmp_path / "p2")
    code, _, _ = run_cli(["phase-diagram", "--p", "2", "--beta-min", "0.3",
                          "--beta-max", "0.9", "--beta-step", "0.3",
                          "--h-min", "-0.2", "--h-max", "0.2",
                          "--h-step", "0.2", "--out-prefix", prefix], capsys)
    assert code == 0
    rows = [row.split(",") for row in open(prefix + ".grid.csv").read().splitlines()[2:]]
    assert len(rows) == 9
    assert [int(c) for _, _, c in rows] == [
        classify_point(2, float(b), float(h)).region_code for b, h, _ in rows]
    assert {c for _, _, c in rows} == {"0", "1"}  # two maxima from beta > 1/2
    assert open(prefix + ".curves.csv").read() == "# schema_version=1\nbeta,U,L,C\n"
    code, out, err = run_cli(["curves", "--p", "2", "--beta-min", "0.3",
                              "--beta-max", "0.9"], capsys)
    assert (code, out) == (1, "")
    assert "defined for p >= 3" in err


def test_sample_and_bottleneck_json(capsys):
    code, out, _ = run_cli(["sample", "--p", "4", "--beta", "0.9", "--h", "0",
                            "--n", "60", "--burn", "1000", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["weights"] == [0.5, 0.5]

    code, out, _ = run_cli(["bottleneck", "--p", "4", "--beta", "0.51",
                            "--h", "0.184", "--n", "40"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["phi_star"] > 0


def test_sample_windows_lie_in_state_space(capsys):
    for args, n in ((["--p", "4", "--beta", "0.9", "--h", "0", "--n", "200"], 200),
                    (["--p", "4", "--beta", "0.054", "--h", "0.5", "--n", "50"], 50)):
        code, out, _ = run_cli(["sample"] + args, capsys)
        assert code == 0
        payload = json.loads(out)["payload"]
        for (lo, hi), k in zip(payload["windows"], payload["final_sums"]):
            assert -n <= lo <= k <= hi <= n
    assert payload["windows"] == [[-50, 50]]


# First 16 hex digits of the stdout sha256.  Exact mixing, Monte-Carlo
# mixing, coupling, bottleneck, classify and sampler bytes for a fixed seed
# change only when a change says why.
PINNED_STDOUT = [
    ("f5c3380fb2927ada", "mix --p 4 --beta 0.054 --h 0.5 --n 400 --eps 0.35 --cap 100000"),
    ("7794412f6ee19b1b", "restricted-mix --p 4 --beta 0.51 --h 0.184 --n 400 --cap 100000"),
    ("2d91c0163b5b4991", "coupling --p 3 --beta 0.05 --h 0.1 --n 100 --steps 400"),
    ("8590d831a22799cd", "bottleneck --p 4 --beta 0.51 --h 0.184 --n 200"),
    ("d6474d891e523c21",
     "mix --p 4 --beta 0.054 --h 0.5 --n 200 --method mc --replicas 2000 --seed 3"),
    ("1c54dec21e83504e", "classify --p 4 --beta 0.51 --h 0.184 --margins"),
    ("23ba66f4a7fc6ecc", "classify --p 4 --beta 0.9 --h 0"),
    ("0208b6eb2e7d1cb0", "sample --p 4 --beta 0.9 --h 0 --n 200"),
    ("083a8cd9d1745db0", "mix-sweep --p 4 --beta 0.054 --h 0.5 --n-list 400,800,1600"
                         " --cap 1000000 --jobs 1"),
    ("c7961267294fc813", "mix-sweep --p 4 --beta 1/3 --h 0.40996906622851137"
                         " --n-list 200,400,800 --cap 1000000 --jobs 1"),
    ("0956d7b951cefd82", "mix --p 4 --beta 0.9 --h 0 --n 100 --cap 5000"),
    # 40000 steps cross two draw chunks of 16384
    ("584003304a196dcc", "coupling --p 3 --beta 0.05 --h 0.1 --n 200 --steps 40000"
                         " --seed 4 --record-every 1"),
    ("5b572ea3ddbcf784", "coupling --p 3 --beta 0.05 --h 0.1 --n 200 --steps 40000"
                         " --seed 4 --record-every 7"),
    ("9984cfa52d4fd69f", "sample --p 4 --beta 0.9 --h 0 --n 2000 --seed 5"),
    # the global maximizer's well [-200, 136], cut below the metastable one
    ("a7af8b5902f1199b", "sample --p 4 --beta 0.51 --h 0.184 --n 200 --burn 3000 --seed 2"),
    # 6,398 cuts, 1.1 MB: a long list of records
    ("328bc249c65267ae", "bottleneck --p 4 --beta 0.51 --h 0.184 --n 3200"),
    # down underflows to 0: each geq cut's log_Q from the log-space rate
    ("b65d9bbb5650bf0a", "bottleneck --p 4 --beta 0.5 --h 400 --n 50"),
    # the degenerate maximizer at the special point, a triple root of H'
    ("4dd38d29df4e05ea", "classify --p 4 --beta 1/3 --h 0.40996906622851137 --margins"),
    # wells at -1 + 5e-11 and 1 - 9e-13, where H'' is -9.9e9 and -5.4e11
    ("07a109bbc7867b83", "classify --p 12 --beta 1.1 --h 1 --margins"),
    # the README's C curve, solved at 173 betas
    ("fa5213ee80ec6772", "curves --p 4 --beta-min 0.34 --beta-max 1.2 --beta-step 0.005"),
    # up to p*beta = 16, the edge of the documented domain
    ("443894f1e74d4606", "curves --p 12 --beta-min 0.05 --beta-max 1.33 --beta-step 0.005"),
    # the README's curves as SVG: each series keeps only its defined points
    ("c652d07d79a2adf1", "curves --p 4 --beta-min 0.34 --beta-max 1.2 --beta-step 0.005 --svg"),
    # 12,001 betas, solved in three blocks of _BETA_BLOCK betas
    ("4acf88d2eb7bcef8", "curves --p 5 --beta-min 0.3 --beta-max 1.5 --beta-step 0.0001"),
    # the drift field on its default 201-point grid, and at one c
    ("e4af375d2c089e79", "drift --p 4 --beta 0.5 --h 0.1 --n 100"),
    ("2088e3e1a69f1434", "drift --p 4 --beta 0.5 --h 0.1 --n 100 --c 0.3"),
    # one finished row and one capped row, whose t_mix field is empty
    ("4d0e4d9e9dc3d6b2", "mix-sweep --p 4 --beta 0.054 --h 0.5 --n-list 100,3200"
                         " --cap 5000 --jobs 1"),
    # the top of the well [-60, 41] rejects moves: acceptance 0.997935
    ("031de1e1bc2c2063", "sample --p 4 --beta 0.51 --h 0.184 --n 60 --burn 200000 --seed 2"),
    # at N = 10 the level changes every few steps over whole 16384-step chunks
    ("84c0e4e071c720a0", "coupling --p 4 --beta 0.51 --h 0.184 --n 10 --steps 100000"
                         " --record-every 1000"),
    # every row of 100,000 steps, 25 CSV batches: the chains meet at step
    # 933, so the hamming and untouched columns are 0 in the last 24
    ("6d0a3e9437f0add2", "coupling --p 3 --beta 0.05 --h 0.1 --n 200 --steps 100000"
                         " --seed 7"),
]


def test_pinned_stdout_digests(capsys):
    # every command runs before the one assert, so each moved digest is listed
    moved = []
    for digest, command in PINNED_STDOUT:
        code, out, _ = run_cli(command.split(), capsys)
        got = hashlib.sha256(out.encode()).hexdigest()[:16]
        if code != 0 or got != digest:
            moved.append((command, code, got))
    assert not moved, moved


# First 16 hex digits of the sha256 of the .grid.csv and .curves.csv that
# phase-diagram writes, over the README ranges at step 0.05 unless the
# ranges are given: region codes and curve samples change only when a
# change says why.
_README_RANGES = ("--beta-min 0.01 --beta-max 1.2 --beta-step 0.05"
                  " --h-min -1 --h-max 1 --h-step 0.05")
PINNED_GRIDS = [("02846029156f6a70", "550bd4b317afb5b4", f"--p 4 {_README_RANGES}"),
                ("c6e416f6849e90e1", "ae82fe80a13265a5", f"--p 5 {_README_RANGES}"),
                ("39fc730ab593abb8", "573de69fddc29c6f", f"--p 3 {_README_RANGES}"),
                ("cf99974a41b8fe2b", "0bb7c6e221a50aa9", f"--p 6 {_README_RANGES}"),
                # 26,065 cells below beta_hat = 1/3, all of region code 0: every
                # 4096-row batch of the grid file has one code
                ("b3c2c696a3ac2317", "71f079aa38f2f49a",
                 "--p 4 --beta-min 0.01 --beta-max 0.33 --beta-step 0.005"
                 " --h-min -1 --h-max 1 --h-step 0.005")]


def test_pinned_grid_digests(tmp_path, capsys):
    moved = []
    for i, (grid_digest, curves_digest, ranges) in enumerate(PINNED_GRIDS):
        prefix = str(tmp_path / f"g{i}")
        code, _, _ = run_cli(["phase-diagram", *ranges.split(), "--out-prefix", prefix],
                             capsys)
        if code != 0:
            moved.append((ranges, "exit", code))
            continue
        for ext, digest in (("grid", grid_digest), ("curves", curves_digest)):
            with open(f"{prefix}.{ext}.csv", "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()[:16]
            if got != digest:
                moved.append((ranges, ext, got))
    assert not moved, moved


def test_report_round_trips(capsys):
    # load_report rebuilds from CLI stdout the report the library returns,
    # and that report encodes back to the same bytes
    from pspin_glauber import MetastableSpec, metastable_sample

    mc = dict(mode=MONTE_CARLO, seed=3, replicas=500)
    cases = [
        ("classify --p 4 --beta 0.51 --h 0.184 --margins", PhaseReport,
         classify_point(4, 0.51, 0.184, with_margin=True)),
        ("mix --p 4 --beta 0.054 --h 0.5 --n 60 --cap 5000", MixingReport,
         mixing_time(ModelParams(4, 0.054, 0.5), 60, 0.35, 5000)),
        ("mix --p 4 --beta 0.054 --h 0.5 --n 60 --cap 40 --method mc "
         "--replicas 500 --seed 3", MixingReport,
         mixing_time(ModelParams(4, 0.054, 0.5), 60, 0.35, 40, **mc)),
        ("bottleneck --p 4 --beta 0.51 --h 0.184 --n 30", BottleneckReport,
         bottleneck(ModelParams(4, 0.51, 0.184), 30)),
        ("sample --p 4 --beta 0.9 --h 0 --n 40 --burn 500 --seed 1", SamplerReport,
         metastable_sample(MetastableSpec(params=ModelParams(4, 0.9, 0.0), N=40,
                                          burn_steps=500, seed=1))[1]),
    ]
    for command, kind, expected in cases:
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0
        report = load_report(out)
        assert type(report) is kind and report == expected, command
        assert _json_envelope(report) == out, command
    assert cases[2][2].capped and None in cases[2][2].t_by_start.values()
    assert isinstance(cases[4][2].windows[0], tuple)


# -- the report writer against json.dumps ------------------------------------


class Tone(Enum):
    LOW = "low"
    HIGH = 2
    PAIR = (1.5, None)


@dataclasses.dataclass
class Row:  # plain scalar fields: a list of Rows takes the column path
    x: float
    n: int
    name: str
    ok: bool
    note: float | None
    tone: Tone


@dataclasses.dataclass
class Other:
    x: float


@dataclasses.dataclass
class Node:
    rows: list
    mixed: list
    pair: tuple
    table: dict
    tone: Tone
    child: "Node | None"
    empty: list = dataclasses.field(default_factory=list)
    nothing: dict = dataclasses.field(default_factory=dict)


def _tree(obj):
    """The dict tree json.dumps writes for obj: dataclass fields by name,
    enums by value, dict keys as str, tuples as lists."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_tree(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _tree(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    return {f.name: _tree(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


_SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e308]
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats(),
                    st.floats().map(np.float64))
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), _floats, st.text())
_rows = st.builds(Row, x=_floats, n=st.integers(), name=st.text(),
                  ok=st.booleans(), note=st.none() | _floats,
                  tone=st.sampled_from(Tone))
_keys = st.one_of(st.sampled_from([-200, 200, 1000, 5, "5", True]),
                  st.integers(), st.text(max_size=3))
_nodes = st.recursive(
    st.none(),
    lambda child: st.builds(
        Node, rows=st.lists(_rows, max_size=6),
        mixed=st.lists(_rows | st.builds(Other, x=_floats), max_size=4),
        pair=st.tuples(_scalars, _rows | _scalars),
        table=st.dictionaries(_keys, _scalars | st.lists(_scalars, max_size=3),
                              max_size=5),
        tone=st.sampled_from(Tone), child=child,
        empty=st.just([]) | st.lists(st.just(()), max_size=2)),
    max_leaves=4)


def _dumps(report) -> str:
    return json.dumps({"schema_version": "1", "report": type(report).__name__,
                       "payload": _tree(report)}, sort_keys=True, indent=2) + "\n"


@given(_nodes.filter(lambda node: node is not None))
def test_report_writer_matches_json_dumps(node):
    assert _json_envelope(node) == _dumps(node)


@given(st.lists(_rows, min_size=1, max_size=8))
def test_record_lists_match_json_dumps(rows):
    node = Node(rows=rows, mixed=rows + [Other(x=-0.0)], pair=(rows[0], None),
                table={-200: rows, 200: [], 1000: {}}, tone=Tone.PAIR, child=None)
    assert _json_envelope(node) == _dumps(node)


def test_report_writer_on_every_report_kind(capsys):
    for command in ("classify --p 4 --beta 0.51 --h 0.184 --margins",
                    "mix --p 4 --beta 0.9 --h 0 --n 40 --cap 100",
                    "sample --p 4 --beta 0.9 --h 0 --n 40 --burn 500 --seed 1",
                    "bottleneck --p 4 --beta 0.5 --h 400 --n 20"):
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0
        assert out == _dumps(load_report(out)), command


def test_load_report_rejects_foreign_documents(capsys):
    _, out, _ = run_cli(["classify", "--p", "4", "--beta", "0.9", "--h", "0"], capsys)
    doc = json.loads(out)
    for bad, message in (
            (dict(doc, schema_version="2"), "schema_version '2'"),
            ({k: v for k, v in doc.items() if k != "schema_version"},
             "schema_version None"),
            ([doc], "schema_version None"),
            (dict(doc, report="TraceReport"), "unknown report kind 'TraceReport'"),
            (dict(doc, report=["PhaseReport"]), "unknown report kind"),
            (dict(doc, report=None), "unknown report kind None")):
        with pytest.raises(ValueError, match=message):
            load_report(json.dumps(bad))


def test_svg_output():
    series = [("measured", [(80, 300.0), (160, 700.0), (320, 1600.0)]),
              ("reference", [(80, 350.0), (160, 760.0), (320, 1640.0)])]
    doc = emit_svg(series, log_x=True, log_y=True, x_label="N", y_label="t")
    assert doc.count("<polyline") == 2
    assert doc == emit_svg(series, log_x=True, log_y=True, x_label="N",
                           y_label="t")
    single = emit_svg([("point", [(1.0, 2.0)])])
    assert single.count("<polyline") == 1
    with pytest.raises(ValueError):
        emit_svg([])
    with pytest.raises(ValueError):
        emit_svg([("bad", [(1.0, float("nan"))])])
    with pytest.raises(ValueError):
        emit_svg([("bad", [(0.0, 1.0)])], log_x=True)


def test_mix_sweep_svg_with_reference(capsys):
    code, out, _ = run_cli(["mix-sweep", "--p", "4", "--beta", "0.054",
                            "--h", "0.5", "--n-list", "60,120", "--eps", "0.35",
                            "--cap", "100000", "--svg", "--reference", "nlogn"],
                           capsys)
    assert code == 0
    assert out.count("<polyline") == 2
    assert "10 N log N" in out


def test_curves_svg(capsys):
    code, out, _ = run_cli(["curves", "--p", "4", "--beta-min", "0.4",
                            "--beta-max", "0.5", "--beta-step", "0.05",
                            "--svg"], capsys)
    assert code == 0
    assert out.startswith("<?xml")
    assert "<polyline" in out


def readme_block(heading: str, fence: str) -> str:
    """The first code block of the README section under `## heading`."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_block("Command line", "").replace("\\\n", " ").splitlines()
    assert len(commands) == 11
    for line in commands:
        prog, *args = shlex.split(line)
        assert prog == "pspin-glauber"
        code, _, err = run_cli(args, capsys)
        assert code == 0, (line, err)
    assert (tmp_path / "diagram.grid.csv").exists()


def test_readme_library_example(capsys):
    exec(readme_block("Library example", "python"), {})
    region, capped, t_mix = capsys.readouterr().out.splitlines()
    assert region == "Region.LOCALLY_CRITICAL"
    assert capped == "True"
    assert int(t_mix) > 0
