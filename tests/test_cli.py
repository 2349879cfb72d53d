"""Command-line dispatch, output envelopes, report round-trips, SVG."""

import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

from pspin_glauber import (
    MONTE_CARLO,
    BottleneckReport,
    MixingReport,
    ModelParams,
    PhaseReport,
    SamplerReport,
    bottleneck,
    classify_point,
    mixing_time,
)
from pspin_glauber.cli import (JOBS_ENV, _json_envelope, build_parser, load_report,
                               main, real)
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


def test_bad_jobs_env_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "two")
    code, _, err = run_cli(["mix-sweep", "--p", "4", "--beta", "0.054",
                            "--h", "0.5", "--n-list", "40"], capsys)
    assert code == 1
    assert JOBS_ENV in err and "'two'" in err


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


def test_curves_past_the_root_finding_range_name_it(capsys):
    # at p = 30 every nudge into the coexistence band near beta = 0.44 puts
    # a maximizer past atanh(1 - 1e-15); the error says so rather than
    # calling the two maxima missing
    code, out, err = run_cli(["curves", "--p", "30", "--beta-min", "0.4",
                              "--beta-max", "0.6"], capsys)
    assert code == 1 and out == ""
    assert "root-finding range |m| <= 1 - 1e-15" in err
    assert "p*beta or |h| is too large for root finding" in err
    assert "no coexisting maxima" not in err


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
    # within 1e-12 of +1, inside the root finder's fallback margin
    code, out, err = run_cli(["classify", "--p", "30", "--beta", "0.5",
                              "--h", "0.1"], capsys)
    assert code == 0, err
    ms = [s["m"] for s in json.loads(out)["payload"]["stationary_points"]]
    assert min(ms) < -1 + 1e-12 and max(ms) > 1 - 1e-12


def test_domain_error_exit_code(capsys):
    # field too large for the root-finding domain: a semantic failure
    code, _, err = run_cli(["classify", "--p", "4", "--beta", "0.5",
                            "--h", "25"], capsys)
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
    # coexistence band lies past the float margin of root finding
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
    assert open(prefix + ".curves.csv").read().splitlines()[1:] == ["beta,U,L,C"]
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
                    (["--p", "4", "--beta", "0.054", "--h", "0.5", "--n", "50",
                      "--epsilon", "5"], 50)):
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
    ("c53fae460e573403",
     "mix --p 4 --beta 0.054 --h 0.5 --n 200 --method mc --replicas 2000 --seed 3"),
    ("5c8bfb176b564f2a", "classify --p 4 --beta 0.51 --h 0.184 --margins"),
    ("888c7e2c25372bd5", "classify --p 4 --beta 0.9 --h 0"),
    ("0b8fe0e0fc8647a6", "sample --p 4 --beta 0.9 --h 0 --n 200"),
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
    ("ed8bdfe29bf36116", "sample --p 4 --beta 0.9 --h 0 --n 2000 --seed 5"),
    # a window that rejects 1.4 % of its moves
    ("330d5c645ee6b81c", "sample --p 4 --beta 0.51 --h 0.184 --n 200 --burn 3000 --seed 2"),
]


def test_pinned_stdout_digests(capsys):
    for digest, command in PINNED_STDOUT:
        code, out, _ = run_cli(command.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest, command


# First 16 hex digits of the sha256 of the .grid.csv and .curves.csv that
# phase-diagram writes over the README ranges at step 0.05: region codes and
# curve samples change only when a change says why.
PINNED_GRIDS = [("02846029156f6a70", "550bd4b317afb5b4", 4),
                ("c6e416f6849e90e1", "ae82fe80a13265a5", 5),
                ("39fc730ab593abb8", "573de69fddc29c6f", 3),
                ("cf99974a41b8fe2b", "0bb7c6e221a50aa9", 6)]


def test_pinned_grid_digests(tmp_path, capsys):
    for grid_digest, curves_digest, p in PINNED_GRIDS:
        prefix = str(tmp_path / f"p{p}")
        code, _, _ = run_cli(["phase-diagram", "--p", str(p), "--beta-min", "0.01",
                              "--beta-max", "1.2", "--beta-step", "0.05",
                              "--h-min", "-1", "--h-max", "1", "--h-step", "0.05",
                              "--out-prefix", prefix], capsys)
        assert code == 0
        for ext, digest in (("grid", grid_digest), ("curves", curves_digest)):
            with open(f"{prefix}.{ext}.csv", "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest()[:16] == digest, (p, ext)


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
