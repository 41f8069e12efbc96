"""CLI behaviour outside the numerics: parameter checks and entry points."""

import cmath
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest

import taurmt
from taurmt import cli
from taurmt.cli import (COMMANDS, EXIT_BAD_PARAMS, EXIT_NONCONVERGED, EXIT_OK,
                        EXIT_VIOLATION, main)
from taurmt.monodromy_vi import SSEParams
from taurmt.rmt_numerics import (QuadratureError, fredholm_log_derivatives,
                                  toeplitz_an)

SRC = pathlib.Path(taurmt.__file__).resolve().parent.parent


# the commands that read --tol; the others reject it as unrecognized
TOL_COMMANDS = ("monodromy-check", "ode", "toeplitz")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_out_of_range_tolerance_is_a_usage_error(command, tol, capsys):
    code = main([command, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    if command in TOL_COMMANDS:
        assert captured.err.startswith("error: tol must be finite and positive")


@pytest.mark.parametrize("command", COMMANDS)
def test_tolerance_only_where_it_is_read(command, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("tol=1e-8\n")
    argv = [command, f"--config={config}", "--grid-count=1"]
    if command == "ode":
        argv.append("--grid-end=0.01")
    code = main(argv)
    captured = capsys.readouterr()
    if command in TOL_COMMANDS:
        assert code == EXIT_OK
    else:
        assert code == EXIT_BAD_PARAMS
        assert captured.out == ""
        assert captured.err == "error: unknown configuration key 'tol'\n"
        assert main([command, "--tol=1e-8"]) == EXIT_BAD_PARAMS
        assert "unrecognized arguments: --tol=1e-8" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,key", [
    ("toeplitz", "nodes=5\n", "nodes"),
    ("toeplitz", "family=bulk\n", "family"),
    ("series", "dims=8,16\n", "dims"),
    ("fredholm", "oracle=1\n", "oracle"),
])
def test_config_keys_of_other_commands_are_usage_errors(command, text, key,
                                                         tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    code = main([command, f"--config={config}", "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == f"error: unknown configuration key {key!r}\n"


@pytest.mark.parametrize("command,choices", [("series", "an, bulk"),
                                             ("ode", "vi, bulk")])
def test_config_value_outside_the_flag_choices_is_a_usage_error(
        command, choices, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("family=zzz\n")
    code = main([command, f"--config={config}", "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == ("error: --family: 'zzz' is not one of "
                            f"{choices}\n")
    # the same value as a flag is refused by the parser itself
    assert main([command, "--family=zzz"]) == EXIT_BAD_PARAMS


@pytest.mark.parametrize("argv", [["series", "--family=vi"],
                                  ["ode", "--family=an"]])
@pytest.mark.parametrize("via_config", [False, True])
def test_family_of_the_other_command_is_a_usage_error(argv, via_config,
                                                       tmp_path, capsys):
    # series once printed the an table for vi, and ode ran the bulk flow
    # for an
    command, flag = argv
    if via_config:
        config = tmp_path / "run.cfg"
        config.write_text(flag[2:] + "\n")
        argv = [command, f"--config={config}"]
    code = main(argv + ["--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert flag.split("=")[1] in captured.err


def test_config_keys_of_the_command_itself_are_read(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("family=bulk\nformat=csv\n")
    assert main(["series", f"--config={config}", "--grid-count=1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("x,")


@pytest.mark.parametrize("argv", [
    ["toeplitz", "--grid-path=imag"],
    ["fredholm", "--grid-path=circle"],
    ["ode", "--grid-path=circle"],
])
def test_grid_path_outside_the_command_is_a_usage_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[0]} computes on grid-path")


def test_in_range_tolerance_accepted(capsys):
    assert main(["ode", "--tol=1e-8", "--grid-end=0.01"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) > 1
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.parametrize("module", ["taurmt", "taurmt.cli"])
def test_runs_as_module_without_warnings(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "monodromy-check",
         "--bigN=2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""


def test_package_import_leaves_cli_unloaded():
    code = ("import sys, taurmt; assert 'taurmt.cli' not in sys.modules; "
            "assert taurmt.cli.main")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["asymptotics", "--nodes=3"],
    ["fredholm", "--nodes=3"],
    ["fredholm", "--xi=nan"],
    ["fredholm", "--grid-start=-1", "--grid-count=1"],
    # E near 1e-196 there, with no correct digit
    ["fredholm", "--xi=1", "--grid-start=30", "--grid-count=1"],
    ["asymptotics", "--xi=1", "--grid-start=30", "--grid-count=1"],
])
def test_bad_fredholm_arguments_are_parameter_errors(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("parameter error: ")
    assert "Traceback" not in captured.err


def _json_rows(argv, capsys):
    assert main(argv) == EXIT_OK
    return json.loads(capsys.readouterr().out)["rows"]


# the weight flag defaults of series and toeplitz
DEFAULT_WEIGHT = dict(mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)


@pytest.mark.parametrize("argv,t_of_row,det_at", [
    (["toeplitz", "--bigN=8", "--grid-count=6"],
     lambda row: complex(row[0], row[1]), 2),
    (["toeplitz", "--bigN=4", "--grid-path=real", "--grid-start=0.05",
      "--grid-end=0.99", "--grid-count=6"], lambda row: row[0], 2),
    (["series", "--bigN=6", "--grid-count=7"], lambda row: row[0], 3),
])
def test_grid_rows_equal_single_point_calls(argv, t_of_row, det_at, capsys):
    p = SSEParams(N=int(argv[1].split("=")[1]), **DEFAULT_WEIGHT)
    rows = _json_rows(argv, capsys)
    assert len(rows) == int(argv[-1].split("=")[1])
    for row in rows:
        v = toeplitz_an(p, t_of_row(row))
        assert (row[det_at].hex(), row[det_at + 1].hex()) == (
            v.real.hex(), v.imag.hex())


@pytest.mark.parametrize("grid,message", [
    # the oracle would refuse 0.95, but the whole Toeplitz column runs
    # first and refuses 1.5
    (["--grid-start=0.95", "--grid-end=1.5"],
     "t must lie in the closed unit disc, not at 0"),
    # the Toeplitz route refuses 1.5 before the oracle sees it
    (["--grid-start=1.5", "--grid-end=0.95"],
     "t must lie in the closed unit disc, not at 0"),
    # the Toeplitz route takes both points and the oracle refuses the first
    (["--grid-start=0.95", "--grid-end=0.9"],
     "direct oracle is defined on the unit circle only"),
])
def test_oracle_grid_reports_the_first_failure_in_grid_order(grid, message,
                                                             capsys):
    code = main(["toeplitz", "--oracle", "--bigN=3", "--grid-path=real",
                 *grid, "--grid-count=2"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == f"parameter error: {message}\n"


def test_oracle_grid_reports_a_toeplitz_stall_first(capsys):
    # 2 mu = -0.96 is refused by the Toeplitz route at the first point
    p = SSEParams(N=3, mu=-0.48, omega1=0.1, omega2=0.3, xi_star=0.5)
    with pytest.raises(QuadratureError) as exc:
        toeplitz_an(p, cmath.exp(0.4j))
    code = main(["toeplitz", "--oracle", "--bigN=3", "--mu=-0.48",
                 "--grid-start=0.4", "--grid-end=1.4", "--grid-count=2"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGED
    assert captured.out == ""
    assert captured.err == f"nonconvergence: {exc.value}\n"


def test_odd_node_counts(capsys):
    grid = ["--grid-start=0.5", "--grid-end=4", "--grid-count=4"]
    for xi in ("1", "0.5+0.5i"):
        odd = _json_rows(["fredholm", f"--xi={xi}", "--nodes=81", *grid],
                         capsys)
        twin = _json_rows(["fredholm", f"--xi={xi}", "--nodes=162", *grid],
                          capsys)
        for a, b in zip(odd, twin):
            assert abs(complex(a[1], a[2]) - complex(b[1], b[2])) <= 1e-12
    odd = _json_rows(["asymptotics", "--xi=1", "--nodes=141"], capsys)
    even = _json_rows(["asymptotics", "--xi=1", "--nodes=140"], capsys)
    for a, b in zip(odd, even):
        assert abs(a[2] - b[2]) <= 1e-10 * max(1.0, abs(b[2]))
        assert abs(a[5] - b[5]) <= 1e-12


@pytest.mark.parametrize("count, flows", [(3, 1), (1, 0)])
def test_bulk_gap_point_reuses_the_seed_log_derivatives(count, flows,
                                                        monkeypatch, capsys):
    # one Fredholm jet per row, the first also seeding the flow, each
    # row's E from its own jet, and one flow over the whole grid
    calls, integrations, determinants = [], [], []
    real, real_integrate = cli.fredholm_log_derivatives, cli.integrate
    real_sine = cli.fredholm_sine

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        integrations.append(args[2])
        return real_integrate(*args, **kwargs)

    def counted_sine(spec):
        determinants.append(spec)
        return real_sine(spec)

    monkeypatch.setattr(cli, "fredholm_log_derivatives", counted)
    monkeypatch.setattr(cli, "integrate", counted_integrate)
    monkeypatch.setattr(cli, "fredholm_sine", counted_sine)
    rows = _json_rows(["bulk", "--mu=0", "--omega1=0", "--omega2=0",
                       "--dims=4,8", f"--grid-count={count}"], capsys)
    assert len(rows) == count
    assert calls == [row[0] for row in rows]
    assert determinants == []
    assert integrations == [[-4j * row[0] for row in rows[1:]]] * flows
    assert rows[0][5] == 0.0


@pytest.mark.xfail(strict=True, reason=(
    "known defect (ROADMAP item 9): the Toeplitz limit at x = -4it carries "
    "no error estimate, so at t = 20 bulk exits 0 with toeplitz_limit_re = "
    "-1.81e-3 where e_fredholm is 1.70e-4"))
def test_bulk_gap_point_limit_is_a_probability_or_refused(capsys):
    argv = ["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--grid-start=0.2",
            "--grid-end=20", "--grid-count=2"]
    code = main(argv)
    out = capsys.readouterr().out
    if code == EXIT_OK:
        data = json.loads(out)
        column = data["columns"].index("toeplitz_limit_re")
        assert all(0 <= row[column] <= 1 for row in data["rows"])


@pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("xi", [0.5, 1.0, 0.5 + 0.5j])
def test_gap_seed_is_the_bulk_sigma_map_jet(t, xi):
    # with d/dx = (i/4) d/dt at x = -4it, the bulk sigma map's jet is this
    # closed form in the t-derivatives, bit for bit
    _, l1, l2, l3 = fredholm_log_derivatives(t, xi)
    p = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=xi)
    seed = cli._gap_seed(p, t, l1, l2, l3)
    assert (seed.t, seed.zeta, seed.dzeta, seed.curvature) == (
        -4j * t, t * l1, (1j / 4) * (l1 + t * l2), -(2 * l2 + t * l3) / 16.0)


def test_looser_tolerance_is_honoured(capsys):
    # ode integrates at --tol as given: a looser value takes fewer steps and
    # keeps every residual within its own 100 * tol budget
    loose = _json_rows(["ode", "--tol=1e-6"], capsys)
    default = _json_rows(["ode"], capsys)
    assert _json_rows(["ode", "--tol=1e-10"], capsys) == default
    assert len(loose) < len(default)
    assert max(row[6] for row in loose) <= 100 * 1e-6
    assert loose[0] == default[0]
    assert abs(loose[-1][2] - default[-1][2]) <= 1e-4


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("first, second", [
    (["toeplitz", "--oracle", "--grid-count=2"], ["toeplitz", "--grid-count=2"]),
    (["series", "--family=bulk", "--grid-count=2"], ["series", "--grid-count=2"]),
])
def test_consecutive_calls_share_no_flags(first, second, capsys):
    before = main(second), capsys.readouterr().out
    assert main(first) == EXIT_OK
    capsys.readouterr()
    assert (main(second), capsys.readouterr().out) == before
    params = json.loads(before[1])["params"]
    assert "oracle" not in params and "family" not in params


@pytest.mark.parametrize("command", [["bulk", "--dims=8,16", "--grid-count=2"],
                                     ["ode", "--family=bulk"]])
def test_complex_weight_is_accepted(command, capsys):
    # the roots of a complex (mu, omega2) do not sum to exactly 0
    rows = _json_rows([*command, "--mu=0.14+0.147i", "--omega1=0.045",
                       "--omega2=0.217"], capsys)
    assert len(rows) >= 2
    assert all(math.isfinite(v) for row in rows for v in row)


PARAMETER_FLAGS = ("mu", "omega1", "omega2", "xi", "bigN", "sigma", "s", "r",
                   "theta0", "thetat", "theta1", "thetainf")
SSE_FLAGS = {"mu", "omega1", "omega2", "xi"}
THETA_FLAGS = {"theta0", "thetat", "theta1", "thetainf"}
VI_FLAGS = {"sigma", "s"} | THETA_FLAGS
# the parameter flags each command reads, on any of its branches: 38 slots
READS = {
    "monodromy-check": set(PARAMETER_FLAGS),
    "series": SSE_FLAGS | {"bigN"},
    "ode": SSE_FLAGS | VI_FLAGS,
    "toeplitz": SSE_FLAGS | {"bigN"},
    "fredholm": {"xi"},
    "bulk": SSE_FLAGS,
    "asymptotics": {"xi"},
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", PARAMETER_FLAGS)
def test_parameter_flag_only_where_it_is_read(command, flag, tmp_path,
                                              capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag}=1\n")
    if flag in READS[command]:
        for given in (f"--{flag}=1", f"--config={config}"):
            cfg = cli._resolve(cli._build_parser().parse_args([command,
                                                                given]))
            assert cfg.params[flag] == 1
        return
    assert main([command, f"--{flag}=1", "--grid-count=1"]) == EXIT_BAD_PARAMS
    assert capsys.readouterr().out == ""
    assert main([command, f"--config={config}", "--grid-count=1"]) \
        == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown configuration key {flag!r}\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_default_params_are_the_read_flags_with_defaults(command, capsys):
    argv = [command, "--grid-count=1"]
    if command == "ode":
        argv.append("--grid-end=0.01")
    assert main(argv) == EXIT_OK
    params = json.loads(capsys.readouterr().out)["params"]
    # the theta flags have no default: giving one picks the generic branch
    assert set(params) == READS[command] - THETA_FLAGS


def test_one_point_bulk_grid_prints_the_anchor_row(capsys):
    rows = _json_rows(["bulk", "--grid-count=1", "--dims=8"], capsys)
    assert len(rows) == 1
    x, ode_re, ode_im, series_re, series_im = rows[0][:5]
    assert x == 0.2
    assert (ode_re, ode_im) == (series_re, series_im)
    assert rows[0][7] == rows[0][8]


@pytest.mark.parametrize("argv", [
    ["fredholm", "--x=1", "--grid-count=1"],
    ["bulk", "--dim=8,16", "--grid-count=1"],
    ["toeplitz", "--s=1"],
])
def test_flag_prefix_is_not_an_alias(argv, capsys):
    # a unique prefix of --xi, --dims or --selftest is rejected on the
    # command line as its config-file key would be
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {argv[1]}\n"


@pytest.mark.parametrize("argv", [
    ["ode", "--grid-start=0"],
    ["ode", "--family=bulk", "--grid-start=0"],
    ["bulk", "--grid-start=0", "--grid-count=2"],
])
def test_seed_at_the_expansion_point_is_a_parameter_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert "expansion point" in captured.err


# t = 1 on the circle, where the singular points merge into exponent
# 2 mu + 2 omega_1 = -1.39, which is not integrable
MERGED_SINGULARITY = [
    ["toeplitz", "--bigN=1", "--mu=-0.435", "--omega1=-0.26",
     "--grid-start=0", "--grid-count=1"],
    ["toeplitz", "--bigN=1", "--mu=-0.435", "--omega1=-0.26",
     "--grid-path=real", "--grid-start=1", "--grid-count=1"],
    ["toeplitz", "--bigN=1", "--mu=-0.435", "--omega1=-0.26",
     "--grid-start=0", "--grid-count=1", "--oracle"],
]


@pytest.mark.parametrize("argv", MERGED_SINGULARITY)
def test_merged_non_integrable_singularity_is_a_parameter_error(argv,
                                                                capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert "not integrable" in captured.err
    assert caught == []


# every command and branch: both ode families, both toeplitz paths and the
# oracle, and bulk at the gap point
SWEEP_COMMANDS = [
    ["monodromy-check"], ["series"], ["series", "--family=bulk"], ["ode"],
    ["ode", "--family=bulk"], ["toeplitz"], ["toeplitz", "--grid-path=real"],
    ["toeplitz", "--oracle"], ["fredholm"], ["bulk"],
    ["bulk", "--mu=0", "--omega1=0", "--omega2=0"], ["asymptotics"],
]


def _sweep(starts):
    return [[*command, f"--grid-start={start}", f"--grid-end={end}",
             "--grid-count=2"]
            for command in SWEEP_COMMANDS
            for start in starts
            for end in ("0.5", "1")]


@pytest.mark.parametrize(
    "argv", _sweep(("0", "1", "-0.5", "2")) + MERGED_SINGULARITY
    + _sweep(("nan", "inf", "-inf", "1e-300", "-1e-300", "1e300")))
def test_no_command_escapes_its_exit_codes(argv, capsys):
    assert main(argv) in (EXIT_OK, EXIT_VIOLATION, EXIT_BAD_PARAMS,
                          EXIT_NONCONVERGED)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", ["--grid-start", "--grid-end"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_grid_point_is_a_usage_error(command, flag, value,
                                                capsys):
    code = main([command, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == (f"error: {flag[2:]} must be finite, "
                            f"got {float(value)!r}\n")


@pytest.mark.parametrize("argv, flag", [
    (["series", "--grid-count=2.5"], "--grid-count"),
    (["fredholm", "--grid-start=abc"], "--grid-start"),
    (["bulk", "--grid-end=0.5x"], "--grid-end"),
    (["ode", "--tol=abc"], "--tol"),
])
def test_unparsable_grid_or_tol_value_is_a_usage_error(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("argv", [
    ["ode", "--grid-start=1e-300"],
    ["ode", "--grid-start=1e300"],
    ["ode", "--family=bulk", "--grid-start=1e-300"],
    ["series", "--family=bulk", "--grid-start=1e300"],
    ["toeplitz", "--grid-path=real", "--grid-start=1e-300", "--grid-count=1"],
    ["series", "--grid-start=-1e-300", "--grid-count=1"],
])
def test_extreme_grid_point_is_a_parameter_error(argv, capsys):
    # the boundary expansion overflows there, and so would the weight's
    # continuation near t = 0; OverflowError is a parameter error like
    # every ArithmeticError
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("parameter error: ")


@pytest.mark.parametrize("argv", [
    ["fredholm", "--grid-start=100", "--grid-end=1e6", "--grid-count=3"],
    ["fredholm", "--grid-start=1e300"],
    ["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--grid-start=1e300"],
])
def test_half_width_past_the_node_resolution_is_a_parameter_error(argv,
                                                                  capsys):
    # the Gauss-Legendre rule resolves the sine kernel only for |t| <= m/2;
    # past it the determinant degrades, then overflows
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("parameter error: half-width t = ")
    assert "needs more than m = " in captured.err


@pytest.mark.parametrize("count", [3, 4])
def test_overflowing_grid_step_is_a_usage_error(count, capsys):
    code = main(["toeplitz", "--grid-start=-1e308", "--grid-end=1e308",
                 f"--grid-count={count}"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == ("error: grid-end - grid-start overflows the "
                            "grid step\n")


def test_two_point_grid_over_the_widest_ends_is_accepted(capsys):
    # no interior point, so no step is formed
    rows = _json_rows(["toeplitz", "--grid-start=-1e308", "--grid-end=1e308",
                       "--grid-count=2"], capsys)
    assert len(rows) == 2


def _grid(start, end, count):
    return cli.RunConfig("fredholm", {}, (start, end, count, "real"), None,
                         "json", None).grid_values()


@pytest.mark.parametrize("seed", range(20))
def test_grid_runs_from_start_to_end(seed):
    rng = random.Random(seed)
    for _ in range(50):
        start, end = (rng.choice((1, -1)) * rng.uniform(0.1, 10.0)
                      * 10.0 ** rng.randint(-8, 8) for _ in range(2))
        count = rng.randint(2, 40)
        step = (end - start) / (count - 1)
        values = _grid(start, end, count)
        assert len(values) == count
        assert values[0] == start and values[-1] == end
        # interior points as start + i * step, bit for bit
        assert values[1:-1] == [start + i * step for i in range(1, count - 1)]


def test_grid_end_is_met_when_the_ends_differ_in_magnitude():
    # start + 1 * step rounds to 0.0 here
    assert _grid(1e300, 0.5, 2) == [1e300, 0.5]
    assert _grid(0.3, 0.7, 1) == [0.3]


def test_last_grid_row_is_the_grid_end(capsys):
    # start + 1 * step is 2.9000000000000004
    assert main(["fredholm", "--grid-start=0.7", "--grid-end=2.9",
                 "--grid-count=2"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row[0] for row in rows] == [0.7, 2.9]


def test_bulk_batches_each_dimension_and_sweeps_the_prefactors_once(
        monkeypatch, capsys):
    # one toeplitz_grid call per dimension over the whole grid, and one
    # running log-gamma sum up to the largest dimension for every
    # normalization, where a loop over (x, N) made |xs| |dims| of each
    from taurmt import complexfn
    from taurmt import rmt_numerics as rmt

    grids, sweeps, ln_calls = [], [], []
    real_grid, real_sweep = rmt.toeplitz_grid, rmt.barnes_prefactors
    real_ln_gamma = complexfn.ln_gamma

    def counted_grid(p, ts, *args, **kwargs):
        grids.append((p.N, len(ts)))
        return real_grid(p, ts, *args, **kwargs)

    def counted_sweep(n_max, *args):
        before = len(ln_calls)
        out = real_sweep(n_max, *args)
        sweeps.append((n_max, len(ln_calls) - before))
        return out

    def counted_ln_gamma(z):
        ln_calls.append(z)
        return real_ln_gamma(z)

    monkeypatch.setattr(rmt, "toeplitz_grid", counted_grid)
    monkeypatch.setattr(rmt, "barnes_prefactors", counted_sweep)
    monkeypatch.setattr(complexfn, "ln_gamma", counted_ln_gamma)
    rows = _json_rows(["bulk", "--dims=8,16,32", "--grid-count=4"], capsys)
    assert len(rows) == 4
    assert grids == [(8, 4), (16, 4), (32, 4)]
    assert sweeps == [(32, 4 * 32)]


@pytest.mark.parametrize("argv, code, message", [
    # the largest grid point's N = 8 seeds stall
    (["bulk", "--dims=8,16", "--grid-start=0.2", "--grid-end=40",
      "--grid-count=2"], EXIT_NONCONVERGED,
     "nonconvergence: tanh-sinh refinement stalled"),
    # every limit succeeds; the Fredholm value at t = 75 is refused
    (["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--dims=8,16",
      "--grid-start=0.2", "--grid-end=75", "--grid-count=2"],
     EXIT_BAD_PARAMS,
     "parameter error: half-width t = 75.0 needs more than m = 140 nodes"),
])
def test_bulk_failing_grid_exit_codes(argv, code, message, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
