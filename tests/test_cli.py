"""CLI behaviour outside the numerics: parameter checks and entry points."""

import cmath
import dataclasses
import json
import math
import os
import pathlib
import random
import re
import struct
import subprocess
import sys
import warnings

import pytest

import taurmt
import taurmt.rmt_numerics as rmt
from taurmt import cli, sigma_ode
from taurmt.cli import (COMMANDS, EXIT_BAD_PARAMS, EXIT_NONCONVERGED, EXIT_OK,
                        EXIT_VIOLATION, main)
from taurmt.monodromy_v import limit_transition_ii, sse_pv_matrices
from taurmt.monodromy_vi import SSEParams, sse_monodromy
from taurmt.rmt_numerics import (FredholmSpec, QuadratureError,
                                  fredholm_log_derivatives, fredholm_sine,
                                  toeplitz_an)
from taurmt.tau_series import gap_asymptotics

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


@pytest.mark.parametrize("command,key", [("toeplitz", "oracle"),
                                         ("fredholm", "selftest")])
def test_unparsable_config_switch_names_its_key(command, key, tmp_path,
                                                capsys):
    # a config line names its key in a switch's error, as a flag does
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}=maybe\n")
    assert main([command, f"--config={config}"]) == EXIT_BAD_PARAMS
    assert capsys.readouterr() == (
        "", f"error: --{key}: cannot parse 'maybe' as a boolean\n")


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


@pytest.mark.parametrize("argv", [
    ["ode", "--tol=1e-8", "--grid-end=0.01"],
    # the eighth-order flow at a tight tolerance, on both families
    ["ode", "--tol=1e-13"],
    ["ode", "--family=bulk", "--tol=1e-13", "--grid-count=9"],
])
def test_in_range_tolerance_accepted(argv, capsys):
    assert main(argv) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) > 1
    assert all(math.isfinite(v) for row in rows for v in row)


@pytest.mark.parametrize("text,expected", [
    ("0.25", (0.25, 0.0)),
    ("1.5i", (0.0, 1.5)),
    ("0.3-0.2i", (0.3, -0.2)),
    ("i", (0.0, 1.0)),
    ("-i", (0.0, -1.0)),
    ("+I", (0.0, 1.0)),
    ("1e+3-2e-3i", (1000.0, -0.002)),
    ("-0", (-0.0, 0.0)),
    ("-0i", (0.0, -0.0)),
    ("0.3-0i", (0.3, -0.0)),
    (" 0.3 - 0.2i ", (0.3, -0.2)),
    # a space may stand round the sign that joins the parts
    ("1 +2i", (1.0, 2.0)),
    ("1e-3  -  2e+3i", (0.001, -2000.0)),
    # a refusal is its UsageError's text
    ("", "empty complex literal"),
    *((text, f"cannot parse {text!r} as a complex value") for text in
      ("1+2j", "2j", "(1+2i)", "1+", "i1", "1e", "1\t+2i", "1 5", "1e 3",
       "1e -3", "1e+ 3", "- 2i", "1+2 i")),
    *((text, f"{text!r} is not a finite number") for text in
      ("nan", "inf", "infi", "1e400")),
])
def test_complex_literal_grammar(text, expected):
    if isinstance(expected, str):
        with pytest.raises(cli.UsageError) as exc:
            cli.parse_complex(text)
        assert str(exc.value) == expected
    else:
        z = cli.parse_complex(text)
        assert (z.real.hex(), z.imag.hex()) == tuple(x.hex() for x in expected)


@pytest.mark.parametrize("text", ["1+2j", "1 5", "1e 3", "1e -3"])
def test_refused_literal_is_a_usage_error_that_names_the_flag(text, capsys):
    # a space between two digits once vanished, so "1 5" read 15
    assert main(["fredholm", f"--xi={text}"]) == EXIT_BAD_PARAMS
    assert capsys.readouterr() == (
        "", f"error: --xi: cannot parse {text!r} as a complex value\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["-m", "taurmt", "monodromy-check", "--bigN=2"],
                 id="taurmt"),
    pytest.param(["-m", "taurmt.cli", "monodromy-check", "--bigN=2"],
                 id="taurmt.cli"),
    # -OO strips the docstrings: the help must not read them
    pytest.param(["-OO", "-m", "taurmt", "--help"], id="-OO"),
])
def test_runs_as_module_without_warnings(argv, capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    if "--help" in argv:
        assert main(["--help"]) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out


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
    # the first point's recurred table is refused at the rounding level
    (["toeplitz", "--bigN=16", "--grid-path=real", "--grid-start=0.4",
      "--grid-end=0.9", "--grid-count=3"], lambda row: row[0], 2),
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


@pytest.mark.parametrize("grid,message", [
    # t = -0.5 once took the interior quadrature and printed a value
    (["--grid-start=-0.5", "--grid-count=1"], "not t = -0.5:"),
    (["--grid-start=0.5", "--grid-end=-0.25", "--grid-count=2"],
     "not t = -0.25:"),
    (["--grid-start=-1e-300", "--grid-count=1"], "not t = -1e-300:"),
    # the first point outside (0, 1] is the weight's own refusal
    (["--grid-start=1.5", "--grid-end=-0.5", "--grid-count=2"],
     "t must lie in the closed unit disc, not at 0"),
])
def test_real_path_t_outside_zero_one_is_a_parameter_error(grid, message,
                                                           capsys):
    code = main(["toeplitz", "--grid-path=real", *grid])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("parameter error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,message", [
    # series and bulk meet the weight's own rule, as toeplitz does
    (["series", "--grid-start=-0.5", "--grid-count=1"], "not t = -0.5:"),
    # N = 0 once printed det 1 here and exited 0
    (["toeplitz", "--bigN=0", "--grid-path=real", "--grid-start=-0.5",
      "--grid-count=1"], "off the unit circle t must lie in (0, 1), not "
                         "t = -0.5:"),
    (["toeplitz", "--bigN=0", "--oracle", "--grid-start=0",
      "--grid-path=real", "--grid-count=1"],
     "t must lie in the closed unit disc, not at 0"),
    (["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--xi=1.7e308",
      "--grid-count=2"], "a part's share of it is "),
    (["asymptotics", "--xi=0.5+0.1i"], "xi must lie in (0, 1], got "
                                       "(0.5+0.1j)"),
    (["ode", "--s=1e-13"], "degenerate parameter: s_hat = (1e-13+0j)"),
    # the grid's last point has no correct digit
    (["fredholm", "--xi=1", "--grid-start=1", "--grid-end=30",
      "--grid-count=2"], "has no correct digit at m = 80 nodes"),
])
def test_library_refusal_is_a_parameter_error(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("parameter error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_oracle_meets_the_toeplitz_route_on_a_short_arc(capsys):
    # xi = 1 leaves the arc of width 2 pi - 6.1 = 0.18 past the wrap angle
    assert main(["toeplitz", "--oracle", "--bigN=3", "--mu=0.5",
                 "--omega1=0.5", "--xi=1", "--grid-start=6.1",
                 "--grid-count=1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    column = data["columns"].index("rel_diff")
    assert all(row[column] <= 1e-8 for row in data["rows"])


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


@pytest.mark.parametrize("bign", ["2", "4"])
def test_circle_point_snapped_onto_two_pi_keeps_its_value(bign, capsys):
    # the phase of g = -1e-17 rounds to exactly 2 pi, where the single
    # snapped panel is the wrapped side
    snapped, near = (_json_rows(["toeplitz", f"--bigN={bign}",
                                 f"--grid-start={g}", "--grid-count=1"],
                                capsys)[0] for g in ("-1e-17", "-1e-15"))
    a, b = complex(snapped[2], snapped[3]), complex(near[2], near[3])
    assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("command,xi,m,ts", [
    # the guard refuses 30 once 2 and 16 are computed
    ("fredholm", "1", 80, (2.0, 16.0, 30.0)),
    # -1 is refused before the guard computes 30
    ("fredholm", "1", 80, (30.0, -1.0)),
    ("fredholm", "1", 80, (-1.0, 30.0)),
    # 45 is past the rule's resolution, refused before 25's guard
    ("fredholm", "1", 81, (5.0, 25.0, 45.0)),
    ("fredholm", "0.5+0.5i", 81, (30.0, 45.0)),
    ("fredholm", "1e300", 80, (0.5, 30.0)),
    ("fredholm", "1", 9, (0.5, 1.0)),
    ("asymptotics", "1", 140, (2.0, 16.0, 30.0)),
    # the prediction refuses -1 before Fredholm computes 30
    ("asymptotics", "1", 140, (30.0, -1.0)),
    ("asymptotics", "1", 140, (2.0, -1.0)),
    ("asymptotics", "1", 140, (-1.0, 30.0)),
    # 160 is past the rule's resolution, refused before 30's guard
    ("asymptotics", "1", 300, (30.0, 160.0)),
    # a coupling outside (0, 1] is the prediction's refusal at the first t
    ("asymptotics", "2", 140, (2.0, 30.0)),
    ("asymptotics", "0", 140, (30.0, 2.0)),
    ("asymptotics", "-0.5", 80, (50.0, 2.0)),
    ("asymptotics", "0.5", 9, (2.0, 3.0)),
])
def test_failing_grid_reports_its_first_refusal_then_its_first_failure(
        command, xi, m, ts, capsys):
    # every t's arguments are checked, the predictions' and then the
    # Fredholm values', before any t is computed; the first error in that
    # order is the one reported
    z = cli.parse_complex(xi)
    with pytest.raises(ValueError) as exc:
        if command == "asymptotics":
            z = z.real
            for t in ts:
                gap_asymptotics(t, z)
        for t in ts:
            FredholmSpec(t, z, m)
        for t in ts:
            if command == "asymptotics":
                fredholm_log_derivatives(t, z, m)
            else:
                fredholm_sine(FredholmSpec(t, z, m))
    code = main([command, f"--xi={xi}", f"--nodes={m}",
                 f"--grid-start={ts[0]}", f"--grid-end={ts[-1]}",
                 f"--grid-count={len(ts)}"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        EXIT_BAD_PARAMS, "", f"parameter error: {exc.value}\n")


def _never(*args, **kwargs):
    raise AssertionError("a grid with a refused point was computed")


# a real-segment table that asks 3.2e-12 of coefficients far past 1/eps,
# so its quadrature stalls below the rounding floor
STALLING_TABLE = ["toeplitz", "--bigN=36", "--mu=0.710902+0.180507i",
                  "--omega1=-0.0940847", "--omega2=0.419925", "--xi=0.577814",
                  "--grid-path=real", "--grid-start=0.183796"]


@pytest.mark.parametrize("argv,skipped,message", [
    (["asymptotics", "--xi=1", "--grid-start=30", "--grid-end=-1",
      "--grid-count=2"], [(cli, "fredholm_log_derivatives_grid")],
     "t must be finite and positive, got -1.0"),
    (["asymptotics", "--xi=1", "--nodes=300", "--grid-start=30",
      "--grid-end=160", "--grid-count=2"], [(rmt, "_sine_kernel_blocks")],
     "half-width t = 160.0 needs more than m = 300 nodes: the rule "
     "resolves |t| <= m/2"),
    # the gap branch: one jets call before the flow, which refuses -1
    (["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--dims=8",
      "--grid-start=0.5", "--grid-end=-1", "--grid-count=2"],
     [(rmt, "_sine_kernel_blocks"), (cli, "integrate")],
     "half-width t must be a positive real"),
    # the generic branch: the limits refuse t = exp(-x/N) outside the
    # disc before the flow, at a negative x and where t underflows to 0
    (["bulk", "--grid-start=-0.3", "--grid-end=-0.6", "--grid-count=2"],
     [(cli, "integrate")], "t must lie in the closed unit disc, not at 0"),
    (["bulk", "--grid-end=1e300", "--grid-count=2"], [(cli, "integrate")],
     "t must lie in the closed unit disc, not at 0"),
    # the stalling table's t, then a t outside the disc: refused before
    # any quadrature
    ([*STALLING_TABLE, "--grid-end=1.5", "--grid-count=2"],
     [(rmt, "_quadrature_tables")],
     "t must lie in the closed unit disc, not at 0"),
])
def test_refused_grid_point_raises_before_any_compute(argv, skipped, message,
                                                      monkeypatch, capsys):
    for module, name in skipped:
        monkeypatch.setattr(module, name, _never)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        EXIT_BAD_PARAMS, "", f"parameter error: {message}\n")


@pytest.mark.parametrize("argv,grid,point", [
    (["fredholm", "--nodes=81", "--grid-count=5"], "fredholm_grid",
     "fredholm_sine"),
    (["asymptotics", "--grid-count=4"], "fredholm_log_derivatives_grid",
     "fredholm_log_derivatives"),
    # an odd rule (both parities in one lockstep), a large odd rule built
    # from numpy alone, a complex coupling, and a larger asymptotics rule
    (["fredholm", "--nodes=81", "--grid-count=10"], "fredholm_grid",
     "fredholm_sine"),
    (["fredholm", "--nodes=601", "--grid-end=6"], "fredholm_grid",
     "fredholm_sine"),
    (["fredholm", "--xi=0.5+0.5i", "--nodes=300", "--grid-count=10"],
     "fredholm_grid", "fredholm_sine"),
    (["asymptotics", "--nodes=300", "--grid-count=6"],
     "fredholm_log_derivatives_grid", "fredholm_log_derivatives"),
])
def test_fredholm_commands_make_one_grid_call(argv, grid, point,
                                              monkeypatch, capsys):
    # one call of the grid function over the whole grid, none per point
    calls = []
    real = getattr(cli, grid)

    def counted(ts, *args):
        calls.append(list(ts))
        return real(ts, *args)

    monkeypatch.setattr(cli, grid, counted)
    monkeypatch.setattr(cli, point, None)
    rows = _json_rows(argv, capsys)
    assert calls == [[row[0] for row in rows]]


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


@pytest.mark.parametrize("count, steps", [(3, 1), (1, 0)])
def test_bulk_gap_point_reuses_the_seed_log_derivatives(count, steps,
                                                        monkeypatch, capsys):
    # one Fredholm jet per row, all from one grid call before the flow:
    # the first also seeds the flow, each row's E comes from its own jet,
    # and one flow runs over the whole grid, which on a one-point grid
    # takes no step
    calls, integrations, trajectories, determinants = [], [], [], []
    real, real_integrate = cli.fredholm_log_derivatives_grid, cli.integrate
    real_sine = cli.fredholm_sine

    def counted(*args, **kwargs):
        calls.append(list(args[0]))
        return real(*args, **kwargs)

    def one_point(*args, **kwargs):
        raise AssertionError("a one-point Fredholm jet was computed")

    def counted_integrate(*args, **kwargs):
        integrations.append(args[2])
        trajectories.append(real_integrate(*args, **kwargs))
        return trajectories[-1]

    def counted_sine(spec):
        determinants.append(spec)
        return real_sine(spec)

    monkeypatch.setattr(cli, "fredholm_log_derivatives_grid", counted)
    monkeypatch.setattr(cli, "fredholm_log_derivatives", one_point)
    monkeypatch.setattr(cli, "integrate", counted_integrate)
    monkeypatch.setattr(cli, "fredholm_sine", counted_sine)
    rows = _json_rows(["bulk", "--mu=0", "--omega1=0", "--omega2=0",
                       "--dims=4,8", f"--grid-count={count}"], capsys)
    assert len(rows) == count
    assert calls == [[row[0] for row in rows]]
    assert determinants == []
    assert integrations == [[-4j * row[0] for row in rows]]
    assert [min(traj.accepted, 1) for traj in trajectories] == [steps]
    assert rows[0][5] == 0.0


def test_bulk_within_the_input_tolerance_of_the_gap_point_takes_it(capsys):
    # mu, omega1 and omega2 are each tested against INPUT_INTEGER_TOL, so
    # mu = 1e-13 runs the sine-kernel branch rather than exiting 3 in the
    # boundary series
    argv = ["bulk", "--omega1=0", "--omega2=0", "--dims=4,8",
            "--grid-count=2"]
    tables = []
    for mu in ("0", "1e-13"):
        assert main([*argv, f"--mu={mu}"]) == EXIT_OK
        tables.append(json.loads(capsys.readouterr().out))
    gap, near = tables
    assert near["columns"] == gap["columns"]
    assert len(near["rows"]) == len(gap["rows"])
    assert max(abs(a - b) for ra, rb in zip(near["rows"], gap["rows"])
               for a, b in zip(ra, rb)) <= 1e-12


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
    # closed form in the t-derivatives, equal in value (the sign of a zero
    # imaginary part of sigma' or sigma'' may differ)
    _, l1, l2, l3 = fredholm_log_derivatives(t, xi)
    p = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=xi)
    seed = cli._gap_seed(p, t, l1, l2, l3)
    assert (seed.t, seed.zeta, seed.dzeta, seed.curvature) == (
        -4j * t, t * l1, (1j / 4) * (l1 + t * l2), -(2 * l2 + t * l3) / 16.0)


@pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("xi", ["0.5", "1", "0.5+0.5i"])
def test_bulk_gap_point_h_fredholm_is_the_seed_jet(t, xi, capsys):
    # h_fredholm at each grid point is the sigma value of _gap_seed's jet,
    # bit for bit: the seed's at the first point (so its h_diff is exactly
    # 0), its own Fredholm jet's at the second
    rows = _json_rows(["bulk", "--mu=0", "--omega1=0", "--omega2=0",
                       f"--xi={xi}", "--dims=4", f"--grid-start={t / 2}",
                       f"--grid-end={t}", "--grid-count=2"], capsys)
    p = SSEParams(N=0, mu=0j, omega1=0j, omega2=0j,
                  xi_star=cli.parse_complex(xi))
    assert rows[0][5] == 0.0
    for row in rows:
        _, *jet = fredholm_log_derivatives(row[0], p.xi_star)
        zeta = cli._gap_seed(p, row[0], *jet).zeta
        assert struct.pack("<dd", row[3], row[4]) == struct.pack(
            "<dd", zeta.real, zeta.imag)


@pytest.mark.parametrize("family", ["vi", "bulk"])
def test_ode_passes_through_every_grid_point(family, capsys):
    # one flow seeded at the first grid point: an interior grid point is a
    # node and moves the end only by the integration error, and a one-point
    # grid is the seed row
    argv = ["ode", f"--family={family}"]
    two = _json_rows([*argv, "--grid-count=2"], capsys)
    three = _json_rows([*argv, "--grid-count=3"], capsys)
    middle = 1e-3 + (0.4 - 1e-3) / 2
    assert [middle, 0.0] in [row[:2] for row in three]
    assert three[0] == two[0] and three[-1][:2] == two[-1][:2] == [0.4, 0.0]
    assert max(abs(a - b)
               for a, b in zip(three[-1][2:6], two[-1][2:6])) <= 1e-8
    assert _json_rows([*argv, "--grid-count=1"], capsys) == two[:1]


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
        for given in ([f"--{flag}=1"], [f"--{flag}", "1"],
                      [f"--config={config}"]):
            cfg = cli._resolve(*cli._read_argv([command, *given]))
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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spelling", ["--help", "-h"])
def test_command_help_names_the_flags_it_reads(command, spelling, capsys):
    assert main([command, "--grid-count=1", spelling]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: taurmt {command} ")
    named = set(re.findall(r"^  --([\w-]+)", out, re.MULTILINE))
    assert named & set(PARAMETER_FLAGS) == READS[command]
    assert ("tol" in named) == (command in TOL_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_defaults_are_the_ones_applied(command, capsys):
    assert main([command, "--help"]) == EXIT_OK
    shown = dict(re.findall(r"^  --([\w-]+) .*\(default ([^)]*)\)$",
                            capsys.readouterr().out, re.MULTILINE))
    cfg = cli._resolve(command, {})
    start, end, count, path = cfg.grid
    applied = {flag: cli.format_complex(value) if isinstance(value, complex)
               else repr(value) for flag, value in cfg.params.items()}
    applied.update({"grid-start": f"{start!r} on {path}",
                    "grid-end": f"{end!r} on {path}",
                    "grid-count": f"{count!r} on {path}",
                    "grid-path": path,
                    "output": cfg.output or "stdout"})
    if cfg.tol is not None:
        applied["tol"] = repr(cfg.tol)
    assert shown == applied


@pytest.mark.parametrize("argv", [["--help"], ["-h"]])
def test_top_level_help_lists_every_command(argv, capsys):
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert re.findall(r"^  (\S+)$", out, re.MULTILINE) == list(COMMANDS)


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required: " + ", ".join(COMMANDS)),
    (["nope"], "unknown command 'nope': choose from " + ", ".join(COMMANDS)),
    (["--xi=1", "fredholm"], "unknown command '--xi=1': choose from "
     + ", ".join(COMMANDS)),
    (["fredholm", "--xi"], "argument --xi: expected one argument"),
    (["fredholm", "--xi", "--nodes=80"],
     "argument --xi: expected one argument"),
    (["toeplitz", "--oracle=1"], "argument --oracle: ignored explicit "
     "argument '1'"),
    (["fredholm", "--selftest="], "argument --selftest: ignored explicit "
     "argument ''"),
    (["fredholm", "0.5", "--tol=1", "-x"],
     "unrecognized arguments: 0.5 --tol=1 -x"),
    (["toeplitz", "--oracle", "1"], "unrecognized arguments: 1"),
])
def test_argv_errors_are_usage_errors(argv, message, capsys):
    assert main(argv) == EXIT_BAD_PARAMS
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_spaced_flag_value_reads_as_its_equals_spelling(capsys):
    # the token after a --key with no "=" is its value, a negative number
    # included; the later of two spellings wins
    spelled = ["--xi=-0.5", "--grid-start=0.5", "--grid-count=2"]
    assert main(["fredholm", *spelled]) == EXIT_OK
    want = capsys.readouterr()
    assert main(["fredholm", "--xi", "-0.5", "--grid-start", "0.5",
                 "--grid-count=7", "--grid-count", "2"]) == EXIT_OK
    assert capsys.readouterr() == want


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


def test_every_branch_runs_on_numpy_alone():
    # in a fresh interpreter, every command and branch at its defaults, on
    # one grid point and as CSV, toeplitz on both sides of the kmax split
    # (N = 1 is a seed pass, N = 3 recurs) and bulk with seed-only and
    # recurred dimensions in one sweep: none may import the test extras
    # or scipy
    runs = [[*command, *extra] for command in SWEEP_COMMANDS
            for extra in ([], ["--grid-count=1"],
                          ["--format=csv", "--grid-count=1"])]
    runs += [
        ["toeplitz", "--bigN=1", "--grid-count=3"],
        ["toeplitz", "--bigN=3", "--grid-path=real", "--grid-count=3"],
        ["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--dims=1,2,3,16",
         "--grid-count=3"],
        ["bulk", "--dims=1,2,8", "--grid-count=2"],
    ]
    code = ("import contextlib, io, sys\n"
            "from taurmt.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "extras = {'mpmath', 'scipy', 'pytest'} & "
            "{name.partition('.')[0] for name in sys.modules}\n"
            "assert not extras, extras\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("argv, message", [
    (["fredholm", "--xi=1e300", "--grid-count=1"], "det(I - xi K)"),
    # a coupling near the float max: numpy's complex product xi lam flags
    # an overflow in an intermediate although the product is finite
    (["fredholm", "--xi=1.7e308+1.7e308i", "--grid-start=0.1",
      "--grid-end=5", "--grid-count=4"], "det(I - xi K)"),
    (["fredholm", "--xi=1.7e308", "--grid-start=0.1", "--grid-end=5",
      "--grid-count=4"], "det(I - xi K)"),
    (["toeplitz", "--omega2=1e300", "--grid-count=1"], "the weight"),
    (["toeplitz", "--omega2=300", "--grid-count=1"], "the weight"),
    (["toeplitz", "--mu=700", "--grid-count=1"], "the weight"),
    # the endpoint factor at the deepest tanh-sinh node overflows
    (["toeplitz", "--omega2=60", "--omega1=-0.45", "--grid-count=1"],
     "the weight"),
    (["toeplitz", "--mu=0", "--omega2=-44.3", "--omega1=-0.45",
      "--grid-start=6.28318530716", "--grid-count=1"], "the weight"),
    (["ode", "--family=bulk", "--grid-end=1e300", "--grid-count=2"],
     "a value"),
])
def test_value_past_the_float_range_is_a_parameter_error(argv, message,
                                                         capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert "Infinity" not in captured.out
    assert captured.err.startswith(f"parameter error: {message}")
    assert "leaves the float range" in captured.err
    assert caught == []


def test_weight_within_the_float_range_is_not_refused(capsys):
    # 2 omega_1 = -0.4 keeps the deepest node's factor in range: the
    # quadrature runs, and stalls without a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["toeplitz", "--omega2=60", "--omega1=-0.2",
                     "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGED
    assert captured.err.startswith("nonconvergence: tanh-sinh refinement")
    assert caught == []


def test_huge_ode_grid_end_names_the_singularity(capsys):
    # the path from 1e-3 to 1e300 crosses the fixed singularity t = 1
    assert main(["ode", "--grid-end=1e300", "--grid-count=2"]) \
        == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parameter error: path segment (0.001+0j) -> "
                            "(1e+300+0j) passes within 1e-9 of the fixed "
                            "singularity (1+0j)\n")


def test_values_just_inside_the_float_range_are_kept(capsys):
    # the determinant is printed bit for bit; the weight passes the check
    # and its quadrature stalls as before
    assert main(["fredholm", "--xi=1e30", "--grid-count=1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"] == [
        [0.1, -2.545532881538893e+108, 0.0]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["toeplitz", "--omega2=225", "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGED
    assert captured.out == ""
    assert captured.err.startswith("nonconvergence: ")
    assert caught == []


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


@pytest.mark.parametrize("weight, fresh", [
    # the gap point: every log-gamma argument is an integer k + 1
    (["--mu=0", "--omega1=0", "--omega2=0"], 0),
    # a generic weight: a + k + 1, b + k + 1 and c + k + 1 for each k
    ([], 3 * 32),
])
def test_bulk_sweeps_every_dimension_at_once(weight, fresh, monkeypatch,
                                             capsys):
    # the 12 (N, x) pairs take one seed pass, one march and one
    # fourier_table call each, and every normalization comes from one
    # running log-gamma sum up to the largest dimension, whose ln k! come
    # from the integer table (its evaluations take an int) and whose other
    # arguments are evaluated once each
    from taurmt import complexfn
    from taurmt import rmt_numerics as rmt

    seeds, marches, tables, sweeps, ln_calls = [], [], [], [], []
    real = (rmt._quadrature_tables, rmt._march_rows, rmt.fourier_table,
            rmt.barnes_prefactors, complexfn.ln_gamma)

    def counted_seeds(p, phis, kmax, tol):
        seeds.append((len(phis), kmax))
        return real[0](p, phis, kmax, tol)

    def counted_march(rows, coeffs, kmaxes):
        marches.append(len(rows))
        return real[1](rows, coeffs, kmaxes)

    def counted_table(w, kmax, *args, **kwargs):
        tables.append(kmax)
        return real[2](w, kmax, *args, **kwargs)

    def counted_sweep(n_max, *args):
        before = len(ln_calls)
        out = real[3](n_max, *args)
        sweeps.append((n_max, [z for z in ln_calls[before:]
                               if not isinstance(z, int)]))
        return out

    def counted_ln_gamma(z):
        ln_calls.append(z)
        return real[4](z)

    monkeypatch.setattr(rmt, "_quadrature_tables", counted_seeds)
    monkeypatch.setattr(rmt, "_march_rows", counted_march)
    monkeypatch.setattr(rmt, "fourier_table", counted_table)
    monkeypatch.setattr(rmt, "barnes_prefactors", counted_sweep)
    monkeypatch.setattr(complexfn, "ln_gamma", counted_ln_gamma)
    rows = _json_rows(["bulk", *weight, "--dims=8,16,32", "--grid-count=4"],
                      capsys)
    assert len(rows) == 4
    assert seeds == [(12, 1)]
    assert marches == [12]
    assert tables == [7] * 4 + [15] * 4 + [31] * 4
    assert [(n_max, len(new)) for n_max, new in sweeps] == [(32, fresh)]


@pytest.mark.parametrize("argv, code, message", [
    # the largest grid point's N = 8 seeds stall
    (["bulk", "--dims=8,16", "--grid-start=0.2", "--grid-end=40",
      "--grid-count=2"], EXIT_NONCONVERGED,
     "nonconvergence: tanh-sinh refinement stalled"),
    # N = 4's table at x = 400 stalls, but every (N, x) is checked before
    # any is computed, and N = 64's t = e^{-400/64} is refused first
    (["bulk", "--dims=4,64", "--grid-start=400", "--grid-count=1"],
     EXIT_BAD_PARAMS, "parameter error: t = (0.0019304541362277093+0j) is "
     "too close to 0"),
    # every limit succeeds; the Fredholm value at t = 75 is refused
    (["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--dims=8,16",
      "--grid-start=0.2", "--grid-end=75", "--grid-count=2"],
     EXIT_BAD_PARAMS,
     "parameter error: half-width t = 75.0 needs more than m = 140 nodes"),
    # the Toeplitz grid behind such limits, at a real-segment t whose
    # table stalls below its rounding floor
    ([*STALLING_TABLE, "--grid-count=1"], EXIT_NONCONVERGED,
     "nonconvergence: tanh-sinh refinement stalled below the rounding "
     "floor"),
])
def test_bulk_failing_grid_exit_codes(argv, code, message, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


def test_gap_point_flow_stops_at_its_step_bound(monkeypatch, capsys):
    # at xi* = 2 the bulk flow creeps toward the pole of sigma near
    # t = -3.394i, each step a small fraction of the distance left; it once
    # ran 154 s before its step underflowed. A leg's accepted steps are the
    # distinct s its trial steps start from
    starts = {}
    make = sigma_ode._dop853

    def counted(third):
        step = make(third)

        def wrapped(a, dt, s, *rest):
            starts.setdefault(a, set()).add(s)
            return step(a, dt, s, *rest)

        return wrapped

    monkeypatch.setattr(sigma_ode, "_dop853", counted)
    code = main(["bulk", "--mu=0", "--omega1=0", "--omega2=0", "--xi=2",
                 "--grid-start=0.1", "--grid-end=3", "--grid-count=6"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGED
    assert captured.out == ""
    assert captured.err.startswith(
        f"nonconvergence: {sigma_ode._LEG_STEPS} accepted steps on one leg, "
        f"stopped at t = ")
    assert max(len(s) for s in starts.values()) == sigma_ode._LEG_STEPS


def test_stokes_constraint_checks_the_printed_multipliers(monkeypatch, capsys):
    # the row reads the multipliers sse_pv_matrices returns, so a skewed s2
    # shows in it and nowhere else
    real = cli.sse_pv_matrices

    def skewed(p):
        pv = real(p)
        return dataclasses.replace(pv, stokes=dataclasses.replace(
            pv.stokes, s2=pv.stokes.s2 * (1 + 1e-6)))

    monkeypatch.setattr(cli, "sse_pv_matrices", skewed)
    assert main(["monodromy-check"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert dict(json.loads(captured.out)["rows"])["stokes_constraint"] >= 1e-7
    assert captured.err == "violated: stokes_constraint\n"


def _skewed_m0(mats):
    # M0's upper-right entry scaled by 1.001
    m0 = mats.m0
    return dataclasses.replace(mats, m0=m0._replace(a12=m0.a12 * 1.001))


def _skewed_sse(real):
    def skewed(p, r):
        sse = real(p, r)
        return dataclasses.replace(sse, matrices=_skewed_m0(sse.matrices))
    return skewed


def _skewed_pvi(real):
    return lambda *args: _skewed_m0(real(*args))


@pytest.mark.parametrize("argv, target, skew, violated", [
    # the SSE matrices are upper triangular, so their trace coordinates,
    # and with them the manifold row, do not see the upper-right entry;
    # the skewed M0 also reaches the off-diagonal relation and the limit
    (["monodromy-check"], "sse_monodromy", _skewed_sse,
     ["cyclic", "off_diagonal_relation", "limit_ii_cyclic_hatted",
      "limit_ii_hat_m0", "limit_ii_hat_m1"]),
    (["monodromy-check", "--theta0=0.21", "--thetat=0.33", "--theta1=0.4",
      "--thetainf=0.17", "--sigma=0.45", "--s=0.8", "--r=1.3"],
     "pvi_matrices", _skewed_pvi,
     ["cyclic", "det_m0", "manifold", "two_point_0t", "connection_01"]),
])
def test_corrupted_m0_is_a_violation(argv, target, skew, violated,
                                     monkeypatch, capsys):
    monkeypatch.setattr(cli, target, skew(getattr(cli, target)))
    assert main([*argv, "--tol=1e-10"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.err == "violated: " + ", ".join(violated) + "\n"
    rows = dict(json.loads(captured.out)["rows"])
    assert {name for name, value in rows.items() if value > 1e-10} \
        == set(violated)


@pytest.mark.parametrize("flag, message", [
    ("--r=0", "degenerate parameter: r = 0j"),
    ("--s=0", "degenerate parameter: s_0t = 0j"),
])
def test_generic_monodromy_check_refuses_a_vanishing_coefficient(
        flag, message, capsys):
    argv = ["monodromy-check", "--theta0=0.21", "--thetat=0.33",
            "--theta1=0.4", "--thetainf=0.17", "--sigma=0.45", "--s=0.8",
            "--r=1.3", flag]
    assert main(argv) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parameter error: {message}\n"


@pytest.mark.parametrize("flags, violated", [
    (["--s=1e100", "--sigma=0.5+200i"],
     ["cyclic", "det_m0", "manifold", "two_point_0t", "connection_t1",
      "connection_01"]),
    # tr(M1 Mt) and its connection cosine are both of order 1e160 and agree
    # to rounding, so connection_t1 passes as a backward error
    (["--s=1e160"],
     ["cyclic", "det_m0", "manifold", "two_point_0t"]),
])
def test_nan_residual_is_a_violation(flags, violated, capsys):
    # a nan is never above the tolerance, yet it is no pass either
    assert main(["monodromy-check", "--thetat=0.3", *flags]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.err == "violated: " + ", ".join(violated) + "\n"
    rows = dict(json.loads(captured.out)["rows"])
    assert {name for name, value in rows.items() if not value <= 1e-10} \
        == set(violated)
    assert any(math.isnan(value) for value in rows.values())


@pytest.mark.parametrize("s, code, err", [
    ("1e-13", EXIT_BAD_PARAMS,
     "parameter error: degenerate parameter: s_hat = (1e-13+0j)\n"),
    ("1e-300", EXIT_BAD_PARAMS,
     "parameter error: degenerate parameter: s_hat = (1e-300+0j)\n"),
    ("0", EXIT_BAD_PARAMS, "parameter error: degenerate parameter: "
                           "s_hat = 0j\n"),
    ("1e-12", EXIT_OK, ""),
])
def test_ode_refuses_s_hat_below_the_degeneracy_tolerance(s, code, err,
                                                          capsys):
    # s-hat meets the |x| < 1e-12 test sigma, s_0t and r meet, not a step
    # size underflow or a float-range error further on; at 1e-12 the series
    # is built and seeds the one-point grid
    assert main(["ode", f"--s={s}", "--grid-count=1"]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (captured.out == "") == (code != EXIT_OK)


def test_nan_fifth_system_residuals_are_a_consistency_failure(capsys):
    # at xi = 1e200 every fifth-system residual is nan; the data are refused
    # for it, as xi = 1e150 is for its huge ones, before the coalescence limit
    assert main(["monodromy-check", "--xi=1e200"]) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parameter error: monodromy data fails consistency checks: "
        "{'cyclic_unhatted': nan, 'cyclic_hatted': nan, 'trace_sigma': nan}\n")


@pytest.mark.parametrize("xi", ["1e-3", "0.5", "10", "100", "1e3", "1e4",
                                "-1e4", "1e4i"])
def test_monodromy_check_passes_as_xi_grows(xi, capsys):
    # the matrix entries grow like xi; each residual is divided by the size
    # of what cancels in it, so the data pass from 1e-3 to 1e4
    assert main(["monodromy-check", f"--xi={xi}"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert max(value for _, value in json.loads(captured.out)["rows"]) \
        <= 1e-10


def test_monodromy_check_refuses_a_cancelling_inverse(capsys):
    # at xi = 1e6 det M1 is computed as 0.999 from entries near 1e6: the
    # hat transform's inverse refuses it
    assert main(["monodromy-check", "--xi=1e6"]) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "parameter error: matrix is singular to working precision")


def _sse_draw(rng):
    """An even-N branch-window weight with |xi| from 1e-3 to 1e4 at a
    complex phase, and a gauge r."""
    n = rng.choice((2, 4, 6, 8))
    sigma = rng.uniform(0.05, 0.95)
    two_mu = rng.uniform(max(-0.9, sigma - 1.9), min(1.9, sigma + 0.9))
    p = SSEParams(N=n, mu=two_mu / 2, omega1=(sigma - two_mu) / 2,
                  omega2=rng.uniform(-0.49, 0.49),
                  xi_star=cmath.rect(10 ** rng.uniform(-3, 4),
                                     rng.uniform(0, 2 * math.pi)))
    return p, rng.uniform(0.5, 1.5)


def test_monodromy_check_passes_over_random_sse_draws(capsys):
    rng = random.Random(1)
    for _ in range(200):
        p, r = _sse_draw(rng)
        argv = ["monodromy-check", f"--bigN={p.N}"] + [
            f"--{flag}={cli.format_complex(value)}" for flag, value in (
                ("mu", p.mu), ("omega1", p.omega1), ("omega2", p.omega2),
                ("xi", p.xi_star), ("r", r))]
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
        pv = sse_pv_matrices(p)
        limit = limit_transition_ii(sse_monodromy(p, r).matrices,
                                    -2 * p.omega1, pv.theta.theta_inf)
        values = [*pv.residuals.values(), *limit.residuals.values()]
        assert all(value <= 1e-13 for value in values), argv  # nan fails


def test_corrupt_s_is_not_a_flag(tmp_path, capsys):
    assert main(["monodromy-check", "--corrupt-s=1.001"]) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unrecognized arguments: "
                            "--corrupt-s=1.001\n")
    config = tmp_path / "run.cfg"
    config.write_text("corrupt-s=1.001\n")
    assert main(["monodromy-check", f"--config={config}"]) == EXIT_BAD_PARAMS
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown configuration key 'corrupt-s'\n"


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0.1+infi"])
@pytest.mark.parametrize("flag, command", [
    (flag, command)
    for flag in ("mu", "omega2", "xi", "r", "sigma", "theta0")
    for command in COMMANDS if flag in READS[command]])
def test_non_finite_parameter_is_a_usage_error(flag, command, value, capsys):
    # a nan that reached ln_gamma's reflection would recurse without end
    code = main([command, f"--{flag}={value}", "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith(f"error: --{flag}: ")
    assert "Traceback" not in captured.err


@pytest.mark.xfail(strict=True, reason=(
    "known defect (ROADMAP items 1 and 10): _sse_residuals passes "
    "theta6 = -2 omega1 to "
    "limit_transition_ii, while the SSE data carry theta_t = -N - 2 omega1; "
    "at odd N e^{+-i pi theta6} has the wrong sign, no matching K exists "
    "and the check exits 3. The one-argument fix waits on "
    "perfbench/test_perfbench.py, which asserts that monodromy-check "
    "--bigN=3 exits 3"))
def test_sse_monodromy_check_passes_at_odd_n(capsys):
    for n in (1, 3):
        assert main(["monodromy-check", f"--bigN={n}"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        limit = [value for name, value in rows if name.startswith("limit_ii_")]
        assert limit and max(limit) <= 1e-10


def _indent1_render(cfg, columns, rows, extra=None):
    # the JSON table as json's indented encoder writes it
    payload = {
        "schema": 1,
        "command": cfg.command,
        "params": {k: (cli.format_complex(v) if isinstance(v, complex) else v)
                   for k, v in sorted(cfg.params.items())},
        "columns": list(columns),
        "rows": [[v if isinstance(v, str) else float(v) for v in row]
                 for row in rows],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


_RENDER_CFG = cli.RunConfig("ode", {"mu": 0.25 - 0.5j, "note": "ä \"q\" \\"},
                            (0.1, 0.2, 2, "real"), 1e-10, "json", None)
_SERIES_EXTRA = {"series": {"anchor": {"re": 1.0, "im": -0.0},
                            "rows": [[1.0, "x"], []], "terms": []}}


@pytest.mark.parametrize("rows, extra", [
    ([[math.nan, math.inf, -math.inf], [-0.0, 5e-324, 1e300]], None),
    ([[0.1, 2, -3.5e-17]], _SERIES_EXTRA),
    ([["héllo wörld", "☃ \U0001d11e"], ['say "hi"', "back\\slash\n"]],
     None),
    ([("k_equation_1", 1.5e-13), ("limit_ii_hat_m0", math.nan)], {}),
    ([], _SERIES_EXTRA),
    ([[], [1.0], []], None),
    ([[]], {"series": {"rows": []}}),
])
def test_json_render_matches_the_indented_encoder(rows, extra):
    columns = ("identity", "residual")
    assert (cli._render(_RENDER_CFG, columns, rows, extra)
            == _indent1_render(_RENDER_CFG, columns, rows, extra))


def test_json_render_matches_the_indented_encoder_on_random_tables():
    rng = random.Random(23)
    pool = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, "",
            "a\"b\\c", "ünï©ødé", "x\ny\tz")
    for _ in range(300):
        rows = [[rng.choice(pool) if rng.random() < 0.4
                 else rng.uniform(-1e5, 1e5) for _ in range(rng.randint(0, 6))]
                for _ in range(rng.randint(0, 5))]
        extra = rng.choice((None, _SERIES_EXTRA))
        assert (cli._render(_RENDER_CFG, ("a", "b"), rows, extra)
                == _indent1_render(_RENDER_CFG, ("a", "b"), rows, extra))
