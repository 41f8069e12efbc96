"""CLI behaviour outside the numerics: parameter checks and entry points."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import taurmt
from taurmt import cli
from taurmt.cli import COMMANDS, EXIT_BAD_PARAMS, EXIT_OK, main

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


@pytest.mark.parametrize("command", ["series", "ode"])
def test_config_value_outside_the_flag_choices_is_a_usage_error(
        command, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("family=zzz\n")
    code = main([command, f"--config={config}", "--grid-count=1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err == ("error: --family: 'zzz' is not one of "
                            "an, bulk, vi\n")
    # the same value as a flag is refused by the parser itself
    assert main([command, "--family=zzz"]) == EXIT_BAD_PARAMS


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
    ["fredholm", "--grid-start=inf", "--grid-count=1"],
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


def test_bulk_gap_point_reuses_the_seed_log_derivatives(monkeypatch, capsys):
    calls = []
    real = cli.fredholm_log_derivatives

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fredholm_log_derivatives", counted)
    rows = _json_rows(["bulk", "--mu=0", "--omega1=0", "--omega2=0",
                       "--dims=4,8", "--grid-count=3"], capsys)
    assert calls == [row[0] for row in rows]
    assert rows[0][5] == 0.0


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
