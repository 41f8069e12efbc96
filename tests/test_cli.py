"""CLI behaviour outside the numerics: parameter checks and entry points."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import taurmt
from taurmt.cli import COMMANDS, EXIT_BAD_PARAMS, EXIT_OK, main

SRC = pathlib.Path(taurmt.__file__).resolve().parent.parent


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_out_of_range_tolerance_is_a_usage_error(command, tol, capsys):
    code = main([command, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_PARAMS
    assert captured.out == ""
    assert captured.err.startswith("error: tol must be finite and positive")


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
