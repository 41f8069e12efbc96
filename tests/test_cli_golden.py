"""Byte-exact regression of the CLI's stdout.

golden/cli_*.out (and .csv) hold the stdout of every command at its
defaults, of monodromy-check on both branches (SSE and generic theta), of
bulk at the sine-kernel gap point and at a complex weight, and of one CSV
table; golden/ode_bulk.out that of ode on its bulk family. Every number is
written through repr, so any change in the arithmetic behind a command
shows here. With the trajectory file of test_sigma_ode_golden.py, these
are every file under golden/.

Regenerate only for a deliberate numerical change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from taurmt import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")
GENERIC_THETA = ["--theta0=0.21", "--thetat=0.33", "--theta1=0.4",
                 "--thetainf=0.17", "--sigma=0.45", "--s=0.8", "--r=1.3"]
CASES = {
    # file -> (argv, exit code)
    "cli_monodromy_check.out": (["monodromy-check"], cli.EXIT_OK),
    "cli_monodromy_check_generic.out": (
        ["monodromy-check", *GENERIC_THETA], cli.EXIT_OK),
    "cli_series.out": (["series"], cli.EXIT_OK),
    "cli_ode.out": (["ode"], cli.EXIT_OK),
    "ode_bulk.out": (["ode", "--family", "bulk"], cli.EXIT_OK),
    "cli_toeplitz.out": (["toeplitz"], cli.EXIT_OK),
    "cli_fredholm.out": (["fredholm"], cli.EXIT_OK),
    "cli_bulk.out": (["bulk"], cli.EXIT_OK),
    "cli_asymptotics.out": (["asymptotics"], cli.EXIT_OK),
    "cli_bulk_gap.out": (
        ["bulk", "--mu=0", "--omega1=0", "--omega2=0"], cli.EXIT_OK),
    "cli_series_bulk.csv": (
        ["series", "--family=bulk", "--format=csv"], cli.EXIT_OK),
    # complex (mu, omega2): the Okamoto roots sum to zero only to rounding
    "cli_bulk_complex_weight.out": (
        ["bulk", "--mu=0.14+0.147i", "--omega1=0.045", "--omega2=0.217",
         "--dims=8,16", "--grid-count=2"], cli.EXIT_OK),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def write_golden(directory: pathlib.Path = GOLDEN):
    directory.mkdir(exist_ok=True)
    for fname, (argv, want) in CASES.items():
        code, text = _run(argv)
        assert code == want, (fname, code)
        (directory / fname).write_text(text)


@pytest.mark.parametrize("fname", sorted(CASES))
def test_cli_stdout_is_byte_identical(fname):
    argv, want = CASES[fname]
    assert _run(argv) == (want, (GOLDEN / fname).read_text())


def test_ode_on_the_sixth_family_echoes_it():
    # --family=vi is ode's default flow: the same JSON, plus the echoed key
    want = json.loads((GOLDEN / "cli_ode.out").read_text())
    want["params"]["family"] = "vi"
    assert json.loads(_run(["ode", "--family=vi"])[1]) == want


def test_regeneration_reproduces_the_goldens(tmp_path):
    # nothing numerical changed, so regenerating rewrites no byte
    write_golden(tmp_path)
    written = sorted(f.name for f in tmp_path.iterdir())
    assert sorted(written + ["sigma_ode_trajectories.json"]) == sorted(
        f.name for f in GOLDEN.iterdir())
    for fname in written:
        assert (tmp_path / fname).read_bytes() \
            == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    write_golden()
