"""Bit-exact regression of the sigma-form integrator and the ode CLI.

golden/sigma_ode_trajectories.json holds four integrate trajectories (the
sixth form on a real path, the fifth form, the bulk form through two
waypoints, and the bulk form on an imaginary-axis leg) and golden/*.out
the stdout of `taurmt ode --family vi|bulk` at their defaults, all written
with float.hex or repr. Every sum of the stepping loop keeps a fixed order,
so the output must match bit for bit, signs of zero included. Seeds are
stored with the trajectories, so only integrate is under test there.

Regenerate only for a deliberate numerical change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_sigma_ode_golden.py

Regeneration reuses every seed already stored and derives only the seeds
of cases the file does not hold yet, so a seed whose derivation runs
through LAPACK (the imaginary leg) is not rewritten by last-bit
differences between hosts. To re-derive a stored seed, delete its case
from the file first.
"""

import contextlib
import io
import json
import math
import pathlib
import random

import pytest

from taurmt import cli, tau_series
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import SSEParams, ThetaVI
from taurmt.rmt_numerics import fredholm_log_derivatives
from taurmt.sigma_ode import (
    OdeSeed,
    TurningPointError,
    integrate,
    relation,
    seed_bulk,
    seed_v,
    seed_vi,
)
from taurmt.tau_series import BulkParams, bulk_okamoto_params, bulk_series

GOLDEN = pathlib.Path(__file__).with_name("golden")
TRAJECTORIES = GOLDEN / "sigma_ode_trajectories.json"
CLI_CASES = {"ode_vi.out": ["ode", "--family", "vi"],
             "ode_bulk.out": ["ode", "--family", "bulk"]}

THETA6 = ThetaVI(0.3, 0.4, 0.5, 0.6)
THETA5 = ThetaV(0.3, 0.5, 0.7)
P_STD = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
P_GAP = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)


def _cases():
    """name -> (family parameters, seed derivation, path, integrate
    keyword arguments); the derivation is a function of no arguments."""
    return {
        "pvi_sf_real": (
            THETA6,
            lambda: seed_vi(THETA6, tau_series.pvi_tau_series(THETA6, 0.45,
                                                               2.0), 1e-3),
            [0.4], {"tol": 1e-10}),
        "pv_sf": (
            THETA5,
            lambda: seed_v(THETA5, tau_series.pv_tau_series(THETA5, 0.4,
                                                            1.5), 2e-3),
            [0.05], {"tol": 1e-10}),
        "jmo_pv_waypoints": (
            bulk_okamoto_params(P_STD),
            lambda: seed_bulk(P_STD, bulk_series(P_STD), 0.05), [0.2, 0.4],
            {"tol": 1e-10}),
        "jmo_pv_imaginary_leg": (
            bulk_okamoto_params(P_GAP),
            # the CLI's bulk gap seed, on the imaginary axis
            lambda: cli._gap_seed(P_GAP, 0.2,
                                  *fredholm_log_derivatives(0.2, 0.5)[1:]),
            [-4j * 0.6], {"tol": 1e-10}),
    }


def _hex(z: complex) -> list:
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def _unhex(pair) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def _record_seed(seed: OdeSeed) -> list:
    return [_hex(seed.t), _hex(seed.zeta), _hex(seed.dzeta),
            _hex(seed.curvature)]


def _stored_seed(record) -> OdeSeed:
    return OdeSeed(*(_unhex(v) for v in record["seed"]))


def _record_trajectory(traj) -> dict:
    return {"path": [_hex(t) for t in traj.path],
            "values": [[_hex(z), _hex(z1)] for z, z1 in traj.values],
            "curvatures": [_hex(z2) for z2 in traj.curvatures],
            "residuals": [r.hex() for r in traj.residuals]}


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK
    return out.getvalue()


def write_golden(directory: pathlib.Path = GOLDEN):
    """Write the trajectory file and the ode stdout files into directory,
    taking each case's seed from the stored trajectory file where it is
    there and deriving it otherwise."""
    stored = (json.loads(TRAJECTORIES.read_text())
              if TRAJECTORIES.exists() else {})
    directory.mkdir(exist_ok=True)
    data = {}
    for name, (params, derive, path, kw) in _cases().items():
        seed = _stored_seed(stored[name]) if name in stored else derive()
        data[name] = {
            "seed": _record_seed(seed),
            **_record_trajectory(integrate(params, seed, path, **kw)),
        }
    (directory / TRAJECTORIES.name).write_text(json.dumps(data, indent=1)
                                               + "\n")
    for fname, argv in CLI_CASES.items():
        (directory / fname).write_text(_cli_stdout(argv))


@pytest.mark.parametrize("name", sorted(_cases()))
def test_trajectory_is_bit_identical(name):
    golden = json.loads(TRAJECTORIES.read_text())[name]
    params, _, path, kw = _cases()[name]
    traj = integrate(params, _stored_seed(golden), path, **kw)
    got = _record_trajectory(traj)
    for field in ("path", "values", "curvatures", "residuals"):
        assert got[field] == golden[field], field


@pytest.mark.parametrize("name", ["pvi_sf_real", "pv_sf",
                                  "jmo_pv_waypoints"])
def test_series_seed_is_bit_identical(name):
    """seed_vi, seed_v and seed_bulk, each through its family's sigma map,
    still give the stored seeds."""
    _, derive, _, _ = _cases()[name]
    golden = json.loads(TRAJECTORIES.read_text())[name]["seed"]
    assert _record_seed(derive()) == golden


def test_imaginary_leg_seed_is_its_derivation():
    """The stored bulk gap seed is the CLI's, from today's Fredholm
    log-derivatives, to rounding: each component within 1e-12 relative."""
    _, derive, _, _ = _cases()["jmo_pv_imaginary_leg"]
    golden = json.loads(TRAJECTORIES.read_text())["jmo_pv_imaginary_leg"]
    got, want = derive(), _stored_seed(golden)
    for field in ("t", "zeta", "dzeta", "curvature"):
        g, w = getattr(got, field), getattr(want, field)
        assert abs(g - w) <= 1e-12 * abs(w), field


@pytest.mark.parametrize("fname", sorted(CLI_CASES))
def test_cli_stdout_is_bit_identical(fname):
    assert _cli_stdout(CLI_CASES[fname]) == (GOLDEN / fname).read_text()


def test_regeneration_reproduces_the_goldens(tmp_path):
    # nothing numerical changed, so regenerating rewrites no byte
    write_golden(tmp_path)
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == sorted([TRAJECTORIES.name, *CLI_CASES])
    for fname in written:
        assert (tmp_path / fname).read_bytes() \
            == (GOLDEN / fname).read_bytes(), fname


def _random_states(rng, count):
    for _ in range(count):
        yield tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(4))


def _reference_third(params, t, z, z1, z2):
    """z''' written out with generator sums over the quartic's factors."""
    sixth = isinstance(params, ThetaVI)
    if sixth:
        th0, tht, th1, thi = params.as_tuple()
        c0 = (tht ** 2 - thi ** 2) * (th0 ** 2 - th1 ** 2) / 16
        roots = (-0.25 * (tht + thi) ** 2, -0.25 * (tht - thi) ** 2,
                 -0.25 * (th0 + th1) ** 2, -0.25 * (th0 - th1) ** 2)
        a = t * (t - 1)
        b = 2 * z1 * (t * z1 - z) - z1 ** 2 - c0
        bp = 4 * t * z1 - 2 * z - 2 * z1
        lead, lt, lp = z1 * a ** 2, 2 * a * (2 * t - 1) * z1, a ** 2
    else:
        if isinstance(params, ThetaV):
            th0, th1, thi = params.as_tuple()
            shift = 2 * th0 + thi
            roots = (0j, th0, (th0 - th1 + thi) / 2, (th0 + th1 + thi) / 2)
        else:
            assert isinstance(params, BulkParams)
            shift = 0j
            roots = tuple(-v for v in params.as_tuple())
        b = z - t * z1 + 2 * z1 ** 2 - shift * z1
        bp = -t + 4 * z1 - shift
        lead, lt, lp = t ** 2, 2 * t, 0j
    factors = [z1 - r for r in roots]
    pp = sum(math.prod(factors[j] for j in range(4) if j != k)
             for k in range(4))
    rp = 2 * b * bp - pp if sixth else -2 * b * bp + 4 * pp
    return -(lt * z2 + lp * z2 ** 2 + rp) / (2 * lead)


@pytest.mark.parametrize("name", ["pvi_sf", "pv_sf", "jmo_pv"])
def test_stage_function_matches_third_derivative(name):
    """The loop's stage function agrees with the reference bit for bit and
    turns exactly at the turning states."""
    params = {"pvi_sf": THETA6, "pv_sf": THETA5,
              "jmo_pv": bulk_okamoto_params(P_STD)}[name]
    stage = relation(params).third
    rng = random.Random(20261018)
    states = list(_random_states(rng, 400))
    # states on the turning locus: z' = 0 (sixth form), t = 0 (fifth forms)
    if name == "pvi_sf":
        states += [(t, z, 0j, z2) for t, z, _, z2 in states[:20]]
    else:
        states += [(0j, z, z1, z2) for _, z, z1, z2 in states[:20]]
    turned = []
    for i, (t, z, z1, z2) in enumerate(states):
        try:
            got = stage(t, z, z1, z2)
        except TurningPointError:
            turned.append(i)
            continue
        assert _hex(got) == _hex(_reference_third(params, t, z, z1, z2))
    assert turned == list(range(400, 420))


if __name__ == "__main__":
    write_golden()
