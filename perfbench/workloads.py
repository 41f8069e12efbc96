"""Seeded generators of taurmt CLI argument vectors, one per workload.

Pass k of a run draws from (workload, seed, k) alone, so every pass sees
fresh parameters and no argument vector repeats within a run: a cache of
results cannot pose as a speed-up, while parameter-independent node tables
(tanh-sinh levels, Gauss-Legendre rules) stay warm after the first pass.

Each pass has a fixed op mix. The draws that set an op's cost (matrix
dimension N, grid length, ODE end point and tolerance, Nystrom node count)
are stratified inside a pass: every value of the domain stays reachable,
but each pass holds one draw from every stratum, so pass times vary little
from pass to pass and from seed to seed.

The CLI receives nothing but the argument vectors built here.
"""

from __future__ import annotations

import cmath
import random
from typing import NamedTuple


class Op(NamedTuple):
    """One CLI invocation; kind names the check that applies to it."""

    kind: str
    argv: tuple


def _op(kind: str, command: str, *pairs) -> Op:
    """Op from (flag, value) pairs; value None marks a bare switch.

    Values go in as --flag=value, so that -0.3+0.1i is never read as an
    option.
    """
    argv = [command]
    for flag, value in pairs:
        argv.append(f"--{flag}" if value is None else f"--{flag}={value}")
    return Op(kind, tuple(argv))


def _num(x: float) -> str:
    return f"{x:.6g}"


def _cplx(re: float, im: float) -> str:
    if im == 0.0:
        return _num(re)
    return f"{re:.6g}{im:+.6g}i"


def _grid(start: float, end: float, count: int, path: str) -> list:
    return [("grid-start", _num(start)), ("grid-end", _num(end)),
            ("grid-count", count), ("grid-path", path)]


def _strata(rng: random.Random, lo: int, hi: int, parts: int) -> list:
    """One integer from each of `parts` equal slices of lo..hi, shuffled."""
    edges = [lo + round(i * (hi - lo + 1) / parts) for i in range(parts + 1)]
    out = [rng.randint(a, b - 1) for a, b in zip(edges, edges[1:])]
    rng.shuffle(out)
    return out


def _uniform_strata(rng: random.Random, lo: float, hi: float,
                    parts: int) -> list:
    """One float from each of `parts` equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / parts
    out = [rng.uniform(lo + i * width, lo + (i + 1) * width)
           for i in range(parts)]
    rng.shuffle(out)
    return out


def _xi_star(rng: random.Random) -> float:
    # both ends of [0, 1] carry their own structure (no jump, full jump),
    # so each gets a tenth of the draws
    u = rng.random()
    if u < 0.1:
        return 0.0
    if u < 0.2:
        return 1.0
    return rng.random()


def _weight(rng: random.Random, branch_window: bool = False) -> list:
    """mu, omega1, omega2 and xi* for a spectrum-singularity weight.

    Re 2mu and 2omega1 in [-0.9, 2] (integrable), Im 2mu in [-0.4, 0.4],
    omega2 in (-1/2, 1/2), xi* in [0, 1]. With branch_window, mu is real
    and 0 < 2mu + 2omega1 < 1, the boundary series' hypothesis.
    """
    if branch_window:
        sigma = rng.uniform(0.05, 0.95)
        two_mu = rng.uniform(max(-0.9, sigma - 1.9), min(1.9, sigma + 0.9))
        two_w1 = sigma - two_mu
        im_mu = 0.0
    else:
        two_mu = rng.uniform(-0.9, 2.0)
        two_w1 = rng.uniform(-0.9, 2.0)
        im_mu = rng.uniform(-0.2, 0.2)
    return [("mu", _cplx(two_mu / 2, im_mu)), ("omega1", _num(two_w1 / 2)),
            ("omega2", _num(rng.uniform(-0.49, 0.49))),
            ("xi", _num(_xi_star(rng)))]


def _dims(rng: random.Random, size: int) -> tuple:
    dims = sorted(rng.sample((8, 16, 32, 48, 64), size))
    return ("dims", ",".join(str(d) for d in dims))


def _circle_point(rng: random.Random) -> float:
    return rng.uniform(0.05, 6.2)


# ---------------------------------------------------------------------------
# finite_n: the Toeplitz route at finite N


def _finite_n(rng: random.Random) -> list:
    ops = []
    for n, count in zip(_strata(rng, 1, 64, 20), _strata(rng, 1, 30, 20)):
        ops.append(_op("toeplitz", "toeplitz", ("bigN", n), *_weight(rng),
                       *_grid(_circle_point(rng), _circle_point(rng), count,
                              "circle")))
    # single points share nothing from one t to the next, while a grid
    # shares one parameter set across many t: a batching change shows on
    # both sides
    for n in _strata(rng, 1, 64, 12):
        point = _circle_point(rng)
        ops.append(_op("toeplitz", "toeplitz", ("bigN", n), *_weight(rng),
                       *_grid(point, point, 1, "circle")))
    # the real segment inside the disc: QuadratureError for N >= 8 away
    # from t = 1 (an absolute tolerance against coefficients up to 1e45)
    for n in _strata(rng, 1, 64, 2):
        start = rng.uniform(0.01, 0.99)
        ops.append(_op("toeplitz", "toeplitz", ("bigN", n), *_weight(rng),
                       *_grid(start, rng.uniform(start, 0.99),
                              rng.randint(1, 10), "real")))
    for n in _strata(rng, 1, 64, 3):
        ops.append(_op("series", "series", ("family", "an"), ("bigN", n),
                       *_weight(rng, branch_window=True),
                       *_grid(rng.uniform(0.85, 0.95),
                              rng.uniform(0.96, 0.995), rng.randint(2, 10),
                              "real")))
    ops.append(_op("bulk", "bulk", _dims(rng, rng.randint(2, 5)),
                   *_weight(rng, branch_window=True),
                   *_grid(rng.uniform(0.1, 0.3), rng.uniform(0.5, 0.9),
                          rng.randint(2, 4), "real")))
    for n in (1, 2, 3):
        point = _circle_point(rng)
        ops.append(_op("oracle", "toeplitz", ("oracle", None), ("bigN", n),
                       *_weight(rng), *_grid(point, point, 1, "circle")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sigma_flow: the sigma-form ODE and the monodromy checks


def _theta(rng: random.Random) -> list:
    return [(name, _num(rng.uniform(0.1, 0.45)))
            for name in ("theta0", "thetat", "theta1", "thetainf")]


def _sigma_flow(rng: random.Random) -> list:
    ops = []
    for family in ("vi", "bulk"):
        tols = ["1e-10", "1e-12"] * 2
        rng.shuffle(tols)
        for tol, end in zip(tols, _uniform_strata(rng, 0.3, 0.9, 4)):
            if family == "vi":
                params = [*_theta(rng), ("sigma", _num(rng.uniform(0.3, 0.6))),
                          ("s", _num(rng.uniform(0.5, 1.5)))]
            else:
                params = _weight(rng, branch_window=True)
            ops.append(_op("ode", "ode", ("family", family), *params,
                           *_grid(rng.uniform(5e-4, 2e-3), end, 2, "real"),
                           ("tol", tol)))
    # more short monodromy checks than flows, so that the median op is one
    for _ in range(5):
        ops.append(_op("monodromy", "monodromy-check", *_theta(rng),
                       ("sigma", _num(rng.uniform(0.3, 0.6))),
                       ("s", _num(rng.uniform(0.5, 1.5))),
                       ("r", _num(rng.uniform(0.5, 1.5)))))
    # odd N exits 3 in the SSE construction, even at the defaults
    for n in _strata(rng, 1, 8, 5):
        ops.append(_op("monodromy", "monodromy-check", ("bigN", n),
                       *_weight(rng, branch_window=True),
                       ("r", _num(rng.uniform(0.5, 1.5)))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# gap_sine: the sine-kernel Fredholm route


def _coupling(rng: random.Random, complex_xi: bool) -> str:
    """xi* in [0, 1], or complex with modulus in [0.1, 1]."""
    if complex_xi:
        z = cmath.rect(rng.uniform(0.1, 1.0), rng.uniform(-3.1, 3.1))
        return _cplx(z.real, z.imag)
    return _num(_xi_star(rng))


def _gap_sine(rng: random.Random) -> list:
    groups = []
    # one real and one complex coupling per node count: a complex
    # determinant costs about four real ones
    for (m, complex_xi), count in zip(
            [(m, c) for m in (80, 140, 300) for c in (False, True)],
            _strata(rng, 1, 10, 6)):
        start = rng.uniform(0.05, 1.0)
        common = [("xi", _coupling(rng, complex_xi)),
                  *_grid(start, rng.uniform(start, 6.0), count, "real")]
        # the twin must directly follow the op whose nodes it doubles
        groups.append([_op("fredholm", "fredholm", *common, ("nodes", m)),
                       _op("fredholm_twin", "fredholm", *common,
                           ("nodes", 2 * m))])
    for m, count in zip((80, 140, 300), _strata(rng, 2, 6, 3)):
        groups.append([_op("asymptotics", "asymptotics",
                           ("xi", _num(rng.uniform(0.5, 1.0))), ("nodes", m),
                           *_grid(rng.uniform(1.5, 3.0), rng.uniform(3.0, 6.0),
                                  count, "real"))])
    for complex_xi, count, n_dims in zip((False, True), _strata(rng, 2, 4, 2),
                                         _strata(rng, 2, 5, 2)):
        groups.append([_op("bulk_gap", "bulk", ("mu", 0), ("omega1", 0),
                           ("omega2", 0), ("xi", _coupling(rng, complex_xi)),
                           _dims(rng, n_dims),
                           *_grid(rng.uniform(0.1, 0.3), rng.uniform(0.4, 0.8),
                                  count, "real"))])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


WORKLOADS = {
    "finite_n": _finite_n,
    "sigma_flow": _sigma_flow,
    "gap_sine": _gap_sine,
}

# Median seconds per warm pass at the calibration's reference speed, as
# measured on a 2-core x86_64 host. They fix how many passes a run makes,
# never what a pass does, and stay fixed when the program gets faster.
NOMINAL_PASS_S = {
    "finite_n": 3.3,
    "sigma_flow": 0.45,
    "gap_sine": 0.75,
}


def pass_ops(workload: str, seed: int, k: int) -> list:
    """The op list of pass k; a function of (workload, seed, k) only."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{k}"))


def cold_ops(workload: str) -> list:
    """The one pass every seed runs cold, so that first_pass_s measures cold
    set-up with no draw-to-draw spread in it."""
    return WORKLOADS[workload](random.Random(f"{workload}/cold"))


# Accuracy is a property of the code, not of the load: every workload
# reports it from this one fixed panel, run untimed after the passes, so
# the err.* metrics carry no seed noise and an accuracy change shows at
# once. Each fredholm_twin follows the op whose nodes it doubles.
ACCURACY_PANEL = (
    _op("oracle", "toeplitz", ("oracle", None), ("bigN", 1), ("xi", 1),
        *_grid(0.3, 5.9, 3, "circle")),
    _op("oracle", "toeplitz", ("oracle", None), ("bigN", 2), ("mu", -0.3),
        *_grid(0.7, 2.9, 2, "circle")),
    _op("oracle", "toeplitz", ("oracle", None), ("bigN", 3), ("xi", 0),
        *_grid(1.3, 1.3, 1, "circle")),
    _op("series", "series", ("family", "an"), ("bigN", 4),
        *_grid(0.9, 0.99, 5, "real")),
    _op("bulk", "bulk", ("dims", "8,16,32"), *_grid(0.2, 0.8, 3, "real")),
    _op("bulk_gap", "bulk", ("mu", 0), ("omega1", 0), ("omega2", 0),
        ("xi", 1), ("dims", "8,16,32"), *_grid(0.2, 0.6, 3, "real")),
    _op("ode", "ode", ("family", "vi"), ("tol", "1e-12"),
        *_grid(1e-3, 0.6, 2, "real")),
    _op("ode", "ode", ("family", "bulk"), *_grid(1e-3, 0.5, 2, "real")),
    _op("fredholm", "fredholm", ("xi", 1), ("nodes", 80),
        *_grid(0.5, 6.0, 4, "real")),
    _op("fredholm_twin", "fredholm", ("xi", 1), ("nodes", 160),
        *_grid(0.5, 6.0, 4, "real")),
    _op("fredholm", "fredholm", ("xi", "0.5+0.5i"), ("nodes", 140),
        *_grid(0.5, 4.0, 3, "real")),
    _op("fredholm_twin", "fredholm", ("xi", "0.5+0.5i"), ("nodes", 280),
        *_grid(0.5, 4.0, 3, "real")),
    _op("monodromy", "monodromy-check", ("theta0", 0.31)),
    _op("monodromy", "monodromy-check", ("bigN", 2)),
)
