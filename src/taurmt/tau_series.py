"""Boundary expansions of tau- and sigma-functions and related asymptotics.

Everything here is a small-variable or large-variable series with explicitly
known coefficients: the two-term-plus-branch expansions of the sixth and
fifth tau-functions near a regular point, the finite-size and bulk-scaled
expansions of the spectrum-singularity average, and the large-gap
asymptotic forms. Series objects evaluate on the principal branch and know
their own remainder order so integration routines can pick seed points
responsibly.

BoundaryExpansion is the one record of a boundary expansion: its terms,
its remainder order, its prefactor exponent and its normalization. The
affine maps from log-derivatives of tau to the sigma-functions, and the
bulk form's parameters, live beside the sigma forms in sigma_ode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexfn import (
    COMPUTED_INTEGER_TOL,
    INPUT_INTEGER_TOL,
    DegenerateParameterError,
    barnes_prefactor,
    gamma_ratio,
    near_integer,
    require_nonzero,
    sin_pi,
)
from .monodromy_v import ThetaV
from .monodromy_vi import SSEParams, ThetaVI

__all__ = [
    "BoundaryExpansion",
    "GapAsymptotics",
    "ZETA_PRIME_MINUS_ONE",
    "GAP_E_CONSTANT",
    "pvi_tau_series",
    "an_series",
    "bulk_series",
    "pv_tau_series",
    "zeta0_series",
    "gap_asymptotics",
]

# Glaisher-type constant entering the hard gap asymptotics
ZETA_PRIME_MINUS_ONE = -0.16542114370045092921
GAP_E_CONSTANT = math.exp(3 * ZETA_PRIME_MINUS_ONE + math.log(2.0) / 12.0)


def _cpow(w: complex, e: complex) -> complex:
    """w**e on the principal branch, with exact integer exponents."""
    if near_integer(e):
        return complex(w) ** int(round(e.real))
    if w == 0:
        return 0.0 if e.real > 0 else complex("nan")
    return cmath.exp(e * cmath.log(w))


def _derivative(terms: tuple) -> tuple:
    """The terms of d/dw of sum c * w**e, in the order of terms."""
    return tuple((e - 1, c * e) for e, c in terms if e != 0)


def _sum_terms(terms: tuple, w: complex) -> complex:
    return sum(c * _cpow(w, e) for e, c in terms)


@dataclass(frozen=True)
class BoundaryExpansion:
    """A tau-function boundary form, normalization * w**p * sum c * w**e
    plus a remainder of order w**remainder_exponent.

    terms holds the (e, c) pairs, sorted by Re e; p is prefactor_exponent.
    w is the deviation from the anchor (t itself for anchor 0, 1-t for
    anchor 1, the scaled variable x for the bulk series). normalization
    None marks the overall constant the expansion theorems leave
    undetermined; evaluate then takes it as 1.
    """

    anchor: complex
    terms: tuple
    remainder_exponent: complex
    prefactor_exponent: complex = 0.0
    normalization: complex | None = None

    def __post_init__(self):
        fixed = tuple(sorted(((complex(e), complex(c)) for e, c in self.terms),
                             key=lambda ec: ec[0].real))
        object.__setattr__(self, "anchor", complex(self.anchor))
        object.__setattr__(self, "terms", fixed)
        object.__setattr__(self, "remainder_exponent", complex(self.remainder_exponent))

    def evaluate(self, w: complex) -> complex:
        const = 1.0 if self.normalization is None else self.normalization
        return const * _cpow(w, self.prefactor_exponent) * _sum_terms(self.terms, w)

    def log_derivatives(self, w: complex) -> tuple:
        """(d/dw)^k log(w**p * series) for k = 1, 2, 3: the jet a sigma-form
        seed needs.

        The undetermined normalization drops out of every log-derivative.
        The expansion point w = 0 itself is refused: the jet is singular
        there.
        """
        if w == 0:
            raise ValueError("a seed needs w != 0: the log-derivatives are "
                             "singular at the expansion point")
        p = self.prefactor_exponent
        d1 = _derivative(self.terms)
        d2 = _derivative(d1)
        v, v1 = _sum_terms(self.terms, w), _sum_terms(d1, w)
        v2, v3 = _sum_terms(d2, w), _sum_terms(_derivative(d2), w)
        return (p / w + v1 / v,
                -p / w ** 2 + (v2 * v - v1 * v1) / v ** 2,
                2 * p / w ** 3
                + (v3 * v * v - 3 * v2 * v1 * v + 2 * v1 ** 3) / v ** 3)

    def coefficient(self, exponent: complex) -> complex:
        """The coefficient of the term whose exponent is within 1e-12, or 0."""
        for e, c in self.terms:
            if abs(e - exponent) <= 1e-12:
                return c
        return 0.0

    def to_json_dict(self) -> dict:
        def c2d(z):
            return {"re": z.real, "im": z.imag}

        return {
            "anchor": c2d(self.anchor),
            "terms": [{"exp": c2d(e), "coef": c2d(c)} for e, c in self.terms],
            "remainder_exp": c2d(self.remainder_exponent),
        }


def _require_nondegenerate_sigma(sigma: complex) -> complex:
    sigma = complex(sigma)
    for label, value in (("sigma", sigma), ("1+sigma", 1 + sigma), ("1-sigma", 1 - sigma)):
        require_nonzero(label, value)
    return sigma


def pvi_tau_series(theta: ThetaVI, sigma: complex, s_hat: complex) -> BoundaryExpansion:
    """Small-t expansion of the sixth-system tau-function.

    Bracket terms at relative orders 0, 1, 1+sigma, 1-sigma; the prefactor
    exponent (sigma^2 - theta0^2 - theta_t^2)/4 is carried separately and the
    overall constant stays an open slot. Valid as stated for 0 < Re sigma < 1
    with remainder order 2(1 - Re sigma).
    """
    sigma = _require_nondegenerate_sigma(sigma)
    s_hat = require_nonzero("s_hat", s_hat)
    th0, tht, th1, thi = theta.as_tuple()

    c1 = ((th0 ** 2 - tht ** 2 - sigma ** 2) * (thi ** 2 - th1 ** 2 - sigma ** 2)
          / (8 * sigma ** 2))
    c_plus = (-s_hat * (th0 ** 2 - (tht - sigma) ** 2) * (thi ** 2 - (th1 - sigma) ** 2)
              / (16 * sigma ** 2 * (1 + sigma) ** 2))
    c_minus = (-(th0 ** 2 - (tht + sigma) ** 2) * (thi ** 2 - (th1 + sigma) ** 2)
               / (s_hat * 16 * sigma ** 2 * (1 - sigma) ** 2))
    return BoundaryExpansion(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sigma, c_plus), (1 - sigma, c_minus)),
        remainder_exponent=2 * (1 - sigma.real),
        prefactor_exponent=(sigma ** 2 - th0 ** 2 - tht ** 2) / 4,
    )


def an_series(p: SSEParams) -> BoundaryExpansion:
    """Expansion of the size-N spectrum-singularity average about t = 1.

    Expansion variable is 1-t. The normalization is the known product of
    gamma-function ratios, so the expansion is fully pinned; the branch term
    carries exponent 1 + 2 mu + 2 omega1.
    """
    if p.N < 1:
        raise DegenerateParameterError("N", p.N)
    sg = p.sigma
    if near_integer(sg, tol=COMPUTED_INTEGER_TOL):
        raise DegenerateParameterError("2 mu + 2 omega1", sg)
    if not sg.real > 0:  # nan too
        raise DegenerateParameterError("Re(2 mu + 2 omega1)", sg)

    c1 = p.N * p.mu * (p.omega_bar - p.omega) / sg
    sign = -1.0 if p.N % 2 == 0 else 1.0  # (-1)**(N+1)
    ratio = gamma_ratio(
        (1 + 2 * p.mu, 1 + 2 * p.omega1, 1 + p.mu + p.omega,
         1 + p.mu + p.omega_bar),
        (sg + 2, sg + 2, sg + 1, complex(p.N), -p.N - sg))
    c_branch = sign / sin_pi(sg) * p.branch_bracket() * ratio
    return BoundaryExpansion(
        anchor=1.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sg, c_branch)),
        remainder_exponent=2.0,
        normalization=barnes_prefactor(p.N, p.mu, p.omega1, p.omega2),
    )


def bulk_series(p: SSEParams) -> BoundaryExpansion:
    """Small-x expansion of the bulk-scaled average, normalized to 1 at 0.

    N has dropped out; the branch exponent 1 + 2 mu + 2 omega1 survives with
    a pure gamma/pi coefficient times the weight bracket.
    """
    sg = p.sigma
    if not (abs(sg) >= INPUT_INTEGER_TOL and sg.real > 0):  # nan too
        # the sine-kernel point 2 mu + 2 omega1 = 0, to the input tolerance,
        # sits outside the series hypotheses; bulk reaches it through the
        # Fredholm-seeded flow when mu, omega1 and omega2 are all within it
        raise DegenerateParameterError("2 mu + 2 omega1", sg)
    if sg.real >= 1:
        raise DegenerateParameterError("Re(2 mu + 2 omega1) < 1 required", sg)

    c1 = p.mu * (p.omega_bar - p.omega) / sg
    ratio = gamma_ratio(
        (1 + 2 * p.mu, 1 + 2 * p.omega1, 1 + p.mu + p.omega,
         1 + p.mu + p.omega_bar),
        (sg + 2, sg + 2, sg + 1))
    c_branch = p.branch_bracket() * ratio / math.pi
    return BoundaryExpansion(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sg, c_branch)),
        remainder_exponent=2.0,
        normalization=1.0,
    )


def pv_tau_series(theta: ThetaV, sigma: complex, s_hat: complex) -> BoundaryExpansion:
    """Small-t expansion of the fifth-system tau-function.

    Same shape as the sixth-system one with prefactor exponent
    (sigma^2 - theta_inf^2)/4 and branch denominators 8 sigma^2 (1 +/- sigma)^2.
    """
    sigma = _require_nondegenerate_sigma(sigma)
    s_hat = require_nonzero("s_hat", s_hat)
    th0, th1, thi = theta.as_tuple()
    for name, value in (("theta0", th0), ("theta1", th1)):
        if near_integer(value, tol=COMPUTED_INTEGER_TOL):
            raise DegenerateParameterError(name + " integer", value)
    # a resonance puts combo in 2Z; its real part is compared in units of
    # combo / 2, so it is flagged within 2 * COMPUTED_INTEGER_TOL of an even
    # integer and its imaginary part within COMPUTED_INTEGER_TOL of zero
    combos = [("theta1 +/- theta0 +/- sigma resonance", th1 + pm1 * th0 + pm2 * sigma)
              for pm1 in (1, -1) for pm2 in (1, -1)]
    combos += [("theta_inf +/- sigma resonance", thi + pm * sigma) for pm in (1, -1)]
    for label, combo in combos:
        if near_integer(complex(combo.real / 2, combo.imag), tol=COMPUTED_INTEGER_TOL):
            raise DegenerateParameterError(label, combo)

    c1 = -thi * (th1 ** 2 - th0 ** 2 + sigma ** 2) / (4 * sigma ** 2)
    c_plus = (-s_hat * (thi - sigma) * (th0 ** 2 - (th1 - sigma) ** 2)
              / (8 * sigma ** 2 * (1 + sigma) ** 2))
    c_minus = (-(thi + sigma) * (th0 ** 2 - (th1 + sigma) ** 2)
               / (s_hat * 8 * sigma ** 2 * (1 - sigma) ** 2))
    return BoundaryExpansion(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sigma, c_plus), (1 - sigma, c_minus)),
        remainder_exponent=2 * (1 - sigma.real),
        prefactor_exponent=(sigma ** 2 - thi ** 2) / 4,
    )


def zeta0_series(s: complex, p: SSEParams) -> complex:
    """Formal algebraic large-s expansion of the zeta-function, to order s^-2."""
    s = complex(s)
    if s == 0:
        raise ZeroDivisionError("zeta0_series needs s != 0")
    mu, w1, w2 = p.mu, p.omega1, p.omega2
    c2 = s * s / 16
    c1 = (mu - 0.5j * w2) * s
    c0 = 4 * mu ** 2 - 2j * mu * w2 + w1 ** 2 + w2 ** 2 - 0.25
    cm1 = -2j * w2 * (4 * mu ** 2 - 4 * w1 ** 2) / s
    cm2 = (16 * mu ** 4
           - 8 * (4 * (w1 ** 2 + w2 ** 2) + 1) * mu ** 2
           - 16 * w1 ** 2 * w2 ** 2
           + (4 * w1 ** 2 - 1) * (4 * w1 ** 2 - 4 * w2 ** 2 - 1)) / s ** 2
    return c2 + c1 + c0 + cm1 + cm2


# the sine-kernel point mu = omega1 = omega2 = 0, where the bulk average is
# the gap probability E(t) of the interval (-t, t)
_GAP_POINT = SSEParams(N=0, mu=0.0, omega1=0.0, omega2=0.0)


@dataclass(frozen=True)
class GapAsymptotics:
    """Large-gap predictions: t (d/dt) log E and, at full weight, E itself."""

    log_derivative: float
    gap_probability: float | None


def gap_asymptotics(t: float, xi: complex) -> GapAsymptotics:
    """Large-t forms of the scaled gap probability generating function.

    Full weight xi = 1 gives the classical quartic-decay law with the
    zeta'(-1) constant; 0 < xi < 1 gives the linear-in-t law driven by
    log(1 - xi). The returned log-derivative includes the factor t. t must
    be finite and positive; xi is read as real (imaginary part 0) in (0, 1].
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    xi = xi.real if isinstance(xi, complex) and xi.imag == 0 else xi
    if isinstance(xi, complex) or not 0 < xi <= 1:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    if xi == 1:
        # zeta0_series at the sine-kernel point, s = -4it, plus its next term
        log_deriv = zeta0_series(-4j * t, _GAP_POINT).real - 5 / (32 * t ** 4)
        e_value = GAP_E_CONSTANT * t ** -0.25 * math.exp(-t * t / 2)
        return GapAsymptotics(log_derivative=log_deriv, gap_probability=e_value)
    log1m = math.log1p(-xi)
    log_deriv = 2 * t / math.pi * log1m + log1m ** 2 / (2 * math.pi ** 2)
    return GapAsymptotics(log_derivative=log_deriv, gap_probability=None)
