"""Boundary expansions of tau- and sigma-functions and related asymptotics.

Everything here is a small-variable or large-variable series with explicitly
known coefficients: the two-term-plus-branch expansions of the sixth and
fifth tau-functions near a regular point, the finite-size and bulk-scaled
expansions of the spectrum-singularity average, the affine maps from
log-derivatives of tau to the sigma-functions, and the large-gap asymptotic
forms. Series objects evaluate on the principal branch and know their own
remainder order so integration routines can pick seed points responsibly.

Each family's tau <-> sigma map (sixth, fifth and bulk) lives here and
nowhere else, as the SigmaMap that sigma_map builds; the seeds and the tau
reconstruction of sigma_ode, and through them the CLI, use it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .complexfn import (
    COMPUTED_INTEGER_TOL,
    barnes_prefactor,
    gamma_ratio,
    near_integer,
    sin_pi,
)
from .monodromy_v import ThetaV
from .monodromy_vi import DegenerateParameterError, SSEParams, ThetaVI, _require_nonzero

__all__ = [
    "TauSeries",
    "BoundaryExpansion",
    "BulkParams",
    "SigmaMap",
    "GapAsymptotics",
    "ZETA_PRIME_MINUS_ONE",
    "GAP_E_CONSTANT",
    "pvi_tau_series",
    "an_series",
    "bulk_series",
    "pv_tau_series",
    "sigma_map",
    "bulk_okamoto_params",
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


@dataclass(frozen=True)
class TauSeries:
    """Finite sum of c * w**e terms plus a known remainder order.

    The expansion variable w is the deviation from the anchor (t itself for
    anchor 0, 1-t for anchor 1, the scaled variable x for the bulk series).
    """

    anchor: complex
    terms: tuple  # of (exponent, coefficient) pairs
    remainder_exponent: complex

    def __post_init__(self):
        fixed = tuple(sorted(((complex(e), complex(c)) for e, c in self.terms),
                             key=lambda ec: ec[0].real))
        object.__setattr__(self, "anchor", complex(self.anchor))
        object.__setattr__(self, "terms", fixed)
        object.__setattr__(self, "remainder_exponent", complex(self.remainder_exponent))

    def evaluate(self, w: complex) -> complex:
        return sum(c * _cpow(w, e) for e, c in self.terms)

    def derivative(self) -> "TauSeries":
        terms = tuple((e - 1, c * e) for e, c in self.terms if e != 0)
        return TauSeries(self.anchor, terms, self.remainder_exponent - 1)

    def coefficient(self, exponent: complex, tol: float = 1e-12) -> complex:
        for e, c in self.terms:
            if abs(e - exponent) <= tol:
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


@dataclass(frozen=True)
class BoundaryExpansion:
    """A tau-function boundary form: normalization * w**p * (series in w).

    normalization None marks the overall constant the expansion theorems
    leave undetermined; evaluate then takes it as 1.
    """

    series: TauSeries
    prefactor_exponent: complex = 0.0
    normalization: complex | None = None

    def evaluate(self, w: complex) -> complex:
        const = 1.0 if self.normalization is None else self.normalization
        return const * _cpow(w, self.prefactor_exponent) * self.series.evaluate(w)

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
        s1 = self.series.derivative()
        s2 = s1.derivative()
        v, v1 = self.series.evaluate(w), s1.evaluate(w)
        v2, v3 = s2.evaluate(w), s2.derivative().evaluate(w)
        return (p / w + v1 / v,
                -p / w ** 2 + (v2 * v - v1 * v1) / v ** 2,
                2 * p / w ** 3
                + (v3 * v * v - 3 * v2 * v1 * v + 2 * v1 ** 3) / v ** 3)


def _require_nondegenerate_sigma(sigma: complex) -> complex:
    sigma = complex(sigma)
    for label, value in (("sigma", sigma), ("1+sigma", 1 + sigma), ("1-sigma", 1 - sigma)):
        _require_nonzero(label, value)
    return sigma


def pvi_tau_series(theta: ThetaVI, sigma: complex, s_hat: complex) -> BoundaryExpansion:
    """Small-t expansion of the sixth-system tau-function.

    Bracket terms at relative orders 0, 1, 1+sigma, 1-sigma; the prefactor
    exponent (sigma^2 - theta0^2 - theta_t^2)/4 is carried separately and the
    overall constant stays an open slot. Valid as stated for 0 < Re sigma < 1
    with remainder order 2(1 - Re sigma).
    """
    sigma = _require_nondegenerate_sigma(sigma)
    s_hat = complex(s_hat)
    if s_hat == 0:
        raise DegenerateParameterError("s_hat", s_hat)
    th0, tht, th1, thi = theta.as_tuple()

    c1 = ((th0 ** 2 - tht ** 2 - sigma ** 2) * (thi ** 2 - th1 ** 2 - sigma ** 2)
          / (8 * sigma ** 2))
    c_plus = (-s_hat * (th0 ** 2 - (tht - sigma) ** 2) * (thi ** 2 - (th1 - sigma) ** 2)
              / (16 * sigma ** 2 * (1 + sigma) ** 2))
    c_minus = (-(th0 ** 2 - (tht + sigma) ** 2) * (thi ** 2 - (th1 + sigma) ** 2)
               / (s_hat * 16 * sigma ** 2 * (1 - sigma) ** 2))
    series = TauSeries(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sigma, c_plus), (1 - sigma, c_minus)),
        remainder_exponent=2 * (1 - sigma.real),
    )
    prefactor = (sigma ** 2 - th0 ** 2 - tht ** 2) / 4
    return BoundaryExpansion(series=series, prefactor_exponent=prefactor)


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
    if sg.real <= 0:
        raise DegenerateParameterError("Re(2 mu + 2 omega1)", sg)

    c1 = p.N * p.mu * (p.omega_bar - p.omega) / sg
    sign = -1.0 if p.N % 2 == 0 else 1.0  # (-1)**(N+1)
    ratio = gamma_ratio(
        (1 + 2 * p.mu, 1 + 2 * p.omega1, 1 + p.mu + p.omega,
         1 + p.mu + p.omega_bar),
        (sg + 2, sg + 2, sg + 1, complex(p.N), -p.N - sg))
    c_branch = sign / sin_pi(sg) * p.branch_bracket() * ratio
    series = TauSeries(
        anchor=1.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sg, c_branch)),
        remainder_exponent=2.0,
    )
    norm = barnes_prefactor(p.N, p.mu, p.omega1, p.omega2)
    return BoundaryExpansion(series=series, normalization=norm)


def bulk_series(p: SSEParams) -> BoundaryExpansion:
    """Small-x expansion of the bulk-scaled average, normalized to 1 at 0.

    N has dropped out; the branch exponent 1 + 2 mu + 2 omega1 survives with
    a pure gamma/pi coefficient times the weight bracket.
    """
    sg = p.sigma
    if abs(sg) < 1e-12 or sg.real <= 0:
        # the sine-kernel point 2 mu + 2 omega1 = 0 sits outside the series
        # hypotheses; that case is only reachable through the ODE/determinant
        # route
        raise DegenerateParameterError("2 mu + 2 omega1", sg)
    if sg.real >= 1:
        raise DegenerateParameterError("Re(2 mu + 2 omega1) < 1 required", sg)

    c1 = p.mu * (p.omega_bar - p.omega) / sg
    ratio = gamma_ratio(
        (1 + 2 * p.mu, 1 + 2 * p.omega1, 1 + p.mu + p.omega,
         1 + p.mu + p.omega_bar),
        (sg + 2, sg + 2, sg + 1))
    c_branch = p.branch_bracket() * ratio / math.pi
    series = TauSeries(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sg, c_branch)),
        remainder_exponent=2.0,
    )
    return BoundaryExpansion(series=series, normalization=1.0)


def pv_tau_series(theta: ThetaV, sigma: complex, s_hat: complex) -> BoundaryExpansion:
    """Small-t expansion of the fifth-system tau-function.

    Same shape as the sixth-system one with prefactor exponent
    (sigma^2 - theta_inf^2)/4 and branch denominators 8 sigma^2 (1 +/- sigma)^2.
    """
    sigma = _require_nondegenerate_sigma(sigma)
    s_hat = complex(s_hat)
    if s_hat == 0:
        raise DegenerateParameterError("s_hat", s_hat)
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
    series = TauSeries(
        anchor=0.0,
        terms=((0.0, 1.0), (1.0, c1), (1 + sigma, c_plus), (1 - sigma, c_minus)),
        remainder_exponent=2 * (1 - sigma.real),
    )
    return BoundaryExpansion(series=series, prefactor_exponent=(sigma ** 2 - thi ** 2) / 4)


@dataclass(frozen=True)
class BulkParams:
    """Okamoto-style root parameters of the alternative fifth sigma-form."""

    v1: complex
    v2: complex
    v3: complex
    v4: complex

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        # forming the roots from complex (mu, omega2) and summing them leaves
        # at most 1.5 eps * max|v_i| (2e5 draws); allow 8
        total = abs(self.v1 + self.v2 + self.v3 + self.v4)
        if not total <= 8 * sys.float_info.epsilon * max(map(abs, self.as_tuple())):
            raise ValueError(f"Okamoto parameters must sum to zero, got |sum| = {total!r}")

    def as_tuple(self):
        return (self.v1, self.v2, self.v3, self.v4)


@dataclass(frozen=True)
class SigmaMap:
    """One family's affine map between tau and its sigma-function,

        sigma(t) = scale(t) * d/dt log tau(t) + slope * t + intercept,

    scale(t) = t (t - 1) for the sixth family (sixth=True), t for the fifth
    and the bulk ones. sigma_map builds it.
    """

    slope: complex
    intercept: complex
    sixth: bool = False

    def scale(self, t: complex) -> complex:
        return t * (t - 1) if self.sixth else t

    def to_sigma(self, t: complex, scaled: complex) -> complex:
        """sigma from scaled = scale(t) * d/dt log tau."""
        return scaled + self.slope * t + self.intercept

    def log_derivatives(self, t: complex, z: complex, z1: complex) -> tuple:
        """(l1, l2) at t from (sigma, sigma') = (z, z1): jet inverted."""
        a, da = self.scale(t), (2 * t - 1 if self.sixth else 1)
        l1 = (z - self.slope * t - self.intercept) / a
        return l1, (z1 - da * l1 - self.slope) / a

    def jet(self, t: complex, l1: complex, l2: complex, l3: complex) -> tuple:
        """(sigma, sigma', sigma'') at t from l_k = (d/dt)^k log tau."""
        if self.sixth:
            a, da = t * (t - 1), 2 * t - 1
            return (self.to_sigma(t, a * l1), da * l1 + a * l2 + self.slope,
                    2 * l1 + 2 * da * l2 + a * l3)
        return (self.to_sigma(t, t * l1), l1 + t * l2 + self.slope,
                2 * l2 + t * l3)


def sigma_map(params) -> SigmaMap:
    """The tau <-> sigma map of the family params belong to.

    ThetaVI: the sixth-system sigma of Jimbo. ThetaV: the fifth-system one.
    BulkParams, ordered as bulk_okamoto_params emits them (mu-pair first):
    the bulk h(x) = x d/dx log tau + (i omega2 / 2) x + 2 mu omega1
    + omega2^2 / 2 of Jimbo-Miwa-Mori-Sato.
    """
    if isinstance(params, ThetaVI):
        th0, tht, th1, thi = params.as_tuple()
        return SigmaMap((tht ** 2 - thi ** 2) / 4,
                        -((tht ** 2 + th0 ** 2 - thi ** 2 - th1 ** 2) / 8),
                        sixth=True)
    if isinstance(params, ThetaV):
        th0, th1, thi = params.as_tuple()
        return SigmaMap((th0 + thi) / 2, ((th0 + thi) ** 2 - th1 ** 2) / 4)
    if isinstance(params, BulkParams):
        v1, v2, v3, v4 = params.as_tuple()
        return SigmaMap((v3 + v4) / 2,
                        (v1 - v2) * (v3 - v4) / 2 - (v3 + v4) ** 2 / 2)
    raise TypeError(f"no sigma map for {type(params).__name__}")


def bulk_okamoto_params(p: SSEParams) -> BulkParams:
    # The roots are the formal monodromy exponents of the associated fifth
    # Painleve system, split as mu-pair then omega1-pair.
    half = 0.5j * p.omega2
    return BulkParams(p.mu - half, -p.mu - half, p.omega1 + half, -p.omega1 + half)


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


def gap_asymptotics(t: float, xi: float) -> GapAsymptotics:
    """Large-t forms of the scaled gap probability generating function.

    Full weight xi = 1 gives the classical quartic-decay law with the
    zeta'(-1) constant; 0 < xi < 1 gives the linear-in-t law driven by
    log(1 - xi). The returned log-derivative includes the factor t.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not 0 < xi <= 1:
        raise ValueError(f"xi must lie in (0, 1], got {xi}")
    if xi == 1:
        # zeta0_series at the sine-kernel point, s = -4it, plus its next term
        log_deriv = zeta0_series(-4j * t, _GAP_POINT).real - 5 / (32 * t ** 4)
        e_value = GAP_E_CONSTANT * t ** -0.25 * math.exp(-t * t / 2)
        return GapAsymptotics(log_derivative=log_deriv, gap_probability=e_value)
    log1m = math.log1p(-xi)
    log_deriv = 2 * t / math.pi * log1m + log1m ** 2 / (2 * math.pi ** 2)
    return GapAsymptotics(log_derivative=log_deriv, gap_probability=None)
