"""Monodromy and Stokes data for the fifth Painleve system.

The fifth system has regular singular points at 0 and 1 and an irregular one
at infinity carrying two Stokes matrices. Two equivalent packagings of the
monodromy data circulate: an unhatted set (M0, M1, Minf) with the cyclic
relation Minf M1 M0 = I, and a hatted set related to it by conjugation with
the first Stokes matrix, whose cyclic relation reads in the reversed order
hat-M0 hat-M1 hat-Minf = I. This module bundles and checks both
(MonodromyDataV), converts between them (hat_transform), computes Stokes
multipliers from the exponent data, carries out the coalescence limit that
degenerates sixth-system monodromy into fifth-system Stokes data, and
instantiates the explicit matrices of the spectrum-singularity ensemble's
bulk limit, the one place both sets are built. There is no generic
fifth-system parameterization and no s <-> s-hat map: the fifth system is
reached only through that limit and those matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .complexfn import (
    COMPUTED_INTEGER_TOL,
    cos_pi,
    exp_pi_i,
    gamma_ratio,
    near_integer,
    sin_pi,
)
from .mat2 import IDENTITY, Mat2, det, inv, max_diff, mul, tr
from .monodromy_vi import SSEParams, _require_nonzero

__all__ = [
    "NonGenericError",
    "InconsistentKError",
    "ThetaV",
    "StokesData",
    "MonodromyDataV",
    "LimitIIResult",
    "SSEPVMatrices",
    "stokes_from_sigma",
    "hat_transform",
    "limit_transition_ii",
    "sse_pv_matrices",
    "sse_theta_v",
]

_CONSISTENCY_TOL = 1e-10


class NonGenericError(ValueError):
    """Raised when the coalescence limit hits a non-generic configuration."""


class InconsistentKError(ValueError):
    """Raised when no matching matrix K satisfies both defining equations."""


@dataclass(frozen=True)
class ThetaV:
    """Formal exponents at 0, 1 and infinity for the fifth system."""

    theta0: complex
    theta1: complex
    theta_inf: complex

    def __post_init__(self):
        for name in ("theta0", "theta1", "theta_inf"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def as_tuple(self):
        return (self.theta0, self.theta1, self.theta_inf)


@dataclass(frozen=True)
class StokesData:
    """Stokes multipliers, the same in both conventions.

    The hat transform conjugates by a Stokes factor, which leaves the
    multipliers alone; only the matrices they decorate differ. s1 sits in
    the lower-left of the first Stokes matrix, s2 in the upper-right of the
    second.
    """

    s1: complex
    s2: complex

    def stokes_matrix_lower(self) -> Mat2:
        return Mat2(1.0, 0.0, self.s1, 1.0)

    def stokes_matrix_upper(self) -> Mat2:
        return Mat2(1.0, self.s2, 0.0, 1.0)

    def m_inf(self, theta_inf: complex) -> Mat2:
        """Monodromy at infinity, S2 e^{pi i theta_inf sigma3} S1."""
        e_diag = Mat2.diag(exp_pi_i(theta_inf), exp_pi_i(-theta_inf))
        return mul(self.stokes_matrix_upper(), mul(e_diag, self.stokes_matrix_lower()))

    def constraint_residual(self, theta_inf: complex, sigma: complex) -> float:
        """Relative residual of the multiplier product constraint."""
        lhs = self.s1 * self.s2 * exp_pi_i(-theta_inf)
        rhs = 4 * sin_pi((theta_inf + sigma) / 2) * sin_pi((theta_inf - sigma) / 2)
        return abs(lhs - rhs) / max(1.0, abs(rhs))


@dataclass(frozen=True)
class MonodromyDataV:
    """Bundled fifth-system monodromy data in both conventions.

    Both cyclic relations and the two-point trace identity are checked by
    residuals(); factories that promise a consistent set call validate().
    """

    theta: ThetaV
    sigma: complex
    m0: Mat2
    m1: Mat2
    m_inf: Mat2
    hat_m0: Mat2
    hat_m1: Mat2
    hat_m_inf: Mat2

    def residuals(self) -> dict:
        cyc_u = mul(self.m_inf, mul(self.m1, self.m0))
        cyc_h = mul(self.hat_m0, mul(self.hat_m1, self.hat_m_inf))
        return {
            "cyclic_unhatted": max_diff(cyc_u, IDENTITY),
            "cyclic_hatted": max_diff(cyc_h, IDENTITY),
            "trace_sigma": abs(tr(mul(self.hat_m0, self.hat_m1)) - 2 * cos_pi(self.sigma)),
        }

    def validate(self, tol: float = _CONSISTENCY_TOL) -> "MonodromyDataV":
        res = self.residuals()
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise InconsistentKError(f"monodromy data fails consistency checks: {bad}")
        return self


def stokes_from_sigma(theta: ThetaV, sigma: complex, r: complex) -> StokesData:
    """Stokes multipliers from the exponent pair (theta_inf, sigma).

    The product s1 s2 e^{-pi i theta_inf} collapses by the reflection formula
    to 4 sin(pi(theta_inf+sigma)/2) sin(pi(theta_inf-sigma)/2), which is the
    multiplier constraint; it holds identically for the returned data.
    """
    thi = theta.theta_inf
    sigma = complex(sigma)
    r = _require_nonzero("r", r)
    inv_g1 = gamma_ratio((), (1 - (sigma - thi) / 2, (sigma + thi) / 2))
    inv_g2 = gamma_ratio((), (1 - (sigma + thi) / 2, (sigma - thi) / 2))
    s1 = -2j * math.pi / r * inv_g1
    s2 = -exp_pi_i(thi) * 2j * math.pi * r * inv_g2
    return StokesData(s1=s1, s2=s2)


def hat_transform(s1_matrix: Mat2, m0: Mat2, m1: Mat2, m_inf: Mat2):
    """Conjugate the unhatted set into the hatted convention.

    hat-M0 = S1 M1 M0 M1^-1 S1^-1, hat-M1 = S1 M1 S1^-1,
    hat-Minf = S1 Minf S1^-1. The hatted cyclic relation (in reversed order)
    holds exactly when the unhatted one does.
    """
    s1_inv = inv(s1_matrix)
    hat_m0 = mul(s1_matrix, mul(m1, mul(m0, mul(inv(m1), s1_inv))))
    hat_m1 = mul(s1_matrix, mul(m1, s1_inv))
    hat_m_inf = mul(s1_matrix, mul(m_inf, s1_inv))
    return hat_m0, hat_m1, hat_m_inf


@dataclass(frozen=True)
class LimitIIResult:
    """Output of the coalescence limit from the sixth to the fifth system."""

    T: complex
    l: complex
    alpha: complex
    beta: complex
    s0_hat: Mat2
    s1_hat: Mat2
    K: Mat2
    hat_m0v: Mat2
    hat_m1v: Mat2
    theta6: complex
    theta_inf_v: complex

    def hat_m_inf_v(self) -> Mat2:
        e_diag = Mat2.diag(exp_pi_i(self.theta_inf_v), exp_pi_i(-self.theta_inf_v))
        return mul(self.s0_hat, mul(self.s1_hat, e_diag))

    def residuals(self, m0_vi: Mat2, mt_vi: Mat2) -> dict:
        """Deviation of K from both of its defining equations, plus cyclic."""
        k_inv = inv(self.K)
        lhs1 = mul(self.K, mul(mt_vi, k_inv))
        rhs1 = mul(self.s0_hat, Mat2.diag(exp_pi_i(self.theta6), exp_pi_i(-self.theta6)))
        lhs2 = mul(self.K, mul(m0_vi, k_inv))
        rhs2 = mul(Mat2.diag(exp_pi_i(-self.theta6), exp_pi_i(self.theta6)),
                   mul(self.s1_hat,
                       Mat2.diag(exp_pi_i(self.theta_inf_v), exp_pi_i(-self.theta_inf_v))))
        cyc = mul(self.hat_m0v, mul(self.hat_m1v, self.hat_m_inf_v()))
        return {
            "k_equation_1": max_diff(lhs1, rhs1),
            "k_equation_2": max_diff(lhs2, rhs2),
            "cyclic_hatted": max_diff(cyc, IDENTITY),
        }


def _eigenvector(m: Mat2, lam: complex):
    """Nullspace direction of (m - lam I), picked from the stabler row."""
    a, b = m.a11 - lam, m.a12
    c, d = m.a21, m.a22 - lam
    if abs(a) + abs(b) >= abs(c) + abs(d):
        row = (a, b)
    else:
        row = (c, d)
    ra, rb = row
    if abs(ra) < 1e-300 and abs(rb) < 1e-300:
        raise NonGenericError(
            "monodromy matrix acts as a scalar at the matched eigenvalue; "
            "the coalescence data is non-generic")
    if abs(rb) >= abs(ra):
        return (1.0 + 0.0j, -ra / rb)
    return (-rb / ra, 1.0 + 0.0j)


def limit_transition_ii(m0_vi: Mat2, mt_vi: Mat2, theta6: complex, theta_inf_v: complex,
                        m_inf_vi: Mat2, m1_vi: Mat2,
                        l_branch: str = "im_nonneg") -> LimitIIResult:
    """Degenerate a sixth-system monodromy pair into fifth-system Stokes data.

    T is the trace of the product of shifted matrices; l solves
    2 cos(pi l) = 2 cos(pi theta_inf_v) + T, with the branch chosen so that
    Im(l) >= 0 (ties at real l broken toward Re(l) <= 0, which reproduces the
    spectrum-singularity labeling); l_branch="other" picks the opposite root.
    The matching matrix K is built by aligning the eigenvectors of m0_vi and
    mt_vi with the triangular right-hand sides, scaled so the lower-left
    Stokes entry comes out right, normalized to det K = 1, and sign-fixed by
    Re(K11) >= 0. The result's alpha and beta swap under the other l branch;
    the Stokes multipliers and all conjugation outputs do not change.
    """
    theta6 = complex(theta6)
    theta_inf_v = complex(theta_inf_v)

    shift_t = Mat2.diag(exp_pi_i(theta6), exp_pi_i(theta6))
    shift_0 = Mat2.diag(exp_pi_i(-(theta_inf_v - theta6)), exp_pi_i(-(theta_inf_v - theta6)))
    prod = mul(_mat_sub(mt_vi, shift_t), _mat_sub(m0_vi, shift_0))
    T = tr(prod)

    cond2 = mul(_mat_sub(mt_vi, Mat2.diag(exp_pi_i(-theta6), exp_pi_i(-theta6))),
                _mat_sub(m0_vi, shift_0))
    scale = max(mt_vi.norm_max(), m0_vi.norm_max(), 1.0)
    if cond2.norm_max() <= 1e-12 * scale:
        raise NonGenericError("shifted product vanishes; coalescence condition fails")

    w = cos_pi(theta_inf_v) + T / 2
    root = cmath.sqrt(w * w - 1.0)
    l = cmath.log(w + root) / (1j * math.pi)
    # the two roots are l and -l; resolve the branch deterministically
    if abs(l.imag) <= 1e-10:
        take_first = l.real <= 0
    else:
        take_first = l.imag > 0
    if l_branch == "other":
        take_first = not take_first
    elif l_branch != "im_nonneg":
        raise ValueError(f"unknown l_branch {l_branch!r}")
    if not take_first:
        l = -l

    if near_integer(l, tol=COMPUTED_INTEGER_TOL):
        raise NonGenericError(f"l = {l} is an integer; the limit is non-generic")
    alpha = -(theta_inf_v - l) / 2
    beta = -(theta_inf_v + l) / 2
    if (near_integer(alpha, tol=COMPUTED_INTEGER_TOL)
            or near_integer(beta, tol=COMPUTED_INTEGER_TOL)):
        raise NonGenericError(f"alpha = {alpha} or beta = {beta} is an integer")

    s_hat0 = 2j * math.pi * gamma_ratio((), (1 - alpha, 1 - beta))
    s_hat1 = -2j * math.pi * exp_pi_i(theta_inf_v) * gamma_ratio((), (alpha, beta))
    s0_mat = Mat2(1.0, 0.0, s_hat0, 1.0)
    s1_mat = Mat2(1.0, s_hat1, 0.0, 1.0)

    # K^-1 columns: eigenvector of m0_vi at e^{pi i (theta_inf_v - theta6)}
    # (the leading entry of the second right side) and eigenvector of mt_vi
    # at e^{-pi i theta6} (the trailing entry of the first right side)
    v0 = _eigenvector(m0_vi, exp_pi_i(theta_inf_v - theta6))
    vt = _eigenvector(mt_vi, exp_pi_i(-theta6))
    k_inv = Mat2(v0[0], vt[0], v0[1], vt[1])
    if abs(det(k_inv)) < 1e-12:
        raise InconsistentKError("matched eigenvectors are parallel; no valid K")
    k = inv(k_inv)
    # scaling the first column of K^-1 by x leaves K's second row alone and
    # scales (K mt K^-1)_21 by 1/x... fix x so that entry equals s_hat0 e^{pi i theta6}
    probe = mul(k, mul(mt_vi, k_inv))
    target = s_hat0 * exp_pi_i(theta6)
    if abs(probe.a21) < 1e-300:
        raise InconsistentKError("lower-left matching entry vanished; no valid K")
    x = target / probe.a21
    k_inv = Mat2(x * v0[0], vt[0], x * v0[1], vt[1])
    k = inv(k_inv)
    dk = det(k)
    sq = cmath.sqrt(dk)
    k = Mat2(k.a11 / sq, k.a12 / sq, k.a21 / sq, k.a22 / sq)
    pivot = k.a11 if abs(k.a11) > 1e-300 else k.a12
    if pivot.real < 0 or (pivot.real == 0 and pivot.imag < 0):
        k = Mat2(-k.a11, -k.a12, -k.a21, -k.a22)

    hat_m0v = mul(k, mul(m_inf_vi, inv(k)))
    hat_m1v = mul(k, mul(m1_vi, inv(k)))

    result = LimitIIResult(T=T, l=l, alpha=alpha, beta=beta, s0_hat=s0_mat, s1_hat=s1_mat,
                           K=k, hat_m0v=hat_m0v, hat_m1v=hat_m1v, theta6=theta6,
                           theta_inf_v=theta_inf_v)
    res = result.residuals(m0_vi, mt_vi)
    if res["k_equation_1"] > _CONSISTENCY_TOL or res["k_equation_2"] > _CONSISTENCY_TOL:
        raise InconsistentKError(
            f"no common K solves both matching equations: residuals {res}")
    return result


def _mat_sub(a: Mat2, b: Mat2) -> Mat2:
    return Mat2(a.a11 - b.a11, a.a12 - b.a12, a.a21 - b.a21, a.a22 - b.a22)


def sse_theta_v(p: SSEParams) -> ThetaV:
    """Fifth-system exponents of the bulk-scaled spectrum-singularity average."""
    return ThetaV(theta0=p.mu + p.omega_bar, theta1=-p.mu - p.omega,
                  theta_inf=2 * p.mu - 2 * p.omega1)


@dataclass(frozen=True)
class SSEPVMatrices:
    """Both explicit fifth-system matrix sets for the spectrum singularity,
    held in data, and their Stokes multipliers."""

    stokes: StokesData
    data: MonodromyDataV


def sse_pv_matrices(p: SSEParams) -> SSEPVMatrices:
    """Explicit fifth-system monodromy matrices of the bulk limit.

    Returns the hatted and unhatted sets together with the Stokes
    multipliers; the unhatted set is pinned to the gauge r = -2 mu, which is
    the value that makes its Stokes multipliers match the explicit ones. The
    two sets are verified to be hat-transform images of each other and to
    satisfy their cyclic relations.
    """
    mu, w1 = p.mu, p.omega1
    om, omb = p.omega, p.omega_bar
    xi = p.xi_star
    e = exp_pi_i

    g_up = gamma_ratio((1 + 2 * mu,), (2 * w1,))
    g_dn = 1.0 / g_up
    inv_g_neg = gamma_ratio((), (-2 * mu, 2 * w1))
    inv_g_pos = gamma_ratio((), (1 + 2 * mu, 1 - 2 * w1))

    hat_m0 = Mat2(
        e(mu + omb) * (1 - xi) - e(mu - omb) * 2j * sin_pi(2 * mu),
        -g_up * e(2 * mu + 2 * w1) * (e(-(mu + omb)) * 2j * sin_pi(2 * mu) + e(-mu + omb) * xi),
        g_dn * e(2 * mu - 2 * w1) * (2j * sin_pi(mu - omb) + e(-mu + omb) * xi),
        e(3 * mu - omb) + e(mu + omb) * xi,
    )
    hat_m1 = Mat2(
        e(mu + om) + e(-(mu + om)) * xi,
        g_up * e(-mu + omb) * xi,
        -g_dn * e(-2 * w1) * (2j * sin_pi(mu + om) + e(-(mu + om)) * xi),
        e(-(mu + om)) * (1 - xi),
    )
    hat_m_inf = Mat2(
        e(2 * mu - 2 * w1),
        -2j * math.pi * inv_g_neg,
        2j * math.pi * inv_g_pos * e(2 * mu - 2 * w1),
        2 * cos_pi(2 * mu + 2 * w1) - e(2 * mu - 2 * w1),
    )

    m0 = Mat2(
        e(-3 * mu + omb) * (1 - xi),
        -g_up * e(-mu - om) * (2j * sin_pi(2 * mu) + e(-2 * mu) * xi),
        g_dn * e(-2 * mu + 2 * w1) * (2j * sin_pi(mu - omb) + e(-mu + omb) * xi),
        2 * cos_pi(mu + omb) - e(-3 * mu + omb) * (1 - xi),
    )
    m1 = Mat2(
        e(mu + om) + e(2 * w1 - mu + omb) * xi,
        g_up * e(-mu + omb) * xi,
        -g_dn * e(2 * w1) * (2j * sin_pi(mu + om) + e(2 * w1 - mu + omb) * xi),
        e(-mu - om) - e(2 * w1 - mu + omb) * xi,
    )
    m_inf = Mat2(
        2 * cos_pi(2 * mu + 2 * w1) - e(-(2 * mu - 2 * w1)),
        -2j * math.pi * inv_g_neg,
        2j * math.pi * inv_g_pos * e(-(2 * mu - 2 * w1)),
        e(-(2 * mu - 2 * w1)),
    )

    s1 = 2j * math.pi * gamma_ratio((), (1 - 2 * w1, 1 + 2 * mu))
    s2 = -2j * math.pi * e(2 * mu - 2 * w1) * gamma_ratio((), (2 * w1, -2 * mu))
    stokes = StokesData(s1=s1, s2=s2)

    theta = sse_theta_v(p)
    data = MonodromyDataV(
        theta=theta, sigma=2 * mu + 2 * w1,
        m0=m0, m1=m1, m_inf=m_inf,
        hat_m0=hat_m0, hat_m1=hat_m1, hat_m_inf=hat_m_inf,
    ).validate()

    # the two printed sets must be images of each other under the hat
    # transform built from the lower Stokes matrix
    ht = hat_transform(stokes.stokes_matrix_lower(), m0, m1, m_inf)
    ref = (hat_m0, hat_m1, hat_m_inf)
    dev = max(max_diff(a, b) for a, b in zip(ht, ref))
    if dev > _CONSISTENCY_TOL * max(1.0, max(m.norm_max() for m in ref)):
        raise InconsistentKError(f"printed matrix sets disagree under hat transform: {dev}")

    return SSEPVMatrices(stokes=stokes, data=data)
