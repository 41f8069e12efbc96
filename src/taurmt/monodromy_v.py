"""Monodromy and Stokes data for the fifth Painleve system.

The fifth system has regular singular points at 0 and 1 and an irregular one
at infinity carrying two Stokes matrices. Two equivalent packagings of the
monodromy data circulate: an unhatted set (M0, M1, Minf) with the cyclic
relation Minf M1 M0 = I, and a hatted set related to it by conjugation with
the first Stokes matrix, whose cyclic relation reads in the reversed order
hat-M0 hat-M1 hat-Minf = I. This module bundles both, with the Stokes
multipliers they share and their residuals (MonodromyDataV), converts
between them (hat_transform), computes Stokes multipliers from the exponent
data, degenerates a sixth-system record into fifth-system Stokes data with
its residuals (limit_transition_ii), and instantiates the explicit matrices
of the spectrum-singularity ensemble's bulk limit, the one place both sets
are built. Each record forms its residuals once, when it is built. There is
no generic fifth-system parameterization and no s <-> s-hat map: the fifth
system is reached only through that limit and those matrices.

Every residual is a complexfn.backward_error: a cyclic relation's over the
product of its factors' max-norms, a comparison of two matrices over the
larger of the two sides' such products, and a scalar identity's over its
largest term. A residual above complexfn.CONSISTENCY_TOL, or nan, is
refused where the data are built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .complexfn import (
    COMPUTED_INTEGER_TOL,
    CONSISTENCY_TOL,
    DEGENERACY_TOL,
    backward_error,
    cos_pi,
    exp_pi_i,
    gamma_ratio,
    near_integer,
    require_nonzero,
    sin_pi,
)
from .mat2 import Mat2, det, identity_residual, inv, max_diff, mul, norm_product, tr
from .monodromy_vi import MonodromyMatricesVI, SSEParams

__all__ = [
    "NonGenericError",
    "InconsistentKError",
    "ThetaV",
    "StokesData",
    "MonodromyDataV",
    "LimitIIResult",
    "stokes_from_sigma",
    "hat_transform",
    "limit_transition_ii",
    "sse_pv_matrices",
    "sse_theta_v",
]

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
        if not all(map(cmath.isfinite, self.as_tuple())):
            raise ValueError(f"exponents must be finite, got {self}")

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
        return Mat2(1 + 0j, 0j, self.s1, 1 + 0j)

    def stokes_matrix_upper(self) -> Mat2:
        return Mat2(1 + 0j, self.s2, 0j, 1 + 0j)

    def m_inf(self, theta_inf: complex) -> Mat2:
        """Monodromy at infinity, S2 e^{pi i theta_inf sigma3} S1."""
        e_diag = Mat2.diag(exp_pi_i(theta_inf), exp_pi_i(-theta_inf))
        return mul(self.stokes_matrix_upper(), mul(e_diag, self.stokes_matrix_lower()))

    def constraint_residual(self, theta_inf: complex, sigma: complex) -> float:
        """Backward error of the multiplier product constraint."""
        lhs = self.s1 * self.s2 * exp_pi_i(-theta_inf)
        rhs = 4 * sin_pi((theta_inf + sigma) / 2) * sin_pi((theta_inf - sigma) / 2)
        return backward_error(abs(lhs - rhs), abs(lhs), abs(rhs))


@dataclass(frozen=True)
class MonodromyDataV:
    """Bundled fifth-system monodromy data in both conventions, with the
    Stokes multipliers both share.

    residuals, formed on construction and ignored by equality and hashing,
    measures both cyclic relations and the two-point trace identity.
    """

    theta: ThetaV
    sigma: complex
    stokes: StokesData
    m0: Mat2
    m1: Mat2
    m_inf: Mat2
    hat_m0: Mat2
    hat_m1: Mat2
    hat_m_inf: Mat2
    residuals: dict = field(init=False, compare=False)

    def __post_init__(self):
        two_cos = 2 * cos_pi(self.sigma)
        object.__setattr__(self, "residuals", {
            "cyclic_unhatted": identity_residual(self.m_inf, self.m1, self.m0),
            "cyclic_hatted": identity_residual(self.hat_m0, self.hat_m1, self.hat_m_inf),
            "trace_sigma": backward_error(
                abs(tr(mul(self.hat_m0, self.hat_m1)) - two_cos),
                norm_product(self.hat_m0, self.hat_m1), abs(two_cos)),
        })


def stokes_from_sigma(theta: ThetaV, sigma: complex, r: complex) -> StokesData:
    """Stokes multipliers from the exponent pair (theta_inf, sigma).

    The product s1 s2 e^{-pi i theta_inf} collapses by the reflection formula
    to 4 sin(pi(theta_inf+sigma)/2) sin(pi(theta_inf-sigma)/2), which is the
    multiplier constraint; it holds identically for the returned data.
    """
    thi = theta.theta_inf
    sigma = complex(sigma)
    r = require_nonzero("r", r)
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
    """Output of the coalescence limit from the sixth to the fifth system:
    Stokes data, K, the hatted set and residuals (k_equation_1, k_equation_2,
    cyclic_hatted), which equality and hashing ignore."""

    T: complex
    l: complex
    alpha: complex
    beta: complex
    s0_hat: Mat2
    s1_hat: Mat2
    K: Mat2
    hat_m0v: Mat2
    hat_m1v: Mat2
    hat_m_inf_v: Mat2
    residuals: dict = field(compare=False)


def _eigenvector(m: Mat2, lam: complex):
    """Nullspace direction of (m - lam I), picked from the stabler row."""
    a, b = m.a11 - lam, m.a12
    c, d = m.a21, m.a22 - lam
    if abs(a) + abs(b) >= abs(c) + abs(d):
        row = (a, b)
    else:
        row = (c, d)
    ra, rb = row
    if not (abs(ra) >= 1e-300 or abs(rb) >= 1e-300):  # nan too
        raise NonGenericError(
            "monodromy matrix acts as a scalar at the matched eigenvalue; "
            "the coalescence data is non-generic")
    if abs(rb) >= abs(ra):
        return (1.0 + 0.0j, -ra / rb)
    return (-rb / ra, 1.0 + 0.0j)


def limit_transition_ii(mats: MonodromyMatricesVI, theta6: complex,
                        theta_inf_v: complex) -> LimitIIResult:
    """Degenerate sixth-system monodromy matrices into fifth-system Stokes data.

    T is the trace of the product of shifted mats.mt and mats.m0; l solves
    2 cos(pi l) = 2 cos(pi theta_inf_v) + T, with the branch chosen so that
    Im(l) >= 0 (ties at real l broken toward Re(l) <= 0, which reproduces the
    spectrum-singularity labeling). The matching matrix K is built by
    aligning the eigenvectors of mats.m0 and mats.mt with the triangular
    right-hand sides, scaled so the lower-left Stokes entry comes out right,
    normalized to det K = 1, and sign-fixed by Re(K11) >= 0; it carries
    mats.m_inf and mats.m1 into the hatted set. A shifted product whose
    backward error is not above DEGENERACY_TOL is non-generic, and a K
    residual above CONSISTENCY_TOL is refused; nan is refused at both.
    """
    m0_vi, mt_vi = mats.m0, mats.mt
    theta6 = complex(theta6)
    theta_inf_v = complex(theta_inf_v)

    e6, e6_neg = exp_pi_i(theta6), exp_pi_i(-theta6)
    e_inf, e_inf_neg = exp_pi_i(theta_inf_v), exp_pi_i(-theta_inf_v)
    m0_shifted = _minus_scalar(m0_vi, exp_pi_i(-(theta_inf_v - theta6)))
    T = tr(mul(_minus_scalar(mt_vi, e6), m0_shifted))

    mt_shifted = _minus_scalar(mt_vi, e6_neg)
    cond2 = mul(mt_shifted, m0_shifted)
    if not backward_error(cond2.norm_max(), norm_product(mt_shifted, m0_shifted)) \
            > DEGENERACY_TOL:  # nan too
        raise NonGenericError("shifted product vanishes; coalescence condition fails")

    w = cos_pi(theta_inf_v) + T / 2
    root = cmath.sqrt(w * w - 1.0)
    l = cmath.log(w + root) / (1j * math.pi)
    # the two roots are l and -l; resolve the branch deterministically
    if abs(l.imag) <= 1e-10:
        take_first = l.real <= 0
    else:
        take_first = l.imag > 0
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
    s_hat1 = -2j * math.pi * e_inf * gamma_ratio((), (alpha, beta))
    s0_mat = Mat2(1 + 0j, 0j, s_hat0, 1 + 0j)
    s1_mat = Mat2(1 + 0j, s_hat1, 0j, 1 + 0j)

    # K^-1 columns: eigenvector of m0_vi at e^{pi i (theta_inf_v - theta6)}
    # (the leading entry of the second right side) and eigenvector of mt_vi
    # at e^{-pi i theta6} (the trailing entry of the first right side)
    v0 = _eigenvector(m0_vi, exp_pi_i(theta_inf_v - theta6))
    vt = _eigenvector(mt_vi, e6_neg)
    k_inv = Mat2(v0[0], vt[0], v0[1], vt[1])
    if not abs(det(k_inv)) >= DEGENERACY_TOL:  # nan too
        raise InconsistentKError("matched eigenvectors are parallel; no valid K")
    k = inv(k_inv)
    # scaling the first column of K^-1 by x leaves K's second row alone and
    # scales (K mt K^-1)_21 by 1/x... fix x so that entry equals s_hat0 e^{pi i theta6}
    probe = mul(k, mul(mt_vi, k_inv))
    target = s_hat0 * e6
    if not abs(probe.a21) >= 1e-300:  # nan too
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

    k_inv = inv(k)
    hat_m0v = mul(k, mul(mats.m_inf, k_inv))
    hat_m1v = mul(k, mul(mats.m1, k_inv))
    e_inf_mat = Mat2.diag(e_inf, e_inf_neg)
    e6_mat = Mat2.diag(e6, e6_neg)
    s1_e_inf = mul(s1_mat, e_inf_mat)
    hat_m_inf_v = mul(s0_mat, s1_e_inf)
    # each side sized by its factors; e^{-pi i theta6 sigma3} has the
    # max-norm of e^{pi i theta6 sigma3}
    n_k, n_k_inv, n_e6 = k.norm_max(), k_inv.norm_max(), e6_mat.norm_max()
    res = {
        "k_equation_1": backward_error(
            max_diff(mul(k, mul(mt_vi, k_inv)), mul(s0_mat, e6_mat)),
            n_k * mt_vi.norm_max() * n_k_inv, s0_mat.norm_max() * n_e6),
        "k_equation_2": backward_error(
            max_diff(mul(k, mul(m0_vi, k_inv)),
                     mul(Mat2.diag(e6_neg, e6), s1_e_inf)),
            n_k * m0_vi.norm_max() * n_k_inv,
            n_e6 * s1_mat.norm_max() * e_inf_mat.norm_max()),
        "cyclic_hatted": identity_residual(hat_m0v, hat_m1v, hat_m_inf_v),
    }
    if not (res["k_equation_1"] <= CONSISTENCY_TOL and res["k_equation_2"] <= CONSISTENCY_TOL):
        raise InconsistentKError(
            f"no common K solves both matching equations: residuals {res}")
    return LimitIIResult(T=T, l=l, alpha=alpha, beta=beta, s0_hat=s0_mat, s1_hat=s1_mat,
                         K=k, hat_m0v=hat_m0v, hat_m1v=hat_m1v, hat_m_inf_v=hat_m_inf_v,
                         residuals=res)


def _minus_scalar(m: Mat2, e: complex) -> Mat2:
    """m - e I."""
    return Mat2(m.a11 - e, m.a12, m.a21, m.a22 - e)


def sse_theta_v(p: SSEParams) -> ThetaV:
    """Fifth-system exponents of the bulk-scaled spectrum-singularity average."""
    return ThetaV(theta0=p.mu + p.omega_bar, theta1=-p.mu - p.omega,
                  theta_inf=2 * p.mu - 2 * p.omega1)


def sse_pv_matrices(p: SSEParams) -> MonodromyDataV:
    """Explicit fifth-system monodromy matrices of the bulk limit.

    Returns the hatted and unhatted sets together with the Stokes
    multipliers; the unhatted set is pinned to the gauge r = -2 mu, which is
    the value that makes its Stokes multipliers match the explicit ones. The
    two sets are verified to be hat-transform images of each other, matrix
    by matrix, and to satisfy their cyclic relations; a backward error above
    CONSISTENCY_TOL, or nan, is refused.
    """
    mu, w1 = p.mu, p.omega1
    om, omb = p.omega, p.omega_bar
    xi = p.xi_star
    e = exp_pi_i

    g_up = gamma_ratio((1 + 2 * mu,), (2 * w1,))
    g_dn = 1.0 / g_up
    inv_g_neg = gamma_ratio((), (-2 * mu, 2 * w1))
    inv_g_pos = gamma_ratio((), (1 + 2 * mu, 1 - 2 * w1))

    # each phase and sine below enters more than one entry
    e_thi, e_thi_neg = e(2 * mu - 2 * w1), e(-(2 * mu - 2 * w1))
    e_mu_omb, e_omb_mu = e(mu + omb), e(-mu + omb)
    e_mu_om, e_mu_om_neg = e(mu + om), e(-(mu + om))
    e_m0, e_m1 = e(-3 * mu + omb), e(2 * w1 - mu + omb)
    sin_2mu, sin_mu_omb, sin_mu_om = sin_pi(2 * mu), sin_pi(mu - omb), sin_pi(mu + om)
    two_cos_sg = 2 * cos_pi(2 * mu + 2 * w1)

    hat_m0 = Mat2(
        e_mu_omb * (1 - xi) - e(mu - omb) * 2j * sin_2mu,
        -g_up * e(2 * mu + 2 * w1) * (e(-(mu + omb)) * 2j * sin_2mu + e_omb_mu * xi),
        g_dn * e_thi * (2j * sin_mu_omb + e_omb_mu * xi),
        e(3 * mu - omb) + e_mu_omb * xi,
    )
    hat_m1 = Mat2(
        e_mu_om + e_mu_om_neg * xi,
        g_up * e_omb_mu * xi,
        -g_dn * e(-2 * w1) * (2j * sin_mu_om + e_mu_om_neg * xi),
        e_mu_om_neg * (1 - xi),
    )
    hat_m_inf = Mat2(
        e_thi,
        -2j * math.pi * inv_g_neg,
        2j * math.pi * inv_g_pos * e_thi,
        two_cos_sg - e_thi,
    )

    m0 = Mat2(
        e_m0 * (1 - xi),
        -g_up * e(-mu - om) * (2j * sin_2mu + e(-2 * mu) * xi),
        g_dn * e(-2 * mu + 2 * w1) * (2j * sin_mu_omb + e_omb_mu * xi),
        2 * cos_pi(mu + omb) - e_m0 * (1 - xi),
    )
    m1 = Mat2(
        e_mu_om + e_m1 * xi,
        g_up * e_omb_mu * xi,
        -g_dn * e(2 * w1) * (2j * sin_mu_om + e_m1 * xi),
        e(-mu - om) - e_m1 * xi,
    )
    m_inf = Mat2(
        two_cos_sg - e_thi_neg,
        -2j * math.pi * inv_g_neg,
        2j * math.pi * inv_g_pos * e_thi_neg,
        e_thi_neg,
    )

    # the multipliers carry the gamma factors of the matrices at infinity
    s1 = 2j * math.pi * inv_g_pos
    s2 = -2j * math.pi * e_thi * inv_g_neg
    stokes = StokesData(s1=s1, s2=s2)

    data = MonodromyDataV(
        theta=sse_theta_v(p), sigma=2 * mu + 2 * w1, stokes=stokes,
        m0=m0, m1=m1, m_inf=m_inf,
        hat_m0=hat_m0, hat_m1=hat_m1, hat_m_inf=hat_m_inf,
    )
    bad = {k: v for k, v in data.residuals.items() if not v <= CONSISTENCY_TOL}
    if bad:
        raise InconsistentKError(f"monodromy data fails consistency checks: {bad}")

    # the two printed sets must be images of each other under the hat
    # transform built from the lower Stokes matrix; each image is sized by
    # its factors S1 M1 M0 M1^-1 S1^-1, S1 M1 S1^-1 and S1 Minf S1^-1, and
    # an SL(2) matrix has the max-norm of its inverse
    s1_mat = stokes.stokes_matrix_lower()
    n_s1, n_m1 = s1_mat.norm_max(), m1.norm_max()
    sizes = (n_s1 * n_m1 * m0.norm_max() * n_m1 * n_s1, n_s1 * n_m1 * n_s1,
             n_s1 * m_inf.norm_max() * n_s1)
    printed = (hat_m0, hat_m1, hat_m_inf)
    dev = {name: backward_error(max_diff(image, ref), size, ref.norm_max())
           for name, image, size, ref in zip(
               ("hat_m0", "hat_m1", "hat_m_inf"),
               hat_transform(s1_mat, m0, m1, m_inf), sizes, printed)}
    if not all(v <= CONSISTENCY_TOL for v in dev.values()):
        raise InconsistentKError(f"printed matrix sets disagree under hat transform: {dev}")

    return data
