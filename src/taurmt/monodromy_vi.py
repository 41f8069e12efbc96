"""Monodromy parameterization for the sixth Painleve system.

The four regular singular points carry SL(2,C) monodromy matrices M0, Mt, M1,
Minf tied together by the cyclic relation Minf M1 Mt M0 = I. Given the formal
exponents theta_nu, the two-point exponent sigma_0t and the coefficients
(s_0t, r), this module builds the standard explicit parameterization, maps
s_0t forward to the expansion coefficient s-hat (s_hat_vi), checks its
trace/determinant/cyclic identities, solves the connection relations for
the remaining two-point cosines, and instantiates the whole structure for the
spectrum-singularity ensemble, where all monodromy matrices degenerate to
upper triangular form and s_0t exists only as the degenerate limit 0. No
inverse s-hat -> s map is kept: that limit is the one place data starts
from s-hat.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexfn import cos_pi, exp_pi_i, gamma_ratio, near_integer, sin_pi
from .mat2 import IDENTITY, Mat2, det, inv, max_diff, mul, tr

__all__ = [
    "DegenerateParameterError",
    "ThetaVI",
    "MonodromyDataVI",
    "MonodromyMatricesVI",
    "SSEParams",
    "SSEMonodromyVI",
    "check_generic",
    "pvi_matrices",
    "manifold_residual",
    "connection_sigmas",
    "s_hat_vi",
    "sse_monodromy",
]

_DEGEN_TOL = 1e-12


class DegenerateParameterError(ValueError):
    """Raised when a parameterization factor vanishes to working precision."""

    def __init__(self, factor: str, value: complex):
        self.factor = factor
        self.value = complex(value)
        super().__init__(f"degenerate parameter: {factor} = {value}")


def _require_nonzero(name: str, value: complex) -> complex:
    value = complex(value)
    if abs(value) < _DEGEN_TOL:
        raise DegenerateParameterError(name, value)
    return value


@dataclass(frozen=True)
class ThetaVI:
    """Formal monodromy exponents at the four singular points 0, t, 1, inf."""

    theta0: complex
    theta_t: complex
    theta1: complex
    theta_inf: complex

    def __post_init__(self):
        for name in ("theta0", "theta_t", "theta1", "theta_inf"):
            object.__setattr__(self, name, complex(getattr(self, name)))

    def as_tuple(self):
        return (self.theta0, self.theta_t, self.theta1, self.theta_inf)


def check_generic(theta: ThetaVI, sigma_0t: complex) -> tuple:
    """The violated genericity conditions, one message each; () when generic.

    (a) no exponent theta_nu may be an integer, (b) 0 < Re sigma_0t < 1,
    (c) no resonance theta_0 +- theta_t +- sigma or theta_inf +- theta_1 +-
    sigma may land in 2Z. Reporting only; nothing is raised.
    """
    sigma_0t = complex(sigma_0t)
    violations = []
    for name, value in zip(("theta0", "theta_t", "theta1", "theta_inf"), theta.as_tuple()):
        if near_integer(value):
            violations.append(f"(a) {name} = {value} is an integer")
    if not (0.0 < sigma_0t.real < 1.0):
        violations.append(f"(b) Re(sigma_0t) = {sigma_0t.real} outside (0, 1)")
    for label, base, other in (("theta0/theta_t", theta.theta0, theta.theta_t),
                               ("theta_inf/theta1", theta.theta_inf, theta.theta1)):
        for s1 in (1, -1):
            for s2 in (1, -1):
                combo = base + s1 * other + s2 * sigma_0t
                if near_integer(combo, step=2.0):
                    violations.append(
                        f"(c) {label} resonance: {base} {'+' if s1 > 0 else '-'} "
                        f"{other} {'+' if s2 > 0 else '-'} sigma in 2Z (value {combo})"
                    )
    return tuple(violations)


def s_hat_vi(theta: ThetaVI, sigma_0t: complex, s_0t: complex) -> complex:
    """Map the parameterization coefficient s to the expansion coefficient s-hat.

    The map is linear in s with a coefficient made of eight gamma factors;
    a GammaPoleError from any factor propagates.
    """
    return complex(s_0t) * _s_hat_ratio(theta, complex(sigma_0t))


def _s_hat_ratio(theta: ThetaVI, sg: complex) -> complex:
    th0, tht, th1, thi = theta.as_tuple()
    return gamma_ratio(
        (1 - sg, 1 - sg,
         1 + (th0 + tht + sg) / 2, 1 + (-th0 + tht + sg) / 2,
         1 + (thi + th1 + sg) / 2, 1 + (-thi + th1 + sg) / 2),
        (1 + sg, 1 + sg,
         1 + (th0 + tht - sg) / 2, 1 + (-th0 + tht - sg) / 2,
         1 + (thi + th1 - sg) / 2, 1 + (-thi + th1 - sg) / 2))


@dataclass(frozen=True)
class MonodromyDataVI:
    """Monodromy data (theta, sigma_0t, s_0t, r) defining a unique solution.

    s_hat_0t is the induced boundary-expansion coefficient. s_0t = 0 marks
    the degenerate limit of the spectrum-singularity case, where s_hat_0t
    stays finite and is stored directly.
    """

    theta: ThetaVI
    sigma_0t: complex
    s_0t: complex
    r: complex
    s_hat_0t: complex

    def __post_init__(self):
        for name in ("sigma_0t", "s_0t", "r", "s_hat_0t"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.r) == 0.0:
            raise DegenerateParameterError("r", self.r)

    @classmethod
    def create(cls, theta: ThetaVI, sigma_0t: complex, s_0t: complex, r: complex) -> "MonodromyDataVI":
        return cls(theta, sigma_0t, s_0t, r, s_hat_vi(theta, sigma_0t, s_0t))


@dataclass(frozen=True)
class MonodromyMatricesVI:
    """The four monodromy matrices M0, Mt, M1 and Minf."""

    m0: Mat2
    mt: Mat2
    m1: Mat2
    m_inf: Mat2

    def cyclic_residual(self) -> float:
        """max |Minf M1 Mt M0 - I| over the entries."""
        return max_diff(mul(self.m_inf, mul(self.m1, mul(self.mt, self.m0))), IDENTITY)

    def trace_coordinates(self) -> tuple:
        """(p0, pt, p1, p_inf, p0t, pt1, p01) as manifold_residual takes them."""
        m0, mt, m1 = self.m0, self.mt, self.m1
        return (tr(m0), tr(mt), tr(m1), tr(self.m_inf),
                tr(mul(mt, m0)), tr(mul(m1, mt)), tr(mul(m1, m0)))

    def manifold(self) -> complex:
        """manifold_residual of these matrices' trace coordinates."""
        return manifold_residual(*self.trace_coordinates())

    def residuals(self, theta: ThetaVI) -> dict:
        """Deviations from the defining identities (all should be ~0)."""
        dets = {
            "det_m0": abs(det(self.m0) - 1.0),
            "det_mt": abs(det(self.mt) - 1.0),
            "det_m1": abs(det(self.m1) - 1.0),
            "det_m_inf": abs(det(self.m_inf) - 1.0),
        }
        traces = {
            "tr_m0": abs(tr(self.m0) - 2 * cos_pi(theta.theta0)),
            "tr_mt": abs(tr(self.mt) - 2 * cos_pi(theta.theta_t)),
            "tr_m1": abs(tr(self.m1) - 2 * cos_pi(theta.theta1)),
            "tr_m_inf": abs(tr(self.m_inf) - 2 * cos_pi(theta.theta_inf)),
        }
        return {"cyclic": self.cyclic_residual(), **dets, **traces}


def pvi_matrices(data: MonodromyDataVI) -> MonodromyMatricesVI:
    """Build the explicit monodromy matrices from the data.

    M1 and Minf are written down directly; M0 and Mt are conjugated into
    place by the frame matrix D. Raises DegenerateParameterError when a
    vanishing sine or coefficient would make the formulas meaningless.
    """
    th0, tht, th1, thi = data.theta.as_tuple()
    sg = data.sigma_0t
    s = data.s_0t
    r = data.r

    sin_sg = _require_nonzero("sin(pi sigma_0t)", sin_pi(sg))
    sin_thi = _require_nonzero("sin(pi theta_inf)", sin_pi(thi))
    _require_nonzero("s_0t", s)
    _require_nonzero("r", r)

    m_inf = Mat2.diag(exp_pi_i(thi), exp_pi_i(-thi))

    pref1 = 1.0 / (1j * sin_thi)
    m1 = Mat2(
        pref1 * (cos_pi(sg) - exp_pi_i(-thi) * cos_pi(th1)),
        pref1 * (-2 * r * exp_pi_i(-thi)
                 * sin_pi((thi + th1 + sg) / 2) * sin_pi((thi + th1 - sg) / 2)),
        pref1 * (2 / r * exp_pi_i(thi)
                 * sin_pi((thi - th1 + sg) / 2) * sin_pi((thi - th1 - sg) / 2)),
        pref1 * (-cos_pi(sg) + exp_pi_i(thi) * cos_pi(th1)),
    )

    # the conjugated frames carry the product r*s, so that the r in D cancels
    # out of every trace invariant and r stays a pure gauge label
    rs = r * s
    prefs = 1.0 / (1j * sin_sg)
    mt_frame = Mat2(
        prefs * (exp_pi_i(sg) * cos_pi(tht) - cos_pi(th0)),
        prefs * (-2 * rs * exp_pi_i(sg)
                 * sin_pi((th0 + tht - sg) / 2) * sin_pi((th0 - tht + sg) / 2)),
        prefs * (2 / rs * exp_pi_i(-sg)
                 * sin_pi((th0 + tht + sg) / 2) * sin_pi((th0 - tht - sg) / 2)),
        prefs * (-exp_pi_i(-sg) * cos_pi(tht) + cos_pi(th0)),
    )
    m0_frame = Mat2(
        prefs * (exp_pi_i(sg) * cos_pi(th0) - cos_pi(tht)),
        prefs * (2 * rs
                 * sin_pi((th0 + tht - sg) / 2) * sin_pi((th0 - tht + sg) / 2)),
        prefs * (-2 / rs
                 * sin_pi((th0 - tht - sg) / 2) * sin_pi((th0 + tht + sg) / 2)),
        prefs * (-exp_pi_i(-sg) * cos_pi(th0) + cos_pi(tht)),
    )

    d = Mat2(
        sin_pi((thi - th1 - sg) / 2), r * sin_pi((thi + th1 + sg) / 2),
        1 / r * sin_pi((thi - th1 + sg) / 2), sin_pi((thi + th1 - sg) / 2),
    )
    _require_nonzero("det D", det(d))
    d_inv = inv(d)
    mt = mul(d_inv, mul(mt_frame, d))
    m0 = mul(d_inv, mul(m0_frame, d))
    return MonodromyMatricesVI(m0=m0, mt=mt, m1=m1, m_inf=m_inf)


def manifold_residual(p0: complex, pt: complex, p1: complex, p_inf: complex,
                      p0t: complex, pt1: complex, p01: complex) -> complex:
    """Left side of the monodromy-manifold constraint; ~0 for consistent data.

    Arguments are the trace invariants p_nu = tr M_nu and p_{mu nu} =
    tr(M_mu M_nu).
    """
    return (
        p0t * pt1 * p01
        + p0t * p0t + pt1 * pt1 + p01 * p01
        - (p0 * pt + p1 * p_inf) * p0t
        - (pt * p1 + p0 * p_inf) * pt1
        - (p0 * p1 + pt * p_inf) * p01
        + p0 * p0 + pt * pt + p1 * p1 + p_inf * p_inf
        + p0 * pt * p1 * p_inf
        - 4.0
    )


def connection_sigmas(theta: ThetaVI, sigma_0t: complex, s_0t: complex):
    """Solve the two connection relations for (cos pi sigma_t1, cos pi sigma_01).

    The relations are linear in the two unknown cosines; their system matrix
    is singular exactly when sin(pi sigma_0t) degenerates.
    """
    th0, tht, th1, thi = theta.as_tuple()
    sg = complex(sigma_0t)
    s = complex(s_0t)
    sin_sg = sin_pi(sg)

    rows = []
    rhs = []
    for pm in (1, -1):
        lhs = (4 * s ** pm
               * sin_pi((th0 + tht - pm * sg) / 2) * sin_pi((th0 - tht + pm * sg) / 2)
               * sin_pi((thi + th1 - pm * sg) / 2) * sin_pi((thi - th1 + pm * sg) / 2))
        a = pm * 1j * sin_sg * exp_pi_i(pm * sg)
        b = pm * 1j * sin_sg
        c = (lhs
             + exp_pi_i(pm * sg) * (cos_pi(tht) * cos_pi(thi) + cos_pi(th0) * cos_pi(th1))
             - (cos_pi(tht) * cos_pi(th1) + cos_pi(thi) * cos_pi(th0)))
        rows.append((a, b))
        rhs.append(c)
    (a1, b1), (a2, b2) = rows
    den = a1 * b2 - a2 * b1  # equals 2i sin^3(pi sigma)
    if abs(den) < _DEGEN_TOL ** 3:
        raise DegenerateParameterError("connection system determinant (sin^3 pi sigma_0t)", den)
    cos_t1 = (rhs[0] * b2 - rhs[1] * b1) / den
    cos_01 = (a1 * rhs[1] - a2 * rhs[0]) / den
    return cos_t1, cos_01


@dataclass(frozen=True)
class SSEParams:
    """Parameters of the spectrum-singularity ensemble average.

    N is the matrix dimension and enters only through integer phases and
    exponent shifts, so it is kept as an exact integer. The generalized
    weight carries algebraic singularities of exponents 2*omega1 (at the
    endpoint) and 2*mu (at the observation point), a jump of strength xi_star,
    and an asymmetry phase omega2.
    """

    N: int
    mu: complex
    omega1: complex
    omega2: complex
    xi_star: complex = 0.0

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 0:
            raise ValueError(f"N must be a non-negative int, got {self.N!r}")
        for name in ("mu", "omega1", "omega2", "xi_star"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if (2 * self.omega1).real <= -1 or (2 * self.mu).real <= -1:
            raise ValueError("need Re(2 omega1) > -1 and Re(2 mu) > -1 for a convergent weight")

    @property
    def omega(self) -> complex:
        return self.omega1 + 1j * self.omega2

    @property
    def omega_bar(self) -> complex:
        return self.omega1 - 1j * self.omega2

    @property
    def sigma(self) -> complex:
        return 2 * self.mu + 2 * self.omega1

    def branch_bracket(self) -> complex:
        """The weight-dependent combination every branch coefficient carries,

            sin 2 pi mu sin pi(mu + omega) / sin pi sigma
            + xi* e^{-pi i (mu - omega_bar)} / 2i;

        the boundary expansions' branch terms and the s_hat of sse_monodromy
        are multiples of it.
        """
        return (self.xi_star * exp_pi_i(-(self.mu - self.omega_bar)) / 2j
                + sin_pi(2 * self.mu) * sin_pi(self.mu + self.omega)
                / sin_pi(self.sigma))


@dataclass(frozen=True)
class SSEMonodromyVI:
    """The triangular monodromy matrices and their data; the off-diagonal
    entries m0, mt, m1 are the matrices' a12."""

    matrices: MonodromyMatricesVI
    data: MonodromyDataVI


def sse_theta_vi(p: SSEParams) -> ThetaVI:
    """Exponents of the finite-N spectrum-singularity average."""
    return ThetaVI(
        theta0=p.N + 2 * p.mu,
        theta_t=-p.N - 2 * p.omega1,
        theta1=-p.mu - p.omega,
        theta_inf=p.mu + p.omega_bar,
    )


def sse_monodromy(p: SSEParams, r: complex) -> SSEMonodromyVI:
    """Monodromy data of the spectrum-singularity average.

    All of M0, Mt, M1 come out upper triangular with unit-phase diagonals;
    Minf follows from the cyclic relation and is upper triangular as well.
    The parameterization coefficient s_0t only exists as a degenerate limit,
    so the data object stores s_0t = 0 and the finite s_hat.
    """
    r = _require_nonzero("r", r)
    theta = sse_theta_vi(p)
    sg = p.sigma
    sin_sg = _require_nonzero("sin(pi (2 mu + 2 omega1))", sin_pi(sg))
    sin_2w1 = _require_nonzero("sin(2 pi omega1)", sin_pi(2 * p.omega1))
    sin_mo = _require_nonzero("sin(pi (mu + omega))", sin_pi(p.mu + p.omega))

    s_hat = p.branch_bracket() / (sin_2w1 * sin_mo)
    _require_nonzero("s_hat", s_hat)

    # all three entries scale linearly in r: the whole family over r is one
    # diagonal-conjugation orbit, so r is a pure gauge label here exactly as
    # in the generic parameterization
    sgn = -1.0 if p.N % 2 else 1.0
    m0 = (sgn * 2j * r * sin_pi(2 * p.mu) / sin_sg ** 2
          * (-(1 / s_hat) * sin_pi(p.mu + p.omega_bar) + sin_sg * sin_mo))
    mt = (sgn * 2j * r / sin_sg ** 2
          * ((1 / s_hat) * exp_pi_i(-sg) * sin_pi(2 * p.mu) * sin_pi(p.mu + p.omega_bar)
             + sin_sg * sin_2w1 * sin_mo))
    m1 = -2j * r * exp_pi_i(-(p.mu + p.omega_bar)) * sin_mo

    mat0 = Mat2(exp_pi_i(-theta.theta0), m0, 0.0, exp_pi_i(theta.theta0))
    matt = Mat2(exp_pi_i(theta.theta_t), mt, 0.0, exp_pi_i(-theta.theta_t))
    mat1 = Mat2(exp_pi_i(-theta.theta1), m1, 0.0, exp_pi_i(theta.theta1))
    mat_inf = inv(mul(mat1, mul(matt, mat0)))

    matrices = MonodromyMatricesVI(m0=mat0, mt=matt, m1=mat1, m_inf=mat_inf)
    data = MonodromyDataVI(theta, sg, 0.0, r, s_hat)
    return SSEMonodromyVI(matrices=matrices, data=data)


def sse_offdiag_relation_residual(res: SSEMonodromyVI) -> float:
    """Residual of the linear identity tying the three upper-right entries.

    e^{-pi i theta0} m0 + e^{-pi i theta_t} mt + e^{-pi i (theta0+theta_t-
    theta_inf)} m1 = 0 holds independently of s_hat.
    """
    theta = res.data.theta
    m0, mt, m1 = (m.a12 for m in (res.matrices.m0, res.matrices.mt, res.matrices.m1))
    value = (exp_pi_i(-theta.theta0) * m0
             + exp_pi_i(-theta.theta_t) * mt
             + exp_pi_i(-(theta.theta0 + theta.theta_t - theta.theta_inf)) * m1)
    scale = max(abs(m0), abs(mt), abs(m1), 1.0)
    return abs(value) / scale
