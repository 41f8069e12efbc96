"""Residual evaluation and integration of the second-degree sigma-form ODEs.

All three equations handled here share one algebraic shape,

    F(t, z, z', z'') = L(t, z') z''^2 + R(t, z, z') = 0,

quadratic in the second derivative. Differentiating once in t and using the
structural identity R_t + z' R_z = 0 (which all three satisfy) factors the
result as z'' (L_t z'' + L_z' z''^2 + R_z' + 2 L z''') = 0, so the explicit
third-order flow

    z''' = -(L_t z'' + L_z' z''^2 + R_z') / (2 L)

is regular wherever L != 0; inflection points of the solution need no special
handling. The only genuine turning points are zeros of the leading
coefficient L: z' = 0 for the sixth-system form, t = 0 for the other two.

Each equation is fixed by its family's parameter object: ThetaVI gives the
sixth-system form, ThetaV the fifth-system form and BulkParams, this
module's record of the weight (mu, omega1, omega2), the
Jimbo-Miwa-Mori-Sato bulk form. _family tells the three apart, here and
nowhere else, and binds the parameters to the family's form and to its
tau <-> sigma map: the SigmaMap, also defined here, that sigma_map
returns. Each relation is written in _sixth_form or _fifth_form, whose
pieces forms every term of F. Beside pieces sits third, the closure the
integrator's Runge-Kutta stages call: it forms only the flow's terms L,
L_t, L_z' and R_z', in the same operations as pieces, and z''' from them.
relation(params) binds the parameters to a form once and returns its
residual, scaled residual, gradient, z''', roots and fixed singular
points, which the integrator and every other caller evaluate. sigma_map,
relation, integrate and the seeds raise TypeError for any other parameter
object.

The integrator steps this third-order system with an adaptive embedded
Runge-Kutta pair and monitors the original second-degree relation as a
conserved constraint, re-projecting z'' onto the nearest root whenever the
scaled residual drifts above the tolerance. Solutions that ride a double
root of the quadratic identically (linear-in-t solutions other than fixed
points) are not followed; they form a measure-zero family the flow above
does not see. A trajectory records its parameter object, so
tau_reconstruct needs only tau at the first node: it rebuilds tau on the
integrator's own nodes, through the trajectory's own sigma map, by a
fourth-order rule that reads the sigma' each node stores.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .monodromy_v import ThetaV
from .monodromy_vi import SSEParams, ThetaVI
from .tau_series import BoundaryExpansion

__all__ = [
    "TurningPointError",
    "StepSizeUnderflowError",
    "OdeSeed",
    "SigmaTrajectory",
    "SigmaMap",
    "BulkParams",
    "bulk_okamoto_params",
    "relation",
    "sigma_map",
    "integrate",
    "tau_reconstruct",
    "seed_vi",
    "seed_v",
    "seed_bulk",
]


class TurningPointError(RuntimeError):
    """Leading coefficient of the quadratic-in-z'' relation vanished."""

    def __init__(self, t: complex, leading: complex):
        self.t = complex(t)
        self.leading = complex(leading)
        super().__init__(
            f"turning point at t = {t}: leading coefficient {leading} ~ 0")


class StepSizeUnderflowError(RuntimeError):
    def __init__(self, t: complex):
        self.t = complex(t)
        super().__init__(f"step size underflow near t = {t}")


def _sixth_form(theta: ThetaVI):
    """(pieces, third, r_tz, turning, singular points) of the sixth-system
    form."""
    th0, tht, th1, thi = theta.as_tuple()
    c0 = (tht ** 2 - thi ** 2) * (th0 ** 2 - th1 ** 2) / 16
    e0, e1, e2, e3 = (0.25 * (tht + thi) ** 2, 0.25 * (tht - thi) ** 2,
                      0.25 * (th0 + th1) ** 2, 0.25 * (th0 - th1) ** 2)

    def pieces(t, z, z1):
        a = t * (t - 1)
        a2 = a ** 2
        b = 2 * z1 * (t * z1 - z) - z1 ** 2 - c0
        f0, f1, f2, f3 = z1 + e0, z1 + e1, z1 + e2, z1 + e3
        p = f0 * f1 * f2 * f3
        pp = f1 * f2 * f3 + f0 * f2 * f3 + f0 * f1 * f3 + f0 * f1 * f2
        bp = 4 * t * z1 - 2 * z - 2 * z1
        return (z1 * a2, b ** 2 - p, 2 * b * bp - pp,
                2 * a * (2 * t - 1) * z1, a2,
                (abs(b) ** 2, abs(p)), b)

    # The stage kernel: pieces' L, L_t, L_p and R_p in pieces' own
    # operations, on which the bits depend, then z'''. It forms nothing
    # else, and tests for the turning point once L is formed.
    def third(t, z, z1, z2):
        a = t * (t - 1)
        a2 = a ** 2
        b = 2 * z1 * (t * z1 - z) - z1 ** 2 - c0
        f0 = z1 + e0
        f1 = z1 + e1
        f2 = z1 + e2
        f3 = z1 + e3
        pp = f1 * f2 * f3 + f0 * f2 * f3 + f0 * f1 * f3 + f0 * f1 * f2
        lead = z1 * a2
        if abs(z1) <= 1e-12 * max(1.0, abs(z)):
            raise TurningPointError(t, lead)
        rp = 2 * b * (4 * t * z1 - 2 * z - 2 * z1) - pp
        return (-(2 * a * (2 * t - 1) * z1 * z2 + a2 * z2 ** 2 + rp)
                / (2 * lead))

    def r_tz(z1, b):
        return 4 * b * z1 ** 2, -4 * b * z1

    # The leading coefficient is a product, so it vanishes only through one
    # factor: z' here (t and t-1 are kept off zero by the path guard), t
    # itself for the fifth forms. Testing the factor instead of the
    # assembled product keeps legitimate tiny-but-nonzero leads usable.
    def turning(t, z, z1):
        return abs(z1) <= 1e-12 * max(1.0, abs(z))

    return pieces, third, r_tz, turning, (0j, 1 + 0j)


def _fifth_form(shift: complex, roots: tuple):
    """(pieces, third, r_tz, turning, singular points) of a fifth form with
    quartic roots roots."""
    r0, r1, r2, r3 = roots

    def pieces(t, z, z1):
        b = z - t * z1 + 2 * z1 ** 2 - shift * z1
        f0, f1, f2, f3 = z1 - r0, z1 - r1, z1 - r2, z1 - r3
        p = f0 * f1 * f2 * f3
        pp = f1 * f2 * f3 + f0 * f2 * f3 + f0 * f1 * f3 + f0 * f1 * f2
        bp = -t + 4 * z1 - shift
        return (t ** 2, -b ** 2 + 4 * p, -2 * b * bp + 4 * pp,
                2 * t, 0j,
                (abs(b) ** 2, 4 * abs(p)), b)

    # the stage kernel as in _sixth_form; L_p = 0j still multiplies z''^2
    def third(t, z, z1, z2):
        b = z - t * z1 + 2 * z1 ** 2 - shift * z1
        f0 = z1 - r0
        f1 = z1 - r1
        f2 = z1 - r2
        f3 = z1 - r3
        pp = f1 * f2 * f3 + f0 * f2 * f3 + f0 * f1 * f3 + f0 * f1 * f2
        lead = t ** 2
        if abs(t) <= 1e-12:
            raise TurningPointError(t, lead)
        rp = -2 * b * (-t + 4 * z1 - shift) + 4 * pp
        return -(2 * t * z2 + 0j * z2 ** 2 + rp) / (2 * lead)

    def r_tz(z1, b):
        return 2 * b * z1, -2 * b

    def turning(t, z, z1):
        return abs(t) <= 1e-12

    return pieces, third, r_tz, turning, (0j,)


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


@dataclass(frozen=True)
class BulkParams:
    """The weight (mu, omega1, omega2) that fixes the bulk sigma-form.

    as_tuple gives the form's four Okamoto roots, the formal monodromy
    exponents of the associated fifth Painleve system, mu-pair then
    omega1-pair; they sum to zero by construction. Non-finite roots are
    refused.
    """

    mu: complex
    omega1: complex
    omega2: complex

    def __post_init__(self):
        for name in ("mu", "omega1", "omega2"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if not all(map(cmath.isfinite, self.as_tuple())):
            raise ValueError(f"Okamoto parameters must be finite, got {self}")

    def as_tuple(self):
        half = 0.5j * self.omega2
        return (self.mu - half, -self.mu - half, self.omega1 + half,
                -self.omega1 + half)


def bulk_okamoto_params(p: SSEParams) -> BulkParams:
    """The bulk sigma-form's parameters for the weight of p."""
    return BulkParams(p.mu, p.omega1, p.omega2)


def _family(params) -> tuple:
    """(form, SigmaMap) of params' family, parameters bound: ThetaVI the
    sixth, ThetaV and BulkParams a fifth; any other object raises
    TypeError. This is the one place a family is told apart."""
    if isinstance(params, ThetaVI):
        th0, tht, th1, thi = params.as_tuple()
        return _sixth_form(params), SigmaMap(
            (tht ** 2 - thi ** 2) / 4,
            -((tht ** 2 + th0 ** 2 - thi ** 2 - th1 ** 2) / 8),
            sixth=True)
    if isinstance(params, ThetaV):
        th0, th1, thi = params.as_tuple()
        form = _fifth_form(
            2 * th0 + thi,
            (0j, th0, (th0 - th1 + thi) / 2, (th0 + th1 + thi) / 2))
        return form, SigmaMap((th0 + thi) / 2,
                              ((th0 + thi) ** 2 - th1 ** 2) / 4)
    if isinstance(params, BulkParams):
        v1, v2, v3, v4 = params.as_tuple()
        form = _fifth_form(0j, (-v1, -v2, -v3, -v4))
        return form, SigmaMap((v3 + v4) / 2,
                              (v1 - v2) * (v3 - v4) / 2 - (v3 + v4) ** 2 / 2)
    raise TypeError(f"no sigma form for {type(params).__name__}")


def sigma_map(params) -> SigmaMap:
    """The tau <-> sigma map of the family params belong to.

    ThetaVI: the sixth-system sigma of Jimbo. ThetaV: the fifth-system one.
    BulkParams: the bulk h(x) = x d/dx log tau + (i omega2 / 2) x
    + 2 mu omega1 + omega2^2 / 2 of Jimbo-Miwa-Mori-Sato. Any other object
    raises TypeError.
    """
    return _family(params)[1]


def relation(params) -> SimpleNamespace:
    """The relation F = L z''^2 + R of params' family, parameters bound once.

    params is a ThetaVI (sixth-system form), a ThetaV (fifth-system form)
    or a BulkParams (bulk form); any other object raises TypeError.
    residual(t, z, z1, z2) is F itself, zero on true solutions;
    scaled(t, z, z1, z2) is |F| over its largest term magnitude (floored
    at 1); gradient(t, z, z1, z2) is (dF/dt, dF/dz, dF/dz', dF/dz'');
    third(t, z, z1, z2) is the explicit z''' of the module docstring, the
    closure the integrator's stages call: it forms L, L_t, L_z' and R_z'
    and nothing else; roots(t, z, z1) are both z'' roots. third and roots
    raise TurningPointError at a zero of L. All take complex arguments.
    singularities are the fixed singular points: 0 and 1 for the sixth
    form, 0 for the fifth forms.
    """
    # pieces(t, z, z1) gives (L, R, R_p, L_t, L_p, parts, b): R_p = dR/dz',
    # L_t = dL/dt, L_p = dL/dz', parts the term magnitudes used for residual
    # scaling, b the polynomial R is built from; r_tz(z1, b) gives
    # (dR/dt, dR/dz)
    (pieces, third, r_tz, turning, singularities), _ = _family(params)

    def scaled(t, z, z1, z2):
        lead, r, _, _, _, parts, _ = pieces(t, z, z1)
        f = lead * z2 ** 2 + r
        return abs(f) / max(1.0, abs(lead) * abs(z2) ** 2, *parts)

    def roots(t, z, z1):
        lead, r, *_ = pieces(t, z, z1)
        if turning(t, z, z1):
            raise TurningPointError(t, lead)
        root = cmath.sqrt(-r / lead)
        return (root, -root)

    def residual(t, z, z1, z2):
        lead, r, *_ = pieces(t, z, z1)
        return lead * z2 ** 2 + r

    def gradient(t, z, z1, z2):
        lead, _, rp, lt, lp, _, b = pieces(t, z, z1)
        rt, rz = r_tz(z1, b)
        return (lt * z2 ** 2 + rt, rz, lp * z2 ** 2 + rp, 2 * lead * z2)

    return SimpleNamespace(residual=residual, scaled=scaled, gradient=gradient,
                           third=third, roots=roots,
                           singularities=singularities)


@dataclass(frozen=True)
class OdeSeed:
    """Initial data for integrate; curvature picks the z'' branch when set."""

    t: complex
    zeta: complex
    dzeta: complex
    curvature: complex | None = None


@dataclass(frozen=True)
class SigmaTrajectory:
    """Accepted integration nodes with values and constraint residuals.

    values holds (zeta, zeta') pairs; curvatures the z'' the integrator
    carried; residuals the scaled second-degree defect after any
    re-projection. Every accepted node obeys residual <= 100 * tolerance.
    The work counters: accepted and rejected steps, accepted nodes whose
    z'' was re-projected, and the shortest accepted step |dt| (inf when no
    step was taken); accepted == len(path) - 1. params is the parameter
    object of the flow's family, which tau_reconstruct maps through.
    """

    path: tuple
    values: tuple
    curvatures: tuple
    residuals: tuple
    tolerance: float
    accepted: int = 0
    rejected: int = 0
    reprojected: int = 0
    min_step: float = math.inf
    params: object = None

    def __len__(self) -> int:
        return len(self.path)

    @property
    def final(self) -> tuple:
        return (self.path[-1], *self.values[-1])


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    d = b - a
    if d == 0:
        return abs(p - a)
    n = abs(d)
    s = ((p - a) * d.conjugate()).real / n / n
    s = min(1.0, max(0.0, s))
    return abs(a + s * d - p)


# Cash-Karp embedded 4(5) tableau
_CK_C = (0.0, 0.2, 0.3, 0.6, 1.0, 0.875)
_CK_A = (
    (),
    (0.2,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 0.25)


def integrate(params, seed: OdeSeed, path,
              tol: float = 1e-10) -> SigmaTrajectory:
    """Integrate the third-order flow along straight segments through path.

    params picks the relation as in relation(): ThetaVI, ThetaV or
    BulkParams, and any other object raises TypeError; the result records
    it. The z'' branch at the seed is the second-degree root nearest
    seed.curvature, or the principal root when the seed carries none.
    path lists the waypoints to visit after seed.t, and may begin with
    seed.t itself; a path that is seed.t alone gives the seed's one-node
    trajectory, no step taken, and an empty path raises ValueError. Each segment, and the seed point,
    must stay clear of the relation's fixed singular points; every
    waypoint is a node of the result. tol must be finite and positive,
    and it alone sets the step, which starts each leg at a twentieth of
    its length. The second-degree relation is re-checked
    at every accepted node and z'' re-projected onto the nearest root when
    the scaled residual exceeds tol. A step whose error estimate overflows
    or is nan is rejected and shrunk, so a flow that goes nan ends in
    StepSizeUnderflowError.

    The state, the six Cash-Karp stages and the 5th- and 4th-order updates
    are carried as three scalar complexes each; the stages evaluate z'''
    through relation(params).third, the form's stage kernel bound once,
    and the same relation supplies the per-node residual and roots.
    Weighted stage sums add their terms in tableau order, skipping the
    zero weights of the two updates, onto a leading 0 as sum() does: that
    sets the sign of exactly-zero parts, which flows on the real or the
    imaginary axis carry and the output prints. The result counts its
    accepted, rejected and re-projected steps and its shortest step (see
    SigmaTrajectory).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rel = relation(params)
    third, scaled, roots = rel.third, rel.scaled, rel.roots
    t0, y0, y1 = complex(seed.t), complex(seed.zeta), complex(seed.dzeta)
    waypoints = [complex(w) for w in path]
    if not waypoints:
        raise ValueError("path must contain at least one waypoint")
    if waypoints[0] == t0:
        waypoints = waypoints[1:]
    # the seed point alone is one zero-length leg: the guard below still
    # sees it, and no step is taken
    legs = list(zip([t0] + waypoints[:-1], waypoints)) or [(t0, t0)]
    for a, b in legs:
        for s in rel.singularities:
            if _segment_distance(a, b, s) < 1e-9:
                raise ValueError(f"path segment {a} -> {b} passes within 1e-9 "
                                 f"of the fixed singularity {s}")

    pair = roots(t0, y0, y1)
    if seed.curvature is None:
        y2 = pair[0]
    else:
        y2 = min(pair, key=lambda r: abs(r - complex(seed.curvature)))

    nodes = [t0]
    values = [(y0, y1)]
    curvatures = [y2]
    residuals = [scaled(t0, y0, y1, y2)]
    accepted = rejected = reprojected = 0
    min_step = math.inf

    _, c1, c2, c3, c4, c5 = _CK_C
    (_, (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _CK_A
    p0, _, p2, p3, _, p5 = _CK_B5
    q0, _, q2, q3, q4, q5 = _CK_B4

    for a, b in legs:
        if a == b:
            continue
        dt = b - a
        s = 0.0
        h = 0.05
        while s < 1.0:
            last = h >= 1.0 - s
            if last:
                h = 1.0 - s
            # k<i><c>: component c of stage i (numbered as in _CK_A), that is
            # dt (z', z'', z''') at the stage's abscissa and state u (y
            # itself for stage 0)
            k00, k01, k02 = (dt * y1, dt * y2,
                             dt * third(a + s * dt, y0, y1, y2))
            u0 = y0 + h * (0 + a10 * k00)
            u1 = y1 + h * (0 + a10 * k01)
            u2 = y2 + h * (0 + a10 * k02)
            k10, k11, k12 = (dt * u1, dt * u2,
                             dt * third(a + (s + c1 * h) * dt, u0, u1, u2))
            u0 = y0 + h * (0 + a20 * k00 + a21 * k10)
            u1 = y1 + h * (0 + a20 * k01 + a21 * k11)
            u2 = y2 + h * (0 + a20 * k02 + a21 * k12)
            k20, k21, k22 = (dt * u1, dt * u2,
                             dt * third(a + (s + c2 * h) * dt, u0, u1, u2))
            u0 = y0 + h * (0 + a30 * k00 + a31 * k10 + a32 * k20)
            u1 = y1 + h * (0 + a30 * k01 + a31 * k11 + a32 * k21)
            u2 = y2 + h * (0 + a30 * k02 + a31 * k12 + a32 * k22)
            k30, k31, k32 = (dt * u1, dt * u2,
                             dt * third(a + (s + c3 * h) * dt, u0, u1, u2))
            u0 = y0 + h * (0 + a40 * k00 + a41 * k10 + a42 * k20 + a43 * k30)
            u1 = y1 + h * (0 + a40 * k01 + a41 * k11 + a42 * k21 + a43 * k31)
            u2 = y2 + h * (0 + a40 * k02 + a41 * k12 + a42 * k22 + a43 * k32)
            k40, k41, k42 = (dt * u1, dt * u2,
                             dt * third(a + (s + c4 * h) * dt, u0, u1, u2))
            u0 = y0 + h * (0 + a50 * k00 + a51 * k10 + a52 * k20 + a53 * k30
                           + a54 * k40)
            u1 = y1 + h * (0 + a50 * k01 + a51 * k11 + a52 * k21 + a53 * k31
                           + a54 * k41)
            u2 = y2 + h * (0 + a50 * k02 + a51 * k12 + a52 * k22 + a53 * k32
                           + a54 * k42)
            k50, k51, k52 = (dt * u1, dt * u2,
                             dt * third(a + (s + c5 * h) * dt, u0, u1, u2))
            # 5th- and 4th-order updates
            n0 = y0 + h * (0 + p0 * k00 + p2 * k20 + p3 * k30 + p5 * k50)
            n1 = y1 + h * (0 + p0 * k01 + p2 * k21 + p3 * k31 + p5 * k51)
            n2 = y2 + h * (0 + p0 * k02 + p2 * k22 + p3 * k32 + p5 * k52)
            m0 = y0 + h * (0 + q0 * k00 + q2 * k20 + q3 * k30 + q4 * k40
                           + q5 * k50)
            m1 = y1 + h * (0 + q0 * k01 + q2 * k21 + q3 * k31 + q4 * k41
                           + q5 * k51)
            m2 = y2 + h * (0 + q0 * k02 + q2 * k22 + q3 * k32 + q4 * k42
                           + q5 * k52)
            try:
                err = max(abs(n0 - m0) / (tol + tol * max(abs(y0), abs(n0))),
                          abs(n1 - m1) / (tol + tol * max(abs(y1), abs(n1))),
                          abs(n2 - m2) / (tol + tol * max(abs(y2), abs(n2))))
            except OverflowError:
                # complex abs raises when the modulus overflows; reject the
                # step and shrink it
                err = math.inf
            if err <= 1.0:
                accepted += 1
                min_step = min(min_step, h * abs(dt))
                s = 1.0 if last else s + h
                y0, y1, y2 = n0, n1, n2
                t_node = b if last else a + s * dt
                res = scaled(t_node, y0, y1, y2)
                if res > tol:
                    root, neg = roots(t_node, y0, y1)
                    y2 = neg if abs(neg - y2) < abs(root - y2) else root
                    res = scaled(t_node, y0, y1, y2)
                    reprojected += 1
                nodes.append(t_node)
                values.append((y0, y1))
                curvatures.append(y2)
                residuals.append(res)
            else:
                rejected += 1
            # a nan err gives a nan grow, and max() below keeps its first
            # argument against nan: the step shrinks as on overflow
            grow = 5.0 if err == 0 else 0.9 * err ** -0.2
            h *= min(5.0, max(0.2, grow))
            # the completed-leg dust step may legitimately leave h tiny
            if h < 1e-14 and s < 1.0:
                raise StepSizeUnderflowError(a + s * dt)

    return SigmaTrajectory(path=tuple(nodes), values=tuple(values),
                           curvatures=tuple(curvatures),
                           residuals=tuple(residuals), tolerance=tol,
                           accepted=accepted, rejected=rejected,
                           reprojected=reprojected, min_step=min_step,
                           params=params)


def tau_reconstruct(trajectory: SigmaTrajectory, value: complex) -> list:
    """Rebuild tau along the trajectory by log-integration from its first
    node, where tau = value.

    The sigma map of the trajectory's own family (trajectory.params) turns
    each node's (sigma, sigma') into l1 = d/dt log tau and l2 = dl1/dt, and
    each step h adds the end-corrected trapezoid rule

        (h/2) (l1_i + l1_i+1) + (h^2/12) (l2_i - l2_i+1),

    fourth order in h, onto log(value). Returns (t, tau) at every node.
    """
    amap = sigma_map(trajectory.params)
    ts = [complex(t) for t in trajectory.path]
    ls = [(t, *amap.log_derivatives(t, z, z1))
          for t, (z, z1) in zip(ts, trajectory.values)]
    value = complex(value)
    out = [(ts[0], value)]
    log_a = cmath.log(value)
    for (t0, f0, d0), (t1, f1, d1) in zip(ls, ls[1:]):
        h = t1 - t0
        log_a += 0.5 * h * (f0 + f1) + h * h / 12 * (d0 - d1)
        out.append((t1, cmath.exp(log_a)))
    return out


def _seed(amap: SigmaMap, expansion: BoundaryExpansion, t: complex) -> OdeSeed:
    t = complex(t)
    return OdeSeed(t, *amap.jet(t, *expansion.log_derivatives(t)))


def seed_vi(theta: ThetaVI, expansion: BoundaryExpansion, t: complex) -> OdeSeed:
    """Seed the sixth-system form from a boundary expansion at variable value t.

    The expansion variable must be the same variable the ODE is integrated
    in; for an expansion about the other fixed singularity the caller works
    in the flipped frame throughout.
    """
    return _seed(sigma_map(theta), expansion, t)


def seed_v(theta: ThetaV, expansion: BoundaryExpansion, t: complex) -> OdeSeed:
    return _seed(sigma_map(theta), expansion, t)


def seed_bulk(p: SSEParams, expansion: BoundaryExpansion, x: complex) -> OdeSeed:
    """Seed the alternative fifth form from the bulk expansion at x."""
    return _seed(sigma_map(bulk_okamoto_params(p)), expansion, x)
