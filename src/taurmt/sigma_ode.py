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

The integrator steps this third-order system with the Dormand-Prince
8(5,3) pair of Hairer, Norsett and Wanner (Solving Ordinary Differential
Equations I, 2nd ed., Springer 1993: the code DOP853) and monitors the
original second-degree relation as a conserved constraint, re-projecting
z'' onto the nearest root whenever the scaled residual drifts above the
tolerance. Solutions that ride a double root of the quadratic identically
(linear-in-t solutions other than fixed points) are not followed; they
form a measure-zero family the flow above does not see.

The sixth-system turning points z' = 0 are movable: the leading
coefficient vanishes there, but sigma is analytic. A straight path
through one meets a singular point of the flow, not of sigma, and the
flow may leave it on the reflected solution that the second-degree
relation also admits (z' -> -z'), with no error raised. So the integrator
goes round each one it sees ahead, on a fixed polygon in the complex
plane, and rejoins the path (Fornberg and Weideman's pole vaulting,
J. Comput. Phys. 230 (2011) 5957, applied to the zeros of the leading
coefficient). A trajectory records its parameter object, so
tau_reconstruct needs only tau at the first node: it rebuilds tau on the
integrator's own nodes, detours included, through the trajectory's own
sigma map, by a sixth-order rule that reads the sigma' and sigma'' each
node stores.
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
    "StepLimitError",
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


class StepLimitError(RuntimeError):
    """A leg took its bound of accepted steps before reaching its end."""

    def __init__(self, t: complex, limit: int):
        self.t = complex(t)
        self.limit = limit
        super().__init__(f"{limit} accepted steps on one leg, stopped at "
                         f"t = {t}")


def _sixth_form(theta: ThetaVI):
    """(pieces, third, r_tz, turning, turning estimate, singular points) of
    the sixth-system form."""
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

    # the Newton estimate of the zero of z' nearest t
    def turning_estimate(t, z1, z2):
        return t - z1 / z2

    return pieces, third, r_tz, turning, turning_estimate, (0j, 1 + 0j)


def _fifth_form(shift: complex, roots: tuple):
    """(pieces, third, r_tz, turning, turning estimate, singular points) of
    a fifth form with quartic roots roots; its leading coefficient vanishes
    only at the fixed singular point, so it has no turning estimate."""
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

    return pieces, third, r_tz, turning, None, (0j,)


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

    def log_derivatives(self, t: complex, z: complex, z1: complex,
                        z2: complex) -> tuple:
        """(l1, l2, l3) at t from (sigma, sigma', sigma'') = (z, z1, z2):
        jet inverted."""
        a = self.scale(t)
        l1 = (z - self.slope * t - self.intercept) / a
        if self.sixth:
            da = 2 * t - 1
            l2 = (z1 - da * l1 - self.slope) / a
            return l1, l2, (z2 - 2 * l1 - 2 * da * l2) / a
        l2 = (z1 - l1 - self.slope) / a
        return l1, l2, (z2 - 2 * l2) / a

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
    turning_estimate(t, z1, z2) is the Newton estimate t - z'/z'' of the
    movable zero of L nearest t, for the sixth form, whose L vanishes with
    z'; it is None for the fifth forms, whose L vanishes only at t = 0.
    singularities are the fixed singular points: 0 and 1 for the sixth
    form, 0 for the fifth forms.
    """
    # pieces(t, z, z1) gives (L, R, R_p, L_t, L_p, parts, b): R_p = dR/dz',
    # L_t = dL/dt, L_p = dL/dz', parts the term magnitudes used for residual
    # scaling, b the polynomial R is built from; r_tz(z1, b) gives
    # (dR/dt, dR/dz)
    ((pieces, third, r_tz, turning, turning_estimate, singularities),
     _) = _family(params)

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
                           turning_estimate=turning_estimate,
                           singularities=singularities)


@dataclass(frozen=True)
class OdeSeed:
    """Initial data for integrate; curvature picks the z'' branch when set.
    Non-finite values are refused."""

    t: complex
    zeta: complex
    dzeta: complex
    curvature: complex | None = None

    def __post_init__(self):
        if not all(cmath.isfinite(v) for v in (self.t, self.zeta, self.dzeta,
                                               self.curvature) if v is not None):
            raise ValueError(f"seed values must be finite, got {self}")


@dataclass(frozen=True)
class SigmaTrajectory:
    """Accepted integration nodes with values and constraint residuals.

    values holds (zeta, zeta') pairs; curvatures the z'' the integrator
    carried; residuals the scaled second-degree defect after any
    re-projection. Every accepted node obeys residual <= 100 * tolerance.
    The work counters: accepted and rejected steps, accepted nodes whose
    z'' was re-projected, detours taken round a turning point (see
    integrate), and the shortest accepted step |dt| (inf when no step was
    taken); accepted == len(path) - 1, the nodes of the detours included.
    params is the parameter object of the flow's family, which
    tau_reconstruct maps through.
    """

    path: tuple
    values: tuple
    curvatures: tuple
    residuals: tuple
    tolerance: float
    accepted: int = 0
    rejected: int = 0
    reprojected: int = 0
    detours: int = 0
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


# The Dormand-Prince 8(5,3) pair of Hairer, Norsett and Wanner (Solving
# Ordinary Differential Equations I, 2nd ed., Springer 1993; their code
# DOP853), each constant the double nearest the published one: the
# abscissae c_0..c_11, rows 1..11 of A in full, the 8th-order weights b
# (A's row 12), the weights of the 5th-order error estimate, and those of
# the 3rd-order update on stages 0, 8 and 11.
_DOP_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_DOP_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_DOP_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_DOP_BHH = (
    0.2440944881889764, 0.7338466882816118, 0.022058823529411766)


def _dop853(third):
    """The DOP853 step of the flow whose stage kernel is third.

    step(a, dt, s, h, y0, y1, y2, f0) advances (z, z', z'') = (y0, y1, y2)
    along the leg t = a + u dt from u = s to u = s + h; f0 is z''' at the
    step's start. It returns three triples: the 8th-order update, and the
    5th- and 3rd-order error estimates, each the difference between the
    update and a lower-order one. Stage k_i is dt (z', z'', z''') at the
    stage's abscissa and state, all scalar complexes. Weighted stage sums
    add their terms in tableau order, skipping the zero weights, onto a
    leading 0 as sum() does: that sets the sign of exactly-zero parts,
    which flows on the real or the imaginary axis carry and the output
    prints.
    """
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _DOP_C
    ((a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6),
     (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9,
      a11_10)) = _DOP_A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _DOP_B
    e0, _, _, _, _, e5, e6, e7, e8, e9, e10, e11 = _DOP_E5
    bh0, bh8, bh11 = _DOP_BHH

    def step(a, dt, s, h, y0, y1, y2, f0):
        k0_0, k0_1, k0_2 = dt * y1, dt * y2, dt * f0
        u0 = y0 + h * (0 + a1_0 * k0_0)
        u1 = y1 + h * (0 + a1_0 * k0_1)
        u2 = y2 + h * (0 + a1_0 * k0_2)
        k1_0, k1_1, k1_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c1 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a2_0 * k0_0 + a2_1 * k1_0)
        u1 = y1 + h * (0 + a2_0 * k0_1 + a2_1 * k1_1)
        u2 = y2 + h * (0 + a2_0 * k0_2 + a2_1 * k1_2)
        k2_0, k2_1, k2_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c2 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a3_0 * k0_0 + a3_2 * k2_0)
        u1 = y1 + h * (0 + a3_0 * k0_1 + a3_2 * k2_1)
        u2 = y2 + h * (0 + a3_0 * k0_2 + a3_2 * k2_2)
        k3_0, k3_1, k3_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c3 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a4_0 * k0_0 + a4_2 * k2_0 + a4_3 * k3_0)
        u1 = y1 + h * (0 + a4_0 * k0_1 + a4_2 * k2_1 + a4_3 * k3_1)
        u2 = y2 + h * (0 + a4_0 * k0_2 + a4_2 * k2_2 + a4_3 * k3_2)
        k4_0, k4_1, k4_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c4 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a5_0 * k0_0 + a5_3 * k3_0 + a5_4 * k4_0)
        u1 = y1 + h * (0 + a5_0 * k0_1 + a5_3 * k3_1 + a5_4 * k4_1)
        u2 = y2 + h * (0 + a5_0 * k0_2 + a5_3 * k3_2 + a5_4 * k4_2)
        k5_0, k5_1, k5_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c5 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a6_0 * k0_0 + a6_3 * k3_0 + a6_4 * k4_0
                       + a6_5 * k5_0)
        u1 = y1 + h * (0 + a6_0 * k0_1 + a6_3 * k3_1 + a6_4 * k4_1
                       + a6_5 * k5_1)
        u2 = y2 + h * (0 + a6_0 * k0_2 + a6_3 * k3_2 + a6_4 * k4_2
                       + a6_5 * k5_2)
        k6_0, k6_1, k6_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c6 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a7_0 * k0_0 + a7_3 * k3_0 + a7_4 * k4_0
                       + a7_5 * k5_0 + a7_6 * k6_0)
        u1 = y1 + h * (0 + a7_0 * k0_1 + a7_3 * k3_1 + a7_4 * k4_1
                       + a7_5 * k5_1 + a7_6 * k6_1)
        u2 = y2 + h * (0 + a7_0 * k0_2 + a7_3 * k3_2 + a7_4 * k4_2
                       + a7_5 * k5_2 + a7_6 * k6_2)
        k7_0, k7_1, k7_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c7 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a8_0 * k0_0 + a8_3 * k3_0 + a8_4 * k4_0
                       + a8_5 * k5_0 + a8_6 * k6_0 + a8_7 * k7_0)
        u1 = y1 + h * (0 + a8_0 * k0_1 + a8_3 * k3_1 + a8_4 * k4_1
                       + a8_5 * k5_1 + a8_6 * k6_1 + a8_7 * k7_1)
        u2 = y2 + h * (0 + a8_0 * k0_2 + a8_3 * k3_2 + a8_4 * k4_2
                       + a8_5 * k5_2 + a8_6 * k6_2 + a8_7 * k7_2)
        k8_0, k8_1, k8_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c8 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a9_0 * k0_0 + a9_3 * k3_0 + a9_4 * k4_0
                       + a9_5 * k5_0 + a9_6 * k6_0 + a9_7 * k7_0 + a9_8 * k8_0)
        u1 = y1 + h * (0 + a9_0 * k0_1 + a9_3 * k3_1 + a9_4 * k4_1
                       + a9_5 * k5_1 + a9_6 * k6_1 + a9_7 * k7_1 + a9_8 * k8_1)
        u2 = y2 + h * (0 + a9_0 * k0_2 + a9_3 * k3_2 + a9_4 * k4_2
                       + a9_5 * k5_2 + a9_6 * k6_2 + a9_7 * k7_2 + a9_8 * k8_2)
        k9_0, k9_1, k9_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c9 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a10_0 * k0_0 + a10_3 * k3_0 + a10_4 * k4_0
                       + a10_5 * k5_0 + a10_6 * k6_0 + a10_7 * k7_0
                       + a10_8 * k8_0 + a10_9 * k9_0)
        u1 = y1 + h * (0 + a10_0 * k0_1 + a10_3 * k3_1 + a10_4 * k4_1
                       + a10_5 * k5_1 + a10_6 * k6_1 + a10_7 * k7_1
                       + a10_8 * k8_1 + a10_9 * k9_1)
        u2 = y2 + h * (0 + a10_0 * k0_2 + a10_3 * k3_2 + a10_4 * k4_2
                       + a10_5 * k5_2 + a10_6 * k6_2 + a10_7 * k7_2
                       + a10_8 * k8_2 + a10_9 * k9_2)
        k10_0, k10_1, k10_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c10 * h) * dt, u0, u1, u2))
        u0 = y0 + h * (0 + a11_0 * k0_0 + a11_3 * k3_0 + a11_4 * k4_0
                       + a11_5 * k5_0 + a11_6 * k6_0 + a11_7 * k7_0
                       + a11_8 * k8_0 + a11_9 * k9_0 + a11_10 * k10_0)
        u1 = y1 + h * (0 + a11_0 * k0_1 + a11_3 * k3_1 + a11_4 * k4_1
                       + a11_5 * k5_1 + a11_6 * k6_1 + a11_7 * k7_1
                       + a11_8 * k8_1 + a11_9 * k9_1 + a11_10 * k10_1)
        u2 = y2 + h * (0 + a11_0 * k0_2 + a11_3 * k3_2 + a11_4 * k4_2
                       + a11_5 * k5_2 + a11_6 * k6_2 + a11_7 * k7_2
                       + a11_8 * k8_2 + a11_9 * k9_2 + a11_10 * k10_2)
        k11_0, k11_1, k11_2 = (
            dt * u1, dt * u2, dt * third(a + (s + c11 * h) * dt, u0, u1, u2))
        w0 = (0 + b0 * k0_0 + b5 * k5_0 + b6 * k6_0 + b7 * k7_0 + b8 * k8_0
              + b9 * k9_0 + b10 * k10_0 + b11 * k11_0)
        w1 = (0 + b0 * k0_1 + b5 * k5_1 + b6 * k6_1 + b7 * k7_1 + b8 * k8_1
              + b9 * k9_1 + b10 * k10_1 + b11 * k11_1)
        w2 = (0 + b0 * k0_2 + b5 * k5_2 + b6 * k6_2 + b7 * k7_2 + b8 * k8_2
              + b9 * k9_2 + b10 * k10_2 + b11 * k11_2)
        x0 = h * (0 + e0 * k0_0 + e5 * k5_0 + e6 * k6_0 + e7 * k7_0 + e8 * k8_0
                  + e9 * k9_0 + e10 * k10_0 + e11 * k11_0)
        x1 = h * (0 + e0 * k0_1 + e5 * k5_1 + e6 * k6_1 + e7 * k7_1 + e8 * k8_1
                  + e9 * k9_1 + e10 * k10_1 + e11 * k11_1)
        x2 = h * (0 + e0 * k0_2 + e5 * k5_2 + e6 * k6_2 + e7 * k7_2 + e8 * k8_2
                  + e9 * k9_2 + e10 * k10_2 + e11 * k11_2)
        return ((y0 + h * w0, y1 + h * w1, y2 + h * w2), (x0, x1, x2),
                (h * (w0 - bh0 * k0_0 - bh8 * k8_0 - bh11 * k11_0),
                 h * (w1 - bh0 * k0_1 - bh8 * k8_1 - bh11 * k11_1),
                 h * (w2 - bh0 * k0_2 - bh8 * k8_2 - bh11 * k11_2)))

    return step


def _detour(t, b, dt, rest, ahead, depth, singularities) -> tuple:
    """The waypoints (v1, v2, rejoin) of a detour that leaves the leg
    toward b, of direction dt, at t and goes round the point t + ahead dt.

    The leg coordinate u counts in units of dt from t, and rest is b's.
    The detour steps out at a right angle to v1 = t + i depth dt, runs
    parallel to the leg to u = ahead.real + depth, and returns to the leg
    there, or at b when rest is nearer. It takes the side away from the
    point, unless one of the fixed singular points lies within its reach
    there: going round one of those would change the branch, so it takes
    the other side.
    """
    side = -1 if ahead.imag > 0 else 1
    span = min(ahead.real + depth, rest)
    for p in singularities:
        u = (p - t) / dt
        if (-depth <= u.real <= span + depth
                and 0 < side * u.imag <= 2 * depth):
            side = -side
            break
    out = 1j * side * depth * dt
    rejoin = b if span == rest else t + span * dt
    return t + out, rejoin + out, rejoin


# How many accepted steps ahead a turning point is gone round. The flow's
# z''' grows like 1 / (t - t*) off the relation, so as a straight path
# nears t* its steps shrink in proportion to the distance left: to a
# quarter of it at tol 1e-13, and they never reach t*. A detour opened
# while t* is still several steps away needs no such steps.
_REACH = 8
# Accepted steps one leg may take. Over the benchmark's workloads no
# completed leg takes more than 137. A flow that creeps toward a pole of
# sigma, each step a fixed small fraction of the distance left, would
# otherwise run millions of steps before its step underflows.
_LEG_STEPS = 10_000


def integrate(params, seed: OdeSeed, path,
              tol: float = 1e-10) -> SigmaTrajectory:
    """Integrate the third-order flow along straight segments through path.

    params picks the relation as in relation(): ThetaVI, ThetaV or
    BulkParams, and any other object raises TypeError; the result records
    it. The z'' branch at the seed is the second-degree root nearest
    seed.curvature, or the principal root when the seed carries none.
    path lists the waypoints to visit after seed.t, and may begin with
    seed.t itself; a path that is seed.t alone gives the seed's one-node
    trajectory, no step taken, and an empty path, or one with a waypoint
    that is not finite, raises ValueError. Each segment, and the seed
    point, must stay clear of the relation's fixed
    singular points; every waypoint is a node of the result. tol must be
    finite and positive, and it alone sets the step, which starts the
    first leg at a twentieth of its length and every later leg, a
    detour's included, at the length the step control last proposed. The
    second-degree relation is re-checked
    at every accepted node and z'' re-projected onto the nearest root
    unless the scaled residual is at or below tol (a nan residual is
    re-projected too). A step whose error estimate overflows or is nan is
    rejected and shrunk, so a flow that goes nan ends in
    StepSizeUnderflowError. A leg, a detour's included, takes at most
    _LEG_STEPS = 10,000 accepted steps: one that has not reached its end
    by then raises StepLimitError at the t it reached.

    Each step is one DOP853 step (_dop853): twelve stages, the 8th-order
    update, and Hairer's error measure |e5|^2 / sqrt(|e5|^2 + |e3|^2 / 100)
    from the 5th- and 3rd-order estimates, each the largest of the three
    components relative to tol (1 + |z|). The first stage, z''' at the
    node, is the stage DOP853 adds at the end of the step that reached
    the node (first same as last), formed after any re-projection of z'':
    it is evaluated once per node and serves every trial step from it,
    rejected ones included. The stages
    evaluate z''' through relation(params).third, the form's stage kernel
    bound once, and the same relation supplies the per-node residual and
    roots.

    Sixth family: from the second node on, before each trial step the
    Newton estimate t* = t - z'/z'' of the turning point nearest the node
    is taken. When t* lies ahead, before the leg's end and within _REACH
    accepted steps of the node, the flow takes a detour round it
    (_detour), as deep as t* is far, and rejoins the leg; the detour's own
    legs look for no turning point, nor does a flow's first step. The
    waypoints stay nodes. The result counts its accepted, rejected and
    re-projected steps, its detours and its shortest step (see
    SigmaTrajectory).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    rel = relation(params)
    third, scaled, roots = rel.third, rel.scaled, rel.roots
    estimate = rel.turning_estimate
    step = _dop853(third)
    t0, y0, y1 = complex(seed.t), complex(seed.zeta), complex(seed.dzeta)
    waypoints = [complex(w) for w in path]
    if not waypoints:
        raise ValueError("path must contain at least one waypoint")
    if not all(map(cmath.isfinite, waypoints)):
        raise ValueError(f"waypoints must be finite, got {waypoints}")
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
    accepted = rejected = reprojected = detours = 0
    min_step = math.inf
    last_step = 0.0  # |dt| of the last accepted step
    proposed = 0.0  # |dt| the step control proposed at the last leg's end
    f = None  # z''' at the last node, once evaluated

    # (start, end, on a detour) of the legs still to run, the next one last
    pending = [(a, b, False) for a, b in reversed(legs)]
    while pending:
        a, b, detour = pending.pop()
        if a == b:
            continue
        dt = b - a
        s = 0.0
        h = min(1.0, proposed / abs(dt)) if proposed else 0.05
        leg_steps = 0
        while s < 1.0:
            if leg_steps == _LEG_STEPS:
                raise StepLimitError(a + s * dt, _LEG_STEPS)
            last = h >= 1.0 - s
            if last:
                h = 1.0 - s
            t = nodes[-1]
            if f is None:
                f = third(t, y0, y1, y2)
            if last_step and estimate is not None and not detour and y2:
                ahead = (estimate(t, y1, y2) - t) / dt
                if (0 < ahead.real <= 1.0 - s
                        and abs(ahead) * abs(dt) <= _REACH * last_step):
                    v1, v2, rejoin = _detour(t, b, dt, 1.0 - s, ahead,
                                             abs(ahead), rel.singularities)
                    pending += [(rejoin, b, False), (v2, rejoin, True),
                                (v1, v2, True), (t, v1, True)]
                    detours += 1
                    break
            (n0, n1, n2), (e0, e1, e2), (d0, d1, d2) = step(
                a, dt, s, h, y0, y1, y2, f)
            try:
                w0 = tol + tol * max(abs(y0), abs(n0))
                w1 = tol + tol * max(abs(y1), abs(n1))
                w2 = tol + tol * max(abs(y2), abs(n2))
                r5 = max(abs(e0) / w0, abs(e1) / w1, abs(e2) / w2)
                r3 = max(abs(d0) / w0, abs(d1) / w1, abs(d2) / w2)
            except OverflowError:
                # complex abs raises when the modulus overflows; reject the
                # step and shrink it
                r5 = r3 = math.inf
            den = r5 * r5 + 0.01 * r3 * r3
            # inf / inf is nan, which the test below rejects
            err = r5 * r5 / math.sqrt(den) if den else 0.0
            if err <= 1.0:
                accepted += 1
                leg_steps += 1
                last_step = h * abs(dt)
                min_step = min(min_step, last_step)
                s = 1.0 if last else s + h
                y0, y1, y2 = n0, n1, n2
                f = None
                t_node = b if last else a + s * dt
                res = scaled(t_node, y0, y1, y2)
                if not res <= tol:
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
            grow = 5.0 if err == 0 else 0.9 * err ** -0.125
            h *= min(5.0, max(0.2, grow))
            # the completed-leg dust step may legitimately leave h tiny
            if h < 1e-14 and s < 1.0:
                raise StepSizeUnderflowError(a + s * dt)
        proposed = h * abs(dt)

    return SigmaTrajectory(path=tuple(nodes), values=tuple(values),
                           curvatures=tuple(curvatures),
                           residuals=tuple(residuals), tolerance=tol,
                           accepted=accepted, rejected=rejected,
                           reprojected=reprojected, detours=detours,
                           min_step=min_step, params=params)


def tau_reconstruct(trajectory: SigmaTrajectory, value: complex) -> list:
    """Rebuild tau along the trajectory by log-integration from its first
    node, where tau = value.

    The sigma map of the trajectory's own family (trajectory.params) turns
    each node's (sigma, sigma', sigma'') into l1 = d/dt log tau, l2 = dl1/dt
    and l3 = dl2/dt, and each step h adds the two-point Hermite rule

        (h/2) (l1_i + l1_i+1) + (h^2/10) (l2_i - l2_i+1)
            + (h^3/120) (l3_i + l3_i+1),

    sixth order in h, onto log(value). The steps are the trajectory's own,
    detours included. Returns (t, tau) at every node.
    """
    amap = sigma_map(trajectory.params)
    ts = [complex(t) for t in trajectory.path]
    ls = [(t, *amap.log_derivatives(t, z, z1, z2))
          for t, (z, z1), z2 in zip(ts, trajectory.values,
                                    trajectory.curvatures)]
    value = complex(value)
    out = [(ts[0], value)]
    log_a = cmath.log(value)
    for (t0, f0, d0, g0), (t1, f1, d1, g1) in zip(ls, ls[1:]):
        h = t1 - t0
        log_a += (0.5 * h * (f0 + f1) + h * h / 10 * (d0 - d1)
                  + h * h * h / 120 * (g0 + g1))
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
