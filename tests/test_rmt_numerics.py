"""Tests for the independent numerical routes to the circular average.

Frozen reference values were computed beforehand with a 40-digit
arbitrary-precision oracle, independent of this implementation. Anchors
marked self-consistent were instead pinned from this module's own first
validated run and guard against regressions, not against the oracle.
High-|k| Fourier coefficients are checked against an mpmath reference at
test time (TestArbitraryPrecisionReference).
"""

import cmath
import itertools
import math
import warnings
from dataclasses import replace
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
import pytest

import taurmt.rmt_numerics as rmt
from taurmt.complexfn import barnes_prefactor
from taurmt.monodromy_vi import SSEParams
from taurmt.rmt_numerics import (
    BulkLimitResult,
    FredholmSpec,
    QuadratureError,
    WeightSpec,
    _CHUNK_ROWS,
    _arc_integrand,
    _HALF_PI,
    _arc_panels,
    _fill_powers,
    _gl_rule,
    _integrate_rows,
    _leg_integrand,
    _oracle_rule,
    _phase_table,
    _pivoted_cholesky,
    _quadrature_tables,
    _recurrence_tables,
    _sine_kernel_blocks,
    _table_parts,
    _ts_full_rule,
    _ts_new_nodes,
    _vandermonde_sum,
    bulk_limit_an,
    bulk_limit_grid,
    fourier_table,
    fredholm_grid,
    fredholm_log_derivatives,
    fredholm_log_derivatives_grid,
    fredholm_sine,
    quad_oracle_an,
    toeplitz_an,
    toeplitz_grid,
)

P_STD = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
T_STD = cmath.exp(0.4j)

# weight value at theta = 1 for the standard parameters, t = e^{0.4 i}
WEIGHT_AT_ONE = 1.8683268533353872

# Fourier coefficients of the standard weight at t = e^{0.4 i}
FOURIER_ANCHORS = {
    0: 1.1514360376225873 + 0.0j,
    1: 0.30487766494733149 - 0.22572132753792983j,
    2: -0.10733203845133471 + 0.0018203186779160358j,
    3: 0.042702214502256718 + 0.019976435143488441j,
}

TOEPLITZ_N2 = 1.1819044404467817
TOEPLITZ_N3 = 1.1724095563475107

# c_0 for mu = -0.35, omega_1 = -0.2, omega_2 = 0.1, xi* = 0.25 at
# t = e^{0.4 i}: both singular exponents negative, jump active
SINGULAR_C0 = 2.2200654356897543

FREDHOLM_T1 = 0.40008067911930694
LOGDERIV_T25 = -2.6052523522325730          # xi = 1
LOGDERIV_T4_XI_HALF = -0.43471763869592705  # xi = 0.5

# E(t) / (t^{-1/4} e^{-t^2/2}) at xi = 1
GAP_RATIO_ANCHORS = {
    2.5: 0.64899305736117768,
    3.0: 0.64767549121919019,
    3.5: 0.64689053910048254,
}

# self-consistent anchors (see module docstring)
SEGMENT_T0999 = 1.4087916619759626 - 0.0006027820741362145j
BULK_GENERIC_X_HALF = 1.0426414589149937 - 0.10209005284520646j


class TestWeightSpec:
    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            WeightSpec(P_STD, 0.0)

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            WeightSpec(P_STD, 1.5)

    @pytest.mark.parametrize("t", [
        -0.5, 0.7 * cmath.exp(0.5j), math.nan, complex(0.5, math.nan),
        -1e-200, complex(0.5, 1e-300)])
    def test_rejects_t_off_the_circle_and_the_segment(self, t):
        # the continuation is holomorphic in t only on the segment; a real
        # t shows as a float, and -1e-200 is off it before it is near 0
        shown = repr(t.real if isinstance(t, complex) and t.imag == 0
                     else t)
        with pytest.raises(ValueError) as exc:
            WeightSpec(P_STD, t)
        assert str(exc.value) == (
            f"off the unit circle t must lie in (0, 1), not t = {shown}: "
            f"the continued weight is not holomorphic in t there")

    def test_disc_refusal_comes_first(self):
        with pytest.raises(ValueError, match="closed unit disc"):
            WeightSpec(P_STD, -1.5)

    @pytest.mark.parametrize("t", [
        0.3, complex(0.3, -0.0), (1.0 - 5e-13) * T_STD, cmath.exp(-0.5 / 4),
        cmath.exp(2j / 8)])
    def test_accepts_the_circle_and_the_segment(self, t):
        # within 1e-12 of |t| = 1 is the circle phase() snaps; exp(-x/N)
        # at real and at imaginary x, as bulk_limit_grid forms it
        WeightSpec(P_STD, t)

    def test_phase_on_circle_is_exactly_real(self):
        phi = WeightSpec(P_STD, T_STD).phase()
        assert phi.imag == 0.0
        assert phi.real == pytest.approx(0.4, abs=1e-15)

    def test_phase_inside_disc(self):
        phi = WeightSpec(P_STD, 0.5).phase()
        assert phi.real == pytest.approx(0.0, abs=1e-15)
        assert phi.imag == pytest.approx(math.log(2.0), rel=1e-14)

    def test_phase_range(self):
        phi = WeightSpec(P_STD, cmath.exp(-0.3j)).phase()
        assert 0.0 <= phi.real < 2.0 * math.pi

    @pytest.mark.parametrize("t", [1.0, cmath.exp(1e-13j), cmath.exp(-1e-13j)])
    def test_rejects_merged_non_integrable_singularity(self, t):
        # each exponent of P_TWO_SINGULAR is integrable on its own, but at
        # t = 1 and at the wraps snapped onto the arc end they merge into
        # 2 mu + 2 omega_1 = -1.39
        with pytest.raises(ValueError, match="not integrable"):
            WeightSpec(P_TWO_SINGULAR, t)

    @pytest.mark.parametrize("t", [0.999, cmath.exp(1e-11j)])
    def test_unmerged_points_of_the_same_weight_accepted(self, t):
        # on the segment, or past the snap, the two points stay apart
        WeightSpec(P_TWO_SINGULAR, t)

    @pytest.mark.parametrize("change,t", [
        (dict(omega2=1e300), T_STD), (dict(omega2=300.0), T_STD),
        (dict(mu=700.0), T_STD), (dict(omega2=70j), 1e-5),
        (dict(omega1=-0.45, omega2=60.0), T_STD),
        # a short arc panel (width 2e-11) next to the arc end at -pi
        (dict(mu=0.0, omega1=-0.45, omega2=-44.3), cmath.exp(-2e-11j))])
    def test_rejects_a_weight_past_the_float_range(self, change, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                WeightSpec(replace(P_STD, **change), t)

    @pytest.mark.parametrize("change,t", [
        # pi * 225 = 706.9, just inside log(float max) = 709.8
        (dict(omega2=225.0), T_STD),
        # pi * 60 + 0.4 * (633.7 - ln 0.4) = 442.7 with the deepest node;
        # at 2 omega_1 = -0.9 it reaches 760.0 and is refused above
        (dict(omega1=-0.2, omega2=60.0), T_STD),
        # pi * 44.3 + 0.9 * 633.7 = 709.5 while every panel is longer than
        # 1; refused above next to a 2e-11 panel
        (dict(mu=0.0, omega1=-0.45, omega2=-44.3), cmath.exp(3j))])
    def test_weight_within_the_float_range_accepted(self, change, t):
        WeightSpec(replace(P_STD, **change), t)


def _lone(f):
    """The single row of a row-batched integrand, as f(d0, d1) ->
    (nodes, K)."""
    return lambda d0, d1: f(slice(0, 1), d0, d1)[0]


def _integrate_one(f, tol):
    """_integrate_rows on the single integrand f(d0, d1) -> (nodes, K):
    its (values, error), or its QuadratureError raised."""
    (row,) = _integrate_rows(lambda rows, d0, d1: f(d0, d1)[None], [tol])
    if isinstance(row, QuadratureError):
        raise row
    return row


def weight_eval(w: WeightSpec, theta: float) -> complex:
    """The weight fourier_table integrates, at a real angle theta, for t on
    the circle with a split arc: the arc panel holding theta, in the real
    arithmetic of a float phase, gives the weight itself, and the wrapped
    panel, the subtracted arc (pi - phi, pi), scales it by 1 - xi*."""
    phi = w.phase().real
    ks = np.zeros(1)
    for a, b, wrapped in _arc_panels(complex(phi)):
        if a < theta < b:
            f = _lone(_arc_integrand(w.p, [(phi, (a, b, wrapped))], ks))
            value = f(np.array([(theta - a) / (b - a)]),
                      np.array([(b - theta) / (b - a)]))[0, 0]
            if wrapped:
                value *= 1.0 - w.p.xi_star
    return complex(value)


class TestWeightEval:
    def test_unit_weight(self):
        p0 = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        w = WeightSpec(p0, T_STD)
        for th in (-3.0, -1.0, 0.0, 2.5):
            assert weight_eval(w, th) == 1.0

    def test_reference_value(self):
        got = weight_eval(WeightSpec(P_STD, T_STD), 1.0)
        assert abs(got - WEIGHT_AT_ONE) <= 1e-13

    def test_vanishing_rate_at_arc_end(self):
        # omega_1 > 0 makes the fixed singular point a zero of exponent
        # 2 omega_1; the jump factor cancels in the ratio
        w = WeightSpec(P_STD, T_STD)
        ratio = (weight_eval(w, math.pi - 1e-4)
                 / weight_eval(w, math.pi - 1e-8))
        assert abs(ratio - 1e4 ** (2 * 0.1)) <= 1e-3 * abs(ratio)

    def test_jump_factor_on_subtracted_arc(self):
        plain = replace(P_STD, xi_star=0.0)
        th = math.pi - 0.2   # inside (pi - 0.4, pi)
        ratio = (weight_eval(WeightSpec(P_STD, T_STD), th)
                 / weight_eval(WeightSpec(plain, T_STD), th))
        assert ratio == pytest.approx(0.5, rel=1e-14)

    def test_no_jump_outside_subtracted_arc(self):
        plain = replace(P_STD, xi_star=0.0)
        th = 1.0
        ratio = (weight_eval(WeightSpec(P_STD, T_STD), th)
                 / weight_eval(WeightSpec(plain, T_STD), th))
        assert ratio == pytest.approx(1.0, rel=1e-14)


class TestFourierCoefficients:
    def test_unit_weight_coefficients(self):
        p0 = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        c, _ = fourier_table(WeightSpec(p0, T_STD), 5)
        assert abs(c[5] - 1.0) <= 1e-13
        for k in (1, 2, 5):
            assert abs(c[5 + k]) <= 1e-13

    @pytest.mark.parametrize("k,ref", sorted(FOURIER_ANCHORS.items()))
    def test_reference_coefficients(self, k, ref):
        got = fourier_table(WeightSpec(P_STD, T_STD), 3)[0][3 + k]
        assert abs(got - ref) <= 1e-12

    def test_conjugate_symmetry_on_circle(self):
        # real parameters and |t| = 1 make the weight real, so
        # c_{-k} = conj(c_k)
        c, _ = fourier_table(WeightSpec(P_STD, T_STD), 3)
        for k in range(1, 4):
            assert abs(c[3 - k] - np.conj(c[3 + k])) <= 1e-13

    def test_table_matches_single_coefficients(self):
        # a coefficient does not depend on the width of its table
        w = WeightSpec(P_STD, T_STD)
        c, _ = fourier_table(w, 2)
        wide, _ = fourier_table(w, 6)
        for k in (-2, -1, 0, 1, 2):
            assert abs(c[2 + k] - wide[6 + k]) <= 1e-13

    def test_table_error_estimate(self):
        vals, err = fourier_table(WeightSpec(P_STD, T_STD), 1)
        assert vals.shape == (3,)
        assert 0.0 <= err <= 1e-10

    def test_negative_kmax_rejected(self):
        with pytest.raises(ValueError):
            fourier_table(WeightSpec(P_STD, T_STD), -1)

    def test_singular_weight_closed_form(self):
        # both exponents zero except 2 mu = -0.7: the mean of the weight
        # over the circle is Gamma(1 + s) / Gamma(1 + s/2)^2 at s = 2 mu
        p = SSEParams(N=1, mu=-0.35, omega1=0.0, omega2=0.0, xi_star=0.0)
        got = fourier_table(WeightSpec(p, T_STD), 0)[0][0]
        want = math.gamma(0.3) / math.gamma(0.65) ** 2
        assert abs(got - want) <= 1e-12

    def test_reference_singular_jump_weight(self):
        p = SSEParams(N=1, mu=-0.35, omega1=-0.2, omega2=0.1, xi_star=0.25)
        got = fourier_table(WeightSpec(p, T_STD), 0)[0][0]
        assert abs(got - SINGULAR_C0) <= 5e-12

    def test_near_nonintegrable_exponent_refuses(self):
        # 2 mu = -0.9996 decays too slowly for the node range; the
        # refinement must raise rather than return a deficient value
        p = SSEParams(N=1, mu=-0.4998, omega1=0.1, omega2=0.0, xi_star=0.0)
        with pytest.raises(QuadratureError) as exc:
            fourier_table(WeightSpec(p, T_STD), 0)
        assert exc.value.achieved > exc.value.target

    def test_deterministic(self):
        w = WeightSpec(P_STD, T_STD)
        a, a_err = fourier_table(w, 2)
        b, b_err = fourier_table(w, 2)
        assert np.array_equal(a, b) and a_err == b_err


def _level_by_level(f, tol, max_level=11, min_level=4):
    """Reference tanh-sinh refinement, one call of f per level (in chunks
    of _CHUNK_ROWS) and one on the two outermost nodes for the edge
    check. _integrate_rows must reproduce it bit for bit, row by row."""
    total = prev = None
    err = math.inf
    for level in range(max_level + 1):
        d0, d1, w = _ts_new_nodes(level)
        part = None
        for lo in range(0, len(w), _CHUNK_ROWS):
            sl = slice(lo, lo + _CHUNK_ROWS)
            block = w[sl] @ f(d0[sl], d1[sl])
            part = block if part is None else part + block
        total = part if total is None else total + part
        cur = (0.5 ** level) * total
        if prev is not None:
            err = float(np.max(np.abs(cur - prev)))
            if level >= min_level and err <= tol:
                ends = np.array([0, -1])
                edge = float(np.max(np.abs(
                    w[ends, None] * f(d0[ends], d1[ends]))))
                if edge > 1e3 * tol:
                    raise QuadratureError(
                        "endpoint decay too slow for the node range",
                        edge, tol)
                return cur, err
        prev = cur
    raise QuadratureError("tanh-sinh refinement stalled", err, tol)


def _outcome(integrate, f, tol):
    try:
        vals, err = integrate(f, tol)
    except QuadratureError as exc:
        return str(exc), exc.achieved
    return vals, err


def _counted(f):
    """f, and the list of node counts it is called with."""
    sizes = []

    def g(d0, d1):
        sizes.append(len(d0))
        return f(d0, d1)

    return g, sizes


def _power_integrand(a):
    return lambda d0, d1: (d0 ** a)[:, None]


def _cosine_summand(d0, d1):
    # tanh-sinh summand w f = 1 + cos(pi tau / 6) at the node's tau,
    # recovered from min/max = exp(-pi |sinh tau|); it vanishes at
    # tau = +-6, so every level sums to exactly 12
    lo, hi = np.minimum(d0, d1), np.maximum(d0, d1)
    tau = np.sign(d0 - d1) * np.arcsinh(-np.log(lo / hi) / math.pi)
    w = math.pi * np.cosh(tau) * d0 * d1
    return ((1.0 + np.cos(math.pi * tau / 6.0)) / w)[:, None]


def _quadrature_parts(t, kmax):
    """The integrands _quadrature_tables integrates: on a split circle the
    two arc panels in real arithmetic, elsewhere the arcs, then the leg."""
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    phi = WeightSpec(P_STD, t).phase()
    panels = _arc_panels(phi)
    if phi.imag == 0.0 and len(panels) == 2:
        return [("real arc", _lone(_arc_integrand(P_STD, [(phi.real, panel)],
                                                  ks)))
                for panel in panels]
    parts = [("arc", _lone(_arc_integrand(P_STD, [(phi, panel)], ks)))
             for panel in panels]
    return parts + [("leg", _lone(_leg_integrand(P_STD, [phi], ks)))]


class TestTanhSinhRule:

    @pytest.mark.parametrize("a,calls,ref_calls", [
        (-0.9, [193], 6),                                   # level 4
        (-0.955, [193, 192, 384, 768], 9),                  # level 7
        (-0.96, [193, 192, 384, 768, 1536, 3072, 6144,
                 _CHUNK_ROWS, 12288 - _CHUNK_ROWS], 13),    # stalls
    ])
    def test_levels_0_to_4_take_one_call(self, a, calls, ref_calls):
        # d0^a at tol 1e-12: levels 0-4 are 13 + 12 + 24 + 48 + 96 = 193
        # nodes, sampled in one call, and the edge is read from the
        # samples of the level that converged; the level-by-level rule
        # makes ref_calls calls, its 2-node edge call included, for the
        # same answer
        f, sizes = _counted(_power_integrand(a))
        ref, ref_sizes = _counted(_power_integrand(a))
        got = _outcome(_integrate_one, f, 1e-12)
        want = _outcome(_level_by_level, ref, 1e-12)
        assert sizes == calls
        assert len(ref_sizes) == ref_calls
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_endpoint_decay_at_the_head(self):
        # converges at level 4 with the outermost new node's summand
        # 1 + cos(pi 95/96) = 5.35e-4 still on the edge: refused from the
        # head's own samples, with no further call of f
        f, sizes = _counted(_cosine_summand)
        with pytest.raises(QuadratureError,
                           match="endpoint decay too slow") as exc:
            _integrate_one(f, 1e-10)
        assert sizes == [193]
        assert exc.value.achieved == pytest.approx(5.354e-4, rel=1e-3)
        with pytest.raises(QuadratureError) as ref:
            _level_by_level(_cosine_summand, 1e-10)
        assert exc.value.achieved == ref.value.achieved

    @pytest.mark.parametrize("tol", [1e-6, 1e-13])
    @pytest.mark.parametrize("kmax", [1, 40])
    @pytest.mark.parametrize("t", [T_STD, 0.95, cmath.exp(-1e-13j)])
    def test_bit_identical_to_level_by_level(self, t, kmax, tol):
        for kind, f in _quadrature_parts(t, kmax):
            got = _outcome(_integrate_one, f, tol)
            want = _outcome(_level_by_level, f, tol)
            assert np.array_equal(got[0], want[0]), kind
            assert got[1] == want[1], kind

    def test_full_rule_concatenates_the_levels(self):
        d0, d1, w, slices = _ts_full_rule(5)
        assert slices[0].start == 0 and slices[-1].stop == len(w)
        for k, sl in enumerate(slices):
            n0, n1, nw = _ts_new_nodes(k)
            assert np.array_equal(d0[sl], n0) and np.array_equal(d1[sl], n1)
            assert np.array_equal(w[sl], nw * 0.5 ** 5)

    @pytest.mark.parametrize("arrays", [
        _ts_new_nodes(3), _ts_full_rule(4)[:3], _gl_rule(12)],
        ids=["new_nodes", "full_rule", "gauss_legendre"])
    def test_cached_rules_are_read_only(self, arrays):
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.5


def _pure_jump_coeffs(xi: float, phi: complex, kmax: int) -> np.ndarray:
    # unit weight minus xi on the arc (pi - phi, pi), continued in phi:
    # c_0 = 1 - xi phi / 2 pi, c_k = -xi/(2 pi) e^{-ik pi}(e^{ik phi} - 1)/(ik)
    ks = np.arange(-kmax, kmax + 1)
    c = np.empty(ks.shape, dtype=complex)
    nz = ks != 0
    k = ks[nz]
    c[nz] = (-xi / (2 * math.pi) * np.exp(-1j * math.pi * k)
             * (np.exp(1j * k * phi) - 1.0) / (1j * k))
    c[~nz] = 1.0 - xi * phi / (2 * math.pi)
    return c


class TestFourierClosedFormsHighK:
    """Closed forms out to the kmax the N = 64 Toeplitz route needs."""

    @pytest.mark.parametrize("leg", [False, True])
    @pytest.mark.parametrize("ks", [np.arange(-63.0, 64.0), np.arange(-40.0, 1.0)])
    def test_phase_table_matches_exponentials(self, leg, ks):
        # reference: one complex exponential per entry; both sides round
        # at most ~|k| pi ulps, so agreement to 1e-13 relative
        rng = np.random.default_rng(3)
        theta = rng.uniform(-math.pi, math.pi, 200)
        if leg:
            theta = math.pi - rng.uniform(0.0, 1.0, 200) * (0.9 + 0.1j)
        vals = rng.normal(size=200) + 1j * rng.normal(size=200)
        got = _phase_table(vals, theta, ks)
        want = vals[:, None] * np.exp(-1j * np.outer(theta, ks))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    @pytest.mark.parametrize("omega1", [0.35, -0.3, 0.9])
    def test_root_singularity(self, omega1):
        # |2 cos(theta/2)|^{2 omega1} alone:
        # c_k = Gamma(1 + 2 w) / (Gamma(1 + w + k) Gamma(1 + w - k))
        kmax = 63
        p = SSEParams(N=1, mu=0.0, omega1=omega1, omega2=0.0, xi_star=0.0)
        got, _ = fourier_table(WeightSpec(p, T_STD), kmax)
        want = [math.gamma(1 + 2 * omega1)
                / (math.gamma(1 + omega1 + k) * math.gamma(1 + omega1 - k))
                for k in range(-kmax, kmax + 1)]
        assert np.max(np.abs(got - np.array(want))) <= 1e-13

    @pytest.mark.parametrize("t,kmax", [
        (cmath.exp(2j), 63),
        (0.9, 24),
        (0.8, 16),
    ])
    def test_pure_jump(self, t, kmax):
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.7)
        w = WeightSpec(p, t)
        got, _ = fourier_table(w, kmax)
        want = _pure_jump_coeffs(0.7, w.phase(), kmax)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("t", [T_STD, 0.9])
    def test_single_coefficient_matches_table_ends(self, t):
        kmax = 63
        w = WeightSpec(P_STD, t)
        c, _ = fourier_table(w, kmax)
        wide, _ = fourier_table(w, kmax + 1)
        assert abs(wide[-2] - c[-1]) <= 1e-13
        assert abs(wide[1] - c[0]) <= 1e-13


def _recurrence_rows(p: SSEParams, t: complex, ks):
    """(alpha, beta, gamma) of alpha c_k + beta c_{k-1} + gamma c_{k-2} = 0,
    written out here from z(1+z)(1+tz) w'/w, apart from the library."""
    mu, om1, om2 = complex(p.mu), complex(p.omega1), complex(p.omega2)
    a0 = -1j * om2 - om1 - mu
    a1 = -1j * om2 * (1 + t) + om1 * (1 - t) + mu * (t - 1)
    a2 = t * (-1j * om2 + om1 + mu)
    return ks - a0, (1 + t) * (ks - 1) - a1, t * (ks - 2) - a2


def _row_residuals(w: WeightSpec, c: np.ndarray) -> np.ndarray:
    """Residual of each recurrence row over a table, in units of c: every
    row divided by its largest coefficient."""
    kmax = len(c) // 2
    t = cmath.exp(1j * w.phase())
    alpha, beta, gamma = _recurrence_rows(w.p, t,
                                          np.arange(2 - kmax, kmax + 1))
    res = alpha * c[2:] + beta * c[1:-1] + gamma * c[:-2]
    size = np.maximum(np.abs(alpha), np.maximum(np.abs(beta), np.abs(gamma)))
    return np.abs(res) / size


def _unguarded_recurrence(w: WeightSpec, seeds, kmax: int) -> np.ndarray:
    """The table the recurrence gives from c_{-1}, c_0, c_1, with no guard."""
    t = cmath.exp(1j * w.phase())
    c = dict(zip((-1, 0, 1), seeds))
    for k in range(2, kmax + 1):
        a, b, g = _recurrence_rows(w.p, t, k)
        c[k] = -(b * c[k - 1] + g * c[k - 2]) / a
    for k in range(0, 1 - kmax, -1):
        a, b, g = _recurrence_rows(w.p, t, k)
        c[k - 2] = -(a * c[k] + b * c[k - 1]) / g
    return np.array([c[k] for k in range(-kmax, kmax + 1)])


def _coefficient_gate(ref: np.ndarray, tol: float = 1e-12) -> float:
    return max(tol, 1e-13 * float(np.max(np.abs(ref))))


P_COMPLEX_MU = SSEParams(N=1, mu=0.2 + 0.15j, omega1=0.1, omega2=0.3)


# A scalar two-loop reference for _march_rows: the march, then the
# amplification, over the same steps in Python's complex arithmetic. The
# lockstep's numpy arithmetic rounds differently in the last bit, so its
# values are held to the rounding allowance and its scale and
# amplification to 1e-13 relative.
def _two_loop_march(far, near, steps):
    vals = []
    scale = 0.0
    for f1, f2 in steps:
        a, b = f1 * near, f2 * far
        far, near = near, a + b
        scale += abs(a) + abs(b)
        vals.append(near)
    return vals, scale


def _step_list(coeffs, ks):
    """The (f1, f2) of each step of a march over the orders ks, built from
    the recurrence's coefficients as one list before the march."""
    t, t1, a0, a1, a2 = coeffs
    rows = [(k - a0, t1 * (k - 1) - a1, t * (k - 2) - a2) for k in ks]
    if ks.step > 0:
        return [(-b / a, -g / a) for a, b, g in rows]
    return [(-b / g, -a / g) for a, b, g in rows]


def _two_loop_amplification(steps) -> float:
    uf, un, vf, vn = 1.0, 0.0, 0.0, 1.0
    amp = 1.0
    for f1, f2 in steps:
        uf, un = un, f1 * un + f2 * uf
        vf, vn = vn, f1 * vn + f2 * vf
        amp = max(amp, abs(un) + abs(vn))
    return amp


def _random_weight(rng) -> SSEParams:
    return SSEParams(N=1, mu=complex(rng.uniform(-0.45, 1.0),
                                     rng.uniform(-0.3, 0.3)),
                     omega1=rng.uniform(-0.45, 1.0),
                     omega2=complex(rng.uniform(-1.0, 1.0),
                                    rng.uniform(-0.3, 0.3)),
                     xi_star=rng.uniform(0.0, 1.0))


class TestThreeTermRecurrence:
    """c_k from three quadrature seeds and the weight's recurrence, checked
    against the full quadrature table (_quadrature_tables), which fills
    every column by tanh-sinh and stays the reference."""

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("t", [cmath.exp(0.4j), cmath.exp(3.0j),
                                   cmath.exp(5.9j), 0.8, 0.95])
    def test_quadrature_tables_satisfy_the_identity(self, xi, t):
        # independent of the recurrence code. The quadrature's accuracy is
        # absolute, so a table whose coefficients cancel below 1 (xi* = 1
        # nearly empties the circle at phi = 5.9) is held at that level
        w = WeightSpec(replace(P_COMPLEX_MU, xi_star=xi), t)
        c, _ = _quadrature_tables(w.p, [w.phase()], 40, 1e-12)[0]
        scale = max(float(np.max(np.abs(c))), 1.0)
        assert np.max(_row_residuals(w, c)) <= 5e-13 * scale

    @pytest.mark.parametrize("p,phi", [
        (P_STD, 0.4),
        (replace(P_COMPLEX_MU, xi_star=1.0), 3.0),
        (replace(P_COMPLEX_MU, xi_star=0.5, omega1=-0.3), 1e-6),
        (replace(P_COMPLEX_MU, xi_star=0.5, omega1=-0.3), 0.01),
        (replace(P_COMPLEX_MU, xi_star=0.5), 2 * math.pi - 0.01),
        (replace(P_COMPLEX_MU, xi_star=0.0), 2 * math.pi - 1e-6),
        (SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=1.0), 1.0),
        (SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.3), 5.0),
    ])
    def test_circle_matches_quadrature(self, p, phi):
        w = WeightSpec(p, cmath.exp(1j * phi))
        ref, _ = _quadrature_tables(w.p, [w.phase()], 63, 1e-12)[0]
        got = _recurrence_tables(w.p, [w], [63], 1e-12)[0]
        assert got is not None
        assert np.max(np.abs(got[0] - ref)) <= _coefficient_gate(ref)
        assert np.array_equal(fourier_table(w, 63)[0], got[0])

    def test_gap_point_matches_closed_form(self):
        # mu = omega1 = omega2 = 0: the pure jump, c_k in closed form
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=1.0)
        w = WeightSpec(p, cmath.exp(2.3j))
        got = _recurrence_tables(w.p, [w], [63], 1e-12)[0]
        assert got is not None
        want = _pure_jump_coeffs(1.0, w.phase(), 63)
        assert np.max(np.abs(got[0] - want)) <= 1e-13

    def test_real_segment_near_one_recurs(self):
        w = WeightSpec(replace(P_COMPLEX_MU, xi_star=0.5), 0.95)
        ref, _ = _quadrature_tables(w.p, [w.phase()], 31, 1e-12)[0]
        got = _recurrence_tables(w.p, [w], [31], 1e-12)[0]
        assert got is not None
        assert np.max(np.abs(got[0] - ref)) <= _coefficient_gate(ref)

    def test_guard_fires_on_the_real_segment(self):
        # t = 0.3: the backward direction grows the seeds' error like
        # t^{-|k|}, far past tol, so the whole table stays quadrature
        w = WeightSpec(replace(P_COMPLEX_MU, xi_star=0.0), 0.3)
        ref, _ = _quadrature_tables(w.p, [w.phase()], 31, 1e-12)[0]
        assert _recurrence_tables(w.p, [w], [31], 1e-12)[0] is None
        assert np.array_equal(fourier_table(w, 31)[0], ref)
        unguarded = _unguarded_recurrence(w, ref[30:33], 31)
        assert np.max(np.abs(unguarded[32:] - ref[32:])) <= 1e-13
        assert np.max(np.abs(unguarded - ref)) > 1e-6

    def test_interior_complex_t_is_refused(self):
        # the wrap angle pi - Re phi lands inside the arc, where the
        # continued weight jumps: it is analytic along rays but not in t,
        # so no route takes such a t, and no table is formed
        p = replace(P_COMPLEX_MU, N=21, xi_star=0.5)
        t = 0.7 * cmath.exp(0.5j)
        with pytest.raises(ValueError, match="not holomorphic in t"):
            WeightSpec(p, t)
        with pytest.raises(ValueError, match="not holomorphic in t"):
            toeplitz_an(p, t)
        assert rmt._recurrence_steps(WeightSpec(p, 0.7)) is not None

    def test_vanishing_leading_coefficient_keeps_quadrature(self):
        # omega2 = 3i makes the weight e^{3i theta}: a0 = 3, so the row at
        # k = 3 cannot give c_3, which is 1
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=3j, xi_star=0.0)
        w = WeightSpec(p, cmath.exp(1.0j))
        assert _recurrence_tables(w.p, [w], [5], 1e-12)[0] is None
        c, _ = fourier_table(w, 5)
        assert abs(c[8] - 1.0) <= 1e-13
        assert np.max(np.abs(np.delete(c, 8))) <= 1e-13
        # in a grid the seeds are made, the march stops at k = 3, and each
        # t takes its own full quadrature
        q, ts = replace(p, N=6), [cmath.exp(0.5j), cmath.exp(1.0j)]
        idx = 5 + np.subtract.outer(np.arange(6), np.arange(6))
        want = [complex(np.linalg.det(_quadrature_tables(
                       q, [WeightSpec(q, t).phase()], 5, 1e-12)[0][0][idx]))
                for t in ts]
        assert toeplitz_grid(q, ts) == want

    @pytest.mark.parametrize("path", ["circle", "real"])
    def test_march_measures_the_two_loop_amplification(self, path):
        rng = np.random.default_rng(11 if path == "circle" else 12)
        for _ in range(40):
            t = (cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
                 if path == "circle" else rng.uniform(0.05, 0.999))
            w = WeightSpec(_random_weight(rng), t)
            kmax = int(rng.integers(2, 64))
            coeffs = rmt._recurrence_steps(w)
            seeds = rng.normal(size=3) + 1j * rng.normal(size=3)
            (table,), (scale,), (amp,) = rmt._march_rows([seeds], [coeffs],
                                                         [kmax])
            want, want_scale, want_amp = [], 0.0, 1.0
            for ks, near in ((range(2, kmax + 1), seeds[2]),
                             (range(0, 1 - kmax, -1), seeds[0])):
                direction = _step_list(coeffs, ks)
                vals, part = _two_loop_march(complex(seeds[1]),
                                             complex(near), direction)
                want.append(vals)
                want_scale += part
                want_amp = max(want_amp, _two_loop_amplification(direction))
            want = np.array(want[1][::-1] + list(seeds) + want[0])
            assert np.max(np.abs(table - want)) <= 4 * rmt._EPS * amp * scale
            assert abs(scale - want_scale) <= 1e-13 * want_scale
            assert abs(amp - want_amp) <= 1e-13 * want_amp

    def test_lockstep_rows_keep_their_bits(self):
        # each row of a batch of mixed circle and segment t is the bits of
        # its one-row march: table, scale and amplification
        rng = np.random.default_rng(13)
        for _ in range(12):
            p = _random_weight(rng)
            kmax = int(rng.integers(2, 64))
            ts = [cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
                  if rng.random() < 0.5 else rng.uniform(0.05, 0.999)
                  for _ in range(int(rng.integers(1, 31)))]
            coeffs = [rmt._recurrence_steps(WeightSpec(p, t)) for t in ts]
            seeds = rng.normal(size=(len(ts), 3)) * np.exp(
                1j * rng.uniform(0, 2 * math.pi, size=(len(ts), 3)))
            batch = rmt._march_rows(seeds, coeffs, [kmax] * len(ts))
            for row, (s, c) in enumerate(zip(seeds, coeffs)):
                alone = rmt._march_rows([s], [c], [kmax])
                for got, want in zip(batch, alone):
                    assert got[row].tobytes() == want[0].tobytes()

    def test_rows_at_their_own_kmax_keep_their_bits(self):
        # rows marched together to the largest kmax each read their table,
        # scale and amplification at their own kmax: the bits of the row
        # marched alone. omega2 = 4i makes the forward leading coefficient
        # vanish at k = 4, past the kmax = 3 of the first row, which must
        # not be stopped by it; the second row reaches it and is
        rng = np.random.default_rng(14)
        stall = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=4j)
        rows = [(stall, cmath.exp(1.0j), 3), (stall, cmath.exp(1.0j), 6)]
        for _ in range(10):
            t = (cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
                 if rng.random() < 0.5 else rng.uniform(0.05, 0.999))
            rows.append((_random_weight(rng), t, int(rng.integers(2, 64))))
        coeffs = [rmt._recurrence_steps(WeightSpec(p, t)) for p, t, _ in rows]
        kmaxes = [k for _, _, k in rows]
        seeds = rng.normal(size=(len(rows), 3)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, size=(len(rows), 3)))
        batch = rmt._march_rows(seeds, coeffs, kmaxes)
        for row, (s, c, k) in enumerate(zip(seeds, coeffs, kmaxes)):
            alone = rmt._march_rows([s], [c], [k])
            assert len(batch[0][row]) == 2 * k + 1
            for got, want in zip(batch, alone):
                assert got[row].tobytes() == want[0].tobytes()
        amp = batch[2]
        assert math.isfinite(amp[0]) and amp[1] == math.inf

    @pytest.mark.parametrize("kmax", [0, 1])
    def test_small_tables_are_pure_quadrature(self, kmax):
        w = WeightSpec(P_STD, T_STD)
        ref, err = _quadrature_tables(w.p, [w.phase()], kmax, 1e-12)[0]
        vals, got_err = fourier_table(w, kmax)
        assert np.array_equal(vals, ref) and got_err == err

    def test_error_estimate_covers_the_seeds(self):
        w = WeightSpec(P_STD, T_STD)
        _, seed_err = _quadrature_tables(w.p, [w.phase()], 1, 1e-12)[0]
        vals, err = fourier_table(w, 40)
        ref, _ = _quadrature_tables(w.p, [w.phase()], 40, 1e-12)[0]
        assert seed_err <= err <= 1e-12
        assert np.max(np.abs(vals - ref)) <= _coefficient_gate(ref)


# An arbitrary-precision reference. mpmath's tanh-sinh integrates each half
# of each arc panel from its singular end. A plain mp.quad over the panels
# misses the integrable tail next to a singular point, below its node
# spacing at the working precision: about 1e-3 at 2 mu = -0.87, while it
# estimates 2e-4. Here every node carries its exact distance s to the
# singular end, so 2 sin(s/2) keeps full relative precision however small
# s gets, and s = u^{1/(1+a)}, a the real part of the exponent there, turns
# s^a ds into a bounded integrand in u. Each reference value asserts its
# own error estimate.

REFERENCE_DPS = 20
REFERENCE_ERR = 1e-18


def mp_coefficient(p: SSEParams, phi: float, k: int, pieces: int = 2):
    """c_k of the weight on the circle t = e^{i phi}, 0 < phi < 2 pi, with
    mpmath's error estimate: (value, error)."""
    with mp.workdps(REFERENCE_DPS):
        mu, omega1, omega2, xi, phi = (
            mp.mpmathify(complex(v))
            for v in (p.mu, p.omega1, p.omega2, p.xi_star, phi))
        phi = mp.re(phi)
        star = mp.pi - phi
        long_half, short_half = (mp.pi + star) / 2, phi / 2
        # (anchor, direction, half length, singular point at the anchor,
        # jump factor); the singular point at the far end of the panel is
        # 2 * half - s away
        halves = [(-mp.pi, 1, long_half, "fixed", 1),
                  (star, -1, long_half, "moving", 1),
                  (star, 1, short_half, "moving", 1 - xi),
                  (mp.pi, -1, short_half, "fixed", 1 - xi)]
        total, err = mp.mpc(0), mp.mpf(0)
        for anchor, sign, half, at, jump in halves:
            a = mp.re(2 * (omega1 if at == "fixed" else mu))

            def integrand(u, anchor=anchor, sign=sign, half=half, at=at,
                          jump=jump, a=a):
                if u == 0:
                    return mp.mpc(0)
                s = u ** (1 / (1 + a))
                far = 2 * half - s
                d_fixed, d_moving = (s, far) if at == "fixed" else (far, s)
                theta = anchor + sign * s
                value = (mp.exp((omega2 - 1j * k) * theta)
                         * (2 * mp.sin(d_fixed / 2)) ** (2 * omega1)
                         * (2 * mp.sin(d_moving / 2)) ** (2 * mu))
                return jump * value * s / ((1 + a) * u)

            cuts = [(half * j / pieces) ** (1 + a) for j in range(pieces + 1)]
            v, e = mp.quad(integrand, cuts, error=True)
            total += v
            err += e
        return complex(total / (2 * mp.pi)), float(err / (2 * mp.pi))


# two singular points 0.062 apart, both exponents negative, and the jump
P_TWO_SINGULAR = SSEParams(N=1, mu=-0.435, omega1=-0.26, omega2=0.3,
                           xi_star=0.5)
PHI_TWO_SINGULAR = 0.062


class TestArbitraryPrecisionReference:
    """mp_coefficient first against the gamma closed form, then against
    high-|k| columns of the recurred and the quadrature tables."""

    @pytest.mark.parametrize("omega1,k", [(0.35, 63), (-0.3, -63)])
    def test_reproduces_root_singularity(self, omega1, k):
        # the weight of test_root_singularity; phi only places a panel cut
        p = SSEParams(N=1, mu=0.0, omega1=omega1, omega2=0.0, xi_star=0.0)
        got, err = mp_coefficient(p, 0.4, k)
        assert err <= REFERENCE_ERR
        with mp.workdps(30):
            w = mp.mpf(omega1)
            want = complex(mp.gamma(1 + 2 * w)
                           / (mp.gamma(1 + w + k) * mp.gamma(1 + w - k)))
        assert abs(got - want) <= 1e-18

    @pytest.mark.parametrize("k", [-63, 63])
    def test_two_singular_points_high_k(self, k):
        # the recurred and the quadrature tables differ by up to 7e-13
        # here (max|c| = 16.7); the reference holds both within the gate.
        # fourier_table itself returns the quadrature table: the rounding
        # allowance of the recurrence exceeds tol at this amplification
        w = WeightSpec(P_TWO_SINGULAR, cmath.exp(1j * PHI_TWO_SINGULAR))
        quad, _ = _quadrature_tables(w.p, [w.phase()], 63, 1e-12)[0]
        recurred = _unguarded_recurrence(w, quad[62:65], 63)
        want, err = mp_coefficient(P_TWO_SINGULAR, PHI_TWO_SINGULAR, k)
        assert err <= REFERENCE_ERR
        assert abs(recurred[63 + k] - want) <= _coefficient_gate(quad)
        assert abs(quad[63 + k] - want) <= _coefficient_gate(quad)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the full quadrature pass leaves its own rounding out "
        "of the error it reports, 2.8e-14 here against columns 3.0e-13 off "
        "the reference"))
    @pytest.mark.parametrize("k", [-63, 63])
    def test_quadrature_table_within_its_error_estimate(self, k):
        w = WeightSpec(P_TWO_SINGULAR, cmath.exp(1j * PHI_TWO_SINGULAR))
        quad, achieved = _quadrature_tables(w.p, [w.phase()], 63, 1e-12)[0]
        want, err = mp_coefficient(P_TWO_SINGULAR, PHI_TWO_SINGULAR, k)
        assert err <= REFERENCE_ERR
        assert abs(quad[63 + k] - want) <= achieved

    def test_recurred_table_within_its_error_estimate(self):
        p = SSEParams(N=1, mu=0.2 + 0.15j, omega1=-0.3, omega2=0.3,
                      xi_star=0.5)
        w = WeightSpec(p, cmath.exp(2.0j))
        got = _recurrence_tables(w.p, [w], [63], 1e-12)[0]
        assert got is not None
        vals, est = got
        assert est <= 1e-12
        want, err = mp_coefficient(p, 2.0, -63)
        assert err <= REFERENCE_ERR
        assert abs(vals[0] - want) <= est

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (ROADMAP item 8): the rounding allowance of the "
        "recurrence, 4 eps times the amplification times the summed step "
        "magnitudes, reads 1.31e-12 here and refuses a table 4.5e-14 off "
        "the full quadrature (whose own estimate is 7.3e-15); the march "
        "now carries the unit solutions u and v, where a Green's-function "
        "bound would be formed"))
    def test_recurred_table_accepted_where_it_meets_tol(self):
        p = SSEParams(N=41, mu=0.847751 + 0.0273282j, omega1=-0.445827,
                      omega2=-0.326855, xi_star=0.276952)
        w = WeightSpec(p, cmath.exp(2.2j))
        got = _recurrence_tables(w.p, [w], [40], 1e-12)[0]
        assert got is not None
        ref, _ = _quadrature_tables(w.p, [w.phase()], 40, 1e-12)[0]
        assert np.max(np.abs(got[0] - ref)) <= 1e-12


@pytest.mark.parametrize("path", ["circle", "real"])
def test_rounding_allowance_covers_a_40_digit_march(path):
    # the lockstep's own double factors, converted exactly, marched in 40
    # digits from the same quadrature seeds: every table's rounding stays
    # within the 4 eps amplification times scale its estimate adds (the
    # worst table reads 0.29 of it)
    rng = np.random.default_rng(21 if path == "circle" else 22)
    for _ in range(40):
        t = (cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
             if path == "circle" else rng.uniform(0.9, 0.999))
        w = WeightSpec(_random_weight(rng), t)
        kmax = int(rng.integers(2, 64))
        coeffs = rmt._recurrence_steps(w)
        seeds, _ = _quadrature_tables(w.p, [w.phase()], 1, 1e-10)[0]
        (table,), (scale,), (amp,) = rmt._march_rows([seeds], [coeffs],
                                                     [kmax])
        factors = rmt._step_factors([coeffs], kmax)
        want = []
        with mp.workdps(40):
            for column, start in ((0, seeds[2]), (1, seeds[0])):
                far, near = mp.mpc(seeds[1]), mp.mpc(start)
                vals = []
                for f2, f1 in factors[:, :, column]:
                    far, near = near, mp.mpc(f1) * near + mp.mpc(f2) * far
                    vals.append(complex(near))
                want.append(vals)
        want = np.array(want[1][::-1] + list(seeds) + want[0])
        assert np.max(np.abs(table - want)) <= 4 * rmt._EPS * amp * scale


# The per-panel quadrature pass as it was before panels were batched into
# rows: one integrand closure per panel, sampled on levels 0-4 in one call
# and summed level by level, and the panels summed in order. On a split
# circle the wrapped panel is the subtracted arc, scaled by 1 - xi*, and
# both panels run in real arithmetic; elsewhere the arc panels are
# complex and the subtracted arc is a leg. The row-batched pass
# (_quadrature_tables) must reproduce it bit for bit.


def _per_panel_phase_table(vals, theta, ks):
    z = np.exp(-1j * theta)
    zinv = np.exp(1j * theta) if np.iscomplexobj(theta) else z.conj()
    j0 = int(np.argmin(np.abs(ks)))
    table = np.empty((len(ks), len(theta)), dtype=complex)
    table[j0] = vals
    _fill_powers(table[j0:], z)
    _fill_powers(table[j0::-1], zinv)
    return table.T


def _per_panel_arc(p, phi, panel, ks):
    a, b, wrapped = panel
    width = b - a
    gap_pi = math.pi - b
    gap_mpi = a + math.pi
    re_phi = phi.real
    # a float phase is a split circle panel: no imaginary offset, so zeta
    # and both logs are real
    shift = 0.0 if isinstance(phi, float) else 1j * phi.imag
    two_w1 = 2.0 * p.omega1
    two_mu = 2.0 * p.mu
    om2 = p.omega2

    def f(d0, d1):
        da = width * d0
        db = width * d1
        theta = a + da
        dist_pi = db + gap_pi
        dist_mpi = da + gap_mpi
        base1 = 2.0 * np.sin(0.5 * np.minimum(dist_pi, dist_mpi))
        if wrapped:
            prim = 0.5 * (da + shift)
            alt = 0.5 * ((dist_pi + (2.0 * math.pi - re_phi)) - shift)
        else:
            prim = 0.5 * (db - shift)
            alt = 0.5 * ((dist_mpi + re_phi) + shift)
        zeta = np.where(prim.real > 0.5 * math.pi, alt, prim)
        base2 = 2.0 * np.sin(zeta)
        logw = om2 * theta + two_w1 * np.log(base1) + two_mu * np.log(base2)
        return _per_panel_phase_table(np.exp(logw), theta, ks)

    return f


def _per_panel_leg(p, phi, ks):
    two_w1 = 2.0 * p.omega1
    two_mu = 2.0 * p.mu
    om2 = p.omega2

    def f(d0, d1):
        theta = math.pi - d1 * phi
        base1 = 2.0 * np.sin((0.5 * d1) * phi)
        base2 = 2.0 * np.sin((0.5 * d0) * phi)
        logw = om2 * theta + two_w1 * np.log(base1) + two_mu * np.log(base2)
        return _per_panel_phase_table(np.exp(logw), theta, ks)

    return f


def _per_panel_integrate(f, tol):
    d0, d1, _, slices = _ts_full_rule(4)
    head = f(d0, d1)
    ends = np.array([0, -1])
    total = None
    prev = None
    err = math.inf
    for level in range(12):
        d0, d1, w = _ts_new_nodes(level)
        if level <= 4:
            part = w @ head[slices[level]]
        else:
            part = None
            for lo in range(0, len(w), _CHUNK_ROWS):
                sl = slice(lo, lo + _CHUNK_ROWS)
                block = w[sl] @ f(d0[sl], d1[sl])
                part = block if part is None else part + block
        total = part if total is None else total + part
        cur = (0.5 ** level) * total
        if level >= 4:
            err = float(np.max(np.abs(cur - prev)))
            floor = np.finfo(float).eps * np.max(np.abs(cur))
            if not err <= tol and rmt._ROUNDOFF_MARGIN * tol < floor:
                raise QuadratureError(
                    "tanh-sinh refinement stalled below the rounding floor",
                    err, tol)
            if err <= tol:
                if level == 4:
                    rows = head[slices[level]][ends]
                else:
                    rows = f(d0[ends], d1[ends])
                edge = float(np.max(np.abs(w[ends, None] * rows)))
                if edge > 1e3 * tol:
                    raise QuadratureError(
                        "endpoint decay too slow for the node range",
                        edge, tol)
                return cur, err
        prev = cur
    raise QuadratureError("tanh-sinh refinement stalled", err, tol)


def _per_panel_quadrature_table(p, phi, kmax, tol):
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    xi = complex(p.xi_star)
    panels = _arc_panels(phi)
    parts = []
    if phi.imag == 0.0 and len(panels) == 2:
        for panel in panels:
            scale = (panel[1] - panel[0]) / (2.0 * math.pi)
            if panel[2]:
                if xi == 1:
                    continue
                scale = (1.0 - xi) * scale
            parts.append((scale, _per_panel_arc(p, phi.real, panel, ks)))
    else:
        for panel in panels:
            scale = complex((panel[1] - panel[0]) / (2.0 * math.pi))
            parts.append((scale, _per_panel_arc(p, phi, panel, ks)))
        if xi != 0 and phi != 0:
            scale = -xi * phi / (2.0 * math.pi)
            parts.append((scale, _per_panel_leg(p, phi, ks)))
    total = np.zeros(ks.shape, dtype=complex)
    achieved = 0.0
    inner = tol / len(parts)
    for scale, f in parts:
        vals, err = _per_panel_integrate(f, inner / max(abs(scale), 1e-3))
        total = total + scale * vals
        achieved += abs(scale) * err
    return total, achieved


def _table_outcome(table):
    """A table's bytes and error estimate, or its QuadratureError's text:
    table is a finished table of _quadrature_tables, or a callable that
    returns one or raises."""
    if callable(table):
        try:
            table = table()
        except QuadratureError as exc:
            table = exc
    if isinstance(table, QuadratureError):
        return str(table)
    vals, err = table
    return vals.tobytes(), err


def _levels_asked(monkeypatch):
    """The tanh-sinh levels past the head asked of _ts_new_nodes from now
    on, one entry per level of each lockstep that refines."""
    asked = []
    new_nodes = rmt._ts_new_nodes

    def counted(level):
        if level > rmt._TS_MIN_LEVEL:
            asked.append(level)
        return new_nodes(level)

    monkeypatch.setattr(rmt, "_ts_new_nodes", counted)
    return asked


# 2 mu = -0.96 decays too slowly for the node range: at tol 1e-12 the
# panels at the singular point converge at a level whose edge is refused
P_SLOW_DECAY = SSEParams(N=3, mu=-0.48, omega1=0.1, omega2=0.0, xi_star=0.5)
# the circle, the real segment near 1 and near 0, t = 1 (one panel, no
# leg), and wrap angles snapped onto either arc end (one panel)
BATCH_POINTS = (T_STD, 0.7, 0.2, 1.0, cmath.exp(1e-13j), cmath.exp(-1e-13j))
BATCH_WEIGHTS = {"standard": P_STD, "no_leg": replace(P_STD, xi_star=0.0),
                 "full_jump": replace(P_STD, xi_star=1.0),
                 "two_singular": P_TWO_SINGULAR, "slow_decay": P_SLOW_DECAY}
# at t = 1 and at the snapped wraps the singular points of P_TWO_SINGULAR
# merge into one of exponent 2 mu + 2 omega_1 = -1.39: the weight is not
# integrable there, its samples overflow and the refinement stalls.
# WeightSpec refuses that weight at those points, so the phases, which
# depend on t alone, are taken from P_STD's and handed to the quadrature
# directly: these rows are what covers a stalled refinement
BATCH_PHIS = [WeightSpec(P_STD, t).phase() for t in BATCH_POINTS]
DIVERGENT_SAMPLES = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


def _three_part_table(p, phi, kmax, tol):
    """A circle table as the sum of both arc panels in complex arithmetic
    and -xi* times the leg over the subtracted arc (pi - phi, pi), each
    integrated alone at its share of tol."""
    ks = np.arange(-kmax, kmax + 1, dtype=float)
    phi = complex(phi)
    parts = [(complex((b - a) / (2.0 * math.pi)),
              _arc_integrand(p, [(phi, (a, b, wrapped))], ks))
             for a, b, wrapped in _arc_panels(phi)]
    if p.xi_star != 0:
        parts.append((-p.xi_star * phi / (2.0 * math.pi),
                      _leg_integrand(p, [phi], ks)))
    total = np.zeros(ks.shape, dtype=complex)
    for scale, f in parts:
        (row,) = _integrate_rows(f, [tol / len(parts) / max(abs(scale), 1e-3)])
        total = total + scale * row[0]
    return total


class TestRowBatchedQuadrature:

    @DIVERGENT_SAMPLES
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-13])
    @pytest.mark.parametrize("kmax", [1, 24])
    @pytest.mark.parametrize("name", sorted(BATCH_WEIGHTS))
    def test_bit_identical_to_per_panel_pass(self, name, kmax, tol):
        p = BATCH_WEIGHTS[name]
        batch = _quadrature_tables(p, BATCH_PHIS, kmax, tol)
        for t, phi, table in zip(BATCH_POINTS, BATCH_PHIS, batch):
            want = partial(_per_panel_quadrature_table, p, phi, kmax, tol)
            assert _table_outcome(table) == _table_outcome(want), t

    # worst 5.4e-15 (2 mu = -0.87, xi* = 1, phi = 0.062), where the
    # three-part sum cancels
    @pytest.mark.parametrize("phi", [0.062, 1.3, 6.1])
    @pytest.mark.parametrize("xi", [0.0, 0.4, 1.0, 0.5 + 0.5j])
    @pytest.mark.parametrize("change", [{}, {"mu": -0.435},
                                        {"omega1": -0.26}])
    def test_wrapped_panel_is_the_subtracted_arc(self, change, xi, phi):
        p = replace(P_STD, xi_star=xi, **change)
        got, _ = _quadrature_tables(p, [complex(phi)], 63, 1e-12)[0]
        want = _three_part_table(p, phi, 63, 1e-12)
        assert (np.max(np.abs(got - want))
                <= 1e-14 * max(1.0, np.max(np.abs(want))))

    @pytest.mark.parametrize("order", [1, -1])
    def test_circle_row_keeps_its_bytes_beside_a_disc_row(self, order):
        # a split circle row runs in real arithmetic, a real-segment row
        # in complex: batched together, neither may change the other's bits
        phis = [WeightSpec(P_STD, t).phase() for t in (T_STD, 0.7)]
        alone = [_quadrature_tables(P_STD, [phi], 24, 1e-12)[0]
                 for phi in phis]
        both = _quadrature_tables(P_STD, phis[::order], 24, 1e-12)[::order]
        for one, batched in zip(alone, both):
            assert _table_outcome(batched) == _table_outcome(one)

    @DIVERGENT_SAMPLES
    def test_cases_refine_and_refuse(self, monkeypatch):
        # the batch above holds rows that go past level 4 and rows whose
        # endpoint decay is refused
        levels = _levels_asked(monkeypatch)
        _quadrature_tables(P_TWO_SINGULAR, BATCH_PHIS, 24, 1e-13)
        assert levels
        refused = [_table_outcome(table) for table
                   in _quadrature_tables(P_SLOW_DECAY, BATCH_PHIS, 1, 1e-12)]
        assert any("endpoint decay" in str(r) for r in refused)

    def test_rows_refined_together_equal_rows_refined_alone(self,
                                                            monkeypatch):
        # batches of 1-40 rows of one integrand kind (split circle panels,
        # other arc panels, legs) at random weights, phases, orders and
        # tolerances, 2 mu near -1 so that rows climb: every row of the
        # lockstep is the row integrated alone, bit for bit, its values and
        # error or its error text. The rows end at every level from 4 to
        # 11, and a row at level 11 takes its new nodes in two calls
        rng = np.random.default_rng(3)
        levels = _levels_asked(monkeypatch)
        calls, ends = [], set()

        def spied(f):
            def g(rows, d0, d1):
                calls.append((len(rows), len(d0)))
                return f(rows, d0, d1)
            return g

        for trial in range(36):
            kind = trial % 3
            make = _leg_integrand if kind == 2 else _arc_integrand
            p = SSEParams(N=1, mu=complex(rng.uniform(-0.49, -0.3),
                                          rng.uniform(-0.3, 0.3)),
                          omega1=rng.uniform(-0.49, 1.0),
                          omega2=complex(rng.uniform(-1.0, 1.0),
                                         rng.uniform(-0.3, 0.3)),
                          xi_star=rng.uniform(0.0, 1.0))
            size, rows = int(rng.integers(1, 41)), []
            while len(rows) < size:
                t = (cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
                     if kind == 0 else rng.uniform(0.02, 0.999))
                phi = WeightSpec(p, t).phase()
                rows += [row for _, k, row, _ in _table_parts(phi, p.xi_star,
                                                              1.0)
                         if k == kind]
            rows = rows[:size]
            tols = list(10.0 ** rng.uniform(-14, -6, size))
            kmax = int(rng.integers(1, 30))
            ks = np.arange(-kmax, kmax + 1, dtype=float)
            batch = _integrate_rows(spied(make(p, rows, ks)), tols)
            for row, tol, got in zip(rows, tols, batch):
                levels.clear()
                (alone,) = _integrate_rows(make(p, [row], ks), [tol])
                ends.add(max(levels, default=4))
                assert _table_outcome(got) == _table_outcome(alone)
        assert ends == set(range(4, 12))
        assert (1, _CHUNK_ROWS) in calls and (1, 12288 - _CHUNK_ROWS) in calls

    def test_integrand_calls_stay_within_the_chunk(self, monkeypatch):
        sizes = []

        def spy(factory):
            def make(p, rows, ks):
                f = factory(p, rows, ks)

                def counted(sel, d0, d1):
                    out = f(sel, d0, d1)
                    sizes.append(out.shape[0] * out.shape[1])
                    return out

                return counted

            return make

        monkeypatch.setattr(rmt, "_arc_integrand", spy(rmt._arc_integrand))
        monkeypatch.setattr(rmt, "_leg_integrand", spy(rmt._leg_integrand))
        ts = [cmath.exp(1j * g) for g in np.linspace(0.2, 6.0, 30)]
        toeplitz_grid(replace(P_STD, N=64), ts)
        head = len(_ts_full_rule(4)[2])
        assert max(sizes) <= _CHUNK_ROWS
        # 60 arc panels need two head calls, the first one full
        assert (_CHUNK_ROWS // head) * head in sizes


def _levels_of_failing_calls(monkeypatch):
    """Run _integrate_rows as before, and list, for every call of it that
    hands back a failing row, the tanh-sinh levels past the head that its
    lockstep asked of _ts_new_nodes."""
    levels = _levels_asked(monkeypatch)
    failing = []
    integrate = rmt._integrate_rows

    def counted(f, tols):
        levels.clear()
        rows = integrate(f, tols)
        if any(isinstance(row, QuadratureError) for row in rows):
            failing.append(list(levels))
        return rows

    monkeypatch.setattr(rmt, "_integrate_rows", counted)
    return failing


def _floor_outcome(table):
    """A table's bytes and error estimate, or its QuadratureError."""
    if isinstance(table, QuadratureError):
        return table
    vals, err = table
    return vals.tobytes(), err


# a real-segment weight whose table at N = 36 asks an absolute 3.2e-12 of
# coefficients that reach far past 1/eps
P_FLOOR = SSEParams(N=36, mu=0.710902 + 0.180507j, omega1=-0.0940847,
                    omega2=0.419925, xi_star=0.577814)
T_FLOOR = 0.183796


class TestRoundingFloor:
    """A row whose tol lies more than _ROUNDOFF_MARGIN times below eps times
    its own largest value stalls where it stands."""

    def test_doomed_row_stalls_at_the_head(self, monkeypatch):
        failing = _levels_of_failing_calls(monkeypatch)
        with pytest.raises(QuadratureError) as exc:
            toeplitz_an(P_FLOOR, T_FLOOR)
        assert str(exc.value).startswith("tanh-sinh refinement stalled")
        assert f"{exc.value.target:.3e}" == "3.210e-12"
        assert failing == [[]]

    def test_without_the_floor_the_row_climbs_to_the_last_level(
            self, monkeypatch):
        monkeypatch.setattr(rmt, "_ROUNDOFF_MARGIN", math.inf)
        failing = _levels_of_failing_calls(monkeypatch)
        with pytest.raises(QuadratureError) as exc:
            toeplitz_an(P_FLOOR, T_FLOOR)
        assert str(exc.value) == ("tanh-sinh refinement stalled: achieved "
                                  "3.357e+06, target 3.210e-12")
        assert failing == [list(range(5, rmt._TS_MAX_LEVEL + 1))]

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_rows_that_climb_to_convergence_keep_their_bits(
            self, monkeypatch, tol):
        # circle and real segment at random weights and orders: wherever
        # the climb without the floor converges, the table is the same
        # bits, and where it fails, the floor fails too. Every row that
        # converges reads its floor well inside the margin (the worst,
        # 6.4, at tol 1e-13), so at half the margin it still converges
        rng = np.random.default_rng(5)
        seen = set()
        margins = (math.inf, rmt._ROUNDOFF_MARGIN, rmt._ROUNDOFF_MARGIN / 2)
        for _ in range(30):
            p = _random_weight(rng)
            ts = [cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01)),
                  rng.uniform(0.05, 0.999)]
            kmax = int(rng.integers(1, 48))
            phis = [WeightSpec(p, t).phase() for t in ts]
            outcomes = []
            for margin in margins:
                with monkeypatch.context() as patch:
                    patch.setattr(rmt, "_ROUNDOFF_MARGIN", margin)
                    outcomes.append([_floor_outcome(table) for table
                                     in _quadrature_tables(p, phis, kmax,
                                                           tol)])
            for path, old, new, half in zip("cr", *outcomes):
                if isinstance(old, QuadratureError):
                    assert isinstance(new, QuadratureError)
                    assert isinstance(half, QuadratureError)
                    assert new.target == old.target
                    seen.add((path, "refused"))
                else:
                    assert new == old and half == old
                    seen.add((path, "converged"))
        assert seen == {(path, kind) for path in "cr"
                        for kind in ("converged", "refused")} - {
            ("c", "refused")}


def test_leg_at_a_vanishing_phase_keeps_the_circle_value():
    # the leg's half-angles underflow at its deepest nodes below a phase of
    # about 1e-33, and its share vanishes like phase^(1 + 2 omega1 + 2 mu)
    got = toeplitz_an(P_STD, complex(1.0, 1e-300))
    assert abs(got - toeplitz_an(P_STD, 1.0)) <= 1e-12


@pytest.mark.parametrize("t,kmax", [(1e-300, 0), (1e-200, 1), (1e-100, 5)])
def test_weight_too_close_to_zero_is_refused(t, kmax):
    # the leg's factors |t|^{-k} would leave the float range
    with pytest.raises(ValueError, match="too close to 0"):
        fourier_table(WeightSpec(P_STD, t), kmax)
    with pytest.raises(ValueError, match="too close to 0"):
        toeplitz_grid(replace(P_STD, N=kmax + 1), [0.5, t])


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_tol_not_finite_and_positive_is_refused(tol):
    # integrate's message; inf once returned values, the rest stalled
    message = f"tol must be finite and positive, got {tol!r}"
    with pytest.raises(ValueError) as exc:
        fourier_table(WeightSpec(P_STD, T_STD), 3, tol)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        toeplitz_grid(P_STD, [T_STD, 0.5], tol)
    assert str(exc.value) == message


def test_subnormal_share_of_tol_is_refused_in_grid_order(monkeypatch):
    # at xi* = 1e300 the wrapped panel's scale leaves its share of tol
    # below the smallest normal float; t = 1, with no wrapped panel and no
    # leg, keeps its value, and no quadrature runs for the refused t
    p = replace(P_STD, N=3, xi_star=1e300)
    exc = _grid_matches_points(p, [1.0, T_STD, 0.5])
    assert isinstance(exc, ValueError)
    assert str(exc).startswith(f"the table at t = {T_STD!r} cannot reach "
                               f"tol = 1e-12: a part's share of it is ")
    monkeypatch.setattr(rmt, "_integrate_rows", None)
    for t in (T_STD, 0.5, cmath.exp(-1e-13j)):
        with pytest.raises(ValueError, match="share"):
            fourier_table(WeightSpec(replace(p, xi_star=1.7e308), t), 2)


class TestToeplitzRoute:
    def test_dimension_zero_is_one(self):
        assert toeplitz_an(replace(P_STD, N=0), T_STD) == 1.0 + 0.0j

    def test_dimension_one_is_c0(self):
        got = toeplitz_an(replace(P_STD, N=1), T_STD)
        assert abs(got - FOURIER_ANCHORS[0]) <= 1e-12

    def test_reference_value_n2(self):
        assert abs(toeplitz_an(P_STD, T_STD) - TOEPLITZ_N2) <= 1e-12

    def test_reference_value_n3(self):
        got = toeplitz_an(replace(P_STD, N=3), T_STD)
        assert abs(got - TOEPLITZ_N3) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_gamma_product_at_t_one(self, n):
        # at t = 1 the average collapses to the known product of gamma
        # factors used to normalize the bulk limit
        got = toeplitz_an(replace(P_STD, N=n), 1.0)
        want = barnes_prefactor(n, P_STD.mu, P_STD.omega1, P_STD.omega2)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_gamma_product_at_merged_integrable_singularity(self, n):
        # 2 mu + 2 omega_1 = -0.8 > -1: the merged point stays integrable
        # and both routes still meet the gamma product at t = 1
        p = SSEParams(N=n, mu=-0.2, omega1=-0.2, omega2=0.3, xi_star=0.5)
        want = barnes_prefactor(n, p.mu, p.omega1, p.omega2)
        assert abs(toeplitz_an(p, 1.0) - want) <= 1e-12 * abs(want)
        assert abs(quad_oracle_an(p, 1.0) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("route", [toeplitz_an, quad_oracle_an])
    def test_merged_non_integrable_singularity_refused(self, route):
        with pytest.raises(ValueError, match="not integrable"):
            route(P_TWO_SINGULAR, 1.0)

    def test_real_for_symmetric_weight(self):
        p = replace(P_STD, omega2=0.0, xi_star=0.0)
        got = toeplitz_an(replace(p, N=4), cmath.exp(1.1j))
        assert abs(got.imag) <= 1e-12

    def test_real_segment_continuation(self):
        got = toeplitz_an(P_STD, 0.999)
        assert abs(got - SEGMENT_T0999) <= 1e-10

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            toeplitz_an(replace(P_STD, N=65), T_STD)

    def test_deterministic(self):
        assert toeplitz_an(P_STD, T_STD) == toeplitz_an(P_STD, T_STD)


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


def _never(*args, **kwargs):
    raise AssertionError("a grid with a refused point was computed")


def _counted_quadrature_tables(monkeypatch):
    """(phases, kmax) of every _quadrature_tables call from here on."""
    calls, real = [], rmt._quadrature_tables

    def counted(p, phis, kmax, tol):
        calls.append((len(phis), kmax))
        return real(p, phis, kmax, tol)

    monkeypatch.setattr(rmt, "_quadrature_tables", counted)
    return calls


def _grid_matches_points(p, ts, tol=1e-12):
    """toeplitz_grid against toeplitz_an at each t, bit for bit. Where some
    t fail, the grid raises the first refusal (ValueError) in grid order,
    or else the first failure; returns what it raised or None."""
    want, failures = [], []
    for t in ts:
        try:
            want.append(_hex(toeplitz_an(p, t, tol=tol)))
        except (QuadratureError, ValueError) as exc:
            failures.append(exc)
    if failures:
        exc = next((e for e in failures if isinstance(e, ValueError)),
                   failures[0])
        with pytest.raises(type(exc)) as got:
            toeplitz_grid(p, ts, tol=tol)
        assert str(got.value) == str(exc)
        return exc
    assert [_hex(v) for v in toeplitz_grid(p, ts, tol=tol)] == want
    return None


class TestToeplitzGrid:
    """Every row of a grid is the single-point call at its t, bit for bit."""

    @pytest.mark.parametrize("n", [3, 16, 64])
    def test_circle_grid(self, n):
        ts = [cmath.exp(1j * g) for g in np.linspace(0.2, 6.2, 15)]
        assert _grid_matches_points(replace(P_STD, N=n), ts) is None

    def test_real_segment_with_quadrature_fallback(self):
        p = replace(P_STD, N=4)
        ts = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 0.99]
        # the recurrence cannot meet tol at the first two points
        assert _recurrence_tables(p, [WeightSpec(p, 0.05)], [3],
                                  1e-12)[0] is None
        assert _recurrence_tables(p, [WeightSpec(p, 0.95)], [3],
                                  1e-12)[0] is not None
        assert _grid_matches_points(p, ts) is None
        # at N = 16 the table at t = 0.4 is refused at the rounding level,
        # its amplification times eps alone past tol; 0.65 and 0.9 recur
        p = replace(P_STD, N=16)
        w = WeightSpec(p, 0.4)
        coeffs = rmt._recurrence_steps(w)
        amp = rmt._march_rows([[1j, 0j, 1j]], [coeffs], [15])[2][0]
        assert amp * rmt._EPS > 1e-12
        assert _recurrence_tables(w.p, [w], [15], 1e-12)[0] is None
        for t in (0.65, 0.9):
            assert _recurrence_tables(p, [WeightSpec(p, t)], [15],
                                      1e-12)[0] is not None
        assert _grid_matches_points(p, [0.4, 0.65, 0.9]) is None

    def test_mixed_grid(self):
        # repeated points, recurred and quadrature tables, t = 1 and wrap
        # angles snapped onto either arc end
        ts = [T_STD, 0.05, 0.3, T_STD, 1.0, 0.05, 0.95, cmath.exp(-1e-13j),
              cmath.exp(1e-13j)]
        assert _grid_matches_points(replace(P_STD, N=4), ts) is None

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("path", ["circle", "real"])
    def test_small_tables_take_one_pass_per_grid(self, n, path, monkeypatch):
        # at N <= 2 the seed pass is every table of the grid: one batched
        # call at kmax = N - 1, and no second pass for any t
        ts = ([cmath.exp(1j * g) for g in np.linspace(0.2, 6.2, 9)]
              if path == "circle" else [0.05, 0.3, 0.6, 0.9, 0.999])
        p = replace(P_STD, N=n)
        want = [_hex(toeplitz_an(p, t)) for t in ts]
        calls = _counted_quadrature_tables(monkeypatch)
        assert [_hex(v) for v in toeplitz_grid(p, ts)] == want
        assert calls == [(len(ts), n - 1)]

    def test_small_table_failure_raises_its_own_error(self, monkeypatch):
        # at N = 2 the tables at 0.5 and T_STD both stall, each with its
        # own achieved error; the grid's one pass raises the first in grid
        # order, as the one-t call at 0.5 does
        p = replace(P_SLOW_DECAY, N=2)
        alone = []
        for t in (0.5, T_STD):
            with pytest.raises(QuadratureError) as exc:
                toeplitz_an(p, t)
            alone.append(str(exc.value))
        assert alone[0] != alone[1]
        calls = _counted_quadrature_tables(monkeypatch)
        with pytest.raises(QuadratureError) as grid:
            toeplitz_grid(p, [0.9, 0.5, T_STD])
        assert str(grid.value) == alone[0]
        assert "endpoint decay" in alone[0]
        assert calls == [(3, 1)]

    # N = 0 once returned 1 at every point, these included; at N = 2 the
    # seed pass is the grid's only one
    @pytest.mark.parametrize("n", [0, 2, 12])
    @pytest.mark.parametrize("ts,match", [
        ([0.6, T_STD, -0.5, 0.9], "not t = -0.5:"),
        # after a point whose quadrature stalls at N = 12
        ([0.6, 0.2, 1.5], "closed unit disc"),
        ([0.6, 0.05, 1e-300], "too close to 0"),
        ([0.6, math.nan], "not t = nan:"),
        ([0.6, 0.0], "closed unit disc"),
    ])
    def test_refused_point_raises_before_any_table(self, ts, match, n,
                                                   monkeypatch):
        # every table, seeds and full passes alike, comes from
        # _quadrature_tables
        monkeypatch.setattr(rmt, "_quadrature_tables", _never)
        with pytest.raises(ValueError, match=match):
            toeplitz_grid(replace(P_STD, N=n), ts)

    def test_row_past_level_four(self, monkeypatch):
        levels = _levels_asked(monkeypatch)
        p = replace(P_TWO_SINGULAR, N=8)
        ts = [cmath.exp(1j * g) for g in (PHI_TWO_SINGULAR, 0.5, 3.0)]
        assert _grid_matches_points(p, ts) is None
        assert levels

    def test_endpoint_decay_refusal(self):
        exc = _grid_matches_points(P_SLOW_DECAY, [T_STD, cmath.exp(1j)])
        assert "endpoint decay" in str(exc)

    def test_first_failing_point_is_reported(self):
        p = replace(P_STD, N=12)
        exc = _grid_matches_points(p, [0.6, 0.2, 0.05])
        assert isinstance(exc, QuadratureError)
        with pytest.raises(QuadratureError) as later:
            toeplitz_an(p, 0.05)
        assert str(later.value) != str(exc)

    @pytest.mark.parametrize("ts", [[0.6, 0.2, 1.5], [0.6, 1.5, 0.2]])
    def test_invalid_point_raises_in_grid_order(self, ts):
        # the refusal of 1.5 comes before the stall at 0.2, wherever it sits
        exc = _grid_matches_points(replace(P_STD, N=12), ts)
        assert isinstance(exc, ValueError)

    def test_point_near_zero_is_refused_before_the_seeds(self):
        # the leg of t = 1e-300 leaves the float range; checked before the
        # grid's seed pass, it never reaches a quadrature
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="too close to 0"):
                toeplitz_grid(replace(P_STD, N=8), [0.5, 1e-300])

    def test_dimension_zero_is_one_at_every_point(self):
        got = toeplitz_grid(replace(P_STD, N=0), [0.5, T_STD, 1.0])
        assert got == [1.0 + 0.0j] * 3

    def test_empty_grid(self):
        assert toeplitz_grid(P_STD, []) == []


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_toeplitz_average_is_a_polynomial_of_degree_n_in_xi(n):
    """D_N is a polynomial of degree N in xi*: every entry c_k is affine
    in xi*. Sampled at 32 points of |xi*| = 1, every DFT coefficient
    above degree N vanishes to rounding, on the circle and on the
    segment. An exact identity, with no reference value."""
    ts = [cmath.exp(1j), cmath.exp(4j), 0.6]
    zs = [cmath.exp(2j * math.pi * k / 32) for k in range(32)]
    vals = np.array([toeplitz_grid(replace(P_STD, N=n, xi_star=z), ts)
                     for z in zs])
    coeffs = np.abs(np.fft.fft(vals, axis=0)) / 32
    for tail, whole in zip(coeffs[n + 1:].T, coeffs.T):
        assert np.max(tail) <= 1e-12 * np.max(whole), (n, np.max(tail))


class TestDirectOracle:
    def test_unit_weight_normalization(self):
        p0 = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.0)
        assert abs(quad_oracle_an(p0, T_STD) - 1.0) <= 1e-10

    @pytest.mark.parametrize("phi", [0.4, 2.2])
    @pytest.mark.parametrize("xi", [0.0, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_toeplitz(self, phi, xi, n):
        p = SSEParams(N=n, mu=0.25, omega1=0.1, omega2=0.3, xi_star=xi)
        t = cmath.exp(1j * phi)
        a = quad_oracle_an(p, t)
        b = toeplitz_an(p, t)
        assert abs(a - b) <= 1e-9 * abs(b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_toeplitz_complex_weight(self, n):
        # complex mu makes the weight, and so the N = 3 matrix product,
        # complex
        p = SSEParams(N=n, mu=0.2 + 0.15j, omega1=0.1, omega2=0.3,
                      xi_star=0.5)
        a = quad_oracle_an(p, T_STD)
        b = toeplitz_an(p, T_STD)
        assert abs(b.imag) > 1e-3
        assert abs(a - b) <= 1e-9 * abs(b)

    @pytest.mark.parametrize("mu,omega1", [(0.5, 0.5), (-0.3, 0.5)])
    def test_matches_toeplitz_on_a_short_arc(self, mu, omega1):
        # xi* = 1 leaves only the arc of width 0.18: the wrapped panel is
        # dropped, not integrated and then cancelled by a leg
        p = SSEParams(N=3, mu=mu, omega1=omega1, omega2=0.0, xi_star=1.0)
        t = cmath.exp(6.1j)
        a = quad_oracle_an(p, t)
        assert abs(toeplitz_an(p, t) - a) <= 1e-8 * abs(a)

    def test_singular_weight(self):
        p = SSEParams(N=1, mu=-0.35, omega1=-0.2, omega2=0.1, xi_star=0.25)
        got = quad_oracle_an(p, T_STD)
        assert abs(got - SINGULAR_C0) <= 5e-11 * abs(SINGULAR_C0)

    # N = 0 once returned 1 before any check of t
    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("t,match", [
        (0.9 * T_STD, "off the unit circle"),
        (math.nan, "off the unit circle"),
        (0.5, "direct oracle is defined on the unit circle only"),
    ])
    def test_rejects_off_circle(self, t, match, n):
        with pytest.raises(ValueError, match=match):
            quad_oracle_an(replace(P_STD, N=n), t)

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            quad_oracle_an(replace(P_STD, N=4), T_STD)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stalled_levels_raise(self, n):
        # mu near -1/2 puts a strong singularity at the wrap angle: levels
        # 6 and 7 still disagree by ~1.5e-7, past the 1e-9 acceptance
        p = SSEParams(N=n, mu=-0.49, omega1=0.1, omega2=0.0, xi_star=0.5)
        with pytest.raises(QuadratureError) as exc:
            quad_oracle_an(p, cmath.exp(0.7j))
        assert exc.value.target == 1e-9
        assert exc.value.achieved > exc.value.target


def _literal_sum(theta, u, n):
    """sum over a_1..a_n of u_a1..u_an prod_{j<k} D_{aj ak} / n!, with
    D = |e^{i theta_a} - e^{i theta_b}|^2 formed pairwise as
    (2 sin((theta_a - theta_b)/2))^2, accurate to rounding at any
    separation."""
    d = (2.0 * np.sin(0.5 * (theta[:, None] - theta[None, :]))) ** 2
    if n == 1:
        return complex(np.sum(u))
    if n == 2:
        return complex(np.einsum("a,b,ab->", u, u, d) / 2.0)
    return complex(np.einsum("a,b,c,ab,bc,ca->", u, u, u, d, d, d,
                             optimize=True) / 6.0)


def _mp_literal_sum(theta, u, n):
    """_literal_sum term by term in 30-digit arithmetic."""
    with mp.workdps(30):
        z = [mp.expj(mp.mpf(float(x))) for x in theta]
        w = [mp.mpc(complex(x)) for x in u]
        m = len(z)
        d = [[abs(z[a] - z[b]) ** 2 for b in range(m)] for a in range(m)]
        if n == 1:
            total = mp.fsum(w)
        elif n == 2:
            total = mp.fsum(w[a] * w[b] * d[a][b]
                            for a in range(m) for b in range(m)) / 2
        else:
            wd = [[w[a] * d[a][b] for b in range(m)] for a in range(m)]
            total = mp.fsum(wd[a][b] * wd[b][c] * wd[c][a]
                            for a in range(m) for b in range(m)
                            for c in range(m)) / 6
        return complex(total)


LAYOUTS = ["spread", "clustered", "clustered_across_pi"]


def _sample_nodes(layout, m, weights, seed):
    """m nodes over the whole circle, or on an arc of width 0.2 centred at
    2.4 rad or straddling the cut at +-pi, with real positive or complex
    weights."""
    rng = np.random.default_rng(seed)
    x = rng.random(m)
    if layout == "spread":
        theta = math.pi * (2.0 * x - 1.0)
    else:
        centre = 2.4 if layout == "clustered" else math.pi - 0.05
        theta = np.remainder(centre + 0.2 * (x - 0.5) + math.pi,
                             2.0 * math.pi) - math.pi
    u = rng.uniform(0.5, 1.5, m)
    if weights == "complex":
        u = u * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    return theta, u


class TestVandermondeSum:
    """The rank-3 evaluation of the oracle's tensor-product sum against
    the literal pairwise sum it replaces."""

    @pytest.mark.parametrize("weights", ["real", "complex"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_literal_sum(self, n, layout, weights):
        theta, u = _sample_nodes(layout, 200, weights, seed=10 * n)
        got = _vandermonde_sum(theta, u, n)
        want = _literal_sum(theta, u, n)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("weights", ["real", "complex"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_30_digit_literal_sum(self, n, layout, weights):
        theta, u = _sample_nodes(layout, 32, weights, seed=10 * n + 1)
        got = _vandermonde_sum(theta, u, n)
        want = _mp_literal_sum(theta, u, n)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_short_arc_oracle_case(self):
        # xi* = 1 removes the arc beyond the wrap angle pi - 6.1, leaving
        # nodes on an arc of width 0.18 where the factor is small; the
        # oracle converges at level 6 (levels 5 and 6 agree)
        p = SSEParams(N=3, mu=-0.3, omega1=0.5, omega2=0.0, xi_star=1.0)
        t = cmath.exp(6.1j)
        theta, u = _oracle_rule(p, WeightSpec(p, t).phase().real, 6)
        got = _vandermonde_sum(theta, u, 3)
        assert quad_oracle_an(p, t) == got
        live = u != 0.0  # zero weights add exact zeros to the literal sum
        want = _literal_sum(theta[live], u[live], 3)
        assert abs(got - want) <= 1e-13 * abs(want)


def _mp_legendre_pair(m, x):
    p0, p1 = mp.mpf(1), x
    for k in range(1, m):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


def _mp_gauss_legendre(m, x0):
    """(node, weight) of the m-point Gauss-Legendre rule at 35 digits: the
    root of P_m by Newton on the recurrence from x0, and
    2 / ((1 - x^2) P_m'(x)^2)."""
    with mp.workdps(35):
        x = mp.mpf(x0)
        for _ in range(4):
            pm, pm1 = _mp_legendre_pair(m, x)
            x -= pm * (x * x - 1) / (m * (x * pm - pm1))
        pm, pm1 = _mp_legendre_pair(m, x)
        dp = m * (x * pm - pm1) / (x * x - 1)
        return x, 2 / ((1 - x * x) * dp * dp)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("m", [10, 11, 80, 81, 281, 600, 1000])
    def test_matches_the_35_digit_rule(self, m):
        # the 12 nodes nearest x = 1, where the weights are hardest, and
        # interior ones down to the centre; the mirror test covers x < 0.
        # At m = 1000 the weights near x = 1 miss 1e-11 unless Newton takes
        # back the rounding of x = cos(theta)
        x, w = _gl_rule(m)
        half = m // 2
        picks = sorted(set(range(max(half, m - 12), m))
                       | set(range(half, m, max(1, half // 8))))
        for i in picks:
            node, weight = _mp_gauss_legendre(m, x[i])
            assert abs(x[i] - node) <= 2.3e-16, (m, i)
            assert abs(w[i] - weight) <= 1e-11 * weight, (m, i)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 11, 80, 81, 281, 600, 601])
    def test_is_mirrored_and_ordered(self, m):
        x, w = _gl_rule(m)
        assert x.dtype == w.dtype == np.float64
        assert len(x) == len(w) == m
        assert np.array_equal(x[::-1], -x)
        assert np.array_equal(w[::-1], w)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and np.all(w > 0.0)
        if m % 2:
            assert x[m // 2] == 0.0

    def test_integrates_even_monomials_at_600_nodes(self):
        m = 600
        x, w = _gl_rule(m)
        for j in range(m):
            want = 2.0 / (2 * j + 1)
            got = np.sum(w * x ** (2 * j))
            assert abs(got - want) <= 2e-13 * want, j

    def test_needs_no_eigensolver(self, monkeypatch):
        def refuse(m):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        _gl_rule.cache_clear()
        x, w = _gl_rule(81)
        assert abs(np.sum(w) - 2.0) <= 1e-14
        assert 0.0 < fredholm_sine(FredholmSpec(2.0, 1.0, m=80)) < 1.0
        assert fredholm_log_derivatives(2.0, 0.5, 81)[1].real < 0.0


class TestFredholm:
    def test_xi_zero_is_one(self):
        assert fredholm_sine(FredholmSpec(1.0, 0.0)) == 1.0

    @pytest.mark.parametrize("m", [90, 91])
    def test_reference_value(self, m):
        got = fredholm_sine(FredholmSpec(1.0, 1.0, m=m))
        assert abs(got - FREDHOLM_T1) <= 1e-12

    def test_small_t_slope(self):
        # E(t) = 1 - (2 xi / pi) t + O(t^2); Richardson on the forward
        # difference removes the O(h) remainder
        for xi in (1.0, 0.5):
            h = 1e-4
            s1 = (fredholm_sine(FredholmSpec(h, xi)) - 1.0) / h
            s2 = (fredholm_sine(FredholmSpec(2 * h, xi)) - 1.0) / (2 * h)
            slope = 2.0 * s1 - s2
            assert abs(slope + 2.0 * xi / math.pi) <= 1e-7

    def test_small_t_remainder_quadratic(self):
        lead = lambda t: 1.0 - 2.0 * t / math.pi
        rem = [abs(fredholm_sine(FredholmSpec(t, 1.0)) - lead(t)) / t ** 2
               for t in (0.2, 0.1, 0.05)]
        assert rem[0] < 1e-2
        assert rem[0] > rem[1] > rem[2]

    def test_monotone_and_bounded(self):
        vals = [fredholm_sine(FredholmSpec(t, 1.0)) for t in
                (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_node_doubling_converged(self):
        a = fredholm_sine(FredholmSpec(4.0, 1.0, m=60))
        b = fredholm_sine(FredholmSpec(4.0, 1.0, m=120))
        assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("m", [120, 121])
    @pytest.mark.parametrize("t,ref", sorted(GAP_RATIO_ANCHORS.items()))
    def test_reference_gap_ratio(self, t, ref, m):
        e = fredholm_sine(FredholmSpec(t, 1.0, m=m))
        got = e / (t ** -0.25 * math.exp(-t * t / 2.0))
        assert abs(got - ref) <= 1e-10

    def test_complex_coupling(self):
        got = fredholm_sine(FredholmSpec(1.0, 0.5 + 0.5j))
        assert isinstance(got, complex)
        assert got.imag != 0.0

    def test_real_coupling_returns_float(self):
        assert isinstance(fredholm_sine(FredholmSpec(1.0, 0.5)), float)

    @pytest.mark.parametrize("xi", [1e300, -1e300, 1e300j])
    def test_determinant_past_the_float_range_is_refused(self, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                fredholm_sine(FredholmSpec(0.1, xi))

    def test_large_determinant_within_the_float_range_is_kept(self):
        got = fredholm_sine(FredholmSpec(0.1, 1e30))
        assert got == -2.545532881538893e+108

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.0 + 1.0j])
    def test_rejects_bad_halfwidth(self, bad):
        with pytest.raises(ValueError):
            FredholmSpec(bad, 1.0)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            FredholmSpec(1.0, 1.0, m=5)

    @pytest.mark.parametrize("m", [80.7, "80", 80.0])
    def test_rejects_a_node_count_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match="must be an integer"):
            FredholmSpec(1.0, 1.0, m=m)

    def test_numpy_integer_node_count_is_stored_as_int(self):
        spec = FredholmSpec(1.0, 1.0, m=np.int64(80))
        assert type(spec.m) is int and spec.m == 80
        assert fredholm_sine(spec) == fredholm_sine(FredholmSpec(1.0, 1.0))

    def test_half_width_up_to_half_the_node_count(self):
        # the rule resolves the kernel for |t| <= m/2; at xi = 1 the value
        # there, near 1e-350, has no correct digit and is refused
        assert math.isfinite(fredholm_sine(FredholmSpec(40.0, 0.5, m=80)))
        with pytest.raises(ValueError, match="no correct digit"):
            fredholm_sine(FredholmSpec(40.0, 1.0, m=80))
        with pytest.raises(ValueError, match="t = 40.5 needs more than m = 80"):
            FredholmSpec(40.5, 1.0, m=80)
        with pytest.raises(ValueError, match="t = 40.5 needs more than m = 80"):
            fredholm_log_derivatives(40.5, 0.5, 80)


class TestLogDerivatives:
    @pytest.mark.parametrize("xi", [1.7e308, 1.7e308 + 1.7e308j, 1e300])
    def test_coupling_near_the_float_max_is_refused(self, xi):
        # the derivatives overflow while the guard passes; refused at the
        # first t, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leave the float range"):
                fredholm_log_derivatives_grid([0.1, 1.0], xi)

    def test_reference_value_xi_one(self):
        _, l1, _, _ = fredholm_log_derivatives(2.5, 1.0)
        assert abs(l1 - LOGDERIV_T25) <= 1e-11 * abs(LOGDERIV_T25)

    def test_reference_value_xi_half(self):
        _, l1, _, _ = fredholm_log_derivatives(4.0, 0.5)
        assert abs(l1 - LOGDERIV_T4_XI_HALF) <= 1e-11

    def test_consistent_with_determinant(self):
        loge, _, _, _ = fredholm_log_derivatives(1.5, 1.0, m=140)
        e = fredholm_sine(FredholmSpec(1.5, 1.0, m=140))
        assert abs(cmath.exp(loge) - e) <= 1e-12

    def test_derivative_chain(self):
        # each trace formula must differentiate the previous one
        t, h = 1.5, 1e-4
        lm = fredholm_log_derivatives(t - h, 1.0)
        lp = fredholm_log_derivatives(t + h, 1.0)
        l0 = fredholm_log_derivatives(t, 1.0)
        fd1 = (lp[0] - lm[0]) / (2 * h)
        fd2 = (lp[1] - lm[1]) / (2 * h)
        fd3 = (lp[2] - lm[2]) / (2 * h)
        assert abs(fd1 - l0[1]) <= 1e-6
        assert abs(fd2 - l0[2]) <= 1e-6
        assert abs(fd3 - l0[3]) <= 1e-5

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.2j, 0.8 + 0.6j, 2.0 - 1.0j,
                                     2.0 + 0.0j])
    def test_halfwidth_must_be_a_positive_real(self, bad):
        # off the positive real axis the blocks are not positive
        # semidefinite, and neither entry point takes such a half-width
        with pytest.raises(ValueError, match="must be a positive real"):
            fredholm_sine(FredholmSpec(bad, 0.5))
        with pytest.raises(ValueError, match="must be a positive real"):
            fredholm_log_derivatives(bad, 0.5)

    @pytest.mark.parametrize("m", [80, 160, 300])
    def test_refused_where_no_digit_is_correct(self, m):
        # E near 1e-196 at t = 30, xi = 1: the rounding bound of the shared
        # factor passes 1 at every node count, for log E as for E
        with pytest.raises(ValueError, match="no correct digit"):
            fredholm_log_derivatives(30.0, 1.0, m)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect (ROADMAP item 9; the FOUND line on the jets in "
        "CHANGES.md): the jets reuse E's rounding guard, which bounds det's "
        "relative error, not l2 and l3; at xi = 1, t = 16.18 it lets m = 45 "
        "to 360 through, and l3 there has no correct digit"))
    def test_jets_past_the_guard_meet_node_doubling_or_are_refused(self):
        for m in (45, 90, 180):
            try:
                coarse = fredholm_log_derivatives(16.18, 1.0, m)
                fine = fredholm_log_derivatives(16.18, 1.0, 2 * m)
            except ValueError:
                continue
            for k in (1, 2, 3):
                assert abs(coarse[k] - fine[k]) <= 1e-3 * abs(fine[k]), (m, k)

    def test_shares_the_determinant_and_its_guard(self):
        # across the guard (at xi = 1 from t ~ 18) and the resolution
        # check (t > m/2) both entry points return, or both raise the same
        # error
        returned, refused = 0, 0
        for t, xi, m in itertools.product(
                (2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 30.0),
                (1.0, 0.99, 0.5 + 0.5j), (40, 80, 160)):
            try:
                e = complex(fredholm_sine(FredholmSpec(t, xi, m=m)))
            except ValueError as exc:
                with pytest.raises(ValueError) as again:
                    fredholm_log_derivatives(t, xi, m)
                assert str(again.value) == str(exc), (t, xi, m)
                refused += 1
                continue
            loge = fredholm_log_derivatives(t, xi, m)[0]
            assert abs(cmath.exp(loge) - e) <= 1e-13 * abs(e), (t, xi, m)
            returned += 1
        assert returned and refused


def _full_kernels(t, m):
    """The whole m x m Nystrom matrices of the sine kernel and its first
    three t-derivatives on the library's rule, as the library formed them
    before the parity split."""
    x, w = _gl_rule(m)
    d = x[:, None] - x[None, :]
    sq = np.outer(np.sqrt(w), np.sqrt(w))
    td = t * d
    with np.errstate(divide="ignore", invalid="ignore"):
        k0 = np.sin(td) / (math.pi * d)
    np.fill_diagonal(k0, t / math.pi)
    return (k0 * sq, (np.cos(td) / math.pi) * sq,
            (-np.sin(td) * d / math.pi) * sq,
            (-np.cos(td) * d * d / math.pi) * sq)


def _full_determinant(t, xi, m):
    a0 = _full_kernels(t, m)[0]
    return complex(np.linalg.det(np.eye(m) - complex(xi) * a0))


def _full_log_derivatives(t, xi, m):
    a0, a1, a2, a3 = _full_kernels(t, m)
    xi = complex(xi)
    mat = np.eye(m, dtype=complex) - xi * a0
    sign, logabs = np.linalg.slogdet(mat)
    loge = complex(logabs) + cmath.log(complex(sign))
    r = np.linalg.solve(mat, np.eye(m, dtype=complex))
    b1, b2, b3 = r @ a1, r @ a2, r @ a3
    l1 = -xi * np.trace(b1)
    l2 = -xi * (xi * np.trace(b1 @ b1) + np.trace(b2))
    l3 = -xi * (2.0 * xi * xi * np.trace(b1 @ b1 @ b1)
                + 3.0 * xi * np.trace(b1 @ b2) + np.trace(b3))
    return loge, complex(l1), complex(l2), complex(l3)


def _rounding_bound(t, xi, m):
    """m eps sum |xi lambda| / |1 - xi lambda| over the eigenvalues of
    the full Nystrom matrix: the relative rounding bound fredholm_sine
    refuses at 1."""
    lam = complex(xi) * np.linalg.eigvalsh(_full_kernels(t, m)[0])
    return m * np.finfo(float).eps * np.sum(np.abs(lam) / np.abs(1.0 - lam))


# det(I - K) at xi = 1 on the 600-node float64 Gauss-Legendre rule taken
# exactly, to 50 digits. Each parity block (K(p_i - p_j) +- K(p_i + p_j))
# sqrt(w_i w_j), K(d) = sin(t d)/(pi d), was formed entry by entry in
# mpmath at 60 digits, with no addition theorem, and its determinant
# det(I - A) taken by unpivoted elimination of the positive definite
# I - A at the same precision; a rerun at 80 digits agreed to 50.
GAP_E_600 = {
    4.0: "1.5333152941021094126940289561554497154868828097671e-4",
    6.0: "6.2822506159175364144670942657402859546728982927157e-9",
    8.0: "4.8593926495719785392702193417481147360856887357980e-15",
}


# real half-widths: the gap determinant, and the bulk chain, which runs on
# imaginary x = -4it at real t
SPLIT_HALFWIDTHS = (0.7, 2.5, 4.0)


class TestParitySplit:
    """The even/odd block factorization against the full Nystrom matrix,
    at even and odd node counts (an odd rule puts a node at 0)."""

    @pytest.mark.parametrize("m,xi", [
        (m, xi) for m in (80, 81, 140)
        for xi in (1.0, 0.5, 0.5 + 0.5j, -0.6 - 0.7j)]
        + [(300, 1.0), (300, 0.5 + 0.5j)])
    def test_matches_full_matrix(self, m, xi):
        for t in SPLIT_HALFWIDTHS:
            got = complex(fredholm_sine(FredholmSpec(t, xi, m=m)))
            want = _full_determinant(t, xi, m)
            assert abs(got - want) <= 1e-12 * abs(want), t
            got = fredholm_log_derivatives(t, xi, m)
            want = _full_log_derivatives(t, xi, m)
            for g, v in zip(got, want):
                assert abs(g - v) <= 1e-12 * max(1.0, abs(v)), t

    @pytest.mark.parametrize("xi", [1.0, 0.5 + 0.5j])
    @pytest.mark.parametrize("t", [0.05, 6.0])
    def test_factor_matches_full_matrix_at_600_nodes(self, t, xi):
        # at t = 6 and xi = 1 both sides carry the rounding the guard
        # bounds, about 1e-9 relative
        got = complex(fredholm_sine(FredholmSpec(t, xi, m=600)))
        want = _full_determinant(t, xi, 600)
        tol = max(1e-12, _rounding_bound(t, xi, 600))
        assert abs(got - want) <= tol * abs(want)

    @pytest.mark.parametrize("t", [0.05, 1.0, 3.0, 6.0, 15.0])
    def test_factor_rank_does_not_grow_with_the_node_count(self, t):
        coarse, fine = ([len(rows) for rows in _lockstep_rows([t], m)[1]]
                        for m in (160, 600))
        assert all(f <= c + 1 for c, f in zip(coarse, fine)), (coarse, fine)

    @pytest.mark.parametrize("t", sorted(GAP_E_600))
    def test_matches_the_50_digit_parity_blocks_at_600_nodes(self, t):
        want = mp.mpf(GAP_E_600[t])
        got = fredholm_sine(FredholmSpec(t, 1.0, m=600))
        assert abs(got - want) <= _rounding_bound(t, 1.0, 600) * want

    @pytest.mark.parametrize("m", [80, 81])
    @pytest.mark.parametrize("xi", [0.5, 0.5 + 0.5j, -0.9 + 0.2j, 1.8])
    def test_log_is_principal_and_matches_determinant(self, m, xi):
        for t in (0.7, 2.5, 4.0):
            loge = fredholm_log_derivatives(t, xi, m)[0]
            assert -math.pi < loge.imag <= math.pi
            e = complex(fredholm_sine(FredholmSpec(t, xi, m=m)))
            assert abs(cmath.exp(loge) - e) <= 1e-12 * abs(e)

    def test_negative_determinant_takes_the_upper_branch(self):
        # xi > 1 pushes one factor below zero: log(-1) is +i pi
        e = fredholm_sine(FredholmSpec(2.5, 1.8, m=80))
        assert e < 0.0
        loge = fredholm_log_derivatives(2.5, 1.8, 80)[0]
        assert loge.imag == math.pi

    def test_real_arguments_stay_real(self):
        assert isinstance(fredholm_sine(FredholmSpec(2.0, 0.5, m=81)), float)
        assert all(v.imag == 0.0
                   for v in fredholm_log_derivatives(2.0, 0.5, 81))

    def test_quadrature_rule_is_read_only(self):
        x, w = _gl_rule(80)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[:] = 1.0

    @pytest.mark.parametrize("t,xi,m", [
        (1.0, 1.0, 9),
        (1.0, 1.0, 3),
        (1.0, 1.0, 10.9),
        (math.nan, 1.0, 80),
        (complex(1.0, math.inf), 1.0, 80),
        (1.0, math.nan, 80),
        (1.0, complex(math.inf, 0.0), 80),
    ])
    def test_log_derivatives_reject_bad_arguments(self, t, xi, m):
        with pytest.raises(ValueError):
            fredholm_log_derivatives(t, xi, m)

    @pytest.mark.parametrize("t,xi", [(math.inf, 1.0), (1.0, math.nan),
                                      (1.0, complex(0.5, math.inf))])
    def test_spec_rejects_non_finite(self, t, xi):
        with pytest.raises(ValueError):
            FredholmSpec(t, xi)


def _parity_fold(a, m):
    """The even and odd blocks of a full m x m Nystrom matrix: a in the
    orthonormal bases of reflection-symmetric and -antisymmetric node
    pairs, an odd rule's centre node in the even one; the odd basis
    keeps a zero column in its place."""
    half = m // 2
    pos = np.arange(half, m)
    cols = np.arange(len(pos))
    even = np.zeros((m, len(pos)))
    even[pos, cols] = even[m - 1 - pos, cols] = math.sqrt(0.5)
    odd = np.zeros((m, len(pos)))
    odd[pos, cols], odd[m - 1 - pos, cols] = math.sqrt(0.5), -math.sqrt(0.5)
    if m % 2:
        even[half, 0], odd[half, 0] = 1.0, 0.0
    return even.T @ a @ even, odd.T @ a @ odd


def _one_point_blocks(t, m):
    """(block, V) for the even and the odd block at one half-width: each
    whole block from its generators' columns."""
    gens, v = _sine_kernel_blocks([t], m)
    count, n = gens.diag.shape
    cols = [gens.columns(np.full((count, 1), j),
                         np.arange(count)[:, None] * n + j)
            for j in range(n)]
    return [(np.stack([c[k] for c in cols], axis=1), v[k])
            for k in range(count)]


@pytest.mark.parametrize("m", [80, 81])
@pytest.mark.parametrize("t", [0.7, 4.0])
def test_rank_forms_match_the_folded_full_kernels(m, t):
    """Each block and the rank-1, -2 and -3 forms its V gives against the
    full matrices of the kernel and its t-derivatives, folded by parity."""
    # (even blocks, odd blocks) of the four full matrices
    folded = zip(*(_parity_fold(a, m) for a in _full_kernels(t, m)))
    for (block, v), sign, wants in zip(_one_point_blocks(t, m), (1.0, -1.0),
                                       folded):
        v0, v1, v2 = v.T
        got = (block,
               2.0 / math.pi * np.outer(v0, v0),
               -sign * 2.0 / math.pi * (np.outer(v0, v1) + np.outer(v1, v0)),
               -2.0 / math.pi * (np.outer(v0, v2) + np.outer(v2, v0)
                                 - 2.0 * np.outer(v1, v1)))
        for k, (g, want) in enumerate(zip(got, wants)):
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(g - want)) <= 1e-14 * scale, (k, sign)


def _sequential_factor(a, b, x, diag):
    """Rows R of the diagonally pivoted Cholesky factor of one block,
    r x n, as the library formed it one block at a time: column j is
    (a b_j - a_j b) / ((pi/2) (x - x_j)) with diagonal diag."""
    def column(j):
        col = a * b[j] - a[j] * b
        den = (x - x[j]) * _HALF_PI
        den[j] = 1.0
        col /= den
        col[j] = diag[j]
        return col

    resid = diag.copy()
    n = len(resid)
    stop = np.finfo(float).eps * resid.sum()
    rows = np.empty((n, n))
    r = 0
    while r < n and resid.sum() > stop:
        j = int(np.argmax(resid))
        col = column(j) - rows[:r].T @ rows[:r, j]
        rows[r] = col / math.sqrt(resid[j])
        resid -= rows[r] * rows[r]
        r += 1
    return rows[:r]


def _lockstep_rows(ts, m):
    """The stacked generators of the grid and the rows of every block as
    the lockstep factors them, in block order."""
    gens, _ = _sine_kernel_blocks(ts, m)
    rows = [None] * len(gens.diag)
    for index, stack in _pivoted_cholesky(gens):
        for k, r in zip(index.tolist(), stack):
            rows[k] = r
    return gens, rows


def _flat_blocks(stack):
    """(a, b, x, diag, V) of every block _sine_kernel_blocks stacks, in
    order."""
    gens, v = stack
    return [(gens.a[k], gens.b[k], gens.x, gens.diag[k], v[k])
            for k in range(len(gens.diag))]


def _hex(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


class _GuardSpy(float):
    """eps, standing in for _EPS, that records in grid order each sum the
    Fredholm guard's bound m eps sum |xi lam| / |f| multiplies: m times
    it is a spy of its own, which records the float it multiplies. Every
    product it takes part in has the plain float's bits."""

    def __new__(cls, value, seen):
        spy = super().__new__(cls, value)
        spy.seen = seen
        return spy

    def __rmul__(self, other):
        return _GuardSpy(other * float(self), self.seen)

    def __mul__(self, other):
        if isinstance(other, float):
            self.seen.append(other)
        return float(self) * other


class TestFredholmGrid:
    """One lockstep pass over a grid of t keeps every bit and every
    refusal of the one-t evaluation."""

    @pytest.mark.parametrize("ts,m", [
        *(((0.5, 3.0, 6.0), m) for m in (80, 81, 140, 300, 600)),
        # ranks 2 to 12 in one lockstep, which deepens the row buffer
        ((0.05, 0.3, 1.0, 2.0, 4.0, 6.0, 9.0, 12.0, 15.0), 160),
        ((0.05, 0.3, 1.0, 2.0, 4.0, 6.0, 9.0, 12.0, 15.0), 81),
    ])
    def test_lockstep_rows_equal_the_sequential_factor(self, ts, m):
        ranks = []
        gens, rows = _lockstep_rows(ts, m)
        for k, got in enumerate(rows):
            want = _sequential_factor(gens.a[k], gens.b[k], gens.x,
                                      gens.diag[k])
            assert np.array_equal(got, want), (k, len(got), len(want))
            ranks.append(len(got))
        if len(ts) > 3:
            assert min(ranks) <= 2 and max(ranks) >= 12, ranks

    @pytest.mark.parametrize("m", [80, 81, 160, 300])
    @pytest.mark.parametrize("xi", [1.0, 0.5, 0.5 + 0.5j])
    def test_stacked_gram_and_spectrum_equal_each_block_alone(
            self, m, xi, monkeypatch):
        # t up to 15 takes ranks past 8, where numpy's pairwise summation
        # starts: each stacked sum must still be its block's 1-D sum
        ts = (0.05, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 9.0, 12.0, 15.0)
        guard_sums, ranks = [], []
        monkeypatch.setattr(rmt, "_EPS", _GuardSpy(rmt._EPS, guard_sums))
        for spec, logabs, pair in rmt._factored(ts, xi, m):
            cond, want_log = 0.0, 0.0
            for _, rows, gram, factors, moduli in pair:
                alone = rows @ rows.T
                lam = xi * np.linalg.eigvalsh(alone)
                assert np.array_equal(gram, alone)
                assert np.array_equal(factors, 1.0 - lam)
                assert np.array_equal(moduli, np.abs(1.0 - lam))
                cond += float((np.abs(lam) / np.abs(1.0 - lam)).sum())
                want_log += float(np.sum(np.log(np.abs(1.0 - lam))))
                ranks.append(len(rows))
            assert _hex(guard_sums[-1]) == _hex(cond), spec.t
            assert _hex(logabs) == _hex(want_log), spec.t
        assert len(guard_sums) == len(ts)
        assert max(ranks) > 8, ranks

    @pytest.mark.parametrize("m", [80, 81])
    def test_stacked_generators_equal_each_t_alone(self, m):
        # the blocks run over the even block of every t, then the odd ones
        ts = (0.05, 0.7, 2.5, 4.0, 6.0)
        grid = _flat_blocks(_sine_kernel_blocks(ts, m))
        for i, t in enumerate(ts):
            alone = _flat_blocks(_sine_kernel_blocks([t], m))
            for parity, want in enumerate(alone):
                got = grid[parity * len(ts) + i]
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), (
                    t, parity)

    @pytest.mark.parametrize("m", [21, 81])
    def test_odd_rule_factors_in_one_lockstep_with_a_zero_centre(
            self, m, monkeypatch):
        # both parities of every t share the order ceil(m/2): the odd
        # blocks keep the centre node, whose a, b, diagonal and V are 0
        ts = (0.05, 0.7, 2.5, 4.0, 6.0)
        calls = []

        def counted(gens):
            calls.append(gens.diag.shape)
            return _pivoted_cholesky(gens)

        monkeypatch.setattr(rmt, "_pivoted_cholesky", counted)
        fredholm_grid(ts, 1.0, m)
        fredholm_log_derivatives_grid(ts, 1.0, m)
        assert calls == [(2 * len(ts), (m + 1) // 2)] * 2
        gens, v = _sine_kernel_blocks(ts, m)
        odd = slice(len(ts), None)
        for centre in (gens.a[odd, 0], gens.b[odd, 0], gens.diag[odd, 0],
                       v[odd, 0]):
            assert np.all(centre == 0.0)

    # at m = 600 the grid's 14 blocks, both parities of every t, take one
    # lockstep
    @pytest.mark.parametrize("m", [80, 81, 140, 600])
    @pytest.mark.parametrize("xi", [1.0, 0.5, 0.5 + 0.5j, -0.9 + 0.2j, 1.8])
    def test_grid_rows_equal_the_one_point_values(self, m, xi):
        ts = [0.05, 0.7, 1.3, 2.5, 4.0, 5.5, 6.0]
        dets = fredholm_grid(ts, xi, m)
        jets = fredholm_log_derivatives_grid(ts, xi, m)
        for t, e, jet in zip(ts, dets, jets):
            one = fredholm_sine(FredholmSpec(t, xi, m))
            assert type(e) is type(one)
            assert _hex(e) == _hex(one), t
            assert [_hex(v) for v in jet] == [
                _hex(v) for v in fredholm_log_derivatives(t, xi, m)], t

    def test_empty_grid(self):
        assert fredholm_grid([], 1.0, 80) == []
        assert fredholm_log_derivatives_grid([], 1.0, 80) == []

    @pytest.mark.parametrize("ts,xi,m", [
        # a bad t after a guard-refused t: the argument check's wins
        ([2.0, 30.0, -1.0], 1.0, 80),
        ([2.0, -1.0, 30.0], 1.0, 80),
        # past the rule's resolution after a refused t, and before one
        ([30.0, 45.0], 1.0, 80),
        ([45.0, 30.0], 1.0, 80),
        ([0.5, 1.0], 0.5, 9),
        ([2.0, 30.0, math.nan], 1.0, 81),
        ([2.0, 30.0 + 0.0j], 1.0, 81),
        # two guard-refused t: the first in grid order
        ([2.0, 30.0, 35.0], 1.0, 81),
    ])
    def test_first_refusal_in_grid_order(self, ts, xi, m):
        # every t's arguments are checked before any t is computed
        for grid, one in (
                (fredholm_grid, lambda t: fredholm_sine(FredholmSpec(t, xi, m))),
                (fredholm_log_derivatives_grid,
                 lambda t: fredholm_log_derivatives(t, xi, m))):
            with pytest.raises(ValueError) as want:
                for t in ts:
                    FredholmSpec(t, xi, m)
                for t in ts:
                    one(t)
            with pytest.raises(ValueError) as got:
                grid(ts, xi, m)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("ts", [[0.5, 30.0], [0.5, -1.0], [30.0, 0.5]])
    def test_float_range_refusal_in_grid_order(self, ts):
        # the determinant's own float-range check comes after every t's
        # argument check, and before the next t's guard
        with pytest.raises(ValueError) as want:
            for t in ts:
                FredholmSpec(t, 1e300, 80)
            for t in ts:
                fredholm_sine(FredholmSpec(t, 1e300, 80))
        with pytest.raises(ValueError) as got:
            fredholm_grid(ts, 1e300, 80)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("grid", [fredholm_grid,
                                      fredholm_log_derivatives_grid])
    @pytest.mark.parametrize("ts", [[0.5, 2.0, -1.0], [30.0, 2.0, math.inf],
                                    [2.0, 45.0]])
    def test_refused_point_anywhere_raises_before_any_factor(
            self, grid, ts, monkeypatch):
        monkeypatch.setattr(rmt, "_sine_kernel_blocks", _never)
        with pytest.raises(ValueError):
            grid(ts, 1.0, 80)


# A 40-digit reference for E and l1..l3 on the same parity blocks: each
# entry straight from sin(t d)/(pi d) and its t-derivatives at
# d = p_i -+ p_j, on the library's float64 rule taken exactly; no addition
# theorem, and the resolvent traces are formed as dense products, not from
# the rank forms. That is about 4 (m/2)^3 multiplications per block, which
# mpmath's own numbers take seconds over, so the linear algebra runs in
# fixed point: Python integers scaled by 2^_FIX_BITS (48 digits), exact in
# every sum and rounded once per product.
_FIX_BITS = 160
_FIX_ONE = 1 << _FIX_BITS


def _to_fix(x):
    return int(mp.ldexp(x, _FIX_BITS))


@lru_cache(maxsize=None)
def _mp_parity_blocks(t, m):
    """(even, odd): the blocks of the kernel and its first three
    t-derivatives, each a (4, n, n) object array in fixed point; an odd
    rule's odd blocks keep the centre node's zero row and column."""
    x, w = _gl_rule(m)
    half = m // 2
    with mp.workprec(_FIX_BITS + 32):
        p = [mp.mpf(v) for v in x[half:]]
        sq = [mp.sqrt(mp.mpf(v) / mp.pi) for v in w[half:]]
        if m % 2:
            sq[0] = mp.sqrt(mp.mpf(w[half]) / (2 * mp.pi))
        tt = mp.mpf(t)

        def kernels(d):
            if d == 0:
                return (tt, 1, 0, 0)
            cos, sin = mp.cos_sin(tt * d)
            return (sin / d, cos, -d * sin, -d * d * cos)

        n = len(p)
        even = np.empty((4, n, n), dtype=object)
        odd = np.empty((4, n, n), dtype=object)
        for i in range(n):
            for j in range(i + 1):
                f = sq[i] * sq[j]
                pairs = zip(kernels(p[i] - p[j]), kernels(p[i] + p[j]))
                for k, (kd, ks) in enumerate(pairs):
                    even[k, i, j] = even[k, j, i] = _to_fix((kd + ks) * f)
                    odd[k, i, j] = odd[k, j, i] = _to_fix((kd - ks) * f)
    return even, odd


def _fix_mul(a, b):
    """Product of complex fixed-point matrices, each a (re, im) pair."""
    (ar, ai), (br, bi) = a, b
    return ((ar @ br - ai @ bi) >> _FIX_BITS,
            (ar @ bi + ai @ br) >> _FIX_BITS)


def _fix_trace(a, b):
    """tr(a b) of complex fixed-point matrices, as an mpc."""
    (ar, ai), (br, bi) = a, b
    re = np.sum(ar * br.T) - np.sum(ai * bi.T)
    im = np.sum(ar * bi.T) + np.sum(ai * br.T)
    return mp.mpc(re, im) / _FIX_ONE ** 2


def _fix_inverse_det(mat):
    """Inverse and determinant of a complex fixed-point matrix by
    Gauss-Jordan elimination; no pivoting, since I - xi A0 has a positive
    definite real part for these xi."""
    mr, mi = mat
    n = len(mr)
    eye = np.zeros((n, n), dtype=object)
    eye.flat[::n + 1] = _FIX_ONE
    ar = np.concatenate([mr, eye], axis=1)
    ai = np.concatenate([mi, np.zeros((n, n), dtype=object)], axis=1)
    det = mp.mpc(1)
    for k in range(n):
        pr, pi = ar[k, k], ai[k, k]
        det *= mp.mpc(pr, pi) / _FIX_ONE
        norm = pr * pr + pi * pi
        rr = ((ar[k] * pr + ai[k] * pi) << _FIX_BITS) // norm
        ri = ((ai[k] * pr - ar[k] * pi) << _FIX_BITS) // norm
        fr, fi = ar[:, k].copy(), ai[:, k].copy()
        fr[k] = fi[k] = 0
        ar -= (np.outer(fr, rr) - np.outer(fi, ri)) >> _FIX_BITS
        ai -= (np.outer(fr, ri) + np.outer(fi, rr)) >> _FIX_BITS
        ar[k], ai[k] = rr, ri
    return (ar[:, n:], ai[:, n:]), det


def _mp_reference(t, xi, m):
    """(E, log E, l1, l2, l3) from the dense traces of
    fredholm_log_derivatives' docstring, at 40 digits."""
    with mp.workdps(40):
        xi = mp.mpc(xi)
        xr, xim = _to_fix(xi.real), _to_fix(xi.imag)
        e = mp.mpc(1)
        tr = [0] * 6
        for a0, a1, a2, a3 in _mp_parity_blocks(t, m):
            zero = np.zeros_like(a0)
            mat = (-((a0 * xr) >> _FIX_BITS), -((a0 * xim) >> _FIX_BITS))
            mat[0].flat[::len(a0) + 1] += _FIX_ONE
            r, det = _fix_inverse_det(mat)
            e *= det
            # A1 and A2 are real: two integer products each
            c1, c2 = ([(a @ part) >> _FIX_BITS for part in r] for a in (a1, a2))
            pairs = (((a1, zero), r), ((a2, zero), r), ((a3, zero), r),
                     (c1, c1), (c1, c2), (_fix_mul(c1, c1), c1))
            tr = [s + _fix_trace(*pair) for s, pair in zip(tr, pairs)]
        l1 = -xi * tr[0]
        l2 = -xi * (xi * tr[3] + tr[1])
        l3 = -xi * (2 * xi ** 2 * tr[5] + 3 * xi * tr[4] + tr[2])
        return tuple(complex(v) for v in (e, mp.log(e), l1, l2, l3))


@pytest.mark.parametrize("m", [40, 41])
@pytest.mark.parametrize("t", [0.7, 2.5, 4.0])
@pytest.mark.parametrize("xi", [1.0, 0.5, 0.5 + 0.5j])
def test_matches_the_40_digit_parity_blocks(m, t, xi):
    want = _mp_reference(t, xi, m)
    got = (complex(fredholm_sine(FredholmSpec(t, xi, m=m))),
           *fredholm_log_derivatives(t, xi, m))
    for g, v in zip(got, want):
        assert abs(g - v) <= 1e-12 * max(1.0, abs(v))


class TestBulkLimit:
    def test_zero_argument_normalizes_to_one(self):
        r = bulk_limit_an(0.0, P_STD, [2, 3, 5])
        assert all(abs(v - 1.0) <= 1e-12 for v in r.normalized)
        assert abs(r.extrapolant - 1.0) <= 1e-10

    def test_limit_is_sine_kernel_determinant(self):
        # mu = omega = 0 reduces the weight to the pure jump; along
        # x = -4 i t the extrapolated average must meet the Fredholm
        # route's value at coupling xi*
        p0 = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)
        r = bulk_limit_an(-1.0j, p0, [8, 16, 32, 64])
        e = fredholm_sine(FredholmSpec(0.25, 0.5, m=120))
        assert abs(r.extrapolant - e) <= 1e-6

    def test_generic_self_anchor(self):
        r = bulk_limit_an(0.5, P_STD, [8, 16, 32, 64])
        assert abs(r.extrapolant - BULK_GENERIC_X_HALF) <= 1e-6
        assert 0.7 <= r.observed_order <= 1.3
        assert r.richardson_diff <= 1e-6

    def test_result_fields(self):
        r = bulk_limit_an(0.5, P_STD, [4, 2, 2])
        assert isinstance(r, BulkLimitResult)
        assert r.n_values == (2, 4)
        assert len(r.normalized) == 2
        assert math.isnan(r.observed_order)  # needs three dimensions

    def test_empty_dimension_list(self):
        with pytest.raises(ValueError):
            bulk_limit_an(0.5, P_STD, [])

    @pytest.mark.parametrize("bad", [[0], [65]])
    def test_dimension_bounds(self, bad):
        with pytest.raises(ValueError):
            bulk_limit_an(0.5, P_STD, bad)

    @pytest.mark.parametrize("bad", [[8.9, 16.2, 32.7], [8, 16.0], ["8"]])
    def test_dimension_that_is_not_an_integer_is_refused(self, bad):
        # no silent truncation of 8.9 to 8
        with pytest.raises(ValueError, match="must be integers"):
            bulk_limit_grid([0.3], P_STD, bad)

    def test_deterministic(self):
        a = bulk_limit_an(0.3, P_STD, [4, 8])
        b = bulk_limit_an(0.3, P_STD, [4, 8])
        assert a.extrapolant == b.extrapolant


def _bulk_reference(x, p, n_list):
    """The bulk limit as a loop of one-point calls: toeplitz_an and
    barnes_prefactor at each N, then the Neville table in 1/N at 0, the
    fitted order and the last column's change."""
    ns = sorted({int(n) for n in n_list})
    x = complex(x)
    vals = [toeplitz_an(replace(p, N=n), cmath.exp(-x / n))
            / barnes_prefactor(n, p.mu, p.omega1, p.omega2) for n in ns]
    hs = [1.0 / n for n in ns]
    work = list(vals)
    diag = [work[-1]]
    for mcol in range(1, len(ns)):
        for i in range(len(ns) - 1, mcol - 1, -1):
            work[i] = ((hs[i - mcol] * work[i] - hs[i] * work[i - 1])
                       / (hs[i - mcol] - hs[i]))
        diag.append(work[-1])
    rich = abs(diag[-1] - diag[-2]) if len(diag) >= 2 else math.nan
    fits = [math.log(abs(vals[i + 1] - vals[i]) / abs(vals[i + 2] - vals[i + 1]))
            / math.log(hs[i] / hs[i + 1]) for i in range(len(ns) - 2)
            if abs(vals[i + 1] - vals[i]) > 0.0
            and abs(vals[i + 2] - vals[i + 1]) > 0.0]
    order = sum(fits) / len(fits) if fits else math.nan
    return BulkLimitResult(x=x, n_values=tuple(ns), normalized=tuple(vals),
                           extrapolant=complex(diag[-1]),
                           observed_order=float(order),
                           richardson_diff=float(rich))


def _same_result(got, want):
    """Every field equal with ==, a nan field matching only a nan."""
    for field in ("x", "n_values", "normalized", "extrapolant"):
        assert getattr(got, field) == getattr(want, field), field
    for field in ("observed_order", "richardson_diff"):
        g, w = getattr(got, field), getattr(want, field)
        assert g == w or (math.isnan(g) and math.isnan(w)), field


P_GAP = SSEParams(N=2, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)


class TestBulkLimitGrid:
    @pytest.mark.parametrize("p, xs, dims", [
        # the gap point along x = -4 i t, real and complex coupling
        (P_GAP, [-4j * t for t in (0.2, 0.5, 1.0)], [8, 16, 32]),
        (replace(P_GAP, xi_star=0.5 + 0.25j), [-4j * t for t in (0.2, 0.7)],
         [8, 16, 32]),
        # a generic weight at real x
        (P_STD, [0.2, 0.5, 0.8], [4, 8, 16]),
        # complex mu, x on either axis
        (replace(P_STD, mu=0.25 + 0.15j), [0.3, -0.4j], [4, 8, 16]),
        # unsorted dimensions with duplicates
        (P_STD, [0.5, 0.1], [16, 4, 8, 4]),
        # a one-point grid, one and two dimensions
        (P_STD, [0.5], [8]),
        (P_GAP, [-2.0j], [16, 8]),
        # seed-only tables (kmax <= 1) beside recurred ones
        (P_STD, [0.3, -0.4j], [1, 2, 3, 64]),
        (P_GAP, [-4j * t for t in (0.2, 0.9)], [1, 2, 3, 64]),
        # x = 8 is refused by the recurrence at every N and takes the full
        # quadrature (test_one_seed_pass_and_one_march_cover_every_pair)
        (P_STD, [0.5, 3.0, 8.0], [4, 8, 16]),
    ])
    def test_grid_equals_points_bit_for_bit(self, p, xs, dims):
        got = bulk_limit_grid(xs, p, dims)
        assert len(got) == len(xs)
        for x, r in zip(xs, got):
            _same_result(r, _bulk_reference(x, p, dims))

    def test_empty_grid(self):
        assert bulk_limit_grid([], P_STD, [4, 8]) == []

    def test_x_off_both_axes_is_refused(self):
        # t = exp(-x/N) is then neither on the circle nor in (0, 1)
        with pytest.raises(ValueError, match="not holomorphic in t"):
            bulk_limit_grid([0.3, 0.2 - 0.4j], replace(P_STD, mu=0.25 + 0.15j),
                            [4, 8])

    @pytest.mark.parametrize("dims, passes", [
        ([4, 8, 16], [(9, 1), (1, 3), (1, 7), (1, 15)]),
        # kmax = 0 has its own seed pass, since a row's columns set its
        # level; at N = 64 the recurrence refuses x = 8 alone
        ([1, 2, 3, 64], [(3, 0), (9, 1), (1, 63)]),
    ])
    def test_one_seed_pass_and_one_march_cover_every_pair(
            self, dims, passes, monkeypatch):
        # every (N, x) takes the one seed pass, every N >= 3 the one march
        # at its own kmax, and a pair the recurrence refuses its own full
        # pass, in (N, grid) order
        xs = [0.5, 3.0, 8.0]
        calls = _counted_quadrature_tables(monkeypatch)
        marches, march = [], rmt._march_rows

        def counted(seeds, coeffs, kmaxes):
            marches.append(list(kmaxes))
            return march(seeds, coeffs, kmaxes)

        monkeypatch.setattr(rmt, "_march_rows", counted)
        bulk_limit_grid(xs, P_STD, dims)
        assert calls == passes
        assert marches == [[n - 1 for n in sorted(dims) if n >= 3
                            for _ in xs]]

    def test_every_pair_is_checked_before_any_is_computed(self, monkeypatch):
        # at x = 400 the N = 4 table stalls, and N = 64's t = e^{-400/64}
        # is too close to 0 for a table of order 63: the sweep checks every
        # (N, x) first, so the range refusal raises, and no table is made
        with pytest.raises(QuadratureError):
            bulk_limit_an(400.0, P_STD, [4])
        monkeypatch.setattr(rmt, "_quadrature_tables", _never)
        with pytest.raises(ValueError, match="too close to 0"):
            bulk_limit_grid([400.0], P_STD, [4, 64])

    def test_first_failure_in_dimension_then_grid_order(self):
        # N = 16 fails at x = 16 and 20, N = 4 only at x = 20: the error
        # raised is N = 4's at x = 20, not N = 16's at the earlier x = 16
        # that a loop over the grid would meet first
        xs = [0.2, 16.0, 20.0]
        with pytest.raises(QuadratureError) as want:
            toeplitz_an(replace(P_STD, N=4), cmath.exp(-20.0 / 4))
        with pytest.raises(QuadratureError) as grid_first:
            bulk_limit_an(16.0, P_STD, [4, 16])
        assert str(grid_first.value) != str(want.value)
        with pytest.raises(QuadratureError) as got:
            bulk_limit_grid(xs, P_STD, [16, 4])
        assert str(got.value) == str(want.value)
