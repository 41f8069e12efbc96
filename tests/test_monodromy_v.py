"""Tests for the fifth-system monodromy and Stokes machinery."""

import cmath
import math
import random

import pytest

from taurmt.complexfn import GammaPoleError, exp_pi_i
from taurmt.mat2 import IDENTITY, Mat2, det, inv, max_diff, mul, tr
from taurmt.monodromy_v import (
    InconsistentKError,
    NonGenericError,
    SSEPVMatrices,
    StokesData,
    ThetaV,
    hat_transform,
    limit_transition_ii,
    sse_pv_matrices,
    sse_theta_v,
    stokes_from_sigma,
)
from taurmt.monodromy_vi import (
    DegenerateParameterError,
    MonodromyDataVI,
    SSEParams,
    ThetaVI,
    pvi_matrices,
    sse_monodromy,
)

THETA_STD = ThetaV(0.3, 0.5, 0.7)
SIGMA_STD = 0.4

S1_STD = -4.1668169332475429j
S2_STD = -0.34824100495440436 - 0.25301190009470035j

P_STD = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
P_EVEN = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)

SSE_HAT_M0 = Mat2(
    0.9363501722713925 + 0.448928222435017j, 0.17279458429832506 - 0.31295496689215619j,
    -5.6068185506576737 - 1.0240321641996783j, 0.40564280881305084 + 1.4905000693072986j,
)
SSE_HAT_M1 = Mat2(
    0.75944771778527861 - 0.79611883805911086j, 0.22070706073711863 - 0.11245586432867457j,
    -2.8383525133522092 - 7.4816292378696612j, 0.58254526329916473 - 1.1433094536832047j,
)
SSE_HAT_MINF = Mat2(
    0.58778525229247313 + 0.80901699437494742j, 0.38608455484401778j,
    -4.9266747626275307 + 3.5794387366996174j, -1.7633557568774194 - 0.80901699437494742j,
)
SSE_M0 = Mat2(
    -0.58254526329916473 - 1.1433094536832047j, -0.66212118221135589 - 0.33736759298602371j,
    0.75868975387200053 + 5.6488446598117864j, 1.9245382443836081 + 3.0827377454255203j,
)
SSE_M1 = Mat2(
    1.4442707469054481 + 0.54792203330399336j, 0.22070706073711863 - 0.11245586432867457j,
    7.4607481762919426 - 12.729283146148979j, -0.10227776582100473 - 2.487350325046309j,
)
SSE_MINF = Mat2(
    -1.7633557568774194 + 0.80901699437494742j, 0.38608455484401778j,
    4.9266747626275307 + 3.5794387366996174j, 0.58778525229247313 - 0.80901699437494742j,
)
SSE_SHAT0 = 6.0897049096402684j
SSE_SHAT1 = -0.31234896613449681 + 0.22693480747521817j


def random_theta_sigma(rng):
    def draw(lo, hi):
        return complex(rng.uniform(lo, hi), rng.uniform(-0.2, 0.2))

    theta = ThetaV(draw(0.15, 0.85), draw(0.15, 0.85), draw(0.15, 0.85))
    sigma = draw(0.25, 0.75)
    return theta, sigma


def random_unit(rng, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-3.0, 3.0))


def random_sl2(rng):
    """A random SL(2,C) matrix: three random entries, the fourth solved
    from det = 1."""
    m = Mat2(random_unit(rng), random_unit(rng), random_unit(rng), 0.0)
    return Mat2(m.a11, m.a12, m.a21, (1.0 + m.a12 * m.a21) / m.a11)


class TestStokesFromSigma:
    def test_standard_multipliers(self):
        sd = stokes_from_sigma(THETA_STD, SIGMA_STD, 1.0)
        assert abs(sd.s1 - S1_STD) < 1e-13
        assert abs(sd.s2 - S2_STD) < 1e-13

    def test_multiplier_constraint(self):
        rng = random.Random(21)
        for _ in range(100):
            theta, sigma = random_theta_sigma(rng)
            sd = stokes_from_sigma(theta, sigma, random_unit(rng))
            assert sd.constraint_residual(theta.theta_inf, sigma) < 1e-12

    def test_m_inf_trace_is_two_point_exponent(self):
        # tr Minf = 2 cos(pi sigma), not 2 cos(pi theta_inf)
        sd = stokes_from_sigma(THETA_STD, SIGMA_STD, 1.0)
        minf = sd.m_inf(THETA_STD.theta_inf)
        assert abs(det(minf) - 1.0) < 1e-12
        assert abs(tr(minf) - 2 * math.cos(math.pi * SIGMA_STD)) < 1e-12

    def test_sigma_equal_theta_inf_hits_pole(self):
        with pytest.raises(GammaPoleError):
            stokes_from_sigma(THETA_STD, THETA_STD.theta_inf, 1.0)

    def test_zero_r_rejected(self):
        with pytest.raises(DegenerateParameterError):
            stokes_from_sigma(THETA_STD, SIGMA_STD, 0.0)


class TestHatTransform:
    def test_identity_frame_reorders_only(self):
        rng = random.Random(31)
        m0, m1 = random_sl2(rng), random_sl2(rng)
        h0, h1, hi = hat_transform(IDENTITY, m0, m1, IDENTITY)
        assert max_diff(h0, mul(m1, mul(m0, inv(m1)))) < 1e-13
        assert max_diff(h1, m1) < 1e-13
        assert max_diff(hi, IDENTITY) < 1e-13

    def test_preserves_traces_and_dets(self):
        rng = random.Random(32)
        for _ in range(30):
            theta, sigma = random_theta_sigma(rng)
            m0, m1 = random_sl2(rng), random_sl2(rng)
            sd = stokes_from_sigma(theta, sigma, random_unit(rng))
            h0, h1, hi = hat_transform(sd.stokes_matrix_lower(), m0, m1,
                                       sd.m_inf(theta.theta_inf))
            assert abs(tr(h0) - tr(m0)) < 1e-9
            assert abs(tr(h1) - tr(m1)) < 1e-9
            assert abs(det(hi) - 1.0) < 1e-9

    def test_cyclic_relations_equivalent(self):
        # for any consistent unhatted triple, the hatted triple closes in
        # the reversed order
        rng = random.Random(33)
        for _ in range(30):
            m0, m1 = random_sl2(rng), random_sl2(rng)
            m_inf = inv(mul(m1, m0))
            s1 = Mat2(1.0, 0.0, random_unit(rng), 1.0)
            h0, h1, hi = hat_transform(s1, m0, m1, m_inf)
            assert max_diff(mul(h0, mul(h1, hi)), IDENTITY) < 1e-10


def _hatted(sp):
    return sp.data.hat_m0, sp.data.hat_m1, sp.data.hat_m_inf


def _unhatted(sp):
    return sp.data.m0, sp.data.m1, sp.data.m_inf


class TestSsePvMatrices:
    def test_standard_matrices(self):
        sp = sse_pv_matrices(P_STD)
        for got, ref in zip(_hatted(sp), (SSE_HAT_M0, SSE_HAT_M1, SSE_HAT_MINF)):
            assert max_diff(got, ref) < 1e-12
        for got, ref in zip(_unhatted(sp), (SSE_M0, SSE_M1, SSE_MINF)):
            assert max_diff(got, ref) < 1e-12
        assert abs(sp.stokes.s1 - SSE_SHAT0) < 1e-12
        assert abs(sp.stokes.s2 - SSE_SHAT1) < 1e-12

    def test_consistency_residuals(self):
        res = sse_pv_matrices(P_STD).data.residuals()
        assert all(v < 1e-10 for v in res.values())

    def test_hat_transform_relates_both_sets(self):
        sp = sse_pv_matrices(P_STD)
        ht = hat_transform(sp.stokes.stokes_matrix_lower(), *_unhatted(sp))
        for got, ref in zip(ht, _hatted(sp)):
            assert max_diff(got, ref) < 1e-10

    def test_stokes_match_exponent_formulas_at_pinned_r(self):
        # the gauge r = -2 mu aligns the generic multiplier formulas with the
        # explicit ones
        sp = sse_pv_matrices(P_STD)
        sd = stokes_from_sigma(sse_theta_v(P_STD), P_STD.sigma, -2 * P_STD.mu)
        assert abs(sd.s1 - sp.stokes.s1) < 1e-12
        assert abs(sd.s2 - sp.stokes.s2) < 1e-12

    def test_full_weight_kills_upper_left(self):
        p = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=1.0)
        sp = sse_pv_matrices(p)
        assert sp.data.m0.a11 == 0

    def test_hat_m_inf_leading_entry(self):
        sp = sse_pv_matrices(P_STD)
        lead = exp_pi_i(2 * P_STD.mu - 2 * P_STD.omega1)
        assert abs(sp.data.hat_m_inf.a11 - lead) < 1e-13

    def test_multiplier_constraint(self):
        sp = sse_pv_matrices(P_STD)
        thi = 2 * P_STD.mu - 2 * P_STD.omega1
        assert sp.stokes.constraint_residual(thi, P_STD.sigma) < 1e-12


class TestLimitTransitionII:
    def setup_method(self):
        sm = sse_monodromy(P_EVEN, r=1.0)
        self.mats = sm.matrices
        self.theta6 = -2 - 2 * P_EVEN.omega1
        self.theta_inf_v = 2 * P_EVEN.mu - 2 * P_EVEN.omega1

    def run_limit(self, **kw):
        m = self.mats
        return limit_transition_ii(m.m0, m.mt, self.theta6, self.theta_inf_v,
                                   m.m_inf, m.m1, **kw)

    def test_scalar_invariants(self):
        res = self.run_limit()
        assert abs(res.T - (-2.3511410091698925)) < 1e-12
        assert abs(res.l - (-0.7)) < 1e-12
        assert abs(res.alpha - (-2 * P_EVEN.mu)) < 1e-12
        assert abs(res.beta - 2 * P_EVEN.omega1) < 1e-12

    def test_stokes_entries(self):
        res = self.run_limit()
        assert abs(res.s0_hat.a21 - SSE_SHAT0) < 1e-12
        assert abs(res.s1_hat.a12 - SSE_SHAT1) < 1e-12

    def test_reproduces_explicit_hatted_set(self):
        res = self.run_limit()
        assert max_diff(res.hat_m0v, SSE_HAT_M0) < 1e-9
        assert max_diff(res.hat_m1v, SSE_HAT_M1) < 1e-9
        assert max_diff(res.hat_m_inf_v(), SSE_HAT_MINF) < 1e-9

    def test_k_solves_both_equations(self):
        res = self.run_limit()
        rr = res.residuals(self.mats.m0, self.mats.mt)
        assert rr["k_equation_1"] < 1e-10
        assert rr["k_equation_2"] < 1e-10
        assert rr["cyclic_hatted"] < 1e-10
        assert abs(det(res.K) - 1.0) < 1e-12
        assert res.K.a11.real >= 0

    def test_result_independent_of_vi_gauge(self):
        sm2 = sse_monodromy(P_EVEN, r=0.7 - 0.3j)
        m = sm2.matrices
        res = limit_transition_ii(m.m0, m.mt, self.theta6, self.theta_inf_v,
                                  m.m_inf, m.m1)
        assert max_diff(res.hat_m0v, SSE_HAT_M0) < 1e-9
        assert max_diff(res.hat_m1v, SSE_HAT_M1) < 1e-9

    def test_other_branch_swaps_alpha_beta_only(self):
        res_a = self.run_limit()
        res_b = self.run_limit(l_branch="other")
        assert abs(res_b.l + res_a.l) < 1e-12
        assert abs(res_b.alpha - res_a.beta) < 1e-12
        assert abs(res_b.beta - res_a.alpha) < 1e-12
        assert abs(res_b.s0_hat.a21 - res_a.s0_hat.a21) < 1e-12
        assert max_diff(res_b.hat_m0v, res_a.hat_m0v) < 1e-12

    def test_generic_sixth_system_data_closes(self):
        rng = random.Random(53)
        for _ in range(20):
            def draw(lo, hi):
                return complex(rng.uniform(lo, hi), rng.uniform(-0.2, 0.2))

            theta = ThetaVI(draw(0.15, 0.85), draw(0.15, 0.85),
                            draw(0.15, 0.85), draw(0.15, 0.85))
            data = MonodromyDataVI.create(theta, draw(0.25, 0.75),
                                          random_unit(rng), random_unit(rng))
            mats = pvi_matrices(data)
            res = limit_transition_ii(mats.m0, mats.mt, theta.theta_t,
                                      theta.theta0 + theta.theta_t,
                                      mats.m_inf, mats.m1)
            rr = res.residuals(mats.m0, mats.mt)
            assert rr["cyclic_hatted"] < 1e-10
            assert rr["k_equation_1"] < 1e-10
            assert rr["k_equation_2"] < 1e-10

    def test_vanishing_shifted_product_rejected(self):
        lam = exp_pi_i(-self.theta6)
        with pytest.raises(NonGenericError):
            limit_transition_ii(self.mats.m0, Mat2.diag(lam, lam), self.theta6,
                                self.theta_inf_v, self.mats.m_inf, self.mats.m1)

    def test_mismatched_exponent_rejected(self):
        with pytest.raises(InconsistentKError):
            limit_transition_ii(self.mats.m0, self.mats.mt, self.theta6 + 0.13,
                                self.theta_inf_v, self.mats.m_inf, self.mats.m1)
