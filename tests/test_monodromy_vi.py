"""Tests for the sixth-Painleve monodromy layer.

Matrix entries and coefficients marked as oracle values were frozen from a
40-digit arbitrary-precision evaluation of the same closed-form expressions,
run before this package was written.
"""

import cmath
import math
import random

import pytest

from taurmt.complexfn import cos_pi, exp_pi_i, sin_pi
from taurmt.mat2 import Mat2, max_diff, mul, tr
from taurmt.monodromy_vi import (
    DegenerateParameterError,
    MonodromyDataVI,
    SSEParams,
    ThetaVI,
    check_generic,
    connection_sigmas,
    manifold_residual,
    pvi_matrices,
    s_hat_vi,
    sse_monodromy,
    sse_offdiag_relation_residual,
    sse_theta_vi,
)

THETA_STD = ThetaVI(0.3, 0.4, 0.5, 0.6)
SIGMA_STD = 0.45


def random_generic_draw(rng):
    theta = ThetaVI(*(complex(rng.uniform(0.15, 0.85), rng.uniform(-0.3, 0.3))
                      for _ in range(4)))
    sigma = complex(rng.uniform(0.2, 0.8), rng.uniform(-0.2, 0.2))
    s = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
    r = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
    return theta, sigma, s, r


class TestCheckGeneric:
    def test_standard_set_passes(self):
        assert check_generic(ThetaVI(0.3, 0.4, 0.5, 0.6 + 0.1j), 0.45) == ()

    def test_integer_exponent_flagged(self):
        violations = check_generic(ThetaVI(1.0, 0.4, 0.5, 0.6), 0.45)
        assert violations
        assert any("theta0" in v and "(a)" in v for v in violations)

    def test_sigma_range_flagged(self):
        assert any("(b)" in v for v in check_generic(THETA_STD, 1.2))

    def test_resonance_flagged(self):
        # theta0 + theta_t + sigma = 2
        violations = check_generic(ThetaVI(0.3, 0.4, 0.5, 0.6), 1.3)
        assert any("(c)" in v and "theta0/theta_t" in v for v in violations)


class TestPviMatrices:
    def test_oracle_matrices(self):
        data = MonodromyDataVI.create(THETA_STD, SIGMA_STD, 1.2, 1.0)
        mats = pvi_matrices(data)
        m0_ref = Mat2(complex(0.58778525229247313, 0.77476454824083846),
                      complex(0.0, -0.44331594587728249),
                      complex(0.0, -0.12236959324639341),
                      complex(0.58778525229247313, -0.77476454824083846))
        mt_ref = Mat2(complex(0.19506719136991914, -0.15107620195292221),
                      complex(0.92473478727201495, -0.61511717586212637),
                      complex(-0.65354733518679893, -0.47196061402901306),
                      complex(0.4229667973799757, 0.15107620195292221))
        m1_ref = Mat2(complex(0.0, -0.1644849305587246),
                      complex(1.1074909813353844, -0.35984563323617644),
                      complex(-0.7946220512549227, -0.25818835551371841),
                      complex(0.0, 0.1644849305587246))
        assert max_diff(mats.m0, m0_ref) < 1e-13
        assert max_diff(mats.mt, mt_ref) < 1e-13
        assert max_diff(mats.m1, m1_ref) < 1e-13

    def test_m_inf_diagonal(self):
        data = MonodromyDataVI.create(THETA_STD, SIGMA_STD, 1.2, 1.0)
        mats = pvi_matrices(data)
        assert mats.m_inf.a12 == 0 and mats.m_inf.a21 == 0
        assert abs(mats.m_inf.a11 - exp_pi_i(0.6)) < 1e-15
        assert abs(mats.m_inf.a22 - exp_pi_i(-0.6)) < 1e-15

    def test_invariants_on_random_draws(self):
        rng = random.Random(42)
        for _ in range(100):
            theta, sigma, s, r = random_generic_draw(rng)
            data = MonodromyDataVI(theta, sigma, s, r, 0.0)
            mats = pvi_matrices(data)
            res = mats.residuals(theta)
            assert res["cyclic"] <= 1e-10
            for name in ("det_m0", "det_mt", "det_m1", "det_m_inf"):
                assert res[name] <= 1e-12
            for name in ("tr_m0", "tr_mt", "tr_m1", "tr_m_inf"):
                assert res[name] <= 1e-10
            assert abs(tr(mul(mats.m0, mats.mt)) - 2 * cos_pi(sigma)) <= 1e-10
            inv_triple = (2 * cos_pi(sigma),
                          tr(mul(mats.mt, mats.m1)),
                          tr(mul(mats.m0, mats.m1)))
            p_nu = [2 * cos_pi(v) for v in theta.as_tuple()]
            assert abs(manifold_residual(*p_nu, *inv_triple)) <= 1e-9

    def test_r_independence_of_trace_invariants(self):
        rng = random.Random(43)
        for _ in range(20):
            theta, sigma, s, _ = random_generic_draw(rng)
            mats_a = pvi_matrices(MonodromyDataVI(theta, sigma, s, 0.7 + 0.2j, 0.0))
            mats_b = pvi_matrices(MonodromyDataVI(theta, sigma, s, 1.9 - 1.1j, 0.0))
            for pair in (("m0", "mt"), ("mt", "m1"), ("m0", "m1"), ("m0", "m_inf"),
                         ("mt", "m_inf"), ("m1", "m_inf")):
                ta = tr(mul(getattr(mats_a, pair[0]), getattr(mats_a, pair[1])))
                tb = tr(mul(getattr(mats_b, pair[0]), getattr(mats_b, pair[1])))
                assert abs(ta - tb) <= 1e-10 * max(1.0, abs(ta))

    @pytest.mark.parametrize("sigma,factor", [(1.0, "sin(pi sigma_0t)"), (0.0, "sin(pi sigma_0t)")])
    def test_degenerate_sigma(self, sigma, factor):
        data = MonodromyDataVI(THETA_STD, sigma, 1.2, 1.0, 0.0)
        with pytest.raises(DegenerateParameterError) as exc:
            pvi_matrices(data)
        assert factor in str(exc.value)

    def test_degenerate_theta_inf(self):
        data = MonodromyDataVI(ThetaVI(0.3, 0.4, 0.5, 1.0), SIGMA_STD, 1.2, 1.0, 0.0)
        with pytest.raises(DegenerateParameterError) as exc:
            pvi_matrices(data)
        assert "theta_inf" in str(exc.value)

    def test_zero_s_rejected(self):
        data = MonodromyDataVI(THETA_STD, SIGMA_STD, 0.0, 1.0, 0.0)
        with pytest.raises(DegenerateParameterError):
            pvi_matrices(data)


class TestManifold:
    def test_identity_monodromy_point(self):
        # all matrices = identity: every p = 2, the constraint sums to zero
        assert manifold_residual(2, 2, 2, 2, 2, 2, 2) == 0

    def test_random_inconsistent_point_nonzero(self):
        rng = random.Random(77)
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1)) for _ in range(7)]
        assert abs(manifold_residual(*vals)) > 1e-3


class TestConnectionSigmas:
    def test_oracle_values(self):
        ct1, c01 = connection_sigmas(THETA_STD, SIGMA_STD, 1.2)
        assert abs(ct1 - complex(-0.9184805042002605, 0.0)) < 1e-12
        assert abs(c01 - complex(0.048190503511922985, 0.10837270267848122)) < 1e-12

    def test_matches_matrix_traces(self):
        rng = random.Random(44)
        for _ in range(50):
            theta, sigma, s, r = random_generic_draw(rng)
            mats = pvi_matrices(MonodromyDataVI(theta, sigma, s, r, 0.0))
            ct1, c01 = connection_sigmas(theta, sigma, s)
            assert abs(ct1 - tr(mul(mats.mt, mats.m1)) / 2) <= 1e-9
            assert abs(c01 - tr(mul(mats.m0, mats.m1)) / 2) <= 1e-9

    def test_manifold_consistency(self):
        ct1, c01 = connection_sigmas(THETA_STD, SIGMA_STD, 1.2)
        p_nu = [2 * cos_pi(v) for v in THETA_STD.as_tuple()]
        res = manifold_residual(*p_nu, 2 * cos_pi(SIGMA_STD), 2 * ct1, 2 * c01)
        assert abs(res) <= 1e-9

    def test_degenerate_sigma_raises(self):
        with pytest.raises(DegenerateParameterError):
            connection_sigmas(THETA_STD, 0.0, 1.2)


class TestSHatMap:
    def test_oracle_value(self):
        got = s_hat_vi(THETA_STD, SIGMA_STD, 1.0)
        assert got == pytest.approx(complex(1.8970806484271328, 0.0), rel=1e-12)

    def test_linear_in_s(self):
        a = s_hat_vi(THETA_STD, SIGMA_STD, 1.3)
        b = s_hat_vi(THETA_STD, SIGMA_STD, 2.6)
        assert b == pytest.approx(2 * a, rel=1e-13)


def _off_diagonals(res):
    """The upper-right entries (m0, mt, m1) of the triangular matrices."""
    return tuple(m.a12 for m in (res.matrices.m0, res.matrices.mt, res.matrices.m1))


class TestSSEMonodromy:
    P_STD = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)

    def test_oracle_values(self):
        res = sse_monodromy(self.P_STD, 1.0)
        assert abs(res.data.s_hat_0t - complex(1.5301707389703977, -0.52362398492143275)) < 1e-13
        m0, mt, m1 = _off_diagonals(res)
        assert abs(m0 - complex(1.2991403250741809, -0.59914891569537317)) < 1e-13
        assert abs(mt - complex(-1.3854723442945708, -0.28933236762217626)) < 1e-13
        assert abs(m1 - complex(-0.73962105427312202, -0.80901699437494742)) < 1e-13

    def test_upper_triangular_with_unit_diagonals(self):
        res = sse_monodromy(self.P_STD, 1.0)
        theta = res.data.theta
        for mat, th, sign in ((res.matrices.m0, theta.theta0, -1),
                              (res.matrices.mt, theta.theta_t, 1),
                              (res.matrices.m1, theta.theta1, -1)):
            assert mat.a21 == 0
            assert abs(mat.a11 - exp_pi_i(sign * th)) < 1e-14
            assert abs(mat.a22 - exp_pi_i(-sign * th)) < 1e-14

    def test_cyclic_and_m_inf_structure(self):
        res = sse_monodromy(self.P_STD, 1.0)
        inv_res = res.matrices.residuals(res.data.theta)
        assert inv_res["cyclic"] <= 1e-10
        mi = res.matrices.m_inf
        theta = res.data.theta
        assert abs(mi.a21) <= 1e-13
        assert abs(mi.a11 - exp_pi_i(theta.theta_inf)) < 1e-12
        assert abs(mi.a22 - exp_pi_i(-theta.theta_inf)) < 1e-12

    def test_exponents(self):
        theta = sse_theta_vi(self.P_STD)
        p = self.P_STD
        assert theta.theta0 == p.N + 2 * p.mu
        assert theta.theta_t == -p.N - 2 * p.omega1
        assert theta.theta1 == -p.mu - p.omega
        assert theta.theta_inf == p.mu + p.omega_bar

    def test_offdiag_relation(self):
        assert sse_offdiag_relation_residual(sse_monodromy(self.P_STD, 1.0)) <= 1e-12

    def test_offdiag_relation_is_s_hat_independent(self):
        # the s_hat-dependent parts of m0 and mt cancel in the relation, so
        # the residual stays at rounding level even when xi_star is tuned to
        # push s_hat within a whisker of zero
        p = self.P_STD
        numer = sin_pi(2 * p.mu) * sin_pi(p.mu + p.omega) / sin_pi(p.sigma)
        xi_zero = -numer * 2j / exp_pi_i(-(p.mu - p.omega_bar))
        for eps in (1e-3, 1e-6, 1e-9):
            p_eps = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3,
                              xi_star=xi_zero * (1 + eps))
            res = sse_monodromy(p_eps, 1.0)
            assert abs(res.data.s_hat_0t) < 5 * eps
            assert sse_offdiag_relation_residual(res) <= 1e-10

    def test_s_hat_exactly_zero_is_degenerate(self):
        p = self.P_STD
        numer = sin_pi(2 * p.mu) * sin_pi(p.mu + p.omega) / sin_pi(p.sigma)
        xi_zero = -numer * 2j / exp_pi_i(-(p.mu - p.omega_bar))
        p0 = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=xi_zero)
        with pytest.raises(DegenerateParameterError):
            sse_monodromy(p0, 1.0)

    def test_even_n_phases(self):
        # N enters through (-1)^N and integer exponent shifts only
        res2 = sse_monodromy(SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5), 1.0)
        assert res2.matrices.residuals(res2.data.theta)["cyclic"] <= 1e-10

    def test_r_is_pure_gauge(self):
        # the whole r family is a single diagonal-conjugation orbit: every
        # off-diagonal entry scales linearly in r
        base = _off_diagonals(sse_monodromy(self.P_STD, 1.0))
        for r in (2.0, 0.7 - 0.3j):
            scaled = _off_diagonals(sse_monodromy(self.P_STD, r))
            for got, ref in zip(scaled, base):
                assert abs(got - r * ref) < 1e-12 * max(1.0, abs(r * ref))

    def test_matches_degenerate_limit_of_generic_parameterization(self):
        # push the generic matrices toward the resonance sigma ->
        # theta_inf - theta1 with the coefficient scaled to vanish linearly;
        # the triangular set is the limit, at every gauge r
        p = self.P_STD
        theta = sse_theta_vi(p)
        s_hat = sse_monodromy(p, 1.0).data.s_hat_0t
        for r in (1.0, 0.7 - 0.3j):
            tri = sse_monodromy(p, r)
            eps = 1e-7
            sigma = p.sigma + eps
            s = eps * math.pi * s_hat / 2
            mats = pvi_matrices(MonodromyDataVI.create(theta, sigma, s, r))
            for m, ref in zip((mats.m0, mats.mt, mats.m1),
                              (tri.matrices.m0, tri.matrices.mt, tri.matrices.m1)):
                assert abs(m.a21) < 1e-5
                assert abs(m.a12 - ref.a12) < 1e-5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SSEParams(N=-1, mu=0.25, omega1=0.1, omega2=0.0)
        with pytest.raises(ValueError):
            SSEParams(N=1, mu=-0.6, omega1=0.1, omega2=0.0)

    def test_degenerate_omega1(self):
        with pytest.raises(DegenerateParameterError):
            sse_monodromy(SSEParams(N=1, mu=0.25, omega1=0.0, omega2=0.0, xi_star=0.5), 1.0)
