"""Tests for the fifth-system monodromy and Stokes machinery."""

import cmath
import dataclasses
import math
import random
import re

import pytest

from taurmt.complexfn import exp_pi_i
from taurmt import monodromy_v
from taurmt.mat2 import IDENTITY, Mat2, det, inv, max_diff, mul, norm_product, tr
from taurmt.monodromy_v import (
    InconsistentKError,
    NonGenericError,
    hat_transform,
    limit_transition_ii,
    sse_pv_matrices,
)
from taurmt.monodromy_vi import (
    SSEParams,
    ThetaVI,
    pvi_matrices,
    sse_monodromy,
)

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


def random_unit(rng, lo=0.5, hi=2.0):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-3.0, 3.0))


def random_sl2(rng):
    """A random SL(2,C) matrix: three random entries, the fourth solved
    from det = 1."""
    m = Mat2(random_unit(rng), random_unit(rng), random_unit(rng), 0.0)
    return Mat2(m.a11, m.a12, m.a21, (1.0 + m.a12 * m.a21) / m.a11)


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
            m0, m1, m_inf = random_sl2(rng), random_sl2(rng), random_sl2(rng)
            s1 = Mat2(1.0, 0.0, random_unit(rng), 1.0)
            h0, h1, hi = hat_transform(s1, m0, m1, m_inf)
            assert abs(tr(h0) - tr(m0)) < 1e-9
            assert abs(tr(h1) - tr(m1)) < 1e-9
            assert abs(tr(hi) - tr(m_inf)) < 1e-9
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
    return sp.hat_m0, sp.hat_m1, sp.hat_m_inf


def _unhatted(sp):
    return sp.m0, sp.m1, sp.m_inf


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
        res = sse_pv_matrices(P_STD).residuals
        assert all(v < 1e-10 for v in res.values())

    def test_hat_transform_relates_both_sets(self):
        sp = sse_pv_matrices(P_STD)
        ht = hat_transform(sp.stokes.stokes_matrix_lower(), *_unhatted(sp))
        for got, ref in zip(ht, _hatted(sp)):
            assert max_diff(got, ref) < 1e-10

    def test_nan_residuals_refused(self):
        # a nan is never at or below the tolerance, so it is no pass
        p = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=1e200)
        with pytest.raises(InconsistentKError, match=re.escape(
                "monodromy data fails consistency checks: {'cyclic_unhatted': "
                "nan, 'cyclic_hatted': nan, 'trace_sigma': nan}")):
            sse_pv_matrices(p)

    def test_rebuilt_record_forms_its_own_residuals(self):
        sp = sse_pv_matrices(P_STD)
        skewed = dataclasses.replace(sp, m0=sp.m0._replace(a12=sp.m0.a12 * 1.001))
        cyc = mul(skewed.m_inf, mul(skewed.m1, skewed.m0))
        # the backward error: the residual over the factors' norm product
        size = norm_product(skewed.m_inf, skewed.m1, skewed.m0)
        assert size > 1
        residual = max_diff(cyc, IDENTITY)
        assert residual > 1e-4
        assert skewed.residuals["cyclic_unhatted"] == residual / size
        assert skewed.residuals["cyclic_hatted"] == sp.residuals["cyclic_hatted"]

    def test_record_hashes_and_compares_by_its_matrices(self):
        sp, again = sse_pv_matrices(P_STD), sse_pv_matrices(P_STD)
        assert sp == again and hash(sp) == hash(again)
        assert sp != dataclasses.replace(sp, m0=sp.m0._replace(a12=sp.m0.a12 * 1.001))

    def test_full_weight_kills_upper_left(self):
        p = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=1.0)
        sp = sse_pv_matrices(p)
        assert sp.m0.a11 == 0

    def test_hat_m_inf_leading_entry(self):
        sp = sse_pv_matrices(P_STD)
        lead = exp_pi_i(2 * P_STD.mu - 2 * P_STD.omega1)
        assert abs(sp.hat_m_inf.a11 - lead) < 1e-13

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

    def run_limit(self):
        m = self.mats
        return limit_transition_ii(m, self.theta6, self.theta_inf_v)

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
        assert max_diff(res.hat_m_inf_v, SSE_HAT_MINF) < 1e-9

    def test_k_solves_both_equations(self):
        res = self.run_limit()
        rr = res.residuals
        assert rr["k_equation_1"] < 1e-10
        assert rr["k_equation_2"] < 1e-10
        assert rr["cyclic_hatted"] < 1e-10
        assert abs(det(res.K) - 1.0) < 1e-12
        assert res.K.a11.real >= 0

    def test_hat_m_inf_is_the_stokes_product(self):
        res = self.run_limit()
        e_diag = Mat2.diag(exp_pi_i(self.theta_inf_v), exp_pi_i(-self.theta_inf_v))
        # bit for bit: repr tells -0.0 from 0.0 as well
        assert repr(res.hat_m_inf_v) == repr(mul(res.s0_hat, mul(res.s1_hat, e_diag)))

    def test_result_hashes_and_compares_by_its_matrices(self):
        res, again = self.run_limit(), self.run_limit()
        assert res == again and hash(res) == hash(again)
        assert res != dataclasses.replace(res, K=IDENTITY)

    def test_nan_k_residual_refused(self, monkeypatch):
        # the K equations are measured by max_diff; a nan there is no pass
        monkeypatch.setattr(monodromy_v, "max_diff", lambda a, b: math.nan)
        with pytest.raises(InconsistentKError, match="k_equation_1': nan"):
            self.run_limit()

    def test_nan_matching_entry_refused(self, monkeypatch):
        # a nan K makes the lower-left matching entry nan, which is no
        # nonzero entry to scale by
        nan = complex(math.nan, math.nan)
        monkeypatch.setattr(monodromy_v, "inv", lambda m: Mat2(nan, nan,
                                                               nan, nan))
        with pytest.raises(InconsistentKError, match="lower-left"):
            self.run_limit()

    def test_nan_shifted_product_refused(self):
        # a nan product is not above the degeneracy bound: refused as
        # non-generic, not carried on to a non-finite gamma argument
        nan = complex(math.nan, 0.0)
        self.mats = dataclasses.replace(self.mats, m0=Mat2(nan, nan, nan, nan))
        with pytest.raises(NonGenericError, match="shifted product"):
            self.run_limit()

    def test_nan_eigenvector_pair_refused(self, monkeypatch):
        # a nan det K^-1 is not at or above the degeneracy bound
        monkeypatch.setattr(monodromy_v, "_eigenvector",
                            lambda m, lam: (complex(math.nan, 0.0), 1 + 0j))
        with pytest.raises(InconsistentKError, match="parallel"):
            self.run_limit()

    def test_nan_eigenvector_rows_refused(self):
        nan = complex(math.nan, 0.0)
        with pytest.raises(NonGenericError, match="acts as a scalar"):
            monodromy_v._eigenvector(Mat2(nan, nan, nan, nan), 1 + 0j)

    def test_result_independent_of_vi_gauge(self):
        sm2 = sse_monodromy(P_EVEN, r=0.7 - 0.3j)
        m = sm2.matrices
        res = limit_transition_ii(m, self.theta6, self.theta_inf_v)
        assert max_diff(res.hat_m0v, SSE_HAT_M0) < 1e-9
        assert max_diff(res.hat_m1v, SSE_HAT_M1) < 1e-9

    def test_generic_sixth_system_data_closes(self):
        rng = random.Random(53)
        for _ in range(20):
            def draw(lo, hi):
                return complex(rng.uniform(lo, hi), rng.uniform(-0.2, 0.2))

            theta = ThetaVI(draw(0.15, 0.85), draw(0.15, 0.85),
                            draw(0.15, 0.85), draw(0.15, 0.85))
            mats = pvi_matrices(theta, draw(0.25, 0.75),
                                random_unit(rng), random_unit(rng))
            res = limit_transition_ii(mats, theta.theta_t,
                                      theta.theta0 + theta.theta_t)
            rr = res.residuals
            assert rr["cyclic_hatted"] < 1e-10
            assert rr["k_equation_1"] < 1e-10
            assert rr["k_equation_2"] < 1e-10

    def test_vanishing_shifted_product_rejected(self):
        lam = exp_pi_i(-self.theta6)
        with pytest.raises(NonGenericError):
            limit_transition_ii(dataclasses.replace(self.mats, mt=Mat2.diag(lam, lam)),
                                self.theta6, self.theta_inf_v)

    def test_mismatched_exponent_rejected(self):
        with pytest.raises(InconsistentKError, match=
                           r"^no common K solves both matching equations: residuals "
                           r"\{'k_equation_1': \S+, 'k_equation_2': \S+, "
                           r"'cyclic_hatted': \S+\}$"):
            limit_transition_ii(self.mats, self.theta6 + 0.13, self.theta_inf_v)


def test_every_built_matrix_holds_complex_entries():
    # Mat2 converts nothing, so a float literal at a construction site
    # would reach the residuals as a float; checked at the CLI defaults
    # and on three even-N SSE and three generic-theta draws
    rng = random.Random(26)
    sse_draws = [P_EVEN] + [
        SSEParams(N=2 * rng.randint(1, 4), mu=rng.uniform(0.1, 0.4),
                  omega1=rng.uniform(0.05, 0.3), omega2=rng.uniform(-0.4, 0.4),
                  xi_star=rng.uniform(0.0, 1.0))
        for _ in range(3)]
    generic_draws = [(ThetaVI(0.31, 0.27, 0.38, 0.52), 0.41, 1.1, 1.0)] + [
        (ThetaVI(*(0.1 + 0.35 * rng.random() for _ in range(4))),
         0.3 + 0.3 * rng.random(), 0.5 + rng.random(), 0.5 + rng.random())
        for _ in range(3)]
    mats = [IDENTITY]
    for p in sse_draws:
        sse = sse_monodromy(p, 1.0).matrices
        pv = sse_pv_matrices(p)
        lt = limit_transition_ii(sse, -2 * p.omega1, pv.theta.theta_inf)
        mats += [sse.m0, sse.mt, sse.m1, sse.m_inf,
                 pv.m0, pv.m1, pv.m_inf, pv.hat_m0, pv.hat_m1, pv.hat_m_inf,
                 pv.stokes.stokes_matrix_lower(),
                 lt.K, lt.s0_hat, lt.s1_hat, lt.hat_m0v, lt.hat_m1v,
                 lt.hat_m_inf_v]
    for theta, sigma, s, r in generic_draws:
        m = pvi_matrices(theta, sigma, s, r)
        mats += [m.m0, m.mt, m.m1, m.m_inf]
    assert all(type(x) is complex for m in mats for x in m)
