"""Tests for the boundary-expansion and asymptotics module."""

import cmath
import json
import math
import random
from dataclasses import replace

import pytest

from taurmt.complexfn import GammaPoleError
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import (
    DegenerateParameterError,
    SSEParams,
    ThetaVI,
    sse_monodromy,
)
from taurmt.rmt_numerics import fredholm_log_derivatives
from taurmt.sigma_ode import BulkParams, bulk_okamoto_params, sigma_map
from taurmt.tau_series import (
    GAP_E_CONSTANT,
    ZETA_PRIME_MINUS_ONE,
    BoundaryExpansion,
    _cpow,
    an_series,
    bulk_series,
    gap_asymptotics,
    pv_tau_series,
    pvi_tau_series,
    zeta0_series,
)

P_STD = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)


class TestBoundaryExpansionRecord:
    def test_terms_sorted_by_real_exponent(self):
        s = BoundaryExpansion(0.0, ((1.45, 2.0), (0.0, 1.0), (0.55, 3.0)), 1.1)
        assert [e.real for e, _ in s.terms] == [0.0, 0.55, 1.45]

    def test_evaluate_principal_branch(self):
        s = BoundaryExpansion(0.0, ((0.5j, 1.0),), 1.0)
        w = -0.3 + 0.0j
        # principal log of a negative real has +i pi
        expected = cmath.exp(0.5j * (math.log(0.3) + 1j * math.pi))
        assert abs(s.evaluate(w) - expected) < 1e-14

    def test_integer_exponents_exact(self):
        s = BoundaryExpansion(0.0, ((2.0, 1.0),), 3.0)
        assert s.evaluate(-0.5) == 0.25

    def test_derivative(self):
        s = BoundaryExpansion(0.0, ((0.0, 1.0), (1.0, 3.0), (1.5, 2.0)), 2.0)
        d = s.log_derivatives(0.25)[0] * s.evaluate(0.25)
        assert abs(d - (3.0 + 3.0 * 0.25 ** 0.5)) < 1e-14

    def test_json_round_trip_shape(self):
        s = BoundaryExpansion(1.0, ((0.0, 1.0), (1.7, 0.5 - 0.25j)), 2.0)
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert doc["anchor"]["re"] == 1.0
        assert doc["terms"][1]["exp"]["re"] == 1.7
        assert doc["terms"][1]["coef"]["im"] == -0.25
        assert doc["remainder_exp"]["re"] == 2.0


class TestPviTauSeries:
    THETA = ThetaVI(0.3, 0.4, 0.5, 0.6)

    def test_reference_coefficients(self):
        exp = pvi_tau_series(self.THETA, 0.45, 2.0)
        assert abs(exp.prefactor_exponent - (-0.011875)) < 1e-15
        assert abs(exp.coefficient(1.0) - 0.015559413580246914) < 1e-14
        assert abs(exp.coefficient(1.45) - (-0.0091840254840651194)) < 1e-14
        assert abs(exp.coefficient(0.55) - (-0.17504910213243547)) < 1e-13
        assert abs(exp.remainder_exponent - 1.1) < 1e-14

    def test_branch_coefficient_vanishes_at_printed_zero(self):
        # theta0 = theta_t - sigma kills the s_hat term
        exp = pvi_tau_series(ThetaVI(0.3, 0.75, 0.5, 0.6), 0.45, 2.0)
        assert abs(exp.coefficient(1.45)) < 1e-15

    def test_inverse_branch_vanishes_symmetrically(self):
        # theta_inf = theta1 + sigma kills the 1/s_hat term
        exp = pvi_tau_series(ThetaVI(0.3, 0.4, 0.2, 0.65), 0.45, 2.0)
        assert abs(exp.coefficient(0.55)) < 1e-15

    def test_degenerate_sigma_rejected(self):
        with pytest.raises(DegenerateParameterError):
            pvi_tau_series(self.THETA, 0.0, 2.0)
        with pytest.raises(DegenerateParameterError):
            pvi_tau_series(self.THETA, 1.0, 2.0)

    def test_normalization_slot(self):
        exp = pvi_tau_series(self.THETA, 0.45, 2.0)
        assert exp.normalization is None
        pinned = replace(exp, normalization=3.0)
        assert abs(pinned.evaluate(0.1) - 3.0 * exp.evaluate(0.1)) < 1e-13


class TestAnSeries:
    def test_reference_coefficients(self):
        exp = an_series(P_STD)
        assert abs(exp.normalization - 1.408783256220043) < 1e-12
        assert abs(exp.coefficient(1.0) - (-0.42857142857142857j)) < 1e-14
        assert abs(exp.coefficient(1.7)
                   - (0.48063501972259318 + 0.014053588990369434j)) < 1e-12

    def test_reference_partial_sum(self):
        got = an_series(P_STD).evaluate(0.05)
        assert abs(got - (1.4129414871028755 - 0.030066627510779088j)) < 1e-12

    def test_real_weight_kills_linear_term(self):
        p = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.0, xi_star=0.5)
        assert an_series(p).coefficient(1.0) == 0

    def test_n_zero_rejected(self):
        with pytest.raises(DegenerateParameterError):
            an_series(SSEParams(N=0, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5))

    def test_nan_sigma_rejected(self):
        # SSEParams refuses a nan mu; one set past its check meets the
        # series' own branch exponent check
        with pytest.raises(ValueError, match="convergent weight"):
            SSEParams(N=2, mu=math.nan, omega1=0.1, omega2=0.3, xi_star=0.5)
        p = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
        object.__setattr__(p, "mu", complex(math.nan))
        with pytest.raises(DegenerateParameterError, match="Re"):
            an_series(p)

    def test_branch_gamma_argument_off_pole(self):
        # the 1/Gamma(-N - 2mu - 2omega1) factor is regular for non-integer
        # exponent sums, for any N
        for n in (1, 2, 5, 9):
            p = SSEParams(N=n, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
            c = an_series(p).coefficient(1.7)
            assert c == c  # finite, not nan

    def test_integer_exponent_sum_rejected(self):
        with pytest.raises((DegenerateParameterError, GammaPoleError)):
            an_series(SSEParams(N=2, mu=0.25, omega1=0.25, omega2=0.3, xi_star=0.5))


class TestBulkSeries:
    def test_reference_coefficients(self):
        exp = bulk_series(P_STD)
        assert exp.normalization == 1.0
        assert abs(exp.coefficient(1.0) - (-0.21428571428571429j)) < 1e-14
        assert abs(exp.coefficient(1.7)
                   - (0.11524218386917556 + 0.0033696385406638417j)) < 1e-13

    def test_zero_weight_leaves_sine_product(self):
        from taurmt.complexfn import sin_pi
        p = SSEParams(N=1, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.0)
        base = bulk_series(p).coefficient(1.7)
        full = bulk_series(P_STD).coefficient(1.7)
        bracket0 = sin_pi(2 * p.mu) * sin_pi(p.mu + p.omega) / sin_pi(p.sigma)
        # at xi*=0 the coefficient is the pure sine product times the gammas
        ratio = base / bracket0
        bracket_full = bracket0 + 0.5 * cmath.exp(-1j * math.pi * (p.mu - p.omega_bar)) / 2j
        assert abs(full - ratio * bracket_full) < 1e-13

    def test_zero_mu_kills_linear_term(self):
        p = SSEParams(N=1, mu=0.0, omega1=0.1, omega2=0.3, xi_star=0.5)
        assert bulk_series(p).coefficient(1.0) == 0

    def test_sine_kernel_point_rejected(self):
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)
        with pytest.raises(DegenerateParameterError):
            bulk_series(p)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="convergent weight"):
            SSEParams(N=1, mu=0.0, omega1=math.nan, omega2=0.0, xi_star=0.5)
        p = SSEParams(N=1, mu=0.0, omega1=0.1, omega2=0.0, xi_star=0.5)
        object.__setattr__(p, "omega1", complex(math.nan))
        with pytest.raises(DegenerateParameterError, match="2 mu"):
            bulk_series(p)

    def test_agrees_with_an_series_under_scaling(self):
        # t = e^{-x/N}: the finite-size series converges to the bulk one
        # with relative error O(1/N) in the branch coefficient
        bulk = bulk_series(P_STD)
        sg = P_STD.sigma
        errs = []
        for n in (10, 100, 1000):
            p = SSEParams(N=n, mu=0.25, omega1=0.1, omega2=0.3, xi_star=0.5)
            fin = an_series(p)
            # analytic term: N mu (omega_bar - omega)/sigma * (x/N) is N-exact
            assert abs(fin.coefficient(1.0) / n
                       - bulk.coefficient(1.0)) < 1e-14 * n
            ratio = (fin.coefficient(1 + sg)
                     / (n ** (1 + sg) * bulk.coefficient(1 + sg)))
            errs.append(abs(ratio - 1))
        assert errs[1] < 0.2 * errs[0]
        assert errs[2] < 0.2 * errs[1]


class TestPvTauSeries:
    THETA = ThetaV(0.3, 0.5, 0.7)

    def test_reference_coefficients(self):
        exp = pv_tau_series(self.THETA, 0.4, 1.5)
        assert abs(exp.prefactor_exponent - (-0.0825)) < 1e-15
        assert abs(exp.coefficient(1.0) - (-0.35)) < 1e-14
        assert abs(exp.coefficient(1.4) - (-0.014349489795918367)) < 1e-14
        assert abs(exp.coefficient(0.6) - 1.1458333333333333) < 1e-13

    def test_theta_inf_equal_sigma_is_resonant(self):
        # every zero of a branch coefficient sits on a resonance line, so the
        # vanishing cases are rejected rather than returned as 0
        with pytest.raises(DegenerateParameterError):
            pv_tau_series(self.THETA, 0.7, 1.5)

    def test_bulk_configuration_is_resonant(self):
        # theta0 = theta1 + sigma holds identically for the spectrum
        # singularity; that degenerate expansion is served by bulk_series
        p = P_STD
        theta = ThetaV(p.mu + p.omega_bar, -p.mu - p.omega, 2 * p.mu - 2 * p.omega1)
        with pytest.raises(DegenerateParameterError):
            pv_tau_series(theta, p.sigma, 1.5)

    def test_integer_theta_rejected(self):
        with pytest.raises(DegenerateParameterError):
            pv_tau_series(ThetaV(1.0, 0.5, 0.7), 0.4, 1.5)

    def test_resonant_sum_rejected(self):
        # theta1 + theta0 + sigma = 2
        with pytest.raises(DegenerateParameterError):
            pv_tau_series(ThetaV(0.8, 0.8, 0.7), 0.4, 1.5)


class TestSigmaMaps:
    def test_vi_constant_term(self):
        theta = ThetaVI(0.3, 0.4, 0.5, 0.6)
        expected = -(0.16 + 0.09 - 0.36 - 0.25) / 8
        assert abs(sigma_map(theta).to_sigma(0.0, 0.0) - expected) < 1e-15

    def test_v_linear_slope(self):
        theta = ThetaV(0.3, 0.5, 0.7)
        z0 = sigma_map(theta).to_sigma(0.0, 0.0)
        z1 = sigma_map(theta).to_sigma(1.0, 0.0)
        assert abs((z1 - z0) - 0.5) < 1e-15
        assert abs(z0 - ((0.3 + 0.7) ** 2 - 0.25) / 4) < 1e-15

    def test_affine_evaluation(self):
        theta = ThetaVI(0.3, 0.4, 0.5, 0.6)
        t, d = 0.37, 1.2 - 0.4j
        expected = (t * (t - 1) * d + (0.16 - 0.36) / 4 * t
                    - (0.16 + 0.09 - 0.36 - 0.25) / 8)
        m = sigma_map(theta)
        assert abs(m.to_sigma(t, m.scale(t) * d) - expected) < 1e-14

    @pytest.mark.parametrize("params", [ThetaVI(0.3, 0.4, 0.5, 0.6),
                                        ThetaV(0.3, 0.5, 0.7),
                                        bulk_okamoto_params(P_STD)],
                             ids=["ThetaVI", "ThetaV", "BulkParams"])
    def test_log_derivatives_invert_the_jet(self, params):
        m = sigma_map(params)
        t, l1, l2, l3 = 0.37 + 0.1j, 1.2 - 0.4j, -0.3 + 0.7j, 0.5 + 0.2j
        got = m.log_derivatives(t, *m.jet(t, l1, l2, l3))
        assert abs(got[0] - l1) < 1e-14
        assert abs(got[1] - l2) < 1e-13
        assert abs(got[2] - l3) < 1e-12


class TestBulkConversion:
    def test_okamoto_parameters(self):
        v = bulk_okamoto_params(P_STD)
        assert v.as_tuple() == (0.25 - 0.15j, -0.25 - 0.15j, 0.1 + 0.15j, -0.1 + 0.15j)
        assert sum(v.as_tuple()) == 0

    def test_non_finite_refused(self):
        with pytest.raises(ValueError):
            BulkParams(float("nan"), 0.0, 0.0)
        # an infinite weight, and finite ones whose roots overflow
        for draw in [(float("inf"), 0.0, 0.0), (1.5e308, 0.0, 1.5e308j)]:
            with pytest.raises(ValueError, match="finite"):
                BulkParams(*draw)

    def test_roots_equal_the_okamoto_expressions_by_repr(self):
        # the roots as bulk_okamoto_params formed them from (mu, omega2),
        # signed zeros included
        rng = random.Random(29)
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0),
                 complex(-0.0, -0.0)]
        for _ in range(300):
            draw = [rng.choice(zeros) if rng.random() < 0.3
                    else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(3)]
            mu, omega1, omega2 = map(complex, draw)
            half = 0.5j * omega2
            assert repr(BulkParams(*draw).as_tuple()) == repr(
                (mu - half, -mu - half, omega1 + half, -omega1 + half))

    def test_complex_weight_accepted_unchanged(self):
        # the four roots of a complex (mu, omega2) sum to a few ulps, not to 0
        p = SSEParams(N=2, mu=0.14 + 0.147j, omega1=0.045, omega2=0.217,
                      xi_star=0.5)
        half = 0.5j * p.omega2
        v = bulk_okamoto_params(p)
        assert sum(v.as_tuple()) != 0
        assert v.as_tuple() == (p.mu - half, -p.mu - half, p.omega1 + half,
                                -p.omega1 + half)

    def test_bulk_map_is_the_h_to_u_shift(self):
        m = sigma_map(bulk_okamoto_params(P_STD))
        assert m.slope == 0.15j
        assert abs(m.intercept - (2 * 0.25 * 0.1 + 0.3 ** 2 / 2)) < 1e-16

    def test_trivial_at_zero_parameters(self):
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)
        m = sigma_map(bulk_okamoto_params(p))
        x, h, dh, d2h = 1.3 + 0.4j, 0.27 - 0.1j, 0.5 + 0.2j, -0.3 + 0.6j
        l2 = (dh - h / x) / x
        assert m.log_derivatives(x, h, dh, d2h) == (h / x, l2,
                                                    (d2h - 2 * l2) / x)

    def test_reference_value(self):
        # shift is (omb-om)/4*x + (om-omb)^2/8 - mu*(om+omb)
        # = -0.15j*(1+0.2j) - 0.045 - 0.05 at the standard parameter point
        x = 1 + 0.2j
        l1, _, _ = sigma_map(bulk_okamoto_params(P_STD)).log_derivatives(
            x, 0.3, 0.0, 0.0)
        assert abs(x * l1 - (0.235 - 0.15j)) < 1e-14

    def test_round_trip(self):
        m = sigma_map(bulk_okamoto_params(P_STD))
        x, h, dh, d2h = 0.8 - 0.3j, 0.4 + 0.1j, -0.2 + 0.3j, 0.1 - 0.5j
        got_h, got_dh, got_d2h = m.jet(x, *m.log_derivatives(x, h, dh, d2h))
        assert abs(got_h - h) < 1e-14
        assert abs(got_dh - dh) < 1e-14
        assert abs(got_d2h - d2h) < 1e-14


class TestZetaSeries:
    def test_zero_parameter_form(self):
        p = SSEParams(N=1, mu=0.0, omega1=0.0, omega2=0.0, xi_star=0.5)
        s = 7.0 - 3.0j
        expected = s * s / 16 - 0.25 + 1 / s ** 2
        assert abs(zeta0_series(s, p) - expected) < 1e-14

    def test_reference_value(self):
        got = zeta0_series(-10j, P_STD)
        assert abs(got - (-7.643553 - 2.65j)) < 1e-12


class TestGapAsymptotics:
    def test_full_weight_series(self):
        got = gap_asymptotics(2.0, 1.0).log_derivative
        assert abs(got - (-4 - 0.25 - 1 / 64 - 5 / 512)) < 1e-15

    def test_full_weight_e_form(self):
        res = gap_asymptotics(2.0, 1.0)
        expected = GAP_E_CONSTANT * 2.0 ** -0.25 * math.exp(-2.0)
        assert abs(res.gap_probability - expected) < 1e-15
        assert abs(GAP_E_CONSTANT - 0.64500244850957708466) < 1e-15
        assert abs(ZETA_PRIME_MINUS_ONE - (-0.16542114370045092921)) < 1e-16

    def test_partial_weight_reference(self):
        got = gap_asymptotics(3.0, 0.5)
        assert abs(got.log_derivative - (-1.2994735668885491845)) < 1e-13
        assert got.gap_probability is None

    def test_small_weight_limit(self):
        assert abs(gap_asymptotics(3.0, 1e-12).log_derivative) < 1e-11

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gap_asymptotics(-1.0, 0.5)
        with pytest.raises(ValueError):
            gap_asymptotics(2.0, 0.0)
        with pytest.raises(ValueError):
            gap_asymptotics(2.0, 1.5)

    @pytest.mark.parametrize("t,xi", [
        (2.0, 0.5 + 0.1j), (2.0, 1.5 + 0j), (math.inf, 0.5), (math.nan, 0.5),
        (2.0, math.inf)])
    def test_non_finite_t_and_complex_coupling_refused(self, t, xi):
        with pytest.raises(ValueError):
            gap_asymptotics(t, xi)

    @pytest.mark.parametrize("t,xi", [(3.0, 0.5), (2.0, 1.0)])
    def test_real_complex_coupling_reads_as_its_real_part(self, t, xi):
        assert gap_asymptotics(t, complex(xi)) == gap_asymptotics(t, xi)


class TestBranchBracket:
    def test_series_and_monodromy_carry_one_bracket(self):
        # the branch coefficients of an_series and bulk_series and the s_hat
        # of sse_monodromy are xi*-free multiples of SSEParams.branch_bracket,
        # so a change of its xi* term moves all three together
        ratios = []
        for xi in (0.0, 0.5, 1.0, 0.3 + 0.2j):
            p = SSEParams(N=2, mu=0.25, omega1=0.1, omega2=0.3, xi_star=xi)
            s_hat = sse_monodromy(p, 1.0).s_hat
            branch = 1 + p.sigma
            ratios.append((an_series(p).coefficient(branch) / s_hat,
                           bulk_series(p).coefficient(branch) / s_hat,
                           p.branch_bracket() / s_hat))
        for row in ratios[1:]:
            for got, ref in zip(row, ratios[0]):
                assert abs(got - ref) <= 1e-13 * abs(ref)


class TestGapPointCrossRoute:
    """zeta0_series at the sine-kernel point against the Fredholm route.

    There the bulk average is the gap probability E(t) of (-t, t) and the
    zeta-function at s = -4it is t d/dt log E, which the resolvent traces
    give to within 1e-9 at m = 300 nodes for t <= 5.
    """

    GAP = SSEParams(N=0, mu=0.0, omega1=0.0, omega2=0.0)
    TS = (3.0, 4.0, 5.0)

    def fredholm(self, t, m=300):
        return (t * fredholm_log_derivatives(t, 1.0, m=m)[1]).real

    @pytest.fixture(scope="class")
    def reference(self):
        return {t: self.fredholm(t) for t in self.TS}

    def zeta0_error(self, t, reference):
        return abs(zeta0_series(-4j * t, self.GAP) - reference[t])

    def test_reference_is_node_converged(self, reference):
        # m doubling moves it 5.7e-12, 5.0e-11 and 4.1e-10 at t = 3, 4, 5:
        # six orders below the errors measured against it
        for t in self.TS:
            assert abs(self.fredholm(t, m=600) - reference[t]) <= 1e-9

    def test_zeta0_within_twice_its_first_omitted_term(self, reference):
        for t in self.TS:
            assert self.zeta0_error(t, reference) <= 2 * 5 / (32 * t ** 4)

    def test_zeta0_error_decays_like_its_truncation(self, reference):
        ratio = self.zeta0_error(5.0, reference) / self.zeta0_error(4.0, reference)
        assert ratio <= (5.0 / 4.0) ** -3.5

    def test_gap_asymptotics_adds_a_correct_term(self, reference):
        for t in self.TS:
            better = abs(gap_asymptotics(t, 1.0).log_derivative - reference[t])
            assert better < self.zeta0_error(t, reference)


class TestLogDerivatives:
    def test_against_analytic_differences(self):
        exp = an_series(P_STD)
        w, h = 0.05, 1e-5
        d1, d2, d3 = exp.log_derivatives(w)
        d1p = exp.log_derivatives(w + h)
        d1m = exp.log_derivatives(w - h)
        assert abs(d2 - (d1p[0] - d1m[0]) / (2 * h)) < 1e-8
        # the w**(sigma - 4) tail of d2''' makes the h**2 truncation larger here
        assert abs(d3 - (d1p[1] - d1m[1]) / (2 * h)) < 1e-6

    def test_normalization_free(self):
        exp = pvi_tau_series(ThetaVI(0.3, 0.4, 0.5, 0.6), 0.45, 2.0)
        pinned = replace(exp, normalization=5.0)
        assert exp.log_derivatives(0.1) == pinned.log_derivatives(0.1)

    @pytest.mark.parametrize("exp", [
        pvi_tau_series(ThetaVI(0.3, 0.4, 0.5, 0.6), 0.45, 2.0),
        bulk_series(P_STD),
    ])
    def test_expansion_point_refused(self, exp):
        with pytest.raises(ValueError, match="expansion point"):
            exp.log_derivatives(0.0)


class _ChainSeries:
    """The two-record form of an expansion: the series alone, re-sorted on
    every derivative. The reference BoundaryExpansion must equal bit for
    bit."""

    def __init__(self, terms):
        self.terms = tuple(sorted(((complex(e), complex(c)) for e, c in terms),
                                  key=lambda ec: ec[0].real))

    def evaluate(self, w):
        return sum(c * _cpow(w, e) for e, c in self.terms)

    def derivative(self):
        return _ChainSeries((e - 1, c * e) for e, c in self.terms if e != 0)


def _chain_evaluate(exp, w):
    const = 1.0 if exp.normalization is None else exp.normalization
    return (const * _cpow(w, exp.prefactor_exponent)
            * _ChainSeries(exp.terms).evaluate(w))


def _chain_log_derivatives(exp, w):
    p = exp.prefactor_exponent
    series = _ChainSeries(exp.terms)
    s1 = series.derivative()
    s2 = s1.derivative()
    v, v1 = series.evaluate(w), s1.evaluate(w)
    v2, v3 = s2.evaluate(w), s2.derivative().evaluate(w)
    return (p / w + v1 / v,
            -p / w ** 2 + (v2 * v - v1 * v1) / v ** 2,
            2 * p / w ** 3
            + (v3 * v * v - 3 * v2 * v1 * v + 2 * v1 ** 3) / v ** 3)


def _random_expansions(rng):
    u = rng.uniform
    theta6 = ThetaVI(*(0.3 + u(-0.05, 0.05) + 0.1 * k for k in range(4)))
    theta5 = ThetaV(0.3 + u(-0.05, 0.05), 0.5 + u(-0.05, 0.05),
                    0.7 + u(-0.05, 0.05))
    sigma = complex(u(0.3, 0.5), u(-0.1, 0.1))
    s_hat = complex(u(0.5, 2.0), u(-1.0, 1.0))
    p = SSEParams(N=rng.randint(1, 6), mu=complex(u(0.05, 0.25), u(-0.1, 0.1)),
                  omega1=u(0.0, 0.15), omega2=u(-0.5, 0.5),
                  xi_star=complex(u(0.0, 1.0), u(-0.2, 0.2)))
    return [pvi_tau_series(theta6, sigma, s_hat),
            pv_tau_series(theta5, sigma, s_hat),
            an_series(p), bulk_series(p),
            # integer exponents only, the exact-power path of _cpow
            BoundaryExpansion(0.0, ((2.0, u(-1, 1)), (0.0, 1.0), (1.0, u(-1, 1)),
                                    (3.0, complex(u(-1, 1), u(-1, 1)))),
                              4.0, prefactor_exponent=-1.0)]


class TestOneRecordMatchesTheSeriesChain:
    @pytest.mark.parametrize("seed", range(8))
    def test_evaluate_and_log_derivatives_bit_identical(self, seed):
        rng = random.Random(seed)
        points = [-rng.uniform(0.01, 0.9),
                  complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                  rng.uniform(0.01, 0.9)]
        for exp in _random_expansions(rng):
            for w in points:
                assert exp.evaluate(w) == _chain_evaluate(exp, w)
                assert exp.log_derivatives(w) == _chain_log_derivatives(exp, w)

    def test_coefficient_within_the_fixed_tolerance(self):
        exp = BoundaryExpansion(0.0, ((0.0, 1.0), (1.5, 2.0)), 2.0)
        assert exp.coefficient(1.5 + 5e-13) == 2.0
        assert exp.coefficient(1.5 + 5e-12) == 0.0


class TestSHatDegeneracy:
    @pytest.mark.parametrize("build, theta", [
        (pvi_tau_series, ThetaVI(0.3, 0.4, 0.5, 0.6)),
        (pv_tau_series, ThetaV(0.3, 0.5, 0.7)),
    ])
    def test_s_hat_below_the_degeneracy_tolerance_refused(self, build, theta):
        for s_hat in (1e-13, -1e-13j, 0.0):
            with pytest.raises(DegenerateParameterError, match="s_hat"):
                build(theta, 0.4, s_hat)
        exp = build(theta, 0.4, 1e-12)
        assert exp.coefficient(1.4) != 0
