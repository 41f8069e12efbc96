"""Tests for the complex special-function layer.

Frozen reference values were computed beforehand with a 40-digit
arbitrary-precision oracle, independent of this implementation.
"""

import cmath
import math
import random

import mpmath as mp
import pytest

from taurmt.complexfn import (
    DEGENERACY_TOL,
    DegenerateParameterError,
    GammaPoleError,
    backward_error,
    barnes_prefactor,
    barnes_prefactors,
    cos_pi,
    gamma_ratio,
    ln_gamma,
    require_nonzero,
    sin_pi,
)

# (argument, loggamma) pairs from the arbitrary-precision oracle
LOGGAMMA_ANCHORS = [
    (complex(2.0, 3.0), complex(-2.0928517530927333, 2.3023965434668676)),
    (complex(0.5, 0.0), complex(0.57236494292470009, 0.0)),
    (complex(10.0, 10.0), complex(8.2361317504487178, 23.948703413782037)),
    (complex(-4.5, 0.3), complex(-3.1948065971620298, -15.2244572710153)),
    (complex(-4.5, -0.3), complex(-3.1948065971620298, 15.2244572710153)),
    (complex(30.0, -20.0), complex(64.92007281642481, -69.045990246024976)),
    (complex(0.001, 0.001), complex(6.5606044738375526, -0.78597373492965343)),
    (complex(49.0, 5.0), complex(140.41665532740307, 19.416735290769292)),
    (complex(0.25, -6.0), complex(-8.9535613253674279, -4.3595945496197081)),
    (complex(-25.3, 40.0), complex(-158.68693195096143, 59.20685357694142)),
]

# a nan in the left half-plane would recurse through the reflection
# without end (Im nan >= 0 is False), an inf has no nearest integer for the
# pole check, and a nan with Re z >= 0.5 would come back as nan
NON_FINITE = [math.nan, math.inf, -math.inf, complex(0.5, math.nan),
              complex(-1.5, math.nan), complex(0.3, math.inf),
              complex(-math.inf, 1.0)]


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_at_half(self):
        assert ln_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ln_gamma(0.5).imag == 0.0

    @pytest.mark.parametrize("z,ref", LOGGAMMA_ANCHORS)
    def test_oracle_anchors(self, z, ref):
        got = ln_gamma(z)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7, complex(-3.0, 1e-13)])
    def test_pole_error(self, z):
        with pytest.raises(GammaPoleError):
            ln_gamma(z)

    @pytest.mark.parametrize("z", NON_FINITE)
    def test_non_finite_argument_raises(self, z):
        with pytest.raises(ValueError, match="is not finite"):
            ln_gamma(z)

    def test_exp_matches_gamma_on_reals(self):
        for x in (0.3, 1.7, 4.25, 9.5):
            assert cmath.exp(ln_gamma(x)).real == pytest.approx(math.gamma(x), rel=1e-13)

    def test_recurrence_property(self):
        rng = random.Random(7)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(0.2, 20) * rng.choice([-1, 1]))
            lhs = cmath.exp(ln_gamma(z + 1))
            rhs = z * cmath.exp(ln_gamma(z))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_reflection_property(self):
        # ln_gamma(z) + ln_gamma(1-z) - ln(pi/sin(pi z)) must be in 2 pi i Z
        rng = random.Random(11)
        for _ in range(200):
            z = complex(rng.uniform(-10, 10), rng.uniform(0.1, 5) * rng.choice([-1, 1]))
            lhs = ln_gamma(z) + ln_gamma(1 - z)
            rhs = cmath.log(math.pi / sin_pi(z))
            k = (lhs - rhs) / (2j * math.pi)
            assert abs(k.real - round(k.real)) < 1e-9
            assert abs(k.imag) < 1e-9


class TestGammaRatio:
    def test_unit(self):
        assert gamma_ratio((1.0,), (1.0,)) == pytest.approx(1.0)

    def test_twelve(self):
        assert gamma_ratio((5.0,), (3.0,)) == pytest.approx(12.0, rel=1e-13)

    def test_oracle_anchor(self):
        # Gamma(1 + 2 mu)/Gamma(2 omega1) at mu = 0.25, omega1 = 0.1
        got = gamma_ratio((1.5,), (0.2,))
        assert got == pytest.approx(0.19304227742200889, rel=1e-12)

    def test_matches_direct_quotient(self):
        rng = random.Random(3)
        for _ in range(100):
            nums = tuple(complex(rng.uniform(0.2, 6), rng.uniform(-2, 2)) for _ in range(3))
            dens = tuple(complex(rng.uniform(0.2, 6), rng.uniform(-2, 2)) for _ in range(3))
            direct = 1.0 + 0.0j
            for a in nums:
                direct *= cmath.exp(ln_gamma(a))
            for a in dens:
                direct /= cmath.exp(ln_gamma(a))
            got = gamma_ratio(nums, dens)
            assert abs(got - direct) <= 1e-12 * abs(direct)

    def test_denominator_pole_raises(self):
        with pytest.raises(GammaPoleError):
            gamma_ratio((1.5,), (-2.0,))

    def test_numerator_pole_raises(self):
        with pytest.raises(GammaPoleError) as info:
            gamma_ratio((-1.0,), (2.5,))
        assert str(info.value) == ("numerator argument (-1+0j) is a pole of "
                                   "the gamma function")

    @pytest.mark.parametrize("z", NON_FINITE)
    def test_non_finite_argument_raises(self, z):
        for args in (((z,), ()), ((), (z,)), ((1.5, z), (2.5,))):
            with pytest.raises(ValueError, match="is not finite"):
                gamma_ratio(*args)

    def test_pole_pair_reported_not_cancelled(self):
        with pytest.raises(GammaPoleError):
            gamma_ratio((-3.0,), (-1.0,))


class TestSinCosPi:
    def test_exact_integer_zeros(self):
        for n in (-6, -1, 0, 1, 2, 7, 1001):
            assert sin_pi(n) == 0

    def test_exact_half_integer_zeros(self):
        for x in (-2.5, -0.5, 0.5, 1.5, 3.5):
            assert cos_pi(x) == 0

    def test_oracle_anchor(self):
        ref_s = complex(0.97403388102773308, 0.3941006060677481)
        ref_c = complex(0.70767703828476211, -0.54243294903838056)
        assert abs(sin_pi(0.3 + 0.2j) - ref_s) < 1e-15
        assert abs(cos_pi(0.3 + 0.2j) - ref_c) < 1e-15

    def test_pythagorean_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            z = complex(rng.uniform(-40, 40), rng.uniform(-3, 3))
            s, c = sin_pi(z), cos_pi(z)
            # identity holds to machine precision relative to the summand size
            scale = abs(s) ** 2 + abs(c) ** 2
            assert abs(s ** 2 + c ** 2 - 1.0) < 1e-13 * max(1.0, scale)

    def test_large_argument_reduction(self):
        # reduction mod 2 keeps accuracy at large real parts
        assert abs(sin_pi(1000000.25) - math.sin(math.pi * 0.25)) < 1e-14


class TestBarnesPrefactor:
    def test_empty_product(self):
        assert barnes_prefactor(0, 0.7, 0.2, 0.1) == 1.0

    def test_trivial_parameters(self):
        for n in (1, 2, 5):
            assert barnes_prefactor(n, 0.0, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_oracle_anchor(self):
        got = barnes_prefactor(2, 0.25, 0.1, 0.3)
        assert got == pytest.approx(complex(1.408783256220043, 0.0), rel=1e-12)

    @pytest.mark.parametrize("mu, omega1, omega2", [
        (0.25, 0.1, 0.3),
        (0.25 + 0.15j, 0.1, 0.3),
        (-0.2 - 0.1j, -0.2, -0.4),
    ])
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
    def test_barnes_g_reference(self, n, mu, omega1, omega2):
        # G(N+1) G(N+1+a) G(1+b) G(1+c) / (G(1+a) G(N+1+b) G(N+1+c)) with
        # a = 2 mu + 2 omega1, b = mu + omega, c = mu + conj-omega, at 30
        # digits; the log-gamma sum drifts to about 1e-12 by N = 64
        with mp.workdps(30):
            a = 2 * mp.mpc(mu) + 2 * mp.mpf(omega1)
            b = mp.mpc(mu) + mp.mpc(omega1, omega2)
            c = mp.mpc(mu) + mp.mpc(omega1, -omega2)
            g = mp.barnesg
            want = complex(g(n + 1) * g(n + 1 + a) * g(1 + b) * g(1 + c)
                           / (g(1 + a) * g(n + 1 + b) * g(n + 1 + c)))
        got = barnes_prefactor(n, mu, omega1, omega2)
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("mu", [0.25, 0.25 + 0.15j])
    def test_sweep_entries_are_the_single_products(self, mu):
        sweep = barnes_prefactors(64, mu, 0.1, 0.3)
        assert len(sweep) == 65
        for n, v in enumerate(sweep):
            assert v == barnes_prefactor(n, mu, 0.1, 0.3)

    @pytest.mark.parametrize("mu, omega1, omega2", [
        (0.0, 0.0, 0.0),
        # integer and repeated arguments: a = 2, b = c = 1
        (0.5, 0.5, 0.0),
        (0.25, 0.1, 0.0),
        (0.25 + 0.15j, 0.1, 0.3),
        # signed zeros in the weight
        (complex(-0.0, -0.0), -0.0, -0.0),
        (complex(-0.25, -0.0), -0.0, -0.0),
    ])
    def test_sweep_is_the_literal_log_gamma_sum(self, mu, omega1, omega2):
        # each distinct argument evaluated once, and ln k! from its table,
        # give the bits of four ln_gamma calls per k
        om = complex(omega1) + 1j * complex(omega2)
        omb = complex(omega1) - 1j * complex(omega2)
        acc, want = 0j, [1.0 + 0j]
        for k in range(40):
            acc += ln_gamma(k + 1)
            acc += ln_gamma(2 * complex(mu) + complex(omega1) * 2 + k + 1)
            acc -= ln_gamma(1 + k + complex(mu) + om)
            acc -= ln_gamma(1 + k + complex(mu) + omb)
            want.append(cmath.exp(acc))
        got = barnes_prefactors(40, mu, omega1, omega2)
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want]

    def test_pole_propagates(self):
        # 2 mu + 2 omega1 + 1 = 0 puts the k = 0 numerator factor at a pole
        with pytest.raises(GammaPoleError):
            barnes_prefactor(1, -0.75, 0.25, 0.0)


class TestBackwardError:
    def test_residual_over_the_largest_size(self):
        assert backward_error(3e-12, 1.0, 300.0, 2.0) == 1e-14

    def test_zero_stays_zero(self):
        assert backward_error(0.0, 5.0) == 0.0
        assert backward_error(0.0, 0.0) == 0.0
        assert backward_error(0.0, math.nan) == 0.0

    @pytest.mark.parametrize("residual, sizes", [
        (math.nan, (1.0,)),
        (1e-16, (math.nan, 1.0)),
        (1e-16, (1.0, math.nan)),
        (1e-16, (math.inf, 1.0)),
    ])
    def test_nan_or_an_unbounded_size_is_nan(self, residual, sizes):
        # never at or below a bound: nan fails every `value <= tol`
        assert math.isnan(backward_error(residual, *sizes))

    def test_nothing_to_cancel_is_infinite(self):
        assert backward_error(1e-300, 0.0) == math.inf


def test_one_degeneracy_policy():
    # the layer re-exports the one exception; its modules keep no tolerance
    from taurmt import monodromy_v, monodromy_vi
    assert monodromy_vi.DegenerateParameterError is DegenerateParameterError
    for module in (monodromy_v, monodromy_vi):
        assert not [name for name in vars(module) if name.endswith("_TOL")
                    and name.startswith("_")]
    with pytest.raises(DegenerateParameterError, match="x = "):
        require_nonzero("x", complex(math.nan, 0.0))
    with pytest.raises(DegenerateParameterError):
        require_nonzero("x", 0.5 * DEGENERACY_TOL)
    assert require_nonzero("x", DEGENERACY_TOL) == DEGENERACY_TOL
