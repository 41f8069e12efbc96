"""The one near-integer policy (complexfn.near_integer) at every site.

Each site uses one of two tolerances: 1e-12 (INPUT_INTEGER_TOL) for
exponents given as input and gamma arguments, 1e-9 (COMPUTED_INTEGER_TOL)
for computed quantities. Every test puts a value just inside and just
outside its site's tolerance.
"""

import pytest

from taurmt.complexfn import (
    COMPUTED_INTEGER_TOL,
    INPUT_INTEGER_TOL,
    GammaPoleError,
    ln_gamma,
    near_integer,
)
from taurmt.monodromy_v import ThetaV
from taurmt.monodromy_vi import (
    DegenerateParameterError,
    SSEParams,
    ThetaVI,
    check_generic,
)
from taurmt.tau_series import _cpow, an_series, pv_tau_series

INSIDE, OUTSIDE = 0.9, 1.1  # multiples of a site's tolerance


def test_tolerances():
    assert (INPUT_INTEGER_TOL, COMPUTED_INTEGER_TOL) == (1e-12, 1e-9)


@pytest.mark.parametrize("tol", [INPUT_INTEGER_TOL, COMPUTED_INTEGER_TOL])
@pytest.mark.parametrize("step, base", [(1.0, -3.0), (1.0, 5.0), (2.0, 4.0),
                                        (2.0, -2.0)])
def test_helper_boundary(tol, step, base):
    for sign in (1, -1):
        assert near_integer(base + sign * INSIDE * tol, step, tol)
        assert not near_integer(base + sign * OUTSIDE * tol, step, tol)
        assert near_integer(complex(base, sign * INSIDE * tol), step, tol)
        assert not near_integer(complex(base, sign * OUTSIDE * tol), step,
                                tol)


def test_helper_step_two_skips_odd_integers():
    assert not near_integer(3.0, step=2.0)
    assert near_integer(3.0)


def test_gamma_pole():
    tol = INPUT_INTEGER_TOL
    for d in (INSIDE * tol, complex(0, INSIDE * tol)):
        with pytest.raises(GammaPoleError):
            ln_gamma(-2 + d)
    for d in (OUTSIDE * tol, complex(0, OUTSIDE * tol)):
        assert abs(ln_gamma(-2 + d)) < 1e3
    # positive integers are not poles however close
    assert ln_gamma(3 + INSIDE * tol) == pytest.approx(0.6931471805599453)


def test_cpow_exact_integer_exponent():
    tol = INPUT_INTEGER_TOL
    assert _cpow(-2.0, 2 + INSIDE * tol).imag == 0.0
    assert abs(_cpow(-2.0, 2 + OUTSIDE * tol).imag) > tol


def test_check_generic_integer_exponent():
    tol = INPUT_INTEGER_TOL

    def flagged(theta0):
        rep = check_generic(ThetaVI(theta0, 0.4, 0.5, 0.6), 0.45)
        return any("(a)" in v for v in rep.violations)

    assert flagged(1 + INSIDE * tol)
    assert not flagged(1 + OUTSIDE * tol)


def test_check_generic_resonance_in_two_z():
    tol = INPUT_INTEGER_TOL

    def flagged(sigma):
        # theta0 + theta_t + sigma = 2 + (sigma - 0.5)
        rep = check_generic(ThetaVI(0.75, 0.75, 0.3, 0.2), sigma)
        return any("(c)" in v for v in rep.violations)

    assert flagged(0.5 + INSIDE * tol)
    assert not flagged(0.5 + OUTSIDE * tol)
    # theta0 + theta_t + sigma = 1, an odd integer, is no resonance
    assert check_generic(ThetaVI(0.6, 0.1, 0.3, 0.2), 0.3).ok


def test_an_series_integer_sigma():
    tol = COMPUTED_INTEGER_TOL

    def series(d):
        # sigma = 2 mu + 2 omega1 = 1 + d
        return an_series(SSEParams(N=2, mu=0.25, omega1=0.25 + d / 2,
                                   omega2=0.3, xi_star=0.5))

    with pytest.raises(DegenerateParameterError):
        series(INSIDE * tol)
    series(OUTSIDE * tol)


def test_pv_tau_series_integer_theta():
    tol = COMPUTED_INTEGER_TOL
    with pytest.raises(DegenerateParameterError):
        pv_tau_series(ThetaV(1 + INSIDE * tol, 0.5, 0.7), 0.4, 1.5)
    pv_tau_series(ThetaV(1 + OUTSIDE * tol, 0.5, 0.7), 0.4, 1.5)


def test_pv_tau_series_resonance():
    # theta1 + theta0 + sigma = 2 + d; its real part is compared in units of
    # combo / 2, so the band is twice the tolerance there, while the
    # imaginary part keeps the tolerance itself
    tol = COMPUTED_INTEGER_TOL

    def expand(d):
        return pv_tau_series(ThetaV(0.3, 1.2 + d, 0.7), 0.5, 1.5)

    for d in (2 * INSIDE * tol, complex(0, INSIDE * tol)):
        with pytest.raises(DegenerateParameterError, match="resonance"):
            expand(d)
    for d in (2 * OUTSIDE * tol, complex(0, OUTSIDE * tol)):
        expand(d)
