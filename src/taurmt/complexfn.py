"""Complex special functions used by the monodromy and expansion formulas.

Everything here is scalar, pure and deterministic. The log-gamma routine is a
Lanczos approximation with reflection into the left half-plane, accurate to
about 1e-13 relative for |z| <= 50, which is all the library needs. Gamma
ratios are evaluated in log space so that products of many gamma factors never
overflow, and poles are detected up front instead of surfacing as inf/nan.
"""

from __future__ import annotations

import cmath
import math

__all__ = [
    "GammaPoleError",
    "INPUT_INTEGER_TOL",
    "COMPUTED_INTEGER_TOL",
    "near_integer",
    "ln_gamma",
    "gamma_ratio",
    "sin_pi",
    "cos_pi",
    "barnes_prefactor",
]

_LN_PI = math.log(math.pi)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Godfrey's Lanczos coefficients, g = 7, n = 9. Double precision workhorse.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

INPUT_INTEGER_TOL = 1e-12
COMPUTED_INTEGER_TOL = 1e-9


def near_integer(z: complex, step: float = 1.0,
                 tol: float = INPUT_INTEGER_TOL) -> bool:
    """Whether |Im z| <= tol and Re z is within tol of step * round(Re z / step).

    The one near-integer policy: INPUT_INTEGER_TOL for exponents given as
    input and gamma arguments shifted from them; COMPUTED_INTEGER_TOL for
    quantities computed through roots and logarithms, whose error near an
    integer is of order sqrt(eps), e.g. l = log(w + sqrt(w^2 - 1)) / (pi i).
    """
    z = complex(z)
    return (abs(z.imag) <= tol
            and abs(z.real / step - round(z.real / step)) * step <= tol)


class GammaPoleError(ValueError):
    """Raised when a gamma argument sits on (or within 1e-12 of) a pole."""

    def __init__(self, argument: complex, where: str = "gamma argument"):
        self.argument = complex(argument)
        super().__init__(f"{where} {argument} is a pole of the gamma function")


def _near_nonpositive_integer(z: complex) -> int | None:
    """Return the pole index n >= 0 with z ~ -n, or None."""
    z = complex(z)
    if not near_integer(z):
        return None
    n = round(z.real)
    return None if n > 0 else -n


def _lanczos_right(z: complex) -> complex:
    # valid for Re z >= 0.5
    zm = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (zm + k)
    t = zm + _LANCZOS_G + 0.5
    return _HALF_LN_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)


def ln_gamma(z: complex) -> complex:
    """Principal branch of log Gamma.

    Matches the analytic continuation from the positive real axis (the usual
    loggamma convention: the imaginary part is not clamped to (-pi, pi]).
    Raises GammaPoleError within 1e-12 of a non-positive integer.
    """
    z = complex(z)
    if _near_nonpositive_integer(z) is not None:
        raise GammaPoleError(z)
    if z.real >= 0.5:
        return _lanczos_right(z)
    if z.imag >= 0.0:
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 pi i z}); for Im z >= 0 the
        # last factor stays in the right half-plane, so the principal log of
        # it continues log-sin analytically and the reflection below lands on
        # the principal loggamma branch.
        log_sin = (
            -math.log(2.0)
            + 0.5j * math.pi
            - 1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(2j * math.pi * z))
        )
        return _LN_PI - log_sin - _lanczos_right(1.0 - z)
    return ln_gamma(z.conjugate()).conjugate()


def gamma_ratio(numerators: tuple, denominators: tuple) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators), in log space.

    Every argument is taken as complex() first. Poles are never cancelled:
    an argument at a pole raises GammaPoleError naming its side, even where
    a numerator pole and a denominator pole have a finite limit together.
    The log-gammas are summed numerators first, then denominators.
    """
    numerators = tuple(complex(a) for a in numerators)
    denominators = tuple(complex(a) for a in denominators)
    for where, args in (("numerator argument", numerators),
                        ("denominator argument", denominators)):
        for a in args:
            if _near_nonpositive_integer(a) is not None:
                raise GammaPoleError(a, where)
    acc = 0.0 + 0.0j
    for a in numerators:
        acc += ln_gamma(a)
    for a in denominators:
        acc -= ln_gamma(a)
    return cmath.exp(acc)


def _reduce_mod_two(x: float) -> float:
    # shift by the nearest even integer; exact when x is exactly representable
    return x - 2.0 * round(x / 2.0)


def sin_pi(z: complex) -> complex:
    """sin(pi z) with the real part reduced mod 2, exact zeros at integers."""
    z = complex(z)
    xr = _reduce_mod_two(z.real)
    if z.imag == 0.0:
        if xr == round(xr):
            return complex(0.0, 0.0)
        return complex(math.sin(math.pi * xr), 0.0)
    return cmath.sin(math.pi * complex(xr, z.imag))


def cos_pi(z: complex) -> complex:
    """cos(pi z) with the real part reduced mod 2, exact zeros at half-integers."""
    z = complex(z)
    xr = _reduce_mod_two(z.real)
    if z.imag == 0.0:
        if xr - 0.5 == round(xr - 0.5):
            return complex(0.0, 0.0)
        if xr == round(xr):
            return complex(1.0 if xr == 0.0 else -1.0, 0.0)
        return complex(math.cos(math.pi * xr), 0.0)
    return cmath.cos(math.pi * complex(xr, z.imag))


def exp_pi_i(z: complex) -> complex:
    """exp(pi i z), the phase unit that every monodromy entry is built from."""
    return cmath.exp(1j * math.pi * complex(z))


def barnes_prefactor(N: int, mu: complex, omega1: complex, omega2: complex) -> complex:
    """Finite-N normalization product of the boundary expansion.

    prod_{k=0}^{N-1} k! G(2 mu + 2 omega1 + k + 1)
                      / (G(1 + k + mu + omega) G(1 + k + mu + conj-omega))
    with omega = omega1 + i omega2. Its reciprocal normalizes the bulk
    scaling limit. Raises GammaPoleError if any factor is at a pole.
    """
    if N < 0 or N != int(N):
        raise ValueError(f"N must be a non-negative integer, got {N}")
    mu = complex(mu)
    om = complex(omega1) + 1j * complex(omega2)
    omb = complex(omega1) - 1j * complex(omega2)
    acc = 0.0 + 0.0j
    for k in range(int(N)):
        acc += ln_gamma(k + 1)
        acc += ln_gamma(2 * mu + complex(omega1) * 2 + k + 1)
        acc -= ln_gamma(1 + k + mu + om)
        acc -= ln_gamma(1 + k + mu + omb)
    return cmath.exp(acc)
