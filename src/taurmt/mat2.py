"""Minimal 2x2 complex matrix algebra.

Monodromy and Stokes matrices are always 2x2, so the library carries them as
an exact-shape immutable type with closed-form inverse instead of pulling in
a general linear-algebra layer. Determinants and traces come out in closed
form, which keeps the SL(2) checks sharp. A nan entry is never dropped: the
max-norm and max_diff of a matrix with one are nan.

Mat2 is a named tuple that converts nothing: its entries are complex by
construction (1 + 0j and 0j, never 1.0 and 0.0). Tuple + and * concatenate
and repeat; they are not matrix algebra.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .complexfn import backward_error

__all__ = [
    "SingularMatrixError",
    "Mat2",
    "IDENTITY",
    "mul",
    "inv",
    "tr",
    "det",
    "det_residual",
    "identity_residual",
    "max_diff",
    "norm_product",
]


class SingularMatrixError(ZeroDivisionError):
    """Raised when inverting a numerically singular 2x2 matrix."""


class Mat2(NamedTuple):
    """Immutable 2x2 complex matrix with entries a11, a12, a21, a22."""

    a11: complex
    a12: complex
    a21: complex
    a22: complex

    @classmethod
    def diag(cls, d1: complex, d2: complex) -> "Mat2":
        return cls(d1, 0j, 0j, d2)

    def norm_max(self) -> float:
        a11, a12, a21, a22 = self
        out = max(abs(a11), abs(a12), abs(a21), abs(a22))
        # the builtin max drops a nan that does not come first, and abs
        # drops one beside an inf
        if a11 == a11 and a12 == a12 and a21 == a21 and a22 == a22:
            return out
        return math.nan


IDENTITY = Mat2(1 + 0j, 0j, 0j, 1 + 0j)


def mul(a: Mat2, b: Mat2) -> Mat2:
    return Mat2(
        a.a11 * b.a11 + a.a12 * b.a21,
        a.a11 * b.a12 + a.a12 * b.a22,
        a.a21 * b.a11 + a.a22 * b.a21,
        a.a21 * b.a12 + a.a22 * b.a22,
    )


def det(a: Mat2) -> complex:
    return a.a11 * a.a22 - a.a12 * a.a21


def det_residual(a: Mat2) -> float:
    """Backward error of det a = 1, over the larger product in det a."""
    return backward_error(abs(det(a) - 1.0), abs(a.a11 * a.a22),
                          abs(a.a12 * a.a21), 1.0)


def tr(a: Mat2) -> complex:
    return a.a11 + a.a22


def inv(a: Mat2) -> Mat2:
    d = det(a)
    scale = a.norm_max()
    if not abs(d) > 1e-14 * scale * scale:  # nan too
        raise SingularMatrixError(f"matrix is singular to working precision, det = {d}")
    return Mat2(a.a22 / d, -a.a12 / d, -a.a21 / d, a.a11 / d)


def max_diff(a: Mat2, b: Mat2) -> float:
    """Largest entrywise absolute difference."""
    return Mat2(a.a11 - b.a11, a.a12 - b.a12, a.a21 - b.a21,
                a.a22 - b.a22).norm_max()


def identity_residual(*factors: Mat2) -> float:
    """Backward error of factors[0] factors[1] ... = I: the product's largest
    entrywise distance from I over the product of the factors' max-norms.
    The product is formed from the right."""
    product = factors[-1]
    for m in reversed(factors[:-1]):
        product = mul(m, product)
    return backward_error(max_diff(product, IDENTITY), norm_product(*factors),
                          1.0)


def norm_product(*factors: Mat2) -> float:
    """Product of the factors' max-norms, which bounds every term that
    cancels in an entry of their product."""
    out = 1.0
    for m in factors:
        out *= m.norm_max()
    return out
