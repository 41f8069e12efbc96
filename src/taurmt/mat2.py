"""Minimal 2x2 complex matrix algebra.

Monodromy and Stokes matrices are always 2x2, so the library carries them as
an exact-shape immutable type with closed-form inverse instead of pulling in
a general linear-algebra layer. Determinants and traces come out in closed
form, which keeps the SL(2) checks sharp.

Mat2 is a named tuple that converts nothing: its entries are complex by
construction (1 + 0j and 0j, never 1.0 and 0.0). Tuple + and * concatenate
and repeat; they are not matrix algebra.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "SingularMatrixError",
    "Mat2",
    "IDENTITY",
    "mul",
    "inv",
    "tr",
    "det",
    "max_diff",
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
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))


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


def tr(a: Mat2) -> complex:
    return a.a11 + a.a22


def inv(a: Mat2) -> Mat2:
    d = det(a)
    scale = a.norm_max()
    if abs(d) <= 1e-14 * scale * scale:
        raise SingularMatrixError(f"matrix is singular to working precision, det = {d}")
    return Mat2(a.a22 / d, -a.a12 / d, -a.a21 / d, a.a11 / d)


def max_diff(a: Mat2, b: Mat2) -> float:
    """Largest entrywise absolute difference."""
    return max(
        abs(a.a11 - b.a11),
        abs(a.a12 - b.a12),
        abs(a.a21 - b.a21),
        abs(a.a22 - b.a22),
    )
