"""Tests for the 2x2 complex matrix layer."""

import math
import random

import numpy as np
import pytest

from taurmt.mat2 import (
    IDENTITY,
    Mat2,
    SingularMatrixError,
    det,
    inv,
    max_diff,
    mul,
    norm_product,
    tr,
)


def random_mat(rng):
    return Mat2(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)))


def to_array(m):
    return np.array([[m.a11, m.a12], [m.a21, m.a22]], dtype=complex)


class TestBasics:
    def test_identity_inverse(self):
        assert max_diff(inv(IDENTITY), IDENTITY) == 0.0

    def test_sigma3_trace(self):
        assert tr(Mat2.diag(1.0, -1.0)) == 0.0

    def test_mul_matches_numpy(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = random_mat(rng), random_mat(rng)
            got = to_array(mul(a, b))
            ref = to_array(a) @ to_array(b)
            assert np.max(np.abs(got - ref)) < 1e-14

    def test_det_multiplicative(self):
        rng = random.Random(6)
        for _ in range(100):
            a, b = random_mat(rng), random_mat(rng)
            lhs = det(mul(a, b))
            rhs = det(a) * det(b)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_inverse_property(self):
        rng = random.Random(8)
        for _ in range(100):
            a = random_mat(rng)
            if abs(det(a)) < 1e-3:
                continue
            assert max_diff(mul(a, inv(a)), IDENTITY) < 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inv(Mat2(1.0, 2.0, 2.0, 4.0))


NAN = complex(math.nan, 0.0)


@pytest.mark.parametrize("m", [Mat2(NAN, 0j, 0j, 1 + 0j),
                               Mat2(1 + 0j, NAN, 0j, 1 + 0j)])
def test_nan_matrix_is_singular(m):
    # a nan determinant is not above the bound: refused, not inverted
    with pytest.raises(SingularMatrixError):
        inv(m)


def test_a_nan_entry_is_not_dropped():
    # the builtin max keeps a nan only in first place
    m = Mat2(1 + 0j, NAN, 0j, 1 + 0j)
    assert math.isnan(m.norm_max())
    assert math.isnan(max_diff(m, IDENTITY))
    assert math.isnan(norm_product(IDENTITY, m))


def test_norm_product_bounds_the_product():
    rng = random.Random(9)
    for _ in range(50):
        a, b = random_mat(rng), random_mat(rng)
        assert norm_product(a, b) == a.norm_max() * b.norm_max()
        assert mul(a, b).norm_max() <= 2 * norm_product(a, b)
