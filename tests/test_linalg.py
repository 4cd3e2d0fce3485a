import math

import numpy as np
import pytest

from affdim import (
    LineDir,
    Mat2,
    RankOneFactor,
    conditional_norm,
    image_dir,
    kernel_dir,
    singular_values,
    svf,
    unit_vector,
)
from affdim.linalg import batch_singular_values

from families import brute_svf


def test_unit_vector():
    assert np.allclose(unit_vector(0.0), [1.0, 0.0])
    assert np.allclose(unit_vector(math.pi / 2), [0.0, 1.0])
    v = unit_vector(1.2345)
    assert math.hypot(v[0], v[1]) == pytest.approx(1.0, abs=1e-15)


class TestLineDir:
    def test_canonical_range(self):
        for angle in (-0.3, math.pi + 0.3, 7.0, -9.0):
            d = LineDir(angle)
            assert 0.0 <= d.angle < math.pi

    def test_wrap_identifies_opposites(self):
        assert LineDir(0.4).distance_to(LineDir(0.4 + math.pi)) < 1e-12

    def test_from_vector(self):
        d = LineDir.from_vector((-1.0, 0.0))
        assert d.distance_to(LineDir(0.0)) < 1e-12

    def test_perpendicular(self):
        d = LineDir(0.3)
        assert abs(float(d.unit() @ d.perpendicular().unit())) < 1e-15

    def test_distance_wraps(self):
        # distance is measured on the half-circle of lines
        assert LineDir(0.05).distance_to(LineDir(math.pi - 0.05)) == pytest.approx(
            0.1, abs=1e-12
        )


class TestMat2:
    def test_singular_values_against_svd(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            arr = rng.normal(size=(2, 2)) * rng.uniform(0.1, 10.0)
            m = Mat2.from_array(arr)
            got = m.singular_values()
            want = np.linalg.svd(arr, compute_uv=False)
            assert got[0] == pytest.approx(float(want[0]), rel=1e-13, abs=1e-13)
            assert got[1] == pytest.approx(float(want[1]), rel=1e-12, abs=1e-12)

    def test_special_cases(self):
        assert Mat2.identity().singular_values() == (1.0, 1.0)
        assert Mat2.diagonal(3.0, -2.0).singular_values() == (3.0, 2.0)
        a1, a2 = Mat2.scaled_rotation(0.5, 1.1).singular_values()
        assert (a1, a2) == pytest.approx((0.5, 0.5), abs=1e-15)
        assert Mat2(0.0, 0.0, 0.0, 0.0).singular_values() == (0.0, 0.0)

    def test_rank_deficient(self):
        # columns proportional: second singular value is exactly tiny
        m = Mat2(1.0, 2.0, 2.0, 4.0)
        a1, a2 = m.singular_values()
        assert a2 == pytest.approx(0.0, abs=1e-15)
        assert a1 == pytest.approx(5.0, abs=1e-12)

    def test_smallest_singular_value_of_a_long_word(self):
        # a2 / a1 is about 5e-33 here; the difference of the two rotation
        # parts gave 0.0
        letter = Mat2(0.3, 0.1, 0.0, 0.0015)
        word = Mat2.identity()
        for _ in range(14):
            word = word @ letter
        a1, a2 = word.singular_values()
        want = (0.3 * 0.0015) ** 14 / float(np.linalg.norm(word.as_array(), 2))
        assert a2 == pytest.approx(want, rel=1e-13, abs=0.0)
        b1, b2 = batch_singular_values(word.as_array()[None], np.array([word.det()]))
        assert (b1[0], b2[0]) == (a1, a2)

    def test_inverse_and_matmul(self):
        m = Mat2(0.3, -0.1, 0.2, 0.5)
        prod = m @ m.inverse()
        assert np.allclose(prod.as_array(), np.eye(2), atol=1e-14)

    def test_det_and_norm(self):
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        assert m.det() == pytest.approx(-2.0)
        assert m.operator_norm() == pytest.approx(
            float(np.linalg.norm(m.as_array(), 2)), rel=1e-13
        )

    def test_apply(self):
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        assert np.allclose(m.apply((1.0, 1.0)), [3.0, 7.0])

    def test_scalar_multiplication(self):
        m = 2.0 * Mat2.identity()
        assert m.singular_values() == (2.0, 2.0)


class TestRankOneFactor:
    def test_singular_values(self):
        r = RankOneFactor(0.7, 0.3, 1.1)
        assert r.singular_values() == (0.7, 0.0)

    def test_matches_outer_product(self):
        r = RankOneFactor(0.7, 0.3, 1.1)
        outer = 0.7 * np.outer(unit_vector(0.3), unit_vector(1.1))
        assert np.allclose(r.as_mat2().as_array(), outer, atol=1e-15)

    def test_apply(self):
        r = RankOneFactor(0.5, 0.0, 0.0)
        assert np.allclose(r.apply((2.0, 5.0)), [1.0, 0.0])

    def test_image_and_kernel(self):
        r = RankOneFactor(0.5, 0.3, 1.1)
        assert image_dir(r).distance_to(LineDir(0.3)) < 1e-12
        # kernel is the perpendicular of the row direction
        assert kernel_dir(r).distance_to(LineDir(1.1 + math.pi / 2)) < 1e-12

    def test_rho_validation(self):
        with pytest.raises(Exception):
            RankOneFactor(-0.1, 0.0, 0.0)


class TestSvf:
    def test_t_zero_is_one(self):
        assert svf(Mat2.diagonal(0.5, 0.25), 0.0) == 1.0
        assert svf(RankOneFactor(0.5, 0.0, 1.0), 0.0) == 1.0

    def test_piecewise_values(self):
        m = Mat2.diagonal(0.5, 0.25)
        assert svf(m, 0.5) == pytest.approx(0.5 ** 0.5)
        assert svf(m, 1.5) == pytest.approx(0.5 * 0.25 ** 0.5)
        assert svf(m, 3.0) == pytest.approx((0.5 * 0.25) ** 1.5)

    def test_continuity_at_breakpoints_invertible(self):
        m = Mat2(0.4, 0.1, -0.05, 0.3)
        for t0 in (1.0, 2.0):
            below = svf(m, t0 - 1e-9)
            above = svf(m, t0 + 1e-9)
            assert below == pytest.approx(above, rel=1e-7)

    def test_rank_one_vanishes_past_one(self):
        r = RankOneFactor(0.5, 0.3, 1.1)
        assert svf(r, 1.0) == 0.5
        assert svf(r, 1.0 + 1e-12) == 0.0
        assert svf(r, 1.7) == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(Exception):
            svf(Mat2.identity(), -0.1)

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            arr = rng.normal(size=(2, 2))
            t = rng.uniform(0.0, 3.0)
            assert svf(Mat2.from_array(arr), t) == pytest.approx(
                brute_svf(arr, t), rel=1e-11, abs=1e-12
            )


class TestConditionalNorm:
    def test_dense_equals_image_norm(self):
        m = Mat2(0.3, -0.1, 0.2, 0.5)
        d = LineDir(0.7)
        want = float(np.linalg.norm(m.as_array() @ d.unit()))
        assert conditional_norm(m, d) == pytest.approx(want, rel=1e-14)

    def test_rank_one_exact_factorization(self):
        r = RankOneFactor(0.5, 0.3, 1.1)
        d = LineDir(0.9)
        want = 0.5 * abs(float(unit_vector(1.1) @ unit_vector(0.9)))
        assert conditional_norm(r, d) == want

    def test_norm_factorization_identity(self):
        # |A B| = |A restricted to Im(B)| * |B| for rank-one B
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = Mat2.from_array(rng.normal(size=(2, 2)))
            b = RankOneFactor(
                float(rng.uniform(0.1, 0.9)),
                float(rng.uniform(0.0, math.pi)),
                float(rng.uniform(0.0, math.pi)),
            )
            left = float(
                np.linalg.norm(a.as_array() @ b.as_mat2().as_array(), 2)
            )
            right = conditional_norm(a, image_dir(b)) * b.rho
            assert left == pytest.approx(right, rel=1e-12, abs=1e-14)


class TestBatchKernels:
    def test_batch_singular_values_matches_scalar(self):
        rng = np.random.default_rng(11)
        mats = rng.normal(size=(50, 2, 2))
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        a1, a2 = batch_singular_values(mats, dets)
        for k in range(50):
            want = Mat2.from_array(mats[k]).singular_values()
            assert a1[k] == pytest.approx(want[0], rel=1e-14, abs=1e-14)
            assert a2[k] == pytest.approx(want[1], rel=1e-13, abs=1e-13)


def test_singular_values_dispatch():
    m = Mat2.diagonal(0.5, 0.2)
    r = RankOneFactor(0.5, 0.0, 0.0)
    assert singular_values(m) == m.singular_values()
    assert singular_values(r) == (0.5, 0.0)
