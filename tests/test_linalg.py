import math

import numpy as np
import pytest

from affdim import (
    LineDir,
    Mat2,
    RankOneFactor,
    conditional_norm,
    image_dir,
    singular_values,
    unit_vector,
)
from affdim.linalg import batch_singular_values

from families import angle_gap


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
        assert angle_gap(LineDir(0.4), LineDir(0.4 + math.pi)) < 1e-12

    def test_from_vector(self):
        d = LineDir.from_vector((-1.0, 0.0))
        assert angle_gap(d, LineDir(0.0)) < 1e-12


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
        entries = (word.a11, word.a12, word.a21, word.a22, word.det())
        b1, b2 = batch_singular_values(*(np.array([x]) for x in entries))
        assert (b1[0], b2[0]) == (a1, a2)

    def test_matmul(self):
        m = Mat2(0.3, -0.1, 0.2, 0.5)
        n = Mat2(-0.7, 0.4, 0.1, 0.9)
        prod = m @ n
        assert np.allclose(prod.as_array(), m.as_array() @ n.as_array(), atol=1e-15)

    def test_det_and_norm(self):
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        assert m.det() == pytest.approx(-2.0)
        assert m.operator_norm() == pytest.approx(
            float(np.linalg.norm(m.as_array(), 2)), rel=1e-13
        )

    def test_apply(self):
        m = Mat2(1.0, 2.0, 3.0, 4.0)
        assert np.allclose(m.apply((1.0, 1.0)), [3.0, 7.0])


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
        assert angle_gap(image_dir(r), LineDir(0.3)) < 1e-12

    def test_rho_validation(self):
        with pytest.raises(Exception):
            RankOneFactor(-0.1, 0.0, 0.0)


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
        a1, a2 = batch_singular_values(
            mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1], dets
        )
        for k in range(50):
            want = Mat2.from_array(mats[k]).singular_values()
            assert a1[k] == pytest.approx(want[0], rel=1e-14, abs=1e-14)
            assert a2[k] == pytest.approx(want[1], rel=1e-13, abs=1e-13)


def test_singular_values_dispatch():
    m = Mat2.diagonal(0.5, 0.2)
    r = RankOneFactor(0.5, 0.0, 0.0)
    assert singular_values(m) == m.singular_values()
    assert singular_values(r) == (0.5, 0.0)
