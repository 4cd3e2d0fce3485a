import math

import numpy as np
import pytest

from affdim import (
    AffineMap2,
    IfsFamily,
    LineDir,
    Mat2,
    RankOneFactor,
    RankOneSite,
    attractor_bound,
    check_irreducibility,
    compose_word,
    identity_map,
    unit_vector,
)
from affdim.errors import ConfigError, ContractionError
from affdim.ifs import compose_linear

from families import angle_gap, cantor_similarities, scalar_family


def random_linear(rng):
    if rng.uniform() < 0.5:
        return Mat2.from_array(rng.normal(size=(2, 2)) * 0.4)
    return RankOneFactor(
        float(rng.uniform(0.1, 0.8)),
        float(rng.uniform(0.0, math.pi)),
        float(rng.uniform(0.0, math.pi)),
    )


def as_array(linear):
    return linear.as_array() if isinstance(linear, Mat2) else linear.as_mat2().as_array()


class TestComposeLinear:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a, b = random_linear(rng), random_linear(rng)
            got = compose_linear(a, b)
            assert np.allclose(as_array(got), as_array(a) @ as_array(b), atol=1e-13)

    def test_preserves_factored_forms(self):
        dense = Mat2(0.3, 0.1, -0.2, 0.4)
        rank = RankOneFactor(0.5, 0.3, 1.1)
        assert isinstance(compose_linear(rank, dense), RankOneFactor)
        assert isinstance(compose_linear(dense, rank), RankOneFactor)
        assert isinstance(compose_linear(rank, rank), RankOneFactor)
        assert isinstance(compose_linear(dense, dense), Mat2)

    def test_orthogonal_rank_one_pair_collapses_exactly(self):
        # w of the left factor perpendicular to v of the right factor
        left = RankOneFactor(0.5, 0.2, 1.0)
        right = RankOneFactor(0.7, 1.0 + math.pi / 2, 0.4)
        out = compose_linear(left, right)
        assert isinstance(out, Mat2)
        assert out.singular_values() == (0.0, 0.0)

    def test_second_singular_value_exactly_zero(self):
        dense = Mat2(0.3, 0.1, -0.2, 0.4)
        rank = RankOneFactor(0.5, 0.3, 1.1)
        for prod in (compose_linear(dense, rank), compose_linear(rank, dense)):
            assert prod.singular_values()[1] == 0.0


class TestAffineMap2:
    def test_apply_and_compose(self):
        f = AffineMap2(Mat2.diagonal(0.5, 0.5), (1.0, 0.0))
        g = AffineMap2(Mat2.diagonal(0.25, 0.25), (0.0, 1.0))
        p = np.array([2.0, 2.0])
        assert np.allclose(f.compose(g).apply(p), f.apply(g.apply(p)))

    def test_apply_points_matches_apply(self):
        rng = np.random.default_rng(8)
        for linear in (Mat2(0.3, 0.1, -0.2, 0.4), RankOneFactor(0.5, 0.3, 1.1)):
            f = AffineMap2(linear, (0.2, -0.1))
            pts = rng.normal(size=(17, 2))
            batch = f.apply_points(pts)
            for k in range(17):
                assert np.allclose(batch[k], f.apply(pts[k]), atol=1e-14)

    def test_identity_map(self):
        assert np.allclose(identity_map().apply((3.0, -4.0)), [3.0, -4.0])


class TestWords:
    def test_compose_word_order(self):
        # word (0, 1) means f_0 after f_1
        maps = cantor_similarities().instantiate()
        w = compose_word(maps, (0, 1))
        assert np.allclose(w.apply((0.0, 0.0)), maps[0].apply(maps[1].apply((0.0, 0.0))))

    def test_empty_word_is_identity(self):
        maps = cantor_similarities().instantiate()
        assert np.allclose(compose_word(maps, ()).apply((1.0, 2.0)), [1.0, 2.0])


def test_attractor_bound_cantor():
    maps = cantor_similarities().instantiate()
    # max translation 2/3, max norm 1/3
    assert attractor_bound(maps) == pytest.approx(1.0, abs=1e-14)


def test_attractor_bound_requires_contraction():
    expanding = [AffineMap2(Mat2.diagonal(1.0, 0.5), (0.0, 0.0))]
    with pytest.raises(ContractionError):
        attractor_bound(expanding)


class TestRankOneSite:
    def test_row_angle_moves_linearly(self):
        site = RankOneSite(rho=0.5, v_angle=0.1, c=0.2, beta=2.0, translation=(0.0, 0.0))
        assert site.w_angle(0.3) == pytest.approx(0.2 + 0.6)

    def test_map_at(self):
        site = RankOneSite(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0))
        m = site.map_at(0.0)
        assert isinstance(m.linear, RankOneFactor)
        assert np.allclose(m.apply((1.0, 0.0)), [1.5, 0.0])

    @pytest.mark.parametrize("field", ["rho", "v_angle", "c", "beta", "translation"])
    def test_rejects_non_finite_parameters(self, field):
        params = dict(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0))
        params[field] = (0.0, math.nan) if field == "translation" else math.nan
        with pytest.raises(ConfigError, match="finite"):
            RankOneSite(**params)


    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("rho", 1.0, ContractionError, "contraction violated, rho 1 outside"),
            ("rho", 0.0, ContractionError, "contraction violated, rho 0 outside"),
            ("beta", 0.0, ConfigError, "beta must be nonzero"),
        ],
    )
    def test_rejects_out_of_range_parameters(self, field, value, error, message):
        params = dict(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0))
        params[field] = value
        with pytest.raises(error, match=message):
            RankOneSite(**params)


class TestIfsFamily:
    def test_rejects_non_contracting_regular(self):
        with pytest.raises(ContractionError, match=r"regular\[0\]: contraction violated"):
            IfsFamily(
                regular=(AffineMap2(Mat2.diagonal(1.0, 0.3), (0.0, 0.0)),),
                singular=(),
            )

    def test_rejects_singular_regular_matrix(self):
        with pytest.raises(ConfigError):
            IfsFamily(
                regular=(AffineMap2(Mat2(0.3, 0.3, 0.3, 0.3), (0.0, 0.0)),),
                singular=(),
            )

    @pytest.mark.parametrize(
        "linear, t",
        [
            (Mat2(math.nan, 0.0, 0.0, 0.15), (0.0, 0.0)),
            (Mat2(0.15, 0.0, 0.0, math.inf), (0.0, 0.0)),
            (Mat2.diagonal(0.15, 0.15), (math.nan, 0.0)),
        ],
    )
    def test_rejects_non_finite_regular_map(self, linear, t):
        with pytest.raises(ConfigError, match="finite"):
            IfsFamily(regular=(AffineMap2(linear, t),), singular=())

    def test_letter_layout(self):
        fam = scalar_family()
        assert fam.n_regular == 1 and fam.n_singular == 1 and fam.n_maps == 2
        assert fam.singular_letter(0) == 1

    def test_angles_broadcast(self):
        fam = scalar_family()
        assert fam.angles(0.7) == (0.7,)
        with pytest.raises(ConfigError):
            fam.angles((0.1, 0.2))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, (math.nan,)])
    def test_angles_must_be_finite(self, alpha):
        with pytest.raises(ConfigError, match="finite"):
            scalar_family().angles(alpha)

    def test_instantiate_order_and_parameter(self):
        fam = scalar_family()
        maps = fam.instantiate(math.pi / 2)
        assert isinstance(maps[0].linear, Mat2)
        rank = maps[1].linear
        # row direction rotated to e2
        assert abs(float(rank.w() @ unit_vector(0.0))) < 1e-12


class TestIrreducibility:
    def test_rotations_have_no_invariant_line(self):
        mats = [Mat2.scaled_rotation(0.3, 1.0), Mat2.scaled_rotation(0.3, 2.2)]
        assert check_irreducibility(mats) is None

    def test_shared_eigendirection_detected(self):
        mats = [Mat2.diagonal(0.3, 0.1), Mat2.diagonal(0.2, 0.4)]
        witness = check_irreducibility(mats)
        assert witness is not None
        assert min(
            angle_gap(witness, LineDir(0.0)), angle_gap(witness, LineDir(math.pi / 2))
        ) < 1e-10

    def test_all_scalar_returns_witness(self):
        mats = [Mat2.diagonal(0.3, 0.3), Mat2.diagonal(0.2, 0.2)]
        witness = check_irreducibility(mats)
        assert witness is not None

    def test_single_nonscalar_matrix_reducible(self):
        witness = check_irreducibility([Mat2.diagonal(0.3, 0.2)])
        assert witness is not None
