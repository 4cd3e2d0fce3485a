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
    LineMap,
    commutation_residual,
    compose_word,
    dimension_drop,
    disk_polygon,
    exceptional_family,
    find_common_fixed_point_angle,
    fixed_point_gap,
    line_map,
    projection_witness,
    translation_series_gap,
    unit_vector,
)
from affdim.errors import ConfigError, ContractionError
from affdim.ifs import _identity_map, compose_linear

from families import angle_gap, cantor_similarities, drop_family, scalar_family


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

    @pytest.mark.parametrize(
        "a, b",
        [
            (RankOneFactor(1e-200, 0.3, 1.1), Mat2(1e-200, 0.0, 0.0, 1e-200)),
            (Mat2(1e-200, 0.0, 0.0, 1e-200), RankOneFactor(1e-200, 0.3, 1.1)),
            (RankOneFactor(1e-200, 0.3, 1.1), RankOneFactor(1e-200, 1.1, 0.4)),
        ],
    )
    def test_underflowing_rho_gives_the_dense_zero(self, a, b):
        # rho 1e-400 underflows to 0, which RankOneFactor rejects
        out = compose_linear(a, b)
        assert out == Mat2(0.0, 0.0, 0.0, 0.0)

    def test_long_words_underflow_to_the_dense_zero(self):
        # letter 1 is rank one: its 500-fold product raised an untyped
        # ValueError, while the dense letter's underflowed to the zero Mat2
        maps = drop_family().instantiate(0.3)
        for letter in (0, 1):
            assert compose_word(maps, (letter,) * 500).linear == Mat2(0.0, 0.0, 0.0, 0.0)

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

    def test_rank_one_points_in_plain_floats(self):
        # rho (x w0 + y w1) times v, plus t, each step one rounded float
        # operation as in RankOneFactor.apply; the BLAS row product
        # pts @ w, which may fuse multiply-adds, differed from x w0 + y w1
        # on 6635 of these points with numpy 2.4 and OpenBLAS 0.3.31
        rho, v_angle, w_angle, t = 0.45, 0.3, 0.7, (0.2, -0.1)
        f = AffineMap2(RankOneFactor(rho, v_angle, w_angle), t)
        pts = np.random.default_rng(21).uniform(-1.0, 1.0, size=(20_000, 2))
        w0, w1 = math.cos(w_angle), math.sin(w_angle)
        v0, v1 = math.cos(v_angle), math.sin(v_angle)
        want = []
        for x, y in pts.tolist():
            c = rho * (x * w0 + y * w1)
            want.append([c * v0 + t[0], c * v1 + t[1]])
        assert f.apply_points(pts).tolist() == want

    def test_identity_map(self):
        assert np.allclose(_identity_map().apply((3.0, -4.0)), [3.0, -4.0])


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


def test_attractor_bound_needs_a_map():
    # raised a bare ValueError from max()
    with pytest.raises(ConfigError, match="at least one map"):
        attractor_bound([])


def test_attractor_bound_requires_contraction():
    expanding = [AffineMap2(Mat2.diagonal(1.0, 0.5), (0.0, 0.0))]
    with pytest.raises(ContractionError):
        attractor_bound(expanding)


class TestRankOneSite:
    def test_row_angle_moves_linearly(self):
        site = RankOneSite(rho=0.5, v_angle=0.1, c=0.2, beta=2.0, translation=(0.0, 0.0))
        assert site.w_angle(0.3) == pytest.approx(0.2 + 0.6)

    @pytest.mark.parametrize("beta", [2.0, -0.5])
    def test_period_turns_the_row_once(self, beta):
        site = RankOneSite(rho=0.5, v_angle=0.1, c=0.2, beta=beta, translation=(0.0, 0.0))
        assert site.period == 2.0 * math.pi / abs(beta)
        turn = site.w_angle(site.period) - site.w_angle(0.0)
        assert abs(turn) == pytest.approx(2.0 * math.pi)

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

    def test_site_and_letter_lookups(self):
        fam = scalar_family()
        assert fam.site(0) is fam.singular[0]
        assert fam.letter(1) == 1
        for j in (-1, 1):
            with pytest.raises(ConfigError, match="^site index out of range$"):
                fam.site(j)
            with pytest.raises(ConfigError, match="^site index out of range$"):
                fam.singular_letter(j)
        for i in (-1, 2):
            with pytest.raises(ConfigError, match="^letter index out of range$"):
                fam.letter(i)
            with pytest.raises(ConfigError, match="^companion letter out of range$"):
                fam.letter(i, "companion letter")

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


LINE_SYSTEM = (LineMap(0.5, 0.0), LineMap(0.5, 1.0))
DISK = disk_polygon((0.0, 0.0), 1.0)


class TestIndices:
    """Site and letter indices are integers: a float or a bool is a
    ConfigError wherever it enters, never a silent lookup or a TypeError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda fam: fam.site(0.5),
            lambda fam: fam.site(True),
            lambda fam: fam.letter(1.0),
            lambda fam: fam.letter(False, "companion letter"),
            lambda fam: fam.singular_letter(0.0),
            lambda fam: exceptional_family(fam, 0.3, 0, 0.5),
            lambda fam: dimension_drop(fam, 0.5, 0),
            lambda fam: find_common_fixed_point_angle(fam, 0, 0.5),
            lambda fam: commutation_residual(fam, 0.3, 0, 1.0),
            lambda fam: fixed_point_gap(fam, 0, 0.5, 0.3),
            lambda fam: line_map(fam, 0, (0.5,), 0.0),
            lambda fam: projection_witness(fam, DISK, (0.0,), 0, 0, 1),
            lambda fam: projection_witness(fam, DISK, (), 0, 0, 1.0),
            lambda fam: translation_series_gap(LINE_SYSTEM, (0, 1.0), (1,), 8),
            lambda fam: translation_series_gap(LINE_SYSTEM, (0,), (True,), 8),
        ],
        ids=[
            "site", "site-bool", "letter", "letter-bool", "singular_letter",
            "exceptional_family", "dimension_drop", "angle_search",
            "commutation_residual", "fixed_point_gap", "line_map",
            "witness-iword", "witness-k2", "series-word_a", "series-word_b-bool",
        ],
    )
    def test_non_integer_index_rejected(self, call):
        with pytest.raises(ConfigError, match="must be an integer"):
            call(drop_family())

    def test_numpy_integers_accepted(self):
        fam = drop_family()
        assert fam.site(np.int64(0)) is fam.singular[0]
        assert fam.letter(np.int32(1)) == 1
        assert projection_witness(fam, DISK, (np.int64(0),), 0, 0, 1) == projection_witness(
            fam, DISK, (0,), 0, 0, 1
        )
        assert translation_series_gap(
            LINE_SYSTEM, (np.int64(0),), (np.uint8(1),), 8
        ) == translation_series_gap(LINE_SYSTEM, (0,), (1,), 8)


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
