import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdim import (
    AffineMap2,
    ConvexBody,
    Mat2,
    PointCloud,
    box_dim_estimate,
    chaos_game,
    containment_margin,
    cylinder_points,
    exceptional_family,
    find_common_fixed_point_angle,
    hausdorff_distance,
    invariance_clouds,
    level_bodies,
    render_levels,
)
from affdim.attractor import _cell_counts, apply_body
from affdim.errors import BudgetError, ConfigError
from affdim.ifs import attractor_bound, compose_word
from affdim.linalg import RankOneFactor

from families import (
    cantor_similarities,
    drop_family,
    scalar_family,
    wide_family,
)


def loop_cloud(maps, n_points, seed, burn_in=64, chunk=1 << 15):
    """Reference chaos game: the plain per-point loop, one orbit from the
    origin per chunk of map choices drawn from the chunk's sub-seed."""
    coeffs = []
    for m in maps:
        t = m.translation
        if isinstance(m.linear, RankOneFactor):
            r = m.linear
            coeffs.append(("r", r.rho, *r.v(), *r.w(), t[0], t[1]))
        else:
            a = m.linear
            coeffs.append(("d", a.a11, a.a12, a.a21, a.a22, t[0], t[1]))
    sizes = [min(chunk, n_points - i) for i in range(0, n_points, chunk)]
    out = []
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        picks = np.random.default_rng(child).integers(0, len(maps), size=burn_in + size)
        x = y = 0.0
        for step, pick in enumerate(picks.tolist()):
            c = coeffs[pick]
            if c[0] == "d":
                x, y = c[1] * x + c[2] * y + c[5], c[3] * x + c[4] * y + c[6]
            else:
                s = c[1] * (c[4] * x + c[5] * y)
                x, y = c[2] * s + c[6], c[3] * s + c[7]
            if step >= burn_in:
                out.append((x, y))
    return np.array(out)


class TestChaosGame:
    def test_deterministic_given_seed(self):
        fam = drop_family()
        a = chaos_game(fam, 0.7, 500, seed=3)
        b = chaos_game(fam, 0.7, 500, seed=3)
        assert np.array_equal(a.points, b.points)
        assert a.method == "chaos" and a.depth_or_count == 500 and a.seed == 3

    def test_seed_changes_cloud(self):
        fam = drop_family()
        a = chaos_game(fam, 0.7, 500, seed=3)
        c = chaos_game(fam, 0.7, 500, seed=4)
        assert not np.array_equal(a.points, c.points)

    def test_chunking_is_invisible(self):
        # clouds longer than one chunk extend shorter ones exactly
        fam = cantor_similarities()
        long = chaos_game(fam, 0.0, 40000, seed=5)
        short = chaos_game(fam, 0.0, 32768, seed=5)
        assert long.points.shape == (40000, 2)
        assert np.array_equal(long.points[:32768], short.points)

    def test_cantor_orbit_stays_on_axis(self):
        cloud = chaos_game(cantor_similarities(), 0.0, 2000, seed=1)
        assert np.all(cloud.points[:, 1] == 0.0)
        assert cloud.points[:, 0].min() >= 0.0
        assert cloud.points[:, 0].max() <= 1.0

    def test_orbit_bounded_by_attractor_radius(self):
        fam = drop_family()
        cloud = chaos_game(fam, 0.7, 3000, seed=11)
        radius = attractor_bound(fam.instantiate(0.7))
        norms = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
        assert norms.max() <= radius + 1e-12

    def test_needs_points(self):
        with pytest.raises(ConfigError):
            chaos_game(drop_family(), 0.0, 0, seed=1)


class TestOrbitKernel:
    # the blocked scan reassociates the orbit's sums, so it matches the
    # plain loop to rounding, scaled by the attractor's size; 40000 points
    # span two chunks and a partial last block

    @pytest.mark.parametrize(
        "fam, alpha",
        [(drop_family(), 0.7), (wide_family(), 0.4), (cantor_similarities(), 0.0)],
    )
    def test_chaos_game_matches_the_plain_loop(self, fam, alpha):
        maps = fam.instantiate(alpha)
        cloud = chaos_game(fam, alpha, 40000, seed=6)
        want = loop_cloud(maps, 40000, seed=6)
        assert cloud.points.shape == want.shape
        assert np.max(np.abs(cloud.points - want)) <= 1e-12 * attractor_bound(maps)

    @pytest.mark.parametrize("fam", [drop_family(), wide_family()])
    def test_coupled_clouds_match_the_plain_loop(self, fam):
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        maps = fam.instantiate(alpha)
        reduced = exceptional_family(fam, alpha, 0, 0)
        words = list(itertools.product(range(fam.n_maps), repeat=3))
        full_maps = [compose_word(maps, w) for w in words]
        red_maps = [
            compose_word(maps, reduced.duplicate_word if w == reduced.removed_word else w)
            for w in words
        ]
        full, red = invariance_clouds(fam, 0, 0, alpha, 40000, seed=8)
        scale = 1e-12 * attractor_bound(maps)
        for cloud, word_maps in ((full, full_maps), (red, red_maps)):
            want = loop_cloud(word_maps, 40000, seed=8)
            assert cloud.points.shape == want.shape
            assert np.max(np.abs(cloud.points - want)) <= scale


class TestCylinderPoints:
    def test_depth_two_exact(self):
        # two maps: x/3 and the rank-one site (0.5x + 1, 0) at alpha 0
        cloud = cylinder_points(scalar_family(), 0.0, 2)
        assert cloud.method == "cylinder" and cloud.depth_or_count == 2
        want = np.array([(0.0, 0.0), (1 / 3, 0.0), (1.0, 0.0), (1.5, 0.0)])
        assert np.allclose(cloud.points, want)

    def test_count_grows_with_alphabet(self):
        cloud = cylinder_points(drop_family(), 0.7, 5)
        assert cloud.points.shape == (2 ** 5, 2)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            cylinder_points(drop_family(), 0.0, 5, budget=31)

    def test_depth_validated(self):
        with pytest.raises(ConfigError):
            cylinder_points(drop_family(), 0.0, 0)

    def test_approximates_attractor(self):
        # deeper cylinders converge in Hausdorff distance
        fam = drop_family()
        coarse = cylinder_points(fam, 0.7, 6)
        fine = cylinder_points(fam, 0.7, 12)
        chaos = chaos_game(fam, 0.7, 20000, seed=2)
        assert hausdorff_distance(fine, chaos) < hausdorff_distance(coarse, chaos) + 1e-12
        assert hausdorff_distance(fine, chaos) < 0.01


# empty, misshapen (ragged included) and non-finite clouds
BAD_CLOUDS = [
    [],
    np.empty((0, 2)),
    [(0.0, 0.0, 0.0)],
    np.zeros((3, 3)),
    [1.0, 2.0],
    [(0.0, 0.0), (1.0,)],
    [(0.0, 0.0), (math.nan, 0.0), (math.nan, 1.0)],
    [(0.0, math.inf)],
    [(-math.inf, 0.0), (0.0, 0.0)],
]


class TestHausdorff:
    def test_hand_values(self):
        assert hausdorff_distance([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)
        a = [(0.0, 0.0), (10.0, 0.0)]
        b = [(0.0, 0.0)]
        assert hausdorff_distance(a, b) == pytest.approx(10.0)
        assert hausdorff_distance(b, a) == pytest.approx(10.0)
        assert hausdorff_distance(a, a) == 0.0

    def test_accepts_clouds_and_arrays(self):
        cloud = PointCloud(np.array([[0.0, 0.0]]), None, "chaos", 1)
        assert hausdorff_distance(cloud, [(0.0, 1.0)]) == pytest.approx(1.0)

    @staticmethod
    def all_pairs(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        dx = a[:, None, 0] - b[None, :, 0]
        dy = a[:, None, 1] - b[None, :, 1]
        d = np.sqrt(dx * dx + dy * dy)
        return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.one_of(
            st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=6),
            st.lists(
                st.tuples(
                    *[st.one_of(
                        st.sampled_from([0.0, -0.0, 0.5, -1.0]),
                        st.floats(-1e3, 1e3, allow_nan=False),
                    )] * 2
                ),
                min_size=1,
                max_size=6,
            ),
        ),
        picks=st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=30),
            min_size=2,
            max_size=2,
        ),
    )
    def test_exact_against_all_pairs(self, base, picks):
        # clouds of unequal lengths drawn from a few points, so most points
        # repeat; a flag turns a repeat's zero coordinates into -0.0
        def draw(row, flip):
            p = base[row % len(base)]
            if flip and isinstance(p[0], float):
                return tuple(-0.0 if x == 0.0 else x for x in p)
            return p

        a, b = ([draw(row, flip) for row, flip in side] for side in picks)
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        assert hausdorff_distance(b, a) == self.all_pairs(a, b)

    @pytest.mark.parametrize("bad", BAD_CLOUDS)
    def test_bad_clouds_rejected(self, bad):
        with pytest.raises(ConfigError):
            hausdorff_distance(bad, [(0.0, 0.0)])
        with pytest.raises(ConfigError):
            hausdorff_distance([(0.0, 0.0)], bad)


class TestBoxCounting:
    @pytest.mark.parametrize("bad", BAD_CLOUDS)
    def test_bad_clouds_rejected(self, bad):
        with pytest.raises(ConfigError, match="point cloud"):
            box_dim_estimate(bad)

    def test_non_finite_point_named_as_such(self):
        # these used to fail with "spans more than 2^31 cells"
        for bad in ([(math.nan, 0.0), (0.5, 0.5)], [(math.inf, 0.0)]):
            with pytest.raises(ConfigError, match="NaN or infinite"):
                box_dim_estimate(bad)

    def test_single_point(self):
        res = box_dim_estimate([(0.3, 0.7)])
        assert res.slope == 0.0
        assert res.r_squared == 1.0
        assert res.counts == (1, 1, 1)

    def test_exact_lattice_slope_two(self):
        # cell centers of the 64 x 64 dyadic grid: counts are exactly
        # 4^k until the grid saturates at k = 6
        i = (np.arange(64) + 0.5) / 64.0
        xx, yy = np.meshgrid(i, i)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        res = box_dim_estimate(pts, k_min=4, k_max=12)
        assert res.counts == (256, 1024, 4096)
        assert res.slope == pytest.approx(2.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)
        assert res.scales == (2.0 ** -4, 2.0 ** -5, 2.0 ** -6)

    def test_edge_points_go_to_lower_cell(self):
        assert _cell_counts(np.array([[0.0, 0.0]]), 2, 2)[0] == 1
        # (0,0) lies on a cell edge and belongs below; (0.25, 0.25) is
        # interior to the cell above it
        assert _cell_counts(np.array([[0.0, 0.0], [0.25, 0.25]]), 2, 2)[0] == 2

    def test_negative_coordinates(self):
        assert _cell_counts(np.array([[-0.3, -0.7], [0.3, 0.7]]), 4, 4)[0] == 2

    def test_count_does_not_depend_on_distance_from_origin(self):
        pts = np.random.default_rng(0).uniform(0.0, 0.01, size=(200_000, 2))
        assert _cell_counts(pts, 12, 12)[0] == 1681
        assert _cell_counts(pts + 1e6, 12, 12)[0] == 1681

    def test_extent_past_31_bits_rejected(self):
        # 1e6 * 2^12 cells is more than 2^31
        with pytest.raises(ConfigError, match="2\\^31"):
            _cell_counts(np.array([[0.0, 0.0], [1e6, 0.0]]), 12, 12)

    @settings(max_examples=150, deadline=None)
    @given(
        coords=st.lists(
            st.one_of(
                st.floats(min_value=-1.0, max_value=1.0),
                # exactly on dyadic edges of every level up to 16
                st.builds(
                    lambda m, e: m / 2.0 ** e,
                    st.integers(-(2 ** 10), 2 ** 10),
                    st.integers(0, 16),
                ),
            ),
            min_size=2,
            max_size=160,
        ),
        offset=st.sampled_from([0.0, 1e6, -1e6]),
        k_min=st.integers(0, 6),
        n_levels=st.integers(3, 9),
    )
    def test_counts_match_per_level_unique(self, coords, offset, k_min, n_levels):
        pts = np.array(coords[: len(coords) // 2 * 2]).reshape(-1, 2) + offset
        k_max = k_min + n_levels - 1
        want = [
            len(np.unique((np.ceil(np.ldexp(pts, k)) - 1).astype(np.int64), axis=0))
            for k in range(k_min, k_max + 1)
        ]
        got = box_dim_estimate(pts, k_min, k_max).counts
        # saturated trailing levels are trimmed, never changed
        assert list(got) == want[: len(got)]
        assert all(c == got[-1] for c in want[len(got):])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wide_level_range(self):
        # 2000 levels: a point at the origin stays in one cell at every
        # level, any other point overflows the grid with a typed error and
        # no numpy warning
        assert box_dim_estimate([(0.0, 0.0)], 0, 2000).counts == (1, 1, 1)
        with pytest.raises(ConfigError, match="2\\^31"):
            box_dim_estimate([(0.3, 0.7)], 0, 2000)

    def test_validation(self):
        with pytest.raises(ConfigError):
            box_dim_estimate(np.empty((0, 2)))
        with pytest.raises(ConfigError):
            box_dim_estimate([(0.0, 0.0)], k_min=5, k_max=4)
        with pytest.raises(ConfigError):
            box_dim_estimate([(0.0, 0.0)], k_min=4, k_max=5)

    def test_cantor_dimension(self):
        cloud = chaos_game(cantor_similarities(), 0.0, 100000, seed=9)
        res = box_dim_estimate(cloud)
        assert res.slope == pytest.approx(math.log(2) / math.log(3), abs=0.05)
        assert res.r_squared >= 0.98


SQUARE = ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


class TestLevelBodies:
    def test_counts_and_flags(self):
        fam = scalar_family()
        levels = level_bodies(fam, 0.0, SQUARE, 3)
        assert [len(l) for l in levels] == [2, 4, 8]
        assert [flag for _, flag in levels[0]] == [False, True]
        for later in levels[1:]:
            assert not any(flag for _, flag in later)

    def test_bodies_shrink_into_region(self):
        fam = drop_family()
        region = ConvexBody.polygon(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        )
        for bodies in level_bodies(fam, 0.7, region, 3):
            for body, _ in bodies:
                assert containment_margin(body, region) >= 0.0

    @pytest.mark.parametrize("levels", [0, -3])
    def test_levels_below_one_rejected(self, levels):
        with pytest.raises(ConfigError, match="levels must be at least 1"):
            level_bodies(drop_family(), 0.0, SQUARE, levels)

    def test_apply_body_on_segment(self):
        m = AffineMap2(Mat2.diagonal(2.0, 2.0), (1.0, 0.0))
        seg = apply_body(m, ConvexBody.segment((0.0, 0.0), (1.0, 1.0)))
        assert seg.kind == "segment"
        assert np.allclose(seg.vertices, [(1.0, 0.0), (3.0, 2.0)])


class TestRenderLevels:
    def test_svg_structure(self):
        svg = render_levels(scalar_family(), 0.0, SQUARE, 2)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count('class="region"') == 1
        assert svg.count('class="lvl1"') == 1
        assert svg.count('class="swept"') == 1
        # level 2: one polygon through the invertible map, three segments
        assert svg.count('<polygon class="lvl2"') == 1
        assert svg.count('<line class="lvl2"') == 3

    def test_levels_validated(self):
        for bad in (0, 4):
            with pytest.raises(ConfigError):
                render_levels(scalar_family(), 0.0, SQUARE, bad)

    def test_needs_polygon_region(self):
        with pytest.raises(ConfigError):
            render_levels(scalar_family(), 0.0, ConvexBody.segment((0, 0), (1, 0)), 1)
