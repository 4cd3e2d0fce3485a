import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affdim
import affdim.attractor as attractor
from affdim import (
    AffineMap2,
    ConvexBody,
    IfsFamily,
    Mat2,
    PointCloud,
    box_dim_estimate,
    chaos_game,
    cylinder_points,
    exceptional_family,
    find_common_fixed_point_angle,
    hausdorff_distance,
    invariance_clouds,
    disk_polygon,
    render_levels,
)
from affdim.attractor import (
    _CHAOS_CHUNK,
    _KEY_MIX,
    _ORBITS,
    _cell_counts,
    _keyed_points,
    _level_bodies,
    _orbits,
    apply_body,
)
from affdim.errors import BudgetError, ConfigError
from affdim.ifs import _map_table, attractor_bound, compose_word
from affdim.linalg import RankOneFactor
from affdim.separation import _containment_margin

from families import (
    cantor_similarities,
    drop_family,
    scalar_family,
    wide_family,
)


def lane_picks(n_maps, n_points, seed, burn_in):
    """(start, size, picks) per chunk: each chunk of at most _CHAOS_CHUNK
    points draws one (burn_in + L, _ORBITS) pick array from its sub-seed,
    row k for step k of every orbit, column r for orbit r."""
    steps = burn_in + _CHAOS_CHUNK // _ORBITS
    starts = range(0, n_points, _CHAOS_CHUNK)
    for start, child in zip(starts, np.random.SeedSequence(seed).spawn(len(starts))):
        picks = np.random.default_rng(child).integers(0, n_maps, size=(steps, _ORBITS))
        yield start, min(_CHAOS_CHUNK, n_points - start), picks.T.tolist()


def loop_cloud(maps, n_points, seed, burn_in=64):
    """Reference chaos game: the plain per-point loop of every orbit from
    the origin, a rank-one map in its factored form rho v (w . p) + t;
    point k * _ORBITS + r of a chunk is step burn_in + k of orbit r."""
    coeffs = []
    for m in maps:
        t = m.translation
        if isinstance(m.linear, RankOneFactor):
            r = m.linear
            coeffs.append(("r", r.rho, *r.v(), *r.w(), t[0], t[1]))
        else:
            a = m.linear
            coeffs.append(("d", a.a11, a.a12, a.a21, a.a22, t[0], t[1]))
    out = np.empty((n_points, 2))
    for start, size, orbits in lane_picks(len(maps), n_points, seed, burn_in):
        for lane, picks in enumerate(orbits):
            x = y = 0.0
            for step, pick in enumerate(picks):
                c = coeffs[pick]
                if c[0] == "d":
                    x, y = c[1] * x + c[2] * y + c[5], c[3] * x + c[4] * y + c[6]
                else:
                    s = c[1] * (c[4] * x + c[5] * y)
                    x, y = c[2] * s + c[6], c[3] * s + c[7]
                at = (step - burn_in) * _ORBITS + lane
                if 0 <= at < size:
                    out[start + at] = (x, y)
    return out


def lane_loop_clouds(tables, n_points, seed, burn_in):
    """Plain-float reference of _orbits: each orbit of each chunk steps
    from the origin through the picked _map_table rows,
    x, y = a11 * x + a12 * y + t1, a21 * x + a22 * y + t2."""
    rows = [table.tolist() for table in tables]
    clouds = [np.empty((n_points, 2)) for _ in tables]
    for start, size, orbits in lane_picks(len(rows[0]), n_points, seed, burn_in):
        for table, cloud in zip(rows, clouds):
            for lane, picks in enumerate(orbits):
                x = y = 0.0
                for step, pick in enumerate(picks):
                    a11, a12, a21, a22, t1, t2 = table[pick]
                    x, y = a11 * x + a12 * y + t1, a21 * x + a22 * y + t2
                    at = (step - burn_in) * _ORBITS + lane
                    if 0 <= at < size:
                        cloud[start + at] = (x, y)
    return clouds


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
        # clouds longer than one chunk extend shorter ones exactly, also
        # those that end mid-chunk and mid-row of 128 orbits
        fam = cantor_similarities()
        long = chaos_game(fam, 0.0, 40000, seed=5)
        assert long.points.shape == (40000, 2)
        for n_short in (1, 127, 129, 1000, 32767, 32768):
            short = chaos_game(fam, 0.0, n_short, seed=5)
            assert short.points.shape == (n_short, 2)
            assert np.array_equal(long.points[:n_short], short.points), n_short

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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # -1 ended in numpy's "expected non-negative integer"
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            chaos_game(drop_family(), 0.0, 10, seed)
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            invariance_clouds(drop_family(), 0, 0, 1.0, 10, seed)

    def test_burn_in_must_be_nonnegative(self):
        # -5 raised a numpy broadcast ValueError
        with pytest.raises(ConfigError, match="burn-in"):
            chaos_game(drop_family(), 0.0, 10, 1, burn_in=-5)
        # 2.5 raised a bare TypeError from numpy
        with pytest.raises(ConfigError, match="burn-in must be a nonnegative integer"):
            chaos_game(drop_family(), 0.0, 10, 1, burn_in=2.5)

    def test_numpy_integer_seed_accepted(self):
        a = chaos_game(drop_family(), 0.0, 50, np.int64(3))
        b = chaos_game(drop_family(), 0.0, 50, 3)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("n_points", [2 ** 62, 10 ** 20])
    def test_unallocatable_count_is_a_budget_error(self, n_points):
        # numpy refuses both counts whatever the host's memory: "array is
        # too big" and "Maximum allowed dimension exceeded"
        with pytest.raises(BudgetError, match="%d points" % n_points):
            chaos_game(drop_family(), 0.0, n_points, 1)
        with pytest.raises(BudgetError, match="%d points" % n_points):
            invariance_clouds(drop_family(), 0, 0, 1.0, n_points, 1)

    @pytest.mark.parametrize("burn_in", [2 ** 62, 10 ** 20])
    def test_unallocatable_burn_in_is_a_budget_error(self, burn_in, monkeypatch):
        # a chunk's (burn_in + 1) x 128 picks exceed numpy's sizes; the
        # error comes before any seed is spawned
        monkeypatch.setattr(np.random, "SeedSequence", None)
        with pytest.raises(BudgetError, match="burn-in of %d" % burn_in):
            chaos_game(drop_family(), 0.0, 10, 1, burn_in=burn_in)
        with pytest.raises(BudgetError, match="burn-in of %d" % burn_in):
            invariance_clouds(drop_family(), 0, 0, 1.0, 10, 1, burn_in)

    def test_alpha_must_be_a_real_number(self):
        # "x" ended in a bare ValueError from float()
        with pytest.raises(ConfigError, match="real number"):
            chaos_game(drop_family(), "x", 10, 1)


class TestOrbitKernel:
    # a rank-one map's factored form rounds differently from its dense
    # table row, so the plain loop matches to rounding, scaled by the
    # attractor's size; 40000 points span two chunks, the second ending
    # mid-step (its last step fills 64 of the 128 orbits)

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

    @pytest.mark.parametrize("burn_in", [0, 64])
    def test_orbits_are_the_lane_loop_bit_for_bit(self, burn_in):
        # two chunks, the second ending mid-step
        fam = wide_family()
        tables = [_map_table(fam.instantiate(alpha)) for alpha in (0.4, 1.1)]
        n_points = _CHAOS_CHUNK + 100
        for group in (tables[:1], tables):
            got = _orbits(group, n_points, 9, burn_in)
            want = lane_loop_clouds(group, n_points, 9, burn_in)
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

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


class TestOrbitPicks:
    # _orbits holds the picks of every table in one narrow unsigned array,
    # table t's offset by t * n_maps, groups chunks by those bytes and
    # draws each chunk in int64 blocks of at most _PICK_BYTES

    @pytest.mark.parametrize("n_maps, block", [(2, 7), (3, 100), (27, 13), (300, 200)])
    def test_blocks_of_a_generator_give_one_draw(self, n_maps, block):
        child = np.random.SeedSequence(4).spawn(3)[2]
        whole = np.random.default_rng(child).integers(0, n_maps, size=(1000, _ORBITS))
        rng = np.random.default_rng(child)
        parts = [rng.integers(0, n_maps, size=(min(block, 1000 - row), _ORBITS)) for row in range(0, 1000, block)]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("n_tables", [1, 2])
    @pytest.mark.parametrize("chunks_per_group", [1, 2])
    def test_grouping_is_invisible(self, n_tables, chunks_per_group, monkeypatch):
        # three full chunks and a partial one: one group by default, else
        # groups of one chunk or of two, the partial chunk in the last;
        # the smaller budget also draws the picks in blocks of 40-160 rows
        fam = wide_family()
        tables = [_map_table(fam.instantiate(alpha)) for alpha in (0.4, 1.1)][:n_tables]
        n_points = 3 * _CHAOS_CHUNK + 1000
        want = _orbits(tables, n_points, 2, 64)
        monkeypatch.setattr(attractor, "_PICK_BYTES", chunks_per_group * n_tables * (64 + 256) * _ORBITS)
        got = _orbits(tables, n_points, 2, 64)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    @pytest.mark.parametrize("n_maps, n_tables", [(300, 1), (200, 2)])
    def test_two_byte_picks_are_the_lane_loop_bit_for_bit(self, n_maps, n_tables):
        # 300 maps, or two tables of 200, index past one byte
        rng = np.random.default_rng(n_maps)
        tables = [rng.uniform(-0.3, 0.3, size=(n_maps, 6)) for _ in range(n_tables)]
        got = _orbits(tables, _ORBITS * 40 + 5, 3, 8)
        want = lane_loop_clouds(tables, _ORBITS * 40 + 5, 3, 8)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_tables_of_unequal_length_rejected(self):
        table = _map_table(drop_family().instantiate(0.7))
        with pytest.raises(ConfigError, match="equal length"):
            _orbits([table, table[:-1]], 10, 1, 0)

    def test_memory_peak(self):
        # the 16-byte points of the cloud, one chunk of padding (512 KiB)
        # when the last chunk is partial (1e6 points), at most _PICK_BYTES
        # of held picks (1.25 MiB of one-byte picks at 2^20), and 1 MiB
        # for one chunk's int64 draw (320 KiB) and the step buffers of
        # 4096 orbits (384 KiB)
        for n_points, padding in ((1 << 20, 0), (10 ** 6, 2 ** 19)):
            tracemalloc.start()
            try:
                cloud = chaos_game(drop_family(), 0.0, n_points, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * n_points + padding + attractor._PICK_BYTES + 2 ** 20, n_points
            # the cloud is a view of the padded buffer, used without a copy
            assert np.shares_memory(attractor._checked_points(cloud), cloud.points)
            del cloud

    def test_small_clouds_pad_under_one_row(self):
        # under one chunk the buffer holds only whole rows of 128 orbits
        for n_points in (1, 10, 127, 128, 129, 1000):
            points = chaos_game(drop_family(), 0.7, n_points, 1).points
            assert points.base.shape == (1, -(-n_points // _ORBITS) * _ORBITS, 2)

    def test_long_burn_in_draws_in_blocks(self):
        # a burn-in of 8192 steps each chunk 8193 rows of 128 picks: one
        # int64 block of at most _PICK_BYTES at a time, then 1 MiB of
        # one-byte picks held
        tracemalloc.start()
        try:
            chaos_game(drop_family(), 0.7, 10, 1, burn_in=8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * attractor._PICK_BYTES


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

    def test_budget_guard(self, monkeypatch):
        # 2^5 words pass a budget of 32 and not one of 31
        monkeypatch.setattr(attractor, "_CYLINDER_BUDGET", 31)
        with pytest.raises(BudgetError, match="2 maps at depth 5 exceeds the budget of 31 points$"):
            cylinder_points(drop_family(), 0.0, 5)
        monkeypatch.setattr(attractor, "_CYLINDER_BUDGET", 32)
        assert len(cylinder_points(drop_family(), 0.0, 5).points) == 32
        with pytest.raises(BudgetError, match="depth 6 "):
            cylinder_points(drop_family(), 0.0, 6)
        # one map has one word at every depth
        one = IfsFamily(regular=(AffineMap2(Mat2.diagonal(0.5, 0.5), (1.0, 0.0)),))
        assert cylinder_points(one, 0.0, 40).points.shape == (1, 2)

    @pytest.mark.parametrize("depth", [20000, 10 ** 6])
    def test_deep_budget_error_names_depth_and_budget(self, depth):
        # 2^20000 raised a bare ValueError from the integer-to-text limit,
        # and depth 9000 printed a 2710-digit count
        message = "2 maps at depth %d exceeds the budget of %d points$" % (depth, 1 << 20)
        with pytest.raises(BudgetError, match=message):
            cylinder_points(drop_family(), 0.0, depth)

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
    # complex and text entries were cast to their real parts and numbers
    [(1.0 + 5.0j, 0.0)],
    [("1", "2")],
]


class TestHausdorff:
    def test_hand_values(self):
        assert hausdorff_distance([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)
        a = [(0.0, 0.0), (10.0, 0.0)]
        b = [(0.0, 0.0)]
        assert hausdorff_distance(a, b) == pytest.approx(10.0)
        assert hausdorff_distance(b, a) == pytest.approx(10.0)
        assert hausdorff_distance(a, a) == 0.0

    def test_complex_cloud_rejected(self):
        # the real parts were compared after only a ComplexWarning: 0.0
        with pytest.raises(ConfigError, match="real numbers"):
            hausdorff_distance([[1 + 5j, 0]], [[1, 0]])

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

    @staticmethod
    def colliding_pair(rng):
        """Two distinct finite points with the same dedupe key: y2's bits
        are y1 ^ x1*K ^ x2*K, redrawn until y2 is finite and its squared
        distances cannot overflow."""
        mix = int(_KEY_MIX)
        while True:
            x1, y1, x2 = rng.uniform(-1.0, 1.0, 3)
            bits = np.array([x1, y1, x2]).view(np.uint64).tolist()
            y2_bits = bits[1] ^ ((bits[0] * mix) % 2**64) ^ ((bits[2] * mix) % 2**64)
            y2 = float(np.array([y2_bits], dtype=np.uint64).view(np.float64)[0])
            if math.isfinite(y2) and abs(y2) < 1e100:
                return (x1, y1), (x2, y2)

    def test_key_collision(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p1, p2 = self.colliding_pair(rng)
            keys, distinct = _keyed_points(np.array([p1, p2]), 1)
            assert len(distinct) == 2 and keys[0] == keys[1]
            q = tuple(rng.uniform(-1.0, 1.0, 2))
            for a, b in [
                ([p1, p2, p1, p2], [p2]),
                ([p1], [p2, p1, p2]),
                ([p2, q, p1], [p1, p2, p2]),
                ([p1, p2, p2, p1, q], [q, p2]),
            ]:
                assert hausdorff_distance(a, b) == self.all_pairs(a, b)
                assert hausdorff_distance(b, a) == self.all_pairs(a, b)

    def test_low_bit_neighbours_keep_one_copy_each(self):
        # points whose coordinates differ only in their last bits, each
        # three times in a random order: the keys' second multiply carries
        # those bits up past the row index, so every repeat is dropped
        rng = np.random.default_rng(2)
        i, j = np.meshgrid(np.arange(64), np.arange(64))
        grid = np.column_stack((1.0 + i.ravel() * 2.0 ** -52, 1.0 + j.ravel() * 2.0 ** -52))
        cloud = grid[rng.permutation(np.repeat(np.arange(len(grid)), 3))]
        keys, distinct = _keyed_points(cloud, 1)
        assert len(distinct) == len(grid)
        assert np.all(keys[1:] >= keys[:-1])
        assert hausdorff_distance(cloud, grid) == 0.0
        # (1, 1) alone is missing from the other side, one ulp from its nearest
        assert hausdorff_distance(cloud, grid[1:]) == 2.0 ** -52

    def test_shared_points_found_by_key_across_cloud_sizes(self, monkeypatch):
        # 100 and 4100 rows take index fields of different widths; both
        # clouds are keyed with the wider one, so every point of the
        # smaller cloud is found in the larger by its key
        rng = np.random.default_rng(12)
        a = rng.normal(size=(100, 2))
        b = np.concatenate([rng.normal(size=(4000, 2)), a])
        keyed, real = [], attractor._keyed_points
        monkeypatch.setattr(attractor, "_keyed_points", lambda *args: keyed.append(real(*args)) or keyed[-1])
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        (ka, za), (kb, zb) = keyed
        assert (np.take(zb, np.searchsorted(kb, ka), mode="clip") == za).all()

    def test_shuffled_copy_is_at_distance_zero(self):
        rng = np.random.default_rng(11)
        cloud = rng.normal(size=(300, 2))
        cloud = cloud[rng.integers(0, len(cloud), size=1000)]
        assert hausdorff_distance(cloud, rng.permutation(cloud)) == 0.0

    def test_all_points_shared_but_one(self):
        rng = np.random.default_rng(3)
        shared = rng.normal(size=(200, 2))
        extra = np.array([[4.0, -3.0]])
        a = np.concatenate([shared, shared[:50]])
        b = np.concatenate([rng.permutation(shared), extra])
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        assert hausdorff_distance(b, a) == self.all_pairs(a, b)
        assert hausdorff_distance(a, b) > 0.0

    def test_underflowing_squares(self):
        # dx*dx rounds to 0 for the tiny x, so the two points are at float
        # distance 0 although |dx| > 0: a strip of half-width sqrt(0) would
        # leave the nearest point out
        base = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (2.2250738585072014e-308, 0.0)]
        for a, b in [(base, base[:1]), (base[3:], base[:1]), (base[3:] * 2 + base[:1], base[1:3])]:
            assert hausdorff_distance(a, b) == self.all_pairs(a, b) == 0.0
            assert hausdorff_distance(b, a) == 0.0

    def test_overflowing_squares_are_infinite(self):
        # as in the KD-tree, and without numpy's overflow warnings
        rng = np.random.default_rng(8)
        far = rng.uniform(-1.0, 1.0, size=(40, 2)) * 1.5e308
        for a, b in [([(1e200, 0.0)], [(-1e200, 0.0)]), (far, far[::2] * -1.0), (far, [(0.0, 0.0)])]:
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a) == math.inf

    @pytest.fixture
    def trees(self, monkeypatch):
        """The sizes of the KD-trees that hausdorff_distance builds."""
        import scipy.spatial

        built, tree = [], scipy.spatial.cKDTree

        def counted(data, *args, **kwargs):
            built.append(len(data))
            return tree(data, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
        return built

    @pytest.mark.parametrize("seed", range(3))
    def test_independent_clouds_take_the_tree(self, trees, seed):
        # x-order neighbours bound the distances of independent clouds
        # poorly, so most points are left to the KD-tree
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(size=(300, 2)), rng.uniform(size=(400, 2))
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        assert hausdorff_distance(b, a) == self.all_pairs(a, b)
        assert sorted(trees) == [300, 300, 400, 400]

    @pytest.mark.parametrize("x", [0.0, -0.3, 1e6])
    def test_vertical_lines_take_the_tree(self, trees, x):
        # every x is equal: the window and the strips see no order at all
        rng = np.random.default_rng(4)
        a = np.column_stack((np.full(200, x), rng.uniform(size=200)))
        b = np.column_stack((np.full(150, x), rng.uniform(size=150) ** 2))
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        assert hausdorff_distance(b, a) == self.all_pairs(a, b)
        assert trees

    def test_jittered_copy_settles_without_the_tree(self, trees):
        # each point's nearest is its own jittered copy, next to it in x
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(2000, 2))
        b = a + rng.normal(scale=1e-9, size=a.shape)
        assert hausdorff_distance(a, b) == self.all_pairs(a, b)
        assert hausdorff_distance(b, a) == self.all_pairs(a, b)
        assert trees == []

    def test_coupled_clouds_leave_scipy_spatial_out(self):
        # the benchmark's coupled clouds settle from their x-order
        # neighbours; an independent pair after them loads scipy.spatial
        src = str(Path(affdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from affdim import find_common_fixed_point_angle, hausdorff_distance, invariance_clouds",
            "from families import wide_family",
            "fam = wide_family()",
            "alpha = find_common_fixed_point_angle(fam, 0, 0)",
            "full, reduced = invariance_clouds(fam, 0, 0, alpha, 200_000, 1, 64)",
            "print(0.0 < hausdorff_distance(full, reduced) <= 1e-9, 'scipy.spatial' in sys.modules)",
            "rng = np.random.default_rng(1)",
            "hausdorff_distance(rng.uniform(size=(500, 2)), rng.uniform(size=(500, 2)))",
            "print('scipy.spatial' in sys.modules)",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert out.stdout.split() == ["True", "False", "True"]

    @pytest.mark.parametrize("bad", BAD_CLOUDS)
    def test_bad_clouds_rejected(self, bad):
        with pytest.raises(ConfigError):
            hausdorff_distance(bad, [(0.0, 0.0)])
        with pytest.raises(ConfigError):
            hausdorff_distance([(0.0, 0.0)], bad)


def _unique_counts(pts, k_min, k_max):
    """Occupied cells per level by np.unique of each level's index pairs,
    each pair viewed as one complex number (the indices are exact floats)."""
    return [
        len(np.unique((np.ceil(np.ldexp(pts, k)) - 1).view(np.complex128)))
        for k in range(k_min, k_max + 1)
    ]


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
        want = _unique_counts(pts, k_min, k_max)
        got = box_dim_estimate(pts, k_min, k_max).counts
        # saturated trailing levels are trimmed, never changed
        assert list(got) == want[: len(got)]
        assert all(c == got[-1] for c in want[len(got):])

    def test_repeated_cells_match_per_level_unique(self):
        # the demo cloud repeats its few cells thousands of times each
        pts = chaos_game(drop_family(), 0.0, 200_000, seed=12).points
        assert _cell_counts(pts, 2, 14) == _unique_counts(pts, 2, 14)

    def test_distinct_cells_match_per_level_unique(self):
        # nearly every point has a cell of its own at the finest level
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(200_000, 2))
        got = _cell_counts(pts, 0, 14)
        assert got == _unique_counts(pts, 0, 14)
        assert got[-1] > 199_000
        # plain ints, so a count prints the same as before, not as np.int64(...)
        assert all(type(c) is int for c in got)

    def test_cells_at_the_edge_of_the_packed_fields(self):
        # cells 0 and 2^31 - 1 on each axis, the extremes of the 31-bit
        # indices in the packed key x << 32 | y, and cells 2^30 apart,
        # which only the top bit of an index tells apart
        lo, hi, mid = 2.0 ** -12, 2.0 ** 19, 2.0 ** 18 + 2.0 ** -12
        pts = np.array([(lo, lo), (hi, hi), (lo, hi), (hi, lo), (hi - lo, hi),
                        (hi, hi - lo), (0.5, 0.5), (lo, mid), (mid, lo)])
        assert (np.ceil(np.ldexp(pts, 12)) - 1).max() == 2 ** 31 - 1
        assert _cell_counts(pts, 0, 12) == _unique_counts(pts, 0, 12)
        assert _cell_counts(pts, 0, 12)[-1] == 9

    def test_level_range_wider_than_31(self):
        # 41 levels: the finest cells are 2^-40 wide; the cloud straddles
        # an edge of level 10, 30 levels up, and fits one cell of level 9
        edge = 0.5 + 2.0 ** -10
        rng = np.random.default_rng(5)
        pts = edge + rng.uniform(-(2.0 ** -12), 2.0 ** -12, size=(5000, 2))
        pts = np.concatenate([pts, pts[:100]])
        got = _cell_counts(pts, 0, 40)
        assert got == _unique_counts(pts, 0, 40)
        assert got[9:11] == [1, 4] and got[-1] == 5000

    def test_memory_peak(self):
        # the distinct cells are few, so after the indices only small
        # arrays are built; 2^20 points take 8 MiB for the one index
        # buffer of both axes and 4 MiB for the half that waits
        pts = chaos_game(drop_family(), 0.0, 1 << 20, seed=3).points
        tracemalloc.start()
        try:
            box_dim_estimate(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2 ** 20

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


@pytest.mark.parametrize(
    "call",
    [
        lambda fam: chaos_game(fam, 0.0, 10.5, 1),
        lambda fam: chaos_game(fam, 0.0, math.nan, 1),
        lambda fam: invariance_clouds(fam, 0, 0, 0.3, 10.5, 1),
        lambda fam: invariance_clouds(fam, 0, 0, 0.3, math.nan, 1),
        lambda fam: cylinder_points(fam, 0.0, 2.5),
        lambda fam: box_dim_estimate(chaos_game(fam, 0.0, 64, 1), k_min=4.0),
        lambda fam: box_dim_estimate(chaos_game(fam, 0.0, 64, 1), k_max=12.0),
        lambda fam: render_levels(fam, 0.0, SQUARE, 2.0),
        lambda fam: render_levels(fam, 0.0, SQUARE, True),
        lambda fam: disk_polygon((0.0, 0.0), 1.0, n=3.5),
    ],
    ids=[
        "chaos-float", "chaos-nan", "clouds-float", "clouds-nan", "cylinder-depth",
        "boxdim-kmin", "boxdim-kmax", "render-float", "render-bool", "disk-n",
    ],
)
def test_non_integer_counts_rejected(call):
    with pytest.raises(ConfigError):
        call(drop_family())


class TestLevelBodies:
    def test_counts_and_flags(self):
        fam = scalar_family()
        levels = _level_bodies(fam, 0.0, SQUARE, 3)
        assert [len(l) for l in levels] == [2, 4, 8]
        assert [flag for _, flag in levels[0]] == [False, True]
        for later in levels[1:]:
            assert not any(flag for _, flag in later)

    def test_bodies_shrink_into_region(self):
        fam = drop_family()
        region = ConvexBody.polygon(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        )
        for bodies in _level_bodies(fam, 0.7, region, 3):
            for body, _ in bodies:
                assert _containment_margin(body, region) >= 0.0

    @pytest.mark.parametrize("levels", [0, -3])
    def test_levels_below_one_rejected(self, levels):
        with pytest.raises(ConfigError, match="levels must be at least 1"):
            _level_bodies(drop_family(), 0.0, SQUARE, levels)

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
