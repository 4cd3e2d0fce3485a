import json
import math

import mpmath  # a declared test dependency: missing, it fails the module
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affdim import (
    AffineMap2,
    ArcSet,
    ConvexBody,
    IfsFamily,
    LineDir,
    Mat2,
    RankOneSite,
    admissible_projections,
    check_convex_separation,
    disk_polygon,
    family_bodies,
    image_body,
    projected_interval,
    projection_witness,
)
from affdim.errors import AffdimError, ConfigError
from affdim.linalg import unit_vector
from affdim.separation import (
    _body_distance,
    _containment_margin,
    _convex_hull,
    _direction_cone,
    _project,
    _separating_axes,
    _separating_axis,
    _swept_segment,
)

from families import cantor_similarities, drop_family, seven_map_family, wide_family

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def square_at(dx, dy):
    return ConvexBody.polygon([(x + dx, y + dy) for x, y in SQUARE])


class TestConvexBody:
    def test_hull_canonicalization(self):
        # shuffled input with an interior point and a duplicate vertex
        pts = [(1, 1), (0, 0), (0.5, 0.5), (1, 0), (0, 1), (0, 0)]
        body = ConvexBody.polygon(pts)
        assert body.kind == "polygon"
        assert body.vertices.shape == (4, 2)
        # starts at the lexicographically smallest vertex, counterclockwise
        assert np.array_equal(
            body.vertices, [(0, 0), (1, 0), (1, 1), (0, 1)]
        )

    def test_order_insensitive(self):
        a = ConvexBody.polygon(SQUARE)
        b = ConvexBody.polygon(SQUARE[2:] + SQUARE[:2])
        assert np.array_equal(a.vertices, b.vertices)

    def test_collinear_input_rejected(self):
        with pytest.raises(ConfigError):
            ConvexBody.polygon([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_segment_and_degenerate(self):
        seg = ConvexBody.segment((0, 0), (1, 0))
        assert seg.kind == "segment"
        assert np.array_equal(seg.vertices, [[0.0, 0.0], [1.0, 0.0]])
        point = ConvexBody.segment((2, 3), (2, 3))
        assert np.array_equal(point.vertices, [[2.0, 3.0], [2.0, 3.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_segment_rejects_non_finite_ends(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            ConvexBody.segment((bad, 0.0), (1.0, 0.0))
        with pytest.raises(ConfigError, match="finite"):
            ConvexBody.segment((0.0, 0.0), (1.0, bad))

    def test_max_vertex_norm(self):
        assert ConvexBody.polygon(SQUARE).max_vertex_norm() == pytest.approx(
            math.sqrt(2.0)
        )

    def test_disk_polygon(self):
        disk = disk_polygon((1.0, -2.0), 0.5, n=64)
        assert disk.vertices.shape == (64, 2)
        radii = np.hypot(disk.vertices[:, 0] - 1.0, disk.vertices[:, 1] + 2.0)
        assert np.allclose(radii, 0.5)
        with pytest.raises(ConfigError):
            disk_polygon((0, 0), -1.0)
        with pytest.raises(ConfigError):
            disk_polygon((0, 0), 1.0, n=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        # a NaN region once gave an infinite margin and a "nan" SVG viewBox
        with pytest.raises(ConfigError, match="polygon vertices must be finite"):
            ConvexBody.polygon([(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])
        with pytest.raises(ConfigError, match="polygon vertices must be finite"):
            disk_polygon((0.0, bad), 1.0)
        with pytest.raises(ConfigError, match="positive finite radius"):
            disk_polygon((0.0, 0.0), bad)

    @pytest.mark.parametrize(
        "kind, vertices",
        [
            # a zero-length edge once made _containment_margin divide 0/0
            ("polygon", [(0, 0), (1, 0), (1, 0), (0, 1)]),
            ("polygon", [(0, 0), (1, 0), (0, 1), (0, 0)]),
            ("polygon", [(0, 0), (1, 0)]),
            ("segment", [(0, 0)]),
            ("segment", [(0, 0), (1, 0), (2, 0)]),
            # an unknown kind was accepted
            ("blob", [(0, 0)]),
            # clockwise and reflex vertex lists were accepted, and gave an
            # interior point a negative containment margin
            ("polygon", [(0, 0), (0, 1), (1, 0)]),
            ("polygon", [(0, 0), (2, 0), (1, 0.2), (1, 2)]),
        ],
    )
    def test_direct_construction_is_checked(self, kind, vertices):
        with pytest.raises(ConfigError):
            ConvexBody(kind, vertices)


def _unique_hull(points):
    """The monotone-chain hull over np.unique(axis=0): the reference for
    _convex_hull's lexsort dedupe."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    scale = float(np.max(np.abs(pts))) or 1.0
    eps = 1e-12 * scale * scale

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0]) <= eps
            ):
                out.pop()
            out.append(p)
        return out

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


def _hull_clouds(seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(12, 2))
    # repeated rows, in shuffled order
    yield base[rng.integers(0, 12, size=40)]
    # collinear runs: integer points on a few lines, some repeated
    t = rng.integers(-4, 5, size=30).astype(float)
    yield np.stack([t, 2.0 * t + rng.integers(0, 3, size=30)], axis=1)
    yield np.stack([t, 3.0 * t], axis=1)
    # signed zeros next to their positive twins
    yield rng.choice([-0.0, 0.0, 1.0, -1.0], size=(25, 2))
    # one and two distinct points
    yield np.repeat(base[:1], 5, axis=0)
    yield np.concatenate([np.repeat(base[:1], 3, axis=0), np.repeat(base[1:2], 4, axis=0)])
    yield np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("seed", range(6))
def test_hull_equals_the_unique_reference(seed):
    for points in _hull_clouds(seed):
        got, ref = _convex_hull(points), _unique_hull(points)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


class TestBodyDistance:
    def test_separated_squares(self):
        assert _body_distance(square_at(0, 0), square_at(3, 0)) == pytest.approx(2.0)

    def test_diagonal_gap(self):
        # nearest points are the corners (1,1) and (2,2)
        assert _body_distance(square_at(0, 0), square_at(2, 2)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_overlap_and_touching_are_zero(self):
        assert _body_distance(square_at(0, 0), square_at(0.5, 0.0)) == 0.0
        assert _body_distance(square_at(0, 0), square_at(1.0, 0.0)) == 0.0

    def test_segment_cases(self):
        seg = ConvexBody.segment((0, 2), (1, 2))
        assert _body_distance(square_at(0, 0), seg) == pytest.approx(1.0)
        other = ConvexBody.segment((0, 3), (1, 3))
        assert _body_distance(seg, other) == pytest.approx(1.0)
        crossing = ConvexBody.segment((0.5, 1.5), (0.5, 2.5))
        assert _body_distance(seg, crossing) == 0.0

    def test_degenerate_points(self):
        p = ConvexBody.segment((0, 0), (0, 0))
        q = ConvexBody.segment((3, 4), (3, 4))
        assert _body_distance(p, q) == pytest.approx(5.0)
        assert _body_distance(p, p) == 0.0


class TestContainmentMargin:
    def test_centered_square(self):
        inner = ConvexBody.polygon(
            [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        )
        assert _containment_margin(inner, square_at(0, 0)) == pytest.approx(0.25)

    def test_vertex_outside_is_negative(self):
        inner = ConvexBody.polygon([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        assert _containment_margin(inner, square_at(0, 0)) == pytest.approx(-0.5)

    def test_segment_inside(self):
        seg = ConvexBody.segment((0.1, 0.5), (0.9, 0.5))
        assert _containment_margin(seg, square_at(0, 0)) == pytest.approx(0.1)

    def test_outer_must_be_polygon(self):
        with pytest.raises(ConfigError):
            _containment_margin(square_at(0, 0), ConvexBody.segment((0, 0), (5, 5)))

    @pytest.mark.parametrize(
        "inner",
        [
            ConvexBody("segment", [(math.nan, 0.0), (1.0, 0.0)]),
            ConvexBody("segment", [(0.2, 0.0), (0.3, math.nan)]),
            ConvexBody("polygon", [(0.1, 0.1), (0.2, 0.1), (math.nan, 0.2)]),
        ],
    )
    def test_nan_body_is_never_contained(self, inner):
        # built directly, a body skips the constructors' finite checks; a
        # NaN distance must not fold away into a margin that reads contained
        assert _containment_margin(inner, disk_polygon((0.0, 0.0), 1.0)) == -math.inf
        assert _containment_margin(inner, square_at(0, 0)) == -math.inf


# --- the scalar loops the edge arrays replaced, kept as a reference ----------


def scalar_edges(body):
    v = body.vertices
    if body.kind == "segment":
        return [(v[0], v[1])]
    return [(v[k], v[(k + 1) % len(v)]) for k in range(len(v))]


def scalar_intersect(A, B):
    axes = []
    for body in (A, B):
        for a, b in scalar_edges(body):
            d = b - a
            n = math.hypot(d[0], d[1])
            if n == 0.0:
                continue
            axes.append(np.array([-d[1] / n, d[0] / n]))
            if body.kind == "segment":
                axes.append(np.array([d[0] / n, d[1] / n]))
    if not axes:
        return bool(np.all(A.vertices[0] == B.vertices[0]))
    for ax in axes:
        pa = np.array(plain_products(A.vertices, ax))
        pb = np.array(plain_products(B.vertices, ax))
        if pa.max() < pb.min() or pb.max() < pa.min():
            return False
    return True


def scalar_point_segment_distance(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    den = ab[0] * ab[0] + ab[1] * ab[1]
    if den == 0.0:
        return math.hypot(*ap)
    t = min(1.0, max(0.0, (ap[0] * ab[0] + ap[1] * ab[1]) / den))
    return math.hypot(ap[0] - t * ab[0], ap[1] - t * ab[1])


def scalar_distance(A, B):
    if scalar_intersect(A, B):
        return 0.0
    best = math.inf
    for p in A.vertices:
        for a, b in scalar_edges(B):
            best = min(best, scalar_point_segment_distance(p, a, b))
    for p in B.vertices:
        for a, b in scalar_edges(A):
            best = min(best, scalar_point_segment_distance(p, a, b))
    return best


def scalar_margin(inner, outer):
    margin = math.inf
    for a, b in scalar_edges(outer):
        d = b - a
        n = math.hypot(d[0], d[1])
        sd = (d[0] * (inner.vertices[:, 1] - a[1]) - d[1] * (inner.vertices[:, 0] - a[0])) / n
        margin = min(margin, float(np.min(sd)))
    return margin


# small integers make exact contacts and signed zeros; floats the rest
COORDS = st.integers(-3, 3).map(float) | st.floats(-3.0, 3.0, allow_subnormal=False)
POINTS = st.tuples(COORDS, COORDS)


@st.composite
def bodies(draw):
    kind = draw(st.sampled_from(["polygon", "segment", "point"]))
    if kind == "point":
        p = draw(POINTS)
        return ConvexBody.segment(p, p)
    if kind == "segment":
        return ConvexBody.segment(draw(POINTS), draw(POINTS))
    try:
        return ConvexBody.polygon(draw(st.lists(POINTS, min_size=3, max_size=7)))
    except ConfigError:
        assume(False)


def moved(body, shift):
    v = body.vertices + shift
    return ConvexBody.segment(*v) if body.kind == "segment" else ConvexBody.polygon(v)


@st.composite
def body_pairs(draw):
    """Two bodies, the second often moved so that one of its vertices
    lands on a vertex of the first: touching or overlapping pairs."""
    A, B = draw(bodies()), draw(bodies())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(A.vertices) - 1))
        j = draw(st.integers(0, len(B.vertices) - 1))
        try:
            B = moved(B, A.vertices[i] - B.vertices[j])
        except ConfigError:
            assume(False)
    return A, B


# a point on a triangle's vertex (0, 0)
ON_A_VERTEX = (
    ConvexBody.segment((0.0, 0.0), (0.0, 0.0)),
    ConvexBody.polygon([(-1.0, 0.0), (0.0, 0.0), (-1.0, 1.0)]),
)
# two points whose distance np.hypot rounds one ulp away from math.hypot
HYPOT_SPLIT = (
    ConvexBody.segment((0.0, 0.0), (0.0, 0.0)),
    ConvexBody.segment((0.04, 0.49), (0.04, 0.49)),
)


class TestEdgeArraysMatchTheScalarLoops:
    """The broadcasts over edges x vertices give the scalar loops' floats
    in every bit, the sign of a zero margin included."""

    @settings(max_examples=400, deadline=None)
    @given(body_pairs())
    @example(ON_A_VERTEX)
    @example(HYPOT_SPLIT)
    def test_distance_and_margin(self, pair):
        A, B = pair
        assert (_separating_axis(A, B) is None) == scalar_intersect(A, B)
        assert _body_distance(A, B).hex() == scalar_distance(A, B).hex()
        for inner, outer in ((A, B), (B, A)):
            if outer.kind == "polygon":
                want = scalar_margin(inner, outer)
                assert _containment_margin(inner, outer).hex() == want.hex()

    def test_family_bodies(self):
        regions = [disk_polygon((0.0, 0.0), r) for r in (0.5, 1.0, 2.0)]
        for fam in (drop_family(), wide_family(), cantor_similarities()):
            for U in regions:
                found = family_bodies(fam, U)
                for k, A in enumerate(found):
                    assert _containment_margin(A, U).hex() == scalar_margin(A, U).hex()
                    for B in found[k + 1 :]:
                        assert _body_distance(A, B).hex() == scalar_distance(A, B).hex()

    def test_zero_margin_keeps_the_first_edges_sign(self):
        # the point sits on two edges: the first gives +0.0, the second
        # -0.0, which a minimum over the whole edge x vertex array returned
        inner, outer = ON_A_VERTEX
        assert _containment_margin(inner, outer).hex() == "0x0.0p+0"


class TestArcSet:
    def test_wrap_splits(self):
        arcs = ArcSet(math.pi - 0.2, 0.5)
        assert arcs.arcs == ((0.0, pytest.approx(0.3)), (math.pi - 0.2, math.pi))
        assert arcs.measure() == pytest.approx(0.5)
        assert arcs.contains(0.0)
        assert arcs.contains(math.pi - 0.1)
        assert not arcs.contains(1.0)
        assert ArcSet(1.0, 0.5).arcs == ((1.0, 1.5),)

    def test_contains_margin(self):
        arcs = ArcSet(1.0, 1.0)
        assert arcs.contains(1.5, margin=0.49)
        assert not arcs.contains(1.5, margin=0.51)
        # membership works mod pi
        assert arcs.contains(1.5 + math.pi)
        assert arcs.contains(1.5 - math.pi, margin=0.4)
        # the wrap point is no boundary for the depth either
        wrapped = ArcSet(math.pi - 0.2, 0.5)
        assert wrapped.contains(0.05, margin=0.24)
        assert not wrapped.contains(0.05, margin=0.26)

    def test_contains_takes_arrays(self):
        arcs = ArcSet(math.pi - 0.2, 0.5)
        angles = np.array([0.0, 0.05, 1.0, math.pi - 0.1, -0.15, 0.29])
        for margin in (0.0, 0.1):
            got = arcs.contains(angles, margin)
            assert got.tolist() == [arcs.contains(t, margin) for t in angles]
        assert arcs.contains(angles, 0.1).tolist() == [True, True, False, True, False, False]

    def test_sample(self):
        # the pieces are walked from 0: first (0, 0.3), then (pi - 0.2, pi)
        arcs = ArcSet(math.pi - 0.2, 0.5)
        pts = arcs.sample(5)
        assert pts == pytest.approx([0.05, 0.15, 0.25, math.pi - 0.15, math.pi - 0.05])
        assert all(arcs.contains(t) for t in pts)
        assert ArcSet(0.5, 1.0).sample(4) == pytest.approx([0.625, 0.875, 1.125, 1.375])

    @pytest.mark.parametrize("n", [2.5, 4.0, -1, True, "4"])
    def test_sample_count_must_be_a_count(self, n):
        # 2.5 raised a bare TypeError from range, and -1 returned []
        for arcs in (ArcSet(0.5, 1.0), ArcSet(0.0, 0.0)):
            with pytest.raises(ConfigError):
                arcs.sample(n)

    @pytest.mark.parametrize(
        "start, width", [(0.0, 5.0), (math.nan, 1.0), (0.0, math.inf), (-1.0, 0.5)]
    )
    def test_bad_arcs_raise_config_error(self, start, width):
        # measured 5.0 and nan, sampled [inf, inf] and gave the arc
        # (-1.0, -0.5)
        with pytest.raises(ConfigError):
            ArcSet(start, width)

    def test_empty_arc(self):
        empty = ArcSet(0.0, 0.0)
        assert empty.arcs == ()
        assert empty.measure() == 0.0
        assert empty.sample(4) == []
        assert not empty.contains(0.0)
        assert not empty.contains(np.linspace(-1.0, 4.0, 11)).any()
        # a padded cone of width pi or more leaves no admissible direction
        A = ConvexBody.segment((-1.0, 0.0), (1.0, 0.0))
        B = ConvexBody.segment((0.0, 1e-13), (0.0, 1.0))
        arcs = admissible_projections(A, B)
        assert arcs.measure() == 0.0 and arcs.sample(4) == []
        assert not arcs.contains(math.pi / 2)


def brute_difference_cone(A, B):
    """Width and membership test for the set of difference directions,
    computed from raw vertex pairs only."""
    diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
    angles = np.sort(np.arctan2(diffs[:, 1], diffs[:, 0]) % math.pi)
    gaps = np.diff(angles, append=angles[0] + math.pi)
    k = int(np.argmax(gaps))
    width = math.pi - float(gaps[k])
    start = float(angles[(k + 1) % len(angles)])
    return start, width, angles


def random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = ConvexBody.polygon(rng.uniform(-1, 1, size=(7, 2)))
        B = ConvexBody.polygon(rng.uniform(-1, 1, size=(7, 2)) + (3.0, 0.4))
        yield A, B


class TestAdmissibleProjections:
    def test_side_by_side_squares(self):
        A, B = square_at(0, 0), square_at(2.2, 0)
        arcs = admissible_projections(A, B)
        half = math.atan(1.0 / 1.2)
        assert arcs.measure() == pytest.approx(math.pi - 2.0 * half, abs=1e-9)
        assert arcs.contains(math.pi / 2, margin=0.5)
        assert not arcs.contains(0.0)

    def test_projections_really_separate(self):
        A, B = square_at(0, 0), square_at(2.2, 0)
        for t in admissible_projections(A, B).sample(32):
            lo_a, hi_a = projected_interval(A, t)
            lo_b, hi_b = projected_interval(B, t)
            assert hi_a < lo_b or hi_b < lo_a

    def test_collinear_segments(self):
        A = ConvexBody.segment((0, 0), (1, 0))
        B = ConvexBody.segment((2, 0), (3, 0))
        arcs = admissible_projections(A, B)
        assert not arcs.contains(0.0)
        assert arcs.contains(math.pi / 2, margin=1.0)
        assert arcs.measure() == pytest.approx(math.pi, abs=1e-9)

    def test_intersecting_bodies_rejected(self):
        with pytest.raises(ConfigError):
            admissible_projections(square_at(0, 0), square_at(0.5, 0.5))

    def test_matches_brute_cone_on_random_pairs(self):
        for A, B in random_pairs():
            arcs = admissible_projections(A, B)
            _, width, angles = brute_difference_cone(A, B)
            assert arcs.measure() == pytest.approx(math.pi - width, abs=1e-9)
            # every difference direction was excluded
            assert not any(arcs.contains(t) for t in angles)


def seven_map_pairs():
    """The disjoint image bodies of the 7-map at seed 1 in the unit disk:
    17 pairs of 64-gons and segments."""
    found = family_bodies(seven_map_family(1), disk_polygon((0.0, 0.0), 1.0))
    for k, A in enumerate(found):
        for B in found[k + 1 :]:
            if _separating_axis(A, B) is not None:
                yield A, B


def grid_body(draw):
    """A polygon or a segment, possibly point-like, on the integer grid."""
    point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    if draw(st.booleans()):
        return ConvexBody.segment(draw(point), draw(point))
    try:
        return ConvexBody.polygon(draw(st.lists(point, min_size=3, max_size=6)))
    except ConfigError:
        assume(False)


@st.composite
def grid_pairs(draw):
    """Two grid bodies, the second moved so that one of its vertices lands
    on a vertex of the first or one grid step beside it: touching,
    overlapping and one-step-apart pairs."""
    A, B = grid_body(draw), grid_body(draw)
    i = draw(st.integers(0, len(A.vertices) - 1))
    j = draw(st.integers(0, len(B.vertices) - 1))
    step = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    return A, moved(B, A.vertices[i] - B.vertices[j] + step)


# disjoint, but on the normal of A's edge (2,1)-(-1,-2) the vertices
# (0,-2) and (-1,-3) project to the same value, which rounds to a gap of
# 2.2e-16: that axis separates first and leaves their difference at 0
ROUNDED_GAP = (
    ConvexBody.polygon([(-1, -2), (0, -2), (2, 1)]),
    ConvexBody.polygon([(-1, -3), (1, -3), (1, -2)]),
)


# touching: the end (-1,3) of the first lies on the second, yet on the
# second's normal the rounded projections leave a gap of 2.2e-16
ROUNDED_TOUCH = (
    ConvexBody.segment((-1, 3), (0, 3)),
    ConvexBody.segment((1, 1), (-2, 4)),
)


class TestDirectionCone:
    @pytest.mark.parametrize("pairs, count", [(seven_map_pairs, 17), (random_pairs, 25)])
    def test_ends_within_four_ulps_of_mpmath(self, pairs, count):
        # the reference takes the exact angle of each float difference at
        # 60 digits, on the branch around the axis, and its min and max.
        # An end is atan2(u) plus an angle from u, each up to pi in size,
        # so its ulps are counted at pi or at the end, whichever is larger:
        # near 0 the sum cancels: an end of -0.06 misses by 8 ulps of itself
        checked = 0
        with mpmath.workdps(60):
            two_pi = 2 * mpmath.pi
            for A, B in pairs():
                checked += 1
                u = _separating_axis(A, B)
                diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
                ua = mpmath.atan2(u[1], u[0])
                rel = [
                    (mpmath.atan2(y, x) - ua + mpmath.pi) % two_pi - mpmath.pi
                    for x, y in diffs.tolist()
                ]
                got = _direction_cone(diffs, u)
                for end, ref in zip(got, (ua + min(rel), ua + max(rel))):
                    err = abs((end - ref + mpmath.pi) % two_pi - mpmath.pi)
                    assert err <= 4 * math.ulp(max(abs(end), math.pi)), (end, float(ref))
        assert checked == count

    @settings(max_examples=400, deadline=None)
    @given(grid_pairs())
    @example(ROUNDED_GAP)
    @example(ROUNDED_TOUCH)
    def test_near_touching_grid_pairs(self, pair):
        A, B = pair
        if _body_distance(A, B) == 0.0:
            with pytest.raises(ConfigError):
                admissible_projections(A, B)
            return
        admissible_projections(A, B)
        u = _separating_axis(A, B)
        diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
        assert (_project(diffs, u) > 0.0).all()


class TestProjectedInterval:
    def test_unit_square(self):
        body = square_at(0, 0)
        assert projected_interval(body, 0.0) == pytest.approx((0.0, 1.0))
        lo, hi = projected_interval(body, math.pi / 2)
        assert (lo, hi) == pytest.approx((-1.0, 0.0))

    def test_accepts_line_dir(self):
        body = square_at(0, 0)
        assert projected_interval(body, LineDir(0.0)) == projected_interval(body, 0.0)

    def test_direction_must_be_finite(self):
        # a NaN angle returned (nan, nan)
        with pytest.raises(ConfigError, match="finite angle"):
            projected_interval(square_at(0, 0), math.nan)


def plain_products(points, d):
    """points . d in Python floats: each product and the sum rounded once,
    with no fused multiply-add."""
    return [float(x) * float(d[0]) + float(y) * float(d[1]) for x, y in points]


def hexes(values):
    return [float(v).hex() for v in values]


def random_polygons(seed, count=30):
    rng = np.random.default_rng(seed)
    return [
        disk_polygon(rng.uniform(-3.0, 3.0, size=2), rng.uniform(0.1, 4.0))
        for _ in range(count)
    ]


class TestWrittenOutProjections:
    """The projections behind the separation decisions are the plain
    two-term float form in every bit, whatever BLAS numpy was built on."""

    def test_projected_interval(self):
        rng = np.random.default_rng(3)
        for body in random_polygons(1):
            t = float(rng.uniform(-4.0, 4.0))
            coords = plain_products(body.vertices, (-math.sin(t), math.cos(t)))
            assert hexes(projected_interval(body, t)) == hexes((min(coords), max(coords)))

    def test_rank_one_image_coefficients(self):
        fam = drop_family()
        site = fam.singular[0]
        v = unit_vector(site.v_angle)
        for k, body in enumerate(random_polygons(2)):
            m = fam.instantiate(0.37 * k)[fam.n_regular]
            coeff = [site.rho * c for c in plain_products(body.vertices, m.linear.w())]
            want = [site.translation + c * v for c in (min(coeff), max(coeff))]
            assert hexes(image_body(m, body).vertices.ravel()) == hexes(np.ravel(want))

    def test_sat_projections(self):
        bodies = random_polygons(4, count=10) + [ConvexBody.segment((0.3, -1.7), (2.9, 0.4))]
        for A, B in zip(bodies, bodies[1:] + bodies[:1]):
            # the axes of both bodies, broadcast as _separating_axis does
            axes = np.concatenate([_separating_axes(A), _separating_axes(B)])
            for body in (A, B):
                rows = _project(body.vertices, axes[:, None, :])
                for ax, row in zip(axes, rows):
                    assert hexes(row) == hexes(plain_products(body.vertices, ax))


class TestImageBody:
    def test_invertible_map(self):
        m = AffineMap2(Mat2.diagonal(0.5, 0.25), (1.0, 2.0))
        img = image_body(m, square_at(0, 0))
        assert img.kind == "polygon"
        assert np.allclose(
            img.vertices, [(1.0, 2.0), (1.5, 2.0), (1.5, 2.25), (1.0, 2.25)]
        )

    def test_rank_one_map(self):
        fam = drop_family()
        site = fam.singular[0]
        m = fam.instantiate(0.7)[fam.n_regular]
        img = image_body(m, square_at(0, 0))
        assert img.kind == "segment"
        # endpoints sit on the line t + span(v)
        v = unit_vector(site.v_angle)
        for p in img.vertices:
            d = np.asarray(p) - site.translation
            assert abs(d[0] * v[1] - d[1] * v[0]) < 1e-12

    def test_requires_polygon(self):
        m = AffineMap2(Mat2.diagonal(0.5, 0.5), (0.0, 0.0))
        with pytest.raises(ConfigError):
            image_body(m, ConvexBody.segment((0, 0), (1, 0)))


class TestSweptSegment:
    def test_exact_endpoints(self):
        fam = drop_family()
        site = fam.singular[0]
        U = square_at(0, 0)
        seg = _swept_segment(fam, 0, U)
        r = site.rho * math.sqrt(2.0)
        v = unit_vector(site.v_angle)
        want = np.array([site.translation - r * v, site.translation + r * v])
        assert np.allclose(seg.vertices, want)

    def test_covers_site_image_at_any_angle(self):
        fam = drop_family()
        U = disk_polygon((0.0, 0.0), 1.0)
        seg = _swept_segment(fam, 0, U)
        lo = seg.vertices[0]
        d = seg.vertices[1] - lo
        den = float(d @ d)
        for alpha in np.linspace(0.0, 6.0, 13):
            m = fam.instantiate(alpha)[fam.n_regular]
            for p in m.apply_points(U.vertices):
                t = float((p - lo) @ d) / den
                assert -1e-12 <= t <= 1.0 + 1e-12
                assert np.allclose(lo + t * d, p, atol=1e-12)


class TestFamilyChecks:
    def test_family_bodies_order(self):
        fam = drop_family()
        bodies = family_bodies(fam, disk_polygon((0.0, 0.0), 1.0))
        assert len(bodies) == fam.n_maps
        assert bodies[0].kind == "polygon"
        assert bodies[1].kind == "segment"

    def test_drop_family_passes(self):
        cert = check_convex_separation(drop_family(), disk_polygon((0.0, 0.0), 1.0))
        assert cert.passed
        assert all(cert.contained)
        assert cert.margin > 0.0
        assert cert.min_pairwise_distance > 0.0

    def test_wide_family_fails(self):
        cert = check_convex_separation(wide_family(), disk_polygon((0.0, 0.0), 1.0))
        assert not cert.passed
        assert not all(cert.contained)

    def test_cantor_in_rectangle(self):
        U = ConvexBody.polygon(
            [(-0.05, -0.1), (1.05, -0.1), (1.05, 0.1), (-0.05, 0.1)]
        )
        cert = check_convex_separation(cantor_similarities(), U)
        assert cert.passed
        assert cert.min_pairwise_distance == pytest.approx(0.3)

    def test_certificate_json_roundtrip(self):
        cert = check_convex_separation(drop_family(), disk_polygon((0.0, 0.0), 1.0))
        assert json.loads(cert.to_json()) == cert.to_dict()
        assert json.loads(cert.to_json())["passed"] is True


class TestProjectionWitness:
    def test_witness_separates(self):
        fam = drop_family()
        U = disk_polygon((0.0, 0.0), 1.0)
        alpha = projection_witness(fam, U, (0,), 0, 0, 1)
        bodies = family_bodies(fam, U)
        site = fam.singular[0]
        z = fam.regular[0].linear.transpose().apply(
            unit_vector(site.w_angle(alpha))
        )
        t = math.atan2(z[1], z[0])
        lo_a, hi_a = projected_interval(bodies[0], t)
        lo_b, hi_b = projected_interval(bodies[1], t)
        assert hi_a < lo_b or hi_b < lo_a

    def test_same_letters_rejected(self):
        fam = drop_family()
        with pytest.raises(ConfigError):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (0,), 0, 1, 1)

    def test_site_index_checked(self):
        fam = drop_family()
        with pytest.raises(ConfigError):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (0,), 5, 0, 1)

    @pytest.mark.parametrize("k1, k2", [(0, 7), (-1, 0), (2, 1)])
    def test_letter_indices_checked(self, k1, k2):
        fam = drop_family()
        with pytest.raises(ConfigError, match="letter index out of range"):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (0,), 0, k1, k2)

    def test_word_must_be_invertible_letters(self):
        fam = drop_family()
        with pytest.raises(ConfigError):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (1,), 0, 0, 1)

    def test_intersecting_images_rejected(self):
        fam = wide_family()
        with pytest.raises((ConfigError, AffdimError)):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (0,), 0, 0, 1)
