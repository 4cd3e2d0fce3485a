import json
import math

import numpy as np
import pytest

from affdim import (
    AffineMap2,
    ArcSet,
    ConvexBody,
    IfsFamily,
    LineDir,
    Mat2,
    RankOneSite,
    admissible_projections,
    body_distance,
    check_convex_separation,
    containment_margin,
    disk_polygon,
    family_bodies,
    image_body,
    projected_interval,
    projection_witness,
    swept_segment,
)
from affdim.errors import AffdimError, ConfigError
from affdim.linalg import unit_vector

from families import cantor_similarities, drop_family, wide_family

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


class TestBodyDistance:
    def test_separated_squares(self):
        assert body_distance(square_at(0, 0), square_at(3, 0)) == pytest.approx(2.0)

    def test_diagonal_gap(self):
        # nearest points are the corners (1,1) and (2,2)
        assert body_distance(square_at(0, 0), square_at(2, 2)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_overlap_and_touching_are_zero(self):
        assert body_distance(square_at(0, 0), square_at(0.5, 0.0)) == 0.0
        assert body_distance(square_at(0, 0), square_at(1.0, 0.0)) == 0.0

    def test_segment_cases(self):
        seg = ConvexBody.segment((0, 2), (1, 2))
        assert body_distance(square_at(0, 0), seg) == pytest.approx(1.0)
        other = ConvexBody.segment((0, 3), (1, 3))
        assert body_distance(seg, other) == pytest.approx(1.0)
        crossing = ConvexBody.segment((0.5, 1.5), (0.5, 2.5))
        assert body_distance(seg, crossing) == 0.0

    def test_degenerate_points(self):
        p = ConvexBody.segment((0, 0), (0, 0))
        q = ConvexBody.segment((3, 4), (3, 4))
        assert body_distance(p, q) == pytest.approx(5.0)
        assert body_distance(p, p) == 0.0


class TestContainmentMargin:
    def test_centered_square(self):
        inner = ConvexBody.polygon(
            [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)]
        )
        assert containment_margin(inner, square_at(0, 0)) == pytest.approx(0.25)

    def test_vertex_outside_is_negative(self):
        inner = ConvexBody.polygon([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])
        assert containment_margin(inner, square_at(0, 0)) == pytest.approx(-0.5)

    def test_segment_inside(self):
        seg = ConvexBody.segment((0.1, 0.5), (0.9, 0.5))
        assert containment_margin(seg, square_at(0, 0)) == pytest.approx(0.1)

    def test_outer_must_be_polygon(self):
        with pytest.raises(ConfigError):
            containment_margin(square_at(0, 0), ConvexBody.segment((0, 0), (5, 5)))


class TestArcSet:
    def test_wrap_splits(self):
        arcs = ArcSet.from_intervals([(-0.2, 0.3)])
        assert len(arcs.arcs) == 2
        assert arcs.measure() == pytest.approx(0.5)
        assert arcs.contains(0.0)
        assert arcs.contains(math.pi - 0.1)
        assert not arcs.contains(1.0)

    def test_merging(self):
        arcs = ArcSet.from_intervals([(0.1, 0.4), (0.3, 0.6), (1.0, 1.2)])
        assert arcs.arcs == ((0.1, 0.6), (1.0, 1.2))

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigError):
            ArcSet.from_intervals([(0.5, 0.4)])

    def test_width_at_least_pi_is_full(self):
        arcs = ArcSet.from_intervals([(0.3, 0.3 + math.pi)])
        assert arcs.arcs == ((0.0, math.pi),)

    def test_complement_roundtrip(self):
        arcs = ArcSet.from_intervals([(0.5, 1.0), (2.0, 2.5)])
        comp = arcs.complement()
        assert comp.measure() + arcs.measure() == pytest.approx(math.pi)
        again = comp.complement()
        assert all(
            lo1 == pytest.approx(lo2) and hi1 == pytest.approx(hi2)
            for (lo1, hi1), (lo2, hi2) in zip(arcs.arcs, again.arcs)
        )
        assert ArcSet.full().complement().measure() == 0.0
        assert ArcSet.empty().complement().arcs == ((0.0, math.pi),)

    def test_contains_margin(self):
        arcs = ArcSet.from_intervals([(1.0, 2.0)])
        assert arcs.contains(1.5, margin=0.49)
        assert not arcs.contains(1.5, margin=0.51)
        # membership works mod pi
        assert arcs.contains(1.5 + math.pi)
        assert arcs.contains(1.5 - math.pi, margin=0.4)

    def test_sample(self):
        arcs = ArcSet.from_intervals([(0.5, 1.0), (2.0, 2.5)])
        pts = arcs.sample(8)
        assert len(pts) == 8
        assert all(arcs.contains(t) for t in pts)
        # spread across both arcs
        assert any(t < 1.0 for t in pts) and any(t > 2.0 for t in pts)
        assert ArcSet.empty().sample(4) == []


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
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = ConvexBody.polygon(rng.uniform(-1, 1, size=(7, 2)))
            B = ConvexBody.polygon(rng.uniform(-1, 1, size=(7, 2)) + (3.0, 0.4))
            arcs = admissible_projections(A, B)
            _, width, angles = brute_difference_cone(A, B)
            assert arcs.measure() == pytest.approx(math.pi - width, abs=1e-9)
            # every difference direction was excluded
            assert not any(arcs.contains(t) for t in angles)


class TestProjectedInterval:
    def test_unit_square(self):
        body = square_at(0, 0)
        assert projected_interval(body, 0.0) == pytest.approx((0.0, 1.0))
        lo, hi = projected_interval(body, math.pi / 2)
        assert (lo, hi) == pytest.approx((-1.0, 0.0))

    def test_accepts_line_dir(self):
        body = square_at(0, 0)
        assert projected_interval(body, LineDir(0.0)) == projected_interval(body, 0.0)


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
        seg = swept_segment(fam, 0, U)
        r = site.rho * math.sqrt(2.0)
        v = unit_vector(site.v_angle)
        want = np.array([site.translation - r * v, site.translation + r * v])
        assert np.allclose(seg.vertices, want)

    def test_covers_site_image_at_any_angle(self):
        fam = drop_family()
        U = disk_polygon((0.0, 0.0), 1.0)
        seg = swept_segment(fam, 0, U)
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

    def test_word_must_be_invertible_letters(self):
        fam = drop_family()
        with pytest.raises(ConfigError):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (1,), 0, 0, 1)

    def test_intersecting_images_rejected(self):
        fam = wide_family()
        with pytest.raises((ConfigError, AffdimError)):
            projection_witness(fam, disk_polygon((0.0, 0.0), 1.0), (0,), 0, 0, 1)
