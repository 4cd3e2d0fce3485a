"""Convex separation certificates and projection direction sets.

The separation property asked of a family is uniform in the rank-one row
directions: every invertible image of the reference body and every swept
segment (the union of a site's images over all row directions) must stay
inside the body and keep positive pairwise distance. Projection checks
work with direction sets mod pi, since a direction and its negation
separate the same pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

import numpy as np

from .errors import AffdimError, ConfigError
from .ifs import AffineMap2, IfsFamily, Word
from .linalg import LineDir, Mat2, RankOneFactor, unit_vector

_PI = math.pi


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Strict convex hull, counterclockwise, via the monotone chain.

    Collinear points are dropped; inputs with fewer than three distinct
    points come back as they are (deduplicated, sorted). The sort is a
    lexsort and the dedupe drops a row equal to the one before it, which
    is np.unique(axis=0) without the numpy.ma import it makes.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts
    scale = float(np.max(np.abs(pts))) or 1.0
    eps = 1e-12 * scale * scale

    def half(iterable):
        out: List[np.ndarray] = []
        for p in iterable:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= eps:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _point_segment_distance(p, a, b) -> float:
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    den = ab[0] * ab[0] + ab[1] * ab[1]
    if den == 0.0:
        return math.hypot(*ap)
    t = min(1.0, max(0.0, (ap[0] * ab[0] + ap[1] * ab[1]) / den))
    return math.hypot(ap[0] - t * ab[0], ap[1] - t * ab[1])


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """Convex polygon (counterclockwise, strictly convex) or segment.

    Polygon vertices are canonicalized to their strict hull starting at
    the lexicographically smallest vertex, so equal bodies compare equal
    entrywise regardless of input ordering.
    """

    kind: str
    vertices: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "vertices", np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        )

    @classmethod
    def polygon(cls, vertices) -> "ConvexBody":
        points = np.asarray(vertices, dtype=float)
        if not np.isfinite(points).all():
            raise ConfigError("polygon vertices must be finite")
        hull = _convex_hull(points)
        if len(hull) < 3:
            raise ConfigError("polygon needs at least three non-collinear vertices")
        start = int(np.lexsort((hull[:, 1], hull[:, 0]))[0])
        return cls("polygon", np.roll(hull, -start, axis=0))

    @classmethod
    def segment(cls, p0, p1) -> "ConvexBody":
        return cls("segment", np.array([p0, p1], dtype=float))

    def edges(self) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
        v = self.vertices
        if self.kind == "segment":
            yield v[0], v[1]
            return
        for k in range(len(v)):
            yield v[k], v[(k + 1) % len(v)]

    def max_vertex_norm(self) -> float:
        return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))


def disk_polygon(center, radius: float, n: int = 64) -> ConvexBody:
    """Regular n-gon inscribed in the disk; the polygonization gap to the
    full disk is radius*(1 - cos(pi/n))."""
    if not 0.0 < radius < math.inf:
        raise ConfigError("disk needs a positive finite radius")
    if n < 3:
        raise ConfigError("disk polygon needs n >= 3")
    c = np.asarray(center, dtype=float)
    ang = 2.0 * _PI * np.arange(n) / n
    return ConvexBody.polygon(c + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _separating_axes(body: ConvexBody) -> List[np.ndarray]:
    axes = []
    for a, b in body.edges():
        d = b - a
        n = math.hypot(d[0], d[1])
        if n == 0.0:
            continue
        axes.append(np.array([-d[1] / n, d[0] / n]))
        if body.kind == "segment":
            # a segment's endcaps separate along its own direction
            axes.append(np.array([d[0] / n, d[1] / n]))
    return axes


def _bodies_intersect(A: ConvexBody, B: ConvexBody) -> bool:
    axes = _separating_axes(A) + _separating_axes(B)
    if not axes:
        # two degenerate points
        return bool(np.all(A.vertices[0] == B.vertices[0]))
    for ax in axes:
        pa = A.vertices @ ax
        pb = B.vertices @ ax
        if pa.max() < pb.min() or pb.max() < pa.min():
            return False
    return True


def _body_distance(A: ConvexBody, B: ConvexBody) -> float:
    """Euclidean distance between two convex bodies; 0 when they meet."""
    if _bodies_intersect(A, B):
        return 0.0
    best = math.inf
    for p in A.vertices:
        for a, b in B.edges():
            best = min(best, _point_segment_distance(p, a, b))
    for p in B.vertices:
        for a, b in A.edges():
            best = min(best, _point_segment_distance(p, a, b))
    return best


def _containment_margin(inner: ConvexBody, outer: ConvexBody) -> float:
    """Smallest signed distance of inner's vertices to outer's boundary.

    Positive means strictly inside; convexity makes vertex checks cover
    the whole body.
    """
    if outer.kind != "polygon":
        raise ConfigError("containment needs a polygon on the outside")
    v = outer.vertices
    margin = math.inf
    for k in range(len(v)):
        a = v[k]
        d = v[(k + 1) % len(v)] - a
        n = math.hypot(d[0], d[1])
        # signed distance to the edge line, positive on the interior side
        sd = (
            d[0] * (inner.vertices[:, 1] - a[1]) - d[1] * (inner.vertices[:, 0] - a[0])
        ) / n
        margin = min(margin, float(np.min(sd)))
    return margin


# --- direction sets mod pi ---------------------------------------------------


def _interval_distance(t: float, lo: float, hi: float) -> float:
    best = math.inf
    for base in (t - _PI, t, t + _PI):
        if lo <= base <= hi:
            return 0.0
        best = min(best, abs(base - lo), abs(base - hi))
    return best


@dataclass(frozen=True)
class ArcSet:
    """Closed angle intervals on directions mod pi.

    Stored intervals satisfy 0 <= lo <= hi <= pi, sorted and disjoint;
    an arc crossing the wrap point is split. Closedness is a
    representation choice: membership exactly on a boundary counts as
    inside, which is harmless because every consumer queries with a
    positive margin.
    """

    arcs: Tuple[Tuple[float, float], ...]

    @classmethod
    def from_intervals(cls, intervals: Iterable[Tuple[float, float]]) -> "ArcSet":
        pieces: List[Tuple[float, float]] = []
        for lo, hi in intervals:
            width = hi - lo
            if width < 0.0:
                raise ConfigError("arc interval with negative width")
            if width >= _PI:
                return cls(((0.0, _PI),))
            lo = lo % _PI
            hi = lo + width
            if hi <= _PI:
                pieces.append((lo, hi))
            else:
                pieces.append((lo, _PI))
                pieces.append((0.0, hi - _PI))
        pieces.sort()
        merged: List[List[float]] = []
        for lo, hi in pieces:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged))

    @classmethod
    def full(cls) -> "ArcSet":
        return cls(((0.0, _PI),))

    @classmethod
    def empty(cls) -> "ArcSet":
        return cls(())

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def complement(self) -> "ArcSet":
        if not self.arcs:
            return ArcSet.full()
        gaps = []
        for k in range(len(self.arcs) - 1):
            gaps.append((self.arcs[k][1], self.arcs[k + 1][0]))
        # wrap gap from the last end around to the first start
        wrap = (self.arcs[-1][1], self.arcs[0][0] + _PI)
        if wrap[1] - wrap[0] > 0.0:
            gaps.append(wrap)
        return ArcSet.from_intervals(g for g in gaps if g[1] - g[0] > 0.0)

    def contains(self, angle: float, margin: float = 0.0) -> bool:
        """Membership mod pi, optionally with angular depth >= margin."""
        t = angle % _PI
        if not any(_interval_distance(t, lo, hi) == 0.0 for lo, hi in self.arcs):
            return False
        if margin <= 0.0:
            return True
        comp = self.complement()
        if not comp.arcs:
            return True
        return min(_interval_distance(t, lo, hi) for lo, hi in comp.arcs) >= margin

    def sample(self, n: int) -> List[float]:
        """n directions spread proportionally over the arcs' interiors."""
        total = self.measure()
        if total == 0.0 or n <= 0:
            return []
        out = []
        for k in range(n):
            target = (k + 0.5) * total / n
            for lo, hi in self.arcs:
                if target <= hi - lo:
                    out.append(lo + target)
                    break
                target -= hi - lo
        return out


def _direction_cone(points: np.ndarray) -> Tuple[float, float]:
    """Closed arc of directions of a point set avoiding the origin.

    The closest hull point to the origin supports a half-plane containing
    the set, so angles relative to that direction live in (-pi/2, pi/2)
    and the cone is their (width < pi) span.
    """
    hull = _convex_hull(points)
    closest = None
    dist = math.inf
    if len(hull) == 1:
        closest, dist = hull[0], math.hypot(hull[0][0], hull[0][1])
    else:
        n = len(hull)
        pairs = (
            [(hull[0], hull[1])]
            if n == 2
            else [(hull[k], hull[(k + 1) % n]) for k in range(n)]
        )
        for a, b in pairs:
            ab = b - a
            den = float(ab @ ab)
            t = 0.0 if den == 0.0 else min(1.0, max(0.0, float(-(a @ ab)) / den))
            cp = a + t * ab
            d = math.hypot(cp[0], cp[1])
            if d < dist:
                dist, closest = d, cp
    if dist == 0.0:
        raise ConfigError("direction cone undefined: the set meets the origin")
    ua = math.atan2(closest[1], closest[0])
    u = unit_vector(ua)
    up = np.array([-u[1], u[0]])
    rel = np.arctan2(hull @ up, hull @ u)
    return ua + float(np.min(rel)), ua + float(np.max(rel))


_CONE_SHAVE = 1e-12


def admissible_projections(A: ConvexBody, B: ConvexBody) -> ArcSet:
    """Directions z (mod pi) whose projections onto the line orthogonal
    to z keep the two bodies apart.

    Projections overlap exactly when z is the direction of some
    difference a - b, so the answer is the complement of the direction
    cone of the Minkowski difference. The cone is padded by 1e-12 rad
    before complementing: the set is closed, so without the pad its
    endpoints would claim the borderline directions that only touch.
    """
    if _body_distance(A, B) <= 0.0:
        raise ConfigError("bodies intersect; no separating projections exist")
    diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
    lo, hi = _direction_cone(diffs)
    padded = ArcSet.from_intervals([(lo - _CONE_SHAVE, hi + _CONE_SHAVE)])
    return padded.complement()


def projected_interval(body: ConvexBody, direction: Union[float, LineDir]) -> Tuple[float, float]:
    """Range of the body's projection onto the line orthogonal to the
    given direction."""
    ang = direction.angle if isinstance(direction, LineDir) else float(direction)
    perp = np.array([-math.sin(ang), math.cos(ang)])
    coords = body.vertices @ perp
    return float(np.min(coords)), float(np.max(coords))


# --- family-level checks ------------------------------------------------------


def image_body(m: AffineMap2, U: ConvexBody) -> ConvexBody:
    """Image of a polygon: a polygon for invertible maps, a segment along
    the image line for rank-one maps."""
    if U.kind != "polygon":
        raise ConfigError("image_body expects a polygon")
    if isinstance(m.linear, RankOneFactor):
        r = m.linear
        coeff = r.rho * (U.vertices @ r.w())
        v = r.v()
        return ConvexBody.segment(
            m.translation + float(np.min(coeff)) * v,
            m.translation + float(np.max(coeff)) * v,
        )
    return ConvexBody.polygon(m.apply_points(U.vertices))


def _swept_segment(fam: IfsFamily, j: int, U: ConvexBody) -> ConvexBody:
    """Smallest segment containing a site's image of U for every row
    direction: t_j +- rho_j * R * v_j with R the largest vertex norm."""
    if U.kind != "polygon":
        raise ConfigError("a swept segment needs a polygon region")
    site = fam.site(j)
    r = site.rho * U.max_vertex_norm()
    v = unit_vector(site.v_angle)
    return ConvexBody.segment(site.translation - r * v, site.translation + r * v)


@dataclass(frozen=True)
class SeparationCertificate:
    """Outcome of the uniform separation check.

    contained has one flag per map (regular maps first, then sites);
    margin is the worst containment margin and min_pairwise_distance the
    smallest distance among the image bodies.
    """

    contained: Tuple[bool, ...]
    min_pairwise_distance: float
    margin: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "contained": list(self.contained),
            "min_pairwise_distance": self.min_pairwise_distance,
            "margin": self.margin,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def family_bodies(fam: IfsFamily, U: ConvexBody) -> List[ConvexBody]:
    """Image bodies in letter order: invertible images, then swept
    segments, which already account for every row direction."""
    bodies = [image_body(m, U) for m in fam.regular]
    bodies.extend(_swept_segment(fam, j, U) for j in range(fam.n_singular))
    return bodies


def check_convex_separation(fam: IfsFamily, U: ConvexBody) -> SeparationCertificate:
    """Certify containment and pairwise disjointness uniformly over the
    rank-one row directions. Failures are encoded, never raised."""
    bodies = family_bodies(fam, U)
    margins = [_containment_margin(b, U) for b in bodies]
    contained = tuple(m >= 0.0 for m in margins)
    min_dist = math.inf
    for a in range(len(bodies)):
        for b in range(a + 1, len(bodies)):
            min_dist = min(min_dist, _body_distance(bodies[a], bodies[b]))
    if len(bodies) < 2:
        min_dist = math.inf
    passed = all(contained) and min_dist > 0.0
    return SeparationCertificate(contained, min_dist, min(margins), passed)


# the witness scan's first grid and its angular margin
_WITNESS_GRID = 256
_WITNESS_MARGIN = 1e-6


def projection_witness(
    fam: IfsFamily,
    U: ConvexBody,
    iword: Word,
    j: int,
    k1: int,
    k2: int,
) -> float:
    """Angle parameter whose induced direction separates two image bodies.

    Scans alpha over one full period of site j's row direction, mapping
    z(alpha) = (A_iword)^T w_j(alpha); returns the first alpha whose
    direction falls in the admissible set with angular margin
    _WITNESS_MARGIN. The grid starts at _WITNESS_GRID points and doubles
    up to 2^16 points before giving up.
    """
    if fam.letter(k1) == fam.letter(k2):
        raise ConfigError("need two distinct letters to separate")
    site = fam.site(j)
    bodies = family_bodies(fam, U)
    admissible = admissible_projections(bodies[k1], bodies[k2])

    prod = Mat2.identity()
    for letter in iword:
        if not 0 <= letter < fam.n_regular:
            raise ConfigError("witness word must use invertible letters only")
        prod = prod @ fam.regular[letter].linear
    pt = prod.transpose()

    period = site.period
    n = _WITNESS_GRID
    while n <= (1 << 16):
        for m_idx in range(n):
            alpha = m_idx * period / n
            z = pt.apply(unit_vector(site.w_angle(alpha)))
            if admissible.contains(math.atan2(z[1], z[0]), margin=_WITNESS_MARGIN):
                return alpha
        n *= 2
    raise AffdimError("no admissible direction found on the scan grid")
