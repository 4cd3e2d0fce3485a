"""Convex separation certificates and projection direction sets.

The separation property asked of a family is uniform in the rank-one row
directions: every invertible image of the reference body and every swept
segment (the union of a site's images over all row directions) must stay
inside the body and keep positive pairwise distance. Projection checks
work with direction sets mod pi, since a direction and its negation
separate the same pairs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .errors import AffdimError, ConfigError, _check_count
from .ifs import AffineMap2, IfsFamily, Word, compose_linear
from .linalg import LineDir, Mat2, RankOneFactor, unit_vector

_PI = math.pi


def _project(points: np.ndarray, d) -> np.ndarray:
    """points . d over the last axis, broadcast: (n, 2) points against
    a 2-vector, an (n, 2) array or (k, 1, 2) axes. The two-term products
    are written out: a BLAS product may fuse them into multiply-adds."""
    d = np.asarray(d)
    return points[..., 0] * d[..., 0] + points[..., 1] * d[..., 1]


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

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


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
        """ConfigError on an unknown kind, a segment without two ends, or a
        polygon with fewer than three vertices or a turn that is not
        strictly left: two equal consecutive vertices, a collinear or
        reflex one, or clockwise order. Finiteness is left to the factory
        methods, so a NaN turn passes."""
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)
        if self.kind not in ("polygon", "segment"):
            raise ConfigError("a convex body is a 'polygon' or a 'segment'")
        if self.kind == "segment" and len(v) != 2:
            raise ConfigError("a segment needs exactly two ends")
        if self.kind == "polygon":
            # the cross product of each edge with the next
            d = np.roll(v, -1, axis=0) - v
            turns = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
            if len(v) < 3 or (turns <= 0.0).any():
                raise ConfigError("a polygon needs three or more vertices, each a strict left turn")

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
        ends = np.array([p0, p1], dtype=float)
        if not np.isfinite(ends).all():
            raise ConfigError("segment ends must be finite")
        return cls("segment", ends)

    def max_vertex_norm(self) -> float:
        return float(np.max(np.hypot(self.vertices[:, 0], self.vertices[:, 1])))


def disk_polygon(center, radius: float, n: int = 64) -> ConvexBody:
    """Regular n-gon inscribed in the disk; the polygonization gap to the
    full disk is radius*(1 - cos(pi/n))."""
    if not 0.0 < radius < math.inf:
        raise ConfigError("disk needs a positive finite radius")
    _check_count(n, 3, "disk polygon needs an integer n >= 3")
    c = np.asarray(center, dtype=float)
    ang = 2.0 * _PI * np.arange(n) / n
    return ConvexBody.polygon(c + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1))


def _edges(body: ConvexBody) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, directions) as (m, 2) arrays: one edge for a segment,
    one per side for a polygon, each side from a vertex to the next."""
    v = body.vertices
    starts = v[:1] if body.kind == "segment" else v
    return starts, np.roll(v, -1, axis=0)[: len(starts)] - starts


def _lengths(d: np.ndarray) -> np.ndarray:
    """math.hypot of each row: np.hypot can differ from it in the last
    bit, which would move certificate bytes."""
    return np.fromiter(map(math.hypot, d[:, 0], d[:, 1]), float, len(d))


def _separating_axes(body: ConvexBody) -> np.ndarray:
    """Unit normals of the body's nonzero edges, then for a segment its
    own direction too, since its endcaps separate along it."""
    d = _edges(body)[1]
    n = _lengths(d)
    d, n = d[n != 0.0], n[n != 0.0, None]
    axes = np.stack([-d[:, 1], d[:, 0]], axis=1) / n
    return np.concatenate([axes, d / n]) if body.kind == "segment" else axes


def _separating_axis(A: ConvexBody, B: ConvexBody) -> np.ndarray | None:
    """An axis on which every difference a - b projects strictly
    positive, or None when the bodies meet. Two points have no edge
    axes; their difference serves as the axis."""
    axes = np.concatenate([_separating_axes(A), _separating_axes(B)])
    if not len(axes):
        a, b = A.vertices[0], B.vertices[0]
        return None if np.all(a == b) else a - b
    # each edge axis both ways round; the widest gap of A above B wins, as
    # rounding can open a gap on an axis where the bodies only touch
    axes = np.concatenate([axes, -axes])[:, None, :]
    gap = _project(A.vertices, axes).min(axis=1) - _project(B.vertices, axes).max(axis=1)
    k = int(np.argmax(gap))
    return axes[k, 0] if gap[k] > 0.0 else None


def _edge_offsets(points: np.ndarray, body: ConvexBody) -> np.ndarray:
    """(edges, points, 2) offsets of the points from the closest point of
    each edge of the body; a zero-length edge gives the offset from its
    start."""
    a, ab = (e[:, None, :] for e in _edges(body))
    ap = points - a
    den = _project(ab, ab)
    t = np.divide(_project(ap, ab), den, out=np.zeros(ap.shape[:2]), where=den > 0.0)
    return ap - np.clip(t, 0.0, 1.0)[..., None] * ab


def _offset_distance(A: ConvexBody, B: ConvexBody) -> float:
    """Shortest offset from a vertex of either body to the other's edges:
    the distance between the bodies when they are apart."""
    off = np.concatenate([_edge_offsets(A.vertices, B), _edge_offsets(B.vertices, A)], axis=None)
    return float(_lengths(off.reshape(-1, 2)).min())


def _body_distance(A: ConvexBody, B: ConvexBody) -> float:
    """Euclidean distance between two convex bodies; 0 when they meet."""
    if _separating_axis(A, B) is None:
        return 0.0
    return _offset_distance(A, B)


def _containment_margin(inner: ConvexBody, outer: ConvexBody) -> float:
    """Smallest signed distance of inner's vertices to outer's boundary.

    Positive means strictly inside; convexity makes vertex checks cover
    the whole body. Each edge's row is reduced on its own and the edges
    are folded in order, which fixes the sign of a zero margin. A NaN
    distance, from a body built directly with a NaN coordinate, gives
    -inf, so such a body is never reported as contained.
    """
    if outer.kind != "polygon":
        raise ConfigError("containment needs a polygon on the outside")
    a, d = _edges(outer)
    p = inner.vertices - a[:, None, :]
    # signed distance to each edge line, positive on the interior side
    sd = (d[:, None, 0] * p[..., 1] - d[:, None, 1] * p[..., 0]) / _lengths(d)[:, None]
    rows = np.min(sd, axis=1)
    if np.isnan(rows).any():
        return -math.inf
    return min(math.inf, *rows.tolist())


# --- direction sets mod pi ---------------------------------------------------


@dataclass(frozen=True)
class ArcSet:
    """One closed arc of directions mod pi: start in [0, pi) and width.

    A width of 0 is the empty arc. Closedness is a representation
    choice: membership exactly on a boundary counts as inside, which is
    harmless because every consumer queries with a positive margin.
    ConfigError unless start is in [0, pi) and width in [0, pi].
    """

    start: float
    width: float

    def __post_init__(self):
        if not (0.0 <= self.start < _PI and 0.0 <= self.width <= _PI):
            raise ConfigError("an arc needs a start in [0, pi) and a width in [0, pi]")

    @property
    def arcs(self) -> Tuple[Tuple[float, float], ...]:
        """The arc as sorted intervals in [0, pi]; an arc crossing the
        wrap point is split in two."""
        if self.width <= 0.0:
            return ()
        end = self.start + self.width
        if end <= _PI:
            return ((self.start, end),)
        return ((0.0, end - _PI), (self.start, _PI))

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs)

    def contains(self, angle, margin: float = 0.0):
        """Membership mod pi with angular depth >= margin, for a scalar
        angle or elementwise for an array of them."""
        d = np.mod(np.subtract(angle, self.start), _PI)
        inside = (d <= self.width) & (np.minimum(d, self.width - d) >= margin)
        return inside & (self.width > 0.0)

    def sample(self, n: int) -> List[float]:
        """n directions spread proportionally over the arc's interior,
        walked from angle 0 through the intervals of arcs. ConfigError
        unless n is an integer >= 0."""
        _check_count(n, 0, "sample count must be an integer >= 0")
        total = self.measure()
        if total == 0.0 or n == 0:
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


def _direction_cone(points: np.ndarray, u: np.ndarray) -> Tuple[float, float]:
    """Closed arc of directions of points that project strictly positive on
    u: from u their angles lie in (-pi/2, pi/2), so the cone is their span."""
    rel = np.arctan2(_project(points, (-u[1], u[0])), _project(points, u))
    ua = math.atan2(u[1], u[0])
    return ua + float(np.min(rel)), ua + float(np.max(rel))


_CONE_SHAVE = 1e-12


def admissible_projections(A: ConvexBody, B: ConvexBody) -> ArcSet:
    """Directions z (mod pi) whose projections onto the line orthogonal
    to z keep the two bodies apart.

    Projections overlap exactly when z is the direction of some
    difference a - b, so the answer is the complement of the direction
    cone of the Minkowski difference: one arc, from the cone's end to
    its start. The cone is padded by 1e-12 rad on each side first: the
    arc is closed, so without the pad its endpoints would claim the
    borderline directions that only touch. A padded cone of width pi or
    more leaves the empty arc. Bodies that touch raise ConfigError even
    when rounding opens a gap on some axis: their zero offset still
    shows the contact.
    """
    u = _separating_axis(A, B)
    if u is None or _offset_distance(A, B) == 0.0:
        raise ConfigError("bodies intersect; no separating projections exist")
    diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
    lo, hi = _direction_cone(diffs, u)
    lo, hi = lo - _CONE_SHAVE, hi + _CONE_SHAVE
    if hi - lo >= _PI:
        return ArcSet(0.0, 0.0)
    # the cone from lo in [0, pi); the arc runs from its end round to lo + pi
    lo, hi = lo % _PI, lo % _PI + (hi - lo)
    return ArcSet(hi % _PI, lo + _PI - hi if hi <= _PI else lo - (hi - _PI))


def projected_interval(body: ConvexBody, direction: Union[float, LineDir]) -> Tuple[float, float]:
    """Range of the body's projection onto the line orthogonal to the
    given direction."""
    ang = direction.angle if isinstance(direction, LineDir) else float(direction)
    if not math.isfinite(ang):
        raise ConfigError("projection direction must be a finite angle")
    coords = _project(body.vertices, (-math.sin(ang), math.cos(ang)))
    return float(np.min(coords)), float(np.max(coords))


# --- family-level checks ------------------------------------------------------


def image_body(m: AffineMap2, U: ConvexBody) -> ConvexBody:
    """Image of a polygon: a polygon for invertible maps, a segment along
    the image line for rank-one maps."""
    if U.kind != "polygon":
        raise ConfigError("image_body expects a polygon")
    if isinstance(m.linear, RankOneFactor):
        r = m.linear
        coeff = r.rho * _project(U.vertices, r.w())
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
    pairs = itertools.combinations(bodies, 2)
    min_dist = min(itertools.starmap(_body_distance, pairs), default=math.inf)
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
    direction falls in the admissible arc with angular margin
    _WITNESS_MARGIN. The grid starts at _WITNESS_GRID points and doubles
    up to 2^16 points before giving up; each grid is scanned as arrays.
    """
    if fam.letter(k1) == fam.letter(k2):
        raise ConfigError("need two distinct letters to separate")
    site = fam.site(j)
    bodies = family_bodies(fam, U)
    admissible = admissible_projections(bodies[k1], bodies[k2])

    prod = Mat2.identity()
    for letter in iword:
        if fam.letter(letter, "witness letter") >= fam.n_regular:
            raise ConfigError("witness word must use invertible letters only")
        prod = compose_linear(prod, fam.regular[letter].linear)

    period = site.period
    n = _WITNESS_GRID
    while n <= (1 << 16):
        alphas = np.arange(n) * period / n
        rows = site.w_angle(alphas)
        w0, w1 = np.cos(rows), np.sin(rows)
        # z = A^T w, the two-term products written out
        z0 = prod.a11 * w0 + prod.a21 * w1
        z1 = prod.a12 * w0 + prod.a22 * w1
        hits = np.flatnonzero(admissible.contains(np.arctan2(z1, z0), _WITNESS_MARGIN))
        if len(hits):
            return float(alphas[hits[0]])
        n *= 2
    raise AffdimError("no admissible direction found on the scan grid")
