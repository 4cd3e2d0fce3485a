"""Attractor sampling, box-counting estimation, and cylinder rendering.

The point clouds produced here are the independent numerical oracle the
dimension brackets are checked against: chaos-game orbits and exact
cylinder centers both converge to the attractor, and the dyadic box
counter fits a slope to the occupied-cell growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BudgetError, ConfigError
from .ifs import AffineMap2, IfsFamily
from .linalg import RankOneFactor
from .separation import ConvexBody, family_bodies, image_body

_CHAOS_CHUNK = 1 << 15
_SCAN_BLOCK = 64


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Sampled attractor points with their provenance.

    method is 'chaos' (random orbit, depth_or_count = point count) or
    'cylinder' (one point per word, depth_or_count = word length).
    """

    points: np.ndarray
    seed: Optional[int]
    method: str
    depth_or_count: int


def _map_table(maps) -> np.ndarray:
    """(n_maps, 6) rows [a11 a12 a21 a22 t1 t2]; a rank-one map enters
    as its dense matrix rho v w^T."""
    rows = []
    for m in maps:
        a = m.linear.as_mat2() if isinstance(m.linear, RankOneFactor) else m.linear
        rows.append((a.a11, a.a12, a.a21, a.a22, m.translation[0], m.translation[1]))
    return np.array(rows, dtype=float).reshape(-1, 6)


def _orbit(table: np.ndarray, picks: np.ndarray, burn_in: int) -> np.ndarray:
    """Orbit of the origin under the picked rows of a _map_table, burn-in
    discarded.

    A blocked scan: the picks are cut into blocks of _SCAN_BLOCK, step j
    composes the j-th map of every block onto that block's prefix map
    (M, y) at once, a short sequential pass carries the block start
    points s, and every orbit point is M s + y.
    """
    n = len(picks)
    n_blocks = -(-n // _SCAN_BLOCK)
    padded = np.zeros(n_blocks * _SCAN_BLOCK, dtype=np.intp)
    padded[:n] = picks
    # coef[c, j, b]: column c of the map picked at step j of block b
    coef = table.T[:, padded.reshape(n_blocks, _SCAN_BLOCK).T]
    # prefix[r, :, j, b]: row r of the 2x3 affine matrix [M | y] of steps 0..j
    prefix = np.empty((2, 3, _SCAN_BLOCK, n_blocks))
    prefix[:, :2, 0] = coef[:4, 0].reshape(2, 2, n_blocks)
    prefix[:, 2, 0] = coef[4:, 0]
    for j in range(1, _SCAN_BLOCK):
        a11, a12, a21, a22, t1, t2 = coef[:, j]
        top, bottom = prefix[0, :, j - 1], prefix[1, :, j - 1]
        prefix[0, :, j] = a11 * top + a12 * bottom
        prefix[1, :, j] = a21 * top + a22 * bottom
        prefix[0, 2, j] += t1
        prefix[1, 2, j] += t2

    x = y = 0.0
    xs, ys = [x], [y]
    ends = prefix[:, :, -1, :-1].reshape(6, n_blocks - 1)
    for m11, m12, y1, m21, m22, y2 in zip(*ends.tolist()):
        x, y = m11 * x + m12 * y + y1, m21 * x + m22 * y + y2
        xs.append(x)
        ys.append(y)
    starts = np.array([xs, ys])

    out = np.empty((n_blocks, _SCAN_BLOCK, 2))
    for r in range(2):
        m1, m2, t = prefix[r]
        out[:, :, r] = (m1 * starts[0] + m2 * starts[1] + t).T
    return out.reshape(-1, 2)[burn_in:n]


def _orbits(tables, n_points: int, seed, burn_in: int) -> List[np.ndarray]:
    """One n_points orbit per _map_table, all driven by the same picks.

    Each chunk of at most _CHAOS_CHUNK points draws its map choices,
    burn-in included, from its own sub-seed of the master seed and
    starts a fresh orbit at the origin, so the clouds do not depend on
    how chunks are scheduled.
    """
    clouds = [np.empty((n_points, 2)) for _ in tables]
    starts = range(0, n_points, _CHAOS_CHUNK)
    for start, child in zip(starts, np.random.SeedSequence(seed).spawn(len(starts))):
        size = min(_CHAOS_CHUNK, n_points - start)
        picks = np.random.default_rng(child).integers(0, len(tables[0]), size=burn_in + size)
        for cloud, table in zip(clouds, tables):
            cloud[start : start + size] = _orbit(table, picks, burn_in)
    return clouds


def chaos_game(
    fam: IfsFamily,
    alpha,
    n_points: int,
    seed: int,
    burn_in: int = 64,
) -> PointCloud:
    """Random-orbit sample of the attractor, deterministic given the seed.

    Map choices are uniform; the orbit starts at the origin and the
    first burn_in iterates are discarded. Points are generated in
    independent chunks whose sub-seeds derive from the master seed, so
    the cloud does not depend on how the chunks are scheduled.
    """
    if n_points < 1:
        raise ConfigError("need at least one point")
    (points,) = _orbits([_map_table(fam.instantiate(alpha))], n_points, seed, burn_in)
    return PointCloud(points, seed, "chaos", n_points)


def cylinder_points(
    fam: IfsFamily, alpha, depth: int, budget: int = 1 << 20
) -> PointCloud:
    """One point per length-depth word: the word's image of the origin.

    Each point sits within (product of letter norms) * attractor radius
    of a true attractor point.
    """
    if depth < 1:
        raise ConfigError("cylinder depth must be at least 1")
    maps = fam.instantiate(alpha)
    if len(maps) ** depth > budget:
        raise BudgetError(
            "cylinder enumeration would produce %d points" % len(maps) ** depth
        )
    pts = np.zeros((1, 2))
    for _ in range(depth):
        pts = np.concatenate([m.apply_points(pts) for m in maps], axis=0)
    return PointCloud(pts, None, "cylinder", depth)


def _as_points(cloud) -> np.ndarray:
    return cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud)


def _checked_points(cloud) -> np.ndarray:
    """A nonempty, finite (n, 2) cloud as C-contiguous float64; ConfigError
    for any other."""
    try:
        pts = np.ascontiguousarray(_as_points(cloud), dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError("a point cloud must be an (n, 2) array of numbers") from None
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ConfigError(
            "a point cloud must be a nonempty (n, 2) array, got shape %s" % (pts.shape,)
        )
    if not np.isfinite(pts).all():
        raise ConfigError("point cloud has a NaN or infinite coordinate")
    return pts


def _distinct_points(cloud) -> np.ndarray:
    """The distinct points of a _checked_points cloud."""
    # checked before the dedupe, which would merge every NaN-bearing row
    # into one; each row viewed as one complex number: a 1-d sort, not a
    # structured one
    pts = _checked_points(cloud)
    return np.unique(pts.view(np.complex128)).view(np.float64).reshape(-1, 2)


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance between two point sets.

    Each cloud is deduplicated before its KD-tree is built and queried: a
    repeated point has the same nearest neighbour, and each pair distance
    is computed the same way whatever the tree shape, so the result is
    the one the full clouds give, bit for bit (chaos-game clouds of the
    coupled orbits repeat most of their points, which KD-trees build and
    query slowly). Raises ConfigError for an empty cloud, a shape other
    than (n, 2), or a NaN or infinite coordinate.
    """
    # imported here: scipy.spatial would take most of every CLI start-up
    from scipy.spatial import cKDTree

    pa, pb = _distinct_points(a), _distinct_points(b)
    d_ab = float(np.max(cKDTree(pb).query(pa)[0]))
    d_ba = float(np.max(cKDTree(pa).query(pb)[0]))
    return max(d_ab, d_ba)


@dataclass(frozen=True, eq=False)
class BoxCountSeries:
    """Occupied dyadic cell counts and the fitted growth slope."""

    scales: Tuple[float, ...]
    counts: Tuple[int, ...]
    slope: float
    r_squared: float


# shifts and masks that move the bits of a 31-bit cell index to the even
# bit positions of a 62-bit Morton key
_SPREAD = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _spread_bits(cells: np.ndarray) -> np.ndarray:
    v = cells.astype(np.uint64)
    for shift, mask in _SPREAD:
        v |= v << np.uint64(shift)
        v &= np.uint64(mask)
    return v


def _cell_counts(points: np.ndarray, k_min: int, k_max: int) -> List[int]:
    """Occupied cells of the dyadic grids of levels k_min..k_max.

    Grids are anchored at the origin with cell edges on multiples of
    2^-k; a point exactly on an edge belongs to the lower-index cell, so
    its index at k_max is ceil(p 2^k_max) - 1 and at a coarser level k
    that index shifted right by k_max - k. Indices are taken from a
    per-axis offset that is a multiple of 2^min(k_max - k_min, 31), which
    keeps the coarse edges in place (a level 31 or more above k_max holds
    the whole span of fewer than 2^31 cells from such an offset in one
    cell), and the two axes are interleaved into one Morton key: one sort
    gives every level, since a coarser cell is the key shifted right by
    two bits per level. The 31-bit span per axis is counted from that
    offset, which can lie up to 2^min(k_max - k_min, 31) cells below the
    cloud.
    """
    coarsest = 2.0 ** min(k_max - k_min, 31)
    spread = []
    for axis in range(2):
        # a huge level overflows to inf (and inf - inf to NaN), which the
        # span test below rejects, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            cells = np.ceil(np.ldexp(points[:, axis], k_max))
            cells -= 1.0
            cells -= np.floor(cells.min() / coarsest) * coarsest
        if not cells.max() < 2.0 ** 31:
            raise ConfigError(
                "point cloud spans more than 2^31 cells per axis at level %d" % k_max
            )
        spread.append(_spread_bits(cells))
    keys = spread[0]
    keys <<= np.uint64(1)
    keys |= spread[1]
    keys.sort()
    counts = []
    for _ in range(k_min, k_max + 1):
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        counts.append(keys.size)
        keys >>= np.uint64(2)
    return counts[::-1]


def box_dim_estimate(
    cloud, k_min: int = 4, k_max: int = 12
) -> BoxCountSeries:
    """Least-squares slope of log2(occupied cells) against the dyadic
    refinement level.

    Trailing levels where the count has saturated (a finite sample stops
    filling new cells) are trimmed, keeping at least three levels.
    Raises ConfigError for an empty cloud, a shape other than (n, 2), or
    a NaN or infinite coordinate.
    """
    points = _checked_points(cloud)
    if not 0 <= k_min < k_max:
        raise ConfigError("need 0 <= k_min < k_max")
    ks = list(range(k_min, k_max + 1))
    if len(ks) < 3:
        raise ConfigError("need at least three scales for a fit")
    counts = _cell_counts(points, k_min, k_max)
    while len(counts) > 3 and counts[-1] == counts[-2]:
        counts.pop()
        ks.pop()
    logs = np.log2(np.asarray(counts, dtype=float))
    karr = np.asarray(ks, dtype=float)
    slope, intercept = np.polyfit(karr, logs, 1)
    fit = slope * karr + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return BoxCountSeries(
        tuple(0.5 ** k for k in ks), tuple(counts), float(slope), r2
    )


# --- rendering ----------------------------------------------------------------


def apply_body(m: AffineMap2, body: ConvexBody) -> ConvexBody:
    """Image of a convex body under an affine map."""
    if body.kind == "polygon":
        return image_body(m, body)
    return ConvexBody.segment(m.apply(body.vertices[0]), m.apply(body.vertices[1]))


def level_bodies(
    fam: IfsFamily, alpha, U: ConvexBody, levels: int
) -> List[List[Tuple[ConvexBody, bool]]]:
    """Image bodies per level; the flag marks level-1 swept segments.

    Level 1 is family_bodies, with the direction-independent swept
    segment for each rank-one site; deeper levels compose the
    instantiated maps, so every level-k body is contained in its
    level-(k-1) parent. Raises ConfigError for levels below 1.
    """
    if levels < 1:
        raise ConfigError("levels must be at least 1")
    maps = fam.instantiate(alpha)
    prev = family_bodies(fam, U)
    out = [[(b, k >= fam.n_regular) for k, b in enumerate(prev)]]
    for _ in range(1, levels):
        prev = [apply_body(m, b) for m in maps for b in prev]
        out.append([(b, False) for b in prev])
    return out


def _svg_points(vertices: np.ndarray) -> str:
    return " ".join("%.6f,%.6f" % (p[0], -p[1]) for p in vertices)


def render_levels(fam: IfsFamily, alpha, U: ConvexBody, levels: int) -> str:
    """SVG drawing of the reference body and its cylinder bodies up to
    the requested level (1 to 3); swept segments are styled separately."""
    if levels not in (1, 2, 3):
        raise ConfigError("levels must be 1, 2 or 3")
    if U.kind != "polygon":
        raise ConfigError("render needs a polygon region")
    per_level = level_bodies(fam, alpha, U, levels)

    xs, ys = U.vertices[:, 0], -U.vertices[:, 1]
    pad = 0.05 * max(xs.max() - xs.min(), ys.max() - ys.min())
    view = (xs.min() - pad, ys.min() - pad,
            xs.max() - xs.min() + 2 * pad, ys.max() - ys.min() + 2 * pad)
    stroke = 0.004 * max(view[2], view[3])

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.6f %.6f %.6f %.6f">'
        % view,
        "<style>",
        ".region{fill:none;stroke:#333;stroke-width:%.6f}" % (stroke * 1.5),
        ".lvl1{fill:#9ecae1;fill-opacity:0.35;stroke:#3182bd;stroke-width:%.6f}"
        % stroke,
        ".lvl2{fill:#a1d99b;fill-opacity:0.45;stroke:#31a354;stroke-width:%.6f}"
        % stroke,
        ".lvl3{fill:#fdae6b;fill-opacity:0.55;stroke:#e6550d;stroke-width:%.6f}"
        % stroke,
        ".swept{stroke:#756bb1;stroke-width:%.6f;stroke-linecap:round}"
        % (stroke * 2.0),
        "</style>",
        '<polygon class="region" points="%s"/>' % _svg_points(U.vertices),
    ]
    for level, bodies in enumerate(per_level, start=1):
        for body, swept in bodies:
            cls = "swept" if swept else "lvl%d" % level
            if body.kind == "polygon":
                parts.append(
                    '<polygon class="%s" points="%s"/>'
                    % (cls, _svg_points(body.vertices))
                )
            else:
                (x1, y1), (x2, y2) = body.vertices
                parts.append(
                    '<line class="%s" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>'
                    % (cls, x1, -y1, x2, -y2)
                )
    parts.append("</svg>")
    return "\n".join(parts)
