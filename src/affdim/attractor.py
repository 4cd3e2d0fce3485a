"""Attractor sampling, box-counting estimation, and cylinder rendering.

The point clouds produced here are the independent numerical oracle the
dimension brackets are checked against: chaos-game orbits and exact
cylinder centers both converge to the attractor, and the dyadic box
counter fits a slope to the occupied-cell growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import BudgetError, ConfigError, _check_count
from .ifs import AffineMap2, IfsFamily, _map_table
from .separation import ConvexBody, family_bodies, image_body

_CHAOS_CHUNK = 1 << 15
_SCAN_BLOCK = 64
# Hausdorff distance: x-order neighbours per bound, exact strips before the KD-tree
_WINDOW = 8
_REFINE = 8


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
    coef = np.take(np.ascontiguousarray(table.T), padded.reshape(n_blocks, _SCAN_BLOCK).T, axis=1)
    lin = coef[:4].reshape(2, 2, _SCAN_BLOCK, n_blocks)
    # prefix[r, :, j, b]: row r of the 2x3 affine matrix [M | y] of steps 0..j
    prefix = np.empty((2, 3, _SCAN_BLOCK, n_blocks))
    prefix[:, :2, 0] = lin[:, :, 0]
    prefix[:, 2, 0] = coef[4:, 0]
    # each step composes every block's 2x2 linear part onto its 2x3
    # prefix in place: row r = a_r0 * top + a_r1 * bottom, then + t_r
    terms = np.empty((2, 2, 3, n_blocks))
    for j in range(1, _SCAN_BLOCK):
        np.multiply(lin[:, :, j, None], prefix[None, :, :, j - 1], out=terms)
        np.add(terms[:, 0], terms[:, 1], out=prefix[:, :, j])
        prefix[:, 2, j] += coef[4:, j]

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
    _check_count(n_points, 1, "point count must be an integer >= 1")
    _check_count(seed, 0, "seed must be a nonnegative integer")
    _check_count(burn_in, 0, "burn-in must be a nonnegative integer")
    try:
        clouds = [np.empty((n_points, 2)) for _ in tables]
    except (MemoryError, ValueError):
        # MemoryError past the host's memory, ValueError past numpy's sizes
        raise BudgetError("cannot allocate a cloud of %d points" % n_points) from None
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
    the cloud does not depend on how the chunks are scheduled. Raises
    BudgetError for a point count whose cloud cannot be allocated.
    """
    (points,) = _orbits([_map_table(fam.instantiate(alpha))], n_points, seed, burn_in)
    return PointCloud(points, seed, "chaos", n_points)


def cylinder_points(
    fam: IfsFamily, alpha, depth: int, budget: int = 1 << 20
) -> PointCloud:
    """One point per length-depth word: the word's image of the origin.

    Each point sits within (product of letter norms) * attractor radius
    of a true attractor point.
    """
    _check_count(depth, 1, "cylinder depth must be an integer >= 1")
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


_KEY_MIX = np.uint64(0x9E3779B97F4A7C15)


def _keyed_points(pts: np.ndarray, index_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The points of a _checked_points array, each viewed as one complex
    number, sorted by a key mixed from their bits with repeats dropped;
    and those keys.

    The key is ((x bits * MIX) ^ y bits) * MIX with its low bits, at
    least index_bits and enough to count the rows, replaced by the row
    index, so one np.sort orders the points and its low bits read off
    their order; they are cleared again after, so two clouds keyed with
    the same index_bits give a point they share the same key. Points
    with equal bits have equal keys above the index, so they end up
    adjacent and all but the first are dropped. The second multiply
    carries every bit of the coordinates into the high bits, so distinct
    points rarely share them; those that do can interleave, and points
    that differ only in the sign of a zero have different keys; either
    leaves a repeat behind, which costs only work.
    """
    bits = pts.view(np.uint64)
    keys = bits[:, 0] * _KEY_MIX
    keys ^= bits[:, 1]
    keys *= _KEY_MIX
    low = np.uint64((1 << max(index_bits, (len(pts) - 1).bit_length())) - 1)
    keys &= ~low
    keys |= np.arange(len(pts), dtype=np.uint64)
    keys.sort()
    order = (keys & low).astype(np.intp)
    keys &= ~low
    z = np.take(pts.view(np.complex128).ravel(), order)
    keep = np.ones(len(z), dtype=bool)
    keep[1:] = z[1:] != z[:-1]
    return keys[keep], z[keep]


def _directed_distance(keys, z, other_keys, other_z) -> float:
    """max over z of the distance to the nearest of other_z, both from
    _keyed_points.

    A point the other cloud holds too is at distance exactly 0: it is
    found by its key and confirmed by its coordinates, and only the rest
    are searched. One the lookup misses (its key collides, or it differs
    only in the sign of a zero) is searched and gives that 0 all the same.

    The rest are pruned by upper bounds (Taha and Hanbury, IEEE TPAMI
    2015). A point's bound b is its least squared distance to the _WINDOW
    points around its place in the other side's x order. The points of
    largest b are settled, largest first, as least squared distances over
    the x-strip |x - p_x| <= r, until the next b is at most the largest
    settled value e: every point left has a squared distance at most its
    b <= e. Points whose b still exceeds e after _REFINE strips are
    queried against a KD-tree in x order.

    Every squared distance is the float dx*dx + dy*dy the KD-tree takes,
    so the result is the one a query of every point gives, bit for bit,
    if each strip holds every point whose float value is at most b.
    Adding dy*dy >= 0 rounds to at least fl(dx*dx), so fl(dx*dx) <= b:
    while dx*dx is normal, |dx| <= sqrt(b (1 + u)) for the unit roundoff
    u, and below that |dx| < 2^-511. The exact |x - p_x| is within 1 + u
    of |dx| and fl(sqrt(b)) loses one more, so r = fl(sqrt(b)) (1 + 2^-50)
    + 2^-510 covers them all, and monotone rounding of its ends keeps them.
    """
    rest = z[np.take(other_z, np.searchsorted(other_keys, keys), mode="clip") != z]
    if len(rest) == 0:
        return 0.0
    rest, other = (c[np.argsort(c.real)] for c in (rest, other_z))
    px, py, ox, oy = (np.ascontiguousarray(a) for a in (rest.real, rest.imag, other.real, other.imag))
    at = np.searchsorted(ox, px)
    bound, best = np.full(len(rest), np.inf), 0.0
    # far apart points overflow to an infinite distance, as in the KD-tree
    with np.errstate(over="ignore"):
        for k in range(-_WINDOW // 2, _WINDOW // 2):
            near = np.clip(at + k, 0, len(ox) - 1)
            dx, dy = px - ox[near], py - oy[near]
            np.minimum(bound, dx * dx + dy * dy, out=bound)
        top = np.argpartition(bound, max(len(rest) - _REFINE, 0))[-_REFINE:]
        for i in top[np.argsort(bound[top])[::-1]]:
            if bound[i] <= best:
                break
            r = math.sqrt(bound[i]) * (1.0 + 2.0 ** -50) + 2.0 ** -510
            lo, hi = np.searchsorted(ox, px[i] - r, "left"), np.searchsorted(ox, px[i] + r, "right")
            dx, dy = px[i] - ox[lo:hi], py[i] - oy[lo:hi]
            bound[i] = np.min(dx * dx + dy * dy)
            best = max(best, bound[i])
    left = bound > best
    if not left.any():
        return math.sqrt(best)
    # imported here: scipy.spatial would take most of every CLI start-up
    from scipy.spatial import cKDTree

    tree = cKDTree(np.column_stack((ox, oy)))
    return max(math.sqrt(best), float(np.max(tree.query(np.column_stack((px[left], py[left])))[0])))


def hausdorff_distance(a, b) -> float:
    """Exact symmetric Hausdorff distance between two point sets.

    Each cloud is cut to its distinct points, which drops only exact
    zeros, and each directed distance searches only the points the other
    cloud lacks (see _directed_distance); the result is the one the full
    clouds give, bit for bit. Raises ConfigError for an empty cloud, a
    shape other than (n, 2), or a NaN or infinite coordinate.
    """
    a, b = _checked_points(a), _checked_points(b)
    index_bits = max(1, (max(len(a), len(b)) - 1).bit_length())
    ka, za = _keyed_points(a, index_bits)
    kb, zb = _keyed_points(b, index_bits)
    return max(_directed_distance(ka, za, kb, zb), _directed_distance(kb, zb, ka, za))


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
    """The Morton spread of nonnegative 31-bit int64 indices, computed in
    place in their buffer viewed as uint64."""
    v = cells.view(np.uint64)
    shifted = np.empty_like(v)
    for shift, mask in _SPREAD:
        np.left_shift(v, np.uint64(shift), out=shifted)
        v |= shifted
        v &= np.uint64(mask)
    return v


def _packed_cells(points: np.ndarray, k_max: int, coarsest: float) -> np.ndarray:
    """The int64 keys x << 32 | y of the points' level-k_max cells, their
    indices counted from per-axis offsets that are multiples of coarsest.

    One 8-byte buffer per point serves both axes: it holds an axis's
    float indices, which are cast in place to int64, and x, below 2^31,
    waits in a 4-byte copy of its low half until it becomes the high
    half of the key.
    """
    cells = np.empty(len(points))
    packed = cells.view(np.int64)
    halves = cells.view(np.int32).reshape(-1, 2)
    high = int(np.little_endian)
    for axis in range(2):
        # a huge level overflows to inf (and inf - inf to NaN), which the
        # span test below rejects, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            np.ldexp(points[:, axis], k_max, out=cells)
            np.ceil(cells, out=cells)
            cells -= 1.0
            cells -= np.floor(cells.min() / coarsest) * coarsest
        if not cells.max() < 2.0 ** 31:
            raise ConfigError(
                "point cloud spans more than 2^31 cells per axis at level %d" % k_max
            )
        np.copyto(packed, cells, casting="unsafe")
        if axis == 0:
            x = halves[:, 1 - high].copy()
    halves[:, high] = x
    return packed


def _cell_counts(points: np.ndarray, k_min: int, k_max: int) -> List[int]:
    """Occupied cells of the dyadic grids of levels k_min..k_max.

    Grids are anchored at the origin with cell edges on multiples of
    2^-k; a point exactly on an edge belongs to the lower-index cell, so
    its index at k_max is ceil(p 2^k_max) - 1 and at a coarser level k
    that index shifted right by k_max - k. Indices are taken from a
    per-axis offset that is a multiple of 2^min(k_max - k_min, 31), which
    keeps the coarse edges in place (a level 31 or more above k_max holds
    the whole span of fewer than 2^31 cells from such an offset in one
    cell). The 31-bit span per axis is counted from that offset, which
    can lie up to 2^min(k_max - k_min, 31) cells below the cloud.

    Repeated cells are dropped before any Morton key is built: the two
    indices are packed into one int64 key x << 32 | y (_packed_cells),
    sorted once and deduplicated. Only the distinct cells of level k_max
    are interleaved into Morton keys, and one sort of those gives every
    level: a coarser cell is the key shifted right by two bits per level,
    so two adjacent keys share a cell d levels up iff they agree above
    their low 2d bits.
    """
    packed = _packed_cells(points, k_max, 2.0 ** min(k_max - k_min, 31))
    packed.sort()
    packed = packed[np.r_[True, packed[1:] != packed[:-1]]]
    rows = packed & (2 ** 32 - 1)
    packed >>= 32
    keys = _spread_bits(packed)
    keys <<= np.uint64(1)
    keys |= _spread_bits(rows)
    keys.sort()
    # 31 or more levels up the whole cloud is one cell (see above)
    apart = keys[1:] ^ keys[:-1]
    counts = [
        1 + int(np.count_nonzero(apart >= np.uint64(1 << 2 * d))) if d < 31 else 1
        for d in range(k_max - k_min + 1)
    ]
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
    _check_count(k_min, 0, "need integers 0 <= k_min < k_max")
    _check_count(k_max, k_min + 1, "need integers 0 <= k_min < k_max")
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


def _level_bodies(
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
    _check_count(levels, 1, "levels must be 1, 2 or 3")
    if levels > 3:
        raise ConfigError("levels must be 1, 2 or 3")
    if U.kind != "polygon":
        raise ConfigError("render needs a polygon region")
    per_level = _level_bodies(fam, alpha, U, levels)

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
