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
from .separation import ConvexBody, image_body, swept_segment

_CHAOS_CHUNK = 1 << 15


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


def _scalar_coeffs(m: AffineMap2):
    t = m.translation
    if isinstance(m.linear, RankOneFactor):
        r = m.linear
        v, w = r.v(), r.w()
        return ("r", r.rho, v[0], v[1], w[0], w[1], t[0], t[1])
    a = m.linear
    return ("d", a.a11, a.a12, a.a21, a.a22, t[0], t[1])


def _pick_stream(n_choices: int, n_points: int, seed, burn_in: int):
    """Seeded map choices per chunk of at most _CHAOS_CHUNK points, each
    chunk's burn-in included; chunk sub-seeds derive from the master
    seed, so the stream does not depend on how chunks are scheduled."""
    sizes = [min(_CHAOS_CHUNK, n_points - i) for i in range(0, n_points, _CHAOS_CHUNK)]
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.default_rng(child)
        yield rng.integers(0, n_choices, size=burn_in + size).tolist()


def _orbit(coeffs, picks, burn_in: int) -> np.ndarray:
    """Orbit of the origin under the picked maps, burn-in discarded."""
    out = np.empty((len(picks) - burn_in, 2))
    x = y = 0.0
    k = 0
    for step, pick in enumerate(picks):
        c = coeffs[pick]
        if c[0] == "d":
            x, y = c[1] * x + c[2] * y + c[5], c[3] * x + c[4] * y + c[6]
        else:
            s = c[1] * (c[4] * x + c[5] * y)
            x, y = c[2] * s + c[6], c[3] * s + c[7]
        if step >= burn_in:
            out[k, 0] = x
            out[k, 1] = y
            k += 1
    return out


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
    coeffs = [_scalar_coeffs(m) for m in fam.instantiate(alpha)]
    parts = [
        _orbit(coeffs, picks, burn_in)
        for picks in _pick_stream(len(coeffs), n_points, seed, burn_in)
    ]
    return PointCloud(np.concatenate(parts, axis=0), seed, "chaos", n_points)


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


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two point sets."""
    # imported here: scipy.spatial would take most of every CLI start-up
    from scipy.spatial import cKDTree

    pa, pb = _as_points(a), _as_points(b)
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


def _occupied_cells(points: np.ndarray, k: int) -> int:
    # grid anchored at the origin with cell edges on multiples of 2^-k;
    # a point exactly on an edge belongs to the lower-index cell. Cell
    # indices are packed relative to the cloud's per-axis minimum.
    scaled = np.ldexp(points, k)
    ix, iy = np.ceil(scaled[:, 0]), np.ceil(scaled[:, 1])
    ix -= ix.min()
    iy -= iy.min()
    if not max(ix.max(), iy.max()) < 2.0 ** 31:
        raise ConfigError(
            "point cloud spans more than 2^31 cells per axis at level %d" % k
        )
    keys = (ix.astype(np.int64) << np.int64(32)) | iy.astype(np.int64)
    return int(np.unique(keys).size)


def box_dim_estimate(
    cloud, k_min: int = 4, k_max: int = 12
) -> BoxCountSeries:
    """Least-squares slope of log2(occupied cells) against the dyadic
    refinement level.

    Trailing levels where the count has saturated (a finite sample stops
    filling new cells) are trimmed, keeping at least three levels.
    """
    points = _as_points(cloud)
    if len(points) == 0:
        raise ConfigError("empty point cloud")
    if not 0 <= k_min < k_max:
        raise ConfigError("need 0 <= k_min < k_max")
    ks = list(range(k_min, k_max + 1))
    if len(ks) < 3:
        raise ConfigError("need at least three scales for a fit")
    counts = [_occupied_cells(points, k) for k in ks]
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

    Level 1 uses the direction-independent swept segment for each
    rank-one site; deeper levels compose the instantiated maps, so every
    level-k body is contained in its level-(k-1) parent.
    """
    maps = fam.instantiate(alpha)
    first: List[Tuple[ConvexBody, bool]] = [
        (image_body(m, U), False) for m in fam.regular
    ]
    first.extend(
        (swept_segment(fam, j, U), True) for j in range(fam.n_singular)
    )
    out = [first]
    prev = [(U, False)]
    for level in range(1, levels + 1):
        if level == 1:
            prev = [(b, False) for b, _ in first]
            continue
        cur = []
        for m in maps:
            cur.extend((apply_body(m, b), False) for b, _ in prev)
        out.append(cur)
        prev = cur
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
