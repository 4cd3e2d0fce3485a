"""Shared test families and independent scalar oracles.

Families here are chosen so that closed forms exist (scalar and
similarity cases) or so that a qualitative property is guaranteed by
construction (irreducible rotations, strong contraction, wide maps for
orbit-coupling bounds). Oracle helpers use plain bisection on scalar
equations and never touch the package solvers.
"""

import math

import numpy as np

from affdim import (
    SCHEMA_VERSION,
    AffineMap2,
    IfsFamily,
    LineDir,
    Mat2,
    RankOneSite,
    parse_config,
)


def scalar_family() -> IfsFamily:
    """One 1/3 similarity and one rank-one site with rho = 1/2, v = w = e1.

    Every carried norm is a product of the factors 1/3 and 1/2 times a
    cosine of the row angle, so the anchored sums have closed forms at
    alpha = 0 and the critical exponent solves 2^-s + 3^-s = 1.
    """
    return IfsFamily(
        regular=(AffineMap2(Mat2.diagonal(1 / 3, 1 / 3), (0.0, 0.0)),),
        singular=(
            RankOneSite(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
        ),
    )


def rotation_family() -> IfsFamily:
    """Two scaled rotations (hence irreducible) and one rank-one site.

    The regular products are again scaled rotations, so the invertible
    part has the exact critical exponent log 2 / log(10/3) at every
    depth, safely below 1.
    """
    return IfsFamily(
        regular=(
            AffineMap2(Mat2.scaled_rotation(0.3, 1.0), (-0.45, -0.25)),
            AffineMap2(Mat2.scaled_rotation(0.3, 2.2), (0.45, -0.25)),
        ),
        singular=(
            RankOneSite(rho=0.45, v_angle=0.2, c=0.0, beta=1.0, translation=(0.0, 0.45)),
        ),
    )


def two_anchor_family() -> IfsFamily:
    """One similarity and two rank-one sites with different geometry.

    Contractions are strong enough that depth-12 truncations of both
    anchored systems sit close to the common critical exponent.
    """
    return IfsFamily(
        regular=(AffineMap2(Mat2.diagonal(0.2, 0.2), (0.0, 0.0)),),
        singular=(
            RankOneSite(rho=0.35, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
            RankOneSite(rho=0.3, v_angle=0.7, c=0.2, beta=1.0, translation=(0.0, 1.0)),
        ),
    )


def drop_family() -> IfsFamily:
    """Strongly contracting family (all norms at most 0.2) with a scalar
    regular part, so the triple-word coincidence is exact wherever the
    line fixed points align."""
    return IfsFamily(
        regular=(AffineMap2(Mat2.diagonal(0.15, 0.15), (-0.5, -0.3)),),
        singular=(
            RankOneSite(rho=0.2, v_angle=0.3, c=0.1, beta=1.0, translation=(0.45, 0.35)),
        ),
    )


def wide_family() -> IfsFamily:
    """Mildly contracting family (norms 0.7) whose coupled-orbit bound
    2 * D * 0.7^64 stays well above the coincidence residual."""
    return IfsFamily(
        regular=(AffineMap2(Mat2.diagonal(0.7, 0.7), (0.6, 0.0)),),
        singular=(
            RankOneSite(rho=0.7, v_angle=0.5, c=0.0, beta=1.0, translation=(-0.3, 0.25)),
        ),
    )


def cantor_similarities() -> IfsFamily:
    """Two 1/3 similarities on the x axis; attractor is the middle-thirds
    set with dimension log 2 / log 3."""
    return IfsFamily(
        regular=(
            AffineMap2(Mat2.diagonal(1 / 3, 1 / 3), (0.0, 0.0)),
            AffineMap2(Mat2.diagonal(1 / 3, 1 / 3), (2 / 3, 0.0)),
        ),
        singular=(),
    )


# three rank-one sites with rho = 0.99 and no regular maps: the letter
# norms of any anchor sum to theta(s) = 2 * 0.99^s >= 1 for every s <= 8,
# so no tail bound applies and every anchored upper end is inf
HEAVY_SITES_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "regular": [],
    "singular": [
        {"rho": 0.99, "v_angle": 0.0, "c": 0.3, "beta": 1.0, "t": [0.0, 0.0]},
        {"rho": 0.99, "v_angle": 1.0, "c": 1.7, "beta": 1.0, "t": [0.5, 0.0]},
        {"rho": 0.99, "v_angle": 2.0, "c": 2.5, "beta": 1.0, "t": [0.0, 0.5]},
    ],
    "region_U": {"kind": "disk64", "center": [0.0, 0.0], "radius": 1.0},
    "solver": {"depth": 8},
}


def heavy_sites_family() -> IfsFamily:
    return parse_config(HEAVY_SITES_CONFIG).family


def seven_map_family(seed: int) -> IfsFamily:
    """Four scaled rotations with ratio 0.12 and three rank-one sites with
    rho 0.12, angles and translations drawn from default_rng(seed): the
    family of the benchmark's bracket workload at the same seed."""
    rng = np.random.default_rng(seed)
    rotations = [
        (float(rng.uniform(0.0, 2.0 * math.pi)), tuple(rng.uniform(-0.5, 0.5, 2)))
        for _ in range(4)
    ]
    sites = [
        (float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, math.pi)),
         tuple(rng.uniform(-0.5, 0.5, 2)))
        for _ in range(3)
    ]
    return IfsFamily(
        regular=tuple(AffineMap2(Mat2.scaled_rotation(0.12, a), t) for a, t in rotations),
        singular=tuple(
            RankOneSite(rho=0.12, v_angle=v, c=c, beta=1.0, translation=t) for v, c, t in sites
        ),
    )


def random_admissible(seed: int) -> IfsFamily:
    """Random small family: one or two regular maps with norms in
    [0.15, 0.4] and nonsingular linear parts, plus one rank-one site.
    The alphabet stays at three letters so depth-12 enumerations fit the
    default budget."""
    rng = np.random.default_rng(seed)
    n_reg = int(rng.integers(1, 3))
    regular = []
    for _ in range(n_reg):
        while True:
            raw = rng.normal(size=(2, 2))
            norm = np.linalg.norm(raw, 2)
            target = rng.uniform(0.15, 0.4)
            scaled = raw * (target / norm)
            if abs(np.linalg.det(scaled)) > 1e-4:
                break
        regular.append(
            AffineMap2(Mat2.from_array(scaled), tuple(rng.uniform(-0.5, 0.5, 2)))
        )
    n_sing = 3 - n_reg
    singular = tuple(
        RankOneSite(
            rho=float(rng.uniform(0.2, 0.6)),
            v_angle=float(rng.uniform(0.0, np.pi)),
            c=float(rng.uniform(0.0, np.pi)),
            beta=float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)),
            translation=tuple(rng.uniform(-0.5, 0.5, 2)),
        )
        for _ in range(n_sing)
    )
    return IfsFamily(regular=tuple(regular), singular=singular)


def angle_gap(a: LineDir, b: LineDir) -> float:
    """Angular gap between two lines through the origin, in [0, pi/2]."""
    d = abs(a.angle - b.angle) % math.pi
    return min(d, math.pi - d)


def bisect_scalar(g, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection for a decreasing scalar function; independent of
    the package's root finders."""
    glo, ghi = g(lo), g(hi)
    assert glo > 0.0 > ghi, "oracle bracket must straddle the root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weighted_root(weights) -> float:
    """Root of sum w_i^s = 1 by scalar bisection (weights in (0, 1))."""
    return bisect_scalar(
        lambda s: sum(w ** s for w in weights) - 1.0, 0.0, 2.0
    )


def brute_svf(a: np.ndarray, t: float) -> float:
    """Singular value interpolation via numpy's SVD, used as an oracle."""
    sv = np.linalg.svd(a, compute_uv=False)
    a1, a2 = float(sv[0]), float(sv[1])
    if t <= 0.0:
        return 1.0
    if t <= 1.0:
        return a1 ** t
    if t <= 2.0:
        return a1 * a2 ** (t - 1.0)
    return (a1 * a2) ** (t / 2.0)
