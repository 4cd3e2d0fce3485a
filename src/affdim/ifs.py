"""Parametrized planar iterated function systems.

A family holds finitely many invertible affine contractions (the regular
maps) together with rank-one sites whose row direction rotates with a
per-site angle parameter. Instantiating the family at a parameter vector
produces a concrete list of affine maps; words over the combined alphabet
index compositions, with factored rank-one parts preserved exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ContractionError
from .linalg import Linear, LineDir, Mat2, RankOneFactor

Word = Tuple[int, ...]

_DET_FLOOR = 1e-12


def compose_linear(a: Linear, b: Linear) -> Linear:
    """Linear part of the composition a after b, keeping rank-one maps factored.

    A product touching a rank-one factor is again rank-one (or zero); the
    factored result carries the exact scalar rho and the two unit angles,
    so conditional norms of long words never pass through a nearly
    singular dense matrix. An exact collapse returns the dense zero map.
    """
    if isinstance(a, Mat2) and isinstance(b, Mat2):
        return a @ b
    if isinstance(a, RankOneFactor) and isinstance(b, Mat2):
        # rho v w^T B = rho |B^T w| * v (unit)^T
        btw = b.transpose().apply(a.w())
        n = math.hypot(btw[0], btw[1])
        if n == 0.0:
            return Mat2(0.0, 0.0, 0.0, 0.0)
        return RankOneFactor(a.rho * n, a.v_angle, math.atan2(btw[1], btw[0]))
    if isinstance(a, Mat2) and isinstance(b, RankOneFactor):
        av = a.apply(b.v())
        n = math.hypot(av[0], av[1])
        if n == 0.0:
            return Mat2(0.0, 0.0, 0.0, 0.0)
        return RankOneFactor(b.rho * n, math.atan2(av[1], av[0]), b.w_angle)
    # rank-one after rank-one: rho1 rho2 <w1, v2> * v1 w2^T
    w1, v2 = a.w(), b.v()
    c = w1[0] * v2[0] + w1[1] * v2[1]
    if c == 0.0:
        return Mat2(0.0, 0.0, 0.0, 0.0)
    w_angle = b.w_angle + (math.pi if c < 0.0 else 0.0)
    return RankOneFactor(a.rho * b.rho * abs(c), a.v_angle, w_angle)


@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Affine map x -> linear(x) + translation on the plane.

    Contraction of the linear part is a family-level invariant, not a
    per-map one: compositions over the empty word must yield the identity
    map, which is not a contraction.
    """

    linear: Linear
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(2).copy()
        object.__setattr__(self, "translation", t)

    def apply(self, point) -> np.ndarray:
        return self.linear.apply(point) + self.translation

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (n, 2) array of points."""
        pts = np.asarray(points, dtype=float)
        if isinstance(self.linear, RankOneFactor):
            coeff = self.linear.rho * (pts @ self.linear.w())
            return np.outer(coeff, self.linear.v()) + self.translation
        m = self.linear
        out = np.empty_like(pts)
        out[:, 0] = m.a11 * pts[:, 0] + m.a12 * pts[:, 1] + self.translation[0]
        out[:, 1] = m.a21 * pts[:, 0] + m.a22 * pts[:, 1] + self.translation[1]
        return out

    def compose(self, other: "AffineMap2") -> "AffineMap2":
        """self after other."""
        return AffineMap2(
            compose_linear(self.linear, other.linear),
            self.linear.apply(other.translation) + self.translation,
        )


def identity_map() -> AffineMap2:
    return AffineMap2(Mat2.identity(), np.zeros(2))


def compose_word(maps: Sequence[AffineMap2], word: Word) -> AffineMap2:
    """Composition f_{w0} o f_{w1} o ... o f_{wk} (empty word: identity)."""
    out = identity_map()
    for letter in word:
        out = out.compose(maps[letter])
    return out


def attractor_bound(maps: Sequence[AffineMap2]) -> float:
    """Radius of an origin-centered ball mapped into itself by every map."""
    norm = max(m.linear.operator_norm() for m in maps)
    if norm >= 1.0:
        raise ContractionError("family is not uniformly contracting")
    tmax = max(float(np.hypot(m.translation[0], m.translation[1])) for m in maps)
    return tmax / (1.0 - norm)


@dataclass(frozen=True, eq=False)
class RankOneSite:
    """Parametrized rank-one map rho * v w(c + beta * alpha)^T + t.

    The column direction v is fixed; the row direction rotates uniformly
    in the site's angle parameter alpha with speed beta, so sweeping
    alpha over [0, 2*pi/|beta|) covers every row direction once.
    """

    rho: float
    v_angle: float
    c: float
    beta: float
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(2).copy()
        object.__setattr__(self, "translation", t)
        if not np.all(np.isfinite([self.rho, self.v_angle, self.c, self.beta, *t])):
            raise ConfigError("rank-one site parameters must be finite")
        if not 0.0 < self.rho < 1.0:
            raise ContractionError(
                "contraction violated, rho %.6g outside (0, 1)" % self.rho
            )
        if self.beta == 0.0:
            raise ConfigError("beta must be nonzero")

    def w_angle(self, alpha: float) -> float:
        return self.c + self.beta * alpha

    def map_at(self, alpha: float) -> AffineMap2:
        return AffineMap2(
            RankOneFactor(self.rho, self.v_angle, self.w_angle(alpha)),
            self.translation,
        )


@dataclass(frozen=True, eq=False)
class IfsFamily:
    """Regular invertible contractions plus parametrized rank-one sites.

    Letters 0..n_regular-1 name the regular maps, the rest the singular
    ones in site order. Families with no singular site are allowed so
    that the invertible subsystem is itself a family; entry points that
    require a genuinely mixed system check for one explicitly.
    """

    regular: Tuple[AffineMap2, ...] = ()
    singular: Tuple[RankOneSite, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "regular", tuple(self.regular))
        object.__setattr__(self, "singular", tuple(self.singular))
        if self.n_maps < 1:
            raise ConfigError("family needs at least one map")
        for k, m in enumerate(self.regular):
            a = m.linear
            if not isinstance(a, Mat2):
                raise ConfigError("regular[%d]: linear part must be dense" % k)
            if not np.all(np.isfinite([a.a11, a.a12, a.a21, a.a22, *m.translation])):
                raise ConfigError("regular[%d]: entries must be finite" % k)
            if a.operator_norm() >= 1.0:
                raise ContractionError(
                    "regular[%d]: contraction violated, matrix norm %.6g >= 1"
                    % (k, a.operator_norm())
                )
            if abs(a.det()) <= _DET_FLOOR:
                raise ConfigError("regular[%d]: matrix is numerically singular" % k)

    @property
    def n_regular(self) -> int:
        return len(self.regular)

    @property
    def n_singular(self) -> int:
        return len(self.singular)

    @property
    def n_maps(self) -> int:
        return len(self.regular) + len(self.singular)

    def singular_letter(self, j: int) -> int:
        return self.n_regular + j

    def angles(self, alpha: Union[float, Sequence[float]]) -> Tuple[float, ...]:
        """Per-site angle parameters; a scalar broadcasts to every site."""
        if np.isscalar(alpha):
            alphas = (float(alpha),) * self.n_singular
        else:
            alphas = tuple(float(a) for a in alpha)
        if len(alphas) != self.n_singular:
            raise ConfigError(
                "expected %d angle parameters, got %d" % (self.n_singular, len(alphas))
            )
        if not all(map(math.isfinite, alphas)):
            raise ConfigError("angle parameters must be finite")
        return alphas

    def instantiate(self, alpha: Union[float, Sequence[float]] = 0.0) -> list:
        """Concrete maps at the given parameter(s), regular letters first."""
        alphas = self.angles(alpha)
        maps = list(self.regular)
        maps.extend(site.map_at(a) for site, a in zip(self.singular, alphas))
        return maps


def _is_scalar(m: Mat2, tol: float) -> bool:
    scale = m.operator_norm()
    return (
        abs(m.a12) <= tol * scale
        and abs(m.a21) <= tol * scale
        and abs(m.a11 - m.a22) <= tol * scale
    )


def _eigendirections(m: Mat2) -> list:
    tr = m.a11 + m.a22
    disc = tr * tr - 4.0 * m.det()
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    dirs = []
    for lam in ((tr + root) / 2.0, (tr - root) / 2.0):
        # rows of (m - lam I); eigenvector spans the larger row's kernel
        r1 = (m.a11 - lam, m.a12)
        r2 = (m.a21, m.a22 - lam)
        row = r1 if math.hypot(*r1) >= math.hypot(*r2) else r2
        if math.hypot(*row) == 0.0:
            continue
        dirs.append(LineDir.from_vector((-row[1], row[0])))
    return dirs


def check_irreducibility(
    mats: Sequence[Mat2], tol: float = 1e-10
) -> Optional[LineDir]:
    """Witness line preserved by every matrix, or None if there is none.

    Scalar multiples of the identity preserve every line and impose no
    constraint; if all matrices are scalar every direction works and the
    horizontal axis is returned as the witness.
    """
    nonscalar = [m for m in mats if not _is_scalar(m, tol)]
    if not nonscalar:
        return LineDir(0.0)
    for cand in _eigendirections(nonscalar[0]):
        u = cand.unit()
        ok = True
        for m in nonscalar:
            mu = m.apply(u)
            cross = mu[0] * u[1] - mu[1] * u[0]
            if abs(cross) > tol * math.hypot(mu[0], mu[1]):
                ok = False
                break
        if ok:
            return cand
    return None
