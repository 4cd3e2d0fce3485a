"""Parameters where extra algebraic coincidences depress the dimension.

A rank-one site j collapses the plane onto the line t_j + span(v_j), and
composing any word with j on the outside acts on that line by a 1-d
affine map. When the parameter angle aligns the fixed points of two
such line maps, a pair of distinct three-letter words share the same
composition; deleting one of the duplicates leaves a strictly smaller
system whose dimension can drop below the generic value. This module
locates those angles, verifies the coincidence exactly at the map
level, and certifies the drop with the same brackets used elsewhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .config import SolverOptions
from .errors import (
    ConfigError,
    ExcludedParameterError,
    IdentityMismatchError,
    NoSignChangeError,
    _check_count,
)
from .ifs import AffineMap2, IfsFamily, RankOneSite, Word, _index, _map_table, compose_word
from .linalg import unit_vector

if TYPE_CHECKING:
    from .attractor import PointCloud
    from .dimension import DimensionBracket

Letters = Tuple[int, ...]


@dataclass(frozen=True)
class LineMap:
    """Affine map x -> lam * x + offset of the real line."""

    lam: float
    offset: float

    def __call__(self, x: float) -> float:
        return self.lam * x + self.offset

    def fixed_point(self) -> float:
        if abs(self.lam) >= 1.0:
            raise ExcludedParameterError(
                "line map with |slope| %g >= 1 has no attracting fixed point"
                % abs(self.lam)
            )
        return self.offset / (1.0 - self.lam)


def _row(site: RankOneSite, alpha, x, y) -> tuple:
    """rho (w . x) and rho (w . y) for the site's row w at the angle(s)
    alpha, the two-term products written out."""
    angle = site.w_angle(alpha)
    w0, w1 = np.cos(angle), np.sin(angle)
    return site.rho * (w0 * x[0] + w1 * x[1]), site.rho * (w0 * y[0] + w1 * y[1])


def _line_coefficients(fam: IfsFamily, j: int, word: Word, alpha) -> tuple:
    """(lam, offset) of f_j o f_word on site j's line, as arrays over
    alpha; site j and the letters are assumed checked.

    The word's image of the line's direction v_j and point t_j is built
    from the last letter out. Every two-term product is written out: a
    BLAS dot product may fuse a multiply-add, which would tie the last
    bits to the BLAS build.
    """
    site = fam.site(j)
    x, y = unit_vector(site.v_angle), site.translation
    for letter in reversed(word):
        if letter < fam.n_regular:
            a, t = fam.regular[letter].linear, fam.regular[letter].translation
            x = (a.a11 * x[0] + a.a12 * x[1], a.a21 * x[0] + a.a22 * x[1])
            y = (a.a11 * y[0] + a.a12 * y[1] + t[0], a.a21 * y[0] + a.a22 * y[1] + t[1])
        else:
            # x -> rho_k (w_k . x) v_k + t_k, w_k turning with alpha
            other = fam.singular[letter - fam.n_regular]
            sx, sy = _row(other, alpha, x, y)
            v, t = unit_vector(other.v_angle), other.translation
            x, y = (v[0] * sx, v[1] * sx), (v[0] * sy + t[0], v[1] * sy + t[1])
    return _row(site, alpha, x, y)


def line_map(fam: IfsFamily, j: int, word: Word, alpha: float) -> LineMap:
    """Action of f_j o f_word on the invariant line of site j.

    Site j maps the whole plane onto t_j + span(v_j); parametrizing that
    line by x -> x * v_j + t_j, the composition acts on the coordinate x
    by a 1-d affine map, returned here.
    """
    anchor = fam.singular_letter(j)
    if any(fam.letter(letter) == anchor for letter in word):
        raise ConfigError("word may not contain the anchor site itself")
    fam.angles(float(alpha))  # ConfigError for a non-finite angle
    lam, offset = _line_coefficients(fam, j, tuple(word), float(alpha))
    return LineMap(float(lam), float(offset))


def fixed_point_gap(fam: IfsFamily, j: int, i: int, alpha: float) -> float:
    """Difference of the fixed points of the line maps of f_j and
    f_j o f_i; a zero makes f_j o f_j o f_i and f_j o f_i o f_j equal."""
    g_empty = line_map(fam, j, (), alpha)
    g_i = line_map(fam, j, (i,), alpha)
    return g_empty.fixed_point() - g_i.fixed_point()


def _gaps(fam: IfsFamily, j: int, i: int, alphas: np.ndarray) -> np.ndarray:
    """fixed_point_gap(fam, j, i, a) for every a in alphas, nan where a
    line map has no attracting fixed point; j and i are assumed checked."""
    fixed = []
    for word in ((), (i,)):
        lam, offset = _line_coefficients(fam, j, word, alphas)
        out = np.full(alphas.shape, np.nan)
        fixed.append(np.divide(offset, 1.0 - lam, out=out, where=np.abs(lam) < 1.0))
    return fixed[0] - fixed[1]


def commutation_residual(fam: IfsFamily, alpha: float, j: int, i: int) -> float:
    """Largest coefficient difference between f_j o f_j o f_i and
    f_j o f_i o f_j at the given angle."""
    anchor = fam.singular_letter(j)
    fam.letter(i, "companion letter")
    maps = fam.instantiate(alpha)
    a = compose_word(maps, (anchor, anchor, i))
    b = compose_word(maps, (anchor, i, anchor))
    table = _map_table((a, b))
    return float(np.max(np.abs(table[0] - table[1])))


# the angle search: grid cells over one period, the |gap| taken as a
# root, the bisection steps per cell, and the largest coefficient
# difference of a verified word coincidence
_GRID_SIZE = 256
_GAP_TOL = 1e-12
_MAX_BISECT = 200
_RESIDUAL_TOL = 1e-10


def _anchor_letter(fam: IfsFamily, j: int, i: int) -> int:
    """Letter of site j, once j and the companion letter i are checked."""
    anchor = fam.singular_letter(j)
    if fam.letter(i, "companion letter") == anchor:
        raise ConfigError("companion letter coincides with the site")
    return anchor


def find_common_fixed_point_angle(fam: IfsFamily, j: int, i: int) -> float:
    """Angle where the fixed-point gap of site j against letter i
    vanishes, verified down at the map level.

    The gap is evaluated at the _GRID_SIZE + 1 points of a uniform grid
    over one period of the site angle. A grid point with |gap| <=
    _GAP_TOL is a root; every other sign change between consecutive
    valid points is bisected until |gap| <= _GAP_TOL, all cells in
    lockstep, and a cell whose midpoint loses a fixed point is dropped
    rather than bisected across. The first root in grid order whose
    word coincidence has coefficient residual at most _RESIDUAL_TOL is
    returned.
    """
    _anchor_letter(fam, j, i)
    grid = np.arange(_GRID_SIZE + 1) * fam.site(j).period / _GRID_SIZE
    gaps = _gaps(fam, j, i, grid)
    glo, ghi = gaps[:-1], gaps[1:]
    # a grid root needs both cell ends valid; |glo| <= tol rules out nan
    touch = (np.abs(glo) <= _GAP_TOL) & ~np.isnan(ghi)
    roots = np.where(touch, grid[:-1], np.nan)
    live = np.flatnonzero(~touch & (glo * ghi < 0.0))
    lo, hi, glo = grid[live], grid[live + 1], glo[live]
    for _ in range(_MAX_BISECT):
        if not live.size:
            break
        mid = 0.5 * (lo + hi)
        g = _gaps(fam, j, i, mid)
        hit = np.abs(g) <= _GAP_TOL
        roots[live[hit]] = mid[hit]
        left = glo * g < 0.0
        lo, hi, glo = np.where(left, lo, mid), np.where(left, mid, hi), np.where(left, glo, g)
        keep = ~hit & ~np.isnan(g)
        live, lo, hi, glo = live[keep], lo[keep], hi[keep], glo[keep]
    candidates = roots[~np.isnan(roots)].tolist()
    if not candidates:
        finite = np.abs(gaps[~np.isnan(gaps)])
        raise NoSignChangeError(
            "no root of the fixed-point gap on a %d-point grid over one "
            "period (smallest |gap| %.3e, %d excluded points)"
            % (grid.size, finite.min() if finite.size else float("nan"),
               gaps.size - finite.size)
        )
    best = None
    for alpha_star in candidates:
        residual = commutation_residual(fam, alpha_star, j, i)
        if residual <= _RESIDUAL_TOL:
            return alpha_star
        if best is None or residual < best[1]:
            best = (alpha_star, residual)
    raise IdentityMismatchError(
        "fixed-point gap vanishes at angle %.12g but the word coincidence "
        "residual is %.3e (tolerance %.1e)" % (best[0], best[1], _RESIDUAL_TOL)
    )


@dataclass(frozen=True, eq=False)
class ReducedFamily:
    """All three-letter words minus one of a duplicated pair.

    removed_word and duplicate_word compose to the same map at the angle
    the family was built at; words are in lexicographic letter order
    with the removed one skipped.
    """

    maps: Tuple[AffineMap2, ...]
    words: Tuple[Letters, ...]
    removed_word: Letters
    duplicate_word: Letters

    def __len__(self) -> int:
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


def exceptional_family(
    fam: IfsFamily, alpha_star: float, j: int, i: int
) -> ReducedFamily:
    """Three-letter grouping of the family at the coincidence angle,
    with the word (j, j, i) dropped in favor of its duplicate (j, i, j)."""
    anchor = _anchor_letter(fam, j, i)
    maps = fam.instantiate(alpha_star)
    removed = (anchor, anchor, i)
    duplicate = (anchor, i, anchor)
    words = tuple(
        w for w in itertools.product(range(fam.n_maps), repeat=3) if w != removed
    )
    composed = tuple(compose_word(maps, w) for w in words)
    return ReducedFamily(composed, words, removed, duplicate)


def _bracket_dict(b: DimensionBracket) -> dict:
    return {
        "lower": b.lower,
        "upper": b.upper,
        "depth": b.depth,
        "certified_upper": b.certified_upper,
    }


@dataclass(frozen=True, eq=False)
class ExceptionalReport:
    """Outcome of a dimension-drop certification at a coincidence angle."""

    alpha_star: float
    identity_residual: float
    original: DimensionBracket
    reduced: DimensionBracket
    strict_gap: bool
    margin: float

    def to_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "identity_residual": self.identity_residual,
            "original": _bracket_dict(self.original),
            "reduced": _bracket_dict(self.reduced),
            "strict_gap": self.strict_gap,
            "margin": self.margin,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def dimension_drop(
    fam: IfsFamily,
    j: int,
    i: int,
    opts: Optional[SolverOptions] = None,
) -> ExceptionalReport:
    """Locate the coincidence angle and compare dimension brackets of
    the full three-letter grouping and the reduced family.

    strict_gap is set only when the certified upper end for the reduced
    family falls below the certified lower end for the original; an
    overlap is reported as-is rather than raised. A site or letter index
    out of range is a ConfigError, raised before any work.
    """
    # imported here: the line maps and the sampler never solve
    from .dimension import _pressure_bracket, affinity_dimension

    opts = opts or SolverOptions()
    alpha_star = find_common_fixed_point_angle(fam, j, i)
    residual = commutation_residual(fam, alpha_star, j, i)
    original = affinity_dimension(fam, alpha_star, opts)
    if original.upper >= 1.0:
        raise ConfigError(
            "dimension-drop certification needs the affinity bracket below 1 "
            "(upper end %.6g)" % original.upper
        )
    reduced = _pressure_bracket(exceptional_family(fam, alpha_star, j, i).maps, opts)
    return ExceptionalReport(
        alpha_star=alpha_star,
        identity_residual=residual,
        original=original,
        reduced=reduced,
        strict_gap=bool(reduced.upper < original.lower),
        margin=original.lower - reduced.upper,
    )


def translation_series_gap(
    system: Sequence[LineMap],
    word_a: Sequence[int],
    word_b: Sequence[int],
    terms: int,
) -> Tuple[float, float]:
    """Difference of the truncated coded points of two symbol sequences
    under a 1-d affine system, with a geometric tail bound alongside.

    Words shorter than the truncation length repeat periodically. The
    coded point of a sequence is offset_0 + lam_0 * offset_1 + ...; the
    bound covers the discarded tails of both series.
    """
    _check_count(terms, 1, "terms must be an integer >= 1")
    if not word_a or not word_b:
        raise ConfigError("words must be nonempty")
    if not system:
        raise ConfigError("empty line-map system")
    for w in (*word_a, *word_b):
        _index(w, len(system), "word letter (letters index the line-map system)")
    max_lam = max(abs(g.lam) for g in system)
    if max_lam >= 1.0:
        raise ConfigError("line-map slopes must stay below 1 in magnitude")
    max_off = max(abs(g.offset) for g in system)

    def partial(word: Sequence[int]) -> float:
        total, weight = 0.0, 1.0
        for k in range(terms):
            g = system[word[k % len(word)]]
            total += weight * g.offset
            weight *= g.lam
        return total

    tail = 2.0 * max_off * max_lam ** terms / (1.0 - max_lam)
    return partial(word_a) - partial(word_b), tail


def invariance_clouds(
    fam: IfsFamily,
    j: int,
    i: int,
    alpha_star: float,
    n_points: int,
    seed: int,
    burn_in: int = 64,
) -> Tuple[PointCloud, PointCloud]:
    """Coupled random-orbit samples of the three-letter grouping and the
    reduced family at the coincidence angle.

    Both orbits consume the same word stream; the reduced side routes
    the removed word to its duplicate, so at an exact coincidence the
    clouds agree to the residual of the word identity.
    """
    # imported here: the drop report and the line maps never sample
    from .attractor import PointCloud, _orbits

    reduced = exceptional_family(fam, alpha_star, j, i)
    # the full grouping is the reduced one with the removed word put back
    # at its lexicographic row
    shape = (fam.n_maps,) * 3
    removed = int(np.ravel_multi_index(reduced.removed_word, shape))
    maps = list(reduced.maps)
    maps.insert(removed, compose_word(fam.instantiate(alpha_star), reduced.removed_word))
    table_full = _map_table(maps)
    table_red = table_full.copy()
    table_red[removed] = table_full[np.ravel_multi_index(reduced.duplicate_word, shape)]
    points_f, points_g = _orbits([table_full, table_red], n_points, seed, burn_in)
    cloud_f = PointCloud(points_f, seed, "chaos", n_points)
    cloud_g = PointCloud(points_g, seed, "chaos", n_points)
    return cloud_f, cloud_g
