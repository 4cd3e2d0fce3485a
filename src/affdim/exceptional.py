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
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .config import SolverOptions
from .errors import (
    ConfigError,
    ExcludedParameterError,
    IdentityMismatchError,
    NoSignChangeError,
    _check_count,
)
from .ifs import AffineMap2, IfsFamily, Word, _map_table, compose_word
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


def line_map(fam: IfsFamily, j: int, word: Word, alpha: float) -> LineMap:
    """Action of f_j o f_word on the invariant line of site j.

    Site j maps the whole plane onto t_j + span(v_j); parametrizing that
    line by x -> x * v_j + t_j, the composition acts on the coordinate x
    by a 1-d affine map, returned here.
    """
    site = fam.site(j)
    anchor = fam.singular_letter(j)
    if any(fam.letter(letter) == anchor for letter in word):
        raise ConfigError("word may not contain the anchor site itself")
    maps = fam.instantiate(alpha)
    f = compose_word(maps, tuple(word))
    w = unit_vector(site.w_angle(alpha))
    v = unit_vector(site.v_angle)
    point = f.apply(np.asarray(site.translation, dtype=float))
    lam = site.rho * float(np.dot(w, f.linear.apply(v)))
    offset = site.rho * float(np.dot(w, point))
    return LineMap(lam, offset)


def fixed_point_gap(fam: IfsFamily, j: int, i: int, alpha: float) -> float:
    """Difference of the fixed points of the line maps of f_j and
    f_j o f_i; a zero makes f_j o f_j o f_i and f_j o f_i o f_j equal."""
    g_empty = line_map(fam, j, (), alpha)
    g_i = line_map(fam, j, (i,), alpha)
    return g_empty.fixed_point() - g_i.fixed_point()


def _gap_grid(fam: IfsFamily, j: int, i: int, alphas: np.ndarray) -> np.ndarray:
    """fixed_point_gap(fam, j, i, a) for every a in alphas, nan where a
    line map has no attracting fixed point.

    Only site j and letter i are evaluated, as arrays over alphas. The
    two-term dot products are written out, where np.dot may fuse a
    multiply-add, so an entry can differ from the scalar gap in its last
    bits, never in sign unless the gap is within rounding of 0.
    """
    site = fam.site(j)
    v, t = unit_vector(site.v_angle), site.translation
    angle = site.w_angle(alphas)
    w0, w1 = np.cos(angle), np.sin(angle)

    def fixed_point(x, y):
        # the coordinate of the line map with lam = rho w . x, offset = rho w . y
        lam = site.rho * (w0 * x[0] + w1 * x[1])
        offset = site.rho * (w0 * y[0] + w1 * y[1])
        out = np.full(alphas.shape, np.nan)
        return np.divide(offset, 1.0 - lam, out=out, where=np.abs(lam) < 1.0)

    if i < fam.n_regular:
        m = fam.regular[i]
        image_v, image_t = m.linear.apply(v), m.apply(t)
    else:
        # x -> rho_k (w_k . x) v_k + t_k, w_k turning with alpha
        other = fam.singular[i - fam.n_regular]
        angle = other.w_angle(alphas)
        k0, k1, vk = np.cos(angle), np.sin(angle), unit_vector(other.v_angle)
        image_v = np.multiply.outer(vk, other.rho * (k0 * v[0] + k1 * v[1]))
        image_t = np.multiply.outer(vk, other.rho * (k0 * t[0] + k1 * t[1]))
        image_t += other.translation[:, None]
    return fixed_point(v, t) - fixed_point(image_v, image_t)


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


_MAX_BISECT = 200


def _anchor_letter(fam: IfsFamily, j: int, i: int) -> int:
    """Letter of site j, once j and the companion letter i are checked."""
    anchor = fam.singular_letter(j)
    if fam.letter(i, "companion letter") == anchor:
        raise ConfigError("companion letter coincides with the site")
    return anchor


def find_common_fixed_point_angle(
    fam: IfsFamily,
    j: int,
    i: int,
    grid_size: int = 256,
    tol: float = 1e-12,
    residual_tol: float = 1e-10,
) -> float:
    """Angle where the fixed-point gap of site j against letter i
    vanishes, verified down at the map level.

    The gap is evaluated on a uniform grid over one period of the site
    angle; every sign change between consecutive valid grid points is
    bisected until |gap| <= tol, and parameters where a line map loses
    its fixed point are skipped rather than bisected across. The found
    angle must reproduce the word coincidence with coefficient residual
    at most residual_tol.
    """
    _check_count(grid_size, 2, "grid_size must be an integer >= 2")
    _anchor_letter(fam, j, i)
    period = fam.site(j).period

    def gap(a: float) -> Optional[float]:
        try:
            return fixed_point_gap(fam, j, i, a)
        except ExcludedParameterError:
            return None

    grid = [k * period / grid_size for k in range(grid_size + 1)]
    gaps = _gap_grid(fam, j, i, np.array(grid)).tolist()
    values = [None if math.isnan(g) else g for g in gaps]
    candidates: List[float] = []
    for k in range(grid_size):
        lo, hi = grid[k], grid[k + 1]
        glo, ghi = values[k], values[k + 1]
        if glo is None or ghi is None:
            continue
        if abs(glo) <= tol:
            candidates.append(lo)
            continue
        if glo * ghi >= 0.0:
            continue
        root = None
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            gmid = gap(mid)
            if gmid is None:
                break
            if abs(gmid) <= tol:
                root = mid
                break
            if glo * gmid < 0.0:
                hi = mid
            else:
                lo, glo = mid, gmid
        if root is not None:
            candidates.append(root)
    if not candidates:
        finite = [abs(v) for v in values if v is not None]
        raise NoSignChangeError(
            "no root of the fixed-point gap on a %d-point grid over one "
            "period (smallest |gap| %.3e, %d excluded points)"
            % (grid_size + 1, min(finite) if finite else float("nan"),
               sum(v is None for v in values))
        )
    best = None
    for alpha_star in candidates:
        residual = commutation_residual(fam, alpha_star, j, i)
        if residual <= residual_tol:
            return alpha_star
        if best is None or residual < best[1]:
            best = (alpha_star, residual)
    raise IdentityMismatchError(
        "fixed-point gap vanishes at angle %.12g but the word coincidence "
        "residual is %.3e (tolerance %.1e)" % (best[0], best[1], residual_tol)
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
    from .dimension import (
        DimensionBracket,
        _affordable_depth,
        affinity_dimension,
        pressure_upper_root,
    )

    opts = opts or SolverOptions()
    alpha_star = find_common_fixed_point_angle(fam, j, i)
    residual = commutation_residual(fam, alpha_star, j, i)
    original = affinity_dimension(fam, alpha_star, opts)
    if original.upper >= 1.0:
        raise ConfigError(
            "dimension-drop certification needs the affinity bracket below 1 "
            "(upper end %.6g)" % original.upper
        )
    reduced_maps = exceptional_family(fam, alpha_star, j, i).maps
    # the deepest level within the budget; BudgetError when level 1 is not
    depth = max(1, _affordable_depth(len(reduced_maps), opts.depth, opts.budget))
    upper = pressure_upper_root(reduced_maps, depth, opts.tol, opts)
    reduced = DimensionBracket(0.0, upper, depth, True)
    margin = original.lower - upper
    return ExceptionalReport(
        alpha_star=alpha_star,
        identity_residual=residual,
        original=original,
        reduced=reduced,
        strict_gap=bool(upper < original.lower),
        margin=margin,
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
    if any(not 0 <= w < len(system) for w in (*word_a, *word_b)):
        raise ConfigError("word letters index the line-map system")
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

    if n_points < 1:
        raise ConfigError("need at least one point")
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
