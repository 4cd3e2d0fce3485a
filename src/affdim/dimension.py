"""Pressure-type sums and certified dimension brackets.

Three families of quantities live here:

* partition sums of the singular value function over all words of a fixed
  length, and the bisection root that upper-bounds the critical exponent
  (submultiplicativity of the singular value function);
* truncated conditional-norm sums anchored at a rank-one map, whose roots
  squeeze the critical exponent of the mixed system from both sides;
* the bracket for the invertible sub-system alone, lower-bounded through
  smallest singular values (supermultiplicative, so fixed-depth roots are
  certified) and upper-bounded through the pressure root.

All enumeration is level-synchronous and vectorized with a fixed chunk
size and a canonical word order, and every reduction is compensated and
performed in that order, so results are bit-identical for any thread
count.
"""

from __future__ import annotations

import logging
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BracketInconsistencyError,
    BudgetError,
    ConfigError,
)
from .ifs import AffineMap2, IfsFamily, Word
from .linalg import Mat2, RankOneFactor, batch_singular_values, unit_vector

logger = logging.getLogger("affdim.dimension")

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the dimension solvers.

    depth is the truncation word length; tol the bisection tolerance in
    the exponent; prune drops word prefixes whose entire subtree can
    contribute less than the threshold; budget caps the total number of
    enumerated words per computation. threads parallelizes level
    construction only and never changes any result.
    """

    depth: int = 12
    tol: float = 1e-9
    prune: float = 1e-18
    budget: int = 1 << 22
    threads: int = 1

    def __post_init__(self):
        counts = (self.depth, self.budget, self.threads)
        reals = (self.tol, self.prune)
        if (
            any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in counts)
            or any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in reals)
            or self.depth < 0
            or self.budget < 1
            or self.threads < 1
            or not 0.0 < self.tol < math.inf
            or not 0.0 <= self.prune < math.inf
        ):
            raise ConfigError("solver settings out of range")
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "prune", float(self.prune))


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class AnchorBracket:
    lower: float
    upper: float
    certified: bool


@dataclass(frozen=True)
class DimensionBracket:
    """Certified enclosure [lower, upper] computed at a truncation depth.

    certified_upper records whether the upper end carries a proved tail
    bound; per_anchor (when present) stores the raw per-anchor brackets
    that were intersected.
    """

    lower: float
    upper: float
    depth: int
    certified_upper: bool
    per_anchor: Optional[Dict[int, AnchorBracket]] = None


@dataclass(frozen=True)
class AnchoredSumSpec:
    """Which truncated conditional-norm sum to evaluate.

    Words are drawn from the regular alphabet plus the anchor indices in
    `allowed`; `start` and `end` name the anchoring rank-one sites and
    may not themselves occur inside the words.
    """

    start: int
    end: int
    max_len: int
    allowed: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        if self.start in self.allowed or self.end in self.allowed:
            raise ConfigError("start/end anchors cannot occur inside the words")
        if self.max_len < 0:
            raise ConfigError("max_len must be nonnegative")


# --- deterministic reduction helpers ----------------------------------------


def _ordered_map(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _kahan_total(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _chunked_sum(arr: np.ndarray) -> float:
    # fixed chunk boundaries, then compensated left-to-right combination;
    # neither depends on the thread count
    return _kahan_total(
        np.sum(arr[i : i + _CHUNK]) for i in range(0, arr.size, _CHUNK)
    )


def _masked_pow_sum(bases: np.ndarray, s: float) -> float:
    """Sum of bases**s counting zero bases as zero even at s=0."""
    if bases.size == 0:
        return 0.0
    nz = bases[bases > 0.0]
    if nz.size == 0:
        return 0.0
    if s == 0.0:
        return float(nz.size)
    return _chunked_sum(nz ** s)


def _geometric_total(theta: float, n: int) -> float:
    """Sum of theta**d for d = 0..n."""
    if abs(theta - 1.0) < 1e-12:
        return float(n + 1)
    return (theta ** (n + 1) - 1.0) / (theta - 1.0)


def _bisect_decreasing(g, lo: float, hi: float, tol: float) -> Tuple[float, float]:
    """Shrink [lo, hi] with g(lo) >= 0 >= g(hi), g nonincreasing.

    The step count depends only on the interval and tol, which keeps
    bisection paths comparable across nested truncations: deeper sums
    dominate shallower ones pointwise, so the returned left endpoints
    inherit their monotonicity exactly.
    """
    steps = 1 if hi <= lo else max(1, math.ceil(math.log2((hi - lo) / tol)))
    a, b = lo, hi
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if g(mid) >= 0.0:
            a = mid
        else:
            b = mid
    return a, b


def _expand_until_nonpositive(g, start: float, cap: float = 1e6) -> Optional[float]:
    hi = start
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > cap:
            return None
    return hi


def _aitken(x0: float, x1: float, x2: float) -> float:
    d1, d2 = x1 - x0, x2 - x1
    den = d2 - d1
    if abs(den) < 1e-15:
        return x2
    return x2 - d2 * d2 / den


# --- carried-vector level walk ----------------------------------------------


def _letter_ops(fam: IfsFamily, alphas, allowed) -> Tuple[list, list]:
    """Per-letter closures u -> A u on (m,2) stacks, plus letter norms.

    Canonical letter order: regular maps first, then allowed anchors in
    increasing index order. Components are written out so no threaded
    BLAS path is ever taken.
    """
    ops = []
    norms = []
    for m in fam.regular:
        a = m.linear

        def op(U, a=a):
            out = np.empty_like(U)
            out[:, 0] = a.a11 * U[:, 0] + a.a12 * U[:, 1]
            out[:, 1] = a.a21 * U[:, 0] + a.a22 * U[:, 1]
            return out

        ops.append(op)
        norms.append(a.operator_norm())
    for j in sorted(allowed):
        site = fam.singular[j]
        rho = site.rho
        v = unit_vector(site.v_angle)
        w = unit_vector(site.w_angle(alphas[j]))

        def op(U, rho=rho, v=v, w=w):
            coeff = rho * (U[:, 0] * w[0] + U[:, 1] * w[1])
            out = np.empty_like(U)
            out[:, 0] = coeff * v[0]
            out[:, 1] = coeff * v[1]
            return out

        ops.append(op)
        norms.append(rho)
    return ops, norms


def _advance_vectors(U: np.ndarray, ops, threads: int) -> np.ndarray:
    if not ops or len(U) == 0:
        return U[:0]
    tasks = []
    for op in ops:
        for i in range(0, len(U), _CHUNK):
            tasks.append((op, U[i : i + _CHUNK]))
    blocks = _ordered_map(lambda t: t[0](t[1]), tasks, threads)
    return np.concatenate(blocks, axis=0)


def _anchored_levels(
    fam: IfsFamily,
    alpha,
    sum_spec: AnchoredSumSpec,
    opts: SolverOptions,
    s_floor: float = 0.0,
) -> Tuple[List[np.ndarray], list]:
    """Per-level base factors rho'|<w', A_word v''>| for word lengths
    0..max_len, plus the letter norms of the alphabet.

    A row is dropped when its whole subtree is bounded below opts.prune
    at exponent s_floor; with s_floor=0 only exactly collapsed rows go,
    so the cached levels remain valid for every exponent.
    """
    if not 0 <= sum_spec.start < fam.n_singular:
        raise ConfigError("start anchor out of range")
    if not 0 <= sum_spec.end < fam.n_singular:
        raise ConfigError("end anchor out of range")
    for j in sum_spec.allowed:
        if not 0 <= j < fam.n_singular:
            raise ConfigError("allowed anchor out of range")
    alphas = fam.angles(alpha)
    start = fam.singular[sum_spec.start]
    end = fam.singular[sum_spec.end]
    rho_s = start.rho
    w_s = unit_vector(start.w_angle(alphas[sum_spec.start]))
    ops, letter_norms = _letter_ops(fam, alphas, sum_spec.allowed)
    theta = _kahan_total(n ** s_floor for n in letter_norms)

    U = unit_vector(end.v_angle)[None, :]
    levels: List[np.ndarray] = []
    processed = 0
    for k in range(sum_spec.max_len + 1):
        if k > 0:
            U = _advance_vectors(U, ops, opts.threads)
        processed += len(U)
        if processed > opts.budget:
            raise BudgetError(
                "anchored enumeration exceeded %d words at length %d"
                % (opts.budget, k)
            )
        if len(U) and opts.prune > 0.0:
            lengths = np.hypot(U[:, 0], U[:, 1])
            geom = _geometric_total(theta, sum_spec.max_len - k)
            bound = np.where(
                lengths > 0.0, (rho_s * lengths) ** s_floor * geom, 0.0
            )
            U = U[bound >= opts.prune]
        if len(U):
            bases = rho_s * np.abs(U[:, 0] * w_s[0] + U[:, 1] * w_s[1])
        else:
            bases = np.empty(0)
        levels.append(bases)
    return levels, letter_norms


def anchored_norm_sum(
    fam: IfsFamily,
    alpha,
    sum_spec: AnchoredSumSpec,
    s: float,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Truncated sum of conditional norms to the power s.

    Each word contributes the norm of (start map) o (word) restricted to
    the image line of the end map, computed in factored form; terms with
    an exactly collapsed composition contribute zero at every s.
    """
    if s < 0.0:
        raise ValueError("exponent must be nonnegative")
    opts = opts or DEFAULT_OPTIONS
    levels, _ = _anchored_levels(fam, alpha, sum_spec, opts, s_floor=s)
    return _kahan_total(_masked_pow_sum(b, s) for b in levels)


# --- anchored exponent solvers ----------------------------------------------


def _profile_from_levels(
    levels: List[np.ndarray], tol: float
) -> List[float]:
    """Left-endpoint roots of the cumulative sums = 1 for each truncation.

    Shares one bisection grid across truncations, which makes the
    returned sequence nondecreasing without any numerical slack.
    """
    max_len = len(levels) - 1
    counts = [int(np.count_nonzero(b > 0.0)) for b in levels]

    def g(n, s):
        return _kahan_total(_masked_pow_sum(levels[k], s) for k in range(n + 1)) - 1.0

    if sum(counts) == 0:
        logger.warning("anchored sum has no nonzero terms; exponent degenerates to 0")
        return [0.0] * (max_len + 1)

    hi = _expand_until_nonpositive(lambda s: g(max_len, s), 1.0)
    if hi is None:
        # terms are products of norms < 1, so this cannot trigger; guard anyway
        raise ConfigError("anchored sum does not decay; family is not contracting")
    out = []
    for n in range(max_len + 1):
        if sum(counts[: n + 1]) <= 1:
            out.append(0.0)
            continue
        a, _ = _bisect_decreasing(lambda s: g(n, s), 0.0, hi, tol)
        out.append(a)
    return out


def _upper_from_levels(
    levels: List[np.ndarray],
    letter_norms: Sequence[float],
    rho_anchor: float,
    tol: float,
    fallback_profile: List[float],
) -> Tuple[float, bool]:
    """Certified upper end via the geometric tail bound, when available.

    The tail of the full series past length n is at most
    rho^s * theta(s)^(n+1) / (1 - theta(s)) with theta the sum of letter
    norms to the s; any s making truncation + tail <= 1 upper-bounds the
    true exponent. When theta stays >= 1 over the whole candidate range
    the bound never applies and an extrapolated value is returned,
    flagged uncertified.
    """
    max_len = len(levels) - 1
    s_cap = 8.0

    def theta(s):
        return _kahan_total(n ** s for n in letter_norms)

    def trunc(s):
        return _kahan_total(_masked_pow_sum(b, s) for b in levels)

    lower = fallback_profile[-1]

    def extrapolated() -> Tuple[float, bool]:
        tail = fallback_profile[-3:]
        guess = _aitken(*tail) if len(tail) == 3 else lower
        return max(guess, lower), False

    if theta(s_cap) >= 1.0:
        return extrapolated()

    # first find where the tail bound becomes valid
    if theta(0.0) < 1.0:
        s_theta = 0.0
    else:
        _, s_theta = _bisect_decreasing(lambda s: theta(s) - 1.0, 0.0, s_cap, tol)

    def g(s):
        th = theta(s)
        tail = rho_anchor ** s * th ** (max_len + 1) / (1.0 - th)
        return trunc(s) + tail - 1.0

    if g(s_theta) <= 0.0:
        return max(s_theta, lower), True
    hi = _expand_until_nonpositive(g, max(2.0 * s_theta, 1.0))
    if hi is None:
        return extrapolated()
    _, b = _bisect_decreasing(g, s_theta, hi, tol)
    return max(b, lower), True


def _anchor_spec(fam: IfsFamily, j: int, max_len: int) -> AnchoredSumSpec:
    allowed = frozenset(range(fam.n_singular)) - {j}
    return AnchoredSumSpec(start=j, end=j, max_len=max_len, allowed=allowed)


def anchor_exponent_profile(
    fam: IfsFamily,
    alpha,
    j: int,
    max_len: int = 12,
    tol: float = 1e-9,
    opts: Optional[SolverOptions] = None,
) -> List[float]:
    """Lower exponent bounds for every truncation length 0..max_len.

    Entry n is the root of the length-<=n conditional-norm sum anchored
    at site j; the sequence is nondecreasing and converges to the
    critical exponent of the anchored series from below.
    """
    opts = opts or DEFAULT_OPTIONS
    levels, _ = _anchored_levels(fam, alpha, _anchor_spec(fam, j, max_len), opts)
    return _profile_from_levels(levels, tol)


def affinity_dimension(
    fam: IfsFamily,
    alpha=0.0,
    opts: Optional[SolverOptions] = None,
) -> DimensionBracket:
    """Bracket for the critical exponent of the mixed system.

    Every rank-one site yields its own anchored bracket; the exponents
    agree across anchors, so the brackets are clamped at 1 and
    intersected, and a certified non-overlap signals that the truncation
    is too shallow to trust.
    """
    opts = opts or DEFAULT_OPTIONS
    if fam.n_singular < 1:
        raise ConfigError("affinity bracket needs at least one rank-one site")
    if fam.n_regular >= 1:
        reg = regular_dimension_bracket(fam, opts)
        if reg.upper >= 1.0:
            raise ConfigError(
                "invertible sub-system exponent not certified below 1 "
                "(upper bound %.6f)" % reg.upper
            )

    per: Dict[int, AnchorBracket] = {}
    for j in range(fam.n_singular):
        levels, letter_norms = _anchored_levels(
            fam, alpha, _anchor_spec(fam, j, opts.depth), opts
        )
        profile = _profile_from_levels(levels, opts.tol)
        up, cert = _upper_from_levels(
            levels, letter_norms, fam.singular[j].rho, opts.tol, profile
        )
        per[j] = AnchorBracket(profile[-1], up, cert)

    lower = max(min(1.0, p.lower) for p in per.values())
    certified_ups = [min(1.0, p.upper) for p in per.values() if p.certified]
    if certified_ups:
        upper = min(certified_ups)
        certified = True
    else:
        upper = min(min(1.0, p.upper) for p in per.values())
        certified = False
    if certified and lower > upper + 1e-9:
        raise BracketInconsistencyError(
            "anchored brackets do not intersect (lower %.9f > upper %.9f); "
            "increase the truncation depth" % (lower, upper)
        )
    return DimensionBracket(lower, max(upper, lower), opts.depth, certified, per)


# --- partition sums over full words -----------------------------------------


def _mul_right(U: np.ndarray, a: Mat2) -> np.ndarray:
    out = np.empty_like(U)
    out[:, 0, 0] = U[:, 0, 0] * a.a11 + U[:, 0, 1] * a.a21
    out[:, 0, 1] = U[:, 0, 0] * a.a12 + U[:, 0, 1] * a.a22
    out[:, 1, 0] = U[:, 1, 0] * a.a11 + U[:, 1, 1] * a.a21
    out[:, 1, 1] = U[:, 1, 0] * a.a12 + U[:, 1, 1] * a.a22
    return out


def _advance_products(U: np.ndarray, mats: Sequence[Mat2], threads: int) -> np.ndarray:
    """Append every letter to every product; children grouped per parent."""
    if not mats or len(U) == 0:
        return U[:0]

    def build(chunk):
        blocks = [_mul_right(chunk, a) for a in mats]
        return np.stack(blocks, axis=1).reshape(-1, 2, 2)

    chunks = [U[i : i + _CHUNK] for i in range(0, len(U), _CHUNK)]
    return np.concatenate(_ordered_map(build, chunks, threads), axis=0)


class _RankStates:
    """Rank-one word products kept as column/row vector pairs L, R with
    the product equal to L R^T; the larger singular value is |L||R| and
    the smaller one is exactly zero."""

    def __init__(self, Lx, Ly, Rx, Ry):
        self.Lx, self.Ly, self.Rx, self.Ry = Lx, Ly, Rx, Ry

    @classmethod
    def empty(cls):
        z = np.empty(0)
        return cls(z, z, z, z)

    def __len__(self):
        return self.Lx.size

    def norms(self) -> np.ndarray:
        return np.hypot(self.Lx, self.Ly) * np.hypot(self.Rx, self.Ry)

    @classmethod
    def concat(cls, parts):
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.Lx for p in parts]),
            np.concatenate([p.Ly for p in parts]),
            np.concatenate([p.Rx for p in parts]),
            np.concatenate([p.Ry for p in parts]),
        )


def _advance_rank(
    D: np.ndarray, S: _RankStates, maps: Sequence[AffineMap2]
) -> _RankStates:
    """Rank-one products one letter longer, grouped per appended letter.

    A rank-one word stays rank one under any letter; a dense word turns
    rank one under a rank-one letter.
    """
    parts = []
    for m in maps:
        lin = m.linear
        if isinstance(lin, Mat2):
            if len(S):
                # (L R^T) A keeps L, sends R to A^T R
                parts.append(
                    _RankStates(
                        S.Lx,
                        S.Ly,
                        lin.a11 * S.Rx + lin.a21 * S.Ry,
                        lin.a12 * S.Rx + lin.a22 * S.Ry,
                    )
                )
            continue
        v, w = lin.v(), lin.w()
        if len(D):
            # dense word times rho v w^T collapses to (rho A v) w^T
            lx = lin.rho * (D[:, 0, 0] * v[0] + D[:, 0, 1] * v[1])
            ly = lin.rho * (D[:, 1, 0] * v[0] + D[:, 1, 1] * v[1])
            parts.append(
                _RankStates(lx, ly, np.full(len(D), w[0]), np.full(len(D), w[1]))
            )
        if len(S):
            c = lin.rho * (S.Rx * v[0] + S.Ry * v[1])
            parts.append(
                _RankStates(
                    c * S.Lx, c * S.Ly, np.full(len(S), w[0]), np.full(len(S), w[1])
                )
            )
    return _RankStates.concat(parts)


def _product_levels(
    maps: Sequence[AffineMap2], depth: int, opts: SolverOptions
) -> Iterator[Tuple[int, np.ndarray, _RankStates]]:
    """Products of all words of lengths 1..depth over a mixed alphabet.

    Yields (length, dense, rank) per level: the stacked products of the
    all-invertible words, and the words through a rank-one letter kept
    factored, so their smaller singular value is exactly zero rather
    than rounding noise. The walk stops before the level that would take
    the cumulative word count past opts.budget.
    """
    dense_mats = [m.linear for m in maps if isinstance(m.linear, Mat2)]
    rank_parts = [m.linear for m in maps if isinstance(m.linear, RankOneFactor)]
    D = (
        np.stack([a.as_array() for a in dense_mats], axis=0)
        if dense_mats
        else np.empty((0, 2, 2))
    )
    S = _RankStates(
        np.array([r.rho * r.v()[0] for r in rank_parts]),
        np.array([r.rho * r.v()[1] for r in rank_parts]),
        np.array([r.w()[0] for r in rank_parts]),
        np.array([r.w()[1] for r in rank_parts]),
    )
    total = 0
    for k in range(1, depth + 1):
        total += len(maps) ** k
        if total > opts.budget:
            return
        if k > 1:
            S = _advance_rank(D, S, maps)
            D = _advance_products(D, dense_mats, opts.threads)
        yield k, D, S


def _deepest_level(
    maps: Sequence[AffineMap2], depth: int, opts: SolverOptions, need: int = 1
) -> Tuple[int, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Length and singular data (a1, a2, rank-one norms) of the deepest
    level the walk reaches; BudgetError if it stops short of need."""
    k = 0
    for k, D, S in _product_levels(maps, depth, opts):
        pass
    if k < need:
        raise BudgetError(
            "word budget %d exceeded before word length %d" % (opts.budget, need)
        )
    a1, a2 = batch_singular_values(D)
    return k, (a1, a2, S.norms())


def _svf_sum(a1: np.ndarray, a2: np.ndarray, rank_norms: np.ndarray, s: float) -> float:
    """Partition sum from cached singular data; order: invertible block
    then rank-one block."""
    pieces = []
    if a1.size:
        if s == 0.0:
            pieces.append(float(a1.size))
        elif s <= 1.0:
            pieces.append(_chunked_sum(a1 ** s))
        elif s <= 2.0:
            pieces.append(_chunked_sum(a1 * a2 ** (s - 1.0)))
        else:
            pieces.append(_chunked_sum((a1 * a2) ** (s / 2.0)))
    if rank_norms.size:
        if s == 0.0:
            pieces.append(float(rank_norms.size))
        elif s <= 1.0:
            pieces.append(_masked_pow_sum(rank_norms, s))
        # the smaller singular value is exactly zero: no contribution past s=1
    return _kahan_total(pieces)


def _svf_root(
    a1: np.ndarray, a2: np.ndarray, rank_norms: np.ndarray, tol: float
) -> float:
    """Root of the partition sum = 1 over cached singular data, clamped
    to [0, 2]; the right bisection endpoint is returned."""

    def g(s):
        return _svf_sum(a1, a2, rank_norms, s) - 1.0

    if g(0.0) <= 0.0:
        return 0.0
    if g(2.0) > 0.0:
        return 2.0
    return _bisect_decreasing(g, 0.0, 2.0, tol)[1]


def partition_sum(
    maps: Sequence[AffineMap2],
    n: int,
    s: float,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Sum of the singular value function over all length-n words."""
    if n < 1:
        raise ValueError("partition sums need word length n >= 1")
    if s < 0.0:
        raise ValueError("exponent must be nonnegative")
    opts = opts or DEFAULT_OPTIONS
    _, data = _deepest_level(maps, n, opts, need=n)
    return _svf_sum(*data, s)


def pressure_upper_root(
    maps: Sequence[AffineMap2],
    n: int,
    tol: float = 1e-9,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Root of the length-n partition sum = 1, clamped to [0, 2].

    Submultiplicativity of the singular value function makes any s with
    partition sum <= 1 an upper bound for the critical exponent, so the
    right bisection endpoint is returned.
    """
    if n < 1:
        raise ValueError("partition sums need word length n >= 1")
    opts = opts or DEFAULT_OPTIONS
    _, data = _deepest_level(maps, n, opts, need=n)
    return _svf_root(*data, tol)


def regular_dimension_bracket(
    fam: IfsFamily, opts: Optional[SolverOptions] = None
) -> DimensionBracket:
    """Certified bracket for the critical exponent of the invertible maps.

    Upper end: pressure root at the deepest affordable level. Lower end:
    for each level, the root of the smallest-singular-value sum = 1;
    those sums are supermultiplicative across levels, so each root (and
    hence their maximum) certifiably sits below the exponent, and for
    similarities both ends collapse onto the exact value.
    """
    opts = opts or DEFAULT_OPTIONS
    if fam.n_regular == 0:
        raise ConfigError("no invertible maps in the family")
    if opts.depth < 1:
        raise ConfigError("bracket depth must be at least 1")

    depth, lower = 0, 0.0
    for depth, D, _ in _product_levels(fam.regular, opts.depth, opts):
        a1, a2 = batch_singular_values(D)

        def g_low(s):
            return _chunked_sum(a2 ** s) - 1.0

        if g_low(0.0) <= 0.0:
            continue
        hi = _expand_until_nonpositive(g_low, 1.0)
        if hi is None:
            raise ConfigError("smallest singular values do not decay")
        lower = max(lower, _bisect_decreasing(g_low, 0.0, hi, opts.tol)[0])
    if depth == 0:
        raise BudgetError(
            "word budget %d exceeded before word length 1" % opts.budget
        )

    upper = _svf_root(a1, a2, np.empty(0), opts.tol)
    lower = min(lower, 2.0)
    return DimensionBracket(lower, max(upper, lower), depth, True)


def quasi_multiplicativity_probe(
    fam: IfsFamily,
    alpha,
    K: int,
    sample_words: Sequence[Word],
    opts: Optional[SolverOptions] = None,
) -> float:
    """Empirical floor for conditional norms against unrestricted norms.

    For each sampled invertible word and each pair of rank-one sites,
    takes the best connecting word of length <= K and measures the
    conditional norm of (site i) o (word) o (connector) on the image of
    site j, relative to the norm of the word alone. A floor bounded away
    from zero is the quantitative irreducibility the dimension formulas
    lean on; a reducible family aligned with a kernel drives it to 0.
    """
    opts = opts or DEFAULT_OPTIONS
    if fam.n_singular == 0:
        raise ConfigError("probe needs rank-one sites")
    if not sample_words:
        raise ConfigError("empty sample")
    alphas = fam.angles(alpha)
    ops, _ = _letter_ops(fam, alphas, frozenset(range(fam.n_singular)))

    # connectors: A_word v_j for every word of length <= K, per end anchor
    connectors = []
    for j in range(fam.n_singular):
        U = unit_vector(fam.singular[j].v_angle)[None, :]
        parts = [U]
        for _ in range(K):
            U = _advance_vectors(U, ops, opts.threads)
            if len(U) == 0:
                break
            parts.append(U)
        connectors.append(np.concatenate(parts, axis=0))

    floor = math.inf
    for word in sample_words:
        prod = Mat2.identity()
        for letter in word:
            if not 0 <= letter < fam.n_regular:
                raise ConfigError("sample words must use invertible letters only")
            prod = prod @ fam.regular[letter].linear
        denom = prod.operator_norm()
        for i in range(fam.n_singular):
            rho_i = fam.singular[i].rho
            w_i = unit_vector(fam.singular[i].w_angle(alphas[i]))
            for j in range(fam.n_singular):
                C = connectors[j]
                x0 = prod.a11 * C[:, 0] + prod.a12 * C[:, 1]
                x1 = prod.a21 * C[:, 0] + prod.a22 * C[:, 1]
                best = float(np.max(rho_i * np.abs(w_i[0] * x0 + w_i[1] * x1)))
                floor = min(floor, best / denom)
    return floor
