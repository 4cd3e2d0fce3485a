"""Pressure-type sums and certified dimension brackets.

Three families of quantities live here:

* partition sums of the singular value function over all words of a fixed
  length, and the root that upper-bounds the critical exponent
  (submultiplicativity of the singular value function);
* truncated conditional-norm sums anchored at a rank-one map, whose roots
  squeeze the critical exponent of the mixed system from both sides;
* the bracket for the invertible sub-system alone, lower-bounded through
  smallest singular values (supermultiplicative, so fixed-depth roots are
  certified) and upper-bounded through the pressure root.

Every root is that of a convex, nonincreasing sum of powers b**s. One
solver finds them all: Newton steps from the left on sums rebuilt from
logs taken once per level, then both ends of a bracket of width at most
tol confirmed by the b**s sums themselves, with a bisection on those
sums as the fallback.

All enumeration is level-synchronous and vectorized in a canonical word
order, and every reduction is compensated and performed in that order
over fixed chunks, so results never depend on the threads setting.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BracketInconsistencyError,
    BudgetError,
    ConfigError,
)
from .ifs import AffineMap2, IfsFamily
from .linalg import Linear, Mat2, RankOneFactor, batch_singular_values, unit_vector

logger = logging.getLogger("affdim.dimension")

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the dimension solvers.

    depth is the truncation word length; tol the largest width of a
    certified root bracket in the exponent; prune drops word prefixes
    whose entire subtree can contribute less than the threshold; budget
    caps the total number of enumerated words per computation. threads
    is accepted and validated for compatibility; every walk runs in the
    calling thread, so it changes neither results nor speed.
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


def _pow_sum(bases: np.ndarray, s: float) -> float:
    """Sum of bases**s over bases masked by _positive, so that zero bases
    count as zero even at s=0."""
    if s == 0.0:
        return float(bases.size)
    return _chunked_sum(bases ** s)


def _positive(bases: np.ndarray) -> np.ndarray:
    keep = bases > 0.0
    return bases if keep.all() else bases[keep]


def _geometric_total(theta: float, n: int) -> float:
    """Sum of theta**d for d = 0..n."""
    if abs(theta - 1.0) < 1e-12:
        return float(n + 1)
    return (theta ** (n + 1) - 1.0) / (theta - 1.0)


# --- certified convex roots -------------------------------------------------

_S_MAX = 1e6
_NEWTON_STEPS = 64


class _LogSum:
    """F(s) = sum of exp(C + s*L) and its derivative F'(s), for logs L of
    positive bases and optional offsets C taken once.

    An evaluation runs over the fixed _CHUNK blocks of a prefix of L
    through one reused buffer and combines the block sums in order with
    compensation, so, like the b**s sums, its bits never depend on the
    thread count.
    """

    def __init__(self, logs: np.ndarray, offsets: Optional[np.ndarray] = None):
        self.logs = logs
        self.offsets = offsets
        self._buf = np.empty(min(logs.size, _CHUNK))

    def __call__(self, s: float, end: Optional[int] = None) -> Tuple[float, float]:
        end = self.logs.size if end is None else end
        values, slopes = [], []
        for i in range(0, end, _CHUNK):
            logs = self.logs[i : min(i + _CHUNK, end)]
            buf = self._buf[: logs.size]
            np.multiply(logs, s, out=buf)
            if self.offsets is not None:
                buf += self.offsets[i : i + logs.size]
            np.exp(buf, out=buf)
            values.append(np.sum(buf))
            buf *= logs
            slopes.append(np.sum(buf))
        return _kahan_total(values), _kahan_total(slopes)


def _log_sum(*bases: np.ndarray) -> _LogSum:
    """_LogSum over the positive entries of the given base arrays."""
    logs = np.concatenate([_positive(np.asarray(b, dtype=float)) for b in bases])
    return _LogSum(np.log(logs, out=logs))


def _convex_root(
    fast, ref, lo: float, tol: float, hi: float = math.inf
) -> Optional[Tuple[float, float]]:
    """Bracket [a, b] of the root of g = F - 1, convex and nonincreasing.

    ref(s) is g from the b**s sums every certificate rests on, fast(s)
    returns (F, F') from precomputed logs. The caller knows ref(lo) >= 0
    and, when hi is finite, ref(hi) < 0. Newton steps on log F, which is
    convex too since every F here is log-convex, start at lo and never
    pass the root; one step solves a single exponential exactly. They
    stop once a step, or the next step the quadratic model predicts, is
    at most tol/8. The iterate r yields a = r - tol/4 and b = a + tol/2,
    both confirmed by ref. If either check fails, the bracket is widened
    to the right by doubling and bisected on ref, so the result always
    satisfies ref(a) >= 0 > ref(b) (lo and a finite hi are taken as
    given) and b - a <= tol unless a and b are adjacent floats. None when
    no right end exists below _S_MAX.
    """
    cap = min(hi, _S_MAX)
    r = lo
    prev = math.inf
    for _ in range(_NEWTON_STEPS):
        F, dF = fast(r)
        if not (F > 1.0 and dF < 0.0):
            break
        step = -math.log(F) * F / dF
        r = min(r + step, cap)
        if step <= 0.125 * tol or r >= cap:
            break
        # quadratic convergence predicts the next step as step^3 / prev^2
        if step < prev < math.inf and step ** 3 <= 0.125 * tol * prev * prev:
            break
        prev = step

    def probe(s):
        nonlocal lo, hi
        if ref(s) >= 0.0:
            lo = s
        else:
            hi = s

    a = max(lo, r - 0.25 * tol)
    for s in (a, a + 0.5 * tol):
        if lo < s < hi:
            probe(s)
    width = tol
    while hi == math.inf:
        if lo + width > _S_MAX:
            return None
        probe(lo + width)
        width *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        probe(mid)
    return lo, hi


def _aitken(x0: float, x1: float, x2: float) -> float:
    d1, d2 = x1 - x0, x2 - x1
    den = d2 - d1
    if abs(den) < 1e-15:
        return x2
    return x2 - d2 * d2 / den


# --- meet-in-the-middle level walk ------------------------------------------


def _letter_stack(linears: Sequence[Linear]) -> np.ndarray:
    """(n_letters, 2, 2) stack of linear parts; a rank-one part enters as
    its dense rho v w^T."""
    mats = [
        (a.as_mat2() if isinstance(a, RankOneFactor) else a).as_array() for a in linears
    ]
    return np.array(mats).reshape(-1, 2, 2)


def _outer_sum(x0, y0, x1, y1) -> np.ndarray:
    """x0 (x) y0 + x1 (x) y1 flattened row-major: elementwise products
    only, so no threaded BLAS path is ever taken."""
    out = np.multiply.outer(x0, y0)
    out += np.multiply.outer(x1, y1)
    return out.reshape(-1)


def _prune_side(x, y, others, geom, s, prune):
    """Drop the vectors (x, y) of one half whose every pair with the
    other half, of lengths others, has its subtree bounded below prune.

    A pair's base and those of its descendants d letters deeper are at
    most |x||o| times d letter norms, so the pair bounds its subtree by
    (|x| max|o|)^s * geom at exponent s. Returns the kept vectors and the
    pruned mass, |x||o| for every dropped nonzero pair.
    """
    lengths = np.hypot(x, y)
    bound = np.where(lengths > 0.0, (lengths * others.max()) ** s * geom, 0.0)
    keep = bound >= prune
    if keep.all():
        return x, y, np.empty(0)
    mass = np.multiply.outer(lengths[~keep], others).reshape(-1)
    return x[keep], y[keep], _positive(mass)


def _anchored_levels(
    fam: IfsFamily,
    alpha,
    sum_spec: AnchoredSumSpec,
    opts: SolverOptions,
    s_floor: float = 0.0,
) -> Tuple[List[np.ndarray], list, np.ndarray]:
    """Per-level base factors rho'|w'^T A_word v''| for word lengths
    0..max_len, the letter norms of the alphabet, and the pruned mass.

    The walk meets in the middle. With h = ceil(max_len / 2), it builds
    the columns U_m = A_{l_m}...A_{l_1} v'' for m <= h and the rows
    R_j = rho' w'^T A_{a_1}...A_{a_j} for j <= max_len - h, and level k
    is |R_{k-m} (x) U_m| with m = min(k, h). Both halves put the
    last-applied letter most significant, so the words of a level come
    in the order of the letters l_k...l_1 read as digits.

    Up to level h the columns are pruned against the single row R_0,
    past it the rows against the columns U_h: a vector goes when its
    every pair's subtree is bounded below opts.prune at exponent
    s_floor. With s_floor=0 and prune <= 1 only exactly collapsed
    vectors go, so the cached levels remain valid for every exponent.
    A dropped nonzero pair (r, u) leaves |r||u| in the pruned mass: its
    subtree contributes at most (|r||u|)^s / (1 - theta(s)) at any s
    with theta(s) < 1. Once a half is empty, so is every deeper level.
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
    rho_s = start.rho
    # canonical letter order: regular maps first, then allowed anchors in
    # increasing index order
    linears = [m.linear for m in fam.regular]
    linears += [fam.singular[j].map_at(alphas[j]).linear for j in sorted(sum_spec.allowed)]
    A = _letter_stack(linears)
    letter_norms = [a.operator_norm() for a in linears]
    theta = _kahan_total(n ** s_floor for n in letter_norms)
    max_len = sum_spec.max_len
    half = (max_len + 1) // 2

    Ux, Uy = unit_vector(fam.singular[sum_spec.end].v_angle)[:, None]
    Rx, Ry = rho_s * unit_vector(start.w_angle(alphas[sum_spec.start]))[:, None]
    levels: List[np.ndarray] = []
    pruned: List[np.ndarray] = []
    processed = 0
    for k in range(max_len + 1):
        if k > half:
            Rx, Ry = (
                _outer_sum(Rx, A[:, 0, 0], Ry, A[:, 1, 0]),
                _outer_sum(Rx, A[:, 0, 1], Ry, A[:, 1, 1]),
            )
        elif k > 0:
            Ux, Uy = (
                _outer_sum(A[:, 0, 0], Ux, A[:, 0, 1], Uy),
                _outer_sum(A[:, 1, 0], Ux, A[:, 1, 1], Uy),
            )
        processed += Rx.size * Ux.size
        if processed > opts.budget:
            raise BudgetError(
                "anchored enumeration exceeded %d words at length %d"
                % (opts.budget, k)
            )
        if Rx.size * Ux.size and opts.prune > 0.0:
            geom = _geometric_total(theta, max_len - k)
            if k <= half:
                others = np.array([rho_s])
                Ux, Uy, mass = _prune_side(Ux, Uy, others, geom, s_floor, opts.prune)
            else:
                others = np.hypot(Ux, Uy)
                Rx, Ry, mass = _prune_side(Rx, Ry, others, geom, s_floor, opts.prune)
            pruned.append(mass)
        if not Rx.size * Ux.size:
            levels.extend(np.empty(0) for _ in range(k, max_len + 1))
            break
        bases = _outer_sum(Rx, Ux, Ry, Uy)
        levels.append(np.abs(bases, out=bases))
    return levels, letter_norms, np.concatenate(pruned or [np.empty(0)])


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
    levels, _, _ = _anchored_levels(fam, alpha, sum_spec, opts, s_floor=s)
    return _kahan_total(_pow_sum(_positive(b), s) for b in levels)


# --- anchored exponent solvers ----------------------------------------------


class _LevelSums:
    """Cumulative sums over word lengths 0..n of the anchored bases.

    Each level is masked to its positive bases once, and their logs are
    taken once, level after level in one array, so the sum over lengths
    0..n is a prefix of it. ref is the compensated per-level b**s sum,
    fast returns the sum and its derivative from the logs.
    """

    def __init__(self, levels: List[np.ndarray]):
        self.bases = [_positive(b) for b in levels]
        self.ends = np.cumsum([b.size for b in self.bases])
        self.logs = _log_sum(*self.bases)

    def ref(self, s: float, n: int) -> float:
        return _kahan_total(_pow_sum(b, s) for b in self.bases[: n + 1])

    def fast(self, s: float, n: int) -> Tuple[float, float]:
        return self.logs(s, int(self.ends[n]))


def _profile_from_levels(
    sums: _LevelSums, tol: float, pruned: np.ndarray, prune: float
) -> List[float]:
    """Certified left ends of the roots of the cumulative sums = 1, one
    for each truncation 0..max_len.

    The root at length n starts from the entry for n-1, and the profile
    keeps the running maximum: a lower bound at n-1 stays one at n,
    since the deeper sum dominates pointwise. So the sequence is
    nondecreasing without any numerical slack.
    """
    max_len = len(sums.bases) - 1
    if sums.ends[-1] == 0:
        if pruned.size:
            logger.warning(
                "every nonzero anchored term was pruned (prune=%g); "
                "exponent degenerates to 0", prune
            )
        else:
            logger.warning("anchored sum has no nonzero terms; exponent degenerates to 0")
        return [0.0] * (max_len + 1)

    out = []
    lo = 0.0
    for n in range(max_len + 1):
        if sums.ends[n] > 1:
            root = _convex_root(
                lambda s: sums.fast(s, n), lambda s: sums.ref(s, n) - 1.0, lo, tol
            )
            if root is None:
                # terms are products of norms < 1, so this cannot trigger; guard anyway
                raise ConfigError("anchored sum does not decay; family is not contracting")
            lo = max(lo, root[0])
        out.append(lo)
    return out


def _upper_from_levels(
    sums: _LevelSums,
    pruned: np.ndarray,
    letter_norms: Sequence[float],
    rho_anchor: float,
    tol: float,
    fallback_profile: List[float],
) -> Tuple[float, bool]:
    """Certified upper end via the geometric tail bound, when available.

    The tail of the full series past length n is at most
    rho^s * theta(s)^(n+1) / (1 - theta(s)) with theta the sum of letter
    norms to the s, and the pruned subtrees add at most P(s) / (1 -
    theta(s)) with P the pruned mass; any s making truncation + tails
    <= 1 upper-bounds the true exponent. Past the theta root this sum is
    log-convex, so its root is solved like the others, with the
    derivative in closed form. When theta stays >= 1 over the whole
    candidate range the bound never applies and an extrapolated value is
    returned, flagged uncertified.
    """
    max_len = len(sums.bases) - 1
    s_cap = 8.0
    theta_logs = _log_sum(letter_norms)
    pruned_logs = _log_sum(pruned)
    log_rho = math.log(rho_anchor)

    def theta(s):
        return _kahan_total(n ** s for n in letter_norms)

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
        s_theta = _convex_root(theta_logs, lambda s: theta(s) - 1.0, 0.0, tol, s_cap)[1]

    def tail_ref(s):
        th = theta(s)
        return (rho_anchor ** s * th ** (max_len + 1) + _pow_sum(pruned, s)) / (1.0 - th)

    def tail_fast(s):
        th, d_th = theta_logs(s)
        mass, d_mass = pruned_logs(s)
        # head = rho^s theta^(n+1), differentiated without dividing by theta
        part = rho_anchor ** s * th ** max_len
        head = part * th
        d_head = part * (th * log_rho + (max_len + 1) * d_th)
        q = 1.0 - th
        return (head + mass) / q, (d_head + d_mass) / q + (head + mass) * d_th / (q * q)

    def fast(s):
        trunc, d_trunc = sums.fast(s, max_len)
        tail, d_tail = tail_fast(s)
        return trunc + tail, d_trunc + d_tail

    # the sum is at least its tails and at least 1 at lower, so a point
    # where the tails alone still reach 1 is a left point too; it is cheap
    # to find and lies past the steep rise of 1/(1 - theta) near s_theta
    start = max(s_theta, lower)
    tail_root = _convex_root(tail_fast, lambda s: tail_ref(s) - 1.0, start, tol)
    if tail_root is not None:
        start = tail_root[0]
    root = _convex_root(
        fast, lambda s: sums.ref(s, max_len) + tail_ref(s) - 1.0, start, tol
    )
    if root is None:
        return extrapolated()
    return max(root[1], lower), True


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
    levels, _, pruned = _anchored_levels(fam, alpha, _anchor_spec(fam, j, max_len), opts)
    return _profile_from_levels(_LevelSums(levels), tol, pruned, opts.prune)


def _anchor_bracket(fam: IfsFamily, alpha, j: int, opts: SolverOptions) -> AnchorBracket:
    # the levels and their logs live only for this call, so one anchor's
    # arrays are freed before the next anchor's walk
    levels, letter_norms, pruned = _anchored_levels(
        fam, alpha, _anchor_spec(fam, j, opts.depth), opts
    )
    sums = _LevelSums(levels)
    del levels
    profile = _profile_from_levels(sums, opts.tol, pruned, opts.prune)
    up, cert = _upper_from_levels(
        sums, pruned, letter_norms, fam.singular[j].rho, opts.tol, profile
    )
    return AnchorBracket(profile[-1], up, cert)


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

    per = {j: _anchor_bracket(fam, alpha, j, opts) for j in range(fam.n_singular)}
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


def _product_levels(
    maps: Sequence[AffineMap2], depth: int, opts: SolverOptions
) -> Iterator[Tuple[int, Tuple[np.ndarray, ...], np.ndarray]]:
    """Products of all words of lengths 1..depth over a mixed alphabet.

    Yields (length, entries, dets) per level: the entry arrays (a11, a12,
    a21, a22) of every word's dense product, with the last-appended
    letter most significant, and the words' determinants. A word's
    determinant is the product of its letters' determinants, which keeps
    the smaller singular value |det| / a1 accurate where a1 - a2 would
    cancel; a rank-one letter's is exactly 0, so every word through one
    has smaller singular value exactly 0 rather than rounding noise. The
    walk stops before the level that would take the cumulative word
    count past opts.budget.
    """
    linears = [m.linear for m in maps]
    A = _letter_stack(linears)
    letter_dets = np.array([a.det() if isinstance(a, Mat2) else 0.0 for a in linears])
    P, dets = (A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]), letter_dets
    total = 0
    for k in range(1, depth + 1):
        total += len(maps) ** k
        if total > opts.budget:
            return
        if k > 1:
            # letter-major: numpy's inner loop runs over the parent level
            p11, p12, p21, p22 = P
            P = (
                _outer_sum(A[:, 0, 0], p11, A[:, 1, 0], p12),
                _outer_sum(A[:, 0, 1], p11, A[:, 1, 1], p12),
                _outer_sum(A[:, 0, 0], p21, A[:, 1, 0], p22),
                _outer_sum(A[:, 0, 1], p21, A[:, 1, 1], p22),
            )
            dets = np.multiply.outer(letter_dets, dets).reshape(-1)
        yield k, P, dets


def _deepest_level(
    maps: Sequence[AffineMap2], depth: int, opts: SolverOptions, need: int = 1
) -> Tuple[int, Tuple[np.ndarray, np.ndarray]]:
    """Length and singular values (a1, a2) of the deepest level the walk
    reaches; BudgetError if it stops short of need."""
    k = 0
    for k, P, dets in _product_levels(maps, depth, opts):
        pass
    if k < need:
        raise BudgetError(
            "word budget %d exceeded before word length %d" % (opts.budget, need)
        )
    return k, batch_singular_values(*P, dets)


def _svf_sum(a1: np.ndarray, a2: np.ndarray, s: float) -> float:
    """Partition sum from cached singular values."""
    if s == 0.0:
        return float(a1.size)
    if s <= 1.0:
        return _chunked_sum(a1 ** s)
    if s <= 2.0:
        return _chunked_sum(a1 * a2 ** (s - 1.0))
    return _chunked_sum((a1 * a2) ** (s / 2.0))


def _svf_root(a1: np.ndarray, a2: np.ndarray, tol: float) -> float:
    """Root of the partition sum = 1 over cached singular values, clamped
    to [0, 2]; the certified right end of its bracket is returned.

    The sum is convex on [0, 1] and on [1, 2], but at s = 1 it has a
    concave kink, where the exponent moves from a1 to a2, and a drop,
    where the words with a2 = 0 stop counting; so the breakpoints are
    checked first and the root is solved inside one piece.
    """

    def g(s):
        return _svf_sum(a1, a2, s) - 1.0

    if g(0.0) <= 0.0:
        return 0.0
    if g(2.0) >= 0.0:
        return 2.0
    if g(1.0) < 0.0:
        return _convex_root(_log_sum(a1), g, 0.0, tol, 1.0)[1]
    # a1 a2^(s-1) = exp(log a1 - log a2 + s log a2); a zero a2 adds nothing past 1
    keep = (a1 > 0.0) & (a2 > 0.0)
    log_a2 = np.log(a2[keep])
    piece = _LogSum(log_a2, np.log(a1[keep]) - log_a2)
    return _convex_root(piece, g, 1.0, tol, 2.0)[1]


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
    right end of the certified bracket is returned.
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
    for depth, P, dets in _product_levels(fam.regular, opts.depth, opts):
        a1, a2 = batch_singular_values(*P, dets)
        if a2.size <= 1:
            # the sum is a2.size at s = 0, so its root is 0
            continue
        root = _convex_root(
            _log_sum(a2), lambda s: _chunked_sum(a2 ** s) - 1.0, 0.0, opts.tol
        )
        if root is None:
            raise ConfigError("smallest singular values do not decay")
        lower = max(lower, root[0])
    if depth == 0:
        raise BudgetError(
            "word budget %d exceeded before word length 1" % opts.budget
        )

    upper = _svf_root(a1, a2, opts.tol)
    lower = min(lower, 2.0)
    return DimensionBracket(lower, max(upper, lower), depth, True)
