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
solver finds them all with Newton steps from the left on sums rebuilt
from logs taken once per level; each evaluation carries a stated bound
on its rounding, under which the same sums certify both ends of a
bracket of width at most tol.

All enumeration is level-synchronous and vectorized in a canonical word
order, and every reduction is compensated and performed in that order
over fixed chunks, so results never depend on the threads setting.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
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
    certified root bracket in the exponent; budget caps the total number
    of enumerated words per computation, every word counted. threads is
    accepted and validated for compatibility; every walk runs in the
    calling thread, so it changes neither results nor speed.
    """

    depth: int = 12
    tol: float = 1e-9
    budget: int = 1 << 22
    threads: int = 1

    def __post_init__(self):
        counts = (self.depth, self.budget, self.threads)
        if (
            any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in counts)
            or isinstance(self.tol, bool)
            or not isinstance(self.tol, numbers.Real)
            or self.depth < 0
            or self.budget < 1
            or self.threads < 1
            or not 0.0 < self.tol < math.inf
        ):
            raise ConfigError("solver settings out of range")
        object.__setattr__(self, "tol", float(self.tol))


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
    that were intersected, and regular the invertible sub-system's
    bracket that was checked against 1, when the family has regular maps.
    """

    lower: float
    upper: float
    depth: int
    certified_upper: bool
    per_anchor: Optional[Dict[int, AnchorBracket]] = None
    regular: Optional[DimensionBracket] = None


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


def _positive(bases: np.ndarray) -> np.ndarray:
    keep = bases > 0.0
    return bases if keep.all() else bases[keep]


# --- certified convex roots -------------------------------------------------

_S_MAX = 1e6
_NEWTON_STEPS = 64

# unit roundoff, and the rounding budget of a log-sum evaluation in ulps
_U = 2.0 ** -53
_ARG_ULPS = 8.0
_SUM_ULPS = 64.0


class _LogSum:
    """F(s) = sum of exp(C + s*L), for logs L of positive bases and
    optional offsets C = log a - L taken once.

    Evaluation n sums the prefix ends[n] of L (by default all of it) over
    fixed _CHUNK blocks through one reused buffer and combines the block
    sums in order with compensation, so its bits never depend on the
    thread count. It returns (F, F', err, slope_err). Each term passes
    through fl(log b), a product, an add and exp, each within a few ulp
    of its argument, so it is off by at most _ARG_ULPS * (s max|L| +
    max|C| + 1) ulp, an offset counting as max|C| + 2 max|L| to cover the
    logs it came from; the chunked sums, their combination and the
    comparisons with 1 take _SUM_ULPS more (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3). So err bounds the rounding
    of F, and slope_err = max|L| err that of F', whose terms are value
    terms times logs. Underflowed terms lose less than the smallest
    normal float each, far inside err where F is near 1.
    """

    def __init__(self, logs: np.ndarray, offsets: Optional[np.ndarray] = None, ends=None):
        self.logs = logs
        self.offsets = offsets
        self.ends = [logs.size] if ends is None else ends
        self._buf = np.empty(min(logs.size, _CHUNK))
        self._log_max = max(-float(logs.min(initial=0.0)), float(logs.max(initial=0.0)))
        self._offset_max = 0.0
        if offsets is not None:
            self._offset_max = float(np.max(np.abs(offsets), initial=0.0)) + 2.0 * self._log_max

    def __call__(self, s: float, n: int = -1) -> Tuple[float, float, float, float]:
        end = int(self.ends[n])
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
        F, dF = _kahan_total(values), _kahan_total(slopes)
        rel = (_ARG_ULPS * (abs(s) * self._log_max + self._offset_max + 1.0) + _SUM_ULPS) * _U
        return F, dF, rel * F, rel * self._log_max * F


def _log_sum(*bases: np.ndarray) -> _LogSum:
    """_LogSum over the positive entries of the given base arrays, taken
    once, one array after another; evaluation n sums the first n + 1."""
    positive = [_positive(np.asarray(b, dtype=float)) for b in bases]
    logs = np.concatenate(positive)
    return _LogSum(np.log(logs, out=logs), ends=np.cumsum([b.size for b in positive]))


def _convex_root(
    evaluate, lo: float, tol: float, hi: float = math.inf
) -> Optional[Tuple[float, float]]:
    """Bracket [a, b] of the root of g = F - 1, convex and nonincreasing.

    evaluate(s) returns (F, F', err, slope_err) as _LogSum does; F - err
    >= 1 certifies g >= 0 at s, F + err < 1 certifies g < 0, and between
    them s is undecided. The caller knows g(lo) >= 0 and, when hi is
    finite, g(hi) < 0. Newton steps on log F, which is convex too, start
    at lo and never pass the root; one step solves a single exponential
    exactly, and each decided iterate becomes lo or hi. They stop once a
    step, or the next step the quadratic model predicts, is at most
    tol/8, and the final iterate r gives a = r - tol/4 and b = a + tol/2.
    By convexity F(a) >= F(x) + F'(x)(a - x) at the last evaluated iterate
    x, so that tangent, lowered by err and slope_err, certifies a when it
    reaches 1; b takes one more evaluation. If an end fails, the bracket
    is widened to the right by doubling and bisected, so g(a) >= 0 > g(b)
    (lo and a finite hi taken as given), and b - a <= tol unless a and b
    are adjacent floats or g's sign is undecided at their midpoint. None
    when no right end exists below _S_MAX.
    """
    cap = min(hi, _S_MAX)

    def probe(s, values=None) -> bool:
        nonlocal lo, hi
        F, _, err, _ = values or evaluate(s)
        if F - err >= 1.0:
            lo = s
        elif F + err < 1.0:
            hi = s
        else:
            return False
        return True

    r = lo
    prev = math.inf
    for _ in range(_NEWTON_STEPS):
        x, values = r, evaluate(r)
        if lo < x < hi:
            probe(x, values)
        F, dF, err, slope_err = values
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

    a = max(lo, r - 0.25 * tol)
    # the tangent at x, lowered on either side of x by the slope's bound
    if lo < a < hi and F - err + (a - x) * (dF - math.copysign(slope_err, a - x)) >= 1.0:
        lo = a
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
        if not lo < mid < hi or not probe(mid):
            break
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


def _anchored_levels(
    fam: IfsFamily,
    alpha,
    sum_spec: AnchoredSumSpec,
    opts: SolverOptions,
) -> Tuple[List[np.ndarray], list]:
    """Per-level base factors rho'|w'^T A_word v''| for word lengths
    0..max_len, and the letter norms of the alphabet.

    The walk meets in the middle. With h = ceil(max_len / 2), it builds
    the columns U_m = A_{l_m}...A_{l_1} v'' for m <= h and the rows
    R_j = rho' w'^T A_{a_1}...A_{a_j} for j <= max_len - h, and level k
    is |R_{k-m} (x) U_m| with m = min(k, h). Both halves put the
    last-applied letter most significant, so the words of a level come
    in the order of the letters l_k...l_1 read as digits.

    No word is dropped, so level k holds n_letters**k bases, counted
    against opts.budget before the level is built. An exactly collapsed
    word has base exactly 0.0, which the sums mask, so the levels serve
    every exponent.
    """
    start, end = fam.site(sum_spec.start), fam.site(sum_spec.end)
    alphas = fam.angles(alpha)
    # canonical letter order: regular maps first, then allowed anchors in
    # increasing index order
    linears = [m.linear for m in fam.regular]
    linears += [fam.site(j).map_at(alphas[j]).linear for j in sorted(sum_spec.allowed)]
    A = _letter_stack(linears)
    letter_norms = [a.operator_norm() for a in linears]
    max_len = sum_spec.max_len
    half = (max_len + 1) // 2

    Ux, Uy = unit_vector(end.v_angle)[:, None]
    Rx, Ry = start.rho * unit_vector(start.w_angle(alphas[sum_spec.start]))[:, None]
    levels: List[np.ndarray] = []
    processed = 0
    for k in range(max_len + 1):
        processed += len(linears) ** k
        if processed > opts.budget:
            raise BudgetError(
                "anchored enumeration exceeded %d words at length %d"
                % (opts.budget, k)
            )
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
        bases = _outer_sum(Rx, Ux, Ry, Uy)
        levels.append(np.abs(bases, out=bases))
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
    if not s >= 0.0:
        raise ValueError("exponent must be nonnegative")
    opts = opts or DEFAULT_OPTIONS
    levels, _ = _anchored_levels(fam, alpha, sum_spec, opts)
    # zero bases count as zero even at s = 0
    positive = map(_positive, levels)
    return _kahan_total(float(b.size) if s == 0.0 else _chunked_sum(b ** s) for b in positive)


# --- anchored exponent solvers ----------------------------------------------


def _profile_from_levels(sums: _LogSum, tol: float) -> List[float]:
    """Certified left ends of the roots of the cumulative sums = 1, one
    for each truncation 0..max_len.

    The root at length n starts from the entry for n-1, and the profile
    keeps the running maximum: a lower bound at n-1 stays one at n,
    since the deeper sum dominates pointwise. So the sequence is
    nondecreasing without any numerical slack.
    """
    max_len = len(sums.ends) - 1
    if sums.ends[-1] == 0:
        logger.warning("anchored sum has no nonzero terms; exponent degenerates to 0")
        return [0.0] * (max_len + 1)

    out = []
    lo = 0.0
    for n in range(max_len + 1):
        if sums.ends[n] > 1:
            root = _convex_root(lambda s: sums(s, n), lo, tol)
            if root is None:
                # terms are products of norms < 1, so this cannot trigger; guard anyway
                raise ConfigError("anchored sum does not decay; family is not contracting")
            lo = max(lo, root[0])
        out.append(lo)
    return out


def _upper_from_levels(
    sums: _LogSum,
    letter_norms: Sequence[float],
    rho_anchor: float,
    tol: float,
    fallback_profile: List[float],
) -> Tuple[float, bool]:
    """Certified upper end via the geometric tail bound, when available.

    The tail of the full series past length n is at most
    rho^s * theta(s)^(n+1) / (1 - theta(s)) with theta the sum of letter
    norms to the s; any s making truncation + tail <= 1 upper-bounds the
    true exponent. Past the theta root this sum is log-convex, so its
    root is solved like the others, with the derivative in closed form.
    When theta stays >= 1 over the whole candidate range the bound never
    applies and an extrapolated value is returned, flagged uncertified.
    """
    max_len = len(sums.ends) - 1
    s_cap = 8.0
    theta = _log_sum(letter_norms)
    log_rho = math.log(rho_anchor)
    lower = fallback_profile[-1]

    def extrapolated() -> Tuple[float, bool]:
        tail = fallback_profile[-3:]
        guess = _aitken(*tail) if len(tail) == 3 else lower
        return max(guess, lower), False

    th, _, th_err, _ = theta(s_cap)
    if th + th_err >= 1.0:
        return extrapolated()

    # first find where the tail bound becomes valid
    s_theta = _convex_root(theta, 0.0, tol, s_cap)[1] if letter_norms else 0.0

    def tail(s):
        th, d_th, th_err, _ = theta(s)
        # head = rho^s theta^(n+1), differentiated without dividing by theta
        part = rho_anchor ** s * th ** max_len
        head = part * th
        d_head = part * (th * log_rho + (max_len + 1) * d_th)
        q = 1.0 - th
        value = head / q
        slope = d_head / q + head * d_th / (q * q)
        # theta's rounding enters n+1 times through the power and once through
        # 1/q; log rho and the letter logs are < 0, so it covers the slope too
        th_rel = th_err / th if th else 0.0
        rel = 2.0 * ((max_len + 8) * (th_rel + _U) + th_err / q)
        return value, slope, rel * value, -rel * slope

    def total(s):
        return tuple(x + y for x, y in zip(sums(s, max_len), tail(s)))

    # the sum is at least its tail and at least 1 at lower, so a point
    # where the tail alone still reaches 1 is a left point too; it is cheap
    # to find and lies past the steep rise of 1/(1 - theta) near s_theta
    start = max(s_theta, lower)
    tail_root = _convex_root(tail, start, tol)
    if tail_root is not None:
        start = tail_root[0]
    root = _convex_root(total, start, tol)
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
    opts: Optional[SolverOptions] = None,
) -> List[float]:
    """Lower exponent bounds for every truncation length 0..max_len.

    Entry n is the root of the length-<=n conditional-norm sum anchored
    at site j; the sequence is nondecreasing and converges to the
    critical exponent of the anchored series from below.
    """
    opts = opts or DEFAULT_OPTIONS
    levels, _ = _anchored_levels(fam, alpha, _anchor_spec(fam, j, max_len), opts)
    return _profile_from_levels(_log_sum(*levels), opts.tol)


def _anchor_bracket(fam: IfsFamily, alpha, j: int, opts: SolverOptions) -> AnchorBracket:
    # the levels and their logs live only for this call, so one anchor's
    # arrays are freed before the next anchor's walk
    levels, letter_norms = _anchored_levels(
        fam, alpha, _anchor_spec(fam, j, opts.depth), opts
    )
    sums = _log_sum(*levels)
    del levels
    profile = _profile_from_levels(sums, opts.tol)
    up, cert = _upper_from_levels(sums, letter_norms, fam.singular[j].rho, opts.tol, profile)
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
    reg = None
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
    return DimensionBracket(lower, max(upper, lower), opts.depth, certified, per, reg)


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

    if a1.size <= 1:
        # the sum is a1.size at s = 0, so its root is 0
        return 0.0
    # at s = 2 and s = 1 the terms are the plain products a1 a2 and a1, so
    # these sums round only in the summation
    slack = 1.0 + _SUM_ULPS * _U
    if _chunked_sum(a1 * a2) * slack >= 1.0:
        return 2.0
    if _chunked_sum(a1) * slack < 1.0:
        return _convex_root(_log_sum(a1), 0.0, tol, 1.0)[1]
    # a1 a2^(s-1) = exp(log a1 - log a2 + s log a2); a zero a2 adds nothing past 1
    keep = (a1 > 0.0) & (a2 > 0.0)
    log_a2 = np.log(a2[keep])
    piece = _LogSum(log_a2, np.log(a1[keep]) - log_a2)
    return _convex_root(piece, 1.0, tol, 2.0)[1]


def partition_sum(
    maps: Sequence[AffineMap2],
    n: int,
    s: float,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Sum of the singular value function over all length-n words."""
    if n < 1:
        raise ValueError("partition sums need word length n >= 1")
    if not s >= 0.0:
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
    opts = replace(opts or DEFAULT_OPTIONS, tol=tol)
    _, data = _deepest_level(maps, n, opts, need=n)
    return _svf_root(*data, opts.tol)


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
        root = _convex_root(_log_sum(a2), 0.0, opts.tol)
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
