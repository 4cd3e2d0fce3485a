"""Pressure-type sums and certified dimension brackets.

Three families of quantities live here:

* partition sums of the singular value function over all words of a fixed
  length, and the root that upper-bounds the critical exponent
  (submultiplicativity of the singular value function); a word through
  rank-one letters has a product of scalar factors as its a1, so only
  the words over the invertible letters are multiplied out;
* truncated conditional-norm sums anchored at a rank-one map: the root of
  the sum over words of length at most the depth bounds the critical
  exponent of the mixed system from below, and the root of that sum plus
  a geometric tail bound bounds it from above; a word through rank-one
  letters has a product of scalar factors as its term, so these sums are
  built from one table of factor logs;
* the bracket for the invertible sub-system alone, lower-bounded through
  smallest singular values (supermultiplicative, so fixed-depth roots are
  certified) and upper-bounded through the pressure root.

Every root is that of a convex, nonincreasing sum of powers b**s. One
solver finds them all with Newton steps from the left on sums rebuilt
from logs taken once; each evaluation carries a stated bound
on its rounding, under which the same sums certify both ends of a
bracket of width at most tol.

All enumeration is level-synchronous and vectorized in a canonical word
order, and every sum is one numpy reduction over its terms in that
order in the calling thread, so results never depend on the threads
setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import SolverOptions
from .errors import (
    BracketInconsistencyError,
    BudgetError,
    ConfigError,
    _check_count,
)
from .ifs import AffineMap2, IfsFamily, _map_table
from .linalg import Mat2, batch_singular_values

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
    bound or is 1, where the reported exponent is clamped and so always
    an upper end; per_anchor (when present) stores the raw per-anchor
    brackets that were intersected, with upper end inf where no tail
    bound applies, and regular the invertible sub-system's bracket that
    was checked against 1, when the family has regular maps.
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
        _check_count(self.max_len, 0, "max_len must be a nonnegative integer")


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

    Evaluation sums every term in one pass through one reused buffer, and
    returns (F, F', err, slope_err), or (F, err) from the same exp pass
    without the slope's product and sum when slopes is false. Each term
    passes through fl(log b), a product, an add and exp, each within a few
    ulp of its argument, so it is off by at most _ARG_ULPS * (s max|L| +
    max|C| + 1) ulp, an offset counting as max|C| + 2 max|L| to cover the
    logs it came from. numpy sums a contiguous float64 array pairwise: a
    leaf of at most 128 terms puts each term through at most 25 roundings
    (15 in its accumulator, 3 in the combine, 7 for the remainder), and
    each halving above 128 terms adds one more, so even the default budget
    of 2^22 words stays at 40; with the comparisons with 1 that is inside
    _SUM_ULPS (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    3). So err bounds the rounding of F, and slope_err = max|L| err that
    of F', whose terms are value terms times logs. Underflowed terms lose
    less than the smallest normal float each, far inside err where F is
    near 1.

    Given group bounds, groups(s) returns instead the sums of terms and
    of slopes of every group, one np.add.reduceat over the same terms, so
    the number of numpy calls does not grow with the number of groups.

    The exp buffer is buf, at least as long as logs, when given, so that
    sums evaluated one after another can share it. At s = 0 without
    offsets every term exp(0 L) is exactly 1, so the term counts and the
    sums of the logs, in the same order, are the same values with no exp
    pass.
    """

    def __init__(
        self, logs: np.ndarray, offsets: Optional[np.ndarray] = None, bounds=None, buf=None
    ):
        self.logs = logs
        self.offsets = offsets
        self._buf = np.empty(logs.size) if buf is None else buf[: logs.size]
        self._log_max = max(-float(logs.min(initial=0.0)), float(logs.max(initial=0.0)))
        self._offset_max = 0.0
        if offsets is not None:
            self._offset_max = float(np.max(np.abs(offsets), initial=0.0)) + 2.0 * self._log_max
        if bounds is not None:
            sizes = np.diff(bounds)
            self._groups = len(bounds) - 1
            self._live = np.flatnonzero(sizes > 0)
            self._sizes = sizes[self._live]
            self._starts = np.asarray(bounds)[self._live]

    def _terms(self, s: float) -> Optional[np.ndarray]:
        """The terms in the reused buffer, or None when each is 1."""
        if s == 0.0 and self.offsets is None:
            return None
        buf = np.multiply(self.logs, s, out=self._buf)
        if self.offsets is not None:
            buf += self.offsets
        return np.exp(buf, out=buf)

    def __call__(self, s: float, slopes: bool = True) -> Tuple[float, ...]:
        buf = self._terms(s)
        F = float(self.logs.size) if buf is None else float(np.sum(buf))
        rel = (_ARG_ULPS * (abs(s) * self._log_max + self._offset_max + 1.0) + _SUM_ULPS) * _U
        if not slopes:
            return F, rel * F
        if buf is None:
            dF = float(np.sum(self.logs))
        else:
            buf *= self.logs
            dF = float(np.sum(buf))
        return F, dF, rel * F, rel * self._log_max * F

    def groups(self, s: float, slopes: bool = True) -> np.ndarray:
        """Sums of the terms and of their slopes in each group, the logs
        between consecutive bounds given at construction, as two rows;
        without slopes, the first row alone."""
        sums = np.zeros((2 if slopes else 1, self._groups))
        if self._live.size:
            buf = self._terms(s)
            if buf is None:
                sums[0, self._live] = self._sizes
                if slopes:
                    sums[1, self._live] = np.add.reduceat(self.logs, self._starts)
            else:
                sums[0, self._live] = np.add.reduceat(buf, self._starts)
                if slopes:
                    buf *= self.logs
                    sums[1, self._live] = np.add.reduceat(buf, self._starts)
        return sums


def _log_sum(bases, logs=None, buf=None) -> _LogSum:
    """_LogSum over the positive entries of bases, logs taken once, into
    logs and with exp buffer buf when given (each at least as long)."""
    bases = np.asarray(bases, dtype=float)
    keep = bases > 0.0
    if not keep.all():
        bases = bases[keep]
    return _LogSum(np.log(bases, out=None if logs is None else logs[: bases.size]), buf=buf)


def _convex_root(
    evaluate, lo: float, tol: float, hi: float = math.inf
) -> Optional[Tuple[float, float]]:
    """Bracket [a, b] of the root of g = F - 1, convex and nonincreasing.

    evaluate(s) returns (F, F', err, slope_err) and evaluate(s, False)
    (F, err) with the same F and err, as _LogSum does; F - err >= 1
    certifies g >= 0 at s, F + err < 1 certifies g < 0, and between them
    s is undecided. Only the Newton iterates read slopes; every other
    sign test (the probes of a and b, the widening and the bisection)
    calls evaluate(s, False). The caller knows g(lo) >= 0 and, when hi
    is finite, g(hi) < 0. Newton steps on log F, which is convex too,
    start at lo and never pass the root; one step solves a single
    exponential exactly, and each decided iterate becomes lo or hi. They
    stop once a step, or the next step the quadratic model predicts, is
    at most tol/8, and the final iterate r gives a = r - tol/4 and b = a
    + tol/2. By convexity F(a) >= F(x) + F'(x)(a - x) at the last
    evaluated iterate x, so that tangent, lowered by err and slope_err,
    certifies a when it reaches 1, and otherwise a probe of a does; b
    takes one more evaluation. If an end fails, the bracket is widened
    away from it by doubling steps that start at the width of the
    undecided band, estimated as err / |F'| at the last iterate, and
    then bisected, so g(a) >= 0 > g(b) (lo and a finite hi taken as
    given), and b - a <= tol unless a and b are adjacent floats or g's
    sign is undecided at their midpoint. None when no right end exists
    below _S_MAX.
    """
    steps = _root_steps(evaluate, lo, tol, hi)
    next(steps)
    return next(steps, None)


def _lower_root(evaluate, lo: float, tol: float) -> Optional[float]:
    """The left end a of _convex_root's bracket, returned once the last
    tangent or the probe of a certifies it, with no probe of b, widening
    or bisection; otherwise it runs on as _convex_root does. So g(a) >= 0
    is certified (or a is the given lo), but not root - a <= tol; a
    differs from _convex_root's only where the probe of b fails and
    bisection then raises a. None where _convex_root gives None."""
    steps = _root_steps(evaluate, lo, tol, math.inf)
    a = next(steps)
    if a is None:
        root = next(steps, None)
        a = root and root[0]
    return a


def _root_steps(evaluate, lo: float, tol: float, hi: float):
    """_convex_root's steps: yields a once the Newton steps, the tangent
    and the probe of a have run, or None if a is not certified, then the
    bracket; ends early when no right end exists below _S_MAX."""
    cap = min(hi, _S_MAX)

    def probe(s, F_err=None) -> bool:
        nonlocal lo, hi
        F, err = F_err or evaluate(s, False)
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
            probe(x, values[0::2])
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
    if lo < a < hi:
        probe(a)
    yield a if lo == a else None
    if lo < a + 0.5 * tol < hi:
        probe(a + 0.5 * tol)
    # an undecided end steps away from the root by doublings that start at
    # the width of the undecided band, err / |F'| at the last iterate
    band = max(tol, err / -dF) if dF < 0.0 else tol
    width = band
    while hi == math.inf:
        s = max(lo, a + 0.5 * tol) + width
        if s > _S_MAX:
            return
        probe(s)
        width *= 2.0
    width = band
    while lo < min(a, hi) - width:
        s = min(a, hi) - width
        if probe(s) and lo == s:
            break
        width *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or not probe(mid):
            break
    yield lo, hi


# --- site-factored sums -----------------------------------------------------


def _affordable_depth(letters: int, depth: int, budget: int) -> int:
    """Deepest word length k <= depth such that the words of lengths 1..k
    over an alphabet of that many letters number at most budget."""
    k = total = 0
    while k < depth and total + letters ** (k + 1) <= budget:
        k += 1
        total += letters ** k
    return k


def _check_word_budget(n_letters: int, max_len: int, opts: SolverOptions) -> None:
    """An anchored sum covers n_letters**k words at each length k <= max_len,
    the empty word included; BudgetError at the first length that takes
    the running count past opts.budget."""
    k = _affordable_depth(n_letters, max_len, opts.budget - 1)
    if k < max_len:
        raise BudgetError(
            "anchored enumeration exceeded %d words at length %d" % (opts.budget, k + 1)
        )


def _segment_caps(spec: AnchoredSumSpec) -> np.ndarray:
    """caps[a, b]: the most regular letters a word of spec has between
    site letters a and b, negative where no segment runs from a to b. A
    segment from start to end has at most max_len letters, one from
    start to a site or from a site to end max_len - 1, one between two
    sites max_len - 2."""
    n, inner = spec.max_len, sorted(spec.allowed)
    caps = np.full((max(spec.start, spec.end, *inner) + 1,) * 2, -1)
    caps[spec.start, spec.end] = n
    caps[spec.start, inner] = caps[inner, spec.end] = n - 1
    caps[np.ix_(inner, inner)] = n - 2
    return caps


def _site_vectors(maps: Sequence[AffineMap2]) -> Tuple[np.ndarray, np.ndarray]:
    """Columns v and rows rho w of rank-one maps, as (count, 2) arrays."""
    v = np.reshape([m.linear.v() for m in maps], (-1, 2))
    return v, np.reshape([m.linear.rho * m.linear.w() for m in maps], (-1, 2))


def _images(P, v: np.ndarray, out: np.ndarray, work: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) = A_u v_b as views of the rows of work shaped like out,
    (len(v), end), for the first end words u of the entry rows P and the
    columns v_b; out holds the second products of each sum meanwhile.
    Elementwise products only, so no threaded BLAS path is ever taken."""
    x, y = (row[: out.size].reshape(out.shape) for row in work)
    end = out.shape[1]
    for image, p, q in ((x, P[0], P[1]), (y, P[2], P[3])):
        np.multiply.outer(v[:, 0], p[:end], out=image)
        np.multiply.outer(v[:, 1], q[:end], out=out)
        image += out
    return x, y


def _logs(c: np.ndarray) -> np.ndarray:
    """log c in place, with log 0 = -inf."""
    with np.errstate(divide="ignore"):
        return np.log(c, out=c)


def _site_table(
    v: np.ndarray, w: np.ndarray, caps: np.ndarray, walk, open_cap: int = -1
) -> Tuple[Dict[Tuple[int, int], np.ndarray], List[int]]:
    """Logs of the factors c[a, b, u] = |w_a^T A_u v_b| over the words u
    of the dense letters, for site columns v[b] and rows w[a], rho folded in.

    walk is the (P, dets, off) of _product_levels for the lengths
    0..max(caps.max(), open_cap) at least. Row (a, b) holds the logs for
    every word of length m <= caps[a, b], level m spanning off[m]:off[m +
    1] in the walk's order, the empty word first; an exactly zero factor
    has log -inf. So one walk serves every row, read in place. The rows
    of one cap are one array, built in one work pair that every cap
    reuses. With open_cap >= 0 and K sites, rows (K, b) and (a, K + 1)
    hold, up to that length, the factors of a word's open ends, numbered
    after the sites: |A_u v_b| before its first site letter and |A_u^T
    w_a| after its last.
    """
    P, _, off = walk
    # a set, not np.unique, whose first call imports numpy.ma
    pairs = [(cap, *np.nonzero(caps == cap)) for cap in sorted(set(caps[caps >= 0].tolist()))]
    sizes = [a.size * off[cap + 1] for cap, a, _ in pairs]
    if open_cap >= 0:
        sizes.append(max(len(v), len(w)) * off[open_cap + 1])
    work = np.empty((2, max(sizes, default=0)))
    rows = {}
    for cap, a, b in pairs:
        # (x, y) = A_u v_b, then c = |rho_a w_a . (x, y)|
        c = np.empty((a.size, off[cap + 1]))
        x, y = _images(P, v[b], c, work)
        x *= w[a, 0, None]
        y *= w[a, 1, None]
        np.abs(np.add(x, y, out=c), out=c)
        rows.update(zip(zip(a.tolist(), b.tolist()), _logs(c)))
    if open_cap >= 0:
        end = off[open_cap + 1]
        starts, ends = np.empty((len(v), end)), np.empty((len(w), end))
        np.hypot(*_images(P, v, starts, work), out=starts)
        # A_u^T w_a from the transposed entries
        np.hypot(*_images((P[0], P[2], P[1], P[3]), w, ends, work), out=ends)
        rows.update(((len(v), b), r) for b, r in enumerate(_logs(starts)))
        rows.update(((a, len(v) + 1), r) for a, r in enumerate(_logs(ends)))
    return rows, off


def _site_sums(rows, off, spec: AnchoredSumSpec, exact: bool = False):
    """The anchored sum F(s) over the words of length at most
    spec.max_len, factored at the rank-one letters, from the factor logs
    of a _site_table.

    A word from spec.start to spec.end whose site letters are b_1..b_r
    splits into regular segments u_0..u_r, and its term rho |w^T A_word
    v| is the product c[start, b_1, u_0] c[b_1, b_2, u_1] ...
    c[b_r, end, u_r] of factors. So F(s) combines the group sums
    S[a, b, m](s) of c[a, b, u]^s over the words u of length m up to
    the _segment_caps of spec, or of length max_len alone when exact.
    The logs of the positive factors go into one flat array, one group
    after another. Without sites inside the words every term is one
    factor, and a plain _LogSum over that array is the sum; otherwise a
    _SiteSums multiplies the group sums out. Either way evaluation
    returns (F, F', err, slope_err), and F(0) counts the nonzero terms
    exactly.
    """
    n = spec.max_len
    inner = sorted(spec.allowed)
    sites = [spec.start, *inner] + ([spec.end] if spec.end != spec.start else [])
    caps = _segment_caps(spec)[np.ix_(sites, sites)]
    groups = [(m, i, k) for m in range(n + 1) for (i, k), cap in np.ndenumerate(caps) if m <= cap]
    bounds = np.cumsum([0] + [off[m + 1] - off[m] for m, _, _ in groups])
    logs = np.concatenate([rows[sites[i], sites[k]][off[m] : off[m + 1]] for m, i, k in groups])
    if logs.min(initial=0.0) == -np.inf:
        keep = logs > -np.inf
        bounds = np.concatenate(([0], np.cumsum(keep)))[bounds]
        logs = logs[keep]
    if not inner:
        return _LogSum(logs)
    terms = _LogSum(logs, bounds=bounds)
    return _SiteSums(terms, groups, sites.index(spec.end), len(inner), exact)


class _SiteSums:
    """The sums of _site_sums for words through q >= 1 other sites.

    The nodes are numbered 0 (start), 1..q (the sites allowed inside the
    words) and e (end: 0 when it is start, else q + 1). Each evaluation
    takes every group sum and its slope from terms.groups, and a dynamic
    program over word length and next site multiplies them out, carrying
    slopes by the product rule, and sums the lengths, or takes the last
    alone when exact. Without slopes only the group sums of the terms
    are taken and the program runs without slopes; err is the same.

    A term with r site letters is a product of r + 1 <= n + 1 group
    sums, each within the _LogSum bound with max|L| = M taken over the
    factor logs; it passes r multiplications and at most n + 1
    sequential accumulations of at most q n + 1 positive summands, and
    math.fsum rounds the total over lengths once, inside the 2 ulps
    counted for it. So err = ((n + 1) (_ARG_ULPS (s M + 1) + _SUM_ULPS
    + q n) + n + 2) u F bounds the rounding of F. Each term of F' is a
    value term times one of its at most n + 1 factor logs, rounded at
    most twice as often, so slope_err = 2 (n + 1) M err.
    """

    def __init__(self, terms: _LogSum, groups, e: int, q: int, exact: bool = False):
        self.terms, self._e, self._q, self._exact = terms, e, q, exact
        self.max_len = groups[-1][0]
        self._width = width = q + 1 + (e > 0)
        self._keys = np.array([(m * width + i) * width + k for m, i, k in groups], dtype=np.intp)

    def _by_length(self, values, slopes=None) -> Tuple[List[float], Optional[List[float]]]:
        """Sums of the terms of each word length 0..max_len, and their
        slopes when slopes are given (else None)."""
        n, w = self.max_len, self._width
        e, inner = self._e, range(1, self._q + 1)

        def table(x):
            T = np.zeros((n + 1) * w * w)
            T[self._keys] = x
            return T.reshape(-1, w, w).tolist()

        S, D = table(values), None if slopes is None else table(slopes)
        # P[L - 1][b - 1]: words of length L from start that end in site letter b
        P, dP, E, dE = [], [], [], []
        for k in range(n + 1):
            # a word of length k to t is a segment from start, or a prefix
            # through a site letter b at L <= k and then a segment of length
            # k - L from b; the (L, b) parts serve every t in the same order
            targets = (e, *inner) if k < n else (e,)
            if D is None:
                parts = [(p[b - 1], S[k - L][b]) for L, p in enumerate(P, 1) for b in inner]
                ends = []
                for t in targets:
                    x = S[k][0][t]
                    for p, s in parts:
                        x += p * s[t]
                    ends.append(x)
            else:
                parts = [
                    (p[b - 1], dp[b - 1], S[k - L][b], D[k - L][b])
                    for L, (p, dp) in enumerate(zip(P, dP), 1)
                    for b in inner
                ]
                ends, d_ends = [], []
                for t in targets:
                    x, dx = S[k][0][t], D[k][0][t]
                    for p, dp, s, ds in parts:
                        x += p * s[t]
                        dx += dp * s[t] + p * ds[t]
                    ends.append(x)
                    d_ends.append(dx)
                dE.append(d_ends[0])
                dP.append(d_ends[1:])
            E.append(ends[0])
            P.append(ends[1:])
        return E, None if D is None else dE

    def __call__(self, s: float, slopes: bool = True) -> Tuple[float, ...]:
        E, dE = self._by_length(*self.terms.groups(s, slopes))
        n, M = self.max_len, self.terms._log_max
        total = (lambda x: x[-1]) if self._exact else math.fsum
        F = total(E)
        group = _ARG_ULPS * (abs(s) * M + 1.0) + _SUM_ULPS
        err = ((n + 1) * (group + self._q * n) + n + 2) * _U * F
        return (F, total(dE), err, 2.0 * (n + 1) * M * err) if slopes else (F, err)


def _anchored_table(fam: IfsFamily, alpha, spec: AnchoredSumSpec, opts: SolverOptions):
    """_site_table over a walk for one spec alone; it serves every spec
    that differs from it only in a shorter max_len."""
    for j in (spec.start, spec.end, *spec.allowed):
        fam.site(j)
    n = spec.max_len
    _check_word_budget(fam.n_regular + len(spec.allowed), n, opts)
    walk = _product_levels(fam.regular, n, opts)
    return _site_table(*_site_vectors(fam.instantiate(alpha)[fam.n_regular :]), _segment_caps(spec), walk)


def anchored_norm_sum(
    fam: IfsFamily,
    alpha,
    sum_spec: AnchoredSumSpec,
    s: float,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Truncated sum of conditional norms to the power s.

    Each word contributes the norm of (start map) o (word) restricted to
    the image line of the end map, computed as a product of factors split
    at the word's rank-one letters; terms with an exactly collapsed
    factor contribute zero at every s.
    """
    if not s >= 0.0:
        raise ConfigError("exponent must be nonnegative")
    table = _anchored_table(fam, alpha, sum_spec, opts or DEFAULT_OPTIONS)
    return _site_sums(*table, sum_spec)(s, False)[0]


# --- anchored exponent solvers ----------------------------------------------


def _root_from_zero(sums, tol: float, solve=None) -> float:
    """solve(evaluate, 0.0, tol) on sums = 1, by default _lower_root's
    left end, certified below the root but not within tol of it; or 0
    when F(0), which counts the nonzero terms, each below 1, is at most
    1. The evaluation at 0 that decides this is handed to the solver as
    its first iterate."""
    at_zero = sums(0.0)
    if at_zero[0] <= 1.0:
        if at_zero[0] == 0.0:
            # imported here: almost no run logs, and the import costs more
            # than many solves
            import logging

            logging.getLogger("affdim.dimension").warning(
                "sum has no nonzero terms; its root degenerates to 0"
            )
        return 0.0
    root = (solve or _lower_root)(
        lambda s, slopes=True: at_zero if s == 0.0 and slopes else sums(s, slopes), 0.0, tol
    )
    if root is None:
        # terms are products of norms < 1, so this cannot trigger; guard anyway
        raise ConfigError("sum does not decay; family is not contracting")
    return root


def _anchor_upper(
    sums,
    max_len: int,
    letter_norms: Sequence[float],
    rho_anchor: float,
    tol: float,
    lower: float,
) -> float:
    """Certified upper end via the geometric tail bound, or inf.

    The tail of the full series past length max_len is at most
    rho^s * theta(s)^(max_len+1) / (1 - theta(s)) with theta the sum of
    letter norms to the s; any s making truncation + tail <= 1
    upper-bounds the true exponent. Past the theta root this sum is
    log-convex, so its root is solved like the others, with the
    derivative in closed form. When theta stays >= 1 over the whole
    candidate range the bound never applies, and the end is inf.
    """
    s_cap = 8.0
    theta = _log_sum(letter_norms)
    log_rho = math.log(rho_anchor)

    th, th_err = theta(s_cap, False)
    if th + th_err >= 1.0:
        return math.inf

    # first find where the tail bound becomes valid
    s_theta = _convex_root(theta, 0.0, tol, s_cap)[1] if letter_norms else 0.0

    def tail(s, slopes=True):
        if slopes:
            th, d_th, th_err, _ = theta(s)
        else:
            th, th_err = theta(s, False)
        # head = rho^s theta^(n+1), differentiated without dividing by theta
        part = rho_anchor ** s * th ** max_len
        head = part * th
        q = 1.0 - th
        value = head / q
        # theta's rounding enters n+1 times through the power and once through
        # 1/q; log rho and the letter logs are < 0, so it covers the slope too
        th_rel = th_err / th if th else 0.0
        rel = 2.0 * ((max_len + 8) * (th_rel + _U) + th_err / q)
        if not slopes:
            return value, rel * value
        d_head = part * (th * log_rho + (max_len + 1) * d_th)
        slope = d_head / q + head * d_th / (q * q)
        return value, slope, rel * value, -rel * slope

    def total(s, slopes=True):
        return tuple(x + y for x, y in zip(sums(s, slopes), tail(s, slopes)))

    # the sum is at least its tail and at least 1 at lower, so a point
    # where the tail alone still reaches 1 is a left point too; it is cheap
    # to find and lies past the steep rise of 1/(1 - theta) near s_theta
    start = max(s_theta, lower)
    tail_root = _lower_root(tail, start, tol)
    if tail_root is not None:
        start = tail_root
    root = _convex_root(total, start, tol)
    return math.inf if root is None else max(root[1], lower)


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

    Entry n is the running maximum of the certified left ends of the
    roots of the length-<=n conditional-norm sums anchored at site j,
    each solved from 0 and all cut from one factor table. Each left end
    is certified below its root, but no right end is solved, so it is not
    certified to lie within opts.tol of it. A lower bound at n - 1 stays
    one at n, since the deeper sum dominates pointwise, so the sequence
    is nondecreasing without any numerical slack and converges to the
    critical exponent of the anchored series from below.
    """
    opts = opts or DEFAULT_OPTIONS
    spec = _anchor_spec(fam, j, max_len)
    rows, off = _anchored_table(fam, alpha, spec, opts)
    out, lo = [], 0.0
    for k in range(max_len + 1):
        lo = max(lo, _root_from_zero(_site_sums(rows, off, replace(spec, max_len=k)), opts.tol))
        out.append(lo)
    return out


def _anchor_bracket(fam: IfsFamily, sums, j: int, max_len: int, tol: float) -> AnchorBracket:
    letter_norms = [m.linear.operator_norm() for m in fam.regular]
    letter_norms += [fam.singular[k].rho for k in range(fam.n_singular) if k != j]
    lower = _root_from_zero(sums, tol)
    upper = _anchor_upper(sums, max_len, letter_norms, fam.singular[j].rho, tol, lower)
    return AnchorBracket(lower, upper, upper < math.inf)


def affinity_dimension(
    fam: IfsFamily,
    alpha=0.0,
    opts: Optional[SolverOptions] = None,
) -> DimensionBracket:
    """Bracket for the critical exponent of the mixed system.

    Every rank-one site yields its own anchored bracket, with upper end
    inf where its tail bound never applies; the exponents agree across
    anchors, so the brackets are clamped at 1 and intersected, and a
    non-overlap signals that the truncation is too shallow to trust.
    The clamped exponent never exceeds 1, so the upper end is always
    certified.
    """
    return next(_affinity_brackets(fam, (alpha,), opts or DEFAULT_OPTIONS))


def _affinity_brackets(
    fam: IfsFamily, alphas: Iterable, opts: SolverOptions
) -> Iterator[DimensionBracket]:
    """affinity_dimension at each alpha, drawn from alphas one at a time.

    The invertible-part bracket, the walk of the regular products and
    the segment caps do not depend on alpha, so they are made once,
    before the first alpha is drawn; each alpha then costs one factor
    table and the anchors' roots.
    """
    if fam.n_singular < 1:
        raise ConfigError("affinity bracket needs at least one rank-one site")
    reg, walk = None, _product_levels(fam.regular, opts.depth, opts)
    if fam.n_regular >= 1:
        reg = _regular_bracket(fam, opts, walk)
        if reg.upper >= 1.0:
            raise ConfigError(
                "invertible sub-system exponent not certified below 1 "
                "(upper bound %.6f)" % reg.upper
            )

    # one table serves every anchor, cut at the longest segment any needs
    n, K = opts.depth, fam.n_singular
    _check_word_budget(fam.n_maps - 1, n, opts)
    specs = [_anchor_spec(fam, j, n) for j in range(K)]
    caps = np.max([_segment_caps(spec) for spec in specs], axis=0)
    for alpha in alphas:
        rows, off = _site_table(*_site_vectors(fam.instantiate(alpha)[fam.n_regular :]), caps, walk)
        per = {
            j: _anchor_bracket(fam, _site_sums(rows, off, spec), j, n, opts.tol)
            for j, spec in enumerate(specs)
        }
        lower = max(min(1.0, p.lower) for p in per.values())
        upper = min(min(1.0, p.upper) for p in per.values())
        if lower > upper + 1e-9:
            raise BracketInconsistencyError(
                "anchored brackets do not intersect (lower %.9f > upper %.9f); "
                "increase the truncation depth" % (lower, upper)
            )
        yield DimensionBracket(lower, max(upper, lower), opts.depth, True, per, reg)


# --- partition sums over full words -----------------------------------------


def _product_levels(
    maps: Sequence[AffineMap2], depth: int, opts: SolverOptions
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Products of all words of lengths 0..k over dense letters, for the
    deepest k <= depth that _affordable_depth allows.

    Returns (P, dets, off): the rows of P are the entry arrays (a11, a12,
    a21, a22) of every word's product and dets the words' determinants,
    all in one buffer each. Column 0 holds the empty word, and level m is
    the slice off[m]:off[m + 1], with the last-appended letter most
    significant. A word's determinant is the product of its letters'
    determinants, which keeps the smaller singular value |det| / a1
    accurate where a1 - a2 would cancel.
    """
    r = len(maps)
    k = _affordable_depth(r, depth, opts.budget)
    off = np.cumsum([0, 1] + [r ** m for m in range(1, k + 1)]).tolist()
    P, dets = np.empty((4, off[-1])), np.empty(off[-1])
    P[:, 0], dets[0] = (1.0, 0.0, 0.0, 1.0), 1.0
    if k == 0:
        return P, dets, off
    P[:, 1 : r + 1] = _map_table(maps)[:, :4].T
    dets[1 : r + 1] = [m.linear.det() for m in maps]
    letters, letter_dets = P[:, 1 : r + 1].reshape(2, 2, r), dets[1 : r + 1]
    # the second product of each entry sum, one buffer for every level
    work = np.empty(r ** k)
    for m in range(2, k + 1):
        # letter-major: numpy's inner loop runs over the parent level
        parent, level = slice(off[m - 1], off[m]), slice(off[m], off[m + 1])
        shape = (r, off[m] - off[m - 1])
        parents, second = P[:, parent].reshape(2, 2, -1), work[: r * shape[1]].reshape(shape)
        for e in range(4):
            # entry (i, j) of the parent's product times the letter's
            i, j = divmod(e, 2)
            entry = np.multiply.outer(letters[0, j], parents[i, 0], out=P[e, level].reshape(shape))
            entry += np.multiply.outer(letters[1, j], parents[i, 1], out=second)
        np.multiply.outer(letter_dets, dets[parent], out=dets[level].reshape(shape))
    return P, dets, off


def _level_sums(maps: Sequence[AffineMap2], n: int, opts: SolverOptions):
    """(a1, a2, sums) for the words of length n over maps; BudgetError
    when the words of lengths 1..n exceed opts.budget.

    a1 and a2 are the singular values of the words over the dense
    letters, the only ones multiplied out. A word U_0 S_1 U_1 ... S_r U_r
    through rank-one letters S_i = rho_i v_i w_i^T has a2 = 0 and a1 =
    |A_U_0 v_1| rho_1 |w_1^T A_U_1 v_2| ... rho_r |A_U_r^T w_r|. So
    sums, None without rank-one letters, is the sum of a1^s on [0, 1] as
    an exact-length _site_sums between two open ends, with the dense
    words' a1 joining them directly.
    """
    if not maps:
        raise ConfigError("partition sums need at least one map")
    if _affordable_depth(len(maps), n, opts.budget) < n:
        raise BudgetError("word budget %d exceeded before word length %d" % (opts.budget, n))
    dense = [m for m in maps if isinstance(m.linear, Mat2)]
    sites = [m for m in maps if not isinstance(m.linear, Mat2)]
    walk = P, dets, off = _product_levels(dense, n, opts)
    a1, a2 = batch_singular_values(*P[:, off[n] :], dets[off[n] :])
    if not sites:
        return a1, a2, None
    q = len(sites)
    rows, _ = _site_table(*_site_vectors(sites), np.full((q, q), n - 2), walk, n - 1)
    # the open ends meet directly only in the dense words of length n
    row = rows[q, q + 1] = np.full(off[n + 1], -np.inf)
    row[off[n] :] = a1
    _logs(row[off[n] :])
    spec = AnchoredSumSpec(start=q, end=q + 1, max_len=n, allowed=range(q))
    return a1, a2, _site_sums(rows, off, spec, exact=True)


def _svf_root(a1: np.ndarray, a2: np.ndarray, tol: float, sums=None) -> float:
    """Root of the partition sum = 1 over cached singular values, clamped
    to [0, 2]; the certified right end of its bracket is returned. On
    [0, 1] sums, by default the log sum of a1, evaluates the sum.

    The sum is convex on [0, 1] and on [1, 2], but at s = 1 it has a
    concave kink, where the exponent moves from a1 to a2, and a drop,
    where the words with a2 = 0 stop counting; so the breakpoints are
    checked first and the root is solved inside one piece.
    """
    # at s = 2 the terms are the plain products a1 a2, so this sum rounds
    # only in the summation
    if np.sum(a1 * a2) * (1.0 + _SUM_ULPS * _U) >= 1.0:
        return 2.0
    if sums is None:
        sums = _log_sum(a1)
    F, err = sums(1.0, False)
    if F + err < 1.0:
        return _root_from_zero(sums, tol, lambda f, lo, tol: _convex_root(f, lo, tol, 1.0)[1])
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
    _check_count(n, 1, "partition sums need an integer word length n >= 1")
    if not s >= 0.0:
        raise ConfigError("exponent must be nonnegative")
    a1, a2, sums = _level_sums(maps, n, opts or DEFAULT_OPTIONS)
    if s == 0.0:
        return float(len(maps) ** n)
    if s <= 1.0:
        return float(np.sum(a1 ** s)) if sums is None else sums(s, False)[0]
    if s <= 2.0:
        return float(np.sum(a1 * a2 ** (s - 1.0)))
    return float(np.sum((a1 * a2) ** (s / 2.0)))


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
    _check_count(n, 1, "partition sums need an integer word length n >= 1")
    opts = replace(opts or DEFAULT_OPTIONS, tol=tol)
    a1, a2, sums = _level_sums(maps, n, opts)
    return _svf_root(a1, a2, opts.tol, sums)


def _pressure_bracket(maps: Sequence[AffineMap2], opts: SolverOptions) -> DimensionBracket:
    """[0, pressure root] at the deepest level k <= opts.depth whose words
    of lengths 1..k fit opts.budget; BudgetError when level 1 does not."""
    depth = max(1, _affordable_depth(len(maps), opts.depth, opts.budget))
    return DimensionBracket(0.0, pressure_upper_root(maps, depth, opts.tol, opts), depth, True)


def regular_dimension_bracket(
    fam: IfsFamily, opts: Optional[SolverOptions] = None
) -> DimensionBracket:
    """Certified bracket for the critical exponent of the invertible maps.

    Upper end: pressure root at the deepest affordable level. Lower end:
    for each level, the root of the smallest-singular-value sum = 1;
    those sums are supermultiplicative across levels, so each root (and
    hence their maximum) certifiably sits below the exponent, and for
    similarities both ends collapse onto the exact value. Each level's
    root is read at the certified left end of its bracket alone: a point
    below the root, with no right end solved, so it is not certified to
    lie within opts.tol of the root.
    """
    return _regular_bracket(fam, opts or DEFAULT_OPTIONS)


def _regular_bracket(
    fam: IfsFamily, opts: SolverOptions, walk: Optional[tuple] = None
) -> DimensionBracket:
    """regular_dimension_bracket on walk, the _product_levels of the
    regular maps, when given. One set of singular-value, log and exp
    arrays, sized for the deepest level, serves every level."""
    if fam.n_regular == 0:
        raise ConfigError("no invertible maps in the family")
    if opts.depth < 1:
        raise ConfigError("bracket depth must be at least 1")

    P, dets, off = walk or _product_levels(fam.regular, opts.depth, opts)
    depth = len(off) - 2
    if depth == 0:
        raise BudgetError(
            "word budget %d exceeded before word length 1" % opts.budget
        )
    a1, a2, logs, buf = np.empty((4, off[-1] - off[-2]))
    lower = 0.0
    for k in range(1, depth + 1):
        level, size = slice(off[k], off[k + 1]), off[k + 1] - off[k]
        # logs is the scratch array until the logs are taken
        batch_singular_values(*P[:, level], dets[level], out=(a1[:size], a2[:size], logs[:size]))
        lower = max(lower, _root_from_zero(_log_sum(a2[:size], logs, buf), opts.tol))

    upper = _svf_root(a1, a2, opts.tol, _log_sum(a1, logs, buf))
    lower = min(lower, 2.0)
    return DimensionBracket(lower, max(upper, lower), depth, True)
