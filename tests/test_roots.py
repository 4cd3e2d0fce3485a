"""The certified convex root solver behind every dimension bracket.

The solver steps on sums rebuilt from logs and certifies both ends of
its bracket on the same sums under a stated rounding bound; these tests
check that bound against mpmath, the certified ends against
high-precision sums on random level sets, force the fallback with
skewed slopes, bound how many full-level sums one root costs, and
check that the lower roots stop at their certified left end.
"""

import math

import mpmath  # a declared test dependency: missing, it fails the module
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affdim.dimension as dimension
from affdim import (
    SolverOptions,
    affinity_dimension,
    anchor_exponent_profile,
    pressure_upper_root,
    regular_dimension_bracket,
)
from affdim.dimension import _ARG_ULPS, _U, _convex_root, _log_sum, _lower_root

from families import rotation_family, seven_map_family, two_anchor_family

bases = st.floats(min_value=1e-6, max_value=0.99)
level_sets = st.lists(
    st.lists(bases, min_size=1, max_size=40), min_size=1, max_size=4
).filter(lambda levels: sum(map(len, levels)) >= 2)


def full_sums(levels):
    # evaluates over every level, as the deepest profile root does
    return _log_sum(np.concatenate(levels))


def exact_sum(levels, s):
    """Sum of b**s over the float bases, in 120-bit arithmetic."""
    with mpmath.workprec(120):
        return sum(mpmath.mpf(b) ** mpmath.mpf(s) for level in levels for b in level)


def assert_certified(levels, evaluate, a, b):
    """The ends straddle the root of the exact sums, and the solver's
    sums there are within their stated bound of them."""
    at_a, at_b = exact_sum(levels, a), exact_sum(levels, b)
    assert at_a >= 1 > at_b
    for s, exact in ((a, at_a), (b, at_b)):
        F, _, err, _ = evaluate(s)
        assert abs(mpmath.mpf(F) - exact) <= err


@settings(max_examples=200, deadline=None)
@given(levels=level_sets, tol=st.floats(min_value=1e-12, max_value=1e-3))
def test_bracket_confirmed_by_reference_sums(levels, tol):
    evaluate = full_sums(levels)
    a, b = _convex_root(evaluate, 0.0, tol)
    assert_certified(levels, evaluate, a, b)
    assert 0.0 < b - a
    if b - a > tol:
        # allowed only where the rounding bound leaves the sign open
        F, _, err, _ = evaluate(0.5 * (a + b))
        assert not (F - err >= 1.0 or F + err < 1.0), (a, b)


@settings(max_examples=200, deadline=None)
@given(levels=level_sets, tol=st.floats(min_value=1e-15, max_value=1e-3))
def test_value_sign_tests_give_the_same_bracket(levels, tol):
    # evaluate(s, False) gives the sign tests the bits they would read from
    # entries 0 and 2 of full evaluations, so the bracket is the same
    sums = full_sums(levels)

    def full_only(s, slopes=True):
        values = sums(s)
        return values if slopes else values[0::2]

    got = _convex_root(sums, 0.0, tol)
    assert list(map(float.hex, got)) == list(map(float.hex, _convex_root(full_only, 0.0, tol)))


@settings(max_examples=200, deadline=None)
@given(levels=level_sets, tol=st.floats(min_value=1e-15, max_value=1e-3))
def test_left_end_alone_is_the_brackets_left_end(levels, tol):
    # the lower root stops once a is certified; wherever _convex_root's
    # probe of b = a + tol/2 then certifies b, its bracket starts at the
    # same a, and elsewhere its bisection can only raise a
    sums = full_sums(levels)
    a = _lower_root(sums, 0.0, tol)
    F, _, err, _ = sums(a)
    assert F - err >= 1.0
    assert exact_sum(levels, a) >= 1
    lo, hi = _convex_root(sums, 0.0, tol)
    assert a <= lo
    if hi <= a + 0.5 * tol:
        assert lo.hex() == a.hex()


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_skewed_slopes_fall_back_to_a_certified_bracket(scale):
    # a slope off by the factor sends the Newton steps past the root (0.5)
    # or stops them short of it (2.0); the slope bound owns up to the skew,
    # so the tangent cannot certify the left end and the fallback decides
    levels = [[0.5, 1.0 / 3.0], [0.25, 0.1, 0.05]]
    evaluate = full_sums(levels)
    tol = 1e-12
    calls = []

    def counted(s, slopes=True):
        calls.append(s)
        return evaluate(s, slopes)

    def skewed(s, slopes=True):
        if not slopes:
            return counted(s, False)
        F, dF, err, slope_err = counted(s)
        return F, scale * dF, err, abs(1.0 - scale) * -dF + slope_err

    _convex_root(counted, 0.0, tol)
    plain = len(calls)
    calls.clear()
    a, b = _convex_root(skewed, 0.0, tol)
    assert len(calls) > plain + 1
    assert_certified(levels, evaluate, a, b)
    assert b - a <= tol


def test_no_root_below_the_cap_returns_none():
    # bases equal to 1 never decay: the sum stays at 2
    assert _convex_root(full_sums([[1.0, 1.0]]), 0.0, 1e-9) is None


def test_log_sum_terms_within_the_stated_bound():
    # every certificate rests on the log sums, whose bound takes each term
    # exp(s * fl(log b)) within _ARG_ULPS * (s |log b| + 1) ulp of b**s;
    # 20000 bases from 1e-300 to just below 1, with b**s kept normal,
    # taken as the solver takes them: one array of logs to one exponent
    # in (0, 2] through numpy's vector log and exp
    rng = np.random.default_rng(11)
    worst = 0.0
    with mpmath.workprec(120):
        for s in 2.0 - rng.uniform(0.0, 2.0, size=200):
            decades = rng.uniform(0.0, min(300.0, 300.0 / s), size=90)
            bases = np.concatenate([10.0 ** -decades, 1.0 - 10.0 ** -rng.uniform(1, 15, size=10)])
            logs = np.log(bases)
            got = np.exp(logs * s)
            for b, log_b, g in zip(bases.tolist(), logs.tolist(), got.tolist()):
                exact = mpmath.mpf(b) ** mpmath.mpf(float(s))
                ulps = float(abs(mpmath.mpf(g) - exact) / exact) / _U
                worst = max(worst, ulps / (_ARG_ULPS * (s * abs(log_b) + 1.0)))
    assert worst <= 1.0, worst


def test_sums_at_zero_equal_the_exp_path(monkeypatch):
    # at s = 0 a log sum counts its terms and sums its logs with no exp
    # pass; exp(0 L) = 1 for every finite L, so that is the exp path's
    # value bit for bit, for the whole sum and for every group, empty
    # groups included
    rng = np.random.default_rng(17)
    cases = []
    for size in (1, 7, 128, 129, 1000, 40_001):
        logs = -rng.exponential(20.0, size)
        cuts = np.sort(rng.integers(0, size + 1, 12))
        cases.append((logs, np.concatenate(([0, 0], cuts, [size, size]))))
    exps = []
    real_exp = np.exp
    monkeypatch.setattr(dimension.np, "exp", lambda *a, **k: exps.append(a) or real_exp(*a, **k))
    got = [(dimension._LogSum(logs)(0.0), dimension._LogSum(logs, bounds=b).groups(0.0))
           for logs, b in cases]
    assert exps == []
    monkeypatch.undo()
    for (logs, bounds), (whole, groups) in zip(cases, got):
        terms = np.exp(0.0 * logs)
        assert whole[0].hex() == float(np.sum(terms)).hex() == float(logs.size).hex()
        assert whole[1].hex() == float(np.sum(terms * logs)).hex()
        # the groups as the exp path sums them: one reduceat over the terms
        live = np.flatnonzero(np.diff(bounds) > 0)
        want = np.zeros((2, len(bounds) - 1))
        want[0, live] = np.add.reduceat(terms, bounds[live])
        want[1, live] = np.add.reduceat(terms * logs, bounds[live])
        assert list(map(float.hex, groups.ravel().tolist())) == list(
            map(float.hex, want.ravel().tolist())
        )
        assert (want[0, live] > 0.0).all() and (want[:, np.diff(bounds) == 0] == 0.0).all()


def test_powers_within_four_ulp_of_mpmath():
    # partition_sum reports b**s sums, so this
    # build's power must stay close to correctly rounded; 20000 bases in
    # (1e-12, 1), one array to one exponent in (0, 2]
    rng = np.random.default_rng(7)
    exponents = 2.0 - rng.uniform(0.0, 2.0, size=200)
    worst = 0.0
    with mpmath.workprec(120):
        for s in exponents:
            bases = 10.0 ** -rng.uniform(0.0, 12.0, size=100)
            assert ((bases > 1e-12) & (bases < 1.0)).all()
            got = bases ** s
            for b, g in zip(bases.tolist(), got.tolist()):
                exact = mpmath.mpf(b) ** mpmath.mpf(float(s))
                ulp = float(np.spacing(float(exact)))
                worst = max(worst, float(abs(mpmath.mpf(g) - exact)) / ulp)
    assert worst <= 4.0, worst


def test_undecided_ends_widen_from_the_band():
    # at tol = 1e-15 both Newton-derived ends fall inside the band where the
    # rounding bound leaves the sign open; the widening starts next to them
    # at the band's width instead of doubling from tol at the left end
    evaluate = full_sums([[1e-5, 1e-5]])
    calls = []

    def counted(s, slopes=True):
        calls.append(s)
        return evaluate(s, slopes)

    a, b = _convex_root(counted, 0.0, 1e-15)
    assert len(calls) <= 20, len(calls)
    F, _, err, _ = evaluate(a)
    assert F - err >= 1.0
    F, _, err, _ = evaluate(b)
    assert F + err < 1.0


def test_root_at_the_left_end():
    # one base: the sum is 1 at s = 0 and below 1 after it
    a, b = _convex_root(full_sums([[0.5]]), 0.0, 1e-9)
    assert a == 0.0 and 0.0 < b <= 1e-9


def calls_per_call(monkeypatch, outer, counted, keep=lambda *args: True):
    """Patch dimension.<outer> to record, per call, how many calls the
    (owner, name) callables in counted receive while it runs, counting
    those whose arguments pass keep."""
    per_call = []
    active = []
    real = getattr(dimension, outer)

    def run(*args, **kwargs):
        active.append(0)
        try:
            return real(*args, **kwargs)
        finally:
            per_call.append(active.pop())

    def tally(fn):
        def wrapped(*args):
            if active and keep(*args):
                active[-1] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(dimension, outer, run)
    for owner, name in counted:
        monkeypatch.setattr(owner, name, tally(getattr(owner, name)))
    return per_call


def test_anchored_roots_cost_few_full_level_sums(monkeypatch):
    # in one affinity_dimension call each anchor's sum is evaluated once
    # at 0 to count its terms, then by one root from 0 for the lower end,
    # which takes that count as its first iterate, and by one root of the
    # sum plus its tail bound for the upper end; two sites put the other
    # site inside the words. Only the Newton iterates read slopes: every
    # other sign test calls evaluate(s, False), which reduces no slope groups
    depth = 8
    real_sums = dimension._site_sums
    evaluations, roots, entered, group_calls = {}, [], [], []

    def site_sums(*args):
        sums = real_sums(*args)
        evaluations[sums] = []
        return sums

    def counted(call):
        def wrapped(self, s, slopes=True):
            if self in evaluations:
                evaluations[self].append((s, slopes))
            entered.append(slopes)
            try:
                return call(self, s, slopes)
            finally:
                entered.pop()

        return wrapped

    def groups(call):
        def wrapped(self, s, slopes=True):
            group_calls.append((slopes, entered[-1]))
            return call(self, s, slopes)

        return wrapped

    def recording(real_root):
        def root(evaluate, *args, **kwargs):
            calls = []
            roots.append(calls)

            def recorded(s, slopes=True):
                # calls holds the full evaluations, the Newton iterates
                before = sum(map(len, evaluations.values()))
                values = evaluate(s, slopes)
                if slopes:
                    calls.append((s, values, sum(map(len, evaluations.values())) > before))
                return values

            return real_root(recorded, *args, **kwargs)

        return root

    monkeypatch.setattr(dimension, "_site_sums", site_sums)
    # the lower ends are solved by _lower_root, the upper ends by _convex_root
    for name in ("_convex_root", "_lower_root"):
        monkeypatch.setattr(dimension, name, recording(getattr(dimension, name)))
    for cls in (dimension._LogSum, dimension._SiteSums):
        monkeypatch.setattr(cls, "__call__", counted(cls.__call__))
    monkeypatch.setattr(dimension._LogSum, "groups", groups(dimension._LogSum.groups))
    for fam in (rotation_family(), two_anchor_family()):
        evaluations.clear()
        roots.clear()
        group_calls.clear()
        bracket = affinity_dimension(fam, 0.0, SolverOptions(depth=depth))
        assert all(anchor.certified for anchor in bracket.per_anchor.values())
        assert len(evaluations) == fam.n_singular
        deep = [calls for calls in roots if any(hit for _, _, hit in calls)]
        # one root for each end of each anchor
        assert len(deep) == 2 * fam.n_singular, roots
        for calls in deep:
            # only the lower root's first iterate, at 0, is not evaluated anew
            assert all(hit or s == 0.0 for s, _, hit in calls[:1])
            assert all(hit for _, _, hit in calls[1:])
            # every evaluation with slopes is a Newton step from the one
            # before it: the ends are certified by the last tangent and
            # by evaluations without slopes
            for (s, (F, dF, _, _), _), (t, _, _) in zip(calls, calls[1:]):
                assert t == s - math.log(F) * F / dF
            assert len(calls) <= 6, calls
        # the slopes are read at 0, to count the terms, and at the Newton
        # iterates, nowhere else
        sloped = [s for points in evaluations.values() for s, slopes in points if slopes]
        iterates = [s for calls in deep for s, _, hit in calls if hit]
        assert sorted(sloped) == sorted([0.0] * fam.n_singular + iterates)
        # at most 1 + 6 + 4 on these families, s = 0 among them once
        assert all(len(points) <= 11 for points in evaluations.values()), evaluations
        assert all([s for s, _ in points].count(0.0) == 1 for points in evaluations.values())
        # the group sums reduce slopes exactly inside the evaluations with slopes
        assert all(slopes == wanted for slopes, wanted in group_calls), group_calls
        if fam.n_singular > 1:
            assert {slopes for slopes, _ in group_calls} == {True, False}


def test_every_evaluator_gives_its_full_values_without_slopes(monkeypatch):
    # each evaluate handed to the solver, the closures of _root_from_zero
    # and _anchor_upper included, returns from evaluate(s, False) the bits
    # of entries 0 and 2 of evaluate(s) at every point the solver visited;
    # checked as each root returns, before the next level reuses the buffers
    kinds = set()

    def checking(real_root):
        def root(evaluate, *args):
            points = []

            def recorded(s, slopes=True):
                points.append(s)
                return evaluate(s, slopes)

            bracket = real_root(recorded, *args)
            for s in points:
                F, _, err, _ = evaluate(s)
                want = [F.hex(), err.hex()]
                assert [x.hex() for x in evaluate(s, False)] == want, (evaluate, s)
            kinds.add(getattr(evaluate, "__qualname__", type(evaluate).__qualname__))
            return bracket

        return root

    for name in ("_convex_root", "_lower_root"):
        monkeypatch.setattr(dimension, name, checking(getattr(dimension, name)))
    opts = SolverOptions(depth=6)
    for fam in (two_anchor_family(), seven_map_family(1)):
        affinity_dimension(fam, 0.4, opts)
    regular_dimension_bracket(seven_map_family(1), opts)
    # the level sums through rank-one letters root below 1 on the first
    # family and reach the piece past 1 on the second
    for fam in (two_anchor_family(), rotation_family()):
        pressure_upper_root(fam.instantiate(0.4), 3)
    assert kinds == {
        "_LogSum",
        "_root_from_zero.<locals>.<lambda>",
        "_anchor_upper.<locals>.tail",
        "_anchor_upper.<locals>.total",
    }


def test_lower_roots_stop_at_the_certified_left_end(monkeypatch):
    # each anchor's lower root, each regular level root and each profile
    # root reads its left end alone: after the last Newton iterate it
    # evaluates at most once, without slopes, and only where that
    # evaluation certifies the left end; no right end is probed
    real = dimension._root_from_zero
    after = []

    def root_from_zero(sums, tol, *solve):
        points = []

        def recorded(s, slopes=True):
            values = sums(s, slopes)
            points.append((slopes, values))
            return values

        result = real(recorded, tol, *solve)
        if not solve:
            # the lower roots; _svf_root hands a solver for its right end
            last = max(i for i, (slopes, _) in enumerate(points) if slopes)
            after.append(points[last + 1 :])
        return result

    monkeypatch.setattr(dimension, "_root_from_zero", root_from_zero)
    opts = SolverOptions(depth=6)
    for fam in (seven_map_family(1), two_anchor_family()):
        affinity_dimension(fam, 0.4, opts)
    anchor_exponent_profile(two_anchor_family(), 0.4, 0, 6, opts)
    # 3 anchors and 6 levels, 2 anchors and 6 levels, 7 truncations
    assert len(after) == 3 + 6 + 2 + 6 + 7
    for points in after:
        assert len(points) <= 1, points
        assert all(not slopes and F - err >= 1.0 for slopes, (F, err) in points), points


def test_pressure_root_costs_few_sums(monkeypatch):
    # an evaluation of the log sums counts once, and so does every np.sum
    # outside one: the breakpoint sums at s = 1 and 2
    inside = []
    real_sums = dimension._LogSum.__call__

    def sums(self, *args):
        inside.append(self)
        try:
            return real_sums(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(dimension._LogSum, "__call__", sums)
    per_root = calls_per_call(
        monkeypatch,
        "_svf_root",
        [(dimension._LogSum, "__call__"), (dimension.np, "sum")],
        keep=lambda *args: not inside,
    )
    maps = rotation_family().instantiate(0.0)
    for n in (2, 6):
        assert 0.0 < pressure_upper_root(maps, n) < 2.0
    assert len(per_root) == 2
    assert max(per_root) <= 12, per_root
