"""The certified convex root solver behind every dimension bracket.

The solver navigates with sums rebuilt from logs and confirms both ends
of its bracket with the b**s sums; these tests check the confirmation
on random level sets, force its fallback with skewed fast sums, and
bound how many full-level sums one root costs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affdim.dimension as dimension
from affdim import SolverOptions, affinity_dimension, pressure_upper_root
from affdim.dimension import _convex_root, _LevelSums

from families import rotation_family

bases = st.floats(min_value=1e-6, max_value=0.99)
level_sets = st.lists(
    st.lists(bases, min_size=1, max_size=40), min_size=1, max_size=4
).filter(lambda levels: sum(map(len, levels)) >= 2)


def full_sums(levels):
    sums = _LevelSums([np.array(b) for b in levels])
    n = len(levels) - 1
    return (lambda s: sums.fast(s, n)), (lambda s: sums.ref(s, n) - 1.0)


@settings(max_examples=200, deadline=None)
@given(levels=level_sets, tol=st.floats(min_value=1e-12, max_value=1e-3))
def test_bracket_confirmed_by_reference_sums(levels, tol):
    fast, ref = full_sums(levels)
    a, b = _convex_root(fast, ref, 0.0, tol)
    assert ref(a) >= 0.0 > ref(b)
    assert 0.0 < b - a <= tol


@pytest.mark.parametrize("offset", [1e-13, -1e-13, 0.5, -0.5])
def test_skewed_fast_sums_fall_back_to_a_confirmed_bracket(offset):
    # with tol below the root shift that the offset causes, the Newton
    # estimate fails its check and the bisection on the b**s sums decides
    fast, ref = full_sums([[0.5, 1.0 / 3.0], [0.25, 0.1, 0.05]])
    tol = 1e-14
    calls = []

    def skewed(s):
        value, slope = fast(s)
        return value + offset, slope

    def counted(s):
        calls.append(s)
        return ref(s)

    a, b = _convex_root(skewed, counted, 0.0, tol)
    assert len(calls) > 2
    assert ref(a) >= 0.0 > ref(b)
    assert b - a <= tol


def test_no_root_below_the_cap_returns_none():
    # bases equal to 1 never decay: the sum stays at 2
    fast, ref = full_sums([[1.0, 1.0]])
    assert _convex_root(fast, ref, 0.0, 1e-9) is None


def test_powers_within_four_ulp_of_mpmath():
    # every certificate rests on the b**s sums, so this build's power must
    # stay close to correctly rounded; 20000 bases in (1e-12, 1), taken
    # as the solver takes them: one array to one exponent in (0, 2]
    import mpmath  # a declared test dependency: missing, it fails the test
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


def test_root_at_the_left_end():
    fast, ref = full_sums([[0.5]])
    # one base: the sum is 1 at s = 0 and below 1 after it
    a, b = _convex_root(fast, ref, 0.0, 1e-9)
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
    depth = 8
    per_root = calls_per_call(
        monkeypatch,
        "_convex_root",
        [(_LevelSums, "fast"), (_LevelSums, "ref")],
        keep=lambda sums, s, n: n == depth,
    )
    bracket = affinity_dimension(rotation_family(), 0.0, SolverOptions(depth=depth))
    assert bracket.certified_upper
    deep = [c for c in per_root if c]
    # the last profile entry and the upper end, each confirmed by two
    # b**s sums after at most three Newton steps
    assert len(deep) == 2
    assert sum(deep) <= 10, per_root


def test_pressure_root_costs_few_sums(monkeypatch):
    # the breakpoint checks at s = 0, 1, 2 count too
    per_root = calls_per_call(
        monkeypatch, "_svf_root", [(dimension, "_svf_sum"), (dimension._LogSum, "__call__")]
    )
    maps = rotation_family().instantiate(0.0)
    for n in (2, 6):
        assert 0.0 < pressure_upper_root(maps, n) < 2.0
    assert len(per_root) == 2
    assert max(per_root) <= 12, per_root
