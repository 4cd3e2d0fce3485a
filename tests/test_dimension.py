import itertools
import math
import tracemalloc
from dataclasses import replace

import mpmath  # a declared test dependency: missing, it fails the module
import numpy as np
import pytest

from affdim import (
    AffineMap2,
    AnchoredSumSpec,
    IfsFamily,
    Mat2,
    RankOneFactor,
    RankOneSite,
    SolverOptions,
    affinity_dimension,
    anchor_exponent_profile,
    anchored_norm_sum,
    exceptional_family,
    find_common_fixed_point_angle,
    partition_sum,
    pressure_upper_root,
    regular_dimension_bracket,
)
import affdim.dimension as dimension
from affdim.dimension import _affinity_brackets, _anchored_table, _site_sums
from affdim.errors import BudgetError, ConfigError
from affdim.ifs import compose_word

from families import (
    brute_svf,
    cantor_similarities,
    drop_family,
    heavy_sites_family,
    random_admissible,
    rotation_family,
    scalar_family,
    seven_map_family,
    two_anchor_family,
    weighted_root,
    wide_family,
)

SCALAR_LIMIT = weighted_root((0.5, 1.0 / 3.0))  # root of 2^-s + 3^-s = 1


def anchor_spec(fam, j, max_len):
    # start/end and allowed use site indices, not global letters
    allowed = frozenset(range(fam.n_singular)) - {j}
    return AnchoredSumSpec(start=j, end=j, max_len=max_len, allowed=allowed)


def truncations(fam, alpha, spec):
    """One anchored sum per truncation n = 0..spec.max_len, all cut from
    the table walked for spec."""
    rows, off = _anchored_table(fam, alpha, spec, SolverOptions())
    return [_site_sums(rows, off, replace(spec, max_len=n)) for n in range(spec.max_len + 1)]


def antidiagonal_family():
    # the antidiagonal linear part swaps the axes, so odd-length words
    # land exactly perpendicular to the row direction at alpha = 0
    return IfsFamily(
        regular=(AffineMap2(Mat2(0.0, 0.3, 0.3, 0.0), (0.0, 0.0)),),
        singular=(
            RankOneSite(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
        ),
    )


def three_site_family():
    # two non-conformal invertible maps and three rank-one sites, so
    # specs can anchor at different sites and allow any subset of the rest
    return IfsFamily(
        regular=(
            AffineMap2(Mat2(0.3, 0.1, -0.05, 0.25), (0.1, 0.0)),
            AffineMap2(Mat2(0.2, -0.12, 0.08, 0.3), (0.0, 0.1)),
        ),
        singular=(
            RankOneSite(rho=0.3, v_angle=0.4, c=0.3, beta=1.0, translation=(0.0, 0.0)),
            RankOneSite(rho=0.25, v_angle=1.9, c=2.2, beta=-0.7, translation=(0.3, 0.0)),
            RankOneSite(rho=0.35, v_angle=2.6, c=0.9, beta=1.3, translation=(0.0, 0.3)),
        ),
    )


def collapsing_rows_family():
    # the antidiagonal map and a second anchor with v along w: the row
    # rho w^T A (x) turns w onto the y axis, which the anchor then kills,
    # and the column (x) A v dies the same way
    return IfsFamily(
        regular=(AffineMap2(Mat2(0.0, 0.3, 0.3, 0.0), (0.0, 0.0)),),
        singular=(
            RankOneSite(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
            RankOneSite(rho=0.4, v_angle=0.0, c=0.0, beta=1.0, translation=(0.0, 1.0)),
        ),
    )


def brute_levels(fam, alpha, spec):
    """Every word's base rho |w^T A_word v| from plain 2x2 products, one
    array per length, words in itertools.product order (the last-applied
    letter first)."""
    alphas = fam.angles(alpha)
    maps = fam.instantiate(alpha)
    letters = [m.linear.as_array() for m in fam.regular] + [
        maps[fam.singular_letter(j)].linear.as_mat2().as_array()
        for j in sorted(spec.allowed)
    ]
    start, end = fam.singular[spec.start], fam.singular[spec.end]
    w_angle = start.w_angle(alphas[spec.start])
    row = start.rho * np.array([math.cos(w_angle), math.sin(w_angle)])
    v = np.array([math.cos(end.v_angle), math.sin(end.v_angle)])
    levels = []
    for k in range(spec.max_len + 1):
        bases = []
        for word in itertools.product(range(len(letters)), repeat=k):
            col = v
            for letter in reversed(word):
                col = letters[letter] @ col
            bases.append(abs(row @ col))
        levels.append(np.array(bases))
    return levels


WALK_CASES = [
    (rotation_family, 0.3, 0, 0, set()),
    (two_anchor_family, 0.3, 0, 0, {1}),
    (two_anchor_family, 0.3, 0, 1, set()),
    (two_anchor_family, 0.3, 1, 0, set()),
    (three_site_family, 0.6, 0, 0, {1, 2}),
    (three_site_family, 0.6, 1, 1, {2}),
    (three_site_family, 0.6, 0, 2, {1}),
    (three_site_family, 0.6, 2, 1, {0}),
    (antidiagonal_family, 0.0, 0, 0, set()),
    (collapsing_rows_family, 0.0, 0, 0, {1}),
]


class TestLevelWalk:
    @pytest.mark.parametrize("max_len", [0, 1, 2, 5, 6])
    @pytest.mark.parametrize("case", WALK_CASES, ids=lambda c: "%s-%d-%d-%s" % (
        c[0].__name__, c[2], c[3], "".join(map(str, sorted(c[4])))))
    def test_levels_match_plain_products(self, case, max_len):
        # every truncation's factored sum against the plain products' terms
        make, alpha, start, end, allowed = case
        fam = make()
        spec = AnchoredSumSpec(start=start, end=end, max_len=max_len, allowed=allowed)
        want = brute_levels(fam, alpha, spec)
        # exact collapses stay exact zeros, so the nonzero terms count exactly
        counts = np.cumsum([np.count_nonzero(w) for w in want]).tolist()
        for n, sums in enumerate(truncations(fam, alpha, spec)):
            assert sums(0.0)[0] == counts[n]
            for s in (0.5, 1.0, 1.7):
                exact = math.fsum(float(np.sum(w[w > 0.0] ** s)) for w in want[: n + 1])
                assert sums(s)[0] == pytest.approx(exact, rel=1e-12, abs=0.0), (n, s)

    def test_walk_buffer_holds_every_level_after_the_empty_word(self):
        # level m is the slice off[m]:off[m + 1]; word index i at that level
        # has its last-appended letter most significant, and its entries
        # and determinant are the plain products in the same float order
        rng = np.random.default_rng(2)
        mats = [Mat2(*rng.uniform(-0.4, 0.4, 4)) for _ in range(3)]
        maps = [AffineMap2(m, (0.0, 0.0)) for m in mats]
        P, dets, off = dimension._product_levels(maps, 4, SolverOptions())
        assert off == [0, 1, 4, 13, 40, 121]
        assert P.shape == (4, 121) and dets.shape == (121,)
        assert P[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0] and dets[0] == 1.0
        for m in range(1, 5):
            for i in range(3 ** m):
                A, det = Mat2.identity(), 1.0
                for letter in reversed(np.unravel_index(i, (3,) * m)):
                    A, det = A @ mats[letter], mats[letter].det() * det
                col = off[m] + i
                assert P[:, col].tolist() == [A.a11, A.a12, A.a21, A.a22]
                assert dets[col] == det

    def test_budget_trips_at_the_level_that_passes_it(self):
        # four letters and no collapsed column: a walk to length n costs
        # 1 + 4 + ... + 4^n words, counted level by level
        fam = three_site_family()
        spec = AnchoredSumSpec(start=0, end=0, max_len=5, allowed={1, 2})
        totals = list(itertools.accumulate(4 ** k for k in range(6)))
        for budget in sorted({t + d for t in totals for d in (-1, 0, 1) if t + d >= 1}):
            trips = [k for k, total in enumerate(totals) if total > budget]
            opts = SolverOptions(budget=budget)
            if not trips:
                assert anchored_norm_sum(fam, 0.6, spec, 0.5, opts) > 0.0
                continue
            message = "exceeded %d words at length %d$" % (budget, trips[0])
            with pytest.raises(BudgetError, match=message):
                anchored_norm_sum(fam, 0.6, spec, 0.5, opts)

    def test_empty_alphabet_walks_only_the_empty_word(self):
        # one site and no regular map leave no letters: every level past 0
        # is empty and costs no words, so a long walk fits a budget of 1
        site = RankOneSite(rho=0.5, v_angle=0.3, c=0.2, beta=1.0, translation=(0.0, 0.0))
        fam = IfsFamily(regular=(), singular=(site,))
        spec = anchor_spec(fam, 0, 40)
        want = brute_levels(fam, 0.0, anchor_spec(fam, 0, 0))[0][0]
        value = anchored_norm_sum(fam, 0.0, spec, 1.0, SolverOptions(budget=1))
        assert value == pytest.approx(want, rel=1e-15)

    def test_empty_alphabet_bracket_is_zero(self):
        # the letter-norm tail is exactly 0 here, and so is its bound
        site = RankOneSite(rho=0.5, v_angle=0.3, c=0.2, beta=1.0, translation=(0.0, 0.0))
        fam = IfsFamily(regular=(), singular=(site,))
        bracket = affinity_dimension(fam, 0.0, SolverOptions(depth=5))
        assert bracket.lower == 0.0 and 0.0 < bracket.upper <= 1e-9
        assert bracket.certified_upper


def exact_terms(fam, alpha, spec):
    """Every word's base rho |w^T A_word v| in 120-bit arithmetic, the
    family's float matrices and unit vectors taken as exact, one list per
    length, as brute_levels orders them."""
    maps = fam.instantiate(alpha)
    letters = [m.linear.as_array() for m in fam.regular] + [
        maps[fam.singular_letter(j)].linear.as_mat2().as_array()
        for j in sorted(spec.allowed)
    ]
    start, end = fam.singular[spec.start], fam.singular[spec.end]
    w_angle = start.w_angle(fam.angles(alpha)[spec.start])
    with mpmath.workprec(120):
        letters = [mpmath.matrix(a.tolist()) for a in letters]
        row = mpmath.mpf(start.rho) * mpmath.matrix([[math.cos(w_angle), math.sin(w_angle)]])
        v = mpmath.matrix([math.cos(end.v_angle), math.sin(end.v_angle)])
        levels = []
        for k in range(spec.max_len + 1):
            terms = []
            for word in itertools.product(range(len(letters)), repeat=k):
                col = v
                for letter in reversed(word):
                    col = letters[letter] * col
                terms.append(abs((row * col)[0]))
            levels.append(terms)
    return levels


@pytest.mark.parametrize(
    "start, end, allowed", [(0, 0, {1, 2}), (0, 2, {1}), (0, 0, set()), (0, 2, set())]
)
def test_site_sums_within_the_stated_bound(start, end, allowed):
    # F and F' of every truncation against 120-bit sums over the words; the
    # bases' own rounding, a few ulps each, is not part of the bound and
    # stays far inside it. Without sites inside the words the sums are a
    # plain _LogSum, with them a _SiteSums
    fam = three_site_family()
    spec = AnchoredSumSpec(start=start, end=end, max_len=5, allowed=allowed)
    truncated = truncations(fam, 0.6, spec)
    assert all(isinstance(sums, dimension._LogSum) == (not allowed) for sums in truncated)
    levels = exact_terms(fam, 0.6, spec)
    with mpmath.workprec(120):
        for s in (0.3, 0.81, 1.0, 1.7):
            F_exact = dF_exact = mpmath.mpf(0)
            for n, terms in enumerate(levels):
                for t in terms:
                    if t:
                        power = t ** s
                        F_exact += power
                        dF_exact += power * mpmath.log(t)
                F, dF, err, slope_err = truncated[n](s)
                assert abs(mpmath.mpf(F) - F_exact) <= err, (s, n)
                assert abs(mpmath.mpf(dF) - dF_exact) <= slope_err, (s, n)


class TestAnchoredNormSum:
    def test_scalar_family_closed_form_s1(self):
        # empty word + two powers of the 1/3 similarity, each weighted by
        # rho |<w, 3^-k v>| = (1/2) 3^-k at alpha = 0
        fam = scalar_family()
        got = anchored_norm_sum(fam, 0.0, anchor_spec(fam, 0, 2), 1.0)
        assert got == pytest.approx(0.5 * (1 + 1 / 3 + 1 / 9), abs=1e-15)

    def test_scalar_family_counts_nonzero_terms_at_s0(self):
        fam = scalar_family()
        got = anchored_norm_sum(fam, 0.0, anchor_spec(fam, 0, 2), 0.0)
        assert got == 3.0

    def test_zero_terms_stay_masked_at_s0(self):
        fam = antidiagonal_family()
        got = anchored_norm_sum(fam, 0.0, anchor_spec(fam, 0, 2), 0.0)
        # lengths 0 and 2 survive, length 1 collapses exactly
        assert got == 2.0

    def test_spec_validation(self):
        fam = scalar_family()
        with pytest.raises(ConfigError):
            AnchoredSumSpec(start=0, end=0, max_len=2, allowed=frozenset({0, 1}))

    def test_other_anchors_allowed_in_words(self):
        fam = two_anchor_family()
        spec = anchor_spec(fam, 0, 2)
        assert 1 in spec.allowed
        value = anchored_norm_sum(fam, 0.0, spec, 1.0)
        assert value > 0.0


class TestProfile:
    def test_scalar_profile_values(self):
        fam = scalar_family()
        prof = anchor_exponent_profile(fam, 0.0, 0, max_len=12)
        assert prof[0] == 0.0
        # length-1 truncation solves 2^-s + 6^-s = 1
        assert prof[1] == pytest.approx(weighted_root((0.5, 1 / 6)), abs=1e-8)
        assert prof[12] == pytest.approx(SCALAR_LIMIT, abs=1e-3)
        assert prof[12] <= SCALAR_LIMIT + 1e-12

    def test_profile_exactly_nondecreasing(self):
        fam = scalar_family()
        prof = anchor_exponent_profile(fam, 0.4, 0, max_len=10)
        assert all(b >= a for a, b in zip(prof, prof[1:]))

    def test_profile_solves_at_the_options_tol(self):
        fam = scalar_family()
        fine = anchor_exponent_profile(fam, 0.0, 0, max_len=8)
        coarse = anchor_exponent_profile(fam, 0.0, 0, max_len=8, opts=SolverOptions(tol=1e-3))
        assert coarse != fine
        assert all(f - 1e-3 <= c <= f + 1e-9 for c, f in zip(coarse, fine))

    def test_lower_is_last_profile_entry(self):
        # with two and three sites the other sites occur inside the words
        cases = [(scalar_family(), 0.0), (two_anchor_family(), 0.3), (three_site_family(), 0.6)]
        for fam, alpha in cases:
            bracket = affinity_dimension(fam, alpha, SolverOptions(depth=8))
            for j in range(fam.n_singular):
                prof = anchor_exponent_profile(fam, alpha, j, max_len=8)
                assert bracket.per_anchor[j].lower == prof[-1], (fam, j)


class TestUpper:
    def test_scalar_upper_certified_and_tight(self):
        fam = scalar_family()
        anchor = affinity_dimension(fam, 0.0, SolverOptions(depth=12)).per_anchor[0]
        upper, certified = anchor.upper, anchor.certified
        assert certified
        assert SCALAR_LIMIT <= upper + 1e-12
        assert upper == pytest.approx(SCALAR_LIMIT, abs=5e-3)

    def test_upper_is_inf_without_a_tail_bound(self):
        # theta(8) >= 1, so the tail bound never applies: each anchor's
        # upper end is inf, flagged uncertified, and the clamped
        # intersection is 1, which is certified because no clamped
        # exponent exceeds it
        fam = heavy_sites_family()
        bracket = affinity_dimension(fam, 0.0, SolverOptions(depth=8))
        assert (bracket.lower, bracket.upper) == (1.0, 1.0)
        assert bracket.certified_upper
        for j, anchor in bracket.per_anchor.items():
            profile = anchor_exponent_profile(fam, 0.0, j, max_len=8)
            assert anchor.lower == profile[-1] > 1.0
            assert anchor.upper == math.inf and not anchor.certified


class TestAffinityDimension:
    def test_scalar_bracket(self):
        bracket = affinity_dimension(scalar_family(), 0.0, SolverOptions(depth=12))
        assert bracket.lower <= SCALAR_LIMIT <= bracket.upper
        assert bracket.upper - bracket.lower <= 1e-2
        assert bracket.certified_upper
        assert bracket.depth == 12
        assert set(bracket.per_anchor) == {0}

    def test_needs_a_site(self):
        with pytest.raises(ConfigError):
            affinity_dimension(cantor_similarities(), 0.0)

    def test_regular_part_must_stay_below_one(self):
        # invertible sub-system alone has exponent > 1
        heavy = IfsFamily(
            regular=(
                AffineMap2(Mat2.diagonal(0.8, 0.75), (0.0, 0.0)),
                AffineMap2(Mat2.diagonal(0.75, 0.8), (0.2, 0.0)),
            ),
            singular=(
                RankOneSite(rho=0.5, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
            ),
        )
        with pytest.raises(ConfigError):
            affinity_dimension(heavy, 0.0)

    def test_brackets_clamp_at_one(self):
        fam = IfsFamily(
            regular=(AffineMap2(Mat2.diagonal(0.4, 0.4), (0.0, 0.0)),),
            singular=(
                RankOneSite(rho=0.75, v_angle=0.0, c=0.0, beta=1.0, translation=(1.0, 0.0)),
                RankOneSite(rho=0.75, v_angle=0.9, c=0.4, beta=1.0, translation=(0.0, 1.0)),
            ),
        )
        bracket = affinity_dimension(fam, 0.0, SolverOptions(depth=8))
        assert bracket.upper <= 1.0
        assert bracket.lower <= bracket.upper

    def test_threads_do_not_change_results(self):
        fam = two_anchor_family()
        one = affinity_dimension(fam, 0.3, SolverOptions(depth=10, threads=1))
        many = affinity_dimension(fam, 0.3, SolverOptions(depth=10, threads=4))
        assert one.lower == many.lower and one.upper == many.upper

    def test_nan_angle_rejected(self):
        # certified [0, 0.1332] when it was let through
        with pytest.raises(ConfigError, match="finite"):
            affinity_dimension(scalar_family(), math.nan)

    def test_budget_is_enforced(self):
        with pytest.raises(BudgetError):
            affinity_dimension(scalar_family(), 0.0, SolverOptions(depth=12, budget=10))


def _bracket_hex(b):
    """Every number of a DimensionBracket, floats as float.hex."""
    anchors = sorted((j, a.lower.hex(), a.upper.hex(), a.certified)
                     for j, a in (b.per_anchor or {}).items())
    reg = b.regular and (b.regular.lower.hex(), b.regular.upper.hex(), b.regular.depth)
    return b.lower.hex(), b.upper.hex(), b.depth, b.certified_upper, anchors, reg


class TestAffinityBrackets:
    @pytest.mark.parametrize(
        "make",
        [scalar_family, rotation_family, two_anchor_family, drop_family, wide_family,
         heavy_sites_family, lambda: random_admissible(3), lambda: random_admissible(8)],
        ids=["scalar", "rotation", "two_anchor", "drop", "wide", "no_regular_maps",
             "random3", "random8"],
    )
    def test_one_walk_gives_the_per_alpha_brackets(self, make):
        fam = make()
        opts = SolverOptions(depth=6)
        alphas = [k * fam.site(0).period / 5 for k in range(6)]
        got = list(_affinity_brackets(fam, iter(alphas), opts))
        assert [_bracket_hex(b) for b in got] == [
            _bracket_hex(affinity_dimension(fam, alpha, opts)) for alpha in alphas
        ]

    def test_walks_the_regular_products_once(self, monkeypatch):
        calls = []
        real = dimension._product_levels
        monkeypatch.setattr(
            dimension, "_product_levels", lambda *args: calls.append(args) or real(*args)
        )
        brackets = _affinity_brackets(rotation_family(), (0.0, 0.5, 1.0), SolverOptions(depth=6))
        assert len(list(brackets)) == 3
        assert len(calls) == 1

    def test_memory_peak_of_the_seven_map_bracket(self):
        # the largest arrays are the walk's one buffer (3.3 MiB), the site
        # table (3.0 MiB) and its work pair (4.0 MiB); each anchor's own
        # log and exp arrays (3.0 MiB) come after the work pair is freed,
        # and go before the next anchor builds its own
        fam = seven_map_family(1)
        tracemalloc.start()
        try:
            affinity_dimension(fam, 0.3, SolverOptions(depth=8, tol=1e-9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11.5 * 2 ** 20

    def test_draws_alphas_one_at_a_time(self):
        def alphas():
            yield 0.0
            yield 0.5
            raise RuntimeError("drew a third alpha")

        brackets = _affinity_brackets(scalar_family(), alphas(), SolverOptions(depth=6))
        first, second = next(brackets), next(brackets)
        assert first.lower != second.lower
        with pytest.raises(RuntimeError, match="third"):
            next(brackets)


def test_sum_without_terms_warns_on_the_dimension_logger(caplog):
    # det = 2e-12 underflows to 0 by word length 28, so the smallest
    # singular values of the deepest levels are all 0 and their sums empty
    fam = IfsFamily(regular=(AffineMap2(Mat2.diagonal(0.5, 4e-12), (0.0, 0.0)),))
    with caplog.at_level("WARNING", logger="affdim.dimension"):
        bracket = regular_dimension_bracket(fam, SolverOptions(depth=30))
    assert bracket.lower == 0.0
    warned = [r for r in caplog.records if "no nonzero terms" in r.getMessage()]
    assert warned and all(r.name == "affdim.dimension" for r in warned)
    assert all(r.levelname == "WARNING" for r in warned)


@pytest.mark.parametrize(
    "bad",
    [
        dict(depth=-1),
        dict(depth=2.5),
        dict(budget=0),
        dict(threads=0),
        dict(tol=0.0),
        dict(tol=math.nan),
        dict(tol=math.inf),
    ],
)
def test_solver_options_validated(bad):
    with pytest.raises(ConfigError, match="solver settings out of range"):
        SolverOptions(**bad)


def test_budget_rule_shared_by_the_product_walk():
    # 2 invertible maps and 1 rank-one map; a walk to length n costs
    # m + m^2 + ... + m^n words
    fam = IfsFamily(
        regular=(
            AffineMap2(Mat2(0.3, 0.1, -0.05, 0.25), (0.1, 0.0)),
            AffineMap2(Mat2.scaled_rotation(0.35, 0.8), (0.0, 0.1)),
        ),
        singular=(
            RankOneSite(rho=0.45, v_angle=0.4, c=0.3, beta=1.0, translation=(0.0, 0.0)),
        ),
    )
    maps = fam.instantiate(0.6)
    m = len(maps)
    for n in (1, 2, 3):
        words = sum(m ** k for k in range(1, n + 1))
        for budget in (words - 1, words, words + 1):
            opts = SolverOptions(budget=budget)
            if words > budget:
                with pytest.raises(BudgetError):
                    partition_sum(maps, n, 0.5, opts)
            else:
                assert partition_sum(maps, n, 0.5, opts) == partition_sum(maps, n, 0.5)

    r = fam.n_regular
    for budget in range(1, 2 * r ** 4):
        opts = SolverOptions(depth=4, budget=budget)
        fits = [d for d in range(1, 5) if sum(r ** k for k in range(1, d + 1)) <= budget]
        if not fits:
            with pytest.raises(BudgetError):
                regular_dimension_bracket(fam, opts)
        else:
            assert regular_dimension_bracket(fam, opts).depth == max(fits)


def collapse_alphabet():
    # an invertible map, a generic rank-one map and two composites of the
    # invertible map A and a rank-one map S whose row is perpendicular to
    # its column: A S A, and S S, which collapses to compose_linear's
    # dense zero map
    base = [
        AffineMap2(Mat2(0.3, 0.1, -0.05, 0.25), (0.1, 0.0)),
        AffineMap2(RankOneFactor(0.45, 0.3 + math.pi / 2, 0.3), (0.0, 0.2)),
        AffineMap2(RankOneFactor(0.35, 2.6, 0.9), (0.0, 0.5)),
    ]
    maps = [base[0], compose_word(base, (1, 1)), compose_word(base, (0, 1, 0)), base[2]]
    assert maps[1].linear == Mat2(0.0, 0.0, 0.0, 0.0)
    return maps, 4


def sites_alphabet():
    return [
        AffineMap2(RankOneFactor(0.4, 0.4, 0.7), (0.0, 0.0)),
        AffineMap2(RankOneFactor(0.3, 1.1, 2.0), (0.5, 0.2)),
        AffineMap2(RankOneFactor(0.35, 2.6, 0.9), (0.0, 0.5)),
    ], 4


def grouping_alphabet():
    # the demo family's reduced three-letter grouping: one invertible
    # composite and six rank-one ones
    fam = drop_family()
    maps = exceptional_family(fam, find_common_fixed_point_angle(fam, 0, 0), 0, 0).maps
    assert sum(isinstance(m.linear, Mat2) for m in maps) == 1
    return maps, 3


FACTORED_ALPHABETS = {
    "collapse": collapse_alphabet,
    "sites": sites_alphabet,
    "grouping": grouping_alphabet,
}


class TestPartitionSum:
    def brute(self, maps, n, s):
        # words through a rank-one letter are exactly rank deficient;
        # numpy's SVD of the composed matrix cannot see that, so the
        # small singular value is forced to zero for those words
        total = 0.0
        for word in itertools.product(range(len(maps)), repeat=n):
            linear = compose_word(maps, word).linear
            arr = (
                linear.as_array()
                if isinstance(linear, Mat2)
                else linear.as_mat2().as_array()
            )
            if any(isinstance(maps[letter].linear, RankOneFactor) for letter in word):
                a1 = float(np.linalg.norm(arr, 2))
                if s <= 0.0:
                    total += 1.0
                elif s <= 1.0:
                    total += a1 ** s
                continue
            total += brute_svf(arr, s)
        return total

    def test_matches_brute_force_on_mixed_family(self):
        fam = IfsFamily(
            regular=(
                AffineMap2(Mat2(0.3, 0.1, -0.05, 0.25), (0.1, 0.0)),
                AffineMap2(Mat2.scaled_rotation(0.35, 0.8), (0.0, 0.1)),
            ),
            singular=(
                RankOneSite(rho=0.45, v_angle=0.4, c=0.3, beta=1.0, translation=(0.0, 0.0)),
            ),
        )
        maps = fam.instantiate(0.6)
        for n in (1, 2, 4):
            for s in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
                got = partition_sum(maps, n, s)
                want = self.brute(maps, n, s)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

        # the dense rho v w^T of these sites has a rounding-noise det, but
        # a rank-one letter is never multiplied out, so no word through
        # one counts past s = 1
        sites = IfsFamily(
            regular=(),
            singular=(
                RankOneSite(rho=0.4, v_angle=0.4, c=0.3, beta=1.0, translation=(0.0, 0.0)),
                RankOneSite(rho=0.3, v_angle=1.1, c=0.5, beta=1.0, translation=(0.5, 0.2)),
            ),
        )
        maps = sites.instantiate(0.6)
        assert all(m.linear.as_mat2().det() != 0.0 for m in maps)
        for n in (1, 2, 3, 4):
            assert partition_sum(maps, n, 1.5) == 0.0
            want = self.brute(maps, n, 0.5)
            assert partition_sum(maps, n, 0.5) == pytest.approx(want, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("alphabet", sorted(FACTORED_ALPHABETS))
    def test_matches_brute_force_on_factored_alphabets(self, alphabet):
        maps, depth = FACTORED_ALPHABETS[alphabet]()
        for n in range(1, depth + 1):
            # s = 0 counts every word, the exactly collapsed ones too
            assert partition_sum(maps, n, 0.0) == len(maps) ** n
            for s in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0, 2.5):
                want = self.brute(maps, n, s)
                got = partition_sum(maps, n, s)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (n, s)

    def test_smallest_singular_value_does_not_cancel(self):
        # diagonal words: a2 is the product of the second entries, about
        # 1e-7 of a1 at length 12, where a1 - a2 kept no digit of it
        maps = [
            AffineMap2(Mat2.diagonal(0.5, 0.02), (0.0, 0.0)),
            AffineMap2(Mat2.diagonal(0.45, 0.03), (0.5, 0.0)),
        ]
        for n in (10, 12):
            a1 = a2 = np.ones(1)
            for _ in range(n):
                a1 = np.multiply.outer(a1, [0.5, 0.45]).ravel()
                a2 = np.multiply.outer(a2, [0.02, 0.03]).ravel()
            want = float(np.sum(a1 * a2 ** 0.5))
            assert partition_sum(maps, n, 1.5) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_s0_counts_every_word(self):
        maps = scalar_family().instantiate()
        assert partition_sum(maps, 3, 0.0) == 8.0

    def test_validation(self):
        maps = scalar_family().instantiate()
        with pytest.raises(ConfigError):
            partition_sum(maps, 0, 1.0)
        with pytest.raises(ConfigError):
            partition_sum(maps, 2, -0.5)
        # a NaN exponent returned nan
        with pytest.raises(ConfigError):
            partition_sum(maps, 4, math.nan)
        fam = scalar_family()
        with pytest.raises(ConfigError):
            anchored_norm_sum(fam, 0.0, anchor_spec(fam, 0, 2), math.nan)

    @pytest.mark.parametrize("n", [0, 2.5, 2.0, True])
    def test_word_lengths_are_integer_counts(self, n):
        # n < 1 raised a bare ValueError, 2.5 a bare TypeError from a list
        # index, and True was taken as 1
        maps = scalar_family().instantiate()
        with pytest.raises(ConfigError, match="integer word length"):
            partition_sum(maps, n, 1.0)
        with pytest.raises(ConfigError, match="integer word length"):
            pressure_upper_root(maps, n)
        if n:
            # max_len=2.5 failed later with a TypeError, and True counted as 1
            with pytest.raises(ConfigError, match="max_len"):
                AnchoredSumSpec(start=0, end=0, max_len=n)

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.5, 2.5])
    def test_sums_need_a_map(self, s, caplog):
        # an empty list gave 0.0 at every s, and its pressure root logged
        # "sum has no nonzero terms" and returned 0.0
        with pytest.raises(ConfigError, match="at least one map"):
            partition_sum([], 2, s)
        with pytest.raises(ConfigError, match="at least one map"):
            pressure_upper_root([], 2)
        assert not caplog.records


def exact_a1(maps, n):
    """a1 of every word of length n over maps with a nonzero product, in
    120-bit arithmetic: each letter's float entries, or its float rho and
    unit vectors, taken as exact and multiplied out."""
    out = []
    with mpmath.workprec(120):
        letters = []
        for m in maps:
            if isinstance(m.linear, Mat2):
                letters.append(mpmath.matrix(m.linear.as_array().tolist()))
            else:
                v, w = (mpmath.matrix(x.tolist()) for x in (m.linear.v(), m.linear.w()))
                letters.append(mpmath.mpf(m.linear.rho) * v * w.T)
        for word in itertools.product(range(len(maps)), repeat=n):
            M = letters[word[0]]
            for letter in word[1:]:
                M = M * letters[letter]
            frob = sum(x * x for x in M)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            a1 = mpmath.sqrt((frob + mpmath.sqrt(max(frob * frob - 4 * det * det, 0))) / 2)
            if a1:
                out.append(a1)
    return out


@pytest.mark.parametrize("alphabet", sorted(FACTORED_ALPHABETS))
def test_level_sums_within_the_stated_bound(alphabet):
    # F and F' of the factored level sum on [0, 1] against 120-bit sums of
    # a1^s over the words; the bases' own rounding, a few ulps each, is
    # not part of the bound and stays far inside it
    maps, depth = FACTORED_ALPHABETS[alphabet]()
    for n in range(1, min(depth, 3) + 1):
        sums = dimension._level_sums(maps, n, SolverOptions())[2]
        assert isinstance(sums, dimension._SiteSums)
        bases = exact_a1(maps, n)
        with mpmath.workprec(120):
            for s in (0.0, 0.3, 0.5, 0.81, 1.0):
                F_exact = mpmath.fsum(b ** s for b in bases)
                dF_exact = mpmath.fsum(b ** s * mpmath.log(b) for b in bases)
                F, dF, err, slope_err = sums(s)
                assert abs(mpmath.mpf(F) - F_exact) <= err, (n, s)
                assert abs(mpmath.mpf(dF) - dF_exact) <= slope_err, (n, s)


def hexes(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize(
    "make",
    [scalar_family, rotation_family, two_anchor_family, drop_family, wide_family,
     heavy_sites_family, lambda: seven_map_family(1)],
)
def test_value_paths_equal_the_full_evaluation(make):
    # the sign tests read (F, err) from f(s, False): the bits of entries 0
    # and 2 of a full evaluation f(s), for every anchored truncation (a plain
    # _LogSum without sites inside the words, else a _SiteSums over a
    # grouped _LogSum, whose group sums must match too) and for the
    # exact-length level sums through rank-one letters
    fam = make()
    sums = [f for j in range(fam.n_singular) for f in truncations(fam, 0.4, anchor_spec(fam, j, 5))]
    sums.append(dimension._level_sums(fam.instantiate(0.4), 3, SolverOptions())[2])
    rng = np.random.default_rng(3)
    logs = -rng.exponential(2.0, 500)
    sums.append(dimension._LogSum(logs, rng.normal(size=500)))
    assert any(isinstance(f, dimension._SiteSums) for f in sums)
    for f in sums:
        for s in (0.0, 0.3, 0.81, 1.0, 1.7, 8.0):
            F, _, err, _ = f(s)
            assert hexes(f(s, False)) == hexes((F, err)), (f, s)
            if isinstance(f, dimension._SiteSums):
                want = f.terms.groups(s)[0]
                assert hexes(f.terms.groups(s, slopes=False).ravel()) == hexes(want)


def plain_by_length(groups, values, slopes, e, q):
    """Plain-float reference of _SiteSums._by_length: one extension per
    length k and target t, a segment of length k from start to t and
    then, for each prefix length L = 1..k and each site letter b in
    turn, the prefix's sum times the segment of length k - L from b to
    t, slopes by the product rule; a missing group is 0."""
    n = max(m for m, _, _ in groups)
    S = {g: x for g, x in zip(groups, values)}
    D = {g: x for g, x in zip(groups, slopes)}
    P, dP, E, dE = [], [], [], []

    def extend(k, t):
        x, dx = S.get((k, 0, t), 0.0), D.get((k, 0, t), 0.0)
        for L in range(1, len(P) + 1):
            for b in range(1, q + 1):
                p, dp = P[L - 1][b - 1], dP[L - 1][b - 1]
                s, ds = S.get((k - L, b, t), 0.0), D.get((k - L, b, t), 0.0)
                x += p * s
                dx += dp * s + p * ds
        return x, dx

    for k in range(n + 1):
        x, dx = extend(k, e)
        E.append(x)
        dE.append(dx)
        if k < n:
            ends = [extend(k, b) for b in range(1, q + 1)]
            P.append([x for x, _ in ends])
            dP.append([dx for _, dx in ends])
    return E, dE


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_by_length_matches_the_plain_program(q):
    # random group caps over the start, the q sites and an end that is
    # the start or its own node; some group sums exactly 0, slopes < 0
    rng = np.random.default_rng(q)
    for n in range(11):
        for e in (0, q + 1):
            width = q + 1 + (e > 0)
            caps = rng.integers(-1, n + 1, size=(width, width))
            caps[0, e] = n
            groups = [(m, i, k) for m in range(n + 1) for (i, k), cap in np.ndenumerate(caps) if m <= cap]
            values = rng.uniform(0.0, 2.0, len(groups)) * (rng.random(len(groups)) > 0.2)
            slopes = -rng.uniform(0.0, 3.0, len(groups)) * (values > 0.0)
            sums = dimension._SiteSums(None, groups, e, q)
            E, dE = sums._by_length(values, slopes)
            want_E, want_dE = plain_by_length(groups, values.tolist(), slopes.tolist(), e, q)
            assert hexes(E) == hexes(want_E) and hexes(dE) == hexes(want_dE), (n, e)
            alone, none = sums._by_length(values)
            assert hexes(alone) == hexes(want_E) and none is None


class TestPressureRoot:
    def test_similarities_exact_at_every_depth(self):
        maps = cantor_similarities().instantiate()
        target = math.log(2) / math.log(3)
        for n in (1, 3, 6):
            assert pressure_upper_root(maps, n) == pytest.approx(target, abs=1e-8)

    def test_single_map_root_zero(self):
        maps = [AffineMap2(Mat2.diagonal(0.3, 0.3), (0.0, 0.0))]
        assert pressure_upper_root(maps, 4) == 0.0

    def test_clamped_at_two(self):
        maps = [
            AffineMap2(Mat2.diagonal(0.9, 0.9), (0.0, 0.0)),
            AffineMap2(Mat2.diagonal(0.9, 0.9), (0.1, 0.0)),
        ]
        assert pressure_upper_root(maps, 3) == 2.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_tol_checked_like_solver_options(self, tol):
        # nan and inf returned 1.0, and -1 was accepted
        maps = cantor_similarities().instantiate()
        with pytest.raises(ConfigError, match="solver settings out of range"):
            pressure_upper_root(maps, 4, tol)


class TestRegularBracket:
    def test_cantor_similarities_collapse(self):
        bracket = regular_dimension_bracket(cantor_similarities(), SolverOptions(depth=12))
        target = math.log(2) / math.log(3)
        assert bracket.lower == pytest.approx(target, abs=1e-6)
        assert bracket.upper == pytest.approx(target, abs=1e-6)
        assert bracket.lower <= bracket.upper
        assert bracket.certified_upper

    def test_rotation_pair_exact(self):
        fam = IfsFamily(regular=rotation_family().regular)
        bracket = regular_dimension_bracket(fam, SolverOptions(depth=10))
        target = math.log(2) / math.log(10 / 3)
        assert bracket.lower == pytest.approx(target, abs=1e-8)
        assert bracket.upper == pytest.approx(target, abs=1e-8)

    def test_generic_family_ordered_bracket(self):
        fam = IfsFamily(
            regular=(
                AffineMap2(Mat2(0.3, 0.12, -0.04, 0.22), (0.0, 0.0)),
                AffineMap2(Mat2(0.25, -0.08, 0.1, 0.3), (0.1, 0.0)),
            ),
            singular=(),
        )
        bracket = regular_dimension_bracket(fam, SolverOptions(depth=10))
        assert 0.0 < bracket.lower <= bracket.upper < 2.0

    def test_lower_end_from_accurate_smallest_singular_values(self):
        # upper triangular letters: a word's determinant is the product of
        # its diagonal entries, a2 = |det| / a1 is exact up to rounding,
        # and the lower end is the largest level root of sum a2^s = 1
        from scipy.optimize import brentq

        letters = np.array([[[0.5, 0.0], [0.0, 0.001]], [[0.3, 0.1], [0.0, 0.0015]]])
        fam = IfsFamily(
            regular=tuple(
                AffineMap2(Mat2.from_array(a), (0.5 * k, 0.0)) for k, a in enumerate(letters)
            ),
            singular=(),
        )
        prods, roots = letters, []
        for _ in range(14):
            a1 = np.linalg.svd(prods, compute_uv=False)[:, 0]
            a2 = np.abs(prods[:, 0, 0] * prods[:, 1, 1]) / a1
            roots.append(brentq(lambda s: np.sum(a2 ** s) - 1.0, 0.0, 2.0, xtol=1e-15))
            prods = np.einsum("pij,ljk->plik", prods, letters).reshape(-1, 2, 2)
        want = max(roots)
        got = regular_dimension_bracket(fam, SolverOptions(depth=14)).lower
        assert want - 1e-8 <= got <= want + 1e-12

    def test_depth_guard(self):
        with pytest.raises(ConfigError):
            regular_dimension_bracket(cantor_similarities(), SolverOptions(depth=0))


class TestRandomFamilies:
    @pytest.mark.parametrize("seed", range(6))
    def test_bracket_is_consistent(self, seed):
        fam = random_admissible(seed)
        bracket = affinity_dimension(fam, 0.25, SolverOptions(depth=9))
        assert 0.0 <= bracket.lower <= bracket.upper <= 1.0
        for anchor in bracket.per_anchor.values():
            assert anchor.lower >= 0.0

    @pytest.mark.parametrize("seed", (3, 11))
    def test_profiles_monotone(self, seed):
        fam = random_admissible(seed)
        for j in range(fam.n_singular):
            prof = anchor_exponent_profile(fam, 0.1, j, max_len=10)
            assert all(b >= a for a, b in zip(prof, prof[1:]))
