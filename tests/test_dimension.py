import itertools
import logging
import math

import numpy as np
import pytest

from affdim import (
    AffineMap2,
    AnchoredSumSpec,
    IfsFamily,
    Mat2,
    RankOneSite,
    SolverOptions,
    affinity_dimension,
    anchor_exponent_profile,
    anchored_norm_sum,
    partition_sum,
    pressure_upper_root,
    regular_dimension_bracket,
)
from affdim import dimension
from affdim.dimension import _anchored_levels
from affdim.errors import BudgetError, ConfigError
from affdim.ifs import compose_word

from families import (
    brute_svf,
    cantor_similarities,
    random_admissible,
    rotation_family,
    scalar_family,
    two_anchor_family,
    weighted_root,
)

SCALAR_LIMIT = weighted_root((0.5, 1.0 / 3.0))  # root of 2^-s + 3^-s = 1


def anchor_spec(fam, j, max_len):
    # start/end and allowed use site indices, not global letters
    allowed = frozenset(range(fam.n_singular)) - {j}
    return AnchoredSumSpec(start=j, end=j, max_len=max_len, allowed=allowed)


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
    letter first). With h = ceil(max_len / 2), a word l_k...l_1 is left
    out when one of its column halves A_{l_m}...A_{l_1} v with m <= h or
    its row halves rho w^T A_{l_k}...A_{l_j} with j > h is exactly zero:
    the walk drops such columns and rows."""
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
    half = (spec.max_len + 1) // 2
    levels = []
    for k in range(spec.max_len + 1):
        bases = []
        for word in itertools.product(range(len(letters)), repeat=k):
            col, kept = v, True
            for m, letter in enumerate(reversed(word), start=1):
                col = letters[letter] @ col
                kept = kept and (m > half or bool(col.any()))
            head = row
            for letter in word[: max(k - half, 0)]:
                head = head @ letters[letter]
                kept = kept and bool(head.any())
            if kept:
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
        make, alpha, start, end, allowed = case
        fam = make()
        spec = AnchoredSumSpec(start=start, end=end, max_len=max_len, allowed=allowed)
        got, norms, pruned = _anchored_levels(fam, alpha, spec, SolverOptions())
        want = brute_levels(fam, alpha, spec)
        assert len(norms) == fam.n_regular + len(allowed)
        assert pruned.size == 0
        assert len(got) == max_len + 1
        for k, (g, w) in enumerate(zip(got, want)):
            assert g.shape == w.shape, k
            # exact collapses stay exact zeros, in the same places
            np.testing.assert_array_equal(g == 0.0, w == 0.0)
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-16)

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

    @pytest.mark.parametrize("prune", [3.0, 40.0, 100.0, 1000.0])
    def test_pruned_subtrees_keep_the_bracket_certified(self, prune):
        # two letters at depth 8: at s = 0 a word of length k bounds its
        # 2^(9-k) - 1 descendants, so every prune > 1 drops the deepest
        # rows, and prune > 31 whole column levels (they end at k = 4);
        # the mass of both enters the tail
        fam = rotation_family()
        full = affinity_dimension(fam, 0.0, SolverOptions(depth=8))
        pruned = affinity_dimension(fam, 0.0, SolverOptions(depth=8, prune=prune))
        _, _, mass = _anchored_levels(
            fam, 0.0, anchor_spec(fam, 0, 8), SolverOptions(prune=prune)
        )
        assert mass.size > 0
        assert pruned.certified_upper
        assert pruned.lower <= full.lower <= pruned.upper

    def test_pruned_rows_cost_no_words(self):
        # prune=7 at depth 8 drops every word of length 7 (bound 3), so
        # the walk counts 1 + 2 + ... + 128 = 255 words and stops there
        fam = rotation_family()
        spec = anchor_spec(fam, 0, 8)
        levels, _, mass = _anchored_levels(
            fam, 0.0, spec, SolverOptions(prune=7.0, budget=255)
        )
        assert [b.size for b in levels] == [1, 2, 4, 8, 16, 32, 64, 0, 0]
        assert mass.size == 128
        with pytest.raises(BudgetError, match="exceeded 254 words at length 7$"):
            _anchored_levels(fam, 0.0, spec, SolverOptions(prune=7.0, budget=254))

    @pytest.mark.parametrize("s, prune, words", [(5.0, 1e-18, 255), (0.0, 1e30, 1)])
    def test_walk_stops_once_the_columns_are_pruned_away(
        self, monkeypatch, s, prune, words
    ):
        # at s = 5 every column of the rotation family is pruned by length
        # 8, at prune=1e30 the first one already; the rows of lengths
        # 21..40 must then never be built, and the sum is that of the
        # surviving words up to length 7 (pruned subtrees add < 1e-15)
        built = []

        def spy(*args):
            out = outer_sum(*args)
            built.append(out.size)
            return out

        outer_sum = dimension._outer_sum
        monkeypatch.setattr(dimension, "_outer_sum", spy)
        fam = rotation_family()
        spec = anchor_spec(fam, 0, 40)
        opts = SolverOptions(prune=prune, budget=words)
        value = anchored_norm_sum(fam, 0.3, spec, s, opts)
        assert sum(built) <= 3 * words
        if prune < 1.0:
            want = brute_levels(fam, 0.3, anchor_spec(fam, 0, 7))
            assert value == pytest.approx(sum((b ** s).sum() for b in want), abs=1e-15)
        else:
            assert value == 0.0


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

    def test_lower_is_last_profile_entry(self):
        fam = scalar_family()
        prof = anchor_exponent_profile(fam, 0.0, 0, max_len=8)
        bracket = affinity_dimension(fam, 0.0, SolverOptions(depth=8))
        assert bracket.per_anchor[0].lower == prof[-1]


class TestUpper:
    def test_scalar_upper_certified_and_tight(self):
        fam = scalar_family()
        anchor = affinity_dimension(fam, 0.0, SolverOptions(depth=12)).per_anchor[0]
        upper, certified = anchor.upper, anchor.certified
        assert certified
        assert SCALAR_LIMIT <= upper + 1e-12
        assert upper == pytest.approx(SCALAR_LIMIT, abs=5e-3)

    @pytest.mark.parametrize("prune", [3.0, 100.0])
    def test_pruned_mass_keeps_the_upper_certified(self, prune):
        # pruning drops real subtrees at these thresholds; without their
        # bound in the tail the "certified" upper was 0.787844 at 3.0 and
        # 0.1332 at 100, both below the exponent
        bracket = affinity_dimension(
            scalar_family(), 0.0, SolverOptions(depth=12, prune=prune)
        )
        assert bracket.certified_upper
        assert bracket.lower <= SCALAR_LIMIT <= bracket.upper

    def test_all_terms_pruned_is_logged_as_pruning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="affdim.dimension"):
            affinity_dimension(scalar_family(), 0, SolverOptions(depth=12, prune=100))
        messages = [r.getMessage() for r in caplog.records]
        assert any("pruned" in m and "prune=100" in m for m in messages), messages
        assert not any("no nonzero terms" in m for m in messages), messages


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
        dict(prune=-1.0),
        dict(prune=math.nan),
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


class TestPartitionSum:
    def brute(self, maps, n, s, n_regular):
        # words touching a rank-one letter are exactly rank deficient;
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
            if any(letter >= n_regular for letter in word):
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
                want = self.brute(maps, n, s, fam.n_regular)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

        # the dense rho v w^T of these sites has a rounding-noise det, so
        # a rank-one letter's det must be taken as exactly 0 instead
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
            want = self.brute(maps, n, 0.5, 0)
            assert partition_sum(maps, n, 0.5) == pytest.approx(want, rel=1e-12, abs=1e-13)

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
        with pytest.raises(ValueError):
            partition_sum(maps, 0, 1.0)
        with pytest.raises(ValueError):
            partition_sum(maps, 2, -0.5)


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
