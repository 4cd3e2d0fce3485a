import itertools
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from affdim import (
    AffineMap2,
    IfsFamily,
    LineMap,
    Mat2,
    RankOneSite,
    SolverOptions,
    commutation_residual,
    dimension_drop,
    exceptional_family,
    find_common_fixed_point_angle,
    fixed_point_gap,
    hausdorff_distance,
    invariance_clouds,
    line_map,
    pressure_upper_root,
    translation_series_gap,
)
from affdim.errors import (
    AffdimError,
    BudgetError,
    ConfigError,
    ExcludedParameterError,
    IdentityMismatchError,
    NoSignChangeError,
)
from affdim import exceptional
from affdim.exceptional import _gaps
from affdim.ifs import compose_word

from families import (
    drop_family,
    heavy_sites_family,
    random_admissible,
    rotation_family,
    scalar_family,
    two_anchor_family,
    wide_family,
)


class TestLineMap:
    def test_call_and_fixed_point(self):
        g = LineMap(0.5, 1.0)
        assert g(0.0) == 1.0
        assert g(2.0) == 2.0
        assert g.fixed_point() == pytest.approx(2.0)

    def test_expanding_map_has_no_fixed_point(self):
        with pytest.raises(ExcludedParameterError):
            LineMap(1.0, 0.3).fixed_point()
        with pytest.raises(ExcludedParameterError):
            LineMap(-1.2, 0.3).fixed_point()

    def test_closed_forms_on_scalar_family(self):
        # site: rho = 1/2, v = w = e1, t = (1, 0); invertible letter x/3
        fam = scalar_family()
        g_empty = line_map(fam, 0, (), 0.0)
        assert (g_empty.lam, g_empty.offset) == pytest.approx((0.5, 0.5))
        g_i = line_map(fam, 0, (0,), 0.0)
        assert (g_i.lam, g_i.offset) == pytest.approx((1 / 6, 1 / 6))
        assert g_empty.fixed_point() == pytest.approx(1.0)
        assert g_i.fixed_point() == pytest.approx(0.2)

    def test_validation(self):
        fam = scalar_family()
        with pytest.raises(ConfigError):
            line_map(fam, 2, (), 0.0)
        # the word may not pass through the anchoring site
        with pytest.raises(ConfigError):
            line_map(fam, 0, (fam.singular_letter(0),), 0.0)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="angle parameters must be finite"):
                line_map(fam, 0, (0,), alpha)

    def test_plain_float_products(self):
        # lam and offset are rho (w . x) written out in floats; np.dot
        # fused a multiply-add and changed the last bits of about a
        # quarter of these maps
        rng = np.random.default_rng(2021)
        regular = []
        while len(regular) < 3000:
            a = Mat2(*rng.uniform(-0.4, 0.4, 4).tolist())
            if abs(a.det()) > 1e-6:
                regular.append(AffineMap2(a, rng.uniform(-1.0, 1.0, 2)))
        site = RankOneSite(rho=0.6, v_angle=0.7, c=0.2, beta=1.3, translation=(0.3, -0.4))
        fam = IfsFamily(regular=tuple(regular), singular=(site,))
        v0, v1 = math.cos(site.v_angle), math.sin(site.v_angle)
        t0, t1 = site.translation.tolist()
        mismatches = 0
        for k, alpha in enumerate(rng.uniform(-3.0, 3.0, len(regular)).tolist()):
            a, (b0, b1) = regular[k].linear, regular[k].translation.tolist()
            x0, x1 = a.a11 * v0 + a.a12 * v1, a.a21 * v0 + a.a22 * v1
            y0, y1 = a.a11 * t0 + a.a12 * t1 + b0, a.a21 * t0 + a.a22 * t1 + b1
            w0, w1 = math.cos(site.w_angle(alpha)), math.sin(site.w_angle(alpha))
            g, g_empty = line_map(fam, 0, (k,), alpha), line_map(fam, 0, (), alpha)
            mismatches += (g.lam, g.offset) != (
                site.rho * (w0 * x0 + w1 * x1), site.rho * (w0 * y0 + w1 * y1)
            )
            mismatches += (g_empty.lam, g_empty.offset) != (
                site.rho * (w0 * v0 + w1 * v1), site.rho * (w0 * t0 + w1 * t1)
            )
        assert mismatches == 0


class TestFixedPointGap:
    def test_scalar_value(self):
        assert fixed_point_gap(scalar_family(), 0, 0, 0.0) == pytest.approx(0.8)

    def test_vanishes_at_coincidence(self):
        fam = drop_family()
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        assert abs(fixed_point_gap(fam, 0, 0, alpha)) <= 1e-12


def _reference_gap(fam, j, i, alpha):
    """fixed_point_gap in 60-digit arithmetic from the same float inputs;
    None where a line map has no attracting fixed point."""
    mpf, cos, sin = mpmath.mpf, mpmath.cos, mpmath.sin

    def row(site, x):
        angle = mpf(site.c) + mpf(site.beta) * mpf(alpha)
        return mpf(site.rho) * (cos(angle) * x[0] + sin(angle) * x[1])

    def image(x, moved):
        # letter i applied to x, with its translation when moved
        if i < fam.n_regular:
            m = fam.regular[i]
            a = m.linear
            out = (mpf(a.a11) * x[0] + mpf(a.a12) * x[1], mpf(a.a21) * x[0] + mpf(a.a22) * x[1])
        else:
            m = fam.singular[i - fam.n_regular]
            s = row(m, x)
            out = (s * cos(mpf(m.v_angle)), s * sin(mpf(m.v_angle)))
        return tuple(c + mpf(t) for c, t in zip(out, m.translation)) if moved else out

    with mpmath.workdps(60):
        site = fam.site(j)
        v = (cos(mpf(site.v_angle)), sin(mpf(site.v_angle)))
        t = tuple(mpf(c) for c in site.translation)
        fixed = []
        for x, y in ((v, t), (image(v, False), image(t, True))):
            lam, offset = row(site, x), row(site, y)
            if abs(lam) >= 1:
                return None
            fixed.append(offset / (1 - lam))
        return float(fixed[0] - fixed[1])


@pytest.mark.parametrize(
    "make",
    [scalar_family, rotation_family, drop_family, wide_family, two_anchor_family,
     lambda: random_admissible(2), lambda: random_admissible(11)],
    ids=["scalar", "rotation", "drop", "wide", "two_anchor", "random2", "random11"],
)
def test_gap_grid_makes_the_scalar_grid_decisions(make):
    # the reference is the gap in 60-digit arithmetic: the grid's values
    # must match it, and every exclusion, sign and <= tol test the angle
    # search makes must come out the same wherever the reference is not
    # within 1e-14 of the test's threshold
    fam = make()
    for j in range(fam.n_singular):
        for i in set(range(fam.n_maps)) - {fam.singular_letter(j)}:
            grid = [k * fam.site(j).period / 256 for k in range(257)]
            for alpha, g in zip(grid, _gaps(fam, j, i, np.array(grid)).tolist()):
                ref = _reference_gap(fam, j, i, alpha)
                if ref is None:
                    assert math.isnan(g)
                    continue
                assert math.isclose(g, ref, rel_tol=1e-12, abs_tol=1e-14)
                if abs(ref) > 1e-14:
                    assert (g > 0) == (ref > 0)
                if abs(abs(ref) - 1e-12) > 1e-14:
                    assert (abs(g) <= 1e-12) == (abs(ref) <= 1e-12)


class TestFindAngle:
    def test_scalar_family_hits_exact_angle(self):
        alpha = find_common_fixed_point_angle(scalar_family(), 0, 0)
        assert alpha == pytest.approx(math.pi / 2, abs=1e-12)
        assert commutation_residual(scalar_family(), alpha, 0, 0) == 0.0

    def test_drop_family_residual(self):
        fam = drop_family()
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        assert commutation_residual(fam, alpha, 0, 0) <= 1e-10

    def test_rotation_linear_part_cannot_commute(self):
        # a root of the gap exists, but rotations have no real invariant
        # row direction, so the three-letter words never coincide
        with pytest.raises(IdentityMismatchError):
            find_common_fixed_point_angle(rotation_family(), 0, 0)

    def test_nonnegative_gap_never_crosses(self):
        # t_j parallel to v and t_i = (1 - c) t_j make the gap a square:
        # it only touches zero, and the touch point misses the grid
        fam = IfsFamily(
            regular=(AffineMap2(Mat2.diagonal(0.3, 0.3), (0.7, 0.0)),),
            singular=(
                RankOneSite(
                    rho=0.5, v_angle=0.0, c=0.3, beta=1.0, translation=(1.0, 0.0)
                ),
            ),
        )
        with pytest.raises(NoSignChangeError):
            find_common_fixed_point_angle(fam, 0, 0)

    def test_validation(self):
        fam = scalar_family()
        with pytest.raises(ConfigError):
            find_common_fixed_point_angle(fam, 0, fam.singular_letter(0))

    def test_one_gap_evaluation_per_halving(self, monkeypatch):
        # every live cell halves in the same array call, and the scalar
        # line maps are never consulted
        calls = []
        gaps = exceptional._gaps

        def counted(fam, j, i, alphas):
            calls.append(alphas.size)
            return gaps(fam, j, i, alphas)

        def scalar(*args):
            raise AssertionError("scalar line map called")

        monkeypatch.setattr(exceptional, "_gaps", counted)
        monkeypatch.setattr(exceptional, "line_map", scalar)
        monkeypatch.setattr(exceptional, "fixed_point_gap", scalar)
        find_common_fixed_point_angle(drop_family(), 0, 0)
        assert calls[0] == exceptional._GRID_SIZE + 1
        assert 2 <= len(calls) <= 1 + exceptional._MAX_BISECT
        assert all(0 < n < exceptional._GRID_SIZE for n in calls[1:])


def _reference_angle(fam, j, i):
    """The per-cell scalar search the lockstep one replaced: scalar gaps
    on the 257-point grid, then each sign-change cell bisected on its
    own with 200 steps at most."""
    period = fam.site(j).period

    def gap(a):
        try:
            return fixed_point_gap(fam, j, i, a)
        except ExcludedParameterError:
            return None

    grid = [k * period / 256 for k in range(257)]
    values = [gap(a) for a in grid]
    candidates = []
    for k in range(256):
        lo, hi = grid[k], grid[k + 1]
        glo, ghi = values[k], values[k + 1]
        if glo is None or ghi is None:
            continue
        if abs(glo) <= 1e-12:
            candidates.append(lo)
            continue
        if glo * ghi >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gmid = gap(mid)
            if gmid is None:
                break
            if abs(gmid) <= 1e-12:
                candidates.append(mid)
                break
            if glo * gmid < 0.0:
                hi = mid
            else:
                lo, glo = mid, gmid
    if not candidates:
        raise NoSignChangeError("no root")
    residuals = [commutation_residual(fam, a, j, i) for a in candidates]
    for alpha, residual in zip(candidates, residuals):
        if residual <= 1e-10:
            return alpha
    raise IdentityMismatchError("no coincidence")


def _outcome(search, fam, j, i):
    try:
        return search(fam, j, i).hex()
    except AffdimError as exc:
        return type(exc).__name__


SEARCH_FAMILIES = {
    "scalar": scalar_family, "rotation": rotation_family, "drop": drop_family,
    "wide": wide_family, "two_anchor": two_anchor_family, "heavy": heavy_sites_family,
    **{"random%d" % seed: (lambda seed=seed: random_admissible(seed)) for seed in range(40)},
}


@pytest.mark.parametrize("make", SEARCH_FAMILIES.values(), ids=SEARCH_FAMILIES.keys())
def test_lockstep_search_equals_the_per_cell_reference(make):
    fam = make()
    for j in range(fam.n_singular):
        for i in range(fam.n_maps):
            assert _outcome(find_common_fixed_point_angle, fam, j, i) == _outcome(
                _reference_angle, fam, j, i
            ), (j, i)


class TestExceptionalFamily:
    def test_structure(self):
        fam = scalar_family()
        red = exceptional_family(fam, math.pi / 2, 0, 0)
        assert len(red) == 7
        anchor = fam.singular_letter(0)
        assert red.removed_word == (anchor, anchor, 0)
        assert red.duplicate_word == (anchor, 0, anchor)
        assert red.removed_word not in red.words
        assert red.duplicate_word in red.words
        expected = [
            w
            for w in itertools.product(range(fam.n_maps), repeat=3)
            if w != red.removed_word
        ]
        assert list(red.words) == expected

    def test_removed_equals_duplicate_at_coincidence(self):
        fam = scalar_family()
        maps = fam.instantiate(math.pi / 2)
        red = exceptional_family(fam, math.pi / 2, 0, 0)
        a = compose_word(maps, red.removed_word)
        b = compose_word(maps, red.duplicate_word)
        assert np.allclose(
            a.linear.as_mat2().as_array(), b.linear.as_mat2().as_array()
        )
        assert np.allclose(a.translation, b.translation)

    def test_companion_must_differ(self):
        fam = scalar_family()
        with pytest.raises(ConfigError):
            exceptional_family(fam, 0.0, 0, fam.singular_letter(0))


@pytest.mark.parametrize(
    "j, i, message",
    [(1, 0, "site index"), (-1, 0, "site index"), (0, 2, "companion letter"),
     (0, -1, "companion letter")],
)
@pytest.mark.parametrize(
    "call",
    [find_common_fixed_point_angle, dimension_drop,
     lambda fam, j, i: exceptional_family(fam, 0.0, j, i)],
    ids=["find_angle", "dimension_drop", "exceptional_family"],
)
def test_indices_out_of_range_rejected(call, j, i, message):
    # one regular map and one site: letters 0 and 1, site 0
    with pytest.raises(ConfigError, match=message + " out of range"):
        call(drop_family(), j, i)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda fam: commutation_residual(fam, 0.3, 1, 0), "site index"),
        (lambda fam: commutation_residual(fam, 0.3, -1, 0), "site index"),
        (lambda fam: commutation_residual(fam, 0.3, 0, 5), "companion letter"),
        (lambda fam: commutation_residual(fam, 0.3, 0, -1), "companion letter"),
        (lambda fam: fixed_point_gap(fam, 0, 5, 0.3), "letter index"),
        (lambda fam: fixed_point_gap(fam, 0, -2, 0.3), "letter index"),
        (lambda fam: line_map(fam, 0, (-1,), 0.3), "letter index"),
    ],
)
def test_unchecked_indices_now_rejected(call, message):
    # these raised IndexError, returned 0.0 or a number, or wrapped a
    # negative letter round to the last map
    with pytest.raises(ConfigError, match=message + " out of range"):
        call(drop_family())


class TestDimensionDrop:
    def test_certified_drop(self):
        rep = dimension_drop(drop_family(), 0, 0)
        assert rep.strict_gap
        assert rep.identity_residual <= 1e-10
        assert rep.original.upper < 1.0
        assert rep.reduced.upper < rep.original.lower
        assert rep.margin == pytest.approx(rep.original.lower - rep.reduced.upper)
        assert rep.reduced.certified_upper

    def test_shallow_depth_is_inconclusive_not_wrong(self):
        rep = dimension_drop(drop_family(), 0, 0, SolverOptions(depth=1))
        assert not rep.strict_gap
        assert rep.margin < 0.0

    def test_report_serializes(self):
        rep = dimension_drop(drop_family(), 0, 0, SolverOptions(depth=6))
        d = json.loads(rep.to_json())
        assert set(d) == {
            "alpha_star",
            "identity_residual",
            "original",
            "reduced",
            "strict_gap",
            "margin",
        }
        assert d["original"]["depth"] == 6
        assert d["strict_gap"] == rep.strict_gap

    def test_needs_contractive_dimension(self):
        # wide maps push the affinity bracket to the cap
        with pytest.raises(ConfigError):
            dimension_drop(wide_family(), 0, 0)

    def test_reduced_depth_is_the_deepest_level_within_budget(self):
        # the reduced family has 7 letters, so its level k costs 7^k more
        # words; the original bracket needs depth + 1 words, so the depth
        # is kept below the budget
        fam = drop_family()
        totals = list(itertools.accumulate(7 ** k for k in range(1, 8)))
        for budget in sorted({total + d for total in totals for d in (-1, 0, 1)}):
            opts = SolverOptions(depth=min(12, budget - 1), budget=budget)
            fits = [k for k, total in enumerate(totals, 1) if total <= budget]
            if not fits:
                with pytest.raises(BudgetError, match="before word length 1"):
                    dimension_drop(fam, 0, 0, opts)
                continue
            rep = dimension_drop(fam, 0, 0, opts)
            assert rep.reduced.depth == min(max(fits), opts.depth), budget
        assert dimension_drop(fam, 0, 0, SolverOptions(depth=3)).reduced.depth == 3

    def test_reduced_root_stays_small_in_memory(self):
        # the reduced family's level 7 has 823,543 words, nearly all rank
        # one; multiplied out, they held 51 MB under tracemalloc
        fam = drop_family()
        tracemalloc.start()
        try:
            rep = dimension_drop(fam, 0, 0)
            drop_peak = tracemalloc.get_traced_memory()[1]
            reduced = exceptional_family(fam, rep.alpha_star, 0, 0).maps
            tracemalloc.reset_peak()
            pressure_upper_root(reduced, 7)
            root_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reduced.depth == 7
        assert drop_peak < 4 << 20 and root_peak < 4 << 20, (drop_peak, root_peak)


class TestTranslationSeriesGap:
    SYSTEM = (LineMap(0.5, 1.0), LineMap(0.5, 0.0))

    def test_identical_words_cancel(self):
        value, tail = translation_series_gap(self.SYSTEM, (0,), (0,), 30)
        assert value == 0.0
        assert tail == pytest.approx(2.0 * 0.5 ** 30 / 0.5)

    def test_geometric_closed_form(self):
        value, tail = translation_series_gap(self.SYSTEM, (0,), (1,), 10)
        assert value == pytest.approx(2.0 * (1.0 - 0.5 ** 10))
        assert tail == pytest.approx(2.0 ** -8)

    def test_periodic_word(self):
        value, _ = translation_series_gap(self.SYSTEM, (0, 1), (1,), 4)
        assert value == pytest.approx(1.25)

    def test_truncation_error_within_tail(self):
        short, tail = translation_series_gap(self.SYSTEM, (0, 1), (1, 0), 20)
        long, _ = translation_series_gap(self.SYSTEM, (0, 1), (1, 0), 60)
        assert abs(long - short) <= tail

    def test_validation(self):
        with pytest.raises(ConfigError):
            translation_series_gap(self.SYSTEM, (0,), (1,), 0)
        with pytest.raises(ConfigError):
            translation_series_gap(self.SYSTEM, (), (1,), 5)
        with pytest.raises(ConfigError):
            translation_series_gap((), (0,), (0,), 5)
        with pytest.raises(ConfigError):
            translation_series_gap((LineMap(1.0, 0.5),), (0,), (0,), 5)

    @pytest.mark.parametrize("terms", [2.5, 256.0, True, 0])
    def test_terms_must_be_an_integer(self, terms):
        # 2.5 and 256.0 raised a bare TypeError from range
        with pytest.raises(ConfigError, match="terms must be an integer >= 1"):
            translation_series_gap(self.SYSTEM, (0,), (1,), terms)

    @pytest.mark.parametrize("word", [(3,), (-1,), (0, 1, 3)])
    def test_words_must_index_the_system(self, word):
        # (3,) raised IndexError and (-1,) wrapped round to the last map
        with pytest.raises(ConfigError, match="index the line-map system"):
            translation_series_gap(self.SYSTEM, word, (0,), 4)
        with pytest.raises(ConfigError, match="index the line-map system"):
            translation_series_gap(self.SYSTEM, (0,), word, 4)


class TestInvarianceClouds:
    def test_coupled_orbits_nearly_agree(self):
        fam = drop_family()
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        full, red = invariance_clouds(fam, 0, 0, alpha, 20000, seed=4)
        assert full.points.shape == red.points.shape == (20000, 2)
        # the word identity holds to about 1e-13, so the coupled orbits
        # track each other far inside any geometric tolerance
        assert float(np.max(np.abs(full.points - red.points))) <= 1e-9
        assert hausdorff_distance(full, red) <= 1e-9

    def test_chunking_is_invisible(self):
        # clouds longer than one chunk extend shorter ones exactly, also
        # those that end mid-chunk and mid-row of 128 orbits
        fam = drop_family()
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        long = invariance_clouds(fam, 0, 0, alpha, 40000, seed=5)
        for n_short in (1, 127, 129, 1000, 32767, 32768):
            short = invariance_clouds(fam, 0, 0, alpha, n_short, seed=5)
            for a, b in zip(long, short):
                assert a.points.shape == (40000, 2)
                assert b.points.shape == (n_short, 2)
                assert np.array_equal(a.points[:n_short], b.points), n_short

    def test_deterministic(self):
        fam = drop_family()
        alpha = find_common_fixed_point_angle(fam, 0, 0)
        a, _ = invariance_clouds(fam, 0, 0, alpha, 300, seed=7)
        b, _ = invariance_clouds(fam, 0, 0, alpha, 300, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(ConfigError):
            invariance_clouds(drop_family(), 0, 0, 1.0, 0, seed=1)


class TestCommutationResidual:
    def test_zero_exactly_at_scalar_coincidence(self):
        assert commutation_residual(scalar_family(), math.pi / 2, 0, 0) == 0.0

    def test_positive_away_from_coincidence(self):
        assert commutation_residual(scalar_family(), 0.3, 0, 0) > 1e-3
