"""End-to-end checks, one per shipped guarantee.

Each test prints a single PASS line with the measured quantities when it
succeeds; tolerances and time limits are asserted, not just reported.
Oracles are independent of the code under test: plain bisection on
scalar equations, numpy's SVD, raw vertex-pair enumeration, and exact
closed forms for similarity families.
"""

import math
import time

import numpy as np
import pytest

from affdim import (
    AffineMap2,
    ConvexBody,
    IfsFamily,
    Mat2,
    RankOneSite,
    SolverOptions,
    admissible_projections,
    affinity_dimension,
    anchor_exponent_profile,
    box_dim_estimate,
    chaos_game,
    check_convex_separation,
    commutation_residual,
    conditional_norm,
    dimension_drop,
    disk_polygon,
    find_common_fixed_point_angle,
    hausdorff_distance,
    invariance_clouds,
    partition_sum,
    projected_interval,
    regular_dimension_bracket,
    singular_values,
)
from affdim.ifs import attractor_bound, check_irreducibility
from affdim.linalg import LineDir, RankOneFactor, image_dir

from families import (
    cantor_similarities,
    drop_family,
    random_admissible,
    rotation_family,
    scalar_family,
    two_anchor_family,
    weighted_root,
    wide_family,
)


def report(line):
    print("PASS " + line)


def test_criterion_01_factored_norm_identity():
    # |AB|| = ||A restricted to Im(B)|| * ||B|| for invertible A and
    # rank-one B, checked against numpy on 10^4 random pairs; timed in
    # this process's CPU time, which other processes on the machine do
    # not inflate
    rng = np.random.default_rng(42)
    started = time.process_time()
    worst = 0.0
    for _ in range(10_000):
        a = Mat2.from_array(rng.normal(size=(2, 2)))
        b = RankOneFactor(
            float(rng.uniform(0.1, 2.0)),
            float(rng.uniform(0.0, math.pi)),
            float(rng.uniform(0.0, math.pi)),
        )
        factored = conditional_norm(a, image_dir(b)) * b.rho
        brute = float(
            np.linalg.norm(a.as_array() @ b.as_mat2().as_array(), 2)
        )
        worst = max(worst, abs(factored - brute) / brute)
    elapsed = time.process_time() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(
        "criterion 01: 10^4 norm factorizations, worst relative error "
        "%.2e (limit 1e-12), %.2fs CPU (limit 1s)" % (worst, elapsed)
    )


def test_criterion_02_scalar_family_bracket():
    # depth-12 bracket must trap the root of (1/2)^s + (1/3)^s = 1
    # found by plain scalar bisection, with width at most 1e-2
    started = time.monotonic()
    bracket = affinity_dimension(scalar_family(), 0.0, SolverOptions(depth=12))
    elapsed = time.monotonic() - started
    oracle = weighted_root((0.5, 1.0 / 3.0))
    width = bracket.upper - bracket.lower
    assert bracket.lower <= oracle <= bracket.upper
    assert width <= 1e-2
    assert bracket.certified_upper
    assert elapsed < 10.0
    report(
        "criterion 02: bracket [%.9f, %.9f] traps oracle %.9f, width "
        "%.1e (limit 1e-2), %.2fs (limit 10s)"
        % (bracket.lower, bracket.upper, oracle, width, elapsed)
    )


def test_criterion_03_lower_bounds_monotone():
    # truncation profiles may never decrease; checked on the scalar
    # family and twenty random admissible families
    cases = [(scalar_family(), 0.0)]
    cases += [(random_admissible(seed), 0.7) for seed in range(20)]
    worst = 0.0
    for fam, alpha in cases:
        for j in range(fam.n_singular):
            profile = anchor_exponent_profile(fam, alpha, j, max_len=12)
            steps = np.diff(profile)
            if len(steps):
                worst = max(worst, -float(steps.min()))
    assert worst <= 1e-12
    report(
        "criterion 03: %d anchored profiles at depths 0..12, worst "
        "decrease %.1e (limit 1e-12)" % (len(cases), worst)
    )


def test_criterion_04_rotation_family_exceeds_regular_part():
    fam = rotation_family()
    # the two scaled rotations genuinely share no invariant line
    assert check_irreducibility([m.linear for m in fam.regular]) is None
    opts = SolverOptions(depth=12)
    reg = regular_dimension_bracket(fam, opts)
    bracket = affinity_dimension(fam, 0.0, opts)
    assert reg.certified_upper
    assert reg.upper < 1.0
    assert bracket.lower > reg.upper
    report(
        "criterion 04: affinity lower %.5f exceeds certified invertible "
        "upper %.5f (< 1) at depth 12" % (bracket.lower, reg.upper)
    )


def test_criterion_05_anchors_agree():
    # with two sites the per-anchor lower bounds approximate the same
    # exponent; at depth 12 they must agree to 5e-3
    bracket = affinity_dimension(two_anchor_family(), 0.0, SolverOptions(depth=12))
    lowers = [a.lower for a in bracket.per_anchor.values()]
    spread = max(lowers) - min(lowers)
    assert len(lowers) == 2
    assert spread <= 5e-3
    report(
        "criterion 05: anchored lower bounds %.6f and %.6f, spread "
        "%.2e (limit 5e-3)" % (lowers[0], lowers[1], spread)
    )


def brute_cone_width(A, B):
    # circular spread of the vertex-pair difference directions mod pi
    diffs = (A.vertices[:, None, :] - B.vertices[None, :, :]).reshape(-1, 2)
    angles = np.sort(np.arctan2(diffs[:, 1], diffs[:, 0]) % math.pi)
    gaps = np.diff(angles, append=angles[0] + math.pi)
    return math.pi - float(gaps.max())


def test_criterion_06_separating_directions():
    # 10^3 random disjoint polygon pairs: every sampled admissible
    # direction separates the projections, and the excluded cone agrees
    # with raw vertex-pair enumeration to 1e-9 rad
    rng = np.random.default_rng(2024)
    failures = 0
    worst_gap = 0.0
    for _ in range(1000):
        A = ConvexBody.polygon(rng.uniform(-1.0, 1.0, size=(8, 2)))
        shift = (2.2 + rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0))
        B = ConvexBody.polygon(rng.uniform(-1.0, 1.0, size=(8, 2)) + shift)
        arcs = admissible_projections(A, B)
        for t in arcs.sample(4):
            lo_a, hi_a = projected_interval(A, t)
            lo_b, hi_b = projected_interval(B, t)
            if not (hi_a < lo_b or hi_b < lo_a):
                failures += 1
        worst_gap = max(
            worst_gap,
            abs(arcs.measure() - (math.pi - brute_cone_width(A, B))),
        )
    assert failures == 0
    assert worst_gap <= 1e-9
    report(
        "criterion 06: 1000 polygon pairs, 0 projection failures, cone "
        "mismatch %.1e rad (limit 1e-9)" % worst_gap
    )


def test_criterion_07_middle_thirds_dimension():
    started = time.monotonic()
    fam = cantor_similarities()
    region = ConvexBody.polygon(
        [(-0.05, -0.1), (1.05, -0.1), (1.05, 0.1), (-0.05, 0.1)]
    )
    cert = check_convex_separation(fam, region)
    assert cert.passed
    truth = math.log(2.0) / math.log(3.0)
    bracket = regular_dimension_bracket(fam, SolverOptions(depth=12))
    assert abs(bracket.lower - truth) <= 1e-6
    assert abs(bracket.upper - truth) <= 1e-6
    cloud = chaos_game(fam, 0.0, 1_000_000, seed=7)
    series = box_dim_estimate(cloud)
    elapsed = time.monotonic() - started
    assert abs(series.slope - truth) <= 0.05
    assert series.r_squared >= 0.98
    assert elapsed < 30.0
    report(
        "criterion 07: separation certified, bracket [%.8f, %.8f] hits "
        "log2/log3 to 1e-6, box slope %.4f (err %.3f, limit 0.05), "
        "r^2 %.4f (limit 0.98), %.1fs (limit 30s)"
        % (bracket.lower, bracket.upper, series.slope,
           abs(series.slope - truth), series.r_squared, elapsed)
    )


def test_criterion_08_certified_dimension_drop():
    started = time.monotonic()
    fam = drop_family()
    norms = [m.linear.operator_norm() for m in fam.regular]
    norms += [site.rho for site in fam.singular]
    assert max(norms) <= 0.2
    cert = check_convex_separation(fam, disk_polygon((0.0, 0.0), 1.0))
    assert cert.passed
    rep = dimension_drop(fam, 0, 0)
    elapsed = time.monotonic() - started
    assert rep.identity_residual <= 1e-10
    assert rep.strict_gap
    assert elapsed < 60.0
    report(
        "criterion 08: angle %.6f, residual %.1e (limit 1e-10), "
        "strict gap with margin %.4f, %.1fs (limit 60s)"
        % (rep.alpha_star, rep.identity_residual, rep.margin, elapsed)
    )


def test_criterion_09_reduced_family_attractor_matches():
    # coupled 10^5-point orbits of the three-letter grouping and the
    # reduced family stay within diameter * (max letter norm)^64
    fam = wide_family()
    alpha_star = find_common_fixed_point_angle(fam, 0, 0)
    maps = fam.instantiate(alpha_star)
    diam = 2.0 * attractor_bound(maps)
    max_norm = max(m.linear.operator_norm() for m in maps)
    bound = diam * max_norm ** 64
    full, reduced = invariance_clouds(fam, 0, 0, alpha_star, 100_000, seed=12)
    dist = hausdorff_distance(full, reduced)
    assert dist <= bound
    report(
        "criterion 09: Hausdorff distance %.2e within bound %.2e "
        "(diameter %.2f, max norm %.2f)" % (dist, bound, diam, max_norm)
    )


def cumulative_partition(maps, depth, s):
    return sum(partition_sum(maps, n, s) for n in range(1, depth + 1))


def test_criterion_10_partition_sums_diverge_below_exponent():
    # at s = (certified upper) - 0.02 the cumulative invertible-word
    # sums must keep growing: depth 12 at least doubles depth 6
    strong = IfsFamily(
        regular=(
            AffineMap2(Mat2.scaled_rotation(0.05, 0.7), (0.3, 0.0)),
            AffineMap2(Mat2.scaled_rotation(0.05, 1.9), (-0.3, 0.1)),
        ),
        singular=(
            RankOneSite(rho=0.3, v_angle=0.2, c=0.0, beta=1.0,
                        translation=(0.0, 0.4)),
        ),
    )
    ratios = {}
    for name, fam in (
        ("rotations", rotation_family()),
        ("similarities", cantor_similarities()),
        ("strong", strong),
    ):
        reg = regular_dimension_bracket(fam, SolverOptions(depth=10))
        s = reg.upper - 0.02
        maps = list(fam.regular)
        ratios[name] = cumulative_partition(maps, 12, s) / cumulative_partition(
            maps, 6, s
        )
    assert all(r >= 2.0 for r in ratios.values()), ratios
    report(
        "criterion 10: depth-12 over depth-6 cumulative sums "
        + ", ".join("%s %.3f" % kv for kv in sorted(ratios.items()))
        + " (limit 2.0)"
    )


def test_criterion_11_thread_count_never_changes_output(tmp_path):
    import json

    from affdim.cli import main

    config = {
        "schema_version": 1,
        "regular": [{"matrix": [[1 / 3, 0.0], [0.0, 1 / 3]], "t": [0.0, 0.0]}],
        "singular": [
            {"rho": 0.5, "v_angle": 0.0, "c": 0.0, "beta": 1.0, "t": [1.0, 0.0]}
        ],
        "region_U": {"kind": "disk64", "center": [0.5, 0.0], "radius": 2.0},
        "solver": {"depth": 12},
        "seed": 7,
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(config))
    out1, out8 = tmp_path / "threads1", tmp_path / "threads8"
    assert main(["dim", "--config", str(path), "--out", str(out1),
                 "--threads", "1"]) == 0
    assert main(["dim", "--config", str(path), "--out", str(out8),
                 "--threads", "8"]) == 0
    bytes1 = (out1 / "dim.csv").read_bytes()
    bytes8 = (out8 / "dim.csv").read_bytes()
    assert bytes1 == bytes8
    report(
        "criterion 11: dim.csv identical for --threads 1 and 8 "
        "(%d bytes)" % len(bytes1)
    )
