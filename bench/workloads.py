"""The benchmark's three workloads, their output checks and the layer probes.

Every workload calls only affdim's public API or its `affdim` entry
point, so refactors of private helpers leave the benchmark intact. The
inputs come from the workload seed; the program sees only the generated
families and config files. The checks recompute what they can with
plain numpy, apart from the program, or test properties the method
must have; none compares against a stored copy.

Importing this module imports affdim from the checkout's own `src/`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO_CONFIG = ROOT / "demos" / "demo_family.json"
WORK = Path(__file__).resolve().parent / "work"

if not (SRC / "affdim" / "__init__.py").is_file() or not DEMO_CONFIG.is_file():
    raise ImportError("no affdim sources under %s (expected src/affdim and demos/)" % ROOT)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import affdim  # noqa: E402
from affdim import (  # noqa: E402
    AffineMap2,
    AnchoredSumSpec,
    IfsFamily,
    Mat2,
    RankOneSite,
    SolverOptions,
    affinity_dimension,
    anchored_norm_sum,
    box_dim_estimate,
    chaos_game,
    check_convex_separation,
    config_digest,
    dimension_drop,
    exceptional_family,
    find_common_fixed_point_angle,
    hausdorff_distance,
    invariance_clouds,
    parse_config,
    pressure_upper_root,
    projection_witness,
    regular_dimension_bracket,
)

if Path(affdim.__file__).resolve().parent != SRC / "affdim":
    raise ImportError("affdim was imported from %s, not from %s" % (affdim.__file__, SRC))

# Children see the thread settings run.py exported and import affdim from
# this checkout only.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 120.0

Check = Tuple[str, bool, str]


def run_child(argv: List[str], cwd: Path, stderr_path: Path = None) -> Tuple[int, float, int]:
    """Run one child to its end: (exit code, wall seconds, peak RSS in kB)."""
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    proc = None
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss
    finally:
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()
        if stderr_path:
            err.close()


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _hex(x: float) -> str:
    return float(x).hex()


def _bracket_key(b) -> str:
    parts = [_hex(b.lower), _hex(b.upper), str(b.depth), str(b.certified_upper)]
    for j, a in sorted((b.per_anchor or {}).items()):
        parts += [str(j), _hex(a.lower), _hex(a.upper), str(a.certified)]
    return ",".join(parts)


def _demo_config(seed: int) -> dict:
    """The demo family config with the workload seed as its sampling seed."""
    data = json.loads(DEMO_CONFIG.read_text())
    data["seed"] = seed
    return data


# --- bracket-7map -------------------------------------------------------------

ALPHA_7MAP = 0.3
DEPTH_7MAP = 8
RATIO_7MAP = 0.12
N_ROT, N_SITES = 4, 3


def seven_map_numbers(seed: int) -> dict:
    """Raw numbers of the 7-map family, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    rot = [(float(rng.uniform(0.0, 2.0 * math.pi)), tuple(rng.uniform(-0.5, 0.5, 2)))
           for _ in range(N_ROT)]
    sites = [dict(v_angle=float(rng.uniform(0.0, math.pi)),
                  c=float(rng.uniform(0.0, math.pi)),
                  t=tuple(rng.uniform(-0.5, 0.5, 2)))
             for _ in range(N_SITES)]
    return {"rotations": rot, "sites": sites}


def seven_map_family(numbers: dict) -> IfsFamily:
    return IfsFamily(
        regular=tuple(AffineMap2(Mat2.scaled_rotation(RATIO_7MAP, angle), t)
                      for angle, t in numbers["rotations"]),
        singular=tuple(RankOneSite(rho=RATIO_7MAP, v_angle=s["v_angle"], c=s["c"],
                                   beta=1.0, translation=s["t"])
                       for s in numbers["sites"]),
    )


def seven_map_walk_words() -> int:
    """Words walked by the three anchors: sum over k <= depth of 6^k each."""
    letters = N_ROT + N_SITES - 1
    return N_SITES * sum(letters ** k for k in range(DEPTH_7MAP + 1))


def _own_anchor_levels(numbers: dict, j: int) -> Tuple[List[np.ndarray], List[float]]:
    """Anchored base factors per word length, enumerated with plain numpy.

    Letters are the 2x2 matrices of the rotations and of the other sites
    (rho v w^T); a word's base is rho_j |<w_j, A_word v_j>|.
    """
    mats = []
    for angle, _ in numbers["rotations"]:
        c, s = math.cos(angle), math.sin(angle)
        mats.append(RATIO_7MAP * np.array([[c, -s], [s, c]]))
    for k, site in enumerate(numbers["sites"]):
        if k != j:
            mats.append(RATIO_7MAP * np.outer(_unit(site["v_angle"]),
                                              _unit(site["c"] + ALPHA_7MAP)))
    M = np.stack(mats)
    site = numbers["sites"][j]
    w = _unit(site["c"] + ALPHA_7MAP)
    U = _unit(site["v_angle"])[None, :]
    levels = []
    for k in range(DEPTH_7MAP + 1):
        if k:
            U = np.einsum("lij,nj->lni", M, U).reshape(-1, 2)
        levels.append(RATIO_7MAP * np.abs(U @ w))
    return levels, [float(np.linalg.norm(m, 2)) for m in mats]


def _own_sum(levels: List[np.ndarray], s: float) -> float:
    return math.fsum(float(np.sum(b[b > 0.0] ** s)) for b in levels)


# Allowance for rounding when the benchmark re-evaluates a sum the program
# decided on: about 2M terms of size <= 1, each off by a few ulps, summed
# pairwise, stay far below 1e-12.
SUM_ALLOWANCE = 1e-12


class Workload:
    """A workload: set-up from the seed, one pass of calls, output checks.

    peak_from_children says whether the calls run in child processes, so
    that peak memory is read from the children.
    """

    name = ""
    ops_per_pass = 0
    peak_from_children = False

    def close(self, inp) -> None:
        """Remove whatever set-up created."""

    def failed(self, out) -> int:
        """Operations of a pass that failed without raising."""
        return 0


class Bracket7Map(Workload):
    name = "bracket-7map"
    ops_per_pass = 2

    def setup(self, seed: int):
        numbers = seven_map_numbers(seed)
        return SimpleNamespace(
            numbers=numbers,
            fam=seven_map_family(numbers),
            opts=SolverOptions(depth=DEPTH_7MAP, tol=1e-9, threads=1),
        )

    def run_pass(self, inp, tr):
        with tr.span("dimension.affinity"):
            bracket = affinity_dimension(inp.fam, ALPHA_7MAP, inp.opts)
        with tr.span("dimension.regular_bracket"):
            regular = regular_dimension_bracket(inp.fam, inp.opts)
        return bracket, regular

    def digest(self, out) -> str:
        return "|".join(_bracket_key(b) for b in out)

    def check(self, inp, out) -> List[Check]:
        bracket, regular = out
        exact = math.log(N_ROT) / math.log(1.0 / RATIO_7MAP)
        checks = [
            ("regular bracket contains log 4 / log(1/0.12)",
             regular.lower - 1e-6 <= exact <= regular.upper + 1e-6,
             "[%.12g, %.12g] vs %.12g" % (regular.lower, regular.upper, exact)),
            ("affinity bracket certified", bool(bracket.certified_upper), ""),
            ("affinity lower <= upper", bracket.lower <= bracket.upper,
             "[%.12g, %.12g]" % (bracket.lower, bracket.upper)),
            ("affinity lower > regular upper", bracket.lower > regular.upper,
             "%.12g vs %.12g" % (bracket.lower, regular.upper)),
        ]
        for j, anchor in sorted(bracket.per_anchor.items()):
            levels, norms = _own_anchor_levels(inp.numbers, j)
            at_lower = _own_sum(levels, anchor.lower)
            s = anchor.upper
            theta = math.fsum(n ** s for n in norms)
            tail = RATIO_7MAP ** s * theta ** (DEPTH_7MAP + 1) / (1.0 - theta)
            at_upper = _own_sum(levels, s) + tail
            checks.append(("anchor %d: own sum at lower end >= 1" % j,
                           at_lower >= 1.0 - SUM_ALLOWANCE, "%.3e" % (at_lower - 1.0)))
            checks.append(("anchor %d: own sum plus tail at upper end <= 1" % j,
                           anchor.certified and theta < 1.0
                           and at_upper <= 1.0 + SUM_ALLOWANCE,
                           "%.3e" % (at_upper - 1.0)))
        two = affinity_dimension(inp.fam, ALPHA_7MAP, replace(inp.opts, threads=2))
        checks.append(("threads 2 bracket bit-identical to threads 1",
                       _bracket_key(two) == _bracket_key(bracket), ""))
        return checks


# --- attractor-1e6 ------------------------------------------------------------

CHAOS_POINTS = 1_000_000
COUPLED_POINTS = 200_000
BURN_IN = 64

# tests/families.py wide_family: norms 0.7, so the coupled-orbit bound
# diameter * 0.7^64 stays well above the coincidence residual
WIDE = {"matrix": ((0.7, 0.0), (0.0, 0.7)), "t": (0.6, 0.0),
        "rho": 0.7, "v_angle": 0.5, "c": 0.0, "beta": 1.0, "site_t": (-0.3, 0.25)}


def wide_family() -> IfsFamily:
    (a11, a12), (a21, a22) = WIDE["matrix"]
    return IfsFamily(
        regular=(AffineMap2(Mat2(a11, a12, a21, a22), WIDE["t"]),),
        singular=(RankOneSite(rho=WIDE["rho"], v_angle=WIDE["v_angle"], c=WIDE["c"],
                              beta=WIDE["beta"], translation=WIDE["site_t"]),),
    )


def _own_cell_count(points: np.ndarray, k: int) -> int:
    # cells are [m 2^-k, (m+1) 2^-k) shifted so a point on an edge goes to
    # the lower cell, as box_dim_estimate documents
    cells = (np.ceil(np.ldexp(points, k)) - 1.0).astype(np.int64)
    cells -= cells.min(axis=0)
    # number the pairs row by row so np.unique runs on one column; the clouds
    # here lie in the unit disk, so with k <= 12 the numbers stay below 2^27
    return int(np.unique(cells[:, 0] * (cells[:, 1].max() + 1) + cells[:, 1]).size)


def _array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Attractor1e6(Workload):
    name = "attractor-1e6"
    ops_per_pass = 4

    def setup(self, seed: int):
        cfg = parse_config(_demo_config(seed))
        wide = wide_family()
        return SimpleNamespace(
            seed=seed, cfg=cfg, wide=wide,
            alpha_star=find_common_fixed_point_angle(wide, 0, 0),
        )

    def run_pass(self, inp, tr):
        with tr.span("attractor.chaos"):
            cloud = chaos_game(inp.cfg.family, 0.0, CHAOS_POINTS, inp.seed)
        with tr.span("attractor.boxcount"):
            series = box_dim_estimate(cloud, 4, 12)
        with tr.span("exceptional.coupled_orbits"):
            full, reduced = invariance_clouds(inp.wide, 0, 0, inp.alpha_star,
                                              COUPLED_POINTS, inp.seed, BURN_IN)
        with tr.span("attractor.hausdorff"):
            dist = hausdorff_distance(full, reduced)
        return cloud, series, full, reduced, dist

    def digest(self, out) -> str:
        cloud, series, full, reduced, dist = out
        return "%s|%s|%s|%s" % (_array_digest(cloud.points, full.points, reduced.points),
                                series.counts, _hex(series.slope), _hex(dist))

    def check(self, inp, out) -> List[Check]:
        cloud, series, full, reduced, dist = out
        pts = cloud.points
        radius = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        checks = [
            ("1e6 finite points", pts.shape == (CHAOS_POINTS, 2)
             and bool(np.all(np.isfinite(pts))), str(pts.shape)),
            # the separation certificate maps the radius-1 region into itself
            ("points inside the unit disk", radius <= 1.0 + 1e-12, "max |p| %.6f" % radius),
        ]
        ks = [round(-math.log2(eps)) for eps in series.scales]
        own = [_own_cell_count(pts, k) for k in ks]
        checks.append(("occupied cells equal own np.unique count",
                       list(series.counts) == own, "%s vs %s" % (list(series.counts), own)))
        demo = affinity_dimension(inp.cfg.family, 0.0, inp.cfg.solver)
        gap = max(demo.lower - series.slope, series.slope - demo.upper, 0.0)
        checks.append(("slope within 0.05 of the affinity bracket", gap <= 0.05,
                       "slope %.4f vs [%.5f, %.5f]" % (series.slope, demo.lower, demo.upper)))
        # every letter of the wide family has norm 0.7; the attractor lies in
        # the origin ball of radius max|t| / (1 - 0.7)
        max_norm = max(float(np.linalg.norm(np.array(WIDE["matrix"]), 2)), WIDE["rho"])
        radius_w = max(math.hypot(*WIDE["t"]), math.hypot(*WIDE["site_t"])) / (1.0 - max_norm)
        bound = 2.0 * radius_w * max_norm ** BURN_IN
        checks.append(("coupled clouds within diameter * norm^64",
                       full.points.shape == reduced.points.shape == (COUPLED_POINTS, 2)
                       and dist <= bound, "%.3e <= %.3e" % (dist, bound)))
        return checks


# --- cli-session --------------------------------------------------------------

CLI_COMMANDS = (
    ("dim", ()),
    ("sweep", ("--steps", "32")),
    ("check-sep", ()),
    ("render", ("--levels", "3")),
    ("boxdim", ()),
    ("exceptional", ()),
    ("delta", ("--word-a", "0", "--word-b", "0,0")),
    ("witness", ("--k1", "0", "--k2", "1")),
)
SWEEP_STEPS = 32


def _read_csv(path: Path) -> List[List[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _outputs(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name / "report.json").read_text())["outputs"]


def _homogeneous(linear: np.ndarray, t) -> np.ndarray:
    h = np.eye(3)
    h[:2, :2] = linear
    h[:2, 2] = t
    return h


def _own_cell_bounds(points: np.ndarray, k: int) -> Tuple[int, int]:
    """Cell count of points read back at 12 significant digits.

    A point within rounding distance of a cell edge may belong to either
    side, so each such point widens the range by one either way; the
    range is the exact count when there is no such point.
    """
    scaled = np.ldexp(points, k)
    near_edge = np.abs(scaled - np.round(scaled)) <= 1e-11 * (1 << k)
    count = _own_cell_count(points, k)
    slack = int(np.count_nonzero(np.any(near_edge, axis=1)))
    return count - slack, count + slack


class CliSession(Workload):
    name = "cli-session"
    ops_per_pass = len(CLI_COMMANDS)
    peak_from_children = True

    def setup(self, seed: int):
        work = WORK / ("%s-%d-%d" % (self.name, os.getpid(), time.monotonic_ns()))
        work.mkdir(parents=True)
        config = _demo_config(seed)
        text = json.dumps(config, indent=1)
        parse_config(text)
        path = work / "family.json"
        path.write_text(text)
        return SimpleNamespace(work=work, config=config, config_path=path, passes=0)

    def close(self, inp) -> None:
        shutil.rmtree(inp.work, ignore_errors=True)

    def run_pass(self, inp, tr):
        out_dir = inp.work / ("pass-%d" % inp.passes)
        inp.passes += 1
        codes = {}
        for cmd, extra in CLI_COMMANDS:
            argv = [sys.executable, "-m", "affdim.cli", cmd,
                    "--config", str(inp.config_path), "--out", str(out_dir / cmd), *extra]
            with tr.span("cli." + cmd) as rec:
                rc, _, rss_kb = run_child(argv, inp.work, inp.work / (cmd + ".stderr"))
                rec["exit_code"] = rc
                rec["peak_rss_kb"] = rss_kb
            codes[cmd] = rc
        return SimpleNamespace(dir=out_dir, codes=codes)

    def failed(self, out) -> int:
        return sum(rc != 0 for rc in out.codes.values())

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in out.dir.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "report.json":
                report = json.loads(data)
                report.pop("wall_time_s")
                data = json.dumps(report, sort_keys=True).encode()
            h.update(str(path.relative_to(out.dir)).encode() + b"\0" + data)
        if out.dir.name != "pass-0":
            shutil.rmtree(out.dir)
        return h.hexdigest()

    def check(self, inp, out) -> List[Check]:
        d = out.dir
        checks = [("%s exits 0" % cmd, rc == 0, "exit code %d" % rc)
                  for cmd, rc in out.codes.items()]
        if any(out.codes.values()):
            return checks

        rows = _read_csv(d / "dim" / "dim.csv")
        checks.append(("dim.csv certified, lower <= upper",
                       all(r[4] == "true" and float(r[1]) <= float(r[2]) for r in rows),
                       "%d rows" % len(rows)))

        rows = _read_csv(d / "sweep" / "sweep.csv")
        s_low = [float(r[1]) for r in rows]
        checks.append(("sweep.csv: 33 rows in [0, 1], ends one period apart agree",
                       len(rows) == SWEEP_STEPS + 1 and all(0.0 <= s <= 1.0 for s in s_low)
                       and abs(s_low[0] - s_low[-1]) <= 1e-9, "%d rows" % len(rows)))

        cert = json.loads((d / "check-sep" / "certificate.json").read_text())
        checks.append(("certificate.json passed", cert["passed"] is True, ""))

        # level k has n_maps^k cylinder bodies, drawn over the region polygon
        n_maps = len(inp.config["regular"]) + len(inp.config["singular"])
        svg = (d / "render" / "levels.svg").read_text()
        shapes = svg.count("<polygon") + svg.count("<line")
        expected = 1 + sum(n_maps ** k for k in (1, 2, 3))
        checks.append(("levels.svg has 1 + sum n_maps^k shapes", shapes == expected,
                       "%d vs %d" % (shapes, expected)))

        pts = np.loadtxt(d / "boxdim" / "points.csv", delimiter=",", skiprows=1)
        counts = _read_csv(d / "boxdim" / "boxcounts.csv")
        bad = [(k, c, lo, hi) for k, c in ((int(k), int(c)) for k, c in counts)
               for lo, hi in [_own_cell_bounds(pts, k)] if not lo <= c <= hi]
        checks.append(("boxcounts.csv equals own count from points.csv",
                       bool(counts) and not bad and bool(np.all(np.isfinite(pts))), str(bad)))

        rep = json.loads((d / "exceptional" / "exceptional.json").read_text())
        checks.append(("exceptional.json: strict gap, residual <= 1e-10, reduced < original",
                       rep["strict_gap"] is True and rep["identity_residual"] <= 1e-10
                       and rep["reduced"]["upper"] < rep["original"]["lower"],
                       "residual %.2e" % rep["identity_residual"]))
        residual = self._own_word_residual(inp.config, rep["alpha_star"])
        checks.append(("own (j,j,i) and (j,i,j) agree at alpha_star", residual <= 1e-10,
                       "%.2e" % residual))

        delta = _outputs(d, "delta")
        checks.append(("delta |value| <= tail bound",
                       abs(delta["value"]) <= delta["tail_bound"],
                       "%.3e vs %.3e" % (delta["value"], delta["tail_bound"])))
        witness = _outputs(d, "witness")
        period = 2.0 * math.pi / abs(inp.config["singular"][0]["beta"])
        checks.append(("witness angle within one period", 0.0 <= witness["alpha"] < period,
                       "%.6f" % witness["alpha"]))
        return checks

    @staticmethod
    def _own_word_residual(config: dict, alpha: float) -> float:
        # j = site 0 (letter n_regular), i = letter 0, as `exceptional` defaults
        reg = config["regular"][0]
        site = config["singular"][0]
        f_i = _homogeneous(np.array(reg["matrix"], dtype=float), reg["t"])
        w = _unit(site["c"] + site["beta"] * alpha)
        f_j = _homogeneous(site["rho"] * np.outer(_unit(site["v_angle"]), w), site["t"])
        jji = f_j @ f_j @ f_i
        jij = f_j @ f_i @ f_j
        return float(np.max(np.abs(jji[:2] - jij[:2])))


WORKLOADS = {wl.name: wl for wl in (Bracket7Map(), Attractor1e6(), CliSession())}


# --- per-layer probes ---------------------------------------------------------

PROBE_REPEATS = 5


def layer_probes(seed: int, tr) -> None:
    """Traced public calls for the layers no workload pass times alone."""
    fam = seven_map_family(seven_map_numbers(seed))
    opts = SolverOptions(depth=DEPTH_7MAP, tol=1e-9, threads=1)
    for j in range(N_SITES):
        spec = AnchoredSumSpec(start=j, end=j, max_len=DEPTH_7MAP,
                               allowed=frozenset(range(N_SITES)) - {j})
        with tr.span("dimension.walk", anchor=j):
            anchored_norm_sum(fam, ALPHA_7MAP, spec, 0.0, opts)
    with tr.span("dimension.affinity_t2"):
        affinity_dimension(fam, ALPHA_7MAP, replace(opts, threads=2))

    text = json.dumps(_demo_config(seed))
    for _ in range(PROBE_REPEATS):
        with tr.span("config.parse"):
            cfg = parse_config(text)
            config_digest(cfg)
    demo = cfg.family
    period = 2.0 * math.pi / abs(demo.singular[0].beta)
    for k in range(SWEEP_STEPS + 1):
        with tr.span("dimension.sweep_step"):
            affinity_dimension(demo, k * period / SWEEP_STEPS, cfg.solver)
    for _ in range(PROBE_REPEATS):
        with tr.span("exceptional.angle_search"):
            find_common_fixed_point_angle(demo, 0, 0)
        with tr.span("separation.check"):
            check_convex_separation(demo, cfg.region)
        with tr.span("separation.witness"):
            projection_witness(demo, cfg.region, (), 0, 0, 1)
    for _ in range(3):
        with tr.span("exceptional.drop"):
            report = dimension_drop(demo, 0, 0, cfg.solver)
        reduced = exceptional_family(demo, report.alpha_star, 0, 0).maps
        with tr.span("exceptional.pressure_root"):
            pressure_upper_root(reduced, report.reduced.depth, cfg.solver.tol, cfg.solver)
    for _ in range(PROBE_REPEATS):
        with tr.span("cli.python"):
            run_child([sys.executable, "-c", "pass"], ROOT)
        with tr.span("cli.import"):
            run_child([sys.executable, "-c", "import affdim.cli"], ROOT)


def layer_metrics(tr) -> Dict[str, float]:
    """Per-layer metrics: the median duration of each span name, plus the
    counts and rates derived from them."""
    spans = tr.durations()
    out = {name + "_s": median(ds) for name, ds in spans.items() if name != "dimension.walk"}
    walks = spans["dimension.walk"]
    out["dimension.walk_s"] = median(
        sum(walks[i:i + N_SITES]) for i in range(0, len(walks), N_SITES))
    out["dimension.walk_words"] = float(seven_map_walk_words())
    out["dimension.walk_words_per_s"] = out["dimension.walk_words"] / out["dimension.walk_s"]
    # derived, not measured: what affinity_dimension spends beside the walks
    out["dimension.roots_s"] = (out["dimension.affinity_s"] - out["dimension.walk_s"]
                                - out["dimension.regular_bracket_s"])
    out["attractor.chaos_points_per_s"] = CHAOS_POINTS / out["attractor.chaos_s"]
    return out
