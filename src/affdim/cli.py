"""Command-line front end.

Every subcommand reads a JSON config, writes its artifacts under the
--out directory, and drops a report.json recording the command, the
config digest, the tool version, and the headline numbers. CSV floats
use 12 significant digits and no locale formatting, so rerunning a
command reproduces the files byte for byte (timing in report.json
excepted).

Exit codes: 0 success, 1 input, configuration or usage error (such as
a flag the subcommand does not read), 2 certificate or verification
failure, 3 inconclusive dimension gap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from . import __version__
from .attractor import box_dim_estimate, chaos_game, render_levels
from .config import FamilyConfig, config_digest, parse_config
from .dimension import (
    SolverOptions,
    affinity_dimension,
    regular_dimension_bracket,
)
from .errors import (
    AffdimError,
    BudgetError,
    ConfigError,
    ContractionError,
)
from .exceptional import dimension_drop, line_map, translation_series_gap
from .separation import check_convex_separation, projection_witness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_INCONCLUSIVE = 3


def _fmt(x: float) -> str:
    return "%.12g" % x


def _write_csv(path: Path, header: str, rows: List[str]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_report(out: Path, command: str, cfg: FamilyConfig, started: float, payload: dict) -> None:
    report = {
        "command": command,
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "wall_time_s": time.monotonic() - started,
        "outputs": payload,
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _solver(cfg: FamilyConfig, args) -> SolverOptions:
    base = cfg.solver
    return SolverOptions(
        depth=args.depth if args.depth is not None else base.depth,
        tol=args.tol if args.tol is not None else base.tol,
        prune=base.prune,
        budget=base.budget,
        threads=args.threads if args.threads is not None else base.threads,
    )


def _parse_word(text: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError("words must be comma-separated letter indices")


def _bracket_row(name: str, b) -> str:
    return ",".join(
        [name, _fmt(b.lower), _fmt(b.upper), str(b.depth),
         "true" if b.certified_upper else "false"]
    )


def cmd_dim(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    opts = _solver(cfg, args)
    bracket = affinity_dimension(cfg.family, args.alpha, opts)
    rows = [_bracket_row("affinity", bracket)]
    for j in sorted((bracket.per_anchor or {})):
        anchor = bracket.per_anchor[j]
        rows.append(",".join(
            ["anchor_%d" % j, _fmt(anchor.lower), _fmt(anchor.upper),
             str(bracket.depth), "true" if anchor.certified else "false"]
        ))
    payload = {
        "affinity": {"lower": bracket.lower, "upper": bracket.upper,
                     "depth": bracket.depth, "certified": bracket.certified_upper},
    }
    if cfg.family.n_regular >= 1:
        reg = regular_dimension_bracket(cfg.family, opts)
        rows.append(_bracket_row("regular", reg))
        payload["regular"] = {"lower": reg.lower, "upper": reg.upper,
                              "depth": reg.depth, "certified": reg.certified_upper}
    _write_csv(out / "dim.csv", "quantity,lower,upper,depth,certified", rows)
    payload["csv"] = "dim.csv"
    return EXIT_OK, payload


def cmd_sweep(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    opts = _solver(cfg, args)
    j = args.param
    if not 0 <= j < cfg.family.n_singular:
        raise ConfigError("sweep site index out of range")
    if args.steps < 1:
        raise ConfigError("sweep needs at least one step")
    period = 2.0 * math.pi / abs(cfg.family.singular[j].beta)
    rows = []
    for k in range(args.steps + 1):
        alpha = k * period / args.steps
        bracket = affinity_dimension(cfg.family, alpha, opts)
        rows.append(",".join([_fmt(alpha), _fmt(bracket.lower), str(bracket.depth)]))
    _write_csv(out / "sweep.csv", "alpha,s_lower,depth", rows)
    return EXIT_OK, {"csv": "sweep.csv", "rows": args.steps + 1}


def cmd_check_sep(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    cert = check_convex_separation(cfg.family, cfg.region)
    with open(out / "certificate.json", "w") as fh:
        fh.write(cert.to_json())
        fh.write("\n")
    payload = {"certificate": "certificate.json", "passed": cert.passed,
               "min_pairwise_distance": cert.min_pairwise_distance,
               "margin": cert.margin}
    return (EXIT_OK if cert.passed else EXIT_CERTIFICATE), payload


def cmd_render(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    svg = render_levels(cfg.family, args.alpha, cfg.region, args.levels)
    path = out / "levels.svg"
    with open(path, "w") as fh:
        fh.write(svg)
        fh.write("\n")
    return EXIT_OK, {"svg": "levels.svg", "levels": args.levels}


def cmd_boxdim(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    seed = args.seed if args.seed is not None else cfg.seed
    cloud = chaos_game(cfg.family, args.alpha, args.points, seed)
    series = box_dim_estimate(cloud, args.kmin, args.kmax)
    with open(out / "points.csv", "w", newline="") as fh:
        fh.write("x,y\n")
        coords = tuple(cloud.points.ravel().tolist())
        fh.write(("%.12g,%.12g\n" * len(cloud.points)) % coords)
    _write_csv(
        out / "boxcounts.csv", "k,count",
        ["%d,%d" % (round(-math.log2(eps)), c)
         for eps, c in zip(series.scales, series.counts)],
    )
    payload = {"points": "points.csv", "counts": "boxcounts.csv",
               "slope": series.slope, "r_squared": series.r_squared,
               "n_points": args.points, "seed": seed}
    return EXIT_OK, payload


def cmd_exceptional(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    opts = _solver(cfg, args)
    report = dimension_drop(cfg.family, args.j, args.i, opts)
    with open(out / "exceptional.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    payload = dict(report.to_dict())
    payload["report"] = "exceptional.json"
    return (EXIT_OK if report.strict_gap else EXIT_INCONCLUSIVE), payload


def cmd_delta(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    j = args.j
    if not 0 <= j < cfg.family.n_singular:
        raise ConfigError("site index out of range")
    anchor = cfg.family.singular_letter(j)
    letters = [k for k in range(cfg.family.n_maps) if k != anchor]
    system = [line_map(cfg.family, j, (letter,), args.alpha) for letter in letters]
    word_a = _parse_word(args.word_a)
    word_b = _parse_word(args.word_b)
    for word in (word_a, word_b):
        if any(not 0 <= w < len(system) for w in word):
            raise ConfigError("word letters index the line-map system")
    value, tail = translation_series_gap(system, word_a, word_b, args.terms)
    payload = {"value": value, "tail_bound": tail, "terms": args.terms,
               "alphabet": letters}
    return EXIT_OK, payload


def cmd_witness(cfg: FamilyConfig, args, out: Path) -> Tuple[int, dict]:
    iword = _parse_word(args.iword)
    angle = projection_witness(
        cfg.family, cfg.region, iword, args.j, args.k1, args.k2
    )
    return EXIT_OK, {"alpha": angle, "iword": list(iword),
                     "j": args.j, "k1": args.k1, "k2": args.k2}


_COMMANDS = {
    "dim": cmd_dim,
    "sweep": cmd_sweep,
    "check-sep": cmd_check_sep,
    "render": cmd_render,
    "boxdim": cmd_boxdim,
    "exceptional": cmd_exceptional,
    "delta": cmd_delta,
    "witness": cmd_witness,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affdim",
        description="Dimension brackets, separation certificates, and "
        "attractor tools for planar affine families with rank-one sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="affdim-out", help="output directory")

    def solver(p):
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument(
            "--threads", type=int, default=None,
            help="accepted and validated; changes neither output nor speed",
        )

    p = sub.add_parser("dim", help="affinity and invertible-part brackets")
    common(p)
    solver(p)
    p.add_argument("--alpha", type=float, default=0.0)

    p = sub.add_parser("sweep", help="lower bound across one site's period")
    common(p)
    solver(p)
    p.add_argument("--param", type=int, default=0, help="site index")
    p.add_argument("--steps", type=int, default=32)

    p = sub.add_parser("check-sep", help="convex separation certificate")
    common(p)

    p = sub.add_parser("render", help="SVG of cylinder bodies")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--levels", type=int, default=2, choices=(1, 2, 3))

    p = sub.add_parser("boxdim", help="box-counting slope of a sampled cloud")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--points", type=int, default=1 << 17)
    p.add_argument("--kmin", type=int, default=4)
    p.add_argument("--kmax", type=int, default=12)

    p = sub.add_parser("exceptional", help="certify a dimension drop")
    common(p)
    solver(p)
    p.add_argument("--j", type=int, default=0, help="site index")
    p.add_argument("--i", type=int, default=0, help="companion letter")

    p = sub.add_parser("delta", help="truncated coded-point gap on a site line")
    common(p)
    p.add_argument("--j", type=int, default=0, help="site index")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--word-a", required=True)
    p.add_argument("--word-b", required=True)
    p.add_argument("--terms", type=int, default=32)

    p = sub.add_parser("witness", help="separating direction for two sub-cylinders")
    common(p)
    p.add_argument("--iword", default="")
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # bad input like any other
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    started = time.monotonic()
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = parse_config(text)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        code, payload = _COMMANDS[args.command](cfg, args, out)
        _write_report(out, args.command, cfg, started, payload)
    except (ConfigError, ContractionError, BudgetError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except AffdimError as exc:
        # failed root searches, identity mismatches, missing witnesses
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CERTIFICATE
    print("%s: wrote %s" % (args.command, out / "report.json"))
    return code


if __name__ == "__main__":
    sys.exit(main())
