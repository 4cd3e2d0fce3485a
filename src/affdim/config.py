"""JSON configuration for families, regions, and solver settings.

A config file carries the whole problem statement: the affine family,
the reference region for separation checks, solver knobs, and the seed
used by sampling commands. Serialization is canonical (sorted keys,
fixed separators, defaults filled in), so equal configurations hash to
the same digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Union

from .dimension import SolverOptions
from .errors import ConfigError, ContractionError
from .ifs import AffineMap2, IfsFamily, RankOneSite
from .linalg import Mat2
from .separation import ConvexBody, disk_polygon

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class FamilyConfig:
    family: IfsFamily
    region: ConvexBody
    region_spec: dict
    solver: SolverOptions
    seed: int


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s must be a number" % where)
    return float(value)


def _pair(value, where: str):
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise ConfigError("%s must be a pair of numbers" % where)
    return (float(value[0]), float(value[1]))


def _parse_regular(entry, idx: int) -> AffineMap2:
    if not isinstance(entry, dict):
        raise ConfigError("regular[%d] must be an object" % idx)
    raw = entry.get("matrix")
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or any(not isinstance(row, (list, tuple)) or len(row) != 2 for row in raw)
    ):
        raise ConfigError("regular[%d]: malformed matrix" % idx)
    a = Mat2(
        _number(raw[0][0], "matrix entry"),
        _number(raw[0][1], "matrix entry"),
        _number(raw[1][0], "matrix entry"),
        _number(raw[1][1], "matrix entry"),
    )
    return AffineMap2(a, _pair(entry.get("t"), "regular[%d].t" % idx))


def _parse_site(entry, idx: int) -> RankOneSite:
    """Site from its JSON object; RankOneSite checks the values and its
    message is prefixed with the site's index."""
    if not isinstance(entry, dict):
        raise ConfigError("singular[%d] must be an object" % idx)
    where = "singular[%d]." % idx
    params = dict(
        rho=_number(entry.get("rho"), where + "rho"),
        v_angle=_number(entry.get("v_angle", 0.0), where + "v_angle"),
        c=_number(entry.get("c", 0.0), where + "c"),
        beta=_number(entry.get("beta", 1.0), where + "beta"),
        translation=_pair(entry.get("t"), where + "t"),
    )
    try:
        return RankOneSite(**params)
    except (ConfigError, ContractionError) as exc:
        raise ConfigError("singular[%d]: %s" % (idx, exc)) from exc


def _parse_region(spec) -> ConvexBody:
    if not isinstance(spec, dict):
        raise ConfigError("region_U must be an object")
    kind = spec.get("kind")
    if kind == "polygon":
        vertices = spec.get("vertices")
        if not isinstance(vertices, (list, tuple)) or len(vertices) < 3:
            raise ConfigError("region_U: malformed vertices")
        try:
            points = [_pair(v, "region_U vertex") for v in vertices]
        except ConfigError:
            raise ConfigError("region_U: malformed vertices")
        return ConvexBody.polygon(points)
    if kind == "disk64":
        center = _pair(spec.get("center", (0.0, 0.0)), "region_U.center")
        radius = _number(spec.get("radius"), "region_U.radius")
        if radius <= 0.0:
            raise ConfigError("region_U: radius must be positive")
        return disk_polygon(center, radius)
    raise ConfigError("region_U: unknown kind %r" % (kind,))


def parse_config(source: Union[str, dict]) -> FamilyConfig:
    """Build a validated configuration from JSON text or a parsed dict."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError("invalid JSON: %s" % exc) from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("unsupported schema_version: %r" % (version,))

    raw_regular = data.get("regular", [])
    if not isinstance(raw_regular, list):
        raise ConfigError("regular must be a list")
    regular = tuple(_parse_regular(e, k) for k, e in enumerate(raw_regular))

    raw_singular = data.get("singular", [])
    if not isinstance(raw_singular, list):
        raise ConfigError("singular must be a list")
    if not raw_singular:
        raise ConfigError("config needs at least one rank-one site")
    singular = tuple(_parse_site(e, k) for k, e in enumerate(raw_singular))
    try:
        family = IfsFamily(regular=regular, singular=singular)
    except ContractionError as exc:
        raise ConfigError(str(exc)) from exc

    region_spec = data.get("region_U", {"kind": "disk64", "center": [0.0, 0.0], "radius": 1.0})
    region = _parse_region(region_spec)

    solver_spec = data.get("solver", {})
    if not isinstance(solver_spec, dict):
        raise ConfigError("solver must be an object")
    names = {f.name for f in fields(SolverOptions)}
    solver = SolverOptions(**{k: v for k, v in solver_spec.items() if k in names})

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    return FamilyConfig(
        family=family,
        region=region,
        region_spec=_canonical_region(region_spec),
        solver=solver,
        seed=seed,
    )


def _canonical_region(spec: dict) -> dict:
    if spec.get("kind") == "polygon":
        return {
            "kind": "polygon",
            "vertices": [[float(x), float(y)] for x, y in spec["vertices"]],
        }
    return {
        "kind": "disk64",
        "center": [float(x) for x in spec.get("center", (0.0, 0.0))],
        "radius": float(spec["radius"]) if "radius" in spec else 1.0,
    }


def config_dict(cfg: FamilyConfig) -> dict:
    """Full configuration as a plain dict with every default filled in."""
    fam = cfg.family
    return {
        "schema_version": SCHEMA_VERSION,
        "regular": [
            {
                "matrix": [[m.linear.a11, m.linear.a12], [m.linear.a21, m.linear.a22]],
                "t": list(map(float, m.translation)),
            }
            for m in fam.regular
        ],
        "singular": [
            {
                "rho": s.rho,
                "v_angle": s.v_angle,
                "c": s.c,
                "beta": s.beta,
                "t": list(map(float, s.translation)),
            }
            for s in fam.singular
        ],
        "region_U": cfg.region_spec,
        "solver": {
            "depth": cfg.solver.depth,
            "tol": cfg.solver.tol,
            "prune": cfg.solver.prune,
            "budget": cfg.solver.budget,
            "threads": cfg.solver.threads,
        },
        "seed": cfg.seed,
    }


def serialize_config(cfg: FamilyConfig) -> str:
    """Canonical JSON form: sorted keys, minimal separators, defaults
    filled; equal configurations serialize identically."""
    return json.dumps(config_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_digest(cfg: FamilyConfig) -> str:
    """Hex digest identifying the canonical configuration."""
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
