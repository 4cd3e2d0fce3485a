import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from dataclasses import replace
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affdim
from affdim import (
    SCHEMA_VERSION,
    affinity_dimension,
    config_digest,
    parse_config,
)
from affdim.cli import _CSV_BLOCK_ROWS, main
from affdim.config import _config_dict, _serialize_config
from affdim.errors import ConfigError

from families import (
    HEAVY_SITES_CONFIG,
    drop_family,
    random_admissible,
    rotation_family,
    scalar_family,
    two_anchor_family,
    wide_family,
)

SCALAR_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "regular": [{"matrix": [[1 / 3, 0.0], [0.0, 1 / 3]], "t": [0.0, 0.0]}],
    "singular": [
        {"rho": 0.5, "v_angle": 0.0, "c": 0.0, "beta": 1.0, "t": [1.0, 0.0]}
    ],
    "region_U": {"kind": "disk64", "center": [0.5, 0.0], "radius": 2.0},
    "solver": {"depth": 12, "tol": 1e-9},
    "seed": 7,
}

DROP_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "regular": [{"matrix": [[0.15, 0.0], [0.0, 0.15]], "t": [-0.5, -0.3]}],
    "singular": [
        {"rho": 0.2, "v_angle": 0.3, "c": 0.1, "beta": 1.0, "t": [0.45, 0.35]}
    ],
    "region_U": {"kind": "disk64", "center": [0.0, 0.0], "radius": 1.0},
    "seed": 3,
}

WIDE_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "regular": [{"matrix": [[0.7, 0.0], [0.0, 0.7]], "t": [0.6, 0.0]}],
    "singular": [
        {"rho": 0.7, "v_angle": 0.5, "c": 0.0, "beta": 1.0, "t": [-0.3, 0.25]}
    ],
    "region_U": {"kind": "disk64", "center": [0.0, 0.0], "radius": 1.0},
    "seed": 1,
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def variant(base, **overrides):
    data = json.loads(json.dumps(base))
    data.update(overrides)
    return data


class TestParseConfig:
    def test_roundtrip(self):
        cfg = parse_config(json.dumps(SCALAR_CONFIG))
        assert cfg.family.n_regular == 1
        assert cfg.family.n_singular == 1
        assert cfg.family.singular[0].rho == 0.5
        assert cfg.region.kind == "polygon"
        assert len(cfg.region.vertices) == 64
        assert cfg.solver.depth == 12
        assert cfg.seed == 7

    def test_dict_and_text_agree(self):
        a = parse_config(SCALAR_CONFIG)
        b = parse_config(json.dumps(SCALAR_CONFIG))
        assert config_digest(a) == config_digest(b)

    def test_canonical_reserialization(self):
        cfg = parse_config(SCALAR_CONFIG)
        again = parse_config(_config_dict(cfg))
        assert config_digest(cfg) == config_digest(again)
        text = _serialize_config(cfg)
        assert json.loads(text)["schema_version"] == SCHEMA_VERSION
        # canonical form: sorted keys, no whitespace
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))

    def test_digest_tracks_content(self):
        a = parse_config(SCALAR_CONFIG)
        b = parse_config(variant(SCALAR_CONFIG, seed=8))
        assert len(config_digest(a)) == 64
        assert config_digest(a) != config_digest(b)

    def test_defaults_filled(self):
        minimal = {
            "schema_version": SCHEMA_VERSION,
            "singular": [{"rho": 0.4, "t": [0.2, 0.0]}],
        }
        cfg = parse_config(minimal)
        assert cfg.family.n_regular == 0
        assert cfg.seed == 0
        assert cfg.solver.depth == 12
        assert cfg.region_spec["kind"] == "disk64"

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config("[1, 2]")

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError, match="unsupported schema_version"):
            parse_config(variant(SCALAR_CONFIG, schema_version=99))

    def test_needs_a_site(self):
        with pytest.raises(ConfigError, match="at least one rank-one site"):
            parse_config(variant(SCALAR_CONFIG, singular=[]))

    def test_rho_contraction(self):
        bad = variant(
            SCALAR_CONFIG,
            singular=[{"rho": 1.0, "t": [1.0, 0.0]}],
        )
        with pytest.raises(ConfigError, match="contraction violated"):
            parse_config(bad)

    def test_matrix_contraction(self):
        bad = variant(
            SCALAR_CONFIG,
            regular=[{"matrix": [[1.1, 0.0], [0.0, 0.2]], "t": [0.0, 0.0]}],
        )
        with pytest.raises(ConfigError, match="contraction violated"):
            parse_config(bad)

    def test_malformed_matrix(self):
        bad = variant(
            SCALAR_CONFIG, regular=[{"matrix": [[1, 2, 3]], "t": [0, 0]}]
        )
        with pytest.raises(ConfigError, match="malformed matrix"):
            parse_config(bad)

    def test_beta_nonzero(self):
        bad = variant(
            SCALAR_CONFIG,
            singular=[{"rho": 0.5, "beta": 0.0, "t": [1.0, 0.0]}],
        )
        with pytest.raises(ConfigError, match="beta must be nonzero"):
            parse_config(bad)

    def test_region_vertices(self):
        bad = variant(SCALAR_CONFIG, region_U={"kind": "polygon", "vertices": [[0, 0]]})
        with pytest.raises(ConfigError, match="malformed vertices"):
            parse_config(bad)

    def test_region_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            parse_config(variant(SCALAR_CONFIG, region_U={"kind": "blob"}))

    def test_region_radius(self):
        bad = variant(SCALAR_CONFIG, region_U={"kind": "disk64", "radius": -1.0})
        with pytest.raises(ConfigError, match="radius must be positive"):
            parse_config(bad)

    def test_solver_ranges(self):
        with pytest.raises(ConfigError, match="solver settings out of range"):
            parse_config(variant(SCALAR_CONFIG, solver={"tol": 0.0}))

    @pytest.mark.parametrize("key", ["depht", "prune"])
    def test_unknown_solver_key_rejected(self, key):
        # a misspelt key used to be dropped, so the solve ran at the defaults
        with pytest.raises(ConfigError, match="solver: unknown key\\(s\\) '%s'$" % key):
            parse_config(variant(SCALAR_CONFIG, solver={"depth": 3, key: 1}))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"solvr": {"depth": 3}}, "config: unknown key(s) 'solvr'"),
            ({"regular": [{"matrix": [[0.3, 0.0], [0.0, 0.3]], "t": [0.0, 0.0], "tt": 1}]},
             "regular[0]: unknown key(s) 'tt'"),
            ({"singular": [{"rho": 0.5, "bta": 2.0, "t": [1.0, 0.0]}]},
             "singular[0]: unknown key(s) 'bta'"),
            ({"region_U": {"kind": "disk64", "centre": [0.0, 0.0], "radius": 2.0}},
             "region_U: unknown key(s) 'centre'"),
            ({"region_U": {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]],
                           "radius": 1.0}},
             "region_U: unknown key(s) 'radius'"),
        ],
    )
    def test_unknown_key_rejected(self, change, message):
        # each used to be dropped, so the run went on at a default
        with pytest.raises(ConfigError) as exc:
            parse_config(variant(SCALAR_CONFIG, **change))
        assert str(exc.value) == message

    def test_non_integer_depth_not_truncated(self):
        with pytest.raises(ConfigError, match="solver settings out of range"):
            parse_config(variant(SCALAR_CONFIG, solver={"depth": 2.5}))

    def test_nan_matrix_entry_rejected(self):
        # certified [0, 1.9e-9] when it was let through
        bad = variant(
            DROP_CONFIG,
            regular=[{"matrix": [[math.nan, 0.0], [0.0, 0.15]], "t": [-0.5, -0.3]}],
        )
        with pytest.raises(ConfigError, match="finite"):
            parse_config(bad)

    def test_nan_v_angle_rejected(self):
        bad = variant(
            DROP_CONFIG,
            singular=[{"rho": 0.2, "v_angle": math.nan, "c": 0.1, "t": [0.45, 0.35]}],
        )
        with pytest.raises(ConfigError, match="finite"):
            parse_config(json.dumps(bad))

    def test_seed_validated(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(variant(SCALAR_CONFIG, seed=-1))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(variant(SCALAR_CONFIG, seed=True))


class TestDimCommand:
    def test_regular_bracket_computed_once(self, tmp_path, monkeypatch):
        import affdim.dimension as dimension

        # each regular bracket takes one product walk over the regular maps
        calls = []
        real = dimension._product_levels
        monkeypatch.setattr(
            dimension, "_product_levels", lambda *args: calls.append(args) or real(*args)
        )
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        assert main(["dim", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        rows = (tmp_path / "out" / "dim.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["affinity", "anchor_0", "regular"]

    def test_writes_bracket_table(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        assert main(["dim", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "dim.csv").read_text().splitlines()
        assert lines[0] == "quantity,lower,upper,depth,certified"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["affinity", "anchor_0", "regular"]
        affinity = lines[1].split(",")
        assert float(affinity[1]) <= float(affinity[2])
        assert affinity[3] == "12" and affinity[4] == "true"

    def test_report_metadata(self, tmp_path):
        cfg_path = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        main(["dim", "--config", cfg_path, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "dim"
        assert report["config_digest"] == config_digest(parse_config(SCALAR_CONFIG))
        assert report["outputs"]["csv"] == "dim.csv"
        assert report["wall_time_s"] >= 0.0

    def test_uncertified_upper_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, HEAVY_SITES_CONFIG)
        out = tmp_path / "out"
        assert main(["dim", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "dim.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["affinity", "anchor_0", "anchor_1", "anchor_2"]
        # the clamp at 1 certifies the affinity row; no anchor is certified
        assert rows[0][1:] == ["1", "1", "8", "true"]
        assert all(row[2:] == ["inf", "8", "false"] for row in rows[1:])

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(["dim", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["dim", "--config", cfg, "--out", str(out8),
                     "--threads", "8"]) == 0
        assert (out1 / "dim.csv").read_bytes() == (out8 / "dim.csv").read_bytes()


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--steps", "8", "--depth", "6"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha,s_lower,depth"
        assert len(lines) == 10
        alphas = [float(line.split(",")[0]) for line in lines[1:]]
        assert alphas[0] == 0.0
        assert alphas[-1] == pytest.approx(2.0 * math.pi)

    @pytest.mark.parametrize(
        "make",
        [None, scalar_family, rotation_family, two_anchor_family, drop_family,
         wide_family, "heavy", lambda: random_admissible(5)],
        ids=["demo", "scalar", "rotation", "two_anchor", "drop", "wide",
             "no_regular_maps", "random5"],
    )
    def test_rows_equal_per_alpha_brackets(self, tmp_path, make):
        # the sweep walks the regular products once; every row must still
        # be what a call of affinity_dimension at its alpha gives
        if make is None:
            data = json.loads((Path(__file__).parents[1] / "demos" / "demo_family.json").read_text())
        elif make == "heavy":
            data = HEAVY_SITES_CONFIG
        else:
            data = _config_dict(replace(parse_config(DROP_CONFIG), family=make()))
        cfg = parse_config(data)
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, data), "--out", str(out),
                "--steps", "6", "--depth", "6"]
        assert main(argv) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        opts = replace(cfg.solver, depth=6)
        period = cfg.family.site(0).period
        expected = []
        for k in range(7):
            alpha = k * period / 6
            b = affinity_dimension(cfg.family, alpha, opts)
            expected.append([float("%.12g" % alpha).hex(), float("%.12g" % b.lower).hex(), "6"])
        assert [[float(a).hex(), float(s).hex(), d] for a, s, d in rows] == expected

    def test_regular_part_at_one_exits_1(self, tmp_path, capsys):
        data = variant(SCALAR_CONFIG, regular=[
            {"matrix": [[0.6, 0.0], [0.0, 0.6]], "t": [x, y]} for x in (0.0, 0.4) for y in (0.0, 0.4)
        ])
        out = tmp_path / "out"
        argv = ["sweep", "--config", write_config(tmp_path, data), "--out", str(out), "--depth", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: invertible sub-system exponent not certified below 1 "
            "(upper bound 2.000000)\n"
        )
        assert not (out / "sweep.csv").exists()


class TestCheckSepCommand:
    def test_passing_family(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        assert main(["check-sep", "--config", cfg, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] is True
        assert cert["min_pairwise_distance"] > 0.0

    def test_failing_family_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, WIDE_CONFIG)
        out = tmp_path / "out"
        assert main(["check-sep", "--config", cfg, "--out", str(out)]) == 2
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] is False


class TestRenderCommand:
    def test_svg_written(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["render", "--config", cfg, "--out", str(out),
                     "--levels", "3"])
        assert code == 0
        svg = (out / "levels.svg").read_text()
        assert svg.startswith("<svg")
        assert 'class="lvl3"' in svg


class TestBoxdimCommand:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        code = main(["boxdim", "--config", cfg, "--out", str(out),
                     "--points", "4096", "--kmin", "2", "--kmax", "8"])
        assert code == 0
        assert (out / "points.csv").read_text().splitlines()[0] == "x,y"
        counts = (out / "boxcounts.csv").read_text().splitlines()
        assert counts[0] == "k,count"
        report = json.loads((out / "report.json").read_text())
        assert 0.0 < report["outputs"]["slope"] < 2.0
        assert report["outputs"]["seed"] == 7

    def test_points_csv_bytes(self, tmp_path):
        # the file holds "%.12g" of every coordinate, one "x,y" row per
        # point, whether the rows fill the write blocks or not
        cfg = write_config(tmp_path, DROP_CONFIG)
        block = _CSV_BLOCK_ROWS
        for n_points in (1, block - 1, block, block + 1):
            out = tmp_path / ("out%d" % n_points)
            code = main(["boxdim", "--config", cfg, "--out", str(out),
                         "--points", str(n_points), "--seed", "5"])
            assert code == 0
            cloud = affdim.chaos_game(parse_config(DROP_CONFIG).family, 0.0, n_points, 5)
            rows = ["x,y"] + ["%s,%s" % ("%.12g" % p[0], "%.12g" % p[1]) for p in cloud.points]
            assert len(rows) == n_points + 1
            assert (out / "points.csv").read_bytes() == ("\n".join(rows) + "\n").encode()

    @pytest.mark.parametrize("n_points", [2 ** 62, 10 ** 20])
    def test_unallocatable_point_count_exits_1(self, tmp_path, n_points):
        # numpy refuses both counts whatever the host's memory; the run
        # must end with one error line, not a numpy traceback
        src = str(Path(affdim.__file__).resolve().parents[1])
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = subprocess.run(
            [sys.executable, "-m", "affdim.cli", "boxdim", "--config", cfg,
             "--out", str(tmp_path / "o"), "--points", str(n_points)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert out.returncode == 1
        assert out.stderr == "error: cannot allocate a cloud of %d points\n" % n_points


class TestExceptionalCommand:
    def test_certified_drop(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["exceptional", "--config", cfg, "--out", str(out),
                     "--depth", "8"])
        assert code == 0
        report = json.loads((out / "exceptional.json").read_text())
        assert report["strict_gap"] is True
        assert report["identity_residual"] <= 1e-10

    def test_shallow_depth_inconclusive_exit_three(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["exceptional", "--config", cfg, "--out", str(out),
                     "--depth", "1"])
        assert code == 3


class TestDeltaCommand:
    def test_value_and_tail(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        code = main(["delta", "--config", cfg, "--out", str(out),
                     "--word-a", "0", "--word-b", "0,0", "--terms", "16"])
        assert code == 0
        outputs = json.loads((out / "report.json").read_text())["outputs"]
        assert outputs["terms"] == 16
        assert abs(outputs["value"]) <= outputs["tail_bound"] + 1.0

    def test_word_letters_validated(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        code = main(["delta", "--config", cfg, "--out", str(out),
                     "--word-a", "0", "--word-b", "1"])
        assert code == 1

    def test_word_syntax_validated(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        out = tmp_path / "out"
        code = main(["delta", "--config", cfg, "--out", str(out),
                     "--word-a", "0", "--word-b", "a,b"])
        assert code == 1


@pytest.mark.parametrize(
    "change, message",
    [
        ({"regular": [{"matrix": [[1.1, 0.0], [0.0, 0.2]], "t": [0.0, 0.0]}]},
         "regular[0]: contraction violated, matrix norm 1.1 >= 1"),
        ({"singular": [{"rho": 1.5, "t": [1.0, 0.0]}]},
         "singular[0]: contraction violated, rho 1.5 outside (0, 1)"),
        ({"singular": [{"rho": 0.5, "beta": 0.0, "t": [1.0, 0.0]}]},
         "singular[0]: beta must be nonzero"),
    ],
)
def test_family_value_errors_exit_1(tmp_path, capsys, change, message):
    cfg = write_config(tmp_path, variant(SCALAR_CONFIG, **change))
    assert main(["dim", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


class TestWitnessCommand:
    def test_finds_direction(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["witness", "--config", cfg, "--out", str(out),
                     "--iword", "0", "--k1", "0", "--k2", "1"])
        assert code == 0
        outputs = json.loads((out / "report.json").read_text())["outputs"]
        assert 0.0 <= outputs["alpha"] < 2.0 * math.pi + 1e-9

    def test_equal_letters_rejected(self, tmp_path):
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["witness", "--config", cfg, "--out", str(out),
                     "--k1", "0", "--k2", "0"])
        assert code == 1

    def test_overlapping_bodies_rejected(self, tmp_path):
        cfg = write_config(tmp_path, WIDE_CONFIG)
        out = tmp_path / "out"
        code = main(["witness", "--config", cfg, "--out", str(out),
                     "--k1", "0", "--k2", "1"])
        assert code == 1


@pytest.mark.parametrize(
    "command, message",
    [
        (["exceptional", "--j", "1", "--i", "0"], "site index out of range"),
        (["exceptional", "--j", "-1"], "site index out of range"),
        (["exceptional", "--i", "9"], "companion letter out of range"),
        (["exceptional", "--i", "-1"], "companion letter out of range"),
        (["witness", "--k1", "0", "--k2", "7"], "letter index out of range"),
        (["witness", "--k1", "-1", "--k2", "0"], "letter index out of range"),
    ],
)
def test_index_out_of_range_exits_1(tmp_path, capsys, command, message):
    # the family has one regular map and one site: these ended in an
    # IndexError traceback, or a negative index wrapped round silently
    cfg = write_config(tmp_path, DROP_CONFIG)
    argv = [command[0], "--config", cfg, "--out", str(tmp_path / "o"), *command[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


_BAD_SITE = st.one_of(st.integers(max_value=-1), st.integers(min_value=1, max_value=10**6))
_BAD_LETTER = st.one_of(st.integers(max_value=-1), st.integers(min_value=2, max_value=10**6))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _index_cases():
    # DROP_CONFIG has one regular map and one site: letters 0 and 1, site 0
    flag = lambda name, values: values.map(lambda v: ["--%s=%d" % (name, v)])
    return st.one_of(
        st.tuples(st.just("exceptional"), flag("j", _BAD_SITE)),
        st.tuples(st.just("exceptional"), flag("i", _BAD_LETTER)),
        st.tuples(st.just("witness"), flag("j", _BAD_SITE).map(
            lambda a: a + ["--k1=0", "--k2=1"])),
        st.tuples(st.just("witness"), flag("k1", _BAD_LETTER).map(lambda a: a + ["--k2=0"])),
        st.tuples(st.just("witness"), flag("k2", _BAD_LETTER).map(lambda a: a + ["--k1=0"])),
        st.tuples(st.just("sweep"), flag("param", _BAD_SITE)),
        st.tuples(st.just("delta"), flag("j", _BAD_SITE).map(
            lambda a: a + ["--word-a=0", "--word-b=0,0"])),
        st.tuples(st.just("boxdim"), flag("seed", st.integers(max_value=-1))),
    ).map(lambda case: (DROP_CONFIG, case[0], case[1]))


def _polygon_with(value, k, axis):
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    vertices[k][axis] = value
    return {"kind": "polygon", "vertices": vertices}


def _region_cases():
    regions = st.one_of(
        st.builds(lambda r: {"kind": "disk64", "radius": r}, _NON_FINITE),
        st.builds(lambda x, y: {"kind": "disk64", "center": [x, y], "radius": 1.0},
                  _NON_FINITE, st.floats(-1, 1)),
        st.builds(_polygon_with, _NON_FINITE, st.integers(0, 2), st.integers(0, 1)),
    )
    return st.tuples(regions, st.sampled_from(["check-sep", "render", "dim"])).map(
        lambda case: (variant(DROP_CONFIG, region_U=case[0]), case[1], []))


def _malformed_cases():
    # config shapes the parser must turn into one error line, never a traceback
    numbers = st.floats(-0.3, 0.3)
    texts = st.text(max_size=4)

    def regular(matrix, t=(0.0, 0.0)):
        return {"regular": [{"matrix": matrix, "t": list(t)}]}

    def matrix_with(x, k):
        rows = [[0.15, 0.0], [0.0, 0.15]]
        rows[k // 2][k % 2] = x
        return regular(rows)

    def site(**change):
        return {"singular": [dict(DROP_CONFIG["singular"][0], **change)]}

    matrices = st.one_of(
        st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=3, max_size=3),
        st.lists(st.lists(numbers, min_size=1, max_size=3), min_size=2, max_size=2).filter(
            lambda rows: any(len(row) != 2 for row in rows)),
    ).map(regular)
    misplaced_strings = st.one_of(
        st.builds(matrix_with, texts, st.integers(0, 3)),
        texts.map(lambda x: regular([[0.15, 0.0], [0.0, 0.15]], (x, 0.0))),
        st.sampled_from(["rho", "v_angle", "c", "beta"]).flatmap(
            lambda key: texts.map(lambda x: site(**{key: x}))),
        st.sampled_from(["depth", "tol", "budget", "threads"]).flatmap(
            lambda key: texts.map(lambda x: {"solver": {key: x}})),
        texts.map(lambda x: {"region_U": {"kind": "disk64", "radius": x}}),
        texts.map(lambda x: {"seed": x}),
    )
    singular_not_list = st.one_of(
        texts, st.integers(), st.none(), st.just(DROP_CONFIG["singular"][0])
    ).map(lambda x: {"singular": x})
    no_radius = st.one_of(
        st.just({}), st.tuples(numbers, numbers).map(lambda c: {"center": list(c)})
    ).map(lambda extra: {"region_U": dict(kind="disk64", **extra)})
    return st.one_of(matrices, misplaced_strings, singular_not_list, no_radius).map(
        lambda change: (variant(DROP_CONFIG, **change), "dim", []))


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(_index_cases(), _region_cases(), _malformed_cases()))
def test_bad_input_exits_1_with_one_error_line(case):
    config, command, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        err = StringIO()
        with redirect_stderr(err):
            code = main([command, "--config", cfg, "--out", str(Path(tmp) / "o"), *extra])
    assert code == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


class TestInputHandling:
    def test_missing_config(self, tmp_path):
        code = main(["dim", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1

    def test_invalid_config_values(self, tmp_path):
        bad = variant(
            SCALAR_CONFIG,
            singular=[{"rho": 1.0, "t": [1.0, 0.0]}],
        )
        cfg = write_config(tmp_path, bad)
        assert main(["dim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_nan_tol_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCALAR_CONFIG)
        code = main(["dim", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--tol", "nan"])
        assert code == 1
        assert "error: solver settings out of range" in capsys.readouterr().err

    def test_unknown_solver_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variant(SCALAR_CONFIG, solver={"depht": 3}))
        assert main(["dim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: solver: unknown key(s) 'depht'\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, variant(SCALAR_CONFIG, solvr={"depth": 3}))
        assert main(["dim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: config: unknown key(s) 'solvr'\n"

    def test_budget_below_first_level(self, tmp_path, capsys):
        # two regular maps do not fit a budget of one word
        data = variant(DROP_CONFIG, solver={"budget": 1})
        data["regular"].append({"matrix": [[0.15, 0.0], [0.0, 0.15]], "t": [0.5, -0.3]})
        cfg = write_config(tmp_path, data)
        assert main(["dim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "error: word budget 1 exceeded" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["dim", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "command",
    [
        ["render", "--depth", "3"],
        ["check-sep", "--seed", "4"],
        ["boxdim", "--tol", "1e-9"],
        ["witness", "--k1", "0", "--k2", "1", "--threads", "2"],
        ["dim", "--bogus", "1"],
    ],
)
def test_unread_flag_rejected(tmp_path, capsys, command):
    # a flag the subcommand would ignore is a usage error, and a usage
    # error is bad input: exit 1, not argparse's 2
    cfg = write_config(tmp_path, DROP_CONFIG)
    argv = [command[0], "--config", cfg, "--out", str(tmp_path / "o"), *command[1:]]
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    assert main(["dim", "--help"]) == 0
    assert "--depth" in capsys.readouterr().out


class TestStartup:
    def test_cli_import_leaves_scipy_spatial_out(self):
        # scipy.spatial is the slowest import under affdim; only the
        # Hausdorff distance needs it, and it imports it on first use
        src = str(Path(affdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, affdim.cli; print('scipy.spatial' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_check_sep_and_witness_load_no_solver_or_sampler(self, tmp_path):
        # each subcommand imports only the modules it runs, and the lazy
        # package still lists every export
        src = str(Path(affdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        demo = str(Path(src).parent / "demos" / "demo_family.json")
        code = "\n".join([
            "import sys, affdim, affdim.cli",
            "base = ['--config', sys.argv[1], '--out', sys.argv[2]]",
            "assert affdim.cli.main(['check-sep'] + base) == 0",
            "assert affdim.cli.main(['witness', '--k1', '0', '--k2', '1'] + base) == 0",
            "heavy = ('affdim.dimension', 'affdim.attractor', 'affdim.exceptional')",
            "print(sorted(set(heavy) & set(sys.modules)))",
            "print(len(set(affdim.__all__) & set(sorted(dir(affdim)))))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code, demo, str(tmp_path / "out")], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.splitlines()[-2:] == ["[]", "62"]

    def test_delta_loads_no_solver_or_sampler(self, tmp_path):
        # delta runs only the line maps of exceptional.py, which imports
        # the solver inside dimension_drop and the sampler inside
        # invariance_clouds
        src = str(Path(affdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        demo = str(Path(src).parent / "demos" / "demo_family.json")
        code = "\n".join([
            "import sys, affdim.cli",
            "argv = ['delta', '--config', sys.argv[1], '--out', sys.argv[2],",
            "        '--word-a', '0', '--word-b', '0,0']",
            "assert affdim.cli.main(argv) == 0",
            "heavy = ('affdim.dimension', 'affdim.attractor', 'affdim.exceptional')",
            "print(sorted(set(heavy) & set(sys.modules)))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code, demo, str(tmp_path / "out")], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.splitlines()[-1] == "['affdim.exceptional']"

    def test_no_subcommand_loads_numpy_ma_and_dim_skips_logging(self, tmp_path):
        # np.unique imports numpy.ma on its first call, and the solver's
        # one warning imports logging only when it fires; all eight
        # subcommands run in one process, so any of them would show
        src = str(Path(affdim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        demo = str(Path(src).parent / "demos" / "demo_family.json")
        code = "\n".join([
            "import sys, affdim.cli",
            "base = ['--config', sys.argv[1], '--out', sys.argv[2]]",
            "runs = [['dim'], ['sweep', '--steps', '4'], ['check-sep'], ['render'],",
            "        ['boxdim', '--points', '4096'], ['exceptional'],",
            "        ['delta', '--word-a', '0', '--word-b', '0,0'],",
            "        ['witness', '--k1', '0', '--k2', '1']]",
            "for argv in runs:",
            "    assert affdim.cli.main(argv + base) == 0, argv",
            "    if argv == ['dim']:",
            "        print('logging after dim', 'logging' in sys.modules)",
            "print('numpy.ma after all', 'numpy.ma' in sys.modules)",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code, demo, str(tmp_path / "out")], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        lines = [line for line in out.stdout.splitlines() if " after " in line]
        assert lines == ["logging after dim False", "numpy.ma after all False"]
