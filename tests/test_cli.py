import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affdim
from affdim import (
    SCHEMA_VERSION,
    config_dict,
    config_digest,
    parse_config,
    serialize_config,
)
from affdim.cli import main
from affdim.errors import ConfigError

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
        again = parse_config(config_dict(cfg))
        assert config_digest(cfg) == config_digest(again)
        text = serialize_config(cfg)
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
        # the file holds "%.12g" of every coordinate, one "x,y" row per point
        cfg = write_config(tmp_path, DROP_CONFIG)
        out = tmp_path / "out"
        code = main(["boxdim", "--config", cfg, "--out", str(out),
                     "--points", "4096", "--seed", "5"])
        assert code == 0
        cloud = affdim.chaos_game(parse_config(DROP_CONFIG).family, 0.0, 4096, 5)
        rows = ["x,y"] + ["%s,%s" % ("%.12g" % p[0], "%.12g" % p[1]) for p in cloud.points]
        assert (out / "points.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


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
