"""CLI subcommands: happy paths, exit codes, determinism, fault injection."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gdms import cli
from gdms.walks import srw_spectral_radius

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(command, config, tmp_path, name="out"):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    outdir = tmp_path / name
    code = cli.main([command, "--config", str(cfg_path), "--output-dir", str(outdir)])
    return code, outdir


GDMS_THIRD = {"d": 2, "ratio": 1 / 3}
Z2_QUOTIENT = {"type": "finite_perm", "degree": 2, "images": [[1, 0], [1, 0]]}
ZZ_QUOTIENT = {"type": "abelianization", "rank": 2, "images": [[1, 0], [0, 1]]}


class TestHappyPaths:
    def test_delta_full(self, tmp_path):
        code, outdir = run_cli("delta-full", {"gdms": GDMS_THIRD}, tmp_path)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["results"]["delta_full"]["value"] == pytest.approx(1.0, abs=1e-10)
        assert (outdir / "pressure_curve.csv").exists()

    def test_delta_full_d3(self, tmp_path):
        code, outdir = run_cli(
            "delta-full", {"gdms": {"d": 3, "ratio": 0.2}}, tmp_path
        )
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["results"]["delta_full"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_delta_kernel(self, tmp_path):
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT, "params": {"n_max": 20}}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["ratio"]["value"] == pytest.approx(1.0, abs=1e-3)
        assert res["delta_kernel"]["kind"] == "estimate"
        assert res["divergence_at_half"]["tail_nondecreasing"]
        assert (outdir / "kernel_table_half.csv").exists()

    def test_amenability(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": Z2_QUOTIENT,
            "params": {"radii": [1, 2, 3]},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["verdict"] == "consistent-with-amenable"
        assert not res["inconsistent"]
        assert (outdir / "dichotomy_ladder.csv").exists()
        assert (outdir / "walk_ladder.csv").exists()
        assert res["dichotomy"]["method"] == res["walk"]["method"] == "finite"

    def test_amenability_nilpotent_tree(self, tmp_path):
        # G = F_2 itself: every truncated skew operator lives on a tree and
        # is nilpotent, but the walk mu_{s*} that decides the dichotomy is
        # the simple random walk on the tree, with a positive ladder.
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": {"type": "free_quotient", "kill": []},
            "params": {"radii": [2, 4]},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        dich = res["dichotomy"]
        assert dich["method"] == "tree-radial"
        assert dich["weights"] == [0.25] * 4
        assert dich["rho"] == pytest.approx(res["walk"]["rho"], abs=1e-14)
        assert 0.0 < dich["rho"][0] < dich["rho"][1] < math.sqrt(3) / 2
        assert dich["verdict"] == "consistent-with-non-amenable"
        assert res["verdict"] == "consistent-with-non-amenable"

    @pytest.mark.parametrize(
        "quotient, radii",
        [
            # S_4: both ladders run once, on the whole group
            ({"type": "finite_perm", "degree": 4,
              "images": [[1, 2, 3, 0], [1, 0, 2, 3]]}, [1, 2]),
            # Z^2: two rungs are enough to extrapolate
            (ZZ_QUOTIENT, [12, 16]),
        ],
        ids=["s4", "zz"],
    )
    def test_amenability_ladders_agree(self, tmp_path, quotient, radii):
        cfg = {"gdms": GDMS_THIRD, "quotient": quotient,
               "params": {"radii": radii, "kernel_n_max": 8}}
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert not res["inconsistent"]
        assert res["verdict"] == "consistent-with-amenable"

    @pytest.mark.parametrize(
        "stem, shared", [("amenability_zz", True), ("amenability_f2q", False)]
    )
    def test_walk_cross_check_reuses_an_equal_walk(self, tmp_path, monkeypatch, stem, shared):
        # Z^2 with equal ratios: mu_{s*} is exactly the simple random walk, so
        # its ladder is reported once; F_3 -> F_2 gives a lazy mu_{s*} and a
        # non-lazy simple random walk, which needs its own ladder.
        runs = []

        def counting(*args, **kwargs):
            runs.append(args)
            return srw_spectral_radius(*args, **kwargs)

        monkeypatch.setattr(cli, "srw_spectral_radius", counting)
        cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        dich, walk = res["dichotomy"], res["walk"]
        assert len(runs) == (0 if shared else 1)
        assert ("dichotomy ladder" in walk["note"]) == shared
        if shared:
            assert dich["weights"] == [0.25] * 4
            for key in ("radii", "rho", "iterations", "residuals", "method"):
                assert walk[key] == dich[key]
            assert (outdir / "walk_ladder.csv").read_bytes() == (
                outdir / "dichotomy_ladder.csv"
            ).read_bytes()
        else:
            assert walk["note"] == ""
            assert walk["rho"] != dich["rho"]

    def test_amenability_trivial_abelian_quotient(self, tmp_path):
        # both letters map to 0 in Z: the quotient is trivial although the
        # abelian backend does not know its order, and it has no Cayley edges
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": {"type": "abelianization", "rank": 1, "images": [[0], [0]]},
            "params": {"radii": [2, 4], "kernel_n_max": 8},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["verdict"] == "consistent-with-amenable"
        assert res["dichotomy"]["rho"] == [1.0, 1.0]
        assert res["walk"] is None
        assert not (outdir / "walk_ladder.csv").exists()

    def test_amenability_solver_diagnostics(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"radii": [2, 4, 6], "kernel_n_max": 8},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        for ladder in (res["dichotomy"], res["walk"]):
            assert len(ladder["iterations"]) == len(ladder["residuals"]) == 3
            assert all(isinstance(n, int) and n > 0 for n in ladder["iterations"])
            assert all(0.0 <= r <= 1e-11 for r in ladder["residuals"])

    def test_pressure_curve(self, tmp_path):
        cfg = {"gdms": GDMS_THIRD, "params": {"s_grid": [0.0, 0.5, 1.0]}}
        code, outdir = run_cli("pressure-curve", cfg, tmp_path)
        assert code == 0
        lines = (outdir / "pressure_curve.csv").read_text().splitlines()
        assert lines[0] == "s,pressure,rho,iterations,residual"
        assert len(lines) == 4

    def test_symmetry_check(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"n_max": 6, "radius": 3},
        }
        code, outdir = run_cli("symmetry-check", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["max_rel_asymmetry"] <= 1e-12

    def test_walks(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": {"type": "free_quotient", "kill": []},
            "params": {"radii": [4, 6, 8], "radius": 4},
        }
        code, outdir = run_cli("walks", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["final_estimate"]["kind"] == "estimate"
        assert res["method"] == "tree-radial"
        assert len(res["iterations"]) == len(res["residuals"]) == 3

    def test_render_full(self, tmp_path):
        cfg = {"gdms": GDMS_THIRD, "params": {"depth": 8, "resolution": 128}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        assert (outdir / "attractor.pgm").read_bytes().startswith(b"P5\n")
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert abs(res["box_count"]["slope"]["value"] - 1.0) <= 0.1

    def test_render_induced(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": Z2_QUOTIENT,
            "params": {
                "subset": "induced",
                "L_max": 2,
                "composition_depth": 4,
                "resolution": 128,
            },
        }
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["n_loops"] == 12
        assert res["induced_bowen_root"]["value"] == pytest.approx(1.0, abs=1e-8)
        loops = json.loads((outdir / "loops.json").read_text())
        assert len(loops) == 12
        assert {"word", "log_weight", "first_letter", "last_letter"} <= set(loops[0])


class TestExitCodes:
    def test_malformed_ratio_is_config_error(self, tmp_path, capsys):
        code, _ = run_cli("delta-full", {"gdms": {"d": 2, "ratio": 1.2}}, tmp_path)
        assert code == 2
        assert "ratio" in capsys.readouterr().err

    def test_missing_quotient(self, tmp_path):
        code, _ = run_cli("delta-kernel", {"gdms": GDMS_THIRD}, tmp_path)
        assert code == 2

    def test_shipped_schema_is_valid(self):
        # runs validate against the schema without checking it each time
        jsonschema.Draft202012Validator.check_schema(cli.load_schema())

    def test_unknown_config_field(self, tmp_path):
        code, _ = run_cli(
            "delta-full", {"gdms": GDMS_THIRD, "bogus": 1}, tmp_path
        )
        assert code == 2

    def test_nonsymmetric_amenability_rejected(self, tmp_path):
        cfg = {
            "gdms": {"d": 2, "ratios": [0.3, 0.25, 0.2, 0.2]},
            "quotient": Z2_QUOTIENT,
        }
        code, _ = run_cli("amenability", cfg, tmp_path)
        assert code == 2

    def test_cap_exceeded(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"radii": [6], "caps": {"ball": 10}},
        }
        code, _ = run_cli("amenability", cfg, tmp_path)
        assert code == 3

    def test_induced_render_respects_ball_cap(self, tmp_path, capsys):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"subset": "induced", "L_max": 6, "caps": {"ball": 5}},
        }
        code, _ = run_cli("render", cfg, tmp_path)
        assert code == 3
        assert "ball of radius 3 exceeds cap 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"subset": "full", "depth": 5, "L_max": 7, "composition_depth": 9}, "L_max"),
            ({"depth": 5, "composition_depth": 9}, "composition_depth"),
            ({"subset": "induced", "L_max": 2, "depth": 5}, "depth"),
        ],
        ids=["full-L_max", "full-composition_depth", "induced-depth"],
    )
    def test_render_rejects_other_subset_keys(self, tmp_path, capsys, params, key):
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT, "params": params}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 2
        assert f"params.{key} " in capsys.readouterr().err
        assert not outdir.exists()

    def test_render_echoes_only_read_keys(self, tmp_path):
        full = {"gdms": GDMS_THIRD, "params": {"depth": 6, "resolution": 32}}
        induced = {
            "gdms": GDMS_THIRD,
            "quotient": Z2_QUOTIENT,
            "params": {"subset": "induced", "L_max": 2, "resolution": 32},
        }
        assert run_cli("render", full, tmp_path, "full")[0] == 0
        assert run_cli("render", induced, tmp_path, "induced")[0] == 0
        out_full, out_induced = tmp_path / "full", tmp_path / "induced"
        echo_full = json.loads((out_full / "report.json").read_text())["config"]["params"]
        echo_induced = json.loads((out_induced / "report.json").read_text())["config"]["params"]
        assert "depth" in echo_full
        assert not {"L_max", "composition_depth"} & set(echo_full)
        assert {"L_max", "composition_depth"} <= set(echo_induced)
        assert "depth" not in echo_induced

    def test_infeasible_layout(self, tmp_path):
        code, _ = run_cli("render", {"gdms": {"d": 2, "ratio": 0.6}}, tmp_path)
        assert code == 2

    def test_inconsistent_cross_check(self, tmp_path, monkeypatch):
        # force the walk verdict to disagree with the dichotomy verdict
        monkeypatch.setattr(
            cli, "ladder_verdict", lambda est: "consistent-with-non-amenable"
        )
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": Z2_QUOTIENT,
            "params": {"radii": [1, 2]},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 5
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["verdict"] == "INCONSISTENT"
        assert res["inconsistent"]

    @pytest.mark.parametrize(
        "dead", [{"seed": 1}, {"tolerances": {"spectral": 1e-6}}], ids=["seed", "tolerances"]
    )
    def test_removed_params_rejected(self, tmp_path, dead):
        cfg = {"gdms": GDMS_THIRD, "params": dead}
        code, _ = run_cli("delta-full", cfg, tmp_path)
        assert code == 2

    def test_combine_verdicts(self):
        v, bad = cli.combine_verdicts("a", "a")
        assert v == "a" and not bad
        v, bad = cli.combine_verdicts("a", "b")
        assert v == "INCONSISTENT" and bad
        v, bad = cli.combine_verdicts("a", None)
        assert v == "a" and not bad


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": Z2_QUOTIENT,
            "params": {"n_max": 16},
        }
        _, out1 = run_cli("delta-kernel", cfg, tmp_path, "run1")
        _, out2 = run_cli("delta-kernel", cfg, tmp_path, "run2")
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
        assert (out1 / "kernel_table_half.csv").read_bytes() == (
            out2 / "kernel_table_half.csv"
        ).read_bytes()

    @pytest.mark.parametrize("env", ["GDMS_BALL_CAP", "GDMS_POINT_CAP", "GDMS_LOOP_CAP"])
    def test_malformed_env_cap_is_config_error(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv(env, "abc")
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT, "params": {"n_max": 8}}
        code, _ = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 2
        assert env in capsys.readouterr().err

    def test_env_cap_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GDMS_BALL_CAP", "10")
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"radii": [6]},
        }
        code, _ = run_cli("amenability", cfg, tmp_path)
        assert code == 3


class TestStartup:
    def test_import_leaves_scipy_sparse_unloaded(self):
        # Nothing needs scipy: importing the CLI must not load any of it.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys, gdms.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_amenability_leaves_sparse_eigensolvers_unloaded(self, tmp_path):
        # The walk on a Cayley ball reads the ball's move table and the
        # Perron solver is plain numpy, so the generic walk path of the Z^2
        # amenability op loads no scipy module at all (so no ARPACK).
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gdms": GDMS_THIRD,
            "quotient": ZZ_QUOTIENT,
            "params": {"radii": [2, 4], "kernel_n_max": 8},
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys, gdms.cli; "
            f"code = gdms.cli.main(['amenability', '--config', {str(cfg)!r}, "
            f"'--output-dir', {str(tmp_path / 'out')!r}]); "
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "0 []"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["walk"]["method"] == "generic"
        assert report["results"]["dichotomy"]["method"] == "generic"

    def test_word_names(self):
        assert cli._word_str((0, 1, 2, 3)) == "g1 g1~ g2 g2~"
        assert cli._word_str(()) == ""
        assert cli._word_str((5,)) == "g3~"
