"""CLI subcommands: happy paths, exit codes, determinism, fault injection."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gdms import ConvergenceError, cli, letter_name, skew, walks
from gdms.walks import srw_spectral_radius

from test_acceptance import REFERENCE_RUNS

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
# S_9, 362,880 elements, from a transposition and a 9-cycle
S9_QUOTIENT = {"type": "finite_perm", "degree": 9,
               "images": [[1, 0, *range(2, 9)], [*range(1, 9), 0]]}

# The gdms modules that ``import gdms.cli`` loads: what load_config and run need.
CLI_MODULES = ("cli", "errors", "groups", "linalg", "pressure", "reports")
PACKAGE_SUBMODULES = ("errors", "groups", "kernel", "linalg", "render", "skew", "walks")
PACKAGE_NAMES = (
    *PACKAGE_SUBMODULES,
    "Ball", "BoxCountResult", "CapExceededError", "ConfigError", "ConvergenceError",
    "DeltaKernelResult", "DichotomyReport", "FinitePermQuotient", "FreeAbelianQuotient",
    "FreeQuotient", "GdmsError", "GeometricRealization", "InconsistentReportError",
    "InducedSystem", "IsoperimetricReport", "KernelCountTable", "KernelPressureEstimate",
    "LayoutInfeasibleError", "LinearGdmsSpec", "PointCloud", "QuotientGroup",
    "SkewOperator", "SymmetryReport", "WalkLadder",
    "amenability_report", "attractor_points", "auto_layout", "ball", "bowen_root",
    "box_counting", "build_skew_operator", "check_asymptotic_symmetry", "delta_kernel",
    "divergence_check", "induced_bowen_root", "induced_loops", "isoperimetric_scan",
    "kernel_counts", "kernel_pressure", "letter_name", "perron_data", "pressure",
    "pressure_curve", "render_image", "srw_spectral_radius", "srw_weights",
    "walk_ladder", "walk_step", "write_pgm",
)


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
        # Z/2 is finite, so N has finite index and delta(N) = delta exactly
        assert res["delta_kernel"]["kind"] == "exact"
        assert res["delta_kernel"]["value"] == res["delta_full"]["value"]
        assert res["ratio"]["value"] == 1.0
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

        monkeypatch.setattr(walks, "srw_spectral_radius", counting)
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

    def test_amenability_flags_capped_kernel_table(self, tmp_path):
        # Z^2 at kernel_n_max 40 needs a radius-20 pruning ball (841
        # elements); a ball cap of 100 refuses it, so there is no kernel
        # pressure estimate (a table cut to radius 6 undercounted and read
        # -0.0933), while the walk ladder still fits and the run succeeds
        params = {"radii": [4, 6], "kernel_n_max": 40}
        dich = {}
        for name, caps in (("full", {}), ("capped", {"caps": {"ball": 100}})):
            cfg = {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT, "params": {**params, **caps}}
            code, outdir = run_cli("amenability", cfg, tmp_path, name)
            assert code == 0
            dich[name] = json.loads((outdir / "report.json").read_text())["results"]["dichotomy"]
        assert dich["full"]["kernel_pressure_estimate"] == pytest.approx(-0.0250, abs=1e-4)
        assert dich["capped"]["kernel_pressure_estimate"] is None
        assert dich["capped"]["rho"] == dich["full"]["rho"]
        assert "kernel_table_exact" not in dich["full"]

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

    @pytest.mark.parametrize("s", [-100, -646])
    def test_symmetry_check_at_large_negative_s(self, tmp_path, s):
        # weights 3^-s are finite, but their products over 10 letters are
        # not: the sums are rescaled each step (and at s = -646 the weights)
        cfg = {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT,
               "params": {"n_max": 10, "radius": 3, "s": s}}
        code, outdir = run_cli("symmetry-check", cfg, tmp_path)
        assert code == 0
        rel = json.loads((outdir / "report.json").read_text())["results"]["max_rel_asymmetry"]
        assert rel is not None and math.isfinite(rel) and rel <= 1e-12

    def test_symmetry_check_on_f2_at_n_max_14(self, tmp_path):
        # the radius-14 ball of F_2 has 9,565,937 elements, over the ball
        # cap; the words that end within radius 4 need only radius 9
        cfg = {"gdms": {"d": 2, "ratios_by_generator": [0.3, 0.2]},
               "quotient": {"type": "free_quotient", "kill": []},
               "params": {"n_max": 14, "radius": 4}}
        code, outdir = run_cli("symmetry-check", cfg, tmp_path)
        assert code == 0
        rel = json.loads((outdir / "report.json").read_text())["results"]["max_rel_asymmetry"]
        assert rel <= 1e-12

    def test_symmetry_check_odd_window_fits_cap(self, tmp_path):
        # words of length <= 15 that end within radius 4 keep their prefixes
        # within radius 9 (39,365 elements); radius 10 has 118,097
        cfg = {"gdms": {"d": 2, "ratios_by_generator": [0.3, 0.2]},
               "quotient": {"type": "free_quotient", "kill": []},
               "params": {"n_max": 15, "radius": 4, "caps": {"ball": 50_000}}}
        code, outdir = run_cli("symmetry-check", cfg, tmp_path)
        assert code == 0
        rel = json.loads((outdir / "report.json").read_text())["results"]["max_rel_asymmetry"]
        assert rel <= 1e-12

    def test_delta_kernel_odd_window_fits_cap(self, tmp_path):
        # equal ratios on a free quotient read the cone table, which builds
        # no ball (the ball program needed the radius-10 ball of F_2,
        # 118,097 elements); the cap changes nothing
        cfg = {"gdms": {"d": 3, "ratio": 0.2},
               "quotient": {"type": "free_quotient", "kill": [3]},
               "params": {"n_max": 21}}
        capped = {**cfg, "params": {"n_max": 21, "caps": {"ball": 200_000}}}
        results = []
        for name, config in (("full", cfg), ("capped", capped)):
            code, outdir = run_cli("delta-kernel", config, tmp_path, name)
            assert code == 0
            results.append(json.loads((outdir / "report.json").read_text())["results"])
            assert (outdir / "kernel_table_half.csv").read_bytes() == (
                tmp_path / "full" / "kernel_table_half.csv"
            ).read_bytes()
        assert results[0] == results[1]

    def test_delta_kernel_on_trivial_abelian_quotient_is_exact(self, tmp_path):
        # every word is a kernel word, so delta(N) is the Bowen root
        cfg = {"gdms": GDMS_THIRD,
               "quotient": {"type": "abelianization", "rank": 1, "images": [[0], [0]]},
               "params": {"n_max": 12}}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["delta_kernel"]["kind"] == "exact"
        assert res["delta_kernel"]["value"] == res["delta_full"]["value"]

    def test_symmetry_check_on_s9_reads_a_small_ball(self, tmp_path):
        # radius 2 at n_max 6 needs the radius-4 ball of S_9 (46 elements)
        cfg = {"gdms": GDMS_THIRD, "quotient": S9_QUOTIENT,
               "params": {"n_max": 6, "radius": 2}}
        tracemalloc.start()
        try:
            code, outdir = run_cli("symmetry-check", cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2e6
        rel = json.loads((outdir / "report.json").read_text())["results"]["max_rel_asymmetry"]
        assert rel <= 1e-12


class TestRenderRobustness:
    """Box counting is a cross-check: a render whose box counts cannot be
    fitted still writes its cloud and image, and the default depth fits the
    point cap."""

    REASON = "degenerate regression: fewer than 3 distinct box counts"

    @pytest.mark.parametrize("dimension, depth", [(1, 1), (1, 4), (2, 5)])
    def test_shallow_full_render(self, tmp_path, dimension, depth):
        # with c = 1/3 the default scales 3^-2 .. 3^-6 see fewer than three
        # distinct counts up to depth 4 on the line and 5 in the plane
        cfg = {"gdms": GDMS_THIRD, "params": {"dimension": dimension, "depth": depth}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        box = json.loads((outdir / "report.json").read_text())["results"]["box_count"]
        assert box["slope"] is None and box["reason"] == self.REASON
        assert box["scales"] == sorted((1 / 3) ** k for k in range(2, 7))
        rows = (outdir / "points.csv").read_text().count("\n") - 1
        assert rows == 4 * 3 ** (depth - 1)
        assert (outdir / "attractor.pgm").read_bytes().startswith(b"P5\n")

    def test_shallow_induced_render(self, tmp_path):
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
               "params": {"subset": "induced", "L_max": 2, "composition_depth": 2}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["box_count"]["slope"] is None
        assert res["box_count"]["reason"] == self.REASON
        assert res["points"] == 12 * 9
        assert {p.name for p in outdir.iterdir()} == {
            "report.json", "loops.json", "points.csv", "attractor.pgm"
        }

    @pytest.mark.parametrize("cfg", [
        {"gdms": GDMS_THIRD, "params": {"depth": 4, "scales": [0.5, 0.4, 0.3]}},
        # the induced render computes its loops first, and writes them last
        {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
         "params": {"subset": "induced", "L_max": 2, "scales": [0.5, 0.4, 0.3]}},
    ], ids=["full", "induced"])
    def test_scales_still_config_error(self, tmp_path, capsys, cfg):
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 2
        assert "scales must span at least two octaves" in capsys.readouterr().err
        assert not outdir.exists()

    def test_induced_render_over_point_cap_writes_nothing(self, tmp_path, capsys):
        # 12 loops of L_max 2 over Z_2: level 2 of the cloud has 108 points
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
               "params": {"subset": "induced", "L_max": 2, "composition_depth": 4,
                          "caps": {"points": 100}}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 3
        assert "induced cloud level 2 has 108 points > cap 100" in capsys.readouterr().err
        assert not outdir.exists()

    def test_default_depth_fits_point_cap(self, tmp_path):
        # d = 3: level 9 has 6 * 5^8 = 2,343,750 points, over the default cap
        # of 2,000,000, so the default depth is 8 (468,750 points), not 10
        cfg = {"gdms": {"d": 3, "ratio": 0.2}, "params": {"resolution": 64}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["params"]["depth"] == 8
        assert report["results"]["points"] == 6 * 5**7

    @pytest.mark.parametrize("dimension, depth", [(1, 4), (2, 4)])
    def test_default_depth_fits_given_cap(self, tmp_path, dimension, depth):
        # a cap of 1,000 points: level 4 has 750, level 5 has 3,750
        cfg = {"gdms": {"d": 3, "ratio": 0.2},
               "params": {"dimension": dimension, "caps": {"points": 1000}}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["params"]["depth"] == depth
        assert report["results"]["points"] == 750

    def test_explicit_depth_over_cap_refused(self, tmp_path, capsys):
        cfg = {"gdms": {"d": 3, "ratio": 0.2},
               "params": {"depth": 5, "caps": {"points": 1000}}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 3
        assert "full cloud level 5 has 3750 points > cap 1000" in capsys.readouterr().err
        assert not outdir.exists()

    def test_raster_over_cap_refused(self, tmp_path, capsys):
        # 10^10 pixels: refused before the layout and the cloud are built
        cfg = {"gdms": GDMS_THIRD, "params": {"dimension": 2, "resolution": 100000}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 3
        assert ("raster of 100000 x 100000 pixels exceeds cap 67108864"
                in capsys.readouterr().err)
        assert not outdir.exists()

    def test_subnormal_scales_refused(self, tmp_path, capsys):
        cfg = {"gdms": GDMS_THIRD, "params": {"scales": [1e-320, 1e-310, 1e-300]}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "scale 1e-320 is too small: log(1/eps) is not finite" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("ratio", [1e-100, 1e-160, 1e-200, 1e-300])
    def test_underflowed_default_scales_refused(self, tmp_path, capsys, ratio):
        # the default scales ratio**2 .. ratio**6 underflow to 0.0, which the
        # two-octave check would divide by
        cfg = {"gdms": {"d": 2, "ratio": ratio}, "params": {"depth": 3}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert ("default box-counting scales max(ratio)**k, k = 2..6: "
                "scale 0.0 is too small: log(1/eps) is not finite") in err
        assert "Traceback" not in err
        assert not outdir.exists()


class TestExitCodes:
    def test_malformed_ratio_is_config_error(self, tmp_path, capsys):
        code, _ = run_cli("delta-full", {"gdms": {"d": 2, "ratio": 1.2}}, tmp_path)
        assert code == 2
        assert "ratio" in capsys.readouterr().err

    def test_finite_group_over_ball_cap(self, tmp_path, capsys):
        # the walk needs all of S_9; the search stops at the cap, having
        # built 1,000 elements, not 362,880 (110.6 MB traced)
        cfg = {"gdms": GDMS_THIRD, "quotient": S9_QUOTIENT,
               "params": {"radii": [2, 4], "radius": 3, "caps": {"ball": 1000}}}
        tracemalloc.start()
        try:
            code, outdir = run_cli("walks", cfg, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "cap exceeded: the group has more than 1000 elements" in capsys.readouterr().err
        assert not outdir.exists()
        assert peak <= 2e6

    @pytest.mark.parametrize("command, cfg, where", [
        ("delta-full", {"gdms": {**GDMS_THIRD, "geometry": {"intervals": []}}},
         "gdms.geometry.intervals does not apply to delta-full; it reads no geometry"),
        ("walks", {"gdms": {**GDMS_THIRD, "geometry": {"disks": [[0.0, 0.0, 1.0]]}},
                   "quotient": Z2_QUOTIENT},
         "gdms.geometry.disks does not apply to walks; it reads no geometry"),
        ("render", {"gdms": {**GDMS_THIRD, "geometry": {"disks": [[0.0, 0.0, 1.0]] * 4}}},
         "gdms.geometry.disks does not apply to render subset 'full' in dimension 1; "
         "it reads intervals"),
        ("render", {"gdms": {**GDMS_THIRD, "geometry": {"intervals": []}},
                    "params": {"dimension": 2}},
         "gdms.geometry.intervals does not apply to render subset 'full' in dimension 2; "
         "it reads disks"),
    ], ids=["delta-full", "walks", "render-1d-disks", "render-2d-intervals"])
    def test_unread_geometry_rejected(self, tmp_path, capsys, command, cfg, where):
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 2
        assert where in capsys.readouterr().err
        assert not outdir.exists()

    def test_walks_over_ball_cap_writes_nothing(self, tmp_path, capsys):
        # the radius-2 ladder fits a cap of 100, but the isoperimetric scan
        # to radius 8 needs the radius-9 ball of Z^2 (181 elements)
        cfg = {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT,
               "params": {"radii": [2], "radius": 8, "caps": {"ball": 100}}}
        code, outdir = run_cli("walks", cfg, tmp_path)
        assert code == 3
        assert "ball of radius 9 exceeds cap 100 (largest radius that fits: 6)" in (
            capsys.readouterr().err
        )
        assert not outdir.exists()

    def test_finite_delta_kernel_over_cap_writes_nothing(self, tmp_path, capsys):
        # N has finite index in F_2 -> S_4, so delta(N) = delta without a table,
        # but the divergence check at delta/2 counts one on the radius-12
        # ball; a cap of 5 refuses it (a table cut to radius 1 read
        # tail_nondecreasing false, though the series diverges)
        cfg = {"gdms": GDMS_THIRD,
               "quotient": {"type": "finite_perm", "degree": 4,
                            "images": [[1, 2, 3, 0], [1, 0, 2, 3]]},
               "params": {"n_max": 24, "caps": {"ball": 5}}}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "ball of radius 12 exceeds cap 5 (largest radius that fits: 1)" in err
        assert not outdir.exists()

    def test_amenability_walk_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # unequal ratios make mu_{s*} lazy on Z^2, so the walk ladder runs on
        # its own, after the dichotomy ladder; its failure leaves no files
        def diverging(*args, **kwargs):
            raise ConvergenceError("walk ladder did not converge")

        monkeypatch.setattr(walks, "srw_spectral_radius", diverging)
        cfg = {"gdms": {"d": 2, "ratios_by_generator": [0.3, 0.2]}, "quotient": ZZ_QUOTIENT,
               "params": {"radii": [2, 4], "kernel_n_max": 8}}
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 4
        assert "non-convergence: walk ladder did not converge" in capsys.readouterr().err
        assert not outdir.exists()

    def test_delta_tol_wider_than_half_bracket(self, tmp_path, capsys):
        # the starting bracket is [0, 1.1]; tol 10 would report it unbisected
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT, "params": {"delta_tol": 10}}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 2
        assert "delta_tol 10 is at least half the starting bracket" in capsys.readouterr().err
        assert not outdir.exists()

    def test_missing_quotient(self, tmp_path):
        code, _ = run_cli("delta-kernel", {"gdms": GDMS_THIRD}, tmp_path)
        assert code == 2

    @pytest.mark.parametrize("quotient, message", [
        ({"type": "finite_perm", "images": [[1, 0], [1, 0]]},
         "quotient type 'finite_perm' requires 'degree'"),
        ({**Z2_QUOTIENT, "kill": [1]},
         "quotient.kill does not apply to type 'finite_perm'; it reads degree, images"),
        ({"type": "abelianization", "rank": 2},
         "quotient type 'abelianization' requires 'images'"),
        ({**ZZ_QUOTIENT, "degree": 2},
         "quotient.degree does not apply to type 'abelianization'; it reads rank, images"),
        ({"type": "free_quotient", "kill": [], "rank": 2, "images": [[1, 0], [0, 1]]},
         "quotient.images does not apply to type 'free_quotient'; it reads kill"),
    ], ids=["finite_perm-no-degree", "finite_perm-kill", "abelianization-no-images",
            "abelianization-degree", "free_quotient-rank-images"])
    def test_quotient_keys_match_type(self, tmp_path, capsys, quotient, message):
        # a key the type needs is missing, or one it does not read is given
        cfg = {"gdms": GDMS_THIRD, "quotient": quotient}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path)
        assert code == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("forms", [
        {"ratio": 0.3, "ratios_by_generator": [0.1, 0.2]},
        {"ratio": 0.3, "ratios": [0.3] * 4},
        {"ratios_by_generator": [0.1, 0.2], "ratios": [0.1, 0.1, 0.2, 0.2]},
    ], ids=["ratio-by_generator", "ratio-ratios", "by_generator-ratios"])
    def test_two_ratio_forms_rejected(self, tmp_path, capsys, forms):
        code, outdir = run_cli("delta-full", {"gdms": {"d": 2, **forms}}, tmp_path)
        assert code == 2
        assert "needs exactly one of 'ratio', 'ratios_by_generator' or 'ratios'" in (
            capsys.readouterr().err
        )
        assert not outdir.exists()

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
        err = capsys.readouterr().err
        assert "ball of radius 3 exceeds cap 5 (largest radius that fits: 1)" in err

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
        # Z/2 is amenable, so the walk says so; force the dichotomy verdict
        # to disagree with it
        real = skew.amenability_report
        monkeypatch.setattr(
            skew,
            "amenability_report",
            lambda *a, **k: dataclasses.replace(
                real(*a, **k), verdict="consistent-with-non-amenable"
            ),
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


# The params each command reads, written out independently of cli.READS.
READ_KEYS = {
    "delta-full": {"s_grid"},
    "delta-kernel": {"n_max", "delta_tol", "caps"},
    "amenability": {"radii", "kernel_n_max", "caps"},
    "pressure-curve": {"s_grid"},
    "symmetry-check": {"n_max", "radius", "s", "caps"},
    "walks": {"radii", "radius", "caps"},
    "render subset 'full'": {"dimension", "resolution", "subset", "scales", "depth", "caps"},
    "render subset 'induced'": {
        "dimension", "resolution", "subset", "scales", "L_max", "composition_depth", "caps"
    },
}
NEEDS_QUOTIENT = {
    "delta-kernel", "amenability", "symmetry-check", "walks", "render subset 'induced'"
}
# The caps each row that reads caps reads, written out independently of cli.READS.
READ_CAPS = {
    "delta-kernel": {"ball"},
    "amenability": {"ball"},
    "symmetry-check": {"ball"},
    "walks": {"ball"},
    "render subset 'full'": {"points"},
    "render subset 'induced'": {"ball", "points", "loops"},
}
# one valid value for every params key
VALID_PARAMS = {
    "s": 1.0,
    "s_grid": [0.5],
    "n_max": 4,
    "radii": [2],
    "radius": 2,
    "L_max": 2,
    "depth": 3,
    "composition_depth": 2,
    "dimension": 1,
    "subset": "full",
    "scales": [0.1, 0.01, 0.001],
    "resolution": 8,
    "kernel_n_max": 4,
    "delta_tol": 1e-3,
    "caps": {"ball": 100},
}


def _base_config(row):
    """A config for a table row: its command, plus the subset and quotient it needs."""
    command, *subset = row.replace("'", "").split(" subset ")
    cfg = {"gdms": GDMS_THIRD, "params": {"subset": subset[0]} if subset else {}}
    if row in NEEDS_QUOTIENT:
        cfg["quotient"] = Z2_QUOTIENT
    return command, cfg


class TestParamsTable:
    def test_table_rows(self):
        assert set(VALID_PARAMS) == set().union(*(keys for _, keys in cli.READS.values()))
        assert set(cli.READS) == set(READ_KEYS)
        for row, keys in READ_KEYS.items():
            needs_quotient, defaults = cli.READS[row]
            assert set(defaults) == keys, row
            assert needs_quotient == (row in NEEDS_QUOTIENT), row

    def test_table_caps(self):
        assert {row for row, keys in READ_KEYS.items() if "caps" in keys} == set(READ_CAPS)
        for row, caps in READ_CAPS.items():
            assert set(cli.READS[row][1]["caps"]) == caps, row

    @pytest.mark.parametrize("row", sorted(set(READ_CAPS) - {"render subset 'induced'"}))
    def test_unread_caps_rejected(self, tmp_path, capsys, row):
        # e.g. delta-kernel with caps.points: only render draws points
        command, base = _base_config(row)
        for cap in sorted({"ball", "points", "loops"} - READ_CAPS[row]):
            cfg = {**base, "params": {**base["params"], "caps": {cap: 5}}}
            code, outdir = run_cli(command, cfg, tmp_path, cap)
            assert code == 2, (row, cap)
            assert f"params.caps.{cap} does not apply to {command}" in capsys.readouterr().err
            assert not outdir.exists(), (row, cap)

    @pytest.mark.parametrize("row, params", [
        ("delta-kernel", {"n_max": 20}),
        ("amenability", {"radii": [2], "kernel_n_max": 20}),
        ("symmetry-check", {"n_max": 4}),
        ("walks", {"radii": [2], "radius": 2}),
        ("render subset 'full'", {"depth": 6, "resolution": 32}),
        ("render subset 'induced'", {"L_max": 2, "composition_depth": 3, "resolution": 32}),
    ])
    def test_read_caps_accepted(self, tmp_path, row, params):
        command, base = _base_config(row)
        caps = dict.fromkeys(sorted(READ_CAPS[row]), 10**6)
        cfg = {**base, "params": {**base["params"], **params, "caps": caps}}
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 0
        echo = json.loads((outdir / "report.json").read_text())["config"]["params"]
        assert echo["caps"] == caps

    @pytest.mark.parametrize("row", sorted(READ_KEYS))
    def test_unread_keys_rejected(self, tmp_path, capsys, row):
        command, base = _base_config(row)
        for key in sorted(set(VALID_PARAMS) - READ_KEYS[row]):
            cfg = {**base, "params": {**base["params"], key: VALID_PARAMS[key]}}
            code, outdir = run_cli(command, cfg, tmp_path, key)
            assert code == 2, (row, key)
            assert f"params.{key} does not apply to {command}" in capsys.readouterr().err
            assert not outdir.exists(), (row, key)

    @pytest.mark.parametrize("row", ["delta-full", "pressure-curve", "render subset 'full'"])
    def test_stray_quotient_rejected(self, tmp_path, capsys, row):
        command, cfg = _base_config(row)
        code, outdir = run_cli(command, {**cfg, "quotient": Z2_QUOTIENT}, tmp_path)
        assert code == 2
        assert "quotient does not apply" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("row", sorted(NEEDS_QUOTIENT))
    def test_missing_quotient_rejected(self, tmp_path, capsys, row):
        command, cfg = _base_config(row)
        del cfg["quotient"]
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 2
        assert "requires a 'quotient' section" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "i", range(len(REFERENCE_RUNS)), ids=[cmd for cmd, _ in REFERENCE_RUNS]
    )
    def test_reference_runs_echo_read_keys(self, tmp_path, i):
        # every key the command read is echoed with its value, caps only when given
        command, cfg = REFERENCE_RUNS[i]
        given = cfg.get("params", {})
        row = command
        if command == "render":
            row = f"render subset {given.get('subset', 'full')!r}"
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 0
        echo = json.loads((outdir / "report.json").read_text())["config"]
        assert set(echo["params"]) == READ_KEYS[row] - {"caps"}
        assert {k: echo["params"][k] for k in given} == given
        assert {k: v for k, v in echo.items() if k != "params"} == {
            k: v for k, v in cfg.items() if k != "params"
        }

    @pytest.mark.parametrize(
        "command, echo",
        [
            ("delta-kernel", {"n_max": 24, "delta_tol": 5e-4}),
            ("amenability", {"radii": [4, 6, 8, 10, 12], "kernel_n_max": 20}),
            ("symmetry-check", {"n_max": 10, "radius": 5, "s": 1.0}),
            ("walks", {"radii": [2, 4, 6, 8, 10, 12], "radius": 8}),
        ],
    )
    def test_defaults_echoed(self, tmp_path, command, echo):
        cfg = {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT}
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 0
        assert json.loads((outdir / "report.json").read_text())["config"]["params"] == echo

    @pytest.mark.parametrize("command, points", [("delta-full", 16), ("pressure-curve", 21)])
    def test_default_s_grid(self, tmp_path, command, points):
        code, outdir = run_cli(command, {"gdms": GDMS_THIRD}, tmp_path)
        assert code == 0
        grid = json.loads((outdir / "report.json").read_text())["config"]["params"]["s_grid"]
        assert grid == [round(x, 12) for x in np.linspace(0.0, 1.5, points)]

    def test_inconsistent_report_written_without_walk(self, tmp_path, monkeypatch, capsys):
        # a trivial quotient has no walk ladder; a dichotomy that disagrees
        # with its amenable walk verdict still writes the report, then exits 5
        real = skew.amenability_report
        monkeypatch.setattr(
            skew,
            "amenability_report",
            lambda *a, **k: dataclasses.replace(
                real(*a, **k), verdict="consistent-with-non-amenable"
            ),
        )
        cfg = {
            "gdms": GDMS_THIRD,
            "quotient": {"type": "abelianization", "rank": 1, "images": [[0], [0]]},
            "params": {"radii": [2], "kernel_n_max": 8},
        }
        code, outdir = run_cli("amenability", cfg, tmp_path)
        assert code == 5
        assert (
            "dichotomy says consistent-with-non-amenable but walk says "
            "consistent-with-amenable"
        ) in capsys.readouterr().err
        report = json.loads((outdir / "report.json").read_text())
        assert report["results"]["walk"] is None
        assert report["results"]["verdict"] == "INCONSISTENT"
        assert report["config"]["params"] == {"radii": [2], "kernel_n_max": 8}

    def test_delta_kernel_reports_truncated_tables(self, tmp_path, capsys):
        # Z^2 at n_max 18 needs a radius-9 pruning ball (181 elements); under a
        # cap of 60 every table is cut and undercounts, so the run is refused
        cfg = {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT, "params": {"n_max": 18}}
        code, outdir = run_cli("delta-kernel", cfg, tmp_path, "full")
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert "truncated" not in res["delta_kernel"]
        assert "exact" not in res["divergence_at_half"]
        assert (outdir / "kernel_table_half.csv").read_text().splitlines()[0] == "n,log_a_n"
        capped = {**cfg, "params": {"n_max": 18, "caps": {"ball": 60}}}
        code, outdir = run_cli("delta-kernel", capped, tmp_path, "capped")
        assert code == 3
        err = capsys.readouterr().err
        assert "ball of radius 9 exceeds cap 60 (largest radius that fits: 4)" in err
        assert not outdir.exists()


def _bad(row, path, fault, gdms=None, quotient=None, params=None, **root):
    """A config for a READS row that is valid but for the given overrides."""
    cfg = {"gdms": {**GDMS_THIRD, **(gdms or {})}, **root}
    if row in NEEDS_QUOTIENT or quotient:
        cfg["quotient"] = {**Z2_QUOTIENT, **(quotient or {})}
    if params is not None:
        cfg["params"] = params
    return pytest.param(row.split(" subset ")[0], cfg, path, id=f"{path}:{fault}")


NAN, INF = float("nan"), float("inf")
# (command, config, path of the field the message names), at least one case
# for each kind of fault
BAD_CONFIGS = [
    # unknown keys, one per section
    _bad("delta-full", "<root>", "unknown", bogus=1),
    _bad("delta-full", "gdms", "unknown", gdms={"bogus": 1}),
    _bad("delta-full", "gdms/geometry", "unknown", gdms={"geometry": {"bogus": []}}),
    _bad("delta-kernel", "quotient", "unknown", quotient={"bogus": 1}),
    _bad("delta-full", "params", "unknown", params={"seed": 1}),
    _bad("delta-kernel", "params/caps", "unknown", params={"caps": {"bogus": 1}}),
    # missing required keys, and sections of the wrong type
    pytest.param("delta-full", {"params": {}}, "<root>", id="no-gdms"),
    pytest.param("delta-full", {"gdms": {"ratio": 0.3}}, "gdms", id="no-d"),
    pytest.param(
        "delta-kernel", {"gdms": GDMS_THIRD, "quotient": {"degree": 2}}, "quotient",
        id="no-type",
    ),
    pytest.param("delta-full", [], "<root>", id="root-list"),
    _bad("delta-full", "params", "type", params=[]),
    _bad("delta-full", "output_dir", "type", output_dir=3),
    # bounds and enums
    _bad("delta-full", "gdms/d", "min", gdms={"d": 1}),
    _bad("delta-full", "gdms/ratio", "min", gdms={"ratio": 0}),
    _bad("delta-full", "gdms/ratio", "max", gdms={"ratio": 1.0}),
    _bad("delta-full", "gdms/ratios/3", "max", gdms={"ratios": [0.2, 0.2, 0.2, 1.5]}),
    _bad(
        "delta-full", "gdms/ratios_by_generator/1", "min",
        gdms={"ratios_by_generator": [0.2, 0]},
    ),
    _bad("delta-kernel", "quotient/type", "enum", quotient={"type": "cyclic"}),
    _bad("delta-kernel", "quotient/degree", "min", quotient={"degree": 0}),
    _bad("walks", "quotient/rank", "min", quotient={"type": "abelianization", "rank": 0}),
    _bad("walks", "quotient/kill/0", "min", quotient={"type": "free_quotient", "kill": [0]}),
    _bad("delta-kernel", "quotient/images/0/1", "type", quotient={"images": [[1, 0.5], [1, 0]]}),
    _bad("delta-kernel", "params/n_max", "min", params={"n_max": 0}),
    _bad("delta-kernel", "params/delta_tol", "min", params={"delta_tol": 0}),
    _bad("delta-kernel", "params/caps/ball", "min", params={"caps": {"ball": 0}}),
    _bad("render subset 'full'", "params/caps/points", "min", params={"caps": {"points": 0}}),
    _bad("render subset 'induced'", "params/caps/loops", "min", params={"caps": {"loops": 0}}),
    _bad("amenability", "params/kernel_n_max", "min", params={"kernel_n_max": 0}),
    _bad("walks", "params/radii/1", "min", params={"radii": [2, -1]}),
    _bad("walks", "params/radius", "min", params={"radius": 0}),
    _bad("render subset 'full'", "params/depth", "min", params={"depth": 0}),
    _bad("render subset 'full'", "params/dimension", "enum", params={"dimension": 3}),
    _bad("render subset 'full'", "params/subset", "enum", params={"subset": "half"}),
    _bad("render subset 'full'", "params/resolution", "min", params={"resolution": 0}),
    _bad("render subset 'full'", "params/scales/2", "min", params={"scales": [0.1, 0.01, 0]}),
    _bad(
        "render subset 'induced'", "params/L_max", "min",
        params={"subset": "induced", "L_max": 0},
    ),
    _bad(
        "render subset 'induced'", "params/composition_depth", "min",
        params={"subset": "induced", "composition_depth": 0},
    ),
    # lists too short or too long
    _bad("pressure-curve", "params/s_grid", "short", params={"s_grid": []}),
    _bad("walks", "params/radii", "short", params={"radii": []}),
    _bad("render subset 'full'", "params/scales", "short", params={"scales": [0.1, 0.01]}),
    _bad(
        "render subset 'full'", "gdms/geometry/intervals/0", "long",
        gdms={"geometry": {"intervals": [[0.0, 0.1, 0.2]]}},
    ),
    _bad(
        "render subset 'full'", "gdms/geometry/disks/0", "short",
        gdms={"geometry": {"disks": [[0.0, 0.1]]}},
    ),
    # a bool is neither an integer nor a number
    _bad("delta-kernel", "params/n_max", "bool", params={"n_max": True}),
    _bad("symmetry-check", "params/s", "bool", params={"s": False}),
    _bad("delta-full", "gdms/ratio", "bool", gdms={"ratio": True}),
    # non-finite numbers
    _bad("delta-kernel", "params/delta_tol", "nan", params={"delta_tol": NAN}),
    _bad("symmetry-check", "params/s", "inf", params={"s": INF}),
    _bad("pressure-curve", "params/s_grid/0", "inf", params={"s_grid": [-INF]}),
    _bad("delta-full", "gdms/ratio", "nan", gdms={"ratio": NAN}),
    # integral floats are not integers
    _bad("delta-kernel", "params/n_max", "integral-float", params={"n_max": 8.0}),
    _bad("delta-kernel", "quotient/degree", "integral-float", quotient={"degree": 2.0}),
    _bad("walks", "params/radii/0", "integral-float", params={"radii": [2.0, 4]}),
    _bad("render subset 'full'", "params/depth", "integral-float", params={"depth": 4.0}),
]


class TestConfigCheck:
    @pytest.mark.parametrize("command, cfg, path", BAD_CONFIGS)
    def test_bad_config_rejected(self, tmp_path, capsys, command, cfg, path):
        code, outdir = run_cli(command, cfg, tmp_path)
        assert code == 2
        assert f"config error: config field {path}: " in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("pressure-curve", {"gdms": GDMS_THIRD, "params": {"s_grid": [700]}}),
            ("pressure-curve", {"gdms": GDMS_THIRD, "params": {"s_grid": [-700]}}),
            ("symmetry-check", {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT,
                                "params": {"n_max": 4, "s": -1e308}}),
        ],
        ids=["underflow", "overflow", "symmetry-overflow"],
    )
    def test_letter_weights_out_of_range(self, tmp_path, capsys, command, cfg):
        code, _ = run_cli(command, cfg, tmp_path)
        assert code == 2
        s = cfg["params"].get("s", cfg["params"].get("s_grid", [None])[0])
        assert f"c(v)^s underflow or overflow at s = {float(s)!r}" in capsys.readouterr().err


class TestExplicitGeometry:
    """``gdms.geometry`` gives render the phase set of each letter."""

    @pytest.mark.parametrize("dimension, key, phase, depth", [
        (1, "intervals", [[0, 1], [2, 3], [4, 5], [6, 7]], 6),
        (2, "disks", [[0, 0, 1], [3, 0, 1], [0, 3, 1], [3, 3, 1]], 5),
    ], ids=["intervals", "disks"])
    def test_points_lie_in_given_phase_sets(self, tmp_path, dimension, key, phase, depth):
        cfg = {"gdms": {**GDMS_THIRD, "geometry": {key: phase}},
               "params": {"dimension": dimension, "depth": depth}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 0
        res = json.loads((outdir / "report.json").read_text())["results"]
        assert res["osc_margin"] >= 0
        rows = [line.split(",") for line in (outdir / "points.csv").read_text().splitlines()[1:]]
        assert len(rows) == res["points"] == 4 * 3 ** (depth - 1)
        code_of = {letter_name(c): c for c in range(4)}
        for *coords, word in rows:
            # a point lies in the phase set of its word's first letter
            x = np.array(coords, dtype=float)
            p = phase[code_of[word.split()[0]]]
            if dimension == 1:
                assert p[0] - 1e-12 <= x[0] <= p[1] + 1e-12, (x, word)
            else:
                assert np.hypot(*(x - p[:2])) <= p[2] + 1e-12, (x, word)

    @pytest.mark.parametrize("dimension, key, phase, message", [
        (1, "intervals", [[0, 1], [0.5, 1.5], [4, 5], [6, 7]],
         "phase intervals must be disjoint"),
        (1, "intervals", [[0, 1], [2, 3], [4, 5]], "geometry.intervals must list 4 intervals"),
        (2, "disks", [[0, 0, 1], [1, 0, 1], [0, 3, 1], [3, 3, 1]],
         "phase disks must be disjoint"),
        (2, "disks", [[0, 0, -1], [3, 0, 1], [0, 3, 1], [3, 3, 1]],
         "phase disks must have positive radius"),
        (2, "disks", [[0, 0, 0], [3, 0, 1], [0, 3, 1], [3, 3, 1]],
         "phase disks must have positive radius"),
    ], ids=["overlapping-intervals", "three-intervals", "overlapping-disks",
            "negative-radius", "zero-radius"])
    def test_bad_phase_sets_rejected(self, tmp_path, capsys, dimension, key, phase, message):
        cfg = {"gdms": {**GDMS_THIRD, "geometry": {key: phase}},
               "params": {"dimension": dimension}}
        code, outdir = run_cli("render", cfg, tmp_path)
        assert code == 2
        assert f"config error: {message}\n" == capsys.readouterr().err
        assert not outdir.exists()


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


class TestStartup:
    def test_import_leaves_scipy_sparse_unloaded(self):
        # Nothing needs scipy: importing the CLI must not load any of it, nor
        # any other package outside the standard library but numpy.
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import sys; before = set(sys.modules); import gdms.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'gdms'}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("preset, want", [(None, "4"), ("10", "10")])
    def test_import_sets_openblas_thread_timeout(self, preset, want):
        # Idle OpenBLAS workers sleep after 2**4 polls, not 2**28, unless
        # the caller chose a timeout.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        probe = "import os, gdms; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == want

    def test_openblas_thread_timeout_set_before_numpy_loads(self):
        # OpenBLAS reads the variable when numpy first loads it, so it must
        # be in os.environ when the import system first looks for numpy.
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        probe = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "        return None\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import gdms.cli\n"
            "print(seen)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "['4']"

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

    def _fresh(self, probe: str) -> str:
        """Standard output of ``probe`` run in a fresh interpreter on this src."""
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_import_gdms_loads_no_submodule(self):
        # The package's names are read lazily, so importing it loads neither
        # a submodule nor numpy, yet still sets the OpenBLAS default first.
        probe = (
            "import os, sys; os.environ.pop('OPENBLAS_THREAD_TIMEOUT', None); import gdms; "
            "print(sorted(m for m in sys.modules if m.startswith(('gdms.', 'numpy'))), "
            "os.environ['OPENBLAS_THREAD_TIMEOUT'])"
        )
        assert self._fresh(probe) == "[] 4"

    def test_import_cli_loads_no_command_layer(self):
        probe = (
            "import sys, gdms.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('gdms.')))"
        )
        assert self._fresh(probe) == str(sorted(f"gdms.{m}" for m in CLI_MODULES))

    @pytest.mark.parametrize("command, config, layers", [
        ("delta-full", {"gdms": GDMS_THIRD}, ()),
        ("pressure-curve", {"gdms": GDMS_THIRD}, ()),
        ("delta-kernel", {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
                          "params": {"n_max": 16}}, ("kernel",)),
        ("walks", {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT,
                   "params": {"radii": [2], "radius": 2}}, ("walks",)),
        ("amenability", {"gdms": GDMS_THIRD, "quotient": ZZ_QUOTIENT,
                         "params": {"radii": [2, 4], "kernel_n_max": 8}},
         ("kernel", "skew", "walks")),
        ("symmetry-check", {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
                            "params": {"n_max": 4, "radius": 2}},
         ("kernel", "skew", "walks")),
        ("render", {"gdms": GDMS_THIRD, "params": {"depth": 6}}, ("render",)),
        ("render", {"gdms": GDMS_THIRD, "quotient": Z2_QUOTIENT,
                    "params": {"subset": "induced", "L_max": 2}}, ("kernel", "render")),
    ], ids=["delta-full", "pressure-curve", "delta-kernel", "walks", "amenability",
            "symmetry-check", "render-full", "render-induced"])
    def test_command_loads_only_its_layers(self, tmp_path, command, config, layers):
        # Each command imports its own layer when it runs; box counting
        # counts distinct boxes without np.unique, which loads numpy.ma.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        probe = (
            f"import sys, gdms.cli; code = gdms.cli.main({argv!r}); "
            "print(code, sorted(m for m in sys.modules if m.startswith('gdms.')), "
            "'numpy.ma' in sys.modules)"
        )
        want = sorted(f"gdms.{m}" for m in (*CLI_MODULES, *layers))
        assert self._fresh(probe) == f"0 {want} False"

    def test_every_package_name_resolves(self):
        # The names the package bound eagerly before its exports were made
        # lazy: each still imports by name, functions and classes as
        # themselves and submodules as modules.
        for name in PACKAGE_NAMES:
            scope: dict = {}
            exec(f"from gdms import {name}", scope)
            value = scope[name]
            if name in PACKAGE_SUBMODULES:
                assert value is sys.modules[f"gdms.{name}"]
            else:
                assert value.__name__ == name
                assert value.__module__.startswith("gdms.")
        import gdms

        assert gdms.pressure.__module__ == "gdms.pressure"  # the function
        assert set(PACKAGE_NAMES) <= set(dir(gdms))
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            gdms.nonexistent

    def test_word_names(self):
        assert cli._word_str((0, 1, 2, 3)) == "g1 g1~ g2 g2~"
        assert cli._word_str(()) == ""
        assert cli._word_str((5,)) == "g3~"
