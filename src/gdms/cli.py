"""Command-line orchestrator: one JSON config in, one report directory out.

Subcommands: delta-full, delta-kernel, amenability, pressure-curve,
symmetry-check, walks, render.  Every run validates its config against the
shipped schema, echoes the fully defaulted config into the report, and
writes deterministic payloads (JSON/CSV/PGM); two runs of the same config
produce byte-identical outputs apart from the wall-time field.

Exit codes: 0 success, 2 config error, 3 cap exceeded, 4 numerical
non-convergence, 5 inconsistent cross-check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    ConvergenceError,
    GdmsError,
    InconsistentReportError,
)
from .groups import DEFAULT_BALL_CAP, QuotientGroup, letter_name, quotient_from_config
from .kernel import (
    DEFAULT_LOOP_CAP,
    delta_kernel,
    divergence_check,
    induced_bowen_root,
    induced_loops,
)
from .pressure import LinearGdmsSpec, bowen_root, pressure_curve
from .render import (
    DEFAULT_POINT_CAP,
    attractor_points,
    auto_layout,
    box_counting,
    render_image,
    write_pgm,
)
from .reports import RunReport, estimate, exact, write_csv
from .skew import VERDICT_AMENABLE, amenability_report, ladder_verdict
from .walks import isoperimetric_scan, srw_spectral_radius, srw_weights

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_NONCONVERGENCE = 4
EXIT_INCONSISTENT = 5


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    with resources.files("gdms").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


@functools.cache
def _validator() -> jsonschema.Draft202012Validator:
    """The shipped schema's validator; a test checks the schema itself once."""
    return jsonschema.Draft202012Validator(load_schema())


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = jsonschema.exceptions.best_match(_validator().iter_errors(cfg))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field {where}: {error.message}") from error
    return cfg


def _caps(params: dict) -> dict:
    caps = {"ball": DEFAULT_BALL_CAP, "points": DEFAULT_POINT_CAP, "loops": DEFAULT_LOOP_CAP}
    caps.update(params.get("caps", {}))
    for key, env in (
        ("ball", "GDMS_BALL_CAP"),
        ("points", "GDMS_POINT_CAP"),
        ("loops", "GDMS_LOOP_CAP"),
    ):
        raw = os.environ.get(env)
        if raw:
            try:
                caps[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{env} must be an integer, got {raw!r}") from None
    return caps


def _spec(cfg: dict) -> LinearGdmsSpec:
    return LinearGdmsSpec.from_config(cfg["gdms"])


def _quotient(cfg: dict, spec: LinearGdmsSpec) -> QuotientGroup:
    if "quotient" not in cfg:
        raise ConfigError("this command requires a 'quotient' section")
    return quotient_from_config(cfg["quotient"], spec.d)


def _word_str(codes) -> str:
    return " ".join(map(letter_name, codes))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_delta_full(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    params = dict(cfg.get("params", {}))
    report = RunReport("delta-full", cfg)
    root = bowen_root(spec)
    grid = params.get("s_grid")
    if grid is None:
        grid = [round(x, 12) for x in np.linspace(0.0, 1.5 * root, 16)]
        params["s_grid"] = grid
    rows = pressure_curve(spec, grid)
    write_csv(
        outdir / "pressure_curve.csv",
        ["s", "pressure", "rho", "iterations", "residual"],
        list(zip(*rows)),
    )
    report.config = {**cfg, "params": params}
    report.results = {
        "delta_full": exact(root, tolerance=1e-12),
        "symmetric": spec.symmetric,
        "pressure_curve_csv": "pressure_curve.csv",
    }
    report.write(outdir)
    return report.results


def cmd_delta_kernel(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    G = _quotient(cfg, spec)
    params = dict(cfg.get("params", {}))
    caps = _caps(params)
    n_max = params.setdefault("n_max", 24)
    tol = params.setdefault("delta_tol", 5e-4)
    report = RunReport("delta-kernel", cfg)
    root = bowen_root(spec)
    res = delta_kernel(spec, G, n_max=n_max, tol=tol, ball_cap=caps["ball"])
    if res.exact:
        delta_payload = exact(res.delta)
        ratio_payload = exact(res.delta / root)
    else:
        delta_payload = estimate(res.delta, res.lo, res.hi, ambiguous=res.ambiguous)
        ratio_payload = estimate(res.delta / root, res.lo / root, res.hi / root)
    results = {
        "delta_full": exact(root, tolerance=1e-12),
        "delta_kernel": delta_payload,
        "ratio": ratio_payload,
    }
    if spec.symmetric and not G.kernel_is_trivial():
        div = divergence_check(spec, G, n_max=n_max, ball_cap=caps["ball"])
        write_csv(
            outdir / "kernel_table_half.csv",
            ["n", "log_a_n", "exact"],
            [range(1, n_max + 1), div.table.log_a, [div.table.exact] * n_max],
        )
        results["divergence_at_half"] = {
            "s_half": div.s_half,
            "tail_nondecreasing": div.tail_nondecreasing,
            "tail_min_step": div.tail_min_step,
            "table_csv": "kernel_table_half.csv",
        }
    report.config = {**cfg, "params": params}
    report.results = results
    report.write(outdir)
    return results


def combine_verdicts(dichotomy_verdict: str, walk_verdict: str | None):
    """Overall verdict plus inconsistency flag for the cross-checked report."""
    if walk_verdict is None or walk_verdict == dichotomy_verdict:
        return dichotomy_verdict, False
    return "INCONSISTENT", True


def cmd_amenability(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    G = _quotient(cfg, spec)
    params = dict(cfg.get("params", {}))
    caps = _caps(params)
    radii = params.setdefault("radii", [4, 6, 8, 10, 12])
    kernel_n_max = params.setdefault("kernel_n_max", 20)
    report = RunReport("amenability", cfg)
    dich = amenability_report(
        spec, G, radii, ball_cap=caps["ball"], kernel_n_max=kernel_n_max
    )
    write_csv(
        outdir / "dichotomy_ladder.csv",
        ["R", "rho_R"],
        [dich.ladder.radii, dich.ladder.rho],
    )
    if not G.generating_codes():
        walk = None
        walk_verdict = VERDICT_AMENABLE  # the trivial group is amenable
        walk_note = "trivial quotient: no Cayley edges, walk cross-check skipped"
    else:
        if np.array_equal(dich.weights, srw_weights(G)):
            walk = dich.ladder
            walk_note = "mu_{s*} is the simple random walk: the dichotomy ladder is its ladder"
        else:
            walk = srw_spectral_radius(G, radii, ball_cap=caps["ball"])
            walk_note = ""
        walk_verdict = ladder_verdict(walk.final_estimate)
        write_csv(outdir / "walk_ladder.csv", ["R", "rho_R"], [walk.radii, walk.rho])
    overall, inconsistent = combine_verdicts(dich.verdict, walk_verdict)
    results = {
        "dichotomy": dich.as_dict(),
        "walk": None
        if walk is None
        else {
            "radii": list(walk.radii),
            "rho": list(walk.rho),
            "iterations": list(walk.iterations),
            "residuals": list(walk.residuals),
            "final_estimate": walk.final_estimate,
            "plateau": walk.plateau,
            "method": walk.method,
            "verdict": walk_verdict,
            "note": walk_note,
        },
        "verdict": overall,
        "inconsistent": inconsistent,
    }
    report.config = {**cfg, "params": params}
    report.results = results
    report.write(outdir)
    if inconsistent:
        raise InconsistentReportError(
            f"dichotomy says {dich.verdict} but walk says {walk_verdict}"
        )
    return results


def cmd_pressure_curve(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    params = dict(cfg.get("params", {}))
    report = RunReport("pressure-curve", cfg)
    grid = params.get("s_grid")
    if grid is None:
        root = bowen_root(spec)
        grid = [round(x, 12) for x in np.linspace(0.0, 1.5 * root, 21)]
        params["s_grid"] = grid
    rows = pressure_curve(spec, grid)
    write_csv(
        outdir / "pressure_curve.csv",
        ["s", "pressure", "rho", "iterations", "residual"],
        list(zip(*rows)),
    )
    report.config = {**cfg, "params": params}
    report.results = {
        "pressure_curve_csv": "pressure_curve.csv",
        "rows": len(rows),
    }
    report.write(outdir)
    return report.results


def cmd_symmetry_check(cfg: dict, outdir: Path) -> dict:
    from .skew import check_asymptotic_symmetry

    spec = _spec(cfg)
    G = _quotient(cfg, spec)
    params = dict(cfg.get("params", {}))
    caps = _caps(params)
    n_max = params.setdefault("n_max", 10)
    radius = params.setdefault("radius", min(5, n_max))
    s = params.setdefault("s", 1.0)
    report = RunReport("symmetry-check", cfg)
    rep = check_asymptotic_symmetry(spec, G, n_max, radius, s=s, ball_cap=caps["ball"])
    write_csv(
        outdir / "symmetry.csv",
        ["n", "max_rel_asymmetry", "ratio_low", "ratio_high"],
        [
            range(1, n_max + 1),
            rep.per_n_rel_asymmetry,
            rep.per_n_ratio_low,
            rep.per_n_ratio_high,
        ],
    )
    report.config = {**cfg, "params": params}
    report.results = {
        "symmetric_spec": rep.symmetric_spec,
        "max_rel_asymmetry": rep.max_rel_asymmetry,
        "csv": "symmetry.csv",
    }
    report.write(outdir)
    return report.results


def cmd_walks(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    G = _quotient(cfg, spec)
    params = dict(cfg.get("params", {}))
    caps = _caps(params)
    radii = params.setdefault("radii", [2, 4, 6, 8, 10, 12])
    iso_radius = params.setdefault("radius", 8)
    report = RunReport("walks", cfg)
    ladder = srw_spectral_radius(G, radii, ball_cap=caps["ball"])
    write_csv(outdir / "walk_ladder.csv", ["R", "rho_R"], [ladder.radii, ladder.rho])
    iso = isoperimetric_scan(G, iso_radius, ball_cap=caps["ball"])
    results = {
        "rho_ladder_csv": "walk_ladder.csv",
        "final_estimate": estimate(
            ladder.final_estimate, ladder.rho[-1], 1.0, plateau=ladder.plateau
        ),
        "method": ladder.method,
        "degree": len(G.generating_codes()),
        "iterations": list(ladder.iterations),
        "residuals": list(ladder.residuals),
        "isoperimetric": {
            "radii": list(iso.radii),
            "ratios": list(iso.ratios),
            "min_ratio": iso.min_ratio,
            "note": "Folner-style diagnostic only; finite balls decide nothing",
        },
    }
    report.config = {**cfg, "params": params}
    report.results = results
    report.write(outdir)
    return results


def cmd_render(cfg: dict, outdir: Path) -> dict:
    spec = _spec(cfg)
    params = dict(cfg.get("params", {}))
    caps = _caps(params)
    dimension = params.setdefault("dimension", 1)
    resolution = params.setdefault("resolution", 512)
    subset = params.setdefault("subset", "full")
    unread = ("L_max", "composition_depth") if subset == "full" else ("depth",)
    for key in unread:
        if key in params:
            raise ConfigError(f"params.{key} does not apply to subset {subset!r}")
    report = RunReport("render", cfg)
    real = auto_layout(spec, dimension)
    results: dict = {}
    if subset == "induced":
        G = _quotient(cfg, spec)
        L_max = params.setdefault("L_max", 4)
        comp_depth = params.setdefault("composition_depth", 3)
        sys_ind = induced_loops(
            spec, G, L_max, loop_cap=caps["loops"], ball_cap=caps["ball"]
        )
        loops_payload = [
            {
                "word": _word_str(wd),
                "log_weight": float(lw),
                "first_letter": _word_str(wd[:1]),
                "last_letter": _word_str(wd[-1:]),
            }
            for wd, lw in zip(sys_ind.loops, sys_ind.log_weights)
        ]
        (outdir / "loops.json").parent.mkdir(parents=True, exist_ok=True)
        (outdir / "loops.json").write_text(
            json.dumps(loops_payload, indent=2, sort_keys=True) + "\n"
        )
        cloud = attractor_points(real, comp_depth, sys_ind, point_cap=caps["points"])
        reference = induced_bowen_root(sys_ind)
        results["induced_bowen_root"] = exact(reference, tolerance=1e-10)
        results["loops_json"] = "loops.json"
        results["n_loops"] = len(sys_ind)
    else:
        depth = params.setdefault("depth", 10 if dimension == 1 else 7)
        cloud = attractor_points(real, depth, "full", point_cap=caps["points"])
        reference = bowen_root(spec)
        results["delta_full"] = exact(reference, tolerance=1e-12)
    scales = params.get("scales")
    if scales is None:
        base = max(spec.ratios)
        scales = [base ** k for k in range(2, 7)]
        params["scales"] = scales
    bc = box_counting(cloud, scales)
    img = render_image(cloud, resolution)
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm(img, outdir / "attractor.pgm")
    header = ["x", "word"] if cloud.points.shape[1] == 1 else ["x", "y", "word"]
    words = [_word_str(wd) for wd in cloud.words]
    write_csv(outdir / "points.csv", header, [*cloud.points.T, words])
    results.update(
        {
            "box_count": {
                "slope": estimate(
                    bc.slope, bc.slope - bc.residual, bc.slope + bc.residual
                ),
                "scales": list(bc.scales),
                "counts": list(bc.counts),
                "residual": bc.residual,
            },
            "reference_dimension": reference,
            "points": len(cloud),
            "image_pgm": "attractor.pgm",
            "points_csv": "points.csv",
            "osc_margin": real.osc_margin(),
        }
    )
    report.config = {**cfg, "params": params}
    report.results = results
    report.write(outdir)
    return results


COMMANDS = {
    "delta-full": cmd_delta_full,
    "delta-kernel": cmd_delta_kernel,
    "amenability": cmd_amenability,
    "pressure-curve": cmd_pressure_curve,
    "symmetry-check": cmd_symmetry_check,
    "walks": cmd_walks,
    "render": cmd_render,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gdms",
        description=(
            "Numerical experiments on linear graph directed Markov systems "
            "over free groups and their normal subgroups"
        ),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument(
        "--output-dir",
        default=None,
        help="report directory (default: config's output_dir or ./gdms-out)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = Path(args.output_dir or cfg.get("output_dir") or "gdms-out")
        COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except InconsistentReportError as exc:
        print(f"inconsistent cross-check: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except GdmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
