"""Command-line orchestrator: one JSON config in, one report directory out.

Subcommands: delta-full, delta-kernel, amenability, pressure-curve,
symmetry-check, walks, render.  Every run validates its config against the
shipped schema.  A command reads only the params in its ``READS`` row (render
has one row per subset), and a quotient only where that row says so; any
other params key, a stray quotient or a missing one is a config error raised
before anything is written.  The report echoes the config with those params
defaulted, and the payloads (JSON/CSV/PGM) of two runs of one config are
byte-identical apart from the wall-time field.

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
from .groups import DEFAULT_BALL_CAP, letter_name, quotient_from_config
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
from .skew import (
    VERDICT_AMENABLE,
    amenability_report,
    check_asymptotic_symmetry,
    ladder_verdict,
)
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


def _word_str(codes) -> str:
    return " ".join(map(letter_name, codes))


# ---------------------------------------------------------------------------
# Commands: (spec, quotient or None, defaulted params, output dir) -> results
# ---------------------------------------------------------------------------

def _pressure_csv(spec, params: dict, outdir: Path, points: int, root=None) -> int:
    """Write ``pressure_curve.csv`` over ``params["s_grid"]``; return its rows.

    The default grid is ``points`` exponents from 0 to 1.5 delta(F_d).
    """
    if "s_grid" not in params:
        root = root or bowen_root(spec)
        params["s_grid"] = [round(x, 12) for x in np.linspace(0.0, 1.5 * root, points)]
    rows = pressure_curve(spec, params["s_grid"])
    write_csv(
        outdir / "pressure_curve.csv",
        ["s", "pressure", "rho", "iterations", "residual"],
        list(zip(*rows)),
    )
    return len(rows)


def cmd_delta_full(spec, G, params: dict, outdir: Path) -> dict:
    root = bowen_root(spec)
    _pressure_csv(spec, params, outdir, 16, root)
    return {
        "delta_full": exact(root, tolerance=1e-12),
        "symmetric": spec.symmetric,
        "pressure_curve_csv": "pressure_curve.csv",
    }


def cmd_pressure_curve(spec, G, params: dict, outdir: Path) -> dict:
    rows = _pressure_csv(spec, params, outdir, 21)
    return {"pressure_curve_csv": "pressure_curve.csv", "rows": rows}


def cmd_delta_kernel(spec, G, params: dict, outdir: Path) -> dict:
    caps = _caps(params)
    n_max = params["n_max"]
    root = bowen_root(spec)
    res = delta_kernel(spec, G, n_max=n_max, tol=params["delta_tol"], ball_cap=caps["ball"])
    if res.exact:
        delta_payload = exact(res.delta)
        ratio_payload = exact(res.delta / root)
    else:
        delta_payload = estimate(
            res.delta, res.lo, res.hi, ambiguous=res.ambiguous, truncated=res.truncated
        )
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
            "exact": div.table.exact,
            "table_csv": "kernel_table_half.csv",
        }
    return results


def combine_verdicts(dichotomy_verdict: str, walk_verdict: str | None):
    """Overall verdict plus inconsistency flag for the cross-checked report."""
    if walk_verdict is None or walk_verdict == dichotomy_verdict:
        return dichotomy_verdict, False
    return "INCONSISTENT", True


def cmd_amenability(spec, G, params: dict, outdir: Path) -> dict:
    """The dichotomy verdict, cross-checked by the simple random walk.

    On a disagreement ``inconsistent`` is set; ``run`` writes, then raises.
    """
    caps = _caps(params)
    radii = params["radii"]
    dich = amenability_report(
        spec, G, radii, ball_cap=caps["ball"], kernel_n_max=params["kernel_n_max"]
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
    return {
        "dichotomy": dich.as_dict(),
        "walk": None if walk is None else {
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


def cmd_symmetry_check(spec, G, params: dict, outdir: Path) -> dict:
    caps = _caps(params)
    n_max = params["n_max"]
    radius = params.setdefault("radius", min(5, n_max))
    s = params["s"]
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
    return {
        "symmetric_spec": rep.symmetric_spec,
        "max_rel_asymmetry": rep.max_rel_asymmetry,
        "csv": "symmetry.csv",
    }


def cmd_walks(spec, G, params: dict, outdir: Path) -> dict:
    caps = _caps(params)
    ladder = srw_spectral_radius(G, params["radii"], ball_cap=caps["ball"])
    write_csv(outdir / "walk_ladder.csv", ["R", "rho_R"], [ladder.radii, ladder.rho])
    iso = isoperimetric_scan(G, params["radius"], ball_cap=caps["ball"])
    return {
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


def cmd_render(spec, G, params: dict, outdir: Path) -> dict:
    caps = _caps(params)
    dimension = params["dimension"]
    real = auto_layout(spec, dimension)
    results: dict = {}
    if params["subset"] == "induced":
        sys_ind = induced_loops(
            spec, G, params["L_max"], loop_cap=caps["loops"], ball_cap=caps["ball"]
        )
        loops_payload = [
            {"word": _word_str(wd), "log_weight": float(lw),
             "first_letter": _word_str(wd[:1]), "last_letter": _word_str(wd[-1:])}
            for wd, lw in zip(sys_ind.loops, sys_ind.log_weights)
        ]
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "loops.json").write_text(
            json.dumps(loops_payload, indent=2, sort_keys=True) + "\n"
        )
        cloud = attractor_points(
            real, params["composition_depth"], sys_ind, point_cap=caps["points"]
        )
        reference = induced_bowen_root(sys_ind)
        results["induced_bowen_root"] = exact(reference, tolerance=1e-10)
        results["loops_json"] = "loops.json"
        results["n_loops"] = len(sys_ind)
    else:
        depth = params.setdefault("depth", 10 if dimension == 1 else 7)
        cloud = attractor_points(real, depth, "full", point_cap=caps["points"])
        reference = bowen_root(spec)
        results["delta_full"] = exact(reference, tolerance=1e-12)
    if "scales" not in params:
        params["scales"] = [max(spec.ratios) ** k for k in range(2, 7)]
    bc = box_counting(cloud, params["scales"])
    img = render_image(cloud, params["resolution"])
    outdir.mkdir(parents=True, exist_ok=True)
    write_pgm(img, outdir / "attractor.pgm")
    header = ["x", "word"] if cloud.points.shape[1] == 1 else ["x", "y", "word"]
    words = [_word_str(wd) for wd in cloud.words]
    write_csv(outdir / "points.csv", header, [*cloud.points.T, words])
    return {
        **results,
        "box_count": {
            "slope": estimate(bc.slope, bc.slope - bc.residual, bc.slope + bc.residual),
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


COMMANDS = {
    "delta-full": cmd_delta_full,
    "delta-kernel": cmd_delta_kernel,
    "amenability": cmd_amenability,
    "pressure-curve": cmd_pressure_curve,
    "symmetry-check": cmd_symmetry_check,
    "walks": cmd_walks,
    "render": cmd_render,
}

# What each command reads: (whether it needs a quotient, {params key:
# default}).  A default of None is worked out by the command at run time,
# or, for ``caps``, never filled in.  Render reads different keys for each
# subset, so it has one row per subset.
_RENDER = {"dimension": 1, "resolution": 512, "subset": "full", "scales": None, "caps": None}
READS = {
    "delta-full": (False, {"s_grid": None}),
    "delta-kernel": (True, {"n_max": 24, "delta_tol": 5e-4, "caps": None}),
    "amenability": (True, {"radii": [4, 6, 8, 10, 12], "kernel_n_max": 20, "caps": None}),
    "pressure-curve": (False, {"s_grid": None}),
    "symmetry-check": (True, {"n_max": 10, "radius": None, "s": 1.0, "caps": None}),
    "walks": (True, {"radii": [2, 4, 6, 8, 10, 12], "radius": 8, "caps": None}),
    "render subset 'full'": (False, {**_RENDER, "depth": None}),
    "render subset 'induced'": (True, {**_RENDER, "L_max": 4, "composition_depth": 3}),
}


def run(command: str, cfg: dict, outdir: Path) -> dict:
    """Check a validated config against the command's ``READS`` row, run the
    command and write its ``report.json``.  An inconsistent cross-check raises
    ``InconsistentReportError`` only after the report is written."""
    params = dict(cfg.get("params", {}))
    subset = params.get("subset", "full")
    name = f"render subset {subset!r}" if command == "render" else command
    needs_quotient, defaults = READS[name]
    for key in params:
        if key not in defaults:
            raise ConfigError(
                f"params.{key} does not apply to {name}; it reads {', '.join(defaults)}"
            )
    if "quotient" in cfg and not needs_quotient:
        raise ConfigError(f"quotient does not apply to {name}")
    if needs_quotient and "quotient" not in cfg:
        raise ConfigError(f"{name} requires a 'quotient' section")
    spec = LinearGdmsSpec.from_config(cfg["gdms"])
    G = quotient_from_config(cfg["quotient"], spec.d) if needs_quotient else None
    for key, default in defaults.items():
        if default is not None:
            params.setdefault(key, default)
    report = RunReport(command, cfg)
    report.results = COMMANDS[command](spec, G, params, outdir)
    report.config = {**cfg, "params": params}
    report.write(outdir)
    res = report.results
    if res.get("inconsistent"):
        walk = (res["walk"] or {}).get("verdict", VERDICT_AMENABLE)
        raise InconsistentReportError(
            f"dichotomy says {res['dichotomy']['verdict']} but walk says {walk}"
        )
    return res


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
        run(args.command, cfg, outdir)
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
