"""Command-line orchestrator: one JSON config in, one report directory out.

Subcommands: delta-full, delta-kernel, amenability, pressure-curve,
symmetry-check, walks, render.  Three tables here are the config contract:
``READS`` (the params, caps and quotient each command reads; render has a
row per subset), ``QUOTIENTS`` (the keys each quotient type reads, and its
backend) and ``RATIO_FORMS`` (the ways to give the ratios).  ``load_config``
checks each key's type and bound against their union, ``_CONFIG``; ``run``
refuses a key the command, quotient type or render dimension does not read
(only render reads ``gdms.geometry``, the phase sets of its dimension), a
stray or missing quotient, and any but one ratio form, before anything is
written.  The report echoes the config with those params defaulted; the
payloads (JSON/CSV/PGM) of two runs of one config are byte-identical apart
from the wall-time field, and a failed run writes none.

Start-up: at module level this file imports only what ``load_config`` and
``run`` need (``errors``, ``groups``, ``pressure``, ``reports`` and numpy),
which is all delta-full and pressure-curve run.  Each other command imports
its own layer when it runs: delta-kernel ``kernel``, walks ``walks``,
amenability and symmetry-check ``skew`` (with ``kernel`` and ``walks``), and
render ``render``, plus ``kernel`` only for the induced subset.

Exit codes: 0 success, 2 config error, 3 cap exceeded, 4 numerical
non-convergence, 5 inconsistent cross-check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    ConvergenceError,
    GdmsError,
    InconsistentReportError,
)
from .groups import (
    DEFAULT_BALL_CAP,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    letter_name,
)
from .pressure import LinearGdmsSpec, pressure_curve
from .reports import RunReport, estimate, exact, write_csv

# (error class, exit code, stderr label); the first class that matches wins
_EXITS = (
    (ConfigError, 2, "config error"),
    (CapExceededError, 3, "cap exceeded"),
    (ConvergenceError, 4, "non-convergence"),
    (InconsistentReportError, 5, "inconsistent cross-check"),
    (GdmsError, 2, "error"),
)


# ---------------------------------------------------------------------------
# Commands: (spec, quotient or None, defaulted params, output dir) -> results
# ---------------------------------------------------------------------------

def _word_str(codes) -> str:
    return " ".join(map(letter_name, codes))


def _pressure_csv(spec, params: dict, outdir: Path, points: int) -> int:
    """Write ``pressure_curve.csv`` over ``params["s_grid"]``; return its rows.

    The default grid is ``points`` exponents from 0 to 1.5 delta(F_d).
    """
    if "s_grid" not in params:
        params["s_grid"] = [round(x, 12) for x in np.linspace(0.0, 1.5 * spec.delta, points)]
    rows = pressure_curve(spec, params["s_grid"])
    write_csv(
        outdir / "pressure_curve.csv",
        ["s", "pressure", "rho", "iterations", "residual"],
        list(zip(*rows)),
    )
    return len(rows)


def cmd_delta_full(spec, G, params: dict, outdir: Path) -> dict:
    _pressure_csv(spec, params, outdir, 16)
    return {
        "delta_full": exact(spec.delta, tolerance=1e-12),
        "symmetric": spec.symmetric,
        "pressure_curve_csv": "pressure_curve.csv",
    }


def cmd_pressure_curve(spec, G, params: dict, outdir: Path) -> dict:
    rows = _pressure_csv(spec, params, outdir, 21)
    return {"pressure_curve_csv": "pressure_curve.csv", "rows": rows}


def cmd_delta_kernel(spec, G, params: dict, outdir: Path) -> dict:
    from .kernel import delta_kernel, divergence_check

    n_max = params["n_max"]
    root = spec.delta
    res = delta_kernel(spec, G, n_max=n_max, tol=params["delta_tol"])
    if res.exact:
        delta_payload = exact(res.delta)
        ratio_payload = exact(res.delta / root)
    else:
        delta_payload = estimate(
            res.delta, res.lo, res.hi, ambiguous=res.ambiguous, clipped=res.clipped
        )
        ratio_payload = estimate(
            res.delta / root, res.lo / root, res.hi / root, clipped=res.clipped
        )
    results = {
        "delta_full": exact(root, tolerance=1e-12),
        "delta_kernel": delta_payload,
        "ratio": ratio_payload,
    }
    if spec.symmetric and not G.kernel_is_trivial():
        div = divergence_check(spec, G, n_max=n_max)
        write_csv(
            outdir / "kernel_table_half.csv",
            ["n", "log_a_n"],
            [range(1, n_max + 1), div.table.log_a],
        )
        results["divergence_at_half"] = {
            "s_half": div.s_half,
            "tail_nondecreasing": div.tail_nondecreasing,
            "tail_min_step": div.tail_min_step,
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
    from .skew import VERDICT_AMENABLE, amenability_report, ladder_verdict
    from .walks import srw_spectral_radius, srw_weights

    radii = params["radii"]
    dich = amenability_report(spec, G, radii, kernel_n_max=params["kernel_n_max"])
    if not G.generating_codes():
        walk = None
        walk_verdict = VERDICT_AMENABLE  # the trivial group is amenable
        walk_note = "trivial quotient: no Cayley edges, walk cross-check skipped"
    else:
        if np.array_equal(dich.weights, srw_weights(G)):
            walk = dich.ladder
            walk_note = "mu_{s*} is the simple random walk: the dichotomy ladder is its ladder"
        else:
            walk = srw_spectral_radius(G, radii)
            walk_note = ""
        walk_verdict = ladder_verdict(walk.final_estimate)
    for name, ladder in (("dichotomy", dich.ladder), ("walk", walk)):
        if ladder is not None:
            write_csv(outdir / f"{name}_ladder.csv", ["R", "rho_R"], [ladder.radii, ladder.rho])
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
    from .skew import check_asymptotic_symmetry

    n_max = params["n_max"]
    radius = params.setdefault("radius", min(5, n_max))
    s = params["s"]
    rep = check_asymptotic_symmetry(spec, G, n_max, radius, s=s)
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
    from .walks import isoperimetric_scan, srw_spectral_radius

    ladder = srw_spectral_radius(G, params["radii"])
    iso = isoperimetric_scan(G, params["radius"])
    write_csv(outdir / "walk_ladder.csv", ["R", "rho_R"], [ladder.radii, ladder.rho])
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


def cmd_render(spec, G, params: dict, outdir: Path, phase=None) -> dict:
    """Lay out, draw and box-count the cloud; only then write its files."""
    from .render import (
        DEFAULT_POINT_CAP,
        attractor_points,
        auto_layout,
        box_counting,
        level_sizes,
        raster_shape,
        render_image,
        write_pgm,
    )

    caps = {"points": DEFAULT_POINT_CAP, **params.get("caps", {})}
    dimension = params["dimension"]
    raster_shape(dimension, params["resolution"])  # refuse an oversized raster first
    real = auto_layout(spec, dimension, phase)
    results: dict = {}
    loops_payload = None
    if params["subset"] == "induced":
        from .kernel import DEFAULT_LOOP_CAP, induced_bowen_root, induced_loops

        sys_ind = induced_loops(
            spec, G, params["L_max"], loop_cap=caps.get("loops", DEFAULT_LOOP_CAP)
        )
        loops_payload = [
            {"word": _word_str(wd), "log_weight": float(lw),
             "first_letter": _word_str(wd[:1]), "last_letter": _word_str(wd[-1:])}
            for wd, lw in zip(sys_ind.loops, sys_ind.log_weights)
        ]
        cloud = attractor_points(
            real, params["composition_depth"], sys_ind, point_cap=caps["points"]
        )
        reference = induced_bowen_root(sys_ind)
        results["induced_bowen_root"] = exact(reference, tolerance=1e-10)
        results["loops_json"] = "loops.json"
        results["n_loops"] = len(sys_ind)
    else:
        if "depth" not in params:
            # the deepest default level that fits the cap (levels only grow), at least 1
            sizes = zip(range(10 if dimension == 1 else 7), level_sizes(spec))
            params["depth"] = max(1, sum(size <= caps["points"] for _, size in sizes))
        cloud = attractor_points(real, params["depth"], "full", point_cap=caps["points"])
        reference = spec.delta
        results["delta_full"] = exact(reference, tolerance=1e-12)
    default_scales = "scales" not in params
    if default_scales:
        params["scales"] = [max(spec.ratios) ** k for k in range(2, 7)]
    try:
        bc = box_counting(cloud, params["scales"])
    except ConfigError as exc:
        if default_scales:
            raise ConfigError(
                f"default box-counting scales max(ratio)**k, k = 2..6: {exc}; "
                "give params.scales"
            ) from exc
        raise
    except GdmsError as exc:  # too few distinct counts: no slope, but the render stands
        scales = sorted(map(float, params["scales"]))
        box = {"slope": None, "reason": str(exc), "scales": scales}
    else:
        box = {
            "slope": estimate(bc.slope, bc.slope - bc.residual, bc.slope + bc.residual),
            "scales": list(bc.scales),
            "counts": list(bc.counts),
            "residual": bc.residual,
        }
    img = render_image(cloud, params["resolution"])
    outdir.mkdir(parents=True, exist_ok=True)
    if loops_payload is not None:
        (outdir / "loops.json").write_text(
            json.dumps(loops_payload, indent=2, sort_keys=True) + "\n"
        )
    write_pgm(img, outdir / "attractor.pgm")
    header = ["x", "word"] if cloud.points.shape[1] == 1 else ["x", "y", "word"]
    write_csv(outdir / "points.csv", header, [*cloud.points.T, cloud.words.names()])
    return {
        **results,
        "box_count": box,
        "reference_dimension": reference,
        "points": len(cloud),
        "image_pgm": "attractor.pgm",
        "points_csv": "points.csv",
        "osc_margin": real.osc_margin,
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


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

# What each command reads: (whether it needs a quotient, {params key:
# default}).  A default of None is worked out by the command at run time.
# ``caps`` is never filled in: its entry names the caps the command reads
# (the ball cap wherever a quotient is explored).  Render reads different
# keys for each subset, so it has one row per subset.
_RENDER = {"dimension": 1, "resolution": 512, "subset": "full", "scales": None}
READS = {
    "delta-full": (False, {"s_grid": None}),
    "delta-kernel": (True, {"n_max": 24, "delta_tol": 5e-4, "caps": ("ball",)}),
    "amenability": (True, {"radii": [4, 6, 8, 10, 12], "kernel_n_max": 20, "caps": ("ball",)}),
    "pressure-curve": (False, {"s_grid": None}),
    "symmetry-check": (True, {"n_max": 10, "radius": None, "s": 1.0, "caps": ("ball",)}),
    "walks": (True, {"radii": [2, 4, 6, 8, 10, 12], "radius": 8, "caps": ("ball",)}),
    "render subset 'full'": (False, {**_RENDER, "depth": None, "caps": ("points",)}),
    "render subset 'induced'": (True, {
        **_RENDER, "L_max": 4, "composition_depth": 3, "caps": ("ball", "points", "loops"),
    }),
}


def _fail(path: tuple, reason: str):
    raise ConfigError(f"config field {'/'.join(map(str, path)) or '<root>'}: {reason}")


def _value(kind: str, above=-math.inf, below=math.inf, enum=None):
    """Check a JSON scalar of ``kind``, never a bool: a number lies in the open
    interval (above, below), so it is finite, and in ``enum`` if one is given."""
    types = {"integer": int, "number": (int, float), "string": str}[kind]

    def check(v, path):
        if not isinstance(v, types) or isinstance(v, bool):
            _fail(path, f"{v!r} is not of type {kind!r}")
        if kind != "string" and not above < v < below:
            _fail(path, f"{v!r} is not in the open interval ({above}, {below})")
        if enum is not None and v not in enum:
            _fail(path, f"{v!r} is not one of {list(enum)!r}")
    return check


def _array(item, min_items: int = 0, max_items: float = math.inf):
    def check(v, path):
        if not isinstance(v, list):
            _fail(path, f"{v!r} is not of type 'array'")
        if not min_items <= len(v) <= max_items:
            _fail(path, f"{v!r} is too {'short' if len(v) < min_items else 'long'}")
        for i, x in enumerate(v):
            item(x, (*path, i))
    return check


def _object(fields: dict, required: tuple = ()):
    def check(v, path):
        if not isinstance(v, dict):
            _fail(path, f"{v!r} is not of type 'object'")
        for key in required:
            if key not in v:
                _fail(path, f"{key!r} is a required property")
        for key, x in v.items():
            if key not in fields:
                _fail(path, f"Additional properties are not allowed ({key!r} was unexpected)")
            fields[key](x, (*path, key))
    return check


_NUMBER = _value("number")
_COUNT = _value("integer", above=0)
_RATIO = _value("number", above=0, below=1)
_IMAGES = _array(_array(_value("integer")))
# One check per params key; a key is accepted where some READS row reads it.
_PARAMS = {
    **dict.fromkeys(("n_max", "kernel_n_max", "radius", "L_max", "depth"), _COUNT),
    **dict.fromkeys(("composition_depth", "resolution"), _COUNT),
    "s": _NUMBER,
    "s_grid": _array(_NUMBER, min_items=1),
    "radii": _array(_value("integer", above=-1), min_items=1),
    "dimension": _value("integer", enum=(1, 2)),
    "subset": _value("string", enum=("full", "induced")),
    "scales": _array(_value("number", above=0), min_items=3),
    "delta_tol": _value("number", above=0),
    "caps": _object(dict.fromkeys(("ball", "points", "loops"), _COUNT)),
}
# One row per quotient type: the keys it reads besides "type", each with its
# check; those of them it may leave out; and its backend, built from (section,
# d, ball cap).  The backend checks what the keys mean.
QUOTIENTS = {
    "finite_perm": (
        {"degree": _COUNT, "images": _IMAGES}, (),
        lambda q, d, cap: FinitePermQuotient(q["degree"], q["images"], cap),
    ),
    "abelianization": (
        {"rank": _COUNT, "images": _IMAGES}, (),
        lambda q, d, cap: FreeAbelianQuotient(q["rank"], q["images"], cap),
    ),
    # no kill: G = F_d
    "free_quotient": (
        {"kill": _array(_COUNT)}, ("kill",),
        lambda q, d, cap: FreeQuotient(d, q.get("kill", []), cap),
    ),
}


def _by_generator(ratios: list, d: int) -> list:
    if len(ratios) != d:
        raise ConfigError(f"ratios_by_generator must have {d} entries")
    return [c for c in ratios for _ in range(2)]


# One row per way to state the ratios in gdms: its check, and the ratio of
# each letter, in code order, that it gives at rank d.
RATIO_FORMS = {
    "ratio": (_RATIO, lambda c, d: [c] * (2 * d)),
    "ratios_by_generator": (_array(_RATIO), _by_generator),
    "ratios": (_array(_RATIO), lambda ratios, d: ratios),
}
_CONFIG = _object({
    "gdms": _object({
        "d": _value("integer", above=1),
        **{form: check for form, (check, _) in RATIO_FORMS.items()},
        "geometry": _object({
            "intervals": _array(_array(_NUMBER, 2, 2)),
            "disks": _array(_array(_NUMBER, 3, 3)),
        }),
    }, required=("d",)),
    "quotient": _object({
        "type": _value("string", enum=tuple(QUOTIENTS)),
        **{key: check for keys, _, _ in QUOTIENTS.values() for key, check in keys.items()},
    }, required=("type",)),
    "params": _object({key: _PARAMS[key] for _, row in READS.values() for key in row}),
    "output_dir": _value("string"),
}, required=("gdms",))


def load_config(path: str | Path) -> dict:
    """Read a JSON config and check it against ``_CONFIG``."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _CONFIG(cfg, ())
    return cfg


def _reads(section, path: str, what: str, keys) -> None:
    """Refuse the first key in ``section``, at ``path``, that ``what`` does not read."""
    for key in section:
        if key not in keys:
            reads = ", ".join(keys) or "no " + path.split(".")[-2]
            raise ConfigError(f"{path}{key} does not apply to {what}; it reads {reads}")


def run(command: str, cfg: dict, outdir: Path) -> dict:
    """Check a validated config against its ``READS``, ``QUOTIENTS`` and
    ``RATIO_FORMS`` rows, run the command and write its ``report.json``.  An
    inconsistent cross-check raises ``InconsistentReportError`` after that."""
    params = dict(cfg.get("params", {}))
    subset = params.get("subset", "full")
    name = f"render subset {subset!r}" if command == "render" else command
    needs_quotient, defaults = READS[name]
    _reads(params, "params.", name, defaults)
    _reads(params.get("caps", {}), "params.caps.", name, defaults.get("caps", ()))
    # render lays out the phase sets of its dimension; nothing else reads any
    gdms = cfg["gdms"]
    geometry = gdms.get("geometry", {})
    where, reads, layout = name, (), {}
    if command == "render":
        dimension = params.get("dimension", defaults["dimension"])
        reads = (("intervals", "disks")[dimension - 1],)
        where, layout = f"{name} in dimension {dimension}", {"phase": geometry.get(reads[0])}
    _reads(geometry, "gdms.geometry.", where, reads)
    if "quotient" in cfg and not needs_quotient:
        raise ConfigError(f"quotient does not apply to {name}")
    if needs_quotient and "quotient" not in cfg:
        raise ConfigError(f"{name} requires a 'quotient' section")
    forms = [form for form in RATIO_FORMS if form in gdms]
    if len(forms) != 1:
        *most, last = map(repr, RATIO_FORMS)
        raise ConfigError(
            f"gdms config needs exactly one of {', '.join(most)} or {last}; "
            f"it gives {', '.join(map(repr, forms)) or 'none'}"
        )
    d, form = gdms["d"], forms[0]
    spec = LinearGdmsSpec(d, tuple(map(float, RATIO_FORMS[form][1](gdms[form], d))))
    G = None
    if needs_quotient:
        quotient = cfg["quotient"]
        kind = quotient["type"]
        keys, optional, build = QUOTIENTS[kind]
        _reads(sorted(set(quotient) - {"type"}), "quotient.", f"type {kind!r}", keys)
        for key in keys:
            if key not in quotient and key not in optional:
                raise ConfigError(f"quotient type {kind!r} requires {key!r}")
        G = build(quotient, d, params.get("caps", {}).get("ball", DEFAULT_BALL_CAP))
        if G.d != d:
            raise ConfigError(f"quotient has {G.d} generator images but the GDMS has rank {d}")
    for key, default in defaults.items():
        if default is not None and key != "caps":
            params.setdefault(key, default)
    report = RunReport(command, cfg)
    report.results = COMMANDS[command](spec, G, params, outdir, **layout)
    report.config = {**cfg, "params": params}
    report.write(outdir)
    res = report.results
    if res.get("inconsistent"):
        from .skew import VERDICT_AMENABLE

        walk = (res["walk"] or {}).get("verdict", VERDICT_AMENABLE)
        raise InconsistentReportError(
            f"dichotomy says {res['dichotomy']['verdict']} but walk says {walk}"
        )
    return res


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.

    After parsing the arguments this calls ``gc.freeze()``: every object alive
    then, numpy's and gdms's import-time objects above all, moves to the
    permanent generation, so the run's full collections and the one at
    interpreter exit skip them.  An in-process caller keeps every object it
    held at that point, cyclic garbage included, until ``gc.unfreeze()``.
    """
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
    gc.freeze()
    try:
        cfg = load_config(args.config)
        outdir = Path(args.output_dir or cfg.get("output_dir") or "gdms-out")
        run(args.command, cfg, outdir)
    except GdmsError as exc:
        code, label = next((code, label) for cls, code, label in _EXITS if isinstance(exc, cls))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
