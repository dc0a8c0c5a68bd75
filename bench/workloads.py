"""The benchmark's workloads and the output checks the theorem forces.

A workload is a list of ops; an op is one `gdms` CLI run on one config.
Each check reads the op's ``report.json`` (and, where it says so, its
payloads) and returns the list of failed conditions, empty when the output
is what the mathematics forces.  Checks take the forced values from the
config (rank, ratios, depth), so the smoke sizes of the self-test run the
same code.

Why these workloads:

* ``free-kernel``: delta-kernel on F_3/<<g_3>> = F_2 (non-amenable).  The
  group layer and the kernel DP dominate: nine ``kernel_counts`` calls all
  rebuild the same radius-10 ball.  The eigensolvers are idle.
* ``abelian-ladder``: amenability on Z^2.  The skew and walk truncation
  ladders dominate (power iteration up to 13k states); the balls are
  polynomial, so the group layer is cheap, and it is used at ten radii
  rather than one.  The kernel DP runs once, at n = 40.  A delta-kernel op
  on Z^2 at n_max = 40 is left out: its bracket [0.9754, 0.9797] excludes
  the forced delta(N) = 1 (an open estimator defect), and every op of a
  workload must pass its checks.
* ``shipped-configs``: the eight files in ``configs/``, which are the runs
  users make.  Import and set-up are a large share, plus rendering and
  CSV/PGM emission, the finite-permutation backend, induced loops, the
  pressure curve and the symmetry check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

AMENABLE = "consistent-with-amenable"
NON_AMENABLE = "consistent-with-non-amenable"

Check = Callable[[dict, dict, Path], list]


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict
    check: Check


def _bracket(payload: dict) -> tuple[float, float]:
    if payload["kind"] == "exact":
        return payload["value"], payload["value"]
    lo, hi = payload["bracket"]
    return lo, hi


def _full_root_is_one(results: dict, tol: float) -> list:
    """delta(F_d) = 1 for every config here: (2d-1) c^s = 1 at s = 1."""
    delta = results["delta_full"]["value"]
    if abs(delta - 1.0) > tol:
        return [f"delta(F_d) = {delta!r}, forced value 1 (tol {tol:g})"]
    return []


def check_kernel_non_amenable(cfg: dict, report: dict, outdir: Path) -> list:
    """Free quotient of rank >= 2: delta/2 < delta(N) < delta, and divergence at delta/2."""
    res = report["results"]
    fails = _full_root_is_one(res, 1e-12)
    delta = res["delta_full"]["value"]
    lo, hi = _bracket(res["delta_kernel"])
    if not (delta / 2 < lo and hi < delta):
        fails.append(
            f"delta(N) bracket [{lo!r}, {hi!r}] not inside (delta/2, delta) = "
            f"({delta / 2!r}, {delta!r})"
        )
    if not res["divergence_at_half"]["tail_nondecreasing"]:
        fails.append("kernel terms at delta/2 decrease in the tail (tail_nondecreasing false)")
    return fails


def check_kernel_amenable(cfg: dict, report: dict, outdir: Path) -> list:
    """Amenable quotient: delta(N) = delta, so the bracket must contain delta."""
    res = report["results"]
    fails = _full_root_is_one(res, 1e-12)
    delta = res["delta_full"]["value"]
    lo, hi = _bracket(res["delta_kernel"])
    if not lo <= delta <= hi:
        fails.append(
            f"delta(N) bracket [{lo!r}, {hi!r}] does not contain the forced value "
            f"delta = {delta!r}"
        )
    return fails


def _check_verdict(report: dict, want: str) -> list:
    res = report["results"]
    fails = []
    if res["verdict"] != want:
        fails.append(f"verdict {res['verdict']!r}, forced {want!r}")
    if res["inconsistent"]:
        fails.append("report flags an inconsistent cross-check")
    return fails


def check_amenable_ladder(cfg: dict, report: dict, outdir: Path) -> list:
    """Amenable quotient: verdict amenable; rho_R nondecreasing and <= 1."""
    fails = _check_verdict(report, AMENABLE)
    rho = report["results"]["dichotomy"]["rho"]
    if any(b < a for a, b in zip(rho, rho[1:])):
        fails.append(f"skew ladder rho_R decreases: {rho}")
    if max(rho) > 1.0 + 1e-9:
        fails.append(f"skew ladder rho_R = {max(rho)!r} exceeds 1 + 1e-9")
    return fails


def check_amenable(cfg: dict, report: dict, outdir: Path) -> list:
    return _check_verdict(report, AMENABLE)


def check_non_amenable(cfg: dict, report: dict, outdir: Path) -> list:
    return _check_verdict(report, NON_AMENABLE)


def check_delta_full(cfg: dict, report: dict, outdir: Path) -> list:
    return _full_root_is_one(report["results"], 1e-12)


def check_full_render(cfg: dict, report: dict, outdir: Path) -> list:
    """One point per admissible word: 2d (2d-1)^(depth-1) points."""
    n = 2 * cfg["gdms"]["d"]
    want = n * (n - 1) ** (cfg["params"]["depth"] - 1)
    fails = []
    got = report["results"]["points"]
    if got != want:
        fails.append(f"render has {got} points, forced {want}")
    with open(outdir / "points.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != want:
        fails.append(f"points.csv has {rows} rows, forced {want}")
    return fails


def check_induced_render(cfg: dict, report: dict, outdir: Path) -> list:
    """The induced system's root is a lower bound for delta(N) <= delta = 1."""
    root = report["results"]["induced_bowen_root"]["value"]
    if root > 1.0 + 1e-10:
        return [f"induced Bowen root {root!r} exceeds delta = 1 + 1e-10"]
    return []


def check_symmetry(cfg: dict, report: dict, outdir: Path) -> list:
    """Symmetric weights make kernel counts reversal-invariant."""
    asym = report["results"]["max_rel_asymmetry"]
    if asym > 1e-12:
        return [f"max relative asymmetry {asym!r} exceeds 1e-12"]
    return []


def check_tree_walk(cfg: dict, report: dict, outdir: Path) -> list:
    """Kesten: the SRW on F_k has spectral radius sqrt(2k-1)/k."""
    k = cfg["gdms"]["d"] - len(cfg["quotient"]["kill"])
    want = math.sqrt(2 * k - 1) / k
    lo, hi = _bracket(report["results"]["final_estimate"])
    if not lo <= want <= hi:
        return [f"walk bracket [{lo!r}, {hi!r}] does not contain sqrt(2k-1)/k = {want!r}"]
    return []


THIRD = {"d": 2, "ratio": 1 / 3}
ZZ = {"type": "abelianization", "rank": 2, "images": [[1, 0], [0, 1]]}

# (op name, command, config, check, smoke params)
FREE_KERNEL = [
    (
        "delta-kernel-f3-mod-g3",
        "delta-kernel",
        {
            "gdms": {"d": 3, "ratio": 0.2},
            "quotient": {"type": "free_quotient", "kill": [3]},
            "params": {"n_max": 20},
        },
        check_kernel_non_amenable,
        {"n_max": 12},
    ),
]

ABELIAN_LADDER = [
    (
        "amenability-z2",
        "amenability",
        {
            "gdms": THIRD,
            "quotient": ZZ,
            "params": {"radii": list(range(4, 41, 4)), "kernel_n_max": 40},
        },
        check_amenable_ladder,
        {"radii": [2, 4], "kernel_n_max": 6},
    ),
]

# config stem -> (check, smoke params); the command comes from the stem.
SHIPPED = {
    "amenability_f2q": (check_non_amenable, {"radii": [2, 4], "kernel_n_max": 6}),
    "amenability_zz": (check_amenable, {"radii": [2, 4], "kernel_n_max": 6}),
    "delta_full_f2": (check_delta_full, {"s_grid": [0.5, 1.0]}),
    "delta_kernel_z2": (check_kernel_amenable, {"n_max": 16}),
    "render_f2_third": (check_full_render, {"depth": 6, "resolution": 32}),
    "render_induced_z2": (
        check_induced_render,
        {"L_max": 2, "composition_depth": 3, "resolution": 32},
    ),
    "symmetry_zz": (check_symmetry, {"n_max": 4, "radius": 2}),
    "walks_f2": (check_tree_walk, {"radii": [2, 4], "radius": 2}),
}

PREFIX_COMMANDS = (
    ("amenability_", "amenability"),
    ("delta_full_", "delta-full"),
    ("delta_kernel_", "delta-kernel"),
    ("render_", "render"),
    ("symmetry_", "symmetry-check"),
    ("walks_", "walks"),
)

WORKLOADS = ("free-kernel", "abelian-ladder", "shipped-configs")
SHUFFLED = {"shipped-configs"}


def command_for(stem: str) -> str:
    for prefix, command in PREFIX_COMMANDS:
        if stem.startswith(prefix):
            return command
    raise ValueError(f"no gdms subcommand for config {stem!r}")


def _with_params(cfg: dict, params: dict) -> dict:
    return {**cfg, "params": {**cfg.get("params", {}), **params}}


def workload_ops(name: str, root: Path, smoke: bool = False) -> list[Op]:
    """The ops of a workload, with configs read from the checkout at ``root``."""
    if name == "shipped-configs":
        table = []
        for stem, (check, small) in SHIPPED.items():
            cfg = json.loads((root / "configs" / f"{stem}.json").read_text())
            cfg.pop("output_dir", None)
            table.append((stem, command_for(stem), cfg, check, small))
    else:
        table = {"free-kernel": FREE_KERNEL, "abelian-ladder": ABELIAN_LADDER}[name]
    return [
        Op(op, command, _with_params(cfg, small) if smoke else cfg, check)
        for op, command, cfg, check, small in table
    ]


def run_check(op: Op, outdir: Path) -> list:
    """Failed conditions of one op's output; a missing or malformed report fails."""
    try:
        report = json.loads((outdir / "report.json").read_text())
        fails = op.check(op.config, report, outdir)
        if report["command"] != op.command:
            fails.append(f"report is for {report['command']!r}, not {op.command!r}")
        return fails
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {type(exc).__name__}: {exc}"]
