"""Spectral numerics for linear graph directed Markov systems over free groups.

The package computes exponents of convergence, pressure functions, transfer
and skew-operator spectral radii, random-walk spectra, and fractal dimension
estimates for linear systems associated to F_d and quotients F_d / N,
exhibiting numerically how amenability of the quotient governs the dimension
of radial limit sets.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT=4`` in ``os.environ``
unless it is already set.  numpy's bundled OpenBLAS starts one worker
thread per extra core, and by default an idle worker busy-polls for about
2**28 cycles (~0.1 s) before it sleeps, over a third of the CPU time of a
short run; at 4 it polls for 2**4 cycles.  The thread count
and the work split are unchanged, so results are bit-identical and large
BLAS calls keep their threads.  OpenBLAS reads the variable once, when numpy
is first imported, so a program that imports numpy before gdms keeps its own
setting.  To override the default, set the variable in the environment:
``OPENBLAS_THREAD_TIMEOUT=28 gdms ...`` restores OpenBLAS's own.

Importing the package loads no submodule and not numpy.  Each public name
(``from gdms import delta_kernel``, ``gdms.FreeQuotient``) is looked up in
``_EXPORTS`` and read from its defining submodule, which is imported on the
first such read (PEP 562), so a command pays only for the modules it runs.
``gdms.pressure`` is the function, as the submodule of that name defines it.
"""

import importlib
import os
import sys
import types

# Must run before any submodule imports numpy (see the docstring).
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

# The public names of each submodule.
_EXPORTS = {
    "errors": (
        "CapExceededError", "ConfigError", "ConvergenceError", "GdmsError",
        "InconsistentReportError", "LayoutInfeasibleError",
    ),
    "groups": (
        "Ball", "FinitePermQuotient", "FreeAbelianQuotient", "FreeQuotient",
        "QuotientGroup", "ball", "letter_name",
    ),
    "kernel": (
        "DeltaKernelResult", "InducedSystem", "KernelCountTable", "KernelPressureEstimate",
        "delta_kernel", "divergence_check", "induced_bowen_root", "induced_loops",
        "kernel_counts", "kernel_pressure",
    ),
    "pressure": (
        "LinearGdmsSpec", "bowen_root", "perron_data", "pressure", "pressure_curve",
    ),
    "render": (
        "BoxCountResult", "GeometricRealization", "PointCloud", "attractor_points",
        "auto_layout", "box_counting", "render_image", "write_pgm",
    ),
    "skew": (
        "DichotomyReport", "SkewOperator", "SymmetryReport", "amenability_report",
        "build_skew_operator", "check_asymptotic_symmetry",
    ),
    "walks": (
        "IsoperimetricReport", "WalkLadder", "isoperimetric_scan", "srw_spectral_radius",
        "srw_weights", "walk_ladder", "walk_step",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "linalg", "reports")
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Read a public name from its submodule, or load a submodule by name."""
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each submodule it loads on the package; a
        # public name keeps its meaning over a namesake submodule, so
        # ``gdms.pressure`` stays the function ``pressure.pressure``.
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
