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
"""

import os

# Must run before any submodule imports numpy (see the docstring).
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .errors import (
    CapExceededError,
    ConfigError,
    ConvergenceError,
    GdmsError,
    InconsistentReportError,
    LayoutInfeasibleError,
)
from .groups import (
    Ball,
    FinitePermQuotient,
    FreeAbelianQuotient,
    FreeQuotient,
    QuotientGroup,
    ball,
    letter_name,
)
from .kernel import (
    DeltaKernelResult,
    InducedSystem,
    KernelCountTable,
    KernelPressureEstimate,
    delta_kernel,
    divergence_check,
    induced_bowen_root,
    induced_loops,
    kernel_counts,
    kernel_pressure,
)
from .pressure import (
    LinearGdmsSpec,
    SpectralData,
    bowen_root,
    pressure,
    pressure_curve,
    spectral_data,
    transfer_matrix,
)
from .render import (
    BoxCountResult,
    GeometricRealization,
    PointCloud,
    attractor_points,
    auto_layout,
    box_counting,
    render_image,
    write_pgm,
)
from .skew import (
    DichotomyReport,
    SkewOperator,
    SymmetryReport,
    amenability_report,
    build_skew_operator,
    check_asymptotic_symmetry,
)
from .walks import (
    IsoperimetricReport,
    WalkLadder,
    isoperimetric_scan,
    srw_spectral_radius,
    srw_weights,
    walk_ladder,
    walk_step,
)

__version__ = "0.1.0"
