"""Spectral numerics for linear graph directed Markov systems over free groups.

The package computes exponents of convergence, pressure functions, transfer
and skew-operator spectral radii, random-walk spectra, and fractal dimension
estimates for linear systems associated to F_d and quotients F_d / N,
exhibiting numerically how amenability of the quotient governs the dimension
of radial limit sets.
"""

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
