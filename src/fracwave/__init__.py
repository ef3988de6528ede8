"""Simulation and verification laboratory for the one-dimensional stochastic
wave equation driven by noise that is white in time and fractionally
correlated in space.

Layers:

- ``noise``: exact synthesis of the driving noise on a space-time grid.
- ``analytic``: closed forms and quadrature oracles for covariances,
  asymptotic variances and first-chaos quantities.
- ``solver``: the leapfrog scheme on the unit-ratio lattice, its kernel
  calibration and a fixed-point reference integrator.
- ``estimators``: replica ensembles, spatial-average statistics, chaos
  decomposition, normality distances, merge-safe summaries.
- ``cli``: command line front end over the same functionality.
"""

from .noise import (
    EmbeddingError,
    NoiseSheet,
    NoiseSpec,
    fgn_cell_covariance,
    read_sheet,
    sample_sheet,
    write_sheet,
)
from .analytic import (
    MomentCurves,
    asymptotic_constants,
    asymptotic_variance,
    cone_inner_product,
    cone_overlap_white,
    cone_window_overlap,
    cone_window_overlap_integral,
    cross_covariance,
    first_chaos_variance,
    linear_white_second_moment,
    linear_white_second_moment_volterra,
    prelimit_cross_white,
    prelimit_variance_white,
)
from .solver import (
    KAPPA,
    LatticeConfig,
    SigmaSpec,
    SolutionField,
    calibrate_kernel,
    picard_reference,
    solve,
)
from .estimators import (
    ChunkResult,
    ExperimentPlan,
    ExperimentSummary,
    FunctionalCovReport,
    PairStats,
    first_chaos_weights,
    functional_cov_check,
    ks_coupled,
    ks_coupled_se,
    ks_critical,
    ks_normality,
    merge_chunks,
    plan_hash,
    run_experiment,
    run_replica_chunk,
    summarize,
    summary_to_dict,
    tightness_moment,
    window_averages,
)

__version__ = "0.1.0"
