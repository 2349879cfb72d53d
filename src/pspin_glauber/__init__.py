"""Glauber dynamics on the p-spin Curie-Weiss model.

Phase geometry of the mixing transition, exact and Monte-Carlo mixing
times, conductance bottlenecks, restricted dynamics and the metastable
window sampler.
"""

from .potential import (
    CURVATURE_TOL,
    DomainError,
    ModelParams,
    PointKind,
    PotentialValues,
    StationaryPoint,
    drift_field,
    entropy,
    evaluate_potential,
    find_stationary_points,
    free_energy,
    free_energy_d1,
    free_energy_d2,
    local_maxima,
    mean_field_map,
)
from .phase_geometry import (
    BoundaryDetail,
    CurveSample,
    GridSpec,
    InflectionPair,
    PhaseDiagramGrid,
    PhaseReport,
    Region,
    Thresholds,
    beta_hat,
    boundary_curves,
    classify_point,
    curves_csv,
    grid_csv,
    h_hat,
    inflection_pair,
    scan_grid,
    thresholds,
)
from .dynamics import (
    CouplingSpec,
    CouplingTrace,
    LevelKernel,
    MetastableSpec,
    RunSpec,
    SamplerReport,
    SpinConfig,
    Trace,
    kernel_arrays,
    metastable_sample,
    restricted_threshold,
    rng_stream,
    run_chain,
    run_coupling,
)
from .mixing_analysis import (
    EXACT,
    MONTE_CARLO,
    BottleneckReport,
    HittingReport,
    MagDistribution,
    MixingReport,
    TVCurve,
    bottleneck,
    chain_stationary,
    condition_at_least,
    hitting_time,
    mixing_time,
    restricted_mixing_time,
    stationary_mag,
    tv_curve,
)

__version__ = "0.1.0"
