"""Secrecy-rate optimization for active-IRS-aided directional modulation links."""

from .scene import (
    SceneConfig,
    ChannelSet,
    BlockedChannelSet,
    build_channels,
    benchmark_scene,
    path_gain,
    steering_vector,
    db_to_linear,
    dbm_to_watts,
)
from .model import (
    Design,
    NoiseProfile,
    AuxVars,
    effective_channel,
    snr_pair,
    secrecy_rate,
    total_power,
    virtual_rate,
    ldt_objective,
)
from .ldt_cffp import (
    QcqpProblem,
    QcqpSolution,
    solve_qcqp,
    kkt_residuals,
    assemble_vb,
    assemble_ve,
    assemble_theta,
    update_mu,
    optimal_aux,
    run_ldt_cffp,
)
from .nsp_mrr import (
    PaFactors,
    BlockDesign,
    nsp_projector,
    nsp_beamformers,
    mrr_reflect,
    amplification_rho,
    blocked_secrecy_rate,
    PaScalarContext,
    run_nsp_mrr_pa,
)
from .pa_search import (
    SearchResult,
    exhaustive_search,
    pso_search,
    annealing_search,
    fixed_point_search,
    fixed_eta_search,
    fixed_beta_search,
)
from .harness import (
    ExperimentSpec,
    SweepSpec,
    ResultRow,
    run_experiment,
    emit_results,
    read_results_csv,
    read_results_json,
)
from .trace import RunTrace

__version__ = "0.1.0"
