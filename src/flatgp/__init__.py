"""Gaussian-process regression together with its flat-limit companion models."""

__version__ = "0.1.0"

from .doftools import (
    IsofreedomCurve,
    IsofreedomPoint,
    MatchedApproximation,
    isofreedom_curve,
    isofreedom_gamma,
    matched_approximation,
)
from .flatlimit import (
    EquivalenceReport,
    LimitCase,
    LimitCaseKind,
    PredictionCurve,
    ScaledKernelFamily,
    absorbed_kernel_model,
    check_pred_equiv,
    classify_limit,
    convergence_study,
    limiting_smoother,
    match_scale,
    prediction_curve,
    recombined_basis_model,
)
from .gp import (
    GpSpectrum,
    dof,
    gp_posterior,
    gp_smoother,
    loo_mse,
    loo_nll,
    nlml,
    sure,
)
from .kernels import (
    INF_REGULARITY,
    Family,
    Kernel,
    RadialSeries,
    WronskianMatrix,
    distance_power_matrix,
    eval_kernel,
    kernel_cross,
    kernel_diag,
    kernel_matrix,
    leading_odd_coefficient,
    radial_series,
    regularity,
    wronskian,
    wronskian_schur,
)
from .polybasis import (
    Design,
    MultiIndex,
    VandermondeBlocks,
    count_monomials,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
    unisolvency_rank,
    vandermonde,
)
from .pool import map_spectra
from .smoothers import SmootherMatrix
from .spm import (
    SemiParametricModel,
    SpmFit,
    cpd_check,
    fit_spm,
    laurent_b0,
    polyharmonic_spm,
    project_out_basis,
    smoothing_spline_fit,
    spline_dof,
    spm_posterior_mean,
    spm_posterior_var,
    spm_smoother,
)
