"""Gaussian-process regression together with its flat-limit companion models."""

__version__ = "0.1.0"

from .doftools import (
    IsofreedomCurve,
    IsofreedomPoint,
    MatchedApproximation,
    isofreedom_curve,
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
    criteria,
    loo_mse,
    loo_nll,
    smoother_criteria,
    sure,
)
from .kernels import (
    INF_REGULARITY,
    Family,
    Kernel,
    RadialSeries,
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
    count_monomials,
    count_poly_dim,
    enumerate_monomials,
    monomial_matrix,
)
from .pool import map_spectra
from .smoothers import SmootherMatrix, SmootherStack
from .spm import (
    SemiParametricModel,
    SpmFit,
    polyharmonic_spm,
)
