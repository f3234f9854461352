"""Bayesian model-averaged meta-analysis for standardized mean differences.

Four-model ensembles (fixed/random effects crossed with null/free mean
effect), marginal likelihoods by log-space adaptive quadrature,
inclusion Bayes factors, model-averaged estimates, REML estimation,
empirical-prior fitting, corpus-level prior ranking, and an embedded
catalog of subfield-specific priors.
"""

from . import catalog
from .averaging import (
    MODEL_TYPES,
    BmaResult,
    EnsembleMember,
    ModelEnsemble,
    build_standard_ensemble,
    evaluate,
    log_inclusion_bfs,
    mixture_summary,
    sequential_update,
)
from .core import (
    Comparison,
    Study,
    loglik_random,
    smd_from_raw,
)
from .errors import (
    BmaMetaError,
    ComputationError,
    ConvergenceError,
    CorpusEvaluationError,
    DegenerateDataError,
    DegenerateEvidenceError,
    DomainError,
    EmptyTrainingError,
    InputError,
    InsufficientDataError,
    ParameterError,
    ParseError,
    UnsupportedOperationError,
)
from .forest import forest_svg
from .marginal import ModelSpec, PosteriorSummary, log_marginal, posterior_summary
from .priors import FAMILIES, FITTABLE_FAMILIES, PriorSpec, fit_mle, parse_prior
from .quadrature import log_quad_batch
from .ranking import (
    InclusionSummary,
    RankingRow,
    RankingTable,
    average_model_types,
    average_parameter_priors,
    corpus_inclusion_summary,
    rank_configurations,
)
from .reml import RemlFit, reml_fit, reml_fits, restricted_loglik
from .training import (
    CandidatePriorSet,
    TrainingEstimates,
    TrainingProvenance,
    fit_candidates,
    general_candidate_set,
    prepare_training,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "catalog",
    # priors
    "PriorSpec", "fit_mle", "parse_prior", "FAMILIES", "FITTABLE_FAMILIES",
    # core
    "Study", "Comparison", "smd_from_raw", "loglik_random",
    # quadrature
    "log_quad_batch",
    # marginal
    "ModelSpec", "PosteriorSummary", "log_marginal", "posterior_summary",
    # averaging
    "MODEL_TYPES", "EnsembleMember", "ModelEnsemble", "BmaResult",
    "build_standard_ensemble", "evaluate", "log_inclusion_bfs",
    "sequential_update",
    "mixture_summary",
    # reml
    "RemlFit", "reml_fit", "reml_fits", "restricted_loglik",
    # training
    "TrainingProvenance", "TrainingEstimates", "CandidatePriorSet",
    "prepare_training", "fit_candidates", "general_candidate_set",
    # ranking
    "RankingRow", "RankingTable", "InclusionSummary",
    "rank_configurations", "average_model_types", "average_parameter_priors",
    "corpus_inclusion_summary",
    # forest
    "forest_svg",
    # errors
    "BmaMetaError", "InputError", "ParameterError", "DomainError", "ParseError",
    "UnsupportedOperationError", "DegenerateDataError", "InsufficientDataError",
    "ComputationError", "ConvergenceError", "DegenerateEvidenceError",
    "EmptyTrainingError", "CorpusEvaluationError",
]
