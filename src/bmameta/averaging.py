"""Model-ensemble bookkeeping: posterior model probabilities, Bayes-factor
matrices, inclusion Bayes factors, model-averaged estimates, and
sequential updating.

All probability arithmetic runs in log space with log-sum-exp, so
posterior model probabilities can dwindle to ~1e-300 without the odds
ratios degrading.  Inclusion Bayes factors are computed for any
bipartition of the ensemble; the two canonical ones contrast the models
with a free effect against the point-null models, and the free-
heterogeneity models against the fixed ones.

Model-averaged effect summaries follow the convention of averaging
*conditional on effect presence*: the mixture runs over the free-effect
models with their posterior probabilities renormalized within that set.
A spike-included (unconditional) average is available behind a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .core import Comparison
from .errors import DegenerateEvidenceError, ParameterError
from .marginal import (
    ModelSpec,
    PosteriorSummary,
    grid_cdf,
    log_marginal,  # noqa: F401 - unused here, but bench/tracing.py wraps this name
    log_marginals,
    posterior_summary,
    summarize_grid,
)
from .priors import PriorSpec

__all__ = [
    "MODEL_TYPES",
    "EnsembleMember",
    "ModelEnsemble",
    "BmaResult",
    "build_standard_ensemble",
    "evaluate",
    "member_log_marginals",
    "log_posteriors",
    "inclusion_bf",
    "log_inclusion_bf",
    "sequential_update",
    "mixture_summary",
]

MODEL_TYPES = ("fixed_H0", "fixed_H1", "random_H0", "random_H1")


@dataclass(frozen=True)
class EnsembleMember:
    model: ModelSpec
    prior_prob: float


@dataclass(frozen=True)
class ModelEnsemble:
    """A weighted collection of models; prior probabilities sum to one."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise ParameterError("an ensemble needs at least two members")
        probs = np.array([m.prior_prob for m in self.members])
        if np.any(probs <= 0):
            raise ParameterError("all prior model probabilities must be > 0")
        if abs(float(np.sum(probs)) - 1.0) > 1e-12:
            raise ParameterError(
                f"prior model probabilities must sum to 1, got {float(np.sum(probs))!r}"
            )

    @property
    def names(self) -> tuple:
        return tuple(m.model.name for m in self.members)

    @property
    def prior_probs(self) -> np.ndarray:
        return np.array([m.prior_prob for m in self.members])

    @property
    def effect_indices(self) -> tuple:
        return tuple(i for i, m in enumerate(self.members) if m.model.delta_free)

    @property
    def heterogeneity_indices(self) -> tuple:
        return tuple(i for i, m in enumerate(self.members) if m.model.tau_free)


def build_standard_ensemble(
    delta_priors: Sequence[PriorSpec],
    tau_priors: Sequence[PriorSpec],
    *,
    type_probs: Sequence[float] = (0.25, 0.25, 0.25, 0.25),
    include_types: Sequence[str] = MODEL_TYPES,
) -> ModelEnsemble:
    """Cross free/null assumptions with candidate priors into an ensemble.

    Each model type gets its ``type_probs`` share, spread evenly over the
    type's prior configurations (so 3 delta priors and 4 tau priors
    produce weights 1/4, 1/12, 1/16, 1/48).  Restricting
    ``include_types`` renormalizes over the kept types; with
    ``include_types=("random_H1",)`` every free-effect/free-tau
    configuration gets equal weight.  Members are ordered by model type,
    then delta-major within ``random_H1``.
    """
    delta_priors = list(delta_priors)
    tau_priors = list(tau_priors)
    if not delta_priors or not tau_priors:
        raise ParameterError("need at least one delta prior and one tau prior")
    unknown = set(include_types) - set(MODEL_TYPES)
    if unknown:
        raise ParameterError(f"unknown model types {sorted(unknown)!r}")
    type_probs = np.asarray(type_probs, dtype=float)
    if type_probs.shape != (4,) or np.any(type_probs <= 0):
        raise ParameterError("type_probs must be four positive values")
    if abs(float(np.sum(type_probs)) - 1.0) > 1e-9:
        raise ParameterError("type_probs must sum to 1")

    point0 = PriorSpec.point(0.0)
    configs = {
        "fixed_H0": [(point0, point0)],
        "fixed_H1": [(d, point0) for d in delta_priors],
        "random_H0": [(point0, t) for t in tau_priors],
        "random_H1": [(d, t) for d in delta_priors for t in tau_priors],
    }
    kept = [t for t in MODEL_TYPES if t in set(include_types)]
    shares = {t: p for t, p in zip(MODEL_TYPES, type_probs)}
    # renormalize only when types were actually excluded, so a full
    # ensemble passes the caller's probabilities through untouched
    norm = sum(shares[t] for t in kept) if len(kept) < 4 else 1.0
    members = []
    for t in kept:
        per = shares[t] / norm / len(configs[t])
        for d, tau in configs[t]:
            members.append(EnsembleMember(ModelSpec(_member_name(t, d, tau, configs), d, tau), per))
    return ModelEnsemble(tuple(members))


def _member_name(model_type: str, d: PriorSpec, tau: PriorSpec, configs) -> str:
    if len(configs[model_type]) == 1:
        return model_type
    if model_type == "fixed_H1":
        return f"{model_type}[{d}]"
    if model_type == "random_H0":
        return f"{model_type}[{tau}]"
    return f"{model_type}[{d};{tau}]"


@dataclass(frozen=True, eq=False)
class BmaResult:
    """Everything the ensemble update produced for one comparison.

    Inclusion Bayes factors are held as logs (``None`` when the ensemble
    has no model on one side); ``incl_bf_*`` are their exponentials,
    ``inf`` once a factor exceeds the float range.
    """

    member_names: tuple
    model_types: tuple
    prior_probs: np.ndarray
    log_marginals: np.ndarray
    posterior_probs: np.ndarray
    bf_matrix: np.ndarray
    incl_log_bf_effect: Optional[float]
    incl_posterior_prob_effect: Optional[float]
    incl_log_bf_heterogeneity: Optional[float]
    incl_posterior_prob_heterogeneity: Optional[float]
    averaged_delta: Optional[PosteriorSummary] = None
    delta_fixed: Optional[PosteriorSummary] = None
    delta_random: Optional[PosteriorSummary] = None
    averaged_tau: Optional[PosteriorSummary] = None
    averaged_delta_unconditional: Optional[PosteriorSummary] = None
    member_delta: tuple = ()
    member_tau: tuple = ()

    @property
    def incl_bf_effect(self) -> Optional[float]:
        return _exp_bf(self.incl_log_bf_effect)

    @property
    def incl_bf_heterogeneity(self) -> Optional[float]:
        return _exp_bf(self.incl_log_bf_heterogeneity)


def _exp_bf(log_bf: Optional[float]) -> Optional[float]:
    if log_bf is None:
        return None
    try:
        return math.exp(log_bf)
    except OverflowError:  # the BF exceeds the float range; reported as infinite
        return math.inf


def log_inclusion_bf(ensemble: ModelEnsemble, log_weights, in_indices) -> float:
    """Log Bayes factor for a bipartition: log posterior odds minus log prior odds.

    ``log_weights`` are the members' log posterior weights up to a common
    constant, e.g. log prior plus log marginal likelihood, or the logs of
    posterior probabilities.  ``in_indices`` selects the numerator side.
    A side without weight yields ``inf`` or ``-inf`` rather than an
    exception.  The value stays finite where the Bayes factor itself
    overflows.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    in_mask = np.zeros(log_weights.size, dtype=bool)
    in_mask[list(in_indices)] = True
    if not np.any(in_mask) or np.all(in_mask):
        raise ParameterError("partition must be nonempty on both sides")
    log_in, log_out = logsumexp(log_weights[in_mask]), logsumexp(log_weights[~in_mask])
    if not np.isfinite(log_out):
        log_odds_post = math.inf
    elif not np.isfinite(log_in):
        log_odds_post = -math.inf
    else:
        log_odds_post = float(log_in - log_out)
    log_prior = np.log(ensemble.prior_probs)
    return log_odds_post - float(logsumexp(log_prior[in_mask]) - logsumexp(log_prior[~in_mask]))


def inclusion_bf(ensemble: ModelEnsemble, posterior_probs, in_indices) -> float:
    """Bayes factor for a bipartition, from posterior model probabilities.

    The exponential of :func:`log_inclusion_bf`.  A zero denominator, or
    a factor beyond the float range, yields ``inf`` (check with
    ``math.isinf``) rather than an exception.
    """
    with np.errstate(divide="ignore"):
        log_post = np.log(np.asarray(posterior_probs, dtype=float))
    return _exp_bf(log_inclusion_bf(ensemble, log_post, in_indices))


def mixture_summary(summaries: Sequence[PosteriorSummary], weights) -> PosteriorSummary:
    """Posterior summary of a weighted mixture, on the combined grid."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / np.sum(weights)
    if len(summaries) == 1:
        return summaries[0]
    x = np.unique(np.concatenate([s.grid_x for s in summaries]))
    pdf = np.zeros_like(x)
    for s, w in zip(summaries, weights):
        pdf += w * np.interp(x, s.grid_x, s.grid_pdf, left=0.0, right=0.0)
    return summarize_grid(x, pdf)


def _mixture_with_spikes(
    summaries: Sequence[PosteriorSummary],
    weights,
    spike_values,
    spike_weights,
) -> PosteriorSummary:
    """Mixture summary including point masses; no density grid is attached."""
    weights = np.asarray(weights, dtype=float)
    spike_values = np.asarray(spike_values, dtype=float)
    spike_weights = np.asarray(spike_weights, dtype=float)
    mean = float(np.sum(weights * [s.mean for s in summaries]) + np.sum(spike_weights * spike_values))
    second = float(
        np.sum(weights * [s.sd**2 + s.mean**2 for s in summaries])
        + np.sum(spike_weights * spike_values**2)
    )
    var = max(second - mean * mean, 0.0)

    x = np.unique(np.concatenate([spike_values] + [s.grid_x for s in summaries]))
    cdf = np.zeros_like(x)
    for s, w in zip(summaries, weights):
        cdf += w * np.interp(x, s.grid_x, grid_cdf(s.grid_x, s.grid_pdf), left=0.0, right=1.0)
    for v, w in zip(spike_values, spike_weights):
        cdf += w * (x >= v)

    def invert(q):
        idx = int(np.searchsorted(cdf, q, side="left"))
        return float(x[min(idx, x.size - 1)])

    return PosteriorSummary(
        mean=mean, median=invert(0.5), sd=math.sqrt(var),
        ci_lower=invert(0.025), ci_upper=invert(0.975),
        grid_x=None, grid_pdf=None,
    )


def member_log_marginals(
    ensemble: ModelEnsemble, comparison: Comparison, *, rel_tol: float = 1e-9
) -> np.ndarray:
    """The members' log marginal likelihoods on ``comparison``; a
    :class:`DegenerateEvidenceError` when every one of them is zero."""
    models = [m.model for m in ensemble.members]
    logml = log_marginals(models, comparison, rel_tol=rel_tol)
    if not np.any(np.isfinite(logml)):
        raise DegenerateEvidenceError("every model has zero marginal likelihood")
    return logml


def log_posteriors(ensemble: ModelEnsemble, logml: np.ndarray) -> tuple:
    """(log prior + log marginal, log posterior probability) of the members,
    whose log marginals ``logml`` holds along its last axis."""
    log_unnorm = np.log(ensemble.prior_probs) + logml
    return log_unnorm, log_unnorm - logsumexp(log_unnorm, axis=-1, keepdims=True)


def _group_weights(log_post: np.ndarray, indices) -> np.ndarray:
    sub = log_post[list(indices)]
    return np.exp(sub - logsumexp(sub))


def evaluate(
    ensemble: ModelEnsemble,
    comparison: Comparison,
    *,
    rel_tol: float = 1e-9,
    summaries: bool = True,
    include_null_average: bool = False,
) -> BmaResult:
    """Update the ensemble on one comparison.

    Computes per-member log marginal likelihoods, posterior model
    probabilities, the pairwise Bayes-factor matrix, and the inclusion
    Bayes factors for the effect and for heterogeneity.  With
    ``summaries=True``, grid posteriors are produced per free parameter
    and mixed into fixed/random/averaged effect summaries (conditional on
    effect presence) and an averaged heterogeneity summary.
    """
    models = [m.model for m in ensemble.members]
    logml = member_log_marginals(ensemble, comparison, rel_tol=rel_tol)
    log_unnorm, log_post = log_posteriors(ensemble, logml)
    posterior = np.exp(log_post)

    with np.errstate(invalid="ignore", over="ignore"):
        bf_matrix = np.exp(logml[:, None] - logml[None, :])
    np.fill_diagonal(bf_matrix, 1.0)

    eff = list(ensemble.effect_indices)
    het = list(ensemble.heterogeneity_indices)
    n = len(models)

    def _inclusion(in_idx):
        """(log BF, posterior probability) of a side; Nones unless both sides have members."""
        if not in_idx or len(in_idx) == n:
            return None, None
        # log-sum-exp rounding can put a sure side a few ulps above one
        post = min(float(np.exp(logsumexp(log_post[in_idx]))), 1.0)
        return log_inclusion_bf(ensemble, log_unnorm, in_idx), post

    log_bf_effect, post_effect = _inclusion(eff)
    log_bf_het, post_het = _inclusion(het)

    member_delta: list = [None] * n
    member_tau: list = [None] * n
    delta_fixed = delta_random = averaged_delta = averaged_tau = None
    averaged_unconditional = None
    if summaries:
        for i, model in enumerate(models):
            if model.delta_free:
                member_delta[i] = posterior_summary(
                    model, comparison, "delta", rel_tol=rel_tol, _log_ml=logml[i]
                )
            if model.tau_free:
                member_tau[i] = posterior_summary(
                    model, comparison, "tau", rel_tol=rel_tol, _log_ml=logml[i]
                )
        fixed_idx = [i for i in eff if not models[i].tau_free]
        random_idx = [i for i in eff if models[i].tau_free]
        if fixed_idx:
            delta_fixed = mixture_summary(
                [member_delta[i] for i in fixed_idx], _group_weights(log_post, fixed_idx)
            )
        if random_idx:
            delta_random = mixture_summary(
                [member_delta[i] for i in random_idx], _group_weights(log_post, random_idx)
            )
        if eff:
            averaged_delta = mixture_summary(
                [member_delta[i] for i in eff], _group_weights(log_post, eff)
            )
        if het:
            averaged_tau = mixture_summary(
                [member_tau[i] for i in het], _group_weights(log_post, het)
            )
        if include_null_average and eff:
            null_idx = [i for i in range(n) if i not in set(eff)]
            averaged_unconditional = _mixture_with_spikes(
                [member_delta[i] for i in eff],
                posterior[eff],
                [models[i].delta_prior.params[0] for i in null_idx],
                posterior[null_idx],
            )

    return BmaResult(
        member_names=tuple(m.name for m in models),
        model_types=tuple(m.model_type for m in models),
        prior_probs=ensemble.prior_probs,
        log_marginals=logml,
        posterior_probs=posterior,
        bf_matrix=bf_matrix,
        incl_log_bf_effect=log_bf_effect,
        incl_posterior_prob_effect=post_effect,
        incl_log_bf_heterogeneity=log_bf_het,
        incl_posterior_prob_heterogeneity=post_het,
        averaged_delta=averaged_delta,
        delta_fixed=delta_fixed,
        delta_random=delta_random,
        averaged_tau=averaged_tau,
        averaged_delta_unconditional=averaged_unconditional,
        member_delta=tuple(member_delta),
        member_tau=tuple(member_tau),
    )


def sequential_update(
    ensemble: ModelEnsemble,
    comparison: Comparison,
    order: Optional[Sequence[int]] = None,
    *,
    rel_tol: float = 1e-9,
) -> list:
    """Re-evaluate the ensemble on growing study prefixes.

    ``order`` must be a permutation of the study indices; the default is
    input order.  Element ``t`` is the batch result, without posterior
    summaries, for the first ``t+1`` studies, so the final element
    matches a full batch evaluation.
    """
    k = comparison.k
    if order is None:
        order = list(range(k))
    else:
        order = [int(i) for i in order]
        if sorted(order) != list(range(k)):
            raise ParameterError("order must be a permutation of the study indices")
    return [
        evaluate(ensemble, comparison.subset(order[:t]), rel_tol=rel_tol, summaries=False)
        for t in range(1, k + 1)
    ]
