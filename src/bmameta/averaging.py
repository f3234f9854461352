"""Model-ensemble bookkeeping: posterior model probabilities, Bayes-factor
matrices, inclusion Bayes factors, model-averaged estimates, and
sequential updating.

All probability arithmetic runs in log space with log-sum-exp, so
posterior model probabilities can dwindle to ~1e-300 without the odds
ratios degrading.  Inclusion Bayes factors are computed for any
bipartition of the ensemble; the two canonical ones contrast the models
with a free effect against the point-null models, and the free-
heterogeneity models against the fixed ones.

Every result comes from one (rows x members) matrix of log marginal
likelihoods: one row for :func:`evaluate`, one per study prefix for
:func:`sequential_update`, whose prefixes run as chunks of one corpus
pass (:func:`chunk_member_log_marginals`).  Each reduction over members
runs on the whole matrix at once, and each row keeps the bits it has alone.

Model-averaged effect summaries follow the convention of averaging
*conditional on effect presence*: the mixture runs over the free-effect
models with their posterior probabilities renormalized within that set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .core import Comparison
from .errors import BmaMetaError, DegenerateEvidenceError, ParameterError
from .marginal import (
    ModelSpec,
    PosteriorSummary,
    chunk_log_marginals,
    chunk_size,
    log_marginal,  # noqa: F401 - unused here, but bench/tracing.py wraps this name
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
    "chunk_member_log_marginals",
    "log_posteriors",
    "inclusion_bf",
    "log_inclusion_bfs",
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
    ``inf`` once a factor exceeds the float range.  The pairwise
    ``log_bf_matrix`` and ``bf_matrix`` derive from ``log_marginals``.
    """

    member_names: tuple
    model_types: tuple
    prior_probs: np.ndarray
    log_marginals: np.ndarray
    posterior_probs: np.ndarray
    incl_log_bf_effect: Optional[float]
    incl_posterior_prob_effect: Optional[float]
    incl_log_bf_heterogeneity: Optional[float]
    incl_posterior_prob_heterogeneity: Optional[float]
    averaged_delta: Optional[PosteriorSummary] = None
    delta_fixed: Optional[PosteriorSummary] = None
    delta_random: Optional[PosteriorSummary] = None
    averaged_tau: Optional[PosteriorSummary] = None
    member_delta: tuple = ()
    member_tau: tuple = ()

    @property
    def log_bf_matrix(self) -> np.ndarray:
        """``log_marginals[i] - log_marginals[j]`` at ``[i, j]``."""
        with np.errstate(invalid="ignore"):  # nan between two zero likelihoods
            return self.log_marginals[:, None] - self.log_marginals[None, :]

    @property
    def bf_matrix(self) -> np.ndarray:
        """Pairwise Bayes factors: 1 on the diagonal, ``inf`` past the float range."""
        with np.errstate(over="ignore"):
            bf = np.exp(self.log_bf_matrix)
        np.fill_diagonal(bf, 1.0)
        return bf

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


def log_inclusion_bfs(ensemble: ModelEnsemble, log_weights, in_indices) -> np.ndarray:
    """Log Bayes factor of a bipartition for each row of ``log_weights``
    (rows x members): log posterior odds minus log prior odds.

    A row holds the members' log posterior weights up to a common
    constant, e.g. log prior plus log marginal likelihood, or the logs of
    posterior probabilities.  ``in_indices`` selects the numerator side.
    The ensemble's log prior odds are computed once, and each side's
    posterior weight in one reduction over all rows.  A side without
    weight yields ``inf`` or ``-inf`` rather than an exception.  The
    value stays finite where the Bayes factor itself overflows.
    """
    log_weights = np.atleast_2d(np.asarray(log_weights, dtype=float))
    in_mask = np.zeros(log_weights.shape[1], dtype=bool)
    in_mask[list(in_indices)] = True
    if not np.any(in_mask) or np.all(in_mask):
        raise ParameterError("partition must be nonempty on both sides")
    log_prior = np.log(ensemble.prior_probs)
    log_odds_prior = float(logsumexp(log_prior[in_mask]) - logsumexp(log_prior[~in_mask]))
    log_in = _row_logsumexp(log_weights[:, in_mask])
    log_out = _row_logsumexp(log_weights[:, ~in_mask])
    with np.errstate(invalid="ignore"):  # inf - inf where neither side has weight
        log_odds_post = np.where(~np.isfinite(log_out), math.inf,
                                 np.where(~np.isfinite(log_in), -math.inf, log_in - log_out))
    return log_odds_post - log_odds_prior


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of ``a``.  A column selection is not
    C-contiguous, and numpy sums it in another order than a lone row: the
    contiguous copy gives each row the bits it has when reduced alone."""
    return logsumexp(np.ascontiguousarray(a), axis=1)


def inclusion_bf(ensemble: ModelEnsemble, posterior_probs, in_indices) -> float:
    """Bayes factor for a bipartition, from posterior model probabilities.

    The exponential of :func:`log_inclusion_bfs`.  A zero denominator, or
    a factor beyond the float range, yields ``inf`` (check with
    ``math.isinf``) rather than an exception.
    """
    with np.errstate(divide="ignore"):
        log_post = np.log(np.asarray(posterior_probs, dtype=float))
    return _exp_bf(float(log_inclusion_bfs(ensemble, log_post, in_indices)[0]))


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


def member_log_marginals(
    ensemble: ModelEnsemble, comparison: Comparison, *, rel_tol: float = 1e-9
) -> np.ndarray:
    """The members' log marginal likelihoods on ``comparison``, the chunk
    of one of :func:`chunk_member_log_marginals`; its error is raised."""
    (out,) = chunk_member_log_marginals(ensemble, [comparison], rel_tol=rel_tol)
    if isinstance(out, BmaMetaError):
        raise out
    return out


def chunk_member_log_marginals(
    ensemble: ModelEnsemble, comparisons: Sequence[Comparison], *, rel_tol: float = 1e-9
) -> list:
    """Per comparison, its members' log marginal likelihoods or the package
    error (:class:`BmaMetaError`) that fails it, from one
    :func:`~bmameta.marginal.chunk_log_marginals` pass over the chunk.

    A chunk that raises is rerun one comparison at a time, so each failure
    is the one that comparison raises alone, and the others keep their
    rows: a row does not depend on its chunk.  A row with no finite entry
    is a :class:`DegenerateEvidenceError`.
    """
    models = [m.model for m in ensemble.members]
    try:
        rows = chunk_log_marginals(models, comparisons, rel_tol=rel_tol)
    except BmaMetaError as exc:
        if len(comparisons) == 1:
            return [exc]
        return [out for c in comparisons
                for out in chunk_member_log_marginals(ensemble, [c], rel_tol=rel_tol)]
    return [row if np.any(np.isfinite(row))
            else DegenerateEvidenceError("every model has zero marginal likelihood")
            for row in rows]


def log_posteriors(ensemble: ModelEnsemble, logml: np.ndarray) -> tuple:
    """(log prior + log marginal, log posterior probability) of the members,
    whose log marginals ``logml`` holds along its last axis."""
    log_unnorm = np.log(ensemble.prior_probs) + logml
    return log_unnorm, log_unnorm - logsumexp(log_unnorm, axis=-1, keepdims=True)


def _group_weights(log_post: np.ndarray, indices) -> np.ndarray:
    sub = log_post[list(indices)]
    return np.exp(sub - logsumexp(sub))


def _results(ensemble: ModelEnsemble, logml: np.ndarray) -> tuple:
    """(One :class:`BmaResult`, without posterior summaries, per row of the
    (rows x members) log-marginal matrix ``logml``; the rows' log posterior
    probabilities).

    Each side of the effect and heterogeneity partitions gets its log
    inclusion Bayes factor and posterior probability, or ``None`` twice
    when the ensemble has no member, or only members, on that side.
    """
    log_unnorm, log_post = log_posteriors(ensemble, logml)
    posterior = np.exp(log_post)
    n_rows, n = logml.shape

    def inclusion(in_idx):
        """(log BFs, posterior probabilities) of a side, one per row."""
        if not in_idx or len(in_idx) == n:
            return [None] * n_rows, [None] * n_rows
        log_bf = log_inclusion_bfs(ensemble, log_unnorm, in_idx)
        # log-sum-exp rounding can put a sure side a few ulps above one
        post = np.minimum(np.exp(_row_logsumexp(log_post[:, list(in_idx)])), 1.0)
        return log_bf.tolist(), post.tolist()

    eff_bf, eff_post = inclusion(ensemble.effect_indices)
    het_bf, het_post = inclusion(ensemble.heterogeneity_indices)
    models = [m.model for m in ensemble.members]
    return [
        BmaResult(
            member_names=tuple(m.name for m in models),
            model_types=tuple(m.model_type for m in models),
            prior_probs=ensemble.prior_probs,
            log_marginals=logml[r],
            posterior_probs=posterior[r],
            incl_log_bf_effect=eff_bf[r],
            incl_posterior_prob_effect=eff_post[r],
            incl_log_bf_heterogeneity=het_bf[r],
            incl_posterior_prob_heterogeneity=het_post[r],
            member_delta=(None,) * n,
            member_tau=(None,) * n,
        )
        for r in range(n_rows)
    ], log_post


def evaluate(
    ensemble: ModelEnsemble,
    comparison: Comparison,
    *,
    rel_tol: float = 1e-9,
    summaries: bool = True,
) -> BmaResult:
    """Update the ensemble on one comparison.

    Computes per-member log marginal likelihoods, posterior model
    probabilities, the pairwise Bayes-factor matrix, and the inclusion
    Bayes factors for the effect and for heterogeneity.  With
    ``summaries=True``, grid posteriors are produced per free parameter
    and mixed into fixed/random/averaged effect summaries (conditional on
    effect presence) and an averaged heterogeneity summary.
    """
    logml = member_log_marginals(ensemble, comparison, rel_tol=rel_tol)
    results, log_post = _results(ensemble, logml[None, :])
    result, log_post = results[0], log_post[0]
    if not summaries:
        return result

    models = [m.model for m in ensemble.members]
    member_delta: list = [None] * len(models)
    member_tau: list = [None] * len(models)
    for i, model in enumerate(models):
        if model.delta_free:
            member_delta[i] = posterior_summary(
                model, comparison, "delta", rel_tol=rel_tol, _log_ml=logml[i]
            )
        if model.tau_free:
            member_tau[i] = posterior_summary(
                model, comparison, "tau", rel_tol=rel_tol, _log_ml=logml[i]
            )

    def averaged(summaries, indices):
        if not indices:
            return None
        return mixture_summary([summaries[i] for i in indices], _group_weights(log_post, indices))

    eff = ensemble.effect_indices
    return replace(
        result,
        averaged_delta=averaged(member_delta, eff),
        delta_fixed=averaged(member_delta, [i for i in eff if not models[i].tau_free]),
        delta_random=averaged(member_delta, [i for i in eff if models[i].tau_free]),
        averaged_tau=averaged(member_tau, ensemble.heterogeneity_indices),
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
    input order.  Element ``t`` is the result, without posterior
    summaries, for the first ``t+1`` studies: bit for bit
    ``evaluate(ensemble, prefix, summaries=False)``, so the final element
    matches a full batch evaluation.  The prefixes are the comparisons of
    chunked passes (:func:`chunk_member_log_marginals`, in chunks of
    :func:`~bmameta.marginal.chunk_size`); the first prefix that fails
    raises its error.
    """
    k = comparison.k
    if order is None:
        order = list(range(k))
    else:
        order = [int(i) for i in order]
        if sorted(order) != list(range(k)):
            raise ParameterError("order must be a permutation of the study indices")
    prefixes = [comparison.subset(order[:t]) for t in range(1, k + 1)]
    size = chunk_size([m.model for m in ensemble.members])
    rows = []
    for i in range(0, k, size):
        for out in chunk_member_log_marginals(ensemble, prefixes[i:i + size], rel_tol=rel_tol):
            if isinstance(out, BmaMetaError):
                raise out
            rows.append(out)
    return _results(ensemble, np.array(rows))[0]
