"""Corpus-level evaluation: rank tallies, model-type averaging, and
inclusion-Bayes-factor summaries.

Each mode builds an ensemble from a candidate prior set and computes one
(comparisons x members) matrix of log marginal likelihoods, a row per
comparison.  One log-sum-exp along the member axis turns the whole
matrix into posterior model probabilities, and every ranking mode is a
tally over groups of its columns:

* :func:`rank_configurations` uses the ``random_H1`` ensemble (the
  free-effect/free-heterogeneity configurations at equal prior
  probability, 12 for the standard 3 x 4 candidate set), one column per
  group;
* :func:`average_model_types` uses the four-type ensemble (each model
  type at probability 1/4, spread evenly over its configurations), one
  group per model type;
* :func:`average_parameter_priors` uses the ``random_H1`` ensemble, one
  group per effect-size prior (its heterogeneity partners) and one per
  heterogeneity prior (its effect-size partners).

A group's posterior is the sum of its columns.  Groups are ranked per
comparison (descending, stable ties by group order) and tallied across
the corpus.  :func:`corpus_inclusion_summary` reports the four-type
ensemble's inclusion Bayes factors instead, one
:func:`~bmameta.averaging.log_inclusion_bfs` call per side over the whole
matrix.
Comparisons that fail to evaluate are recorded, logged and excluded,
and the run aborts if more than ``max_failure_fraction`` of them fail.

Every function takes the keyword options ``rel_tol`` (quadrature
relative tolerance, default 1e-9), ``min_studies`` (comparisons with
fewer studies are skipped, default 3), ``workers`` (processes, default
1) and ``max_failure_fraction`` (default 0.01).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .averaging import MODEL_TYPES, ModelEnsemble, build_standard_ensemble, log_inclusion_bfs
from .averaging import evaluate  # noqa: F401 - unused here, but bench/tracing.py wraps this name
from .averaging import chunk_member_log_marginals, log_posteriors
from .core import Comparison
from .errors import BmaMetaError, CorpusEvaluationError
from .marginal import chunk_size
from .training import CandidatePriorSet

__all__ = [
    "RankingRow",
    "RankingTable",
    "InclusionSummary",
    "rank_configurations",
    "average_model_types",
    "average_parameter_priors",
    "corpus_inclusion_summary",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RankingRow:
    label: str
    group: str
    rank_counts: tuple
    prior_prob: float
    avg_posterior: float


@dataclass(frozen=True)
class RankingTable:
    rows: tuple
    n_evaluated: int
    n_failed: int
    n_skipped_small: int
    failed_ids: tuple

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class InclusionSummary:
    ids: tuple
    log_bf_effect: tuple
    log_bf_heterogeneity: tuple
    effect_evidence_for: int
    effect_evidence_against: int
    heterogeneity_evidence_for: int
    heterogeneity_evidence_against: int
    n_evaluated: int
    n_failed: int
    n_skipped_small: int
    failed_ids: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _eval_chunk(args):
    """One chunk's member log marginals or package errors, per comparison."""
    ensemble, chunk, rel_tol = args
    return chunk_member_log_marginals(ensemble, chunk, rel_tol=rel_tol)


def _evaluate_corpus(
    corpus: Sequence[Comparison],
    ensemble: ModelEnsemble,
    *,
    rel_tol: float = 1e-9,
    min_studies: int = 3,
    workers: int = 1,
    max_failure_fraction: float = 0.01,
):
    """The evaluated ids, their (ids x members) log-marginal matrix, and the counts.

    The counts are the ``n_evaluated``, ``n_failed``, ``n_skipped_small``
    and ``failed_ids`` fields of :class:`RankingTable` and
    :class:`InclusionSummary`.  The comparisons are evaluated in chunks of
    :func:`~bmameta.marginal.chunk_size`, each one pass of
    :func:`~bmameta.averaging.chunk_member_log_marginals`; ``workers > 1``
    cuts them into at least ``workers`` chunks where there are enough
    comparisons, and evaluates the chunks in a process pool of at most one
    worker per chunk.  A row does not depend on its chunk, so the results
    do not depend on ``workers``.  Any package error (:class:`BmaMetaError`)
    fails only its own comparison; each failure is logged at WARNING with
    the comparison id, the exception class and its message.
    """
    usable = [c for c in corpus if c.k >= min_studies]
    size = chunk_size([m.model for m in ensemble.members])
    if workers > 1:
        size = max(1, min(size, -(-len(usable) // workers)))
    tasks = [(ensemble, usable[i:i + size], rel_tol) for i in range(0, len(usable), size)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            outcomes = [out for chunk in pool.map(_eval_chunk, tasks) for out in chunk]
    else:
        outcomes = [out for task in tasks for out in _eval_chunk(task)]
    ids: list = []
    rows: list = []
    failed: list = []
    for c, out in zip(usable, outcomes):
        if isinstance(out, BmaMetaError):
            failed.append(c.id)
            log.warning("comparison %s failed: %s: %s", c.id, type(out).__name__, out)
        else:
            ids.append(c.id)
            rows.append(out)
    failed.sort()
    if len(failed) > max_failure_fraction * max(len(usable), 1):
        raise CorpusEvaluationError(
            f"{len(failed)}/{len(usable)} comparisons failed to evaluate "
            f"(threshold {max_failure_fraction:.0%}); failed ids: {failed[:20]}"
        )
    counts = {
        "n_evaluated": len(ids),
        "n_failed": len(failed),
        "n_skipped_small": len(corpus) - len(usable),
        "failed_ids": tuple(failed),
    }
    logml = np.array(rows).reshape(len(ids), len(ensemble.members))
    return tuple(ids), logml, counts


def _tally(posteriors: np.ndarray, groups: Sequence[tuple], kind: str) -> list:
    """Rank the groups' posteriors per comparison (stable descending) and tally.

    ``groups`` are ``(label, column indices, prior probability)``; a
    group's posterior is the sum of its columns of ``posteriors``.
    """
    summed = np.stack([posteriors[:, cols].sum(axis=1) for _, cols, _ in groups], axis=1)
    n_groups = len(groups)
    counts = np.zeros((n_groups, n_groups), dtype=int)
    # order[r, rank] is the group at that rank in comparison r
    order = np.argsort(-summed, axis=1, kind="stable")
    np.add.at(counts, (order, np.arange(n_groups)), 1)
    # summing each column in sorted order makes the average exactly
    # independent of corpus ordering
    avg = np.sort(summed, axis=0).sum(axis=0) / max(len(summed), 1)
    return [
        RankingRow(
            label=label,
            group=kind,
            rank_counts=tuple(int(c) for c in counts[i]),
            prior_prob=float(prior),
            avg_posterior=float(avg[i]),
        )
        for i, (label, _, prior) in enumerate(groups)
    ]


def _rank_groups(corpus, ensemble: ModelEnsemble, partitions, options) -> RankingTable:
    """Evaluate the corpus and tally each ``(kind, groups)`` partition."""
    _, logml, counts = _evaluate_corpus(corpus, ensemble, **options)
    posteriors = np.exp(log_posteriors(ensemble, logml)[1])
    rows = [row for kind, groups in partitions for row in _tally(posteriors, groups, kind)]
    return RankingTable(rows=tuple(rows), **counts)


def _h1r_ensemble(candidates: CandidatePriorSet) -> ModelEnsemble:
    return build_standard_ensemble(
        candidates.delta_priors, candidates.tau_priors, include_types=("random_H1",),
    )


def rank_configurations(
    corpus: Sequence[Comparison], candidates: CandidatePriorSet, **options
) -> RankingTable:
    """Rank the free-effect/free-heterogeneity prior configurations.

    Each configuration of the ``random_H1`` ensemble is one ranked group.
    """
    ensemble = _h1r_ensemble(candidates)
    groups = [
        (name, [i], p) for i, (name, p) in enumerate(zip(ensemble.names, ensemble.prior_probs))
    ]
    return _rank_groups(corpus, ensemble, [("configuration", groups)], options)


def average_model_types(
    corpus: Sequence[Comparison], candidates: CandidatePriorSet, **options
) -> RankingTable:
    """Rank the four model types, each the sum of its configurations' posteriors."""
    ensemble = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
    groups = []
    for t in MODEL_TYPES:
        cols = [i for i, m in enumerate(ensemble.members) if m.model.model_type == t]
        groups.append((t, cols, ensemble.prior_probs[cols].sum()))
    return _rank_groups(corpus, ensemble, [("model_type", groups)], options)


def average_parameter_priors(
    corpus: Sequence[Comparison], candidates: CandidatePriorSet, **options
) -> RankingTable:
    """Per-parameter prior ranking under the free-effect/free-tau model.

    For each effect-size prior, posterior probabilities are summed over
    its heterogeneity partners (and vice versa), so the table carries two
    partitions: rows grouped as ``"delta"`` and rows grouped as ``"tau"``.
    """
    ensemble = _h1r_ensemble(candidates)
    n_d, n_t = len(candidates.delta_priors), len(candidates.tau_priors)
    # random_H1 members enumerate delta-major: column = i_delta * n_t + i_tau
    delta_groups = [
        (str(p), range(i * n_t, (i + 1) * n_t), 1.0 / n_d)
        for i, p in enumerate(candidates.delta_priors)
    ]
    tau_groups = [
        (str(p), range(j, n_d * n_t, n_t), 1.0 / n_t)
        for j, p in enumerate(candidates.tau_priors)
    ]
    return _rank_groups(
        corpus, ensemble, [("delta", delta_groups), ("tau", tau_groups)], options
    )


def corpus_inclusion_summary(
    corpus: Sequence[Comparison], candidates: CandidatePriorSet, **options
) -> InclusionSummary:
    """Inclusion Bayes factors for effect and heterogeneity per comparison.

    Uses the four-type ensemble; reports counts of comparisons with
    evidence for (BF > 1) and against each inclusion, plus the full
    log-BF lists for external plotting.
    """
    ensemble = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
    ids, logml, counts = _evaluate_corpus(corpus, ensemble, **options)
    log_unnorm, _ = log_posteriors(ensemble, logml)
    log_eff = log_inclusion_bfs(ensemble, log_unnorm, ensemble.effect_indices)
    log_het = log_inclusion_bfs(ensemble, log_unnorm, ensemble.heterogeneity_indices)
    eff_for = int(np.count_nonzero(log_eff > 0))
    het_for = int(np.count_nonzero(log_het > 0))
    return InclusionSummary(
        ids=ids,
        log_bf_effect=tuple(log_eff.tolist()),
        log_bf_heterogeneity=tuple(log_het.tolist()),
        effect_evidence_for=eff_for,
        effect_evidence_against=len(ids) - eff_for,
        heterogeneity_evidence_for=het_for,
        heterogeneity_evidence_against=len(ids) - het_for,
        **counts,
    )
