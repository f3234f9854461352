"""Corpus-level evaluation: rank tallies, model-type averaging, and
inclusion-Bayes-factor summaries.

Each comparison in a corpus is scored against an ensemble built from a
candidate prior set, in one of two modes:

* ``h1r-only``: the free-effect/free-heterogeneity configurations only,
  each with equal prior probability (12 configurations for the standard
  3 x 4 candidate set);
* ``four-type``: all four model types at probability 1/4 each, spread
  evenly over each type's configurations.

Posterior probabilities are ranked per comparison (descending, stable
ties by configuration order) and tallied across the corpus.  Comparisons
that fail to evaluate are recorded, logged and excluded, and the run aborts if
more than ``max_failure_fraction`` of them fail.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .averaging import MODEL_TYPES, ModelEnsemble, build_standard_ensemble, evaluate
from .core import Comparison
from .errors import BmaMetaError, CorpusEvaluationError, ParameterError
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
        return {
            "rows": [
                {
                    "label": r.label,
                    "group": r.group,
                    "rank_counts": list(r.rank_counts),
                    "prior_prob": r.prior_prob,
                    "avg_posterior": r.avg_posterior,
                }
                for r in self.rows
            ],
            "n_evaluated": self.n_evaluated,
            "n_failed": self.n_failed,
            "n_skipped_small": self.n_skipped_small,
            "failed_ids": list(self.failed_ids),
        }


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
        return {
            "ids": list(self.ids),
            "log_bf_effect": list(self.log_bf_effect),
            "log_bf_heterogeneity": list(self.log_bf_heterogeneity),
            "effect_evidence_for": self.effect_evidence_for,
            "effect_evidence_against": self.effect_evidence_against,
            "heterogeneity_evidence_for": self.heterogeneity_evidence_for,
            "heterogeneity_evidence_against": self.heterogeneity_evidence_against,
            "n_evaluated": self.n_evaluated,
            "n_failed": self.n_failed,
            "n_skipped_small": self.n_skipped_small,
            "failed_ids": list(self.failed_ids),
        }


def _ensemble_for(candidates: CandidatePriorSet, restriction: str) -> ModelEnsemble:
    if restriction == "h1r-only":
        return build_standard_ensemble(
            candidates.delta_priors, candidates.tau_priors,
            scheme="flat", include_types=("random_H1",),
        )
    if restriction == "four-type":
        return build_standard_ensemble(
            candidates.delta_priors, candidates.tau_priors, scheme="four-type",
        )
    raise ParameterError(f"unknown restriction {restriction!r}")


def _eval_one(args):
    """``evaluate`` one comparison; a package error is returned, not raised."""
    ensemble, comparison, rel_tol = args
    try:
        return evaluate(ensemble, comparison, rel_tol=rel_tol, summaries=False)
    except BmaMetaError as exc:
        return exc


def _evaluate_corpus(
    corpus: Sequence[Comparison],
    ensemble: ModelEnsemble,
    *,
    rel_tol: float,
    min_studies: int,
    workers: int,
    max_failure_fraction: float,
):
    """``(comparison, BmaResult)`` pairs per comparison, with failure bookkeeping.

    Any package error (:class:`BmaMetaError`) fails only its own
    comparison; each failure is logged at WARNING with the comparison id,
    the exception class and its message.
    """
    usable = [c for c in corpus if c.k >= min_studies]
    n_skipped = len(corpus) - len(usable)
    tasks = [(ensemble, c, rel_tol) for c in usable]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_eval_one, tasks))
    else:
        outcomes = map(_eval_one, tasks)
    results = []
    failed: list = []
    for c, out in zip(usable, outcomes):
        if isinstance(out, BmaMetaError):
            failed.append(c.id)
            log.warning("comparison %s failed: %s: %s", c.id, type(out).__name__, out)
        else:
            results.append((c, out))
    failed.sort()
    if len(failed) > max_failure_fraction * max(len(usable), 1):
        raise CorpusEvaluationError(
            f"{len(failed)}/{len(usable)} comparisons failed to evaluate "
            f"(threshold {max_failure_fraction:.0%}); failed ids: {failed[:20]}"
        )
    return results, failed, n_skipped


def _tally(
    posterior_rows: np.ndarray,
    labels: Sequence[str],
    priors: Sequence[float],
    group: str,
) -> list:
    """Rank every row's entries (stable descending) and tally per label."""
    n_entities = len(labels)
    counts = np.zeros((n_entities, n_entities), dtype=int)
    for row in posterior_rows:
        order = np.argsort(-row, kind="stable")
        for rank, idx in enumerate(order):
            counts[idx, rank] += 1
    if len(posterior_rows):
        # summing each column in sorted order makes the average exactly
        # independent of corpus ordering
        avg = np.sort(posterior_rows, axis=0).mean(axis=0)
    else:
        avg = np.zeros(n_entities)
    return [
        RankingRow(
            label=labels[i],
            group=group,
            rank_counts=tuple(int(c) for c in counts[i]),
            prior_prob=float(priors[i]),
            avg_posterior=float(avg[i]),
        )
        for i in range(n_entities)
    ]


def rank_configurations(
    corpus: Sequence[Comparison],
    candidates: CandidatePriorSet,
    restriction: str = "h1r-only",
    *,
    rel_tol: float = 1e-9,
    min_studies: int = 3,
    workers: int = 1,
    max_failure_fraction: float = 0.01,
) -> RankingTable:
    """Rank prior configurations (``h1r-only``) or model types (``four-type``).

    In ``h1r-only`` mode each free-effect/free-heterogeneity prior
    configuration is one ranked entity; in ``four-type`` mode the
    configuration posteriors are summed per model type first, matching
    :func:`average_model_types`.
    """
    ensemble = _ensemble_for(candidates, restriction)
    results, failed, n_skipped = _evaluate_corpus(
        corpus, ensemble, rel_tol=rel_tol, min_studies=min_studies,
        workers=workers, max_failure_fraction=max_failure_fraction,
    )
    posteriors = np.array([r.posterior_probs for _, r in results])
    posteriors = posteriors.reshape(len(results), len(ensemble.members))

    if restriction == "h1r-only":
        labels = list(ensemble.names)
        rows = _tally(posteriors, labels, ensemble.prior_probs, group="configuration")
    else:
        types = [m.model.model_type for m in ensemble.members]
        type_cols = {t: [i for i, mt in enumerate(types) if mt == t] for t in MODEL_TYPES}
        summed = np.stack(
            [posteriors[:, cols].sum(axis=1) for cols in type_cols.values()], axis=1
        ) if len(posteriors) else np.zeros((0, 4))
        priors = [float(ensemble.prior_probs[cols].sum()) for cols in type_cols.values()]
        rows = _tally(summed, list(MODEL_TYPES), priors, group="model_type")

    return RankingTable(
        rows=tuple(rows),
        n_evaluated=len(results),
        n_failed=len(failed),
        n_skipped_small=n_skipped,
        failed_ids=tuple(failed),
    )


def average_model_types(
    corpus: Sequence[Comparison],
    candidates: CandidatePriorSet,
    **kwargs,
) -> RankingTable:
    """Model-type ranking with posteriors averaged over configurations."""
    return rank_configurations(corpus, candidates, "four-type", **kwargs)


def average_parameter_priors(
    corpus: Sequence[Comparison],
    candidates: CandidatePriorSet,
    *,
    rel_tol: float = 1e-9,
    min_studies: int = 3,
    workers: int = 1,
    max_failure_fraction: float = 0.01,
) -> RankingTable:
    """Per-parameter prior ranking under the free-effect/free-tau model.

    For each effect-size prior, posterior probabilities are summed over
    its heterogeneity partners (and vice versa), so the table carries two
    partitions: rows grouped as ``"delta"`` and rows grouped as ``"tau"``.
    """
    ensemble = _ensemble_for(candidates, "h1r-only")
    results, failed, n_skipped = _evaluate_corpus(
        corpus, ensemble, rel_tol=rel_tol, min_studies=min_studies,
        workers=workers, max_failure_fraction=max_failure_fraction,
    )
    n_d, n_t = len(candidates.delta_priors), len(candidates.tau_priors)
    # h1r-only members enumerate delta-major: index = i_delta * n_t + i_tau
    cube = np.array([r.posterior_probs for _, r in results]).reshape(len(results), n_d, n_t)
    delta_rows = _tally(
        cube.sum(axis=2),
        [str(p) for p in candidates.delta_priors],
        [1.0 / n_d] * n_d,
        group="delta",
    )
    tau_rows = _tally(
        cube.sum(axis=1),
        [str(p) for p in candidates.tau_priors],
        [1.0 / n_t] * n_t,
        group="tau",
    )
    return RankingTable(
        rows=tuple(delta_rows + tau_rows),
        n_evaluated=len(results),
        n_failed=len(failed),
        n_skipped_small=n_skipped,
        failed_ids=tuple(failed),
    )


def corpus_inclusion_summary(
    corpus: Sequence[Comparison],
    candidates: CandidatePriorSet,
    *,
    rel_tol: float = 1e-9,
    min_studies: int = 3,
    workers: int = 1,
    max_failure_fraction: float = 0.01,
) -> InclusionSummary:
    """Inclusion Bayes factors for effect and heterogeneity per comparison.

    Uses the four-type ensemble; reports counts of comparisons with
    evidence for (BF > 1) and against each inclusion, plus the full
    log-BF lists for external plotting.
    """
    ensemble = _ensemble_for(candidates, "four-type")
    results, failed, n_skipped = _evaluate_corpus(
        corpus, ensemble, rel_tol=rel_tol, min_studies=min_studies,
        workers=workers, max_failure_fraction=max_failure_fraction,
    )
    ids = tuple(c.id for c, _ in results)
    log_eff = tuple(r.incl_log_bf_effect for _, r in results)
    log_het = tuple(r.incl_log_bf_heterogeneity for _, r in results)
    eff_for = sum(1 for v in log_eff if v > 0)
    het_for = sum(1 for v in log_het if v > 0)
    return InclusionSummary(
        ids=ids,
        log_bf_effect=log_eff,
        log_bf_heterogeneity=log_het,
        effect_evidence_for=eff_for,
        effect_evidence_against=len(results) - eff_for,
        heterogeneity_evidence_for=het_for,
        heterogeneity_evidence_against=len(results) - het_for,
        n_evaluated=len(results),
        n_failed=len(failed),
        n_skipped_small=n_skipped,
        failed_ids=tuple(failed),
    )
