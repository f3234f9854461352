"""Empirical-prior training: corpus filtering, REML estimation, MLE fits.

The training procedure drops comparisons that are too small or contain
non-estimable studies, re-estimates the survivors with REML, and fits
candidate prior families to the resulting estimate lists.  Effect
estimates from every retained comparison feed the effect-size priors;
heterogeneity estimates of 0 or below ``tau_floor`` are treated as
fixed-effect cases and excluded from the heterogeneity priors only.

The candidate layout is fixed: two default uninformed priors (a Cauchy
with scale 1/sqrt(2) for the effect, a uniform on [0, 1] for the
heterogeneity) alongside the fitted families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

from .core import Comparison
from .errors import EmptyTrainingError, InsufficientDataError, ParameterError, ParseError
from .priors import PriorSpec, fit_mle
from .reml import (
    reml_fit,  # noqa: F401 - unused here, but bench/tracing.py wraps this name
    reml_fits,
)

__all__ = [
    "TrainingProvenance",
    "TrainingEstimates",
    "CandidatePriorSet",
    "prepare_training",
    "fit_candidates",
    "general_candidate_set",
]

#: Uninformed defaults that are never refitted.
DEFAULT_DELTA_PRIOR = PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0))
DEFAULT_TAU_PRIOR = PriorSpec.uniform(0.0, 1.0)


@dataclass(frozen=True)
class TrainingProvenance:
    """Bookkeeping for every filter applied while building a training set."""

    input_comparisons: int
    input_studies: int
    dropped_few_studies: int
    dropped_non_estimable: int
    retained_comparisons: int
    retained_studies: int
    #: Always 0, as every REML fit ends; kept for ``CandidatePriorSet.from_dict``'s exact key set.
    reml_non_converged: int
    n_delta_estimates: int
    n_tau_estimates: int
    n_tau_below_floor: int
    min_studies: int
    tau_floor: float


@dataclass(frozen=True)
class TrainingEstimates:
    """REML (delta, tau) pairs, with the floor-filtered tau list."""

    pairs: tuple  # (delta_hat, tau_hat) per retained comparison
    deltas: tuple
    taus: tuple


@dataclass(frozen=True)
class CandidatePriorSet:
    """Candidate priors: 3 effect-size priors and 4 heterogeneity priors."""

    delta_priors: tuple
    tau_priors: tuple
    provenance: Optional[TrainingProvenance] = None

    def to_dict(self) -> dict:
        out = {
            "delta_priors": [str(p) for p in self.delta_priors],
            "tau_priors": [str(p) for p in self.tau_priors],
        }
        if self.provenance is not None:
            out["provenance"] = dict(vars(self.provenance))
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "CandidatePriorSet":
        """The inverse of :meth:`to_dict`; anything else is a ParseError."""
        from .priors import parse_prior

        if not isinstance(data, Mapping):
            raise ParseError(f"candidate prior set must be an object, got {type(data).__name__}")
        priors = {}
        for key in ("delta_priors", "tau_priors"):
            specs = data.get(key)
            if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
                raise ParseError(f"candidate prior set needs {key!r}: a list of prior strings")
            priors[key] = tuple(parse_prior(s) for s in specs)
        prov = data.get("provenance")
        if prov is not None:
            names = {f.name for f in fields(TrainingProvenance)}
            if not isinstance(prov, Mapping) or set(prov) != names:
                raise ParseError(f"candidate prior set 'provenance' must be an object with keys {sorted(names)}")
            prov = TrainingProvenance(**prov)
        return CandidatePriorSet(**priors, provenance=prov)


def general_candidate_set() -> CandidatePriorSet:
    """The general-purpose candidate set for continuous medical outcomes."""
    return CandidatePriorSet(
        delta_priors=(
            DEFAULT_DELTA_PRIOR,
            PriorSpec.normal(0.0, 0.56),
            PriorSpec.t(0.0, 0.33, 3.0),
        ),
        tau_priors=(
            DEFAULT_TAU_PRIOR,
            PriorSpec.halfnormal(0.57),
            PriorSpec.invgamma(1.26, 0.24),
            PriorSpec.gamma(1.59, 0.26),
        ),
    )


def prepare_training(
    corpus: Sequence[Comparison],
    min_studies: int = 10,
    tau_floor: float = 0.01,
    *,
    non_estimable_counts: Optional[Mapping[str, int]] = None,
) -> tuple:
    """Filter a corpus and REML-estimate the survivors.

    ``non_estimable_counts`` maps comparison ids to the number of studies
    that could not be parsed from the source file; any comparison with
    one or more is dropped (its unparsed studies still count toward the
    ``min_studies`` threshold).  A REML estimate tau_hat feeds the
    heterogeneity list only if it is above 0 and at least ``tau_floor``:
    REML puts tau_hat at exactly 0 for a homogeneous comparison, the
    fixed-effect case, so even a floor of 0 drops it.  Returns
    ``(TrainingEstimates, TrainingProvenance)``.
    """
    if min_studies < 2:
        raise ParameterError("min_studies must be at least 2")
    if not (0.0 <= tau_floor < math.inf):  # nan fails every comparison
        raise ParameterError(f"tau_floor must be finite and non-negative, got {tau_floor!r}")
    non_estimable_counts = dict(non_estimable_counts or {})

    input_comparisons = len(corpus)
    input_studies = sum(c.k + non_estimable_counts.get(c.id, 0) for c in corpus)
    dropped_few = 0
    dropped_non_estimable = 0
    retained = []
    for comp in corpus:
        bad = non_estimable_counts.get(comp.id, 0)
        if comp.k + bad < min_studies:
            dropped_few += 1
        elif bad > 0:
            dropped_non_estimable += 1
        else:
            retained.append(comp)
    if not retained:
        raise EmptyTrainingError(
            f"no comparisons left after filtering ({input_comparisons} supplied)"
        )

    fits = reml_fits(retained)
    pairs = [(fit.delta_hat, fit.tau_hat) for fit in fits]

    deltas = tuple(d for d, _ in pairs)
    taus = tuple(t for _, t in pairs if t > 0.0 and t >= tau_floor)
    estimates = TrainingEstimates(pairs=tuple(pairs), deltas=deltas, taus=taus)
    provenance = TrainingProvenance(
        input_comparisons=input_comparisons,
        input_studies=input_studies,
        dropped_few_studies=dropped_few,
        dropped_non_estimable=dropped_non_estimable,
        retained_comparisons=len(retained),
        retained_studies=sum(c.k for c in retained),
        reml_non_converged=0,
        n_delta_estimates=len(deltas),
        n_tau_estimates=len(taus),
        n_tau_below_floor=len(pairs) - len(taus),
        min_studies=min_studies,
        tau_floor=tau_floor,
    )
    return estimates, provenance


def fit_candidates(
    estimates: TrainingEstimates,
    provenance: Optional[TrainingProvenance] = None,
) -> CandidatePriorSet:
    """Fit the candidate prior families to training estimates.

    Effect-size priors: the fixed Cauchy default plus zero-centered
    normal and Student-t fits.  Heterogeneity priors: the fixed uniform
    default plus half-normal, inverse-gamma and gamma fits, on the
    heterogeneity estimates :func:`prepare_training` kept (above 0 and at
    least the floor).  If it kept none, the error is an
    :class:`InsufficientDataError` that gives the counts.  Other fit
    errors (degenerate or out-of-support data) propagate unchanged.
    """
    deltas = list(estimates.deltas)
    taus = list(estimates.taus)
    if not taus:
        floor = "" if provenance is None else f" {provenance.tau_floor!r}"
        zeros = sum(1 for _, t in estimates.pairs if t == 0.0)
        raise InsufficientDataError(
            f"all {len(estimates.pairs)} heterogeneity estimates fall below the tau floor{floor}"
            f" or are 0 ({zeros} are 0): no heterogeneity prior can be fitted"
        )
    delta_priors = (
        DEFAULT_DELTA_PRIOR,
        fit_mle("normal", deltas),
        fit_mle("t", deltas),
    )
    tau_priors = (
        DEFAULT_TAU_PRIOR,
        fit_mle("halfnormal", taus),
        fit_mle("invgamma", taus),
        fit_mle("gamma", taus),
    )
    return CandidatePriorSet(delta_priors, tau_priors, provenance)
