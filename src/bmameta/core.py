"""Study/comparison data model and meta-analytic likelihoods.

A *study* carries one observed standardized mean difference (Cohen's d)
with its standard error; a *comparison* is an ordered collection of
studies forming one meta-analysis.  The random-effects likelihood
integrates the latent per-study effects analytically, so both model
families reduce to independent normal densities:

    fixed:   y_i ~ N(delta, se_i)
    random:  y_i ~ N(delta, sqrt(se_i**2 + tau**2))
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, DomainError

__all__ = [
    "Study",
    "Comparison",
    "smd_from_raw",
    "loglik_random",
]

_LOG_2PI = math.log(2.0 * math.pi)
# (tau x study) terms per pass of random_stats: 2 MB temporaries
_STATS_CELLS = 1 << 18


def smd_from_raw(n1, mean1, sd1, n2, mean2, sd2):
    """Convert two-arm raw summaries to (Cohen's d, standard error).

    d = (mean1 - mean2) / s_pooled with the pooled within-group SD, and
    var(d) = (n1 + n2) / (n1 * n2) + d**2 / (2 * (n1 + n2)).

    This is plain Cohen's d with the standard large-sample variance; no
    small-sample (Hedges-type) bias correction is applied.  Where the
    pooled variance overflows (an sd past ~1.3e154) or is subnormal or 0
    (both sds below ~1e-154), the pooled SD is formed from the sds divided
    by the larger one; wherever it is a normal float it is formed directly,
    and an arm's subnormal square then adds at most 1.1e-16 of it.
    """
    if n1 < 2 or n2 < 2:
        raise DomainError(f"both arms need n >= 2, got n1={n1}, n2={n2}")
    if sd1 < 0 or sd2 < 0:
        raise DomainError("arm standard deviations must be non-negative")
    df = n1 + n2 - 2
    try:
        squares = (n1 - 1) * sd1**2 + (n2 - 1) * sd2**2
    except OverflowError:  # float ** raises where * gives inf
        squares = math.inf
    scale, variance = max(sd1, sd2), squares / df
    if 0.0 < scale < math.inf and not sys.float_info.min <= variance < math.inf:
        pooled = scale * math.sqrt(((n1 - 1) * (sd1 / scale) ** 2 + (n2 - 1) * (sd2 / scale) ** 2) / df)
    else:
        pooled = math.sqrt(variance)
    if pooled == 0.0:
        raise DegenerateDataError("both arms have zero variance; SMD undefined")
    d = (mean1 - mean2) / pooled
    var = (n1 + n2) / (n1 * n2) + d * d / (2.0 * (n1 + n2))
    return d, math.sqrt(var)


@dataclass(frozen=True)
class Study:
    """One study's effect size (SMD) and standard error."""

    effect: float
    se: float
    label: str = ""

    def __post_init__(self):
        if not math.isfinite(self.effect):
            raise DomainError(f"study effect must be finite, got {self.effect!r}")
        if not (math.isfinite(self.se) and self.se > 0):
            raise DomainError(f"study standard error must be finite and > 0, got {self.se!r}")


@dataclass(frozen=True)
class Comparison:
    """An ordered set of studies: the unit of one meta-analysis."""

    studies: tuple = field(default_factory=tuple)
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "studies", tuple(self.studies))
        if len(self.studies) < 1:
            raise DomainError("a comparison needs at least one study")

    @property
    def k(self) -> int:
        return len(self.studies)

    @cached_property
    def effects(self) -> np.ndarray:
        return np.array([s.effect for s in self.studies])

    @cached_property
    def std_errors(self) -> np.ndarray:
        return np.array([s.se for s in self.studies])

    @cached_property
    def _canonical(self) -> tuple:
        """(effects, std errors) sorted by (se, effect).

        Every likelihood reduction runs in this order, which makes all
        downstream numbers bit-identical under study permutation.  A
        comparison whose total precision sum(1 / se**2), the S0 of every
        fixed-effect likelihood, overflows (from se ~1e-154 down, where se**2
        turns subnormal and then 0) is a DomainError.
        """
        idx = np.lexsort((self.effects, self.std_errors))
        y, se = self.effects[idx], self.std_errors[idx]
        with np.errstate(divide="ignore", over="ignore"):
            if np.isinf(np.sum(1.0 / (se * se))):
                raise DomainError(f"comparison {self.id!r}: its precision sum(1/se**2) overflows at its "
                                  f"smallest se {float(se[0])!r}")
        return y, se

    def subset(self, indices: Sequence[int]) -> "Comparison":
        return Comparison(tuple(self.studies[i] for i in indices), self.id)


def _normal_stats(y: np.ndarray, variances) -> tuple:
    """The delta-free terms of a sum of normal log densities.

    ``variances`` carries the study axis last, which is reduced away.
    Returns ``(c, mu, S0)`` with

        S0 = sum_i 1 / v_i,  mu = sum_i (y_i / v_i) / S0,
        c = k log(2 pi) + log det + sum_i (y_i - mu)^2 / v_i

    so that :func:`loglik_from_stats` finishes the log density for any
    ``delta`` without meeting the study axis again.  ``c`` is summed from
    the residuals about ``mu``, never as ``S2 - S1^2 / S0``, so it keeps
    full relative precision however small the standard errors are.
    """
    inv = 1.0 / variances
    log_det = np.sum(np.log(variances), axis=-1)
    # every variance infinite (tau past ~1.3e154): log_det and so c are
    # inf, a zero likelihood; S0 = 1 stands in for its 0, so mu is 0 and no
    # consumer forms inf - inf from log S0 or 1 / S0
    s0 = np.sum(inv, axis=-1)
    s0 = np.where(s0 > 0.0, s0, 1.0)
    k = y.shape[-1]
    # effects near the float range overflow mu, and residuals past ~1e154
    # standard errors overflow c: either way c is inf, a zero likelihood
    with np.errstate(over="ignore"):
        mu = np.sum(inv * y, axis=-1) / s0
        r = y - mu[..., None]
        return k * _LOG_2PI + log_det + np.sum(inv * r * r, axis=-1), mu, s0


def loglik_from_stats(stats: tuple, delta) -> np.ndarray:
    """Sum of normal log densities from the ``(c, mu, S0)`` of :func:`_normal_stats`.

    ``delta`` broadcasts against the statistics; the quadratic form is
    centred on the likelihood peak,

        sum_i (y_i - d)^2 / v_i = sum_i (y_i - mu)^2 / v_i + S0 (d - mu)^2

    so no term cancels against another.  The result is one array of the
    broadcast shape, formed in place.
    """
    c, mu, s0 = stats
    # formed in one array, in the order of -0.5 * (c + s0 * (delta - mu) ** 2)
    out = np.asarray(np.subtract(delta, mu, dtype=float))
    with np.errstate(over="ignore"):  # an overflow is a zero likelihood
        np.square(out, out=out)
        np.multiply(s0, out, out=out)
        np.add(c, out, out=out)
    return np.multiply(-0.5, out, out=out)


def random_stats(tau, comparison: Comparison) -> tuple:
    """The delta-free terms of :func:`loglik_random` at each ``tau``.

    Each statistic has the shape of ``tau``; ``loglik_random(delta, tau,
    comparison)`` equals ``loglik_from_stats(random_stats(tau, comparison),
    delta)`` bit for bit, so callers that meet one ``tau`` with many
    ``delta`` values can compute these once and reuse them.  The (tau x
    study) terms are formed _STATS_CELLS at a time: each value's
    statistics are reduced over its own studies, so they have the same
    bits in any batch, and the temporaries stay cache-sized however many
    tau values come in.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise DomainError("tau must be non-negative")
    y, se = comparison._canonical
    with np.errstate(over="ignore"):  # an infinite tau**2 or se**2 is a zero likelihood
        sq = (tau * tau).reshape(-1, 1)
        se2 = se * se
    step = max(1, _STATS_CELLS // y.size)
    parts = [_normal_stats(y, se2 + sq[i:i + step]) for i in range(0, max(1, sq.shape[0]), step)]
    return tuple(np.concatenate(v).reshape(tau.shape) for v in zip(*parts))


def loglik_random(delta, tau, comparison: Comparison):
    """Log likelihood under the random-effects model.

    The latent study effects are integrated out analytically, leaving
    independent N(delta, sqrt(se_i**2 + tau**2)) terms.  ``delta`` and
    ``tau`` broadcast against each other; ``tau`` must be >= 0.
    """
    out = loglik_from_stats(random_stats(tau, comparison), delta)
    return float(out) if out.ndim == 0 else out
