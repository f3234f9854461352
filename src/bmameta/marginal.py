"""Log marginal likelihoods of meta-analytic models and grid posteriors.

A model pairs a prior on the mean effect ``delta`` with a prior on the
heterogeneity ``tau``; point masses encode the null/fixed variants, so
the four classic model types arise from the point-mass pattern:

    (point, point) -> fixed_H0     (free, point) -> fixed_H1
    (point, free)  -> random_H0    (free, free)  -> random_H1

Each model is built from two parts, one per assumption.  The delta part
(:func:`_delta_part`) is the log likelihood integrated over the delta
prior at many tau values, the tau part (:func:`_tau_part`) the same with
the roles swapped; a point prior makes a part the likelihood itself.  A
log marginal evaluates the delta part at a point tau or integrates it
against a free tau prior, and that outer integrand is also the tau
posterior's kernel.  Every integral uses the log-space adaptive
Gauss-Kronrod rule from :mod:`bmameta.quadrature`.

Integration bounds keep all prior mass up to 1e-12 per tail (uniform
priors use their exact range), so bound truncation stays below the
quadrature tolerance even when the likelihood is nearly flat.  Interval
seeds protect against likelihood peaks far narrower than the prior.
The tau integrals are seeded at prior quantiles and at data scales.
At fixed tau the likelihood in delta is exactly N(mu(tau), V(tau)) with
V = 1 / S0 (see :func:`bmameta.core.random_stats`), so every inner delta
integral is seeded per owner at mu(tau) + sqrt(V(tau)) * {0, +-1, +-2,
+-4, +-8, +-16} plus the prior median; the seeds follow the peak as it
moves and widens with tau.

The likelihood's tau-only terms (log det, mu, S0 and the centred sum of
squares of the variances se**2 + tau**2) and the tau prior density are
computed once per distinct tau interval.  In the tau part at a free tau
(the delta-posterior pass) every delta owner starts its tau integral
from the same bounds and seeds, so owners evaluate the same intervals
over and over; those terms are shared across rows (one exact key,
:func:`_distinct_rows`) and only the O(1) quadratic form in delta is
formed per (delta, tau) node.

The delta part at a free delta works from the other side.  Each of its
integrals (random_H1 log marginal, tau posterior and its probes, and
the fixed_H1 integral at its single tau) has one tau per owner, so the
tau statistics are computed once per owner and gathered by owner id; no
delta node meets the study axis.  Owners have their own seeds, so they
share no delta intervals, and the delta prior density is computed at
every node.  Every gathered value is bit-identical to the direct
evaluation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Comparison, loglik_from_stats, loglik_random, random_stats
from .errors import DomainError, ParameterError, UnsupportedOperationError
from .priors import PriorSpec
from .quadrature import log_quad_batch

__all__ = ["ModelSpec", "PosteriorSummary", "log_marginal", "posterior_summary"]

log = logging.getLogger(__name__)

_TAIL = 1e-12
_QUANTILE_SEED_LEVELS = np.array([
    1e-11, 1e-9, 1e-7, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5,
    0.7, 0.85, 0.95, 0.99, 0.999, 0.9999, 1.0 - 1e-6,
    1.0 - 1e-7, 1.0 - 1e-9, 1.0 - 1e-11,
])
_LIK_OFFSETS = np.array([-16.0, -8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0, 16.0])


@dataclass(frozen=True)
class ModelSpec:
    """One meta-analytic model: a delta prior, a tau prior, and a name."""

    name: str
    delta_prior: PriorSpec
    tau_prior: PriorSpec

    def __post_init__(self):
        if self.tau_prior.support[0] < 0:
            raise ParameterError(
                f"tau prior must have non-negative support, got {self.tau_prior}"
            )

    @property
    def delta_free(self) -> bool:
        return not self.delta_prior.is_point

    @property
    def tau_free(self) -> bool:
        return not self.tau_prior.is_point

    @property
    def model_type(self) -> str:
        if self.delta_free:
            return "random_H1" if self.tau_free else "fixed_H1"
        return "random_H0" if self.tau_free else "fixed_H0"


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """Moments, central 95% interval and normalized density grid."""

    mean: float
    median: float
    sd: float
    ci_lower: float
    ci_upper: float
    grid_x: Optional[np.ndarray] = None
    grid_pdf: Optional[np.ndarray] = None


def _prior_bounds(prior: PriorSpec) -> tuple:
    if prior.is_point:
        v = prior.params[0]
        return (v, v)
    if prior.family == "uniform":
        return prior.params
    lo, hi = (float(q) for q in prior.quantile(np.array([_TAIL, 1.0 - _TAIL])))
    slo, shi = prior.support
    return (max(lo, slo), min(hi, shi))


def _quantile_seeds(prior: PriorSpec) -> np.ndarray:
    if prior.family == "uniform":
        lo, hi = prior.params
        return lo + (hi - lo) * np.linspace(0.0, 1.0, 9)
    return np.asarray(prior.quantile(_QUANTILE_SEED_LEVELS))


def _weighted_mean_se(comparison: Comparison) -> tuple:
    y, se = comparison._canonical
    w = 1.0 / se**2
    return float(np.sum(w * y) / np.sum(w)), float(1.0 / math.sqrt(np.sum(w)))


def _delta_seeds(median: float, stats: tuple) -> np.ndarray:
    """Per-owner delta split points, shape (n_owners, 12).

    Each owner's likelihood in delta is N(mu, 1 / S0) at its tau, so its
    seeds are ``mu + sqrt(1 / S0) * _LIK_OFFSETS`` plus the prior median.
    """
    _, mu, s0 = stats
    sd = np.sqrt(1.0 / s0)[:, None]
    return np.concatenate([np.full((mu.size, 1), median), mu[:, None] + sd * _LIK_OFFSETS], axis=1)


def _tau_seeds(prior: PriorSpec, comparison: Comparison) -> np.ndarray:
    y, se = comparison._canonical
    se_min = float(np.min(se))
    sd_y = float(np.std(y)) if comparison.k > 1 else se_min
    spread = float(np.max(np.abs(y - np.median(y)))) if comparison.k > 1 else se_min
    scale = max(sd_y, 0.25 * se_min)
    data_pts = np.array([
        0.25 * se_min, 0.5 * se_min, se_min,
        0.5 * scale, scale, 2.0 * scale, 4.0 * scale, spread + se_min,
    ])
    return np.concatenate([_quantile_seeds(prior), data_pts])


def log_marginal(
    model: ModelSpec,
    comparison: Comparison,
    *,
    rel_tol: float = 1e-9,
    extra_refine: int = 0,
) -> float:
    """Log of the marginal likelihood of ``comparison`` under ``model``.

    The delta part (:func:`_delta_part`) integrates delta out at each
    tau; a point tau evaluates it there, a free tau integrates it against
    the tau prior by 1D quadrature.  ``rel_tol`` is the relative
    tolerance on the integral, i.e. the absolute tolerance on the
    returned log value; ``extra_refine`` bisects every converged interval
    that many additional times (for refinement-stability checks).
    """
    h = model.tau_prior
    if not model.tau_free:
        delta_part = _delta_part(model, comparison, rel_tol, extra_refine)
        value = float(delta_part(np.array([h.params[0]]))[0])
    else:
        delta_part = _delta_part(model, comparison, rel_tol * 0.1, extra_refine)
        lo, hi = _prior_bounds(h)

        def logf(_own, t):
            return delta_part(t).reshape(t.shape) + h.log_pdf(t)

        value = float(log_quad_batch(
            logf, np.array([[lo, hi]]), seeds=_tau_seeds(h, comparison),
            rel_tol=rel_tol, extra_refine=extra_refine,
        )[0])
    if math.isnan(value):
        raise DomainError(f"marginal likelihood of model {model.name!r} is not a number")
    return value


def _delta_part(model: ModelSpec, comparison: Comparison, rel_tol: float, extra_refine: int = 0):
    """``f(tau_values)``: the log of the likelihood integrated over the delta
    prior at each tau (the likelihood itself at a point delta)."""
    g = model.delta_prior
    if model.delta_free:
        return _delta_integrals(g, comparison, rel_tol, extra_refine)
    return lambda t: loglik_random(g.params[0], t, comparison)


def _delta_integrals(
    g: PriorSpec,
    comparison: Comparison,
    rel_tol: float,
    extra_refine: int = 0,
):
    """``integrals(tau_values)``: for each tau, the log integral over delta
    of likelihood times delta prior, in one batched quadrature with one
    owner per tau.

    The delta bounds and the prior median are computed here, once, so an
    outer tau integral does not recompute them in each refinement round.
    """
    lo, hi = _prior_bounds(g)
    median = float(g.quantile(0.5))

    def integrals(tau_values: np.ndarray) -> np.ndarray:
        tau_values = np.asarray(tau_values, dtype=float).ravel()
        stats = random_stats(tau_values, comparison)

        def logf(own, d):
            return _log_joint_at_delta_nodes(d, own, stats, g)

        bounds = np.broadcast_to(np.array([lo, hi]), (tau_values.size, 2))
        return log_quad_batch(
            logf, bounds, seeds=_delta_seeds(median, stats),
            rel_tol=rel_tol, extra_refine=extra_refine,
        )

    return integrals


def _tau_part(model: ModelSpec, comparison: Comparison, rel_tol: float):
    """``f(delta_values)``: the log of the likelihood integrated over the tau
    prior at each delta (the likelihood itself at a point tau).

    A free tau runs one batched quadrature with one owner per delta,
    sharing the tau-only terms across owners
    (:func:`_log_joint_at_tau_nodes`).
    """
    h = model.tau_prior
    if not model.tau_free:
        return lambda d: loglik_random(d, h.params[0], comparison)
    lo, hi = _prior_bounds(h)
    seeds = _tau_seeds(h, comparison)

    def integrals(delta_values: np.ndarray) -> np.ndarray:
        def logf(own, t):
            return _log_joint_at_tau_nodes(delta_values[own], t, h, comparison)

        bounds = np.broadcast_to(np.array([lo, hi]), (delta_values.size, 2))
        return log_quad_batch(logf, bounds, seeds=seeds, rel_tol=rel_tol)

    return integrals


# --------------------------------------------------------------------------
# Grid posteriors
# --------------------------------------------------------------------------


def _log_posterior_on(model, comparison, parameter, xs, rel_tol):
    """Unnormalized log posterior of one free parameter at points ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if parameter == "delta":
        return _tau_part(model, comparison, rel_tol * 0.1)(xs) + model.delta_prior.log_pdf(xs)
    return _delta_part(model, comparison, rel_tol * 0.1)(xs) + model.tau_prior.log_pdf(xs)


def _log_joint_at_tau_nodes(delta, t, h: PriorSpec, comparison: Comparison) -> np.ndarray:
    """``loglik_random(delta, t) + h.log_pdf(t)`` with one ``delta`` per row.

    The tau-only terms are computed once per distinct row of ``t`` (see
    :func:`_distinct_rows`) and gathered; the arithmetic is that of
    :func:`loglik_random`, so the result is bit-identical to it.
    """
    first, inverse = _distinct_rows(t)
    nodes = t[first]
    stats = tuple(s[inverse] for s in random_stats(nodes, comparison))
    return loglik_from_stats(stats, delta) + h.log_pdf(nodes)[inverse]


def _log_joint_at_delta_nodes(d, own, stats: tuple, g: PriorSpec) -> np.ndarray:
    """``loglik_random(d, tau[own]) + g.log_pdf(d)`` from per-owner statistics.

    ``stats`` is ``random_stats(tau, comparison)`` over the owners' tau
    values; it is gathered by owner id (``own`` has shape (rows, 1)).
    The arithmetic is that of :func:`loglik_random`, so the result is
    bit-identical to it.
    """
    return loglik_from_stats(tuple(s[own] for s in stats), d) + g.log_pdf(d)


def _distinct_rows(x: np.ndarray) -> tuple:
    """``(first, inverse)`` with ``x[first][inverse]`` equal to ``x``, exactly.

    Rows are keyed by their first and last node, which on quadrature
    nodes identify the interval; the gathered rows are checked against
    ``x``, and every row is kept on its own if the endpoints ever fail to
    decide the other nodes.
    """
    ends = np.ascontiguousarray(x[:, [0, -1]]).view(np.complex128).ravel()
    _, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    if not np.array_equal(x[first][inverse], x):
        first = inverse = np.arange(x.shape[0])
    return first, inverse


def _log_trapz(log_y: np.ndarray, x: np.ndarray) -> float:
    h = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    with np.errstate(divide="ignore"):
        vals = log_y + np.log(w)
    m = np.max(vals)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.sum(np.exp(vals - m))))


def _mass_region(model, comparison, parameter, prior, rel_tol):
    """Bracket the parameter region holding all posterior mass above exp(-40).

    Probing needs only coarse integral accuracy, so it runs at a loose
    tolerance; probe quantiles stop at 1e-4 tail mass (the shrink loop
    expands past a gap rather than truncating inside one, so this never
    cuts the region short).
    """
    lo, hi = _prior_bounds(prior)
    levels = np.linspace(1e-4, 1.0 - 1e-4, 41)
    if prior.family == "uniform":
        probe = [np.linspace(lo, hi, 41)]
    else:
        probe = [np.asarray(prior.quantile(levels))]
    wm, wse = _weighted_mean_se(comparison)
    if parameter == "delta":
        probe.append(wm + wse * np.linspace(-12.0, 12.0, 49))
    else:
        sd_y = float(np.std(comparison._canonical[0])) if comparison.k > 1 else wse
        probe.append(np.linspace(0.0, max(4.0 * sd_y, 4.0 * wse), 49))
    xs = np.unique(np.clip(np.concatenate(probe), lo, hi))

    left, right = lo, hi
    for _ in range(12):
        logp = _log_posterior_on(model, comparison, parameter, xs, 1e-2)
        peak = np.max(logp)
        if not np.isfinite(peak):
            raise DomainError("posterior is zero everywhere on the probe grid")
        inside = np.where(logp >= peak - 40.0)[0]
        new_left = float(xs[max(int(inside[0]) - 1, 0)])
        new_right = float(xs[min(int(inside[-1]) + 1, xs.size - 1)])
        if (new_right - new_left) >= 0.95 * (right - left):
            return new_left, new_right
        left, right = new_left, new_right
        xs = np.linspace(left, right, 257)
    return left, right


def posterior_summary(
    model: ModelSpec,
    comparison: Comparison,
    parameter: str = "delta",
    *,
    grid_points: int = 2048,
    rel_tol: float = 1e-9,
    _log_ml: Optional[float] = None,
) -> PosteriorSummary:
    """Grid posterior of one free parameter under one model.

    The grid spans the region where the posterior exceeds exp(-40) of its
    peak, normalized by trapezoidal integration and cross-checked against
    the adaptive-quadrature marginal likelihood; the grid is refined once
    if the normalization disagrees by more than 1e-6, and a disagreement
    that survives the refinement is logged at WARNING (the summary is
    still returned).  ``_log_ml`` is for callers that already hold
    ``log_marginal(model, comparison, rel_tol=rel_tol)``, such as
    :func:`bmameta.averaging.evaluate`; it is not part of the public
    interface.
    """
    if parameter not in ("delta", "tau"):
        raise ParameterError(f"parameter must be 'delta' or 'tau', got {parameter!r}")
    free = model.delta_free if parameter == "delta" else model.tau_free
    if not free:
        raise UnsupportedOperationError(
            f"parameter {parameter!r} is a point mass under model {model.name!r}"
        )
    prior = model.delta_prior if parameter == "delta" else model.tau_prior
    left, right = _mass_region(model, comparison, parameter, prior, rel_tol)
    logml = log_marginal(model, comparison, rel_tol=rel_tol) if _log_ml is None else _log_ml

    n = grid_points
    for _ in range(2):
        grid = np.linspace(left, right, n)
        logpost = _log_posterior_on(model, comparison, parameter, grid, rel_tol)
        log_total = _log_trapz(logpost, grid)
        mismatch = math.expm1(log_total - logml)
        if abs(mismatch) <= 1e-6:
            break
        n *= 2
    else:
        log.warning(
            "posterior of %s under model %r: grid normalization differs from "
            "the marginal likelihood by %.3g (relative)", parameter, model.name, mismatch,
        )
    pdf = np.exp(logpost - log_total)
    return summarize_grid(grid, pdf)


def summarize_grid(x: np.ndarray, pdf: np.ndarray) -> PosteriorSummary:
    """Moments and central-interval quantiles of a density known on a grid."""
    h = np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    mass = float(np.sum(w * pdf))
    pdf = pdf / mass
    mean = float(np.sum(w * pdf * x))
    var = float(np.sum(w * pdf * (x - mean) ** 2))
    q = np.interp([0.025, 0.5, 0.975], grid_cdf(x, pdf), x)
    return PosteriorSummary(
        mean=mean, median=float(q[1]), sd=math.sqrt(max(var, 0.0)),
        ci_lower=float(q[0]), ci_upper=float(q[2]),
        grid_x=x, grid_pdf=pdf,
    )


def grid_cdf(x: np.ndarray, pdf: np.ndarray) -> np.ndarray:
    """Cumulative-trapezoid CDF of a density on a grid, scaled to end at 1."""
    h = np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (pdf[:-1] + pdf[1:]))])
    return cdf / cdf[-1]
