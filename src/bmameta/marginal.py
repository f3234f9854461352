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
posterior's kernel.  Every integral but the t prior's accepted
Gauss-Laguerre lambda rows and the delta-posterior pass's accepted
tanh-sinh sums runs through the log-space adaptive Gauss-Kronrod
integrator :func:`bmameta.quadrature.log_quad_batch`, whose groups each
refine a partition of their own, shared by the owners of the group.

The delta part does not depend on the tau prior, and every part is a
function of the likelihood's tau statistics, so
:func:`chunk_log_marginals` integrates all its free-tau models on a chunk
of comparisons in one outer tau integral, one group per (comparison,
delta prior, tau prior) triple, each seeded at the shared tau lattice and
its comparison's data scales.  Its integrand computes the tau statistics
once per distinct (comparison, tau interval) of its rows
(:func:`_distinct_rows`), each delta prior's part once for the whole
chunk on the intervals its groups need, and adds each group's tau prior
density.  So a t prior's lambda rows of every comparison of the chunk go
through one call of its rules.  A row does not depend on its chunk: a
chunk of one comparison gives, bit for bit, that comparison's row, and
:func:`log_marginal` is the case of one model and one comparison.
:func:`chunk_size` sizes chunks from the models alone; the corpus passes
of :func:`bmameta.averaging.corpus_log_marginals` are the only callers
that cut chunks.

At fixed tau the likelihood in delta is exactly N(mu(tau), V(tau))
times exp(-c(tau) / 2), with V = 1 / S0 (see
:func:`bmameta.core.random_stats`).  The delta part of each family:

* point: the likelihood itself.
* normal(m, s): conjugate to that shape, so closed (:func:`_conjugate`):
  conj(s**2) = -(c + log S0 + log(V + s**2) + (mu - m)**2 / (V + s**2)) / 2.
* Cauchy(m, g): the convolution of a normal with a Cauchy is a Voigt
  profile, closed in the Faddeeva function w(z) = exp(-z**2) erfc(-i z)
  (:func:`_voigt`): -c / 2 + log Re w((mu - m + i g) sqrt(S0 / 2)), from
  ``scipy.special.wofz`` (Poppe & Wijers 1990).  No quadrature, no bounds.
* t(m, s, nu): a gamma scale mixture of normals, t_nu(m, s) = integral
  of N(m, s**2 / lambda) Ga(lambda; nu / 2, rate nu / 2) d lambda, so the
  delta part is the log integral of exp(conj(s**2 / lambda)) against that
  gamma density (:func:`_mixture_integrals`).  The tau values of one call
  are the owners of one lambda row; in the outer tau integral each tau
  interval is a row of its own.  A row whose owners all have V / s**2
  below 0.3 takes a generalized Gauss-Laguerre rule with weight
  lambda**(a - 1/2) e**(-b lambda), a = nu / 2, whose rate b = a +
  (mu - m)**2 / (2 (V + s**2)) follows the data (:func:`_laguerre`, by
  Golub & Welsch 1969).  It is evaluated densely at 12 and 18 nodes and
  accepted when the two agree within the inner tolerance; any other row
  falls back to the adaptive integral over u = log(lambda), seeded at the
  logs of seven mixing-prior quantiles (:class:`_Mixing`), whose log
  density is written K(nu / 2) - (nu / 2) (expm1(u) - u) so that a large
  nu cancels no terms of size nu.  On data within a few prior scales of
  the location, such a row converges on the 8 intervals those seeds make,
  with no bisection round.  The narrow likelihood peak in delta is
  integrated in closed form, so delta has no bounds and the integrand is
  smooth in lambda.  The adaptive path's only cut is in lambda: the lower
  limit, set from the data's distance to the prior's location and the
  likelihood's variance, drops at most 1e-16 of the integral, the upper
  limit 1e-30 of the mixing prior's mass.
* uniform(a, b) and halfnormal(s): the likelihood's normal shape cut to
  an interval, closed (:func:`_uniform`, :func:`_halfnormal`) in a log
  difference of normal CDFs formed away from mu (:func:`_log_ndtr_diff`).

No delta part cuts the delta range or refines a quadrature over delta;
:class:`ModelSpec` rejects gamma and invgamma delta priors.  The grid
posterior of delta (:func:`posterior_summary`) still stops at the 1e-12
bounds for every family.

The integrated forms leave the likelihood's constant -c / 2 out of the
integrand and add it afterwards, so no node carries the rounding of c,
which grows with the data's spread over se.  The tau statistics of an
inner integral are computed once per owner tau and broadcast or gathered
to the nodes; no inner node meets the study axis.  The prior constants
(bounds, mixing limits and seeds) are computed once per distinct prior.

The adaptive tau integrals keep all prior mass up to 1e-12 per tail and
are seeded at the powers of 4 inside those bounds (computed once per
prior) and at eight data scales (computed once per comparison of a
call).  Neither depends on the prior's shape, so the groups of one outer
integral split their common range at the same points and share those
intervals; a standalone call integrates over the same partition.

The likelihood's tau-only terms (log det, mu, S0 and the centred sum of
squares of the variances se**2 + tau**2) are computed once per tau node
of an integrand call (:func:`bmameta.core.random_stats`), and every delta
part reads them: the parts take these statistics, not tau values, so the
point-tau models of a call share one such computation and the outer
integrand one per distinct interval.

The tau part at a free tau (the delta-posterior pass, :func:`_tau_part`)
integrates in p = H(tau), the tau prior's CDF, where the integrand is the
likelihood alone, bounded on (0, 1).  It takes a fixed tanh-sinh rule
(Takahasi & Mori 1974) of four nested levels, 63 to 505 nodes, whose tau
nodes are prior quantiles cached per prior (:func:`_tau_rule`), so one
``random_stats`` call serves every delta value.  Each node's tau-only
terms, its log weight folded into c, are broadcast against every delta,
and only the O(1) quadratic form in delta is formed per (node, delta)
cell (:func:`_rule_sums`, :func:`bmameta.core.loglik_from_stats`).  A
delta is accepted when two successive levels agree within the tolerance
and the rule's two dropped end pieces are within it of the total
(Bailey, Jeyabalan & Li 2005).  If any delta is not, the call takes the
adaptive path (:func:`_tau_kronrod`), where all deltas are owners of one
group and share its partition, with the bits it has on its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import gammainccinv, gammaincinv, log_ndtr, logsumexp, wofz

from .core import _LOG_2PI, Comparison, loglik_from_stats, loglik_random, random_stats
from .errors import DomainError, ParameterError, UnsupportedOperationError
from .priors import PriorSpec, _gammaln_half_step, _gammaln_k
from .quadrature import _BLOCK_CELLS, _NODES, _WEIGHTS_K, log_quad_batch

__all__ = ["ModelSpec", "PosteriorSummary", "log_marginal", "posterior_summary"]

log = logging.getLogger(__name__)

_TAIL = 1e-12
_EFFECT_FAMILIES = ("point", "normal", "t", "cauchy", "uniform", "halfnormal")
# Scale-mixture delta parts: the lower lambda cut drops at most _MIX_TAIL of
# the integral, the upper cut _MIX_UPPER_TAIL of the mixing prior's mass.
_MIX_TAIL = 1e-16
_MIX_UPPER_TAIL = 1e-30
_MIX_SEED_LEVELS = (1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-6)
_TINY = np.finfo(float).tiny
# (node x owner) cells of the t mixture integrand formed at a time: its
# V + w scratch stays far below the integrator's block size
_CHUNK_CELLS = 1 << 16
# A t lambda row whose owners all have V / s**2 below _LAGUERRE_R takes the
# Gauss-Laguerre rules of these node counts (:func:`_mixture_integrals`).
_LAGUERRE_R = 0.3
_LAGUERRE_NODES = (12, 18)
# First-pass outer tau intervals of one chunk of comparisons (:func:`chunk_size`)
_CHUNK_INTERVALS = 2048
# The delta-posterior pass's tanh-sinh rule (:func:`_tau_rule`): its nested
# steps in t, the end of its t range, and where each level's nodes end in
# the rule's arrays, whose two end nodes come first
_RULE_STEPS = (0.1, 0.05, 0.025, 0.0125)
_RULE_END = 3.15
_RULE_CUTS = (2, 65, 129, 255, 507)
# Points of a posterior summary's first grid; a grid whose normalization
# misses the marginal likelihood by more than 1e-6 is doubled once.
_GRID_POINTS = 2048


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
        if self.delta_prior.family not in _EFFECT_FAMILIES:
            raise ParameterError(
                f"delta prior must be one of the effect families {', '.join(_EFFECT_FAMILIES)} "
                f"(gamma and invgamma are heterogeneity-only), got {self.delta_prior}"
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


@lru_cache(maxsize=1024)
def _prior_bounds(prior: PriorSpec) -> tuple:
    if prior.is_point:
        v = prior.params[0]
        return (v, v)
    if prior.family == "uniform":
        return prior.params
    lo, hi = (float(q) for q in prior.quantile(np.array([_TAIL, 1.0 - _TAIL])))
    slo, shi = prior.support
    return (max(lo, slo), min(hi, shi))


@dataclass(frozen=True)
class _Mixing:
    """The gamma mixing prior of a t delta prior, in u = log(lambda).

    t_nu(m, s) = integral of N(m, s**2 / lambda) Ga(lambda; nu / 2, rate
    nu / 2) d lambda, so with a = nu / 2 the log mixing density in u is
    ``log_norm - a (expm1(u) - u)`` with log_norm = K(a) = a log a - a -
    gammaln(a) (:func:`bmameta.priors._gammaln_k`).  Written so, no term of
    size a cancels: the density peaks at u = 0 with value K(a) ~
    log(a / 2 pi) / 2.
    These fields serve the adaptive path of :func:`_mixture_integrals`,
    which takes every lambda row the Gauss-Laguerre rules
    (:func:`_laguerre`) do not: rows with a likelihood variance of 0.3
    prior variances or more, and rows whose 12- and 18-node values
    disagree.  ``upper`` is the log of the upper lambda limit and
    ``seeds`` the logs of the mixing prior's quantiles at
    _MIX_SEED_LEVELS.  Such a row is seeded at these alone, clipped into
    its own range.  The integrand is smooth in u, and on the 8 intervals
    the 7 seeds make with the row's bounds the Kronrod-21 rule is exact to
    rounding and its Gauss-10 bracket is below the inner tolerance: for
    nu = 3 to 1000 and data within 3 prior scales of the location (V from
    1e-6 to 5 s**2), mpmath puts the G10 error at 3e-16 to 5e-12 of the
    integral.  So such a row converges on its 8 (fewer if seeds clip onto
    a bound) starting intervals with no refinement round, and no further
    seeds are needed; farther data, or nu = 1, may still take a round.

    With precise data (V -> 0) whose mu lies D prior scales from the
    location, the integrand is, up to a constant, the density of
    u = log(lambda) for lambda ~ Ga(a + 1/2, rate a + D**2 / 2), and the
    lower lambda limit is that law's _MIX_TAIL quantile,
    ``cut / (a + D**2 / 2)`` with ``cut`` its value at rate 1.  A variance
    V = r s**2 scales the integrand by (1 + r lambda)**-1/2 and slows its
    decay in D, so by Jensen the integral is at least 1 / k of the precise
    one, k = sqrt(1 + r (a + 1/2) / a).  The limit is divided by
    k**(1 / (a + 1/2)), which cuts the precise law's tail below it by k
    where that tail is a power of lambda.  Checked numerically, the limit
    drops at most _MIX_TAIL of the integral for nu = 1, 3, 5, 30 and 1000,
    D = 0, 1 and 1e3, and r from 0 to 1e12.
    """

    a: float
    log_norm: float
    cut: float
    upper: float
    seeds: np.ndarray


@lru_cache(maxsize=1024)
def _mixing(g: PriorSpec) -> _Mixing:
    a = 0.5 * g.params[2]
    hi = gammainccinv(a, _MIX_UPPER_TAIL) / a
    # a tiny nu puts the low quantiles at 0; the integrator clips the seeds
    # to each row's cut
    seeds = np.log(np.clip(gammaincinv(a, np.array(_MIX_SEED_LEVELS)) / a, _TINY, hi))
    seeds.flags.writeable = False
    return _Mixing(a, _gammaln_k(a), float(gammaincinv(a + 0.5, _MIX_TAIL)), math.log(hi), seeds)


@lru_cache(maxsize=1024)
def _tau_lattice(prior: PriorSpec) -> np.ndarray:
    """The powers of 4 inside the prior's bounds, from 1e-12 up, or from
    1e-12 times the upper bound for a prior that lies below 1."""
    lo, hi = _prior_bounds(prior)
    lo = max(lo, min(1e-12, 1e-12 * hi))
    lattice = 4.0 ** np.arange(math.floor(math.log(lo, 4.0)), math.ceil(math.log(hi, 4.0)) + 1)
    lattice = lattice[(lattice >= lo) & (lattice <= hi)]
    lattice.flags.writeable = False
    return lattice


def _tau_data_scales(comparison: Comparison) -> np.ndarray:
    """Eight tau split points from the data: 1/4, 1/2 and 1 times the
    smallest se, 1/2 to 4 times the effects' standard deviation (floored
    at a quarter of the smallest se), and the effects' largest distance
    from their median plus the smallest se."""
    y, se = comparison._canonical
    se_min = float(np.min(se))
    with np.errstate(over="ignore"):  # an infinite scale is clipped to the prior's bounds
        sd_y = float(np.std(y)) if comparison.k > 1 else se_min
        spread = float(np.max(np.abs(y - np.median(y)))) if comparison.k > 1 else se_min
    scale = max(sd_y, 0.25 * se_min)
    return np.array([
        0.25 * se_min, 0.5 * se_min, se_min,
        0.5 * scale, scale, 2.0 * scale, 4.0 * scale, spread + se_min,
    ])


def _tau_seeds(priors: Iterable[PriorSpec], comparison: Comparison) -> np.ndarray:
    """Outer tau split points: the powers of 4 inside each prior's bounds
    (:func:`_tau_lattice`), then eight data scales (:func:`_tau_data_scales`).

    Neither depends on a prior's shape, so tau priors whose bounds
    overlap split the overlap at the same points, and the groups of one
    outer integral share those intervals.
    """
    return np.concatenate([_tau_lattice(h) for h in priors] + [_tau_data_scales(comparison)])


def log_marginal(
    model: ModelSpec,
    comparison: Comparison,
    *,
    rel_tol: float = 1e-9,
) -> float:
    """Log of the marginal likelihood of ``comparison`` under ``model``.

    The one-model, one-comparison case of :func:`chunk_log_marginals`.
    ``rel_tol`` is the relative tolerance on the integral, i.e. the
    absolute tolerance on the returned log value.
    """
    return float(chunk_log_marginals([model], [comparison], rel_tol=rel_tol)[0, 0])


def chunk_log_marginals(
    models: Sequence[ModelSpec],
    comparisons: Sequence[Comparison],
    *,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """Log marginal likelihoods of several models on a chunk of comparisons,
    shape (comparisons, models).

    A point tau evaluates the model's delta part (:func:`_delta_part`)
    there, from one :func:`~bmameta.core.random_stats` call per comparison
    for all the point tau values of the call, and one delta part call per
    model for the whole chunk.  The free-tau models are the groups of one
    outer tau integral (:func:`_free_tau_log_marginals`), one group per
    (comparison, delta prior, tau prior) triple.  Each group refines a
    partition of its own, so a row does not depend on the other
    comparisons or models: it equals, bit for bit, the row of a chunk of
    one.  But the groups share the integrator's cell cap,
    ``max(40000, 64 n_groups)`` intervals, so a chunk whose groups
    together refine past it fails where one comparison alone might not;
    callers rerun a failed chunk one comparison at a time
    (:func:`chunk_size` keeps chunks far below the cap).
    """
    out = np.empty((len(comparisons), len(models)))
    point = [i for i, model in enumerate(models) if not model.tau_free]
    if point:
        values, row = np.unique([models[i].tau_prior.params[0] for i in point], return_inverse=True)
        # a row per comparison, a column per point tau value
        stats = tuple(np.stack(v) for v in zip(*(random_stats(values, c) for c in comparisons)))
        for i, j in zip(point, row):
            part = _delta_part(models[i].delta_prior, rel_tol)
            out[:, i] = part(tuple(v[:, j:j + 1] for v in stats))[:, 0]
    free = [i for i, model in enumerate(models) if model.tau_free]
    if free:
        out[:, free] = _free_tau_log_marginals([models[i] for i in free], comparisons, rel_tol)
    nan = np.argwhere(np.isnan(out))
    if nan.size:
        raise DomainError(f"marginal likelihood of model {models[nan[0, 1]].name!r} is not a number")
    return out


def chunk_size(models: Sequence[ModelSpec]) -> int:
    """Comparisons per chunk of :func:`chunk_log_marginals` for ``models``.

    As many comparisons as keep the first pass of a chunk's outer tau
    integral within _CHUNK_INTERVALS intervals, counted as the free-tau
    (delta prior, tau prior) pairs times the intervals that the tau
    priors' joint lattice and the eight data scales make; at least one.
    The count depends on the models alone, never on the data.

    A chunk saves the per-call cost of the integrators and of the lambda
    rules once per comparison; its memory grows with its size, mostly in
    the lambda rows of its first outer pass.  At 2048 intervals the
    20-member candidate ensemble runs in chunks of 2 and its 12
    ``random_H1`` members in chunks of 3.  On a seeded five-comparison
    ``rank`` sweep that is about as fast as one chunk of all five, and
    the process peaks about 2 MB above the per-comparison passes, where
    one chunk of all five peaks 4 MB above; chunks of 2 throughout were
    slower.
    """
    pairs = {(m.delta_prior, m.tau_prior) for m in models if m.tau_free}
    lattice = set().union(*(_tau_lattice(h).tolist() for _, h in pairs))
    return max(1, _CHUNK_INTERVALS // max(1, len(pairs) * (len(lattice) + 9)))


def _free_tau_log_marginals(models, comparisons, rel_tol):
    """Log marginals of free-tau ``models`` on each of ``comparisons``, shape
    (comparisons, models), from one outer ``log_quad_batch`` with one group
    of one owner per (comparison, delta prior, tau prior) triple, in
    comparison-major order.

    Every group gets the seeds of all the tau priors and its comparison's
    data scales.  Clipped to a prior's bounds, another prior's lattice
    points either fall on those bounds or are its own lattice points, so
    each group refines the partition, and gets the total, of a
    single-model, single-comparison call.

    An integrand call computes the tau statistics once per distinct
    (comparison, tau interval) of its rows (:func:`_distinct_rows`),
    whatever the groups; each delta prior's part then reads those its
    groups need, in one call for the whole chunk, and each group adds its
    tau prior's density.
    """
    pairs = _first_seen((m.delta_prior, m.tau_prior) for m in models)
    deltas = _first_seen(g for g, _ in pairs)
    taus = _first_seen(h for _, h in pairs)
    parts = [_delta_part(g, rel_tol * 0.1) for g in deltas]
    n = len(comparisons)
    comp_of = np.repeat(np.arange(n), len(pairs))
    delta_of = np.tile([deltas[g] for g, _ in pairs], n)
    tau_of = np.tile([taus[h] for _, h in pairs], n)
    bounds = np.tile([_prior_bounds(h) for _, h in pairs], (n, 1))
    seeds = np.stack([_tau_seeds(taus, c) for c in comparisons])[comp_of]

    def logf(grp, t):
        grp = grp[:, 0]
        comp = comp_of[grp]
        # each row's index into the stacked statistics of the distinct
        # (comparison, interval) rows
        index = np.empty(grp.size, dtype=np.intp)
        stats, n_distinct = [], 0
        for j in np.unique(comp):
            rows = np.flatnonzero(comp == j)
            first, inverse = _distinct_rows(t[rows])
            index[rows] = n_distinct + inverse
            n_distinct += first.size
            stats.append(random_stats(t[rows[first]], comparisons[j]))
        stats = tuple(np.concatenate(v) for v in zip(*stats))
        out = np.empty(t.shape)
        for j, part in enumerate(parts):
            rows = delta_of[grp] == j
            if rows.any():
                need, back = np.unique(index[rows], return_inverse=True)
                out[rows] = part(tuple(v[need] for v in stats))[back]
        for j, h in enumerate(taus):
            rows = tau_of[grp] == j
            out[rows] += h.log_pdf(t[rows])
        return out[..., None]

    values = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=rel_tol)[:, 0].reshape(n, len(pairs))
    return values[:, [pairs[m.delta_prior, m.tau_prior] for m in models]]


def _first_seen(keys) -> dict:
    """The distinct ``keys``, each mapped to its index in order of first appearance."""
    index: dict = {}
    for key in keys:
        index.setdefault(key, len(index))
    return index


def _delta_part(g: PriorSpec, rel_tol: float):
    """``f(stats)``: the log of the likelihood integrated over the delta
    prior ``g`` (the likelihood itself at a point delta) at the tau values
    whose ``stats = (c, mu, S0)`` are given (:func:`bmameta.core.random_stats`);
    the result has their shape.

    A normal prior is conjugate to the likelihood's N(mu, 1 / S0) shape in
    delta, so its integral is closed (:func:`_conjugate`), and so are a
    Cauchy prior's (:func:`_voigt`) and those of the uniform and half-normal
    priors, which cut that shape to an interval; they run no quadrature.
    t priors are gamma scale mixtures of normals, so theirs is a 1-D
    integral of the normal closed form (:func:`_mixture_integrals`).  A
    point delta is :func:`bmameta.core.loglik_from_stats`, bit for bit
    :func:`bmameta.core.loglik_random`.
    """
    if g.is_point:
        return lambda stats: loglik_from_stats(stats, g.params[0])
    if g.family == "normal":
        m, s = g.params
        return lambda stats: _conjugate(stats, m, s * s)
    if g.family == "cauchy":
        m, gamma = g.params
        return lambda stats: _voigt(stats, m, gamma)
    if g.family == "uniform":
        a, b = g.params
        return lambda stats: _uniform(stats, a, b)
    if g.family == "halfnormal":
        (s,) = g.params
        return lambda stats: _halfnormal(stats, s)
    return _mixture_integrals(g, rel_tol)


def _conjugate(stats: tuple, m: float, w) -> np.ndarray:
    """log of the likelihood integrated over a N(m, w) delta prior, from
    ``stats = (c, mu, S0)``: -(c + log S0 + log(V + w) + (mu - m)**2 / (V + w)) / 2
    with V = 1 / S0.  The arrays broadcast against ``w``."""
    return _conjugate_finish(_conjugate_terms(stats, m), w)


def _conjugate_terms(stats: tuple, m: float) -> tuple:
    """The prior-variance-free terms of :func:`_conjugate`:
    ``(c + log S0, V, (mu - m)**2)``, computed once per owner."""
    c, mu, s0 = stats
    with np.errstate(over="ignore"):  # an overflow is a zero likelihood
        return c + np.log(s0), 1.0 / s0, (mu - m) ** 2


def _conjugate_finish(terms: tuple, w, out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`_conjugate` from its :func:`_conjugate_terms` at prior variance
    ``w``: per cell one log and one division, in the order of
    -0.5 * (c + log S0 + log(V + w) + (mu - m)**2 / (V + w)).

    Written into ``out`` if given, an array of the broadcast shape; V + w
    takes a second array of that shape."""
    c_log_s0, inv_s0, sq = terms
    v = inv_s0 + w
    out = np.log(v, out=out)
    np.add(c_log_s0, out, out=out)
    with np.errstate(over="ignore"):  # an overflow is a zero likelihood
        out += np.divide(sq, v, out=v)
    return np.multiply(-0.5, out, out=out)


def _voigt(stats: tuple, m: float, gamma: float) -> np.ndarray:
    """log of the likelihood integrated over a Cauchy(m, gamma) delta prior,
    from ``stats = (c, mu, S0)``: -c / 2 + log Re w((mu - m + i gamma) sqrt(S0 / 2)).

    The likelihood is exp(-c / 2) sqrt(2 pi V) N(delta; mu, V), and a normal
    convolved with a Cauchy is the Voigt profile Re w(z) / sqrt(2 pi V), with
    w the Faddeeva function.  Re w > 0 for Im z > 0, but it underflows to 0
    for data ~1e150 prior scales from m; the result is then -inf, without a
    warning.
    """
    c, mu, s0 = stats
    r = np.sqrt(0.5 * s0)
    with np.errstate(divide="ignore"):
        return np.log(wofz((mu - m) * r + 1j * (gamma * r)).real) - 0.5 * c


def _uniform(stats: tuple, a: float, b: float) -> np.ndarray:
    """log of the likelihood integrated over a uniform(a, b) delta prior:
    -c / 2 + log(2 pi / S0) / 2 - log(b - a) + log(Phi(beta) - Phi(alpha)),
    with alpha = (a - mu) sqrt(S0) and beta = (b - mu) sqrt(S0)."""
    c, mu, s0 = stats
    r = np.sqrt(s0)
    return (0.5 * (_LOG_2PI - np.log(s0)) - 0.5 * c - math.log(b - a)
            + _log_ndtr_diff((a - mu) * r, (b - mu) * r))


def _halfnormal(stats: tuple, s: float) -> np.ndarray:
    """log of the likelihood integrated over a halfnormal(s) delta prior:
    ``_conjugate`` at N(0, s**2) + log 2 + log Phi(m' / sqrt(v')), with
    N(m', v') the posterior under that normal prior, v' = 1 / (S0 + 1 / s**2)
    and m' = v' S0 mu."""
    _, mu, s0 = stats
    z = s0 * mu * np.sqrt(1.0 / (s0 + 1.0 / (s * s)))
    return _conjugate(stats, 0.0, s * s) + math.log(2.0) + log_ndtr(z)


def _log_ndtr_diff(lo, hi) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) for lo < hi, elementwise, to a few ulp.

    An interval above 0 is mirrored below it, so the difference is formed
    in the far tail, log Phi(hi) + log(1 - Phi(lo) / Phi(hi)), where
    neither tail cancels.  On a narrow interval, (hi - lo) max(1, |lo|,
    |hi|) <= 1, that ratio nears 1 and loses digits; but there the density
    changes by at most a factor e, so the integrator's Kronrod-21 rule
    (:mod:`bmameta.quadrature`) is exact to rounding.
    """
    flip = lo > 0.0
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    narrow = (hi - lo) * np.maximum(1.0, np.maximum(-lo, hi)) <= 1.0
    out, wide = np.empty(lo.shape), ~narrow
    log_hi = log_ndtr(hi[wide])
    out[wide] = log_hi + np.log(-np.expm1(log_ndtr(lo[wide]) - log_hi))
    half = 0.5 * (hi[narrow] - lo[narrow])
    x = (0.5 * (hi[narrow] + lo[narrow]))[:, None] + half[:, None] * _NODES
    out[narrow] = np.log(half) - 0.5 * _LOG_2PI + logsumexp(-0.5 * x * x, b=_WEIGHTS_K, axis=1)
    return out


@lru_cache(maxsize=256)
def _laguerre(alpha: float) -> tuple:
    """The generalized Gauss-Laguerre rules with weight t**alpha e**-t, of
    _LAGUERRE_NODES nodes each, concatenated: ``(nodes, log weights)``,
    the weights normalized to sum to 1 per rule.

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi
    matrix of the Laguerre polynomials, diagonal 2j + alpha + 1 and
    off-diagonal sqrt(j (j + alpha)), and each normalized weight is the
    square of the first component of its eigenvector.  The matrix is
    shifted by alpha + 1, the weight's mean, before ``eigh``, so the
    eigenvectors keep their digits at large alpha (nu up to 1e5 and more),
    where ``scipy.special.roots_genlaguerre``'s weights are NaN.
    """
    nodes, log_weights = [], []
    for n in _LAGUERRE_NODES:
        j = np.arange(1.0, n)
        off = np.sqrt(j * (j + alpha))
        shift, vectors = np.linalg.eigh(np.diag(2.0 * np.arange(n)) + np.diag(off, 1) + np.diag(off, -1))
        nodes.append((alpha + 1.0) + shift)
        log_weights.append(2.0 * np.log(np.abs(vectors[0])))
    out = (np.concatenate(nodes), np.concatenate(log_weights))
    for v in out:
        v.flags.writeable = False
    return out


def _mixture_integrals(g: PriorSpec, rel_tol: float):
    """``integrals(stats)``: the delta part of a t prior ``g`` at the tau
    values whose ``stats = (c, mu, S0)`` are given, as log of the integral
    over lambda of ``_conjugate`` at prior variance s**2 / lambda times the
    gamma mixing density (:class:`_Mixing`).

    The rows of 2-D statistics are the lambda rows; a row's result does not
    depend on the other rows, so a tau interval of an outer integral gets
    the same bits in any batch.  Each row is integrated by one of two
    rules:

    * A row whose owners all have r = V / s**2 below _LAGUERRE_R, with
      V = 1 / S0, takes the generalized Gauss-Laguerre rules of
      :func:`_laguerre`.  With x = mu - m, a = nu / 2 and D**2 = x**2 / s**2,
      the integrand is lambda**(a - 1/2) e**(-b lambda) times
      (1 + r lambda)**-1/2 exp(q r lambda (lambda - 1) / (1 + r lambda)),
      with the rate b = a + q and q = D**2 / (2 (1 + r)).  The rate follows
      the data, so what remains is constant at r = 0 and smooth in lambda
      for small r.  Each owner's value comes from the rules of 12 and 18
      nodes (_LAGUERRE_NODES), evaluated densely; the row is accepted when
      every owner's two values agree within ``rel_tol``, and then gives the
      18-node value.  A value that is not finite never agrees, so such a
      row falls back.  Against 30-digit mpmath (tests/test_marginal.py)
      the accepted values are within 1e-12 for nu = 1 to 1e5, x from 0.1
      to 300 prior scales and V up to 0.04.
      The gate and node counts come from the lambda rows of a seeded
      ``rank`` sweep (the 20-member candidate ensemble, 1002 rows): 598
      rows pass the gate and 594 of them are accepted.  Raising the gate
      to r = 1, or dropping it, sends 28 or 404 more rows through the
      rules and accepts none of them, because at larger r the factor in
      lambda is far from a low-degree polynomial (at V = 4, 64 nodes still
      miss by 1e-6 to 1e-3).  8 and 12 nodes accept 546 rows; 16 and 24
      accept all 598 but cost more cells than the 4 rows they add save.
    * Every other row is one group of the adaptive
      :func:`~bmameta.quadrature.log_quad_batch` over u = log(lambda), its
      owners the row's tau values sharing its u range, seeds and
      partition.  The seeds are the mixing prior's seven quantile seeds
      alone: the intervals they make already meet the tolerance under the
      integrator's |K21 - G10| bracket (:class:`_Mixing`), so midpoints
      between them would only double the cells.  The lower lambda limit is
      set for the owners' largest distance from the prior's location and
      largest likelihood variance, both in prior scales.

    The narrow likelihood peak in delta is integrated in closed form, so
    the integrand is smooth in lambda and delta has no bounds.  ``-c / 2``
    is added after the integral, so no node carries its rounding.  The
    lambda-free terms (:func:`_conjugate_terms`) are computed once per
    owner tau, so an adaptive cell costs one log and one division
    (:func:`_conjugate_finish`).
    """
    m, s = g.params[:2]
    mix = _mixing(g)
    a = mix.a
    # log of a**a / Gamma(a) * Gamma(a + 1/2) / a**(a + 1/2) / s, the
    # Laguerre value's constant at r = 0 and D = 0
    log_scale = _gammaln_half_step(a) - 0.5 * math.log(a) - math.log(s)

    def adaptive(terms):
        n_owners = terms[1].shape[1]
        # each row's lower lambda limit (:class:`_Mixing`) for its owners'
        # largest D**2 and r, floored so that an overflow still gives a
        # finite log
        with np.errstate(over="ignore"):
            d2, r = (np.max(v, axis=1) / (s * s) for v in (terms[2], terms[1]))
            cut = mix.cut / (a + 0.5 * d2) / (1.0 + r * (a + 0.5) / a) ** (1.0 / (2.0 * a + 1.0))
        lower = np.log(np.fmax(cut, _TINY))
        bounds = np.stack([lower, np.full_like(lower, mix.upper)], axis=1)

        def logf(grp, u):
            lam = np.exp(u)[..., None]
            out = np.empty(u.shape + (n_owners,))
            # a few rows at a time, so V + w needs no second block-sized array
            step = max(1, _CHUNK_CELLS // out[0].size)
            for i in range(0, u.shape[0], step):
                chunk = slice(i, i + step)
                row = grp[chunk, 0]
                with np.errstate(over="ignore"):  # an infinite prior variance: zero density
                    w = s * s / lam[chunk]
                _conjugate_finish(tuple(v[row, None] for v in terms), w, out[chunk])
            out += (mix.log_norm - a * (np.expm1(u) - u))[..., None]
            return out

        return log_quad_batch(logf, bounds, n_owners=n_owners, seeds=mix.seeds, rel_tol=rel_tol)

    def laguerre(terms):
        """(18-node values, whether the row is accepted) of the rows' owners."""
        nodes, log_w = _laguerre(a - 0.5)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = terms[1] / (s * s)
            q = 0.5 * (terms[2] / (s * s)) / (1.0 + r)
            base = log_scale - 0.5 * terms[0] - (a + 0.5) * np.log1p(q / a)
        out = np.empty(r.shape + (2,))
        step = max(1, _CHUNK_CELLS // (nodes.size * r.shape[1]))
        for i in range(0, r.shape[0], step):
            rows = slice(i, i + step)
            ri, qi = r[rows, :, None], q[rows, :, None]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                lam = nodes / (a + qi)
                rl = ri * lam
                # log weight - log(1 + r lambda) / 2 + q r lambda (lambda - 1) / (1 + r lambda),
                # formed in place
                f = np.log1p(rl)
                f *= -0.5
                f += log_w
                lam -= 1.0
                lam *= rl
                lam *= qi
                lam /= 1.0 + rl
                f += lam
                # each rule's log-sum-exp over its nodes
                for k, part in enumerate((slice(0, _LAGUERRE_NODES[0]), slice(_LAGUERRE_NODES[0], None))):
                    peak = np.max(f[..., part], axis=-1)
                    out[rows, :, k] = np.log(np.sum(np.exp(f[..., part] - peak[..., None]), axis=-1)) + peak
        with np.errstate(invalid="ignore"):
            ok = np.all(np.abs(out[..., 1] - out[..., 0]) <= rel_tol, axis=1)
        return base + out[..., 1], ok

    def integrals(stats: tuple) -> np.ndarray:
        c, mu, s0 = (np.atleast_2d(v) for v in stats)
        terms = _conjugate_terms((0.0, mu, s0), m)
        out = np.empty(mu.shape)
        # the rows the gate sends to the Laguerre rules; those accepted stay True
        dense = np.all(terms[1] < _LAGUERRE_R * (s * s), axis=1)
        if dense.any():
            values, ok = laguerre(tuple(v[dense] for v in terms))
            rows = np.flatnonzero(dense)[ok]
            out[rows] = values[ok]
            dense[dense] = ok
        rest = ~dense
        if rest.any():
            out[rest] = adaptive(tuple(v[rest] for v in terms))
        return (out - 0.5 * c).reshape(np.shape(stats[0]))

    return integrals


@lru_cache(maxsize=1024)
def _tau_rule(h: PriorSpec) -> tuple:
    """The tanh-sinh rule of the delta-posterior pass in p = H(tau), the
    CDF of the tau prior ``h``: ``(tau nodes, log weights)``.

    The substitution p = 1 / (1 + exp(-2 u)), u = (pi / 2) sinh(t), maps t
    in R onto (0, 1) with dp / dt = pi cosh(t) p (1 - p) (Takahasi & Mori
    1974).  Its nodes are t = j _RULE_STEPS[-1] over [-_RULE_END, _RULE_END]
    (j = -252 to 252), in order of level: the 63 nodes of step 0.1 first,
    then the 64, 126 and 252 that steps 0.05, 0.025 and 0.0125 add, so each
    level's sum continues the one before it (_RULE_CUTS).  The log weight
    is log(dp / dt) at the node; the caller multiplies each level's sum by
    its step.  In front come the two end nodes again, t = -_RULE_END and
    +_RULE_END, each weighted by the prior mass beyond it, log p of the
    first and log(1 - p) of the last: their sum is the rule's dropped end
    pieces.

    tau = H^-1(p) is the prior's quantile at p below 1/2 and its
    upper-tail quantile at q = 1 - p = 1 / (1 + exp(2 u)) above it, so no
    node rounds onto p = 1.  The smaller of p and q is formed as
    1 / (1 + exp(2 |u|)), and is 1.2e-16 at the end nodes.
    """
    n, top = round(_RULE_END / _RULE_STEPS[-1]), 1 << (len(_RULE_STEPS) - 1)
    j = np.arange(-n, n + 1)
    # node j's level, the coarsest step that holds it, is log2(8 / gcd(j, 8))
    level = np.log2(top // np.gcd(j, top))
    j = np.concatenate([[-n, n], j[np.argsort(level, kind="stable")]])
    t = j * _RULE_STEPS[-1]
    two_u = np.pi * np.abs(np.sinh(t))
    tail = 1.0 / (1.0 + np.exp(two_u))  # min(p, 1 - p)
    log_tail = -np.logaddexp(0.0, two_u)
    log_w = math.log(math.pi) + np.log(np.cosh(t)) + log_tail + np.log1p(-tail)
    log_w[:2] = log_tail[:2]
    tau = np.empty(t.size)
    lower = t <= 0.0
    tau[lower] = h.quantile(tail[lower])
    tau[~lower] = h.upper_quantile(tail[~lower])
    for v in (tau, log_w):
        v.flags.writeable = False
    return tau, log_w


def _rule_sums(stats: tuple, log_w: np.ndarray, starts, delta_values: np.ndarray) -> np.ndarray:
    """log of the sum over nodes j of w_j L(tau_j, delta) on each segment of
    nodes beginning at ``starts``, for each delta: shape (segments, deltas).

    ``stats`` are the nodes' :func:`~bmameta.core.random_stats` and
    ``log_w`` their log weights.  Each weight is folded into its node's c,
    so a (node x delta) cell is one :func:`~bmameta.core.loglik_from_stats`
    term.  The deltas run in blocks of at most
    :data:`~bmameta.quadrature._BLOCK_CELLS` cells, and each delta's terms
    are summed after a shift by its largest, so no cell under- or
    overflows; a delta's sums do not depend on the others in its block.
    """
    c, mu, s0 = stats
    node_stats = ((c - 2.0 * log_w)[:, None], mu[:, None], s0[:, None])
    out = np.empty((len(starts), delta_values.size))
    step = max(1, _BLOCK_CELLS // log_w.size)
    for i in range(0, delta_values.size, step):
        block = slice(i, i + step)
        f = loglik_from_stats(node_stats, delta_values[block])
        peak = np.max(f, axis=0)
        shift = np.where(np.isfinite(peak), peak, 0.0)
        np.exp(np.subtract(f, shift, out=f), out=f)
        with np.errstate(divide="ignore"):  # a delta whose terms all vanish: -inf
            out[:, block] = np.log(np.add.reduceat(f, starts, axis=0)) + shift
    return out


def _tau_part(h: PriorSpec, comparison: Comparison, rel_tol: float):
    """``f(delta_values)``: the log of the likelihood integrated over the tau
    prior ``h`` at each delta (the likelihood itself at a point tau).

    A free tau is integrated in p = H(tau), the prior's CDF:
    integral of h(tau) L(tau, delta) d tau = integral over (0, 1) of
    L(H^-1(p), delta) dp, whose integrand is bounded, L(0, delta) at p = 0
    and 0 as p -> 1, and which needs no prior density.  It takes the
    nested tanh-sinh rule of :func:`_tau_rule`, with the tau statistics of
    its nodes from one :func:`~bmameta.core.random_stats` call, and every
    delta an owner of the rule's (node x delta) cells (:func:`_rule_sums`).
    A delta is accepted when two successive levels agree within
    ``rel_tol``: first levels 2 and 3 (253 nodes); the deltas that
    disagree also take level 4's 252 nodes, and are accepted when levels
    3 and 4 agree.  It must also pass the tail check: the two dropped end
    pieces, p times L at the first node plus (1 - p) times L at the last,
    are at most ``rel_tol`` of its value, which catches a tail cut that
    the level check cannot see.  Accepted deltas take the finest level's
    value.

    If any delta is not accepted, the call takes the adaptive path
    (:func:`_tau_kronrod`) for all of them, and returns its bits unchanged.
    """
    if h.is_point:
        return lambda d: loglik_random(d, h.params[0], comparison)
    tau, log_w = _tau_rule(h)
    stats = random_stats(tau, comparison)
    coarse, fine = slice(0, _RULE_CUTS[-2]), slice(_RULE_CUTS[-2], None)
    log_steps = np.log(_RULE_STEPS)

    def integrals(delta_values: np.ndarray) -> np.ndarray:
        parts = _rule_sums(tuple(v[coarse] for v in stats), log_w[coarse],
                           (0,) + _RULE_CUTS[:-2], delta_values)
        ends = parts[0]
        # the log sums of levels 1 to 3, each times its step
        levels = np.logaddexp.accumulate(parts[1:], axis=0) + log_steps[:3, None]
        value = levels[2]
        with np.errstate(invalid="ignore"):  # inf - inf never agrees
            ok = np.abs(value - levels[1]) <= rel_tol
            if not ok.all():
                redo = ~ok
                last = _rule_sums(tuple(v[fine] for v in stats), log_w[fine], (0,), delta_values[redo])[0]
                finest = np.logaddexp(value[redo] - log_steps[2], last) + log_steps[3]
                ok[redo] = np.abs(finest - value[redo]) <= rel_tol
                value[redo] = finest
            ok &= ends - value <= math.log(rel_tol)
        if ok.all():
            return value
        return _tau_kronrod(h, comparison, rel_tol, delta_values)

    return integrals


def _tau_kronrod(h: PriorSpec, comparison: Comparison, rel_tol: float, delta_values: np.ndarray) -> np.ndarray:
    """The adaptive path of :func:`_tau_part` at a free tau: one
    :func:`~bmameta.quadrature.log_quad_batch` group over the prior's
    bounds with one owner per delta.  Every owner has the same tau range
    and seeds, so they share one partition, and the integrand computes the
    tau-only terms once per node and broadcasts them against all delta
    values."""
    bounds = np.array([_prior_bounds(h)])
    seeds = _tau_seeds([h], comparison)

    def logf(_grp, t):
        stats = tuple(v[..., None] for v in random_stats(t, comparison))
        out = loglik_from_stats(stats, delta_values)
        out += h.log_pdf(t)[..., None]
        return out

    return log_quad_batch(logf, bounds, n_owners=delta_values.size, seeds=seeds, rel_tol=rel_tol)[0]


# --------------------------------------------------------------------------
# Grid posteriors
# --------------------------------------------------------------------------


def _log_posterior_on(model, comparison, parameter, xs, rel_tol):
    """Unnormalized log posterior of one free parameter at points ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if parameter == "delta":
        return _tau_part(model.tau_prior, comparison, rel_tol * 0.1)(xs) + model.delta_prior.log_pdf(xs)
    delta_part = _delta_part(model.delta_prior, rel_tol * 0.1)
    return delta_part(random_stats(xs, comparison)) + model.tau_prior.log_pdf(xs)


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


def _trapz_weights(h: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights of the nodes of a grid with spacings ``h``."""
    w = np.zeros(h.size + 1)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def _log_trapz(log_y: np.ndarray, x: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        vals = log_y + np.log(_trapz_weights(np.diff(x)))
    m = np.max(vals)
    if not np.isfinite(m):
        return -np.inf
    return float(m + np.log(np.sum(np.exp(vals - m))))


@lru_cache(maxsize=1024)
def _prior_probe(prior: PriorSpec) -> np.ndarray:
    """41 probe points of a prior: its quantiles from 1e-4 to 1 - 1e-4
    (a uniform prior's range, evenly)."""
    if prior.family == "uniform":
        out = np.linspace(*prior.params, 41)
    else:
        out = np.asarray(prior.quantile(np.linspace(1e-4, 1.0 - 1e-4, 41)))
    out.flags.writeable = False
    return out


def _mass_region(model, comparison, parameter, prior, rel_tol):
    """Bracket the parameter region holding all posterior mass above exp(-40).

    Probing needs only coarse integral accuracy, so it runs at a loose
    tolerance; probe quantiles stop at 1e-4 tail mass (the shrink loop
    expands past a gap rather than truncating inside one, so this never
    cuts the region short).
    """
    lo, hi = _prior_bounds(prior)
    probe = [_prior_probe(prior)]
    _, wm, s0 = random_stats(0.0, comparison)  # the fixed-effect estimate and precision
    wse = 1.0 / math.sqrt(s0)
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

    n = _GRID_POINTS
    for _ in range(2):
        grid = np.linspace(left, right, n)
        logpost = _log_posterior_on(model, comparison, parameter, grid, rel_tol)
        log_total = _log_trapz(logpost, grid)
        excess = log_total - logml  # math.expm1 overflows past ~709.78
        mismatch = math.expm1(excess) if excess < 709.0 else math.inf
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
    """Moments and central-interval quantiles of a density known on a grid;
    the quantiles interpolate its cumulative-trapezoid CDF."""
    h = np.diff(x)
    w = _trapz_weights(h)
    mass = float(np.sum(w * pdf))
    pdf = pdf / mass
    mean = float(np.sum(w * pdf * x))
    var = float(np.sum(w * pdf * (x - mean) ** 2))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * h * (pdf[:-1] + pdf[1:]))])
    q = np.interp([0.025, 0.5, 0.975], cdf / cdf[-1], x)
    return PosteriorSummary(
        mean=mean, median=float(q[1]), sd=math.sqrt(max(var, 0.0)),
        ci_lower=float(q[0]), ci_upper=float(q[2]),
        grid_x=x, grid_pdf=pdf,
    )

