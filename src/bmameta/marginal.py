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
posterior's kernel.  The free-tau log marginals and the delta-posterior
pass take one fixed rule over tau; only the adaptive lambda rows of a t
prior run through the log-space adaptive Gauss-Kronrod integrator
:func:`bmameta.quadrature.log_quad_batch`.

The free-tau log marginals (:func:`_free_tau_log_marginals`) integrate
over the full support of the tau prior on one rule, with no cut: the
exp-sinh rule for (0, inf) (Takahasi & Mori 1974) centred at the
comparison's data scale, or, for a uniform tau prior, the tanh-sinh rule
on its interval (:func:`_ml_nodes`).  Nested levels of 71 to 561 nodes,
and 1121 in the second stage; a group is accepted when two successive
levels agree and the rule's end pieces are within the tolerance (Bailey,
Jeyabalan & Li 2005): the upper one, which the rule drops, and the error
of the lower one, which it adds from the tau prior's CDF
(:func:`_end_pieces`).  A group that the first stage does not accept is
recentred on its own posterior (:func:`_rule_log_marginals`,
:func:`_recentred`).
The nodes do not depend on the prior, so :func:`chunk_log_marginals`
computes the tau statistics once per comparison and node set, each delta
prior's part once for the whole chunk, and each (comparison, delta prior,
tau prior) group adds only its tau prior's log density and the log
weights.  A group's nodes, skip set and sums depend on the group alone,
so a row does not depend on its chunk: a chunk of one comparison gives,
bit for bit, that comparison's row, and :func:`log_marginal` is the case
of one model and one comparison.  :func:`chunk_size` sizes chunks from
the models alone; the corpus passes of
:func:`bmameta.averaging.corpus_log_marginals` are the only callers that
cut chunks.

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
  A t prior of nu = 1 is this Cauchy, with the same bits.
* t(m, s, nu): a gamma scale mixture of normals, t_nu(m, s) = integral
  of N(m, s**2 / lambda) Ga(lambda; nu / 2, rate nu / 2) d lambda, so the
  delta part is the log integral of exp(conj(s**2 / lambda)) against that
  gamma density (:class:`_Mixture`).  Each owner (tau value) takes the
  first of three rules that accepts it:

  1. for nu = 3 or 5, the Voigt profile extended by w's first nu // 2
     derivatives (:func:`_voigt`, z = (mu - m + i s sqrt(nu)) sqrt(S0 / 2)),
     accepted where |z| <= 3 and the value is finite; past that its terms
     cancel.  No lambda nodes.
  2. where V / s**2 is below 0.3, a generalized Gauss-Laguerre rule with
     weight lambda**(a - 1/2) e**(-b lambda), a = nu / 2, whose rate b = a
     + (mu - m)**2 / (2 (V + s**2)) follows the data (:func:`_laguerre`, by
     Golub & Welsch 1969), evaluated at 12 and 18 nodes and accepted when
     the two agree within the inner tolerance.
  3. the adaptive integral over u = log(lambda), in lambda rows whose
     owners share a partition, seeded at the logs of seven mixing-prior
     quantiles (:class:`_Mixing`), whose log density is written K(nu / 2)
     - (nu / 2) (expm1(u) - u) so that a large nu cancels no terms of size
     nu.  On data within a few prior scales of the location, such a row
     converges on the 8 intervals those seeds make, with no bisection
     round.  Its only cut is in lambda: the lower limit, set from the
     data's distance to the prior's location and the likelihood's
     variance, drops at most 1e-16 of the integral, the upper limit 1e-30
     of the mixing prior's mass.

  Even and fitted (non-integer) nu start at rule 2.  A call's owners that
  reach rule 3 form one lambda row per row of its statistics; on the
  free-tau rule they form rows of up to 16 nodes
  (:meth:`_Mixture.rule_values`), after a skip that needs no lambda work,
  since the delta part is at most exp(-c / 2).  The narrow likelihood
  peak in delta is integrated in closed form, so delta has no bounds and
  the integrand is smooth in lambda.
* uniform(a, b) and halfnormal(s): the likelihood's normal shape cut to
  an interval, closed (:func:`_uniform`, :func:`_halfnormal`) in a log
  difference of normal CDFs formed away from mu (:func:`_log_ndtr_diff`).

No delta part cuts the delta range or refines a quadrature over delta;
:class:`ModelSpec` rejects gamma and invgamma delta priors.  The grid
posteriors (:func:`posterior_summary`) still stop at the prior's 1e-12
quantiles (:func:`_prior_bounds`) for every family.

The integrated forms leave the likelihood's constant -c / 2 out of the
integrand and add it afterwards, so no node carries the rounding of c,
which grows with the data's spread over se.  The tau statistics of an
inner integral are computed once per owner tau and broadcast or gathered
to the nodes; no inner node meets the study axis.  The prior constants
(bounds, mixing limits and seeds) are computed once per distinct prior.

The likelihood's tau-only terms (log det, mu, S0 and the centred sum of
squares of the variances se**2 + tau**2) are computed once per tau node
(:func:`bmameta.core.random_stats`), and every delta part reads them: the
parts take these statistics, not tau values, so the point-tau models of
a call share one such computation and the free-tau rule one per
comparison and node set.

The tau part at a free tau (the delta-posterior pass, :func:`_tau_part`)
takes the log marginals' own rule and checks, with each delta a group
whose delta part is the likelihood at that point delta: the nodes'
statistics come from one ``random_stats`` call per pass, each node's log
weight and prior density are folded into its c, and only the O(1)
quadratic form in delta is formed per (node, delta) cell (:func:`_rule_sums`,
:func:`bmameta.core.loglik_from_stats`).  A delta that stage one does not
accept is recentred as a log marginal's group is (:func:`_recentred`);
there is no adaptive fallback, and no tau integral cuts the prior's tails.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammainccinv, gammaincinv, log_ndtr, logsumexp, wofz

from .core import _LOG_2PI, Comparison, loglik_from_stats, loglik_random, random_stats
from .errors import ConvergenceError, DomainError, ParameterError, UnsupportedOperationError
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
# Gauss-Laguerre rules of these node counts (:class:`_Mixture`).
_LAGUERRE_R = 0.3
_LAGUERRE_NODES = (12, 18)
# A t delta prior of odd nu = 2 n + 1 = 3 or 5 first takes the closed form of
# :func:`_voigt`, with the coefficients _VOIGT_B[n], at each owner with
# |z| <= _VOIGT_Z0, where 40-digit mpmath puts its error within 3.2e-13
# max(1, |value|); past that its terms cancel (:class:`_Mixture`).
_VOIGT_B = ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0 / 3.0))
_VOIGT_Z0 = 3.0
# The free-tau log marginal's rule (:func:`_ml_nodes`): t runs over
# [-_ML_END, _ML_END] at the steps _ML_STEPS, and each level's nodes end at
# _ML_CUTS in the rule's arrays; stage one takes the first four levels.  A t
# delta prior's lambda rows there are blocks of _ROW_NODES nodes consecutive
# in t.
_ML_END = 3.5
_ML_STEPS = (0.1, 0.05, 0.025, 0.0125, 0.00625)
_ML_CUTS = (0, 71, 141, 281, 561, 1121)
_ROW_NODES = 16
# The nodes whose delta parts :func:`_end_pieces` reads: the rule's first two
# in t and its last (t = -_ML_END, the next, and t = +_ML_END)
_END_NODES = [0, 1, _ML_CUTS[1] - 1]
# A t delta prior's node is skipped for a group where it can add at most
# rel_tol _SKIP / 561 of the group's total (561 the nodes of stage one),
# rel_tol the delta part's (a tenth of the log marginal's;
# :meth:`_Mixture.rule_values`).
_SKIP = 1e-3
# (group x node) cells of the first rule pass of one chunk of comparisons
# (:func:`chunk_size`)
_CHUNK_NODE_CELLS = 1 << 15
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
    These fields serve the adaptive path of :class:`_Mixture`, which takes
    every owner that neither the closed form of nu = 3 and 5 (:func:`_voigt`)
    nor the Gauss-Laguerre rules (:func:`_laguerre`) accept: owners with a
    likelihood variance of 0.3 prior variances or more, or whose 12- and
    18-node values disagree, where the closed form does not hold.
    ``upper`` is the log of the upper lambda limit and
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


def _data_scale(comparison: Comparison) -> float:
    """The effects' standard deviation, floored at a quarter of the smallest
    se (the smallest se itself for one study): the centre of the free-tau
    rule (:func:`_ml_nodes`) for every tau prior but the uniform."""
    y, se = comparison._canonical
    se_min = float(np.min(se))
    with np.errstate(over="ignore"):  # an infinite scale gives a zero likelihood
        sd_y = float(np.std(y)) if comparison.k > 1 else se_min
    return max(sd_y, 0.25 * se_min)


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
    model for the whole chunk.  The free-tau models are the groups of the
    free-tau rule (:func:`_free_tau_log_marginals`), one group per
    (comparison, delta prior, tau prior) triple.  A group's value depends
    on the group alone, so a row does not depend on the other comparisons
    or models: it equals, bit for bit, the row of a chunk of one.  But a
    group the rule does not accept fails the whole chunk, and the t
    priors' adaptive lambda rows of a chunk share the integrator's cell
    cap, so a chunk can fail where one comparison alone would not; callers
    rerun a failed chunk one comparison at a time.
    """
    out = np.empty((len(comparisons), len(models)))
    point = [i for i, model in enumerate(models) if not model.tau_free]
    if point:
        values, row = np.unique([models[i].tau_prior.params[0] for i in point], return_inverse=True)
        # a row per comparison, a column per point tau value
        stats = _stacked_stats([values] * len(comparisons), comparisons)
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

    As many comparisons as keep a chunk's first pass of the free-tau rule
    within _CHUNK_NODE_CELLS (group x node) cells, counted as the free-tau
    (delta prior, tau prior) pairs times the rule's 281 nodes of levels 1
    to 3; at least one.  The count depends on the models alone, never on
    the data.

    A chunk saves the per-call cost of the rule, the delta parts and the
    lambda rules once per comparison.  Its memory grows with its size, but
    the rule's arrays are small: at 1 << 15 cells the 20-member candidate
    ensemble runs in chunks of 7 and its 12 ``random_H1`` members in chunks
    of 9, so a seeded five-comparison ``rank`` sweep is one chunk per mode.
    """
    pairs = {(m.delta_prior, m.tau_prior) for m in models if m.tau_free}
    return max(1, _CHUNK_NODE_CELLS // max(1, len(pairs) * _ML_CUTS[3]))


def _free_tau_log_marginals(models, comparisons, rel_tol):
    """Log marginals of free-tau ``models`` on each of ``comparisons``, shape
    (comparisons, models), on the free-tau rule (:func:`_rule_log_marginals`),
    one group per (comparison, delta prior, tau prior) triple.

    A uniform tau prior's nodes lie on its interval, the same for every
    comparison; every other tau prior shares its comparison's nodes,
    centred at the comparison's data scale (:func:`_data_scale`).  So one
    node set serves all the non-uniform tau priors of a comparison, with
    one delta part per delta prior.
    """
    pairs = _first_seen((m.delta_prior, m.tau_prior) for m in models)
    deltas = _first_seen(g for g, _ in pairs)
    parts = [_delta_part(g, rel_tol * 0.1) for g in deltas]
    out = np.empty((len(comparisons), len(pairs)))
    centres = np.log([_data_scale(c) for c in comparisons])
    node_set = lambda h: h if h.family == "uniform" else None
    for key in _first_seen(node_set(h) for _, h in pairs):
        cols = [j for j, (_, h) in enumerate(pairs) if node_set(h) == key]
        members = [(deltas[g], h) for g, h in pairs if node_set(h) == key]
        z0 = centres if key is None else np.zeros(len(comparisons))
        out[:, cols] = _rule_log_marginals(key, z0, comparisons, members, parts, rel_tol)
    return out[:, [pairs[m.delta_prior, m.tau_prior] for m in models]]


def _rule_log_marginals(key, z0, comparisons, members, parts, rel_tol) -> np.ndarray:
    """Log marginals on one node set of the free-tau rule, shape
    (comparisons, members); ``members`` are (delta part index, tau prior)
    pairs, ``key`` the node set's uniform tau prior or None, and ``z0``
    each comparison's centre in z (:func:`_ml_nodes`).

    Stage one takes levels 1 to 3 (281 nodes) for every group.  Each
    level's value includes the lower end piece L(tau_min) H(tau_min), with
    H the tau prior's CDF and L the delta part, and a group is accepted when
    levels 2 and 3 agree within ``rel_tol`` and the upper end piece
    L(tau_max) (1 - H(tau_max)) plus the lower one's error are within
    ``rel_tol`` of its value (:func:`_end_pieces`, :func:`_accepted`).  The
    groups it does not accept add level 4's 280 nodes, from one more
    ``random_stats`` call per comparison, and are accepted when levels 3
    and 4 agree.  The rest go to
    stage two (:func:`_recentred`).  Each group's nodes, skip set and sums
    depend on the group alone, so its value has the same bits in any chunk
    and beside any other models.
    """
    n, p = len(comparisons), len(members)
    comp = np.repeat(np.arange(n), p)
    delta_of = np.tile([g for g, _ in members], n)
    z, tau, log_w = _ml_nodes(key, z0, np.ones(n), _ML_CUTS[4])
    # once per distinct tau prior, gathered to (comparison, member)-major
    # rows, as ``comp`` and ``delta_of``
    priors = _first_seen(h for _, h in members)
    of = [priors[h] for _, h in members]
    log_b = np.stack([_log_weighted_prior(h, tau, log_w) for h in priors], axis=1)[:, of].reshape(n * p, -1)
    log_ends = np.stack([_log_end_masses(h, tau) for h in priors], axis=1)[:, of].reshape(n * p, 2)
    cut, order = _ML_CUTS[3], _ml_rule()[2]
    stats = _stacked_stats(tau[:, :cut], comparisons)
    f, e = _rule_terms(parts, stats, comp, delta_of, log_b[:, :cut], np.full(n * p, -np.inf), order[0])
    sums = _level_sums(f, _ML_CUTS[:3])
    low, ends = _end_pieces(f[:, 0], e[:, _END_NODES], log_ends, tau[:, :2][comp], _lower_end(key))
    levels = _level_values(sums, f[:, 0], _ML_STEPS[:3], low)
    value = levels[:, 2]
    ok = _accepted(levels[:, 1], value, ends, rel_tol)
    redo = np.flatnonzero(~ok)
    if redo.size:
        need, back = np.unique(comp[redo], return_inverse=True)
        stats = _stacked_stats(tau[need, cut:], [comparisons[i] for i in need])
        f4, _ = _rule_terms(parts, stats, back, delta_of[redo], log_b[redo, cut:], sums[redo, 2], order[1])
        finest = np.logaddexp(sums[redo, 2], _level_sums(f4, (0,))[:, 0])
        finest = _level_values(finest[:, None], f[redo, 0], _ML_STEPS[3:4], low[redo])[:, 0]
        ok[redo] = _accepted(value[redo], finest, ends[redo], rel_tol)
        value[redo] = finest
        again = ~ok[redo]
        if again.any():
            q = redo[again]

            def terms(groups, stats, log_b, known, order):
                return _rule_terms(parts, stats, np.arange(groups.size), delta_of[q[groups]], log_b, known, order)

            value[q] = _recentred(key, z[comp[q]], np.concatenate([f[q], f4[again]], axis=1), value[q],
                                  e[q][:, _END_NODES[::2]], [comparisons[i] for i in comp[q]],
                                  [members[j % p][1] for j in q], terms, rel_tol)
    return value.reshape(n, p)


def _recentred(key, z, f, value, e_ends, comparisons, taus, terms, rel_tol) -> np.ndarray:
    """Stage two of the free-tau rule for the groups stage one rejects.

    Each group's rule is recentred at the mean of z under its level-4
    terms ``f`` (at nodes ``z``): the posterior mean of log tau, or of z
    for a uniform tau prior.  Sigma is the largest of that posterior's sd;
    the node spacing at its heaviest node, for a posterior narrower than
    stage one's nodes; and the sigma whose range reaches the prior masses
    beyond which stage one's end pieces (its delta parts ``e_ends`` at its
    end nodes times those masses) fall to _SKIP ``rel_tol`` of its
    ``value``.  The last is for a prior with mass near 0 that stage one
    cannot reach: a gamma prior of shape below 1, whose mass there decays
    only as tau**shape.  Three sds, which such a long tail inflates, left
    the posterior's sharp side between the nodes for shapes up to 0.5 on
    the seeded bench comparisons.  A wide reach in turn spaces the nodes
    out at the posterior's sharp side, so stage two has a fifth level.

    The five levels (1121 nodes) run in three passes, as stage one's do:
    levels 1 to 3 (281 nodes) for every group, accepted when levels 2 and
    3 agree; then level 4 (280 nodes) for the rest, accepted when levels 3
    and 4 agree; then level 5 (560 nodes), when levels 4 and 5 agree.  Each
    pass takes one ``random_stats`` call per comparison, and a group's value
    is the finer level of the pair that agrees.  A group that is still not
    accepted raises :class:`ConvergenceError` with the tolerance it
    reached.  On the seeded bench comparisons gamma tau priors of shape 0.1
    and above are accepted, and about half of those of shape 0.05.

    ``terms(groups, stats, log_b, known, order)`` gives the ``(f, e)`` of
    :func:`_rule_terms` at one pass's nodes for ``groups``, the indices of
    the groups still pending, from their node statistics ``stats`` (a row
    per group) and their log prior densities plus log weights ``log_b``.
    """
    weight = np.exp(f - np.max(f, axis=1, keepdims=True))
    weight /= np.sum(weight, axis=1, keepdims=True)
    mean = np.sum(weight * z, axis=1)
    sd = np.sqrt(np.sum(weight * (z - mean[:, None]) ** 2, axis=1))
    # a posterior narrower than the nodes puts its weight on one node, whose
    # spacing then stands in for sigma
    u, log_du, orders = _ml_rule()
    spacing = _ML_STEPS[3] * np.exp(log_du[np.argmax(f, axis=1)])
    reach = np.empty(e_ends.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        masses = rel_tol * _SKIP * np.exp(value[:, None] - e_ends)
        for h, rows in _rows_by(taus).items():
            reach[rows] = _z_of_masses(key, h, masses[rows])
        need = np.fmax(mean - reach[:, 0], reach[:, 1] - mean) / u.max()
    sigma = np.fmax(np.fmax(sd, spacing), need)
    # the log sums of levels 1 to 5, filled pass by pass for the groups not
    # yet accepted
    sums = np.full((value.size, 5), -np.inf)
    out, pending = np.empty(value.size), np.arange(value.size)
    for p, (start, end) in enumerate(zip((0,) + _ML_CUTS[3:5], _ML_CUTS[3:])):
        _, tau, log_w = _ml_nodes(key, mean[pending], sigma[pending], end, start)
        by_prior = _rows_by([taus[i] for i in pending]).items()
        log_b = np.empty(tau.shape)
        for h, rows in by_prior:
            log_b[rows] = _log_weighted_prior(h, tau[rows], log_w[rows])
        stats = _stacked_stats(tau, [comparisons[i] for i in pending])
        known = sums[pending, p + 1] if p else np.full(pending.size, -np.inf)
        f, e = terms(pending, stats, log_b, known, orders[p])
        if p:
            sums[pending, p + 2] = np.logaddexp(known, _level_sums(f, (0,))[:, 0])
        else:
            log_ends = np.empty(e_ends.shape)
            for h, rows in by_prior:
                log_ends[rows] = _log_end_masses(h, tau[rows])
            first = f[:, 0]
            low, ends = _end_pieces(first, e[:, _END_NODES], log_ends, tau[:, :2], _lower_end(key))
            sums[:, :3] = _level_sums(f, _ML_CUTS[:3])
        levels = _level_values(sums[pending, :p + 3], first[pending], _ML_STEPS[:p + 3], low[pending])
        ok = _accepted(levels[:, p + 1], levels[:, p + 2], ends[pending], rel_tol)
        out[pending[ok]] = levels[ok, p + 2]
        pending = pending[~ok]
        if not pending.size:
            return out
    i, row = pending[0], levels[~ok][0]
    with np.errstate(invalid="ignore", over="ignore"):
        reached = max(np.min(np.abs(np.diff(row[1:]))), math.exp(min(ends[i] - row[4], 709.0)))
    raise ConvergenceError(
        f"the tau rule reached a relative tolerance of {reached:.3g}, above {rel_tol:g}, "
        f"under tau prior {taus[i]}", bracket=(float(row[4]), float(row[4] + math.log(reached))))


@lru_cache(maxsize=2)
def _level_order(n: int, levels: int) -> np.ndarray:
    """The integers j = -n to n in order of level, for ``levels`` nested
    levels: j is a node of the rule of step 2**(levels - 1) (level 1), then
    of each half step down to 1, each level's new nodes in increasing j.
    Node j's level, the coarsest step that holds it, is log2(top / gcd(j,
    top)) with top = 2**(levels - 1)."""
    top = 1 << (levels - 1)
    j = np.arange(-n, n + 1)
    level = np.log2(top // np.gcd(j, top))
    j = j[np.argsort(level, kind="stable")]
    j.flags.writeable = False
    return j


@lru_cache(maxsize=1)
def _ml_rule() -> tuple:
    """The free-tau rule's unit nodes: ``(u, log du/dt, orders)`` with
    u = (pi / 2) sinh(t) at t = j _ML_STEPS[-1] over [-_ML_END, _ML_END]
    in level order (:func:`_level_order`; levels end at _ML_CUTS), and the
    orders in increasing t of the nodes of the rule's three passes: levels
    1 to 3, level 4 and level 5.  Each node's t is the same float at every
    step that holds it, since halving a step is exact."""
    t = _level_order(round(_ML_END / _ML_STEPS[-1]), len(_ML_STEPS)) * _ML_STEPS[-1]
    u = 0.5 * math.pi * np.sinh(t)
    log_du = math.log(0.5 * math.pi) + np.log(np.cosh(t))
    cut, end = _ML_CUTS[3:5]
    orders = (np.argsort(t[:cut]), np.argsort(t[cut:end]), np.argsort(t[end:]))
    for v in (u, log_du, *orders):
        v.flags.writeable = False
    return u, log_du, orders


def _ml_nodes(key: Optional[PriorSpec], z0: np.ndarray, sigma: np.ndarray, nodes: int, start: int = 0) -> tuple:
    """``(z, tau, log_w)`` of the free-tau rule's nodes from ``start`` up to
    ``nodes``, a row per entry of ``z0`` and ``sigma``: the nodes
    z = z0 + sigma u (:func:`_ml_rule`), their tau and log(d tau / d t).

    For ``key`` None tau = exp(z), the exp-sinh rule for (0, inf)
    (Takahasi & Mori 1974); stage one centres it at the data scale s, so
    tau = s exp((pi / 2) sinh t) runs from s 5e-12 to s 2e11.  For a
    uniform(a, b) ``key`` tau = a + (b - a) p with p = 1 / (1 + exp(-2 z)),
    the tanh-sinh rule on [a, b], and its distance to the nearer end is
    formed as (b - a) / (1 + exp(2 |z|)), so no node rounds onto b.
    """
    u, log_du, _ = _ml_rule()
    z = z0[:, None] + sigma[:, None] * u[start:nodes]
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite centre: a zero likelihood
        log_w = log_du[start:nodes] + np.log(sigma)[:, None]
        if key is None:
            return z, np.exp(z), log_w + z
        a, b = key.params
        tail = 1.0 / (1.0 + np.exp(2.0 * np.abs(z)))
        tau = np.where(z <= 0.0, a + (b - a) * tail, b - (b - a) * tail)
        log_w += math.log(2.0 * (b - a)) - np.logaddexp(0.0, 2.0 * z) - np.logaddexp(0.0, -2.0 * z)
    return z, tau, log_w


def _z_of_masses(key: Optional[PriorSpec], h: PriorSpec, masses: np.ndarray) -> np.ndarray:
    """The z (:func:`_ml_nodes`) below which the prior ``h`` has mass
    ``masses[:, 0]`` and above which it has ``masses[:, 1]``, a row per row
    of ``masses``; NaN for a mass outside (0, 1) or a z out of range.  The
    quantiles take one call per column; the logs are ``math``'s, element by
    element, which numpy's vector logs do not match bit for bit."""
    out = np.full(masses.shape, np.nan)
    inside = (0.0 < masses) & (masses < 1.0)
    if key is not None:  # uniform: H(tau) = p, and z is half its logit
        out[inside] = [0.5 * (math.log(m) - math.log1p(-m)) for m in masses[inside]]
        out[:, 1] *= -1.0
        return out
    tau = np.full(masses.shape, np.nan)
    for j, quantile in enumerate((h.quantile, h.upper_quantile)):
        rows = inside[:, j]
        if rows.any():
            tau[rows, j] = quantile(masses[rows, j])
    inside &= (0.0 < tau) & (tau < math.inf)
    out[inside] = [math.log(t) for t in tau[inside]]
    return out


def _log_weighted_prior(h: PriorSpec, tau: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """log h(tau) + log_w at the nodes, -inf at a node that is 0 or infinite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = h.log_pdf(tau) + log_w
    return np.where((tau > 0.0) & (tau < np.inf), out, -np.inf)


def _log_end_masses(h: PriorSpec, tau: np.ndarray) -> np.ndarray:
    """log H(tau_min) and log(1 - H(tau_max)), a row per row of ``tau``,
    at the rule's first and last node in t (t = -_ML_END and +_ML_END, the
    first and last node of level 1)."""
    mass = h.cdf(tau[:, [0, _ML_CUTS[1] - 1]])
    with np.errstate(divide="ignore"):
        return np.stack([np.log(mass[:, 0]), np.log1p(-mass[:, 1])], axis=1)


def _lower_end(key: Optional[PriorSpec]) -> float:
    """The lower end of the tau support of a node set (:func:`_ml_nodes`):
    0, or a uniform ``key``'s lower bound."""
    return 0.0 if key is None else key.params[0]


def _end_pieces(first: np.ndarray, e: np.ndarray, log_ends: np.ndarray, tau: np.ndarray, lo: float) -> tuple:
    """``(low, ends)``, the logs of each group's lower end piece and of what
    bounds the error its end pieces leave, from its term at the rule's first
    node in t, ``first``, its delta parts (or their bounds) ``e`` at the
    first two nodes in t and the last (:data:`_END_NODES`),
    :func:`_log_end_masses`, and the rule's first two nodes in t, ``tau`` (a
    row per group, or one row for all), over a support that starts at ``lo``.

    The lower piece, L(tau_min) H(tau_min), is part of every level's value.
    L depends on tau only through se**2 + tau**2, so below tau_min it moves
    by about its slope in x = tau**2 between the first two nodes: the
    piece's error is about |L(tau_1) - L(tau_min)| H(tau_min) (x_min -
    lo**2) / (x_1 - x_min).  ``ends`` adds to that error the upper piece,
    L(tau_max) (1 - H(tau_max)), which the rule drops; and where the first
    node is skipped (or its term vanishes) its lower piece at the bound
    ``e``, which is then dropped instead of added.
    """
    piece = e[:, 0] + log_ends[:, 0]
    low = np.where(first > -np.inf, piece, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = e[:, 1] - e[:, 0]
        # log |expm1(d)|, formed so that a steep rise does not overflow
        log_change = np.where(d > 0.0, d + np.log(-np.expm1(-d)), np.log(-np.expm1(d)))
        t0, t1 = tau[:, 0], tau[:, 1]
        log_x = np.log(t0 - lo) + np.log(t0 + lo) - np.log(t1 - t0) - np.log(t1 + t0)
        error = np.where(low > -np.inf, low + log_change + log_x, -np.inf)
    upper = e[:, 2] + log_ends[:, 1]
    return low, np.logaddexp(np.logaddexp(upper, error), np.where(first > -np.inf, -np.inf, piece))


def _level_values(sums: np.ndarray, first: np.ndarray, steps, low: np.ndarray) -> np.ndarray:
    """Each group's value at each level from the log of its level sums
    ``sums`` (a column per level of ``steps``), its first term in t,
    ``first``, and its lower end piece ``low`` (:func:`_end_pieces`): the
    trapezoidal rule from tau_min up, whose first node takes half its
    weight, plus the piece below tau_min.  Where the integrand has decayed
    at tau_min the half weight and the piece change nothing; where it has
    not, the pair leaves an error of order step**2, and a full weight
    there would leave one of order step."""
    with np.errstate(invalid="ignore"):  # a group whose terms all vanish
        trap = sums + np.log1p(-0.5 * np.exp(first[:, None] - sums))
    trap = np.where(first[:, None] > -np.inf, trap, sums)
    return np.logaddexp(trap + np.log(steps), low[:, None])


def _accepted(coarse: np.ndarray, fine: np.ndarray, ends: np.ndarray, rel_tol: float) -> np.ndarray:
    """Whether each group's two successive level values agree within
    ``rel_tol`` and its end pieces are within ``rel_tol`` of ``fine``.  A
    group whose terms at the nodes of ``fine`` all vanish is accepted, a
    zero likelihood, and so is a NaN, which :func:`chunk_log_marginals`
    reports."""
    with np.errstate(invalid="ignore"):  # inf - inf never agrees
        ok = (np.abs(fine - coarse) <= rel_tol) & (ends - fine <= math.log(rel_tol))
    return ok | (fine == -np.inf) | np.isnan(fine)


def _stacked_stats(tau: np.ndarray, comparisons) -> tuple:
    """The :func:`~bmameta.core.random_stats` of each row of ``tau`` under
    its comparison, stacked: one call per distinct comparison, for all its
    rows (a value's statistics have the same bits in any batch)."""
    tau = np.asarray(tau, dtype=float)
    out = tuple(np.empty(tau.shape) for _ in range(3))
    for rows in _rows_by([id(c) for c in comparisons]).values():
        for v, part in zip(out, random_stats(tau[rows], comparisons[rows[0]])):
            v[rows] = part
    return out


def _rows_by(keys: list) -> dict:
    """Each distinct key of ``keys`` (:func:`_first_seen`), mapped to the
    indices of its rows."""
    index = _first_seen(keys)
    codes = np.array([index[k] for k in keys])
    return {k: np.flatnonzero(codes == i) for k, i in index.items()}


def _rule_terms(parts, stats, rows, delta_of, log_b, known, order) -> tuple:
    """Each group's log terms at the nodes of one rule pass and its delta
    parts there: ``(f, e)``, shape (groups, nodes).

    ``stats`` has a row of node statistics per comparison, ``rows`` is each
    group's row and ``delta_of`` its delta part's index in ``parts``;
    ``log_b`` is each group's log prior density plus log weight at the
    nodes.  Each delta part runs once, on the rows its groups need; a t
    prior's nodes are skipped per group (:meth:`_Mixture.rule_values`,
    with ``known`` and ``order``).  f is the delta part plus ``log_b``,
    -inf at a skipped node; e is the delta part, or at a skipped node its
    bound -c / 2.
    """
    f, e = np.empty(log_b.shape), np.empty(log_b.shape)
    for j in np.unique(delta_of):
        sel = np.flatnonzero(delta_of == j)
        need, back = np.unique(rows[sel], return_inverse=True)
        sub = tuple(v[need] for v in stats)
        if isinstance(parts[j], _Mixture):
            d, skipped = parts[j].rule_values(sub, back, log_b[sel], known[sel], order)
            e[sel] = np.where(skipped, -0.5 * sub[0][back], d)
        else:
            d = e[sel] = parts[j](sub)[back]
        f[sel] = d + log_b[sel]
    return f, e


def _level_sums(f: np.ndarray, starts) -> np.ndarray:
    """log of the sums of exp(f) over each row's nodes up to the end of each
    of the level segments beginning at ``starts``: shape (rows, segments).
    Each segment is shifted by its largest term, so no term under- or
    overflows and a coarse level keeps its digits beside a far larger fine
    one; a row's sums do not depend on the other rows."""
    peak = np.maximum.reduceat(f, starts, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    sizes = np.diff(np.append(starts, f.shape[1]))
    sums = np.add.reduceat(np.exp(f - np.repeat(shift, sizes, axis=1)), starts, axis=1)
    with np.errstate(divide="ignore"):  # a segment whose terms all vanish: -inf
        return np.logaddexp.accumulate(np.log(sums) + shift, axis=1)


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
    Cauchy prior's (:func:`_voigt`, also a t prior's of nu = 1) and those of
    the uniform and half-normal priors, which cut that shape to an interval;
    they run no quadrature.  Other t priors are gamma scale mixtures of
    normals, so theirs is a 1-D integral of the normal closed form, which
    nu = 3 and 5 skip where :func:`_voigt` holds (:class:`_Mixture`).  A
    point delta is :func:`bmameta.core.loglik_from_stats`, bit for bit
    :func:`bmameta.core.loglik_random`.
    """
    if g.is_point:
        return lambda stats: loglik_from_stats(stats, g.params[0])
    if g.family == "normal":
        m, s = g.params
        return lambda stats: _conjugate(stats, m, s * s)
    if g.family == "cauchy" or (g.family == "t" and g.params[2] == 1.0):
        m, gamma = g.params[:2]
        return lambda stats: _voigt(stats, m, gamma)
    if g.family == "uniform":
        a, b = g.params
        return lambda stats: _uniform(stats, a, b)
    if g.family == "halfnormal":
        (s,) = g.params
        return lambda stats: _halfnormal(stats, s)
    return _Mixture(g, rel_tol)


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


def _voigt(stats: tuple, m: float, a: float, n: int = 0) -> np.ndarray:
    """log of the likelihood integrated over a t(m, a / sqrt(nu), nu) delta
    prior of odd nu = 2 n + 1, n < len(_VOIGT_B), from ``stats = (c, mu, S0)``:
    -c / 2 + log F_n(z) at z = (mu - m + i a) sqrt(S0 / 2), with y = Im z and
    w the Faddeeva function (``scipy.special.wofz``, Poppe & Wijers 1990):

        F_0 = Re w,  F_1 = Re w + y Im w',  F_2 = F_1 - y**2 Re w'' / 3.

    n = 0 is the Cauchy(m, a) prior.  The likelihood is exp(-c / 2) sqrt(2
    pi V) N(delta; mu, V), and a normal convolved with a Cauchy is the Voigt
    profile Re w(z) / sqrt(2 pi V).  In x = (delta - m) sqrt(S0 / 2) a t
    density of odd nu is proportional to (x**2 + y**2)**-(n + 1), and each
    power past the first is -d / d(y**2) of the one before, which turns Re
    w into its y-derivatives, d w / dy = i w'.  In all,
    F_n = Re sum_j b_j (-i y)**j w^(j)(z) with b_0 = 1 and b_{n, j} =
    ((2 n - 1 - j) b_{n-1, j} + b_{n-1, j-1}) / (2 n - 1) (_VOIGT_B); the t
    density's constant cancels against b_0.  The derivatives follow
    Abramowitz & Stegun 7.1.20: w' = -2 z w + 2 i / sqrt(pi) and
    w^(j+1) = -2 z w^(j) - 2 j w^(j-1).

    Re w > 0 for Im z > 0, but it underflows to 0 for data ~1e150 prior
    scales from m; the result is then -inf, without a warning.  For n >= 1
    the terms cancel as |z| grows (:class:`_Mixture` takes the value only
    for |z| <= _VOIGT_Z0), and the sum may round to 0 or below, or overflow,
    which gives -inf or NaN, again without a warning.
    """
    c, mu, s0 = stats
    r = np.sqrt(0.5 * s0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = (mu - m) * r + 1j * (a * r)
        total = w = wofz(z)
        if n:  # the terms j = 1..n, with prev, d = w^(j-1), w^(j)
            power, prev, d = 1.0, w, -2.0 * z * w + 2j / math.sqrt(math.pi)
            for j, b in enumerate(_VOIGT_B[n][1:], 1):
                power = power * (-1j * z.imag)
                total = total + b * power * d
                prev, d = d, -2.0 * z * d - 2.0 * j * prev
        return np.log(total.real) - 0.5 * c


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


class _Mixture:
    """``part(stats)``: the delta part of a t prior ``g`` at the tau values
    whose ``stats = (c, mu, S0)`` are given, as log of the integral over
    lambda of ``_conjugate`` at prior variance s**2 / lambda times the
    gamma mixing density (:class:`_Mixing`).

    Each owner (tau value) takes the first of three rules that accepts it,
    and its value does not depend on the other owners of its rule, except
    in an adaptive lambda row:

    * For nu = 3 and 5, the closed form of :func:`_voigt` (:meth:`closed`),
      accepted where |z| <= _VOIGT_Z0 and the value is finite.  Past that
      its terms cancel: against 40-digit mpmath its error, over max(1,
      |value|), is at most 2.0e-13 (nu = 3) and 3.2e-13 (nu = 5) up to |z|
      = 3, 5.9e-13 and 1.6e-12 up to 3.2, and 4e-11 and 1.6e-10 up to 4,
      worst where the data lie far from m against the prior scale (Im z <<
      Re z).  On the benchmark's seed-1 inputs it leaves 10,752 of the rank
      sweep's 591,360 adaptive lambda cells and 6.9M of the analyze pool's
      16.0M.
    * An owner with r = V / s**2 below _LAGUERRE_R, with V = 1 / S0, takes
      the generalized Gauss-Laguerre rules of :func:`_laguerre`
      (:meth:`laguerre`).  With x = mu - m, a = nu / 2 and D**2 = x**2 /
      s**2, the integrand is lambda**(a - 1/2) e**(-b lambda) times
      (1 + r lambda)**-1/2 exp(q r lambda (lambda - 1) / (1 + r lambda)),
      with the rate b = a + q and q = D**2 / (2 (1 + r)).  The rate follows
      the data, so what remains is constant at r = 0 and smooth in lambda
      for small r.  Each owner's value comes from the rules of 12 and 18
      nodes (_LAGUERRE_NODES), evaluated densely; it is accepted when the
      two agree within ``rel_tol``, and then gives the 18-node value.  A
      value that is not finite never agrees, so such an owner falls back.
      Against 30-digit mpmath (tests/test_marginal.py) the accepted values
      are within 1e-12 for nu = 1 to 1e5, x from 0.1 to 300 prior scales
      and V up to 0.04.
      The gate and node counts come from the lambda rows of a seeded
      ``rank`` sweep (the 20-member candidate ensemble, 1002 rows): 598
      rows pass the gate and 594 of them are accepted.  Raising the gate
      to r = 1, or dropping it, sends 28 or 404 more rows through the
      rules and accepts none of them, because at larger r the factor in
      lambda is far from a low-degree polynomial (at V = 4, 64 nodes still
      miss by 1e-6 to 1e-3).  8 and 12 nodes accept 546 rows; 16 and 24
      accept all 598 but cost more cells than the 4 rows they add save.
    * The owners left take the adaptive
      :func:`~bmameta.quadrature.log_quad_batch` over u = log(lambda)
      (:meth:`adaptive`): one group per lambda row, whose owners share its u
      range, seeds and partition.  A call's lambda rows are the rows of its
      2-D statistics, each with the owners the first two rules leave; a row
      does not depend on the other rows, so a tau node of the free-tau rule
      gets the same bits in any batch.  The seeds are the mixing prior's
      seven quantile seeds alone: the intervals they make already meet the
      tolerance under the integrator's |K21 - G10| bracket
      (:class:`_Mixing`), so midpoints between them would only double the
      cells.  The lower lambda limit is set for the owners' largest
      distance from the prior's location and largest likelihood variance,
      both in prior scales.

    The narrow likelihood peak in delta is integrated in closed form, so
    the integrand is smooth in lambda and delta has no bounds.  ``-c / 2``
    is added after the integral, so no node carries its rounding.  The
    lambda-free terms (:func:`_conjugate_terms`) are computed once per
    owner tau, so an adaptive cell costs one log and one division
    (:func:`_conjugate_finish`).  The free-tau rule takes the same three
    rules node by node, and skips nodes before their adaptive rows
    (:meth:`rule_values`).
    """

    def __init__(self, g: PriorSpec, rel_tol: float):
        self.m, self.s = g.params[:2]
        self.mix = _mixing(g)
        self.rel_tol = rel_tol
        # log of a**a / Gamma(a) * Gamma(a + 1/2) / a**(a + 1/2) / s, the
        # Laguerre value's constant at r = 0 and D = 0
        a = self.mix.a
        self.log_scale = _gammaln_half_step(a) - 0.5 * math.log(a) - math.log(self.s)
        # the closed form's n and a = s sqrt(nu), for an odd nu it covers
        n = (g.params[2] - 1.0) / 2.0
        self.n = int(n) if n in range(1, len(_VOIGT_B)) else None
        self.a = self.s * math.sqrt(g.params[2])

    def closed(self, mu: np.ndarray, s0: np.ndarray) -> tuple:
        """(values, accepted) of the closed form (:func:`_voigt`, with c = 0)
        at each owner: accepted where |z| <= _VOIGT_Z0 and the value is
        finite, and only those values are set."""
        values, ok = np.empty(mu.shape), np.zeros(mu.shape, dtype=bool)
        if self.n is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow or NaN is not accepted
                ok = ((mu - self.m) ** 2 + self.a * self.a) * (0.5 * s0) <= _VOIGT_Z0 * _VOIGT_Z0
            values[ok] = _voigt((0.0, mu[ok], s0[ok]), self.m, self.a, self.n)
            ok[ok] = np.isfinite(values[ok])
        return values, ok

    def adaptive(self, terms: tuple) -> np.ndarray:
        """The adaptive rows' values from their owners' :func:`_conjugate_terms`
        (with c = 0), shape (rows, owners)."""
        s, mix = self.s, self.mix
        a = mix.a
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

        return log_quad_batch(logf, bounds, n_owners=n_owners, seeds=mix.seeds, rel_tol=self.rel_tol)

    def laguerre(self, terms: tuple) -> tuple:
        """(18-node values, whether each is accepted) of owners from their
        :func:`_conjugate_terms` (with c = 0), 1-D."""
        s, a = self.s, self.mix.a
        nodes, log_w = _laguerre(a - 0.5)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r = terms[1] / (s * s)
            q = 0.5 * (terms[2] / (s * s)) / (1.0 + r)
            base = self.log_scale - 0.5 * terms[0] - (a + 0.5) * np.log1p(q / a)
        out = np.empty(r.shape + (2,))
        step = max(1, _CHUNK_CELLS // nodes.size)
        for i in range(0, r.size, step):
            rows = slice(i, i + step)
            ri, qi = r[rows, None], q[rows, None]
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
                    peak = np.max(f[:, part], axis=-1)
                    out[rows, k] = np.log(np.sum(np.exp(f[:, part] - peak[:, None]), axis=-1)) + peak
        with np.errstate(invalid="ignore"):
            ok = np.abs(out[:, 1] - out[:, 0]) <= self.rel_tol
        return base + out[:, 1], ok

    def closed_or_laguerre(self, mu: np.ndarray, s0: np.ndarray, terms: tuple) -> tuple:
        """(values, accepted) of each owner under the closed form
        (:meth:`closed`), then, where V / s**2 is below _LAGUERRE_R, the
        Laguerre rules, from its statistics and :func:`_conjugate_terms`
        (with c = 0); only accepted values are set."""
        values, done = self.closed(mu, s0)
        gate = ~done & (terms[1] < _LAGUERRE_R * (self.s * self.s))
        if gate.any():
            laguerre, ok = self.laguerre(tuple(v[gate] for v in terms))
            gate[gate] = ok
            values[gate] = laguerre[ok]
            done |= gate
        return values, done

    def __call__(self, stats: tuple) -> np.ndarray:
        c, mu, s0 = (np.atleast_2d(v) for v in stats)
        terms = _conjugate_terms((0.0, mu, s0), self.m)
        out, done = self.closed_or_laguerre(mu, s0, terms)
        rows = np.flatnonzero(~np.all(done, axis=1))
        if rows.size:
            # each row's adaptive owners, as wide as the row with the most
            width = np.max(np.count_nonzero(~done[rows], axis=1))
            owner = rows[:, None], _owners_first(~done[rows])[:, :width]
            out[owner] = self.adaptive(tuple(v[owner] for v in terms))
        return (out - 0.5 * c).reshape(np.shape(stats[0]))

    def rule_values(self, stats: tuple, rows: np.ndarray, log_b: np.ndarray, known: np.ndarray,
                    order: np.ndarray) -> tuple:
        """The delta part at the free-tau rule's nodes of a set of groups, each
        with its own skip set: ``(values, skipped)``, both of shape (groups,
        nodes), the values -inf where skipped.

        ``stats`` has a row of node statistics per comparison, ``rows`` is
        each group's row, ``log_b`` each group's log prior density plus log
        weight at the nodes, ``known`` the log of each group's sum over the
        nodes of earlier passes, and ``order`` the nodes in increasing t.

        Each node takes the closed form (:meth:`closed`), then the Laguerre
        rules where V / s**2 is below _LAGUERRE_R, on its own; those
        accepted are the group's evaluated nodes.  A node neither accepts
        would need the adaptive rule, so a group
        skips it where its bound cannot matter: the delta part is at most
        the likelihood's peak in delta, exp(-c / 2), so the node adds at
        most exp(-c / 2) w h(tau), and it is skipped when that is below
        ``rel_tol`` _SKIP / N of the group's sum over its evaluated nodes,
        with N the 561 nodes of the rule's stage one.  The nodes a group keeps go to the
        adaptive rule in fixed blocks of _ROW_NODES nodes consecutive in t,
        one lambda row per block with the kept nodes as owners.  A row's
        values depend on its comparison and owners alone, so groups whose
        rows coincide share them, and a group's values do not depend on the
        other groups of the call.
        """
        c = stats[0]
        terms = _conjugate_terms((0.0, stats[1], stats[2]), self.m)
        values, done = self.closed_or_laguerre(stats[1], stats[2], terms)
        values[done] -= 0.5 * c[done]
        values[~done] = -np.inf
        out = values[rows]
        total = np.logaddexp(known, np.logaddexp.reduce(out + log_b, axis=1))
        bound = log_b - 0.5 * c[rows]
        cut = total + math.log(self.rel_tol * _SKIP / _ML_CUTS[4])
        keep = ~done[rows] & (bound > -np.inf) & (bound >= cut[:, None])
        if keep.any():
            self._adaptive_blocks(out, keep, terms, c, rows, order)
        return out, ~done[rows] & ~keep

    def _adaptive_blocks(self, out, keep, terms, c, rows, order) -> None:
        """Fill ``out`` at the ``keep`` nodes from one adaptive lambda row per
        distinct (comparison, block, kept nodes), all in one integrator
        call of _ROW_NODES owners per row; a row with fewer kept nodes
        repeats its first (:func:`_owners_first`)."""
        width = _ROW_NODES
        n_blocks = -(-order.size // width)
        slots = np.full(n_blocks * width, -1)
        slots[:order.size] = order
        slots = slots.reshape(n_blocks, width)
        kept = np.zeros((keep.shape[0], n_blocks * width), dtype=np.int64)
        kept[:, :order.size] = keep[:, order]
        code = kept.reshape(keep.shape[0], n_blocks, width) @ (1 << np.arange(width))
        group, block = np.nonzero(code)
        keys, use = np.unique(np.stack([rows[group], block, code[group, block]], axis=1), axis=0,
                              return_inverse=True)
        owned = ((keys[:, 2:] >> np.arange(width)) & 1).astype(bool)
        owner = slots[keys[:, 1:2], _owners_first(owned)]
        row = keys[:, :1]
        values = self.adaptive(tuple(v[row, owner] for v in terms)) - 0.5 * c[row, owner]
        use = use.ravel()
        out[group[:, None], owner[use]] = values[use]


def _owners_first(owned: np.ndarray) -> np.ndarray:
    """The columns of each row of the boolean ``owned`` that are True, in
    increasing order, then the row's first such column again to fill the
    row: a lambda row's owners.  A repeated owner refines like the original
    and leaves the row's lambda range unchanged, so the row keeps its bits,
    and its cells do not depend on the other rows of the call."""
    width = owned.shape[1]
    rank = np.where(owned, np.arange(width), width + np.argmax(owned, axis=1)[:, None])
    return np.sort(rank, axis=1) % width


def _rule_sums(terms: tuple, starts, delta_values: np.ndarray) -> np.ndarray:
    """log of the sum over nodes j of w_j h(tau_j) L(tau_j, delta) on each
    segment of nodes beginning at ``starts``, for each delta: shape
    (segments, deltas).

    ``terms`` are the nodes' :func:`~bmameta.core.random_stats` with each
    node's log weight and log prior density folded into its c (as c - 2
    log(w h)), so a (node x delta) cell is one
    :func:`~bmameta.core.loglik_from_stats` term.  The deltas run in blocks
    of at most :data:`~bmameta.quadrature._BLOCK_CELLS` cells, and each
    delta's terms are summed after a shift by its largest, so no cell under-
    or overflows; a delta's sums do not depend on the others in its block.
    """
    node_terms = tuple(v[:, None] for v in terms)
    out = np.empty((len(starts), delta_values.size))
    step = max(1, _BLOCK_CELLS // terms[0].size)
    for i in range(0, delta_values.size, step):
        block = slice(i, i + step)
        f = loglik_from_stats(node_terms, delta_values[block])
        peak = np.max(f, axis=0)
        shift = np.where(np.isfinite(peak), peak, 0.0)
        np.exp(np.subtract(f, shift, out=f), out=f)
        with np.errstate(divide="ignore"):  # a delta whose terms all vanish: -inf
            out[:, block] = np.log(np.add.reduceat(f, starts, axis=0)) + shift
    return out


def _tau_part(h: PriorSpec, comparison: Comparison):
    """``f(delta_values, rel_tol)``: the log of the likelihood integrated
    over the tau prior ``h`` at each delta (the likelihood itself at a point
    tau).

    A free tau takes the log marginals' rule (:func:`_ml_nodes`): the
    exp-sinh rule centred at the data scale, or a uniform prior's tanh-sinh
    rule, with each delta a group whose delta part is the likelihood at that
    point delta.  The statistics of stage one's 561 nodes come from one
    :func:`~bmameta.core.random_stats` call when the pass is built, so every
    call of ``f`` reuses them, and each node's log weight and prior density
    are folded into its c (:func:`_rule_sums`).  A delta is accepted as a
    log marginal's group is (:func:`_rule_log_marginals`): levels 2 and 3
    agree within ``rel_tol``, or else levels 3 and 4, and the end pieces
    are within it (:func:`_end_pieces`, which reads the likelihood at three
    nodes).  The deltas stage one rejects go to stage two
    (:func:`_recentred`), a block of at most _BLOCK_CELLS (delta x node)
    cells at a time, which raises :class:`ConvergenceError` for a delta it
    does not accept either.
    """
    if h.is_point:
        return lambda d, _rel_tol: loglik_random(d, h.params[0], comparison)
    key = h if h.family == "uniform" else None
    z0 = np.zeros(1) if key is not None else np.log([_data_scale(comparison)])
    z, tau, log_w = _ml_nodes(key, z0, np.ones(1), _ML_CUTS[4])
    log_b = _log_weighted_prior(h, tau, log_w)[0]
    log_ends = _log_end_masses(h, tau)
    stats = random_stats(tau[0], comparison)
    terms = (stats[0] - 2.0 * log_b, stats[1], stats[2])
    # levels 1 to 3 and level 4, and the nodes _end_pieces reads
    coarse, fine = (tuple(v[part] for v in terms) for part in (slice(0, _ML_CUTS[3]), slice(_ML_CUTS[3], None)))
    end_nodes = tuple(v[_END_NODES, None] for v in stats)
    block = _BLOCK_CELLS // _ML_CUTS[5]

    def integrals(delta_values: np.ndarray, rel_tol: float) -> np.ndarray:
        sums = np.logaddexp.accumulate(_rule_sums(coarse, _ML_CUTS[:3], delta_values), axis=0).T
        e = loglik_from_stats(end_nodes, delta_values).T
        first = e[:, 0] + log_b[0]
        low, ends = _end_pieces(first, e, log_ends, tau[:, :2], _lower_end(key))
        levels = _level_values(sums, first, _ML_STEPS[:3], low)
        value = levels[:, 2]
        ok = _accepted(levels[:, 1], value, ends, rel_tol)
        redo = np.flatnonzero(~ok)
        if redo.size:
            last = _rule_sums(fine, (0,), delta_values[redo])[0]
            finest = _level_values(np.logaddexp(sums[redo, 2], last)[:, None], first[redo], _ML_STEPS[3:4],
                                   low[redo])[:, 0]
            ok[redo] = _accepted(value[redo], finest, ends[redo], rel_tol)
            value[redo] = finest
        again = np.flatnonzero(~ok)
        for i in range(0, again.size, block):
            q = again[i:i + block]
            d = delta_values[q, None]

            def point(groups, stats, log_b, _known, _order):
                lik = loglik_from_stats(stats, d[groups])
                return lik + log_b, lik

            f = loglik_from_stats(tuple(v[None, :] for v in terms), d)
            value[q] = _recentred(key, z, f, value[q], e[q][:, ::2], [comparison] * q.size, [h] * q.size,
                                  point, rel_tol)
        return value

    return integrals


# --------------------------------------------------------------------------
# Grid posteriors
# --------------------------------------------------------------------------


def _log_posterior(model, comparison, parameter):
    """``f(xs, rel_tol)``: the unnormalized log posterior of one free
    parameter at points ``xs``.  A delta posterior's tau part
    (:func:`_tau_part`) is built here once, so the probes of
    :func:`_mass_region` and the grids share its node statistics."""
    if parameter == "delta":
        tau_part = _tau_part(model.tau_prior, comparison)
        return lambda xs, rel_tol: tau_part(xs, rel_tol * 0.1) + model.delta_prior.log_pdf(xs)

    def log_post(xs, rel_tol):
        return _delta_part(model.delta_prior, rel_tol * 0.1)(random_stats(xs, comparison)) + model.tau_prior.log_pdf(xs)

    return log_post


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


def _mass_region(log_post, comparison, parameter, prior):
    """Bracket the parameter region holding all posterior mass above exp(-40),
    from the log posterior ``log_post`` (:func:`_log_posterior`).

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
        logp = log_post(xs, 1e-2)
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
    log_post = _log_posterior(model, comparison, parameter)
    left, right = _mass_region(log_post, comparison, parameter, prior)
    logml = log_marginal(model, comparison, rel_tol=rel_tol) if _log_ml is None else _log_ml

    n = _GRID_POINTS
    for _ in range(2):
        grid = np.linspace(left, right, n)
        logpost = log_post(grid, rel_tol)
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

