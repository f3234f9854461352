"""Restricted maximum likelihood estimation for the random-effects model.

Used to turn raw comparisons into (effect, heterogeneity) estimate pairs
when building empirical priors.  The restricted log likelihood

    l_R(tau) = -1/2 [ sum(log(se_i^2 + tau^2)) + log(sum(w_i))
                      + sum(w_i (y_i - delta_hat(tau))^2) ]

with ``w_i = 1/(se_i^2 + tau^2)`` and ``delta_hat`` the weighted mean is
maximized over ``tau in [0, tau_max]``.  Up to the constant
(k - 1)/2 log(2 pi) it is the log evidence of a flat prior on delta,
(log(2 pi) - c - log S0)/2 in the ``(c, mu, S0)`` that
:func:`bmameta.core._normal_stats` forms for every marginal likelihood.
REML reads its objective from there, and its final ``delta_hat = mu`` and
``se_delta = 1/sqrt(S0)`` too; the score is its only statistic of its own.

:func:`reml_fits` fits a whole corpus in lockstep.  Each comparison gets
its own coarse 256-point scan, which guards against the rare multi-modal
profile, and starts from the scan's best point.  Where the analytic score
changes sign across the best scan cell, a sign bisection of the score runs
over all such comparisons together; each keeps its own bracket and
stopping test, and a step evaluates only the comparisons still running.
Two guards end the fit: the bisection root replaces the scan's best point
only if it is no worse, and an explicit endpoint comparison lets the
estimate land exactly on the tau = 0 boundary.

Comparisons are evaluated in groups of equal study count k, one
``(n_k, k)`` array of canonical ``(y, se^2)`` rows per group, never
padded: a row sum of such an array is bit-identical to the sum of the
row alone, so a fit does not depend on the batch it runs in and
:func:`reml_fit` is simply ``reml_fits([comparison])[0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _LOG_2PI, Comparison, _normal_stats
from .errors import DomainError, InsufficientDataError

__all__ = ["RemlFit", "reml_fit", "reml_fits", "restricted_loglik"]

#: Points of each comparison's coarse scan over [0, tau_max].
_SCAN_POINTS = 256


@dataclass(frozen=True)
class RemlFit:
    delta_hat: float
    tau_hat: float
    se_delta: float


def _loglik(tau, y, v):
    """The restricted log likelihood less k/2 log(2 pi) at ``tau``, for
    canonical rows ``y`` and ``v = se**2``: -(c + log S0)/2 of
    :func:`~bmameta.core._normal_stats`, the flat-delta log evidence less
    log(2 pi)/2.

    ``y`` and ``v`` have shape ``(k,)`` or ``tau.shape + (k,)``; the result
    has the shape of ``tau``.
    """
    c, _, s0 = _normal_stats(y, v + (tau * tau)[..., None])
    return -0.5 * (c + np.log(s0))


def _score(tau, y, v):
    """Derivative of :func:`_loglik` w.r.t. tau^2, with the same shapes.

    The weighted-mean term drops out at delta_hat, leaving
    0.5 * (sum(w^2 r^2) + sum(w^2)/sum(w) - sum(w)).
    """
    w = 1.0 / (v + (tau * tau)[..., None])
    sw = w.sum(axis=-1)
    delta = (w * y).sum(axis=-1) / sw
    r2 = (y - delta[..., None]) ** 2
    return 0.5 * ((w * w * r2).sum(axis=-1) + (w * w).sum(axis=-1) / sw - sw)


def restricted_loglik(tau, comparison: Comparison):
    """Restricted log likelihood at ``tau`` (scalar or array)."""
    y, se = comparison._canonical
    out = _loglik(np.asarray(tau, dtype=float), y, se**2) + 0.5 * y.size * _LOG_2PI
    return float(out) if out.ndim == 0 else out


class _Corpus:
    """Canonical rows of a batch of comparisons, grouped by study count."""

    def __init__(self, canonical: Sequence[tuple]):
        by_k: dict = {}
        for i, (y, _) in enumerate(canonical):
            by_k.setdefault(len(y), []).append(i)
        self.size = len(canonical)
        self.groups = [
            (
                np.array(rows),
                np.stack([canonical[i][0] for i in rows]),
                np.stack([canonical[i][1] for i in rows]) ** 2,
            )
            for rows in by_k.values()
        ]

    def evaluate(self, kernel, tau: np.ndarray, running: np.ndarray) -> np.ndarray:
        """``kernel`` at ``tau[i]`` for every running comparison ``i``; NaN elsewhere."""
        out = np.full(self.size, np.nan)
        for rows, y, v in self.groups:
            sel = running[rows]
            if sel.any():
                out[rows[sel]] = kernel(tau[rows[sel]], y[sel], v[sel])
        return out


def reml_fits(comparisons: Sequence[Comparison]) -> list:
    """REML estimates of the mean effect and heterogeneity of each comparison.

    Returns one :class:`RemlFit` per comparison, in input order; each equals
    the fit of that comparison alone.  Every comparison needs at least two
    studies.  ``tau_hat`` may be exactly 0; any small-heterogeneity
    exclusion rule belongs downstream.  A comparison whose largest se**2
    plus the scan's end squared overflows is a DomainError.
    """
    if any(c.k < 2 for c in comparisons):
        raise InsufficientDataError("REML needs at least two studies")
    canonical = [c._canonical for c in comparisons]
    n = len(canonical)

    # Coarse scan, one comparison at a time: a (_SCAN_POINTS, k) evaluation.
    # The scan's best point is the estimate unless the bisection improves it.
    lo = np.empty(n)
    hi = np.empty(n)
    tau_hat = np.empty(n)
    for i, (y, se) in enumerate(canonical):
        se_max = float(np.max(se))
        with np.errstate(over="ignore"):  # an infinite spread fails the check below
            tau_max = 10.0 * float(np.max(np.abs(y - np.median(y)))) + se_max
        # no variance of the fit exceeds this one
        if math.isinf(se_max * se_max + tau_max * tau_max):
            raise DomainError(f"comparison {comparisons[i].id!r}: se**2 + tau**2 overflows at its "
                              f"largest se {se_max!r} and REML's scan end {tau_max!r}")
        grid = np.linspace(0.0, tau_max, _SCAN_POINTS)
        best = int(np.argmax(_loglik(grid, y, se**2)))
        lo[i] = grid[max(best - 1, 0)]
        hi[i] = grid[min(best + 1, _SCAN_POINTS - 1)]
        tau_hat[i] = grid[best]

    corpus = _Corpus(canonical)
    every = np.ones(n, dtype=bool)

    # Near the optimum the log likelihood is flat to float noise, so when
    # the analytic score changes sign across the scan cell, a sign bisection
    # pins the interior root down to machine precision (translation
    # equivariance needs this).  The stopping width is relative to the
    # bracket, so the fit of data times a power of two is the fit times it.
    s_lo, s_hi = lo, hi
    straddle = corpus.evaluate(_score, s_lo, every) > 0.0
    straddle &= corpus.evaluate(_score, s_hi, straddle) < 0.0

    def bisecting():
        return straddle & ((s_hi - s_lo) > 1e-15 * s_hi)

    running = bisecting()
    while running.any():
        mid = 0.5 * (s_lo + s_hi)
        up = corpus.evaluate(_score, mid, running) > 0.0
        s_lo = np.where(running & up, mid, s_lo)
        s_hi = np.where(running & ~up, mid, s_hi)
        running = bisecting()
    candidate = 0.5 * (s_lo + s_hi)
    better = corpus.evaluate(_loglik, candidate, straddle) >= (
        corpus.evaluate(_loglik, tau_hat, straddle) - 1e-9
    )
    tau_hat = np.where(straddle & better, candidate, tau_hat)

    # Let the boundary win whenever the interior advantage is below noise
    # level, so homogeneous data yields tau_hat exactly 0.
    boundary = corpus.evaluate(_loglik, np.zeros(n), every) >= (
        corpus.evaluate(_loglik, tau_hat, every) - 1e-9
    )
    tau_hat = np.where(boundary, 0.0, tau_hat)

    # mu and S0 per group at tau_hat * tau_hat, the tau**2 of the scan and
    # the bisection, which scales exactly with the data
    mu, s0 = np.empty(n), np.empty(n)
    for rows, y, v in corpus.groups:
        t = tau_hat[rows, None]
        _, mu[rows], s0[rows] = _normal_stats(y, v + t * t)
    return [RemlFit(float(d), float(t), 1.0 / math.sqrt(s)) for d, t, s in zip(mu, tau_hat, s0)]


def reml_fit(comparison: Comparison) -> RemlFit:
    """REML estimate of the mean effect and heterogeneity of a comparison.

    Requires at least two studies.  Same as ``reml_fits([comparison])[0]``.
    """
    return reml_fits([comparison])[0]
