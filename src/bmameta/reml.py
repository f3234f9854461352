"""Restricted maximum likelihood estimation for the random-effects model.

Used to turn raw comparisons into (effect, heterogeneity) estimate pairs
when building empirical priors.  The restricted log likelihood

    l_R(tau) = -1/2 [ sum(log(se_i^2 + tau^2)) + log(sum(w_i))
                      + sum(w_i (y_i - delta_hat(tau))^2) ]

with ``w_i = 1/(se_i^2 + tau^2)`` and ``delta_hat`` the weighted mean is
maximized over ``tau in [0, tau_max]``.

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

from .core import Comparison
from .errors import InsufficientDataError

__all__ = ["RemlFit", "reml_fit", "reml_fits", "restricted_loglik"]

#: Points of each comparison's coarse scan over [0, tau_max].
_SCAN_POINTS = 256


@dataclass(frozen=True)
class RemlFit:
    delta_hat: float
    tau_hat: float
    se_delta: float


def _loglik(tau, y, v):
    """Restricted log likelihood at ``tau`` for canonical rows ``y``, ``v = se**2``.

    ``y`` and ``v`` have shape ``(k,)`` or ``tau.shape + (k,)``; the result
    has the shape of ``tau``.
    """
    variances = v + (tau * tau)[..., None]
    w = 1.0 / variances
    sw = w.sum(axis=-1)
    delta = (w * y).sum(axis=-1) / sw
    q = (w * (y - delta[..., None]) ** 2).sum(axis=-1)
    return -0.5 * (np.log(variances).sum(axis=-1) + np.log(sw) + q)


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
    out = _loglik(np.asarray(tau, dtype=float), y, se**2)
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
    exclusion rule belongs downstream.
    """
    if any(c.k < 2 for c in comparisons):
        raise InsufficientDataError("REML needs at least two studies")
    canonical = [c._canonical for c in comparisons]
    corpus = _Corpus(canonical)
    n = corpus.size
    every = np.ones(n, dtype=bool)

    # Coarse scan, one comparison at a time: a (_SCAN_POINTS, k) evaluation.
    # The scan's best point is the estimate unless the bisection improves it.
    lo = np.empty(n)
    hi = np.empty(n)
    tau_hat = np.empty(n)
    for i, (y, se) in enumerate(canonical):
        tau_max = 10.0 * float(np.max(np.abs(y - np.median(y)))) + float(np.max(se))
        grid = np.linspace(0.0, tau_max, _SCAN_POINTS)
        best = int(np.argmax(_loglik(grid, y, se**2)))
        lo[i] = grid[max(best - 1, 0)]
        hi[i] = grid[min(best + 1, _SCAN_POINTS - 1)]
        tau_hat[i] = grid[best]

    # Near the optimum the log likelihood is flat to float noise, so when
    # the analytic score changes sign across the scan cell, a sign bisection
    # pins the interior root down to machine precision (translation
    # equivariance needs this).
    s_lo, s_hi = lo, hi
    straddle = corpus.evaluate(_score, s_lo, every) > 0.0
    straddle &= corpus.evaluate(_score, s_hi, straddle) < 0.0

    def bisecting():
        return straddle & ((s_hi - s_lo) > 1e-15 * np.maximum(s_hi, 1.0))

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

    fits = []
    for (y, se), t in zip(canonical, tau_hat):
        w = 1.0 / (se**2 + t**2)
        fits.append(
            RemlFit(
                delta_hat=float(np.sum(w * y) / np.sum(w)),
                tau_hat=float(t),
                se_delta=float(1.0 / math.sqrt(np.sum(w))),
            )
        )
    return fits


def reml_fit(comparison: Comparison) -> RemlFit:
    """REML estimate of the mean effect and heterogeneity of a comparison.

    Requires at least two studies.  Same as ``reml_fits([comparison])[0]``.
    """
    return reml_fits([comparison])[0]
