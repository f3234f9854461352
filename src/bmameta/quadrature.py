"""Adaptive Gauss-Kronrod quadrature for log-scale integrands.

Marginal likelihoods are integrals of ``exp(log_likelihood + log_prior)``
whose integrands underflow double precision by hundreds of orders of
magnitude, so all accumulation here happens in log space: every interval
stores the log of its Kronrod-15 estimate and the log of the |K15 - G7|
error bracket, and totals are combined with log-sum-exp.

The integrator is *batched*: many independent integrals ("owners") run
simultaneously, each with its own interval stack, and every refinement
round evaluates the integrand for all pending intervals of all owners in
a single vectorized call.  Nested 2D integration feeds the outer rule's
nodes to an inner batched pass, which keeps per-call numpy overhead flat.

Because the integrands are positive, |K15 - G7| is a conservative bound:
it is the error of the *Gauss* rule while the returned value comes from
the much more accurate Kronrod extension.  Narrow peaks that could hide
between the 15 initial nodes must be covered by caller-supplied seed
split points (likelihood-informed in practice).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

__all__ = ["log_quad", "log_quad_batch"]

# Kronrod-15 nodes on [-1, 1] (ascending) with the embedded Gauss-7 rule
# on the odd-indexed nodes.  Values are the standard QUADPACK constants.
_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WEIGHTS_K = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.06309209262997855, 0.02293532201052922,
])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1::2] = [
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
]


def _segment_logsumexp(values: np.ndarray, owners: np.ndarray, n_owners: int) -> np.ndarray:
    """log(sum(exp(values))) grouped by owner id; -inf for empty/zero groups."""
    peak = np.full(n_owners, -np.inf)
    np.maximum.at(peak, owners, values)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    # bincount adds each owner's terms in index order, as np.add.at does
    acc = np.bincount(owners, weights=np.exp(values - shift[owners]), minlength=n_owners)
    with np.errstate(divide="ignore"):
        out = shift + np.log(acc)
    return np.where(np.isfinite(peak), out, -np.inf)


def _eval_intervals(log_f, a: np.ndarray, b: np.ndarray, owners: np.ndarray):
    """Kronrod/Gauss log estimates and log error bracket per interval."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * _NODES[None, :]
    lf = log_f(owners[:, None], x)
    peak = np.max(lf, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = np.exp(lf - shift[:, None])
    sum_k = scaled @ _WEIGHTS_K
    sum_g = scaled @ _WEIGHTS_G
    with np.errstate(divide="ignore"):
        log_half = np.log(half)
        log_k = np.where(sum_k > 0, shift + np.log(np.maximum(sum_k, 1e-300)) + log_half, -np.inf)
        diff = np.abs(sum_k - sum_g)
        log_e = np.where(diff > 0, shift + np.log(np.maximum(diff, 1e-300)) + log_half, -np.inf)
    bad = ~np.isfinite(peak)
    log_k[bad] = -np.inf
    log_e[bad] = -np.inf
    return log_k, log_e


def log_quad_batch(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds,
    *,
    seeds: Optional[np.ndarray] = None,
    rel_tol: float = 1e-9,
    max_rounds: int = 64,
    max_intervals: Optional[int] = None,
    extra_refine: int = 0,
) -> np.ndarray:
    """Evaluate ``log(integral(exp(log_f)))`` for a batch of owners.

    Parameters
    ----------
    log_f:
        Vectorized callable ``log_f(owner_ids, x)`` where ``owner_ids``
        has shape (n, 1) and ``x`` shape (n, 15); returns log-integrand
        values of shape (n, 15).  Must tolerate -inf results.
    bounds:
        Array of shape (n_owners, 2) with per-owner integration limits.
    seeds:
        Optional interior split points (clipped to each owner's bounds):
        shape (m,) shares them among all owners, shape (n_owners, m) gives
        each owner its own row.  Use these to pin down narrow peaks.
    rel_tol:
        Relative tolerance on each owner's integral, i.e. absolute
        tolerance on the returned log value.
    extra_refine:
        After convergence, bisect every interval this many times and
        recompute; used to verify refinement stability.

    Returns
    -------
    Array of shape (n_owners,) with the log integrals (-inf if the
    integrand vanishes everywhere).
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    n_owners = bounds.shape[0]
    if max_intervals is None:
        max_intervals = max(40000, 64 * n_owners)
    log_rtol = math.log(rel_tol)

    # Initial partition: bounds plus clipped seed points, per owner.
    if seeds is not None and len(seeds) > 0:
        pts = np.sort(
            np.concatenate(
                [bounds, np.clip(np.atleast_2d(np.asarray(seeds, dtype=float)), bounds[:, :1], bounds[:, 1:])],
                axis=1,
            ),
            axis=1,
        )
    else:
        pts = bounds
    a = pts[:, :-1].ravel()
    b = pts[:, 1:].ravel()
    owners = np.repeat(np.arange(n_owners), pts.shape[1] - 1)
    keep = b > a
    a, b, owners = a[keep], b[keep], owners[keep]
    if a.size == 0:
        raise ConvergenceError("empty integration region")
    log_k, log_e = _eval_intervals(log_f, a, b, owners)

    for _ in range(max_rounds):
        total = _segment_logsumexp(log_k, owners, n_owners)
        err = _segment_logsumexp(log_e, owners, n_owners)
        unconverged = err > total + log_rtol
        if not np.any(unconverged):
            break
        counts = np.bincount(owners, minlength=n_owners).astype(float)
        # Split every interval holding more than its fair share of error;
        # the owner's worst interval always exceeds this threshold.
        threshold = total + log_rtol - np.log(4.0 * np.maximum(counts, 1.0))
        split = unconverged[owners] & (log_e > threshold[owners])
        n_split = int(np.count_nonzero(split))
        if n_split == 0:  # pragma: no cover - guarded by threshold proof
            break
        if a.size + n_split > max_intervals:
            worst = int(np.argmax(np.where(unconverged, err - total, -np.inf)))
            raise ConvergenceError(
                f"quadrature failed to converge within {max_intervals} intervals "
                f"(worst owner {worst})",
                bracket=(float(total[worst]), float(err[worst])),
            )
        mid = 0.5 * (a[split] + b[split])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_owner = np.concatenate([owners[split], owners[split]])
        child_k, child_e = _eval_intervals(log_f, child_a, child_b, child_owner)
        keep = ~split
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        owners = np.concatenate([owners[keep], child_owner])
        log_k = np.concatenate([log_k[keep], child_k])
        log_e = np.concatenate([log_e[keep], child_e])
    else:
        total = _segment_logsumexp(log_k, owners, n_owners)
        err = _segment_logsumexp(log_e, owners, n_owners)
        unconverged = err > total + log_rtol
        worst = int(np.argmax(np.where(unconverged, err - total, -np.inf)))
        raise ConvergenceError(
            f"quadrature failed to converge after {max_rounds} refinement rounds "
            f"(worst owner {worst})",
            bracket=(float(total[worst]), float(err[worst])),
        )

    for _ in range(extra_refine):
        mid = 0.5 * (a + b)
        child_a = np.concatenate([a, mid])
        child_b = np.concatenate([mid, b])
        owners = np.concatenate([owners, owners])
        a, b = child_a, child_b
        log_k, _ = _eval_intervals(log_f, a, b, owners)

    return _segment_logsumexp(log_k, owners, n_owners)


def log_quad(
    log_f: Callable[[np.ndarray], np.ndarray],
    lower: float,
    upper: float,
    *,
    seeds: Optional[np.ndarray] = None,
    rel_tol: float = 1e-9,
    extra_refine: int = 0,
) -> float:
    """Single-integral convenience wrapper around :func:`log_quad_batch`.

    ``log_f`` receives plain arrays of abscissae.
    """
    result = log_quad_batch(
        lambda _own, x: log_f(x),
        np.array([[lower, upper]]),
        seeds=seeds,
        rel_tol=rel_tol,
        extra_refine=extra_refine,
    )
    return float(result[0])
