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
An owner whose error bracket meets the tolerance is retired: its total is
stored and its intervals leave the working arrays, so later rounds only
reduce over owners still refining.  Each owner's terms are summed in the
same order as in a call of its own, so batching changes no result bit;
the interval cap still counts retired intervals, and ``extra_refine``
bisects every final interval, retired or not.

:func:`log_quad_shared` is the *shared* mode, for owners that have one
range and one set of seeds: they refine one partition together, and
each interval is evaluated once for all of them, the integrand returning
a column per owner.  An interval is bisected when any unconverged owner
needs it split (the same share rule as above), and a converged owner's
total is frozen.  Owners may come in groups, each refining a partition
of its own, so a group's results do not depend on the groups beside it.
The integrand runs on blocks of a few MB, and the stored (interval x
owner) cells are capped before each evaluation.

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

__all__ = ["log_quad", "log_quad_batch", "log_quad_shared"]

_MAX_ROUNDS = 64
# log_quad_shared: integrand values per evaluation block (4 MB of doubles)
# and the cap on stored (interval x owner) cells (two 32 MB arrays)
_BLOCK_CELLS = 1 << 19
_MAX_CELLS = 1 << 21

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
    return _kronrod(log_f(owners[:, None], x), half)


def _kronrod(lf: np.ndarray, half: np.ndarray):
    """log of the Kronrod-15 estimate and of |K15 - G7| on each interval,
    from log integrand values ``lf`` with the 15 nodes on axis 1 (and an
    owner axis after it, if any) and the intervals' half widths.

    The rule sums run node by node with plain ufuncs, so an interval's
    bits do not depend on the intervals evaluated with it (a matrix
    product's do: BLAS rounds a row differently by its place in a batch).
    """
    peak = np.max(lf, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = lf - shift[:, None]
    np.exp(scaled, out=scaled)
    sum_k = _WEIGHTS_K[0] * scaled[:, 0]
    for j in range(1, 15):
        sum_k += _WEIGHTS_K[j] * scaled[:, j]
    sum_g = _WEIGHTS_G[1] * scaled[:, 1]
    for j in range(3, 15, 2):
        sum_g += _WEIGHTS_G[j] * scaled[:, j]
    with np.errstate(divide="ignore"):
        log_half = np.log(half).reshape(half.shape + (1,) * (peak.ndim - 1))
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
    max_rounds: int = _MAX_ROUNDS,
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

    out = np.full(n_owners, -np.inf)
    active = np.ones(n_owners, dtype=bool)
    retired = []  # (a, b, owners) of converged owners, whole owners per entry
    n_retired = 0
    for n_round in range(max_rounds + 1):
        total = _segment_logsumexp(log_k, owners, n_owners)
        err = _segment_logsumexp(log_e, owners, n_owners)
        unconverged = err > total + log_rtol
        done = active & ~unconverged
        if np.any(done):
            # A converged owner's intervals never change again, so its total
            # is final; its terms leave the working arrays in their order.
            out[done] = total[done]
            active &= unconverged
            live = unconverged[owners]
            retired.append((a[~live], b[~live], owners[~live]))
            n_retired += a.size - int(np.count_nonzero(live))
            a, b, owners, log_k, log_e = (v[live] for v in (a, b, owners, log_k, log_e))
        if not np.any(active):
            break
        if n_round == max_rounds:
            raise _not_converged(f"after {max_rounds} refinement rounds", total, err, unconverged)
        counts = np.bincount(owners, minlength=n_owners).astype(float)
        # Split every interval holding more than its fair share of error;
        # the owner's worst interval always exceeds this threshold.
        threshold = total + log_rtol - np.log(4.0 * np.maximum(counts, 1.0))
        split = log_e > threshold[owners]
        n_split = int(np.count_nonzero(split))
        if n_split == 0:  # pragma: no cover - guarded by threshold proof
            raise _not_converged("(no interval to split)", total, err, unconverged)
        if n_retired + a.size + n_split > max_intervals:
            raise _not_converged(f"within {max_intervals} intervals", total, err, unconverged)
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

    if extra_refine:
        # each owner's intervals sit in one entry, in order, so its terms are
        # summed in the order they would have without retirement
        a, b, owners = (np.concatenate(v) for v in zip(*retired))
        for _ in range(extra_refine):
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
            owners = np.concatenate([owners, owners])
            log_k, _ = _eval_intervals(log_f, a, b, owners)
        out = _segment_logsumexp(log_k, owners, n_owners)
    return out


def _not_converged(how: str, total, err, unconverged, group_ids=None) -> ConvergenceError:
    """The error for an unconverged batch, bracketing its worst owner.

    With ``group_ids`` the arrays have a row per group, and the owner is
    named by its column and the group by its id.
    """
    idx = np.flatnonzero(unconverged)
    total, err = total.ravel(), err.ravel()
    worst = int(idx[np.argmax(err[idx] - total[idx])])
    if group_ids is None:
        who = f"owner {worst}"
    else:
        row, col = divmod(worst, unconverged.shape[1])
        who = f"owner {col} of group {group_ids[row]}"
    return ConvergenceError(
        f"quadrature failed to converge {how} (worst {who})",
        bracket=(float(total[worst]), float(err[worst])),
    )


def _group_logsumexp(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Column-wise log(sum(exp(values))) over row segments beginning at
    ``starts``; -inf where a segment's column vanishes.

    ``reduceat`` adds each segment's rows in order, one segment at a time,
    so a segment's result does not depend on the rows around it.
    """
    peak = np.maximum.reduceat(values, starts, axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    sizes = np.diff(np.append(starts, values.shape[0]))
    acc = np.add.reduceat(np.exp(values - np.repeat(shift, sizes, axis=0)), starts, axis=0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(acc)
    return np.where(np.isfinite(peak), out, -np.inf)


def _eval_cells(log_f, a: np.ndarray, b: np.ndarray, groups: np.ndarray, n_owners: int):
    """:func:`_kronrod` of the intervals ``[a, b]`` of ``groups``, shape
    (intervals, n_owners), with the integrand run on blocks of at most
    _BLOCK_CELLS values."""
    log_k = np.empty((a.size, n_owners))
    log_e = np.empty((a.size, n_owners))
    step = max(1, _BLOCK_CELLS // (15 * max(n_owners, 1)))
    for i in range(0, a.size, step):
        block = slice(i, i + step)
        half = 0.5 * (b[block] - a[block])
        x = 0.5 * (a[block] + b[block])[:, None] + half[:, None] * _NODES[None, :]
        log_k[block], log_e[block] = _kronrod(log_f(groups[block, None], x), half)
    return log_k, log_e


def _group_starts(groups: np.ndarray) -> np.ndarray:
    """First row of each run of equal ids in the sorted ``groups``."""
    return np.flatnonzero(np.concatenate([[True], groups[1:] != groups[:-1]]))


def log_quad_shared(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds,
    n_owners: int,
    *,
    n_groups: int = 1,
    seeds: Optional[np.ndarray] = None,
    rel_tol: float = 1e-9,
    extra_refine: int = 0,
) -> np.ndarray:
    """``log(integral(exp(log_f)))`` for owners that share one range, one
    set of seeds and, within a group, one partition.

    Parameters
    ----------
    log_f:
        Vectorized callable ``log_f(group_ids, x)`` where ``group_ids``
        has shape (m, 1) and ``x`` shape (m, 15); returns the log
        integrand of every owner of the row's group, shape (m, 15,
        n_owners).  Must tolerate -inf results.
    bounds:
        ``(lower, upper)``, the same for every owner.
    n_owners:
        Owners per group.
    n_groups:
        Groups, each refining a partition of its own; a group's results
        do not depend on the other groups in the call.
    seeds:
        Optional interior split points, shape (m,), clipped to ``bounds``.
    rel_tol:
        Relative tolerance on each owner's integral.
    extra_refine:
        After convergence, bisect every interval this many times and
        recompute; used to verify refinement stability.

    Returns
    -------
    Array of shape (n_groups, n_owners) with the log integrals.

    An interval of a group is bisected when any unconverged owner of the
    group needs it split, by the same share rule as :func:`log_quad_batch`.
    A converged owner's total is frozen; a group whose owners have all
    converged leaves the working arrays.  The stored (interval x owner)
    cells, counting finished groups, are capped at 40 000 times the owners
    and at most _MAX_CELLS; the cap is checked before each evaluation.
    """
    lo, hi = (float(v) for v in bounds)
    max_cells = min(_MAX_CELLS, 40000 * n_groups * n_owners)
    log_rtol = math.log(rel_tol)
    pts = np.array([lo, hi]) if seeds is None else np.clip(np.concatenate([[lo, hi], seeds]), lo, hi)
    pts = np.unique(pts)
    if pts.size < 2:
        raise ConvergenceError("empty integration region")
    a = np.tile(pts[:-1], n_groups)
    b = np.tile(pts[1:], n_groups)
    groups = np.repeat(np.arange(n_groups), pts.size - 1)
    _check_cells(a.size, n_owners, max_cells)
    log_k, log_e = _eval_cells(log_f, a, b, groups, n_owners)

    out = np.full((n_groups, n_owners), -np.inf)
    active = np.ones((n_groups, n_owners), dtype=bool)
    retired = []  # (a, b, groups) of finished groups, whole groups per entry
    n_retired = 0
    for n_round in range(_MAX_ROUNDS + 1):
        starts = _group_starts(groups)
        ids = groups[starts]
        total = _group_logsumexp(log_k, starts)
        err = _group_logsumexp(log_e, starts)
        live = active[ids] & (err > total + log_rtol)
        out[ids] = np.where(active[ids] & ~live, total, out[ids])
        active[ids] = live
        going = live.any(axis=1)
        if not going.all():
            # a finished group's intervals never change again
            keep = np.repeat(going, np.diff(np.append(starts, a.size)))
            retired.append((a[~keep], b[~keep], groups[~keep]))
            n_retired += a.size - int(np.count_nonzero(keep))
            a, b, groups, log_k, log_e = (v[keep] for v in (a, b, groups, log_k, log_e))
            ids, total, err, live = ids[going], total[going], err[going], live[going]
            starts = _group_starts(groups)
        if a.size == 0:
            break
        if n_round == _MAX_ROUNDS:
            raise _not_converged(f"after {_MAX_ROUNDS} refinement rounds", total, err, live, ids)
        sizes = np.diff(np.append(starts, a.size))
        # Split every interval holding more than its fair share of some live
        # owner's error; each live owner's worst interval exceeds this.
        threshold = np.where(live, total + log_rtol - np.log(4.0 * sizes)[:, None], np.inf)
        split = np.any(log_e > np.repeat(threshold, sizes, axis=0), axis=1)
        n_split = int(np.count_nonzero(split))
        if n_split == 0:  # pragma: no cover - guarded by threshold proof
            raise _not_converged("(no interval to split)", total, err, live, ids)
        if (n_retired + a.size + n_split) * n_owners > max_cells:
            raise _not_converged(f"within {max_cells} cells", total, err, live, ids)
        mid = 0.5 * (a[split] + b[split])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_groups = np.concatenate([groups[split], groups[split]])
        child_k, child_e = _eval_cells(log_f, child_a, child_b, child_groups, n_owners)
        keep = ~split
        a, b, groups, log_k, log_e = (
            np.concatenate([v[keep], w]) for v, w in
            ((a, child_a), (b, child_b), (groups, child_groups), (log_k, child_k), (log_e, child_e))
        )
        if n_groups > 1:
            a, b, groups, log_k, log_e = _by_group(groups, a, b, groups, log_k, log_e)

    if extra_refine:
        a, b, groups = (np.concatenate(v) for v in zip(*retired))
        for _ in range(extra_refine):
            mid = 0.5 * (a + b)
            a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
            groups = np.concatenate([groups, groups])
        a, b, groups = _by_group(groups, a, b, groups)
        _check_cells(a.size, n_owners, max_cells)
        log_k, _ = _eval_cells(log_f, a, b, groups, n_owners)
        out = _group_logsumexp(log_k, _group_starts(groups))
    return out


def _by_group(groups: np.ndarray, *arrays) -> tuple:
    """``arrays`` reordered by group, keeping each group's own order."""
    order = np.argsort(groups, kind="stable")
    return tuple(v[order] for v in arrays)


def _check_cells(n_intervals: int, n_owners: int, max_cells: int) -> None:
    if n_intervals * n_owners > max_cells:
        raise ConvergenceError(
            f"quadrature needs {n_intervals} intervals x {n_owners} owners, over the cap of {max_cells} cells"
        )


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
