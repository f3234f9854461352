"""Adaptive Gauss-Kronrod quadrature for log-scale integrands.

Marginal likelihoods are integrals of ``exp(log_likelihood + log_prior)``
whose integrands underflow double precision by hundreds of orders of
magnitude, so all accumulation here happens in log space: every interval
stores the log of its Kronrod-21 estimate and the log of the |K21 - G10|
error bracket, and totals are combined with log-sum-exp.  The rule is
QUADPACK's ``qk21`` pair (Piessens et al. 1983), the finite-range rule of
R's ``integrate``: 21 Kronrod nodes, 10 of them the Gauss-10 nodes.

The integrator is *batched*: many independent integrals run at once,
and every refinement round evaluates the integrand for all pending
intervals in one vectorized call.  The integrals come in groups, each
with its own range, seeds and partition; the owners of a group share
that partition, and each interval is evaluated once for all of them,
the integrand returning a column per owner.  An interval is bisected
when any unconverged owner of its group needs it split, and a converged
owner's total is frozen.  A group whose owners have all converged is
retired: its intervals leave the working arrays, so later rounds only
reduce over groups still refining.  Each group's terms are summed in the
same order as in a call of its own, so batching changes no result bit;
the cell cap still counts retired intervals.  Nested 2D integration
feeds the outer rule's nodes to an inner call, one group per outer
interval, which keeps per-call numpy overhead flat.  The integrand runs
on blocks of a few MB, and the stored (interval x owner) cells are
capped before each evaluation.

Each block is evaluated in place.  The integrator consumes the array
``log_f`` returns: the rule forms its shifted exponentials in it and sums
the nodes through one reused (interval x owner) temporary, so a block
allocates nothing of the block's size besides the integrand's result.
Fresh multi-MB arrays are costly here for more than their arithmetic:
the allocator returns freed ones to the kernel, and each reuse then
faults every 4 KB page in again.

Because the integrands are positive, |K21 - G10| is a conservative
bound: it is the error of the *Gauss* rule while the returned value comes
from the much more accurate Kronrod extension.  Narrow peaks that could
hide between the 21 initial nodes must be covered by caller-supplied seed
split points (likelihood-informed in practice).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError

__all__ = ["log_quad_batch"]

_MAX_ROUNDS = 64
# integrand values per evaluation block (4 MB of doubles) and the cap on
# stored (interval x owner) cells (their log terms fill 32 MB)
_BLOCK_CELLS = 1 << 19
_MAX_CELLS = 1 << 21

# QUADPACK's qk21 pair (Piessens et al. 1983): Kronrod-21 nodes on [-1, 1]
# (ascending) with the embedded Gauss-10 rule on the odd-indexed nodes,
# to 17 digits.  K21 is exact for polynomials up to degree 31, G10 up to 19.
_NODES = np.array([
    -0.99565716302580809, -0.97390652851717174, -0.93015749135570824,
    -0.86506336668898454, -0.78081772658641690, -0.67940956829902444,
    -0.56275713466860466, -0.43339539412924721, -0.29439286270146020,
    -0.14887433898163122, 0.0, 0.14887433898163122, 0.29439286270146020,
    0.43339539412924721, 0.56275713466860466, 0.67940956829902444,
    0.78081772658641690, 0.86506336668898454, 0.93015749135570824,
    0.97390652851717174, 0.99565716302580809,
])
_WEIGHTS_K = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
    0.075039674810919957, 0.093125454583697601, 0.10938715880229764,
    0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
    0.14773910490133849, 0.14944555400291690, 0.14773910490133849,
    0.14277593857706009, 0.13470921731147334, 0.12349197626206584,
    0.10938715880229764, 0.093125454583697601, 0.075039674810919957,
    0.054755896574351995, 0.032558162307964725, 0.011694638867371874,
])
_WEIGHTS_G = np.zeros(_NODES.size)
_WEIGHTS_G[1::2] = [
    0.066671344308688138, 0.14945134915058059, 0.21908636251598204,
    0.26926671930999635, 0.29552422471475287, 0.29552422471475287,
    0.26926671930999635, 0.21908636251598204, 0.14945134915058059,
    0.066671344308688138,
]


def _kronrod(lf: np.ndarray, half: np.ndarray):
    """log of the Kronrod-21 estimate and of the |K21 - G10| bracket per
    interval and owner, from log integrand values ``lf`` of shape
    (intervals, 21, owners) and the intervals' half widths.  ``lf`` is
    overwritten.

    The rule sums run node by node with plain ufuncs, so an interval's
    bits do not depend on the intervals evaluated with it (a matrix
    product's do: BLAS rounds a row differently by its place in a batch).
    The shifted exponentials are formed in ``lf`` itself and each node's
    weighted term in one reused temporary, so a block allocates nothing
    of its own size.
    """
    peak = np.max(lf, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = np.subtract(lf, shift[:, None], out=lf)
    np.exp(scaled, out=scaled)
    term = np.empty_like(shift)
    sum_k = _WEIGHTS_K[0] * scaled[:, 0]
    for j in range(1, _NODES.size):
        sum_k += np.multiply(_WEIGHTS_K[j], scaled[:, j], out=term)
    sum_g = _WEIGHTS_G[1] * scaled[:, 1]
    for j in range(3, _NODES.size, 2):
        sum_g += np.multiply(_WEIGHTS_G[j], scaled[:, j], out=term)
    with np.errstate(divide="ignore"):
        log_half = np.log(half)[:, None]
        log_k = np.where(sum_k > 0, shift + np.log(np.maximum(sum_k, 1e-300)) + log_half, -np.inf)
        diff = np.abs(sum_k - sum_g)
        log_e = np.where(diff > 0, shift + np.log(np.maximum(diff, 1e-300)) + log_half, -np.inf)
    bad = ~np.isfinite(peak)
    log_k[bad] = -np.inf
    log_e[bad] = -np.inf
    return log_k, log_e


def _by_interval(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-group rows of ``values`` repeated to one row per interval, for
    groups of ``sizes`` consecutive intervals; a single group's row is
    left to broadcast."""
    return values if sizes.size == 1 else np.repeat(values, sizes, axis=0)


def _group_logsumexp(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Elementwise log(sum(exp(values))) over consecutive row segments of
    ``sizes`` rows each (all positive); -inf where a segment's entry
    vanishes.

    ``reduceat`` adds each segment's rows in order, one segment at a time,
    so a segment's result does not depend on the rows around it.  The
    exponentials are formed in one array of the size of ``values``.
    """
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(values, starts, axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = np.subtract(values, _by_interval(shift, sizes))
    acc = np.add.reduceat(np.exp(scaled, out=scaled), starts, axis=0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(acc)
    return np.where(np.isfinite(peak), out, -np.inf)


def _eval_cells(log_f, a: np.ndarray, b: np.ndarray, groups: np.ndarray, n_owners: int):
    """:func:`_kronrod` of the intervals ``[a, b]`` of ``groups``, shape
    (intervals, 2, n_owners) with the log estimates at [:, 0] and the log
    error brackets at [:, 1], the integrand run on blocks of at most
    _BLOCK_CELLS values.  A block's integrand values are consumed in
    place, unless ``log_f`` returns a read-only or non-float64 array,
    which is copied first."""
    terms = np.empty((a.size, 2, n_owners))
    step = max(1, _BLOCK_CELLS // (_NODES.size * max(n_owners, 1)))
    for i in range(0, a.size, step):
        block = slice(i, i + step)
        half = 0.5 * (b[block] - a[block])
        x = 0.5 * (a[block] + b[block])[:, None] + half[:, None] * _NODES[None, :]
        lf = log_f(groups[block, None], x)
        if not (isinstance(lf, np.ndarray) and lf.dtype == np.float64 and lf.flags.writeable):
            lf = np.array(lf, dtype=float)
        terms[block, 0], terms[block, 1] = _kronrod(lf, half)
    return terms


def log_quad_batch(
    log_f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds,
    *,
    n_owners: int = 1,
    seeds: Optional[np.ndarray] = None,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """``log(integral(exp(log_f)))`` for groups of owners; the owners of a
    group share its range, its seeds and one partition.

    Parameters
    ----------
    log_f:
        Vectorized callable ``log_f(group_ids, x)`` where ``group_ids``
        has shape (m, 1) and ``x`` shape (m, 21), the Kronrod-21 nodes
        of the row's interval; returns the log integrand of every owner
        of the row's group, shape (m, 21, n_owners).  Must tolerate -inf
        results.  The integrator consumes the returned array and may
        overwrite it, so return a new array, not one kept elsewhere; a
        read-only array (such as a ``np.broadcast_to`` view) or one of
        another dtype is copied first.
    bounds:
        Array of shape (n_groups, 2) with each group's integration limits.
        Each group refines a partition of its own, so its results do not
        depend on the other groups in the call.
    n_owners:
        Owners per group.
    seeds:
        Optional interior split points, clipped to each group's bounds:
        shape (m,) shares them among all groups, shape (n_groups, m) gives
        each group its own row.  Use these to pin down narrow peaks.
    rel_tol:
        Relative tolerance on each owner's integral, i.e. absolute
        tolerance on the returned log value.

    Returns
    -------
    Array of shape (n_groups, n_owners) with the log integrals (-inf where
    the integrand vanishes everywhere).

    Each interval is integrated by the Kronrod-21 rule, and an owner has
    converged when its summed |K21 - G10| brackets are within ``rel_tol``
    of its total.  An interval of a group is bisected when any unconverged
    owner of the group needs it split.  A converged owner's total is
    frozen; a group whose owners have all converged leaves the working
    arrays.  The stored (interval x owner) cells, counting finished groups,
    are capped at ``max(40000, 64 n_groups) n_owners`` and at most
    _MAX_CELLS; the cap is checked before each evaluation.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    n_groups = bounds.shape[0]
    max_cells = min(_MAX_CELLS, max(40000, 64 * n_groups) * n_owners)
    log_rtol = math.log(rel_tol)

    # Initial partition: bounds plus clipped seed points, per group.
    pts = bounds
    if seeds is not None and np.size(seeds) > 0:
        seeds = np.clip(np.atleast_2d(np.asarray(seeds, dtype=float)), bounds[:, :1], bounds[:, 1:])
        pts = np.sort(np.concatenate([bounds, seeds], axis=1), axis=1)
    keep = pts[:, 1:] > pts[:, :-1]
    if not keep.any(axis=1).all():
        raise ConvergenceError("empty integration region")
    a, b = pts[:, :-1][keep], pts[:, 1:][keep]
    groups = np.repeat(np.arange(n_groups), keep.shape[1])[keep.ravel()]
    if a.size * n_owners > max_cells:
        raise ConvergenceError(
            f"quadrature needs {a.size} intervals x {n_owners} owners, over the cap of {max_cells} cells"
        )
    terms = _eval_cells(log_f, a, b, groups, n_owners)

    out = np.full((n_groups, n_owners), -np.inf)
    active = np.ones((n_groups, n_owners), dtype=bool)
    n_retired = 0
    # the groups still refining and their interval counts; a group's
    # intervals are consecutive in a, b, groups and terms
    ids, sizes = np.arange(n_groups), np.count_nonzero(keep, axis=1)
    for n_round in range(_MAX_ROUNDS + 1):
        total, err = _group_logsumexp(terms, sizes).transpose(1, 0, 2)
        live = active[ids] & (err > total + log_rtol)
        out[ids] = np.where(active[ids] & ~live, total, out[ids])
        active[ids] = live
        going = live.any(axis=1)
        if not going.all():
            # a finished group's intervals never change again
            keep = np.repeat(going, sizes)
            n_retired += a.size - int(np.count_nonzero(keep))
            a, b, groups, terms = (v[keep] for v in (a, b, groups, terms))
            ids, sizes, total, err, live = (v[going] for v in (ids, sizes, total, err, live))
        if a.size == 0:
            break
        if n_round == _MAX_ROUNDS:
            raise _not_converged(f"after {_MAX_ROUNDS} refinement rounds", total, err, live, ids)
        # Split every interval holding more than its fair share of some live
        # owner's error; each live owner's worst interval exceeds this.
        threshold = np.where(live, total + log_rtol - np.log(4.0 * sizes)[:, None], np.inf)
        split = np.any(terms[:, 1] > _by_interval(threshold, sizes), axis=1)
        n_split = int(np.count_nonzero(split))
        if n_split == 0:  # pragma: no cover - guarded by threshold proof
            raise _not_converged("(no interval to split)", total, err, live, ids)
        if (n_retired + a.size + n_split) * n_owners > max_cells:
            raise _not_converged(f"within {max_cells} cells", total, err, live, ids)
        mid = 0.5 * (a[split] + b[split])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_groups = np.concatenate([groups[split], groups[split]])
        child_terms = _eval_cells(log_f, child_a, child_b, child_groups, n_owners)
        keep = ~split
        a, b, groups, terms = (
            np.concatenate([v[keep], w]) for v, w in
            ((a, child_a), (b, child_b), (groups, child_groups), (terms, child_terms))
        )
        if n_groups > 1:  # back to consecutive groups, each in its own order
            order = np.argsort(groups, kind="stable")
            a, b, groups, terms = (v[order] for v in (a, b, groups, terms))
        sizes = np.bincount(groups, minlength=n_groups)[ids]
    return out


def _not_converged(how: str, total, err, live, group_ids) -> ConvergenceError:
    """The error for an unconverged call, bracketing its worst live owner;
    the arrays have a row per group still refining, with ids ``group_ids``."""
    idx = np.flatnonzero(live)
    total, err = total.ravel(), err.ravel()
    worst = int(idx[np.argmax(err[idx] - total[idx])])
    row, col = divmod(worst, live.shape[1])
    return ConvergenceError(
        f"quadrature failed to converge {how} (worst owner {col} of group {group_ids[row]})",
        bracket=(float(total[worst]), float(err[worst])),
    )
