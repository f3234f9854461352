import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bmameta import ConvergenceError, log_quad_batch
from bmameta import quadrature


def one_integral(logf, lower, upper, **kwargs):
    """log_quad_batch on one group of one owner, for an integrand of x alone."""
    return float(log_quad_batch(lambda _grp, x: logf(x)[..., None], [[lower, upper]], **kwargs)[0, 0])


def test_standard_normal_integrates_to_one():
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    assert one_integral(logf, -9.0, 9.0) == pytest.approx(0.0, abs=1e-9)


def test_scaled_integrand_shifts_log_value():
    offset = -5000.0  # far below exp underflow
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi) + offset
    assert one_integral(logf, -9.0, 9.0) == pytest.approx(offset, abs=1e-9)


def test_gamma_density_normalizes():
    shape, scale = 1.59, 0.26
    const = -math.lgamma(shape) - shape * math.log(scale)

    def logf(x):
        with np.errstate(divide="ignore"):
            return np.where(x > 0, (shape - 1) * np.log(x) - x / scale + const, -np.inf)

    assert one_integral(logf, 0.0, 40.0) == pytest.approx(0.0, abs=1e-9)


def test_polynomial_exact():
    # integral of x^4 on [0, 2] = 32/5; Gauss-10 is exact for degree 19
    logf = lambda x: np.where(x > 0, 4.0 * np.log(np.maximum(x, 1e-300)), -np.inf)
    assert one_integral(logf, 0.0, 2.0) == pytest.approx(math.log(32.0 / 5.0), abs=1e-12)


def test_narrow_peak_needs_seeds():
    # A spike of width 1e-5 at 0.3 inside [0, 1]: seeds pin it down.
    mu, sd = 0.3, 1e-5
    logf = lambda x: -0.5 * ((x - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
    seeds = mu + sd * np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0])
    got = one_integral(logf, 0.0, 1.0, seeds=seeds)
    assert got == pytest.approx(0.0, abs=1e-8)


def _moment(d):
    """integral of x**d over [-1, 1], as an exact fraction."""
    return Fraction(2, d + 1) if d % 2 == 0 else Fraction(0)


def _legendre(n):
    """Coefficients of the Legendre polynomial P_n, lowest degree first."""
    p0, p1 = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(p1):
            nxt[i + 1] += Fraction(2 * k + 1, k + 1) * c
        for i, c in enumerate(p0):
            nxt[i] -= Fraction(k, k + 1) * c
        p0, p1 = p1, nxt
    return p1


def _stieltjes(n):
    """Coefficients of the Stieltjes polynomial E_{n+1} of P_n (n even),
    lowest degree first: monic, odd, and orthogonal to x**k P_n for
    k = 0..n, from the exact moment equations."""
    p = _legendre(n)
    odd = list(range(1, n + 1, 2))

    def dot(e, k):
        return sum(c * _moment(i + e + k) for i, c in enumerate(p))

    rows = [[dot(e, k) for e in odd] + [-dot(n + 1, k)] for k in odd]
    for i in range(len(odd)):  # Gauss-Jordan on fractions
        j = next(r for r in range(i, len(odd)) if rows[r][i] != 0)
        rows[i], rows[j] = rows[j], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(len(odd)):
            if r != i:
                rows[r] = [v - rows[r][i] * w for v, w in zip(rows[r], rows[i])]
    coeffs = [Fraction(0)] * (n + 2)
    coeffs[n + 1] = Fraction(1)
    for e, row in zip(odd, rows):
        coeffs[e] = row[-1]
    return coeffs


def test_rule_table_is_qk21_to_one_ulp():
    # K21/G10 recomputed at 50 digits: the Gauss nodes are the zeros of
    # P_10, the Kronrod nodes those of P_10 and of its Stieltjes polynomial
    # E_11, and each rule's weights solve its moment equations
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        def zeros(coeffs):
            roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=500)
            return sorted(mp.re(r) for r in roots)

        def weights(x):
            v = mp.matrix([[xi ** d for xi in x] for d in range(len(x))])
            m = mp.matrix([mp.mpf(_moment(d).numerator) / _moment(d).denominator for d in range(len(x))])
            return list(mp.lu_solve(v, m))

        gauss = zeros(_legendre(10))
        kronrod = sorted(gauss + zeros(_stieltjes(10)))
        want = {"nodes": kronrod, "kronrod": weights(kronrod), "gauss": weights(gauss)}
        for d in range(34):
            exact = mp.mpf(_moment(d).numerator) / _moment(d).denominator
            k21 = mp.fsum(w * x ** d for w, x in zip(want["kronrod"], kronrod))
            g10 = mp.fsum(w * x ** d for w, x in zip(want["gauss"], gauss))
            # odd degrees integrate to 0 by symmetry
            assert (abs(k21 - exact) < mp.mpf(10) ** -40) == (d <= 31 or d % 2 == 1), d
            assert (abs(g10 - exact) < mp.mpf(10) ** -40) == (d <= 19 or d % 2 == 1), d
        want = {k: np.array([float(v) for v in vals]) for k, vals in want.items()}
    got = {"nodes": quadrature._NODES, "kronrod": quadrature._WEIGHTS_K, "gauss": quadrature._WEIGHTS_G[1::2]}
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert np.all(np.abs(got[key] - want[key]) <= np.spacing(np.abs(want[key]))), key
    assert np.array_equal(quadrature._NODES[1::2], want["nodes"][1::2])
    assert np.all(quadrature._WEIGHTS_G[::2] == 0.0)


def test_rule_table_integrates_polynomials_to_its_degree():
    # in double precision, K21 is exact to rounding up to degree 31 and
    # G10 up to 19, and neither is one degree further
    x, wk, wg = quadrature._NODES, quadrature._WEIGHTS_K, quadrature._WEIGHTS_G
    assert x.size == 21 and np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert math.fsum(wk) == 2.0 and math.fsum(wg) == 2.0
    for d in range(34):
        exact = float(_moment(d))
        for w, degree in ((wk, 31), (wg, 19)):
            err = abs(math.fsum(w * x ** d) - exact)
            if d <= degree:
                assert err <= 1e-15 * max(exact, 1.0), (d, degree, err)
            elif d % 2 == 0:
                assert err > 1e-12 * exact, (d, degree, err)


def _normals(mus, sds):
    """``log_f(grp, x)`` with one owner per group: group g is the normal
    density N(mus[g], sds[g]**2)."""
    def logf(grp, x):
        z = (x - mus[grp]) / sds[grp]
        return (-0.5 * z * z - np.log(sds[grp] * math.sqrt(2 * math.pi)))[..., None]
    return logf


def _alone(logf, g):
    """``logf`` with every row evaluated as group ``g``."""
    return lambda grp, x: logf(np.full_like(grp, g), x)


def test_batch_multiple_groups_match_scalar():
    means = np.array([-1.0, 0.0, 2.5])
    bounds = np.array([[m - 10, m + 10] for m in means])
    got = log_quad_batch(_normals(means, np.ones(3)), bounds)
    assert got.shape == (3, 1)
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_per_group_bounds_and_seeds_match_single_group_calls_bitwise():
    # narrow peaks at different places and widths, each seeded only on its
    # own row, in ranges of different widths
    mus = np.array([-3.1, 0.2, 0.2, 4.7, -0.05])
    sds = np.array([1e-5, 3e-4, 1.0, 1e-3, 1e-6])
    offsets = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0])
    seeds = np.concatenate([np.full((mus.size, 1), 0.3), mus[:, None] + sds[:, None] * offsets], axis=1)
    bounds = np.array([[-10.0, 10.0], [-1.0, 7.0], [-12.0, 9.0], [-5.0, 5.0], [-0.5, 20.0]])
    logf = _normals(mus, sds)

    got = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10)
    for i in range(mus.size):
        alone = log_quad_batch(_alone(logf, i), bounds[i:i + 1], seeds=seeds[i], rel_tol=1e-10)
        assert got[i, 0] == alone[0, 0], i
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_shared_seed_row_is_clipped_to_each_groups_bounds():
    # one seed row for all groups equals each group's own in-range seeds
    mus, sds = np.array([0.3, 2.0]), np.array([1e-4, 1e-3])
    seeds = (mus[:, None] + sds[:, None] * np.array([-8.0, 0.0, 8.0])).ravel()
    bounds = np.array([[-1.0, 1.0], [1.5, 4.0]])
    logf = _normals(mus, sds)
    got = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10)
    for i in range(2):
        own = seeds[(seeds > bounds[i, 0]) & (seeds < bounds[i, 1])]
        assert own.size == 3
        alone = log_quad_batch(_alone(logf, i), bounds[i], seeds=own, rel_tol=1e-10)
        assert got[i, 0] == alone[0, 0], i
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_batch_bits_do_not_depend_on_the_other_groups():
    # many groups whose intervals sit at every place in the batch's arrays:
    # a group's bits must match a call of its own
    rng = np.random.default_rng(3)
    mus = rng.uniform(-2.0, 2.0, 40)
    sds = np.exp(rng.uniform(np.log(1e-3), 0.0, 40))
    seeds = mus[:, None] + sds[:, None] * np.array([-8.0, -2.0, 0.0, 2.0, 8.0])
    bounds = np.tile([-10.0, 10.0], (mus.size, 1))
    logf = _normals(mus, sds)

    got = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10)
    for i in range(mus.size):
        alone = log_quad_batch(_alone(logf, i), bounds[i:i + 1], seeds=seeds[i], rel_tol=1e-10)
        assert got[i, 0] == alone[0, 0], i


def _peak_and_flat_groups(flat_sizes=(31, 31, 31)):
    """Group 0 is a 1e-6-wide seeded peak that needs many rounds; the other
    groups are flat and converge on their initial partition, of
    ``flat_sizes`` intervals (seed rows padded with the lower bound)."""
    mu, sd = 0.3, 1e-6
    width = max(flat_sizes) - 1
    peak_seeds = np.concatenate([mu + sd * np.array([-8.0, 0.0, 8.0]), np.full(width - 3, -1.0)])
    flat_seeds = [np.concatenate([np.linspace(-0.9, 0.9, n - 1), np.full(width - n + 1, -1.0)])
                  for n in flat_sizes]
    seeds = np.vstack([peak_seeds] + flat_seeds)
    bounds = np.tile([-1.0, 1.0], (seeds.shape[0], 1))
    levels = np.concatenate([[0.0], np.linspace(0.5, -2.0, len(flat_sizes))])

    def logf(grp, x):
        peak = -0.5 * ((x - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
        return np.where(grp == 0, peak, levels[grp] + 0.0 * x)[..., None]

    return logf, bounds, seeds, levels


def _recording(logf, seen):
    def wrapped(grp, x):
        seen.append(grp[:, 0].copy())
        return logf(grp, x)
    return wrapped


def test_retired_groups_match_single_group_calls_bitwise():
    logf, bounds, seeds, levels = _peak_and_flat_groups()
    seen = []
    got = log_quad_batch(_recording(logf, seen), bounds, seeds=seeds, rel_tol=1e-10)
    refinement = seen[1:]
    assert len(refinement) >= 2 and all(np.all(g == 0) for g in refinement), \
        "the flat groups must leave the batch after the first round"
    for i in range(4):
        alone = log_quad_batch(_alone(logf, i), bounds[i:i + 1], seeds=seeds[i], rel_tol=1e-10)
        assert got[i, 0] == alone[0, 0], i
    np.testing.assert_allclose(got[:, 0], [0.0, *(math.log(2.0) + levels[1:])], atol=1e-9)


def test_cell_cap_counts_retired_groups():
    # n groups x 1 owner store at most 40000 intervals, finished groups
    # included: flat groups that retire at once fill the cap up to the
    # peak group's final partition, then one interval past it
    logf, bounds, seeds, _ = _peak_and_flat_groups()
    seen = []
    log_quad_batch(_recording(_alone(logf, 0), seen), bounds[:1], seeds=seeds[0], rel_tol=1e-10)
    peak_intervals = seen[0].size + sum(g.size for g in seen[1:]) // 2
    room = 40000 - peak_intervals
    for spare, fits in ((0, True), (1, False)):
        flat = (room // 3, room // 3, room - 2 * (room // 3) + spare)
        logf, bounds, seeds, _ = _peak_and_flat_groups(flat)
        if fits:
            got = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10)
            alone = log_quad_batch(_alone(logf, 0), bounds[:1], seeds=seeds[0], rel_tol=1e-10)
            assert got[0, 0] == alone[0, 0]
        else:
            with pytest.raises(ConvergenceError, match="within 40000 cells"):
                log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10)


def test_bracket_skips_retired_groups():
    # group 0 vanishes and retires at once with total and error both -inf
    def logf(grp, x):
        rough = np.log(1.5 + np.sin(1.0 / np.maximum(np.abs(x), 1e-12)))
        return np.where(grp == 0, -np.inf, rough)[..., None]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="worst owner 0 of group 1") as err:
            log_quad_batch(logf, np.tile([-1.0, 1.0], (2, 1)), rel_tol=1e-13)
    assert all(math.isfinite(v) for v in err.value.bracket)


def test_empty_group_rejected():
    with pytest.raises(ConvergenceError, match="empty"):
        log_quad_batch(lambda grp, x: np.zeros(x.shape + (1,)), [[0.0, 1.0], [2.0, 2.0]])


def test_tighter_tolerance_stability():
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    base = one_integral(logf, -9.0, 9.0)
    refined = one_integral(logf, -9.0, 9.0, rel_tol=1e-11)
    assert abs(base - refined) < 1e-9


def test_vanishing_integrand_returns_neg_inf():
    logf = lambda x: np.full_like(x, -np.inf)
    assert one_integral(logf, 0.0, 1.0) == -math.inf


def test_convergence_error_carries_bracket():
    # A pathologically rough integrand that never settles at this tolerance.
    rng = np.random.default_rng(0)

    def logf(x):
        return np.log(1.5 + np.sin(1.0 / np.maximum(np.abs(x), 1e-12)))

    with pytest.raises(ConvergenceError) as err:
        one_integral(logf, -1.0, 1.0, rel_tol=1e-13)
    assert len(err.value.bracket) == 2


def test_zero_width_bounds_rejected():
    with pytest.raises(ConvergenceError):
        one_integral(lambda x: np.zeros_like(x), 1.0, 1.0)


def test_group_logsumexp_segments_do_not_depend_on_each_other():
    # each segment's columns equal a reduction of that segment alone, bit
    # for bit, with vanishing columns and segments at -inf
    rng = np.random.default_rng(7)
    sizes = rng.integers(1, 60, 40)
    starts = np.cumsum(sizes) - sizes
    # comparable terms near log 1, so any other summation order shows in the last bits
    values = rng.normal(0.0, 2.0, (int(sizes.sum()), 3))
    values[rng.random(values.shape) < 0.1] = -np.inf
    values[:, 2] = -np.inf
    for s, n in zip(starts[::5], sizes[::5]):
        values[s:s + n] = -np.inf
    got = quadrature._group_logsumexp(values, sizes)
    for g, (s, n) in enumerate(zip(starts, sizes)):
        assert np.array_equal(got[g], quadrature._group_logsumexp(values[s:s + n], np.array([n]))[0]), g
    assert np.all(got[:, 2] == -np.inf) and np.all(got[::5] == -np.inf)
    assert np.count_nonzero(np.isfinite(got)) > sizes.size


def _kronrod_allocating(lf, half):
    """The Kronrod rule as it was written before it ran in place: fresh
    arrays for the shifted exponentials and for every node's term."""
    peak = np.max(lf, axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = lf - shift[:, None]
    np.exp(scaled, out=scaled)
    n = quadrature._NODES.size
    sum_k = quadrature._WEIGHTS_K[0] * scaled[:, 0]
    for j in range(1, n):
        sum_k += quadrature._WEIGHTS_K[j] * scaled[:, j]
    sum_g = quadrature._WEIGHTS_G[1] * scaled[:, 1]
    for j in range(3, n, 2):
        sum_g += quadrature._WEIGHTS_G[j] * scaled[:, j]
    with np.errstate(divide="ignore"):
        log_half = np.log(half)[:, None]
        log_k = np.where(sum_k > 0, shift + np.log(np.maximum(sum_k, 1e-300)) + log_half, -np.inf)
        diff = np.abs(sum_k - sum_g)
        log_e = np.where(diff > 0, shift + np.log(np.maximum(diff, 1e-300)) + log_half, -np.inf)
    bad = ~np.isfinite(peak)
    log_k[bad] = -np.inf
    log_e[bad] = -np.inf
    return log_k, log_e


def _group_logsumexp_allocating(values, sizes):
    """The segment log-sum-exp as it was written before it ran in place."""
    starts = np.cumsum(sizes) - sizes
    peak = np.maximum.reduceat(values, starts, axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    acc = np.add.reduceat(np.exp(values - np.repeat(shift, sizes, axis=0)), starts, axis=0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(acc)
    return np.where(np.isfinite(peak), out, -np.inf)


def _awkward_cells(rng, m, owners):
    """log integrand values of shape (m, nodes, owners) on very different
    scales, with an interval that vanishes for every owner, owners that
    vanish on one interval, and cells at +inf, NaN and -inf."""
    lf = rng.normal(0.0, 3.0, (m, quadrature._NODES.size, owners)) + rng.normal(0.0, 300.0, (m, 1, owners))
    lf[0] = -np.inf
    lf[1, :, ::3] = -np.inf
    lf[2, 4, ::5] = np.inf
    lf[3, 9, 1::4] = np.nan
    lf[rng.random(lf.shape) < 0.05] = -np.inf
    return lf


@pytest.mark.parametrize("owners", [1, 15, 2048])
def test_kronrod_in_place_matches_allocating_rule_bitwise(owners):
    rng = np.random.default_rng(owners)
    m = 6 if owners == 2048 else 40
    lf = _awkward_cells(rng, m, owners)
    half = rng.uniform(1e-6, 3.0, m)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and +inf cells
        want = _kronrod_allocating(lf.copy(), half)
        got = quadrature._kronrod(lf.copy(), half)
    for g, w in zip(got, want):
        assert g.shape == (m, owners)
        assert np.array_equal(g, w)
    assert np.all(got[0][0] == -np.inf) and got[0][2, 0] == -np.inf, "vanishing and +inf cells read -inf"
    assert np.isfinite(got[0]).any()


@pytest.mark.parametrize("owners", [1, 15, 2048])
def test_group_logsumexp_in_place_matches_allocating_version_bitwise(owners):
    rng = np.random.default_rng(owners + 1)
    sizes = np.array([3, 1, 7, 2, 5]) if owners == 2048 else rng.integers(1, 30, 12)
    values = rng.normal(0.0, 2.0, (int(sizes.sum()), 2, owners)) + rng.normal(0.0, 50.0, (1, 1, owners))
    values[:sizes[0]] = -np.inf
    values[sizes[0], 0, ::2] = np.inf
    values[-1, 1, 1::3] = np.nan
    values[rng.random(values.shape) < 0.1] = -np.inf
    for segments in (sizes, np.array([sizes.sum()])):
        want = _group_logsumexp_allocating(values, segments)
        got = quadrature._group_logsumexp(values, segments)
        assert got.shape == (segments.size, 2, owners)
        assert np.array_equal(got, want)
    assert np.all(quadrature._group_logsumexp(values, sizes)[0] == -np.inf)


def test_integrands_the_rule_may_not_write_are_copied():
    # the integrator consumes log_f's result in place; a read-only array, a
    # broadcast view and an integer array are copied first, so each call
    # returns the same value as a plain integrand and leaves them intact
    def normal(x):
        return -0.5 * x * x - 0.5 * math.log(2 * math.pi)

    kept = {}

    def read_only(x):
        out = normal(x)
        out.flags.writeable = False
        kept[out.tobytes()] = out
        return out

    want = one_integral(normal, -9.0, 9.0)
    assert one_integral(read_only, -9.0, 9.0) == want
    assert all(out.tobytes() == key for key, out in kept.items())
    shared = log_quad_batch(lambda grp, x: np.broadcast_to(normal(x)[..., None], x.shape + (3,)),
                            [(-9.0, 9.0)], n_owners=3)
    assert np.all(shared == want)
    assert one_integral(lambda x: np.zeros(x.shape, dtype=np.int64), 0.0, 2.0) == pytest.approx(math.log(2.0),
                                                                                              abs=1e-15)


# --------------------------------------------------------------------------
# owners of one group: one range, one set of seeds, one partition
# --------------------------------------------------------------------------

SHARED_BOUNDS = [(-10.0, 10.0)]
SHARED_SEEDS = np.array([-3.1, -1.0, 0.0, 0.2, 1.0, 4.7])


def _shared_owners():
    """log densities of different shapes on [-10, 10], as functions of x:
    normal peaks of different widths and places, a heavy-tailed t, a flat
    density and a one-sided exponential."""
    def normal(m, s):
        return lambda x: -0.5 * ((x - m) / s) ** 2 - math.log(s * math.sqrt(2 * math.pi))

    def exponential(x):
        with np.errstate(invalid="ignore"):
            return np.where(x >= 0.0, -2.0 * np.abs(x) + math.log(2.0), -np.inf)

    return [
        normal(-3.1, 0.05), normal(0.2, 1.0), normal(4.7, 0.3),
        lambda x: -np.log1p(x * x) - math.log(math.pi),
        lambda x: np.full_like(x, -math.log(20.0)),
        exponential,
    ]


def _stack(owners):
    return lambda _grp, x: np.stack([f(x) for f in owners], axis=-1)


def test_shared_partition_matches_single_owner_calls():
    owners = _shared_owners()
    got = log_quad_batch(_stack(owners), SHARED_BOUNDS, n_owners=len(owners), seeds=SHARED_SEEDS, rel_tol=1e-10)
    assert got.shape == (1, len(owners))
    for j, f in enumerate(owners):
        alone = one_integral(f, *SHARED_BOUNDS[0], seeds=SHARED_SEEDS, rel_tol=1e-10)
        assert abs(got[0, j] - alone) <= 1e-13, (j, got[0, j] - alone)


def test_shared_converged_owner_is_frozen():
    # the flat owner converges on the initial partition and keeps that
    # total while the peak owner refines the partition around it
    mu, sd = 0.3, 1e-6
    seeds = mu + sd * np.array([-8.0, 0.0, 8.0])

    def logf(_grp, x):
        z = (x - mu) / sd
        return np.stack([-0.5 * z * z - math.log(sd * math.sqrt(2 * math.pi)), np.full_like(x, -math.log(2.0))],
                        axis=-1)

    got = log_quad_batch(logf, [(-1.0, 1.0)], n_owners=2, seeds=seeds, rel_tol=1e-10)
    alone = log_quad_batch(lambda grp, x: logf(grp, x)[..., 1:], [(-1.0, 1.0)], seeds=seeds, rel_tol=1e-10)
    assert got[0, 1] == alone[0, 0]
    np.testing.assert_allclose(got[0], 0.0, atol=1e-9)


def test_shared_owner_vanishing_everywhere():
    owners = _shared_owners()[:2] + [lambda x: np.full_like(x, -np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_quad_batch(_stack(owners), SHARED_BOUNDS, n_owners=3, seeds=SHARED_SEEDS, rel_tol=1e-10)
    assert got[0, 2] == -np.inf
    np.testing.assert_allclose(got[0, :2], 0.0, atol=1e-9)


def test_shared_tighter_tolerance_stability():
    owners = _shared_owners()
    base = log_quad_batch(_stack(owners), SHARED_BOUNDS, n_owners=len(owners), seeds=SHARED_SEEDS)
    refined = log_quad_batch(_stack(owners), SHARED_BOUNDS, n_owners=len(owners), seeds=SHARED_SEEDS,
                             rel_tol=1e-11)
    assert np.all(np.abs(base - refined) < 1e-9)


def test_groups_do_not_depend_on_each_other_bitwise():
    # group g integrates normals centred at centres[g] with two widths; each
    # group's results must equal a call of its own, bit for bit
    centres = np.array([-3.1, 0.2, 4.7, 0.21])
    widths = np.array([0.01, 0.5])

    def logf(grp, x):
        z = (x[..., None] - centres[grp][..., None]) / widths
        return -0.5 * z * z - np.log(widths * math.sqrt(2 * math.pi))

    got = log_quad_batch(logf, SHARED_BOUNDS * centres.size, n_owners=2, seeds=SHARED_SEEDS, rel_tol=1e-10)
    for g in range(centres.size):
        alone = log_quad_batch(_alone(logf, g), SHARED_BOUNDS, n_owners=2, seeds=SHARED_SEEDS, rel_tol=1e-10)
        assert np.array_equal(got[g], alone[0]), g
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_shared_bracket_names_the_worst_active_owner():
    # owner 0 vanishes, owner 1 converges at once, owner 2 never settles
    def logf(_grp, x):
        rough = np.log(1.5 + np.sin(1.0 / np.maximum(np.abs(x), 1e-12)))
        return np.stack([np.full_like(x, -np.inf), np.zeros_like(x), rough], axis=-1)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="worst owner 2 of group 0") as err:
            log_quad_batch(logf, [(-1.0, 1.0)], n_owners=3, rel_tol=1e-13)
    total, err_bound = err.value.bracket
    assert math.isfinite(total) and err_bound > total + math.log(1e-13)


def test_shared_cell_cap_raises_before_evaluating(monkeypatch):
    def refuse(_grp, x):
        raise AssertionError("the integrand must not run")

    with pytest.raises(ConvergenceError, match="cap"):
        log_quad_batch(refuse, SHARED_BOUNDS, n_owners=10**9, seeds=SHARED_SEEDS)

    # a narrow peak that needs many rounds: no evaluation passes the cap;
    # seeded 80 widths apart, it needs several rounds of the 21-point rule
    mu, sd = 0.3, 1e-7
    evaluated = []

    def peak(_grp, x):
        evaluated.append(x.shape[0] * 4)
        z = (x - mu) / sd
        return np.repeat((-0.5 * z * z)[..., None], 4, axis=-1)

    seeds = mu + sd * np.array([-80.0, 0.0, 80.0])
    def stored():  # a split keeps both children in place of their parent
        return evaluated[0] + sum(evaluated[1:]) // 2

    log_quad_batch(peak, [(-1.0, 1.0)], n_owners=4, seeds=seeds, rel_tol=1e-10)
    assert len(evaluated) >= 4
    cap = stored() // 2
    evaluated.clear()
    monkeypatch.setattr(quadrature, "_MAX_CELLS", cap)
    with pytest.raises(ConvergenceError, match="within"):
        log_quad_batch(peak, [(-1.0, 1.0)], n_owners=4, seeds=seeds, rel_tol=1e-10)
    assert stored() <= cap
