import math

import numpy as np
import pytest

from bmameta import ConvergenceError, log_quad, log_quad_batch
from bmameta.quadrature import _segment_logsumexp


def test_standard_normal_integrates_to_one():
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    assert log_quad(logf, -9.0, 9.0) == pytest.approx(0.0, abs=1e-9)


def test_scaled_integrand_shifts_log_value():
    offset = -5000.0  # far below exp underflow
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi) + offset
    assert log_quad(logf, -9.0, 9.0) == pytest.approx(offset, abs=1e-9)


def test_gamma_density_normalizes():
    shape, scale = 1.59, 0.26
    const = -math.lgamma(shape) - shape * math.log(scale)

    def logf(x):
        with np.errstate(divide="ignore"):
            return np.where(x > 0, (shape - 1) * np.log(x) - x / scale + const, -np.inf)

    assert log_quad(logf, 0.0, 40.0) == pytest.approx(0.0, abs=1e-9)


def test_polynomial_exact():
    # integral of x^4 on [0, 2] = 32/5; Gauss-7 is exact for degree 13
    logf = lambda x: np.where(x > 0, 4.0 * np.log(np.maximum(x, 1e-300)), -np.inf)
    assert log_quad(logf, 0.0, 2.0) == pytest.approx(math.log(32.0 / 5.0), abs=1e-12)


def test_narrow_peak_needs_seeds():
    # A spike of width 1e-5 at 0.3 inside [0, 1]: seeds pin it down.
    mu, sd = 0.3, 1e-5
    logf = lambda x: -0.5 * ((x - mu) / sd) ** 2 - math.log(sd * math.sqrt(2 * math.pi))
    seeds = mu + sd * np.array([-8.0, -4.0, -2.0, 0.0, 2.0, 4.0, 8.0])
    got = log_quad(logf, 0.0, 1.0, seeds=seeds)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_batch_multiple_owners_match_scalar():
    means = np.array([-1.0, 0.0, 2.5])

    def logf(own, x):
        return -0.5 * (x - means[own]) ** 2 - 0.5 * math.log(2 * math.pi)

    bounds = np.array([[m - 10, m + 10] for m in means])
    got = log_quad_batch(logf, bounds)
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_per_owner_seeds_match_single_owner_calls_bitwise():
    # narrow peaks at different places and widths, each seeded only on its own row
    mus = np.array([-3.1, 0.2, 0.2, 4.7, -0.05])
    sds = np.array([1e-5, 3e-4, 1.0, 1e-3, 1e-6])
    offsets = np.array([-16.0, -4.0, -1.0, 0.0, 1.0, 4.0, 16.0])
    seeds = np.concatenate([np.full((mus.size, 1), 0.3), mus[:, None] + sds[:, None] * offsets], axis=1)
    bounds = np.tile([-10.0, 10.0], (mus.size, 1))

    def logf(own, x):
        return -0.5 * ((x - mus[own]) / sds[own]) ** 2 - np.log(sds[own] * math.sqrt(2 * math.pi))

    for extra_refine in (0, 1):
        got = log_quad_batch(logf, bounds, seeds=seeds, rel_tol=1e-10, extra_refine=extra_refine)
        for i in range(mus.size):
            alone = log_quad_batch(
                lambda own, x: logf(np.full_like(own, i), x), bounds[i:i + 1],
                seeds=seeds[i], rel_tol=1e-10, extra_refine=extra_refine,
            )
            assert got[i] == alone[0], (i, extra_refine)
    np.testing.assert_allclose(got, 0.0, atol=1e-9)


def test_extra_refine_stability():
    logf = lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi)
    base = log_quad(logf, -9.0, 9.0)
    refined = log_quad(logf, -9.0, 9.0, extra_refine=1)
    assert abs(base - refined) < 1e-9


def test_vanishing_integrand_returns_neg_inf():
    logf = lambda x: np.full_like(x, -np.inf)
    assert log_quad(logf, 0.0, 1.0) == -math.inf


def test_convergence_error_carries_bracket():
    # A pathologically rough integrand that never settles at this tolerance.
    rng = np.random.default_rng(0)

    def logf(x):
        return np.log(1.5 + np.sin(1.0 / np.maximum(np.abs(x), 1e-12)))

    with pytest.raises(ConvergenceError) as err:
        log_quad(logf, -1.0, 1.0, rel_tol=1e-13)
    assert len(err.value.bracket) == 2


def test_zero_width_bounds_rejected():
    with pytest.raises(ConvergenceError):
        log_quad(lambda x: np.zeros_like(x), 1.0, 1.0)


def _segment_logsumexp_at(values, owners, n_owners):
    """Reference owner reduction with numpy's scatter ufuncs."""
    peak = np.full(n_owners, -np.inf)
    np.maximum.at(peak, owners, values)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    acc = np.zeros(n_owners)
    np.add.at(acc, owners, np.exp(values - shift[owners]))
    with np.errstate(divide="ignore"):
        out = shift + np.log(acc)
    return np.where(np.isfinite(peak), out, -np.inf)


def test_segment_logsumexp_matches_scatter_reference():
    rng = np.random.default_rng(7)
    n_owners = 40
    owners = rng.permutation(np.repeat(np.arange(n_owners), rng.integers(1, 60, n_owners)))
    owners = owners[owners % 7 != 3]  # owners 3, 10, ... get no entries
    # comparable terms near log 1, so any other summation order shows in the last bits
    values = rng.normal(0.0, 2.0, owners.size)
    values[owners % 5 == 1] = -np.inf  # owners whose every term vanishes
    values[rng.random(owners.size) < 0.1] = -np.inf
    got = _segment_logsumexp(values, owners, n_owners)
    want = _segment_logsumexp_at(values, owners, n_owners)
    assert np.array_equal(got, want)
    assert np.all(got[3::7] == -np.inf) and np.all(got[1::5] == -np.inf)
    assert np.count_nonzero(np.isfinite(got)) > n_owners // 2
