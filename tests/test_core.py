import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmameta import (
    Comparison,
    DegenerateDataError,
    DomainError,
    Study,
    loglik_random,
    smd_from_raw,
)
from bmameta import core
from bmameta.core import loglik_from_stats, random_stats


class TestSmdFromRaw:
    def test_equal_means(self):
        d, se = smd_from_raw(10, 1.0, 1.0, 10, 1.0, 1.0)
        assert d == 0.0
        assert se == pytest.approx(math.sqrt(0.2), abs=1e-12)

    def test_hand_evaluated(self):
        d, se = smd_from_raw(50, 0.5, 1.0, 50, 0.0, 1.0)
        assert d == pytest.approx(0.5, abs=1e-12)
        want_var = 100.0 / 2500.0 + 0.25 / 200.0
        assert se == pytest.approx(math.sqrt(want_var), abs=1e-12)

    def test_degenerate_arms(self):
        with pytest.raises(DegenerateDataError):
            smd_from_raw(2, 0.0, 0.0, 2, 0.0, 0.0)

    @pytest.mark.parametrize("n, sd", [(30, 1e-160), (30, 1e-170), (30, 1e-300), (30, 5e-324), (200, 1e-155)])
    def test_tiny_equal_sds_give_the_mean_difference_over_the_sd(self, n, sd):
        # the pooled variance is subnormal (1e-160; and at n = 200 and
        # 1e-155, where the weighted squares sum to a normal 4e-308) or 0
        # (1e-170 and below), so the pooled SD is formed from the sds over
        # the larger
        d, se = smd_from_raw(n, sd, sd, n, 0.0, sd)
        assert abs(d - 1.0) <= math.ulp(1.0)
        assert se == pytest.approx(math.sqrt(2 * n / n**2 + 1 / (4 * n)), rel=1e-15)

    def test_normal_squares_keep_their_bits(self):
        # wherever the pooled variance is a normal float, the pooled SD is
        # formed directly, as it always was
        for sd1, sd2 in ((1.0, 2.0), (1e-150, 3e-150), (1.0, 1e-170), (1e150, 1e-200)):
            d, _ = smd_from_raw(12, 0.7, sd1, 9, 0.1, sd2)
            assert d == (0.7 - 0.1) / math.sqrt((11 * sd1**2 + 8 * sd2**2) / 19)

    def test_small_arms_rejected(self):
        with pytest.raises(DomainError):
            smd_from_raw(1, 0.0, 1.0, 5, 0.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        n1=st.integers(min_value=2, max_value=200),
        n2=st.integers(min_value=2, max_value=200),
        m1=st.floats(min_value=-5, max_value=5),
        m2=st.floats(min_value=-5, max_value=5),
        sd1=st.floats(min_value=0.1, max_value=4.0),
        sd2=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_sign_flip_on_arm_swap(self, n1, n2, m1, m2, sd1, sd2):
        d_ab, se_ab = smd_from_raw(n1, m1, sd1, n2, m2, sd2)
        d_ba, se_ba = smd_from_raw(n2, m2, sd2, n1, m1, sd1)
        assert d_ab == pytest.approx(-d_ba, abs=1e-12)
        assert se_ab == pytest.approx(se_ba, rel=1e-12)


class TestValidation:
    def test_se_positive(self):
        with pytest.raises(DomainError):
            Study(0.0, 0.0)
        with pytest.raises(DomainError):
            Study(float("nan"), 1.0)

    def test_comparison_nonempty(self):
        with pytest.raises(DomainError):
            Comparison(())


class TestLoglikFixed:
    """The fixed-effect likelihood: ``loglik_random`` at tau = 0."""

    def test_standard_normal_at_zero(self):
        c = Comparison((Study(0.0, 1.0),))
        assert loglik_random(0.0, 0.0, c) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_two_identical_studies_double(self):
        one = Comparison((Study(0.4, 0.7),))
        two = Comparison((Study(0.4, 0.7), Study(0.4, 0.7)))
        assert loglik_random(0.1, 0.0, two) == loglik_random(0.1, 0.0, one) * 2.0

    def test_five_study_term_by_term_oracle(self, rng):
        y = rng.normal(0.2, 0.5, 5)
        se = rng.uniform(0.2, 0.8, 5)
        c = Comparison(tuple(Study(float(a), float(b)) for a, b in zip(y, se)))
        delta = 0.37
        oracle = sum(
            -0.5 * ((yi - delta) ** 2 / si**2 + math.log(2 * math.pi * si**2))
            for yi, si in zip(y, se)
        )
        assert loglik_random(delta, 0.0, c) == pytest.approx(oracle, abs=1e-12)

    def test_maximized_at_weighted_mean(self, rng):
        y = rng.normal(0.1, 0.4, 6)
        se = rng.uniform(0.1, 0.9, 6)
        c = Comparison(tuple(Study(float(a), float(b)) for a, b in zip(y, se)))
        w = 1.0 / se**2
        wmean = float(np.sum(w * y) / np.sum(w))
        # golden-section search over a wide bracket
        phi = (math.sqrt(5) - 1) / 2
        a, b = -5.0, 5.0
        cc, dd = b - phi * (b - a), a + phi * (b - a)
        while b - a > 1e-12:
            if loglik_random(cc, 0.0, c) >= loglik_random(dd, 0.0, c):
                b, dd = dd, cc
                cc = b - phi * (b - a)
            else:
                a, cc = cc, dd
                dd = a + phi * (b - a)
        assert 0.5 * (a + b) == pytest.approx(wmean, abs=1e-8)


class TestLoglikRandom:
    def test_one_study_closed_form(self):
        c = Comparison((Study(0.0, 1.0),))
        assert loglik_random(0.0, 1.0, c) == pytest.approx(-0.5 * math.log(4 * math.pi), abs=1e-14)

    def test_unimodal_in_delta(self, rng):
        y = rng.normal(0.3, 0.2, 5)
        se = rng.uniform(0.2, 0.5, 5)
        c = Comparison(tuple(Study(float(a), float(b)) for a, b in zip(y, se)))
        tau = 0.3
        w = 1.0 / (se**2 + tau**2)
        wmean = float(np.sum(w * y) / np.sum(w))
        offsets = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        values_right = loglik_random(wmean + offsets, tau, c)
        values_left = loglik_random(wmean - offsets, tau, c)
        assert np.all(np.diff(values_right) < 0)
        assert np.all(np.diff(values_left) < 0)

    def test_negative_tau_rejected(self):
        c = Comparison((Study(0.0, 1.0),))
        with pytest.raises(DomainError):
            loglik_random(0.0, -0.1, c)

    def test_broadcasting_shapes(self):
        c = Comparison((Study(0.1, 0.5), Study(0.4, 0.3)))
        out = loglik_random(np.zeros((7, 15)), np.full((7, 1), 0.2), c)
        assert out.shape == (7, 15)
        out1 = loglik_random(0.0, np.linspace(0, 1, 9), c)
        assert out1.shape == (9,)

    def test_order_invariance_bitwise(self, rng):
        y = rng.normal(0, 1, 6)
        se = rng.uniform(0.2, 1.0, 6)
        studies = tuple(Study(float(a), float(b)) for a, b in zip(y, se))
        fwd = Comparison(studies)
        rev = Comparison(studies[::-1])
        assert loglik_random(0.2, 0.4, fwd) == loglik_random(0.2, 0.4, rev)


class TestLikelihoodStatistics:
    @staticmethod
    def direct(delta, tau, c):
        """The centred likelihood with every term formed in one expression,
        in the same arithmetic order as the split into statistics and
        combine."""
        y, se = c._canonical
        v = se**2 + (tau * tau)[..., None]
        inv = 1.0 / v
        mu = (np.sum(inv * y, axis=-1) / np.sum(inv, axis=-1))[..., None]
        return -0.5 * (
            y.size * math.log(2.0 * math.pi) + np.sum(np.log(v), axis=-1)
            + np.sum(inv * (y - mu) * (y - mu), axis=-1)
            + np.sum(inv, axis=-1) * (delta - mu[..., 0]) ** 2
        )

    @pytest.mark.parametrize("k", [1, 3, 12, 60])
    def test_statistics_reproduce_loglik_random_bitwise(self, k, rng):
        c = Comparison(tuple(
            Study(float(y), float(s))
            for y, s in zip(rng.normal(0.3, 0.5, k), rng.uniform(0.05, 0.4, k))
        ))
        tau = rng.uniform(0.0, 1.5, (7, 15))
        delta = rng.normal(0.0, 2.0, (7, 1))
        direct = self.direct(delta, tau, c)
        assert np.array_equal(loglik_random(delta, tau, c), direct)
        # statistics of one tau row serve every delta it meets
        stats = random_stats(tau[2], c)
        for d in delta[:, 0]:
            assert np.array_equal(loglik_from_stats(stats, d), self.direct(d, tau[2], c))
        assert np.array_equal(loglik_random(delta, 0.0, c), self.direct(delta, np.zeros(1), c))

    @pytest.mark.parametrize("k", [1, 9, 200])
    def test_statistics_of_a_large_batch_match_each_value_alone_bitwise(self, k, rng):
        # a batch past core._STATS_CELLS (tau x study) terms is reduced in
        # passes; every value keeps the bits of a call of its own
        c = Comparison(tuple(
            Study(float(y), float(s))
            for y, s in zip(rng.normal(0.3, 0.5, k), rng.uniform(0.01, 0.4, k))
        ))
        tau = rng.uniform(0.0, 1.5, (core._STATS_CELLS // (15 * k) + 3, 15))
        batch = random_stats(tau, c)
        for i, j in [(0, 0), (tau.shape[0] // 2, 7), (tau.shape[0] - 1, 14)]:
            alone = random_stats(tau[i, j], c)
            assert all(b[i, j] == a for b, a in zip(batch, alone)), (i, j)
        rows = random_stats(tau[-2:], c)
        assert all(np.array_equal(b[-2:], r) for b, r in zip(batch, rows))
