import logging
import math

import numpy as np
import pytest

from bmameta import marginal
from bmameta import (
    Comparison,
    ModelSpec,
    ParameterError,
    PriorSpec,
    Study,
    UnsupportedOperationError,
    build_standard_ensemble,
    general_candidate_set,
    log_marginal,
    loglik_fixed,
    loglik_random,
    posterior_summary,
)
from bmameta.core import random_stats
from conftest import make_comparison

POINT0 = PriorSpec.point(0.0)
T_POOLED = PriorSpec.t(0.0, 0.43, 5.0)
IG_POOLED = PriorSpec.invgamma(1.71, 0.40)
# a 120-study comparison, so the random_H0 integrand meets all studies at once
LARGE_Y = tuple(round(0.3 + 0.5 * math.sin(1.7 * i), 4) for i in range(120))
LARGE_SE = tuple(round(0.1 + 0.05 * (i % 5), 4) for i in range(120))


def h0f():
    return ModelSpec("fixed_H0", POINT0, POINT0)


def h1f(prior):
    return ModelSpec("fixed_H1", prior, POINT0)


def h0r(prior):
    return ModelSpec("random_H0", POINT0, prior)


def h1r(dprior, tprior):
    return ModelSpec("random_H1", dprior, tprior)


class TestModelSpec:
    def test_model_types(self):
        assert h0f().model_type == "fixed_H0"
        assert h1f(T_POOLED).model_type == "fixed_H1"
        assert h0r(IG_POOLED).model_type == "random_H0"
        assert h1r(T_POOLED, IG_POOLED).model_type == "random_H1"

    def test_tau_prior_support_checked(self):
        with pytest.raises(ParameterError):
            ModelSpec("bad", POINT0, PriorSpec.normal(0.0, 1.0))
        with pytest.raises(ParameterError):
            ModelSpec("bad", POINT0, PriorSpec.uniform(-1.0, 1.0))


class TestLogMarginal:
    def test_h0f_closed_form(self):
        c = Comparison((Study(0.0, 1.0),))
        assert log_marginal(h0f(), c) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-14)

    def test_conjugate_normal_identity(self, rng):
        for _ in range(8):
            s0 = float(rng.uniform(0.2, 1.5))
            y = float(rng.normal(0, 1))
            se = float(rng.uniform(0.1, 2.0))
            c = Comparison((Study(y, se),))
            got = log_marginal(h1f(PriorSpec.normal(0.0, s0)), c)
            want = PriorSpec.normal(0.0, math.sqrt(s0 * s0 + se * se)).log_pdf(y)
            assert got == pytest.approx(want, abs=1e-8)

    def test_point_mass_reproduces_simpler_model(self, rng):
        c = make_comparison(rng, 4)
        with_point = ModelSpec("h1f_at_0", PriorSpec.point(0.0), POINT0)
        assert log_marginal(with_point, c) == log_marginal(h0f(), c)
        assert log_marginal(with_point, c) == loglik_fixed(0.0, c)

    def test_study_order_invariance_exact(self, rng):
        c = make_comparison(rng, 5)
        rev = Comparison(c.studies[::-1])
        for model in (h0f(), h1f(T_POOLED), h0r(IG_POOLED), h1r(T_POOLED, IG_POOLED)):
            assert log_marginal(model, c) == log_marginal(model, rev)

    def test_refinement_stability(self, rng):
        c = make_comparison(rng, 4)
        for model in (h1f(T_POOLED), h0r(IG_POOLED), h1r(T_POOLED, IG_POOLED)):
            base = log_marginal(model, c)
            refined = log_marginal(model, c, extra_refine=1)
            assert abs(base - refined) < 1e-6

    @pytest.mark.parametrize("dprior", [
        PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0)),
        PriorSpec.normal(0.0, 0.56),
        PriorSpec.t(0.0, 0.33, 3.0),
    ], ids=lambda p: p.family)
    @pytest.mark.parametrize("tprior", [
        PriorSpec.uniform(0.0, 1.0),
        PriorSpec.halfnormal(0.57),
        PriorSpec.invgamma(1.26, 0.24),
        PriorSpec.gamma(1.59, 0.26),
    ], ids=lambda p: p.family)
    def test_monte_carlo_oracle_all_candidate_pairs(self, dprior, tprior):
        rng = np.random.default_rng(hash((dprior.family, tprior.family)) % 2**31)
        comp = make_comparison(rng, 4, delta=0.4, tau=0.25)
        model = h1r(dprior, tprior)
        quad = log_marginal(model, comp)
        n = 300_000
        d = dprior.sample(rng, n)
        t = tprior.sample(rng, n)
        ll = loglik_random(d, t, comp)
        m = float(np.max(ll))
        w = np.exp(ll - m)
        mc = m + math.log(float(np.mean(w)))
        se_mc = float(np.std(w)) / (math.sqrt(n) * float(np.mean(w)))
        assert abs(quad - mc) < 3.5 * se_mc

    def test_conjugate_identity_with_fixed_nonzero_tau(self, rng):
        # point tau at tau0 > 0 inflates every study variance by tau0^2,
        # so the normal-prior marginal stays closed-form
        for _ in range(5):
            s0 = float(rng.uniform(0.3, 1.2))
            tau0 = float(rng.uniform(0.1, 0.8))
            y = float(rng.normal(0, 1))
            se = float(rng.uniform(0.1, 1.0))
            c = Comparison((Study(y, se),))
            model = ModelSpec("fixed_tau", PriorSpec.normal(0.0, s0), PriorSpec.point(tau0))
            got = log_marginal(model, c)
            want = PriorSpec.normal(0.0, math.sqrt(s0**2 + se**2 + tau0**2)).log_pdf(y)
            assert got == pytest.approx(want, abs=1e-8)

    def test_wide_likelihood_narrow_prior(self):
        # nearly uninformative data: marginal approaches the prior-predictive
        c = Comparison((Study(0.3, 8.0),))
        got = log_marginal(h1f(PriorSpec.normal(0.0, 0.3)), c)
        want = PriorSpec.normal(0.0, math.sqrt(0.09 + 64.0)).log_pdf(0.3)
        assert got == pytest.approx(want, abs=1e-8)

    def test_many_studies_log_space(self, rng):
        # 200 studies split around +/-5: every integrand value sits far
        # below exp() underflow, so only log-space accumulation survives.
        studies = [Study(-5.0 + float(rng.normal(0, 0.02)), 0.05) for _ in range(100)]
        studies += [Study(5.0 + float(rng.normal(0, 0.02)), 0.05) for _ in range(100)]
        c = Comparison(tuple(studies))
        value = log_marginal(h1r(T_POOLED, PriorSpec.uniform(0.0, 1.0)), c)
        assert math.isfinite(value)
        assert value < -2000.0

    def test_well_fitting_many_studies(self, rng):
        c = make_comparison(rng, 200, delta=0.5, tau=0.2, se_range=(0.05, 0.3))
        value = log_marginal(h1r(T_POOLED, IG_POOLED), c)
        assert math.isfinite(value)
        # the marginal can never exceed the likelihood peak
        grid_d = np.linspace(0.3, 0.7, 41)
        grid_t = np.linspace(0.05, 0.6, 41)
        peak = max(
            float(loglik_random(d, t, c)) for d in grid_d for t in grid_t
        )
        assert value < peak


def _mp_log_prior(mp, prior, x):
    f, p = prior.family, [mp.mpf(v) for v in prior.params]
    if f == "t":
        loc, s, df = p
        z = (x - loc) / s
        return (mp.loggamma((df + 1) / 2) - mp.loggamma(df / 2) - mp.log(df * mp.pi) / 2
                - mp.log(s) - (df + 1) / 2 * mp.log(1 + z * z / df))
    if f == "normal":
        m, s = p
        return -((x - m) / s) ** 2 / 2 - mp.log(s) - mp.log(2 * mp.pi) / 2
    if f == "halfnormal":
        (s,) = p
        return mp.log(2) - (x / s) ** 2 / 2 - mp.log(s) - mp.log(2 * mp.pi) / 2
    if f == "invgamma":
        a, b = p
        return a * mp.log(b) - mp.loggamma(a) - (a + 1) * mp.log(x) - b / x
    if f == "gamma":
        a, s = p
        return (a - 1) * mp.log(x) - x / s - mp.loggamma(a) - a * mp.log(s)
    if f == "uniform":
        lo, hi = p
        return -mp.log(hi - lo)
    raise AssertionError(f)


def _mp_log_inner(mp, y, se, g, tau):
    """log of the integral over delta of likelihood times delta prior at one tau.

    The likelihood is N(mu, 1/S0) in delta times exp(-c/2); every
    integrand is scaled by its value at the peak, because mpmath's
    quadrature stops on an absolute error estimate.
    """
    w = [1 / (mp.mpf(s) ** 2 + tau * tau) for s in se]
    s0 = sum(w)
    mu = sum(wi * mp.mpf(yi) for wi, yi in zip(w, y)) / s0
    c = sum(mp.log(2 * mp.pi / wi) + wi * (mp.mpf(yi) - mu) ** 2 for wi, yi in zip(w, y))
    if g.is_point:
        return -c / 2 - s0 * (mp.mpf(g.params[0]) - mu) ** 2 / 2
    sd = 1 / mp.sqrt(s0)
    if g.family == "normal":  # conjugate: closed form
        m, s = (mp.mpf(v) for v in g.params)
        var = sd**2 + s**2
        return -c / 2 + mp.log(mp.sqrt(2 * mp.pi) * sd) - (mu - m) ** 2 / (2 * var) - mp.log(2 * mp.pi * var) / 2
    peak = _mp_log_prior(mp, g, mu)
    pts = [mu + sd * k for k in (-40, -12, -4, -1, 0, 1, 4, 12, 40)]
    integral = mp.quad(lambda d: mp.exp(_mp_log_prior(mp, g, d) - peak - s0 * (d - mu) ** 2 / 2), pts)
    return -c / 2 + peak + mp.log(integral)


def mp_log_marginal(y, se, model):
    """High-precision log marginal likelihood with mpmath (30 digits).

    tau runs over the region :func:`log_marginal` integrates, the prior
    support less 1e-12 prior mass per tail, so that this checks the
    quadrature and not that documented truncation.
    """
    mp = pytest.importorskip("mpmath")
    g, h = model.delta_prior, model.tau_prior
    with mp.workdps(30):
        if h.is_point:
            return float(_mp_log_inner(mp, y, se, g, mp.mpf(h.params[0])))

        def log_f(t):
            return _mp_log_inner(mp, y, se, g, t) + _mp_log_prior(mp, h, t)

        lo, hi = marginal._prior_bounds(h)
        smin, spread = min(se), max(y) - min(y)
        pts = {smin * k for k in (0.25, 1, 4)} | {spread * k for k in (0.25, 1, 4)} | {0.1, 0.5, 2.0}
        pts = [mp.mpf(p) for p in sorted({lo, hi} | {p for p in pts if lo < p < hi})]
        ref = log_f(pts[len(pts) // 2])
        integral = mp.quad(lambda t: mp.exp(log_f(t) - ref), pts)
        return float(ref + mp.log(integral))


class TestMpmathOracle:
    """Log marginals against an independent 30-digit mpmath evaluation.

    The small-se cases are where a likelihood formed as S2 - 2 d S1 + d^2 S0
    loses digits to cancellation; the centred form keeps them.
    """

    @pytest.mark.parametrize("y, se, model", [
        ((-0.60735, -0.62070), (0.00312, 0.00388), h1f(PriorSpec.t(0.0, 0.33, 3.0))),
        ((0.29, 0.30, 0.31), (1e-4,) * 3, h1f(PriorSpec.t(0.0, 0.33, 3.0))),
        ((0.29, 0.30, 0.31), (1e-5,) * 3, h1f(PriorSpec.normal(0.0, 0.56))),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h0r(PriorSpec.invgamma(1.26, 0.24))),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1r(PriorSpec.normal(0.0, 0.56), IG_POOLED)),
        ((0.29, 0.30, 0.31), (1e-4,) * 3, h1r(PriorSpec.normal(0.0, 0.56), IG_POOLED)),
        ((-3.0, 3.0, 0.0, 5.0), (0.05,) * 4, h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.halfnormal(0.57))),
        (LARGE_Y, LARGE_SE, h0r(IG_POOLED)),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.uniform(0.0, 1.0))),
        # the tau lattice holds a single point inside (0.5, 2)
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.uniform(0.5, 2.0))),
        ((0.12, 0.55, -0.2), (0.2,) * 3, h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.gamma(1.59, 0.26))),
        ((0.29, 0.30, 0.31), (1e-4,) * 3, h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.gamma(1.59, 0.26))),
        (LARGE_Y, LARGE_SE, h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.invgamma(1.26, 0.24))),
    ])
    def test_log_marginal_matches_mpmath(self, y, se, model):
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        ref = mp_log_marginal(y, se, model)
        got = log_marginal(model, c)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


class TestTinyStandardErrors:
    @pytest.mark.parametrize("se", [1e-4, 1e-5, 1e-6])
    def test_every_candidate_member_converges(self, se):
        # the likelihood peak in delta is ~se wide and moves with tau
        c = Comparison(tuple(Study(y, se) for y in (0.29, 0.30, 0.31)))
        cand = general_candidate_set()
        members = build_standard_ensemble(cand.delta_priors, cand.tau_priors).members
        assert len(members) == 20
        for member in members:
            assert math.isfinite(log_marginal(member.model, c)), member.model.name


class TestLikelihoodConstantOutsideIntegrand:
    """The inner delta integrand leaves out the likelihood's constant -c/2,
    which can reach 1e8 and more; inside, its rounding would exceed the
    tolerance at every node."""

    @pytest.mark.parametrize("se", [1e-3, 1e-4])
    def test_far_apart_effects_converge(self, se):
        y = (-15.0, 15.0)
        model = h1f(T_POOLED)
        c = Comparison(tuple(Study(a, se) for a in y))
        got = log_marginal(model, c)
        ref = mp_log_marginal(y, (se,) * 2, model)
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    def test_many_widely_spread_studies_converge(self):
        y = np.random.default_rng(0).uniform(-50.0, 50.0, 170)
        c = Comparison(tuple(Study(float(a), 0.08) for a in y))
        assert log_marginal(h1r(T_POOLED, IG_POOLED), c) == pytest.approx(-830.34, abs=0.01)


class TestConjugateDeltaPart:
    """A normal delta prior integrates in closed form; it must agree with
    the quadrature it replaces."""

    @pytest.mark.parametrize("k", [1, 3, 60])
    @pytest.mark.parametrize("se_range", [(0.1, 0.5), (1e-5, 1e-4)])
    def test_closed_form_matches_quadrature(self, k, se_range, rng):
        c = make_comparison(rng, k, se_range=se_range)
        g = PriorSpec.normal(0.0, 0.56)
        tau = np.array([0.0, 1e-3, 0.1, 1.0, 100.0])
        closed = marginal._delta_part(g, c, 1e-13)(tau)
        quad = marginal._delta_integrals(g, c, 1e-13)(tau)
        assert np.all(np.abs(closed - quad) <= 1e-12 * np.maximum(1.0, np.abs(quad))), closed - quad


class TestSharedTauPartition:
    def test_tau_seeds_are_a_lattice_shared_by_all_priors(self, rng):
        c = make_comparison(rng, 5)
        assert np.array_equal(marginal._tau_seeds(PriorSpec.uniform(0.5, 2.0), c)[:-8], [1.0])
        for h in general_candidate_set().tau_priors:
            lo, hi = marginal._prior_bounds(h)
            want = [4.0 ** j for j in range(-30, 30) if max(lo, 1e-12) <= 4.0 ** j <= hi]
            assert np.array_equal(marginal._tau_seeds(h, c)[:-8], want), h

    def test_owners_of_one_delta_prior_share_tau_intervals(self, rng, monkeypatch):
        c = make_comparison(rng, 8)
        models = [h1r(T_POOLED, h) for h in general_candidate_set().tau_priors]
        real = marginal.log_quad_batch
        outer_rows = []

        def recording(log_f, bounds, **kwargs):
            if len(bounds) != len(models):  # an inner delta integral
                return real(log_f, bounds, **kwargs)

            def f(own, t):
                outer_rows.append(t)
                return log_f(own, t)

            return real(f, bounds, **kwargs)

        monkeypatch.setattr(marginal, "log_quad_batch", recording)
        got = marginal.log_marginals(models, c)
        rows = np.concatenate(outer_rows)
        assert np.unique(rows, axis=0).shape[0] < 0.8 * rows.shape[0]
        monkeypatch.setattr(marginal, "log_quad_batch", real)
        for model, value in zip(models, got):
            assert value == log_marginal(model, c), model.name


class TestPosteriorSummary:
    def test_conjugate_posterior_mean_sd(self, rng):
        for _ in range(5):
            s0 = float(rng.uniform(0.3, 1.2))
            y = float(rng.normal(0, 0.8))
            se = float(rng.uniform(0.15, 0.8))
            c = Comparison((Study(y, se),))
            ps = posterior_summary(h1f(PriorSpec.normal(0.0, s0)), c, "delta")
            shrink = s0 * s0 / (s0 * s0 + se * se)
            assert ps.mean == pytest.approx(y * shrink, abs=1e-6)
            assert ps.sd == pytest.approx(math.sqrt(shrink) * se, abs=1e-6)

    def test_symmetric_data_symmetric_posterior(self):
        c = Comparison((Study(0.4, 0.3), Study(-0.4, 0.3)))
        ps = posterior_summary(h1f(PriorSpec.normal(0.0, 0.7)), c, "delta")
        assert abs(ps.median) < 1e-6
        assert abs(ps.mean) < 1e-6

    def test_point_mass_parameter_rejected(self, rng):
        c = make_comparison(rng, 3)
        with pytest.raises(UnsupportedOperationError):
            posterior_summary(h1f(T_POOLED), c, "tau")
        with pytest.raises(UnsupportedOperationError):
            posterior_summary(h0r(IG_POOLED), c, "delta")

    def test_grid_normalizes(self, rng):
        c = make_comparison(rng, 4)
        for model, par in [
            (h1f(T_POOLED), "delta"),
            (h0r(IG_POOLED), "tau"),
            (h1r(T_POOLED, IG_POOLED), "delta"),
            (h1r(T_POOLED, IG_POOLED), "tau"),
        ]:
            ps = posterior_summary(model, c, par)
            h = np.diff(ps.grid_x)
            mass = float(np.sum(0.5 * h * (ps.grid_pdf[:-1] + ps.grid_pdf[1:])))
            assert mass == pytest.approx(1.0, abs=1e-6)
            assert np.all(ps.grid_pdf >= 0)
            assert ps.ci_lower <= ps.median <= ps.ci_upper

    def test_normalization_mismatch_is_logged(self, rng, caplog):
        c = make_comparison(rng, 4)
        model = h1r(T_POOLED, IG_POOLED)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            fine = posterior_summary(model, c, "tau")
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            coarse = posterior_summary(model, c, "tau", grid_points=128)
        # the summary is still returned, on the doubled grid
        assert coarse.grid_x.size == 256
        assert abs(coarse.mean - fine.mean) < 0.1
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        assert message.startswith("posterior of tau under model 'random_H1': grid normalization")
        mismatch = float(message.rsplit(" by ", 1)[1].split()[0])
        assert abs(mismatch) > 1e-6

    def test_posterior_with_fixed_nonzero_tau(self, rng):
        s0, tau0, y, se = 0.8, 0.5, 0.6, 0.3
        c = Comparison((Study(y, se),))
        model = ModelSpec("fixed_tau", PriorSpec.normal(0.0, s0), PriorSpec.point(tau0))
        ps = posterior_summary(model, c, "delta")
        total_var = se**2 + tau0**2
        shrink = s0**2 / (s0**2 + total_var)
        assert ps.mean == pytest.approx(y * shrink, abs=1e-6)
        assert ps.sd == pytest.approx(math.sqrt(shrink * total_var), abs=1e-6)

    def test_narrow_posterior_resolved(self, rng):
        # many precise studies: posterior is ~100x narrower than the prior
        c = make_comparison(rng, 80, delta=0.5, tau=0.0, se_range=(0.02, 0.05))
        ps = posterior_summary(h1f(PriorSpec.cauchy(0.0, 0.7071)), c, "delta")
        assert ps.sd < 0.01
        assert 0.4 < ps.mean < 0.6


def record_integrand_calls(monkeypatch) -> list:
    """(owner ids, nodes, values) of every integrand call through ``marginal.log_quad_batch``."""
    calls = []
    real = marginal.log_quad_batch

    def recording(log_f, bounds, **kwargs):
        def log_f_recorded(own, x):
            out = log_f(own, x)
            calls.append((own, x, out))
            return out

        return real(log_f_recorded, bounds, **kwargs)

    monkeypatch.setattr(marginal, "log_quad_batch", recording)
    return calls


class TestDeltaPosteriorIntegrand:
    """The tau-inner integrand of the delta posterior shares tau-only terms
    between rows; it must still equal the direct likelihood bit for bit."""

    @staticmethod
    def direct(delta, t, h, c):
        return loglik_random(delta, t, c) + h.log_pdf(t)

    @pytest.mark.parametrize("k", [3, 12])
    def test_matches_direct_likelihood_row_by_row(self, k, rng, monkeypatch):
        c = make_comparison(rng, k)
        xs = np.linspace(-6.0, 6.0, 41)  # owners far from the data refine differently
        calls = record_integrand_calls(monkeypatch)
        marginal._log_posterior_on(h1r(T_POOLED, IG_POOLED), c, "delta", xs, 1e-9)

        diverged = False
        for own, t, out in calls:
            owners_per_interval = np.unique(t, axis=0, return_counts=True)[1]
            diverged |= bool(owners_per_interval.min() < xs.size)
            for r in range(t.shape[0]):
                want = self.direct(xs[own[r, 0]], t[r], IG_POOLED, c)
                assert np.array_equal(out[r], want), (own[r, 0], t[r])
        assert diverged, "every owner kept the same partition; the case tests nothing"

    def test_rows_with_shared_endpoints_kept_apart(self, rng):
        c = make_comparison(rng, 5)
        t = np.tile(np.linspace(0.1, 0.9, 15), (3, 1))
        t[1, 7] = 0.55  # same first and last node as row 0, different interior
        delta = np.array([[0.1], [0.2], [0.3]])
        got = marginal._log_joint_at_tau_nodes(delta, t, IG_POOLED, c)
        assert np.array_equal(got, self.direct(delta, t, IG_POOLED, c))


class TestDeltaIntegrandAtFixedTau:
    """The delta integrand of the inner integrals gathers per-owner tau
    statistics; it must equal the direct likelihood less its delta-free
    constant -c/2, plus the delta prior, bit for bit."""

    @staticmethod
    def direct(d, tau, g, c):
        _, mu, s0 = random_stats(tau, c)
        return -0.5 * (s0 * (d - mu) ** 2) + g.log_pdf(d)

    @pytest.mark.parametrize("k", [3, 12, 60])
    def test_matches_direct_likelihood_row_by_row(self, k, rng, monkeypatch):
        c = make_comparison(rng, k)
        # small tau makes a peak far narrower than at large tau, so owners refine differently
        tau_values = np.concatenate([[0.0], np.geomspace(1e-3, 4.0, 24)])
        calls = record_integrand_calls(monkeypatch)
        marginal._delta_integrals(T_POOLED, c, 1e-10)(tau_values)

        diverged = False
        for own, d, out in calls:
            owners_per_interval = np.unique(d, axis=0, return_counts=True)[1]
            diverged |= bool(owners_per_interval.min() < tau_values.size)
            for r in range(d.shape[0]):
                want = self.direct(d[r], tau_values[own[r, 0]], T_POOLED, c)
                assert np.array_equal(out[r], want), (own[r, 0], d[r])
        assert diverged, "every owner kept the same partition; the case tests nothing"

    def test_rows_with_shared_endpoints_kept_apart(self, rng):
        c = make_comparison(rng, 5)
        d = np.tile(np.linspace(-0.9, 0.9, 15), (3, 1))
        d[1, 7] = 0.05  # same first and last node as row 0, different interior
        tau_values = np.array([0.1, 0.2, 0.3])
        own = np.array([[0], [1], [2]])
        stats = random_stats(tau_values, c)
        got = marginal._log_joint_at_delta_nodes(d, own, stats, T_POOLED)
        assert np.array_equal(got, self.direct(d, tau_values[own], T_POOLED, c))

    def test_each_owner_is_seeded_at_its_own_likelihood_peak(self, rng, monkeypatch):
        c = make_comparison(rng, 12)
        tau_values = np.array([0.0, 0.05, 0.3, 2.0])  # the peak moves and widens with tau
        seen = []
        real = marginal.log_quad_batch

        def recording(log_f, bounds, **kwargs):
            seen.append(kwargs["seeds"])
            return real(log_f, bounds, **kwargs)

        monkeypatch.setattr(marginal, "log_quad_batch", recording)
        marginal._delta_integrals(T_POOLED, c, 1e-10)(tau_values)
        [seeds] = seen
        _, mu, s0 = random_stats(tau_values, c)
        offsets = np.array([0.0, -1, 1, -2, 2, -4, 4, -8, 8, -16, 16])
        assert seeds.shape == (tau_values.size, 12)
        for i in range(tau_values.size):
            want = np.concatenate([[T_POOLED.quantile(0.5)], mu[i] + offsets / np.sqrt(s0[i])])
            np.testing.assert_allclose(np.sort(seeds[i]), np.sort(want), rtol=0, atol=1e-12)

    def test_fixed_tau_marginal_matches_direct_integrand(self, rng, monkeypatch):
        c = make_comparison(rng, 12)
        tau0 = 0.15
        calls = record_integrand_calls(monkeypatch)
        log_marginal(ModelSpec("m", T_POOLED, PriorSpec.point(tau0)), c)
        assert calls
        for _own, d, out in calls:
            assert np.array_equal(out, self.direct(d, tau0, T_POOLED, c))
