import logging
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bmameta import marginal
from bmameta import (
    Comparison,
    ConvergenceError,
    ModelSpec,
    ParameterError,
    PriorSpec,
    Study,
    UnsupportedOperationError,
    build_standard_ensemble,
    general_candidate_set,
    log_marginal,
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

    @pytest.mark.parametrize("dprior", [PriorSpec.gamma(1.59, 0.26), PriorSpec.invgamma(1.26, 0.24)], ids=str)
    def test_gamma_families_are_heterogeneity_only(self, dprior):
        with pytest.raises(ParameterError, match="point, normal, t, cauchy, uniform, halfnormal"):
            ModelSpec("bad", dprior, IG_POOLED)
        assert ModelSpec("ok", POINT0, dprior).model_type == "random_H0"


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
        assert log_marginal(with_point, c) == loglik_random(0.0, 0.0, c)

    def test_study_order_invariance_exact(self, rng):
        c = make_comparison(rng, 5)
        rev = Comparison(c.studies[::-1])
        for model in (h0f(), h1f(T_POOLED), h0r(IG_POOLED), h1r(T_POOLED, IG_POOLED)):
            assert log_marginal(model, c) == log_marginal(model, rev)

    def test_refinement_stability(self, rng):
        # a run at a hundredth of the default tolerance agrees far inside it
        c = make_comparison(rng, 4)
        for model in (h1f(T_POOLED), h0r(IG_POOLED), h1r(T_POOLED, IG_POOLED)):
            base = log_marginal(model, c)
            refined = log_marginal(model, c, rel_tol=1e-11)
            assert abs(base - refined) < 1e-9

    @pytest.mark.parametrize("dprior", [
        PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0)),
        PriorSpec.normal(0.0, 0.56),
        PriorSpec.t(0.0, 0.33, 3.0),
        PriorSpec.uniform(-1.0, 1.0),
        PriorSpec.halfnormal(0.57),
    ], ids=lambda p: p.family)
    @pytest.mark.parametrize("tprior", [
        PriorSpec.uniform(0.0, 1.0),
        PriorSpec.halfnormal(0.57),
        PriorSpec.invgamma(1.26, 0.24),
        PriorSpec.gamma(1.59, 0.26),
    ], ids=lambda p: p.family)
    def test_monte_carlo_oracle_all_candidate_pairs(self, dprior, tprior):
        # crc32, not hash(): str hashes are salted per process
        rng = np.random.default_rng(zlib.crc32(f"{dprior.family},{tprior.family}".encode()))
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
    if f == "cauchy":
        loc, s = p
        return -mp.log(mp.pi * s) - mp.log(1 + ((x - loc) / s) ** 2)
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


def _mp_log_ndtr_diff(mp, lo, hi):
    """log(Phi(hi) - Phi(lo)) from erfc, as Q(-hi) - Q(-lo) or, for an
    interval above 0, as Q(lo) - Q(hi), on the far side of 0 (Q(x) = Phi(-x))."""
    if lo > 0:
        return mp.log((mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2)
    return mp.log((mp.erfc(-hi / mp.sqrt(2)) - mp.erfc(-lo / mp.sqrt(2))) / 2)


def _mp_log_inner(mp, y, se, g, tau):
    """log of the integral over delta of likelihood times delta prior at one tau.

    The likelihood is N(mu, 1/S0) in delta times exp(-c/2).  Normal,
    Cauchy, uniform and half-normal priors integrate in closed form; for a
    t prior the integrand is scaled by its value at mu, because mpmath's
    quadrature stops on an absolute error estimate.
    """
    w = [1 / (mp.mpf(s) ** 2 + tau * tau) for s in se]
    s0 = sum(w)
    mu = sum(wi * mp.mpf(yi) for wi, yi in zip(w, y)) / s0
    # one log of the product, not one per study: sum(log(2 pi / w)) = k log(2 pi) - log(prod(w))
    c = len(w) * mp.log(2 * mp.pi) - mp.log(mp.fprod(w)) + sum(wi * (mp.mpf(yi) - mu) ** 2 for wi, yi in zip(w, y))
    if g.is_point:
        return -c / 2 - s0 * (mp.mpf(g.params[0]) - mu) ** 2 / 2
    sd = 1 / mp.sqrt(s0)
    if g.family in ("normal", "halfnormal"):  # conjugate: closed form
        m, s = (0, mp.mpf(g.params[0])) if g.family == "halfnormal" else (mp.mpf(v) for v in g.params)
        var = sd**2 + s**2
        out = -c / 2 + mp.log(mp.sqrt(2 * mp.pi) * sd) - (mu - m) ** 2 / (2 * var) - mp.log(2 * mp.pi * var) / 2
        if g.family == "normal":
            return out
        # the normal prior cut at 0: twice the posterior mass above 0
        v_post = 1 / (s0 + 1 / s**2)
        return out + mp.log(2) + _mp_log_ndtr_diff(mp, -mp.inf, v_post * s0 * mu / mp.sqrt(v_post))
    if g.family == "uniform":  # the likelihood's normal shape cut to [a, b]
        a, b = (mp.mpf(v) for v in g.params)
        return -c / 2 + mp.log(mp.sqrt(2 * mp.pi) * sd / (b - a)) + _mp_log_ndtr_diff(mp, (a - mu) / sd, (b - mu) / sd)
    if g.family == "cauchy":  # a Voigt profile: Re w(z) with the Faddeeva function w
        loc, gamma = (mp.mpf(v) for v in g.params)
        z = (mu - loc + 1j * gamma) / (sd * mp.sqrt(2))
        return -c / 2 + mp.log(mp.re(mp.exp(-z * z) * mp.erfc(-1j * z)))
    assert g.family == "t", g
    loc, s, df = (mp.mpf(v) for v in g.params)

    def kernel(d):  # the t density less its constant
        return (1 + ((d - loc) / s) ** 2 / df) ** (-(df + 1) / 2)

    peak = kernel(mu)
    pts = [mu + sd * k for k in (-40, -12, -4, -1, 0, 1, 4, 12, 40)]
    integral = mp.quad(lambda d: kernel(d) / peak * mp.exp(-s0 * (d - mu) ** 2 / 2), pts)
    return -c / 2 + _mp_log_prior(mp, g, mu) + mp.log(integral)


def mp_log_marginal(y, se, model, cut=1e-30):
    """High-precision log marginal likelihood with mpmath (30 digits).

    tau runs over the prior's full support, split at the data's scales:
    the smallest se, the effects' spread and their standard deviation, and
    for a point delta its distance from the effects' mean.  The delta part
    is formed in mpmath too (:func:`_mp_log_inner`).

    A gamma tau prior of shape below 1 has density tau**(shape - 1) near 0,
    which mpmath's tau integral does not resolve (it misses by 3.2e-4 at
    shape 0.1).  There the mass below ``cut`` is added in closed form,
    L(cut) H(cut), and the rest is integrated over z = log tau up to 400
    prior scales.  The likelihood depends on tau only through se**2 +
    tau**2, so below ``cut`` it is L(cut) within (cut / se)**2.
    """
    mp = pytest.importorskip("mpmath")
    g, h = model.delta_prior, model.tau_prior
    with mp.workdps(30):
        if h.is_point:
            return float(_mp_log_inner(mp, y, se, g, mp.mpf(h.params[0])))

        def log_f(t):
            return _mp_log_inner(mp, y, se, g, t) + _mp_log_prior(mp, h, t)

        smin, spread, sd = min(se), max(y) - min(y), float(np.std(y))
        bases = [smin, spread, sd] + ([abs(g.params[0] - float(np.mean(y)))] if g.is_point else [])
        scales = {b * k for b in bases for k in (0.25, 1, 4)}
        if h.family == "gamma" and h.params[0] < 1.0:
            shape, scale = (mp.mpf(v) for v in h.params)
            low = mp.exp(_mp_log_inner(mp, y, se, g, mp.mpf(cut))) * mp.gammainc(shape, 0, cut / scale,
                                                                                  regularized=True)
            top = math.log(400.0 * h.params[1])
            pts = set(np.linspace(math.log(cut), math.log(smin), 12))
            pts |= {math.log(v) for v in scales | {0.1, 1.0, 10.0} if cut < v < 400.0 * h.params[1]}
            pts = [mp.mpf(p) for p in sorted(pts)] + [mp.mpf(top)]
            ref = max(log_f(mp.exp(z)) + z for z in pts)
            body = mp.quad(lambda z: mp.exp(log_f(mp.exp(z)) + z - ref), pts)
            return float(mp.log(body * mp.exp(ref) + low))
        lo, hi = h.support
        pts = [mp.mpf(p) for p in sorted(p for p in scales | {0.1, 0.5, 2.0} if lo < p < hi)]
        ref = max(log_f(p) for p in pts)
        ends = [mp.mpf(lo), mp.inf if hi == math.inf else mp.mpf(hi)]
        integral = mp.quad(lambda t: mp.exp(log_f(t) - ref), [ends[0]] + pts + [ends[1]])
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
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1r(PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0)), PriorSpec.halfnormal(0.57))),
        # data 700 prior scales out, beyond the 1e-12 delta quantiles
        ((300.0, 301.0), (0.1, 0.1), h1f(T_POOLED)),
        # nu = 1e-3 puts the low mixing quantiles at lambda = 0
        ((0.3, 0.5), (0.2, 0.2), h1f(PriorSpec.t(0.0, 0.5, 1e-3))),
        # uniform and half-normal delta priors: closed forms on both sides of
        # the interval and of 0; the parent's quadrature over delta failed to
        # converge on 300, 301
        ((300.0, 301.0), (0.1, 0.1), h1f(PriorSpec.halfnormal(0.57))),
        ((300.0, 301.0), (0.1, 0.1), h1f(PriorSpec.uniform(-1.0, 1.0))),
        ((-0.60735, -0.62070), (0.00312, 0.00388), h1f(PriorSpec.halfnormal(0.57))),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1f(PriorSpec.uniform(0.1, 0.2))),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), ModelSpec("fixed_tau", PriorSpec.halfnormal(0.57), PriorSpec.point(0.15))),
        ((300.0, 301.0), (0.1, 0.1), h1r(PriorSpec.halfnormal(0.57), IG_POOLED)),
        ((300.0, 301.0), (0.1, 0.1), h1r(PriorSpec.uniform(-1.0, 1.0), IG_POOLED)),
        ((-3.0, 3.0, 0.0, 5.0), (0.05,) * 4, h1r(PriorSpec.uniform(-1.0, 1.0), PriorSpec.halfnormal(0.57))),
        ((0.12, 0.55, -0.2), (0.2, 0.15, 0.3), h1r(PriorSpec.halfnormal(0.57), PriorSpec.gamma(1.59, 0.26))),
        # data 1e5, 1e6 and 1e7 prior scales out: each lambda row's lower
        # limit follows the data, with no fixed reach
        ((4.3e4, 4.3e4 + 1.0), (0.1, 0.1), h1f(T_POOLED)),
        ((4.3e5, 4.3e5 + 1.0), (0.1, 0.1), h1f(T_POOLED)),
        ((4.3e6, 4.3e6 + 1.0), (0.1, 0.1), h1f(T_POOLED)),
    ])
    def test_log_marginal_matches_mpmath(self, y, se, model):
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        ref = mp_log_marginal(y, se, model)
        got = log_marginal(model, c)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)

    @pytest.mark.parametrize("y, se, model, want", [
        # the likelihood is largest at tau = 0, below the prior's 1e-12
        # quantile (tau = 0.0133), where an integral cut there misses 1.13e-6
        ((0.0,) * 12, (0.02,) * 12, h0r(IG_POOLED), 19.9186295139935528),
        # a cut at the half-normal's 1e-12 upper quantile misses 1.05e-9
        ((-3.0, 3.0, 0.0, 5.0), (0.05,) * 4, h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.halfnormal(0.57)),
         -17.5964793555935),
    ], ids=["twelve-zeros", "spread-four"])
    def test_full_support_cases_the_prior_quantiles_cut(self, y, se, model, want):
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        ref = mp_log_marginal(y, se, model)
        assert abs(ref - want) <= 1e-13 * max(1.0, abs(want)), ref
        got = log_marginal(model, c)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)

    @pytest.mark.parametrize("nu", [1e3, 1e5, 1e6, 1e8])
    def test_t_prior_with_large_nu(self, nu):
        # a = nu / 2 enters the mixing density only through K(a) and
        # a * (expm1(u) - u), so no two terms of size a cancel
        y, se = (0.3, 0.5, 0.1), (0.2,) * 3
        model = h1f(PriorSpec.t(0.0, 0.5, nu))
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        ref = mp_log_marginal(y, se, model)
        got = log_marginal(model, c)
        assert abs(got - ref) <= 5e-12, (got, ref)


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

    @pytest.mark.parametrize("spread", [620.0, 630.0])
    def test_far_spread_converges_within_two_rule_stages(self, spread, monkeypatch):
        # On +-spread over 200 studies at se 0.01, the hardest inputs the
        # adaptive outer integral converged on, the posterior of log tau is
        # about 0.004 wide, narrower than stage one's nodes: every free-tau
        # member of the candidate set converges, within stage one's 561 nodes
        # and stage two's 1121 per group
        c = Comparison(tuple(Study(y, 0.01) for y in [spread] * 100 + [-spread] * 100))
        cand = general_candidate_set()
        models = [m.model for m in build_standard_ensemble(cand.delta_priors, cand.tau_priors).members
                  if m.model.tau_prior.family != "point"]
        real = marginal._level_sums
        cells = []

        def counting(f, starts):
            cells.append(f.size)
            return real(f, starts)

        monkeypatch.setattr(marginal, "_level_sums", counting)
        assert len({m.delta_prior for m in models}) == 4
        assert np.all(np.isfinite(marginal.chunk_log_marginals(models, [c])[0]))
        assert 0 < sum(cells) <= len(models) * (marginal._ML_CUTS[4] + marginal._ML_CUTS[5])


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


def mp_delta_part(c, g, tau):
    """:func:`_mp_log_inner` at each tau value, as floats (30 digits)."""
    mp = pytest.importorskip("mpmath")
    y, se = [s.effect for s in c.studies], [s.se for s in c.studies]
    with mp.workdps(30):
        return np.array([float(_mp_log_inner(mp, y, se, g, mp.mpf(t))) for t in tau])


class TestConjugateDeltaPart:
    """A normal delta prior integrates in closed form, and so do uniform and
    half-normal priors, which cut the likelihood's normal shape in delta to
    an interval; each must agree with the 30-digit mpmath oracle."""

    @pytest.mark.parametrize("g", [PriorSpec.normal(0.0, 0.56), PriorSpec.uniform(-1.0, 1.0),
                                   PriorSpec.uniform(0.1, 0.2), PriorSpec.halfnormal(0.57)], ids=str)
    @pytest.mark.parametrize("k", [1, 3, 60])
    @pytest.mark.parametrize("se_range", [(0.1, 0.5), (1e-5, 1e-4)])
    def test_closed_form_matches_mpmath(self, g, k, se_range, rng):
        c = make_comparison(rng, k, se_range=se_range)
        tau = np.array([0.0, 1e-3, 0.1, 1.0, 100.0])
        closed = marginal._delta_part(g, 1e-13)(random_stats(tau, c))
        ref = mp_delta_part(c, g, tau)
        assert np.all(np.abs(closed - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), closed - ref


class TestScaleMixtureDeltaPart:
    """t delta priors integrate as gamma scale mixtures of the normal closed
    form and Cauchy priors as a Voigt profile; both must agree with the
    30-digit mpmath oracle, and far in the prior's tail they must keep the
    tail.  (The lambda cut does not touch a Cauchy prior.)"""

    PRIORS = [T_POOLED, PriorSpec.t(0.0, 0.33, 3.0), PriorSpec.cauchy(0.0, 0.7071),
              PriorSpec.t(0.2, 0.5, 30.0)]

    @pytest.mark.parametrize("g", PRIORS, ids=str)
    @pytest.mark.parametrize("k", [1, 3, 60])
    @pytest.mark.parametrize("se_range", [(0.1, 0.5), (1e-5, 1e-4)])
    def test_mixture_matches_mpmath(self, g, k, se_range, rng):
        c = make_comparison(rng, k, se_range=se_range)
        tau = np.array([0.0, 1e-3, 0.1, 1.0, 100.0])
        mixture = marginal._delta_part(g, 1e-13)(random_stats(tau, c))
        ref = mp_delta_part(c, g, tau)
        assert np.all(np.abs(mixture - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), mixture - ref

    @pytest.mark.parametrize("g", PRIORS, ids=str)
    def test_data_far_in_the_prior_tail(self, g):
        # a precise study 1e4 prior scales from the location: the lambda cut
        # holds this case to 1e-16 of the integral
        loc, scale = g.params[:2]
        y, se = (loc + 1e4 * scale,), (1e-3 * scale,)
        model = h1f(g)
        got = log_marginal(model, Comparison((Study(y[0], se[0]),)))
        ref = mp_log_marginal(y, se, model)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)

    @pytest.mark.parametrize("g", PRIORS, ids=str)
    def test_lower_lambda_cut_drops_no_visible_mass(self, g, monkeypatch):
        # moving the cut 24 orders of magnitude further out changes nothing
        # from data at the location to data 1e4 prior scales out, for
        # precise data and for study variances up to 1e8 prior variances
        loc, scale = g.params[:2]
        tau = scale * np.array([0.0, 1e-2, 1.0, 1e2, 1e4])
        for dist in (0.0, 1.0, 30.0, 1e3, 1e4):
            c = Comparison((Study(loc + dist * scale, 1e-3 * scale),))
            base = marginal._delta_part(g, 1e-12)(random_stats(tau, c))
            monkeypatch.setattr(marginal, "_MIX_TAIL", 1e-40)
            marginal._mixing.cache_clear()
            try:
                wide = marginal._delta_part(g, 1e-12)(random_stats(tau, c))
            finally:
                monkeypatch.undo()
                marginal._mixing.cache_clear()
            assert np.all(np.abs(base - wide) <= 1e-14 * np.maximum(1.0, np.abs(wide))), (dist, base - wide)


    def test_lambda_rows_start_at_their_converged_partition(self, monkeypatch):
        # the 7 quantile seeds alone: a lambda row converges on the at most
        # 8 intervals they make with its bounds, with no bisection round;
        # midpoint seeds, or a bracket weaker than G10, evaluate more
        rng = np.random.default_rng(40)
        comparisons = [make_comparison(rng, int(k), delta=float(rng.normal(0.0, 0.4)),
                                       tau=float(rng.uniform(0.0, 0.4)), se_range=(0.05, 0.4))
                       for k in rng.integers(2, 40, 40)]
        real = marginal.log_quad_batch
        counts = {"rows": 0, "intervals": 0, "seeded": 0}

        def counting(log_f, bounds, **kwargs):
            if kwargs.get("n_owners", 1) == 1:  # the outer tau integral
                return real(log_f, bounds, **kwargs)
            seeds = np.clip(np.atleast_2d(kwargs["seeds"]), bounds[:, :1], bounds[:, 1:])
            pts = np.sort(np.concatenate([bounds, seeds], axis=1), axis=1)
            counts["rows"] += np.shape(bounds)[0]
            counts["seeded"] += int(np.count_nonzero(np.diff(pts, axis=1) > 0))

            def f(grp, u):
                counts["intervals"] += u.shape[0]
                return log_f(grp, u)

            return real(f, bounds, **kwargs)

        monkeypatch.setattr(marginal, "log_quad_batch", counting)
        for c in comparisons:
            assert math.isfinite(log_marginal(h1r(T_POOLED, IG_POOLED), c))
        assert counts["rows"] > 0
        assert counts["intervals"] == counts["seeded"] <= 8 * counts["rows"], counts


def mp_lambda_row(g, x, v):
    """The t delta part of :func:`marginal._mixture_integrals` for one owner
    with c = 0, mu - m = x and V = v, by 30-digit mpmath over u = log(lambda)
    inside the adaptive row's own bounds, the range split at the
    integrand's peak and at 2, 8 and 32 of its widths on either side."""
    mp = pytest.importorskip("mpmath")
    mix = marginal._mixing(g)
    a, s = mix.a, g.params[1]
    r, d2 = v / (s * s), x * x / (s * s)
    cut = mix.cut / (a + 0.5 * d2) / (1.0 + r * (a + 0.5) / a) ** (1.0 / (2.0 * a + 1.0))
    lo, hi = math.log(max(cut, marginal._TINY)), mix.upper
    with mp.workdps(30):
        A, S2, X2, V = mp.mpf(a), mp.mpf(s) ** 2, mp.mpf(x) ** 2, mp.mpf(v)
        log_norm = A * mp.log(A) - A - mp.loggamma(A)

        def log_f(u):
            w = S2 * mp.exp(-u)
            return -(mp.log(1 / V) + mp.log(V + w) + X2 / (V + w)) / 2 + log_norm - A * (mp.expm1(u) - u)

        us = np.linspace(lo, hi, 4001)
        w = s * s * np.exp(-us)
        approx = -0.5 * (np.log(v + w) + x * x / (v + w)) - a * (np.expm1(us) - us)
        peak = mp.findroot(lambda u: mp.diff(log_f, u), mp.mpf(us[np.argmax(approx)]))
        width = 1 / mp.sqrt(-mp.diff(log_f, peak, 2))
        pts = sorted([mp.mpf(lo), peak, mp.mpf(hi)]
                     + [peak + k * width for k in (-32, -8, -2, 2, 8, 32) if lo < peak + k * width < hi])
        top = log_f(peak)
        return float(top + mp.log(mp.quad(lambda u: mp.exp(log_f(u) - top), pts)))


class TestLaguerreLambdaRows:
    """A lambda row whose owners all have V / s**2 < 0.3 is integrated by
    the 12- and 18-node generalized Gauss-Laguerre rules; it is accepted when
    the two agree, and falls back to the adaptive path otherwise."""

    @staticmethod
    def _row(g, x, v, monkeypatch):
        """(value, accepted) of one one-owner row at the inner tolerance."""
        calls = _count_quadratures(monkeypatch)
        stats = (np.zeros((1, 1)), np.full((1, 1), x), np.full((1, 1), 1.0 / v))
        value = float(marginal._delta_part(g, 1e-10)(stats)[0, 0])
        monkeypatch.undo()
        return value, not calls

    def test_rows_match_mpmath(self, monkeypatch):
        accepted = 0
        for nu in (1.0, 3.0, 5.0, 30.0, 1000.0, 1e5):
            g = PriorSpec.t(0.0, 0.43, nu)
            for x in (0.1, 3.0, 30.0, 300.0):
                for v in (1e-4, 1e-2, 0.04):
                    got, ok = self._row(g, x, v, monkeypatch)
                    ref = mp_lambda_row(g, x, v)
                    assert not math.isnan(got), (nu, x, v)
                    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (nu, x, v, ok, got, ref)
                    accepted += ok
        # the check accepts all but a few rows of this grid; the rest fall back
        assert accepted >= 60, accepted

    @pytest.mark.parametrize("x, v", [(1e160, 1e-4), (1e300, 1e-2), (0.3, 1e-300), (1e10, 0.29)])
    def test_far_or_overflowing_rows_are_never_nan(self, x, v, monkeypatch):
        for nu in (1.0, 5.0, 1e5):
            got, _ = self._row(PriorSpec.t(0.0, 0.43, nu), x, v, monkeypatch)
            assert not math.isnan(got), (nu, x, v)

    @pytest.mark.parametrize("alpha", [-0.4995, 0.0, 2.0, 14.5])
    def test_rule_matches_scipy_where_scipy_is_finite(self, alpha):
        from scipy.special import gammaln, roots_genlaguerre
        nodes, log_w = marginal._laguerre(alpha)
        start = 0
        for n in marginal._LAGUERRE_NODES:
            want_x, want_w = roots_genlaguerre(n, alpha)
            got_x, got_w = nodes[start:start + n], log_w[start:start + n]
            assert np.allclose(got_x, want_x, rtol=1e-12, atol=0)
            assert np.allclose(got_w, np.log(want_w) - gammaln(alpha + 1.0), rtol=0, atol=1e-9)
            assert abs(np.logaddexp.reduce(got_w)) <= 1e-14
            start += n

    def test_rows_with_large_variance_take_the_adaptive_path(self, monkeypatch):
        # V / s**2 = 0.33: the gate sends the row to the adaptive integral
        _, ok = self._row(T_POOLED, 0.1, 0.33 * 0.43**2, monkeypatch)
        assert not ok


def _count_quadratures(monkeypatch):
    """(groups, owners per group) of every ``log_quad_batch`` call
    ``marginal`` makes."""
    real = marginal.log_quad_batch
    calls = []

    def counting(log_f, bounds, **kwargs):
        calls.append((np.shape(bounds)[0], kwargs.get("n_owners", 1)))
        return real(log_f, bounds, **kwargs)

    monkeypatch.setattr(marginal, "log_quad_batch", counting)
    return calls


def _count_rule_sums(monkeypatch):
    """(groups, nodes) of every pass of the free-tau rule, the ``f`` of each
    ``_level_sums`` call."""
    real = marginal._level_sums
    calls = []

    def counting(f, starts):
        calls.append(f.shape)
        return real(f, starts)

    monkeypatch.setattr(marginal, "_level_sums", counting)
    return calls


class TestVoigtDeltaPart:
    """A Cauchy delta prior's delta part is closed: log Re w(z) of the
    Faddeeva function, with no quadrature."""

    CAUCHY = PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0))

    def test_matches_mpmath_on_extreme_grid(self):
        mp = pytest.importorskip("mpmath")
        gamma = self.CAUCHY.params[1]
        dist = np.logspace(-6.0, 5.0, 12)
        diff, s0 = (x.ravel() for x in np.meshgrid(np.concatenate([-dist, dist]), np.logspace(-6.0, 12.0, 10)))
        got = marginal._voigt((np.zeros(diff.size), diff, s0), 0.0, gamma)
        with mp.workdps(50):
            for d, s, value in zip(diff, s0, got):
                z = mp.mpc(d, gamma) * mp.sqrt(mp.mpf(s) / 2)
                want = mp.log(mp.re(mp.exp(-z * z) * mp.erfc(-1j * z)))
                assert abs(value - float(want)) <= 1e-13, (d, s, value, want)

    def test_underflow_is_neg_inf_without_warning(self):
        # Re w(z) ~ Im z / (sqrt(pi) |z|**2) underflows to 0 here; the suite
        # turns the RuntimeWarning of log(0) into an error
        got = marginal._voigt((np.zeros(2), np.array([1e200, 0.3]), np.array([2.0, 25.0])), 0.0, 1.0)
        assert got[0] == -np.inf and np.isfinite(got[1])

    def test_fixed_h1_runs_no_quadrature(self, rng, monkeypatch):
        calls = _count_quadratures(monkeypatch)
        assert math.isfinite(log_marginal(h1f(self.CAUCHY), make_comparison(rng, 5)))
        assert calls == []

    def test_random_h1_runs_only_the_outer_tau_integral(self, rng, monkeypatch):
        calls, sums = _count_quadratures(monkeypatch), _count_rule_sums(monkeypatch)
        assert math.isfinite(log_marginal(h1r(self.CAUCHY, IG_POOLED), make_comparison(rng, 5)))
        assert calls == [] and sums == [(1, marginal._ML_CUTS[3])]


class TestTruncatedNormalDeltaParts:
    """Uniform and half-normal delta parts are closed (see
    :class:`TestConjugateDeltaPart`), from log Phi differences formed on the
    far side of 0 (``_log_ndtr_diff``)."""

    PRIORS = [PriorSpec.uniform(-1.0, 1.0), PriorSpec.uniform(0.1, 0.2), PriorSpec.halfnormal(0.57)]

    @pytest.mark.parametrize("g", PRIORS, ids=str)
    def test_fixed_h1_runs_no_quadrature(self, g, rng, monkeypatch):
        calls = _count_quadratures(monkeypatch)
        assert math.isfinite(log_marginal(h1f(g), make_comparison(rng, 5)))
        assert calls == []

    @pytest.mark.parametrize("g", PRIORS, ids=str)
    def test_random_h1_runs_only_the_outer_tau_integral(self, g, rng, monkeypatch):
        calls, sums = _count_quadratures(monkeypatch), _count_rule_sums(monkeypatch)
        assert math.isfinite(log_marginal(h1r(g, IG_POOLED), make_comparison(rng, 5)))
        assert calls == [] and sums == [(1, marginal._ML_CUTS[3])]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-40.0, 40.0), log_width=st.floats(-6.0, math.log10(80.0)))
    def test_phi_difference_matches_mpmath(self, lo, log_width):
        # narrow intervals anywhere (a Kronrod rule of the density) and wide
        # ones far in either tail (log_ndtr on the far side) keep 1e-12
        mp = pytest.importorskip("mpmath")
        hi = lo + 10.0**log_width
        assume(hi <= 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marginal._log_ndtr_diff(np.array([lo, -hi]), np.array([hi, -lo]))
        with mp.workdps(40):
            ref = float(_mp_log_ndtr_diff(mp, mp.mpf(lo), mp.mpf(hi)))
        # the interval and its mirror image about 0
        assert np.all(np.abs(got - ref) <= 1e-12 * max(1.0, abs(ref))), (got, ref)


class TestSharedTauPartition:
    def test_owners_of_one_delta_prior_share_tau_intervals(self, rng, monkeypatch):
        # the exp-sinh nodes do not depend on the prior: the three
        # non-uniform tau priors share one random_stats call of 281 nodes,
        # the uniform prior has its own, and each value is its standalone one
        c = make_comparison(rng, 8)
        models = [h1r(T_POOLED, h) for h in general_candidate_set().tau_priors]
        assert sum(m.tau_prior.family == "uniform" for m in models) == 1
        real = marginal.random_stats
        nodes = []

        def recording(tau, comparison):
            nodes.append(np.array(tau))
            return real(tau, comparison)

        monkeypatch.setattr(marginal, "random_stats", recording)
        got = marginal.chunk_log_marginals(models, [c])[0]
        assert [t.size for t in nodes] == [marginal._ML_CUTS[3]] * 2
        assert not np.array_equal(nodes[0], nodes[1])
        monkeypatch.setattr(marginal, "random_stats", real)
        for model, value in zip(models, got):
            assert value == log_marginal(model, c), model.name

    @pytest.mark.parametrize("seed", [27, 35, 37, 54])
    def test_grouped_log_marginals_match_standalone_bitwise(self, seed):
        # comparisons on which the log-MLs of a group differ in the last bit
        # from standalone ones when the rule sums are a matrix product (27,
        # 35) or when all tau values share one lambda partition (37, 54)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 30))
        c = make_comparison(rng, k, delta=float(rng.normal(0, 0.5)), tau=float(rng.uniform(0, 0.5)),
                            se_range=(0.05, 0.4))
        cands = general_candidate_set()
        for g in [T_POOLED] + [p for p in cands.delta_priors if p.family == "t"]:
            models = [h1r(g, h) for h in cands.tau_priors]
            for model, value in zip(models, marginal.chunk_log_marginals(models, [c])[0]):
                assert value == log_marginal(model, c), (g, model.tau_prior)

    DELTAS = [POINT0, PriorSpec.normal(0.0, 0.56), T_POOLED, PriorSpec.cauchy(0.0, 0.7071),
              PriorSpec.uniform(-1.0, 1.0), PriorSpec.halfnormal(0.57)]
    TAUS = [POINT0, PriorSpec.point(0.2), IG_POOLED, PriorSpec.halfnormal(0.57),
            PriorSpec.uniform(0.0, 2.0)]

    def _mixed(self):
        return [ModelSpec(f"m{i}", g, h) for i, (g, h) in
                enumerate((g, h) for g in self.DELTAS for h in self.TAUS)]

    @pytest.mark.parametrize("k", [1, 4, 25])
    def test_one_call_matches_one_delta_prior_at_a_time_bitwise(self, k, rng):
        # the merged outer integral gives each (delta, tau) pair its own
        # group, so no log-ML depends on the other delta priors of the call
        c = make_comparison(rng, k)
        models = self._mixed()
        got = marginal.chunk_log_marginals(models, [c])[0]
        for g in self.DELTAS:
            idx = [i for i, m in enumerate(models) if m.delta_prior == g]
            alone = marginal.chunk_log_marginals([models[i] for i in idx], [c])[0]
            assert np.array_equal(got[idx], alone), g
        assert np.array_equal(got, [log_marginal(m, c) for m in models])

    def test_member_order_does_not_change_values(self, rng):
        c = make_comparison(rng, 6)
        models = self._mixed()
        got = marginal.chunk_log_marginals(models, [c])[0]
        order = np.random.default_rng(3).permutation(len(models))
        shuffled = marginal.chunk_log_marginals([models[i] for i in order], [c])[0]
        assert np.array_equal(shuffled, got[order])
        # a repeated member is one group, with the same value
        twice = marginal.chunk_log_marginals(models + models[:3], [c])[0]
        assert np.array_equal(twice, np.concatenate([got, got[:3]]))


class TestCorpusChunks:
    """A chunk of comparisons is one pass of the free-tau rule with a group
    per (comparison, delta prior, tau prior); each row equals its
    comparison's own call bit for bit."""

    @staticmethod
    def _models():
        cand = general_candidate_set()
        members = build_standard_ensemble(cand.delta_priors, cand.tau_priors).members
        return [m.model for m in members] + [h1r(T_POOLED, IG_POOLED), h1f(T_POOLED)]

    def test_chunk_rows_equal_one_comparison_calls_bitwise(self):
        # repeated and distinct k, k = 1 among them
        rng = np.random.default_rng(12)
        corpus = [make_comparison(rng, k, delta=float(rng.normal(0.0, 0.5)), tau=float(rng.uniform(0.0, 0.5)),
                                  se_range=(0.05, 0.4)) for k in (3, 7, 3, 12, 1, 7, 30, 3)]
        models = self._models()
        got = marginal.chunk_log_marginals(models, corpus)
        want = np.array([marginal.chunk_log_marginals(models, [c])[0] for c in corpus])
        assert np.array_equal(got, want)

    def test_first_outer_pass_of_a_chunk_stays_within_its_budget(self, monkeypatch):
        # stage one's first pass takes levels 1 to 3 of the rule for every
        # group: a chunk's (group x node) cells there stay within the budget
        models = self._models()
        rng = np.random.default_rng(13)
        corpus = [make_comparison(rng, 5) for _ in range(marginal.chunk_size(models))]
        sums = _count_rule_sums(monkeypatch)
        marginal.chunk_log_marginals(models, corpus)
        first = [groups * nodes for groups, nodes in sums if nodes == marginal._ML_CUTS[3]]
        assert len(corpus) >= 2 and 0 < sum(first) <= marginal._CHUNK_NODE_CELLS


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

    def test_normalization_mismatch_is_logged(self, rng, caplog, monkeypatch):
        c = make_comparison(rng, 4)
        model = h1r(T_POOLED, IG_POOLED)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            fine = posterior_summary(model, c, "tau")
        assert not caplog.records
        monkeypatch.setattr(marginal, "_GRID_POINTS", 128)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            coarse = posterior_summary(model, c, "tau")
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


class TestDeltaPosteriorIntegrand:
    """The delta-posterior pass takes the log marginals' rule with each
    delta a group, so at each delta it is the log marginal of the random_H0
    model whose point delta prior sits there."""

    @pytest.mark.parametrize("h", [IG_POOLED, PriorSpec.halfnormal(0.57), PriorSpec.gamma(0.5364548824871708, 1.94),
                                   PriorSpec.uniform(0.0, 1.0)], ids=str)
    @pytest.mark.parametrize("k", [3, 12])
    def test_pass_is_the_point_delta_log_marginal(self, k, h, rng):
        c = make_comparison(rng, k)
        xs = np.linspace(-6.0, 6.0, 41)
        got = marginal._tau_part(h, c)(xs, 1e-10)
        for x, value in zip(xs, got):
            want = log_marginal(ModelSpec("random_H0", PriorSpec.point(float(x)), h), c, rel_tol=1e-10)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (x, value, want)


class TestTauRule:
    """The delta-posterior pass on the log marginals' rule: its values against
    a full-support mpmath integral where stage one accepts them, where only
    its tail check rejects them, and where only stage two accepts them."""

    @staticmethod
    def _recording(monkeypatch):
        """The number of deltas of each stage-two call."""
        real, calls = marginal._recentred, []

        def recording(*args):
            calls.append(args[3].size)
            return real(*args)

        monkeypatch.setattr(marginal, "_recentred", recording)
        return calls

    @pytest.mark.parametrize("h", [IG_POOLED, PriorSpec.halfnormal(0.57), PriorSpec.gamma(1.59, 0.26),
                                   PriorSpec.gamma(0.5364548824871708, 1.94), PriorSpec.uniform(0.0, 1.0)], ids=str)
    @pytest.mark.parametrize("k", [3, 12])
    def test_accepted_values_match_mpmath(self, k, h, rng, monkeypatch):
        c = make_comparison(rng, k)
        model = h1r(T_POOLED, h)
        # the posterior's peak and the points where it falls to exp(-40) of it
        log_post = marginal._log_posterior(model, c, "delta")
        left, right = marginal._mass_region(log_post, c, "delta", T_POOLED)
        grid = np.linspace(left, right, 2001)
        xs = np.array([left, grid[np.argmax(log_post(grid, 1e-9))], right])
        calls = self._recording(monkeypatch)
        got = marginal._tau_part(h, c)(xs, 1e-10)
        # a gamma prior of shape below 1 has mass near 0 that stage one may
        # not reach, as for the log marginals (TestFreeTauRule)
        assert calls == [] or (h.family == "gamma" and h.params[0] < 1.0), "stage one rejected a delta"
        y, se = c._canonical
        for x, value in zip(xs, got):
            ref = mp_log_marginal(tuple(y), tuple(se), ModelSpec("random_H0", PriorSpec.point(float(x)), h))
            assert abs(value - ref) <= 1e-10, x

    def test_pass_reaches_the_prior_mass_below_its_quantiles(self):
        # twelve equal effects at se 0.02: the likelihood in tau is largest
        # at 0, below the invgamma prior's 1e-12 quantile (tau = 0.0133).  A
        # pass that cut the prior there was 1.1e-6 off, one on the tanh-sinh
        # rule in the prior's CDF 1.9e-10; every delta is within 1e-12 of
        # mpmath over the full support
        c = Comparison(tuple(Study(0.3, 0.02) for _ in range(12)))
        xs = np.linspace(0.29, 0.31, 21)
        got = marginal._tau_part(IG_POOLED, c)(xs, 1e-10)
        for x, value in zip(xs, got):
            model = ModelSpec("random_H0", PriorSpec.point(float(x)), IG_POOLED)
            ref = mp_log_marginal((0.3,) * 12, (0.02,) * 12, model)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (x, value, ref)

    def test_far_tail_delta_is_accepted_by_stage_two(self, monkeypatch):
        # a probe delta 10 from three effects at se 1e-4, as the probes of a
        # Cauchy delta prior's tails are: its integrand in log tau is a peak
        # 0.14 wide at tau = 4.07, where stage one's finest nodes are 0.08
        # apart, so only stage two accepts it.  The tanh-sinh rule in the
        # prior's CDF was 1.4e-5 off here
        y, se = (0.29, 0.30, 0.31), (1e-4,) * 3
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        h = PriorSpec.gamma(1.59, 0.26)
        xs = np.array([0.3, 10.0])
        calls = self._recording(monkeypatch)
        got = marginal._tau_part(h, c)(xs, 1e-10)
        assert calls == [1], calls
        for x, value in zip(xs, got):
            ref = mp_log_marginal(y, se, ModelSpec("random_H0", PriorSpec.point(float(x)), h))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (x, value, ref)

    @pytest.mark.parametrize("xs", [[10.0, 0.28, 5.0, 0.3, 2.0, 0.32], [10.0, 0.3]], ids=str)
    @pytest.mark.parametrize("h", [PriorSpec.gamma(0.1, 1.94), PriorSpec.gamma(0.2, 1.0)], ids=str)
    def test_stage_two_passes_keep_each_delta(self, h, xs, monkeypatch):
        # twelve effects at 0.3, se 0.02, under gamma priors of shape below
        # 1: stage one rejects every delta here; stage two accepts the far
        # deltas at levels 2 and 3 and takes levels 4 and 5 for those near
        # 0.3, so its later passes see only some of the deltas of the block,
        # each at its own point
        y, se = (0.3,) * 12, (0.02,) * 12
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        part = marginal._tau_part(h, c)
        real, passes = marginal._ml_nodes, []

        def recording(key, z0, sigma, nodes, start=0):
            passes.append((start, z0.size))
            return real(key, z0, sigma, nodes, start)

        monkeypatch.setattr(marginal, "_ml_nodes", recording)
        got = part(np.array(xs), 1e-10)
        near = sum(x < 1.0 for x in xs)
        assert passes[:2] == [(0, len(xs)), (marginal._ML_CUTS[3], near)], passes
        for x, value in zip(xs, got):
            ref = mp_log_marginal(y, se, ModelSpec("random_H0", PriorSpec.point(float(x)), h))
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (x, value, ref)


def mp_log_marginal_in_log_tau(y, se, model, peak, width):
    """:func:`mp_log_marginal` for a posterior of log tau too narrow for its
    split points: by 30-digit mpmath over z = log tau, split at ``peak`` and
    at multiples of ``width`` around it, and cut 60 widths out."""
    mp = pytest.importorskip("mpmath")
    g, h = model.delta_prior, model.tau_prior
    with mp.workdps(30):
        def log_f(z):
            t = mp.exp(z)
            return _mp_log_inner(mp, y, se, g, t) + _mp_log_prior(mp, h, t) + z

        pts = [mp.mpf(peak) + k * mp.mpf(width) for k in (-60, -10, -3, -1, 0, 1, 3, 10, 60)]
        top = log_f(pts[4])
        return float(top + mp.log(mp.quad(lambda z: mp.exp(log_f(z) - top), pts)))


class TestFreeTauRule:
    """The free-tau log marginal's rule: exp-sinh over (0, inf) centred at the
    data scale, tanh-sinh on a uniform prior's interval, its second stage
    and its failure."""

    @pytest.mark.parametrize("h", [IG_POOLED, PriorSpec.invgamma(1.26, 0.24), PriorSpec.halfnormal(0.57),
                                   PriorSpec.gamma(1.59, 0.26), PriorSpec.gamma(0.5, 2.0), PriorSpec.gamma(0.2, 1.0),
                                   PriorSpec.uniform(0.0, 1.0), PriorSpec.uniform(0.5, 2.0)], ids=str)
    def test_each_level_misses_the_prior_mass_by_at_most_its_end_pieces(self, h):
        # with the likelihood at 1 the rule integrates the prior, whose mass
        # is 1: level 4 misses it by at most the two dropped end masses that
        # the tail check bounds, and level 3 by at most those plus its
        # distance to level 4, which the level check bounds; for the
        # exp-sinh rule at centres from 1e-3 to 100
        key = h if h.family == "uniform" else None
        centres = np.zeros(1) if key is not None else np.log([1e-3, 0.1, 1.0, 10.0, 100.0])
        _, tau, log_w = marginal._ml_nodes(key, centres, np.ones(centres.size), marginal._ML_CUTS[-1])
        log_b = marginal._log_weighted_prior(h, tau, log_w)
        ends = np.exp(marginal._log_end_masses(h, tau)).sum(axis=1)
        level3, level4, level5 = (step * np.exp(log_b[:, :cut]).sum(axis=1)
                                  for cut, step in zip(marginal._ML_CUTS[3:], marginal._ML_STEPS[2:]))
        assert np.all(np.abs(1.0 - level5) <= ends + 1e-14), (level5 - 1.0, ends)
        assert np.all(np.abs(1.0 - level4) <= ends + np.abs(level5 - level4) + 1e-14), (level4 - 1.0, ends)
        assert np.all(np.abs(1.0 - level3) <= ends + np.abs(level4 - level3) + 1e-14), (level3 - 1.0, ends)

    def test_rule_nodes_cover_the_data_scale(self):
        u, log_du, orders = marginal._ml_rule()
        assert u.size == marginal._ML_CUTS[-1] == 1121
        assert np.subtract(marginal._ML_CUTS[1:], marginal._ML_CUTS[:-1]).tolist() == [71, 70, 140, 280, 560]
        # each level holds every other node of the next, first and last at t = -+3.5
        t = np.arcsinh(u / (0.5 * math.pi))
        for cut, step in zip(marginal._ML_CUTS[1:], marginal._ML_STEPS):
            assert np.allclose(np.diff(np.sort(t[:cut])), step, rtol=0.0, atol=1e-12)
        assert np.array_equal(np.sort(u[orders[0]]), u[orders[0]])
        assert u[0] == u.min() and u[marginal._ML_CUTS[1] - 1] == u.max()
        _, tau, _ = marginal._ml_nodes(None, np.zeros(1), np.ones(1), marginal._ML_CUTS[4])
        assert tau.shape == (1, 561) and 4e-12 < tau.min() < 6e-12 and 1.5e11 < tau.max() < 2.5e11

    def test_narrow_posterior_is_recentred(self, monkeypatch):
        # +-620 over 200 studies at se 0.01 under the half-normal prior: the
        # posterior of log tau is about 0.004 wide at tau ~ 70, between stage
        # one's nodes, so stage two recentres it; a cut at the prior's 1e-12
        # quantile (tau = 4.06) read -2.3e6 here
        y, se = [620.0] * 100 + [-620.0] * 100, [0.01] * 200
        c = Comparison(tuple(Study(a, b) for a, b in zip(y, se)))
        model = h0r(PriorSpec.halfnormal(0.57))
        real, calls = marginal._recentred, []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(marginal, "_recentred", recording)
        got = log_marginal(model, c)
        assert len(calls) == 1
        ref = mp_log_marginal_in_log_tau(tuple(y), tuple(se), model, math.log(70.3), 0.004)
        assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)

    @pytest.mark.parametrize("shape, scale, k, tau", [(0.1, 1.0, 60, 0.0), (0.2, 1.94, 60, 0.0), (0.3, 1.94, 60, 0.0),
                                                      (0.5364548824871708, 1.94, 60, 0.0), (0.2, 1.94, 200, 0.05)])
    def test_prior_mass_near_zero_is_reached(self, shape, scale, k, tau, monkeypatch):
        # a gamma tau prior of shape below 1, such as fit-priors fits to the
        # seed-1 bench corpus (shape 0.536), puts mass near 0 that decays
        # only as tau**shape; on homogeneous data stage one's rule does not
        # reach it, and stage two widens its rule to, with a fifth level for
        # the posterior's sharp side
        c = make_comparison(np.random.default_rng(21), k, tau=tau, se_range=(0.05, 0.4))
        model = h1r(PriorSpec.normal(0.0, 0.56), PriorSpec.gamma(shape, scale))
        real, calls = marginal._recentred, []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(marginal, "_recentred", recording)
        got = log_marginal(model, c)
        assert len(calls) == 1
        y, se = c._canonical
        ref = mp_log_marginal(tuple(y), tuple(se), model)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)

    def test_unaccepted_group_raises_with_its_reached_tolerance(self):
        # effects at 1e12 +- 50: the Cauchy delta part's rounding at 1e12
        # prior scales keeps the levels 6e-7 apart in both stages
        c = Comparison(tuple(Study(1e12 + d, 0.01) for d in [-50.0] * 100 + [50.0] * 100))
        with pytest.raises(ConvergenceError, match=r"reached a relative tolerance of [0-9.e-]+, above 1e-09, "
                                                   r"under tau prior uniform\(0.0,1.0\)"):
            log_marginal(h1r(PriorSpec.cauchy(0.0, 0.7071), PriorSpec.uniform(0.0, 1.0)), c)

    def test_t_prior_skips_change_no_value(self, monkeypatch):
        # a node skipped by its bound adds at most 1e-3 of the tolerance:
        # without the skip every value agrees within it, at more lambda work
        rng = np.random.default_rng(8)
        corpus = [make_comparison(rng, k, tau=0.3, se_range=(0.05, 0.4)) for k in (3, 12, 40)]
        models = [h1r(g, h) for g in (T_POOLED, PriorSpec.t(0.0, 0.33, 3.0))
                  for h in general_candidate_set().tau_priors]

        def run():
            cells = _count_quadratures(monkeypatch)
            values = marginal.chunk_log_marginals(models, corpus)
            monkeypatch.undo()
            return values, sum(groups * owners for groups, owners in cells)

        skipped, with_skip = run()
        monkeypatch.setattr(marginal, "_SKIP", 1e-300)
        every, without = run()
        assert with_skip < without
        assert np.all(np.abs(skipped - every) <= 1e-12 * np.maximum(1.0, np.abs(every))), skipped - every
