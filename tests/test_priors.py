import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from bmameta import catalog, general_candidate_set, priors
from bmameta.marginal import _TAIL
from bmameta import (
    DegenerateDataError,
    DomainError,
    ParameterError,
    ParseError,
    PriorSpec,
    UnsupportedOperationError,
    fit_mle,
    parse_prior,
)


def scipy_frozen(spec):
    """A fresh scipy frozen distribution matching ``spec``."""
    f, p = spec.family, spec.params
    return {
        "uniform": lambda: stats.uniform(loc=p[0], scale=p[1] - p[0]),
        "normal": lambda: stats.norm(loc=p[0], scale=p[1]),
        "halfnormal": lambda: stats.halfnorm(loc=0.0, scale=p[0]),
        "cauchy": lambda: stats.cauchy(loc=p[0], scale=p[1]),
        "t": lambda: stats.t(df=p[2], loc=p[0], scale=p[1]),
        "gamma": lambda: stats.gamma(a=p[0], scale=p[1]),
        "invgamma": lambda: stats.invgamma(a=p[0], scale=p[1]),
    }[f]()


ALL_CONTINUOUS = [
    PriorSpec.uniform(0.0, 1.0),
    PriorSpec.normal(0.0, 0.56),
    PriorSpec.halfnormal(0.57),
    PriorSpec.cauchy(0.0, 1.0 / math.sqrt(2.0)),
    PriorSpec.t(0.0, 0.33, 3.0),
    PriorSpec.gamma(1.59, 0.26),
    PriorSpec.invgamma(1.26, 0.24),
]

_CANDIDATES = general_candidate_set()
#: Every prior the package ships: catalog entries, the pooled entry and the candidate set.
SHIPPED = list(dict.fromkeys(
    [p for e in (*catalog.entries(), catalog.pooled_entry()) for p in (e.delta_prior, e.tau_prior)]
    + list(_CANDIDATES.delta_priors) + list(_CANDIDATES.tau_priors)
))
#: The quantile levels log marginals and summaries ask for: the integration
#: range's tails and the 41 probe levels of marginal._prior_probe.
MARGINAL_LEVELS = np.concatenate([[_TAIL, 1.0 - _TAIL], np.linspace(1e-4, 1.0 - 1e-4, 41)])


class TestLogPdf:
    def test_normal_at_zero(self):
        want = -math.log(0.56) - 0.5 * math.log(2.0 * math.pi)
        assert PriorSpec.normal(0.0, 0.56).log_pdf(0.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(-0.3391, abs=5e-5)

    def test_uniform_density_one(self):
        assert PriorSpec.uniform(0.0, 1.0).log_pdf(0.5) == 0.0

    def test_halfnormal_outside_support(self):
        assert PriorSpec.halfnormal(0.57).log_pdf(-0.1) == -math.inf

    def test_point_mass_convention(self):
        p = PriorSpec.point(0.0)
        assert p.log_pdf(0.0) == 0.0
        assert p.log_pdf(0.1) == -math.inf

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS, ids=lambda s: s.family)
    def test_density_normalizes(self, spec):
        lo, hi = spec.support
        value, _ = integrate.quad(
            lambda x: math.exp(spec.log_pdf(x)), lo, hi, limit=400
        )
        assert abs(value - 1.0) <= 1e-6

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS, ids=lambda s: s.family)
    def test_matches_scipy_reference(self, spec):
        xs = np.linspace(*spec.quantile([0.01, 0.99]), 41)
        np.testing.assert_allclose(spec.log_pdf(xs), scipy_frozen(spec).logpdf(xs), atol=1e-10)

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS, ids=lambda s: s.family)
    def test_quantile_and_cdf_equal_frozen_scipy(self, spec):
        levels = np.array([1e-11, 1e-4, 0.025, 0.3, 0.5, 0.85, 0.999, 1.0 - 1e-11])
        xs = np.linspace(*spec.quantile([0.001, 0.999]), 33)
        ref = scipy_frozen(spec)
        assert np.array_equal(spec.quantile(levels), ref.ppf(levels))
        assert np.array_equal(spec.cdf(xs), ref.cdf(xs))
        assert spec.quantile(0.3) == ref.ppf(0.3)
        assert spec.cdf(float(xs[5])) == ref.cdf(float(xs[5]))

    @pytest.mark.parametrize("a", [0.5, 2.5, 9.99, 10.0, 15.0, 500.0, 5e4, 5e7])
    def test_gammaln_k_matches_mpmath(self, a):
        # K(a) = a log a - a - gammaln(a), from Stirling's series for a >= 10
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = float(a * mp.log(a) - a - mp.loggamma(a))
        assert abs(priors._gammaln_k(a) - want) <= 4e-15

    @pytest.mark.parametrize("nu", [1e3, 1e5, 1e6, 1e8])
    def test_t_density_at_large_nu_matches_mpmath(self, nu):
        # gammaln((nu + 1) / 2) - gammaln(nu / 2) formed directly is off by
        # 3.8e-11 at nu = 1e5 and 1.0e-8 at nu = 1e8
        mp = pytest.importorskip("mpmath")
        loc, scale = 0.1, 0.5
        xs = np.array([-3.0, 0.1, 0.4, 2.5])
        got = PriorSpec.t(loc, scale, nu).log_pdf(xs)
        with mp.workdps(40):
            n, s = mp.mpf(nu), mp.mpf(scale)
            const = mp.loggamma((n + 1) / 2) - mp.loggamma(n / 2) - mp.log(n * mp.pi) / 2 - mp.log(s)
            want = [float(const - (n + 1) / 2 * mp.log1p(((mp.mpf(x) - mp.mpf(loc)) / s) ** 2 / n))
                    for x in xs]
        assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want))), got - want

    @pytest.mark.parametrize("nu", [1.0, 3.0, 5.0, 19.0])
    def test_t_density_below_the_series_keeps_the_direct_form(self, nu):
        from scipy.special import gammaln

        spec = PriorSpec.t(0.0, 0.43, nu)
        xs = np.linspace(-2.0, 2.0, 9)
        const = gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi) - math.log(0.43)
        assert np.array_equal(spec.log_pdf(xs), const - 0.5 * (nu + 1.0) * np.log1p((xs / 0.43) ** 2 / nu))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PriorSpec.normal(0.0, -1.0)
        with pytest.raises(ParameterError):
            PriorSpec.uniform(1.0, 1.0)
        with pytest.raises(ParameterError):
            PriorSpec.t(0.0, 0.3, 0.0)
        with pytest.raises(ParameterError):
            PriorSpec.gamma(float("nan"), 1.0)


class TestQuantile:
    def test_uniform(self):
        assert PriorSpec.uniform(0.0, 1.0).quantile(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_normal_median_is_zero(self):
        assert PriorSpec.normal(0.0, 0.56).quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_invgamma_median_vs_bisection_oracle(self):
        spec = PriorSpec.invgamma(1.26, 0.24)

        def cdf_by_quadrature(x):
            value, _ = integrate.quad(lambda u: math.exp(spec.log_pdf(u)), 0.0, x, limit=300)
            return value

        lo, hi = 1e-9, 60.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if cdf_by_quadrature(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert spec.quantile(0.5) == pytest.approx(oracle, rel=1e-8)

    def test_point_mass_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            PriorSpec.point(0.0).quantile(0.5)

    def test_probability_domain(self):
        with pytest.raises(ParameterError):
            PriorSpec.normal(0.0, 1.0).quantile(0.0)
        with pytest.raises(ParameterError):
            PriorSpec.normal(0.0, 1.0).quantile(1.5)

    @pytest.mark.parametrize("p", [math.nan, [0.3, math.nan]], ids=["scalar", "array"])
    def test_nan_probability_rejected(self, p):
        with pytest.raises(ParameterError):
            PriorSpec.t(0.0, 0.43, 5.0).quantile(p)

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS, ids=lambda s: s.family)
    def test_quantile_cdf_roundtrip(self, spec):
        # central 99% of mass
        xs = spec.quantile(np.linspace(0.005, 0.995, 61))
        back = spec.quantile(spec.cdf(xs))
        scale = np.maximum(np.abs(xs), 1.0)
        assert np.max(np.abs(back - xs) / scale) < 1e-8


def _t_quantile_mpmath(df, p):
    """The standard t quantile at a lower-tail level p, to 40 digits: the
    root in log|x| of 0.5 I_{df / (df + x**2)}(df / 2, 1 / 2) = p; -inf
    beyond the float range."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        df, p = mp.mpf(df), mp.mpf(p)
        gap = lambda lx: mp.log(mp.betainc(df / 2, 0.5, 0, df / (df + mp.exp(2 * lx)), regularized=True) / 2) - mp.log(p)
        x = -mp.exp(mp.findroot(gap, (mp.mpf(-1), mp.mpf(800)), solver="illinois"))
        return float(x) if abs(x) <= mp.mpf(np.finfo(float).max) else -math.inf


class TestTQuantileFarTail:
    """stdtrit goes wrong far in the lower tail (df 3: half the quantile at
    1e-200, +inf at 1e-250); the leading tail term takes over there."""

    LEVELS = (1e-12, 1e-50, 1e-100, 1e-160, 1e-200, 1e-250, 1e-300, 1e-307, 1e-310)

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0, 5.0, 30.0, 1e3])
    def test_matches_mpmath(self, df):
        spec = PriorSpec.t(0.0, 1.0, df)
        got = spec.quantile(np.array(self.LEVELS))
        for p, x in zip(self.LEVELS, got):
            want = _t_quantile_mpmath(df, p)
            if math.isinf(want):
                assert x == want, p
            else:
                assert x == pytest.approx(want, rel=1e-13), p
            assert spec.quantile(p) == x

    def test_location_and_scale(self):
        assert PriorSpec.t(2.0, 0.5, 3.0).quantile(1e-250) == pytest.approx(
            2.0 + 0.5 * _t_quantile_mpmath(3.0, 1e-250), rel=1e-13)

    @pytest.mark.parametrize("df", [0.5, 1.0, 3.0, 5.0, 30.0, 1e3])
    def test_stdtrit_kept_where_it_is_right(self, df):
        # the package's levels, and the tail down to where stdtrit still holds
        levels = np.concatenate([MARGINAL_LEVELS, [1e-16, 1e-50]])
        assert np.array_equal(PriorSpec.t(0.0, 1.0, df).quantile(levels), stats.t(df).ppf(levels))


class TestScipyStatsEquality:
    """Quantiles and CDFs from scipy.special equal scipy.stats bit for bit."""

    @pytest.mark.parametrize("spec", SHIPPED, ids=str)
    def test_shipped_priors_at_the_marginal_levels(self, spec):
        ref = scipy_frozen(spec)
        assert np.array_equal(spec.quantile(MARGINAL_LEVELS), ref.ppf(MARGINAL_LEVELS))
        xs = np.linspace(*spec.quantile([0.001, 0.999]), 33)
        assert np.array_equal(spec.cdf(xs), ref.cdf(xs))

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS + [PriorSpec.uniform(0.1, 0.2)], ids=str)
    def test_cdf_edge_rules(self, spec):
        lo, hi = spec.support
        xs = np.array([math.nan, -math.inf, math.inf, lo, hi, lo - 1.0, hi + 1.0, -0.0, 1e-300])
        got = spec.cdf(xs)
        assert np.array_equal(got, scipy_frozen(spec).cdf(xs), equal_nan=True)
        assert math.isnan(got[0]) and got[1] == 0.0 and got[2] == 1.0
        assert got[3] == 0.0 and got[4] == 1.0 and got[5] == 0.0 and got[6] == 1.0
        for x, want in zip(xs, got):
            value = spec.cdf(float(x))
            assert type(value) is float
            assert value == want or (math.isnan(value) and math.isnan(want))

    def test_scalar_quantile_is_a_python_float(self):
        for spec in ALL_CONTINUOUS:
            assert type(spec.quantile(0.3)) is float
            assert isinstance(spec.quantile([0.3]), np.ndarray)

    def test_point_mass_cdf_is_a_step(self):
        assert np.array_equal(PriorSpec.point(0.5).cdf([0.4, 0.5, 0.6]), [0.0, 1.0, 1.0])
        assert type(PriorSpec.point(0.5).cdf(0.5)) is float

    def test_point_mass_cdf_is_nan_at_nan(self):
        point = PriorSpec.point(0.5)
        assert math.isnan(point.cdf(math.nan))
        got = point.cdf([math.nan, -math.inf, math.inf])
        assert np.array_equal(got, [math.nan, 0.0, 1.0], equal_nan=True)


class TestSample:
    def test_point_mass_constant(self, rng):
        np.testing.assert_array_equal(PriorSpec.point(0.0).sample(rng, 3), [0.0, 0.0, 0.0])

    def test_uniform_mean(self):
        draws = PriorSpec.uniform(0.0, 1.0).sample(np.random.default_rng(11), 100_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_t_median(self):
        draws = PriorSpec.t(0.0, 0.33, 3.0).sample(np.random.default_rng(12), 100_000)
        assert abs(np.median(draws)) < 0.01

    def test_deterministic_under_seed(self):
        for spec in ALL_CONTINUOUS:
            a = spec.sample(np.random.default_rng(7), 100)
            b = spec.sample(np.random.default_rng(7), 100)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS, ids=lambda s: s.family)
    def test_draws_match_cdf(self, spec):
        # empirical CDF at the true quartiles should be near 0.25/0.5/0.75
        draws = spec.sample(np.random.default_rng(13), 200_000)
        for p in (0.25, 0.5, 0.75):
            frac = np.mean(draws <= spec.quantile(p))
            assert abs(frac - p) < 0.01


class TestFitMle:
    def test_gamma_self_consistency(self):
        rng = np.random.default_rng(101)
        data = PriorSpec.gamma(1.59, 0.26).sample(rng, 2000)
        fit = fit_mle("gamma", data)
        assert fit.params[0] == pytest.approx(1.59, rel=0.10)
        assert fit.params[1] == pytest.approx(0.26, rel=0.10)

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_mle("normal", [1.0, 1.0, 1.0])

    def test_t_scale_recovery_location_fixed(self):
        rng = np.random.default_rng(102)
        data = PriorSpec.t(0.0, 0.33, 3.0).sample(rng, 2000)
        fit = fit_mle("t", data)
        assert fit.params[0] == 0.0
        assert fit.params[1] == pytest.approx(0.33, rel=0.10)

    @pytest.mark.parametrize(
        "family,truth",
        [
            ("normal", PriorSpec.normal(0.0, 0.56)),
            ("halfnormal", PriorSpec.halfnormal(0.57)),
            ("gamma", PriorSpec.gamma(1.59, 0.26)),
            ("invgamma", PriorSpec.invgamma(1.26, 0.24)),
            ("t", PriorSpec.t(0.0, 0.33, 3.0)),
        ],
    )
    def test_loglik_beats_truth(self, family, truth):
        rng = np.random.default_rng(103)
        data = truth.sample(rng, 1500)
        if family == "halfnormal":
            data = np.abs(data)
        fit = fit_mle(family, data)
        ll_fit = float(np.sum(fit.log_pdf(data)))
        ll_truth = float(np.sum(truth.log_pdf(data)))
        assert ll_fit >= ll_truth - 1e-9

    def test_grid_oracle_around_optimum(self):
        rng = np.random.default_rng(104)
        data = PriorSpec.gamma(1.59, 0.26).sample(rng, 800)
        fit = fit_mle("gamma", data)
        ll_fit = float(np.sum(fit.log_pdf(data)))
        shapes = np.linspace(fit.params[0] * 0.8, fit.params[0] * 1.2, 100)
        scales = np.linspace(fit.params[1] * 0.8, fit.params[1] * 1.2, 100)
        best_grid = -np.inf
        for a in shapes:
            spec = PriorSpec.gamma(a, 1.0)
            base = (a - 1.0) * np.sum(np.log(data))
            for b in scales:
                ll = base - np.sum(data) / b - data.size * (
                    math.lgamma(a) + a * math.log(b)
                )
                best_grid = max(best_grid, ll)
        assert ll_fit >= best_grid - 1e-9

    def test_out_of_support(self):
        with pytest.raises(DomainError):
            fit_mle("gamma", [0.5, -0.1, 0.2])
        with pytest.raises(DomainError):
            fit_mle("halfnormal", [0.5, -0.1])

    def test_unfittable_family(self):
        with pytest.raises(UnsupportedOperationError):
            fit_mle("cauchy", [0.1, 0.2, 0.3])


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("t(0.0,0.33,3.0)", PriorSpec.t(0.0, 0.33, 3.0)),
            ("Normal(0.0, 0.56)", PriorSpec.normal(0.0, 0.56)),
            ("CAUCHY(0.0,0.7071067811865475)", PriorSpec.cauchy(0.0, 0.7071067811865475)),
            ("halfnormal(0.57)", PriorSpec.halfnormal(0.57)),
            ("gamma(1.59,0.26)", PriorSpec.gamma(1.59, 0.26)),
            ("invgamma(1.26,0.24)", PriorSpec.invgamma(1.26, 0.24)),
            ("uniform(0.0,1.0)", PriorSpec.uniform(0.0, 1.0)),
            ("point(0.0)", PriorSpec.point(0.0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_prior(text) == expected

    def test_decimal_point_mandatory(self):
        with pytest.raises(ParseError):
            parse_prior("t(0.0,0.33,3)")

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            parse_prior("beta(1.0,1.0)")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_prior("normal(0.0)")

    def test_invalid_parameters_surface_as_parse_error(self):
        with pytest.raises(ParseError):
            parse_prior("uniform(1.0,0.0)")

    @pytest.mark.parametrize("spec", ALL_CONTINUOUS + [PriorSpec.point(0.5)],
                             ids=lambda s: s.family)
    def test_roundtrip_via_str(self, spec):
        assert parse_prior(str(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(min_value=-30.0, max_value=30.0),
    sd=st.floats(min_value=0.05, max_value=10.0),
)
def test_normal_logpdf_never_above_mode(x, sd):
    spec = PriorSpec.normal(0.0, sd)
    assert spec.log_pdf(x) <= spec.log_pdf(0.0) + 1e-12


@settings(max_examples=100, deadline=None)
@given(p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_quantile_is_cdf_inverse(p):
    spec = PriorSpec.gamma(1.59, 0.26)
    assert spec.cdf(spec.quantile(p)) == pytest.approx(p, abs=1e-9)
