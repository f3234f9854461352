"""Prior distribution families: densities, quantiles, sampling, and MLE fitting.

Eight families are supported: a degenerate point mass plus uniform,
normal, half-normal, Cauchy, Student-t (location/scale/df), gamma and
inverse-gamma (both shape/scale).  Densities are evaluated with explicit
log-space formulas so integrands never underflow.  Quantiles and CDFs are
loc + scale times a standard form from ``scipy.special``, written as
``scipy.stats`` writes them, so both agree bit for bit; random draws use
the caller's numpy generator.  Gamma and inverse-gamma are
heterogeneity-only: an effect (delta) prior is point, normal, t, cauchy,
uniform or halfnormal (:class:`bmameta.marginal.ModelSpec`).

The half-normal with parameter ``sd`` is the zero-truncated normal with
that standard deviation.  The inverse-gamma scale ``b`` follows the
convention ``pdf(x) ~ x**(-shape-1) * exp(-b/x)``.

:func:`fit_mle` fits a family by one Nelder-Mead run from every parameter
at 1, on the sample divided by a power of two that brings its largest
magnitude into [1, 2); the fitted scale is multiplied back.  So a fit in
any units is the unit-scale fit, and the start needs no moment heuristic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import (
    erf,
    gammainc,
    gammaincc,
    gammainccinv,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
    stdtr,
    stdtrit,
)

from .core import _LOG_2PI
from .errors import (
    DegenerateDataError,
    DomainError,
    ParameterError,
    ParseError,
    UnsupportedOperationError,
)

__all__ = ["PriorSpec", "fit_mle", "parse_prior", "FAMILIES", "FITTABLE_FAMILIES"]


# K(a) from Stirling's series from this a up: its first omitted term,
# 1/(156 a**13), is below 1e-15 there.
_STIRLING_FROM = 10.0
# B_2n / (2n (2n - 1)), n = 1..6: the coefficients of a**(1 - 2n)
_STIRLING_COEFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _gammaln_k(a: float) -> float:
    """K(a) = a log a - a - gammaln(a).

    Directly below _STIRLING_FROM; above it from Stirling's series,
    K(a) = log(a / 2 pi) / 2 - sum_n B_2n / (2n (2n - 1) a**(2n - 1)),
    since the direct terms each reach ~a log a and cancel to ~log(a) / 2.
    """
    if a < _STIRLING_FROM:
        return a * math.log(a) - a - float(gammaln(a))
    x = 1.0 / (a * a)
    series = 0.0
    for coef in reversed(_STIRLING_COEFS):
        series = coef + x * series
    return 0.5 * math.log(a / (2.0 * math.pi)) - series / a


def _gammaln_half_step(a: float) -> float:
    """gammaln(a + 1/2) - gammaln(a).

    Directly below _STIRLING_FROM.  Above it, where both terms reach
    ~a log a, from K (:func:`_gammaln_k`):
    a log1p(1 / (2a)) + log(a + 1/2) / 2 - 1/2 - K(a + 1/2) + K(a).
    """
    if a < _STIRLING_FROM:
        return float(gammaln(a + 0.5) - gammaln(a))
    return (a * math.log1p(0.5 / a) + 0.5 * math.log(a + 0.5) - 0.5
            - _gammaln_k(a + 0.5) + _gammaln_k(a))


FAMILIES = ("point", "uniform", "normal", "halfnormal", "cauchy", "t", "gamma", "invgamma")

_PARAM_NAMES = {
    "point": ("value",),
    "uniform": ("lower", "upper"),
    "normal": ("mean", "sd"),
    "halfnormal": ("sd",),
    "cauchy": ("location", "scale"),
    "t": ("location", "scale", "df"),
    "gamma": ("shape", "scale"),
    "invgamma": ("shape", "scale"),
}


def _validate_params(family: str, params: tuple) -> None:
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    names = _PARAM_NAMES[family]
    if len(params) != len(names):
        raise ParameterError(
            f"{family} takes {len(names)} parameter(s) {names}, got {len(params)}"
        )
    for name, value in zip(names, params):
        if not math.isfinite(value):
            raise ParameterError(f"{family} parameter {name} must be finite, got {value!r}")
        if name in ("sd", "scale", "shape", "df") and value <= 0:
            raise ParameterError(f"{family} parameter {name} must be > 0, got {value}")
    if family == "uniform" and params[1] <= params[0]:
        raise ParameterError(f"uniform requires upper > lower, got {params}")


def _cauchy_ppf(q):
    """Standard Cauchy quantile, formed as Boost (and so ``scipy.stats``) forms it.

    Equal to scipy.stats at the levels this package asks for; on about 0.4%
    of random levels it is 1-2 ulp off.  A subnormal level gives -inf.
    """
    with np.errstate(over="ignore"):
        return np.where(q < 0.5, -1.0 / np.tan(np.pi * q),
                        np.where(q > 0.5, 1.0 / np.tan(np.pi * (1.0 - q)), 0.0))


def _t_ppf(df, q):
    """Standard t quantile: ``stdtrit``, except far in the lower tail.

    There stdtrit goes wrong (df 3: half the quantile at 1e-200, +inf from
    about 1e-250), while the leading tail term P(T < -x) = C x**-df, with
    C = K df**((df - 1) / 2) and K = gamma((df + 1) / 2) / (sqrt(df pi)
    gamma(df / 2)), is exact to about df (df + 1) / ((df + 2) x**2).  The
    tail term replaces stdtrit only where that is below 1e-15 and the two
    differ by more than 1e-12 relative, so every quantile stdtrit gets
    right keeps its bits.  A quantile beyond the float range is -inf.
    """
    x = stdtrit(df, q)
    log_c = (gammaln(0.5 * (df + 1.0)) - 0.5 * math.log(df * math.pi) - gammaln(0.5 * df)
             + 0.5 * (df - 1.0) * math.log(df))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail = -np.exp((log_c - np.log(q)) / df)
        use = (df * (df + 1.0) < 1e-15 * (df + 2.0) * tail * tail) & ~(np.abs(x / tail - 1.0) <= 1e-12)
    return np.where(use, tail, x)


class _Standard(NamedTuple):
    """A continuous family as loc + scale times a standard form, as scipy.stats has it."""

    split: Callable  # params -> (loc, scale, shape parameters)
    ppf: Callable  # (*shape, q) -> standard quantile
    cdf: Callable  # (*shape, z) -> standard CDF inside the open support
    lower: float  # support of the standard form
    upper: float
    isf: Optional[Callable] = None  # (*shape, q) -> standard upper-tail quantile


# The heterogeneity families also carry their upper-tail quantile, the x
# with 1 - F(x) = q, formed from q itself so that it keeps its digits where
# 1 - q rounds to 1 (:meth:`PriorSpec.upper_quantile`).
_STANDARD = {
    "uniform": _Standard(lambda lo, hi: (lo, hi - lo, ()), lambda q: q, lambda z: z, 0.0, 1.0,
                         lambda q: 1.0 - q),
    "normal": _Standard(lambda m, s: (m, s, ()), ndtri, ndtr, -math.inf, math.inf),
    "halfnormal": _Standard(lambda s: (0.0, s, ()), lambda q: ndtri((1 + q) / 2.0),
                            lambda z: erf(z / np.sqrt(2)), 0.0, math.inf, lambda q: -ndtri(q / 2.0)),
    "cauchy": _Standard(lambda m, s: (m, s, ()), _cauchy_ppf,
                        lambda z: np.arctan2(1, -z) / np.pi, -math.inf, math.inf),
    "t": _Standard(lambda m, s, df: (m, s, (df,)), _t_ppf, stdtr, -math.inf, math.inf),
    "gamma": _Standard(lambda a, s: (0.0, s, (a,)), gammaincinv, gammainc, 0.0, math.inf, gammainccinv),
    "invgamma": _Standard(lambda a, s: (0.0, s, (a,)), lambda a, q: 1.0 / gammainccinv(a, q),
                          lambda a, z: gammaincc(a, 1.0 / z), 0.0, math.inf,
                          lambda a, q: 1.0 / gammaincinv(a, q)),
}


@dataclass(frozen=True)
class PriorSpec:
    """A parameterized prior distribution (or point mass) over a scalar.

    Construct through the family-named factories, e.g.
    ``PriorSpec.normal(0.0, 0.56)`` or ``PriorSpec.t(0.0, 0.33, 3.0)``.
    """

    family: str
    params: tuple

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _validate_params(self.family, self.params)

    # --- factories ------------------------------------------------------

    @staticmethod
    def point(value: float) -> "PriorSpec":
        return PriorSpec("point", (value,))

    @staticmethod
    def uniform(lower: float, upper: float) -> "PriorSpec":
        return PriorSpec("uniform", (lower, upper))

    @staticmethod
    def normal(mean: float, sd: float) -> "PriorSpec":
        return PriorSpec("normal", (mean, sd))

    @staticmethod
    def halfnormal(sd: float) -> "PriorSpec":
        return PriorSpec("halfnormal", (sd,))

    @staticmethod
    def cauchy(location: float, scale: float) -> "PriorSpec":
        return PriorSpec("cauchy", (location, scale))

    @staticmethod
    def t(location: float, scale: float, df: float) -> "PriorSpec":
        return PriorSpec("t", (location, scale, df))

    @staticmethod
    def gamma(shape: float, scale: float) -> "PriorSpec":
        return PriorSpec("gamma", (shape, scale))

    @staticmethod
    def invgamma(shape: float, scale: float) -> "PriorSpec":
        return PriorSpec("invgamma", (shape, scale))

    # --- basic properties -----------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.family == "point"

    @property
    def support(self) -> tuple:
        """(lower, upper) bounds of the support, possibly infinite."""
        if self.family == "point":
            v = self.params[0]
            return (v, v)
        if self.family == "uniform":
            return self.params
        if self.family in ("halfnormal", "gamma", "invgamma"):
            return (0.0, math.inf)
        return (-math.inf, math.inf)

    # --- evaluation -------------------------------------------------------

    def log_pdf(self, x):
        """Natural-log density at ``x`` (scalar or array); ``-inf`` off support.

        The point mass returns 0.0 at its location and ``-inf`` elsewhere;
        this bookkeeping convention is never integrated over.
        """
        x = np.asarray(x, dtype=float)
        f, p = self.family, self.params
        out = np.full(x.shape, -np.inf)
        if f == "point":
            out = np.where(x == p[0], 0.0, -np.inf)
        elif f == "uniform":
            lo, hi = p
            out = np.where((x >= lo) & (x <= hi), -math.log(hi - lo), -np.inf)
        elif f == "normal":
            m, s = p
            z = (x - m) / s
            out = -0.5 * z * z - math.log(s) - 0.5 * _LOG_2PI
        elif f == "halfnormal":
            (s,) = p
            z = x / s
            dens = math.log(2.0) - 0.5 * z * z - math.log(s) - 0.5 * _LOG_2PI
            out = np.where(x >= 0, dens, -np.inf)
        elif f == "cauchy":
            loc, s = p
            z = (x - loc) / s
            out = -math.log(math.pi * s) - np.log1p(z * z)
        elif f == "t":
            loc, s, df = p
            z = (x - loc) / s
            const = _gammaln_half_step(df / 2.0) - 0.5 * math.log(df * math.pi) - math.log(s)
            with np.errstate(over="ignore"):
                q = z * z / df
            log1p_q = np.log1p(q)
            far = np.isinf(q)
            if np.any(far):
                # past |z| ~ 1e154 sqrt(df) the quotient overflows, but
                # log1p(z^2 / df) = 2 log|z| - log df + log1p(df / z^2) is in range
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    wide = 2.0 * np.log(np.abs(z)) - math.log(df) + np.log1p(df / (z * z))
                log1p_q = np.where(far, wide, log1p_q)
            out = const - 0.5 * (df + 1.0) * log1p_q
        elif f == "gamma":
            k, theta = p
            with np.errstate(divide="ignore", invalid="ignore"):
                dens = (k - 1.0) * np.log(x) - x / theta - gammaln(k) - k * math.log(theta)
            out = np.where(x > 0, dens, -np.inf)
        elif f == "invgamma":
            a, b = p
            with np.errstate(divide="ignore", invalid="ignore"):
                dens = a * math.log(b) - gammaln(a) - (a + 1.0) * np.log(x) - b / x
            out = np.where(x > 0, dens, -np.inf)
        if out.ndim == 0:
            return float(out)
        return out

    def cdf(self, x):
        """Cumulative distribution function at ``x`` (scalar or array).

        0 at or below the support, 1 at or above its upper end, NaN at NaN.
        """
        x = np.asarray(x, dtype=float)
        if self.family == "point":
            out = np.where(np.isnan(x), np.nan, np.where(x >= self.params[0], 1.0, 0.0))
        else:
            std = _STANDARD[self.family]
            loc, scale, shape = std.split(*self.params)
            z = (x - loc) / scale
            out = np.where(np.isnan(z), np.nan, np.where(z >= std.upper, 1.0, 0.0))
            inside = (z > std.lower) & (z < std.upper)
            out[inside] = std.cdf(*shape, z[inside])
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        """Inverse CDF at probability ``p`` in (0, 1).

        Undefined for the point mass, which has no continuous quantile
        function.
        """
        if self.family == "point":
            raise UnsupportedOperationError("quantile is undefined for a point mass")
        p_arr = np.asarray(p, dtype=float)
        if np.any(~((p_arr > 0.0) & (p_arr < 1.0))):
            raise ParameterError(f"quantile probability must lie in (0, 1), got {p!r}")
        std = _STANDARD[self.family]
        loc, scale, shape = std.split(*self.params)
        val = std.ppf(*shape, p_arr) * scale + loc
        return float(val) if np.ndim(val) == 0 else val

    def upper_quantile(self, q):
        """The value with upper-tail mass ``q`` in (0, 1): ``quantile(1 - q)``,
        formed from ``q`` so that it keeps its digits where 1 - q rounds to 1.

        Defined for the heterogeneity families: uniform, halfnormal, gamma
        and invgamma.
        """
        std = _STANDARD.get(self.family)
        if std is None or std.isf is None:
            raise UnsupportedOperationError(f"upper_quantile is undefined for family {self.family!r}")
        q_arr = np.asarray(q, dtype=float)
        if np.any(~((q_arr > 0.0) & (q_arr < 1.0))):
            raise ParameterError(f"upper-tail probability must lie in (0, 1), got {q!r}")
        loc, scale, shape = std.split(*self.params)
        val = std.isf(*shape, q_arr) * scale + loc
        return float(val) if np.ndim(val) == 0 else val

    def sample(self, rng: np.random.Generator, n: int):
        """Draw ``n`` i.i.d. values using the caller-owned generator."""
        if n < 1:
            raise ParameterError(f"sample size must be >= 1, got {n}")
        f, p = self.family, self.params
        if f == "point":
            return np.full(n, p[0])
        if f == "uniform":
            return rng.uniform(p[0], p[1], n)
        if f == "normal":
            return rng.normal(p[0], p[1], n)
        if f == "halfnormal":
            return np.abs(rng.normal(0.0, p[0], n))
        if f == "cauchy":
            return p[0] + p[1] * rng.standard_cauchy(n)
        if f == "t":
            return p[0] + p[1] * rng.standard_t(p[2], n)
        if f == "gamma":
            return rng.gamma(p[0], p[1], n)
        if f == "invgamma":
            # 1/X with X ~ gamma(shape, scale=1/b) is inverse-gamma(shape, b)
            return 1.0 / rng.gamma(p[0], 1.0 / p[1], n)
        raise UnsupportedOperationError(f"cannot sample family {f!r}")

    # --- formatting -------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.family}({','.join(_format_real(v) for v in self.params)})"


def _format_real(x: float) -> str:
    """Shortest round-trip decimal with a guaranteed decimal point."""
    s = repr(float(x))
    if "e" in s:
        mantissa, _, exponent = s.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return mantissa + "e" + exponent
    if "." not in s:
        s += ".0"
    return s


# --------------------------------------------------------------------------
# Prior specification grammar
# --------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*\(([^()]*)\)\s*$")
# Decimal point is mandatory so that "3" cannot silently mean 3.0.
_REAL_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_prior(text: str) -> PriorSpec:
    """Parse a prior specification string such as ``"t(0.0,0.33,3.0)"``.

    Family names are case-insensitive; every real parameter must contain
    a decimal point.
    """
    m = _SPEC_RE.match(text.lower())
    if not m:
        raise ParseError(f"invalid prior specification {text!r}; expected family(p1,p2,...)")
    family, arg_text = m.group(1), m.group(2)
    if family not in FAMILIES:
        raise ParseError(f"unknown prior family {family!r} in {text!r}")
    args = []
    for piece in arg_text.split(","):
        piece = piece.strip()
        if not _REAL_RE.match(piece):
            raise ParseError(
                f"invalid real {piece!r} in {text!r}; a decimal point is required"
            )
        args.append(float(piece))
    expected = len(_PARAM_NAMES[family])
    if len(args) != expected:
        raise ParseError(f"{family} takes {expected} parameter(s), got {len(args)} in {text!r}")
    try:
        return PriorSpec(family, tuple(args))
    except ParameterError as exc:
        raise ParseError(f"invalid parameters in {text!r}: {exc}") from exc


# --------------------------------------------------------------------------
# Maximum-likelihood fitting
# --------------------------------------------------------------------------


def _unit_sample(family: str, data: np.ndarray) -> tuple:
    """``(data / c, c)`` for c the largest power of two not above the
    data's largest magnitude, once the data are checked to suit ``family``."""
    if data.size == 0:
        raise DegenerateDataError("cannot fit a distribution to an empty sample")
    if not np.all(np.isfinite(data)):
        raise DomainError("fit data must be finite")
    if family in ("gamma", "invgamma") and np.any(data <= 0):
        raise DomainError(f"{family} requires strictly positive data")
    if family == "halfnormal" and np.any(data < 0):
        raise DomainError("halfnormal requires non-negative data")
    c = math.ldexp(1.0, math.frexp(float(np.max(np.abs(data))))[1] - 1)
    unit = data / c
    if np.var(unit) == 0.0:
        raise DegenerateDataError("fit data has zero variance")
    return unit, c


#: family -> (number of positive parameters fitted, (c, *parameters) -> the
#: prior for data c times those the parameters were fitted to)
_FITS = {
    "normal": (1, lambda c, sd: PriorSpec.normal(0.0, sd * c)),
    "t": (2, lambda c, scale, df: PriorSpec.t(0.0, scale * c, df)),
    "halfnormal": (1, lambda c, sd: PriorSpec.halfnormal(sd * c)),
    "gamma": (2, lambda c, shape, scale: PriorSpec.gamma(shape, scale * c)),
    "invgamma": (2, lambda c, shape, scale: PriorSpec.invgamma(shape, scale * c)),
}

#: Families accepted by :func:`fit_mle`.
FITTABLE_FAMILIES = tuple(_FITS)


def fit_mle(family: str, data) -> PriorSpec:
    """Fit a distribution family to a sample by maximum likelihood.

    Fittable families: normal, t, halfnormal, gamma, invgamma.  Normal and
    t fits are zero-centred: their location is fixed at 0, matching how
    effect-size priors are built, and only the scale (and the t's df) is
    fitted.

    The fit runs on the unit-scale sample, the data divided by c, the
    largest power of two not above their largest magnitude, and multiplies
    the fitted scale by c.  Dividing by a power of two is exact, so the
    same sample in other units gets the same shape and df bit for bit, and
    the same scale in those units.  Optimization is one Nelder-Mead run on
    the log of the positive parameters, started with every parameter at 1;
    where a parameter's exponential leaves (0, inf) the negative
    log-likelihood is inf.  A sample whose unit-scale log-likelihood is
    not finite at that start, which happens only when its values span
    more than the float range allows, is a DomainError.
    """
    if family not in _FITS:
        raise UnsupportedOperationError(f"family {family!r} is not fittable")
    n_params, prior = _FITS[family]
    data = np.asarray(data, dtype=float).ravel()
    unit, c = _unit_sample(family, data)

    def neg_ll(theta):
        # a parameter or density out of range is a zero likelihood
        with np.errstate(over="ignore"):
            params = np.exp(theta)
            if not np.all((params > 0.0) & (params < math.inf)):
                return math.inf
            return -float(np.sum(prior(1.0, *params).log_pdf(unit)))

    start = np.zeros(n_params)
    if not math.isfinite(neg_ll(start)):
        low, high = float(np.min(np.abs(data))), float(np.max(np.abs(data)))
        raise DomainError(f"cannot fit {family}: the sample's magnitudes, {low!r} to {high!r}, "
                          "span more than the float range allows")
    from scipy import optimize  # only fitting needs it; importing it costs ~0.4 s

    res = optimize.minimize(neg_ll, start, method="Nelder-Mead",
                            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000, "maxfev": 8000})
    return prior(c, *np.exp(res.x))
