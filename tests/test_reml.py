import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from bmameta import (
    Comparison,
    InsufficientDataError,
    RemlFit,
    Study,
    prepare_training,
    reml_fit,
    reml_fits,
    restricted_loglik,
)
from bmameta.cli import read_corpus_csv
from conftest import make_comparison

BENCH = Path(__file__).resolve().parents[1] / "bench"

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _oracle(comparison, golden=False):
    """The one-comparison-at-a-time REML algorithm, on scalar evaluations.

    Returns the fit, the scan's best grid index, and whether the score
    changes sign across the scan bracket.  With ``golden``, the fit starts
    from a golden-section refinement of the scan bracket (to a width of
    1e-8, at most 200 steps) instead of the scan's best point.
    """
    y, se = comparison._canonical
    v = se**2

    def loglik(tau):
        var = v + (tau * tau)[..., None]
        w = 1.0 / var
        sw = np.sum(w, axis=-1)
        q = np.sum(w * (y - (np.sum(w * y, axis=-1) / sw)[..., None]) ** 2, axis=-1)
        return -0.5 * (np.sum(np.log(var), axis=-1) + np.log(sw) + q)

    def score(tau):
        w = 1.0 / (v + tau * tau)
        sw = np.sum(w)
        r2 = (y - np.sum(w * y) / sw) ** 2
        return 0.5 * (np.sum(w * w * r2) + np.sum(w * w) / sw - sw)

    tau_max = 10.0 * float(np.max(np.abs(y - np.median(y)))) + float(np.max(se))
    grid = np.linspace(0.0, tau_max, 256)
    best = int(np.argmax(loglik(grid)))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, 255)]
    tau_hat = grid[best]
    if golden:
        a, b = lo, hi
        c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        fc, fd = loglik(np.asarray(c)), loglik(np.asarray(d))
        iterations = 0
        while (b - a) > 1e-8 and iterations < 200:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - GOLDEN * (b - a)
                fc = loglik(np.asarray(c))
            else:
                a, c, fc = c, d, fd
                d = a + GOLDEN * (b - a)
                fd = loglik(np.asarray(d))
            iterations += 1
        tau_hat = 0.5 * (a + b)
    straddle = bool(score(lo) > 0.0 > score(hi))
    if straddle:
        s_lo, s_hi = lo, hi
        while (s_hi - s_lo) > 1e-15 * s_hi:
            mid = 0.5 * (s_lo + s_hi)
            s_lo, s_hi = (mid, s_hi) if score(mid) > 0.0 else (s_lo, mid)
        candidate = 0.5 * (s_lo + s_hi)
        if loglik(np.asarray(candidate)) >= loglik(np.asarray(tau_hat)) - 1e-9:
            tau_hat = candidate
    if loglik(np.asarray(0.0)) >= loglik(np.asarray(tau_hat)) - 1e-9:
        tau_hat = 0.0
    w = 1.0 / (v + tau_hat * tau_hat)
    fit = RemlFit(
        delta_hat=float(np.sum(w * y) / np.sum(w)),
        tau_hat=float(tau_hat),
        se_delta=float(1.0 / math.sqrt(np.sum(w))),
    )
    return fit, best, straddle


def test_two_equal_studies_zero_dispersion():
    c = Comparison((Study(0.3, 0.2), Study(0.3, 0.2)))
    fit = reml_fit(c)
    assert fit.delta_hat == pytest.approx(0.3, abs=1e-12)
    assert fit.tau_hat == 0.0


def test_requires_two_studies():
    with pytest.raises(InsufficientDataError):
        reml_fit(Comparison((Study(0.1, 0.2),)))


def test_homogeneous_data_hits_boundary_mostly():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        c = make_comparison(rng, 10, delta=0.2, tau=0.0, se_range=(0.2, 0.4))
        if reml_fit(c).tau_hat == 0.0:
            hits += 1
    assert hits > 50


def test_grid_search_oracle(rng):
    for _ in range(10):
        c = make_comparison(rng, 10, delta=0.4, tau=0.3, se_range=(0.1, 0.4))
        fit = reml_fit(c)
        y, se = c._canonical
        tau_max = 10.0 * float(np.max(np.abs(y - np.median(y)))) + float(np.max(se))
        grid = np.linspace(0.0, tau_max, 100_000)
        oracle = float(grid[np.argmax(restricted_loglik(grid, c))])
        assert fit.tau_hat == pytest.approx(oracle, abs=1e-4)


def test_returned_tau_beats_thousand_point_grid(rng):
    c = make_comparison(rng, 8, delta=0.1, tau=0.25)
    fit = reml_fit(c)
    y, se = c._canonical
    tau_max = 10.0 * float(np.max(np.abs(y - np.median(y)))) + float(np.max(se))
    grid = np.linspace(0.0, tau_max, 1000)
    best_grid = float(np.max(restricted_loglik(grid, c)))
    assert restricted_loglik(fit.tau_hat, c) >= best_grid - 1e-9


def test_delta_hat_is_weighted_mean(rng):
    c = make_comparison(rng, 7, tau=0.3)
    fit = reml_fit(c)
    w = 1.0 / (c.std_errors**2 + fit.tau_hat**2)
    wmean = float(np.sum(w * c.effects) / np.sum(w))
    assert fit.delta_hat == pytest.approx(wmean, abs=1e-12)
    assert fit.se_delta == pytest.approx(1.0 / np.sqrt(np.sum(w)), abs=1e-12)


def test_translation_equivariance(rng):
    c = make_comparison(rng, 9, delta=0.2, tau=0.2)
    shift = 0.75
    shifted = Comparison(tuple(Study(s.effect + shift, s.se) for s in c.studies))
    fit = reml_fit(c)
    fit_shifted = reml_fit(shifted)
    assert fit_shifted.delta_hat == pytest.approx(fit.delta_hat + shift, abs=1e-10)
    assert fit_shifted.tau_hat == pytest.approx(fit.tau_hat, abs=1e-10)


def test_restricted_loglik_vectorized(rng):
    c = make_comparison(rng, 5)
    taus = np.linspace(0.0, 2.0, 11)
    vec = restricted_loglik(taus, c)
    assert vec.shape == (11,)
    for t, v in zip(taus, vec):
        assert restricted_loglik(float(t), c) == pytest.approx(v, abs=1e-14)


@pytest.fixture(scope="module")
def corpus():
    """Seeded, shuffled comparisons with k = 2..200, three per k.

    Heterogeneity ranges from none to large, so the corpus holds interior
    optima, tau_hat = 0 boundary fits and interior roots in the first scan
    cell; a few rows repeat one study exactly.
    """
    rng = np.random.default_rng(1313)
    comps = [
        make_comparison(
            rng, k, delta=float(rng.normal(0.0, 0.5)),
            tau=float(rng.choice([0.0, 0.03, 0.2, 0.6])), se_range=(0.05, 0.6), cid=f"k{k}.{j}",
        )
        for k in range(2, 201)
        for j in range(3)
    ]
    comps += [Comparison((Study(0.4, 0.25),) * k, id=f"equal{k}") for k in (2, 7, 64)]
    order = rng.permutation(len(comps))
    return [comps[i] for i in order]


@pytest.fixture(scope="module")
def oracle_runs(corpus):
    return [_oracle(c) for c in corpus]


def test_batch_equals_scalar_oracle(corpus, oracle_runs):
    got = reml_fits(corpus)
    for fit, (want, _, _) in zip(got, oracle_runs):
        assert fit == want
    # The corpus exercises every path through the fit.
    kinds = {(best == 0, straddle, want.tau_hat == 0.0) for want, best, straddle in oracle_runs}
    assert (False, True, False) in kinds  # interior root
    assert (True, True, False) in kinds  # root in the first scan cell
    assert (True, False, True) in kinds  # no sign change; tau_hat = 0
    assert len({c.k for c in corpus}) == 199


def test_golden_section_start_never_changes_tau_hat(corpus, oracle_runs):
    # The bisection root or the tau = 0 boundary decides every fit, so a
    # golden-section refinement of the scan's best point would change nothing.
    for c, (want, _, _) in zip(corpus, oracle_runs):
        assert _oracle(c, golden=True)[0] == want


def test_batch_is_independent_of_its_members_and_keeps_order(corpus):
    got = reml_fits(corpus)
    assert got == [reml_fits([c])[0] for c in corpus]
    assert got == [reml_fit(c) for c in corpus]
    assert reml_fits(corpus[::-1]) == got[::-1]
    assert reml_fits([]) == []


def test_prepare_training_pairs_unchanged(corpus, oracle_runs):
    estimates, provenance = prepare_training(corpus, min_studies=5)
    want = [run[0] for c, run in zip(corpus, oracle_runs) if c.k >= 5]
    assert estimates.pairs == tuple((w.delta_hat, w.tau_hat) for w in want)
    assert provenance.reml_non_converged == 0


def test_batch_with_a_single_study_comparison_raises(corpus):
    with pytest.raises(InsufficientDataError):
        reml_fits(corpus[:3] + [Comparison((Study(0.1, 0.2),))])


@pytest.mark.parametrize("seed", [1, 2])
def test_fits_of_data_times_a_power_of_two_are_the_fits_times_it(seed, tmp_path, monkeypatch):
    # the bisection stops at a width relative to its bracket and the final
    # tau**2 is tau * tau, so every step scales exactly with the data
    monkeypatch.syspath_prepend(str(BENCH))
    op = importlib.import_module("workloads").fit_op(np.random.default_rng(seed), str(tmp_path))
    comparisons, _ = read_corpus_csv(op.argv[1], {})
    f = 2.0**-160
    scaled = [Comparison(tuple(Study(s.effect * f, s.se * f) for s in c.studies), c.id)
              for c in comparisons]
    assert reml_fits(scaled) == [RemlFit(r.delta_hat * f, r.tau_hat * f, r.se_delta * f)
                                 for r in reml_fits(comparisons)]
