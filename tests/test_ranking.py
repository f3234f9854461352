import logging

import numpy as np
import pytest

from bmameta import ranking
from bmameta import (
    ConvergenceError,
    CorpusEvaluationError,
    DomainError,
    average_model_types,
    average_parameter_priors,
    build_standard_ensemble,
    corpus_inclusion_summary,
    evaluate,
    general_candidate_set,
    rank_configurations,
)
from conftest import make_comparison


@pytest.fixture(scope="module")
def small_corpus():
    rng = np.random.default_rng(55)
    return [
        make_comparison(rng, int(rng.integers(3, 7)), delta=0.4, tau=0.25, cid=f"c{i}")
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def candidates():
    return general_candidate_set()


class TestRankConfigurations:
    def test_single_comparison_rank_columns(self, candidates, rng):
        corpus = [make_comparison(rng, 4, cid="only")]
        table = rank_configurations(corpus, candidates, "h1r-only")
        assert len(table.rows) == 12
        assert table.n_evaluated == 1
        for col in range(12):
            assert sum(r.rank_counts[col] for r in table.rows) == 1
        for row in table.rows:
            assert sum(row.rank_counts) == 1
            assert row.prior_prob == pytest.approx(1.0 / 12.0)

    def test_rank_columns_sum_to_evaluated(self, small_corpus, candidates):
        table = rank_configurations(small_corpus, candidates, "h1r-only")
        n = table.n_evaluated
        for col in range(12):
            assert sum(r.rank_counts[col] for r in table.rows) == n
        total_avg = sum(r.avg_posterior for r in table.rows)
        assert total_avg == pytest.approx(1.0, abs=1e-8)

    def test_small_comparisons_skipped(self, candidates, rng):
        corpus = [make_comparison(rng, 2, cid="small"), make_comparison(rng, 4, cid="ok")]
        table = rank_configurations(corpus, candidates, "h1r-only")
        assert table.n_skipped_small == 1
        assert table.n_evaluated == 1

    def test_corpus_order_invariance(self, small_corpus, candidates):
        fwd = rank_configurations(small_corpus, candidates, "h1r-only")
        rev = rank_configurations(list(reversed(small_corpus)), candidates, "h1r-only")
        assert fwd.rows == rev.rows
        assert fwd.n_evaluated == rev.n_evaluated


class TestModelTypes:
    def test_four_type_prior_column(self, small_corpus, candidates):
        table = average_model_types(small_corpus, candidates)
        assert [r.label for r in table.rows] == [
            "fixed_H0", "fixed_H1", "random_H0", "random_H1",
        ]
        assert [r.prior_prob for r in table.rows] == [0.25, 0.25, 0.25, 0.25]
        assert sum(r.avg_posterior for r in table.rows) == pytest.approx(1.0, abs=1e-8)
        for col in range(4):
            assert sum(r.rank_counts[col] for r in table.rows) == table.n_evaluated

    def test_matches_rank_configurations_four_type(self, small_corpus, candidates):
        a = average_model_types(small_corpus, candidates)
        b = rank_configurations(small_corpus, candidates, "four-type")
        assert a == b

    def test_heterogeneous_large_effects_favor_random_h1(self, candidates):
        rng = np.random.default_rng(616)
        corpus = [
            make_comparison(rng, 20, delta=0.8, tau=0.5, se_range=(0.1, 0.3), cid=f"h{i}")
            for i in range(20)
        ]
        table = average_model_types(corpus, candidates)
        h1r = next(r for r in table.rows if r.label == "random_H1")
        assert h1r.rank_counts[0] > 0.9 * table.n_evaluated


class TestParameterPriors:
    def test_partitions_and_priors(self, small_corpus, candidates):
        table = average_parameter_priors(small_corpus, candidates)
        delta_rows = [r for r in table.rows if r.group == "delta"]
        tau_rows = [r for r in table.rows if r.group == "tau"]
        assert len(delta_rows) == 3 and len(tau_rows) == 4
        assert all(r.prior_prob == pytest.approx(1 / 3) for r in delta_rows)
        assert all(r.prior_prob == pytest.approx(1 / 4) for r in tau_rows)
        assert sum(r.avg_posterior for r in delta_rows) == pytest.approx(1.0, abs=1e-8)
        assert sum(r.avg_posterior for r in tau_rows) == pytest.approx(1.0, abs=1e-8)
        n = table.n_evaluated
        for col in range(3):
            assert sum(r.rank_counts[col] for r in delta_rows) == n
        for col in range(4):
            assert sum(r.rank_counts[col] for r in tau_rows) == n


class TestParameterPriorSelfConsistency:
    def test_generating_priors_rank_top(self, candidates):
        from bmameta import PriorSpec
        rng = np.random.default_rng(4242)
        t_gen = PriorSpec.t(0.0, 0.33, 3.0)
        ig_gen = PriorSpec.invgamma(1.26, 0.24)
        corpus = []
        for i in range(60):
            delta = float(t_gen.sample(rng, 1)[0])
            tau = float(ig_gen.sample(rng, 1)[0])
            corpus.append(make_comparison(rng, 20, delta=delta, tau=tau,
                                          se_range=(0.1, 0.4), cid=f"p{i}"))
        table = average_parameter_priors(corpus, candidates,
                                         max_failure_fraction=0.05)
        delta_best = max((r for r in table.rows if r.group == "delta"),
                         key=lambda r: r.avg_posterior)
        tau_best = max((r for r in table.rows if r.group == "tau"),
                       key=lambda r: r.avg_posterior)
        assert delta_best.label == "t(0.0,0.33,3.0)"
        assert tau_best.label == "invgamma(1.26,0.24)"


class TestWithinH1rConsistency:
    def test_relative_posteriors_match_across_modes(self, candidates, rng):
        comp = make_comparison(rng, 5, delta=0.5, tau=0.3)
        flat = build_standard_ensemble(
            candidates.delta_priors, candidates.tau_priors,
            scheme="flat", include_types=("random_H1",),
        )
        full = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
        p_flat = evaluate(flat, comp, summaries=False).posterior_probs
        res_full = evaluate(full, comp, summaries=False)
        h1r_idx = [i for i, t in enumerate(res_full.model_types) if t == "random_H1"]
        p_sub = res_full.posterior_probs[h1r_idx]
        for i in range(1, 12):
            ratio_flat = p_flat[i] / p_flat[0]
            ratio_full = p_sub[i] / p_sub[0]
            assert ratio_flat == pytest.approx(ratio_full, rel=1e-9)


class TestInclusionSummary:
    def test_count_bookkeeping(self, small_corpus, candidates):
        summary = corpus_inclusion_summary(small_corpus, candidates)
        assert summary.effect_evidence_for + summary.effect_evidence_against == summary.n_evaluated
        assert (
            summary.heterogeneity_evidence_for + summary.heterogeneity_evidence_against
            == summary.n_evaluated
        )
        assert len(summary.log_bf_effect) == summary.n_evaluated
        assert all(np.isfinite(summary.log_bf_effect))

    def test_null_corpus_mostly_against(self, candidates):
        rng = np.random.default_rng(99)
        corpus = [
            make_comparison(rng, 8, delta=0.0, tau=0.0, se_range=(0.2, 0.4), cid=f"n{i}")
            for i in range(8)
        ]
        summary = corpus_inclusion_summary(corpus, candidates)
        assert summary.effect_evidence_for < summary.n_evaluated / 2


class TestFailureHandling:
    def test_failure_threshold_aborts(self, candidates, rng):
        from bmameta import Comparison, Study
        # data so extreme the quadrature gives up
        wild = Comparison(
            tuple(
                [Study(-50.0, 0.01) for _ in range(100)]
                + [Study(50.0, 0.01) for _ in range(100)]
            ),
            id="wild",
        )
        ok = make_comparison(rng, 4, cid="fine")
        with pytest.raises(CorpusEvaluationError):
            rank_configurations([wild, ok], candidates, "h1r-only",
                                max_failure_fraction=0.01)
        # a permissive threshold records and continues
        table = rank_configurations([wild, ok], candidates, "h1r-only",
                                    max_failure_fraction=0.9)
        assert table.n_failed == 1
        assert table.failed_ids == ("wild",)
        assert table.n_evaluated == 1

    def test_failure_reason_logged(self, small_corpus, candidates, monkeypatch, caplog):
        real = ranking.evaluate

        def flaky(ensemble, comparison, **kwargs):
            if comparison.id == "c2":
                raise ConvergenceError("planted failure", bracket=(0.0, 1.0))
            return real(ensemble, comparison, **kwargs)

        monkeypatch.setattr(ranking, "evaluate", flaky)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(small_corpus, candidates, "h1r-only",
                                        max_failure_fraction=0.5)
        assert table.failed_ids == ("c2",)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "comparison c2 failed: ConvergenceError: planted failure"
        ]

    def test_input_side_error_fails_one_comparison(self, small_corpus, candidates,
                                                    monkeypatch, caplog):
        real = ranking.evaluate

        def nan_marginal(ensemble, comparison, **kwargs):
            if comparison.id == "c3":
                raise DomainError("marginal likelihood of model 'm' is not a number")
            return real(ensemble, comparison, **kwargs)

        monkeypatch.setattr(ranking, "evaluate", nan_marginal)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(small_corpus, candidates, "h1r-only",
                                        max_failure_fraction=0.5)
        assert table.n_failed == 1
        assert table.failed_ids == ("c3",)
        assert table.n_evaluated == len(small_corpus) - 1
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "comparison c3 failed: DomainError: marginal likelihood of model 'm' is not a number"
        ]

    def test_failure_reason_logged_from_worker_pool(self, candidates, rng, caplog):
        from bmameta import Comparison, Study
        wild = Comparison(
            tuple(
                [Study(-50.0, 0.01) for _ in range(100)]
                + [Study(50.0, 0.01) for _ in range(100)]
            ),
            id="wild",
        )
        corpus = [make_comparison(rng, 4, cid="fine"), wild]
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(corpus, candidates, "h1r-only",
                                        workers=2, max_failure_fraction=0.9)
        assert table.failed_ids == ("wild",)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 1
        assert messages[0].startswith("comparison wild failed: ConvergenceError: quadrature failed")

    def test_worker_pool_matches_serial(self, small_corpus, candidates):
        serial = average_model_types(small_corpus, candidates)
        parallel = average_model_types(small_corpus, candidates, workers=2)
        assert serial == parallel
