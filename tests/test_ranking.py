import logging

import numpy as np
import pytest

from bmameta import averaging, marginal, ranking
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
        table = rank_configurations(corpus, candidates)
        assert len(table.rows) == 12
        assert table.n_evaluated == 1
        for col in range(12):
            assert sum(r.rank_counts[col] for r in table.rows) == 1
        for row in table.rows:
            assert sum(row.rank_counts) == 1
            assert row.prior_prob == pytest.approx(1.0 / 12.0)

    def test_rank_columns_sum_to_evaluated(self, small_corpus, candidates):
        table = rank_configurations(small_corpus, candidates)
        n = table.n_evaluated
        for col in range(12):
            assert sum(r.rank_counts[col] for r in table.rows) == n
        total_avg = sum(r.avg_posterior for r in table.rows)
        assert total_avg == pytest.approx(1.0, abs=1e-8)

    def test_small_comparisons_skipped(self, candidates, rng):
        corpus = [make_comparison(rng, 2, cid="small"), make_comparison(rng, 4, cid="ok")]
        table = rank_configurations(corpus, candidates)
        assert table.n_skipped_small == 1
        assert table.n_evaluated == 1

    def test_corpus_order_invariance(self, small_corpus, candidates):
        fwd = rank_configurations(small_corpus, candidates)
        rev = rank_configurations(list(reversed(small_corpus)), candidates)
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


class TestModesGroupTheSameColumns:
    def test_parameter_priors_sum_configuration_rows(self, small_corpus, candidates):
        configs = rank_configurations(small_corpus, candidates)
        params = average_parameter_priors(small_corpus, candidates)
        avg = {r.label: r.avg_posterior for r in configs.rows}
        for row in params.rows:
            if row.group == "delta":
                parts = [v for k, v in avg.items() if k.startswith(f"random_H1[{row.label};")]
                assert len(parts) == 4
            else:
                parts = [v for k, v in avg.items() if k.endswith(f";{row.label}]")]
                assert len(parts) == 3
            assert row.avg_posterior == pytest.approx(sum(parts), abs=1e-12)
        assert params.n_evaluated == configs.n_evaluated
        assert params.failed_ids == configs.failed_ids


class TestTally:
    def test_exact_ties_match_a_per_row_stable_argsort(self):
        # multiples of 1/4 sum exactly, so group posteriors tie often
        posteriors = np.random.default_rng(17).integers(0, 3, (500, 6)) / 4.0
        posteriors[0] = [0.5, 0.25, 0.25, 0.5, 0.25, 0.25]  # all four groups tie
        groups = [("a", [0], 0.2), ("b", [1, 2], 0.3), ("c", [3], 0.1), ("d", [4, 5], 0.4)]
        want = np.zeros((4, 4), dtype=int)
        n_tied = 0
        for row in posteriors:
            summed = np.array([row[cols].sum() for _, cols, _ in groups])
            n_tied += len(np.unique(summed)) < len(summed)
            for rank, idx in enumerate(np.argsort(-summed, kind="stable")):
                want[idx, rank] += 1
        assert n_tied > 100
        rows = ranking._tally(posteriors, groups, "g")
        assert [r.rank_counts for r in rows] == [tuple(w) for w in want.tolist()]
        only_tie = ranking._tally(posteriors[:1], groups, "g")
        assert [r.rank_counts for r in only_tie] == [tuple(w) for w in np.eye(4, dtype=int).tolist()]


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
            candidates.delta_priors, candidates.tau_priors, include_types=("random_H1",),
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


class TestMatchesEvaluate:
    """The corpus matrix gives, row by row, exactly what ``evaluate`` gives
    one comparison."""

    def test_posteriors_bitwise(self, small_corpus, candidates, monkeypatch):
        seen = []
        real = ranking._tally

        def recording(posteriors, groups, kind):
            seen.append(posteriors)
            return real(posteriors, groups, kind)

        monkeypatch.setattr(ranking, "_tally", recording)
        rank_configurations(small_corpus, candidates)
        average_model_types(small_corpus, candidates)
        h1r = build_standard_ensemble(
            candidates.delta_priors, candidates.tau_priors, include_types=("random_H1",),
        )
        full = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
        for posteriors, ensemble in zip(seen, (h1r, full)):
            assert posteriors.shape == (len(small_corpus), len(ensemble.members))
            for row, comp in zip(posteriors, small_corpus):
                expected = evaluate(ensemble, comp, summaries=False).posterior_probs
                assert np.array_equal(row, expected)

    def test_inclusion_log_bfs_bitwise(self, small_corpus, candidates):
        summary = corpus_inclusion_summary(small_corpus, candidates)
        full = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
        assert summary.ids == tuple(c.id for c in small_corpus)
        for i, comp in enumerate(small_corpus):
            res = evaluate(full, comp, summaries=False)
            assert summary.log_bf_effect[i] == res.incl_log_bf_effect
            assert summary.log_bf_heterogeneity[i] == res.incl_log_bf_heterogeneity


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
        # data so extreme the quadrature gives up: the effects lie far beyond
        # every effect prior's integration bounds
        wild = Comparison(
            tuple(
                [Study(1e12 - 50.0, 0.01) for _ in range(100)]
                + [Study(1e12 + 50.0, 0.01) for _ in range(100)]
            ),
            id="wild",
        )
        ok = make_comparison(rng, 4, cid="fine")
        with pytest.raises(CorpusEvaluationError):
            rank_configurations([wild, ok], candidates, max_failure_fraction=0.01)
        # a permissive threshold records and continues
        table = rank_configurations([wild, ok], candidates, max_failure_fraction=0.9)
        assert table.n_failed == 1
        assert table.failed_ids == ("wild",)
        assert table.n_evaluated == 1

    def test_failure_reason_logged(self, small_corpus, candidates, monkeypatch, caplog):
        real = averaging.chunk_log_marginals

        def flaky(models, comparisons, **kwargs):
            if any(c.id == "c2" for c in comparisons):
                raise ConvergenceError("planted failure", bracket=(0.0, 1.0))
            return real(models, comparisons, **kwargs)

        monkeypatch.setattr(averaging, "chunk_log_marginals", flaky)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(small_corpus, candidates, max_failure_fraction=0.5)
        assert table.failed_ids == ("c2",)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "comparison c2 failed: ConvergenceError: planted failure"
        ]

    def test_planted_failure_inside_a_chunk_fails_only_its_comparison(self, small_corpus, candidates,
                                                                       monkeypatch, caplog):
        # c2 shares its chunk with another comparison; its statistics raise
        # inside the chunked pass, the chunk is rerun one comparison at a
        # time, and only c2 fails, with the other rows unchanged
        ensemble = build_standard_ensemble(candidates.delta_priors, candidates.tau_priors)
        assert marginal.chunk_size([m.model for m in ensemble.members]) >= 2
        _, want, _ = ranking._evaluate_corpus(small_corpus, ensemble)
        real = marginal.random_stats

        def planted(tau, comparison):
            if comparison.id == "c2":
                raise ConvergenceError("planted failure", bracket=(0.0, 1.0))
            return real(tau, comparison)

        monkeypatch.setattr(marginal, "random_stats", planted)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            ids, got, counts = ranking._evaluate_corpus(small_corpus, ensemble, max_failure_fraction=0.5)
        assert counts["n_failed"] == 1 and counts["failed_ids"] == ("c2",)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["comparison c2 failed: ConvergenceError: planted failure"]
        keep = [i for i, c in enumerate(small_corpus) if c.id != "c2"]
        assert ids == tuple(small_corpus[i].id for i in keep)
        assert np.array_equal(got, want[keep])

    def test_input_side_error_fails_one_comparison(self, small_corpus, candidates,
                                                    monkeypatch, caplog):
        real = averaging.chunk_log_marginals

        def nan_marginal(models, comparisons, **kwargs):
            if any(c.id == "c3" for c in comparisons):
                raise DomainError("marginal likelihood of model 'm' is not a number")
            return real(models, comparisons, **kwargs)

        monkeypatch.setattr(averaging, "chunk_log_marginals", nan_marginal)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(small_corpus, candidates, max_failure_fraction=0.5)
        assert table.n_failed == 1
        assert table.failed_ids == ("c3",)
        assert table.n_evaluated == len(small_corpus) - 1
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "comparison c3 failed: DomainError: marginal likelihood of model 'm' is not a number"
        ]

    def test_all_zero_evidence_fails_one_comparison(self, small_corpus, candidates,
                                                     monkeypatch, caplog):
        real = averaging.chunk_log_marginals

        def zero_evidence(models, comparisons, **kwargs):
            out = real(models, comparisons, **kwargs)
            out[[c.id == "c4" for c in comparisons]] = -np.inf
            return out

        monkeypatch.setattr(averaging, "chunk_log_marginals", zero_evidence)
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = average_model_types(small_corpus, candidates, max_failure_fraction=0.5)
        assert table.n_failed == 1
        assert table.failed_ids == ("c4",)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "comparison c4 failed: DegenerateEvidenceError: every model has zero marginal likelihood"
        ]

    def test_failure_reason_logged_from_worker_pool(self, candidates, rng, caplog):
        from bmameta import Comparison, Study
        wild = Comparison(
            tuple(
                [Study(1e12 - 50.0, 0.01) for _ in range(100)]
                + [Study(1e12 + 50.0, 0.01) for _ in range(100)]
            ),
            id="wild",
        )
        corpus = [make_comparison(rng, 4, cid="fine"), wild]
        with caplog.at_level(logging.WARNING, logger="bmameta"):
            table = rank_configurations(corpus, candidates, workers=2, max_failure_fraction=0.9)
        assert table.failed_ids == ("wild",)
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 1
        assert messages[0].startswith("comparison wild failed: ConvergenceError: quadrature failed")

    def test_worker_pool_bounded_by_comparisons(self, candidates, rng, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(ranking, "ProcessPoolExecutor", RecordingPool)
        corpus = [make_comparison(rng, 3, cid="a"), make_comparison(rng, 3, cid="b")]
        table = rank_configurations(corpus, candidates, workers=64)
        assert sizes == [2]
        assert table.n_evaluated == 2

    def test_worker_pool_matches_serial(self, small_corpus, candidates):
        serial = average_model_types(small_corpus, candidates)
        parallel = average_model_types(small_corpus, candidates, workers=2)
        assert serial == parallel
