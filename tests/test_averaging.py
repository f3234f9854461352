import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmameta import (
    BmaMetaError,
    Comparison,
    EnsembleMember,
    ModelEnsemble,
    ModelSpec,
    ParameterError,
    PriorSpec,
    Study,
    build_standard_ensemble,
    evaluate,
    general_candidate_set,
    inclusion_bf,
    log_inclusion_bfs,
    log_marginal,
    mixture_summary,
    posterior_summary,
    sequential_update,
)
from bmameta import averaging
from conftest import make_comparison

POINT0 = PriorSpec.point(0.0)
T_POOLED = PriorSpec.t(0.0, 0.43, 5.0)
IG_POOLED = PriorSpec.invgamma(1.71, 0.40)


def four_model_ensemble(dprior=T_POOLED, tprior=IG_POOLED):
    return build_standard_ensemble([dprior], [tprior])


class TestBuildStandardEnsemble:
    def test_four_type_single_priors(self):
        ens = four_model_ensemble()
        assert len(ens.members) == 4
        assert all(m.prior_prob == 0.25 for m in ens.members)
        assert ens.names == ("fixed_H0", "fixed_H1", "random_H0", "random_H1")

    def test_four_type_weights_for_3x4_candidates(self):
        cand = general_candidate_set()
        ens = build_standard_ensemble(cand.delta_priors, cand.tau_priors)
        assert len(ens.members) == 1 + 3 + 4 + 12
        weights = {}
        for m in ens.members:
            weights.setdefault(m.model.model_type, set()).add(m.prior_prob)
        assert weights["fixed_H0"] == {0.25}
        assert weights["fixed_H1"] == {1.0 / 12.0}
        assert weights["random_H0"] == {1.0 / 16.0}
        assert weights["random_H1"] == {1.0 / 48.0}

    def test_flat_restricted_to_h1r(self):
        cand = general_candidate_set()
        ens = build_standard_ensemble(
            cand.delta_priors, cand.tau_priors, include_types=("random_H1",),
        )
        assert len(ens.members) == 12
        assert all(m.prior_prob == pytest.approx(1.0 / 12.0, abs=1e-15) for m in ens.members)
        assert all(m.model.model_type == "random_H1" for m in ens.members)

    def test_member_order_is_delta_major(self):
        cand = general_candidate_set()
        ens = build_standard_ensemble(
            cand.delta_priors, cand.tau_priors, include_types=("random_H1",),
        )
        for i, m in enumerate(ens.members):
            assert m.model.delta_prior == cand.delta_priors[i // 4]
            assert m.model.tau_prior == cand.tau_priors[i % 4]

    def test_custom_type_probs(self):
        ens = build_standard_ensemble(
            [T_POOLED], [IG_POOLED], type_probs=(0.4, 0.3, 0.2, 0.1)
        )
        assert [m.prior_prob for m in ens.members] == [0.4, 0.3, 0.2, 0.1]

    def test_validation(self):
        with pytest.raises(ParameterError):
            build_standard_ensemble([], [IG_POOLED])
        with pytest.raises(ParameterError):
            build_standard_ensemble([T_POOLED], [IG_POOLED], type_probs=(1.0, 1.0, 1.0, 1.0))

    def test_ensemble_invariants(self):
        with pytest.raises(ParameterError):
            ModelEnsemble((EnsembleMember(ModelSpec("a", POINT0, POINT0), 1.0),))
        with pytest.raises(ParameterError):
            ModelEnsemble((
                EnsembleMember(ModelSpec("a", POINT0, POINT0), 0.7),
                EnsembleMember(ModelSpec("b", T_POOLED, POINT0), 0.7),
            ))


class TestInclusionBf:
    def test_equal_priors_posts(self):
        ens = ModelEnsemble((
            EnsembleMember(ModelSpec("a", T_POOLED, POINT0), 0.5),
            EnsembleMember(ModelSpec("b", POINT0, POINT0), 0.5),
        ))
        assert inclusion_bf(ens, [0.8, 0.2], [0]) == pytest.approx(4.0, abs=1e-12)

    def test_no_updating_means_bf_one(self):
        ens = ModelEnsemble((
            EnsembleMember(ModelSpec("a", T_POOLED, POINT0), 0.9),
            EnsembleMember(ModelSpec("b", POINT0, POINT0), 0.1),
        ))
        assert inclusion_bf(ens, [0.9, 0.1], [0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_denominator_is_inf(self):
        ens = four_model_ensemble()
        bf = inclusion_bf(ens, [0.0, 0.6, 0.0, 0.4], [1, 3])
        assert math.isinf(bf)

    def test_log_bf_stays_finite_beyond_float_range(self):
        ens = ModelEnsemble((
            EnsembleMember(ModelSpec("a", T_POOLED, POINT0), 0.5),
            EnsembleMember(ModelSpec("b", POINT0, POINT0), 0.5),
        ))
        rows = [[0.0, -2000.0], [0.0, -np.inf]]
        assert log_inclusion_bfs(ens, rows, [0]).tolist() == [2000.0, math.inf]
        assert log_inclusion_bfs(ens, rows[:1], [1]).tolist() == [-2000.0]
        assert math.isinf(inclusion_bf(ens, [1.0, 5e-324], [0]))

    def test_rows_share_one_prior_odds_and_keep_their_bits(self, monkeypatch):
        ens = four_model_ensemble()
        rows = np.random.default_rng(5).normal(0.0, 30.0, (6, 4))
        rows[1, [1, 3]] = -np.inf
        rows[2, [0, 2]] = -np.inf
        want = [float(log_inclusion_bfs(ens, [w], [1, 3])[0]) for w in rows]
        calls = []
        real = averaging.logsumexp
        monkeypatch.setattr(averaging, "logsumexp",
                            lambda a, **kw: calls.append(1) or real(a, **kw))
        got = log_inclusion_bfs(ens, rows, [1, 3])
        assert got.tolist() == want
        # one over all rows per side for the posterior odds, two for the prior odds
        assert len(calls) == 4

    def test_empty_partition_rejected(self):
        ens = four_model_ensemble()
        with pytest.raises(ParameterError):
            inclusion_bf(ens, [0.25] * 4, [])
        with pytest.raises(ParameterError):
            inclusion_bf(ens, [0.25] * 4, [0, 1, 2, 3])

    def test_published_posterior_probs_reproduce_inclusion_bfs(self):
        # posterior model probabilities from the worked oral-health example
        ens = four_model_ensemble()
        post = [1.95e-20, 0.221, 0.00456, 0.774]
        bf_effect = inclusion_bf(ens, post, [1, 3])
        bf_het = inclusion_bf(ens, post, [2, 3])
        assert bf_effect == pytest.approx(218.526, rel=0.01)
        assert bf_het == pytest.approx(3.52, rel=0.01)

    def test_table4_partition_matches_direct_arithmetic(self, rng):
        cand = general_candidate_set()
        ens = build_standard_ensemble(cand.delta_priors, cand.tau_priors)
        raw = rng.uniform(0.01, 1.0, len(ens.members))
        post = raw / raw.sum()
        in_idx = [i for i, m in enumerate(ens.members) if m.model.delta_free]
        got = inclusion_bf(ens, post, in_idx)
        prior = ens.prior_probs
        mask = np.zeros(len(ens.members), dtype=bool)
        mask[in_idx] = True
        want = (post[mask].sum() / post[~mask].sum()) / (prior[mask].sum() / prior[~mask].sum())
        assert got == pytest.approx(want, rel=1e-9)


class TestWholeMatrix:
    """The evidence of a (rows x members) matrix is, row by row, bit for
    bit what that row gives alone, in any order and any batching."""

    @pytest.fixture(scope="class")
    def case(self):
        cand = general_candidate_set()
        ens = build_standard_ensemble(cand.delta_priors, cand.tau_priors)
        logml = np.random.default_rng(2000).normal(-40.0, 6.0, (2000, len(ens.members)))
        eff = list(ens.effect_indices)
        rest = [i for i in range(len(ens.members)) if i not in eff]
        logml[3, eff] = -np.inf  # the effect side has no weight
        logml[4, rest] = -np.inf  # the other side has none
        logml[5] = -37.25  # every member equal
        logml[6, :4] = logml[6, 4]  # a tie at the top
        return ens, logml

    @staticmethod
    def outputs(ens, logml):
        """Per row: log BFs and posterior probabilities of both sides, the
        BF matrix and the posteriors, as one array of bit patterns."""
        log_unnorm = averaging.log_posteriors(ens, logml)[0]
        results, log_post = averaging._results(ens, logml)
        incl = [[r.incl_log_bf_effect, r.incl_posterior_prob_effect,
                 r.incl_log_bf_heterogeneity, r.incl_posterior_prob_heterogeneity]
                for r in results]
        return np.concatenate([
            log_inclusion_bfs(ens, log_unnorm, ens.effect_indices)[:, None],
            log_inclusion_bfs(ens, log_unnorm, ens.heterogeneity_indices)[:, None],
            np.array(incl, dtype=float),
            np.array([r.bf_matrix.ravel() for r in results]),
            np.array([r.posterior_probs for r in results]),
            log_post,
        ], axis=1).view(np.uint64)

    def test_rows_equal_their_one_row_calls(self, case):
        ens, logml = case
        whole = self.outputs(ens, logml)
        for r in [3, 4, 5, 6] + list(range(0, 2000, 97)):
            assert np.array_equal(whole[r], self.outputs(ens, logml[r:r + 1])[0])
        assert np.isposinf(whole[4, 0].view(float)) and np.isneginf(whole[3, 0].view(float))

    def test_permuting_or_batching_rows_moves_no_bit(self, case):
        ens, logml = case
        whole = self.outputs(ens, logml)
        perm = np.random.default_rng(3).permutation(len(logml))
        assert np.array_equal(self.outputs(ens, logml[perm]), whole[perm])
        batches = [self.outputs(ens, logml[i:i + 333]) for i in range(0, len(logml), 333)]
        assert np.array_equal(np.concatenate(batches), whole)


class TestEvaluate:
    def test_posteriors_sum_to_one(self, rng):
        comp = make_comparison(rng, 4)
        res = evaluate(four_model_ensemble(), comp, summaries=False)
        assert float(np.sum(res.posterior_probs)) == pytest.approx(1.0, abs=1e-10)

    def test_bf_matrix_identities(self, rng):
        comp = make_comparison(rng, 4)
        res = evaluate(four_model_ensemble(), comp, summaries=False)
        bf = res.bf_matrix
        n = bf.shape[0]
        for i in range(n):
            assert bf[i, i] == 1.0
            for j in range(n):
                assert bf[i, j] * bf[j, i] == pytest.approx(1.0, abs=1e-9)
                for l in range(n):
                    assert bf[i, j] * bf[j, l] == pytest.approx(bf[i, l], rel=1e-9)
                assert bf[i, j] == pytest.approx(
                    math.exp(res.log_marginals[i] - res.log_marginals[j]), rel=1e-12
                )

    def test_identical_models_split_posterior(self, rng):
        comp = make_comparison(rng, 3)
        m = ModelSpec("fixed_H1", T_POOLED, POINT0)
        ens = ModelEnsemble((EnsembleMember(m, 0.5), EnsembleMember(m, 0.5)))
        res = evaluate(ens, comp, summaries=False)
        assert res.bf_matrix[0, 1] == 1.0
        np.testing.assert_allclose(res.posterior_probs, [0.5, 0.5], atol=1e-15)

    def test_prior_scaling_invariance(self, rng):
        comp = make_comparison(rng, 3)
        ens1 = build_standard_ensemble([T_POOLED], [IG_POOLED],
                                       type_probs=(0.1, 0.2, 0.3, 0.4))
        # scale by 4 (a power of two) and renormalize: identical floats
        scaled = tuple(
            EnsembleMember(m.model, (m.prior_prob * 4.0) / 4.0) for m in ens1.members
        )
        res1 = evaluate(ens1, comp, summaries=False)
        res2 = evaluate(ModelEnsemble(scaled), comp, summaries=False)
        assert np.array_equal(res1.posterior_probs, res2.posterior_probs)

    def test_two_member_inclusion_equals_bf_entry(self, rng):
        comp = make_comparison(rng, 3)
        ens = ModelEnsemble((
            EnsembleMember(ModelSpec("fixed_H1", T_POOLED, POINT0), 0.5),
            EnsembleMember(ModelSpec("fixed_H0", POINT0, POINT0), 0.5),
        ))
        res = evaluate(ens, comp, summaries=False)
        assert res.incl_bf_effect == pytest.approx(res.bf_matrix[0, 1], rel=1e-9)

    def test_single_study_at_null_favors_h0f(self):
        comp = Comparison((Study(0.0, 1.0),))
        res = evaluate(four_model_ensemble(), comp, summaries=False)
        probs = dict(zip(res.member_names, res.posterior_probs))
        assert probs["fixed_H0"] > probs["fixed_H1"]
        assert probs["fixed_H0"] == max(probs.values())

    def test_averaged_delta_between_fixed_and_random(self, rng):
        comp = make_comparison(rng, 5, delta=0.8, tau=0.25, se_range=(0.15, 0.3))
        res = evaluate(four_model_ensemble(), comp)
        lo = min(res.delta_fixed.mean, res.delta_random.mean)
        hi = max(res.delta_fixed.mean, res.delta_random.mean)
        assert lo - 1e-9 <= res.averaged_delta.mean <= hi + 1e-9

    def test_member_summaries_equal_standalone_ones(self, rng):
        # evaluate hands its log marginals to the summaries; nothing may move
        comp = make_comparison(rng, 4)
        ens = four_model_ensemble()
        res = evaluate(ens, comp)
        for member, delta, tau in zip(ens.members, res.member_delta, res.member_tau):
            for param, got in (("delta", delta), ("tau", tau)):
                if got is None:
                    continue
                want = posterior_summary(member.model, comp, param)
                assert (got.mean, got.median, got.sd, got.ci_lower, got.ci_upper) == (
                    want.mean, want.median, want.sd, want.ci_lower, want.ci_upper)
                assert np.array_equal(got.grid_pdf, want.grid_pdf)

    @pytest.mark.parametrize("k", [1, 3, 25, 60])
    def test_log_marginals_equal_standalone_ones(self, k, rng):
        # evaluate integrates the free-tau members of each delta prior together
        comp = make_comparison(rng, k)
        cand = general_candidate_set()
        ens = build_standard_ensemble(cand.delta_priors, cand.tau_priors)
        res = evaluate(ens, comp, summaries=False)
        for member, got in zip(ens.members, res.log_marginals):
            want = log_marginal(member.model, comp)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), member.model.name

    def test_summaries_off_skips_grids(self, rng):
        comp = make_comparison(rng, 3)
        res = evaluate(four_model_ensemble(), comp, summaries=False)
        assert res.averaged_delta is None
        assert res.member_delta == (None, None, None, None)

    def test_full_candidate_ensemble_with_summaries(self, rng):
        comp = make_comparison(rng, 5, delta=0.6, tau=0.3, se_range=(0.15, 0.35))
        cand = general_candidate_set()
        ens = build_standard_ensemble(cand.delta_priors, cand.tau_priors)
        res = evaluate(ens, comp)
        assert len(set(res.member_names)) == 20
        assert float(np.sum(res.posterior_probs)) == pytest.approx(1.0, abs=1e-10)
        # 15 free-effect members (3 fixed_H1 + 12 random_H1) carry summaries
        assert sum(s is not None for s in res.member_delta) == 15
        assert sum(s is not None for s in res.member_tau) == 16
        member_means = [s.mean for s in res.member_delta if s is not None]
        assert min(member_means) - 1e-9 <= res.averaged_delta.mean <= max(member_means) + 1e-9
        assert res.delta_fixed is not None and res.delta_random is not None
        assert res.averaged_tau is not None and res.averaged_tau.mean > 0


class TestEvaluateProperties:
    @settings(deadline=None)
    @given(st.lists(
        st.tuples(st.floats(min_value=-50.0, max_value=50.0),
                  st.floats(min_value=1e-6, max_value=10.0)),
        min_size=1, max_size=200,
    ))
    def test_result_or_package_error(self, rows):
        comp = Comparison(tuple(Study(d, se) for d, se in rows))
        try:
            res = evaluate(four_model_ensemble(), comp, summaries=False)
        except BmaMetaError:
            return
        assert abs(math.fsum(res.posterior_probs) - 1.0) <= 1e-12
        for log_bf, bf in [(res.incl_log_bf_effect, res.incl_bf_effect),
                           (res.incl_log_bf_heterogeneity, res.incl_bf_heterogeneity)]:
            assert not math.isnan(log_bf)
            assert not math.isinf(bf) or math.isfinite(log_bf)


class TestDegenerateEvidence:
    def test_all_neginf_marginals_raise(self, rng, monkeypatch):
        import bmameta.averaging as averaging
        from bmameta import DegenerateEvidenceError

        comp = make_comparison(rng, 2)
        monkeypatch.setattr(averaging, "chunk_log_marginals",
                            lambda models, cs, rel_tol: np.full((len(cs), len(models)), -np.inf))
        with pytest.raises(DegenerateEvidenceError):
            averaging.evaluate(four_model_ensemble(), comp, summaries=False)


class TestMixture:
    def test_single_component_identity(self, rng):
        comp = make_comparison(rng, 3)
        res = evaluate(four_model_ensemble(), comp)
        only = mixture_summary([res.delta_random], [1.0])
        assert only is res.delta_random

    def test_mixture_moments_match_components(self, rng):
        comp = make_comparison(rng, 4)
        res = evaluate(four_model_ensemble(), comp)
        w = 0.3
        mix = mixture_summary([res.delta_fixed, res.delta_random], [w, 1 - w])
        want_mean = w * res.delta_fixed.mean + (1 - w) * res.delta_random.mean
        assert mix.mean == pytest.approx(want_mean, abs=2e-4)


class TestSequential:
    def test_prefix_one_equals_single_study(self, rng):
        comp = make_comparison(rng, 3)
        ens = four_model_ensemble()
        seq = sequential_update(ens, comp)
        single = evaluate(ens, Comparison((comp.studies[0],), id=comp.id), summaries=False)
        np.testing.assert_array_equal(seq[0].posterior_probs, single.posterior_probs)

    def test_final_equals_batch(self, rng):
        comp = make_comparison(rng, 4)
        ens = four_model_ensemble()
        seq = sequential_update(ens, comp)
        batch = evaluate(ens, comp, summaries=False)
        np.testing.assert_allclose(seq[-1].posterior_probs, batch.posterior_probs, atol=1e-6)

    def test_reversed_order_same_final(self, rng):
        comp = make_comparison(rng, 4)
        ens = four_model_ensemble()
        fwd = sequential_update(ens, comp)
        rev = sequential_update(ens, comp, order=list(range(comp.k))[::-1])
        np.testing.assert_array_equal(fwd[-1].posterior_probs, rev[-1].posterior_probs)

    def test_every_prefix_equals_its_batch_bit_for_bit(self):
        rng = np.random.default_rng(77)
        ens = four_model_ensemble()
        for _ in range(20):
            comp = make_comparison(rng, int(rng.integers(1, 9)))
            order = rng.permutation(comp.k)
            for t, got in enumerate(sequential_update(ens, comp, order=order), start=1):
                want = evaluate(ens, comp.subset(order[:t]), summaries=False)
                for field in ("posterior_probs", "log_marginals", "bf_matrix"):
                    assert np.array_equal(getattr(got, field), getattr(want, field))
                for field in ("incl_log_bf_effect", "incl_log_bf_heterogeneity",
                              "incl_posterior_prob_effect", "incl_posterior_prob_heterogeneity"):
                    assert getattr(got, field) == getattr(want, field)

    def test_one_posterior_pass_and_no_evaluate_call(self, rng, monkeypatch):
        calls = []
        real = averaging.log_posteriors

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(averaging, "log_posteriors", counted)
        monkeypatch.setattr(averaging, "evaluate", lambda *a, **kw: pytest.fail("evaluate called"))
        seq = sequential_update(four_model_ensemble(), make_comparison(rng, 6))
        assert len(seq) == 6 and len(calls) == 1

    def test_invalid_order_rejected(self, rng):
        comp = make_comparison(rng, 3)
        with pytest.raises(ParameterError):
            sequential_update(four_model_ensemble(), comp, order=[0, 0, 1])
