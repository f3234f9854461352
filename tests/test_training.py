import numpy as np
import pytest

from bmameta import (
    Comparison,
    DegenerateDataError,
    EmptyTrainingError,
    ParameterError,
    PriorSpec,
    Study,
    CandidatePriorSet,
    fit_candidates,
    general_candidate_set,
    prepare_training,
)
from conftest import make_comparison


def corpus_with_sizes(rng, sizes):
    return [
        make_comparison(rng, k, delta=0.3, tau=0.3, cid=f"c{i}")
        for i, k in enumerate(sizes)
    ]


def test_min_studies_threshold(rng):
    corpus = corpus_with_sizes(rng, [3, 9, 10, 12, 15])
    estimates, prov = prepare_training(corpus, min_studies=10)
    assert prov.retained_comparisons == 3
    assert prov.dropped_few_studies == 2
    assert len(estimates.pairs) == 3


def test_tau_floor_splits_lists(rng):
    # two homogeneous comparisons (tau_hat lands exactly on 0) and one
    # strongly heterogeneous one
    homogeneous = [
        Comparison(tuple(Study(0.3, 0.2) for _ in range(10)), id=f"h{i}")
        for i in range(2)
    ]
    hetero = make_comparison(rng, 12, delta=0.2, tau=0.8, se_range=(0.05, 0.1), cid="het")
    estimates, prov = prepare_training(homogeneous + [hetero], min_studies=10)
    assert len(estimates.deltas) == 3
    assert len(estimates.taus) == 1
    assert prov.n_tau_below_floor == 2


@pytest.mark.parametrize("floor", [-0.1, float("nan"), float("inf")])
def test_tau_floor_must_be_finite_and_non_negative(rng, floor):
    corpus = corpus_with_sizes(rng, [12, 12, 12])
    with pytest.raises(ParameterError, match="tau_floor"):
        prepare_training(corpus, min_studies=10, tau_floor=floor)


def test_non_estimable_comparisons_dropped(rng):
    corpus = corpus_with_sizes(rng, [12, 12, 12])
    estimates, prov = prepare_training(
        corpus, min_studies=10, non_estimable_counts={"c1": 2}
    )
    assert prov.dropped_non_estimable == 1
    assert prov.retained_comparisons == 2
    assert prov.input_studies == 38  # 36 parsed + 2 unparsed


def test_provenance_counts_balance(rng):
    corpus = corpus_with_sizes(rng, [3, 11, 12, 4, 15])
    _, prov = prepare_training(corpus, min_studies=10)
    assert (
        prov.retained_comparisons + prov.dropped_few_studies + prov.dropped_non_estimable
        == prov.input_comparisons
    )


def test_filtering_idempotent(rng):
    corpus = corpus_with_sizes(rng, [10, 11, 12])
    first, _ = prepare_training(corpus, min_studies=10)
    second, _ = prepare_training(corpus, min_studies=10)
    assert first == second


def test_empty_training_error(rng):
    corpus = corpus_with_sizes(rng, [3, 4])
    with pytest.raises(EmptyTrainingError):
        prepare_training(corpus, min_studies=10)


def test_candidate_layout(rng):
    corpus = [
        make_comparison(rng, 14, delta=float(rng.normal(0, 0.5)),
                        tau=float(rng.gamma(1.6, 0.25)) + 0.05, cid=f"c{i}")
        for i in range(40)
    ]
    estimates, prov = prepare_training(corpus, min_studies=10)
    cand = fit_candidates(estimates, prov)
    assert [p.family for p in cand.delta_priors] == ["cauchy", "normal", "t"]
    assert [p.family for p in cand.tau_priors] == ["uniform", "halfnormal", "invgamma", "gamma"]
    assert cand.delta_priors[0] == PriorSpec.cauchy(0.0, 1.0 / np.sqrt(2.0))
    assert cand.tau_priors[0] == PriorSpec.uniform(0.0, 1.0)
    assert cand.delta_priors[1].params[0] == 0.0  # zero-centered normal
    assert cand.delta_priors[2].params[0] == 0.0  # zero-centered t
    assert cand.provenance is prov


def test_single_tau_estimate_degenerates(rng):
    corpus = corpus_with_sizes(rng, [12, 12])
    estimates, _ = prepare_training(corpus, min_studies=10)
    squeezed = type(estimates)(
        pairs=estimates.pairs, deltas=estimates.deltas, taus=(0.3,)
    )
    with pytest.raises(DegenerateDataError):
        fit_candidates(squeezed)


def test_synthetic_recovery_single_seed():
    rng = np.random.default_rng(7)
    corpus = []
    for i in range(300):
        delta = float(rng.normal(0.0, 0.56))
        tau = float(rng.gamma(1.59, 0.26))
        corpus.append(
            make_comparison(rng, 30, delta=delta, tau=tau,
                            se_range=(0.05, 0.15), cid=f"c{i}")
        )
    estimates, _ = prepare_training(corpus, min_studies=10)
    cand = fit_candidates(estimates)
    fitted_normal_sd = cand.delta_priors[1].params[1]
    assert fitted_normal_sd == pytest.approx(0.56, rel=0.15)
    shape, scale = cand.tau_priors[3].params
    assert shape == pytest.approx(1.59, rel=0.15)
    assert scale == pytest.approx(0.26, rel=0.15)


def test_synthetic_recovery_heavy_tailed_generator():
    # generator uses the heavy-tailed candidate pair: t effects, gamma taus
    rng = np.random.default_rng(21)
    t_gen = PriorSpec.t(0.0, 0.33, 3.0)
    corpus = []
    for i in range(300):
        delta = float(t_gen.sample(rng, 1)[0])
        tau = float(rng.gamma(1.59, 0.26))
        corpus.append(
            make_comparison(rng, 30, delta=delta, tau=tau,
                            se_range=(0.02, 0.08), cid=f"c{i}")
        )
    estimates, _ = prepare_training(corpus, min_studies=10)
    cand = fit_candidates(estimates)
    assert cand.delta_priors[2].params[1] == pytest.approx(0.33, rel=0.15)
    shape, scale = cand.tau_priors[3].params
    assert shape == pytest.approx(1.59, rel=0.15)
    assert scale == pytest.approx(0.26, rel=0.15)


def test_candidate_set_roundtrip(rng):
    cand = general_candidate_set()
    again = CandidatePriorSet.from_dict(cand.to_dict())
    assert again.delta_priors == cand.delta_priors
    assert again.tau_priors == cand.tau_priors
