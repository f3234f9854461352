"""Scale equivariance of the log marginal likelihoods.

Multiplying every effect, standard error, prior location and prior scale
by c > 0 divides each study's density by c, so every log-ML shifts by
exactly -k log c and every Bayes factor stays the same.
"""

import math

import pytest

from bmameta import Comparison, ModelSpec, PriorSpec, Study
from bmameta.marginal import chunk_log_marginals

EFFECTS = (0.12, 0.031, 0.05)
SES = (0.21, 0.15, 0.33)


def _models(c):
    t = PriorSpec.t(0.0, 0.43 * c, 5.0)
    ig = PriorSpec.invgamma(1.71, 0.4 * c)
    point = PriorSpec.point(0.0)
    return [
        ModelSpec("fixed_H0", point, point),
        ModelSpec("fixed_H1", t, point),
        ModelSpec("random_H0", point, ig),
        ModelSpec("random_H1", t, ig),
    ]


def _comparison(c):
    return Comparison(tuple(Study(y * c, s * c) for y, s in zip(EFFECTS, SES)))


@pytest.mark.parametrize("c", [1e-58, 1e-18, 1e-10])
def test_log_marginals_shift_by_k_log_c(c):
    unit = chunk_log_marginals(_models(1.0), [_comparison(1.0)])[0]
    scaled = chunk_log_marginals(_models(c), [_comparison(c)])[0]
    for a, b in zip(unit, scaled):
        want = a - len(EFFECTS) * math.log(c)
        assert abs(b - want) <= 1e-12 * max(1.0, abs(want))
