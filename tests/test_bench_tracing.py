"""The benchmark's tracer (``bench/tracing.py``) against the package.

The tracer patches module-level names of the package by hand, so a
renamed function or a dropped import breaks ``bench/run.py --trace 1``
without failing any other test.  It is imported here as the benchmark
imports it, from the ``bench`` directory on ``sys.path``.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from bmameta import ModelSpec, PriorSpec, marginal

from conftest import make_comparison

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def _sites(tracing):
    return [(owner, attr) for owner, attr, _ in tracing._SITES] + [(marginal, "log_quad_batch")]


def test_traced_log_marginals_record_nested_quadratures(tracing, rng):
    model = ModelSpec("random_H1", PriorSpec.t(0.0, 0.43, 5.0), PriorSpec.invgamma(1.71, 0.40))
    c = make_comparison(rng, 6)
    untraced = marginal.chunk_log_marginals([model], [c])[0]

    originals = []
    for owner, attr in _sites(tracing):
        assert hasattr(owner, attr), (owner, attr)
        originals.append(getattr(owner, attr))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(_sites(tracing), originals):
            assert getattr(owner, attr) is not original, (owner, attr)
        traced = marginal.chunk_log_marginals([model], [c])[0]
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(_sites(tracing), originals):
        assert getattr(owner, attr) is original, (owner, attr)
    assert np.array_equal(traced, untraced)

    spans = tracer.spans
    name = lambda i: spans[i][tracing.NAME]
    parent = lambda i: spans[i][tracing.PARENT]
    quads = [i for i in range(len(spans)) if name(i) == tracing.QUAD]
    # the outer tau integral is a fixed rule, so the quadratures left are the
    # t prior's adaptive lambda rows, each with its integrand calls nested
    assert quads and all(parent(i) < 0 for i in quads)
    integrands = [i for i in range(len(spans)) if name(i) == tracing.INTEGRAND]
    assert integrands and all(parent(i) in quads for i in integrands)
    assert {parent(i) for i in integrands} == set(quads)
    assert all(spans[i][tracing.COUNT] > 0 for i in quads)
    assert tracing.layer_metrics(spans)["quadrature.calls"] == len(quads)
