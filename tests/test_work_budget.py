"""Work-count budgets: the quadrature cells and likelihood elements that a
seeded ``rank`` sweep and a seeded ``analyze`` cost may not grow.

Times on a small shared host are too noisy to gate on, but work counts
are deterministic.  The counters sit outside the program: they replace
the module-level names ``marginal.log_quad_batch``,
``marginal._rule_sums``, ``marginal._level_sums`` and
``marginal.random_stats`` and count

* adaptive lambda cells: rows x 21 Kronrod nodes x owners, read from the
  ``x`` each integrand receives.  Every integrand must be one of the t
  prior's lambda rows (``_Mixture``): no tau integral is adaptive.  The
  Gauss-Laguerre lambda rows and the closed form of nu = 3 and 5 call no
  module-level name and are not counted;
* the cells of the free-tau rule, as tau cells: groups x nodes per
  ``_level_sums`` call (the log marginals and stage two), and nodes x
  deltas per ``_rule_sums`` call (stage one of the delta-posterior pass);
* ``random_stats`` elements: tau values x studies.

Each count must stay at most its budget, so a change that refines more,
sends more lambda rows to the adaptive rule or recomputes statistics
fails here before it shows in a benchmark.  Lower a budget when a change
saves work.  The inputs are the benchmark's own generators
(``bench/workloads.py``) at seed 1.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from bmameta import marginal
from bmameta.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: The seed-1 counts, measured with the code this file was last changed
#: with.  The budgets were last changed when t delta priors of nu = 3 and
#: 5 took a closed form (``marginal._voigt``) before their lambda rules:
#: rank ``lambda_cells`` fell 591,360 -> 10,752, since the sweep's t prior
#: has nu = 3, and analyze ``lambda_cells`` 1,106,616 -> 1,094,352, since
#: its comparison's t prior has nu = 4 and only the per-owner gate of the
#: lambda rules applies.  The other counts did not move.
BUDGETS = {
    "rank": {"tau_cells": 79_240, "lambda_cells": 10_752, "stats_elements": 272_100},
    "analyze": {"tau_cells": 673_557, "lambda_cells": 1_094_352, "stats_elements": 55_316},
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.fixture
def counts(monkeypatch):
    """The work counts of everything run after the fixture is set up."""
    out = dict.fromkeys(("tau_cells", "lambda_cells", "stats_elements"), 0)
    real_quad, real_rule, real_stats = marginal.log_quad_batch, marginal._rule_sums, marginal.random_stats
    real_levels = marginal._level_sums

    def log_quad_batch(log_f, bounds, *, n_owners=1, **kwargs):
        assert "_Mixture" in log_f.__qualname__, log_f.__qualname__

        def counted(grp, x):
            out["lambda_cells"] += x.size * n_owners
            return log_f(grp, x)

        return real_quad(counted, bounds, n_owners=n_owners, **kwargs)

    def rule_sums(terms, starts, delta_values):
        out["tau_cells"] += np.size(terms[0]) * np.size(delta_values)
        return real_rule(terms, starts, delta_values)

    def level_sums(f, starts):
        out["tau_cells"] += np.size(f)
        return real_levels(f, starts)

    def random_stats(tau, comparison):
        out["stats_elements"] += np.size(tau) * comparison.k
        return real_stats(tau, comparison)

    monkeypatch.setattr(marginal, "log_quad_batch", log_quad_batch)
    monkeypatch.setattr(marginal, "_rule_sums", rule_sums)
    monkeypatch.setattr(marginal, "_level_sums", level_sums)
    monkeypatch.setattr(marginal, "random_stats", random_stats)
    return out


def _within_budget(counts: dict, budget: dict) -> None:
    assert all(v > 0 for v in counts.values()), counts  # every counter still sees its work
    over = {k: (v, budget[k]) for k, v in counts.items() if v > budget[k]}
    assert not over, f"work above budget (count, budget): {over}"


def test_rank_sweep_within_budget(workloads, counts, tmp_path):
    for op in workloads.rank_ops(np.random.default_rng(1), str(tmp_path)):
        assert main(list(op.argv)) == 0
    _within_budget(counts, BUDGETS["rank"])


def test_analyze_within_budget(workloads, counts, tmp_path):
    op = workloads.analyze_ops(np.random.default_rng(1), str(tmp_path))[0]
    assert main(list(op.argv)) == 0
    _within_budget(counts, BUDGETS["analyze"])
