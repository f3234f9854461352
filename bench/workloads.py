"""Seeded inputs and CLI operations for the three benchmark workloads.

Every generator takes a ``numpy.random.Generator`` built from the run's
``--seed`` and writes its CSV/JSON inputs before any timing starts, so
the program under test only ever sees files.  Study counts are
stratified (each run gets the same multiset of k, in seeded order)
because run time depends on k; the effects, standard errors,
heterogeneity, subfields and blank rows vary with the seed.  Generated inputs are
never filtered: an input the program fails on counts as a failure.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from bmameta import catalog, general_candidate_set
from bmameta.reports import dumps

#: Study counts of the analyze pool: every k in 3..12, twice.
ANALYZE_KS = tuple(range(3, 13)) * 2
#: Study counts of the rank corpus, spanning k = 3 to ~60.
RANK_KS = (3, 6, 12, 25, 60)
RANK_MODES = ("configs", "model-types", "parameter-priors", "inclusion")
#: fit-priors corpus: k over 5..60 cyclically, 10% of comparisons with
#: blank rows, and the --min-studies filter.
FIT_KS = tuple(5 + i % 56 for i in range(300))
FIT_BLANKED = 30
FIT_MIN_STUDIES = 10


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, output file and the comparisons it processes."""

    argv: tuple
    out: str
    n_comparisons: int
    meta: dict


def draw_studies(rng, k: int, se_lo: float, se_hi: float, pooled: bool = False):
    """k studies from the random-effects model with se ~ U(se_lo, se_hi).

    The true effect and heterogeneity are N(0, 0.3) and |N(0, 0.2)|, or
    with ``pooled`` drawn from the catalog's pooled priors t(0, 0.43, 5)
    and invgamma(1.71, 0.4), whose heavy-tailed effects keep the t-prior
    MLE at a finite df.
    """
    se = rng.uniform(se_lo, se_hi, k)
    if pooled:
        delta = 0.43 * rng.standard_t(5.0)
        tau = 1.0 / rng.gamma(1.71, 1.0 / 0.4)
    else:
        delta = rng.normal(0.0, 0.3)
        tau = abs(rng.normal(0.0, 0.2))
    y = rng.normal(delta, np.sqrt(se**2 + tau**2))
    return [(float(a), float(b)) for a, b in zip(y, se)]


def write_studies(path: str, studies) -> None:
    with open(path, "w") as fh:
        fh.write("label,effect,se\n")
        for i, (y, se) in enumerate(studies):
            fh.write(f"S{i + 1},{y!r},{se!r}\n")


def analyze_ops(rng, workdir: str):
    """One ``analyze`` op per comparison of a 20-comparison pool.

    k runs over 3..12 twice, se ~ U(0.1, 0.4), and each comparison takes
    its subfield (and so its priors) from the catalog.
    """
    topics = catalog.topics()
    ops = []
    for i, k in enumerate(rng.permutation(ANALYZE_KS)):
        studies = draw_studies(rng, int(k), 0.1, 0.4)
        topic = topics[int(rng.integers(len(topics)))]
        ops.append(analyze_op(workdir, f"a{i:02d}", studies, topic))
    return ops


def analyze_op(workdir: str, name: str, studies, topic: str) -> Op:
    csv_path = os.path.join(workdir, f"{name}.csv")
    out = os.path.join(workdir, f"{name}.json")
    svg = os.path.join(workdir, f"{name}.svg")
    write_studies(csv_path, studies)
    argv = ("analyze", csv_path, "--subfield", topic, "--forest", svg, "--out", out)
    return Op(argv, out, 1, {"studies": studies, "topic": topic, "svg": svg})


def _write_corpus(path: str, comparisons) -> None:
    """``comparisons`` is a list of (id, rows); a row of None is blank."""
    with open(path, "w") as fh:
        fh.write("comparison_id,effect,se\n")
        for cid, rows in comparisons:
            for row in rows:
                fh.write(f"{cid},,\n" if row is None else f"{cid},{row[0]!r},{row[1]!r}\n")


def write_candidates(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(general_candidate_set().to_dict()) + "\n")


def rank_ops(rng, workdir: str):
    """One sweep: ``rank`` in each of the four modes on one seeded corpus.

    se ~ U(0.05, 0.4); candidates are ``general_candidate_set()``.
    """
    comparisons = [
        (f"c{i:03d}", draw_studies(rng, int(k), 0.05, 0.4))
        for i, k in enumerate(rng.permutation(RANK_KS))
    ]
    corpus = os.path.join(workdir, "rank_corpus.csv")
    cands = os.path.join(workdir, "rank_candidates.json")
    _write_corpus(corpus, comparisons)
    write_candidates(cands)
    ops = []
    for mode in RANK_MODES:
        out = os.path.join(workdir, f"rank_{mode}.json")
        argv = ("rank", corpus, "--candidates", cands, "--mode", mode, "--out", out)
        ops.append(Op(argv, out, len(comparisons), {"mode": mode}))
    return ops


def fit_op(rng, workdir: str) -> Op:
    """``fit-priors`` on a corpus of 300 comparisons with k in 5..60.

    Comparisons below ``--min-studies`` and rows with blank effect/se are
    planted; ``meta["expected"]`` holds the provenance counts they imply.
    """
    comparisons = []
    few = blank = retained = retained_studies = rows_total = 0
    blanked = set(rng.choice(len(FIT_KS), FIT_BLANKED, replace=False).tolist())
    for i, k_total in enumerate(rng.permutation(FIT_KS).tolist()):
        n_blank = int(rng.integers(1, 3)) if i in blanked else 0
        rows = draw_studies(rng, k_total - n_blank, 0.05, 0.4, pooled=True)
        for _ in range(n_blank):
            rows.insert(int(rng.integers(len(rows) + 1)), None)
        comparisons.append((f"f{i:04d}", rows))
        rows_total += k_total
        if k_total < FIT_MIN_STUDIES:
            few += 1
        elif n_blank:
            blank += 1
        else:
            retained += 1
            retained_studies += k_total
    corpus = os.path.join(workdir, "fit_corpus.csv")
    out = os.path.join(workdir, "fit_candidates.json")
    _write_corpus(corpus, comparisons)
    expected = {
        "input_comparisons": len(FIT_KS),
        "input_studies": rows_total,
        "dropped_few_studies": few,
        "dropped_non_estimable": blank,
        "retained_comparisons": retained,
        "retained_studies": retained_studies,
        "min_studies": FIT_MIN_STUDIES,
    }
    argv = ("fit-priors", corpus, "--min-studies", str(FIT_MIN_STUDIES), "--out", out)
    return Op(argv, out, len(FIT_KS), {"expected": expected})


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
