"""Spans around the program's layers, recorded from the benchmark side.

The program is not instrumented.  Instead :class:`Tracer` replaces the
module-level names through which the program looks its layers up (for
example ``bmameta.averaging.log_marginal`` or
``bmameta.marginal.log_quad_batch``) with wrappers that record a span
per call: name, start, end, parent span, operation id, a tag (model
type or parameter) and a work count.  ``uninstall`` puts the originals
back.  Spans stay in memory until the run ends.

Quadrature and likelihood work is counted from outside: the
``log_quad_batch`` wrapper wraps the ``log_f`` it is handed, so each
integrand call records its interval rows and the 15 Kronrod nodes per
row, and each ``loglik_random`` call records (evaluation points) x
(studies).  These counts are deterministic for a given seed.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bmameta import averaging, cli, marginal, priors, ranking, training

# span record fields
NAME, START, END, PARENT, OP, TAG, COUNT = range(7)

QUAD = "quadrature.log_quad_batch"
INTEGRAND = "quadrature.integrand"

#: (module, attribute, span name) for every call site wrapped.
_SITES = (
    (cli, "read_analysis_csv", "cli.read_csv"),
    (cli, "read_corpus_csv", "cli.read_csv"),
    (cli, "evaluate", "averaging.evaluate"),
    (cli, "forest_svg", "forest.forest_svg"),
    (cli, "prepare_training", "training.prepare_training"),
    (cli, "fit_candidates", "training.fit_candidates"),
    (cli, "rank_configurations", "ranking.rank_configurations"),
    (cli, "average_model_types", "ranking.average_model_types"),
    (cli, "average_parameter_priors", "ranking.average_parameter_priors"),
    (cli, "corpus_inclusion_summary", "ranking.corpus_inclusion_summary"),
    (ranking, "evaluate", "averaging.evaluate"),
    (averaging, "log_marginal", "marginal.log_marginal"),
    (averaging, "posterior_summary", "marginal.posterior_summary"),
    (averaging, "mixture_summary", "averaging.mixture_summary"),
    (marginal, "log_marginal", "marginal.log_marginal"),
    (training, "reml_fit", "reml.reml_fit"),
    (training, "fit_mle", "priors.fit_mle"),
    (priors.PriorSpec, "log_pdf", "priors.log_pdf"),
    (cli, "dumps", "reports.dumps"),
    (marginal, "loglik_random", "core.loglik_random"),
)


def _model_type(args, kwargs):
    return (args[0] if args else kwargs["model"]).model_type


def _parameter(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("parameter", "delta")


def _loglik_elements(args, kwargs, _out):
    delta, tau, comparison = args
    return np.broadcast(np.asarray(delta), np.asarray(tau)).size * comparison.k


def _bytes(_args, _kwargs, out):
    return len(out)


def _rows(_args, _kwargs, out):
    return out.shape[0]


_TAGS = {"marginal.log_marginal": _model_type, "marginal.posterior_summary": _parameter}
_COUNTS = {"reports.dumps": _bytes, "core.loglik_random": _loglik_elements}


class Tracer:
    """Records spans from call-site wrappers while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, tag=None, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   tag(args, kwargs) if tag else None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out

        return wrapper

    def _quad_wrapper(self, fn):
        """Span per ``log_quad_batch`` call; its integrand calls are child spans.

        The quadrature span's count is the rows of the first integrand
        call, i.e. the initial partition, from which the final interval
        count follows (see :func:`layer_metrics`).
        """
        traced = self._wrap(QUAD, fn)
        spans = self.spans

        def log_quad_batch(log_f, bounds, **kwargs):
            quad = len(spans)  # index the span of this call will get
            inner = self._wrap(INTEGRAND, log_f, count=_rows)

            def integrand(own, x):
                if spans[quad][COUNT] == 0:
                    spans[quad][COUNT] = x.shape[0]
                return inner(own, x)

            return traced(integrand, bounds, **kwargs)

        return log_quad_batch

    def install(self) -> None:
        for owner, attr, name in _SITES:
            self._patch(owner, attr, self._wrap(
                name, getattr(owner, attr), _TAGS.get(name), _COUNTS.get(name)))
        self._patch(marginal, "log_quad_batch", self._quad_wrapper(marginal.log_quad_batch))

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op, tag, count."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


#: Per-layer metric -> (unit, better, end-to-end metric it should move, workload).
LAYER_METRICS = {
    "marginal.posterior_summary_s.delta": ("s", "lower", "cmp_per_s", "analyze"),
    "marginal.posterior_summary_s.tau": ("s", "lower", "cmp_per_s", "analyze"),
    "marginal.posterior_summary_calls": ("count", "lower", "cmp_per_s", "analyze"),
    "marginal.log_marginal_s.fixed_H0": ("s", "lower", "cmp_per_s", "rank"),
    "marginal.log_marginal_s.fixed_H1": ("s", "lower", "cmp_per_s", "rank"),
    "marginal.log_marginal_s.random_H0": ("s", "lower", "cmp_per_s", "rank"),
    "marginal.log_marginal_s.random_H1": ("s", "lower", "cmp_per_s", "rank"),
    "marginal.log_marginal_calls": ("count", "lower", "cmp_per_s", "rank"),
    "quadrature.self_s": ("s", "lower", "cmp_per_s", "analyze+rank"),
    "quadrature.calls": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "quadrature.integrand_calls": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "quadrature.intervals": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "quadrature.nodes": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "quadrature.nodes_per_s": ("1/s", "higher", "cmp_per_s", "analyze+rank"),
    "quadrature.kept_ratio": ("ratio", "higher", "cmp_per_s", "analyze+rank"),
    "core.loglik_random_s": ("s", "lower", "cmp_per_s", "analyze+rank"),
    "core.loglik_random_calls": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "core.loglik_elements": ("count", "lower", "cmp_per_s", "analyze+rank"),
    "core.loglik_elem_per_s": ("1/s", "higher", "cmp_per_s", "analyze+rank"),
    "priors.log_pdf_s": ("s", "lower", "cmp_per_s", "rank+fit-priors"),
    "priors.log_pdf_calls": ("count", "lower", "cmp_per_s", "rank+fit-priors"),
    "priors.fit_mle_s": ("s", "lower", "cmp_per_s", "fit-priors"),
    "reml.reml_fit_s": ("s", "lower", "cmp_per_s", "fit-priors"),
    "reml.reml_fit_calls": ("count", "lower", "cmp_per_s", "fit-priors"),
    "training.prepare_training_s": ("s", "lower", "cmp_per_s", "fit-priors"),
    "training.fit_candidates_s": ("s", "lower", "cmp_per_s", "fit-priors"),
    "averaging.evaluate_s": ("s", "lower", "cmp_per_s", "analyze+rank"),
    "averaging.mixture_summary_s": ("s", "lower", "cmp_per_s", "analyze"),
    "ranking.self_s": ("s", "lower", "cmp_per_s", "rank"),
    "cli.read_csv_s": ("s", "lower", "cmp_per_s", "fit-priors"),
    "reports.dumps_s": ("s", "lower", "cmp_per_s", "analyze"),
    "reports.bytes": ("bytes", "lower", "cmp_per_s", "analyze"),
    "forest.forest_svg_s": ("s", "lower", "cmp_per_s", "analyze"),
    "trace.overhead_frac": ("ratio", "lower", "none (reported only)", "all"),
}

#: Work counts that must repeat exactly for one seed.
WORK_COUNTS = (
    "quadrature.calls", "quadrature.integrand_calls", "quadrature.intervals",
    "quadrature.nodes", "core.loglik_random_calls", "core.loglik_elements",
)


def _aggregate(spans, ops):
    """Sums per (name, tag) over spans whose operation id is in ``ops``.

    Returns dicts of inclusive time (outermost calls of a name only),
    self time (duration minus child spans), call counts and work counts.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    incl, own, calls, work = {}, {}, {}, {}
    for i, s in enumerate(spans):
        if ops is not None and s[OP] not in ops:
            continue
        key = (s[NAME], s[TAG])
        own[key] = own.get(key, 0.0) + dur[i] - child[i]
        calls[key] = calls.get(key, 0) + 1
        work[key] = work.get(key, 0) + s[COUNT]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0:
            incl[key] = incl.get(key, 0.0) + dur[i]
    return incl, own, calls, work


def layer_metrics(spans, ops=None) -> dict:
    """Per-layer values from spans, restricted to operation ids ``ops``.

    ``<layer>.<fn>_s`` is inclusive time summed over outermost calls;
    ``<layer>.self_s`` is time minus child spans.  Final quadrature
    intervals are (evaluated + initial) / 2 per call, because each
    refinement round replaces one interval by two evaluated children.
    """
    incl, own, calls, work = _aggregate(spans, ops)

    def pick(table, name, tag=None):
        return sum(v for (n, t), v in table.items() if n == name and (tag is None or t == tag))

    intervals = pick(work, INTEGRAND)
    initial = pick(work, QUAD)
    quad_wall = pick(incl, QUAD)
    loglik_s = pick(incl, "core.loglik_random")
    elements = pick(work, "core.loglik_random")
    m = {
        "marginal.posterior_summary_s.delta": pick(incl, "marginal.posterior_summary", "delta"),
        "marginal.posterior_summary_s.tau": pick(incl, "marginal.posterior_summary", "tau"),
        "marginal.posterior_summary_calls": pick(calls, "marginal.posterior_summary"),
    }
    for t in averaging.MODEL_TYPES:
        m[f"marginal.log_marginal_s.{t}"] = pick(incl, "marginal.log_marginal", t)
    m["marginal.log_marginal_calls"] = pick(calls, "marginal.log_marginal")
    m.update({
        "quadrature.self_s": pick(own, QUAD),
        "quadrature.calls": pick(calls, QUAD),
        "quadrature.integrand_calls": pick(calls, INTEGRAND),
        "quadrature.intervals": intervals,
        "quadrature.nodes": 15 * intervals,
        "quadrature.nodes_per_s": 15 * intervals / quad_wall if quad_wall else 0.0,
        "quadrature.kept_ratio": 0.5 * (intervals + initial) / intervals if intervals else 0.0,
        "core.loglik_random_s": loglik_s,
        "core.loglik_random_calls": pick(calls, "core.loglik_random"),
        "core.loglik_elements": elements,
        "core.loglik_elem_per_s": elements / loglik_s if loglik_s else 0.0,
        "priors.log_pdf_s": pick(incl, "priors.log_pdf"),
        "priors.log_pdf_calls": pick(calls, "priors.log_pdf"),
        "priors.fit_mle_s": pick(incl, "priors.fit_mle"),
        "reml.reml_fit_s": pick(incl, "reml.reml_fit"),
        "reml.reml_fit_calls": pick(calls, "reml.reml_fit"),
        "training.prepare_training_s": pick(incl, "training.prepare_training"),
        "training.fit_candidates_s": pick(incl, "training.fit_candidates"),
        "averaging.evaluate_s": pick(incl, "averaging.evaluate"),
        "averaging.mixture_summary_s": pick(incl, "averaging.mixture_summary"),
        "ranking.self_s": sum(pick(own, n) for n in _RANKING),
        "cli.read_csv_s": pick(incl, "cli.read_csv"),
        "reports.dumps_s": pick(incl, "reports.dumps"),
        "reports.bytes": pick(work, "reports.dumps"),
        "forest.forest_svg_s": pick(incl, "forest.forest_svg"),
    })
    return m


_RANKING = tuple(name for _, _, name in _SITES if name.startswith("ranking."))
