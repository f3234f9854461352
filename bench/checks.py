"""Output checks for the benchmark, run outside the timed region.

Each ``check_*`` function returns a list of problems (empty when the
output is right).  The log-ML oracle integrates each model type with
``scipy.integrate.quad`` on hand-written scalar densities, independent
of the program's own Gauss-Kronrod code.  ``reference.json`` holds the
program's outputs on a fixed two-comparison panel, recorded with::

    python3 bench/checks.py --record
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import warnings

import numpy as np
from scipy import integrate

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
REFERENCE_SEED = 20211004
ORACLE_TOL = 1e-6
SUMMARY_TOL = 1e-6
_SUMMARY_KEYS = ("mean", "median", "sd", "ci_lower", "ci_upper")
_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------- analyze

def check_analyze(report: dict, svg_path: str) -> list:
    problems = []
    models = report["models"]
    total = sum(m["posterior_prob"] for m in models)
    if abs(total - 1.0) > 1e-12:
        problems.append(f"posterior probabilities sum to {total!r}")
    for m in models:
        if not isinstance(m["log_marginal"], (int, float)) or not math.isfinite(m["log_marginal"]):
            problems.append(f"{m['name']}: log marginal {m['log_marginal']!r}")
    inc = report["inclusion"]
    for side in ("effect", "heterogeneity"):
        bf, flagged = inc[f"{side}_bf"], inc[f"{side}_bf_infinite"]
        ok = flagged if bf is None else math.isfinite(bf) and bf >= 0 and not flagged
        if not ok:
            problems.append(f"{side} inclusion BF {bf!r} (infinite flag {flagged})")
    for name, s in report["estimates"].items():
        if s is None or not s["ci_lower"] <= s["median"] <= s["ci_upper"] or s["sd"] < 0:
            problems.append(f"estimate {name}: {s!r}")
    with open(svg_path) as fh:
        if "<svg" not in fh.read(200):
            problems.append(f"{svg_path} is not an SVG")
    return problems


def _parse_spec(text: str):
    m = re.fullmatch(r"(\w+)\((.*)\)", text)
    return m.group(1), tuple(float(v) for v in m.group(2).split(","))


def _log_prior(text: str):
    family, p = _parse_spec(text)
    if family == "t":
        loc, s, df = p
        c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi) - math.log(s)
        return lambda x: c - 0.5 * (df + 1) * math.log1p(((x - loc) / s) ** 2 / df)
    if family == "invgamma":
        a, b = p
        c = a * math.log(b) - math.lgamma(a)
        return lambda x: c - (a + 1) * math.log(x) - b / x if x > 0 else -math.inf
    raise ValueError(f"oracle has no density for {text!r}")


def _quad(f, pieces):
    """Sum of quad integrals of ``f`` over consecutive (lo, hi) pieces."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)[0]
                   for lo, hi in pieces)


def _delta_integral(y, se, tau, log_g):
    """log of the integral over delta of likelihood(delta, tau) * g(delta).

    The likelihood is Gaussian in delta with centre ``mu`` and sd ``sd``,
    so the integrand is negligible outside mu +- 40 sd.
    """
    v = se * se + tau * tau
    s0, s1, s2 = float(np.sum(1 / v)), float(np.sum(y / v)), float(np.sum(y * y / v))
    const = -0.5 * (len(y) * _LOG_2PI + float(np.sum(np.log(v))) + s2)
    mu, sd = s1 / s0, 1 / math.sqrt(s0)

    def lf(d):
        return const + d * s1 - 0.5 * d * d * s0 + log_g(d)

    lo, hi = mu - 40 * sd, mu + 40 * sd
    shift = max(lf(x) for x in np.linspace(lo, hi, 401))
    return shift + math.log(_quad(lambda d: math.exp(lf(d) - shift), [(lo, mu), (mu, hi)]))


def _tau_integral(log_h):
    """log of the integral over tau in (0, inf) of exp(log_h(tau))."""
    grid = np.geomspace(1e-6, 1e3, 400)
    values = [log_h(t) for t in grid]
    peak = int(np.argmax(values))
    shift, mode = values[peak], float(grid[peak])
    pieces = [(0.0, mode), (mode, 10 * mode + 1), (10 * mode + 1, math.inf)]
    return shift + math.log(_quad(lambda t: math.exp(log_h(t) - shift), pieces))


def oracle_log_ml(studies, delta_prior: str, tau_prior: str) -> dict:
    """Log marginal likelihood of each model type, by nested scipy quadrature."""
    y = np.array([s[0] for s in studies])
    se = np.array([s[1] for s in studies])
    log_g, log_h = _log_prior(delta_prior), _log_prior(tau_prior)

    def loglik(delta, tau):
        v = se * se + tau * tau
        return float(-0.5 * np.sum(_LOG_2PI + np.log(v) + (y - delta) ** 2 / v))

    return {
        "fixed_H0": loglik(0.0, 0.0),
        "fixed_H1": _delta_integral(y, se, 0.0, log_g),
        "random_H0": _tau_integral(lambda t: loglik(0.0, t) + log_h(t)),
        "random_H1": _tau_integral(lambda t: _delta_integral(y, se, t, log_g) + log_h(t)),
    }


def check_oracle(report: dict, studies) -> list:
    cfg = report["config"]
    want = oracle_log_ml(studies, cfg["delta_prior"], cfg["tau_prior"])
    return [
        f"oracle {m['model_type']}: program {m['log_marginal']!r}, oracle {want[m['model_type']]!r}"
        for m in report["models"]
        if not abs(m["log_marginal"] - want[m["model_type"]]) <= ORACLE_TOL
    ]


def _panel_values(report: dict) -> dict:
    """The report values the reference pins, flattened to name -> number."""
    out = {}
    for m in report["models"]:
        out[f"{m['name']}.log_marginal"] = m["log_marginal"]
        for param in ("delta", "tau"):
            for key in _SUMMARY_KEYS if m[param] else ():
                out[f"{m['name']}.{param}.{key}"] = m[param][key]
    for name, s in report["estimates"].items():
        for key in _SUMMARY_KEYS:
            out[f"estimates.{name}.{key}"] = s[key]
    return out


def check_reference(report: dict, expected: dict) -> list:
    """Log-MLs within 10 * tol of the reference; summaries within 1e-6."""
    got = _panel_values(report)
    tol = 10 * report["config"]["tol"]
    problems = []
    if set(got) != set(expected):
        problems.append(f"reference keys differ: {sorted(set(got) ^ set(expected))}")
    for key in set(got) & set(expected):
        limit = tol if key.endswith("log_marginal") else SUMMARY_TOL
        if not abs(got[key] - expected[key]) <= limit:
            problems.append(f"reference {key}: {got[key]!r} vs {expected[key]!r}")
    return problems


def reference_panel() -> list:
    """The fixed panel: two comparisons (k = 3 and k = 6) from REFERENCE_SEED."""
    from bmameta import catalog

    from workloads import draw_studies

    rng = np.random.default_rng(REFERENCE_SEED)
    topics = catalog.topics()
    return [
        {"studies": draw_studies(rng, k, 0.1, 0.4), "topic": topics[int(rng.integers(len(topics)))]}
        for k in (3, 6)
    ]


# ------------------------------------------------------------------- rank

def check_rank(table: dict, mode: str, n_comparisons: int) -> list:
    problems = []
    n_eval = table["n_evaluated"]
    if n_eval + table["n_failed"] + table["n_skipped_small"] != n_comparisons:
        problems.append(f"{mode}: evaluated/failed/skipped do not add up to {n_comparisons}")
    if mode == "inclusion":
        if not len(table["ids"]) == len(table["log_bf_effect"]) == len(table["log_bf_heterogeneity"]) == n_eval:
            problems.append("inclusion: list lengths differ from n_evaluated")
        for side in ("effect", "heterogeneity"):
            if table[f"{side}_evidence_for"] + table[f"{side}_evidence_against"] != n_eval:
                problems.append(f"inclusion: {side} evidence counts do not sum to n_evaluated")
        return problems
    groups: dict = {}
    for row in table["rows"]:
        if sum(row["rank_counts"]) != n_eval:
            problems.append(f"{mode}: rank_counts of {row['label']} sum to {sum(row['rank_counts'])}, not {n_eval}")
        groups[row["group"]] = groups.get(row["group"], 0.0) + row["avg_posterior"]
    for group, total in groups.items():
        if n_eval and abs(total - 1.0) > 1e-9:
            problems.append(f"{mode}: average posteriors of group {group} sum to {total!r}")
    return problems


# ------------------------------------------------------------- fit-priors

def check_fit(text: str, expected: dict) -> list:
    """The JSON round-trips through CandidatePriorSet; drop counts match the plan."""
    from bmameta import CandidatePriorSet
    from bmameta.reports import dumps

    data = json.loads(text)
    problems = []
    if dumps(CandidatePriorSet.from_dict(data).to_dict()) + "\n" != text:
        problems.append("fit-priors JSON does not round-trip through CandidatePriorSet")
    if (len(data["delta_priors"]), len(data["tau_priors"])) != (3, 4):
        problems.append("fit-priors: expected 3 delta and 4 tau priors")
    prov = data["provenance"]
    for key, value in expected.items():
        if prov[key] != value:
            problems.append(f"provenance {key}: {prov[key]!r}, planted {value!r}")
    if prov["n_delta_estimates"] != prov["retained_comparisons"]:
        problems.append("provenance: n_delta_estimates != retained_comparisons")
    if prov["n_tau_estimates"] + prov["n_tau_below_floor"] != prov["retained_comparisons"]:
        problems.append("provenance: tau estimates do not cover retained comparisons")
    return problems


def record_reference(workdir: str) -> None:
    """Run the panel through ``bmameta analyze`` and write reference.json."""
    from bmameta.cli import main

    from workloads import analyze_op, load_json

    entries = []
    for i, item in enumerate(reference_panel()):
        op = analyze_op(workdir, f"ref{i}", item["studies"], item["topic"])
        if main(list(op.argv)) != 0:
            raise SystemExit(f"reference panel comparison {i} failed")
        entries.append({**item, "expected": _panel_values(load_json(op.out))})
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "panel": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 bench/checks.py --record")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    work = os.path.join(root, ".bench_out", "reference")
    os.makedirs(work, exist_ok=True)
    record_reference(work)
