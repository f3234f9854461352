"""Report dictionaries and deterministic JSON serialization.

JSON output is rendered by a small custom writer so that every float is
serialized with 17 significant digits: two runs on identical inputs then
produce byte-identical files.  Non-finite floats (an infinite inclusion
Bayes factor, say) become ``null`` with a companion boolean flag in the
report structure.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .averaging import BmaResult
from .marginal import PosteriorSummary

__all__ = ["dumps", "summary_dict", "analysis_report"]


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with 17-significant-digit floats.

    Dict insertion order is preserved; NaN/inf floats become null.
    """
    pad = " " * indent
    child = indent + 2
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{' ' * child}{json.dumps(str(k))}: {dumps(v, child)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{' ' * child}{dumps(v, child)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def summary_dict(summary: Optional[PosteriorSummary]) -> Optional[dict]:
    if summary is None:
        return None
    return {
        "mean": summary.mean,
        "median": summary.median,
        "sd": summary.sd,
        "ci_lower": summary.ci_lower,
        "ci_upper": summary.ci_upper,
    }


def _bf_entry(value: Optional[float]) -> tuple:
    """(serializable value, infinite flag) for a Bayes factor."""
    if value is None:
        return None, False
    if math.isinf(value):
        return None, True
    return value, False


def _inclusion_dict(result: BmaResult) -> dict:
    """Each side's inclusion Bayes factor, its infinite flag and its
    posterior probability."""
    eff_bf, eff_inf = _bf_entry(result.incl_bf_effect)
    het_bf, het_inf = _bf_entry(result.incl_bf_heterogeneity)
    return {
        "effect_bf": eff_bf,
        "effect_bf_infinite": eff_inf,
        "effect_posterior_prob": result.incl_posterior_prob_effect,
        "heterogeneity_bf": het_bf,
        "heterogeneity_bf_infinite": het_inf,
        "heterogeneity_posterior_prob": result.incl_posterior_prob_heterogeneity,
    }


def analysis_report(
    result: BmaResult,
    *,
    studies,
    config: dict,
    sequential=None,
) -> dict:
    """Assemble the full analysis report dictionary for one comparison."""
    n = len(result.member_names)
    report = {
        "input": {
            "n_studies": len(studies),
            "studies": [
                {"label": s.label, "effect": s.effect, "se": s.se} for s in studies
            ],
        },
        "config": config,
        "models": [
            {
                "name": result.member_names[i],
                "model_type": result.model_types[i],
                "prior_prob": float(result.prior_probs[i]),
                "log_marginal": float(result.log_marginals[i]),
                "posterior_prob": float(result.posterior_probs[i]),
                "delta": summary_dict(result.member_delta[i]) if result.member_delta else None,
                "tau": summary_dict(result.member_tau[i]) if result.member_tau else None,
            }
            for i in range(n)
        ],
        "bf_matrix": result.bf_matrix.tolist(),
        "log_bf_matrix": result.log_bf_matrix.tolist(),
        "inclusion": _inclusion_dict(result),
        "estimates": {
            "averaged_delta": summary_dict(result.averaged_delta),
            "delta_fixed": summary_dict(result.delta_fixed),
            "delta_random": summary_dict(result.delta_random),
            "averaged_tau": summary_dict(result.averaged_tau),
        },
    }
    if sequential is not None:
        report["sequential"] = [
            {
                "n_studies": t + 1,
                "posterior_probs": [float(p) for p in r.posterior_probs],
                **_inclusion_dict(r),
            }
            for t, r in enumerate(sequential)
        ]
    return report
