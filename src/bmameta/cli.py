"""Command-line interface: analyze, fit-priors, rank, catalog.

Input is CSV (either ``effect,se[,label]`` columns or raw two-arm
summaries ``n1,m1,sd1,n2,m2,sd2[,label]``; corpus files add a
``comparison_id`` column).  Output is deterministic JSON on stdout or
``--out``, with logs on stderr only.  Exit codes: 0 success, 2 input
error, 3 computational error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import stat
import sys
from contextlib import contextmanager
from typing import Optional

from . import catalog
from .averaging import build_standard_ensemble, evaluate, sequential_update
from .core import Comparison, Study, smd_from_raw
from .errors import BmaMetaError, InputError, ParseError
from .forest import forest_svg
from .priors import parse_prior
from .ranking import (
    average_model_types,
    average_parameter_priors,
    corpus_inclusion_summary,
    rank_configurations,
)
from .reports import analysis_report, dumps
from .training import CandidatePriorSet, fit_candidates, prepare_training

log = logging.getLogger("bmameta")

_EFFECT_COLS = ("effect", "se")
_RAW_COLS = ("n1", "m1", "sd1", "n2", "m2", "sd2")


def _parse_map(text: Optional[str]) -> dict:
    """Parse ``--map effect=col,se=col`` style column remappings."""
    mapping = {}
    if not text:
        return mapping
    for piece in text.split(","):
        if "=" not in piece:
            raise ParseError(f"invalid --map entry {piece!r}; expected name=column")
        key, col = piece.split("=", 1)
        mapping[key.strip()] = col.strip()
    return mapping


def _cell(row: dict, name: str, mapping: dict) -> Optional[str]:
    col = mapping.get(name, name)
    value = row.get(col)
    if value is None:
        return None
    value = value.strip()
    return value if value else None


def _parse_real(token: str, name: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"column {name!r}: cannot parse {token!r} as a number", line)
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"column {name!r}: non-finite value {token!r} rejected", line)
    return value


def _study_from_row(row: dict, mapping: dict, line: int, mode: str) -> Optional[Study]:
    """Build a study from one CSV row; None marks a non-estimable row.

    ``mode`` is "effect" or "raw".  Blank required cells mean the study
    is non-estimable; non-blank garbage is a parse error.
    """
    label = _cell(row, "label", mapping) or ""
    names = _EFFECT_COLS if mode == "effect" else _RAW_COLS
    cells = [_cell(row, name, mapping) for name in names]
    if any(c is None for c in cells):
        return None
    values = [_parse_real(c, name, line) for c, name in zip(cells, names)]
    try:
        if mode == "effect":
            return Study(values[0], values[1], label)
        effect, se = smd_from_raw(*values)
        return Study(effect, se, label)
    except InputError as exc:
        raise ParseError(str(exc), line) from exc


def _detect_mode(fieldnames, mapping: dict) -> str:
    cols = set(fieldnames)
    if all(mapping.get(n, n) in cols for n in _EFFECT_COLS):
        return "effect"
    if all(mapping.get(n, n) in cols for n in _RAW_COLS):
        return "raw"
    raise ParseError(
        "need either effect/se columns or raw n1,m1,sd1,n2,m2,sd2 columns "
        f"(have: {sorted(cols)}); use --map to rename",
        line=1,
    )


@contextmanager
def _csv_reader(path: str):
    """A ``csv.DictReader`` over the UTF-8 file ``path``, which must have a
    header row; undecodable bytes and malformed CSV are a ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ParseError("empty CSV: no header row", line=1)
            yield reader
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise ParseError(f"{path} is not valid CSV: {exc}") from exc


def read_analysis_csv(path: str, mapping: dict) -> list:
    """Read a single-comparison CSV; every row must be estimable."""
    with _csv_reader(path) as reader:
        mode = _detect_mode(reader.fieldnames, mapping)
        studies = []
        for i, row in enumerate(reader):
            line = i + 2
            study = _study_from_row(row, mapping, line, mode)
            if study is None:
                raise ParseError("missing effect/se value", line)
            studies.append(study)
    if not studies:
        raise ParseError("no data rows in CSV", line=1)
    return studies


def read_corpus_csv(path: str, mapping: dict) -> tuple:
    """Read a corpus CSV grouped by comparison_id.

    Returns (comparisons, non_estimable_counts).  Rows with blank
    effect/se cells count as non-estimable studies of their comparison;
    a comparison whose rows are all blank is dropped at parse time (it
    could never survive the non-estimable filter anyway).
    """
    with _csv_reader(path) as reader:
        id_col = mapping.get("comparison_id", "comparison_id")
        if id_col not in reader.fieldnames:
            raise ParseError(f"missing {id_col!r} column", line=1)
        mode = _detect_mode(reader.fieldnames, mapping)
        groups: dict = {}
        non_estimable: dict = {}
        order: list = []
        for i, row in enumerate(reader):
            line = i + 2
            cid = (row.get(id_col) or "").strip()
            if not cid:
                raise ParseError("blank comparison_id", line)
            if cid not in groups:
                groups[cid] = []
                non_estimable[cid] = 0
                order.append(cid)
            study = _study_from_row(row, mapping, line, mode)
            if study is None:
                non_estimable[cid] += 1
            else:
                groups[cid].append(study)
    if not order:
        raise ParseError("no data rows in CSV", line=1)
    comparisons = [
        Comparison(tuple(groups[cid]), id=cid) for cid in order if groups[cid]
    ]
    return comparisons, non_estimable


def read_candidates(path: str) -> CandidatePriorSet:
    """Read a candidate prior set JSON (as ``fit-priors`` writes it)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ParseError(f"{path} is not a JSON candidate prior set: {exc}") from exc
    return CandidatePriorSet.from_dict(data)


def _resolve_priors(args) -> tuple:
    """(delta prior, tau prior, subfield name or None, matched or None)."""
    subfield = None
    matched = None
    entry = catalog.pooled_entry()
    if args.subfield:
        hit = catalog.lookup(args.subfield)
        entry, subfield, matched = hit.entry, args.subfield, hit.matched
        if not hit.matched:
            log.warning("subfield %r not in catalog; using the pooled priors", args.subfield)
    delta = parse_prior(args.delta_prior) if args.delta_prior else entry.delta_prior
    tau = parse_prior(args.tau_prior) if args.tau_prior else entry.tau_prior
    return delta, tau, subfield, matched


def _parse_model_priors(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"--model-priors needs 4 comma-separated values, got {text!r}")
    probs = tuple(_parse_real(p.strip(), "model-priors", 0) for p in parts)
    if any(p <= 0 for p in probs):
        raise ParseError("model prior probabilities must be positive")
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ParseError(f"model prior probabilities must sum to 1, got {sum(probs)!r}")
    return probs


def _checked(kind, ok, condition: str):
    """An argparse ``type`` that parses ``kind`` and requires ``ok(value)``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r} as {kind.__name__}")
        if not ok(value):  # comparisons with nan are false, so nan fails too
            raise argparse.ArgumentTypeError(f"must be {condition}, got {text!r}")
        return value

    return parse


_tol = _checked(float, lambda v: 0.0 < v < 1.0, "finite with 0 < tol < 1")
_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_min_training_studies = _checked(int, lambda v: v >= 2, "at least 2")
_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")


def _write_all(text: str, out: Optional[str], files: Optional[dict] = None) -> None:
    """Write ``text`` to the path ``out``, or to stdout without one, and
    each ``{path: text}`` item of ``files``.

    The files are written all or none, stdout last.  Every path is opened
    before any is written: a missing path is created, an existing one is
    opened for appending, which leaves it as it is.  If a path cannot be
    opened or a write fails, the files this call created are removed; a
    path that existed before is never removed.  An existing regular file
    is emptied just before its text is written.
    """
    outputs = dict(files or {})
    if out:
        outputs[out] = text
    handles, created = {}, []
    try:
        for path in outputs:
            try:
                handles[path] = open(path, "x")
                created.append(path)
            except FileExistsError:
                handles[path] = open(path, "a")
        for path, body in outputs.items():
            with handles.pop(path) as fh:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate(0)
                fh.write(body)
    except OSError:
        for fh in handles.values():
            fh.close()
        for path in created:
            os.remove(path)
        raise
    if not out:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    studies = read_analysis_csv(args.input, _parse_map(args.map))
    delta_prior, tau_prior, subfield, matched = _resolve_priors(args)
    model_priors = _parse_model_priors(args.model_priors)
    comparison = Comparison(tuple(studies), id=args.input)
    ensemble = build_standard_ensemble([delta_prior], [tau_prior], type_probs=model_priors)
    result = evaluate(ensemble, comparison, rel_tol=args.tol, summaries=True)
    sequential = None
    if args.sequential:
        sequential = sequential_update(ensemble, comparison, rel_tol=args.tol)
    config = {
        "delta_prior": str(delta_prior),
        "tau_prior": str(tau_prior),
        "subfield": subfield,
        "subfield_matched": matched,
        "model_priors": list(model_priors),
        "tol": args.tol,
    }
    report = analysis_report(result, studies=studies, config=config, sequential=sequential)
    files = {}
    if args.forest:
        files[args.forest] = forest_svg(
            [(s.label or f"Study {i + 1}", s.effect, s.se) for i, s in enumerate(studies)],
            fixed=result.delta_fixed,
            random=result.delta_random,
            averaged=result.averaged_delta,
            title=f"Forest plot ({comparison.k} studies)",
        )
    _write_all(dumps(report) + "\n", args.out, files)
    if args.forest:
        log.info("wrote forest plot to %s", args.forest)
    return 0


def cmd_fit_priors(args) -> int:
    comparisons, non_estimable = read_corpus_csv(args.corpus, _parse_map(args.map))
    estimates, provenance = prepare_training(
        comparisons,
        min_studies=args.min_studies,
        tau_floor=args.tau_floor,
        non_estimable_counts=non_estimable,
    )
    candidates = fit_candidates(estimates, provenance)
    _write_all(dumps(candidates.to_dict()) + "\n", args.out)
    return 0


def cmd_rank(args) -> int:
    comparisons, _ = read_corpus_csv(args.corpus, _parse_map(args.map))
    candidates = read_candidates(args.candidates)
    kwargs = dict(
        rel_tol=args.tol,
        min_studies=args.min_studies,
        workers=args.threads,
        max_failure_fraction=args.max_failure_fraction,
    )
    if args.mode == "configs":
        table = rank_configurations(comparisons, candidates, **kwargs)
    elif args.mode == "model-types":
        table = average_model_types(comparisons, candidates, **kwargs)
    elif args.mode == "parameter-priors":
        table = average_parameter_priors(comparisons, candidates, **kwargs)
    else:
        table = corpus_inclusion_summary(comparisons, candidates, **kwargs)
    _write_all(dumps(table.to_dict()) + "\n", args.out)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {
            "schema_version": catalog.SCHEMA_VERSION,
            "entries": [e.to_dict() for e in catalog.entries()],
            "pooled": catalog.pooled_entry().to_dict(),
        }
    else:
        hit = catalog.lookup(args.topic)
        payload = dict(hit.entry.to_dict())
        payload["matched"] = hit.matched
    _write_all(dumps(payload) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmameta",
        description="Bayesian model-averaged meta-analysis for standardized mean differences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--map", help="column remapping, e.g. effect=yi,se=sei")

    p = sub.add_parser("analyze", help="run a model-averaged meta-analysis on one CSV")
    p.add_argument("input", help="CSV with effect,se[,label] or n1,m1,sd1,n2,m2,sd2[,label]")
    p.add_argument("--delta-prior", help='effect-size prior, e.g. "t(0.0,0.51,5.0)"')
    p.add_argument("--tau-prior", help='heterogeneity prior, e.g. "invgamma(1.79,0.28)"')
    p.add_argument("--subfield", help="catalog subfield supplying default priors")
    p.add_argument("--model-priors", default="0.25,0.25,0.25,0.25",
                   help="prior probabilities for H0f,H1f,H0r,H1r")
    p.add_argument("--sequential", action="store_true",
                   help="also update study-by-study in input order")
    p.add_argument("--forest", help="write an SVG forest plot here")
    p.add_argument("--tol", type=_tol, default=1e-9, help="quadrature relative tolerance")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit-priors", help="fit candidate priors to a training corpus")
    p.add_argument("corpus", help="CSV with a comparison_id column")
    p.add_argument("--min-studies", type=_min_training_studies, default=10)
    p.add_argument("--tau-floor", type=_nonnegative, default=0.01)
    common(p)
    p.set_defaults(func=cmd_fit_priors)

    p = sub.add_parser("rank", help="evaluate candidate priors across a test corpus")
    p.add_argument("corpus", help="CSV with a comparison_id column")
    p.add_argument("--candidates", required=True, help="candidate prior set JSON")
    p.add_argument("--mode", choices=["configs", "model-types", "parameter-priors", "inclusion"],
                   default="configs")
    p.add_argument("--min-studies", type=_positive_int, default=3)
    p.add_argument("--max-failure-fraction", type=_fraction, default=0.01)
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--threads", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("catalog", help="inspect the subfield prior catalog")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("topic", nargs="?", default="")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.topic:
        parser.error("catalog show requires a topic name")
    try:
        return args.func(args)
    except (OSError, InputError) as exc:
        log.error("%s", exc)
        return 2
    except BmaMetaError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
