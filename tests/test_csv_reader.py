"""The CLI's CSV readers against a ``csv.DictReader`` oracle.

The oracle reads the way the readers once did: one ``csv.DictReader``
record per row, each cell looked up by name through ``--map``, the
layout decided from the header names.  The one difference is the line
an error names, which here is ``reader.line_num``, the file line the
record ends on.  Hypothesis draws the files: effect/se or raw layouts
(or neither), optional label, comparison_id and extra columns, ``--map``
renames, duplicate header names, blank lines, short and long rows,
quoted commas and newlines, and blank, space-only, garbage, nan and inf
cells.  Both readers must return the same studies bit for bit and the
same non-estimable counts, or raise the same error with the same text.
"""

import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from bmameta.cli import read_analysis_csv, read_corpus_csv
from bmameta.core import Comparison, Study, smd_from_raw
from bmameta.errors import InputError, ParseError

EFFECT = ("effect", "se")
RAW = ("n1", "m1", "sd1", "n2", "m2", "sd2")


def _number(token, name, line):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"column {name!r}: cannot parse {token!r} as a number", line)
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"column {name!r}: non-finite value {token!r} rejected", line)
    return value


def _oracle_rows(path, mapping, id_column=None):
    """(line, id, study or None) per record, read with csv.DictReader."""

    def cell(row, name):
        value = row.get(mapping.get(name, name))
        return "" if value is None else value.strip()

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty CSV: no header row", line=1)
        have = set(reader.fieldnames)
        if id_column is not None and mapping.get(id_column, id_column) not in have:
            raise ParseError(f"missing {mapping.get(id_column, id_column)!r} column", line=1)
        layouts = [n for n in (EFFECT, RAW) if all(mapping.get(c, c) in have for c in n)]
        if not layouts:
            raise ParseError(
                "need either effect/se columns or raw n1,m1,sd1,n2,m2,sd2 columns "
                f"(have: {sorted(have)}); use --map to rename",
                line=1,
            )
        names = layouts[0]
        for row in reader:
            line = reader.line_num
            cid = None if id_column is None else cell(row, id_column)
            if cid == "":
                raise ParseError("blank comparison_id", line)
            cells = [cell(row, n) for n in names]
            if not all(cells):
                yield line, cid, None
                continue
            values = [_number(c, n, line) for c, n in zip(cells, names)]
            try:
                pair = values if names == EFFECT else smd_from_raw(*values)
                study = Study(*pair, cell(row, "label"))
            except InputError as exc:
                raise ParseError(str(exc), line) from exc
            yield line, cid, study


def _oracle_analysis(path, mapping):
    studies = []
    for line, _, study in _oracle_rows(path, mapping):
        if study is None:
            raise ParseError("missing effect/se value", line)
        studies.append(study)
    if not studies:
        raise ParseError("no data rows in CSV", line=1)
    return studies


def _oracle_corpus(path, mapping):
    groups, counts = {}, {}
    for _, cid, study in _oracle_rows(path, mapping, "comparison_id"):
        groups.setdefault(cid, [])
        counts[cid] = counts.get(cid, 0) + (study is None)
        if study is not None:
            groups[cid].append(study)
    if not groups:
        raise ParseError("no data rows in CSV", line=1)
    return [Comparison(tuple(s), id=cid) for cid, s in groups.items() if s], counts


def _bits(studies):
    return [(s.effect.hex(), s.se.hex(), s.label) for s in studies]


def _outcome(read, *args):
    """What a reader returns, with every float as its bits, or the type
    and text of what it raises."""
    try:
        result = read(*args)
    except Exception as exc:  # the oracle and the reader must fail alike, whatever the error
        return type(exc), str(exc)
    if isinstance(result, list):
        return _bits(result)
    comparisons, counts = result
    return [(c.id, _bits(c.studies)) for c in comparisons], list(counts.items())


GOOD = {
    "effect": ["0.5", "-0.25", " 0.3 ", "1e-3", "-2"],
    "se": ["0.2", " 0.1 ", "1e-3", "3"],
    "n1": ["2", "30", " 12 "], "n2": ["2", "30", " 12 "],
    "m1": ["1.5", "-0.5", "0"], "m2": ["1.5", "-0.5", "0"],
    "sd1": ["0.5", "1", " 2 "], "sd2": ["0.5", "1", " 2 "],
}
BAD = ["", "   ", "abc", "nan", "inf", "-inf", "0", "-1", "1e200", "1,5", "0.2\n3"]
LABELS = ["", "Alpha", " Beta ", "a,b", "line\nbreak", 'say "hi"']
IDS = ["A", "B", " A ", "C,D", "E\nF", "", "  "]
EXTRA = ["", "x", "1,2", "a\nb", "nan"]


@st.composite
def csv_files(draw):
    """(CSV text, --map dict) for one drawn file."""
    layout = draw(st.sampled_from(["effect", "effect", "raw", "raw", "both", "neither"]))
    roles = {"effect": list(EFFECT), "raw": list(RAW), "both": list(EFFECT + RAW),
             "neither": ["se", "n1", "m1"]}[layout]
    roles += ["comparison_id"] * draw(st.sampled_from([1, 1, 1, 0]))
    roles += draw(st.lists(st.sampled_from(["label", "x", "note"]), unique=True))
    mapping, header = {}, []
    for role in roles:
        if role in ("x", "note") or not draw(st.integers(0, 3)) == 0:
            header.append(role)
        else:  # renamed in the file, named back by --map
            header.append(f"col_{role}")
            mapping[role] = f"col_{role}"
    if draw(st.integers(0, 9)) == 0:
        mapping["label"] = "no_such_column"
    order = draw(st.permutations(range(len(header))))
    header = [header[i] for i in order]
    role_of = [roles[i] for i in order]
    if draw(st.integers(0, 5)) == 0:  # a repeated header name: the last one wins
        i = draw(st.integers(0, len(header) - 1))
        header.append(header[i])
        role_of.append(role_of[i])

    records = []
    for _ in range(draw(st.integers(0, 6))):
        dirty = draw(st.integers(0, 7)) == 0
        row = []
        for role in role_of:
            if role == "label":
                pool = LABELS
            elif role == "comparison_id":
                pool = IDS[:4] + (IDS if dirty else [])
            elif role in GOOD:
                pool = GOOD[role] + (BAD if dirty else [])
            else:
                pool = EXTRA
            row.append(draw(st.sampled_from(pool)))
        length = len(row) + draw(st.sampled_from([-2, -1, 1, 2] + [0] * 12))
        records.append((row + ["extra"] * 2)[:max(length, 0)])

    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.integers(0, 9)) == 0:
        out.write("\n")  # a blank first line: the header is then empty
    writer.writerow(header)
    for record in records:
        out.write("\n" * draw(st.sampled_from([0, 0, 0, 1, 2])))
        writer.writerow(record)
    return out.getvalue(), mapping


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reader") / "drawn.csv")


@settings(max_examples=400, deadline=None)
@given(drawn=csv_files())
def test_readers_match_the_dictreader_oracle(csv_path, drawn):
    text, mapping = drawn
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    assert _outcome(read_analysis_csv, csv_path, mapping) == _outcome(_oracle_analysis, csv_path, mapping)
    assert _outcome(read_corpus_csv, csv_path, mapping) == _outcome(_oracle_corpus, csv_path, mapping)
