"""Survey file ingestion.

Survey schema (JSON)::

    {"sample_label": str,
     "questions": [{"text": str, "yes": number, "unsure": number,
                    "no": number, "polarity": "favour"|"oppose"|"neutral"}]}

A file's bytes are read once and decoded as UTF-8, with text mode's
newline rule (``"\\r\\n"`` and a lone ``"\\r"`` read as ``"\\n"``), so a
JSON error names the character a text-mode read would.

Percentages are JSON numbers, read exactly: an integer as an int, any
other number as the ``Decimal`` of its text, and a bare NaN or Infinity,
which Python's JSON reader accepts, as a float.  A row is rejected for a
negative entry, else a NaN, else an exact sum outside [99, 101], with the
row printed as floats, as in ``non-finite percentage in [nan, 30.0,
20.0]``; a row that passes becomes the ``Question`` row, its numbers as
integers on one denominator, with -0 read as 0.  Rows are checked one at a
time, in file order, so an error names the first faulty row.

Order-effect pair schema (JSON)::

    {"label": str, "question_names": [str, str],
     "ordering_1": [[yes, no], [yes, no]],   # asked order: Q0 then Q1
     "ordering_2": [[yes, no], [yes, no]]}   # asked order: Q1 then Q0
"""
from __future__ import annotations

import json
from decimal import Decimal
from importlib import resources
from math import isfinite
from pathlib import Path

from .feasibility import (Polarity, Question, SurveyChain, _check_orderings,
                          _numerators)
from .hilbert import _PERCENT_SUM_TOL


class _Decimal(Decimal):
    # a JSON number that is not an integer, held exactly and shown as the
    # float a JSON reader gives, so a message prints its value as written
    def __repr__(self) -> str:
        return repr(float(self))


# the types of the numbers in a JSON text; NaN and Infinity are floats
_NUMBERS = {int, float, _Decimal}
# reads every number that is not an integer as its exact decimal
_DECODER = json.JSONDecoder(parse_float=_Decimal)


class IngestError(ValueError):
    """Input file is missing, malformed, or violates the schema."""


def fixture_path(name: str) -> Path:
    """Path of a bundled data file (table1.json, table2.json, moore.json)."""
    return Path(resources.files("qcog.data") / name)


def _load_json(path) -> dict:
    # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding.  The
    # bytes are read once and decoded whole, so a decode error gives the
    # byte's position in the file; a "\r" is read by text mode's newline
    # rule, so a JSON error counts characters as a text-mode read would
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        if text.startswith("\ufeff"):  # what json.loads refuses
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: not valid JSON ({exc})") from exc


def _string(path, value, field: str) -> str:
    # str() would turn 1 into "1" and ["weird"] into "['weird']"
    if not isinstance(value, str):
        raise IngestError(f"{path}: {field} must be a string, got {value!r}")
    return value


def _row_error(path, where: str, args, message) -> IngestError:
    # a faulty answer row, named by where.format(*args)
    return IngestError(f"{path}: {where.format(*args)}: {message}")


def _percent_row(path, values, where: str, *args) -> tuple:
    # the percent rule on one answer row, named by where.format(*args) when
    # it fails: a list of numbers, no negative entry, no NaN and an exact sum
    # within _PERCENT_SUM_TOL of 100; returned as integers in proportion.  A
    # faulty row is printed as floats: an int beyond float range is a fault
    if type(values) is not list or not _NUMBERS.issuperset(map(type, values)):
        raise _row_error(path, where, args,
                         f"expected a list of numbers, got {values!r}")
    if {int}.issuperset(map(type, values)):  # JSON integers: exact as read
        if values and min(values) >= 0 and abs(
                sum(values) - 100) <= _PERCENT_SUM_TOL:
            return tuple(values)
    try:
        row = [float(v) for v in values]
    except OverflowError as exc:  # an integer beyond float range
        raise _row_error(path, where, args, exc) from exc
    total = sum(row, 0.0)  # NaN for a NaN entry, inf beyond float range
    if isfinite(total):
        # a decimal below float range reads as 0, as its float does, so no
        # exponent can make the common denominator huge
        if 0.0 in row:
            values = [v if x else 0 for v, x in zip(values, row)]
        exact, den = _numerators(values)
        if min(exact, default=-1) >= 0 and abs(
                sum(exact) - 100 * den) <= _PERCENT_SUM_TOL * den:
            return exact
    if any(x < 0 for x in row):
        message = f"negative percentage in {row}"
    elif total != total:
        message = f"non-finite percentage in {row}"
    else:
        lo, hi = 100 - _PERCENT_SUM_TOL, 100 + _PERCENT_SUM_TOL
        message = f"percentages sum to {total}, outside [{lo:g}, {hi:g}]"
    raise _row_error(path, where, args, message)


# each polarity by its value, the table a file's polarity is looked up in
_POLARITY = {p.value: p for p in Polarity}


def _question_row(path, i: int, row) -> Question:
    try:
        values = [row["yes"], row["unsure"], row["no"]]
        polarity = _POLARITY[row.get("polarity", "neutral")]
        text = row["text"]
    except (KeyError, TypeError) as exc:  # an unhashable polarity: TypeError
        raise IngestError(f"{path}: bad question row {i}: {row!r}") from exc
    _string(path, text, f"question {i} text")
    row = _percent_row(path, values, "question {} ({!r})", i, text)
    return Question._unchecked(text, row, polarity)


def load_survey(path) -> SurveyChain:
    """Read a survey sample file into a question chain."""
    doc = _load_json(path)
    try:
        label = doc["sample_label"]
        rows = doc["questions"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"{path}: missing sample_label/questions") from exc
    if not isinstance(rows, list):
        raise IngestError(f"{path}: questions must be a list, got {rows!r}")
    if not rows:
        raise IngestError(f"{path}: empty question list")
    questions = [_question_row(path, i, row)
                 for i, row in enumerate(rows, start=1)]
    return SurveyChain(_string(path, label, "sample_label"), questions)


def load_order_pair(path) -> dict:
    """Read an order-effect pair file.

    Returns label, question names, and the two orderings in asked order,
    each a list of two answer rows as a ``Question`` holds them.
    """
    doc = _load_json(path)
    try:
        names = doc["question_names"]
        o1 = doc["ordering_1"]
        o2 = doc["ordering_2"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"{path}: missing order-pair fields") from exc
    if not all(isinstance(v, list) and len(v) == 2 for v in (names, o1, o2)):
        raise IngestError(f"{path}: question_names, ordering_1 and ordering_2 "
                          f"must each be a list of 2 entries")

    for k, name in enumerate(names):
        _string(path, name, f"question_names[{k}]")
    # one row at a time: a pair's two questions may differ in answer count
    o1, o2 = ([_percent_row(path, r, "marginal row {!r}", r) for r in o]
              for o in (o1, o2))
    try:
        o1, o2 = _check_orderings(o1, o2)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return {
        "label": _string(path, doc.get("label", ""), "label"),
        "question_names": names,
        "ordering_1": o1,
        "ordering_2": o2,
    }
