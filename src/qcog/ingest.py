"""Survey file ingestion.

Survey schema (JSON)::

    {"sample_label": str,
     "questions": [{"text": str, "yes": number, "unsure": number,
                    "no": number, "polarity": "favour"|"oppose"|"neutral"}]}

Percentages are JSON numbers, divided by 100 and renormalized; a question
whose percentages sum outside [99, 101] is rejected with the offending row.

Order-effect pair schema (JSON)::

    {"label": str, "question_names": [str, str],
     "ordering_1": [[yes, no], [yes, no]],   # asked order: Q0 then Q1
     "ordering_2": [[yes, no], [yes, no]]}   # asked order: Q1 then Q0
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .feasibility import Polarity, Question, SurveyChain
from .states import ProbabilityVector


class IngestError(ValueError):
    """Input file is missing, malformed, or violates the schema."""


def fixture_path(name: str) -> Path:
    """Path of a bundled data file (table1.json, table2.json, moore.json)."""
    return Path(resources.files("qcog.data") / name)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: not valid JSON ({exc})") from exc


def _percentages(path, values, where: str) -> ProbabilityVector:
    if not (isinstance(values, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values)):
        raise IngestError(f"{path}: {where}: expected a list of numbers, "
                          f"got {values!r}")
    try:
        return ProbabilityVector.from_percents(values)
    except (ValueError, OverflowError) as exc:
        # a StateError, an empty row, or an integer beyond float range
        raise IngestError(f"{path}: {where}: {exc}") from exc


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

    questions = []
    for i, row in enumerate(rows, start=1):
        try:
            percents = [row["yes"], row["unsure"], row["no"]]
            polarity = Polarity(row.get("polarity", "neutral"))
            text = str(row["text"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}: bad question row {i}: {row!r}") from exc
        probs = _percentages(path, percents, f"question {i} ({text!r})")
        questions.append(Question(text=text, probs=probs, polarity=polarity))
    return SurveyChain(label=str(label), questions=tuple(questions))


def load_order_pair(path) -> dict:
    """Read an order-effect pair file.

    Returns label, question names, and the two orderings as
    ProbabilityVector pairs in asked order.
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

    return {
        "label": str(doc.get("label", "")),
        "question_names": names,
        "ordering_1": [_percentages(path, r, f"marginal row {r!r}")
                       for r in o1],
        "ordering_2": [_percentages(path, r, f"marginal row {r!r}")
                       for r in o2],
    }
