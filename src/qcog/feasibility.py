"""Classical and quantum feasibility checks for question-chain data.

Covers the total-probability consistency of the two samples' final
question, order-effect detection, the max/min contraction property of
measurement sequences, and the exact majorization criterion for whether a
target distribution can be realized as frame expectations of a state with
a given spectrum (Schur-Horn).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import isfinite
from operator import sub

import numpy as np

from .hilbert import _MAJORIZATION_NOISE, _PROB_SUM_TOL, _numeric, _tolerance
from .states import ProbabilityVector, _check_type


class PolarityError(ValueError):
    """Final questions cannot be compared without a polarity mapping."""


class Polarity(str, Enum):
    FAVOUR = "favour"
    OPPOSE = "oppose"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class Question:
    """One survey question: wording, answer distribution (yes/unsure/no
    order), and whether 'yes' means support or opposition."""

    text: str
    probs: ProbabilityVector
    polarity: Polarity = Polarity.NEUTRAL

    def __post_init__(self):
        _check_type(self.probs, ProbabilityVector, "probs")
        _check_type(self.polarity, Polarity, "polarity")

    @classmethod
    def _unchecked(cls, text: str, probs: ProbabilityVector,
                   polarity: Polarity) -> "Question":
        # for fields already proven of their types (ingest's rows); checks
        # nothing
        question = object.__new__(cls)
        vars(question).update(text=text, probs=probs, polarity=polarity)
        return question


@dataclass(frozen=True)
class SurveyChain:
    """An ordered, labeled sequence of questions; one poll sample."""

    label: str
    questions: tuple

    def __post_init__(self):
        qs = tuple(self.questions)
        if not qs:
            raise ValueError("a survey chain needs at least one question")
        for q in qs:
            _check_type(q, Question, "each question")
        dim = qs[0].probs.dim
        if any(q.probs.dim != dim for q in qs):
            raise ValueError("all questions must share one dimension")
        object.__setattr__(self, "questions", qs)

    @classmethod
    def _unchecked(cls, label: str, questions: tuple) -> "SurveyChain":
        # for a nonempty tuple of Questions of one dimension (ingest's
        # chains); checks nothing
        chain = object.__new__(cls)
        vars(chain).update(label=label, questions=questions)
        return chain

    @property
    def dim(self) -> int:
        return self.questions[0].probs.dim


def _support_oppose(q: Question) -> tuple[float, float]:
    # yes/unsure/no columns; polarity decides which end means support
    p = q.probs.probs
    if q.polarity is Polarity.FAVOUR:
        return float(p[0]), float(p[-1])
    if q.polarity is Polarity.OPPOSE:
        return float(p[-1]), float(p[0])
    raise PolarityError(
        f"question {q.text!r} has neutral polarity; no support mapping")


@dataclass(frozen=True)
class ClassicalCheck:
    """Comparison of the final question across the two samples."""

    support_difference: float
    oppose_difference: float
    violation: float | None
    polarity_warning: bool


def classical_consistency_check(final_a: Question, final_b: Question,
                                tol: float) -> ClassicalCheck:
    """Total-probability check: the final question's support share should be
    sample-independent.  Returns the support-side difference as a violation
    when it exceeds ``tol``; the oppose-side difference is always reported.

    When the two questions carry opposite polarities the comparison relies
    on reading 'not opposing' as 'supporting'; that reading is flagged as a
    warning rather than an error.
    """
    _tolerance(tol)
    _check_type(final_a, Question, "final_a")
    _check_type(final_b, Question, "final_b")
    sup_a, opp_a = _support_oppose(final_a)
    sup_b, opp_b = _support_oppose(final_b)
    support_diff = abs(sup_a - sup_b)
    oppose_diff = abs(opp_a - opp_b)
    return ClassicalCheck(
        support_difference=support_diff,
        oppose_difference=oppose_diff,
        violation=support_diff if support_diff > tol else None,
        polarity_warning=final_a.polarity is not final_b.polarity,
    )


@dataclass(frozen=True)
class OrderEffectEntry:
    question_index: int
    marginal_first_ordering: np.ndarray
    marginal_second_ordering: np.ndarray
    difference: float
    flagged: bool


@dataclass(frozen=True)
class OrderEffectReport:
    entries: tuple

    @property
    def any_flagged(self) -> bool:
        return any(e.flagged for e in self.entries)


def _check_orderings(ordering_1, ordering_2) -> None:
    # the one rule of an order pair, for order_effect_check and ingest: two
    # ProbabilityVectors each way, of one answer count in both orderings
    if len(ordering_1) != 2 or len(ordering_2) != 2:
        raise ValueError("each ordering must contain exactly two questions")
    for p in (*ordering_1, *ordering_2):
        _check_type(p, ProbabilityVector, "each marginal")
    if any(a.dim != b.dim for a, b in zip(ordering_1, ordering_2[::-1])):
        raise ValueError("marginal dimensions differ between orderings")


def order_effect_check(ordering_1, ordering_2, tol: float) -> OrderEffectReport:
    """Compare marginals of the same two questions asked in opposite order.

    ``ordering_1`` holds the distributions in asked order (question 0 then
    question 1); ``ordering_2`` holds the reversed session in its asked
    order (question 1 then question 0).  Each question whose marginal moves
    by more than ``tol`` is flagged.
    """
    _tolerance(tol)
    _check_orderings(ordering_1, ordering_2)
    entries = []
    for idx, (a, b) in enumerate(zip(ordering_1, ordering_2[::-1])):
        diff = float(np.max(np.abs(a.probs - b.probs)))
        entries.append(OrderEffectEntry(idx, a.probs, b.probs, diff, diff > tol))
    return OrderEffectReport(tuple(entries))


def _partial_sums(row) -> list[float]:
    """The floats of ``row`` sorted largest first, then summed in order:
    np.cumsum's sums, which are sequential too."""
    return list(accumulate(sorted(row, reverse=True)))


def _slack(current, target) -> float:
    """Majorization slack of two float rows of one length: the worst excess
    of the target's partial sums over the current ones, 0 below the noise.
    Taken from the totals down: a partial sum that overflows stays infinite,
    so an inf - inf NaN comes first and, as in numpy's max, wins."""
    excess = max(map(sub, reversed(_partial_sums(target)),
                     reversed(_partial_sums(current))))
    return excess if excess >= _MAJORIZATION_NOISE else 0.0


def _majorization_pair(current, target) -> tuple[np.ndarray, np.ndarray]:
    # the entry rule of a majorization pair, for majorization_check and the
    # frame fit's projection: two finite 1-d float arrays of one length
    # whose totals agree within _PROB_SUM_TOL
    c, t = (_numeric(x, float, "distributions") for x in (current, target))
    if c.shape != t.shape:
        raise ValueError("distributions have different dimensions")
    if c.ndim != 1:  # _slack sorts rows, which a scalar pair lacks
        raise ValueError("distributions must be 1-d arrays")
    if not (np.isfinite(c).all() and np.isfinite(t).all()):
        raise ValueError("non-finite probability in a majorization check")
    # _slack compares partial sums, so a smaller total would read as
    # feasible; a total beyond float range fails, with no RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        sc, st = np.add.reduce(c), np.add.reduce(t)
        if not abs(sc - st) <= _PROB_SUM_TOL:
            raise ValueError(
                f"distributions have different totals {sc} and {st}")
    # _slack would read an inf - inf excess of two partial sums beyond float
    # range as 0, that is as feasible
    if not all(map(isfinite, _partial_sums(c.tolist())
                   + _partial_sums(t.tolist()))):
        raise ValueError("partial sums beyond float range in a majorization "
                         "check")
    return c, t


def majorization_check(current, target, tol: float = 0.0) -> tuple[bool, float]:
    """Is the array ``target`` majorized by the array ``current`` (so
    reachable as frame expectations of a state with spectrum ``current``)?
    Feasible iff the pair's :func:`_slack`, the slack the chain check and the
    frame fit read too, is at most ``tol``."""
    _tolerance(tol)
    c, t = _majorization_pair(current, target)
    slack = _slack(c.tolist(), t.tolist())
    return slack <= tol, slack


@dataclass(frozen=True)
class TransitionCheck:
    from_index: int
    to_index: int
    max_increase: float
    min_decrease: float
    majorization_slack: float
    feasible_at_tol: bool
    exempt: bool


@dataclass(frozen=True)
class FeasibilityReport:
    transitions: tuple

    @property
    def all_feasible(self) -> bool:
        return all(t.feasible_at_tol for t in self.transitions)


def _require_transition(chain: SurveyChain, isolate_first: bool) -> None:
    # the one chain rule of checking and fitting: a SurveyChain with a
    # transition besides the exempt one from an isolated first question
    _check_type(chain, SurveyChain, "chain")
    if len(chain.questions) < 2 + isolate_first:
        after = " after the isolated first one" if isolate_first else ""
        raise ValueError(
            f"need at least two questions{after} to check a transition")


def contraction_check(chain: SurveyChain) -> FeasibilityReport:
    """Per-transition contraction and majorization (at tol 0) report."""
    return chain_feasibility(chain, False, 0.0)


def chain_feasibility(chain: SurveyChain, isolate_first: bool,
                      tol: float) -> FeasibilityReport:
    """Majorization feasibility of every transition in the chain, with its
    max increase and min decrease, each read from the two rows as floats.

    With ``isolate_first`` the first transition is exempted: the first
    question lives on its own tensor factor of a product state, so its
    outcome constrains nothing downstream.
    """
    _tolerance(tol)
    _require_transition(chain, isolate_first)
    rows = [q.probs.probs.tolist() for q in chain.questions]
    transitions = []
    for i, (a, b) in enumerate(zip(rows, rows[1:])):
        increase, decrease = max(b) - max(a), min(a) - min(b)
        slack = _slack(a, b)
        exempt = i == 0 and bool(isolate_first)
        transitions.append(TransitionCheck(
            i, i + 1, increase if increase > 0.0 else 0.0,
            decrease if decrease > 0.0 else 0.0, slack,
            exempt or bool(slack <= tol), exempt))
    return FeasibilityReport(tuple(transitions))
