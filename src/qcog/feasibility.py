"""Classical and quantum feasibility checks for question-chain data.

Covers the total-probability consistency of the two samples' final
question, order-effect detection, the max/min contraction property of
measurement sequences, and the exact majorization criterion for whether a
target distribution can be realized as frame expectations of a state with
a given spectrum (Schur-Horn).  The checks on answer rows compare their
exact integers, and each value they report is exact and rounded once.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from math import isfinite, lcm
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


def _numerators(values) -> tuple[tuple, int]:
    # finite numbers as (integer numerators, their least common denominator)
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


def _answer_row(row, what: str) -> tuple:
    # the one rule of an answer row, for Question and order pairs: a tuple
    # of finite numbers >= 0, no bool, with a positive sum; returned as
    # integers in the same proportions
    _check_type(row, tuple, what)
    exact = ()
    if all(type(v) is int for v in row):
        exact = row
    elif bool not in map(type, row):
        try:
            exact = _numerators(row)[0]
        except (AttributeError, ValueError, OverflowError):  # text, NaN, inf
            pass
    if exact and min(exact) >= 0 and sum(exact) > 0:
        return exact
    raise ValueError(f"{what} must hold finite numbers >= 0 with a positive "
                     f"sum, got {row!r}")


@dataclass(frozen=True)
class Question:
    """One survey question: wording, answer row (yes/unsure/no order, any
    proportions, held exactly as integers), and whether 'yes' means support
    or opposition; ``probs`` is its distribution, built when first read."""

    text: str
    row: tuple
    polarity: Polarity = Polarity.NEUTRAL

    def __post_init__(self):
        object.__setattr__(self, "row", _answer_row(self.row, "row"))
        _check_type(self.polarity, Polarity, "polarity")

    @classmethod
    def _unchecked(cls, text: str, row: tuple, polarity: Polarity,
                   ) -> "Question":
        # for fields already proven (ingest's rows, integers in proportion);
        # checks nothing
        question = object.__new__(cls)
        vars(question).update(text=text, row=row, polarity=polarity)
        return question

    @cached_property
    def probs(self) -> ProbabilityVector:
        total = sum(self.row)  # each x / total is rounded once
        return ProbabilityVector._unchecked(
            np.array([x / total for x in self.row]))


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
        dim = len(qs[0].row)
        if any(len(q.row) != dim for q in qs):
            raise ValueError("all questions must share one dimension")
        object.__setattr__(self, "questions", qs)

    @property
    def dim(self) -> int:
        return len(self.questions[0].row)


def _gap(x: int, a: int, y: int, b: int) -> float:
    # |x/a - y/b| of integers, computed exactly and rounded once
    return abs(x * b - y * a) / (a * b)


def _support_oppose(q: Question) -> tuple[int, int]:
    # yes/unsure/no columns; polarity decides which end means support
    row = q.row
    if q.polarity is Polarity.FAVOUR:
        return row[0], row[-1]
    if q.polarity is Polarity.OPPOSE:
        return row[-1], row[0]
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
    total_a, total_b = sum(final_a.row), sum(final_b.row)
    support_diff = _gap(sup_a, total_a, sup_b, total_b)
    oppose_diff = _gap(opp_a, total_a, opp_b, total_b)
    return ClassicalCheck(
        support_difference=support_diff,
        oppose_difference=oppose_diff,
        violation=support_diff if support_diff > tol else None,
        polarity_warning=final_a.polarity is not final_b.polarity,
    )


@dataclass(frozen=True)
class OrderEffectEntry:
    question_index: int
    marginal_first_ordering: list
    marginal_second_ordering: list
    difference: float
    flagged: bool


@dataclass(frozen=True)
class OrderEffectReport:
    entries: tuple

    @property
    def any_flagged(self) -> bool:
        return any(e.flagged for e in self.entries)


def _check_orderings(ordering_1, ordering_2) -> tuple[list, list]:
    # the one rule of an order pair, for order_effect_check and ingest: two
    # answer rows each way, of one answer count in both orderings
    if len(ordering_1) != 2 or len(ordering_2) != 2:
        raise ValueError("each ordering must contain exactly two questions")
    o1, o2 = ([_answer_row(row, "each marginal") for row in o]
              for o in (ordering_1, ordering_2))
    if any(len(a) != len(b) for a, b in zip(o1, o2[::-1])):
        raise ValueError("marginal dimensions differ between orderings")
    return o1, o2


def order_effect_check(ordering_1, ordering_2, tol: float) -> OrderEffectReport:
    """Compare marginals of the same two questions asked in opposite order.

    ``ordering_1`` holds the answer rows (tuples, as a ``Question``'s) in
    asked order (question 0 then question 1); ``ordering_2`` holds the
    reversed session in its asked order (question 1 then question 0).  Each
    question whose marginal moves by more than ``tol`` is flagged.
    """
    _tolerance(tol)
    return _order_effects(*_check_orderings(ordering_1, ordering_2), tol)


def _order_effects(ordering_1, ordering_2, tol: float) -> OrderEffectReport:
    # order_effect_check on a pair and a tol already checked (ingest's)
    entries = []
    for idx, (a, b) in enumerate(zip(ordering_1, ordering_2[::-1])):
        total_a, total_b = sum(a), sum(b)
        diff = max(_gap(x, total_a, y, total_b) for x, y in zip(a, b))
        entries.append(OrderEffectEntry(
            idx, [x / total_a for x in a], [y / total_b for y in b], diff,
            diff > tol))
    return OrderEffectReport(tuple(entries))


def _partial_sums(row) -> list[float]:
    """The numbers of ``row`` sorted largest first, then summed in order:
    for floats, np.cumsum's sums, which are sequential too."""
    return list(accumulate(sorted(row, reverse=True)))


def _slack(current, target) -> float:
    """Majorization slack of two rows of one length: the worst excess of
    the target's partial sums over the current ones, 0 below the noise.
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
    if c.size == 0:  # _slack takes the max of the partial sums
        raise ValueError("distributions must be nonempty")
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
    Feasible iff the pair's :func:`_slack`, the slack the frame fit reads
    too, is at most ``tol``."""
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
    max increase and min decrease.

    With ``isolate_first`` the first transition is exempted: the first
    question lives on its own tensor factor of a product state, so its
    outcome constrains nothing downstream.
    """
    _tolerance(tol)
    _require_transition(chain, isolate_first)
    rows = [q.row for q in chain.questions]
    sums = [_partial_sums(row) for row in rows]  # each ends at its total
    transitions = []
    for i, (a, b, sa, sb) in enumerate(zip(rows, rows[1:], sums, sums[1:])):
        # on one total ta * tb: the worst excess of b's partial sums over a's
        ta, tb = sa[-1], sb[-1]
        scale = ta * tb
        slack = max(map(sub, map(ta.__mul__, sb), map(tb.__mul__, sa))) / scale
        increase, decrease = sb[0] * ta - sa[0] * tb, min(a) * tb - min(b) * ta
        exempt = i == 0 and bool(isolate_first)
        transitions.append(TransitionCheck(
            i, i + 1, increase / scale if increase > 0 else 0.0,
            decrease / scale if decrease > 0 else 0.0, slack,
            exempt or slack <= tol, exempt))
    return FeasibilityReport(tuple(transitions))
