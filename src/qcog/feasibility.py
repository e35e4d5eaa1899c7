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

import numpy as np

from .hilbert import _MAJORIZATION_NOISE
from .states import ProbabilityVector


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


@dataclass(frozen=True)
class SurveyChain:
    """An ordered, labeled sequence of questions; one poll sample."""

    label: str
    questions: tuple

    def __post_init__(self):
        qs = tuple(self.questions)
        if not qs:
            raise ValueError("a survey chain needs at least one question")
        dim = qs[0].probs.dim
        if any(q.probs.dim != dim for q in qs):
            raise ValueError("all questions must share one dimension")
        object.__setattr__(self, "questions", qs)

    @property
    def dim(self) -> int:
        return self.questions[0].probs.dim

    def distributions(self) -> list[np.ndarray]:
        return [q.probs.probs for q in self.questions]


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


def order_effect_check(ordering_1, ordering_2, tol: float) -> OrderEffectReport:
    """Compare marginals of the same two questions asked in opposite order.

    ``ordering_1`` holds the distributions in asked order (question 0 then
    question 1); ``ordering_2`` holds the reversed session in its asked
    order (question 1 then question 0).  Each question whose marginal moves
    by more than ``tol`` is flagged.
    """
    o1 = [np.asarray(p.probs, dtype=float) for p in ordering_1]
    o2 = [np.asarray(p.probs, dtype=float) for p in ordering_2]
    if len(o1) != 2 or len(o2) != 2:
        raise ValueError("each ordering must contain exactly two questions")
    if any(a.shape != b.shape for a, b in zip(o1, o2[::-1])):
        raise ValueError("marginal dimensions differ between orderings")
    entries = []
    for idx in range(2):
        a = o1[idx]
        b = o2[1 - idx]
        diff = float(np.max(np.abs(a - b)))
        entries.append(OrderEffectEntry(
            question_index=idx,
            marginal_first_ordering=a,
            marginal_second_ordering=b,
            difference=diff,
            flagged=diff > tol,
        ))
    return OrderEffectReport(tuple(entries))


def majorization_check(current, target, tol: float = 0.0) -> tuple[bool, float]:
    """Is ``target`` majorized by ``current`` (so reachable as frame
    expectations of a state with spectrum ``current``)?

    The slack is the worst excess of the target's sorted partial sums over
    the current ones, clamped at zero; feasible iff slack <= tol.
    """
    c = np.sort(np.asarray(getattr(current, "probs", current), dtype=float))[::-1]
    t = np.sort(np.asarray(getattr(target, "probs", target), dtype=float))[::-1]
    if c.shape != t.shape:
        raise ValueError("distributions have different dimensions")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(t))):
        raise ValueError("non-finite probability in a majorization check")
    slack = float(max(0.0, np.max(np.cumsum(t) - np.cumsum(c))))
    if slack < _MAJORIZATION_NOISE:
        slack = 0.0
    return slack <= tol, slack


@dataclass(frozen=True)
class TransitionCheck:
    from_index: int
    to_index: int
    max_increase: float
    min_decrease: float
    majorization_slack: float
    feasible_at_tol: bool
    exempt: bool = False


@dataclass(frozen=True)
class FeasibilityReport:
    transitions: tuple

    @property
    def all_feasible(self) -> bool:
        return all(t.feasible_at_tol for t in self.transitions)


def _transition(prev: np.ndarray, nxt: np.ndarray, i: int,
                tol: float, exempt: bool) -> TransitionCheck:
    max_inc = max(0.0, float(np.max(nxt) - np.max(prev)))
    min_dec = max(0.0, float(np.min(prev) - np.min(nxt)))
    feasible, slack = majorization_check(prev, nxt, tol)
    return TransitionCheck(
        from_index=i, to_index=i + 1,
        max_increase=max_inc, min_decrease=min_dec,
        majorization_slack=slack,
        feasible_at_tol=True if exempt else feasible,
        exempt=exempt,
    )


def _require_transition(chain: SurveyChain, isolate_first: bool) -> None:
    # the one chain-length rule of checking and fitting: at least one
    # transition, not counting the exempt one from an isolated first question
    if len(chain.questions) < 2 + isolate_first:
        after = " after the isolated first one" if isolate_first else ""
        raise ValueError(
            f"need at least two questions{after} to check a transition")


def contraction_check(chain: SurveyChain) -> FeasibilityReport:
    """Per-transition contraction and majorization (at tol 0) report."""
    return chain_feasibility(chain, False, 0.0)


def chain_feasibility(chain: SurveyChain, isolate_first: bool,
                      tol: float) -> FeasibilityReport:
    """Majorization feasibility of every transition in the chain.

    With ``isolate_first`` the first transition is exempted: the first
    question lives on its own tensor factor of a product state, so its
    outcome constrains nothing downstream.
    """
    _require_transition(chain, isolate_first)
    dists = chain.distributions()
    transitions = tuple(
        _transition(dists[i], dists[i + 1], i, tol,
                    exempt=isolate_first and i == 0)
        for i in range(len(dists) - 1))
    return FeasibilityReport(transitions)
