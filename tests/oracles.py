"""Dense reference routes that the tests check the library against.

Each builds its result the slow, explicit way, independently of the fast
path under test.
"""
import json
import math
from fractions import Fraction

import numpy as np

from qcog.feasibility import Polarity, SurveyChain
from qcog.framefit import FitError, InfeasibleTargetError
from qcog.hilbert import (_MAJORIZATION_NOISE, _NEGATIVE_PROB_TOL,
                          _PROB_SUM_TOL, RESIDUAL_LIMIT, _numeric, as_matrix,
                          frame_projectors)
from qcog.ingest import IngestError
from qcog.nosignal import FIVE_QUESTIONS
from qcog.states import DensityMatrix, ProbabilityVector, StateError


def embed_local(frame, factor_index: int,
                dims=FIVE_QUESTIONS) -> list[np.ndarray]:
    """Projectors I x ... x |q_i><q_i| x ... x I on the full space."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= factor_index < len(dims):
        raise ValueError(f"factor index {factor_index} out of range")
    u = as_matrix(frame)
    if u.shape != (dims[factor_index], dims[factor_index]):
        raise ValueError("frame dimension does not match its factor")

    pre = np.eye(int(np.prod(dims[:factor_index])))
    post = np.eye(int(np.prod(dims[factor_index + 1:])))
    return [np.kron(np.kron(pre, p), post) for p in frame_projectors(u)]


def lueders_projectors(rho, projectors) -> np.ndarray:
    """Lueders update sum_i P_i rho P_i of the matrix ``rho``, summed one
    projector at a time; the projectors are taken as given, unchecked."""
    rho = np.asarray(rho, dtype=np.complex128)
    return sum(p @ rho @ p for p in projectors)


def block_probabilities(rho, answers) -> np.ndarray:
    """Answer distribution tr(P_i rho) of the matrix ``rho`` for answers with
    the bases B_i, P_i = B_i B_i^H, one projector at a time; unchecked."""
    rho = np.asarray(rho, dtype=np.complex128)
    return np.array([np.trace(b @ b.conj().T @ rho).real for b in answers])


def measure_frame(state: DensityMatrix, frame) -> DensityMatrix:
    """Lueders update for a non-degenerate question given as a frame."""
    return DensityMatrix(lueders_projectors(state.matrix,
                                            frame_projectors(frame)))


def survey_to_dict(chain: SurveyChain) -> dict:
    """Inverse of load_survey up to renormalization (round-trip stable)."""
    rows = []
    for q in chain.questions:
        yes, unsure, no = (q.probs.probs * 100.0).tolist()
        rows.append({"text": q.text, "yes": yes, "unsure": unsure, "no": no,
                     "polarity": q.polarity.value})
    return {"sample_label": chain.label, "questions": rows}


def shares_oracle(row) -> list[Fraction]:
    """The shares x / total of a row of numbers, in exact arithmetic."""
    exact = [Fraction(x) for x in row]
    total = sum(exact)
    return [x / total for x in exact]


class _Number(Fraction):
    """A JSON number that is not an integer: its exact value, shown as the
    float a JSON reader gives for its text."""

    def __new__(cls, text):
        number = super().__new__(cls, text)
        number.float = float(text)
        return number

    def __repr__(self):
        return repr(self.float)


def percent_row_oracle(values) -> list[Fraction]:
    """One answer row in percent by the percent rule, in exact arithmetic:
    no negative entry, no NaN, then a sum within [99, 101], each fault named
    with the row as floats and the sum as Python sums those floats; a
    number below float range reads as 0, as its float does.  Returns the
    row's exact shares; raises StateError with the first fault's message."""
    row = [v.float if isinstance(v, _Number) else float(v) for v in values]
    total = sum(row, 0.0)
    if any(x < 0 for x in row):
        raise StateError(f"negative percentage in {row}")
    if total != total:
        raise StateError(f"non-finite percentage in {row}")
    if not (math.isfinite(total) and 99 <= sum(
            Fraction(v) for v, x in zip(values, row) if x) <= 101):
        raise StateError(f"percentages sum to {total}, outside [99, 101]")
    return shares_oracle([v if x else 0 for v, x in zip(values, row)])


def probability_row_oracle(values) -> np.ndarray:
    """One nonempty probability row checked entry by entry and clipped at 0."""
    p = np.array(values, dtype=float)
    if not all(np.isfinite(x) for x in p):
        raise StateError(f"non-finite probability in {p.tolist()}")
    if min(p) < -_NEGATIVE_PROB_TOL:
        raise StateError(f"negative probability {np.min(p)}")
    p = np.clip(p, 0.0, None)
    with np.errstate(over="ignore"):
        s = p.sum()
    if abs(s - 1.0) > _PROB_SUM_TOL:
        raise StateError(f"probabilities sum to {s}, not 1")
    return p


def _json_oracle(path):
    # a text-mode read, whose newline rule turns "\r\n" and "\r" into "\n";
    # each number that is not an integer as its exact Fraction
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_Number)
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: not valid JSON ({exc})") from None


def _string_oracle(path, value, field: str) -> str:
    if not isinstance(value, str):
        raise IngestError(f"{path}: {field} must be a string, got {value!r}")
    return value


def _answer_row_oracle(path, values, where: str) -> list[Fraction]:
    # numbers, each within float range, then the percent rule in exact
    # arithmetic
    if not (isinstance(values, list) and all(
            isinstance(v, (int, float, Fraction)) and not isinstance(v, bool)
            for v in values)):
        raise IngestError(f"{path}: {where}: expected a list of numbers, "
                          f"got {values!r}")
    try:
        return percent_row_oracle(values)
    except (OverflowError, StateError) as exc:
        raise IngestError(f"{path}: {where}: {exc}") from None


def survey_oracle(path):
    """load_survey the explicit way: a text-mode read, json.load with exact
    Fractions, Polarity's own lookup and the exact percent rule, each value
    checked where it is read.  Returns the label and each question's text,
    polarity and exact shares; raises IngestError with ingest's text."""
    doc = _json_oracle(path)
    try:
        label, rows = doc["sample_label"], doc["questions"]
    except (KeyError, TypeError):
        raise IngestError(f"{path}: missing sample_label/questions") from None
    if not isinstance(rows, list):
        raise IngestError(f"{path}: questions must be a list, got {rows!r}")
    if not rows:
        raise IngestError(f"{path}: empty question list")
    questions = []
    for i, row in enumerate(rows, start=1):
        try:
            values = [row["yes"], row["unsure"], row["no"]]
            polarity = Polarity(row.get("polarity", "neutral"))
            text = row["text"]
        except (KeyError, TypeError, ValueError):
            raise IngestError(
                f"{path}: bad question row {i}: {row!r}") from None
        _string_oracle(path, text, f"question {i} text")
        questions.append((text, polarity, _answer_row_oracle(
            path, values, f"question {i} ({text!r})")))
    return _string_oracle(path, label, "sample_label"), questions


def order_pair_oracle(path):
    """load_order_pair the explicit way, as :func:`survey_oracle`: the
    label, the question names and each ordering's exact shares."""
    doc = _json_oracle(path)
    try:
        names, o1, o2 = (doc["question_names"], doc["ordering_1"],
                         doc["ordering_2"])
    except (KeyError, TypeError):
        raise IngestError(f"{path}: missing order-pair fields") from None
    if not all(isinstance(v, list) and len(v) == 2 for v in (names, o1, o2)):
        raise IngestError(f"{path}: question_names, ordering_1 and ordering_2 "
                          f"must each be a list of 2 entries")
    for k, name in enumerate(names):
        _string_oracle(path, name, f"question_names[{k}]")
    o1, o2 = ([_answer_row_oracle(path, r, f"marginal row {r!r}") for r in o]
              for o in (o1, o2))
    if len(o1[0]) != len(o2[1]) or len(o1[1]) != len(o2[0]):
        raise IngestError(
            f"{path}: marginal dimensions differ between orderings")
    return (_string_oracle(path, doc.get("label", ""), "label"), names,
            [o1, o2])


def transition_oracle(prev, nxt, tol: float):
    """(max increase, min decrease, majorization slack, feasible) of one
    transition, computed for that transition alone."""
    max_inc = max(0.0, float(np.max(nxt) - np.max(prev)))
    min_dec = max(0.0, float(np.min(prev) - np.min(nxt)))
    c = np.sort(np.asarray(prev, dtype=float))[::-1]
    t = np.sort(np.asarray(nxt, dtype=float))[::-1]
    slack = float(max(0.0, np.max(np.cumsum(t) - np.cumsum(c))))
    if slack < _MAJORIZATION_NOISE:
        slack = 0.0
    return max_inc, min_dec, slack, slack <= tol


def slack_oracle(current, target) -> np.ndarray:
    """Majorization slack of each pair of rows, answers on the last axis of
    two arrays of one shape, vectorised in numpy: the worst excess of the
    target's partial sums (np.sort, reversed, np.cumsum) over the current
    ones, 0 below the noise."""
    c, t = np.sort((current, target), axis=-1)[..., ::-1].cumsum(axis=-1)
    excess = (t - c).max(axis=-1)
    return np.where(excess >= _MAJORIZATION_NOISE, excess, 0.0)


def transition_exact_oracle(prev, nxt) -> tuple[Fraction, ...]:
    """(max increase, min decrease, majorization slack) of one transition
    between two rows of numbers, each in exact arithmetic: the rows' shares,
    sorted largest first and summed prefix by prefix."""
    a, b = shares_oracle(prev), shares_oracle(nxt)
    sa, sb = sorted(a, reverse=True), sorted(b, reverse=True)
    slack = max(sum(sb[:k]) - sum(sa[:k]) for k in range(1, len(a) + 1))
    return (max(Fraction(0), max(b) - max(a)),
            max(Fraction(0), min(a) - min(b)), max(Fraction(0), slack))


def schur_horn_frame_oracle(lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Schur-Horn frame W with sum_i lam_i W_ij^2 = t_j, on numpy arrays and
    scalars: stable argsorts, rows of the identity, a column of W written
    per rotation."""
    n = t.size
    order = np.argsort(-lam, kind="stable")
    mu = list(lam[order])
    vecs = list(np.eye(n)[order])
    w = np.empty((n, n))
    targets = np.argsort(-t, kind="stable")
    for j in targets[:-1]:
        i = min(max(sum(m > t[j] for m in mu) - 1, 0), len(mu) - 2)
        mu_a, mu_b = mu[i], mu[i + 1]
        c2 = 1.0 if mu_a == mu_b else min(max(
            (t[j] - mu_b) / (mu_a - mu_b), 0.0), 1.0)
        c, s = np.sqrt(c2), np.sqrt(1.0 - c2)
        u_a, u_b = vecs[i], vecs[i + 1]
        w[:, j] = c * u_a + s * u_b
        vecs[i:i + 2] = [-s * u_a + c * u_b]
        mu[i:i + 2] = [(1.0 - c2) * mu_a + c2 * mu_b]
    w[:, targets[-1]] = vecs[0]
    return w


def pava_oracle(x: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit to ``x`` (pool adjacent violators)."""
    sums: list[float] = []
    counts: list[int] = []
    for value in x:
        sums.append(float(value))
        counts.append(1)
        while len(sums) > 1 and sums[-2] * counts[-1] < sums[-1] * counts[-2]:
            k, s = counts.pop(), sums.pop()
            counts[-1] += k
            sums[-1] += s
    return np.repeat([s / k for s, k in zip(sums, counts)], counts)


def projection_oracle(target: ProbabilityVector, current):
    """(adjusted, max adjustment, Euclidean adjustment) of the permutohedron
    projection, on numpy arrays: np.sort, a stable argsort, np.clip and
    numpy's sum, then the slack oracle on the result."""
    t = target.probs
    c = np.sort(_numeric(current, float, "distributions"))[::-1]
    if c.shape != t.shape:
        raise ValueError("distributions have different dimensions")
    order = np.argsort(-t, kind="stable")
    ts = t[order]
    ys = ts - pava_oracle(ts - c)
    adjusted = np.empty_like(t)
    adjusted[order] = ys
    adjusted = np.clip(adjusted, 0.0, None)
    adjusted /= adjusted.sum()
    slack = float(slack_oracle(c, adjusted))
    if not slack <= 0.0:
        raise FitError(f"projection failed to reach the feasible set "
                       f"(slack {slack:.3g})")
    delta = adjusted - t
    return (ProbabilityVector._unchecked(adjusted),
            float(np.max(np.abs(delta))), float(np.linalg.norm(delta)))


def row_step_oracle(lam: np.ndarray, target: ProbabilityVector, tol: float,
                    what: str):
    """(W, achieved, squared residual, projection distance) of one fitted
    row, on numpy arrays: the slack test, the projection oracle, the frame
    oracle and the achieved row as one broadcast sum over axis 0."""
    slack = float(slack_oracle(lam, target.probs))
    if not slack <= tol:
        raise InfeasibleTargetError(
            f"{what} is infeasible: majorization slack {slack:.4g} "
            f"exceeds tol {tol}", slack)
    proj_dist = 0.0
    if slack > 0:
        target, proj_dist, _ = projection_oracle(target, lam)
    w = schur_horn_frame_oracle(lam, target.probs)
    achieved = (lam[:, None] * w ** 2).sum(axis=0)
    r = achieved - target.probs
    sse = float(r @ r)
    if not sse <= RESIDUAL_LIMIT:
        raise FitError(f"constructed frame misses the target: squared "
                       f"residual {sse:.3g} exceeds {RESIDUAL_LIMIT}")
    return w, achieved, sse, proj_dist
