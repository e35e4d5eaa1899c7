"""Dense reference routes that the tests check the library against.

Each builds its result the slow, explicit way, independently of the fast
path under test.
"""
import numpy as np

from qcog.feasibility import SurveyChain
from qcog.hilbert import (_MAJORIZATION_NOISE, _NEGATIVE_PROB_TOL,
                          _PERCENT_SUM_TOL, _PROB_SUM_TOL, as_matrix,
                          frame_projectors)
from qcog.nosignal import FIVE_QUESTIONS
from qcog.states import DensityMatrix, StateError


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


def percent_row_oracle(values) -> np.ndarray:
    """One answer row in percent, checked and normalized row by row: the
    percentage checks (negative, sum, non-finite), then the probability
    checks on the row divided by its sum.  Raises StateError with the
    message of the first failed check."""
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise StateError(f"negative percentage in {v.tolist()}")
    with np.errstate(all="ignore"):  # the faulty rows the checks reject
        s = v.sum()
        p = v / s
    if abs(s - 100.0) > _PERCENT_SUM_TOL:
        raise StateError(f"percentages sum to {s}, outside [99, 101]")
    if not all(np.isfinite(x) for x in v):
        raise StateError(f"non-finite percentage in {v.tolist()}")
    return probability_row_oracle(p)


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
