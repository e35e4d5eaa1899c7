"""Dense reference routes that the tests check the library against.

Each builds its result the slow, explicit way, independently of the fast
path under test.
"""
import numpy as np

from qcog.feasibility import SurveyChain
from qcog.hilbert import as_matrix, frame_projectors
from qcog.nosignal import FIVE_QUESTIONS
from qcog.states import DensityMatrix, lueders_update


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


def measure_frame(state: DensityMatrix, frame) -> DensityMatrix:
    """Lueders update for a non-degenerate question given as a frame."""
    return lueders_update(state, frame_projectors(frame))


def survey_to_dict(chain: SurveyChain) -> dict:
    """Inverse of load_survey up to renormalization (round-trip stable)."""
    rows = []
    for q in chain.questions:
        yes, unsure, no = (q.probs.probs * 100.0).tolist()
        rows.append({"text": q.text, "yes": yes, "unsure": unsure, "no": no,
                     "polarity": q.polarity.value})
    return {"sample_label": chain.label, "questions": rows}
