import numpy as np
import pytest

from qcog import states
from qcog.feasibility import Polarity, Question, SurveyChain
from qcog.ingest import fixture_path, load_survey


def haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_probs(rng, dim):
    p = rng.uniform(0.0, 1.0, dim)
    return p / p.sum()


@pytest.fixture
def gram_checks(monkeypatch):
    """Each matrix the question rule's Gram check sees while the test runs."""
    calls = []
    original = states._orthonormal_columns
    monkeypatch.setattr(states, "_orthonormal_columns",
                        lambda a: calls.append(a) or original(a))
    return calls


@pytest.fixture
def table1():
    return load_survey(fixture_path("table1.json"))


@pytest.fixture
def table2():
    return load_survey(fixture_path("table2.json"))


def make_chain(rows, label="test", polarity=Polarity.NEUTRAL):
    return SurveyChain(label, tuple(
        Question(f"q{i}", tuple(r), polarity) for i, r in enumerate(rows)))
