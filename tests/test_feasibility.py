import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcog.cli import main
from qcog.feasibility import (Polarity, PolarityError, Question, SurveyChain,
                              _slack, chain_feasibility,
                              classical_consistency_check, contraction_check,
                              majorization_check, order_effect_check)
from qcog.framefit import fit_chain, project_to_majorized
from qcog.states import DensityMatrix, ProbabilityVector, outcome_probabilities

from .conftest import haar_unitary, make_chain, random_probs
from .oracles import (shares_oracle, slack_oracle, transition_exact_oracle,
                      transition_oracle)


def pv(*values):
    return ProbabilityVector(np.array(values, dtype=float))


def partial_sum_oracle(current, target):
    c = sorted(current, reverse=True)
    t = sorted(target, reverse=True)
    return max(sum(t[:k + 1]) - sum(c[:k + 1]) for k in range(len(c)))


class TestClassicalCheck:
    def test_ipsos_final_questions(self, table1, table2):
        check = classical_consistency_check(
            table1.questions[-1], table2.questions[-1], tol=0.01)
        assert abs(check.support_difference - 0.11) < 1e-12
        assert abs(check.oppose_difference - 0.10) < 1e-12
        assert check.violation is not None
        assert check.polarity_warning

    def test_identical_finals(self):
        q = Question("same", (40, 20, 40), Polarity.FAVOUR)
        check = classical_consistency_check(q, q, tol=1e-6)
        assert check.violation is None
        assert not check.polarity_warning

    def test_symmetric(self, table1, table2):
        a = classical_consistency_check(table1.questions[-1],
                                        table2.questions[-1], 0.01)
        b = classical_consistency_check(table2.questions[-1],
                                        table1.questions[-1], 0.01)
        assert a.support_difference == b.support_difference
        assert a.oppose_difference == b.oppose_difference

    def test_neutral_polarity_rejected(self):
        q1 = Question("a", (50, 20, 30), Polarity.NEUTRAL)
        q2 = Question("b", (50, 20, 30), Polarity.FAVOUR)
        with pytest.raises(PolarityError):
            classical_consistency_check(q1, q2, 0.01)


class TestOrderEffect:
    def test_moore_data(self):
        clinton_first = [(50, 50), (57, 43)]
        gore_first = [(68, 32), (60, 40)]
        report = order_effect_check(clinton_first, gore_first, tol=0.05)
        clinton, gore = report.entries
        # exact differences, rounded once
        assert clinton.flagged and clinton.difference == 0.10
        assert gore.flagged and gore.difference == 0.11
        assert (gore.marginal_first_ordering,
                gore.marginal_second_ordering) == ([0.57, 0.43], [0.68, 0.32])

    def test_order_independent_case(self):
        o1 = [(0.5, 0.5), (0.6, 0.4)]
        o2 = [(60, 40), (1, 1)]
        report = order_effect_check(o1, o2, tol=1e-9)
        assert not report.any_flagged

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            order_effect_check([(5, 5), (6, 4)],
                               [(3, 3, 4), (5, 5)], 0.01)


@pytest.mark.parametrize("entry, message", [
    (lambda: SurveyChain("empty", ()),
     "a survey chain needs at least one question"),
    (lambda: SurveyChain("mixed", (Question("a", (50, 50)),
                                   Question("b", (50, 30, 20)))),
     "all questions must share one dimension"),
    (lambda: order_effect_check([(1, 1)] * 3, [(1, 1)] * 2, 0.01),
     "each ordering must contain exactly two questions"),
    # an answer row: a tuple of finite numbers >= 0 with a positive sum
    (lambda: Question("a", [50, 50]), "row must be a tuple, got list"),
    (lambda: Question("a", ()),
     "row must hold finite numbers >= 0 with a positive sum, got ()"),
    (lambda: Question("a", (105, -5)),
     "row must hold finite numbers >= 0 with a positive sum, got (105, -5)"),
    (lambda: Question("a", (0, 0.0)),
     "row must hold finite numbers >= 0 with a positive sum, got (0, 0.0)"),
    (lambda: Question("a", (float("nan"), 1)),
     "row must hold finite numbers >= 0 with a positive sum, got (nan, 1)"),
    (lambda: Question("a", (float("inf"), 1)),
     "row must hold finite numbers >= 0 with a positive sum, got (inf, 1)"),
    (lambda: Question("a", (True, 1)),
     "row must hold finite numbers >= 0 with a positive sum, got (True, 1)"),
    (lambda: Question("a", ("50", 50)),
     "row must hold finite numbers >= 0 with a positive sum, got ('50', 50)"),
    (lambda: order_effect_check([(1, 1), (1, -1)], [(1, 1)] * 2, 0.01),
     "each marginal must hold finite numbers >= 0 with a positive sum, "
     "got (1, -1)"),
    (lambda: majorization_check([], []), "distributions must be nonempty"),
    (lambda: majorization_check([0.5, 0.5], [0.5, 0.3, 0.2]),
     "distributions have different dimensions"),
    (lambda: majorization_check(0.5, 0.5), "distributions must be 1-d arrays"),
    (lambda: majorization_check([[0.5, 0.5], [0.9, 0.1]], [[0.5, 0.5]] * 2),
     "distributions must be 1-d arrays"),
    (lambda: majorization_check([10**400, 0], [0.5, 0.5]),
     "distributions must form a numeric array"),
    (lambda: majorization_check([0.5 + 0.5j, 0.5], [0.5, 0.5]),
     "distributions must be real, not complex"),
    (lambda: project_to_majorized(pv(0.5, 0.5), [0.5, 0.3, 0.2]),
     "distributions have different dimensions"),
    # numeric text, which astype would parse, is not a numeric array
    (lambda: majorization_check(["0.6", "0.4"], ["0.5", "0.5"], 0.0),
     "distributions must form a numeric array"),
    (lambda: project_to_majorized(pv(0.5, 0.5), ["0.5", "0.5"]),
     "distributions must form a numeric array"),
    # the same text held in an object array, beside numbers
    (lambda: majorization_check(np.array(["0.6", 0.4], dtype=object),
                                [0.5, 0.5], 0.0),
     "distributions must form a numeric array"),
    (lambda: project_to_majorized(pv(0.5, 0.5),
                                  np.array([b"0.5", 0.5], dtype=object)),
     "distributions must form a numeric array"),
    # partial sums cannot see a smaller total, so it is no verdict
    (lambda: majorization_check([0.5, 0.5], [0.3, 0.3]),
     "distributions have different totals 1.0 and 0.6"),
    (lambda: majorization_check([0.25, 0.25], [0.5, 0.5], 1.0),
     "distributions have different totals 0.5 and 1.0"),
    (lambda: majorization_check([1e308, 1e308], [0.5, 0.5]),
     "distributions have different totals inf and 1.0"),
    (lambda: project_to_majorized(pv(0.5, 0.5), [0.3, 0.3]),
     "distributions have different totals 0.6 and 1.0"),
    # the projection checks ``current`` where it enters, by the same rule
    (lambda: project_to_majorized(pv(0.5, 0.3, 0.2), [0, 0, 0]),
     "distributions have different totals 0.0 and 1.0"),
    # sorted partial sums beyond float range, whose inf - inf excess _slack
    # reads as 0: here the first partial sums differ by 1e307 ...
    (lambda: majorization_check([1e308, -1e308, 1e308, 0.0],
                                [1.1e308, -1e308, 0.9e308, 0.0]),
     "partial sums beyond float range in a majorization check"),
    # ... and here the current row has total 1, which the projection would
    # turn into a row of NaN
    (lambda: project_to_majorized(pv(*[0.2] * 5),
                                  [1e308, -1e308, 1e308, -1e308, 1.0]),
     "partial sums beyond float range in a majorization check"),
    (lambda: project_to_majorized(pv(0.5, 0.3, 0.2), [np.inf, 0, 0]),
     "non-finite probability in a majorization check"),
    (lambda: project_to_majorized(pv(0.5, 0.3, 0.2), 0.5),
     "distributions have different dimensions"),
    (lambda: project_to_majorized(pv(1.0), 1.0),
     "distributions have different dimensions"),
    (lambda: project_to_majorized([0.6, 0.3, 0.1], [0.5, 0.3, 0.2]),
     "target must be a ProbabilityVector, got list"),
], ids=["empty-chain", "mixed-dims-chain", "three-question-ordering",
        "row-list", "row-empty", "row-negative", "row-zero-sum", "row-nan",
        "row-inf", "row-bool", "row-text", "order-negative-row",
        "majorization-empty", "majorization-shapes", "majorization-scalars",
        "majorization-2d",
        "majorization-huge-int", "majorization-complex",
        "projection-shapes", "majorization-numeric-text",
        "projection-numeric-text", "majorization-object-text",
        "projection-object-bytes", "majorization-smaller-total",
        "majorization-larger-total", "majorization-overflowing-total",
        "projection-smaller-total", "projection-zero-current",
        "majorization-overflowing-partial-sums",
        "projection-overflowing-partial-sums",
        "projection-infinite-current", "projection-scalar-current",
        "projection-scalar-current-one-answer", "projection-list-target"])
def test_fault_message(entry, message):
    with pytest.raises(ValueError) as err:
        entry()
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("tol", [float("nan"), -0.1, True, "0.1", 2 ** 1024],
                         ids=["nan", "negative", "bool", "string", "huge-int"])
@pytest.mark.parametrize("verdict", [
    lambda tol: classical_consistency_check(
        Question("a", (50, 50), Polarity.FAVOUR),
        Question("b", (40, 60), Polarity.FAVOUR), tol),
    lambda tol: order_effect_check([(50, 50)] * 2, [(40, 60)] * 2, tol),
    lambda tol: majorization_check([0.5, 0.5], [0.5, 0.5], tol),
    lambda tol: chain_feasibility(make_chain([[0.5, 0.5], [0.9, 0.1]]),
                                  False, tol),
    lambda tol: fit_chain(make_chain([[0.5, 0.5], [0.5, 0.5]]), False, tol),
], ids=["classical", "order", "majorization", "chain", "fit"])
def test_verdicts_reject_bad_tolerance(verdict, tol):
    # a NaN tol flags nothing in a "> tol" verdict and fails every "<= tol"
    # one, so each verdict rejects it first
    with pytest.raises(ValueError) as err:
        verdict(tol)
    assert type(err.value) is ValueError
    assert str(err.value) == f"tolerance must be finite and >= 0, got {tol!r}"


class TestContraction:
    def test_table1_first_transition(self, table1):
        report = contraction_check(table1)
        t = report.transitions[0]
        assert abs(t.max_increase - 0.29) < 1e-12
        assert abs(t.min_decrease - 0.05) < 1e-12
        assert not t.feasible_at_tol

    def test_table2_second_transition(self, table2):
        t = contraction_check(table2).transitions[1]
        assert abs(t.max_increase - 0.06) < 1e-12

    def test_constant_chain(self):
        chain = make_chain([[0.5, 0.3, 0.2]] * 3)
        report = contraction_check(chain)
        for t in report.transitions:
            assert t.max_increase == 0.0
            assert t.min_decrease == 0.0
            assert t.majorization_slack == 0.0
            assert t.feasible_at_tol

    def test_contraction_violation_implies_slack(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            chain = make_chain([random_probs(rng, 3), random_probs(rng, 3)])
            t = contraction_check(chain).transitions[0]
            if t.max_increase > 0 or t.min_decrease > 0:
                assert t.majorization_slack > 0


class TestMajorization:
    @pytest.mark.parametrize("current,target,feasible,slack", [
        ((0.81, 0.04, 0.15), (0.72, 0.13, 0.15), True, 0.0),
        ((0.59, 0.16, 0.25), (0.45, 0.17, 0.38), True, 0.0),
        ((0.73, 0.05, 0.22), (0.79, 0.06, 0.15), False, 0.06),
    ])
    def test_ipsos_pairs(self, current, target, feasible, slack):
        got_feasible, got_slack = majorization_check(
            np.array(current), np.array(target), tol=0.0)
        assert got_feasible == feasible
        assert abs(got_slack - slack) < 1e-12
        assert abs(got_slack - max(0.0, partial_sum_oracle(current, target))) < 1e-12

    @pytest.mark.parametrize("current,target", [
        ((0.5, 0.5), (np.nan, 0.5)),
        ((0.9, 0.1), (0.5, np.nan)),
    ])
    def test_rejects_non_finite(self, current, target):
        # max(0.0, nan) is 0.0, so a NaN excess used to read as feasible
        with pytest.raises(ValueError, match="non-finite"):
            majorization_check(np.array(current), np.array(target), 0.0)

    def test_tolerance(self):
        feasible, _ = majorization_check(
            np.array([0.73, 0.05, 0.22]), np.array([0.79, 0.06, 0.15]),
            tol=0.07)
        assert feasible

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_feasible_implies_contraction(self, seed):
        rng = np.random.default_rng(seed)
        c, t = random_probs(rng, 3), random_probs(rng, 3)
        feasible, slack = majorization_check(c, t, 0.0)
        if feasible:
            assert np.max(t) <= np.max(c) + 1e-12
            assert np.min(t) >= np.min(c) - 1e-12

    def test_schur_horn_forward(self):
        # frame expectations of a diagonal state are always majorized by it
        rng = np.random.default_rng(71)
        for _ in range(200):
            p = random_probs(rng, 3)
            rho = DensityMatrix(np.diag(p).astype(complex))
            stats = outcome_probabilities(
                rho, np.hsplit(haar_unitary(rng, 3), 3))
            feasible, _ = majorization_check(p, stats.probs, tol=1e-10)
            assert feasible


class TestChainFeasibility:
    def test_table1_isolated(self, table1):
        report = chain_feasibility(table1, isolate_first=True, tol=0.0)
        assert report.transitions[0].exempt
        assert report.all_feasible
        for t in report.transitions[1:]:
            assert t.majorization_slack == 0.0

    def test_table1_not_isolated(self, table1):
        report = chain_feasibility(table1, isolate_first=False, tol=0.0)
        assert not report.transitions[0].feasible_at_tol
        assert not report.all_feasible

    def test_table2_isolated_with_tolerance(self, table2):
        report = chain_feasibility(table2, isolate_first=True, tol=0.07)
        assert report.all_feasible
        assert abs(report.transitions[1].majorization_slack - 0.06) < 1e-12


@st.composite
def chains(draw):
    """2-8 rows of 2-6 integer weights drawn from a small pool, so rows
    repeat and entries tie; zero entries included."""
    k = draw(st.integers(2, 6))
    weights = st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any)
    pool = draw(st.lists(weights, min_size=1, max_size=4))
    return [pool[i] for i in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=2, max_size=8))]


def bits(x: float) -> str:
    return float(x).hex()  # tells -0.0 from 0.0


class TestChainReportOnePass:
    @settings(max_examples=300, deadline=None)
    @given(rows=chains(), isolate_first=st.booleans(), data=st.data())
    def test_matches_each_transition_alone(self, rows, isolate_first, data):
        # tol exactly at a transition's slack, or at zero
        exact = [transition_exact_oracle(a, b) for a, b in zip(rows, rows[1:])]
        tol = data.draw(st.sampled_from([Fraction(0), *(e[2] for e in exact)]))
        chain = make_chain(rows)
        if len(rows) < 2 + isolate_first:
            with pytest.raises(ValueError, match="at least two questions"):
                chain_feasibility(chain, isolate_first, float(tol))
            return
        report = chain_feasibility(chain, isolate_first, float(tol))
        assert len(report.transitions) == len(rows) - 1
        dists = [q.probs.probs for q in chain.questions]
        for i, t in enumerate(report.transitions):
            # the pair check on the rows' floats keeps its float rule
            *_, slack, feasible = transition_oracle(
                dists[i], dists[i + 1], float(tol))
            assert majorization_check(dists[i], dists[i + 1], float(tol)) == (
                feasible, slack)
            exempt = isolate_first and i == 0
            assert (t.from_index, t.to_index) == (i, i + 1)
            assert [bits(t.max_increase), bits(t.min_decrease),
                    bits(t.majorization_slack)] == [
                bits(float(x)) for x in exact[i]]
            assert type(t.feasible_at_tol) is bool and type(t.exempt) is bool
            assert (t.feasible_at_tol, t.exempt) == (
                exempt or exact[i][2] <= tol, exempt)
        if tol == 0:
            assert contraction_check(chain) == chain_feasibility(
                chain, False, 0.0)


# masses moved between two entries around the 1e-12 noise edge, where the
# last bit of a partial sum decides whether the slack reads as 0
NOISE_EDGE = [0.0, 5e-13, float(np.nextafter(1e-12, 0.0)), 1e-12,
              float(np.nextafter(1e-12, 1.0)), 2e-12, 1e-3]


@st.composite
def slack_rows(draw):
    """(current, target): float rows of 1-9 entries (from 8, numpy sums a
    row eight ways at once; its cumsum stays sequential) of small weights,
    so entries tie and may be 0.0 or -0.0, maybe normalised; the target is
    another such row, or the current one with a NOISE_EDGE mass moved
    between two of its entries."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.integers(0, 4).map(float),
                      st.sampled_from([-0.0, 0.1, 0.2, 1 / 3]))
    rows = st.lists(entry, min_size=n, max_size=n)
    current = draw(rows)
    if draw(st.booleans()) and any(current):
        current = [x / sum(current) for x in current]
    if draw(st.booleans()):
        target = draw(rows)
    else:
        target = list(current)
        d = draw(st.sampled_from(NOISE_EDGE))
        target[draw(st.integers(0, n - 1))] += d
        target[draw(st.integers(0, n - 1))] -= d
    return current, target


class TestFloatPathMatchesNumpy:
    """The float majorization slack, which the pair check and the frame fit
    read, runs on Python floats; each value is the vectorised numpy
    computation's, bit for bit (tests/oracles.py)."""

    @settings(max_examples=500, deadline=None)
    @given(slack_rows())
    def test_slack(self, rows):
        current, target = rows
        want = float(slack_oracle(current, target))
        assert bits(_slack(current, target)) == bits(want)
        assert bits(_slack(target, current)) == bits(
            float(slack_oracle(target, current)))

    @pytest.mark.parametrize("current, target", [
        # partial sums beyond float range: inf - inf is NaN, which numpy's
        # max returns although an earlier excess is 1e307, so the slack
        # reads as 0 ...
        ([1e308, -1e308, 1e308, 0.0], [1.1e308, -1e308, 0.9e308, 0.0]),
        # ... an excess of inf is the slack, and one of -inf reads as 0
        ([1.0, 0.0], [1e308, 1e308]),
        ([0.5, 0.5], [-1e308, -1e308]),
    ])
    def test_slack_beyond_float_range(self, current, target):
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(slack_oracle(current, target))
        assert bits(_slack(current, target)) == bits(want)


@st.composite
def percent_row(draw, k: int, places: int):
    """(JSON numbers, their exact values) of k percentages summing to
    exactly 99-101, ties and zeros included: integers, or multiples of
    10**-places written as floats, whose shortest text ("37.0", "33.3") is
    that decimal."""
    unit = 10 ** places
    total = draw(st.integers(99 * unit, 101 * unit))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1,
                                max_size=k - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    if places == 0 and draw(st.booleans()):
        return parts, [Fraction(p) for p in parts]
    return [p / unit for p in parts], [Fraction(p, unit) for p in parts]


def run_json(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    return code, json.loads(out.getvalue())


class TestExactChecks:
    """check-contraction, check-feasibility, check-classical and check-order
    on integer-percent rows summing to 99-101 and on one-decimal rows, at a
    tol of up to 10 decimals or at a value the data attain: every reported
    value is its exact value rounded once, and every verdict is the exact
    comparison with tol's exact value."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_values_and_verdicts_are_exact(self, data, tmp_path_factory):
        places = data.draw(st.sampled_from([0, 1]), label="places")
        surveys = [[data.draw(percent_row(3, places))
                    for _ in range(data.draw(st.integers(3, 5)))]
                   for _ in range(2)]
        polarities = [data.draw(st.sampled_from(["favour", "oppose"]))
                      for _ in surveys]
        counts = data.draw(st.lists(st.integers(2, 4), min_size=2,
                                    max_size=2))
        pair = [[data.draw(percent_row(k, places)) for k in ks]
                for ks in (counts, counts[::-1])]

        transitions = [transition_exact_oracle(a, b) for (_, a), (_, b)
                       in zip(surveys[0], surveys[0][1:])]
        ends = []
        for rows, polarity in zip(surveys, polarities):
            yes, _, no = shares_oracle(rows[-1][1])
            ends.append((yes, no) if polarity == "favour" else (no, yes))
        classical = [abs(a - b) for a, b in zip(*ends)]
        order = [max(abs(x - y) for x, y in zip(
                     shares_oracle(a[1]), shares_oracle(b[1])))
                 for a, b in zip(pair[0], pair[1][::-1])]
        tol = data.draw(st.one_of(
            st.sampled_from([Fraction(0), *(v for t in transitions for v in t),
                             *classical, *order]),
            st.integers(0, 30).map(lambda k: Fraction(k, 100)),
            st.integers(0, 5 * 10 ** 9 - 1).map(
                lambda k: Fraction(k, 10 ** 10))), label="tol")

        folder = tmp_path_factory.mktemp("exact")
        paths = []
        for name, rows, polarity in zip("ab", surveys, polarities):
            questions = [{"text": f"q{i}", "yes": r[0], "unsure": r[1],
                          "no": r[2], "polarity": polarity}
                         for i, (r, _) in enumerate(rows)]
            paths.append(str(folder / f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"sample_label": name, "questions": questions}, fh)
        paths.append(str(folder / "pair.json"))
        with open(paths[-1], "w") as fh:
            json.dump({"question_names": ["x", "y"],
                       "ordering_1": [r for r, _ in pair[0]],
                       "ordering_2": [r for r, _ in pair[1]]}, fh)
        tol_text = repr(float(tol))

        code, doc = run_json(["check-contraction", paths[0]])
        got = doc["transitions"]
        assert [[bits(t[k]) for k in ("max_increase", "min_decrease",
                                      "majorization_slack")] for t in got] == [
            [bits(float(x)) for x in t] for t in transitions]
        assert [t["feasible_at_tol"] for t in got] == [
            t[2] == 0 for t in transitions]
        assert code == 2 * any(t[0] > 0 or t[1] > 0 for t in transitions)
        for isolate_first in (False, True):
            argv = ["check-feasibility", paths[0], "--tol", tol_text]
            code, doc = run_json(argv + ["--isolate-first"] * isolate_first)
            got = doc["transitions"]
            want = [(isolate_first and i == 0) or t[2] <= tol
                    for i, t in enumerate(transitions)]
            assert [bits(t["majorization_slack"]) for t in got] == [
                bits(float(t[2])) for t in transitions]
            assert [t["feasible_at_tol"] for t in got] == want
            assert code == 2 * (not all(want))

        code, doc = run_json(["check-classical", *paths[:2], "--tol",
                              tol_text])
        assert [bits(doc["support_difference"]),
                bits(doc["oppose_difference"])] == [
            bits(float(x)) for x in classical]
        assert (doc["violation"] is not None) == (classical[0] > tol)
        assert code == 2 * (classical[0] > tol)

        code, doc = run_json(["check-order", paths[2], "--tol", tol_text])
        assert [bits(e["difference"]) for e in doc["entries"]] == [
            bits(float(x)) for x in order]
        assert [e["flagged"] for e in doc["entries"]] == [
            x > tol for x in order]
        assert code == 2 * any(x > tol for x in order)
