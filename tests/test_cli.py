import argparse
import contextlib
import copy
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcog.cli import main
from qcog.ingest import IngestError, fixture_path, load_order_pair, load_survey

from .oracles import survey_to_dict


def write_survey(path, rows):
    path.write_text(json.dumps({"sample_label": path.stem, "questions": [
        {"text": f"q{i + 1}", "yes": r[0], "unsure": r[1], "no": r[2]}
        for i, r in enumerate(rows)]}))
    return str(path)


@pytest.fixture
def t1():
    return str(fixture_path("table1.json"))


@pytest.fixture
def t2():
    return str(fixture_path("table2.json"))


@pytest.fixture
def moore():
    return str(fixture_path("moore.json"))


class TestIngest:
    def test_table1(self, t1):
        chain = load_survey(t1)
        assert chain.label == "Sample A"
        assert len(chain.questions) == 5
        assert np.allclose(chain.questions[1].probs.probs, [0.81, 0.04, 0.15])

    def test_table2(self, t2):
        chain = load_survey(t2)
        assert np.allclose(chain.questions[3].probs.probs, [0.79, 0.09, 0.12])

    def test_rejects_bad_sum(self, tmp_path):
        doc = {"sample_label": "bad", "questions": [
            {"text": "broken", "yes": 50, "unsure": 30, "no": 17,
             "polarity": "neutral"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="broken"):
            load_survey(path)

    def test_rejects_negative(self, tmp_path):
        doc = {"sample_label": "bad", "questions": [
            {"text": "neg", "yes": 105, "unsure": -5, "no": 0,
             "polarity": "neutral"}]}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError):
            load_survey(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_survey(tmp_path / "nope.json")

    def test_round_trip(self, t1, tmp_path):
        chain = load_survey(t1)
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(survey_to_dict(chain)))
        again = load_survey(path)
        assert again.label == chain.label
        for a, b in zip(again.questions, chain.questions):
            assert a.text == b.text
            assert a.polarity == b.polarity
            assert np.array_equal(a.probs.probs, b.probs.probs)

    def test_rejects_questions_not_a_list(self, tmp_path):
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"sample_label": "x", "questions": 5}))
        with pytest.raises(IngestError, match="questions must be a list"):
            load_survey(path)

    def test_rejects_ordering_not_a_list(self, tmp_path):
        doc = json.loads(fixture_path("moore.json").read_text())
        doc["ordering_1"] = 5
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="list of 2 entries"):
            load_order_pair(path)

    def test_moore_pair(self, moore):
        pair = load_order_pair(moore)
        assert len(pair["ordering_1"]) == 2
        assert np.allclose(pair["ordering_1"][0].probs, [0.5, 0.5])
        assert np.allclose(pair["ordering_2"][0].probs, [0.68, 0.32])


class TestExitCodes:
    def test_check_classical_finding(self, t1, t2, capsys):
        code = main(["check-classical", t1, t2, "--tol", "0.01"])
        out = capsys.readouterr().out
        assert code == 2
        assert "0.11" in out and "0.1" in out

    def test_check_classical_loose_tol(self, t1, t2):
        assert main(["check-classical", t1, t2, "--tol", "0.5"]) == 0

    def test_check_order(self, moore):
        assert main(["check-order", moore, "--tol", "0.05"]) == 2

    def test_check_contraction(self, t1):
        assert main(["check-contraction", t1]) == 2

    def test_check_feasibility_isolated(self, t1):
        assert main(["check-feasibility", t1, "--tol", "0",
                     "--isolate-first"]) == 0

    def test_check_feasibility_full(self, t1):
        assert main(["check-feasibility", t1, "--tol", "0"]) == 2

    def test_error_exit(self, tmp_path, capsys):
        code = main(["check-contraction", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_fit_chain_infeasible(self, t1, capsys):
        code = main(["fit-chain", t1, "--tol", "0"])
        assert code == 1
        assert "Q1->Q2" in capsys.readouterr().err

    def test_fit_chain_cascade(self, tmp_path, capsys):
        # every pair of input rows is within tol, but Q3 is 0.1 beyond the
        # projected Q2 the fit has reached
        path = write_survey(tmp_path / "cascade.json",
                            [[50, 30, 20], [55, 25, 20], [60, 20, 20]])
        assert main(["check-feasibility", path, "--tol", "0.07"]) == 0
        capsys.readouterr()
        assert main(["fit-chain", path, "--tol", "0.07"]) == 1
        captured = capsys.readouterr()
        assert "Q2->Q3" in captured.err and captured.out == ""

    def test_check_feasibility_one_question(self, tmp_path, capsys):
        path = write_survey(tmp_path / "single.json", [[50, 30, 20]])
        assert main(["check-feasibility", path, "--tol", "0"]) == 1
        assert "at least two questions" in capsys.readouterr().err

    @pytest.mark.parametrize("rows,argv", [
        ([[50, 30, 20]], ["fit-chain", "--tol", "0"]),
        ([[50, 30, 20], [45, 30, 25]],
         ["fit-chain", "--isolate-first", "--tol", "0"]),
        ([[50, 30, 20], [45, 30, 25]],
         ["check-feasibility", "--isolate-first", "--tol", "0"]),
    ])
    def test_chain_without_transition(self, tmp_path, capsys, rows, argv):
        # nothing to fit or check: an isolated first question is exempt
        path = write_survey(tmp_path / "short.json", rows)
        assert main([argv[0], path, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["check-feasibility", "--isolate-first", "--tol", "0.07"],
        ["check-contraction", "--json"],
        ["fit-chain", "--isolate-first", "--tol", "0.07", "--json"],
    ])
    def test_nan_survey_rejected(self, tmp_path, capsys, argv):
        doc = {"sample_label": "nan", "questions": [
            {"text": "base", "yes": 50, "unsure": 30, "no": 20},
            {"text": "broken", "yes": float("nan"), "unsure": 30, "no": 20},
            {"text": "last", "yes": 40, "unsure": 30, "no": 30}]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # writes a bare NaN, as json.load reads
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1
        assert "non-finite" in captured.err
        assert captured.out == ""

    def test_failed_post_check(self, t1, capsys, monkeypatch):
        import qcog.framefit as framefit
        monkeypatch.setattr(framefit, "_schur_horn_frame",
                            lambda lam, t: np.eye(t.size))
        code = main(["fit-chain", t1, "--isolate-first", "--tol", "0"])
        assert code == 1
        assert "misses the target" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check-feasibility", "table1.json"],                # missing --tol
        ["fit-chain", "table1.json", "--tol", "0", "--seed", "0"],
        ["fit-chain", "table1.json", "--tol", "0", "--starts", "32"],
        ["no-such-command"],
        ["check-classical", "table1.json", "table2.json", "--tol", "nan"],
        ["check-order", "moore.json", "--tol", "nan"],
        ["check-feasibility", "table1.json", "--tol", "nan"],
        ["check-feasibility", "table1.json", "--tol", "inf"],
        ["fit-chain", "table1.json", "--tol", "-0.1"],
        ["nosignal-demo", "--trials", "-3"],
        ["nosignal-demo", "--trials", "0"],
        ["nosignal-demo", "--steps", "0"],
        ["nosignal-demo", "--steps", "-3"],
        ["check-contraction", "table1.json", "--tol", "0.1"],
    ])
    def test_usage_error_exit(self, capsys, argv):
        assert main(argv) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exit(self, capsys):
        assert main(["fit-chain", "--help"]) == 0
        assert "--isolate-first" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["check-contraction", "."],
        ["conjunction-scan", "--grid", "3", "--out", "missing/dir/x.csv"],
    ])
    def test_os_error_exit(self, tmp_path, capsys, monkeypatch, argv):
        # a directory as input, an output in a directory that does not exist
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_parser_built_once(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ArgumentParser was built per call")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert [main(["spin-demo", "--json"]), main(["no-such-command"]),
                main(["fit-chain", "--help"])] == [0, 1, 0]


SURVEY = json.loads(fixture_path("table1.json").read_text())
PAIR = json.loads(fixture_path("moore.json").read_text())
NOT_A_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=5),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# added to one percentage, moves its row's sum outside [99, 101]; an integer
# past float range too
OFF_SUM = st.one_of(st.floats(1.5, 1e300), st.floats(-1e300, -1.5),
                    st.integers(2, 10 ** 400))


@st.composite
def malformed_survey(draw):
    doc = copy.deepcopy(SURVEY)
    rows = doc["questions"]
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    key = draw(st.sampled_from(["yes", "unsure", "no"]))
    defect = draw(st.sampled_from([
        "questions", "no questions", "row", "missing key", "type",
        "non-finite", "sum", "polarity", "label"]))
    if defect == "questions":
        doc["questions"] = draw(NOT_A_LIST)
    elif defect == "no questions":
        doc["questions"] = []
    elif defect == "row":
        rows[i] = draw(st.one_of(
            NOT_A_LIST, st.lists(st.integers(), max_size=3)))
    elif defect == "missing key":
        del row[draw(st.sampled_from(["text", "yes", "unsure", "no"]))]
    elif defect == "type":
        row[key] = draw(NOT_A_NUMBER)
    elif defect == "non-finite":
        row[key] = draw(NON_FINITE)
    elif defect == "sum":
        row[key] += draw(OFF_SUM)
    elif defect == "polarity":
        row["polarity"] = draw(st.one_of(
            st.none(), st.integers(),
            st.text(max_size=5).filter(
                lambda t: t not in ("favour", "oppose", "neutral"))))
    else:
        del doc["sample_label"]
    return doc


@st.composite
def malformed_pair(draw):
    doc = copy.deepcopy(PAIR)
    field = draw(st.sampled_from(
        ["question_names", "ordering_1", "ordering_2"]))
    ordering = doc[draw(st.sampled_from(["ordering_1", "ordering_2"]))]
    i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    defect = draw(st.sampled_from([
        "field", "length", "missing", "row", "type", "non-finite", "sum",
        "empty row", "mismatch"]))
    if defect == "field":
        doc[field] = draw(NOT_A_LIST)
    elif defect == "length":
        doc[field] = (doc[field] * 2)[:draw(st.sampled_from([0, 1, 3, 4]))]
    elif defect == "missing":
        del doc[field]
    elif defect == "row":
        ordering[i] = draw(NOT_A_LIST)
    elif defect == "type":
        ordering[i][j] = draw(NOT_A_NUMBER)
    elif defect == "non-finite":
        ordering[i][j] = draw(NON_FINITE)
    elif defect == "sum":
        ordering[i][j] += draw(OFF_SUM)
    elif defect == "empty row":
        ordering[i] = []
    else:
        # the other ordering still asks this question with two answers
        doc["ordering_1"][i] = [20, 30, 50]
    return doc


class TestMalformedInput:
    @settings(max_examples=100, deadline=None)
    @given(doc=st.one_of(malformed_survey(), malformed_pair()))
    def test_every_file_subcommand_exits_1(self, doc, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("doc") / "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)  # non-finite numbers as bare NaN/Infinity
        t1 = str(fixture_path("table1.json"))
        for argv in (["check-classical", path, t1, "--tol", "0.01"],
                     ["check-classical", t1, path, "--tol", "0.01"],
                     ["check-order", path, "--tol", "0.05"],
                     ["check-contraction", path],
                     ["check-feasibility", path, "--tol", "0"],
                     ["fit-chain", path, "--tol", "0.07"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert (code, out.getvalue()) == (1, ""), (argv, doc)
            assert err.getvalue().startswith("error:"), (argv, doc)


class TestJsonOutputs:
    def test_fit_chain_json(self, t1, capsys):
        code = main(["fit-chain", t1, "--isolate-first", "--tol", "0",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(r < 1e-9 for r in doc["residuals"])
        assert len(doc["frames"]) == 4
        # row-major (re, im) pairs
        assert len(doc["frames"][0]) == 3
        assert len(doc["frames"][0][0][0]) == 2

    def test_classical_json(self, t1, t2, capsys):
        main(["check-classical", t1, t2, "--tol", "0.01", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["support_difference"] - 0.11) < 1e-12
        assert abs(doc["oppose_difference"] - 0.10) < 1e-12

    def test_spin_demo_json(self, capsys):
        assert main(["spin-demo", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["p_up_direct"] - 1.0) < 1e-12
        assert abs(doc["p_up_after_y"] - 0.5) < 1e-12


class TestScanCsv:
    def test_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = main(["conjunction-scan", "--grid", "11", "--out", str(out)])
        assert code == 0
        text = out.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "p,q,alpha,p_f_b,delta,in_region"
        assert len(lines) == 1 + 11 * 11 + 1  # header + cells + trailing LF
        assert "\r" not in text

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["conjunction-scan", "--grid", "7", "--out", str(a)])
        main(["conjunction-scan", "--grid", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_golden_digest_grid_101(self, tmp_path, capsys):
        # SHA-256 of the CSV written by the original per-cell implementation
        out = tmp_path / "fig1.csv"
        assert main(["conjunction-scan", "--grid", "101",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aed858875f42f2d60957f35b091432d416ba3a9f44c69fa68bf865849a4ffc14")


class TestSeedHandling:
    NOSIGNAL = ["nosignal-demo", "--trials", "3", "--steps", "2", "--json"]

    def test_seed_flag_is_the_only_seed(self, capsys, monkeypatch):
        # the seed changes the output; an environment variable does not
        monkeypatch.delenv("QCOG_SEED", raising=False)
        main(self.NOSIGNAL + ["--seed", "7"])
        seven = capsys.readouterr().out
        main(self.NOSIGNAL + ["--seed", "0"])
        zero = capsys.readouterr().out
        monkeypatch.setenv("QCOG_SEED", "7")
        main(self.NOSIGNAL + ["--seed", "0"])
        assert seven != zero == capsys.readouterr().out

    def test_fixed_seed_byte_identical(self, capsys):
        args = self.NOSIGNAL + ["--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_fit_chain_byte_identical(self, t1, capsys):
        args = ["fit-chain", t1, "--isolate-first", "--tol", "0", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
