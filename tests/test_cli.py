import argparse
import collections.abc
import contextlib
import copy
import dataclasses
import enum
import hashlib
import io
import json
import os
import signal
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcog import cli, feasibility, ingest, sequential
from qcog.cli import main
from qcog.feasibility import (FeasibilityReport, Polarity, SurveyChain,
                              TransitionCheck, chain_feasibility)
from qcog.framefit import (InfeasibleTargetError, fit_chain,
                           fit_result_to_dict)
from qcog.ingest import IngestError, fixture_path, load_order_pair, load_survey
from qcog.sequential import interference_region_scan
from qcog.states import ProbabilityVector

from .oracles import (order_pair_oracle, shares_oracle, survey_oracle,
                      survey_to_dict)


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


# (row, message) of one faulty answer row
FAULTY_ROWS = {
    "negative": ([105, -5, 0], "negative percentage in [105.0, -5.0, 0.0]"),
    "sum": ([50, 30, 17], "percentages sum to 97.0, outside [99, 101]"),
    "non-numeric": (["50", 30, 20],
                    "expected a list of numbers, got ['50', 30, 20]"),
    "overflow": ([1e308] * 3, "percentages sum to inf, outside [99, 101]"),
    "huge integer": ([10 ** 400, 0, 0], "int too large to convert to float"),
    "nan": ([float("nan"), 30, 20],
            "non-finite percentage in [nan, 30.0, 20.0]"),
}


# (file bytes, message after the path) of a file that is not JSON text:
# JSON is UTF-8 (RFC 8259), so UTF-16 with its byte order mark and
# Latin-1 are data errors, whatever the locale's encoding
FILE_FAULTS = {
    "not JSON": (b"not json", "not valid JSON (Expecting value: "
                              "line 1 column 1 (char 0))"),
    "UTF-16": (b"\xff\xfe" + '{"sample_label": "x"}'.encode("utf-16-le"),
               "not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
               "position 0: invalid start byte)"),
    "Latin-1": ('{"sample_label": "caf\u00e9"}'.encode("latin-1"),
                "not UTF-8 text ('utf-8' codec can't decode byte 0xe9 in "
                "position 21: invalid continuation byte)"),
    # a text-mode read turns "\r\n" and a lone "\r" into "\n", so the
    # fault is at char 56 of either file, three bytes before its byte 59
    "CRLF": (b'{"sample_label": "x",\r\n "questions": [\r\n  {"text": "q"},'
             b'\r\n ]}', "not valid JSON (Expecting value: line 4 column 2 "
                          "(char 56))"),
    "CR": (b'{"sample_label": "x",\r "questions": [\r  {"text": "q"},\r ]}',
           "not valid JSON (Expecting value: line 4 column 2 (char 56))"),
    # UTF-8, not UTF-8 with a signature: the BOM is a character
    "BOM": (b'\xef\xbb\xbf{"sample_label": "x", "questions": []}',
            "not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0))"),
    # the position counts from the start of the file, not of a read buffer
    "past 8 KiB": (b'{"sample_label": "' + b"a" * 9000 + b'\xff"}',
                   "not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                   "position 9018: invalid start byte)"),
}


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

    def test_rejects_text_that_is_not_json(self, tmp_path):
        path = tmp_path / "text.json"
        path.write_text("not json")
        with pytest.raises(IngestError) as err:
            load_survey(path)
        assert str(err.value) == (f"{path}: not valid JSON (Expecting value: "
                                  f"line 1 column 1 (char 0))")

    @pytest.mark.parametrize("kind", ["survey", "pair"])
    @pytest.mark.parametrize("fault", list(FILE_FAULTS))
    def test_file_fault_message(self, tmp_path, capsys, kind, fault):
        # a file that cannot be read as JSON text is one error line that
        # names it, on either ingest path
        data, message = FILE_FAULTS[fault]
        path = tmp_path / f"{kind}.json"
        path.write_bytes(data)
        argv = (["check-contraction", str(path)] if kind == "survey"
                else ["check-order", str(path), "--tol", "0.05"])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

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

    @pytest.mark.parametrize("field, edit", [
        ("sample_label", lambda d: d.update(sample_label=["weird"])),
        ("question 2 text", lambda d: d["questions"][1].update(text=7)),
    ], ids=["sample_label", "text"])
    def test_survey_strings_are_strings(self, tmp_path, field, edit):
        doc = copy.deepcopy(SURVEY)
        edit(doc)
        path = tmp_path / "survey.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError) as err:
            load_survey(path)
        assert str(err.value).startswith(f"{path}: {field} must be a string")

    @pytest.mark.parametrize("field, edit", [
        ("label", lambda d: d.update(label=3)),
        ("question_names[0]", lambda d: d.update(question_names=[1, "b"])),
        ("question_names[1]", lambda d: d.update(question_names=["a", {"z": 2}])),
    ], ids=["label", "name-int", "name-dict"])
    def test_pair_strings_are_strings(self, tmp_path, field, edit):
        doc = copy.deepcopy(PAIR)
        edit(doc)
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError) as err:
            load_order_pair(path)
        assert str(err.value).startswith(f"{path}: {field} must be a string")

    def test_pair_answer_counts_match(self, tmp_path, capsys):
        # a question with three answers one way and two the other is an
        # ingest fault, named with its file
        doc = copy.deepcopy(PAIR)
        doc["ordering_1"][0] = [20, 30, 50]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: marginal dimensions differ between orderings"
        with pytest.raises(IngestError) as err:
            load_order_pair(path)
        assert str(err.value) == message
        assert main(["check-order", str(path), "--tol", "0.05"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_check_order_runs_the_pair_rule_once(self, moore, monkeypatch):
        # ingest runs the pair rule and names a fault with its file; the
        # check then runs on the checked rows, not through the rule again
        calls = []
        rule = feasibility._check_orderings

        def spy(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(feasibility, "_check_orderings", spy)
        monkeypatch.setattr(ingest, "_check_orderings", spy)
        assert main(["check-order", moore, "--tol", "0.05"]) == 2
        assert len(calls) == 1

    def test_pair_questions_may_differ_in_answer_count(self, tmp_path,
                                                       capsys):
        # why a pair's rows are checked one at a time: question 0 has three
        # answers in both orderings and question 1 has two, so an ordering's
        # rows do not stack into one array
        doc = copy.deepcopy(PAIR)
        doc["ordering_1"] = [[20, 30, 50], [60, 40]]
        doc["ordering_2"] = [[55, 45], [25, 30, 45]]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        pair = load_order_pair(path)
        assert pair["ordering_1"] == [(20, 30, 50), (60, 40)]
        assert main(["check-order", str(path), "--tol", "0.5", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [(e["question_index"], e["marginal_first_ordering"],
                 e["marginal_second_ordering"]) for e in entries] == [
            (0, [0.2, 0.3, 0.5], [0.25, 0.3, 0.45]),
            (1, [0.6, 0.4], [0.55, 0.45])]

    @pytest.mark.parametrize("second", FAULTY_ROWS)
    @pytest.mark.parametrize("fourth", FAULTY_ROWS)
    def test_first_faulty_row_is_reported(self, tmp_path, second, fourth):
        # the rows are checked as one array, yet a file with two faulty rows
        # names the first, with the message it would have on its own
        rows = [[50, 30, 20]] * 5
        rows[1], rows[3] = FAULTY_ROWS[second][0], FAULTY_ROWS[fourth][0]
        path = write_survey(tmp_path / "two-faults.json", rows)
        with pytest.raises(IngestError) as err:
            load_survey(path)
        assert str(err.value) == (
            f"{path}: question 2 ('q2'): {FAULTY_ROWS[second][1]}")

    @pytest.mark.parametrize("kind, doc, message", [
        ("survey", {"sample_label": "x", "questions": [5]},
         "bad question row 1: 5"),
        ("survey", {"sample_label": "x", "questions": [
            {"text": "q", "yes": 50, "unsure": 30, "no": 20}, 5]},
         "bad question row 2: 5"),
        ("survey", {"sample_label": "x", "questions": [
            {"text": "q", "yes": 105, "unsure": -5, "no": 0}, 5]},
         "question 1 ('q'): negative percentage in [105.0, -5.0, 0.0]"),
        ("survey", {"questions": []}, "missing sample_label/questions"),
        ("survey", {"sample_label": "x", "questions": []},
         "empty question list"),
        ("pair", {"label": "x"}, "missing order-pair fields"),
    ], ids=["first-row", "second-row", "percent-fault-first", "missing",
            "empty", "pair-missing"])
    def test_structural_fault_message(self, tmp_path, kind, doc, message):
        # a row that breaks the schema is named once no earlier row fails
        # the percent rule, including the first row, with no row parsed
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IngestError) as err:
            (load_survey if kind == "survey" else load_order_pair)(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("kind", ["survey", "pair"])
    def test_overflowing_row_is_one_error_line(self, tmp_path, capsys, kind):
        # percentages whose sum overflows: exit 1 with one error line, and no
        # RuntimeWarning on the way.  A pair row, checked on its own under
        # the survey rows' rule, gives every FAULTY_ROWS message
        path = tmp_path / f"{kind}.json"
        if kind == "survey":
            doc = copy.deepcopy(SURVEY)
            doc["questions"][1].update(yes=OVERFLOW, unsure=OVERFLOW,
                                       no=OVERFLOW)
            cases = [(doc, f"question 2 ({doc['questions'][1]['text']!r})",
                      "percentages sum to inf, outside [99, 101]")]
            argv = ["check-contraction", str(path)]
        else:
            cases = []
            overflow = ([OVERFLOW, OVERFLOW], FAULTY_ROWS["overflow"][1])
            for row, message in [overflow, *FAULTY_ROWS.values()]:
                doc = copy.deepcopy(PAIR)
                doc["ordering_1"][0] = row
                cases.append((doc, f"marginal row {row!r}", message))
            argv = ["check-order", str(path), "--tol", "0.05"]
        for doc, where, message in cases:
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, caught) == (1, "", [])
            assert captured.err == f"error: {path}: {where}: {message}\n"

    def test_moore_pair(self, moore):
        pair = load_order_pair(moore)
        assert pair["ordering_1"] == [(50, 50), (57, 43)]
        assert pair["ordering_2"] == [(68, 32), (60, 40)]

    @pytest.mark.parametrize("text, row", [
        # integers as they are, any other number by its decimal text on
        # one denominator; -0.0 is 0
        ("[29, 52, 19]", (29, 52, 19)),
        ("[37.0, 50.0, 13.0]", (37, 50, 13)),
        ("[33.3, 33.3, 33.4]", (333, 333, 334)),
        ("[12.5, 50, 37.5]", (25, 100, 75)),
        ("[0.1, 99.9, -0.0]", (1, 999, 0)),
        ("[1e2, 0, 0.0]", (100, 0, 0)),
        # a number below float range reads as 0, as its float does
        ("[1e-400, 50, 50]", (0, 50, 50)),
        ("[-1e-400, 50, 50]", (0, 50, 50)),
    ])
    def test_rows_are_exact(self, tmp_path, text, row):
        path = tmp_path / "exact.json"
        path.write_text('{"sample_label": "x", "questions": [{"text": "q", '
                        '"yes": %s, "unsure": %s, "no": %s}]}'
                        % tuple(text.strip("[]").split(", ")))
        (question,) = load_survey(path).questions
        assert question.row == row
        shares = [x / sum(row) for x in row]
        assert question.probs.probs.tolist() == shares

    def test_exact_sum_bounds(self, tmp_path):
        # the sum is exact: 101 and 99 are in range however their floats
        # round (101.00000000000001 and 98.99999999999999 here), and a sum
        # 1e-10 beyond either is not
        rows = [[30.1, 34.2, 36.7], [30.1, 67.1, 1.8]]
        path = write_survey(tmp_path / "edge.json", rows)
        assert [q.row for q in load_survey(path).questions] == [
            (301, 342, 367), (301, 671, 18)]
        for row in ([30.1, 34.2, 36.7000000001], [30.1, 67.1, 1.7999999999]):
            path = write_survey(tmp_path / "over.json", [row])
            with pytest.raises(IngestError, match="outside"):
                load_survey(path)


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

    def test_out_of_memory(self, monkeypatch, capsys):
        # a grid too large for numpy's arrays is one error line, not a
        # traceback; the scan raises before anything is written
        def scan(grid_n):
            raise MemoryError("Unable to allocate 74.5 GiB for an array "
                              "with shape (10000000000,) and data type "
                              "float64")

        monkeypatch.setattr(sequential, "interference_region_scan", scan)
        assert main(["conjunction-scan", "--grid", "100000"]) == 1
        assert capsys.readouterr() == ("", "error: Unable to allocate 74.5 GiB"
                                       " for an array with shape "
                                       "(10000000000,) and data type "
                                       "float64\n")

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
        assert captured.err == (
            f"error: {path}: question 2 ('broken'): "
            "non-finite percentage in [nan, 30.0, 20.0]\n")
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
        ["nosignal-demo", "--seed", "-1"],
        ["conjunction-scan", "--grid", "1"],
        ["nosignal-demo", "--trials", "1.5"],
        ["nosignal-demo", "--steps", "2.0"],
        ["conjunction-scan", "--grid", "x"],
    ])
    def test_usage_error_exit(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "_positive_int" not in err
        # the error names the last flag given, the one at fault
        flags = [word for word in argv if word.startswith("--")]
        assert not flags or flags[-1] in err

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

    def test_unrenderable_json_exit(self, capsys, monkeypatch):
        # strict JSON has no NaN: rendering fails before stdout is written
        import qcog.sequential as sequential
        monkeypatch.setattr(sequential, "spin_order_demo",
                            lambda: (float("nan"), 0.5))
        assert main(["spin-demo", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_json_exit(self, capsys, monkeypatch, bad):
        # nor infinities
        import qcog.sequential as sequential
        monkeypatch.setattr(sequential, "spin_order_demo", lambda: (0.5, bad))
        assert main(["spin-demo", "--json"]) == 1
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
NOT_A_STRING = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# added to one percentage, moves its row's sum outside [99, 101]; an integer
# past float range too
OFF_SUM = st.one_of(st.floats(1.5, 1e300), st.floats(-1e300, -1.5),
                    st.integers(2, 10 ** 400))
# finite percentages whose sum overflows to inf
OVERFLOW = 1e308


@st.composite
def malformed_survey(draw):
    doc = copy.deepcopy(SURVEY)
    rows = doc["questions"]
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    key = draw(st.sampled_from(["yes", "unsure", "no"]))
    defect = draw(st.sampled_from([
        "questions", "no questions", "row", "missing key", "type",
        "non-finite", "sum", "overflow", "polarity", "label", "non-string"]))
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
    elif defect == "overflow":
        row.update(yes=OVERFLOW, unsure=OVERFLOW, no=OVERFLOW)
    elif defect == "polarity":
        row["polarity"] = draw(st.one_of(
            st.none(), st.integers(),
            st.text(max_size=5).filter(
                lambda t: t not in ("favour", "oppose", "neutral"))))
    elif defect == "non-string":
        if draw(st.booleans()):
            doc["sample_label"] = draw(NOT_A_STRING)
        else:
            row["text"] = draw(NOT_A_STRING)
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
        "overflow", "empty row", "mismatch", "non-string"]))
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
    elif defect == "overflow":
        ordering[i] = [OVERFLOW, OVERFLOW]
    elif defect == "empty row":
        ordering[i] = []
    elif defect == "non-string":
        if draw(st.booleans()):
            doc["label"] = draw(NOT_A_STRING)
        else:
            doc["question_names"][i] = draw(NOT_A_STRING)
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


@st.composite
def percent_entries(draw, k: int):
    """k JSON numbers in percent summing to about 100: integers where the
    value is whole, and zeros written as 0, 0.0 or -0.0."""
    weights = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    weights[0] += sum(weights) == 0
    scale = draw(st.sampled_from([100.0, 99.5, 100.75])) / sum(weights)
    row = []
    for w in weights:
        x = w * scale
        if x == 0:
            row.append(draw(st.sampled_from([0, 0.0, -0.0])))
        else:
            row.append(int(x) if x == int(x) and draw(st.booleans()) else x)
    return row


@st.composite
def valid_survey(draw):
    questions = []
    for _ in range(draw(st.integers(1, 6))):
        yes, unsure, no = draw(percent_entries(3))
        row = {"text": draw(st.text(max_size=6)), "yes": yes,
               "unsure": unsure, "no": no}
        polarity = draw(st.sampled_from([None, "favour", "oppose", "neutral"]))
        if polarity:
            row["polarity"] = polarity
        questions.append(row)
    return {"sample_label": draw(st.text(max_size=6)), "questions": questions}


@st.composite
def valid_pair(draw):
    k0, k1 = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rows = [draw(percent_entries(k)) for k in (k0, k1, k1, k0)]
    doc = {"question_names": [draw(st.text(max_size=6)) for _ in range(2)],
           "ordering_1": rows[:2], "ordering_2": rows[2:]}
    if draw(st.booleans()):
        doc["label"] = draw(st.text(max_size=6))
    return doc


@st.composite
def ingest_files(draw):
    """The bytes of a survey or order-pair file, valid or with a schema
    break, with LF, CRLF or CR line ends, maybe a UTF-8 BOM or cut short."""
    doc = draw(st.one_of(valid_survey(), valid_pair(), malformed_survey(),
                         malformed_pair()))
    text = json.dumps(doc, indent=draw(st.sampled_from([None, 1])),
                      ensure_ascii=draw(st.booleans()))
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if draw(st.sampled_from(range(6))) == 5:
        text = text[:draw(st.integers(0, len(text)))]
    data = text.encode("utf-8")
    if draw(st.sampled_from(range(10))) == 9:
        data = b"\xef\xbb\xbf" + data
    return data


def ingest_outcome(path) -> list:
    # what a caller sees of each load: the error text, or every label, text
    # and polarity and each row's exact shares; a question's probabilities
    # are its shares, each rounded once
    outcomes = []
    for load in (load_survey, load_order_pair):
        try:
            got = load(path)
        except IngestError as exc:
            outcomes.append(str(exc))
            continue
        if isinstance(got, SurveyChain):
            assert type(got.questions) is tuple
            for q in got.questions:
                p, shares = q.probs, shares_oracle(q.row)
                assert type(p) is ProbabilityVector
                assert not p.probs.flags.writeable
                assert p.probs.tolist() == [float(x) for x in shares]
            outcomes.append((got.label, [
                (q.text, q.polarity, shares_oracle(q.row))
                for q in got.questions]))
        else:
            outcomes.append((got["label"], got["question_names"],
                             [[shares_oracle(r) for r in got[k]]
                              for k in ("ordering_1", "ordering_2")]))
    return outcomes


def oracle_outcome(path) -> list:
    outcomes = []
    for oracle in (survey_oracle, order_pair_oracle):
        try:
            outcomes.append(oracle(path))
        except IngestError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestIngestMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=ingest_files())
    def test_same_chain_pair_or_error(self, data, tmp_path_factory):
        # one bytes read, Decimal numbers and integer rows give what a
        # text-mode read and the exact percent rule in Fractions give, or
        # the same error text
        path = str(tmp_path_factory.getbasetemp() / "ingest.json")
        with open(path, "wb") as fh:
            fh.write(data)
        assert ingest_outcome(path) == oracle_outcome(path)


T1, T2, MOORE = (str(fixture_path(name))
                  for name in ("table1.json", "table2.json", "moore.json"))
# (argv on the bundled fixtures, exit code): every subcommand, each finding
# subcommand both with and without its finding
MODE_CASES = [
    (["check-classical", T1, T2, "--tol", "0.01"], 2),
    (["check-classical", T1, T2, "--tol", "0.5"], 0),
    (["check-order", MOORE, "--tol", "0.05"], 2),
    (["check-order", MOORE, "--tol", "0.5"], 0),
    (["check-contraction", T1], 2),
    (["check-feasibility", T1, "--isolate-first", "--tol", "0"], 0),
    (["check-feasibility", T2, "--tol", "0.07"], 2),
    (["fit-chain", T2, "--isolate-first", "--tol", "0.07"], 0),
    (["conjunction-scan", "--grid", "5"], 0),
    (["spin-demo"], 0),
    (["nosignal-demo", "--trials", "2", "--steps", "2"], 0),
]


class TestOutputModes:
    def test_every_subcommand_has_a_case(self):
        assert ({argv[0] for argv, _ in MODE_CASES}
                == {row[0] for row in cli._SUBCOMMANDS})

    @pytest.mark.parametrize("argv, code", MODE_CASES, ids=[
        " ".join(os.path.basename(a) for a in argv) for argv, _ in MODE_CASES])
    def test_exit_code_does_not_depend_on_json(self, argv, code, capsys):
        assert main(argv) == code
        assert capsys.readouterr().out.strip()
        assert main(argv + ["--json"]) == code
        json.loads(capsys.readouterr().out)


# argvs that main parses through the first word's subcommand parser, or
# through the top-level parser when that word names none
DISPATCH_ARGVS = [
    *(argv for argv, _ in MODE_CASES),
    ["check-contraction", T1, "--json"],
    [], ["--help"], ["-h"], ["no-such-command"], ["--json", "spin-demo"],
    ["-h", "fit-chain"], ["fit-chain", "--help"], ["check-contraction", "-h"],
    ["fit-chain"], ["check-classical", T1], ["check-feasibility", T1],
    ["fit-chain", T1, "--tol", "0", "--seed", "0"],
    ["fit-chain", T1, "--tol", "0", "--bogus"],
    ["check-contraction", T1, "--tol", "0.1"],
    ["spin-demo", "extra"],
    ["check-feasibility", T1, "--tol=0.1"],
    ["check-feasibility", T1, "--tol", "-0.1"],
    ["fit-chain", T1, "--iso", "--tol", "0"],
    ["conjunction-scan", "--grid", "x"],
    ["nosignal-demo", "--trials", "0"],
]


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=[
        " ".join(map(os.path.basename, argv)) or "empty"
        for argv in DISPATCH_ARGVS])
    def test_same_as_top_level_parse(self, argv, monkeypatch):
        # with no subcommand parser to dispatch to, main parses every argv
        # through _PARSER.parse_args, as it did before the dispatch
        dispatched = bool(argv) and argv[0] in cli._SUBPARSERS
        code, out, err = run_main(argv)
        monkeypatch.setattr(cli, "_SUBPARSERS", {})
        want_code, want_out, want_err = run_main(argv)
        assert (code, out) == (want_code, want_out)
        if dispatched and "unrecognized arguments" in want_err:
            # reported with the subcommand's usage, not the top-level one
            assert want_err.startswith("usage: qcog [-h]")
            assert err.startswith(f"usage: qcog {argv[0]} [-h]")
            assert (err.splitlines()[-1]
                    == want_err.splitlines()[-1].replace(
                        "qcog:", f"qcog {argv[0]}:"))
        else:
            assert err == want_err

    def test_unrecognised_argument_shows_subcommand_usage(self, t1):
        code, out, err = run_main(["fit-chain", t1, "--tol", "0", "--bogus"])
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert lines[0].startswith("usage: qcog fit-chain [-h] --tol TOL")
        assert lines[-1] == ("qcog fit-chain: error: unrecognized "
                             "arguments: --bogus")

    @pytest.mark.parametrize("argv", [
        ["fit-chain", "--help"], ["no-such-command"], ["spin-demo", "--json"],
        ["check-contraction", T1, "--json"]])
    def test_argv_none_reads_sys_argv(self, argv, monkeypatch):
        # the console script calls main() with no argv
        want = run_main(argv)
        monkeypatch.setattr(sys, "argv", ["qcog", *argv])
        assert run_main(None) == want


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


# (argv, exit code, SHA-256 of stdout) of each --json report.  Each check
# value is computed exactly on the integer rows and rounded once (0.29, not
# 0.29000000000000004).  Only spin-demo's payload passes through BLAS
# products, the 2x2 matmuls of the Lueders update; its digest is that of
# the block pinching (p_up_after_y 0.49999999999999967)
GOLDEN_JSON = [
    (["check-contraction", T1], 2,
     "46b966bc428ea1869f11bf304c74421e84025d333c3f0ab970d680652eaf1c03"),
    (["check-contraction", T2], 2,
     "31e6495f7eac1a1eebdf29bc28e1732b15eed7812bdbf0491b2e9ec146cd1644"),
    (["check-feasibility", T1, "--tol", "0"], 2,
     "46b966bc428ea1869f11bf304c74421e84025d333c3f0ab970d680652eaf1c03"),
    (["check-feasibility", T1, "--tol", "0", "--isolate-first"], 0,
     "58ef8c1e92969150ebf78bb1d4df3490cb30dd6654316709c1277808eec823bb"),
    (["check-feasibility", T1, "--tol", "0.07"], 2,
     "46b966bc428ea1869f11bf304c74421e84025d333c3f0ab970d680652eaf1c03"),
    (["check-feasibility", T1, "--tol", "0.07", "--isolate-first"], 0,
     "58ef8c1e92969150ebf78bb1d4df3490cb30dd6654316709c1277808eec823bb"),
    (["check-feasibility", T2, "--tol", "0"], 2,
     "31e6495f7eac1a1eebdf29bc28e1732b15eed7812bdbf0491b2e9ec146cd1644"),
    (["check-feasibility", T2, "--tol", "0", "--isolate-first"], 2,
     "234e966ab8c6864435560ff6667702a336034169b1b732136df9f374f262d81a"),
    (["check-feasibility", T2, "--tol", "0.07"], 2,
     "165ac09a70e34ff849f540a482363e59cb40360dbb2dcd12c94cd3302479d458"),
    (["check-feasibility", T2, "--tol", "0.07", "--isolate-first"], 0,
     "2b2bc0af4674b56aac647f416c4933798cdf2d9f263c1a21c445de5dddf85727"),
    (["check-classical", T1, T2, "--tol", "0.01"], 2,
     "f3afbc5c5d56478f2d75569e0ad63feb452581eaaad4f4056d27e51d3e393c2b"),
    (["check-classical", T1, T2, "--tol", "0.5"], 0,
     "8b895f2eaf3c57b17c6fbea2294975fad2e785a6606ac4251a4a73965622d230"),
    (["check-order", MOORE, "--tol", "0.05"], 2,
     "157e27937b25f0b276cac14ad53388c7c21f7acec833add2411774549ed30761"),
    (["check-order", MOORE, "--tol", "0.5"], 0,
     "c6601f412ecbe1b98c695aef8b611ce0a6aad6a5f4eaa1675e4f8bcfad97f410"),
    (["spin-demo"], 0,
     "d1e394315a85ed83729dbab12bb17d34b53d5f3a1572fa120db60575084923f7"),
]


class TestGoldenJson:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN_JSON, ids=[
        " ".join(map(os.path.basename, argv)) for argv, _, _ in GOLDEN_JSON])
    def test_digest(self, argv, code, digest, capsys):
        assert main(argv + ["--json"]) == code
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("path, tol", [(T1, "0"), (T1, "0.07"),
                                           (T2, "0.07")],
                             ids=["table1-0", "table1-0.07", "table2-0.07"])
    def test_fit_chain_is_json_dumps(self, path, tol, capsys):
        # a frame passes through a complex matmul, whose last bits may differ
        # between BLAS builds, so the payload is rebuilt here, not pinned
        argv = ["fit-chain", path, "--isolate-first", "--tol", tol, "--json"]
        assert main(argv) == 0
        payload = fit_result_to_dict(fit_chain(load_survey(path), True,
                                               float(tol)))
        assert capsys.readouterr().out == json.dumps(
            payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# The exact ties in the data: the exact value equals tol, and each value is
# exact and rounded once, so it reads as tol's float and is within tol.
# (argv, exit code, path to the reported value in the --json report, its
# float.hex, path to the verdict, the verdict)
EXACT_TIES = [
    # slack 79 - 73 = 6 %: feasible
    (["check-feasibility", T2, "--isolate-first", "--tol", "0.06"], 0,
     ("transitions", 1, "majorization_slack"), "0x1.eb851eb851eb8p-5",
     ("transitions", 1, "feasible_at_tol"), True),
    # slack 29 %: feasible
    (["check-feasibility", T1, "--tol", "0.29"], 0,
     ("transitions", 0, "majorization_slack"), "0x1.28f5c28f5c28fp-2",
     ("transitions", 0, "feasible_at_tol"), True),
    # Gore's difference 0.11: not flagged
    (["check-order", MOORE, "--tol", "0.11"], 0,
     ("entries", 1, "difference"), "0x1.c28f5c28f5c29p-4",
     ("entries", 1, "flagged"), False),
    # support difference 0.11: consistent
    (["check-classical", T1, T2, "--tol", "0.11"], 0,
     ("support_difference",), "0x1.c28f5c28f5c29p-4", ("violation",), None),
]


class TestExactTies:
    @pytest.mark.parametrize(
        "argv, code, value_at, value_hex, verdict_at, verdict", EXACT_TIES,
        ids=[" ".join(map(os.path.basename, tie[0])) for tie in EXACT_TIES])
    def test_tie(self, argv, code, value_at, value_hex, verdict_at, verdict,
                 capsys):
        assert main(argv + ["--json"]) == code
        doc = json.loads(capsys.readouterr().out)
        value, got = doc, doc
        for key in value_at:
            value = value[key]
        for key in verdict_at:
            got = got[key]
        assert value.hex() == value_hex
        assert got is verdict

    def test_fit_chain_tie(self, t2):
        # the row step reads the 6 % slack from the rows' floats, as
        # 0.06000000000000005, so it refuses what check-feasibility accepts
        code, out, err = run_main(
            ["fit-chain", t2, "--isolate-first", "--tol", "0.06"])
        assert (code, out) == (1, "")
        assert err == (f"error: transition Q2->Q3 of 'Sample B' is infeasible:"
                       f" majorization slack 0.06 exceeds tol 0.06\n")
        with pytest.raises(InfeasibleTargetError) as exc:
            fit_chain(load_survey(t2), True, 0.06)
        assert exc.value.slack.hex() == "0x1.eb851eb851ec0p-5"


@dataclasses.dataclass
class Box:
    first: object
    second: object = None


@dataclasses.dataclass
class Unsorted:
    # fields declared out of sorted order
    zeta: object
    alpha: object = None
    mid: object = None


@dataclasses.dataclass
class WiderBox(Box):
    # a subclass whose added field sorts before the inherited ones
    extra: object = None


@dataclasses.dataclass
class Empty:
    pass


# subclasses of JSON types, which json.dumps prints as their base types
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "left right")


class Items(list):
    pass


class Table(dict):
    pass


def reference_default(obj):
    # how json.dumps rendered arrays and dataclasses before render_json
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return dataclasses.asdict(obj)


def reference_json(payload) -> str:
    return json.dumps(payload, default=reference_default, indent=2,
                      sort_keys=True, allow_nan=False)


JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-05, 1e16, 5e-324, 0.1, 1e22, 1.5e300]))
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), JSON_FLOATS, st.text(),
    JSON_FLOATS.map(np.float64), st.sampled_from(list(Polarity)),
    st.lists(JSON_FLOATS, max_size=5).map(np.array),
    st.lists(st.tuples(JSON_FLOATS, JSON_FLOATS), max_size=3).map(
        lambda pairs: np.array(pairs, dtype=float).reshape(-1, 2)),
    st.lists(st.integers(-5, 5), max_size=3).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.builds(Empty), st.sampled_from(list(Level)))
JSON_PAYLOADS = st.recursive(JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.lists(children, max_size=4).map(Items),
    st.builds(Pair, children, children),
    st.dictionaries(st.text(max_size=4), children, max_size=4),
    st.dictionaries(st.text(max_size=4), children, max_size=4).map(
        collections.OrderedDict),
    st.dictionaries(st.text(max_size=4), children, max_size=4).map(Table),
    st.dictionaries(st.sampled_from(list(Polarity)), children, max_size=3),
    st.builds(Box, children, children),
    st.builds(Unsorted, children, children, children),
    st.builds(WiderBox, children, children, children),
    # one dataclass type at several depths
    st.builds(lambda a, b: Unsorted(Unsorted(a), [Unsorted(b, Box(a))]),
              children, children)), max_leaves=25)


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(payload=JSON_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert cli.render_json(payload) == reference_json(payload)

    def test_dataclass_fields_read_once_per_type(self, t2, monkeypatch):
        # each dataclass type's sorted field names and key texts are built
        # on its first render, not on every one
        report = chain_feasibility(load_survey(t2), True, 0.07)
        want = reference_json(report)
        fields, calls = dataclasses.fields, collections.Counter()

        def spy(obj):
            calls[obj if isinstance(obj, type) else type(obj)] += 1
            return fields(obj)

        monkeypatch.setattr(dataclasses, "fields", spy)
        cli._field_keys.cache_clear()
        texts = {cli.render_json(report) for _ in range(100)}
        assert texts == {want}
        assert calls == {FeasibilityReport: 1, TransitionCheck: 1}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("wrap", [
        lambda x: x, lambda x: [0.5, x], lambda x: [x, 0.5],
        lambda x: {"a": [1, x]}, lambda x: (x,), lambda x: np.float64(x),
        lambda x: np.array([[1.0, x]]), lambda x: Box([0.5], x)],
        ids=["bare", "list", "first", "dict", "tuple", "numpy", "array",
             "dataclass"])
    def test_non_finite_raises(self, bad, wrap):
        with pytest.raises(ValueError):
            reference_json(wrap(bad))
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.render_json(wrap(bad))

    @pytest.mark.parametrize("payload, message", [
        ({"a": [0.5, {1, 2}]}, "Object of type set is not JSON serializable"),
        ({"a": {1: 0.5}}, "keys must be str, not int"),
        ({"a": [Box]}, "Object of type type is not JSON serializable"),
    ], ids=["set", "int-key", "dataclass-type"])
    def test_other_types_raise_type_error(self, payload, message):
        with pytest.raises(TypeError) as err:
            cli.render_json(payload)
        assert str(err.value) == message


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

    # the digests the scan benchmark checks, copied rather than imported so
    # that the test stands without benchmarks/
    @pytest.mark.parametrize("grid, digest", [
        (201, "0d0cf159ce277ebeaca20e29f196614f1677ccc9630dad3ede8bf07f366e7152"),
        (301, "781ac890b8018c4724fb6e2df1a4556b56293fdf7aaa677942b4a15e7a1d13de"),
    ])
    def test_golden_digest_benchmark_grids(self, tmp_path, capsys, grid, digest):
        out = tmp_path / "scan.csv"
        assert main(["conjunction-scan", "--grid", str(grid),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @given(st.integers(2, 400))
    @settings(max_examples=40, deadline=None)
    def test_alpha_dedupe_is_sound(self, grid):
        # the writer formats each distinct alpha once through np.unique,
        # which merges -0.0 with 0.0 and NaN with NaN: alpha is finite and
        # >= +0, so equal values have equal texts; it is symmetric in
        # (p, q) bit for bit, so about half the cells repeat another
        alpha = interference_region_scan(grid).alpha
        assert np.isfinite(alpha).all()
        assert not np.signbit(alpha).any()
        square = alpha.reshape(grid, grid)
        assert square.tobytes() == square.T.tobytes()

    @staticmethod
    def cpus(monkeypatch, n):
        # the writer forks a child for half the rows when it may run on two
        # CPUs or more; n forces one path whatever the machine has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # after every call, success or failure, the writer's child is reaped
        yield
        if hasattr(os, "fork"):
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def spy_repr(monkeypatch):
        # repr is looked up in the cli module, so a spy there counts every
        # text this process formats; a child counts in its own copy
        calls = []

        def spy(x):
            calls.append(x)
            return repr(x)

        monkeypatch.setattr(cli, "repr", spy, raising=False)
        return calls

    @staticmethod
    def spy_writes(monkeypatch):
        # the texts this process writes to the file it opens
        writes = []
        real_open = open

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            write = fh.write
            fh.write = lambda data: writes.append(bytes(data)) or write(data)
            return fh

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        return writes

    @staticmethod
    def scan_bytes(tmp_path, grid, name="scan.csv"):
        out = tmp_path / name
        assert main(["conjunction-scan", "--grid", str(grid),
                     "--out", str(out)]) == 0
        return out.read_bytes()

    @staticmethod
    def rows_text(grid, rows):
        return [text.encode() for text in cli._scan_csv_rows(
            interference_region_scan(grid), grid, rows)]

    def test_each_distinct_alpha_formatted_once(self, tmp_path, monkeypatch):
        # one process formats every text: g centers, 2 g^2 for p_f_b and
        # delta, and one per distinct alpha
        grid = 11
        self.cpus(monkeypatch, 1)
        expected = self.scan_bytes(tmp_path, grid, "expected.csv")
        calls = self.spy_repr(monkeypatch)
        assert self.scan_bytes(tmp_path, grid) == expected
        distinct = np.unique(interference_region_scan(grid).alpha).size
        assert distinct < grid * (grid + 1) // 2
        assert len(calls) == distinct + 2 * grid * grid + grid

    def test_one_write_per_grid_row(self, tmp_path, monkeypatch):
        # the header, then each grid row's lines as one text
        grid = 7
        self.cpus(monkeypatch, 1)
        writes = self.spy_writes(monkeypatch)
        data = self.scan_bytes(tmp_path, grid)
        assert writes == [cli._SCAN_HEADER] + self.rows_text(grid, range(grid))
        assert data == b"".join(writes)

    def test_parent_formats_and_writes_its_half(self, tmp_path, monkeypatch):
        # with two CPUs a child formats grid rows [g//2, g): this process
        # formats g centers and its own rows' texts, writes the header and
        # one text per own grid row, then copies the child's rows
        grid = 11
        half = grid // 2
        self.cpus(monkeypatch, 2)
        expected = self.scan_bytes(tmp_path, grid, "expected.csv")
        calls = self.spy_repr(monkeypatch)
        writes = self.spy_writes(monkeypatch)
        assert self.scan_bytes(tmp_path, grid) == expected == b"".join(writes)
        alpha = interference_region_scan(grid).alpha[:half * grid]
        assert len(calls) == np.unique(alpha).size + 2 * grid * half + grid
        assert writes[:1 + half] == (
            [cli._SCAN_HEADER] + self.rows_text(grid, range(half)))
        assert b"".join(writes[1 + half:]) == b"".join(
            self.rows_text(grid, range(half, grid)))

    @pytest.mark.parametrize("grid", [2, 3, 11])
    def test_lines_match_per_row_oracle(self, grid):
        # each line as the original per-row writer printed it from the
        # scan's fields, one text per grid row; rows [0, h) then rows
        # [h, g) give the same texts at every split point h.  An iterator,
        # so the writer streams its rows without holding them
        scan = interference_region_scan(grid)
        columns = (getattr(scan, f.name).tolist()
                   for f in dataclasses.fields(scan))
        lines = [f"{p!r},{q!r},{a!r},{pfb!r},{d!r},{int(flag)}\n"
                 for p, q, a, pfb, d, flag in zip(*columns)]
        expected = ["".join(lines[i * grid:(i + 1) * grid])
                    for i in range(grid)]
        assert len(lines) == grid * grid
        for h in range(grid + 1):
            head = cli._scan_csv_rows(scan, grid, range(h))
            tail = cli._scan_csv_rows(scan, grid, range(h, grid))
            assert isinstance(head, collections.abc.Iterator)
            assert [*head, *tail] == expected

    @pytest.mark.parametrize("grid", [2, 3, 7, 101])
    def test_one_and_two_processes_agree(self, tmp_path, monkeypatch, grid):
        self.cpus(monkeypatch, 1)
        one = self.scan_bytes(tmp_path, grid, "one.csv")
        self.cpus(monkeypatch, 2)
        assert self.scan_bytes(tmp_path, grid, "two.csv") == one

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("grid, digest", [
        (101, "aed858875f42f2d60957f35b091432d416ba3a9f44c69fa68bf865849a4ffc14"),
        (201, "0d0cf159ce277ebeaca20e29f196614f1677ccc9630dad3ede8bf07f366e7152"),
        (301, "781ac890b8018c4724fb6e2df1a4556b56293fdf7aaa677942b4a15e7a1d13de"),
    ])
    def test_golden_digest_on_each_path(self, tmp_path, monkeypatch, cpus,
                                        grid, digest):
        self.cpus(monkeypatch, cpus)
        assert hashlib.sha256(
            self.scan_bytes(tmp_path, grid)).hexdigest() == digest

    def test_failed_fork_writes_in_one_process(self, tmp_path, monkeypatch):
        grid = 7
        self.cpus(monkeypatch, 1)
        expected = self.scan_bytes(tmp_path, grid, "expected.csv")
        forks = []

        def failing_fork():
            forks.append(None)
            raise OSError(11, "Resource temporarily unavailable")

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert self.scan_bytes(tmp_path, grid) == expected
        assert len(forks) == 1

    def test_failed_child_is_one_error_line(self, tmp_path, monkeypatch,
                                            capsys):
        # the child formats rows [g//2, g); this one raises there, exits 1,
        # and the parent reports it as an OSError
        real_rows = cli._scan_csv_rows

        def rows(scan, grid_n, rows):
            if rows.start > 0:
                raise RuntimeError("child fails")
            return real_rows(scan, grid_n, rows)

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_scan_csv_rows", rows)
        out = tmp_path / "scan.csv"
        assert main(["conjunction-scan", "--grid", "7", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and "exit code 1" in captured.err

    @pytest.mark.parametrize("raised, code", [
        (KeyboardInterrupt, None), (OSError, 1)])
    def test_failed_parent_kills_and_reaps_its_child(
            self, tmp_path, monkeypatch, capsys, raised, code):
        real_rows = cli._scan_csv_rows
        real_fork, real_kill = os.fork, os.kill
        pids, kills = [], []

        def rows(scan, grid_n, rows):
            if rows.start == 0:
                raise raised("parent fails")
            return real_rows(scan, grid_n, rows)

        def fork():
            pid = real_fork()
            pids.append(pid)
            return pid

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_scan_csv_rows", rows)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(
            (pid, sig)) or real_kill(pid, sig))
        argv = ["conjunction-scan", "--grid", "301",
                "--out", str(tmp_path / "scan.csv")]
        if code is None:
            with pytest.raises(raised):
                main(argv)
        else:
            assert main(argv) == code
            assert capsys.readouterr().err == "error: parent fails\n"
        assert len(pids) == 1 and kills == [(pids[0], signal.SIGKILL)]

    def test_unwritable_out_starts_no_child(self, tmp_path, monkeypatch,
                                            capsys):
        forks = []
        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(None))
        out = tmp_path / "missing" / "scan.csv"
        assert main(["conjunction-scan", "--grid", "7", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert forks == []


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

    @pytest.mark.parametrize("seed", ["0", "3", "7"])
    def test_nosignal_demo_default_trials(self, seed, capsys):
        # at the default 100 trials: exit 0, the same keys, no signalling,
        # byte-identical reruns
        args = ["nosignal-demo", "--seed", seed, "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        out = json.loads(first)
        assert set(out) == {"max_fifth_marginal_deviation", "steps", "trials"}
        assert out["trials"] == 100
        assert out["max_fifth_marginal_deviation"] < 1e-10

    @pytest.mark.parametrize("fmt, code", [([], 2), (["--json"], 1)],
                             ids=["text", "json"])
    def test_nan_deviation_is_never_no_signalling(self, fmt, code, capsys,
                                                  monkeypatch):
        # one NaN trial among finite ones: a finding in text, and an error
        # in strict JSON, never "no signalling" with exit 0
        check = cli.nosignal.no_signalling_check
        calls = iter(range(3))
        monkeypatch.setattr(
            cli.nosignal, "no_signalling_check",
            lambda *args: float("nan") if next(calls) == 1 else check(*args))
        assert main(["nosignal-demo", "--trials", "3", "--steps", "2",
                     *fmt]) == code
        out = capsys.readouterr()
        if fmt:
            assert out.out == "" and out.err.startswith("error: ")
        else:
            assert out.out.endswith("max fifth-marginal deviation: nan\n")

    def test_fit_chain_byte_identical(self, t1, capsys):
        args = ["fit-chain", t1, "--isolate-first", "--tol", "0", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first
