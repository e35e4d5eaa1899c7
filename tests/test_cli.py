import hashlib
import json

import numpy as np
import pytest

from qcog.cli import main
from qcog.ingest import (IngestError, fixture_path, load_order_pair,
                         load_survey, survey_to_dict)


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
        ["check-contraction", "table1.json", "--tol", "inf"],
        ["fit-chain", "table1.json", "--tol", "-0.1"],
        ["nosignal-demo", "--trials", "-3"],
        ["nosignal-demo", "--trials", "0"],
    ])
    def test_usage_error_exit(self, capsys, argv):
        assert main(argv) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exit(self, capsys):
        assert main(["fit-chain", "--help"]) == 0
        assert "--isolate-first" in capsys.readouterr().out


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

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.delenv("QCOG_SEED", raising=False)
        main(self.NOSIGNAL + ["--seed", "7"])
        plain = capsys.readouterr().out
        main(self.NOSIGNAL + ["--seed", "0"])
        other = capsys.readouterr().out
        monkeypatch.setenv("QCOG_SEED", "7")
        main(self.NOSIGNAL + ["--seed", "0"])
        assert capsys.readouterr().out == plain != other

    def test_fixed_seed_byte_identical(self, capsys, monkeypatch):
        monkeypatch.delenv("QCOG_SEED", raising=False)
        args = self.NOSIGNAL + ["--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_fit_chain_byte_identical(self, t1, capsys, monkeypatch):
        # fitting draws nothing at random, so QCOG_SEED cannot change it
        args = ["fit-chain", t1, "--isolate-first", "--tol", "0", "--json"]
        main(args)
        first = capsys.readouterr().out
        monkeypatch.setenv("QCOG_SEED", "7")
        main(args)
        assert capsys.readouterr().out == first
