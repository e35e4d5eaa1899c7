"""Acceptance suite: one test per criterion, one printed pass line each."""
import json

import numpy as np

from qcog.cli import main
from qcog.framefit import fit_chain, replay
from qcog.ingest import fixture_path, load_survey
from qcog.nosignal import (LocalSeries, no_signalling_check,
                           random_entangled_state, random_local_series)
from qcog.sequential import (interference_region_scan, sequential_probability,
                             sequential_probability_via_states,
                             spin_order_demo)
from qcog.states import DensityMatrix, PureState, degenerate_yes_probability

from .conftest import haar_unitary
from .oracles import measure_frame

T1 = str(fixture_path("table1.json"))
T2 = str(fixture_path("table2.json"))
MOORE = str(fixture_path("moore.json"))


def report(number, description):
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_classical_violation(capsys):
    code = main(["check-classical", T1, T2, "--tol", "0.01", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert abs(doc["support_difference"] - 0.11) < 1e-12
    assert abs(doc["oppose_difference"] - 0.10) < 1e-12
    with capsys.disabled():
        report(1, "support-side 0.11 / oppose-side 0.10, exit code 2")


def test_criterion_2_order_effect(capsys):
    code = main(["check-order", MOORE, "--tol", "0.05", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    by_name = dict(zip(doc["question_names"], doc["entries"]))
    clinton = next(v for k, v in by_name.items() if "Clinton" in k)
    gore = next(v for k, v in by_name.items() if "Gore" in k)
    assert clinton["flagged"]
    assert np.allclose(clinton["marginal_first_ordering"], [0.50, 0.50])
    assert np.allclose(clinton["marginal_second_ordering"], [0.60, 0.40])
    assert gore["flagged"]
    assert np.allclose(gore["marginal_first_ordering"], [0.57, 0.43])
    assert np.allclose(gore["marginal_second_ordering"], [0.68, 0.32])
    with capsys.disabled():
        report(2, "Gore 0.57 vs 0.68 and Clinton 0.50 vs 0.60 flagged")


def test_criterion_3_contraction_findings(capsys):
    main(["check-contraction", T1, "--json"])
    doc1 = json.loads(capsys.readouterr().out)
    t12 = doc1["transitions"][0]
    assert abs(t12["max_increase"] - 0.29) < 1e-12
    assert abs(t12["min_decrease"] - 0.05) < 1e-12

    main(["check-contraction", T2, "--json"])
    doc2 = json.loads(capsys.readouterr().out)
    assert abs(doc2["transitions"][1]["max_increase"] - 0.06) < 1e-12

    code = main(["check-feasibility", T1, "--isolate-first", "--tol", "0",
                 "--json"])
    doc3 = json.loads(capsys.readouterr().out)
    assert code == 0
    for t in doc3["transitions"][1:]:
        assert t["majorization_slack"] == 0.0
        assert t["feasible_at_tol"]
    with capsys.disabled():
        report(3, "contraction values 0.29/0.05 and 0.06; isolated Table 1 "
                  "majorization slack 0")


def test_criterion_4_closed_form_vs_oracle(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        p, q = rng.uniform(0.0, 1.0, 2)
        worst = max(worst, abs(sequential_probability(p, q)
                               - sequential_probability_via_states(p, q)))
    assert worst < 1e-12
    for q in rng.uniform(0.0, 1.0, 50):
        assert abs(sequential_probability(q, q) - q) < 1e-12
        assert abs(sequential_probability(0.0, q) - q) < 1e-12
        assert abs(sequential_probability(1.0, q) - q) < 1e-12
    with capsys.disabled():
        report(4, f"closed form vs pipeline on 10,000 pairs "
                  f"(max dev {worst:.2e}) and q on p=q, p=0, p=1")


def test_criterion_5_figure_region(capsys):
    scan = interference_region_scan(101)
    below = scan.q < scan.p
    assert np.all(scan.p_f_b[below] > scan.q[below])
    diagonal = scan.p == scan.q
    assert np.all(np.abs(scan.delta[diagonal]) < 1e-12)
    with capsys.disabled():
        report(5, "101x101 grid: P^F(B) > q below the diagonal, "
                  "delta = 0 on it")


def test_criterion_6_spin_demo(capsys):
    direct, after = spin_order_demo()
    assert abs(direct - 1.0) < 1e-12
    assert abs(after - 0.5) < 1e-12
    with capsys.disabled():
        report(6, "spin demo returns (1, 0.5) through the update machinery")


def test_criterion_7_fit_reproduction(capsys):
    table1 = load_survey(T1)
    fit1 = fit_chain(table1, isolate_first=True, tol=0.0)
    played = replay(fit1, table1)
    for k in range(1, 5):  # rows 2-5
        want = table1.questions[k].probs.probs
        assert np.max(np.abs(played[k].probs - want)) < 1e-6
    assert np.max(np.abs(played[4].probs - [0.45, 0.17, 0.38])) < 1e-6

    table2 = load_survey(T2)
    fit2 = fit_chain(table2, isolate_first=True, tol=0.07)
    assert fit2.projection_distances[1] <= 0.06 + 1e-9
    with capsys.disabled():
        report(7, "Table 1 replay matches rows 2-5 to 1e-6; Table 2 Q3 "
                  f"projection distance {fit2.projection_distances[1]:.4f}")


def test_criterion_8_no_signalling(capsys):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        state = random_entangled_state(rng)
        a = random_local_series(rng, 4)
        b = random_local_series(rng, 4)
        worst = max(worst, no_signalling_check(state, a, b))
    assert worst < 1e-10

    fit1 = fit_chain(load_survey(T1), True, 0.0)
    fit2 = fit_chain(load_survey(T2), True, 0.07)
    series_a = LocalSeries(tuple(enumerate(fit1.frames)))
    series_b = LocalSeries(tuple(enumerate(fit2.frames)))
    state = random_entangled_state(rng)
    dev = no_signalling_check(state, series_a, series_b)
    assert dev < 1e-10
    with capsys.disabled():
        report(8, f"fifth-marginal deviation < 1e-10 (random {worst:.1e}, "
                  f"fitted-series {dev:.1e}); the 0.11 gap needs more than "
                  "local observables")


def test_criterion_9_purity_monotonicity(capsys):
    rng = np.random.default_rng(2)
    for _ in range(1000):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix.from_pure(PureState(psi))
        after = measure_frame(rho, haar_unitary(rng, 3))
        assert after.purity() <= rho.purity() + 1e-12
    with capsys.disabled():
        report(9, "purity never increases over 1,000 random updates")


def test_criterion_10_degenerate_loophole(capsys):
    rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    basis = [np.eye(3, dtype=complex)[:, 0], np.eye(3, dtype=complex)[:, 1]]
    p_yes = degenerate_yes_probability(rho, basis)
    assert abs(p_yes - 0.8) < 1e-12
    assert p_yes > 0.5
    with capsys.disabled():
        report(10, "rank-2 question yields 0.8 > 0.5 on diag(0.5, 0.3, 0.2)")
