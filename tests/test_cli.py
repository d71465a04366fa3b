"""End-to-end CLI runs: reports, file formats, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rmtest import algebra as alg, multtests as mt
from rmtest.algebra import Polynomial
from rmtest.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def hard_poly(tmp_path):
    path = tmp_path / "hard.poly"
    path.write_text(alg.poly_to_text(mt.hard_instance(2, 3, 1)))
    return str(path)


@pytest.fixture()
def cube_poly(tmp_path):
    path = tmp_path / "cube.poly"
    path.write_text(alg.poly_to_text(Polynomial.from_terms(2, 3, {(1, 1, 1): 1})))
    return str(path)


DATA = Path(__file__).parent / "data"

# Sampled reports written by the CLI on fixed polynomial files; a change to a
# trial stream, a sampler or the report layout changes their bytes.
GOLDEN = {
    "test_ek_sampled.json": [
        "test-ek", "--poly", "ek_2_6.poly", "--d", "2", "--e", "1", "--k", "2",
        "--delta", "12", "--trials", "400", "--seed", "11",
    ],
    "corr_h_sampled.json": [
        "corr-h", "--poly", "corr_3_3.poly", "--d", "2", "--e", "1", "--h", "0,1,1",
        "--trials", "400", "--seed", "12",
    ],
    "sz_sampled.json": [
        "sz", "--poly", "sz_2_6.poly", "--q", "2", "--n", "6", "--d", "3", "--e", "1",
        "--s", "1", "--trials", "400", "--seed", "13",
    ],
    "robust_sampled.json": [
        "robust", "--poly", "robust_2_4.poly", "--d", "1", "--e", "1",
        "--trials", "200", "--seed", "14",
    ],
    "akklr_sampled.json": [
        "akklr", "--poly", "akklr_3_3.poly", "--d", "1", "--trials", "300", "--seed", "15",
    ],
}


# Exact reports written the same way; a change to an enumeration oracle's
# value or the report layout changes their bytes.
EXACT_GOLDEN = {
    "akklr_3_3_d0_exact.json": ["akklr", "--poly", "akklr_3_3.poly", "--d", "0", "--exact"],
    "akklr_3_3_d1_exact.json": ["akklr", "--poly", "akklr_3_3.poly", "--d", "1", "--exact"],
    "akklr_2_5_d1_exact.json": ["akklr", "--poly", "akklr_2_5.poly", "--d", "1", "--exact"],
    "akklr_2_5_d2_exact.json": ["akklr", "--poly", "akklr_2_5.poly", "--d", "2", "--exact"],
    "test_ek_exact.json": [
        "test-ek", "--poly", "ek_2_6.poly", "--d", "2", "--e", "1", "--k", "2",
        "--delta", "12", "--exact",
    ],
    "sz_exact.json": [
        "sz", "--poly", "sz_2_6.poly", "--q", "2", "--n", "6", "--d", "3", "--e", "1",
        "--s", "1", "--exact",
    ],
    "robust_2_4_exact.json": [
        "robust", "--poly", "robust_2_4.poly", "--d", "1", "--e", "1", "--exact",
        "--check-reduction", "--dprimes=-1,0,1,2,5",
    ],
}


def assert_matches_golden(name, argv, tmp_path):
    argv = [str(DATA / a) if a.endswith(".poly") else a for a in argv]
    out = tmp_path / name
    assert run_cli(*argv, "--quiet", "--json", str(out)) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sampled_report_matches_golden_file(name, tmp_path):
    assert_matches_golden(name, GOLDEN[name], tmp_path)


@pytest.mark.parametrize("name", sorted(EXACT_GOLDEN))
def test_exact_report_matches_golden_file(name, tmp_path):
    assert_matches_golden(name, EXACT_GOLDEN[name], tmp_path)


def test_akklr_budget_exit(capsys):
    # 155 planes of F_2^5 (the Gaussian binomial [5 choose 3]_2) x 32 offsets
    argv = ["akklr", "--poly", str(DATA / "akklr_2_5.poly"), "--d", "2", "--exact"]
    assert run_cli(*argv, "--quiet", "--budget", "4959") == 3
    assert capsys.readouterr().err == (
        "infeasible: subspace enumeration needs 4960 items, above the budget of 4959\n"
    )
    assert run_cli(*argv, "--quiet", "--budget", "4960") == 0


class TestSZCommand:
    def test_witness_equality_report(self, tmp_path):
        out = tmp_path / "sz.json"
        code = run_cli(
            "sz", "--q", "2", "--n", "2", "--d", "1", "--e", "1", "--s", "1",
            "--exact", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["probability"] == 0.5
        assert rep["bound"] == 0.5
        assert rep["equal"] is True
        assert rep["mode"] == "exact"

    def test_witness_equality_at_n12(self, tmp_path):
        # 2^79 multipliers of degree <= 2: settled by the rank of one map
        out = tmp_path / "sz.json"
        code = run_cli(
            "sz", "--q", "2", "--n", "12", "--d", "4", "--e", "2", "--s", "1",
            "--exact", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["probability_exact"] == f"1/{2**36}"
        assert rep["equal"] is True

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "sz.json"
        code = run_cli(
            "sz", "--q", "2", "--n", "2", "--d", "1", "--e", "1", "--s", "1",
            "--trials", "300", "--seed", "5", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["mode"] == "sampled"
        assert rep["ci_low"] <= 0.5 <= rep["ci_high"]

    def test_vacuous_sampled_query_is_exact(self, tmp_path):
        # d + s = 3 > n(q-1) = 2: every product drops, so no trial is run
        out = tmp_path / "sz.json"
        code = run_cli(
            "sz", "--q", "2", "--n", "2", "--d", "2", "--e", "1", "--s", "1",
            "--trials", "10", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert (rep["mode"], rep["probability"], rep["vacuous"]) == ("exact", 1.0, True)

    def test_custom_polynomial(self, cube_poly, tmp_path):
        out = tmp_path / "sz.json"
        code = run_cli(
            "sz", "--q", "2", "--n", "3", "--d", "3", "--e", "1", "--s", "0",
            "--poly", cube_poly, "--exact", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["witness"] is False
        assert rep["params"]["d"] == 3
        assert rep["probability"] <= rep["bound"]

    def test_poly_params_must_match_q_and_n(self, capsys):
        # corr_3_3.poly is over (q, n) = (3, 3); the report must not claim (2, 6)
        code = run_cli(
            "sz", "--q", "2", "--n", "6", "--d", "1", "--e", "1", "--s", "1", "--exact",
            "--poly", str(DATA / "corr_3_3.poly"), "--quiet",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "q=3 n=3" in err and "--q 2 --n 6" in err

    def test_poly_degree_must_match_d(self, capsys):
        # sz_2_6.poly has degree 3; the report must not run with --d 5 ignored
        code = run_cli(
            "sz", "--q", "2", "--n", "6", "--d", "5", "--e", "1", "--s", "1", "--exact",
            "--poly", str(DATA / "sz_2_6.poly"), "--quiet",
        )
        assert code == 2
        assert "has degree 3, not --d 5" in capsys.readouterr().err

    def test_poly_refuses_ordering(self, capsys):
        # the ordering only shapes the tight witness, which --poly replaces
        code = run_cli(
            "sz", "--q", "2", "--n", "6", "--d", "3", "--e", "1", "--s", "1", "--exact",
            "--poly", str(DATA / "sz_2_6.poly"), "--ordering", "reverse", "--quiet",
        )
        assert code == 2
        assert "--ordering" in capsys.readouterr().err


class TestTestEKCommand:
    def test_hard_instance_floor(self, hard_poly, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(
            "test-ek", "--poly", hard_poly, "--d", "2", "--e", "1", "--k", "1",
            "--exact", "--expect-min", "0.25", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["p_hat"] >= 0.25
        assert rep["test_vacuous"] is True

    def test_nonvacuous_variant(self, hard_poly, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(
            "test-ek", "--poly", hard_poly, "--d", "1", "--e", "1", "--k", "1",
            "--exact", "--expect-min", "0.25", "--quiet", "--json", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["p_hat"] == 0.5
        assert rep["p_exact"] == "1/2"
        assert rep["delta"] == 2
        assert rep["premise_vacuous"] is True
        assert rep["test_vacuous"] is False

    def test_relation_failure_exit_code(self, hard_poly):
        code = run_cli(
            "test-ek", "--poly", hard_poly, "--d", "1", "--e", "1", "--k", "1",
            "--exact", "--expect-min", "0.9", "--quiet",
        )
        assert code == 1

    def test_expect_max_failure_exit_code(self, hard_poly, tmp_path):
        out = tmp_path / "t.json"
        code = run_cli(
            "test-ek", "--poly", hard_poly, "--d", "1", "--e", "1", "--k", "1",
            "--exact", "--expect-max", "0.4", "--quiet", "--json", str(out),
        )
        assert code == 1
        assert json.loads(out.read_text())["relation_held"] is False

    def test_csv_report(self, hard_poly, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(
            "test-ek", "--poly", hard_poly, "--d", "1", "--e", "1", "--k", "1",
            "--exact", "--quiet", "--csv", str(out),
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("command,q,n,d,e,k,mode")
        assert lines[1].startswith("test-ek,2,3,1,1,1,exact")


class TestOtherCommands:
    def test_distance(self, hard_poly, tmp_path):
        out = tmp_path / "d.json"
        assert run_cli("distance", "--poly", hard_poly, "--d", "1", "--quiet",
                       "--json", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["distance"] == 2
        assert rep["enumerated"] == 16

    def test_distance_budget_exit(self, hard_poly):
        assert run_cli("distance", "--poly", hard_poly, "--d", "1", "--quiet",
                       "--budget", "4") == 3

    def test_corr_h(self, hard_poly, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("corr-h", "--poly", hard_poly, "--d", "1", "--e", "1",
                       "--h", "0,1", "--exact", "--quiet", "--json", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["p_exact"] == "1/2"

    def test_corr_h_expect_max_failure(self, hard_poly, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("corr-h", "--poly", hard_poly, "--d", "1", "--e", "1",
                       "--h", "0,1", "--exact", "--expect-max", "0.25",
                       "--quiet", "--json", str(out)) == 1
        assert json.loads(out.read_text())["relation_held"] is False

    def test_robust_with_reduction(self, cube_poly, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("robust", "--poly", cube_poly, "--d", "0", "--e", "1",
                       "--exact", "--dprimes", "1,2", "--check-reduction",
                       "--quiet", "--json", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["relation_held"] is True
        assert set(rep["reduction"]) == {"1", "2"}

    def test_check_reduction_needs_exact(self, cube_poly, capsys):
        code = run_cli("robust", "--poly", cube_poly, "--d", "0", "--e", "1",
                       "--trials", "50", "--check-reduction", "--quiet")
        assert code == 2
        assert "--check-reduction needs --exact" in capsys.readouterr().err

    def test_check_reduction_runs_one_experiment(self, cube_poly, tmp_path, monkeypatch):
        calls = []
        experiment = mt.robust_distance_experiment

        def counted(*args, **kwargs):
            calls.append(args)
            return experiment(*args, **kwargs)

        monkeypatch.setattr(mt, "robust_distance_experiment", counted)
        out = tmp_path / "r.csv"
        assert run_cli("robust", "--poly", cube_poly, "--d", "0", "--e", "1",
                       "--exact", "--dprimes", "0,1", "--check-reduction",
                       "--quiet", "--csv", str(out)) == 0
        assert len(calls) == 1
        assert out.read_text().splitlines() == [
            "dprime,fraction_below,fraction_at_most", "0,0.0,0.5", "1,0.5,1.0",
        ]

    def test_akklr(self, cube_poly, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli("akklr", "--poly", cube_poly, "--d", "1", "--exact",
                       "--quiet", "--json", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["rejection_probability"] == 0.5

    def test_setmultilin(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("setmultilin", "--q", "2", "--blocks", "2,2", "--m", "2",
                       "--count", "2", "--seed", "3", "--quiet",
                       "--json", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["relation_held"] is True
        assert len(rep["systems"]) == 2

    def test_combin_csv(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("combin", "--q", "3", "--n", "2", "--quiet",
                       "--csv", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,q,n,d,s,monomial,count"
        assert "N,3,2,2,,,6" in lines

    def test_basis_dump(self, tmp_path, capsys):
        path = tmp_path / "f.poly"
        path.write_text("q=3 n=1: 1*X1^2")
        assert run_cli("basis-dump", "--poly", str(path)) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["(1) -> 1", "(2) -> 1"]


INVALID_INPUTS = {
    "zero_poly": ["sz", "--poly", "ZERO", "--q", "2", "--n", "6", "--d", "3", "--e", "1",
                  "--s", "1", "--exact"],
    "distance_order": ["distance", "--poly", str(DATA / "sz_2_6.poly"), "--d", "99"],
    "negative_e": ["test-ek", "--poly", str(DATA / "ek_2_6.poly"), "--d", "2", "--e", "-1"],
    "composite_q": ["setmultilin", "--q", "4", "--blocks", "1,1"],
    "zero_trials": ["test-ek", "--poly", str(DATA / "ek_2_6.poly"), "--d", "2", "--e", "1",
                    "--trials", "0"],
}


@pytest.mark.parametrize("name", sorted(INVALID_INPUTS))
def test_invalid_input_is_a_usage_error(name, tmp_path, capsys):
    zero = tmp_path / "zero.poly"
    zero.write_text("q=2 n=6: 0")
    argv = [str(zero) if a == "ZERO" else a for a in INVALID_INPUTS[name]]
    assert run_cli(*argv, "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("rmtest: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["combin", "--q", "2", "--n", "2", "--json"],
        ["basis-dump", "--poly", str(DATA / "corr_3_3.poly"), "--csv"],
        ["suite", "--csv"],
    ],
    ids=["combin-json", "basis-dump-csv", "suite-csv"],
)
def test_output_flag_that_writes_nothing_is_refused(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, str(out))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sz.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rmtest.cli", "sz", "--q", "2", "--n", "2",
             "--d", "1", "--e", "1", "--s", "1", "--exact", "--quiet",
             "--json", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["equal"] is True

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rmtest.cli", "sz", "--q", "2"],
            capture_output=True,
        )
        assert proc.returncode == 2
