"""Command line behavior: artifacts, report fields, exit codes."""

import json
import os

import pytest

from decseq.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")


def spec_path(name):
    return os.path.join(INSTANCES, name + ".json")


def read_report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def test_solve_wald(tmp_path):
    out = str(tmp_path / "w")
    assert main(["solve-wald", "--spec", spec_path("sym02_p1"),
                 "--horizon", "3", "--out", out]) == 0
    rep = read_report(out)
    assert rep["command"] == "solve-wald"
    assert rep["cost_at_prior"] == pytest.approx(0.22, abs=1e-9)
    assert "spec_digest" in rep and "wall_time_s" in rep
    with open(os.path.join(out, "wald_thresholds.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "k,w1,w2"
    assert len(lines) == 5


def test_solve_p1_and_variant_guard(tmp_path):
    out = str(tmp_path / "p1")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"),
                 "--out", out]) == 0
    rep = read_report(out)
    assert rep["cost"] == pytest.approx(0.27, abs=1e-9)
    assert os.path.exists(os.path.join(out, "policies.json"))
    # same command on an interleaved instance is a validation error
    assert main(["solve-p1", "--spec", spec_path("sym02_p2"),
                 "--out", str(tmp_path / "bad")]) == 2


def test_best_response_side_and_pbpo(tmp_path):
    pol_out = str(tmp_path / "sol")
    assert main(["solve-p2", "--spec", spec_path("sym02_p2"),
                 "--out", pol_out]) == 0
    out = str(tmp_path / "br")
    assert main(["best-response", "--spec", spec_path("sym02_p2"),
                 "--policies", os.path.join(pol_out, "policies.json"),
                 "--side", "1", "--out", out]) == 0
    rep = read_report(out)
    assert rep["cost"] == pytest.approx(0.27, abs=1e-9)
    assert rep["side"] == 1
    # neither a policy file nor the alternating mode is a usage error
    assert main(["best-response", "--spec", spec_path("sym02_p2"),
                 "--out", str(tmp_path / "u")]) == 64
    out2 = str(tmp_path / "pbpo")
    assert main(["best-response", "--spec", spec_path("sym02_p2"),
                 "--pbpo", "--out", out2]) == 0
    rep2 = read_report(out2)
    assert rep2["converged"] is True
    trace = rep2["trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_solve_infinite(tmp_path):
    out = str(tmp_path / "inf")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"),
                 "--epsilon", "0.5", "--out", out]) == 0
    rep = read_report(out)
    assert rep["receiver_limit"]["converged"] is True
    assert rep["sender_limit"]["converged"] is True
    assert rep["epsilon_pair"]["achieved"] <= 0.5


def test_simulate_reproducible(tmp_path):
    pol_out = str(tmp_path / "sol")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"),
                 "--out", pol_out]) == 0
    pol = os.path.join(pol_out, "policies.json")
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["simulate", "--spec", spec_path("sym02_p1"),
                     "--policies", pol, "--n", "5000", "--seed", "9",
                     "--out", out]) == 0
        outs.append(out)
    with open(os.path.join(outs[0], "episodes.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(outs[1], "episodes.csv"), "rb") as fh:
        second = fh.read()
    assert first == second
    rep = read_report(outs[0])
    assert rep["abs_diff"] < 4.0 * rep["stderr"] + 1e-12


def test_oracle_check_pass_and_capacity(tmp_path):
    out = str(tmp_path / "oc")
    assert main(["oracle-check", "--spec", spec_path("sym02_p1"),
                 "--out", out]) == 0
    rep = read_report(out)
    assert rep["abs_diff"] <= 1e-9
    big = tmp_path / "big.json"
    with open(spec_path("sym02_p2")) as fh:
        doc = json.load(fh)
    doc["horizons"] = {"T1": 2, "T2": 3}
    big.write_text(json.dumps(doc))
    assert main(["oracle-check", "--spec", str(big),
                 "--out", str(tmp_path / "cap")]) == 4


def test_mary_subcommand(tmp_path):
    out = str(tmp_path / "m")
    assert main(["mary", "--spec", spec_path("mary3_p1"), "--out", out]) == 0
    rep = read_report(out)
    assert rep["m"] == 3
    assert len(rep["terminal_cuts"]) == 2
    # refuses binary instances: nothing multi-symbol to report on
    assert main(["mary", "--spec", spec_path("sym02_p1"),
                 "--out", str(tmp_path / "m2")]) == 2


def test_file_error_codes(tmp_path):
    assert main(["solve-p1", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 5
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-p1", "--spec", str(bad),
                 "--out", str(tmp_path / "y")]) == 5


def test_out_of_range_inputs_are_validation_errors(tmp_path):
    assert main(["best-response", "--spec", spec_path("sym02_p1"), "--pbpo",
                 "--rounds", "0", "--out", str(tmp_path / "r")]) == 2
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"),
                 "--grid", "1", "--out", str(tmp_path / "g")]) == 2
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["costs"]["c1"] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve-p1", "--spec", str(bad),
                 "--out", str(tmp_path / "c")]) == 2


def test_usage_errors():
    assert main(["frobnicate"]) == 64
    assert main(["solve-p1"]) == 64
    assert main([]) == 64


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_simulate_seed_outside_key_range(tmp_path, seed):
    pol_out = str(tmp_path / "sol")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"),
                 "--out", pol_out]) == 0
    assert main(["simulate", "--spec", spec_path("sym02_p1"),
                 "--policies", os.path.join(pol_out, "policies.json"),
                 "--n", "10", "--seed", seed, "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("edit", [
    lambda o2: o2["wald_rules"][0].__setitem__(0, float("nan")),
    lambda o2: o2["wald_rules"][-1].__setitem__(1, float("inf")),
    lambda o2: o2["message_model"][0]["0"].__setitem__(0, float("nan")),
    lambda o2: o2["message_model"][0]["0"].__setitem__(1, 1.5),
])
def test_simulate_rejects_bad_receiver_policy(tmp_path, edit):
    pol_out = str(tmp_path / "sol")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"),
                 "--out", pol_out]) == 0
    with open(os.path.join(pol_out, "policies.json")) as fh:
        doc = json.load(fh)
    edit(doc["o2"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--spec", spec_path("sym02_p1"),
                 "--policies", str(bad), "--n", "100",
                 "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_solve_infinite_rejects_bad_tol(tmp_path, tol):
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"),
                 "--tol", tol, "--out", str(tmp_path / "i")]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_oracle_check_rejects_bad_tol(tmp_path, tol):
    assert main(["oracle-check", "--spec", spec_path("sym02_p1"),
                 "--tol", tol, "--out", str(tmp_path / "o")]) == 2
