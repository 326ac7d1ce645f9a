"""Command line behavior: artifacts, report fields, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decseq import (CertificationError, ProblemSpecError, cli, epsilon_optimal_pair,
                    load_problem_spec, pair_from_dict, pair_to_dict, seq_decomp, simulate,
                    solve_p1, solve_p2, solve_wald_finite, value_iterate_o1, wald)
from decseq.cli import _write_episodes_csv, main
from decseq.simulate import Episodes

from conftest import make_spec

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, os.pardir, "instances")


def spec_path(name):
    return os.path.join(INSTANCES, name + ".json")


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def read_report(out):
    # strict JSON: NaN, Infinity and -Infinity are refused
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh, parse_constant=_not_json)


def test_solve_wald(tmp_path, sym02_p1):
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
    # row k holds the exact crossings after k observations, 3 - k left
    crossings = solve_wald_finite(sym02_p1.channel2, sym02_p1.costs, 3).crossings[::-1]
    assert lines[1:] == [f"{k},{w1!r},{w2!r}" for k, (w1, w2) in enumerate(crossings)]
    assert rep["thresholds"] == [list(pair) for pair in crossings]


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


def sym02_p1_pair(tmp_path):
    """``solve-p1`` on sym02_p1: its report and its policies.json path."""
    out = str(tmp_path / "sol")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"), "--out", out]) == 0
    return read_report(out), os.path.join(out, "policies.json")


def test_best_response_side_2_on_the_designer_pair(tmp_path):
    # the designer's receiver is its sender's best response: the same cost
    solved, pol = sym02_p1_pair(tmp_path)
    out = str(tmp_path / "br")
    assert main(["best-response", "--spec", spec_path("sym02_p1"), "--policies", pol,
                 "--side", "2", "--out", out]) == 0
    rep = read_report(out)
    assert rep["side"] == 2
    assert rep["cost"] == pytest.approx(solved["cost"], abs=1e-12)
    assert rep["cost"] == pytest.approx(0.27, abs=1e-9)


def test_solve_infinite_with_policies_anchors_or_skips_the_sender_limit(tmp_path):
    _, pol = sym02_p1_pair(tmp_path)
    out = str(tmp_path / "inf")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--policies", pol,
                 "--out", out]) == 0
    limit = read_report(out)["sender_limit"]
    assert limit["anchor"] and limit["converged"] is True
    # an informative blank factor leaves no stationary anchor
    with open(pol) as fh:
        doc = json.load(fh)
    doc["o2"]["message_model"][0]["b"] = [0.2, 0.1]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    out = str(tmp_path / "skip")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--policies",
                 str(edited), "--out", out]) == 0
    assert "skipped" in read_report(out)["sender_limit"]


def test_unconfirmed_designer_total_is_a_certification_error(tmp_path, monkeypatch):
    exact_cost = cli.exact_cost

    def off(pair, problem):
        return SimpleNamespace(total=exact_cost(pair, problem).total + 1e-3)

    monkeypatch.setattr(cli, "exact_cost", off)
    out = str(tmp_path / "p1")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"), "--out", out]) == 3
    assert "error" in read_report(out)


def test_oracle_disagreement_is_a_certification_error(tmp_path, monkeypatch):
    enumerate_policies_p1 = cli.enumerate_policies_p1

    def off(problem, cap):
        res = enumerate_policies_p1(problem, cap=cap)
        return dataclasses.replace(res, cost=res.cost + 1e-6)

    monkeypatch.setattr(cli, "enumerate_policies_p1", off)
    out = str(tmp_path / "oc")
    assert main(["oracle-check", "--spec", spec_path("sym02_p1"), "--out", out]) == 3
    assert "error" in read_report(out)


def test_solve_infinite(tmp_path):
    out = str(tmp_path / "inf")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"),
                 "--epsilon", "0.5", "--out", out]) == 0
    rep = read_report(out)
    assert rep["receiver_limit"]["converged"] is True
    assert rep["sender_limit"]["converged"] is True
    assert rep["epsilon_pair"]["achieved"] <= 0.5


@pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan"])
def test_solve_infinite_refuses_a_non_finite_epsilon(tmp_path, capsys, epsilon):
    # an infinite epsilon would reach report.json as Infinity, which is not
    # JSON; it is refused with exit 2, as NaN is, and no report is written
    out = str(tmp_path / "inf")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--grid", "11",
                 f"--epsilon={epsilon}", "--out", out]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
    with pytest.raises(ProblemSpecError):
        epsilon_optimal_pair(load_problem_spec(open(spec_path("sym02_p1")).read()),
                             float(epsilon))


def test_solve_infinite_with_an_unused_symbol(tmp_path):
    # the designer's pair never sends symbol 2, and its receiver would read
    # it as no message: the sender limit offers only the symbols the
    # receiver's model gives a likelihood, so 2 is not sent between 1 and 0
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["M"] = 3
    spec = tmp_path / "m3.json"
    spec.write_text(json.dumps(doc))
    assert main(["solve-infinite", "--spec", str(spec), "--out", str(tmp_path / "inf")]) == 0
    # symbol 0 is sent above 0.5145 and symbol 2, the lowest interval of the
    # four-threshold view, never: its empty region reads (0, 0)
    limit = read_report(str(tmp_path / "inf"))["sender_limit"]
    assert limit["four_thresholds"] == [0.0, 0.0, 0.5145, 1.0]


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
                 "--out", str(tmp_path / "big")]) == 0
    assert read_report(str(tmp_path / "big"))["abs_diff"] <= 1e-9
    assert main(["oracle-check", "--spec", str(big), "--cap", "1000",
                 "--out", str(tmp_path / "cap")]) == 4


def test_oracle_check_through_a_still_blank_stage(tmp_path):
    # T1 = T2 = 3, and observer 2 never sees symbol 1 under H=0:
    # about 1.1e5 units of work, though it covers 4.5e13 policy pairs
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(make_spec(t1=3, t2=3, ch2=[[1.0, 0.0], [0.3, 0.7]],
                                         c1=0.05, c2=0.02, variant="P2")))
    out = str(tmp_path / "oc")
    assert main(["oracle-check", "--spec", str(spec), "--out", out]) == 0
    rep = read_report(out)
    assert rep["abs_diff"] <= 1e-9
    assert rep["pairs_covered"] == 44_729_427_396_712


@pytest.mark.parametrize("t1, t2", [pytest.param(1, 10, id="10"), pytest.param(1, 40, id="40"),
                                    pytest.param(8, 8, id="8-8")])
def test_oracle_check_refuses_long_p1_specs_at_once(tmp_path, capsys, t1, t2):
    # a stopping-rule count past float range used to end in an OverflowError
    # traceback, and counting them at T2 = 40 did not finish; at T1 = T2 = 8
    # the designer's solve (seconds) used to run before the oracle refused
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["horizons"] = {"T1": t1, "T2": t2}
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["oracle-check", "--spec", str(spec), "--out", str(tmp_path / "oc")]) == 4
    assert time.perf_counter() - start < 1.0
    assert "oracle work bound" in capsys.readouterr().err


def test_oracle_check_writes_a_count_past_str_range(tmp_path):
    # 4 sender maps; the receiver's tree at T2 = 14 covers more than 2**43000
    # policy pairs, past the 4300 digits json can write
    with open(spec_path("sym02_p2")) as fh:
        doc = json.load(fh)
    doc["horizons"] = {"T1": 1, "T2": 14}
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps(doc))
    out = str(tmp_path / "oc")
    assert main(["oracle-check", "--spec", str(spec), "--out", out]) == 0
    rep = read_report(out)
    assert rep["abs_diff"] <= 1e-9
    assert rep["pairs_covered"] == "2**43000 or more"


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
    # a negative oracle cap is a malformed option; a cap of 0 is exceeded
    assert main(["oracle-check", "--spec", spec_path("sym02_p1"),
                 "--cap", "-5", "--out", str(tmp_path / "o")]) == 2
    assert main(["oracle-check", "--spec", spec_path("sym02_p1"),
                 "--cap", "0", "--out", str(tmp_path / "z")]) == 4
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["costs"]["c1"] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve-p1", "--spec", str(bad),
                 "--out", str(tmp_path / "c")]) == 2


def test_impossible_observation_after_float_certainty_is_a_validation_error(tmp_path):
    # observer 1's belief rounds to 1.0 while H=1 keeps a 1e-12 share of
    # symbol 0, so symbol 2 keeps mass at a belief where it has probability 0
    spec = tmp_path / "certain.json"
    spec.write_text(json.dumps(make_spec(
        ch1=[[0.5, 0.5, 0.0], [1e-12, 0.5, 0.5 - 1e-12]], t1=3, t2=3, variant="P2")))
    for command in ("solve-p2", "solve-infinite"):
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / command)]) == 2
    # oracle-check refuses this spec (exit 4) before the designer runs; on
    # two symbols the oracle admits the same shape (symbol 1 has probability
    # 0 at belief 1.0), and the designer's error then exits 2
    assert main(["oracle-check", "--spec", str(spec), "--out", str(tmp_path / "oc")]) == 4
    binary = tmp_path / "binary.json"
    binary.write_text(json.dumps(make_spec(
        ch1=[[1.0, 0.0], [1e-12, 1.0 - 1e-12]], t1=3, t2=3, variant="P2")))
    assert main(["oracle-check", "--spec", str(binary), "--out", str(tmp_path / "ob")]) == 2
    doc = json.loads(spec.read_text())
    doc["variant"] = "P1"
    spec.write_text(json.dumps(doc))
    assert main(["solve-p1", "--spec", str(spec), "--out", str(tmp_path / "p1")]) == 2


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


def test_solve_infinite_epsilon_on_interleaved_instance(tmp_path):
    # the tau1 tail at t = 1 is a float sum of a certain event; it must not
    # round past 1 and trip the truncation bound's range check
    out = str(tmp_path / "inf")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p2"),
                 "--epsilon", "0.5", "--out", out]) == 0
    rep = read_report(out)
    assert rep["epsilon_pair"]["achieved"] <= 0.5
    assert all(0.0 <= c["tail_prob"] <= 1.0
               for c in rep["epsilon_pair"]["certificates"])


def test_simulate_report_profile(tmp_path):
    pol_out = str(tmp_path / "sol")
    assert main(["solve-p1", "--spec", spec_path("sym02_p1"),
                 "--out", pol_out]) == 0
    out = str(tmp_path / "s")
    assert main(["simulate", "--spec", spec_path("sym02_p1"),
                 "--policies", os.path.join(pol_out, "policies.json"),
                 "--n", "100", "--out", out]) == 0
    profile = read_report(out)["profile"]
    assert sorted(profile) == ["exact_s", "max_states", "philox_blocks", "sample_s", "write_s"]
    assert all(v >= 0.0 for v in profile.values())
    # a P1 episode draws 1 + tau1 + tau2 uniforms, four per Philox block
    with open(os.path.join(out, "episodes.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert profile["philox_blocks"] == sum((1 + int(r[2]) + int(r[3]) + 3) // 4 for r in rows)
    assert isinstance(profile["max_states"], int) and 1 <= profile["max_states"] <= 2 * 100


# decseq simulate --n 5000 on four designer pairs, by seed: the sha256 of
# episodes.csv and mean_cost.hex(), both written before the sampler walked
# integer states over per-stage belief tables.  The ternary time-varying
# pairs are P1 at T1 = T2 = 3 and P2 at T1 = T2 = 2 (a P2 solve at 3 takes
# 0.6 s)
_TERNARY_TV = dict(make_spec(prior=0.45, c1=0.01, c2=0.03, t1=3, t2=3,
                             ch2=[[0.8, 0.2], [0.25, 0.75]]),
                   channels=[{"observer": 1, "tables": [[[0.6, 0.3, 0.1], [0.15, 0.35, 0.5]],
                                                        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
                                                        [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]]},
                             {"observer": 2, "tables": [[[0.8, 0.2], [0.25, 0.75]]]}])
_PINNED = {
    ("sym02_p1", 0): ("ab2f4b892d6dc7a72a2dff7435963b80987921dd520fd24c7964daaf5a9108e2",
                      "0x1.121ab4b72c519p-2"),
    ("sym02_p1", 2 ** 64 - 1): ("64cfd9ce7fbc79dbc66acc8e2e1ed52aee056744408d6e971de20b9ee7489a77",
                                "0x1.14c1a8ac5c13fp-2"),
    ("sym02_p2", 0): ("ab2f4b892d6dc7a72a2dff7435963b80987921dd520fd24c7964daaf5a9108e2",
                      "0x1.121ab4b72c519p-2"),
    ("sym02_p2", 2 ** 64 - 1): ("64cfd9ce7fbc79dbc66acc8e2e1ed52aee056744408d6e971de20b9ee7489a77",
                                "0x1.14c1a8ac5c13fp-2"),
    ("ternary_tv_p1", 0): ("5e6c789b42be536baf93d8868a4fe6aaef68324526b559d268c6035535ba3aaf",
                           "0x1.3bacb4289118cp-3"),
    ("ternary_tv_p1", 2 ** 64 - 1): (
        "16ade0c5b890b9ee991af0cb8162f7cc204e896ab8e50db3134edacd80d358c8",
        "0x1.2bae03b3e9a70p-3"),
    ("ternary_tv_p2", 0): ("4c44b75f43c204f0d0d04270c3c99fd5a46c931810b8e924d51d08b090532cc8",
                           "0x1.889b0ee49f517p-3"),
    ("ternary_tv_p2", 2 ** 64 - 1): (
        "0880fd76b02dfefb955a188397dbad2f34a212a60b7b9407f12dac5ac1c5e9d4",
        "0x1.9170d62bf11fap-3"),
}


@pytest.mark.parametrize("name", ["sym02_p1", "sym02_p2", "ternary_tv_p1", "ternary_tv_p2"])
def test_simulate_output_is_pinned(tmp_path, name):
    if name.startswith("ternary"):
        spec = str(tmp_path / "spec.json")
        p2 = name.endswith("p2")
        with open(spec, "w") as fh:
            json.dump(dict(_TERNARY_TV, variant="P2", horizons={"T1": 2, "T2": 2}) if p2
                      else _TERNARY_TV, fh)
    else:
        spec = spec_path(name)
    pol = str(tmp_path / "pair")
    assert main([f"solve-{name[-2:]}", "--spec", spec, "--out", pol]) == 0
    for seed in (0, 2 ** 64 - 1):
        out = str(tmp_path / str(seed))
        assert main(["simulate", "--spec", spec, "--policies", os.path.join(pol, "policies.json"),
                     "--n", "5000", "--seed", str(seed), "--out", out]) == 0
        with open(os.path.join(out, "episodes.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert (digest, read_report(out)["mean_cost"].hex()) == _PINNED[name, seed]


def test_one_parser_serves_every_call_with_its_own_config(tmp_path):
    # the parser is built once per process; a usage error, then two other
    # commands, each report holding only its own command's options
    assert cli._build_parser() is cli._build_parser()
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", "--spec", spec_path("sym02_p1"), "--n", "x"]) == 64
    wald = str(tmp_path / "w")
    assert main(["solve-wald", "--spec", spec_path("sym02_p1"), "--horizon", "2",
                 "--out", wald]) == 0
    _, pol = sym02_p1_pair(tmp_path)
    sim = str(tmp_path / "s")
    assert main(["simulate", "--spec", spec_path("sym02_p1"), "--policies", pol,
                 "--n", "10", "--out", sim]) == 0
    assert read_report(wald)["config"] == {"command": "solve-wald", "horizon": 2,
                                           "out": wald, "spec": spec_path("sym02_p1")}
    assert read_report(sim)["config"] == {"command": "simulate", "n": 10, "out": sim,
                                          "policies": pol, "seed": 0,
                                          "spec": spec_path("sym02_p1")}


@pytest.mark.parametrize("command, name", [("solve-p1", "sym02_p1"),
                                           ("solve-p2", "sym02_p2"),
                                           ("mary", "mary3_p1")])
def test_designer_report_profile_and_search_stats(tmp_path, command, name):
    out = str(tmp_path / "d")
    assert main([command, "--spec", spec_path(name), "--out", out]) == 0
    rep = read_report(out)
    profile = rep["profile"]
    assert sorted(profile) == ["build_s", "check_s", "enumerate_s", "extract_s", "key_s",
                               "priced_runs", "priced_terms", "search_s", "stages", "value_s"]
    stages = profile.pop("stages")
    assert all(v >= 0.0 for v in profile.values())
    # the search's seconds stage by stage: every stage's keying and
    # valuation add up to the search's
    assert [s["t"] for s in stages] == list(range(1, len(rep["stage_stats"]) + 1))
    assert all(sorted(s) == ["batches", "build_s", "key_s", "t", "valuations", "value_s"]
               for s in stages)
    assert all(s[k] >= 0.0 for s in stages for k in ("build_s", "key_s", "value_s"))
    # every stage is looked up in one batch or more and valued at least once
    assert all(s["batches"] >= 1 and s["valuations"] >= 1 for s in stages)
    # the last stage values each of its lookup batches as it lands
    assert stages[-1]["valuations"] == stages[-1]["batches"]
    for k in ("key_s", "value_s"):
        assert sum(s[k] for s in stages) == pytest.approx(profile[k], rel=1e-9, abs=1e-12)
    assert sum(s["build_s"] for s in stages) <= profile["build_s"] * (1 + 1e-9)
    # the valuation's work: P1 prices runs from prefix sums, with no
    # fresh-observation terms
    assert profile["priced_runs"] >= rep.get("nodes", 1)
    assert (profile["priced_terms"] > 0) == (command == "solve-p2")
    # the search is its enumeration (child building and keying) plus its
    # valuation
    assert profile["search_s"] == profile["enumerate_s"] + profile["value_s"]
    assert profile["enumerate_s"] == profile["build_s"] + profile["key_s"]
    assert profile["search_s"] + profile["extract_s"] + profile["check_s"] <= rep["wall_time_s"]
    if command != "mary":
        assert rep["nodes"] > 0 and rep["memo_hits"] >= 0


@pytest.mark.parametrize("command, name", [("solve-p1", "sym02_p1"), ("solve-p2", "sym02_p2"),
                                           ("mary", "mary3_p1")])
def test_designer_report_stage_stats(tmp_path, command, name):
    out = str(tmp_path / "d")
    assert main([command, "--spec", spec_path(name), "--out", out]) == 0
    stats = read_report(out)["stage_stats"]
    assert [s["t"] for s in stats] == list(range(1, len(stats) + 1))
    assert all(s["lookups"] == s["nodes"] + s["memo_hits"] for s in stats)
    assert stats[0]["nodes"] == stats[0]["lookups"] == 1
    if command != "mary":
        rep = read_report(out)
        assert sum(s["nodes"] for s in stats) == rep["nodes"]
        assert sum(s["memo_hits"] for s in stats) == rep["memo_hits"]


def test_designer_node_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 2)
    assert main(["solve-p2", "--spec", spec_path("sym02_p2"),
                 "--out", str(tmp_path / "cap")]) == 4


def test_epsilon_pair_node_cap_is_a_certification_error(tmp_path, monkeypatch, capsys):
    # horizons 1 and 2 solve (the spec's own T = 2 takes 4 nodes), horizon 3
    # would need 13: the run ends as an uncertified epsilon, not a cap error
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 4)
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--grid", "11",
                 "--epsilon", "0.05", "--max-horizon", "4",
                 "--out", str(tmp_path / "eps")]) == 3
    assert "designer search nodes 5 exceeds cap 4" in capsys.readouterr().err


def test_epsilon_pair_certification_error_writes_the_best_pair(tmp_path, monkeypatch):
    # horizons 1 and 2 certify no epsilon of 0.32 and horizon 3 stops at the
    # node cap: exit 3, with the best pair, its certificates and the error
    # written out
    monkeypatch.setattr(seq_decomp, "DESIGNER_NODE_CAP", 4)
    problem = load_problem_spec(json.loads(open(spec_path("sym02_p1")).read()))
    with pytest.raises(CertificationError) as exc:
        epsilon_optimal_pair(problem, 0.32)
    best = exc.value.best
    out = str(tmp_path / "eps")
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--grid", "11",
                 "--epsilon", "0.32", "--out", out]) == 3
    rep = read_report(out)
    assert rep["error"] == str(exc.value)
    assert "designer search nodes 5 exceeds cap 4" in rep["error"]
    assert rep["epsilon_pair"]["horizon"] == best.horizon == 2
    assert rep["epsilon_pair"]["achieved"] == best.epsilon > 0.32
    assert rep["epsilon_pair"]["cost"] == best.cost
    assert rep["epsilon_pair"]["certificates"] == [c.to_dict() for c in best.certificates]
    with open(os.path.join(out, "policies.json")) as fh:
        assert json.load(fh) == json.loads(json.dumps(pair_to_dict(best.o1, best.o2)))


def test_epsilon_pair_certification_error_without_a_pair(tmp_path, monkeypatch, capsys):
    # an error raised inside a solve carries no best pair: exit 3 and no
    # report, as for any certification error
    def fail(*args, **kwargs):
        raise CertificationError("x")

    monkeypatch.setattr(cli, "epsilon_optimal_pair", fail)
    out = tmp_path / "eps"
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"), "--grid", "11",
                 "--epsilon", "0.32", "--out", str(out)]) == 3
    assert "certification error: x" in capsys.readouterr().err
    assert not (out / "report.json").exists() and not (out / "policies.json").exists()


def _reference_episodes_csv(path, episodes):
    """The generic column writer episodes.csv was written with before the
    grouped-row writer: a range, then lists of ints (each distinct value
    formatted once) and a list of floats written by repr."""
    columns = [range(len(episodes))] + [col.tolist() for col in (
        episodes.h, episodes.tau1, episodes.tau2, episodes.message,
        episodes.decision, episodes.cost)]
    cells = []
    for col in columns:
        if isinstance(col, range):
            cells.append(map(str, col))
        elif col and isinstance(col[0], float):
            cells.append(map(repr, col))
        else:
            text = {v: str(v) for v in set(col)}
            cells.append(map(text.__getitem__, col))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("episode,h,tau1,tau2,message,decision,cost\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _columns(h, tau1, tau2, message, decision, cost):
    return Episodes(*(np.array(c, dtype=np.int64)
                      for c in (h, tau1, tau2, message, decision)),
                    cost=np.array(cost, dtype=np.float64))


_INTS = st.integers(-3, 40) | st.integers(-2 ** 63, 2 ** 63 - 1)
_COSTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 1e-300, 5e-324, 1.5e16, -2.5e-7, 0.1 + 0.2, 1e22])


@st.composite
def _episodes(draw):
    """Random Episodes whose columns repeat values from small palettes, so
    rows share ints, costs, or ints with different costs."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = []
    for values in [_INTS] * 5 + [_COSTS]:
        palette = draw(st.lists(values, min_size=1, max_size=6))
        cols.append([palette[i] for i in rng.integers(len(palette), size=n)])
    return _columns(*cols)


_WIDE = [0 if i == 512 else i for i in range(2048)]


@given(_episodes())
# same ints, costs that differ, including in sign only
@example(_columns([0] * 4, [1] * 4, [2] * 4, [0] * 4, [1] * 4,
                  [0.0, 0.5, -0.0, 0.5]))
# one row at the int64 extremes, with a subnormal cost
@example(_columns([-2 ** 63], [2 ** 63 - 1], [0], [7], [-1], [1e-310]))
# columns spanning all of int64; costs that repr in exponent form
@example(_columns([-2 ** 63, 2 ** 63 - 1] * 3, [0, 1, 2] * 2, [5] * 6,
                  [2 ** 62, -2 ** 62] * 3, [1] * 6,
                  [1e300, -1e-300, 1e300, 3.0, 3.0, 2.5e-8]))
# six columns 2**11 wide (the costs are subnormals with consecutive bit
# patterns): packed without re-ranking, rows 0 and 512 collide mod 2**64
@example(_columns(range(2048), *[_WIDE] * 4,
                  np.array(_WIDE, dtype=np.int64).view(np.float64)))
# 10, 100, 10,000 and 10,001 rows: indices up to one, two and four digits,
# then one of five
@example(_columns(*([0, 1] * 5 for _ in range(5)), [0.5, 0.25] * 5))
@example(_columns(*([0, 3, 1, 2] * 25 for _ in range(5)), [0.5, 0.0, -1.0, 1e-5] * 25))
@example(_columns(*([0, 1] * 5000 for _ in range(5)), [0.5, 0.25] * 5000))
@example(_columns(*([0, 1] * 5000 + [7] for _ in range(5)), [0.5, 0.25] * 5000 + [2.0]))
# rows across the writer's block boundaries
@example(_columns(*([0, 1, 1] * 2731 for _ in range(5)),
                  [0.5, 0.25, 1e-5] * 2731))
@settings(max_examples=200, deadline=None)
def test_episodes_writer_matches_column_writer(tmp_path_factory, episodes):
    out = tmp_path_factory.mktemp("csv")
    _reference_episodes_csv(out / "want.csv", episodes)
    path = _write_episodes_csv(str(out), episodes)
    with open(path, "rb") as fh:
        got = fh.read()
    assert got == (out / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# every malformed input ends in a documented exit code, never a traceback

FAILURE_CODES = {2, 3, 4, 5, 64}
_TINY_SPEC = make_spec(t1=1, t2=1)


def _paths(node, prefix=()):
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


# "M" is the one optional key: dropping it leaves a valid spec
_SPEC_PATHS = [p for p in _paths(_TINY_SPEC) if p != ("M",)]
_BAD_VALUES = st.sampled_from(["x", None, [], {}, True, False, float("nan"),
                               float("inf"), -float("inf"), -1, -0.5, 10 ** 400])
# one tiny request per command that reads a spec
_SPEC_COMMANDS = st.sampled_from([
    ["solve-p1"], ["solve-p2"], ["mary"], ["oracle-check"],
    ["solve-wald", "--horizon", "1"], ["solve-infinite", "--grid", "11"],
    ["best-response", "--pbpo", "--rounds", "1"]])
# bad options on a valid spec; None stands for the spec path
_BAD_ARGV = st.sampled_from([
    [], ["frobnicate"], ["solve-p1"], ["solve-p1", "--spec", None, "--bogus"],
    ["solve-p2", "--spec", None],                       # P1 instance
    ["mary", "--spec", None],                           # binary instance
    ["solve-wald", "--spec", None, "--horizon", "-1"],
    ["solve-wald", "--spec", None, "--horizon", "x"],
    ["solve-infinite", "--spec", None, "--grid", "2"],
    ["solve-infinite", "--spec", None, "--grid", "1.5"],
    ["solve-infinite", "--spec", None, "--grid", "11", "--tol", "nan"],
    ["solve-infinite", "--spec", None, "--grid", "11", "--tol", "-1"],
    ["solve-infinite", "--spec", None, "--grid", "11", "--epsilon", "nan"],
    ["solve-infinite", "--spec", None, "--grid", "11", "--epsilon", "-0.5"],
    ["solve-infinite", "--spec", None, "--grid", "11", "--epsilon", "0.5",
     "--max-horizon", "0"],
    ["oracle-check", "--spec", None, "--tol", "inf"],
    ["oracle-check", "--spec", None, "--cap", "0"],
    ["oracle-check", "--spec", None, "--cap", "-5"],
    ["best-response", "--spec", None],
    ["best-response", "--spec", None, "--side", "3"],
    ["best-response", "--spec", None, "--pbpo", "--rounds", "0"],
    ["best-response", "--spec", None, "--policies", "missing.json", "--side", "1"],
    ["simulate", "--spec", None, "--policies", "missing.json"],
    ["simulate", "--spec", None, "--policies", None, "--n", "x"],
    ["simulate", "--spec", None, "--policies", "pair.json", "--n", "1000000000000000"]])
# "pair.json" stands for the designer pair of _TINY_SPEC
_TINY_SOL = solve_p1(load_problem_spec(_TINY_SPEC))
_TINY_PAIR = pair_to_dict(_TINY_SOL.o1, _TINY_SOL.o2)


_DELETE = object()


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    if value is _DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@st.composite
def _bad_requests(draw):
    """(argv with None for the spec path, the spec file's bytes or None
    for no file)."""
    valid = json.dumps(_TINY_SPEC)
    kind = draw(st.sampled_from(["value", "delete", "text", "missing", "argv"]))
    if kind == "argv":
        return draw(_BAD_ARGV), valid.encode()
    argv = draw(_SPEC_COMMANDS) + ["--spec", None]
    if kind == "missing":
        return argv, None
    if kind == "text":
        text = draw(st.sampled_from([
            valid[:draw(st.integers(0, len(valid) - 1))],   # cut short
            "[]", "3", '"spec"', "null",                     # not an object
            valid.replace("0.5", "1" * 5000, 1)]))           # over-long int
        return argv, draw(st.sampled_from([text.encode(), b"\xff" + text.encode()]))
    doc = json.loads(valid)
    _set(doc, draw(st.sampled_from(_SPEC_PATHS)),
         _DELETE if kind == "delete" else draw(_BAD_VALUES))
    return argv, json.dumps(doc).encode()


@given(_bad_requests())
# a top level that is not an object, including a string the loader would
# read as JSON text; bytes that are not UTF-8; an integer too long to parse
@example((["solve-p1", "--spec", None], b"[]"))
@example((["solve-p1", "--spec", None], b'"spec"'))
@example((["solve-p1", "--spec", None], b"\xff{}"))
@example((["solve-p1", "--spec", None], b'{"prior": ' + b"1" * 5000 + b"}"))
# past the episode cap with a pair that fits
@example((["simulate", "--spec", None, "--policies", "pair.json", "--n", "1000000000000000"],
          json.dumps(_TINY_SPEC).encode()))
@settings(max_examples=150, deadline=None)
def test_bad_inputs_end_in_a_documented_exit_code(tmp_path_factory, request_):
    argv, spec_bytes = request_
    work = tmp_path_factory.mktemp("bad")
    spec = work / "spec.json"
    if spec_bytes is not None:
        spec.write_bytes(spec_bytes)
    argv = [str(spec) if a is None else a for a in argv]
    argv = [str(work / a) if a in ("missing.json", "pair.json") else a for a in argv]
    if str(work / "pair.json") in argv:
        (work / "pair.json").write_text(json.dumps(_TINY_PAIR))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(work / "out")] if argv else argv)
    assert code in FAILURE_CODES, (argv, spec_bytes, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# a policy file must fit the problem it is run on


def _problem(name):
    with open(spec_path(name)) as fh:
        return load_problem_spec(json.load(fh))


def _designer_pair_doc(name):
    """pair_to_dict of the designer pair of instances/<name>.json, as JSON
    reads it back."""
    problem = _problem(name)
    sol = (solve_p1 if problem.variant == "P1" else solve_p2)(problem)
    return json.loads(json.dumps(pair_to_dict(sol.o1, sol.o2)))


_SYM02_P1 = _problem("sym02_p1")
_SYM02_P1_PAIR = _designer_pair_doc("sym02_p1")
_MARY3_P1_PAIR = _designer_pair_doc("mary3_p1")
_POLICY_COMMANDS = (["simulate", "--n", "20"], ["best-response", "--side", "1"],
                    ["best-response", "--side", "2"], ["solve-infinite", "--grid", "11"])


def _with_o2(**fields):
    """The sym02_p1 designer pair with the receiver's ``fields`` replaced."""
    return {**_SYM02_P1_PAIR, "o2": {**_SYM02_P1_PAIR["o2"], **fields}}


def _run_policies(work, doc, command):
    """main() on sym02_p1 with ``doc`` as the --policies file: (exit code,
    stderr, the output directory)."""
    pol = work / "policies.json"
    pol.write_text(json.dumps(doc))
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(command + ["--policies", str(pol), "--spec", spec_path("sym02_p1"),
                               "--out", str(out)])
    return code, err.getvalue(), out


def _with_o1(**fields):
    """The sym02_p1 designer pair with the sender's ``fields`` replaced."""
    return {**_SYM02_P1_PAIR, "o1": {**_SYM02_P1_PAIR["o1"], **fields}}


_WALD_RULES = _SYM02_P1_PAIR["o2"]["wald_rules"]
_MODEL = _SYM02_P1_PAIR["o2"]["message_model"]
# a string number, a non-integral or bool "M" (read as int(M)) and the
# symbol key "01" (read as 1) used to run to exit 0
_MALFORMED = [
    _with_o1(M=2.5), _with_o1(M=True), _with_o2(M=2.9), _with_o2(M=False),
    _with_o1(terminal={"cuts": ["0.5"]}),
    _with_o2(wald_rules=[[str(_WALD_RULES[0][0]), _WALD_RULES[0][1]]] + _WALD_RULES[1:]),
    _with_o2(message_model=[{**_MODEL[0], "0": [str(_MODEL[0]["0"][0]), _MODEL[0]["0"][1]]}]
             + _MODEL[1:]),
    _with_o2(message_model=[{("01" if k == "1" else k): v for k, v in _MODEL[0].items()}]
             + _MODEL[1:]),
]


@pytest.mark.parametrize("doc, command", [
    # a receiver with no stopping rule at all
    (_with_o2(wald_rules=[]), ["solve-infinite"]),
    # the M=3 designer pair of mary3_p1 against this M=2 problem
    (_MARY3_P1_PAIR, ["best-response", "--side", "1"]),
    (_MARY3_P1_PAIR, ["best-response", "--side", "2"]),
    (_MARY3_P1_PAIR, ["solve-infinite"]),
    # an M=2 sender with an M=3 receiver
    ({**_SYM02_P1_PAIR, "o2": _MARY3_P1_PAIR["o2"]}, ["simulate", "--n", "20"]),
    # a receiver of horizon 0 against T2 = 2
    (_with_o2(wald_rules=_SYM02_P1_PAIR["o2"]["wald_rules"][-1:]), ["solve-infinite"]),
    *[(doc, command) for doc in _MALFORMED
      for command in (["simulate", "--n", "20"], ["best-response", "--side", "2"])],
])
def test_policies_that_do_not_fit_are_validation_errors(tmp_path, doc, command):
    code, err, _ = _run_policies(tmp_path, doc, command)
    assert code == 2, err
    assert err.startswith("validation error: o"), err


@pytest.mark.parametrize("n", [simulate.EPISODE_CAP + 1, 10 ** 15])
def test_simulate_past_the_episode_cap_exits_4_before_sampling(tmp_path, n):
    code, err, out = _run_policies(tmp_path, _SYM02_P1_PAIR, ["simulate", "--n", str(n)])
    assert code == 4, err
    assert err.startswith("cap exceeded: episodes"), err
    assert not out.exists()


def test_solve_infinite_reads_an_empty_message_model_as_uninformative(tmp_path):
    code, err, out = _run_policies(tmp_path, _with_o2(message_model=[]), ["solve-infinite"])
    assert code == 0, err
    limit = read_report(str(out))["sender_limit"]
    assert limit["converged"] is True and limit["anchor"]
    # the anchor is the receiver with (1, 1) factors at every stage
    o2 = dataclasses.replace(pair_from_dict(_SYM02_P1_PAIR)[1],
                             message_model=({},) * _SYM02_P1.t1)
    assert limit["four_thresholds"] == list(value_iterate_o1(o2, _SYM02_P1).four_thresholds)


_POLICY_PATHS = list(_paths(_SYM02_P1_PAIR))
_POLICY_VALUES = st.sampled_from(["x", None, [], {}, True, float("nan"), float("inf"),
                                  -1, -0.5, 0.5, 1, 3, 10 ** 400, [0.2, 0.1]])


@st.composite
def _bad_policies(draw):
    """The sym02_p1 designer pair with the value at one drawn path replaced
    or deleted (deleting a list entry cuts a horizon short)."""
    doc = json.loads(json.dumps(_SYM02_P1_PAIR))
    _set(doc, draw(st.sampled_from(_POLICY_PATHS)),
         draw(st.one_of(st.just(_DELETE), _POLICY_VALUES)))
    return doc


@given(_bad_policies())
@example(_with_o2(wald_rules=[]))
@example(_with_o2(message_model=[]))
@example(_with_o2(M=3))
@example({**_SYM02_P1_PAIR, "o1": {**_SYM02_P1_PAIR["o1"], "M": 3}})
@settings(max_examples=60, deadline=None)
def test_bad_policies_end_in_a_documented_exit_code(tmp_path_factory, doc):
    for command in _POLICY_COMMANDS:
        code, err, out = _run_policies(tmp_path_factory.mktemp("pol"), doc, command)
        assert code == 0 or code in FAILURE_CODES, (doc, command, err)
        if code == 0 and command[0] == "best-response":
            with open(out / "policies.json") as fh:
                o1, o2 = pair_from_dict(json.load(fh))
            assert (o1.horizon, o2.max_observations) == (_SYM02_P1.t1, _SYM02_P1.t2)
            assert o1.n_messages == o2.n_messages == _SYM02_P1.n_messages


@pytest.mark.parametrize("m, code", [(10 ** 300, 4), (1000, 0)])
def test_pbpo_refuses_an_alphabet_past_the_cap(tmp_path, capsys, m, code):
    # PBPO builds T1 sender rules of M symbol slots each; M = 10**300 ended
    # in an OverflowError traceback (exit 1) before the cap
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["M"] = m
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["best-response", "--pbpo", "--spec", str(spec),
                 "--out", str(tmp_path / "out")]) == code
    assert ("sender symbol slots" in capsys.readouterr().err) == (code == 4)


@pytest.mark.parametrize("command", [["solve-p1"], ["best-response", "--pbpo"],
                                     ["solve-wald", "--horizon", "1000000000"],
                                     ["solve-wald", "--horizon", str(wald.WALD_HORIZON_CAP + 1)]])
def test_a_receiver_horizon_past_the_cap_exits_4_at_once(tmp_path, capsys, command):
    # the knot table grows by one backup per observation, so T2 = 10**9 on
    # a valid stationary spec ran until memory ran out
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["horizons"] = {"T1": 2, "T2": 10 ** 9}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(command + ["--spec", str(spec), "--out", str(tmp_path / "out")]) == 4
    assert time.perf_counter() - start < 1.0
    assert "receiver horizon" in capsys.readouterr().err


def test_a_grid_past_the_cap_exits_4_at_once(tmp_path, capsys):
    # the stationary solve holds a few hundred bytes per grid point, so
    # --grid 100000000 ran until memory ran out
    start = time.perf_counter()
    assert main(["solve-infinite", "--spec", spec_path("sym02_p1"),
                 "--grid", str(wald.GRID_CAP + 1), "--out", str(tmp_path / "out")]) == 4
    assert time.perf_counter() - start < 1.0
    assert "grid points" in capsys.readouterr().err


@pytest.mark.parametrize("m", [10 ** 300, 1000])
@pytest.mark.parametrize("command", ["solve-p1", "oracle-check", "solve-infinite"])
def test_designer_refuses_a_partition_table_past_the_cap(tmp_path, capsys, command, m):
    # the first stage's table would hold comb(n + 2M, 2M) run positions;
    # oracle-check refuses first, on the oracle's own work bound
    with open(spec_path("sym02_p1")) as fh:
        doc = json.load(fh)
    doc["M"] = m
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 4
    assert ("oracle work bound" if command == "oracle-check" else "designer partition table") \
        in capsys.readouterr().err
