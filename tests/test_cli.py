"""Command line behavior: artifacts, report fields, exit codes."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decseq.cli import _write_episodes_csv, main
from decseq.simulate import Episodes

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
    assert sorted(profile) == ["exact_s", "sample_s", "write_s"]
    assert all(v >= 0.0 for v in profile.values())


@pytest.mark.parametrize("command, name", [("solve-p1", "sym02_p1"),
                                           ("solve-p2", "sym02_p2"),
                                           ("mary", "mary3_p1")])
def test_designer_report_profile_and_search_stats(tmp_path, command, name):
    out = str(tmp_path / "d")
    assert main([command, "--spec", spec_path(name), "--out", out]) == 0
    rep = read_report(out)
    profile = rep["profile"]
    assert sorted(profile) == ["check_s", "extract_s", "search_s"]
    assert all(v >= 0.0 for v in profile.values())
    assert sum(profile.values()) <= rep["wall_time_s"]
    if command != "mary":
        assert rep["nodes"] > 0 and rep["memo_hits"] >= 0


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
