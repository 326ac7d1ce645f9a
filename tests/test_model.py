"""Problem loading and validation, and the package namespace."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decseq
from decseq import ProblemSpecError, load_problem_spec

from conftest import make_spec


def test_round_trip_fields(sym02_p2):
    p = sym02_p2
    assert p.prior == 0.5
    assert p.t1 == 2 and p.t2 == 2
    assert p.variant == "P2"
    assert p.n_messages == 2
    assert p.costs.c1 == 0.1 and p.costs.c2 == 0.05
    assert p.costs.loss == ((0.0, 1.0), (1.0, 0.0))


def test_channel_rows_and_stationarity(asym_p1):
    ch = asym_p1.channel1
    assert ch.stationary
    r0, r1 = ch.row_pair(1)
    assert r0 == (0.7, 0.3) and r1 == (0.25, 0.75)
    # stationary channels serve any step index from the single table
    assert ch.row_pair(7) == ch.row_pair(1)


def test_nonstationary_channel_indexing():
    spec = make_spec()
    spec["channels"][0]["tables"] = [[[0.8, 0.2], [0.2, 0.8]],
                                     [[0.7, 0.3], [0.3, 0.7]]]
    p = load_problem_spec(spec)
    assert not p.channel1.stationary
    assert p.channel1.row_pair(2)[0] == (0.7, 0.3)


def test_max_loss(asym_p2):
    assert asym_p2.costs.max_loss == 1.2


@pytest.mark.parametrize("mutate, field", [
    (lambda s: s.update(prior=1.5), "prior"),
    (lambda s: s.update(prior=-0.1), "prior"),
    (lambda s: s["costs"].update(c1=-1.0), "c1"),
    (lambda s: s["costs"].update(c2=0.0), "c2"),
    (lambda s: s["horizons"].update(T1=0), "T1"),
    (lambda s: s.update(variant="P3"), "variant"),
    (lambda s: s.update(M=1), "M"),
    (lambda s: s["channels"][0].update(observer=True), "observer"),
])
def test_rejects_bad_fields(mutate, field):
    spec = make_spec()
    mutate(spec)
    with pytest.raises(ProblemSpecError):
        load_problem_spec(spec)


@pytest.mark.parametrize("mutate, field", [
    (lambda s: s.update(prior=float("nan")), "prior"),
    (lambda s: s["costs"]["J"][0].__setitem__(1, float("nan")), "costs.J[0][1]"),
    (lambda s: s["costs"].update(c1=float("inf")), "costs.c1"),
    (lambda s: s["channels"][1]["tables"][0][0].__setitem__(0, float("nan")),
     "channels[1].tables[0][0]"),
    # an integer too large for a float
    (lambda s: s["horizons"].update(T1=10 ** 400), "horizons.T1"),
])
def test_rejects_non_finite_numbers(mutate, field):
    spec = make_spec()
    mutate(spec)
    with pytest.raises(ProblemSpecError) as err:
        load_problem_spec(spec)
    assert err.value.field == field


def test_rejects_non_stochastic_rows():
    spec = make_spec(ch1=[[0.9, 0.2], [0.2, 0.8]])
    with pytest.raises(ProblemSpecError):
        load_problem_spec(spec)


def test_rejects_interleaved_with_short_receiver():
    spec = make_spec(variant="P2", t1=3, t2=2)
    with pytest.raises(ProblemSpecError):
        load_problem_spec(spec)


def test_diagonal_loss_must_not_dominate():
    # declaring wrong must cost at least as much as declaring right
    spec = make_spec(loss=[[2.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ProblemSpecError):
        load_problem_spec(spec)


def test_terminal_cost():
    costs = decseq.Costs(c1=0.1, c2=0.05, loss=((0.0, 1.0), (1.0, 0.0)))
    assert decseq.terminal_cost(0, 0.25, costs) == pytest.approx(0.75)
    assert decseq.terminal_cost(1, 0.25, costs) == pytest.approx(0.25)


def test_declare_boundary_shifts_with_losses():
    skew = decseq.Costs(c1=0.1, c2=0.05, loss=((0.0, 1.2), (0.9, 0.0)))
    b = skew.declare_boundary
    # boundary equates the two declaration losses
    assert decseq.terminal_cost(0, b, skew) == pytest.approx(
        decseq.terminal_cost(1, b, skew))
    assert b != 0.5


@st.composite
def _valid_specs(draw):
    variant = draw(st.sampled_from(("P1", "P2")))
    t1 = draw(st.integers(1, 4))
    t2 = draw(st.integers(t1 if variant == "P2" else 0, 5))

    def channel(observer, horizon):
        n_sym = draw(st.integers(2, 4))

        def row():
            w = draw(st.lists(st.floats(0.0, 1.0), min_size=n_sym, max_size=n_sym)
                     .filter(lambda w: sum(w) > 0.0))
            return [x / sum(w) for x in w]

        n_tables = 1 if draw(st.booleans()) else max(horizon, 2)
        return {"observer": observer, "tables": [[row(), row()] for _ in range(n_tables)]}

    cost = st.floats(1e-4, 1.0)
    j00, j11 = draw(cost), draw(cost)
    return {
        "prior": draw(st.floats(0.0, 1.0)),
        "channels": [channel(1, t1), channel(2, t2)],
        "costs": {"c1": draw(cost), "c2": draw(cost),
                  "J": [[j00, j11 + draw(cost)], [j00 + draw(cost), j11]]},
        "horizons": {"T1": t1, "T2": t2},
        "variant": draw(st.sampled_from((variant, variant.lower()))),
        "M": draw(st.integers(2, 4)),
    }


@given(_valid_specs())
@settings(max_examples=60, deadline=None)
def test_spec_round_trip_property(spec):
    p = load_problem_spec(spec)
    assert p.prior == spec["prior"] and p.n_messages == spec["M"]
    assert (p.t1, p.t2) == (spec["horizons"]["T1"], spec["horizons"]["T2"])
    assert p.costs.loss == tuple(map(tuple, spec["costs"]["J"]))
    # to_dict of a built problem, through real JSON text
    doc = p.to_dict()
    assert load_problem_spec(json.dumps(doc)) == p


def test_to_dict_reads_the_fields(sym02_p1):
    # a copy with other horizons reports its own, not the loaded file's
    doc = dataclasses.replace(sym02_p1, t1=5, t2=5).to_dict()
    assert doc["horizons"] == {"T1": 5, "T2": 5}
    assert load_problem_spec(doc) == dataclasses.replace(sym02_p1, t1=5, t2=5)


def test_public_namespace_is_all():
    # every exported name resolves, and a star import binds exactly __all__
    assert [n for n in decseq.__all__ if not hasattr(decseq, n)] == []
    assert len(set(decseq.__all__)) == len(decseq.__all__)
    ns = {}
    exec("from decseq import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(decseq.__all__)
