"""Policy containers, threshold extraction, JSON round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decseq
from decseq import (BLANK, O1Policy, O2Policy, StageRule, StructureViolation,
                    TerminalRule, extract_thresholds, pair_from_dict,
                    pair_to_dict, subjective_update)


def test_stage_rule_classify():
    rule = StageRule(send=((0.6, 1.0), (0.0, 0.4)))
    assert rule.classify(0.2) == 1
    assert rule.classify(0.8) == 0
    assert rule.classify(0.5) == BLANK
    assert rule.n_messages == 2


def test_terminal_rule_covers_everything():
    term = TerminalRule(cuts=(0.5,))
    assert term.classify(0.2) == 1
    assert term.classify(0.9) == 0
    # a terminal rule never stays silent
    assert term.classify(0.5) in (0, 1)


def test_ternary_ordering_low_belief_high_symbol():
    term = TerminalRule(cuts=(0.3, 0.7))
    assert term.classify(0.1) == 2
    assert term.classify(0.5) == 1
    assert term.classify(0.9) == 0


def test_extract_thresholds_send_regions():
    labeled = [(0.1, 1), (0.3, 1), (0.5, BLANK), (0.7, 0), (0.9, 0)]
    rule = extract_thresholds(labeled, 2)
    assert rule.classify(0.2) == 1
    assert rule.classify(0.5) == BLANK
    assert rule.classify(0.8) == 0


def test_extract_thresholds_rejects_split_region():
    labeled = [(0.1, 1), (0.3, 0), (0.5, 1), (0.7, 0)]
    with pytest.raises(StructureViolation):
        extract_thresholds(labeled, 2)


def test_extract_thresholds_rejects_out_of_order_symbols():
    # symbol 0 must sit at higher beliefs than symbol 1
    labeled = [(0.1, 0), (0.5, BLANK), (0.9, 1)]
    with pytest.raises(StructureViolation):
        extract_thresholds(labeled, 2)


def test_extract_thresholds_terminal_has_no_blank():
    labeled = [(0.1, 1), (0.9, 0)]
    term = extract_thresholds(labeled, 2, terminal=True)
    assert term.classify(0.5) in (0, 1)
    with pytest.raises(StructureViolation):
        extract_thresholds([(0.1, 1), (0.5, BLANK), (0.9, 0)], 2, terminal=True)


@pytest.mark.parametrize("labeled, m, cuts", [
    ([(0.2, 2), (0.6, 0)], 3, (0.4, 0.4)),
    # a skipped symbol above every run sits at 0, or at -1 when an atom is at 0
    ([(0.2, 1), (0.6, 0)], 3, (0.0, 0.4)),
    ([(0.0, 1), (0.6, 0)], 3, (-1.0, 0.3)),
    # skipped symbols below the last run sit at its upper edge, 1
    ([(0.2, 2), (0.6, 1)], 3, (0.4, 1.0)),
    ([(0.3, 3)], 4, (1.0, 1.0, 1.0)),
    ([(0.0, 3), (0.5, 1)], 4, (0.25, 0.25, 1.0)),
])
def test_extract_thresholds_terminal_cuts_hand_values(labeled, m, cuts):
    assert extract_thresholds(labeled, m, terminal=True).cuts == cuts


def test_subjective_update_total_map():
    rows = ((0.8, 0.2), (0.2, 0.8))
    moved = subjective_update(0.5, 0, rows, (0.3, 0.7))
    assert moved == pytest.approx((0.5 * 0.8 * 0.3)
                                  / (0.5 * 0.8 * 0.3 + 0.5 * 0.2 * 0.7))
    # subjectively impossible evidence leaves the belief where it was
    frozen = subjective_update(0.4, None, None, (0.0, 0.0))
    assert frozen == 0.4


def test_policy_json_round_trip(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    doc = pair_to_dict(sol.o1, sol.o2)
    # survives an actual serialization, not just dict identity
    o1, o2 = pair_from_dict(json.loads(json.dumps(doc)))
    assert o1 == sol.o1
    assert o2 == sol.o2


# shared endpoints give empty (zero-width) and touching intervals
_point = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def _policy_pairs(draw):
    m = draw(st.integers(2, 3))
    t1 = draw(st.integers(1, 4))

    def stage():
        pts = sorted(draw(st.lists(_point, min_size=2 * m, max_size=2 * m)))
        # symbol M-1 takes the lowest interval; None leaves a symbol unused
        return StageRule(send=tuple((pts[2 * (m - 1 - z)], pts[2 * (m - 1 - z) + 1])
                                    if draw(st.booleans()) else None for z in range(m)))

    def rule():
        return tuple(sorted(draw(st.lists(_point, min_size=2, max_size=2))))

    def lik():
        return (draw(_point), draw(_point))

    cuts = sorted(draw(st.lists(st.floats(-1.0, 1.0), min_size=m - 1, max_size=m - 1)))
    o1 = O1Policy(stages=tuple(stage() for _ in range(t1 - 1)),
                  terminal=TerminalRule(cuts=tuple(cuts)), n_messages=m)
    model = tuple({**({BLANK: lik()} if t < t1 else {}), **{z: lik() for z in range(m)}}
                  for t in range(1, t1 + 1))
    # P2 receivers carry blank rules, P1 receivers none; the last stopping
    # rule, reversed, forces a declaration
    o2 = O2Policy(blank_rules=tuple(rule() for _ in range(draw(st.integers(0, t1 - 1)))),
                  wald_rules=tuple(rule() for _ in range(draw(st.integers(0, 4))))
                  + (rule()[::-1],),
                  message_model=model, n_messages=m)
    return o1, o2


@given(_policy_pairs())
@settings(max_examples=80, deadline=None)
def test_policy_json_round_trip_property(pair):
    o1, o2 = pair
    assert pair_from_dict(json.loads(json.dumps(pair_to_dict(o1, o2)))) == (o1, o2)


def test_o1_policy_stagewise_message(sym02_p1):
    sol = decseq.solve_p1(sym02_p1)
    assert sol.o1.horizon == sym02_p1.t1
    z = sol.o1.message(1, 0.2)
    assert z in tuple(range(sol.o1.n_messages)) + (BLANK,)
    # the terminal stage can never stay silent
    assert sol.o1.message(sym02_p1.t1, 0.5) in range(sol.o1.n_messages)
    with pytest.raises(decseq.ProblemSpecError):
        sol.o1.message(sym02_p1.t1 + 1, 0.5)


def test_message_factor_total_map(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    # out-of-range stages and zero-mass symbols read as uninformative
    assert sol.o2.message_factor(99, 0) == (1.0, 1.0)
    assert sol.o2.message_factor(1, BLANK) == (1.0, 1.0)


def test_o2_policy_rule_shapes(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    o2 = sol.o2
    assert len(o2.blank_rules) == sym02_p2.t1 - 1
    # last post-message rule forces a declaration
    w1, w2 = o2.wald_rules[-1]
    assert w1 >= w2
    assert o2.max_observations == sym02_p2.t2


def test_build_message_model_conditional_factors(sym02_p1):
    stage = StageRule(send=((0.9, 1.0), (0.0, 0.1)))
    term = TerminalRule(cuts=(0.5,))
    o1 = O1Policy(stages=(stage,), terminal=term, n_messages=2)
    model = decseq.build_message_model(o1, sym02_p1)
    assert len(model) == sym02_p1.t1
    # stage 1 always stays blank under this rule
    assert model[0][BLANK] == pytest.approx((1.0, 1.0))
    # stage 2 factors are conditioned on that blank prefix and sum to one
    for h in range(2):
        assert sum(f[h] for f in model[1].values()) == pytest.approx(1.0)
    # this rule sends from both stage-1 atoms: 0.2 sends 1 and 0.8 sends 0,
    # so nothing lands on blank
    sends = StageRule(send=((0.7, 1.0), (0.0, 0.3)))
    first = decseq.build_message_model(
        O1Policy(stages=(sends,), terminal=term, n_messages=2), sym02_p1)[0]
    assert first[1] == pytest.approx((0.2, 0.8))
    assert first[0] == pytest.approx((0.8, 0.2))
    assert first[BLANK] == (0.0, 0.0)
    for h in range(2):
        assert sum(f[h] for f in first.values()) == pytest.approx(1.0, abs=1e-12)
