"""Exact evaluation and the Monte Carlo path."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decseq
from decseq import (BLANK, Channel, Costs, O1Policy, O2Policy, Problem,
                    StageRule, TerminalRule, build_message_model,
                    estimate_cost, exact_cost, subjective_update,
                    update_observer1)
from decseq.simulate import _PhiloxStreams, episode_rng, philox4x64


@pytest.fixture(scope="module")
def p2_pair(sym02_p2):
    sol = decseq.solve_p2(sym02_p2)
    return (sol.o1, sol.o2)


def test_exact_breakdown_components(sym02_p2, p2_pair):
    bd = exact_cost(p2_pair, sym02_p2)
    assert bd.total == pytest.approx(
        bd.obs1_cost + bd.obs2_cost + bd.loss_cost, abs=1e-12)
    assert bd.total == pytest.approx(0.27, abs=1e-9)


def test_tau_pmfs_are_distributions(sym02_p2, p2_pair):
    bd = exact_cost(p2_pair, sym02_p2)
    for _, acc in bd._weighted():
        assert sum(acc.tau1_pmf.values()) == pytest.approx(1.0, abs=1e-10)
        assert sum(acc.tau2_pmf.values()) == pytest.approx(1.0, abs=1e-10)
    assert bd.tau1_tail(1) == pytest.approx(1.0, abs=1e-12)
    assert bd.tau1_tail(sym02_p2.t1 + 1) == 0.0


def test_symmetric_instance_balanced_error(sym02_p2, p2_pair):
    # prior one half and mirror-image channels: both hypotheses misread
    # equally often
    bd = exact_cost(p2_pair, sym02_p2)
    per0, per1 = bd.per_h
    assert per0.e_loss == pytest.approx(per1.e_loss, abs=1e-10)
    assert per0.e_tau2 == pytest.approx(per1.e_tau2, abs=1e-10)


def test_estimate_deterministic_and_unbiased(sym02_p2, p2_pair):
    s1, eps = estimate_cost(p2_pair, sym02_p2, 50000, 11)
    s2, _ = estimate_cost(p2_pair, sym02_p2, 50000, 11)
    assert s1.mean_cost == s2.mean_cost
    assert s1.error_rate == s2.error_rate
    assert len(eps) == 50000
    exact = exact_cost(p2_pair, sym02_p2).total
    assert abs(s1.mean_cost - exact) < 4.0 * s1.stderr


def _columns(eps):
    return list(zip(eps.h, eps.tau1, eps.tau2, eps.message, eps.decision, eps.cost))


def test_episode_stream_is_counter_based(sym02_p2, p2_pair):
    _, eps = estimate_cost(p2_pair, sym02_p2, 64, 3)
    # episode i only touches its own stream, so a run of i + 1 episodes
    # reproduces its record regardless of batch size
    for i in (0, 17, 63):
        _, head = estimate_cost(p2_pair, sym02_p2, i + 1, 3)
        assert _columns(head)[i] == _columns(eps)[i]


def test_different_seeds_differ(sym02_p2, p2_pair):
    a, _ = estimate_cost(p2_pair, sym02_p2, 5000, 1)
    b, _ = estimate_cost(p2_pair, sym02_p2, 5000, 2)
    assert a.mean_cost != b.mean_cost


def test_episode_costs_match_components(sym02_p1):
    sol = decseq.solve_p1(sym02_p1)
    prob = sym02_p1
    _, eps = estimate_cost((sol.o1, sol.o2), prob, 500, 5)
    for h, tau1, tau2, _, decision, cost in _columns(eps)[:100]:
        rebuilt = (prob.costs.c1 * tau1 + prob.costs.c2 * tau2
                   + prob.costs.loss[decision][h])
        assert rebuilt == pytest.approx(cost, abs=1e-12)


def test_estimate_rejects_empty_run(sym02_p2, p2_pair):
    with pytest.raises(decseq.ProblemSpecError):
        estimate_cost(p2_pair, sym02_p2, 0, 1)


@pytest.mark.parametrize("n, seed", [(1000, 2.5), (10.5, 1), (1000, True), (True, 1)])
def test_estimate_rejects_non_integer_n_and_seed(sym02_p2, p2_pair, n, seed):
    # a float seed used to run the streams of its integer part and report
    # the float; a float n failed with a bare TypeError
    with pytest.raises(decseq.ProblemSpecError):
        estimate_cost(p2_pair, sym02_p2, n, seed)


def test_estimate_accepts_numpy_integers(sym02_p2, p2_pair):
    got, eps = estimate_cost(p2_pair, sym02_p2, np.int64(10), np.uint64(2 ** 64 - 1))
    want, ref = estimate_cost(p2_pair, sym02_p2, 10, 2 ** 64 - 1)
    assert (got.seed, got.mean_cost) == (want.seed, want.mean_cost)
    assert _columns(eps) == _columns(ref)


def test_exact_cost_rejects_leaking_path_mass(sym02_p2, p2_pair):
    # rows that sum to 0.9 lose a tenth of the mass at every observation
    leaky = decseq.Channel(observer=2, tables=(((0.7, 0.2), (0.2, 0.7)),))
    problem = dataclasses.replace(sym02_p2, channel2=leaky)
    with pytest.raises(decseq.CertificationError):
        exact_cost(p2_pair, problem)


def test_exact_cost_checks_pair_compatibility(sym02_p1, sym02_p2):
    sol1 = decseq.solve_p1(sym02_p1)
    with pytest.raises(decseq.ProblemSpecError):
        # a wait-then-sample receiver lacks the blank rules P2 needs
        exact_cost((sol1.o1, sol1.o2), sym02_p2)


# ---------------------------------------------------------------------------
# lockstep sampler against the one-episode-at-a-time reference


def _draw_ref(rng, row):
    r = rng.random()
    acc = 0.0
    for y, p in enumerate(row):
        acc += p
        if r < acc:
            return y
    return len(row) - 1


def _sample_episode_ref(o1, o2, problem, rng):
    """The scalar episode loop the lockstep sampler replaced, kept as the
    reference: one episode, one Generator, draws in episode order."""
    h = 0 if rng.random() < problem.prior else 1
    costs = problem.costs
    if problem.variant == "P1":
        b1 = sb = float(problem.prior)
        t = 0
        while True:
            t += 1
            rows = problem.channel1.row_pair(t)
            b1 = update_observer1(b1, _draw_ref(rng, rows[h]), rows)
            z = o1.message(t, b1)
            if z != BLANK:
                break
            sb = subjective_update(sb, None, None, o2.message_factor(t, BLANK))
        tau1 = t
        sb = subjective_update(sb, None, None, o2.message_factor(tau1, z))
        k = 0
        while True:
            u = o2.decide_wald(k, sb)
            if u is not None:
                break
            rows2 = problem.channel2.row_pair(k + 1)
            sb = subjective_update(sb, _draw_ref(rng, rows2[h]), rows2, None)
            k += 1
        tau2 = k
    else:
        b1 = sb = float(problem.prior)
        tau1 = tau2 = None
        z_final = u = None
        t = 0
        while tau1 is None or tau2 is None:
            t += 1
            z = None
            if tau1 is None:
                rows = problem.channel1.row_pair(t)
                b1 = update_observer1(b1, _draw_ref(rng, rows[h]), rows)
                z = o1.message(t, b1)
                if z != BLANK:
                    tau1, z_final = t, z
            if tau2 is None:
                rows2 = problem.channel2.row_pair(t)
                factor = None if z is None else o2.message_factor(t, z)
                sb = subjective_update(sb, _draw_ref(rng, rows2[h]), rows2, factor)
                du = o2.decide_wald(t, sb) if tau1 is not None else o2.decide_blank(t, sb)
                if du is not None:
                    tau2, u = t, du
        z = z_final
    cost = costs.c1 * tau1 + costs.c2 * tau2 + costs.loss[u][h]
    return h, tau1, tau2, z, u, cost


# thresholds on a few beliefs that symmetric channels revisit exactly, so
# ties at interval ends happen, plus arbitrary ones
_threshold = st.one_of(st.sampled_from((0.2, 0.5, 0.8)), st.floats(0.0, 1.0))


@st.composite
def _channels(draw, horizon):
    n_sym = draw(st.sampled_from((2, 3)))
    # 0.2/0.8 rows move beliefs over 0.2, 0.5 and 0.8 exactly
    entry = st.one_of(st.just(0.0), st.sampled_from((0.2, 0.8)), st.floats(0.05, 1.0))

    def row():
        w = draw(st.lists(entry, min_size=n_sym, max_size=n_sym)
                 .filter(lambda w: sum(w) > 0.0))
        return tuple(x / sum(w) for x in w)

    n_tables = 1 if draw(st.booleans()) else max(horizon, 1)
    return tuple((row(), row()) for _ in range(n_tables))


@st.composite
def _sender_policy(draw, horizon, m):
    def stage():
        pts = sorted(draw(st.lists(_threshold, min_size=2 * m, max_size=2 * m)))
        # symbol M-1 takes the lowest interval, symbol 0 the highest
        send = [(pts[2 * (m - 1 - z)], pts[2 * (m - 1 - z) + 1])
                if draw(st.booleans()) else None for z in range(m)]
        return StageRule(send=tuple(send))

    cuts = sorted(draw(st.lists(_threshold, min_size=m - 1, max_size=m - 1)))
    return O1Policy(stages=tuple(stage() for _ in range(horizon - 1)),
                    terminal=TerminalRule(cuts=tuple(cuts)), n_messages=m)


@st.composite
def _mc_cases(draw):
    variant = draw(st.sampled_from(("P1", "P2")))
    m = draw(st.sampled_from((2, 3)))
    t1 = draw(st.integers(1, 3))
    t2 = draw(st.integers(t1 if variant == "P2" else 0, 3))
    problem = Problem(
        prior=draw(st.one_of(st.just(0.5), st.floats(0.05, 0.95))),
        channel1=Channel(observer=1, tables=draw(_channels(t1))),
        channel2=Channel(observer=2, tables=draw(_channels(t2))),
        costs=Costs(c1=draw(st.floats(0.01, 0.2)), c2=draw(st.floats(0.01, 0.2)),
                    loss=((0.0, draw(st.floats(0.5, 2.0))),
                          (draw(st.floats(0.5, 2.0)), 0.0))),
        t1=t1, t2=t2, variant=variant, n_messages=m)
    o1 = draw(_sender_policy(t1, m))
    # a mismatched pair: the receiver modelled a different sender
    modelled = o1 if draw(st.booleans()) else draw(_sender_policy(t1, m))

    def rule():
        return tuple(sorted(draw(st.lists(_threshold, min_size=2, max_size=2))))

    last = rule()
    o2 = O2Policy(
        blank_rules=tuple(rule() for _ in range(t1 - 1)) if variant == "P2" else (),
        wald_rules=tuple(rule() for _ in range(t2)) + (last[::-1],),
        message_model=build_message_model(modelled, problem), n_messages=m)
    n = draw(st.integers(1, 200))
    seed = draw(st.one_of(st.sampled_from((0, 2 ** 64 - 1)),
                          st.integers(0, 2 ** 64 - 1)))
    return (o1, o2), problem, n, seed


def _edge_case(rows1, rows2, o1, modelled, wald_rules):
    """P1 on hand-made stationary channels, T2 = 1: the receiver models the
    sender ``modelled`` while ``o1`` sends."""
    problem = Problem(prior=0.5, channel1=Channel(observer=1, tables=(rows1,)),
                      channel2=Channel(observer=2, tables=(rows2,)),
                      costs=Costs(c1=0.1, c2=0.1, loss=((0.0, 1.0), (1.0, 0.0))),
                      t1=o1.horizon, t2=1, variant="P1")
    o2 = O2Policy(blank_rules=(), wald_rules=wald_rules,
                  message_model=build_message_model(modelled, problem))
    return (o1, o2), problem, 200, 3


def _cut(c, stages=()):
    return O1Policy(stages=stages, terminal=TerminalRule(cuts=(c,)))


# Under H=1 the sender's symbol 0 is impossible in the receiver's model, so
# its belief jumps to 1; its next observation is impossible under H=0 too,
# and that subjectively impossible event must leave the belief at 1.
_SUBJECTIVELY_IMPOSSIBLE = _edge_case(
    ((0.5, 0.5), (1.0, 0.0)), ((1.0, 0.0), (0.5, 0.5)), _cut(0.2), _cut(0.9),
    ((-0.5, 1.5), (0.5, 0.5)))
# Rows summing to 0.5 make the sampler fall through to a symbol both
# hypotheses give probability 0: that must raise, not produce NaN.
_IMPOSSIBLE_SYMBOL = _edge_case(
    ((0.5, 0.0), (0.5, 0.0)), ((0.5, 0.5), (0.5, 0.5)), _cut(0.5), _cut(0.5),
    ((0.5, 0.5), (0.5, 0.5)))
# Send intervals that touch at 0.8, a belief reached at stage 1: the
# higher symbol takes the shared end.
_SYM = ((0.8, 0.2), (0.2, 0.8))
_TOUCHING = _cut(0.5, (StageRule(send=((0.8, 1.0), (0.0, 0.8))),))
_TOUCHING_INTERVALS = _edge_case(_SYM, _SYM, _TOUCHING, _TOUCHING,
                                 ((0.3, 0.7), (0.5, 0.5)))


# A ternary sender: symbol 1 is impossible under H=1, so it takes the
# belief to 1.0, where symbol 2 has zero probability under both hypotheses.
# No episode at belief 1.0 can draw it (all are H=0), so nothing may raise.
_WAIT = StageRule(send=(None, None))
_UNDRAWN_ZERO = _edge_case(((0.5, 0.5, 0.0), (0.6, 0.0, 0.4)), _SYM, _cut(0.5, (_WAIT,)),
                           _cut(0.5, (_WAIT,)), ((0.3, 0.7), (0.5, 0.5)))


def _roundoff_case(variant):
    """T1 = T2 = 6 on asymmetric rows, the sender silent to its deadline:
    observer 1's beliefs at t = 6 take 23 distinct float values where exact
    arithmetic gives 7.  The terminal cut is one of them, with twins one
    ulp away on both sides, so beliefs merged by roundoff at any stage
    send the wrong symbol: each must stay its own state."""
    rows = ((0.78, 0.22), (0.19, 0.81))
    problem = Problem(prior=0.5, channel1=Channel(observer=1, tables=(rows,)),
                      channel2=Channel(observer=2, tables=(rows,)),
                      costs=Costs(c1=0.01, c2=0.01, loss=((0.0, 1.0), (1.0, 0.0))),
                      t1=6, t2=6, variant=variant)
    o1 = _cut(0.5809293040651603, (_WAIT,) * 5)
    keep = (0.01, 0.99)
    o2 = O2Policy(blank_rules=(keep,) * 5 if variant == "P2" else (),
                  wald_rules=(keep,) * 6 + ((0.5, 0.5),),
                  message_model=build_message_model(o1, problem))
    return (o1, o2), problem, 200, 3


@given(_mc_cases())
@example(_SUBJECTIVELY_IMPOSSIBLE)
@example(_IMPOSSIBLE_SYMBOL)
@example(_TOUCHING_INTERVALS)
@example(_UNDRAWN_ZERO)
@example(_roundoff_case("P1"))
@example(_roundoff_case("P2"))
@settings(max_examples=150, deadline=None)
def test_lockstep_sampler_matches_scalar_reference(case):
    pair, problem, n, seed = case
    try:
        _, eps = estimate_cost(pair, problem, n, seed)
    except decseq.ImpossibleUpdateError:
        eps = None
    want = []
    for i in range(n):
        try:
            want.append(_sample_episode_ref(*pair, problem, episode_rng(seed, i)))
        except decseq.ImpossibleUpdateError:
            assert eps is None
            return
    assert eps is not None
    assert _columns(eps) == want


@pytest.mark.parametrize("variant", ["P1", "P2"])
def test_sampler_applies_the_policies_own_rules(variant, monkeypatch):
    # every send and declaration comes from O1Policy.message and
    # O2Policy.decide_wald / decide_blank, called once per stage-table entry
    # that some episode reaches: a few dozen calls, not one per episode
    calls = collections.Counter()
    for cls, name in ((O1Policy, "message"), (O2Policy, "decide_wald"),
                      (O2Policy, "decide_blank")):
        def counted(self, *args, rule=getattr(cls, name), name=name):
            calls[name] += 1
            return rule(self, *args)
        monkeypatch.setattr(cls, name, counted)
    pair, problem, _, seed = _roundoff_case(variant)
    estimate_cost(pair, problem, 20000, seed)
    blank = {"decide_blank"} if variant == "P2" else set()
    assert set(calls) == {"message", "decide_wald"} | blank
    assert max(calls.values()) < 1000


@pytest.mark.parametrize("key0, key1", [(0, 0), (2 ** 64 - 1, 0), (0, 2 ** 64 - 1),
                                        (2 ** 64 - 1, 2 ** 64 - 1), (12345, 2 ** 63)])
def test_philox_kernel_matches_numpy(key0, key1):
    bits = np.random.Philox(key=(key1 << 64) | key0)
    want = bits.random_raw(12).reshape(3, 4)
    got = philox4x64(np.arange(1, 4, dtype=np.uint64),
                     np.full(3, key0, dtype=np.uint64),
                     np.full(3, key1, dtype=np.uint64))
    assert (got == want).all()


_WORD = st.integers(0, 2 ** 64 - 1)
_HALVES = (2 ** 64 - 1, 0xFFFFFFFF, 0xFFFFFFFF00000000)   # 32-bit halves all ones


@given(st.lists(st.tuples(_WORD, st.integers(1, 2 ** 64 - 1)), min_size=1, max_size=4),
       _WORD)
@example([(k, k) for k in _HALVES], 2 ** 64 - 1)
@example([(k, c) for k in _HALVES for c in _HALVES], 0xFFFFFFFF)
@example([(0, 1)], 0xFFFFFFFF00000000)
@settings(max_examples=100, deadline=None)
def test_philox_kernel_matches_numpy_on_any_words(lanes, key1):
    # one lane per (key0, counter c), key1 shared; numpy's Philox steps its
    # counter before each block, so block c follows counter c - 1
    key0, counter = (np.array(col, dtype=np.uint64) for col in zip(*lanes))
    got = philox4x64(counter, key0, key1)
    for row, (k0, c) in zip(got, lanes):
        want = np.random.Philox(key=(key1 << 64) | k0, counter=c - 1).random_raw(4)
        assert (row == want).all()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [4, 5, 8, 9])
def test_philox_streams_cross_block_boundaries(seed, count):
    n = 6
    draws = _PhiloxStreams(seed, n)
    got = [[] for _ in range(n)]
    # uneven calls, so episodes reach block boundaries at different calls:
    # one draw index for all, then one per episode
    schedule = [np.arange(n)] * count + [np.array([1, 4])] * count + [np.arange(n)] * count
    for call, idx in enumerate(schedule):
        j = np.array([len(got[i]) for i in idx])
        for i, r in zip(idx, draws(idx, int(j[0]) if call < count else j)):
            got[i].append(r)
    for i in range(n):
        want = episode_rng(seed, i).random(len(got[i]))
        assert got[i] == list(want)
