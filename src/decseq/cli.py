"""Batch command line interface.

Every subcommand reads a problem file, writes a self-describing
report.json (resolved configuration, digest of the inputs, wall time) plus
any artifact files into --out, and exits with: 0 success, 2 validation
error, 3 certification or structure mismatch, 4 enumeration or designer
search cap exceeded, 5 unreadable input file, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from .best_response import o1_best_response, o2_best_response, pbpo_iteration
from .errors import (CapacityError, CertificationError, DecseqError,
                     ImpossibleUpdateError, ProblemSpecError, StructureViolation, printable)
from .infinite_horizon import (_require_stationary, epsilon_optimal_pair, stationary_anchor,
                               value_iterate_o1, value_iterate_o2)
from .model import load_problem_spec
from .oracle import ORACLE_CAP_DEFAULT, enumerate_policies_p1, enumerate_policies_p2
from .policies import o1_to_dict, o2_to_dict, pair_from_dict, pair_to_dict
from .seq_decomp import solve_p1, solve_p2
from .simulate import check_pair, estimate_cost, exact_cost
from .wald import GRID_SIZE_DEFAULT, belief_grid, solve_wald_finite, wald_cost

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_CAP = 4
EXIT_UNREADABLE = 5
EXIT_USAGE = 64

CERT_TOL = 1e-9
_CSV_BLOCK = 4096  # rows per write; bounds the text held at once


class _UsageError(Exception):
    pass


class _FileError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), hashlib.sha256(text.encode("utf-8")).hexdigest()
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise _FileError(f"{path} is not valid JSON: {exc}") from exc


def _load_problem(path):
    doc, digest = _read_json(path)
    if not isinstance(doc, dict):  # load_problem_spec reads a str as JSON text
        raise ProblemSpecError("$", "top level must be an object")
    return load_problem_spec(doc), digest


def _write_json(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_wald_csv(out_dir, thresholds):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "wald_thresholds.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,w1,w2\n")
        fh.writelines(f"{k},{float(w1)!r},{float(w2)!r}\n"
                      for k, (w1, w2) in enumerate(thresholds))
    return path


def _dense_rank(col):
    """Rank of each entry among the distinct values of col (sorted), and
    the number of distinct values.  np.unique would import numpy.ma."""
    s = np.sort(col)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return np.searchsorted(s[keep], col), int(keep.sum())


def _row_codes(columns):
    """Codes in [0, k) equal for two rows iff the rows agree in every
    column, and one row index per code.

    Columns are packed by min/span offsets.  A column wider than the row
    count n is replaced by its dense rank, and so is the packed code once
    it can exceed n, so no product exceeds n**2.  One np.bincount then
    compacts the codes present (after a dense rank if they span over 4n).
    """
    n = len(columns[0])
    code, size = 0, 1
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span > n:
            col, span, lo = *_dense_rank(col), 0
        if size > n:
            code, size = _dense_rank(code)
        code = code * span + (col - lo)
        size *= span
    code, size = _dense_rank(code) if size > 4 * n else (code, size)
    present = np.bincount(code, minlength=size) > 0
    code, k = (np.cumsum(present) - 1).take(code), int(present.sum())
    rep = np.empty(k, dtype=np.intp)
    rep[code] = np.arange(n)  # any row of a group will do
    return code, rep


def _write_episodes_csv(out_dir, episodes):
    """episodes.csv with one row per episode: its index, then h, tau1, tau2,
    message, decision (str) and cost (repr).

    Episodes repeat a few outcomes, so Python formats each distinct tail
    after the index once, into a row of a byte table zero-padded to a
    common width.  Rows are keyed by the int columns (an estimate_cost
    row's cost is c1*tau1 + c2*tau2 + loss[u][h]); the cost's bit pattern
    joins the key only if some cost differs from its key's.  Each block of
    at most _CSV_BLOCK rows, whose indices all have the same digit count,
    is one uint8 grid: the index digits four at a time from a table of the
    rows "0000" to "9999", then each row's tail gathered by its code.  The
    text holds no zero byte, so one mask of the nonzero bytes drops the
    padding, and the block is written straight from the array: no per-row
    Python object is made, and the text held at once stays one block.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "episodes.csv")
    ints = (episodes.h, episodes.tau1, episodes.tau2, episodes.message,
            episodes.decision)
    code, rep = _row_codes(ints)
    bits = episodes.cost.view(np.int64)
    if not (bits.take(rep).take(code) == bits).all():
        code, rep = _row_codes(ints + (bits,))
    # a numpy bytes array pads its items with zero bytes to the longest
    tails = np.array([f",{h},{t1},{t2},{z},{u},{c!r}\n".encode() for h, t1, t2, z, u, c in
                      zip(*(col[rep].tolist() for col in ints + (episodes.cost,)))])
    table = tails.view(np.uint8).reshape(len(tails), -1)
    digits4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).copy()
    with open(path, "wb") as fh:
        fh.write(b"episode,h,tau1,tau2,message,decision,cost\n")
        lo = 0
        while lo < len(code):
            digits = len(str(lo))
            hi = min(len(code), lo + _CSV_BLOCK, 10 ** digits)
            grid = np.empty((hi - lo, digits + table.shape[1]), dtype=np.uint8)
            index = np.arange(lo, hi)
            for end in range(digits, 0, -4):  # four digits at a time, from the right
                grid[:, max(end - 4, 0):end] = digits4.take(index % 10_000, axis=0)[:, -end:]
                index //= 10_000
            grid[:, digits:] = table.take(code[lo:hi], axis=0)
            fh.write(grid[grid != 0])
            lo = hi
    return path


def _config(args):
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func",):
            continue
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_wald(args):
    problem, digest = _load_problem(args.spec)
    horizon = args.horizon if args.horizon is not None else problem.t2
    sol = solve_wald_finite(problem.channel2, problem.costs, horizon)
    thresholds = sol.crossings[::-1]
    _write_wald_csv(args.out, thresholds)
    return {"spec_digest": digest, "horizon": horizon,
            "cost_at_prior": wald_cost(sol, problem.prior, horizon),
            "thresholds": [[w1, w2] for w1, w2 in thresholds]}, EXIT_OK


def _cmd_best_response(args):
    problem, digest = _load_problem(args.spec)
    if args.pbpo:
        res = pbpo_iteration(problem, max_rounds=args.rounds)
        _write_json(args.out, "policies.json", pair_to_dict(res.o1, res.o2))
        return {"spec_digest": digest, "mode": "pbpo", "trace": res.trace,
                "rounds": res.rounds, "converged": res.converged,
                "cost": res.trace[-1]}, EXIT_OK
    if args.policies is None or args.side is None:
        raise _UsageError("best-response needs --policies and --side "
                          "(or --pbpo)")
    doc, pdigest = _read_json(args.policies)
    o1, o2 = pair_from_dict(doc)
    if args.side == 1:
        res = o1_best_response(o2, problem)
        o1 = res.policy
    else:
        res = o2_best_response(o1, problem)
        o2 = res.policy
    _write_json(args.out, "policies.json", pair_to_dict(o1, o2))
    return {"spec_digest": digest, "policies_digest": pdigest,
            "side": args.side, "cost": res.total}, EXIT_OK


def _designer_checked(problem):
    """Designer optimum, its exact_cost check, and the report's profile
    block: seconds in the search (enumerating nodes, that is building
    children and keying them, then valuing them), in extraction (the
    sender's policy walk and the receiver's best response) and in the
    check, the valuation's work (message runs and fresh-observation terms
    priced), and the search's seconds stage by stage."""
    sol = solve_p1(problem) if problem.variant == "P1" else solve_p2(problem)
    start = time.perf_counter()
    check = exact_cost((sol.o1, sol.o2), problem).total
    profile = {"search_s": sol.search_s, "enumerate_s": sol.enumerate_s,
               "build_s": sol.build_s, "key_s": sol.key_s,
               "value_s": sol.value_s, "extract_s": sol.extract_s,
               "check_s": time.perf_counter() - start,
               "priced_runs": sol.priced_runs, "priced_terms": sol.priced_terms,
               "stages": list(sol.stage_seconds)}
    return sol, check, profile


def _solve_designer(args, want_variant):
    problem, digest = _load_problem(args.spec)
    if problem.variant != want_variant:
        raise ProblemSpecError("variant", f"instance is {problem.variant}, "
                                          f"command needs {want_variant}")
    sol, check, profile = _designer_checked(problem)
    _write_json(args.out, "policies.json", pair_to_dict(sol.o1, sol.o2))
    _write_wald_csv(args.out, sol.o2.wald_rules)
    return _certified({"spec_digest": digest, "variant": want_variant,
                       "cost": sol.total, "exact_cost_check": check,
                       "nodes": sol.nodes, "partitions_tried": sol.partitions_tried,
                       "memo_hits": sol.memo_hits, "stage_stats": list(sol.stage_stats),
                       "profile": profile}, sol, check)


def _certified(payload, sol, check):
    """Report and exit code of designer optimum ``sol`` checked at ``check``."""
    if abs(check - sol.total) > CERT_TOL:
        payload["error"] = "reported optimum does not match exact evaluation"
        return payload, EXIT_CERTIFICATION
    return payload, EXIT_OK


def _cmd_solve_p1(args):
    return _solve_designer(args, "P1")


def _cmd_solve_p2(args):
    return _solve_designer(args, "P2")


def _cmd_solve_infinite(args):
    belief_grid(args.grid)  # reject a bad --grid before any solve
    problem, digest = _load_problem(args.spec)
    _require_stationary(problem)
    payload = {"spec_digest": digest}
    if args.policies is not None:
        doc, _ = _read_json(args.policies)
        o1, o2 = pair_from_dict(doc)
        check_pair(o1, o2, problem)  # the P2 receiver limit never reads o2
    else:
        sol = solve_p1(problem) if problem.variant == "P1" else solve_p2(problem)
        o1, o2 = sol.o1, sol.o2
    lim2 = value_iterate_o2(o1, problem, grid_size=args.grid)
    # the receiver limit's post-message part is solve_wald_infinite's result
    inf = lim2.wald
    payload["stationary_wald"] = {"w1": inf.w1, "w2": inf.w2,
                                  "iterations": inf.n_iter,
                                  "converged": inf.converged}
    payload["receiver_limit"] = {
        "w1": inf.w1, "w2": inf.w2,
        "iterations": inf.n_iter, "converged": inf.converged,
        "max_increase": inf.max_increase,
        "blank_thresholds": {str(t): [a, b]
                             for t, (a, b) in lim2.blank_thresholds.items()}}
    if problem.variant == "P1":
        # with no stationary anchor the sender limit is skipped, not faked
        anchor = stationary_anchor(o2, problem)
        if anchor is not None:
            lim1 = value_iterate_o1(anchor, problem, grid_size=args.grid)
            payload["sender_limit"] = {
                "four_thresholds": list(lim1.four_thresholds),
                "iterations": lim1.n_iter, "converged": lim1.converged,
                "max_increase": lim1.max_increase,
                "anchor": "first-stage arrival factors repeated"}
        else:
            payload["sender_limit"] = {
                "skipped": "receiver's arrival model has an informative "
                           "blank factor; no stationary anchor"}
    code = EXIT_OK
    if args.epsilon is not None:
        try:
            pair = epsilon_optimal_pair(problem, args.epsilon, max_horizon=args.max_horizon)
        except CertificationError as exc:
            if exc.best is None:  # raised inside a solve: no pair to write
                raise
            # the best pair found still goes out, with its certificates
            pair, code, payload["error"] = exc.best, EXIT_CERTIFICATION, str(exc)
        _write_json(args.out, "policies.json", pair_to_dict(pair.o1, pair.o2))
        payload["epsilon_pair"] = {
            "requested": args.epsilon, "achieved": pair.epsilon,
            "horizon": pair.horizon, "cost": pair.cost,
            "certificates": [c.to_dict() for c in pair.certificates]}
    return payload, code


def _cmd_simulate(args):
    problem, digest = _load_problem(args.spec)
    doc, pdigest = _read_json(args.policies)
    policies = pair_from_dict(doc)
    start = time.perf_counter()
    summary, episodes = estimate_cost(policies, problem, args.n, args.seed)
    sampled = time.perf_counter()
    exact = exact_cost(policies, problem).total
    evaluated = time.perf_counter()
    _write_episodes_csv(args.out, episodes)
    profile = {"sample_s": sampled - start, "exact_s": evaluated - sampled,
               "write_s": time.perf_counter() - evaluated,
               "philox_blocks": summary.philox_blocks, "max_states": summary.max_states}
    return {"spec_digest": digest, "policies_digest": pdigest,
            "n": summary.n, "seed": summary.seed,
            "mean_cost": summary.mean_cost, "stderr": summary.stderr,
            "mean_tau1": summary.mean_tau1, "mean_tau2": summary.mean_tau2,
            "error_rate": summary.error_rate, "exact_cost": exact,
            "abs_diff": abs(summary.mean_cost - exact),
            "profile": profile}, EXIT_OK


def _cmd_oracle_check(args):
    problem, digest = _load_problem(args.spec)
    # the oracle first: it refuses a spec past its cap before any work
    if problem.variant == "P1":
        orc = enumerate_policies_p1(problem, cap=args.cap)
        sol = solve_p1(problem)
    else:
        orc = enumerate_policies_p2(problem, cap=args.cap)
        sol = solve_p2(problem)
    diff = abs(sol.total - orc.cost)
    payload = {"spec_digest": digest, "solver_cost": sol.total,
               "oracle_cost": orc.cost, "abs_diff": diff,
               "pairs_covered": printable(orc.count)}
    if diff > CERT_TOL:
        payload["error"] = f"solver and oracle disagree by {diff}"
        return payload, EXIT_CERTIFICATION
    return payload, EXIT_OK


def _cmd_mary(args):
    problem, digest = _load_problem(args.spec)
    if problem.n_messages < 3:
        raise ProblemSpecError("M", f"mary needs at least 3 message symbols, "
                                    f"got {problem.n_messages}")
    sol, check, profile = _designer_checked(problem)
    # each stage's send intervals, highest symbol (lowest beliefs) first
    stages = [[x for iv in reversed(rule.send) if iv is not None for x in iv]
              for rule in sol.o1.stages]
    _write_json(args.out, "policies.json", pair_to_dict(sol.o1, sol.o2))
    return _certified({"spec_digest": digest, "cost": sol.total,
                       "exact_cost_check": check, "m": problem.n_messages,
                       "stage_thresholds": stages,
                       "terminal_cuts": list(sol.o1.terminal.cuts),
                       "stage_stats": list(sol.stage_stats), "profile": profile},
                      sol, check)


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process; parse_args gives every
    call a fresh Namespace."""
    p = _Parser(prog="decseq",
                description="Exact solvers, simulators, and oracles for "
                            "two-observer sequential detection.")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--spec", required=True, help="problem JSON file")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("solve-wald", help="single-observer sampling problem")
    common(sp)
    sp.add_argument("--horizon", type=int, default=None)
    sp.set_defaults(func=_cmd_solve_wald)

    sp = sub.add_parser("best-response", help="one observer's exact response")
    common(sp)
    sp.add_argument("--policies", default=None, help="pair JSON to respond to")
    sp.add_argument("--side", type=int, choices=(1, 2), default=None,
                    help="which observer responds")
    sp.add_argument("--pbpo", action="store_true",
                    help="alternate responses to a fixed point")
    sp.add_argument("--rounds", type=int, default=50)
    sp.set_defaults(func=_cmd_best_response)

    sp = sub.add_parser("solve-p1", help="designer optimum, wait-then-sample")
    common(sp)
    sp.set_defaults(func=_cmd_solve_p1)

    sp = sub.add_parser("solve-p2", help="designer optimum, interleaved")
    common(sp)
    sp.set_defaults(func=_cmd_solve_p2)

    sp = sub.add_parser("solve-infinite", help="no-deadline limits and "
                                               "epsilon-optimal pairs")
    common(sp)
    sp.add_argument("--grid", type=int, default=GRID_SIZE_DEFAULT)
    sp.add_argument("--policies", default=None)
    sp.add_argument("--epsilon", type=float, default=None,
                    help="also solve horizons 1, 2, ... until the returned pair's own "
                         "truncation loss (its tail masses at its deadline) is at most "
                         "epsilon; this does not bound its gap to the no-deadline optimum")
    sp.add_argument("--max-horizon", dest="max_horizon", type=int, default=6)
    sp.set_defaults(func=_cmd_solve_infinite)

    sp = sub.add_parser("simulate", help="Monte Carlo check of a policy pair")
    common(sp)
    sp.add_argument("--policies", required=True)
    sp.add_argument("--n", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("oracle-check", help="diff the solver against "
                                             "brute force")
    common(sp)
    sp.add_argument("--cap", type=int, default=ORACLE_CAP_DEFAULT,
                    help="refuse (exit 4) before enumerating when the oracle's closed-form "
                         "work bound exceeds this: stopping-rule tree nodes built plus "
                         "sender maps times stopping rules (P1), or sender maps times "
                         "receiver decision nodes (P2)")
    sp.set_defaults(func=_cmd_oracle_check)

    sp = sub.add_parser("mary", help="larger message alphabets")
    common(sp)
    sp.set_defaults(func=_cmd_mary)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "func", None) is None:
        print("usage error: no subcommand given", file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        payload, code = args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except (ProblemSpecError, ImpossibleUpdateError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (StructureViolation, CertificationError) as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except CapacityError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except DecseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    payload["command"] = args.command
    payload["config"] = _config(args)
    payload["wall_time_s"] = time.perf_counter() - start
    _write_report = _write_json(args.out, "report.json", payload)
    if code == EXIT_OK:
        print(f"ok: report at {_write_report}")
    else:
        error = f"{payload['error']}; " if "error" in payload else ""
        print(f"FAILED ({code}): {error}report at {_write_report}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
