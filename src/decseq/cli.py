"""Batch command line interface.

Every subcommand reads a problem file, writes a self-describing
report.json (resolved configuration, digest of the inputs, wall time) plus
any artifact files into --out, and exits with: 0 success, 2 validation
error, 3 certification or structure mismatch, 4 enumeration cap exceeded,
5 unreadable input file, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .best_response import o1_best_response, o2_best_response, pbpo_iteration
from .errors import (CapacityError, CertificationError, DecseqError,
                     ImpossibleUpdateError, ProblemSpecError,
                     StructureViolation, UnreachableBranchError)
from .infinite_horizon import (epsilon_optimal_pair, value_iterate_o1,
                               value_iterate_o2)
from .model import load_problem_spec
from .oracle import enumerate_policies_p1, enumerate_policies_p2
from .policies import BLANK, o1_to_dict, o2_to_dict, pair_from_dict, pair_to_dict
from .seq_decomp import solve_p1, solve_p2
from .simulate import estimate_cost, exact_cost
from .wald import solve_wald_finite, solve_wald_infinite

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
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text), hashlib.sha256(text.encode("utf-8")).hexdigest()
    except json.JSONDecodeError as exc:
        raise _FileError(f"{path} is not valid JSON: {exc}") from exc


def _load_problem(path):
    doc, digest = _read_json(path)
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
    it can exceed n, so no product exceeds n**2.
    """
    n = len(columns[0])
    code, size = np.zeros(n, dtype=np.int64), 1
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span > n:
            col, span = _dense_rank(col)
            lo = 0
        if size > n:
            code, size = _dense_rank(code)
        code = code * span + (col - lo)
        size *= span
    code, k = _dense_rank(code)
    rep = np.empty(k, dtype=np.intp)
    rep[code] = np.arange(n)  # any row of a group will do
    return code, rep


def _write_episodes_csv(out_dir, episodes):
    """episodes.csv with one row per episode: its index, then h, tau1, tau2,
    message, decision (str) and cost (repr).

    Episodes repeat a few outcomes, so each distinct tail after the index is
    formatted once and the rows stream out as index + cached tail, joined
    _CSV_BLOCK rows at a time.  The cost joins the key by its bit pattern,
    so rows equal in the ints but not in the cost keep their own tails.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "episodes.csv")
    ints = (episodes.h, episodes.tau1, episodes.tau2, episodes.message,
            episodes.decision)
    code, rep = _row_codes(ints + (episodes.cost.view(np.int64),))
    tails = [f",{h},{t1},{t2},{z},{u},{c!r}\n" for h, t1, t2, z, u, c in
             zip(*(col[rep].tolist() for col in ints + (episodes.cost,)))]
    rows = code.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("episode,h,tau1,tau2,message,decision,cost\n")
        fh.writelines("".join(map(str.__add__, map(str, range(lo, lo + _CSV_BLOCK)),
                                  map(tails.__getitem__, rows[lo:lo + _CSV_BLOCK])))
                      for lo in range(0, len(rows), _CSV_BLOCK))
    return path


def _config(args):
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func",):
            continue
        out[k] = v
    return out


def _check_tol(tol):
    # NaN would make every convergence test and every "diff > tol" false
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ProblemSpecError("tol", f"need a finite value >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve_wald(args):
    problem, digest = _load_problem(args.spec)
    horizon = args.horizon if args.horizon is not None else problem.t2
    sol = solve_wald_finite(problem.channel2, problem.costs, horizon)
    cost = sol.value(problem.prior, horizon)
    _write_wald_csv(args.out, sol.thresholds)
    return {"spec_digest": digest, "horizon": horizon,
            "cost_at_prior": cost,
            "thresholds": [[w1, w2] for w1, w2 in sol.thresholds]}, EXIT_OK


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
    block: seconds in the search, in extraction (policy walk, stopping
    table, message model) and in the check."""
    sol = solve_p1(problem) if problem.variant == "P1" else solve_p2(problem)
    start = time.perf_counter()
    check = exact_cost((sol.o1, sol.o2), problem).total
    profile = {"search_s": sol.search_s, "extract_s": sol.extract_s,
               "check_s": time.perf_counter() - start}
    return sol, check, profile


def _solve_designer(args, want_variant):
    problem, digest = _load_problem(args.spec)
    if problem.variant != want_variant:
        raise ProblemSpecError("variant", f"instance is {problem.variant}, "
                                          f"command needs {want_variant}")
    sol, check, profile = _designer_checked(problem)
    _write_json(args.out, "policies.json", pair_to_dict(sol.o1, sol.o2))
    _write_wald_csv(args.out, sol.o2.wald_rules)
    payload = {"spec_digest": digest, "variant": want_variant,
               "cost": sol.total, "exact_cost_check": check,
               "nodes": sol.nodes, "partitions_tried": sol.partitions_tried,
               "memo_hits": sol.memo_hits, "profile": profile}
    if abs(check - sol.total) > CERT_TOL:
        payload["error"] = "reported optimum does not match exact evaluation"
        return payload, EXIT_CERTIFICATION
    return payload, EXIT_OK


def _cmd_solve_p1(args):
    return _solve_designer(args, "P1")


def _cmd_solve_p2(args):
    return _solve_designer(args, "P2")


def _cmd_solve_infinite(args):
    _check_tol(args.tol)
    problem, digest = _load_problem(args.spec)
    payload = {"spec_digest": digest}
    inf = solve_wald_infinite(problem.channel2, problem.costs,
                              grid_size=args.grid, tol=args.tol)
    payload["stationary_wald"] = {"w1": inf.w1, "w2": inf.w2,
                                  "iterations": inf.n_iter,
                                  "converged": inf.converged}
    if args.policies is not None:
        doc, _ = _read_json(args.policies)
        o1, o2 = pair_from_dict(doc)
    else:
        sol = solve_p1(problem) if problem.variant == "P1" else solve_p2(problem)
        o1, o2 = sol.o1, sol.o2
    lim2 = value_iterate_o2(o1, problem, grid_size=args.grid, tol=args.tol)
    payload["receiver_limit"] = {
        "w1": lim2.wald.w1, "w2": lim2.wald.w2,
        "iterations": lim2.n_iter, "converged": lim2.converged,
        "max_increase": lim2.max_increase,
        "blank_thresholds": {str(t): [a, b]
                             for t, (a, b) in lim2.blank_thresholds.items()}}
    if problem.variant == "P1":
        # The sender limit needs arrival factors that do not depend on the
        # stage.  Repeat the receiver's first-stage factors when its blank
        # factor carries no hypothesis information; otherwise no stationary
        # anchor exists and the limit is skipped rather than faked.
        first = dict(o2.message_model[0])
        mb = first.get(BLANK, (0.0, 0.0))
        if abs(mb[0] - mb[1]) <= 0.0:
            anchor = dataclasses.replace(
                o2, message_model=tuple(first for _ in range(problem.t1)))
            lim1 = value_iterate_o1(anchor, problem,
                                    grid_size=args.grid, tol=args.tol)
            payload["sender_limit"] = {
                "four_thresholds": list(lim1.four_thresholds),
                "iterations": lim1.n_iter, "converged": lim1.converged,
                "max_increase": lim1.max_increase,
                "anchor": "first-stage arrival factors repeated"}
        else:
            payload["sender_limit"] = {
                "skipped": "receiver's arrival model has an informative "
                           "blank factor; no stationary anchor"}
    if args.epsilon is not None:
        pair = epsilon_optimal_pair(problem, args.epsilon,
                                    max_horizon=args.max_horizon)
        _write_json(args.out, "policies.json", pair_to_dict(pair.o1, pair.o2))
        payload["epsilon_pair"] = {
            "requested": args.epsilon, "achieved": pair.epsilon,
            "horizon": pair.horizon, "cost": pair.cost,
            "certificates": [c.to_dict() for c in pair.certificates]}
    return payload, EXIT_OK


def _cmd_simulate(args):
    problem, digest = _load_problem(args.spec)
    doc, pdigest = _read_json(args.policies)
    policies = pair_from_dict(doc)
    start = time.perf_counter()
    summary, episodes = estimate_cost(policies, problem, args.n, args.seed,
                                      collect=True)
    sampled = time.perf_counter()
    exact = exact_cost(policies, problem).total
    evaluated = time.perf_counter()
    _write_episodes_csv(args.out, episodes)
    profile = {"sample_s": sampled - start, "exact_s": evaluated - sampled,
               "write_s": time.perf_counter() - evaluated}
    return {"spec_digest": digest, "policies_digest": pdigest,
            "n": summary.n, "seed": summary.seed,
            "mean_cost": summary.mean_cost, "stderr": summary.stderr,
            "mean_tau1": summary.mean_tau1, "mean_tau2": summary.mean_tau2,
            "error_rate": summary.error_rate, "exact_cost": exact,
            "abs_diff": abs(summary.mean_cost - exact),
            "profile": profile}, EXIT_OK


def _cmd_oracle_check(args):
    _check_tol(args.tol)
    problem, digest = _load_problem(args.spec)
    if problem.variant == "P1":
        sol = solve_p1(problem)
        orc = enumerate_policies_p1(problem, cap=args.cap)
    else:
        sol = solve_p2(problem)
        orc = enumerate_policies_p2(problem, cap=args.cap)
    diff = abs(sol.total - orc.cost)
    payload = {"spec_digest": digest, "solver_cost": sol.total,
               "oracle_cost": orc.cost, "abs_diff": diff,
               "pairs_covered": orc.count}
    if diff > args.tol:
        payload["error"] = f"solver and oracle disagree by {diff}"
        return payload, EXIT_CERTIFICATION
    return payload, EXIT_OK


def _cmd_mary(args):
    problem, digest = _load_problem(args.spec)
    if problem.n_messages < 3:
        raise ProblemSpecError("M", f"mary needs at least 3 message symbols, "
                                    f"got {problem.n_messages}")
    sol, check, profile = _designer_checked(problem)
    stages = []
    for rule in sol.o1.stages:
        edges = []
        for z in range(problem.n_messages - 1, -1, -1):
            iv = rule.send[z]
            if iv is not None:
                edges.extend([iv[0], iv[1]])
        if len(edges) > 2 * problem.n_messages:
            raise StructureViolation(
                f"stage rule has {len(edges)} thresholds, "
                f"limit {2 * problem.n_messages}")
        stages.append(edges)
    payload = {"spec_digest": digest, "cost": sol.total,
               "exact_cost_check": check, "m": problem.n_messages,
               "stage_thresholds": stages,
               "terminal_cuts": list(sol.o1.terminal.cuts), "profile": profile}
    _write_json(args.out, "policies.json", pair_to_dict(sol.o1, sol.o2))
    if abs(check - sol.total) > CERT_TOL:
        payload["error"] = "reported optimum does not match exact evaluation"
        return payload, EXIT_CERTIFICATION
    return payload, EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser():
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
    sp.add_argument("--grid", type=int, default=1001)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--policies", default=None)
    sp.add_argument("--epsilon", type=float, default=None)
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
    sp.add_argument("--cap", type=int, default=10 ** 8)
    sp.add_argument("--tol", type=float, default=1e-9)
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
    except (ProblemSpecError, ImpossibleUpdateError,
            UnreachableBranchError) as exc:
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
        print(f"FAILED ({code}): report at {_write_report}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
