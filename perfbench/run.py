"""decseq benchmark: seeded CLI requests run in-process, answers checked.

    python3 perfbench/run.py --workload designer --seed 1 --seconds 40 --trace 0

One client sends requests through ``decseq.cli.main`` in a closed loop: the
next request starts when the previous one returns.  One process, one
thread, DECSEQ_THREADS unset.  A run is ``workloads.round_count`` whole
rounds of the workload, which took about ``--seconds`` at the seed commit;
every round holds the same request classes with freshly drawn parameters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes the first
round plus the coverage round (one small request per CLI command), runs it
untraced as many times as a plain run has rounds, then once more with spans
around every module boundary (tracer.py), and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The lines before it repeat
every metric with its unit and add the ones the JSON line leaves out.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here, before any other import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3  # this process's import plus two fresh interpreters
TAIL_BEYOND = 10

# gated in BENCHMARK.json; error_rate and episodes_per_s are printed on the
# lines before the JSON line (error_rate is 0 on a correct program, and
# episodes_per_s exists only where requests simulate)
END_TO_END = ("setup_s", "latency_p50_s", "latency_tail_s", "requests_per_s",
              "peak_rss_mb")


@dataclass
class Outcome:
    request: workloads.Request
    out: str
    wall: float
    code: int | None
    error: str

    @property
    def ok(self):
        return self.code == 0


def call_cli(cli, request, out):
    """Run one request through ``cli.main``; never raises."""
    argv = request.argv + ["--out", str(out)]
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        error = "" if code == 0 else f"exit {code}: {buf.getvalue().strip()}"
    except Exception:  # a traceback is a failed request, not a dead benchmark
        code, error = None, traceback.format_exc()
    return Outcome(request, str(out), time.perf_counter() - start, code, error)


def closed_loop(cli, rounds, out_dir, outcomes):
    """Run every request of every round in turn; returns the loop time."""
    start = time.perf_counter()
    for requests in rounds:
        for req in requests:
            outcomes.append(call_cli(cli, req, out_dir / f"r{len(outcomes):05d}"))
    return time.perf_counter() - start


def tail_latency(samples):
    """Highest whole percentile (nearest rank) with at least TAIL_BEYOND
    samples above it: (value, percentile, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        v = xs[max(0, math.ceil(p * n / 100) - 1)]
        beyond = sum(1 for x in xs if x > v)
        if beyond >= TAIL_BEYOND:
            return v, p, beyond
    return xs[-1], 100, 0


def repeat_check(cli, outcomes, out_dir):
    """Rerun the first successful simulate request; episodes.csv must come
    out byte-identical.  Returns (outcome, reason or None), or None."""
    first = next((o for o in outcomes
                  if o.ok and o.request.command == "simulate"), None)
    if first is None:
        return None
    again = call_cli(cli, first.request, out_dir / "repeat")
    if not again.ok:
        return again, None
    same = ((Path(first.out) / "episodes.csv").read_bytes()
            == (Path(again.out) / "episodes.csv").read_bytes())
    return again, None if same else "repeated simulate wrote a different episodes.csv"


def calibration_ms(repeats=15):
    """Median time of a fixed integer loop, in ms, taken after the checks:
    a rough reading of how fast the host ran plain Python at the end of the
    run.  Not a metric; it helps to read spreads between runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for k in range(100000):
            acc += k * k
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def environment(seed, threads):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "DECSEQ_THREADS": threads, "seed": seed,
            "calibration_ms": calibration_ms(),
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted(SRC.rglob("*.py")))}


def end_to_end(outcomes, loop_s, setup_s, peak_rss_mb, failed, attempted):
    """Every end-to-end metric: {name: (value, unit, note)}."""
    walls = [o.wall for o in outcomes]
    tail, pct, beyond = tail_latency(walls)
    done = sum(1 for o in outcomes if o.ok)
    out = {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups plus "
                                  f"median of {IMPORT_REPEATS} decseq imports"),
        "latency_p50_s": (statistics.median(walls), "s",
                          f"{len(walls)} requests"),
        "latency_tail_s": (tail, "s", f"p{pct}, {beyond} of {len(walls)} "
                                      f"samples beyond"),
        "requests_per_s": (done / loop_s, "1/s", f"{done} in {loop_s:.3f} s"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the timed loop"),
        "error_rate": (failed / attempted, "ratio",
                       f"{failed} of {attempted} failed"),
    }
    sims = [o for o in outcomes if o.ok and o.request.command == "simulate"]
    if sims:
        episodes = sum(int(o.request.argv[o.request.argv.index("--n") + 1])
                       for o in sims)
        sim_s = sum(o.wall for o in sims)
        out["episodes_per_s"] = (episodes / sim_s, "1/s",
                                 f"{episodes} episodes in {sim_s:.3f} s")
    return out


# per-layer metric: (span name, field); field is "calls", "s" (inclusive
# seconds), "self_s", or a counter the tracer reads off the span's result
LAYER_METRICS = {
    "wald.cost_calls": ("wald.cost", "calls"),
    "wald.cost_s": ("wald.cost", "s"),
    "wald.finite_calls": ("wald.finite", "calls"),
    "wald.finite_s": ("wald.finite", "s"),
    "wald.infinite_s": ("wald.infinite", "s"),
    "wald.vi_iterations": ("wald.infinite", "wald.vi_iterations"),
    "seq_decomp.solve_calls": ("seq_decomp.solve", "calls"),
    "seq_decomp.solve_s": ("seq_decomp.solve", "s"),
    "seq_decomp.nodes": ("seq_decomp.solve", "seq_decomp.nodes"),
    "seq_decomp.partitions": ("seq_decomp.solve", "seq_decomp.partitions"),
    "belief.merge_calls": ("belief.merge", "calls"),
    "belief.merge_s": ("belief.merge", "s"),
    "belief.update1_calls": ("belief.update1", "calls"),
    "belief.update1_s": ("belief.update1", "s"),
    "policies.subjective_update_calls": ("policies.subjective_update", "calls"),
    "policies.subjective_update_s": ("policies.subjective_update", "s"),
    "policies.message_model_s": ("policies.message_model", "s"),
    "best_response.o1_calls": ("best_response.o1", "calls"),
    "best_response.o1_s": ("best_response.o1", "s"),
    "best_response.o2_calls": ("best_response.o2", "calls"),
    "best_response.o2_s": ("best_response.o2", "s"),
    "best_response.pbpo_rounds": ("best_response.pbpo",
                                  "best_response.pbpo_rounds"),
    "simulate.exact_calls": ("simulate.exact", "calls"),
    "simulate.exact_s": ("simulate.exact", "s"),
    "simulate.exact_self_s": ("simulate.exact", "self_s"),
    "simulate.mc_s": ("simulate.mc", "s"),
    "simulate.rng_calls": ("simulate.rng", "calls"),
    "simulate.rng_s": ("simulate.rng", "s"),
    "infinite_horizon.vi_o2_s": ("infinite_horizon.vi_o2", "s"),
    "infinite_horizon.vi_o2_iterations": ("infinite_horizon.vi_o2",
                                          "infinite_horizon.vi_o2_iterations"),
    "infinite_horizon.vi_o1_s": ("infinite_horizon.vi_o1", "s"),
    "oracle.enumerate_calls": ("oracle.enumerate", "calls"),
    "oracle.enumerate_s": ("oracle.enumerate", "s"),
    "oracle.pairs": ("oracle.enumerate", "oracle.pairs"),
    "model.load_calls": ("model.load", "calls"),
    "model.load_s": ("model.load", "s"),
    "cli.calls": ("cli", "calls"),
    "cli.s": ("cli", "s"),
}


def per_layer(tracer, n_workload, traced_wall, untraced_wall):
    """Every per-layer metric: {name: (value, unit, note)}, plus a line of
    self-time shares.  Requests from ``n_workload`` on are the coverage
    round."""
    summary = tracer.summary()
    own = tracer.summary(range(n_workload))
    out = {}
    for name, (span, field) in LAYER_METRICS.items():
        stats = summary[span]
        value = stats[field] if field in stats else tracer.counters.get(field, 0)
        unit = "s" if field in ("s", "self_s") else "count"
        note = ("" if own[span]["calls"]
                else f"only the coverage round calls {span} on this workload")
        out[name] = (value, unit, note)
    mc = summary["simulate.mc"]["s"]
    out["simulate.rng_share"] = (summary["simulate.rng"]["s"] / mc, "ratio",
                                 f"base: simulate.mc_s = {mc!r} s")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, stats in summary.items():
        layer_self[span.split(".")[0]] += stats["self_s"]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = (value, "s", "")
    accounted = sum(layer_self.values())
    out["trace.overhead_ratio"] = (
        traced_wall / untraced_wall, "ratio",
        f"traced {traced_wall:.6f} s / untraced {untraced_wall:.6f} s "
        f"(median per request) for the same requests")
    out["trace.accounted_ratio"] = (
        accounted / traced_wall, "ratio",
        f"layer self times {accounted:.6f} s / traced request wall "
        f"{traced_wall:.6f} s")
    out["trace.spans"] = (len(tracer.start), "count", "")
    shares = ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in
                       sorted(layer_self.items(), key=lambda kv: -kv[1]))
    return out, shares


def import_seconds(first):
    """Median seconds to import decseq.cli: ``first`` (this process's own
    import, timed from the top of this file) and fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import decseq.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(workload, seed, n_rounds, run_dir, generate):
    """Set up SETUP_REPEATS times; return (median seconds, rounds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        start = time.perf_counter()
        rounds = generate(workload, seed, run_dir / "inputs", n_rounds)
        times.append(time.perf_counter() - start)
    return statistics.median(times), rounds


def traced_run(cli, requests, repeats, req_dir):
    """Run ``requests`` ``repeats`` times untraced, then once traced.
    Returns (outcomes, tracer, traced wall, untraced wall as the sum of each
    request's median)."""
    outcomes = []
    closed_loop(cli, [requests] * repeats, req_dir, outcomes)
    n = len(requests)
    untraced = sum(statistics.median(o.wall for o in outcomes[i::n])
                   for i in range(n))
    tracer = Tracer()
    traced = []
    with tracer:
        for i, req in enumerate(requests):
            tracer.current_request = i
            traced.append(call_cli(cli, req, req_dir / f"t{i:05d}"))
    return outcomes + traced, tracer, sum(o.wall for o in traced), untraced


def check(cli, outcomes, req_dir):
    """Check every answer, including one repeated simulate request.
    Returns (outcomes with the repeat appended, failures, skipped checks),
    the last two as [(class, reason)]."""
    import checks

    bad, skipped = checks.check_outcomes(outcomes)
    repeat = repeat_check(cli, outcomes, req_dir)
    if repeat is not None:
        outcomes = outcomes + [repeat[0]]
        if repeat[1] is not None:
            bad[len(outcomes) - 1] = repeat[1]
    failures = [(o.request.cls, o.error) for o in outcomes if not o.ok]
    failures += [(outcomes[i].request.cls, reason) for i, reason in bad.items()]
    return outcomes, failures, skipped


def run(workload, seed, seconds, trace, generate=workloads.generate,
        out_root=OUT):
    """Run one workload; returns (JSON summary, lines to print before it)."""
    threads = os.environ.pop("DECSEQ_THREADS", None)
    import decseq.cli

    import_s = time.perf_counter() - _T0
    run_dir = Path(out_root) / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    n_rounds = workloads.round_count(workload, seconds)
    setup_s, rounds = set_up(workload, seed, 1 if trace else n_rounds,
                             run_dir, generate)
    setup_s += import_seconds(import_s)
    req_dir = run_dir / "requests"
    lines = []
    if not trace:
        timed = []
        loop_s = closed_loop(decseq.cli, rounds, req_dir, timed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes, failures, skipped = check(decseq.cli, timed, req_dir)
        metrics = end_to_end(timed, loop_s, setup_s, peak_rss_mb,
                             len(failures), len(outcomes))
        gated = END_TO_END
    else:
        n_workload = len(rounds[0])
        requests = rounds[0] + workloads.coverage_round(run_dir / "coverage")
        outcomes, tracer, traced_s, untraced_s = traced_run(
            decseq.cli, requests, n_rounds, req_dir)
        tracer.save(run_dir / "spans.npz")
        outcomes, failures, skipped = check(decseq.cli, outcomes, req_dir)
        metrics, shares = per_layer(tracer, n_workload, traced_s, untraced_s)
        lines.append(f"self-time share of traced request wall: {shares}")
        gated = tuple(metrics)

    env = environment(seed, threads)
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} = {value!r} {unit}"
                     + (f"  ({note})" if note else ""))
    lines.append("env " + json.dumps(env, sort_keys=True))
    for cls, reason in failures[:20]:
        last = reason.strip().splitlines()[-1] if reason.strip() else "?"
        lines.append(f"FAILED {cls}: {last}")
    for cls, reason in skipped:
        lines.append(f"check skipped {cls}: {reason}")
    summary = {"correct": not failures, "attempted": len(outcomes),
               "failed": len(failures),
               "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                           for k in gated}}
    (run_dir / "result.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "import_s": import_s,
        "metrics": {k: {"value": v, "unit": u, "note": n}
                    for k, (v, u, n) in metrics.items()},
        "failures": failures, "skipped_checks": skipped,
        "requests": [{"class": o.request.cls, "wall_s": o.wall, "code": o.code}
                     for o in outcomes]}, indent=1) + "\n")
    shutil.rmtree(req_dir, ignore_errors=True)
    return summary, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decseq" / "cli.py").is_file():
        print(f"error: no decseq sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    summary, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
