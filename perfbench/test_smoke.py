"""Smoke test of the benchmark itself on a tiny request list.

    python3 -m pytest -q perfbench/test_smoke.py

Runs the coverage round (one small request per CLI command) untraced and
traced, and checks that every metric is printed with its unit, that no request fails,
and that the traced run records spans in every layer.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

E2E = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
       "requests_per_s": "1/s", "episodes_per_s": "1/s", "peak_rss_mb": "MB",
       "error_rate": "ratio"}


def tiny(workload, seed, work_dir, n):
    """One round that touches every wrapped layer."""
    return [workloads.coverage_round(work_dir)]


def _printed(lines):
    out = {}
    for line in lines:
        m = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


@pytest.fixture(autouse=True)
def _single_thread(monkeypatch):
    monkeypatch.delenv("DECSEQ_THREADS", raising=False)


def test_untraced_prints_every_end_to_end_metric(tmp_path):
    summary, lines = run.run("montecarlo", 1, 0, False, generate=tiny,
                             out_root=tmp_path)
    printed = _printed(lines)
    for name, unit in E2E.items():
        assert printed[name][1] == unit, name
    assert printed["error_rate"][0] == 0.0
    assert summary["failed"] == 0 and summary["correct"]
    # the JSON line carries exactly the gated metrics, all positive
    assert set(summary["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert any(line.startswith("env ") for line in lines)


def test_traced_run_covers_every_layer(tmp_path):
    summary, lines = run.run("montecarlo", 1, 0, True, generate=tiny,
                             out_root=tmp_path)
    assert summary["failed"] == 0
    printed = _printed(lines)
    for name in list(run.LAYER_METRICS) + ["simulate.rng_share",
                                           "trace.overhead_ratio",
                                           "trace.accounted_ratio"]:
        assert name in printed, name
        assert name in summary["metrics"], name
    for layer in LAYERS:
        assert f"{layer}.self_s" in printed, layer
    assert set(summary["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    spans = np.load(tmp_path / "montecarlo-seed1-trace1" / "spans.npz")
    names = spans["names"][spans["name"]]
    for layer in LAYERS:
        assert any(n.split(".")[0] == layer for n in names), layer
    assert abs(printed["trace.accounted_ratio"][0] - 1.0) < 0.05
