"""Outside-in tracing of decseq's module boundaries.

``Tracer`` wraps the public functions listed in ``TARGETS`` while it is
installed and restores the originals afterwards.  ``from .x import f``
binds ``f`` in the importing module too, so every ``decseq`` module that
holds the original function object gets the wrapper.

Each call records a span: name, start, end, parent span and request id.
Spans stay in flat arrays in memory until ``save`` writes them out.  A
span's self time is its duration minus the time its child spans cover.

Limits: a wrapper sees calls that cross a module boundary through a
patched name.  Calls a module makes to its own private helpers, or to
itself (``WaldSolution.value`` recursing), stay inside the caller's span.
Spans assume one thread, so the benchmark runs with DECSEQ_THREADS unset.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, function, span name, counters read from the result)
TARGETS = (
    ("decseq.cli", "main", "cli", None),
    ("decseq.model", "load_problem_spec", "model.load", None),
    ("decseq.belief", "merge_atoms", "belief.merge", None),
    ("decseq.belief", "update_observer1", "belief.update1", None),
    ("decseq.wald", "wald_cost", "wald.cost", None),
    ("decseq.wald", "solve_wald_finite", "wald.finite", None),
    ("decseq.wald", "solve_wald_infinite", "wald.infinite",
     {"wald.vi_iterations": "n_iter"}),
    ("decseq.policies", "subjective_update", "policies.subjective_update",
     None),
    ("decseq.policies", "build_message_model", "policies.message_model",
     None),
    ("decseq.seq_decomp", "solve_p1", "seq_decomp.solve",
     {"seq_decomp.nodes": "nodes", "seq_decomp.partitions": "partitions_tried"}),
    ("decseq.seq_decomp", "solve_p2", "seq_decomp.solve",
     {"seq_decomp.nodes": "nodes", "seq_decomp.partitions": "partitions_tried"}),
    ("decseq.best_response", "o1_best_response", "best_response.o1", None),
    ("decseq.best_response", "o2_best_response", "best_response.o2", None),
    ("decseq.best_response", "pbpo_iteration", "best_response.pbpo",
     {"best_response.pbpo_rounds": "rounds"}),
    ("decseq.simulate", "exact_cost", "simulate.exact", None),
    ("decseq.simulate", "estimate_cost", "simulate.mc", None),
    ("decseq.simulate", "episode_rng", "simulate.rng", None),
    ("decseq.infinite_horizon", "value_iterate_o2", "infinite_horizon.vi_o2",
     {"infinite_horizon.vi_o2_iterations": "n_iter"}),
    ("decseq.infinite_horizon", "value_iterate_o1", "infinite_horizon.vi_o1",
     None),
    ("decseq.oracle", "enumerate_policies_p1", "oracle.enumerate",
     {"oracle.pairs": "count"}),
    ("decseq.oracle", "enumerate_policies_p2", "oracle.enumerate",
     {"oracle.pairs": "count"}),
)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for _, _, name, _ in TARGETS))


class Tracer:
    """Records spans around ``TARGETS`` while installed (a context manager)."""

    def __init__(self):
        self.names = list(dict.fromkeys(name for _, _, name, _ in TARGETS))
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.request = array("i")
        self.counters = {}
        self.current_request = -1
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name_id, fields):
        start, end, parent, name = self.start, self.end, self.parent, self.name
        request, stack, counters = self.request, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            request.append(tracer.current_request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if fields:
                for key, attr in fields.items():
                    counters[key] = counters.get(key, 0) + getattr(out, attr)
            return out

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "decseq" or n.startswith("decseq.")]
        for mod_name, fn_name, span, fields in TARGETS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(original, self.names.index(span), fields)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, requests=None):
        """Per span name: calls, inclusive seconds and self seconds.

        ``requests`` (a collection of request ids) restricts it to the
        spans of those requests.
        """
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        if requests is not None:
            keep = np.isin(np.frombuffer(self.request, dtype=np.int32),
                           list(requests))
            name, dur, own = name[keep], dur[keep], own[keep]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(incl[i]),
                    "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 request=np.frombuffer(self.request, dtype=np.int32))
