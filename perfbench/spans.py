"""Spans for the traced run, recorded from the benchmark's own files.

``Tracer.install`` wraps the program's public functions listed in TARGETS.
Modules bind imports by name (``cli`` and ``counterexample`` each hold their
own ``d_infty_parametric``), so every ``fuzzymetrics`` module attribute that
is the original object is replaced, and ``endpoints`` is replaced on both
carrier classes.  Each call becomes a span (name, parent span, start, end)
kept in flat in-memory arrays; spans are written to a file only after the
measurement ends.  A span's self time is its duration minus the durations of
its child spans: the run is single-threaded, so children never overlap.

Counts read from arguments or results (levels per endpoint call, BnB nodes
from ``Enclosure.nodes``, ...) are tallied per report beside the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np
from fuzzymetrics.metrics import DEFAULT_TOL


def _endpoint_levels(tally, result, args, kwargs):
    alphas = args[1] if len(args) > 1 else kwargs["alphas"]
    tally["core.endpoint_levels"] += int(np.size(alphas))


def _bnb(tally, result, args, kwargs):
    tol = args[2] if len(args) > 2 else kwargs.get("tol", DEFAULT_TOL)
    tally["metrics.bnb_nodes"] += result.nodes
    tally["metrics.bnb_tol_met"] += result.width <= tol


def _convergence(tally, result, args, kwargs):
    tally["metrics.convergence_members"] += result.n_max


def _decoded(tally, result, args, kwargs):
    tally["serialize.decode_objects"] += 1


def _dumped(tally, result, args, kwargs):
    tally["serialize.dumps_bytes"] += len(result.encode("utf-8"))


# (module, attribute path, span name, count hook).  Functions that share a
# span name form one layer: its time counts the outermost span only.
TARGETS = [
    ("fuzzymetrics.cli", "run", "cli", None),
    ("fuzzymetrics.counterexample", "refutation_report", "counterexample.refutation", None),
    ("fuzzymetrics.counterexample", "make_un", "counterexample.make_un", None),
    ("fuzzymetrics.counterexample", "family_modulus_oracle", "counterexample.oracle", None),
    ("fuzzymetrics.counterexample", "pairwise_dinf_oracle", "counterexample.oracle", None),
    ("fuzzymetrics.metrics", "level_convergence_report", "metrics.convergence_scan", _convergence),
    ("fuzzymetrics.metrics", "d_infty_parametric", "metrics.bnb", _bnb),
    ("fuzzymetrics.core", "CutCurve1D.endpoints", "core.endpoints", _endpoint_levels),
    ("fuzzymetrics.core", "SampledFuzzy1D.endpoints", "core.endpoints", _endpoint_levels),
    ("fuzzymetrics.family", "compactness_conditions_report", "family.compactness", None),
    ("fuzzymetrics.family", "equi_continuity_report", "family.equi_report", None),
    ("fuzzymetrics.family", "support_bound", "family.support_bound", None),
    ("fuzzymetrics.family", "left_modulus", "family.left_modulus", None),
    ("fuzzymetrics.family", "right_modulus_at_zero", "family.right_modulus", None),
    ("fuzzymetrics.serialize", "decode_family", "serialize.decode", None),
    ("fuzzymetrics.serialize", "decode_fuzzy", "serialize.decode", None),
    ("fuzzymetrics.serialize", "decode_any", "serialize.decode", _decoded),
    ("fuzzymetrics.serialize", "dumps", "serialize.dumps", _dumped),
    ("fuzzymetrics.bodies", "make_body_2d", "bodies.make_body_2d", None),
    ("fuzzymetrics.bodies", "chebyshev_radius", "bodies.lp", None),
]


class Tracer:
    """In-memory spans around the program's public functions."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tally: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.span_names:
            self.span_names.append(name)
        return self.span_names.index(name)

    def _wrap(self, fn, span: str, hook):
        nid = self._name_id(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(self.tally, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fuzzymetrics" or n.startswith("fuzzymetrics.")]
        for module_name, path, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook)
            self._patch(owner, attr, original, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        """Start a report: returns its first span index and clears the tally."""
        self.tally = Counter()
        return len(self.start)

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the report whose spans start at ``first``."""
        last = len(self.start)
        span_names = self.span_names
        calls: Counter = Counter()
        busy: Counter = Counter()  # outermost spans of each layer
        self_s: Counter = Counter()
        child = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):  # children come after parents
            d = self.end[i] - self.start[i]
            name = span_names[self.name[i]]
            p = self.parent[i]
            calls[name] += 1
            self_s[name] += d - child[i - first]
            if p >= first:
                child[p - first] += d
            if p < first or span_names[self.name[p]] != name:
                busy[name] += d
        t = self.tally
        bnb_calls = calls["metrics.bnb"]
        endpoint_calls = calls["core.endpoints"]
        return {
            "metrics.convergence_scan_s": busy["metrics.convergence_scan"],
            "metrics.convergence_members": t["metrics.convergence_members"],
            "core.endpoint_calls": endpoint_calls,
            "core.endpoint_levels": t["core.endpoint_levels"],
            "core.levels_per_endpoint_call": t["core.endpoint_levels"] / endpoint_calls if endpoint_calls else 0.0,
            "core.endpoint_s": busy["core.endpoints"],
            "metrics.bnb_s": busy["metrics.bnb"],
            "metrics.bnb_calls": bnb_calls,
            "metrics.bnb_nodes": t["metrics.bnb_nodes"],
            "metrics.bnb_s_per_node": busy["metrics.bnb"] / t["metrics.bnb_nodes"] if t["metrics.bnb_nodes"] else 0.0,
            "metrics.bnb_tol_met_ratio": t["metrics.bnb_tol_met"] / bnb_calls if bnb_calls else 0.0,
            "family.right_modulus_s": busy["family.right_modulus"],
            "family.right_modulus_calls": calls["family.right_modulus"],
            "family.left_modulus_s": busy["family.left_modulus"],
            "family.left_modulus_calls": calls["family.left_modulus"],
            "family.equi_report_s": busy["family.equi_report"],
            "family.compactness_self_s": self_s["family.compactness"],
            "serialize.decode_s": busy["serialize.decode"],
            "serialize.decode_objects": t["serialize.decode_objects"],
            "serialize.dumps_s": busy["serialize.dumps"],
            "serialize.dumps_bytes": t["serialize.dumps_bytes"],
            "bodies.lp_solves": calls["bodies.lp"],
            "bodies.lp_s": busy["bodies.lp"],
            "counterexample.refutation_self_s": self_s["counterexample.refutation"],
            "counterexample.oracle_s": busy["counterexample.oracle"],
            "counterexample.members_built": calls["counterexample.make_un"],
            "cli.self_s": self_s["cli"],
        }

    def write(self, path: str) -> None:
        """Write every recorded span; call after the measurement ends."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
