"""The benchmark's workloads: the command line each one runs, the inputs it
makes from the seed, and the check every report must pass.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

# Every supremum enclosure the benchmark checks must be at least this tight:
# the CLI default tolerance, pinned here so that a report counts as a solution
# only at the stated accuracy.
TOL = 1e-9
FAMILY_COUNT = 2000
BODY_LEVELS = 101
BODY_DIRECTIONS = 360
# the bnb-pair enclosure must contain max over t of (sqrt(t) - t), at t = 1/4
BNB_PAIR_SUPREMUM = 0.25

NAMES = ("refutation", "bnb-pair", "family-sampled", "body-validate")


@dataclass
class Workload:
    """One prepared workload: CLI arguments, output file and report check.

    ``check`` takes the parsed report and returns None when it passes, or
    the reason it fails.
    """

    argv: list[str]
    out: str
    check: Callable[[dict], str | None]


def prepare(name: str, seed: int, workdir: str) -> Workload:
    """Make the workload's inputs under ``workdir`` from ``seed``."""
    out = os.path.join(workdir, "report.out")
    if name == "refutation":
        argv = ["counterexample", "--n-max", "100", "--strict", "--out", out]
        return Workload(argv, out, _check_refutation)
    if name == "bnb-pair":
        argv = ["dist", "counterexample-un:1", "counterexample-un:2", "--out", out]
        return Workload(argv, out, _check_bnb_pair)
    if name == "family-sampled":
        path, radius = _write_family(seed, workdir)
        check = functools.partial(_check_family, radius=radius)
        return Workload(["family-report", path, "--out", out], out, check)
    if name == "body-validate":
        path = _write_body(seed, workdir)
        return Workload(["validate", path, "--out", out], out, _check_body)
    raise ValueError(f"unknown workload {name!r}")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_family(seed: int, workdir: str) -> tuple[str, float]:
    """A jump-free random family; returns its path and its support radius
    computed from the generated arrays, independently of the program's
    own support bound."""
    from fuzzymetrics import random_family
    from fuzzymetrics.serialize import encode_fuzzy

    family = random_family(seed, count=FAMILY_COUNT)
    radius = max(max(abs(float(u.lower[0])), abs(float(u.upper[0]))) for u in family)
    path = os.path.join(workdir, "family.json")
    _write_json(path, [encode_fuzzy(u) for u in family])
    return path, radius


def _write_body(seed: int, workdir: str):
    """The lifted segment of a random member plus a disk shrinking in alpha.

    The disk keeps every level two-dimensional, so each feasibility LP has a
    strictly positive Chebyshev radius and the body validates by construction.
    """
    from fuzzymetrics import lift_segment, make_body_2d, random_family
    from fuzzymetrics.serialize import encode_body

    member = random_family(seed, count=1, levels=BODY_LEVELS)[0]
    segment = lift_segment(member, BODY_DIRECTIONS)
    alphas = member.grid.levels
    radius = 0.05 + 0.45 * (1.0 - alphas)
    body = make_body_2d(alphas, segment.support + radius[:, None])
    path = os.path.join(workdir, "body.json")
    _write_json(path, encode_body(body))
    return path


def _check_refutation(doc: dict) -> str | None:
    report = doc["report"]
    if report["conclusion"]["criterion_refuted"] is not True:
        return "criterion_refuted is not true"
    if report["level_convergence"]["converged"] is not True:
        return "level convergence is not reached at every level"
    entries = report["supremum_distance"]["entries"]
    if len(entries) != report["n_max"]:
        return f"{len(entries)} supremum entries for n_max={report['n_max']}"
    for e in entries:
        lo, hi = e["enclosure_lower"], e["enclosure_upper"]
        if not (lo <= 1.0 <= hi and hi - lo <= TOL):
            return f"member {e['n']}: enclosure [{lo!r}, {hi!r}] does not pin 1 within {TOL}"
    return None


def _check_bnb_pair(doc: dict) -> str | None:
    enc = doc["enclosure"]
    lo, hi = enc["lower"], enc["upper"]
    if not (lo <= BNB_PAIR_SUPREMUM <= hi and hi - lo <= TOL):
        return f"enclosure [{lo!r}, {hi!r}] does not pin {BNB_PAIR_SUPREMUM} within {TOL}"
    return None


def _check_family(doc: dict, radius: float) -> str | None:
    diagnostics = doc["diagnostics"]
    if diagnostics["support_radius"] != radius:
        return f"support_radius {diagnostics['support_radius']!r}, expected {radius!r}"
    verdict = diagnostics["condition_verdicts"]["supremum_metric_criterion"]
    if not (verdict["support_bounded"]["passed"] and verdict["equi_left_continuity"]["passed"]):
        return "the jump-free family fails the supremum-metric criterion conditions"
    return None


def _check_body(doc: dict) -> str | None:
    if doc["validation"]["passed"] is not True:
        return "the body does not validate"
    return None
