"""Batch command-line interface.

Verbs: validate, dist, profile, converge, family-report, counterexample.
Inputs are JSON files (or inline constructor tokens such as
``counterexample-un:5``); reports are deterministic JSON or CSV written to
stdout or ``--out``.  Exit status: 0 on success, 1 on input errors, 2 when
``--strict`` is set and a verdict fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import abc

from . import __version__
from .core import AlphaGrid, SampledFamily, as_grid, validate_representation
from .bodies import FuzzyBody2D
from .counterexample import DEFAULT_EPS as CONVERGENCE_EPS, refutation_report, token_form
from .errors import FuzzyMetricsError, OutOfRange, ParseError, VerdictFailure
from .family import (
    DEFAULT_DELTA_GRID,
    DEFAULT_EPS as FAMILY_EPS,
    compactness_conditions_report,
)
from .metrics import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    _distance_rows,
    d_infty_parametric,
    default_report_grid,
    level_convergence_report,
)
from .serialize import csv_table, decode_any, decode_family, dumps

__all__ = ["main", "run"]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _kind(obj) -> str:
    if isinstance(obj, abc.Sequence):
        return "family"
    if isinstance(obj, FuzzyBody2D):
        return "2-D body"
    return "sequence" if callable(obj) else "fuzzy number"


def _load(spec: str, command: str, *kinds: str):
    """Load an inline constructor token or a JSON file.

    A token is decoded as the JSON object it names.  The result is a fuzzy
    number, a 2-D body, a family (a JSON array; see ``decode_family``) or a
    streamed sequence such as ``counterexample-seq``.  A ParseError names the
    kind when ``command`` does not take it, that is when it is not one of
    ``kinds``.
    """
    doc = token_form(spec)
    if doc is None:
        doc = _load_json(spec)
    obj = decode_family(doc) if isinstance(doc, list) else decode_any(doc)
    kind = _kind(obj)
    if kind not in kinds:
        raise ParseError(f"{command} cannot take {spec}: it is a {kind}, expected a {' or '.join(kinds)}")
    return obj


def _parse_grid(spec: str | None, inputs: list):
    if spec is None or spec == "default":
        return default_report_grid(inputs)
    try:
        count = int(spec)
    except ValueError:
        pass
    else:
        return AlphaGrid.uniform(count)
    if not os.path.exists(spec):
        try:
            float(spec)
        except ValueError:
            pass
        else:
            raise ParseError(f"grid level count must be an integer, got {spec!r}")
    doc = _load_json(spec)
    try:
        return as_grid(doc)
    except FuzzyMetricsError as exc:
        raise ParseError(f"bad grid file {spec}: {exc}") from exc


def _sequence_grid(spec: str | None, seq, other):
    """The levels for a family or sequence and one more input.  A streamed
    sequence declares its hint levels through its first member; a sampled
    family declares none, and is not expanded into members to say so."""
    members = [seq(1)] if callable(seq) else () if isinstance(seq, SampledFamily) else seq
    return _parse_grid(spec, [*members, other])


def _parse_delta_grid(spec: str | None):
    if spec is None or spec == "default":
        return DEFAULT_DELTA_GRID
    if spec.startswith("pow2:"):
        try:
            lo, hi = spec[5:].split("..")
            ks = range(int(lo), int(hi) + 1)
        except ValueError as exc:
            raise ParseError(f"bad delta grid spec {spec!r}; expected pow2:A..B") from exc
        return tuple(2.0 ** -k for k in ks)
    try:
        return tuple(float(x) for x in spec.split(","))
    except ValueError as exc:
        raise ParseError(f"bad delta grid spec {spec!r}") from exc


def _header(args: argparse.Namespace, option_names: list[str]) -> dict:
    options = {}
    for name in option_names:
        options[name] = getattr(args, name.replace("-", "_"))
    return {
        "tool": "fuzzymetrics",
        "version": __version__,
        "command": args.command,
        "options": options,
    }


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_json(args: argparse.Namespace) -> None:
    if args.format == "csv":
        raise ParseError(f"{args.command} emits a nested report; csv is not supported")


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = _load(args.input, args.command, "fuzzy number", "2-D body")
    if not args.tol > 0:
        raise OutOfRange("tol must be positive")
    if isinstance(obj, FuzzyBody2D):
        checks = [{"name": "body_reconstruction", "passed": True}]
        passed = True
        report_dict = {"passed": True, "tol": args.tol, "checks": checks}
    else:
        report = validate_representation(obj, tol=args.tol)
        passed = report.passed
        report_dict = report.to_dict()
    if args.format == "csv":
        rows = [(c["name"], c.get("alpha"), c["passed"], c.get("measured")) for c in report_dict["checks"]]
        _emit(args, csv_table(("check", "alpha", "passed", "measured"), rows))
    else:
        _emit(args, dumps({"header": _header(args, ["input", "tol"]), "validation": report_dict}))
    if args.strict and not passed:
        raise VerdictFailure("validation failed")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    u = _load(args.a, args.command, "fuzzy number")
    v = _load(args.b, args.command, "fuzzy number")
    enclosure = d_infty_parametric(u, v, tol=args.tol, max_depth=args.max_depth).to_dict()
    if args.format == "csv":
        _emit(args, csv_table(("key", "value"), enclosure.items()))
    else:
        _emit(args, dumps({"header": _header(args, ["a", "b", "tol", "max_depth"]), "enclosure": enclosure}))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    u = _load(args.a, args.command, "fuzzy number", "family", "sequence")
    v = _load(args.b, args.command, "fuzzy number")
    if args.n_max < 1:
        raise OutOfRange("n_max must be at least 1")
    pair = _kind(u) == "fuzzy number"
    seq = [u] if pair else u
    grid = _sequence_grid(args.grid, seq, v)
    alphas = grid.levels.tolist()
    count = args.n_max if callable(seq) else min(args.n_max, len(seq))
    columns = ("alpha", "H") if pair else ("alpha", "n", "H")
    rows = [
        (a, h) if pair else (a, n, h)
        for ns, block in _distance_rows(seq, count, v, grid.levels)
        for n, row in zip(ns.tolist(), block.tolist())
        for a, h in zip(alphas, row)
    ]
    if args.format == "json":
        profile = [dict(zip(columns, row)) for row in rows]
        _emit(args, dumps({"header": _header(args, ["a", "b", "grid", "n_max"]), "profile": profile}))
    else:
        _emit(args, csv_table(columns, rows))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    seq = _load(args.seq, args.command, "family", "sequence")
    limit = _load(args.limit, args.command, "fuzzy number")
    grid = _sequence_grid(args.grid, seq, limit)
    report = level_convergence_report(seq, limit, grid, eps=args.eps, n_max=args.n_max)
    if args.format == "csv":
        rows = [(e.alpha, e.first_index, e.reached) for e in report.entries]
        _emit(args, csv_table(("alpha", "first_index", "reached"), rows))
    else:
        _emit(
            args,
            dumps(
                {
                    "header": _header(args, ["seq", "limit", "grid", "eps", "n_max"]),
                    "convergence": report.to_dict(),
                }
            ),
        )
    if args.strict and not report.converged:
        raise VerdictFailure("level convergence not reached at every level")
    return 0


def _cmd_family_report(args: argparse.Namespace) -> int:
    _require_json(args)
    family = _load(args.family, args.command, "family")
    grid = None if args.grid in (None, "default") else _parse_grid(args.grid, family).levels
    diagnostics = compactness_conditions_report(
        family,
        alpha_grid=grid,
        delta_grid=_parse_delta_grid(args.delta_grid),
        eps=args.eps,
    )
    _emit(
        args,
        dumps(
            {
                "header": _header(args, ["family", "grid", "delta_grid", "eps"]),
                "diagnostics": diagnostics.to_dict(),
            }
        ),
    )
    if args.strict and not diagnostics.passed:
        raise VerdictFailure("family diagnostics failed")
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    _require_json(args)
    report = refutation_report(args.n_max, eps=args.eps, tol=args.tol)
    _emit(
        args,
        dumps({"header": _header(args, ["n_max", "eps", "tol"]), "report": report}),
    )
    if args.strict and not report["conclusion"]["criterion_refuted"]:
        raise VerdictFailure("refutation sub-checks did not all pass")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzymetrics",
        description="Metrics and compactness diagnostics for fuzzy numbers in alpha-cut form.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
        p.add_argument("--format", choices=["json", "csv"], default=default_format)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--strict", action="store_true", help="exit 2 on a failing verdict")

    p = sub.add_parser("validate", help="check the cut-family axioms on one input")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("dist", help="supremum metric between two fuzzy numbers")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    common(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("profile", help="levelwise distance profile of a pair or sequence")
    p.add_argument("a", help="fuzzy number, family file, or 'counterexample-seq'")
    p.add_argument("b")
    p.add_argument("--grid", default=None, help="level count, grid file, or 'default'")
    p.add_argument("--n-max", type=int, default=10, help="members taken from a sequence or family")
    common(p, default_format="csv")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("converge", help="levelwise convergence of a sequence to a limit")
    p.add_argument("seq", help="family file or 'counterexample-seq'")
    p.add_argument("limit")
    p.add_argument("--grid", default=None)
    p.add_argument("--eps", type=float, default=CONVERGENCE_EPS)
    p.add_argument("--n-max", type=int, default=100_000)
    common(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("family-report", help="compactness condition diagnostics for a family")
    p.add_argument("family")
    p.add_argument("--grid", default=None)
    p.add_argument("--delta-grid", default=None, help="'pow2:A..B' or comma-separated offsets")
    p.add_argument("--eps", type=float, default=FAMILY_EPS)
    common(p)
    p.set_defaults(func=_cmd_family_report)

    p = sub.add_parser("counterexample", help="machine-checked refutation report")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--eps", type=float, default=CONVERGENCE_EPS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p)
    p.set_defaults(func=_cmd_counterexample)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help/--version exit 0; bad invocations are input errors (status 1)
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except VerdictFailure as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 2
    except FuzzyMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
