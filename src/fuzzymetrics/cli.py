"""Batch command-line interface.

Verbs: validate, dist, profile, converge, family-report, counterexample.
Inputs are JSON files (or inline constructor tokens such as
``counterexample-un:5``); reports are deterministic JSON or CSV written to
stdout or ``--out``.  Exit status: 0 on success, 1 on input errors, 2 when
``--strict`` is set and a verdict fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import abc

from . import __version__
from .core import (
    DEFAULT_VALIDATION_TOL,
    AlphaGrid,
    ValidationCheck,
    ValidationReport,
    _check_tolerance,
    as_grid,
    validate_representation,
)
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
    TRACE_WINDOW_CAP,
    _distance_rows,
    d_infty_parametric,
    default_report_grid,
    level_convergence_report,
)
from .serialize import csv_table, decode_any, decode_family, dumps

__all__ = ["main", "run"]

# the most levels of a --grid, a count or a file: a family report peaks at
# about 160 MB with 10,000 levels (1.3 GB with 100,000), with 20 members as
# with 200
GRID_LEVELS = 10_000
# the most rows (members x levels) of a profile, or distances a traced scan
# keeps: 999,936 rows peaked at 657 MB as JSON (170 MB as CSV)
PROFILE_ROWS = 1_000_000
# the most distances (members x levels) a scan reads: 52 s on a 2-vCPU VM at 112 levels
SCAN_DISTANCES = 10**10


def _load_json(path: str):
    """The JSON document in the file ``path``.

    orjson reads it; a file orjson refuses (NaN or Infinity tokens, numbers
    beyond a double, lone surrogate escapes, invalid UTF-8, deep nesting or
    malformed JSON) is read again with ``json.load``, whose value or error
    stands.  orjson reads an integer outside [-2**63, 2**64) as the nearest
    float where ``json`` reads an int.
    """
    import orjson  # here, so that verbs reading no file never import it

    try:
        with open(path, "rb") as fh:
            try:
                return orjson.loads(fh.read())
            except orjson.JSONDecodeError:
                pass
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, invalid UTF-8, or nesting past the recursion limit
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
        grid, count = None, int(spec)
    except ValueError:
        if not os.path.exists(spec):
            try:
                float(spec)
            except ValueError:
                pass
            else:
                raise ParseError(f"grid level count must be an integer, got {spec!r}")
        doc = _load_json(spec)
        try:
            grid = as_grid(doc)
        except FuzzyMetricsError as exc:
            raise ParseError(f"bad grid file {spec}: {exc}") from exc
        count = len(grid)
    if count > GRID_LEVELS:
        raise OutOfRange(f"grid level count must be at most {GRID_LEVELS}, got {count}")
    return AlphaGrid.uniform(count) if grid is None else grid


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


def _cmd_validate(args: argparse.Namespace) -> tuple:
    obj = _load(args.input, args.command, "fuzzy number", "2-D body")
    _check_tolerance(args.tol, "tol")
    if isinstance(obj, FuzzyBody2D):
        report = ValidationReport((ValidationCheck("body_reconstruction", True),), args.tol)
    else:
        report = validate_representation(obj, tol=args.tol)
    rows = [(c.name, c.alpha, c.passed, c.measured) for c in report.checks]
    table = ("check", "alpha", "passed", "measured"), rows
    return "validation", report.to_dict(), table, report.passed or "validation failed"


def _cmd_dist(args: argparse.Namespace) -> tuple:
    u = _load(args.a, args.command, "fuzzy number")
    v = _load(args.b, args.command, "fuzzy number")
    enclosure = d_infty_parametric(u, v, tol=args.tol, max_depth=args.max_depth).to_dict()
    return "enclosure", enclosure, (("key", "value"), enclosure.items()), True


def _cmd_profile(args: argparse.Namespace) -> tuple:
    u = _load(args.a, args.command, "fuzzy number", "family", "sequence")
    v = _load(args.b, args.command, "fuzzy number")
    if args.n_max < 1:
        raise OutOfRange("n_max must be at least 1")
    pair = _kind(u) == "fuzzy number"
    seq = [u] if pair else u
    grid = _parse_grid(args.grid, [seq, v])
    alphas = grid.levels.tolist()
    count = args.n_max if callable(seq) else min(args.n_max, len(seq))
    if count * len(alphas) > PROFILE_ROWS:
        raise OutOfRange(
            f"a profile takes at most {PROFILE_ROWS} rows (members x levels), got {count} x {len(alphas)}: "
            "a row takes about 0.7 KB as JSON"
        )
    columns = ("alpha", "H") if pair else ("alpha", "n", "H")
    rows = (
        (a, h) if pair else (a, n, h)
        for ns, block in _distance_rows(seq, count, v, grid.levels)
        for n, row in zip(ns.tolist(), block.tolist())
        for a, h in zip(alphas, row)
    )
    # a profile may hold many rows: each is built once, as its JSON object or its CSV line
    profile = [dict(zip(columns, row)) for row in rows] if args.format == "json" else None
    return "profile", profile, (columns, rows), True


def _cmd_converge(args: argparse.Namespace) -> tuple:
    seq = _load(args.seq, args.command, "family", "sequence")
    limit = _load(args.limit, args.command, "fuzzy number")
    grid = _parse_grid(args.grid, [seq, limit])
    count = args.n_max if callable(seq) else min(args.n_max, len(seq))
    got = f"(members x levels), got {count} x {len(grid)}"
    if count * len(grid) > SCAN_DISTANCES:
        raise OutOfRange(f"converge scans at most {SCAN_DISTANCES} distances {got}: about a minute's work")
    if count <= TRACE_WINDOW_CAP and count * len(grid) > PROFILE_ROWS:
        raise OutOfRange(f"a traced scan (n_max <= {TRACE_WINDOW_CAP}) keeps at most {PROFILE_ROWS} distances {got}")
    report = level_convergence_report(seq, limit, grid, eps=args.eps, n_max=args.n_max)
    rows = [(e.alpha, e.first_index, e.reached) for e in report.entries]
    verdict = report.converged or "level convergence not reached at every level"
    return "convergence", report.to_dict(), (("alpha", "first_index", "reached"), rows), verdict


def _cmd_family_report(args: argparse.Namespace) -> tuple:
    family = _load(args.family, args.command, "family")
    diagnostics = compactness_conditions_report(
        family,
        alpha_grid=_parse_grid(args.grid, [family]).levels,
        delta_grid=_parse_delta_grid(args.delta_grid),
        eps=args.eps,
    )
    return "diagnostics", diagnostics.to_dict(), None, diagnostics.passed or "family diagnostics failed"


def _cmd_counterexample(args: argparse.Namespace) -> tuple:
    report = refutation_report(args.n_max, eps=args.eps, tol=args.tol)
    verdict = report["conclusion"]["criterion_refuted"] or "refutation sub-checks did not all pass"
    return "report", report, None, verdict


def _report(args: argparse.Namespace) -> None:
    """Run the verb and write its report, then apply ``--strict``.

    A verb returns ``(key, body, table, verdict)``: the JSON report is
    ``{"header": ..., key: body}``, the CSV report is ``table`` (``(columns,
    rows)``, None for a verb with a nested report), and ``verdict`` is True
    or the message of the failing verdict.
    """
    if args.format == "csv" and args.nested:
        raise ParseError(f"{args.command} emits a nested report; csv is not supported")
    key, body, table, verdict = args.func(args)
    if args.format == "csv":
        text = csv_table(*table)
    else:
        options = {name: getattr(args, name) for name in args.options}
        header = {"tool": "fuzzymetrics", "version": __version__, "command": args.command, "options": options}
        text = dumps({"header": header, key: body})
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.strict and verdict is not True:
        raise VerdictFailure(verdict)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: building its arguments costs more than
    a small report, and parsing leaves it as it was (each call gets its own
    namespace; the shared defaults are only read)."""
    parser = argparse.ArgumentParser(
        prog="fuzzymetrics",
        description="Metrics and compactness diagnostics for fuzzy numbers in alpha-cut form.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, func, default_format: str = "json", nested: bool = False) -> None:
        """The verb's command, its header options (the arguments declared
        so far) and the flags every verb shares."""
        p.set_defaults(func=func, options=[a.dest for a in p._actions if a.dest != "help"], nested=nested)
        p.add_argument("--format", choices=["json", "csv"], default=default_format)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--strict", action="store_true", help="exit 2 on a failing verdict")

    p = sub.add_parser("validate", help="check the cut-family axioms on one input")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=DEFAULT_VALIDATION_TOL)
    common(p, _cmd_validate)

    p = sub.add_parser("dist", help="supremum metric between two fuzzy numbers")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    common(p, _cmd_dist)

    p = sub.add_parser("profile", help="levelwise distance profile of a pair or sequence")
    p.add_argument("a", help="fuzzy number, family file, or 'counterexample-seq'")
    p.add_argument("b")
    p.add_argument("--grid", default=None, help="level count, grid file, or 'default'")
    p.add_argument("--n-max", type=int, default=10, help="members taken from a sequence or family")
    common(p, _cmd_profile, default_format="csv")

    p = sub.add_parser("converge", help="levelwise convergence of a sequence to a limit")
    p.add_argument("seq", help="family file or 'counterexample-seq'")
    p.add_argument("limit")
    p.add_argument("--grid", default=None, help="level count, grid file, or 'default'")
    p.add_argument("--eps", type=float, default=CONVERGENCE_EPS)
    p.add_argument("--n-max", type=int, default=100_000)
    common(p, _cmd_converge)

    p = sub.add_parser("family-report", help="compactness condition diagnostics for a family")
    p.add_argument("family")
    p.add_argument("--grid", default=None, help="level count, grid file, or 'default'")
    p.add_argument("--delta-grid", default=None, help="'pow2:A..B' or comma-separated offsets")
    p.add_argument("--eps", type=float, default=FAMILY_EPS)
    common(p, _cmd_family_report, nested=True)

    p = sub.add_parser("counterexample", help="machine-checked refutation report")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--eps", type=float, default=CONVERGENCE_EPS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common(p, _cmd_counterexample, nested=True)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help/--version exit 0; bad invocations are input errors (status 1)
        return 0 if exc.code == 0 else 1
    try:
        _report(args)
    except VerdictFailure as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 2
    except FuzzyMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
