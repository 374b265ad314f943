"""JSON/CSV encoding of fuzzy numbers, bodies, and reports.

All emitted JSON is deterministic: insertion-ordered keys, two-space
indentation, and shortest round-trip float formatting (never more than 17
significant digits), so identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from json.encoder import encode_basestring
from typing import Any, Iterable, Sequence

import numpy as np

from .bodies import FuzzyBody2D, make_body_2d
from .core import (
    CutCurve1D,
    FuzzyNumber1D,
    SampledFamily,
    SampledFuzzy1D,
    make_sampled_1d,
    make_sampled_family,
)
from .errors import FuzzyMetricsError, ParseError

__all__ = [
    "encode_fuzzy",
    "decode_fuzzy",
    "decode_family",
    "encode_body",
    "decode_any",
    "dumps",
    "csv_table",
]


def _bool(x: Any) -> str:
    return "true" if x else "false"


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


def _refuse(x: Any) -> str:
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# The text of a leaf in a JSON report and in a CSV cell, from the first row
# whose types the leaf is an instance of.  numpy scalars are read as the
# Python values they hold; JSON writes NaN and infinity as null, which is
# not valid JSON otherwise, and marks a container by None.
_LEAVES = (
    ((dict, list, tuple, np.ndarray), None, str),
    (str, encode_basestring, str),
    ((bool, np.bool_), _bool, _bool),
    (int, int.__repr__, str),
    (np.integer, lambda x: int.__repr__(int(x)), str),
    (float, _json_float, float.__repr__),
    (np.floating, lambda x: _json_float(float(x)), lambda x: float.__repr__(float(x))),
    (type(None), lambda x: "null", lambda x: ""),
    (object, _refuse, str),
)


class _ByType(dict):
    """One column of ``_LEAVES`` by exact type, each type looked up once."""

    def __init__(self, column: int):
        super().__init__()
        self.column = column

    def __missing__(self, kind: type):
        text = self[kind] = next(row for row in _LEAVES if issubclass(kind, row[0]))[self.column]
        return text


_CSV = _ByType(2)


class _Floats(dict):
    """JSON text by float value, each value formatted once.  Zero is not
    stored: 0.0 and -0.0 are one key, so each zero is formatted with its
    own sign."""

    def __missing__(self, x: float) -> str:
        text = _json_float(x)
        if x:
            self[x] = text
        return text


class _Leaves(_ByType):
    """The JSON column of ``_LEAVES`` for one ``dumps`` call, in which a
    ``float`` is formatted once per distinct value; kept for that call only,
    so that it neither outlives nor grows past its report."""

    def __init__(self):
        super().__init__(1)
        self[float] = _Floats().__getitem__


def _key(key: Any) -> str:
    """JSON text of a dict key that is not a ``str``, as ``json`` writes it."""
    return json.dumps({key: 0}, ensure_ascii=False)[1:-4]


# _SEPARATORS[d] for a container whose first line is indented d levels: its
# opening as a dict and as a list, the text between its items, and its
# closing as a dict and as a list; each depth is written once
_SEPARATORS: dict[int, tuple[str, str, str, str, str]] = {}


def _write(obj: Any, depth: int, parts: list[str], leaf: _Leaves) -> None:
    """Append the JSON text of ``obj``, whose first line is indented
    ``depth`` levels, to ``parts``, each leaf's text from ``leaf``; a leaf
    inside a container is appended with the text before it, in one piece."""
    text = leaf[type(obj)]
    if text is not None:
        parts.append(text(obj))
        return
    if isinstance(obj, np.ndarray):
        _write(obj.tolist(), depth, parts, leaf)
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    seps = _SEPARATORS.get(depth)
    if seps is None:
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        seps = _SEPARATORS[depth] = ("{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]")
    open_dict, open_list, sep, close_dict, close_list = seps
    if isinstance(obj, dict):
        head = open_dict
        for key, value in obj.items():
            key = encode_basestring(key) if type(key) is str else _key(key)
            text = leaf[type(value)]
            if text is not None:
                parts.append(f"{head}{key}: {text(value)}")
            else:
                parts.append(f"{head}{key}: ")
                _write(value, depth + 1, parts, leaf)
            head = sep
        parts.append(close_dict)
    else:
        head = open_list
        for value in obj:
            text = leaf[type(value)]
            if text is not None:
                parts.append(head + text(value))
            else:
                parts.append(head)
                _write(value, depth + 1, parts, leaf)
            head = sep
        parts.append(close_list)


def dumps(obj: Any) -> str:
    """Deterministic JSON text for a report object, in one walk.

    The text equals ``json.dumps(obj, indent=2, ensure_ascii=False)`` plus a
    final newline, byte for byte, once numpy scalars and arrays are read as
    the Python values they hold and NaN or infinity as None.  Each distinct
    float is formatted once per call.
    """
    parts: list[str] = []
    _write(obj, 0, parts, _Leaves())
    parts.append("\n")
    return "".join(parts)


def encode_fuzzy(u: FuzzyNumber1D) -> dict:
    """Encode a fuzzy number; parametric counterexample objects round-trip
    through their constructor form."""
    from .counterexample import key_form

    if isinstance(u, SampledFuzzy1D):
        return {
            "type": "sampled1d",
            "alphas": u.grid.levels.tolist(),
            "lower": u.lower.tolist(),
            "upper": u.upper.tolist(),
        }
    if isinstance(u, CutCurve1D):
        form = key_form(u.key)
        if form is None:
            raise ParseError("only counterexample curves have a JSON constructor form")
        return form
    raise ParseError(f"cannot encode object of type {type(u).__name__}")


def encode_body(body: FuzzyBody2D) -> dict:
    return {
        "type": "body2d",
        "alphas": body.grid.levels.tolist(),
        "directions": body.directions,
        "support": body.support.tolist(),
    }


def decode_fuzzy(doc: Any) -> FuzzyNumber1D:
    """Decode a 1-D fuzzy number from its JSON object form."""
    obj = decode_any(doc)
    if not isinstance(obj, (SampledFuzzy1D, CutCurve1D)):
        raise ParseError(f"expected a 1-D fuzzy number, got a {doc['type']} object")
    return obj


@contextmanager
def _invariants(kind: str):
    """Turn an invariant violation while decoding a ``kind`` object into a
    ParseError that names the kind."""
    try:
        yield
    except ParseError:
        raise
    except (FuzzyMetricsError, ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ParseError(f"invalid {kind} object: {exc}") from exc


def decode_any(doc: Any):
    """Decode any supported object; invariant violations become ParseError."""
    from .counterexample import FORMS

    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("expected an object with a 'type' field")
    kind = doc["type"]
    with _invariants(kind):
        if kind == "sampled1d":
            return make_sampled_1d(doc["alphas"], doc["lower"], doc["upper"])
        if kind == "body2d":
            support = np.asarray(doc["support"], dtype=float)
            if support.ndim != 2 or support.shape[1] != int(doc["directions"]):
                raise ParseError("support matrix shape does not match the declared direction count")
            return make_body_2d(doc["alphas"], support)
        if kind in FORMS:
            make, params = FORMS[kind]
            return make(*(doc[p] for p in params))
    raise ParseError(f"unknown object type: {kind!r}")


def decode_family(doc: Any) -> SampledFamily | list[FuzzyNumber1D]:
    """Decode a family file: a SampledFamily when every member is a
    ``sampled1d`` object on the first member's levels, else a list.

    Either way an invalid member raises the ParseError that decoding it
    alone raises, for the first invalid member.
    """
    if not isinstance(doc, list) or not doc:
        raise ParseError("a family file holds a nonempty JSON array of fuzzy numbers")
    family = _shared_grid_family(doc)
    return family if family is not None else [decode_fuzzy(item) for item in doc]


def _shared_grid_family(doc: list) -> SampledFamily | None:
    """The members as one SampledFamily, or None when they are not all
    ``sampled1d`` objects on the same levels with rows of one length.

    The family reads the rows straight into the one copy it stores."""
    if not all(
        isinstance(item, dict) and item.get("type") == "sampled1d" and {"alphas", "lower", "upper"} <= item.keys()
        for item in doc
    ):
        return None
    alphas = doc[0]["alphas"]
    with _invariants("sampled1d"):
        try:
            if any(item["alphas"] != alphas for item in doc):
                return None
            return make_sampled_family(alphas, [item["lower"] for item in doc], [item["upper"] for item in doc])
        except (ValueError, TypeError, OverflowError):
            # ragged or unconvertible rows: decoding member by member names
            # the first bad one
            return None


def csv_table(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text: a header line of ``columns``, then one line per row.

    Cells are empty for None, ``true``/``false`` for booleans, the shortest
    round-trip repr for floats and ``str`` of anything else.
    """
    cell = _CSV
    lines = [",".join(columns)]
    lines.extend([",".join([cell[type(x)](x) for x in row]) for row in rows])
    return "\n".join(lines) + "\n"
