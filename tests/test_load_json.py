"""The CLI's file reader gives what the standard library's ``json.load`` gives.

``cli._load_json`` parses with orjson and sends every file orjson refuses to
``json.load``.  Generated documents, well formed or broken, must read to the
same value (type and ``float.hex`` too) or the same ParseError message.  The
one documented difference: an integer outside [-2**63, 2**64) that fits a
double reads as the nearest float.
"""

import json
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymetrics.cli import _load_json
from fuzzymetrics.errors import ParseError

finite = st.floats(allow_nan=False, allow_infinity=False)


def halfway(x: float) -> Decimal:
    """The exact decimal midway between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 2000
        return (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2


float_tokens = st.one_of(
    finite.map(repr),
    finite.map(lambda x: f"{x:.16e}"),  # 17 significant digits
    finite.map(lambda x: f"{x:.24e}"),  # 25 significant digits
    finite.filter(math.isfinite).map(halfway).map(lambda d: format(d, "e")),
    finite.filter(math.isfinite).map(halfway).map(lambda d: format(d, ".24e")),
    st.integers(0, 2**52 - 1).map(lambda m: repr(m * 5e-324)),  # subnormals
    st.sampled_from(
        ["-0.0", "0.0", "-0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308", "1e-400", "1E5"]
        + ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"]
    ),
)
bounds_64 = [-(2**63), 2**63 - 1, 2**63, 2**64 - 1]  # int64 and uint64 ends
integer_tokens = st.one_of(st.integers(-(2**63), 2**64 - 1), st.sampled_from(bounds_64)).map(str)


@st.composite
def string_tokens(draw):
    text = draw(st.lists(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=6).map("".join))
    lone = any(0xD800 <= ord(c) <= 0xDFFF for c in text)
    # a lone surrogate has only the escaped form; anything else either one
    return json.dumps(text, ensure_ascii=lone or draw(st.booleans()))


keys = st.one_of(string_tokens(), st.sampled_from(['"a"', '"b"']))  # duplicate keys too
space = st.sampled_from(["", " ", "\n", "\r\n", "\t", "\r\n  "])
scalars = st.one_of(float_tokens, integer_tokens, string_tokens(), st.sampled_from(["true", "false", "null"]))


@st.composite
def joined(draw, items, opening, closing):
    parts = draw(items)
    glue = draw(space) + "," + draw(space)
    return opening + draw(space) + glue.join(parts) + draw(space) + closing


def containers(children):
    members = st.tuples(keys, space, children).map(lambda m: f"{m[0]}{m[1]}:{m[2]}")
    return joined(st.lists(children, max_size=4), "[", "]") | joined(st.lists(members, max_size=4), "{", "}")


bom = st.sampled_from(["\ufeff"] + [""] * 7)
documents = st.tuples(bom, space, st.recursive(scalars, containers, max_leaves=12), space).map("".join)


@st.composite
def files(draw):
    """A document as UTF-8 bytes, broken at one place in about a third of them."""
    data = draw(documents).encode("utf-8")
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(data)))
        cut = draw(st.sampled_from([b"", b"x", b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"-", b".", b"e"]))
        cut = draw(st.sampled_from([cut, b"\xff", b"\xc3", b"\x01"]))
        data = data[:at] + cut + data[at + draw(st.integers(0, 2)) :]
    return data


def read_by_json(path):
    """What ``_load_json`` must give: ``json.load``'s value, or its error as a ParseError message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return as_orjson_reads(json.load(fh)), None
    except (ValueError, RecursionError) as exc:
        return None, f"{path} is not valid JSON: {exc}"


def as_orjson_reads(value):
    """``value`` with each integer outside [-2**63, 2**64) that fits a double as that double."""
    if isinstance(value, list):
        return [as_orjson_reads(v) for v in value]
    if isinstance(value, dict):
        return {k: as_orjson_reads(v) for k, v in value.items()}
    if type(value) is int and not -(2**63) <= value < 2**64:
        try:
            return float(value)
        except OverflowError:
            pass
    return value


def same(a, b) -> bool:
    """Equal in type and value, floats to the bit (NaN equal to NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reader") / "doc.json")


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(files())
def test_reads_what_json_load_reads(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    expected, message = read_by_json(path)
    if message is None:
        assert same(_load_json(path), expected)
    else:
        with pytest.raises(ParseError) as caught:
            _load_json(path)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "text",
    ["[1.0000000000000000000000001]", "[9007199254740993.0]", "[2.4703282292062328e-324]", "[1e23, 8.5e-323]"],
)
def test_hard_roundings_read_to_the_bit(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    assert same(_load_json(path), json.loads(text))
