import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fuzzymetrics import (
    CutCurve1D,
    ParseError,
    SampledFamily,
    d_infty_parametric,
    lift_segment,
    make_limit,
    make_sampled_1d,
    make_un,
    random_family,
)
from fuzzymetrics import serialize
from fuzzymetrics.serialize import (
    csv_table,
    decode_any,
    decode_family,
    decode_fuzzy,
    dumps,
    encode_body,
    encode_fuzzy,
)


class TestRoundTrip:
    def test_sampled_exact(self):
        for u in random_family(seed=19, count=10):
            v = decode_fuzzy(encode_fuzzy(u))
            enc = d_infty_parametric(u, v)
            assert (enc.lower, enc.upper, enc.nodes) == (0.0, 0.0, 0)
            assert np.array_equal(u.grid.levels, v.grid.levels)
            assert np.array_equal(u.lower, v.lower)
            assert np.array_equal(u.upper, v.upper)

    def test_counterexample_constructors(self):
        u = decode_fuzzy({"type": "counterexample-un", "n": 7})
        assert u.key == ("counterexample-un", 7)
        enc = d_infty_parametric(u, make_un(7))
        assert (enc.lower, enc.upper) == (0.0, 0.0)
        lim = decode_fuzzy(encode_fuzzy(make_limit()))
        assert d_infty_parametric(lim, make_limit()).upper == 0.0

    def test_body(self):
        body = lift_segment(make_sampled_1d([0, 1], [0, 0.5], [2, 1]), directions=16)
        doc = encode_body(body)
        back = decode_any(doc)
        assert np.array_equal(back.support, body.support)

    def test_family(self):
        docs = [encode_fuzzy(u) for u in random_family(seed=2, count=3)]
        docs.append({"type": "counterexample-un", "n": 2})
        fam = decode_family(docs)
        assert len(fam) == 4


class TestParseErrors:
    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown object type"):
            decode_any({"type": "nope"})

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            decode_any([1, 2, 3])

    def test_invariant_violation_is_named(self):
        doc = {"type": "sampled1d", "alphas": [0, 0.5, 1], "lower": [0, 0.6, 0.5], "upper": [1, 1, 1]}
        with pytest.raises(ParseError, match="nondecreasing"):
            decode_any(doc)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            decode_any({"type": "sampled1d", "alphas": [0, 1], "lower": [0, 0]})

    def test_empty_family(self):
        with pytest.raises(ParseError):
            decode_family([])

    @pytest.mark.parametrize("n", [1.5, True, 0, -2, "3", float("inf"), None])
    def test_member_index_must_be_a_positive_integer(self, n):
        with pytest.raises(ParseError, match="invalid counterexample-un object"):
            decode_any({"type": "counterexample-un", "n": n})

    def test_integral_float_index_is_the_member(self):
        assert decode_any({"type": "counterexample-un", "n": 3.0}).key == ("counterexample-un", 3)

    def test_missing_member_index(self):
        with pytest.raises(ParseError, match="invalid counterexample-un object"):
            decode_any({"type": "counterexample-un"})

    def test_sequence_is_not_a_fuzzy_number(self):
        assert callable(decode_any({"type": "counterexample-seq"}))
        with pytest.raises(ParseError, match="expected a 1-D fuzzy number"):
            decode_family([{"type": "counterexample-seq"}])

    def test_curve_without_constructor_form(self):
        curve = make_un(2)
        with pytest.raises(ParseError, match="constructor form"):
            encode_fuzzy(CutCurve1D(curve.lower_fn, curve.upper_fn))
        with pytest.raises(ParseError, match="constructor form"):
            encode_fuzzy(CutCurve1D(curve.lower_fn, curve.upper_fn, key=("other", 2)))

    def test_body_expected_number(self):
        body_doc = encode_body(lift_segment(make_sampled_1d([0, 1], [0, 0], [1, 1]), directions=8))
        with pytest.raises(ParseError):
            decode_fuzzy(body_doc)


class TestDeterministicText:
    def test_numpy_scalars_normalized(self):
        doc = {
            "a": np.float64(0.1),
            "b": np.int64(3),
            "c": np.bool_(True),
            "d": np.array([1.5, 2.5]),
        }
        assert dumps(doc) == dumps({"a": 0.1, "b": 3, "c": True, "d": [1.5, 2.5]})

    def test_shortest_round_trip_floats(self):
        text = dumps({"x": 0.1, "y": 1e-9, "z": 2 / 3})
        assert '"x": 0.1' in text
        assert '"y": 1e-09' in text
        assert '"z": 0.6666666666666666' in text


def jsonable(obj):
    """numpy scalars and arrays as the Python values they hold, NaN and
    infinity as None: the conversion the reference writer applies first (a
    0-d array is read as its value)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def reference_dumps(obj):
    """The report text as the standard library writes it."""
    return json.dumps(jsonable(obj), indent=2, ensure_ascii=False) + "\n"


def written(writer, obj):
    try:
        return writer(obj)
    except TypeError:
        return TypeError


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e22, 1e16, 1e-7, math.nan, math.inf, -math.inf]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)
ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**40), 10**40),
    FLOATS,
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    NUMPY_SCALARS,
    ARRAYS,
)
KEYS = st.one_of(
    st.text(),
    st.integers(-(10**30), 10**30),
    FLOATS,
    st.booleans(),
    st.none(),
    FLOATS.map(np.float64),
    st.integers(0, 9).map(np.int64),  # rejected by json as a key
)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-(10**20), 10**20), FLOATS, st.text(max_size=4), NUMPY_SCALARS)
RECORD_KEYS = st.one_of(
    st.text(max_size=3),
    st.sampled_from(["%", "%s", "%%", "%(n)s", '"', 'a"b', "\\"]),
    st.integers(-3, 3),
    FLOATS,
    st.booleans(),
    st.none(),
)


@st.composite
def records(draw, inner):
    """A list of flat dicts that share their keys, as report entries are;
    sometimes one record's keys differ or one value is nested."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(LEAVES, min_size=len(keys), max_size=len(keys)), min_size=1, max_size=5))
    out = [dict(zip(keys, row)) for row in rows]
    i = draw(st.integers(0, len(out) - 1))
    change = draw(st.sampled_from(["none", "extra key", "dropped key", "reordered", "nested"]))
    if change == "extra key":
        out[i] = {**out[i], draw(RECORD_KEYS): draw(LEAVES)}
    elif change == "dropped key":
        out[i] = dict(list(out[i].items())[1:])
    elif change == "reordered":
        out[i] = dict(reversed(list(out[i].items())))
    elif change == "nested":
        out[i] = {**out[i], keys[-1]: draw(inner)}
    return out


DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        records(inner),
    ),
    max_leaves=30,
)


@st.composite
def pooled_documents(draw):
    """A document whose floats come from a pool of three or four values,
    both zeros and one or two drawn, so that values recur within it."""
    pool = [0.0, -0.0, *draw(st.lists(FLOATS, min_size=1, max_size=2))]
    value = st.sampled_from(pool)
    leaves = value | value.map(np.float64) | st.integers(-2, 2)
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=2), inner, max_size=4),
            max_leaves=40,
        )
    )


POOLED_DOCUMENTS = pooled_documents()
NAN, INF = math.nan, math.inf


class TestWriterEqualsJson:
    """``dumps`` writes the bytes of ``json.dumps(indent=2,
    ensure_ascii=False)`` on every document, and refuses what it refuses."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(DOCUMENTS)
    def test_same_text(self, doc):
        assert written(dumps, doc) == written(reference_dumps, doc)

    @pytest.mark.parametrize(
        "doc, text",
        [
            ([-0.0, 5e-324, 1e22, 10**30], "[\n  -0.0,\n  5e-324,\n  1e+22,\n  1000000000000000000000000000000\n]\n"),
            ({"nan": math.nan, "inf": np.float64("inf"), "big": -math.inf}, '{\n  "nan": null,\n  "inf": null,\n  "big": null\n}\n'),
            ({"a": {}, "b": [], "c": (), "d": np.zeros((0, 2))}, '{\n  "a": {},\n  "b": [],\n  "c": [],\n  "d": []\n}\n'),
            ({1.5: "\u00e9\n\x01", True: None, 2: np.array(3.0)}, '{\n  "1.5": "\u00e9\\n\\u0001",\n  "true": null,\n  "2": 3.0\n}\n'),
            (np.arange(4).reshape(2, 2), "[\n  [\n    0,\n    1\n  ],\n  [\n    2,\n    3\n  ]\n]\n"),
            # 0.0 and -0.0 are one dict key: each zero keeps its own sign
            ([0.0, -0.0, 0.0], "[\n  0.0,\n  -0.0,\n  0.0\n]\n"),
            ({"a": -0.0, "b": 0.0, "c": -0.0}, '{\n  "a": -0.0,\n  "b": 0.0,\n  "c": -0.0\n}\n'),
            # the same NaN and infinity objects, each seen more than once
            ([NAN, INF, NAN, -INF, INF, NAN], "[\n" + ",\n".join(["  null"] * 6) + "\n]\n"),
            ([0.5, np.float64(0.5), 0.5, np.float64(NAN), NAN], "[\n  0.5,\n  0.5,\n  0.5,\n  null,\n  null\n]\n"),
        ],
    )
    def test_pinned_text(self, doc, text):
        assert dumps(doc) == reference_dumps(doc) == text

    def test_no_zero_outlives_its_call(self):
        # a zero remembered from one call would print the other's sign
        assert dumps([-0.0, 0.1, 0.0]) == "[\n  -0.0,\n  0.1,\n  0.0\n]\n"
        assert dumps([0.0, 0.1, -0.0]) == "[\n  0.0,\n  0.1,\n  -0.0\n]\n"

    def test_no_float_text_outlives_its_call(self):
        dumps({"a": [0.1, 0.25, 0.1], "b": 0.25})
        tables = [value for value in vars(serialize).values() if isinstance(value, dict)]
        assert not any(isinstance(key, float) for table in tables for key in table)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(POOLED_DOCUMENTS)
    def test_same_text_with_repeated_floats(self, doc):
        assert written(dumps, doc) == written(reference_dumps, doc)

    @pytest.mark.parametrize("doc", [{"a": object()}, {np.int64(1): 0}, [b"bytes"], np.complex128(1j)])
    def test_refuses_what_json_refuses(self, doc):
        with pytest.raises(TypeError):
            reference_dumps(doc)
        with pytest.raises(TypeError):
            dumps(doc)


def reference_cell(x):
    """A CSV cell by the rules ``csv_table`` documents."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class TestCsvTable:
    """``csv_table`` writes a header line and one line per row, every cell
    by its documented rule."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.text(max_size=5), min_size=1, max_size=4),
        st.lists(st.lists(LEAVES | st.fractions() | st.tuples(st.integers()), max_size=4), max_size=5),
    )
    def test_cells_follow_their_rules(self, columns, rows):
        lines = [",".join(columns), *(",".join(reference_cell(x) for x in row) for row in rows)]
        assert csv_table(columns, rows) == "\n".join(lines) + "\n"

    def test_pinned_cells(self):
        row = [None, True, np.bool_(False), 0.1, np.float64(1e-9), np.float32(0.5), math.nan, -math.inf, 3, np.int64(-4), "a b"]
        assert csv_table(["c"], [row]) == "c\n,true,false,0.1,1e-09,0.5,nan,-inf,3,-4,a b\n"


def family_docs(count=6):
    return [encode_fuzzy(u) for u in random_family(seed=4, count=count)]


def list_path_error(docs):
    """The ParseError text of decoding the members one at a time."""
    with pytest.raises(ParseError) as err:
        [decode_fuzzy(item) for item in docs]
    return str(err.value)


def break_member(doc, rule):
    """``doc`` (a member object) edited to break one rule."""
    doc = dict(doc)
    if rule == "empty":
        doc["lower"] = [*doc["lower"][:-1], doc["upper"][-1] + 1.0]
    elif rule == "non-nested":
        doc["lower"] = [doc["lower"][1], doc["lower"][0], *doc["lower"][2:]]
    elif rule == "non-finite":
        doc["upper"] = [doc["upper"][0], float("nan"), *doc["upper"][2:]]
    elif rule == "wrong-length":
        doc["lower"] = doc["lower"][:-1]
    elif rule == "bad-grid":
        doc["alphas"] = [doc["alphas"][1], *doc["alphas"][1:]]
    return doc


RULES = ["empty", "non-nested", "non-finite", "wrong-length", "bad-grid"]


class TestFamilyDecode:
    def test_shared_grid_gives_a_sampled_family(self):
        docs = family_docs()
        fam = decode_family(docs)
        assert isinstance(fam, SampledFamily) and len(fam) == len(docs)
        for u, item in zip(fam, docs):
            v = decode_fuzzy(item)
            assert u.grid == v.grid
            assert np.array_equal(u.lower, v.lower) and np.array_equal(u.upper, v.upper)

    @pytest.mark.parametrize("k", [0, 3, 5])
    @pytest.mark.parametrize("rule", RULES)
    def test_first_bad_member_raises_the_list_path_error(self, rule, k):
        docs = family_docs()
        docs[k] = break_member(docs[k], rule)
        if k + 1 < len(docs):  # a later member breaks a different rule
            docs[-1] = break_member(docs[-1], RULES[(RULES.index(rule) + 1) % len(RULES)])
        expected = list_path_error(docs)
        # the message is member k's own
        assert expected == list_path_error([docs[k]])
        for item in docs[:k]:
            decode_fuzzy(item)
        with pytest.raises(ParseError) as err:
            decode_family(docs)
        assert str(err.value) == expected

    def test_a_bad_shared_grid_raises_the_list_path_error(self):
        docs = [break_member(item, "bad-grid") for item in family_docs()]
        with pytest.raises(ParseError, match="grid must start at 0") as err:
            decode_family(docs)
        assert str(err.value) == list_path_error(docs)

    def test_mixed_grids_stay_a_list(self):
        docs = family_docs(3)
        docs.append(encode_fuzzy(make_sampled_1d([0, 0.3, 1], [0, 0.1, 0.2], [1, 0.9, 0.8])))
        fam = decode_family(docs)
        assert isinstance(fam, list) and len(fam) == 4

    def test_a_constructor_entry_keeps_a_list(self):
        docs = [*family_docs(3), {"type": "counterexample-un", "n": 2}]
        fam = decode_family(docs)
        assert isinstance(fam, list)
        assert fam[3].key == ("counterexample-un", 2)
