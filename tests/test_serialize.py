import numpy as np
import pytest

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
from fuzzymetrics.serialize import (
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
