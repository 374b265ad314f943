import collections
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzymetrics import (
    CurvatureMismatch,
    SampledFamily,
    CutCurve1D,
    DeclaredCurvature,
    DeclaredJump,
    Enclosure,
    Enclosures,
    Interval,
    NonNested,
    OutOfRange,
    d_infty_pairs,
    d_infty_parametric,
    default_report_grid,
    hausdorff_interval,
    level_convergence_report,
    level_distance_profile,
    make_limit,
    make_sampled_1d,
    make_sampled_family,
    make_un,
    random_family,
)
from fuzzymetrics import metrics
from fuzzymetrics.cli import run
from fuzzymetrics.counterexample import member_sequence, members, pairwise_dinf_oracle
from fuzzymetrics.core import _SIGN, _SLACK_ULPS, _ulps, _wrong_side
from fuzzymetrics.metrics import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, DEFAULT_TOL
from fuzzymetrics.serialize import decode_fuzzy, dumps


def triangular():
    return make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])


def crisp(x):
    return make_sampled_1d([0, 1], [x, x], [x, x])


def crisp_interval(lo, hi):
    return make_sampled_1d([0, 1], [lo, lo], [hi, hi])


def resample(u, levels):
    """``u`` sampled at ``levels``: exact at the levels, linear in between."""
    return make_sampled_1d(levels, *u.endpoints(levels))


def sampled_distance(u, v):
    """The supremum metric between two sampled numbers, checked to close
    with no bisection."""
    enc = d_infty_parametric(u, v)
    assert (enc.lower == enc.upper, enc.nodes, enc.attained) == (True, 0, True)
    return enc.lower


def interp_curve(u):
    """A sampled number as a curve over np.interp: the search sees neither
    its grid levels nor its linearity, only monotone endpoints."""
    levels, lower, upper = u.grid.levels, u.lower, u.upper
    return CutCurve1D(
        lower_fn=lambda a: np.interp(a, levels, lower), upper_fn=lambda a: np.interp(a, levels, upper)
    )



def rising_sine():
    """Upper endpoint 1 + 0.5 sin(40 a), declared monotone but rising from
    a = 0 to a = 1."""
    return CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 + 0.5 * np.sin(40 * a))


def bump():
    """Lower endpoint 0 at 0, one third and 1, but 0.2 at the first midpoint
    of [1/3, 1]; upper endpoint that of make_un(1)."""
    return CutCurve1D(
        lower_fn=lambda a: 0.2 * np.sin(np.pi * np.clip(1.5 * a - 0.5, 0.0, 1.0)), upper_fn=make_un(1).upper_fn
    )


class TestHausdorffInterval:
    def test_identity(self):
        assert hausdorff_interval(Interval(0, 1), Interval(0, 1)) == 0.0

    def test_formula_substitution(self):
        assert hausdorff_interval(Interval(1, 3), Interval(2, 5)) == 2.0

    def test_endpoint_difference(self):
        assert hausdorff_interval(Interval(0, 0), Interval(0, 1)) == 1.0

    def test_symmetry_and_triangle_on_random_intervals(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            vals = rng.uniform(-5, 5, 6)
            a = Interval(min(vals[0], vals[1]), max(vals[0], vals[1]))
            b = Interval(min(vals[2], vals[3]), max(vals[2], vals[3]))
            c = Interval(min(vals[4], vals[5]), max(vals[4], vals[5]))
            assert hausdorff_interval(a, b) == hausdorff_interval(b, a)
            assert hausdorff_interval(a, c) <= hausdorff_interval(a, b) + hausdorff_interval(b, c) + 1e-12


class TestLevelProfile:
    def test_identical_pair_is_zero(self):
        u = triangular()
        prof = level_distance_profile(u, u, [0, 0.25, 0.5, 0.75, 1])
        assert prof.max() == 0.0

    def test_counterexample_spot_values(self):
        prof = level_distance_profile(make_un(1), make_limit(), [0, 0.25, 2 / 3, 1])
        by_alpha = dict(prof)
        assert by_alpha[0.25] == 0.0
        assert by_alpha[2 / 3] == pytest.approx(0.5, abs=1e-12)

    def test_domination_by_d_infty(self):
        fam = random_family(seed=31, count=6)
        for u, v in zip(fam[:3], fam[3:]):
            d = sampled_distance(u, v)
            prof = level_distance_profile(u, v, np.linspace(0, 1, 201))
            assert prof.max() <= d + 1e-12


class TestDInftySampled:
    def test_identity(self):
        u = triangular()
        assert sampled_distance(u, u) == 0.0

    def test_crisp_singletons(self):
        assert sampled_distance(crisp(1.25), crisp(-0.5)) == 1.75

    def test_triangular_vs_crisp_brute_force(self):
        u, v = triangular(), crisp(0.5)
        dense = level_distance_profile(u, v, np.linspace(0, 1, 10_001))
        assert sampled_distance(u, v) == 0.5
        assert dense.max() == pytest.approx(0.5, abs=1e-12)
        assert dense.h[0] == 0.5  # attained at the bottom level

    def test_union_grid_refinement(self):
        u = make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])
        v = make_sampled_1d([0, 0.25, 1], [0, 0.1, 0.4], [1, 0.9, 0.4])
        direct = sampled_distance(u, v)
        dense = level_distance_profile(u, v, np.linspace(0, 1, 20_001)).max()
        assert direct >= dense - 1e-12
        assert direct == pytest.approx(dense, abs=1e-6)

    def test_metric_axioms_on_random_triples(self):
        for seed in range(200):
            a, b, c = random_family(seed=seed, count=3, levels=7)
            dab = sampled_distance(a, b)
            assert dab == sampled_distance(b, a)
            assert dab >= 0.0
            assert sampled_distance(a, a) == 0.0
            assert sampled_distance(a, c) <= dab + sampled_distance(b, c) + 1e-12

    def test_constant_distance_pair_is_exact(self):
        # the distance is 0.5 at every level; a search that bisects sampled
        # numbers as curves spends all its nodes and stops 7.6e-6 wide
        u = make_sampled_1d([0, 1], [0, 1], [3, 2])
        v = make_sampled_1d([0, 1], [0.5, 1.5], [3.5, 2.5])
        enc = d_infty_parametric(u, v, tol=1e-9)
        assert (enc.lower, enc.upper, enc.attained, enc.witness_alpha, enc.nodes) == (0.5, 0.5, True, 0.0, 0)

    def test_grid_levels_split_a_mixed_pair(self):
        # the triangle's middle level and un(1)'s piece end at one third split
        # round 0; every row is linear on the pieces (un(1)'s upper endpoint,
        # declared convex, is linear), so one bisection closes the bracket
        enc = d_infty_parametric(triangular(), make_un(1), tol=1e-6)
        assert (enc.lower, enc.upper, enc.nodes) == (0.5, 0.5000000000000004, 1)

    def test_refinement_monotonicity(self):
        u, v = make_un(1), make_un(4)
        coarse, fine, finest = (
            sampled_distance(resample(u, levels), resample(v, levels))
            for levels in (np.linspace(0, 1, 11), np.linspace(0, 1, 101), np.linspace(0, 1, 1001))
        )
        assert coarse <= fine + 1e-15 <= finest + 2e-15


class TestDInftyParametric:
    def test_identity_shortcut(self):
        u = make_un(3)
        enc = d_infty_parametric(u, u)
        assert (enc.lower, enc.upper, enc.attained) == (0.0, 0.0, True)
        # distinct constructions of the same member share a structural key
        enc2 = d_infty_parametric(make_un(3), make_un(3))
        assert (enc2.lower, enc2.upper) == (0.0, 0.0)

    def test_counterexample_distance_is_exactly_one(self):
        lim = make_limit()
        for n in (1, 9, 100):
            enc = d_infty_parametric(make_un(n), lim, tol=1e-9)
            assert enc.lower <= 1.0 <= enc.upper
            assert enc.width <= 1e-9
            assert not enc.attained
            assert enc.witness_alpha == pytest.approx(1 / 3, abs=1e-15)

    def test_first_two_members_quarter_apart(self):
        # grid-search oracle: sup over t in (0,1] of sqrt(t) - t, peak 1/4 at t = 1/4
        alphas = np.linspace(1 / 3, 1.0, 1_000_001)
        t = 1.5 * alphas - 0.5
        pos = t > 0
        oracle = np.max(np.sqrt(t[pos]) - t[pos])
        enc = d_infty_parametric(make_un(1), make_un(2), tol=1e-6)
        assert enc.lower <= 0.25 + 1e-12
        assert enc.upper >= oracle - 1e-12
        assert enc.width <= 1e-6
        assert enc.attained
        assert enc.witness_alpha == pytest.approx(0.5, abs=1e-3)

    def test_tight_tolerance_reachable(self):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=1e-8)
        assert enc.width <= 1e-8
        assert enc.lower <= 0.25 <= enc.upper + 1e-15

    def test_depth_cap_yields_certified_partial_bracket(self):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=1e-9, max_depth=3)
        assert enc.width > 1e-9
        assert enc.lower <= 0.25 <= enc.upper

    def test_width_shrinks_with_depth(self):
        widths = [
            d_infty_parametric(make_un(1), make_un(2), tol=1e-15, max_depth=d, max_nodes=3000).width
            for d in (4, 8, 12, 16)
        ]
        assert all(w1 >= w2 for w1, w2 in zip(widths, widths[1:]))

    def test_piecewise_linear_consistency_with_sampled(self):
        u = make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])
        v = make_sampled_1d([0, 0.5, 1], [-1, 0, 0.25], [2, 1.5, 0.25])
        exact = sampled_distance(u, v)
        enc = d_infty_parametric(interp_curve(u), interp_curve(v), tol=1e-9)
        assert enc.lower - 1e-12 <= exact <= enc.upper + 1e-12

    def test_sampled_counterexample_below_enclosure_upper(self):
        u, lim = make_un(5), make_limit()
        enc = d_infty_parametric(u, lim)
        levels = np.linspace(0, 1, 100)
        sampled = sampled_distance(resample(u, levels), resample(lim, levels))
        assert sampled <= enc.upper

    def test_rejects_bad_tol(self):
        with pytest.raises(OutOfRange):
            d_infty_parametric(make_un(1), make_un(2), tol=0.0)

    def test_scalar_only_branching_curve(self):
        # `a > 0.6` is ambiguous on an array, so endpoints fall back to one call per level
        curve = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 - 0.3 * a - (0.2 if a > 0.6 else 0.0))
        prof = level_distance_profile(curve, make_un(2), [0.0, 0.5, 1.0])
        assert prof.h.tolist() == [0.0, 0.35, 0.49999999999999994]
        enc = d_infty_parametric(curve, make_un(2), tol=1e-6)
        assert (enc.lower, enc.upper, enc.attained) == (0.49999999999999994, 0.5000007629394532, True)

    def test_non_monotone_upper_endpoint_raises(self):
        # declared monotone, but 1 + 0.5 sin(40a) rises from a = 0 to a = 1; its
        # sup distance to [0, 1] is 0.5, not the 0.3726 read off the two ends
        with pytest.raises(NonNested):
            d_infty_parametric(rising_sine(), crisp_interval(0.0, 1.0))

    def test_non_monotone_midpoint_raises(self):
        # the lower endpoint is 0 at the split points 0, 1/3 and 1 (un(2)'s
        # piece end) but 0.2 at the first midpoint of [1/3, 1]
        with pytest.raises(NonNested, match="between levels 0.6666666666666666 and 1.0"):
            d_infty_parametric(bump(), make_un(2))


class TestPinnedEnclosures:
    """Enclosures recorded from the search with curvature envelopes; each
    bracket contains the closed-form value where one is known (1/4 for
    un(1)/un(2), 2/(3 sqrt 3) for un(2)/un(6), 4/27 for un(2)/un(3)), and is
    no wider than the monotone-bound search left it."""

    @pytest.mark.parametrize(
        "tol, expected",
        [
            (1e-9, (0.25, 0.2500000004657044, True)),
            (1e-8, (0.25, 0.25000000745331047, True)),
            (1e-6, (0.25, 0.25000047823813326, True)),
        ],
    )
    def test_first_two_members(self, tol, expected):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=tol)
        assert (enc.lower, enc.upper, enc.attained) == expected
        assert enc.lower <= 0.25 <= enc.upper

    def test_first_two_members_node_count(self):
        assert d_infty_parametric(make_un(1), make_un(2), tol=1e-9).nodes <= 3_000

    def test_members_two_and_six(self):
        enc = d_infty_parametric(make_un(2), make_un(6), tol=1e-6)
        assert (enc.lower, enc.upper, enc.attained) == (0.38490015051324333, 0.38490099159980534, True)
        assert enc.lower <= 2 / (3 * math.sqrt(3)) <= enc.upper

    def test_members_two_and_three(self):
        enc = d_infty_parametric(make_un(2), make_un(3), tol=1e-9)
        assert (enc.lower, enc.upper, enc.attained) == (0.1481481481481437, 0.14814814880663618, True)
        assert enc.lower <= 4 / 27 <= enc.upper

    def test_triangle_and_first_member(self):
        enc = d_infty_parametric(triangular(), make_un(1), tol=1e-6)
        assert (enc.lower, enc.upper, enc.attained) == (0.5, 0.5000000000000004, True)

    @pytest.mark.parametrize(
        "depth, expected",
        [
            (4, (0.25, 0.26247201319116537, True)),
            (8, (0.25, 0.25003124952348393, True)),
            (12, (0.25, 0.25000011938416217, True)),
            (16, (0.25, 0.2500000004657044, True)),
        ],
    )
    def test_depth_caps(self, depth, expected):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=1e-15, max_depth=depth, max_nodes=3000)
        assert (enc.lower, enc.upper, enc.attained) == expected

    def test_members_ten_and_eleven(self):
        # the monotone bound could not meet tol here: near one third the
        # endpoint slope is unbounded
        enc = d_infty_parametric(make_un(10), make_un(11))
        assert (enc.lower, enc.upper, enc.attained) == (0.03504938994812168, 0.035049390842851746, True)
        assert enc.width <= 1e-9 and enc.nodes <= 1_000

    @pytest.mark.parametrize("n", [1, 2, 9, 100, 1000])
    def test_member_and_limit(self, n):
        enc = d_infty_parametric(make_un(n), make_limit(), tol=1e-9)
        assert (enc.lower, enc.upper, enc.attained, enc.nodes) == (1.0, 1.0, False, 0)


def wiggle(curvature=()):
    """Upper endpoint 2 - a + 0.05 sin(20 a): nonincreasing, but neither
    convex nor concave."""
    return CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 2 - a + 0.05 * np.sin(20 * a), curvature=curvature)


class TestDeclaredCurvature:
    def test_false_convex_declaration_raises(self):
        assert d_infty_parametric(wiggle(), make_un(1)).width <= 1e-9
        convex = (DeclaredCurvature(0.0, 1.0, "linear", "convex"),)
        with pytest.raises(CurvatureMismatch, match="upper endpoint of the first number is not convex"):
            d_infty_parametric(wiggle(convex), make_un(1))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("other", [make_un(2), make_un(3), make_un(60), make_limit(), triangular()])
    def test_linear_endpoint_declared_convex_raises_nothing(self, other, tol):
        # un(1)'s upper endpoint 1 - t is linear; its midpoints sit on the
        # chord only up to rounding, which the check's slack absorbs
        enc = d_infty_parametric(make_un(1), other, tol=tol)
        assert enc.width <= tol

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.sampled_from([1e-6, 1e-9]))
    def test_member_pairs(self, n, m, tol):
        assume(n != m)
        enc = d_infty_parametric(make_un(n), make_un(m), tol=tol)
        assert enc.lower <= enc.upper
        assert enc.upper >= pairwise_dinf_oracle(n, m, grid_size=200_001)
        assert enc.nodes <= 3_000
        if enc.width > tol:
            # tol is missed only where rounding in 1.5 a - 0.5 leaves a
            # segment one float wide next to one third open: thirty more
            # rounds leave the bracket where it is
            deeper = d_infty_parametric(make_un(n), make_un(m), tol=tol, max_depth=DEFAULT_MAX_DEPTH + 30)
            assert (deeper.lower, deeper.upper) == (enc.lower, enc.upper)



def jump_curve():
    """Upper endpoint 2 - a up to one half, 1.2 - a^2 (concave) above it,
    with the right limit declared at the jump; lower endpoint 0."""
    return CutCurve1D(
        lower_fn=lambda a: 0.0 * a,
        upper_fn=lambda a: np.where(a <= 0.5, 2.0 - a, 1.2 - a * a),
        jumps=(DeclaredJump(0.5, 0.0, 0.95),),
        curvature=(DeclaredCurvature(0.0, 0.5, "linear", "linear"), DeclaredCurvature(0.5, 1.0, "linear", "concave")),
    )


TRI = decode_fuzzy(json.loads((Path(__file__).parent / "golden" / "tri.json").read_text()))
SAMPLED = random_family(seed=23, count=6)
# rows of one batch family, each object shared by every pair that draws it
MEMBERS = members(60)


@st.composite
def search_pairs(draw):
    """One pair of a mix: two members, a member and the limit, two sampled
    numbers, the golden triangle or the jump curve against any of these, or
    one number twice (by identity, or two members of one key).  A member is
    built alone by ``make_un`` or is a row of ``MEMBERS``; either way it
    declares a row of the member family, so the search reads members in
    batch calls, and member pairs leave them ragged levels after round 0."""
    member = st.one_of(st.integers(1, 60).map(make_un), st.sampled_from(MEMBERS))
    sampled = st.integers(0, len(SAMPLED) - 1).map(SAMPLED.__getitem__)
    single = st.one_of(member, st.just(make_limit()), sampled, st.just(TRI), st.builds(jump_curve))
    kind = draw(st.sampled_from(["members", "limit", "sampled", "mixed", "same", "same key"]))
    if kind == "members":
        return draw(member), draw(member)
    if kind == "limit":
        return tuple(draw(st.permutations([draw(member), make_limit()])))
    if kind == "sampled":
        return draw(sampled), draw(sampled)
    if kind == "mixed":
        return draw(st.one_of(st.just(TRI), st.builds(jump_curve))), draw(single)
    if kind == "same":
        u = draw(single)
        return u, u
    n = draw(st.integers(1, 60))
    return make_un(n), make_un(n)


def enclosure_bits(e: Enclosure) -> tuple:
    """An enclosure's fields, every float by its exact bits."""
    witness = None if e.witness_alpha is None else e.witness_alpha.hex()
    return e.lower.hex(), e.upper.hex(), e.attained, witness, e.nodes


def record_bits(record: Enclosures) -> list:
    """A record's rows read from its columns, every float by its exact bits,
    after checking that each row, read by index, gives the same bits."""
    columns = [record.lower, record.upper, record.attained, record.witness_alpha, record.nodes]
    assert [c.dtype.kind for c in columns] == ["f", "f", "b", "f", "i"]
    rows = [
        (lo.hex(), hi.hex(), attained, witness.hex(), nodes)
        for lo, hi, attained, witness, nodes in zip(*(c.tolist() for c in columns))
    ]
    assert [enclosure_bits(record[i]) for i in range(len(record))] == rows
    return rows


def narrow_bump(c, w):
    """bump() squeezed onto [c, c + w]: a lower endpoint that only a
    midpoint inside it shows not monotone."""
    return CutCurve1D(
        lower_fn=lambda a: 0.2 * np.sin(np.pi * np.clip((a - c) / w, 0.0, 1.0)), upper_fn=make_un(1).upper_fn
    )


def dent(c, w):
    """Upper endpoint 1.2 - a^2, declared concave, less 0.001 sin on
    [c, c + w]: a dent that only a midpoint inside it shows not concave;
    lower endpoint 0."""
    return CutCurve1D(
        lower_fn=lambda a: 0.0 * a,
        upper_fn=lambda a: 1.2 - a * a - 0.001 * np.sin(np.pi * np.clip((a - c) / w, 0.0, 1.0)),
        curvature=(DeclaredCurvature(0.0, 1.0, None, "concave"),),
    )


# pairs whose search raises, at bisection depth 1 or 2 (the first three),
# 6 (the dent) and 7 (the narrow bump)
FAILING_PAIRS = [
    (wiggle((DeclaredCurvature(0.0, 1.0, "linear", "convex"),)), MEMBERS[0]),
    (bump(), MEMBERS[1]),
    (MEMBERS[2], bump()),
    (dent(0.58, 0.03), MEMBERS[1]),
    (narrow_bump(0.345, 0.005), MEMBERS[0]),
]
# column budgets: one-level rounds, the default, and rounds of up to ten
# levels, as deep as max_depth and max_nodes allow
LOOKAHEADS = (0, metrics._LOOKAHEAD_COLUMNS, 1 << 10)


class TestBatchedSearch:
    """``d_infty_pairs`` gives every pair the enclosure of its own search."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(search_pairs(), min_size=1, max_size=8),
        st.sampled_from([1e-6, 1e-9]),
        st.sampled_from([DEFAULT_MAX_DEPTH, 3, 8]),
        st.sampled_from([DEFAULT_MAX_NODES, 4, 40]),
    )
    def test_equals_the_per_pair_searches(self, pairs, tol, max_depth, max_nodes):
        # at every column budget, with the bits of one-level rounds
        bits = []
        for columns in LOOKAHEADS:
            with mock.patch.object(metrics, "_LOOKAHEAD_COLUMNS", columns):
                batch = d_infty_pairs(pairs, tol=tol, max_depth=max_depth, max_nodes=max_nodes)
                alone = tuple(d_infty_parametric(u, v, tol, max_depth, max_nodes) for u, v in pairs)
            bits.append(record_bits(batch))
            assert list(map(enclosure_bits, batch)) == bits[-1] == list(map(enclosure_bits, alone))
        assert bits[1] == bits[0] and bits[2] == bits[0]

    def test_one_pair_reads_each_number_once_per_round(self, monkeypatch):
        # after round 0 the search bisects 16 levels, one or two segments a
        # level: rounds of several levels read each number 4 times, where
        # rounds of one level read it 17 times
        calls = collections.Counter()
        endpoints = CutCurve1D.endpoints

        def counted(self, alphas):
            calls[id(self)] += 1
            return endpoints(self, alphas)

        monkeypatch.setattr(CutCurve1D, "endpoints", counted)
        u, v = make_un(1), make_un(2)
        assert d_infty_parametric(u, v).nodes == 31
        assert calls.keys() == {id(u), id(v)} and calls[id(u)] == calls[id(v)] <= 6

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.lists(search_pairs(), max_size=6), st.data())
    def test_a_failing_pair_among_family_rows_raises_its_own_error(self, pairs, data):
        # at every column budget, with the error of one-level rounds
        bad = data.draw(st.sampled_from(FAILING_PAIRS))
        at = data.draw(st.integers(0, len(pairs)))
        errors = []
        for columns in LOOKAHEADS:
            with mock.patch.object(metrics, "_LOOKAHEAD_COLUMNS", columns):
                with pytest.raises((CurvatureMismatch, NonNested)) as alone:
                    d_infty_parametric(*bad)
                with pytest.raises((CurvatureMismatch, NonNested)) as batch:
                    d_infty_pairs([*pairs[:at], bad, *pairs[at:]])
            errors += [(type(e.value), str(e.value)) for e in (alone, batch)]
        assert errors == errors[:1] * 6

    def test_budgets_bind_per_pair(self):
        # a small node budget and a small depth each stop some pairs of one
        # batch short of tol and leave others to close
        pairs = [(make_un(1), make_un(2)), (make_un(3), make_limit()), (make_un(10), make_un(11)), (TRI, make_un(1))]
        for options in ({"max_nodes": 4}, {"max_depth": 3}):
            batch = d_infty_pairs(pairs, **options)
            assert batch == tuple(d_infty_parametric(u, v, **options) for u, v in pairs)
            assert any(e.width > DEFAULT_TOL for e in batch) and any(e.width <= DEFAULT_TOL for e in batch)
        assert max(e.nodes for e in d_infty_pairs(pairs, max_nodes=4)) == 4

    def test_the_record_of_the_refutation_pairs_is_each_pairs_own_search(self):
        limit = make_limit()
        batch = d_infty_pairs([(u, limit) for u in members(100)])
        alone = [enclosure_bits(d_infty_parametric(u, limit)) for u in members(100)]
        assert isinstance(batch, Enclosures) and len(batch) == 100
        assert record_bits(batch) == alone

    def test_record_columns_are_read_only(self):
        batch = d_infty_pairs([(make_un(1), make_un(2)), (make_un(3), make_limit())])
        for column in (batch.lower, batch.upper, batch.attained, batch.witness_alpha, batch.nodes):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0

    def test_record_copies_its_columns(self):
        lower = np.array([0.0, 0.5])
        record = Enclosures(lower, [0.0, 1.0], [True, False], [0.0, 0.5], [0, 3])
        lower[0] = 1.0
        assert record.lower.tolist() == [0.0, 0.5] and lower.flags.writeable
        assert record[1] == Enclosure(0.5, 1.0, attained=False, witness_alpha=0.5, nodes=3)
        assert record.width.tolist() == [0.0, 0.5]

    def test_a_crossed_row_raises_out_of_range(self):
        with pytest.raises(OutOfRange, match="enclosure 1: lower 0.75 > upper 0.5"):
            Enclosures([0.0, 0.75, 2.0], [0.0, 0.5, 1.0], [True] * 3, [0.0] * 3, [0] * 3)
        with pytest.raises(OutOfRange, match="1-D and of one length"):
            Enclosures([0.0, 0.5], [0.0], [True], [0.0], [0])

    def test_record_indexing_iteration_and_equality(self):
        pairs = [(make_un(1), make_un(2)), (TRI, TRI), (make_un(3), make_limit())]
        batch = d_infty_pairs(pairs)
        alone = tuple(d_infty_parametric(u, v) for u, v in pairs)
        assert batch == alone and tuple(batch) == alone and list(batch) == list(alone)
        assert batch[-1] == alone[-1] and batch[-3] == alone[0]
        assert batch == d_infty_pairs(pairs) and batch != d_infty_pairs(pairs[:2])
        assert batch != alone[:2] and batch != list(alone)
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(TypeError):
            batch[0:2]
        empty = d_infty_pairs([])
        assert len(empty) == 0 and tuple(empty) == () and empty == () and list(empty) == []
        assert empty.lower.shape == (0,) and not empty.attained.any()
        with pytest.raises(IndexError):
            empty[-1]

    def test_identity_pairs_and_an_empty_batch(self):
        u = make_un(3)
        zero = Enclosure(0.0, 0.0, attained=True, witness_alpha=0.0)
        assert d_infty_pairs([(u, u), (make_un(4), make_un(4)), (TRI, TRI)]) == (zero, zero, zero)
        assert d_infty_pairs([]) == ()

    def test_one_endpoints_call_per_number_for_the_refutation_pairs(self, monkeypatch):
        calls, batch_calls = [], []
        endpoints = CutCurve1D.endpoints
        family = type(member_sequence())
        batch_endpoints = family.endpoints

        def counted(self, alphas):
            calls.append(self)
            return endpoints(self, alphas)

        def batch_counted(self, ns, alphas):
            batch_calls.append(np.array(ns))
            return batch_endpoints(self, ns, alphas)

        monkeypatch.setattr(CutCurve1D, "endpoints", counted)
        monkeypatch.setattr(family, "endpoints", batch_counted)
        limit = make_limit()
        batch = d_infty_pairs([(u, limit) for u in members(100)])
        # every pair closes in round 0: the limit once, and the 100 members
        # in one call to their family, a row per member and round-0 level
        assert calls == [limit]
        assert len(batch_calls) == 1 and batch_calls[0].tolist() == np.repeat(np.arange(1, 101), 3).tolist()
        assert all((e.lower, e.upper, e.attained, e.nodes) == (1.0, 1.0, False, 0) for e in batch)

    def test_a_family_is_read_once_per_round(self, monkeypatch):
        # member-vs-member pairs whose rows need other levels in every round
        # share one read of their family per round, and no member is read
        # alone: round 0, then one read per lookahead
        reads, rounds = [], []
        family = type(member_sequence())
        endpoints, batch_endpoints, lookahead = CutCurve1D.endpoints, family.endpoints, metrics._lookahead

        def counted(self, alphas):
            reads.append(self)
            return endpoints(self, alphas)

        def batch_counted(self, ns, alphas):
            reads.append(self)
            return batch_endpoints(self, ns, alphas)

        def counted_lookahead(*args):
            rounds.append(args[2])
            return lookahead(*args)

        pairs = [(make_un(n), make_un(m)) for n, m in [(1, 2), (2, 3), (3, 5), (10, 11)]]
        alone = [enclosure_bits(d_infty_parametric(u, v)) for u, v in pairs]
        monkeypatch.setattr(CutCurve1D, "endpoints", counted)
        monkeypatch.setattr(family, "endpoints", batch_counted)
        monkeypatch.setattr(metrics, "_lookahead", counted_lookahead)
        assert record_bits(d_infty_pairs(pairs)) == alone
        assert len(rounds) > 1 and reads == [member_sequence()] * len(reads) and len(reads) <= len(rounds) + 1

    def test_family_rows_with_the_same_levels_in_another_order_are_read_apart(self):
        # each member meets a sampled number split at 0.5 and one split at
        # 0.25: the two members need the same levels in round 0, in another
        # order, and every row must still read its own level
        a, b = MEMBERS[0], MEMBERS[1]
        half = make_sampled_1d([0, 0.5, 1], [0, 0.1, 0.2], [2, 1.5, 1])
        quarter = make_sampled_1d([0, 0.25, 1], [-0.1, 0.0, 0.1], [1.5, 1.2, 0.9])
        pairs = [(a, half), (a, quarter), (b, quarter), (b, half)]
        batch = d_infty_pairs(pairs)
        alone = [d_infty_parametric(u, v) for u, v in pairs]
        assert list(map(enclosure_bits, batch)) == list(map(enclosure_bits, alone))

    def test_jumps_at_one_level_with_other_right_limits_equal_their_own_searches(self):
        # four curves jump at 0.5: two with other right limits, two whose
        # lower right limits differ only in the sign of zero; a sampled
        # number, whose lower endpoint is 0 there too, meets each on either
        # side, and its distance to each is approached at the right limits
        def jumping(top, lower_right):
            return CutCurve1D(
                lower_fn=lambda a: 0.0 * a,
                upper_fn=lambda a: np.where(a <= 0.5, 2.0 - a, top - a * a),
                jumps=(DeclaredJump(0.5, lower_right, top - 0.25),),
                curvature=(
                    DeclaredCurvature(0.0, 0.5, "linear", "linear"),
                    DeclaredCurvature(0.5, 1.0, "linear", "concave"),
                ),
            )

        third = make_sampled_1d([0, 0.5, 1], [0, 0, 0], [3.0, 2.5, 1.0])
        curves = [jumping(1.2, 0.0), jumping(1.1, 0.0), jumping(1.2, -0.0), jumping(1.1, -0.0)]
        pairs = [pair for w in curves for pair in ((third, w), (w, third))]
        batch = d_infty_pairs(pairs)
        assert record_bits(batch) == [enclosure_bits(d_infty_parametric(u, v)) for u, v in pairs]
        assert batch.upper.tolist() == [1.55, 1.55, 1.65, 1.65] * 2 and not batch.attained.any()

    def test_pairs_that_declare_alike_share_one_layout(self, monkeypatch):
        layouts = []
        split_layout = metrics._split_layout

        def counted(*args):
            layouts.append(args)
            return split_layout(*args)

        monkeypatch.setattr(metrics, "_split_layout", counted)
        rows = random_family(3, 46)
        limit = make_limit()
        for pairs in (
            list(itertools.combinations(rows, 2)),
            [(u, limit) for u in members(100)],
            list(itertools.combinations(MEMBERS, 2)),
        ):
            layouts.clear()
            d_infty_pairs(pairs)
            assert len(layouts) == 1, len(pairs)

    def test_members_past_the_int64_range_equal_their_own_searches(self):
        # a member's row is read as a float index: 2**64 + 1 is row 2**64
        big, bigger, limit = make_un(2**63), make_un(2**64 + 1), make_limit()
        pairs = [(big, limit), (bigger, limit), (big, bigger), (make_un(1), bigger)]
        batch = d_infty_pairs(pairs)
        assert record_bits(batch) == [enclosure_bits(d_infty_parametric(u, v)) for u, v in pairs]
        assert batch.lower[:2].tolist() == batch.upper[:2].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "bad",
        [(wiggle((DeclaredCurvature(0.0, 1.0, "linear", "convex"),)), make_un(1)), (bump(), make_un(2))],
        ids=["false convex declaration", "non-monotone midpoint"],
    )
    def test_a_failing_pair_raises_its_own_error(self, bad):
        with pytest.raises((CurvatureMismatch, NonNested)) as alone:
            d_infty_parametric(*bad)
        with pytest.raises(type(alone.value)) as batch:
            d_infty_pairs([(make_un(1), make_un(2)), bad, (make_un(4), make_limit())])
        assert str(batch.value) == str(alone.value)

    def test_the_earliest_round_then_the_lowest_pair_fails_first(self):
        # the false convex declaration and the bump fail in round 1, the
        # rising sine in round 0
        convex = (wiggle((DeclaredCurvature(0.0, 1.0, "linear", "convex"),)), make_un(1))
        bumped = (bump(), make_un(2))
        sine = (rising_sine(), crisp_interval(0.0, 1.0))
        for pairs, error, match in [
            ([convex, bumped], CurvatureMismatch, "not convex between levels 0.3333333333333333 and 1.0"),
            ([bumped, convex], NonNested, "between levels 0.6666666666666666 and 1.0"),
            ([bumped, convex, sine], NonNested, "between levels 0.0 and 1.0"),
        ]:
            with pytest.raises(error, match=match):
                d_infty_pairs([(make_un(1), make_un(2)), *pairs])


class TestRowsSearch:
    """``metrics._d_infty_rows`` gives rows of the member sequence against
    one number the enclosures of the pairs of member objects, bit for bit."""

    @pytest.mark.parametrize("n", [100, 1_000, 10_000])
    def test_the_refutation_rows_equal_the_member_pairs(self, n):
        limit = make_limit()
        rows = metrics._d_infty_rows(member_sequence(), np.arange(1, n + 1), limit)
        assert record_bits(rows) == record_bits(d_infty_pairs([(u, limit) for u in members(n)]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(1, 60) | st.integers(1, 2**53), max_size=8),
        st.data(),
        st.sampled_from([1e-6, 1e-9]),
        st.sampled_from([DEFAULT_MAX_DEPTH, 3, 8]),
        st.sampled_from([DEFAULT_MAX_NODES, 4, 40]),
    )
    def test_equals_the_pairs_of_member_objects(self, ns, data, tol, max_depth, max_nodes):
        # unsorted rows, repeated ones and rows up to 2**53, against any
        # number: a member among the rows gets [0, 0] at its own row
        own = [st.sampled_from(ns).map(make_un)] if ns else []
        sampled = st.integers(0, len(SAMPLED) - 1).map(SAMPLED.__getitem__)
        others = [st.just(make_limit()), st.integers(1, 60).map(make_un), sampled, st.just(TRI), st.builds(jump_curve)]
        v = data.draw(st.one_of(*own, *others))
        bits = []
        for columns in LOOKAHEADS:
            with mock.patch.object(metrics, "_LOOKAHEAD_COLUMNS", columns):
                rows = metrics._d_infty_rows(member_sequence(), ns, v, tol, max_depth, max_nodes)
                pairs = d_infty_pairs([(make_un(n), v) for n in ns], tol, max_depth, max_nodes)
            bits.append(record_bits(rows))
            assert bits[-1] == record_bits(pairs)
        assert bits[1] == bits[0] and bits[2] == bits[0]


def chord_excess(a, b, m, left, mid, right):
    """The chord test both checks shared before the one rule, kept as their
    reference: how far ``mid`` lies above each chord, and the slack."""
    with np.errstate(divide="ignore", invalid="ignore"):
        above = mid - (left + (right - left) * ((m - a) / (b - a)))
        slope = np.maximum(np.abs(mid - left) / (m - a), np.abs(right - mid) / (b - m))
    return above, _ulps(left, mid, right) + _SLACK_ULPS * slope * np.spacing(b)


def search_verdict(a, b, m, left, mid, right, signs):
    """The search's old predicate: which declared rows lie off their side."""
    inner = (a < m) & (m < b)
    above, slack = chord_excess(a, b, m, left, mid, right)
    return inner & (((signs >= 0) & (above > slack)) | ((signs <= 0) & (above < -slack)))


def validate_measure(a, b, m, left, mid, right, names):
    """Validate's old loop over the lower and upper rows of one piece:
    the largest distance to the wrong side, and whether each is in slack."""
    above, slack = chord_excess(a, b, m, left, mid, right)
    inner = (a < m) & (m < b)
    worst, passed = 0.0, True
    for row, name in enumerate(names):
        if name is None:
            continue
        wrong = np.abs(above[row]) if name == "linear" else _SIGN[name] * above[row]
        worst = max(worst, float(wrong.max(initial=0.0, where=inner)))
        passed = passed and not np.any(inner & (wrong > slack[row]))
    return worst, passed


def chord_segments(seed, count=400, far_share=0.5):
    """Segments with midpoint values a few units in the last place from
    their chords, ``far_share`` of them moved further off, and a fifth of
    them one float wide; four rows per segment as the search holds them:
    two lower endpoints and two negated upper ones."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, count)
    b = np.where(rng.random(count) < 0.2, np.nextafter(a, 2.0), a + rng.uniform(1e-12, 0.5, count))
    m = 0.5 * (a + b)
    left = rng.uniform(-3.0, 3.0, (4, count))
    right = left + rng.uniform(-1.0, 1.0, (4, count))
    chord = left + (right - left) * ((m - a) / (b - a))
    ulps = rng.integers(-12, 13, (4, count)) * np.spacing(np.abs(chord))
    far = (rng.random((4, count)) < far_share) * rng.normal(0.0, 1e-3, (4, count))
    mid = chord + ulps + far
    mid[2:], left[2:], right[2:] = -mid[2:], -left[2:], -right[2:]
    return a, b, m, left, mid, right, rng


class TestOneChordRule:
    """The one chord rule against the two predicates it replaced."""

    @pytest.mark.parametrize("seed, far_share", [(seed, share) for seed in range(3) for share in (0.0, 0.5)])
    def test_search_verdict(self, seed, far_share):
        a, b, m, left, mid, right, rng = chord_segments(seed, far_share=far_share)
        signs = rng.choice([1.0, -1.0, 0.0, np.nan], (4, a.size))
        signs[2:] = -signs[2:]  # a negated upper row flips its sign, 0 to -0
        wrong, slack = _wrong_side(a, b, m, left, mid, right, signs)
        expected = search_verdict(a, b, m, left, mid, right, signs)
        assert np.array_equal(wrong > slack, expected)
        assert 0 < expected.sum() < expected.size

    @pytest.mark.parametrize(
        "seed, count, far_share", [(seed, 4, 0.0) for seed in range(8)] + [(seed, 400, 0.5) for seed in range(2)]
    )
    def test_validate_measure(self, seed, count, far_share):
        a, b, m, left, mid, right, _ = chord_segments(seed, count, far_share)
        # two rows, as validate holds one number's lower and upper endpoints
        left, mid, right = left[:2], mid[:2], right[:2]
        for lower, upper in itertools.product(["convex", "concave", "linear", None], repeat=2):
            wrong, slack = _wrong_side(a, b, m, left, mid, right, np.array([[_SIGN[lower]], [_SIGN[upper]]]))
            worst = float(np.fmax.reduce(wrong, axis=None, initial=0.0))
            expected = validate_measure(a, b, m, left, mid, right, (lower, upper))
            assert (worst.hex(), not np.any(wrong > slack)) == (expected[0].hex(), expected[1]), (lower, upper)


@st.composite
def monotone_sampled(draw):
    """A valid sampled number: nondecreasing lower, nonincreasing upper endpoints."""
    # inner levels on a 1/1000 lattice: gaps stay far wider than the depth cap resolves
    inner = draw(st.lists(st.integers(1, 999), max_size=6, unique=True))
    levels = [0.0, *(k / 1000 for k in sorted(inner)), 1.0]
    steps = st.lists(st.floats(0.0, 2.0), min_size=len(levels) - 1, max_size=len(levels) - 1)
    lower = np.cumsum([draw(st.floats(-3.0, 3.0)), *draw(steps)])
    top = lower[-1] + draw(st.floats(0.0, 2.0))
    upper = top + np.append(np.cumsum(draw(steps)[::-1])[::-1], 0.0)
    return make_sampled_1d(levels, lower, upper)


class TestParametricEnclosesSampled:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(monotone_sampled(), monotone_sampled(), st.sampled_from([1e-6, 1e-9]))
    def test_encloses_the_exact_sampled_distance(self, u, v, tol):
        exact = sampled_distance(u, v)
        enc = d_infty_parametric(interp_curve(u), interp_curve(v), tol=tol)
        assert enc.lower - 1e-12 <= exact <= enc.upper + 1e-12
        # a bracket cut by the node budget is certified but may stay wider than tol
        assert enc.width <= tol or enc.nodes >= DEFAULT_MAX_NODES


class TestSampledPairs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(monotone_sampled(), monotone_sampled(), st.sampled_from([1e-3, 1e-9, 1e-15]))
    def test_enclosure_is_the_union_grid_max(self, u, v, tol):
        enc = d_infty_parametric(u, v, tol=tol)
        union = np.union1d(u.grid.levels, v.grid.levels)
        assert enc.lower == enc.upper == level_distance_profile(u, v, union).max()
        assert (enc.nodes, enc.attained) == (0, True)
        assert level_distance_profile(u, v, np.linspace(0, 1, 1001)).max() <= enc.upper + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(monotone_sampled(), monotone_sampled(), monotone_sampled())
    def test_metric_axioms(self, a, b, c):
        dab = sampled_distance(a, b)
        assert dab == sampled_distance(b, a) >= 0.0
        assert sampled_distance(a, a) == 0.0
        assert sampled_distance(a, make_sampled_1d(a.grid, a.lower, a.upper)) == 0.0
        assert sampled_distance(a, c) <= dab + sampled_distance(b, c) + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(monotone_sampled(), monotone_sampled(), st.lists(st.integers(1, 999), max_size=6))
    def test_refinement_leaves_the_enclosure_unchanged(self, u, v, extra):
        d = sampled_distance(u, v)
        # on the union grid the refined samples are the values the pair
        # already evaluates, so the enclosure keeps every bit
        union = np.union1d(u.grid.levels, v.grid.levels)
        assert sampled_distance(resample(u, union), v) == d
        assert sampled_distance(u, resample(v, union)) == d
        # levels off both grids add interpolated samples, exact up to rounding
        finer = np.union1d(union, np.asarray(extra) / 1000 + 1 / 7000)
        assert sampled_distance(resample(u, finer), resample(v, finer)) == pytest.approx(d, abs=1e-12)


class TestLevelConvergence:
    def test_constant_sequence(self):
        u = triangular()
        report = level_convergence_report([u] * 10, u, [0, 0.5, 1], eps=1e-6, n_max=10)
        assert report.converged
        assert all(e.first_index == 1 for e in report.entries)

    def test_counterexample_spot_inversion(self):
        # smallest n with 1 - 0.5**(1/n) <= 0.1 is ceil(ln 0.5 / ln 0.9) = 7
        assert math.ceil(math.log(0.5) / math.log(0.9)) == 7
        assert 1 - 0.5 ** (1 / 6) > 0.1 > 1 - 0.5 ** (1 / 7)
        report = level_convergence_report(
            [make_un(n) for n in range(1, 51)], make_limit(), [0.0, 2 / 3, 1.0], eps=0.1, n_max=50
        )
        entry = {e.alpha: e for e in report.entries}[2 / 3]
        assert entry.first_index == 7

    def test_not_reached_near_the_jump(self):
        alpha = 1 / 3 + 1e-6
        expected_h = 1 - (1.5 * alpha - 0.5) ** (1 / 5)
        assert expected_h > 0.9
        report = level_convergence_report(
            [make_un(n) for n in range(1, 6)], make_limit(), [0.0, alpha, 1.0], eps=0.1, n_max=5
        )
        entry = {e.alpha: e for e in report.entries}[alpha]
        assert not entry.reached
        assert entry.first_index is None
        assert entry.h_last == pytest.approx(expected_h, abs=1e-12)
        assert not report.converged
        assert report.failing_alphas == (alpha,)

    def test_callable_matches_list(self):
        grid = [0.0, 0.4, 2 / 3, 1.0]
        by_list = level_convergence_report(
            [make_un(n) for n in range(1, 31)], make_limit(), grid, eps=0.05, n_max=30
        )
        by_callable = level_convergence_report(make_un, make_limit(), grid, eps=0.05, n_max=30)
        assert [e.first_index for e in by_list.entries] == [e.first_index for e in by_callable.entries]

    def test_streamed_list_and_callable_agree_across_blocks(self):
        # 600 members span several blocks of the batched scan and still keep
        # their distance traces
        grid = default_report_grid([make_limit()])
        reports = [
            level_convergence_report(seq, make_limit(), grid, eps=1e-3, n_max=600)
            for seq in (member_sequence(), members(600), list(members(600)), make_un)
        ]
        assert reports[0].entries[0].h_values is not None
        texts = {dumps(r.to_dict()) for r in reports}
        assert len(texts) == 1

    def test_traces_kept_for_short_windows(self):
        report = level_convergence_report(
            [make_un(n) for n in range(1, 21)], make_limit(), [0.0, 0.5, 1.0], eps=0.05, n_max=20
        )
        entry = report.entries[1]
        assert entry.h_values is not None and len(entry.h_values) == 20
        assert entry.h_values == tuple(sorted(entry.h_values, reverse=True))

    def test_rejects_bad_args(self):
        with pytest.raises(OutOfRange):
            level_convergence_report([make_un(1)], make_limit(), [0, 1], eps=0.0, n_max=5)
        with pytest.raises(OutOfRange):
            level_convergence_report([make_un(1)], make_limit(), [0, 1], eps=0.1, n_max=0)


def naive_distances(seq, u, levels, n_max):
    """H(cut(member n, a), cut(u, a)) one member and one level at a time, in
    Python floats: row n - 1 is member n."""
    lo_u, hi_u = u.endpoints(levels)
    rows = []
    for n in range(1, n_max + 1):
        lo, hi = seq[n - 1].endpoints(levels)
        rows.append([max(abs(a - b), abs(c - d)) for a, b, c, d in zip(lo, lo_u, hi, hi_u)])
    return rows


def naive_scan(rows, levels, eps):
    """Per level: (alpha, first_index, reached, h_last, h_values), the
    reference the batched scan must equal."""
    entries = []
    for j, a in enumerate(levels.tolist()):
        column = [row[j] for row in rows]
        last = max((n for n, h in enumerate(column, 1) if h > eps), default=0)
        reached = last < len(rows)
        entries.append((a, last + 1 if reached else None, reached, column[-1], tuple(column)))
    return entries


def shrinking_sampled_family(count):
    """``count`` sampled members around one sampled number: member n is
    shifted by c_n, which shrinks like 1/n, and widened by w_n (1 - a), which
    does not, so the members approach it only at the top levels."""
    base = random_family(seed=31, count=1)[0]
    rng = np.random.default_rng(32)
    n = np.arange(1, count + 1)[:, None]
    shift = rng.uniform(-1.0, 1.0, (count, 1)) / n
    widen = rng.uniform(0.0, 1.0, (count, 1)) * (1.0 - base.grid.levels)
    family = make_sampled_family(base.grid, base.lower + shift - widen, base.upper + shift + widen)
    return family, base


class ViewFamily(list):
    """Members on one grid whose batch ``endpoints`` returns writeable views
    of stored rows, as a carrier that keeps its samples may."""

    def __init__(self, items, levels):
        super().__init__(items)
        self.levels = np.asarray(levels, dtype=float)
        self.lower = np.array([u.endpoints(self.levels)[0] for u in items])
        self.upper = np.array([u.endpoints(self.levels)[1] for u in items])

    def endpoints(self, ns, alphas):
        assert np.array_equal(alphas, self.levels)
        rows = slice(ns[0] - 1, ns[-1])
        return self.lower[rows], self.upper[rows]


class TestScanEqualsNaiveReference:
    """The batched scan, 256 members a block, equals the one-member-at-a-time
    reference on both sides of a block edge."""

    @pytest.mark.parametrize("n_max", [255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["list", "members", "sampled"])
    def test_report_equals_reference(self, kind, n_max):
        if kind == "sampled":
            seq, u = shrinking_sampled_family(n_max)
            levels = np.linspace(0.0, 1.0, 101)
        else:
            u = make_limit()
            levels = default_report_grid([u]).levels
            seq = members(n_max) if kind == "members" else [make_un(n) for n in range(1, n_max + 1)]
        # indexing a SampledFamily gives a SampledFuzzy1D, evaluated by np.interp
        rows = naive_distances(seq, u, levels, n_max)
        # eps is exactly the largest distance at one level from member k on:
        # the member that attains it does not violate
        k, j = n_max // 2, levels.size - 2
        eps = max(row[j] for row in rows[k - 1 :])
        report = level_convergence_report(seq, u, levels, eps=eps, n_max=n_max)
        expected = naive_scan(rows, levels, eps)
        got = [(e.alpha, e.first_index, e.reached, e.h_last, e.h_values) for e in report.entries]
        assert got == expected
        assert report.entries[j].first_index <= k
        assert report.failing_alphas == tuple(e[0] for e in expected if not e[2])
        assert report.converged == all(e[2] for e in expected)
        # some levels converge within the window and some do not
        assert 0 < len(report.failing_alphas) < levels.size

    def test_batch_views_are_not_written(self, monkeypatch, capsys):
        levels = np.linspace(0.0, 1.0, 5)
        family = ViewFamily([make_un(n) for n in range(1, 301)], levels)
        lower, upper = family.lower.copy(), family.upper.copy()
        report = level_convergence_report(family, make_limit(), levels, eps=0.05, n_max=300)
        plain = level_convergence_report(list(family), make_limit(), levels, eps=0.05, n_max=300)
        assert dumps(report.to_dict()) == dumps(plain.to_dict())
        assert np.array_equal(family.lower, lower) and np.array_equal(family.upper, upper)
        monkeypatch.setattr("fuzzymetrics.cli.decode_family", lambda doc: family)
        monkeypatch.setattr("fuzzymetrics.cli._load_json", lambda path: [])
        assert run(["profile", "family.json", "counterexample-limit", "--grid", "5", "--n-max", "300"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 300
        assert np.array_equal(family.lower, lower) and np.array_equal(family.upper, upper)


class SharedLowerFamily(list):
    """Members that share one lower endpoint; the batch ``endpoints`` returns
    it as one read-only row broadcast down the block, as a carrier with a
    constant lower endpoint may."""

    def endpoints(self, ns, alphas):
        hi = np.array([self[n - 1].endpoints(alphas)[1] for n in ns.tolist()])
        return np.broadcast_to(self[0].endpoints(alphas)[0], hi.shape), hi


def shared_lower_family(count):
    """``count`` sampled members with the lower endpoint of one sampled
    number lowered by 0.2 (1 - a), and its upper endpoint shifted by c_n,
    which shrinks like 1/n: the lower distance to that number is nonzero
    below level 1 and does not shrink, so only the top levels converge."""
    base = random_family(seed=41, count=1)[0]
    lower = base.lower - 0.2 * (1.0 - base.grid.levels)
    shift = np.random.default_rng(42).uniform(-1.0, 1.0, count) / np.arange(1, count + 1)
    return SharedLowerFamily(make_sampled_1d(base.grid, lower, base.upper + c) for c in shift), base


class TestSharedLowerRow:
    """A batch lower block that is one nonzero row broadcast down (row
    stride 0) is still compared at every member."""

    def test_report_and_profile_equal_per_member_list(self, monkeypatch, capsys):
        family, u = shared_lower_family(600)
        levels = np.linspace(0.0, 1.0, 11)
        lo, _ = family.endpoints(np.arange(1, 4), levels)
        assert lo.strides[0] == 0 and lo.any()
        report = level_convergence_report(family, u, levels, eps=0.05, n_max=600)
        plain = level_convergence_report(list(family), u, levels, eps=0.05, n_max=600)
        assert dumps(report.to_dict()) == dumps(plain.to_dict())
        # the lower distance decides the verdict below level 1
        assert 0 < len(report.failing_alphas) < levels.size
        profiles = []
        for fam in (family, list(family)):
            monkeypatch.setattr("fuzzymetrics.cli._load", lambda spec, *kinds, fam=fam: fam if spec == "f" else u)
            assert run(["profile", "f", "u", "--grid", "11", "--n-max", "600"]) == 0
            profiles.append(capsys.readouterr().out)
        assert profiles[0] == profiles[1]
        assert len(profiles[0].splitlines()) == 1 + 11 * 600


class TestReportGrid:
    def test_default_grid_plain(self):
        g = default_report_grid()
        assert len(g) == 101

    def test_counterexample_detection(self):
        assert make_un(2).hint_levels == (1 / 3,)
        assert make_limit().hint_levels == (1 / 3,)
        assert members(3).hint_levels == member_sequence().hint_levels == (1 / 3,)
        assert random_family(seed=3, count=5).hint_levels == ()
        assert default_report_grid([triangular()]) == default_report_grid()
        for inputs in ([make_un(2)], [triangular(), make_limit()]):
            g = default_report_grid(inputs)
            assert 1 / 3 in g.levels
            assert 1 / 3 + 1e-4 in g.levels


def densified_reference(levels, inputs):
    """The grid densification as it stood with one grid per verb: each hint
    level adds itself and offsets of 1e-2 .. 1e-6 on both sides in (0, 1]."""
    hints = sorted({h for u in inputs for h in u.hint_levels})
    if not hints:
        return levels
    offsets = 10.0 ** -np.arange(2, 7)
    extra = np.concatenate([np.concatenate([h + offsets, h - offsets, [h]]) for h in hints])
    return np.union1d(levels, extra[(extra > 0.0) & (extra <= 1.0)])


def sequence_grid_reference(seq, other):
    """The levels a sequence verb read for a family or sequence and one more
    input: a streamed sequence through its first member, a sampled family
    none, a list its members."""
    numbers = [seq(1)] if callable(seq) else () if isinstance(seq, SampledFamily) else seq
    return densified_reference(np.linspace(0.0, 1.0, 101), [*numbers, other])


class TestCarrierHintLevels:
    @pytest.mark.parametrize(
        "seq",
        [
            random_family(seed=3, count=5),
            [make_un(n) for n in range(1, 4)],
            [triangular(), triangular()],
            members(3),
            member_sequence(),
        ],
        ids=["sampled", "list", "plain-list", "members", "streamed"],
    )
    @pytest.mark.parametrize("other", [triangular(), make_limit()], ids=["triangle", "limit"])
    def test_equals_the_sequence_grid_without_members(self, seq, other, monkeypatch):
        expected = sequence_grid_reference(seq, other)

        def no_member(*args):
            raise AssertionError("the grid read a member")

        monkeypatch.setattr(SampledFamily, "__getitem__", no_member)
        monkeypatch.setattr(type(member_sequence()), "__call__", no_member)
        assert default_report_grid([seq, other]).levels.tolist() == expected.tolist()
