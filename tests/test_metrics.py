import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymetrics import (
    CutCurve1D,
    Interval,
    NonNested,
    OutOfRange,
    d_infty_parametric,
    default_report_grid,
    hausdorff_interval,
    level_convergence_report,
    level_distance_profile,
    make_limit,
    make_sampled_1d,
    make_un,
    random_family,
    refine_to_grid,
    sample_curve,
)
from fuzzymetrics.counterexample import member_sequence, members
from fuzzymetrics.metrics import DEFAULT_MAX_NODES
from fuzzymetrics.serialize import dumps


def triangular():
    return make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])


def crisp(x):
    return make_sampled_1d([0, 1], [x, x], [x, x])


def crisp_interval(lo, hi):
    return make_sampled_1d([0, 1], [lo, lo], [hi, hi])


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
        # the triangle's middle level is a split point from round 0, so the
        # curve search needs one node less for the same bracket
        enc = d_infty_parametric(triangular(), make_un(1), tol=1e-6)
        assert (enc.lower, enc.upper, enc.nodes) == (0.5, 0.5000009536743164, 18)

    def test_refinement_monotonicity(self):
        u, v = make_un(1), make_un(4)
        coarse = sampled_distance(sample_curve(u, np.linspace(0, 1, 11)), sample_curve(v, np.linspace(0, 1, 11)))
        fine = sampled_distance(sample_curve(u, np.linspace(0, 1, 101)), sample_curve(v, np.linspace(0, 1, 101)))
        finest = sampled_distance(sample_curve(u, np.linspace(0, 1, 1001)), sample_curve(v, np.linspace(0, 1, 1001)))
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
        sampled = sampled_distance(
            sample_curve(u, np.linspace(0, 1, 100)), sample_curve(lim, np.linspace(0, 1, 100))
        )
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
        assert (enc.lower, enc.upper, enc.attained) == (0.49999999999999994, 0.5000005722045899, True)

    def test_non_monotone_upper_endpoint_raises(self):
        # declared monotone, but 1 + 0.5 sin(40a) rises from a = 0 to a = 1; its
        # sup distance to [0, 1] is 0.5, not the 0.3726 read off the two ends
        sine = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 + 0.5 * np.sin(40 * a))
        with pytest.raises(NonNested):
            d_infty_parametric(sine, crisp_interval(0.0, 1.0))

    def test_non_monotone_midpoint_raises(self):
        # the lower endpoint is 0 at both ends of [0, 1] but 0.2 at the first midpoint
        bump = CutCurve1D(lower_fn=lambda a: 0.2 * np.sin(np.pi * a), upper_fn=make_un(1).upper_fn)
        with pytest.raises(NonNested, match="between levels 0.5 and 1.0"):
            d_infty_parametric(bump, make_un(2))


class TestPinnedEnclosures:
    """Enclosures recorded from the best-first search that preceded the
    round-at-a-time one; both return the same (lower, upper, attained)."""

    @pytest.mark.parametrize(
        "tol, expected",
        [
            (1e-9, (0.25, 0.25000000099998687, True)),
            (1e-8, (0.25, 0.25000000999973715, True)),
            (1e-6, (0.25, 0.25000099994689085, True)),
        ],
    )
    def test_first_two_members(self, tol, expected):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=tol)
        assert (enc.lower, enc.upper, enc.attained) == expected

    def test_first_two_members_node_count(self):
        assert d_infty_parametric(make_un(1), make_un(2), tol=1e-9).nodes <= 146_342

    def test_members_two_and_six(self):
        enc = d_infty_parametric(make_un(2), make_un(6), tol=1e-6)
        assert (enc.lower, enc.upper, enc.attained) == (0.38490017945951716, 0.3849011776049506, True)

    def test_triangle_and_first_member(self):
        enc = d_infty_parametric(triangular(), make_un(1), tol=1e-6)
        assert (enc.lower, enc.upper, enc.attained) == (0.5, 0.5000009536743164, True)

    @pytest.mark.parametrize(
        "depth, expected",
        [
            (4, (0.25, 0.34375, True)),
            (8, (0.25, 0.255859375, True)),
            (12, (0.25, 0.2503662109375, True)),
            (16, (0.25, 0.25002288818359375, True)),
        ],
    )
    def test_depth_caps(self, depth, expected):
        enc = d_infty_parametric(make_un(1), make_un(2), tol=1e-15, max_depth=depth, max_nodes=3000)
        assert (enc.lower, enc.upper, enc.attained) == expected

    @pytest.mark.parametrize("n", [1, 2, 9, 100, 1000])
    def test_member_and_limit(self, n):
        enc = d_infty_parametric(make_un(n), make_limit(), tol=1e-9)
        assert (enc.lower, enc.upper, enc.attained, enc.nodes) == (1.0, 1.0, False, 0)


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
        assert enc.lower == enc.upper == level_distance_profile(u, v, u.grid.union(v.grid)).max()
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
        union = u.grid.union(v.grid)
        assert sampled_distance(refine_to_grid(u, union), v) == d
        assert sampled_distance(u, refine_to_grid(v, union)) == d
        # levels off both grids add interpolated samples, exact up to rounding
        finer = np.union1d(union.levels, np.asarray(extra) / 1000 + 1 / 7000)
        assert sampled_distance(refine_to_grid(u, finer), refine_to_grid(v, finer)) == pytest.approx(d, abs=1e-12)


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


class TestReportGrid:
    def test_default_grid_plain(self):
        g = default_report_grid()
        assert len(g) == 101

    def test_counterexample_detection(self):
        assert make_un(2).hint_levels == (1 / 3,)
        assert make_limit().hint_levels == (1 / 3,)
        assert default_report_grid([triangular()]) == default_report_grid()
        for inputs in ([make_un(2)], [triangular(), make_limit()]):
            g = default_report_grid(inputs)
            assert 1 / 3 in g.levels
            assert 1 / 3 + 1e-4 in g.levels
