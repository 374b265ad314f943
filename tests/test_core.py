import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymetrics import (
    AlphaGrid,
    BadGrid,
    BadIndex,
    CutCurve1D,
    DeclaredCurvature,
    DeclaredJump,
    EmptyCut,
    Interval,
    NonNested,
    OutOfRange,
    SampledFamily,
    SampledFuzzy1D,
    alpha_cut,
    compactness_conditions_report,
    d_infty_pairs,
    d_infty_parametric,
    default_report_grid,
    equi_continuity_report,
    level_convergence_report,
    make_limit,
    make_sampled_1d,
    make_sampled_family,
    make_un,
    members,
    membership_at,
    random_family,
    refutation_report,
    validate_representation,
)
from fuzzymetrics import core, metrics
from fuzzymetrics import lattice as lattice_mod
from fuzzymetrics.serialize import dumps
from fuzzymetrics.core import (
    PROBE_K_MAX,
    PROBE_K_MIN,
    _BLOCK_CELLS,
    _limit_gaps,
    _member_rows,
    _probe_levels,
    hausdorff_interval,
)


def bisect_membership(u, x, iters=60):
    """Independent oracle: sup level whose cut contains x, by pure bisection
    on alpha_cut containment."""
    if alpha_cut(u, 1.0).contains(x):
        return 1.0
    if not alpha_cut(u, 0.0).contains(x):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if alpha_cut(u, mid).contains(x):
            lo = mid
        else:
            hi = mid
    return lo


def triangular():
    return make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])


class TestUnique:
    # np.unique imports numpy.ma; its pick among -0.0 and 0.0 follows its
    # unstable sort, where core._unique keeps the first
    @given(
        st.lists(st.sampled_from([-0.0, 0.0, 0.25, 1 / 3, 1.0, math.nan, -math.inf]), max_size=40),
        st.integers(1, 3),
    )
    def test_equals_np_unique(self, values, parts):
        arrays = np.array_split(np.array(values, dtype=float), parts)
        ours, theirs = core._unique(*arrays), np.unique(np.concatenate(arrays))
        assert np.array_equal(ours, theirs, equal_nan=True)
        zeros = [math.copysign(1.0, x) for x in values if x == 0.0]
        if zeros:
            assert math.copysign(1.0, ours[ours == 0.0][0]) == zeros[0]
        if len(set(zeros)) < 2:
            assert same_bits(ours, theirs)

    def test_equals_np_unique_on_report_levels(self):
        grid = np.linspace(0.0, 1.0, 101)
        extra = np.concatenate([1 / 3 + 10.0 ** -np.arange(2, 7), 1 / 3 - 10.0 ** -np.arange(2, 7), [1 / 3]])
        for parts in ([grid, extra], [np.linspace(0.0, 1.0, 21), [1 / 3, 0.5]], [[0.0, 1.0], [1 / 3], [0.25, 0.5]]):
            assert same_bits(core._unique(*parts), np.unique(np.concatenate(parts)))


class TestAlphaGrid:
    def test_needs_both_endpoints(self):
        with pytest.raises(BadGrid):
            AlphaGrid(np.array([0.0, 0.5]))
        with pytest.raises(BadGrid):
            AlphaGrid(np.array([0.1, 1.0]))

    def test_needs_strict_increase(self):
        with pytest.raises(BadGrid):
            AlphaGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_needs_two_levels(self):
        with pytest.raises(BadGrid):
            AlphaGrid(np.array([0.0]))

    def test_needs_finite_levels(self):
        with pytest.raises(BadGrid, match="^grid levels must be finite$"):
            AlphaGrid([0.0, math.nan, 1.0])

    def test_hash_consistent_with_eq(self):
        assert hash(AlphaGrid.uniform(3)) == hash(AlphaGrid(np.array([-0.0, 0.5, 1.0])))
        assert len({AlphaGrid.uniform(3), AlphaGrid.uniform(3), AlphaGrid.uniform(4)}) == 2


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(EmptyCut):
            Interval(1.0, 0.0)

    def test_singleton_ok(self):
        assert Interval(2.0, 2.0).contains(2.0)


class TestMakeSampled:
    def test_crisp_box(self):
        u = make_sampled_1d([0, 0.5, 1], [0, 0, 0], [1, 1, 1])
        for a in (0.0, 0.3, 1.0):
            assert alpha_cut(u, a) == Interval(0.0, 1.0)

    def test_triangular(self):
        u = triangular()
        assert alpha_cut(u, 1.0) == Interval(0.5, 0.5)

    def test_non_monotone_lower_rejected(self):
        with pytest.raises(NonNested):
            make_sampled_1d([0, 0.5, 1], [0, 0.6, 0.5], [1, 1, 1])

    def test_empty_cut_rejected(self):
        with pytest.raises(EmptyCut):
            make_sampled_1d([0, 0.5, 1], [0, 0.8, 0.9], [1, 0.7, 0.9])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_sampled_1d([0, 0.5, 1], [0, 0], [1, 1, 1])

    @pytest.mark.parametrize(
        "lower, upper, error, message",
        [
            ([0, 0.6, 0.5], [1, 1, 1], NonNested, "lower endpoints must be nondecreasing in alpha"),
            ([0, 0.5, 0.5], [1, 0.5, 0.7], NonNested, "upper endpoints must be nonincreasing in alpha"),
            # a row that breaks several rules raises the first: finite,
            # nonempty, nested lower, nested upper
            ([0, 0.8, 0.9], [1, 0.7, 0.9], EmptyCut, "empty cut at alpha=0.5: lower 0.8 > upper 0.7"),
            ([0, 0.8, 0.5], [1, 0.7, 0.9], EmptyCut, "empty cut at alpha=0.5: lower 0.8 > upper 0.7"),
            ([0, 0.6, 0.5], [1, 0.8, 0.9], NonNested, "lower endpoints must be nondecreasing in alpha"),
            ([0, 0.8, math.inf], [1, 0.7, 0.9], ValueError, "endpoint samples must be finite"),
        ],
    )
    def test_each_rule_raises_its_own_message(self, lower, upper, error, message):
        with pytest.raises(error) as raised:
            make_sampled_1d([0, 0.5, 1], lower, upper)
        assert str(raised.value) == message

    @pytest.mark.parametrize("make", [make_sampled_1d, make_sampled_family])
    def test_slope_that_overflows_is_refused(self, make):
        # a rise of 1 across a gap of 1e-310 has no float slope, so every
        # endpoint inside the gap would read inf (np.interp's too); the last
        # rule, after the nested upper endpoints
        lower, upper = np.array([0.0, 1.0, 1.0]), np.array([3.0, 3.0, 2.0])
        if make is make_sampled_family:
            lower, upper = np.stack([lower, lower]), np.stack([upper, upper])
        with pytest.raises(OutOfRange) as raised:
            make([0, 1e-310, 1], lower, upper)
        assert str(raised.value) == (
            "endpoint slope overflows between alpha=0.0 and alpha=1e-310: the grid gap is too narrow for its samples"
        )
        with pytest.raises(NonNested):
            make([0, 1e-310, 1], lower, upper[..., ::-1])
        assert make([0, 1e-310, 1], lower[..., ::-1] * 0, upper).lower.max() == 0.0

    @pytest.mark.parametrize("make", [make_sampled_1d, make_sampled_family])
    def test_the_caller_cannot_reach_the_stored_samples(self, make):
        lower, upper = np.array([0.0, 0.25, 0.5]), np.array([1.0, 0.75, 0.5])
        if make is make_sampled_family:
            lower, upper = np.stack([lower, lower]), np.stack([upper, upper])
        expected = lower.tolist(), upper.tolist()
        u = make([0, 0.5, 1], lower, upper)
        lower[...], upper[...] = 9.0, -9.0
        assert (u.lower.tolist(), u.upper.tolist()) == expected
        for stored in (u.lower, u.upper):
            # one private copy: no view of the input or of a larger array
            assert not stored.flags.writeable and stored.base is None
            with pytest.raises(ValueError):
                stored[0] = 0.0


class TestAlphaCut:
    def test_triangular_interpolation(self):
        cut = alpha_cut(triangular(), 0.25)
        assert cut == Interval(0.125, 0.875)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            alpha_cut(triangular(), 1.5)
        with pytest.raises(OutOfRange):
            alpha_cut(triangular(), -0.1)

    def test_counterexample_cut_at_top(self):
        assert alpha_cut(make_un(1), 1.0) == Interval(0.0, 0.0)

    def test_counterexample_low_branch(self):
        for n in (1, 3, 50):
            assert alpha_cut(make_un(n), 1.0 / 3.0) == Interval(0.0, 1.0)
            assert alpha_cut(make_un(n), 0.2) == Interval(0.0, 1.0)

    def test_exact_at_grid_nodes(self):
        for u in random_family(seed=11, count=10):
            levels = u.grid.levels
            for i, a in enumerate(levels.tolist()):
                cut = alpha_cut(u, a)
                assert cut.lo == u.lower[i] and cut.hi == u.upper[i]

    def test_agrees_with_endpoints_bit_for_bit(self):
        # a non-dyadic grid: two ways to interpolate can differ in the last bit
        u = make_sampled_1d([0.0, 0.3, 0.7, 1.0], [-1.0, -0.7, 0.1, 0.3], [2.0, 1.1, 0.9, 0.3])
        levels = np.linspace(0.0, 1.0, 101)
        lo, hi = u.endpoints(levels)
        for a, x, y in zip(levels.tolist(), lo.tolist(), hi.tolist()):
            assert alpha_cut(u, a) == Interval(x, y)

    def test_nestedness(self):
        rng = np.random.default_rng(5)
        for u in random_family(seed=23, count=10):
            for _ in range(20):
                a, b = sorted(rng.uniform(0, 1, 2))
                outer, inner = alpha_cut(u, a), alpha_cut(u, b)
                assert outer.lo <= inner.lo and inner.hi <= outer.hi


class TestMembership:
    def test_peak(self):
        assert membership_at(triangular(), 0.5) == 1.0

    def test_outside_support(self):
        assert membership_at(triangular(), 2.0) == 0.0

    def test_nan_is_out_of_range(self):
        for u in (triangular(), make_un(3)):
            with pytest.raises(OutOfRange):
                membership_at(u, float("nan"))

    def test_interior_matches_bisection_oracle(self):
        u = triangular()
        got = membership_at(u, 0.125)
        assert got == 0.25
        assert abs(bisect_membership(u, 0.125) - got) < 1e-12

    def test_random_points_match_oracle(self):
        rng = np.random.default_rng(2)
        for u in random_family(seed=3, count=8):
            for _ in range(10):
                x = rng.uniform(u.lower[0] - 0.2, u.upper[0] + 0.2)
                assert abs(membership_at(u, x) - bisect_membership(u, x)) < 1e-12

    def test_duality_on_grid_levels(self):
        # x in cut(a)  <=>  membership(x) >= a, exactly, for positive grid
        # levels (the 0-cut is the support closure, not a superlevel set)
        rng = np.random.default_rng(7)
        for u in random_family(seed=17, count=10):
            for a in u.grid.levels.tolist():
                if a == 0.0:
                    continue
                cut = alpha_cut(u, a)
                for x in rng.uniform(u.lower[0] - 0.1, u.upper[0] + 0.1, 8):
                    assert cut.contains(x) == (membership_at(u, x) >= a)

    def test_limit_membership_level(self):
        u = make_limit()
        for x in (0.25, 0.5, 1.0):
            assert abs(membership_at(u, x) - 1.0 / 3.0) <= 1e-9
        assert membership_at(u, 0.0) == 1.0
        assert membership_at(u, 1.5) == 0.0


class TestValidation:
    def test_constructed_sampled_pass(self):
        for u in random_family(seed=29, count=10):
            assert validate_representation(u).passed

    def test_counterexample_members_pass(self):
        for n in (1, 2, 7, 60):
            report = validate_representation(make_un(n))
            assert report.passed, report.to_dict()

    def test_limit_passes_despite_right_jump(self):
        # the cut jumps only when approached from above one third; left
        # continuity holds there, which is all the axioms require
        report = validate_representation(make_limit())
        assert report.passed, report.to_dict()

    def test_one_sided_limits_at_the_jump(self):
        # oracle check of the closed forms around the jump level
        u = make_limit()
        base = alpha_cut(u, 1.0 / 3.0)
        assert base == Interval(0.0, 1.0)
        for k in range(2, 9):
            d = 10.0 ** -k
            below = alpha_cut(u, 1.0 / 3.0 - d)
            above = alpha_cut(u, 1.0 / 3.0 + d)
            assert below == Interval(0.0, 1.0)  # left side continuous
            assert above == Interval(0.0, 0.0)  # right side jumped

    def test_undeclared_left_jump_fails(self):
        u = CutCurve1D(
            lower_fn=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
            upper_fn=lambda a: np.where(np.asarray(a, dtype=float) < 0.5, 1.0, 0.3),
        )
        report = validate_representation(u)
        assert not report.passed
        assert any(c.name == "left_continuity" and not c.passed for c in report.checks)

    def test_jump_at_zero_needs_declaration(self):
        def upper(a):
            a = np.asarray(a, dtype=float)
            return np.where(a > 0.0, 0.0, 1.0)

        zeros = lambda a: np.zeros_like(np.asarray(a, dtype=float))
        undeclared = CutCurve1D(lower_fn=zeros, upper_fn=upper)
        assert not validate_representation(undeclared).passed
        declared = CutCurve1D(
            lower_fn=zeros,
            upper_fn=upper,
            jumps=(DeclaredJump(alpha=0.0, lower_right=0.0, upper_right=0.0),),
        )
        assert validate_representation(declared).passed

    def test_steep_but_continuous_is_not_a_jump(self):
        # slope 50 would exceed tol at the finest probe if the check naively
        # compared raw distances instead of extrapolating the limit
        u = make_sampled_1d([0, 0.98, 1], [0, 0, 0], [2, 2, 1])
        assert validate_representation(u, tol=1e-9).passed

    def test_tol_must_be_positive(self):
        with pytest.raises(OutOfRange):
            validate_representation(triangular(), tol=0.0)

    def test_empty_cuts_are_reported_not_raised(self):
        u = CutCurve1D(lower_fn=lambda a: 1.0 + 0.0 * a, upper_fn=lambda a: 0.0 * a)
        report = validate_representation(u)
        assert [c.name for c in report.checks if not c.passed] == ["cuts_nonempty"]

    @staticmethod
    def curvature_check(u):
        return [c for c in validate_representation(u).checks if c.name == "declared_curvature"]

    def test_false_curvature_declaration_fails(self):
        # the wiggle puts midpoints above their chords on half the probe segments
        def wiggle(curvature=()):
            return CutCurve1D(
                lower_fn=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
                upper_fn=lambda a: 2.0 - a + 0.05 * np.sin(20.0 * a),
                curvature=curvature,
            )

        report = validate_representation(wiggle((DeclaredCurvature(0.0, 1.0, "linear", "convex"),)))
        assert not report.passed
        (check,) = [c for c in report.checks if c.name == "declared_curvature"]
        assert not check.passed and check.measured > 1e-3
        assert [c.name for c in report.checks if not c.passed] == ["declared_curvature"]
        assert validate_representation(wiggle()).passed
        assert self.curvature_check(wiggle()) == []

    @pytest.mark.parametrize("declared, passed", [("concave", True), ("convex", False), ("linear", False), (None, True)])
    def test_each_curvature_name_is_checked(self, declared, passed):
        u = CutCurve1D(
            lower_fn=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
            upper_fn=lambda a: 1.0 - np.asarray(a, dtype=float) ** 2,
            curvature=(DeclaredCurvature(0.0, 1.0, "linear", declared),),
        )
        (check,) = self.curvature_check(u)
        assert check.passed is passed

    def test_declared_pieces_of_valid_numbers_pass(self):
        # the members' convex piece starts at the kink, the limit's linear
        # piece at its jump, whose right limit starts the first segment
        for u in (triangular(), make_limit(), make_un(1), make_un(60)):
            (check,) = self.curvature_check(u)
            assert check.passed, check

    def test_scalar_only_branching_callable_is_wrapped(self):
        # `a > 0.6` on an array raises ValueError, not TypeError
        u = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 - 0.3 * a - (0.2 if a > 0.6 else 0.0))
        lo, hi = u.endpoints(np.array([0.5, 0.6, 0.7]))
        assert lo.tolist() == [0.0, 0.0, 0.0]
        assert hi.tolist() == [1 - 0.3 * 0.5, 1 - 0.3 * 0.6, 1 - 0.3 * 0.7 - 0.2]
        nested = [c.passed for c in validate_representation(u).checks if c.name.startswith("nested")]
        assert nested == [True, True]

    def test_constant_callables_are_evaluated_per_level(self):
        # a float returned for an array of levels has the wrong shape, so the
        # callables are called level by level
        lo, hi = CutCurve1D(lambda a: 0.0, lambda a: 1.0).endpoints([0.0, 0.5, 1.0])
        assert (lo.tolist(), hi.tolist()) == ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_scalar_only_callable_takes_levels_of_any_shape(self, shape):
        u = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 - 0.3 * a - (0.2 if a > 0.6 else 0.0))
        levels = np.linspace(0.5, 0.9, int(np.prod(shape))).reshape(shape)
        lo, hi = u.endpoints(levels)
        assert lo.shape == hi.shape == shape
        assert hi.ravel().tolist() == [1 - 0.3 * a - (0.2 if a > 0.6 else 0.0) for a in levels.ravel().tolist()]


def one_sided_gap(u, alpha, side, jumps):
    """Reference limit probe: one ``alpha_cut`` per offset 2**-k, skipping a
    window that leaves [0, 1] or straddles a declared jump, then the
    linear-in-delta part of the last three kept probes removed."""
    base = alpha_cut(u, alpha)
    deltas, values = [], []
    for k in range(PROBE_K_MIN, PROBE_K_MAX + 1):
        d = 2.0**-k
        probe = alpha + side * d
        if not (0.0 <= probe <= 1.0):
            continue
        window = (min(alpha, probe), max(alpha, probe))
        if any(window[0] < j < window[1] for j in jumps if j != alpha):
            continue
        deltas.append(d)
        values.append(hausdorff_interval(base, alpha_cut(u, probe)))
    if not values:
        return 0.0, 0
    gap = values[-1]
    if len(values) >= 3:
        slope = (values[-3] - values[-1]) / (deltas[-3] - deltas[-1])
        gap = values[-1] - max(slope, 0.0) * deltas[-1]
    return max(gap, 0.0), len(values)


def zeros(a):
    return np.zeros_like(np.asarray(a, dtype=float))


def limit_probe_carriers():
    levels = np.linspace(0.0, 1.0, 1001)
    yield "sampled-1001", make_sampled_1d(levels, -((1.0 - levels) ** 2), 1.0 + (1.0 - levels) ** 3)
    for i, u in enumerate(random_family(seed=5, count=3, jump_at=0.6)):
        yield f"jump-family-{i}", u
    for n in (1, 2, 7, 50, 1000):
        yield f"un-{n}", make_un(n)
    yield "limit", make_limit()
    yield "scalar-only", CutCurve1D(lambda a: 0.0 if a < 0.5 else 0.25, lambda a: 1.0 - 0.5 * a)
    yield "jump-at-0", CutCurve1D(
        zeros,
        lambda a: np.where(np.asarray(a) > 0.0, 1.0 - 0.5 * np.asarray(a), 2.0),
        jumps=(DeclaredJump(0.0, 0.0, 1.0),),
    )
    yield "jump-at-0.4", CutCurve1D(
        zeros,
        lambda a: np.where(np.asarray(a) > 0.4, 1.0 - 0.5 * np.asarray(a), 2.0),
        jumps=(DeclaredJump(0.4, 0.0, 0.8),),
    )
    yield "steep", CutCurve1D(zeros, lambda a: 2.0 - np.arctan(1e4 * (np.asarray(a) - 0.5)) / np.pi)


class CountingCarrier:
    """A carrier that records the size of each ``endpoints`` call."""

    def __init__(self, u):
        self.u = u
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self.u, name)

    def endpoints(self, alphas):
        self.sizes.append(np.size(alphas))
        return self.u.endpoints(alphas)


class TestLimitProbes:
    @pytest.mark.parametrize("u", [pytest.param(u, id=name) for name, u in limit_probe_carriers()])
    def test_rows_equal_the_scalar_reference(self, u):
        jumps = tuple(j.alpha for j in u.jumps)
        expected = []
        for a in _probe_levels(u).tolist():
            if a > 0.0:
                gap, used = one_sided_gap(u, a, -1, jumps)
                expected.append(("left_continuity", a, used == 0 or gap <= 1e-9, gap.hex()))
        gap, used = one_sided_gap(u, 0.0, +1, jumps)
        expected.append(("closure_at_zero", 0.0, 0.0 in jumps or used == 0 or gap <= 1e-9, gap.hex()))
        got = [
            (c.name, c.alpha, c.passed, c.measured.hex())
            for c in validate_representation(u, tol=1e-9).checks
            if c.name in ("left_continuity", "closure_at_zero")
        ]
        assert got == expected

    def test_one_endpoints_call_serves_every_probe(self):
        u = CountingCarrier(dataclasses.replace(make_limit(), curvature=()))
        assert validate_representation(u).passed
        levels = _probe_levels(u).size
        # the probe grid, then every level with its offsets
        assert u.sizes == [levels, levels * (1 + PROBE_K_MAX - PROBE_K_MIN + 1)]


def linear_sampled(levels):
    grid = np.linspace(0.0, 1.0, levels)
    return make_sampled_1d(grid, grid, 3.0 - grid)


class TestLimitProbeBlocks:
    """Validate reads its limit probes a block of levels at a time."""

    def test_blocks_of_levels_give_the_one_block_checks(self, monkeypatch):
        sizes = []
        endpoints = SampledFuzzy1D.endpoints

        def counting(self, alphas):
            sizes.append(np.size(alphas))
            return endpoints(self, alphas)

        monkeypatch.setattr(SampledFuzzy1D, "endpoints", counting)
        u = linear_sampled(5_001)
        blocked = validate_representation(u).to_dict()
        step = core._BLOCK_CELLS // (1 + PROBE_K_MAX - PROBE_K_MIN + 1)
        assert step == 2_340
        # the probe grid, its segment ends and midpoints for the curvature
        # check, then two full blocks of levels and the rest
        assert sizes == [5_001, 10_001] + [step * 28] * 2 + [(5_001 - 2 * step) * 28]
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1 << 30)
        assert dumps(validate_representation(u).to_dict()) == dumps(blocked)
        assert sizes[5:] == [5_001, 10_001, 5_001 * 28]

    @pytest.mark.parametrize("jumps", [(), (0.5,)])
    def test_block_edges_keep_every_gap_and_count(self, jumps, monkeypatch):
        # nonzero gaps and kept counts below 27 at many levels
        u = CutCurve1D(zeros, lambda a: 2.0 - np.arctan(1e4 * (np.asarray(a) - 0.5)) / np.pi)
        levels = np.append(np.linspace(0.0, 1.0, 5_001)[1:], 0.0)
        gaps, kept = _limit_gaps(u, levels, jumps)
        assert (gaps > 0).sum() > 1_000 and kept.min() < 20
        monkeypatch.setattr(core, "_BLOCK_CELLS", 1 << 30)
        one_gaps, one_kept = _limit_gaps(u, levels, jumps)
        assert gaps.tobytes() == one_gaps.tobytes()
        assert kept.tolist() == one_kept.tolist()

    def test_peak_memory_stays_flat_in_the_level_count(self):
        u = linear_sampled(30_001)
        tracemalloc.start()
        try:
            assert validate_representation(u).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every probe of every level at once peaked at 52 MB here
        assert peak < 20e6


class TestBlockBudget:
    """One cell budget, ``core._BLOCK_CELLS``, sizes the blocks of member
    rows, of limit probes, of the lattice screen's ranking and of round 0's
    segments: a budget of a few dozen cells gives every report bit for bit."""

    def test_a_small_budget_changes_no_byte(self, monkeypatch):
        u, v = random_family(seed=5, count=2, levels=101)
        limit = make_limit()
        bounds = []  # the segments of each round-0 or bisection bound call
        envelope_bound = metrics._envelope_bound

        def counting(*lines):
            bounds.append(lines[0].shape[-1])
            return envelope_bound(*lines)

        def dist():
            bounds.clear()
            return dataclasses.asdict(d_infty_parametric(u, v))

        reports = {
            "refutation": lambda: refutation_report(300),
            "screened family": lambda: compactness_conditions_report(random_family(seed=9, count=200, levels=17)).to_dict(),
            "converge": lambda: level_convergence_report(
                members(600), limit, default_report_grid([limit]), eps=1e-3, n_max=600
            ).to_dict(),
            "validate": lambda: validate_representation(linear_sampled(5_001)).to_dict(),
            "dist": dist,
        }
        monkeypatch.setattr(metrics, "_envelope_bound", counting)
        default = {name: dumps(report()) for name, report in reports.items()}
        segments = bounds[0]  # round 0 bounds every segment in one call
        # every module that sizes a block by the budget reads its own binding
        for module in (core, lattice_mod, metrics):
            monkeypatch.setattr(module, "_BLOCK_CELLS", 48)
        assert {name: dumps(report()) for name, report in reports.items()} == default
        # round 0 took blocks of 12 segments (four cut rows each)
        blocks = bounds[: -(-segments // 12)]
        assert len(blocks) > 2 and sum(blocks) == segments and blocks[:-1] == [12] * (len(blocks) - 1)


def tolerance_sites():
    tri = triangular()
    yield "validate_representation", "tol", lambda x: validate_representation(tri, tol=x)
    yield "d_infty_parametric", "tol", lambda x: d_infty_parametric(tri, make_un(1), tol=x)
    yield "d_infty_pairs", "tol", lambda x: d_infty_pairs([(tri, make_un(1))], tol=x)
    yield "level_convergence_report", "eps", lambda x: level_convergence_report([tri], tri, [0.0, 1.0], x, 1)
    yield "equi_continuity_report", "eps", lambda x: equi_continuity_report([tri], eps=x)
    yield "compactness_conditions_report", "eps", lambda x: compactness_conditions_report([tri], eps=x)
    yield "refutation_report-eps", "eps", lambda x: refutation_report(2, eps=x)
    yield "refutation_report-tol", "tol", lambda x: refutation_report(2, tol=x)


class TestTolerances:
    """Every tolerance must be a finite positive number."""

    @pytest.mark.parametrize(
        "value, problem", [(math.inf, "finite"), (0.0, "positive"), (math.nan, "positive"), (-math.inf, "positive")]
    )
    @pytest.mark.parametrize("name, call", [pytest.param(n, c, id=i) for i, n, c in tolerance_sites()])
    def test_rejected(self, name, call, value, problem):
        with pytest.raises(OutOfRange, match=f"^{name} must be {problem}$"):
            call(value)


@pytest.mark.parametrize("alpha", [-0.5, 1.5, math.nan, -math.inf, math.inf])
def test_declared_jump_lies_in_the_unit_interval(alpha):
    # a jump at -0.5 used to pass validation and break the search
    with pytest.raises(OutOfRange, match="outside \\[0, 1\\]"):
        DeclaredJump(alpha, 0.0, 0.5)


def test_declared_jumps_lie_at_distinct_levels():
    jumps = (DeclaredJump(0.5, 0.0, 0.5), DeclaredJump(0.5, 0.0, 0.25))
    with pytest.raises(OutOfRange, match="distinct levels"):
        CutCurve1D(np.zeros_like, lambda a: 1.0 - a, jumps=jumps)
    # the same jump twice is refused too
    with pytest.raises(OutOfRange, match="distinct levels"):
        CutCurve1D(np.zeros_like, lambda a: 1.0 - a, jumps=jumps[:1] * 2)
    # one jump at each of two levels is fine
    CutCurve1D(np.zeros_like, lambda a: 1.0 - a, jumps=(jumps[0], DeclaredJump(0.25, 0.0, 1.0)))


def test_declared_jump_needs_a_nonempty_right_limit():
    # the search reads a declared jump's limits without building an Interval
    with pytest.raises(EmptyCut, match="empty right-limit cut at alpha=0.5"):
        DeclaredJump(alpha=0.5, lower_right=1.0, upper_right=0.0)
    with pytest.raises(EmptyCut):
        DeclaredJump(alpha=0.5, lower_right=0.0, upper_right=float("nan"))


@pytest.mark.parametrize("lower_right, upper_right", [(0.0, math.inf), (-math.inf, 0.5), (-math.inf, math.inf)])
def test_declared_jump_needs_finite_right_limits(lower_right, upper_right):
    with pytest.raises(OutOfRange, match="^right limits at alpha=0.5 must be finite$"):
        DeclaredJump(alpha=0.5, lower_right=lower_right, upper_right=upper_right)


def test_a_curve_cannot_declare_an_infinite_right_limit():
    # upper is 2 up to 0.5 and 1 - a above it, so its right limit at 0.5 is
    # 0.5; an infinite one passed validate and sent the search to [inf, inf]
    def curve(upper_right):
        jump = DeclaredJump(0.5, 0.0, upper_right)
        return CutCurve1D(np.zeros_like, lambda a: np.where(a > 0.5, 1.0 - a, 2.0), jumps=(jump,))

    assert validate_representation(curve(0.5)).passed
    enc = d_infty_parametric(curve(0.5), triangular())
    assert (enc.lower, enc.upper) == (1.25, 1.25)
    with pytest.raises(OutOfRange, match="^right limits at alpha=0.5 must be finite$"):
        curve(math.inf)


def test_declared_curvature_needs_a_piece_and_a_known_name():
    with pytest.raises(OutOfRange, match="not a nonempty part of"):
        DeclaredCurvature(0.5, 0.5, "convex")
    with pytest.raises(OutOfRange, match="not a nonempty part of"):
        DeclaredCurvature(0.5, 1.5, "convex")
    with pytest.raises(OutOfRange, match="curvature must be one of"):
        DeclaredCurvature(0.0, 1.0, upper="convx")
    # the search looks a segment's piece up by its left end
    with pytest.raises(OutOfRange, match="disjoint and in increasing order"):
        CutCurve1D(
            lower_fn=np.zeros_like,
            upper_fn=np.ones_like,
            curvature=(DeclaredCurvature(0.0, 0.6, "linear"), DeclaredCurvature(0.5, 1.0, "linear")),
        )


def test_a_family_row_is_1_based_and_takes_no_part_in_comparison():
    u = make_un(3)
    family, n = u.family
    assert n == 3 and family.endpoints([3], [0.5])[1].tolist() == [u.endpoints(np.array([0.5]))[1].tolist()]
    with pytest.raises(BadIndex, match="^a family row is 1-based, got 0$"):
        dataclasses.replace(u, family=(family, 0))
    assert dataclasses.replace(u, family=None) == u and "family" not in repr(u)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


# the test below reads at least this many levels, so that a block of member
# rows holds at most _BLOCK_CELLS // ROW_LEVELS members and the family drawn
# spans more than one block
ROW_LEVELS = 256


@st.composite
def shared_grid_family(draw):
    """A valid family on a random grid whose inner levels are p/q for q not
    a power of two, sampled by a seeded generator at one of three scales."""
    q = draw(st.sampled_from([3, 7, 10, 101, 1_000_003]))
    inner = draw(st.lists(st.integers(1, q - 1), max_size=9, unique=True))
    levels = np.unique(np.concatenate([[0.0, 1.0], np.asarray(inner, dtype=float) / q]))
    count = draw(st.integers(_BLOCK_CELLS // ROW_LEVELS + 1, 2 * (_BLOCK_CELLS // ROW_LEVELS) + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    lower = np.cumsum(rng.uniform(0.0, scale, (count, levels.size)), axis=1)
    upper = lower[:, -1:] + np.cumsum(rng.uniform(0.0, scale, (count, levels.size))[:, ::-1], axis=1)[:, ::-1]
    return make_sampled_family(levels, lower, upper), rng


class TestSampledFamily:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shared_grid_family(), st.integers(ROW_LEVELS - 8, 300))
    def test_batch_rows_equal_np_interp_bit_for_bit(self, drawn, extra):
        fam, rng = drawn
        levels = fam.grid.levels
        # every node, both ends, a float on either side of each node (8
        # levels or more), and random levels, in a shuffled order
        alphas = rng.permutation(
            np.concatenate(
                [
                    levels,
                    [0.0, 1.0],
                    np.nextafter(levels, -np.inf),
                    np.nextafter(levels, np.inf),
                    rng.uniform(0.0, 1.0, extra),
                ]
            )
        )
        blocks = 0
        for ns, lo, hi in _member_rows(fam, len(fam), alphas):
            blocks += 1
            for n, row_lo, row_hi in zip(ns.tolist(), lo, hi):
                member = fam[n - 1]
                assert same_bits(row_lo, np.interp(alphas, levels, member.lower))
                assert same_bits(row_hi, np.interp(alphas, levels, member.upper))
        assert blocks > 1
        ns = rng.permutation(np.arange(1, len(fam) + 1))[:7]
        lo, hi = fam.endpoints(ns, alphas)
        for n, row_lo, row_hi in zip(ns.tolist(), lo, hi):
            assert same_bits(row_lo, fam[n - 1].endpoints(alphas)[0])
            assert same_bits(row_hi, fam[n - 1].endpoints(alphas)[1])

    def test_stored_sample_at_level_one(self):
        # on [0, 0.1, 1] the last segment's formula at level 1 gives
        # 0.30000000000000004 for the stored upper sample 0.3
        levels = [0.0, 0.1, 1.0]
        lower, upper = [0.0, 0.1, 0.3], [1.0, 0.8, 0.3]
        fam = make_sampled_family(levels, [lower], [upper])
        slope = (upper[2] - upper[1]) / (levels[2] - levels[1])
        assert slope * (1.0 - levels[1]) + upper[1] != upper[2]
        lo, hi = fam.endpoints([1], [1.0])
        assert (lo[0, 0], hi[0, 0]) == (lower[2], upper[2])

    def test_indexing_gives_the_usual_members(self):
        fam = random_family(seed=8, count=6)
        assert isinstance(fam, SampledFamily) and len(fam) == 6
        members = list(fam)
        assert all(isinstance(u, SampledFuzzy1D) and u.grid == fam.grid for u in members)
        assert np.array_equal(fam[-1].lower, fam.lower[5]) and np.array_equal(fam[2].upper, fam.upper[2])
        tail = fam[1:4]
        assert isinstance(tail, SampledFamily) and len(tail) == 3
        assert np.array_equal(tail.lower, fam.lower[1:4])
        with pytest.raises(IndexError):
            fam[6]
        with pytest.raises(TypeError):
            fam[1.0]
        with pytest.raises(ValueError):
            fam.lower[0, 0] = 5.0

    @pytest.mark.parametrize("ns", [[0], [7], [[1, 2]], [1.5]])
    def test_member_indices_are_checked(self, ns):
        with pytest.raises(BadIndex):
            random_family(seed=8, count=6).endpoints(ns, [0.5])

    @pytest.mark.parametrize(
        "row, error",
        [
            (([0.0, 0.5, 1.5], [1.0, 1.0, 1.0]), EmptyCut),
            (([0.0, 0.6, 0.5], [1.0, 1.0, 1.0]), NonNested),
            (([0.0, 0.5, 0.5], [1.0, 1.2, 1.0]), NonNested),
            (([0.0, np.nan, 0.5], [1.0, 1.0, 1.0]), ValueError),
            (([0.0, 0.5, 0.5], [1.0, np.nan, 1.0]), ValueError),
            (([0.0, 0.5, np.inf], [1.0, 1.0, 1.0]), ValueError),
            (([-np.inf, 0.5, 0.5], [1.0, 1.0, 1.0]), ValueError),
            (([0.0, 0.5, 0.5], [np.inf, 1.2, 1.0]), ValueError),
            (([0.0, 0.5, 0.5], [1.0, 1.0, -np.inf]), ValueError),
            (([0.0, 0.5], [1.0, 1.0]), ValueError),
        ],
    )
    def test_first_bad_member_raises_its_own_error(self, row, error):
        good = ([0.0, 0.25, 0.5], [1.0, 0.75, 0.5])
        worse = ([0.0, 0.0, 9.0], [1.0, 1.0, 1.0])  # a later bad member
        lower, upper = zip(good, row, good, worse)
        with pytest.raises(error) as columnar:
            make_sampled_family([0, 0.5, 1], lower, upper)
        with pytest.raises(error) as alone:
            make_sampled_1d([0, 0.5, 1], *row)
        assert str(columnar.value) == str(alone.value)

    @pytest.mark.parametrize(
        "row", [([0.0, 0.5], [1.0, 1.0]), ([0.0, 0.5, 1.0], [1.0, 1.0]), (0.5, 1.0), ([[0.0, 0.5, 1.0]], [[1.0] * 3])]
    )
    def test_a_wrong_shape_raises_the_one_member_error(self, row):
        # a member of the wrong shape makes a family's rows ragged, which
        # numpy refuses before any member is checked; a one-member family
        # raises what the number alone raises
        with pytest.raises(ValueError) as alone:
            make_sampled_1d([0, 0.5, 1], *row)
        with pytest.raises(ValueError) as columnar:
            make_sampled_family([0, 0.5, 1], [row[0]], [row[1]])
        assert str(alone.value) == str(columnar.value) == "endpoint sequences must match the grid length 3"

    def test_rows_must_match_the_grid(self):
        with pytest.raises(ValueError, match="grid length 3"):
            make_sampled_family([0, 0.5, 1], [[0, 1]], [[1, 1]])


def random_family_by_member(seed, count, levels=9, jump_at=None, jump_size=0.5):
    """The member-at-a-time generator ``random_family`` replaced, kept as its
    reference: the same draws, one member after another."""
    rng = np.random.default_rng(seed)
    grid_levels = np.linspace(0.0, 1.0, levels)
    if jump_at is not None:
        grid_levels = np.union1d(grid_levels, [jump_at - 1e-6, jump_at])
    members = []
    for _ in range(count):
        center = rng.uniform(-1.0, 1.0)
        down = np.sort(rng.uniform(0.0, 1.0, grid_levels.size))[::-1]
        up = np.sort(rng.uniform(0.0, 1.0, grid_levels.size))[::-1]
        upper = center + up
        if jump_at is not None:
            upper = upper + np.where(grid_levels < jump_at, jump_size, 0.0)
        members.append(make_sampled_1d(grid_levels, center - down, upper))
    return members


@pytest.mark.parametrize(
    "seed, count, kwargs",
    [(0, 20, {}), (3, 50, {"levels": 5}), (11, 7, {"levels": 2}), (5, 30, {"jump_at": 0.6, "jump_size": 0.4})],
)
def test_random_family_draws_as_member_by_member(seed, count, kwargs):
    fam = random_family(seed, count, **kwargs)
    reference = random_family_by_member(seed, count, **kwargs)
    assert len(fam) == len(reference)
    for u, v in zip(fam, reference):
        assert u.grid == v.grid
        assert same_bits(u.lower, v.lower) and same_bits(u.upper, v.upper)
