import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymetrics import (
    AlphaGrid,
    BadGrid,
    BadIndex,
    CutCurve1D,
    DeclaredJump,
    EmptyCut,
    Interval,
    NonNested,
    OutOfRange,
    SampledFamily,
    SampledFuzzy1D,
    alpha_cut,
    make_limit,
    make_sampled_1d,
    make_sampled_family,
    make_un,
    membership_at,
    random_family,
    refine_to_grid,
    sample_curve,
    validate_representation,
)
from fuzzymetrics.core import _ROW_BLOCK, _member_rows


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

    def test_union(self):
        g = AlphaGrid(np.array([0.0, 0.5, 1.0])).union(AlphaGrid(np.array([0.0, 0.25, 1.0])))
        assert np.array_equal(g.levels, [0.0, 0.25, 0.5, 1.0])

    def test_hash_consistent_with_eq(self):
        assert hash(AlphaGrid.uniform(3)) == hash(AlphaGrid(np.array([-0.0, 0.5, 1.0])))
        assert len({AlphaGrid.uniform(3), AlphaGrid.uniform(3), AlphaGrid.uniform(4)}) == 2


class TestInterval:
    def test_rejects_inverted(self):
        with pytest.raises(EmptyCut):
            Interval(1.0, 0.0)

    def test_singleton_ok(self):
        assert Interval(2.0, 2.0).width == 0.0


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
            assert report.passed, report.failures()

    def test_limit_passes_despite_right_jump(self):
        # the cut jumps only when approached from above one third; left
        # continuity holds there, which is all the axioms require
        report = validate_representation(make_limit())
        assert report.passed, report.failures()

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

    def test_scalar_only_branching_callable_is_wrapped(self):
        # `a > 0.6` on an array raises ValueError, not TypeError
        u = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 - 0.3 * a - (0.2 if a > 0.6 else 0.0))
        lo, hi = u.endpoints(np.array([0.5, 0.6, 0.7]))
        assert lo.tolist() == [0.0, 0.0, 0.0]
        assert hi.tolist() == [1 - 0.3 * 0.5, 1 - 0.3 * 0.6, 1 - 0.3 * 0.7 - 0.2]
        nested = [c.passed for c in validate_representation(u).checks if c.name.startswith("nested")]
        assert nested == [True, True]


def test_declared_jump_needs_a_nonempty_right_limit():
    # the search reads a declared jump's limits without building an Interval
    with pytest.raises(EmptyCut, match="empty right-limit cut at alpha=0.5"):
        DeclaredJump(alpha=0.5, lower_right=1.0, upper_right=0.0)
    with pytest.raises(EmptyCut):
        DeclaredJump(alpha=0.5, lower_right=0.0, upper_right=float("nan"))


class TestResampling:
    def test_refine_preserves_function(self):
        u = triangular()
        fine = refine_to_grid(u, [0, 0.1, 0.25, 0.5, 0.77, 1])
        for a in np.linspace(0, 1, 41):
            assert abs(alpha_cut(fine, a).lo - alpha_cut(u, a).lo) < 1e-15
            assert abs(alpha_cut(fine, a).hi - alpha_cut(u, a).hi) < 1e-15

    def test_refine_rejects_dropping_nodes(self):
        with pytest.raises(BadGrid):
            refine_to_grid(triangular(), [0, 0.25, 1])

    def test_sample_curve_hits_closed_form_at_nodes(self):
        u = make_un(3)
        s = sample_curve(u, [0.0, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0])
        for a in s.grid.levels.tolist():
            assert alpha_cut(s, a) == alpha_cut(u, a)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def shared_grid_family(draw):
    """A valid family on a random grid whose inner levels are p/q for q not
    a power of two, sampled by a seeded generator at one of three scales."""
    q = draw(st.sampled_from([3, 7, 10, 101, 1_000_003]))
    inner = draw(st.lists(st.integers(1, q - 1), max_size=9, unique=True))
    levels = np.unique(np.concatenate([[0.0, 1.0], np.asarray(inner, dtype=float) / q]))
    count = draw(st.integers(_ROW_BLOCK + 1, 2 * _ROW_BLOCK + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    lower = np.cumsum(rng.uniform(0.0, scale, (count, levels.size)), axis=1)
    upper = lower[:, -1:] + np.cumsum(rng.uniform(0.0, scale, (count, levels.size))[:, ::-1], axis=1)[:, ::-1]
    return make_sampled_family(levels, lower, upper), rng


class TestSampledFamily:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shared_grid_family(), st.integers(0, 300))
    def test_batch_rows_equal_np_interp_bit_for_bit(self, drawn, extra):
        fam, rng = drawn
        levels = fam.grid.levels
        # every node, both ends, a float on either side of each node, and
        # random levels, in a shuffled order
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
