import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from fuzzymetrics import (
    EmptyCut,
    GridMismatch,
    NonNested,
    OutOfRange,
    lift_segment,
    make_body_2d,
    make_sampled_1d,
)
from fuzzymetrics import bodies
from fuzzymetrics.bodies import (
    _RECONSTRUCTION_TOL,
    DEFAULT_DIRECTIONS,
    chebyshev_radius,
    direction_angles,
)


def polygon_support(vertices, directions=DEFAULT_DIRECTIONS):
    """Oracle: support of a polygon is the max vertex inner product."""
    th = direction_angles(directions)
    p = np.stack([np.cos(th), np.sin(th)])
    return np.max(np.asarray(vertices, dtype=float) @ p, axis=0)


def empty_cut_message(levels, support):
    """Oracle: the Chebyshev radius of every level in order; the EmptyCut message
    naming the first empty level, or None when every level is nonempty."""
    for a, row in zip(levels, support):
        r = chebyshev_radius(row)
        if r < -_RECONSTRUCTION_TOL:
            return f"support samples at alpha={a} bound an empty region (radius {r:.6g})"
    return None


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the LPs make_body_2d solves."""
    calls = []

    def counting(row):
        calls.append(row)
        return chebyshev_radius(row)

    monkeypatch.setattr(bodies, "chebyshev_radius", counting)
    return calls


def unit_square_body(levels=3):
    h = polygon_support([[0, 0], [1, 0], [1, 1], [0, 1]])
    grid = np.linspace(0.0, 1.0, levels)
    return make_body_2d(grid, np.tile(h, (levels, 1)))


class TestMakeBody:
    def test_nestedness_enforced(self):
        grid = [0.0, 1.0]
        support = np.vstack([np.ones(8), 2 * np.ones(8)])  # grows with alpha
        with pytest.raises(NonNested):
            make_body_2d(grid, support)

    def test_one_support_row_per_level(self):
        with pytest.raises(GridMismatch, match="^support matrix must have one row per grid level$"):
            make_body_2d([0.0, 1.0], np.ones((3, 8)))

    def test_infeasible_support_rejected(self):
        # h(p) + h(-p) < 0 forces an empty halfplane intersection
        th = direction_angles(8)
        h = np.where(np.abs(np.cos(th)) > 0.9, -1.0, 2.0)
        support = np.tile(h, (2, 1))
        with pytest.raises(EmptyCut) as exc:
            make_body_2d([0.0, 1.0], support)
        assert str(exc.value) == empty_cut_message([0.0, 1.0], support)

    @pytest.mark.parametrize(
        "cells, value",
        [((2, 7), np.nan), ((slice(None), 3), np.inf), ((slice(None), 3), -np.inf)],
        ids=["nan-in-a-middle-row", "inf-column", "minus-inf-column"],
    )
    def test_non_finite_support_rejected(self, cells, value):
        support = np.tile(polygon_support([[0, 0], [1, 0], [1, 1], [0, 1]], 16), (5, 1))
        support[cells] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="support values must be finite"):
                make_body_2d(np.linspace(0.0, 1.0, 5), support)

    def test_chebyshev_radii(self):
        assert chebyshev_radius(unit_square_body().support[0]) == pytest.approx(0.5, abs=1e-6)
        disk = make_body_2d([0.0, 1.0], np.ones((2, DEFAULT_DIRECTIONS)))
        assert chebyshev_radius(disk.support[0]) == pytest.approx(1.0, abs=1e-6)
        seg = lift_segment(make_sampled_1d([0, 1], [0, 0], [1, 1]))
        assert chebyshev_radius(seg.support[0]) == pytest.approx(0.0, abs=1e-9)


class TestTopLevelLP:
    def test_valid_body_solves_one_lp(self, lp_calls):
        levels = np.linspace(0.0, 1.0, 101)
        square = polygon_support([[0, 0], [1, 0], [1, 1], [0, 1]])
        make_body_2d(levels, square[None, :] + (1.0 - levels)[:, None])
        assert len(lp_calls) == 1
        assert np.array_equal(lp_calls[0], square)

    def test_first_empty_middle_level_named(self, lp_calls):
        # the square's radius 0.5 plus the offset 0.2 - alpha drops below zero above alpha = 0.7
        levels = np.linspace(0.0, 1.0, 101)
        square = polygon_support([[0, 0], [1, 0], [1, 1], [0, 1]])
        support = square[None, :] + (0.2 - levels)[:, None]
        with pytest.raises(EmptyCut, match=r"alpha=0\.71 bound an empty region \(radius -0\.01\)") as exc:
            make_body_2d(levels, support)
        assert len(lp_calls) <= 1 + math.ceil(math.log2(101))
        assert str(exc.value) == empty_cut_message(levels, support)


@st.composite
def nested_bodies(draw):
    """A polygon around a random center plus a disk offset that turns negative at a random level."""
    directions = draw(st.integers(8, 32))
    count = draw(st.integers(2, 20))
    inner = draw(st.lists(st.integers(1, 999), min_size=count - 2, max_size=count - 2, unique=True))
    levels = np.array([0.0, *(k / 1000 for k in sorted(inner)), 1.0])
    cx, cy = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    corner = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    vertices = [(cx + x, cy + y) for x, y in draw(st.lists(corner, min_size=1, max_size=6))]
    # the offset is positive below level `negative_from` and negative from it on
    negative_from = draw(st.integers(0, count))
    step = draw(st.floats(0.01, 0.5))
    offset = step * (negative_from - np.arange(count)) - step / 2
    return levels, polygon_support(vertices, directions)[None, :] + offset[:, None]


class TestBisectionAgreesWithEveryLevel:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(nested_bodies())
    def test_same_verdict_and_level_as_the_per_level_check(self, case):
        levels, support = case
        expected = empty_cut_message(levels, support)
        if expected is None:
            make_body_2d(levels, support)
            return
        with pytest.raises(EmptyCut) as exc:
            make_body_2d(levels, support)
        assert str(exc.value) == expected


def highs_radius(support):
    """Reference: the same LP, max r subject to cos x + sin y + r <= h, through
    HiGHS.  Its feasibility tolerances are absolute (at the default 1e-7 a
    regular 7-gon of inradius 1e-6 gets 1.0975e-6), so it runs at its
    tightest ones on the body moved by p = (2/N) sum h_k u_k, the center of
    a regular polygon, and scaled to unit size."""
    th = direction_angles(len(support))
    u = np.column_stack([np.cos(th), np.sin(th)])
    moved = support - u @ (2.0 / len(th) * support @ u)
    scale = np.max(np.abs(moved)) or 1.0
    a = np.column_stack([u, np.ones_like(th)])
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(
        c=[0.0, 0.0, -1.0], A_ub=a, b_ub=moved / scale, bounds=[(None, None)] * 3, method="highs", options=tight
    )
    assert res.success, res.message
    return -res.fun * scale


def agrees_with_highs(support):
    r = chebyshev_radius(support)
    assert abs(r - highs_radius(support)) <= 1e-12 * (1.0 + np.max(np.abs(support)))
    return r


coordinate = st.floats(-3.0, 3.0)
directions = st.integers(3, 720)


@st.composite
def polygons(draw):
    """The support of a random polygon; one in three is shifted inward by more
    than its circumradius, so that its halfplanes bound nothing."""
    n = draw(directions)
    center = np.array([draw(coordinate), draw(coordinate)])
    corner = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    vertices = center + draw(st.floats(0.01, 5.0)) * np.array(draw(st.lists(corner, min_size=3, max_size=8)))
    h = polygon_support(vertices, n)
    if draw(st.integers(0, 2)) == 0:
        h = h - np.max(np.linalg.norm(vertices - center, axis=1)) - draw(st.floats(0.01, 3.0))
    return h


class TestRadiusAgreesWithHighs:
    SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

    @SETTINGS
    @given(polygons())
    def test_random_polygons(self, h):
        agrees_with_highs(h)

    @SETTINGS
    @given(st.integers(2, 360), st.integers(0, 719), coordinate, coordinate, coordinate, coordinate)
    def test_segments_have_radius_zero(self, half, k, cx, cy, t0, t1):
        # directions k and k + half bound a segment along their normal from
        # both sides, so its halfplanes meet in the segment itself
        th = direction_angles(2 * half)[k % half]
        along = np.array([-np.sin(th), np.cos(th)])
        h = polygon_support([(cx, cy) + t0 * along, (cx, cy) + t1 * along], 2 * half)
        assert abs(agrees_with_highs(h)) <= 1e-12 * (1.0 + np.max(np.abs(h)))

    @SETTINGS
    @given(directions, coordinate, coordinate)
    def test_points_have_radius_zero(self, n, cx, cy):
        h = polygon_support([(cx, cy)], n)
        assert abs(agrees_with_highs(h)) <= 1e-12 * (1.0 + np.max(np.abs(h)))

    @SETTINGS
    @given(st.sampled_from([3, 4]).flatmap(lambda n: st.lists(coordinate, min_size=n, max_size=n)))
    def test_three_and_four_directions(self, h):
        # with four directions the starting basis 0, 1, 2 gives direction 1 weight 0
        agrees_with_highs(np.array(h))

    @SETTINGS
    @given(st.integers(3, 12), st.integers(1, 60), st.integers(0, 59), coordinate, coordinate, coordinate)
    def test_regular_polygons_touch_every_edge(self, m, q, offset, cx, cy, rho):
        # a regular m-gon with inradius |rho| and edge normals on every q-th of
        # m * q directions, shifted by rho - |rho|: the disk of the optimum
        # touches all m edges, the most degenerate case, and the pivots from
        # the starting basis take zero-length steps, so Bland's rule runs
        n = m * q
        normals = direction_angles(n)[(offset % q) + q * np.arange(m)]
        corners = normals + np.pi / m
        vertices = np.column_stack([np.cos(corners), np.sin(corners)]) * abs(rho) / np.cos(np.pi / m) + (cx, cy)
        h = polygon_support(vertices, n) + rho - abs(rho)
        r = agrees_with_highs(h)
        assert r == pytest.approx(rho, abs=1e-12 * (1.0 + np.max(np.abs(h))))

    def test_off_center_hexagon_inradius(self):
        # circumradius 2 around (3, -1), edge normals on the 360-direction grid
        k = np.arange(6)
        vertices = np.column_stack([3 + 2 * np.cos((2 * k + 1) * np.pi / 6), -1 + 2 * np.sin((2 * k + 1) * np.pi / 6)])
        assert chebyshev_radius(polygon_support(vertices)) == pytest.approx(math.sqrt(3), abs=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_support_rejected(self, value):
        h = np.ones(8)
        h[5] = value
        with pytest.raises(OutOfRange, match="^support values must be finite$"):
            chebyshev_radius(h)

    def test_a_solve_that_does_not_finish_raises(self, monkeypatch):
        # a negative slack tolerance accepts no vertex, so the pivots run out
        monkeypatch.setattr(bodies, "_SLACK_TOL", -1.0)
        with pytest.raises(ArithmeticError, match="did not finish in 30 pivots"):
            chebyshev_radius(np.ones(3))


class TestLift:
    def test_axis_values_recover_endpoints(self):
        u = make_sampled_1d([0, 0.5, 1], [-2, -1, 0], [3, 2, 0])
        body = lift_segment(u)
        # columns 0 and directions // 2 are the angles 0 and pi
        assert np.array_equal(body.support[:, 0], u.upper)
        assert np.array_equal(body.support[:, body.directions // 2], -u.lower)

    def test_matches_interval_hausdorff_exactly(self):
        from fuzzymetrics import alpha_cut, hausdorff_interval

        u = make_sampled_1d([0, 0.5, 1], [0, 0.25, 0.5], [1, 0.75, 0.5])
        v = make_sampled_1d([0, 0.5, 1], [-3, -1, 0], [2, 1, 0])
        bu, bv = lift_segment(u), lift_segment(v)
        for i, a in enumerate(u.grid.levels.tolist()):
            expected = hausdorff_interval(alpha_cut(u, a), alpha_cut(v, a))
            assert np.max(np.abs(bu.support[i] - bv.support[i])) == expected
