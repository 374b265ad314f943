"""Hausdorff distance on cuts, the supremum metric, and level convergence.

The supremum metric between fuzzy numbers is the sup over levels of the
Hausdorff distance between matching cuts.  It is bracketed by an adaptive
branch-and-bound search.  Each segment's range bound is the smaller of the
one that the endpoint monotonicity of the cut axioms gives and a curvature
envelope: where a number declares an endpoint convex, concave or linear,
the endpoint lies between its chord and the extended secant of the
neighbouring half-segment, a bound that shrinks with the square of the
segment width.  The search bisects its open segments a level at a time,
with one array call per number, or per batch family, for all the midpoints
of a round, and checks the monotonicity and the declared curvature at every
point it evaluates (a violation raises NonNested or CurvatureMismatch); a
round with few open segments reads several levels at once and replays
them one at a time.
Declared jump points, the ends of curvature pieces and the grid levels of
sampled numbers are never straddled: they are forced split points.  A
jump's one-sided limit cuts enter as explicit supremum candidates, so a sup
that is approached (but not attained) at a jump is still enclosed exactly;
between grid levels sampled numbers are linear, so the sup of a sampled
pair is read off the split points with no bisection.

``d_infty_pairs`` runs one search for many pairs; ``d_infty_parametric`` is
its one-pair case.  The pairs share the rounds but keep their own budgets:
each stops when its own frontier is empty, at its own ``max_nodes`` or at
``max_depth``, so every enclosure equals the one its pair gets alone, bit
for bit.  Each round reads every source once: a number with one
``endpoints`` call over all the levels its pairs need, a batch family
(``CutCurve1D.family``) with one call to its ``endpoints`` for all its rows,
a column of one level per row (for the refutation's 100 member-vs-limit
pairs, 2 calls in all: the limit's and the members').  A batch raises the
error of the lowest-index failing pair in the earliest round that fails,
with that pair's own message.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    _SIGN,
    AlphaGrid,
    FuzzyNumber1D,
    GridLike,
    SampledFuzzy1D,
    _check_tolerance,
    _member_rows,
    _unique,
    _ulps,
    _wrong_side,
    as_grid,
    hausdorff_interval,
)
from .errors import CurvatureMismatch, NonNested, OutOfRange

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_DEPTH",
    "Enclosure",
    "Enclosures",
    "hausdorff_interval",
    "LevelProfile",
    "level_distance_profile",
    "d_infty_parametric",
    "d_infty_pairs",
    "ConvergenceEntry",
    "ConvergenceReport",
    "level_convergence_report",
    "default_report_grid",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_DEPTH = 60
DEFAULT_MAX_NODES = 200_000
# level-convergence reports keep the full distance traces only for short scans
TRACE_WINDOW_CAP = 1024


@dataclass(frozen=True)
class LevelProfile:
    """Per-level Hausdorff distances between the cuts of one pair."""

    alphas: np.ndarray
    h: np.ndarray

    def __iter__(self):
        return iter(zip(self.alphas.tolist(), self.h.tolist()))

    def __len__(self) -> int:
        return int(self.alphas.size)

    def max(self) -> float:
        return float(np.max(self.h))


def _cuts(u: FuzzyNumber1D, v: FuzzyNumber1D, levels: np.ndarray) -> np.ndarray:
    """Rows (lower_u, lower_v, -upper_u, -upper_v): both cuts at every level.

    The upper endpoints are negated (exactly) so that the cut axioms make
    every row nondecreasing in the level.
    """
    lo_u, hi_u = u.endpoints(levels)
    lo_v, hi_v = v.endpoints(levels)
    return np.array((lo_u, lo_v, -hi_u, -hi_v))


def _cut_distance(cuts: np.ndarray) -> np.ndarray:
    """H between the two cuts in each column of ``_cuts`` rows."""
    return np.maximum(np.abs(cuts[0] - cuts[1]), np.abs(cuts[2] - cuts[3]))


def level_distance_profile(u: FuzzyNumber1D, v: FuzzyNumber1D, grid: GridLike) -> LevelProfile:
    """H(cut(u, a), cut(v, a)) at every grid level: the one-row case of
    :func:`_distance_rows`, which the ``profile`` verb reads."""
    levels = as_grid(grid).levels
    ((_, h),) = _distance_rows([u], 1, v, levels)
    return LevelProfile(levels, h[0])


@dataclass(frozen=True)
class Enclosure:
    """Certified bracket [lower, upper] for a supremum-valued quantity.

    ``attained`` records whether the best known candidate is an actual
    evaluation point (True) or a one-sided limit at a declared jump that the
    supremum only approaches (False).  ``witness_alpha`` is where that
    candidate lives; ``nodes`` counts branch-and-bound segment expansions.
    """

    lower: float
    upper: float
    attained: bool
    witness_alpha: float | None = None
    nodes: int = 0

    def __post_init__(self):
        if self.lower > self.upper:
            raise OutOfRange(f"enclosure lower {self.lower} > upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "attained": self.attained}


# the columns of an Enclosures record: each Enclosure field, its dtype and
# its value for a pair of one number, which gets [0, 0] attained at level 0
_COLUMNS = (
    ("lower", float, 0.0),
    ("upper", float, 0.0),
    ("attained", bool, True),
    ("witness_alpha", float, 0.0),
    ("nodes", np.int64, 0),
)


@dataclass(frozen=True, eq=False)
class Enclosures(abc.Sequence):
    """The enclosures of many pairs as one record of read-only columns.

    Row i of the columns holds the fields of pair i's :class:`Enclosure`,
    which indexing returns; iteration gives them in order, and a record
    equals a tuple of the Enclosures it holds.  The columns are read-only
    copies of those given, and a row whose lower end is above its upper end
    raises OutOfRange, as an Enclosure does.
    """

    lower: np.ndarray
    upper: np.ndarray
    attained: np.ndarray
    witness_alpha: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, name), dtype=dtype) for name, dtype, _ in _COLUMNS]
        if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
            raise OutOfRange("enclosure columns must be 1-D and of one length")
        for (name, _, _), column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        crossed = self.lower > self.upper
        if crossed.any():
            i = int(np.argmax(crossed))
            raise OutOfRange(f"enclosure {i}: lower {self.lower[i].item()} > upper {self.upper[i].item()}")

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def __len__(self) -> int:
        return self.lower.size

    def __getitem__(self, index) -> Enclosure:
        i = operator.index(index)
        return Enclosure(*(getattr(self, name)[i].item() for name, _, _ in _COLUMNS))

    def __iter__(self):
        return map(Enclosure, *(getattr(self, name).tolist() for name, _, _ in _COLUMNS))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, (tuple, Enclosures)) else NotImplemented

    __hash__ = None


# A frontier holds one column per open segment [a, b]: its two levels, the
# far level c of its sibling (the other half of the segment it was bisected
# from; nan for a round-0 segment, which is bounded without one), the
# ``_cuts`` rows at a, at b and at c, and the curvature signs of those rows.
# Beside it a row of pair indices says whose segment each column is.
# Columns stay grouped by pair, in pair order, and in level order within a
# pair.
_A, _B, _C = 0, 1, 2
_LEFT, _RIGHT, _FAR, _SIGNS = slice(3, 7), slice(7, 11), slice(11, 15), slice(15, 19)
_ROWS = 19
# Bisection writes both halves of a segment side by side, each the other's
# sibling: per frontier row, the rows of the first and of the second half
# are read from the segment's rows, its midpoint (row 19) and the cuts there
# (rows 20-23).
_M, _MID = 19, range(20, 24)
_SIDES = np.arange(2)  # the first and the second half
_HALVES = np.array(
    [
        (_A, _M),
        (_M, _B),
        (_B, _A),
        *zip(range(3, 7), _MID),
        *zip(_MID, range(7, 11)),
        *zip(range(7, 11), range(3, 7)),
        *zip(range(15, 19), range(15, 19)),
    ]
)

# Round 0 bounds this many segments at a time.
_BLOCK = 1 << 14
# A round bisects its F open segments j levels deep, the most that keeps
# its F (2**j - 1) midpoints within this many: a round's fixed cost is that
# of this many midpoints or more (one pair of members: 175 us, against 1 us
# a midpoint), so one or two segments cover five or six levels a round.
_LOOKAHEAD_COLUMNS = 64


def _runs(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values, or of equal rows of a 2-D array, in
    the nonempty ``values`` starts."""
    change = np.any(values[1:] != values[:-1], axis=tuple(range(1, values.ndim)))
    return np.flatnonzero(np.concatenate(([True], change)))


def _pair_max(values: np.ndarray, pair: np.ndarray, count: int, where: np.ndarray | None = None) -> np.ndarray:
    """Per pair, the largest of 0 and its ``values`` (those where ``where``
    holds) as ``ndarray.max(initial=0.0)`` takes it: a NaN wins.  ``pair``
    gives each value's pair, grouped."""
    if count == 1:
        return np.maximum.reduce(values, initial=0.0, where=True if where is None else where, keepdims=True)
    if where is not None:
        values, pair = values[where], pair[where]
    out = np.zeros(count)
    if values.size:
        starts = _runs(pair)
        out[pair[starts]] = np.maximum(np.maximum.reduceat(values, starts), 0.0)
    return out


def _pair_argmax(values: np.ndarray, pair: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair, the largest of its ``values`` and the index of the one
    ``np.argmax`` picks (the first NaN, else the first maximum); -inf and -1
    for a pair with none.  ``pair`` gives each value's pair, grouped."""
    if count == 1:
        if not values.size:
            return np.array([-np.inf]), np.array([-1])
        i = values.argmax(keepdims=True)
        return values[i], i
    top, first = np.full(count, -np.inf), np.full(count, -1)
    if values.size:
        starts = _runs(pair)
        top[pair[starts]] = np.maximum.reduceat(values, starts)
        hits = np.flatnonzero((values == top[pair]) | np.isnan(values))
        hits = hits[_runs(pair[hits])]
        first[pair[hits]] = hits
    return top, first


def _later_max(a: np.ndarray, b) -> np.ndarray:
    """Elementwise ``max(a, b)`` as Python takes it: ``b`` only where it is
    greater, so a NaN ``a`` stays."""
    return np.where(b > a, b, a)


def _batch_cuts(
    readers: list, source: np.ndarray, row: np.ndarray, pair: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """``_cuts`` rows of many pairs: column j holds the cuts of pair
    ``pair[j]`` at ``levels[j]``.  Side k of pair p is row ``row[k, p]`` of
    the batch family ``readers[source[k, p]]``, or, where that row is 0, the
    number ``readers[source[k, p]]`` itself.  Each source is read with one
    call: a number with ``endpoints`` over all its levels, a family with
    ``endpoints(ns, levels[:, None])``, a column of one level per row."""
    who, rows, at = source[:, pair].ravel(), row[:, pair].ravel(), np.concatenate([levels, levels])
    ends = np.empty((2, at.size))
    if at.size:
        order = np.argsort(who, kind="stable")
        for cols in np.split(order, _runs(who[order])[1:]):
            reader = readers[who[cols[0]]]
            if rows[cols[0]]:
                lo, hi = reader.endpoints(rows[cols], at[cols, None])
                ends[:, cols] = lo[:, 0], hi[:, 0]
            else:
                ends[:, cols] = reader.endpoints(at[cols])
    return np.concatenate((ends[0], -ends[1])).reshape(4, levels.size)


def _nesting_error(a: np.ndarray, b: np.ndarray, i: int) -> NonNested:
    return NonNested(f"cut endpoints are not monotone between levels {float(a[i])!r} and {float(b[i])!r}")


def _round_flags(halves: np.ndarray):
    """The checks of :func:`_check_round` on the ``halves`` of bisected
    segments, side by side: whether each half is nested, and which declared
    ``_cuts`` rows of each bisected segment lie off their side of the chord.
    The halves hold the segment: a, m and the cuts there are the first
    half's rows, b and the cuts there the second half's."""
    first, second = halves[:, 0::2], halves[:, 1::2]
    nested = (halves[_LEFT] <= halves[_RIGHT]).all(axis=0)
    wrong, slack = _wrong_side(
        first[_A], second[_B], first[_B], first[_LEFT], first[_RIGHT], second[_RIGHT], first[_SIGNS]
    )
    return nested, wrong > slack


def _check_round(pair: np.ndarray, halves: np.ndarray) -> None:
    """Check a round as each pair's own search does, and raise the error of
    the lowest-index pair (``pair`` of each bisected segment) that fails:
    NonNested unless both cuts shrink from the left to the right end of each
    of its ``halves``, else CurvatureMismatch unless each declared row of a
    bisected segment lies on its declared side of the chord at the midpoint,
    up to the rounding slack: a convex row on or below it, a concave row on
    or above, a linear row on it."""
    nested, bad = _round_flags(halves)
    a, b, signs = halves[_A, 0::2], halves[_B, 1::2], halves[_SIGNS, 0::2]
    curved = bad.any(axis=0)
    i = int(np.argmin(nested))  # half i is a half of segment i // 2
    j = int(np.argmax(curved))
    if curved[j] and (nested[i] or pair[j] < pair[i // 2]):
        k = int(np.argmax(bad[:, j]))
        sign = signs[k, j] if k < 2 else -signs[k, j]
        name = next(name for name, value in _SIGN.items() if value == sign)
        raise CurvatureMismatch(
            f"the {('lower', 'upper')[k // 2]} endpoint of the {('first', 'second')[k % 2]} number is not "
            f"{name} between levels {float(a[j])!r} and {float(b[j])!r}"
        )
    if not nested[i]:
        raise _nesting_error(halves[_A], halves[_B], i)


def _chord_lines(left: np.ndarray, right: np.ndarray, signs: np.ndarray):
    """Lines above and below each ``_cuts`` row on its segment, from the
    values at its ends: the chord where the curvature puts it, else the
    monotone constant.  Returns ``(hi_a, hi_b, lo_a, lo_b)``, each line's
    values at a and at b."""
    return np.where(signs >= 0, left, right), right, left, np.where(signs <= 0, right, left)


def _secant_lines(seg: np.ndarray):
    """:func:`_chord_lines`, with the sibling's secant extended over the
    segment on the other side of every convex or concave row: a convex row
    lies above the extension of a neighbouring secant, a concave row below
    it.  The extension is rounded outward by the slack of its arithmetic;
    like the monotone bounds, it takes the evaluated endpoints as exact."""
    a, b, c = seg[_A], seg[_B], seg[_C]
    left, right, far, signs = seg[_LEFT], seg[_RIGHT], seg[_FAR], seg[_SIGNS]
    hi_a, hi_b, lo_a, lo_b = _chord_lines(left, right, signs)
    on_right = c > b
    z = np.where(on_right, b, a)  # the end shared with the sibling
    fz = np.where(on_right, right, left)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (far - fz) / (c - z)
        ext_a, ext_b = fz + s * (a - z), fz + s * (b - z)
    known = np.isfinite(ext_a) & np.isfinite(ext_b)  # a sibling of zero width has no secant
    up, down = known & (signs < 0), known & (signs > 0)
    margin = _ulps(left, right, far)
    hi_a = np.where(up, np.nextafter(ext_a + margin, np.inf), hi_a)
    hi_b = np.where(up, np.nextafter(ext_b + margin, np.inf), hi_b)
    lo_a = np.where(down, np.nextafter(ext_a - margin, -np.inf), lo_a)
    lo_b = np.where(down, np.nextafter(ext_b - margin, -np.inf), lo_b)
    return hi_a, hi_b, lo_a, lo_b


def _monotone_bound(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Upper bound for sup H over each segment, from monotone endpoint ranges.

    On [a, b] each ``_cuts`` row ranges over [row(a), row(b)]; the sup of
    |x - y| over two intervals is max(x_max - y_min, y_max - x_min).
    """
    gaps = np.maximum(right[0::2] - left[1::2], right[1::2] - left[0::2])
    return np.maximum(gaps.max(axis=0), 0.0)


def _envelope_bound(hi_a, hi_b, lo_a, lo_b) -> np.ndarray:
    """Upper bound for sup H over each segment, from lines above and below
    each ``_cuts`` row: for matching rows x, y (the two lower endpoints, the
    two negated upper endpoints) x - y lies below the line hi_x - lo_y, so
    below its larger value at the two ends, and the same for y - x.  On
    :func:`_chord_lines` it is never above :func:`_monotone_bound`.
    """
    gaps = np.maximum(hi_a[0::2] - lo_a[1::2], hi_a[1::2] - lo_a[0::2])
    gaps = np.maximum(gaps, hi_b[0::2] - lo_b[1::2], out=gaps)
    gaps = np.maximum(gaps, hi_b[1::2] - lo_b[0::2], out=gaps)
    return np.maximum(gaps.max(axis=0), 0.0)


def _lookahead(seg: np.ndarray, pair: np.ndarray, depth: int, read: Callable) -> tuple:
    """Bisect every frontier segment (``seg``, of pairs ``pair``) ``depth``
    levels deep, with one ``read`` of the cuts at all the midpoints.

    With the n frontier segments numbered 0..n-1 and half h of any level
    n + h, segment g has halves 2g and 2g + 1.  Returns the halves, and per
    segment g its midpoint, the cut distance there and whether it fails a
    check of :func:`_check_round`, and per half its bound, each as a round
    of one level gives it."""
    n = pair.size
    # each level's midpoints and their pairs, from the ends a and b of its
    # segments in column order
    a, b, levels, owners = seg[_A], seg[_B], [], [pair]
    while True:
        levels.append(0.5 * (a + b))
        if len(levels) == depth:
            break
        ends = np.empty((2, a.size, 2))
        ends[0, :, 0], ends[0, :, 1], ends[1, :, 0], ends[1, :, 1] = a, levels[-1], levels[-1], b
        a, b = ends.reshape(2, -1)
        owners.append(np.repeat(owners[-1], 2))
    m = np.concatenate(levels)
    cuts = read(np.concatenate(owners), m)
    # per segment its two halves; the columns of the flat view side by side
    split = np.empty((_ROWS, m.size, 2))
    halves, parent = split.reshape(_ROWS, -1), seg
    for k in range(depth):
        at = slice(n * ((1 << k) - 1), n * ((2 << k) - 1))
        split[:, at] = np.concatenate((parent, m[None, at], cuts[:, at]))[_HALVES].transpose(0, 2, 1)
        parent = halves[:, 2 * at.start : 2 * at.stop]
    nested, bad = _round_flags(halves)
    fault = ~(nested[0::2] & nested[1::2]) | bad.any(axis=0)
    bound = np.minimum(_monotone_bound(halves[_LEFT], halves[_RIGHT]), _envelope_bound(*_secant_lines(halves)))
    return halves, m, _cut_distance(cuts), fault, bound


def _check_search(tol: float, max_depth: int) -> None:
    """Reject a search tolerance or depth no enclosure can be asked for."""
    _check_tolerance(tol, "tol")
    if max_depth < 0:
        raise OutOfRange("max_depth must be nonnegative")


def _declaration(w: FuzzyNumber1D) -> tuple:
    """All that fixes a number's share of a round-0 layout: its jumps below
    level 1 (level and right limits), its curvature pieces and, for a
    sampled number, its grid."""
    return (
        tuple(j for j in w.jumps if j.alpha < 1.0),
        tuple(w.curvature),
        w.grid if isinstance(w, SampledFuzzy1D) else None,
    )


# A round-0 layout has one column per split point of a pair: its level, the
# curvature signs of the ``_cuts`` rows on the segment that starts there (nan
# at level 1, where none starts), and the ``_cuts`` rows of the right-limit
# cut of a jump declared there (nan for a side that does not jump there).
_LEVEL, _LIMITS = 0, slice(5, 9)


def _split_layout(*declarations: tuple) -> np.ndarray:
    """One pair's round-0 layout, from its two numbers' declarations."""
    jumps = [[j.alpha for j in js] for js, _, _ in declarations]
    piece_ends = [x for _, pieces, _ in declarations for p in pieces for x in (p.start, p.end)]
    grids = [grid.levels for _, _, grid in declarations if grid is not None]
    points = _unique([0.0, 1.0], *jumps, piece_ends, *grids)
    layout = np.full((9, points.size), np.nan)
    layout[_LEVEL] = points
    for k, (js, pieces, _) in enumerate(declarations):
        # a segment lies in one piece, since the piece ends are split points
        for p in pieces:
            inside = slice(*points.searchsorted((p.start, p.end)))
            layout[1 + k, inside], layout[3 + k, inside] = _SIGN[p.lower], -_SIGN[p.upper]
        at = points.searchsorted(jumps[k])
        layout[5 + k, at], layout[7 + k, at] = [j.lower_right for j in js], [-j.upper_right for j in js]
    return layout


def d_infty_pairs(
    pairs: Sequence[tuple[FuzzyNumber1D, FuzzyNumber1D]],
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Enclosures:
    """Certified enclosures of the supremum metric for many pairs at once:
    one :class:`Enclosures` record with a row per ``(u, v)`` pair, in order.

    Branch and bound on the level axis.  Declared jumps, the ends of
    declared curvature pieces and the grid levels of sampled numbers force
    split points, and a jump's right-limit cuts are evaluated as explicit
    candidates.  Each segment's sup is bounded above by the smaller of a
    monotone range bound and a curvature envelope: a convex endpoint lies
    below its chord and above the extended secant of the segment's sibling,
    a concave one the reverse, a linear one on its chord.  Each round
    bisects every segment whose bound exceeds its pair's best candidate by
    more than ``tol``, until the pair's bracket is narrower than ``tol``;
    when a pair's rounds would exceed ``max_nodes``, its highest bounds are
    bisected first.  A round with few open segments reads their midpoints
    several levels deep at once (``_LOOKAHEAD_COLUMNS``, never so deep that
    ``max_depth`` or ``max_nodes`` could stop a pair inside it) and replays
    the levels one at a time, with the results of one-level rounds.  A
    segment whose endpoints are not monotone raises NonNested, a midpoint
    off its declared side of the chord raises CurvatureMismatch.  When
    ``max_depth`` or ``max_nodes`` stops refinement first, the bracket is
    still certified, just wider than requested.  For two sampled numbers
    every row is linear between split points, so the bound of every segment
    is the larger distance at its ends: the bracket closes with
    ``lower == upper`` and no node.  A pair of one number, or of two with
    equal keys, gets ``[0, 0]`` with no search.

    The pairs share the rounds, not the budgets: each stops by its own rule
    (its bracket meets ``tol``, it has expanded ``max_nodes`` nodes, or the
    rounds reach ``max_depth``), so every enclosure equals the one
    :func:`d_infty_parametric` gives that pair alone, bit for bit.  Round 0
    builds one layout of split points, segment curvatures and right-limit
    cuts for all pairs whose numbers declare the same jumps (with their
    right limits), curvature pieces and grids.  Each round reads every
    source once: a number (by identity) with one ``endpoints`` call over all
    the levels its pairs need, a batch family (``CutCurve1D.family``) with
    one ``endpoints(ns, levels[:, None])`` call for all its rows, a column of
    one level per row; the rows of a family declare alike, so their
    declarations are looked up once per family.  A
    batch raises the error of the lowest-index failing pair in the earliest
    round that fails, with the message that pair's own search gives.

    The set-up loops over the pairs once: it keys each side by its source
    and its row there, two ``(2, pairs)`` columns, and reads each source's
    declarations.  The search itself (``_search``) takes only those
    columns, so ``_d_infty_rows`` hands it rows of one batch family against
    one number with set-up work per source, not per pair, and builds no
    member object (the refutation report's search).

    The enclosures certify the floating-point endpoint functions: the
    monotone and chord bounds treat each evaluated endpoint as exact, and
    only the secant extension is rounded outward.
    """
    _check_search(tol, max_depth)
    pairs = list(pairs)
    live = [i for i, (u, v) in enumerate(pairs) if not (u is v or (u.key is not None and u.key == v.key))]
    count = len(live)
    if not count:
        return Enclosures(*_unsearched(len(pairs)))

    # each pair side is keyed by its source, the batch family it is a row of
    # or else the number itself (by identity), and its row there (0 for a
    # number); the rows of a family declare alike, so each source's
    # declaration is read once, from its first number
    sources, readers, declarations, source, row = {}, [], [], [], []
    for i in live:
        for w in pairs[i]:
            reader, n = w.family or (w, 0)
            s = sources.setdefault(id(reader), len(readers))
            if s == len(readers):
                readers.append(reader)
                declarations.append(_declaration(w))
            source.append(s)
            row.append(n)
    source = np.array(source, dtype=np.intp).reshape(count, 2).T
    # float rows: a family reads float indices, and a row past int64 fits
    row = np.array(row, dtype=float).reshape(count, 2).T
    numbers = pairs[live[0]] if count == 1 else None
    searched = _search(readers, source, row, declarations, numbers, tol, max_depth, max_nodes)
    return _spread(searched, live, len(pairs))


def _d_infty_rows(
    family,
    ns,
    v: FuzzyNumber1D,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Enclosures:
    """``d_infty_pairs([(family(n), v) for n in ns], ...)`` bit for bit, with
    no member built but the first: rows ``ns`` of the batch family
    ``family``, whose ``family(n)`` is its row n, against the number ``v``.

    The set-up is per source, not per pair: the rows are one column of
    ``row``, the family's declaration is read from its first searched row,
    and one round-0 layout serves every pair.  A row whose member is ``v``
    itself (``v.family == (family, n)``) gets ``[0, 0]`` with no search.
    """
    _check_search(tol, max_depth)
    ns = np.asarray(ns, dtype=float)
    reader, n = v.family or (v, 0)
    own = reader is family  # v is row n of the family, and read with it
    live = ns != n if own else np.ones(ns.size, dtype=bool)
    count = int(np.count_nonzero(live))
    if not count:
        return Enclosures(*_unsearched(ns.size))
    row = np.array([ns[live], np.full(count, float(n))])
    readers = [family] if own else [family, reader]
    declarations = [_declaration(v)] if own else [_declaration(family(row[0, 0].item())), _declaration(v)]
    source = np.repeat([[0], [len(readers) - 1]], count, axis=1)
    searched = _search(readers, source, row, declarations, None, tol, max_depth, max_nodes)
    return _spread(searched, live, ns.size)


def _search(
    readers: list,
    source: np.ndarray,
    row: np.ndarray,
    declarations: list,
    numbers: tuple | None,
    tol: float,
    max_depth: int,
    max_nodes: int,
) -> tuple:
    """The columns of the enclosures of the pairs of ``source`` and ``row``
    (see :func:`_batch_cuts`), ``declarations`` holding each source's
    :func:`_declaration`: the search of :func:`d_infty_pairs`.  ``numbers``
    is the two numbers of a batch of one pair, which reads them with no
    gathering, else None."""
    count = source.shape[1]
    # the pairs whose numbers declare alike share one layout
    kinds = {}
    declares = np.array([kinds.setdefault(d, len(kinds)) for d in declarations])[source]
    key = declares[0] * len(kinds) + declares[1]
    groups = _unique(key) if count > 1 else key
    kinds = list(kinds)
    layouts = [_split_layout(kinds[g // len(kinds)], kinds[g % len(kinds)]) for g in groups.tolist()]

    def read(pair, levels):
        # one pair reads its two numbers' own endpoints, with no gathering
        return _cuts(*numbers, levels) if numbers else _batch_cuts(readers, source, row, pair, levels)

    # round 0: every pair's layout, side by side in pair order; pair p's
    # columns are its group's, of the layouts side by side
    group = groups.searchsorted(key)
    sizes = np.array([layout.shape[1] for layout in layouts])
    width = sizes[group]
    point_pair = np.repeat(np.arange(count), width)
    shift = (np.cumsum(sizes) - sizes)[group] - (np.cumsum(width) - width)
    table = np.concatenate(layouts, axis=1)[:, np.arange(point_pair.size) + shift[point_pair]]
    x = table[_LEVEL]
    cuts = read(point_pair, x)
    best_point, i = _pair_argmax(_cut_distance(cuts), point_pair, count)
    best_point_at = x[i]

    # the segments between them: every split point but level 1 starts one
    at = np.flatnonzero(x < 1.0)
    pair = point_pair[at]
    a, b, left, right = x[at], x[at + 1], cuts[:, at], cuts[:, at + 1]
    signs, limits = table[1:5, at], table[_LIMITS, at]

    # at a jump level the segment to its right starts from the right-limit
    # cuts: a declared jump's, else the cut evaluated there
    jump = ~np.isnan(limits)
    np.copyto(left, limits, where=jump)
    jumped = np.flatnonzero(jump.any(axis=0))
    best_limit, i = _pair_argmax(_cut_distance(left[:, jumped]), pair[jumped], count)
    best_limit_at = np.append(a[jumped], 0.0)[i]  # level 0 for a pair with none (i = -1)

    crossed = ~(left <= right).all(axis=0)
    if crossed.any():
        # the first such segment is the lowest failing pair's first
        raise _nesting_error(a, b, int(np.argmax(crossed)))
    bound = np.empty(a.size)
    for k in range(0, a.size, _BLOCK):
        # a block at a time keeps the temporaries of a large sampled pair small
        s = slice(k, k + _BLOCK)
        bound[s] = _envelope_bound(*_chord_lines(left[:, s], right[:, s], signs[:, s]))
    floor = _later_max(best_limit, 0.0)  # max(best_point, best_limit, 0.0) is max(best_point, floor)
    lower = _later_max(best_point, floor)
    is_open = bound - lower[pair] > tol
    # only open segments enter the frontier; they have no sibling yet
    o = np.flatnonzero(is_open)
    seg = np.full((_ROWS, o.size), np.nan)
    seg[_A], seg[_B], seg[_LEFT], seg[_RIGHT], seg[_SIGNS] = a[o], b[o], left[:, o], right[:, o], signs[:, o]

    unexpanded = np.zeros(count)  # largest bound among segments dropped without bisection
    upper = np.zeros(count)
    nodes = np.zeros(count, dtype=np.int64)
    spent = 0  # the nodes of all pairs: no pair has expanded more
    active = np.ones(count, dtype=bool)
    depth = 0  # the segments of one level share their depth
    # each open segment is a column (node) of the last lookahead, whose
    # levels are replayed one at a time; round 0's are a lookahead's roots
    tree, node, roots, ahead = seg, np.cumsum(is_open) - 1, 0, 0
    while True:
        # lower only rises, so a segment within tol of it is never bisected:
        # drop it and keep only its bound, for upper (unexpanded is never
        # NaN, so fmax takes the larger as Python's max does)
        unexpanded = np.fmax(unexpanded, _pair_max(bound, pair, count, ~is_open))
        bound, pair, node = bound[is_open], pair[is_open], node[is_open]
        # a pair stops when its frontier is empty (every bound is within tol
        # of its lower end), on its own node budget, or at max_depth
        width = np.bincount(pair, minlength=count)
        stop = width == 0 if depth < max_depth else np.ones(count, dtype=bool)
        if spent >= max_nodes:
            stop |= nodes >= max_nodes
        if stop.any():
            done = stop & active
            top = _pair_max(bound, pair, count)
            upper[done] = _later_max(_later_max(lower, unexpanded), top)[done]
            active &= ~done
            if not active.any():
                break
            keep = active[pair]
            node, bound, pair = node[keep], bound[keep], pair[keep]
            width[done] = 0
        if pair.size > max_nodes - spent:
            # a pair whose rounds would exceed its budget bisects its
            # highest bounds first, ties in level order
            budget = max_nodes - nodes
            keep = np.ones(pair.size, dtype=bool)
            starts = np.cumsum(width) - width
            for p in np.flatnonzero(width > budget).tolist():
                order = starts[p] + np.argsort(-bound[starts[p] : starts[p] + width[p]], kind="stable")
                unexpanded[p] = max(unexpanded[p], float(bound[order[budget[p]]]))
                keep[order[budget[p] :]] = False
            node, pair = node[keep], pair[keep]
            width = np.bincount(pair, minlength=count)
        nodes += width
        spent += pair.size
        if not ahead:
            # a new round, as deep as no max_depth or max_nodes can stop
            ahead = 1
            while (
                ahead < max_depth - depth
                and pair.size * ((2 << ahead) - 1) <= _LOOKAHEAD_COLUMNS
                and spent + pair.size * ((2 << ahead) - 2) <= max_nodes
            ):
                ahead += 1
            tree, levels, dist, fault, bounds = _lookahead(tree[:, node - roots], pair, ahead, read)
            roots, node = pair.size, np.arange(pair.size)
        # one level of the lookahead, as a round of one level bisects it
        h, i = _pair_argmax(dist[node], pair, count)
        better = h > best_point
        if better.any():
            np.copyto(best_point, h, where=better)
            np.copyto(best_point_at, levels[node[i]], where=better)
            lower = _later_max(best_point, floor)
        halves = (2 * node[:, None] + _SIDES).ravel()
        if fault[node].any():
            _check_round(pair, tree[:, halves])
        depth += 1
        ahead -= 1
        bound, node = bounds[halves], halves + roots
        pair = np.repeat(pair, 2)
        is_open = bound - lower[pair] > tol

    attained = best_point >= best_limit
    return lower, upper, attained, np.where(attained, best_point_at, best_limit_at), nodes


def _unsearched(count: int) -> tuple:
    """The columns of ``count`` pairs of one number."""
    return tuple(np.full(count, value, dtype=dtype) for _, dtype, value in _COLUMNS)


def _spread(searched: tuple, live, count: int) -> Enclosures:
    """The record of ``count`` pairs: the ``searched`` columns at the pairs
    ``live`` (indices or a mask), pairs of one number elsewhere."""
    if len(searched[0]) == count:
        return Enclosures(*searched)
    columns = _unsearched(count)
    for column, values in zip(columns, searched):
        column[live] = values
    return Enclosures(*columns)


def d_infty_parametric(
    u: FuzzyNumber1D,
    v: FuzzyNumber1D,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Enclosure:
    """Certified enclosure of the supremum metric between two fuzzy numbers:
    the one-pair case of :func:`d_infty_pairs`, which describes the search.
    """
    return d_infty_pairs([(u, v)], tol, max_depth, max_nodes)[0]


@dataclass(frozen=True)
class ConvergenceEntry:
    """Per-level outcome of a level-convergence scan."""

    alpha: float
    first_index: int | None
    reached: bool
    h_last: float
    h_values: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        d: dict = {
            "alpha": self.alpha,
            "first_index": self.first_index,
            "reached": self.reached,
            "h_last": self.h_last,
        }
        if self.h_values is not None:
            d["h_values"] = list(self.h_values)
        return d


@dataclass(frozen=True)
class ConvergenceReport:
    """Levelwise convergence verdict for a sequence against a limit."""

    entries: tuple[ConvergenceEntry, ...]
    eps: float
    n_max: int
    converged: bool
    failing_alphas: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "n_max": self.n_max,
            "converged": self.converged,
            "failing_alphas": list(self.failing_alphas),
            "entries": [e.to_dict() for e in self.entries],
        }


SequenceLike = Union[Sequence[FuzzyNumber1D], Callable[[int], FuzzyNumber1D]]


def _distance_rows(seq: SequenceLike, count: int, u: FuzzyNumber1D, alphas: np.ndarray):
    """H(cut(member n, a), cut(u, a)) for members 1..count of ``seq``, a block
    of rows at a time: yields ``(ns, h)`` as :func:`_member_rows` does.

    A lower block that is one row broadcast down the members (row stride 0)
    is compared once, as that row.
    """
    lo_u, hi_u = u.endpoints(alphas)
    for ns, lo, hi in _member_rows(seq, count, alphas):
        # in place, but only in arrays made here: a batch ``endpoints`` may
        # return views of the family's stored data
        d = np.subtract(hi, hi_u)
        np.abs(d, out=d)
        shared = lo.strides[0] == 0
        h = np.subtract(lo[:1] if shared else lo, lo_u)
        np.abs(h, out=h)
        # every distance is +0.0 or more (or NaN), so a zero row changes none
        if not shared or h.any():
            np.maximum(h, d, out=d)
        yield ns, d


def level_convergence_report(
    seq: SequenceLike,
    u: FuzzyNumber1D,
    grid: GridLike,
    eps: float,
    n_max: int,
) -> ConvergenceReport:
    """Scan a sequence for levelwise Hausdorff convergence to ``u``.

    ``seq`` is a finite sequence or a 1-based index -> member callable; one
    that carries a batch ``endpoints(ns, alphas)`` is evaluated a block of
    members at a time, and the report does not depend on the block.  At
    each grid level the report records the first index N after which every
    scanned distance stays within ``eps``; "not reached" means the last
    scanned index still violates.  No claim is made beyond the window.
    """
    _check_tolerance(eps, "eps")
    if n_max < 1:
        raise OutOfRange("n_max must be at least 1")
    if not callable(seq):
        n_max = min(n_max, len(seq))

    alphas = as_grid(grid).levels
    last_violation = np.zeros(alphas.size, dtype=np.int64)
    keep_trace = n_max <= TRACE_WINDOW_CAP
    trace = np.empty((n_max, alphas.size)) if keep_trace else None
    h = np.zeros(alphas.size)
    for ns, block in _distance_rows(seq, n_max, u, alphas):
        violated = block > eps
        # most blocks of a converging sequence hold no violation at all
        if violated.any():
            hit = violated.any(axis=0)
            last = ns[::-1][np.argmax(violated[::-1], axis=0)]
            last_violation[hit] = last[hit]
        if keep_trace:
            trace[ns[0] - 1 : ns[-1]] = block
        h = block[-1]

    entries = []
    failing = []
    for i, a in enumerate(alphas.tolist()):
        lv = int(last_violation[i])
        reached = lv < n_max
        first = (lv + 1) if reached else None
        if not reached:
            failing.append(a)
        entries.append(
            ConvergenceEntry(
                alpha=a,
                first_index=first,
                reached=reached,
                h_last=float(h[i]),
                h_values=tuple(trace[:, i].tolist()) if keep_trace else None,
            )
        )
    return ConvergenceReport(
        entries=tuple(entries),
        eps=eps,
        n_max=n_max,
        converged=not failing,
        failing_alphas=tuple(failing),
    )


def default_report_grid(inputs: Sequence[Union[FuzzyNumber1D, SequenceLike]] = ()) -> AlphaGrid:
    """The 101 levels k/100, k = 0..100, densified around every hint level
    the inputs declare (for the counterexample: one third, where the
    interesting behavior concentrates).

    An input is a number, or a family or sequence that answers
    ``hint_levels`` for all its members; a plain sequence of numbers
    declares its members' hint levels.  Each hint adds itself and offsets of
    1e-2 .. 1e-6 on both sides, kept in (0, 1].
    """
    levels = np.linspace(0.0, 1.0, 101)
    hints = sorted(
        {h for x in inputs for u in ([x] if hasattr(x, "hint_levels") else x) for h in u.hint_levels}
    )
    if hints:
        offsets = 10.0 ** -np.arange(2, 7)
        extra = np.concatenate([np.concatenate([h + offsets, h - offsets, [h]]) for h in hints])
        levels = _unique(levels, extra[(extra > 0.0) & (extra <= 1.0)])
    return AlphaGrid(levels)
