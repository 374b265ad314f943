"""Hausdorff distance on cuts, the supremum metric, and level convergence.

The supremum metric between fuzzy numbers is the sup over levels of the
Hausdorff distance between matching cuts.  It is bracketed by an adaptive
branch-and-bound search.  Each segment's range bound is the smaller of the
one that the endpoint monotonicity of the cut axioms gives and a curvature
envelope: where a number declares an endpoint convex, concave or linear,
the endpoint lies between its chord and the extended secant of the
neighbouring half-segment, a bound that shrinks with the square of the
segment width.  The search bisects its open segments a round at a time,
with one array call per number for all the midpoints of a round, and checks
the monotonicity and the declared curvature at every point it evaluates (a
violation raises NonNested or CurvatureMismatch).  Declared jump points, the
ends of curvature pieces and the grid levels of sampled numbers are never
straddled: they are forced split points.  A jump's one-sided limit cuts
enter as explicit supremum candidates, so a sup that is approached (but not
attained) at a jump is still enclosed exactly; between grid levels sampled
numbers are linear, so the sup of a sampled pair is read off the split
points with no bisection.
"""

from __future__ import annotations

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
    "hausdorff_interval",
    "LevelProfile",
    "level_distance_profile",
    "d_infty_parametric",
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
    """H(cut(u, a), cut(v, a)) at every grid level."""
    g = as_grid(grid)
    return LevelProfile(g.levels, _cut_distance(_cuts(u, v, g.levels)))


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


# A frontier holds one column per open segment [a, b]: its two levels, the
# far level c of its sibling (the other half of the segment it was bisected
# from; nan for a round-0 segment, which is bounded without one), the
# ``_cuts`` rows at a, at b and at c, and the curvature signs of those rows.
_A, _B, _C = 0, 1, 2
_LEFT, _RIGHT, _FAR, _SIGNS = slice(3, 7), slice(7, 11), slice(11, 15), slice(15, 19)
_ROWS = 19

# Round 0 bounds this many segments at a time.
_BLOCK = 1 << 14


def _check_nested(a: np.ndarray, b: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Raise NonNested unless both cuts shrink from each segment's left end
    to its right end, as the monotone range bounds assume."""
    nested = left <= right
    if not nested.all():
        i = int(np.argmin(nested.all(axis=0)))
        raise NonNested(f"cut endpoints are not monotone between levels {float(a[i])!r} and {float(b[i])!r}")


def _curvature_signs(u: FuzzyNumber1D, v: FuzzyNumber1D, a: np.ndarray) -> np.ndarray:
    """Curvature signs of the ``_cuts`` rows (+1 convex, -1 concave, 0
    linear, nan undeclared) on the segments that start at the sorted levels
    ``a``; a segment lies in one piece, since the piece ends are split
    points."""
    signs = np.full((4, a.size), np.nan)
    for k, w in enumerate((u, v)):
        for p in w.curvature:
            inside = slice(*a.searchsorted((p.start, p.end)))
            signs[k, inside], signs[k + 2, inside] = _SIGN[p.lower], -_SIGN[p.upper]
    return signs


def _check_curvature(seg: np.ndarray, m: np.ndarray, mid: np.ndarray) -> None:
    """Raise CurvatureMismatch unless each declared row lies on its declared
    side of the chord at the midpoints ``m`` (values ``mid``), up to the
    rounding slack: a convex row on or below it, a concave row on or above,
    a linear row on it."""
    a, b, signs = seg[_A], seg[_B], seg[_SIGNS]
    wrong, slack = _wrong_side(a, b, m, seg[_LEFT], mid, seg[_RIGHT], signs)
    bad = wrong > slack
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        k = int(np.argmax(bad[:, i]))
        sign = signs[k, i] if k < 2 else -signs[k, i]
        name = next(name for name, value in _SIGN.items() if value == sign)
        raise CurvatureMismatch(
            f"the {('lower', 'upper')[k // 2]} endpoint of the {('first', 'second')[k % 2]} number is not "
            f"{name} between levels {float(a[i])!r} and {float(b[i])!r}"
        )


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


def _check_search(tol: float, max_depth: int) -> None:
    """Reject a search tolerance or depth no enclosure can be asked for."""
    _check_tolerance(tol, "tol")
    if max_depth < 0:
        raise OutOfRange("max_depth must be nonnegative")


def d_infty_parametric(
    u: FuzzyNumber1D,
    v: FuzzyNumber1D,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Enclosure:
    """Certified enclosure of the supremum metric between two fuzzy numbers.

    Branch and bound on the level axis.  Declared jumps, the ends of
    declared curvature pieces and the grid levels of sampled numbers force
    split points, and a jump's right-limit cuts are evaluated as explicit
    candidates.  Each segment's sup is bounded above by the smaller of a
    monotone range bound and a curvature envelope: a convex endpoint lies
    below its chord and above the extended secant of the segment's sibling,
    a concave one the reverse, a linear one on its chord.  Each round
    bisects every segment whose bound exceeds the best candidate by more
    than ``tol`` and evaluates all its midpoints in one ``endpoints`` call
    per number, until the bracket is narrower than ``tol``; when the rounds
    would exceed ``max_nodes``, the highest bounds are bisected first.  A
    segment whose endpoints are not monotone raises NonNested, a midpoint
    off its declared side of the chord raises CurvatureMismatch.  When
    ``max_depth`` or ``max_nodes`` stops refinement first, the bracket is
    still certified, just wider than requested.  For two sampled numbers
    every row is linear between split points, so the bound of every segment
    is the larger distance at its ends: the bracket closes with ``lower ==
    upper`` and no node.

    The enclosure certifies the floating-point endpoint functions: the
    monotone and chord bounds treat each evaluated endpoint as exact, and
    only the secant extension is rounded outward.
    """
    _check_search(tol, max_depth)
    if u is v or (u.key is not None and u.key == v.key):
        return Enclosure(0.0, 0.0, attained=True, witness_alpha=0.0)

    grids = [w.grid.levels for w in (u, v) if isinstance(w, SampledFuzzy1D)]
    jump_levels = sorted({j.alpha for w in (u, v) for j in w.jumps if j.alpha < 1.0})
    piece_ends = [x for w in (u, v) for p in w.curvature for x in (p.start, p.end)]
    points = np.unique(np.concatenate([[0.0, 1.0], jump_levels, piece_ends, *grids]))
    cuts = _cuts(u, v, points)
    h = _cut_distance(cuts)
    i = int(np.argmax(h))
    best_point, best_point_at = float(h[i]), float(points[i])
    best_limit = -1.0
    best_limit_at = 0.0

    # round 0 reads its segments off the point cuts; at a jump level the
    # segment to its right starts from the right-limit cuts: a declared
    # jump's, else the cut evaluated there
    a, b, left, right = points[:-1], points[1:], cuts[:, :-1], cuts[:, 1:]
    if jump_levels:
        left = left.copy()
        for k, w in enumerate((u, v)):
            for j in w.jumps:
                if j.alpha < 1.0:
                    left[k::2, np.searchsorted(points, j.alpha)] = j.lower_right, -j.upper_right
        h = _cut_distance(left[:, np.searchsorted(points, jump_levels)])
        i = int(np.argmax(h))
        best_limit, best_limit_at = float(h[i]), float(jump_levels[i])
    _check_nested(a, b, left, right)
    bound = np.empty(a.size)
    for k in range(0, a.size, _BLOCK):
        # a block at a time keeps the temporaries of a large sampled pair small
        s = slice(k, k + _BLOCK)
        bound[s] = _envelope_bound(*_chord_lines(left[:, s], right[:, s], _curvature_signs(u, v, a[s])))
    lower = max(best_point, best_limit, 0.0)
    is_open = bound - lower > tol
    # only open segments enter the frontier; they have no sibling yet
    o = np.flatnonzero(is_open)
    seg = np.full((_ROWS, o.size), np.nan)
    if o.size:
        seg[_A], seg[_B], seg[_LEFT], seg[_RIGHT] = a[o], b[o], left[:, o], right[:, o]
        seg[_SIGNS] = _curvature_signs(u, v, a[o])

    unexpanded = 0.0  # largest bound among segments dropped without bisection
    nodes = 0
    depth = 0  # the segments of one round share their depth
    while True:
        # lower only rises, so a segment within tol of it is never bisected:
        # drop it and keep only its bound, for upper
        unexpanded = max(unexpanded, float(bound.max(initial=0.0, where=~is_open)))
        bound = bound[is_open]
        top = float(bound.max(initial=0.0))
        if top - lower <= tol or nodes >= max_nodes or depth >= max_depth:
            break
        budget = max_nodes - nodes
        if bound.size > budget:
            # highest bounds first, ties in level order
            order = np.argsort(-bound, kind="stable")
            unexpanded = max(unexpanded, float(bound[order[budget]]))
            seg = seg[:, np.sort(order[:budget])]
        nodes += seg.shape[1]
        m = 0.5 * (seg[_A] + seg[_B])
        mid = _cuts(u, v, m)
        h = _cut_distance(mid)
        i = int(np.argmax(h))
        if h[i] > best_point:
            best_point, best_point_at = float(h[i]), float(m[i])
        # both halves of each segment, side by side, written into one new
        # frontier; each half is the other's sibling
        halves = np.empty((seg.shape[0], seg.shape[1], 2))
        first, second = halves[..., 0], halves[..., 1]
        first[_A], first[_B], first[_C] = seg[_A], m, seg[_B]
        first[_LEFT], first[_RIGHT], first[_FAR] = seg[_LEFT], mid, seg[_RIGHT]
        second[_A], second[_B], second[_C] = m, seg[_B], seg[_A]
        second[_LEFT], second[_RIGHT], second[_FAR] = mid, seg[_RIGHT], seg[_LEFT]
        first[_SIGNS] = second[_SIGNS] = seg[_SIGNS]
        parent, seg = seg, halves.reshape(seg.shape[0], -1)
        _check_nested(seg[_A], seg[_B], seg[_LEFT], seg[_RIGHT])
        _check_curvature(parent, m, mid)
        depth += 1
        bound = np.minimum(_monotone_bound(seg[_LEFT], seg[_RIGHT]), _envelope_bound(*_secant_lines(seg)))
        lower = max(best_point, best_limit, 0.0)
        is_open = bound - lower > tol
        seg = seg[:, is_open]

    upper = max(lower, unexpanded, top)
    attained = best_point >= best_limit
    witness = best_point_at if attained else best_limit_at
    return Enclosure(lower, upper, attained=attained, witness_alpha=witness, nodes=nodes)


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
        levels = np.union1d(levels, extra[(extra > 0.0) & (extra <= 1.0)])
    return AlphaGrid(levels)
