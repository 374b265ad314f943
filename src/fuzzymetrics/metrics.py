"""Hausdorff distance on cuts, the supremum metric, and level convergence.

The supremum metric between fuzzy numbers is the sup over levels of the
Hausdorff distance between matching cuts.  On sampled data the sup is a
finite max over grid nodes; on parametric curves it is bracketed by an
adaptive branch-and-bound search whose range bounds come from the endpoint
monotonicity that the cut axioms require.  The search bisects its open
segments a round at a time, with one array call per curve for all the
midpoints of a round, and checks the monotonicity at every point it
evaluates (a violation raises NonNested).  Declared jump points are never
straddled: they are forced split points whose one-sided limit cuts enter as
explicit supremum candidates, so a sup that is approached (but not
attained) at a jump is still enclosed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    AlphaGrid,
    FuzzyNumber1D,
    GridLike,
    SampledFuzzy1D,
    _member_rows,
    as_curve,
    as_grid,
    densify_levels,
    hausdorff_interval,
)
from .bodies import PlanarSupport
from .errors import GridMismatch, NonNested, OutOfRange

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_DEPTH",
    "Enclosure",
    "hausdorff_interval",
    "hausdorff_support_2d",
    "LevelProfile",
    "level_distance_profile",
    "d_infty_sampled",
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


def hausdorff_support_2d(a: PlanarSupport, b: PlanarSupport) -> float:
    """Max absolute support difference over the shared direction grid.

    For compact convex sets this equals the Hausdorff distance; sampled on
    finitely many directions it is a lower bound, exact whenever both
    normal fans are resolved by the grid.
    """
    if a.directions != b.directions:
        raise GridMismatch(f"direction grids differ: {a.directions} vs {b.directions}")
    return float(np.max(np.abs(a.values - b.values)))


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


def d_infty_sampled(u: SampledFuzzy1D, v: SampledFuzzy1D) -> float:
    """Exact supremum metric between sampled numbers.

    Endpoint differences are piecewise linear in alpha, so the sup over
    [0, 1] is attained at a node of the union grid.
    """
    return level_distance_profile(u, v, u.grid.union(v.grid)).max()


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


# A frontier holds one column per open segment [a, b]: its two levels, then
# the ``_cuts`` rows at a and at b.
_A, _B, _LEFT, _RIGHT = 0, 1, slice(2, 6), slice(6, 10)


def _check_nested(seg: np.ndarray) -> None:
    """Raise NonNested unless both cuts shrink from each segment's left end
    to its right end, as the monotone range bounds assume."""
    nested = seg[_LEFT] <= seg[_RIGHT]
    if not nested.all():
        i = int(np.argmin(nested.all(axis=0)))
        raise NonNested(
            f"cut endpoints are not monotone between levels {float(seg[_A, i])!r} and {float(seg[_B, i])!r}"
        )


def _segment_bound(seg: np.ndarray) -> np.ndarray:
    """Upper bound for sup H over each segment, from monotone endpoint ranges.

    On [a, b] each ``_cuts`` row ranges over [row(a), row(b)]; the sup of
    |x - y| over two intervals is max(x_max - y_min, y_max - x_min).
    """
    left, right = seg[_LEFT], seg[_RIGHT]
    gaps = np.maximum(right[0::2] - left[1::2], right[1::2] - left[0::2])
    return np.maximum(gaps.max(axis=0), 0.0)


def _check_search(tol: float, max_depth: int) -> None:
    """Reject a search tolerance or depth no enclosure can be asked for."""
    if not tol > 0:
        raise OutOfRange("tol must be positive")
    if max_depth < 0:
        raise OutOfRange("max_depth must be nonnegative")


def d_infty_parametric(
    u: FuzzyNumber1D,
    v: FuzzyNumber1D,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Enclosure:
    """Certified enclosure of the supremum metric between cut curves.

    Branch and bound on the level axis: each segment's sup is bounded above
    through the monotone cut endpoints, declared jumps force split
    points whose right-limit cuts are evaluated as explicit candidates, and
    segments are bisected until the bracket is narrower than ``tol``.  Each
    round bisects every segment whose bound exceeds the best candidate by
    more than ``tol`` and evaluates all its midpoints in one ``endpoints``
    call per curve; when the rounds would exceed ``max_nodes``, the highest
    bounds are bisected first.  A segment whose endpoints are not monotone
    raises NonNested.  When ``max_depth`` or ``max_nodes`` stops refinement
    first, the bracket is still certified, just wider than requested.
    """
    _check_search(tol, max_depth)
    cu, cv = as_curve(u), as_curve(v)
    if cu is cv or (cu.key is not None and cu.key == cv.key):
        return Enclosure(0.0, 0.0, attained=True, witness_alpha=0.0)

    jump_levels = sorted(
        {j.alpha for j in cu.jumps if j.alpha < 1.0}
        | {j.alpha for j in cv.jumps if j.alpha < 1.0}
    )
    points = np.array(sorted({0.0, 1.0, *jump_levels}))
    cuts = _cuts(cu, cv, points)
    h = _cut_distance(cuts)
    i = int(np.argmax(h))
    best_point, best_point_at = float(h[i]), float(points[i])
    best_limit = -1.0
    best_limit_at = 0.0

    left = cuts[:, :-1].copy()
    for k, x in enumerate(points[:-1].tolist()):
        if x in jump_levels:
            rl_u, rl_v = cu.right_limit(x), cv.right_limit(x)
            left[:, k] = rl_u.lo, rl_v.lo, -rl_u.hi, -rl_v.hi
            h = hausdorff_interval(rl_u, rl_v)
            if h > best_limit:
                best_limit, best_limit_at = h, x
    seg = np.concatenate((points[None, :-1], points[None, 1:], left, cuts[:, 1:]))

    frozen = 0.0
    unexpanded = 0.0  # largest bound among segments dropped without bisection
    nodes = 0
    depth = 0  # the segments of one round share their depth
    while True:
        _check_nested(seg)
        bound = _segment_bound(seg)
        lower = max(best_point, best_limit, 0.0)
        # lower only rises, so a segment within tol of it is never bisected:
        # drop it and keep only its bound, for upper
        is_open = bound - lower > tol
        unexpanded = max(unexpanded, float(bound.max(initial=0.0, where=~is_open)))
        seg, bound = seg[:, is_open], bound[is_open]
        top = float(bound.max(initial=0.0))
        if max(top, frozen) - lower <= tol or nodes >= max_nodes:
            break
        if depth >= max_depth:
            frozen = top  # every open segment sits at this depth
            break
        budget = max_nodes - nodes
        if bound.size > budget:
            # highest bounds first, ties in level order
            order = np.argsort(-bound, kind="stable")
            unexpanded = max(unexpanded, float(bound[order[budget]]))
            seg = seg[:, np.sort(order[:budget])]
        nodes += seg.shape[1]
        m = 0.5 * (seg[_A] + seg[_B])
        mid = _cuts(cu, cv, m)
        h = _cut_distance(mid)
        i = int(np.argmax(h))
        if h[i] > best_point:
            best_point, best_point_at = float(h[i]), float(m[i])
        halves = (np.vstack((seg[_A], m, seg[_LEFT], mid)), np.vstack((m, seg[_B], mid, seg[_RIGHT])))
        seg = np.stack(halves, axis=2).reshape(seg.shape[0], -1)
        depth += 1

    upper = max(lower, frozen, unexpanded, top)
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
    of rows at a time: yields ``(ns, h)`` as :func:`_member_rows` does."""
    lo_u, hi_u = u.endpoints(alphas)
    for ns, lo, hi in _member_rows(seq, count, alphas):
        yield ns, np.maximum(np.abs(lo - lo_u), np.abs(hi - hi_u))


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
    if not eps > 0:
        raise OutOfRange("eps must be positive")
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
        last_violation = np.maximum(last_violation, np.max(np.where(block > eps, ns[:, None], 0), axis=0))
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


def default_report_grid(inputs: Sequence[FuzzyNumber1D] = ()) -> AlphaGrid:
    """101 uniform levels on [0, 1], densified around the hint levels the
    inputs declare (for the counterexample: one third, where the
    interesting behavior concentrates)."""
    return AlphaGrid(densify_levels(np.linspace(0.0, 1.0, 101), inputs))
