"""Planar convex bodies sampled by their support function.

A convex body is encoded as support values h(theta) = sup over the body of
<(cos theta, sin theta), x> on a uniform direction grid; a fuzzy body stacks
one such sample vector per membership level, nested downward in alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AlphaGrid, GridLike, SampledFuzzy1D, _frozen, as_grid
from .errors import EmptyCut, GridMismatch, NonNested, OutOfRange

__all__ = [
    "DEFAULT_DIRECTIONS",
    "direction_angles",
    "FuzzyBody2D",
    "make_body_2d",
    "lift_segment",
    "chebyshev_radius",
]

# 1 degree resolution; even count keeps 0 and pi on the grid exactly.
DEFAULT_DIRECTIONS = 360
# a level's body counts as empty only below this Chebyshev radius, so that
# round-off on a degenerate (segment or point) body is not an error
_RECONSTRUCTION_TOL = 1e-9
# the simplex stops once no halfplane misses its vertex by more than this
# share of 1 + max |h|, which then bounds the radius's error; round-off in the
# slacks stays far below it
_SLACK_TOL = 1e-13
# a basis weight at or below this is zero: a step that drops it has zero length
_WEIGHT_TOL = 1e-14


def direction_angles(count: int) -> np.ndarray:
    """Uniform angles 2*pi*k/count, k = 0..count-1."""
    if count < 3:
        raise OutOfRange("need at least 3 directions to bound a planar body")
    return 2.0 * np.pi * np.arange(count) / count


def chebyshev_radius(support: np.ndarray) -> float:
    """Radius of the largest disk inside the halfplanes of one level's
    support row (one value per direction of :func:`direction_angles`).

    Negative when the sampled halfplanes have empty intersection, zero for
    degenerate (lower-dimensional) bodies.  Smaller support values shrink
    every halfplane, so across the nested levels of a fuzzy body the radius
    is nonincreasing in alpha.

    The radius is max r subject to ``a_k . (x, y, r) <= h_k`` with
    ``a_k = (cos t_k, sin t_k, 1)``.  A simplex on a basis of three
    directions solves it: the basis's vertex z solves ``A_B z = h_B``, and
    its weights w >= 0, ``A_B^T w = (0, 0, 1)``, place the origin in the hull
    of its directions, so they are feasible for the dual (minimize h . w).
    Directions 0, N//3 and 2N//3 start it.  Three distinct directions are
    never collinear, so no basis is singular.  While some halfplane misses
    the vertex, the most violated one enters and a ratio test on the weights
    picks the one that leaves.  From the first zero-length step on, Bland's
    rule (smallest index enters, smallest tied index leaves) rules out
    cycling.  A solve that passes 10 N pivots raises ``ArithmeticError``.
    """
    h = np.asarray(support, dtype=float)
    th = direction_angles(len(h))
    # an infinite or NaN value would make the stopping tolerance meaningless
    if not np.all(np.isfinite(h)):
        raise OutOfRange("support values must be finite")
    a = np.column_stack([np.cos(th), np.sin(th), np.ones_like(th)])
    tol = _SLACK_TOL * (1.0 + np.max(np.abs(h)))
    basis = np.array([0, len(h) // 3, 2 * len(h) // 3])
    bland = False
    pivots = 10 * len(h)
    for _ in range(pivots):
        inv = np.linalg.inv(a[basis])
        z = inv @ h[basis]
        slack = h - a @ z
        slack[basis] = 0.0
        violated = np.flatnonzero(slack < -tol)
        if violated.size == 0:
            return float(z[2])
        enter = violated[0] if bland else violated[np.argmin(slack[violated])]
        # the weights move along -d as the entering direction's weight grows
        weights = np.where(inv[2] > _WEIGHT_TOL, inv[2], 0.0)
        d = a[enter] @ inv
        ratio = np.full(3, np.inf)
        np.divide(weights, d, out=ratio, where=d > 0)
        step = ratio.min()
        ties = np.flatnonzero(ratio == step)
        basis[ties[np.argmin(basis[ties])]] = enter
        bland = bland or step == 0.0
    raise ArithmeticError(f"Chebyshev radius simplex did not finish in {pivots} pivots")


@dataclass(frozen=True)
class FuzzyBody2D:
    """Alpha-indexed nested family of planar bodies via support samples.

    ``support`` has one row per grid level and one column per direction.
    """

    grid: AlphaGrid
    support: np.ndarray

    def __post_init__(self):
        s = _frozen(self.support)
        if s.ndim != 2 or s.shape[0] != len(self.grid):
            raise GridMismatch("support matrix must have one row per grid level")
        object.__setattr__(self, "support", s)

    @property
    def directions(self) -> int:
        return int(self.support.shape[1])


def make_body_2d(grid: GridLike, support: np.ndarray) -> FuzzyBody2D:
    """Build a validated fuzzy body from per-level support samples.

    Checks that the samples are finite, nested (support nonincreasing in
    alpha, directionwise) and that each level's halfplane intersection is a
    nonempty bounded polygon.  Nested levels have nested halfplane sets, so
    the top level is the smallest: one :func:`chebyshev_radius` solve there
    validates every level, and only a rejected body bisects for its first
    empty level.
    """
    g = as_grid(grid)
    body = FuzzyBody2D(g, support)
    s = body.support
    if s.shape[1] < 3:
        raise OutOfRange("need at least 3 directions")
    if not np.all(np.isfinite(s)):
        raise OutOfRange("support values must be finite")
    if np.any(np.diff(s, axis=0) > 0):
        raise NonNested("support values must be nonincreasing in alpha in every direction")
    # levels up to index ok are nonempty; level empty is empty, radius r
    ok, empty = -1, len(g) - 1
    r = chebyshev_radius(body.support[empty])
    if r >= -_RECONSTRUCTION_TOL:
        return body
    while empty - ok > 1:
        mid = (ok + empty) // 2
        r_mid = chebyshev_radius(body.support[mid])
        if r_mid < -_RECONSTRUCTION_TOL:
            empty, r = mid, r_mid
        else:
            ok = mid
    raise EmptyCut(f"support samples at alpha={g.levels[empty]} bound an empty region (radius {r:.6g})")


def lift_segment(u: SampledFuzzy1D, directions: int = DEFAULT_DIRECTIONS) -> FuzzyBody2D:
    """Embed a 1-D fuzzy number as the segment [lower, upper] on the x-axis.

    The segment's support is hi*cos(theta) in forward directions and
    lo*cos(theta) in backward ones, so values at angles 0 and pi recover the
    endpoints exactly.
    """
    c = np.cos(direction_angles(directions))
    fwd = c >= 0.0
    s = np.where(fwd[None, :], u.upper[:, None] * c[None, :], u.lower[:, None] * c[None, :])
    return FuzzyBody2D(u.grid, s)
