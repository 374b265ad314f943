"""Cut-based representations of 1-D fuzzy numbers and their validation.

A fuzzy number is stored through its alpha-cuts: a nested family of closed
intervals indexed by membership level alpha in [0, 1].  Two carriers are
provided: ``SampledFuzzy1D`` holds endpoint samples on a finite grid
(piecewise-linear in between), ``CutCurve1D`` holds closed-form endpoint
callables, monotone as the cut axioms require, plus declared jump points and
endpoint curvature.  ``SampledFamily`` holds many sampled numbers on one
shared grid as two arrays.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import abc
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BadGrid, BadIndex, EmptyCut, NonNested, OutOfRange

__all__ = [
    "AlphaGrid",
    "Interval",
    "SampledFuzzy1D",
    "DeclaredJump",
    "DeclaredCurvature",
    "CutCurve1D",
    "FuzzyNumber1D",
    "as_grid",
    "make_sampled_1d",
    "SampledFamily",
    "make_sampled_family",
    "alpha_cut",
    "membership_at",
    "ValidationCheck",
    "ValidationReport",
    "validate_representation",
]

# One-sided limit probes: offsets 2**-k, k = PROBE_K_MIN..PROBE_K_MAX.
PROBE_K_MIN = 4
PROBE_K_MAX = 30
DEFAULT_VALIDATION_TOL = 1e-9


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``, as every carrier stores it."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AlphaGrid:
    """Strictly increasing membership levels spanning [0, 1] inclusively."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise BadGrid("grid needs at least the two endpoint levels 0 and 1")
        if not np.all(np.isfinite(arr)):
            raise BadGrid("grid levels must be finite")
        if arr[0] != 0.0 or arr[-1] != 1.0:
            raise BadGrid("grid must start at 0 and end at 1")
        if not np.all(np.diff(arr) > 0):
            raise BadGrid("grid levels must be strictly increasing")
        object.__setattr__(self, "levels", _frozen(arr))

    @staticmethod
    def uniform(count: int) -> "AlphaGrid":
        if count < 2:
            raise BadGrid("uniform grid needs at least 2 levels")
        return AlphaGrid(np.linspace(0.0, 1.0, count))

    def __len__(self) -> int:
        return int(self.levels.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlphaGrid) and np.array_equal(self.levels, other.levels)

    def __hash__(self) -> int:
        # float hashing equates 0.0 and -0.0, as array_equal does
        return hash(tuple(self.levels.tolist()))


GridLike = Union[AlphaGrid, Sequence[float], np.ndarray]


def as_grid(grid: GridLike) -> AlphaGrid:
    """Coerce an array-like of levels into a validated AlphaGrid."""
    if isinstance(grid, AlphaGrid):
        return grid
    return AlphaGrid(np.asarray(grid, dtype=float))


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [lo, hi]; singletons have lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise EmptyCut(f"empty interval: lo={self.lo} > hi={self.hi}")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


CURVATURES = ("convex", "concave", "linear")
# The curvature sign of an endpoint; negating an upper endpoint flips it.
_SIGN = {"convex": 1.0, "concave": -1.0, "linear": 0.0, None: np.nan}

# Rounding slack, in units in the last place of the values compared.  The
# curvature check also allows this many units of the level times the
# steepest nearby slope: an endpoint formula may cancel in its level argument
# (``1.5 a - 0.5`` near one third), which moves its values by about one unit
# of the level times the slope and can put a convex endpoint a hair above
# its chord.
_SLACK_ULPS = 4.0


def _ulps(*values: np.ndarray) -> np.ndarray:
    """The rounding slack of arithmetic on ``values``: ``_SLACK_ULPS`` units
    in the last place of the largest."""
    return _SLACK_ULPS * np.spacing(functools.reduce(np.maximum, map(np.abs, values)))


def _wrong_side(a, b, m, left, mid, right, signs) -> tuple[np.ndarray, np.ndarray]:
    """How far the values ``mid`` at levels ``m`` lie on the wrong side of
    the chords from ``left`` at ``a`` to ``right`` at ``b``, and the rounding
    slack a curvature check allows there: a row of sign +1 (convex) is wrong
    above its chord, -1 (concave) below it, 0 (linear) off it; NaN where its
    sign is NaN (nothing declared) or the segment has no interior float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        into = m - a
        above = mid - (left + (right - left) * (into / (b - a)))
        slope = np.maximum(np.abs(mid - left) / into, np.abs(right - mid) / (b - m))
    wrong = np.where(signs == 0, np.abs(above), signs * above)
    wrong[..., ~((a < m) & (m < b))] = np.nan  # a segment one unit wide has no interior float
    return wrong, _ulps(left, mid, right) + _SLACK_ULPS * slope * np.spacing(b)


@dataclass(frozen=True)
class DeclaredCurvature:
    """Declared curvature of both cut endpoints, in alpha, on [start, end].

    ``lower`` and ``upper`` are each "convex", "concave", "linear" or None
    (nothing declared).  At a declared jump at ``start`` the declaration
    holds with the endpoint's right limit there in place of its value.
    """

    start: float
    end: float
    lower: str | None = None
    upper: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.start < self.end <= 1.0:
            raise OutOfRange(f"curvature piece [{self.start}, {self.end}] is not a nonempty part of [0, 1]")
        for name in (self.lower, self.upper):
            if name is not None and name not in CURVATURES:
                raise OutOfRange(f"curvature must be one of {CURVATURES} or None, got {name!r}")


@dataclass(frozen=True, eq=False)
class _Samples:
    """Endpoint samples on a grid, stored read-only: one number's, or a row
    per member of a family.  Sampled numbers declare no hint levels."""

    grid: AlphaGrid
    lower: np.ndarray
    upper: np.ndarray
    hint_levels = ()

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))


@dataclass(frozen=True)
class SampledFuzzy1D(_Samples):
    """Endpoint samples of the cuts on a grid, linear in alpha in between.

    Built through :func:`make_sampled_1d`, which enforces nestedness and
    nonemptiness; direct construction assumes already-valid data.  Like a
    :class:`CutCurve1D` it answers ``jumps``, ``hint_levels``, ``key``,
    ``curvature`` and ``family``: it declares no jump, hint level, key or
    family, and both endpoints linear between grid levels (the supremum
    search splits at every grid level, so one piece on [0, 1] says so).
    """

    jumps = ()
    key = None
    family = None
    curvature = (DeclaredCurvature(0.0, 1.0, "linear", "linear"),)

    def endpoints(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cut endpoints at each alpha (vectorized, exact at grid nodes)."""
        a = np.asarray(alphas, dtype=float)
        lo = np.interp(a, self.grid.levels, self.lower)
        hi = np.interp(a, self.grid.levels, self.upper)
        return lo, hi


@dataclass(frozen=True)
class DeclaredJump:
    """A declared right-side discontinuity of the cut curve at ``alpha`` in
    [0, 1].

    ``lower_right`` / ``upper_right`` are the exact one-sided limits of the
    endpoints as the level decreases to ``alpha`` from above.  Valid fuzzy
    numbers are left-continuous, so the value at ``alpha`` itself is always
    the left limit and needs no declaration.
    """

    alpha: float
    lower_right: float
    upper_right: float

    def __post_init__(self):
        _check_level(self.alpha)
        if not self.lower_right <= self.upper_right:
            raise EmptyCut(
                f"empty right-limit cut at alpha={self.alpha}: lower {self.lower_right} > upper {self.upper_right}"
            )
        if math.isinf(self.lower_right) or math.isinf(self.upper_right):
            raise OutOfRange(f"right limits at alpha={self.alpha} must be finite")


@dataclass(frozen=True)
class CutCurve1D:
    """Parametric fuzzy number: endpoint evaluators on [0, 1] plus metadata.

    ``lower_fn`` must be nondecreasing and ``upper_fn`` nonincreasing, as
    the cut axioms require; that monotonicity is what certifies range
    bounds in the adaptive supremum search.  All genuine discontinuities
    must be declared, at most one per level; the callables should accept numpy arrays, scalar-only
    callables are wrapped on demand.  ``hint_levels`` names levels where the
    cut map changes character; the default report grid is densified around
    them (see ``metrics.default_report_grid``).  ``curvature`` declares the
    convexity of each endpoint on disjoint pieces of [0, 1], in increasing
    order: the search splits at their ends and bounds a segment inside a
    piece by chords and extended secants, and raises CurvatureMismatch at an
    evaluated point that contradicts a declaration.

    ``family``, when given, is ``(batch, n)``: the number is row n of a
    batch family, so ``batch.endpoints(ns, alphas)`` gives its endpoints as
    the row of ``n`` bit for bit, and it declares the same jumps and
    curvature as every other row of ``batch``.  The supremum search reads
    the rows of one family that need the same levels with one batch call
    and looks their declarations up once.  It takes no part in comparison
    or ``repr``.
    """

    lower_fn: Callable[[np.ndarray], np.ndarray]
    upper_fn: Callable[[np.ndarray], np.ndarray]
    jumps: tuple[DeclaredJump, ...] = ()
    hint_levels: tuple[float, ...] = ()
    key: tuple | None = field(default=None, compare=False)
    curvature: tuple[DeclaredCurvature, ...] = ()
    family: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len({j.alpha for j in self.jumps}) < len(self.jumps):
            raise OutOfRange(f"declared jumps must lie at distinct levels: {self.jumps}")
        for before, after in zip(self.curvature, self.curvature[1:]):
            if after.start < before.end:
                raise OutOfRange(
                    f"curvature pieces must be disjoint and in increasing order: {before} then {after}"
                )
        if self.family is not None and operator.index(self.family[1]) < 1:
            raise BadIndex(f"a family row is 1-based, got {self.family[1]}")

    def endpoints(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(alphas, dtype=float)
        try:
            lo = np.asarray(self.lower_fn(a), dtype=float)
            hi = np.asarray(self.upper_fn(a), dtype=float)
            if lo.shape != a.shape or hi.shape != a.shape:
                raise TypeError
        except (TypeError, ValueError):
            # scalar-only callables: a type error, or an ambiguous truth value
            # where the callable branches on its argument; levels of any shape
            lo = np.array([float(self.lower_fn(x)) for x in a.ravel()]).reshape(a.shape)
            hi = np.array([float(self.upper_fn(x)) for x in a.ravel()]).reshape(a.shape)
        return lo, hi


FuzzyNumber1D = Union[SampledFuzzy1D, CutCurve1D]


def make_sampled_1d(grid: GridLike, lower: Sequence[float], upper: Sequence[float]) -> SampledFuzzy1D:
    """Build a validated sampled fuzzy number from endpoint samples: the
    one-member case of :func:`make_sampled_family`, whose check reads the
    number's one stored copy as a row."""
    g = as_grid(grid)
    u = _stored(SampledFuzzy1D, g, lower, upper, ([lower], [upper]))
    _check_samples(g, u.lower[None], u.upper[None])
    return u


@dataclass(frozen=True, eq=False)
class SampledFamily(_Samples, abc.Sequence):
    """Sampled fuzzy numbers on one shared grid, held as two arrays.

    ``lower`` and ``upper`` have shape ``(count, len(grid))``; row i holds
    the samples of item i, which indexing returns as the usual
    :class:`SampledFuzzy1D` (a slice gives a family).  Built through
    :func:`make_sampled_family`, which validates every member; direct
    construction assumes already-valid data.  Sampled numbers declare no
    hint levels, so the family declares none for all of them.
    """

    def __len__(self) -> int:
        return self.lower.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampledFamily(self.grid, self.lower[index], self.upper[index])
        i = operator.index(index)
        return SampledFuzzy1D(self.grid, self.lower[i], self.upper[i])

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints of members ``ns`` (1-based, rows) at levels ``alphas``
        (columns).

        Row i equals ``self[ns[i] - 1].endpoints(alphas)`` bit for bit.  The
        segment and offset of each level are found once per call; each array
        then gathers the slope and the sample of those segments and takes one
        multiply-add in ``np.interp``'s own formula, slope * (alpha - level)
        + sample, and the stored sample at every node (a segment formula can
        miss the last bit at level 1).  The work runs levels-major, one row
        of members per level, so every gather copies whole rows; both
        results are transposed views of those ``(levels, members)`` arrays.
        """
        ns = np.asarray(ns)
        if ns.dtype.kind not in "iu" or ns.ndim != 1 or not np.all((ns >= 1) & (ns <= len(self))):
            raise BadIndex(f"member indices must be integers in 1..{len(self)}")
        rows = ns - 1
        at, node, seg, offset = _segments(self.grid.levels, alphas)
        offset = offset[:, None]
        widths = np.diff(self.grid.levels)[:, None]

        def interp(samples: np.ndarray) -> np.ndarray:
            fp = np.ascontiguousarray(samples[rows].T)
            out = np.take(np.diff(fp, axis=0) / widths, seg, axis=0)
            out *= offset
            out += np.take(fp, seg, axis=0)
            out[node] = fp[at[node]]
            return out.T

        return interp(self.lower), interp(self.upper)


def _segments(levels: np.ndarray, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The segment rule of sampled endpoints on the grid ``levels``, for the
    1-D ``alphas``: ``(at, node, seg, offset)``.

    ``levels[at]`` is the last level at or below each alpha, ``node`` marks
    the alphas that are levels, and a sample is read as slope * offset +
    sample on segment ``seg`` (the last segment holds level 1) at ``offset``
    = alpha - levels[seg].  Alphas are clipped to [0, 1] first, as np.interp
    holds the end samples outside.  ``SampledFamily.endpoints`` and the
    lattice screen of :func:`_worst_moves` both read their segments here."""
    a = np.clip(np.atleast_1d(np.asarray(alphas, dtype=float)), 0.0, 1.0)
    at = np.searchsorted(levels, a, side="right") - 1  # levels[at] <= a
    node = levels[at] == a
    seg = np.minimum(at, levels.size - 2)
    return at, node, seg, a - levels[seg]


def make_sampled_family(grid: GridLike, lower: np.ndarray, upper: np.ndarray) -> SampledFamily:
    """Build a validated family of sampled numbers on one grid.

    ``lower`` and ``upper`` hold one row of samples per member.  Every
    member is checked in one vectorized pass; the first bad member raises
    the error of the first rule it breaks: finite samples, nonempty cuts,
    nested lower and upper endpoints, then slopes that a float holds on
    every grid gap (``OutOfRange``).
    """
    g = as_grid(grid)
    family = _stored(SampledFamily, g, lower, upper, (lower, upper))
    _check_samples(g, family.lower, family.upper)
    return family


def _wrong_length(g: AlphaGrid) -> ValueError:
    return ValueError(f"endpoint sequences must match the grid length {len(g)}")


def _stored(carrier, g: AlphaGrid, lower, upper, rows: tuple):
    """``carrier(g, lower, upper)``, which stores its one read-only copy of
    the samples, not yet checked; ``rows`` holds the samples' rows as given,
    lower then upper."""
    try:
        return carrier(g, lower, upper)
    except ValueError:
        # numpy refuses rows of unequal length before any member is checked
        if any(not hasattr(row, "__len__") or len(row) != len(g) for side in rows for row in side):
            raise _wrong_length(g) from None
        raise


def _check_samples(g: AlphaGrid, lo: np.ndarray, hi: np.ndarray) -> None:
    """The one sample check, on ``(members, levels)`` arrays: the first bad
    member raises the error of the first rule it breaks."""
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != len(g):
        raise _wrong_length(g)
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    empty = (lo > hi).any(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        lower_steps, upper_steps = np.diff(lo, axis=1), np.diff(hi, axis=1)
        # the slopes SampledFamily.endpoints takes: across a gap too narrow
        # for its samples one overflows, and the endpoints inside read inf
        widths = np.diff(g.levels)
        steep = ~(np.isfinite(lower_steps / widths) & np.isfinite(upper_steps / widths))
    lower_falls = (lower_steps < 0).any(axis=1)
    upper_rises = (upper_steps > 0).any(axis=1)
    bad = ~finite | empty | lower_falls | upper_rises | steep.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise ValueError("endpoint samples must be finite")
        if empty[k]:
            i = int(np.argmax(lo[k] > hi[k]))
            raise EmptyCut(f"empty cut at alpha={g.levels[i]}: lower {lo[k, i]} > upper {hi[k, i]}")
        if lower_falls[k]:
            raise NonNested("lower endpoints must be nondecreasing in alpha")
        if upper_rises[k]:
            raise NonNested("upper endpoints must be nonincreasing in alpha")
        i = int(np.argmax(steep[k]))
        raise OutOfRange(
            f"endpoint slope overflows between alpha={g.levels[i]} and alpha={g.levels[i + 1]}:"
            " the grid gap is too narrow for its samples"
        )


def _check_tolerance(value: float, name: str) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not value > 0:
        raise OutOfRange(f"{name} must be positive")
    if value == math.inf:
        raise OutOfRange(f"{name} must be finite")


def _check_level(alpha: float) -> float:
    a = float(alpha)
    if not (0.0 <= a <= 1.0) or math.isnan(a):
        raise OutOfRange(f"alpha={alpha} outside [0, 1]")
    return a


def alpha_cut(u: FuzzyNumber1D, alpha: float) -> Interval:
    """The cut of ``u`` at level ``alpha``.

    Read from ``u.endpoints``: sampled numbers interpolate linearly between
    grid nodes and return stored samples exactly at the nodes; parametric
    numbers evaluate their endpoint callables.
    """
    lo, hi = u.endpoints(np.asarray(_check_level(alpha)))
    return Interval(float(lo), float(hi))


def _crossing_level(levels: np.ndarray, values: np.ndarray, x: float, increasing: bool) -> float:
    """Largest alpha at which a monotone piecewise-linear endpoint still
    admits ``x`` on the inner side; 1.0 if it never crosses."""
    if increasing:
        admits = values <= x
    else:
        admits = values >= x
    if admits[-1]:
        return 1.0
    # last node that still admits x; the crossing lies in the next segment
    j = int(np.nonzero(admits)[0][-1])
    v0, v1 = values[j], values[j + 1]
    t = (x - v0) / (v1 - v0)
    return float(levels[j] + t * (levels[j + 1] - levels[j]))


def membership_at(u: FuzzyNumber1D, x: float) -> float:
    """Membership grade of ``x``: the top level whose cut still contains it.

    Exact on the piecewise-linear sampled representation; resolved by
    bisection on cut containment for parametric curves.
    """
    x = float(x)
    if math.isnan(x):
        raise OutOfRange("x is not a number")
    if isinstance(u, SampledFuzzy1D):
        if not (u.lower[0] <= x <= u.upper[0]):
            return 0.0
        a_lo = _crossing_level(u.grid.levels, u.lower, x, increasing=True)
        a_hi = _crossing_level(u.grid.levels, u.upper, x, increasing=False)
        return min(a_lo, a_hi)
    if alpha_cut(u, 1.0).contains(x):
        return 1.0
    if not alpha_cut(u, 0.0).contains(x):
        return 0.0
    lo, hi = 0.0, 1.0  # contains at lo, not at hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if alpha_cut(u, mid).contains(x):
            lo = mid
        else:
            hi = mid
    return lo


# A block of endpoint rows holds at most this many members (enough to
# amortize per-call overhead) and, on long level vectors, about this many
# values per array (so that a block stays near half a MB).
_ROW_BLOCK = 256
_ROW_BLOCK_CELLS = 1 << 16


def _member_rows(seq, count: int, alphas):
    """Cut endpoints of members 1..count of ``seq``, one block at a time.

    ``seq`` is a finite sequence or a 1-based index -> member callable.
    Yields ``(ns, lo, hi)``: ``lo`` and ``hi`` have shape
    ``(len(ns), len(alphas))`` and row i belongs to member ``ns[i]``.  A
    sequence with a batch method ``endpoints(ns, alphas)`` fills each block
    in one call; any other is evaluated member by member.  A batch block may
    be a view of the carrier's stored data, never to be written, or a
    transposed view of a ``(levels, members)`` array, as ``SampledFamily``
    returns.  A batch ``lo`` may be one row broadcast down the block (row
    stride 0), which the convergence scan compares once.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    batch = getattr(seq, "endpoints", None)
    member = seq if callable(seq) else (lambda k: seq[k - 1])
    step = max(1, min(_ROW_BLOCK, _ROW_BLOCK_CELLS // max(alphas.size, 1)))
    for start in range(1, count + 1, step):
        ns = np.arange(start, min(start + step, count + 1))
        if batch is not None:
            lo, hi = batch(ns, alphas)
        else:
            lo = np.empty((ns.size, alphas.size))
            hi = np.empty((ns.size, alphas.size))
            for i, n in enumerate(ns.tolist()):
                lo[i], hi[i] = member(n).endpoints(alphas)
        yield ns, lo, hi
        # a caller that lets go of the block too frees it before the next
        # block is evaluated
        del lo, hi


# Lattice rows one batch ``endpoints`` call evaluates: 16 rows of the 19
# default offsets are 320 levels, so a block holds about 200 members and
# every array pass runs along a members axis that long.
_LATTICE_ROWS = 16
# Cells of one half of the reused (rows, deltas, members) move buffer: a pass
# of moves stays near 130 KB however wide the block.
_MOVE_CELLS = 1 << 13


# The lattice screen of a ``SampledFamily`` computes the moves of this many
# steepest members of each segment and side exactly, and reads the cells it
# cannot settle densely, at most _PACK of a row's cells to a packed row.  It
# runs where the packed read would take at most _SCREEN_SHARE of the levels
# of the dense read: on the benchmark's 9-level family about a third, on a
# 51-level family 0.84, where the screen saved nothing at 200 members.
_SCREEN_TOP = 4
_PACK = 4
_SCREEN_SHARE = 0.75
_UNIT_ROUNDOFF = 2.0**-53


def _worst_moves(members: Sequence[FuzzyNumber1D], rows: np.ndarray, lattice: np.ndarray, reach: bool = False):
    """The worst member's move H(cut(rows[i]), cut(lattice[i, j])) at every
    point of the ``(len(rows), deltas)`` array ``lattice``; with ``reach``,
    also the largest |endpoint| of any member at each of ``rows``, as the pair
    ``(moves, reach)``.

    A ``SampledFamily`` first settles what its screen can (see
    :func:`_screen`); the cells left open are read densely, packed per row
    up to ``_PACK`` to a packed row and padded with the row's own level (a
    move of 0), each row in one packed row at least, which reads its reach.
    A cell at its row's own level moves no member: it is |r - r| for the
    row's reach r, 0 where every endpoint at the row is finite and NaN
    otherwise.  Where the screen would not make the dense read smaller, and
    for any other family, the whole lattice is read densely (see
    :func:`_dense_moves`).  Either way every value is the dense read's bit
    for bit."""
    screened = _screen(members, rows, lattice) if isinstance(members, SampledFamily) else None
    if screened is None:
        return _dense_moves(members, rows, lattice, reach)
    worst, open_cells = screened
    ri, ci = np.nonzero(open_cells)
    counts = np.bincount(ri, minlength=rows.size)
    packs = np.maximum(-(-counts // _PACK), 1)
    first = np.cumsum(packs) - packs  # each row's first packed row
    rank = np.arange(ri.size) - (np.cumsum(counts) - counts)[ri]  # place in its row
    at, slot = first[ri] + rank // _PACK, rank % _PACK
    packed_rows = np.repeat(rows, packs)
    packed = np.repeat(packed_rows[:, None], _PACK, axis=1)
    packed[at, slot] = lattice[ri, ci]
    moves, widest = _dense_moves(members, packed_rows, packed, reach=True)
    widest = widest[first]
    worst[ri, ci] = moves[at, slot]
    same = np.nonzero(lattice == rows[:, None])
    worst[same] = np.abs(widest - widest)[same[0]]
    return (worst, widest) if reach else worst


def _screen(family: SampledFamily, rows: np.ndarray, lattice: np.ndarray):
    """The cells of :func:`_worst_moves` that the family's steepest members
    settle, as ``(worst, open)``: ``worst`` holds every settled cell's value
    (0 elsewhere) and ``open`` marks the cells left to the dense read, which
    are neither settled nor at their row's own level.  None where the
    screen would not make the dense read smaller.

    A cell whose levels a and b lie inside one grid segment j, neither a
    grid node, reads every member i of one side as v_i(x) = fl(fl(t_ij
    o(x)) + s_ij) at both levels, with the same computed slope t_ij =
    fl(fl(s_i,j+1 - s_ij) / w_j) and offsets 0 <= o(x) <= w_j from
    :func:`_segments`, as ``SampledFamily.endpoints`` does.  In the standard
    model (each operation exact times 1 + e with |e| <= u = 2**-53, plus an
    absolute 2**-1075 where a product underflows; sums that underflow are
    exact) v_i(x) = t_ij o(x) + s_ij + r with |r| <= 3 u S w_j + u T +
    2**-1074, where S = max_i |t_ij| and T the largest |sample| of the
    segment's two columns.  So the computed move |fl(v_i(a) - v_i(b))| is at
    most (|t_ij| |o(a) - o(b)| + E) (1 + u) with E = 6 u S w_j + 2 u T +
    2**-1073.

    The screen computes the moves of the ``_SCREEN_TOP`` steepest members
    of the segment on both sides exactly, and bounds every other member of
    a side through its (``_SCREEN_TOP`` + 1)-th steepest slope t*: B =
    fl(fl(fl(t* fl|o(a) - o(b)|) (1 + 8u)) + E_j) with E_j = 32u S w_j + 16u
    T + 2**-1022.  Each of B's roundings loses at most a factor 1 - u (and
    2**-1075 where it underflows), which the factor 1 + 8u and the slack of
    E_j (over five times E, and 2**-1022 for the absolute terms) cover, so B
    is at least every other member's move.  Where both sides' B lie
    strictly below the largest exact move C, C is the cell's dense value
    bit for bit; a family of at most ``_SCREEN_TOP`` members has every move
    computed and settles every such cell.  Node levels (1 among them),
    cells across a node and cells that fail the bound are left open, and so
    is every cell a non-finite value reaches (its comparison fails).

    Before any slope is read, the packed read is counted as if every cell
    inside a segment were settled: ``1 + _PACK`` levels for each packed
    row, one at least per row.  Where that is above ``_SCREEN_SHARE`` of
    the dense read's ``len(rows) * (1 + deltas)`` levels, as on a family
    sampled at every row level, the screen returns None: its own passes
    and the packed read's shorter rows would cost more than the levels
    saved.  Only the segments that hold a cell are ranked."""
    levels = family.grid.levels
    _, row_node, row_seg, row_off = _segments(levels, rows)
    _, node, seg, off = (x.reshape(lattice.shape) for x in _segments(levels, lattice.ravel()))
    same = lattice == rows[:, None]
    inside = ~same & ~node & ~row_node[:, None] & (seg == row_seg[:, None])
    left = (~same & ~inside).sum(axis=1)
    if np.maximum(-(-left // _PACK), 1).sum() * (1 + _PACK) > _SCREEN_SHARE * (rows.size + lattice.size):
        return None
    ri, ci = np.nonzero(inside)
    used, j = np.unique(seg[ri, ci], return_inverse=True)
    oa, ob = row_off[ri], off[ri, ci]
    best = np.zeros(ri.size)
    bounds = []
    for samples in (family.lower, family.upper):
        sigma, base, terms = _steepest(samples, used, levels[used + 1] - levels[used])
        sigma, base = sigma[:, j], base[:, j]
        moves = np.abs((sigma * ob + base) - (sigma * oa + base))
        np.maximum(best, moves.max(axis=0, initial=0.0), out=best)
        if terms is not None:
            bounds.append(terms[0, j] * np.abs(ob - oa) * (1 + 8 * _UNIT_ROUNDOFF) + terms[1, j])
    settled = best == best  # a NaN move goes to the dense read
    for bound in bounds:
        settled &= bound < best
    worst = np.zeros(lattice.shape)
    worst[ri[settled], ci[settled]] = best[settled]
    open_cells = ~same
    open_cells[ri[settled], ci[settled]] = False
    return worst, open_cells


def _steepest(samples: np.ndarray, used: np.ndarray, widths: np.ndarray):
    """The slopes and first samples of the ``_SCREEN_TOP`` steepest members
    (every member, if there are no more) on each grid segment ``used`` of
    ``widths``, as ``(sigma, base)`` of shape (members, segments), with each
    segment's bound terms of :func:`_screen`, the rows (t*, E_j), or None
    where no member is left to bound.  The members are ranked a few
    segments at a time, at most about ``_MOVE_CELLS`` samples a column."""
    count = samples.shape[0]
    top = min(count, _SCREEN_TOP)
    sigma, base = np.empty((top, used.size)), np.empty((top, used.size))
    terms = np.empty((2, used.size)) if count > top else None
    step = max(1, _MOVE_CELLS // count)
    for first in range(0, used.size, step):
        part = slice(first, first + step)
        starts, ends = samples[:, used[part]], samples[:, used[part] + 1]
        slopes = (ends - starts) / widths[part]
        if terms is None:
            sigma[:, part], base[:, part] = slopes, starts
            continue
        steep = np.abs(slopes)
        order = np.argpartition(steep, count - top - 1, axis=0)
        sigma[:, part] = np.take_along_axis(slopes, order[count - top :], axis=0)
        base[:, part] = np.take_along_axis(starts, order[count - top :], axis=0)
        terms[0, part] = np.take_along_axis(steep, order[count - top - 1][None], axis=0)[0]
        largest = np.maximum(np.abs(starts).max(axis=0), np.abs(ends).max(axis=0))
        terms[1, part] = 32 * _UNIT_ROUNDOFF * (steep.max(axis=0) * widths[part])
        terms[1, part] += 16 * _UNIT_ROUNDOFF * largest + np.finfo(float).tiny
    return sigma, base, terms


def _dense_moves(members: Sequence[FuzzyNumber1D], rows: np.ndarray, lattice: np.ndarray, reach: bool = False):
    """:func:`_worst_moves` read densely: every member at every level.

    A family with a batch ``endpoints`` is read one part of ``_LATTICE_ROWS``
    rows at a time, each block of members once at the part's levels; any
    other family is one part, so each member's ``endpoints`` is called once.
    The moves are taken levels-major, in passes of at most ``_MOVE_CELLS``
    cells (one row at least) through one reused buffer, each reduced over
    its members into the result.  Blocks are only read: a batch
    ``endpoints`` may return views of stored data."""
    r, d = lattice.shape
    part_rows = _LATTICE_ROWS if hasattr(members, "endpoints") else r
    worst = np.zeros(lattice.shape)
    widest = np.zeros(r)
    buffer = np.empty(0)
    for first in range(0, r, part_rows):
        k = min(part_rows, r - first)
        levels = np.concatenate([rows[first : first + k], lattice[first : first + k].ravel()])
        for ns, lo, hi in _member_rows(members, len(members), levels):
            m = ns.size
            step = min(k, max(1, _MOVE_CELLS // (d * m)))
            if buffer.size < 2 * step * d * m:
                buffer = np.empty(2 * step * d * m)
            at_rows = [lo.T[:k, None, :], hi.T[:k, None, :]]
            if reach:
                part = widest[first : first + k]
                for ends in at_rows:
                    np.maximum(part, np.abs(ends[:, 0]).max(axis=1), out=part)
            at_lattice = [lo.T[k:].reshape(k, d, m), hi.T[k:].reshape(k, d, m)]
            for start in range(0, k, step):
                stop = min(start + step, k)
                moves, upper = buffer[: 2 * (stop - start) * d * m].reshape(2, stop - start, d, m)
                np.subtract(at_lattice[0][start:stop], at_rows[0][start:stop], out=moves)
                np.abs(moves, out=moves)
                np.subtract(at_lattice[1][start:stop], at_rows[1][start:stop], out=upper)
                np.abs(upper, out=upper)
                np.maximum(moves, upper, out=moves)
                part = worst[first + start : first + stop]
                np.maximum(part, moves.max(axis=2), out=part)
            # free the block before the next one is evaluated: holding two
            # took 7,000-21,000 minor page faults per 2,000-member report,
            # one about 400
            del lo, hi, at_rows, at_lattice
    return (worst, widest) if reach else worst


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    alpha: float | None = None
    measured: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": self.passed}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        if self.measured is not None:
            d["measured"] = self.measured
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "checks": [c.to_dict() for c in self.checks],
        }


def hausdorff_interval(i: Interval, j: Interval) -> float:
    """Hausdorff distance between closed intervals: the larger endpoint gap."""
    return max(abs(i.lo - j.lo), abs(i.hi - j.hi))


def _limit_gaps(
    u: FuzzyNumber1D, levels: np.ndarray, jumps: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolated one-sided limit gaps H(cut(alpha), cut(alpha + side*delta)),
    delta -> 0, at each of ``levels``: from below above level 0, from above
    at level 0.

    Each level is probed at the offsets 2**-k, k = PROBE_K_MIN..PROBE_K_MAX,
    and :func:`_worst_moves` reads 2,340 levels with their probes per
    ``endpoints`` call.  A probe whose window leaves [0, 1] or straddles a
    declared jump is not kept; such a window only grows with the offset, so
    each level keeps a suffix of its smallest offsets, and the kept count is
    a row sum.  The linear-in-delta part, read from the fixed columns k =
    PROBE_K_MAX - 2 and PROBE_K_MAX (28 and 30), is removed so that a steep
    but continuous curve is not mistaken for a jump.  Returns the gaps and
    the kept counts.
    """
    deltas = 2.0 ** -np.arange(PROBE_K_MIN, PROBE_K_MAX + 1.0)
    step = _ROW_BLOCK_CELLS // (1 + deltas.size)
    gaps, kept = np.empty(levels.size), np.empty(levels.size, dtype=np.int64)
    for start in range(0, levels.size, step):
        block = slice(start, start + step)
        alphas = levels[block, None]
        probes = np.where(alphas > 0.0, alphas - deltas, alphas + deltas)
        low, high = np.minimum(alphas, probes), np.maximum(alphas, probes)
        ok = (0.0 <= probes) & (probes <= 1.0)
        for j in jumps:
            ok &= ~((low < j) & (j < high))
        # a probe not kept reads the level itself, which stays inside [0, 1]
        # and gives a gap of 0: with fewer than three probes kept the slope
        # below is at most 0, and the gap is that of the smallest offset
        moves = _worst_moves([u], levels[block], np.where(ok, probes, alphas))
        slope = (moves[:, -3] - moves[:, -1]) / (deltas[-3] - deltas[-1])
        gaps[block] = np.maximum(moves[:, -1] - np.maximum(slope, 0.0) * deltas[-1], 0.0)
        kept[block] = ok.sum(axis=1)
    return gaps, kept


def _probe_levels(u: FuzzyNumber1D) -> np.ndarray:
    if isinstance(u, SampledFuzzy1D):
        return u.grid.levels
    extra = [j.alpha for j in u.jumps]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), extra]))


def _curvature_check(u: FuzzyNumber1D, levels: np.ndarray) -> ValidationCheck:
    """Each declared curvature piece, chord against midpoint, on the probe
    segments inside it, with the supremum search's rounding slack.  A
    segment that starts at a declared jump starts from its right limits, as
    in the search."""
    worst, passed = 0.0, True
    right_limits = {j.alpha: (j.lower_right, j.upper_right) for j in u.jumps}
    for p in u.curvature:
        ends = np.union1d([p.start, p.end], levels[(levels > p.start) & (levels < p.end)])
        a, b = ends[:-1], ends[1:]
        m = 0.5 * (a + b)
        cuts = np.array(u.endpoints(np.concatenate([ends, m])))
        left, right, mid = cuts[:, : a.size].copy(), cuts[:, 1 : ends.size], cuts[:, ends.size :]
        for k, level in enumerate(a.tolist()):
            if level in right_limits:
                left[:, k] = right_limits[level]
        wrong, slack = _wrong_side(a, b, m, left, mid, right, np.array([[_SIGN[p.lower]], [_SIGN[p.upper]]]))
        worst = max(worst, float(np.fmax.reduce(wrong, axis=None, initial=0.0)))
        passed = passed and not np.any(wrong > slack)
    return ValidationCheck(
        name="declared_curvature",
        passed=bool(passed),
        measured=worst,
        note="largest distance of a midpoint to the wrong side of its chord in a declared piece",
    )


def validate_representation(u: FuzzyNumber1D, tol: float = DEFAULT_VALIDATION_TOL) -> ValidationReport:
    """Check the cut-family axioms on a representation.

    Verifies nonempty cuts and nestedness on a probe grid, each declared
    curvature piece on the probe segments inside it, left-continuity of the
    cut map on (0, 1] by one-sided numerical limits, and the closure
    condition at 0 (right-continuity there, up to a declared jump).  Failures
    are reported, never raised.
    """
    _check_tolerance(tol, "tol")
    levels = _probe_levels(u)
    lo, hi = u.endpoints(levels)
    jumps = tuple(j.alpha for j in u.jumps)
    checks: list[ValidationCheck] = []

    worst = float(np.max(lo - hi))
    checks.append(
        ValidationCheck(
            name="cuts_nonempty",
            passed=bool(worst <= 0.0),
            measured=worst,
            note="max over probed levels of lower - upper",
        )
    )
    dlo = float(np.min(np.diff(lo))) if levels.size > 1 else 0.0
    dhi = float(np.max(np.diff(hi))) if levels.size > 1 else 0.0
    checks.append(
        ValidationCheck(
            name="nested_lower_nondecreasing",
            passed=bool(dlo >= -tol),
            measured=dlo,
        )
    )
    checks.append(
        ValidationCheck(
            name="nested_upper_nonincreasing",
            passed=bool(dhi <= tol),
            measured=dhi,
        )
    )
    if u.curvature:
        checks.append(_curvature_check(u, levels))

    # the left limits at the levels above 0, then the right limit at 0
    rows = np.append(levels[levels > 0.0], 0.0)
    gaps, kept = _limit_gaps(u, rows, jumps)
    for a, gap, used in zip(rows[:-1].tolist(), gaps.tolist(), kept.tolist()):
        checks.append(
            ValidationCheck(
                name="left_continuity",
                alpha=a,
                passed=bool(used == 0 or gap <= tol),
                measured=gap,
            )
        )

    declared_zero = 0.0 in jumps
    checks.append(
        ValidationCheck(
            name="closure_at_zero",
            alpha=0.0,
            passed=bool(declared_zero or kept[-1] == 0 or gaps[-1] <= tol),
            measured=float(gaps[-1]),
            note="declared jump at 0" if declared_zero else "",
        )
    )
    return ValidationReport(tuple(checks), tol)
