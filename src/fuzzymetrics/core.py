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


def _unique(*parts) -> np.ndarray:
    """The sorted distinct values of all ``parts`` as ``np.unique`` gives
    them, all NaNs as one, except that of -0.0 and 0.0 the first is kept
    where ``np.unique``'s pick follows its unstable sort.  ``np.unique``
    imports ``numpy.ma`` on its first call, which costs a report's set-up
    some milliseconds and a megabyte."""
    values = np.concatenate(parts, axis=None)  # a new array, sorted in place
    values.sort(kind="stable")
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    # NaNs sort last, so a value after a NaN is a NaN
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    keep[1:] &= values[:-1] == values[:-1]
    return values[keep]


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

    @classmethod
    def _shared(cls, grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray):
        """A carrier over samples another carrier already stores read-only:
        it shares them, and a view of a read-only array stays read-only."""
        carrier = object.__new__(cls)
        for name, value in (("grid", grid), ("lower", lower), ("upper", upper)):
            object.__setattr__(carrier, name, value)
        return carrier


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
    each family with one call per round, in the column form: ``ns`` holds
    one float index per level and ``alphas`` is that column of levels
    (shape ``(len(ns), 1)``), and row i must equal the endpoints of member
    ``ns[i]`` at ``alphas[i, 0]`` bit for bit.  It looks the rows'
    declarations up once.  The field takes no part in comparison or
    ``repr``.
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
    rows = u.lower[None], u.upper[None]
    _check_samples(g, *rows, _slopes(g, *rows))
    return u


@dataclass(frozen=True, eq=False)
class SampledFamily(_Samples, abc.Sequence):
    """Sampled fuzzy numbers on one shared grid, held as two arrays.

    ``lower`` and ``upper`` have shape ``(count, len(grid))``; row i holds
    the samples of item i, which indexing returns as the usual
    :class:`SampledFuzzy1D` over the family's own rows, not a copy (a slice
    gives a family).  Built through :func:`make_sampled_family`, which
    validates every member; direct construction assumes already-valid data.
    Sampled numbers declare no hint levels, so the family declares none for
    all of them.

    The samples are stored levels-major: ``lower`` and ``upper`` are
    Fortran-ordered, so their transposes are ``(levels, count)`` arrays
    with one member row per level, contiguous.  Beside them the
    family stores, once, each side's slope on every grid segment j,
    fl(fl(s_j+1 - s_j) / w_j) with w_j the computed gap (``slopes``, shape
    ``(levels - 1, count)``), which ``endpoints`` and the lattice screen
    read.
    """

    slopes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("lower", "upper"):
            samples = np.array(getattr(self, name), dtype=float, order="F")
            samples.flags.writeable = False
            object.__setattr__(self, name, samples)
        slopes = _slopes(self.grid, self.lower, self.upper)
        for slope in slopes:
            if slope is not None:
                slope.flags.writeable = False
        object.__setattr__(self, "slopes", slopes)

    def __len__(self) -> int:
        return self.lower.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampledFamily(self.grid, self.lower[index], self.upper[index])
        i = operator.index(index)
        return SampledFuzzy1D._shared(self.grid, self.lower[i], self.upper[i])

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints of members ``ns`` (1-based, rows) at levels ``alphas``
        (columns).

        Row i equals ``self[ns[i] - 1].endpoints(alphas)`` bit for bit.  The
        segment and offset of each level are found once per call; each side
        then gathers the stored slope and the sample of those segments and
        takes one multiply-add in ``np.interp``'s own formula, slope *
        (alpha - level) + sample, and the stored sample at every node (a
        segment formula can miss the last bit at level 1).  The work runs
        levels-major, one row of members per level, so for consecutive
        members every gather copies a slice of a stored row, whatever the
        grid's size; both results are transposed views of those ``(levels,
        members)`` arrays.
        """
        ns = np.asarray(ns)
        if ns.dtype.kind not in "iu" or ns.ndim != 1 or not np.all((ns >= 1) & (ns <= len(self))):
            raise BadIndex(f"member indices must be integers in 1..{len(self)}")
        rows = ns - 1
        at, node, seg, offset = _segments(self.grid.levels, alphas)
        offset = offset[:, None]
        if rows.size and rows[-1] - rows[0] == rows.size - 1 and np.all(np.diff(rows) == 1):
            rows = slice(rows[0], rows[-1] + 1)
        else:  # each level's row of those members
            at, seg = at[:, None], seg[:, None]

        def interp(samples: np.ndarray, slopes: np.ndarray) -> np.ndarray:
            out = slopes[seg, rows]
            out *= offset
            out += samples.T[seg, rows]
            out[node] = samples.T[at[node], rows]
            return out.T

        return interp(self.lower, self.slopes[0]), interp(self.upper, self.slopes[1])


def _segments(levels: np.ndarray, alphas) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The segment rule of sampled endpoints on the grid ``levels``, for the
    1-D ``alphas``: ``(at, node, seg, offset)``.

    ``levels[at]`` is the last level at or below each alpha, ``node`` marks
    the alphas that are levels, and a sample is read as slope * offset +
    sample on segment ``seg`` (the last segment holds level 1) at ``offset``
    = alpha - levels[seg].  Alphas are clipped to [0, 1] first, as np.interp
    holds the end samples outside.  ``SampledFamily.endpoints`` and the
    lattice screen (``lattice._screen``) both read their segments here."""
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
    _check_samples(g, family.lower, family.upper, family.slopes)
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


def _slopes(g: AlphaGrid, *sides: np.ndarray) -> tuple:
    """The slope of each ``(members, levels)`` sample row of each side on
    every grid segment j, fl(fl(s_j+1 - s_j) / w_j) with w_j the computed
    gap, levels-major with shape ``(levels - 1, members)``; None for a side
    of the wrong shape, which the check refuses."""
    widths = np.diff(g.levels)[:, None]
    slopes = []
    # unchecked samples may overflow or be NaN: the check reads them
    with np.errstate(over="ignore", invalid="ignore"):
        for samples in sides:
            slope = None
            if samples.ndim == 2 and samples.shape[1] == len(g):
                slope = samples.T[1:] - samples.T[:-1]
                slope /= widths
            slopes.append(slope)
    return tuple(slopes)


def _check_samples(g: AlphaGrid, lo: np.ndarray, hi: np.ndarray, slopes: tuple) -> None:
    """The one sample check, on ``(members, levels)`` samples and their
    ``_slopes`` (the slopes the endpoints take), lower then upper: the first
    bad member raises the error of the first rule it breaks."""
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != len(g):
        raise _wrong_length(g)
    finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
    empty = (lo > hi).any(axis=1)
    # a slope has its step's sign (a gap is at most 1); across a gap too
    # narrow for its samples one overflows, and the endpoints inside read inf
    lower_slopes, upper_slopes = slopes
    lower_falls = (lower_slopes < 0).any(axis=0)
    upper_rises = (upper_slopes > 0).any(axis=0)
    steep = ~(np.isfinite(lower_slopes) & np.isfinite(upper_slopes))
    bad = ~finite | empty | lower_falls | upper_rises | steep.any(axis=0)
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
        i = int(np.argmax(steep[:, k]))
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


def membership_at(u: FuzzyNumber1D, x: float) -> float:
    """Membership grade of ``x``: the top level whose cut still contains it,
    u(x) = max{alpha : x in [u]_alpha}.

    Bisection on :func:`alpha_cut` containment for every carrier, to 2**-60
    (to one float where floats are coarser): the cut at the grade contains x.
    """
    x = float(x)
    if math.isnan(x):
        raise OutOfRange("x is not a number")
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


# A block of temporaries holds about this many values, so that it stays
# near half a MB: the member rows below and the lattice parts they are read
# in, the limit probes of a block of levels, the lattice screen's rankings
# and its steepest members' segments, and the search's round-0 segments.
_BLOCK_CELLS = 1 << 16


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
    step = max(1, _BLOCK_CELLS // max(alphas.size, 1))
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


def _reach(members: Sequence[FuzzyNumber1D], level: float):
    """The largest |endpoint| of any member at ``level``, read in member
    blocks; NaN where an endpoint there is NaN."""
    blocks = _member_rows(members, len(members), [level])
    return np.max([np.max(np.abs(end)) for _, lo, hi in blocks for end in (lo, hi)])


def _dense_moves(members: Sequence[FuzzyNumber1D], rows: np.ndarray, lattice: np.ndarray, reach: bool = False):
    """The worst member's move H(cut(rows[i]), cut(lattice[i, j])) at every
    point of the ``(len(rows), deltas)`` array ``lattice``, read densely:
    every member at every level; with ``reach``, also the largest |endpoint|
    of any member at each of ``rows``, as the pair ``(moves, reach)``.

    A family with a batch ``endpoints`` is read in parts of as many rows as
    one block of all its members holds (one row at least); any other family
    is one part, so each member's ``endpoints`` is called once.  A block's
    moves are never more values than the block, and are laid out in its
    memory order (levels-major from ``SampledFamily``, members-major from a
    list), so that each pass runs along memory: its lower side and then its
    upper side are reduced over its members into the result.  Blocks are
    only read: a batch ``endpoints`` may return views of stored data."""
    r, d = lattice.shape
    part_rows = max(1, _BLOCK_CELLS // (len(members) * (1 + d))) if hasattr(members, "endpoints") else r
    worst = np.zeros(lattice.shape)
    widest = np.zeros(r)
    for first in range(0, r, part_rows):
        part = slice(first, first + part_rows)
        k = len(rows[part])
        levels = np.concatenate([rows[part], lattice[part].ravel()])
        for ns, lo, hi in _member_rows(members, len(members), levels):
            moves = np.empty_like(lo.T[k:].reshape(k, d, -1))
            for ends in (lo.T, hi.T):
                if reach:
                    np.maximum(widest[part], np.abs(ends[:k]).max(axis=1), out=widest[part])
                np.subtract(ends[k:].reshape(moves.shape), ends[:k, None, :], out=moves)
                np.abs(moves, out=moves)
                np.maximum(worst[part], moves.max(axis=2), out=worst[part])
            # free the block before the next one is evaluated: holding two
            # took 7,000-21,000 minor page faults per 2,000-member report,
            # one about 400
            del lo, hi, ends, moves
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
    and :func:`_dense_moves` reads 2,340 levels with their probes per
    ``endpoints`` call.  A probe whose window leaves [0, 1] or straddles a
    declared jump is not kept; such a window only grows with the offset, so
    each level keeps a suffix of its smallest offsets, and the kept count is
    a row sum.  The linear-in-delta part, read from the fixed columns k =
    PROBE_K_MAX - 2 and PROBE_K_MAX (28 and 30), is removed so that a steep
    but continuous curve is not mistaken for a jump.  Returns the gaps and
    the kept counts.
    """
    deltas = 2.0 ** -np.arange(PROBE_K_MIN, PROBE_K_MAX + 1.0)
    step = _BLOCK_CELLS // (1 + deltas.size)
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
        moves = _dense_moves([u], levels[block], np.where(ok, probes, alphas))
        slope = (moves[:, -3] - moves[:, -1]) / (deltas[-3] - deltas[-1])
        gaps[block] = np.maximum(moves[:, -1] - np.maximum(slope, 0.0) * deltas[-1], 0.0)
        kept[block] = ok.sum(axis=1)
    return gaps, kept


def _probe_levels(u: FuzzyNumber1D) -> np.ndarray:
    if isinstance(u, SampledFuzzy1D):
        return u.grid.levels
    extra = [j.alpha for j in u.jumps]
    return _unique(np.linspace(0.0, 1.0, 21), extra)


def _curvature_check(u: FuzzyNumber1D, levels: np.ndarray) -> ValidationCheck:
    """Each declared curvature piece, chord against midpoint, on the probe
    segments inside it, with the supremum search's rounding slack.  A
    segment that starts at a declared jump starts from its right limits, as
    in the search."""
    worst, passed = 0.0, True
    right_limits = {j.alpha: (j.lower_right, j.upper_right) for j in u.jumps}
    for p in u.curvature:
        ends = _unique([p.start, p.end], levels[(levels > p.start) & (levels < p.end)])
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
