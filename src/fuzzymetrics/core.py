"""Cut-based representations of 1-D fuzzy numbers and their validation.

A fuzzy number is stored through its alpha-cuts: a nested family of closed
intervals indexed by membership level alpha in [0, 1].  Two carriers are
provided: ``SampledFuzzy1D`` holds endpoint samples on a finite grid
(piecewise-linear in between), ``CutCurve1D`` holds closed-form endpoint
callables, monotone as the cut axioms require, plus declared jump points.
``SampledFamily`` holds many sampled numbers on one shared grid as two
arrays.
"""

from __future__ import annotations

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
    "CutCurve1D",
    "FuzzyNumber1D",
    "as_grid",
    "make_sampled_1d",
    "SampledFamily",
    "make_sampled_family",
    "alpha_cut",
    "membership_at",
    "densify_levels",
    "sample_curve",
    "refine_to_grid",
    "ValidationCheck",
    "ValidationReport",
    "validate_representation",
]

# One-sided limit probes: offsets 2**-k, k = PROBE_K_MIN..PROBE_K_MAX.
PROBE_K_MIN = 4
PROBE_K_MAX = 30
DEFAULT_VALIDATION_TOL = 1e-9


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
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "levels", arr)

    @staticmethod
    def uniform(count: int) -> "AlphaGrid":
        if count < 2:
            raise BadGrid("uniform grid needs at least 2 levels")
        return AlphaGrid(np.linspace(0.0, 1.0, count))

    def union(self, other: "AlphaGrid") -> "AlphaGrid":
        merged = np.union1d(self.levels, other.levels)
        return AlphaGrid(merged)

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

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class SampledFuzzy1D:
    """Endpoint samples of the cuts on a grid, linear in alpha in between.

    Built through :func:`make_sampled_1d`, which enforces nestedness and
    nonemptiness; direct construction assumes already-valid data.  Like a
    :class:`CutCurve1D` it answers ``jumps``, ``hint_levels`` and ``key``,
    and declares none of them.
    """

    grid: AlphaGrid
    lower: np.ndarray
    upper: np.ndarray
    jumps = ()
    hint_levels = ()
    key = None

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).copy()
        hi = np.asarray(self.upper, dtype=float).copy()
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def endpoints(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cut endpoints at each alpha (vectorized, exact at grid nodes)."""
        a = np.asarray(alphas, dtype=float)
        lo = np.interp(a, self.grid.levels, self.lower)
        hi = np.interp(a, self.grid.levels, self.upper)
        return lo, hi

    @property
    def support(self) -> Interval:
        return Interval(float(self.lower[0]), float(self.upper[0]))


@dataclass(frozen=True)
class DeclaredJump:
    """A declared right-side discontinuity of the cut curve at ``alpha``.

    ``lower_right`` / ``upper_right`` are the exact one-sided limits of the
    endpoints as the level decreases to ``alpha`` from above.  Valid fuzzy
    numbers are left-continuous, so the value at ``alpha`` itself is always
    the left limit and needs no declaration.
    """

    alpha: float
    lower_right: float
    upper_right: float

    def __post_init__(self):
        if not self.lower_right <= self.upper_right:
            raise EmptyCut(
                f"empty right-limit cut at alpha={self.alpha}: lower {self.lower_right} > upper {self.upper_right}"
            )


@dataclass(frozen=True)
class CutCurve1D:
    """Parametric fuzzy number: endpoint evaluators on [0, 1] plus metadata.

    ``lower_fn`` must be nondecreasing and ``upper_fn`` nonincreasing, as
    the cut axioms require; that monotonicity is what certifies range
    bounds in the adaptive supremum search.  All genuine discontinuities
    must be declared; the callables should accept numpy arrays, scalar-only
    callables are wrapped on demand.  ``hint_levels`` names levels where the
    cut map changes character; default level grids are densified around
    them (see :func:`densify_levels`).
    """

    lower_fn: Callable[[np.ndarray], np.ndarray]
    upper_fn: Callable[[np.ndarray], np.ndarray]
    jumps: tuple[DeclaredJump, ...] = ()
    hint_levels: tuple[float, ...] = ()
    key: tuple | None = field(default=None, compare=False)

    def endpoints(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(alphas, dtype=float)
        try:
            lo = np.asarray(self.lower_fn(a), dtype=float)
            hi = np.asarray(self.upper_fn(a), dtype=float)
            if lo.shape != a.shape or hi.shape != a.shape:
                raise TypeError
        except (TypeError, ValueError):
            # scalar-only callables: a type error, or an ambiguous truth value
            # where the callable branches on its argument
            lo = np.array([float(self.lower_fn(x)) for x in np.atleast_1d(a)])
            hi = np.array([float(self.upper_fn(x)) for x in np.atleast_1d(a)])
            lo = lo.reshape(a.shape)
            hi = hi.reshape(a.shape)
        return lo, hi


FuzzyNumber1D = Union[SampledFuzzy1D, CutCurve1D]


def make_sampled_1d(grid: GridLike, lower: Sequence[float], upper: Sequence[float]) -> SampledFuzzy1D:
    """Build a validated sampled fuzzy number from endpoint samples."""
    g = as_grid(grid)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != (len(g),) or hi.shape != (len(g),):
        raise ValueError(f"endpoint sequences must match the grid length {len(g)}")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("endpoint samples must be finite")
    bad = np.nonzero(lo > hi)[0]
    if bad.size:
        i = int(bad[0])
        raise EmptyCut(f"empty cut at alpha={g.levels[i]}: lower {lo[i]} > upper {hi[i]}")
    if np.any(np.diff(lo) < 0):
        raise NonNested("lower endpoints must be nondecreasing in alpha")
    if np.any(np.diff(hi) > 0):
        raise NonNested("upper endpoints must be nonincreasing in alpha")
    return SampledFuzzy1D(g, lo, hi)


@dataclass(frozen=True, eq=False)
class SampledFamily(abc.Sequence):
    """Sampled fuzzy numbers on one shared grid, held as two arrays.

    ``lower`` and ``upper`` have shape ``(count, len(grid))``; row i holds
    the samples of item i, which indexing returns as the usual
    :class:`SampledFuzzy1D` (a slice gives a family).  Built through
    :func:`make_sampled_family`, which validates every member; direct
    construction assumes already-valid data.
    """

    grid: AlphaGrid
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

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
        miss the last bit at level 1).
        """
        ns = np.asarray(ns)
        if ns.dtype.kind not in "iu" or ns.ndim != 1 or not np.all((ns >= 1) & (ns <= len(self))):
            raise BadIndex(f"member indices must be integers in 1..{len(self)}")
        rows = ns - 1
        levels = self.grid.levels
        # np.interp holds the end samples outside [0, 1]
        a = np.clip(np.atleast_1d(np.asarray(alphas, dtype=float)), 0.0, 1.0)
        at = np.searchsorted(levels, a, side="right") - 1  # levels[at] <= a
        node = levels[at] == a
        seg = np.minimum(at, levels.size - 2)
        offset = a - levels[seg]
        widths = np.diff(levels)

        def interp(samples: np.ndarray) -> np.ndarray:
            fp = samples[rows]
            out = np.take(np.diff(fp, axis=1) / widths, seg, axis=1)
            out *= offset
            out += np.take(fp, seg, axis=1)
            out[:, node] = fp[:, at[node]]
            return out

        return interp(self.lower), interp(self.upper)


def make_sampled_family(grid: GridLike, lower: np.ndarray, upper: np.ndarray) -> SampledFamily:
    """Build a validated family of sampled numbers on one grid.

    ``lower`` and ``upper`` hold one row of samples per member.  Every
    member is checked in one vectorized pass; the first bad member raises
    the error :func:`make_sampled_1d` raises for it.
    """
    g = as_grid(grid)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != len(g):
        raise ValueError(f"endpoint sequences must match the grid length {len(g)}")
    bad = (
        ~(np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1))
        | (lo > hi).any(axis=1)
        | (np.diff(lo, axis=1) < 0).any(axis=1)
        | (np.diff(hi, axis=1) > 0).any(axis=1)
    )
    if bad.any():
        k = int(np.argmax(bad))
        make_sampled_1d(g, lo[k], hi[k])
    return SampledFamily(g, lo, hi)


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


def sample_curve(u: FuzzyNumber1D, grid: GridLike) -> SampledFuzzy1D:
    """Sample a fuzzy number onto a grid (piecewise-linear approximant)."""
    g = as_grid(grid)
    lo, hi = u.endpoints(g.levels)
    return make_sampled_1d(g, lo, hi)


def densify_levels(levels: np.ndarray, inputs: Sequence[FuzzyNumber1D]) -> np.ndarray:
    """``levels`` densified around every hint level the inputs declare.

    Each hint adds itself and offsets of 1e-2 .. 1e-6 on both sides, kept
    in (0, 1]; ``levels`` come back unchanged when no input declares one.
    """
    if isinstance(inputs, SampledFamily):
        return levels  # sampled numbers declare no hint levels
    hints = sorted({h for u in inputs for h in u.hint_levels})
    if not hints:
        return levels
    offsets = 10.0 ** -np.arange(2, 7)
    extra = np.concatenate([np.concatenate([h + offsets, h - offsets, [h]]) for h in hints])
    return np.union1d(levels, extra[(extra > 0.0) & (extra <= 1.0)])


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
    in one call; any other is evaluated member by member.
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


def refine_to_grid(u: SampledFuzzy1D, grid: GridLike) -> SampledFuzzy1D:
    """Re-express a sampled number on a refinement of its grid.

    The refinement must contain every original node, so the piecewise-linear
    function is preserved exactly.
    """
    g = as_grid(grid)
    if np.setdiff1d(u.grid.levels, g.levels).size:
        raise BadGrid("refinement grid must contain every original node")
    return sample_curve(u, g)


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

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "checks": [c.to_dict() for c in self.checks],
        }


def hausdorff_interval(i: Interval, j: Interval) -> float:
    """Hausdorff distance between closed intervals: the larger endpoint gap."""
    return max(abs(i.lo - j.lo), abs(i.hi - j.hi))


def _one_sided_gap(u: FuzzyNumber1D, alpha: float, side: int, jumps: tuple[float, ...]) -> tuple[float, int]:
    """Extrapolated limit gap H(cut(alpha), cut(alpha + side*delta)), delta -> 0.

    Probes geometrically shrinking offsets, skipping any window that would
    straddle a declared jump, and removes the linear-in-delta part so that a
    steep but continuous curve is not mistaken for a jump.  Returns the gap
    estimate and the number of retained probes.
    """
    base = alpha_cut(u, alpha)
    deltas, values = [], []
    for k in range(PROBE_K_MIN, PROBE_K_MAX + 1):
        d = 2.0 ** -k
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


def _probe_levels(u: FuzzyNumber1D) -> np.ndarray:
    if isinstance(u, SampledFuzzy1D):
        return u.grid.levels
    extra = [j.alpha for j in u.jumps]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), extra]))


def validate_representation(u: FuzzyNumber1D, tol: float = DEFAULT_VALIDATION_TOL) -> ValidationReport:
    """Check the cut-family axioms on a representation.

    Verifies nonempty cuts and nestedness on a probe grid, left-continuity
    of the cut map on (0, 1] by one-sided numerical limits, and the closure
    condition at 0 (right-continuity there, up to a declared jump).  Failures
    are reported, never raised.
    """
    if not tol > 0:
        raise OutOfRange("tol must be positive")
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

    for a in levels:
        if a <= 0.0:
            continue
        gap, used = _one_sided_gap(u, float(a), side=-1, jumps=jumps)
        checks.append(
            ValidationCheck(
                name="left_continuity",
                alpha=float(a),
                passed=bool(used == 0 or gap <= tol),
                measured=gap,
            )
        )

    gap0, used0 = _one_sided_gap(u, 0.0, side=+1, jumps=jumps)
    declared_zero = 0.0 in jumps
    checks.append(
        ValidationCheck(
            name="closure_at_zero",
            alpha=0.0,
            passed=bool(declared_zero or used0 == 0 or gap0 <= tol),
            measured=gap0,
            note="declared jump at 0" if declared_zero else "",
        )
    )
    return ValidationReport(tuple(checks), tol)
