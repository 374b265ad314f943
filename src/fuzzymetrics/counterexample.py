"""A sequence that level-converges but stays at supremum distance one.

The member with index n has cuts [0, 1 - (3a/2 - 1/2)^(1/n)] for levels a
above one third and [0, 1] at or below it; the levelwise limit has the
singleton cut {0} above one third and [0, 1] at or below.  Every cut
distance profile vanishes pointwise in n, yet the supremum over levels is
exactly 1 for every member, approached (never attained) as the level
decreases to one third.  This family is the machine-checked refutation of
the published support-bound + equi-left-continuity compactness criteria
for the supremum metric.

Level convergence is closed form too: at a level a with t = 3a/2 - 1/2 in
(0, 1) the distance H_n(a) = 1 - t^(1/n) decreases in n, so every member
from N(a) = max(1, ceil(ln t / log1p(-eps))) on lies within eps of the
limit, for every n >= N(a) and not only inside a finite window of members.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections import abc

import numpy as np

from .core import CutCurve1D, DeclaredCurvature, DeclaredJump, _check_tolerance, _unique
from .errors import BadIndex, OutOfRange, ParseError
from .lattice import _worst_moves
from .metrics import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TOL,
    _check_search,
    _d_infty_rows,
    default_report_grid,
)
from .serialize import csv_table

__all__ = [
    "make_un",
    "make_limit",
    "members",
    "member_sequence",
    "exact_H_profile",
    "dgn_bound",
    "uniform_modulus_bound",
    "family_modulus_oracle",
    "separation",
    "pairwise_dinf_oracle",
    "refutation_report",
]

ONE_THIRD = 1.0 / 3.0

# window of members the refutation report's level-convergence table is
# reported against: a level whose N(a) exceeds it counts as not reached
SCAN_WINDOW = 100_000
DEFAULT_EPS = 1e-3
# the most members a refutation report takes: its peak, and that of the CLI
# that writes it, grows by about 1.8 KB a member, so the largest report
# should stay within about 1 GB (extrapolated from a 300,000-member run)
REPORT_MEMBERS = 500_000


def _inner(alphas) -> np.ndarray:
    """The quantity 3a/2 - 1/2 whose sign selects the cut formula branch.

    Branching is done on this value (not on a compared to 1/3) so that every
    code path applies the identical predicate at the identical floats.
    """
    return 1.5 * np.asarray(alphas, dtype=float) - 0.5


def _limit_upper(alphas) -> np.ndarray:
    return np.where(_inner(alphas) > 0.0, 0.0, 1.0)


def _zeros(alphas) -> np.ndarray:
    return np.zeros(np.shape(alphas))


def _index(n, name: str = "member index") -> int:
    """``n`` as a positive integer (an integral float counts, a boolean does
    not) that a float holds, as a member's row and its endpoints read it;
    ``name`` says what it counts in the error."""
    whole = isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer())
    if isinstance(n, bool) or not whole or n < 1:
        raise BadIndex(f"{name} must be a positive integer, got {n}")
    if n > sys.float_info.max:
        raise BadIndex(f"{name} must be at most {sys.float_info.max!r}, the largest float")
    return int(n)


# Every member's upper endpoint is 1 up to one third and 1 - t^(1/n), convex
# in the level, above it; the limit is constant on either side of its jump.
_MEMBER_CURVATURE = (
    DeclaredCurvature(0.0, ONE_THIRD, "linear", "linear"),
    DeclaredCurvature(ONE_THIRD, 1.0, "linear", "convex"),
)
_LIMIT_CURVATURE = (
    DeclaredCurvature(0.0, ONE_THIRD, "linear", "linear"),
    DeclaredCurvature(ONE_THIRD, 1.0, "linear", "linear"),
)


def make_un(n: int) -> CutCurve1D:
    """Member n of the sequence; continuous cuts with a kink at one third.
    It declares itself row n of :func:`member_sequence`, so the supremum
    search reads many members with one batch call."""
    n = _index(n)
    return CutCurve1D(
        lower_fn=_zeros,
        upper_fn=lambda a, _n=n: _upper(a, _n),
        jumps=(),
        hint_levels=(ONE_THIRD,),
        key=("counterexample-un", n),
        curvature=_MEMBER_CURVATURE,
        family=(_SEQUENCE, n),
    )


def make_limit() -> CutCurve1D:
    """The levelwise limit; its cut jumps from the right at one third."""
    return CutCurve1D(
        lower_fn=_zeros,
        upper_fn=_limit_upper,
        jumps=(DeclaredJump(alpha=ONE_THIRD, lower_right=0.0, upper_right=0.0),),
        hint_levels=(ONE_THIRD,),
        key=("counterexample-limit",),
        curvature=_LIMIT_CURVATURE,
    )


def _upper(alphas, n) -> np.ndarray:
    """Upper endpoint 1 - t^(1/n), t = 3a/2 - 1/2, where t > 0, and 1 elsewhere.

    ``n`` broadcasts against the levels: a column of indices gives one row
    per member, with the log taken once per level.
    """
    t = _inner(alphas)
    pos = t > 0.0
    # a nonpositive t never reaches the log: 1 stands in for it, so its
    # column holds exp(0) = 1 and is taken from 2, which gives 1 exactly (a
    # -inf log would send every exp of the column down numpy's slow path)
    out = np.asarray(np.divide(np.log(np.where(pos, t, 1.0)), n))
    np.exp(out, out=out)
    return np.subtract(np.where(pos, 1.0, 2.0), out, out=out)


def _members_endpoints(ns, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of members ``ns`` (rows) at levels ``alphas`` (columns).

    Row i equals ``make_un(ns[i]).endpoints(alphas)`` bit for bit: both
    evaluate :func:`_upper`.  Every member's lower endpoint is 0, so the
    lower block is one read-only zero row broadcast down the members.
    """
    n = np.asarray(ns)
    # integer indices need one reduction; only float ones are checked whole
    whole = n.dtype.kind in "iu" or (n.dtype.kind == "f" and np.array_equal(n, np.trunc(n)))
    if n.ndim != 1 or not whole or (n.size and n.min() < 1):
        raise BadIndex("member indices must be positive integers")
    hi = _upper(np.atleast_1d(alphas), n.astype(float)[:, None])
    return np.broadcast_to(np.zeros(hi.shape[1]), hi.shape), hi


class _Members(abc.Sequence):
    """Members 1..n_max, each built by ``make_un`` when indexed or iterated
    (a slice gives a tuple of them); ``endpoints(ns, alphas)`` evaluates
    many at once.  Every member declares the hint level one third."""

    hint_levels = (ONE_THIRD,)

    def __init__(self, n_max: int):
        self._rows = range(1, n_max + 1)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        rows = self._rows[index]
        return tuple(map(make_un, rows)) if isinstance(index, slice) else make_un(rows)

    def __iter__(self):
        return map(make_un, self._rows)

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        if np.size(ns) and np.max(ns) > len(self):
            raise BadIndex(f"member index above the family's {len(self)} members")
        return _members_endpoints(ns, alphas)


class _MemberSequence:
    """The whole sequence: ``seq(n)`` is ``make_un(n)``, and
    ``endpoints(ns, alphas)`` evaluates many members at once.  Every member
    declares the hint level one third."""

    hint_levels = (ONE_THIRD,)

    def __call__(self, n: int) -> CutCurve1D:
        return make_un(n)

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        return _members_endpoints(ns, alphas)


_SEQUENCE = _MemberSequence()


def members(n_max: int) -> _Members:
    """The finite family of the first ``n_max`` members, a sequence that
    builds a member only when indexed and also carries the batch
    ``endpoints``."""
    if n_max < 1:
        raise BadIndex("n_max must be at least 1")
    n_max = _index(n_max, "n_max")
    if n_max > sys.maxsize:
        raise BadIndex(f"n_max must be at most {sys.maxsize}, the largest sequence length")
    return _Members(n_max)


def member_sequence() -> _MemberSequence:
    """1-based index -> member callable with batch ``endpoints``, for
    streaming sequence scans; every member declares itself a row of it."""
    return _SEQUENCE


# Constructor forms: JSON type -> (constructor, parameter names).  The object
# {"type": T, "p": x, ...}, the command-line token "T:x:..." and a curve key
# (T, x, ...) all name the object that constructor(x, ...) builds.
FORMS = {
    "counterexample-un": (make_un, ("n",)),
    "counterexample-limit": (make_limit, ()),
    "counterexample-seq": (member_sequence, ()),
}


def key_form(key) -> dict | None:
    """The JSON form of a curve key, or None when it names no constructor."""
    if not (isinstance(key, tuple) and key and key[0] in FORMS):
        return None
    return {"type": key[0], **dict(zip(FORMS[key[0]][1], key[1:]))}


def token_form(spec: str) -> dict | None:
    """The JSON form a command-line token names (arguments read as JSON
    values), or None when ``spec`` names no constructor."""
    kind, *args = spec.split(":")
    if kind not in FORMS:
        return None
    params = FORMS[kind][1]
    if len(args) != len(params):
        raise ParseError(f"bad constructor token {spec!r}: expected {len(params)} argument(s)")
    try:
        values = [json.loads(a) for a in args]
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad constructor token {spec!r}: {exc}") from exc
    return {"type": kind, **dict(zip(params, values))}


def exact_H_profile(n: int, alpha):
    """Closed-form cut distance between member n and the limit.

    Equals 1 - (3a/2 - 1/2)^(1/n) above one third and 0 at or below;
    accepts scalars or arrays.
    """
    n = _index(n)
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 <= a) & (a <= 1.0)):
        raise OutOfRange("alpha outside [0, 1]")
    out = _upper(a, n) - _limit_upper(a)
    return float(out) if out.ndim == 0 else out


def _closed_form_first_index(alphas, eps: float, window: int) -> np.ndarray:
    """N(a) = max(1, ceil(ln t / log1p(-eps))), t = 3a/2 - 1/2, capped at
    ``window + 1``.

    H_n(a) = 1 - t^(1/n) decreases in n for t in (0, 1), so every member
    from N(a) on lies within ``eps`` of the limit at level a.  N is 1 where
    t <= 0 or t = 1 (H is 0 there), and for ``eps`` >= 1 (H < 1).
    """
    t = _inner(alphas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log1p(-eps) is -inf at eps = 1 and NaN above; either gives 1, and
        # a tiny eps makes x overflow to inf: it is capped before the cast
        x = np.log(np.where(t > 0.0, t, 1.0)) / np.log1p(-eps)
    return np.where(x > 1.0, np.minimum(np.ceil(x), window + 1.0), 1.0).astype(np.int64)


def _settle_first_index(alphas, eps: float, window: int, guess) -> list[int | None]:
    """The first index after which every member up to ``window`` lies
    within ``eps`` of the limit, per level, found from ``guess`` in the float
    kernel; None where member ``window`` still violates.  Each guess lies
    in 1..``window`` + 1.

    This is what :func:`metrics.level_convergence_report` reports as
    ``first_index``: 1 + the last index n <= ``window`` with H_n > eps.  The
    kernel is nonincreasing in n, so N is settled when row N - 1 violates
    (or N = 1) and row N does not (or N = window + 1).  Each round reads
    rows N - 1 and N of every level in one :func:`_upper` call and steps an
    unsettled N by one towards its crossing; an N never turns back, so each
    level settles in at most ``window`` rounds.
    """
    alphas = np.asarray(alphas, dtype=float)
    limit = _limit_upper(alphas)
    n = np.array(guess, dtype=np.int64)
    while True:
        rows = np.stack([np.maximum(n - 1, 1), np.minimum(n, window)]).astype(float)
        before, at = _upper(alphas, rows) - limit > eps
        step = np.where((n <= window) & at, 1, np.where((n == 1) | before, 0, -1))
        if not step.any():
            return [k if k <= window else None for k in n.tolist()]
        n += step


def dgn_bound(alpha: float, delta: float, beta: float) -> float:
    """Displayed modulus bound (3(a-d)/2 - 1/2)^(-1) * (a - b).

    Requires a - d strictly above one third and b in [a-d, a].  Note: the
    first member's modulus grows at slope 3/2 in the level, so this quotient
    only dominates every member when 3(a-d)/2 - 1/2 <= 2/3; see
    :func:`uniform_modulus_bound` for the bound valid on the whole range.
    """
    if not _inner(alpha - delta) > 0.0:
        raise OutOfRange(f"alpha - delta = {alpha - delta} must exceed one third")
    if not (alpha - delta <= beta <= alpha):
        raise OutOfRange(f"beta={beta} outside [alpha-delta, alpha]")
    return float(_dgn_quotient(alpha, delta, beta))


def _dgn_quotient(alpha, delta, beta) -> np.ndarray:
    """:func:`dgn_bound` at each triple of the arrays ``alpha``, ``delta``
    and ``beta``, which it assumes valid."""
    return (alpha - beta) / _inner(alpha - delta)


def uniform_modulus_bound(alpha: float, delta: float, beta: float) -> float:
    """Mean-value modulus bound valid for every member index.

    The cut upper endpoint is 1 - t^(1/n) with t = 3a/2 - 1/2, so the
    modulus between levels b <= a is at most (3/2n) t(a-d)^(1/n - 1) (a-b),
    which is itself at most (3/2) (a - b) / t(a-d) for all n >= 1.
    """
    return 1.5 * dgn_bound(alpha, delta, beta)


def family_modulus_oracle(alpha: float, beta: float) -> float:
    """Worst-member cut distance between levels ``beta <= alpha``.

    The distance for member n is f(1/n) with f(x) = ta^x - tb^x, t = 3a/2 -
    1/2.  On x > 0, f rises up to its one critical point x* = ln(ln tb /
    ln ta) / ln(ta / tb) and falls after it, so the worst member is n = 1,
    floor(1/x*) or ceil(1/x*); n = 1 alone when ln ta = 0 (alpha = 1) or
    there is no x* > 0.
    """
    if not (0.0 < _inner(beta) and beta <= alpha <= 1.0):
        raise OutOfRange("need one third < beta <= alpha <= 1")
    return float(_worst_member_move(alpha, beta))


def _worst_member_move(alpha, beta) -> np.ndarray:
    """:func:`family_modulus_oracle` at each pair of levels of the arrays
    ``alpha`` and ``beta``, which it assumes valid."""
    ta, tb = _inner(alpha), _inner(beta)
    la, lb = np.log(ta), np.log(tb)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_star = np.log(lb / la) / np.log(ta / tb)
        inv = 1.0 / x_star
    # members 1, floor(1/x*) and ceil(1/x*), or member 1 alone (three times)
    inside = (la < 0.0) & (ta > tb) & (x_star > 0.0)
    ns = np.stack([np.ones_like(ta), *(np.where(inside, np.maximum(1.0, r(inv)), 1.0) for r in (np.floor, np.ceil))])
    return np.max(np.exp(la / ns) - np.exp(lb / ns), axis=0)


def separation(r: float) -> float:
    """The supremum distance g(r) = (1 - 1/r) r^(-1/(r-1)) between members n
    and m = r n, for r > 1.

    With s = t^(1/m) the distance is sup over s in [0, 1] of s - s^r, taken
    at s = r^(-1/(r-1)).  g increases in r towards 1: g(2) = 1/4, g(3/2) =
    4/27.
    """
    if not 1.0 < r < math.inf:
        raise OutOfRange(f"separation needs a finite ratio above 1, got {r}")
    return (r - 1.0) / r * math.exp(-math.log(r) / (r - 1.0))


def pairwise_dinf_oracle(n: int, m: int, grid_size: int = 1_000_000) -> float:
    """Dense-grid lower bound for the supremum distance between two members
    (the exact distance is :func:`separation` of their index ratio).

    The profile |t^(1/n) - t^(1/m)| peaks at levels that approach one third
    geometrically as the indices grow, so the uniform grid is augmented with
    a geometric cluster just above one third.
    """
    if n == m:
        raise OutOfRange("member indices must differ")
    if n < 1 or m < 1:
        raise BadIndex("member indices must be positive")
    if grid_size < 2:
        raise OutOfRange("grid_size must be at least 2")
    uniform = np.linspace(ONE_THIRD, 1.0, grid_size)
    cluster = ONE_THIRD + (2.0 / 3.0) * 10.0 ** -np.arange(1.0, 15.0)
    t = _inner(np.concatenate([uniform, cluster]))
    log_t = np.log(t[t > 0.0])
    return float(np.max(np.abs(np.exp(log_t / n) - np.exp(log_t / m))))


def refutation_report(
    n_max: int,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> dict:
    """Machine-checked evidence that the family breaks the published
    supremum-metric compactness criterion.

    Verifies support-boundedness and equi-left-continuity (finite family by
    direct moduli, whole family by the certified bound), levelwise
    convergence to the limit at every probed level, and the constant
    supremum distance 1 to the limit; records closedness as an analytic
    argument, and the closed-form separations that keep every subsequence
    from being Cauchy.  All conditions of the criterion hold, yet no
    subsequence converges in the supremum metric.

    The level-convergence table gives, at each default-grid level a, the
    closed-form N(a) (module docstring) settled in the float kernel: member
    N - 1 is beyond ``eps`` and member N within it.  H_n(a) decreases in n,
    so the table holds for every n >= N(a); each entry equals the
    ``first_index`` of :func:`metrics.level_convergence_report` over the first
    ``SCAN_WINDOW`` members, which is not called.  A level whose N(a)
    exceeds that window is reported as not reached.
    """
    if n_max < 2:
        raise OutOfRange("n_max must be at least 2 to exhibit a sequence")
    _check_tolerance(eps, "eps")
    _check_search(tol, DEFAULT_MAX_DEPTH)
    n_max = _index(n_max, "n_max")  # an integral float reports as its integer
    if n_max > REPORT_MEMBERS:
        raise OutOfRange(f"n_max must be at most {REPORT_MEMBERS}: a report takes about 1.8 KB a member")
    fam = members(n_max)
    ns = np.arange(1, n_max + 1)
    limit = make_limit()
    grid = default_report_grid([limit])

    # one read of every member on the grid, whose first level is 0: row
    # n - 1 equals exact_H_profile(n, grid.levels) bit for bit, and column 0
    # holds the 0-cuts that support_bound reads
    lower, upper = _members_endpoints(ns, grid.levels)
    radius = float(np.max(np.abs([lower[:, 0], upper[:, 0]])))
    support_section = {
        "radius": radius,
        "bounded": math.isfinite(radius),
        "passed": radius <= 1.0,
        "note": "every member's 0-cut is [0, 1] by the closed form, so the whole infinite family shares this radius",
    }

    probe_alphas = _unique(
        np.linspace(0.05, 1.0, 20), [ONE_THIRD] + [ONE_THIRD + 10.0 ** -k for k in range(2, 7)]
    )
    above = _inner(probe_alphas) > 0.0
    margin = probe_alphas - ONE_THIRD
    deltas = np.where(above, np.minimum(0.5 * margin, 0.5 * eps * margin), 0.5 * probe_alphas)
    lows = probe_alphas - deltas
    # one lattice read: each probe level at its delta, then level 0 at 0.25
    moves = _worst_moves(fam, np.append(probe_alphas, 0.0), np.append(lows, 0.25)[:, None])[:, 0]
    moduli, right_zero = moves[:-1], float(moves[-1])
    # uniform_modulus_bound and family_modulus_oracle at every level above
    # one third, 0 at the others
    certified, oracle = np.zeros((2, probe_alphas.size))
    certified[above] = 1.5 * _dgn_quotient(probe_alphas[above], deltas[above], lows[above])
    oracle[above] = _worst_member_move(probe_alphas[above], lows[above])
    passed = (certified <= eps) & (moduli <= eps) & (oracle <= eps)
    keys = ("alpha", "delta", "certified_bound", "finite_family_modulus", "oracle_modulus", "passed")
    columns = (probe_alphas, deltas, certified, moduli, oracle, passed)
    equi_section = {
        "eps": eps,
        "passed": bool(passed.all() and right_zero == 0.0),
        "right_at_zero_modulus": right_zero,
        "entries": [dict(zip(keys, row)) for row in zip(*(column.tolist() for column in columns))],
    }

    levels = grid.levels.tolist()
    first = _settle_first_index(levels, eps, SCAN_WINDOW, _closed_form_first_index(levels, eps, SCAN_WINDOW))
    failing = [a for a, k in zip(levels, first) if k is None]
    convergence_section = {
        "eps": eps,
        "scan_window": SCAN_WINDOW,
        "converged": not failing,
        "failing_alphas": failing,
        "table_csv": csv_table(("alpha", "first_index"), zip(levels, first)),
    }

    grid_max = np.max(upper - _limit_upper(grid.levels), axis=1).tolist()
    # one search for all the member-vs-limit pairs, the members read as rows
    # of the sequence (one is built, for the family's declaration)
    found = _d_infty_rows(_SEQUENCE, ns, limit, tol=tol)
    sup_section = {
        "all_equal_one": bool(np.all((found.lower <= 1.0) & (1.0 <= found.upper) & (found.width <= tol))),
        "attained_anywhere": bool(found.attained.any()),
        "entries": [
            # the closed form (module docstring): exactly 1, never attained
            {"n": n, "value": 1.0, "attained": False, "enclosure_lower": lo, "enclosure_upper": hi, "grid_max": g}
            for n, lo, hi, g in zip(range(1, n_max + 1), found.lower.tolist(), found.upper.tolist(), grid_max)
        ],
    }

    pairs = [{"n": n, "m": 5 * n, "separation": separation(5.0)} for n in (1, 2, 3, 5, 10) if n <= n_max]
    closedness_section = {
        "evaluated": False,
        "assertion": (
            "every member sits at supremum distance exactly 1 from the levelwise "
            "limit, and a supremum-metric limit of any subsequence would have to "
            "coincide with that levelwise limit; hence the sequence has no "
            "accumulation point and the set is closed in the supremum metric. "
            "Analytic argument, not a finite computation."
        ),
        "separation_method": (
            "analytic: members n < m lie at supremum distance g(m/n), "
            "g(r) = (1 - 1/r) r^(-1/(r-1)), which increases in r; so any two "
            "members with m >= 5n are at least g(5) apart, and no subsequence "
            "is Cauchy"
        ),
        "pairwise_separation": pairs,
        "separation_when_m_at_least_5n": separation(5.0),
    }

    all_conditions = bool(support_section["passed"] and equi_section["passed"])
    refuted = bool(
        all_conditions and convergence_section["converged"] and sup_section["all_equal_one"]
    )
    conclusion = {
        "support_bounded": support_section["passed"],
        "equi_left_continuous": equi_section["passed"],
        "closed": "asserted-analytic",
        "level_convergent": convergence_section["converged"],
        "supremum_distance_to_limit": 1.0,
        "supremum_metric_convergent": False,
        "compact_in_supremum_metric": False,
        "criterion_refuted": refuted,
    }

    return {
        "n_max": n_max,
        "eps": eps,
        "scan_window": SCAN_WINDOW,
        "tol": tol,
        "support_bound": support_section,
        "equi_left_continuity": equi_section,
        "level_convergence": convergence_section,
        "supremum_distance": sup_section,
        "closedness": closedness_section,
        "conclusion": conclusion,
    }
