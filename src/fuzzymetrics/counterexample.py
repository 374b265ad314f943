"""A sequence that level-converges but stays at supremum distance one.

The member with index n has cuts [0, 1 - (3a/2 - 1/2)^(1/n)] for levels a
above one third and [0, 1] at or below it; the levelwise limit has the
singleton cut {0} above one third and [0, 1] at or below.  Every cut
distance profile vanishes pointwise in n, yet the supremum over levels is
exactly 1 for every member, approached (never attained) as the level
decreases to one third.  This family is the machine-checked refutation of
the published support-bound + equi-left-continuity compactness criteria
for the supremum metric.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .core import CutCurve1D, DeclaredJump
from .errors import BadIndex, OutOfRange, ParseError
from . import family as family_mod
from .metrics import (
    Enclosure,
    d_infty_parametric,
    default_report_grid,
    level_convergence_report,
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
    "pairwise_dinf_oracle",
    "refutation_report",
]

ONE_THIRD = 1.0 / 3.0

# window of the level-convergence scan inside the refutation report
SCAN_WINDOW = 100_000
DEFAULT_EPS = 1e-3


def _inner(alphas) -> np.ndarray:
    """The quantity 3a/2 - 1/2 whose sign selects the cut formula branch.

    Branching is done on this value (not on a compared to 1/3) so that every
    code path applies the identical predicate at the identical floats.
    """
    return 1.5 * np.asarray(alphas, dtype=float) - 0.5


def _limit_upper(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    t = np.atleast_1d(_inner(a))
    out = np.where(t > 0.0, 0.0, 1.0)
    return out.reshape(a.shape)


def _zeros(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    return np.zeros_like(a)


def _index(n) -> int:
    """``n`` as a member index: a positive integer (an integral float counts,
    a boolean does not)."""
    whole = isinstance(n, numbers.Integral) or (isinstance(n, float) and n.is_integer())
    if isinstance(n, bool) or not whole or n < 1:
        raise BadIndex(f"member index must be a positive integer, got {n}")
    return int(n)


def make_un(n: int) -> CutCurve1D:
    """Member n of the sequence; continuous cuts with a kink at one third."""
    n = _index(n)
    return CutCurve1D(
        lower_fn=_zeros,
        upper_fn=lambda a, _n=n: _upper(a, _n),
        jumps=(),
        hint_levels=(ONE_THIRD,),
        key=("counterexample-un", n),
    )


def make_limit() -> CutCurve1D:
    """The levelwise limit; its cut jumps from the right at one third."""
    return CutCurve1D(
        lower_fn=_zeros,
        upper_fn=_limit_upper,
        jumps=(DeclaredJump(alpha=ONE_THIRD, lower_right=0.0, upper_right=0.0),),
        hint_levels=(ONE_THIRD,),
        key=("counterexample-limit",),
    )


def _upper(alphas, n) -> np.ndarray:
    """Upper endpoint 1 - t^(1/n), t = 3a/2 - 1/2, where t > 0, and 1 elsewhere.

    ``n`` broadcasts against the levels: a column of indices gives one row
    per member, with the log taken once per level.
    """
    t = _inner(alphas)
    pos = t > 0.0
    # a nonpositive t never reaches the log: 1 stands in for it
    return np.where(pos, 1.0 - np.exp(np.log(np.where(pos, t, 1.0)) / n), 1.0)


def _members_endpoints(ns, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of members ``ns`` (rows) at levels ``alphas`` (columns).

    Row i equals ``make_un(ns[i]).endpoints(alphas)`` bit for bit: both
    evaluate :func:`_upper`.
    """
    n = np.asarray(ns)
    if n.ndim != 1 or not np.all((n >= 1) & (n == np.floor(n))):
        raise BadIndex("member indices must be positive integers")
    hi = _upper(np.atleast_1d(alphas), n.astype(float)[:, None])
    return np.zeros_like(hi), hi


class _Members(tuple):
    """Members 1..n_max; ``endpoints(ns, alphas)`` evaluates many at once."""

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        if np.size(ns) and np.max(ns) > len(self):
            raise BadIndex(f"member index above the family's {len(self)} members")
        return _members_endpoints(ns, alphas)


class _MemberSequence:
    """The whole sequence: ``seq(n)`` is ``make_un(n)``, and
    ``endpoints(ns, alphas)`` evaluates many members at once."""

    def __call__(self, n: int) -> CutCurve1D:
        return make_un(n)

    def endpoints(self, ns, alphas) -> tuple[np.ndarray, np.ndarray]:
        return _members_endpoints(ns, alphas)


def members(n_max: int) -> tuple[CutCurve1D, ...]:
    """The finite family of the first ``n_max`` members (a tuple that also
    carries the batch ``endpoints``)."""
    if n_max < 1:
        raise BadIndex("n_max must be at least 1")
    return _Members(make_un(n) for n in range(1, n_max + 1))


def member_sequence() -> _MemberSequence:
    """1-based index -> member callable with batch ``endpoints``, for
    streaming sequence scans."""
    return _MemberSequence()


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
    except ValueError as exc:
        raise ParseError(f"bad constructor token {spec!r}: {exc}") from exc
    return {"type": kind, **dict(zip(params, values))}


def exact_H_profile(n: int, alpha):
    """Closed-form cut distance between member n and the limit.

    Equals 1 - (3a/2 - 1/2)^(1/n) above one third and 0 at or below;
    accepts scalars or arrays.
    """
    n = _index(n)
    a = np.asarray(alpha, dtype=float)
    if np.any(a < 0.0) or np.any(a > 1.0):
        raise OutOfRange("alpha outside [0, 1]")
    out = _upper(a, n) - _limit_upper(a)
    return float(out) if out.ndim == 0 else out


def dgn_bound(alpha: float, delta: float, beta: float) -> float:
    """Displayed modulus bound (3(a-d)/2 - 1/2)^(-1) * (a - b).

    Requires a - d strictly above one third and b in [a-d, a].  Note: the
    first member's modulus grows at slope 3/2 in the level, so this quotient
    only dominates every member when 3(a-d)/2 - 1/2 <= 2/3; see
    :func:`uniform_modulus_bound` for the bound valid on the whole range.
    """
    t = float(_inner(alpha - delta))
    if not t > 0.0:
        raise OutOfRange(f"alpha - delta = {alpha - delta} must exceed one third")
    if not (alpha - delta <= beta <= alpha):
        raise OutOfRange(f"beta={beta} outside [alpha-delta, alpha]")
    return (alpha - beta) / t


def uniform_modulus_bound(alpha: float, delta: float, beta: float) -> float:
    """Mean-value modulus bound valid for every member index.

    The cut upper endpoint is 1 - t^(1/n) with t = 3a/2 - 1/2, so the
    modulus between levels b <= a is at most (3/2n) t(a-d)^(1/n - 1) (a-b),
    which is itself at most (3/2) (a - b) / t(a-d) for all n >= 1.
    """
    return 1.5 * dgn_bound(alpha, delta, beta)


def family_modulus_oracle(alpha: float, beta: float, n_max: int = 10_000) -> float:
    """Worst-member cut distance between levels ``beta <= alpha``.

    Brute-force scan of (3a/2-1/2)^(1/n) - (3b/2-1/2)^(1/n) over member
    indices; the scan extends past ``n_max`` until the running maximum has
    been stable for ten times the argmax index (the summand tends to 0 in
    n, so the tail cannot overtake a stable maximum in practice).
    """
    ta = float(_inner(alpha))
    tb = float(_inner(beta))
    if not (0.0 < tb and beta <= alpha <= 1.0):
        raise OutOfRange("need one third < beta <= alpha <= 1")
    if n_max < 1:
        raise OutOfRange("n_max must be at least 1")
    la, lb = np.log(ta), np.log(tb)
    best = 0.0
    best_n = 1
    start = 1
    target = n_max
    while start <= target:
        stop = min(target, start + 65_535)
        ns = np.arange(start, stop + 1, dtype=float)
        vals = np.exp(la / ns) - np.exp(lb / ns)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            best_n = start + i
        start = stop + 1
        target = max(target, min(10 * best_n, 10_000_000))
    return best


def pairwise_dinf_oracle(n: int, m: int, grid_size: int = 1_000_000) -> float:
    """Dense-grid lower bound for the supremum distance between two members.

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
    alphas = np.concatenate([uniform, cluster])
    t = _inner(alphas)
    pos = t > 0.0
    tp = t[pos]
    vals = np.abs(np.exp(np.log(tp) / n) - np.exp(np.log(tp) / m))
    return float(np.max(vals))


def _equi_witness_delta(alpha: float, eps: float) -> float:
    """A level offset certified to keep every member's modulus within eps."""
    margin = alpha - ONE_THIRD
    return min(0.5 * margin, 0.5 * eps * margin)


def refutation_report(
    n_max: int,
    eps: float = DEFAULT_EPS,
    tol: float = 1e-9,
) -> dict:
    """Machine-checked evidence that the family breaks the published
    supremum-metric compactness criterion.

    Verifies support-boundedness and equi-left-continuity (finite family by
    direct moduli, whole family by the certified bound), levelwise
    convergence to the limit at every probed level, and the constant
    supremum distance 1 to the limit; records closedness as an analytic
    argument corroborated by pairwise separations.  All conditions of the
    criterion hold, yet no subsequence converges in the supremum metric.
    """
    if n_max < 2:
        raise OutOfRange("n_max must be at least 2 to exhibit a sequence")
    fam = members(n_max)
    limit = make_limit()
    grid = default_report_grid([limit])

    radius = family_mod.support_bound(fam)
    support_section = {
        "radius": radius,
        "bounded": True,
        "passed": radius <= 1.0,
        "note": "every member's 0-cut is [0, 1] by the closed form, so the whole infinite family shares this radius",
    }

    probe_alphas = np.union1d(
        np.linspace(0.05, 1.0, 20), [ONE_THIRD] + [ONE_THIRD + 10.0 ** -k for k in range(2, 7)]
    )
    equi_entries = []
    equi_ok = True
    for a in probe_alphas.tolist():
        if _inner(a) <= 0.0:
            delta = 0.5 * a
            entry = {
                "alpha": a,
                "delta": delta,
                "certified_bound": 0.0,
                "finite_family_modulus": family_mod.left_modulus(fam, a, delta),
                "oracle_modulus": 0.0,
            }
        else:
            delta = _equi_witness_delta(a, eps)
            entry = {
                "alpha": a,
                "delta": delta,
                "certified_bound": uniform_modulus_bound(a, delta, a - delta),
                "finite_family_modulus": family_mod.left_modulus(fam, a, delta),
                "oracle_modulus": family_modulus_oracle(a, a - delta, n_max=max(n_max, 1000)),
            }
        entry["passed"] = bool(
            entry["certified_bound"] <= eps
            and entry["finite_family_modulus"] <= eps
            and entry["oracle_modulus"] <= eps
        )
        equi_ok = equi_ok and entry["passed"]
        equi_entries.append(entry)
    right_zero = family_mod.right_modulus_at_zero(fam, 0.25)
    equi_section = {
        "eps": eps,
        "passed": bool(equi_ok and right_zero == 0.0),
        "right_at_zero_modulus": right_zero,
        "entries": equi_entries,
    }

    convergence = level_convergence_report(member_sequence(), limit, grid, eps, SCAN_WINDOW)
    convergence_section = {
        "eps": eps,
        "scan_window": SCAN_WINDOW,
        "converged": convergence.converged,
        "failing_alphas": list(convergence.failing_alphas),
        "table_csv": csv_table(
            ("alpha", "first_index"),
            [(e.alpha, e.first_index) for e in convergence.entries],
        ),
    }

    sup_entries = []
    all_one = True
    none_attained = True
    grid_alphas = grid.levels
    for n in range(1, n_max + 1):
        enc: Enclosure = d_infty_parametric(make_un(n), limit, tol=tol)
        grid_max = float(np.max(exact_H_profile(n, grid_alphas)))
        all_one = all_one and enc.lower <= 1.0 <= enc.upper and enc.width <= tol
        none_attained = none_attained and not enc.attained
        sup_entries.append(
            {
                "n": n,
                # the closed form (module docstring): exactly 1, never attained
                "value": 1.0,
                "attained": False,
                "enclosure_lower": enc.lower,
                "enclosure_upper": enc.upper,
                "grid_max": grid_max,
            }
        )
    sup_section = {
        "all_equal_one": bool(all_one),
        "attained_anywhere": bool(not none_attained),
        "entries": sup_entries,
    }

    pair_probes = [n for n in (1, 2, 3, 5, 10) if n <= n_max]
    pairs = []
    for n in pair_probes:
        m = 5 * n
        sep = pairwise_dinf_oracle(n, m, grid_size=200_001)
        pairs.append({"n": n, "m": m, "separation_lower_bound": sep})
    closedness_section = {
        "evaluated": False,
        "assertion": (
            "every member sits at supremum distance exactly 1 from the levelwise "
            "limit, and a supremum-metric limit of any subsequence would have to "
            "coincide with that levelwise limit; hence the sequence has no "
            "accumulation point and the set is closed in the supremum metric. "
            "Analytic argument, not a finite computation; the pairwise "
            "separations below corroborate that no subsequence is Cauchy."
        ),
        "pairwise_separation": pairs,
        "min_pairwise_separation": min(p["separation_lower_bound"] for p in pairs),
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
