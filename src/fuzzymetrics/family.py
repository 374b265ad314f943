"""Family-level diagnostics: support bounds and equi-continuity moduli.

A family here is any finite collection of 1-D fuzzy numbers.  The moduli
measure how far cuts can move when the level drops by delta, uniformly over
the family; together with the support radius they realize the checkable
conditions of the compactness criteria for the level topology and for the
supremum metric.  Everything reported is a finite certificate over the
tested grids, never a claim about the underlying topological property.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import FuzzyNumber1D, SampledFamily, _check_tolerance, _member_rows, _unique, make_sampled_family
from .errors import EmptyFamily, OutOfRange
from .lattice import _worst_moves
from .metrics import default_report_grid

__all__ = [
    "DEFAULT_DELTA_GRID",
    "DEFAULT_EPS",
    "support_bound",
    "left_modulus",
    "right_modulus_at_zero",
    "EquiEntry",
    "EquiContinuityReport",
    "equi_continuity_report",
    "FamilyDiagnostics",
    "compactness_conditions_report",
    "random_family",
]

# geometric offsets 2**-k, k = 2..20: four orders of magnitude in 19 probes
DEFAULT_DELTA_GRID = tuple(2.0 ** -k for k in range(2, 21))
# witness tolerance: a tenth of the unit support scale.  Near a steep-but-
# continuous level the finest default offset (2**-20) cannot witness much
# smaller moduli, so a tighter default would flag continuous families.
DEFAULT_EPS = 0.1

CLOSEDNESS_MARKER = "not evaluated - supplied by caller assertion"


def _require_members(family: Sequence[FuzzyNumber1D]) -> Sequence[FuzzyNumber1D]:
    """The family as a sequence; a sequence is kept as it is, so that its
    batch ``endpoints`` (if any) still serves the member rows."""
    members = family if isinstance(family, abc.Sequence) else list(family)
    if not members:
        raise EmptyFamily("family has no members")
    return members


def support_bound(family: Sequence[FuzzyNumber1D]) -> float:
    """Smallest origin-centered radius containing every member's 0-cut.

    A finite family with finite endpoints is always bounded; the radius is
    what matters for threshold checks against an externally chosen compact
    set.  A NaN endpoint makes the radius NaN.
    """
    members = _require_members(family)
    rows = _member_rows(members, len(members), [0.0])
    return float(np.max([np.max(np.abs(end)) for _, lo, hi in rows for end in (lo, hi)]))


def left_modulus(family: Sequence[FuzzyNumber1D], alpha: float, delta: float) -> float:
    """Worst member's cut distance between levels alpha - delta and alpha.

    By nestedness the sup over intermediate levels is attained at the full
    offset, so a single evaluation per member suffices.
    """
    if not (0.0 < alpha <= 1.0):
        raise OutOfRange(f"alpha={alpha} outside (0, 1]")
    if not (0.0 < delta <= alpha):
        raise OutOfRange(f"delta={delta} outside (0, alpha]")
    members = _require_members(family)
    return float(_worst_moves(members, np.asarray([alpha]), np.asarray([[alpha - delta]]))[0, 0])


def right_modulus_at_zero(family: Sequence[FuzzyNumber1D], delta: float) -> float:
    """Worst member's cut distance between level 0 and level delta."""
    if not (0.0 < delta <= 1.0):
        raise OutOfRange(f"delta={delta} outside (0, 1]")
    members = _require_members(family)
    return float(_worst_moves(members, np.asarray([0.0]), np.asarray([[delta]]))[0, 0])


def _moduli(
    members: Sequence[FuzzyNumber1D], alphas: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Family moduli on the (alpha, delta) lattice, NaN where delta > alpha,
    right moduli at level 0 per delta, NaN where delta > 1, where each
    offset applies (a row per level, then one for level 0), and the support
    radius (the largest |endpoint| at level 0, the last row); one pass over
    the members.  An offset that does not apply moves to the row's own
    level, so its level stays inside [0, 1]."""
    valid = np.vstack([deltas <= alphas[:, None], deltas <= 1.0])
    lattice = np.vstack([alphas[:, None] - deltas, deltas])
    rows = np.append(alphas, 0.0)
    worst, reach = _worst_moves(members, rows, np.where(valid, lattice, rows[:, None]), reach=True)
    worst[~valid] = np.nan
    return worst[:-1], worst[-1], valid, float(reach)


@dataclass(frozen=True)
class EquiEntry:
    """Witness search outcome at one level."""

    alpha: float
    witness_delta: float | None
    modulus: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "witness_delta": self.witness_delta,
            "modulus": self.modulus,
        }


@dataclass(frozen=True)
class EquiContinuityReport:
    """Per-level equi-continuity certificates over the tested grids.

    ``moduli`` and ``zero_moduli`` are the moduli the certificates were read
    from, and ``support_radius`` the family's :func:`support_bound`, read on
    the same pass (see :func:`_moduli`); ``to_dict`` does not write them and
    equality does not compare them.
    """

    entries: tuple[EquiEntry, ...]
    right_at_zero: EquiEntry
    eps: float
    delta_grid: tuple[float, ...]
    moduli: np.ndarray = field(compare=False, repr=False)
    zero_moduli: np.ndarray = field(compare=False, repr=False)
    support_radius: float = field(compare=False, repr=False)

    @property
    def left_passed(self) -> bool:
        return all(e.witness_delta is not None for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.left_passed and self.right_at_zero.witness_delta is not None

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta_grid": list(self.delta_grid),
            "passed": self.passed,
            "left_passed": self.left_passed,
            "entries": [e.to_dict() for e in self.entries],
            "right_at_zero": self.right_at_zero.to_dict(),
        }


def _witness(
    deltas: list[float], moduli: list[float], applies: list[bool], eps: float
) -> tuple[float | None, float]:
    """The largest tested delta whose modulus is at most eps, with that
    modulus.

    ``deltas`` run largest first; an offset that does not apply is skipped.
    A NaN modulus of one that applies (a NaN endpoint) fails the level: no
    witness, and that NaN.  Without a witness the modulus is the last
    applicable one (NaN when none applies).
    """
    modulus = math.nan
    for d, m, ok in zip(deltas, moduli, applies):
        if not ok:
            continue
        if m <= eps:
            return d, m
        modulus = m
        if math.isnan(m):
            break
    return None, modulus


def equi_continuity_report(
    family: Sequence[FuzzyNumber1D],
    alpha_grid: Sequence[float] | np.ndarray | None = None,
    delta_grid: Sequence[float] | np.ndarray | None = None,
    eps: float = DEFAULT_EPS,
) -> EquiContinuityReport:
    """Search each tested level for a delta that tames the family modulus.

    Reports, per level in (0, 1], the largest tested delta whose modulus
    stays within eps (witness), or no witness if even the smallest tested
    delta fails; plus the analogous right-side entry at level 0.  Without
    ``alpha_grid`` the levels are those of ``default_report_grid([family])``
    in (0, 1]: k/100, k = 1..100, densified around the members' hint
    levels.  A given level 0 is skipped; a NaN level or one outside [0, 1]
    raises OutOfRange.
    """
    _check_tolerance(eps, "eps")
    members = _require_members(family)
    if alpha_grid is None:
        alpha_grid = default_report_grid([members]).levels
    alphas = _unique(np.asarray(alpha_grid, dtype=float))
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
        raise OutOfRange("alpha grid levels must lie in [0, 1]")
    alphas = alphas[alphas > 0.0]
    if alphas.size == 0:
        raise OutOfRange("alpha grid has no levels inside (0, 1]")
    given = list(DEFAULT_DELTA_GRID if delta_grid is None else delta_grid)
    if not given or not all(0.0 < d < math.inf for d in given):
        raise OutOfRange("delta grid must hold finite positive offsets")
    # the distinct offsets, largest first
    deltas = _unique(np.asarray(given, dtype=float))[::-1]

    table, zero_moduli, applies, radius = _moduli(members, alphas, deltas)
    offsets, applies = deltas.tolist(), applies.tolist()
    entries = tuple(
        EquiEntry(a, *_witness(offsets, row, ok, eps))
        for a, row, ok in zip(alphas.tolist(), table.tolist(), applies)
    )
    return EquiContinuityReport(
        entries=entries,
        right_at_zero=EquiEntry(0.0, *_witness(offsets, zero_moduli.tolist(), applies[-1], eps)),
        eps=eps,
        delta_grid=tuple(offsets),
        moduli=table,
        zero_moduli=zero_moduli,
        support_radius=radius,
    )


@dataclass(frozen=True)
class FamilyDiagnostics:
    """Bundle of support radius, moduli tables, and criteria verdicts.

    ``condition_verdicts`` carries the level-topology criterion (closed +
    support-bounded + equi-left-continuous on (0,1] and equi-right at 0)
    and the published supremum-metric criterion (support-bounded + closed +
    equi-left-continuous).  Their shared conditions are evaluated once and
    the two verdict trees reference the very same objects.  Closedness is
    never inferred from a finite family.
    """

    support_radius: float
    left_moduli: dict
    right_modulus_at_zero: dict
    condition_verdicts: dict

    def to_dict(self) -> dict:
        return {
            "support_radius": self.support_radius,
            "bounded": math.isfinite(self.support_radius),
            "left_moduli": [
                {
                    "alpha": a,
                    "moduli": [
                        {"delta": d, "value": v} for d, v in sorted(row.items(), reverse=True)
                    ],
                }
                for a, row in sorted(self.left_moduli.items())
            ],
            "right_modulus_at_zero": [
                {"delta": d, "value": v}
                for d, v in sorted(self.right_modulus_at_zero.items(), reverse=True)
            ],
            "condition_verdicts": self.condition_verdicts,
        }

    @property
    def passed(self) -> bool:
        v = self.condition_verdicts["supremum_metric_criterion"]
        return bool(v["support_bounded"]["passed"] and v["equi_left_continuity"]["passed"])


def compactness_conditions_report(
    family: Sequence[FuzzyNumber1D],
    alpha_grid: Sequence[float] | np.ndarray | None = None,
    delta_grid: Sequence[float] | None = None,
    eps: float = DEFAULT_EPS,
) -> FamilyDiagnostics:
    """Evaluate every checkable compactness condition on a finite family.

    The support bound and the equi-continuity certificates feed both
    criteria's verdicts from one computation, which reads each member once
    (the support radius from its level-0 row); closedness is reported as
    caller-asserted because no finite sample can decide it.
    """
    members = _require_members(family)
    report = equi_continuity_report(members, alpha_grid, delta_grid, eps)
    radius = report.support_radius

    deltas = report.delta_grid
    left_moduli = {
        e.alpha: {d: m for d, m in zip(deltas, row) if d <= e.alpha}
        for e, row in zip(report.entries, report.moduli.tolist())
    }
    zero_moduli = {d: m for d, m in zip(deltas, report.zero_moduli.tolist()) if d <= 1.0}

    bounded = math.isfinite(radius)
    support_verdict = {"radius": radius, "bounded": bounded, "passed": bounded}
    left_verdict = {
        "passed": report.left_passed,
        "eps": report.eps,
        "per_alpha": [e.to_dict() for e in report.entries],
    }
    right_verdict = {
        "passed": report.right_at_zero.witness_delta is not None,
        "eps": report.eps,
        "entry": report.right_at_zero.to_dict(),
    }
    verdicts = {
        "level_topology_criterion": {
            "closed": CLOSEDNESS_MARKER,
            "support_bounded": support_verdict,
            "equi_continuity": {"left": left_verdict, "right_at_zero": right_verdict},
        },
        "supremum_metric_criterion": {
            "support_bounded": support_verdict,
            "closed": CLOSEDNESS_MARKER,
            "equi_left_continuity": left_verdict,
        },
    }
    return FamilyDiagnostics(
        support_radius=radius,
        left_moduli=left_moduli,
        right_modulus_at_zero=zero_moduli,
        condition_verdicts=verdicts,
    )


# squeeze width of an injected jump: narrower than every default modulus
# offset, yet wide enough that validation probes resolve the segment as linear
_JUMP_SQUEEZE = 1e-6


def random_family(
    seed: int,
    count: int,
    levels: int = 9,
    jump_at: float | None = None,
    jump_size: float = 0.5,
) -> SampledFamily:
    """Deterministic generator of valid sampled fuzzy numbers on one grid.

    Endpoint monotonicity is guaranteed by sorting random offsets in
    [0, 1) around a random center in [-1, 1).  With ``jump_at`` set, every
    member's upper endpoint drops by at least ``jump_size`` across a
    squeezed grid gap just below that level, which defeats
    equi-left-continuity there while each member stays a perfectly valid
    fuzzy number.
    """
    if count < 1:
        raise OutOfRange("count must be at least 1")
    if levels < 2:
        raise OutOfRange("levels must be at least 2")
    rng = np.random.default_rng(seed)
    grid_levels = np.linspace(0.0, 1.0, levels)
    if jump_at is not None:
        if not (_JUMP_SQUEEZE < jump_at < 1.0):
            raise OutOfRange(
                f"jump_at must lie strictly inside ({_JUMP_SQUEEZE}, 1): the grid gap below"
                f" the jump has the squeeze width {_JUMP_SQUEEZE}"
            )
        grid_levels = _unique(grid_levels, [jump_at - _JUMP_SQUEEZE, jump_at])
    size = grid_levels.size
    # one row per member, drawn in member order: the center (as
    # rng.uniform(-1, 1) computes it), then the lower and the upper offsets
    draws = rng.random((count, 1 + 2 * size))
    center = -1.0 + 2.0 * draws[:, :1]
    lower = center - np.sort(draws[:, 1 : 1 + size], axis=1)[:, ::-1]
    upper = center + np.sort(draws[:, 1 + size :], axis=1)[:, ::-1]
    if jump_at is not None:
        upper = upper + np.where(grid_levels < jump_at, jump_size, 0.0)
    return make_sampled_family(grid_levels, lower, upper)
