"""The family-moduli lattice: the worst member's move at every (row level,
lattice level) cell, bit for bit as the dense read gives it.

Any family is read densely (``core._dense_moves``).  A ``SampledFamily``
of more than ``_SCREEN_MEMBERS`` members is screened first: most cells are
settled from the exact moves of a few members, chosen with rounding bounds
derived in :func:`_screen`, and only the cells left open are read densely.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import _BLOCK_CELLS, _MOVE_CELLS, FuzzyNumber1D, SampledFamily, _dense_moves, _member_rows, _segments

# The lattice screen of a ``SampledFamily`` settles a cell from the exact moves
# of a few members per side: the _SCREEN_TOP steepest of its segment, where
# it lies within one, else, where it spans at most _RANK_SPAN segments, every
# member whose ranked move lies within a rounding margin of the largest (see
# :func:`_screen`).  Ranked blocks hold at most about _BLOCK_CELLS member
# moves, and so do their candidates.  The cells it leaves open are read
# densely, at most _PACK of a row's cells to a packed row.  A family of at
# most _SCREEN_MEMBERS members is read densely whole: there the screen's
# fixed cost is above the dense read's.
_SCREEN_TOP = 4
_RANK_SPAN = 4
_SCREEN_MEMBERS = 64
_PACK = 4
_UNIT_ROUNDOFF = 2.0**-53


def _worst_moves(members: Sequence[FuzzyNumber1D], rows: np.ndarray, lattice: np.ndarray, reach: bool = False):
    """The worst member's move H(cut(rows[i]), cut(lattice[i, j])) at every
    point of the ``(len(rows), deltas)`` array ``lattice``; with ``reach``,
    also the largest |endpoint| of any member at the last of ``rows``, as the
    pair ``(moves, reach)``.

    A ``SampledFamily`` of more than ``_SCREEN_MEMBERS`` members first
    settles what its screen can (see :func:`_screen`); the cells left open
    are read densely, packed per row up to ``_PACK`` to a packed row and
    padded with the row's own level, and the reach is read in member
    blocks, as ``family.support_bound`` reads it.  Any other family is read
    densely whole (see ``core._dense_moves``).  Either way every value is
    the dense read's bit for bit."""
    if not isinstance(members, SampledFamily) or len(members) <= _SCREEN_MEMBERS:
        read = _dense_moves(members, rows, lattice, reach)
        return (read[0], read[1][-1]) if reach else read
    worst, open_cells = _screen(members, rows, lattice)
    ri, ci = np.nonzero(open_cells)
    if ri.size:
        counts = np.bincount(ri, minlength=rows.size)
        packs = -(-counts // _PACK)
        first = np.cumsum(packs) - packs  # each row's first packed row
        rank = np.arange(ri.size) - (np.cumsum(counts) - counts)[ri]  # place in its row
        at, slot = first[ri] + rank // _PACK, rank % _PACK
        packed_rows = np.repeat(rows, packs)
        packed = np.repeat(packed_rows[:, None], _PACK, axis=1)
        packed[at, slot] = lattice[ri, ci]
        worst[ri, ci] = _dense_moves(members, packed_rows, packed)[at, slot]
    if not reach:
        return worst
    blocks = _member_rows(members, len(members), rows[-1:])
    return worst, np.max([np.max(np.abs(end)) for _, lo, hi in blocks for end in (lo, hi)])


def _screen(family: SampledFamily, rows: np.ndarray, lattice: np.ndarray):
    """The cells of :func:`_worst_moves` that the family settles without the
    dense read, as ``(worst, open)``: ``worst`` holds every settled cell's
    value (0 elsewhere) and ``open`` marks the cells left to the dense read.

    A cell reads every member at its two levels y <= z as
    ``SampledFamily.endpoints`` does: the stored sample s_k at a node k, else
    v(x) = fl(fl(t_j o(x)) + s_j) on segment j, with the stored slope t_j =
    fl(fl(s_j+1 - s_j) / w_j) and the offset 0 <= o(x) <= w_j of
    ``core._segments``.  Its value is the largest computed move |fl(v(z) -
    v(y))| of any member on either side.  The cell spans the n segments that
    hold a part of [y, z], and overlaps each by ov_j: w_j - o(y) at the
    first, o(z) at the last (w_j where z is a node; o(z) - o(y) where both
    are the one segment), w_j in between.

    Rounding, in the standard model (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 2-3: each operation exact times 1 + e with
    |e| <= u = 2**-53, plus an absolute 2**-1075 where a product or quotient
    underflows; sums that underflow are exact).  Off a node v(x) = t_j o(x)
    + s_j + r with |r| <= (2 + u) u |t_j| w_j + u |s_j| + 2**-1074, and
    s_j+1 - s_j = t_j w_j + d with |d| <= 2.0001 u |t_j| w_j + 2**-1074.
    Summed over the span, v(z) - v(y) = sum_j t_j ov_j + e with |e| <= sum_j
    (4.001 u S_j w_j + 2 u T_j + 2**-1073), where S_j is the segment's
    largest |slope| and T_j the largest |sample| of its two columns; the
    computed move is |v(z) - v(y)| times 1 + e, |e| <= u.  The rounding term
    E_j = 32 u S_j w_j + 16 u T_j + 2**-1022 is over five times the
    segment's part of that sum.  A member's slopes on one side share the
    side's sign, so |sum_j t_j ov_j| = sum_j |t_j| ov_j, its ranked move A.

    Only tame segments are read: finite slopes of the side's sign and
    samples of at most 2**1020 in magnitude, so that every endpoint on them
    is finite.  A cell that spans any other segment, or whose row lies on
    one, is left open.  A cell at its row's own level is 0.

    First, a cell within one segment j has the moves of the
    ``_SCREEN_TOP`` steepest members of j computed exactly.  Every other
    member has |t_j| <= t*_j, the segment's (``_SCREEN_TOP`` + 1)-th
    steepest |slope|, so its move is at most B = fl(fl(fl(t*_j fl(ov_j))
    (1 + 8 u)) + E_j): the product loses at most a factor (1 - u)**2, B's
    own roundings a factor 1 - u each, which 1 + 8 u covers, and E_j covers
    e, the move's rounding and every underflow.  Where both sides' B lie
    strictly below the largest exact move C, C is the cell's value bit for
    bit.  A family of at most ``_SCREEN_TOP`` members has every move
    computed.

    Then every cell still open over at most ``_RANK_SPAN`` segments ranks
    all members by A on each side, a product of its overlaps with the slopes
    of the w segments that its block of cells spans (``np.einsum``, which
    starts no BLAS threads).  In any order of its sums that product lies within
    a factor 1 +- (w + 1) u (1 + w u) of A, and within w 2**-1022 where a
    product underflows.  So a member whose ranked move lies below A_max - M,
    with M = 4 (w + 2) u A_max + w max_j E_j + 4 w 2**-1022, moves less than
    the member ranked A_max: M is over twice the sum of both members'
    rounding terms, which leaves room for its own.  A wild segment in the
    block's window, which none of its cells spans, is ranked at slope 0 and
    left out of max_j E_j, so that no NaN or inf reaches A_max or M.  The
    exact moves of the members within M of A_max on each side settle the
    cell, at most about ``_BLOCK_CELLS`` of them in a block, as many as it
    ranks.  Longer spans are left open: their ranking would cost more than
    their dense read."""
    levels = family.grid.levels
    widths = np.diff(levels)
    count = len(family)
    rows = np.clip(rows, 0.0, 1.0)
    cells = np.clip(lattice, 0.0, 1.0).ravel()
    row_of = np.repeat(np.arange(rows.size), lattice.shape[1])
    at_row = [x[row_of] for x in _segments(levels, rows)]
    at_cell = _segments(levels, cells)
    above = cells > rows[row_of]
    y = tuple(np.where(above, r, c) for r, c in zip(at_row, at_cell))
    z = tuple(np.where(above, c, r) for r, c in zip(at_row, at_cell))
    del at_row, at_cell
    same = cells == rows[row_of]
    # the segments first..last that hold a part of [y, z]; a cell at its
    # row's own level is read on its row's segment
    first = y[2]
    last = np.where(same, first, z[0] - z[1])
    n = last - first + 1
    end = np.where(z[1], widths[last], z[3])
    ov_first = np.where(n == 1, end, widths[first]) - y[3]
    # per side: levels-major samples, slopes and their segment terms
    sides = [
        (samples.T, slopes, *_segment_terms(samples.T, slopes, widths, sign))
        for samples, slopes, sign in zip((family.lower, family.upper), family.slopes, (1.0, -1.0))
    ]
    tame_segment = sides[0][3] & sides[1][3]
    wild = np.concatenate([[0], np.cumsum(~tame_segment)])
    tame = wild[last + 1] == wild[first]
    worst = np.zeros(cells.size)
    settled = same & tame

    def settle(c, values):
        worst[c] = values
        settled[c] = True

    one = np.nonzero(~same & tame & (n == 1))[0]
    if one.size:
        used, at = np.unique(first[one], return_inverse=True)
        best = np.zeros(one.size)
        below = np.ones(one.size, dtype=bool)
        for by_level, slopes, terms, _ in sides:
            top, tstar = _steepest(slopes, used)
            moves = _exact_moves(by_level, slopes, [a[one] for a in y], [a[one] for a in z], top[:, at].T)
            np.maximum(best, moves.max(axis=1), out=best)
            if tstar is not None:
                bound = tstar[at] * ov_first[one]
                bound *= 1.0 + 8.0 * _UNIT_ROUNDOFF
                bound += terms[first[one]]
                below &= bound < best
        settle(one[below], best[below])

    rest = np.nonzero(~settled & ~same & tame & (n <= _RANK_SPAN))[0]
    rest = rest[np.argsort(first[rest], kind="stable")]
    firsts = first[rest]
    step = max(1, _BLOCK_CELLS // count)
    buffer = np.empty(min(rest.size, step) * count)
    start = 0
    while start < rest.size:
        # a block's cells start within 4 _RANK_SPAN segments of its first, so
        # it ranks over fewer than 5 _RANK_SPAN segments
        lo = firsts[start]
        stop = min(start + step, int(np.searchsorted(firsts, lo + 4 * _RANK_SPAN)))
        c, start = rest[start:stop], stop
        hi = last[c].max() + 1
        k = np.arange(lo, hi)
        ov = np.where((first[c, None] < k) & (k < last[c, None]), widths[lo:hi], 0.0)
        ov[np.arange(c.size), first[c] - lo] = ov_first[c]
        ov[np.arange(c.size), last[c] - lo] = np.where(n[c] > 1, end[c], ov_first[c])
        w = hi - lo
        ok = tame_segment[lo:hi]
        pairs = []
        for sign, (_, slopes, terms, _) in zip((1.0, -1.0), sides):
            window = slopes[lo:hi] if ok.all() else np.where(ok[:, None], slopes[lo:hi], 0.0)
            ranked = np.einsum("cw,wm->cm", ov, window, out=buffer[: c.size * count].reshape(c.size, count))
            if sign < 0:
                np.negative(ranked, out=ranked)
            peak = ranked.max(axis=1)
            margin = 4 * (w + 2) * _UNIT_ROUNDOFF * peak + w * (terms[lo:hi][ok].max() + 4 * np.finfo(float).tiny)
            pairs.append(np.divmod(np.flatnonzero(ranked >= (peak - margin)[:, None]), count))
        value = np.zeros(c.size)
        for (by_level, slopes, *_), (cell, member) in zip(sides, pairs):
            # every cell has a candidate per side: the member it ranks highest
            ids = c[cell]
            moves = _exact_moves(by_level, slopes, [a[ids] for a in y], [a[ids] for a in z], member[:, None])
            starts = np.flatnonzero(np.diff(cell, prepend=-1))  # each cell's first pair
            value[cell[starts]] = np.maximum(value[cell[starts]], np.maximum.reduceat(moves[:, 0], starts))
        settle(c, value)
    return worst.reshape(lattice.shape), ~settled.reshape(lattice.shape)


def _segment_terms(by_level: np.ndarray, slopes: np.ndarray, widths: np.ndarray, sign: float):
    """The rounding term E_j of :func:`_screen` for each grid segment of one
    side of a family, from its ``(levels, members)`` samples and
    ``(segments, members)`` slopes, and whether the segment is tame: finite
    slopes of the side's ``sign`` and samples of at most 2**1020."""
    high, low = slopes.max(axis=1), slopes.min(axis=1)
    steepest = np.maximum(high, -low)
    column = np.maximum(by_level.max(axis=1), -by_level.min(axis=1))
    largest = np.maximum(column[:-1], column[1:])
    terms = 32 * _UNIT_ROUNDOFF * (steepest * widths) + 16 * _UNIT_ROUNDOFF * largest + np.finfo(float).tiny
    signed = low >= 0 if sign > 0 else high <= 0
    return terms, signed & (steepest < math.inf) & (largest <= 2.0**1020)


def _steepest(slopes: np.ndarray, segments: np.ndarray):
    """The indices of the ``_SCREEN_TOP`` steepest members (every member, if
    there are no more) on each of ``segments``, shape (top, segments), and
    the next steepest |slope| t* of each, or None where no member is left to
    bound.  The members are ranked a few segments at a time, at most about
    ``_MOVE_CELLS`` slopes at once."""
    count = slopes.shape[1]
    top = min(count, _SCREEN_TOP)
    if count == top:
        return np.repeat(np.arange(count)[:, None], segments.size, axis=1), None
    order, tstar = np.empty((top, segments.size), dtype=np.intp), np.empty(segments.size)
    step = max(1, _MOVE_CELLS // count)
    for first in range(0, segments.size, step):
        part = slice(first, first + step)
        steep = np.abs(slopes[segments[part]])
        ranked = np.argpartition(steep, count - top - 1, axis=1)
        order[:, part] = ranked[:, count - top :].T
        tstar[part] = np.take_along_axis(steep, ranked[:, count - top - 1, None], axis=1)[:, 0]
    return order, tstar


def _exact_moves(by_level: np.ndarray, slopes: np.ndarray, y, z, members: np.ndarray) -> np.ndarray:
    """The computed moves |fl(v(z) - v(y))| of one side, row i for the
    members ``members[i]`` at the levels ``y[i]`` and ``z[i]``, each given by
    its ``(at, node, seg, offset)`` of ``core._segments``: the endpoints of
    ``SampledFamily.endpoints`` bit for bit."""
    count = by_level.shape[1]

    def value(at, node, seg, offset):
        v = np.take(slopes, seg[:, None] * count + members)
        v *= offset[:, None]
        v += np.take(by_level, seg[:, None] * count + members)
        nodes = np.flatnonzero(node)
        v[nodes] = np.take(by_level, at[nodes, None] * count + members[nodes])
        return v

    moves = value(*z)
    moves -= value(*y)
    return np.abs(moves, out=moves)
