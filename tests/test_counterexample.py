import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzymetrics.counterexample as counterexample_mod
import fuzzymetrics.metrics as metrics_mod

from fuzzymetrics import (
    BadIndex,
    Interval,
    OutOfRange,
    alpha_cut,
    d_infty_parametric,
    default_report_grid,
    dgn_bound,
    exact_H_profile,
    family_modulus_oracle,
    left_modulus,
    level_convergence_report,
    level_distance_profile,
    make_limit,
    make_un,
    membership_at,
    pairwise_dinf_oracle,
    refutation_report,
    right_modulus_at_zero,
    separation,
    support_bound,
    uniform_modulus_bound,
)
from fuzzymetrics.counterexample import (
    DEFAULT_EPS,
    ONE_THIRD,
    SCAN_WINDOW,
    _closed_form_first_index,
    _index,
    _inner,
    _members_endpoints,
    _settle_first_index,
    _upper,
    member_sequence,
    members,
)
from fuzzymetrics.serialize import csv_table


class TestMembers:
    def test_cut_formula_substitutions(self):
        assert alpha_cut(make_un(1), 1.0) == Interval(0.0, 0.0)
        cut = alpha_cut(make_un(2), 2 / 3)
        assert cut.lo == 0.0
        assert cut.hi == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
        for n in (1, 4, 33):
            assert alpha_cut(make_un(n), 0.0) == Interval(0.0, 1.0)

    def test_upper_endpoint_boundary_values(self):
        for n in (1, 2, 10, 100):
            u = make_un(n)
            assert alpha_cut(u, 1.0).hi == 0.0
            assert alpha_cut(u, 1 / 3).hi == 1.0

    def test_bad_indices(self):
        for bad in (0, -2, 1.5):
            with pytest.raises(BadIndex):
                make_un(bad)

    def test_an_index_no_float_holds_is_refused(self):
        # a member's row and its endpoints read the index as a float; n_max
        # is checked alike when members(n_max) is made, which builds no
        # member
        top = int(sys.float_info.max)
        assert make_un(top).key == ("counterexample-un", top)
        with pytest.raises(BadIndex, match=r"^member index must be at most 1.7976931348623157e\+308, the largest float$"):
            make_un(top + 1)
        with pytest.raises(BadIndex, match=r"^n_max must be at most 1.7976931348623157e\+308"):
            _index(10**400, "n_max")

    def test_membership_shape(self):
        # grade 1/3 + 2/3 (1-x)^n everywhere on the open support
        u = make_un(3)
        for x in (0.1, 0.5, 0.9):
            expected = 1 / 3 + 2 / 3 * (1 - x) ** 3
            assert membership_at(u, x) == pytest.approx(expected, abs=1e-9)
        assert membership_at(u, 0.0) == 1.0


class TestBatchEndpoints:
    LEVELS = np.array(
        [0.0, 1 / 3, 1.0]
        + [1 / 3 + 10.0**-k for k in range(1, 17)]
        + [1 / 3 - 10.0**-k for k in range(1, 17)]
    )

    def assert_rows_match(self, rows, ns):
        lo, hi = rows
        assert lo.shape == hi.shape == (len(ns), self.LEVELS.size)
        for i, n in enumerate(ns):
            lo_n, hi_n = make_un(n).endpoints(self.LEVELS)
            assert lo[i].tobytes() == lo_n.tobytes()
            assert hi[i].tobytes() == hi_n.tobytes()

    def test_sequence_rows_equal_members_bit_for_bit(self):
        ns = [1, 2, 255, 256, 257, 99_999]
        self.assert_rows_match(member_sequence().endpoints(np.array(ns), self.LEVELS), ns)

    def test_finite_family_rows_equal_members_bit_for_bit(self):
        fam = members(300)
        ns = [1, 2, 255, 256, 257, 300]
        self.assert_rows_match(fam.endpoints(np.array(ns), self.LEVELS), ns)
        assert [u.key for u in fam] == [make_un(n).key for n in range(1, 301)]

    @pytest.mark.parametrize(
        "family, ns",
        [
            (member_sequence(), [1, 2, 2, 7, 1, 99_999, 2**63, 2**64 + 1, 7]),
            (members(300), [300, 1, 256, 256, 2, 255, 1]),
        ],
        ids=["sequence", "finite family"],
    )
    def test_column_form_rows_equal_members_bit_for_bit(self, family, ns):
        # one level per row, as the supremum search reads a family: indices
        # repeat and come as integral floats, as the search's rows do
        ns = np.resize(np.array(ns, dtype=object), self.LEVELS.size)
        lo, hi = family.endpoints(ns.astype(float), self.LEVELS[:, None])
        assert lo.shape == hi.shape == (ns.size, 1)
        for i, (n, level) in enumerate(zip(ns.tolist(), self.LEVELS)):
            lo_n, hi_n = make_un(n).endpoints(np.array([level]))
            assert (lo[i].tobytes(), hi[i].tobytes()) == (lo_n.tobytes(), hi_n.tobytes())

    def test_sequence_still_builds_members(self):
        seq = member_sequence()
        assert seq(7).key == make_un(7).key

    def test_bad_indices(self):
        for bad in ([0], [-1], [1.5]):
            with pytest.raises(BadIndex):
                member_sequence().endpoints(np.array(bad), self.LEVELS)
        with pytest.raises(BadIndex):
            members(5).endpoints(np.array([6]), self.LEVELS)

    def test_n_max_is_checked_like_an_index(self):
        for bad in (2.5, True):
            with pytest.raises(BadIndex, match="^n_max must be a positive integer"):
                members(bad)
        for bad in (0, -3):
            with pytest.raises(BadIndex, match="^n_max must be at least 1$"):
                members(bad)
        assert [u.key for u in members(3.0)] == [u.key for u in members(3)]


def where_upper(alphas, n):
    """The upper endpoint as one ``np.where`` over the levels: the kernel
    :func:`_upper` must equal it bit for bit."""
    t = _inner(alphas)
    pos = t > 0.0
    return np.where(pos, 1.0 - np.exp(np.log(np.where(pos, t, 1.0)) / n), 1.0)


def floats_around(x, count):
    """``x`` and the ``count`` nearest floats on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(sorted(below[1:] + above))


def hexes(values):
    return [v.hex() for v in np.ravel(values).tolist()]


# levels 0 and 1, one third and its 8 nearest floats on each side, and the
# default report grid
KERNEL_LEVELS = np.union1d(
    np.concatenate([[0.0, 1.0], floats_around(ONE_THIRD, 8)]),
    default_report_grid([make_limit()]).levels,
)


class TestUpperKernel:
    @pytest.mark.parametrize(
        "n", [1, 2, 7, 10**6, np.arange(1.0, 601.0)[:, None]], ids=["1", "2", "7", "1e6", "column"]
    )
    def test_equals_where_form_bit_for_bit(self, n):
        got, want = _upper(KERNEL_LEVELS, n), where_upper(KERNEL_LEVELS, n)
        assert got.shape == want.shape
        assert hexes(got) == hexes(want)

    @pytest.mark.parametrize("n", [1, 10**6, np.arange(1.0, 601.0)[:, None]], ids=["1", "1e6", "column"])
    def test_scalar_and_zero_d_levels(self, n):
        for a in KERNEL_LEVELS.tolist():
            for alpha in (a, np.float64(a), np.array(a)):
                got, want = _upper(alpha, n), where_upper(alpha, n)
                assert isinstance(got, np.ndarray) and got.shape == want.shape
                assert hexes(got) == hexes(want)

    def test_both_sides_of_one_third_are_covered(self):
        t = _inner(KERNEL_LEVELS)
        assert (t > 0.0).sum() > 8 and (t <= 0.0).sum() > 8

    @pytest.mark.parametrize("batch", [member_sequence(), members(300)], ids=["sequence", "members"])
    def test_lower_block_is_one_read_only_zero_row(self, batch):
        lo, hi = batch.endpoints(np.arange(1, 301), KERNEL_LEVELS)
        assert lo.shape == hi.shape == (300, KERNEL_LEVELS.size)
        assert not lo.any() and lo.strides[0] == 0
        assert not lo.flags.writeable
        with pytest.raises(ValueError):
            lo[0, 0] = 1.0


class TestMpmathOracle:
    """The float kernels against the same formulas in 50-digit mpmath,
    computed from the same float ``t = _inner(a)`` (the rounding of t
    itself is not checked here)."""

    NS = [1, 2, 3, 10, 255, 1000, 100_000, 10**6]

    @staticmethod
    def exact_upper(a, n):
        with mpmath.workdps(50):
            return 1 - mpmath.mpf(float(_inner(a))) ** (mpmath.mpf(1) / n)

    @staticmethod
    def within_ulps(got, exact, ulps):
        # 1 - exp(log t / n) is rounded on the scale of the larger of the
        # result and t^(1/n), which sum to 1, so that is the unit; the
        # subtraction from 1 cancels where the result is small
        unit = np.spacing(max(float(exact), 1.0 - float(exact)))
        with mpmath.workdps(50):
            return abs(mpmath.mpf(got) - exact) <= ulps * unit

    def test_member_rows_and_profile(self):
        levels = KERNEL_LEVELS[_inner(KERNEL_LEVELS) > 0.0]
        _, hi = _members_endpoints(np.array(self.NS), levels)
        for i, n in enumerate(self.NS):
            profile = exact_H_profile(n, levels)
            for j, a in enumerate(levels.tolist()):
                exact = self.exact_upper(a, n)
                assert self.within_ulps(float(hi[i, j]), exact, 4), (n, a)
                assert self.within_ulps(float(profile[j]), exact, 4), (n, a)

    @staticmethod
    def exact_family_modulus(alpha, beta):
        """sup over all n >= 1 of ta^(1/n) - tb^(1/n): as a function of
        s = 1/n it has one critical point, so the sup over whole n sits at
        n = 1 or at a whole neighbour of the critical n."""
        with mpmath.workdps(50):
            ta, tb = mpmath.mpf(float(_inner(alpha))), mpmath.mpf(float(_inner(beta)))
            la, lb = mpmath.log(ta), mpmath.log(tb)
            candidates = {1}
            if la < 0:
                n_star = mpmath.log(ta / tb) / mpmath.log(lb / la)
                candidates |= {max(1, int(mpmath.floor(n_star))), max(1, int(mpmath.ceil(n_star)))}
            return max(ta ** (mpmath.mpf(1) / n) - tb ** (mpmath.mpf(1) / n) for n in candidates)

    @pytest.mark.parametrize(
        "alpha, delta",
        [(0.8, 0.1), (0.99, 2.0**-5), (ONE_THIRD + 1e-3, 5e-4)],
    )
    def test_uniform_bound_dominates(self, alpha, delta):
        beta = alpha - delta
        exact = self.exact_family_modulus(alpha, beta)
        assert exact > 0
        assert exact <= uniform_modulus_bound(alpha, delta, beta)
        # the float oracle finds the same sup over its scanned window
        assert family_modulus_oracle(alpha, beta) == pytest.approx(float(exact), rel=1e-12)


class TestLimit:
    def test_cuts(self):
        u = make_limit()
        assert alpha_cut(u, 0.5) == Interval(0.0, 0.0)
        assert alpha_cut(u, 1 / 3) == Interval(0.0, 1.0)
        assert alpha_cut(u, 0.1) == Interval(0.0, 1.0)

    def test_membership_plateau(self):
        u = make_limit()
        for x in (0.01, 0.42, 1.0):
            assert membership_at(u, x) == pytest.approx(1 / 3, abs=1e-9)


class TestExactProfile:
    def test_spot_values(self):
        assert exact_H_profile(1, 2 / 3) == pytest.approx(0.5, abs=1e-15)
        for n in (1, 7, 100):
            assert exact_H_profile(n, 1.0) == 0.0
            assert exact_H_profile(n, 1 / 3) == 0.0
            assert exact_H_profile(n, 0.12) == 0.0

    def test_near_one_third_grid_node(self):
        # independent evaluation through the power operator
        inner = 1.5 * 0.34 - 0.5
        assert exact_H_profile(5, 0.34) == pytest.approx(1.0 - inner ** 0.2, abs=1e-12)

    def test_matches_generic_profile_bitwise(self):
        grid = np.union1d(np.linspace(0.0, 1.0, 2001), [1 / 3, 1 / 3 + 1e-9])
        lim = make_limit()
        for n in (1, 2, 17, 100):
            generic = level_distance_profile(make_un(n), lim, grid)
            closed = exact_H_profile(n, grid)
            assert np.max(np.abs(generic.h - closed)) == 0.0

    def test_monotone_escape(self):
        # nonincreasing in the level above one third; at any fixed level the
        # distances decay to 0 in n (levelwise convergence), while the
        # escape toward 1 happens as the level drops to one third
        alphas = np.linspace(1 / 3 + 1e-9, 1.0, 5001)
        for n in (1, 3, 20):
            h = exact_H_profile(n, alphas)
            assert np.all(np.diff(h) <= 1e-15)
            assert h[0] == np.max(h) and h[-1] == 0.0
        assert exact_H_profile(1, 1 / 3 + 1e-9) > 0.999
        for a in (0.4, 0.5, 0.9):
            values = [exact_H_profile(n, a) for n in range(1, 200)]
            assert values == sorted(values, reverse=True)
            assert values[-1] < values[0] < 1.0

    def test_range_check(self):
        for alpha in (1.2, float("nan"), [0.5, float("nan")]):
            with pytest.raises(OutOfRange):
                exact_H_profile(3, alpha)


class TestExactDistance:
    def test_enclosure_cross_check(self):
        lim = make_limit()
        for n in (1, 10, 100):
            enc = d_infty_parametric(make_un(n), lim, tol=1e-9)
            assert enc.lower <= 1.0 <= enc.upper
            assert not enc.attained


class TestQuotientBound:
    def test_displayed_substitution(self):
        assert dgn_bound(0.8, 0.1, 0.75) == pytest.approx(0.05 / 0.55, abs=1e-15)

    def test_zero_width(self):
        assert dgn_bound(0.8, 0.1, 0.8) == 0.0

    def test_rejects_window_reaching_one_third(self):
        with pytest.raises(OutOfRange):
            dgn_bound(0.8, 0.5, 0.75)
        with pytest.raises(OutOfRange):
            dgn_bound(0.8, 0.1, 0.95)

    def test_dominates_oracle_on_moderate_levels(self):
        # valid whenever 3(a-d)/2 - 1/2 <= 2/3, i.e. a - d <= 7/9
        rng = np.random.default_rng(4)
        for _ in range(300):
            alpha = rng.uniform(1 / 3 + 0.01, 7 / 9)
            delta = rng.uniform(1e-6, alpha - 1 / 3 - 1e-9)
            beta = alpha - delta
            assert family_modulus_oracle(alpha, beta) <= dgn_bound(
                alpha, delta, beta
            ) + 1e-12

    def test_first_member_outruns_displayed_bound_near_one(self):
        # the first member's modulus has slope 3/2, so the plain quotient
        # bound fails above a - d = 7/9; the 3/2-scaled bound holds there
        alpha, delta = 1.0, 2.0 ** -5
        beta = alpha - delta
        oracle = family_modulus_oracle(alpha, beta)
        assert oracle == pytest.approx(1.5 * delta, abs=1e-12)
        assert oracle > dgn_bound(alpha, delta, beta)
        assert oracle <= uniform_modulus_bound(alpha, delta, beta) + 1e-12

    def test_scaled_bound_dominates_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            alpha = rng.uniform(1 / 3 + 1e-3, 1.0)
            delta = rng.uniform(1e-7, alpha - 1 / 3 - 1e-9)
            beta = rng.uniform(alpha - delta, alpha)
            assert family_modulus_oracle(alpha, beta) <= uniform_modulus_bound(
                alpha, delta, beta
            ) + 1e-12


def brute_force_modulus(alpha, beta, n_min=1000):
    """The worst member by scanning indices, with the same expression as
    ``family_modulus_oracle``: at least ``n_min`` of them, and on until the
    running maximum has been stable for ten times its argmax index."""
    la, lb = np.log(float(_inner(alpha))), np.log(float(_inner(beta)))
    best, best_n, start, target = 0.0, 1, 1, n_min
    while start <= target:
        ns = np.arange(start, target + 1, dtype=float)
        vals = np.exp(la / ns) - np.exp(lb / ns)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_n = float(vals[i]), start + i
        start, target = target + 1, max(target, 10 * best_n)
    return best


class TestModulusOracle:
    def test_first_member_wins_on_flat_levels(self):
        assert family_modulus_oracle(0.8, 0.75) == pytest.approx(0.075, abs=1e-12)

    def test_degenerate_window(self):
        assert family_modulus_oracle(0.6, 0.6) == 0.0

    def test_equals_brute_force_reference(self):
        rng = np.random.default_rng(16)
        alphas = np.concatenate(
            [ONE_THIRD + np.geomspace(1e-12, 2 / 3, 80), rng.uniform(ONE_THIRD, 1.0, 400), [1.0]]
        )
        checked = 0
        for alpha in alphas.tolist():
            for frac in [0.0, 1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]:
                beta = alpha - frac * (alpha - ONE_THIRD)
                if not _inner(beta) > 0.0:
                    continue
                got = family_modulus_oracle(alpha, beta)
                assert got.hex() == brute_force_modulus(alpha, beta).hex(), (alpha, beta)
                checked += 1
        assert checked > 4500

    def test_one_array_call_equals_the_scalar_oracle(self):
        rng = np.random.default_rng(27)
        alphas = np.concatenate([ONE_THIRD + np.geomspace(1e-12, 2 / 3, 60), rng.uniform(ONE_THIRD, 1.0, 300), [1.0]])
        betas = alphas - rng.choice([0.0, 1e-9, 0.01, 0.5, 0.999], alphas.size) * (alphas - ONE_THIRD)
        keep = _inner(betas) > 0.0
        got = counterexample_mod._worst_member_move(alphas[keep], betas[keep])
        alone = [family_modulus_oracle(a, b) for a, b in zip(alphas[keep].tolist(), betas[keep].tolist())]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in alone]

    def test_range_checks(self):
        with pytest.raises(OutOfRange):
            family_modulus_oracle(0.3, 0.2)
        with pytest.raises(OutOfRange):
            family_modulus_oracle(0.5, 0.6)


class TestPairwiseOracle:
    def test_first_vs_second(self):
        # calculus: sup of sqrt(t) - t is 1/4 at t = 1/4
        assert pairwise_dinf_oracle(1, 2) == pytest.approx(0.25, abs=1e-10)

    def test_first_vs_tenth(self):
        t_star = 0.1 ** (10 / 9)
        expected = t_star ** 0.1 - t_star
        assert pairwise_dinf_oracle(1, 10) == pytest.approx(expected, abs=1e-9)

    def test_cross_check_against_enclosure(self):
        lower = pairwise_dinf_oracle(2, 6, grid_size=200_001)
        enc = d_infty_parametric(make_un(2), make_un(6), tol=1e-6)
        assert lower <= enc.upper + 1e-12
        assert enc.lower <= lower + 1e-6

    def test_identical_indices_rejected(self):
        with pytest.raises(OutOfRange):
            pairwise_dinf_oracle(4, 4)

    def test_non_cauchy_witnesses(self):
        for n in (1, 2, 5, 10):
            m = 5 * n  # well within the 100n search allowance
            assert pairwise_dinf_oracle(n, m, grid_size=200_001) > 0.5


class TestSeparation:
    """The closed form g(r) of the supremum distance between members n and
    m = r n."""

    @staticmethod
    def exact(r):
        with mpmath.workdps(50):
            r = mpmath.mpf(r)
            return (1 - 1 / r) * r ** (-1 / (r - 1))

    def test_special_values(self):
        assert separation(2.0) == 0.25
        assert separation(1.5) == 4 / 27

    def test_within_four_ulps_of_mpmath(self):
        # the report's ratio 5, ratios near 1 and one ratio of a worst-case
        # pair (43, 60), then a sweep over six decades
        ratios = [5.0, 1.0 + 2.0**-40, 1.0 + 1e-9, 60 / 43, 3.0, *np.geomspace(1.0001, 1e6, 300).tolist()]
        for r in ratios:
            exact = self.exact(r)
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(separation(r)) - exact) <= 4 * np.spacing(float(exact)), r

    def test_increases(self):
        g = [separation(r) for r in np.linspace(1.001, 50.0, 20_000).tolist()]
        assert np.all(np.diff(g) > 0.0)
        assert g[-1] < 1.0

    def test_rejects_a_ratio_of_one_or_less(self):
        for r in (1.0, 0.5, float("nan"), math.inf):
            with pytest.raises(OutOfRange):
                separation(r)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_certified_bracket_contains_it(self, n):
        enc = d_infty_parametric(make_un(n), make_un(5 * n), tol=1e-9)
        assert enc.width <= 1e-9
        assert enc.lower <= separation(5.0) <= enc.upper

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_dense_oracle_stays_below_it(self, n):
        assert pairwise_dinf_oracle(n, 5 * n, grid_size=200_001) <= separation(5.0)


class TestRefutationReport:
    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 1e-5, 0.5])
    def test_equi_entries_are_the_scalar_bounds(self, eps):
        section = refutation_report(10, eps)["equi_left_continuity"]
        for e in section["entries"]:
            a, delta = e["alpha"], e["delta"]
            above = _inner(a) > 0.0
            bound = uniform_modulus_bound(a, delta, a - delta) if above else 0.0
            oracle = family_modulus_oracle(a, a - delta) if above else 0.0
            assert (e["certified_bound"].hex(), e["oracle_modulus"].hex()) == (bound.hex(), oracle.hex())
            assert e["passed"] is (bound <= eps and e["finite_family_modulus"] <= eps and oracle <= eps)
        entries_pass = all(e["passed"] for e in section["entries"])
        assert section["passed"] is (entries_pass and section["right_at_zero_modulus"] == 0.0)

    def test_small_report_structure(self):
        report = refutation_report(2)
        assert set(report) == {
            "n_max",
            "eps",
            "scan_window",
            "tol",
            "support_bound",
            "equi_left_continuity",
            "level_convergence",
            "supremum_distance",
            "closedness",
            "conclusion",
        }
        assert len(report["supremum_distance"]["entries"]) == 2

    def test_midsize_report_verdicts(self):
        report = refutation_report(10)
        assert report["support_bound"]["radius"] == 1.0
        assert report["equi_left_continuity"]["passed"]
        assert report["level_convergence"]["converged"]
        assert report["supremum_distance"]["all_equal_one"]
        assert not report["supremum_distance"]["attained_anywhere"]
        assert report["closedness"]["evaluated"] is False
        closedness = report["closedness"]
        assert closedness["separation_when_m_at_least_5n"] == separation(5.0)
        assert closedness["separation_method"].startswith("analytic")
        assert [p["separation"] for p in closedness["pairwise_separation"]] == [separation(5.0)] * 5
        assert report["conclusion"]["criterion_refuted"] is True

    def test_convergence_table_matches_closed_form(self):
        report = refutation_report(5)
        rows = report["level_convergence"]["table_csv"].strip().splitlines()[1:]
        eps = report["eps"]
        for row in rows:
            alpha_s, first_s = row.split(",")
            alpha = float(alpha_s)
            inner = 1.5 * alpha - 0.5
            if inner <= 0.0:
                assert first_s == "1"
            else:
                expected = max(1, math.ceil(math.log(inner) / math.log1p(-eps)))
                assert int(first_s) == expected

    def test_requires_a_sequence(self):
        with pytest.raises(OutOfRange):
            refutation_report(1)

    def test_n_max_must_be_a_whole_number(self):
        with pytest.raises(BadIndex, match="^n_max must be a positive integer"):
            refutation_report(2.5)
        assert json.dumps(refutation_report(3.0)) == json.dumps(refutation_report(3))

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_moduli_equal_the_public_functions(self, n):
        fam = members(n)
        report = refutation_report(n)
        section = report["equi_left_continuity"]
        for entry in section["entries"]:
            expected = left_modulus(fam, entry["alpha"], entry["delta"])
            assert entry["finite_family_modulus"].hex() == expected.hex()
        assert section["right_at_zero_modulus"].hex() == right_modulus_at_zero(fam, 0.25).hex()
        assert report["support_bound"]["radius"].hex() == support_bound(fam).hex()


def scan_reference(n_max, eps):
    """The refutation report with its convergence section and conclusion
    rebuilt from the generic scan of ``SCAN_WINDOW`` members: the reference
    the closed-form table must equal."""
    report = refutation_report(n_max, eps)
    grid = default_report_grid([make_limit()])
    scan = level_convergence_report(member_sequence(), make_limit(), grid, eps, SCAN_WINDOW)
    report["level_convergence"] = {
        "eps": eps,
        "scan_window": SCAN_WINDOW,
        "converged": scan.converged,
        "failing_alphas": list(scan.failing_alphas),
        "table_csv": csv_table(("alpha", "first_index"), [(e.alpha, e.first_index) for e in scan.entries]),
    }
    conclusion = report["conclusion"]
    conclusion["level_convergent"] = scan.converged
    conclusion["criterion_refuted"] = bool(
        conclusion["support_bounded"]
        and conclusion["equi_left_continuous"]
        and scan.converged
        and report["supremum_distance"]["all_equal_one"]
    )
    return report


# levels of the default grid that member SCAN_WINDOW has not reached
NOT_REACHED = {1e-6: 65, 1e-5: 29, 1e-4: 2}
NEAR_ONE_THIRD = [ONE_THIRD, float(np.nextafter(ONE_THIRD, 0.0)), float(np.nextafter(ONE_THIRD, 1.0)), 1.0]


class TestConvergenceTable:
    """The report's first indices, from the closed form N(a) settled in the
    float kernel, against the generic scan."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 10])
    def test_report_equals_the_scan_reference(self, n, eps):
        report = refutation_report(n, eps)
        assert json.dumps(report) == json.dumps(scan_reference(n, eps))
        assert len(report["level_convergence"]["failing_alphas"]) == NOT_REACHED.get(eps, 0)

    def test_a_subnormal_eps_warns_nothing(self):
        # log1p(-eps) is about -1e-320, so ln t / log1p(-eps) overflows to
        # inf at most levels; the cap takes it to window + 1 in silence
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = refutation_report(10, eps=1e-320)
        assert json.dumps(report) == json.dumps(scan_reference(10, 1e-320))
        assert report["level_convergence"]["converged"] is False

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        levels=st.lists(st.floats(0.0, 1.0) | st.sampled_from(NEAR_ONE_THIRD), min_size=1, max_size=8),
        log_eps=st.floats(math.log(1e-8), math.log(2.0)),
        window=st.integers(1, 2000),
    )
    def test_first_index_equals_the_scan(self, levels, log_eps, window):
        eps = math.exp(log_eps)
        grid = np.union1d([0.0, 1.0], levels)
        scan = level_convergence_report(member_sequence(), make_limit(), grid, eps, window)
        guess = _closed_form_first_index(grid, eps, window)
        assert _settle_first_index(grid, eps, window, guess) == [e.first_index for e in scan.entries]

    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 0.1])
    @pytest.mark.parametrize("offset", [-3, -2, -1, 1, 2, 3])
    def test_stepping_from_a_wrong_guess_ends_at_the_scan(self, offset, eps):
        window = 2000
        grid = default_report_grid([make_limit()]).levels
        scan = level_convergence_report(member_sequence(), make_limit(), grid, eps, window)
        guess = np.clip(_closed_form_first_index(grid, eps, window) + offset, 1, window + 1)
        assert _settle_first_index(grid, eps, window, guess) == [e.first_index for e in scan.entries]

    def test_kernel_is_nonincreasing_in_the_index(self):
        levels = default_report_grid([make_limit()]).levels
        limit = make_limit().endpoints(levels)[1]
        previous = np.full(levels.size, np.inf)
        for start in range(1, SCAN_WINDOW + 1, 10_000):
            ns = np.arange(start, min(start + 10_000, SCAN_WINDOW + 1), dtype=float)
            h = _upper(levels, ns[:, None]) - limit
            assert np.all(h[0] <= previous) and np.all(np.diff(h, axis=0) <= 0.0)
            previous = h[-1]

    @pytest.mark.parametrize("eps", [DEFAULT_EPS, 1e-5])
    def test_report_runs_no_scan(self, monkeypatch, eps):
        def refuse(*args, **kwargs):
            raise AssertionError("the refutation report ran the level-convergence scan")

        monkeypatch.setattr(metrics_mod, "level_convergence_report", refuse)
        monkeypatch.setattr(counterexample_mod, "level_convergence_report", refuse, raising=False)
        assert refutation_report(100, eps)["level_convergence"]["converged"] is (eps == DEFAULT_EPS)

    def test_report_runs_one_search_for_all_members(self, monkeypatch):
        # one search of the sequence's rows 1..100 against the limit, with
        # no pair of member objects
        calls = []

        def counted(family, ns, *args, **kwargs):
            calls.append((family, np.array(ns).tolist()))
            return metrics_mod._d_infty_rows(family, ns, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the refutation report searched pairs of member objects")

        monkeypatch.setattr(counterexample_mod, "_d_infty_rows", counted)
        for name in ("d_infty_pairs", "d_infty_parametric"):
            monkeypatch.setattr(metrics_mod, name, refuse)
            monkeypatch.setattr(counterexample_mod, name, refuse, raising=False)
        report = refutation_report(100)
        assert calls == [(member_sequence(), list(range(1, 101)))]
        assert report["supremum_distance"]["all_equal_one"] is True

    def test_report_builds_at_most_one_member(self, monkeypatch):
        # the search reads the family's declaration from one member; the
        # moduli and the grid read the rows in batch
        built = []

        def counted(n):
            built.append(n)
            return make_un(n)

        expected = json.dumps(refutation_report(100))
        monkeypatch.setattr(counterexample_mod, "make_un", counted)
        assert json.dumps(refutation_report(100)) == expected
        assert len(built) <= 1


class TestLazyMembers:
    """``members(n)`` is a sequence of rows that builds a member only when
    indexed or iterated."""

    def test_sequence_protocol(self):
        fam = members(5)
        assert len(fam) == 5
        assert fam[0].key == make_un(1).key and fam[4].key == make_un(5).key
        assert fam[-1].key == make_un(5).key and fam[-5].key == make_un(1).key
        for bad in (5, -6, 10**30):
            with pytest.raises(IndexError):
                fam[bad]
        assert isinstance(fam[1:4], tuple) and [u.key for u in fam[1:4]] == [make_un(n).key for n in (2, 3, 4)]
        assert [u.key for u in fam[::-2]] == [make_un(n).key for n in (5, 3, 1)]
        assert fam[7:] == ()
        assert fam[np.int64(2)].key == make_un(3).key

    def test_iteration_gives_the_members(self):
        fam = members(300)
        assert [u.key for u in fam] == [make_un(k).key for k in range(1, 301)]
        assert [u.key for u in reversed(members(3))] == [make_un(k).key for k in (3, 2, 1)]
        assert all(u.family == (member_sequence(), k) for k, u in enumerate(fam, 1))

    @pytest.fixture
    def no_member(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"member {n} was built")

        monkeypatch.setattr(counterexample_mod, "make_un", refuse)

    def test_no_member_is_built_until_indexed(self, no_member):
        fam = members(10**12)
        assert len(fam) == 10**12 and fam.hint_levels == (ONE_THIRD,)
        _, hi = fam.endpoints(np.array([1, 10**12]), [0.5])
        assert hi.tolist() == _upper(np.array([0.5]), np.array([[1.0], [1e12]])).tolist()
        with pytest.raises(AssertionError, match="member 10 was built"):
            fam[9]

    def test_a_length_no_sequence_holds_is_refused(self, no_member):
        assert len(members(sys.maxsize)) == sys.maxsize
        with pytest.raises(BadIndex, match=f"^n_max must be at most {sys.maxsize}, the largest sequence length$"):
            members(sys.maxsize + 1)
