import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzymetrics import (
    DEFAULT_DELTA_GRID,
    AlphaGrid,
    CutCurve1D,
    DeclaredJump,
    EmptyFamily,
    OutOfRange,
    SampledFamily,
    compactness_conditions_report,
    default_report_grid,
    dgn_bound,
    equi_continuity_report,
    eventually_equi_left,
    left_modulus,
    level_convergence_report,
    make_sampled_1d,
    make_sampled_family,
    make_un,
    random_family,
    right_modulus_at_zero,
    support_bound,
    validate_representation,
)
from fuzzymetrics import core
from fuzzymetrics import family as family_module
from fuzzymetrics.cli import run
from fuzzymetrics.counterexample import members
from fuzzymetrics.serialize import decode_fuzzy, dumps, encode_fuzzy


def crisp(x):
    return make_sampled_1d([0, 1], [x, x], [x, x])


def triangular(lo, peak, hi):
    return make_sampled_1d([0, 1], [lo, peak], [hi, peak])


def unit_jump_member(n):
    """Cuts [0,1] at or below 1 - 1/n, then {0}: a unit jump per member."""
    threshold = 1.0 - 1.0 / n

    def upper(a, _t=threshold):
        a = np.asarray(a, dtype=float)
        return np.where(a <= _t, 1.0, 0.0)

    return CutCurve1D(
        lower_fn=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
        upper_fn=upper,
        jumps=(DeclaredJump(alpha=threshold, lower_right=0.0, upper_right=0.0),),
    )


def closed_form_modulus(alpha, beta, n_values):
    """Oracle: the family modulus of the counterexample members from the
    printed cut formula, scanned member by member."""
    ta, tb = 1.5 * alpha - 0.5, 1.5 * beta - 0.5
    return max(ta ** (1.0 / n) - tb ** (1.0 / n) for n in n_values)


class TestSupportBound:
    def test_crisp_zero(self):
        assert support_bound([crisp(0.0)]) == 0.0

    def test_counterexample_unit_radius(self):
        assert support_bound([make_un(n) for n in range(1, 30)]) == 1.0

    def test_magnitude_of_endpoints(self):
        assert support_bound([triangular(-3.0, 0.0, 2.0)]) == 3.0

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            support_bound([])


class TestEmptyFamily:
    @pytest.mark.parametrize(
        "check",
        [
            support_bound,
            lambda fam: left_modulus(fam, 0.5, 0.25),
            lambda fam: right_modulus_at_zero(fam, 0.25),
            equi_continuity_report,
            compactness_conditions_report,
            lambda fam: eventually_equi_left(fam, 0.5, 0.1),
        ],
    )
    @pytest.mark.parametrize("empty", [list, tuple, iter])
    def test_rejected_everywhere(self, check, empty):
        with pytest.raises(EmptyFamily):
            check(empty([]))

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_empty_window_rejected(self, n_max):
        # a window below one member is a bad argument, as in
        # level_convergence_report, not an empty family
        with pytest.raises(OutOfRange, match="^n_max must be at least 1$"):
            eventually_equi_left(members(3), 0.5, 0.1, n_max=n_max)


class TestBatchFamily:
    """A family carrying batch ``endpoints`` gives the same numbers as the
    member-by-member evaluation of the same members."""

    def test_moduli_and_support(self):
        batch = members(300)
        plain = list(batch)
        for fam in (batch, plain):
            assert support_bound(fam) == 1.0
        assert left_modulus(batch, 0.8, 0.05) == left_modulus(plain, 0.8, 0.05)
        assert right_modulus_at_zero(batch, 0.5) == right_modulus_at_zero(plain, 0.5)
        for n_max in (None, 257, 10):
            assert eventually_equi_left(batch, 0.8, 0.01, n_max=n_max) == eventually_equi_left(
                plain, 0.8, 0.01, n_max=n_max
            )

    def test_compactness_report_bytes(self):
        batch = members(40)
        deltas = [2.0 ** -k for k in range(1, 8)]
        texts = {
            dumps(compactness_conditions_report(fam, delta_grid=deltas).to_dict())
            for fam in (batch, list(batch))
        }
        assert len(texts) == 1


class TestLeftModulus:
    def test_decays_at_continuity_points(self):
        fam = random_family(seed=41, count=5)
        values = [left_modulus(fam, 0.7, 2.0 ** -k) for k in range(2, 16)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-3

    def test_counterexample_family_value(self):
        fam = [make_un(n) for n in range(1, 101)]
        got = left_modulus(fam, 0.8, 0.05)
        oracle = closed_form_modulus(0.8, 0.75, range(1, 10_001))
        assert got == pytest.approx(0.075, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_dominated_by_quotient_bounds(self):
        fam = [make_un(n) for n in range(1, 101)]
        got = left_modulus(fam, 0.8, 0.05)
        assert got <= dgn_bound(0.8, 0.05, 0.75)  # = 0.05 / 0.625 = 0.08
        assert got <= dgn_bound(0.8, 0.1, 0.75)  # = 0.05 / 0.55 ~ 0.0909

    def test_monotone_in_delta(self):
        fam = [make_un(n) for n in range(1, 40)]
        deltas = [2.0 ** -k for k in range(2, 12)]
        vals = [left_modulus(fam, 0.9, d) for d in deltas]
        assert vals == sorted(vals, reverse=True)

    def test_monotone_under_family_union(self):
        small = [make_un(n) for n in range(1, 5)]
        big = small + [make_un(n) for n in range(5, 30)]
        assert left_modulus(small, 0.6, 0.1) <= left_modulus(big, 0.6, 0.1)
        assert support_bound(small) <= support_bound(big)

    def test_range_checks(self):
        fam = [crisp(0.0)]
        with pytest.raises(OutOfRange):
            left_modulus(fam, 0.0, 0.1)
        with pytest.raises(OutOfRange):
            left_modulus(fam, 0.5, 0.6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25, 0.0])
    def test_offsets_must_be_finite_and_positive(self, bad):
        fam = [make_un(n) for n in range(1, 5)]
        with pytest.raises(OutOfRange, match="finite positive offsets"):
            equi_continuity_report(fam, delta_grid=[0.5, bad])
        with pytest.raises(OutOfRange, match="finite positive offsets"):
            eventually_equi_left(fam, 0.8, 0.1, delta_grid=[0.5, bad])


class TestRightModulusAtZero:
    def test_counterexample_flat_near_zero(self):
        fam = [make_un(n) for n in range(1, 50)]
        assert right_modulus_at_zero(fam, 0.25) == 0.0

    def test_crisp(self):
        assert right_modulus_at_zero([crisp(1.0)], 0.5) == 0.0

    def test_designed_jump_at_zero(self):
        def upper(a):
            a = np.asarray(a, dtype=float)
            return np.where(a > 0.0, 0.0, 1.0)

        v = CutCurve1D(
            lower_fn=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
            upper_fn=upper,
            jumps=(DeclaredJump(alpha=0.0, lower_right=0.0, upper_right=0.0),),
        )
        for d in (0.9, 0.5, 1e-4):
            assert right_modulus_at_zero([v], d) == 1.0


class TestEquiContinuityReport:
    def test_single_continuous_member_passes(self):
        report = equi_continuity_report(random_family(seed=1, count=1), eps=1e-2)
        assert report.passed
        assert all(e.witness_delta is not None for e in report.entries)

    def test_counterexample_family_witnesses(self):
        fam = [make_un(n) for n in range(1, 101)]
        report = equi_continuity_report(fam, alpha_grid=[0.8], eps=0.1)
        entry = report.entries[0]
        assert entry.witness_delta is not None
        assert entry.modulus <= 0.1
        # every tested offset at or below 0.05 also works
        for d in (0.05, 0.03125, 2.0 ** -10):
            assert left_modulus(fam, 0.8, d) <= 0.1

    def test_jump_family_has_no_witness_at_the_top(self):
        fam = [unit_jump_member(n) for n in range(2, 5001)]
        report = equi_continuity_report(
            fam,
            alpha_grid=[1.0],
            delta_grid=[2.0 ** -k for k in range(2, 13)],
            eps=0.5,
        )
        assert not report.passed
        assert report.entries[0].witness_delta is None
        assert report.entries[0].modulus == 1.0

    def test_right_at_zero_entry(self):
        report = equi_continuity_report([make_un(3)], alpha_grid=[0.5], eps=1e-3)
        assert report.right_at_zero.witness_delta == 0.25


class TestEventuallyEquiLeft:
    def test_constant_sequence_first_index_finest_offset(self):
        seq = [crisp(0.3)] * 12
        assert eventually_equi_left(seq, 0.5, 1e-6) == (1, 2.0 ** -20)

    def test_counterexample_found_with_certificate(self):
        seq = [make_un(n) for n in range(1, 201)]
        found = eventually_equi_left(seq, 0.8, 0.01)
        assert found is not None
        k0, delta = found
        worst = closed_form_modulus(0.8, 0.8 - delta, range(k0, 201))
        assert worst < 0.01

    def test_jump_sequence_not_found(self):
        seq = [unit_jump_member(n) for n in range(2, 5001)]
        found = eventually_equi_left(
            seq, 1.0, 0.5, delta_grid=[2.0 ** -k for k in range(2, 13)]
        )
        assert found is None

    def test_uniform_witness_implies_eventual_from_the_start(self):
        # an equi-continuity witness for the whole family works eventually
        # with first index 1 and the very same offset
        fam = [make_un(n) for n in range(1, 101)]
        report = equi_continuity_report(fam, alpha_grid=[0.8], eps=0.1)
        delta = report.entries[0].witness_delta
        assert delta is not None
        assert eventually_equi_left(fam, 0.8, 0.1, delta_grid=[delta]) == (1, delta)

    def test_modulus_equal_to_eps_is_a_witness_in_both_searches(self):
        # the cut moves from [0.25, 1] at level 1 to [0.125, 1] at level 0.5
        fam = [make_sampled_1d([0, 1], [0, 0.25], [1, 1])]
        report = equi_continuity_report(fam, alpha_grid=[1.0], delta_grid=[0.5], eps=0.125)
        assert report.entries[0].modulus == 0.125
        assert report.entries[0].witness_delta == 0.5
        assert eventually_equi_left(fam, 1.0, 0.125, delta_grid=[0.5]) == (1, 0.5)


class TestCompactnessReport:
    def test_counterexample_family_all_checkable_pass(self):
        fam = [make_un(n) for n in range(1, 101)]
        diag = compactness_conditions_report(fam)
        assert diag.passed
        assert diag.support_radius == 1.0
        v = diag.condition_verdicts
        assert v["level_topology_criterion"]["closed"].startswith("not evaluated")
        assert v["level_topology_criterion"]["equi_continuity"]["left"]["passed"]
        assert v["level_topology_criterion"]["equi_continuity"]["right_at_zero"]["passed"]

    def test_jump_family_fails_at_top_level(self):
        fam = [unit_jump_member(n) for n in range(2, 65)]
        diag = compactness_conditions_report(fam, delta_grid=[2.0 ** -k for k in range(2, 7)])
        assert not diag.passed
        left = diag.condition_verdicts["supremum_metric_criterion"]["equi_left_continuity"]
        failing = [e for e in left["per_alpha"] if e["witness_delta"] is None]
        assert any(e["alpha"] == 1.0 for e in failing)

    def test_singleton_family_passes(self):
        diag = compactness_conditions_report([crisp(0.25)])
        assert diag.passed

    def test_shared_subverdicts_identity_and_bytes(self):
        for seed in (0, 1, 2):
            diag = compactness_conditions_report(random_family(seed=seed, count=4))
            v = diag.condition_verdicts
            lt, sm = v["level_topology_criterion"], v["supremum_metric_criterion"]
            assert lt["support_bounded"] is sm["support_bounded"]
            assert lt["equi_continuity"]["left"] is sm["equi_left_continuity"]
            assert dumps(lt["support_bounded"]) == dumps(sm["support_bounded"])
            assert dumps(lt["equi_continuity"]["left"]) == dumps(sm["equi_left_continuity"])

    def test_right_moduli_match_the_public_function(self):
        fam = random_family(seed=5, count=30)
        deltas = [2.0, 1.0] + [2.0 ** -k for k in range(1, 9)]
        diag = compactness_conditions_report(fam, delta_grid=deltas)
        assert sorted(diag.right_modulus_at_zero) == sorted(d for d in deltas if d <= 1.0)
        for d, value in diag.right_modulus_at_zero.items():
            assert value == right_modulus_at_zero(fam, d)
        for a, row in diag.left_moduli.items():
            for d, value in row.items():
                assert value == left_modulus(fam, a, d)

    def test_moduli_tables_shape(self):
        diag = compactness_conditions_report(random_family(seed=9, count=3))
        assert len(diag.left_moduli) == 100
        some_alpha = sorted(diag.left_moduli)[50]
        assert all(v >= 0 for v in diag.left_moduli[some_alpha].values())
        assert 0.25 in diag.right_modulus_at_zero

    def test_reads_the_public_equi_report_once(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return equi_continuity_report(*args, **kwargs)

        monkeypatch.setattr(family_module, "equi_continuity_report", spy)
        for fam in (random_family(seed=9, count=3), [make_un(2), make_un(5)]):
            calls.clear()
            compactness_conditions_report(fam, alpha_grid=[0.5, 1.0])
            assert len(calls) == 1

    def test_report_keeps_its_moduli_out_of_bytes_and_equality(self):
        fam = random_family(seed=9, count=3)
        report = equi_continuity_report(fam, alpha_grid=[0.5, 1.0], delta_grid=[0.5, 0.25])
        assert report.moduli.shape == (2, 2) and report.zero_moduli.shape == (2,)
        assert set(report.to_dict()) == {"eps", "delta_grid", "passed", "left_passed", "entries", "right_at_zero"}
        other = dataclasses.replace(report, moduli=report.moduli + 1.0, zero_moduli=None)
        assert other == report


class TestPathFamily:
    """Families sampled along a parametrized path at uniform parameters: a
    path continuous into the level topology gives a family whose
    equi-continuity report passes."""

    def test_constant_path(self):
        fam = [crisp(0.7) for _ in np.linspace(0.0, 1.0, 10)]
        assert len(fam) == 10
        assert equi_continuity_report(fam, eps=1e-6).passed

    def test_moving_peak_triangulars(self):
        fam = [triangular(0.0, float(t), 1.0) for t in np.linspace(0.2, 0.8, 50)]
        report = equi_continuity_report(fam, eps=1e-3)
        assert report.passed

    def test_discontinuous_into_supremum_metric_still_passes_levelwise(self):
        # the path t -> member ceil(1/t) is not continuous into the supremum
        # metric, but any finite sample is a family of continuous members, so
        # the levelwise certificate passes; kept as a demonstration
        fam = [make_un(int(np.ceil(1.0 / t))) for t in np.linspace(0.05, 1.0, 50)]
        assert equi_continuity_report(fam, eps=0.25).passed


class TestRandomFamily:
    def test_deterministic_in_seed(self):
        a = random_family(seed=77, count=5)
        b = random_family(seed=77, count=5)
        assert all(
            np.array_equal(x.lower, y.lower) and np.array_equal(x.upper, y.upper)
            for x, y in zip(a, b)
        )

    def test_members_are_valid(self):
        for u in random_family(seed=13, count=25):
            assert validate_representation(u).passed

    def test_jump_injection_fails_equi_continuity_at_level(self):
        fam = random_family(seed=5, count=100, jump_at=0.6, jump_size=0.4)
        for u in fam:
            assert validate_representation(u).passed
        report = equi_continuity_report(fam, alpha_grid=[0.3, 0.6, 0.9], eps=0.2)
        by_alpha = {e.alpha: e for e in report.entries}
        assert by_alpha[0.6].witness_delta is None
        assert by_alpha[0.6].modulus >= 0.4
        assert by_alpha[0.3].witness_delta is not None
        assert by_alpha[0.9].witness_delta is not None

    @pytest.mark.parametrize("jump_at", [1e-6, 5e-7, 1e-12, 0.0, 1.0])
    def test_jump_inside_the_squeeze_width_rejected(self, jump_at):
        # the squeezed gap below the jump would start at or below level 0
        with pytest.raises(OutOfRange, match=r"inside \(1e-06, 1\).*squeeze width 1e-06$"):
            random_family(seed=3, count=4, jump_at=jump_at)

    def test_jump_just_above_the_squeeze_width(self):
        fam = random_family(seed=3, count=4, jump_at=2e-6)
        assert fam.grid.levels[:3].tolist() == [0.0, 2e-6 - 1e-6, 2e-6]
        for u in fam:
            assert validate_representation(u).passed


class CountingFamily(list):
    """Members with no batch ``endpoints``, each recording the size of every
    levels vector it is asked for in ``levels``."""

    def __init__(self, items):
        super().__init__(CountingMember(u, self) for u in items)
        self.levels = []


class CountingMember:
    def __init__(self, member, family):
        self.member, self.family = member, family
        self.hint_levels = member.hint_levels

    def endpoints(self, alphas):
        self.family.levels.append(np.size(alphas))
        return self.member.endpoints(alphas)


class TestRepeatedOffsets:
    """An offset given twice is tested once: the same report as given once."""

    def test_reports(self):
        fam = random_family(seed=8, count=30, jump_at=0.6)
        once, twice = [0.25], [0.25, 0.5, 0.25]
        assert equi_continuity_report(fam, delta_grid=twice).delta_grid == (0.5, 0.25)
        assert dumps(equi_continuity_report(fam, delta_grid=twice).to_dict()) == dumps(
            equi_continuity_report(fam, delta_grid=[0.5, 0.25]).to_dict()
        )
        assert dumps(compactness_conditions_report(fam, delta_grid=once * 2).to_dict()) == dumps(
            compactness_conditions_report(fam, delta_grid=once).to_dict()
        )
        assert eventually_equi_left(fam, 0.7, 0.5, delta_grid=once * 2) == eventually_equi_left(
            fam, 0.7, 0.5, delta_grid=once
        )

    def test_lattice_holds_the_offset_once(self):
        family = CountingFamily(random_family(seed=8, count=5))
        compactness_conditions_report(family, alpha_grid=[0.5, 1.0], delta_grid=[0.25, 0.25])
        # each member once, at the three rows (level 0 among them, for the
        # support bound too) and one lattice level per row
        assert family.levels == [6] * 5

    def test_cli_diagnostics(self, capsys):
        bodies = []
        for grid in ("0.25,0.25", "0.25"):
            assert run(["family-report", "tests/golden/family.json", "--delta-grid", grid]) == 0
            bodies.append(json.loads(capsys.readouterr().out)["diagnostics"])
        assert bodies[0] == bodies[1]


COLUMNAR_FAMILIES = {
    "random": lambda: random_family(seed=21, count=300),
    "jump": lambda: random_family(seed=22, count=300, jump_at=0.6, jump_size=0.4),
}


@pytest.fixture(params=sorted(COLUMNAR_FAMILIES))
def columnar(request):
    fam = COLUMNAR_FAMILIES[request.param]()
    assert isinstance(fam, SampledFamily)
    return fam


class TestColumnarEqualsList:
    """Every report reads the same from the columnar family as from the list
    of its members, which is evaluated member by member."""

    def test_compactness_report(self, columnar):
        grid = [0.3, 0.6 - 1e-6, 0.6, 0.75, 1.0]
        for kwargs in ({}, {"alpha_grid": grid, "eps": 0.2}):
            a = compactness_conditions_report(columnar, **kwargs)
            b = compactness_conditions_report(list(columnar), **kwargs)
            assert dumps(a.to_dict()) == dumps(b.to_dict())

    def test_moduli_with_more_pairs_than_levels(self, columnar):
        # alpha - delta lands on a grid level, so about 5,000 pairs share
        # about 200 distinct levels; the 102 x 100 lattice holds 10,302
        # levels, read 6 members a block in seven 16-row passes
        diag = compactness_conditions_report(
            columnar, alpha_grid=np.linspace(0.0, 1.0, 101), delta_grid=[j / 100 for j in range(1, 101)]
        )
        pairs = [(a, d) for a, row in diag.left_moduli.items() for d in row]
        assert len(pairs) > 5000
        alphas = np.array([a for a, _ in pairs])
        betas = alphas - np.array([d for _, d in pairs])
        worst = np.zeros(len(pairs))
        for u in columnar:
            lo_a, hi_a = u.endpoints(alphas)
            lo_b, hi_b = u.endpoints(betas)
            worst = np.maximum(worst, np.maximum(np.abs(lo_a - lo_b), np.abs(hi_a - hi_b)))
        assert [diag.left_moduli[a][d] for a, d in pairs] == worst.tolist()

    def test_level_convergence_report(self, columnar):
        limit = columnar[-1]
        grid = default_report_grid([limit])
        for n_max in (len(columnar), 40):
            a = level_convergence_report(columnar, limit, grid, eps=0.3, n_max=n_max)
            b = level_convergence_report(list(columnar), limit, grid, eps=0.3, n_max=n_max)
            assert dumps(a.to_dict()) == dumps(b.to_dict())

    @pytest.mark.parametrize("alpha, eps", [(0.6, 0.2), (0.9, 0.05), (1.0, 1e-3)])
    def test_eventually_equi_left(self, columnar, alpha, eps):
        assert eventually_equi_left(columnar, alpha, eps) == eventually_equi_left(list(columnar), alpha, eps)

    def test_profile_rows(self, columnar, tmp_path, monkeypatch, capsys):
        family = tmp_path / "family.json"
        family.write_text(dumps([encode_fuzzy(u) for u in columnar]))
        limit = tmp_path / "limit.json"
        limit.write_text(dumps(encode_fuzzy(columnar[0])))
        argv = ["profile", str(family), str(limit), "--grid", "23", "--n-max", str(len(columnar))]
        assert run(argv) == 0
        columnar_rows = capsys.readouterr().out
        monkeypatch.setattr("fuzzymetrics.cli.decode_family", lambda doc: [decode_fuzzy(d) for d in doc])
        assert run(argv) == 0
        assert capsys.readouterr().out == columnar_rows
        assert len(columnar_rows.splitlines()) == 1 + 23 * len(columnar)


def lattice_family(kind, count):
    if kind == "sampled":
        return random_family(seed=51, count=count, jump_at=0.6)
    if kind == "members":
        return members(count)
    return [make_un(n) for n in range(1, count + 1)]


def reference_moduli(family, alphas, deltas):
    """The worst member's move per tested (alpha, delta) pair, with delta <=
    alpha, and per delta <= 1 at level 0: pair by pair, as Python floats,
    from each member's own ``endpoints``."""
    left = [(a, d) for a in alphas for d in deltas if d <= a]
    right = [(0.0, d) for d in deltas if d <= 1.0]
    pairs = left + [(d, d) for _, d in right]  # level 0 is d - d
    worst = [0.0] * len(pairs)
    for u in family:
        lo_a, hi_a = (x.tolist() for x in u.endpoints(np.array([a for a, _ in pairs])))
        lo_b, hi_b = (x.tolist() for x in u.endpoints(np.array([a - d for a, d in pairs])))
        for i in range(len(pairs)):
            worst[i] = max(worst[i], abs(lo_a[i] - lo_b[i]), abs(hi_a[i] - hi_b[i]))
    moduli = {a: {} for a in alphas}
    for (a, d), m in zip(left, worst):
        moduli[a][d] = m.hex()
    return moduli, {d: m.hex() for (_, d), m in zip(right, worst[len(left) :])}


class TestLatticeKernel:
    """The lattice moduli equal a per-member, per-pair reference bit for bit
    on both sides of a 32-member block edge and across 16-row passes."""

    @pytest.mark.parametrize("delta_grid", [None, (1.5, 0.5, 0.3, 2.0**-10)])
    @pytest.mark.parametrize("count", [31, 32, 33, 65])
    @pytest.mark.parametrize("kind", ["sampled", "list", "members"])
    def test_moduli_equal_reference(self, kind, count, delta_grid):
        family = lattice_family(kind, count)
        diag = compactness_conditions_report(family, delta_grid=delta_grid)
        alphas = [a for a in default_report_grid([family]).levels.tolist() if a > 0.0]
        deltas = sorted(DEFAULT_DELTA_GRID if delta_grid is None else delta_grid, reverse=True)
        left, right = reference_moduli(family, alphas, deltas)
        assert len(alphas) > 16 * 6
        assert {a: {d: m.hex() for d, m in row.items()} for a, row in diag.left_moduli.items()} == left
        assert {d: m.hex() for d, m in diag.right_modulus_at_zero.items()} == right
        a, d = alphas[40], deltas[-1]
        assert left_modulus(family, a, d).hex() == left[a][d]
        assert right_modulus_at_zero(family, d).hex() == right[d]


class TestDefaultGrid:
    """Without a level grid the library reads the CLI's default grid."""

    @pytest.mark.parametrize("kind", ["sampled", "list", "members"])
    def test_default_is_the_report_grid(self, kind):
        family = lattice_family(kind, 12)
        grid = default_report_grid([family]).levels
        assert dumps(compactness_conditions_report(family).to_dict()) == dumps(
            compactness_conditions_report(family, alpha_grid=grid).to_dict()
        )
        assert dumps(equi_continuity_report(family).to_dict()) == dumps(
            equi_continuity_report(family, alpha_grid=grid).to_dict()
        )
        alphas = [e.alpha for e in equi_continuity_report(family).entries]
        assert alphas == [a for a in grid.tolist() if a > 0.0]
        assert len(alphas) == (100 if kind == "sampled" else 111)


class StoredViewFamily(list):
    """Members whose batch ``endpoints`` returns writeable views of rows it
    stores, for any levels vector: each vector's rows are evaluated on its
    first request and kept."""

    def __init__(self, items):
        super().__init__(items)
        self.stored = {}

    def rows(self, alphas):
        lower = np.array([u.endpoints(alphas)[0] for u in self])
        upper = np.array([u.endpoints(alphas)[1] for u in self])
        return lower, upper

    def endpoints(self, ns, alphas):
        key = np.asarray(alphas, dtype=float).tobytes()
        if key not in self.stored:
            self.stored[key] = (np.asarray(alphas, dtype=float).copy(), *self.rows(alphas))
        _, lower, upper = self.stored[key]
        rows = slice(ns[0] - 1, ns[-1])
        return lower[rows], upper[rows]


class TestStoredRowsAreNotWritten:
    def test_moduli_leave_stored_rows_unchanged(self):
        family = StoredViewFamily(random_family(seed=52, count=70, jump_at=0.6))
        plain = list(family)
        assert dumps(compactness_conditions_report(family).to_dict()) == dumps(
            compactness_conditions_report(plain).to_dict()
        )
        assert left_modulus(family, 0.6, 0.25) == left_modulus(plain, 0.6, 0.25)
        assert right_modulus_at_zero(family, 0.5) == right_modulus_at_zero(plain, 0.5)
        assert eventually_equi_left(family, 0.7, 0.05) == eventually_equi_left(plain, 0.7, 0.05)
        # one levels vector per 16-row part of the report's 101 lattice rows
        # (seven; the support bound reads the level-0 row), then one per call
        assert len(family.stored) == 10
        for alphas, lower, upper in family.stored.values():
            assert lower.flags.writeable and upper.flags.writeable
            fresh_lower, fresh_upper = family.rows(alphas)
            assert np.array_equal(lower, fresh_lower) and np.array_equal(upper, fresh_upper)


class TestPerMemberFamily:
    """A family without a batch ``endpoints`` is read in one lattice part,
    so each member's ``endpoints`` is called once for the moduli."""

    def test_one_endpoints_call_per_member(self):
        family = CountingFamily(make_un(n) for n in range(1, 41))
        compactness_conditions_report(family)
        rows = 1 + len([a for a in default_report_grid([family]).levels if a > 0.0])
        assert rows > 16
        # each member once, at the rows (level 0 among them, for the support
        # bound too) and the rows x 19 lattice
        assert family.levels == [rows * 20] * 40

    @pytest.mark.parametrize(
        "family",
        [
            random_family(seed=7, count=300),
            list(random_family(seed=8, count=5)),
            members(40),
            [make_un(n) for n in range(1, 6)],
        ],
    )
    def test_support_radius_is_the_support_bound(self, family):
        assert compactness_conditions_report(family).support_radius == support_bound(family)


class BlockRecordingFamily(list):
    """The members of a ``SampledFamily`` with its batch ``endpoints``,
    recording ``(members, levels)`` of every block in ``blocks``."""

    def __init__(self, family):
        super().__init__(family)
        self.family = family
        self.blocks = []

    def endpoints(self, ns, alphas):
        self.blocks.append((len(ns), np.size(alphas)))
        return self.family.endpoints(ns, alphas)


def part_reference(family, alphas, deltas):
    """``family._moduli`` from each member's own ``endpoints`` at the row
    levels and at the lattice levels, one member at a time."""
    valid = np.vstack([deltas <= alphas[:, None], deltas <= 1.0])
    rows = np.append(alphas, 0.0)
    lattice = np.where(valid, np.vstack([alphas[:, None] - deltas, deltas]), rows[:, None])
    worst = np.zeros(lattice.shape)
    for u in family:
        lo_r, hi_r = u.endpoints(rows)
        lo_l, hi_l = u.endpoints(lattice.ravel())
        lower = np.abs(lo_l - np.repeat(lo_r, deltas.size))
        moves = np.maximum(lower, np.abs(hi_l - np.repeat(hi_r, deltas.size)))
        worst = np.maximum(worst, moves.reshape(lattice.shape))
    worst[~valid] = np.nan
    return worst[:-1], worst[-1]


class TestLatticeParts:
    """A batch family's lattice is read in parts of 16 rows with member
    blocks of about 200; the moduli equal a member-by-member reference bit
    for bit for counts that fill no block exactly."""

    @pytest.mark.parametrize("count", [1, 203, 2000])
    @pytest.mark.parametrize("jump_at", [None, 0.6])
    def test_moduli_equal_member_reference(self, count, jump_at):
        family = random_family(seed=count, count=count, jump_at=jump_at)
        alphas = np.unique(np.concatenate([np.linspace(0.0, 1.0, 101)[1:], family.grid.levels[1:]]))
        # offsets above some alphas (NaN cells) and above 1 (NaN in row 0)
        deltas = np.array([1.5, 1.0, 0.3, 0.05, 1e-6, 2.0**-20])
        assert (alphas.size + 1) % 16 != 0
        table, zero, radius = family_module._moduli(family, alphas, deltas)
        ref_table, ref_zero = part_reference(family, alphas, deltas)
        assert radius == support_bound(family)
        assert np.isnan(table).any() and np.isnan(zero).any()
        assert table.tobytes() == ref_table.tobytes()
        assert zero.tobytes() == ref_zero.tobytes()

    def test_blocks_are_wide(self):
        family = BlockRecordingFamily(random_family(seed=4, count=500))
        compactness_conditions_report(family)
        # six parts of 16 of the 101 rows (320 levels) in blocks of 204, and
        # the last 5 rows (100 levels) in blocks of 256; the support bound
        # reads the level-0 row
        assert family.blocks == [(204, 320), (204, 320), (92, 320)] * 6 + [(256, 100), (244, 100)]


@st.composite
def screened_cases(draw):
    """The grid and samples of a sampled family, with rows and a lattice as
    ``family._moduli`` builds them: rows at grid nodes, at floats beside
    them, at 0 and 1 and at random levels; offsets from 1e-12 up to above 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.one_of(st.integers(1, core._SCREEN_TOP + 1), st.integers(core._SCREEN_TOP + 2, 300)))
    if draw(st.booleans()):
        family = random_family(
            int(rng.integers(2**32)),
            count,
            levels=draw(st.integers(2, 28)),
            jump_at=draw(st.floats(0.01, 0.99)),
            jump_size=draw(st.sampled_from([1e-9, 0.5, 4.0])),
        )
    else:
        inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=28))
        levels = np.unique(np.concatenate([[0.0, 1.0], inner]))
        scale = draw(st.sampled_from([1e-6, 1.0, 1e4]))
        shift = draw(st.sampled_from([0.0, 3.0, -1e8]))
        lower = shift + np.cumsum(rng.uniform(0.0, scale, (count, levels.size)), axis=1)
        upper = lower[:, -1:] + np.cumsum(rng.uniform(0.0, scale, (count, levels.size))[:, ::-1], axis=1)[:, ::-1]
        # copies of the first member, shifted (slopes that tie, or nearly,
        # with moves that round apart), then constant members
        copies = draw(st.integers(0, count))
        shifts = rng.uniform(0.0, draw(st.sampled_from([0.0, 1.0, 1e6])), (copies, 1))
        lower[:copies], upper[:copies] = lower[0] + shifts, upper[0] + shifts
        crisp = count - draw(st.integers(0, count))
        lower[crisp:] = upper[crisp:] = lower[crisp:, -1:]
        family = SampledFamily(AlphaGrid(levels), lower, upper)
    nodes = family.grid.levels
    alphas = np.concatenate(
        [
            rng.choice(nodes, size=min(nodes.size, draw(st.integers(0, 30)))),
            [1.0],
            np.nextafter(nodes, -np.inf),
            np.nextafter(nodes, np.inf),
            rng.uniform(0.0, 1.0, draw(st.integers(0, 40))),
        ]
    )
    alphas = np.unique(alphas[(alphas > 0.0) & (alphas <= 1.0)])
    offsets = st.one_of(st.floats(1e-12, 2.0), st.floats(1e-12, 1e-2))
    deltas = np.unique(draw(st.lists(offsets, min_size=1, max_size=12)))
    valid = np.vstack([deltas <= alphas[:, None], deltas <= 1.0])
    rows = np.append(alphas, 0.0)
    lattice = np.where(valid, np.vstack([alphas[:, None] - deltas, deltas]), rows[:, None])
    return family.grid, family.lower, family.upper, rows, lattice


class TestLatticeScreen:
    """A ``SampledFamily`` settles most lattice cells from each segment's
    steepest members; the rest is read densely, so the moduli and the reach
    equal the per-member ``np.interp`` read of the list bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(screened_cases())
    def test_screened_equals_per_member(self, case):
        grid, lower, upper, rows, lattice = case
        try:
            family = make_sampled_family(grid, lower, upper)
        except OutOfRange:
            # a grid gap too narrow for its samples is refused, never read
            with np.errstate(over="ignore"):
                slopes = np.diff(np.vstack([lower, upper]), axis=1) / np.diff(grid.levels)
            assert not np.isfinite(slopes).all()
            return
        dense_worst, dense_reach = core._worst_moves(list(family), rows, lattice, reach=True)
        read = [core._worst_moves(family, rows, lattice, reach=True)]
        # and screened even where the screen would not pay
        with mock.patch.object(core, "_SCREEN_SHARE", math.inf):
            read.append(core._worst_moves(family, rows, lattice, reach=True))
        for worst, reach in read:
            assert worst.tobytes() == dense_worst.tobytes()
            assert reach.tobytes() == dense_reach.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shifted_copies_whose_moves_round_apart(self, seed):
        # copies of one member, shifted: their slopes tie or differ in the
        # last bit and their computed moves round apart, so a bound without
        # its rounding terms, or taken at the slope 0 of the constant
        # members, settles cells an ulp below the dense value
        rng = np.random.default_rng(seed)
        lower = np.cumsum(rng.uniform(0.0, 1.0, 3))
        upper = lower[-1] + np.cumsum(rng.uniform(0.0, 1.0, 3))[::-1]
        shifts = rng.uniform(0.0, 1.0, (40, 1))
        crisp = np.repeat(rng.uniform(0.0, 3.0, (20, 1)), 3, axis=1)
        lower, upper = np.vstack([lower + shifts, crisp]), np.vstack([upper + shifts, crisp])
        family = make_sampled_family([0.0, 0.5, 1.0], lower, upper)
        rows = rng.uniform(0.0, 1.0, 200)
        lattice = np.clip(rows[:, None] - np.array([0.3, 0.1, 1e-3, 1e-6]), 0.0, 1.0)
        with mock.patch.object(core, "_SCREEN_SHARE", math.inf):
            worst = core._worst_moves(family, rows, lattice)
        assert worst.tobytes() == core._worst_moves(list(family), rows, lattice).tobytes()

    def test_unchecked_samples_keep_the_dense_values(self):
        # direct construction checks nothing: a NaN sample makes every
        # endpoint of its segment NaN, so even a row's move to its own level
        # is NaN, as the dense read gives it
        lower = np.tile([0.0, 1.0, 2.0], (6, 1))
        upper = np.tile([5.0, np.nan, 3.0], (6, 1))
        family = SampledFamily(AlphaGrid([0.0, 0.5, 1.0]), lower, upper)
        rows = np.array([0.25, 0.75, 0.0])
        lattice = np.array([[0.25, 0.2], [0.75, 0.7], [0.0, 0.1]])
        with mock.patch.object(core, "_SCREEN_SHARE", math.inf):
            worst, reach = core._worst_moves(family, rows, lattice, reach=True)
        dense_worst, dense_reach = core._worst_moves(list(family), rows, lattice, reach=True)
        assert np.isnan(worst[:2]).all()
        assert worst.tobytes() == dense_worst.tobytes()
        assert reach.tobytes() == dense_reach.tobytes()

    def test_dense_read_is_a_small_part(self, monkeypatch):
        family = random_family(seed=2501, count=2000)
        read = []
        endpoints = SampledFamily.endpoints

        def counting(self, ns, alphas):
            read.append(np.array(alphas, dtype=float))
            return endpoints(self, ns, alphas)

        monkeypatch.setattr(SampledFamily, "endpoints", counting)
        diag = compactness_conditions_report(family)
        alphas = np.array(sorted(diag.left_moduli))
        deltas = np.array(sorted(DEFAULT_DELTA_GRID))
        valid = np.vstack([deltas <= alphas[:, None], deltas <= 1.0])
        rows = np.append(alphas, 0.0)
        lattice = np.vstack([alphas[:, None] - deltas, deltas])
        # every member is read at the levels of the open cells with their
        # rows, which give the reach too; a dense read would take every one
        # of the 101 x 19 cells
        dense = np.concatenate(read)
        assert np.isin(rows, dense).all()
        cells = np.count_nonzero(np.isin(lattice, dense) & valid)
        assert 0 < cells < valid.size / 4

    def test_a_family_sampled_at_every_row_is_read_whole(self, monkeypatch):
        # every report row is a grid node, so only cells at their row's own
        # level could be settled: the lattice is read as a list's is, in the
        # same blocks
        family = random_family(seed=4, count=500, levels=101)
        listed = BlockRecordingFamily(family)
        compactness_conditions_report(listed)
        blocks = []
        endpoints = SampledFamily.endpoints

        def recording(self, ns, alphas):
            blocks.append((len(ns), np.size(alphas)))
            return endpoints(self, ns, alphas)

        monkeypatch.setattr(SampledFamily, "endpoints", recording)
        screened = compactness_conditions_report(family)
        assert blocks == listed.blocks
        assert dumps(screened.to_dict()) == dumps(compactness_conditions_report(list(family)).to_dict())
