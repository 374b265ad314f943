import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fuzzymetrics
from fuzzymetrics.cli import _kind, run
from fuzzymetrics.counterexample import member_sequence, members
from fuzzymetrics.serialize import decode_family, decode_fuzzy
from fuzzymetrics import CutCurve1D, SampledFamily, d_infty_parametric, make_sampled_1d, make_un, random_family

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps(
            {
                "type": "sampled1d",
                "alphas": [0, 0.5, 1],
                "lower": [0, 0.25, 0.5],
                "upper": [1, 0.75, 0.5],
            }
        )
    )
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "type": "sampled1d",
                "alphas": [0, 0.5, 1],
                "lower": [0, 0.6, 0.5],
                "upper": [1, 1, 1],
            }
        )
    )
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps([{"type": "counterexample-un", "n": n} for n in range(1, 6)]))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidateVerb:
    def test_valid_input(self, tri_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["validate", tri_file, "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["validation"]["passed"] is True
        assert doc["header"]["command"] == "validate"
        assert doc["header"]["options"]["tol"] == 1e-9

    def test_broken_input_names_invariant(self, broken_file, capsys):
        assert run(["validate", broken_file]) == 1
        err = capsys.readouterr().err
        assert "nondecreasing" in err

    def test_csv_format(self, tri_file, capsys):
        assert run(["validate", tri_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check,alpha,passed,measured\n")

    def test_missing_file(self, capsys):
        assert run(["validate", "no-such-file.json"]) == 1

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    @pytest.mark.parametrize("kind", ["body", "tri"])
    def test_non_positive_tol_is_an_input_error(self, kind, tol, capsys):
        path = Path(__file__).parent / "golden" / f"{kind}.json"
        assert run(["validate", str(path), "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be positive\n"

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_body_is_an_input_error(self, value, tmp_path, capsys):
        support = np.ones((3, 8))
        support[1, 4] = value
        support[:, 6] = value
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"type": "body2d", "alphas": [0, 0.5, 1], "directions": 8, "support": support.tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: invalid body2d object: support values must be finite\n"


class TestDistVerb:
    def test_same_sampled_number_is_zero(self, tri_file, tmp_path, capsys):
        other = tmp_path / "tri2.json"
        other.write_text(Path(tri_file).read_text())
        assert run(["dist", tri_file, str(other)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"header", "enclosure"}
        assert doc["enclosure"] == {"lower": 0.0, "upper": 0.0, "attained": True}

    def test_counterexample_pair_encloses_one(self, capsys):
        assert run(["dist", "counterexample-un:5", "counterexample-limit"]) == 0
        doc = json.loads(capsys.readouterr().out)
        enc = doc["enclosure"]
        assert enc["lower"] <= 1.0 <= enc["upper"]
        assert enc["attained"] is False

    def test_sequence_rejected_by_kind(self, capsys):
        assert run(["dist", "counterexample-seq", "counterexample-limit"]) == 1
        assert "it is a sequence, expected a fuzzy number" in capsys.readouterr().err

    def test_non_monotone_curve_is_an_input_error(self, monkeypatch, capsys):
        sine = CutCurve1D(lower_fn=lambda a: 0.0 * a, upper_fn=lambda a: 1 + 0.5 * np.sin(40 * a))
        crisp = make_sampled_1d([0, 1], [0, 0], [1, 1])
        monkeypatch.setattr("fuzzymetrics.cli._load", lambda spec, *kinds: sine if spec == "sine" else crisp)
        assert run(["dist", "sine", "crisp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cut endpoints are not monotone")

    @pytest.mark.parametrize("n", ["1.5", "true", "0"])
    def test_member_index_from_file_or_token(self, n, tmp_path, capsys):
        path = tmp_path / "un.json"
        path.write_text(f'{{"type": "counterexample-un", "n": {n}}}')
        assert run(["dist", str(path), "counterexample-limit"]) == 1
        assert run(["dist", f"counterexample-un:{n}", "counterexample-limit"]) == 1
        file_err, token_err = capsys.readouterr().err.splitlines()
        expected = f"error: invalid counterexample-un object: member index must be a positive integer, got {json.loads(n)}"
        assert file_err == token_err == expected

    @pytest.mark.parametrize(
        "token", ["counterexample-un", "counterexample-un:1:2", "counterexample-limit:1", "counterexample-un:x"]
    )
    def test_malformed_token(self, token, capsys):
        assert run(["dist", token, "counterexample-limit"]) == 1
        assert capsys.readouterr().err.startswith(f"error: bad constructor token {token!r}")

    def test_negative_max_depth_is_an_input_error(self, capsys):
        assert run(["dist", "counterexample-un:1", "counterexample-un:2", "--max-depth", "-3"]) == 1
        assert capsys.readouterr().err == "error: max_depth must be nonnegative\n"
        assert run(["dist", "counterexample-un:1", "counterexample-un:2", "--max-depth", "0"]) == 0
        enc = json.loads(capsys.readouterr().out)["enclosure"]
        assert enc["lower"] <= enc["upper"]

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--tol", "-1", "--max-depth", "-5"], "tol must be positive"),
            (["--tol", "0"], "tol must be positive"),
            (["--max-depth", "-5"], "max_depth must be nonnegative"),
        ],
    )
    def test_sampled_pair_checks_the_search_settings(self, tri_file, options, message, capsys):
        assert run(["dist", tri_file, tri_file, *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        # the same message as for a curve pair
        assert run(["dist", "counterexample-un:1", "counterexample-un:2", *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mixed_inputs_use_enclosure(self, tri_file, capsys):
        assert run(["dist", tri_file, "counterexample-un:1", "--tol", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"header", "enclosure"}
        assert doc["enclosure"] == {"lower": 0.5, "upper": 0.5000009536743164, "attained": True}


class TestProfileVerb:
    def test_csv_schema(self, capsys):
        assert run(["profile", "counterexample-un:1", "counterexample-limit", "--grid", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,H"
        assert len(lines) == 6

    def test_json_format(self, capsys):
        assert run(
            ["profile", "counterexample-un:1", "counterexample-limit", "--grid", "3", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["alpha"] for row in doc["profile"]] == [0.0, 0.5, 1.0]

    def test_sequence_profile_schema(self, family_file, capsys):
        assert run(["profile", family_file, "counterexample-limit", "--grid", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,n,H"
        assert len(lines) == 1 + 3 * 5
        assert lines[2] == "0.5,1,0.75"

    def test_inline_sequence_profile(self, capsys):
        assert run(
            ["profile", "counterexample-seq", "counterexample-limit", "--grid", "3", "--n-max", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 * 2

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_is_an_input_error(self, n_max, capsys):
        argv = ["profile", "counterexample-seq", "counterexample-limit", "--n-max", n_max]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_max must be at least 1\n"


class TestConvergeVerb:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["converge", "family.json", "tri.json", "--eps", "0.5"], "converge-family-tri.json"),
            (["profile", "family.json", "tri.json", "--grid", "5"], "profile-family-tri.csv"),
        ],
    )
    def test_sampled_family_is_not_expanded_into_members(self, argv, expected, monkeypatch, capsys):
        assert isinstance(decode_family(read_json(GOLDEN_DIR / "family.json")), SampledFamily)

        def no_members(family, index):
            raise AssertionError(f"SampledFamily.__getitem__({index!r})")

        monkeypatch.setattr(SampledFamily, "__getitem__", no_members)
        monkeypatch.chdir(GOLDEN_DIR)
        assert run(argv) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "expected" / expected).read_text()

    def test_family_file_sequence(self, family_file, capsys):
        assert run(["converge", family_file, "counterexample-limit", "--grid", "5", "--eps", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["convergence"]["converged"] is True

    def test_strict_failure_exits_two(self, family_file, capsys):
        code = run(
            [
                "converge",
                family_file,
                "counterexample-limit",
                "--grid",
                "5",
                "--eps",
                "0.2",
                "--strict",
            ]
        )
        assert code == 2

    def test_streamed_counterexample_sequence(self, capsys):
        assert run(
            [
                "converge",
                "counterexample-seq",
                "counterexample-limit",
                "--grid",
                "5",
                "--eps",
                "0.01",
                "--n-max",
                "2000",
                "--format",
                "csv",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,first_index,reached"
        assert all(line.endswith("true") for line in lines[1:])


class TestFamilyReportVerb:
    def test_counterexample_family_passes(self, family_file, tmp_path):
        out = tmp_path / "diag.json"
        assert run(["family-report", family_file, "--strict", "--out", str(out)]) == 0
        doc = read_json(out)
        diag = doc["diagnostics"]
        assert diag["support_radius"] == 1.0
        verdicts = diag["condition_verdicts"]
        assert verdicts["supremum_metric_criterion"]["equi_left_continuity"]["passed"]

    def test_csv_rejected(self, family_file, capsys):
        assert run(["family-report", family_file, "--format", "csv"]) == 1

    def test_delta_grid_specs(self, family_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["family-report", family_file, "--delta-grid", "pow2:2..6", "--out", str(a)]) == 0
        assert run(
            ["family-report", family_file, "--delta-grid", "0.25,0.125,0.0625,0.03125,0.015625", "--out", str(b)]
        ) == 0
        assert read_json(a)["diagnostics"] == read_json(b)["diagnostics"]

    def test_grid_default_is_the_default(self, family_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["family-report", family_file, "--out", str(a)]) == 0
        assert run(["family-report", family_file, "--grid", "default", "--out", str(b)]) == 0
        assert read_json(a)["diagnostics"] == read_json(b)["diagnostics"]

    def test_bad_delta_grid_spec(self, family_file, capsys):
        assert run(["family-report", family_file, "--delta-grid", "pow2:x..y"]) == 1

    @pytest.mark.parametrize("spec", ["0.5,nan", "0.5,inf", "0.5,-0.25"])
    def test_non_finite_delta_grid_is_an_input_error(self, spec, family_file, capsys):
        assert run(["family-report", family_file, "--delta-grid", spec]) == 1
        assert capsys.readouterr().err == "error: delta grid must hold finite positive offsets\n"

    def test_deterministic_bytes(self, family_file, tmp_path):
        a, b = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(["family-report", family_file, "--out", str(a)]) == 0
        assert run(["family-report", family_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCounterexampleVerb:
    def test_strict_small_run(self, tmp_path):
        out = tmp_path / "refutation.json"
        assert run(["counterexample", "--n-max", "5", "--strict", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["report"]["conclusion"]["criterion_refuted"] is True
        assert doc["header"]["options"]["n_max"] == 5

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["counterexample", "--n-max", "3", "--out", str(a)]) == 0
        assert run(["counterexample", "--n-max", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def source_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(fuzzymetrics.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def loads_scipy(argv):
    """Run the CLI in a fresh interpreter; whether it imported scipy."""
    code = f"import sys; from fuzzymetrics.cli import run; assert run({argv!r}) == 0; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["fuzzymetrics", "fuzzymetrics.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = subprocess.run(
        [sys.executable, "-m", module, "dist", "tri.json", "tri.json"],
        cwd=GOLDEN_DIR,
        env=source_env(),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN_DIR / "expected" / "dist-tri-tri.json").read_bytes()


def test_kind_names_every_sequence_a_family():
    for family in (random_family(seed=1, count=3), [make_un(1), make_un(2)], members(3)):
        assert _kind(family) == "family"
    assert _kind(make_un(1)) == "fuzzy number"
    assert _kind(member_sequence()) == "sequence"


class TestLazyScipy:
    def test_one_dimensional_verb_does_not_load_scipy(self, tmp_path):
        argv = ["dist", "counterexample-un:1", "counterexample-un:2", "--out", str(tmp_path / "d.json")]
        assert not loads_scipy(argv)

    def test_building_a_body_loads_scipy(self, tmp_path):
        body = Path(__file__).parent / "golden" / "body.json"
        assert loads_scipy(["validate", str(body), "--out", str(tmp_path / "v.json")])


class TestArgHandling:
    def test_unknown_option_is_input_error(self, tri_file, capsys):
        assert run(["validate", tri_file, "--frobnicate"]) == 1

    def test_unknown_verb(self, capsys):
        assert run(["explode"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_emitted_numbers_reparse_identically(self, tri_file, tmp_path):
        # emitted fuzzy-number JSON round-trips at distance exactly 0
        original = decode_fuzzy(read_json(tri_file))
        from fuzzymetrics.serialize import dumps, encode_fuzzy

        out = tmp_path / "echo.json"
        out.write_text(dumps(encode_fuzzy(original)))
        reparsed = decode_fuzzy(read_json(out))
        enc = d_infty_parametric(original, reparsed)
        assert (enc.lower, enc.upper) == (0.0, 0.0)
