import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fuzzymetrics
from fuzzymetrics import cli, counterexample
from fuzzymetrics.cli import _kind, _load_json, run
from fuzzymetrics.counterexample import member_sequence, members
from fuzzymetrics.serialize import decode_family, decode_fuzzy, dumps
from fuzzymetrics import (
    CutCurve1D,
    OutOfRange,
    SampledFamily,
    compactness_conditions_report,
    d_infty_parametric,
    default_report_grid,
    make_sampled_1d,
    make_un,
    random_family,
    refutation_report,
)

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
            (["--tol", "inf"], "tol must be finite"),
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
        assert doc["enclosure"] == {"lower": 0.5, "upper": 0.5000000000000004, "attained": True}

    def test_members_ten_and_eleven_meet_the_default_tol(self, capsys):
        assert run(["dist", "counterexample-un:10", "counterexample-un:11"]) == 0
        enclosure = json.loads(capsys.readouterr().out)["enclosure"]
        assert enclosure == {"lower": 0.03504938994812168, "upper": 0.035049390842851746, "attained": True}


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

    def test_family_file_takes_n_max_members(self, monkeypatch, capsys):
        monkeypatch.chdir(GOLDEN_DIR)
        assert run(["profile", "ce_family.json", "counterexample-limit", "--grid", "3", "--n-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,n,H"
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "1", "1", "2", "2", "2"]

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_is_an_input_error(self, n_max, capsys):
        argv = ["profile", "counterexample-seq", "counterexample-limit", "--n-max", n_max]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_max must be at least 1\n"


@pytest.mark.parametrize("verb", ["profile", "converge"])
@pytest.mark.parametrize("count", ["-5", "0", "1"])
def test_grid_count_below_two_is_an_input_error(verb, count, capsys):
    assert run([verb, "counterexample-seq", "counterexample-limit", "--grid", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: uniform grid needs at least 2 levels\n"


@pytest.mark.parametrize("verb", ["profile", "converge"])
@pytest.mark.parametrize("count", ["2.5", "1e3", "-0.5"])
def test_grid_count_that_is_not_an_integer_is_an_input_error(verb, count, capsys):
    assert run([verb, "counterexample-seq", "counterexample-limit", "--grid", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid level count must be an integer, got {count!r}\n"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["validate", "tri.json", "--tol", "inf"], "tol"),
        (["validate", "body.json", "--tol", "inf"], "tol"),
        (["converge", "counterexample-seq", "counterexample-limit", "--eps", "inf"], "eps"),
        (["family-report", "family.json", "--eps", "inf"], "eps"),
    ],
)
def test_infinite_tolerance_is_an_input_error(argv, name, monkeypatch, capsys):
    # the counterexample and dist settings tests take inf too
    monkeypatch.chdir(GOLDEN_DIR)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be finite\n"


def test_grid_file_named_like_a_number_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "2.5").write_text("[0.0, 0.5, 1.0]")
    tri = str(GOLDEN_DIR / "tri.json")
    assert run(["profile", tri, tri, "--grid", "2.5", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "alpha,H\n0.0,0.0\n0.5,0.0\n1.0,0.0\n"


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
        # rejected before the input is read: a missing file gets the same message
        for path in (family_file, "missing.json"):
            assert run(["family-report", path, "--format", "csv"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: family-report emits a nested report; csv is not supported\n"

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
        # and the library's default, the levels of the report grid in (0, 1]
        family = decode_family(read_json(family_file))
        library = json.loads(dumps(compactness_conditions_report(family).to_dict()))
        assert read_json(a)["diagnostics"] == library
        alphas = [entry["alpha"] for entry in library["left_moduli"]]
        assert alphas == [x for x in default_report_grid([family]).levels.tolist() if x > 0.0]

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

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--eps", "0"], "eps must be positive"),
            (["--eps", "-1"], "eps must be positive"),
            (["--eps", "nan"], "eps must be positive"),
            (["--tol", "0"], "tol must be positive"),
            (["--tol", "-1"], "tol must be positive"),
            # an infinite tolerance made every condition vacuous
            (["--eps", "inf"], "eps must be finite"),
            (["--tol", "inf"], "tol must be finite"),
        ],
    )
    def test_bad_settings_are_rejected_before_any_work(self, options, message, monkeypatch, capsys):
        def no_work(n_max):
            raise AssertionError("the report built its members before checking its settings")

        monkeypatch.setattr(counterexample, "members", no_work)
        assert run(["counterexample", "--n-max", "5", *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_csv_rejected_before_any_work(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the report ran before the format was checked")

        monkeypatch.setattr("fuzzymetrics.cli.refutation_report", no_work)
        assert run(["counterexample", "--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: counterexample emits a nested report; csv is not supported\n"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["counterexample", "--n-max", "3", "--out", str(a)]) == 0
        assert run(["counterexample", "--n-max", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def source_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(fuzzymetrics.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def loads(module, argv):
    """Run the CLI from the golden inputs in a fresh interpreter; whether it imported ``module``."""
    code = f"import sys; from fuzzymetrics.cli import run; assert run({argv!r}) == 0; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=GOLDEN_DIR, env=source_env(), capture_output=True, text=True, check=True
    )
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


def test_python_dash_m_runs_a_strict_verb():
    done = subprocess.run(
        [sys.executable, "-m", "fuzzymetrics", "counterexample", "--n-max", "10", "--strict"],
        cwd=GOLDEN_DIR,
        env=source_env(),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN_DIR / "expected" / "counterexample-10.json").read_bytes()


def capped(code: str, limit: int = 512 << 20) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose address space is capped at
    ``limit`` bytes, so that a command that allocates without bound ends
    there with a MemoryError.  BLAS and OpenMP run one thread, so that the
    cap does not meet their per-thread stacks on a host with many cores."""
    head = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    env = {**source_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", head + code], env=env, capture_output=True, text=True, timeout=120)


class TestReportCap:
    """A refutation report of too many members is refused before anything
    is allocated (each case runs capped: without the cap it would build
    members until memory runs out)."""

    BIG = 10_000_000_000_000
    MESSAGE = "n_max must be at most 500000: a report takes about 1.8 KB a member"

    def test_the_cli_prints_one_error_line(self):
        argv = ["counterexample", "--n-max", str(self.BIG)]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))")
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {self.MESSAGE}\n")

    def test_the_library_raises_out_of_range(self):
        done = capped(
            f"from fuzzymetrics import OutOfRange, refutation_report\n"
            f"try:\n    refutation_report({self.BIG})\nexcept OutOfRange as exc:\n    print(exc)"
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{self.MESSAGE}\n", "")

    def test_the_cap_takes_the_last_member_it_names(self, monkeypatch):
        monkeypatch.setattr(counterexample, "REPORT_MEMBERS", 5)
        assert refutation_report(5)["n_max"] == 5
        for n in (6, 6.0):
            with pytest.raises(OutOfRange, match="^n_max must be at most 5: "):
                refutation_report(n)


class TestProfileCap:
    """A profile of too many rows (members x levels) is refused before any
    row is built (capped: without the cap an infinite sequence would be
    profiled until memory runs out)."""

    def test_an_infinite_sequence_prints_one_error_line(self):
        argv = ["profile", "counterexample-seq", "counterexample-limit", "--n-max", "10000000000"]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        message = "a profile takes at most 1000000 rows (members x levels), got 10000000000 x 112"
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {message}: a row takes about 0.7 KB as JSON\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_cap_takes_the_last_row_it_names(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(cli, "PROFILE_ROWS", 6)
        argv = ["profile", "counterexample-seq", "counterexample-limit", "--grid", "3", "--format", fmt]
        assert run([*argv, "--n-max", "2"]) == 0
        assert run([*argv, "--n-max", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: a profile takes at most 6 rows (members x levels), got 3 x 3:")

    def test_a_family_counts_the_members_it_holds(self, monkeypatch, capsys):
        # family.json holds 20 members: a larger --n-max takes no more rows
        monkeypatch.setattr(cli, "PROFILE_ROWS", 60)
        family = str(GOLDEN_DIR / "family.json")
        assert run(["profile", family, "counterexample-limit", "--grid", "3", "--n-max", "1000"]) == 0
        assert run(["profile", family, "counterexample-limit", "--grid", "4", "--n-max", "1000"]) == 1
        assert capsys.readouterr().err.startswith("error: a profile takes at most 60 rows (members x levels), got 20 x 4:")


class TestGridCap:
    """A ``--grid`` of more than ``GRID_LEVELS`` levels is refused: a count
    before its levels are made, a file once it is read (capped: 10**8 levels
    took 14 GiB in a family report)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["family-report", str(GOLDEN_DIR / "family.json"), "--grid", "100000000"],
            ["profile", "counterexample-seq", "counterexample-limit", "--grid", "100000000000"],
            ["converge", "counterexample-seq", "counterexample-limit", "--grid", "100000000000", "--n-max", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_huge_grid_prints_one_error_line(self, argv):
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        assert (done.returncode, done.stdout) == (1, "")
        count = argv[argv.index("--grid") + 1]
        assert done.stderr == f"error: grid level count must be at most 10000, got {count}\n"

    def test_the_cap_takes_the_last_level_it_names(self, capsys, tmp_path):
        argv = ["profile", "counterexample-un:1", "counterexample-limit", "--out", str(tmp_path / "p.csv"), "--grid"]
        assert run([*argv, str(cli.GRID_LEVELS)]) == 0
        assert (tmp_path / "p.csv").read_text().count("\n") == 1 + cli.GRID_LEVELS
        assert run([*argv, str(cli.GRID_LEVELS + 1)]) == 1
        assert capsys.readouterr().err == f"error: grid level count must be at most 10000, got {cli.GRID_LEVELS + 1}\n"

    def test_a_grid_file_past_the_cap_prints_one_error_line(self, tmp_path):
        # a 2 MB file of 100,000 levels sent the report past 1 GB
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(np.linspace(0.0, 1.0, 100_000).tolist()))
        argv = ["family-report", str(GOLDEN_DIR / "family.json"), "--grid", str(grid)]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: grid level count must be at most 10000, got 100000\n"

    def test_a_grid_file_takes_the_last_level_it_names(self, capsys, tmp_path):
        argv = ["profile", "counterexample-un:1", "counterexample-limit", "--out", str(tmp_path / "p.csv"), "--grid"]
        for count in (cli.GRID_LEVELS, cli.GRID_LEVELS + 1):
            (tmp_path / f"{count}.json").write_text(json.dumps(np.linspace(0.0, 1.0, count).tolist()))
        assert run([*argv, str(tmp_path / f"{cli.GRID_LEVELS}.json")]) == 0
        assert (tmp_path / "p.csv").read_text().count("\n") == 1 + cli.GRID_LEVELS
        assert run([*argv, str(tmp_path / f"{cli.GRID_LEVELS + 1}.json")]) == 1
        assert capsys.readouterr().err == f"error: grid level count must be at most 10000, got {cli.GRID_LEVELS + 1}\n"


class TestConvergeCap:
    """A convergence scan of too many distances is refused before the scan:
    one that keeps every distance (at most ``TRACE_WINDOW_CAP`` members)
    past ``PROFILE_ROWS`` (members x levels), any other past
    ``SCAN_DISTANCES`` (members x (levels + ``SCAN_MEMBER_LEVELS``)), about
    a minute's work on any grid."""

    def test_a_scan_of_years_prints_one_error_line(self):
        # at about 1.7 million members a second this scan would not end
        argv = ["converge", "counterexample-seq", "counterexample-limit", "--n-max", "99999999999999999999"]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        message = (
            "converge scans at most 10000000000 distances (members x (levels + 4)), "
            "got 99999999999999999999 x (112 + 4)"
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {message}: about a minute's work\n"

    def test_a_short_grid_counts_each_members_own_work(self):
        # 5 x 10**9 members at 2 levels are 10**10 levels, but at about 31
        # million members a second the scan would take over 2 minutes
        argv = ["converge", "counterexample-seq", "counterexample-limit", "--n-max", "5000000000", "--grid", "2"]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        message = "converge scans at most 10000000000 distances (members x (levels + 4)), got 5000000000 x (2 + 4)"
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {message}: about a minute's work\n"

    def test_a_traced_scan_past_the_cap_prints_one_error_line(self):
        # 1,024 members at 10,000 levels would keep 10,240,000 distances,
        # about 2.3 GB
        argv = ["converge", "counterexample-seq", "counterexample-limit", "--n-max", "1024", "--grid", "10000"]
        done = capped(f"import sys; from fuzzymetrics.cli import run; sys.exit(run({argv!r}))", 1 << 30)
        message = "a traced scan (n_max <= 1024) keeps at most 1000000 distances (members x levels), got 1024 x 10000"
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")

    def test_the_caps_take_the_last_distance_they_name(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "PROFILE_ROWS", 6)
        monkeypatch.setattr(cli, "SCAN_DISTANCES", (3 + cli.SCAN_MEMBER_LEVELS) * 1025)
        argv = ["converge", "counterexample-seq", "counterexample-limit", "--grid", "3", "--n-max"]
        assert run([*argv, "2"]) == 0
        assert run([*argv, "3"]) == 1
        assert capsys.readouterr().err.startswith("error: a traced scan (n_max <= 1024) keeps at most 6 distances")
        # past TRACE_WINDOW_CAP members a scan keeps no distance
        assert run([*argv, "1025"]) == 0
        assert run([*argv, "1026"]) == 1
        message = "error: converge scans at most 7175 distances (members x (levels + 4)), got 1026 x (3 + 4):"
        assert capsys.readouterr().err.startswith(message)

    def test_a_family_counts_the_members_it_holds(self, monkeypatch, capsys):
        # family.json holds 20 members: a larger --n-max scans no more
        monkeypatch.setattr(cli, "PROFILE_ROWS", 60)
        argv = ["converge", str(GOLDEN_DIR / "family.json"), "counterexample-limit", "--n-max", "1000", "--grid"]
        assert run([*argv, "3"]) == 0
        assert run([*argv, "4"]) == 1
        assert "got 20 x 4" in capsys.readouterr().err


def test_kind_names_every_sequence_a_family():
    for family in (random_family(seed=1, count=3), [make_un(1), make_un(2)], members(3)):
        assert _kind(family) == "family"
    assert _kind(make_un(1)) == "fuzzy number"
    assert _kind(member_sequence()) == "sequence"


class TestNoVerbLoadsScipy:
    # scipy is a test dependency only: every verb, building a body included,
    # runs on numpy alone
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "body.json"],
            ["dist", "counterexample-un:1", "counterexample-un:2"],
            ["profile", "tri.json", "counterexample-limit"],
            ["converge", "family.json", "tri.json", "--eps", "0.5"],
            ["family-report", "family.json", "--delta-grid", "pow2:2..4"],
            ["counterexample", "--n-max", "10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_verb_loads_no_scipy(self, argv, tmp_path):
        assert not loads("scipy", [*argv, "--out", str(tmp_path / "report")])


# np.unique and np.union1d import numpy.ma on their first call, which costs
# a report's set-up milliseconds and a megabyte: the benchmark's four
# commands, on golden inputs, import none of it
@pytest.mark.parametrize(
    "argv",
    [
        ["counterexample", "--n-max", "100", "--strict"],
        ["dist", "counterexample-un:1", "counterexample-un:2"],
        ["family-report", "family100.json"],
        ["validate", "body.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_benchmark_verb_loads_no_numpy_ma(argv, tmp_path):
    assert not loads("numpy.ma", [*argv, "--out", str(tmp_path / "report")])


# importing orjson costs a report's set-up some 7 ms (it imports uuid and
# zoneinfo): only a verb that reads a file imports it
@pytest.mark.parametrize(
    "argv, imported",
    [
        (["counterexample", "--n-max", "100"], False),
        (["dist", "counterexample-un:1", "counterexample-un:2"], False),
        (["validate", "body.json"], True),
    ],
    ids=lambda case: case[0] if isinstance(case, list) else None,
)
def test_only_a_verb_reading_a_file_loads_orjson(argv, imported, tmp_path):
    assert loads("orjson", [*argv, "--out", str(tmp_path / "report")]) is imported


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "counterexample-un:1", "counterexample-un:2", "--tol", "1e-6"],
        ["dist", "counterexample-un:1", "counterexample-un:2", "--tol", "1e-6", "--format", "csv"],
        ["profile", "counterexample-un:1", "counterexample-limit", "--grid", "5"],
        ["profile", "counterexample-seq", "counterexample-limit", "--n-max", "3", "--format", "json"],
    ],
)
def test_verbs_without_a_verdict_pass_strict(argv, capsys):
    assert run([*argv, "--strict"]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


class TestArgHandling:
    def test_unknown_option_is_input_error(self, tri_file, capsys):
        assert run(["validate", tri_file, "--frobnicate"]) == 1

    def test_unknown_verb(self, capsys):
        assert run(["explode"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_consecutive_runs_share_no_state(self, tri_file, tmp_path, capsys):
        # the parser is built once per process: no option, verdict or output
        # path of one call may reach the next
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(["validate", tri_file, "--tol", "1e-3", "--out", str(first)]) == 0
        assert run(["dist", tri_file, tri_file, "--strict", "--out", str(second)]) == 0
        assert run(["--version"]) == 0
        assert run(["family-report", str(GOLDEN_DIR / "family.json"), "--eps", "1e-9", "--strict"]) == 2
        assert run(["--help"]) == 0
        capsys.readouterr()
        assert run(["validate", tri_file]) == 0
        out = capsys.readouterr().out
        header = json.loads(out)["header"]
        assert header["command"] == "validate"
        assert header["options"] == {"input": tri_file, "tol": 1e-9}
        assert read_json(first)["header"]["options"] == {"input": tri_file, "tol": 1e-3}
        assert read_json(second)["header"]["options"] == {"a": tri_file, "b": tri_file, "tol": 1e-9, "max_depth": 60}
        assert run(["family-report", str(GOLDEN_DIR / "family.json"), "--eps", "1e-9", "--out", str(first)]) == 0
        assert json.loads(first.read_text())["header"]["options"]["eps"] == 1e-9

    def test_emitted_numbers_reparse_identically(self, tri_file, tmp_path):
        # emitted fuzzy-number JSON round-trips at distance exactly 0
        original = decode_fuzzy(read_json(tri_file))
        from fuzzymetrics.serialize import dumps, encode_fuzzy

        out = tmp_path / "echo.json"
        out.write_text(dumps(encode_fuzzy(original)))
        reparsed = decode_fuzzy(read_json(out))
        enc = d_infty_parametric(original, reparsed)
        assert (enc.lower, enc.upper) == (0.0, 0.0)


def wide_body():
    """The golden body with one support column too few for its direction count."""
    doc = read_json(GOLDEN_DIR / "body.json")
    return {**doc, "support": [row[:-1] for row in doc["support"]]}


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (
            ["family-report", "bad.json"],
            {"bad.json": "{not json"},
            "bad.json is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ),
        (
            ["profile", "tri.json", "tri.json", "--grid", "grid.json"],
            {"grid.json": "[0, 0.5]"},
            "bad grid file grid.json: grid must start at 0 and end at 1",
        ),
        (["family-report", "family.json", "--delta-grid", "0.1,abc"], {}, "bad delta grid spec '0.1,abc'"),
        (
            ["validate", "wide.json"],
            {"wide.json": json.dumps(wide_body())},
            "support matrix shape does not match the declared direction count",
        ),
    ],
    ids=["family-not-json", "grid-file-without-level-one", "delta-grid-not-numbers", "body-wider-than-directions"],
)
def test_bad_inputs_are_input_errors(argv, files, message, tmp_path, monkeypatch, capsys):
    for name in ("tri.json", "family.json"):
        (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DEEP_TOKEN = "counterexample-un:" + "[" * 3000
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"


# what the standard library's reader raises besides JSONDecodeError is an
# input error too: one line on stderr, status 1
@pytest.mark.parametrize(
    "argv, files, message",
    [
        (
            ["family-report", "family.json"],
            {"family.json": b"[\xff" + (GOLDEN_DIR / "family.json").read_bytes()[1:]},
            "family.json is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte",
        ),
        (["validate", "deep.json"], {"deep.json": b"[" * 100_000}, f"deep.json is not valid JSON: {TOO_DEEP}"),
        (["dist", DEEP_TOKEN, "counterexample-limit"], {}, f"bad constructor token {DEEP_TOKEN!r}: {TOO_DEEP}"),
        pytest.param(
            ["validate", "big.json"],
            {"big.json": b'{"type": "counterexample-un", "n": 1' + b"0" * 5000 + b"}"},
            "big.json is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"),
        ),
    ],
    ids=["family-not-utf-8", "file-nested-too-deep", "token-nested-too-deep", "integer-past-digit-limit"],
)
def test_unreadable_inputs_are_input_errors(argv, files, message, tmp_path, monkeypatch, capsys):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def json_only(monkeypatch):
    """Send every file to the standard library's reader, as before orjson."""
    import orjson

    def refuse(data):
        raise orjson.JSONDecodeError("refused", "", 0)

    monkeypatch.setattr(orjson, "loads", refuse)


class TestIntegerBeyond64Bits:
    # orjson reads an integer outside [-2**63, 2**64) that fits a double as
    # the nearest float, where json reads an int: 2**64 + 1 reads as 2**64.
    # Neither integer-typed input field prints anything else for it.
    BIG = 2**64 + 1

    def read_and_run(self, argv, field, capsys):
        """The value read for ``field`` of the last input, and what ``argv`` prints."""
        value = _load_json(argv[-1])[field]
        status = run(argv)
        captured = capsys.readouterr()
        return value, status, captured.out, captured.err

    def run_both(self, argv, field, monkeypatch, capsys):
        with_orjson = self.read_and_run(argv, field, capsys)
        json_only(monkeypatch)
        return with_orjson, self.read_and_run(argv, field, capsys)

    def test_directions_print_the_shape_error(self, tmp_path, monkeypatch, capsys):
        doc = {**read_json(GOLDEN_DIR / "body.json"), "directions": self.BIG}
        (tmp_path / "body.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        shape_error = "error: support matrix shape does not match the declared direction count\n"
        orjson_read, json_read = self.run_both(["validate", "body.json"], "directions", monkeypatch, capsys)
        assert type(orjson_read[0]) is float and orjson_read[0] == 2**64
        assert type(json_read[0]) is int and json_read[0] == self.BIG
        assert orjson_read[1:] == json_read[1:] == (1, "", shape_error)

    def test_member_index_prints_the_same_report(self, tmp_path, monkeypatch, capsys):
        # past 2**53 every member has the same endpoints at every level
        (tmp_path / "un.json").write_text(json.dumps({"type": "counterexample-un", "n": self.BIG}))
        monkeypatch.chdir(tmp_path)
        orjson_read, json_read = self.run_both(["validate", "un.json"], "n", monkeypatch, capsys)
        assert type(orjson_read[0]) is float and orjson_read[0] == 2**64
        assert type(json_read[0]) is int and json_read[0] == self.BIG
        assert orjson_read[1:] == json_read[1:]
        assert orjson_read[1] == 0 and json.loads(orjson_read[2])["validation"]["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", f"counterexample-un:{10**400}", "counterexample-limit"],
            ["validate", f"counterexample-un:{10**400}"],
            ["profile", f"counterexample-un:{10**400}", "counterexample-limit"],
            ["validate", "un.json"],
        ],
        ids=["dist", "validate", "profile", "validate a file"],
    )
    def test_member_index_past_the_float_range_is_an_input_error(self, argv, tmp_path, monkeypatch, capsys):
        # 10**400 in a file is refused by orjson and read as an int by json
        (tmp_path / "un.json").write_text(json.dumps({"type": "counterexample-un", "n": 10**400}))
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: invalid counterexample-un object: member index must be at most 1.7976931348623157e+308, "
            "the largest float\n"
        )

    @pytest.mark.parametrize(
        "a", ["counterexample-un:9223372036854775808", "un.json"], ids=["2**63 token", "2**64 + 1 in a file"]
    )
    def test_member_index_is_searched(self, a, tmp_path, monkeypatch, capsys):
        # the search keys a member by a float row, so no int64 cast overflows
        (tmp_path / "un.json").write_text(json.dumps({"type": "counterexample-un", "n": self.BIG}))
        monkeypatch.chdir(tmp_path)
        assert run(["dist", a, "counterexample-limit"]) == 0
        enclosure = json.loads(capsys.readouterr().out)["enclosure"]
        assert [enclosure["lower"], enclosure["upper"]] == [1.0, 1.0]
