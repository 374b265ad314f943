"""Byte-for-byte golden outputs of every CLI verb.

Each case runs ``cli.run`` from inside ``tests/golden`` (the report header
echoes input paths, so inputs are named by bare file names) and compares the
written report with ``tests/golden/expected/<name>``.

Inputs under ``tests/golden``:

- ``family.json``: ``random_family(0, 20)``, encoded with ``encode_fuzzy``;
- ``family100.json``: ``random_family(1, 100, levels=17)``, encoded alike;
- ``ce_family.json``: counterexample members 1..10;
- ``tri.json``: the triangle ``[0, 0.5, 1] / [0, 0.25, 0.5] / [1, 0.75, 0.5]``;
- ``body.json``: that triangle lifted on 8 directions plus a disk of radius
  ``0.05 + 0.45 (1 - alpha)``;
- ``grid.json``: a five-level grid file.

A change that alters a report on purpose regenerates the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import os
import sys

import pytest

from fuzzymetrics.cli import run

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED_DIR = os.path.join(GOLDEN_DIR, "expected")

CSV = ["--format", "csv"]
JSON = ["--format", "json"]
UN1_UN2 = ["dist", "counterexample-un:1", "counterexample-un:2", "--tol", "1e-6"]
TRI_UN1 = ["dist", "tri.json", "counterexample-un:1", "--tol", "1e-6"]
SEQ_PROFILE = ["profile", "counterexample-seq", "counterexample-limit", "--n-max", "3"]
CE_PROFILE = ["profile", "ce_family.json", "counterexample-limit", "--grid", "11"]
SEQ_CONVERGE = ["converge", "counterexample-seq", "counterexample-limit", "--n-max", "2000"]
# short enough to keep the per-level distance traces (h_values), long enough
# to span several blocks of the batched member scan
SEQ_CONVERGE_TRACE = ["converge", "counterexample-seq", "counterexample-limit", "--n-max", "600", "--grid", "5"]
FAMILY_CONVERGE = ["converge", "family.json", "tri.json", "--eps", "0.5"]
FAMILY_SMALL = ["family-report", "family.json", "--grid", "11", "--delta-grid", "pow2:2..6", "--eps", "0.2"]
# three offsets keep the default-grid reports small; ce_family.json is also
# run with every default
FAMILY = ["family-report", "family.json", "--delta-grid", "pow2:2..4"]
CE_FAMILY = ["family-report", "ce_family.json", "--delta-grid", "pow2:2..4"]

CASES = {
    "validate-tri.json": ["validate", "tri.json"],
    "validate-tri.csv": ["validate", "tri.json", *CSV],
    "validate-body.json": ["validate", "body.json"],
    "validate-body.csv": ["validate", "body.json", *CSV],
    "validate-limit.json": ["validate", "counterexample-limit"],
    "validate-limit.csv": ["validate", "counterexample-limit", *CSV],
    "dist-tri-tri.json": ["dist", "tri.json", "tri.json"],
    "dist-tri-tri.csv": ["dist", "tri.json", "tri.json", *CSV],
    "dist-tri-un1.json": TRI_UN1,
    "dist-tri-un1.csv": [*TRI_UN1, *CSV],
    "dist-un1-un2.json": UN1_UN2,
    "dist-un1-un2.csv": [*UN1_UN2, *CSV],
    # the benchmark's bnb-pair workload, at the default tol 1e-9
    "dist-un1-un2-default.json": ["dist", "counterexample-un:1", "counterexample-un:2"],
    "profile-tri-limit.csv": ["profile", "tri.json", "counterexample-limit"],
    "profile-tri-limit.json": ["profile", "tri.json", "counterexample-limit", *JSON],
    "profile-un3-tri-gridfile.csv": ["profile", "counterexample-un:3", "tri.json", "--grid", "grid.json"],
    "profile-family-tri.csv": ["profile", "family.json", "tri.json", "--grid", "5"],
    "profile-ce_family-limit.csv": CE_PROFILE,
    "profile-ce_family-limit.json": [*CE_PROFILE, *JSON],
    "profile-seq-limit.csv": SEQ_PROFILE,
    "profile-seq-limit.json": [*SEQ_PROFILE, *JSON],
    "converge-seq-limit.json": SEQ_CONVERGE,
    "converge-seq-limit.csv": [*SEQ_CONVERGE, *CSV],
    "converge-seq-limit-trace.json": SEQ_CONVERGE_TRACE,
    # the full default window: h_last of member 100,000 at every level
    "converge-seq-limit-full.json": ["converge", "counterexample-seq", "counterexample-limit"],
    "converge-ce_family-limit.json": ["converge", "ce_family.json", "counterexample-limit"],
    "converge-ce_family-limit.csv": ["converge", "ce_family.json", "counterexample-limit", *CSV],
    "converge-family-tri.json": FAMILY_CONVERGE,
    "converge-family-tri.csv": [*FAMILY_CONVERGE, *CSV],
    "family-report-family.json": FAMILY,
    "family-report-family-grid-default.json": [*FAMILY, "--grid", "default"],
    "family-report-family-small.json": FAMILY_SMALL,
    # the default delta grid, 2**-2 .. 2**-20: its larger offsets cross grid
    # nodes of the sampled family, which has too few members to be screened
    "family-report-family-defaults.json": ["family-report", "family.json"],
    # more members than lattice._SCREEN_MEMBERS, on 17 levels: its lattice
    # goes through every step of the screen, and some cells to the packed
    # dense read
    "family-report-family100.json": ["family-report", "family100.json", "--delta-grid", "pow2:2..6"],
    "family-report-ce_family-defaults.json": ["family-report", "ce_family.json"],
    "family-report-ce_family.json": CE_FAMILY,
    "family-report-ce_family-grid-default.json": [*CE_FAMILY, "--grid", "default"],
    "counterexample-10.json": ["counterexample", "--n-max", "10"],
    # the benchmark's refutation workload: all 100 grid_max rows
    "counterexample-100.json": ["counterexample", "--n-max", "100", "--strict"],
}


def _write(name: str, out: str) -> int:
    return run([*CASES[name], "--out", out])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    out = tmp_path / name
    assert _write(name, str(out)) == 0
    with open(os.path.join(EXPECTED_DIR, name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def _regenerate() -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    os.chdir(GOLDEN_DIR)
    for name in sorted(CASES):
        if _write(name, os.path.join(EXPECTED_DIR, name)) != 0:
            sys.exit(f"{name}: the command failed")


if __name__ == "__main__":
    _regenerate()
