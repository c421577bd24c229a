"""Pinned-seed golden outputs, small runs of every study.

Each case directory under ``tests/golden/`` holds a run config and the
``summary.csv`` and ``curves.csv`` that ``structreg run`` wrote for it. The
first three cases use each study's defaults and were made before the
second-stage protocol was refactored; the ``*-all-keys`` cases set every key
of their study's config block (auction also ``cv.K`` and ``lambda_grid``) and
were made before the config-to-study mapping was rewritten, so they pin that
mapping. ``auction-2-all-keys`` was regenerated when the beta truth became
the revenue-equivalence quadrature, which moved its ``truth`` column by at
most 5.6e-16 relative, and with it the aggregates. ``entry-exit-2`` and
``entry-exit-1-all-keys`` were regenerated when the stationary entry/exit
values became Newton steps instead of value iteration, which moved their
``truth`` and ``prediction`` columns by at most 1.4e-14 relative and their
aggregates by at most 3.9e-15; no trial's chosen penalty moved. All six
were regenerated when the final second-stage fit became the fold's own
penalty path at the chosen penalty instead of a per-penalty LU solve. Only
the ``sre`` rows' ``prediction`` column moved, by at most 4.6e-12 relative
(entry-exit-2; 4.2e-14 or less in the other cases), and with it the
aggregates, by at most 7.3e-13 (auction-1); no trial's chosen penalty moved.
``demand-4`` and ``demand-2-all-keys`` were regenerated when the demand
study's instrument basis became running products of the rescaled cost
shifter instead of numpy powers. Only their ``sre`` rows moved: the
``prediction`` column by at most 5.7e-14 relative (demand-4; 7.3e-15 in
demand-2-all-keys) and the ``sre`` aggregates by at most 4.0e-13; no trial's
chosen penalty moved. ``auction-2-all-keys`` was regenerated again when the
beta truth became a double-exponential sum instead of an adaptive quadrature:
its ``truth`` column moved by at most 3.7e-16 relative, the ``bias`` and
``mse`` aggregates by at most 3.6e-15 and 8.0e-15, ``variance`` not at all,
and no ``prediction`` and no trial's chosen penalty moved.
A change that should leave results alone must reproduce both files byte for
byte. The files were made, from the repository root, with::

    for case in auction-1 demand-4 entry-exit-2 \\
                auction-2-all-keys demand-2-all-keys entry-exit-1-all-keys; do
        structreg run --config tests/golden/$case/config.yaml --out /tmp/golden-$case
        cp /tmp/golden-$case/summary.csv /tmp/golden-$case/curves.csv tests/golden/$case/
    done

Regenerate them only for a change that is meant to move the numbers, and say
why in CHANGES.md.

The benchmark checks every run's ``summary.csv`` against
``perfbench/reference.json`` within a relative tolerance; every config at
every one of its 16 seeds is checked here the same way, so a change that
breaks that tolerance (a chosen penalty or AIC degree that flips at any seed
the benchmark may run) fails in the suite too.
"""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from structreg.cli import main

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CASES = [
    "auction-1", "demand-4", "entry-exit-2",
    "auction-2-all-keys", "demand-2-all-keys", "entry-exit-1-all-keys",
]


def describe_difference(got: str, expected: str) -> str:
    """The first differing line of two CSV texts and, when both have the same
    header and row count, the largest relative difference of each numeric
    column (``inf`` where only one side is NaN)."""
    new, old = got.splitlines(), expected.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    lines = [f"first difference at line {i + 1}:",
             f"  got      {new[i] if i < len(new) else '<end of file>'}",
             f"  expected {old[i] if i < len(old) else '<end of file>'}"]
    if len(new) != len(old) or new[:1] != old[:1]:
        return "\n".join(lines + [f"{len(new)} lines against {len(old)} expected"])
    rows_new, rows_old = list(csv.reader(new[1:])), list(csv.reader(old[1:]))
    for j, column in enumerate(next(csv.reader(old[:1]))):
        try:
            a = np.array([float(row[j]) for row in rows_new])
            b = np.array([float(row[j]) for row in rows_old])
        except ValueError:
            continue
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(same, 0.0, np.abs(a - b) / np.abs(b))
        lines.append(f"  {column}: largest relative difference "
                     f"{np.nan_to_num(rel, nan=np.inf).max(initial=0.0):.3g}")
    return "\n".join(lines)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_bytes(tmp_path, case):
    assert main(["run", "--config", str(GOLDEN / case / "config.yaml"),
                 "--out", str(tmp_path)]) == 0
    for name in ("summary.csv", "curves.csv"):
        got, expected = (tmp_path / name).read_bytes(), (GOLDEN / case / name).read_bytes()
        assert got == expected, f"{name}\n" + describe_difference(got.decode(), expected.decode())


def test_describe_difference_names_the_line_and_the_column_bounds():
    expected = "x,truth,label\n1,0.5,a\n2,nan,b\n3,4.0,c\n"
    got = "x,truth,label\n1,0.5,a\n2,nan,b\n3,4.000000002,c\n"
    assert describe_difference(got, expected).splitlines() == [
        "first difference at line 4:",
        "  got      3,4.000000002,c",
        "  expected 3,4.0,c",
        "  x: largest relative difference 0",
        "  truth: largest relative difference 5e-10",
    ]
    assert describe_difference("x\n1\n", "x\n1\n2\n").splitlines()[1:] == [
        "  got      <end of file>", "  expected 2", "2 lines against 3 expected"]


def _benchmark_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize(
    "config", sorted(PERFBENCH.glob("configs/*/*.yaml")),
    ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_benchmark_configs_match_the_benchmark_reference(tmp_path, config):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[config.parent.name]
    compare = _benchmark_worker().compare_summary
    assert len(reference) == 16
    for seed, expected in reference.items():
        out = tmp_path / seed
        assert main(["run", "--config", str(config), "--seed", seed, "--out", str(out)]) == 0
        difference = compare((out / "summary.csv").read_text(), expected[config.name])
        assert difference is None, f"seed {seed}: {difference}"
