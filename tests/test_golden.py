"""Pinned-seed golden outputs, one small run per study.

Each case directory under ``tests/golden/`` holds a run config and the
``summary.csv`` and ``curves.csv`` that ``structreg run`` wrote for it before
the second-stage protocol was refactored. A change that should leave results
alone must reproduce both files byte for byte. The files were made, from the
repository root, with::

    for case in auction-1 demand-4 entry-exit-2; do
        structreg run --config tests/golden/$case/config.yaml --out /tmp/golden-$case
        cp /tmp/golden-$case/summary.csv /tmp/golden-$case/curves.csv tests/golden/$case/
    done

Regenerate them only for a change that is meant to move the numbers, and say
why in CHANGES.md.
"""

from pathlib import Path

import pytest

from structreg.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", ["auction-1", "demand-4", "entry-exit-2"])
def test_outputs_match_golden_bytes(tmp_path, case):
    assert main(["run", "--config", str(GOLDEN / case / "config.yaml"),
                 "--out", str(tmp_path)]) == 0
    for name in ("summary.csv", "curves.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
