"""Pinned-seed golden outputs, small runs of every study.

Each case directory under ``tests/golden/`` holds a run config and the
``summary.csv`` and ``curves.csv`` that ``structreg run`` wrote for it. The
first three cases use each study's defaults and were made before the
second-stage protocol was refactored; the ``*-all-keys`` cases set every key
of their study's config block (auction also ``cv.K`` and ``lambda_grid``) and
were made before the config-to-study mapping was rewritten, so they pin that
mapping. A change that should leave results alone must reproduce both files
byte for byte. The files were made, from the repository root, with::

    for case in auction-1 demand-4 entry-exit-2 \\
                auction-2-all-keys demand-2-all-keys entry-exit-1-all-keys; do
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
CASES = [
    "auction-1", "demand-4", "entry-exit-2",
    "auction-2-all-keys", "demand-2-all-keys", "entry-exit-1-all-keys",
]


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_bytes(tmp_path, case):
    assert main(["run", "--config", str(GOLDEN / case / "config.yaml"),
                 "--out", str(tmp_path)]) == 0
    for name in ("summary.csv", "curves.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
