"""The storage crash-point matrix, run as a test.

CI's ``chaos-storage`` job runs the full matrix over three seeds; this
file keeps a smaller always-on slice in the tier-1 suite so a
durability regression fails ``pytest`` directly, with the failing
``(site, kind, seed)`` and its one-line repro command in the report.
"""

import warnings

import pytest

from repro.resilience.chaos import STORAGE, run_cell, run_matrix


@pytest.mark.parametrize("site,kind", STORAGE.keys)
def test_matrix_cell(site, kind, tmp_path):
    """Every data-path (site, kind) with one seed: recovery must equal
    the acknowledged prefix (in-flight statement allowed), or the node
    must be cleanly DEGRADED and still serving reads."""
    with warnings.catch_warnings():
        # torn-tail truncation warns by design; the matrix relies on it
        warnings.simplefilter("ignore")
        cell = run_cell(STORAGE, (site, kind), seed=0, data_dir=str(tmp_path))
    assert cell["passed"], (
        f"matrix cell failed: {cell['failure']}\n"
        f"repro: PYTHONPATH=src python -m repro.resilience.chaos storage "
        f"--only {site} --seeds 0"
    )
    assert cell["fault_fired"], "fault never fired: the site was not reached"


def test_matrix_report_shape():
    """One tiny end-to-end run through the report/tally plumbing."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_matrix(STORAGE, [1], only=["commandlog.fsync"], steps=10)
    assert report["cells"] == 3  # crash, eio, enospc
    assert report["failed"] == 0, report["failures"]
    assert sum(report["outcomes"].values()) == 3
    assert report["seeds"] == [1]
