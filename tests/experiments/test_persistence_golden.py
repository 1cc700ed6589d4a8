"""Absolute golden digests of the persistence experiments (Figs. 6 and 7).

The differential tests pin the incremental timeline to the legacy engine;
these digests pin the report bytes themselves, so a change to code both
sides share still fails.  Regenerate with
``python -m scripts.persistence_digests --write`` and explain the change in
``CHANGES.md``.
"""

import hashlib

import pytest
from scripts.persistence_digests import EXPERIMENTS, recorded, report_json


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_persistence_report_matches_recorded_digest(experiment_id):
    digest = hashlib.sha256(report_json(experiment_id).encode()).hexdigest()
    assert digest == recorded()[experiment_id]


def test_fig6_keeps_its_simulation_note():
    """The note is part of the pinned bytes: word for word."""
    assert "re-simulated per snapshot" in report_json("fig6")
