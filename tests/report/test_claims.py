"""Tests for the paper-vs-reproduction claims behind EXPERIMENTS.md.

Every formatter runs on its artefact's committed golden fixture, so a
renamed scalar or series fails here rather than only in the CI byte diff
of the rendered file.
"""

import json
from pathlib import Path

import pytest

from repro.report.claims import CLAIMS, MISSING, PAPER_CLAIMS, WAVEFORM_CLAIMS, claim_rows
from repro.sim.experiments import FIGURE_DRIVERS
from repro.sim.metrics import SweepResult

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden"


def _golden(artefact: str) -> SweepResult:
    return SweepResult.from_dict(
        json.loads((GOLDEN / f"{artefact}.json").read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def goldens():
    return {name: _golden(name) for name in sorted(FIGURE_DRIVERS)}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{c.label}:{c.quantity}")
def test_claim_names_registered_artefacts(claim):
    assert claim.artefacts
    for artefact in claim.artefacts:
        assert artefact in FIGURE_DRIVERS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: f"{c.label}:{c.quantity}")
def test_claim_formatter_runs_on_the_golden_fixture(claim, goldens):
    measured = claim.measured(goldens)
    assert isinstance(measured, str)
    assert measured and measured != MISSING
    assert "|" not in measured  # would break the markdown table


def test_absent_artefact_renders_missing_without_raising():
    rows = claim_rows(CLAIMS, {})
    assert len(rows) == len(CLAIMS)
    assert all(row[-1] == MISSING for row in rows)


def test_paper_column_only_on_paper_claims():
    assert all(claim.paper for claim in PAPER_CLAIMS)
    assert all(claim.paper is None for claim in WAVEFORM_CLAIMS)
    assert {len(row) for row in claim_rows(PAPER_CLAIMS, {})} == {4}
    assert {len(row) for row in claim_rows(WAVEFORM_CLAIMS, {})} == {3}


def test_committed_experiments_rows_match_the_goldens(goldens):
    # The committed file is rendered from live payloads that match the
    # fixtures within 1e-9, so its claim rows are the golden rows.
    committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    for row in claim_rows(CLAIMS, goldens):
        assert "| " + " | ".join(row) + " |" in committed
