"""Tests for the store-backed report renderer: bytes, provenance, smoke."""

import pytest

from repro.report.render import load_bench, render_report, write_report
from repro.sim.batch import BatchRunner
from repro.sim.network_engine import run_scenario_stored
from repro.sim.scenario import get_scenario
from repro.sim.store import open_store


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    store = open_store(tmp_path_factory.mktemp("report-store"))
    BatchRunner(store=store).run(["fig22", "tab1"])
    run_scenario_stored(get_scenario("aloha-dense"), store=store)
    return store


def test_double_render_is_byte_identical(warm_store):
    first = render_report(warm_store)
    second = render_report(warm_store)
    assert first["markdown"] == second["markdown"]
    assert first["html"] == second["html"]
    assert first["experiments"] == second["experiments"]


def test_every_rendered_artefact_carries_provenance(warm_store):
    rendered = render_report(warm_store)
    summary = rendered["summary"]
    assert summary["figures"] == 2
    assert summary["scenarios"] == 1
    assert summary["artefacts"] == 3
    assert summary["missing_provenance"] == []
    markdown = rendered["markdown"]
    # Per-artefact provenance footnotes: digest, seed, fingerprint and the
    # environment the entry was computed under.
    for item in ("fig22", "tab1", "aloha-dense"):
        assert item in markdown
    assert "digest" in markdown
    assert "fingerprint" in markdown
    assert "numpy" in markdown


def test_unrendered_units_are_listed_as_missing(warm_store):
    summary = render_report(warm_store)["summary"]
    # Everything not in the fixture store is declared missing, never
    # silently dropped.
    assert "figure:fig21" in summary["missing"]
    assert "scenario:arq-outdoor" in summary["missing"]


def test_experiments_text_is_host_independent(warm_store):
    # EXPERIMENTS.md is byte-diffed in CI, so it must carry no store
    # digest, code fingerprint or library version.
    experiments = render_report(warm_store, bench=load_bench())["experiments"]
    assert experiments.startswith("# EXPERIMENTS")
    for word in ("digest", "fingerprint", "numpy"):
        assert word not in experiments


def test_claims_for_absent_artefacts_read_missing(warm_store):
    rendered = render_report(warm_store)
    for text in (rendered["experiments"], rendered["markdown"]):
        assert ("| Fig. 21 | outdoor range: Saiyan / PLoRa / Aloba "
                "| 148.6 / 42.4 / 30.6 m | missing |") in text
        assert "| Fig. 22 | maximum detection distance | ~180 m | missing |" not in text
        assert "| `arq-outdoor` | 1 | arq | missing | missing | missing | missing |" in text
        assert "| `aloha-dense` | 8 | aloha-mac | missing" not in text


def test_render_includes_bench_gates_when_available(warm_store):
    bench = load_bench()
    assert bench is not None  # the committed BENCH_batch.json
    markdown = render_report(warm_store, bench=bench)["markdown"]
    assert "Benchmark" in markdown
    without = render_report(warm_store, bench=None)["markdown"]
    assert "Benchmark" not in without


def test_render_has_no_wall_clock_leakage(warm_store):
    # Byte-reproducibility rests on the render being a pure function of
    # the store: no timestamps, no hostnames.
    import datetime
    import platform

    markdown = render_report(warm_store)["markdown"]
    assert str(datetime.date.today().year) + "-" not in markdown
    assert platform.node() == "" or platform.node() not in markdown


def test_write_report_writes_both_formats(warm_store, tmp_path):
    summary = write_report(warm_store, tmp_path / "out", bench_path=None)
    assert sorted(summary["paths"]) == ["experiments", "html", "md"]
    assert summary["paths"]["experiments"] == str(tmp_path / "out" / "EXPERIMENTS.md")
    assert (tmp_path / "out" / "EXPERIMENTS.md").read_text() == \
        render_report(warm_store)["experiments"]
    report_md = (tmp_path / "out" / "report.md").read_text()
    report_html = (tmp_path / "out" / "report.html").read_text()
    assert "fig22" in report_md
    assert report_html.startswith("<!DOCTYPE html>") or "<html" in report_html
    assert "<svg" in report_html  # charts are inline, self-contained


def test_empty_store_renders_an_empty_report(tmp_path):
    store = open_store(tmp_path / "empty")
    summary = render_report(store)["summary"]
    assert summary["artefacts"] == 0
    assert summary["missing"]  # everything is missing, and says so


def test_load_bench_degrades_to_none(tmp_path):
    assert load_bench(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    assert load_bench(bad) is None
