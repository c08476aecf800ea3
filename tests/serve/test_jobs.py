"""Job vocabulary tests: parsing, key sharing with the engines, decode.

The serve layer's load-bearing invariant is that :func:`job_store_key`
builds the *same* content address the one-shot engine paths build, so a
result computed by either side is a store hit for the other.  Each kind
gets a cross-check against its engine's own persistence.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.serve.jobs import (UNKNOWN_COST_PRIORITY, JobSpec, cost_profile,
                              decode_payload, execute_job, job_store_key,
                              parse_job, predict_priority)
from repro.sim.store import ResultStore


# ---------------------------------------------------------------------------
# parse_job
# ---------------------------------------------------------------------------

def test_parse_minimal_figure_job_defaults():
    spec = parse_job({"kind": "figure", "name": "fig7"})
    assert spec == JobSpec(kind="figure", name="fig7", seed=None,
                           engine="batch", precision="reference")


def test_parse_rejects_unknown_kind_name_and_fields():
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "poem", "name": "fig7"})
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "figure", "name": "fig999"})
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "figure", "name": "fig7", "sede": 3})
    with pytest.raises(ConfigurationError):
        parse_job("fig7")


def test_parse_rejects_non_integer_seeds():
    for seed in (True, 1.5, "7"):
        with pytest.raises(ConfigurationError):
            parse_job({"kind": "figure", "name": "fig7", "seed": seed})
    assert parse_job({"kind": "figure", "name": "fig7", "seed": 7}).seed == 7


def test_parse_engine_rules_per_kind():
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "figure", "name": "fig7", "engine": "event"})
    # scenario accepts the event alias and normalizes it
    spec = parse_job({"kind": "scenario", "name": "aloha-dense",
                      "engine": "scalar"})
    assert spec.engine == "event"
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "scenario", "name": "aloha-dense",
                   "engine": "serial"})
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "waveform", "name": "modes", "engine": "event"})


def test_parse_precision_rules():
    spec = parse_job({"kind": "waveform", "name": "modes", "precision": "fast"})
    assert spec.precision == "fast"
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "waveform", "name": "modes", "engine": "serial",
                   "precision": "fast"})
    with pytest.raises(ConfigurationError):
        parse_job({"kind": "figure", "name": "fig7", "precision": "fast"})


# ---------------------------------------------------------------------------
# Key sharing with the one-shot engine paths
# ---------------------------------------------------------------------------

def test_figure_key_matches_batch_runner_entry(tmp_path):
    from repro.sim.batch import BatchRunner

    store = ResultStore(tmp_path)
    BatchRunner(store=store).run(["fig5"])
    spec = parse_job({"kind": "figure", "name": "fig5"})
    assert store.get(job_store_key(spec)) is not None


def test_scenario_key_matches_engine_entry(tmp_path):
    from repro.sim.network_engine import run_scenario_stored
    from repro.sim.scenario import get_scenario

    store = ResultStore(tmp_path)
    run_scenario_stored(get_scenario("aloha-dense"), store=store)
    spec = parse_job({"kind": "scenario", "name": "aloha-dense"})
    assert store.get(job_store_key(spec)) is not None


def test_seed_override_changes_the_key():
    default = job_store_key(parse_job({"kind": "scenario",
                                       "name": "aloha-dense"}))
    other = job_store_key(parse_job({"kind": "scenario",
                                     "name": "aloha-dense", "seed": 99}))
    assert ResultStore.digest(default) != ResultStore.digest(other)
    # the default-seed request aliases the explicit default seed
    from repro.sim.scenario import get_scenario

    explicit = job_store_key(parse_job({
        "kind": "scenario", "name": "aloha-dense",
        "seed": get_scenario("aloha-dense").seed}))
    assert ResultStore.digest(default) == ResultStore.digest(explicit)


# ---------------------------------------------------------------------------
# Cost profile / priority
# ---------------------------------------------------------------------------

def test_cost_profile_matches_engine_vocabulary():
    assert cost_profile(parse_job({"kind": "figure", "name": "fig7"})) == (
        "artefact:fig7", 1.0)
    kind, units = cost_profile(parse_job({"kind": "scenario",
                                          "name": "aloha-dense",
                                          "engine": "event"}))
    assert kind == "scenario:event:aloha-dense" and units == 1.0
    kind, units = cost_profile(parse_job({"kind": "waveform", "name": "modes"}))
    assert kind == "waveform:batch:reference" and units > 0


def test_predict_priority_cold_kind_sorts_last():
    from repro.sim.execution import CostModel

    model = CostModel()
    spec = parse_job({"kind": "figure", "name": "fig7"})
    assert predict_priority(spec, model) == UNKNOWN_COST_PRIORITY
    model.observe("artefact:fig7", 1.0, 0.25)
    assert predict_priority(spec, model) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# execute / decode round trips
# ---------------------------------------------------------------------------

def test_execute_figure_job_round_trip(tmp_path):
    from repro.sim.experiments import FIGURE_DRIVERS

    store = ResultStore(tmp_path)
    spec = parse_job({"kind": "figure", "name": "fig5"})
    payload, provenance = execute_job(spec, store)
    assert provenance == "miss"
    assert payload == FIGURE_DRIVERS["fig5"]().to_dict()
    again, provenance = execute_job(spec, store)
    assert provenance == "hit" and again == payload
    result = decode_payload(spec, payload)
    assert result.to_dict() == payload


def test_execute_scenario_job_decodes_to_sweep_result(tmp_path):
    from repro.sim.network_engine import ScenarioResult

    store = ResultStore(tmp_path)
    spec = parse_job({"kind": "scenario", "name": "aloha-dense"})
    payload, provenance = execute_job(spec, store)
    assert provenance == "miss"
    decoded = decode_payload(spec, payload)
    expected = ScenarioResult.from_dict(payload).to_sweep_result()
    assert decoded.to_dict() == expected.to_dict()


def test_execute_without_store_reports_off():
    spec = parse_job({"kind": "figure", "name": "fig5"})
    payload, provenance = execute_job(spec, None)
    assert provenance == "off" and payload["title"]
