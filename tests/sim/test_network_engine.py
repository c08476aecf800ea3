"""Tests for the scenario-driven multi-tag network engine."""

import json

import numpy as np
import pytest

from repro.channel.interference import Jammer
from repro.exceptions import ConfigurationError
from repro.sim.network_engine import run_scenario
from repro.sim.scenario import (
    SCENARIOS,
    ArqSpec,
    HoppingSpec,
    JammerPhase,
    MacSpec,
    RateAdaptationSpec,
    ScenarioSpec,
)


def _small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="test-spec",
        tag_distances_m=(8.0, 12.0),
        num_windows=4,
        packets_per_window=10,
        seed=5,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Engine parity: the acceptance contract of the whole subsystem
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registered_scenarios_are_bit_identical_across_engines(name):
    spec = SCENARIOS[name]
    event = run_scenario(spec, engine="event")
    batch = run_scenario(spec, engine="batch")
    assert event.comparison_key() == batch.comparison_key()
    assert event.engine == "event" and batch.engine == "batch"
    assert event.events_processed > 0
    assert batch.events_processed == 0


@pytest.mark.parametrize("controllers", [
    {},
    {"arq": ArqSpec(max_retransmissions=2)},
    {"mac": MacSpec(num_slots=4)},
    {"arq": ArqSpec(max_retransmissions=3), "mac": MacSpec(num_slots=4)},
    {"rate": RateAdaptationSpec(margin_steps_db=8.0),
     "arq": ArqSpec(max_retransmissions=1)},
])
def test_controller_combinations_are_bit_identical(controllers):
    spec = _small_spec(**controllers)
    event = run_scenario(spec, random_state=np.random.default_rng(99),
                         engine="event")
    batch = run_scenario(spec, random_state=np.random.default_rng(99),
                         engine="batch")
    assert event.comparison_key() == batch.comparison_key()


def test_jammer_phases_are_bit_identical_across_engines():
    spec = _small_spec(
        num_windows=8,
        hopping=HoppingSpec(interference_threshold_dbm=-80.0),
        jammers=(JammerPhase(
            jammer=Jammer(frequency_hz=433.4e6, power_dbm=20.0,
                          bandwidth_hz=1.2e6, distance_m=3.0, duty_cycle=0.5),
            start_window=2, end_window=6),),
    )
    event = run_scenario(spec, engine="event")
    batch = run_scenario(spec, engine="batch")
    assert event.comparison_key() == batch.comparison_key()
    jammed = [window.outcomes[0].jammed for window in batch.windows]
    assert jammed[:2] == [False, False]
    assert jammed[2] is True


def test_same_seed_reproduces_and_seeds_differ():
    spec = SCENARIOS["aloha-dense"]
    first = run_scenario(spec, random_state=7, engine="batch")
    second = run_scenario(spec, random_state=7, engine="batch")
    other = run_scenario(spec, random_state=8, engine="batch")
    assert first.comparison_key() == second.comparison_key()
    assert first.comparison_key() != other.comparison_key()


# ---------------------------------------------------------------------------
# Behaviour of the integrated controllers
# ---------------------------------------------------------------------------

def test_arq_lifts_prr_over_no_arq():
    base = _small_spec(tag_distances_m=(25.0,), num_windows=6,
                       packets_per_window=50)
    without = run_scenario(base, engine="batch")
    with_arq = run_scenario(base.with_(arq=ArqSpec(max_retransmissions=3)),
                            engine="batch")
    assert with_arq.prr > without.prr + 0.05
    assert with_arq.mean_transmissions_per_packet > 1.0


def test_aloha_contention_costs_throughput_and_counts_collisions():
    contended = run_scenario(SCENARIOS["aloha-dense"], engine="batch")
    assert contended.collisions > 0
    # Eight tags on eight slots: per-round success chance is (7/8)^7 ~ 0.39,
    # so the network PRR must sit far below the clean-link value.
    assert contended.prr < 0.55


def test_hopping_scenario_escapes_the_jammer():
    result = run_scenario(SCENARIOS["hopping-jammed"], engine="batch")
    assert result.hops_issued >= 1
    gate = SCENARIOS["hopping-jammed"].hopping.hop_after_window
    before = [w.prr for w in result.windows[:gate]]
    after = [w.prr for w in result.windows[gate + 1:]]
    assert np.mean(after) > np.mean(before) + 0.3
    assert result.tags[0].final_channel_index != 0


def test_rate_adaptation_differentiates_tags_by_distance():
    result = run_scenario(SCENARIOS["indoor-rate-adapt"], engine="batch")
    final_bits = [tag.final_bits_per_chirp for tag in result.tags]
    assert final_bits == sorted(final_bits, reverse=True)
    assert final_bits[0] > final_bits[-1]
    assert result.rate_changes >= len(result.tags)


def test_closer_tags_deliver_more():
    result = run_scenario(_small_spec(tag_distances_m=(6.0, 20.0),
                                      num_windows=6, packets_per_window=40),
                          engine="batch")
    near, far = result.tags
    assert near.prr > far.prr


# ---------------------------------------------------------------------------
# Result containers and validation
# ---------------------------------------------------------------------------

def test_scenario_result_totals_are_consistent():
    result = run_scenario(SCENARIOS["aloha-dense"], engine="batch")
    spec = SCENARIOS["aloha-dense"]
    assert result.packets == spec.num_tags * spec.num_windows * spec.packets_per_window
    assert result.delivered == sum(w.delivered for w in result.windows)
    assert 0.0 <= result.prr <= 1.0
    for tag in result.tags:
        assert 0 <= tag.delivered <= tag.packets
        assert tag.transmissions >= tag.delivered


def test_to_sweep_result_has_series_and_scalars():
    sweep = run_scenario(SCENARIOS["aloha-dense"], engine="batch").to_sweep_result()
    assert "network_prr" in sweep.series_names
    assert "tag_prr" in sweep.series_names
    assert "collisions_per_window" in sweep.series_names
    assert sweep.scalars["packets"] > 0
    assert 0.0 <= sweep.scalars["overall_prr_pct"] <= 100.0


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        run_scenario(_small_spec(), engine="gpu")


def test_invalid_override_probability_rejected():
    spec = _small_spec(uplink_probability_override=lambda tag, channel: 1.4)
    with pytest.raises(ConfigurationError):
        run_scenario(spec, engine="batch")


def test_event_engine_runs_on_the_scheduler():
    spec = _small_spec(num_windows=3, packets_per_window=5)
    result = run_scenario(spec, engine="event")
    # One begin + packets rounds + one finish per window.
    assert result.events_processed == 3 * (5 + 2)


def test_duplicate_tag_ids_rejected():
    spec = _small_spec(tag_ids=(1, 1))
    with pytest.raises(ConfigurationError, match="unique"):
        run_scenario(spec, engine="batch")


# ---------------------------------------------------------------------------
# Scenario grids on the execution fabric
# ---------------------------------------------------------------------------

def test_scenario_grid_parallel_matches_serial(monkeypatch):
    """The parallel grid under 1, 2 and 8 usable cores is byte-identical to
    the in-process grid, scenario by scenario."""
    from repro.sim import execution
    from repro.sim.network_engine import run_scenario_grid
    from repro.sim.scenario import scenario_names

    serial = run_scenario_grid(parallel=False)
    assert list(serial) == scenario_names()
    for cores in (1, 2, 8):
        monkeypatch.setattr(execution, "usable_cores", lambda cores=cores: cores)
        parallel = run_scenario_grid(parallel=True)
        assert list(parallel) == list(serial), cores
        for name in parallel:
            assert (json.dumps(parallel[name].to_dict(), sort_keys=True)
                    == json.dumps(serial[name].to_dict(), sort_keys=True)), \
                (cores, name)


def test_scenario_grid_matches_individual_runs_with_shared_seed():
    from repro.sim.network_engine import run_scenario_grid
    from repro.sim.scenario import get_scenario

    names = ["aloha-dense", "hopping-jammed"]
    grid = run_scenario_grid(names, random_state=17)
    for name in names:
        lone = run_scenario(get_scenario(name), random_state=17)
        assert grid[name].comparison_key() == lone.comparison_key(), name


def test_scenario_grid_validates_inputs():
    from repro.sim.network_engine import run_scenario_grid

    with pytest.raises(ConfigurationError):
        run_scenario_grid(random_state=np.random.default_rng(1))
    with pytest.raises(ConfigurationError):
        run_scenario_grid([])
    with pytest.raises(ConfigurationError):
        run_scenario_grid(engine="warp")
    with pytest.raises(ConfigurationError):
        run_scenario_grid(["no-such-scenario"])
