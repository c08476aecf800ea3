"""Tests for the batch simulation engine (:mod:`repro.sim.batch`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.channel.environment import indoor_environment, outdoor_environment
from repro.channel.fading import NoFading
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.exceptions import ConfigurationError, LinkError
from repro.lora.parameters import DownlinkParameters
from repro.sim.batch import (
    BatchRunner,
    demodulation_ranges,
    detection_ranges,
)
from repro.sim.link_sim import BaselineLinkModel, SaiyanLinkModel
from repro.sim.metrics import SweepResult
from repro.sim.network import FeedbackNetworkSimulator


def _model(*, mode=SaiyanMode.SUPER, bits_per_chirp=2, spreading_factor=7,
           bandwidth_hz=500e3, environment=None):
    environment = environment or outdoor_environment(fading=NoFading())
    downlink = DownlinkParameters(spreading_factor=spreading_factor,
                                  bandwidth_hz=bandwidth_hz,
                                  bits_per_chirp=bits_per_chirp)
    return SaiyanLinkModel(config=SaiyanConfig(downlink=downlink, mode=mode),
                           link=environment.link_budget())


def _simulator(probability: float, rss_dbm: float) -> FeedbackNetworkSimulator:
    return FeedbackNetworkSimulator(
        uplink_success_probability=lambda tag, channel: probability,
        downlink_rss_dbm=lambda tag: rss_dbm,
        config=SaiyanConfig(downlink=DownlinkParameters(spreading_factor=7,
                                                        bandwidth_hz=500e3,
                                                        bits_per_chirp=2),
                            mode=SaiyanMode.SUPER),
    )


def _with_shadowing(model: SaiyanLinkModel, sigma_db: float) -> SaiyanLinkModel:
    from dataclasses import replace

    shadowed_link = replace(model.link,
                            path_loss=replace(model.link.path_loss,
                                              shadowing_sigma_db=sigma_db))
    return SaiyanLinkModel(config=model.config, link=shadowed_link,
                           saw_filter=model.saw_filter)


def test_unknown_engine_rejected():
    simulator = _simulator(0.5, -60.0)
    with pytest.raises(ConfigurationError):
        simulator.run_retransmission_experiment(num_packets=10, engine="gpu")
    from repro.net.channel_hopping import ChannelHopController, ChannelPlan
    from repro.channel.interference import InterferenceEnvironment

    controller = ChannelHopController(plan=ChannelPlan(base_frequency_hz=433.5e6,
                                                       spacing_hz=500e3,
                                                       num_channels=2),
                                      interference=InterferenceEnvironment(),
                                      interference_threshold_dbm=-80.0)
    with pytest.raises(ConfigurationError):
        simulator.run_channel_hopping_experiment(hop_controller=controller,
                                                 num_windows=2,
                                                 packets_per_window=2,
                                                 engine="gpu")


# ---------------------------------------------------------------------------
# Network-level engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_retransmissions", [0, 1, 3])
@pytest.mark.parametrize("probability,rss", [(0.45, -60.0), (0.82, -60.0),
                                             (0.45, -120.0)])
def test_retransmission_engines_are_bit_identical(max_retransmissions,
                                                  probability, rss):
    results = []
    for engine in ("batch", "scalar"):
        simulator = _simulator(probability, rss)
        results.append(simulator.run_retransmission_experiment(
            num_packets=1500, max_retransmissions=max_retransmissions,
            random_state=np.random.default_rng(42), engine=engine))
    assert results[0] == results[1]


def test_retransmission_engines_agree_with_stochastic_callables():
    # The link is stationary over one run: both engines sample the uplink
    # probability and downlink RSS callables exactly once, so stochastic
    # callables cannot break the bit-parity contract.
    results = []
    for engine in ("batch", "scalar"):
        callable_rng = np.random.default_rng(7)
        simulator = FeedbackNetworkSimulator(
            uplink_success_probability=lambda tag, channel: 0.3 + 0.4 * callable_rng.random(),
            downlink_rss_dbm=lambda tag: -88.0 + callable_rng.normal(0.0, 6.0),
            config=SaiyanConfig(downlink=DownlinkParameters(spreading_factor=7,
                                                            bandwidth_hz=500e3,
                                                            bits_per_chirp=2),
                                mode=SaiyanMode.SUPER),
        )
        results.append(simulator.run_retransmission_experiment(
            num_packets=500, max_retransmissions=3, random_state=11,
            engine=engine))
    assert results[0] == results[1]


def test_channel_hopping_engines_are_bit_identical():
    from repro.channel.interference import InterferenceEnvironment, Jammer
    from repro.net.channel_hopping import ChannelHopController, ChannelPlan

    outcomes = []
    for engine in ("batch", "scalar"):
        plan = ChannelPlan(base_frequency_hz=433.5e6, spacing_hz=500e3,
                           num_channels=4)
        interference = InterferenceEnvironment()
        interference.add(Jammer(frequency_hz=433.5e6, power_dbm=20.0,
                                bandwidth_hz=1.2e6, distance_m=3.0))
        controller = ChannelHopController(plan=plan, interference=interference,
                                          interference_threshold_dbm=-80.0)
        simulator = _simulator(0.9, -60.0)
        windows = simulator.run_channel_hopping_experiment(
            hop_controller=controller, num_windows=30, packets_per_window=20,
            hop_after_window=15, random_state=np.random.default_rng(27),
            engine=engine)
        outcomes.append([(w.window_index, w.channel_index, w.jammed, w.prr)
                         for w in windows])
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Vectorized range searches
# ---------------------------------------------------------------------------

def test_demodulation_ranges_match_scalar_bisection_exactly():
    environment = outdoor_environment(fading=NoFading())
    models = [_model(mode=mode, bits_per_chirp=k, environment=environment)
              for mode in (SaiyanMode.VANILLA, SaiyanMode.SUPER)
              for k in (1, 3, 5)]
    vectorized = demodulation_ranges(models)
    scalar = np.array([model.demodulation_range_m() for model in models])
    np.testing.assert_array_equal(vectorized, scalar)


def test_demodulation_ranges_handles_dead_and_saturated_models():
    environment = outdoor_environment(fading=NoFading())
    model = _model(environment=environment)
    dead = demodulation_ranges([model], ber_threshold=1e-8)  # below the clip floor
    assert dead[0] == model.demodulation_range_m(ber_threshold=1e-8) == 0.0
    saturated = demodulation_ranges([model], max_distance_m=1.0)
    assert saturated[0] == model.demodulation_range_m(max_distance_m=1.0) == 1.0


def test_detection_ranges_match_scalar_bisection_exactly():
    environment = outdoor_environment(fading=NoFading())
    link = environment.link_budget()
    saiyan = _model(environment=environment)
    baselines = [BaselineLinkModel(name, link) for name in ("plora", "aloba",
                                                            "envelope")]
    vectorized = detection_ranges([saiyan, *baselines])
    scalar = np.array([saiyan.detection_range_m()]
                      + [b.detection_range_m() for b in baselines])
    np.testing.assert_array_equal(vectorized, scalar)


def test_range_searches_validate_inputs():
    environment = outdoor_environment(fading=NoFading())
    with pytest.raises(ConfigurationError):
        demodulation_ranges([])
    with pytest.raises(ConfigurationError):
        detection_ranges([])
    with pytest.raises(LinkError):
        detection_ranges([_model(environment=environment)], probability=1.5)
    outdoor = _model(environment=environment)
    indoor = _model(environment=indoor_environment(num_walls=1, fading=NoFading()))
    with pytest.raises(ConfigurationError):
        demodulation_ranges([outdoor, indoor])  # links differ
    with pytest.raises(LinkError):
        demodulation_ranges([_with_shadowing(outdoor, 4.0)])  # stochastic link


# ---------------------------------------------------------------------------
# BatchRunner and manifests
# ---------------------------------------------------------------------------

def test_batch_runner_runs_selected_artefacts(tmp_path):
    runner = BatchRunner(manifest_dir=tmp_path)
    report = runner.run(["fig22", "tab2"])
    assert sorted(report.results) == ["fig22", "tab2"]
    assert isinstance(report.results["fig22"], SweepResult)
    assert report.total_wall_clock_s() > 0.0

    manifest = json.loads((tmp_path / "fig22.json").read_text())
    assert manifest["artefact"] == "fig22"
    assert manifest["driver"].endswith("figure22_sensitivity")
    assert manifest["engine"] == "batch"
    assert manifest["wall_clock_s"] > 0.0
    assert manifest["scalars"] == report.results["fig22"].scalars
    assert set(manifest["series_lengths"]) == set(report.results["fig22"].series_names)


def test_batch_runner_records_driver_seed_and_config(tmp_path):
    runner = BatchRunner(manifest_dir=tmp_path)
    runner.run(["fig26"])
    manifest = json.loads((tmp_path / "fig26.json").read_text())
    assert manifest["seed"] == 26
    assert manifest["config"]["num_packets"] == 1000


def test_batch_runner_custom_drivers():
    calls = []

    def driver() -> SweepResult:
        calls.append(True)
        result = SweepResult(title="custom")
        result.add_scalar("value", 1.0)
        return result

    report = BatchRunner({"custom": driver}).run()
    assert calls == [True]
    assert report.results["custom"].scalars["value"] == 1.0
    assert report.manifests["custom"].title == "custom"


def test_batch_runner_rejects_unknown_artefacts_and_seeded_parallel():
    runner = BatchRunner()
    with pytest.raises(ConfigurationError):
        runner.run(["nope"])
    with pytest.raises(ConfigurationError):
        runner.run(["fig16"], parallel=True, random_state=1)


def test_batch_runner_parallel_requires_registry_drivers():
    from repro.sim.experiments import FIGURE_DRIVERS

    # One custom driver among registry ones is enough to refuse the fan-out.
    runner = BatchRunner({"fig16": FIGURE_DRIVERS["fig16"],
                          "custom": lambda: SweepResult(title="x")})
    with pytest.raises(ConfigurationError):
        runner.run(parallel=True)


def test_batch_runner_parallel_matches_serial():
    artefacts = ["fig16", "fig22"]
    serial = BatchRunner().run(artefacts)
    parallel = BatchRunner().run(artefacts, parallel=True)
    for artefact in artefacts:
        assert (parallel.results[artefact].scalars
                == serial.results[artefact].scalars)
        assert (parallel.results[artefact].series_names
                == serial.results[artefact].series_names)


def test_batch_runner_parallel_full_registry_matches_serial_manifests(monkeypatch):
    """run(parallel=True) over the whole registry, under 1, 2 and 8 usable
    cores: byte-identical artefact payloads and identical RunManifest JSON,
    modulo wall-clock fields."""
    from repro.sim import execution

    serial = BatchRunner().run()
    for cores in (1, 2, 8):
        monkeypatch.setattr(execution, "usable_cores", lambda cores=cores: cores)
        parallel = BatchRunner().run(parallel=True)
        assert set(serial.manifests) == set(parallel.manifests), cores
        for artefact in serial.manifests:
            serial_manifest = serial.manifests[artefact].to_dict()
            parallel_manifest = parallel.manifests[artefact].to_dict()
            assert serial_manifest.pop("wall_clock_s") > 0
            assert parallel_manifest.pop("wall_clock_s") > 0
            assert serial_manifest == parallel_manifest, (cores, artefact)
            assert (json.dumps(serial.results[artefact].to_dict(), sort_keys=True)
                    == json.dumps(parallel.results[artefact].to_dict(),
                                  sort_keys=True)), (cores, artefact)


def test_batch_runner_parallel_goes_through_the_fabric(monkeypatch):
    from repro.sim import execution

    fabric = execution.get_fabric()
    # Two usable cores make the rule fan out even on single-core hosts,
    # where it would route the run serially.
    monkeypatch.setattr(execution, "usable_cores", lambda: 2)
    BatchRunner().run(["fig16", "tab2"], parallel=True)  # ensure the pool exists
    pools_before = fabric.pools_created
    jobs_before = fabric.jobs_dispatched
    report = BatchRunner().run(["fig16", "tab2"], parallel=True)
    assert report.schedule == "parallel"
    assert fabric.pools_created == pools_before
    assert fabric.jobs_dispatched == jobs_before + 2


def test_batch_runner_parallel_request_on_one_core_runs_serially(monkeypatch):
    from repro.sim import execution

    monkeypatch.setattr(execution, "usable_cores", lambda: 1)
    jobs_before = execution.get_fabric().jobs_dispatched
    report = BatchRunner().run(["fig16", "tab2"], parallel=True)
    assert report.schedule == "serial (one core or job)"
    assert execution.get_fabric().jobs_dispatched == jobs_before


def test_batch_runner_run_parallel_kwarg_requires_registry_drivers():
    runner = BatchRunner({"custom": lambda: SweepResult(title="x")})
    with pytest.raises(ConfigurationError):
        runner.run(parallel=True)
