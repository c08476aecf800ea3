"""Seeded reproducibility across the scalar and batch engines.

The contract the batch subsystem is built on: a fixed seed fully determines
every Monte-Carlo outcome, and it determines the *same* outcome no matter
which engine runs it.  These tests pin that contract for both network-level
case studies.
"""

from __future__ import annotations

import pytest

from repro.channel.interference import InterferenceEnvironment, Jammer
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.lora.parameters import DownlinkParameters
from repro.net.channel_hopping import ChannelHopController, ChannelPlan
from repro.sim.network import FeedbackNetworkSimulator

SEEDS = (0, 1, 2024)
ENGINES = ("scalar", "batch")


def _network_simulator() -> FeedbackNetworkSimulator:
    return FeedbackNetworkSimulator(
        uplink_success_probability=lambda tag, channel: 0.6,
        downlink_rss_dbm=lambda tag: -60.0,
        config=SaiyanConfig(downlink=DownlinkParameters(spreading_factor=7,
                                                        bandwidth_hz=500e3,
                                                        bits_per_chirp=2),
                            mode=SaiyanMode.SUPER),
    )


def _hop_controller() -> ChannelHopController:
    interference = InterferenceEnvironment()
    interference.add(Jammer(frequency_hz=433.5e6, power_dbm=20.0,
                            bandwidth_hz=1.2e6, distance_m=3.0))
    return ChannelHopController(
        plan=ChannelPlan(base_frequency_hz=433.5e6, spacing_hz=500e3,
                         num_channels=4),
        interference=interference, interference_threshold_dbm=-80.0)


def test_different_seeds_give_different_outcomes():
    outcomes = [_network_simulator().run_retransmission_experiment(
        num_packets=800, max_retransmissions=2, random_state=seed)
        for seed in range(8)]
    assert any(outcome != outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("seed", SEEDS)
def test_retransmission_same_seed_same_outcome_across_engines(seed):
    outcomes = {}
    for engine in ENGINES:
        runs = []
        for _ in range(2):
            simulator = _network_simulator()
            runs.append(simulator.run_retransmission_experiment(
                num_packets=800, max_retransmissions=2, random_state=seed,
                engine=engine))
        assert runs[0] == runs[1], f"{engine} engine is not seed-deterministic"
        outcomes[engine] = runs[0]
    assert outcomes["scalar"] == outcomes["batch"]


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_hopping_same_seed_same_outcome_across_engines(seed):
    outcomes = {}
    for engine in ENGINES:
        runs = []
        for _ in range(2):
            simulator = _network_simulator()
            windows = simulator.run_channel_hopping_experiment(
                hop_controller=_hop_controller(), num_windows=20,
                packets_per_window=15, hop_after_window=10,
                random_state=seed, engine=engine)
            runs.append(tuple((w.window_index, w.channel_index, w.jammed, w.prr)
                              for w in windows))
        assert runs[0] == runs[1], f"{engine} engine is not seed-deterministic"
        outcomes[engine] = runs[0]
    assert outcomes["scalar"] == outcomes["batch"]
