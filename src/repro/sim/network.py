"""Network-level simulation of the feedback loop (§5.3 case studies).

:class:`FeedbackNetworkSimulator` is the calibrated-probability front end
to the scenario engine: it wires a single tag, the uplink/downlink success
callables and the ARQ / channel-hopping controllers into an ad-hoc
:class:`~repro.sim.scenario.ScenarioSpec` and runs it through
:func:`~repro.sim.network_engine.run_scenario`, reproducing the two case
studies:

* **Packet retransmission** (Figure 26) — PRR as a function of the number of
  allowed retransmissions, for links whose first-attempt loss rate matches
  the paper's PLoRa/Aloba measurements at 100 m.
* **Channel hopping** (Figure 27) — per-window PRR before and after the
  access point commands a hop away from a jammed channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.config import SaiyanConfig
from repro.exceptions import ConfigurationError
from repro.net.channel_hopping import ChannelHopController
from repro.net.tag import BackscatterTag
from repro.sim.metrics import packet_reception_ratio
from repro.utils.rng import RandomState
from repro.utils.validation import ensure_integer


@dataclass
class RetransmissionExperimentResult:
    """Outcome of one retransmission experiment run."""

    max_retransmissions: int
    packets: int
    delivered: int
    total_transmissions: int
    feedback_heard: int
    feedback_missed: int

    @property
    def prr(self) -> float:
        """Packet reception ratio after retransmissions."""
        return packet_reception_ratio(self.delivered, self.packets)

    @property
    def mean_transmissions_per_packet(self) -> float:
        """Average number of transmission attempts per packet."""
        if self.packets == 0:
            return 0.0
        return self.total_transmissions / self.packets


@dataclass
class ChannelHoppingWindow:
    """PRR observed in one measurement window of the hopping experiment."""

    window_index: int
    channel_index: int
    jammed: bool
    prr: float


def _engine_name(engine: str) -> str:
    """Map the historical engine names onto the scenario engine's."""
    if engine not in ("batch", "scalar", "event"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'batch', 'event' or 'scalar'")
    return engine


@dataclass
class FeedbackNetworkSimulator:
    """Simulates tags + access point + feedback loop at the packet level.

    Parameters
    ----------
    uplink_success_probability:
        Callable ``(tag, channel_index) -> probability`` that one uplink
        transmission is received by the access point.
    downlink_rss_dbm:
        Callable ``(tag) -> RSS`` of the feedback downlink at the tag, used
        to decide whether the tag can demodulate feedback at all (this is
        exactly the capability Saiyan adds).
    config:
        Saiyan configuration shared by the tags.
    """

    uplink_success_probability: Callable[[BackscatterTag, int], float]
    downlink_rss_dbm: Callable[[BackscatterTag], float]
    config: SaiyanConfig = field(default_factory=SaiyanConfig)

    # ------------------------------------------------------------------
    def _base_spec(self, name: str, **overrides):
        from repro.sim.scenario import ScenarioSpec

        return ScenarioSpec(
            name=name,
            tag_distances_m=(1.0,),  # unused: both link callables override
            mode=self.config.mode,
            downlink=self.config.downlink,
            uplink_probability_override=self.uplink_success_probability,
            downlink_rss_override=self.downlink_rss_dbm,
            **overrides,
        )

    def run_retransmission_experiment(self, *, num_packets: int = 1000,
                                      max_retransmissions: int = 3,
                                      tag_id: int = 1,
                                      random_state: RandomState = None,
                                      engine: str = "batch"
                                      ) -> RetransmissionExperimentResult:
        """Run the Figure 26 experiment for one tag.

        Each packet is transmitted once; if the access point misses it and
        the retransmission budget allows, a RETRANSMIT command is sent.  The
        tag only retransmits if it can demodulate the command (downlink RSS
        above its sensitivity) — without Saiyan that step always fails and
        the PRR stays at the single-shot value.

        The default ``engine="batch"`` evaluates every uplink attempt as one
        block of array draws; ``engine="scalar"`` runs the packet-by-packet
        protocol loop on the discrete-event scheduler.  Both engines share
        the same substream discipline, so a fixed seed gives bit-identical
        results either way.  The link is treated as stationary over one
        experiment: the uplink-probability and downlink-RSS callables are
        sampled once per run, so the parity contract also holds for
        stochastic or stateful callables.
        """
        from repro.sim.network_engine import run_scenario
        from repro.sim.scenario import ArqSpec

        num_packets = ensure_integer(num_packets, "num_packets", minimum=1)
        max_retransmissions = ensure_integer(
            max_retransmissions, "max_retransmissions", minimum=0, maximum=16)
        spec = self._base_spec(
            "feedback-retransmission",
            num_windows=1,
            packets_per_window=num_packets,
            arq=ArqSpec(max_retransmissions=max_retransmissions),
            tag_ids=(tag_id,),
        )
        result = run_scenario(spec, random_state=random_state,
                              engine=_engine_name(engine))
        report = result.tags[0]
        return RetransmissionExperimentResult(
            max_retransmissions=max_retransmissions,
            packets=num_packets,
            delivered=report.delivered,
            total_transmissions=report.transmissions,
            feedback_heard=report.feedback_heard,
            feedback_missed=report.feedback_missed,
        )

    # ------------------------------------------------------------------
    def run_channel_hopping_experiment(self, *, hop_controller: ChannelHopController,
                                       num_windows: int = 50,
                                       packets_per_window: int = 20,
                                       hop_after_window: int | None = None,
                                       tag_id: int = 1,
                                       random_state: RandomState = None,
                                       engine: str = "batch"
                                       ) -> list[ChannelHoppingWindow]:
        """Run the Figure 27 experiment.

        The tag starts on channel 0.  After each window the access point
        checks the spectrum monitor; if the channel is jammed (and the
        optional ``hop_after_window`` gate has passed) it commands a hop to
        the cleanest channel, which the tag obeys if it can hear the
        command.  The per-window PRR before and after the hop forms the CDF
        the paper plots.

        The default ``engine="batch"`` draws each window's uplink attempts
        as one block; ``engine="scalar"`` runs the per-packet loop on the
        discrete-event scheduler.  Both engines agree bit-for-bit under a
        fixed seed.
        """
        from repro.sim.network_engine import run_scenario
        from repro.sim.scenario import HoppingSpec

        num_windows = ensure_integer(num_windows, "num_windows", minimum=1)
        packets_per_window = ensure_integer(packets_per_window,
                                            "packets_per_window", minimum=1)
        spec = self._base_spec(
            "feedback-hopping",
            num_windows=num_windows,
            packets_per_window=packets_per_window,
            channel_plan=hop_controller.plan,
            hopping=HoppingSpec(
                interference_threshold_dbm=hop_controller.interference_threshold_dbm,
                hop_after_window=hop_after_window),
            tag_ids=(tag_id,),
        )
        result = run_scenario(spec, random_state=random_state,
                              engine=_engine_name(engine),
                              hop_controller=hop_controller)
        return [
            ChannelHoppingWindow(
                window_index=window.window_index,
                channel_index=window.outcomes[0].channel_index,
                jammed=window.outcomes[0].jammed,
                prr=window.outcomes[0].prr,
            )
            for window in result.windows
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def prr_cdf(windows: list[ChannelHoppingWindow]) -> tuple[np.ndarray, np.ndarray]:
        """Return (sorted PRR values, cumulative fractions) across windows."""
        if not windows:
            raise ConfigurationError("no windows supplied to prr_cdf")
        values = np.sort(np.array([w.prr for w in windows]))
        fractions = np.arange(1, values.size + 1) / values.size
        return values, fractions
