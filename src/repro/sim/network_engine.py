"""Scenario-driven multi-tag network engine on the discrete-event core.

:func:`run_scenario` executes any :class:`~repro.sim.scenario.ScenarioSpec`
in one of two engines:

* ``engine="event"`` — the reference implementation: every measurement
  window, packet round and controller decision is an event on the
  :class:`~repro.sim.events.EventScheduler` virtual clock, and the full
  protocol objects act it out (:class:`~repro.net.tag.BackscatterTag`,
  :class:`~repro.net.access_point.AccessPoint`,
  :class:`~repro.net.mac.SlottedAlohaMac`,
  :class:`~repro.net.channel_hopping.ChannelHopController`,
  :class:`~repro.net.rate_adaptation.RateAdapter`).
* ``engine="batch"`` — the vectorized path
  (:func:`repro.sim.batch.run_scenario_windows`): each window's packet
  rounds are evaluated as whole-array operations.

Both engines split the seed into the same per-category substreams (payload
bits, uplink attempts, ALOHA slots — extending the PR 1 discipline) and
consume each stream identically, so a fixed seed produces **bit-identical**
:class:`ScenarioResult` outcomes on either path.  Sequential control flow
(window boundaries, hop and rate commands, jammer phases) is shared code
between the engines, which is what keeps the feedback loop semantics from
drifting apart.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.config import SaiyanConfig
from repro.exceptions import ConfigurationError
from repro.sim.events import EventScheduler
from repro.sim.metrics import SeriesResult, SweepResult, packet_reception_ratio
from repro.sim.scenario import ScenarioSpec
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import ensure_probability

#: Virtual seconds per packet round in the event engine; windows are spaced
#: so that window boundaries and packet rounds never share a timestamp.
_SLOT_DURATION_S: float = 1.0

#: Interference level above which a channel counts as jammed when the
#: scenario has no hopping controller to define its own threshold.
_DEFAULT_JAMMED_THRESHOLD_DBM: float = -80.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TagWindowOutcome:
    """What one tag experienced during one measurement window."""

    tag_id: int
    channel_index: int
    jammed: bool
    bits_per_chirp: int
    packets: int
    delivered: int
    transmissions: int
    collisions: int

    @property
    def prr(self) -> float:
        """Per-window packet reception ratio of this tag."""
        return packet_reception_ratio(self.delivered, self.packets)


@dataclass(frozen=True)
class NetworkWindow:
    """One measurement window across every tag."""

    window_index: int
    outcomes: tuple[TagWindowOutcome, ...]

    @property
    def packets(self) -> int:
        """Packets offered network-wide this window."""
        return sum(outcome.packets for outcome in self.outcomes)

    @property
    def delivered(self) -> int:
        """Packets delivered network-wide this window."""
        return sum(outcome.delivered for outcome in self.outcomes)

    @property
    def prr(self) -> float:
        """Network-wide packet reception ratio this window."""
        return packet_reception_ratio(self.delivered, self.packets)

    @property
    def collisions(self) -> int:
        """ALOHA collisions network-wide this window."""
        return sum(outcome.collisions for outcome in self.outcomes)


@dataclass(frozen=True)
class TagReport:
    """Whole-run totals for one tag."""

    tag_id: int
    distance_m: float
    can_hear_feedback: bool
    packets: int
    delivered: int
    transmissions: int
    collisions: int
    feedback_heard: int
    feedback_missed: int
    final_channel_index: int
    final_bits_per_chirp: int

    @property
    def prr(self) -> float:
        """Whole-run packet reception ratio of this tag."""
        return packet_reception_ratio(self.delivered, self.packets)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run (engine-independent under a fixed seed)."""

    scenario: str
    engine: str
    seed: int | None
    windows: list[NetworkWindow] = field(default_factory=list)
    tags: list[TagReport] = field(default_factory=list)
    hops_issued: int = 0
    rate_changes: int = 0
    events_processed: int = 0
    description: str = ""

    # ------------------------------------------------------------------
    @property
    def packets(self) -> int:
        """Packets offered across the whole run."""
        return sum(tag.packets for tag in self.tags)

    @property
    def delivered(self) -> int:
        """Packets delivered across the whole run."""
        return sum(tag.delivered for tag in self.tags)

    @property
    def prr(self) -> float:
        """Network-wide packet reception ratio of the run."""
        return packet_reception_ratio(self.delivered, self.packets)

    @property
    def collisions(self) -> int:
        """ALOHA collisions across the whole run."""
        return sum(tag.collisions for tag in self.tags)

    @property
    def mean_transmissions_per_packet(self) -> float:
        """Average uplink transmissions spent per offered packet."""
        if self.packets == 0:
            return 0.0
        return sum(tag.transmissions for tag in self.tags) / self.packets

    def comparison_key(self):
        """Everything two engines must agree on, as one comparable value."""
        return (tuple(self.windows), tuple(self.tags), self.hops_issued,
                self.rate_changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation (result-store payload format).

        Every field is an int, float, str or a nesting thereof, so a
        JSON round-trip (:meth:`from_dict`) rebuilds an equal result —
        which is what lets the content-addressed store replay scenario
        runs bit-identically.
        """
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "windows": [{"window_index": window.window_index,
                         "outcomes": [asdict(outcome)
                                      for outcome in window.outcomes]}
                        for window in self.windows],
            "tags": [asdict(tag) for tag in self.tags],
            "hops_issued": self.hops_issued,
            "rate_changes": self.rate_changes,
            "events_processed": self.events_processed,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output."""
        windows = [NetworkWindow(
            window_index=entry["window_index"],
            outcomes=tuple(TagWindowOutcome(**outcome)
                           for outcome in entry["outcomes"]))
            for entry in data["windows"]]
        tags = [TagReport(**tag) for tag in data["tags"]]
        return cls(scenario=data["scenario"], engine=data["engine"],
                   seed=data["seed"], windows=windows, tags=tags,
                   hops_issued=data["hops_issued"],
                   rate_changes=data["rate_changes"],
                   events_processed=data.get("events_processed", 0),
                   description=data.get("description", ""))

    def to_sweep_result(self) -> SweepResult:
        """Flatten the run into the library's standard result container."""
        result = SweepResult(title=f"Scenario: {self.scenario}")
        windows = range(len(self.windows))
        result.add_series(SeriesResult.from_arrays(
            "network_prr", windows, [w.prr * 100.0 for w in self.windows],
            x_label="window", y_label="PRR (%)"))
        result.add_series(SeriesResult.from_arrays(
            "tag_prr", [tag.tag_id for tag in self.tags],
            [tag.prr * 100.0 for tag in self.tags],
            x_label="tag id", y_label="PRR (%)"))
        if any(w.collisions for w in self.windows):
            result.add_series(SeriesResult.from_arrays(
                "collisions_per_window", windows,
                [w.collisions for w in self.windows],
                x_label="window", y_label="collisions"))
        if self.rate_changes:
            result.add_series(SeriesResult.from_arrays(
                "final_bits_per_chirp", [tag.tag_id for tag in self.tags],
                [tag.final_bits_per_chirp for tag in self.tags],
                x_label="tag id", y_label="bits per chirp"))
        result.add_scalar("overall_prr_pct", self.prr * 100.0)
        result.add_scalar("packets", float(self.packets))
        result.add_scalar("delivered", float(self.delivered))
        result.add_scalar("collisions", float(self.collisions))
        result.add_scalar("hops_issued", float(self.hops_issued))
        result.add_scalar("rate_changes", float(self.rate_changes))
        result.add_scalar("feedback_heard",
                          float(sum(t.feedback_heard for t in self.tags)))
        result.add_scalar("feedback_missed",
                          float(sum(t.feedback_missed for t in self.tags)))
        result.add_scalar("mean_transmissions_per_packet",
                          self.mean_transmissions_per_packet)
        result.notes = (f"{self.description} [engine={self.engine}, "
                        f"seed={self.seed}, tags={len(self.tags)}, "
                        f"windows={len(self.windows)}]")
        return result


# ---------------------------------------------------------------------------
# Shared run state: everything both engines must do identically
# ---------------------------------------------------------------------------

class ScenarioRun:
    """Prepared state of one scenario execution.

    Holds the protocol objects, the per-category RNG substreams and the
    sequential feedback-loop logic (:meth:`begin_window`,
    :meth:`record_window`, :meth:`end_window`) that the event-driven and
    batch engines share.  The engines differ only in how each window's
    packet rounds are evaluated.
    """

    def __init__(self, spec: ScenarioSpec, *, random_state: RandomState,
                 hop_controller=None) -> None:
        from repro.baselines.standard_lora import StandardLoRaReceiver
        from repro.channel.backscatter_link import BackscatterLink
        from repro.channel.interference import InterferenceEnvironment
        from repro.net.access_point import AccessPoint
        from repro.net.channel_hopping import ChannelHopController
        from repro.net.mac import SlottedAlohaMac
        from repro.net.rate_adaptation import RateAdapter
        from repro.net.retransmission import RetransmissionPolicy
        from repro.net.tag import BackscatterTag

        self.spec = spec
        rng = as_rng(spec.seed if random_state is None else random_state)
        # Substream discipline: payload and attempt streams first so the
        # single-tag specs consume the seed exactly as the PR 1 network
        # engines did (SeedSequence children are prefix-stable); the slot
        # stream extends the family for MAC-enabled scenarios.
        self.payload_rng, self.attempt_rng, self.slot_rng = rng.spawn(3)

        self.max_retransmissions = (spec.arq.max_retransmissions
                                    if spec.arq is not None else 0)
        self.attempts = 1 + self.max_retransmissions
        config = SaiyanConfig(downlink=spec.downlink, mode=spec.mode)
        self.tags = [
            BackscatterTag(tag_id, config=config,
                           payload_bits_per_packet=spec.payload_bits)
            for tag_id in self._tag_ids()
        ]
        self.mac = (SlottedAlohaMac(num_slots=spec.mac.num_slots)
                    if spec.mac is not None else None)

        # Spectrum plumbing.  When the caller supplies a hop controller
        # (the FeedbackNetworkSimulator compatibility path) its jammer set
        # is caller-managed; a spec-driven run rebuilds the shared
        # interference environment from the jammer phases at each window.
        if hop_controller is not None:
            self.hop_controller = hop_controller
            self.interference = hop_controller.interference
        elif spec.hopping is not None:
            self.interference = InterferenceEnvironment()
            self.hop_controller = ChannelHopController(
                plan=spec.channel_plan, interference=self.interference,
                interference_threshold_dbm=spec.hopping.interference_threshold_dbm)
        else:
            self.interference = InterferenceEnvironment()
            self.hop_controller = None

        rate_adapter = (RateAdapter(margin_steps_db=spec.rate.margin_steps_db,
                                    hysteresis_db=spec.rate.hysteresis_db,
                                    min_bits=spec.rate.min_bits,
                                    max_bits=spec.rate.max_bits)
                        if spec.rate is not None else RateAdapter())
        self.access_point = AccessPoint(
            retransmission_policy=RetransmissionPolicy(
                max_retransmissions=self.max_retransmissions),
            hop_controller=self.hop_controller,
            rate_adapter=rate_adapter)

        # Deterministic link quantities, sampled once per run in tag order
        # (the link is stationary over one scenario execution).
        environment = spec.environment_preset()
        self.link = environment.link_budget()
        uplink = BackscatterLink(forward=self.link, backward=self.link)
        self.noise_dbm = float(self.link.noise_dbm(spec.downlink.bandwidth_hz))
        self.snr_threshold_db = float(StandardLoRaReceiver.snr_threshold_db(
            spec.downlink.spreading_factor))
        self.uplink_rss_dbm = [
            float(uplink.received_power_dbm(float(d), float(d)))
            for d in spec.tag_distances_m
        ]
        if spec.downlink_rss_override is not None:
            self.downlink_rss = [float(spec.downlink_rss_override(tag))
                                 for tag in self.tags]
        else:
            self.downlink_rss = [float(self.link.rss_dbm(float(d)))
                                 for d in spec.tag_distances_m]
        self.can_hear = [tag.can_hear(rss)
                         for tag, rss in zip(self.tags, self.downlink_rss)]

        num_tags = spec.num_tags
        self.channel_index = [0] * num_tags
        self.window_probability = [0.0] * num_tags
        self.feedback_heard = np.zeros(num_tags, dtype=np.int64)
        self.feedback_missed = np.zeros(num_tags, dtype=np.int64)
        self.total_delivered = np.zeros(num_tags, dtype=np.int64)
        self.total_transmissions = np.zeros(num_tags, dtype=np.int64)
        self.total_collisions = np.zeros(num_tags, dtype=np.int64)
        self.window_delivered = np.zeros(num_tags, dtype=np.int64)
        self.window_transmissions = np.zeros(num_tags, dtype=np.int64)
        self.window_collisions = np.zeros(num_tags, dtype=np.int64)
        self.windows: list[NetworkWindow] = []
        self._active_jammers: list = []

    def _tag_ids(self) -> list[int]:
        ids = self.spec.tag_ids if self.spec.tag_ids is not None else tuple(
            range(1, self.spec.num_tags + 1))
        if len(ids) != self.spec.num_tags:
            raise ConfigurationError(
                f"tag_ids has {len(ids)} entries for {self.spec.num_tags} tags")
        if len(set(ids)) != len(ids):
            # Duplicate ids would conflate (tag, sequence) ARQ keys in the
            # event engine and silently break cross-engine bit-parity.
            raise ConfigurationError(f"tag_ids must be unique, got {ids}")
        return list(ids)

    # ------------------------------------------------------------------
    # Sequential feedback-loop logic, shared verbatim by both engines
    # ------------------------------------------------------------------
    def begin_window(self, window_index: int) -> None:
        """Activate the window's jammer phases and freeze link probabilities."""
        spec = self.spec
        if spec.jammers:
            self._active_jammers = [phase.jammer for phase in spec.jammers
                                    if phase.active_in(window_index)]
            # The spectrum monitor integrates over a whole window, so it
            # always notices a partial-duty jammer; the monitor therefore
            # sees full-duty replicas (deterministic), while the duty cycle
            # keeps softening the per-packet loss mixture below.
            self.interference.jammers[:] = [replace(jammer, duty_cycle=1.0)
                                            for jammer in self._active_jammers]
        for index, tag in enumerate(self.tags):
            if spec.uplink_probability_override is not None:
                probability = float(spec.uplink_probability_override(
                    tag, self.channel_index[index]))
            else:
                probability = self._physical_probability(index)
            self.window_probability[index] = ensure_probability(
                probability, "uplink success probability")
        self.window_delivered[:] = 0
        self.window_transmissions[:] = 0
        self.window_collisions[:] = 0

    def _physical_probability(self, index: int) -> float:
        """Deterministic per-window uplink success from the propagation model.

        The clean-channel probability follows the calibrated BER roll-off
        of the shared :func:`~repro.sim.link_sim.ber_from_margin` helper;
        overlapping active jammers mix in a jammed-time probability
        weighted by their combined duty cycle (partial-time jamming is what
        keeps the Figure 27-style jammed PRR near 47 % instead of zero).
        """
        from repro.utils.units import dbm_to_watts, watts_to_dbm

        spec = self.spec
        frequency = spec.channel_plan.frequency_of(self.channel_index[index])
        p_clean = self._success_from_snr(self.uplink_rss_dbm[index]
                                         - self.noise_dbm)
        overlapping = [jammer for jammer in self._active_jammers
                       if jammer.overlaps(frequency, spec.channel_plan.bandwidth_hz)
                       and jammer.duty_cycle > 0.0]
        if not overlapping:
            return p_clean
        on_probability = 1.0
        for jammer in overlapping:
            on_probability *= 1.0 - jammer.duty_cycle
        on_probability = 1.0 - on_probability
        interference_w = sum(
            float(dbm_to_watts(replace(jammer, duty_cycle=1.0).received_power_dbm()))
            for jammer in overlapping)
        noise_plus_interference = float(watts_to_dbm(
            float(dbm_to_watts(self.noise_dbm)) + interference_w))
        p_jammed = self._success_from_snr(self.uplink_rss_dbm[index]
                                          - noise_plus_interference)
        return on_probability * p_jammed + (1.0 - on_probability) * p_clean

    def _success_from_snr(self, snr_db: float) -> float:
        from repro.sim.link_sim import ber_from_margin

        margin = snr_db - self.spec.modulation_penalty_db - self.snr_threshold_db
        ber = float(ber_from_margin(margin))
        return float((1.0 - ber) ** self.spec.payload_bits)

    def record_window(self, window_index: int) -> None:
        """Snapshot the window's per-tag outcomes before the controllers act."""
        outcomes = []
        for index, tag in enumerate(self.tags):
            outcomes.append(TagWindowOutcome(
                tag_id=tag.tag_id,
                channel_index=self.channel_index[index],
                jammed=self._channel_jammed(self.channel_index[index]),
                bits_per_chirp=tag.state.bits_per_chirp,
                packets=self.spec.packets_per_window,
                delivered=int(self.window_delivered[index]),
                transmissions=int(self.window_transmissions[index]),
                collisions=int(self.window_collisions[index]),
            ))
        self.windows.append(NetworkWindow(window_index=window_index,
                                          outcomes=tuple(outcomes)))
        self.total_delivered += self.window_delivered
        self.total_transmissions += self.window_transmissions
        self.total_collisions += self.window_collisions

    def _channel_jammed(self, channel_index: int) -> bool:
        if self.hop_controller is not None:
            return not self.hop_controller.channel_is_clean(channel_index)
        if not self.interference.jammers:
            return False
        frequency = self.spec.channel_plan.frequency_of(channel_index)
        return not self.interference.channel_is_clean(
            frequency, self.spec.channel_plan.bandwidth_hz,
            threshold_dbm=_DEFAULT_JAMMED_THRESHOLD_DBM)

    def end_window(self, window_index: int) -> None:
        """Let the access point's controllers react (hop, then rate)."""
        spec = self.spec
        if self.hop_controller is not None and self._hop_allowed(window_index):
            for index, tag in enumerate(self.tags):
                command = self.access_point.maybe_hop(
                    self.channel_index[index], target_tag_id=tag.tag_id)
                if command is None:
                    continue
                reply = tag.handle_command(command,
                                           rss_dbm=self.downlink_rss[index])
                if reply is not None:
                    self.channel_index[index] = int(command.argument)
        if spec.rate is not None:
            for index, tag in enumerate(self.tags):
                command = self.access_point.maybe_adapt_rate(
                    tag.tag_id, self.downlink_rss[index], mode=spec.mode)
                if command is not None:
                    tag.handle_command(command, rss_dbm=self.downlink_rss[index])

    def _hop_allowed(self, window_index: int) -> bool:
        gate = (self.spec.hopping.hop_after_window
                if self.spec.hopping is not None else None)
        return gate is None or window_index >= gate

    # ------------------------------------------------------------------
    def finish(self, engine: str, *, seed, events_processed: int = 0
               ) -> ScenarioResult:
        """Assemble the :class:`ScenarioResult` from the accumulated state."""
        tags = [
            TagReport(
                tag_id=tag.tag_id,
                distance_m=float(self.spec.tag_distances_m[index]),
                can_hear_feedback=bool(self.can_hear[index]),
                packets=self.spec.num_windows * self.spec.packets_per_window,
                delivered=int(self.total_delivered[index]),
                transmissions=int(self.total_transmissions[index]),
                collisions=int(self.total_collisions[index]),
                feedback_heard=int(self.feedback_heard[index]),
                feedback_missed=int(self.feedback_missed[index]),
                final_channel_index=self.channel_index[index],
                final_bits_per_chirp=tag.state.bits_per_chirp,
            )
            for index, tag in enumerate(self.tags)
        ]
        return ScenarioResult(
            scenario=self.spec.name,
            engine=engine,
            seed=seed,
            windows=self.windows,
            tags=tags,
            hops_issued=(self.hop_controller.hops_issued
                         if self.hop_controller is not None else 0),
            rate_changes=self.access_point.stats.rate_changes,
            events_processed=events_processed,
            description=self.spec.description,
        )


# ---------------------------------------------------------------------------
# The event-driven engine
# ---------------------------------------------------------------------------

def _run_event_engine(run: ScenarioRun) -> int:
    """Act the scenario out on the discrete-event scheduler.

    Returns the number of events processed.  Window starts, packet rounds
    and window ends are scheduled as distinct events; the next window is
    only scheduled once the current one finishes, mirroring how a live
    feedback loop cannot know the future.
    """
    spec = run.spec
    scheduler = EventScheduler()
    packets = spec.packets_per_window
    window_span = (packets + 2) * _SLOT_DURATION_S
    packet_round = _make_round(run)

    def schedule_window(window_index: int) -> None:
        start = window_index * window_span
        scheduler.schedule_at(start, lambda: run.begin_window(window_index))
        for round_index in range(packets):
            scheduler.schedule_at(start + (round_index + 1) * _SLOT_DURATION_S,
                                  packet_round)
        scheduler.schedule_at(start + (packets + 1) * _SLOT_DURATION_S,
                              lambda: finish_window(window_index))

    def finish_window(window_index: int) -> None:
        run.record_window(window_index)
        run.end_window(window_index)
        if window_index + 1 < spec.num_windows:
            schedule_window(window_index + 1)

    schedule_window(0)
    scheduler.run()
    return scheduler.processed


def _make_round(run: ScenarioRun):
    """Build the (window-independent) packet-round callback of the event engine."""

    def packet_round() -> None:
        tags = run.tags
        packets = [tag.next_packet(random_state=run.payload_rng)
                   for tag in tags]
        collided = [False] * len(tags)
        if run.mac is not None:
            outcome = run.mac.run_round(tags, random_state=run.slot_rng)
            collided_ids = set(outcome.collided_tags)
            collided = [tag.tag_id in collided_ids for tag in tags]
        for index, tag in enumerate(tags):
            attempt_row = run.attempt_rng.random(run.attempts)
            if collided[index]:
                run.access_point.observe_uplink(packets[index], received=False)
                run.window_collisions[index] += 1
                run.window_transmissions[index] += 1
                continue
            _arq_exchange(run, index, tag, packets[index], attempt_row)

    return packet_round


def _arq_exchange(run: ScenarioRun, index: int, tag, packet, attempt_row) -> None:
    """One packet's uplink attempt plus the feedback-driven retransmissions.

    Consumes nothing from the RNG streams (the fixed-width ``attempt_row``
    was drawn by the caller), so the control flow is free to stop early —
    the batch engine evaluates the same fixed-width rows as one block.
    """
    probability = run.window_probability[index]
    success = bool(attempt_row[0] < probability)
    run.access_point.observe_uplink(packet, received=success)
    attempt = 1
    while not success:
        command = run.access_point.request_retransmission_for(packet.key)
        if command is None:
            break
        reply = tag.handle_command(command, rss_dbm=run.downlink_rss[index])
        if reply is None:
            run.feedback_missed[index] += 1
            break
        run.feedback_heard[index] += 1
        success = bool(attempt_row[attempt] < probability)
        attempt += 1
        run.access_point.observe_uplink(reply, received=success)
    run.window_delivered[index] += int(success)
    run.window_transmissions[index] += attempt


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_scenario(spec: ScenarioSpec, *, random_state: RandomState = None,
                 engine: str = "batch", hop_controller=None) -> ScenarioResult:
    """Run ``spec`` and return its :class:`ScenarioResult`.

    Parameters
    ----------
    random_state:
        Seed or generator; ``None`` uses the spec's own default seed.
    engine:
        ``"batch"`` for the vectorized path, ``"event"`` (alias
        ``"scalar"``) for the discrete-event reference.  A fixed seed gives
        bit-identical results either way.
    hop_controller:
        Optional externally-owned :class:`ChannelHopController`; used by
        the :class:`~repro.sim.network.FeedbackNetworkSimulator`
        compatibility layer so callers keep their spectrum monitor.
    """
    if engine not in ("batch", "event", "scalar"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'batch' or 'event'/'scalar'")
    seed = spec.seed if random_state is None else (
        random_state if isinstance(random_state, int) else None)
    run = ScenarioRun(spec, random_state=random_state,
                      hop_controller=hop_controller)
    if engine == "batch":
        from repro.sim.batch import run_scenario_windows

        run_scenario_windows(run)
        return run.finish("batch", seed=seed)
    events = _run_event_engine(run)
    return run.finish("event", seed=seed, events_processed=events)


def _evaluate_scenario_job(name: str, random_state: int | None,
                           engine: str) -> tuple[str, ScenarioResult]:
    """Fabric worker entry point: run one registered scenario whole."""
    from repro.sim.scenario import get_scenario

    return name, run_scenario(get_scenario(name), random_state=random_state,
                              engine=engine)


def _scenario_store_entry(spec: ScenarioSpec, random_state, engine: str, store):
    """The single definition of the scenario hit/miss store protocol.

    Returns ``(cached_result_or_None, persist_callable_or_None)``:
    ``(result, None)`` on a hit, ``(None, persist)`` on a cacheable miss
    (call ``persist(result)`` after computing), ``(None, None)`` when the
    run is not cacheable (no store, non-integer seed, or a spec the
    canonical encoding refuses — e.g. calibrated override callables).
    """
    if store is None:
        return None, None
    from repro.sim.store import UncacheableError, scenario_key

    seed = spec.seed if random_state is None else random_state
    if not isinstance(seed, (int, np.integer)):
        return None, None
    try:
        key = scenario_key(spec, int(seed), engine)
    except UncacheableError:
        return None, None
    digest = store.digest(key)
    payload = store.get(key, digest=digest)
    if payload is not None:
        try:
            return ScenarioResult.from_dict(payload), None
        except (KeyError, TypeError):
            pass  # payload shape drifted: recompute
    return None, lambda result: store.put(key, result.to_dict(), digest=digest)


def run_scenario_stored(spec: ScenarioSpec, *, random_state: int | None = None,
                        engine: str = "batch",
                        store=None) -> tuple[ScenarioResult, str]:
    """Run one scenario through the result store; return (result, provenance).

    Provenance is ``"hit"`` (replayed from the store), ``"miss"``
    (computed and persisted) or ``"off"`` (not cacheable — see
    :func:`_scenario_store_entry`).  The effective seed of a registered
    scenario is always an integer (``spec.seed`` when ``random_state`` is
    ``None``), so such runs are replayable by content address.
    """
    cached, persist = _scenario_store_entry(spec, random_state, engine, store)
    if cached is not None:
        return cached, "hit"
    result = run_scenario(spec, random_state=random_state, engine=engine)
    if persist is None:
        return result, "off"
    persist(result)
    return result, "miss"


def run_scenario_grid(names: Sequence[str] | None = None, *,
                      random_state: int | None = None, engine: str = "batch",
                      parallel: bool = True, store=None) -> dict[str, ScenarioResult]:
    """Run a grid of registered scenarios, fanned out over the fabric pool.

    Each scenario is evaluated whole in one worker with its own seed
    (``random_state`` applied to every scenario, or each spec's default
    when ``None``), so a parallel grid is result-identical to running the
    scenarios one by one — the fabric only changes where the work runs.
    Results come back keyed by scenario name, in grid order.
    ``parallel=True`` is a request, not a command: the grid fans out only
    when ``min(usable_cores(), pending scenarios) > 1``
    (:func:`~repro.sim.execution.parallel_width`) and runs in process
    otherwise — results are identical either way.

    ``random_state`` must be an integer seed or ``None``: a shared
    generator object would be consumed in pool-arrival order, breaking the
    serial/parallel equivalence this function guarantees.

    With a ``store``, each scenario is looked up by its content digest in
    the parent before any job is dispatched and persisted after; only the
    missing scenarios are computed (store I/O never enters the worker
    pool), so a warm grid rerun is served without touching the fabric.
    """
    from repro.sim.scenario import get_scenario, scenario_names

    if random_state is not None and not isinstance(random_state, (int, np.integer)):
        raise ConfigurationError(
            "run_scenario_grid needs an integer seed or None, got "
            f"{type(random_state).__name__} (a shared generator would make "
            "the grid depend on evaluation order)")
    if engine not in ("batch", "event", "scalar"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'batch' or 'event'/'scalar'")
    grid = list(names) if names is not None else scenario_names()
    if not grid:
        raise ConfigurationError("run_scenario_grid needs at least one scenario")
    seed = None if random_state is None else int(random_state)
    results: dict[str, ScenarioResult] = {}
    pending = grid
    persisters: dict[str, object] = {}
    if store is not None:
        pending = []
        for name in grid:
            cached, persist = _scenario_store_entry(get_scenario(name), seed,
                                                    engine, store)
            if cached is not None:
                results[name] = cached
                continue
            if persist is not None:
                persisters[name] = persist
            pending.append(name)
    jobs = [(name, seed, engine) for name in pending]
    from repro.sim.execution import get_cost_model, parallel_width

    cost_model = get_cost_model()
    # One core or one pending scenario: the grid runs in process instead —
    # same results (each scenario owns its seed), no pool tax.
    if parallel and parallel_width(len(jobs)) > 1:
        from repro.sim.execution import get_fabric

        pairs = get_fabric().map_jobs(_evaluate_scenario_job, jobs,
                                      min_workers=min(len(jobs), 4))
    else:
        pairs = []
        for job in jobs:
            started = time.perf_counter()
            pair = _evaluate_scenario_job(*job)
            cost_model.observe(f"scenario:{engine}:{job[0]}", 1.0,
                               time.perf_counter() - started)
            pairs.append(pair)
    for name, result in pairs:
        results[name] = result
        persist = persisters.get(name)
        if persist is not None:
            persist(result)
    return {name: results[name] for name in grid}


def make_scenario_driver(name: str, *, random_state: RandomState = None,
                         engine: str = "batch", num_windows: int | None = None,
                         packets_per_window: int | None = None,
                         store=None):
    """Build a zero-argument figure-style driver for a registered scenario.

    The returned callable runs the scenario and flattens the outcome into a
    :class:`~repro.sim.metrics.SweepResult`, which makes scenarios first
    class citizens of the :class:`~repro.sim.batch.BatchRunner` machinery —
    each CLI run records one JSON manifest (driver, seed, config snapshot,
    scalars, wall clock) exactly like the paper-figure artefacts.  With a
    ``store``, the run is served from / persisted to the result store and
    the driver records its provenance on itself
    (``driver.store_provenance``), which the runner copies into the
    manifest.
    """
    from repro.sim.scenario import get_scenario

    spec = get_scenario(name)
    if num_windows is not None:
        spec = spec.with_(num_windows=num_windows)
    if packets_per_window is not None:
        spec = spec.with_(packets_per_window=packets_per_window)
    seed = spec.seed if random_state is None else random_state
    frozen_spec = spec

    def driver(*, scenario: str = name, random_state=seed, engine: str = engine,
               num_windows: int = spec.num_windows,
               packets_per_window: int = spec.packets_per_window) -> SweepResult:
        del scenario, num_windows, packets_per_window  # manifest snapshot only
        result, provenance = run_scenario_stored(
            frozen_spec, random_state=random_state, engine=engine, store=store)
        driver.store_provenance = None if provenance == "off" else (provenance,)
        return result.to_sweep_result()

    driver.__name__ = f"scenario_{name.replace('-', '_')}"
    driver.__qualname__ = driver.__name__
    return driver
