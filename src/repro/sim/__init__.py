"""Simulation framework.

Three levels of fidelity are provided, trading accuracy for speed:

* **Waveform level** — the :mod:`repro.core` pipeline operating on simulated
  analog waveforms; used by the unit/integration tests and the
  micro-benchmark experiments (SAW response, comparator behaviour, spectra).
  :mod:`repro.sim.waveform_engine` evaluates declarative receiver x SNR
  ablation grids on this level — vectorized burst kernel in process,
  optionally sharded over worker processes, bit-identical to the serial
  :func:`~repro.sim.waveform_ber.snr_sweep` under a fixed seed.
* **Link level** — :mod:`repro.sim.link_sim`, a calibrated RSS -> BER /
  detection model that regenerates the field-study figures (BER, range and
  throughput sweeps) in milliseconds instead of hours.
* **Network level** — :mod:`repro.sim.network_engine`, a scenario-driven
  multi-tag simulation of the feedback loop (ARQ retransmissions, channel
  hopping, rate adaptation, slotted-ALOHA contention) behind the §5.3 case
  studies.  Deployments are declared as :class:`~repro.sim.scenario.ScenarioSpec`
  values (:data:`~repro.sim.scenario.SCENARIOS` registry) and run either
  event-driven on the :class:`~repro.sim.events.EventScheduler` or
  vectorized on the batch path — bit-identically under a fixed seed.
  :mod:`repro.sim.network` keeps the calibrated-probability front end of
  the Figure 26/27 case studies on top of the same engine.

:mod:`repro.sim.experiments` maps every table and figure of the paper's
evaluation onto one driver function; the benchmark suite calls those
drivers.
"""

from repro.sim.events import EventScheduler, Event
from repro.sim.metrics import (
    bit_error_rate,
    packet_reception_ratio,
    throughput_bps,
    SeriesResult,
    SweepResult,
)
from repro.sim.batch import (
    BatchRunner,
    BatchRunReport,
    PacketBatchResult,
    RunManifest,
    demodulation_ranges,
    detection_ranges,
    simulate_link_packets,
)
from repro.sim.link_sim import SaiyanLinkModel, BaselineLinkModel, BackscatterUplinkModel
from repro.sim.network import FeedbackNetworkSimulator, RetransmissionExperimentResult
from repro.sim.network_engine import ScenarioResult, run_scenario
from repro.sim.scenario import SCENARIOS, ScenarioSpec, get_scenario, register_scenario
from repro.sim.waveform_ber import (
    WaveformBerPoint,
    measure_symbol_errors,
    snr_sweep,
    compare_modes,
)
from repro.sim.waveform_engine import (
    ReceiverSpec,
    SaiyanBurstKernel,
    WAVEFORM_SWEEPS,
    WaveformCell,
    WaveformSweepResult,
    WaveformSweepSpec,
    get_sweep,
    run_sweep,
)
from repro.sim import experiments
from repro.sim.reporting import format_series, format_table

__all__ = [
    "BatchRunner",
    "BatchRunReport",
    "PacketBatchResult",
    "RunManifest",
    "demodulation_ranges",
    "detection_ranges",
    "simulate_link_packets",
    "EventScheduler",
    "Event",
    "bit_error_rate",
    "packet_reception_ratio",
    "throughput_bps",
    "SeriesResult",
    "SweepResult",
    "SaiyanLinkModel",
    "BaselineLinkModel",
    "BackscatterUplinkModel",
    "FeedbackNetworkSimulator",
    "RetransmissionExperimentResult",
    "ScenarioResult",
    "run_scenario",
    "SCENARIOS",
    "ScenarioSpec",
    "get_scenario",
    "register_scenario",
    "WaveformBerPoint",
    "measure_symbol_errors",
    "snr_sweep",
    "compare_modes",
    "ReceiverSpec",
    "SaiyanBurstKernel",
    "WAVEFORM_SWEEPS",
    "WaveformCell",
    "WaveformSweepResult",
    "WaveformSweepSpec",
    "get_sweep",
    "run_sweep",
    "experiments",
    "format_series",
    "format_table",
]
