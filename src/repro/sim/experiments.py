"""Per-figure / per-table experiment drivers.

Each function regenerates one artefact of the paper's evaluation and returns
a :class:`~repro.sim.metrics.SweepResult` with the same rows/series the
paper reports.  The benchmark suite (``benchmarks/``) calls these drivers,
prints the results and asserts the graded claims (who wins, by roughly what
factor, where the crossovers fall).

All drivers accept a ``random_state`` so regenerated numbers are
reproducible, and a few accept a ``fast`` flag that trades Monte-Carlo depth
for runtime (the benchmark defaults keep every driver under a few seconds).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.channel.backscatter_link import BackscatterLink
from repro.channel.environment import indoor_environment, outdoor_environment
from repro.channel.fading import NoFading, RicianFading
from repro.channel.interference import InterferenceEnvironment, Jammer
from repro.constants import (
    ASIC_TOTAL_POWER_UW,
    JAMMER_CHANNEL_HZ,
    PCB_TOTAL_COST_USD,
    PCB_TOTAL_POWER_UW,
)
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.cyclic_shift import BasebandImpairments, CyclicFrequencyShifter
from repro.core.quantizer import ThresholdCalibrator
from repro.core.sampling import sampling_rate_table
from repro.dsp.chirp import instantaneous_frequency
from repro.dsp.noise import add_awgn_snr
from repro.dsp.signals import Signal
from repro.hardware.comparator import DoubleThresholdComparator, SingleThresholdComparator
from repro.hardware.envelope_detector import EnvelopeDetector
from repro.hardware.power import asic_power_budget, pcb_power_table
from repro.hardware.saw_filter import SAWFilter
from repro.lora.modulation import LoRaModulator
from repro.lora.parameters import DownlinkParameters
from repro.net.channel_hopping import ChannelHopController, ChannelPlan
from repro.sim.batch import demodulation_ranges, detection_ranges
from repro.sim.link_sim import BackscatterUplinkModel, BaselineLinkModel, SaiyanLinkModel
from repro.sim.metrics import SeriesResult, SweepResult
from repro.sim.network import FeedbackNetworkSimulator
from repro.utils.rng import RandomState, as_rng

#: Default downlink configuration of the field studies (§5 setup).
DEFAULT_DOWNLINK = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3,
                                      bits_per_chirp=2)


def _saiyan_model(*, mode: SaiyanMode = SaiyanMode.SUPER,
                  downlink: DownlinkParameters = DEFAULT_DOWNLINK,
                  environment=None,
                  temperature_c: float | None = None) -> SaiyanLinkModel:
    env = environment if environment is not None else outdoor_environment(fading=NoFading())
    saw = SAWFilter() if temperature_c is None else SAWFilter(temperature_c=temperature_c)
    config = SaiyanConfig(downlink=downlink, mode=mode)
    return SaiyanLinkModel(config=config, link=env.link_budget(), saw_filter=saw)


# ---------------------------------------------------------------------------
# Figure 2 — BER of PLoRa and Aloba backscatter uplinks vs tag-to-Tx distance
# ---------------------------------------------------------------------------

def figure2_baseline_uplink_ber(*, tag_to_rx_m: float = 100.0,
                                distances_m: tuple[float, ...] = (0.1, 0.2, 0.5, 1, 5, 10, 15, 20),
                                random_state: RandomState = 1) -> SweepResult:
    """BER of the PLoRa and Aloba backscatter uplinks against tag-to-Tx distance.

    The reflected signal crosses both hops, so moving the tag away from the
    transmitter quickly pushes the uplink below the access point's decoding
    threshold — the motivation for the feedback loop (Figure 2).
    """
    rng = as_rng(random_state)
    result = SweepResult(title="Figure 2: baseline backscatter uplink BER vs tag-to-Tx distance")
    environment = outdoor_environment(fading=RicianFading(k_factor_db=12.0))
    link = environment.link_budget()
    num_fading_draws = 100
    distance_grid = np.tile(np.asarray(distances_m, dtype=float)[:, None],
                            (1, num_fading_draws))
    for name, penalty in (("plora", 3.0), ("aloba", 6.0)):
        uplink = BackscatterUplinkModel(
            uplink=BackscatterLink(forward=link, backward=link),
            spreading_factor=7, bandwidth_hz=500e3, modulation_penalty_db=penalty)
        draws = uplink.bit_error_rate(distance_grid, tag_to_rx_m, random_state=rng,
                                      include_fading=True)
        bers = np.clip(np.mean(draws, axis=1), 1e-6, 0.5)
        result.add_series(SeriesResult.from_arrays(
            name, distances_m, bers, x_label="tag-to-Tx distance (m)", y_label="BER"))
    plora = result.get_series("plora")
    aloba = result.get_series("aloba")
    result.add_scalar("plora_ber_at_0.5m", plora.y_at(0.5))
    result.add_scalar("plora_ber_at_20m", plora.y_at(20))
    result.add_scalar("aloba_ber_at_20m", aloba.y_at(20))
    result.notes = ("Paper: BER of both systems rises from <1% to >50% as the tag moves "
                    "away from the transmitter; decoding collapses near 20 m.")
    return result


# ---------------------------------------------------------------------------
# Figure 5 — SAW filter amplitude-frequency response
# ---------------------------------------------------------------------------

def figure5_saw_response(*, num_points: int = 241) -> SweepResult:
    """Amplitude response of the B3790 SAW filter across 428-440 MHz."""
    saw = SAWFilter()
    frequencies_mhz = np.linspace(428.0, 440.0, num_points)
    offsets = frequencies_mhz * 1e6 - saw.baseband_reference_hz
    gains = np.asarray(saw.gain_db(offsets), dtype=float)
    result = SweepResult(title="Figure 5: SAW filter amplitude-frequency response")
    result.add_series(SeriesResult.from_arrays(
        "saw_gain", frequencies_mhz, gains,
        x_label="frequency (MHz)", y_label="gain (dB)"))
    result.add_scalar("span_500khz_db", saw.amplitude_gap_db(500e3))
    result.add_scalar("span_250khz_db", saw.amplitude_gap_db(250e3))
    result.add_scalar("span_125khz_db", saw.amplitude_gap_db(125e3))
    result.add_scalar("insertion_loss_db", saw.response.insertion_loss_db)
    result.notes = ("Paper: 25 dB, 9.5 dB and 7.2 dB amplitude variation over the last "
                    "500/250/125 kHz below 434 MHz; 10 dB insertion loss.")
    return result


# ---------------------------------------------------------------------------
# Figure 6 — SAW input/output for the four K=2 symbols
# ---------------------------------------------------------------------------

def figure6_saw_symbols(*, oversampling: int = 8) -> SweepResult:
    """Input frequency trajectory and output envelope for symbols 00/01/10/11."""
    downlink = DEFAULT_DOWNLINK
    modulator = LoRaModulator(downlink, oversampling=oversampling)
    saw = SAWFilter()
    detector = EnvelopeDetector(rc_bandwidth_hz=downlink.bandwidth_hz / 2)
    result = SweepResult(title="Figure 6: SAW filter input/output per symbol")
    peak_fractions = {}
    for symbol in range(downlink.alphabet_size):
        waveform = modulator.symbol_waveform(symbol)
        freq = instantaneous_frequency(waveform) / 1e3
        envelope = detector.detect(saw.apply(waveform))
        env_samples = np.asarray(envelope.samples, dtype=float)
        times_us = waveform.times * 1e6
        label = format(symbol, "02b")
        result.add_series(SeriesResult.from_arrays(
            f"freq_{label}", times_us, freq, x_label="time (µs)", y_label="freq (kHz)"))
        result.add_series(SeriesResult.from_arrays(
            f"envelope_{label}", times_us, env_samples,
            x_label="time (µs)", y_label="amplitude"))
        peak_fractions[label] = float(np.argmax(env_samples) / env_samples.size)
        result.add_scalar(f"peak_fraction_{label}", peak_fractions[label])
    result.notes = ("The output amplitude peaks exactly when the input frequency tops "
                    "out; the four symbols peak at clearly different times.")
    return result


# ---------------------------------------------------------------------------
# Figure 7 — single- vs double-threshold comparator
# ---------------------------------------------------------------------------

def figure7_comparator(*, snr_db: float = 12.0, random_state: RandomState = 7,
                       oversampling: int = 8) -> SweepResult:
    """Comparator outputs (UH only, UL only, double threshold) on a noisy chirp."""
    rng = as_rng(random_state)
    downlink = DEFAULT_DOWNLINK.with_(bits_per_chirp=1)
    modulator = LoRaModulator(downlink, oversampling=oversampling)
    saw = SAWFilter()
    detector = EnvelopeDetector(rc_bandwidth_hz=downlink.bandwidth_hz / 4)
    waveform = add_awgn_snr(modulator.symbol_waveform(0), snr_db, random_state=rng)
    envelope = detector.detect(saw.apply(waveform))
    samples = np.asarray(envelope.samples, dtype=float)
    calibrator = ThresholdCalibrator(gap_db=3.0, hysteresis_fraction=0.5)
    thresholds = calibrator.thresholds_from_envelope(envelope)
    high_only = SingleThresholdComparator(thresholds.high).quantize(samples)
    low_only = SingleThresholdComparator(thresholds.low).quantize(samples)
    double = DoubleThresholdComparator(thresholds.high, thresholds.low).quantize(samples)
    times_us = envelope.times * 1e6
    result = SweepResult(title="Figure 7: comparator comparison on a noisy chirp envelope")
    result.add_series(SeriesResult.from_arrays(
        "envelope", times_us, samples, x_label="time (µs)", y_label="amplitude"))
    result.add_series(SeriesResult.from_arrays(
        "high_only", times_us, high_only.binary, x_label="time (µs)", y_label="logic"))
    result.add_series(SeriesResult.from_arrays(
        "low_only", times_us, low_only.binary, x_label="time (µs)", y_label="logic"))
    result.add_series(SeriesResult.from_arrays(
        "double", times_us, double.binary, x_label="time (µs)", y_label="logic"))
    result.add_scalar("high_only_pulses", float(high_only.transitions_to_high.size))
    result.add_scalar("low_only_pulses", float(low_only.transitions_to_high.size))
    result.add_scalar("double_pulses", float(double.transitions_to_high.size))
    result.add_scalar("uh", thresholds.high)
    result.add_scalar("ul", thresholds.low)
    result.notes = ("The double-threshold comparator produces a single clean pulse whose "
                    "tail marks the amplitude peak; single thresholds chatter or miss.")
    return result


# ---------------------------------------------------------------------------
# Table 1 — required sampling rate
# ---------------------------------------------------------------------------

def table1_sampling_rate() -> SweepResult:
    """Theoretical vs practical comparator sampling rate per SF and K."""
    entries = sampling_rate_table()
    result = SweepResult(title="Table 1: required comparator sampling rate (kHz)")
    for k in sorted({e.bits_per_chirp for e in entries}):
        row = [e for e in entries if e.bits_per_chirp == k]
        row.sort(key=lambda e: e.spreading_factor)
        sfs = [e.spreading_factor for e in row]
        result.add_series(SeriesResult.from_arrays(
            f"theory_k{k}", sfs, [e.theoretical_khz for e in row],
            x_label="SF", y_label="kHz"))
        result.add_series(SeriesResult.from_arrays(
            f"practice_k{k}", sfs, [e.practical_khz for e in row],
            x_label="SF", y_label="kHz"))
        result.add_series(SeriesResult.from_arrays(
            f"paper_practice_k{k}", sfs,
            [e.paper_practical_khz if e.paper_practical_khz is not None else float("nan")
             for e in row],
            x_label="SF", y_label="kHz"))
    result.add_scalar("safety_factor", 3.2 / 2.0)
    result.notes = ("The practical rate follows the paper's 3.2 x BW / 2^(SF-K) rule; the "
                    "paper's measured values are included for comparison.")
    return result


# ---------------------------------------------------------------------------
# Figure 10 — spectrum with and without cyclic-frequency shifting
# ---------------------------------------------------------------------------

def figure10_cyclic_shift(*, num_chirps: int = 24, snr_db: float = 20.0,
                          random_state: RandomState = 10,
                          oversampling: int = 4) -> SweepResult:
    """Baseband SNR with and without the cyclic-frequency-shifting circuit.

    The baseband envelope recovered by each path is compared against the
    noise-free reference envelope; the SNR is the power of the component
    explained by the reference divided by the residual power.  The direct
    path suffers the DC offset, flicker noise and detector noise that land
    in the baseband (Equation 4); the cyclic-shifting path dodges them by
    taking the envelope through the IF detour.
    """
    rng = as_rng(random_state)
    downlink = DownlinkParameters(spreading_factor=8, bandwidth_hz=500e3, bits_per_chirp=2)
    modulator = LoRaModulator(downlink, oversampling=oversampling)
    symbols = as_rng(random_state).integers(0, downlink.alphabet_size, size=num_chirps)
    waveform = modulator.modulate_symbols(symbols)
    saw = SAWFilter()
    shaped = saw.apply(waveform)
    noisy = add_awgn_snr(shaped, snr_db, random_state=rng)
    impairments = BasebandImpairments(dc_offset=0.05, flicker_noise_power=0.005,
                                      detector_noise_rms=0.02)
    shifter = CyclicFrequencyShifter(if_offset_hz=downlink.bandwidth_hz,
                                     envelope_bandwidth_hz=downlink.bandwidth_hz / 2,
                                     impairments=impairments)
    reference_shifter = CyclicFrequencyShifter(
        if_offset_hz=downlink.bandwidth_hz,
        envelope_bandwidth_hz=downlink.bandwidth_hz / 2)
    reference = reference_shifter.direct_envelope(shaped)

    def _reference_snr_db(signal: Signal) -> float:
        observed = np.asarray(signal.samples, dtype=float)
        ref = np.asarray(reference.samples, dtype=float)
        n = min(observed.size, ref.size)
        observed, ref = observed[:n], ref[:n]
        ref_centered = ref - np.mean(ref)
        # NumPy's pairwise sum, not BLAS ``dot``: OpenBLAS splits a dot
        # product across its threads, so its last bits follow the host's
        # core count.
        denom = float(np.add.reduce(ref_centered * ref_centered))
        alpha = float(np.add.reduce(observed * ref_centered)) / max(denom, 1e-30)
        fitted = alpha * ref_centered + np.mean(observed)
        residual = observed - fitted
        signal_power = float(np.sum((alpha * ref_centered) ** 2))
        noise_power = max(float(np.sum(residual ** 2)), 1e-30)
        return float(10.0 * np.log10(max(signal_power, 1e-30) / noise_power))

    direct = shifter.direct_envelope(noisy, random_state=rng)
    shifted = shifter.process(noisy, random_state=rng)
    snr_direct = _reference_snr_db(direct)
    snr_shifted = _reference_snr_db(shifted)
    result = SweepResult(title="Figure 10: baseband spectrum with/without cyclic shifting")
    times_ms = direct.times[: len(shifted)] * 1e3
    result.add_series(SeriesResult.from_arrays(
        "direct_envelope", times_ms[::64], np.asarray(direct.samples)[: len(shifted)][::64],
        x_label="time (ms)", y_label="amplitude"))
    result.add_series(SeriesResult.from_arrays(
        "shifted_envelope", times_ms[::64], np.asarray(shifted.samples)[: len(times_ms)][::64],
        x_label="time (ms)", y_label="amplitude"))
    result.add_scalar("snr_direct_db", snr_direct)
    result.add_scalar("snr_shifted_db", snr_shifted)
    result.add_scalar("snr_gain_db", snr_shifted - snr_direct)
    result.notes = ("Paper: the cyclic-frequency-shifting circuit cleans the in-band and "
                    "out-of-band noise and yields roughly 11 dB of SNR gain.")
    return result


# ---------------------------------------------------------------------------
# Figures 16-20 — field studies (coding rate, SF, BW, walls)
# ---------------------------------------------------------------------------

def figure16_coding_rate(*, distances_m: tuple[float, ...] = (10, 20, 50, 100, 150),
                         bits_per_chirp_values: tuple[int, ...] = (1, 2, 3, 4, 5)
                         ) -> SweepResult:
    """Outdoor BER and throughput against the coding rate (bits per chirp)."""
    result = SweepResult(title="Figure 16: BER and throughput vs coding rate (outdoor)")
    model = _saiyan_model()
    coding_rates = np.asarray(bits_per_chirp_values)
    for distance in distances_m:
        rss = model.rss_at(distance)
        bers = model.bit_error_rate(rss, bits_per_chirp=coding_rates)
        throughputs = model.throughput_bps(rss, bits_per_chirp=coding_rates) / 1e3
        result.add_series(SeriesResult.from_arrays(
            f"ber_{int(distance)}m", bits_per_chirp_values, bers,
            x_label="coding rate (K)", y_label="BER"))
        result.add_series(SeriesResult.from_arrays(
            f"throughput_{int(distance)}m", bits_per_chirp_values, throughputs,
            x_label="coding rate (K)", y_label="throughput (kbps)"))
    ber_100 = result.get_series("ber_100m")
    tp_100 = result.get_series("throughput_100m")
    result.add_scalar("ber_ratio_cr5_over_cr1_at_100m", ber_100.y_at(5) / ber_100.y_at(1))
    result.add_scalar("throughput_ratio_cr5_over_cr1_at_100m", tp_100.y_at(5) / tp_100.y_at(1))
    result.add_scalar("ber_cr5_at_100m", ber_100.y_at(5))
    result.notes = ("Paper: BER grows 2.4-5.2x from CR=1 to CR=5; throughput grows "
                    "roughly 5x; at 100 m CR=5 the BER is ~1.85e-3.")
    return result


def figure17_spreading_factor(*, spreading_factors: tuple[int, ...] = (7, 8, 9, 10, 11, 12),
                              bits_per_chirp_values: tuple[int, ...] = (1, 2, 3)
                              ) -> SweepResult:
    """Demodulation range and throughput against the spreading factor."""
    result = SweepResult(title="Figure 17: range and throughput vs spreading factor")
    environment = outdoor_environment(fading=NoFading())
    for k in bits_per_chirp_values:
        models = [_saiyan_model(downlink=DownlinkParameters(spreading_factor=sf,
                                                            bandwidth_hz=500e3,
                                                            bits_per_chirp=k),
                                environment=environment)
                  for sf in spreading_factors]
        ranges = demodulation_ranges(models)
        throughputs = [model.throughput_at_distance(10.0) / 1e3 for model in models]
        result.add_series(SeriesResult.from_arrays(
            f"range_k{k}", spreading_factors, ranges, x_label="SF", y_label="range (m)"))
        result.add_series(SeriesResult.from_arrays(
            f"throughput_k{k}", spreading_factors, throughputs,
            x_label="SF", y_label="throughput (kbps)"))
    range_k2 = result.get_series("range_k2")
    tp_k2 = result.get_series("throughput_k2")
    result.add_scalar("range_ratio_sf12_over_sf7", range_k2.y_at(12) / range_k2.y_at(7))
    result.add_scalar("throughput_ratio_sf7_over_sf12", tp_k2.y_at(7) / tp_k2.y_at(12))
    result.notes = ("Paper: range grows 1.1-1.3x from SF7 to SF12 while throughput drops "
                    "by 30-35x.")
    return result


def figure18_bandwidth(*, bandwidths_hz: tuple[float, ...] = (125e3, 250e3, 500e3),
                       bits_per_chirp_values: tuple[int, ...] = (1, 2, 3)) -> SweepResult:
    """Demodulation range and throughput against the LoRa bandwidth."""
    result = SweepResult(title="Figure 18: range and throughput vs bandwidth")
    environment = outdoor_environment(fading=NoFading())
    for k in bits_per_chirp_values:
        models = [_saiyan_model(downlink=DownlinkParameters(spreading_factor=7,
                                                            bandwidth_hz=bandwidth,
                                                            bits_per_chirp=k),
                                environment=environment)
                  for bandwidth in bandwidths_hz]
        ranges = demodulation_ranges(models)
        throughputs = [model.throughput_at_distance(10.0) / 1e3 for model in models]
        bw_khz = [b / 1e3 for b in bandwidths_hz]
        result.add_series(SeriesResult.from_arrays(
            f"range_k{k}", bw_khz, ranges, x_label="BW (kHz)", y_label="range (m)"))
        result.add_series(SeriesResult.from_arrays(
            f"throughput_k{k}", bw_khz, throughputs,
            x_label="BW (kHz)", y_label="throughput (kbps)"))
    range_k2 = result.get_series("range_k2")
    tp_k2 = result.get_series("throughput_k2")
    result.add_scalar("range_ratio_500_over_125_k2", range_k2.y_at(500) / range_k2.y_at(125))
    result.add_scalar("throughput_ratio_500_over_125_k2", tp_k2.y_at(500) / tp_k2.y_at(125))
    result.add_scalar("range_500_k2_m", range_k2.y_at(500))
    result.add_scalar("range_125_k2_m", range_k2.y_at(125))
    result.notes = ("Paper: with CR=2 the range grows from 72.2 m (125 kHz) to 138.6 m "
                    "(500 kHz); throughput scales roughly 4x with bandwidth.")
    return result


def _indoor_figure(num_walls: int, title: str,
                   bits_per_chirp_values: tuple[int, ...]) -> SweepResult:
    result = SweepResult(title=title)
    environment = indoor_environment(num_walls=num_walls, fading=NoFading())
    models = [_saiyan_model(downlink=DEFAULT_DOWNLINK.with_(bits_per_chirp=k),
                            environment=environment)
              for k in bits_per_chirp_values]
    ranges = demodulation_ranges(models)
    throughputs = [model.throughput_at_distance(5.0) / 1e3 for model in models]
    result.add_series(SeriesResult.from_arrays(
        "range", bits_per_chirp_values, ranges, x_label="coding rate (K)",
        y_label="range (m)"))
    result.add_series(SeriesResult.from_arrays(
        "throughput", bits_per_chirp_values, throughputs, x_label="coding rate (K)",
        y_label="throughput (kbps)"))
    result.add_scalar("range_k1_m", result.get_series("range").y_at(1))
    result.add_scalar("range_k5_m", result.get_series("range").y_at(5))
    result.add_scalar("throughput_k5_kbps", result.get_series("throughput").y_at(5))
    return result


def figure19_one_wall(*, bits_per_chirp_values: tuple[int, ...] = (1, 2, 3, 4, 5)
                      ) -> SweepResult:
    """Indoor range/throughput through one concrete wall (Figure 19)."""
    result = _indoor_figure(1, "Figure 19: one concrete wall", bits_per_chirp_values)
    result.notes = ("Paper: range declines from 48.8 m (CR=1) to 26.2 m (CR=5); "
                    "throughput grows from 3.7 to 18.7 kbps.")
    return result


def figure20_two_walls(*, bits_per_chirp_values: tuple[int, ...] = (1, 2, 3, 4, 5)
                       ) -> SweepResult:
    """Indoor range/throughput through two concrete walls (Figure 20)."""
    result = _indoor_figure(2, "Figure 20: two concrete walls", bits_per_chirp_values)
    one_wall = _indoor_figure(1, "helper", bits_per_chirp_values)
    ratios = [one_wall.get_series("range").y_at(k) / max(result.get_series("range").y_at(k), 1e-9)
              for k in bits_per_chirp_values]
    result.add_scalar("range_ratio_one_over_two_walls_min", float(np.min(ratios)))
    result.add_scalar("range_ratio_one_over_two_walls_max", float(np.max(ratios)))
    result.notes = ("Paper: range declines 2.09-2.21x relative to the one-wall setting.")
    return result


# ---------------------------------------------------------------------------
# Figure 21 — detection-range comparison with the baselines
# ---------------------------------------------------------------------------

def figure21_detection_range() -> SweepResult:
    """Packet-detection range of Saiyan, PLoRa and Aloba, outdoors and indoors."""
    result = SweepResult(title="Figure 21: detection range comparison")
    scenarios = {
        "outdoor": outdoor_environment(fading=NoFading()),
        "indoor": indoor_environment(num_walls=1, fading=NoFading()),
    }
    for scenario_name, environment in scenarios.items():
        link = environment.link_budget()
        saiyan = _saiyan_model(environment=environment)
        # The paper's Figure 21 reports the range at which Saiyan still
        # *decodes* packets reliably (148.6 m outdoors), which corresponds to
        # this model's demodulation range; raw energy detection reaches a bit
        # further (the ~180 m of Figure 22) and is reported as a scalar.
        saiyan_range = float(demodulation_ranges([saiyan])[0])
        aloba_range, plora_range = detection_ranges(
            [BaselineLinkModel("aloba", link), BaselineLinkModel("plora", link)])
        result.add_series(SeriesResult.from_arrays(
            scenario_name, (0, 1, 2), (aloba_range, plora_range, saiyan_range),
            x_label="system (0=Aloba, 1=PLoRa, 2=Saiyan)", y_label="detection range (m)"))
        result.add_scalar(f"saiyan_{scenario_name}_m", saiyan_range)
        result.add_scalar(f"saiyan_{scenario_name}_detection_m", saiyan.detection_range_m())
        result.add_scalar(f"plora_{scenario_name}_m", plora_range)
        result.add_scalar(f"aloba_{scenario_name}_m", aloba_range)
        result.add_scalar(f"gain_over_aloba_{scenario_name}",
                          saiyan_range / max(aloba_range, 1e-9))
        result.add_scalar(f"gain_over_plora_{scenario_name}",
                          saiyan_range / max(plora_range, 1e-9))
    result.notes = ("Paper: outdoors 148.6 m vs 42.4 m (PLoRa) and 30.6 m (Aloba); indoors "
                    "44.2 m vs 16.8 m and 12.4 m — a 2.6-4.5x advantage.")
    return result


# ---------------------------------------------------------------------------
# Figure 22 — receiver sensitivity (RSS and BER over distance)
# ---------------------------------------------------------------------------

def figure22_sensitivity(*, distances_m: tuple[float, ...] = (10, 30, 50, 70, 90, 110, 130,
                                                              150, 170, 180)) -> SweepResult:
    """RSS and BER against distance; the detection limit defines the sensitivity."""
    model = _saiyan_model()
    result = SweepResult(title="Figure 22: RSS and BER over distance (receiver sensitivity)")
    rss_values = model.rss_at(np.asarray(distances_m, dtype=float))
    ber_values = model.bit_error_rate(rss_values)
    detection = model.detection_probability(rss_values)
    result.add_series(SeriesResult.from_arrays(
        "rss", distances_m, rss_values, x_label="distance (m)", y_label="RSS (dBm)"))
    result.add_series(SeriesResult.from_arrays(
        "ber", distances_m, ber_values, x_label="distance (m)", y_label="BER"))
    result.add_series(SeriesResult.from_arrays(
        "detection_probability", distances_m, detection,
        x_label="distance (m)", y_label="P(detect)"))
    result.add_scalar("sensitivity_dbm", model.detection_sensitivity_dbm)
    result.add_scalar("detection_range_m", model.detection_range_m())
    result.add_scalar("envelope_detector_sensitivity_dbm",
                      BaselineLinkModel("envelope", model.link).detection_sensitivity_dbm)
    result.add_scalar("sensitivity_gain_over_envelope_db",
                      BaselineLinkModel("envelope", model.link).detection_sensitivity_dbm
                      - model.detection_sensitivity_dbm)
    result.notes = ("Paper: Saiyan detects packets down to -85.8 dBm (about 180 m), 30 dB "
                    "better than a conventional envelope detector.")
    return result


# ---------------------------------------------------------------------------
# Figure 23 — SAW amplitude gap vs distance and bandwidth
# ---------------------------------------------------------------------------

def figure23_amplitude_gap(*, distances_m: tuple[float, ...] = (10, 30, 50, 70, 90, 100)
                           ) -> SweepResult:
    """Observable SAW output amplitude gap against distance per bandwidth."""
    saw = SAWFilter()
    environment = outdoor_environment(fading=NoFading())
    link = environment.link_budget()
    result = SweepResult(title="Figure 23: SAW amplitude gap vs distance")
    noise_dbm = link.noise_dbm(500e3)
    rss = link.rss_dbm(np.asarray(distances_m, dtype=float))
    for bandwidth in (125e3, 250e3, 500e3):
        intrinsic_gap = saw.amplitude_gap_db(bandwidth)
        top_gain = float(np.asarray(saw.gain_db(bandwidth)))
        top_dbm = rss + top_gain
        observable_bottom = np.maximum(top_dbm - intrinsic_gap, noise_dbm)
        gaps = np.maximum(top_dbm - observable_bottom, 0.0)
        result.add_series(SeriesResult.from_arrays(
            f"gap_{int(bandwidth / 1e3)}khz", distances_m, gaps,
            x_label="Tx-to-tag distance (m)", y_label="amplitude gap (dB)"))
    gap500 = result.get_series("gap_500khz")
    gap125 = result.get_series("gap_125khz")
    result.add_scalar("gap_500khz_at_10m", gap500.y_at(10))
    result.add_scalar("gap_125khz_at_10m", gap125.y_at(10))
    result.add_scalar("gap_500khz_at_100m", gap500.y_at(100))
    result.notes = ("Paper: at 10 m the gap is 24.7/9.3/7.1 dB for 500/250/125 kHz and "
                    "shrinks with distance (20.2 dB at 100 m for 500 kHz).")
    return result


# ---------------------------------------------------------------------------
# Figure 24 — temperature sensitivity
# ---------------------------------------------------------------------------

def figure24_temperature(*, hours: tuple[float, ...] = (8, 10, 12, 14, 16, 18, 20)
                         ) -> SweepResult:
    """Demodulation range over a day with the measured temperature profile."""
    # Temperature profile of the paper's experiment day: -8.6 °C at 8 a.m.
    # rising to 1.6 °C at 2 p.m. and cooling towards evening.
    temperatures = [-8.6, -5.0, -1.0, 1.6, 0.0, -3.0, -6.0]
    environment = outdoor_environment(fading=NoFading())
    result = SweepResult(title="Figure 24: demodulation range vs temperature")
    models = [_saiyan_model(environment=environment, temperature_c=temperature)
              for temperature in temperatures]
    ranges = demodulation_ranges(models)
    result.add_series(SeriesResult.from_arrays(
        "temperature", hours, temperatures, x_label="time (h)", y_label="temperature (C)"))
    result.add_series(SeriesResult.from_arrays(
        "range", hours, ranges, x_label="time (h)", y_label="range (m)"))
    result.add_scalar("range_max_m", float(np.max(ranges)))
    result.add_scalar("range_min_m", float(np.min(ranges)))
    result.add_scalar("relative_drop", float(1.0 - np.min(ranges) / np.max(ranges)))
    result.notes = ("Paper: the range only drops from 126.4 m to 118.6 m (~6%) across the "
                    "-8.6 °C ... 1.6 °C day — the SAW response is largely insensitive.")
    return result


# ---------------------------------------------------------------------------
# Figure 25 — ablation study
# ---------------------------------------------------------------------------

def figure25_ablation(*, bits_per_chirp_values: tuple[int, ...] = (1, 2, 3, 4, 5)
                      ) -> SweepResult:
    """Demodulation range of vanilla / +frequency-shift / +correlation per coding rate."""
    environment = outdoor_environment(fading=NoFading())
    result = SweepResult(title="Figure 25: ablation study")
    modes = (SaiyanMode.VANILLA, SaiyanMode.FREQUENCY_SHIFT, SaiyanMode.SUPER)
    # One bisection over the whole mode x coding-rate family at once.
    family = [_saiyan_model(mode=mode, downlink=DEFAULT_DOWNLINK.with_(bits_per_chirp=k),
                            environment=environment)
              for mode in modes for k in bits_per_chirp_values]
    family_ranges = demodulation_ranges(family).reshape(len(modes),
                                                        len(bits_per_chirp_values))
    ranges: dict[SaiyanMode, np.ndarray] = {}
    for mode, mode_ranges in zip(modes, family_ranges):
        ranges[mode] = mode_ranges
        result.add_series(SeriesResult.from_arrays(
            mode.value, bits_per_chirp_values, mode_ranges,
            x_label="coding rate (K)", y_label="range (m)"))
    vanilla = np.array(ranges[SaiyanMode.VANILLA])
    shifted = np.array(ranges[SaiyanMode.FREQUENCY_SHIFT])
    full = np.array(ranges[SaiyanMode.SUPER])
    result.add_scalar("vanilla_range_min_m", float(vanilla.min()))
    result.add_scalar("vanilla_range_max_m", float(vanilla.max()))
    result.add_scalar("shift_gain_min", float((shifted / vanilla).min()))
    result.add_scalar("shift_gain_max", float((shifted / vanilla).max()))
    result.add_scalar("correlation_gain_min", float((full / shifted).min()))
    result.add_scalar("correlation_gain_max", float((full / shifted).max()))
    result.notes = ("Paper: vanilla reaches 38.4-72.6 m; cyclic frequency shifting multiplies "
                    "the range by 1.56-1.73x and correlation by a further 1.94-2.25x.")
    return result


# ---------------------------------------------------------------------------
# Table 2 / §4.3 — power and cost
# ---------------------------------------------------------------------------

def table2_power_cost() -> SweepResult:
    """Per-component energy (1 % duty cycle) and cost, plus the ASIC budget."""
    pcb = pcb_power_table()
    asic = asic_power_budget()
    result = SweepResult(title="Table 2: power and cost")
    names = [entry.name for entry in pcb.entries]
    result.add_series(SeriesResult.from_arrays(
        "pcb_power_uw", range(len(names)), [entry.power_uw for entry in pcb.entries],
        x_label="component index", y_label="power (µW)"))
    result.add_series(SeriesResult.from_arrays(
        "pcb_cost_usd", range(len(names)), [entry.cost_usd for entry in pcb.entries],
        x_label="component index", y_label="cost ($)"))
    result.add_scalar("pcb_total_power_uw", pcb.total_power_uw)
    result.add_scalar("pcb_total_cost_usd", pcb.total_cost_usd)
    result.add_scalar("asic_total_power_uw", asic.total_power_uw)
    result.add_scalar("lna_share", pcb.fraction_of_total("lna"))
    result.add_scalar("oscillator_share", pcb.fraction_of_total("oscillator"))
    result.add_scalar("asic_saving_vs_pcb",
                      1.0 - asic.total_power_uw / pcb.total_power_uw)
    result.add_scalar("paper_pcb_total_uw", PCB_TOTAL_POWER_UW)
    result.add_scalar("paper_asic_total_uw", ASIC_TOTAL_POWER_UW)
    result.add_scalar("paper_pcb_cost_usd", PCB_TOTAL_COST_USD)
    result.notes = ("Paper: 369.4 µW PCB total (LNA 67.3%, oscillator 23.5%), $27.2 cost, "
                    "93.2 µW after ASIC integration (74.8% reduction).")
    return result


# ---------------------------------------------------------------------------
# Figure 26 — packet retransmission case study
# ---------------------------------------------------------------------------

def figure26_retransmission(*, num_packets: int = 1000,
                            random_state: RandomState = 26) -> SweepResult:
    """PRR against the number of allowed retransmissions for PLoRa and Aloba tags.

    Runs on the scenario-driven network engine
    (:mod:`repro.sim.network_engine`) through the calibrated-probability
    front end: each budget is a single-tag, single-window ARQ scenario whose
    per-attempt success probability pins the paper's measured loss rates.
    """
    # First-attempt uplink success probabilities at the 100 m link of the
    # case study, calibrated to the paper's no-retransmission PRR.
    base_success = {"plora": 0.818, "aloba": 0.456}
    environment = outdoor_environment(fading=NoFading())
    link = environment.link_budget()
    downlink_rss = link.rss_dbm(100.0)
    result = SweepResult(title="Figure 26: PRR vs number of retransmissions")
    retransmissions = (0, 1, 2, 3)
    for name, probability in base_success.items():
        simulator = FeedbackNetworkSimulator(
            uplink_success_probability=lambda tag, channel, p=probability: p,
            downlink_rss_dbm=lambda tag, rss=downlink_rss: rss,
            config=SaiyanConfig(downlink=DEFAULT_DOWNLINK, mode=SaiyanMode.SUPER),
        )
        prrs = []
        for budget in retransmissions:
            outcome = simulator.run_retransmission_experiment(
                num_packets=num_packets, max_retransmissions=budget,
                random_state=as_rng(random_state))
            prrs.append(outcome.prr * 100.0)
        result.add_series(SeriesResult.from_arrays(
            name, retransmissions, prrs,
            x_label="retransmissions", y_label="PRR (%)"))
        result.add_scalar(f"{name}_prr_no_retx", prrs[0])
        result.add_scalar(f"{name}_prr_three_retx", prrs[-1])
    result.notes = ("Paper: Aloba grows from 45.6% to 70.1/83.3/95.5% with 1/2/3 "
                    "retransmissions; PLoRa from 81.8% towards ~100%.")
    return result


# ---------------------------------------------------------------------------
# Figure 27 — channel hopping case study
# ---------------------------------------------------------------------------

def figure27_channel_hopping(*, num_windows: int = 60, packets_per_window: int = 25,
                             random_state: RandomState = 27) -> SweepResult:
    """PRR CDF before and after hopping away from a jammed channel.

    Runs on the scenario-driven network engine
    (:mod:`repro.sim.network_engine`): a single-tag hopping scenario whose
    externally-owned spectrum monitor and per-channel probabilities are
    calibrated to the paper's jammed/clean PRR levels.
    """
    plan = ChannelPlan(base_frequency_hz=433.5e6, spacing_hz=500e3, num_channels=4)
    interference = InterferenceEnvironment()
    # The jamming USRP sits 3 m from the receiver on 433 MHz and wipes out
    # most of channel 0 (the paper's 434 MHz PLoRa channel is modelled as
    # channel 0 here, with channel 2 playing the 434.5 MHz escape channel).
    interference.add(Jammer(frequency_hz=JAMMER_CHANNEL_HZ, power_dbm=20.0,
                            bandwidth_hz=1.2e6, distance_m=3.0))
    hop_controller = ChannelHopController(plan=plan, interference=interference,
                                          interference_threshold_dbm=-80.0)
    environment = outdoor_environment(fading=NoFading())
    link = environment.link_budget()
    downlink_rss = link.rss_dbm(100.0)

    def uplink_probability(tag, channel_index: int) -> float:
        frequency = plan.frequency_of(channel_index)
        if not interference.channel_is_clean(frequency, plan.bandwidth_hz,
                                             threshold_dbm=-80.0):
            return 0.47
        return 0.93

    simulator = FeedbackNetworkSimulator(
        uplink_success_probability=uplink_probability,
        downlink_rss_dbm=lambda tag: downlink_rss,
        config=SaiyanConfig(downlink=DEFAULT_DOWNLINK, mode=SaiyanMode.SUPER),
    )
    windows = simulator.run_channel_hopping_experiment(
        hop_controller=hop_controller, num_windows=num_windows,
        packets_per_window=packets_per_window,
        hop_after_window=num_windows // 2, random_state=random_state)
    jammed_prr = [w.prr * 100.0 for w in windows if w.jammed]
    clean_prr = [w.prr * 100.0 for w in windows if not w.jammed]
    result = SweepResult(title="Figure 27: PRR before/after channel hopping")
    values, fractions = FeedbackNetworkSimulator.prr_cdf(windows)
    result.add_series(SeriesResult.from_arrays(
        "prr_cdf", values * 100.0, fractions, x_label="PRR (%)", y_label="CDF"))
    if jammed_prr:
        result.add_series(SeriesResult.from_arrays(
            "jammed_windows", range(len(jammed_prr)), jammed_prr,
            x_label="window", y_label="PRR (%)"))
    if clean_prr:
        result.add_series(SeriesResult.from_arrays(
            "clean_windows", range(len(clean_prr)), clean_prr,
            x_label="window", y_label="PRR (%)"))
    result.add_scalar("median_prr_jammed", float(np.median(jammed_prr)) if jammed_prr else 0.0)
    result.add_scalar("median_prr_clean", float(np.median(clean_prr)) if clean_prr else 0.0)
    result.add_scalar("hops_issued", float(hop_controller.hops_issued))
    result.notes = ("Paper: the median PRR grows from 47% on the jammed channel to 92% "
                    "after the tag hops to a clean channel.")
    return result


# ---------------------------------------------------------------------------
# Waveform-level ablation artefacts (sharded engine, repro.sim.waveform_engine)
# ---------------------------------------------------------------------------

def _waveform_artefact(spec, *, random_state: RandomState, title: str,
                       notes: str) -> SweepResult:
    from repro.sim.waveform_engine import run_sweep

    result = run_sweep(spec, random_state=random_state).to_sweep_result()
    result.title = title
    result.notes = notes
    return result


def waveform_vanilla(*, snrs_db: tuple[float, ...] = (-9.0, -3.0, 3.0, 9.0, 15.0),
                     num_symbols: int = 48, random_state: RandomState = 113) -> SweepResult:
    """Waveform-level SER/BER of the vanilla comparator pipeline vs SNR.

    Pins the mechanism-faithful :func:`~repro.sim.waveform_ber.snr_sweep`
    curve for the double-threshold pipeline: the engine result is
    bit-identical to the serial sweep under the same seed, so this fixture
    guards demodulator refactors against silent ablation-curve drift.
    """
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec

    spec = WaveformSweepSpec(
        name="vanilla", receivers=(ReceiverSpec(mode=SaiyanMode.VANILLA),),
        snrs_db=snrs_db, num_symbols=num_symbols)
    return _waveform_artefact(
        spec, random_state=random_state,
        title="Waveform ablation: vanilla Saiyan SER vs SNR",
        notes=("Mechanism-level Monte-Carlo of the SAW + double-threshold "
               "comparator pipeline; bit-identical to the serial snr_sweep."))


def waveform_super(*, snrs_db: tuple[float, ...] = (-18.0, -12.0, -6.0, 0.0, 6.0),
                   num_symbols: int = 48, random_state: RandomState = 113) -> SweepResult:
    """Waveform-level SER/BER of the full Super Saiyan pipeline vs SNR."""
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec

    spec = WaveformSweepSpec(
        name="super", receivers=(ReceiverSpec(mode=SaiyanMode.SUPER),),
        snrs_db=snrs_db, num_symbols=num_symbols)
    return _waveform_artefact(
        spec, random_state=random_state,
        title="Waveform ablation: Super Saiyan SER vs SNR",
        notes=("Mechanism-level Monte-Carlo of the cyclic-frequency-shift + "
               "correlation pipeline; bit-identical to the serial snr_sweep."))


def waveform_sampling(*, snrs_db: tuple[float, ...] = (24.0, 30.0),
                      num_symbols: int = 96, random_state: RandomState = 251) -> SweepResult:
    """The 3.2x sampling-rate rule at waveform level (Table 1 ablation).

    Vanilla-pipeline accuracy against the comparator sampling-rate factor
    at high SNR, where residual errors are purely sampling-induced: below
    Nyquist (factor < 2) the peak positions alias catastrophically, between
    Nyquist and the paper's 3.2x rule a residual error floor remains, and
    at >= 3.2x decoding is clean.
    """
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec

    factors = (1.2, 2.0, 2.6, 3.2, 4.0)
    receivers = tuple(
        ReceiverSpec(mode=SaiyanMode.VANILLA, sampling_safety_factor=factor,
                     label=f"vanilla-{factor:g}x")
        for factor in factors)
    spec = WaveformSweepSpec(name="sampling", receivers=receivers,
                             snrs_db=snrs_db, num_symbols=num_symbols)
    result = _waveform_artefact(
        spec, random_state=random_state,
        title="Waveform ablation: comparator sampling-rate rule",
        notes=("Paper (Table 1): 3.2 x BW / 2^(SF-K) guarantees 99.9% "
               "decoding accuracy; sub-Nyquist factors alias the peak "
               "positions, intermediate factors leave a residual error floor."))
    top_snr = max(snrs_db)
    result.add_scalar("sub_nyquist_ser_at_top_snr",
                      result.get_series(f"vanilla-{factors[0]:g}x_ser").y_at(top_snr))
    result.add_scalar("rule_ser_at_top_snr",
                      result.get_series("vanilla-3.2x_ser").y_at(top_snr))
    return result


def waveform_baselines(*, snrs_db: tuple[float, ...] = (-18.0, -9.0, 0.0, 9.0),
                       num_symbols: int = 48, random_state: RandomState = 73) -> SweepResult:
    """Saiyan vs the four baseline receivers at waveform level.

    SER for the demodulating receivers (Super Saiyan and the commodity
    FFT receiver), preamble detection rate for PLoRa / Aloba / envelope.
    """
    from repro.sim.waveform_engine import ReceiverSpec, WaveformSweepSpec

    spec = WaveformSweepSpec(
        name="baselines",
        receivers=(ReceiverSpec(mode=SaiyanMode.SUPER),
                   ReceiverSpec(kind="standard_lora"),
                   ReceiverSpec(kind="plora"),
                   ReceiverSpec(kind="aloba"),
                   ReceiverSpec(kind="envelope")),
        snrs_db=snrs_db, num_symbols=num_symbols)
    return _waveform_artefact(
        spec, random_state=random_state,
        title="Waveform ablation: Saiyan vs baseline receivers",
        notes=("Same downlink chirps and channel for every receiver; the "
               "detectors see a standard preamble at the same SNR."))


# ---------------------------------------------------------------------------
# Registry and convenience runner (used by the CLI, the BatchRunner, the
# golden-figure regression tests and `repro report`, which renders
# EXPERIMENTS.md from their stored payloads)
# ---------------------------------------------------------------------------

#: Every paper artefact, keyed by id, mapped to its zero-argument driver.
#: :class:`repro.sim.batch.BatchRunner` fans these out (optionally over a
#: process pool) and records one manifest per artefact.
FIGURE_DRIVERS: dict[str, Callable[[], SweepResult]] = {
    "fig2": figure2_baseline_uplink_ber,
    "fig5": figure5_saw_response,
    "fig6": figure6_saw_symbols,
    "fig7": figure7_comparator,
    "tab1": table1_sampling_rate,
    "fig10": figure10_cyclic_shift,
    "fig16": figure16_coding_rate,
    "fig17": figure17_spreading_factor,
    "fig18": figure18_bandwidth,
    "fig19": figure19_one_wall,
    "fig20": figure20_two_walls,
    "fig21": figure21_detection_range,
    "fig22": figure22_sensitivity,
    "fig23": figure23_amplitude_gap,
    "fig24": figure24_temperature,
    "fig25": figure25_ablation,
    "tab2": table2_power_cost,
    "fig26": figure26_retransmission,
    "fig27": figure27_channel_hopping,
    "waveform_vanilla": waveform_vanilla,
    "waveform_super": waveform_super,
    "waveform_sampling": waveform_sampling,
    "waveform_baselines": waveform_baselines,
}


def run_all(*, fast: bool = True) -> dict[str, SweepResult]:
    """Run every experiment driver and return the results keyed by artefact id."""
    del fast  # all drivers are already fast; the flag is kept for API stability
    return {artefact: driver() for artefact, driver in FIGURE_DRIVERS.items()}
