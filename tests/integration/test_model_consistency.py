"""Cross-model consistency: the waveform pipeline vs the calibrated link model.

The field-study figures are produced by the calibrated link abstraction
(:mod:`repro.sim.link_sim`); these tests check that its qualitative structure
agrees with the mechanism-level waveform pipeline and with the paper-derived
constants, so the two layers cannot silently drift apart.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.environment import outdoor_environment
from repro.channel.fading import NoFading
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.core.receiver import SaiyanReceiver
from repro.lora.parameters import DownlinkParameters
from repro.sim.link_sim import SaiyanLinkModel
from repro.sim.waveform_ber import compare_modes, measure_symbol_errors


def _link_model(mode=SaiyanMode.SUPER, **downlink_kwargs):
    downlink = DownlinkParameters(**{"spreading_factor": 7, "bandwidth_hz": 500e3,
                                     "bits_per_chirp": 2, **downlink_kwargs})
    return SaiyanLinkModel(config=SaiyanConfig(downlink=downlink, mode=mode),
                           link=outdoor_environment(fading=NoFading()).link_budget())


# ---------------------------------------------------------------------------
# Link model internal invariants (property-based)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-110.0, max_value=-30.0), st.floats(min_value=0.5, max_value=20.0))
def test_ber_is_monotone_in_rss_property(rss, delta):
    model = _link_model()
    assert model.bit_error_rate(rss + delta) <= model.bit_error_rate(rss)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-110.0, max_value=-30.0),
       st.integers(min_value=1, max_value=4))
def test_ber_is_monotone_in_bits_per_chirp_property(rss, bits):
    model = _link_model()
    assert (model.bit_error_rate(rss, bits_per_chirp=bits)
            <= model.bit_error_rate(rss, bits_per_chirp=bits + 1))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-110.0, max_value=-30.0))
def test_detection_probability_is_a_probability(rss):
    model = _link_model()
    probability = model.detection_probability(rss)
    assert 0.0 <= probability <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.0, max_value=400.0))
def test_throughput_never_exceeds_data_rate_property(distance):
    model = _link_model()
    assert model.throughput_at_distance(distance) <= model.data_rate_bps() + 1e-9


def test_mode_ordering_consistent_between_layers():
    """Both layers agree that super >= frequency-shift >= vanilla."""
    # Link-model ranges:
    ranges = {mode: _link_model(mode).demodulation_range_m()
              for mode in (SaiyanMode.VANILLA, SaiyanMode.FREQUENCY_SHIFT, SaiyanMode.SUPER)}
    assert ranges[SaiyanMode.SUPER] > ranges[SaiyanMode.FREQUENCY_SHIFT] > ranges[
        SaiyanMode.VANILLA]
    # Waveform level at a stressful SNR: super makes no more errors than vanilla.
    downlink = DownlinkParameters(spreading_factor=7, bandwidth_hz=500e3, bits_per_chirp=2)
    waveform = compare_modes(downlink, 3.0, num_symbols=32, random_state=11)
    assert (waveform[SaiyanMode.SUPER].symbol_error_rate
            <= waveform[SaiyanMode.VANILLA].symbol_error_rate)


def test_waveform_pipeline_clean_at_link_model_operating_point():
    """At an SNR where the link model predicts essentially error-free decoding,
    the waveform pipeline is error-free too."""
    model = _link_model()
    downlink = model.config.downlink
    # 30 dB above the demodulation sensitivity (in-band SNR terms).
    sensitivity_snr = model.demodulation_sensitivity_dbm() - model.link.noise_dbm(
        downlink.bandwidth_hz)
    point = measure_symbol_errors(model.config, sensitivity_snr + 30.0,
                                  num_symbols=24, random_state=5)
    assert point.symbol_errors == 0


def test_sensitivity_ladder_matches_receiver_constants():
    """The link model's sensitivities are exactly the SaiyanReceiver ladder
    at the reference configuration (SF7, 500 kHz, K=2, 25 °C)."""
    for mode in SaiyanMode:
        model = _link_model(mode)
        assert model.detection_sensitivity_dbm == pytest.approx(
            SaiyanReceiver.detection_sensitivity_dbm(mode), abs=1e-6)
        assert model.demodulation_sensitivity_dbm() == pytest.approx(
            SaiyanReceiver.demodulation_sensitivity_dbm(mode), abs=1e-6)
