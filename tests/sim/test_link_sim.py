"""Unit tests for the calibrated link-level models."""

import pytest

from repro.channel.backscatter_link import BackscatterLink
from repro.channel.environment import indoor_environment, outdoor_environment
from repro.channel.fading import NoFading
from repro.constants import SAIYAN_SENSITIVITY_DBM
from repro.core.config import SaiyanConfig, SaiyanMode
from repro.exceptions import ConfigurationError
from repro.lora.parameters import DownlinkParameters
from repro.sim.link_sim import BackscatterUplinkModel, BaselineLinkModel, SaiyanLinkModel


def _model(mode=SaiyanMode.SUPER, *, bits_per_chirp=2, bandwidth_hz=500e3,
           spreading_factor=7, environment=None):
    environment = environment or outdoor_environment(fading=NoFading())
    downlink = DownlinkParameters(spreading_factor=spreading_factor,
                                  bandwidth_hz=bandwidth_hz,
                                  bits_per_chirp=bits_per_chirp)
    return SaiyanLinkModel(config=SaiyanConfig(downlink=downlink, mode=mode),
                           link=environment.link_budget())


def test_super_demodulation_sensitivity_near_paper_value():
    model = _model()
    assert model.demodulation_sensitivity_dbm() == pytest.approx(-82.5, abs=1.0)
    assert model.detection_sensitivity_dbm == pytest.approx(SAIYAN_SENSITIVITY_DBM,
                                                              abs=0.5)


def test_mode_ladder_orders_sensitivities():
    super_ = _model(SaiyanMode.SUPER).demodulation_sensitivity_dbm()
    shift = _model(SaiyanMode.FREQUENCY_SHIFT).demodulation_sensitivity_dbm()
    vanilla = _model(SaiyanMode.VANILLA).demodulation_sensitivity_dbm()
    assert super_ < shift < vanilla


def test_ber_decreases_with_rss():
    model = _model()
    assert model.bit_error_rate(-60.0) < model.bit_error_rate(-80.0)
    assert model.bit_error_rate(model.demodulation_sensitivity_dbm()) == pytest.approx(
        1e-3, rel=0.05)


def test_ber_increases_with_bits_per_chirp():
    model = _model()
    rss = -75.0
    assert (model.bit_error_rate(rss, bits_per_chirp=5)
            > model.bit_error_rate(rss, bits_per_chirp=1))


def test_detection_probability_is_monotone_and_bounded():
    model = _model()
    strong = model.detection_probability(-60.0)
    weak = model.detection_probability(-95.0)
    assert 0.99 < strong <= 1.0
    assert 0.0 <= weak < 0.05
    assert model.detection_probability(model.detection_sensitivity_dbm) == pytest.approx(
        0.5, abs=0.05)


def test_data_rate_and_throughput():
    model = _model()
    assert model.data_rate_bps() == pytest.approx(2 * 500e3 / 128)
    assert model.throughput_bps(-60.0) <= model.data_rate_bps()
    assert model.throughput_bps(-60.0) > 0.99 * model.data_rate_bps()


def test_demodulation_range_matches_headline_number():
    model = _model()
    assert model.demodulation_range_m() == pytest.approx(148.0, rel=0.1)


def test_detection_range_near_180m():
    model = _model()
    assert model.detection_range_m() == pytest.approx(180.0, rel=0.1)


def test_range_grows_with_spreading_factor():
    assert (_model(spreading_factor=12).demodulation_range_m()
            > _model(spreading_factor=7).demodulation_range_m())


def test_range_grows_with_bandwidth():
    assert (_model(bandwidth_hz=500e3).demodulation_range_m()
            > _model(bandwidth_hz=125e3).demodulation_range_m())


def test_indoor_range_is_shorter():
    indoor = _model(environment=indoor_environment(num_walls=1, fading=NoFading()))
    outdoor = _model()
    assert indoor.demodulation_range_m() < 0.5 * outdoor.demodulation_range_m()


def test_with_mode_returns_new_model():
    model = _model()
    vanilla = model.with_mode(SaiyanMode.VANILLA)
    assert vanilla.config.mode is SaiyanMode.VANILLA
    assert vanilla.demodulation_range_m() < model.demodulation_range_m()


def test_baseline_models_sensitivities_and_ranges():
    link = outdoor_environment(fading=NoFading()).link_budget()
    plora = BaselineLinkModel("plora", link)
    aloba = BaselineLinkModel("aloba", link)
    assert plora.detection_sensitivity_dbm < aloba.detection_sensitivity_dbm
    assert plora.detection_range_m() > aloba.detection_range_m()
    assert plora.detection_range_m() == pytest.approx(42.0, rel=0.15)
    assert aloba.detection_range_m() == pytest.approx(30.0, rel=0.15)


def test_baseline_model_rejects_unknown_name():
    link = outdoor_environment().link_budget()
    with pytest.raises(ConfigurationError):
        BaselineLinkModel("zigbee", link)


def test_backscatter_uplink_ber_grows_with_tag_distance():
    link = outdoor_environment(fading=NoFading()).link_budget()
    uplink = BackscatterUplinkModel(uplink=BackscatterLink(forward=link, backward=link))
    near = uplink.bit_error_rate(0.5, 100.0)
    far = uplink.bit_error_rate(20.0, 100.0)
    assert near < 0.01
    assert far > 0.4


def test_backscatter_packet_success_probability_bounded():
    link = outdoor_environment().link_budget()
    uplink = BackscatterUplinkModel(uplink=BackscatterLink(forward=link, backward=link))
    p = uplink.packet_success_probability(1.0, 60.0, payload_bits=32,
                                          num_fading_draws=50, random_state=0)
    assert 0.0 <= p <= 1.0


def test_saiyan_model_validation():
    with pytest.raises(ConfigurationError):
        SaiyanLinkModel(config="nope", link=outdoor_environment().link_budget())
    with pytest.raises(ConfigurationError):
        SaiyanLinkModel(config=SaiyanConfig(), link="nope")
