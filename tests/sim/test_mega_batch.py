"""Bit-parity battery for the fused mega-batch kernel and auto scheduling.

The fused staging path puts every cell's bursts through one
structure-of-arrays front-end pass.  Its entire contract is "bit-identical
to everything else": the serial reference loop
(:func:`~repro.sim.waveform_ber.measure_symbol_errors`) and any shard
count — including the ``shards="auto"`` route.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SaiyanConfig, SaiyanMode
from repro.exceptions import ConfigurationError
from repro.sim.waveform_ber import measure_symbol_errors
from repro.sim.waveform_engine import (
    WAVEFORM_SWEEPS,
    ReceiverSpec,
    SaiyanBurstKernel,
    WaveformSweepSpec,
    run_sweep,
)

SNRS = (-10.0, -2.0, 4.0)


def _fused(kernel, *, num_symbols=16, symbols_per_burst=16, seed=23,
           snrs=SNRS):
    streams = np.random.default_rng(seed).spawn(len(snrs))
    return kernel.measure_cells(snrs, streams, num_symbols=num_symbols,
                                symbols_per_burst=symbols_per_burst)


def _serial(config, *, num_symbols=16, symbols_per_burst=16, seed=23,
            snrs=SNRS):
    streams = np.random.default_rng(seed).spawn(len(snrs))
    return [measure_symbol_errors(config, snr, num_symbols=num_symbols,
                                  symbols_per_burst=symbols_per_burst,
                                  random_state=stream)
            for snr, stream in zip(snrs, streams)]


# ---------------------------------------------------------------------------
# Fused == serial, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(SaiyanMode))
def test_fused_matches_serial_reference(mode, downlink):
    config = SaiyanConfig(downlink=downlink, mode=mode)
    kernel = SaiyanBurstKernel(config)
    assert _fused(kernel, seed=7) == _serial(config, seed=7)


def test_fused_matches_serial_multi_burst_plan(saiyan_config):
    # 40 symbols at 16 per burst: two full bursts plus an 8-symbol tail,
    # so the fused staging must handle two different row lengths per cell.
    kernel = SaiyanBurstKernel(saiyan_config)
    fused = _fused(kernel, num_symbols=40, symbols_per_burst=16)
    serial = _serial(saiyan_config, num_symbols=40, symbols_per_burst=16)
    assert fused == serial


def test_single_cell_measure_matches_serial(saiyan_config):
    kernel = SaiyanBurstKernel(saiyan_config)
    fused = kernel.measure(-4.0, num_symbols=12, random_state=41)
    serial = measure_symbol_errors(saiyan_config, -4.0, num_symbols=12,
                                   symbols_per_burst=16, random_state=41)
    assert fused == serial


# ---------------------------------------------------------------------------
# Auto scheduling: shards="auto" is bit-identical to any forced count
# ---------------------------------------------------------------------------

def _shrunk(spec: WaveformSweepSpec) -> WaveformSweepSpec:
    """CI-size a registry sweep: few cells, few symbols, same structure."""
    return spec.with_(snrs_db=spec.snrs_db[:2], num_symbols=8,
                      symbols_per_burst=8)


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(sorted(WAVEFORM_SWEEPS)),
       forced=st.sampled_from([1, 2]))
def test_auto_shards_bit_identical_across_registry(name, forced):
    spec = _shrunk(WAVEFORM_SWEEPS[name])
    auto = run_sweep(spec, shards="auto")
    forced_run = run_sweep(spec, shards=forced)
    assert auto.cells == forced_run.cells
    assert isinstance(auto.shards, int) and auto.shards >= 1


def test_run_sweep_rejects_unknown_shard_strings(saiyan_config):
    spec = WaveformSweepSpec(name="t", receivers=(ReceiverSpec(),),
                             snrs_db=(-4.0,), num_symbols=8, seed=1)
    with pytest.raises(ConfigurationError):
        run_sweep(spec, shards="all")
    with pytest.raises(ConfigurationError):
        run_sweep(spec, shards=0)
