"""Saiyan reproduction library.

A production-quality Python reproduction of *"Saiyan: Design and
Implementation of a Low-power Demodulator for LoRa Backscatter Systems"*
(NSDI 2022).  The package is organised in layers:

* :mod:`repro.dsp` — signal containers, chirps, filters, envelope, noise,
  correlation.
* :mod:`repro.lora` — LoRa PHY (modulation, coding, packets).
* :mod:`repro.channel` — path loss, walls, fading, backscatter links,
  interference, environment presets.
* :mod:`repro.hardware` — SAW filter, LNA, envelope detector, comparator,
  mixers, oscillator, MCU, energy harvester, power ledgers.
* :mod:`repro.core` — the Saiyan demodulator itself (vanilla and super),
  packet decoder, receiver API and power model.
* :mod:`repro.baselines` — PLoRa, Aloba, commodity LoRa and plain
  envelope-detector receivers.
* :mod:`repro.net` — backscatter tag, access point, feedback loop, ARQ,
  channel hopping, rate adaptation, slotted-ALOHA MAC.
* :mod:`repro.sim` — Monte-Carlo link simulation, event-driven network
  simulation and the per-figure experiment drivers.
"""

import importlib

__version__ = "1.0.0"

#: Re-exported name -> defining module.  Resolved on first access (PEP 562),
#: so ``import repro`` and ``repro --help`` load no engine, NumPy or SciPy.
_EXPORTS = {
    "SaiyanConfig": "repro.core.config",
    "SaiyanMode": "repro.core.config",
    "SaiyanReceiver": "repro.core.receiver",
    "DownlinkParameters": "repro.lora.parameters",
    "LoRaParameters": "repro.lora.parameters",
}

__all__ = [
    "SaiyanConfig",
    "SaiyanMode",
    "SaiyanReceiver",
    "DownlinkParameters",
    "LoRaParameters",
    "__version__",
]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
