"""Small-scale fading models.

Outdoor line-of-sight links are modelled with Rician fading (strong direct
path plus scattered energy); indoor non-line-of-sight links with Rayleigh
fading.  Each model returns a multiplicative *power* gain whose mean is one,
so adding fading never changes the average link budget — it only spreads the
per-packet realisations, which is what drives the packet-loss statistics the
retransmission case study (Figure 26) depends on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import ensure_non_negative


class FadingModel(ABC):
    """Interface of a small-scale fading model."""

    @abstractmethod
    def sample_power_gain(self, *, size: int | tuple | None = None,
                          random_state: RandomState = None):
        """Return one (or ``size``) multiplicative power gain realisations."""

    def sample_gain_db(self, *, size: int | tuple | None = None,
                       random_state: RandomState = None):
        """Return fading gain realisations in dB."""
        gain = self.sample_power_gain(size=size, random_state=random_state)
        return 10.0 * np.log10(np.maximum(gain, 1e-12))


@dataclass(frozen=True)
class NoFading(FadingModel):
    """Deterministic channel: the power gain is always one."""

    def sample_power_gain(self, *, size: int | tuple | None = None,
                          random_state: RandomState = None):
        if size is None:
            return 1.0
        return np.ones(size)


@dataclass(frozen=True)
class RayleighFading(FadingModel):
    """Rayleigh fading (no dominant path); power gain is unit-mean exponential."""

    def sample_power_gain(self, *, size: int | tuple | None = None,
                          random_state: RandomState = None):
        rng = as_rng(random_state)
        gain = rng.exponential(1.0, size=size)
        return float(gain) if size is None else gain


@dataclass(frozen=True)
class RicianFading(FadingModel):
    """Rician fading with K-factor ``k_factor_db`` (direct-to-scattered power ratio).

    Larger K approaches a deterministic channel; ``K -> -inf dB`` approaches
    Rayleigh.  The returned power gain has unit mean.
    """

    k_factor_db: float = 6.0

    def __post_init__(self) -> None:
        ensure_non_negative(self.k_factor_db + 40.0, "k_factor_db (must be > -40 dB)")

    def sample_power_gain(self, *, size: int | tuple | None = None,
                          random_state: RandomState = None):
        rng = as_rng(random_state)
        k = 10.0 ** (self.k_factor_db / 10.0)
        n = 1 if size is None else int(np.prod(size))
        # Direct path amplitude and scattered (complex Gaussian) component,
        # normalised so E[|h|^2] = 1.  The two normals of realisation i are
        # drawn as row i of an (n, 2) block so that a batch of n draws
        # consumes the generator exactly like n sequential draws.
        direct = np.sqrt(k / (k + 1.0))
        sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        components = rng.standard_normal((n, 2))
        scattered = sigma * (components[:, 0] + 1j * components[:, 1])
        h = direct + scattered
        gain = np.abs(h) ** 2
        return float(gain[0]) if size is None else gain.reshape(size)
