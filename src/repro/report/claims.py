"""Paper vs. reproduction: the claims behind ``EXPERIMENTS.md``.

Each :class:`Claim` pairs a quantity the paper publishes with a formatter
that reads the reproduced value out of a stored figure/table payload.
:mod:`repro.report.render` turns the list into the claims tables of
``report.md``/``report.html`` and of ``EXPERIMENTS.md``, whose prose also
lives here so ``repro report`` reproduces the committed file byte for byte.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

#: Text of the "Reproduction" cell when a claim's artefact is not stored.
MISSING = "missing"


class Claim(NamedTuple):
    """One table row.  ``fmt`` takes the :class:`SweepResult` of each of
    :attr:`artefacts` and returns the reproduced value as text; ``paper``
    is ``None`` on waveform rows, which check a mechanism, not a number."""

    label: str
    quantity: str
    paper: str | None
    artefact: str | tuple[str, ...]
    fmt: Callable[..., str]

    @property
    def artefacts(self) -> tuple[str, ...]:
        return (self.artefact,) if isinstance(self.artefact, str) else self.artefact

    def measured(self, results: dict) -> str:
        """Reproduced value from ``results`` (artefact -> SweepResult)."""
        if any(name not in results for name in self.artefacts):
            return MISSING
        return self.fmt(*(results[name] for name in self.artefacts))


def _fig6_peaks(fig6) -> str:
    fractions = [fig6.scalars[f"peak_fraction_{format(s, '02b')}"] for s in range(4)]
    return " / ".join(f"{f:.2f}" for f in fractions)


def _clean_from(series) -> str:
    """Lowest SNR from which a SER series stays zero, as display text.

    Uses the all-zero suffix (not the first lucky zero cell), so a
    non-monotone Monte-Carlo curve cannot produce a false claim.
    """
    ys = list(series.y)
    for i, x in enumerate(series.x):
        if all(y == 0.0 for y in ys[i:]):
            return f"{x:+.0f} dB"
    return "never (within the sweep)"


def _waveform_modes(vanilla, super_) -> str:
    return (f"vanilla error-free from "
            f"{_clean_from(vanilla.get_series('saiyan-vanilla_ser'))}, "
            f"super from {_clean_from(super_.get_series('saiyan-super_ser'))}")


def _waveform_sampling(sampling) -> str:
    top_snr = max(sampling.get_series("vanilla-3.2x_ser").x)
    sub = sampling.scalars["sub_nyquist_ser_at_top_snr"]
    rule = sampling.scalars["rule_ser_at_top_snr"]
    return (f"SER at {top_snr:.0f} dB: {sub * 100:.0f} % sub-Nyquist (1.2x) vs "
            f"{rule * 100:.0f} % at the 3.2x rule")


def _waveform_baselines(baselines) -> str:
    lora_ser = baselines.get_series("standard_lora_ser")
    saiyan_ser = baselines.get_series("saiyan-super_ser")
    detect = {name: baselines.scalars[f"{name}_detection_max"]
              for name in ("plora", "aloba", "envelope")}
    return (f"peak detection rates {detect['plora']:.0%}/{detect['aloba']:.0%}/"
            f"{detect['envelope']:.0%} (PLoRa/Aloba/envelope); standard LoRa "
            f"error-free from {_clean_from(lora_ser)} vs Saiyan "
            f"{_clean_from(saiyan_ser)}")


#: The paper's published values, in the order of the paper's evaluation.
PAPER_CLAIMS: tuple[Claim, ...] = (
    Claim("Fig. 2", "baseline uplink BER at 20 m tag-to-Tx", "> 50 %", "fig2",
          lambda r: f"{r.scalars['plora_ber_at_20m'] * 100:.0f} % (PLoRa), "
                    f"{r.scalars['aloba_ber_at_20m'] * 100:.0f} % (Aloba)"),
    Claim("Fig. 5", "SAW gain span over last 500/250/125 kHz",
          "25 / 9.5 / 7.2 dB", "fig5",
          lambda r: f"{r.scalars['span_500khz_db']:.1f} / "
                    f"{r.scalars['span_250khz_db']:.1f} / "
                    f"{r.scalars['span_125khz_db']:.1f} dB"),
    Claim("Fig. 5", "SAW insertion loss", "10 dB", "fig5",
          lambda r: f"{r.scalars['insertion_loss_db']:.1f} dB"),
    Claim("Fig. 6", "symbol peak positions (fraction of symbol)",
          "distinct, ~0.25 apart", "fig6", _fig6_peaks),
    Claim("Fig. 7", "high pulses (UH-only / UL-only / double)",
          "chatter / chatter-or-miss / 1", "fig7",
          lambda r: f"{r.scalars['high_only_pulses']:.0f} / "
                    f"{r.scalars['low_only_pulses']:.0f} / "
                    f"{r.scalars['double_pulses']:.0f}"),
    Claim("Tab. 1", "required sampling rate, SF7/K=1 (theory/practice)",
          "15.6 / 20 kHz", "tab1",
          lambda r: f"{r.get_series('theory_k1').y_at(7):.1f} / "
                    f"{r.get_series('practice_k1').y_at(7):.1f} kHz"),
    Claim("Tab. 1", "required sampling rate, SF7/K=5 (theory/practice)",
          "250 / 400 kHz", "tab1",
          lambda r: f"{r.get_series('theory_k5').y_at(7):.0f} / "
                    f"{r.get_series('practice_k5').y_at(7):.0f} kHz"),
    Claim("Fig. 10", "cyclic-frequency-shifting SNR gain", "~11 dB", "fig10",
          lambda r: f"{r.scalars['snr_gain_db']:.1f} dB"),
    Claim("Fig. 16", "BER growth CR=1 → CR=5 (100 m)", "2.4–5.2×", "fig16",
          lambda r: f"{r.scalars['ber_ratio_cr5_over_cr1_at_100m']:.2f}×"),
    Claim("Fig. 16", "BER at 100 m, CR=5", "1.85e-3", "fig16",
          lambda r: f"{r.scalars['ber_cr5_at_100m']:.2e}"),
    Claim("Fig. 16", "throughput growth CR=1 → CR=5", "~5.1×", "fig16",
          lambda r: f"{r.scalars['throughput_ratio_cr5_over_cr1_at_100m']:.2f}×"),
    Claim("Fig. 17", "range growth SF7 → SF12", "1.1–1.3×", "fig17",
          lambda r: f"{r.scalars['range_ratio_sf12_over_sf7']:.2f}×"),
    Claim("Fig. 17", "throughput drop SF12 → SF7", "30.3–35.1×", "fig17",
          lambda r: f"{r.scalars['throughput_ratio_sf7_over_sf12']:.1f}×"),
    Claim("Fig. 18", "range at 500 kHz / 125 kHz (CR=2)", "138.6 m / 72.2 m",
          "fig18",
          lambda r: f"{r.scalars['range_500_k2_m']:.1f} m / "
                    f"{r.scalars['range_125_k2_m']:.1f} m"),
    Claim("Fig. 18", "throughput ratio 500 kHz / 125 kHz", "~4×", "fig18",
          lambda r: f"{r.scalars['throughput_ratio_500_over_125_k2']:.2f}×"),
    Claim("Fig. 19", "one-wall range, CR=1 / CR=5", "48.8 m / 26.2 m", "fig19",
          lambda r: f"{r.scalars['range_k1_m']:.1f} m / "
                    f"{r.scalars['range_k5_m']:.1f} m"),
    Claim("Fig. 19", "one-wall throughput at CR=5", "18.7 kbps", "fig19",
          lambda r: f"{r.scalars['throughput_k5_kbps']:.1f} kbps"),
    Claim("Fig. 20", "range reduction, one wall → two walls", "2.09–2.21×",
          "fig20",
          lambda r: f"{r.scalars['range_ratio_one_over_two_walls_min']:.2f}–"
                    f"{r.scalars['range_ratio_one_over_two_walls_max']:.2f}×"),
    Claim("Fig. 21", "outdoor range: Saiyan / PLoRa / Aloba",
          "148.6 / 42.4 / 30.6 m", "fig21",
          lambda r: f"{r.scalars['saiyan_outdoor_m']:.1f} / "
                    f"{r.scalars['plora_outdoor_m']:.1f} / "
                    f"{r.scalars['aloba_outdoor_m']:.1f} m"),
    Claim("Fig. 21", "indoor range: Saiyan / PLoRa / Aloba",
          "44.2 / 16.8 / 12.4 m", "fig21",
          lambda r: f"{r.scalars['saiyan_indoor_m']:.1f} / "
                    f"{r.scalars['plora_indoor_m']:.1f} / "
                    f"{r.scalars['aloba_indoor_m']:.1f} m"),
    Claim("Fig. 21", "gain over PLoRa / Aloba (outdoor)", "3.26× / 4.52×",
          "fig21",
          lambda r: f"{r.scalars['gain_over_plora_outdoor']:.2f}× / "
                    f"{r.scalars['gain_over_aloba_outdoor']:.2f}×"),
    Claim("Fig. 22 / §5.2.1", "receiver sensitivity", "-85.8 dBm", "fig22",
          lambda r: f"{r.scalars['sensitivity_dbm']:.1f} dBm"),
    Claim("Fig. 22 / §5.2.1", "advantage over plain envelope detector",
          "30 dB", "fig22",
          lambda r: f"{r.scalars['sensitivity_gain_over_envelope_db']:.1f} dB"),
    Claim("Fig. 22", "maximum detection distance", "~180 m", "fig22",
          lambda r: f"{r.scalars['detection_range_m']:.0f} m"),
    Claim("Fig. 23", "amplitude gap at 10 m (500/125 kHz)", "24.7 / 7.1 dB",
          "fig23",
          lambda r: f"{r.scalars['gap_500khz_at_10m']:.1f} / "
                    f"{r.scalars['gap_125khz_at_10m']:.1f} dB"),
    Claim("Fig. 23", "amplitude gap at 100 m (500 kHz)", "20.2 dB", "fig23",
          lambda r: f"{r.scalars['gap_500khz_at_100m']:.1f} dB"),
    Claim("Fig. 24", "range extremes over the day", "126.4 m / 118.6 m",
          "fig24",
          lambda r: f"{r.scalars['range_max_m']:.1f} m / "
                    f"{r.scalars['range_min_m']:.1f} m"),
    Claim("Fig. 24", "relative range variation", "~6 %", "fig24",
          lambda r: f"{r.scalars['relative_drop'] * 100:.1f} %"),
    Claim("Fig. 25", "vanilla Saiyan range (CR=1..5)", "38.4–72.6 m", "fig25",
          lambda r: f"{r.scalars['vanilla_range_min_m']:.1f}–"
                    f"{r.scalars['vanilla_range_max_m']:.1f} m"),
    Claim("Fig. 25", "gain from cyclic frequency shifting", "1.56–1.73×",
          "fig25",
          lambda r: f"{r.scalars['shift_gain_min']:.2f}–"
                    f"{r.scalars['shift_gain_max']:.2f}×"),
    Claim("Fig. 25", "further gain from correlation", "1.94–2.25×", "fig25",
          lambda r: f"{r.scalars['correlation_gain_min']:.2f}–"
                    f"{r.scalars['correlation_gain_max']:.2f}×"),
    Claim("Tab. 2", "PCB total power (1 % duty cycle)", "369.4 µW", "tab2",
          lambda r: f"{r.scalars['pcb_total_power_uw']:.1f} µW"),
    Claim("Tab. 2", "PCB total cost", "$27.2", "tab2",
          lambda r: f"${r.scalars['pcb_total_cost_usd']:.2f}"),
    Claim("Tab. 2", "LNA / oscillator share of power", "67.3 % / 23.5 %",
          "tab2",
          lambda r: f"{r.scalars['lna_share'] * 100:.1f} % / "
                    f"{r.scalars['oscillator_share'] * 100:.1f} %"),
    Claim("§4.3", "ASIC total power", "93.2 µW", "tab2",
          lambda r: f"{r.scalars['asic_total_power_uw']:.1f} µW"),
    Claim("§4.3", "power reduction vs PCB", "74.8 %", "tab2",
          lambda r: f"{r.scalars['asic_saving_vs_pcb'] * 100:.1f} %"),
    Claim("Fig. 26", "Aloba PRR with 0/1/2/3 retransmissions",
          "45.6 / 70.1 / 83.3 / 95.5 %", "fig26",
          lambda r: " / ".join(f"{r.get_series('aloba').y_at(i):.1f}"
                               for i in range(4)) + " %"),
    Claim("Fig. 26", "PLoRa PRR with 0/3 retransmissions", "81.8 / ~100 %",
          "fig26",
          lambda r: f"{r.get_series('plora').y_at(0):.1f} / "
                    f"{r.get_series('plora').y_at(3):.1f} %"),
    Claim("Fig. 27", "median PRR jammed → after hop", "47 % → 92 %", "fig27",
          lambda r: f"{r.scalars['median_prr_jammed']:.0f} % → "
                    f"{r.scalars['median_prr_clean']:.0f} %"),
)

#: Mechanism-level checks on the golden-pinned waveform ablation artefacts.
WAVEFORM_CLAIMS: tuple[Claim, ...] = (
    Claim("`modes`", "the full pipeline decodes far below the vanilla "
          "comparator pipeline", None, ("waveform_vanilla", "waveform_super"),
          _waveform_modes),
    Claim("`sampling-rate`", "Table 1's 3.2 x BW / 2^(SF-K) rule", None,
          "waveform_sampling", _waveform_sampling),
    Claim("`baselines`", "detectors sense packets but demodulate nothing; "
          "the commodity FFT receiver keeps its processing gain", None,
          "waveform_baselines", _waveform_baselines),
)

#: Every claim, in ``EXPERIMENTS.md`` order.
CLAIMS: tuple[Claim, ...] = PAPER_CLAIMS + WAVEFORM_CLAIMS


def claim_rows(claims, results: dict) -> list[list[str]]:
    """Table rows of ``claims``; the paper column only where one exists."""
    return [[claim.label, claim.quantity]
            + ([claim.paper] if claim.paper is not None else [])
            + [claim.measured(results)] for claim in claims]


PAPER_HEADERS = ["Artefact", "Quantity", "Paper", "Reproduction"]
WAVEFORM_HEADERS = ["Sweep", "Claim checked", "Measured"]
SCENARIO_HEADERS = ["Scenario", "Tags", "Controllers", "PRR", "Collisions",
                    "Hops", "Rate changes"]


#: ``EXPERIMENTS.md`` as render blocks; the strings name the table slots
#: ("paper", "scenarios", "waveform") the renderer fills in.
EXPERIMENTS_OUTLINE: tuple = (
    ("h", 1, "EXPERIMENTS — paper vs. reproduction"),
    ("p", """Every table and figure of the paper's evaluation (§5) is regenerated by a
driver in `repro.sim.experiments` and checked by one benchmark in
`benchmarks/`.  This file records, for each artefact, the paper's published
value next to the value this reproduction measures.  Absolute numbers are
calibrated (the propagation model and the receiver sensitivities anchor on
the paper's headline figures); the graded claims — who wins, by what factor,
which way the trends point — are asserted by the benchmarks."""),
    ("p", """This file is generated, never hand-edited: `python -m repro reproduce
--store-dir DIR` fills a result store (pure cache hits when it is warm) and
checks every figure against its golden fixture, then `python -m repro
report --store-dir DIR --output-dir OUT` writes `OUT/EXPERIMENTS.md` next
to `report.md` and `report.html`, which carry the same tables with
per-artefact provenance.  The rows come from `repro.report.claims`, and CI
byte-diffs a fresh copy against this one.  The raw series are printed by
`pytest benchmarks/ --benchmark-only`."""),
    "paper",
    ("h", 2, "Network scenarios (beyond the paper's figures)"),
    ("p", """Registered multi-tag deployments runnable via
`python -m repro network --scenario <name> [--seed N] [--engine batch|event]`
(see `repro.sim.scenario.SCENARIOS`; the batch and event-driven engines are
bit-identical under a fixed seed).  Values below are from the batch engine
at each scenario's default seed."""),
    "scenarios",
    ("h", 2, "Waveform-level ablation sweeps"),
    ("p", """Mechanism-level receiver ablations on the sharded waveform engine,
runnable via
`python -m repro waveform --sweep <name> [--seed N] [--shards K]`
(see `repro.sim.waveform_engine.WAVEFORM_SWEEPS`; any shard count and the
serial reference loop are bit-identical under a fixed seed).  Four
artefacts (`waveform_vanilla`, `waveform_super`, `waveform_sampling`,
`waveform_baselines`) are golden-pinned like the paper figures; values
below come from those drivers.  The `coding-rate` and `oversampling`
registry sweeps are runnable but not golden-pinned."""),
    "waveform",
    ("h", 2, "Notes on fidelity"),
    ("p", """* **Propagation calibration.** The outdoor (exponent 3.85) and indoor
  (exponent 4.3, 15 dB per concrete wall) log-distance models are calibrated
  so that the published sensitivity (-85.8 dBm ≈ 180 m outdoors) and ranges
  (≈148.6 m outdoors, ≈44 m behind one wall) are reproduced; all other
  distances follow from the same two models.
* **Link abstraction.** Waveform-level simulation (the `repro.core`
  pipeline) is used for the micro-benchmarks and the unit/integration tests;
  the field-study figures use the calibrated RSS→BER/detection model in
  `repro.sim.link_sim`, whose constants are documented in that module.
* **Figure 24 (temperature).** The magnitude of the range variation (~6 %
  over the -8.6 °C…1.6 °C day) is reproduced via the SAW temperature drift;
  the sign of the trend (whether the coldest or the warmest hour has the
  shorter range) depends on the drift direction of the specific SAW
  substrate and is not asserted.
* **Figures 26/27 (case studies).** The first-attempt uplink delivery
  probabilities are calibrated to the paper's no-retransmission PRR values
  (81.8 % PLoRa, 45.6 % Aloba at 100 m); the ARQ lift and the channel-hopping
  recovery then emerge from the feedback-loop simulation."""),
)


__all__ = ["CLAIMS", "Claim", "EXPERIMENTS_OUTLINE", "MISSING", "PAPER_CLAIMS",
           "PAPER_HEADERS", "SCENARIO_HEADERS", "WAVEFORM_CLAIMS",
           "WAVEFORM_HEADERS", "claim_rows"]
