"""Report layer: run registry, one-command reproduce, generated report.

Everything in this package is *presentation over the store*: it reads (and
indexes) entries the engines computed, but can never change a computed
bit.  That is why ``report/`` sits in the store's fingerprint exclusions —
editing this package must not retire cached results.

* :mod:`repro.report.registry` — the machine-readable run registry, a
  JSONL index over the store (digest → kind/name/seed/fingerprints/env),
  maintained incrementally on every ``put`` and rebuildable by scan.
* :mod:`repro.report.reproduce` — ``repro reproduce``: resolve every
  registered artefact against the store, compute only the missing cells,
  assert tolerance against the golden fixtures.
* :mod:`repro.report.render` — ``repro report``: render figures, tables,
  benchmark gates and serve/chaos stats into one self-contained
  markdown + HTML report, every number carrying store provenance, and the
  paper claims of :mod:`repro.report.claims` into ``EXPERIMENTS.md``.
"""

from repro.report.registry import REGISTRY_FILENAME, REGISTRY_SCHEMA, RunRegistry

__all__ = ["REGISTRY_FILENAME", "REGISTRY_SCHEMA", "RunRegistry"]
