"""Seeded, deterministic fault injection for the execution/store/serve stack.

The robustness contract for this repo is only as good as the faults we can
reproduce.  This module provides a tiny injection layer that the fabric
(`sim/execution.py`), result store (`sim/store.py`), persistent queue
(`serve/queue.py`), and HTTP server (`serve/server.py`) call at a handful of
named *sites*.  When no plan is installed every call is a single global read
and an early return — a no-op cheap enough to leave in production paths.

Design rules:

- **Deterministic by construction.**  A ``FaultSpec`` targets a site either by
  explicit call indices (``at=(0, 3)`` fires on the 1st and 4th call to that
  site) or by a seeded Bernoulli draw derived from
  ``sha256(seed, site, call_index)`` — never from wall-clock time or a shared
  mutable RNG.  Two runs with the same plan and the same per-site call
  sequence observe the same faults.
- **Bounded.**  ``max_fires`` caps how often a spec fires, so a retried
  operation eventually succeeds.  This is what makes "inject a crash, assert
  the job still completes" testable.
- **Observable.**  ``FaultPlan.stats()`` reports per-``site:kind`` fire
  counts; the chaos harness compares them across seeded reruns.

Injection sites (context keys are advisory, used by ``FaultSpec.match``):

====================  =========================================================
``fabric.job``        once per shard submission; ``worker_crash`` /
                      ``slow_shard``
``store.write``       before a result entry is written; ``store_write_error``
``store.corrupt``     after an entry lands on disk; ``store_corrupt_entry``
``queue.op``          inside each SQLite transaction; ``queue_locked``
``http.reply``        before an HTTP response body is sent; ``http_disconnect``
====================  =========================================================

This module must stay dependency-free and importable from worker processes;
it is excluded from the store's library fingerprint (fault plans never change
simulation results, only how we get them).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "FAULT_KINDS",
    "FaultError",
    "FaultSpec",
    "FaultPlan",
    "install",
    "clear",
    "active",
    "inject",
    "fire",
]

FAULT_KINDS = (
    "worker_crash",
    "slow_shard",
    "store_write_error",
    "store_corrupt_entry",
    "queue_locked",
    "http_disconnect",
)

INJECTION_SITES = (
    "fabric.job",
    "store.write",
    "store.corrupt",
    "queue.op",
    "http.reply",
)

#: Environment variable holding a JSON-serialised plan; when set, the plan is
#: installed at import time so spawned daemons inherit it without code changes.
PLAN_ENV_VAR = "REPRO_FAULT_PLAN"


class FaultError(RuntimeError):
    """Raised for malformed fault specs/plans (never by injection itself)."""


@dataclass(frozen=True)
class FaultSpec:
    """One scoped fault: *kind* at *site*, fired deterministically.

    ``at`` lists zero-based call indices of the site at which to fire; when
    empty, ``probability`` drives a seeded per-call Bernoulli draw instead.
    ``max_fires`` bounds total fires (``None`` = unbounded).  ``delay_s`` is
    how long a ``slow_shard`` worker sleeps before running its job: a
    straggler that delays the batch and never changes its result.  ``match``
    optionally restricts the spec to calls whose context contains every
    listed key/value pair.
    """

    kind: str
    site: str
    at: tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: int | None = None
    delay_s: float = 0.25
    match: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.site not in INJECTION_SITES:
            raise FaultError(
                f"unknown injection site {self.site!r}; expected one of {INJECTION_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.delay_s < 0:
            raise FaultError(f"delay_s must be >= 0, got {self.delay_s}")
        if not self.at and self.probability <= 0.0:
            raise FaultError(
                "a FaultSpec needs a schedule: give explicit call indices "
                "(at=...) or a positive probability")
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        object.__setattr__(
            self, "match", tuple((str(k), str(v)) for k, v in self.match)
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "at": list(self.at),
            "probability": self.probability,
            "max_fires": self.max_fires,
            "delay_s": self.delay_s,
            "match": [list(pair) for pair in self.match],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(
            kind=payload["kind"],
            site=payload["site"],
            at=tuple(payload.get("at", ())),
            probability=payload.get("probability", 0.0),
            max_fires=payload.get("max_fires"),
            delay_s=payload.get("delay_s", 0.25),
            match=tuple(tuple(pair) for pair in payload.get("match", ())),
        )


def _bernoulli(seed: int, site: str, index: int, probability: float) -> bool:
    """Seeded coin flip, stable across processes and Python versions."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{site}:{index}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < probability


@dataclass
class FaultPlan:
    """An ordered collection of fault specs with per-site call counters."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _calls: dict = field(default_factory=dict, repr=False, compare=False)
    _fires: dict = field(default_factory=dict, repr=False, compare=False)
    _remaining: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in self.specs
        )
        self._remaining = {
            i: spec.max_fires for i, spec in enumerate(self.specs)
        }

    # -- injection ---------------------------------------------------------

    def fire(self, site: str, **context: str) -> FaultSpec | None:
        """Advance *site*'s call counter; return the spec to apply, if any.

        The call counter advances exactly once per call regardless of how
        many specs target the site, so schedules stay stable as specs are
        added.  The first matching spec wins.
        """
        with self._lock:
            index = self._calls.get(site, 0)
            self._calls[site] = index + 1
            for spec_index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                remaining = self._remaining[spec_index]
                if remaining is not None and remaining <= 0:
                    continue
                if spec.match and any(
                    context.get(key) != value for key, value in spec.match
                ):
                    continue
                if spec.at:
                    hit = index in spec.at
                else:
                    hit = _bernoulli(self.seed, site, index, spec.probability)
                if not hit:
                    continue
                if remaining is not None:
                    self._remaining[spec_index] = remaining - 1
                key = f"{site}:{spec.kind}"
                self._fires[key] = self._fires.get(key, 0) + 1
                return spec
        return None

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": len(self.specs),
                "calls": dict(sorted(self._calls.items())),
                "fired": dict(sorted(self._fires.items())),
                "total_fired": sum(self._fires.values()),
            }

    def fault_kinds_fired(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted({key.split(":", 1)[1] for key in self._fires}))

    def reset(self) -> None:
        """Clear counters so the same plan object can replay its schedule."""
        with self._lock:
            self._calls.clear()
            self._fires.clear()
            self._remaining = {
                i: spec.max_fires for i, spec in enumerate(self.specs)
            }

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in payload.get("specs", ())),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


# -- module-level activation ------------------------------------------------

_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install *plan* as the process-wide active plan and return it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (the default state)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultPlan | None:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


def fire(site: str, **context: str) -> FaultSpec | None:
    """Hot-path hook: no-op (one global read) unless a plan is installed."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, **context)


@contextmanager
def inject(plan: FaultPlan):
    """Context manager installing *plan* for the duration of a block."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        if previous is None:
            clear()
        else:
            install(previous)


def _install_from_env() -> None:
    text = os.environ.get(PLAN_ENV_VAR)
    if not text:
        return
    try:
        install(FaultPlan.from_json(text))
    except (ValueError, KeyError, FaultError) as exc:  # pragma: no cover - defensive
        raise FaultError(f"invalid {PLAN_ENV_VAR}: {exc}") from exc


_install_from_env()
