"""Content-addressed result store with LRU-bounded on-disk entries.

Every engine in this repository is deterministic under a fixed seed (the
PR 1–4 bit-parity contracts), which makes results *content-addressable*:
the bits of an artefact, a waveform grid cell or a scenario run are a pure
function of (spec, seed, engine selection, code).  The
:class:`ResultStore` exploits that — repeated ``repro experiments`` /
figure runs and CI pushes look every unit of work up by its digest before
computing, and persist it after, so identical requests become cache hits
and partial changes become incremental work.

Layout and policy:

* Entries live under ``root/<digest[:2]>/<digest>.json`` (sharded by
  digest prefix so no directory grows unbounded).  Each file carries the
  full key next to the payload; a hit additionally verifies the stored key
  matches the request, so even a digest collision or a hash-scheme change
  degrades to a miss, never a wrong result.
* Writes are atomic (temp file + ``os.replace``); a truncated or corrupt
  entry — a killed process, a full disk — is treated as a **miss** and
  deleted, never an error.
* The store is bounded: beyond ``max_entries`` the least-recently-*used*
  entries are evicted (a hit refreshes the file's mtime; ties — common on
  filesystems with 1 s mtime granularity — break on the digest so the
  eviction order is total and deterministic).  Hit/miss/eviction counters
  mirror :class:`repro.utils.plans.PlanCache`.
* The store is safe to share: one instance may be used from many threads
  (an internal lock covers the counters and the eviction scan), and many
  processes may point at one root.  Cross-process races are benign by
  construction — writes are atomic, a concurrent eviction of an entry
  another process just wrote merely turns that entry's first ``get`` into
  a miss (recompute), and evicting a file a peer already deleted is a
  no-op, never an error.
* Invalidation is by key, not by clock: keys embed the driver's own
  source fingerprint plus a whole-library fingerprint and the
  numpy/python versions, so editing one driver re-computes only that
  driver's entries while any library or environment change re-computes
  everything it could have produced.

Key builders for the three cacheable unit shapes live here too, so every
engine agrees on one key schema (bumping :data:`STORE_SCHEMA` retires all
old entries at once).
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib
import inspect
import json
import os
import platform
import tempfile
import threading
from pathlib import Path
from typing import Mapping

import numpy as np

from repro import faults
from repro.exceptions import ConfigurationError
from repro.utils.hashing import (
    UncacheableError,
    canonical_json,
    canonicalize,
    digest_of,
    source_fingerprint,
)
from repro.utils.validation import ensure_integer

#: Bump to retire every existing entry (key-schema change).
STORE_SCHEMA: int = 1

#: Environment variable overriding the default store location.
STORE_DIR_ENV: str = "REPRO_STORE_DIR"

#: Default on-disk location (repository-local, like ``.pytest_cache``).
DEFAULT_STORE_DIRNAME: str = ".repro-store"

#: Default entry bound; ~25 artefacts plus a few thousand sweep cells fit
#: with room to spare, while a runaway loop cannot fill the disk.
DEFAULT_MAX_ENTRIES: int = 4096

#: Consecutive failed writes before :attr:`ResultStore.read_only` reports
#: the store as impaired.  One failure can be a transient race (root being
#: recreated, tmpfile collision); a run of them means the disk is full or
#: the mount is gone.
READ_ONLY_THRESHOLD: int = 3

#: Library files whose edits must NOT mass-invalidate the store, relative
#: to the ``repro`` package root: the experiment drivers (invalidation is
#: per-driver via each driver function's own source fingerprint), the
#: presentation layer, and the store machinery itself (key-schema changes
#: go through :data:`STORE_SCHEMA`).
_FINGERPRINT_EXCLUDES: frozenset[str] = frozenset({
    "sim/experiments.py",
    "cli.py",
    "__main__.py",
    "sim/store.py",
    "utils/hashing.py",
    # Fault injection changes how we *get* to a result (crashes, retries,
    # timeouts), never the result itself; its edits must not retire the
    # store.
    "faults.py",
})

#: Package subtrees excluded wholesale.  The serve layer only arranges
#: *where and when* results are computed (queueing, coalescing, transport)
#: and the report layer only *renders* what the store already holds;
#: neither can change a computed bit, so their edits must not retire the
#: whole store the way an engine edit does.
_FINGERPRINT_EXCLUDE_PREFIXES: tuple[str, ...] = ("serve/", "report/")


@functools.lru_cache(maxsize=1)
def library_fingerprint() -> str:
    """Digest of every library module that can influence a computed result.

    Hashes the source of the whole ``repro`` package (minus
    :data:`_FINGERPRINT_EXCLUDES`), so *any* edit to an engine, a channel
    model, a baseline receiver or a DSP helper retires every cached
    result it could have produced — a stale hit is never served.  Driver
    functions in ``sim/experiments.py`` are deliberately excluded: their
    source is fingerprinted per-function by :func:`figure_driver_key`,
    which is what keeps invalidation per-driver.  Computed once per
    process (~100 small files) and cached.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if (relative in _FINGERPRINT_EXCLUDES
                or relative.startswith(_FINGERPRINT_EXCLUDE_PREFIXES)):
            continue
        digest.update(relative.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def default_store_root() -> Path:
    """The store location: ``$REPRO_STORE_DIR`` or ``./.repro-store``."""
    env = os.environ.get(STORE_DIR_ENV)
    return Path(env) if env else Path.cwd() / DEFAULT_STORE_DIRNAME


def environment_fingerprint() -> dict:
    """The toolchain facts a bit-identical replay depends on."""
    major, minor = platform.python_version_tuple()[:2]
    return {"numpy": np.__version__, "python": f"{major}.{minor}"}


# ---------------------------------------------------------------------------
# Key builders (one schema for every engine)
# ---------------------------------------------------------------------------

def _base_key(kind: str) -> dict:
    return {"schema": STORE_SCHEMA, "kind": kind,
            "env": environment_fingerprint()}


@functools.lru_cache(maxsize=32)
def _scaffold_fingerprint(module_name: str,
                          excluded_functions: tuple[str, ...]) -> str:
    """Digest of a module's source with the named top-level functions blanked.

    This is how shared driver-module code (helpers, constants) gets
    fingerprinted without coupling the drivers to each other: blanking
    every *registered driver* function leaves exactly the scaffolding they
    all share, so a helper edit changes this digest (invalidating every
    driver in the module) while a driver-body edit does not (each driver's
    own source is keyed separately).
    """
    source = inspect.getsource(importlib.import_module(module_name))
    lines = source.splitlines(keepends=True)
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in excluded_functions):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list]) - 1
            for index in range(start, node.end_lineno):
                lines[index] = ""
            lines[start] = f"<blanked {node.name}>\n"
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def _driver_scaffold_fingerprint(driver) -> str:
    """Fingerprint of the shared (non-driver) code in ``driver``'s module."""
    target = driver
    while isinstance(target, functools.partial):
        target = target.func
    target = inspect.unwrap(target)
    module = inspect.getmodule(target)
    if module is None:
        raise UncacheableError(f"no defining module for driver {driver!r}")
    from repro.sim.experiments import FIGURE_DRIVERS

    registered = tuple(sorted({
        fn.__name__ for fn in FIGURE_DRIVERS.values()
        if getattr(fn, "__module__", None) == module.__name__}))
    try:
        return _scaffold_fingerprint(module.__name__, registered)
    except (OSError, TypeError, SyntaxError) as error:
        raise UncacheableError(
            f"no retrievable source for module {module.__name__!r}: "
            f"{error}") from error


def figure_driver_key(artefact: str, driver, config: Mapping,
                      seed) -> dict:
    """Key of one whole figure/table artefact produced by ``driver``.

    Three code fingerprints cover three invalidation granularities: the
    driver *function's* own source (editing one driver retires only its
    entries), the driver module's *scaffold* — its source with every
    registered driver blanked — (editing a shared helper or constant in
    ``sim/experiments.py`` retires every driver in the module), and the
    whole library (:func:`library_fingerprint`; any engine/model edit
    retires everything).
    """
    key = _base_key("figure-driver")
    key.update({
        "artefact": artefact,
        "config": canonicalize(dict(config)),
        "seed": canonicalize(seed),
        "driver_fingerprint": source_fingerprint(driver),
        "scaffold_fingerprint": _driver_scaffold_fingerprint(driver),
        "fingerprint": library_fingerprint(),
    })
    return key


def waveform_cell_key(receiver, snr_db: float, cell_index: int, seed: int, *,
                      num_symbols: int, symbols_per_burst: int,
                      precision: str) -> dict:
    """Key of one (receiver, SNR) waveform grid cell.

    ``cell_index`` pins the RNG substream: cell *i* always draws from the
    *i*-th spawn of the root seed, independent of the grid size, so the
    substream is a pure function of (seed, index).  The engine (serial
    loop vs burst kernel vs shard count) is deliberately *not* part of the
    key — the engines are bit-identical by contract (pinned by the parity
    battery in ``tests/sim/test_waveform_engine.py``) — while
    ``precision`` is, because the fast path is only tolerance-equal.
    """
    key = _base_key("waveform-cell")
    key.update({
        "receiver": canonicalize(receiver),
        "snr_db": float(snr_db),
        "cell_index": int(cell_index),
        "seed": int(seed),
        "num_symbols": int(num_symbols),
        "symbols_per_burst": int(symbols_per_burst),
        "precision": precision,
        "fingerprint": library_fingerprint(),
    })
    return key


def waveform_sweep_key(spec, seed: int, *, precision: str) -> dict:
    """Key of one whole registered waveform sweep (the serve layer's unit).

    The cell-level entries (:func:`waveform_cell_key`) stay the engine's
    incremental-evaluation currency; this key addresses the *assembled*
    :class:`~repro.sim.metrics.SweepResult` of a whole grid so a repeated
    service request is one ``get`` instead of one per cell.  Like the cell
    key, the engine and shard count are deliberately not part of the key
    (bit-identical by contract) while ``precision`` is.
    """
    key = _base_key("waveform-sweep")
    key.update({
        "spec": canonicalize(spec),
        "seed": int(seed),
        "precision": precision,
        "fingerprint": library_fingerprint(),
    })
    return key


def scenario_key(spec, seed: int, engine: str = "batch") -> dict:
    """Key of one whole scenario run.

    The network engines are bit-identical on every *outcome*, but the
    stored payload also carries engine metadata (``events_processed`` is
    only meaningful on the event engine), so the normalised engine name is
    part of the key and a replay is byte-exact for the engine that ran.
    """
    key = _base_key("scenario")
    key.update({
        "spec": canonicalize(spec),
        "seed": int(seed),
        "engine": "event" if engine == "scalar" else engine,
        "fingerprint": library_fingerprint(),
    })
    return key


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ResultStore:
    """On-disk content-addressed result cache with LRU eviction.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  ``None`` uses
        :func:`default_store_root`.
    max_entries:
        Entry bound; inserting beyond it evicts the least recently used
        entries ((mtime, digest) order — a ``get`` hit refreshes the
        file's mtime, and the digest tie-break keeps the order total on
        filesystems with coarse mtime granularity).

    One instance may be shared by many threads: an internal re-entrant
    lock serialises the counter updates, the incremental entry count and
    the eviction scan.  The on-disk format additionally tolerates many
    *processes* sharing one root — see the module docstring.
    """

    def __init__(self, root: str | Path | None = None, *,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.max_entries = ensure_integer(max_entries, "max_entries", minimum=1)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.puts = 0
        self.uncacheable = 0
        self.write_errors = 0
        # Consecutive failed writes; at READ_ONLY_THRESHOLD the store
        # reports itself read-only (served by /healthz as "degraded").
        # Any successful write resets it — the state is self-healing.
        self._consecutive_write_failures = 0
        # Entry count, maintained incrementally after one lazy scan so a
        # cold run persisting N entries does not pay N directory scans.
        # Concurrent writers can skew it; it only gates *when* the
        # eviction scan runs, so staleness is benign.
        self._entry_count: int | None = None
        # RLock: ``put`` holds it across the eviction check, which may
        # re-enter ``_prune_to``.
        self._lock = threading.RLock()
        # Observers notified after every successful ``put`` (the run
        # registry hangs off this).  Notification happens outside the
        # lock and observer failures are swallowed: an index is
        # advisory, the store of record is the entry files themselves.
        self._put_listeners: list = []

    # ------------------------------------------------------------------
    def subscribe(self, callback) -> None:
        """Register ``callback(digest, key, path)`` for successful puts.

        ``key`` is the canonicalized key exactly as persisted in the entry
        file.  Callbacks run outside the store lock, after the entry is
        durable on disk; exceptions they raise are swallowed (an observer
        must never fail a computation that already succeeded).
        """
        self._put_listeners.append(callback)

    # ------------------------------------------------------------------
    @property
    def read_only(self) -> bool:
        """Whether writes are persistently failing (degradation signal).

        Flips true after :data:`READ_ONLY_THRESHOLD` *consecutive* failed
        writes (disk full, permissions yanked, root on a dead mount) and
        back to false on the first success.  Reads and recomputation keep
        working either way — this only tells health endpoints that caching
        is impaired.
        """
        with self._lock:
            return self._consecutive_write_failures >= READ_ONLY_THRESHOLD

    # ------------------------------------------------------------------
    @staticmethod
    def digest(key: Mapping) -> str:
        """Content address of a key mapping."""
        return digest_of(key)

    def path_for(self, digest: str) -> Path:
        """On-disk path of an entry (sharded by digest prefix)."""
        if len(digest) < 8:
            raise ConfigurationError(f"implausible digest {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    def _entry_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    # ------------------------------------------------------------------
    def get(self, key: Mapping, *, digest: str | None = None):
        """Return the payload stored under ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.  Unreadable, truncated or
        key-mismatched entries count as misses (and are deleted), so a
        damaged store degrades to recomputation, never to an error or a
        wrong result.
        """
        digest = digest if digest is not None else self.digest(key)
        path = self.path_for(digest)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            stored_key = entry["key"]
            payload = entry["payload"]
        except FileNotFoundError:
            # Includes the benign cross-process race where a concurrent
            # eviction removed an entry between our path computation and
            # the read: a miss (recompute), never an error.
            with self._lock:
                self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            # Truncated/corrupt entry: treat as a miss and drop the file.
            with self._lock:
                self.corrupt += 1
                self.misses += 1
                self._drop_entry(path)
            return None
        if canonical_json(stored_key) != canonical_json(key):
            with self._lock:
                self.corrupt += 1
                self.misses += 1
                self._drop_entry(path)
            return None
        with self._lock:
            self.hits += 1
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:  # pragma: no cover - advisory only
            pass
        return payload

    def put(self, key: Mapping, payload, *,
            digest: str | None = None) -> Path | None:
        """Persist ``payload`` under ``key`` and return the entry path.

        The write is atomic; concurrent writers of the same digest race
        benignly (identical content by construction).  Inserting beyond
        ``max_entries`` evicts the least recently used entries.  A payload
        that has no JSON form (NaN/Inf values, non-encodable objects) is
        simply **not cached** — the computation already succeeded, so the
        store must degrade to a no-op (returns ``None``), never to an
        error.
        """
        digest = digest if digest is not None else self.digest(key)
        path = self.path_for(digest)
        entry = {"schema": STORE_SCHEMA, "key": canonicalize(key),
                 "payload": payload}
        try:
            # No sort_keys here: payload dict order is part of the replayed
            # result (e.g. scalar print order); the digest is computed from
            # the canonical key encoding, not from this file.
            blob = json.dumps(entry, allow_nan=False)
        except (TypeError, ValueError):
            with self._lock:
                self.uncacheable += 1
            return None
        with self._lock:
            count_before = self._known_entry_count()
            tmp_name = None
            try:
                fault = faults.fire("store.write")
                if fault is not None and fault.kind == "store_write_error":
                    raise OSError(28, "injected store write fault")
                path.parent.mkdir(parents=True, exist_ok=True)
                existed = path.exists()
                fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except OSError:
                # A read-only or full store must not fail the run: the
                # computation already succeeded, so caching degrades to a
                # no-op.
                if tmp_name is not None:
                    self._unlink(Path(tmp_name))
                self.uncacheable += 1
                self.write_errors += 1
                self._consecutive_write_failures += 1
                return None
            self.puts += 1
            self._consecutive_write_failures = 0
            self._entry_count = count_before + (0 if existed else 1)
            self._evict_over_bound()
            fault = faults.fire("store.corrupt")
            if fault is not None and fault.kind == "store_corrupt_entry":
                # Simulate torn/bit-rotted bytes landing on disk; the next
                # ``get`` must treat them as a miss and drop the file.
                path.write_bytes(b'{"schema": 1, "key": {truncated')
        for listener in list(self._put_listeners):
            try:
                listener(digest, entry["key"], path)
            except Exception:  # noqa: BLE001 - observers are advisory
                pass
        return path

    @staticmethod
    def _unlink(path: Path) -> bool:
        """Best-effort unlink; ``False`` when the file was already gone.

        A missing file is the benign half of the delete-vs-put/-delete
        race (another thread or process got there first); only a real
        removal counts toward eviction statistics.
        """
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _drop_entry(self, path: Path) -> None:
        """Unlink an entry file, keeping the incremental count honest."""
        if self._unlink(path) and self._entry_count is not None:
            self._entry_count -= 1

    def _known_entry_count(self) -> int:
        """Entry count from the incremental counter (one lazy scan)."""
        if self._entry_count is None:
            self._entry_count = sum(1 for _ in self._entry_paths())
        return self._entry_count

    @staticmethod
    def _recency(path: Path) -> tuple[float, str]:
        """LRU sort key: (mtime, digest).

        The digest tie-break matters on filesystems with 1 s mtime
        granularity, where a burst of puts all tie on mtime and a bare
        mtime sort would evict in arbitrary (listing) order.  A vanished
        file (concurrently evicted/replaced) sorts first and its unlink is
        a counted no-op.
        """
        try:
            mtime = path.stat().st_mtime
        except OSError:
            mtime = 0.0
        return (mtime, path.name)

    def _prune_to(self, bound: int) -> int:
        """Drop least-recently-used entries beyond ``bound``; return count removed."""
        with self._lock:
            paths = list(self._entry_paths())
            excess = len(paths) - bound
            removed = 0
            if excess > 0:
                for path in sorted(paths, key=self._recency)[:excess]:
                    # Count only files actually removed *by us*: a peer
                    # may have evicted (or replaced) the entry between the
                    # scan and the unlink, which is benign.
                    removed += self._unlink(path)
            self._entry_count = len(paths) - removed
            self.evictions += removed
            return removed

    def _evict_over_bound(self) -> None:
        # The incremental counter gates the (O(n) scan + sort) prune so a
        # cold run persisting n entries does not pay n directory scans.
        if self._known_entry_count() > self.max_entries:
            self._prune_to(self.max_entries)

    # ------------------------------------------------------------------
    def gc(self, max_entries: int | None = None) -> int:
        """Prune the store down to ``max_entries`` (LRU order); return count removed."""
        bound = self.max_entries if max_entries is None else ensure_integer(
            max_entries, "max_entries", minimum=0)
        return self._prune_to(bound)

    def clear(self) -> int:
        """Remove every entry; return how many were removed."""
        with self._lock:
            removed = 0
            for path in list(self._entry_paths()):
                removed += self._unlink(path)
            self._entry_count = 0
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir() and len(shard.name) == 2:
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
        return removed

    def stats(self) -> dict:
        """Disk occupancy plus this instance's hit/miss/eviction counters."""
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        with self._lock:
            return {
                "root": str(self.root),
                "entries": entries,
                "bytes": total_bytes,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "corrupt": self.corrupt,
                "puts": self.puts,
                "uncacheable": self.uncacheable,
                "write_errors": self.write_errors,
                "read_only": (self._consecutive_write_failures
                              >= READ_ONLY_THRESHOLD),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultStore({str(self.root)!r}, hits={self.hits}, "
                f"misses={self.misses}, puts={self.puts})")


def open_store(root: str | Path | None = None, *,
               max_entries: int = DEFAULT_MAX_ENTRIES,
               registry: bool = True) -> ResultStore:
    """Construct a :class:`ResultStore` used by the CLI/serve/benchmarks.

    With ``registry=True`` (the default) a :class:`repro.report.registry.
    RunRegistry` is attached so every ``put`` is indexed incrementally;
    the registry instance is exposed as ``store.registry``.  Pass
    ``registry=False`` (or construct :class:`ResultStore` directly) for a
    bare store.
    """
    store = ResultStore(root, max_entries=max_entries)
    if registry:
        # Lazy import: the report package imports key builders from here.
        from repro.report.registry import RunRegistry

        store.registry = RunRegistry(store)  # subscribes itself
    return store


__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "READ_ONLY_THRESHOLD",
    "ResultStore",
    "STORE_DIR_ENV",
    "STORE_SCHEMA",
    "UncacheableError",
    "default_store_root",
    "environment_fingerprint",
    "figure_driver_key",
    "library_fingerprint",
    "open_store",
    "scenario_key",
    "waveform_cell_key",
    "waveform_sweep_key",
]
