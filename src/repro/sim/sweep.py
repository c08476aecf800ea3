"""Generic parameter-sweep helpers.

Small conveniences used by the experiment drivers and available to library
users who want to run their own sweeps: evaluate a function over a 1-D or
2-D grid of parameters and collect the results as arrays.

Both helpers accept either a scalar evaluator (called once per grid point,
the historical behaviour) or — with ``vectorized=True`` — an array-in /
array-out evaluator that receives the whole grid at once and returns the
matching array of results.  The vectorized model methods in
:mod:`repro.sim.link_sim` satisfy that contract directly, so whole figure
sweeps collapse into a single NumPy expression.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError


def _check_shape(results: np.ndarray, expected: tuple[int, ...]) -> np.ndarray:
    if results.shape != expected:
        raise ConfigurationError(
            f"vectorized evaluator returned shape {results.shape}, "
            f"expected {expected}")
    return results


def _stored_sweep(kind: str, store, store_key, grids: dict):
    """Result-store plumbing shared by both sweep shapes.

    Returns ``(cached_array_or_None, persist_callable_or_None)``.  The key
    digests the caller-supplied evaluator identity (``store_key`` — pass
    the evaluator function itself to fingerprint its source), the swept
    grids and the ``vectorized`` flag: the scalar and vectorized call
    styles agree only to ~1e-12 (different NumPy kernels for 0-d vs n-d
    inputs), so they must never share an entry.
    """
    if store is None or store_key is None:
        return None, None
    from repro.sim.store import UncacheableError, sweep_key

    try:
        key = sweep_key(kind, store_key, grids)
    except UncacheableError:
        return None, None
    digest = store.digest(key)
    payload = store.get(key, digest=digest)
    if payload is not None:
        try:
            return np.asarray(payload["results"], dtype=float), None
        except (KeyError, TypeError, ValueError):
            pass  # payload shape drifted: recompute
    return None, lambda results: store.put(
        key, {"results": results.tolist()}, digest=digest)


def sweep_1d(values: Iterable, evaluate: Callable[[object], float], *,
             vectorized: bool = False, store=None,
             store_key=None) -> tuple[list, np.ndarray]:
    """Evaluate ``evaluate`` at every entry of ``values``.

    With ``vectorized=False`` (default) the evaluator is called once per
    value; with ``vectorized=True`` it is called exactly once with the whole
    value array and must return an array of the same length.

    With a ``store`` (a :class:`~repro.sim.store.ResultStore`) *and* a
    ``store_key`` capturing the evaluator's identity — pass the evaluator
    function itself, or any canonical spec — the whole result array is
    served from / persisted to the store by content digest.

    Returns ``(values_list, results_array)``.
    """
    values_list = list(values)
    if not values_list:
        raise ConfigurationError("sweep_1d requires at least one value")
    if not callable(evaluate):
        raise ConfigurationError("evaluate must be callable")
    cached, persist = _stored_sweep(
        "sweep-1d", store, store_key,
        {"values": values_list, "vectorized": vectorized})
    if cached is not None:
        return values_list, _check_shape(cached, (len(values_list),))
    if vectorized:
        results = np.asarray(evaluate(np.asarray(values_list)), dtype=float)
        results = _check_shape(results, (len(values_list),))
    else:
        results = np.array([float(evaluate(value)) for value in values_list])
    if persist is not None:
        persist(results)
    return values_list, results


def sweep_2d(rows: Sequence, columns: Sequence,
             evaluate: Callable[[object, object], float], *,
             vectorized: bool = False, store=None,
             store_key=None) -> np.ndarray:
    """Evaluate ``evaluate`` over the cartesian product ``rows x columns``.

    With ``vectorized=False`` (default) the evaluator is called once per
    grid point; with ``vectorized=True`` it is called exactly once with two
    broadcastable ``(len(rows), len(columns))`` grids and must return an
    array of that shape.

    ``store``/``store_key`` behave as in :func:`sweep_1d`: with both set,
    the whole result grid is content-addressed in the result store.

    Returns a ``(len(rows), len(columns))`` array with
    ``result[i, j] = evaluate(rows[i], columns[j])``.
    """
    rows = list(rows)
    columns = list(columns)
    if not rows or not columns:
        raise ConfigurationError("sweep_2d requires non-empty rows and columns")
    if not callable(evaluate):
        raise ConfigurationError("evaluate must be callable")
    cached, persist = _stored_sweep(
        "sweep-2d", store, store_key,
        {"rows": rows, "columns": columns, "vectorized": vectorized})
    if cached is not None:
        return _check_shape(cached, (len(rows), len(columns)))
    if vectorized:
        row_grid, column_grid = np.meshgrid(np.asarray(rows), np.asarray(columns),
                                            indexing="ij")
        result = _check_shape(
            np.asarray(evaluate(row_grid, column_grid), dtype=float),
            (len(rows), len(columns)))
    else:
        result = np.empty((len(rows), len(columns)), dtype=float)
        for i, row in enumerate(rows):
            for j, column in enumerate(columns):
                result[i, j] = float(evaluate(row, column))
    if persist is not None:
        persist(result)
    return result
