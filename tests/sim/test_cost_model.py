"""Unit battery for the execution fabric's cost ledger and schedule rule."""

import pytest

from repro.sim import execution
from repro.sim.execution import (COST_EWMA_ALPHA, MAX_AUTO_SHARDS, CostModel,
                                 get_cost_model, parallel_width,
                                 reset_cost_model)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_constructor_validates_alpha():
    """The EWMA weight is a module constant in (0, 1] that no caller
    can override."""
    assert 0.0 < COST_EWMA_ALPHA <= 1.0
    for alpha in (0.0, -0.1, 1.5, 1.0):
        with pytest.raises(TypeError):
            CostModel(alpha=alpha)
    assert CostModel().stats()["alpha"] == COST_EWMA_ALPHA


def test_constructor_validates_dispatch_and_threshold():
    """The dispatch prior is a positive module constant; the threshold
    and core-count knobs are gone from the constructor."""
    assert execution.DISPATCH_OVERHEAD_PRIOR_S > 0.0
    for knob, value in (("dispatch_overhead_s", 0.0),
                        ("parallel_threshold", -1.0),
                        ("cpu_count", 0)):
        with pytest.raises(TypeError):
            CostModel(**{knob: value})
    assert CostModel().dispatch_overhead_s == pytest.approx(
        execution.DISPATCH_OVERHEAD_PRIOR_S)


# ---------------------------------------------------------------------------
# EWMA arithmetic
# ---------------------------------------------------------------------------

def test_observe_first_sample_sets_per_unit_exactly():
    model = CostModel()
    model.observe("waveform:batch:reference", units=100.0, seconds=2.0)
    assert model.predict_seconds("waveform:batch:reference", 100.0) == pytest.approx(2.0)
    assert model.predict_seconds("waveform:batch:reference", 50.0) == pytest.approx(1.0)


def test_observe_ewma_update_matches_the_formula():
    alpha = COST_EWMA_ALPHA
    model = CostModel()
    model.observe("k", units=1.0, seconds=1.0)     # per-unit = 1.0
    model.observe("k", units=1.0, seconds=2.0)     # alpha*2 + (1-alpha)*1
    first = alpha * 2.0 + (1 - alpha) * 1.0
    assert model.predict_seconds("k", 1.0) == pytest.approx(first)
    model.observe("k", units=2.0, seconds=1.0)     # per-unit = 0.5
    assert model.predict_seconds("k", 1.0) == pytest.approx(
        alpha * 0.5 + (1 - alpha) * first)


def test_observe_ignores_degenerate_samples():
    model = CostModel()
    model.observe("k", units=0.0, seconds=1.0)
    model.observe("k", units=-5.0, seconds=1.0)
    model.observe("k", units=1.0, seconds=-1.0)
    assert model.predict_seconds("k", 1.0) is None


def test_observe_dispatch_first_sample_replaces_the_prior():
    model = CostModel()
    assert model.dispatch_overhead_s == pytest.approx(
        execution.DISPATCH_OVERHEAD_PRIOR_S)
    model.observe_dispatch(0.1)                     # replaces the prior
    assert model.dispatch_overhead_s == pytest.approx(0.1)
    model.observe_dispatch(0.3)
    expected = COST_EWMA_ALPHA * 0.3 + (1 - COST_EWMA_ALPHA) * 0.1
    assert model.dispatch_overhead_s == pytest.approx(expected)
    model.observe_dispatch(-1.0)                    # ignored
    assert model.dispatch_overhead_s == pytest.approx(expected)


def test_predict_seconds_cold_kind_is_none():
    model = CostModel()
    assert model.predict_seconds("never-seen", 10.0) is None
    model.observe("seen", 1.0, 1.0)
    assert model.predict_seconds("seen", 0.0) is None


# ---------------------------------------------------------------------------
# Stats / singleton
# ---------------------------------------------------------------------------

def test_stats_shape_and_content(monkeypatch):
    monkeypatch.setattr(execution, "usable_cores", lambda: 4)
    model = CostModel()
    model.observe("k", 2.0, 1.0)
    stats = model.stats()
    assert stats["alpha"] == COST_EWMA_ALPHA
    assert stats["cpu_count"] == 4
    assert stats["kinds"]["k"]["per_unit_s"] == pytest.approx(0.5)
    assert stats["kinds"]["k"]["samples"] == 1


def test_get_cost_model_is_a_resettable_singleton():
    reset_cost_model()
    try:
        first = get_cost_model()
        assert get_cost_model() is first
        reset_cost_model()
        assert get_cost_model() is not first
    finally:
        reset_cost_model()


# ---------------------------------------------------------------------------
# Thread safety (the serve layer shares one model across worker threads)
# ---------------------------------------------------------------------------

def test_threaded_observe_hammer_keeps_estimates_finite_and_bounded():
    """Concurrent observe/predict/stats from many threads must never
    corrupt the EWMA state: every estimate stays inside the convex hull
    of the observed values (any serial interleaving keeps it there), and
    no sample is lost or double-counted."""
    import math
    import threading

    model = CostModel()
    kinds = [f"kind:{index}" for index in range(4)]
    threads_n, per_thread = 8, 200

    failures = []

    def hammer(base):
        try:
            for i in range(per_thread):
                kind = kinds[(base + i) % len(kinds)]
                # per-unit values alternate between 0.5 and 1.0 exactly
                model.observe(kind, units=1.0,
                              seconds=0.5 + 0.5 * ((base + i) % 2))
                model.observe_dispatch(0.01 + 0.001 * (i % 3))
                predicted = model.predict_seconds(kind, 2.0)
                assert predicted is None or (math.isfinite(predicted)
                                             and 1.0 <= predicted <= 2.0)
                assert all(math.isfinite(entry["per_unit_s"])
                           for entry in model.stats()["kinds"].values())
        except Exception as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    threads = [threading.Thread(target=hammer, args=(base,))
               for base in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    stats = model.stats()
    expected_samples = threads_n * per_thread // len(kinds)
    for kind in kinds:
        entry = stats["kinds"][kind]
        assert entry["samples"] == expected_samples       # none lost
        assert 0.5 <= entry["per_unit_s"] <= 1.0          # serial bounds
    assert stats["dispatch_samples"] == threads_n * per_thread
    assert 0.01 <= stats["dispatch_overhead_s"] <= 0.012



# ---------------------------------------------------------------------------
# The schedule rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cores,pending,shards,fans_out", [
    (1, 12, 1, False),
    (8, 3, 3, True),
    (8, 12, 4, True),
    (8, 1, 1, False),
], ids=["1-core", "8-cores-3-pending", "8-cores-12-pending", "1-pending"])
def test_schedule_rule(monkeypatch, cores, pending, shards, fans_out):
    """``shards="auto"`` resolves to min(cores, pending, 4); a parallel
    request fans out only when min(cores, pending) > 1."""
    monkeypatch.setattr(execution, "usable_cores", lambda: cores)
    assert min(parallel_width(pending), MAX_AUTO_SHARDS) == shards
    assert (parallel_width(pending) > 1) is fans_out


def test_usable_cores_follows_the_affinity_mask(monkeypatch):
    if hasattr(execution.os, "sched_getaffinity"):
        monkeypatch.setattr(execution.os, "sched_getaffinity", lambda pid: {0})
        assert execution.usable_cores() == 1
    monkeypatch.delattr(execution.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(execution.os, "cpu_count", lambda: None)
    assert execution.usable_cores() == 1
