"""Run one ``repro`` command with spans recorded at its layer boundaries.

    python3 perfbench/launch.py TRACE_DIR [repro arguments ...]

The launcher imports the unmodified package (``src/`` on ``PYTHONPATH``),
wraps the public functions of each layer named in ``layers.json`` with
span recorders, then hands control to ``repro.cli.main`` — so it works for
every CLI command and for the ``serve run`` daemon alike.  Spans stay in
memory and are written to ``TRACE_DIR/spans-<pid>.jsonl`` when the command
returns; forked pool workers write their own file when they exit.
Nothing is printed, so the command's stdout is unchanged.
"""

from __future__ import annotations

import functools
import importlib.abc
import inspect
import multiprocessing.util
import os
import sys
import weakref

from tracing import Tracer

#: Modules whose execution is timed as ``startup.scipy_import``.
SCIPY_MODULES = ("scipy", "scipy.signal")


class _ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of the SciPy modules wherever they get imported."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name not in SCIPY_MODULES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = getattr(loader, "exec_module", None)
        if exec_module is None:
            return spec
        tracer = self.tracer

        def timed_exec(module):
            with tracer.span("startup.scipy_import", module=name):
                exec_module(module)

        loader.exec_module = timed_exec
        return spec


def _wrap(tracer: Tracer, fn, name: str, attrs=None):
    """``fn`` recording a span ``name``; ``attrs(result, args, kwargs)``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin()
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            tracer.end(token, name, {"error": type(error).__name__})
            raise
        extra = None
        if attrs is not None:
            try:
                extra = attrs(result, args, kwargs)
            except Exception as error:  # noqa: BLE001 - attributes are advisory
                extra = {"attr_error": repr(error)}
        tracer.end(token, name, extra)
        return result

    return traced


def _replace_function(tracer: Tracer, module, attr: str, name: str, attrs=None) -> None:
    """Wrap ``module.attr`` and every ``repro`` module global bound to it."""
    original = getattr(module, attr)
    wrapped = _wrap(tracer, original, name, attrs)
    for module_name, loaded in list(sys.modules.items()):
        if not module_name.startswith("repro") or loaded is None:
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def _replace_method(tracer: Tracer, cls, attr: str, name: str, attrs=None) -> None:
    static = isinstance(inspect.getattr_static(cls, attr), staticmethod)
    wrapped = _wrap(tracer, getattr(cls, attr), name, attrs)
    setattr(cls, attr, staticmethod(wrapped) if static else wrapped)


def _nbytes(*arrays) -> int:
    return int(sum(getattr(array, "nbytes", 0) for array in arrays))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported package."""
    import repro.report.registry as registry
    import repro.report.render as render
    import repro.report.reproduce as reproduce
    import repro.serve.jobs as jobs
    import repro.serve.queue as queue
    import repro.serve.server as server
    import repro.sim.batch as batch
    import repro.sim.execution as execution
    import repro.sim.network_engine as network
    import repro.sim.store as store
    import repro.sim.waveform_engine as waveform

    original_digest = store.ResultStore.digest

    def get_attrs(result, args, kwargs):
        if result is None:
            return {"hit": False}
        digest = kwargs.get("digest") or original_digest(args[1])
        try:
            size = args[0].path_for(digest).stat().st_size
        except OSError:
            size = 0
        return {"hit": True, "bytes": size}

    def put_attrs(result, args, kwargs):
        try:
            return {"bytes": result.stat().st_size if result is not None else 0}
        except OSError:
            return {"bytes": 0}

    stores: weakref.WeakSet = weakref.WeakSet()
    store_init = store.ResultStore.__init__

    def init_store(self, *args, **kwargs):
        store_init(self, *args, **kwargs)
        stores.add(self)

    store.ResultStore.__init__ = init_store
    queues: weakref.WeakSet = weakref.WeakSet()
    queue_init = queue.PersistentJobQueue.__init__

    def init_queue(self, *args, **kwargs):
        queue_init(self, *args, **kwargs)
        queues.add(self)

    queue.PersistentJobQueue.__init__ = init_queue

    # key building
    _replace_function(tracer, jobs, "job_store_key", "key.build")
    for key_fn in ("figure_driver_key", "scenario_key", "waveform_cell_key",
                   "waveform_sweep_key"):
        _replace_function(tracer, store, key_fn, "key.build")
    _replace_function(tracer, store, "library_fingerprint", "key.fingerprint")
    _replace_method(tracer, store.ResultStore, "digest", "key.digest")
    # store
    _replace_method(tracer, store.ResultStore, "get", "store.get", get_attrs)
    _replace_method(tracer, store.ResultStore, "put", "store.put", put_attrs)
    # server
    _replace_method(tracer, server.JobServer, "submit", "serve.submit",
                    lambda job, args, kwargs: {"digest": job.digest, "status": job.status})
    _replace_method(tracer, server.JobServer, "wait", "serve.wait")
    # queue
    _replace_method(tracer, queue.PersistentJobQueue, "enqueue", "queue.enqueue",
                    lambda result, args, kwargs: {"digest": args[1]})

    def claim_attrs(result, args, kwargs):
        if result is None:
            return {"empty": True}
        tracer.rid = result[0]  # the worker's next spans belong to this job
        return {"digest": result[0]}

    _replace_method(tracer, queue.PersistentJobQueue, "claim", "queue.claim", claim_attrs)
    _replace_method(tracer, queue.PersistentJobQueue, "finish", "queue.finish")
    # jobs
    _replace_function(tracer, jobs, "execute_job", "jobs.execute",
                      lambda result, args, kwargs: {"kind": args[0].kind,
                                                    "name": args[0].name,
                                                    "provenance": result[1]})
    # HTTP (server side); the benchmark's client sends X-Request-Id
    for method in ("do_GET", "do_POST"):
        handler = getattr(server._ServeHandler, method)

        def handle(self, _handler=handler):
            tracer.rid = self.headers.get("X-Request-Id")
            with tracer.span("http.handle", path=self.path):
                return _handler(self)

        setattr(server._ServeHandler, method, functools.wraps(handler)(handle))
    # fabric
    _replace_method(tracer, execution.ExecutionFabric, "map_jobs", "fabric.map_jobs",
                    lambda result, args, kwargs: {"jobs": len(args[2])})
    _replace_method(tracer, execution.CostModel, "observe_dispatch",
                    "fabric.observe_dispatch",
                    lambda result, args, kwargs: {"seconds": float(args[1])})
    # waveform engine and kernel
    _replace_function(tracer, waveform, "run_sweep", "waveform.run_sweep",
                      lambda result, args, kwargs: {"shards": result.shards,
                                                    "cells": len(result.cells)})
    _replace_function(tracer, waveform, "_evaluate_cells", "waveform.evaluate_cells",
                      lambda result, args, kwargs: {"cells": len(args[2])})
    _replace_method(tracer, waveform.SaiyanBurstKernel, "measure_cells",
                    "kernel.measure_cells",
                    lambda result, args, kwargs: {"cells": len(args[1])})
    _replace_function(tracer, waveform, "awgn_sample_pairs", "kernel.draw",
                      lambda result, args, kwargs: {"bytes": _nbytes(*result)})
    for stack_call in ("apply_fir_stack", "apply_fir_stack_fast",
                       "apply_fir_stack_gapped", "apply_frequency_gain_stack"):
        _replace_function(tracer, waveform, stack_call, "kernel.frontend",
                          lambda result, args, kwargs: {
                              "bytes": _nbytes(result, args[0])})
    # network engine, figure artefacts, report
    _replace_function(tracer, network, "run_scenario", "network.run_scenario",
                      lambda result, args, kwargs: {"packets": result.packets})
    _replace_function(tracer, batch, "_evaluate_driver", "batch.driver",
                      lambda result, args, kwargs: {"artefact": args[0]})
    _replace_function(tracer, render, "render_report", "report.render")
    _replace_function(tracer, reproduce, "build_plan", "report.plan")
    _replace_method(tracer, registry.RunRegistry, "record", "registry.append")

    def store_counters():
        totals = {"stores": len(stores)}
        for instance in list(stores):
            for field in ("hits", "misses", "evictions", "corrupt", "puts"):
                totals[field] = totals.get(field, 0) + getattr(instance, field, 0)
        return totals

    def fabric_counters():
        pool = execution.fabric_stats()["pool"]
        return {field: pool.get(field, 0) for field in
                ("pool_rebuilds", "serial_fallbacks", "jobs_dispatched",
                 "pools_created")}

    tracer.counter_sources.update({
        "store": store_counters,
        "fabric": fabric_counters,
        "queue": lambda: {"lock_retries": sum(q.lock_retries for q in list(queues))},
    })


def _arm_child_flush(tracer: Tracer) -> None:
    """In a multiprocessing child: write the spans when the child exits."""
    multiprocessing.util.Finalize(None, tracer.flush, exitpriority=100)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    os.register_at_fork(after_in_child=tracer.reset_after_fork)
    multiprocessing.util.register_after_fork(tracer, _arm_child_flush)
    sys.meta_path.insert(0, _ImportTimer(tracer))
    with tracer.span("startup.import"):
        import repro.cli
    instrument(tracer)
    tracer.rid = "cli"
    try:
        with tracer.span("cli.main", command=" ".join(argv[1:3])):
            code = repro.cli.main(argv[1:])
    finally:
        tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
