"""Per-layer metrics of one traced run, computed from its spans.

Conventions: a ``*.calls``, ``*.bytes``, ``cells`` or ``packets`` metric is a
total over the run; a time is a mean per call of the layer's outermost span
(``key.fingerprint_ms`` and ``startup.*`` are means per launched process).
A layer the workload never enters reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import self_times


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _dur(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e3  # microseconds


def per_layer_metrics(spans: list[dict], counters: dict[int, dict],
                      serve_delta: dict, client_requests: list[tuple]) -> dict[str, float]:
    index = {(span["pid"], span["id"]): span for span in spans}
    selfs = self_times(spans)
    children = _children(spans)
    named: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def parent_name(span: dict) -> str | None:
        parent = index.get((span["pid"], span["parent"]))
        return parent["name"] if parent is not None else None

    def outer(name: str) -> list[dict]:
        return [span for span in named[name] if parent_name(span) != name]

    def mean_us(name: str) -> float:
        return _mean(_dur(span) for span in outer(name))

    def per_process_ms(name: str) -> float:
        totals: dict[int, float] = defaultdict(float)
        for span in outer(name):
            totals[span["pid"]] += _dur(span) / 1e3
        return _mean(totals.values())

    def counter_sum(group: str, field: str) -> float:
        return float(sum(c.get(group, {}).get(field, 0) for c in counters.values()))

    metrics: dict[str, float] = {}
    launched = {span["pid"] for span in named["startup.import"]}
    scipy = defaultdict(float)
    for span in outer("startup.scipy_import"):
        scipy[span["pid"]] += _dur(span) / 1e3
    metrics["startup.import_ms"] = mean_us("startup.import") / 1e3
    metrics["startup.scipy_import_ms"] = _mean(scipy.get(pid, 0.0) for pid in launched)

    metrics["key.build_us"] = mean_us("key.build")
    metrics["key.digest_us"] = mean_us("key.digest")
    metrics["key.fingerprint_ms"] = per_process_ms("key.fingerprint")

    gets, puts = named["store.get"], named["store.put"]
    hits = [span for span in gets if span["attrs"].get("hit")]
    metrics["store.get.calls"] = float(len(gets))
    metrics["store.get.busy_us"] = mean_us("store.get")
    metrics["store.get.bytes"] = float(sum(s["attrs"].get("bytes", 0) for s in hits))
    metrics["store.hit_ratio"] = len(hits) / len(gets) if gets else 0.0
    metrics["store.put.calls"] = float(len(puts))
    metrics["store.put.busy_us"] = mean_us("store.put")
    metrics["store.put.bytes"] = float(sum(s["attrs"].get("bytes", 0) for s in puts))
    metrics["store.evictions"] = counter_sum("store", "evictions")
    metrics["store.corrupt"] = counter_sum("store", "corrupt")

    submits = outer("serve.submit")
    metrics["serve.submit.busy_us"] = _mean(_dur(span) for span in submits)
    metrics["serve.submit.self_us"] = _mean(selfs[(s["pid"], s["id"])] / 1e3
                                            for s in submits)
    metrics["serve.hit_or_coalesced_ratio"] = float(
        serve_delta.get("hit_or_coalesced_ratio", 0.0))
    metrics["serve.rejected"] = float(serve_delta.get("rejected", 0))

    metrics["queue.wait_ms"] = _mean(queue_waits_ms(spans))
    metrics["queue.enqueue.busy_us"] = mean_us("queue.enqueue")
    metrics["queue.claim.busy_us"] = _mean(
        _dur(span) for span in named["queue.claim"] if not span["attrs"].get("empty"))
    metrics["queue.finish.busy_us"] = mean_us("queue.finish")
    metrics["queue.lock_retries"] = float(
        serve_delta.get("lock_retries", counter_sum("queue", "lock_retries")))

    for kind in ("figure", "scenario", "waveform"):
        metrics[f"jobs.execute_ms.{kind}"] = _mean(
            _dur(span) / 1e3 for span in named["jobs.execute"]
            if span["attrs"].get("kind") == kind)

    metrics["http.overhead_us"] = _mean(http_overheads_us(spans, client_requests))
    metrics["http.response_bytes"] = _mean(row[3] for row in client_requests)

    metrics["fabric.map_jobs.calls"] = float(len(outer("fabric.map_jobs")))
    metrics["fabric.map_jobs.busy_ms"] = mean_us("fabric.map_jobs") / 1e3
    metrics["fabric.shards_chosen"] = _mean(
        span["attrs"].get("shards", 0) for span in outer("waveform.run_sweep"))
    metrics["fabric.dispatch_overhead_ms"] = _mean(
        span["attrs"].get("seconds", 0.0) * 1e3 for span in named["fabric.observe_dispatch"])
    metrics["fabric.pool_rebuilds"] = counter_sum("fabric", "pool_rebuilds")
    metrics["fabric.serial_fallbacks"] = counter_sum("fabric", "serial_fallbacks")

    measures = named["kernel.measure_cells"]
    draw = frontend = 0.0
    for measure in measures:
        for child in children[(measure["pid"], measure["id"])]:
            if child["name"] == "kernel.draw":
                draw += _dur(child)
            elif child["name"] == "kernel.frontend":
                frontend += _dur(child)
    count = max(len(measures), 1)
    metrics["waveform.cells"] = float(sum(s["attrs"].get("cells", 0)
                                          for s in outer("waveform.evaluate_cells")))
    metrics["waveform.run_sweep.busy_ms"] = mean_us("waveform.run_sweep") / 1e3
    metrics["kernel.measure_cells.busy_ms"] = mean_us("kernel.measure_cells") / 1e3
    metrics["kernel.draw_ms"] = draw / count / 1e3
    metrics["kernel.frontend_ms"] = frontend / count / 1e3
    metrics["kernel.decide_ms"] = _mean(selfs[(s["pid"], s["id"])] / 1e6 for s in measures)
    metrics["kernel.bytes_computed"] = float(sum(
        span["attrs"].get("bytes", 0)
        for name in ("kernel.draw", "kernel.frontend") for span in named[name]))

    metrics["network.run_scenario.busy_ms"] = mean_us("network.run_scenario") / 1e3
    metrics["network.packets"] = float(sum(span["attrs"].get("packets", 0)
                                           for span in outer("network.run_scenario")))

    per_artefact: dict[str, list[float]] = defaultdict(list)
    for span in outer("batch.driver"):
        per_artefact[span["attrs"].get("artefact", "?")].append(_dur(span) / 1e3)
    for artefact, values in per_artefact.items():
        metrics[f"batch.driver_ms.{artefact}"] = _mean(values)

    metrics["report.render_ms"] = mean_us("report.render") / 1e3
    metrics["report.plan_ms"] = mean_us("report.plan") / 1e3
    metrics["registry.append_us"] = mean_us("registry.append")
    return metrics


def _children(spans: list[dict]) -> dict[tuple[int, int], list[dict]]:
    children: dict[tuple[int, int], list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append(span)
    return children


def queue_waits_ms(spans: list[dict]) -> list[float]:
    """From the return of the ``submit`` that queued a digest to the entry of
    the ``execute_job`` that ran it."""
    children = _children(spans)
    queued_at: dict[str, list[int]] = defaultdict(list)
    for span in spans:
        if span["name"] == "serve.submit" and any(
                child["name"] == "queue.enqueue"
                for child in children[(span["pid"], span["id"])]):
            queued_at[span["attrs"].get("digest")].append(span["end"])
    waits = []
    for span in spans:
        if span["name"] != "jobs.execute":
            continue
        earlier = [end for end in queued_at.get(span["rid"], ()) if end <= span["start"]]
        if earlier:
            waits.append((span["start"] - max(earlier)) / 1e6)
    return waits


def http_overheads_us(spans: list[dict], client_requests) -> list[float]:
    """Client latency minus the server's submit and wait time, per request."""
    children = _children(spans)
    server_us: dict[str, float] = {}
    for span in spans:
        if span["name"] != "http.handle" or span["rid"] is None:
            continue
        inner = sum(_dur(child) for child in children[(span["pid"], span["id"])]
                    if child["name"] in ("serve.submit", "serve.wait"))
        server_us[span["rid"]] = inner
    return [(end - start) / 1e3 - server_us[rid]
            for rid, start, end, _ in client_requests if rid in server_us]
