#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the percentile helper, failure accounting, self time, metric names,
and the agreement between ``BENCHMARK.json`` and ``layers.json``.  Needs
no ``repro`` import and starts no daemon.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from perfstats import LatencyLog, bad_metric_names, percentile
from perlayer import per_layer_metrics
from tracing import chrome_trace, layer_table, self_times
from workloads import Client, parse_reply

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))


def _span(span_id, parent, start, end, name="a.b", pid=1):
    return {"name": name, "start": start, "end": end, "id": span_id, "parent": parent,
            "rid": None, "tid": 1, "pid": pid, "attrs": {}}


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(percentile(range(19), 0.50))
        self.assertEqual(percentile(range(1, 21), 0.50), 10)
        self.assertIsNone(percentile(range(99), 0.90))
        self.assertEqual(percentile(range(1, 101), 0.90), 90)
        self.assertIsNone(percentile(range(999), 0.99))
        self.assertEqual(percentile(range(1, 1001), 0.99), 990)

    def test_unsorted_input(self):
        values = list(range(1, 101))[::-1]
        self.assertEqual(percentile(values, 0.50), 50)


class _FailingHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 - stdlib handler name
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        body = b'{"error": "injected"}'
        self.send_response(500)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class FailureAccountingTest(unittest.TestCase):
    def test_injected_500_counts_failed_at_the_timeout(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            reply = Client(host, port, timeout_s=5.0).submit(
                {"kind": "figure", "name": "fig2"}, "test-1")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        self.assertFalse(thread.is_alive())
        self.assertFalse(reply.ok)
        self.assertEqual(reply.status, 500)
        log = LatencyLog(timeout_s=30.0)
        for _ in range(25):
            log.record(0.001, True)
        log.record(reply.latency_s, reply.ok)
        self.assertEqual((log.attempted, log.failed), (26, 1))
        self.assertEqual(max(log.latencies_s), 30.0)
        self.assertAlmostEqual(log.error_rate, 1 / 26)

    def test_unreachable_daemon_fails(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _FailingHandler)
        host, port = server.server_address[:2]
        server.server_close()
        reply = Client(host, port, timeout_s=2.0).submit({"kind": "figure"}, "test-2")
        self.assertFalse(reply.ok)
        self.assertEqual(reply.status, 0)

    def test_reply_payload_is_split_out(self):
        payload = {"title": "x", "notes": 'says "result": here', "series": [1.5, 2]}
        view = {"digest": "d", "job": {}, "status": "done", "provenance": "store",
                "error": None, "submitted_at": 1.0, "finished_at": 2.0,
                "result": payload}
        reply = parse_reply(200, json.dumps(view).encode(), 0.01)
        self.assertTrue(reply.ok)
        self.assertEqual(reply.provenance, "store")
        self.assertEqual(reply.payload_sha,
                         hashlib.sha1(json.dumps(payload).encode()).hexdigest())


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [_span(1, 0, 0, 100, "serve.submit"),
                 _span(2, 1, 10, 30, "key.build"),
                 _span(3, 1, 20, 50, "store.get"),    # overlaps span 2
                 _span(4, 2, 12, 18, "key.digest"),
                 _span(5, 0, 200, 260, "serve.submit"),
                 _span(6, 5, 250, 300, "queue.enqueue")]  # runs past its parent
        selfs = self_times(spans)
        self.assertEqual(selfs[(1, 1)], 100 - 40)
        self.assertEqual(selfs[(1, 2)], 20 - 6)
        self.assertEqual(selfs[(1, 3)], 30)
        self.assertEqual(selfs[(1, 4)], 6)
        self.assertEqual(selfs[(1, 5)], 60 - 10)
        table = {row["layer"]: row for row in layer_table(spans)}
        self.assertEqual(table["serve"]["calls"], 2)
        self.assertAlmostEqual(table["serve"]["busy_ms"], 160 / 1e6)
        self.assertEqual(table["key"]["calls"], 1)  # key.digest nests in key.build

    def test_chrome_trace_is_trace_event_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = chrome_trace([_span(1, 0, 1000, 5000)], Path(tmp) / "t.json")
            events = json.loads(path.read_text())["traceEvents"]
        self.assertEqual(events[0]["ph"], "X")
        self.assertEqual((events[0]["ts"], events[0]["dur"]), (0.0, 4.0))


class MetricNameTest(unittest.TestCase):
    def test_names_use_the_allowed_characters(self):
        declared = [metric["name"] for group in ("end_to_end", "per_layer")
                    for metric in BENCHMARK[group]]
        self.assertEqual(len(set(declared)), len(declared))
        names = list(declared)
        for details in LAYERS["detail_metrics"].values():
            names.extend(details)
        names.extend(per_layer_metrics([], {}, {}, []))
        self.assertEqual(bad_metric_names(names), [])

    def test_rejects_bad_names(self):
        self.assertEqual(bad_metric_names(["ok.name-1_x", "bad name", "_lead", "a/b"]),
                         ["bad name", "_lead", "a/b"])


class BenchmarkFileTest(unittest.TestCase):
    def test_every_metric_has_unit_and_direction(self):
        for group in ("end_to_end", "per_layer"):
            for metric in BENCHMARK[group]:
                self.assertTrue(metric["unit"], metric)
                self.assertIn(metric["better"], ("higher", "lower"), metric)
        for metric in BENCHMARK["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in BENCHMARK["end_to_end"]])

    def test_computed_per_layer_metrics_are_declared(self):
        declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
        computed = set(per_layer_metrics([], {}, {}, []))
        self.assertEqual(computed - declared, set())

    def test_every_layer_maps_to_a_metric_and_workload(self):
        workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
        gated = {metric["name"] for metric in BENCHMARK["end_to_end"]}
        claimed: dict[str, str] = {}
        for layer in LAYERS["layers"]:
            self.assertTrue(layer["moves"], layer["layer"])
            for move in layer["moves"]:
                self.assertIn(move["workload"], workloads)
                self.assertIn(move["gated"], gated)
            for metric in layer["metrics"]:
                self.assertNotIn(metric, claimed)
                claimed[metric] = layer["layer"]
        for metric in BENCHMARK["per_layer"]:
            owners = [name for name in claimed
                      if name == metric["name"]
                      or (name.endswith(".*") and metric["name"].startswith(name[:-1]))]
            self.assertEqual(len(owners), 1, metric["name"])
        self.assertEqual(set(LAYERS["detail_metrics"]), workloads)


if __name__ == "__main__":
    unittest.main()
