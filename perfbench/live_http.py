"""``live_http``: open-loop POSTs against a spawned ``repro serve --live``.

The server runs ``scenarios/bench_steady_live.json``, a copy of the
builtin ``steady_hydra_m`` whose batch limit is 2 requests and whose
batch window is 20 ms.  (The builtin's 2 s window held a 2-connection
client to about 0.67 req/s, so the limit measured the client, not the
server.)  It is started with ``--warm --port 0 --time-scale 0.01`` and
without ``$REPRO_CACHE_DIR``, so it plans cold.

The client is one process with at most two connections.  Requests are
due every ``1 / RATE_RPS`` seconds from a phase drawn from the workload
seed, and each request is timed from when it was due, so a stall also
delays the requests queued behind it.  The spacing is fixed rather than
Poisson: at this light rate a 20 s run holds about 16 requests, and a
Poisson schedule's bursts moved the median from 0.47 s to 1.38 s
between seeds, which measured the seed instead of the server.  This is the only workload that covers
``repro.serve.live``: the HTTP parser, the asyncio driver and the CKKS
worker pool.

Correctness: every response must be 200 and ``admitted``, and its
``outputs`` must match the benchmark's own plaintext evaluation of the
served model within the bound in ``references.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ckks_ops import LIVE_SLOTS, live_reference, random_vector

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIO = os.path.join(HERE, "scenarios", "bench_steady_live.json")
TENANT = "cnn-interactive"
RATE_RPS = 0.8
CONNECTIONS = 2
SPAWNS = 3
SPAWN_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0

LAYERS = (
    ("live.server_share_pct", "%"),
    ("live.http_overhead_pct", "%"),
    ("live.conn_wait_pct", "%"),
    ("live.gen_late_max_pct", "%"),
    ("live.batch_size_mean", "req"),
    ("live.sent", "count"),
    ("live.ok", "count"),
    ("live.failed", "count"),
    ("live.serve_batches", "count"),
    ("live.serve_rejected", "count"),
    ("live.overloaded", "count"),
    ("live.max_error", "abs"),
)

_LISTENING = re.compile(r"live serving on http://([^:\s]+):(\d+)")


def layer_catalogue():
    return list(LAYERS)


class _Server:
    """One spawned ``repro serve --live`` process."""

    def __init__(self, root):
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.host = self.port = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", SCENARIO, "--live",
             "--warm", "--port", "0", "--time-scale", "0.01"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            self.host, self.port = self._await_port(start)
            self._await_health(start)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self, start):
        lines = []
        while time.perf_counter() - start < SPAWN_TIMEOUT_S:
            line = self.proc.stdout.readline()
            if not line:
                break
            lines.append(line)
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("live server did not start:\n" + "".join(lines))

    def _await_health(self, start):
        while time.perf_counter() - start < SPAWN_TIMEOUT_S:
            try:
                status, _ = self.request("GET", "/healthz", timeout=5)
            except OSError:
                status = None
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError("live server never answered /healthz")

    def request(self, method, path, body=None, timeout=REQUEST_TIMEOUT_S):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self):
        if self.proc.poll() is None:
            if self.port is not None:
                try:
                    self.request("POST", "/v1/shutdown", body=b"{}",
                                 timeout=5)
                except OSError:
                    pass
            try:
                self.proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


def _prom_total(text, name):
    """Sum every sample of one Prometheus counter family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head = line.split(" ")[0]
            if head == name or head.startswith(name + "{"):
                total += float(line.rsplit(" ", 1)[1])
    return total


class Workload:
    name = "live_http"
    parts = ("live",)

    def __init__(self, references, root):
        self.bound = references["live_http"]["max_error"]
        self.root = root
        self.server = None
        self.setup_samples = []
        self.begin_pass()

    def begin_pass(self):
        self.records = []
        self.counters_before = (self.server_counters()
                                if self.server is not None else {})

    def setup(self):
        """Spawn ``SPAWNS`` servers in turn; keep the last one serving."""
        for i in range(SPAWNS):
            server = _Server(self.root)
            self.setup_samples.append(server.setup_s)
            if i + 1 < SPAWNS:
                server.stop()
        self.server = server

    def close(self):
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _send(self, due, values):
        sent = time.perf_counter()
        record = {"due": due, "conn_wait": sent - due, "ok": False,
                  "error": None}
        try:
            status, body = self.server.request(
                "POST", "/v1/infer",
                body=json.dumps({"tenant": TENANT,
                                 "values": list(values)}).encode())
        except OSError as exc:
            record["error"] = f"request failed: {exc}"
            return record
        done = time.perf_counter()
        record["latency"] = done - due
        record["client_s"] = done - sent
        if status != 200:
            record["error"] = f"HTTP {status}: {body[:200]!r}"
            return record
        doc = json.loads(body)
        want = live_reference(values)
        got = np.array(doc["outputs"])
        error = max(float(np.max(np.abs(got - want[: got.size]))),
                    float(doc["max_error"]))
        record.update(server_s=doc["latency_seconds"],
                      batch_size=doc["batch_size"], error=None,
                      max_error=error)
        if doc.get("outcome") != "admitted":
            record["error"] = f"outcome {doc.get('outcome')!r}"
        elif not error <= self.bound:
            record["error"] = f"max error {error:.3g} exceeds {self.bound:g}"
        else:
            record["ok"] = True
        return record

    def run_pass(self, seconds, rng):
        """Send one schedule of ``seconds``; returns the records."""
        schedule = []
        t = rng.uniform(0.0, 1.0 / RATE_RPS)
        while t < seconds:
            schedule.append((t, random_vector(rng, LIVE_SLOTS, 1.0)))
            t += 1.0 / RATE_RPS
        late = []
        futures = []
        with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
            start = time.perf_counter()
            for offset, values in schedule:
                due = start + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late.append(time.perf_counter() - due)
                futures.append(pool.submit(self._send, due, values))
            records = [f.result() for f in futures]
        self.gen_late_max = max(late, default=0.0)
        self.records.extend(records)
        return records

    def server_counters(self):
        status, body = self.server.request("GET", "/metrics")
        text = body.decode() if status == 200 else ""
        return {
            "serve_batches": _prom_total(text, "repro_serve_batches"),
            "serve_rejected": _prom_total(text, "repro_serve_rejected"),
            "overloaded": _prom_total(text,
                                      "repro_serve_live_overloaded"),
        }

    def layer_metrics(self, _tracer):
        """Client-side and ``/metrics`` layers; the server is not traced."""
        records = self.records
        ok = [r for r in records if r["ok"]]
        client = statistics.median([r["latency"] for r in ok])
        counters = {name: value - self.counters_before.get(name, 0.0)
                    for name, value in self.server_counters().items()}
        return {
            "live.server_share_pct": 100.0 * statistics.median(
                [r["server_s"] for r in ok]) / client,
            "live.http_overhead_pct": 100.0 * statistics.median(
                [r["client_s"] - r["server_s"] for r in ok]) / client,
            "live.conn_wait_pct": 100.0 * statistics.median(
                [r["conn_wait"] for r in ok]) / client,
            "live.gen_late_max_pct": 100.0 * self.gen_late_max / client,
            "live.batch_size_mean": sum(r["batch_size"] for r in ok) / len(ok),
            "live.sent": len(records),
            "live.ok": len(ok),
            "live.failed": len(records) - len(ok),
            "live.serve_batches": counters["serve_batches"],
            "live.serve_rejected": counters["serve_rejected"],
            "live.overloaded": counters["overloaded"],
            "live.max_error": max(r["max_error"] for r in ok),
        }
