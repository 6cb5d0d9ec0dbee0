"""The repository's end-to-end benchmark: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_runs --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics; ``--trace 1`` repeats the measurement, then runs it again with
the benchmark's span wrappers installed and prints the per-layer table,
the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Every operation's output is checked (see each workload module); any
failure sets ``correct`` to false and the exit code to 1.  The
workloads, metrics and the layer each metric attributes are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("paper_runs", "ckks_ops", "serve_des", "live_http")
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 150.0


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_path():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program sources at {SRC}/repro; run from a checkout")
    # $REPRO_CACHE_DIR would let planning hit a persistent cache, and
    # every measured run must stay cold; child processes inherit this.
    os.environ.pop("REPRO_CACHE_DIR", None)
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def layer_catalogue():
    """Every per-layer metric as ``(name, unit)``, in output order."""
    import ckks_ops
    import live_http
    import paper_runs
    import serve_des

    return (paper_runs.layer_catalogue() + ckks_ops.layer_catalogue()
            + serve_des.layer_catalogue() + live_http.layer_catalogue()
            + [("trace.overhead_pct", "%")])


def make_workload(name, references):
    if name == "paper_runs":
        import paper_runs
        return paper_runs.Workload(references)
    if name == "ckks_ops":
        import ckks_ops
        return ckks_ops.Workload(references)
    if name == "serve_des":
        import serve_des
        return serve_des.Workload(references)
    import live_http
    return live_http.Workload(references, ROOT)


def timed_setup(workload):
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def probe_setup(name):
    """Set up ``name`` in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", name],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# Measurement passes
# ----------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failures = []

    def record(self, part, seconds, ok, message):
        if seconds is not None:
            self.samples.setdefault(part, []).append(seconds)
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def part_medians(self):
        return {part: statistics.median(v) for part, v in self.samples.items()}

    def require_samples(self, parts):
        missing = [p for p in parts if not self.samples.get(p)]
        if missing:
            for message in self.failures[:20]:
                print(f"FAILED: {message}")
            raise SystemExit(f"perfbench: no successful operation of "
                             f"{', '.join(missing)}")

    def p50_geomean(self):
        from harness import geomean
        return geomean(list(self.part_medians().values()))


def closed_loop(workload, seconds, seed, clock, outcome):
    """Rounds of one operation per part, in seeded order, for ``seconds``.

    A new round starts only while the clock, plus half the last round's
    length, is still inside ``seconds``, so a run lasts about
    ``seconds`` whatever the round length.
    """
    from harness import part_rng

    rngs = {part: part_rng(seed, part) for part in workload.parts}
    order_rng = part_rng(seed, "order")
    start = time.perf_counter()
    first = set(workload.parts)
    while True:
        round_start = time.perf_counter()
        order = list(workload.parts)
        order_rng.shuffle(order)
        for part in order:
            try:
                ok, message = workload.run_op(part, rngs[part], clock,
                                              part in first)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                outcome.record(part, None, False,
                               f"{part}: {type(exc).__name__}: {exc}")
            else:
                outcome.record(part, clock.elapsed, ok, message)
            first.discard(part)
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            return


def live_pass(workload, seconds, seed, outcome):
    from harness import part_rng

    for record in workload.run_pass(seconds, part_rng(seed, "live")):
        outcome.record("live", record["latency"] if record["ok"] else None,
                       record["ok"], record["error"])


def measure(workload, seconds, seed, tracer=None):
    from harness import OpClock

    outcome = Outcome()
    workload.begin_pass()
    if workload.name == "live_http":
        live_pass(workload, seconds, seed, outcome)
        return outcome
    clock = OpClock(tracer)
    if tracer is not None and hasattr(workload, "plan_traced"):
        for part in workload.parts:
            workload.plan_traced(part, clock)
    closed_loop(workload, seconds, seed, clock, outcome)
    return outcome


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def env_line():
    import numpy

    backend = os.environ.get("REPRO_BACKEND", "<unset: numpy>")
    return (f"env: REPRO_BACKEND={backend} nproc={os.cpu_count()} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def print_outcome(outcome, label):
    from harness import tail_percentile

    for part, values in outcome.samples.items():
        ordered = sorted(values)
        print(f"{label} {part}: median {outcome.part_medians()[part]:.4f} s "
              f"over {len(values)} ops (min {ordered[0]:.4f}, "
              f"max {ordered[-1]:.4f})")
        tail = tail_percentile(values)
        if tail is not None:
            pct, value, beyond = tail
            print(f"{label} {part}: tail p{pct} {value:.4f} s with {beyond} "
                  f"of {len(values)} samples beyond it")


def print_trace_table(tracer):
    if not tracer.stats:
        return
    print("per-layer spans (scope, span, calls, total s, self s):")
    for scope, name, calls, total, self_s in tracer.table():
        print(f"  {scope:<18} {name:<22} {calls:>9d} {total:11.4f} "
              f"{self_s:11.4f}")
    for missing in tracer.missing:
        print(f"  not traced (attribute missing): {missing}")


def run(args):
    from harness import Tracer

    with open(args.references, encoding="utf-8") as fh:
        references = json.load(fh)
    print(env_line())
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    workload = make_workload(args.workload, references)
    try:
        if args.workload == "live_http":
            workload.setup()
            setup_samples = workload.setup_samples
        else:
            setup_samples = [timed_setup(workload)] + [
                probe_setup(args.workload)
                for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(setup_samples)
        print(f"setup_s = {setup_s:.4f} s (median of "
              f"{', '.join(f'{s:.4f}' for s in setup_samples)})")

        outcome = measure(workload, args.seconds, args.seed)
        outcome.require_samples(workload.parts)
        print_outcome(outcome, "untraced")
        p50 = outcome.p50_geomean()
        print(f"p50_geomean_s = {p50:.4f} s")
        outcomes = [outcome]
        if args.trace:
            tracer = Tracer()
            with tracer:
                if hasattr(workload, "patch"):
                    workload.patch(tracer)
                traced = measure(workload, args.seconds, args.seed, tracer)
            traced.require_samples(workload.parts)
            outcomes.append(traced)
            print_outcome(traced, "traced")
            traced_p50 = traced.p50_geomean()
            overhead = 100.0 * (traced_p50 / p50 - 1.0)
            print(f"tracing overhead: traced p50_geomean_s {traced_p50:.4f} s "
                  f"vs untraced {p50:.4f} s ({overhead:+.2f}%)")
            print_trace_table(tracer)
            layers = workload.layer_metrics(tracer)
            layers["trace.overhead_pct"] = overhead
            print("per-layer metrics of this workload:")
            for name, value in layers.items():
                print(f"  {name} = {value:.6g}")
        for line in getattr(workload, "info_lines", list)():
            print(line)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    attempted = sum(o.attempted for o in outcomes)
    failures = [m for o in outcomes for m in o.failures]
    for message in failures[:20]:
        print(f"FAILED: {message}")
    print(f"correct: {'yes' if not failures else 'NO'} "
          f"({attempted} attempted, {len(failures)} failed)")

    if args.trace:
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in layer_catalogue()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "p50_geomean_s": {"value": p50, "unit": "s"},
        }
        for name, entry in metrics.items():
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def _exit_on_sigterm(signum, frame):
    # Unwind normally, so ``finally`` blocks stop any spawned server.
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=REFERENCES,
                        help="reference digests and error bounds")
    parser.add_argument("--setup-probe", choices=WORKLOADS[:3],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_path()
    if args.setup_probe:
        with open(REFERENCES, encoding="utf-8") as fh:
            workload = make_workload(args.setup_probe, json.load(fh))
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
