"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available deployments and benchmarks.
``run -s SYSTEM -b BENCHMARK``
    Simulate one benchmark; prints runtime, per-procedure spans,
    communication overhead and energy.
``bench --jobs N [--no-cache] [--json]``
    Full paper evaluation grid (every deployment x every benchmark)
    through the parallel runtime with the persistent result cache
    (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-hydra/``); repeated
    invocations are served from cache.
``sweep -b BENCHMARK --cards 1 2 4 8 ... [--jobs N]``
    Card-count scaling study (paper Fig. 9 style), fanned out over
    worker processes.
``resources``
    Single-card FPGA utilization (paper Table IV).
``dft --slots N --cards C``
    Optimal bootstrapping DFT parameters (paper Table V / Eq. 1).
``trace -s SYSTEM -b BENCHMARK --step NAME --format {gantt,chrome,summary}``
    One scheduled step, traced: text Gantt chart, Chrome/Perfetto
    trace-event JSON, or a JSON busy-time summary with the overlap
    report.  ``--out FILE`` writes to a file instead of stdout.
``profile SYSTEM BENCHMARK``
    Full traced inference: per-card compute/communication overlap
    report, per-(kind, tag) busy seconds, and the run's metric
    counters; ``--out FILE`` additionally writes a ``trace.json``
    loadable in ``chrome://tracing`` / https://ui.perfetto.dev.
``report -b BENCHMARK``
    Compact full-system comparison (Table II style).
``perf run [--out FILE] [--workloads ...] [--warmup N] [--repeats N]``
    Time the pinned microbenchmark suite (NTT, RNS, keyswitch/rotation,
    BSGS matmul, a bootstrap stage, one simulated step) and emit a
    ``repro.perf/v1`` JSON report with a machine calibration score.
``perf compare OLD NEW --max-regress PCT``
    Compare two reports (machine-normalized medians); exits nonzero when
    any workload slows beyond the threshold or disappears.  CI runs this
    against the committed ``BENCH_perf.json``.
``validate-ops [--tiny] [--perturb OP] [--json] [--out FILE]``
    Cross-validate the op IR: execute tiny ConvBN / FC / polynomial /
    bootstrap-stage workloads through the functional CKKS layer while
    recording an ``OpTrace``, rebuild the same counts analytically, and
    diff them per op.  Exits nonzero on any divergence; ``--out FILE``
    writes the machine-readable diff report (the CI artifact) and
    ``--perturb OP`` deliberately breaks one modeled count to prove the
    gate fails loudly.
``serve SCENARIO [--duration S] [--seed N] [--fleet NAME] [--dispatch M]
[--policy P] [--jobs N] [--backend B] [--exact] [--json] [--out FILE]
[--telemetry-out DIR] [--validate] [--list] [--validate-scenarios]``
    Multi-tenant serving simulation (see :mod:`repro.serve`): seeded
    open-loop arrivals per tenant (Poisson, uniform, diurnal, flash
    crowd, MMPP), a bounded admission queue with the scenario's policy,
    batch coalescing, SLO-aware routing across heterogeneous fleets,
    and autoscaled elastic replica pools.  ``kind: llm`` tenants add
    multi-phase autoregressive sessions — a prompt prefill followed by
    per-token decode steps with session-affine KV routing and
    bootstrap recharges.  Emits the deterministic ``repro.serve/v3``
    streaming SLO report (per-tenant p50/p95/p99 within a documented
    error bound, windowed rate/latency/burn-rate series, queue depth,
    per-cluster utilization, goodput, card-second fleet cost,
    scale-event timeline) — ``repro.serve/v4`` with per-tenant TTFT
    and inter-token percentiles when the scenario has LLM tenants;
    ``--telemetry-out DIR`` additionally writes ``report.json`` +
    ``metrics.prom`` (Prometheus text exposition) + ``events.jsonl``
    (flight-recorder ring); ``--validate`` checks the report against
    the checked-in schema; ``--exact`` switches to unbounded exact
    aggregation.  ``SCENARIO`` is a JSON file path or a builtin name
    (``--list``).  ``--validate-scenarios`` lints every committed
    scenario file (current schema version, full validation, to_dict
    round-trip) and exits nonzero on any failure — the CI lint gate.
    ``--live [--host H] [--port N] [--warm] [--warm-workers N]
    [--max-inflight N] [--time-scale F]`` swaps the DES for the asyncio
    live runtime (:mod:`repro.serve.live`): a localhost HTTP API
    answering real encrypt→infer→decrypt requests on the functional
    CKKS substrate, with simulated-hardware latency accounted per
    batch and a Prometheus ``/metrics`` endpoint; LLM tenants stream
    tokens over chunked HTTP from ``POST /v1/generate``.
``llm-levels [-m MODEL] [--tokens N] [--max-level L] [--json]``
    Per-token KV level accounting for one LLM serving session: the
    level the cached K/V ciphertexts hold before/after every decode
    step and where the bootstrap recharges land (see
    :mod:`repro.llm.session`).
``capacity SCENARIO [--shapes S ...] [--max-replicas N] [--jobs N]
[--backend B] [--seed N] [--duration S] [--json] [--out FILE]
[--validate] [--golden FILE]``
    Capacity planning (see :mod:`repro.serve.capacity`): for each
    candidate cluster shape, binary-search the smallest static replica
    count that holds every SLO tenant's p99 under its deadline, its
    miss fraction within the error budget, and sheds no load; pick the
    cheapest feasible fleet by total cards.  Emits the deterministic
    ``repro.capacity/v1`` plan — byte-identical across ``--jobs N``,
    restarts, and warm caches.  ``--validate`` checks it against the
    checked-in schema; ``--golden FILE`` exits nonzero when the chosen
    fleet or any shape's search outcome differs from the committed
    plan (the CI capacity gate).
``backend list``
    Show the registered kernel providers (:mod:`repro.backend`), their
    availability, and which one the environment resolves to.  ``run``
    and ``perf run`` accept ``--backend NAME`` to select one; the
    ``$REPRO_BACKEND`` environment variable sets the process default.
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    format_table,
    level_histogram,
    op_histogram,
    render_gantt,
    trace_summary,
)
from repro.core.system import (
    HydraSystem,
    available_benchmarks,
    available_systems,
)

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hydra scale-out FHE accelerator reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show deployments and benchmarks")

    run_p = sub.add_parser("run", help="simulate one benchmark")
    run_p.add_argument("-s", "--system", default="Hydra-M",
                       help="deployment name (see `list`)")
    run_p.add_argument("-b", "--benchmark", default="resnet18")
    run_p.add_argument("--no-energy", action="store_true")
    run_p.add_argument("--backend", default=None,
                       help="kernel provider (see `backend list`; "
                            "default: $REPRO_BACKEND or numpy)")

    bench_p = sub.add_parser(
        "bench", help="full paper grid via the parallel runtime")
    bench_p.add_argument("-s", "--systems", nargs="+", default=None,
                         help="deployments (default: all)")
    bench_p.add_argument("-b", "--benchmarks", nargs="+", default=None,
                         help="benchmarks (default: all)")
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for cache misses")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result cache")
    bench_p.add_argument("--cache-dir", default=None,
                         help="cache directory (default: $REPRO_CACHE_DIR "
                              "or ~/.cache/repro-hydra)")
    bench_p.add_argument("--no-energy", action="store_true")
    bench_p.add_argument("--json", action="store_true",
                         help="print results + manifest as JSON")

    sweep_p = sub.add_parser("sweep", help="card-count scaling study")
    sweep_p.add_argument("-b", "--benchmark", default="resnet18")
    sweep_p.add_argument("--cards", type=int, nargs="+",
                         default=[1, 2, 4, 8, 16, 32, 64])
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for cache misses")

    sub.add_parser("resources", help="FPGA utilization (Table IV)")

    dft_p = sub.add_parser("dft", help="bootstrapping DFT parameters")
    dft_p.add_argument("--slots", type=int, default=15,
                       help="log2 of the slot count")
    dft_p.add_argument("--cards", type=int, default=8)

    trace_p = sub.add_parser("trace", help="trace one scheduled step")
    trace_p.add_argument("-s", "--system", default="Hydra-M")
    trace_p.add_argument("-b", "--benchmark", default="resnet18")
    trace_p.add_argument("--step", default=None,
                         help="step name (default: first ConvBN)")
    trace_p.add_argument("--format", dest="format",
                         choices=["gantt", "chrome", "summary"],
                         default="gantt",
                         help="gantt = text chart, chrome = Perfetto/"
                              "chrome://tracing JSON, summary = JSON "
                              "busy-time rows + overlap report")
    trace_p.add_argument("--out", default=None,
                         help="write output to FILE instead of stdout")

    profile_p = sub.add_parser(
        "profile", help="traced full run + overlap/utilization report")
    profile_p.add_argument("system", help="deployment name (see `list`)")
    profile_p.add_argument("benchmark", help="benchmark name")
    profile_p.add_argument("--out", default=None,
                           help="also write a Chrome/Perfetto trace.json")

    report_p = sub.add_parser(
        "report", help="compact full-system report (Table II style)")
    report_p.add_argument("-b", "--benchmark", default="resnet18")

    perf_p = sub.add_parser(
        "perf", help="microbenchmark suite + regression gate")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)

    perf_run = perf_sub.add_parser(
        "run", help="time the pinned suite, emit a repro.perf/v1 report")
    perf_run.add_argument("--out", default=None,
                          help="write the JSON report to FILE "
                               "(default: stdout)")
    perf_run.add_argument("--workloads", nargs="+", default=None,
                          help="subset of workload names (default: all)")
    perf_run.add_argument("--warmup", type=int, default=None,
                          help="warmup iterations per workload")
    perf_run.add_argument("--repeats", type=int, default=None,
                          help="timed iterations per workload")
    perf_run.add_argument("--list", action="store_true",
                          help="list suite workloads and exit")
    perf_run.add_argument("--backend", default=None,
                          help="kernel provider timing the suite (see "
                               "`backend list`); non-default providers "
                               "get '@NAME'-suffixed workload labels")

    perf_cmp = perf_sub.add_parser(
        "compare", help="compare two reports; nonzero exit on regression")
    perf_cmp.add_argument("old", help="baseline report (BENCH_perf.json)")
    perf_cmp.add_argument("new", help="candidate report")
    perf_cmp.add_argument("--max-regress", type=float, default=20.0,
                          help="allowed normalized slowdown in percent "
                               "(default: 20)")

    validate_p = sub.add_parser(
        "validate-ops",
        help="cross-validate executed vs modeled FHE op counts")
    validate_p.add_argument("--tiny", action="store_true",
                            help="smallest ring sizes (seconds; CI mode)")
    validate_p.add_argument("--perturb", default=None, metavar="OP",
                            help="bump one modeled op count to prove the "
                                 "gate fails (e.g. 'rotation')")
    validate_p.add_argument("--json", action="store_true",
                            help="print the diff report as JSON")
    validate_p.add_argument("--out", default=None,
                            help="also write the JSON diff report to FILE")

    serve_p = sub.add_parser(
        "serve", help="multi-tenant serving simulation + SLO report")
    serve_p.add_argument("scenario", nargs="?", default=None,
                         help="scenario JSON file or builtin name "
                              "(see --list)")
    serve_p.add_argument("--list", action="store_true",
                         help="list builtin scenarios and exit")
    serve_p.add_argument("--duration", type=float, default=None,
                         help="override the scenario's arrival window (s)")
    serve_p.add_argument("--seed", type=int, default=None,
                         help="override the scenario's RNG seed")
    serve_p.add_argument("--fleet", default=None,
                         help="simulate only this fleet")
    serve_p.add_argument("--dispatch", default=None,
                         choices=["pipelined", "serialized"],
                         help="override the cluster occupancy mode")
    serve_p.add_argument("--policy", default=None,
                         choices=["fifo", "fair", "edf"],
                         help="override the queueing policy")
    serve_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for service-profile "
                              "planning (cache misses)")
    serve_p.add_argument("--backend", default=None,
                         help="kernel provider for service-profile "
                              "planning (see `repro backend list`)")
    serve_p.add_argument("--exact", action="store_true",
                         help="exact (unbounded-memory) telemetry: "
                              "exact quantiles + full queue-depth series")
    serve_p.add_argument("--json", action="store_true",
                         help="emit the repro.serve/v3 report as JSON")
    serve_p.add_argument("--out", default=None,
                         help="write output to FILE instead of stdout")
    serve_p.add_argument("--telemetry-out", default=None, metavar="DIR",
                         help="write report.json + metrics.prom + "
                              "events.jsonl into DIR")
    serve_p.add_argument("--validate", action="store_true",
                         help="check the report against the checked-in "
                              "schema (nonzero exit on violation)")
    serve_p.add_argument("--validate-scenarios", action="store_true",
                         help="lint every committed scenario file and "
                              "exit (nonzero on any failure)")
    serve_p.add_argument("--live", action="store_true",
                         help="serve real encrypted inference over a "
                              "localhost HTTP API instead of running "
                              "the DES (see repro.serve.live)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="live mode: bind address "
                              "(default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8377,
                         help="live mode: TCP port (0 = ephemeral; "
                              "default 8377)")
    serve_p.add_argument("--warm", action="store_true",
                         help="live mode: build every CKKS worker "
                              "context before accepting traffic")
    serve_p.add_argument("--warm-workers", type=int, default=2,
                         metavar="N",
                         help="live mode: warm CKKS worker contexts "
                              "(default 2)")
    serve_p.add_argument("--max-inflight", type=int, default=64,
                         metavar="N",
                         help="live mode: admitted-but-incomplete "
                              "request cap before 503 (default 64)")
    serve_p.add_argument("--time-scale", type=float, default=1.0,
                         metavar="F",
                         help="live mode: scale simulated-hardware "
                              "batch times by F (0.01 = 100x faster "
                              "than modeled; default 1.0)")

    llm_levels_p = sub.add_parser(
        "llm-levels",
        help="per-token KV level budget of an LLM serving session")
    llm_levels_p.add_argument("-m", "--model", default="bert_base",
                              help="LLM benchmark name "
                                   "(default bert_base)")
    llm_levels_p.add_argument("--tokens", type=int, default=16,
                              help="generated tokens incl. the prefill "
                                   "token (default 16)")
    llm_levels_p.add_argument("--max-level", type=int, default=None,
                              help="override the CKKS level budget "
                                   "(default: paper parameters)")
    llm_levels_p.add_argument("--json", action="store_true",
                              help="emit the repro.llm_levels/v1 report "
                                   "as JSON")
    llm_levels_p.add_argument("--out", default=None,
                              help="write output to FILE instead of "
                                   "stdout")

    capacity_p = sub.add_parser(
        "capacity",
        help="minimum-fleet capacity planning (repro.capacity/v1)")
    capacity_p.add_argument("scenario",
                            help="scenario JSON file or builtin name")
    capacity_p.add_argument("--shapes", nargs="+", default=None,
                            metavar="SHAPE",
                            help="candidate cluster shapes (default: "
                                 "Hydra-S Hydra-M Hydra-L)")
    capacity_p.add_argument("--max-replicas", type=int, default=8,
                            help="per-shape search ceiling (default 8)")
    capacity_p.add_argument("--jobs", type=int, default=1,
                            help="worker processes for service-profile "
                                 "planning (cache misses)")
    capacity_p.add_argument("--backend", default=None,
                            help="kernel provider for service-profile "
                                 "planning")
    capacity_p.add_argument("--seed", type=int, default=None,
                            help="override the scenario's RNG seed")
    capacity_p.add_argument("--duration", type=float, default=None,
                            help="override the scenario's arrival "
                                 "window (s)")
    capacity_p.add_argument("--json", action="store_true",
                            help="emit the repro.capacity/v1 plan as "
                                 "JSON")
    capacity_p.add_argument("--out", default=None,
                            help="write output to FILE instead of stdout")
    capacity_p.add_argument("--validate", action="store_true",
                            help="check the plan against the checked-in "
                                 "schema (nonzero exit on violation)")
    capacity_p.add_argument("--golden", default=None, metavar="FILE",
                            help="gate against a committed golden plan: "
                                 "exit nonzero when the chosen fleet or "
                                 "any shape outcome differs")

    backend_p = sub.add_parser(
        "backend", help="kernel-provider registry (repro.backend)")
    backend_sub = backend_p.add_subparsers(dest="backend_command",
                                           required=True)
    backend_sub.add_parser(
        "list", help="show registered providers and availability")
    return parser


def _cmd_list(_args, out):
    out(f"systems:    {', '.join(available_systems())}")
    out(f"benchmarks: {', '.join(available_benchmarks())}")
    return 0


def _cmd_run(args, out):
    try:
        system = HydraSystem.named(args.system, backend=args.backend)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    result = system.run(args.benchmark, with_energy=not args.no_energy)
    out(f"{args.benchmark} on {args.system} "
        f"({system.total_cards} cards)")
    out(f"  total time:    {result.total_seconds:.2f} s")
    out(f"  comm overhead: {100 * result.comm_overhead_fraction:.2f} %")
    out(f"  data moved:    {result.bytes_transferred / 1e9:.2f} GB")
    for proc, span in sorted(result.procedure_span.items(),
                             key=lambda kv: -kv[1]):
        out(f"  {proc:10s} {span:10.3f} s")
    if result.energy is not None:
        out(f"  energy:        {result.energy.total / 1e3:.2f} kJ")
    return 0


def _cmd_bench(args, out):
    import json as _json

    from repro.runtime import SqlitePlanStore, execute, paper_grid

    requests = paper_grid(
        systems=args.systems,
        benchmarks=args.benchmarks,
        with_energy=not args.no_energy,
    )
    try:
        cache = None if args.no_cache else SqlitePlanStore(args.cache_dir)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    outcome = execute(requests, jobs=args.jobs, cache=cache,
                      use_cache=not args.no_cache)
    manifest = outcome.manifest

    if args.json:
        out(_json.dumps({
            "results": [
                {
                    "system": rr.request.system_name,
                    "benchmark": rr.request.benchmark,
                    "total_seconds": rr.result.total_seconds,
                    "comm_overhead_fraction":
                        rr.result.comm_overhead_fraction,
                    "energy_joules": (
                        None if rr.result.energy is None
                        else rr.result.energy.total
                    ),
                    "cache_hit": rr.cache_hit,
                }
                for rr in outcome
            ],
            "manifest": manifest.to_dict(),
        }, indent=2, sort_keys=True))
        return 0

    table = outcome.by_label()
    systems = args.systems or available_systems()
    benchmarks = args.benchmarks or available_benchmarks()
    rows = [
        [name] + [table[(name, b)].total_seconds for b in benchmarks]
        for name in systems
    ]
    out(format_table(
        ["System"] + list(benchmarks), rows,
        title="Full evaluation grid — execution time (s)",
    ))
    out("")
    out(manifest.summary())
    if cache is not None:
        out(f"cache: {cache.directory} ({len(cache)} entries)")
    return 0


def _cmd_sweep(args, out):
    from repro.hw import hydra_cluster
    from repro.runtime import MemoryCache, RunRequest, execute

    requests = []
    for cards in args.cards:
        servers = 1 if cards <= 8 else -(-cards // 8)
        per_server = cards if cards <= 8 else 8
        requests.append(RunRequest(
            benchmark=args.benchmark,
            cluster=hydra_cluster(servers, per_server),
            with_energy=False,
        ))
    outcome = execute(requests, jobs=args.jobs, cache=MemoryCache())
    rows = []
    base = None
    for cards, rr in zip(args.cards, outcome):
        r = rr.result
        if base is None:
            base = r
        speedup = base.total_seconds / r.total_seconds
        rows.append([cards, r.total_seconds, speedup,
                     100.0 * speedup / cards,
                     100.0 * r.comm_overhead_fraction])
    out(format_table(
        ["Cards", "Time (s)", "Speedup", "Efficiency %", "Comm %"], rows,
        title=f"{args.benchmark} scaling",
    ))
    return 0


def _cmd_resources(_args, out):
    from repro.hw import U280_RESOURCES

    out(U280_RESOURCES.table())
    return 0


def _cmd_dft(args, out):
    from repro.cost import OpCostModel
    from repro.hw import HYDRA_CARD
    from repro.sched import optimal_dft_parameters

    cost = OpCostModel(HYDRA_CARD)
    params, time = optimal_dft_parameters(cost, args.slots, args.cards)
    out(f"logSlots={args.slots}, cards={args.cards}")
    out(f"  radices:     {params.radices}")
    out(f"  baby steps:  {params.baby_steps}")
    out(f"  giant steps: {params.giant_steps}")
    out(f"  DFT time:    {time * 1e3:.2f} ms")
    return 0


def _emit(text, out, path=None):
    """The one ``--out``-aware writer shared by every subcommand.

    Prints ``text`` through ``out`` when ``path`` is None; otherwise
    writes it to ``path`` (newline-terminated) and prints a one-line
    confirmation.
    """
    if path is None:
        out(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    out(f"wrote {path}")


def _emit_json(payload, out, path=None, indent=2):
    """Emit ``payload`` as canonical (sorted-key) JSON via :func:`_emit`."""
    import json as _json

    _emit(_json.dumps(payload, indent=indent, sort_keys=True), out, path)


def _cmd_trace(args, out):
    import json as _json

    from repro.obs import (
        Recorder,
        chrome_trace,
        overlap_report,
        validate_chrome_trace,
    )
    from repro.sim import ProgramBuilder, Simulator

    system = HydraSystem.named(args.system)
    model = system.build_model(args.benchmark)
    step = None
    if args.step:
        matches = [s for s in model.steps if s.name == args.step]
        if not matches:
            out(f"no step named {args.step!r}; options: "
                + ", ".join(s.name for s in model.steps[:20]) + " ...")
            return 1
        step = matches[0]
    else:
        step = next((s for s in model.steps if s.is_unit_parallel),
                    model.steps[0])
    planner = system.planner
    builder = ProgramBuilder(system.total_cards)
    scale = (model.work_scale
             * planner.calibration.work_scale.get(model.name, 1.0))
    recorder = Recorder()
    with recorder:
        planner.map_step(step, builder, scale)
        sim = Simulator(system.cluster, trace=True)
        result = sim.run(builder.build(), step=step.name)

    if args.format == "chrome":
        doc = chrome_trace(sim_trace=result.trace, spans=recorder.spans)
        validate_chrome_trace(doc)
        _emit_json(doc, out, args.out, indent=None)
        return 0
    if args.format == "summary":
        payload = {
            "system": args.system,
            "benchmark": args.benchmark,
            "step": step.name,
            "makespan_seconds": result.makespan,
            "busy": trace_summary(result.trace),
            "overlap": overlap_report(
                result.trace, makespan=result.makespan).to_dict(),
        }
        _emit_json(payload, out, args.out)
        return 0
    text = "\n".join([
        f"step {step.name!r} ({step.procedure}) on {args.system}: "
        f"{result.makespan * 1e3:.2f} ms",
        render_gantt(result.trace, makespan=result.makespan),
    ])
    _emit(text, out, args.out)
    return 0


def _cmd_profile(args, out):
    from repro.obs import (
        MetricsRegistry,
        Recorder,
        overlap_report,
        use_registry,
        write_chrome_trace,
    )

    registry = MetricsRegistry()
    recorder = Recorder()
    with use_registry(registry), recorder:
        system = HydraSystem.named(args.system)
        model = system.build_model(args.benchmark)
        result = system.planner.run_model(model, with_energy=False,
                                          trace=True)
    trace = result.sim.trace
    out(f"{args.benchmark} on {args.system} ({system.total_cards} cards): "
        f"{result.total_seconds:.2f} s simulated, "
        f"{len(trace)} trace events")
    out("")
    report = overlap_report(trace, makespan=result.sim.makespan)
    out(report.render())
    out("")
    busy = trace_summary(trace)
    busy.sort(key=lambda row: -row["busy_seconds"])
    rows = [[r["kind"], r["tag"], r["busy_seconds"]] for r in busy[:12]]
    out(format_table(["Kind", "Tag", "Busy (s)"], rows,
                     title="Busy seconds by (kind, tag)",
                     float_fmt="{:.4f}"))
    headers, op_rows = op_histogram(result.sim.node_ops, max_rows=12)
    if op_rows:
        out("")
        out(format_table(headers, op_rows,
                         title="FHE op histogram by card",
                         float_fmt="{:.0f}"))
    lvl_headers, lvl_rows = level_histogram(result.sim.node_ops,
                                            max_rows=16)
    if lvl_rows:
        out("")
        out(format_table(lvl_headers, lvl_rows,
                         title="Level-consumption histogram",
                         float_fmt="{:.0f}"))
    counters = registry.snapshot()["counters"]
    if counters:
        out("")
        out("metric counters:")
        for name, series in counters.items():
            for labels, value in series.items():
                label = f"{{{labels}}}" if labels else ""
                out(f"  {name}{label} = {value:g}")
    underflows = sum(counters.get("ckks.scale.underflow", {}).values())
    if underflows:
        out("")
        out(f"WARNING: ckks.scale.underflow fired {underflows:g} time(s) "
            "- a rescale collapsed the scale below 1 and the message is "
            "unrecoverable")
    if args.out:
        write_chrome_trace(args.out, sim_trace=trace, spans=recorder.spans)
        out(f"wrote {args.out}")
    return 0


def _cmd_report(args, out):
    from repro.baselines import ASIC_ACCELERATORS, asic_runtime

    rows = []
    for accel in ASIC_ACCELERATORS:
        rows.append([f"{accel} (ASIC, published)",
                     asic_runtime(accel, args.benchmark), "-"])
    base = None
    for name in available_systems():
        r = HydraSystem.named(name).run(args.benchmark, with_energy=False)
        if name == "Hydra-S":
            base = r
        rows.append([name, r.total_seconds,
                     f"{100 * r.comm_overhead_fraction:.1f}%"])
    out(format_table(
        ["Accelerator", "Time (s)", "Comm"],
        rows,
        title=f"Full-system report — {args.benchmark}",
    ))
    if base is not None:
        hydra_l = HydraSystem.named("Hydra-L").run(args.benchmark,
                                                   with_energy=False)
        out(f"\nHydra-L speedup over Hydra-S: "
            f"{base.total_seconds / hydra_l.total_seconds:.1f}x")
    return 0


def _cmd_perf(args, out):
    import json as _json

    from repro.perf import (
        DEFAULT_REPEATS,
        DEFAULT_WARMUP,
        compare_reports,
        load_report,
        run_suite,
        suite_names,
        validate_report,
    )
    from repro.perf.workloads import SUITE

    if args.perf_command == "run":
        if args.list:
            for name in suite_names():
                out(f"{name:34s} {SUITE[name].description}")
            return 0
        warmup = args.warmup if args.warmup is not None else DEFAULT_WARMUP
        repeats = (args.repeats if args.repeats is not None
                   else DEFAULT_REPEATS)
        try:
            report = run_suite(names=args.workloads, warmup=warmup,
                               repeats=repeats, progress=out,
                               backend=args.backend)
        except KeyError as exc:
            out(f"error: {exc.args[0]}")
            return 2
        validate_report(report)
        _emit_json(report, out, args.out)
        return 0

    # compare
    try:
        old = load_report(args.old)
        new = load_report(args.new)
    except (OSError, ValueError, _json.JSONDecodeError) as exc:
        out(f"error: {exc}")
        return 2
    result = compare_reports(old, new, max_regress_pct=args.max_regress)
    out(result.render())
    return 1 if result.has_regressions else 0


def _cmd_validate_ops(args, out):
    from repro.ir.validate import run_validation

    report = run_validation(tiny=args.tiny, perturb=args.perturb)
    if args.json:
        _emit_json(report.to_dict(), out)
    else:
        out(report.render())
    if args.out:
        _emit_json(report.to_dict(), out, args.out)
    return 0 if report.ok else 1


def _cmd_serve(args, out):
    from repro.serve import (
        builtin_scenarios,
        render_report,
        run_scenario,
        validate_serve_report,
    )

    if args.list:
        from repro.serve import load_scenario

        rows = []
        for name in builtin_scenarios():
            scenario = load_scenario(name)
            for tenant in scenario.tenants:
                deadline = tenant.deadline_seconds
                rows.append((
                    name,
                    tenant.name,
                    tenant.model,
                    tenant.kind,
                    f"{tenant.process}@{tenant.rate_rps:g}/s",
                    "-" if deadline is None else f"{deadline:g}s",
                ))
        out(format_table(
            ["Scenario", "Tenant", "Model", "Kind", "Arrival", "SLO"],
            rows))
        return 0
    if args.validate_scenarios:
        from repro.serve import validate_scenario_files

        rows = validate_scenario_files()
        failed = 0
        for filename, error in rows:
            if error is None:
                out(f"ok    {filename}")
            else:
                failed += 1
                out(f"FAIL  {filename}: {error}")
        out(f"{len(rows) - failed}/{len(rows)} scenario files valid")
        return 1 if failed else 0
    if args.scenario is None:
        out("error: a scenario name/path is required (or use --list)")
        return 2
    if args.live:
        from repro.serve.live import run_live

        try:
            return run_live(
                args.scenario, host=args.host, port=args.port,
                fleet=args.fleet, warm=args.warm,
                warm_workers=args.warm_workers,
                max_inflight=args.max_inflight,
                time_scale=args.time_scale, jobs=args.jobs,
                backend=args.backend, out=out)
        except (OSError, ValueError, KeyError) as exc:
            out(f"error: {exc}")
            return 2
    recorders = {}
    try:
        report, manifest = run_scenario(
            args.scenario, seed=args.seed, duration=args.duration,
            dispatch=args.dispatch, policy=args.policy, fleet=args.fleet,
            jobs=args.jobs, backend=args.backend, exact=args.exact,
            recorders=recorders)
    except (OSError, ValueError, KeyError) as exc:
        out(f"error: {exc}")
        return 2
    if args.validate:
        try:
            validate_serve_report(report)
        except ValueError as exc:
            out(f"schema validation failed: {exc}")
            return 1
    if args.telemetry_out:
        from repro.serve import write_telemetry

        for path in write_telemetry(report, recorders, args.telemetry_out):
            out(f"wrote {path}")
    if args.json or args.out:
        _emit_json(report, out, args.out)
    else:
        out(render_report(report))
    if not args.json or args.out:
        # Keep stdout parseable when the JSON report goes to stdout.
        out(f"planning: {manifest.summary()}")
    return 0


def _cmd_capacity(args, out):
    import json as _json

    from repro.serve import (
        compare_capacity_reports,
        plan_capacity,
        render_capacity_report,
        validate_capacity_report,
    )

    try:
        report, manifest = plan_capacity(
            args.scenario, shapes=args.shapes,
            max_replicas=args.max_replicas, jobs=args.jobs,
            backend=args.backend, seed=args.seed,
            duration=args.duration)
    except (OSError, ValueError, KeyError) as exc:
        out(f"error: {exc}")
        return 2
    if args.validate:
        try:
            validate_capacity_report(report)
        except ValueError as exc:
            out(f"schema validation failed: {exc}")
            return 1
    if args.json or args.out:
        _emit_json(report, out, args.out)
    else:
        out(render_capacity_report(report))
    if not args.json or args.out:
        out(f"planning: {manifest.summary()}")
    if args.golden:
        try:
            with open(args.golden, encoding="utf-8") as fh:
                golden = _json.load(fh)
        except (OSError, _json.JSONDecodeError) as exc:
            out(f"error reading golden plan: {exc}")
            return 2
        diffs = compare_capacity_reports(report, golden)
        if diffs:
            out(f"capacity plan drifted from {args.golden}:")
            for diff in diffs:
                out(f"  {diff}")
            out("re-run `repro capacity` and commit the new golden if "
                "the change is intended")
            return 1
        out(f"capacity plan matches golden {args.golden}")
    return 0


def _cmd_llm_levels(args, out):
    from repro.analysis import llm_levels_report, render_llm_levels

    try:
        report = llm_levels_report(model=args.model, tokens=args.tokens,
                                   max_level=args.max_level)
    except (KeyError, ValueError) as exc:
        out(f"error: {exc}")
        return 2
    if args.json or args.out:
        _emit_json(report, out, args.out)
    else:
        out(render_llm_levels(report))
    return 0


def _cmd_backend(args, out):
    from repro.backend import available_backends, default_backend_name

    default = default_backend_name()
    out(f"{'name':12s} {'available':10s} detail")
    for name, (ok, detail) in available_backends().items():
        marker = " *" if name == default else ""
        out(f"{name:12s} {'yes' if ok else 'no':10s} {detail}{marker}")
    out(f"default: {default} "
        f"(override with --backend or $REPRO_BACKEND)")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "resources": _cmd_resources,
    "dft": _cmd_dft,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "report": _cmd_report,
    "perf": _cmd_perf,
    "validate-ops": _cmd_validate_ops,
    "serve": _cmd_serve,
    "llm-levels": _cmd_llm_levels,
    "capacity": _cmd_capacity,
    "backend": _cmd_backend,
}


def main(argv=None, out=print):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)
