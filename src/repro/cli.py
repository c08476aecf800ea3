"""Command-line interface for the Saiyan reproduction.

Five subcommands cover the workflows a user reaches for most often::

    python -m repro experiments [--only fig21 fig25] [--list] [--seed N]
                                [--parallel]
        Regenerate the paper's tables/figures and print the series + scalars
        (``--parallel`` fans the artefacts out over the execution fabric's
        warm worker pool; results are identical to a serial run).

    python -m repro network --scenario aloha-dense [--seed N] [--engine batch]
        Run a registered multi-tag network scenario on the scenario engine
        and (optionally) record its BatchRunner JSON manifest.  ``--grid``
        runs every registered scenario through the fabric pool instead.

    python -m repro waveform --sweep modes [--seed N] [--shards 4]
                             [--precision reference|fast]
        Run a registered waveform-level receiver ablation sweep on the
        sharded engine (bit-identical for any shard count under a fixed
        seed) and (optionally) record its BatchRunner JSON manifest.
        ``--precision fast`` opts into the tolerance-gated complex64 kernel.

    python -m repro power [--implementation asic|pcb] [--duty-cycle 0.01]
        Print the per-component power/cost ledger and the per-packet energy.

    python -m repro range [--environment outdoor|indoor] [--walls N] [--bits K]
        Print detection/demodulation ranges of Saiyan (all modes) and the
        baselines in a given environment.

    python -m repro store {stats,gc,clear} [--store-dir DIR]
        Inspect or manage the content-addressed result store that backs
        ``--store`` runs.

    python -m repro registry {list,show,gc-orphans,rebuild} [--store-dir DIR]
        Query or repair the machine-readable run registry — the JSONL
        index over the store (digest → kind/name/seed/fingerprints/env).

    python -m repro reproduce [--dry-run] [--only NAME...] [--store-dir DIR]
        Resolve every registered figure/table/scenario against the store,
        compute only the missing units, and assert the figure artefacts
        against the committed golden fixtures (non-zero exit on drift).
        ``--dry-run`` prints the plan without computing anything.

    python -m repro report [--output-dir DIR] [--smoke] [--store-dir DIR]
        Render every store-resident artefact, the paper-vs-reproduction
        claims, the benchmark gates and the serve/chaos stats into one
        self-contained markdown + HTML report, every number carrying store
        provenance, and write EXPERIMENTS.md next to it.  ``--smoke``
        exits non-zero when any rendered artefact lacks provenance fields.

Every subcommand accepts ``--seed`` and threads it into the engines, so two
CLI runs with the same seed print the same numbers end to end (``power`` and
``range`` are deterministic; the flag is accepted for interface uniformity).

The ``experiments``, ``network`` and ``waveform`` subcommands additionally
accept ``--store``/``--no-store`` (and ``--store-dir DIR``): with the store
enabled, every artefact / waveform grid cell / scenario run is looked up by
its content digest before compute and persisted after, so an unchanged
rerun prints byte-identical numbers while being served from the store (a
hit/miss summary goes to stderr; stdout stays byte-identical either way).

The same functionality is available programmatically through
:mod:`repro.sim.experiments`, :mod:`repro.sim.network_engine`,
:mod:`repro.sim.waveform_engine`, :mod:`repro.core.power_model` and
:mod:`repro.sim.link_sim`; the CLI only arranges and prints it.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

# Each handler imports the modules it needs, so ``repro --help`` loads no
# engine, NumPy or SciPy.  No default command loads SciPy at all: FIR design,
# FIR filtering and correlation are NumPy code (see ``repro.dsp.filters``).


def _shards_arg(value: str) -> int | str:
    """Parse ``--shards``: the literal ``auto`` or a positive integer."""
    if value == "auto":
        return "auto"
    try:
        shards = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {value!r}")
    if shards < 1:
        raise argparse.ArgumentTypeError(
            f"shard count must be >= 1, got {shards}")
    return shards


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Saiyan (NSDI'22) reproduction: regenerate experiments, "
                    "run network scenarios, power budgets and range tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    exp = subparsers.add_parser("experiments",
                                help="regenerate the paper's tables and figures")
    exp.add_argument("--only", nargs="*", default=None, metavar="ID",
                     help="artefact ids to run (e.g. fig21 tab2); default: all")
    exp.add_argument("--list", action="store_true",
                     help="list available artefact ids and exit")
    exp.add_argument("--parallel", action="store_true",
                     help="fan the artefacts out over the execution fabric's "
                          "warm worker pool (identical results: every driver "
                          "embeds its own seed)")

    net = subparsers.add_parser(
        "network", help="run a registered multi-tag network scenario")
    net.add_argument("--scenario", default=None, metavar="NAME",
                     help="scenario name (see --list)")
    net.add_argument("--list", action="store_true",
                     help="list registered scenarios and exit")
    net.add_argument("--grid", action="store_true",
                     help="run every registered scenario as one grid through "
                          "the execution fabric's worker pool")
    net.add_argument("--engine", choices=("batch", "event"), default="batch",
                     help="vectorized batch path or the event-driven "
                          "reference (bit-identical under a fixed seed)")
    net.add_argument("--windows", type=int, default=None,
                     help="override the scenario's number of windows")
    net.add_argument("--packets-per-window", type=int, default=None,
                     help="override the scenario's packets per window")
    net.add_argument("--manifest-dir", default=None, metavar="DIR",
                     help="write the run's BatchRunner JSON manifest here")

    wav = subparsers.add_parser(
        "waveform", help="run a registered waveform-level ablation sweep")
    wav.add_argument("--sweep", default=None, metavar="NAME",
                     help="sweep name (see --list)")
    wav.add_argument("--list", action="store_true",
                     help="list registered waveform sweeps and exit")
    wav.add_argument("--shards", type=_shards_arg, default="auto",
                     metavar="N|auto",
                     help="worker processes, or 'auto' for min(usable "
                          "cores, cells, 4) (default); any shard count is "
                          "bit-identical under a fixed seed")
    wav.add_argument("--engine", choices=("batch", "serial"), default="batch",
                     help="vectorized burst kernel or the serial reference "
                          "loop (bit-identical under a fixed seed)")
    wav.add_argument("--precision", choices=("reference", "fast"),
                     default="reference",
                     help="float64 bit-parity path (default) or the "
                          "tolerance-gated complex64 fast path (batch "
                          "engine only)")
    wav.add_argument("--num-symbols", type=int, default=None,
                     help="override the sweep's symbols per grid cell")
    wav.add_argument("--symbols-per-burst", type=int, default=None,
                     help="override the sweep's burst size")
    wav.add_argument("--manifest-dir", default=None, metavar="DIR",
                     help="write the run's BatchRunner JSON manifest here")

    power = subparsers.add_parser("power", help="print the tag power/cost budget")
    power.add_argument("--implementation", choices=("pcb", "asic"), default="asic")
    power.add_argument("--duty-cycle", type=float, default=0.01)
    power.add_argument("--payload-symbols", type=int, default=32)

    rng = subparsers.add_parser("range", help="print detection/demodulation ranges")
    rng.add_argument("--environment", choices=("outdoor", "indoor"), default="outdoor")
    rng.add_argument("--walls", type=int, default=1,
                     help="concrete walls for the indoor environment")
    rng.add_argument("--bits", type=int, default=2, help="bits per chirp (K)")
    rng.add_argument("--spreading-factor", type=int, default=7)
    rng.add_argument("--bandwidth-khz", type=float, default=500.0)

    serve = subparsers.add_parser(
        "serve", help="run or query the coalescing simulation job daemon")
    serve_actions = serve.add_subparsers(dest="action", required=True)
    serve_run = serve_actions.add_parser(
        "run", help="start the daemon (HTTP, single-flight coalescing, "
                    "persistent priority queue over the result store)")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=8642,
                           help="listen port (0 picks an ephemeral port)")
    serve_run.add_argument("--workers", type=int, default=2,
                           help="queue worker threads (each engine call fans "
                                "out over the shared process pool itself)")
    serve_run.add_argument("--store-dir", default=None, metavar="DIR",
                           help="result store backing the daemon (default: "
                                "$REPRO_STORE_DIR or ./.repro-store)")
    serve_run.add_argument("--max-queue-depth", type=int, default=None,
                           metavar="N",
                           help="admission control: reject submits beyond N "
                                "in-flight jobs with 503 + Retry-After "
                                "(default: unbounded)")
    serve_run.add_argument("--job-deadline", type=float, default=None,
                           metavar="SECONDS",
                           help="per-job wall-clock deadline; over-deadline "
                                "jobs are failed and their hung worker "
                                "replaced (default: none)")
    serve_submit = serve_actions.add_parser(
        "submit", help="submit one job to a running daemon and print the "
                       "result (byte-identical to the one-shot command)")
    serve_submit.add_argument("--url", required=True, metavar="URL",
                              help="daemon base URL, e.g. http://127.0.0.1:8642")
    serve_submit.add_argument("--kind", choices=("figure", "scenario", "waveform"),
                              default="figure")
    serve_submit.add_argument("--name", required=True, metavar="NAME",
                              help="artefact / scenario / sweep name")
    serve_submit.add_argument("--seed", type=int, default=None)
    serve_submit.add_argument("--engine", default=None,
                              help="scenario: batch|event; waveform: "
                                   "batch|serial (default batch)")
    serve_submit.add_argument("--precision", default=None,
                              choices=("reference", "fast"),
                              help="waveform jobs only")
    serve_submit.add_argument("--shards", default=None, metavar="N|auto",
                              help="waveform jobs only: force the shard "
                                   "count (scheduling hint; results and "
                                   "store keys are shard-invariant)")
    serve_submit.add_argument("--no-wait", action="store_true",
                              help="enqueue and print the job digest instead "
                                   "of waiting for the result")
    serve_submit.add_argument("--timeout", type=float, default=300.0)
    serve_status = serve_actions.add_parser(
        "status", help="print one job's status/provenance as JSON")
    serve_status.add_argument("--url", required=True, metavar="URL")
    serve_status.add_argument("digest", help="job digest from submit")
    serve_stats = serve_actions.add_parser(
        "stats", help="print daemon counters (coalescing ratio, queue, store)")
    serve_stats.add_argument("--url", required=True, metavar="URL")

    store = subparsers.add_parser(
        "store", help="inspect or manage the content-addressed result store")
    store.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: occupancy report; gc: prune to the entry "
                            "bound (LRU order); clear: drop every entry")
    store.add_argument("--store-dir", default=None, metavar="DIR",
                       help="store location (default: $REPRO_STORE_DIR or "
                            "./.repro-store)")
    store.add_argument("--max-entries", type=int, default=None,
                       help="entry bound for gc (default: the store's "
                            "built-in bound)")

    registry = subparsers.add_parser(
        "registry", help="query or repair the run registry over the store")
    registry.add_argument("action",
                          choices=("list", "show", "gc-orphans", "rebuild"),
                          help="list: print all rows; show: one row by digest "
                               "prefix; gc-orphans: drop rows whose entry is "
                               "gone; rebuild: re-index the store by scan")
    registry.add_argument("digest", nargs="?", default=None,
                          help="digest (prefix) for 'show'")
    registry.add_argument("--kind", default=None, metavar="KIND",
                          help="list: only rows of this kind (e.g. "
                               "figure-driver, scenario, waveform-cell)")
    registry.add_argument("--store-dir", default=None, metavar="DIR",
                          help="store location (default: $REPRO_STORE_DIR or "
                               "./.repro-store)")

    repr_cmd = subparsers.add_parser(
        "reproduce", help="resolve every registered artefact against the "
                          "store, compute the missing ones, verify goldens")
    repr_cmd.add_argument("--dry-run", action="store_true",
                          help="print the plan (store-hit vs compute per "
                               "unit) without computing or verifying anything")
    repr_cmd.add_argument("--only", nargs="*", default=None, metavar="NAME",
                          help="restrict to these artefact/scenario names")
    repr_cmd.add_argument("--golden-dir", default=None, metavar="DIR",
                          help="golden fixtures to verify against (default: "
                               "the committed tests/golden/)")
    repr_cmd.add_argument("--store-dir", default=None, metavar="DIR",
                          help="store location (default: $REPRO_STORE_DIR or "
                               "./.repro-store)")

    report = subparsers.add_parser(
        "report", help="render the store into one self-contained "
                       "markdown + HTML report with per-artefact provenance, "
                       "plus EXPERIMENTS.md")
    report.add_argument("--output-dir", default="report", metavar="DIR",
                        help="where report.md, report.html and EXPERIMENTS.md "
                             "are written (default: ./report)")
    report.add_argument("--bench", default=None, metavar="FILE",
                        help="benchmark record to include (default: the "
                             "committed BENCH_batch.json)")
    report.add_argument("--smoke", action="store_true",
                        help="CI gate: exit non-zero when any rendered "
                             "artefact lacks provenance fields")
    report.add_argument("--store-dir", default=None, metavar="DIR",
                        help="store location (default: $REPRO_STORE_DIR or "
                             "./.repro-store)")

    for sub in (exp, net, wav, power, rng):
        sub.add_argument("--seed", type=int, default=None,
                         help="seed threaded into the engines so repeated "
                              "runs print identical numbers")
    for sub in (exp, net, wav):
        sub.add_argument("--store", action=argparse.BooleanOptionalAction,
                         default=None,
                         help="serve results from / persist them to the "
                              "content-addressed result store (byte-identical "
                              "output; hit/miss summary on stderr; default: "
                              "off unless --store-dir is given)")
        sub.add_argument("--store-dir", default=None, metavar="DIR",
                         help="store location (default: $REPRO_STORE_DIR or "
                              "./.repro-store); implies --store")
    return parser


def _open_cli_store(args: argparse.Namespace):
    """The :class:`~repro.sim.store.ResultStore` of a ``--store`` run, or None.

    ``--store-dir`` alone enables the store (pointing at a store and then
    ignoring it would be a silent no-op); an explicit ``--no-store`` wins.
    """
    store = getattr(args, "store", None)
    if store is None:
        store = getattr(args, "store_dir", None) is not None
    if not store:
        return None
    from repro.sim.store import open_store

    return open_store(args.store_dir)


def _print_store_summary(store) -> None:
    """One hit/miss line on stderr (stdout stays byte-identical)."""
    if store is None:
        return
    stats = store.stats()
    print(f"store: {stats['hits']} hit(s), {stats['misses']} miss(es), "
          f"{stats['entries']} entries at {stats['root']}", file=sys.stderr)


def _run_experiments(args: argparse.Namespace) -> int:
    import inspect

    from repro.sim import experiments
    from repro.sim.reporting import format_sweep

    # Derived from the driver registry so the CLI cannot drift out of sync.
    available = sorted(experiments.FIGURE_DRIVERS)
    if args.list:
        print("available artefacts:", " ".join(available))
        return 0
    wanted = args.only if args.only else available
    unknown = [name for name in wanted if name not in available]
    if unknown:
        print(f"unknown artefact id(s): {', '.join(unknown)}", file=sys.stderr)
        print("available artefacts:", " ".join(available), file=sys.stderr)
        return 2
    if args.parallel and args.seed is not None:
        print("experiments: --parallel runs the registry drivers with "
              "their embedded seeds; --seed cannot be combined with it",
              file=sys.stderr)
        return 2
    store = _open_cli_store(args)
    if args.parallel or store is not None:
        from repro.sim.batch import BatchRunner

        report = BatchRunner(store=store).run(
            wanted, parallel=args.parallel,
            random_state=None if args.parallel else args.seed)
        for name in wanted:
            print(format_sweep(report.results[name]))
            print()
        _print_store_summary(store)
        return 0
    for name in wanted:
        driver = experiments.FIGURE_DRIVERS[name]
        kwargs = {}
        if args.seed is not None:
            # Deterministic drivers (e.g. the SAW response) take no seed.
            if "random_state" in inspect.signature(driver).parameters:
                kwargs["random_state"] = args.seed
        print(format_sweep(driver(**kwargs)))
        print()
    return 0


def _run_network(args: argparse.Namespace) -> int:
    from repro.sim.batch import BatchRunner
    from repro.sim.network_engine import make_scenario_driver
    from repro.sim.reporting import format_sweep
    from repro.sim.scenario import scenario_names, get_scenario

    if args.list:
        print("registered scenarios:")
        for name in scenario_names():
            print(f"  {name:<20} {get_scenario(name).description}")
        return 0
    if args.grid:
        if args.scenario is not None:
            print("network: --grid runs every registered scenario; it cannot "
                  "be combined with --scenario", file=sys.stderr)
            return 2
        unsupported = [flag for flag, value in
                       (("--windows", args.windows),
                        ("--packets-per-window", args.packets_per_window),
                        ("--manifest-dir", args.manifest_dir))
                       if value is not None]
        if unsupported:
            print("network: --grid runs the registered scenario specs as-is; "
                  f"{', '.join(unsupported)} only apply to single-scenario "
                  "runs", file=sys.stderr)
            return 2
        if args.seed is not None and args.seed < 0:
            print(f"network: --seed must be >= 0, got {args.seed}", file=sys.stderr)
            return 2
        from repro.sim.network_engine import run_scenario_grid

        store = _open_cli_store(args)
        results = run_scenario_grid(random_state=args.seed, engine=args.engine,
                                    store=store)
        for name, result in results.items():
            print(format_sweep(result.to_sweep_result()))
            print()
        _print_store_summary(store)
        return 0
    if args.scenario is None:
        print("network: --scenario NAME is required (or --list)", file=sys.stderr)
        return 2
    names = scenario_names()
    if args.scenario not in names:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        print("registered scenarios:", " ".join(names), file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"network: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    from repro.exceptions import ConfigurationError

    try:
        store = _open_cli_store(args)
        driver = make_scenario_driver(args.scenario, random_state=args.seed,
                                      engine=args.engine,
                                      num_windows=args.windows,
                                      packets_per_window=args.packets_per_window,
                                      store=store)
        runner = BatchRunner(drivers={args.scenario: driver},
                             manifest_dir=args.manifest_dir)
        report = runner.run()
    except ConfigurationError as error:
        print(f"network: {error}", file=sys.stderr)
        return 2
    print(format_sweep(report.results[args.scenario]))
    _print_store_summary(store)
    if args.manifest_dir is not None:
        print(f"\nwrote manifest {args.manifest_dir}/{args.scenario}.json")
    return 0


def _run_waveform(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.sim.batch import BatchRunner
    from repro.sim.reporting import format_sweep
    from repro.sim.waveform_engine import get_sweep, make_waveform_driver, sweep_names

    if args.list:
        print("registered waveform sweeps:")
        for name in sweep_names():
            print(f"  {name:<20} {get_sweep(name).description}")
        return 0
    if args.sweep is None:
        print("waveform: --sweep NAME is required (or --list)", file=sys.stderr)
        return 2
    names = sweep_names()
    if args.sweep not in names:
        print(f"unknown waveform sweep {args.sweep!r}", file=sys.stderr)
        print("registered sweeps:", " ".join(names), file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"waveform: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    try:
        store = _open_cli_store(args)
        driver = make_waveform_driver(args.sweep, random_state=args.seed,
                                      shards=args.shards, engine=args.engine,
                                      precision=args.precision,
                                      num_symbols=args.num_symbols,
                                      symbols_per_burst=args.symbols_per_burst,
                                      store=store)
        runner = BatchRunner(drivers={args.sweep: driver},
                             manifest_dir=args.manifest_dir)
        report = runner.run()
    except ConfigurationError as error:
        print(f"waveform: {error}", file=sys.stderr)
        return 2
    print(format_sweep(report.results[args.sweep]))
    _print_store_summary(store)
    if args.manifest_dir is not None:
        print(f"\nwrote manifest {args.manifest_dir}/{args.sweep}.json")
    return 0


def _run_power(args: argparse.Namespace) -> int:
    from repro.core.power_model import SaiyanPowerModel

    model = SaiyanPowerModel(duty_cycle=args.duty_cycle,
                             implementation=args.implementation)
    summary = model.summary()
    print(f"Saiyan {summary.implementation.upper()} power budget "
          f"(duty cycle {summary.duty_cycle:.1%})")
    print(summary.ledger.format_table())
    energy = model.energy_per_packet_uj(args.payload_symbols)
    print(f"\nenergy per {args.payload_symbols}-symbol downlink packet: {energy:.1f} µJ")
    print("saving vs commodity LoRa receiver: "
          f"{model.energy_saving_factor(args.payload_symbols):.0f}x")
    return 0


def _run_store(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError
    from repro.sim.store import open_store

    store = open_store(args.store_dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"result store at {stats['root']}")
        print(f"  entries      {stats['entries']}")
        print(f"  bytes        {stats['bytes']}")
        print(f"  max entries  {stats['max_entries']}")
        return 0
    if args.action == "gc":
        try:
            removed = store.gc(args.max_entries)
        except ConfigurationError as error:
            print(f"store: {error}", file=sys.stderr)
            return 2
        print(f"gc: removed {removed} entries, "
              f"{store.stats()['entries']} remain")
        return 0
    removed = store.clear()
    print(f"clear: removed {removed} entries")
    return 0


def _run_registry(args: argparse.Namespace) -> int:
    import json

    from repro.sim.store import open_store

    store = open_store(args.store_dir)
    registry = store.registry
    if args.action == "rebuild":
        count = registry.rebuild()
        print(f"rebuild: indexed {count} entries")
        return 0
    if args.action == "gc-orphans":
        removed = registry.gc_orphans()
        print(f"gc-orphans: removed {removed} stale row(s)")
        return 0
    if args.action == "show":
        if args.digest is None:
            print("registry: show requires a digest (prefix)", file=sys.stderr)
            return 2
        try:
            row = registry.lookup(args.digest)
        except ValueError as error:
            print(f"registry: {error}", file=sys.stderr)
            return 2
        if row is None:
            print(f"registry: no row matches {args.digest!r}", file=sys.stderr)
            return 1
        print(json.dumps(row, indent=2, sort_keys=True))
        return 0
    rows = registry.rows(kind=args.kind)
    for row in rows:
        seed = row.get("seed")
        print(f"{row['digest'][:12]}  {str(row.get('kind', '?')):<16}"
              f"{str(row.get('name', '?')):<30}"
              f"seed={'-' if seed is None else seed}")
    print(f"{len(rows)} row(s)", file=sys.stderr)
    return 0


def _run_reproduce(args: argparse.Namespace) -> int:
    from repro.report.reproduce import run_reproduce
    from repro.sim.store import open_store

    return run_reproduce(open_store(args.store_dir), only=args.only,
                         dry_run=args.dry_run, golden_dir=args.golden_dir)


def _run_report(args: argparse.Namespace) -> int:
    from repro.report.render import write_report
    from repro.sim.store import open_store

    summary = write_report(open_store(args.store_dir), args.output_dir,
                           bench_path=args.bench, smoke=args.smoke)
    print(f"report: {summary['artefacts']} artefacts "
          f"({summary['figures']} figures/tables, {summary['scenarios']} "
          f"scenarios), {len(summary['missing'])} missing, "
          f"{summary['registry_entries']} registry rows")
    for path in summary["paths"].values():
        print(f"  wrote {path}")
    if summary["missing_provenance"]:
        for problem in summary["missing_provenance"]:
            print(f"report: missing provenance — {problem}", file=sys.stderr)
        if args.smoke:
            return 1
    if args.smoke and summary["artefacts"] == 0:
        print("report: smoke found an empty store (no artefacts rendered)",
              file=sys.stderr)
        return 1
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _run_serve(args: argparse.Namespace) -> int:
    import json

    from repro.exceptions import ConfigurationError

    if args.action == "run":
        import signal

        from repro.serve.server import JobServer, serve_http
        from repro.sim.store import open_store

        job_server = JobServer(open_store(args.store_dir),
                               workers=args.workers,
                               max_queue_depth=args.max_queue_depth,
                               job_deadline_s=args.job_deadline)
        httpd = serve_http(job_server, host=args.host, port=args.port)
        host, port = httpd.server_address[:2]
        # SIGTERM, what ``kill`` and service managers send, takes the same
        # clean shutdown as Ctrl-C.
        previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
        try:
            # Inside the ``try``: a client that stops the daemon as soon as
            # it reads this line must reach the clean shutdown below.
            print(f"repro serve listening on http://{host}:{port} "
                  f"(store: {job_server.store.root}, workers: {args.workers})",
                  file=sys.stderr)
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            # serve_forever ran (or never started) in this thread, so it has
            # returned; server_close() alone wakes and ends the handler
            # threads.
            signal.signal(signal.SIGTERM, previous_sigterm)
            httpd.server_close()
            job_server.stop()
        return 0

    from urllib.error import URLError

    from repro.serve.client import ServeClient, ServeError

    try:
        client = ServeClient(args.url)
        if args.action == "status":
            print(json.dumps(client.status(args.digest), indent=2,
                             sort_keys=True))
            return 0
        if args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        # submit
        job = {"kind": args.kind, "name": args.name}
        if args.seed is not None:
            job["seed"] = args.seed
        if args.engine is not None:
            job["engine"] = args.engine
        if args.precision is not None:
            job["precision"] = args.precision
        if args.shards is not None:
            if args.shards == "auto":
                job["shards"] = "auto"
            else:
                try:
                    job["shards"] = int(args.shards)
                except ValueError:
                    raise ConfigurationError(
                        f"--shards must be an integer or 'auto', "
                        f"got {args.shards!r}") from None
        reply = client.submit(job, wait=not args.no_wait, timeout=args.timeout)
        if args.no_wait:
            print(f"{reply['digest']} {reply['status']}")
            return 0
        if reply.get("status") != "done":
            print(f"serve: job {reply.get('digest', '?')[:12]} "
                  f"{reply.get('status')}: {reply.get('error')}",
                  file=sys.stderr)
            return 1
        from repro.serve.jobs import decode_payload, parse_job
        from repro.sim.reporting import format_sweep

        result = decode_payload(parse_job(job), reply["result"])
        print(format_sweep(result))
        print()
        print(f"serve: {reply['digest'][:12]} provenance={reply['provenance']}",
              file=sys.stderr)
        return 0
    except ConfigurationError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except ServeError as error:
        if error.status == 0:
            # the client exhausted its retries without ever reaching the
            # daemon (connection refused/reset on every attempt)
            print(f"serve: cannot reach daemon at {args.url}: "
                  f"{error.payload.get('error', error)}", file=sys.stderr)
            return 2
        print(f"serve: {error}", file=sys.stderr)
        return 1
    except URLError as error:
        print(f"serve: cannot reach daemon at {args.url}: {error.reason}",
              file=sys.stderr)
        return 2


def _run_range(args: argparse.Namespace) -> int:
    from repro.channel.environment import indoor_environment, outdoor_environment
    from repro.channel.fading import NoFading
    from repro.core.config import SaiyanConfig, SaiyanMode
    from repro.lora.parameters import DownlinkParameters
    from repro.sim.link_sim import BaselineLinkModel, SaiyanLinkModel

    if args.environment == "outdoor":
        environment = outdoor_environment(fading=NoFading())
    else:
        environment = indoor_environment(num_walls=args.walls, fading=NoFading())
    link = environment.link_budget()
    downlink = DownlinkParameters(spreading_factor=args.spreading_factor,
                                  bandwidth_hz=args.bandwidth_khz * 1e3,
                                  bits_per_chirp=args.bits)
    print(f"environment: {environment.name}   downlink: {downlink.describe()}")
    print(f"{'receiver':<26}{'demod range (m)':>18}{'detect range (m)':>18}")
    for mode in (SaiyanMode.SUPER, SaiyanMode.FREQUENCY_SHIFT, SaiyanMode.VANILLA):
        model = SaiyanLinkModel(config=SaiyanConfig(downlink=downlink, mode=mode),
                                link=link)
        print(f"{'saiyan-' + mode.value:<26}{model.demodulation_range_m():>18.1f}"
              f"{model.detection_range_m():>18.1f}")
    for name in ("plora", "aloba", "envelope"):
        baseline = BaselineLinkModel(name, link)
        print(f"{name:<26}{'-':>18}{baseline.detection_range_m():>18.1f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the tests."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "network":
        return _run_network(args)
    if args.command == "waveform":
        return _run_waveform(args)
    if args.command == "power":
        return _run_power(args)
    if args.command == "range":
        return _run_range(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "registry":
        return _run_registry(args)
    if args.command == "reproduce":
        return _run_reproduce(args)
    if args.command == "report":
        return _run_report(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
