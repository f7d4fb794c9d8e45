"""Command-line interface for the Push Multicast simulator.

Main subcommands::

    python -m repro.cli run cachebw ordpush --cores 16 --scaled
    python -m repro.cli compare cachebw --configs baseline ordpush
    python -m repro.cli sweep cachebw --configs baseline ordpush \
        --seeds 3 --jobs 4
    python -m repro.cli experiment spec.yaml --jobs auto --progress
    python -m repro.cli cache stats
    python -m repro.cli list

``run`` executes one (workload, config) cell and prints the full result
record; ``compare`` sweeps configurations on one workload and prints a
normalized table; ``sweep`` fans a (config x seed) grid out over worker
processes through the on-disk result cache; ``experiment`` runs a
declarative YAML/JSON spec (grids of schemes x topologies x sizes x
seeds, optionally sampled) incrementally through the result store and
prints its error-bar report; ``cache`` inspects, garbage-collects, and
synchronizes the on-disk cache tree (``cache push --remote PATH`` /
``cache pull --remote PATH`` move entries and only the missing
content-addressed objects between two roots); ``list`` shows the
workload catalogue and the named configurations.

``run``/``compare``/``sweep`` accept ``--warmup-barriers N`` (and
``--warmup-mode functional``) to amortize cache warmup through the
warm-state checkpoint store; see :mod:`repro.sim.checkpoint`.
``run``/``sweep`` additionally accept ``--samples K`` (with
``--sample-cycles N`` and ``--ci-target F``) for sampled simulation:
K short measured regions forked across barrier phases, aggregated with
t-distribution confidence intervals (:mod:`repro.sim.sampling`).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from typing import Callable, List, Optional

from repro.common.errors import ConfigError
from repro.common.params import ENGINES, TOPOLOGIES
from repro.sim.config import CONFIG_NAMES, bench_kwargs, mesh_shape
from repro.sim.results import PUSH_CATEGORIES, SimResult
from repro.sim.runner import run_comparison, run_workload
from repro.sim.sweep import SweepPoint, derive_seed, run_sweep
from repro.workloads.registry import WORKLOADS, workload_names


def _hw_kwargs(args: argparse.Namespace) -> dict:
    kwargs = dict(bench_kwargs()) if args.scaled else {}
    if args.link_bits is not None:
        kwargs["link_bits"] = args.link_bits
    if args.tpc_threshold is not None:
        kwargs["tpc_threshold"] = args.tpc_threshold
    if args.time_window is not None:
        kwargs["time_window"] = args.time_window
    if getattr(args, "topology", None) is not None:
        kwargs["topology"] = args.topology
    if getattr(args, "shape", None) is not None:
        kwargs["shape"] = args.shape
    if getattr(args, "concentration", None) is not None:
        kwargs["concentration"] = args.concentration
    if getattr(args, "engine", None) is not None:
        kwargs["engine"] = args.engine
    return kwargs


def _print_result(result: SimResult) -> None:
    print(result.summary())
    print(f"  cycles            : {result.cycles}")
    print(f"  instructions      : {result.instructions}")
    print(f"  L2 MPKI           : {result.l2_mpki:.1f}")
    print(f"  L2 miss rate      : {result.l2_miss_rate:.1%}")
    print(f"  NoC flit-hops     : {result.total_flits}")
    print(f"  injection load    : {result.injection_load:.3f} "
          f"flits/cycle/node")
    print("  traffic breakdown :")
    for name, fraction in result.traffic_fractions().items():
        if fraction > 0:
            print(f"    {name:18s} {fraction:6.1%}")
    if result.pushes_triggered:
        print(f"  pushes triggered  : {result.pushes_triggered} "
              f"(mean degree {result.mean_push_degree:.1f})")
        print(f"  push accuracy     : {result.push_accuracy():.1%}")
        print(f"  requests filtered : {result.requests_filtered}")
        print("  push usage        :")
        for name in PUSH_CATEGORIES:
            print(f"    {name:24s} {result.push_usage[name]}")


def _with_profile(args: argparse.Namespace,
                  body: Callable[[], int]) -> int:
    """Run ``body``, optionally under ``cProfile`` (``--profile``).

    The raw ``pstats`` dump goes to the given path (loadable with
    ``pstats.Stats`` or snakeviz) and a top-25 cumulative-time summary
    is printed, so perf work is measured rather than guessed.
    """
    if not getattr(args, "profile", None):
        return body()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = body()
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(25)
        print(f"\nprofile dump written to {args.profile}; "
              f"top 25 by cumulative time:")
        print(stream.getvalue())
    return status


def _warmup_kwargs(args: argparse.Namespace) -> dict:
    """Checkpointed-warmup keywords (kept out of ``_hw_kwargs``)."""
    return {"warmup_barriers": args.warmup_barriers,
            "warmup_mode": args.warmup_mode}


def _sampling_policy(args: argparse.Namespace):
    """The :class:`SamplingPolicy` the flags describe (None = full run).

    ``--warmup-barriers`` doubles as the first region anchor (default
    barrier 1) and ``--warmup-mode`` as the warm-chain fidelity.
    """
    if not getattr(args, "samples", 0):
        return None
    from repro.sim.sampling import SamplingPolicy
    # an unset --sample-cycles keeps the policy's own default
    cycles = ({} if args.sample_cycles is None
              else {"sample_cycles": args.sample_cycles})
    return SamplingPolicy(samples=args.samples, **cycles,
                          detach_cycles=args.detach_cycles,
                          warmup_barriers=max(args.warmup_barriers, 1),
                          warmup_mode=args.warmup_mode,
                          ci_target=args.ci_target)


def _print_sampled(sampled) -> None:
    from repro.sim.statsdump import dump_sampled

    print(sampled.summary())
    print(dump_sampled(sampled), end="")


def _cmd_run(args: argparse.Namespace) -> int:
    def body() -> int:
        policy = _sampling_policy(args)
        if policy is not None:
            from repro.sim.sampling import run_sampled
            sampled = run_sampled(args.workload, args.config,
                                  num_cores=args.cores, seed=args.seed,
                                  policy=policy, cache=True,
                                  **_hw_kwargs(args))
            _print_sampled(sampled)
            return 0
        result = run_workload(args.workload, args.config,
                              num_cores=args.cores, seed=args.seed,
                              **_warmup_kwargs(args),
                              **_hw_kwargs(args))
        _print_result(result)
        return 0

    return _with_profile(args, body)


def _cmd_compare(args: argparse.Namespace) -> int:
    results = run_comparison(args.workload, args.configs,
                             num_cores=args.cores, seed=args.seed,
                             jobs=1, cache=False, **_warmup_kwargs(args),
                             **_hw_kwargs(args))
    baseline = results[args.configs[0]]
    print(f"{args.workload} on {args.cores} cores "
          f"(reference: {args.configs[0]})")
    print(f"{'config':18s}{'speedup':>9s}{'traffic':>9s}{'mpki':>8s}"
          f"{'push acc':>10s}")
    for config in args.configs:
        result = results[config]
        print(f"{config:18s}{result.speedup_over(baseline):8.2f}x"
              f"{result.traffic_vs(baseline):9.2f}"
              f"{result.l2_mpki:8.1f}"
              f"{result.push_accuracy():9.1%}")
    return 0


def _jobs_arg(value: str) -> int:
    """``--jobs`` parser: a worker count, or ``auto`` (= 0) for one
    worker per CPU core."""
    if value.strip().lower() == "auto":
        return 0
    try:
        jobs = int(value)
    except ValueError:
        jobs = -1
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"expected a count >= 0 or 'auto', got {value!r}")
    return jobs


def _seeds_arg(value: str) -> int:
    """``--seeds`` parser: a count >= 1."""
    try:
        seeds = int(value)
    except ValueError:
        seeds = 0
    if seeds < 1:
        raise argparse.ArgumentTypeError(
            f"expected a count >= 1, got {value!r}")
    return seeds


def _check_sampling_flags(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Reject warmup and sampling flags that cannot run as given.

    A negative ``--warmup-barriers`` would silently run cold; sampling
    flags given without ``--samples`` would be silently ignored by a
    full run; and with ``--samples`` the flags must make a valid
    :class:`SamplingPolicy`, whose own checks are the only validator.
    """
    if getattr(args, "warmup_barriers", 0) < 0:
        parser.error(f"--warmup-barriers must be >= 0, "
                     f"got {args.warmup_barriers}")
    samples = getattr(args, "samples", None)
    if samples:
        try:
            _sampling_policy(args)
        except ValueError as exc:
            parser.error(str(exc))
    elif samples == 0:
        for flag, value, default in (
                ("--sample-cycles", args.sample_cycles, None),
                ("--detach-cycles", args.detach_cycles, 0),
                ("--ci-target", args.ci_target, 0.0)):
            if value != default:
                parser.error(f"{flag} needs --samples K (K >= 1)")


def _progress_printer():
    """One line per completed point for ``sweep --progress``."""
    def emit(event: dict) -> None:
        wall = "      hit" if event["wall"] is None \
            else f"{event['wall']:8.2f}s"
        eta = "" if event["eta"] is None \
            else f"  eta {event['eta']:6.1f}s"
        print(f"[{event['done']:3d}/{event['total']:3d}] "
              f"{event['label']:<34s} {wall}{eta}", flush=True)
    return emit


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _with_profile(args, lambda: _run_sweep_cmd(args))


def _run_sweep_cmd(args: argparse.Namespace) -> int:
    kwargs = _hw_kwargs(args)
    kwargs.pop("topology", None)  # the sweep axis below wins
    topologies = args.topologies or [args.topology or "mesh"]
    seeds = [derive_seed(args.seed, index) for index in range(args.seeds)
             ] if args.seeds > 1 else [args.seed]
    policy = _sampling_policy(args)
    warmup = {} if policy is not None else _warmup_kwargs(args)
    points = [SweepPoint.make(args.workload, config, num_cores=args.cores,
                              seed=seed, topology=topology,
                              **warmup, **kwargs)
              for topology in topologies
              for config in args.configs for seed in seeds]
    progress = _progress_printer() if args.progress else None
    if policy is not None:
        from repro.report import error_bar_table
        from repro.sim.sampling import run_sampled_grid
        sampled = run_sampled_grid(points, policy, jobs=args.jobs,
                                   cache=not args.no_cache,
                                   progress=progress)
        print(error_bar_table(
            sampled, title=f"{args.workload} on {args.cores} cores "
                           f"(sampled, {policy.samples} regions max)"))
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump([s.to_dict() for s in sampled], handle,
                          indent=2, sort_keys=True)
            print(f"wrote {len(sampled)} sampled records to {args.out}")
        return 0
    results = run_sweep(points, jobs=args.jobs,
                        cache=not args.no_cache, progress=progress)
    jobs_label = "auto" if args.jobs == 0 else args.jobs
    print(f"{args.workload} on {args.cores} cores: "
          f"{len(points)} points, jobs={jobs_label}, "
          f"cache={'off' if args.no_cache else 'on'}")
    print(f"{'topology':9s}{'config':18s}{'seed':>12s}{'cycles':>10s}"
          f"{'mpki':>8s}{'flits':>10s}{'push acc':>10s}")
    for point, result in zip(points, results):
        topology = dict(point.kwargs).get("topology", "mesh")
        print(f"{topology:9s}{point.config:18s}{point.seed:12d}"
              f"{result.cycles:10d}"
              f"{result.l2_mpki:8.1f}{result.total_flits:10d}"
              f"{result.push_accuracy():9.1%}")
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump([result.to_dict() for result in results], handle,
                      indent=2, sort_keys=True)
        print(f"wrote {len(results)} result records to {args.out}")
    return 0


def _cmd_topo(args: argparse.Namespace) -> int:
    """Inspect a fabric: node/port/link summary and average hop count."""
    from repro.common.params import NoCParams
    from repro.noc.topology import build_topology

    rows, cols = mesh_shape(args.cores, args.shape)
    noc_kwargs = dict(rows=rows, cols=cols, topology=args.topology)
    if args.concentration is not None:
        noc_kwargs["concentration"] = args.concentration
    topology = build_topology(NoCParams(**noc_kwargs))

    directed_links = list(topology.links())
    dateline_links = sum(
        1 for router, port, _, _ in directed_links
        if topology.dateline_mask(router) & (1 << port))
    ports_per_router = [len(topology.router_ports(r))
                        for r in range(topology.num_routers)]
    sample_ports = ", ".join(
        topology.port_name(p) for p in topology.router_ports(0))

    print(f"topology          : {topology.kind} ({topology!r})")
    print(f"tiles             : {topology.num_tiles} "
          f"(grid {rows}x{cols})")
    print(f"routers           : {topology.num_routers} "
          f"(radix {topology.radix}, "
          f"{min(ports_per_router)}-{max(ports_per_router)} ports each)")
    print(f"router 0 ports    : {sample_ports}")
    print(f"links             : {len(directed_links)} directed "
          f"({len(directed_links) // 2} bidirectional)")
    print(f"dateline links    : {dateline_links} "
          f"({topology.num_vc_classes} VC class"
          f"{'es' if topology.num_vc_classes > 1 else ''} per vnet)")
    print(f"memory controllers: "
          f"{', '.join(map(str, topology.memory_controller_tiles()))}")
    print(f"average hop count : {topology.average_hop_distance():.3f}")
    return 0


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return (f"{value:.1f} {unit}" if unit != "B"
                    else f"{int(value)} {unit}")
        value /= 1024.0
    return f"{int(size)} B"


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store import Store, cache_root, pull, push

    root = cache_root(args.dir)
    if args.cache_command == "stats":
        stats = Store(root).stats()
        print(f"cache root: {root}")
        print(f"{'section':14s}{'entries':>9s}{'bytes':>14s}")
        for section, row in stats.items():
            print(f"{section:14s}{row['entries']:9d}"
                  f"{_format_bytes(row['bytes']):>14s}")
        return 0
    if args.cache_command == "gc":
        report = Store(root).gc(args.max_bytes)
        print(f"cache root: {root}")
        print(f"removed {report['removed']} entries "
              f"({_format_bytes(report['removed_bytes'])}); "
              f"{_format_bytes(report['remaining_bytes'])} remain")
        return 0
    # push / pull: index diff + missing-object transfer between roots
    sync = push if args.cache_command == "push" else pull
    try:
        report = sync(Store(root), args.remote)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    arrow = "->" if args.cache_command == "push" else "<-"
    print(f"cache root: {root} {arrow} {args.remote}")
    print(f"{'section':14s}{'entries':>9s}{'objects':>9s}{'bytes':>14s}")
    for section, row in report.items():
        print(f"{section:14s}{row['entries']:9d}{row['objects']:9d}"
              f"{_format_bytes(row['bytes']):>14s}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiment import run_experiment

    progress = _progress_printer() if args.progress else None

    def body() -> int:
        try:
            outcome = run_experiment(args.spec, jobs=args.jobs,
                                     cache=not args.no_cache,
                                     progress=progress)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(outcome.render())
        if args.out is not None:
            outcome.save_report(args.out)
            print(f"wrote report to {args.out}")
        if args.results_out is not None:
            with open(args.results_out, "w", encoding="utf-8") as handle:
                json.dump([r.to_dict() for r in outcome.results], handle,
                          indent=2, sort_keys=True)
            print(f"wrote {len(outcome.results)} records to "
                  f"{args.results_out}")
        return 0

    return _with_profile(args, body)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads (Table II):")
    for name in workload_names():
        definition = WORKLOADS[name]
        print(f"  {name:16s} {definition.description} "
              f"[sharing={definition.sharing}, load={definition.load}]")
    print("\nconfigurations:")
    for name in CONFIG_NAMES:
        print(f"  {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Push Multicast simulator CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cores", type=int, default=16)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--scaled", action="store_true",
                       help="use the 8x-scaled bench cache profile")
        p.add_argument("--link-bits", type=int, default=None,
                       choices=(64, 128, 256, 512))
        p.add_argument("--tpc-threshold", type=int, default=None)
        p.add_argument("--time-window", type=int, default=None)
        p.add_argument("--topology", default=None, choices=TOPOLOGIES,
                       help="interconnect fabric (default mesh)")
        p.add_argument("--shape", default=None, metavar="RxC",
                       help="explicit tile grid, e.g. 4x8 "
                            "(default: squarest factorization)")
        p.add_argument("--concentration", type=int, default=None,
                       help="tiles per router for --topology cmesh "
                            "(default 4)")
        p.add_argument("--engine", default=None, choices=ENGINES,
                       help="NoC backend: the event-driven reference "
                            "or the vectorized array engine for large "
                            "fabrics (default event)")
        p.add_argument("--warmup-barriers", type=int, default=0,
                       metavar="N",
                       help="checkpointed warmup: build (or reuse) a "
                            "warm-state snapshot at the Nth barrier "
                            "crossing and measure only the region "
                            "after it (default 0 = cold start)")
        p.add_argument("--warmup-mode", default="detailed",
                       choices=("detailed", "functional"),
                       help="how the warm phase executes: the detailed "
                            "NoC, or the fast fixed-latency functional "
                            "stand-in (shared across topology knobs)")

    def sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--samples", type=int, default=0, metavar="K",
                       help="sampled simulation: fork K short measured "
                            "regions across barrier phases instead of "
                            "one long region, and report t-distribution "
                            "confidence intervals (default 0 = off; "
                            "--warmup-barriers sets the first region's "
                            "anchor, default barrier 1)")
        p.add_argument("--sample-cycles", type=int, default=None,
                       metavar="N",
                       help="measured cycles per region (default 2000)")
        p.add_argument("--detach-cycles", type=int, default=0,
                       metavar="D",
                       help="detailed-warming cycles between each "
                            "region's restore and its measurement "
                            "(SMARTS-style detach; reduces the "
                            "post-quiesce startup bias, default 0)")
        p.add_argument("--ci-target", type=float, default=0.0,
                       metavar="F",
                       help="early stop: dispatch regions in waves and "
                            "stop once the headline stat's relative CI "
                            "half-width is <= F (default 0 = run all "
                            "K regions)")

    def profiled(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--profile", nargs="?", const="repro_profile.pstats",
            default=None, metavar="PSTATS",
            help="wrap the simulation in cProfile; write the pstats "
                 "dump here (default repro_profile.pstats) and print a "
                 "top-25 cumulative summary.  With sweep --jobs > 1 "
                 "only the parent process is profiled.")

    run_p = sub.add_parser("run", help="run one workload/config cell")
    run_p.add_argument("workload", choices=workload_names())
    run_p.add_argument("config", choices=list(CONFIG_NAMES))
    common(run_p)
    sampling(run_p)
    profiled(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="sweep configs on a workload")
    cmp_p.add_argument("workload", choices=workload_names())
    cmp_p.add_argument("--configs", nargs="+",
                       default=["baseline", "coalesce", "pushack",
                                "ordpush"],
                       choices=list(CONFIG_NAMES))
    common(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser(
        "sweep", help="fan a config x seed grid out over processes")
    sweep_p.add_argument("workload", choices=workload_names())
    sweep_p.add_argument("--configs", nargs="+",
                         default=["baseline", "ordpush"],
                         choices=list(CONFIG_NAMES))
    sweep_p.add_argument("--seeds", type=_seeds_arg, default=1,
                         help="number of derived seeds per config")
    sweep_p.add_argument("--jobs", type=_jobs_arg, default=1,
                         metavar="N|auto",
                         help="worker processes: a count, or 'auto' "
                              "(same as 0) for one per CPU core; the "
                              "executor never runs more workers than "
                              "cores or pending points, and a single "
                              "effective worker runs in-process")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="bypass the on-disk result cache")
    sweep_p.add_argument("--progress", action="store_true",
                         help="print one line per completed point: "
                              "cache hit or wall seconds, plus a "
                              "remaining-work ETA from the mean wall "
                              "of the points run so far")
    sweep_p.add_argument("--out", default=None,
                         help="write result records to this JSON file")
    sweep_p.add_argument("--topologies", nargs="+", default=None,
                         choices=TOPOLOGIES,
                         help="sweep axis: run every point on each of "
                              "these fabrics (overrides --topology)")
    common(sweep_p)
    sampling(sweep_p)
    profiled(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    exp_p = sub.add_parser(
        "experiment", help="run a declarative YAML/JSON experiment spec")
    exp_p.add_argument("spec", help="path to the experiment spec file")
    exp_p.add_argument("--jobs", type=_jobs_arg, default=1,
                       metavar="N|auto",
                       help="worker processes (same policy as sweep)")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache (the "
                            "experiment loses resumability)")
    exp_p.add_argument("--progress", action="store_true",
                       help="print one line per completed point")
    exp_p.add_argument("--out", default=None, metavar="REPORT",
                       help="also write the rendered report here")
    exp_p.add_argument("--results-out", default=None, metavar="JSON",
                       help="write raw result records to this JSON file")
    profiled(exp_p)
    exp_p.set_defaults(func=_cmd_experiment)

    topo_p = sub.add_parser(
        "topo", help="inspect a topology's node/port/link structure")
    topo_p.add_argument("topology", choices=TOPOLOGIES)
    topo_p.add_argument("--cores", type=int, default=16)
    topo_p.add_argument("--shape", default=None, metavar="RxC",
                        help="explicit tile grid, e.g. 4x8")
    topo_p.add_argument("--concentration", type=int, default=None,
                        help="tiles per router for cmesh (default 4)")
    topo_p.set_defaults(func=_cmd_topo)

    cache_p = sub.add_parser(
        "cache", help="inspect or garbage-collect the on-disk cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser(
        "stats", help="per-section entry counts and bytes")
    stats_p.add_argument("--dir", default=None,
                         help="cache root (default REPRO_CACHE_DIR or "
                              ".repro_cache)")
    stats_p.set_defaults(func=_cmd_cache)
    gc_p = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries until the tree "
                   "fits under --max-bytes")
    gc_p.add_argument("--max-bytes", type=int, required=True,
                      help="target size for the whole cache tree")
    gc_p.add_argument("--dir", default=None,
                      help="cache root (default REPRO_CACHE_DIR or "
                           ".repro_cache)")
    gc_p.set_defaults(func=_cmd_cache)
    for verb, blurb in (("push", "copy local entries and missing "
                                 "objects to a remote store"),
                        ("pull", "fetch a remote store's entries and "
                                 "missing objects")):
        sync_p = cache_sub.add_parser(
            verb, help=f"{blurb} (only objects the other side lacks "
                       "are transferred)")
        sync_p.add_argument("--remote", required=True, metavar="PATH",
                            help="remote store root: a path, or a "
                                 "file:// URL")
        sync_p.add_argument("--dir", default=None,
                            help="local cache root (default "
                                 "REPRO_CACHE_DIR or .repro_cache)")
        sync_p.set_defaults(func=_cmd_cache)

    list_p = sub.add_parser("list", help="show workloads and configs")
    list_p.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_sampling_flags(parser, args)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
