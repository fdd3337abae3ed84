"""``repro-campaign``: run, archive, and compare scenario campaigns.

Examples::

    repro-campaign --list
    repro-campaign run tiny-smoke --seeds 0,1,2,3 --workers 4
    repro-campaign run paper-baseline --months 1 --store results.jsonl
    repro-campaign run paper-baseline --store results.jsonl --resume
    repro-campaign report results.jsonl
    repro-campaign compare results.jsonl --baseline paper-baseline
    repro-campaign fsck results.jsonl --repair
    repro-campaign run paper-baseline --cell-timeout 900 --cell-attempts 3
    repro-campaign scoreboard elastic-burst --seeds 0,1,2
    repro-campaign run tiny-smoke --strategy common-pool
    repro-campaign trace record tiny-smoke --out trace.jsonl --months 0.2
    repro-campaign trace inspect trace.jsonl
    repro-campaign trace convert archive.swf trace.jsonl
    repro-campaign run tiny-smoke --trace trace.jsonl --seeds 0,1

``run --store`` appends every finished cell to a JSONL
:class:`~repro.core.store.CampaignStore`; ``--resume`` then skips cells the
store already holds, so an interrupted sweep re-pays only what is missing.
``report`` and ``compare`` work entirely from the store — no preset code
needed to audit archived results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Optional, Sequence

from . import scenarios
from .analysis.compare import (
    compare_runs,
    format_comparison,
    format_scoreboard,
    scoreboard,
)
from .core.batch import (
    CampaignRun,
    aggregate_runs,
    run_campaigns,
    summarize_runs,
)
from .core.store import CampaignStore
from .oar.traces import TraceReplayConfig
from .scheduling.policies import get_strategy, strategy_names

__all__ = ["main"]


def _parse_seeds(text: str) -> list[int]:
    """Comma-separated seed list: '0,1,2' -> [0, 1, 2]."""
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be a comma-separated integer list, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed list")
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Run closed-loop testbed campaigns from named scenario "
                    "presets; archive, resume, and compare the results.",
    )
    parser.add_argument("--list", action="store_true", dest="list_presets",
                        help="list available presets and exit")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a seed x scenario matrix")
    run_p.add_argument("scenario", nargs="*", default=["tiny-smoke"],
                       help="preset name(s); default: tiny-smoke")
    run_p.add_argument("--seeds", type=_parse_seeds, default=[0],
                       metavar="a,b,c",
                       help="comma-separated seed list (default: 0)")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: min(jobs, cpus))")
    run_p.add_argument("--months", type=float, default=None,
                       help="override every scenario's horizon")
    run_p.add_argument("--store", default=None, metavar="PATH",
                       help="archive each finished cell to this JSONL store")
    run_p.add_argument("--resume", action="store_true",
                       help="skip cells the store already holds "
                            "(requires --store)")
    run_p.add_argument("--json", action="store_true",
                       help="emit the full reports as JSON on stdout")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="replace every scenario's workload with a "
                            "replay of this trace file (or builtin name)")
    run_p.add_argument("--time-scale", type=float, default=1.0,
                       help="with --trace: multiply submission timestamps "
                            "(0.5 = twice the arrival rate)")
    run_p.add_argument("--load-scale", type=float, default=1.0,
                       help="with --trace: thin (<1) or duplicate (>1) "
                            "the replayed jobs deterministically")
    run_p.add_argument("--strategy", default=None, metavar="NAME",
                       help="override every scenario's scheduling strategy "
                            f"(known: {', '.join(strategy_names())})")
    run_p.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="quarantine any cell still running this long "
                            "after it started (wall clock) and replace its "
                            "worker")
    run_p.add_argument("--cell-attempts", type=int, default=1,
                       metavar="N",
                       help="run a failing cell up to N times with "
                            "backoff; with N > 1 a cell that fails every "
                            "attempt is quarantined (default: 1)")

    sb_p = sub.add_parser(
        "scoreboard",
        help="A/B-rank scheduling strategies on one scenario")
    sb_p.add_argument("scenario", nargs="?", default="elastic-burst",
                      help="preset to hold fixed while strategies vary "
                           "(default: elastic-burst)")
    sb_p.add_argument("--strategies", metavar="a,b,c",
                      default="easy-backfill,common-pool,steal-agreement",
                      help="comma-separated strategy names to race "
                           f"(known: {', '.join(strategy_names())})")
    sb_p.add_argument("--seeds", type=_parse_seeds, default=[0],
                      metavar="a,b,c",
                      help="comma-separated seed list (default: 0; use "
                           "several for 95%% confidence intervals)")
    sb_p.add_argument("--months", type=float, default=None,
                      help="override the scenario's horizon")
    sb_p.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: min(jobs, cpus))")
    sb_p.add_argument("--store", default=None, metavar="PATH",
                      help="archive each finished cell to this JSONL store")
    sb_p.add_argument("--resume", action="store_true",
                      help="skip cells the store already holds "
                           "(requires --store)")
    sb_p.add_argument("--metric", default="turnaround_mean_s",
                      help="ranking metric (default: turnaround_mean_s)")
    sb_p.add_argument("--higher-better", action="store_true",
                      help="rank descending (e.g. for node_utilization)")
    sb_p.add_argument("--json", action="store_true",
                      help="emit the ranked rows as JSON on stdout")
    sb_p.add_argument("--quiet", action="store_true",
                      help="suppress per-cell progress lines")

    trace_p = sub.add_parser("trace",
                             help="inspect, convert, and record workload "
                                  "traces")
    trace_sub = trace_p.add_subparsers(dest="trace_cmd")
    ins_p = trace_sub.add_parser("inspect",
                                 help="summarize a trace file")
    ins_p.add_argument("trace", help="trace file (SWF or JSONL) or builtin "
                                     "trace name")
    ins_p.add_argument("--json", action="store_true",
                       help="emit the stats as JSON on stdout")
    conv_p = trace_sub.add_parser(
        "convert", help="convert between SWF and the JSONL native format")
    conv_p.add_argument("src", help="source trace (format by extension)")
    conv_p.add_argument("dst", help="destination file (.swf writes SWF, "
                                    "anything else JSONL)")
    rec_p = trace_sub.add_parser(
        "record", help="run a scenario and export its workload as a trace")
    rec_p.add_argument("scenario", help="preset name to record")
    rec_p.add_argument("--out", required=True, metavar="PATH",
                       help="trace file to write (JSONL)")
    rec_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    rec_p.add_argument("--months", type=float, default=None,
                       help="override the scenario's horizon")

    report_p = sub.add_parser("report",
                              help="summarize an archived store")
    report_p.add_argument("store", help="path to a campaign store (JSONL)")
    report_p.add_argument("--json", action="store_true",
                          help="emit the stored reports as JSON on stdout")

    cmp_p = sub.add_parser("compare",
                           help="per-metric deltas of every scenario in a "
                                "store against a baseline scenario")
    cmp_p.add_argument("store", help="path to a campaign store (JSONL)")
    cmp_p.add_argument("--baseline", required=True,
                       help="scenario name to measure the others against")
    cmp_p.add_argument("--significant", action="store_true",
                       help="only show metrics resolved at 95%% confidence")

    fsck_p = sub.add_parser(
        "fsck", help="audit a campaign store's record integrity")
    fsck_p.add_argument("store", help="path to a campaign store (JSONL)")
    fsck_p.add_argument("--repair", action="store_true",
                        help="atomically rewrite the store keeping only "
                             "verifiable records (migrates pre-checksum "
                             "records, which a plain load counts damaged)")
    fsck_p.add_argument("--json", action="store_true",
                        help="emit the audit counters as JSON on stdout")

    serve_p = sub.add_parser(
        "serve", help="serve the simulator over the wire protocol")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7230,
                         help="TCP port (0 picks an ephemeral one)")
    serve_p.add_argument("--store", default=None, metavar="PATH",
                         help="JSONL campaign store shared by all clients "
                              "(default: in-memory, lost on exit)")

    client_p = sub.add_parser(
        "client", help="run a scenario remotely with the reference client")
    client_p.add_argument("scenario", help="preset name to run")
    client_p.add_argument("--host", default="127.0.0.1")
    client_p.add_argument("--port", type=int, default=7230)
    client_p.add_argument("--seed", type=int, default=0)
    client_p.add_argument("--months", type=float, default=None,
                          help="override the scenario's horizon")
    client_p.add_argument("--json", action="store_true",
                          help="emit the full report as JSON on stdout "
                               "(default: the summary + sha256)")
    return parser


def _runs_json(runs: Sequence[CampaignRun]) -> str:
    docs = [{"scenario": r.scenario, "seed": r.seed,
             "spec_hash": r.spec_hash, "error": r.error,
             "report": r.report.to_dict() if r.report is not None else None}
            for r in runs]
    return json.dumps(docs, sort_keys=True, indent=2)


def _run_matrix(args: argparse.Namespace, specs: list,
                **supervision: Any) -> Optional[list[CampaignRun]]:
    """``specs`` x ``args.seeds`` through :func:`run_campaigns`, with the
    store, resume and progress handling ``run`` and ``scoreboard`` share.

    Returns None after printing the error when the store cannot be loaded
    or a spec is rejected (exit code 2).
    """
    store = None
    if args.store:
        if os.path.exists(args.store):
            store = _load_store(args.store)  # surface corrupt stores up front
            if store is None:
                return None
        else:
            store = args.store  # fresh store: run_campaigns creates it
    total = len(specs) * len(args.seeds)
    done = [0]
    # Host-side progress timing: printed to stderr, never in a report.
    t0 = time.perf_counter()  # detlint: disable=DET002 — wall-clock UX only

    def progress(run: CampaignRun, cached: bool) -> None:
        done[0] += 1
        if args.quiet or args.json:
            return
        status = "cached" if cached else "ok" if run.ok else "FAILED"
        print(f"[{done[0]}/{total}] {run.scenario} @ seed {run.seed}: "
              f"{status} ({time.perf_counter() - t0:.1f}s)",  # detlint: disable=DET002
              file=sys.stderr)

    try:
        return run_campaigns(specs, seeds=args.seeds, workers=args.workers,
                             months=args.months, store=store,
                             resume=args.resume, on_cell=progress,
                             **supervision)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    specs: list = list(args.scenario)
    if args.trace is None:
        if args.time_scale != 1.0 or args.load_scale != 1.0:
            print("error: --time-scale/--load-scale require --trace",
                  file=sys.stderr)
            return 2
    else:
        try:
            replay = TraceReplayConfig(path=args.trace,
                                       time_scale=args.time_scale,
                                       load_scale=args.load_scale)
            specs = [scenarios.get(name).derive(name=f"{name}@trace",
                                                workload=replay)
                     for name in specs]
        except (KeyError, ValueError) as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.strategy is not None:
        try:
            get_strategy(args.strategy)  # fail fast on typos
            specs = [(s if not isinstance(s, str) else scenarios.get(s))
                     .derive(strategy=args.strategy) for s in specs]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    runs = _run_matrix(args, specs, cell_timeout_s=args.cell_timeout,
                       max_cell_attempts=args.cell_attempts)
    if runs is None:
        return 2
    if args.json:
        print(_runs_json(runs))
        return 0 if all(r.ok for r in runs) else 1
    for run in runs:
        if run.ok:
            print(run.report.summary())
        else:
            print(f"campaign {run.scenario} @ seed {run.seed} FAILED: "
                  f"{run.error_summary}")
        print()
    if len(runs) > 1:
        print("aggregate (mean ± 95% CI across seeds):")
        print(summarize_runs(runs))
    return 0 if all(r.ok for r in runs) else 1


def _load_store(path: str) -> Optional[CampaignStore]:
    if not os.path.exists(path):
        print(f"error: cannot load store {path!r}: no such file",
              file=sys.stderr)
        return None
    try:
        return CampaignStore(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load store {path!r}: {exc}", file=sys.stderr)
        return None


def _cmd_report(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    if store is None:
        return 2
    runs = store.runs()
    if not runs:
        print("store is empty", file=sys.stderr)
        return 1
    if args.json:
        # raw names: machine consumers join on (scenario, spec_hash),
        # which must not shift when later appends add name variants
        print(_runs_json(store.runs(disambiguate=False)))
        return 0
    ok = [r for r in runs if r.ok]
    print(f"{args.store}: {len(runs)} cells "
          f"({len(ok)} ok, {len(runs) - len(ok)} failed), "
          f"{len(store.scenarios())} scenarios\n")
    try:
        print(summarize_runs(runs))
    except ValueError as exc:
        # store.runs() disambiguates name collisions, so this is a true
        # data inconsistency — report it without a traceback
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    store = _load_store(args.store)
    if store is None:
        return 2
    runs = [r for r in store.runs() if r.ok]
    try:
        deltas = compare_runs(runs, baseline=args.baseline)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if not deltas:
        print(f"store only holds the baseline scenario {args.baseline!r}; "
              "nothing to compare", file=sys.stderr)
        return 1
    print(format_comparison(deltas, baseline=args.baseline,
                            only_significant=args.significant))
    return 0


def _cmd_scoreboard(args: argparse.Namespace) -> int:
    """Race N scheduling strategies on one scenario and rank them."""
    if args.resume and not args.store:
        print("error: --resume requires --store", file=sys.stderr)
        return 2
    names = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not names:
        print("error: empty --strategies list", file=sys.stderr)
        return 2
    try:
        for name in names:
            get_strategy(name)  # fail fast on typos
        base = scenarios.get(args.scenario)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    # One variant per strategy; the +suffix keys the aggregate and store.
    specs = [base.derive(name=f"{base.name}+{name}", strategy=name)
             for name in names]
    runs = _run_matrix(args, specs)
    if runs is None:
        return 2
    failed = [r for r in runs if not r.ok]
    for run in failed:
        print(f"campaign {run.scenario} @ seed {run.seed} FAILED: "
              f"{run.error_summary}", file=sys.stderr)
    ok = [r for r in runs if r.ok]
    if not ok:
        return 1
    try:
        rows = scoreboard(aggregate_runs(ok), metric=args.metric,
                          ascending=not args.higher_better)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        docs = [{"rank": r.rank, "name": r.name,
                 "metric": args.metric,
                 "mean": r.summary.mean, "ci95": r.summary.ci95,
                 "n": r.summary.n,
                 "delta_vs_leader": r.delta_vs_leader,
                 "significant_vs_leader": r.significant_vs_leader,
                 "extras": {m: {"mean": s.mean, "ci95": s.ci95, "n": s.n}
                            for m, s in r.extras.items()}}
                for r in rows]
        print(json.dumps(docs, sort_keys=True, indent=2))
    else:
        print(format_scoreboard(rows, metric=args.metric))
    return 0 if not failed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_cmd == "inspect":
        return _cmd_trace_inspect(args)
    if args.trace_cmd == "convert":
        return _cmd_trace_convert(args)
    if args.trace_cmd == "record":
        return _cmd_trace_record(args)
    print("error: trace needs a subcommand (inspect | convert | record)",
          file=sys.stderr)
    return 2


def _load_trace_cli(path: str):
    from .oar.traces import load_trace
    from .util.errors import ParseError
    try:
        return load_trace(path)
    except (OSError, ParseError, TypeError, ValueError) as exc:
        print(f"error: cannot load trace {path!r}: {exc}", file=sys.stderr)
        return None


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    trace = _load_trace_cli(args.trace)
    if trace is None:
        return 2
    stats = trace.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True, indent=2))
        return 0
    print(f"trace {trace.name or args.trace}: {stats['jobs']} jobs")
    if stats["jobs"]:
        day = 86_400.0
        print(f"  span: {stats['span_s'] / day:.2f} days "
              f"(mean inter-arrival {stats['mean_interarrival_s']:.0f}s)")
        print(f"  job size: {stats['nodes_min']}-{stats['nodes_max']} nodes "
              f"(mean {stats['nodes_mean']:.1f})")
        print(f"  demand: {stats['node_seconds'] / 3600.0:.0f} node-hours")
        clusters = ", ".join(stats["clusters"]) or "(none pinned)"
        print(f"  clusters: {clusters}")
        print(f"  users: {stats['users']}")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from .oar.traces import save_trace, trace_to_swf
    trace = _load_trace_cli(args.src)
    if trace is None:
        return 2
    if args.dst.endswith(".swf"):
        with open(args.dst, "w", encoding="utf-8") as fh:
            fh.write(trace_to_swf(trace))
    else:
        save_trace(trace, args.dst)
    print(f"wrote {len(trace)} jobs to {args.dst}", file=sys.stderr)
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .oar.traces import record_scenario, save_trace
    try:
        trace = record_scenario(args.scenario, seed=args.seed,
                                months=args.months)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    save_trace(trace, args.out)
    print(f"recorded {len(trace)} workload jobs from {args.scenario!r} "
          f"to {args.out}", file=sys.stderr)
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from .core.store import fsck_store
    if not os.path.exists(args.store):
        print(f"error: cannot fsck store {args.store!r}: no such file",
              file=sys.stderr)
        return 2
    try:
        report = fsck_store(args.store, repair=args.repair)
    except OSError as exc:
        print(f"error: cannot fsck store {args.store!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_doc(), sort_keys=True, indent=2))
    else:
        print(f"{args.store}: {report}")
    if report.clean or report.repaired:
        return 0
    return 1  # damage found and left in place (run with --repair)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SimulatorService
    service = SimulatorService(host=args.host, port=args.port,
                               store=args.store)
    host, port = service.address
    store_msg = args.store if args.store else "in-memory (volatile)"
    print(f"repro-sim serving on {host}:{port} (store: {store_msg}); "
          "Ctrl-C to stop", file=sys.stderr)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        service.stop()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .service import ClientError, ReferenceClient
    try:
        with ReferenceClient(host=args.host, port=args.port) as client:
            result = client.run_scenario(args.scenario, seed=args.seed,
                                         months=args.months)
    except (OSError, ClientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result["report"], sort_keys=True, indent=2))
    else:
        from .core.campaign import CampaignReport
        print(CampaignReport.from_dict(result["report"]).summary())
        print(f"  report sha256: {result['sha256']} "
              f"({result['ticks']} remote ticks)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # piping into `head`/`grep` closes stdout early; exit quietly
        # (redirect to devnull so the interpreter's final flush is silent)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


def _main(argv: Optional[Sequence[str]]) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--list" in argv:
        # handled before parsing, so `--list` wins wherever it appears
        for spec in scenarios.all_presets():
            print(f"{spec.name:<18} {spec.description}")
        return 0
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "scoreboard":
        return _cmd_scoreboard(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "run":
        return _cmd_run(args)
    _build_parser().print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
