"""Run ``repro.cli`` with the benchmark's probes loaded into the process.

Usage::

    python perfbench/serve.py --out PREFIX [--trace] -- serve --port 0 ...

Decision rounds are timed in the process that runs the simulation, which
for the service is the server.  When the CLI returns (SIGTERM or SIGINT
stops ``serve``), the round samples, peak RSS and, with ``--trace``, the spans
are written next to ``PREFIX``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import RoundTimer, Tracer, install_fork_guard  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    timer = RoundTimer()
    probes: list = [timer]
    tracer = None
    if args.trace:
        tracer = Tracer().install()
        timer.on_strategy.append(tracer.wrap_strategy)
        probes.append(tracer)
    timer.install()
    install_fork_guard(*probes)

    # Collect before each RUN's world, as the in-process workloads do
    # before each repetition: otherwise the garbage of earlier runs is
    # freed at whatever point the collector's thresholds fall, which
    # moves both the round times and the peak RSS from seed to seed.
    from repro.service import session as session_mod
    run_scenario = session_mod.run_scenario

    def collected_run_scenario(*a: object, **kw: object) -> object:
        gc.collect()
        return run_scenario(*a, **kw)

    session_mod.run_scenario = collected_run_scenario

    def stop(signum: int, frame: object) -> None:
        raise KeyboardInterrupt  # what `serve` shuts down on

    # Explicit handlers: a process started in the background may inherit
    # an ignored SIGINT.  Forked pool workers get the defaults back, so
    # the pool's terminate() ends them.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.register_at_fork(after_in_child=lambda: (
        signal.signal(signal.SIGTERM, signal.SIG_DFL),
        signal.signal(signal.SIGINT, signal.SIG_DFL)))

    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        dump = {"worlds": timer.worlds,
                "rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            tracer.uninstall()
            tracer.rec.count("scheduling.rounds", len(timer.samples_ms))
            tracer.rec.save(args.out + "-spans")
            dump["spans"] = args.out + "-spans"
        with open(args.out + ".json", "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
