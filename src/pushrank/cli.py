"""Command-line front end.

One binary with per-algorithm subcommands::

    pushrank exact   --graph web.txt --out ranks.csv
    pushrank power   --graph web.txt --tol 1e-12 --out power.csv
    pushrank sync    --graph web.txt --tol 1e-9  --out sync.csv
    pushrank gossip  --graph web.txt --schedule uniform --seed 7 --out g.csv
    pushrank multi   --graph web.txt --schedule subset:0.25 --steps 5000
    pushrank cluster --graph web.txt --partition groups.txt --schedule periodic
    pushrank mc      --graph web.txt --algorithm gossip --replicas 1000 --steps 200
    pushrank compare --graph web.txt --runs gossip=uniform,cluster=periodic \
                     --partition groups.txt --out compare.csv

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .errors import ConfigError, NumericalFailure, ParseError
from .harness import (ALGORITHMS, SCHEDULES, ExperimentConfig, compare,
                      monte_carlo, run_experiment)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _add_common(parser, with_schedule=True):
    parser.add_argument("--graph", required=True, help="edge-list file (src dst per line)")
    parser.add_argument("--base", type=int, default=0, choices=(0, 1),
                        help="page numbering base in the graph file")
    parser.add_argument("--m", type=float, default=0.15,
                        help="teleportation parameter (default 0.15)")
    parser.add_argument("--steps", type=int, default=None,
                        help="maximum number of steps")
    parser.add_argument("--tol", type=float, default=None,
                        help="target L1 error (certified via the residual)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized schedules")
    if with_schedule:
        parser.add_argument("--schedule", default=None, help="; ".join(
            f"{algo}: {' | '.join(specs)}" for algo, specs in SCHEDULES.items())
            + " (the first is the default)")
        parser.add_argument("--weights", default="uniform",
                            help="uniform | indegree_plus_one | file:<path> "
                                 "(weighted schedules only)")
    parser.add_argument("--partition", default=None,
                        help="partition file (page group per line)")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--cadence", type=int, default=None,
                        help="record every j-th step (default: auto)")
    parser.add_argument("--dense-cap", type=int, default=5000, dest="dense_cap",
                        help="largest n for which the dense oracle is built")
    parser.add_argument("--include-x", action="store_true", dest="include_x",
                        help="append per-page x columns to the trace CSV")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pushrank",
        description="Residual-push PageRank engines and experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for algo in ALGORITHMS:
        p = sub.add_parser(algo, help=f"run the {algo} algorithm")
        _add_common(p, with_schedule=algo in SCHEDULES)
    mc = sub.add_parser("mc", help="Monte Carlo average over seeded replicas")
    _add_common(mc)
    mc.add_argument("--algorithm", default="gossip",
                    choices=tuple(SCHEDULES),
                    help="engine to replicate (default gossip); its "
                         "--schedule defaults to uniform here")
    mc.add_argument("--replicas", type=int, default=1000,
                    help="number of replicas (default 1000)")
    cmp_p = sub.add_parser("compare",
                           help="align several runs on the updates axis")
    _add_common(cmp_p)
    cmp_p.add_argument("--runs", required=True,
                       help="comma list of algo[=schedule] specs, e.g. "
                            "'gossip=uniform,cluster=periodic,power'")
    return parser


def _config_from(args, **overrides):
    """ExperimentConfig from the parsed options that name its fields."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    return ExperimentConfig(**{**given, **overrides})


def _run(args):
    if args.command == "mc":
        monte_carlo(_config_from(args))
        return EXIT_OK
    if args.command == "compare":
        base = _config_from(args, algorithm=None, out=None)
        configs = []
        for spec in args.runs.split(","):
            spec = spec.strip()
            if not spec:
                continue
            algo, _, sched = spec.partition("=")
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r} in --runs")
            sched = (sched or base.schedule) if algo in SCHEDULES else None
            configs.append(replace(
                base, algorithm=algo, schedule=sched,
                weights=base.weights if sched == "weighted" else "uniform",
                partition=base.partition if algo == "cluster" else None))
        if base.weights != "uniform" and all(c.schedule != "weighted"
                                             for c in configs):
            raise ConfigError(f"--weights {base.weights} needs a weighted run "
                              "in --runs")
        compare(configs, out=args.out)
        return EXIT_OK
    run_experiment(_config_from(args, algorithm=args.command))
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
