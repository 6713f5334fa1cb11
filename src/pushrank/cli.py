"""Command-line front end.

One binary with per-algorithm subcommands::

    pushrank exact   --graph web.txt --out ranks.csv
    pushrank power   --graph web.txt --tol 1e-12 --out power.csv
    pushrank sync    --graph web.txt --tol 1e-9  --out sync.csv
    pushrank gossip  --graph web.txt --schedule uniform --seed 7 --out g.csv
    pushrank multi   --graph web.txt --schedule weighted:indegree_plus_one --tol 1e-6
    pushrank multi   --graph web.txt --schedule subset:0.25 --steps 5000
    pushrank cluster --graph web.txt --partition groups.txt --schedule roundrobin
    pushrank mc      --graph web.txt --algorithm gossip --replicas 1000 --steps 200
    pushrank compare --graph web.txt --runs gossip=uniform,cluster=roundrobin \
                     --partition groups.txt --out compare.csv

Every subcommand takes the same flags and reads those its row of the
harness's settings table names; ``--help`` lists the readers of each.
`ExperimentConfig.validate` settles each run before any input is read: a
flag the command does not read is refused even at its default value
(``error: --seed does not apply to sync runs``), as is a schedule spec it
does not accept.

Error and defect columns come from the reference x* of `pushrank.solvers`,
built up to 5,000 pages for single runs and at any size for mc and exact.

Exit codes: 0 success, 2 configuration error (including a flag the
command does not read), 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import NumericalFailure
from .harness import (_READS, ALGORITHMS, SCHEDULES, ExperimentConfig,
                      compare, monte_carlo, run_experiment)
from .scheduling import RANDOM_KINDS

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _read_by(name):
    """Help suffix naming the commands whose settings row holds `name`."""
    readers = [cmd for cmd, row in _READS.items() if name in row.split()]
    return f" (read by {', '.join(readers)})"


def _add_common(parser):
    parser.add_argument("--graph", required=True, help="edge-list file (src dst per line)")
    parser.add_argument("--base", type=int, default=0, choices=(0, 1),
                        help="page numbering base in the graph file")
    parser.add_argument("--m", type=float, default=0.15,
                        help="teleportation parameter (default 0.15)")
    parser.add_argument("--steps", type=int, default=None,
                        help="maximum number of steps" + _read_by("steps"))
    parser.add_argument("--tol", type=float, default=None,
                        help="target L1 error, certified via the residual"
                             + _read_by("tol"))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of a schedule that draws at random: "
                             + ", ".join(RANDOM_KINDS) + " (default 0)"
                             + _read_by("seed"))
    parser.add_argument("--schedule", default=None, help="; ".join(
        f"{algo}: {' | '.join(specs)}" for algo, specs in SCHEDULES.items())
        + " (the first is the default)")
    parser.add_argument("--partition", default=None,
                        help="partition file, page group per line; needed "
                             "by cluster runs" + _read_by("partition"))
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--cadence", type=int, default=None,
                        help="record every j-th step; by default once per "
                             "sweep of n updates (mc: every step)"
                             + _read_by("cadence"))
    parser.add_argument("--include-x", action="store_true", dest="include_x",
                        help="append per-page x columns to the trace CSV"
                             + _read_by("include_x"))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pushrank",
        description="Residual-push PageRank engines and experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for algo in ALGORITHMS:
        _add_common(sub.add_parser(algo, help=f"run the {algo} algorithm"))
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
                            "'gossip=uniform,cluster=roundrobin,power'")
    return parser


def _config_from(args, **overrides):
    """ExperimentConfig from the parsed options that name its fields."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if hasattr(args, f.name)}
    return ExperimentConfig(**{**given, **overrides})


def _run(args):
    if args.command == "mc":
        monte_carlo(_config_from(args))
    elif args.command == "compare":
        compare(_config_from(args, algorithm="compare"), args.runs.split(","))
    else:
        run_experiment(_config_from(args, algorithm=args.command))
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:     # ConfigError and ParseError too
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
