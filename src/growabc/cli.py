"""Command-line interface.

Subcommands: seed-gen, build-table, abc-run, experiment, timing,
ingest. Each takes --config plus --set key=value overrides and --out
for artifacts. Exits nonzero with a machine-readable ``error:`` line on
failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from .config import load_config
from .experiment import abc_run, run_experiment, timing_report, write_json
from .graph import write_edge_list
from .ingest import ingest_observed
from .seeding import observed_seed
from .table import build_reference_table, build_seed_graph


def _add_common(parser):
    parser.add_argument("--config", required=False,
                        help="path to a key=value config file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override a config key")
    parser.add_argument("--out", default=".",
                        help="output directory for artifacts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="growabc",
        description="ABC for growing network models with extrapolated "
                    "and subsampled summary statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seed-gen", help="write the configured seed graph "
                                        "as an edge list")
    _add_common(p)

    p = sub.add_parser("build-table", help="build the reference table CSV")
    _add_common(p)

    p = sub.add_parser("abc-run", help="acceptance run against a table")
    _add_common(p)
    p.add_argument("--table", default=None,
                   help="reference table CSV (default <out>/table.csv)")
    p.add_argument("--observed", default=None,
                   help="comma-separated observed summary vector")

    p = sub.add_parser("experiment", help="replicate simulation study")
    _add_common(p)

    p = sub.add_parser("timing", help="timing-shape report")
    _add_common(p)
    p.add_argument("--n-o-list", default=None,
                   help="comma-separated n_o values to time")
    p.add_argument("--table-sizes", default="10,100",
                   help="comma-separated table sizes for totals")

    p = sub.add_parser("ingest", help="summaries of an edge-list network")
    _add_common(p)
    p.add_argument("path", help="edge-list file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def _dispatch(args):
    cfg = load_config(args.config, args.overrides)
    os.makedirs(args.out, exist_ok=True)

    if args.command == "seed-gen":
        path = os.path.join(args.out, "seed.edgelist")
        write_edge_list(build_seed_graph(cfg), path)
        print(path)
        return 0

    if args.command == "build-table":
        path = build_reference_table(
            cfg, os.path.join(args.out, "table.csv"))
        print(path)
        return 0

    if args.command == "abc-run":
        table = args.table or os.path.join(args.out, "table.csv")
        observed = None
        if args.observed:
            observed = tuple(float(v) for v in args.observed.split(","))
        posterior = abc_run(cfg, table, args.out, observed=observed)
        print("accepted=%d zero_density_fills=%d"
              % (len(posterior.accepted), posterior.zero_density_fills))
        return 0

    if args.command == "experiment":
        report = run_experiment(cfg, args.out)
        for block in report["truths"]:
            print("truth=%s avg_posterior_mean=%s rmse=%s"
                  % (block["truth"], block["avg_posterior_mean"],
                     block["rmse"]))
        return 0

    if args.command == "timing":
        n_o_list = None
        if args.n_o_list:
            n_o_list = [int(v) for v in args.n_o_list.split(",")]
        sizes = tuple(int(v) for v in args.table_sizes.split(","))
        path = os.path.join(args.out, "timing.csv")
        timing_report(cfg, path, n_o_list=n_o_list, table_sizes=sizes)
        print(path)
        return 0

    if args.command == "ingest":
        rng = np.random.default_rng(observed_seed(cfg.master_seed, 0, 0))
        observed = ingest_observed(
            args.path, cfg.summary_specs(),
            seed_cutoff=cfg.seed_cutoff,
            directed=cfg.model == "price", rng=rng)
        record = {
            "path": args.path,
            "nodes": observed.graph.node_count,
            "edges": observed.graph.edge_count,
            "summaries": dict(zip(
                (s.name for s in cfg.summary_specs()),
                (float(v) for v in observed.summaries_at_no))),
            "seed_nodes": (observed.seed_graph.node_count
                           if observed.seed_graph is not None else None),
        }
        write_json(os.path.join(args.out, "observed.json"), record)
        print(json.dumps(record, sort_keys=True))
        return 0

    raise ValueError("unknown command %r" % (args.command,))


if __name__ == "__main__":
    sys.exit(main())
