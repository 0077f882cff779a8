"""Command line front end.

    fvreact run -c config.json -o out/
    fvreact run --preset dimerisation-tmax1 -o out/
    fvreact sweep --preset dimerisation-sweep -o out/
    fvreact plot-data out/trajectory.csv -o out/plots/
    fvreact validate-config -c config.json

A sweep runs its rate factors one after another, each in out/k_<value>/.
Exit codes: 0 success, 2 bad config or arguments, 3 solver failure,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .errors import ConfigError, ConsistencyError, NonConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _add_config_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("-c", "--config", metavar="FILE",
                       help="JSON experiment config")
    group.add_argument("--preset", choices=experiment.preset_names(),
                       help="built-in experiment config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvreact",
        description="Finite volume solver for a reversible two-species "
                    "reaction-diffusion system and its fast-reaction limit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_config_source(p_run)
    p_run.add_argument("-o", "--outdir", required=True, metavar="DIR",
                       help="output directory (created if missing)")
    p_run.add_argument("--mesh-summary", action="store_true",
                       help="also write mesh.csv")

    p_sweep = sub.add_parser("sweep",
                             help="run each rate factor of a sweep in turn")
    _add_config_source(p_sweep)
    p_sweep.add_argument("-o", "--outdir", required=True, metavar="DIR")
    p_sweep.add_argument("--mesh-summary", action="store_true",
                         help="also write mesh.csv per rate factor")

    p_plot = sub.add_parser("plot-data",
                            help="split a trajectory CSV into per-level "
                                 "gnuplot files")
    p_plot.add_argument("trajectory", metavar="CSV",
                        help="trajectory.csv or trajectory_w.csv from a run")
    p_plot.add_argument("-o", "--outdir", required=True, metavar="DIR")
    p_plot.add_argument("--levels", type=int, nargs="+", metavar="N",
                        help="time levels to emit (default: all present)")

    p_val = sub.add_parser("validate-config",
                           help="parse and validate a config, print the "
                                "normalized form")
    _add_config_source(p_val)
    return parser


def _load(args) -> experiment.ExperimentConfig:
    if args.config is not None:
        return experiment.load_config(args.config)
    return experiment.ExperimentConfig.from_dict(
        experiment.preset_config(args.preset))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, 0 on --help; keep its code
        return int(exc.code or 0)

    try:
        if args.command == "validate-config":
            cfg = _load(args)
            print("config OK")
            print(experiment.canonical_config_json(cfg))
            return EXIT_OK
        if args.command == "plot-data":
            written = experiment.emit_plot_data(args.trajectory, args.outdir,
                                                levels=args.levels)
            print(f"wrote {len(written)} level files to {args.outdir}")
            return EXIT_OK
        cfg = _load(args)
        if args.command == "run":
            experiment.run(cfg, args.outdir, write_mesh=args.mesh_summary)
            print(f"outputs in {args.outdir}")
            return EXIT_OK
        if args.command == "sweep":
            experiment.sweep(cfg, args.outdir, write_mesh=args.mesh_summary)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, ConsistencyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
