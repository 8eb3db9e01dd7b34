"""Command line front end.

Subcommands: ``run`` (full experiment), ``analyze`` (feature analytics and
improvement ratios from a finished experiment), ``ablate`` (alignment-quality
study), ``generate`` (synthetic dataset to files), and ``aggregate`` (rating
triples to domain-matrix files). The output directory resolves in order:
``--out`` flag, then the PUHDA_OUT environment variable, then the config's
``output`` field. ``--seeds`` replaces the config's seed list before the
config reaches a library entry point, which takes its seeds from the config.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .errors import PuhdaError
from .experiment import (
    ablate_experiment,
    aggregate_files,
    analyze_experiment,
    generate_files,
    load_config,
    run_experiment,
)


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("the seed list is empty")
    return seeds


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_common_flags(parser: argparse.ArgumentParser, with_grid_flags: bool) -> None:
    parser.add_argument("--config", type=Path, required=True,
                        help="experiment config document")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides config and PUHDA_OUT)")
    if with_grid_flags:
        parser.add_argument("--seeds", type=_seed_list, default=None,
                            help="comma-separated seed list overriding the config")
        parser.add_argument("--jobs", type=_positive_int, default=1,
                            help="parallel workers for grid stacks: up to 64 of one method's "
                                 "(cell, seed) runs each, across seeds, one (learning rate, "
                                 "seed) for DSFT_P_linear; a dead worker fails its whole stack")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puhda",
        description="Positive-unlabeled heterogeneous domain adaptation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="grid-search, evaluate, and report every method")
    _add_common_flags(run_p, with_grid_flags=True)

    analyze_p = sub.add_parser(
        "analyze", help="feature analytics and improvement ratios for a finished run")
    analyze_p.add_argument("experiment", type=Path, help="completed experiment directory")
    analyze_p.add_argument("--overrides", type=Path, default=None,
                           help="method,accuracy file replacing measured means")
    analyze_p.add_argument("--out", type=Path, default=None,
                           help="directory for the analysis files (default: the experiment)")

    ablate_p = sub.add_parser(
        "ablate", help="domain-separability study across alignment spaces")
    _add_common_flags(ablate_p, with_grid_flags=True)

    generate_p = sub.add_parser("generate", help="write a synthetic dataset to files")
    _add_common_flags(generate_p, with_grid_flags=False)

    aggregate_p = sub.add_parser(
        "aggregate", help="aggregate rating triples into domain-matrix files")
    _add_common_flags(aggregate_p, with_grid_flags=False)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            out = analyze_experiment(args.experiment, overrides_path=args.overrides,
                                     out_dir=args.out)
        else:
            config = load_config(args.config)
            if getattr(args, "seeds", None) is not None:
                config = replace(config, seeds=args.seeds)   # runs the config's own checks
            if args.command == "run":
                out = run_experiment(config, out_dir=args.out, jobs=args.jobs)
            elif args.command == "ablate":
                out = ablate_experiment(config, out_dir=args.out, jobs=args.jobs)
            elif args.command == "generate":
                out = generate_files(config, out_dir=args.out)
            else:
                out = aggregate_files(config, out_dir=args.out)
    except (PuhdaError, OSError) as exc:   # a failed read or write is an error, too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
