"""Command-line front end: run, compare, plot.

`run` simulates one channel (or all of them, on one shared transmitter),
`compare` runs the full sweep and writes report.json, and `plot` redraws
the figures of a states CSV.  This module only parses arguments and prints:
`pipeline` runs the channels, `visualization` reads and writes artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .pipeline import (
    SimulationConfig,
    default_config_path,
    load_config,
    run_channels,
    run_comparison,
)
from .visualization import read_states_csv, write_figures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlinksim",
        description="Qubit link simulator: channels, square-root-measurement "
        "detection, BER/SER metrics, SVG diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate configured channels one at a time")
    run_p.add_argument("--channel", help="restrict to one named channel")
    cmp_p = sub.add_parser("compare", help="run all channels and write report.json")
    for p in (run_p, cmp_p):
        p.add_argument(
            "--config",
            type=Path,
            help="JSON config file (the shipped example config when omitted)",
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--symbols", type=int, help="override the symbol count")
        p.add_argument("--output-dir", type=Path, help="override the output directory")

    plot_p = sub.add_parser("plot", help="re-render figures from a states CSV")
    plot_p.add_argument("--states", type=Path, required=True, help="states_<channel>.csv")
    plot_p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _load(args: argparse.Namespace) -> SimulationConfig:
    cfg = load_config(args.config if args.config else default_config_path())
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.symbols is not None:
        overrides["n_symbols"] = args.symbols
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    names = [args.channel] if args.channel else [n for n, _ in cfg.channels]
    for result in run_channels(cfg, names):
        print(
            f"{result.name}: SER {result.ser:.6g} ({result.ser_count}/{result.n_symbols}), "
            f"BER {result.ber:.6g} ({result.ber_count}/"
            f"{result.n_symbols * result.bits_per_symbol}), "
            f"erasures {result.erasure_count}"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = run_comparison(cfg)
    for name, r in report.channels.items():
        print(f"{name}: SER {r.ser:.6g}, BER {r.ber:.6g}, erasures {r.erasure_count}")
    print(f"report written to {cfg.output_dir / 'report.json'}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    tables = read_states_csv(args.states)
    args.out.mkdir(parents=True, exist_ok=True)
    names = write_figures(args.out, args.states.stem.removeprefix("states_"), *tables)
    print(f"wrote {args.out / names[0]} and {args.out / names[1]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
