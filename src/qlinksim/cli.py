"""Command-line front end: run, compare, plot.

`run` simulates one channel (or all of them, on one shared transmitter)
from a JSON config, `compare` runs the full multi-channel sweep and
writes report.json, `plot` re-renders figures from a previously written
states CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from .pipeline import (
    STATES_CSV_HEADER,
    SimulationConfig,
    default_config_path,
    load_config,
    run_channels,
    run_comparison,
)
from .visualization import StateProjection, render_bloch_svg, render_constellation_svg


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
    tables = _read_states_csv(args.states)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.states.stem
    channel = stem[len("states_"):] if stem.startswith("states_") else stem
    cpath = args.out / f"constellation_{channel}.svg"
    bpath = args.out / f"bloch_{channel}.svg"
    render_constellation_svg(*tables, cpath, title=f"constellation: {channel}")
    render_bloch_svg(*tables, bpath, title=f"bloch: {channel}")
    print(f"wrote {cpath} and {bpath}")
    return 0


def _read_states_csv(path: Path) -> tuple:
    """Rebuild the renderers' inputs from the stored columns: tx table, tx
    labels, rx table, rx labels.

    The CSV does not record clip flags, so replotted constellations show
    previously clipped points as plain dots at the clip radius.  A missing
    cell, a cell beyond the header, a label that is not an integer, a number
    that is not finite or an ``index`` that is not the row's position
    (0, 1, 2, ...) is an error naming its file, line and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in STATES_CSV_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks states CSV columns: {', '.join(missing)}")
        rows = []
        for row in reader:
            # DictReader files the cells beyond the header under the key None.
            if None in row:
                raise ValueError(
                    f"{path}, line {reader.line_num}, column {len(reader.fieldnames) + 1}: "
                    f"expected no cell beyond the header, got {row[None][0]!r}"
                )
            rows.append((reader.line_num, row))
    if not rows:
        raise ValueError(f"no data rows in {path}")

    def cells(columns, kind):
        values = []
        for (line, row), column in itertools.product(rows, columns):
            try:
                values.append(kind(row[column]))
                if math.isfinite(values[-1]):
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            what = "an integer" if kind is int else "a finite number"
            got = "nothing" if row[column] is None else repr(row[column])
            raise ValueError(f"{path}, line {line}, column {column}: expected {what}, got {got}")
        return np.array(values).reshape(len(rows), len(columns))

    out_of_order = np.flatnonzero(cells(["index"], int).ravel() != np.arange(len(rows)))
    if out_of_order.size:
        at = int(out_of_order[0])
        line, row = rows[at]
        raise ValueError(f"{path}, line {line}, column index: expected {at}, got {row['index']!r}")
    tables = []
    for side in ("tx", "rx"):
        table = StateProjection(
            bloch=cells([f"{side}_bloch_{a}" for a in "xyz"], float),
            trace=np.ones(len(rows)),
            iq=cells([f"{side}_{a}" for a in "iq"], float),
            clipped=np.zeros(len(rows), dtype=bool),
        )
        tables += [table, cells([f"{side}_label"], int).ravel()]
    return tuple(tables)


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
