"""The per-symbol artifacts: the states CSV and two SVG figures.

This module alone writes and reads both formats.  Every writer takes its
arguments in one order, ``(tx, tx_labels, rx, rx_labels)``: a
:class:`StateProjection` table per panel, one row per distinct state as
:func:`project_rows` computes it, whose ``rows`` index gives each symbol's
row, and one label per symbol; a caller's complex stack is projected as
``project_rows(state_rows(mats))``.  One check (:func:`_check_tables`)
refuses empty tables and label counts that do not match before any file is
opened.  A table holds what the states CSV holds: its clip flags are
derived from its Bloch z, so :func:`read_states_csv`, which returns the
same four in the same order, rebuilds tables that redraw the figures of
the run that wrote it, and ``write_states_csv(dst, *read_states_csv(src))``
rewrites ``src``.  The reader checks every line against one regular
expression built from the header, parses the columns with ``np.loadtxt``
and, on any failure, names the first fault in line order.
:func:`write_figures`, the one figure entry point, writes a channel's I/Q
constellation (the amplitude-ratio reconstruction of each qubit state)
and Bloch sphere (a fixed orthographic projection), each with transmitted
and received panels side by side.  It checks the tables, and numbers and
colors the labels and lays out the legend, once for both figures; each
renderer then writes one of them.  All output is deterministic: fixed
element order, fixed number formatting, no timestamps.  Each table row's numbers
and each distinct (row, label) marker are formatted once, so number
formatting costs in proportion to the number of distinct states, not of
symbols; the bytes are those of formatting every symbol on its own.
Tables, markers and CSV lines are each formatted by one printf-style template
filled ``_CHUNK`` rows per '%' operation (:func:`_fill`), not by one
Python call per number.  The CSV and both figures are written as they are
drawn, ``_CHUNK`` symbols at a time, so the text held at once is that of
the distinct rows or markers plus one chunk, never of a whole file.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .states import TOL

# tab20-style cycle; the erasure label -1 gets its own dark gray.
_PALETTE = (
    "#1f77b4", "#aec7e8", "#ff7f0e", "#ffbb78", "#2ca02c",
    "#98df8a", "#d62728", "#ff9896", "#9467bd", "#c5b0d5",
    "#8c564b", "#c49c94", "#e377c2", "#f7b6d2", "#7f7f7f",
    "#c7c7c7", "#bcbd22", "#dbdb8d", "#17becf", "#9edae5",
)
_ERASURE_COLOR = "#404040"

_AZIMUTH = np.deg2rad(30.0)
_ELEVATION = np.deg2rad(20.0)
# Below this rho_00 the amplitude ratio rho_10 / rho_00 is treated as diverging.
_RHO00_FLOOR = 1e-9
# The states CSV's '%.12g' moves a Bloch z near -1 by at most 5e-13, so
# rho_00 by at most 2.5e-13: only a row this close to the floor can be
# written on its other side.
_RHO00_NEAR = 1e-12


@dataclass(frozen=True)
class StateProjection:
    """Leading-qubit-block coordinates of distinct states, and each symbol's row.

    ``bloch`` (m, 3) are the Bloch coordinates of the renormalized block,
    ``trace`` (m,) its weight before renormalization and ``iq`` (m, 2) the
    reconstructed constellation point, one row per state.  ``rows`` (n,) is
    the row of each symbol; it defaults to ``arange(m)``, one symbol per
    row.  A field of another shape, or with an entry that is not finite, is
    a ``ValueError`` naming it: the states CSV reader would refuse what it
    writes.  Each field is stored as an array.  :attr:`clipped` is derived
    from ``bloch``, not stored, by the rule the states CSV reader applies
    to the Bloch z it reads back.
    """

    bloch: np.ndarray
    trace: np.ndarray
    iq: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        m = np.size(self.trace)
        for name, tail in (("trace", ()), ("bloch", (3,)), ("iq", (2,))):
            value = np.asarray(getattr(self, name))
            if value.shape != (m, *tail):
                raise ValueError(f"{name} must have shape {(m, *tail)}, got {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        rows = np.arange(m) if self.rows is None else self.rows
        object.__setattr__(self, "rows", _row_index(rows, m))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def clipped(self) -> np.ndarray:
        """(m,) whether each row's constellation point diverged and was pinned
        at the clip radius: the rule of :func:`_rho00` on its Bloch z."""
        return _rho00(self.bloch)[1]

    def take(self, index) -> "StateProjection":
        """The symbols selected by ``index``: the same checked state arrays, ``rows[index]``."""
        taken = copy.copy(self)
        object.__setattr__(taken, "rows", _row_index(self.rows[index], np.size(self.trace)))
        return taken


def _row_index(rows, m: int) -> np.ndarray:
    """``rows`` as a 1-D integer index into ``m`` table rows, else a ``ValueError``."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a 1-D integer index, got {rows.dtype} {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ValueError(f"rows must index the {m} table rows, got [{rows.min()}, {rows.max()}]")
    return rows


def _rho00(bloch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho_00 of renormalized blocks with Bloch vectors ``bloch``, and whether
    it falls below ``_RHO00_FLOOR``: the clip rule of a constellation point.
    The rule reads z as the states CSV writes it ('%.12g'), so a table and
    its CSV round trip clip the same rows; only the rows within
    ``_RHO00_NEAR`` of the floor are formatted for it."""
    r00 = (1.0 + bloch[:, 2]) / 2.0
    clipped = r00 < _RHO00_FLOOR
    near = np.flatnonzero(np.abs(r00 - _RHO00_FLOOR) < _RHO00_NEAR)
    if near.size:
        written = np.array([float("%.12g" % z) for z in bloch[near, 2].tolist()])
        clipped[near] = (1.0 + written) / 2.0 < _RHO00_FLOOR
    return r00, clipped


def project_rows(
    rows: np.ndarray, power_scale: float = 1.0, clip_radius: float = 1.5
) -> StateProjection:
    """Project (n, 4) rows (t, x, y, z) onto their renormalized qubit blocks.
    Rows come checked from ``state_rows``, ``codebook.rows``,
    ``Channel.apply_rows`` or ``check_rows``, and are not checked again.

    The Bloch vector is (x, y, z) / t; a block whose weight t falls below
    ``TOL`` (fully erased) carries no information and sits at the origin.
    The constellation estimate is rho_10 / rho_00 of the renormalized
    block, divided by ``power_scale`` to land back on the constellation
    grid.  When rho_00 falls below ``_RHO00_FLOOR`` (judged on z as the
    states CSV writes it, :func:`_rho00`) the ratio diverges, so the point
    is pinned at ``clip_radius`` along the direction of rho_10 (or along +I
    if even that vanishes), which the table's ``clipped`` flags.
    ``power_scale`` and ``clip_radius`` must be finite and > 0, else a
    ``ValueError`` naming the first that is not.
    """
    for name, value in (("power_scale", power_scale), ("clip_radius", clip_radius)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    trace = rows[:, 0]
    depleted = trace < TOL
    bloch = np.where(depleted[:, None], 0.0, rows[:, 1:] / np.where(depleted, 1.0, trace)[:, None])
    r00, clipped = _rho00(bloch)
    ratio = bloch[:, :2] / 2.0
    mag = np.hypot(ratio[:, 0], ratio[:, 1])[:, None]
    direction = np.where(mag > 0.0, ratio / np.where(mag > 0.0, mag, 1.0), [1.0, 0.0])
    iq = np.where(
        clipped[:, None],
        clip_radius * direction,
        ratio / np.where(clipped, 1.0, r00)[:, None] / power_scale,
    )
    return StateProjection(bloch, trace, iq)


def _check_labels(labels, name: str) -> np.ndarray:
    """``labels`` as a 1-D int64 array of symbols (>= 0) and erasures (-1)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D integer array, got {labels.dtype} {labels.shape}")
    # One dtype for every label array; an unsigned label above 2**63 - 1 wraps negative.
    out = labels.astype(np.int64, copy=False)
    bad = np.flatnonzero(out < (-1 if labels.dtype.kind == "i" else 0))
    if bad.size:
        bound = ">= -1" if labels.dtype.kind == "i" else "<= 2**63 - 1"
        raise ValueError(f"{name} must be {bound}, got {labels[bad[0]]} at index {bad[0]}")
    return out


def _check_tables(what: str, tx, tx_labels, rx, rx_labels) -> tuple:
    """Check a writer's tables and labels; return the labels as
    :func:`_check_labels` gives them.  Both tables must be nonempty, with
    one label per symbol, else a ``ValueError`` names ``what``.  Every
    writer calls it before it opens its file."""
    if not len(tx) or not len(rx):
        raise ValueError(f"{what} needs nonempty tx and rx tables")
    if len(tx_labels) != len(tx) or len(rx_labels) != len(rx):
        raise ValueError(f"{what} needs one label per symbol")
    return _check_labels(tx_labels, "tx_labels"), _check_labels(rx_labels, "rx_labels")


STATES_CSV_HEADER = (
    "index",
    "tx_label",
    "rx_label",
    "tx_bloch_x",
    "tx_bloch_y",
    "tx_bloch_z",
    "rx_bloch_x",
    "rx_bloch_y",
    "rx_bloch_z",
    "rx_renorm_trace",
    "tx_i",
    "tx_q",
    "rx_i",
    "rx_q",
)


# The writer's spelling family, all the reader accepts: decimal integers
# [+-]?D+ and '.12g' numbers [+-]?D+(.D+)?(e[+-]?D+)?, D an ASCII digit (no
# spaces, underscores, inf or nan); a column the reader does not use (None)
# may hold any cell.  The optional parts are written as empty alternatives,
# not '?' groups, for each of which `re` allocates at every cell.
_INTEGER = "[+-]?[0-9]+"
_CELL = {int: _INTEGER, float: _INTEGER + r"(?:\.[0-9]+|)(?:e[+-]?[0-9]+|)", None: "[^,\n]*"}
# How each column is read.
_KIND = {n: int if n in ("index", "tx_label", "rx_label") else float for n in STATES_CSV_HEADER}

# Rows filled per '%' operation: bounds the text and arguments held at once.
_CHUNK = 512
# A symbol's line: index, labels, and the text of its tx Bloch, rx Bloch and
# trace, tx I/Q and rx I/Q table rows.
_CSV_LINE = "%d,%d,%d,%s,%s,%s,%s\n"


def _fill(template: str, *columns: np.ndarray, sep: str = "\0"):
    """Yield ``template`` filled from each row of the side-by-side 1-D
    ``columns``, one string per ``_CHUNK`` rows, the rows joined by ``sep``.

    For a float, '%.12g' and '%.2f' spell the same bytes as ``format``
    with '.12g' and '.2f'.  The default NUL separator occurs in no filled
    text (numbers, fixed markup and palette colors), so it splits rows."""
    width = len(columns)
    for start in range(0, len(columns[0]), _CHUNK):
        block = [column[start : start + _CHUNK].tolist() for column in columns]
        args = [None] * (width * len(block[0]))
        for j, column in enumerate(block):
            args[j::width] = column
        yield sep.join([template] * len(block[0])) % tuple(args)


def _filled(template: str, *columns: np.ndarray, svg: bool = False) -> np.ndarray:
    """:func:`_fill`'s text as an object array, one string per row.  With
    ``svg``, '"-0.00"' becomes '"0.00"', as in :func:`_fmt`: every SVG
    number is a quoted attribute value, so this touches whole values only."""
    rows = []
    for text in _fill(template, *columns):
        rows += (text.replace('"-0.00"', '"0.00"') if svg else text).split("\0")
    return np.array(rows, dtype=object)


def _csv_text(*columns: np.ndarray) -> np.ndarray:
    """CSV text of the side-by-side ``columns``, one string per table row."""
    table = np.column_stack(columns)
    return _filled(",".join(["%.12g"] * table.shape[1]), *table.T)


def write_states_csv(
    path: str | Path,
    tx: StateProjection,
    tx_labels: Sequence[int],
    rx: StateProjection,
    rx_labels: Sequence[int],
) -> None:
    """Per-symbol dump: labels, Bloch projections, I/Q reconstructions.

    Bloch and constellation columns come from the leading-block
    projection, so rows stay well-defined for enlarged (erasure) outputs;
    ``rx_renorm_trace`` records the weight left in the qubit block.  Each
    table is formatted once, by one '%.12g' template per ``_CHUNK`` rows.
    The symbols are written ``_CHUNK`` at a time: one ``_CSV_LINE`` template
    fills the chunk's lines from the text of the table rows they index.  So
    the numbers are formatted once per distinct state, and the text held at
    once is that of the tables plus one chunk, not of every symbol.  No
    field needs CSV quoting: they are ints and '.12g' numbers.  The tables
    are checked by :func:`_check_tables`, and must hold as many tx as rx
    symbols (one line each), before the file is opened.
    """
    tx_labels, rx_labels = _check_tables("states CSV", tx, tx_labels, rx, rx_labels)
    if len(tx) != len(rx):
        raise ValueError("states CSV: tx and rx tables must have equal lengths")
    tx_bloch, tx_iq = _csv_text(tx.bloch), _csv_text(tx.iq)
    rx_bloch, rx_iq = _csv_text(rx.bloch, rx.trace), _csv_text(rx.iq)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(STATES_CSV_HEADER) + "\n")
        for start in range(0, len(tx_labels), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            a, b = tx.rows[chunk], rx.rows[chunk]
            columns = (np.arange(start, start + len(a)), tx_labels[chunk], rx_labels[chunk])
            columns += (tx_bloch[a], rx_bloch[b], tx_iq[a], rx_iq[b])
            fh.writelines(_fill(_CSV_LINE, *columns, sep=""))


def read_states_csv(path: str | Path) -> tuple:
    """Rebuild the writers' inputs from a states CSV's columns, in their
    order: tx table, tx labels, rx table, rx labels.

    The rx trace is ``rx_renorm_trace`` and the tx trace 1; a table's clip
    flags follow from its Bloch z as written, so the tables redraw the
    run's figures.  It accepts the writer's spelling family (``_CELL``),
    and reads a repeated column name from its last column.  One regular
    expression built from the header checks every line that is not blank,
    and ``np.loadtxt`` parses the columns read: int64 for ``index`` and the
    labels, float for the rest.  On any failure :func:`_first_fault` raises
    the first fault in line order, naming its file, line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    missing = [c for c in STATES_CSV_HEADER if c not in header]
    if missing:
        raise ValueError(f"{path} lacks states CSV columns: {', '.join(missing)}")
    last = {name: j for j, name in enumerate(header)}
    kinds = [_KIND.get(name) if last[name] == j else None for j, name in enumerate(header)]
    line = ",".join(_CELL[kind] for kind in kinds)
    values = None
    # A body of line breaks alone has no data row, and numpy would warn on it.
    if not re.search(f"^(?!$|{line}$)", body, re.M) and body.count("\n") < len(body):
        dtype = [(name, np.int64 if kind is int else float) for name, kind in _KIND.items()]
        try:
            values = np.loadtxt(path, dtype, comments=None, delimiter=",", skiprows=1,
                                usecols=[last[name] for name in _KIND], ndmin=1, encoding="utf-8")
        except ValueError:  # an integer beyond int64
            pass
    ok = values is not None and np.array_equal(values["index"], np.arange(len(values)))
    if not ok or not all(np.isfinite(values[n]).all() for n in _KIND if _KIND[n] is float):
        _first_fault(path, header, kinds, body)
    del body  # the file's text is not held while the tables are built
    tables = []
    # Copied out, so that no table keeps every parsed column alive.
    traces = {"tx": np.ones(len(values)), "rx": values["rx_renorm_trace"].copy()}
    for side in ("tx", "rx"):
        table = StateProjection(
            bloch=np.stack([values[f"{side}_bloch_{a}"] for a in "xyz"], axis=1),
            trace=traces[side],
            iq=np.stack([values[f"{side}_{a}"] for a in "iq"], axis=1),
        )
        labels = values[f"{side}_label"].copy()
        tables += [table, _check_labels(labels, f"{path}, column {side}_label")]
    return tuple(tables)


def _first_fault(path, header: list, kinds: list, body: str) -> None:
    """Raise the first fault of a states CSV's ``body`` in line order, left
    to right within a line: a cell beyond the header, a missing cell, a cell
    of a column read as ``kinds[j]`` that is not spelled as
    ``_CELL[kinds[j]]``, is not finite or, for an integer, is beyond int64,
    or an ``index`` that is not the row's position (0, 1, 2, ...).  Blank
    lines are skipped but counted: the body starts on line 2.  A body with
    none of these faults has no data rows, or is not what ``np.loadtxt``
    read when it opened the file again."""
    row = 0
    for n, text in enumerate(body.split("\n"), 2):
        if not text:
            continue
        cells = text.split(",")
        if len(cells) > len(header):
            raise ValueError(f"{path}, line {n}, column {len(header) + 1}: expected no cell "
                             f"beyond the header, got {cells[len(header)]!r}")
        cells += [None] * (len(header) - len(cells))
        for name, kind, cell in zip(header, kinds, cells):
            ok = cell is not None and re.fullmatch(_CELL[kind], cell)
            if ok and kind:
                ok = np.isfinite(float(cell)) if kind is float else -(2**63) <= int(cell) < 2**63
            if not ok:
                what = {int: "an integer", float: "a finite number"}.get(kind, "a cell")
                got = "nothing" if cell is None else repr(cell)
                raise ValueError(f"{path}, line {n}, column {name}: expected {what}, got {got}")
            if name == "index" and kind and int(cell) != row:
                raise ValueError(f"{path}, line {n}, column index: expected {row}, got {cell!r}")
        row += 1
    raise ValueError(f"no data rows in {path}" if not row else f"{path} changed while it was read")


def _project(x, y, z):
    """Orthographic view direction azimuth 30 deg, elevation 20 deg."""
    u = -np.sin(_AZIMUTH) * x + np.cos(_AZIMUTH) * y
    v = (
        -np.sin(_ELEVATION) * np.cos(_AZIMUTH) * x
        - np.sin(_ELEVATION) * np.sin(_AZIMUTH) * y
        + np.cos(_ELEVATION) * z
    )
    return u, v


def _fmt(x: float) -> str:
    # Avoid "-0.00" so output is byte-stable across sign-of-zero differences.
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _color(label: int) -> str:
    if label < 0:
        return _ERASURE_COLOR
    return _PALETTE[label % len(_PALETTE)]


_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s" fill-opacity="0.75"/>\n'
# A clipped point: the two diagonals of a square 8 px wide around it.
_SEGMENT = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="1.5"/>\n'
_CROSS = _SEGMENT * 2


def _markers(fh, px, py, clipped, rows, labels, colors) -> None:
    """Write one marker per symbol to ``fh``, at table row ``rows[k]`` of the
    per-row ``px``, ``py`` and ``clipped``, in color ``colors[labels[k]]``: a
    circle, or a cross if clipped.  Each distinct (row, label) pair is
    formatted once, by one template per marker shape, and the symbols'
    markers are written ``_CHUNK`` at a time."""
    keys, inverse = np.unique(rows.astype(np.int64) * len(colors) + labels, return_inverse=True)
    row, label = np.divmod(keys, len(colors))
    x, y, cross, color = px[row], py[row], clipped[row].astype(bool), colors[label]
    text = np.empty(len(keys), dtype=object)
    text[~cross] = _filled(_CIRCLE, x[~cross], y[~cross], color[~cross], svg=True)
    x, y, c = x[cross], y[cross], color[cross]
    text[cross] = _filled(
        _CROSS, x - 4, y - 4, x + 4, y + 4, c, x - 4, y + 4, x + 4, y - 4, c, svg=True
    )
    for start in range(0, len(inverse), _CHUNK):
        fh.write("".join(text[inverse[start : start + _CHUNK]].tolist()))


_PANEL = 380.0
_MARGIN = 50.0
_GAP = 60.0
_WIDTH = int(2 * _PANEL + 2 * _MARGIN + _GAP)
# The canvas height with one row of legend keys; each further row adds _KEY_ROW.
_HEIGHT = int(_PANEL + 2 * _MARGIN + 40)
# Legend keys are _KEY_PITCH apart in a row, and a row of them ends inside
# _WIDTH - _MARGIN.
_KEY_PITCH = 62.0
_KEY_ROW = 18
_KEYS_PER_ROW = int((_WIDTH - 2 * _MARGIN) // _KEY_PITCH)
_KEY = (
    '<rect x="%.2f" y="%.2f" width="10" height="10" fill="%s"/>\n'
    '<text x="%.2f" y="%.2f" font-size="11" fill="#333">%s</text>\n'
)


def _figure(
    comment: str, panel, tx: StateProjection, rx: StateProjection, path: Path, title: str, legend
) -> None:
    """Write a two-panel figure to ``path`` as it is drawn: the header and
    title, each panel's frame and markers, and the legend.
    ``panel(table, x0, name)`` returns the frame lines of the panel at ``x0``
    and the per-row ``px``, ``py`` and clip flags of ``table``'s markers;
    ``legend`` is what :func:`write_figures` derived from the labels for
    both figures."""
    index, colors, lines, height = legend
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{height}" viewBox="0 0 {_WIDTH} {height}">\n{comment}\n'
            f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>\n'
            f'<text x="{_fmt(_WIDTH / 2)}" y="26" font-size="15" fill="#111" '
            f'text-anchor="middle">{_esc(title)}</text>\n'
        )
        for table, x0, name, labels in (
            (tx, _MARGIN, "transmitted", index[: len(tx)]),
            (rx, _MARGIN + _PANEL + _GAP, "received", index[len(tx) :]),
        ):
            frame, px, py, clipped = panel(table, x0, name)
            fh.write("\n".join(frame) + "\n")
            _markers(fh, px, py, clipped, table.rows, labels, colors)
        fh.writelines(lines)
        fh.write("</svg>\n")


def render_constellation_svg(
    tx: StateProjection, rx: StateProjection, path: Path, title: str, legend: tuple
) -> None:
    """Two-panel I/Q scatter colored by label; clipped reconstructions drawn
    as crosses.  Called by :func:`write_figures`, which checked the tables."""
    # Over the rows the symbols use, so a state never sent cannot widen the axes.
    sent = np.concatenate([tx.iq[tx.rows], rx.iq[rx.rows]])
    half = 1.05 * float(np.max(np.abs(sent), initial=1.0))
    del sent  # not held while the figure is written

    def panel(table: StateProjection, x0: float, name: str) -> tuple:
        y0 = _MARGIN
        cx, cy = x0 + _PANEL / 2, y0 + _PANEL / 2
        frame = [
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(_PANEL)}" '
            f'height="{_fmt(_PANEL)}" fill="none" stroke="#888"/>',
            f'<line x1="{_fmt(x0)}" y1="{_fmt(cy)}" x2="{_fmt(x0 + _PANEL)}" '
            f'y2="{_fmt(cy)}" stroke="#ddd"/>',
            f'<line x1="{_fmt(cx)}" y1="{_fmt(y0)}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(y0 + _PANEL)}" stroke="#ddd"/>',
            f'<text x="{_fmt(cx)}" y="{_fmt(y0 - 8)}" font-size="13" fill="#333" '
            f'text-anchor="middle">{name}</text>',
            f'<text x="{_fmt(x0 + _PANEL - 4)}" y="{_fmt(cy - 6)}" font-size="10" '
            f'fill="#999" text-anchor="end">I {_fmt(half)}</text>',
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(y0 + 12)}" font-size="10" '
            f'fill="#999">Q {_fmt(half)}</text>',
        ]
        i, q = table.iq.T
        px = x0 + (i + half) / (2 * half) * _PANEL
        py = y0 + (half - q) / (2 * half) * _PANEL
        return frame, px, py, table.clipped

    comment = f"<!-- constellation reconstruction; axis half-range {_fmt(half)} -->"
    _figure(comment, panel, tx, rx, path, title, legend)


@lru_cache(maxsize=2)  # one per panel
def _sphere_wireframe(cx: float, cy: float, r: float) -> tuple[str, ...]:
    """Outline, great circles and axis names of the sphere; fixed, so built once."""
    parts = [
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="none" '
        f'stroke="#aaa"/>'
    ]
    circles = (
        lambda t: (np.cos(t), np.sin(t), 0.0),  # equator
        lambda t: (np.cos(t), 0.0, np.sin(t)),  # x-z meridian
        lambda t: (0.0, np.cos(t), np.sin(t)),  # y-z meridian
    )
    for circle in circles:
        coords = []
        for k in range(73):
            t = 2.0 * np.pi * k / 72.0
            u, v = _project(*circle(t))
            coords.append(f"{_fmt(cx + r * float(u))},{_fmt(cy - r * float(v))}")
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="#ddd"/>'
        )
    for axis, name in (((1.1, 0, 0), "x"), ((0, 1.1, 0), "y"), ((0, 0, 1.1), "z")):
        u, v = _project(*axis)
        parts.append(
            f'<text x="{_fmt(cx + r * float(u))}" y="{_fmt(cy - r * float(v))}" '
            f'font-size="11" fill="#666" text-anchor="middle">{name}</text>'
        )
    return tuple(parts)


def render_bloch_svg(
    tx: StateProjection, rx: StateProjection, path: Path, title: str, legend: tuple
) -> None:
    """Two-panel Bloch sphere scatter colored by label, in the fixed
    orthographic view.  Called by :func:`write_figures`, which checked the
    tables."""
    radius = _PANEL / 2 - 14.0

    def panel(table: StateProjection, x0: float, name: str) -> tuple:
        cx, cy = x0 + _PANEL / 2, _MARGIN + _PANEL / 2
        frame = [
            *_sphere_wireframe(cx, cy, radius),
            f'<text x="{_fmt(cx)}" y="{_fmt(_MARGIN - 8)}" font-size="13" '
            f'fill="#333" text-anchor="middle">{name}</text>',
        ]
        u, v = _project(*table.bloch.T)
        return frame, cx + radius * u, cy - radius * v, np.zeros(len(u), bool)

    comment = "<!-- Bloch sphere, orthographic projection, azimuth 30 deg, elevation 20 deg -->"
    _figure(comment, panel, tx, rx, path, title, legend)


def write_figures(out_dir, channel, tx, tx_labels, rx, rx_labels) -> tuple[str, str]:
    """Write ``constellation_<channel>.svg`` and ``bloch_<channel>.svg``, titled
    by figure and channel, into ``out_dir``; return the two file names.

    The one figure entry point.  Before either file is opened, the tables
    and labels are checked (:func:`_check_tables`), so a refused pair writes
    neither, and what both figures share is derived once, as the ``legend``
    each renderer takes: each symbol's label numbered densely (tx then rx;
    so a (row, label) marker key cannot overflow), a color per distinct
    label, the legend's lines and the canvas height.  The legend has one
    key per distinct label, the symbols in increasing order, then the
    erasure label, ``_KEYS_PER_ROW`` to a row; the canvas grows by
    ``_KEY_ROW`` per legend row after the first."""
    tx_labels, rx_labels = _check_tables("figure pair", tx, tx_labels, rx, rx_labels)
    names, index = np.unique(np.concatenate([tx_labels, rx_labels]), return_inverse=True)
    colors = np.array([_color(v) for v in names.tolist()], dtype=object)
    order = np.argsort(names < 0, kind="stable")
    text = np.array(["erased" if v < 0 else f"s{v}" for v in names[order].tolist()], dtype=object)
    row, column = np.divmod(np.arange(len(names)), _KEYS_PER_ROW)
    lx, ly = _MARGIN + _KEY_PITCH * column, _MARGIN + _PANEL + 18 + _KEY_ROW * row
    lines = _filled(_KEY, lx, ly, colors[order], lx + 14, ly + 9, text, svg=True).tolist()
    height = _HEIGHT + _KEY_ROW * (-(-len(names) // _KEYS_PER_ROW) - 1)
    legend = (index, colors, lines, height)
    files = (f"constellation_{channel}.svg", f"bloch_{channel}.svg")
    # Each through its module-level name, which the part clock of bench/run.py wraps.
    render_constellation_svg(tx, rx, Path(out_dir) / files[0], f"constellation: {channel}", legend)
    render_bloch_svg(tx, rx, Path(out_dir) / files[1], f"bloch: {channel}", legend)
    return files
