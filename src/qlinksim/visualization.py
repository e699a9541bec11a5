"""The per-symbol artifacts: the states CSV and two SVG figures.

This module alone writes and reads both formats.  Every writer takes a
:class:`StateProjection` table per panel (tx and rx), one row per distinct
state as :func:`project_rows` computes it, whose ``rows`` index gives each
symbol's row, and one label per symbol; a caller's complex stack is
projected as ``project_rows(state_rows(mats))``.  :func:`read_states_csv`
rebuilds the tables and labels from a states CSV, clip flags and received
traces included, so they redraw the figures of the run that wrote it.
:func:`write_figures` writes a channel's I/Q constellation (the
amplitude-ratio reconstruction of each qubit state) and Bloch sphere (a
fixed orthographic projection), each with transmitted and received panels
side by side.  All output is deterministic: fixed element
order, fixed number formatting, no timestamps.  Each table row's numbers
and each distinct (row, label) marker are formatted once, so number
formatting costs in proportion to the number of distinct states, not of
symbols; the bytes are those of formatting every symbol on its own.
Tables, markers and CSV lines are each formatted by one printf-style template
filled ``_CHUNK`` rows per '%' operation (:func:`_fill`), not by one
Python call per number, so the text held at once stays bounded.
"""

from __future__ import annotations

import copy
import itertools
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


@dataclass(frozen=True)
class StateProjection:
    """Leading-qubit-block coordinates of distinct states, and each symbol's row.

    ``bloch`` (m, 3) are the Bloch coordinates of the renormalized block,
    ``trace`` (m,) its weight before renormalization, ``iq`` (m, 2) the
    reconstructed constellation point and ``clipped`` (m,) whether that
    reconstruction diverged and was pinned at the clip radius, one row per
    state.  ``rows`` (n,) is the row of each symbol; it defaults to
    ``arange(m)``, one symbol per row.  A field of another shape, or with
    an entry that is not finite, is a ``ValueError`` naming it: the states
    CSV reader would refuse what it writes.
    """

    bloch: np.ndarray
    trace: np.ndarray
    iq: np.ndarray
    clipped: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        m = np.size(self.trace)
        for name, tail in (("trace", ()), ("bloch", (3,)), ("iq", (2,)), ("clipped", ())):
            value = np.asarray(getattr(self, name))
            if value.shape != (m, *tail):
                raise ValueError(f"{name} must have shape {(m, *tail)}, got {value.shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        rows = np.arange(m) if self.rows is None else self.rows
        object.__setattr__(self, "rows", _row_index(rows, m))

    def __len__(self) -> int:
        return len(self.rows)

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
    it falls below ``_RHO00_FLOOR``: the clip rule of a constellation point."""
    r00 = (1.0 + bloch[:, 2]) / 2.0
    return r00, r00 < _RHO00_FLOOR


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
    grid.  When rho_00 falls below ``_RHO00_FLOOR`` the ratio diverges,
    so the point is pinned at ``clip_radius`` along the direction of
    rho_10 (or along +I if even that vanishes) and flagged.
    """
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
    return StateProjection(bloch, trace, iq, clipped)


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


# What the writer emits, and so all the reader accepts (:func:`_column`):
# decimal integers [+-]?D+ and '.12g' spellings [+-]?D+(.D+)?(e[+-]?D+)?,
# D a digit (no spaces, underscores, inf or nan).  The characters of each,
# digits written as 0, and the line breaks between a column's cells:
_SPELLING = {int: "0+-\n", float: "0+-.e\n"}
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")

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
    tx_rows: StateProjection,
    rx_rows: StateProjection,
    tx_labels: Sequence[int],
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
    field needs CSV quoting: they are ints and '.12g' numbers.
    """
    if not len(tx_rows) == len(rx_rows) == len(tx_labels) == len(rx_labels):
        raise ValueError("state and label sequences must have equal lengths")
    tx_labels = _check_labels(tx_labels, "tx_labels")
    rx_labels = _check_labels(rx_labels, "rx_labels")
    tx_bloch, tx_iq = _csv_text(tx_rows.bloch), _csv_text(tx_rows.iq)
    rx_bloch, rx_iq = _csv_text(rx_rows.bloch, rx_rows.trace), _csv_text(rx_rows.iq)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(STATES_CSV_HEADER) + "\n")
        for start in range(0, len(tx_labels), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            a, b = tx_rows.rows[chunk], rx_rows.rows[chunk]
            columns = (np.arange(start, start + len(a)), tx_labels[chunk], rx_labels[chunk])
            columns += (tx_bloch[a], rx_bloch[b], tx_iq[a], rx_iq[b])
            fh.writelines(_fill(_CSV_LINE, *columns, sep=""))


def read_states_csv(path: str | Path) -> tuple:
    """Rebuild the writers' inputs from a states CSV's columns: tx table, tx
    labels, rx table, rx labels.

    A point is clipped where its Bloch z, as written, gives a rho_00 below
    ``_RHO00_FLOOR`` (:func:`_rho00`, the rule :func:`project_rows`
    applies); the rx trace is ``rx_renorm_trace`` and the tx trace 1, so
    the tables redraw the run's figures.  It accepts only what
    :func:`write_states_csv` writes: a missing cell, a cell beyond the
    header, a label or ``index`` that is not decimal digits with an optional
    sign, a number that is not a finite '.12g' spelling (sign, digits,
    optional fraction, optional exponent: no spaces, underscores, inf or
    nan) or an ``index`` that is not the row's position (0, 1, 2, ...) is
    an error naming its file, line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    missing = [c for c in STATES_CSV_HEADER if c not in header]
    if missing:
        raise ValueError(f"{path} lacks states CSV columns: {', '.join(missing)}")
    width = len(header)
    # The 1-based numbers of the data lines, blank lines skipped.
    numbers = [n for n, line in enumerate(lines[1:], 2) if line]
    if not numbers:
        raise ValueError(f"no data rows in {path}")
    body = [lines[n - 1] for n in numbers]
    commas = [line.count(",") for line in body]
    for n, line, count in zip(numbers, body, commas):
        if count >= width:
            raise ValueError(
                f"{path}, line {n}, column {width + 1}: "
                f"expected no cell beyond the header, got {line.split(',')[width]!r}"
            )
    # The cells in order; a short row's missing cells read "\n", which no
    # cell of a line holds.
    flat = ",".join(line + ",\n" * (width - 1 - c) for line, c in zip(body, commas)).split(",")
    # Each column's cells, by name; a repeated name is its last column.
    columns_of = {name: flat[j::width] for j, name in enumerate(header)}

    def cells(names, kind):
        """The named columns as one (rows, columns) array, each column parsed
        at once; if one fails, the first cell, in row order, that is not a
        ``kind`` as the writer spells it raises."""
        values = [_column(columns_of[name], kind) for name in names]
        if all(v is not None for v in values):
            return np.stack(values, axis=1)
        for at, name in itertools.product(range(len(body)), names):
            text = columns_of[name][at]
            if _column([text], kind) is None:
                what = "an integer" if kind is int else "a finite number"
                got = "nothing" if text == "\n" else repr(text)
                raise ValueError(
                    f"{path}, line {numbers[at]}, column {name}: expected {what}, got {got}"
                )

    out_of_order = np.flatnonzero(cells(["index"], int).ravel() != np.arange(len(body)))
    if out_of_order.size:
        at = int(out_of_order[0])
        got = columns_of["index"][at]
        raise ValueError(f"{path}, line {numbers[at]}, column index: expected {at}, got {got!r}")
    tables = []
    traces = {"tx": np.ones(len(body)), "rx": cells(["rx_renorm_trace"], float).ravel()}
    for side in ("tx", "rx"):
        bloch = cells([f"{side}_bloch_{a}" for a in "xyz"], float)
        table = StateProjection(
            bloch=bloch,
            trace=traces[side],
            iq=cells([f"{side}_{a}" for a in "iq"], float),
            clipped=_rho00(bloch)[1],
        )
        labels = cells([f"{side}_label"], int).ravel()
        tables += [table, _check_labels(labels, f"{path}, column {side}_label")]
    return tuple(tables)


def _column(texts, kind) -> np.ndarray | None:
    """The int64 or float values of one column's cells, or None unless every
    cell is spelled as the writer spells a ``kind`` and its value is finite
    and, for an integer, within int64.  Checked on the whole column at once:
    the cells hold only their spelling's characters, a '.' only between
    digits, and each converts, which leaves exactly the spellings above (a
    line holds no line break, so the mark "\n" of a missing cell converts to
    nothing)."""
    joined = "\n".join(texts)
    digits = joined.translate(_DIGITS_TO_ZERO)
    if digits.strip(_SPELLING[kind]) or digits.count(".") != digits.count("0.0"):
        return None
    try:
        values = np.array(texts, dtype=np.int64 if kind is int else float)
    except (OverflowError, ValueError):
        return None
    return values if np.isfinite(values).all() else None


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


_KEY = (
    '<rect x="%.2f" y="%.2f" width="10" height="10" fill="%s"/>\n'
    '<text x="%.2f" y="%.2f" font-size="11" fill="#333">%s</text>'
)


def _legend(parts: list[str], names: np.ndarray, colors: np.ndarray, x: float, y: float) -> int:
    """One key per distinct label in ``names`` (sorted, as from ``np.unique``):
    the symbols in increasing order, then the erasure label, ``_KEYS_PER_ROW``
    to a row.  Returns the number of rows."""
    order = np.argsort(names < 0, kind="stable")
    text = np.array(["erased" if v < 0 else f"s{v}" for v in names[order].tolist()], dtype=object)
    row, column = np.divmod(np.arange(len(names)), _KEYS_PER_ROW)
    lx, ly = x + _KEY_PITCH * column, y + _KEY_ROW * row
    parts.extend(_filled(_KEY, lx, ly, colors[order], lx + 14, ly + 9, text, svg=True).tolist())
    return -(-len(names) // _KEYS_PER_ROW)


_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="4" fill="%s" fill-opacity="0.75"/>'
# A clipped point: the two diagonals of a square 8 px wide around it.
_SEGMENT = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="1.5"/>'
_CROSS = _SEGMENT + "\n" + _SEGMENT


def _markers(parts: list[str], px, py, clipped, rows, labels, colors) -> None:
    """One marker per symbol, at table row ``rows[k]`` of the per-row ``px``,
    ``py`` and ``clipped``, in color ``colors[labels[k]]``: a circle, or a
    cross if clipped.  Each distinct (row, label) pair is formatted once, by
    one template per marker shape."""
    keys, inverse = np.unique(rows.astype(np.int64) * len(colors) + labels, return_inverse=True)
    row, label = np.divmod(keys, len(colors))
    x, y, cross, color = px[row], py[row], clipped[row].astype(bool), colors[label]
    text = np.empty(len(keys), dtype=object)
    text[~cross] = _filled(_CIRCLE, x[~cross], y[~cross], color[~cross], svg=True)
    x, y, c = x[cross], y[cross], color[cross]
    text[cross] = _filled(
        _CROSS, x - 4, y - 4, x + 4, y + 4, c, x - 4, y + 4, x + 4, y - 4, c, svg=True
    )
    parts.extend(text[inverse].tolist())


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


def _panels(parts: list[str], draw_panel, tx, tx_labels, rx, rx_labels) -> int:
    """``draw_panel(parts, table, labels, colors, x0, name)`` for both panels,
    then the legend; returns its number of rows.  ``labels`` are each symbol's
    index into ``colors``, one color per distinct label of the two panels;
    they are freed on return, before the caller joins the document."""
    # Labels are numbered densely, so a (row, label) key cannot overflow.
    names, labels = np.unique(np.concatenate([tx_labels, rx_labels]), return_inverse=True)
    colors = np.array([_color(v) for v in names.tolist()], dtype=object)
    draw_panel(parts, tx, labels[: len(tx)], colors, _MARGIN, "transmitted")
    draw_panel(parts, rx, labels[len(tx) :], colors, _MARGIN + _PANEL + _GAP, "received")
    return _legend(parts, names, colors, _MARGIN, _MARGIN + _PANEL + 18)


def _figure(
    what: str, comment: str, draw_panel, tx: StateProjection, tx_labels,
    rx: StateProjection, rx_labels, path: str | Path, title: str,
) -> None:
    """Write the header, both panels (see :func:`_panels`) and the legend to
    ``path``; the canvas grows by ``_KEY_ROW`` per legend row after the first."""
    if not len(tx) or not len(rx):
        raise ValueError(f"{what} rendering needs nonempty tx and rx tables")
    if len(tx_labels) != len(tx) or len(rx_labels) != len(rx):
        raise ValueError(f"{what} rendering needs one label per symbol")
    tx_labels = _check_labels(tx_labels, "tx_labels")
    rx_labels = _check_labels(rx_labels, "rx_labels")
    body: list[str] = []
    height = _HEIGHT + _KEY_ROW * (_panels(body, draw_panel, tx, tx_labels, rx, rx_labels) - 1)
    body.append("</svg>")
    header = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">',
        comment,
        f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        header.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="26" font-size="15" fill="#111" '
            f'text-anchor="middle">{_esc(title)}</text>'
        )
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        for part in (header, body):
            fh.write("\n".join(part))
            fh.write("\n")


def render_constellation_svg(
    tx: StateProjection,
    tx_labels: Sequence[int],
    rx: StateProjection,
    rx_labels: Sequence[int],
    path: str | Path,
    title: str = "",
) -> None:
    """Two-panel I/Q scatter colored by label; clipped reconstructions drawn as crosses."""
    # Over the rows the symbols use, so a state never sent cannot widen the axes.
    sent = np.concatenate([tx.iq[tx.rows], rx.iq[rx.rows]])
    half = 1.05 * float(np.max(np.abs(sent), initial=1.0))

    def draw_panel(parts, table: StateProjection, labels, colors, x0: float, name: str) -> None:
        y0 = _MARGIN
        cx, cy = x0 + _PANEL / 2, y0 + _PANEL / 2
        parts += [
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
        _markers(parts, px, py, table.clipped, table.rows, labels, colors)

    comment = f"<!-- constellation reconstruction; axis half-range {_fmt(half)} -->"
    _figure("constellation", comment, draw_panel, tx, tx_labels, rx, rx_labels, path, title)


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
    tx: StateProjection,
    tx_labels: Sequence[int],
    rx: StateProjection,
    rx_labels: Sequence[int],
    path: str | Path,
    title: str = "",
) -> None:
    """Two-panel Bloch sphere scatter colored by label, in the fixed orthographic view."""
    radius = _PANEL / 2 - 14.0

    def draw_panel(parts, table: StateProjection, labels, colors, x0: float, name: str) -> None:
        cx, cy = x0 + _PANEL / 2, _MARGIN + _PANEL / 2
        parts.extend(_sphere_wireframe(cx, cy, radius))
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(_MARGIN - 8)}" font-size="13" '
            f'fill="#333" text-anchor="middle">{name}</text>'
        )
        u, v = _project(*table.bloch.T)
        unclipped = np.zeros(len(u), bool)
        _markers(parts, cx + radius * u, cy - radius * v, unclipped, table.rows, labels, colors)

    comment = "<!-- Bloch sphere, orthographic projection, azimuth 30 deg, elevation 20 deg -->"
    _figure("Bloch", comment, draw_panel, tx, tx_labels, rx, rx_labels, path, title)


def write_figures(out_dir, channel, tx, tx_labels, rx, rx_labels) -> tuple[str, str]:
    """Write ``constellation_<channel>.svg`` and ``bloch_<channel>.svg``, titled
    by figure and channel, into ``out_dir``; return the two file names."""
    names = []
    for kind, render in (("constellation", render_constellation_svg), ("bloch", render_bloch_svg)):
        names.append(f"{kind}_{channel}.svg")
        render(tx, tx_labels, rx, rx_labels, Path(out_dir) / names[-1], title=f"{kind}: {channel}")
    return tuple(names)
