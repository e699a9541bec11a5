"""Byte oracle for the artifact writers.

The writers format each table row once, compute point coordinates per
table row as arrays, and fill printf-style templates a chunk of rows at a
time.  The reference writers below do the plain thing instead: they expand
every table to one row per symbol (``table.X[table.rows]``), then a
``csv.writer`` row loop formats all eleven numbers of every row with
``format(x, ".12g")``, and SVG renderers project and draw every point on
its own with scalar arithmetic and their own ``f"{x:.2f}"`` spelling.
Both must write the same bytes, on real pipeline tables and on hand-built
tables with repeated rows, signed zeros, clipped points, erased labels,
enlarged (3x3) states, a single row, unreferenced rows, indexes taken
twice and values whose spelling is easy to get wrong.
"""

import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from conftest import apply_stack

from qlinksim import (
    Channel, ErasureConfig, embed_amplitudes, load_config, project_rows, state_rows,
)
from qlinksim import default_config_path, pipeline, visualization as vis
from qlinksim.visualization import (
    STATES_CSV_HEADER,
    StateProjection,
    render_bloch_svg,
    render_constellation_svg,
    write_states_csv,
)


def fmt(x):
    """An SVG coordinate: two decimals, with "-0.00" written as "0.00"."""
    s = f"{x:.2f}"
    return "0.00" if s == "-0.00" else s


def reference_states_csv(path, tx_rows, tx_labels, rx_rows, rx_labels):
    tx, rx = tx_rows.rows, rx_rows.rows
    values = np.column_stack(
        [tx_rows.bloch[tx], rx_rows.bloch[rx], rx_rows.trace[rx], tx_rows.iq[tx], rx_rows.iq[rx]]
    ).tolist()
    labels = zip(np.asarray(tx_labels).tolist(), np.asarray(rx_labels).tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STATES_CSV_HEADER)
        for idx, ((tx, rx), row) in enumerate(zip(labels, values)):
            writer.writerow([idx, tx, rx, *(format(float(x), ".12g") for x in row)])


def _project(x, y, z):
    u = -np.sin(vis._AZIMUTH) * x + np.cos(vis._AZIMUTH) * y
    v = (
        -np.sin(vis._ELEVATION) * np.cos(vis._AZIMUTH) * x
        - np.sin(vis._ELEVATION) * np.sin(vis._AZIMUTH) * y
        + np.cos(vis._ELEVATION) * z
    )
    return float(u), float(v)


def _marker(parts, px, py, color, clipped):
    if clipped:
        for dx, dy in ((-4, -4), (-4, 4)):
            parts.append(
                f'<line x1="{fmt(px + dx)}" y1="{fmt(py + dy)}" '
                f'x2="{fmt(px - dx)}" y2="{fmt(py - dy)}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
    else:
        parts.append(
            f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="4" fill="{color}" '
            f'fill-opacity="0.75"/>'
        )


# Legend keys sit in 62-px slots, as many to a row as fit between the
# margins; each further row of keys is 18 px lower and adds 18 px of canvas.
KEYS_PER_ROW = int((vis._WIDTH - 2 * vis._MARGIN) // 62.0)


def _legend_rows(labels):
    return -(-len(set(labels)) // KEYS_PER_ROW)


def _legend(parts, labels, x, y):
    for k, label in enumerate(sorted(set(labels), key=lambda v: (v < 0, v))):
        lx = x + 62.0 * (k % KEYS_PER_ROW)
        y_row = y + 18.0 * (k // KEYS_PER_ROW)
        name = "erased" if label < 0 else f"s{label}"
        parts.append(
            f'<rect x="{fmt(lx)}" y="{fmt(y_row)}" width="10" height="10" '
            f'fill="{vis._color(label)}"/>'
        )
        parts.append(
            f'<text x="{fmt(lx + 14)}" y="{fmt(y_row + 9)}" font-size="11" '
            f'fill="#333">{name}</text>'
        )


def _header(comment, title, labels):
    width, height = vis._WIDTH, vis._HEIGHT + 18 * (_legend_rows(labels) - 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        comment,
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{fmt(width / 2)}" y="26" font-size="15" fill="#111" '
            f'text-anchor="middle">{vis._esc(title)}</text>'
        )
    return parts


def reference_constellation_svg(tx, tx_labels, rx, rx_labels, path, title=""):
    panel, margin = vis._PANEL, vis._MARGIN
    tx_labels, rx_labels = np.asarray(tx_labels).tolist(), np.asarray(rx_labels).tolist()
    sent = np.concatenate([tx.iq[tx.rows], rx.iq[rx.rows]])
    half = 1.05 * float(np.max(np.abs(sent), initial=1.0))
    parts = _header(
        f"<!-- constellation reconstruction; axis half-range {fmt(half)} -->",
        title,
        tx_labels + rx_labels,
    )
    for table, labels, x0, name in (
        (tx, tx_labels, margin, "transmitted"),
        (rx, rx_labels, margin + panel + vis._GAP, "received"),
    ):
        y0 = margin
        cx, cy = x0 + panel / 2, y0 + panel / 2
        parts += [
            f'<rect x="{fmt(x0)}" y="{fmt(y0)}" width="{fmt(panel)}" '
            f'height="{fmt(panel)}" fill="none" stroke="#888"/>',
            f'<line x1="{fmt(x0)}" y1="{fmt(cy)}" x2="{fmt(x0 + panel)}" '
            f'y2="{fmt(cy)}" stroke="#ddd"/>',
            f'<line x1="{fmt(cx)}" y1="{fmt(y0)}" x2="{fmt(cx)}" '
            f'y2="{fmt(y0 + panel)}" stroke="#ddd"/>',
            f'<text x="{fmt(cx)}" y="{fmt(y0 - 8)}" font-size="13" fill="#333" '
            f'text-anchor="middle">{name}</text>',
            f'<text x="{fmt(x0 + panel - 4)}" y="{fmt(cy - 6)}" font-size="10" '
            f'fill="#999" text-anchor="end">I {fmt(half)}</text>',
            f'<text x="{fmt(cx + 6)}" y="{fmt(y0 + 12)}" font-size="10" '
            f'fill="#999">Q {fmt(half)}</text>',
        ]
        iq, clips = table.iq[table.rows].tolist(), table.clipped[table.rows].tolist()
        for (i, q), label, clipped in zip(iq, labels, clips):
            px = x0 + (i + half) / (2 * half) * panel
            py = y0 + (half - q) / (2 * half) * panel
            _marker(parts, px, py, vis._color(label), clipped)
    _legend(parts, tx_labels + rx_labels, margin, margin + panel + 18)
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


def reference_bloch_svg(tx, tx_labels, rx, rx_labels, path, title=""):
    panel, margin = vis._PANEL, vis._MARGIN
    tx_labels, rx_labels = np.asarray(tx_labels).tolist(), np.asarray(rx_labels).tolist()
    parts = _header(
        "<!-- Bloch sphere, orthographic projection, azimuth 30 deg, elevation 20 deg -->",
        title,
        tx_labels + rx_labels,
    )
    r = panel / 2 - 14.0
    for table, labels, x0, name in (
        (tx, tx_labels, margin, "transmitted"),
        (rx, rx_labels, margin + panel + vis._GAP, "received"),
    ):
        cx, cy = x0 + panel / 2, margin + panel / 2
        parts.append(
            f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="none" stroke="#aaa"/>'
        )
        circles = (
            lambda t: (np.cos(t), np.sin(t), 0.0),
            lambda t: (np.cos(t), 0.0, np.sin(t)),
            lambda t: (0.0, np.cos(t), np.sin(t)),
        )
        for circle in circles:
            coords = []
            for k in range(73):
                u, v = _project(*circle(2.0 * np.pi * k / 72.0))
                coords.append(f"{fmt(cx + r * u)},{fmt(cy - r * v)}")
            parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="#ddd"/>')
        for axis, axis_name in (((1.1, 0, 0), "x"), ((0, 1.1, 0), "y"), ((0, 0, 1.1), "z")):
            u, v = _project(*axis)
            parts.append(
                f'<text x="{fmt(cx + r * u)}" y="{fmt(cy - r * v)}" font-size="11" '
                f'fill="#666" text-anchor="middle">{axis_name}</text>'
            )
        parts.append(
            f'<text x="{fmt(cx)}" y="{fmt(margin - 8)}" font-size="13" '
            f'fill="#333" text-anchor="middle">{name}</text>'
        )
        for xyz, label in zip(table.bloch[table.rows].tolist(), labels):
            u, v = _project(*xyz)
            _marker(parts, cx + r * u, cy - r * v, vis._color(label), False)
    _legend(parts, tx_labels + rx_labels, margin, margin + panel + 18)
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


WRITERS = (
    ("states.csv", write_states_csv, reference_states_csv),
    ("constellation.svg", render_constellation_svg, reference_constellation_svg),
    ("bloch.svg", render_bloch_svg, reference_bloch_svg),
)


def assert_same_bytes(tmp_path, tx, tx_labels, rx, rx_labels, title="oracle"):
    for name, writer, reference in WRITERS:
        fast, slow = tmp_path / f"fast_{name}", tmp_path / f"slow_{name}"
        if writer is write_states_csv:
            writer(fast, tx, tx_labels, rx, rx_labels)
            reference(slow, tx, tx_labels, rx, rx_labels)
        else:
            writer(tx, tx_labels, rx, rx_labels, fast, title=title)
            reference(tx, tx_labels, rx, rx_labels, slow, title=title)
        assert fast.read_bytes() == slow.read_bytes(), name


@pytest.mark.parametrize("mode", ["argmax", "sampled"])
def test_pipeline_tables_of_every_channel(tmp_path, monkeypatch, mode):
    calls = {}
    for (_, writer, reference) in WRITERS:
        def recording(*args, _writer=writer, _reference=reference, **kwargs):
            calls.setdefault(_writer, []).append((_reference, args, kwargs))
            return _writer(*args, **kwargs)

        # Each writer is patched on the module that calls it.
        module = pipeline if writer is write_states_csv else vis
        monkeypatch.setattr(module, writer.__name__, recording)
    cfg = load_config(default_config_path())
    cfg = dataclasses.replace(
        cfg, n_symbols=300, decision_mode=mode, output_dir=tmp_path / "run"
    )
    pipeline.run_comparison(cfg)
    assert [len(c) for c in calls.values()] == [6, 6, 6]
    for reference, args, kwargs in sum(calls.values(), []):
        path = next(a for a in args if isinstance(a, Path))
        ref = tmp_path / path.name
        reference(*(ref if a is path else a for a in args), **kwargs)
        assert path.read_bytes() == ref.read_bytes(), path.name


def table(iq, bloch=None, trace=None, clipped=()):
    """A table whose ``clipped`` rows have Bloch z = -1 (rho_00 = 0)."""
    n = len(iq)
    bloch = np.zeros((n, 3)) if bloch is None else np.array(bloch, dtype=float)
    bloch[list(clipped), 2] = -1.0
    return StateProjection(
        bloch=bloch,
        trace=np.ones(n) if trace is None else np.asarray(trace, dtype=float),
        iq=np.asarray(iq, dtype=float).reshape(n, 2),
    )


def test_repeated_rows(tmp_path):
    rng = np.random.default_rng(7)
    points = rng.standard_normal((3, 2))
    spins = rng.standard_normal((3, 3))
    pick = rng.integers(0, 3, size=200)
    rows = table(points[pick], bloch=spins[pick])
    # The same point under several labels, and several points under one label.
    labels = rng.integers(-1, 4, size=200)
    assert_same_bytes(tmp_path, rows, pick, rows.take(rng.permutation(200)), labels)


def test_signed_zeros_in_one_column(tmp_path):
    zeros = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)] * 3
    spins = [(-0.0, 0.0, 1.0), (0.0, -0.0, 1.0)] * 6
    rows = table(zeros, bloch=spins, trace=[1.0, -0.0] * 6)
    assert_same_bytes(tmp_path, rows, [0, 1] * 6, rows, [1, 0, -1] * 4)
    assert b",-0,0," in (tmp_path / "fast_states.csv").read_bytes()


def test_clipped_points_and_erased_labels(tmp_path):
    # The same point and label, clipped and not clipped, keeps both markers.
    rx = table([(1.5, 0.0), (1.5, 0.0), (-0.3, 0.2), (1.5, 0.0)], clipped=[0, 3])
    tx = table([(1.0, 0.0), (1.0, 0.0), (-0.3, 0.2), (1.0, 0.0)])
    assert_same_bytes(tmp_path, tx, [0, 0, 1, 0], rx, [-1, -1, 1, 0])


def test_enlarged_erasure_outputs(tmp_path):
    rng = np.random.default_rng(8)
    alphas = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    sent = embed_amplitudes(alphas)
    received = apply_stack(Channel(ErasureConfig(p=0.3)), sent)
    assert received.shape[1:] == (3, 3)
    symbols = rng.integers(0, 6, size=50)
    tx = project_rows(state_rows(sent), clip_radius=2.0).take(symbols)
    rx = project_rows(state_rows(received), clip_radius=2.0).take(symbols)
    assert_same_bytes(tmp_path, tx, symbols, rx, np.where(symbols % 2, symbols, -1))


def test_single_row(tmp_path):
    rows = table([(0.25, -0.5)], bloch=[(0.1, -0.2, 0.3)], trace=[0.9])
    assert_same_bytes(tmp_path, rows, [3], rows, [-1])


def test_indexed_tables(tmp_path):
    # One row per distinct state, with clipped and unused rows, indexed by symbol.
    rng = np.random.default_rng(9)
    states = table(rng.standard_normal((6, 2)), bloch=rng.standard_normal((6, 3)), clipped=[3])
    pick = rng.integers(0, 5, size=120)
    labels = rng.integers(-1, 3, size=120)
    assert_same_bytes(tmp_path, states.take(pick), pick, states.take(pick[::-1]), labels)


def test_unreferenced_row_does_not_widen_the_axes(tmp_path):
    # Row 1 has the largest |iq| but no symbol uses it.
    states = table([(2.0, 0.0), (0.0, -4.0), (-0.5, 0.5)])
    tx, rx = states.take([0, 2, 0]), states.take([2, 2, 0])
    assert_same_bytes(tmp_path, tx, [0, 2, 0], rx, [2, 2, -1])
    assert "axis half-range 2.10 " in (tmp_path / "fast_constellation.svg").read_text()


def test_take_of_take_is_a_view(tmp_path):
    rng = np.random.default_rng(10)
    states = table(rng.standard_normal((4, 2)), bloch=rng.standard_normal((4, 3)))
    first = rng.integers(0, 4, size=30)
    second = rng.integers(0, 30, size=50)
    twice = states.take(first).take(second)
    assert len(twice) == 50 and np.array_equal(twice.rows, first[second])
    for name in ("bloch", "trace", "iq"):
        assert np.shares_memory(getattr(twice, name), getattr(states, name)), name
    once = states.take(first[second])
    assert_same_bytes(tmp_path, twice, second % 4, once, second % 3)


def test_labels_far_apart(tmp_path):
    # A (row, label) key of row * (label range) + label would wrap around
    # int64 here and give row 4 with label -1 the marker of row 0 with label 7.
    states = table([(0.1 * k, 0.0) for k in range(5)])
    labels = [7, -1, 2**62]
    assert_same_bytes(tmp_path, states.take([0, 4, 1]), [0, 4, 1], states.take([0, 4, 1]), labels)


def bloch_at(points):
    """Bloch vectors (on the y = 0 plane) that the transmitted Bloch panel
    draws at the given (px, py) points, up to roundoff."""
    cx = cy = vis._MARGIN + vis._PANEL / 2
    r = vis._PANEL / 2 - 14.0
    sin_az, cos_az = np.sin(vis._AZIMUTH), np.cos(vis._AZIMUTH)
    sin_el, cos_el = np.sin(vis._ELEVATION), np.cos(vis._ELEVATION)
    px, py = np.asarray(points, dtype=float).T
    x = (cx - px) / (r * sin_az)
    z = ((cy - py) / r + sin_el * cos_az * x) / cos_el
    return np.column_stack([x, np.zeros_like(x), z])


def test_adversarial_values(tmp_path):
    # Spellings that are easy to get wrong: signed zeros, the smallest
    # subnormal, huge and integral magnitudes, an inexact sum and values on
    # a 12-digit rounding edge in the CSV; coordinates that print as -0.00
    # and sit on a .xx5 edge in the Bloch panel; and clipped crosses.
    values = [
        -0.0, -0.004, 5e-324, 1e300, -1e300, 1e16, 0.1 + 0.2,
        0.1234567890125, 1.0000000000005, -9.9999999999995, 2.675, 1.005,
    ]
    n = len(values)
    spins = np.array([np.roll(values, -k)[:3] for k in range(n)])
    coordinates = [
        (-0.004, 240.0), (-0.0049, 12.345), (0.004, -0.004), (12.345, 12.355),
        (0.125, 0.375), (-12.005, 2.675),
    ]
    spins[: len(coordinates)] = bloch_at(coordinates)
    # Clipped rows keep clear of those six; tx row 7 and rx row 4 have
    # z = -9.99..., which clips too.
    tx = table(
        np.column_stack([values, values[::-1]]), bloch=spins,
        trace=np.roll(values, 3), clipped=[7, 9, 11],
    )
    rx = table(
        np.column_stack([np.roll(values, 5), values]), bloch=spins[::-1],
        trace=values, clipped=[0, 4],
    )
    symbols = np.arange(n)
    assert_same_bytes(tmp_path, tx, symbols % 4, rx, symbols % 3 - 1)
    csv_text = (tmp_path / "fast_states.csv").read_text()
    spellings = ("-0", "-0.004", "4.94065645841e-324", "1e+300", "-1e+300", "1e+16", "0.3")
    for spelling in spellings:
        assert f",{spelling}," in csv_text, spelling
    # The first three points would print -0.00 unless rewritten.
    u, v = _project(*spins[0])
    assert f"{vis._MARGIN + vis._PANEL / 2 + (vis._PANEL / 2 - 14.0) * u:.2f}" == "-0.00"
    bloch_text = (tmp_path / "fast_bloch.svg").read_text()
    assert '<circle cx="0.00" cy="240.00"' in bloch_text and "-0.00" not in bloch_text
    assert (tmp_path / "fast_constellation.svg").read_text().count('stroke-width="1.5"') == 10
    # Crosses whose ends sit on .xx5 edges in the constellation panel, where
    # the I/Q table's 1e300 above put every point at the centre.
    half, x0 = 1.05 * 2.0, vis._MARGIN
    px, py = np.array([(100.005, 300.015), (123.455, 254.445), (236.125, 244.875)]).T
    i = (px - x0) / vis._PANEL * 2 * half - half
    q = half - (py - x0) / vis._PANEL * 2 * half
    iq = np.column_stack([i, q])
    edges = table(np.vstack([iq, [(2.0, 0.0)]]), clipped=[0, 1, 2])
    assert_same_bytes(tmp_path, edges, [0, 1, 2, 3], edges, [3, 2, 1, 0])
    assert (tmp_path / "fast_constellation.svg").read_text().count('stroke-width="1.5"') == 12


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_chunk_boundaries(tmp_path, monkeypatch, chunk):
    # Rows, pairs, markers and lines filled a few at a time, so that chunks
    # split repeated rows and pairs, and markers of both shapes.
    monkeypatch.setattr(vis, "_CHUNK", chunk)
    rng = np.random.default_rng(11)
    states = table(rng.standard_normal((5, 2)), bloch=rng.standard_normal((5, 3)), clipped=[1, 3])
    received = table(
        rng.standard_normal((40, 2)), bloch=rng.standard_normal((40, 3)), clipped=[0, 7]
    )
    pick = rng.integers(0, 5, size=40)
    labels = rng.integers(-1, 4, size=40)
    assert_same_bytes(tmp_path, states.take(pick), pick, received, labels)
    assert_same_bytes(tmp_path, states.take(pick), pick, states.take(pick[::-1]), labels)
