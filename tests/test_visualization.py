import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import pure, random_density

from qlinksim import (
    Channel,
    DepolarizingConfig,
    ErasureConfig,
    embed_amplitudes,
    project_states,
    qam_constellation,
    render_bloch_svg,
    render_constellation_svg,
    write_states_csv,
)
from qlinksim.visualization import StateProjection, read_states_csv


def stack(states):
    return np.stack([getattr(rho, "mat", rho) for rho in states])


class TestConstellationPoint:
    def test_identity_recovery(self):
        rng = np.random.default_rng(81)
        alphas = [complex(*rng.standard_normal(2)) for _ in range(30)]
        table = project_states(embed_amplitudes(alphas))
        for alpha, (i, q), clipped in zip(alphas, table.iq, table.clipped):
            assert i + 1j * q == pytest.approx(alpha, abs=1e-12)
            assert not clipped

    def test_power_scale_inverted(self):
        alphas, _, scale = qam_constellation(16)
        table = project_states(embed_amplitudes(alphas), power_scale=scale)
        for alpha, (i, q) in zip(alphas, table.iq):
            assert i + 1j * q == pytest.approx(alpha / scale, abs=1e-9)

    def test_ground_state_at_origin(self):
        table = project_states(stack([pure(1, 0)]))
        assert tuple(table.iq[0]) == (0.0, 0.0)

    def test_excited_state_clips(self):
        table = project_states(stack([pure(0, 1)]), clip_radius=2.0)
        (i, q), = table.iq
        assert table.clipped[0]
        assert i**2 + q**2 == pytest.approx(4.0, abs=1e-9)

    def test_clip_direction_follows_coherence(self):
        # rho00 tiny but rho10 dominated by a negative real coherence
        eps = 1e-12
        amp = np.sqrt(eps)
        rho = pure(amp, -np.sqrt(1 - eps))
        table = project_states(stack([rho]), clip_radius=1.5)
        assert table.clipped[0]
        assert table.iq[0, 0] == pytest.approx(-1.5, abs=1e-6)

    def test_fully_erased_state_projects_to_the_origin(self):
        erased = Channel(ErasureConfig(p=1.0)).apply_batch(embed_amplitudes([0.7 - 0.2j]))
        table = project_states(erased)
        assert table.bloch.tolist() == [[0.0, 0.0, 0.0]]
        assert table.iq.tolist() == [[0.0, 0.0]]
        assert table.trace.tolist() == [0.0] and not table.clipped[0]

    def test_erasure_output_recovers_alpha(self):
        alpha = 0.7 - 0.2j
        enlarged = Channel(ErasureConfig(p=0.4)).apply_batch(embed_amplitudes([alpha]))
        (i, q), = project_states(enlarged).iq
        assert i + 1j * q == pytest.approx(alpha, abs=1e-9)


class TestBlochPoints:
    def test_pure_inputs_unit_norm(self):
        rng = np.random.default_rng(82)
        alphas = [complex(*rng.standard_normal(2)) for _ in range(10)]
        table = project_states(embed_amplitudes(alphas))
        for vec, trace in zip(table.bloch, table.trace):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
            assert trace == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_norm_halves(self):
        rho = pure(0.8, 0.6)
        depolarized = Channel(DepolarizingConfig(p=0.5)).apply_batch(stack([rho]))
        before, after = project_states(np.concatenate([stack([rho]), depolarized])).bloch
        assert np.linalg.norm(after) == pytest.approx(0.5 * np.linalg.norm(before), abs=1e-9)

    def test_erasure_keeps_direction_reports_renorm(self):
        rho = embed_amplitudes([0.3 + 0.5j])[0]
        vec_in, = project_states(stack([rho])).bloch
        erased = project_states(Channel(ErasureConfig(p=0.25)).apply_batch(stack([rho])))
        assert erased.trace[0] == pytest.approx(0.75, abs=1e-12)
        assert np.allclose(vec_in, erased.bloch[0])

    def test_norms_bounded(self):
        rng = np.random.default_rng(83)
        for vec in project_states(stack(random_density(rng, 2) for _ in range(40))).bloch:
            assert np.linalg.norm(vec) <= 1 + 1e-9


def table(iq=None, bloch=None, clipped=()):
    """Projection rows with the given I/Q or Bloch columns; ``clipped`` lists clipped rows."""
    n = len(iq if iq is not None else bloch)
    flags = np.zeros(n, dtype=bool)
    flags[list(clipped)] = True
    return StateProjection(
        bloch=np.zeros((n, 3)) if bloch is None else np.asarray(bloch, dtype=float),
        trace=np.ones(n),
        iq=np.zeros((n, 2)) if iq is None else np.asarray(iq, dtype=float).reshape(n, 2),
        clipped=flags,
    )


class TestStateProjection:
    def test_rows_default_to_one_symbol_per_row(self):
        states = table(iq=[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
        assert states.rows.tolist() == [0, 1, 2] and len(states) == 3

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0, 1]], "1-D integer"),
            ([0.0, 1.0], "1-D integer"),
            ([True, False], "1-D integer"),
            ([0, 3], r"index the 3 table rows, got \[0, 3\]"),
            ([-1, 0], r"index the 3 table rows, got \[-1, 0\]"),
        ],
    )
    def test_bad_rows_rejected(self, rows, message):
        states = table(iq=[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
        with pytest.raises(ValueError, match=message):
            StateProjection(states.bloch, states.trace, states.iq, states.clipped, np.array(rows))


class TestStatesCsvMemory:
    """The states CSV writer holds the text of its tables and of one chunk of
    lines, never of every symbol's line."""

    # On these tables, a writer that joins one f-string per symbol peaks at
    # 6.1 and 63 MiB, and one that fills a template over all 2x10^5 lines at
    # 93 and 179 MiB.
    @pytest.mark.parametrize(
        "m_rx, bound_mib", [(16, 6.1), (200_000, 61.0)], ids=["deterministic", "stochastic"]
    )
    def test_peak_at_2e5_symbols(self, tmp_path, m_rx, bound_mib):
        n, rng = 200_000, np.random.default_rng(11)

        def rows(m):
            return StateProjection(
                bloch=rng.uniform(-1, 1, (m, 3)), trace=rng.uniform(0.5, 1, m),
                iq=rng.standard_normal((m, 2)), clipped=np.zeros(m, dtype=bool),
            )

        symbols = rng.integers(0, 16, n)
        tx = rows(16).take(symbols)
        rx = rows(m_rx).take(symbols if m_rx == 16 else np.arange(n))
        tracemalloc.start()
        try:
            write_states_csv(tmp_path / "states.csv", tx, rx, symbols, rng.integers(-1, 16, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, peak / 2**20


def _tx_rx_points():
    tx = table(iq=[(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
    rx = table(iq=[(0.9, 1.1), (-1.2, 0.8), (1.5, 0.0)], clipped=[2])
    return tx, [0, 1, 2], rx, [0, 1, -1]


class TestRenderConstellation:
    def test_valid_xml(self, tmp_path):
        path = tmp_path / "c.svg"
        render_constellation_svg(*_tx_rx_points(), path, title="test")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_constellation_svg(*_tx_rx_points(), a)
        render_constellation_svg(*_tx_rx_points(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_sixteen_distinct_colors(self, tmp_path):
        pts = table(iq=[(0.1 * k, 0.0) for k in range(16)])
        path = tmp_path / "c.svg"
        render_constellation_svg(pts, range(16), pts, range(16), path)
        text = path.read_text()
        colors = {
            seg.split('"')[0]
            for seg in text.split('fill="#')[1:]
            if not seg.startswith(("ffffff", "111", "333", "999"))
        }
        assert len(colors) >= 16

    def test_clipped_marker_is_cross(self, tmp_path):
        path = tmp_path / "c.svg"
        render_constellation_svg(*_tx_rx_points(), path)
        text = path.read_text()
        # exactly one clipped point -> two stroked cross segments beyond the axes
        assert text.count("<line") == 2 * 2 + 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            render_constellation_svg(table(iq=[]), [], table(iq=[]), [], tmp_path / "c.svg")

    def test_one_label_per_row(self, tmp_path):
        tx, tx_labels, rx, rx_labels = _tx_rx_points()
        with pytest.raises(ValueError, match="one label per"):
            render_constellation_svg(tx, tx_labels, rx, rx_labels[:2], tmp_path / "c.svg")


class TestRenderBloch:
    def test_valid_xml_and_deterministic(self, tmp_path):
        pts = table(bloch=[(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_bloch_svg(pts, [0, 1], pts, [0, 1], a, title="spin")
        render_bloch_svg(pts, [0, 1], pts, [0, 1], b, title="spin")
        assert ET.parse(a).getroot().tag.endswith("svg")
        assert a.read_bytes() == b.read_bytes()

    def test_north_pole_renders_at_top(self, tmp_path):
        path = tmp_path / "b.svg"
        north = table(bloch=[(0, 0, 1)])
        render_bloch_svg(north, [0], north, [0], path)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        circles = [
            c
            for c in root.findall(".//svg:circle", ns)
            if c.get("fill") not in (None, "none")
        ]
        panel_cx, panel_cy, radius = 240.0, 240.0, 176.0
        cx, cy = float(circles[0].get("cx")), float(circles[0].get("cy"))
        assert cx == pytest.approx(panel_cx, abs=0.01)
        assert cy == pytest.approx(panel_cy - radius * np.cos(np.deg2rad(20)), abs=0.01)

    def test_points_inside_outline(self, tmp_path):
        rng = np.random.default_rng(84)
        pts = [(random_density(rng, 2), int(rng.integers(0, 4))) for _ in range(50)]
        rows = project_states(stack(rho for rho, _ in pts))
        labels = [label for _, label in pts]
        path = tmp_path / "b.svg"
        render_bloch_svg(rows, labels, rows, labels, path)
        root = ET.parse(path).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        outlines = [c for c in root.findall(".//svg:circle", ns) if c.get("fill") == "none"]
        dots = [c for c in root.findall(".//svg:circle", ns) if c.get("fill", "none") != "none"]
        radius = float(outlines[0].get("r"))
        centers = [(float(c.get("cx")), float(c.get("cy"))) for c in outlines]
        for dot in dots:
            x, y = float(dot.get("cx")), float(dot.get("cy"))
            dist = min(np.hypot(x - cx, y - cy) for cx, cy in centers)
            assert dist <= radius + 1e-6

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            render_bloch_svg(table(bloch=[]), [], table(bloch=[]), [], tmp_path / "b.svg")


class TestLabelCheck:
    """Every writer and the states CSV reader take labels as a 1-D integer
    array of symbols and erasures (-1), and reject others before any file
    is opened."""

    @pytest.mark.parametrize(
        "labels, message",
        [([0.0, 1.0], "must be a 1-D integer array, got float64"),
         ([0, -2], "must be >= -1, got -2 at index 1"),
         (np.array([0, 2**63], dtype=np.uint64),
          r"must be <= 2\*\*63 - 1, got 9223372036854775808 at index 1"),
         (np.array([0, 2**64 - 1], dtype=np.uint64),
          r"must be <= 2\*\*63 - 1, got 18446744073709551615 at index 1")],
        ids=["float", "below-erasure", "above-int64", "wraps-to-erasure"],
    )
    @pytest.mark.parametrize("writer", ["states_csv", "constellation", "bloch"])
    def test_writers_reject(self, tmp_path, writer, labels, message):
        rows, path = table(iq=[(0.5, 0.0), (0.0, 0.5)]), tmp_path / "out"
        with pytest.raises(ValueError, match=f"rx_labels {message}"):
            if writer == "states_csv":
                write_states_csv(path, rows, rows, [0, 1], labels)
            else:
                render = {"constellation": render_constellation_svg, "bloch": render_bloch_svg}
                render[writer](rows, [0, 1], rows, labels, path)
        assert not path.exists()

    @pytest.mark.parametrize("writer", ["states_csv", "constellation", "bloch"])
    def test_mixed_integer_dtypes_write_the_same_bytes(self, tmp_path, writer):
        # tx and rx labels of different integer dtypes are drawn as int64
        # labels: concatenating int64 with uint64 gives float64 otherwise.
        rows = table(iq=[(0.5, 0.0), (0.0, 0.5), (0.3, 0.3)])
        tx, rx = np.array([0, 1, 2]), np.array([2, 1, 0])
        written = []
        for rx_labels in (rx, rx.astype(np.uint64), rx.astype(np.uint8)):
            path = tmp_path / f"{writer}_{rx_labels.dtype}"
            if writer == "states_csv":
                write_states_csv(path, rows, rows, tx, rx_labels)
            else:
                render = {"constellation": render_constellation_svg, "bloch": render_bloch_svg}
                render[writer](rows, tx, rows, rx_labels, path)
            written.append(path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    @pytest.mark.parametrize(
        "cell, message",
        [("0.0", "line 3, column tx_label: expected an integer, got '0.0'"),
         ("-2", "column tx_label must be >= -1, got -2 at index 1")],
    )
    def test_reader_rejects(self, tmp_path, cell, message):
        rows, path = table(iq=[(0.5, 0.0), (0.0, 0.5)]), tmp_path / "states.csv"
        write_states_csv(path, rows, rows, [0, 1], [0, -1])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("1,1,-1,", f"1,{cell},-1,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
            read_states_csv(path)
