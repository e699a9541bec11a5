import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import apply_stack, pure, random_density

from qlinksim import (
    Channel,
    DepolarizingConfig,
    ErasureConfig,
    embed_amplitudes,
    project_rows,
    qam_codebook,
    qam_constellation,
    qpsk_codebook,
    render_bloch_svg,
    render_constellation_svg,
    state_rows,
    write_states_csv,
)
from qlinksim.visualization import StateProjection, read_states_csv, write_figures


def stack(states):
    return np.stack([getattr(rho, "mat", rho) for rho in states])


class TestConstellationPoint:
    def test_identity_recovery(self):
        rng = np.random.default_rng(81)
        alphas = [complex(*rng.standard_normal(2)) for _ in range(30)]
        table = project_rows(state_rows(embed_amplitudes(alphas)))
        for alpha, (i, q), clipped in zip(alphas, table.iq, table.clipped):
            assert i + 1j * q == pytest.approx(alpha, abs=1e-12)
            assert not clipped

    def test_power_scale_inverted(self):
        alphas, _, scale = qam_constellation(16)
        table = project_rows(state_rows(embed_amplitudes(alphas)), power_scale=scale)
        for alpha, (i, q) in zip(alphas, table.iq):
            assert i + 1j * q == pytest.approx(alpha / scale, abs=1e-9)

    def test_ground_state_at_origin(self):
        table = project_rows(state_rows(stack([pure(1, 0)])))
        assert tuple(table.iq[0]) == (0.0, 0.0)

    def test_excited_state_clips(self):
        table = project_rows(state_rows(stack([pure(0, 1)])), clip_radius=2.0)
        (i, q), = table.iq
        assert table.clipped[0]
        assert i**2 + q**2 == pytest.approx(4.0, abs=1e-9)

    def test_clip_direction_follows_coherence(self):
        # rho00 tiny but rho10 dominated by a negative real coherence
        eps = 1e-12
        amp = np.sqrt(eps)
        rho = pure(amp, -np.sqrt(1 - eps))
        table = project_rows(state_rows(stack([rho])), clip_radius=1.5)
        assert table.clipped[0]
        assert table.iq[0, 0] == pytest.approx(-1.5, abs=1e-6)

    def test_fully_erased_state_projects_to_the_origin(self):
        erased = apply_stack(Channel(ErasureConfig(p=1.0)), embed_amplitudes([0.7 - 0.2j]))
        table = project_rows(state_rows(erased))
        assert table.bloch.tolist() == [[0.0, 0.0, 0.0]]
        assert table.iq.tolist() == [[0.0, 0.0]]
        assert table.trace.tolist() == [0.0] and not table.clipped[0]

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"power_scale": -1.0}, "power_scale must be finite and > 0, got -1.0"),
         ({"power_scale": np.inf}, "power_scale must be finite and > 0, got inf"),
         ({"power_scale": 0.0}, "power_scale must be finite and > 0, got 0.0"),
         ({"clip_radius": -1.5}, "clip_radius must be finite and > 0, got -1.5")],
        ids=["negative-scale", "infinite-scale", "zero-scale", "negative-clip-radius"],
    )
    def test_bad_scale_or_clip_radius_rejected(self, kwargs, message):
        # Each would mirror, collapse or divide by zero instead.
        rows = state_rows(stack([pure(0.8, 0.6), pure(0, 1)]))
        with pytest.raises(ValueError, match=re.escape(message)):
            project_rows(rows, **kwargs)

    def test_erasure_output_recovers_alpha(self):
        alpha = 0.7 - 0.2j
        enlarged = apply_stack(Channel(ErasureConfig(p=0.4)), embed_amplitudes([alpha]))
        (i, q), = project_rows(state_rows(enlarged)).iq
        assert i + 1j * q == pytest.approx(alpha, abs=1e-9)


class TestBlochPoints:
    def test_pure_inputs_unit_norm(self):
        rng = np.random.default_rng(82)
        alphas = [complex(*rng.standard_normal(2)) for _ in range(10)]
        table = project_rows(state_rows(embed_amplitudes(alphas)))
        for vec, trace in zip(table.bloch, table.trace):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
            assert trace == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_norm_halves(self):
        rho = pure(0.8, 0.6)
        depolarized = apply_stack(Channel(DepolarizingConfig(p=0.5)), stack([rho]))
        before, after = project_rows(state_rows(np.concatenate([stack([rho]), depolarized]))).bloch
        assert np.linalg.norm(after) == pytest.approx(0.5 * np.linalg.norm(before), abs=1e-9)

    def test_erasure_keeps_direction_reports_renorm(self):
        rho = embed_amplitudes([0.3 + 0.5j])[0]
        vec_in, = project_rows(state_rows(stack([rho]))).bloch
        received = apply_stack(Channel(ErasureConfig(p=0.25)), stack([rho]))
        erased = project_rows(state_rows(received))
        assert erased.trace[0] == pytest.approx(0.75, abs=1e-12)
        assert np.allclose(vec_in, erased.bloch[0])

    def test_norms_bounded(self):
        rng = np.random.default_rng(83)
        mats = stack(random_density(rng, 2) for _ in range(40))
        for vec in project_rows(state_rows(mats)).bloch:
            assert np.linalg.norm(vec) <= 1 + 1e-9


def table(iq=None, bloch=None, clipped=()):
    """Projection rows with the given I/Q or Bloch columns; ``clipped`` lists
    rows clipped by their Bloch z, set to -1 (rho_00 = 0)."""
    n = len(iq if iq is not None else bloch)
    bloch = np.zeros((n, 3)) if bloch is None else np.array(bloch, dtype=float).reshape(n, 3)
    bloch[list(clipped), 2] = -1.0
    return StateProjection(
        bloch=bloch,
        trace=np.ones(n),
        iq=np.zeros((n, 2)) if iq is None else np.asarray(iq, dtype=float).reshape(n, 2),
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
            StateProjection(states.bloch, states.trace, states.iq, np.array(rows))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("bloch", np.zeros((1, 3)), r"bloch must have shape \(2, 3\), got \(1, 3\)"),
            ("bloch", np.zeros((2, 2)), r"bloch must have shape \(2, 3\)"),
            ("trace", np.ones((2, 1)), r"trace must have shape \(2,\), got \(2, 1\)"),
            ("trace", 1.0, r"trace must have shape \(1,\), got \(\)"),
            ("iq", np.zeros((2, 3)), r"iq must have shape \(2, 2\)"),
            ("iq", np.zeros(2), r"iq must have shape \(2, 2\), got \(2,\)"),
            ("bloch", [[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]], "bloch must be finite"),
            ("trace", [1.0, np.inf], "trace must be finite"),
            ("iq", [[np.inf, 0.0], [0.0, 0.0]], "iq must be finite"),
        ],
    )
    def test_bad_fields_rejected(self, field, value, message):
        # The states CSV reader refuses 'nan' and 'inf' cells, and a short
        # field would fail inside the writer with a message naming none.
        fields = dict(bloch=np.zeros((2, 3)), trace=np.ones(2), iq=np.zeros((2, 2)))
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            StateProjection(**fields)

    def test_take_checks_only_the_new_rows(self, monkeypatch):
        states = table(iq=[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
        calls = []
        real = StateProjection.__post_init__

        def spy(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(StateProjection, "__post_init__", spy)
        taken = states.take(np.array([2, 0, 2]))
        assert calls == [] and taken.rows.tolist() == [2, 0, 2] and len(states) == 3
        for name in ("bloch", "trace", "iq"):
            assert getattr(taken, name) is getattr(states, name)

    def test_sequences_draw_as_arrays_do(self, tmp_path):
        # Lists pass the field checks, so they are stored as the arrays
        # checked: the figures index them per symbol.
        bloch, iq = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], [[0.5, 0.0], [1.5, 0.0]]
        lists = StateProjection(bloch=bloch, trace=[1.0, 1.0], iq=iq)
        assert lists.clipped.tolist() == [False, True]
        arrays = StateProjection(np.array(bloch), np.ones(2), np.array(iq))
        for name, states in (("lists", lists), ("arrays", arrays)):
            (tmp_path / name).mkdir()
            write_figures(tmp_path / name, "c", states, [0, 1], states, [1, 0])
        for name in ("constellation_c.svg", "bloch_c.svg"):
            drawn = (tmp_path / "lists" / name).read_bytes()
            assert drawn == (tmp_path / "arrays" / name).read_bytes(), name

    def test_clip_flags_follow_bloch_z_through_the_states_csv(self, tmp_path):
        # A caller's table whose rho_00 = (1 + z) / 2 falls below the floor
        # on row 1 only: that row is a cross wherever the table comes from.
        bloch = [(0.6, 0.0, 0.8), (0.0, 0.0, -1.0 + 1e-10), (0.0, 0.0, -1.0 + 1e-8)]
        states = table(iq=[(0.5, 0.25), (1.25, -0.5), (-0.75, 0.5)], bloch=bloch)
        assert states.clipped.tolist() == [False, True, False]
        labels = np.array([0, 1, 2])
        direct, read = tmp_path / "direct", tmp_path / "read"
        direct.mkdir()
        read.mkdir()
        write_figures(direct, "caller", states, labels, states, labels)
        drawn = (direct / "constellation_caller.svg").read_text()
        assert drawn.count('stroke-width="1.5"') == 2 * 2
        write_states_csv(tmp_path / "states.csv", states, labels, states, labels)
        write_figures(read, "caller", *read_states_csv(tmp_path / "states.csv"))
        for name in ("constellation_caller.svg", "bloch_caller.svg"):
            assert (read / name).read_bytes() == (direct / name).read_bytes(), name

    # rho_00 = (1 + z) / 2 meets the floor 1e-9 at z = -0.999999998.  Row 0
    # has rho_00 = 1e-9 - 5e-14 but is written as -0.999999998; the rest lie
    # within 2.5e-12 of the floor's z on both sides, in steps of 1e-13.
    NEAR_FLOOR = [-0.9999999980001] + [2e-9 - 1.0 + k * 1e-13 for k in range(-25, 26)]

    def _written_rule(self, zs):
        return [(1.0 + float("%.12g" % z)) / 2.0 < 1e-9 for z in zs]

    def test_clip_flags_near_the_floor_are_read_back(self, tmp_path):
        zs = self.NEAR_FLOOR
        bloch = np.zeros((len(zs), 3))
        bloch[:, 2] = zs
        states = table(iq=np.zeros((len(zs), 2)), bloch=bloch)
        expected = self._written_rule(zs)
        assert states.clipped.tolist() == expected
        assert not expected[0] and any(expected) and not all(expected)
        labels = np.zeros(len(zs), dtype=int)
        write_states_csv(tmp_path / "states.csv", states, labels, states, labels)
        tx, _, rx, _ = read_states_csv(tmp_path / "states.csv")
        assert tx.clipped.tolist() == rx.clipped.tolist() == expected

    def test_projection_pins_as_the_states_csv_reads(self, tmp_path):
        zs = np.array(self.NEAR_FLOOR)
        rows = np.column_stack([np.ones(len(zs)), np.sqrt(1.0 - zs * zs), np.zeros(len(zs)), zs])
        projected = project_rows(rows, clip_radius=1.5)
        expected = self._written_rule(zs.tolist())
        assert projected.clipped.tolist() == expected
        # A pinned point sits on the clip radius; the others at ~3e4.
        pinned = np.hypot(projected.iq[:, 0], projected.iq[:, 1]) == 1.5
        assert pinned.tolist() == expected
        labels = np.zeros(len(zs), dtype=int)
        write_states_csv(tmp_path / "states.csv", projected, labels, projected, labels)
        assert read_states_csv(tmp_path / "states.csv")[2].clipped.tolist() == expected

    @pytest.mark.parametrize(
        "index, error",
        [(np.array([3]), IndexError), (np.array([[0, 1]]), ValueError),
         (np.array([0.5]), IndexError)],
        ids=["out-of-range", "2-d", "non-integer"],
    )
    def test_take_rejects_bad_index(self, index, error):
        with pytest.raises(error):
            table(iq=[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]).take(index)


def _traced_peak(call, *args) -> int:
    """The peak of the memory tracemalloc traces during ``call(*args)``, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_tables(m_rx: int) -> tuple:
    """2x10^5 symbols on a 16-row tx table and an rx table of ``m_rx`` rows
    (16, a deterministic channel's, or one per symbol, a stochastic one's):
    tx table, tx labels, rx table, rx labels."""
    n, rng = 200_000, np.random.default_rng(11)

    def rows(m):
        return StateProjection(
            bloch=rng.uniform(-1, 1, (m, 3)), trace=rng.uniform(0.5, 1, m),
            iq=rng.standard_normal((m, 2)),
        )

    symbols = rng.integers(0, 16, n)
    tx = rows(16).take(symbols)
    rx = rows(m_rx).take(symbols if m_rx == 16 else np.arange(n))
    return tx, symbols, rx, rng.integers(-1, 16, n)


class TestStatesCsvMemory:
    """The states CSV writer holds the text of its tables and of one chunk of
    lines, never of every symbol's line; the reader holds the file's text and
    its parsed columns, never a string per cell."""

    # On these tables, a writer that joins one f-string per symbol peaks at
    # 6.1 and 63 MiB, and one that fills a template over all 2x10^5 lines at
    # 93 and 179 MiB.
    @pytest.mark.parametrize(
        "m_rx, bound_mib", [(16, 6.1), (200_000, 61.0)], ids=["deterministic", "stochastic"]
    )
    def test_peak_at_2e5_symbols(self, tmp_path, m_rx, bound_mib):
        tx, tx_labels, rx, rx_labels = _memory_tables(m_rx)
        path = tmp_path / "states.csv"
        peak = _traced_peak(write_states_csv, path, tx, tx_labels, rx, rx_labels)
        assert peak <= bound_mib * 2**20, peak / 2**20
        if m_rx == 16:
            return
        # Reading it back: a reader that holds every cell as a Python string
        # before it converts a column peaks at 8.1 times this file.
        peak = _traced_peak(read_states_csv, path)
        assert peak <= 3 * path.stat().st_size, peak / path.stat().st_size


class TestFigureMemory:
    """The figure writer holds the text of the distinct markers and of one
    chunk of markers, never a whole figure's document."""

    # On these tables, a writer that joins each whole document before writing
    # it peaks at 61-67 and 84-90 MiB.
    @pytest.mark.parametrize(
        "m_rx, bound_mib", [(16, 40.0), (200_000, 70.0)], ids=["deterministic", "stochastic"]
    )
    def test_peak_at_2e5_symbols(self, tmp_path, m_rx, bound_mib):
        peak = _traced_peak(write_figures, tmp_path, "memory", *_memory_tables(m_rx))
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


class TestLegend:
    # Every key of the legend, square and name, lies inside the canvas: the
    # keys wrap into rows and the canvas grows by a row's height for each
    # row after the first.  A name is taken to be at most 0.6 em per
    # character wide and 11 px (its font size) tall.
    @pytest.mark.parametrize("codebook", [qpsk_codebook(), qam_codebook(16), qam_codebook(64)],
                             ids=["qpsk", "qam16", "qam64"])
    @pytest.mark.parametrize("render", [render_constellation_svg, render_bloch_svg])
    def test_keys_inside_the_view_box(self, tmp_path, codebook, render):
        points = project_rows(codebook.rows, codebook.power_scale)
        sent = np.arange(codebook.M)
        received = sent.copy()
        received[::3] = -1
        path = tmp_path / "figure.svg"
        render(points, sent, points, received, path, title="legend")
        root = ET.parse(path).getroot()
        _, _, width, height = map(float, root.get("viewBox").split())
        assert (float(root.get("width")), float(root.get("height"))) == (width, height)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        squares = [r for r in root.findall("svg:rect", ns) if r.get("width") == "10"]
        names = [t for t in root.findall("svg:text", ns) if t.get("font-size") == "11"
                 and t.get("fill") == "#333"]
        assert len(squares) == len(names) == codebook.M + 1
        assert names[-1].text == "erased"
        for square in squares:
            x, y = float(square.get("x")), float(square.get("y"))
            assert 0 <= x and x + 10 <= width and 0 <= y and y + 10 <= height
        for name in names:
            x, y = float(name.get("x")), float(name.get("y"))
            assert 0 <= x and x + 0.6 * 11 * len(name.text) <= width and 11 <= y <= height
        # One row holds the QPSK legend, so its canvas keeps its height.
        if codebook.M == 4:
            assert height == 520


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
        rows = project_rows(state_rows(stack(rho for rho, _ in pts)))
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
                write_states_csv(path, rows, [0, 1], rows, labels)
            else:
                render = {"constellation": render_constellation_svg, "bloch": render_bloch_svg}
                render[writer](rows, [0, 1], rows, labels, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "writer, n_rx, message",
        [("states_csv", 0, "needs nonempty tx and rx tables"),
         ("constellation", 0, "needs nonempty tx and rx tables"),
         ("bloch", 0, "needs nonempty tx and rx tables"),
         ("states_csv", 1, "needs one label per symbol"),
         ("constellation", 1, "needs one label per symbol"),
         ("bloch", 1, "needs one label per symbol")],
        ids=["states_csv-empty", "constellation-empty", "bloch-empty", "states_csv-label-count",
             "constellation-label-count", "bloch-label-count"],
    )
    def test_refused_tables_leave_no_file(self, tmp_path, writer, n_rx, message):
        # An empty rx table, or one rx row with two labels.
        rows, path = table(iq=[(0.5, 0.0), (0.0, 0.5)]), tmp_path / "out"
        rx, rx_labels = rows.take(slice(0, n_rx)), [0, 1] if n_rx else []
        with pytest.raises(ValueError, match=message):
            if writer == "states_csv":
                write_states_csv(path, rows, [0, 1], rx, rx_labels)
            else:
                render = {"constellation": render_constellation_svg, "bloch": render_bloch_svg}
                render[writer](rows, [0, 1], rx, rx_labels, path)
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
                write_states_csv(path, rows, tx, rows, rx_labels)
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
        write_states_csv(path, rows, [0, 1], rows, [0, -1])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("1,1,-1,", f"1,{cell},-1,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
            read_states_csv(path)

    # Spellings around the writer's: decimal integers [+-]?D+ and '.12g'
    # numbers [+-]?D+(.D+)?(e[+-]?D+)?.
    SPELLINGS = [
        "0", "-0", "+7", "007", "12", "1.5", "-0.25", "1e5", "1e+05", "2.5e-07", "1E5",
        "1.", ".5", "+.5", "1.e5", "-.5e3", "1e", "e5", "1e5.5", "--1", "+-1", "1-", "1+2",
        "1.5.5", "1e999", "-1e999", "1e-999", "inf", "nan", "0x10", "1_0", " 1", "1 ", "",
        "\u0661", "99999999999999999999", "9223372036854775807", "9223372036854775808",
    ]

    @pytest.mark.parametrize("column", ["tx_i", "rx_bloch_z", "tx_label"])
    def test_reader_accepts_exactly_the_writer_spellings(self, tmp_path, column):
        # The whole-column check against the per-cell pattern it replaces.
        kind = int if column.endswith("label") else float
        pattern = r"[+-]?[0-9]+" if kind is int else r"[+-]?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?"
        rows, path = table(iq=[(0.5, 0.0), (0.0, 0.5), (0.25, 0.25)]), tmp_path / "states.csv"
        write_states_csv(path, rows, [0, 1, 2], rows, [0, -1, 2])
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index(column)
        for cell in self.SPELLINGS:
            fields = lines[2].split(",")
            fields[at] = cell
            path.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
            well_spelled = re.fullmatch(pattern, cell) is not None
            if well_spelled and kind is float:
                well_spelled = np.isfinite(float(cell))
            if well_spelled and kind is int:
                well_spelled = -(2**63) <= int(cell) < 2**63 and int(cell) >= -1
            if well_spelled:
                tx, _, rx, _ = read_states_csv(path)
                value = {"tx_i": tx.iq[1, 0], "rx_bloch_z": rx.bloch[1, 2]}.get(column)
                assert value is None or value == float(cell), cell
            else:
                with pytest.raises(ValueError, match=rf"line 3, column {column}|{column} must be"):
                    read_states_csv(path)

    def test_reader_names_the_first_fault_in_line_order(self, tmp_path):
        rows, path = table(iq=[(0.5, 0.0)] * 4), tmp_path / "states.csv"
        write_states_csv(path, rows, [0, 1, 2, 3], rows, [0, 1, 2, 3])
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index("tx_bloch_y")
        fields = lines[2].split(",")
        fields[at] = "1e999"
        lines[2] = ",".join(fields)
        lines[4] += ",9.9"
        path.write_text("\n".join(lines) + "\n")
        named = "line 3, column tx_bloch_y: expected a finite number, got '1e999'"
        with pytest.raises(ValueError, match=re.escape(f"{path}, {named}")):
            read_states_csv(path)

    def test_reader_names_a_file_changed_while_it_was_read(self, tmp_path, monkeypatch):
        rows, path = table(iq=[(0.5, 0.0)]), tmp_path / "states.csv"
        write_states_csv(path, rows, [0], rows, [0])
        loadtxt = np.loadtxt

        def rewrite_then_load(*args, **kwargs):
            path.write_text(path.read_text().replace("\n0,", "\n1,", 1))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", rewrite_then_load)
        with pytest.raises(ValueError, match=re.escape(f"{path} changed while it was read")):
            read_states_csv(path)

    def test_reader_skips_blank_lines_and_reads_crlf(self, tmp_path):
        rows, path = table(iq=[(0.5, 0.0), (0.0, 0.5)]), tmp_path / "states.csv"
        write_states_csv(path, rows, [0, 1], rows, [1, -1])
        want = read_states_csv(path)
        lines = path.read_text().splitlines()
        spaced = "\n".join([lines[0], "", lines[1], "", lines[2]])
        for text in ("\r\n".join(lines) + "\r\n", spaced):
            path.write_bytes(text.encode())
            got = read_states_csv(path)
            assert all(np.array_equal(g.iq, w.iq) for g, w in zip(got[::2], want[::2]))
            assert all(np.array_equal(g, w) for g, w in zip(got[1::2], want[1::2]))
        # A blank line still counts: the error names the line the cell is on.
        lines[2] = lines[2].replace(",1,-1,", ",x,-1,", 1)
        path.write_text("\n".join([lines[0], "", lines[1], "", lines[2]]) + "\n")
        named = "line 5, column tx_label: expected an integer, got 'x'"
        with pytest.raises(ValueError, match=named):
            read_states_csv(path)
