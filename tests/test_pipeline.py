import csv
import dataclasses
import importlib
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qlinksim import (
    BosonicConfig,
    DensityMatrix,
    DephasingConfig,
    DepolarizingConfig,
    ErasureConfig,
    PMDConfig,
    SimulationConfig,
    TurbulenceConfig,
    build_pgm,
    decide,
    default_config_path,
    derive_rng,
    load_config,
    qam_codebook,
    qpsk_codebook,
    run_comparison,
    run_simulation,
    write_states_csv,
)
import qlinksim
from qlinksim import channels, detection, modulation, pipeline, states, visualization
from qlinksim.cli import main as cli_main
from qlinksim.pipeline import (
    config_from_dict,
    config_to_dict,
    draw_symbols,
    run_channels,
)
from qlinksim.visualization import STATES_CSV_HEADER, project_rows

README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"


def qpsk_config(tmp_path, channels, n=100, seed=5, **kwargs):
    return SimulationConfig(
        modulation="qpsk",
        n_symbols=n,
        seed=seed,
        channels=channels,
        output_dir=tmp_path / "out",
        **kwargs,
    )


class NoKernelConfig(DepolarizingConfig):
    """A channel config that passes every config check but has no kernel,
    so building its channel fails."""

    kind = "nope"


def json_config(**changes):
    """A small valid JSON config with the given top-level keys replaced."""
    d = {"modulation": {"type": "qpsk"}, "n_symbols": 10, "seed": 1,
         "channels": [{"name": "a", "type": "depolarizing", "p": 0.1}]}
    d.update(changes)
    return d


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigHandling:
    def test_shipped_default_config(self):
        cfg = load_config(default_config_path())
        assert cfg.modulation == "qam"
        assert cfg.qam_order == 16
        assert cfg.n_symbols == 4000
        assert cfg.seed == 123
        assert cfg.decision_mode == "argmax"
        assert [n for n, _ in cfg.channels] == [
            "depolarizing",
            "dephasing",
            "erasure",
            "bosonic",
            "turbulence",
            "pmd",
        ]

    def test_round_trip(self):
        cfg = load_config(default_config_path())
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_numpy_and_fraction_numbers_are_stored_as_python_numbers(self, tmp_path):
        # A config built in Python may hold numpy scalars or a Fraction.  They
        # are stored as int and float, so report.json echoes them as it
        # echoes Python numbers: np.int64 made the report unwritable, and
        # np.float32 made the finiteness check warn of an overflow.
        def config(integer, real, half, out):
            return SimulationConfig(
                modulation="qam", qam_order=integer(16), n_symbols=integer(60),
                seed=integer(5), emit_states=False, emit_figures=False, output_dir=out,
                channels=(
                    ("depolarizing", DepolarizingConfig(p=real(0.25))),
                    ("bosonic", BosonicConfig(loss_db=real(3.0), n_th=half, fock_dim=integer(2))),
                    ("pmd", PMDConfig(dgd=real(0.5), sigma_omega=half, n_sections=integer(3))),
                ),
            )

        plain = config(int, float, 0.5, tmp_path / "plain")
        numbers = config(np.int64, np.float32, Fraction(1, 2), tmp_path / "numbers")
        assert dataclasses.replace(numbers, output_dir=plain.output_dir) == plain
        assert type(numbers.seed) is int and type(numbers.channels[2][1].n_sections) is int
        assert type(numbers.channels[0][1].p) is float and type(numbers.channels[1][1].n_th) is float
        echoes = []
        for cfg in (plain, numbers):
            run_comparison(cfg)
            echoes.append(json.loads((cfg.output_dir / "report.json").read_text())["config"])
            del echoes[-1]["output"]["dir"]
        assert echoes[0] == echoes[1]

    def test_numpy_bools_are_stored_as_python_bools(self, tmp_path):
        # Bool fields take numpy bools as number fields take numpy numbers;
        # integers, numpy or not, stay refused there, and numpy bools in
        # number fields.
        cfg = qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=10,
                          emit_states=np.True_, emit_figures=np.False_)
        assert type(cfg.emit_states) is bool and type(cfg.emit_figures) is bool
        assert (cfg.emit_states, cfg.emit_figures) == (True, False)
        run_comparison(cfg)
        assert json.loads((tmp_path / "out" / "report.json").read_text())["config"]["output"] == {
            "dir": str(tmp_path / "out"), "emit_states": True, "emit_figures": False,
        }
        assert (tmp_path / "out" / "states_clean.csv").exists()
        for value in (1, np.int64(1)):
            with pytest.raises(TypeError, match="emit_states must be true or false"):
                qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), emit_states=value)
        with pytest.raises(TypeError, match="n_symbols must be an integer"):
            qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=np.True_)
        with pytest.raises(TypeError, match="p must be a number"):
            DepolarizingConfig(p=np.True_)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict(
                {"modulation": {"type": "qpsk"}, "n_symbols": 10, "seed": 1,
                 "channels": [], "extra": 1}
            )

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_dict({"modulation": {"type": "qpsk"}})

    def test_channel_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            config_from_dict(
                {"modulation": {"type": "qpsk"}, "n_symbols": 10, "seed": 1,
                 "channels": [{"type": "depolarizing", "p": 0.1}]}
            )

    def test_duplicate_channel_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SimulationConfig(
                modulation="qpsk",
                n_symbols=10,
                seed=1,
                channels=(
                    ("a", DepolarizingConfig(p=0.1)),
                    ("a", DepolarizingConfig(p=0.2)),
                ),
            )

    def test_readme_example_loads(self):
        block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        cfg = config_from_dict(json.loads(block.group(1)))
        assert (cfg.modulation, cfg.qam_order) == ("qam", 16)

    def test_qpsk_rejects_qam_order(self):
        with pytest.raises(ValueError, match="'M'"):
            config_from_dict(
                {"modulation": {"type": "qpsk", "M": 64}, "n_symbols": 10, "seed": 1,
                 "channels": []}
            )

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "with space", ""])
    def test_unsafe_channel_name_rejected(self, name):
        with pytest.raises(ValueError, match="channel name"):
            SimulationConfig(
                modulation="qpsk", n_symbols=10, seed=1,
                channels=((name, DepolarizingConfig(p=0.1)),),
            )

    @pytest.mark.parametrize("name", [None, 7, True, 1.5])
    def test_channel_name_must_be_a_string(self, name):
        # The JSON loader's error, also for a config built in Python: a name
        # is not turned into the string "None", "7", "True" or "1.5".
        message = f"channel name must be a string, got {name!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            SimulationConfig(
                modulation="qpsk", n_symbols=10, seed=1,
                channels=((name, DepolarizingConfig(p=0.1)),),
            )

    @pytest.mark.parametrize(
        "changes, fields",
        [
            ({"decision_mode": 1}, {"decision_mode": 1}),
            ({"decision_mode": "ARGMAX"}, {"decision_mode": "ARGMAX"}),
            ({"modulation": {"type": "QAM"}}, {"modulation": "QAM"}),
            ({"modulation": {"type": "qam", "M": 8}}, {"modulation": "qam", "qam_order": 8}),
            ({"n_symbols": 10.9}, {"n_symbols": 10.9}),
            ({"seed": True}, {"seed": True}),
            ({"output": {"emit_figures": "false"}}, {"emit_figures": "false"}),
            ({"channels": [{"name": 5, "type": "depolarizing", "p": 0.1}]},
             {"channels": ((5, DepolarizingConfig(p=0.1)),)}),
            # M on qpsk: a Python order was ignored and dropped from the echo.
            ({"modulation": {"type": "qpsk", "M": 64}}, {"qam_order": 64}),
            # Entries that are not pairs failed on tuple unpacking.
            ({"channels": [("a",)]}, {"channels": (("a",),)}),
            ({"channels": [("a", DepolarizingConfig(p=0.1), 1)]},
             {"channels": (("a", DepolarizingConfig(p=0.1), 1),)}),
            ({"channels": ["ab"]}, {"channels": ("ab",)}),
        ],
    )
    def test_python_configs_meet_the_json_rules(self, changes, fields):
        # One statement of the schema: a config changed in Python fails with
        # the error and message the same change fails with in JSON.
        with pytest.raises((TypeError, ValueError)) as from_json:
            config_from_dict(json_config(**changes))
        with pytest.raises(from_json.type, match=f"^{re.escape(str(from_json.value))}$"):
            dataclasses.replace(config_from_dict(json_config()), **fields)

    @pytest.mark.parametrize("modulation", ["qpsk", "qam"])
    def test_required_keys_alone_take_the_dataclass_defaults(self, modulation):
        assert config_from_dict(json_config(modulation={"type": modulation})) == SimulationConfig(
            modulation=modulation, n_symbols=10, seed=1,
            channels=(("a", DepolarizingConfig(p=0.1)),),
        )

    def test_unknown_output_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown output keys: \['emit_figure'\]"):
            config_from_dict(json_config(output={"emit_figure": False}))

    @pytest.mark.parametrize("key", ["emit_states", "emit_figures"])
    def test_emit_flags_must_be_booleans(self, key):
        with pytest.raises(TypeError, match=f"{key} must be true or false"):
            config_from_dict(json_config(output={key: "false"}))

    def test_notes_must_be_a_string(self):
        with pytest.raises(TypeError, match="notes must be a string"):
            config_from_dict(json_config(notes=["a", "list"]))

    @pytest.mark.parametrize(
        "d, message",
        [
            (json_config(modulation="qam"), "modulation must be an object"),
            (json_config(output="out"), "output must be an object"),
            (json_config(channels="abc"), "channels must be a list of objects"),
            (json_config(channels=[5]), "every channel entry must be an object"),
            (json_config(output={"dir": 5}), "output.dir must be a string"),
            ([json_config()], "config must be an object"),
            (json_config(channels=[{"name": 5, "type": "depolarizing", "p": 0.1}]),
             "channel name must be a string, got 5"),
            (json_config(channels=[{"name": True, "type": "depolarizing", "p": 0.1}]),
             "channel name must be a string, got True"),
            (json_config(channels=[{"name": 1.5, "type": "depolarizing", "p": 0.1}]),
             "channel name must be a string, got 1.5"),
            (json_config(modulation={"type": 5}), "modulation.type must be a string, got 5"),
            (json_config(modulation={"type": None}),
             "modulation.type must be a string, got None"),
            (json_config(decision_mode=1), "decision_mode must be a string, got 1"),
            (json_config(decision_mode=None), "decision_mode must be a string, got None"),
        ],
    )
    def test_non_object_blocks_name_the_field(self, d, message):
        with pytest.raises(TypeError, match=message):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"modulation": {"type": "QAM"}}, "modulation.type must be 'qpsk' or 'qam', got 'QAM'"),
            ({"modulation": {"type": "Qpsk"}},
             "modulation.type must be 'qpsk' or 'qam', got 'Qpsk'"),
            ({"decision_mode": "ARGMAX"},
             "decision_mode must be 'argmax' or 'sampled', got 'ARGMAX'"),
        ],
    )
    def test_names_are_spelled_as_documented(self, changes, message):
        # Read as written: a spelling is neither case-folded nor echoed corrected.
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(json_config(**changes))

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"n_symbols": 10.9}, "n_symbols"),
            ({"n_symbols": True}, "n_symbols"),
            ({"seed": 1.5}, "seed"),
            ({"modulation": {"type": "qam", "M": 16.0}}, "qam_order"),
        ],
    )
    def test_integer_fields_must_be_integers(self, changes, field):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            config_from_dict(json_config(**changes))

    # One key repeated at each level of a config file; json alone keeps the
    # last value, so "seed": 123, "seed": 7 would run seed 7.
    DUPLICATE_KEYS = {
        "top": ('"seed": 123', '"seed": 123, "seed": 7', "seed"),
        "modulation": ('"M": 16', '"M": 16, "M": 64', "M"),
        "channel": ('"p": 0.1', '"p": 0.1, "p": 0.2', "p"),
        "output": ('"dir": "out"', '"dir": "out", "dir": "elsewhere"', "dir"),
    }

    @pytest.mark.parametrize("level", DUPLICATE_KEYS)
    def test_duplicate_json_key_rejected(self, tmp_path, level):
        once, twice, key = self.DUPLICATE_KEYS[level]
        text = (
            '{"modulation": {"type": "qam", "M": 16}, "n_symbols": 10, "seed": 123,'
            ' "channels": [{"name": "a", "type": "depolarizing", "p": 0.1}],'
            ' "output": {"dir": "out"}}'
        )
        path = tmp_path / "config.json"
        path.write_text(text)
        assert load_config(path).seed == 123
        path.write_text(text.replace(once, twice, 1))
        with pytest.raises(ValueError, match=re.escape(f"duplicate config key {key!r}")):
            load_config(path)

    def test_qam_order_checked_at_load(self):
        with pytest.raises(ValueError, match="QAM order"):
            config_from_dict(json_config(modulation={"type": "qam", "M": 8}))

    def test_channel_must_take_qubit_codebook(self):
        bosonic = {"name": "b", "type": "bosonic", "loss_db": 1.0, "fock_dim": 3}
        with pytest.raises(ValueError, match="channel 'b'.*fock_dim"):
            config_from_dict(json_config(channels=[bosonic]))

    @pytest.mark.parametrize("entry", [object(), None, {"type": "depolarizing", "p": 0.1}])
    def test_channel_entry_must_be_a_channel_config(self, entry):
        with pytest.raises(TypeError, match="^channel 'bad': expected a channel config"):
            SimulationConfig(modulation="qpsk", n_symbols=40, seed=5, channels=(("bad", entry),))

    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ({"type": "depolarizing", "p": 1.5}, ValueError, "probability must be in"),
            ({"type": "dephasing", "p": "0.5"}, TypeError, "p must be a number"),
            ({"type": "bosonic", "loss_db": -1.0}, ValueError, "loss_db must be >= 0"),
            ({"type": "fading"}, ValueError, "unknown channel type"),
            ({"type": "turbulence", "sigma_p": 0.1, "w0": 1.0, "rytov_var": 1e230},
             ValueError, "rytov_var must be 0 or in"),
        ],
    )
    def test_channel_errors_name_their_channel(self, entry, error, message):
        with pytest.raises(error, match=f"^channel 'c1': .*{message}"):
            config_from_dict(json_config(channels=[{"name": "c1", **entry}]))

    def test_decision_mode_validated(self):
        with pytest.raises(ValueError, match="decision_mode"):
            SimulationConfig(
                modulation="qpsk", n_symbols=10, seed=1,
                channels=(("a", DepolarizingConfig(p=0.1)),),
                decision_mode="vote",
            )


class TestRngDiscipline:
    def test_reproducible_streams(self):
        a = derive_rng(123, "channel", "x", 4).random(5)
        b = derive_rng(123, "channel", "x", 4).random(5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Masking made seed -1 the stream of seed 2**64 - 1.
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            derive_rng(seed, "symbols")

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)):
            assert derive_rng(seed, "symbols").random() == derive_rng(int(seed), "symbols").random()

    def test_distinct_tags_distinct_streams(self):
        a = derive_rng(123, "channel", "x", 4).random(5)
        b = derive_rng(123, "channel", "x", 5).random(5)
        c = derive_rng(123, "channel", "y", 4).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tx_stream_fixed_by_seed(self):
        cfg_a = SimulationConfig(
            modulation="qam", n_symbols=50, seed=9,
            channels=(("a", DepolarizingConfig(p=0.0)),),
        )
        assert np.array_equal(draw_symbols(cfg_a, 16), draw_symbols(cfg_a, 16))


class TestRunSimulation:
    def test_identity_channel_zero_errors(self, tmp_path):
        cfg = qpsk_config(
            tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=200,
            emit_states=False, emit_figures=False,
        )
        r = run_simulation(cfg, "clean")
        assert (r.ser, r.ber, r.ser_count, r.ber_count) == (0.0, 0.0, 0, 0)
        assert r.erasure_count == 0

    def test_full_depolarization_collapses_to_one_label(self, tmp_path):
        n = 300
        cfg = SimulationConfig(
            modulation="qam", n_symbols=n, seed=77,
            channels=(("dead", DepolarizingConfig(p=1.0)),),
            output_dir=tmp_path, emit_states=True, emit_figures=False,
        )
        r = run_simulation(cfg, "dead")
        codebook = qam_codebook(16)
        fixed = decide(build_pgm(codebook), DensityMatrix(np.eye(2) / 2))
        rows = read_csv(tmp_path / "states_dead.csv")
        assert all(int(row["rx_label"]) == fixed for row in rows)
        tx = draw_symbols(cfg, 16)
        assert r.ser == pytest.approx(1 - np.count_nonzero(tx == fixed) / n)

    def test_heavy_erasure_all_sentinel(self, tmp_path):
        cfg = qpsk_config(tmp_path, (("era", ErasureConfig(p=0.9)),), n=40)
        r = run_simulation(cfg, "era")
        assert r.erasure_count == 40
        assert r.ser == 1.0
        assert r.ber == 1.0
        rows = read_csv(tmp_path / "out" / "states_era.csv")
        assert all(int(row["rx_label"]) == -1 for row in rows)
        for row in rows:
            assert float(row["rx_renorm_trace"]) == pytest.approx(0.1, abs=1e-9)

    def test_unknown_channel_named_in_error(self, tmp_path):
        cfg = qpsk_config(tmp_path, (("a", DepolarizingConfig(p=0.1)),))
        with pytest.raises(ValueError, match="nope"):
            run_simulation(cfg, "nope")

    def test_one_stream_per_purpose(self, tmp_path, monkeypatch):
        tags = []
        real = pipeline.derive_rng

        def counting(seed, *args):
            tags.append(args)
            return real(seed, *args)

        monkeypatch.setattr(pipeline, "derive_rng", counting)
        cfg = qpsk_config(
            tmp_path, (("pmd", PMDConfig(dgd=2.0, sigma_omega=1.0)),), n=300,
            decision_mode="sampled", emit_states=False, emit_figures=False,
        )
        run_simulation(cfg, "pmd")
        assert tags == [("symbols",), ("channel", "pmd"), ("decision", "pmd")]

    def test_deterministic_channel_maps_codebook_once(self, tmp_path, monkeypatch):
        shapes = []
        real = pipeline.map_rows

        def recording(matrix, rows):
            shapes.append((matrix.shape, rows.shape))
            return real(matrix, rows)

        monkeypatch.setattr(pipeline, "map_rows", recording)
        cfg = SimulationConfig(
            modulation="qam", n_symbols=500, seed=3,
            channels=(("era", ErasureConfig(p=0.2)),), output_dir=tmp_path,
        )
        run_simulation(cfg, "era")
        assert shapes == [((1, 4, 4), (16, 4))]

    def test_artifacts_format_each_distinct_state_once(self, tmp_path, monkeypatch):
        # Table rows and markers are formatted by templates that `_fill`
        # fills once per row: count the numbers and markers those rows hold.
        counts = {"csv": 0, "marker": 0}
        real = visualization._fill

        def counting(template, *columns, **kwargs):
            rows = len(columns[0])
            counts["csv"] += rows * template.count("%.12g")
            counts["marker"] += rows * (template in (visualization._CIRCLE, visualization._CROSS))
            return real(template, *columns, **kwargs)

        monkeypatch.setattr(visualization, "_fill", counting)
        m, n = 16, 4000
        cfg = SimulationConfig(
            modulation="qam", qam_order=m, n_symbols=n, seed=3, decision_mode="sampled",
            channels=(("era", ErasureConfig(p=0.25)), ("pmd", PMDConfig(dgd=2.0, sigma_omega=1.0))),
            output_dir=tmp_path,
        )
        run_simulation(cfg, "era")
        # Per-symbol formatting would take n * 11 numbers and 4 n markers.
        assert 0 < counts["csv"] <= m * 11
        # Per renderer: m tx markers, at most m * (m + 1) (state, label) rx markers.
        assert 0 < counts["marker"] <= 2 * (m + m * (m + 1))
        # A stochastic channel's n received states are distinct; the m tx
        # states are still formatted once each.
        counts.update(csv=0, marker=0)
        run_simulation(cfg, "pmd")
        assert 0 < counts["csv"] <= 5 * m + 6 * n
        assert 0 < counts["marker"] <= 2 * (m + n)


SIX_CHANNELS = (
    ("depolarizing", DepolarizingConfig(p=0.1)),
    ("dephasing", DephasingConfig(p=0.2)),
    ("erasure", ErasureConfig(p=0.25)),
    ("bosonic", BosonicConfig(loss_db=3.0)),
    ("turbulence", TurbulenceConfig(sigma_p=0.1, w0=1.0, rytov_var=0.2)),
    ("pmd", PMDConfig(dgd=2.0, sigma_omega=1.0, n_sections=4)),
)


class TestRunComparison:
    def test_single_channel_matches_run_simulation(self, tmp_path):
        # A comparison shares one transmitter; each run_simulation builds
        # its own.  Results and artifact bytes must not tell them apart.
        for mode in ("argmax", "sampled"):
            shared = SimulationConfig(
                modulation="qam", n_symbols=60, seed=8, channels=SIX_CHANNELS,
                decision_mode=mode, output_dir=tmp_path / mode / "shared",
            )
            report = run_comparison(shared)
            alone = dataclasses.replace(shared, output_dir=tmp_path / mode / "alone")
            for name, _ in SIX_CHANNELS:
                assert report.channels[name] == run_simulation(alone, name), (mode, name)
            written = sorted(p.name for p in alone.output_dir.iterdir())
            assert len(written) == 3 * len(SIX_CHANNELS)
            for file in written:
                a = (shared.output_dir / file).read_bytes()
                assert a == (alone.output_dir / file).read_bytes(), (mode, file)

    def test_transmitter_built_once(self, tmp_path, monkeypatch):
        calls = {"codebook": 0, "pgm": 0, "symbols": 0}

        def counting(name, key):
            real = getattr(pipeline, name)

            def wrapper(*args):
                calls[key] += 1
                return real(*args)

            monkeypatch.setattr(pipeline, name, wrapper)

        counting("qam_codebook", "codebook")
        counting("build_pgm", "pgm")
        counting("draw_symbols", "symbols")
        cfg = SimulationConfig(
            modulation="qam", n_symbols=50, seed=4, channels=SIX_CHANNELS,
            output_dir=tmp_path,
        )
        run_comparison(cfg)
        assert calls == {"codebook": 1, "pgm": 1, "symbols": 1}
        # The detector is the process's; the symbols are the comparison's.
        run_comparison(dataclasses.replace(cfg, seed=5))
        assert calls == {"codebook": 1, "pgm": 1, "symbols": 2}

    def test_channel_order_irrelevant(self, tmp_path):
        turb = TurbulenceConfig(sigma_p=0.4, w0=1.0, rytov_var=1.0)
        pmd = PMDConfig(dgd=3.0, sigma_omega=1.0, n_sections=4)
        fwd = qpsk_config(tmp_path / "f", (("t", turb), ("d", pmd)), n=60)
        rev = qpsk_config(tmp_path / "r", (("d", pmd), ("t", turb)), n=60)
        a = run_comparison(fwd)
        b = run_comparison(rev)
        for name in ("t", "d"):
            assert a.channels[name].ser == b.channels[name].ser
            assert a.channels[name].ber == b.channels[name].ber
        # Sampled decisions too: each channel's slice of the stochastic
        # stack and its Born draws are its own, wherever it sits.
        three = (("t", turb), ("x", DephasingConfig(p=0.2)), ("d", pmd))
        for order, channels_ in (("fs", three), ("rs", three[::-1])):
            run_comparison(qpsk_config(tmp_path / order, channels_, n=60, decision_mode="sampled"))
        for name in ("t", "x", "d"):
            forward, reverse = (
                (tmp_path / order / "out" / f"states_{name}.csv").read_bytes()
                for order in ("fs", "rs")
            )
            assert forward == reverse, name

    def test_tx_stream_shared_across_channels(self, tmp_path):
        cfg = qpsk_config(
            tmp_path,
            (("a", DepolarizingConfig(p=0.2)), ("b", ErasureConfig(p=0.3))),
            n=50,
        )
        run_comparison(cfg)
        rows_a = read_csv(tmp_path / "out" / "states_a.csv")
        rows_b = read_csv(tmp_path / "out" / "states_b.csv")
        assert [r["tx_label"] for r in rows_a] == [r["tx_label"] for r in rows_b]

    def test_report_file_contents(self, tmp_path):
        cfg = qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=30)
        report = run_comparison(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        entry = data["channels"]["clean"]
        assert entry["ser"] == entry["ser_count"] / 30
        assert entry["ber"] == entry["ber_count"] / 60
        assert entry["bits_per_symbol"] == 2
        assert entry["artifacts"]["states_csv"] == "states_clean.csv"
        assert data["config"]["seed"] == 5
        assert data["version"] == report.version
        assert "wall_time_s" in data

    def test_report_entries_are_the_result_fields(self, tmp_path):
        cfg = qpsk_config(
            tmp_path, (("a", DepolarizingConfig(p=0.1)), ("e", ErasureConfig(p=0.5))), n=20,
            emit_figures=False,
        )
        report = run_comparison(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert list(data["channels"]) == list(report.channels) == ["a", "e"]
        artifacts = {"states_csv", "constellation_svg", "bloch_svg"}
        for name, result in report.channels.items():
            entry = data["channels"][name]
            values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
            assert values.pop("name") == name
            assert entry.pop("artifacts") == {key: values.pop(key) for key in artifacts}
            assert entry == values

    def test_failing_channel_is_named(self, tmp_path):
        cfg = qpsk_config(tmp_path, (("bad", NoKernelConfig(p=0.1)),))
        with pytest.raises(RuntimeError, match="channel 'bad' failed"):
            run_comparison(cfg)

    def test_unbuildable_channel_fails_before_any_artifact(self, tmp_path):
        channels = (
            ("good", DepolarizingConfig(p=0.1)),
            ("bad", NoKernelConfig(p=0.1)),
        )
        cfg = qpsk_config(tmp_path, channels)
        with pytest.raises(RuntimeError, match="channel 'bad' failed"):
            run_comparison(cfg)
        assert not list(tmp_path.glob("**/states_*.csv"))
        assert not list(tmp_path.glob("**/*.svg"))

    def test_run_channels_builds_every_channel_first(self, tmp_path):
        channels = (
            ("good", DepolarizingConfig(p=0.1)),
            ("bad", NoKernelConfig(p=0.1)),
        )
        cfg = qpsk_config(tmp_path, channels)
        with pytest.raises(RuntimeError, match="channel 'bad' failed"):
            next(run_channels(cfg, ["good", "bad"]))
        assert not (tmp_path / "out").exists()

    def test_report_records_the_package_version(self, tmp_path):
        # pyproject.toml reads the version from the package; the report
        # records the same string, also from a checkout with nothing installed.
        text = PYPROJECT.read_text(encoding="utf-8")
        assert re.search(r'^dynamic = \["version"\]$', text, re.M)
        attr = re.search(r'^version = \{attr = "([\w.]+)"\}$', text, re.M).group(1)
        module, name = attr.rsplit(".", 1)
        declared = getattr(importlib.import_module(module), name)
        assert re.fullmatch(r"\d+\.\d+\.\d+", declared) and declared != "0.0.0"
        cfg = qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=10)
        run_comparison(cfg)
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        assert data["version"] == declared == qlinksim.__version__

    def test_empty_channel_list_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one channel"):
            qpsk_config(tmp_path, ())
        with pytest.raises(ValueError, match="at least one channel"):
            config_from_dict(
                {"modulation": {"type": "qpsk"}, "n_symbols": 10, "seed": 1, "channels": []}
            )

    def test_channel_iterator_keeps_its_pairs(self, tmp_path):
        # The config takes its channels once; its checks must not use them up.
        pair = ("a", DepolarizingConfig(p=0.1))
        cfg = qpsk_config(tmp_path, iter([pair]), n=10, emit_states=False, emit_figures=False)
        assert cfg.channels == (pair,)
        assert list(run_comparison(cfg).channels) == ["a"]
        with pytest.raises(ValueError, match="at least one channel"):
            qpsk_config(tmp_path, iter([]))

    def test_sampled_mode_reproducible(self, tmp_path):
        channels = (("deph", DepolarizingConfig(p=0.4)),)
        cfg = qpsk_config(
            tmp_path, channels, n=80, decision_mode="sampled",
            emit_states=False, emit_figures=False,
        )
        a = run_simulation(cfg, "deph")
        b = run_simulation(cfg, "deph")
        assert (a.ser, a.ber) == (b.ser, b.ber)
        assert a.ser > 0  # sampling at p=0.4 cannot be error-free at n=80

    def test_byte_determinism_same_config(self, tmp_path):
        channels = (
            ("depolarizing", DepolarizingConfig(p=0.1)),
            ("erasure", ErasureConfig(p=0.25)),
            ("turbulence", TurbulenceConfig(sigma_p=0.3, w0=1.0, rytov_var=0.6)),
            ("pmd", PMDConfig(dgd=2.0, sigma_omega=1.0, n_sections=4)),
        )
        cfg = qpsk_config(tmp_path, channels, n=40)
        run_comparison(cfg)
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_comparison(cfg)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(first) == set(second)
        for name in first:
            if name == "report.json":
                a = json.loads(first[name])
                b = json.loads(second[name])
                a.pop("wall_time_s"), b.pop("wall_time_s")
                assert a == b
            else:
                assert first[name] == second[name], name


# (ser_count, ber_count, erasure_count) per channel of the shipped config at
# seed 123: 4000 symbols with argmax decisions, and 1000 with sampled ones;
# in its 16-QAM, and as QPSK and 64-QAM.
GOLDEN_COUNTS = {
    ("qam16", "argmax", 4000): {
        "depolarizing": (0, 0, 0),
        "dephasing": (0, 0, 0),
        "erasure": (4000, 16000, 4000),
        "bosonic": (2975, 3948, 0),
        "turbulence": (410, 574, 0),
        "pmd": (1225, 1283, 0),
    },
    ("qam16", "sampled", 1000): {
        "depolarizing": (871, 1572, 0),
        "dephasing": (884, 1672, 0),
        "erasure": (905, 2166, 243),
        "bosonic": (887, 1703, 0),
        "turbulence": (882, 1665, 0),
        "pmd": (918, 1882, 0),
    },
    ("qpsk", "argmax", 4000): {
        "depolarizing": (0, 0, 0),
        "dephasing": (0, 0, 0),
        "erasure": (0, 0, 0),
        "bosonic": (0, 0, 0),
        "turbulence": (163, 200, 0),
        "pmd": (0, 0, 0),
    },
    ("qpsk", "sampled", 1000): {
        "depolarizing": (523, 776, 0),
        "dephasing": (509, 750, 0),
        "erasure": (641, 1089, 243),
        "bosonic": (593, 858, 0),
        "turbulence": (527, 771, 0),
        "pmd": (682, 937, 0),
    },
    ("qam64", "argmax", 4000): {
        "depolarizing": (0, 0, 0),
        "dephasing": (490, 490, 0),
        "erasure": (4000, 24000, 4000),
        "bosonic": (3021, 6518, 0),
        "turbulence": (1017, 1798, 0),
        "pmd": (3097, 4658, 0),
    },
    ("qam64", "sampled", 1000): {
        "depolarizing": (973, 2626, 0),
        "dephasing": (969, 2607, 0),
        "erasure": (976, 3417, 243),
        "bosonic": (974, 2656, 0),
        "turbulence": (976, 2638, 0),
        "pmd": (979, 2920, 0),
    },
}


# The shipped 16-QAM keeps the ids "argmax-4000" and "sampled-1000".
@pytest.mark.parametrize(
    "modulation, mode, n", list(GOLDEN_COUNTS),
    ids=["-".join(map(str, key[key[0] == "qam16":])) for key in GOLDEN_COUNTS],
)
def test_golden_report_counts(tmp_path, modulation, mode, n):
    order = {"qpsk": {}, "qam16": {"qam_order": 16}, "qam64": {"qam_order": 64}}[modulation]
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=n, decision_mode=mode,
        output_dir=tmp_path, emit_states=False, emit_figures=False,
        modulation="qpsk" if modulation == "qpsk" else "qam", **order,
    )
    assert cfg.seed == 123
    run_comparison(cfg)
    report = json.loads((tmp_path / "report.json").read_text())
    counts = {
        name: (r["ser_count"], r["ber_count"], r["erasure_count"])
        for name, r in report["channels"].items()
    }
    assert counts == GOLDEN_COUNTS[modulation, mode, n]


@pytest.mark.parametrize("mode", ["argmax", "sampled"])
def test_comparison_after_setup_uses_real_rows_only(tmp_path, monkeypatch, mode):
    # The whole run, transmitter included: the codebook and the PGM are
    # closed forms on rows, so no complex stack is made or checked, nothing
    # is hermitized and no np.linalg routine runs.  The erasure outcome
    # (embed_povm_with_erasure) stacks rows, so it is not spied here.
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # A codebook's mats and a POVM's elements would come from from_rows.
    complex_work = (
        "hermitize", "check_states", "state_rows", "to_rows", "from_rows", "make_pure_states",
        "check_structure", "inv_sqrt_psd", "embed_amplitudes", "measurement_scores", "decide",
    )
    for module in (states, channels, detection, modulation, visualization, pipeline):
        for name in complex_work:
            if hasattr(module, name):
                spy(module, name)
    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            spy(np.linalg, name)
    spy(channels.Channel, "apply")
    spy(detection.POVM, "from_elements")
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=300, decision_mode=mode, output_dir=tmp_path
    )
    run_comparison(cfg)
    assert calls == []


@pytest.mark.parametrize("mode", ["argmax", "sampled"])
def test_erasure_outcome_built_once_per_process_per_modulation(tmp_path, monkeypatch, mode):
    # A process adds the erasure outcome to a modulation's PGM once, with
    # the constructor the benchmark's set-up calls, and every channel of
    # every comparison on that modulation is decided with that one POVM:
    # with no channel that flags and with two that do.  Another modulation
    # builds its own.
    calls = []
    real = pipeline.embed_povm_with_erasure

    def spy(povm, out_dim):
        calls.append((len(povm.rows), out_dim))
        return real(povm, out_dim)

    monkeypatch.setattr(pipeline, "embed_povm_with_erasure", spy)
    for channels, erased in (
        ((("depolarizing", DepolarizingConfig(p=0.1)),
          ("pmd", PMDConfig(dgd=2.0, sigma_omega=1.0))), False),
        ((("erasure", ErasureConfig(p=0.25)), ("erasure2", ErasureConfig(p=0.5))), True),
    ):
        cfg = dataclasses.replace(
            load_config(default_config_path()), n_symbols=300, decision_mode=mode,
            channels=channels, output_dir=tmp_path, emit_states=False, emit_figures=False,
        )
        report = run_comparison(cfg)
        assert calls == [(16, 3)]
        assert [r.erasure_count > 0 for r in report.channels.values()] == [erased, erased]
    run_comparison(dataclasses.replace(cfg, modulation="qpsk"))
    assert calls == [(16, 3), (4, 3)]


def test_each_channel_checks_its_rows_once(tmp_path, monkeypatch):
    calls = []
    real = states.check_rows

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    for module in (states, channels, detection, modulation, visualization, pipeline):
        if hasattr(module, "check_rows"):
            monkeypatch.setattr(module, "check_rows", counting)
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=500, decision_mode="sampled",
        output_dir=tmp_path, emit_states=False, emit_figures=False,
    )
    run_comparison(cfg)
    # The codebook checks its 16 rows, the four deterministic channels' maps
    # of them are checked as one stack, and so are the two stochastic
    # channels' rows of the 500 symbols; decisions check nothing again.
    assert calls == [16, 64, 1000]


def test_detector_is_built_once_per_modulation_and_read_only():
    codebook, povm = pipeline._detector("qam", 16)
    again = pipeline._detector("qam", 16)
    assert again[0] is codebook and again[1] is povm
    arrays = (codebook.rows, codebook.priors, codebook.bit_labels, codebook.mats,
              povm.rows, povm.elements)
    assert not any(array.flags.writeable for array in arrays)
    with pytest.raises(dataclasses.FrozenInstanceError):
        codebook.rows = codebook.rows.copy()
    # QPSK ignores the order, but keys by it: ("qpsk", 16) is not 4-QAM.
    qpsk, qam4 = pipeline._detector("qpsk", 16), pipeline._detector("qam", 4)
    assert qpsk[0] is not qam4[0] and qpsk[0].M == qam4[0].M == 4
    assert qpsk[0].rows.tolist() == qpsk_codebook().rows.tolist()
    assert qam4[0].rows.tolist() == qam_codebook(4).rows.tolist()
    assert pipeline._detector.cache_info().currsize == 3


@pytest.mark.parametrize("mode", ["argmax", "sampled"])
def test_cold_and_warm_detectors_write_the_same_bytes(tmp_path, mode):
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=200, decision_mode=mode
    )
    for run in ("cold", "warm"):
        run_comparison(dataclasses.replace(cfg, output_dir=tmp_path / run))
    assert pipeline._detector.cache_info()[:2] == (1, 1)  # (hits, misses)
    files = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for file in files:
        cold, warm = ((tmp_path / run / file).read_bytes() for run in ("cold", "warm"))
        if file == "report.json":
            cold, warm = (json.loads(text) for text in (cold, warm))
            for report in (cold, warm):
                del report["wall_time_s"], report["config"]["output"]["dir"]
        assert cold == warm, file


@pytest.mark.parametrize("mode", ["argmax", "sampled"])
@pytest.mark.parametrize("modulation, order", [("qpsk", 16), ("qam", 16), ("qam", 64)])
def test_stacked_channels_are_each_channels_own(tmp_path, modulation, order, mode):
    # One map, check, argmax and count for all deterministic channels, and
    # one draw per channel into one stack, one check, one decision call and
    # one count for all stochastic ones, give each channel the rows,
    # decisions and counts of its own pass.
    cfg = SimulationConfig(
        modulation=modulation, qam_order=order, n_symbols=50, seed=6, decision_mode=mode,
        channels=SIX_CHANNELS, output_dir=tmp_path,
    )
    tx = pipeline._Transmitter.build(cfg)
    bits = tx.codebook.bit_labels
    built = [(name, channels.Channel(config)) for name, config in cfg.channels]
    mapped = pipeline._map_deterministic(cfg, tx, built)
    assert list(mapped) == ["depolarizing", "dephasing", "erasure", "bosonic"]
    for name, channel in built[:4]:
        rows, decisions, counts = mapped[name]
        own = channel.apply_rows(tx.codebook.rows)
        assert rows.tobytes() == own.tobytes(), name
        if mode == "argmax":
            own_decisions = detection.argmax_rows(tx.povm, own)
            assert decisions.tolist() == own_decisions.tolist(), name
            sent = np.arange(tx.codebook.M)
            assert counts == qlinksim.error_counts(sent, own_decisions, bits, tx.counts), name
        else:
            assert decisions is None and counts is None
    drawn = pipeline._map_stochastic(cfg, tx, built)
    assert list(drawn) == ["turbulence", "pmd"]
    for name, channel in built[4:]:
        rows, decisions, counts = drawn[name]
        own = channel.apply_rows(tx.codebook.rows[tx.symbols], derive_rng(6, "channel", name))
        assert rows.tobytes() == own.tobytes(), name
        if mode == "argmax":
            own_decisions = detection.argmax_rows(tx.povm, own)
        else:
            own_decisions = detection.sample_rows(tx.povm, own, derive_rng(6, "decision", name))
        assert decisions.tolist() == own_decisions.tolist(), name
        assert counts == qlinksim.error_counts(tx.symbols, own_decisions, bits), name


def test_bad_stochastic_rows_are_named_before_any_artifact(tmp_path, monkeypatch):
    # One PMD row leaves the Bloch ball's weight bound: the stochastic
    # stack's check fails after the deterministic channels and turbulence
    # are mapped, and before any of them writes an artifact.
    real = channels._pmd

    def heavy(cfg, rows, rng, out=None):
        out = real(cfg, rows, rng, out)
        out[3, 0] = 1.5
        return out

    monkeypatch.setitem(channels._STOCHASTIC_KERNELS, "pmd", heavy)
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=100, output_dir=tmp_path / "out"
    )
    with pytest.raises(RuntimeError, match=r"^channel 'pmd' failed: qubit block weight"):
        run_comparison(cfg)
    assert not (tmp_path / "out").exists()


def test_bad_transfer_matrix_is_named_before_any_artifact(tmp_path, monkeypatch):
    # The second of three deterministic channels maps past the Bloch ball:
    # the stacked check fails, and the error names that channel.
    real = channels._transfer_matrix

    def inflated(cfg):
        matrix = real(cfg)
        if cfg.kind == "dephasing":
            matrix[1:, 1:] *= 1.5
        return matrix

    monkeypatch.setattr(channels, "_transfer_matrix", inflated)
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=100, output_dir=tmp_path / "out",
        channels=tuple(c for c in SIX_CHANNELS if c[0] != "bosonic"),
    )
    with pytest.raises(RuntimeError, match=r"^channel 'dephasing' failed: not positive"):
        run_comparison(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_argmax_artifacts_do_not_depend_on_the_chunk(tmp_path, monkeypatch, chunk):
    n = 150
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=n, emit_figures=False,
        channels=tuple(c for c in load_config(default_config_path()).channels
                       if c[0] in ("turbulence", "pmd")),
    )
    run_comparison(dataclasses.replace(cfg, output_dir=tmp_path / "whole"))
    # Blocks of ``chunk`` rows of the shipped 16-QAM PGM's 16 scores each.
    monkeypatch.setattr(detection, "_BLOCK_SCORES", 16 * (chunk or n))
    run_comparison(dataclasses.replace(cfg, output_dir=tmp_path / "chunked"))
    for name in ("states_turbulence.csv", "states_pmd.csv"):
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "chunked" / name).read_bytes()


def test_raising_stochastic_kernel_is_named_before_any_artifact(tmp_path, monkeypatch):
    def failing(cfg, rows, rng, out=None):
        raise FloatingPointError("fade out of range")

    monkeypatch.setitem(channels._STOCHASTIC_KERNELS, "turbulence", failing)
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=100, output_dir=tmp_path / "out"
    )
    with pytest.raises(RuntimeError, match=r"^channel 'turbulence' failed: fade out of range$"):
        run_comparison(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block", [1, 7, None])
def test_sampled_artifacts_do_not_depend_on_the_search_block(tmp_path, monkeypatch, block):
    n = 150
    cfg = dataclasses.replace(
        load_config(default_config_path()), n_symbols=n, emit_figures=False,
        decision_mode="sampled",
        channels=tuple(c for c in load_config(default_config_path()).channels
                       if c[0] in ("turbulence", "pmd")),
    )
    run_comparison(dataclasses.replace(cfg, output_dir=tmp_path / "whole"))
    # The Born search of the two channels' 2 n stacked rows, ``block`` rows
    # at a time.
    monkeypatch.setattr(detection, "_SEARCH_ROWS", block or 2 * n)
    run_comparison(dataclasses.replace(cfg, output_dir=tmp_path / "blocked"))
    for name in ("states_turbulence.csv", "states_pmd.csv"):
        assert (tmp_path / "whole" / name).read_bytes() == (tmp_path / "blocked" / name).read_bytes()


def test_large_alphabet_argmax_run_forms_no_dense_table(tmp_path):
    # At 1024-QAM one (M, M + 1) int64 table is 8 MiB, and so is one block
    # of argmax scores over all M codebook rows: the bound admits neither a
    # confusion count with a Hamming table nor such a block.
    cfg = SimulationConfig(
        modulation="qam", qam_order=1024, n_symbols=1000, seed=9,
        channels=(("depolarizing", DepolarizingConfig(p=0.1)), ("erasure", ErasureConfig(p=0.25))),
        output_dir=tmp_path, emit_states=False, emit_figures=False,
    )
    tracemalloc.start()
    try:
        run_comparison(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak / 2**20


class TestStatesCsv:
    def test_header_and_row_count(self, tmp_path):
        cfg = qpsk_config(tmp_path, (("clean", DepolarizingConfig(p=0.0)),), n=25)
        run_simulation(cfg, "clean")
        path = tmp_path / "out" / "states_clean.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(STATES_CSV_HEADER)
        assert len(lines) == 26

    def test_length_mismatch_rejected(self, tmp_path):
        # One label per symbol on each side, but fewer rx than tx symbols.
        table = project_rows(qam_codebook(4).rows)
        with pytest.raises(ValueError, match="tx and rx tables must have equal lengths"):
            write_states_csv(tmp_path / "x.csv", table, [0, 1, 2, 3], table.take([0, 1]), [0, 1])
        assert not (tmp_path / "x.csv").exists()


@pytest.fixture(scope="module")
def shipped_1000(tmp_path_factory):
    """The shipped config's comparison at 1000 symbols, in 16-QAM and in QPSK
    (whose |1> state is a clipped constellation point): the two output
    directories."""
    outs = []
    for modulation in ("qam", "qpsk"):
        out = tmp_path_factory.mktemp(f"shipped_{modulation}")
        cfg = dataclasses.replace(
            load_config(default_config_path()), modulation=modulation, n_symbols=1000,
            output_dir=out,
        )
        run_comparison(cfg)
        outs.append(out)
    return outs


@pytest.mark.parametrize("channel", [n for n, _ in load_config(default_config_path()).channels])
def test_plot_redraws_compare_figures(shipped_1000, tmp_path, channel):
    for out in shipped_1000:
        states = out / f"states_{channel}.csv"
        assert cli_main(["plot", "--states", str(states), "--out", str(tmp_path)]) == 0
        for figure in (f"constellation_{channel}.svg", f"bloch_{channel}.svg"):
            assert (tmp_path / figure).read_bytes() == (out / figure).read_bytes(), figure


@pytest.mark.parametrize(
    "channel", ["depolarizing", "dephasing", "bosonic", "turbulence", "pmd", "erasure"]
)
def test_states_csv_read_then_written_is_the_same_file(shipped_1000, tmp_path, channel):
    for out in shipped_1000:
        states = out / f"states_{channel}.csv"
        write_states_csv(tmp_path / states.name, *visualization.read_states_csv(states))
        assert (tmp_path / states.name).read_bytes() == states.read_bytes(), out.name


def test_read_states_csv_restores_clip_flags_and_traces(shipped_1000):
    # QPSK's |1> (z = -1) is the one clipped point; erasure keeps 1 - p in the block.
    tx, tx_labels, rx, _ = visualization.read_states_csv(shipped_1000[1] / "states_erasure.csv")
    assert np.array_equal(tx.clipped, tx_labels == 1) and np.array_equal(rx.clipped, tx.clipped)
    assert np.all(tx.trace == 1.0) and np.all(rx.trace == 0.75)


class TestCli:
    def _write_config(self, tmp_path, n=30):
        cfg = {
            "modulation": {"type": "qpsk"},
            "n_symbols": n,
            "seed": 11,
            "decision_mode": "argmax",
            "channels": [
                {"name": "clean", "type": "depolarizing", "p": 0.0},
                {"name": "era", "type": "erasure", "p": 0.5},
            ],
            "output": {"dir": str(tmp_path / "out"), "emit_states": True,
                       "emit_figures": True},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_single_channel(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(self._write_config(tmp_path)),
                       "--channel", "clean"])
        assert rc == 0
        assert "clean: SER 0" in capsys.readouterr().out
        assert (tmp_path / "out" / "states_clean.csv").exists()
        assert not (tmp_path / "out" / "states_era.csv").exists()

    def test_run_all_channels(self, tmp_path):
        rc = cli_main(["run", "--config", str(self._write_config(tmp_path))])
        assert rc == 0
        assert (tmp_path / "out" / "states_era.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "run"])
    def test_unusable_output_dir_is_not_blamed_on_a_channel(self, tmp_path, capsys, command):
        # The output directory is made once, outside every channel's run:
        # a path that is a file fails as itself, not as the first channel.
        afile = tmp_path / "afile"
        afile.write_text("")
        rc = cli_main([command, "--config", str(self._write_config(tmp_path)),
                       "--symbols", "5", "--output-dir", str(afile)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(afile) in err and "channel" not in err, err

    def test_run_shares_one_transmitter(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = pipeline.qam_codebook

        def counting(order):
            calls.append(order)
            return real(order)

        monkeypatch.setattr(pipeline, "qam_codebook", counting)
        shared = tmp_path / "shared"
        rc = cli_main(["run", "--symbols", "50", "--output-dir", str(shared)])
        assert rc == 0
        assert calls == [16]
        lines = capsys.readouterr().out.splitlines()
        # The same lines and artifacts as one run_simulation per channel.
        cfg = dataclasses.replace(
            load_config(default_config_path()), n_symbols=50, output_dir=tmp_path / "alone"
        )
        expected = []
        for name, _ in cfg.channels:
            r = run_simulation(cfg, name)
            expected.append(
                f"{r.name}: SER {r.ser:.6g} ({r.ser_count}/{r.n_symbols}), "
                f"BER {r.ber:.6g} ({r.ber_count}/{r.n_symbols * r.bits_per_symbol}), "
                f"erasures {r.erasure_count}"
            )
        assert lines == expected
        # Each run_simulation shares the process's detector too.
        assert calls == [16]
        files = sorted(f.name for f in shared.iterdir())
        assert files == sorted(f.name for f in cfg.output_dir.iterdir())
        for file in files:
            assert (shared / file).read_bytes() == (cfg.output_dir / file).read_bytes()

    def test_compare_writes_report(self, tmp_path, capsys):
        rc = cli_main(["compare", "--config", str(self._write_config(tmp_path))])
        assert rc == 0
        assert "report written" in capsys.readouterr().out
        assert (tmp_path / "out" / "report.json").exists()

    def test_overrides(self, tmp_path):
        rc = cli_main([
            "run", "--config", str(self._write_config(tmp_path)),
            "--channel", "clean", "--symbols", "12", "--seed", "99",
            "--output-dir", str(tmp_path / "alt"),
        ])
        assert rc == 0
        lines = (tmp_path / "alt" / "states_clean.csv").read_text().splitlines()
        assert len(lines) == 13

    def test_plot_from_csv(self, tmp_path):
        cli_main(["run", "--config", str(self._write_config(tmp_path)),
                  "--channel", "era"])
        rc = cli_main([
            "plot", "--states", str(tmp_path / "out" / "states_era.csv"),
            "--out", str(tmp_path / "figs"),
        ])
        assert rc == 0
        assert (tmp_path / "figs" / "constellation_era.svg").exists()
        assert (tmp_path / "figs" / "bloch_era.svg").exists()

    def test_plot_names_missing_columns(self, tmp_path, capsys):
        cli_main(["run", "--config", str(self._write_config(tmp_path)),
                  "--channel", "era"])
        rows = read_csv(tmp_path / "out" / "states_era.csv")
        kept = [c for c in STATES_CSV_HEADER if c not in ("tx_bloch_x", "rx_q")]
        path = tmp_path / "states_cut.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, kept, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        rc = cli_main(["plot", "--states", str(path), "--out", str(tmp_path / "figs")])
        assert rc == 1
        assert "lacks states CSV columns: tx_bloch_x, rx_q" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("rx_q", None, "column rx_q: expected a finite number, got nothing"),
            ("tx_label", "x", "column tx_label: expected an integer, got 'x'"),
            ("rx_label", "1.5", "column rx_label: expected an integer, got '1.5'"),
            ("rx_bloch_y", "nan", "column rx_bloch_y: expected a finite number, got 'nan'"),
            ("tx_i", "-inf", "column tx_i: expected a finite number, got '-inf'"),
            ("tx_label", "1_0", "column tx_label: expected an integer, got '1_0'"),
            ("index", " 2", "column index: expected an integer, got ' 2'"),
            ("rx_i", " 0.5 ", "column rx_i: expected a finite number, got ' 0.5 '"),
            ("tx_bloch_z", "1_0.5", "column tx_bloch_z: expected a finite number, got '1_0.5'"),
        ],
    )
    def test_plot_names_malformed_cells(self, tmp_path, capsys, column, cell, message):
        cli_main(["run", "--config", str(self._write_config(tmp_path)),
                  "--channel", "era"])
        lines = (tmp_path / "out" / "states_era.csv").read_text().splitlines()
        fields = lines[3].split(",")
        at = STATES_CSV_HEADER.index(column)
        # A missing cell is a short row: the line ends before the column.
        lines[3] = ",".join(fields[:at] if cell is None else fields[:at] + [cell] + fields[at + 1:])
        path = tmp_path / "states_bad.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = cli_main(["plot", "--states", str(path), "--out", str(tmp_path / "figs")])
        assert rc == 1
        assert f"{path}, line 4, {message}" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_plot_names_cells_beyond_the_header(self, tmp_path, capsys):
        cli_main(["run", "--config", str(self._write_config(tmp_path)),
                  "--channel", "era"])
        lines = (tmp_path / "out" / "states_era.csv").read_text().splitlines()
        lines[3] += ",9.9,oops"
        path = tmp_path / "states_bad.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = cli_main(["plot", "--states", str(path), "--out", str(tmp_path / "figs")])
        assert rc == 1
        column = len(STATES_CSV_HEADER) + 1
        assert (f"{path}, line 4, column {column}: expected no cell beyond the header, "
                "got '9.9'") in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_plot_names_rows_out_of_index_order(self, tmp_path, capsys):
        cli_main(["run", "--config", str(self._write_config(tmp_path)),
                  "--channel", "era"])
        lines = (tmp_path / "out" / "states_era.csv").read_text().splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        path = tmp_path / "states_bad.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = cli_main(["plot", "--states", str(path), "--out", str(tmp_path / "figs")])
        assert rc == 1
        assert f"{path}, line 4, column index: expected 2, got '3'" in capsys.readouterr().err
        assert not (tmp_path / "figs").exists()

    def test_missing_config_reports_error(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_channel_list_reports_error(self, tmp_path, capsys, command):
        path = self._write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["channels"] = []
        path.write_text(json.dumps(cfg))
        assert cli_main([command, "--config", str(path)]) == 1
        assert "at least one channel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_channel_reports_error(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(self._write_config(tmp_path)),
                       "--channel", "ghost"])
        assert rc == 1
        assert "ghost" in capsys.readouterr().err

    def test_empty_channel_name_reports_error(self, tmp_path, capsys):
        # An empty name selects no channel, not every channel.
        rc = cli_main(["run", "--config", str(self._write_config(tmp_path)), "--channel", ""])
        assert rc == 1
        assert "no channel named ''" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_parameter_reports_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["channels"] = [{"name": "pmd", "type": "pmd", "dgd": float("nan"),
                            "sigma_omega": 1.0}]
        path.write_text(json.dumps(cfg))
        assert "NaN" in path.read_text()
        rc = cli_main(["compare", "--config", str(path)])
        assert rc == 1
        assert "dgd must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_float_integer_field_reports_error(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["channels"].append(
            {"name": "bosonic", "type": "bosonic", "loss_db": 3.0, "fock_dim": 2.0}
        )
        path.write_text(json.dumps(cfg))
        rc = cli_main(["compare", "--config", str(path)])
        assert rc == 1
        assert "fock_dim must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_config_is_loadable(self):
        # the shipped config is the documented benchmark; just verify it parses
        cfg = load_config(default_config_path())
        assert len(cfg.channels) == 6
