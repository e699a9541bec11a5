"""End-to-end simulation runs: symbols -> states -> channel -> detection -> metrics.

A run is fully determined by its :class:`SimulationConfig`.  A comparison
or a run of several channels builds one transmitter (codebook rows and PGM
rows, each in closed form, symbols, per-symbol counts, tx projection) for
all its channels, and every channel before the first runs.
A whole run holds states only as real (n, 4) rows (:mod:`qlinksim.states`),
builds no complex stack and calls no ``np.linalg`` routine: each
channel is one pass over rows, checked once, where deterministic channels
map the M codebook rows and stochastic ones the N transmitted rows.  A
channel is decided by the transmitter's PGM, or, where it moves weight to
the erasure flag, by that PGM with the erasure outcome
(``embed_povm_with_erasure``), and scored by ``error_counts`` from its
(sent, received) pairs, which forms no (M, M + 1) table.  Its decisions
take the channel's rows unchecked: argmax decisions, made once per
codebook state on a deterministic channel and weighted by how often each
state was sent, and Born-sampled ones, a CDF search per symbol; neither
forms an (N, K) array.
Randomness comes from one stream per purpose, keyed by (seed, purpose) for
the transmitted symbols and by (seed, purpose, channel name) for a
channel's own draws and for sampled decisions, so results do not depend on
channel order.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Sequence, get_args

import numpy as np

from .channels import Channel, ChannelConfig, check_fields
from .channels import config_from_dict as channel_config_from_dict
from .channels import config_to_dict as channel_config_to_dict
from .detection import POVM, argmax_rows, build_pgm, embed_povm_with_erasure, sample_rows
from .metrics import error_counts
from .modulation import DetectorCodebook, qam_codebook, qam_side, qpsk_codebook
from .visualization import StateProjection, project_rows, write_figures, write_states_csv

# The one definition of the package version; pyproject.toml reads it.
VERSION = "0.1.0"

_U64 = (1 << 64) - 1
# Channel names become artifact file names (states_<name>.csv).
_CHANNEL_NAME = re.compile(r"[A-Za-z0-9_.-]+")
# The one rule for a channel entry, as a JSON object or as a Python pair.
_ENTRY_RULE = "every channel entry must be an object, or a (name, config) pair in Python"

@dataclass(frozen=True)
class SimulationConfig:
    """One reproducible run: modulation, seed, channel set, output policy."""

    modulation: str
    n_symbols: int
    seed: int
    channels: tuple[tuple[str, ChannelConfig], ...]
    qam_order: int = 16
    decision_mode: str = "argmax"
    output_dir: Path = Path("out")
    emit_states: bool = True
    emit_figures: bool = True

    def __post_init__(self):
        check_fields(self)
        if self.modulation not in ("qpsk", "qam"):
            raise ValueError(f"modulation.type must be 'qpsk' or 'qam', got {self.modulation!r}")
        if self.modulation == "qam":
            qam_side(self.qam_order)  # rejects orders other than 4, 16, 64, ...
        elif self.qam_order != type(self).qam_order:
            # The JSON loader's wording: M has no effect on qpsk.
            raise ValueError("unknown modulation keys for qpsk: ['M']")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if not 0 <= self.seed <= _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.decision_mode not in ("argmax", "sampled"):
            raise ValueError(
                f"decision_mode must be 'argmax' or 'sampled', got {self.decision_mode!r}"
            )
        for entry in self.channels:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise TypeError(f"{_ENTRY_RULE}, got {entry!r}")
        object.__setattr__(self, "channels", tuple((n, c) for n, c in self.channels))
        names = [n for n, _ in self.channels]
        for name, config in self.channels:
            if not isinstance(name, str):
                raise TypeError(f"channel name must be a string, got {name!r}")
            if not _CHANNEL_NAME.fullmatch(name):
                raise ValueError(
                    f"channel name {name!r} must be letters, digits, '_', '.' or '-' only"
                )
            if not isinstance(config, get_args(ChannelConfig)):
                raise TypeError(f"channel {name!r}: expected a channel config, got {config!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"channel names must be unique, got {names}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    def channel_config(self, name: str) -> ChannelConfig:
        for n, c in self.channels:
            if n == name:
                return c
        raise ValueError(
            f"no channel named {name!r}; configured: {[n for n, _ in self.channels]}"
        )


@dataclass(frozen=True)
class ChannelRunResult:
    """Metrics and artifact names for one channel of one run: its report.json
    entry holds every field but ``name``, with the artifact names under
    ``"artifacts"``."""

    name: str
    ser: float
    ser_count: int
    ber: float
    ber_count: int
    n_symbols: int
    bits_per_symbol: int
    erasure_count: int
    states_csv: str | None = None
    constellation_svg: str | None = None
    bloch_svg: str | None = None


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated comparison output: per-channel results plus run metadata."""

    channels: dict[str, ChannelRunResult]
    config: dict
    version: str
    wall_time_s: float


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Independent random stream keyed by the seed and a tag path.

    Tags are hashed, so streams for different (purpose, channel) keys
    never collide by construction order; this is what makes results
    independent of channel ordering.  ``seed`` must be an integer in
    [0, 2^64 - 1], the range a config's seed takes.
    """
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    words = [seed]
    for tag in tags:
        digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(words))


def draw_symbols(cfg: SimulationConfig, alphabet_size: int) -> np.ndarray:
    """Uniform transmitted symbols; one stream per run, shared by all channels."""
    rng = derive_rng(cfg.seed, "symbols")
    return rng.integers(0, alphabet_size, size=cfg.n_symbols)


@dataclass(frozen=True)
class _Transmitter:
    """What every channel of a run shares: the symbols and how often each
    codebook state was sent (``counts``); with artifacts on, also the clip
    radius (1.5x the largest finite tx-point radius) and the tx ``table``,
    one row per codebook state, indexed by symbol."""

    codebook: DetectorCodebook
    povm: POVM
    symbols: np.ndarray
    counts: np.ndarray
    clip_radius: float | None
    table: StateProjection | None

    @classmethod
    def build(cls, cfg: SimulationConfig) -> "_Transmitter":
        codebook = qpsk_codebook() if cfg.modulation == "qpsk" else qam_codebook(cfg.qam_order)
        symbols = draw_symbols(cfg, codebook.M)
        clip = table = None
        if cfg.emit_states or cfg.emit_figures:
            table = project_rows(codebook.rows, codebook.power_scale)
            radii = np.hypot(table.iq[:, 0], table.iq[:, 1])[~table.clipped]
            clip = 1.5 * float(np.max(radii, initial=1.0))
            table = project_rows(codebook.rows, codebook.power_scale, clip).take(symbols)
        counts = np.bincount(symbols, minlength=codebook.M)
        return cls(codebook, build_pgm(codebook), symbols, counts, clip, table)


def run_simulation(cfg: SimulationConfig, channel_name: str) -> ChannelRunResult:
    """Simulate one named channel and write its per-channel artifacts."""
    return next(run_channels(cfg, [channel_name]))


def run_channels(cfg: SimulationConfig, names: Sequence[str]) -> Iterator[ChannelRunResult]:
    """Simulate the named channels in order on one shared transmitter, writing
    each one's artifacts and yielding its result before the next one runs.

    Every channel is built before the first one runs, so one that cannot be
    fails before any artifact is written; a failure names its channel.
    """
    configs = [(name, cfg.channel_config(name)) for name in names]
    tx = _Transmitter.build(cfg)
    channels = [(n, _named(n, Channel, c, tx.codebook.dim)) for n, c in configs]
    for name, channel in channels:
        yield _named(name, _run_channel, cfg, tx, name, channel)


def _run_channel(
    cfg: SimulationConfig, tx: _Transmitter, channel_name: str, channel: Channel
) -> ChannelRunResult:
    """One channel's own work on a shared transmitter: channel pass on the
    codebook's rows, decisions (by ``embed_povm_with_erasure`` of the PGM
    where the channel flags), their error counts, artifacts."""
    codebook, tx_symbols, povm = tx.codebook, tx.symbols, tx.povm
    if channel.output_dim > codebook.dim:
        povm = embed_povm_with_erasure(povm, channel.output_dim)
    # rx_rows holds each distinct received state once; rx_index maps
    # every symbol to its row (all rows, for a stochastic channel).
    if channel.is_stochastic:
        rng = derive_rng(cfg.seed, "channel", channel_name)
        rx_rows = channel.apply_rows(codebook.rows[tx_symbols], rng)
        rx_index = slice(None)
    else:
        rx_rows = channel.apply_rows(codebook.rows)
        rx_index = tx_symbols
    # decisions holds one label per symbol, or one per codebook state when a
    # deterministic channel's states are argmax-decided; decisions[label_index]
    # is each symbol's received label.
    if cfg.decision_mode == "sampled":
        rng = derive_rng(cfg.seed, "decision", channel_name)
        index = None if channel.is_stochastic else rx_index
        decisions, label_index = sample_rows(povm, rx_rows, rng, index), slice(None)
    else:
        decisions, label_index = argmax_rows(povm, rx_rows), rx_index
    if isinstance(label_index, slice):
        counts = error_counts(tx_symbols, decisions, codebook.bit_labels)
    else:
        # Each state's one decision counts once per time the state was sent.
        counts = error_counts(np.arange(codebook.M), decisions, codebook.bit_labels, tx.counts)
    (ser, ser_count), (ber, ber_count), erasure_count = counts

    states_csv = constellation_svg = bloch_svg = None
    if cfg.emit_states or cfg.emit_figures:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        rx_table = project_rows(rx_rows, codebook.power_scale, clip_radius=tx.clip_radius)
        tx_table, rx_table = tx.table, rx_table.take(rx_index)
        rx_symbols = decisions[label_index]
    if cfg.emit_states:
        states_csv = f"states_{channel_name}.csv"
        write_states_csv(cfg.output_dir / states_csv, tx_table, rx_table, tx_symbols, rx_symbols)
    if cfg.emit_figures:
        constellation_svg, bloch_svg = write_figures(
            cfg.output_dir, channel_name, tx_table, tx_symbols, rx_table, rx_symbols
        )

    return ChannelRunResult(
        name=channel_name,
        ser=ser,
        ser_count=ser_count,
        ber=ber,
        ber_count=ber_count,
        n_symbols=cfg.n_symbols,
        bits_per_symbol=codebook.bits_per_symbol,
        erasure_count=erasure_count,
        states_csv=states_csv,
        constellation_svg=constellation_svg,
        bloch_svg=bloch_svg,
    )


def _named(name: str, fn, *args):
    """``fn(*args)``; a failure is re-raised as a RuntimeError naming the channel."""
    try:
        return fn(*args)
    except Exception as err:
        raise RuntimeError(f"channel {name!r} failed: {err}") from err


def run_comparison(cfg: SimulationConfig) -> SimulationReport:
    """Run every configured channel through :func:`run_channels`; write report.json."""
    if not cfg.channels:
        raise ValueError("comparison needs at least one channel")
    start = time.perf_counter()
    entries = {r.name: r for r in run_channels(cfg, [n for n, _ in cfg.channels])}
    report = SimulationReport(
        channels=entries,
        config=config_to_dict(cfg),
        version=VERSION,
        wall_time_s=time.perf_counter() - start,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, cfg.output_dir / "report.json")
    return report


# A channel's report entry: every ChannelRunResult field but the name it is
# keyed by, the artifact names nested under "artifacts".  Each is read
# shallowly; dataclasses.asdict would deep-copy every result.
_ARTIFACTS = ("states_csv", "constellation_svg", "bloch_svg")
_ENTRY_FIELDS = tuple(
    f.name for f in fields(ChannelRunResult) if f.name not in ("name", *_ARTIFACTS)
)


def report_to_dict(report: SimulationReport) -> dict:
    channels = {}
    for name, r in report.channels.items():
        channels[name] = {key: getattr(r, key) for key in _ENTRY_FIELDS}
        channels[name]["artifacts"] = {key: getattr(r, key) for key in _ARTIFACTS}
    return {
        "version": report.version,
        "wall_time_s": report.wall_time_s,
        "config": report.config,
        "channels": channels,
    }


def write_report(report: SimulationReport, path: str | Path) -> None:
    # wall_time_s is the single nondeterministic field; everything else is
    # byte-stable for a fixed config.
    text = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


# --- JSON config round trip ---

_TOP_KEYS = {"modulation", "n_symbols", "seed", "decision_mode", "channels", "output", "notes"}
# Each key of the output block, and the SimulationConfig field it sets.
_OUTPUT_FIELDS = {"dir": "output_dir", "emit_states": "emit_states", "emit_figures": "emit_figures"}


def _require(value, kind: type, field: str):
    """``value``; a TypeError naming ``field`` if it is not a ``kind`` (Mapping or
    str).  Only what JSON alone can get wrong is checked here; every field's
    type, value and default is :class:`SimulationConfig`'s."""
    if not isinstance(value, kind):
        what = "an object" if kind is Mapping else "a string"
        raise TypeError(f"{field} must be {what}, got {value!r}")
    return value


def config_from_dict(d: Mapping) -> SimulationConfig:
    _require(d, Mapping, "config")
    unknown = set(d) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("modulation", "n_symbols", "seed", "channels"):
        if key not in d:
            raise ValueError(f"config is missing required key {key!r}")
    mod = _require(d["modulation"], Mapping, "modulation")
    mod_type = _require(mod.get("type", ""), str, "modulation.type")
    # M has no effect on qpsk, so it is rejected there rather than ignored.
    unknown = set(mod) - ({"type"} if mod_type == "qpsk" else {"type", "M"})
    if unknown:
        raise ValueError(f"unknown modulation keys for {mod_type}: {sorted(unknown)}")
    if not isinstance(d["channels"], list):
        raise TypeError(f"channels must be a list of objects, got {d['channels']!r}")
    channels = []
    for entry in d["channels"]:
        if not isinstance(entry, Mapping):
            raise TypeError(f"{_ENTRY_RULE}, got {entry!r}")
        entry = dict(entry)
        if "name" not in entry:
            raise ValueError("every channel entry needs a 'name'")
        name = entry.pop("name")
        try:
            channels.append((name, channel_config_from_dict(entry)))
        except (TypeError, ValueError) as err:
            raise type(err)(f"channel {name!r}: {err}") from err
    output = _require(d.get("output", {}), Mapping, "output")
    unknown = set(output) - _OUTPUT_FIELDS.keys()
    if unknown:
        raise ValueError(f"unknown output keys: {sorted(unknown)}")
    if "dir" in output:
        _require(output["dir"], str, "output.dir")
    _require(d.get("notes", ""), str, "notes")
    # Only the keys the config gives; SimulationConfig fills in the rest.
    given = {_OUTPUT_FIELDS[key]: value for key, value in output.items()}
    if "M" in mod:
        given["qam_order"] = mod["M"]
    if "decision_mode" in d:
        given["decision_mode"] = d["decision_mode"]
    return SimulationConfig(
        modulation=mod_type,
        n_symbols=d["n_symbols"],
        seed=d["seed"],
        channels=tuple(channels),
        **given,
    )


def config_to_dict(cfg: SimulationConfig) -> dict:
    mod: dict = {"type": cfg.modulation}
    if cfg.modulation == "qam":
        mod["M"] = cfg.qam_order
    channels = [{"name": name, **channel_config_to_dict(ch)} for name, ch in cfg.channels]
    return {
        "modulation": mod,
        "n_symbols": cfg.n_symbols,
        "seed": cfg.seed,
        "decision_mode": cfg.decision_mode,
        "channels": channels,
        "output": {key: getattr(cfg, field) for key, field in _OUTPUT_FIELDS.items()}
        | {"dir": str(cfg.output_dir)},
    }


def load_config(path: str | Path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def default_config_path() -> Path:
    """The shipped example configuration (benchmark defaults, documented)."""
    return Path(resources.files("qlinksim").joinpath("data/default_config.json"))
