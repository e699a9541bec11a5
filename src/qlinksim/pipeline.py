"""End-to-end simulation runs: symbols -> states -> channel -> detection -> metrics.

A run is fully determined by its :class:`SimulationConfig`.  A comparison
or a run of several channels builds one transmitter (codebook stack, PGM,
symbols, bits, tx projection) for all its channels, and a comparison builds
every channel before the first runs.  Each channel is one array pass:
deterministic channels map the M codebook states once and are gathered by
transmitted symbol; stochastic channels map the whole (N, d, d)
transmitted stack at once.  Randomness comes from one stream per purpose,
keyed by (seed, purpose) for the transmitted symbols and by (seed,
purpose, channel name) for a channel's own draws and for sampled
decisions, so results do not depend on channel order.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .channels import Channel, ChannelConfig
from .channels import config_from_dict as channel_config_from_dict
from .channels import config_to_dict as channel_config_to_dict
from .detection import (
    POVM,
    argmax_labels,
    build_pgm,
    embed_povm_with_erasure,
    sample_labels,
    score_states,
)
from .metrics import compute_ber, compute_ser
from .modulation import DetectorCodebook, qam_codebook, qam_side, qpsk_codebook, symbols_to_bits
from .visualization import (
    StateProjection,
    distinct_rows,
    project_states,
    render_bloch_svg,
    render_constellation_svg,
)

try:
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("qlinksim")
except Exception:  # pragma: no cover - metadata absent in odd environments
    VERSION = "0.0.0"

_U64 = (1 << 64) - 1
# Channel names become artifact file names (states_<name>.csv).
_CHANNEL_NAME = re.compile(r"[A-Za-z0-9_.-]+")

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
        if self.modulation not in ("qpsk", "qam"):
            raise ValueError(f"modulation must be 'qpsk' or 'qam', got {self.modulation!r}")
        for name in ("n_symbols", "seed", "qam_order"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("emit_states", "emit_figures"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be true or false, got {value!r}")
        if self.modulation == "qam":
            qam_side(self.qam_order)  # rejects orders other than 4, 16, 64, ...
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")
        if not 0 <= self.seed <= _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.decision_mode not in ("argmax", "sampled"):
            raise ValueError(
                f"decision_mode must be 'argmax' or 'sampled', got {self.decision_mode!r}"
            )
        object.__setattr__(self, "channels", tuple((str(n), c) for n, c in self.channels))
        names = [n for n, _ in self.channels]
        for name in names:
            if not _CHANNEL_NAME.fullmatch(name):
                raise ValueError(
                    f"channel name {name!r} must be letters, digits, '_', '.' or '-' only"
                )
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
    """Metrics and artifact names for one channel of one run."""

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
    independent of channel ordering.
    """
    words = [seed & _U64]
    for tag in tags:
        digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
        words.append(int.from_bytes(digest[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(words))


def draw_symbols(cfg: SimulationConfig, alphabet_size: int) -> np.ndarray:
    """Uniform transmitted symbols; one stream per run, shared by all channels."""
    rng = derive_rng(cfg.seed, "symbols")
    return rng.integers(0, alphabet_size, size=cfg.n_symbols)


def _csv_num(x: float) -> str:
    return format(float(x), ".12g")


def _csv_blocks(head: np.ndarray, tail: np.ndarray) -> tuple[list[str], list[str], list[int]]:
    """CSV text of the ``head`` and ``tail`` columns per distinct row, and
    the number of each row's distinct row."""
    values = np.column_stack([head, tail])
    first, inverse = distinct_rows(values)
    width, head_text, tail_text = head.shape[1], [], []
    for row in values[first].tolist():
        text = list(map(_csv_num, row))
        head_text.append(",".join(text[:width]))
        tail_text.append(",".join(text[width:]))
    return head_text, tail_text, inverse.tolist()


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
    side's numbers are formatted once per distinct row (matched by exact
    bytes), so the cost scales with the number of distinct states.  No
    field needs CSV quoting: they are ints and '.12g' numbers.
    """
    n = len(tx_rows)
    if not (len(rx_rows) == len(tx_labels) == len(rx_labels) == n):
        raise ValueError("state and label sequences must have equal lengths")
    tx_bloch, tx_iq, tx_row = _csv_blocks(tx_rows.bloch, tx_rows.iq)
    rx_bloch, rx_iq, rx_row = _csv_blocks(
        np.column_stack([rx_rows.bloch, rx_rows.trace]), rx_rows.iq
    )
    labels = zip(np.asarray(tx_labels).tolist(), np.asarray(rx_labels).tolist(), tx_row, rx_row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(STATES_CSV_HEADER) + "\n")
        fh.writelines(
            f"{idx},{tx},{rx},{tx_bloch[a]},{rx_bloch[b]},{tx_iq[a]},{rx_iq[b]}\n"
            for idx, (tx, rx, a, b) in enumerate(labels)
        )


@dataclass(frozen=True)
class _Transmitter:
    """What every channel of a run shares; with artifacts on, also the clip radius
    (1.5x the largest finite tx-point radius) and the per-symbol tx ``rows``."""

    codebook: DetectorCodebook
    povm: POVM
    symbols: np.ndarray
    bits: np.ndarray
    clip_radius: float | None
    rows: StateProjection | None

    @classmethod
    def build(cls, cfg: SimulationConfig) -> "_Transmitter":
        codebook = qpsk_codebook() if cfg.modulation == "qpsk" else qam_codebook(cfg.qam_order)
        symbols = draw_symbols(cfg, codebook.M)
        clip = rows = None
        if cfg.emit_states or cfg.emit_figures:
            table = project_states(codebook.mats, codebook.power_scale)
            radii = np.hypot(table.iq[:, 0], table.iq[:, 1])[~table.clipped]
            clip = 1.5 * float(np.max(radii, initial=1.0))
            rows = project_states(codebook.mats, codebook.power_scale, clip_radius=clip).take(symbols)
        bits = symbols_to_bits(symbols, codebook)
        return cls(codebook, build_pgm(codebook), symbols, bits, clip, rows)


def run_simulation(cfg: SimulationConfig, channel_name: str) -> ChannelRunResult:
    """Simulate one named channel and write its per-channel artifacts."""
    return next(run_channels(cfg, [channel_name]))


def run_channels(cfg: SimulationConfig, names: Sequence[str]) -> Iterator[ChannelRunResult]:
    """Simulate the named channels in order on one shared transmitter, writing
    each one's artifacts and yielding its result before the next one runs."""
    tx = _Transmitter.build(cfg)
    for name in names:
        channel = Channel(cfg.channel_config(name), input_dim=tx.codebook.dim)
        yield _run_channel(cfg, tx, name, channel)


def _run_channel(
    cfg: SimulationConfig, tx: _Transmitter, channel_name: str, channel: Channel
) -> ChannelRunResult:
    """One channel's own work on a shared transmitter: erasure embedding where
    the channel enlarges, channel pass, scores, decisions, metrics, artifacts."""
    codebook, povm, tx_symbols = tx.codebook, tx.povm, tx.symbols
    if channel.output_dim > codebook.dim:
        povm = embed_povm_with_erasure(povm, channel.output_dim)
    # rx_states holds each distinct received state once; rx_index maps
    # every symbol to its row (all rows, as views, for a stochastic channel).
    if channel.is_stochastic:
        rng = derive_rng(cfg.seed, "channel", channel_name)
        rx_states = channel.apply_batch(codebook.mats[tx_symbols], rng)
        rx_index = slice(None)
    else:
        rx_states = channel.apply_batch(codebook.mats)
        rx_index = tx_symbols
    scores = score_states(povm, rx_states)
    if cfg.decision_mode == "sampled":
        rng = derive_rng(cfg.seed, "decision", channel_name)
        rx_symbols = sample_labels(povm, scores[rx_index], rng)
    else:
        rx_symbols = argmax_labels(povm, scores)[rx_index]

    ser, ser_count = compute_ser(tx_symbols, rx_symbols)
    ber, ber_count = compute_ber(tx.bits, symbols_to_bits(rx_symbols, codebook))

    states_csv = constellation_svg = bloch_svg = None
    if cfg.emit_states or cfg.emit_figures:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        rx_rows = project_states(rx_states, codebook.power_scale, clip_radius=tx.clip_radius)
        tx_rows, rx_rows = tx.rows, rx_rows.take(rx_index)
    if cfg.emit_states:
        states_csv = f"states_{channel_name}.csv"
        write_states_csv(cfg.output_dir / states_csv, tx_rows, rx_rows, tx_symbols, rx_symbols)
    if cfg.emit_figures:
        constellation_svg = f"constellation_{channel_name}.svg"
        render_constellation_svg(
            tx_rows, tx_symbols, rx_rows, rx_symbols,
            cfg.output_dir / constellation_svg,
            title=f"constellation: {channel_name}",
        )
        bloch_svg = f"bloch_{channel_name}.svg"
        render_bloch_svg(
            tx_rows, tx_symbols, rx_rows, rx_symbols,
            cfg.output_dir / bloch_svg,
            title=f"bloch: {channel_name}",
        )

    return ChannelRunResult(
        name=channel_name,
        ser=ser,
        ser_count=ser_count,
        ber=ber,
        ber_count=ber_count,
        n_symbols=cfg.n_symbols,
        bits_per_symbol=codebook.bits_per_symbol,
        erasure_count=int(np.count_nonzero(rx_symbols == -1)),
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
    """Run every configured channel on one shared transmitter; write report.json.
    Every channel is built first: one that cannot be fails before any artifact."""
    if not cfg.channels:
        raise ValueError("comparison needs at least one channel")
    start = time.perf_counter()
    tx = _Transmitter.build(cfg)
    channels = {n: _named(n, Channel, c, tx.codebook.dim) for n, c in cfg.channels}
    entries = {n: _named(n, _run_channel, cfg, tx, n, ch) for n, ch in channels.items()}
    report = SimulationReport(
        channels=entries,
        config=config_to_dict(cfg),
        version=VERSION,
        wall_time_s=time.perf_counter() - start,
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, cfg.output_dir / "report.json")
    return report


def report_to_dict(report: SimulationReport) -> dict:
    channels = {}
    for name, r in report.channels.items():
        channels[name] = {
            "ser": r.ser,
            "ser_count": r.ser_count,
            "ber": r.ber,
            "ber_count": r.ber_count,
            "n_symbols": r.n_symbols,
            "bits_per_symbol": r.bits_per_symbol,
            "erasure_count": r.erasure_count,
            "artifacts": {
                "states_csv": r.states_csv,
                "constellation_svg": r.constellation_svg,
                "bloch_svg": r.bloch_svg,
            },
        }
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
_OUTPUT_KEYS = {"dir", "emit_states", "emit_figures"}


def _require_object(value, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError(f"{field} must be an object, got {value!r}")
    return value


def config_from_dict(d: Mapping) -> SimulationConfig:
    _require_object(d, "config")
    unknown = set(d) - _TOP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("modulation", "n_symbols", "seed", "channels"):
        if key not in d:
            raise ValueError(f"config is missing required key {key!r}")
    mod = _require_object(d["modulation"], "modulation")
    mod_type = str(mod.get("type", "")).lower()
    if mod_type not in ("qpsk", "qam"):
        raise ValueError(f"modulation.type must be 'qpsk' or 'qam', got {mod.get('type')!r}")
    # M has no effect on qpsk, so it is rejected there rather than ignored.
    unknown = set(mod) - ({"type", "M"} if mod_type == "qam" else {"type"})
    if unknown:
        raise ValueError(f"unknown modulation keys for {mod_type}: {sorted(unknown)}")
    if not isinstance(d["channels"], list):
        raise TypeError(f"channels must be a list of objects, got {d['channels']!r}")
    channels = []
    for entry in d["channels"]:
        entry = dict(_require_object(entry, "every channel entry"))
        name = entry.pop("name", None)
        if name is not None and not isinstance(name, str):
            raise TypeError(f"channel name must be a string, got {name!r}")
        if not name:
            raise ValueError("every channel entry needs a 'name'")
        channels.append((name, channel_config_from_dict(entry)))
    output = _require_object(d.get("output", {}), "output")
    unknown = set(output) - _OUTPUT_KEYS
    if unknown:
        raise ValueError(f"unknown output keys: {sorted(unknown)}")
    if not isinstance(output.get("dir", "out"), str):
        raise TypeError(f"output.dir must be a string, got {output['dir']!r}")
    if not isinstance(d.get("notes", ""), str):
        raise TypeError(f"notes must be a string, got {d['notes']!r}")
    cfg = SimulationConfig(
        modulation=mod_type,
        n_symbols=d["n_symbols"],
        seed=d["seed"],
        channels=tuple(channels),
        qam_order=mod.get("M", 16),
        decision_mode=str(d.get("decision_mode", "argmax")),
        output_dir=Path(output.get("dir", "out")),
        emit_states=output.get("emit_states", True),
        emit_figures=output.get("emit_figures", True),
    )
    # Both codebook families are qubits: reject a channel that cannot take them.
    for name, channel in cfg.channels:
        try:
            Channel(channel, input_dim=2)
        except ValueError as err:
            raise ValueError(f"channel {name!r}: {err}") from err
    return cfg


def config_to_dict(cfg: SimulationConfig) -> dict:
    mod: dict = {"type": cfg.modulation}
    if cfg.modulation == "qam":
        mod["M"] = cfg.qam_order
    channels = []
    for name, ch in cfg.channels:
        entry = {"name": name}
        entry.update(channel_config_to_dict(ch))
        channels.append(entry)
    return {
        "modulation": mod,
        "n_symbols": cfg.n_symbols,
        "seed": cfg.seed,
        "decision_mode": cfg.decision_mode,
        "channels": channels,
        "output": {
            "dir": str(cfg.output_dir),
            "emit_states": cfg.emit_states,
            "emit_figures": cfg.emit_figures,
        },
    }


def load_config(path: str | Path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def default_config_path() -> Path:
    """The shipped example configuration (benchmark defaults, documented)."""
    return Path(resources.files("qlinksim").joinpath("data/default_config.json"))
