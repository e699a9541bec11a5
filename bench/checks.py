"""Checks on what a ``qlinksim`` comparison run wrote.

The checks hold however the program lays out its random draws: they test
internal consistency of each reported channel, and bound each deterministic
channel's symbol errors by a 5-sigma binomial band around the exact error
probability from :mod:`reference`.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

from reference import DETERMINISTIC_KINDS, exact_error_probability

BAND_SIGMAS = 5.0
_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n}]*')


def _rate_problems(what: str, rate, count, total: int) -> list[str]:
    problems = []
    if not 0 <= count <= total:
        problems.append(f"{what}_count {count} outside [0, {total}]")
    if not 0.0 <= rate <= 1.0:
        problems.append(f"{what} {rate} outside [0, 1]")
    if not math.isclose(rate, count / total, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"{what} {rate} != {what}_count / {total}")
    return problems


def channel_problems(entry: dict, channel: dict, config: dict) -> list[str]:
    """Everything wrong with one channel's entry of report.json; empty when it passes."""
    n = config["n_symbols"]
    order = config["modulation"]["M"]
    bits = int(round(math.log2(order)))
    problems = []
    if entry.get("n_symbols") != n:
        problems.append(f"n_symbols {entry.get('n_symbols')} != {n}")
    if entry.get("bits_per_symbol") != bits:
        problems.append(f"bits_per_symbol {entry.get('bits_per_symbol')} != {bits}")
    ser, ser_count = entry["ser"], entry["ser_count"]
    ber, ber_count = entry["ber"], entry["ber_count"]
    problems += _rate_problems("ser", ser, ser_count, n)
    problems += _rate_problems("ber", ber, ber_count, n * bits)
    if not ser_count <= ber_count <= bits * ser_count:
        problems.append(f"ber_count {ber_count} outside [ser_count, {bits} * ser_count]")
    erased = entry["erasure_count"]
    if channel["type"] == "erasure":
        if not 0 <= erased <= ser_count:
            problems.append(f"erasure_count {erased} outside [0, ser_count]")
    elif erased != 0:
        problems.append(f"erasure_count {erased} on a channel without erasures")
    if channel["type"] in DETERMINISTIC_KINDS:
        p = exact_error_probability(channel["type"], channel, order, config["decision_mode"])
        band = BAND_SIGMAS * math.sqrt(n * p * (1.0 - p))
        if abs(ser_count - n * p) > band:
            problems.append(
                f"ser_count {ser_count} outside {n * p:.1f} +- {band:.1f} "
                f"(exact error probability {p:.6f})"
            )
    return problems


def report_problems(report: dict, config: dict, out_dir: Path) -> dict[str, list[str]]:
    """Channel name -> problems in that channel's report entry and artifacts."""
    reported = report.get("channels", {})
    output = config["output"]
    result = {}
    for channel in config["channels"]:
        name = channel["name"]
        entry = reported.get(name)
        if entry is None:
            result[name] = ["channel missing from report.json"]
            continue
        problems = channel_problems(entry, channel, config)
        artifacts = entry.get("artifacts", {})
        wanted = {
            "states_csv": output["emit_states"],
            "constellation_svg": output["emit_figures"],
            "bloch_svg": output["emit_figures"],
        }
        for key, emitted in wanted.items():
            if emitted and not (artifacts.get(key) and (out_dir / artifacts[key]).is_file()):
                problems.append(f"artifact {key} missing")
        result[name] = problems
    return result


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, with report.json's wall_time_s masked."""
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _WALL_TIME.sub(b'"wall_time_s": 0', data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def changed_channels(first: dict[str, str], now: dict[str, str], names) -> set[str]:
    """Channels whose artifacts differ between two digest maps; report.json implicates all."""
    changed = set()
    for fname in set(first) | set(now):
        if first.get(fname) == now.get(fname):
            continue
        owners = [n for n in names if fname.endswith(f"_{n}.csv") or fname.endswith(f"_{n}.svg")]
        changed.update(owners if owners else names)
    return changed
