"""Property test at the JSON config boundary.

Every generated config is either rejected by ``config_from_dict`` with a
ValueError or TypeError that says what is wrong, or it runs: every
channel's SER and BER is finite and in [0, 1].  The generator mixes valid
values with one representative of each kind of bad JSON value (NaN, +-inf,
negative, bool, integral float where an integer is expected, string,
null), blocks that are not objects, unknown keys and missing keys.
Examples are derandomized, so the test is reproducible; it is skipped
where hypothesis is not installed.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qlinksim import run_comparison  # noqa: E402
from qlinksim.pipeline import config_from_dict  # noqa: E402

NAN, INF = float("nan"), float("inf")
# Values a config must either reject or survive.
BAD_REALS = [NAN, INF, -INF, -1.0, True, "0.5", None]
BAD_INTEGERS = [2.0, True, "8", -1, 0, 3, NAN]
INTEGER_FIELDS = {"fock_dim", "n_sections"}

# type -> field -> values the field may take when valid.
CHANNEL_FIELDS = {
    "depolarizing": {"p": [0.0, 0.1, 1]},
    "dephasing": {"p": [0.0, 0.5, 1.0]},
    "erasure": {"p": [0.0, 0.25, 1.0]},
    "bosonic": {"loss_db": [0.0, 3, 30.0], "n_th": [0.0, 0.5], "fock_dim": [2]},
    "turbulence": {
        "sigma_p": [0.0, 0.1, 2.0],
        "w0": [1.0, 0.5],
        "rytov_var": [0.0, 0.2, 3.0],
        "path_loss_db": [0.0, 6.0],
    },
    "pmd": {"dgd": [0.0, 2.0, 10.0], "sigma_omega": [0.0, 1.0], "n_sections": [1, 8]},
}


def pick(valid, bad):
    """A value from ``valid`` nineteen times in twenty, otherwise one from ``bad``.

    A config holds a few dozen picks; at this rate about a third of the
    generated configs load and run.
    """
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(bad if k == 0 else valid))


RARELY = pick([False], [True])


@st.composite
def channel_entries(draw, index):
    kind = draw(pick(sorted(CHANNEL_FIELDS), ["fading", None]))
    entry = {"name": draw(pick([f"c{index}"], ["c0", "", "../up", 7])), "type": kind}
    for field, valid in CHANNEL_FIELDS.get(kind, {}).items():
        if not draw(RARELY):
            bad = BAD_INTEGERS if field in INTEGER_FIELDS else BAD_REALS
            entry[field] = draw(pick(valid, bad))
    if draw(RARELY):
        entry["gamma"] = 1.0
    return entry


@st.composite
def configs(draw):
    flag = pick([True, False], ["false", 0, None])
    d = {
        "modulation": draw(pick(
            [{"type": "qpsk"}, {"type": "qam", "M": 4}, {"type": "qam", "M": 16},
             {"type": "qam"}],
            ["qam", None, ["qam"]]
            + [{"type": "qam", "M": m} for m in (8, 2, -4, 16.0, True, "16")]
            + [{"type": "qpsk", "M": 4}, {"type": "psk"}],
        )),
        "n_symbols": draw(pick([1, 17, 64], [0, -5, 10.9, 10.0, True, "8", None])),
        "seed": draw(pick([0, 123, 2**64 - 1], [-1, 2**64, 1.5, True, "1", NAN])),
        "channels": draw(pick(
            [[draw(channel_entries(k)) for k in range(draw(st.integers(1, 3)))]],
            [[5], "abc", [["name", "c0"]], {"name": "c0"}, None],
        )),
        "decision_mode": draw(pick(["argmax", "sampled"], ["vote", 1, None])),
        "output": {
            "dir": draw(pick(["out"], [5, None, ["out"]])),
            "emit_states": draw(flag),
            "emit_figures": draw(flag),
        },
        "notes": draw(pick(["a note", ""], [5, ["a"], None])),
    }
    if draw(RARELY):
        d["output"]["emit_figure"] = False
    if draw(RARELY):
        d["output"] = draw(st.sampled_from(["out", [], None]))
    for key in ("modulation", "n_symbols", "seed", "output", "notes"):
        if draw(RARELY):
            del d[key]
    if draw(RARELY):
        d["extra"] = 1
    return d


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(configs())
# An integral float in an integer field used to load, then crash mid-comparison.
@example({"modulation": {"type": "qpsk"}, "n_symbols": 8, "seed": 1, "channels": [
    {"name": "c0", "type": "bosonic", "loss_db": 3.0, "fock_dim": 2.0}]})
def test_config_is_rejected_or_runs_to_valid_rates(d):
    try:
        cfg = config_from_dict(d)
    except (ValueError, TypeError) as err:
        assert str(err)
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dataclasses.replace(
            cfg, output_dir=Path(tmp), emit_states=False, emit_figures=False
        )
        report = run_comparison(cfg)
    for r in report.channels.values():
        assert math.isfinite(r.ser) and 0.0 <= r.ser <= 1.0
        assert math.isfinite(r.ber) and 0.0 <= r.ber <= 1.0
