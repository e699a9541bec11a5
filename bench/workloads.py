"""The benchmark's workloads: each one a JSON config generated from the seed alone.

The channel settings are the shipped example's, copied here so that the
inputs depend on the seed and nothing else: a commit that edits the shipped
config file does not change what the benchmark runs.  At the shipped seed
(123) ``compare_default`` is the shipped ``default_config.json`` at
``COMPARE_SYMBOLS`` symbols per channel, which is what
``qlinksim compare --symbols 1000`` runs.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 123
# The shipped config's 4000 symbols make one compare pass last 8-11 s, so a
# run would hold three or four passes; at 1000 it holds a dozen or more.
COMPARE_SYMBOLS = 1000

SHIPPED_CHANNELS = (
    {"name": "depolarizing", "type": "depolarizing", "p": 0.1},
    {"name": "dephasing", "type": "dephasing", "p": 0.2},
    {"name": "erasure", "type": "erasure", "p": 0.25},
    {"name": "bosonic", "type": "bosonic", "loss_db": 3.0, "n_th": 0.0, "fock_dim": 2},
    {
        "name": "turbulence",
        "type": "turbulence",
        "sigma_p": 0.1,
        "w0": 1.0,
        "rytov_var": 0.2,
        "path_loss_db": 0.0,
    },
    {"name": "pmd", "type": "pmd", "dgd": 2.0, "sigma_omega": 1.0, "n_sections": 8},
)

ARTIFACTS_ON = {"dir": "out", "emit_states": True, "emit_figures": True}
ARTIFACTS_OFF = {"dir": "out", "emit_states": False, "emit_figures": False}

# name -> (why, config template without the seed).  The core_* sizes make one
# pass take under a second today and still milliseconds after a hundredfold
# speedup, so either way a run repeats the pass often enough to find quiet
# moments between the slow spells of a shared machine.
WORKLOADS = {
    "compare_default": (
        "the shipped compare config at 1000 symbols, states CSV and both SVGs: artifact and state-projection work dominate",
        {
            "modulation": {"type": "qam", "M": 16},
            "n_symbols": COMPARE_SYMBOLS,
            "decision_mode": "argmax",
            "channels": SHIPPED_CHANNELS,
            "output": ARTIFACTS_ON,
        },
    ),
    "core_deterministic": (
        "four deterministic channels, artifacts off: channel apply, state checks and argmax decisions",
        {
            "modulation": {"type": "qam", "M": 16},
            "n_symbols": 4000,
            "decision_mode": "argmax",
            "channels": SHIPPED_CHANNELS[:4],
            "output": ARTIFACTS_OFF,
        },
    ),
    "core_stochastic_sampled": (
        "turbulence and pmd, 64-QAM, Born-sampled decisions: per-symbol random streams no per-state cache can skip",
        {
            "modulation": {"type": "qam", "M": 64},
            "n_symbols": 500,
            "decision_mode": "sampled",
            "channels": SHIPPED_CHANNELS[4:],
            "output": ARTIFACTS_OFF,
        },
    ),
}


def make_config(workload: str, seed: int) -> dict:
    """The JSON config of ``workload`` with its random streams keyed by ``seed``."""
    _, template = WORKLOADS[workload]
    config = copy.deepcopy(template)
    config["seed"] = seed
    config["channels"] = [dict(c) for c in config["channels"]]
    return config
