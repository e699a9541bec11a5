"""The report encoder against ``json.dumps(indent=2, sort_keys=True)``.

``write_report`` formats report.json with its own recursive encoder; its
text must be the standard library's, byte for byte, on any nest of the
values a report holds and on the reports of the benchmark's three kinds of
run.  Examples are derandomized, so the test is reproducible; it is
skipped where hypothesis is not installed.
"""

import dataclasses
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qlinksim import pipeline  # noqa: E402
from qlinksim.pipeline import default_config_path, load_config, run_comparison  # noqa: E402

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 1e300]),
    st.text(),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=24,
)


def encoded(value) -> str:
    out = []
    pipeline._json(value, "\n", out)
    return "".join(out)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(VALUES)
@example({"b": [], "a": {}, "c": [{"z": -0.0, "y": "é\n\"", "x": None}, (1, True)]})
def test_encoder_writes_what_json_dumps_writes(value):
    assert encoded(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [{"a": np.int64(1)}, [object()], {1: "a"}])
def test_other_values_and_keys_are_refused(value):
    # What no report holds: numpy scalars and other objects, which json
    # refuses too, and keys that are not strings, which json would convert.
    with pytest.raises(TypeError):
        encoded(value)


@pytest.mark.parametrize(
    "mode, order, channels, n, artifacts",
    [
        ("argmax", 16, slice(None), 1000, True),  # the shipped comparison
        ("argmax", 16, slice(0, 4), 4000, False),  # four deterministic channels
        ("sampled", 64, slice(4, 6), 500, False),  # turbulence and PMD, Born-sampled
    ],
)
def test_reports_are_written_as_json_dumps_writes_them(tmp_path, mode, order, channels, n, artifacts):
    shipped = load_config(default_config_path())
    cfg = dataclasses.replace(
        shipped, qam_order=order, decision_mode=mode, channels=shipped.channels[channels],
        n_symbols=n, emit_states=artifacts, emit_figures=artifacts, output_dir=tmp_path,
    )
    report = run_comparison(cfg)
    want = json.dumps(pipeline.report_to_dict(report), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "report.json").read_bytes() == want.encode("ascii")
