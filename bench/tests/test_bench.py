"""Tests of the benchmark itself: its reference physics, span accounting, checks and contract.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import qlinksim
from checks import artifact_digests, channel_problems, report_problems
from conftest import BENCH_DIR, ROOT
from reference import (
    DETERMINISTIC_KINDS,
    apply_channel,
    exact_error_probability,
    outcome_probabilities,
    pgm,
    qam_states,
    with_erasure,
)
from run import FastestParts, pass_parts
from spans import LAP_SPAN, Tracer, per_run_totals, self_times
from workloads import COMPARE_SYMBOLS, DEFAULT_SEED, SHIPPED_CHANNELS, WORKLOADS, make_config

DETERMINISTIC = [c for c in SHIPPED_CHANNELS if c["type"] in DETERMINISTIC_KINDS]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _program_channel(entry: dict):
    return qlinksim.Channel(qlinksim.pipeline.channel_config_from_dict(
        {k: v for k, v in entry.items() if k != "name"}
    ))


@pytest.mark.parametrize("order", [16, 64])
def test_reference_codebook_and_pgm_match_program(order):
    codebook = qlinksim.qam_codebook(order)
    states = qam_states(order)
    program_states = np.stack([s.mat for s in codebook.states])
    assert np.max(np.abs(states - program_states)) <= 1e-12

    elements = pgm(states, np.full(order, 1.0 / order))
    povm = qlinksim.build_pgm(codebook)
    assert np.max(np.abs(elements - np.stack(povm.elements))) <= 1e-12

    embedded = qlinksim.embed_povm_with_erasure(povm, 3)
    assert np.max(np.abs(with_erasure(elements, 3) - np.stack(embedded.elements))) <= 1e-12


@pytest.mark.parametrize("order", [16, 64])
@pytest.mark.parametrize("entry", DETERMINISTIC, ids=lambda c: c["type"])
def test_reference_maps_match_program(order, entry):
    channel = _program_channel(entry)
    states = qam_states(order)
    ours = apply_channel(entry["type"], entry, states)
    for m, state in enumerate(qlinksim.qam_codebook(order).states):
        assert np.max(np.abs(ours[m] - channel.apply(state).mat)) <= 1e-12


@pytest.mark.parametrize("order", [16, 64])
@pytest.mark.parametrize("entry", DETERMINISTIC, ids=lambda c: c["type"])
def test_exact_error_probability_matches_program_decisions(order, entry):
    codebook = qlinksim.qam_codebook(order)
    channel = _program_channel(entry)
    povm = qlinksim.build_pgm(codebook)
    if channel.output_dim > codebook.dim:
        povm = qlinksim.embed_povm_with_erasure(povm, channel.output_dim)
    received = [channel.apply(s) for s in codebook.states]
    wrong = [qlinksim.decide(povm, rho) != m for m, rho in enumerate(received)]
    assert exact_error_probability(entry["type"], entry, order, "argmax") == np.mean(wrong)
    born = np.mean([1.0 - qlinksim.measurement_scores(povm, rho)[m] for m, rho in enumerate(received)])
    assert exact_error_probability(entry["type"], entry, order, "sampled") == pytest.approx(born, abs=1e-12)


def test_outcome_probabilities_sum_to_one():
    states = qam_states(16)
    elements = with_erasure(pgm(states, np.full(16, 1 / 16)), 3)
    received = apply_channel("erasure", {"p": 0.25}, states)
    assert np.allclose(outcome_probabilities(elements, received).sum(axis=1), 1.0, atol=1e-12)


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6], which overlap, and c
    # [8, 12], which runs past its parent; a has a child g [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])
    totals = per_run_totals(["root", "x", "g"], [0, 1, 1, 1, 2], [0, 0, 0, 1, 1], got)
    assert totals[0] == {"root": (1, 3.0), "x": (2, 5.0)}
    assert totals[1] == {"x": (1, 4.0), "g": (1, 1.0)}


def test_tracer_counts_calls_and_restores_the_program(tmp_path):
    config = make_config("core_deterministic", 7)
    config["n_symbols"] = 20
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "output": {**config["output"], "dir": str(tmp_path / "out")}}))
    cfg = qlinksim.load_config(path)
    init, apply_, decide = qlinksim.DensityMatrix.__init__, qlinksim.Channel.apply, qlinksim.pipeline.decide

    tracer = Tracer()
    with tracer.installed("workload"):
        qlinksim.run_comparison(cfg)

    assert qlinksim.DensityMatrix.__init__ is init
    assert qlinksim.Channel.apply is apply_ and qlinksim.pipeline.decide is decide
    arrays = tracer.arrays()
    totals = per_run_totals(tracer.names, arrays["name"], arrays["run"],
                            self_times(arrays["start"], arrays["end"], arrays["parent"]))[0]
    assert totals["detection.decide"][0] == 80
    for kind in ("depolarizing", "dephasing", "erasure", "bosonic"):
        assert totals[f"channels.apply.{kind}"][0] == 20
    assert totals["pipeline.run_simulation"][0] == 4
    assert totals["pipeline.derive_rng"][0] == 4
    # One state per symbol-use, 16 codebook states per channel, and the
    # bosonic channel's thermal environment.
    assert totals["states.density_matrix"][0] == 80 + 4 * 16 + 1
    assert "states.leading_qubit_block" not in totals
    assert set(arrays["parent"][arrays["name"] == tracer.names.index("pipeline.run_simulation")]) == {0}


class _Clock:
    def __init__(self, start, end):
        self._arrays = {"start": np.asarray(start), "end": np.asarray(end)}

    def arrays(self):
        return self._arrays


def test_fastest_parts_takes_the_fastest_run_of_each_part():
    # Two passes of a root span with one child; the parts are the intervals
    # between events: pass 0 is [1, 3, 1], pass 1 is [2, 1, 2].
    first, second = pass_parts(_Clock([0.0, 1.0], [5.0, 4.0])), pass_parts(_Clock([10.0, 12.0], [15.0, 13.0]))
    assert first.tolist() == [1, 3, 1] and second.tolist() == [2, 1, 2]
    fastest = FastestParts()
    fastest.add(first)
    fastest.add(second)
    assert fastest.seconds() == pytest.approx(1 + 1 + 1)
    # Passes that split differently fall back to the fastest whole pass.
    fastest.add(np.array([4.5]))
    assert fastest.seconds() == pytest.approx(4.5)


def test_lap_marks_repeat_in_every_pass(tmp_path):
    config = make_config("core_deterministic", 7)
    config["n_symbols"] = 20
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "output": {**config["output"], "dir": str(tmp_path / "out")}}))
    cfg = qlinksim.load_config(path)
    init, apply_ = qlinksim.DensityMatrix.__init__, qlinksim.Channel.apply

    clock = Tracer(spans={}, methods=False, lap_calls=10)
    fastest, passes = FastestParts(), []
    for _ in range(2):
        with clock.installed("pass"):
            qlinksim.run_comparison(cfg)
        arrays = clock.arrays()
        laps = arrays["name"] == clock.names.index(LAP_SPAN)
        # 80 channel applications and 145 states per pass (see above).
        assert int(laps.sum()) == 8 + 14 and len(arrays["name"]) == 1 + 8 + 14
        assert np.all(arrays["start"][laps] == arrays["end"][laps])
        passes.append(float(arrays["end"][~laps][0] - arrays["start"][~laps][0]))
        fastest.add(pass_parts(clock))
        clock.clear()

    assert qlinksim.DensityMatrix.__init__ is init and qlinksim.Channel.apply is apply_
    assert 0 < fastest.seconds() <= min(passes)
    assert fastest.aligned and len(fastest.best) == 2 * (1 + 8 + 14) - 1


def test_tracer_skips_targets_that_no_longer_exist(monkeypatch):
    import spans

    monkeypatch.setitem(spans.FUNCTION_SPANS, "gone", (("pipeline", "no_such_function"), ("nowhere", "f")))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "gone" not in tracer.names


@pytest.fixture(scope="module")
def deterministic_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    config = make_config("core_deterministic", 11)
    config["n_symbols"] = 400
    path = tmp / "config.json"
    path.write_text(json.dumps({**config, "output": {**config["output"], "dir": str(tmp / "out")}}))
    qlinksim.run_comparison(qlinksim.load_config(path))
    return config, json.loads((tmp / "out" / "report.json").read_text()), tmp / "out"


def test_checks_accept_the_program_report(deterministic_report):
    config, report, out = deterministic_report
    assert report_problems(report, config, out) == {c["name"]: [] for c in config["channels"]}


@pytest.mark.parametrize(
    "channel, field, value, expect",
    [
        ("bosonic", "ser", 0.5, "ser 0.5 != ser_count"),
        ("bosonic", "ber_count", 10**6, "ber_count"),
        ("dephasing", "ber_count", 1, "outside [ser_count"),
        ("depolarizing", "erasure_count", 3, "without erasures"),
        ("erasure", "erasure_count", 401, "erasure_count 401"),
        ("bosonic", "n_symbols", 399, "n_symbols 399"),
    ],
)
def test_checks_reject_a_tampered_report(deterministic_report, channel, field, value, expect):
    config, report, out = deterministic_report
    tampered = copy.deepcopy(report)
    tampered["channels"][channel][field] = value
    problems = report_problems(tampered, config, out)
    assert any(expect in p for p in problems[channel]), problems[channel]
    assert all(not probs for name, probs in problems.items() if name != channel)


def test_checks_bound_deterministic_errors_by_the_exact_probability(deterministic_report):
    config, report, _ = deterministic_report
    entry = dict(report["channels"]["depolarizing"])
    entry.update(ser_count=4, ser=4 / 400, ber_count=4, ber=4 / 1600)
    channel = next(c for c in config["channels"] if c["name"] == "depolarizing")
    assert any("exact error probability" in p for p in channel_problems(entry, channel, config))


def test_checks_report_a_missing_channel(deterministic_report):
    config, report, out = deterministic_report
    tampered = copy.deepcopy(report)
    del tampered["channels"]["erasure"]
    assert report_problems(tampered, config, out)["erasure"] == ["channel missing from report.json"]


def test_compare_default_is_the_shipped_config_at_the_shipped_seed():
    shipped = json.loads(qlinksim.default_config_path().read_text(encoding="utf-8"))
    shipped.pop("notes", None)
    shipped["n_symbols"] = COMPARE_SYMBOLS
    assert make_config("compare_default", DEFAULT_SEED) == shipped
    assert make_config("compare_default", 5)["seed"] == 5


def test_compare_default_writes_the_bytes_of_the_cli(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_config("compare_default", DEFAULT_SEED)))
    (tmp_path / "cli").mkdir()
    subprocess.run(
        [sys.executable, "-m", "qlinksim", "compare", "--symbols", str(COMPARE_SYMBOLS)],
        cwd=tmp_path / "cli", env={"PYTHONPATH": str(ROOT / "src")}, check=True, capture_output=True,
    )
    (tmp_path / "bench").mkdir()
    monkeypatch.chdir(tmp_path / "bench")
    qlinksim.run_comparison(qlinksim.load_config(config_path))
    assert artifact_digests(tmp_path / "bench" / "out") == artifact_digests(tmp_path / "cli" / "out")


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    done = _run_bench(ROOT, "--workload", "core_deterministic", "--seed", "3", "--seconds", "0.5",
                      "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == [BENCH_DIR.name]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", "core_deterministic", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
