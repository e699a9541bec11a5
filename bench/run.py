"""qlinksim benchmark: run one workload, check what it wrote, print its metrics.

    python3 bench/run.py --workload core_deterministic --seed 123 --seconds 36 --trace 0

runs the workload's comparison repeatedly for about ``--seconds`` seconds in
this process, checks every pass, and prints one JSON object as the last line
of standard output: ``correct``, ``attempted`` and ``failed`` (channel runs)
and ``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer metrics from spans recorded around calls into each module.

Without ``--workload`` every workload runs, each in its own process, and a
table is printed; ``--out FILE`` also saves the results with a description
of the machine.  Run from the root of a source checkout: the program is
imported from ``src/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, so that timings do not
# depend on how many cores the machine lends to linear algebra.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from checks import artifact_digests, changed_channels, report_problems  # noqa: E402
from spans import CHANNEL_APPLY_PREFIX, Tracer, per_run_totals, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config  # noqa: E402

SETUP_REPS = 31
WARMUP_SYMBOLS = 64
MAX_TRACED_PASSES = 8
CHANNEL_KINDS = ("depolarizing", "dephasing", "erasure", "bosonic", "turbulence", "pmd")
PASS_SPAN = "pass"
# Timers that split an untraced pass into parts: each channel's run and, in
# it, the artifact writers, plus a mark at every LAP_CALLS-th channel
# application and every LAP_CALLS-th state built, so that few parts last
# more than a few hundredths of a second.
LAP_CALLS = 10
PART_CLOCK = {
    "part": (
        ("pipeline", "run_simulation"),
        ("pipeline", "write_states_csv"),
        ("visualization", "bloch_points"),
        ("visualization", "render_constellation_svg"),
        ("visualization", "render_bloch_svg"),
    )
}
ARTIFACT_SPANS = ("pipeline.write_states_csv", "visualization.points", "visualization.render")

END_TO_END_UNITS = {"symbols_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Runs in a fresh interpreter: import, config load, codebook, and a channel
# and detector per configured channel, through the public API.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qlinksim
cfg = qlinksim.load_config(sys.argv[2])
if cfg.modulation == "qpsk":
    codebook = qlinksim.qpsk_codebook()
else:
    codebook = qlinksim.qam_codebook(cfg.qam_order)
for _, channel_cfg in cfg.channels:
    channel = qlinksim.Channel(channel_cfg, input_dim=codebook.dim)
    povm = qlinksim.build_pgm(codebook)
    if channel.output_dim > codebook.dim:
        povm = qlinksim.embed_povm_with_erasure(povm, channel.output_dim)
print(time.perf_counter() - t0)
"""


def import_program():
    """Import qlinksim from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qlinksim

    if Path(qlinksim.__file__).resolve().parent != (SRC / "qlinksim").resolve():
        raise SystemExit(f"bench: imported qlinksim from {qlinksim.__file__}, not {SRC}")
    return qlinksim


def measure_setup(config_path: Path) -> float:
    """Set-up time of one fresh interpreter."""
    cmd = [sys.executable, "-I", "-c", SETUP_SCRIPT, str(SRC), str(config_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_pass(qlinksim, cfg, config: dict, pass_dir: Path, around=contextlib.nullcontext):
    """One comparison run in ``pass_dir``: wall time, per-channel problems, artifact digests and sizes."""
    names = [c["name"] for c in config["channels"]]
    pass_dir.mkdir(parents=True)
    # Every pass starts with no garbage left by the one before it.
    gc.collect()
    cwd = os.getcwd()
    os.chdir(pass_dir)
    error = None
    try:
        with around():
            t0 = time.perf_counter()
            try:
                qlinksim.run_comparison(cfg)
            except Exception as err:  # a failed run is counted, not fatal
                error = f"run_comparison raised {type(err).__name__}: {err}"
            wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    out = pass_dir / "out"
    if error is None:
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            problems = report_problems(report, config, out)
        except (OSError, ValueError, KeyError, TypeError) as err:
            error = f"unreadable report.json: {type(err).__name__}: {err}"
    if error is not None:
        problems = {name: [error] for name in names}
    files = sorted(out.iterdir()) if out.is_dir() else []
    result = {
        "wall": wall,
        "problems": problems,
        "digests": artifact_digests(out) if files else {},
        "csv_bytes": sum(p.stat().st_size for p in files if p.suffix == ".csv"),
        "svg_bytes": sum(p.stat().st_size for p in files if p.suffix == ".svg"),
    }
    shutil.rmtree(pass_dir)
    return result


def enough(passes: int, elapsed: float, seconds: float, min_passes: int) -> bool:
    """Stop when one more pass of average length would overrun the time budget."""
    return passes >= min_passes and elapsed * (passes + 1) / passes > seconds


def pass_parts(clock: Tracer) -> np.ndarray:
    """Intervals between consecutive events (span starts and ends, lap marks among them) the clock holds."""
    a = clock.arrays()
    return np.diff(np.sort(np.concatenate([a["start"], a["end"]])))


class FastestParts:
    """Time of a pass made of each part's fastest run over all passes.

    The parts of a pass are its :func:`pass_parts`; the same work lies
    between the k-th and (k+1)-th event of every pass.  Work from other
    tenants of a shared machine only ever slows a part, so the fastest run
    of each part is the steadiest estimate of the program's own cost.  Only
    the running minimum is kept, so memory does not grow with the number of
    passes.  If the passes do not all split into the same number of parts,
    the fastest whole pass is used.
    """

    def __init__(self):
        self.best: np.ndarray | None = None
        self.fastest_pass = float("inf")
        self.aligned = True

    def add(self, parts: np.ndarray) -> None:
        self.fastest_pass = min(self.fastest_pass, float(parts.sum()))
        if self.best is None:
            self.best = parts.copy()
        elif len(parts) == len(self.best):
            np.minimum(self.best, parts, out=self.best)
        else:
            self.aligned = False

    def seconds(self) -> float:
        return float(self.best.sum()) if self.aligned else self.fastest_pass


def failed_channel_runs(passes: list[dict], names: list[str], log) -> int:
    """Channel runs that failed a check or wrote different bytes from the first pass."""
    failed = 0
    first = passes[0]["digests"]
    for k, p in enumerate(passes):
        bad = {n for n, probs in p["problems"].items() if probs}
        changed = changed_channels(first, p["digests"], names)
        for n in sorted(bad):
            log(f"pass {k} channel {n}: " + "; ".join(p["problems"][n]))
        for n in sorted(changed - bad):
            log(f"pass {k} channel {n}: artifacts differ from pass 0")
        failed += len(bad | changed)
    return failed


def layer_metrics(totals: dict, uses: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span totals (calls, self seconds)."""

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    applies = [n for n in totals if n.startswith(CHANNEL_APPLY_PREFIX)]
    m = {
        "states.density_matrix.calls": calls("states.density_matrix"),
        "states.density_matrix.per_symbol": calls("states.density_matrix") / uses,
        "states.density_matrix.self_s": self_s("states.density_matrix"),
        "states.leading_qubit_block.calls": calls("states.leading_qubit_block"),
        "states.leading_qubit_block.self_s": self_s("states.leading_qubit_block"),
        "modulation.codebook.self_s": self_s("modulation.codebook"),
        "detection.build.self_s": self_s("detection.build"),
        "detection.decide.calls": calls("detection.decide"),
        "detection.decide.self_s": self_s("detection.decide"),
        "channels.apply.calls": calls(*applies),
        "channels.apply.self_s": self_s(*applies),
    }
    for kind in CHANNEL_KINDS:
        m[f"channels.apply.{kind}.self_s"] = self_s(CHANNEL_APPLY_PREFIX + kind)
    m.update(
        {
            "pipeline.derive_rng.calls": calls("pipeline.derive_rng"),
            "pipeline.derive_rng.self_s": self_s("pipeline.derive_rng"),
            "pipeline.write_states_csv.self_s": self_s("pipeline.write_states_csv"),
            "pipeline.write_report.self_s": self_s("pipeline.write_report"),
            "pipeline.run_simulation.self_s": self_s("pipeline.run_simulation"),
            "metrics.self_s": self_s("metrics"),
            "visualization.points.calls": calls("visualization.points"),
            "visualization.points.self_s": self_s("visualization.points"),
            "visualization.render.self_s": self_s("visualization.render"),
        }
    )
    return m


def artifact_share(arrays: dict, names: list[str], root_span: str) -> dict[int, float]:
    """Run id -> share of the root span spent inside artifact spans (outermost ones only)."""
    artifact_ids = {i for i, n in enumerate(names) if n in ARTIFACT_SPANS}
    root_id = names.index(root_span)
    name, parent = arrays["name"].tolist(), arrays["parent"].tolist()
    dur = (arrays["end"] - arrays["start"]).tolist()
    inside = [False] * len(name)
    inside_s: dict[int, float] = {}
    root_s: dict[int, float] = {}
    for i, (n, p, r) in enumerate(zip(name, parent, arrays["run"].tolist())):
        outer = p >= 0 and inside[p]
        inside[i] = n in artifact_ids or outer
        if n in artifact_ids and not outer:
            inside_s[r] = inside_s.get(r, 0.0) + dur[i]
        if n == root_id:
            root_s[r] = dur[i]
    return {r: inside_s.get(r, 0.0) / root_s[r] for r in root_s}


def traced_values(tracer: Tracer, traced: list[dict], untraced_walls: list[float], uses: int) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's value."""
    arrays = tracer.arrays()
    self_s = self_times(arrays["start"], arrays["end"], arrays["parent"])
    totals = per_run_totals(tracer.names, arrays["name"], arrays["run"], self_s)
    share = artifact_share(arrays, tracer.names, PASS_SPAN)
    per_pass = []
    for r, p in enumerate(traced):
        m = layer_metrics(totals.get(r, {}), uses)
        m["pipeline.write_states_csv.bytes"] = p["csv_bytes"]
        m["visualization.svg.bytes"] = p["svg_bytes"]
        m["artifacts.share"] = share.get(r, 0.0)
        per_pass.append(m)
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced) - statistics.median(untraced_walls)
    )
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    log = lambda msg: print(f"[{workload}] {msg}", file=sys.stderr)  # noqa: E731
    config = make_config(workload, seed)
    names = [c["name"] for c in config["channels"]]
    uses = config["n_symbols"] * len(names)
    # An untraced compare_default run makes at least four passes whatever the
    # time budget: two to compare artifact bytes, and more so that each
    # part's fastest run is likely to have met a quiet machine.
    min_passes = 4 if config["output"]["emit_states"] and not trace else 1
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        warmup = {**config, "n_symbols": WARMUP_SYMBOLS}
        warmup_path = work / "warmup.json"
        warmup_path.write_text(json.dumps(warmup), encoding="utf-8")
        setup_reps = 0 if trace else SETUP_REPS
        setup_times: list[float] = []
        if not trace:
            measure_setup(config_path)  # may compile bytecode; not counted
        qlinksim = import_program()
        cfg = qlinksim.load_config(config_path)
        # Lets lazy imports and first-call work finish before anything is timed.
        run_pass(qlinksim, qlinksim.load_config(warmup_path), warmup, work / "warmup")

        passes, traced = [], []
        clock = Tracer(spans=PART_CLOCK, methods=False, lap_calls=LAP_CALLS)
        fastest = FastestParts()
        tracer = Tracer()
        t_start = time.perf_counter()
        while True:
            k = len(passes)
            tracer.run_id = k
            passes.append(run_pass(qlinksim, cfg, config, work / f"pass{k}",
                                   lambda: clock.installed(PASS_SPAN)))
            fastest.add(pass_parts(clock))
            clock.clear()
            if trace:
                traced.append(run_pass(qlinksim, cfg, config, work / f"traced{k}",
                                       lambda: tracer.installed(PASS_SPAN)))
            elapsed = time.perf_counter() - t_start
            # Set-up samples are spread over the run, so that one slow spell
            # of the machine cannot hide every quiet moment from them.
            while len(setup_times) < setup_reps * min(1.0, elapsed / seconds):
                setup_times.append(measure_setup(config_path))
            if len(traced) >= MAX_TRACED_PASSES or enough(len(passes), elapsed, seconds, min_passes):
                break
        while len(setup_times) < setup_reps:
            setup_times.append(measure_setup(config_path))

        all_passes = passes + traced
        failed = failed_channel_runs(all_passes, names, log)
        walls = [p["wall"] for p in passes]
        log(f"{len(passes)} untraced passes" + (f", {len(traced)} traced" if trace else "")
            + ", pass seconds: " + " ".join(f"{w:.3f}" for w in walls)
            + ", setup seconds: " + " ".join(f"{w:.4f}" for w in setup_times))
        if trace:
            values = traced_values(tracer, traced, walls, uses)
            tracer.save(WORK / f"trace-{workload}-seed{seed}.npz")
            units = {k: _layer_unit(k) for k in values}
        else:
            values = {
                "symbols_per_s": uses / fastest.seconds(),
                "setup_s": min(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": len(all_passes) * len(names),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".per_symbol"):
        return "count/use"
    if name.endswith(".share"):
        return "ratio"
    return "s"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "processor": platform.machine(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{workload}: benchmark exited with {done.returncode}", file=sys.stderr)
            return 2
        results[workload] = json.loads(lines[-1])
    status = 0
    for workload, res in results.items():
        fraction = res["failed"] / res["attempted"]
        print(f"{workload}: correct={res['correct']} failed_fraction={fraction:g} "
              f"({res['failed']}/{res['attempted']} channel runs)")
        for name, metric in res["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        status |= not res["correct"]
    if args.out:
        path = Path(args.out)
        saved = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        saved["machine"] = machine()
        saved["seed"] = args.seed
        saved["seconds"] = args.seconds
        saved["traced" if args.trace else "untraced"] = results
        path.write_text(json.dumps(saved, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with all workloads: also save the results to this JSON file")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qlinksim" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'qlinksim'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
