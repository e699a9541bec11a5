"""Span tracing of ``qlinksim`` from outside the package.

:class:`Tracer` wraps the public functions of each ``qlinksim`` module and
two methods (``DensityMatrix.__init__`` and ``Channel.apply``, the latter
tagged with its channel kind).  Every call records a span: name, start,
end, parent span and run id.  Spans are kept in flat arrays in memory and
saved once, by :meth:`Tracer.save`, after the run.

A target that no longer exists is skipped, so it reports zero calls rather
than failing the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "qlinksim"

# span name -> (module, attribute) pairs of the functions it times.
FUNCTION_SPANS = {
    "states.leading_qubit_block": (("states", "leading_qubit_block"),),
    "modulation.codebook": (("modulation", "qam_codebook"), ("modulation", "qpsk_codebook")),
    "detection.build": (("detection", "build_pgm"), ("detection", "embed_povm_with_erasure")),
    "detection.decide": (("detection", "decide"), ("detection", "decide_sampled")),
    "pipeline.derive_rng": (("pipeline", "derive_rng"),),
    "pipeline.run_simulation": (("pipeline", "run_simulation"),),
    "pipeline.write_states_csv": (("pipeline", "write_states_csv"),),
    "pipeline.write_report": (("pipeline", "write_report"),),
    "metrics": (
        ("metrics", "compute_ser"),
        ("metrics", "compute_ber"),
        ("modulation", "symbols_to_bits"),
    ),
    "visualization.points": (
        ("visualization", "constellation_point"),
        ("visualization", "bloch_points"),
    ),
    "visualization.render": (
        ("visualization", "render_constellation_svg"),
        ("visualization", "render_bloch_svg"),
    ),
}
DENSITY_MATRIX_SPAN = "states.density_matrix"
CHANNEL_APPLY_PREFIX = "channels.apply."
LAP_SPAN = "lap"


def _channel_kind(args) -> str:
    return getattr(getattr(args[0], "config", None), "kind", "unknown")


class Tracer:
    """Records spans of calls into ``qlinksim`` while installed.

    ``spans`` maps span names to the functions they time (all of
    :data:`FUNCTION_SPANS` by default); ``methods`` adds the two class-level
    method spans.  With ``lap_calls`` > 0 and ``methods`` off, every
    ``lap_calls``-th call of each of the two methods records an empty span
    instead, which marks a point that every pass of the same work reaches.
    """

    def __init__(self, spans: dict | None = None, methods: bool = True, lap_calls: int = 0):
        self.spans = FUNCTION_SPANS if spans is None else spans
        self.methods = methods
        self.lap_calls = lap_calls
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Forget every recorded span; names stay interned."""
        for field in (self.start, self.end, self.name, self.parent, self.run):
            del field[:]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _mark(self, name_id: int) -> None:
        """Record an empty span: a point in time."""
        now = time.perf_counter()
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.start.append(now)
        self.end.append(now)

    def wrap(self, fn, name: str):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_apply(self, fn):
        ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kind = _channel_kind(args)
            if kind not in ids:
                ids[kind] = self._intern(CHANNEL_APPLY_PREFIX + kind)
            idx = self._open(ids[kind])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _mark_laps(self, fn):
        name_id = self._intern(LAP_SPAN)
        calls = 0

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % self.lap_calls == 0:
                self._mark(name_id)
            return fn(*args, **kwargs)

        return marked

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _patch_method(self, module: str, cls_name: str, method: str, make_wrapper) -> None:
        cls = getattr(self._module(module), cls_name, None)
        original = None if cls is None else cls.__dict__.get(method)
        if original is None:
            return
        setattr(cls, method, make_wrapper(original))
        self._restore.append((cls, method, original))

    def install(self) -> None:
        """Rebind every target in every loaded module of the package that holds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements: dict[int, object] = {}
        for span_name, targets in self.spans.items():
            for module, attr in targets:
                original = getattr(self._module(module), attr, None)
                if callable(original):
                    replacements[id(original)] = self.wrap(original, span_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, value))
        if self.methods:
            self._patch_method(
                "states", "DensityMatrix", "__init__", lambda f: self.wrap(f, DENSITY_MATRIX_SPAN)
            )
            self._patch_method("channels", "Channel", "apply", self._wrap_apply)
        elif self.lap_calls > 0:
            self._patch_method("states", "DensityMatrix", "__init__", self._mark_laps)
            self._patch_method("channels", "Channel", "apply", self._mark_laps)

    @contextlib.contextmanager
    def installed(self, root: str):
        """Install for the duration of a block and record it as one root span."""
        self.install()
        idx = self._open(self._intern(root))
        try:
            yield
        finally:
            self._close(idx)
            self.uninstall()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap one another; their union is subtracted once.
    """
    start = np.asarray(start, dtype=float).tolist()
    end = np.asarray(end, dtype=float).tolist()
    out = [e - s for s, e in zip(start, end)]
    children = defaultdict(list)
    for idx, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(idx)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0.0, lo
        for k in sorted(kids, key=start.__getitem__):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return np.array(out)


def per_run_totals(names, name, run, self_s) -> dict[int, dict[str, tuple[int, float]]]:
    """run id -> span name -> (calls, summed self time)."""
    calls: dict = defaultdict(lambda: defaultdict(int))
    total: dict = defaultdict(lambda: defaultdict(float))
    for n, r, t in zip(np.asarray(name).tolist(), np.asarray(run).tolist(), self_s.tolist()):
        calls[r][names[n]] += 1
        total[r][names[n]] += t
    return {r: {k: (calls[r][k], total[r][k]) for k in calls[r]} for r in calls}
