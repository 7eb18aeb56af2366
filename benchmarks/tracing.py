"""In-memory span tracer that wraps ptqsim's public functions at their call sites.

Every ptqsim module that holds a reference to a traced function (for example
`experiment.circuit_unitary`, imported from `gates`) gets the wrapper in its
namespace, so calls between library modules are traced without editing the
library. Each thread keeps its own span stack and record buffer; a span's
self time is its duration minus the durations of the child spans opened on
the same thread. Spans started on a worker thread with an empty stack are
parented to the root span of the current operation, which all spans of one
operation share by id.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, layer name); `cli._write_text` is the CLI's one write path
LAYERS = (
    ("model", "kernel", "model.kernel"),
    ("dilation", "qutrit_circuit", "dilation.qutrit_circuit"),
    ("dilation", "general_dilation", "dilation.general_dilation"),
    ("gates", "gate_matrix", "gates.gate_matrix"),
    ("gates", "circuit_unitary", "gates.circuit_unitary"),
    ("gates", "transpile_ion", "gates.transpile_ion"),
    ("gates", "transpile_transmon", "gates.transpile_transmon"),
    ("gates", "equivalent", "gates.equivalent"),
    ("gates", "parse_circuit", "gates.parse_circuit"),
    ("gates", "format_circuit", "gates.format_circuit"),
    ("experiment", "miscalibrate", "experiment.miscalibrate"),
    ("experiment", "exact_probabilities", "experiment.exact_probabilities"),
    ("experiment", "derive_seed", "experiment.derive_seed"),
    ("experiment", "sample_counts", "experiment.sample_counts"),
    ("experiment", "run_point", "experiment.run_point"),
    ("experiment", "sweep", "experiment.sweep"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "build_backend", "cli.build_backend"),
    ("cli", "render_csv", "cli.render_csv"),
    ("cli", "render_heatmap", "cli.render_heatmap"),
    ("cli", "format_pgm", "cli.format_pgm"),
    ("cli", "_write_text", "cli.write"),
)
ROOT = "op"
# layers whose spans also carry a size: the text handed to the CLI's writer
_UNITS = {"cli.write": lambda args: len(args[1])}

_FIELDS = (
    ("name", "H"),
    ("op", "l"),
    ("span", "q"),
    ("parent", "q"),
    ("start", "d"),
    ("end", "d"),
    ("self_s", "d"),
    ("units", "q"),
)


class _Buffer(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child seconds]
        self.cols: dict[str, array] | None = None


class Tracer:
    """Collects spans from the wrapped layers while `installed()` is active."""

    def __init__(self) -> None:
        self.names = [ROOT] + [name for _, _, name in LAYERS]
        self.ops: list[str] = []  # op id -> label
        self._ids = itertools.count(1)
        self._local = _Buffer()
        self._columns: list[dict[str, array]] = []
        self._lock = threading.Lock()
        self._op = -1
        self._root = 0

    def _cols(self) -> dict[str, array]:
        cols = self._local.cols
        if cols is None:
            cols = {field: array(code) for field, code in _FIELDS}
            with self._lock:
                self._columns.append(cols)
            self._local.cols = cols
        return cols

    def _span(self, name_id: int, fn, args, kwargs, units):
        local = self._local
        stack = local.stack
        span = next(self._ids)
        parent = stack[-1][0] if stack else self._root
        frame = [span, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            cols = self._cols()
            cols["name"].append(name_id)
            cols["op"].append(self._op)
            cols["span"].append(span)
            cols["parent"].append(parent)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["self_s"].append(duration - frame[1])
            cols["units"].append(units(args) if units else 0)

    def _wrapper(self, fn, name: str):
        name_id = self.names.index(name)
        units = _UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name_id, fn, args, kwargs, units)

        return traced

    @contextmanager
    def installed(self):
        """Replace every reference to a traced function inside ptqsim."""
        import ptqsim
        from ptqsim import cli, dilation, experiment, gates, linalg, model

        modules = {
            "model": model,
            "dilation": dilation,
            "gates": gates,
            "experiment": experiment,
            "cli": cli,
        }
        holders = (ptqsim, linalg, model, gates, dilation, experiment, cli)
        patched: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name in LAYERS:
                original = getattr(modules[module_name], attr)
                wrapper = self._wrapper(original, name)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patched.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    @contextmanager
    def operation(self, label: str):
        """Root span shared by every span one benchmark operation causes."""
        self.ops.append(label)
        self._op = len(self.ops) - 1
        stack = self._local.stack
        span = next(self._ids)
        frame = [span, 0.0]
        stack.append(frame)
        self._root = span
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = 0
            record = {
                "name": self.names.index(ROOT),
                "op": self._op,
                "span": span,
                "parent": 0,
                "start": start,
                "end": end,
                "self_s": end - start - frame[1],
                "units": 0,
            }
            cols = self._cols()
            for field, value in record.items():
                cols[field].append(value)

    def table(self) -> dict[str, np.ndarray]:
        """All spans recorded so far as numpy columns."""
        with self._lock:
            buffers = list(self._columns)
        return {
            field: np.concatenate(
                [np.frombuffer(b[field], dtype=b[field].typecode) for b in buffers]
            )
            if buffers
            else np.zeros(0)
            for field, _ in _FIELDS
        }

    def save(self, path) -> None:
        cols = self.table()
        np.savez(path, names=np.array(self.names), ops=np.array(self.ops), **cols)
