#!/usr/bin/env python3
"""End-to-end benchmark of ptqsim.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload's operations until S seconds of
operation time have passed, checks every output against computations made
apart from ptqsim, and prints a report followed by one JSON line with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are end to end; with --trace 1 one untraced round is followed by traced
rounds, and the metrics are per layer and per round.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark itself never runs more than two threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 11

# (layer, counters reported per round); "calls" and "bytes" are counts, "s" is self time
PER_LAYER = (
    ("model.kernel", ("calls", "s")),
    ("dilation.qutrit_circuit", ("s",)),
    ("gates.transpile_ion", ("s",)),
    ("gates.transpile_transmon", ("s",)),
    ("experiment.miscalibrate", ("s",)),
    ("gates.circuit_unitary", ("calls", "s")),
    ("gates.gate_matrix", ("calls",)),
    ("experiment.exact_probabilities", ("s",)),
    ("experiment.derive_seed", ("calls", "s")),
    ("experiment.sample_counts", ("calls", "s")),
    ("experiment.run_point", ("s",)),
    ("experiment.sweep", ("s",)),
    ("cli.render_csv", ("s",)),
    ("cli.render_heatmap", ("s",)),
    ("cli.format_pgm", ("s",)),
    ("cli.write", ("s", "bytes")),
    ("cli.parse_config", ("s",)),
    ("cli.build_backend", ("s",)),
    ("gates.equivalent", ("s",)),
    ("gates.parse_circuit", ("s",)),
    ("gates.format_circuit", ("s",)),
    ("dilation.general_dilation", ("calls", "s")),
)
UNITS = {"calls": "count", "s": "s", "bytes": "B"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(f"{layer}.{kind}", UNITS[kind]) for layer, kinds in PER_LAYER for kind in kinds]
    return names + [("experiment.points", "count")]


class SetupProbe:
    """Set-up time measured in fresh interpreters, spread over the run so
    that the median covers the same stretch of machine time as the rounds."""

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)]
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        done = subprocess.run(self.argv, capture_output=True, text=True, timeout=60, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


class Runner:
    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.round_times: list[float] = []

    def round(self, k: int, tracer=None) -> None:
        total = 0.0
        for label, fn in self.workload.ops(k):
            scope = tracer.operation(label) if tracer else nullcontext()
            with scope:
                start = time.perf_counter()
                try:
                    ok, payload = fn()
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok, payload = False, None
                elapsed = time.perf_counter() - start
            total += elapsed
            self.attempted += 1
            if ok:
                self.op_times.setdefault(label, []).append(elapsed)
                self.errors += self.workload.keep(k, label, payload)
            else:
                self.failed += 1
                print(f"operation failed: round {k} {label}", file=sys.stderr)
        self.round_times.append(total)

    def rates(self) -> list[tuple[str, float, str]]:
        totals: dict[tuple[str, str], list[float]] = {}
        for label, times in self.op_times.items():
            name, unit, items = self.workload.items(label)
            work_secs = totals.setdefault((name, unit), [0.0, 0.0])
            work_secs[0] += items * len(times)
            work_secs[1] += sum(times)
        return [(name, work / secs, unit) for (name, unit), (work, secs) in totals.items()]


def layer_table(tracer, rounds: int):
    """Per-layer counters per round, and per operation label."""
    import numpy as np

    cols = tracer.table()
    names, ops = tracer.names, np.array(tracer.ops)
    per_round = {}
    for layer, _ in PER_LAYER:
        sel = cols["name"] == names.index(layer)
        per_round[layer] = {
            "calls": int(np.count_nonzero(sel)) / rounds,
            "s": float(np.sum(cols["self_s"][sel])) / rounds,
            "bytes": int(np.sum(cols["units"][sel])) / rounds,
        }
    per_op = {}
    labels = ops[cols["op"]]
    for label in dict.fromkeys(tracer.ops):
        instances = int(np.count_nonzero(ops == label))
        rows = {}
        for layer, _ in PER_LAYER:
            sel = (labels == label) & (cols["name"] == names.index(layer))
            if np.any(sel):
                rows[layer] = (np.count_nonzero(sel) / instances, float(np.sum(cols["self_s"][sel])) / instances)
        per_op[label] = rows
    return per_round, per_op


def _number(x: float):
    return int(x) if float(x).is_integer() else x


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ptqsim" / "__init__.py").is_file():
        print(f"error: no ptqsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workloads.WORKLOADS[args.workload](args.seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, workdir: Path) -> int:
    workload.prepare()
    runner = Runner(workload)
    metrics: dict[str, dict] = {}
    k = 0
    if not args.trace:
        setup = SetupProbe(args.workload, args.seed, workdir, args.seconds)
        elapsed = 0.0
        while k == 0 or elapsed < args.seconds:
            setup.maybe()
            runner.round(k)
            elapsed += runner.round_times[-1]
            k += 1
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["round_s"] = {"value": statistics.median(runner.round_times), "unit": "s"}
        metrics["setup_s"] = {"value": setup.median(), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    else:
        from tracing import Tracer

        tracer = Tracer()
        runner.round(k)  # untraced baseline for the overhead
        k += 1
        elapsed = 0.0
        with tracer.installed():
            while k == 1 or elapsed < args.seconds:
                runner.round(k, tracer)
                elapsed += runner.round_times[-1]
                k += 1
        traced_rounds = k - 1
        per_round, per_op = layer_table(tracer, traced_rounds)
        for name, unit in per_layer_metrics():
            layer, _, kind = name.rpartition(".")
            value = per_round["experiment.run_point"]["calls"] if name == "experiment.points" else per_round[layer][kind]
            metrics[name] = {"value": _number(value), "unit": unit}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}.npz")
        untraced = runner.round_times[0]
        traced = statistics.median(runner.round_times[1:])
        print(f"{args.workload}: per-layer self time and calls per round ({traced_rounds} traced rounds)")
        for name, unit in per_layer_metrics():
            print(f"  {name:40s} {metrics[name]['value']:>14.6g} {unit}")
        for label, rows in per_op.items():
            print(f"  per '{label}' operation:")
            for layer, (calls, secs) in rows.items():
                print(f"    {layer:38s} {calls:>10.6g} calls {secs:>10.4f} s")
        print(f"  tracing overhead {traced - untraced:.3f} s per round (traced {traced:.3f} s, untraced {untraced:.3f} s)")

    errors = runner.errors + workload.check()
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {k} rounds, {runner.attempted} operations, {runner.failed} failed")
    print("  round times " + " ".join(f"{t:.3f}" for t in runner.round_times) + " s")
    if not args.trace:
        for name, value, unit in runner.rates():
            print(f"  {name:28s} {value:12.2f} {unit}")
        for name, m in metrics.items():
            print(f"  {name:28s} {m['value']:12.4f} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
