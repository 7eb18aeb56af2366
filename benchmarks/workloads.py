"""The four benchmark workloads.

A workload writes its inputs from the benchmark seed, names the operations
of round k (each a zero-argument callable returning (ok, payload)), keeps
what it needs from each payload outside the timed region, and checks all
kept outputs at the end. Round k draws its sampling seed, circuits and
contractions from (seed, k), so no two rounds repeat an output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from pathlib import Path

import numpy as np

from ptqsim import cli, experiment, gates


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _cli(argv: list[str]) -> tuple[bool, str]:
    """Run the CLI in-process: (exit code is 0, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc == 0, out.getvalue()


class GridRuns:
    """`ptqsim run` once per backend per round, writing CSV and PGM."""

    backends: tuple[str, ...] = ()
    grid: dict = {}
    observable = "return_prob"
    workers = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.points = self.grid["r_steps"] * self.grid["t_steps"]
        self.outputs: list[tuple[str, int, Path, Path]] = []

    def _config(self, backend: str) -> Path:
        return self.workdir / f"{backend}.cfg"

    def prepare(self) -> None:
        for backend in self.backends:
            lines = [f"backend = {backend}", f"observable = {self.observable}"]
            lines += [f"{key} = {value}" for key, value in self.grid.items()]
            lines += [
                f"output_csv = {self.workdir / (backend + '.csv')}",
                f"output_pgm = {self.workdir / (backend + '.pgm')}",
            ]
            self._config(backend).write_text("\n".join(lines) + "\n")

    def setup(self) -> None:
        for backend in self.backends:
            cli.build_backend(cli.parse_config(self._config(backend).read_text()))

    def ops(self, k: int):
        seed = str(round_seed(self.seed, k))
        return [
            (
                f"run {backend}",
                lambda b=backend: _cli(
                    ["run", "--config", str(self._config(b)), "--seed", seed,
                     "--workers", str(self.workers)]
                ),
            )
            for backend in self.backends
        ]

    def keep(self, k: int, label: str, payload) -> list[str]:
        backend = label.split()[1]
        errors = []
        if f"points={self.points} " not in payload:
            errors.append(f"{label}: summary line does not report {self.points} points")
        kept = []
        for suffix in (".csv", ".pgm", ".pgm.mask"):
            src = self.workdir / (backend + suffix)
            if src.exists():
                dst = self.workdir / f"{backend}-r{k}{suffix}"
                os.replace(src, dst)
                kept.append(dst)
        self.outputs.append((backend, k, kept[0], kept[1]))
        return errors

    def items(self, label: str) -> tuple[str, str, int]:
        return f"{label.split()[1]}_points_per_s", "points/s", self.points

    def check(self) -> list[str]:
        from checks import check_run, grid_points, reference_populations

        reference = reference_populations(*grid_points(self.grid))
        errors = []
        for backend, k, csv_path, pgm_path in self.outputs:
            errors += check_run(
                csv_path,
                pgm_path,
                backend=backend,
                grid=self.grid,
                shots=8192 if backend == "transmon" else 512,
                seed=round_seed(self.seed, k),
                observable=self.observable,
                reference=reference,
            )
        return errors


DEFAULT_GRID = {"r_min": 0.0, "r_max": 1.2, "r_steps": 61, "t_min": 0.0, "t_max": 5.0, "t_steps": 101}


class PaperHeatmaps(GridRuns):
    backends = ("theory", "ion", "transmon")
    grid = DEFAULT_GRID


class FinePhaseDiagram(GridRuns):
    backends = ("theory", "transmon")
    # finer than the default in r (1/60 against 1/50), with r = 1 exactly on
    # grid point 60; kappa t stays below sqrt(3) * 10, clear of the overflow
    grid = {"r_min": 0.0, "r_max": 2.0, "r_steps": 121, "t_min": 0.0, "t_max": 10.0, "t_steps": 101}
    observable = "postselected"
    workers = 2


class ShotStatistics:
    """Many small library sweeps that differ only in seed, plus readout
    calibrations; nothing is written."""

    THEORY_GRID = dict(r_min=0.0, r_max=1.2, r_steps=13, t_min=0.25, t_max=5.0, t_steps=21)
    ION_GRID = dict(r_min=0.0, r_max=1.2, r_steps=13, t_min=0.25, t_max=5.0, t_steps=20)
    THEORY_SWEEPS = 40
    ION_SWEEPS = 20
    CALIBRATIONS = 50
    PREPARATIONS = 10_000
    SHOTS = 512
    TRUTH = np.full((3, 3), 0.015) + np.diag([0.955] * 3)  # 0.97 on the diagonal

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.theory: list[np.ndarray] = []  # rows: p0, p0_raw, p0_post, kept
        self.ion: list[np.ndarray] = []
        self.calibration_errors: list[float] = []

    def prepare(self) -> None:
        pass

    def setup(self):
        return self._backends(0)

    def _backends(self, k: int):
        base = round_seed(self.seed, k) * 100
        theory_grid = experiment.SweepGrid(**self.THEORY_GRID)
        ion_grid = experiment.SweepGrid(**self.ION_GRID)
        theory = [
            experiment.BackendConfig(kind=experiment.BackendKind.THEORY, shots=self.SHOTS, seed=base + j)
            for j in range(self.THEORY_SWEEPS)
        ]
        ion = [
            experiment.BackendConfig(
                kind=experiment.BackendKind.ION,
                shots=self.SHOTS,
                confusion=experiment.identity_confusion(),
                ion_count=5,
                epsilon=experiment.DEFAULT_ION_EPSILON,
                seed=base + j,
            )
            for j in range(self.ION_SWEEPS)
        ]
        truth = experiment.synthetic_confusion(0.97, "synthetic-ion-0.97")
        calibration = [
            experiment.BackendConfig(kind=experiment.BackendKind.ION, confusion=truth, seed=base + j)
            for j in range(self.CALIBRATIONS)
        ]
        return theory_grid, theory, ion_grid, ion, calibration

    def ops(self, k: int):
        theory_grid, theory, ion_grid, ion, calibration = self._backends(k)
        ops = [("sweep theory", lambda b=b: (True, experiment.sweep(theory_grid, b))) for b in theory]
        ops += [("sweep ion", lambda b=b: (True, experiment.sweep(ion_grid, b))) for b in ion]
        ops += [
            ("calibrate", lambda b=b: (True, experiment.estimate_confusion(b, self.PREPARATIONS)))
            for b in calibration
        ]
        return ops

    def keep(self, k: int, label: str, payload) -> list[str]:
        if label == "calibrate":
            self.calibration_errors.append(float(np.max(np.abs(payload.entries - self.TRUTH))))
            return []
        record = np.array(
            [
                [float(pt.p_exact[0]) for pt in payload],
                [pt.p0_raw for pt in payload],
                [np.nan if pt.p0_postselected is None else pt.p0_postselected for pt in payload],
                [pt.postselect_kept for pt in payload],
            ]
        )
        (self.theory if label == "sweep theory" else self.ion).append(record)
        return []

    def items(self, label: str) -> tuple[str, str, int]:
        if label == "calibrate":
            return "calibrations_per_s", "calibrations/s", 1
        grid = self.THEORY_GRID if label == "sweep theory" else self.ION_GRID
        return f"{label.split()[1]}_points_per_s", "points/s", grid["r_steps"] * grid["t_steps"]

    def check(self) -> list[str]:
        from checks import (
            ION_ANGLE_SUM,
            ION_EPSILON,
            check_calibrations,
            check_sampled,
            check_shot_rms,
            check_striping,
            grid_points,
            reference_populations,
        )

        errors = []
        for name, grid, records in (("theory", self.THEORY_GRID, self.theory), ("ion", self.ION_GRID, self.ion)):
            shape = (grid["r_steps"], grid["t_steps"])
            ref = reference_populations(*grid_points(grid))[:, 0]
            for p0, p0_raw, p0_post, kept in records:
                errors += check_sampled(f"sweep {name}", p0, p0_raw, p0_post, kept, self.SHOTS)
            exact = np.array([rec[0] for rec in records])
            if name == "theory":
                gap = float(np.max(np.abs(exact - ref)))
                if gap > 1e-9:
                    errors.append(f"theory sweep populations off by {gap:.3e}")
                errors += check_shot_rms(np.array([rec[1] for rec in records]) - ref, ref, self.SHOTS)
            else:
                # identity readout: |p0 - reference| is at most the l1 bound / 2
                bound = np.abs(np.array(ION_EPSILON))[np.arange(shape[1]) % 5] * ION_ANGLE_SUM
                if np.any(np.abs(exact - ref).reshape(-1, *shape) > bound / 2 + 1e-9):
                    errors.append("ion sweep populations exceed the over-rotation bound")
                # striping is judged per round, over that round's seeds
                per_round = np.array([rec[1] for rec in records]).reshape(-1, self.ION_SWEEPS, ref.size)
                for block in per_round:
                    mean = (block - ref).mean(axis=0).reshape(shape)
                    errors += check_striping(mean)
        errors += check_calibrations(self.calibration_errors)
        return errors


def _transpile(target: str, src: Path, out: Path):
    ok, stdout = _cli(["transpile", "--target", target, str(src), str(out)])
    return ok, (target, src, out, stdout)


def _dilation_check(argv: list[str]):
    ok, stdout = _cli(argv)
    return ok, (argv, stdout)


class CircuitTools:
    """`ptqsim transpile` to both targets and `ptqsim dilation-check`."""

    # circuit j of a round holds j rotations on (0,1) and 1 + j // 4 on (1,2)
    CIRCUITS = 21
    DILATIONS = ((1, 1), (2, 1), (2, 2), (3, 1), (4, 4), (6, 2), (8, 8), (12, 4), (15, 1), (1, 15))
    TRIALS = 40

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.transpiled: list[tuple[str, Path, str, str]] = []
        self.dilation_runs: list[tuple[list[str], str]] = []

    @staticmethod
    def shape(j: int) -> tuple[int, int]:
        return j, 1 + j // 4

    def _circuit_path(self, k: int, j: int) -> Path:
        return self.workdir / f"c{j}-r{k}.txt"

    def _write_circuits(self, k: int) -> None:
        rng = np.random.default_rng([self.seed, k])
        for j in range(self.CIRCUITS):
            n01, n12 = self.shape(j)
            subspaces = ["0 1"] * n01 + ["1 2"] * n12
            rng.shuffle(subspaces)
            angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=len(subspaces))
            text = "".join(f"RX {s} {a:.17g}\n" for s, a in zip(subspaces, angles))
            self._circuit_path(k, j).write_text(text)

    def prepare(self) -> None:
        self._write_circuits(0)

    def setup(self):
        return [gates.parse_circuit(self._circuit_path(0, j).read_text()) for j in range(self.CIRCUITS)]

    def ops(self, k: int):
        if k > 0:
            self._write_circuits(k)
        ops = []
        for j in range(self.CIRCUITS):
            src = self._circuit_path(k, j)
            for target in ("ion", "transmon"):
                out = src.with_name(f"{src.stem}-{target}.txt")
                ops.append((f"transpile {target}", lambda t=target, s=src, o=out: _transpile(t, s, o)))
        for n, m in self.DILATIONS:
            argv = ["dilation-check", "--n", str(n), "--m", str(m), "--trials", str(self.TRIALS),
                    "--seed", str(round_seed(self.seed, k))]
            ops.append(("dilation-check", lambda a=argv: _dilation_check(a)))
        return ops

    def keep(self, k: int, label: str, payload) -> list[str]:
        if label == "dilation-check":
            self.dilation_runs.append(payload)
        else:
            target, src, out, stdout = payload
            self.transpiled.append((target, src, out.read_text(), stdout))
        return []

    def items(self, label: str) -> tuple[str, str, int]:
        if label == "dilation-check":
            return "dilation_trials_per_s", "trials/s", self.TRIALS
        return "transpile_circuits_per_s", "circuits/s", 1

    def check(self) -> list[str]:
        from checks import check_dilation, check_transpile

        errors = []
        for target, src, output, report in self.transpiled:
            errors += [f"{src.name}: {e}" for e in check_transpile(src.read_text(), output, target, report)]
        # replay each dilation-check with a hook that checks every dilation it builds
        original = cli.general_dilation

        def checked(a, m):
            dil = original(a, m)
            errors.extend(check_dilation(np.asarray(a), dil.u))
            return dil

        cli.general_dilation = checked
        try:
            for argv, stdout in self.dilation_runs:
                ok, replay = _cli(argv)
                if not ok or replay != stdout:
                    errors.append(f"{' '.join(argv)}: replay differs from the timed run")
        finally:
            cli.general_dilation = original
        return errors


WORKLOADS = {
    "paper-heatmaps": PaperHeatmaps,
    "fine-phase-diagram": FinePhaseDiagram,
    "shot-statistics": ShotStatistics,
    "circuit-tools": CircuitTools,
}
