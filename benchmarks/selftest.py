#!/usr/bin/env python3
"""Show that each output check rejects a corrupted output.

    python3 benchmarks/selftest.py

Writes a small theory heatmap, a transmon transpile and one dilation, checks
that each passes as written, then corrupts one thing at a time (a CSV
digit, a PGM row, a gate angle, a dilation entry) and checks that the
matching check now fails. Exits 0 when every check behaved.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    check_dilation,
    check_run,
    check_transpile,
    grid_points,
    reference_populations,
)
from workloads import _cli  # noqa: E402

from ptqsim import dilation  # noqa: E402

GRID = {"r_min": 0.0, "r_max": 1.2, "r_steps": 9, "t_min": 0.0, "t_max": 5.0, "t_steps": 11}


def heatmap_cases(work: Path):
    csv_path, pgm_path = work / "theory.csv", work / "theory.pgm"
    cfg = work / "theory.cfg"
    cfg.write_text(
        "".join(f"{k} = {v}\n" for k, v in GRID.items())
        + f"output_csv = {csv_path}\noutput_pgm = {pgm_path}\n"
    )
    ok, _ = _cli(["run", "--config", str(cfg), "--seed", "3"])
    if not ok:
        raise SystemExit("selftest: theory run failed")
    reference = reference_populations(*grid_points(GRID))

    def check():
        return check_run(csv_path, pgm_path, backend="theory", grid=GRID, shots=512,
                         seed=3, observable="return_prob", reference=reference)

    yield "clean heatmap", check(), False

    clean_csv = csv_path.read_text()
    lines = clean_csv.splitlines()
    row = len(lines) // 2
    fields = lines[row].split(",")
    digits = fields[3]  # p0
    pos = next(i for i in range(4, len(digits)) if digits[i].isdigit())
    fields[3] = digits[:pos] + str((int(digits[pos]) + 1) % 10) + digits[pos + 1:]
    lines[row] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    yield "CSV with one p0 digit changed", check(), True
    csv_path.write_text(clean_csv)

    pgm_lines = pgm_path.read_text().splitlines()
    first = next(i for i, ln in enumerate(pgm_lines) if ln == "255") + 1
    row = next(
        i for i in range(first, len(pgm_lines))
        if pgm_lines[i].split() != pgm_lines[i].split()[::-1]
    )
    pgm_lines[row] = " ".join(pgm_lines[row].split()[::-1])
    pgm_path.write_text("\n".join(pgm_lines) + "\n")
    yield "PGM with one row flipped", check(), True


def transpile_cases(work: Path):
    rng = np.random.default_rng(5)
    src, out = work / "c.txt", work / "c-transmon.txt"
    src.write_text("".join(
        f"RX {s} {a:.17g}\n"
        for s, a in zip(["0 1", "1 2", "0 1", "0 1"], rng.uniform(-6.0, 6.0, 4))
    ))
    ok, report = _cli(["transpile", "--target", "transmon", str(src), str(out)])
    if not ok:
        raise SystemExit("selftest: transpile failed")
    text = out.read_text()
    yield "clean transpile", check_transpile(src.read_text(), text, "transmon", report), False
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("RZ"))
    kind, i, j, angle = lines[row].split()
    lines[row] = f"{kind} {i} {j} {float(angle) + 1e-6:.17g}"
    bad = "\n".join(lines) + "\n"
    yield "transpile with one angle perturbed", check_transpile(src.read_text(), bad, "transmon", report), True


def dilation_cases():
    a = np.diag([0.5, 0.8]).astype(complex)
    u = dilation.general_dilation(a, 2).u
    yield "clean dilation", check_dilation(a, u), False
    bad = u.copy()
    bad[0, 0] += 1e-6
    yield "dilation with one entry perturbed", check_dilation(a, bad), True


def main() -> int:
    work = HERE / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    failures = 0
    try:
        cases = [*heatmap_cases(work), *transpile_cases(work), *dilation_cases()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, errors, should_fail in cases:
        good = bool(errors) == should_fail
        failures += not good
        verdict = "rejected" if errors else "accepted"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}" + (f" ({errors[0]})" if errors else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
