#!/usr/bin/env python3
"""SHA-256 digests of every CLI artifact of the output-policy matrix.

The matrix, run in-process in a temporary directory:

- `ptqsim run` for theory, ion and transmon x both observables, on the
  default grid and on 121 x 101 (r 0..2, t 0..10), at seeds 3, 2**32 and
  2**64 - 1;
- `scripts/reproduce_heatmaps.py --seed 2`;
- `ptqsim transpile` to both targets of the 21 circuits of rounds 0 and 1 at
  seed 1, drawn as the circuit-tools benchmark draws them (circuit j holds j
  (0,1) rotations and 1 + j // 4 (1,2) rotations);
- `ptqsim dilation-check --trials 40` on ten (n, m) shapes at seeds 1000 and
  1001.

Each line reads `<sha256>  <case>/<artifact>`, with `-` for an artifact the
case did not write; the header names the numpy and C library the digests were
made under, since a libm that differs in the last ulp can move a sampled
count. Print the digests, or compare them with a committed file:

    PYTHONPATH=src python scripts/output_digests.py > tests/golden/outputs.sha256
    PYTHONPATH=src python scripts/output_digests.py --check tests/golden/outputs.sha256

`--check` exits 1 on any difference. Under another numpy or libc it prints
why it skipped and exits 0 without comparing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import platform
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np

from ptqsim import cli

SCRIPTS = Path(__file__).resolve().parent
WIDE_GRID = "r_min = 0\nr_max = 2\nr_steps = 121\nt_min = 0\nt_max = 10\nt_steps = 101\n"
GRIDS = {"default": "", "wide": WIDE_GRID}
SEEDS = (3, 2**32, 2**64 - 1)
BACKENDS = ("theory", "ion", "transmon")
OBSERVABLES = ("return_prob", "postselected")
CIRCUIT_SEED, CIRCUIT_ROUNDS, CIRCUITS = 1, 2, 21
DILATIONS = ((1, 1), (2, 1), (2, 2), (3, 1), (4, 4), (6, 2), (8, 8), (12, 4), (15, 1), (1, 15))
DILATION_SEEDS = (1000, 1001)


def environment() -> list[str]:
    """What the digests depend on beyond ptqsim itself."""
    libc, version = platform.libc_ver()
    return [f"numpy {np.__version__}", f"libc {libc or 'unknown'} {version or 'unknown'}"]


def _read(path: str) -> bytes | None:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None


def _captured(call) -> dict[str, bytes | None]:
    """exit code, stdout and stderr of call()"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = call()
    return {"exit": str(rc).encode(), "stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}


def run_cases(grids: dict[str, str], seeds: tuple[int, ...]):
    outputs = ("out.csv", "out.pgm", "out.pgm.mask")
    for grid, lines in grids.items():
        for seed in seeds:
            for backend in BACKENDS:
                for observable in OBSERVABLES:
                    Path("run.cfg").write_text(
                        f"backend = {backend}\nobservable = {observable}\nseed = {seed}\n{lines}"
                        "output_csv = out.csv\noutput_pgm = out.pgm\n"
                    )
                    for path in outputs:
                        Path(path).unlink(missing_ok=True)
                    artifacts = _captured(lambda: cli.main(["run", "--config", "run.cfg"]))
                    artifacts.update(zip(("csv", "pgm", "mask"), map(_read, outputs)))
                    yield f"run/{grid}/seed={seed}/{backend}/{observable}", artifacts


def heatmap_script_case():
    def run() -> int:
        runpy.run_path(str(SCRIPTS / "reproduce_heatmaps.py"), run_name="__main__")
        return 0

    argv = sys.argv
    sys.argv = ["reproduce_heatmaps.py", "--seed", "2", "--outdir", "heatmaps"]
    try:
        artifacts = _captured(run)
    finally:
        sys.argv = argv
    artifacts.update((name, _read(f"heatmaps/{name}")) for name in sorted(os.listdir("heatmaps")))
    yield "reproduce_heatmaps/seed=2", artifacts


def circuits(k: int):
    """(j, circuit text) of round k, as the circuit-tools benchmark draws them"""
    rng = np.random.default_rng([CIRCUIT_SEED, k])
    for j in range(CIRCUITS):
        subspaces = ["0 1"] * j + ["1 2"] * (1 + j // 4)
        rng.shuffle(subspaces)
        angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=len(subspaces))
        yield j, "".join(f"RX {s} {a:.17g}\n" for s, a in zip(subspaces, angles))


def transpile_cases():
    for k in range(CIRCUIT_ROUNDS):
        for j, text in circuits(k):
            Path("circuit.txt").write_text(text)
            for target in ("ion", "transmon"):
                Path("out.txt").unlink(missing_ok=True)
                argv = ["transpile", "--target", target, "circuit.txt", "out.txt"]
                artifacts = _captured(lambda: cli.main(argv))
                artifacts["circuit"] = _read("out.txt")
                yield f"transpile/round={k}/c{j}/{target}", artifacts


def dilation_cases():
    for seed in DILATION_SEEDS:
        for n, m in DILATIONS:
            argv = ["dilation-check", "--n", str(n), "--m", str(m), "--trials", "40", "--seed", str(seed)]
            yield f"dilation-check/seed={seed}/n={n},m={m}", _captured(lambda: cli.main(argv))


def digests(full: bool = True) -> dict[str, str]:
    """case/artifact -> SHA-256 hex digest, or '-' for an artifact not written.
    Without full, only the default grid at seed 3 and the transpile and
    dilation-check cases."""
    if full:
        cases = [run_cases(GRIDS, SEEDS), heatmap_script_case()]
    else:
        cases = [run_cases({"default": ""}, SEEDS[:1])]
    cases += [transpile_cases(), dilation_cases()]
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for group in cases:
                for case, artifacts in group:
                    for name, data in artifacts.items():
                        result[f"{case}/{name}"] = "-" if data is None else hashlib.sha256(data).hexdigest()
        finally:
            os.chdir(cwd)
    return result


def read_digests(path: Path) -> tuple[list[str], dict[str, str]]:
    """(environment lines, digests) of a file this script printed"""
    header, found = [], {}
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# "):
            header.append(line[2:])
        else:
            digest, name = line.split("  ", 1)
            found[name] = digest
    return header, found


def differences(want: dict[str, str], got: dict[str, str]) -> list[str]:
    return [
        f"{name}: {want.get(name, 'not expected')} -> {got.get(name, 'not made')}"
        for name in sorted(want.keys() | got.keys())
        if want.get(name) != got.get(name)
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", type=Path, help="compare with this digest file instead of printing")
    args = ap.parse_args()
    if args.check is None:
        print("\n".join(f"# {line}" for line in environment()))
        for name, digest in digests().items():
            print(f"{digest}  {name}")
        return 0
    made_under, want = read_digests(args.check)
    if made_under != environment():
        print(f"skipped: the digests were made under {', '.join(made_under)}, not {', '.join(environment())}")
        return 0
    diff = differences(want, digests())
    print("\n".join(diff) if diff else f"{len(want)} digests match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
