#!/usr/bin/env python3
"""Regenerate the three phase-transition heatmaps (theory, ion, transmon)
on the default 61 x 101 grid and write CSV plus PGM for each backend."""

import argparse
from pathlib import Path

from ptqsim.cli import RunConfig, build_backend, write_outputs
from ptqsim.experiment import BackendKind, sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", help="directory for CSV/PGM files")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind in (BackendKind.THEORY, BackendKind.ION, BackendKind.TRANSMON):
        cfg = RunConfig(
            backend=kind,
            seed=args.seed,
            output_csv=str(outdir / f"{kind.value}.csv"),
            output_pgm=str(outdir / f"{kind.value}.pgm"),
        )
        backend = build_backend(cfg)
        points = sweep(cfg.grid, backend)
        write_outputs(cfg, backend, points)
        print(
            f"{kind.value}: {len(points)} points -> {cfg.output_csv}, {cfg.output_pgm}"
        )


if __name__ == "__main__":
    main()
