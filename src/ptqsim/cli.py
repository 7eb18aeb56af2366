"""Command-line front end: config-driven sweeps with CSV and PGM output,
circuit transpilation, and randomized dilation spot checks."""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from pathlib import Path

import numpy as np

from .dilation import DilationError, general_dilation
from .experiment import (
    MAX_SHOTS,
    BackendConfig,
    BackendKind,
    SweepGrid,
    SweepResult,
    default_backend,
    load_confusion,
    postselect_ratios,
    sweep,
)
from .gates import (
    CircuitParseError,
    UnsupportedGate,
    equivalent,
    format_circuit,
    parse_circuit,
    stats,
    transpile_ion,
    transpile_transmon,
)
from .linalg import dag

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_EQUIVALENCE = 3
EXIT_DEFECT = 4


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    pass


class ValidationError(ConfigError):
    pass


class Observable(Enum):
    RETURN_PROB = "return_prob"
    POSTSELECTED = "postselected"


@dataclass
class RunConfig:
    """Run settings; a backend field left None takes the value of
    `experiment.default_backend` for the chosen backend."""

    backend: BackendKind = BackendKind.THEORY
    shots: int | None = None
    seed: int = 0
    grid: SweepGrid = field(default_factory=SweepGrid)
    observable: Observable = Observable.RETURN_PROB
    ions: int | None = None
    epsilon: tuple[float, ...] | None = None
    confusion_file: str | None = None
    output_csv: str = "sweep.csv"
    output_pgm: str | None = None

    def effective_shots(self) -> int:
        if self.shots is not None:
            return self.shots
        return default_backend(self.backend).shots


_CONFIG_KEYS = frozenset(
    {
        "backend",
        "shots",
        "seed",
        "r_min",
        "r_max",
        "r_steps",
        "t_min",
        "t_max",
        "t_steps",
        "observable",
        "ions",
        "epsilon",
        "confusion_file",
        "output_csv",
        "output_pgm",
    }
)


def parse_config(text: str) -> RunConfig:
    """key = value lines; blank lines and # comments ignored; unknown keys
    rejected with their line number."""
    raw: dict[str, tuple[int, str]] = {}
    for ln, source in enumerate(text.splitlines(), start=1):
        line = source.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"line {ln}: unknown key {key!r}")
        if not value:
            raise ParseError(f"line {ln}: empty value for {key!r}")
        raw[key] = (ln, value)  # last occurrence wins

    def number(key: str, kind: type) -> float | int:
        ln, value = raw[key]
        try:
            return kind(value)
        except ValueError:
            raise ParseError(
                f"line {ln}: cannot parse {key} value {value!r}"
            ) from None

    cfg = RunConfig()
    if "backend" in raw:
        ln, value = raw["backend"]
        try:
            cfg.backend = BackendKind(value.lower())
        except ValueError:
            raise ValidationError(
                f"line {ln}: backend must be one of theory, ion, transmon"
            ) from None
    if "shots" in raw:
        shots = int(number("shots", int))
        if not 1 <= shots <= MAX_SHOTS:
            raise ValidationError(
                f"line {raw['shots'][0]}: shots must be in 1..2**63 - 1"
            )
        cfg.shots = shots
    if "seed" in raw:
        seed = int(number("seed", int))
        if not 0 <= seed < 2**64:
            raise ValidationError(
                f"line {raw['seed'][0]}: seed must fit in 64 unsigned bits"
            )
        cfg.seed = seed
    grid_kwargs: dict[str, float | int] = {}
    for key in ("r_min", "r_max", "t_min", "t_max"):
        if key in raw:
            grid_kwargs[key] = float(number(key, float))
    for key in ("r_steps", "t_steps"):
        if key in raw:
            grid_kwargs[key] = int(number(key, int))
    if grid_kwargs:
        try:
            cfg.grid = SweepGrid(**grid_kwargs)
        except ValueError as exc:
            raise ValidationError(f"grid: {exc}") from None
    if "observable" in raw:
        ln, value = raw["observable"]
        try:
            cfg.observable = Observable(value.lower())
        except ValueError:
            raise ValidationError(
                f"line {ln}: observable must be return_prob or postselected"
            ) from None
    if "ions" in raw:
        ions = int(number("ions", int))
        if ions < 1:
            raise ValidationError(f"line {raw['ions'][0]}: ions must be >= 1")
        cfg.ions = ions
    if "epsilon" in raw:
        ln, value = raw["epsilon"]
        try:
            eps = tuple(float(x) for x in value.split(","))
        except ValueError:
            raise ParseError(f"line {ln}: epsilon must be a comma list of reals") from None
        if not all(abs(e) < 0.5 for e in eps):
            raise ValidationError(f"line {ln}: epsilon entries must satisfy |e| < 0.5")
        cfg.epsilon = eps
    if "confusion_file" in raw:
        cfg.confusion_file = raw["confusion_file"][1]
    if "output_csv" in raw:
        cfg.output_csv = raw["output_csv"][1]
    if "output_pgm" in raw:
        cfg.output_pgm = raw["output_pgm"][1]
    return cfg


def build_backend(cfg: RunConfig) -> BackendConfig:
    """The default backend of the configured kind with the configured values
    applied; reads the confusion file when configured (OSError propagates to
    the caller as an I/O failure)."""
    overrides = {
        key: value
        for key, value in (
            ("shots", cfg.shots),
            ("ion_count", cfg.ions),
            ("epsilon", cfg.epsilon),
        )
        if value is not None
    }
    if cfg.confusion_file is not None:
        text = Path(cfg.confusion_file).read_text()
        try:
            overrides["confusion"] = load_confusion(
                text, label=Path(cfg.confusion_file).name
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    try:
        return replace(default_backend(cfg.backend, cfg.seed), **overrides)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


# rows per CSV block: the CSV is formatted and written a block at a time
CSV_BLOCK_ROWS = 2048


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def render_csv(points: SweepResult, backend: BackendConfig, start: int, stop: int) -> str:
    """CSV lines of points start..stop, led by the header when start is 0."""
    rows = slice(start, stop)
    p = points.p_exact[rows]
    header = "r,t,backend,p0,p1,p2,p0_raw,p0_postselected,kept,shots,seed"
    columns = [
        map(_fmt, points.r[rows].tolist()),
        map(_fmt, points.t[rows].tolist()),
        repeat(backend.kind.value),
        map(_fmt, p[:, 0].tolist()),
        map(_fmt, p[:, 1].tolist()),
        map(_fmt, p[:, 2].tolist()),
        map(_fmt, points.p0_raw[rows].tolist()),
        ("" if math.isnan(x) else _fmt(x) for x in points.p0_postselected[rows].tolist()),
        map(str, points.postselect_kept[rows].tolist()),
        repeat(str(backend.shots)),
        repeat(str(backend.seed)),
    ]
    if points.ion is not None:
        header += ",ion"
        columns.append(map(str, points.ion[rows].tolist()))
    lines = [",".join(fields) for fields in zip(*columns)]
    if start == 0:
        lines.insert(0, header)
    return "\n".join(lines) + "\n"


def _csv_blocks(points: SweepResult, backend: BackendConfig) -> Iterator[str]:
    for start in range(0, max(len(points), 1), CSV_BLOCK_ROWS):
        yield render_csv(points, backend, start, start + CSV_BLOCK_ROWS)


@dataclass(frozen=True)
class HeatmapImage:
    width: int
    height: int
    pixels: np.ndarray  # uint8, row 0 = r_max
    missing: tuple[tuple[int, int], ...]  # (r_index, t_index) of absent values


def render_heatmap(
    grid: SweepGrid,
    backend: BackendConfig,
    observable: Observable,
    points: SweepResult,
) -> HeatmapImage:
    exact_like = backend.kind is BackendKind.THEORY or backend.exact
    if observable is Observable.RETURN_PROB:
        values = points.p_exact[:, 0] if exact_like else points.p0_raw
    elif exact_like:
        values = postselect_ratios(points.p_exact[:, 0], points.p_exact[:, 1])
    else:
        values = points.p0_postselected
    values = values.reshape(grid.r_steps, grid.t_steps)
    missing = np.isnan(values)
    # np.rint rounds half to even, as round() does
    levels = np.rint(255.0 * np.clip(values, 0.0, 1.0))
    levels[missing] = 0.0
    return HeatmapImage(
        width=grid.t_steps,
        height=grid.r_steps,
        pixels=levels.astype(np.uint8)[::-1],
        missing=tuple(map(tuple, np.argwhere(missing).tolist())),
    )


def format_pgm(img: HeatmapImage, metadata: str) -> str:
    lines = ["P2"]
    if metadata:
        lines.append(f"# {metadata}")
    lines.append(f"{img.width} {img.height}")
    lines.append("255")
    for row in img.pixels.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _confusion_label(backend: BackendConfig) -> str:
    return backend.confusion.label if backend.confusion is not None else "identity"


def _write_text(path: str, text: str, append: bool = False) -> None:
    with open(path, "a" if append else "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def write_outputs(cfg: RunConfig, backend: BackendConfig, points: SweepResult) -> None:
    """Write the CSV and, when configured, the PGM heatmap with a `.mask`
    sidecar listing its missing points; a mask left by an earlier run is
    removed when no point is missing. Every artifact is rendered and written
    to a temp file beside its target before any target is replaced, so a
    failed write leaves the earlier artifacts as they were (OSError
    propagates to the caller). The CSV is rendered and written a block of
    rows at a time."""
    texts: dict[str, Iterable[str]] = {cfg.output_csv: _csv_blocks(points, backend)}
    stale_mask = None
    if cfg.output_pgm is not None:
        metadata = (
            f"backend={backend.kind.value} observable={cfg.observable.value}"
            f" confusion={_confusion_label(backend)} shots={backend.shots}"
            f" seed={backend.seed} rows=r_max..r_min cols=t_min..t_max"
        )
        img = render_heatmap(cfg.grid, backend, cfg.observable, points)
        texts[cfg.output_pgm] = [format_pgm(img, metadata)]
        mask_path = cfg.output_pgm + ".mask"
        if img.missing:
            texts[mask_path] = ["".join(f"{i_r} {i_t}\n" for i_r, i_t in img.missing)]
        else:
            stale_mask = mask_path
    temps = {path: f"{path}.{os.getpid()}.tmp" for path in texts}
    try:
        for path, blocks in texts.items():
            for i, text in enumerate(blocks):
                _write_text(temps[path], text, append=i > 0)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            Path(temp).unlink(missing_ok=True)
    if stale_mask is not None:
        Path(stale_mask).unlink(missing_ok=True)


def run_command(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(text)
        if args.backend is not None:
            cfg.backend = BackendKind(args.backend)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ValidationError("--seed must fit in 64 unsigned bits")
            cfg.seed = args.seed
        backend = build_backend(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot read confusion file: {exc}", file=sys.stderr)
        return EXIT_IO

    points = sweep(cfg.grid, backend)
    try:
        write_outputs(cfg, backend, points)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"backend={backend.kind.value} shots={backend.shots} seed={backend.seed}"
        f" confusion={_confusion_label(backend)} points={len(points)}"
        f" -> {cfg.output_csv}"
        + (f", {cfg.output_pgm}" if cfg.output_pgm is not None else "")
    )
    return EXIT_OK


def transpile_command(args: argparse.Namespace) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        print(f"error: cannot read circuit: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        circuit = parse_circuit(text)
        transpiled = (
            transpile_ion(circuit) if args.target == "ion" else transpile_transmon(circuit)
        )
    except (CircuitParseError, UnsupportedGate) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not equivalent(circuit, transpiled, 1e-10, up_to_phase=False):
        print(
            "error: transpiled circuit does not reproduce the input unitary",
            file=sys.stderr,
        )
        return EXIT_EQUIVALENCE
    try:
        _write_text(args.output, format_circuit(transpiled))
    except OSError as exc:
        print(f"error: cannot write circuit: {exc}", file=sys.stderr)
        return EXIT_IO
    st = stats(transpiled)
    print(f"physical={st.physical_count} virtual={st.virtual_count}")
    return EXIT_OK


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


def _random_contraction(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Contraction with exactly min(n, m) singular values inside (0, 1) and
    the rest pinned to 1, so rank(1 - a^dag a) never exceeds m."""
    s = np.ones(n)
    k = min(n, m)
    s[:k] = rng.uniform(0.1, 0.9, size=k)
    return _haar_unitary(n, rng) @ (s[:, None] * dag(_haar_unitary(n, rng)))


def dilation_check_command(args: argparse.Namespace) -> int:
    n, m, trials = args.n, args.m, args.trials
    if n < 1 or m < 0 or n + m > 16 or trials < 1:
        print(
            "config error: need n >= 1, m >= 0, n + m <= 16, trials >= 1",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    worst_unitarity = 0.0
    worst_block = 0.0
    eye = np.eye(n + m)
    for trial in range(trials):
        a = _random_contraction(n, m, rng)
        try:
            dil = general_dilation(a, m)
        except DilationError as exc:
            print(f"trial {trial}: {type(exc).__name__}: {exc}")
            return EXIT_DEFECT
        u = dil.u
        worst_unitarity = max(worst_unitarity, float(np.max(np.abs(dag(u) @ u - eye))))
        worst_block = max(worst_block, float(np.max(np.abs(u[:n, :n] - a))))
    print(f"trials={trials} n={n} m={m} seed={args.seed}")
    print(f"max unitarity defect = {worst_unitarity:.3e}")
    print(f"max block defect = {worst_block:.3e}")
    if worst_unitarity >= 1e-9 or worst_block >= 1e-9:
        print("defect overflow: threshold 1e-9 exceeded", file=sys.stderr)
        return EXIT_DEFECT
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptqsim",
        description="Simulate a PT-symmetric two-level system embedded in a qutrit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sweep the (r, t) grid and write CSV/PGM output")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.add_argument(
        "--backend",
        choices=[k.value for k in BackendKind],
        help="override the config backend",
    )
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument(
        "--workers", type=int, default=1, help="accepted (K >= 1) but has no effect"
    )

    p_tr = sub.add_parser("transpile", help="rewrite a circuit file into a native gate set")
    p_tr.add_argument("--target", required=True, choices=["ion", "transmon"])
    p_tr.add_argument("input", help="circuit file to read")
    p_tr.add_argument("output", help="circuit file to write")

    p_dc = sub.add_parser("dilation-check", help="randomized unitary-completion checks")
    p_dc.add_argument("--n", type=int, default=2, help="contraction size")
    p_dc.add_argument("--m", type=int, default=1, help="ancilla dimensions")
    p_dc.add_argument("--trials", type=int, default=200)
    p_dc.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.workers < 1:
            print("config error: --workers must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        return run_command(args)
    if args.command == "transpile":
        return transpile_command(args)
    return dilation_check_command(args)


if __name__ == "__main__":
    sys.exit(main())
