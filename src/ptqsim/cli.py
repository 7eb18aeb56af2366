"""Command-line front end: config-driven sweeps with CSV and PGM output,
circuit transpilation, and randomized dilation spot checks."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .dilation import SIZE_CAP, DilationError, general_dilation
from .experiment import (
    BackendConfig,
    BackendKind,
    SweepGrid,
    SweepResult,
    _check_seed,
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


def _choice(kind: type[Enum]) -> Callable[[str], Enum]:
    def parse(value: str) -> Enum:
        try:
            return kind(value.lower())
        except ValueError:
            names = ", ".join(k.value for k in kind)
            raise ValidationError(f"{value!r} is not one of {names}") from None

    return parse


def _backend_field(name: str, convert: Callable[[str], object]) -> Callable[[str], object]:
    """convert, then check the value as `BackendConfig` field name"""

    def parse(value: str) -> object:
        parsed = convert(value)
        try:
            BackendConfig(**{name: parsed})
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        return parsed

    return parse


def _path(value: str) -> str:
    if "\0" in value:
        raise ValidationError("a path may not hold a NUL byte")
    return value


# config key -> parser of its value; a plain ValueError means unparsable text
_PARSERS: dict[str, Callable[[str], object]] = {
    "backend": _choice(BackendKind),
    "shots": _backend_field("shots", int),
    "seed": _backend_field("seed", int),
    "observable": _choice(Observable),
    "ions": _backend_field("ion_count", int),
    "epsilon": _backend_field("epsilon", lambda value: tuple(map(float, value.split(",")))),
    **dict.fromkeys(("confusion_file", "output_csv", "output_pgm"), _path),
    **dict.fromkeys(("r_min", "r_max", "t_min", "t_max"), float),
    **dict.fromkeys(("r_steps", "t_steps"), int),
}
_GRID_KEYS = frozenset(f.name for f in fields(SweepGrid))


def parse_config(text: str) -> RunConfig:
    """key = value lines; blank lines and # comments ignored; each value is
    checked as its line is read, the grid keys together at the end; the last
    occurrence of a key wins."""
    values: dict[str, object] = {}
    for ln, source in enumerate(text.splitlines(), start=1):
        line = source.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {ln}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _PARSERS:
            raise ParseError(f"line {ln}: unknown key {key!r}")
        if not value:
            raise ParseError(f"line {ln}: empty value for {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValidationError as exc:
            raise ValidationError(f"line {ln}: {exc}") from None
        except ValueError:
            raise ParseError(f"line {ln}: cannot parse {key} value {value!r}") from None
    try:
        grid = SweepGrid(**{key: values.pop(key) for key in _GRID_KEYS & values.keys()})
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from None
    cfg = RunConfig(grid=grid, **values)
    if cfg.output_pgm is not None:
        outputs = (cfg.output_csv, cfg.output_pgm, cfg.output_pgm + ".mask")
        if len(set(map(os.path.abspath, outputs))) < len(outputs):
            raise ValidationError("output_csv, output_pgm and output_pgm + '.mask' must differ")
    return cfg


def build_backend(cfg: RunConfig) -> BackendConfig:
    """The default backend of the configured kind with the configured values
    applied; reads the confusion file, as UTF-8, when configured (OSError
    propagates to the caller as an I/O failure)."""
    given = {"shots": cfg.shots, "ion_count": cfg.ions, "epsilon": cfg.epsilon}
    overrides = {key: value for key, value in given.items() if value is not None}
    try:
        backend = replace(default_backend(cfg.backend, cfg.seed), **overrides)
        if cfg.confusion_file is not None:
            path = Path(cfg.confusion_file)
            confusion = load_confusion(path.read_text(encoding="utf-8"), label=path.name)
            backend = replace(backend, confusion=confusion)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{cfg.confusion_file} is not UTF-8: {exc}") from None
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return backend


# rows per CSV block: the CSV is formatted and written a block at a time
CSV_BLOCK_ROWS = 2048


def render_csv(points: SweepResult, backend: BackendConfig, start: int, stop: int) -> str:
    """CSV lines of points start..stop, led by the header when start is 0."""
    rows = slice(start, stop)
    header = "r,t,backend,p0,p1,p2,p0_raw,p0_postselected,kept,shots,seed"
    # one row template: %.12g per float, the run's constants as literals
    template = (
        f"%.12g,%.12g,{backend.kind.value},%.12g,%.12g,%.12g,%.12g,%s,%d,"
        f"{backend.shots},{backend.seed}"
    )
    columns = [
        points.r[rows].tolist(),
        points.t[rows].tolist(),
        *points.p_exact[rows].T.tolist(),
        points.p0_raw[rows].tolist(),
        ["" if math.isnan(x) else "%.12g" % x for x in points.p0_postselected[rows].tolist()],
        points.postselect_kept[rows].tolist(),
    ]
    if points.ion is not None:
        header += ",ion"
        template += ",%d"
        columns.append(points.ion[rows].tolist())
    lines = [template % row for row in zip(*columns)]
    if start == 0:
        lines.insert(0, header)
    return "\n".join(lines) + "\n"


def render_heatmap(
    grid: SweepGrid,
    backend: BackendConfig,
    observable: Observable,
    points: SweepResult,
) -> tuple[np.ndarray, np.ndarray]:
    """uint8 pixels (row 0 = r_max), and argwhere of the undefined points"""
    # an exact-mode run already holds the exact values in p0_raw and p0_postselected
    exact_like = backend.kind is BackendKind.THEORY
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
    return levels.astype(np.uint8)[::-1], np.argwhere(missing)


def format_pgm(pixels: np.ndarray, metadata: str) -> str:
    lines = ["P2"]
    if metadata:
        lines.append(f"# {metadata}")
    height, width = pixels.shape
    lines.append(f"{width} {height}")
    lines.append("255")
    for row in pixels.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str, append: bool = False) -> None:
    with open(path, "a" if append else "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _replace_files(texts: dict[str, Iterable[str]]) -> None:
    """Write each path's text, a block at a time, to a temp file beside it,
    then replace the paths; a failed write leaves every path as it was and
    no temp file behind (OSError propagates to the caller)."""
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


def write_outputs(cfg: RunConfig, backend: BackendConfig, points: SweepResult) -> None:
    """Write the CSV and, when configured, the PGM heatmap with a `.mask`
    sidecar listing its missing points; a mask left by an earlier run is
    removed when no point is missing. Every artifact is rendered and written
    to a temp file before any target is replaced (`_replace_files`). The CSV
    is rendered and written a block of rows at a time."""
    texts: dict[str, Iterable[str]] = {
        cfg.output_csv: (
            render_csv(points, backend, start, start + CSV_BLOCK_ROWS)
            for start in range(0, max(len(points), 1), CSV_BLOCK_ROWS)
        )
    }
    stale_mask = None
    if cfg.output_pgm is not None:
        # a label may be any file name: escaped, the PGM stays ASCII
        label = backend.confusion.label.encode("ascii", "backslashreplace").decode("ascii")
        metadata = (
            f"backend={backend.kind.value} observable={cfg.observable.value}"
            f" confusion={label} shots={backend.shots}"
            f" seed={backend.seed} rows=r_max..r_min cols=t_min..t_max"
        )
        pixels, missing = render_heatmap(cfg.grid, backend, cfg.observable, points)
        texts[cfg.output_pgm] = [format_pgm(pixels, metadata)]
        mask_path = cfg.output_pgm + ".mask"
        if len(missing):
            texts[mask_path] = ["".join(f"{i_r} {i_t}\n" for i_r, i_t in missing.tolist())]
        else:
            stale_mask = mask_path
    _replace_files(texts)
    if stale_mask is not None:
        Path(stale_mask).unlink(missing_ok=True)


def run_command(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        data = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        cfg = parse_config(data.decode("utf-8"))
        if args.backend is not None:
            cfg.backend = BackendKind(args.backend)
        if args.seed is not None:
            cfg.seed = args.seed
        backend = build_backend(cfg)
    except (ConfigError, UnicodeDecodeError) as exc:
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
        f" confusion={backend.confusion.label} points={len(points)}"
        f" -> {cfg.output_csv}"
        + (f", {cfg.output_pgm}" if cfg.output_pgm is not None else "")
    )
    return EXIT_OK


def transpile_command(args: argparse.Namespace) -> int:
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"error: cannot read circuit: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        circuit = parse_circuit(data.decode("utf-8"))
        transpiled = (transpile_ion if args.target == "ion" else transpile_transmon)(circuit)
    except (CircuitParseError, UnsupportedGate, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not equivalent(circuit, transpiled, 1e-10, up_to_phase=False):
        print(
            "error: transpiled circuit does not reproduce the input unitary",
            file=sys.stderr,
        )
        return EXIT_EQUIVALENCE
    try:
        _replace_files({args.output: [format_circuit(transpiled)]})
    except OSError as exc:
        print(f"error: cannot write circuit: {exc}", file=sys.stderr)
        return EXIT_IO
    st = stats(transpiled)
    print(f"physical={st.physical_count} virtual={st.virtual_count}")
    return EXIT_OK


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))


def _random_contraction(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Contraction with exactly min(n, m) singular values inside (0, 1) and
    the rest pinned to 1, so rank(1 - a^dag a) never exceeds m."""
    s = np.ones(n)
    k = min(n, m)
    s[:k] = rng.uniform(0.1, 0.9, size=k)
    return _haar_unitary(n, rng) @ (s[:, None] * dag(_haar_unitary(n, rng)))


def dilation_check_command(args: argparse.Namespace) -> int:
    n, m, trials = args.n, args.m, args.trials
    try:
        _check_seed("--seed", args.seed)
        if n < 1 or m < 0 or n + m > SIZE_CAP or trials < 1:
            raise ValueError(f"need n >= 1, m >= 0, n + m <= {SIZE_CAP}, trials >= 1")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first call; each handler looks up what it calls when it runs."""
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
    p_run.set_defaults(handler=run_command)

    p_tr = sub.add_parser("transpile", help="rewrite a circuit file into a native gate set")
    p_tr.add_argument("--target", required=True, choices=("ion", "transmon"))
    p_tr.add_argument("input", help="circuit file to read")
    p_tr.add_argument("output", help="circuit file to write")
    p_tr.set_defaults(handler=transpile_command)

    p_dc = sub.add_parser("dilation-check", help="randomized unitary-completion checks")
    p_dc.add_argument("--n", type=int, default=2, help="contraction size")
    p_dc.add_argument("--m", type=int, default=1, help="ancilla dimensions")
    p_dc.add_argument("--trials", type=int, default=200)
    p_dc.add_argument("--seed", type=int, default=0)
    p_dc.set_defaults(handler=dilation_check_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
