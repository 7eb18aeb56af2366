"""Output checks computed apart from ptqsim.

Nothing here imports ptqsim. Populations come from `scipy.linalg.expm` of
the Hamiltonian and a numpy SVD; gate unitaries come from `expm` of each
gate's generator; dilations are checked for U^dag U = 1 and their block.
Every check returns a list of failure messages, empty when the output
passes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import scipy.linalg

POP_TOL = 1e-9
UNITARY_TOL = 1e-9
HALF_PI = math.pi / 2.0
ION_EPSILON = (0.02, -0.015, 0.01, -0.02, 0.005)
# sum of |rotation angle| over the five ion pulses of one grid point: the two
# outer (0,1) rotations together at most 2 pi, the middle (0,2) rotation at
# most pi, and the two (0,1) conjugation half-turns pi each
ION_ANGLE_SUM = 5.0 * math.pi


def reference_populations(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(N, 3) populations of the qutrit after V/sigma_max acts on |0>,
    with V = expm(-i H t) and H = [[i r, 1], [1, -i r]]."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    h = np.empty((r.size, 2, 2), dtype=complex)
    h[:, 0, 0] = 1j * r
    h[:, 1, 1] = -1j * r
    h[:, 0, 1] = 1.0
    h[:, 1, 0] = 1.0
    v = scipy.linalg.expm(-1j * t[:, None, None] * h)
    sigma_max = np.linalg.svd(v, compute_uv=False)[:, 0]
    column = v[:, :, 0] / sigma_max[:, None]
    p = np.abs(column) ** 2
    return np.column_stack([p[:, 0], p[:, 1], 1.0 - p[:, 0] - p[:, 1]])


def uniform_confusion(diagonal: float) -> np.ndarray:
    """Readout matrix with the given diagonal and the rest split evenly."""
    m = np.full((3, 3), (1.0 - diagonal) / 2.0)
    np.fill_diagonal(m, diagonal)
    return m


def read_csv(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) if v else np.nan for v in values])


def read_pgm(path) -> tuple[int, int, np.ndarray]:
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    if lines[0] != "P2":
        raise ValueError("not a plain PGM")
    width, height = (int(x) for x in lines[1].split())
    if int(lines[2]) != 255:
        raise ValueError("maxval is not 255")
    pixels = np.array([[int(x) for x in ln.split()] for ln in lines[3:]], dtype=int)
    return width, height, pixels


def grid_points(grid: dict) -> tuple[np.ndarray, np.ndarray]:
    """(r, t) of every point of an inclusive uniform grid, r-major."""

    def axis(lo: float, hi: float, steps: int) -> np.ndarray:
        return np.array([lo + (hi - lo) * k / max(steps - 1, 1) for k in range(steps)])

    rs = axis(grid["r_min"], grid["r_max"], grid["r_steps"])
    ts = axis(grid["t_min"], grid["t_max"], grid["t_steps"])
    return np.repeat(rs, ts.size), np.tile(ts, rs.size)


def check_run(
    csv_path,
    pgm_path,
    *,
    backend: str,
    grid: dict,
    shots: int,
    seed: int,
    observable: str,
    reference: np.ndarray,
) -> list[str]:
    """Check one `ptqsim run` output pair against the reference populations
    of its grid (r-major order) and the sampling and rendering rules."""
    errors: list[str] = []
    try:
        cols = read_csv(csv_path)
    except (OSError, IndexError, csv.Error) as exc:
        return [f"{csv_path}: unreadable CSV: {exc}"]
    n = grid["r_steps"] * grid["t_steps"]
    if len(cols.get("r", ())) != n:
        return [f"{csv_path}: expected {n} rows"]
    r, t = grid_points(grid)
    if np.max(np.abs(_floats(cols["r"]) - r)) > 1e-9 or np.max(np.abs(_floats(cols["t"]) - t)) > 1e-9:
        errors.append(f"{csv_path}: grid coordinates are not r-major")
    shape = (grid["r_steps"], grid["t_steps"])
    if set(cols["backend"]) != {backend}:
        errors.append(f"{csv_path}: backend column is not {backend}")
    if set(cols["shots"]) != {str(shots)} or set(cols["seed"]) != {str(seed)}:
        errors.append(f"{csv_path}: shots or seed column wrong")

    p = np.column_stack([_floats(cols[k]) for k in ("p0", "p1", "p2")])
    if backend == "theory":
        gap = float(np.max(np.abs(p - reference)))
        if gap > POP_TOL:
            errors.append(f"{csv_path}: theory populations off by {gap:.3e}")
    elif backend == "transmon":
        expected = reference @ uniform_confusion(0.876).T
        gap = float(np.max(np.abs(p - expected)))
        if gap > POP_TOL:
            errors.append(f"{csv_path}: transmon populations off by {gap:.3e}")
    else:
        ions = np.array([int(x) for x in cols["ion"]])
        if np.any(ions != np.tile(np.arange(shape[1]) % 5, shape[0])):
            errors.append(f"{csv_path}: ion column is not t_index mod 5")
        expected = reference @ uniform_confusion(0.97).T
        bound = np.abs(np.array(ION_EPSILON))[ions % 5] * ION_ANGLE_SUM + POP_TOL
        l1 = np.sum(np.abs(p - expected), axis=1)
        if np.any(l1 > bound):
            errors.append(f"{csv_path}: ion populations exceed the over-rotation bound")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > POP_TOL or np.min(p) < -1e-12:
            errors.append(f"{csv_path}: ion populations are not a distribution")

    errors += check_sampled(
        str(csv_path), p[:, 0], _floats(cols["p0_raw"]), _floats(cols["p0_postselected"]),
        np.array([int(x) for x in cols["kept"]]), shots,
    )

    if backend == "theory":
        values = p[:, 0] if observable == "return_prob" else _postselect(p[:, 0], p[:, 1])
    else:
        values = _floats(cols["p0_raw"] if observable == "return_prob" else cols["p0_postselected"])
    errors += check_pgm(pgm_path, values.reshape(shape))
    return errors


def _postselect(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    kept = p0 + p1
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(kept > 0.0, p0 / kept, np.nan)


def check_sampled(
    where: str,
    p0: np.ndarray,
    p0_raw: np.ndarray,
    p0_post: np.ndarray,
    kept: np.ndarray,
    shots: int,
) -> list[str]:
    """Counts are integers, the postselected ratio is n0/kept, and the
    standardized residuals of n0 have binomial mean 0 and variance 1."""
    errors: list[str] = []
    n0 = p0_raw * shots
    if np.max(np.abs(n0 - np.round(n0))) > 1e-6:
        errors.append(f"{where}: p0_raw * shots is not an integer")
    n0 = np.round(n0)
    if np.any(kept > shots) or np.any(n0 > kept):
        errors.append(f"{where}: counts exceed the shot budget")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(kept > 0, n0 / kept, np.nan)
    if np.any(np.isnan(ratio) != np.isnan(p0_post)) or np.nanmax(
        np.abs(ratio - p0_post), initial=0.0
    ) > 1e-11:
        errors.append(f"{where}: p0_postselected is not n0/kept")
    var = shots * p0 * (1.0 - p0)
    use = var >= 5.0
    if np.count_nonzero(use) >= 20:
        z = (n0[use] - shots * p0[use]) / np.sqrt(var[use])
        m = z.size
        if abs(float(np.mean(z))) > 6.0 / math.sqrt(m) or abs(
            float(np.mean(z * z)) - 1.0
        ) > 6.0 * math.sqrt(2.5 / m):
            errors.append(
                f"{where}: residuals not binomial (mean {np.mean(z):.3f}, "
                f"mean square {np.mean(z * z):.3f} over {m} points)"
            )
    return errors


def check_pgm(path, values: np.ndarray) -> list[str]:
    """Pixel (row, col) is round(255 clip(value)) of grid point
    (r_steps - 1 - row, col); undefined values render as 0 and are listed
    in the .mask sidecar."""
    try:
        width, height, pixels = read_pgm(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path}: unreadable PGM: {exc}"]
    if (height, width) != values.shape or pixels.shape != values.shape:
        return [f"{path}: PGM is {width}x{height}, grid is {values.shape}"]
    errors: list[str] = []
    field = values[::-1]
    missing = np.isnan(field)
    scaled = 255.0 * np.clip(np.nan_to_num(field), 0.0, 1.0)
    exact = np.where(missing, 0, np.round(scaled)).astype(int)
    # the CSV holds 12 significant digits, so a value within 1e-7 of a
    # rounding tie may round either way
    tie = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-7
    ok = (pixels == exact) | (tie & (np.abs(pixels - scaled) < 0.5 + 1e-7))
    if not np.all(ok):
        row, col = np.argwhere(~ok)[0]
        errors.append(f"{path}: pixel ({row}, {col}) is {pixels[row, col]}, expected {exact[row, col]}")
    mask = Path(str(path) + ".mask")
    listed = set()
    if mask.exists():
        listed = {tuple(int(x) for x in ln.split()) for ln in mask.read_text().splitlines()}
    height = values.shape[0]
    absent = {(height - 1 - int(row), int(col)) for row, col in np.argwhere(missing)}
    if listed != absent:
        errors.append(f"{path}: mask lists {len(listed)} points, {len(absent)} are undefined")
    return errors


# ---- circuits -------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def parse_gates(text: str) -> list[tuple[str, int, int, tuple[float, ...]]]:
    gates = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, i, j, *angles = line.split()
        gates.append((kind.upper(), int(i), int(j), tuple(float(a) for a in angles)))
    return gates


def generator(kind: str, i: int, j: int, angles: tuple[float, ...]) -> np.ndarray:
    """A with gate = expm(A): RX/RY/RION are exp(-i theta/2 (axis on {i,j})),
    RZ phases level j by exp(i phi), PHASE2 phases both levels by exp(i lam)."""
    a = np.zeros((3, 3), dtype=complex)
    idx = np.ix_([i, j], [i, j])
    if kind in ("RX", "RY"):
        a[idx] = -0.5j * angles[0] * (_X if kind == "RX" else _Y)
    elif kind == "RION":
        phi, theta = angles
        a[idx] = -0.5j * theta * (math.cos(phi) * _X + math.sin(phi) * _Y)
    elif kind == "RZ":
        a[j, j] = 1j * angles[0]
    elif kind == "PHASE2":
        a[i, i] = a[j, j] = 1j * angles[0]
    else:
        raise ValueError(f"unknown gate {kind}")
    return a


def circuit_matrices(*circuits) -> list[np.ndarray]:
    """Product of the gate exponentials of each circuit, first-listed gate
    applied first; each distinct gate is exponentiated once."""
    distinct = list(dict.fromkeys(g for c in circuits for g in c))
    exps = dict(zip(distinct, scipy.linalg.expm(np.array([generator(*g) for g in distinct]))))
    products = []
    for c in circuits:
        u = np.eye(3, dtype=complex)
        for g in c:
            u = exps[g] @ u
        products.append(u)
    return products


def native(target: str, gate) -> bool:
    kind, i, j, angles = gate
    if target == "ion":
        return kind in ("RION", "RZ") and (i, j) in ((0, 1), (0, 2))
    if (i, j) not in ((0, 1), (1, 2)):
        return False
    return kind == "RZ" or (kind == "RX" and angles[0] == HALF_PI)


def check_transpile(source_text: str, output_text: str, target: str, report: str) -> list[str]:
    """The output is in the target's native set, reproduces the source
    unitary exactly (global phase included), and the printed pulse counts
    match the file."""
    try:
        src, out = parse_gates(source_text), parse_gates(output_text)
    except ValueError as exc:
        return [f"unparseable circuit: {exc}"]
    errors = []
    if not all(native(target, g) for g in out):
        errors.append(f"{target}: output leaves the native gate set")
    u_src, u_out = circuit_matrices(src, out)
    gap = float(np.max(np.abs(u_src - u_out)))
    if gap > UNITARY_TOL:
        errors.append(f"{target}: output unitary differs by {gap:.3e}")
    physical = sum(g[0] in ("RX", "RY", "RION") for g in out)
    if report.strip() != f"physical={physical} virtual={len(out) - physical}":
        errors.append(f"{target}: report {report.strip()!r} does not match the file")
    return errors


def check_dilation(a: np.ndarray, u: np.ndarray) -> list[str]:
    """u is unitary and its top-left block is a."""
    n = a.shape[0]
    unitarity = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    block = float(np.max(np.abs(u[:n, :n] - a)))
    if unitarity > UNITARY_TOL or block > UNITARY_TOL:
        return [f"dilation {n}+{u.shape[0] - n}: unitarity {unitarity:.2e}, block {block:.2e}"]
    return []


# ---- shot statistics ------------------------------------------------------


def check_shot_rms(residuals: np.ndarray, p_theory: np.ndarray, shots: int) -> list[str]:
    """RMS of sampled-minus-exact over all sweeps within 20% of the
    binomial prediction sqrt(mean p(1-p) / shots)."""
    rms = math.sqrt(float(np.mean(residuals**2)))
    predicted = math.sqrt(float(np.mean(p_theory * (1.0 - p_theory))) / shots)
    if not 0.8 * predicted <= rms <= 1.2 * predicted:
        return [f"theory RMS {rms:.5f} outside 20% of binomial {predicted:.5f}"]
    return []


def check_striping(mean_residual: np.ndarray) -> list[str]:
    """Per-ion over-rotation is constant down a column, so residual
    products within a column exceed those across a row."""

    def mean_pair_product(lines: np.ndarray) -> float:
        total, count = 0.0, 0
        for line in lines:
            s = float(np.sum(line))
            total += (s * s - float(np.sum(line * line))) / 2.0
            count += len(line) * (len(line) - 1) // 2
        return total / count

    within = mean_pair_product(mean_residual.T)
    across = mean_pair_product(mean_residual)
    if not within > across:
        return [f"ion residuals not striped: within {within:.3e} <= across {across:.3e}"]
    return []


def check_calibrations(errors_max: list[float]) -> list[str]:
    good = sum(e < 0.01 for e in errors_max)
    if good < math.ceil(0.99 * len(errors_max)):
        return [f"only {good}/{len(errors_max)} calibrations within 0.01"]
    return []
