"""Finite-shot emulation of the hardware experiments.

A grid point is evaluated from the closed-form qutrit populations; the ion
backend instead transpiles the circuit to its native pulses and applies
per-ion systematic over-rotation. The populations are mixed through a readout
confusion matrix, and multinomial counts are drawn from a counter-based
generator keyed by (seed, grid indices), so each point's counts depend only
on its grid position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dilation import qutrit_circuit
from .gates import Circuit, Gate, GateKind, circuit_unitary, transpile_ion
from .linalg import populations
from .model import PTParams, qutrit_populations

DEFAULT_ION_EPSILON = (0.02, -0.015, 0.01, -0.02, 0.005)
DEFAULT_ION_DIAGONAL = 0.97
DEFAULT_TRANSMON_DIAGONAL = 0.876
# a sweep holds one record per point; a typo in a step count must not grow it
MAX_GRID_POINTS = 10**7


class BadDistribution(ValueError):
    """Probability vector with a genuinely negative or non-normalized entry."""


class EmptyPostselection(RuntimeError):
    """No shots landed in the (0,1) subspace."""


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Column-stochastic readout model: entries[i][j] = P(declared i | prepared j)."""

    entries: np.ndarray
    label: str = "custom"

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"confusion matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("confusion matrix entries must be finite")
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            raise ValueError("confusion matrix entries must lie in [0, 1]")
        sums = m.sum(axis=0)
        if float(np.max(np.abs(sums - 1.0))) > 1e-6:
            raise ValueError(f"columns must sum to 1 within 1e-6, got {sums}")
        m = np.clip(m, 0.0, 1.0)
        m = m / m.sum(axis=0, keepdims=True)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def identity_confusion() -> ConfusionMatrix:
    return ConfusionMatrix(np.eye(3), label="identity")


def synthetic_confusion(diagonal: float, label: str = "synthetic") -> ConfusionMatrix:
    """Uniform-error model: given diagonal, off-diagonal mass split evenly."""
    if not 0.0 < diagonal <= 1.0:
        raise ValueError("diagonal must be in (0, 1]")
    off = (1.0 - diagonal) / 2.0
    m = np.full((3, 3), off)
    np.fill_diagonal(m, diagonal)
    return ConfusionMatrix(m, label=label)


def load_confusion(text: str, label: str = "file") -> ConfusionMatrix:
    """Nine whitespace-separated reals, row-major; columns re-normalized when
    within 1e-6 of stochastic, rejected otherwise."""
    try:
        values = [float(x) for x in text.split()]
    except ValueError as exc:
        raise ValueError(f"confusion file: {exc}") from None
    if len(values) != 9:
        raise ValueError(f"confusion file must hold 9 reals, got {len(values)}")
    return ConfusionMatrix(np.array(values).reshape(3, 3), label=label)


class BackendKind(Enum):
    THEORY = "theory"
    ION = "ion"
    TRANSMON = "transmon"


@dataclass(frozen=True, eq=False)
class BackendConfig:
    kind: BackendKind = BackendKind.THEORY
    shots: int = 512
    confusion: ConfusionMatrix | None = None  # None means identity
    ion_count: int = 5
    epsilon: tuple[float, ...] = ()
    seed: int = 0
    exact: bool = False  # report exact probabilities instead of sampled ratios

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.ion_count < 1:
            raise ValueError("ion_count must be at least 1")
        if any(abs(e) >= 0.5 for e in self.epsilon):
            raise ValueError("per-ion over-rotation must satisfy |epsilon| < 0.5")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def default_backend(kind: BackendKind, seed: int = 0) -> BackendConfig:
    """Backend with the default shot budget and synthetic noise model."""
    if kind is BackendKind.ION:
        return BackendConfig(
            kind=kind,
            shots=512,
            confusion=synthetic_confusion(DEFAULT_ION_DIAGONAL, "synthetic-ion-0.97"),
            epsilon=DEFAULT_ION_EPSILON,
            seed=seed,
        )
    if kind is BackendKind.TRANSMON:
        return BackendConfig(
            kind=kind,
            shots=8192,
            confusion=synthetic_confusion(
                DEFAULT_TRANSMON_DIAGONAL, "synthetic-transmon-0.876"
            ),
            seed=seed,
        )
    return BackendConfig(kind=BackendKind.THEORY, shots=512, seed=seed)


def _backend_confusion(backend: BackendConfig) -> ConfusionMatrix:
    if backend.confusion is not None:
        return backend.confusion
    return identity_confusion()


def _ion_epsilon(backend: BackendConfig, ion_index: int) -> float:
    if not backend.epsilon:
        return 0.0
    return backend.epsilon[ion_index % len(backend.epsilon)]


def miscalibrate(c: Circuit, eps: float) -> Circuit:
    """Scale every physical rotation angle by (1 + eps); virtual phases and
    pulse-phase arguments are untouched."""
    if abs(eps) >= 0.5:
        raise ValueError("|eps| must be below 0.5")
    out: list[Gate] = []
    for g in c:
        if g.kind in (GateKind.RX, GateKind.RY):
            out.append(Gate(g.kind, g.subspace, (g.angles[0] * (1.0 + eps),)))
        elif g.kind is GateKind.RION:
            out.append(Gate(g.kind, g.subspace, (g.angles[0], g.angles[1] * (1.0 + eps))))
        else:
            out.append(g)
    return Circuit(tuple(out))


def exact_probabilities(
    p: PTParams, backend: BackendConfig, ion_index: int = 0
) -> np.ndarray:
    """Declared-outcome distribution for the embedded evolution of |0>.

    Only the ion backend has gate-level error, so only it is emulated on
    native pulses. Theory reads the closed-form populations; transmon pulses
    reproduce the qutrit unitary exactly, so it sees those same populations
    through readout confusion."""
    if backend.kind is BackendKind.ION:
        circ = miscalibrate(
            transpile_ion(qutrit_circuit(p)), _ion_epsilon(backend, ion_index)
        )
        true_probs = populations(circuit_unitary(circ)[:, 0])
    else:
        true_probs = qutrit_populations(p)
    if backend.kind is BackendKind.THEORY:
        return true_probs
    return _backend_confusion(backend).entries @ true_probs


def derive_seed(base: int, *key: int) -> int:
    """Stable 64-bit stream id for a (seed, key...) pair."""
    ss = np.random.SeedSequence(
        entropy=int(base), spawn_key=tuple(int(k) for k in key)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Deterministic multinomial draw; identical inputs give identical counts."""
    probs = np.asarray(probs, dtype=float)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if float(probs.min()) < -1e-9:
        raise BadDistribution(f"negative probability {float(probs.min()):.3e}")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise BadDistribution(f"probabilities sum to {total!r}")
    clean = np.clip(probs, 0.0, None)
    clean = clean / clean.sum()
    return _rng(seed).multinomial(int(shots), clean)


def postselect_ratio(counts: np.ndarray) -> float:
    kept = int(counts[0]) + int(counts[1])
    if kept == 0:
        raise EmptyPostselection("no outcomes in the (0,1) subspace")
    return int(counts[0]) / kept


def _round_counts(probs: np.ndarray, shots: int) -> np.ndarray:
    """Largest-remainder rounding of shots*probs (exact-mode bookkeeping)."""
    scaled = np.clip(np.asarray(probs, dtype=float), 0.0, None) * shots
    base = np.floor(scaled).astype(np.int64)
    remainder = int(shots - base.sum())
    order = np.argsort(-(scaled - base))
    base[order[:remainder]] += 1
    return base


@dataclass(frozen=True, eq=False)
class ExperimentPoint:
    r: float
    t: float
    p_exact: np.ndarray
    counts: np.ndarray
    p0_raw: float
    p0_postselected: float | None
    postselect_kept: int
    ion: int | None = None


def run_point(
    p: PTParams,
    backend: BackendConfig,
    ion_index: int = 0,
    grid_key: tuple[int, int] = (0, 0),
) -> ExperimentPoint:
    if backend.kind is BackendKind.ION and not 0 <= ion_index < backend.ion_count:
        raise ValueError(f"ion_index {ion_index} outside 0..{backend.ion_count - 1}")
    probs = exact_probabilities(p, backend, ion_index)
    if backend.exact:
        counts = _round_counts(probs, backend.shots)
        p0_raw = float(probs[0])
        subspace = float(probs[0]) + float(probs[1])
        p0_post = float(probs[0]) / subspace if subspace > 0.0 else None
    else:
        point_seed = derive_seed(backend.seed, 0, grid_key[0], grid_key[1])
        counts = sample_counts(probs, backend.shots, point_seed)
        p0_raw = int(counts[0]) / backend.shots
        try:
            p0_post = postselect_ratio(counts)
        except EmptyPostselection:
            p0_post = None
    return ExperimentPoint(
        r=p.r,
        t=p.t,
        p_exact=probs,
        counts=counts,
        p0_raw=p0_raw,
        p0_postselected=p0_post,
        postselect_kept=int(counts[0]) + int(counts[1]),
        ion=ion_index if backend.kind is BackendKind.ION else None,
    )


@dataclass(frozen=True)
class SweepGrid:
    r_min: float = 0.0
    r_max: float = 1.2
    r_steps: int = 61
    t_min: float = 0.0
    t_max: float = 5.0
    t_steps: int = 101

    def __post_init__(self) -> None:
        for name in ("r_min", "r_max", "t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r_steps < 1 or self.t_steps < 1:
            raise ValueError("steps must be at least 1")
        if self.r_steps * self.t_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"r_steps * t_steps = {self.r_steps * self.t_steps} exceeds "
                f"{MAX_GRID_POINTS} points"
            )
        if self.r_min < 0.0 or self.t_min < 0.0:
            raise ValueError("grid must lie in r >= 0, t >= 0")
        if self.r_max < self.r_min or self.t_max < self.t_min:
            raise ValueError("max must not be below min")

    def r_values(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.r_steps)

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)


def sweep(grid: SweepGrid, backend: BackendConfig) -> list[ExperimentPoint]:
    """Inclusive uniform grid in r-major order; the ion assignment (one ion
    per t column) and the per-point random stream depend only on grid
    indices."""
    ions = backend.ion_count if backend.kind is BackendKind.ION else 1
    return [
        run_point(
            PTParams(float(r), float(t)),
            backend,
            ion_index=i_t % ions,
            grid_key=(i_r, i_t),
        )
        for i_r, r in enumerate(grid.r_values())
        for i_t, t in enumerate(grid.t_values())
    ]


def estimate_confusion(
    backend: BackendConfig, preparations_per_state: int
) -> ConfusionMatrix:
    """Prepare each basis state, read it out through the backend's true
    matrix, and column-normalize the empirical counts."""
    if preparations_per_state < 1:
        raise ValueError("preparations_per_state must be at least 1")
    true = _backend_confusion(backend)
    columns = []
    for prepared in range(3):
        seed = derive_seed(backend.seed, 1, prepared)
        counts = sample_counts(true.entries[:, prepared], preparations_per_state, seed)
        columns.append(counts / preparations_per_state)
    return ConfusionMatrix(np.column_stack(columns), label=f"estimated({true.label})")
