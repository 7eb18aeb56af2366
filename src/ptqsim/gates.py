"""Subspace-rotation gate IR for a single qutrit and transpilers to two native sets.

Circuits list gates in application order (first applied = first listed);
matrix products are therefore taken right to left.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .linalg import _real, _shown, dag

_HALF_PI = math.pi / 2.0
_VALID_SUBSPACES = ((0, 1), (0, 2), (1, 2))


class GateKind(Enum):
    RX = "RX"
    RZ = "RZ"
    RION = "RION"


class UnsupportedGate(ValueError):
    """Input gate outside the shape a transpiler accepts."""


class CircuitParseError(ValueError):
    """Malformed line in the textual circuit format."""


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    subspace: tuple[int, int]
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.subspace, tuple) or self.subspace not in _VALID_SUBSPACES:
            raise ValueError(f"bad subspace {_shown(self.subspace)}")
        object.__setattr__(self, "subspace", _VALID_SUBSPACES[_VALID_SUBSPACES.index(self.subspace)])
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"kind must be a GateKind, got {_shown(self.kind)}")
        if not isinstance(self.angles, tuple):
            raise ValueError(f"angles must be a tuple, got {_shown(self.angles)}")
        expected = 2 if self.kind is GateKind.RION else 1
        if len(self.angles) != expected:
            raise ValueError(
                f"{self.kind.value} takes {expected} angle(s), got {len(self.angles)}"
            )
        for angle in self.angles:
            _real("gate angle", angle)


def rx(i: int, j: int, theta: float) -> Gate:
    return Gate(GateKind.RX, (i, j), (_real("theta", theta),))


def rz(i: int, j: int, phi: float) -> Gate:
    return Gate(GateKind.RZ, (i, j), (_real("phi", phi),))


def rion(i: int, j: int, phi: float, theta: float) -> Gate:
    return Gate(GateKind.RION, (i, j), (_real("phi", phi), _real("theta", theta)))


Circuit = tuple[Gate, ...]


def _not_gates(found) -> ValueError:
    """A circuit is an iterable of `Gate`s. This refuses a circuit argument c that
    is not iterable (`_gates`), or an entry found in c that is no Gate."""
    return ValueError(f"c must be an iterable of Gates, found {_shown(found)}")


def _gates(c: Circuit):
    try:
        return iter(c)
    except TypeError:
        raise _not_gates(c) from None


def gate_matrix(g: Gate) -> np.ndarray:
    """Exact 3x3 matrix; the level outside the subspace is untouched."""
    if not isinstance(g, Gate):
        raise ValueError(f"g must be a Gate, found {_shown(g)}")
    m = np.eye(3, dtype=complex)
    i, j = g.subspace
    if g.kind is GateKind.RZ:
        m[j, j] = cmath.exp(1j * g.angles[0])
        return m
    # RX is RION at phase 0
    phi, theta = (0.0, *g.angles) if g.kind is GateKind.RX else g.angles
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    m[i, i] = m[j, j] = ch
    m[i, j] = -1j * cmath.exp(-1j * phi) * sh
    m[j, i] = -1j * cmath.exp(1j * phi) * sh
    return m


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of the gate matrices (last-applied gate leftmost)."""
    u = np.eye(3, dtype=complex)
    for g in _gates(c):
        if not isinstance(g, Gate):
            raise _not_gates(g)
        u = gate_matrix(g) @ u
    return u


@dataclass(frozen=True)
class GateSet:
    """A native gate set: `admits(g)` is True for the gates it executes."""

    admits: Callable[[Gate], bool]


def _ion_admits(g: Gate) -> bool:
    return g.kind in (GateKind.RION, GateKind.RZ) and g.subspace in ((0, 1), (0, 2))


def _transmon_admits(g: Gate) -> bool:
    if g.subspace not in ((0, 1), (1, 2)):
        return False
    if g.kind is GateKind.RX:
        return g.angles[0] == _HALF_PI
    return g.kind is GateKind.RZ


ION = GateSet(_ion_admits)
TRANSMON = GateSet(_transmon_admits)


def _rx_angle(g: Gate) -> float:
    if not isinstance(g, Gate):
        raise _not_gates(g)
    if g.kind is not GateKind.RX or g.subspace not in ((0, 1), (1, 2)):
        raise UnsupportedGate(f"cannot transpile {g}")
    return g.angles[0]


def transpile_ion(c: Circuit) -> Circuit:
    """RX(0,1) is the zero-phase native pulse; RX(1,2) is conjugated into the
    (0,2) subspace by a pair of (0,1) Y half-turns. Preserves the matrix
    exactly (no leftover phase)."""
    out: list[Gate] = []
    for g in _gates(c):
        theta = _rx_angle(g)
        if g.subspace == (0, 1):
            out.append(rion(0, 1, 0.0, theta))
        else:
            out.append(rion(0, 1, _HALF_PI, -math.pi))
            out.append(rion(0, 2, 0.0, theta))
            out.append(rion(0, 1, _HALF_PI, math.pi))
    return tuple(out)


def _expand01(theta: float, sign: int) -> list[Gate]:
    """RX(0,1)(theta) from two quarter pulses, leaving the scalar
    exp(sign.i.theta/2) on the full space. Both sign branches exist so a
    whole circuit can cancel its scalars."""
    q = sign * _HALF_PI
    return [
        rz(1, 2, sign * theta / 2.0),
        rz(0, 1, q),
        rx(0, 1, _HALF_PI),
        rz(0, 1, q),
        rz(0, 1, sign * theta),
        rz(0, 1, q),
        rx(0, 1, _HALF_PI),
        rz(0, 1, q),
    ]


def _expand12(theta: float) -> list[Gate]:
    """RX(1,2)(theta) from two quarter pulses; exact, no leftover scalar
    (level 0 is never phased, so the two-level phase is fully expressible)."""
    return [
        rz(1, 2, -theta / 2.0),
        rz(0, 1, -theta / 2.0),
        rz(1, 2, _HALF_PI),
        rx(1, 2, _HALF_PI),
        rz(1, 2, _HALF_PI),
        rz(1, 2, theta),
        rz(1, 2, _HALF_PI),
        rx(1, 2, _HALF_PI),
        rz(1, 2, _HALF_PI),
    ]


def _phase_block(chi: float) -> list[Gate]:
    """exp(i.chi).identity from four quarter pulses; absorbs any residual
    scalar the (0,1) expansions could not cancel among themselves."""
    alpha = chi - math.pi
    return [
        rz(0, 1, alpha),
        rx(0, 1, _HALF_PI),
        rx(0, 1, _HALF_PI),
        rz(0, 1, alpha),
        rx(0, 1, _HALF_PI),
        rx(0, 1, _HALF_PI),
        rz(1, 2, chi),
    ]


def _wrap_pi(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = math.fmod(x, 2.0 * math.pi)
    if y > math.pi:
        y -= 2.0 * math.pi
    elif y <= -math.pi:
        y += 2.0 * math.pi
    return y


def _balance_signs(halves: list[float]) -> tuple[list[int], float]:
    """Sign per (0,1) rotation minimizing |wrap(sum of signed half-angles)|,
    and that wrapped sum, added in circuit order."""
    # libm reduces a large angle exactly, where a sum of them loses the phase
    halves = [math.atan2(math.sin(h), math.cos(h)) if abs(h) > math.pi else h for h in halves]
    n = len(halves)
    if n <= 14:
        candidates = ([-1 if mask >> k & 1 else 1 for k in range(n)] for mask in range(1 << n))
        signs = min(candidates, key=lambda s: abs(_wrap_pi(sum(map(operator.mul, s, halves)))))
    else:
        # large circuits: greedily oppose the running sum, biggest angles first
        order = sorted(range(n), key=lambda k: -abs(halves[k]))
        signs = [1] * n
        total = 0.0
        for k in order:
            signs[k] = -1 if total * halves[k] > 0 else 1
            total += signs[k] * halves[k]
    return signs, _wrap_pi(sum(map(operator.mul, signs, halves)))


def transpile_transmon(c: Circuit) -> Circuit:
    """Rewrite onto quarter X pulses plus virtual Z rotations, exactly for
    every finite angle.

    Each (0,1) rotation leaves a scalar exp(+-i.theta/2) because no set of
    pure Z rotations can phase level 0; the pass picks the branch signs so
    the scalars cancel, and appends an explicit four-pulse phase block for
    whatever residual remains."""
    rotations = [(_rx_angle(g), g.subspace == (0, 1)) for g in _gates(c)]
    signs, residual = _balance_signs([theta / 2.0 for theta, on01 in rotations if on01])
    sign = iter(signs)
    out: list[Gate] = []
    for theta, on01 in rotations:
        out.extend(_expand01(theta, next(sign)) if on01 else _expand12(theta))
    if abs(residual) > 1e-12:
        out.extend(_phase_block(-residual))
    return tuple(out)


def equivalent(
    c1: Circuit, c2: Circuit, tol: float = 1e-10, up_to_phase: bool = False
) -> bool:
    if not tol > 0:
        raise ValueError("tol must be positive")
    u1 = circuit_unitary(c1)
    u2 = circuit_unitary(c2)
    if up_to_phase:
        # the phase alone: 1 / |overlap| overflows where |overlap| is subnormal
        u2 = u2 * np.exp(1j * np.angle(np.trace(dag(u2) @ u1)))
    return float(np.max(np.abs(u1 - u2))) <= tol


@dataclass(frozen=True)
class CircuitStats:
    physical_count: int
    virtual_count: int


def stats(c: Circuit) -> CircuitStats:
    """RZ is zero-duration phase bookkeeping, every other gate a pulse."""
    counts = [0, 0]  # pulses, then virtual phases
    for g in _gates(c):
        if not isinstance(g, Gate):
            raise _not_gates(g)
        counts[g.kind is GateKind.RZ] += 1
    return CircuitStats(*counts)


def format_circuit(c: Circuit) -> str:
    """One gate per line: KIND i j angle [angle]; %.17g round-trips doubles."""
    lines = []
    for g in _gates(c):
        if not isinstance(g, Gate):
            raise _not_gates(g)
        parts = [g.kind.value, str(g.subspace[0]), str(g.subspace[1])]
        parts.extend(f"{a:.17g}" for a in g.angles)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_circuit(text: str) -> Circuit:
    if not isinstance(text, str):
        raise CircuitParseError(f"text must be a str, found {_shown(text)}")
    gates: list[Gate] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            kind = GateKind(parts[0].upper())
            i, j = int(parts[1]), int(parts[2])
            angles = tuple(float(x) for x in parts[3:])
            gates.append(Gate(kind, (i, j), angles))
        except (ValueError, IndexError) as exc:
            raise CircuitParseError(f"line {ln}: {raw.strip()!r}: {exc}") from None
    return tuple(gates)
