"""Dense complex linear algebra for two- and three-level systems."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _integer(name: str, value) -> int:
    """An int or numpy integer as an int; a float is refused, not truncated."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


N, M = -1, -2  # free lengths in a `_finite` shape


def _finite(m, name: str, shape: tuple[int, ...] | None = None, dtype=complex) -> np.ndarray:
    """m as an array of dtype holding no NaN or infinity, of shape if given: a
    free length there is any positive length, the same wherever it appears."""
    m = np.asarray(m, dtype=dtype)
    free = {s: n for s, n in zip(shape or (), m.shape) if s < 0}
    if shape is not None and (m.size == 0 or m.shape != tuple(free.get(s, s) for s in shape)):
        text = ", ".join("nm"[~s] if s < 0 else str(s) for s in shape)
        raise ValueError(f"{name} must have shape ({text}), got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} entries must be finite")
    return m


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the max-abs entry of (m^dag m - 1) is at most tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = _finite(m, "m", (N, N))
    defect = dag(m) @ m - np.eye(m.shape[0], dtype=complex)
    return float(np.max(np.abs(defect))) <= tol


def populations(state: np.ndarray) -> np.ndarray:
    """|amplitude_i|^2 per component; sums to the squared norm."""
    s = _finite(state, "state")
    return (s.real * s.real + s.imag * s.imag).astype(float)


class Svd2(NamedTuple):
    sigma_plus: float
    sigma_minus: float
    left: np.ndarray
    right: np.ndarray


def svd2(m: np.ndarray) -> Svd2:
    """SVD of a 2x2 matrix by LAPACK: descending singular values and unitary
    factors with left . diag(sigma_plus, sigma_minus) . right^dag = m.

    LAPACK rescales a matrix whose entries lie near either end of the float
    range, so the result holds at any magnitude.
    """
    m = _finite(m, "m", (2, 2))
    left, sigma, right_dag = np.linalg.svd(m)
    return Svd2(float(sigma[0]), float(sigma[1]), left, dag(right_dag))


def dist_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> float:
    """max-abs entry of (a - z.b) with the unit scalar z aligning b to a.

    z is taken from trace(b^dag a); when that vanishes, from the entry pair
    with the largest |a_ij . b_ij| (symmetric in the arguments either way).
    """
    a = _finite(a, "a", (N, N))
    b = _finite(b, "b", a.shape)
    overlap = np.trace(dag(b) @ a)
    if abs(overlap) <= 1e-14:
        products = np.abs(a) * np.abs(b)
        idx = np.unravel_index(int(np.argmax(products)), products.shape)
        overlap = np.conj(b[idx]) * a[idx]
    # the phase alone: 1 / |overlap| overflows where |overlap| is subnormal
    z = np.exp(1j * np.angle(overlap))
    return float(np.max(np.abs(a - z * b)))


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor-series matrix exponential, to 30 terms.

    Deliberately series-based so it shares no code path with the closed
    forms it is used to cross-check.
    """
    m = _finite(m, "m", (N, N))
    scale = float(np.max(np.abs(m)))
    if scale > 2.0**1022:
        raise ValueError("m entries must be at most 2**1022 in modulus")
    n = m.shape[0]
    squarings = 0
    if scale > 0.5:
        squarings = int(math.ceil(math.log2(scale / 0.5)))
    x = m / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 31):
        term = term @ x / k
        acc = acc + term
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            acc = acc @ acc
    return _finite(acc, "the exponential's")
