"""Dense complex linear algebra for two- and three-level systems."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def ket(index: int, dim: int = 3) -> np.ndarray:
    """Basis column vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff the max-abs entry of (m^dag m - 1) is at most tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=complex)
    defect = dag(m) @ m - np.eye(m.shape[0], dtype=complex)
    return float(np.max(np.abs(defect))) <= tol


def populations(state: np.ndarray) -> np.ndarray:
    """|amplitude_i|^2 per component; sums to the squared norm."""
    s = np.asarray(state, dtype=complex)
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
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    left, sigma, right_dag = np.linalg.svd(m)
    return Svd2(float(sigma[0]), float(sigma[1]), left, dag(right_dag))


def dist_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> float:
    """max-abs entry of (a - z.b) with the unit scalar z aligning b to a.

    z is taken from trace(b^dag a); when that vanishes, from the entry pair
    with the largest |a_ij . b_ij| (symmetric in the arguments either way).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    overlap = np.trace(dag(b) @ a)
    if abs(overlap) <= 1e-14:
        products = np.abs(a) * np.abs(b)
        idx = np.unravel_index(int(np.argmax(products)), products.shape)
        overlap = np.conj(b[idx]) * a[idx]
    z = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.max(np.abs(a - z * b)))


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor-series matrix exponential, to 30 terms.

    Deliberately series-based so it shares no code path with the closed
    forms it is used to cross-check.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    scale = float(np.max(np.abs(m)))
    squarings = 0
    if scale > 0.5:
        squarings = int(math.ceil(math.log2(scale / 0.5)))
    x = m / (2.0**squarings)
    acc = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 31):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc
