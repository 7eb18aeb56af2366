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


def _orthonormal_partner(v: np.ndarray) -> np.ndarray:
    """The (unique up to phase) unit vector orthogonal to a 2-vector."""
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def svd2(m: np.ndarray) -> Svd2:
    """Closed-form SVD of a 2x2 matrix via the eigen-decomposition of m^dag m.

    Returns descending singular values and unitary factors with
    left . diag(sigma_plus, sigma_minus) . right^dag = m.

    m is first divided by a power of two (exact in binary) that brings
    max|m_ij| into [1, 2), so the Gram matrix neither underflows nor
    overflows at any scale; the singular values are scaled back at the end
    (the guard of LAPACK's dlasv2, Demmel & Kahan 1990).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {m.shape}")
    biggest = float(np.max(np.abs(m)))
    if biggest == 0.0:
        return Svd2(0.0, 0.0, I2.copy(), I2.copy())
    scale = math.ldexp(1.0, math.frexp(biggest)[1] - 1)
    # real and imaginary parts apart: complex division by a subnormal overflows
    m = m.real / scale + 1j * (m.imag / scale)
    g = dag(m) @ m
    g00 = g[0, 0].real
    g11 = g[1, 1].real
    g01 = g[0, 1]
    mean = 0.5 * (g00 + g11)
    disc = math.hypot(0.5 * (g00 - g11), abs(g01))
    lam_plus = mean + disc
    sigma_plus = math.sqrt(lam_plus)
    # mean - disc cancels catastrophically once sigma_plus >> sigma_minus;
    # the 2x2 identity sigma+ . sigma- = |det m| stays accurate there
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    sigma_minus = min(abs(det) / sigma_plus, sigma_plus)
    if abs(g01) == 0.0 or disc <= 1e-18 * mean:
        # (near-)diagonal Gram matrix: basis vectors are eigenvectors
        if g00 >= g11:
            v_plus = np.array([1.0, 0.0], dtype=complex)
        else:
            v_plus = np.array([0.0, 1.0], dtype=complex)
    else:
        # pick the eigenvector formula whose leading component is the
        # better-conditioned one (it is at least disc in magnitude)
        if g00 >= g11:
            v_plus = np.array([lam_plus - g11, np.conj(g01)], dtype=complex)
        else:
            v_plus = np.array([g01, lam_plus - g00], dtype=complex)
        v_plus = v_plus / np.linalg.norm(v_plus)
    v_minus = _orthonormal_partner(v_plus)

    u_plus = m @ v_plus / sigma_plus
    u_plus = u_plus / np.linalg.norm(u_plus)
    if sigma_minus > 1e-14 * sigma_plus:
        # normalizing m . v- recovers the left vector with its phase
        u_minus = m @ v_minus / sigma_minus
        u_minus = u_minus - np.vdot(u_plus, u_minus) * u_plus
        u_minus = u_minus / np.linalg.norm(u_minus)
    else:
        # rank-deficient: any orthonormal completion works
        u_minus = _orthonormal_partner(u_plus)
    left = np.column_stack([u_plus, u_minus])
    right = np.column_stack([v_plus, v_minus])
    return Svd2(float(sigma_plus) * scale, float(sigma_minus) * scale, left, right)


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


def expm_taylor(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Scaling-and-squaring Taylor-series matrix exponential.

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
    for k in range(1, terms + 1):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc
