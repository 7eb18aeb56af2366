"""Dense complex linear algebra for two- and three-level systems."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def _shown(value) -> str:
    """value's repr, or where repr refuses (an int past Python's 4300-digit limit,
    or a value holding one) a stand-in: its bit length, its entries, its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(_shown, value))})"
        return f"<int of {value.bit_length()} bits>" if isinstance(value, int) else f"<{type(value).__name__}>"


def _integer(name: str, value) -> int:
    """An int or numpy integer as an int; a float is refused, not truncated."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a finite float if it is an int, float or numpy real, else a ValueError."""
    if type(value) is float or isinstance(value, (int, np.integer, np.floating)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a finite real, got {_shown(value)}")


N = -1  # the free length in a `_finite` shape


def _finite(m, name: str, shape: tuple[int, ...] | None = None, dtype=complex) -> np.ndarray:
    """m as an array of dtype holding no NaN or infinity, of shape if given:
    N there is any positive length, the same wherever it appears."""
    m = np.asarray(m, dtype=dtype)
    n = dict(zip(shape or (), m.shape)).get(N)
    if shape is not None and (m.size == 0 or m.shape != tuple(n if s == N else s for s in shape)):
        text = ", ".join("n" if s == N else str(s) for s in shape)
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
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(dag(m) @ m - np.eye(m.shape[0], dtype=complex))
    # a NaN there is inf * 0 or inf - inf from a product past the float
    # range, so the true defect is past it too
    return float(np.max(np.nan_to_num(defect, nan=np.inf))) <= tol


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
