"""Shared oracles, hypothesis strategies, basis vectors and Pauli matrices
for the test suite.

The oracles here deliberately avoid the library's own code paths:
matrix exponentials come from scipy, singular values from dense
eigendecompositions of the Gram matrix, and the observables at 60 digits
from mpmath.  Closed-form results in the library are always checked
against at least one of these routes.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from ptqsim.model import PTParams

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def ket(index: int, dim: int = 3) -> np.ndarray:
    """Basis column vector |index> in the given dimension."""
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def series_evolution(r: float, t: float) -> np.ndarray:
    """exp(-i H t) via scipy's Pade-based expm, independent of the kernel."""
    h = np.array([[1j * r, 1.0], [1.0, -1j * r]], dtype=complex)
    return scipy.linalg.expm(-1j * t * h)


def _mp_kernel(r, t):
    """(c, s) at the working precision of the caller's mpmath context."""
    h_sq = (1 - r) * (1 + r)
    if h_sq > 0:
        h = mpmath.sqrt(h_sq)
        return mpmath.cos(h * t), mpmath.sin(h * t) / h
    if h_sq < 0:
        kappa = mpmath.sqrt(-h_sq)
        return mpmath.cosh(kappa * t), mpmath.sinh(kappa * t) / kappa
    return mpmath.mpf(1), t


def mp_observables(r: float, t: float) -> tuple[float, float, float, float]:
    """(p0, p1, p2, postselected population) from the unscaled closed forms
    at 60 digits; mpmath's exponent range does not overflow."""
    with mpmath.workdps(60):
        r, t = mpmath.mpf(r), mpmath.mpf(t)
        c, s = _mp_kernel(r, t)
        v00, rs = c + r * s, abs(r * s)
        sigma_plus = mpmath.sqrt(1 + rs * rs) + rs
        p0, p1 = (v00 / sigma_plus) ** 2, (s / sigma_plus) ** 2
        post = v00**2 / (v00**2 + s**2)
        return float(p0), float(p1), float(1 - p0 - p1), float(post)


def mp_evolution(r: float, t: float) -> np.ndarray:
    """V = c.1 - i.s.H from the unscaled closed forms; c - r.s cancels to
    ~1/(4r^2) of c, so the precision grows with r. Entries past the float
    range read +-inf."""
    with mpmath.workdps(60 + 2 * max(0, int(math.log10(max(r, 1.0))))):
        r, t = mpmath.mpf(r), mpmath.mpf(t)
        c, s = _mp_kernel(r, t)
        off = complex(0.0, -float(s))
        return np.array([[float(c + r * s), off], [off, float(c - r * s)]])


def brute_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values (descending) from the Gram matrix eigenvalues."""
    eigs = np.linalg.eigvalsh(m.conj().T @ m)
    eigs = np.clip(eigs, 0.0, None)
    return np.sqrt(eigs[::-1])


def finite_floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def complex_matrices(draw, n: int, bound: float = 2.0) -> np.ndarray:
    entries = draw(
        st.lists(
            st.tuples(finite_floats(-bound, bound), finite_floats(-bound, bound)),
            min_size=n * n,
            max_size=n * n,
        )
    )
    flat = np.array([re + 1j * im for re, im in entries], dtype=complex)
    return flat.reshape(n, n)


def pt_params(r_max: float = 2.0, t_max: float = 10.0) -> st.SearchStrategy[PTParams]:
    return st.builds(
        PTParams, r=finite_floats(0.0, r_max), t=finite_floats(0.0, t_max)
    )
