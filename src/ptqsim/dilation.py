"""Unitary embeddings of non-unitary operators.

Two routes: the specialized three-rotation qutrit circuit whose upper 2x2
block is V/sigma_max, and a general completion of any finite n x n
contraction to an (n+m) x (n+m) unitary, read from one SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, circuit_unitary, rx
from .linalg import M, N, _finite, _integer, expm_taylor, is_unitary
from .model import PTParams, _angles, _postselected, hamiltonian, kernel

SIZE_CAP = 16


class DilationError(ValueError):
    pass


class NormTooLarge(DilationError):
    """Operator norm exceeds 1: not a contraction."""


class RankTooLarge(DilationError):
    """rank(1 - a^dag a) exceeds the number of ancilla dimensions."""


class ZeroMatrix(DilationError):
    """No positive singular value to rescale by."""


class ShiftTooSmall(DilationError):
    """The damping shift leaves the evolution expanding."""


@dataclass(frozen=True, eq=False)
class Dilation:
    u: np.ndarray


def qutrit_circuit(p: PTParams) -> Circuit:
    """Three X rotations whose product embeds V/sigma_max in the (0,1) block.

    The middle factor contributes a nonnegative relative weight between the
    two levels, so when r.s < 0 the outer angles each pick up a half-turn
    (phi - pi first, phi + pi last) to flip the weight's sign; the two extra
    spinor factors cancel and the block stays exact.
    """
    k = kernel(p)
    ang = _angles(p.r, k)
    flip = 0.0 if p.r * k.gs >= 0.0 else math.pi
    return (rx(0, 1, ang.phi - flip), rx(1, 2, ang.theta), rx(0, 1, ang.phi + flip))


def qutrit_unitary(p: PTParams) -> np.ndarray:
    return circuit_unitary(qutrit_circuit(p))


def embed_check(u: np.ndarray, v: np.ndarray, lam: float, tol: float = 1e-10) -> bool:
    """True iff u is unitary and its top-left block equals v/lam, within tol."""
    if not (tol > 0 and lam > 0):
        raise ValueError("tol and lam must be positive")
    u, v = _finite(u, "u", (N, N)), _finite(v, "v", (N, N))
    n = v.shape[0]
    if n > u.shape[0]:
        raise ValueError(f"v of shape {v.shape} is larger than u of shape {u.shape}")
    if not is_unitary(u, tol):
        return False
    return float(np.max(np.abs(u[:n, :n] - v / lam))) <= tol


def rescale_to_contraction(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(a / sigma_max, sigma_max) with sigma_max from LAPACK's SVD; sigma_max
    is inf where it overflows. Where the SVD overflows (to NaN if an entry's
    modulus does), both are read from a scaled by a power of two that brings
    every real and imaginary part below 1."""
    a = _finite(a, "a", (M, N))
    sigma_max = float(np.linalg.svd(a, compute_uv=False)[0])
    if sigma_max < 1e-14:
        raise ZeroMatrix("largest singular value below 1e-14")
    if not sigma_max < math.inf:
        e = math.frexp(np.max(np.abs([a.real, a.imag])))[1]
        a = a * math.ldexp(1.0, -e)
        sigma = float(np.linalg.svd(a, compute_uv=False)[0])
        # e <= 1024, and a float product overflows to inf without raising
        return a / sigma, sigma * 2.0 ** (e - 1) * 2.0
    return a / sigma_max, sigma_max


def general_dilation(a: np.ndarray, m: int) -> Dilation:
    """Complete an n x n contraction a = U.S.V^dag to the (n+m) unitary
    [[a, -U_K.D], [D.V_K^dag, S_K]] of Halmos (1950), with the identity on
    any further ancillas. K holds the k = min(n, m) smallest singular values
    and D = sqrt(1 - S_K^2); every singular value outside K must be 1 within
    the 1e-12 tolerance on 1 - s^2."""
    a = _finite(a, "a", (N, N))
    n, m = a.shape[0], _integer("m", m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n + m > SIZE_CAP:
        raise ValueError(f"n + m exceeds the size cap {SIZE_CAP}")

    left, sigma, right_dag = np.linalg.svd(a)
    # 1 - s^2 >= -1e-12, tested without squaring s, which may overflow; the
    # SVD reads NaN where an entry's modulus overflows, and fails the test
    if not sigma[0] <= math.sqrt(1.0 + 1e-12):
        raise NormTooLarge(f"largest singular value {sigma[0]:.6g} exceeds 1")
    defect = (1.0 - sigma) * (1.0 + sigma)
    rank = int(np.sum(defect > 1e-12))
    if rank > m:
        raise RankTooLarge(f"rank(1 - a^dag a) = {rank} exceeds m = {m}")

    k = min(n, m)
    d = np.sqrt(np.clip(defect[n - k :], 0.0, None))
    u = np.eye(n + m, dtype=complex)
    u[:n, :n] = a
    u[:n, n : n + k] = -left[:, n - k :] * d
    u[n : n + k, :n] = d[:, None] * right_dag[n - k :]
    u[n : n + k, n : n + k] = np.diag(sigma[n - k :])
    return Dilation(u=u)


def hamiltonian_shift_equivalence(p: PTParams, mu: float) -> float:
    """Max-abs gap between the postselected population computed from the
    damped generator H - i.mu (series-summed exponential) and the closed form.

    The shift multiplies V by exp(-mu t), which the conditional population
    cannot see; the gap is pure numerical error.
    """
    k = kernel(p)
    # log(exp(-mu t).sigma_plus), with sigma_plus = sigma_hat/g, holds where
    # sigma_plus overflows
    log_norm = math.log(k.ga + abs(p.r * k.gs)) - k.log_g - mu * p.t
    if not log_norm <= 1e-12:
        raise ShiftTooSmall(
            f"log(exp(-mu t).sigma_max) = {log_norm:.6g} exceeds 0; "
            "the shifted evolution is not a contraction"
        )
    # the damped generator's entries are t and at most (r + |mu|).t in modulus
    if not (p.r + abs(mu)) * p.t < math.inf:
        raise ValueError("(r + |mu|).t must be finite")
    shifted = hamiltonian(p.r) - 1j * mu * np.eye(2, dtype=complex)
    w = expm_taylor(-1j * shifted * p.t)
    # square the column over its largest modulus: |w|^2 may underflow where |w| does not
    column = np.abs(w[:, 0])
    largest = float(column.max())
    if largest == 0.0:
        # exp(-mu t).sigma_plus is representable, so the squarings lost the
        # rotation to roundoff; the generator's row sums are at most 1 + r + |mu|
        if log_norm > math.log(math.ulp(0.0)):
            raise ValueError(
                f"(1 + r + |mu|).t = {(1.0 + p.r + abs(mu)) * p.t:.6g} is beyond "
                "what the 30-term series resolves"
            )
        raise DilationError(
            "the series-summed damped evolution underflows to 0 "
            f"at mu.t = {mu * p.t:.6g}"
        )
    num, other = (column / largest) ** 2
    return abs(num / (num + other) - _postselected(p.r, k))
