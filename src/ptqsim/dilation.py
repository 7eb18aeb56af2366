"""Unitary embeddings of non-unitary operators.

Two routes: the specialized three-rotation qutrit circuit whose upper 2x2
block is V/sigma_max, and a general completion of any n x n contraction to
an (n+m) x (n+m) unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, circuit_unitary, rx
from .linalg import dag, expm_taylor, is_unitary
from .model import PTParams, _angles, _postselected, hamiltonian, kernel

SIZE_CAP = 16


class DilationError(ValueError):
    pass


class NormTooLarge(DilationError):
    """Operator norm exceeds 1: not a contraction."""


class RankTooLarge(DilationError):
    """rank(1 - a^dag a) exceeds the number of ancilla dimensions."""


class Singular(DilationError):
    """The block must be invertible for this completion."""


class ZeroMatrix(DilationError):
    """No positive singular value to rescale by."""


class ShiftTooSmall(DilationError):
    """The damping shift leaves the evolution expanding."""


@dataclass(frozen=True, eq=False)
class Dilation:
    u: np.ndarray
    n: int
    m: int
    lam: float


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
    return Circuit((rx(0, 1, ang.phi - flip), rx(1, 2, ang.theta), rx(0, 1, ang.phi + flip)))


def qutrit_unitary(p: PTParams) -> np.ndarray:
    return circuit_unitary(qutrit_circuit(p))


def embed_check(u: np.ndarray, v: np.ndarray, lam: float, tol: float = 1e-10) -> bool:
    """True iff u is unitary and its top-left block equals v/lam, within tol."""
    if tol <= 0 or lam <= 0:
        raise ValueError("tol and lam must be positive")
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if not is_unitary(u, tol):
        return False
    n = v.shape[0]
    return float(np.max(np.abs(u[:n, :n] - v / lam))) <= tol


def rescale_to_contraction(a: np.ndarray) -> tuple[np.ndarray, float]:
    """(a / sigma_max, sigma_max) with sigma_max from the Gram spectrum."""
    a = np.asarray(a, dtype=complex)
    eigs = np.linalg.eigvalsh(dag(a) @ a)
    sigma_max = math.sqrt(max(float(eigs[-1]), 0.0))
    if sigma_max < 1e-14:
        raise ZeroMatrix("largest singular value below 1e-14")
    return a / sigma_max, sigma_max


def general_dilation(a: np.ndarray, m: int) -> Dilation:
    """Complete an invertible n x n contraction a to an (n+m) unitary
    [[a, b], [c, d]] with c built from the eigenbasis square root of
    1 - a^dag a and d from the whitening of c.a^-1."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n):
        raise ValueError("a must be square")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n + m > SIZE_CAP:
        raise ValueError(f"n + m exceeds the size cap {SIZE_CAP}")

    p = np.eye(n, dtype=complex) - dag(a) @ a
    evals, evecs = np.linalg.eigh(p)
    if float(evals[0]) < -1e-12:
        raise NormTooLarge(
            f"1 - a^dag a has eigenvalue {float(evals[0]):.3e}; "
            "operator norm exceeds 1"
        )
    evals = np.clip(evals, 0.0, None)
    rank = int(np.sum(evals > 1e-12))
    if rank > m:
        raise RankTooLarge(f"rank(1 - a^dag a) = {rank} exceeds m = {m}")
    if abs(np.linalg.det(a)) <= 1e-12:
        raise Singular("block is numerically singular")
    if m == 0:
        return Dilation(u=a.copy(), n=n, m=0, lam=1.0)

    # top k = min(n, m) eigenpairs carry all of the defect; extra ancilla
    # rows of c are zero
    k = min(n, m)
    order = np.argsort(evals)[::-1][:k]
    c_top = np.sqrt(evals[order])[:, None] * dag(evecs[:, order])
    c = np.vstack([c_top, np.zeros((m - k, n), dtype=complex)])

    ca = c @ np.linalg.inv(a)
    kk = ca @ dag(ca) + np.eye(m, dtype=complex)
    k_evals, k_evecs = np.linalg.eigh(kk)
    d = k_evecs @ np.diag(1.0 / np.sqrt(k_evals))
    b = -dag(np.linalg.inv(a)) @ dag(c) @ d
    u = np.block([[a, b], [c, d]])
    return Dilation(u=u, n=n, m=m, lam=1.0)


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
    shifted = hamiltonian(p.r) - 1j * mu * np.eye(2, dtype=complex)
    w = expm_taylor(-1j * shifted * p.t)
    num = abs(w[0, 0]) ** 2
    total = num + abs(w[1, 0]) ** 2
    if total == 0.0:
        raise DilationError(
            "the series-summed damped evolution underflows to 0 "
            f"at mu.t = {mu * p.t:.6g}"
        )
    return abs(num / total - _postselected(p.r, k))
