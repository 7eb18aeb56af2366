"""Closed-form dynamics of the PT-symmetric two-level system.

The Hamiltonian couples two levels with strength 1 and applies balanced
gain/loss of strength r. Everything downstream is a function of the kernel
(c, s) = (cos(ht), sin(ht)/h) with h^2 = 1 - r^2, continued analytically
through the exceptional point at r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_X

# width of the crossover window where the trig/hyperbolic forms are 0/0
EP_WINDOW = 1e-8

_C_COEF = tuple(1.0 / math.factorial(2 * k) for k in range(5))
_S_COEF = tuple(1.0 / math.factorial(2 * k + 1) for k in range(5))


class LambdaTooSmall(ValueError):
    """Rescaling factor below the largest singular value."""


@dataclass(frozen=True)
class PTParams:
    r: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.t)):
            raise ValueError("r and t must be finite")
        if self.r < 0.0 or self.t < 0.0:
            raise ValueError("r and t must be nonnegative")


@dataclass(frozen=True)
class Kernel:
    h_sq: float
    c: float
    s: float
    a: float


@dataclass(frozen=True)
class SingularPair:
    sigma_plus: float
    sigma_minus: float
    ratio: float


@dataclass(frozen=True)
class Angles:
    phi: float
    theta: float


def hamiltonian(r: float) -> np.ndarray:
    """[[ir, 1], [1, -ir]]."""
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    return np.array([[1j * r, 1.0], [1.0, -1j * r]], dtype=complex)


def pt_symmetry_check(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff sigma_x . conj(m) . sigma_x == m within tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=complex)
    transformed = SIGMA_X @ m.conj() @ SIGMA_X
    return float(np.max(np.abs(transformed - m))) <= tol


def eigenvalues(r: float) -> tuple[complex, complex]:
    """(+h, -h): real below r = 1, imaginary above."""
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    if r <= 1.0:
        h = complex(math.sqrt(1.0 - r * r))
    else:
        h = 1j * math.sqrt(r * r - 1.0)
    return (h, -h)


def kernel(p: PTParams) -> Kernel:
    """Analytic continuation of (cos(ht), sin(ht)/h) across r = 1.

    Near the crossover both closed forms are 0/0 in h, so a short Taylor
    series in h^2 takes over; a = sqrt(1 + (r s)^2) is exact in all branches.
    """
    r, t = p.r, p.t
    x = (1.0 - r) * (1.0 + r)  # h^2, computed without cancellation near r = 1
    if abs(1.0 - r) <= EP_WINDOW:
        t_sq = t * t
        powers = (1.0, t_sq, t_sq * t_sq, t_sq * t_sq * t_sq, t_sq * t_sq * t_sq * t_sq)
        c = 0.0
        s = 0.0
        for k in range(4, -1, -1):
            c = c * (-x) + powers[k] * _C_COEF[k]
            s = s * (-x) + powers[k] * _S_COEF[k]
        s *= t
    elif x > 0.0:
        h = math.sqrt(x)
        c = math.cos(h * t)
        s = math.sin(h * t) / h
    else:
        kappa = math.sqrt(-x)
        c = math.cosh(kappa * t)
        s = math.sinh(kappa * t) / kappa
    rs = r * s
    a = math.sqrt(1.0 + rs * rs)
    return Kernel(h_sq=x, c=c, s=s, a=a)


def evolution(p: PTParams) -> np.ndarray:
    """c.1 - i.s.H: the time-evolution operator in closed form."""
    k = kernel(p)
    rs = p.r * k.s
    return np.array(
        [[k.c + rs, -1j * k.s], [-1j * k.s, k.c - rs]], dtype=complex
    )


def _singular_pair(r: float, k: Kernel) -> SingularPair:
    sigma_plus = k.a + abs(r * k.s)
    sigma_minus = 1.0 / sigma_plus
    return SingularPair(
        sigma_plus=sigma_plus,
        sigma_minus=sigma_minus,
        ratio=sigma_minus / sigma_plus,
    )


def singular_values(p: PTParams) -> SingularPair:
    """sigma_pm = a -+ |r s|; their product is exactly 1 (det V = 1).

    The smaller value is computed as 1/sigma_plus because a^2 - (rs)^2 = 1
    identically and the direct difference cancels catastrophically when
    sigma_plus is large.
    """
    return _singular_pair(p.r, kernel(p))


def _angles(r: float, k: Kernel) -> Angles:
    phi = math.atan2(k.s, k.c)
    ratio = _singular_pair(r, k).ratio
    theta = -2.0 * math.acos(min(max(ratio, 0.0), 1.0))
    return Angles(phi=phi, theta=theta)


def angles(p: PTParams) -> Angles:
    """phi is the unique branch with a.cos(phi) = c and a.sin(phi) = s."""
    return _angles(p.r, kernel(p))


def return_probability(p: PTParams) -> float:
    """|<0|U(t)|0>|^2 where the upper block of U is V/sigma_plus."""
    k = kernel(p)
    amp = (k.c + p.r * k.s) / _singular_pair(p.r, k).sigma_plus
    return min(amp * amp, 1.0)


def postselected_population(p: PTParams) -> float:
    """|V00|^2 / (|V00|^2 + |V10|^2): conditioning removes any rescaling."""
    k = kernel(p)
    v00 = k.c + p.r * k.s
    num = v00 * v00
    return num / (num + k.s * k.s)


def success_probability(p: PTParams, psi: np.ndarray) -> float:
    """<psi|V^dag V|psi> / sigma_plus^2 for a unit two-component psi."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("psi must be a 2-vector")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi must be normalized")
    sv = singular_values(p)
    w = evolution(p) @ psi
    return float(np.real(np.vdot(w, w)) / (sv.sigma_plus * sv.sigma_plus))


def rescaled_evolution(p: PTParams, lam: float) -> np.ndarray:
    """V(t)/lam; only defined when the result is a contraction."""
    sv = singular_values(p)
    if lam < sv.sigma_plus - 1e-12:
        raise LambdaTooSmall(
            f"lambda = {lam:.12g} is below the largest singular value "
            f"{sv.sigma_plus:.12g}"
        )
    return evolution(p) / lam
