"""Closed-form dynamics of the PT-symmetric two-level system.

The Hamiltonian couples two levels with strength 1 and applies balanced
gain/loss of strength r. Everything downstream is a function of the kernel
(c, s) = (cos(ht), sin(ht)/h) with h^2 = 1 - r^2, continued analytically
through the exceptional point at r = 1. Observables are ratios, read from a
copy of the kernel scaled to stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_X, _finite


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


# smallest normal float, and the smallest g whose square is normal
_TINY = 2.0**-1022
_SQRT_TINY = 2.0**-511
_LN2 = math.log(2.0)


def _exp(y: float) -> float:
    """e^y, or inf where it overflows."""
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def _unscale(x: float, g: float, log_g: float) -> float:
    """x / g. Once g = e^{-kappa t} is subnormal or 0 it has lost its digits,
    and x is multiplied by 1/g = q^4 with q = e^{-log_g / 4}: the quarter is
    exact, and q stays finite wherever x / g can."""
    if g >= _TINY:
        return x / g
    if x == 0.0:
        return x
    q = _exp(-0.25 * log_g)
    return x * q * q * q * q


@dataclass(frozen=True)
class Kernel:
    """(c, s, a) = (gc, gs, ga) / g. The scale g = e^{log_g} is e^{-kappa t}
    past r = 1, a power of two at r = 1 and 1 below it, so the scaled values
    are finite everywhere; the unscaled ones are inf where they overflow."""

    g: float
    log_g: float
    gc: float
    gs: float
    ga: float

    c = property(lambda k: _unscale(k.gc, k.g, k.log_g))
    s = property(lambda k: _unscale(k.gs, k.g, k.log_g))
    a = property(lambda k: _unscale(k.ga, k.g, k.log_g))


@dataclass(frozen=True)
class SingularPair:
    sigma_plus: float
    sigma_minus: float


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = _finite(m, "m", (2, 2))
    transformed = SIGMA_X @ m.conj() @ SIGMA_X
    return float(np.max(np.abs(transformed - m))) <= tol


def _root(r: float) -> float:
    """sqrt(|1 - r^2|) with no cancellation near r = 1 and no overflow."""
    if r <= 1.0:
        return math.sqrt((1.0 - r) * (1.0 + r))
    return math.sqrt(r - 1.0) * math.sqrt(r + 1.0)


def eigenvalues(r: float) -> tuple[complex, complex]:
    """(+h, -h): real below r = 1, imaginary above."""
    if not r >= 0.0:
        raise ValueError("r must be nonnegative")
    if r == math.inf:
        raise ValueError("r must be finite")
    h = complex(_root(r)) if r <= 1.0 else 1j * _root(r)
    return (h, -h)


def kernel(p: PTParams) -> Kernel:
    """Analytic continuation of (cos(ht), sin(ht)/h) across r = 1.

    h^2 = (1 - r)(1 + r) has no cancellation, so the trig and hyperbolic forms
    hold right up to h = 0, where (c, s) = (1, t). Past r = 1, g = e^{-kappa t}
    makes g.cosh and g.sinh (1 + g^2)/2 and -expm1(-2 kappa t)/(2 kappa)."""
    r, t = p.r, p.t
    h = _root(r)
    if r < 1.0:
        g, log_g, c, s = 1.0, 0.0, math.cos(h * t), math.sin(h * t) / h
    elif r > 1.0:
        log_g = -h * t
        g = math.exp(log_g)
        c = 0.5 * (1.0 + g * g)
        s = -0.5 * math.expm1(-2.0 * (h * t)) / h
    else:
        # a normal power of two: exact, and keeps r.s below 4
        g = 0.5 ** min(max(math.frexp(t)[1], 0), 1022)
        log_g, c, s = math.log(g), g, t * g
    rs = r * s
    return Kernel(g, log_g, c, s, math.sqrt(g * g + rs * rs))


def _evolution(r: float, k: Kernel, scaled: bool = False) -> np.ndarray:
    """V, or its finite copy g.V when scaled.

    Past r = 2, c - r.s cancels as r grows; with kappa - r = -1/(kappa + r),
    g.V11 = g^2 (kappa + r)/(2 kappa) - 1/(2 kappa (kappa + r)) does not. The
    plain difference stays below r = 2, where this form cancels as kappa -> 0.
    """
    rs = r * k.gs
    plus, s, minus = k.gc + rs, k.gs, k.gc - rs
    if r > 2.0:
        kappa = _root(r)
        minus = k.g * k.g * (0.5 + 0.5 * r / kappa) - 0.5 / kappa / (kappa + r)
    if not scaled:
        if r > 2.0 and k.g < _SQRT_TINY:
            # g^2 underflows above: V11 = g (kappa + r)/(2 kappa) - b/g, with
            # log b = -log(2 kappa (kappa + r)) taken apart so it cannot overflow
            log_b = -(_LN2 + math.log(kappa) + math.log(r) + math.log1p(kappa / r))
            minus = k.g * (0.5 + 0.5 * r / kappa) - _exp(log_b - k.log_g)
        else:
            minus = _unscale(minus, k.g, k.log_g)
        plus, s = _unscale(plus, k.g, k.log_g), _unscale(s, k.g, k.log_g)
    return np.array([[plus, complex(0.0, -s)], [complex(0.0, -s), minus]])


def evolution(p: PTParams) -> np.ndarray:
    """c.1 - i.s.H: the time-evolution operator in closed form."""
    return _evolution(p.r, kernel(p))


def _singular_pair(r: float, k: Kernel) -> SingularPair:
    scaled = k.ga + abs(r * k.gs)
    sigma_plus, sigma_minus = _unscale(scaled, k.g, k.log_g), k.g / scaled
    return SingularPair(sigma_plus, sigma_minus)


def singular_values(p: PTParams) -> SingularPair:
    """sigma_pm = a -+ |r s|; their product is exactly 1 (det V = 1).

    The smaller value is computed as 1/sigma_plus because a^2 - (rs)^2 = 1
    identically and the direct difference cancels catastrophically when
    sigma_plus is large; sigma_plus is inf once it overflows.
    """
    return _singular_pair(p.r, kernel(p))


def _angles(r: float, k: Kernel) -> Angles:
    phi = math.atan2(k.gs, k.gc)
    sv = _singular_pair(r, k)
    theta = -2.0 * math.acos(min(max(sv.sigma_minus / sv.sigma_plus, 0.0), 1.0))
    return Angles(phi=phi, theta=theta)


def angles(p: PTParams) -> Angles:
    """phi is the unique branch with a.cos(phi) = c and a.sin(phi) = s."""
    return _angles(p.r, kernel(p))


def _weights(r, gc, gs, ga) -> tuple:
    """g^2 (|V00|^2, |V10|^2, 2|rs|.d) over floats or (N,) arrays: the leak
    into level 2 is sigma_plus^2 less the other two, with d = a - sign(rs).c
    from a^2 - c^2 = s^2 so it never cancels ([()] unwraps a 0-d result)."""
    rs = r * gs
    den = ga + abs(gc)
    d = np.where(gc * rs < 0.0, den, gs * gs / den)[()]
    v00 = gc + rs
    return v00 * v00, gs * gs, 2.0 * abs(rs) * d


def _populations(r, gc, gs, ga) -> tuple:
    # over the rounded sum, not sigma_plus^2: within 2 ulp of unit mass, not 5
    n0, n1, n2 = _weights(r, gc, gs, ga)
    total = n0 + n1 + n2
    return n0 / total, n1 / total, n2 / total


def qutrit_populations(p: PTParams) -> np.ndarray:
    """(p0, p1, p2) of the embedded qutrit evolution of |0>: |V00|^2 and
    |V10|^2 over sigma_plus^2, and the rest, which leaks into level 2. Each
    lies in [0, 1] and they sum to 1 within 2 ulp."""
    k = kernel(p)
    return np.array(_populations(p.r, k.gc, k.gs, k.ga))


def _libm(f, x: np.ndarray) -> np.ndarray:
    """f over x through the math module: numpy's vector cos, sin and exp can
    differ from libm in the last ulp."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def qutrit_populations_array(r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(N, 3) `qutrit_populations` over (N,) arrays of valid r and t, bit for
    bit: each branch of `kernel` runs on the points it applies to, in numpy
    with the transcendentals from libm, and `_weights` is shared."""
    g, gc, gs = np.ones(len(r)), np.empty(len(r)), np.empty(len(r))
    below, above = r < 1.0, r > 1.0
    at = ~(below | above)  # r = 1
    # h.t overflows to inf in the deep broken phase, as the scalar product does
    with np.errstate(over="ignore"):
        rb = r[below]
        h = np.sqrt((1.0 - rb) * (1.0 + rb))
        ht = h * t[below]
        gc[below], gs[below] = _libm(math.cos, ht), _libm(math.sin, ht) / h
        ra = r[above]
        h = np.sqrt(ra - 1.0) * np.sqrt(ra + 1.0)
        ht = h * t[above]
        decay = _libm(math.exp, -ht)
        g[above], gc[above] = decay, 0.5 * (1.0 + decay * decay)
        gs[above] = -0.5 * _libm(math.expm1, -2.0 * ht) / h
        g[at] = np.ldexp(1.0, -np.clip(np.frexp(t[at])[1], 0, 1022))
        gc[at], gs[at] = g[at], t[at] * g[at]
        rs = r * gs
        ga = np.sqrt(g * g + rs * rs)
    return np.stack(_populations(r, gc, gs, ga), axis=1)


def return_probability(p: PTParams) -> float:
    """|<0|U(t)|0>|^2 where the upper block of U is V/sigma_plus."""
    return float(qutrit_populations(p)[0])


def _postselected(r: float, k: Kernel) -> float:
    n0, n1, _ = _weights(r, k.gc, k.gs, k.ga)
    return float(n0 / (n0 + n1))


def postselected_population(p: PTParams) -> float:
    """|V00|^2 / (|V00|^2 + |V10|^2): conditioning removes any rescaling."""
    return _postselected(p.r, kernel(p))


def success_probability(p: PTParams, psi: np.ndarray) -> float:
    """<psi|V^dag V|psi> / sigma_plus^2 for a unit two-component psi."""
    psi = _finite(psi, "psi", (2,))
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
        raise ValueError("psi must be normalized")
    k = kernel(p)
    w = _evolution(p.r, k, scaled=True) @ psi
    return float(np.real(np.vdot(w, w)) / (k.ga + abs(p.r * k.gs)) ** 2)


def rescaled_evolution(p: PTParams, lam: float) -> np.ndarray:
    """V(t)/lam; only defined when the result is a contraction."""
    k = kernel(p)
    sigma_plus = _singular_pair(p.r, k).sigma_plus
    if not lam >= sigma_plus - 1e-12:
        raise LambdaTooSmall(
            f"lambda = {lam:.12g} is below the largest singular value "
            f"{sigma_plus:.12g}"
        )
    if lam == math.inf:
        raise ValueError("lambda must be finite")
    return _evolution(p.r, k) / lam
