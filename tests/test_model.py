"""Closed-form PT-symmetric dynamics against series, SVD and mpmath oracles.

Frozen constants were produced by the independent oracles (scipy expm, brute
Gram-eigenvalue SVD) before the closed forms were compared against them.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    I2,
    SIGMA_X,
    SIGMA_Z,
    finite_floats,
    mp_evolution,
    mp_observables,
    pt_params,
    series_evolution,
)
from ptqsim import dilation, model
from ptqsim.linalg import expm_taylor, populations, svd2
from ptqsim.model import (
    Angles,
    LambdaTooSmall,
    PTParams,
    angles,
    evolution,
    hamiltonian,
    kernel,
    postselected_population,
    qutrit_populations,
    qutrit_populations_array,
    rescaled_evolution,
    return_probability,
    singular_values,
)

# (kappa + r)^2 / ((kappa + r)^2 + 1) at r = 1.2, the broken-phase limit of
# the conditioned population, frozen from direct evaluation
BROKEN_ASYMPTOTE = 0.7763853991962832

# r = 1 -+ 10^-k, where the kernel's closed forms approach 0/0
NEAR_EP = st.builds(
    lambda k, sign: 1.0 + sign * 10.0**-k, st.integers(1, 16), st.sampled_from((-1.0, 1.0))
)

# the deep broken phase, where cosh and (r s)^2 overflow unless scaled; t = 1e6
# next to r = 1, where any series window in r alone is 2e-5 off; r or t at
# the top of the float range; and r >> 1, where V11 = c - r.s cancels
PINNED_POINTS = [
    (2.0, 400.0),
    (1.5, 1000.0),
    (1.0 - 1e-9, 1e6),
    (1.0 + 1e-9, 1e6),
    (1.0, 1e300),
    (1e200, 1.0),
    (1e10, 1e-8),
    (1e10, 1000.0),
    (1e300, 1e-297),
    (1e200, 5e-198),
    (1e300, 1e-296),
]

# 4 ulp of unit mass
UNIT_MASS_TOL = 4.0 * 2.0**-52


def oracle_tol(t: float) -> float:
    """Rounding h.t costs ~eps.t in the phase, so the bound grows with t."""
    return 1e-14 * max(1.0, t)


def half_rx(phi: float) -> np.ndarray:
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def test_params_validation():
    with pytest.raises(ValueError):
        PTParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        PTParams(0.5, -1.0)
    with pytest.raises(ValueError):
        PTParams(float("nan"), 1.0)


def test_hamiltonian_examples():
    assert np.allclose(hamiltonian(0.0), SIGMA_X, atol=1e-15)
    assert np.allclose(
        hamiltonian(1.0), np.array([[1j, 1], [1, -1j]]), atol=1e-15
    )
    assert np.allclose(
        hamiltonian(0.5), np.array([[0.5j, 1], [1, -0.5j]]), atol=1e-15
    )
    with pytest.raises(ValueError):
        hamiltonian(float("inf"))


@given(finite_floats(0.0, 3.0))
def test_pt_symmetry_holds_for_all_r(r):
    h = hamiltonian(r)
    assert np.max(np.abs(SIGMA_X @ h.conj() @ SIGMA_X - h)) <= 1e-10


@pytest.mark.parametrize("r", [1.0 - 1e-12, 1e200])
def test_eigenvalues_match_mpmath(r):
    # H has eigenvalues +-h below r = 1 and +-i.h above: h = sqrt(|1 - r^2|) is
    # the root `kernel` reads
    with mpmath.workdps(60):
        h = float(mpmath.sqrt(abs(1 - mpmath.mpf(r) ** 2)))
    assert abs(model._root(r) - h) <= 4e-16 * h


def test_kernel_hermitian_limit():
    k = kernel(PTParams(0.0, 1.3))
    assert k.c == pytest.approx(math.cos(1.3), abs=1e-15)
    assert k.s == pytest.approx(math.sin(1.3), abs=1e-15)
    assert k.a == 1.0


def test_kernel_exceptional_point():
    k = kernel(PTParams(1.0, 2.0))
    assert k.c == pytest.approx(1.0, abs=1e-15)
    assert k.s == pytest.approx(2.0, abs=1e-15)
    assert k.a == pytest.approx(math.sqrt(5.0), abs=1e-15)
    # V(1, 2) = [[3, -2i], [-2i, -1]]; cross-check against the series oracle
    v = evolution(PTParams(1.0, 2.0))
    assert np.max(np.abs(v - np.array([[3, -2j], [-2j, -1]]))) < 1e-14
    assert np.max(np.abs(v - series_evolution(1.0, 2.0))) < 1e-12


def test_kernel_broken_phase():
    k = kernel(PTParams(1.2, 1.0))
    # frozen from cosh/sinh continuation, cross-checked via the series oracle
    assert k.c == pytest.approx(1.2281859119249139, abs=1e-12)
    assert k.s == pytest.approx(1.0749636719557638, abs=1e-12)
    v = evolution(PTParams(1.2, 1.0))
    assert np.max(np.abs(v - series_evolution(1.2, 1.0))) < 1e-12


@given(pt_params(r_max=1.5, t_max=3.0))
@settings(deadline=None)
def test_kernel_identity_moderate_domain(p):
    k = kernel(p)
    h_sq = (1.0 - p.r) * (1.0 + p.r)
    assert abs(k.c * k.c + h_sq * k.s * k.s - 1.0) < 1e-10


@given(pt_params())
@settings(deadline=None)
def test_kernel_identity_full_domain_relative(p):
    # c and h^2 s^2 reach ~1e14 at (r=2, t=10); the identity can only hold
    # relative to the size of the cancelling terms there
    k = kernel(p)
    h_sq = (1.0 - p.r) * (1.0 + p.r)
    scale = max(1.0, k.c * k.c, abs(h_sq) * k.s * k.s)
    assert abs(k.c * k.c + h_sq * k.s * k.s - 1.0) < 1e-9 * scale


def test_evolution_examples():
    v = evolution(PTParams(0.0, math.pi / 2.0))
    assert np.max(np.abs(v - (-1j * SIGMA_X))) < 1e-15
    assert np.array_equal(evolution(PTParams(0.7, 0.0)), I2)
    v = evolution(PTParams(0.5, 1.0))
    assert np.max(np.abs(v - series_evolution(0.5, 1.0))) < 1e-10
    h = hamiltonian(0.5)
    assert np.max(np.abs(v - expm_taylor(-1j * h))) < 1e-10


@given(pt_params())
@settings(deadline=None, max_examples=200)
def test_evolution_matches_taylor_oracle(p):
    v = evolution(p)
    ref = expm_taylor(-1j * hamiltonian(p.r) * p.t)
    err = np.abs(v - ref)
    scale = np.maximum(1.0, np.abs(ref))
    assert float(np.max(err / scale)) < 1e-9


def test_singular_value_examples():
    for t in (0.0, 0.7, 3.1):
        sv = singular_values(PTParams(0.0, t))
        assert sv.sigma_plus == 1.0 and sv.sigma_minus == 1.0 and sv.sigma_minus / sv.sigma_plus == 1.0
    sv = singular_values(PTParams(1.0, 1.0))
    assert sv.sigma_plus == pytest.approx(2.414213562373095, abs=1e-12)
    assert sv.sigma_minus == pytest.approx(0.4142135623730951, abs=1e-12)
    sv = singular_values(PTParams(0.5, 2.0))
    oracle = svd2(evolution(PTParams(0.5, 2.0)))
    assert abs(sv.sigma_plus - oracle.sigma_plus) < 1e-10
    assert abs(sv.sigma_minus - oracle.sigma_minus) < 1e-10


@given(pt_params())
@settings(deadline=None, max_examples=200)
def test_singular_values_match_svd2(p):
    sv = singular_values(p)
    oracle = svd2(evolution(p))
    # the rounded matrix entries only pin its singular values to ~eps.sigma+,
    # so both comparisons carry the same scale factor
    scale = max(1.0, sv.sigma_plus)
    assert abs(sv.sigma_plus - oracle.sigma_plus) < 1e-9 * scale
    assert abs(sv.sigma_minus - oracle.sigma_minus) < 1e-9 * scale
    assert abs(sv.sigma_plus * sv.sigma_minus - 1.0) < 1e-12


def test_angles_hermitian_limit():
    ang = angles(PTParams(0.0, 0.3))
    assert ang.phi == pytest.approx(0.3, abs=1e-15)
    assert ang.theta == 0.0


def test_angles_unbroken_value():
    ang = angles(PTParams(0.5, 1.0))
    # frozen from atan2(sin(h)/h, cos(h)) at h = sqrt(0.75)
    assert ang.phi == pytest.approx(0.9359688619591674, abs=1e-12)


def test_angles_broken_phase_limit():
    sv = singular_values(PTParams(1.2, 20.0))
    assert sv.sigma_minus / sv.sigma_plus < 1e-5
    ang = angles(PTParams(1.2, 20.0))
    assert abs(ang.theta + math.pi) < 1e-4


@given(pt_params())
@settings(deadline=None, max_examples=200)
def test_angles_reconstruct_evolution(p):
    # V = Rx(phi) . (a.1 + rs.sigma_z) . Rx(phi) with half-angle Rx
    k = kernel(p)
    ang = angles(p)
    middle = k.a * I2 + p.r * k.s * SIGMA_Z
    recon = half_rx(ang.phi) @ middle @ half_rx(ang.phi)
    v = evolution(p)
    scale = np.maximum(1.0, np.abs(v))
    assert float(np.max(np.abs(recon - v) / scale)) < 1e-9


def test_return_probability_examples():
    for t in (0.0, 0.4, math.pi / 3.0, 2.9):
        assert return_probability(PTParams(0.0, t)) == pytest.approx(
            math.cos(t) ** 2, abs=1e-12
        )
    assert return_probability(PTParams(0.0, math.pi / 3.0)) == pytest.approx(
        0.25, abs=1e-12
    )
    assert return_probability(PTParams(1.7, 0.0)) == 1.0
    p = PTParams(1.2, 3.0)
    k = kernel(p)
    sv = singular_values(p)
    direct = ((k.c + p.r * k.s) / sv.sigma_plus) ** 2
    assert return_probability(p) == pytest.approx(direct, abs=1e-15)


def test_return_probability_matches_gate_product():
    from ptqsim.dilation import qutrit_unitary

    p = PTParams(1.2, 3.0)
    amp = qutrit_unitary(p)[0, 0]
    assert return_probability(p) == pytest.approx(abs(amp) ** 2, abs=1e-12)


@given(pt_params())
@settings(deadline=None)
def test_return_probability_in_unit_interval(p):
    v = return_probability(p)
    assert 0.0 <= v <= 1.0


def test_postselected_population_examples():
    for t in (0.3, 1.1, 2.0):
        assert postselected_population(PTParams(0.0, t)) == pytest.approx(
            math.cos(t) ** 2, abs=1e-12
        )
    # V(1,1) = [[2, -i], [-i, 0]]: 4 / (4 + 1)
    assert postselected_population(PTParams(1.0, 1.0)) == pytest.approx(0.8, abs=1e-14)
    w = series_evolution(1.0, 1.0)
    num = abs(w[0, 0]) ** 2
    assert postselected_population(PTParams(1.0, 1.0)) == pytest.approx(
        num / (num + abs(w[1, 0]) ** 2), abs=1e-12
    )


def test_postselected_population_broken_asymptote():
    r = 1.2
    kappa = math.sqrt(r * r - 1.0)
    formula = (kappa + r) ** 2 / ((kappa + r) ** 2 + 1.0)
    assert formula == pytest.approx(BROKEN_ASYMPTOTE, abs=1e-15)
    assert abs(postselected_population(PTParams(r, 20.0)) - BROKEN_ASYMPTOTE) < 1e-3


def test_rescaled_evolution_examples():
    p = PTParams(0.0, 1.0)
    assert np.array_equal(rescaled_evolution(p, 1.0), evolution(p))
    p = PTParams(1.0, 1.0)
    out = rescaled_evolution(p, math.sqrt(2.0) + 1.0)
    assert svd2(out).sigma_plus == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(LambdaTooSmall):
        rescaled_evolution(p, 1.0)


def test_rescaling_invariance_of_conditioned_ratio():
    def ratio(m: np.ndarray) -> float:
        w = m @ np.array([1.0, 0.0])
        num = abs(w[0]) ** 2
        return num / (num + abs(w[1]) ** 2)

    for p in (PTParams(0.5, 1.0), PTParams(1.2, 2.0), PTParams(1.0, 3.0)):
        lam = singular_values(p).sigma_plus
        values = [ratio(rescaled_evolution(p, scale * lam)) for scale in (1, 2, 10)]
        assert max(values) - min(values) < 1e-12
        assert abs(values[0] - postselected_population(p)) < 1e-12


def test_continuity_across_exceptional_point():
    for t in (0.1, 1.0, 3.0):
        ref_k = kernel(PTParams(1.0, t))
        ref_sv = singular_values(PTParams(1.0, t))
        ref_ang = angles(PTParams(1.0, t))
        ref_p = return_probability(PTParams(1.0, t))
        for r in (1.0 - 1e-6, 1.0 + 1e-6):
            k = kernel(PTParams(r, t))
            sv = singular_values(PTParams(r, t))
            ang = angles(PTParams(r, t))
            assert abs(k.c - ref_k.c) < 1e-4
            assert abs(k.s - ref_k.s) < 1e-4
            assert abs(k.a - ref_k.a) < 1e-4
            assert abs(sv.sigma_plus - ref_sv.sigma_plus) < 1e-4
            assert abs(sv.sigma_minus - ref_sv.sigma_minus) < 1e-4
            assert abs(ang.phi - ref_ang.phi) < 1e-4
            assert abs(ang.theta - ref_ang.theta) < 1e-4
            assert abs(return_probability(PTParams(r, t)) - ref_p) < 1e-4


def test_angles_is_plain_record():
    ang = Angles(phi=0.25, theta=-0.5)
    assert ang.phi == 0.25 and ang.theta == -0.5


def array_populations(r: float, t: float) -> np.ndarray:
    """The populations at one point from the array path."""
    return qutrit_populations_array(np.array([r]), np.array([t]))[0]


# every branch of the kernel, its r = 1 edge, both float-range ends, and
# points where g = e^{-kappa t} underflows
DOMAIN_R = st.one_of(finite_floats(0.0, 3.0), finite_floats(0.0, math.inf), NEAR_EP, st.just(1.0))
DOMAIN_T = st.one_of(finite_floats(0.0, 10.0), finite_floats(0.0, math.inf))


@given(st.lists(st.tuples(DOMAIN_R, DOMAIN_T), min_size=1, max_size=40))
@settings(deadline=None, max_examples=300)
@pytest.mark.filterwarnings("error")
def test_populations_array_matches_scalar_bit_for_bit(points):
    # numpy warns where the scalar arithmetic overflows silently, and
    # np.where evaluates both choices of d: neither may warn
    points = points + PINNED_POINTS
    r, t = np.array(points).T
    want = np.array([qutrit_populations(PTParams(*p)) for p in points])
    assert qutrit_populations_array(r, t).tobytes() == want.tobytes()


@given(st.one_of(finite_floats(0.0, 10.0), NEAR_EP), finite_floats(0.0, 1e6))
@settings(deadline=None, max_examples=300)
def test_observables_match_mpmath(r, t):
    p = PTParams(r, t)
    *pops, post = mp_observables(r, t)
    assert abs(return_probability(p) - pops[0]) <= oracle_tol(t)
    assert np.max(np.abs(qutrit_populations(p) - pops)) <= oracle_tol(t)
    assert np.max(np.abs(array_populations(r, t) - pops)) <= oracle_tol(t)
    assert abs(postselected_population(p) - post) <= oracle_tol(t)


@given(st.one_of(finite_floats(0.0, 1e300), NEAR_EP), finite_floats(0.0, 1e300))
@settings(deadline=None, max_examples=300)
def test_observables_finite_over_whole_domain(r, t):
    p = PTParams(r, t)
    assert 0.0 <= return_probability(p) <= 1.0
    assert 0.0 <= postselected_population(p) <= 1.0
    pops = qutrit_populations(p)
    assert np.all((pops >= 0.0) & (pops <= 1.0))
    assert abs(float(pops.sum()) - 1.0) <= UNIT_MASS_TOL
    ang = angles(p)
    assert math.isfinite(ang.phi) and math.isfinite(ang.theta)
    assert len(dilation.qutrit_circuit(p)) == 3


@pytest.mark.parametrize(("r", "t"), PINNED_POINTS)
def test_observables_at_pinned_points(r, t):
    p = PTParams(r, t)
    *pops, post = mp_observables(r, t)
    # past the oracle domain only r = 1 is pinned, where no phase is rounded
    tol = oracle_tol(t) if t <= 1e6 else 1e-15
    assert abs(return_probability(p) - pops[0]) <= tol
    assert np.max(np.abs(qutrit_populations(p) - pops)) <= tol
    assert np.max(np.abs(array_populations(r, t) - pops)) <= tol
    assert abs(postselected_population(p) - post) <= tol
    k = kernel(p)
    assert not any(math.isnan(x) for x in (k.c, k.s, k.a))  # inf is allowed


@pytest.mark.parametrize(("r", "t"), PINNED_POINTS)
def test_evolution_at_pinned_points(r, t):
    # V11 reads -6.72e22 at (1e10, 1e-8) and -inf at (1e10, 1000), never 0 or
    # NaN. At (1e300, 1e-297) kappa t = 1000 puts g = e^{-kappa t} below the
    # float range, yet V01 = -9.85e133 i and V11 = -4.93e-167 are finite; at
    # (1e200, 5e-198) V11 = -3.51e-184 although g^2 underflows; at
    # (1e300, 1e-296) every entry is past the range
    v, want = evolution(PTParams(r, t)), mp_evolution(r, t)
    past_range = np.isinf(want)
    assert np.array_equal(v[past_range], want[past_range])
    finite = ~past_range
    assert np.all(np.abs(v[finite] - want[finite]) <= 1e-13 * np.abs(want[finite]))


@given(pt_params())
@settings(deadline=None, max_examples=200)
def test_qutrit_populations_match_gate_product(p):
    pops = qutrit_populations(p)
    assert np.max(np.abs(pops - populations(dilation.qutrit_unitary(p)[:, 0]))) < 1e-13
    assert abs(float(pops.sum()) - 1.0) <= UNIT_MASS_TOL
    assert float(pops.min()) >= 0.0


def test_one_kernel_evaluation_per_call(monkeypatch):
    calls = []
    real_kernel = model.kernel

    def counted(p):
        calls.append(p)
        return real_kernel(p)

    monkeypatch.setattr(model, "kernel", counted)
    monkeypatch.setattr(dilation, "kernel", counted)
    for p in (PTParams(0.5, 1.0), PTParams(1.5, 1.0)):
        entries = {
            "kernel": lambda: model.kernel(p),
            "evolution": lambda: evolution(p),
            "singular_values": lambda: singular_values(p),
            "angles": lambda: angles(p),
            "return_probability": lambda: return_probability(p),
            "qutrit_populations": lambda: qutrit_populations(p),
            "postselected_population": lambda: postselected_population(p),
            "rescaled_evolution": lambda: rescaled_evolution(p, 100.0),
            "qutrit_circuit": lambda: dilation.qutrit_circuit(p),
            "hamiltonian_shift_equivalence": lambda: (
                dilation.hamiltonian_shift_equivalence(p, 2.0)
            ),
        }
        for name, call in entries.items():
            calls.clear()
            call()
            assert calls == [p], name
