"""Dense 2x2/3x3 algebra: products, unitarity, closed-form SVD, and the
Taylor matrix exponential used as an independent oracle."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    I2,
    I3,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    brute_singular_values,
    complex_matrices,
    ket,
    series_evolution,
)
from ptqsim.linalg import (
    dag,
    expm_taylor,
    is_unitary,
    populations,
    svd2,
)

# e^{-iHt} at the r=1, t=1 crossover: c=1, s=1, so V = [[2, -i], [-i, 0]]
V_EP = np.array([[2.0, -1.0j], [-1.0j, 0.0]], dtype=complex)


def test_is_unitary_examples():
    assert is_unitary(I3, tol=1e-12)
    assert not is_unitary(np.diag([1.0, 1.0, 2.0]), tol=1e-12)
    c, s = math.cos(0.35), math.sin(0.35)
    rx12 = np.array([[1, 0, 0], [0, c, -1j * s], [0, -1j * s, c]], dtype=complex)
    assert is_unitary(rx12, tol=1e-12)
    with pytest.raises(ValueError):
        is_unitary(I3, tol=0.0)


def test_is_unitary_past_the_float_range():
    # m^dag m overflows: far from the identity, but within an infinite tol
    for m in (1e300 * I3, np.full((3, 3), np.finfo(float).max * (1 + 1j))):
        assert not is_unitary(m)
        assert is_unitary(m, math.inf)


def test_populations_examples():
    assert np.allclose(populations(ket(0)), [1, 0, 0], atol=1e-15)
    plus = (ket(0) + ket(2)) / math.sqrt(2.0)
    assert np.allclose(populations(plus), [0.5, 0, 0.5], atol=1e-15)


def test_populations_sum_after_evolution():
    from ptqsim.dilation import qutrit_unitary
    from ptqsim.model import PTParams

    pops = populations(qutrit_unitary(PTParams(0.5, 1.0)) @ ket(0))
    assert abs(float(pops.sum()) - 1.0) < 1e-12


def test_svd2_identity_and_diagonal():
    res = svd2(I2)
    assert res.sigma_plus == pytest.approx(1.0, abs=1e-15)
    assert res.sigma_minus == pytest.approx(1.0, abs=1e-15)
    res = svd2(np.diag([3.0, 0.0]).astype(complex))
    assert res.sigma_plus == pytest.approx(3.0, abs=1e-14)
    assert res.sigma_minus == pytest.approx(0.0, abs=1e-14)
    recon = res.left @ np.diag([res.sigma_plus, res.sigma_minus]) @ dag(res.right)
    assert np.max(np.abs(recon - np.diag([3.0, 0.0]))) < 1e-12


def test_svd2_exceptional_point_evolution():
    # frozen from the brute-force Gram-eigenvalue oracle on V_EP: sqrt(2) +- 1
    assert np.max(np.abs(V_EP - series_evolution(1.0, 1.0))) < 1e-12
    res = svd2(V_EP)
    assert res.sigma_plus == pytest.approx(2.414213562373095, abs=1e-12)
    assert res.sigma_minus == pytest.approx(0.4142135623730951, abs=1e-12)
    brute = brute_singular_values(V_EP)
    assert abs(res.sigma_plus - brute[0]) < 1e-12
    assert abs(res.sigma_minus - brute[1]) < 1e-12


def test_svd2_zero_matrix():
    res = svd2(np.zeros((2, 2), dtype=complex))
    assert res.sigma_plus == 0.0 and res.sigma_minus == 0.0
    assert is_unitary(res.left, 1e-12) and is_unitary(res.right, 1e-12)


@pytest.mark.filterwarnings("error")
def test_svd2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        svd2(I3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            svd2(np.array([[1.0, bad], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0, 0], [3.3e-111j, 3.3e-111j]]),
        np.array([[1.0, 2.0j], [-3.0 + 0.5j, 4.0]]) * 1e-150,
        np.array([[1.0, 2.0j], [-3.0 + 0.5j, 4.0]]) * 1e150,
    ],
)
def test_svd2_extreme_scales(m):
    # the Gram matrix of these underflows or overflows without rescaling
    res = svd2(m)
    assert np.all(np.isfinite(res.left)) and np.all(np.isfinite(res.right))
    assert is_unitary(res.left, 1e-12) and is_unitary(res.right, 1e-12)
    recon = res.left @ np.diag([res.sigma_plus, res.sigma_minus]) @ dag(res.right)
    assert np.max(np.abs(recon - m)) < 1e-12 * np.max(np.abs(m))


def test_svd2_reconstruction_bulk():
    # 1000 seeded draws with entries in [-2, 2]^2
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = rng.uniform(-2, 2, (2, 2)) + 1j * rng.uniform(-2, 2, (2, 2))
        res = svd2(m)
        recon = res.left @ np.diag([res.sigma_plus, res.sigma_minus]) @ dag(res.right)
        assert np.max(np.abs(recon - m)) < 1e-12


@given(complex_matrices(2))
@settings(deadline=None)
def test_svd2_matches_brute_force(m):
    res = svd2(m)
    assert res.sigma_plus >= res.sigma_minus >= 0.0
    brute = brute_singular_values(m)
    assert abs(res.sigma_plus - brute[0]) < 1e-10 * max(1.0, brute[0])
    # eigvalsh noise ~eps.|G| is sqrt-amplified near zero, so compare squares
    assert abs(res.sigma_minus**2 - brute[1] ** 2) < 1e-12 * max(1.0, brute[0] ** 2)
    assert is_unitary(res.left, 1e-10)
    assert is_unitary(res.right, 1e-10)
    recon = res.left @ np.diag([res.sigma_plus, res.sigma_minus]) @ dag(res.right)
    assert np.max(np.abs(recon - m)) < 1e-12


@given(complex_matrices(2), st.integers(-1000, 1000))
@settings(deadline=None)
def test_svd2_scale_covariance(m, k):
    # past 2^+-512 the Gram matrix of m.2^k leaves the float range
    biggest = float(np.max(np.abs(m)))
    assume(biggest > 0.0)
    # real and imaginary parts apart: complex division by a subnormal overflows
    m = m.real / biggest + 1j * (m.imag / biggest)
    scale = 2.0**k
    res = svd2(m * scale)
    plus, minus = res.sigma_plus / scale, res.sigma_minus / scale
    brute = brute_singular_values(m)
    assert abs(plus - brute[0]) <= 1e-12 * brute[0]
    # eigvalsh noise ~eps.|G| is sqrt-amplified near zero, so compare squares
    assert abs(minus**2 - brute[1] ** 2) <= 1e-12 * brute[0] ** 2


def test_expm_taylor_matches_scipy():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(25):
            m = rng.uniform(-2, 2, (n, n)) + 1j * rng.uniform(-2, 2, (n, n))
            ours = expm_taylor(m)
            ref = scipy.linalg.expm(m)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale


def test_expm_taylor_of_zero():
    assert np.array_equal(expm_taylor(np.zeros((3, 3))), I3)


def test_pauli_algebra_sanity():
    # sigma_x.sigma_y = i.sigma_z etc. guards against transcription slips
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
