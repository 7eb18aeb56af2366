"""Unitary embeddings: the three-rotation qutrit construction and the
general contraction completion, both checked against independent products."""

import math

import numpy as np
import pytest

from conftest import I2, I3, SIGMA_X, series_evolution
from ptqsim.cli import _haar_unitary
from ptqsim.dilation import (
    Dilation,
    DilationError,
    NormTooLarge,
    RankTooLarge,
    ShiftTooSmall,
    embed_check,
    general_dilation,
    hamiltonian_shift_equivalence,
    qutrit_circuit,
    qutrit_unitary,
)
from ptqsim.gates import GateKind, gate_matrix, rx
from ptqsim.linalg import dag, is_unitary
from ptqsim.model import (
    PTParams,
    evolution,
    singular_values,
)

SIGMA_PLUS_08_2 = 2.8378206493124876  # frozen sigma_+ at (r=0.8, t=2)


def test_qutrit_circuit_hermitian_limit():
    c = qutrit_circuit(PTParams(0.0, 0.4))
    kinds = [(g.kind, g.subspace) for g in c]
    assert kinds == [
        (GateKind.RX, (0, 1)),
        (GateKind.RX, (1, 2)),
        (GateKind.RX, (0, 1)),
    ]
    got = [g.angles[0] for g in c]
    assert got == pytest.approx([0.4, 0.0, 0.4], abs=1e-15)


def test_qutrit_circuit_zero_time():
    for r in (0.0, 0.3, 1.0, 1.7):
        assert [g.angles[0] for g in qutrit_circuit(PTParams(r, 0.0))] == [0, 0, 0]


def test_qutrit_circuit_exceptional_point_angles():
    c = qutrit_circuit(PTParams(1.0, 1.0))
    phi = c[0].angles[0]
    theta = c[1].angles[0]
    assert phi == pytest.approx(math.pi / 4.0, abs=1e-15)
    # frozen: -2 arccos((sqrt(2)-1)/(sqrt(2)+1)) from the svd2 oracle route
    assert theta == pytest.approx(-2.796740658164095, abs=1e-12)
    assert c[2].angles[0] == phi


def test_qutrit_unitary_identity_and_double_rotation():
    assert np.max(np.abs(qutrit_unitary(PTParams(1.4, 0.0)) - I3)) < 1e-15
    for t in (0.3, 1.0, 2.2):
        ref = gate_matrix(rx(0, 1, 2.0 * t))
        assert np.max(np.abs(qutrit_unitary(PTParams(0.0, t)) - ref)) < 1e-12


def test_qutrit_unitary_block_against_series():
    u = qutrit_unitary(PTParams(0.8, 2.0))
    sv = singular_values(PTParams(0.8, 2.0))
    assert sv.sigma_plus == pytest.approx(SIGMA_PLUS_08_2, abs=1e-12)
    block = series_evolution(0.8, 2.0) / SIGMA_PLUS_08_2
    assert np.max(np.abs(u[:2, :2] - block)) < 1e-10
    assert is_unitary(u, 1e-12)


def test_embed_check_examples():
    assert embed_check(I3, I2, 1.0)
    assert not embed_check(I3, SIGMA_X, 1.0)
    assert not embed_check(np.diag([1.0, 1.0, 2.0]), I2, 1.0)  # not unitary
    with pytest.raises(ValueError):
        embed_check(I3, I2, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        embed_check(I3, I2, 0.0)
    # a v larger than u is refused before u is tested for unitarity
    for u in (I2, 2.0 * I2):
        with pytest.raises(ValueError, match=r"v of shape \(3, 3\) is larger than u of shape \(2, 2\)"):
            embed_check(u, I3, 1.0)


def test_embed_check_past_the_float_range():
    # u^dag u or v / lam overflows: far from the block
    assert not embed_check(1e200 * I3, I2, 1.0)
    assert not embed_check(I3, I2, 5e-324)
    assert not embed_check(I3, 1e300 * I2, 1e-300)
    assert embed_check(I3, I2, 5e-324, tol=math.inf)
    # a subnormal lam whose reciprocal overflows still divides exactly
    assert embed_check(I3, 1e-310 * I2, 1e-310)
    swap = np.block([[np.zeros((2, 2)), I2], [I2, np.zeros((2, 2))]])
    assert embed_check(swap, np.zeros((2, 2)), 5e-324)


def test_embed_check_random_points():
    rng = np.random.default_rng(53)
    for _ in range(300):
        p = PTParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 10)))
        lam = singular_values(p).sigma_plus
        assert embed_check(qutrit_unitary(p), evolution(p), lam, 1e-10)


def test_rank_reduction_of_rescaled_block():
    # 1 - (V/sigma_+)^dag (V/sigma_+) has eigenvalues {0, 1 - ratio^2}
    rng = np.random.default_rng(61)
    for _ in range(200):
        p = PTParams(float(rng.uniform(0.1, 2)), float(rng.uniform(0.2, 10)))
        sv = singular_values(p)
        block = evolution(p) / sv.sigma_plus
        eigs = np.linalg.eigvalsh(I2 - dag(block) @ block)
        above = int(np.sum(eigs > 1e-10))
        assert above <= 1
        if sv.sigma_plus > 1.0 + 1e-5:
            assert above == 1


def test_general_dilation_identity_block():
    dil = general_dilation(I2, 1)
    assert isinstance(dil, Dilation)
    assert dil.u.shape == (3, 3)
    assert np.array_equal(dil.u, I3)


def test_general_dilation_of_rescaled_evolution():
    for p in (PTParams(0.5, 1.0), PTParams(1.2, 2.0), PTParams(1.0, 1.0)):
        sv = singular_values(p)
        dil = general_dilation(evolution(p) / sv.sigma_plus, 1)
        assert is_unitary(dil.u, 1e-10)
        assert embed_check(dil.u, evolution(p), sv.sigma_plus, 1e-10)


def test_general_dilation_random_contractions():
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        contracted = int(rng.integers(1, n + 1))
        s = np.ones(n)
        s[:contracted] = rng.uniform(0.1, 0.9, contracted)
        a = _haar_unitary(n, rng) @ (s[:, None] * dag(_haar_unitary(n, rng)))
        m = int(np.sum(1.0 - s * s > 1e-12))
        dil = general_dilation(a, m)
        eye = np.eye(n + m)
        assert float(np.max(np.abs(dag(dil.u) @ dil.u - eye))) < 1e-10
        assert float(np.max(np.abs(dil.u[:n, :n] - a))) < 1e-12


def test_general_dilation_wide_ancilla():
    # more ancilla dimensions than the defect needs: extra rows of C are zero
    dil = general_dilation(np.array([[0.5]], dtype=complex), 2)
    assert dil.u.shape == (3, 3)
    assert is_unitary(dil.u, 1e-12)
    assert dil.u[0, 0] == pytest.approx(0.5, abs=1e-14)
    dil = general_dilation(0.6 * np.eye(2, dtype=complex), 3)
    assert dil.u.shape == (5, 5)
    assert is_unitary(dil.u, 1e-12)


def test_general_dilation_zero_ancilla_unitary():
    rng = np.random.default_rng(73)
    u = _haar_unitary(2, rng)
    dil = general_dilation(u, 0)
    assert dil.u.shape == (2, 2)
    assert np.array_equal(dil.u, u)


@pytest.mark.filterwarnings("error")
def test_general_dilation_error_conditions():
    huge = np.array([[1.7e308 + 1.7e308j, 0.0], [0.0, 0.5]])  # |entry| overflows
    for a in (1.5 * I2, 1e200 * I2, 1e200 * np.array([[1.0, 2.0j], [0.5, 3.0]]), huge):
        with pytest.raises(NormTooLarge):
            general_dilation(a, 2)
    with pytest.raises(RankTooLarge):
        general_dilation(0.5 * I2, 1)
    with pytest.raises(RankTooLarge):
        general_dilation(0.5 * np.eye(4, dtype=complex), 0)
    # singular blocks complete like any other contraction
    for a in (np.diag([0.5, 1e-13]).astype(complex), np.zeros((2, 2), dtype=complex)):
        u = general_dilation(a, 2).u
        assert float(np.max(np.abs(dag(u) @ u - np.eye(4)))) <= 1e-12
        assert np.array_equal(u[:2, :2], a)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            general_dilation(np.array([[1.0, bad], [0.0, 1.0]]), 2)
    with pytest.raises(ValueError):
        general_dilation(I2, -1)
    with pytest.raises(ValueError):
        general_dilation(np.eye(10, dtype=complex), 7)  # over the size cap


def test_general_dilation_tolerates_roundoff_norm():
    # eigenvalues of 1 - a^dag a in [-1e-12, 0] count as zero, not a violation
    a = (1.0 + 1e-13) * I2
    dil = general_dilation(a, 0)
    assert dil.u.shape == (2, 2)


def test_shift_equivalence_examples():
    p = PTParams(0.5, 1.0)
    mu = math.log(singular_values(p).sigma_plus) / p.t
    assert hamiltonian_shift_equivalence(p, mu) < 1e-12
    assert hamiltonian_shift_equivalence(PTParams(1.2, 2.0), 2.0) < 1e-10
    with pytest.raises(ShiftTooSmall):
        hamiltonian_shift_equivalence(PTParams(1.2, 2.0), 0.0)
    # sigma_max overflows and exp(-mu t) underflows: mu < kappa still expands
    with pytest.raises(ShiftTooSmall):
        hamiltonian_shift_equivalence(PTParams(1.5, 1000.0), 0.8)
    # mu > kappa = 1.118 contracts there, however far sigma_max overflows
    assert hamiltonian_shift_equivalence(PTParams(1.5, 1000.0), 1.2) < 1e-10
    # a valid shift whose series-summed exponential underflows to zero
    with pytest.raises(DilationError, match="underflows") as excinfo:
        hamiltonian_shift_equivalence(PTParams(1.5, 1000.0), 2.0)
    assert not isinstance(excinfo.value, ShiftTooSmall)
    # |w| near e^-700 and e^-400 is representable where |w|^2 underflows
    assert hamiltonian_shift_equivalence(PTParams(0.0, 100.0), 7.0) < 1e-10
    assert hamiltonian_shift_equivalence(PTParams(0.0, 1.0), 400.0) < 1e-10
    # a representable evolution whose rotation the series loses to roundoff
    # was once reported as an underflow
    for p, mu in ((PTParams(0.0, 1e200), 0.0), (PTParams(2.0, 1e200), math.sqrt(3.0))):
        with pytest.raises(ValueError, match="beyond what the 30-term series resolves") as excinfo:
            hamiltonian_shift_equivalence(p, mu)
        assert not isinstance(excinfo.value, DilationError)
