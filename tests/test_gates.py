"""Gate matrices, circuit composition, the two native-set transpilers, and
the textual circuit format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqsim.dilation import qutrit_circuit
from ptqsim.gates import (
    ION,
    TRANSMON,
    Circuit,
    CircuitParseError,
    Gate,
    GateKind,
    UnsupportedGate,
    circuit_unitary,
    equivalent,
    format_circuit,
    gate_matrix,
    parse_circuit,
    phase2,
    rion,
    rx,
    ry,
    rz,
    stats,
    transpile_ion,
    transpile_transmon,
)
from ptqsim.linalg import I3, dist_up_to_global_phase, is_unitary, ket, populations
from ptqsim.model import PTParams

HALF_PI = math.pi / 2.0


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (1, 0), (0.5,))
    with pytest.raises(ValueError):
        Gate(GateKind.RION, (0, 1), (0.5,))
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        rx(0, 1, float("inf"))


def test_gate_matrix_rx_pi():
    mat = gate_matrix(rx(0, 1, math.pi))
    ref = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]], dtype=complex)
    assert np.max(np.abs(mat - ref)) < 1e-12


def test_gate_matrix_rion_reduces_to_rx_and_ry():
    rng = np.random.default_rng(41)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 20):
        assert np.max(
            np.abs(gate_matrix(rion(0, 1, 0.0, theta)) - gate_matrix(rx(0, 1, theta)))
        ) < 1e-15
        assert np.max(
            np.abs(
                gate_matrix(rion(0, 1, HALF_PI, theta)) - gate_matrix(ry(0, 1, theta))
            )
        ) < 1e-15


def test_gate_matrix_rz_phases_upper_level_only():
    phi = 0.83
    assert np.allclose(
        gate_matrix(rz(1, 2, phi)),
        np.diag([1.0, 1.0, np.exp(1j * phi)]),
        atol=1e-15,
    )
    assert np.allclose(
        gate_matrix(rz(0, 1, phi)),
        np.diag([1.0, np.exp(1j * phi), 1.0]),
        atol=1e-15,
    )


def test_gate_matrix_phase2():
    lam = -1.2
    z = np.exp(1j * lam)
    assert np.allclose(
        gate_matrix(phase2(1, 2, lam)), np.diag([1.0, z, z]), atol=1e-15
    )
    assert np.allclose(
        gate_matrix(phase2(0, 1, lam)), np.diag([z, z, 1.0]), atol=1e-15
    )


def test_gate_matrices_are_unitary():
    samples = [
        rx(0, 2, 1.7),
        ry(1, 2, -0.4),
        rz(0, 1, 2.9),
        rion(0, 2, 0.6, -2.0),
        phase2(0, 1, 0.3),
    ]
    for g in samples:
        assert is_unitary(gate_matrix(g), 1e-12)


def test_circuit_unitary_empty_and_composition():
    assert np.array_equal(circuit_unitary(Circuit()), I3)
    two_quarters = Circuit((rx(0, 1, HALF_PI), rx(0, 1, HALF_PI)))
    assert np.max(
        np.abs(circuit_unitary(two_quarters) - gate_matrix(rx(0, 1, math.pi)))
    ) < 1e-15


def test_circuit_unitary_order_convention():
    # first-listed gate is applied first, so the matrix product reverses
    gates = [rx(0, 1, 0.7), rz(1, 2, -1.1), ry(0, 2, 0.4)]
    manual = gate_matrix(gates[2]) @ gate_matrix(gates[1]) @ gate_matrix(gates[0])
    assert np.max(np.abs(circuit_unitary(Circuit(tuple(gates))) - manual)) < 1e-15


def test_circuit_unitary_matches_explicit_product_for_embedding():
    c = qutrit_circuit(PTParams(0.5, 1.0))
    g1, g2, g3 = (gate_matrix(g) for g in c)
    assert np.max(np.abs(circuit_unitary(c) - g3 @ g2 @ g1)) < 1e-15


def test_transpile_ion_single_01_rotation():
    out = transpile_ion(Circuit((rx(0, 1, 0.7),)))
    assert out == Circuit((rion(0, 1, 0.0, 0.7),))


def test_transpile_ion_12_rotation_is_three_gates():
    rng = np.random.default_rng(43)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
        src = Circuit((rx(1, 2, float(theta)),))
        out = transpile_ion(src)
        assert len(out) == 3
        assert np.max(np.abs(circuit_unitary(out) - circuit_unitary(src))) < 1e-12


def test_transpile_ion_embedding_shape():
    c = qutrit_circuit(PTParams(0.5, 1.0))
    out = transpile_ion(c)
    assert len(out) == 5
    assert all(ION.admits(g) for g in out)
    assert equivalent(c, out, 1e-12, up_to_phase=False)


def test_transpile_ion_rejects_foreign_gates():
    with pytest.raises(UnsupportedGate):
        transpile_ion(Circuit((rz(0, 1, 0.2),)))
    with pytest.raises(UnsupportedGate):
        transpile_ion(Circuit((rx(0, 2, 0.2),)))


def test_transpile_transmon_single_01_rotation():
    rng = np.random.default_rng(47)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
        src = Circuit((rx(0, 1, float(theta)),))
        out = transpile_transmon(src)
        # exact equality including the scalar prefactor
        assert np.max(np.abs(circuit_unitary(out) - circuit_unitary(src))) < 1e-12
        assert all(TRANSMON.admits(g) for g in out)


def test_transpile_transmon_zero_12_rotation():
    out = transpile_transmon(Circuit((rx(1, 2, 0.0),)))
    assert np.max(np.abs(circuit_unitary(out) - I3)) < 1e-12


def test_transpile_transmon_embedding_counts():
    # rs >= 0: the two (0,1) scalar branches cancel, no trailing phase block
    out = transpile_transmon(qutrit_circuit(PTParams(0.5, 1.0)))
    st_out = stats(out)
    assert st_out.physical_count == 6
    assert st_out.virtual_count == 19
    assert all(g.angles[0] == HALF_PI for g in out if g.kind is GateKind.RX)


def test_transpile_transmon_negative_weight_branch():
    # rs < 0 here (sin(ht) < 0), which forces the four-pulse phase fixup
    p = PTParams(0.5, 4.0)
    c = qutrit_circuit(p)
    out = transpile_transmon(c)
    assert stats(out).physical_count == 10
    assert np.max(np.abs(circuit_unitary(out) - circuit_unitary(c))) < 1e-12


def test_transpile_transmon_rejects_foreign_gates():
    with pytest.raises(UnsupportedGate):
        transpile_transmon(Circuit((rion(0, 1, 0.0, 0.5),)))
    with pytest.raises(UnsupportedGate):
        transpile_transmon(Circuit((rx(0, 2, 0.5),)))


def test_phase2_rewriting_identities():
    lam = 0.7
    # two-level phase on (1,2) equals a pair of plain Z rotations exactly
    assert equivalent(
        Circuit((phase2(1, 2, lam),)),
        Circuit((rz(1, 2, lam), rz(0, 1, lam))),
        1e-12,
        up_to_phase=False,
    )
    # on (0,1) the rewrite works only up to a global phase
    d = dist_up_to_global_phase(
        circuit_unitary(Circuit((phase2(0, 1, lam),))),
        circuit_unitary(Circuit((rz(0, 1, 0.0), rz(1, 2, -lam)))),
    )
    assert d < 1e-12
    assert equivalent(
        Circuit((rz(0, 1, math.pi),)),
        Circuit((phase2(1, 2, math.pi), rz(1, 2, -math.pi))),
        1e-12,
        up_to_phase=False,
    )


def test_equivalent_reflexive_and_validation():
    c = qutrit_circuit(PTParams(0.9, 2.0))
    assert equivalent(c, c, 1e-12, up_to_phase=False)
    with pytest.raises(ValueError):
        equivalent(c, c, 0.0)


def test_hadamard_like_composite():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    for i, j in ((0, 1), (1, 2)):
        h = (rz(i, j, HALF_PI), rx(i, j, HALF_PI), rz(i, j, HALF_PI))
        u = circuit_unitary(Circuit(h))
        block = u[np.ix_((i, j), (i, j))]
        assert np.max(np.abs(block - hadamard)) < 1e-15
        assert np.max(np.abs(circuit_unitary(Circuit(h + h)) - I3)) < 1e-12


def test_rz_full_turns_leave_populations_unchanged():
    base = qutrit_circuit(PTParams(0.7, 1.3))
    u_ref = circuit_unitary(base)
    for k in (1, 2, 5):
        for i, j in ((0, 1), (1, 2)):
            padded = Circuit(
                base.gates[:2] + (rz(i, j, 2.0 * math.pi * k),) + base.gates[2:]
            )
            u = circuit_unitary(padded)
            for b in range(3):
                assert np.max(
                    np.abs(populations(u @ ket(b)) - populations(u_ref @ ket(b)))
                ) < 1e-12


def test_stats_counts():
    c = qutrit_circuit(PTParams(0.5, 1.0))
    st_c = stats(c)
    assert (st_c.gate_count, st_c.physical_count, st_c.virtual_count) == (3, 3, 0)
    st_ion = stats(transpile_ion(c))
    assert (st_ion.physical_count, st_ion.virtual_count) == (5, 0)
    st_tm = stats(transpile_transmon(c))
    assert st_tm.gate_count == st_tm.physical_count + st_tm.virtual_count
    assert st_tm.physical_count == 6
    assert stats(Circuit()).gate_count == 0


def test_gateset_membership():
    assert ION.admits(rion(0, 2, 0.1, 0.2))
    assert ION.admits(rz(0, 1, 0.3))
    assert not ION.admits(rion(1, 2, 0.1, 0.2))
    assert not ION.admits(rx(0, 1, 0.3))
    assert TRANSMON.admits(rx(1, 2, HALF_PI))
    assert not TRANSMON.admits(rx(1, 2, HALF_PI * (1 + 1e-15)))
    assert not TRANSMON.admits(rx(0, 2, HALF_PI))
    assert TRANSMON.admits(rz(0, 1, 0.4))


@st.composite
def arbitrary_gates(draw):
    kind = draw(st.sampled_from(list(GateKind)))
    subspace = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    count = 2 if kind is GateKind.RION else 1
    angles = tuple(
        draw(st.floats(allow_nan=False, allow_infinity=False, width=64))
        for _ in range(count)
    )
    return Gate(kind, subspace, angles)


@given(st.lists(arbitrary_gates(), max_size=12))
@settings(deadline=None)
def test_format_parse_round_trip(gates):
    c = Circuit(tuple(gates))
    assert parse_circuit(format_circuit(c)) == c


def test_parse_circuit_reports_line_numbers():
    text = "# comment\n\nRX 0 1 0.5\nRQ 0 1 0.5\n"
    with pytest.raises(CircuitParseError, match="line 4"):
        parse_circuit(text)
    with pytest.raises(CircuitParseError, match="line 1"):
        parse_circuit("RX 0 1\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit("RZ 1 2 0.25\nRX zero 1 0.5\n")


def test_parse_circuit_accepts_comments_and_blanks():
    c = parse_circuit("\n# header\nRION 0 2 1.5707963267948966 -3.1\n")
    assert c == Circuit((rion(0, 2, 1.5707963267948966, -3.1),))


def test_format_circuit_empty():
    assert format_circuit(Circuit()) == ""
