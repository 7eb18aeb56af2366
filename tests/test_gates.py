"""Gate matrices, circuit composition, the two native-set transpilers, and
the textual circuit format."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I3, ket
from ptqsim.dilation import qutrit_circuit
from ptqsim.gates import (
    ION,
    TRANSMON,
    Circuit,
    CircuitParseError,
    CircuitStats,
    Gate,
    GateKind,
    UnsupportedGate,
    circuit_unitary,
    equivalent,
    format_circuit,
    gate_matrix,
    parse_circuit,
    rion,
    rx,
    rz,
    stats,
    transpile_ion,
    transpile_transmon,
)
from ptqsim.linalg import is_unitary, populations
from ptqsim.model import PTParams

HALF_PI = math.pi / 2.0
MAX_FLOAT = sys.float_info.max


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (1, 0), (0.5,))
    with pytest.raises(ValueError):
        Gate(GateKind.RION, (0, 1), (0.5,))
    with pytest.raises(ValueError):
        Gate(GateKind.RX, (0, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        rx(0, 1, float("inf"))


@given(
    st.sampled_from((0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e17, 1e300, MAX_FLOAT, -MAX_FLOAT)),
    st.sampled_from(((0, 1), (0, 2), (1, 2))),
)
def test_gate_matrix_rx_pi(theta, subspace):
    # RX is built as RION at phase 0; it must equal the explicit rotation block
    i, j = subspace
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ref = np.eye(3, dtype=complex)
    ref[i, i] = ref[j, j] = ch
    ref[i, j] = ref[j, i] = -1j * sh
    assert (gate_matrix(rx(i, j, theta)) == ref).all()
    mat = gate_matrix(rx(0, 1, math.pi))
    ref = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]], dtype=complex)
    assert np.max(np.abs(mat - ref)) < 1e-12


def test_gate_matrix_rion_reduces_to_rx_and_ry():
    rng = np.random.default_rng(41)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 20):
        assert np.max(
            np.abs(gate_matrix(rion(0, 1, 0.0, theta)) - gate_matrix(rx(0, 1, theta)))
        ) < 1e-15
        # phase pi/2 is the real Y rotation exp(-i theta/2 sigma_y) on (0,1)
        ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
        y = np.array([[ch, -sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(gate_matrix(rion(0, 1, HALF_PI, theta)) - y)) < 1e-15


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


def test_gate_matrices_are_unitary():
    samples = [
        rx(0, 2, 1.7),
        rx(1, 2, -0.4),
        rz(0, 1, 2.9),
        rion(0, 2, 0.6, -2.0),
        rion(1, 2, HALF_PI, 0.3),
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
    gates = [rx(0, 1, 0.7), rz(1, 2, -1.1), rion(0, 2, HALF_PI, 0.4)]
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


def brute_force_signs(halves):
    """The first sign vector in mask order, bit k flipping sign k, that
    minimizes the signed half-angle sum modulo 2 pi, and that minimum."""

    def residual(mask):
        total = sum(-h if mask >> k & 1 else h for k, h in enumerate(halves))
        return abs(math.remainder(total, 2.0 * math.pi))

    best = min(range(1 << len(halves)), key=residual)
    return [-1 if best >> k & 1 else 1 for k in range(len(halves))], residual(best)


@st.composite
def transmon_sources(draw):
    """Up to 12 (0,1) rotations whose angles repeat or negate a few base
    angles, among them 0 and +-pi, plus up to three (1,2) rotations."""
    angle = st.one_of(
        st.sampled_from([0.0, math.pi, 2.0 * math.pi, 0.5]),
        st.floats(-2.0 * math.pi, 2.0 * math.pi),
    )
    base = draw(st.lists(angle, min_size=1, max_size=4))
    n01 = draw(st.integers(0, 12))
    gates = [rx(0, 1, draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(base))) for _ in range(n01)]
    gates += [rx(1, 2, draw(angle)) for _ in range(draw(st.integers(0, 3)))]
    return tuple(draw(st.permutations(gates)))


@given(transmon_sources())
@settings(deadline=None, max_examples=60)
def test_transpile_transmon_signs_match_brute_force(src):
    out = transpile_transmon(src)
    # each (0,1) expansion's second gate is RZ(0,1)(sign * pi / 2)
    signs, pos = [], 0
    for g in src:
        if g.subspace == (0, 1):
            signs.append(out[pos + 1].angles[0] / HALF_PI)
        pos += 8 if g.subspace == (0, 1) else 9
    want, residual = brute_force_signs([g.angles[0] / 2.0 for g in src if g.subspace == (0, 1)])
    assert signs == want
    assert stats(out).physical_count == 2 * len(src) + (4 if residual > 1e-12 else 0)
    assert equivalent(out, src, 1e-10)


def test_transpile_transmon_greedy_signs_above_14_rotations():
    # past 14 (0,1) rotations the signs come from the greedy pass, not a search
    rng = np.random.default_rng(29)
    special = (math.pi, -math.pi, 2.0 * math.pi, 1e17, -1e17)
    cases = []
    for n01 in range(15, 21):
        angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n01)
        angles[rng.choice(n01, 3, replace=False)] = rng.choice(special, 3)
        gates = [rx(0, 1, float(a)) for a in angles]
        gates += [rx(1, 2, float(a)) for a in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, n01 % 3 + 1)]
        cases.append(tuple(gates[k] for k in rng.permutation(len(gates))))
    # 8 pairs of equal angles cancel exactly: no phase block
    pairs = [rx(0, 1, a) for a in (0.3, 1.1, -2.5, 4.0, math.pi, 2.0 * math.pi, 1e17, -0.7) for _ in range(2)]
    cases.append((*pairs[:5], rx(1, 2, 0.9), *pairs[5:]))
    for src in cases:
        out = transpile_transmon(src)
        assert all(TRANSMON.admits(g) for g in out)
        assert equivalent(out, src, 1e-10)
        n01 = sum(g.subspace == (0, 1) for g in src)
        assert n01 >= 15
        # 8 gates per (0,1) expansion, 9 per (1,2) expansion, 7 in a phase block
        block = len(out) - 8 * n01 - 9 * (len(src) - n01)
        assert block in (0, 7)
        assert stats(out).physical_count == 2 * len(src) + (4 if block else 0)
    assert stats(transpile_transmon(cases[-1])).physical_count == 34


def test_transpile_transmon_rejects_foreign_gates():
    with pytest.raises(UnsupportedGate):
        transpile_transmon(Circuit((rion(0, 1, 0.0, 0.5),)))
    with pytest.raises(UnsupportedGate):
        transpile_transmon(Circuit((rx(0, 2, 0.5),)))


def test_equivalent_up_to_phase():
    # RX(0,1)(2 pi) is -1 on levels 0 and 1, RZ(1,2)(pi) on level 2: -identity
    minus_one = Circuit((rx(0, 1, 2.0 * math.pi), rz(1, 2, math.pi)))
    assert equivalent(minus_one, Circuit(), 1e-12, up_to_phase=True)
    assert not equivalent(minus_one, Circuit(), 1e-12, up_to_phase=False)
    assert not equivalent(Circuit((rz(1, 2, math.pi),)), Circuit(), 1e-12, up_to_phase=True)


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
                base[:2] + (rz(i, j, 2.0 * math.pi * k),) + base[2:]
            )
            u = circuit_unitary(padded)
            for b in range(3):
                assert np.max(
                    np.abs(populations(u @ ket(b)) - populations(u_ref @ ket(b)))
                ) < 1e-12


def test_stats_counts():
    c = qutrit_circuit(PTParams(0.5, 1.0))
    st_c = stats(c)
    assert (len(c), st_c.physical_count, st_c.virtual_count) == (3, 3, 0)
    st_ion = stats(transpile_ion(c))
    assert (st_ion.physical_count, st_ion.virtual_count) == (5, 0)
    tm = transpile_transmon(c)
    st_tm = stats(tm)
    assert len(tm) == st_tm.physical_count + st_tm.virtual_count
    assert st_tm.physical_count == 6
    assert stats(Circuit()) == CircuitStats(0, 0)


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
