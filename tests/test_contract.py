"""One contract for every public name of ptqsim: given an input outside its
domain (NaN, an infinity, an empty or wrong-shape array, a float where an
integer goes, 2**64), a call returns a finite result or raises a ValueError
subclass, and it never warns. An argument holding a NaN has no answer, nor
has an array of a shape the function does not take, so both must raise. The model, dilation and experiment names also run on every
(r, t) pair of EDGES, where populations must lie in [0, 1] and sum to 1
within 4 ulp."""

import dataclasses
import inspect
import math
import sys
import warnings
from enum import Enum

import numpy as np
import pytest

import ptqsim
from ptqsim import (
    BackendConfig,
    BackendKind,
    ConfusionMatrix,
    Gate,
    GateKind,
    PTParams,
    SweepGrid,
    angles,
    circuit_unitary,
    default_backend,
    dist_up_to_global_phase,
    eigenvalues,
    embed_check,
    equivalent,
    estimate_confusion,
    evolution,
    exact_probabilities,
    expm_taylor,
    format_circuit,
    gate_matrix,
    general_dilation,
    hamiltonian,
    hamiltonian_shift_equivalence,
    identity_confusion,
    is_unitary,
    kernel,
    load_confusion,
    miscalibrate,
    parse_circuit,
    populations,
    postselect_ratios,
    postselected_population,
    pt_symmetry_check,
    qutrit_circuit,
    qutrit_populations,
    qutrit_unitary,
    rescale_to_contraction,
    rescaled_evolution,
    return_probability,
    rion,
    run_point,
    rx,
    rz,
    sample_counts,
    singular_values,
    stats,
    success_probability,
    svd2,
    sweep,
    synthetic_confusion,
    transpile_ion,
    transpile_transmon,
)

NAN, INF, BIG = math.nan, math.inf, 2**64
MAX = sys.float_info.max
EDGES = (0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0, 1.0 + 2e-16, 2.0, 1e10, 1e200, MAX)
PAIRS = [PTParams(r, t) for r in EDGES for t in EDGES]
BAD_REALS = (NAN, INF, -INF)
# NaN, infinite, empty and wrong-shape matrices
BAD_MATRICES = (
    [[NAN, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, INF]],
    [[-INF * 1j, 0.0], [0.0, 1.0]],
    np.zeros((0, 0)),
    np.eye(3)[:2],
    np.ones(2),
    np.ones((2, 3)),
    np.ones((2, 2, 2)),
)
BACKENDS = [default_backend(kind, seed=5) for kind in BackendKind]
TRUE_STATE = [0.6, 0.8j]
CIRCUIT = transpile_ion(qutrit_circuit(PTParams(0.5, 1.0)))
EXTREME = (rx(0, 1, MAX), rx(1, 2, -MAX), rx(0, 1, 1e200), rx(1, 2, 5e-324))
# (kind, subspace, angles) of gates that cannot be built
BAD_GATES = (
    (GateKind.RX, (0, 1), (NAN,)),
    (GateKind.RX, (0, 1), (INF,)),
    (GateKind.RX, (0, 1), ()),
    (GateKind.RION, (0, 1), (0.5,)),
    (GateKind.RX, (0, 1.5), (0.5,)),
    (GateKind.RX, (BIG, 1), (0.5,)),
)
# documented to read inf where a value overflows the float range, never NaN
OVERFLOWS_TO_INF = {"kernel", "evolution", "singular_values"}
# each result holds a probability distribution over the three levels
POPULATIONS = {"qutrit_populations", "exact_probabilities"}


def numbers(value) -> np.ndarray:
    """Every real and imaginary part inside a value, flattened."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return np.concatenate([numbers(v) for v in value] + [np.zeros(0)])
    if value is None or isinstance(value, (str, Enum)):
        return np.zeros(0)
    a = np.asarray(value, dtype=complex)
    return np.concatenate([a.real.ravel(), a.imag.ravel()])


def over(call, values, takes=None):
    """(call of value, whether the call must raise) per value. It must for a
    value holding a NaN, and for an array whose shape `takes` refuses:
    neither has an answer."""

    def must_raise(v):
        return bool(np.isnan(numbers(v)).any()) or (takes is not None and not takes(np.shape(v)))

    return tuple((lambda v=v: call(v), must_raise(v)) for v in values)


def square(shape):
    return len(shape) == 2 and shape[0] == shape[1] > 0


def fixed(*want):
    return lambda shape: shape == want


def over_pairs(call):
    return over(call, PAIRS)


def calls(*fns):
    return tuple((fn, False) for fn in fns)


ROWS = {
    # records the library returns, and its exception classes: no inputs of their own
    **dict.fromkeys(
        (
            "Angles", "Circuit", "CircuitStats", "Dilation", "ExperimentPoint", "GateSet",
            "Kernel", "SingularPair", "Svd2", "SweepResult", "DilationError", "LambdaTooSmall",
            "NormTooLarge", "RankTooLarge", "ShiftTooSmall", "UnsupportedGate", "ZeroMatrix",
        ),
        (),
    ),
    # linalg
    "dist_up_to_global_phase": (
        *over(lambda m: dist_up_to_global_phase(m, m), BAD_MATRICES, square),
        *over(lambda m: dist_up_to_global_phase(np.eye(2), m), BAD_MATRICES, fixed(2, 2)),
    ),
    "expm_taylor": (
        *over(expm_taylor, BAD_MATRICES, square),
        *over(lambda x: expm_taylor([[x]]), (BIG, -BIG, 1e300, MAX, 1j * MAX)),
    ),
    "is_unitary": (
        *over(is_unitary, BAD_MATRICES, square),
        *over(lambda tol: is_unitary(np.eye(2), tol), (*BAD_REALS, 0.0)),
    ),
    "populations": over(populations, ([NAN, 0.0], [INF, 0.0], [1.0, -INF * 1j], [], [[1.0, 0.0]])),
    "svd2": over(svd2, BAD_MATRICES, fixed(2, 2)),
    # model
    "PTParams": over(lambda rt: PTParams(*rt), ((NAN, 1.0), (INF, 1.0), (1.0, -INF), (BIG, BIG))),
    "angles": over_pairs(angles),
    "eigenvalues": over(eigenvalues, (*BAD_REALS, BIG, *EDGES)),
    "evolution": over_pairs(evolution),
    "hamiltonian": over(hamiltonian, (*BAD_REALS, BIG, MAX)),
    "kernel": over_pairs(lambda p: (kernel(p), kernel(p).c, kernel(p).s, kernel(p).a)),
    "postselected_population": over_pairs(postselected_population),
    "pt_symmetry_check": (
        *over(pt_symmetry_check, BAD_MATRICES, fixed(2, 2)),
        *over(lambda tol: pt_symmetry_check(hamiltonian(0.5), tol), (*BAD_REALS, 0.0)),
    ),
    "qutrit_populations": over_pairs(qutrit_populations),
    "rescaled_evolution": (
        *over(lambda lam: rescaled_evolution(PTParams(0.5, 1.0), lam), (*BAD_REALS, BIG, MAX)),
        *over_pairs(lambda p: rescaled_evolution(p, singular_values(p).sigma_plus)),
    ),
    "return_probability": over_pairs(return_probability),
    "singular_values": over_pairs(singular_values),
    "success_probability": (
        *over(
            lambda psi: success_probability(PTParams(0.5, 1.0), psi),
            ([NAN, 0.0], [INF, 0.0], [1.0, -INF * 1j], [], [1.0, 0.0, 0.0], [BIG, 0.0]),
            fixed(2),
        ),
        *over_pairs(lambda p: success_probability(p, TRUE_STATE)),
    ),
    # dilation
    "embed_check": (
        *over(lambda u: embed_check(u, np.eye(2), 1.0), BAD_MATRICES, square),
        *over(lambda v: embed_check(np.eye(3), v, 1.0), BAD_MATRICES, square),
        # a v larger than u has no top-left block to compare with
        *over(lambda u: embed_check(u, np.eye(3), 1.0), (np.eye(2), 2 * np.eye(2), np.eye(3), np.eye(4)),
              lambda shape: shape[0] >= 3),
        *over(lambda lam: embed_check(np.eye(3), np.eye(2), lam), (*BAD_REALS, 0.0, BIG)),
        *over(lambda tol: embed_check(np.eye(3), np.eye(2), 1.0, tol), (*BAD_REALS, 0.0)),
        *over_pairs(lambda p: embed_check(qutrit_unitary(p), evolution(p), singular_values(p).sigma_plus)),
    ),
    "general_dilation": (
        *over(lambda a: general_dilation(a, 1), BAD_MATRICES, square),
        *over(lambda m: general_dilation(0.5 * np.eye(2), m), (1.5, 2.0, NAN, INF, BIG, -1)),
        *over_pairs(lambda p: general_dilation(rescaled_evolution(p, singular_values(p).sigma_plus), 1)),
    ),
    "hamiltonian_shift_equivalence": (
        *over(
            lambda mu: hamiltonian_shift_equivalence(PTParams(0.5, 1.0), mu),
            (*BAD_REALS, BIG, MAX),
        ),
        *over(
            lambda args: hamiltonian_shift_equivalence(*args),
            [(p, mu) for p in PAIRS for mu in (0.0, 2.0, 1e10, MAX)],
        ),
    ),
    "qutrit_circuit": over_pairs(qutrit_circuit),
    "qutrit_unitary": over_pairs(qutrit_unitary),
    "rescale_to_contraction": over(
        rescale_to_contraction, BAD_MATRICES, lambda shape: len(shape) == 2 and min(shape) > 0
    ),
    # gates
    "Gate": over(lambda args: Gate(*args), BAD_GATES),
    "GateKind": over(GateKind, ("RY", "", NAN)),
    "circuit_unitary": calls(lambda: circuit_unitary(EXTREME), lambda: circuit_unitary(())),
    "equivalent": (
        *over(lambda tol: equivalent(CIRCUIT, CIRCUIT, tol), (*BAD_REALS, 0.0)),
        *over(lambda tol: equivalent(CIRCUIT, CIRCUIT, tol, up_to_phase=True), BAD_REALS),
        *calls(lambda: equivalent(EXTREME, (), up_to_phase=True)),
    ),
    "format_circuit": calls(lambda: format_circuit(EXTREME), lambda: format_circuit(())),
    # indices given as floats equal to ints name the same subspace
    "gate_matrix": over(gate_matrix, (*EXTREME, rx(0.0, 1.0, 0.5), rion(0.0, 2.0, 0.5, 0.5))),
    "parse_circuit": over(
        parse_circuit,
        (
            "RX 0 1 nan", "RX 0 1 inf", "RZ 0 1 -1e400", "RX 0.0 1 0.5", "RX 0 1.5 0.5",
            "RX 0 1", "RION 0 2 nan 0.5", f"RX {BIG} 1 0.5", f"RX 0 1 {BIG}", "",
        ),
    ),
    "rion": over(lambda args: rion(*args), ((0, 1, NAN, 0.5), (0, 2, 0.5, INF), (0.0, 1.5, 0, 0))),
    "rx": over(lambda args: rx(*args), ((0, 1, NAN), (1, 2, -INF), (0.5, 1, 0.0), (BIG, 1, 0.0))),
    "rz": over(lambda args: rz(*args), ((0, 1, NAN), (1, 2, INF), (1.0, 2.5, 0.0))),
    "stats": calls(lambda: stats(EXTREME), lambda: stats(())),
    "transpile_ion": calls(lambda: transpile_ion(EXTREME), lambda: transpile_ion(CIRCUIT)),
    "transpile_transmon": calls(lambda: transpile_transmon(EXTREME), lambda: transpile_transmon(CIRCUIT)),
    # experiment
    "BackendConfig": over(
        lambda kwargs: BackendConfig(**kwargs),
        (
            *({"shots": v} for v in (NAN, INF, 2.5, 512.0, BIG, 0)),
            *({"seed": v} for v in (NAN, 2.5, np.float64(2.0), BIG, -1)),
            *({"ion_count": v} for v in (NAN, 2.5, 0)),
            *({"epsilon": (v,)} for v in (*BAD_REALS, BIG)),
            *({"exact": v} for v in ("no", 1, 0.0, NAN, None)),
            *({"kind": v} for v in ("ion", "theory", NAN, None)),
        ),
    ),
    "BackendKind": over(BackendKind, ("qubit", NAN)),
    "ConfusionMatrix": over(
        ConfusionMatrix,
        (np.full((3, 3), NAN), np.diag([1.0, INF, 1.0]), np.zeros((0, 0)), np.eye(2), np.full((3, 3), BIG)),
        fixed(3, 3),
    ),
    "SweepGrid": over(
        lambda kwargs: SweepGrid(**kwargs),
        (
            *({key: v} for key in ("r_min", "r_max", "t_min", "t_max") for v in BAD_REALS),
            *({key: v} for key in ("r_steps", "t_steps") for v in (NAN, 2.5, 61.0, BIG)),
        ),
    ),
    "default_backend": over(
        lambda args: default_backend(*args),
        [
            *((kind, seed) for kind in BackendKind for seed in (NAN, 2.5, BIG, -1)),
            *((kind, 0) for kind in ("ion", "theory", None)),
        ],
    ),
    "estimate_confusion": over(lambda n: estimate_confusion(BACKENDS[1], n), (NAN, INF, 2.5, BIG, 0)),
    "exact_probabilities": (
        *over(lambda args: exact_probabilities(*args), [(p, b) for p in PAIRS for b in BACKENDS]),
        *over(lambda i: exact_probabilities(PTParams(0.5, 1.0), BACKENDS[1], i), (NAN, 1.5, BIG, -1)),
    ),
    "identity_confusion": calls(identity_confusion),
    "load_confusion": over(
        load_confusion, ("nan 0 0 0 1 0 0 0 1", "inf 0 0 0 1 0 0 0 1", "1e400 " * 9, "", "1 0 0 0 1 0 0 0 1 0")
    ),
    "miscalibrate": (
        *over(lambda eps: miscalibrate(CIRCUIT, eps), (*BAD_REALS, BIG)),
        *over(lambda eps: miscalibrate((), eps), (*BAD_REALS, BIG)),
    ),
    "postselect_ratios": (
        *over(lambda x: postselect_ratios(np.array([x, 1.0]), np.ones(2)), BAD_REALS),
        *over(lambda x: postselect_ratios(np.ones(2), np.array([1.0, x])), BAD_REALS),
        # as a numpy array, 2**64 is a float: no numpy integer type holds it
        *calls(
            lambda: postselect_ratios(np.zeros(0), np.zeros(0)),
            lambda: postselect_ratios(np.ones(2), np.ones(3)),
            lambda: postselect_ratios(np.array([2.0**64]), np.array([2.0**64])),
        ),
    ),
    "run_point": (
        *over(lambda args: run_point(*args), [(p, b) for p in PAIRS for b in BACKENDS]),
        *over(lambda i: run_point(PTParams(0.5, 1.0), BACKENDS[1], i), (NAN, 1.5, BIG, -1)),
        *over(
            lambda key: run_point(PTParams(0.5, 1.0), BACKENDS[0], grid_key=key),
            ((1.5, 0), (NAN, 0), (0, INF), (BIG, 0), (0, -1), (0,)),
        ),
    ),
    "sample_counts": (
        *over(
            lambda probs: sample_counts(probs, 10, 3),
            ([NAN, 1.0, 0.0], [INF, 0.0, 0.0], [0.5, -INF, 0.5], [], [[0.5, 0.5, 0.0]] * 2, [BIG, 0, 0]),
        ),
        *over(lambda shots: sample_counts([0.5, 0.5, 0.0], shots, 3), (NAN, INF, 2.5, BIG)),
        *over(lambda seed: sample_counts([0.5, 0.5, 0.0], 10, seed), (NAN, INF, 2.5, BIG)),
    ),
    # one grid point per sweep; the point record shows no kept shot as None
    "sweep": over(
        lambda args: sweep(SweepGrid(args[0].r, args[0].r, 1, args[0].t, args[0].t, 1), args[1])[0],
        [(p, b) for p in PAIRS for b in BACKENDS],
    ),
    "synthetic_confusion": over(synthetic_confusion, (*BAD_REALS, BIG, 0.0)),
}


def public_names() -> set[str]:
    return {
        name
        for name, value in vars(ptqsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_every_public_name_has_a_row():
    assert public_names() == set(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_out_of_domain_inputs_raise_value_errors_or_give_finite_results(name):
    for call, has_nan in ROWS[name]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except ValueError:
                continue
        assert not has_nan, (name, "returned for a NaN argument", result)
        values = numbers(result)
        if name in OVERFLOWS_TO_INF:
            assert not np.any(np.isnan(values)), (name, result)
        else:
            assert np.all(np.isfinite(values)), (name, result)
        if name in POPULATIONS:
            assert np.all((0.0 <= values) & (values <= 1.0)), (name, result)
            assert abs(math.fsum(values) - 1.0) <= 4 * np.finfo(float).eps, (name, result)
