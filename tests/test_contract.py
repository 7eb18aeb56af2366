"""One contract for every public name of ptqsim: given an input outside its
domain (NaN, an infinity, an empty or wrong-shape array, a float where an
integer goes, 2**64, or 2**1024, a string, None or 1j where a real goes,
None, a list of ints or a bare Gate where a circuit goes, None where a gate
or text goes), a call returns a finite result or raises a ValueError
subclass, and it never warns. An argument holding a NaN has no answer, nor
has an array of a shape the function does not take, nor a real argument no
finite float stands for, nor a circuit that is not an iterable of Gates, so
each must raise. The model, dilation and experiment names also run on every
(r, t) pair of EDGES, where populations must lie in [0, 1] and sum to 1
within 4 ulp."""

import dataclasses
import inspect
import math
import re
import sys
import warnings
from enum import Enum
from fractions import Fraction

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
    qutrit_circuit,
    qutrit_populations,
    qutrit_unitary,
    rescaled_evolution,
    return_probability,
    rion,
    run_point,
    rx,
    rz,
    sample_counts,
    singular_values,
    stats,
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
# not reals, or ints past the float range: no finite float stands for any of
# them, but `numbers` reads none as a NaN, so `refused` marks each must-raise
NOT_REALS = (2**1024, -(2**1024), "0.5", None, 1j)
# not an iterable of Gates: not iterable, an entry that is no Gate, a bare Gate
NOT_CIRCUITS = (None, [1], rx(0, 1, 0.5))
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


def raising(*fns):
    return tuple((fn, True) for fn in fns)


def refused(call):
    return raising(*(lambda v=v: call(v) for v in NOT_REALS))


def not_circuits(call):
    return raising(*(lambda c=c: call(c) for c in NOT_CIRCUITS))


ROWS = {
    # records the library returns, and its exception classes: no inputs of their own
    **dict.fromkeys(
        (
            "Angles", "Circuit", "CircuitStats", "Dilation", "ExperimentPoint", "GateSet",
            "Kernel", "SingularPair", "Svd2", "SweepResult", "DilationError", "LambdaTooSmall",
            "NormTooLarge", "RankTooLarge", "ShiftTooSmall", "UnsupportedGate",
        ),
        (),
    ),
    # linalg
    "expm_taylor": (
        *over(expm_taylor, BAD_MATRICES, square),
        *over(lambda x: expm_taylor([[x]]), (BIG, -BIG, 1e300, MAX, 1j * MAX)),
    ),
    "is_unitary": (
        *over(is_unitary, BAD_MATRICES, square),
        *over(lambda tol: is_unitary(np.eye(2), tol), (*BAD_REALS, 0.0)),
        # m^dag m past the float range
        *over(is_unitary, (1e300 * np.eye(3), np.full((3, 3), MAX * (1 + 1j)))),
        *calls(lambda: is_unitary(1e300 * np.eye(3), INF)),
    ),
    "populations": over(populations, ([NAN, 0.0], [INF, 0.0], [1.0, -INF * 1j], [], [[1.0, 0.0]])),
    "svd2": over(svd2, BAD_MATRICES, fixed(2, 2)),
    # model
    "PTParams": over(lambda rt: PTParams(*rt), ((NAN, 1.0), (INF, 1.0), (1.0, -INF), (BIG, BIG)))
    + refused(lambda r: PTParams(r, 1.0))
    + refused(lambda t: PTParams(1.0, t)),
    "angles": over_pairs(angles),
    "evolution": over_pairs(evolution),
    "hamiltonian": over(hamiltonian, (*BAD_REALS, BIG, MAX)) + refused(hamiltonian),
    "kernel": over_pairs(lambda p: (kernel(p), kernel(p).c, kernel(p).s, kernel(p).a)),
    "postselected_population": over_pairs(postselected_population),
    "qutrit_populations": over_pairs(qutrit_populations),
    "rescaled_evolution": (
        *over(lambda lam: rescaled_evolution(PTParams(0.5, 1.0), lam), (*BAD_REALS, BIG, MAX)),
        *refused(lambda lam: rescaled_evolution(PTParams(0.5, 1.0), lam)),
        *over_pairs(lambda p: rescaled_evolution(p, singular_values(p).sigma_plus)),
    ),
    "return_probability": over_pairs(return_probability),
    "singular_values": over_pairs(singular_values),
    # dilation
    "embed_check": (
        *over(lambda u: embed_check(u, np.eye(2), 1.0), BAD_MATRICES, square),
        *over(lambda v: embed_check(np.eye(3), v, 1.0), BAD_MATRICES, square),
        # a v larger than u has no top-left block to compare with
        *over(lambda u: embed_check(u, np.eye(3), 1.0), (np.eye(2), 2 * np.eye(2), np.eye(3), np.eye(4)),
              lambda shape: shape[0] >= 3),
        *over(lambda lam: embed_check(np.eye(3), np.eye(2), lam), (*BAD_REALS, 0.0, BIG)),
        *refused(lambda lam: embed_check(np.eye(3), np.eye(2), lam)),
        *over(lambda tol: embed_check(np.eye(3), np.eye(2), 1.0, tol), (*BAD_REALS, 0.0)),
        # u^dag u or v / lam past the float range
        *calls(
            lambda: embed_check(1e200 * np.eye(3), np.eye(2), 1.0),
            lambda: embed_check(np.eye(3), np.eye(2), 5e-324),
            lambda: embed_check(np.eye(3), 1e300 * np.eye(2), 1e-300),
            lambda: embed_check(np.eye(3), MAX * (1 + 1j) * np.eye(2), 5e-324, INF),
        ),
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
        *refused(lambda mu: hamiltonian_shift_equivalence(PTParams(0.5, 1.0), mu)),
        *over(
            lambda args: hamiltonian_shift_equivalence(*args),
            [(p, mu) for p in PAIRS for mu in (0.0, 2.0, 1e10, MAX)],
        ),
    ),
    "qutrit_circuit": over_pairs(qutrit_circuit),
    "qutrit_unitary": over_pairs(qutrit_unitary),
    # gates
    "Gate": (
        *over(lambda args: Gate(*args), BAD_GATES),
        *refused(lambda a: Gate(GateKind.RX, (0, 1), (a,))),
        *refused(lambda a: Gate(GateKind.RION, (0, 2), (0.5, a))),
        # a kind that is not a GateKind, or angles that are not a tuple, are
        # refused when the gate is built, not when it is formatted or rescaled
        *raising(
            lambda: Gate("RX", (0, 1), (0.5,)),
            lambda: Gate("RION", (0, 2), (0.5,)),
            lambda: Gate(None, (0, 1), (0.5,)),
            lambda: Gate(GateKind.RION, (0, 1), [0.0, 0.5]),
            lambda: Gate(GateKind.RION, (0, 1), np.array([0.0, 0.5])),
            lambda: Gate(GateKind.RX, (0, 1), 0.5),
            lambda: Gate(GateKind.RX, np.array([0, 1]), (0.5,)),
            lambda: Gate(GateKind.RX, np.array([0, 2]), (0.5,)),
        ),
    ),
    "GateKind": over(GateKind, ("RY", "", NAN)),
    "circuit_unitary": calls(lambda: circuit_unitary(EXTREME), lambda: circuit_unitary(()))
    + not_circuits(circuit_unitary),
    "equivalent": (
        *over(lambda tol: equivalent(CIRCUIT, CIRCUIT, tol), (*BAD_REALS, 0.0)),
        *over(lambda tol: equivalent(CIRCUIT, CIRCUIT, tol, up_to_phase=True), BAD_REALS),
        *calls(lambda: equivalent(EXTREME, (), up_to_phase=True)),
        *not_circuits(lambda c: equivalent(c, ())),
    ),
    "format_circuit": calls(lambda: format_circuit(EXTREME), lambda: format_circuit(()))
    + not_circuits(format_circuit),
    # indices given as floats equal to ints name the same subspace
    "gate_matrix": over(gate_matrix, (*EXTREME, rx(0.0, 1.0, 0.5), rion(0.0, 2.0, 0.5, 0.5)))
    + raising(lambda: gate_matrix(1), lambda: gate_matrix(None)),
    "parse_circuit": over(
        parse_circuit,
        (
            "RX 0 1 nan", "RX 0 1 inf", "RZ 0 1 -1e400", "RX 0.0 1 0.5", "RX 0 1.5 0.5",
            "RX 0 1", "RION 0 2 nan 0.5", f"RX {BIG} 1 0.5", f"RX 0 1 {BIG}", "",
        ),
    )
    + raising(lambda: parse_circuit(None)),
    "rion": (
        *over(lambda args: rion(*args), ((0, 1, NAN, 0.5), (0, 2, 0.5, INF), (0.0, 1.5, 0, 0))),
        *refused(lambda phi: rion(0, 1, phi, 0.5)),
        *refused(lambda theta: rion(0, 2, 0.5, theta)),
    ),
    "rx": (
        *over(lambda args: rx(*args), ((0, 1, NAN), (1, 2, -INF), (0.5, 1, 0.0), (BIG, 1, 0.0))),
        *refused(lambda theta: rx(0, 1, theta)),
    ),
    "rz": (
        *over(lambda args: rz(*args), ((0, 1, NAN), (1, 2, INF), (1.0, 2.5, 0.0))),
        *refused(lambda phi: rz(0, 1, phi)),
    ),
    "stats": calls(lambda: stats(EXTREME), lambda: stats(())) + not_circuits(stats),
    "transpile_ion": calls(lambda: transpile_ion(EXTREME), lambda: transpile_ion(CIRCUIT))
    + not_circuits(transpile_ion),
    "transpile_transmon": calls(lambda: transpile_transmon(EXTREME), lambda: transpile_transmon(CIRCUIT))
    + not_circuits(transpile_transmon),
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
    )
    + refused(lambda e: BackendConfig(epsilon=(0.01, e)))
    + raising(
        lambda: BackendConfig(epsilon=0.01),
        lambda: BackendConfig(epsilon=None),
        lambda: BackendConfig(confusion=np.eye(3)),
        lambda: BackendConfig(confusion="identity"),
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
    )
    + refused(lambda v: SweepGrid(r_min=v))
    + refused(lambda v: SweepGrid(r_max=v))
    + refused(lambda v: SweepGrid(t_min=v))
    + refused(lambda v: SweepGrid(t_max=v)),
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
    )
    + raising(lambda: load_confusion(None)),
    "miscalibrate": (
        *over(lambda eps: miscalibrate(CIRCUIT, eps), (*BAD_REALS, BIG)),
        *over(lambda eps: miscalibrate((), eps), (*BAD_REALS, BIG)),
        *refused(lambda eps: miscalibrate(CIRCUIT, eps)),
        *refused(lambda eps: miscalibrate((), eps)),
        *not_circuits(lambda c: miscalibrate(c, 0.1)),
    ),
    "postselect_ratios": (
        *over(lambda x: postselect_ratios(np.array([x, 1.0]), np.ones(2)), BAD_REALS),
        *over(lambda x: postselect_ratios(np.ones(2), np.array([1.0, x])), BAD_REALS),
        # a negative count or weight has no share; -0.0 is zero
        *raising(
            lambda: postselect_ratios(np.array([-1.0]), np.array([-3.0])),
            lambda: postselect_ratios(np.array([-1.0]), np.array([3.0])),
        ),
        *calls(lambda: postselect_ratios(np.array([-0.0, 1.0]), np.array([1.0, -0.0]))),
        # as a numpy array, 2**64 is a float: no numpy integer type holds it
        *calls(
            lambda: postselect_ratios(np.zeros(0), np.zeros(0)),
            lambda: postselect_ratios(np.ones(2), np.ones(3)),
            lambda: postselect_ratios(np.array([2.0**64]), np.array([2.0**64])),
            # sums past the float range
            lambda: postselect_ratios(np.array([1e308]), np.array([1e308])),
            lambda: postselect_ratios(np.array([MAX, 1.0, MAX]), np.array([MAX, 1.0, 1e308])),
            # an int64 sum past 2**63, bools and lists
            lambda: postselect_ratios(np.array([6 * 10**18]), np.array([6 * 10**18])),
            lambda: postselect_ratios(np.array([True]), np.array([True])),
            lambda: postselect_ratios([1.0], [3.0]),
        ),
    ),
    "run_point": (
        *over(lambda args: run_point(*args), [(p, b) for p in PAIRS for b in BACKENDS]),
        *over(lambda i: run_point(PTParams(0.5, 1.0), BACKENDS[1], i), (NAN, 1.5, BIG, -1)),
        *over(
            lambda key: run_point(PTParams(0.5, 1.0), BACKENDS[0], grid_key=key),
            ((1.5, 0), (NAN, 0), (0, INF), (BIG, 0), (0, -1), (0,)),
        ),
        *raising(
            lambda: run_point(PTParams(0.5, 1.0), BACKENDS[0], grid_key=5),
            lambda: run_point(PTParams(0.5, 1.0), BACKENDS[0], grid_key=None),
            lambda: run_point(PTParams(0.5, 1.0), BACKENDS[0], grid_key=(0, 0, 0)),
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
    "synthetic_confusion": over(synthetic_confusion, (*BAD_REALS, BIG, 0.0)) + refused(synthetic_confusion),
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


def test_a_bad_lambda_or_mu_is_named_not_read_as_too_small():
    # named as not real, not as LambdaTooSmall or ShiftTooSmall: a NaN is not
    # below any singular value
    for value in (*BAD_REALS, *NOT_REALS):
        with pytest.raises(ValueError, match="^lam must be a finite real, got"):
            rescaled_evolution(PTParams(0.5, 1.0), value)
        with pytest.raises(ValueError, match="^mu must be a finite real, got"):
            hamiltonian_shift_equivalence(PTParams(0.5, 1.0), value)


# an int Python will not print: more than 4300 digits
HUGE = 10**5000
# each call refuses HUGE as the argument it names
HUGE_REFUSALS = {
    "PTParams": ("r", lambda: PTParams(HUGE, 1.0)),
    "PTParams Fraction": ("r", lambda: PTParams(Fraction(HUGE), 1.0)),
    "PTParams Fraction in a tuple": ("r", lambda: PTParams((Fraction(HUGE),), 1.0)),
    "synthetic_confusion": ("diagonal", lambda: synthetic_confusion(HUGE)),
    "rx": ("theta", lambda: rx(0, 1, HUGE)),
    "miscalibrate": ("eps", lambda: miscalibrate((), HUGE)),
    "embed_check": ("lam", lambda: embed_check(np.eye(3), np.eye(2), HUGE)),
    "run_point grid_key": (
        "grid_key",
        lambda: run_point(PTParams(0.5, 1.0), BackendConfig(exact=True), grid_key=(HUGE, 0)),
    ),
    "run_point ion_index": ("ion_index", lambda: run_point(PTParams(0.5, 1.0), BACKENDS[1], HUGE)),
    "exact_probabilities ion_index": (
        "ion_index",
        lambda: exact_probabilities(PTParams(0.5, 1.0), BACKENDS[1], HUGE),
    ),
    "SweepGrid": ("r_steps", lambda: SweepGrid(r_steps=HUGE)),
    "BackendConfig kind": ("kind", lambda: BackendConfig(kind=HUGE)),
    "BackendConfig exact": ("exact", lambda: BackendConfig(exact=HUGE)),
    "Gate": ("subspace", lambda: Gate(GateKind.RX, (HUGE, 1), (0.5,))),
}


@pytest.mark.parametrize("case", sorted(HUGE_REFUSALS))
def test_a_refusal_names_its_argument_for_an_int_too_long_to_print(case):
    argument, call = HUGE_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert re.match(rf"(bad )?{argument}\b", message) and len(message) < 200, message


# each call refuses a circuit, gate, subspace or text of the wrong type with a
# message naming that argument
WRONG_TYPE_REFUSALS = {
    "parse_circuit None": ("text", lambda: parse_circuit(None)),
    "load_confusion None": ("text", lambda: load_confusion(None)),
    "circuit_unitary [1]": ("c", lambda: circuit_unitary([1])),
    "circuit_unitary None": ("c", lambda: circuit_unitary(None)),
    "transpile_ion [1]": ("c", lambda: transpile_ion([1])),
    "transpile_transmon [1]": ("c", lambda: transpile_transmon([1])),
    "transpile_transmon None": ("c", lambda: transpile_transmon(None)),
    "miscalibrate None": ("c", lambda: miscalibrate(None, 0.1)),
    "miscalibrate [1]": ("c", lambda: miscalibrate([1], 0.1)),
    "format_circuit [1]": ("c", lambda: format_circuit([1])),
    "format_circuit None": ("c", lambda: format_circuit(None)),
    "stats [1]": ("c", lambda: stats([1])),
    "stats None": ("c", lambda: stats(None)),
    "equivalent [1]": ("c", lambda: equivalent([1], ())),
    "gate_matrix 1": ("g", lambda: gate_matrix(1)),
    "Gate array (0, 1)": ("subspace", lambda: Gate(GateKind.RX, np.array([0, 1]), (0.5,))),
    "Gate array (0, 2)": ("subspace", lambda: Gate(GateKind.RX, np.array([0, 2]), (0.5,))),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_REFUSALS))
def test_a_wrong_typed_circuit_gate_or_text_is_named(case):
    argument, call = WRONG_TYPE_REFUSALS[case]
    with pytest.raises(ValueError, match=rf"^(bad )?{argument}\b"):
        call()
