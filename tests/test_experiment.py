"""Finite-shot emulation: confusion models, miscalibration, deterministic
sampling, per-point experiments, grid sweeps, and calibration estimation."""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_floats
from ptqsim import experiment
from ptqsim.experiment import (
    DEFAULT_ION_EPSILON,
    DEFAULT_TRANSMON_DIAGONAL,
    MAX_GRID_POINTS,
    MAX_SHOTS,
    BackendConfig,
    BackendKind,
    BadDistribution,
    ConfusionMatrix,
    ExperimentPoint,
    SweepGrid,
    SweepResult,
    _round_counts,
    default_backend,
    derive_seed,
    estimate_confusion,
    exact_probabilities,
    identity_confusion,
    load_confusion,
    miscalibrate,
    postselect_ratios,
    run_point,
    sample_counts,
    sweep,
    synthetic_confusion,
)
from ptqsim.dilation import qutrit_circuit
from ptqsim.gates import Circuit, circuit_unitary, rion, rx, rz, transpile_ion, transpile_transmon
from ptqsim.linalg import populations
from ptqsim.model import PTParams, qutrit_populations, return_probability

# population deficit of the miscalibrated (r=0, t=pi/2) pulse: sin^2(0.01 pi)
OVERROTATION_DEFICIT = 0.000986635785864219


def theory_backend(seed: int = 0, shots: int = 512, exact: bool = False):
    return BackendConfig(kind=BackendKind.THEORY, shots=shots, seed=seed, exact=exact)


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1.0, 0, 0], [0, 1, 0], [0, -0.1, 1.1]]))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.full((3, 3), 0.3))  # columns sum to 0.9
    with pytest.raises(ValueError):
        ConfusionMatrix(np.eye(2))
    # near-stochastic columns (entries still in [0, 1]) renormalize
    m = np.eye(3) * (1.0 - 5e-7)
    cm = ConfusionMatrix(m)
    assert np.array_equal(cm.entries, np.eye(3))
    assert not cm.entries.flags.writeable
    with pytest.raises(ValueError):
        ConfusionMatrix(np.eye(3) * (1.0 + 5e-7))  # entries above 1 rejected


def test_confusion_factories():
    assert np.array_equal(identity_confusion().entries, np.eye(3))
    assert identity_confusion().label == "identity"
    cm = synthetic_confusion(0.876, "tm")
    assert np.allclose(np.diag(cm.entries), 0.876, atol=1e-15)
    assert np.allclose(cm.entries.sum(axis=0), 1.0, atol=1e-12)
    assert cm.label == "tm"
    with pytest.raises(ValueError):
        synthetic_confusion(0.0)


def test_load_confusion():
    text = "0.9 0.05 0.05\n0.05 0.9 0.05\n0.05 0.05 0.9\n"
    cm = load_confusion(text, label="f")
    assert cm.label == "f"
    assert cm.entries[0, 0] == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError):
        load_confusion("0.9 0.05 0.05 0.05 0.9 0.05 0.05 0.05")  # 8 values
    with pytest.raises(ValueError):
        load_confusion("a b c d e f g h i")


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(shots=0)
    with pytest.raises(ValueError):
        BackendConfig(ion_count=0)
    with pytest.raises(ValueError):
        BackendConfig(epsilon=(0.5,))
    with pytest.raises(ValueError):
        BackendConfig(seed=-1)
    with pytest.raises(ValueError):
        BackendConfig(seed=2**64)
    for eps in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            BackendConfig(epsilon=(0.01, eps))
    for shots in (MAX_SHOTS + 1, 10**20):
        with pytest.raises(ValueError):
            BackendConfig(shots=shots)
    assert BackendConfig(shots=MAX_SHOTS).shots == 2**63 - 1


# each count, seed and index the library takes, as a call of its value
INTEGER_ARGUMENTS = {
    "shots": lambda v: run_point(PTParams(0.5, 1.0), BackendConfig(shots=v)),
    "exact shots": lambda v: run_point(PTParams(0.5, 1.0), BackendConfig(shots=v, exact=True)),
    "seed": lambda v: run_point(PTParams(0.5, 1.0), BackendConfig(seed=v)),
    "ion_count": lambda v: sweep(
        SweepGrid(r_steps=1, t_steps=130), BackendConfig(kind=BackendKind.ION, ion_count=v)
    ),
    "run_point ion_index": lambda v: run_point(
        PTParams(0.5, 1.0), default_backend(BackendKind.ION), ion_index=v
    ),
    # in exact mode: the sampled backend's array keys already refuse a float
    "run_point grid_key": lambda v: run_point(
        PTParams(0.5, 1.0), BackendConfig(exact=True), grid_key=(v, 0)
    ),
    "exact_probabilities ion_index": lambda v: exact_probabilities(
        PTParams(0.5, 1.0), default_backend(BackendKind.ION), ion_index=v
    ),
    "preparations": lambda v: estimate_confusion(BackendConfig(), v),
    "sample_counts shots": lambda v: sample_counts(np.array([0.5, 0.5, 0.0]), v, 3),
    "sample_counts seed": lambda v: sample_counts(np.array([0.5, 0.5, 0.0]), 10, v),
    "r_steps": lambda v: SweepGrid(r_steps=v),
    "t_steps": lambda v: SweepGrid(t_steps=v),
    "derive_seed seed": lambda v: derive_seed(v),
    "derive_seed key": lambda v: derive_seed(2, v),
    "derive_seed later key": lambda v: derive_seed(2, 0, 3, v),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_counts_seeds_and_indices_must_be_integers(name):
    # a float is refused, not truncated; numpy integers act as ints
    call = INTEGER_ARGUMENTS[name]
    for value in (2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)
    for integer in (np.int8(2), np.uint64(2)):
        assert repr(call(integer)) == repr(call(2))


def test_exact_must_be_a_bool():
    # a truthy non-bool once turned exact mode on
    for value in ("no", 1, 0.0, None, np.int8(1)):
        with pytest.raises(ValueError, match="exact must be a bool"):
            BackendConfig(exact=value)
    sampled = run_point(PTParams(0.5, 1.0), BackendConfig(exact=np.bool_(False))).p0_raw
    assert sampled * 512 == int(sampled * 512)
    exact = run_point(PTParams(0.5, 1.0), BackendConfig(exact=np.bool_(True))).p0_raw
    assert exact == return_probability(PTParams(0.5, 1.0))


def test_epsilon_is_stored_as_a_tuple_of_floats():
    # an array of over-rotations was once stored, and its ion sweep then
    # raised numpy's ambiguous-truth error
    backend = BackendConfig(kind=BackendKind.ION, epsilon=np.array([0.01, 0.02]))
    assert backend.epsilon == (0.01, 0.02)
    assert all(type(e) is float for e in backend.epsilon)
    grid = SweepGrid(r_steps=2, t_steps=3)
    want = sweep(grid, BackendConfig(kind=BackendKind.ION, epsilon=(0.01, 0.02)))
    got = sweep(grid, backend)
    assert np.array_equal(got.p_exact, want.p_exact) and np.array_equal(got.counts, want.counts)


def test_kind_must_be_a_backend_kind():
    # a string kind was once stored, and its sweep ran as theory
    for value in ("ion", "theory", None, 1):
        with pytest.raises(ValueError, match="kind must be a BackendKind"):
            BackendConfig(kind=value)
        with pytest.raises(ValueError, match="kind must be a BackendKind"):
            default_backend(value)


def test_default_backends():
    ion = default_backend(BackendKind.ION, seed=3)
    assert ion.shots == 512
    assert ion.epsilon == DEFAULT_ION_EPSILON
    assert ion.confusion is not None and ion.confusion.label == "synthetic-ion-0.97"
    assert ion.seed == 3
    tm = default_backend(BackendKind.TRANSMON)
    assert tm.shots == 8192
    assert tm.confusion is not None and tm.confusion.label == "synthetic-transmon-0.876"
    th = default_backend(BackendKind.THEORY)
    assert th.shots == 512 and th.confusion.label == "identity"
    assert np.array_equal(th.confusion.entries, np.eye(3))


def test_exact_probabilities_theory():
    probs = exact_probabilities(PTParams(0.0, math.pi / 2.0), theory_backend())
    assert np.allclose(probs, [0.0, 1.0, 0.0], atol=1e-12)
    probs = exact_probabilities(PTParams(0.7, 1.9), theory_backend())
    assert abs(float(probs.sum()) - 1.0) < 1e-12
    assert np.array_equal(probs, qutrit_populations(PTParams(0.7, 1.9)))


def test_noise_free_backends_match_theory():
    rng = np.random.default_rng(79)
    for kind in (BackendKind.ION, BackendKind.TRANSMON):
        clean = BackendConfig(kind=kind, confusion=identity_confusion(), epsilon=())
        for _ in range(25):
            p = PTParams(float(rng.uniform(0, 2)), float(rng.uniform(0, 10)))
            got = exact_probabilities(p, clean)
            want = exact_probabilities(p, theory_backend())
            assert np.max(np.abs(got - want)) < 1e-10
            assert abs(float(got.sum()) - 1.0) < 1e-12


def test_exact_probabilities_sum_with_confusion():
    backend = default_backend(BackendKind.TRANSMON)
    for r, t in ((0.5, 1.0), (1.2, 4.0)):
        probs = exact_probabilities(PTParams(r, t), backend)
        assert abs(float(probs.sum()) - 1.0) < 1e-12
        assert float(probs.min()) >= 0.0


def test_transmon_matches_native_pulse_reference():
    # the emulator reads out the exact populations; the transmon's native
    # pulses must give the same distribution
    backend = default_backend(BackendKind.TRANSMON)
    rng = np.random.default_rng(31)
    points = [(0.0, 0.0), (1.0, 2.5), (1.2, 5.0)]
    points += zip(rng.uniform(0, 2, 40), rng.uniform(0, 10, 40))
    for r, t in points:
        p = PTParams(float(r), float(t))
        native = circuit_unitary(transpile_transmon(qutrit_circuit(p)))
        want = backend.confusion.entries @ populations(native[:, 0])
        assert np.max(np.abs(exact_probabilities(p, backend) - want)) < 1e-12


def test_miscalibrate_examples():
    c = Circuit((rx(0, 1, math.pi), rz(1, 2, 0.7), rion(0, 2, 0.3, 1.0)))
    assert miscalibrate(c, 0.0) == c
    out = miscalibrate(c, 0.01)
    assert out[0].angles[0] == pytest.approx(1.01 * math.pi, abs=1e-15)
    assert out[1] == c[1]  # virtual phases untouched
    assert out[2].angles[0] == 0.3  # pulse phase untouched
    assert out[2].angles[1] == pytest.approx(1.01, abs=1e-15)
    with pytest.raises(ValueError):
        miscalibrate(c, 0.5)


def test_miscalibration_population_deficit():
    # the two RY conjugation pulses cancel exactly even when over-rotated,
    # so the deficit comes from the two (0,1) pulses alone
    backend = BackendConfig(kind=BackendKind.ION, epsilon=(0.02,))
    probs = exact_probabilities(PTParams(0.0, math.pi / 2.0), backend)
    assert abs((1.0 - probs[1]) - OVERROTATION_DEFICIT) < 1e-12


def numpy_seed(base, *key):
    return int(np.random.SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)[0])


def numpy_generator(seed):
    """A fresh numpy generator on the stream that seed names."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def numpy_counts(probs, shots, seed):
    """`sample_counts` rebuilt from numpy alone: clip, renormalize, draw."""
    clean = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    return numpy_generator(seed).multinomial(shots, clean / clean.sum())


def id_words(ids):
    """The two uint32 entropy words of each 64-bit stream id."""
    ids = np.asarray(ids, dtype=np.uint64)
    return [(ids & 0xFFFFFFFF).astype(np.uint32), (ids >> 32).astype(np.uint32)]


EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=3),
)
def test_derive_seed_matches_numpy_seed_sequence(base, key):
    assert derive_seed(base, *key) == numpy_seed(base, *key)


@settings(deadline=None, max_examples=50)
@given(
    st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_derive_seed_array_keys_match_scalar_keys(base, i_r, i_t):
    got = derive_seed(base, 0, np.array(i_r), i_t)
    assert got.dtype == np.uint64 and got.shape == (len(i_r),)
    assert got.tolist() == [derive_seed(base, 0, k, i_t) for k in i_r]
    assert got.tolist() == [numpy_seed(base, 0, k, i_t) for k in i_r]


@pytest.mark.parametrize("base", EDGE_SEEDS)
def test_derive_seed_array_keys_up_to_the_grid_cap(base):
    # the largest grid keys a sweep can give: MAX_GRID_POINTS rows of one column
    keys = np.array([0, 1, 2, 4095, 4096, MAX_GRID_POINTS - 2, MAX_GRID_POINTS - 1])
    for got, i_r in zip(derive_seed(base, 0, keys, np.zeros_like(keys)).tolist(), keys):
        assert got == numpy_seed(base, 0, int(i_r), 0)
    for got, i_t in zip(derive_seed(base, 0, 0, keys).tolist(), keys):
        assert got == numpy_seed(base, 0, 0, int(i_t))
    # keys of different shapes broadcast
    grid = derive_seed(base, 0, keys[:, None], keys[:3])
    assert grid.shape == (7, 3) and int(grid[5, 2]) == numpy_seed(base, 0, MAX_GRID_POINTS - 2, 2)
    assert derive_seed(base, 0, np.array(3), np.array(4)).tolist() == [numpy_seed(base, 0, 3, 4)]


def test_derive_seed_rejects_out_of_range_array_keys():
    for bad in ([-1, 0], [0, 2**32], [2**40]):
        with pytest.raises(ValueError):
            derive_seed(5, 0, np.array(bad), 0)
    with pytest.raises(ValueError):
        derive_seed(5, 0, np.array([0.5]), 0)
    with pytest.raises(ValueError):
        derive_seed(5, -1)
    assert derive_seed(5, 0, np.array([], dtype=np.int64), 0).shape == (0,)


def test_derive_seed_determinism_and_spread():
    assert derive_seed(7, 0, 3, 4) == derive_seed(7, 0, 3, 4)
    seen = {
        derive_seed(base, stream, i, j)
        for base in (0, 1)
        for stream in (0, 1)
        for i in range(3)
        for j in range(3)
    }
    assert len(seen) == 36
    assert all(0 <= s < 2**64 for s in seen)


def test_sample_counts_examples():
    counts = sample_counts(np.array([1.0, 0.0, 0.0]), 100, seed=5)
    assert np.array_equal(counts, [100, 0, 0])
    again = sample_counts(np.array([0.3, 0.3, 0.4]), 512, seed=11)
    assert np.array_equal(again, sample_counts(np.array([0.3, 0.3, 0.4]), 512, seed=11))
    assert np.array_equal(again, numpy_counts([0.3, 0.3, 0.4], 512, 11))
    assert int(again.sum()) == 512
    with pytest.raises(BadDistribution):
        sample_counts(np.array([0.5, 0.6, -0.1]), 10, seed=0)
    with pytest.raises(BadDistribution):
        sample_counts(np.array([0.3, 0.3, 0.3]), 10, seed=0)
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0, 0.0, 0.0]), 0, seed=0)
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0, 0.0, 0.0]), MAX_SHOTS + 1, seed=0)
    for nan_probs in ([math.nan, 0.5, 0.5], [0.5, 0.5, math.nan], [math.nan] * 3):
        with pytest.raises(BadDistribution):
            sample_counts(np.array(nan_probs), 10, seed=0)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)), min_size=1, max_size=20))
def test_philox_keys_match_numpy_seed_sequence(ids):
    # a Philox seeded from SeedSequence(id) takes generate_state(2, np.uint64) as its key
    keys = np.array(experiment._generate(id_words(ids), 2), dtype=np.uint64).T
    want = [np.random.SeedSequence(i).generate_state(2, np.uint64).tolist() for i in ids]
    assert keys.tolist() == want
    for i, key in zip(ids, want):
        assert experiment._generate(experiment._words(i), 2) == key
    assert [np.random.Philox(np.random.SeedSequence(i)).state["state"]["key"].tolist()
            for i in ids] == want


SAMPLER_SHOTS = (1, 512, 8192, MAX_SHOTS)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
             min_size=1, max_size=3),
    st.sampled_from(SAMPLER_SHOTS) | st.integers(1, 10**6),
    st.sampled_from(EDGE_SEEDS + (2**64, 2**100)) | st.integers(0, 2**64 - 1),
)
def test_sample_counts_matches_numpy_generator(weights, shots, seed):
    for w in weights:
        probs = np.array(w) / sum(w)
        assert np.array_equal(sample_counts(probs, shots, seed), numpy_counts(probs, shots, seed))


def test_sampler_state_does_not_leak_between_rows():
    # one sampler over rows in shuffled order, with every shot count and the
    # degenerate rows, must draw what a fresh numpy generator draws per row
    rng = np.random.default_rng(12)
    rows = [np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])]
    rows += list(rng.dirichlet([1.0, 1.0, 1.0], 5))
    ids = list(EDGE_SEEDS) + rng.integers(0, 2**63, 3).tolist()
    cases = [(p, shots, i) for p in rows for shots in SAMPLER_SHOTS for i in ids[:3]]
    cases += [(rows[k % len(rows)], SAMPLER_SHOTS[k % 4], i) for k, i in enumerate(ids)]
    rng.shuffle(cases)
    draw = experiment._draw
    for start in range(0, len(cases), 3):
        # blocks of one to three rows that share a shot count
        block = [cases[start]]
        block += [c for c in cases[start + 1:start + 3] if c[1] == block[0][1]]
        probs, shots, block_ids = np.array([c[0] for c in block]), block[0][1], [c[2] for c in block]
        got = draw(probs, shots, id_words(block_ids))
        for counts, (p, _, i) in zip(got, block):
            assert np.array_equal(counts, numpy_counts(p, shots, i))


def plain(state):
    """A copy of a bit generator state in Python ints and lists."""
    return {k: plain(v) if isinstance(v, dict) else np.asarray(v, dtype=object).tolist() for k, v in state.items()}


def test_sampler_installs_the_state_a_seeded_philox_starts_in(monkeypatch):
    # the sampler re-keys one state dict before each row; a numpy that adds a
    # state field or starts Philox elsewhere must fail here, not in the counts
    installed, base = [], np.random.Philox

    class Philox(base):  # the state setter checks the class name
        @property
        def state(self):
            return base.state.__get__(self)

        @state.setter
        def state(self, value):
            installed.append(plain(value))
            base.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", Philox)
    ids = list(EDGE_SEEDS) + [2**63, 12345]
    experiment._draw(np.full((len(ids), 3), 1 / 3), 10, id_words(ids))
    assert installed == [plain(base(np.random.SeedSequence(i)).state) for i in ids]


def test_sampler_takes_key_words_at_or_above_2_63():
    # plain ints at or above 2**63 must reach the setter as uint64 words
    ids = [i for i in range(200) if min(np.random.SeedSequence(i).generate_state(2, np.uint64)) >= 2**63]
    assert len(ids) >= 10
    rng = np.random.default_rng(5)
    probs = rng.dirichlet([1.0, 1.0, 1.0], len(ids))
    for shots in SAMPLER_SHOTS:
        got = experiment._draw(probs, shots, id_words(ids))
        for counts, p, i in zip(got, probs, ids):
            assert np.array_equal(counts, numpy_counts(p, shots, i))


def test_sampler_checks_every_row():
    draw = experiment._draw
    good = [1.0, 0.0, 0.0]
    for bad, message in (
        ([0.5, 0.6, -0.1], "probability -1.000e-01 is negative"),
        ([0.3, 0.3, 0.3], "probabilities sum to 0.8999"),
        ([0.5, 0.5, math.nan], "probability nan is negative or NaN"),
    ):
        with pytest.raises(BadDistribution, match=message):
            draw(np.array([good, good, bad]), 10, id_words([1, 2, 3]))
        with pytest.raises(BadDistribution, match=message):
            sample_counts(np.array(bad), 10, seed=3)


@pytest.mark.filterwarnings("error")
def test_sampler_reports_the_first_failing_row():
    # the block is checked as arrays, and the message is the one the first
    # failing row raised a row at a time: its negative entry before its sum
    draw = experiment._draw
    good, bad_sum, nan = [1.0, 0.0, 0.0], [0.3, 0.3, 0.3], [0.5, 0.5, math.nan]
    for rows, message in (
        ([good, bad_sum, nan], "probabilities sum to 0.8999"),
        ([good, nan, bad_sum], "probability nan is negative or NaN"),
        ([good, [0.5, 0.6, -0.2], nan], "probability -2.000e-01 is negative"),
        ([good, [math.inf, -math.inf, 1.0], bad_sum], "probability -inf is negative"),
        ([good, [math.inf, 0.0, 0.0], nan], "probabilities sum to inf"),
    ):
        with pytest.raises(BadDistribution, match=message):
            draw(np.array(rows), 10, id_words([1, 2, 3]))


def test_sample_counts_law_of_large_numbers():
    counts = sample_counts(np.array([0.5, 0.5, 0.0]), 10**6, seed=7)
    assert abs(counts[0] / 10**6 - 0.5) < 0.002
    assert counts[2] == 0


def test_postselect_ratios():
    # counts (3, 1, 4) and (0, 0, 9): the second keeps no shot
    ratios = postselect_ratios(np.array([3, 0]), np.array([1, 0]))
    assert ratios[0] == 0.75 and math.isnan(ratios[1])


def test_postselect_ratios_sums_in_floats():
    big = sys.float_info.max
    first, second = np.array([1e308, big, big, 3.0, -0.0, 0.0]), np.array([1e308, big, 1e308, 1.0, -0.0, 0.0])
    ratios = postselect_ratios(first, second)
    assert ratios[:2].tolist() == [0.5, 0.5]
    assert math.isclose(ratios[2], Fraction(big) / (Fraction(big) + Fraction(1e308)), rel_tol=2**-52)
    # the rows whose sum is a float are untouched
    assert ratios[3] == 0.75 and math.isnan(ratios[4]) and math.isnan(ratios[5])
    # summed as floats: int64 would wrap past 2**63, and bools would or
    assert postselect_ratios(np.array([6 * 10**18]), np.array([6 * 10**18])).tolist() == [0.5]
    assert postselect_ratios(np.array([True]), np.array([True])).tolist() == [0.5]
    assert postselect_ratios([1.0], [3.0]).tolist() == [0.25]


def float_round_counts(probs, shots):
    """Largest-remainder rounding in float arithmetic, exact while
    shots * probs stays far inside 2**53."""
    scaled = np.clip(probs, 0.0, None) * shots
    base = np.floor(scaled).astype(np.int64)
    base[np.argsort(-(scaled - base))[: shots - int(base.sum())]] += 1
    return base


def test_round_counts_matches_float_rounding_on_closed_forms():
    grid = SweepGrid(r_min=0.0, r_max=2.0, r_steps=21, t_min=0.0, t_max=10.0, t_steps=21)
    backends = (theory_backend(), default_backend(BackendKind.TRANSMON),
                default_backend(BackendKind.ION), BackendConfig(BackendKind.TRANSMON, confusion=LEAKY))
    for backend in backends:
        for r in grid.r_values():
            for i_t, t in enumerate(grid.t_values()):
                probs = exact_probabilities(PTParams(float(r), float(t)), backend, i_t % 5)
                for shots in (1, 2, 3, 100, 512, 8192, 10**6):
                    assert np.array_equal(_round_counts(probs, shots), float_round_counts(probs, shots))


@pytest.mark.parametrize(
    "probs, want",
    [
        ((1.0, 0.0, 0.0), (MAX_SHOTS, 0, 0)),
        ((0.5, 0.5, 0.0), (2**62, 2**62 - 1, 0)),
        ((0.0, 0.0, 1.0), (0, 0, MAX_SHOTS)),
        ((1 / 3, 1 / 3, 1 / 3), (MAX_SHOTS // 3 + 1, MAX_SHOTS // 3, MAX_SHOTS // 3)),
    ],
)
def test_round_counts_is_exact_at_max_shots(probs, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _round_counts(np.array(probs), MAX_SHOTS)
    assert counts.dtype == np.int64 and counts.tolist() == list(want)
    assert sum(counts.tolist()) == MAX_SHOTS


def test_run_point_exact_mode_at_max_shots():
    backend = theory_backend(shots=MAX_SHOTS, exact=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, t in ((0.0, 0.0), (0.4, 1.3), (1.0, 2.0), (1.6, 7.5)):
            counts = run_point(PTParams(r, t), backend).counts
            assert counts.dtype == np.int64 and sum(counts.tolist()) == MAX_SHOTS
            assert counts.min() >= 0


def test_run_point_exact_mode_matches_closed_form():
    rng = np.random.default_rng(83)
    backend = theory_backend(exact=True)
    for _ in range(25):
        p = PTParams(float(rng.uniform(0, 1.2)), float(rng.uniform(0, 5)))
        pt = run_point(p, backend)
        assert pt.p0_raw == pytest.approx(return_probability(p), abs=1e-12)
        assert int(pt.counts.sum()) == backend.shots


def test_run_point_degenerate_start():
    for backend in (theory_backend(), default_backend(BackendKind.ION)):
        clean = BackendConfig(
            kind=backend.kind, shots=64, epsilon=backend.epsilon, seed=1
        )
        pt = run_point(PTParams(0.0, 0.0), clean)
        assert np.array_equal(pt.counts, [64, 0, 0])
        assert pt.p0_raw == 1.0
        assert pt.p0_postselected == 1.0
        assert pt.postselect_kept == 64


def test_run_point_empty_postselection_is_missing():
    sink = ConfusionMatrix(
        np.array([[0.0, 0, 0], [0, 0, 0], [1, 1, 1.0]]), label="sink"
    )
    pt = run_point(
        PTParams(0.0, 0.0),
        BackendConfig(kind=BackendKind.ION, shots=32, confusion=sink, seed=0),
    )
    assert pt.p0_postselected is None
    assert pt.postselect_kept == 0
    assert pt.p0_raw == 0.0


def test_run_point_ion_index_bounds():
    backend = default_backend(BackendKind.ION)
    with pytest.raises(ValueError):
        run_point(PTParams(0.5, 1.0), backend, ion_index=5)
    pt = run_point(PTParams(0.5, 1.0), backend, ion_index=2)
    assert pt.ion == 2
    pt = run_point(PTParams(0.5, 1.0), theory_backend())
    assert pt.ion is None
    # three ions under the five default over-rotations: index 4 and -1 both
    # name epsilon[4], which no ion of this backend has
    three = BackendConfig(kind=BackendKind.ION, ion_count=3, epsilon=DEFAULT_ION_EPSILON)
    for ion_index in (3, 4, -1):
        for call in (run_point, exact_probabilities):
            with pytest.raises(ValueError, match=rf"ion_index {ion_index} outside 0\.\.2"):
                call(PTParams(0.5, 1.0), three, ion_index)
    for grid_key in ((2**32, 0), (0, -1)):
        with pytest.raises(ValueError, match="grid_key"):
            run_point(PTParams(0.5, 1.0), three, grid_key=grid_key)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(r_steps=0)
    with pytest.raises(ValueError):
        SweepGrid(r_min=-0.1)
    with pytest.raises(ValueError):
        SweepGrid(t_min=2.0, t_max=1.0)
    # the point cap is checked on the step counts alone; no grid is built
    with pytest.raises(ValueError, match="exceeds"):
        SweepGrid(r_steps=10**4, t_steps=10**4)
    assert SweepGrid(r_steps=MAX_GRID_POINTS, t_steps=1).r_steps == MAX_GRID_POINTS
    grid = SweepGrid(r_min=0, r_max=1, r_steps=3, t_min=0, t_max=2, t_steps=5)
    assert np.allclose(grid.r_values(), [0, 0.5, 1.0])
    assert len(grid.t_values()) == 5


def test_sweep_grid_values_near_the_float_maximum():
    # linspace's last step overflows there, before linspace sets it to the bound
    top = sys.float_info.max
    grid = SweepGrid(r_max=top, r_steps=7, t_min=top / 4, t_max=top, t_steps=7)
    with np.errstate(over="ignore"):
        want_r, want_t = np.linspace(0.0, top, 7), np.linspace(top / 4, top, 7)
    assert grid.r_values().tobytes() == want_r.tobytes()
    assert grid.t_values().tobytes() == want_t.tobytes()
    assert grid.r_values()[-1] == grid.t_values()[-1] == top


def test_sweep_is_r_major_and_matches_closed_form():
    grid = SweepGrid(r_min=0, r_max=1.2, r_steps=3, t_min=0, t_max=2, t_steps=4)
    points = sweep(grid, theory_backend(exact=True))
    assert len(points) == 12
    coords = [(pt.r, pt.t) for pt in points]
    want = [
        (float(r), float(t)) for r in grid.r_values() for t in grid.t_values()
    ]
    assert coords == want
    for pt in points:
        assert pt.p_exact[0] == pytest.approx(
            return_probability(PTParams(pt.r, pt.t)), abs=1e-12
        )


def test_sweep_single_origin_point():
    grid = SweepGrid(r_min=0, r_max=0, r_steps=1, t_min=0, t_max=0, t_steps=1)
    (pt,) = sweep(grid, theory_backend())
    assert pt.p0_raw == 1.0


def test_sweep_ion_assignment_is_column_constant():
    grid = SweepGrid(r_min=0, r_max=1.2, r_steps=4, t_min=0, t_max=5, t_steps=7)
    backend = default_backend(BackendKind.ION)
    points = sweep(grid, backend)
    for idx, pt in enumerate(points):
        i_t = idx % grid.t_steps
        assert pt.ion == i_t % backend.ion_count


def test_estimate_confusion_identity_is_exact():
    backend = BackendConfig(
        kind=BackendKind.ION, confusion=identity_confusion(), seed=5
    )
    est = estimate_confusion(backend, 100)
    assert np.array_equal(est.entries, np.eye(3))
    assert est.label == "estimated(identity)"


def test_estimate_confusion_determinism_and_accuracy():
    backend = BackendConfig(
        kind=BackendKind.ION,
        confusion=synthetic_confusion(0.97, "ion"),
        seed=9,
    )
    est1 = estimate_confusion(backend, 10**4)
    est2 = estimate_confusion(backend, 10**4)
    assert np.array_equal(est1.entries, est2.entries)
    true = synthetic_confusion(0.97, "ion").entries
    assert float(np.max(np.abs(est1.entries - true))) < 0.01
    with pytest.raises(ValueError):
        estimate_confusion(backend, 0)
    with pytest.raises(ValueError):
        estimate_confusion(backend, 10**20)
    assert float(np.max(np.abs(estimate_confusion(backend, MAX_SHOTS).entries - true))) < 1e-6


def test_experiment_point_is_value_like():
    pt = run_point(PTParams(0.3, 0.7), theory_backend())
    assert isinstance(pt, ExperimentPoint)
    assert pt.r == 0.3 and pt.t == 0.7
    assert pt.counts.sum() == 512


LEAKY = ConfusionMatrix(
    np.array([[0.1, 0.05, 0.0], [0.05, 0.1, 0.0], [0.85, 0.85, 1.0]]), label="leaky"
)
SINK = ConfusionMatrix(np.array([[0.0, 0, 0], [0, 0, 0], [1, 1, 1.0]]), label="sink")


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(finite_floats(0.0, 3.0), finite_floats(0.0, 10.0)), min_size=1, max_size=40),
    st.sampled_from([synthetic_confusion(DEFAULT_TRANSMON_DIAGONAL), synthetic_confusion(0.5), LEAKY, SINK]),
)
def test_transmon_rows_equal_confusion_times_populations(points, confusion):
    r, t = np.array(points).T
    backend = BackendConfig(kind=BackendKind.TRANSMON, confusion=confusion)
    got = experiment._probabilities(backend, r, t, None)
    want = [confusion.entries @ qutrit_populations(PTParams(*p)) for p in points]
    assert got.tobytes() == np.array(want).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        st.builds(lambda k, side: 1.0 + side * 10.0**-k, st.integers(1, 17), st.sampled_from([-1, 1])),
        finite_floats(1.5, 1e6),
    ),
    finite_floats(0.0, 1e4),
    st.integers(1, 6),
    st.lists(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True), max_size=6).map(tuple),
    st.integers(1, 7),
    st.sampled_from([synthetic_confusion(0.97), LEAKY, SINK]),
)
def test_ion_rows_equal_confusion_times_native_populations(r, t_max, t_steps, epsilon, ions, confusion):
    # near the exceptional point r = 1 and deep in the broken phase r > 1
    grid = SweepGrid(r_min=r, r_max=r, r_steps=1, t_max=t_max, t_steps=t_steps)
    backend = BackendConfig(
        kind=BackendKind.ION, shots=4, confusion=confusion, ion_count=ions, epsilon=epsilon
    )
    want = []
    for i_t, t in enumerate(grid.t_values().tolist()):
        eps = epsilon[i_t % ions % len(epsilon)] if epsilon else 0.0
        native = miscalibrate(transpile_ion(qutrit_circuit(PTParams(r, t))), eps)
        want.append(confusion.entries @ populations(circuit_unitary(native)[:, 0]))
    assert sweep(grid, backend).p_exact.tobytes() == np.array(want).tobytes()


def reference_points(grid, backend):
    """The sweep rebuilt a point at a time from its public parts."""
    is_ion = backend.kind is BackendKind.ION
    ions = backend.ion_count if is_ion else 1
    points = []
    for i_r, r in enumerate(grid.r_values()):
        for i_t, t in enumerate(grid.t_values()):
            p = PTParams(float(r), float(t))
            probs = exact_probabilities(p, backend, i_t % ions)
            if backend.exact:
                counts = _round_counts(probs, backend.shots)
                p0_raw = float(probs[0])
                mass = float(probs[0]) + float(probs[1])
                post = float(probs[0]) / mass if mass > 0.0 else None
            else:
                # numpy's hash and generator, so this reference rests on no
                # part of the library's sampler
                counts = numpy_counts(probs, backend.shots, numpy_seed(backend.seed, 0, i_r, i_t))
                p0_raw = int(counts[0]) / backend.shots
                kept = int(counts[0]) + int(counts[1])
                post = int(counts[0]) / kept if kept else None
            kept = int(counts[0]) + int(counts[1])
            ion = i_t % ions if is_ion else None
            points.append(ExperimentPoint(p.r, p.t, probs, counts, p0_raw, post, kept, ion))
    return points


def assert_same_point(got, want):
    scalars = ("r", "t", "p0_raw", "p0_postselected", "postselect_kept", "ion")
    assert [getattr(got, f) for f in scalars] == [getattr(want, f) for f in scalars]
    # records hold plain Python scalars, as a point-at-a-time sweep did
    assert [type(getattr(got, f)) for f in scalars] == [type(getattr(want, f)) for f in scalars]
    assert np.array_equal(got.p_exact, want.p_exact)
    assert np.array_equal(got.counts, want.counts) and got.counts.dtype == np.int64


SWEEP_BACKENDS = {
    "theory": lambda seed: theory_backend(seed),
    "theory-exact": lambda seed: theory_backend(seed, exact=True),
    "ion": lambda seed: default_backend(BackendKind.ION, seed),
    "ion-leaky": lambda seed: BackendConfig(
        kind=BackendKind.ION, shots=4, confusion=LEAKY, ion_count=3,
        epsilon=DEFAULT_ION_EPSILON, seed=seed,
    ),
    "transmon": lambda seed: default_backend(BackendKind.TRANSMON, seed),
    "transmon-exact": lambda seed: BackendConfig(
        kind=BackendKind.TRANSMON, shots=100, confusion=LEAKY, seed=seed, exact=True
    ),
    "sink": lambda seed: BackendConfig(kind=BackendKind.ION, shots=8, confusion=SINK, seed=seed),
    "sink-exact": lambda seed: BackendConfig(
        kind=BackendKind.TRANSMON, confusion=SINK, seed=seed, exact=True
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEP_BACKENDS))
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_sweep_matches_point_reference(name, seed):
    grid = SweepGrid(r_min=0.0, r_max=1.8, r_steps=5, t_min=0.0, t_max=4.0, t_steps=7)
    backend = SWEEP_BACKENDS[name](seed)
    result = sweep(grid, backend)
    want = reference_points(grid, backend)
    assert isinstance(result, SweepResult) and len(result) == len(want) == 35
    for got, ref in zip(result, want):
        assert_same_point(got, ref)
    if name.startswith("sink"):
        assert all(pt.p0_postselected is None for pt in result)
    if name == "ion-leaky":
        # some points keep shots in the (0,1) subspace and some keep none
        assert len({pt.p0_postselected is None for pt in result}) == 2


@pytest.mark.parametrize("name", ["ion-leaky", "transmon-exact"])
@pytest.mark.parametrize("block", [1, 8, 34, 35])
def test_sweep_matches_point_reference_across_seed_blocks(monkeypatch, name, block):
    # blocks that split the 35 points evenly, unevenly and not at all
    monkeypatch.setattr(experiment, "SEED_BLOCK", block)
    grid = SweepGrid(r_min=0.0, r_max=1.8, r_steps=5, t_min=0.0, t_max=4.0, t_steps=7)
    backend = SWEEP_BACKENDS[name](2**64 - 1)
    result, want = sweep(grid, backend), reference_points(grid, backend)
    assert len(result) == len(want) == 35
    for got, ref in zip(result, want):
        assert_same_point(got, ref)


def test_sweep_result_columns_and_indexing():
    grid = SweepGrid(r_min=0.0, r_max=1.8, r_steps=5, t_min=0.0, t_max=4.0, t_steps=7)
    backend = SWEEP_BACKENDS["ion-leaky"](3)
    result = sweep(grid, backend)
    n = len(result)
    assert result.p_exact.shape == result.counts.shape == (n, 3)
    assert result.counts.dtype == np.int64
    for column in (result.r, result.t, result.p0_raw, result.p0_postselected,
                   result.postselect_kept, result.ion):
        assert column.shape == (n,) and not column.flags.writeable
    assert np.array_equal(np.isnan(result.p0_postselected), result.postselect_kept == 0)
    assert sweep(grid, theory_backend()).ion is None
    for i in (0, 1, n - 1):
        assert_same_point(result[i - n], result[i])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            result[i]
    assert len(list(result)) == n
    for i, pt in enumerate(result):
        assert_same_point(pt, result[i])
        i_r, i_t = divmod(i, grid.t_steps)
        single = run_point(
            PTParams(pt.r, pt.t), backend, ion_index=i_t % 3, grid_key=(i_r, i_t)
        )
        assert_same_point(single, pt)
