"""Finite-shot emulation of the hardware experiments.

A grid point is evaluated from the closed-form qutrit populations; the ion
backend instead transpiles the circuit to its native pulses and applies
per-ion systematic over-rotation. The populations are mixed through a readout
confusion matrix, and multinomial counts are drawn from a counter-based
generator keyed by (seed, grid indices), so each point's counts depend only
on its grid position.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dilation import qutrit_circuit
from .gates import Circuit, Gate, GateKind, _gates, circuit_unitary, transpile_ion
from .linalg import _finite, _instance, _integer, _real, _shown, populations
from .model import PTParams, qutrit_populations_array

DEFAULT_ION_EPSILON = (0.02, -0.015, 0.01, -0.02, 0.005)
DEFAULT_ION_DIAGONAL = 0.97
DEFAULT_TRANSMON_DIAGONAL = 0.876
# a sweep holds about 100 bytes of columns per point; a typo in a step count
# must not grow it
MAX_GRID_POINTS = 10**7
# the largest shot count numpy's multinomial draw takes (int64)
MAX_SHOTS = 2**63 - 1
# points whose stream ids are derived together: bounds the transient memory
# of a sweep for every grid shape
SEED_BLOCK = 1024


class BadDistribution(ValueError):
    """Probability vector with a genuinely negative or non-normalized entry."""


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Column-stochastic readout model: entries[i][j] = P(declared i | prepared j)."""

    entries: np.ndarray
    label: str = "custom"

    def __post_init__(self) -> None:
        _instance("label", self.label, str)
        m = _finite(self.entries, "confusion matrix", (3, 3), float)
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            raise ValueError("confusion matrix entries must lie in [0, 1]")
        sums = m.sum(axis=0)
        if float(np.max(np.abs(sums - 1.0))) > 1e-6:
            raise ValueError(f"columns must sum to 1 within 1e-6, got {sums}")
        m = np.clip(m, 0.0, 1.0)
        m = m / m.sum(axis=0, keepdims=True)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def identity_confusion() -> ConfusionMatrix:
    return ConfusionMatrix(np.eye(3), label="identity")


def synthetic_confusion(diagonal: float, label: str = "synthetic") -> ConfusionMatrix:
    """Uniform-error model: given diagonal, off-diagonal mass split evenly."""
    if not 0.0 < _real("diagonal", diagonal) <= 1.0:
        raise ValueError("diagonal must be in (0, 1]")
    off = (1.0 - diagonal) / 2.0
    m = np.full((3, 3), off)
    np.fill_diagonal(m, diagonal)
    return ConfusionMatrix(m, label=label)


def load_confusion(text: str, label: str = "file") -> ConfusionMatrix:
    """Nine whitespace-separated reals, row-major; columns re-normalized when
    within 1e-6 of stochastic, rejected otherwise."""
    words = _instance("text", text, str).split()
    try:
        values = [float(x) for x in words]
    except ValueError as exc:
        raise ValueError(f"confusion file: {exc}") from None
    if len(values) != 9:
        raise ValueError(f"confusion file must hold 9 reals, got {len(values)}")
    return ConfusionMatrix(np.array(values).reshape(3, 3), label=label)


def _check_shots(name: str, shots: int) -> int:
    shots = _integer(name, shots)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"{name} must be in 1..2**63 - 1")
    return shots


def _check_seed(name: str, seed: int) -> int:
    seed = _integer(name, seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must fit in 64 unsigned bits")
    return seed


class BackendKind(Enum):
    THEORY = "theory"
    ION = "ion"
    TRANSMON = "transmon"


@dataclass(frozen=True, eq=False)
class BackendConfig:
    kind: BackendKind = BackendKind.THEORY
    shots: int = 512
    confusion: ConfusionMatrix | None = None  # None resolves to the identity
    ion_count: int = 5
    epsilon: tuple[float, ...] = ()
    seed: int = 0
    exact: bool = False  # report exact probabilities instead of sampled ratios

    def __post_init__(self) -> None:
        _instance("kind", self.kind, BackendKind)
        # numpy integers are stored as ints, which exact-mode arithmetic needs
        object.__setattr__(self, "shots", _check_shots("shots", self.shots))
        object.__setattr__(self, "ion_count", _integer("ion_count", self.ion_count))
        if self.ion_count < 1:
            raise ValueError("ion_count must be at least 1")
        try:
            object.__setattr__(self, "epsilon", tuple(_real("epsilon", e) for e in self.epsilon))
        except TypeError:
            raise ValueError(f"epsilon must be a sequence of reals, got {_shown(self.epsilon)}") from None
        if not all(abs(e) < 0.5 for e in self.epsilon):
            raise ValueError("per-ion over-rotation must satisfy |epsilon| < 0.5")
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        _instance("exact", self.exact, (bool, np.bool_))
        if self.confusion is None:
            object.__setattr__(self, "confusion", identity_confusion())
        _instance("confusion", self.confusion, ConfusionMatrix)


def default_backend(kind: BackendKind, seed: int = 0) -> BackendConfig:
    """Backend with the default shot budget and synthetic noise model."""
    if kind not in (BackendKind.ION, BackendKind.TRANSMON):
        # theory, or a kind that BackendConfig refuses
        return BackendConfig(kind=kind, seed=seed)
    diagonal = DEFAULT_ION_DIAGONAL if kind is BackendKind.ION else DEFAULT_TRANSMON_DIAGONAL
    confusion = synthetic_confusion(diagonal, f"synthetic-{kind.value}-{diagonal:g}")
    if kind is BackendKind.ION:
        return BackendConfig(kind=kind, confusion=confusion, epsilon=DEFAULT_ION_EPSILON, seed=seed)
    return BackendConfig(kind=kind, shots=8192, confusion=confusion, seed=seed)


def miscalibrate(c: Circuit, eps: float) -> Circuit:
    """Scale every pulse's rotation angle, its last, by (1 + eps); virtual
    phases and pulse-phase arguments are untouched."""
    if not abs(_real("eps", eps)) < 0.5:
        raise ValueError("|eps| must be below 0.5")
    out = []
    for g in _gates(c):
        if g.kind is not GateKind.RZ:
            g = Gate(g.kind, g.subspace, g.angles[:-1] + (g.angles[-1] * (1.0 + eps),))
        out.append(g)
    return tuple(out)


def _probabilities(
    backend: BackendConfig, r: np.ndarray, t: np.ndarray, ion: np.ndarray | None
) -> np.ndarray:
    """(N, 3) declared-outcome distributions at the points (r[i], t[i]); ion
    holds each point's ion index on the ion backend."""
    if backend.kind is BackendKind.ION:
        eps = backend.epsilon or (0.0,)
        true_probs = np.array([
            populations(circuit_unitary(miscalibrate(
                transpile_ion(qutrit_circuit(PTParams(r_i, t_i))), eps[k % len(eps)]
            ))[:, 0])
            for r_i, t_i, k in zip(r.tolist(), t.tolist(), ion.tolist())
        ])
    else:
        true_probs = qutrit_populations_array(r, t)
    # one matrix-vector product per row, as `C @ p` of a single point
    return (backend.confusion.entries[None] @ true_probs[:, :, None])[..., 0]


def _ion_column(backend: BackendConfig, ion_index: int) -> np.ndarray:
    """[ion_index], which on the ion backend must name one of its ions."""
    ion_index = _integer("ion_index", ion_index)
    on_ion = _instance("backend", backend, BackendConfig).kind is BackendKind.ION
    if on_ion and not 0 <= ion_index < backend.ion_count:
        raise ValueError(f"ion_index {_shown(ion_index)} outside 0..{_shown(backend.ion_count - 1)}")
    return np.array([ion_index])


def exact_probabilities(
    p: PTParams, backend: BackendConfig, ion_index: int = 0
) -> np.ndarray:
    """Declared-outcome distribution for the embedded evolution of |0>.

    Only the ion backend has gate-level error, so only it is emulated on
    native pulses. Theory and transmon read the closed-form populations, as
    transmon pulses reproduce the qutrit unitary exactly. Every backend sees
    them through its readout confusion, the identity for theory by default."""
    r, t = _instance("p", p, PTParams).r, p.t
    ion = _ion_column(backend, ion_index)
    return _probabilities(backend, np.array([r], float), np.array([t], float), ion)[0]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value, h: int, mult: int):
    """numpy's `hashmix` of a uint32 word, a Python int or a uint32 array,
    under hash constant h; returns the mixed word and the next constant."""
    h_next = h * mult & _MASK32
    value = (value ^ h) * h_next & _MASK32
    return value ^ value >> 16, h_next


def _mix(x, y):
    """numpy's `mix` of two uint32 words; the products are reduced first so
    a Python int meets a uint32 array only below 2**32."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def _words(n: int) -> list[int]:
    """n as little-endian uint32 words, one word for 0, as numpy splits it."""
    if n < 0:
        raise ValueError("seed and key entries must be non-negative")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _id_words(ids: np.ndarray) -> list:
    """Stream ids as entropy words; numpy leaves out a zero high word, which
    hashes as a missing one."""
    return [(ids & _MASK32).astype(np.uint32), (ids >> 32).astype(np.uint32)]


def _key_words(key) -> list:
    if not isinstance(key, np.ndarray):
        return _words(_integer("key", key))
    if key.dtype.kind not in "iu":
        raise ValueError(f"array keys must hold integers, got {key.dtype}")
    if key.size and not (0 <= key.min() and key.max() <= _MASK32):
        raise ValueError("array key entries must lie in 0..2**32 - 1")
    # numpy scalars, unlike arrays, warn when uint32 arithmetic wraps
    return [np.atleast_1d(key).astype(np.uint32)]


def _generate(words: list, n: int) -> list:
    """numpy's `SeedSequence(entropy).generate_state(n, np.uint64)` from the
    entropy's uint32 words, each an int or a uint32 array: the pool stage,
    then the output stage of 2n words joined little-endian in pairs."""
    h, pool = _INIT_A, []
    for i in range(_POOL_SIZE):
        word, h = _hashmix(words[i] if i < len(words) else 0, h, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for extra in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, h = _hashmix(extra, h, _MULT_A)
            pool[dst] = _mix(pool[dst], word)
    h, out = _INIT_B, []
    for i in range(2 * n):
        word, h = _hashmix(pool[i % _POOL_SIZE], h, _MULT_B)
        out.append(word if isinstance(word, int) else word.astype(np.uint64))
    return [low | high << 32 for low, high in zip(out[::2], out[1::2])]


def derive_seed(base: int, *key):
    """Stable 64-bit stream id for a (seed, key...) pair: the value of
    `np.random.SeedSequence(base, spawn_key=key).generate_state(1, np.uint64)[0]`,
    computed in uint32 arithmetic. A key may be an integer array with entries
    below 2**32; the ids then come back as a uint64 array of the keys'
    broadcast shape, at least 1-d, and only the rounds that mix array words run on arrays."""
    words = _words(_integer("seed", base))
    if key:
        # numpy pads the run entropy to the pool size when a spawn key is given
        words += [0] * (_POOL_SIZE - len(words))
        for k in key:
            words += _key_words(k)
    return _generate(words, 1)[0]


def _draw(probs: np.ndarray, shots: int, words: list) -> np.ndarray:
    """A multinomial draw per probability row from one Philox. Before row i
    it is reset to the state `Philox(SeedSequence(id_i))` starts in: key
    `generate_state(2, np.uint64)` of id_i's entropy words, counter 0 and
    an empty buffer. So each row draws its id's stream. The state is one
    dict of plain ints, built once and re-keyed in place: the setter reads
    ten entries per row, and from a numpy array each read builds a numpy
    scalar."""
    shots = _check_shots("shots", shots)
    keys = np.array(_generate(words, 2), dtype=np.uint64).T.reshape(-1, 2)
    # written so that NaN fails both checks; a row of opposite infinities
    # sums to NaN
    with np.errstate(invalid="ignore"):
        low, total = probs.min(axis=1), probs.sum(axis=1)
    bad = ~(low >= -1e-9) | ~(np.abs(total - 1.0) <= 1e-9)
    if bad.any():
        i = int(bad.argmax())
        if not low[i] >= -1e-9:
            raise BadDistribution(f"probability {float(low[i]):.3e} is negative or NaN")
        raise BadDistribution(f"probabilities sum to {float(total[i])!r}")
    clean = np.clip(probs, 0.0, None)
    clean /= clean.sum(axis=1, keepdims=True)
    rng = np.random.Generator(np.random.Philox(0))
    bits, multinomial = rng.bit_generator, rng.multinomial
    key = [0, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = np.empty(probs.shape, dtype=np.int64)
    for i, (row_key, row) in enumerate(zip(keys.tolist(), clean)):
        key[:] = row_key
        bits.state = fresh
        counts[i] = multinomial(shots, row)
    return counts


def sample_counts(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Multinomial draw of probs, flattened, from `Philox(SeedSequence(seed))`."""
    return _draw(np.asarray(probs, dtype=float).reshape(1, -1), shots, _words(_integer("seed", seed)))[0]


def postselect_ratios(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first / (first + second) elementwise over nonnegative counts or
    weights, a negative entry refused; NaN where the sum is 0. Where the sum
    overflows, the ratio is that of the halves."""
    # in floats: an int64 sum would wrap past 2**63 and a bool sum is a logical or
    first, second = (_finite(x, "postselect_ratios", dtype=float) for x in (first, second))
    for name, x in (("first", first), ("second", second)):
        if (x < 0.0).any():
            raise ValueError(f"{name} entries must be nonnegative, got {x.min():.6g}")
    with np.errstate(over="ignore"):
        kept = first + second
    over = np.isinf(kept)
    if over.any():
        # an overflowing sum needs both terms above 2**969, so halving is exact
        first, kept = np.where(over, first / 2, first), np.where(over, first / 2 + second / 2, kept)
    return np.divide(first, kept, out=np.full(kept.shape, np.nan), where=kept > 0)


def _round_counts(probs: np.ndarray, shots: int) -> np.ndarray:
    """Largest-remainder rounding of shots * probs / sum(probs) (exact-mode
    bookkeeping) in exact integer arithmetic: the counts sum to shots."""
    clipped = np.clip(probs, 0.0, None).tolist()
    # every float is a whole multiple of 2**-1074, so these weights are exact
    weights = [n * 2**1074 // d for n, d in map(float.as_integer_ratio, clipped)]
    base, rest = zip(*(divmod(shots * w, sum(weights)) for w in weights))
    counts = np.array(base, dtype=np.int64)
    counts[sorted(range(len(rest)), key=rest.__getitem__, reverse=True)[: shots - sum(base)]] += 1
    return counts


@dataclass(frozen=True, eq=False)
class ExperimentPoint:
    r: float
    t: float
    p_exact: np.ndarray
    counts: np.ndarray
    p0_raw: float
    p0_postselected: float | None
    postselect_kept: int
    ion: int | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Read-only columns over N grid points; indexing and iteration yield
    `ExperimentPoint` records built on demand. p_exact and counts are (N, 3);
    p0_postselected is NaN where no shot is kept; ion is None unless the
    backend is ion."""

    r: np.ndarray
    t: np.ndarray
    p_exact: np.ndarray
    counts: np.ndarray
    p0_raw: np.ndarray
    p0_postselected: np.ndarray
    postselect_kept: np.ndarray
    ion: np.ndarray | None

    def __post_init__(self) -> None:
        for column in vars(self).values():
            if column is not None:
                column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, i: int) -> ExperimentPoint:
        n = len(self.r)
        if not -n <= i < n:
            raise IndexError(f"point {i} outside a sweep of {n} points")
        post = float(self.p0_postselected[i])
        return ExperimentPoint(
            r=float(self.r[i]),
            t=float(self.t[i]),
            p_exact=self.p_exact[i],
            counts=self.counts[i],
            p0_raw=float(self.p0_raw[i]),
            p0_postselected=None if math.isnan(post) else post,
            postselect_kept=int(self.postselect_kept[i]),
            ion=None if self.ion is None else int(self.ion[i]),
        )

    def __iter__(self) -> Iterator[ExperimentPoint]:
        return map(self.__getitem__, range(len(self.r)))


def _emulate(
    backend: BackendConfig,
    r: np.ndarray,
    t: np.ndarray,
    i_r: np.ndarray,
    i_t: np.ndarray,
    ion: np.ndarray | None,
) -> SweepResult:
    """Emulate the points (r[i], t[i]), on ion ion[i] for the ion backend.
    Each point's counts come from its own stream, keyed by (seed, i_r[i],
    i_t[i]), or from largest-remainder rounding in exact mode. Probabilities,
    stream ids and Philox keys are computed a block of SEED_BLOCK points at a
    time."""
    n = len(r)
    p_exact = np.empty((n, 3))
    counts = np.empty((n, 3), dtype=np.int64)
    for start in range(0, n, SEED_BLOCK):
        rows = slice(start, start + SEED_BLOCK)
        p_exact[rows] = _probabilities(backend, r[rows], t[rows], None if ion is None else ion[rows])
        if backend.exact:
            counts[rows] = [_round_counts(probs, backend.shots) for probs in p_exact[rows]]
        else:
            ids = derive_seed(backend.seed, 0, i_r[rows], i_t[rows])
            counts[rows] = _draw(p_exact[rows], backend.shots, _id_words(ids))
    # element-wise float divisions give the same IEEE results as the scalar
    # int / int and float / float divisions of a point at a time
    shares = p_exact if backend.exact else counts
    return SweepResult(
        r=r,
        t=t,
        p_exact=p_exact,
        counts=counts,
        p0_raw=p_exact[:, 0] if backend.exact else counts[:, 0] / backend.shots,
        p0_postselected=postselect_ratios(shares[:, 0], shares[:, 1]),
        postselect_kept=counts[:, 0] + counts[:, 1],
        ion=ion if backend.kind is BackendKind.ION else None,
    )


def run_point(
    p: PTParams,
    backend: BackendConfig,
    ion_index: int = 0,
    grid_key: tuple[int, int] = (0, 0),
) -> ExperimentPoint:
    """One point of `sweep`: the grid indices in grid_key key its stream."""
    ion = _ion_column(backend, ion_index)
    if not (isinstance(grid_key, tuple) and len(grid_key) == 2):
        raise ValueError(f"grid_key must be a pair, got {_shown(grid_key)}")
    i_r, i_t = (_integer("grid_key entry", k) for k in grid_key)
    if not (0 <= i_r <= _MASK32 and 0 <= i_t <= _MASK32):
        raise ValueError(f"grid_key entries must lie in 0..2**32 - 1, got {_shown(grid_key)}")
    return _emulate(
        backend,
        np.array([_instance("p", p, PTParams).r], float),
        np.array([p.t], float),
        np.array([i_r]),
        np.array([i_t]),
        ion,
    )[0]


@dataclass(frozen=True)
class SweepGrid:
    r_min: float = 0.0
    r_max: float = 1.2
    r_steps: int = 61
    t_min: float = 0.0
    t_max: float = 5.0
    t_steps: int = 101

    def __post_init__(self) -> None:
        for name in ("r_min", "r_max", "t_min", "t_max"):
            # -0.0 passes every check below, and would print as "-0"
            object.__setattr__(self, name, _real(name, getattr(self, name)) + 0.0)
        for name in ("r_steps", "t_steps"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.r_steps < 1 or self.t_steps < 1:
            raise ValueError("steps must be at least 1")
        if self.r_steps * self.t_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"r_steps * t_steps = {_shown(self.r_steps * self.t_steps)} exceeds "
                f"{MAX_GRID_POINTS} points"
            )
        if self.r_min < 0.0 or self.t_min < 0.0:
            raise ValueError("grid must lie in r >= 0, t >= 0")
        if self.r_max < self.r_min or self.t_max < self.t_min:
            raise ValueError("max must not be below min")

    def r_values(self) -> np.ndarray:
        # near the float maximum linspace's last step overflows, and it then
        # sets that value to the bound
        with np.errstate(over="ignore"):
            return np.linspace(self.r_min, self.r_max, self.r_steps)

    def t_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.linspace(self.t_min, self.t_max, self.t_steps)


def sweep(grid: SweepGrid, backend: BackendConfig) -> SweepResult:
    """Inclusive uniform grid in r-major order; the ion assignment (one ion
    per t column) and the per-point random stream depend only on grid
    indices."""
    _instance("grid", grid, SweepGrid)
    # grid indices stay below MAX_GRID_POINTS, so 32 bits hold them
    i_r = np.repeat(np.arange(grid.r_steps, dtype=np.uint32), grid.t_steps)
    i_t = np.tile(np.arange(grid.t_steps, dtype=np.uint32), grid.r_steps)
    ion = None
    if _instance("backend", backend, BackendConfig).kind is BackendKind.ION:
        # in Python ints, as ion_count has no upper bound
        ion = np.tile([i % backend.ion_count for i in range(grid.t_steps)], grid.r_steps)
    return _emulate(backend, grid.r_values()[i_r], grid.t_values()[i_t], i_r, i_t, ion)


def estimate_confusion(
    backend: BackendConfig, preparations_per_state: int
) -> ConfusionMatrix:
    """Prepare each basis state, read it out through the backend's true
    matrix, and column-normalize the empirical counts."""
    _check_shots("preparations_per_state", preparations_per_state)
    true = _instance("backend", backend, BackendConfig).confusion
    # row j reads out basis state j, from the stream keyed by (seed, 1, j)
    ids = derive_seed(backend.seed, 1, np.arange(3))
    counts = _draw(true.entries.T, preparations_per_state, _id_words(ids))
    return ConfusionMatrix(counts.T / preparations_per_state, label=f"estimated({true.label})")
