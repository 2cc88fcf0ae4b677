"""Seeded synthetic logit generator.

Produces ensembles whose score margins correlate with correctness. Each
sample gets a uniformly random label and a difficulty d in [0, 1); the true
class receives a signal of signal_scale * (1 - d) and every model sees that
signal plus independent per-class Gaussian noise. Easy samples therefore
yield large margins and hard samples small ones, and averaging across
models cancels noise, so bigger ensembles genuinely classify better.

The random stream is pinned down so a dataset is reproducible bit-for-bit
from its config alone:

- generator: xoshiro256++, its four state words seeded with consecutive
  splitmix64 outputs of the seed;
- uniform doubles in [0, 1): (next_u64 >> 11) * 2**-53;
- standard normals: Box-Muller on consecutive uniform pairs (u1, u2),
  radius sqrt(-2 * ln(1 - u1)), cosine branch first, then sine; when an odd
  number of normals is needed the final sine draw is discarded;
- draw order: one uniform per sample for labels (floor(u * num_classes),
  clamped to num_classes - 1), one per sample for difficulties, then noise
  normals in model-major (model, sample, class) order. Noise draws are
  consumed even when noise_sigma is zero, so the stream layout does not
  depend on sigma.

That definition is the one the scalar Xoshiro256PlusPlus class steps
through word by word; generate computes the same words and the same floats
faster. It draws the stream in parallel numpy lanes, each started by
jumping the state ahead, and calls math.log1p, math.cos and math.sin once
per value, since numpy's SIMD versions may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset_io import EnsembleDataset
from .errors import InvalidConfigError

DEFAULT_SIGNAL_SCALE = 4.0
DEFAULT_NOISE_SIGMA = 1.0
DEFAULT_COST_MS = 1.667

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi


class Xoshiro256PlusPlus:
    """xoshiro256++ with splitmix64 state initialization."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & _MASK64
        words = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            words.append(z ^ (z >> 31))
        self._s0, self._s1, self._s2, self._s3 = words

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        t = (s0 + s3) & _MASK64
        result = ((((t << 23) & _MASK64) | (t >> 41)) + s0) & _MASK64
        shifted = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= shifted
        s3 = ((s3 << 45) & _MASK64) | (s3 >> 19)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def next_float(self) -> float:
        # 53 high bits give a uniform double in [0, 1)
        return (self.next_uint64() >> 11) * 2.0**-53


def _step(state: np.ndarray) -> np.ndarray:
    """Step every column of a (4, lanes) uint64 state in place; return each lane's output."""
    s0, s1, s2, s3 = state
    t = s0 + s3
    result = ((t << 23) | (t >> 41)) + s0
    shifted = s1 << 17
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= shifted
    s3[:] = (s3 << 45) | (s3 >> 19)
    return result


def _lane_words(seed: int, count: int, lanes: int) -> np.ndarray:
    """The first `count` Xoshiro256PlusPlus(seed).next_uint64() words, drawn in lanes.

    Lane j draws words j*T .. j*T + T - 1, T = ceil(count / lanes). The state
    transition A is linear over GF(2), so lane j starts at A^T applied j times
    to the seeded state, and column i of A^T is unit state i stepped T times.
    """
    steps = -(-count // lanes)
    rng = Xoshiro256PlusPlus(seed)
    # row i holds the unit state of bit i: word i // 64, bit i % 64
    unit = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8")
    jump = np.ascontiguousarray(unit.T, dtype=np.uint64)
    for _ in range(steps):
        _step(jump)
    states = np.empty((4, lanes), dtype=np.uint64)
    # an explicit dtype, so no numpy version infers another for words of 2**63 and above
    states[:, 0] = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    for j in range(1, lanes):
        bits = np.unpackbits(states[:, j - 1].astype("<u8").view(np.uint8), bitorder="little")
        states[:, j] = np.bitwise_xor.reduce(jump[:, bits.astype(bool)], axis=1)
    words = np.empty((lanes, steps), dtype=np.uint64)
    for t in range(steps):
        words[:, t] = _step(states)
    return words.reshape(-1)[:count]


def _each(func, values: np.ndarray) -> np.ndarray:
    """func (a math function) of every value, so no bit depends on numpy's SIMD paths."""
    return np.fromiter(map(func, memoryview(values)), dtype=np.float64, count=values.size)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic generator; costs_ms=None means DEFAULT_COST_MS per model."""

    num_models: int
    num_samples: int
    num_classes: int
    seed: int
    signal_scale: float = DEFAULT_SIGNAL_SCALE
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    costs_ms: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.num_models < 1:
            raise InvalidConfigError("num_models must be >= 1")
        if self.num_samples < 1:
            raise InvalidConfigError("num_samples must be >= 1")
        if self.num_classes < 2:
            raise InvalidConfigError("num_classes must be >= 2")
        if not isinstance(self.seed, int) or not (0 <= self.seed <= _MASK64):
            raise InvalidConfigError("seed must be an integer in [0, 2**64)")
        if not (math.isfinite(self.signal_scale) and self.signal_scale > 0.0):
            raise InvalidConfigError("signal_scale must be finite and > 0")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidConfigError("noise_sigma must be finite and >= 0")
        if self.costs_ms is not None:
            costs = tuple(float(c) for c in self.costs_ms)
            if len(costs) != self.num_models:
                raise InvalidConfigError(
                    f"costs_ms must have {self.num_models} entries, got {len(costs)}"
                )
            if any(not (math.isfinite(c) and c > 0.0) for c in costs):
                raise InvalidConfigError("every cost must be finite and > 0")
            object.__setattr__(self, "costs_ms", costs)

    def resolved_costs(self) -> tuple[float, ...]:
        if self.costs_ms is not None:
            return self.costs_ms
        return (DEFAULT_COST_MS,) * self.num_models


def generate(config: SynthConfig) -> EnsembleDataset:
    """Deterministically generate a dataset from the config (see module docs)."""
    n, m, c = config.num_models, config.num_samples, config.num_classes
    pairs = (n * m * c + 1) // 2
    count = 2 * m + 2 * pairs
    lanes = math.isqrt(count)
    uniforms = (_lane_words(config.seed, count, lanes) >> 11) * 2.0**-53

    # minimum() guards the theoretical case where u * c rounds up to c
    labels = np.minimum((uniforms[:m] * c).astype(np.int64), c - 1)
    difficulties = uniforms[m : 2 * m]

    base = np.zeros((m, c), dtype=np.float64)
    base[np.arange(m), labels] = config.signal_scale * (1.0 - difficulties)

    normals = uniforms[2 * m :]  # each (u1, u2) pair is overwritten by its two normals
    # 1 - u1 is in (0, 1], so the radius is finite
    radius = np.sqrt(-2.0 * _each(math.log1p, -normals[0::2]))
    angle = _TWO_PI * normals[1::2]
    normals[0::2] = radius * _each(math.cos, angle)
    normals[1::2] = radius * _each(math.sin, angle)
    logits = normals[: n * m * c].reshape(n, m, c)
    logits *= config.noise_sigma
    logits += base  # the same sums as base + sigma * noise: IEEE addition commutes

    tensor = logits.astype(np.float32)
    tensor.setflags(write=False)  # read-only and owning its memory: adopted without a copy
    costs = np.array(config.resolved_costs(), dtype=np.float64)
    return EnsembleDataset(logits=tensor, labels=labels, costs_ms=costs)
