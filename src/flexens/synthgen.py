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
through word by word; generate and save_generated compute the same words and
the same floats faster, in one draw path that holds one window of the stream
at a time:

- windows: the stream is drawn in windows of at most _WINDOW_WORDS
  consecutive words, each by L parallel numpy lanes (L a power of two near
  sqrt(count), at least _MIN_LANES and at most _MAX_LANES) that step T times
  each, lane j drawing words j*T .. j*T + T - 1 of its window;
- jumps: the state transition A is linear over GF(2), so any jump A^k is a
  256x256 bit matrix, held as its 32 byte tables of 256 states each (the
  image of every value of one state byte). A^T comes from stepping the 256
  unit states T times, at most 256 steps (lanes >= 128 from 8192 words,
  >= 256 from 32768). Applying a jump is 32 gathers and an xor, and squaring
  one is the same product applied to its own 256 columns. The first window's
  lanes start by doubling (lanes [h, 2h) are lanes [0, h) jumped by A^(hT),
  and squaring A^(hT) gives A^(2hT)), and every lane moves on by A^(LT)
  between windows;
- values: each window's words become uniform doubles in their own memory;
  the first 2M give the labels and each sample's signal, and the normals
  after them, an even number in each window, are made _BLOCK_VALUES at a
  time: Box-Muller over the block's pairs, then float32 logits in chunks that
  never cross a model, as x *= sigma then x += base;
- transcendentals: the definition's log1p, cos and sin are libm's, as math
  calls them. A block takes numpy's, whose SIMD versions may differ from
  libm's in a float64's last bits, and runs the same chain. Such a difference
  can change a logit's float32 rounding only if its float64 value lies within
  sigma * (|noise| * 2**-36 + radius * 2**-48) + |x| * 2**-48 of a float32
  rounding midpoint; those values, about 0.04%, are made again through math
  and the same chain, so every float32 is libm's. That bound holds while
  numpy's log1p is within a relative 2**-38 of libm's and its cos and sin
  within an absolute 2**-50. Once per process a guard checks this on a fixed
  probe; if it fails, every value of that process comes from math.

save_generated streams the chunks into the payload files, so gen holds 12
bytes per sample ('<u4' labels, written as they are, and float64 signals),
one window of the stream and a few blocks, never the (N, M, C) tensor:
about 43 MB of RSS at N = 7, M = 1e6, C = 10.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset_io import (
    LOGIT_MAGIC,
    DatasetManifest,
    EnsembleDataset,
    _header,
    _nonfinite_at,
    _write_dataset,
)
from .errors import InvalidConfigError, NonFiniteLogitError

DEFAULT_SIGNAL_SCALE = 4.0
DEFAULT_NOISE_SIGMA = 1.0
DEFAULT_COST_MS = 1.667

_MASK64 = (1 << 64) - 1
_TWO_PI = 2.0 * math.pi

# a window holds at most this many words, drawn by _MIN_LANES to _MAX_LANES lanes;
# a power of two, so every window, like every Box-Muller pair, starts on an even word
_WINDOW_WORDS = 65536
_MIN_LANES, _MAX_LANES = 64, 4096
# uniforms, Box-Muller pairs and float32 logits are made this many values at a time;
# even, so no pair is split
_BLOCK_VALUES = 8192


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


def _tables(columns: np.ndarray) -> np.ndarray:
    """The byte tables of a GF(2) map of states, given the (256, 4) images of the unit
    states: tables[b, v] is the image of the state whose byte b is v, all others 0."""
    tables = np.zeros((32, 256, 4), dtype=np.uint64)
    bits = columns.reshape(32, 8, 4)  # the images of the 8 bits of each byte
    for bit in range(8):
        tables[:, 1 << bit : 2 << bit] = tables[:, : 1 << bit] ^ bits[:, bit, np.newaxis]
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The map of `tables` applied to each row of a (rows, 4) uint64 array of states."""
    data = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T.astype(np.intp)
    out = np.take(tables[0], data[0], axis=0)
    for byte in range(1, 32):
        out ^= np.take(tables[byte], data[byte], axis=0)
    return out


def _jump(steps: int) -> np.ndarray:
    """The (256, 4) images of the unit states under `steps` steps of the generator,
    found by stepping all 256 of them as one batch."""
    # row i is the unit state of bit i: word i // 64, bit i % 64
    unit = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8")
    states = np.ascontiguousarray(unit.T, dtype=np.uint64)
    for _ in range(steps):
        _step(states)
    return np.ascontiguousarray(states.T)


def _window_shape(count: int) -> tuple[int, int]:
    """(lanes, steps) of the windows that draw `count` words: a power of two near
    sqrt(count) lanes, each stepped `steps` times per window of at most
    _WINDOW_WORDS words."""
    lanes = min(max(1 << (count.bit_length() // 2), _MIN_LANES), _MAX_LANES)
    return lanes, max(1, min(-(-count // lanes), _WINDOW_WORDS // lanes))


def _lane_starts(seed: int, lanes: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (lanes, 4) states of the first window's lanes, lane j the seeded state
    jumped by A^(j*steps), and the byte tables of A^(lanes*steps)."""
    starts = np.empty((lanes, 4), dtype=np.uint64)
    rng = Xoshiro256PlusPlus(seed)
    # an explicit dtype, so no numpy version infers another for words of 2**63 and above
    starts[0] = np.array([rng._s0, rng._s1, rng._s2, rng._s3], dtype=np.uint64)
    jump = _jump(steps)
    half = 1
    while half < lanes:  # lanes [half, 2 * half) are lanes [0, half) jumped by A^(half*steps)
        tables = _tables(jump)
        starts[half : 2 * half] = _apply(tables, starts[:half])
        jump = _apply(tables, jump)
        half *= 2
    return starts, _tables(jump)


def _window(starts: np.ndarray, steps: int) -> np.ndarray:
    """The words of one window, drawn by stepping each lane of `starts` `steps` times."""
    states = np.ascontiguousarray(starts.T)
    words = np.empty((len(starts), steps), dtype=np.uint64)
    for t in range(steps):
        words[:, t] = _step(states)
    return words.reshape(-1)


def _windows(seed: int, count: int) -> Iterator[np.ndarray]:
    """The first `count` Xoshiro256PlusPlus(seed).next_uint64() words, in windows.

    A window of W = lanes * steps consecutive words is drawn by `lanes` lanes,
    lane j drawing its words j*T .. j*T + T - 1, T = steps. The state transition
    A is linear over GF(2), so lanes [h, 2h) start at lanes [0, h) jumped by A^(hT),
    and every lane moves on to the next window by A^W.
    """
    lanes, steps = _window_shape(count)
    starts, advance = _lane_starts(seed, lanes, steps)
    window = lanes * steps
    for first in range(0, count, window):
        yield _window(starts, steps)[: count - first]
        if first + window < count:
            starts = _apply(advance, starts)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform doubles of a window of words, made in the words' own memory."""
    values = words.view(np.float64)
    for first in range(0, words.size, _BLOCK_VALUES):  # numpy copies an overlapping cast
        block = words[first : first + _BLOCK_VALUES]
        block >>= np.uint64(11)
        np.multiply(block, 2.0**-53, out=values[first : first + _BLOCK_VALUES])
    return values


def _each(func, values: np.ndarray) -> np.ndarray:
    """func (a math function) of every value, so no bit depends on numpy's SIMD paths."""
    return np.fromiter(map(func, memoryview(values)), dtype=np.float64, count=values.size)


_LIBM = tuple(functools.partial(_each, func) for func in (math.log1p, math.cos, math.sin))


def _within(fast, reference, probe: np.ndarray, relative=0.0, absolute=0.0) -> bool:
    """Whether fast(probe) lies within absolute + relative * |reference(probe)| of
    reference(probe) at every value (at 0 and 0, equal to it): a fast path's check
    against the reference it stands in for, made before a process trusts it."""
    want = reference(probe)
    return bool(np.all(np.abs(fast(probe) - want) <= absolute + relative * np.abs(want)))


@functools.cache
def _numpy_within_bounds() -> bool:
    """Whether numpy's log1p, cos and sin keep to the bounds the float32 check in
    _normal_chunks assumes of them, a relative 2**-38 and an absolute 2**-50 of
    libm's, on a fixed probe. Checked once per process; if they do not, every block
    takes libm's values."""
    quarters = np.array([0.25, 0.5, 0.75])  # u2 at and beside the zeros of cos and sin
    u = np.concatenate([
        np.fromiter(iter(Xoshiro256PlusPlus(0).next_float, None), np.float64, count=2048),
        [0.0, 2.0**-53, 1.0 - 2.0**-53],  # u1 = 0 and u1 next to 0 and 1
        quarters, np.nextafter(quarters, 0.0), np.nextafter(quarters, 1.0),
    ])
    angle = _TWO_PI * u
    log1p, cos, sin = _LIBM
    return (
        _within(np.log1p, log1p, -u, relative=2.0**-38)
        and _within(np.cos, cos, angle, absolute=2.0**-50)
        and _within(np.sin, sin, angle, absolute=2.0**-50)
    )


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


def _draw(config: SynthConfig, labels: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """The chunks of the config's stream (see module docs), drawn window by window.

    Yields (model, start, values): float32 logits of one model at flat (sample,
    class) offsets start, start + 1, ..., in (model, sample, class) order, each
    checked finite as EnsembleDataset checks them. `labels`, an (M,) '<u4'
    array, is filled from the first M words, and each sample's signal from the
    next M, so the labels are complete once the first chunk has been drawn.
    """
    m, c = config.num_samples, config.num_classes
    values = config.num_models * m * c
    signal = np.empty(m, dtype=np.float64)
    drawn = 0  # words of the stream before this window
    for words in _windows(config.seed, 2 * m + values + values % 2):
        u = _uniforms(words)
        head = min(u.size, max(2 * m - drawn, 0))
        split = min(max(m - drawn, 0), head)  # u[:split] holds labels, u[split:head] difficulties
        if split:
            u[:split] *= c
            rows = labels[drawn : drawn + split]
            rows[:] = u[:split]  # truncated, as floor is for values >= 0
            # minimum() guards the theoretical case where u * c rounds up to c
            np.minimum(rows, c - 1, out=rows)
        if head > split:
            rows = signal[drawn + split - m : drawn + head - m]
            np.subtract(1.0, u[split:head], out=rows)
            rows *= config.signal_scale
        yield from _normal_chunks(config, labels, signal, u[head:], max(drawn - 2 * m, 0))
        drawn += u.size
        del words, u  # the names viewing the window: freed before the next is drawn


def _normal_chunks(config, labels, signal, normals, done) -> Iterator[tuple[int, int, np.ndarray]]:
    """The chunks of one window's uniforms, an even number, which become normals
    `done`, `done` + 1, ... of the stream."""
    c, sigma = config.num_classes, config.noise_sigma
    per_model = config.num_samples * c
    fast = _numpy_within_bounds()
    log1p, cos, sin = (np.log1p, np.cos, np.sin) if fast else _LIBM
    for first in range(0, normals.size, _BLOCK_VALUES):
        block = normals[first : first + _BLOCK_VALUES]  # each (u1, u2) pair becomes its two normals
        # 1 - u1 is in (0, 1], so the radius is finite
        neg_u1, angle = -block[0::2], _TWO_PI * block[1::2]
        radius = np.sqrt(-2.0 * log1p(neg_u1))
        block[0::2] = radius * cos(angle)
        block[1::2] = radius * sin(angle)
        if fast:  # the noise terms of the bound in the module docs; |x|'s follows the sums
            tol = np.abs(block)
            tol *= sigma * 2**-36
            tol.reshape(-1, 2)[:] += (radius * (sigma * 2**-48))[:, np.newaxis]  # both of a pair
        at = 0
        # a pair may straddle two models; an odd count's last sine is discarded
        while at < block.size and done < config.num_models * per_model:
            model, start = divmod(done, per_model)
            x = block[at : at + per_model - start]
            # the same sums as base + sigma * noise; an overflow is inf, which the check reports
            with np.errstate(over="ignore", invalid="ignore"):
                x *= sigma
                base = _base(labels, signal, c, start, x.size)
                x += base
                if fast:
                    near = tol[at : at + x.size]
                    near += np.abs(x) * 2**-48
                    redo = _near_midpoint(x, near)
                    x[redo] = _libm_normals(neg_u1, angle, at + redo) * sigma + base[redo]
                chunk = x.astype("<f4")
            bad = _nonfinite_at(chunk)
            if bad is not None:
                raise NonFiniteLogitError(model, *divmod(start + bad[0], c))
            yield model, start, chunk
            at += x.size
            done += x.size


def _near_midpoint(x: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The indices of the values of `x` that a change of at most `tol` could move to
    another float32; `tol` is spent. Rounding is monotone, so where x - tol and
    x + tol round alike every value between them does; an inf or nan x is always
    among them."""
    low = (x - tol).astype(np.float32)
    tol += x
    return np.flatnonzero(low != tol.astype(np.float32))


def _libm_normals(neg_u1: np.ndarray, angle: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The normals at block offsets `at`, made by math.log1p, math.cos and math.sin."""
    pair = at // 2
    radius = np.sqrt(-2.0 * _each(math.log1p, neg_u1[pair]))
    return radius * np.where(at % 2, _each(math.sin, angle[pair]), _each(math.cos, angle[pair]))


def _base(labels, signal, num_classes, start, size) -> np.ndarray:
    """Flat (sample, class) values [start, start + size) of the signal matrix: each
    sample's signal at its label's column, 0.0 elsewhere."""
    base = np.zeros(size, dtype=np.float64)
    rows = slice(start // num_classes, (start + size - 1) // num_classes + 1)
    at = np.arange(rows.start, rows.stop) * num_classes + labels[rows] - start
    inside = (at >= 0) & (at < size)  # the first and last rows may be cut
    base[at[inside]] = signal[rows][inside]
    return base


def generate(config: SynthConfig) -> EnsembleDataset:
    """Deterministically generate a dataset from the config (see module docs)."""
    n, m, c = config.num_models, config.num_samples, config.num_classes
    labels = np.empty(m, dtype="<u4")
    tensor = np.empty((n, m, c), dtype=np.float32)
    flat = tensor.reshape(n, m * c)
    for model, start, values in _draw(config, labels):
        flat[model, start : start + values.size] = values
    tensor.setflags(write=False)  # read-only and owning its memory: adopted without a copy
    costs = np.array(config.resolved_costs(), dtype=np.float64)
    return EnsembleDataset(logits=tensor, labels=labels, costs_ms=costs)


def save_generated(config: SynthConfig, directory) -> DatasetManifest:
    """Write the directory save_dataset(generate(config), directory) writes, byte
    for byte, drawing the stream window by window instead of holding the tensor."""
    costs = np.array(config.resolved_costs(), dtype=np.float64)
    # a dimension the payload header cannot hold is refused before the labels are allocated
    _header(LOGIT_MAGIC, (config.num_samples, config.num_classes))
    labels = np.empty(config.num_samples, dtype="<u4")
    models = (
        (values for _, _, values in group)
        for _, group in itertools.groupby(_draw(config, labels), key=operator.itemgetter(0))
    )
    return _write_dataset(directory, config.num_samples, config.num_classes, models, labels, costs)
