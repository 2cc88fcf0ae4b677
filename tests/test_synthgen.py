import hashlib
import math
import weakref

import numpy as np
import pytest

from flexens import synthgen
from flexens.cascade_engine import stage_tables
from flexens.cli import main
from flexens.dataset_io import MANIFEST_NAME, EnsembleDataset, save_dataset
from flexens.errors import InvalidConfigError, NonFiniteLogitError
from flexens.synthgen import (
    _MIN_LANES,
    DEFAULT_COST_MS,
    SynthConfig,
    Xoshiro256PlusPlus,
    generate,
    save_generated,
)

# regression constants pinned from the first verified run of the generator
SEED42_ACCURACY_K1 = 0.6104
SEED42_ACCURACY_K7 = 0.855

# sha256 of logits.tobytes() + labels.tobytes() of generate((N, M, C, seed)),
# pinned from the scalar generator, one Xoshiro256PlusPlus word at a time
PINNED_GENERATE = {
    (7, 10000, 10, 42): "4570ad4a7253f313f297ae38e115b6d855b8a0be85bea793e38b9e323cde4eef",
    (7, 10000, 10, 43): "42391bacf936a93450d76dcabbf8c97f2d56e6c55df338296e5d8e19a858181e",
    # odd normal counts: 21021, 105 and 4995
    (3, 1001, 7, 5): "1bebd157b8e9d7ce2fc830de36756999277f1bbd42942d3773db9e9e456a85c5",
    (3, 7, 5, 0): "00077afa575bb5dd0a24738c7891b1863ba7dd3a44b3f23b7b58dab5fe443df9",
    (5, 333, 3, 2**64 - 1): "969aea7f20ddbfd3f43dc41d7b885e51ae34c1920cac983799f18b34e3dce294",
}


def digest(ds: EnsembleDataset) -> str:
    return hashlib.sha256(ds.logits.tobytes() + ds.labels.tobytes()).hexdigest()


def scalar_words(seed: int, count: int) -> list[int]:
    rng = Xoshiro256PlusPlus(seed)
    return [rng.next_uint64() for _ in range(count)]


def scalar_generate(n, m, c, seed, scale=4.0, sigma=1.0):
    """The documented recipe with one scalar word and one math call at a time."""
    rng = Xoshiro256PlusPlus(seed)
    labels = np.array([min(int(rng.next_float() * c), c - 1) for _ in range(m)])
    difficulties = np.array([rng.next_float() for _ in range(m)])
    normals = []
    for _ in range((n * m * c + 1) // 2):
        u1, u2 = rng.next_float(), rng.next_float()
        radius = math.sqrt(-2.0 * math.log1p(-u1))
        normals += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    base = np.zeros((m, c))
    base[np.arange(m), labels] = scale * (1.0 - difficulties)
    noise = np.array(normals[: n * m * c]).reshape(n, m, c)
    return (base[np.newaxis] + sigma * noise).astype(np.float32), labels


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_models=0),
            dict(num_samples=0),
            dict(num_classes=1),
            dict(seed=-1),
            dict(seed=2**64),
            dict(signal_scale=0.0),
            dict(signal_scale=float("nan")),
            dict(noise_sigma=-0.5),
            dict(costs_ms=(1.0,)),
            dict(costs_ms=(1.0, 0.0)),
        ],
    )
    def test_rejected(self, kwargs):
        base = dict(num_models=2, num_samples=3, num_classes=2, seed=1)
        base.update(kwargs)
        with pytest.raises(InvalidConfigError):
            SynthConfig(**base)

    def test_default_costs(self):
        config = SynthConfig(num_models=7, num_samples=1, num_classes=2, seed=0)
        costs = config.resolved_costs()
        assert costs == (DEFAULT_COST_MS,) * 7
        assert sum(costs) == pytest.approx(11.669, abs=1e-9)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        config = SynthConfig(num_models=3, num_samples=64, num_classes=5, seed=99)
        a, b = generate(config), generate(config)
        assert a.logits.tobytes() == b.logits.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_saved_bytes_identical(self, tmp_path):
        config = SynthConfig(num_models=2, num_samples=10, num_classes=3, seed=7)
        save_dataset(generate(config), tmp_path / "a")
        save_dataset(generate(config), tmp_path / "b")
        for name in ["logits_000.ensl", "logits_001.ensl", "labels.ensy", MANIFEST_NAME]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(num_models=2, num_samples=50, num_classes=3, seed=1))
        b = generate(SynthConfig(num_models=2, num_samples=50, num_classes=3, seed=2))
        assert a.logits.tobytes() != b.logits.tobytes()


class TestPinnedBytes:
    @pytest.mark.parametrize("n,m,c,seed", list(PINNED_GENERATE))
    def test_generate_bytes(self, request, n, m, c, seed):
        if (n, m, c, seed) == (7, 10000, 10, 42):
            ds = request.getfixturevalue("seed42_dataset")
        else:
            ds = generate(SynthConfig(num_models=n, num_samples=m, num_classes=c, seed=seed))
        assert digest(ds) == PINNED_GENERATE[(n, m, c, seed)]

    def test_tensor_is_adopted_without_a_copy(self, monkeypatch):
        handed = []

        def spy(**kwargs):
            handed.append(kwargs["logits"])
            return EnsembleDataset(**kwargs)

        monkeypatch.setattr(synthgen, "EnsembleDataset", spy)
        ds = generate(SynthConfig(num_models=2, num_samples=50, num_classes=3, seed=1))
        assert ds.logits is handed[0]
        assert ds.logits.flags.owndata and not ds.logits.flags.writeable


class TestLaneStream:
    """_windows against Xoshiro256PlusPlus.next_uint64, one word at a time."""

    LANES = _MIN_LANES
    WINDOW = 4 * _MIN_LANES  # patched in: four steps of the fewest lanes
    DEFAULT_WINDOW = synthgen._WINDOW_WORDS

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize(
        "count",
        [1, LANES - 1, LANES, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW + 5],
    )
    def test_counts_around_lane_and_window_edges(self, monkeypatch, seed, count):
        monkeypatch.setattr(synthgen, "_WINDOW_WORDS", self.WINDOW)
        lanes, steps = synthgen._window_shape(count)
        assert lanes == self.LANES and lanes * steps == min(self.WINDOW, -(-count // lanes) * lanes)
        windows = list(synthgen._windows(seed, count))
        assert [w.size for w in windows[:-1]] == [lanes * steps] * (len(windows) - 1)
        words = np.concatenate(windows)
        assert words.dtype == np.uint64 and words.shape == (count,)
        assert words.tolist() == scalar_words(seed, count)

    @pytest.mark.parametrize(
        "count", [DEFAULT_WINDOW - 1, DEFAULT_WINDOW, DEFAULT_WINDOW + 1, 3 * DEFAULT_WINDOW + 5]
    )
    def test_counts_around_default_window_edges(self, count):
        lanes, steps = synthgen._window_shape(count)
        assert lanes * steps == self.DEFAULT_WINDOW
        words = np.concatenate(list(synthgen._windows(2**64 - 1, count)))
        assert words.tolist() == scalar_words(2**64 - 1, count)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_lane_starts_many_jumps_apart(self, seed):
        # one window of 64 lanes, lane j started j jumps of 94 steps from the seeded state
        assert synthgen._window_shape(6000) == (64, 94)
        words = np.concatenate(list(synthgen._windows(seed, 6000)))
        assert words.tolist() == scalar_words(seed, 6000)

    @pytest.mark.parametrize("steps", [1, 63, 64, 1000])
    def test_table_jump_equals_scalar_steps(self, steps):
        random = np.random.default_rng(steps).integers(
            0, 2**64 - 1, size=(16, 4), dtype=np.uint64, endpoint=True
        )
        unit = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8")
        states = np.concatenate([random, unit.astype(np.uint64)])
        jumped = synthgen._apply(synthgen._tables(synthgen._jump(steps)), states)
        assert jumped.dtype == np.uint64
        rng = Xoshiro256PlusPlus(0)
        for state, got in zip(states.tolist(), jumped.tolist()):
            rng._s0, rng._s1, rng._s2, rng._s3 = state
            for _ in range(steps):
                rng.next_uint64()
            assert got == [rng._s0, rng._s1, rng._s2, rng._s3]

    @pytest.mark.parametrize(
        "n,m,c,seed",
        [
            (1, 511, 2, 3),  # 2044 words: 64 lanes of 32, the last one cut short
            (1, 512, 2, 3),  # 2048 words: 64 lanes of 32
            (1, 513, 2, 3),  # 2052 words: 64 lanes of 33, the last two cut short
            (1, 1, 2, 0),  # 4 words, the smallest draw: 4 of 64 lanes of 1
            (3, 101, 7, 2**64 - 1),  # an odd normal count
            (2, 1200, 3, 0),
        ],
    )
    def test_generate_matches_the_scalar_recipe(self, n, m, c, seed):
        ds = generate(SynthConfig(num_models=n, num_samples=m, num_classes=c, seed=seed))
        logits, labels = scalar_generate(n, m, c, seed)
        assert ds.logits.tobytes() == logits.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])  # zero noise keeps the sign of every 0.0
    def test_scale_and_sigma_match_the_scalar_recipe(self, sigma):
        config = SynthConfig(
            num_models=2, num_samples=700, num_classes=3, seed=8,
            signal_scale=2.5, noise_sigma=sigma,
        )
        logits, _ = scalar_generate(2, 700, 3, 8, scale=2.5, sigma=sigma)
        assert generate(config).logits.tobytes() == logits.tobytes()


def saved_files(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestStreamedGen:
    """`flexens gen` writes exactly the directory of save_dataset(generate(config))."""

    def gen(self, tmp_path, n, m, c, seed, *options) -> dict:
        out = tmp_path / "gen"
        assert main(["gen", "--models", str(n), "--samples", str(m), "--classes", str(c),
                     "--seed", str(seed), "--out", str(out), *options]) == 0
        return saved_files(out)

    def saved(self, tmp_path, config) -> dict:
        save_dataset(generate(config), tmp_path / "saved")
        return saved_files(tmp_path / "saved")

    @pytest.mark.parametrize("n,m,c,seed", list(PINNED_GENERATE))
    def test_pinned_configs(self, tmp_path, n, m, c, seed):
        expected = self.saved(tmp_path, SynthConfig(n, m, c, seed))
        assert self.gen(tmp_path, n, m, c, seed) == expected

    def test_zero_sigma(self, tmp_path):
        expected = self.saved(tmp_path, SynthConfig(3, 1001, 7, 5, noise_sigma=0.0))
        assert self.gen(tmp_path, 3, 1001, 7, 5, "--sigma", "0") == expected

    @pytest.mark.parametrize("m,first_word", [(13, 64), (51, 254)])
    def test_pair_straddling_two_models_at_a_window_edge(self, tmp_path, monkeypatch, m, first_word):
        # N=3, C=3, M odd: normal M*C, model 1's first, is the sine of the pair at
        # words 2M + M*C - 1 and 2M + M*C, which starts (M=13) or ends (M=51) a window
        monkeypatch.setattr(synthgen, "_WINDOW_WORDS", 64)
        n, c, seed = 3, 3, 9
        assert 2 * m + m * c - 1 == first_word
        assert synthgen._window_shape(2 * m + n * m * c + 1) == (64, 1)
        config = SynthConfig(n, m, c, seed)
        logits, labels = scalar_generate(n, m, c, seed)
        generated = generate(config)
        assert generated.logits.tobytes() == logits.tobytes()
        np.testing.assert_array_equal(generated.labels, labels)
        assert self.gen(tmp_path, n, m, c, seed) == self.saved(tmp_path, config)

    def test_labels_ending_at_a_window_edge(self, tmp_path, monkeypatch):
        # 2M = 64 words: the first window holds labels and difficulties only
        monkeypatch.setattr(synthgen, "_WINDOW_WORDS", 64)
        config = SynthConfig(2, 32, 3, 1)
        logits, _ = scalar_generate(2, 32, 3, 1)
        assert generate(config).logits.tobytes() == logits.tobytes()
        assert self.gen(tmp_path, 2, 32, 3, 1) == self.saved(tmp_path, config)

    @pytest.mark.parametrize(
        "n,m,offset",
        [
            (3, 20, 4),  # model 0 ends inside a block
            (3, 19, 7),  # a pair straddling two models ends a block
            (3, 21, 1),  # a pair straddling two models starts a block
            (2, 32, 0),  # 2M = 64 words: the first window holds no normals
        ],
    )
    def test_block_edges(self, tmp_path, monkeypatch, n, m, offset):
        # windows of 64 words, Box-Muller and the float32 cast over blocks of 8 values;
        # model 1's first normal, word 2M + M*C, is `offset` values into its block
        monkeypatch.setattr(synthgen, "_WINDOW_WORDS", 64)
        monkeypatch.setattr(synthgen, "_BLOCK_VALUES", 8)
        c, seed = 3, 6
        word = 2 * m + m * c
        first_normal = 2 * m if word // 64 == 2 * m // 64 else word // 64 * 64  # of its window
        assert (word - first_normal) % 8 == offset
        config = SynthConfig(n, m, c, seed)
        logits, labels = scalar_generate(n, m, c, seed)
        generated = generate(config)
        assert generated.labels.dtype == np.int64
        assert generated.logits.tobytes() == logits.tobytes()
        np.testing.assert_array_equal(generated.labels, labels)
        assert self.gen(tmp_path, n, m, c, seed) == self.saved(tmp_path, config)

    @pytest.mark.parametrize("m", [100, 32])  # labels over four windows; over exactly one
    def test_each_window_is_freed_before_the_next_is_drawn(self, tmp_path, monkeypatch, m):
        monkeypatch.setattr(synthgen, "_WINDOW_WORDS", 64)
        drawn = []  # weak references to the memory of each window, as words and as uniforms
        window, uniforms = synthgen._window, synthgen._uniforms

        def memory(array):
            return weakref.ref(array if array.base is None else array.base)

        def checked_window(starts, steps):
            assert all(ref() is None for ref in drawn)
            words = window(starts, steps)
            drawn.append(memory(words))
            return words

        def tracked_uniforms(words):
            values = uniforms(words)
            drawn.append(memory(values))
            return values

        monkeypatch.setattr(synthgen, "_window", checked_window)
        monkeypatch.setattr(synthgen, "_uniforms", tracked_uniforms)
        config = SynthConfig(2, m, 3, 1)
        save_generated(config, tmp_path / "gen")
        generate(config)
        assert len(drawn) == 2 * 2 * -(-(2 * m + 6 * m) // 64)  # two calls, two arrays a window

    def test_logits_beyond_float32_are_refused(self, tmp_path, capsys):
        # at 1e39 the float32 cast overflows, at 1e308 the float64 noise itself;
        # neither warns, and the finite check reports both
        for sigma in ["1e39", "1e308"]:
            with pytest.raises(NonFiniteLogitError, match="model=0, sample=0, class=0"):
                generate(SynthConfig(2, 5, 3, 1, noise_sigma=float(sigma)))
            out = tmp_path / "gen"
            assert main(["gen", "--models", "2", "--samples", "5", "--classes", "3",
                         "--seed", "1", "--sigma", sigma, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == "error: non-finite logit at model=0, sample=0, class=0\n"
            assert not out.exists()

    def test_a_failed_gen_keeps_files_it_did_not_write(self, tmp_path):
        out = tmp_path / "gen"
        out.mkdir()
        (out / "notes.txt").write_text("not the generator's")
        assert main(["gen", "--models", "2", "--samples", "5", "--classes", "3", "--seed", "1",
                     "--sigma", "1e39", "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "not the generator's"

    def test_returns_the_manifest_of_save_dataset(self, tmp_path):
        config = SynthConfig(2, 30, 3, 4)
        assert save_generated(config, tmp_path / "a") == save_dataset(generate(config), tmp_path / "b")


def scaled_log1p(scale: float):
    """np.log1p with its results scaled by 1 + scale and 1 - scale in turn."""
    log1p = np.log1p

    def perturbed(values):
        out = log1p(values)
        out[0::2] *= 1.0 + scale
        out[1::2] *= 1.0 - scale
        return out

    return perturbed


@pytest.fixture
def checked(monkeypatch):
    """The sizes of the chunks _near_midpoint checks, as it is called."""
    sizes = []
    near_midpoint = synthgen._near_midpoint

    def spy(x, tol):
        sizes.append(x.size)
        return near_midpoint(x, tol)

    monkeypatch.setattr(synthgen, "_near_midpoint", spy)
    return sizes


@pytest.fixture
def fresh_guard():
    """The numpy-against-libm guard, checked again in the test and after it."""
    synthgen._numpy_within_bounds.cache_clear()
    yield synthgen._numpy_within_bounds
    synthgen._numpy_within_bounds.cache_clear()


class TestFastTranscendentals:
    """numpy's log1p, cos and sin, or libm's if numpy fails the guard, with the
    values a float32 cast could tell from libm's made again by libm."""

    @pytest.mark.parametrize("n,m,c,seed", list(PINNED_GENERATE))
    def test_log1p_within_the_tolerance_is_mended_by_the_recompute(
        self, monkeypatch, fresh_guard, checked, n, m, c, seed
    ):
        monkeypatch.setattr(np, "log1p", scaled_log1p(1e-12))
        assert digest(generate(SynthConfig(n, m, c, seed))) == PINNED_GENERATE[(n, m, c, seed)]
        assert fresh_guard() and sum(checked) == n * m * c  # every value took the fast path

    def test_the_recompute_is_what_keeps_the_bytes(self, monkeypatch, fresh_guard):
        # the same perturbation with nothing redone moves bytes, so the test above gates
        monkeypatch.setattr(np, "log1p", scaled_log1p(1e-12))
        monkeypatch.setattr(synthgen, "_near_midpoint", lambda x, tol: np.empty(0, np.intp))
        key = (7, 10000, 10, 42)
        assert digest(generate(SynthConfig(*key))) != PINNED_GENERATE[key]

    @pytest.mark.parametrize("n,m,c,seed", list(PINNED_GENERATE))
    def test_log1p_beyond_the_bound_trips_the_guard(
        self, monkeypatch, fresh_guard, checked, n, m, c, seed
    ):
        monkeypatch.setattr(np, "log1p", scaled_log1p(1e-8))
        assert digest(generate(SynthConfig(n, m, c, seed))) == PINNED_GENERATE[(n, m, c, seed)]
        # libm's values, checked and redone on the one block path all the same
        assert not fresh_guard() and sum(checked) == n * m * c

    def test_the_libm_redo_of_libm_values_moves_nothing(self, monkeypatch, fresh_guard):
        # with the guard tripped every value is libm's, so redoing all of them with
        # libm must give the same bytes
        monkeypatch.setattr(np, "log1p", scaled_log1p(1e-8))
        monkeypatch.setattr(synthgen, "_near_midpoint", lambda x, tol: np.arange(x.size))
        key = (7, 10000, 10, 42)
        assert digest(generate(SynthConfig(*key))) == PINNED_GENERATE[key]
        assert not fresh_guard()

    @pytest.mark.parametrize("func", ["cos", "sin"])
    def test_trig_beyond_the_bound_trips_the_guard(self, monkeypatch, fresh_guard, func):
        trig = getattr(np, func)
        monkeypatch.setattr(np, func, lambda values: trig(values) + 2.0**-48)
        assert not fresh_guard()

    def test_trig_within_the_bound_is_mended_near_its_zeros(self, monkeypatch, fresh_guard):
        # angles within 2**-26 of a zero of cos or sin, where the logit is tiny and an
        # absolute error of 2**-51 moves its float32 by many ulps: the radius term's case
        pairs = 4096
        u1 = (np.arange(pairs) + 0.5) / pairs
        u2 = np.repeat([0.0, 0.25, 0.5, 0.75], pairs // 4) + np.arange(1, pairs + 1) * 2.0**-40
        radius = [math.sqrt(-2.0 * math.log1p(-u)) for u in u1]
        angle = [2.0 * math.pi * u for u in u2]
        expected = np.array(
            [(r * math.cos(a), r * math.sin(a)) for r, a in zip(radius, angle)], np.float32
        ).reshape(-1)
        for name in ("cos", "sin"):
            monkeypatch.setattr(np, name, lambda values, func=getattr(np, name): func(values) + 2.0**-51)
        moved = np.column_stack([np.cos(angle), np.sin(angle)]) * np.array(radius)[:, np.newaxis]
        assert np.count_nonzero(moved.reshape(-1).astype(np.float32) != expected) > pairs // 2
        config = SynthConfig(1, pairs, 2, 0)
        normals = np.column_stack([u1, u2]).reshape(-1)
        labels, signal = np.zeros(pairs, "<u4"), np.zeros(pairs)
        chunks = synthgen._normal_chunks(config, labels, signal, normals, 0)
        assert np.concatenate([chunk for _, _, chunk in chunks]).tobytes() == expected.tobytes()
        assert fresh_guard()

    @pytest.mark.parametrize(
        "n,m,c,seed,block",
        [
            (3, 19, 3, 6, 8),  # a pair straddling two models ends a block
            (3, 21, 3, 6, 8),  # a pair straddling two models starts a block
            (3, 101, 7, 2**64 - 1, 8),  # an odd normal count
            (3, 1001, 7, 5, synthgen._BLOCK_VALUES),
            (7, 10000, 10, 42, synthgen._BLOCK_VALUES),
        ],
    )
    def test_flagged_values_at_block_edges(self, monkeypatch, n, m, c, seed, block):
        # every block's first and last pair get a wrong radius from numpy and are
        # flagged, so only a recompute that finds each pair gives the bytes
        monkeypatch.setattr(synthgen, "_BLOCK_VALUES", block)
        monkeypatch.setattr(synthgen, "_numpy_within_bounds", lambda: True)
        log1p = np.log1p

        def wrong_ends(values):
            out = log1p(values)
            out[[0, -1]] *= 2.0
            return out

        near_midpoint = synthgen._near_midpoint

        def flag_ends(x, tol):
            ends = np.clip([0, 1, x.size - 2, x.size - 1], 0, x.size - 1)
            return np.union1d(near_midpoint(x, tol), ends)

        monkeypatch.setattr(np, "log1p", wrong_ends)
        monkeypatch.setattr(synthgen, "_near_midpoint", flag_ends)
        logits, labels = scalar_generate(n, m, c, seed)
        generated = generate(SynthConfig(n, m, c, seed))
        assert generated.logits.tobytes() == logits.tobytes()
        np.testing.assert_array_equal(generated.labels, labels)

    # at 1e38 the first |noise| beyond 3.4 overflows the float32 cast, at model 1;
    # at 1e308 every noise does, and the float64 product too beyond 1.8
    @pytest.mark.parametrize("sigma,first", [(1e38, (1, 39, 0)), (1e308, (0, 0, 0))])
    def test_overflow_is_refused_where_libm_puts_it(self, monkeypatch, sigma, first):
        config = SynthConfig(2, 40, 3, 0, noise_sigma=sigma)
        with np.errstate(over="ignore"):
            logits, _ = scalar_generate(2, 40, 3, 0, sigma=sigma)
        assert tuple(np.argwhere(~np.isfinite(logits))[0]) == first
        where = f"model={first[0]}, sample={first[1]}, class={first[2]}"
        with pytest.raises(NonFiniteLogitError, match=where):
            generate(config)
        monkeypatch.setattr(synthgen, "_numpy_within_bounds", lambda: False)
        with pytest.raises(NonFiniteLogitError, match=where):
            generate(config)


class TestZeroNoise:
    def test_models_identical_and_always_correct(self):
        config = SynthConfig(
            num_models=4, num_samples=200, num_classes=6, seed=11, noise_sigma=0.0
        )
        ds = generate(config)
        for i in range(1, 4):
            np.testing.assert_array_equal(ds.logits[0], ds.logits[i])
        tables = stage_tables(ds)
        for k in range(4):
            np.testing.assert_array_equal(tables.predictions[k], ds.labels)


class TestIndependentReimplementation:
    """Cross-check against a from-scratch rewrite of the documented recipe.

    The oracle keeps its state in a list and vectorizes Box-Muller with
    numpy, so it shares no code path with the library's generator.
    """

    MASK = (1 << 64) - 1

    def _oracle_stream(self, seed: int, count: int) -> list[int]:
        state = seed & self.MASK
        words = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & self.MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
            words.append(z ^ (z >> 31))
        s = words
        out = []
        for _ in range(count):
            t = (s[0] + s[3]) & self.MASK
            rotated = ((t << 23) & self.MASK) | (t >> 41)
            out.append((rotated + s[0]) & self.MASK)
            shifted = (s[1] << 17) & self.MASK
            s[2] ^= s[0]
            s[3] ^= s[1]
            s[1] ^= s[2]
            s[0] ^= s[3]
            s[2] ^= shifted
            s[3] = ((s[3] << 45) & self.MASK) | (s[3] >> 19)
        return out

    def _oracle_generate(self, n, m, c, seed, scale, sigma):
        normals_needed = n * m * c
        pairs = (normals_needed + 1) // 2
        raw = self._oracle_stream(seed, 2 * m + 2 * pairs)
        uniforms = np.array([(x >> 11) * 2.0**-53 for x in raw])
        labels = np.minimum((uniforms[:m] * c).astype(np.int64), c - 1)
        difficulties = uniforms[m : 2 * m]
        u1 = uniforms[2 * m :: 2]
        u2 = uniforms[2 * m + 1 :: 2]
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        base = np.zeros((m, c))
        base[np.arange(m), labels] = scale * (1.0 - difficulties)
        logits = base[None] + sigma * z[:normals_needed].reshape(n, m, c)
        return logits.astype(np.float32), labels

    def test_raw_stream_matches(self):
        rng = Xoshiro256PlusPlus(2024)
        library = [rng.next_uint64() for _ in range(256)]
        assert library == self._oracle_stream(2024, 256)

    @pytest.mark.parametrize(
        "n,m,c,seed",
        [
            (3, 40, 4, 123),
            (2, 31, 3, 9),  # odd normal count, exercises the discarded tail draw
            (1, 7, 2, 2**64 - 1),
        ],
    )
    def test_generated_dataset_matches(self, n, m, c, seed):
        ds = generate(SynthConfig(num_models=n, num_samples=m, num_classes=c, seed=seed))
        logits, labels = self._oracle_generate(n, m, c, seed, 4.0, 1.0)
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(
            ds.logits.astype(np.float64), logits.astype(np.float64), rtol=0, atol=2e-6
        )

    def test_uniforms_land_in_unit_interval(self):
        rng = Xoshiro256PlusPlus(0)
        values = [rng.next_float() for _ in range(2000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < np.mean(values) < 0.6


class TestStatisticalShape:
    def test_seed42_pinned_accuracies(self, seed42_dataset):
        tables = stage_tables(seed42_dataset)
        acc1 = np.mean(tables.predictions[0] == seed42_dataset.labels)
        acc7 = np.mean(tables.predictions[6] == seed42_dataset.labels)
        assert acc1 == SEED42_ACCURACY_K1
        assert acc7 == SEED42_ACCURACY_K7
        assert acc7 > acc1

    def test_ensemble_beats_mean_single_model(self, seed42_dataset):
        tables = stage_tables(seed42_dataset)
        labels = seed42_dataset.labels
        logits = seed42_dataset.logits.astype(np.float64)
        single = []
        for i in range(seed42_dataset.num_models):
            shifted = logits[i] - logits[i].max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            single.append(np.mean(probs.argmax(axis=1) == labels))
        full_accuracy = np.mean(tables.predictions[-1] == labels)
        assert full_accuracy > np.mean(single)

    def test_margins_separate_correct_from_wrong(self, seed42_dataset):
        tables = stage_tables(seed42_dataset)
        correct = tables.predictions[0] == seed42_dataset.labels
        assert tables.margins[0][correct].mean() > tables.margins[0][~correct].mean()


def test_box_muller_with_libm_is_the_definitions_chain():
    # the one chain, run with math's functions, is the definition bit for bit,
    # at u1 = 0 and next to 0 and 1, and at and beside the zeros of cos and sin
    quarters = [0.25, 0.5, 0.75]
    u2s = [v for q in quarters for v in (math.nextafter(q, 0.0), q, math.nextafter(q, 1.0))]
    pairs = [(u1, u2) for u1 in (0.0, 2.0**-53, 1.0 - 2.0**-53) for u2 in u2s]
    neg_u1 = np.array([-u1 for u1, _ in pairs])
    angle = np.array([2 * math.pi * u2 for _, u2 in pairs])
    _, cosines, sines = synthgen._box_muller(neg_u1, angle, *synthgen._LIBM)
    for (u1, u2), cosine, sine in zip(pairs, cosines.tolist(), sines.tolist()):
        radius = math.sqrt(-2 * math.log1p(-u1))
        assert cosine.hex() == (radius * math.cos(2 * math.pi * u2)).hex()
        assert sine.hex() == (radius * math.sin(2 * math.pi * u2)).hex()
