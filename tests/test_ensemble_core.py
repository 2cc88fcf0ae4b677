import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexens.cascade_engine import stage_tables
from flexens.ensemble_core import average_logits, predict, score_margin, softmax

# Quantizing inputs to a 1e-6 grid keeps distinct entries far enough apart
# that float64 softmax cannot collapse them, while still allowing exact ties.
_coord = st.integers(min_value=-16_000_000, max_value=16_000_000).map(lambda i: i / 1e6)
_vector = st.lists(_coord, min_size=2, max_size=6).map(lambda v: np.array(v, dtype=np.float64))


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=1e-12)

    def test_log_two(self):
        np.testing.assert_allclose(
            softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], rtol=0, atol=1e-12
        )

    def test_large_inputs_do_not_overflow(self):
        out = softmax([1000.0, 1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            softmax([0.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            softmax([np.inf, 0.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 2"):
            softmax([1.0])

    @given(_vector)
    def test_normalizes(self, z):
        assert abs(softmax(z).sum() - 1.0) < 1e-9

    @given(_vector, st.integers(min_value=-100_000, max_value=100_000).map(lambda i: i / 1e3))
    def test_shift_invariance(self, z, shift):
        np.testing.assert_allclose(softmax(z + shift), softmax(z), rtol=0, atol=1e-12)

    @given(_vector)
    def test_order_preserved_including_ties(self, z):
        assert predict(softmax(z)) == int(np.argmax(z))


class TestAverageLogits:
    def test_mean_of_two(self):
        out = average_logits([[1.0, 3.0], [3.0, 1.0]])
        np.testing.assert_array_equal(out.values, [2.0, 2.0])
        assert out.count == 2

    def test_single_vector_identity(self):
        out = average_logits([[5.0, -1.0]])
        np.testing.assert_array_equal(out.values, [5.0, -1.0])
        assert out.count == 1

    def test_mean_of_three(self):
        out = average_logits([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(out.values, [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_logits([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            average_logits([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError, match="^vector 1 is not 1-D$"):
            average_logits([[1.0, 2.0], [[1.0, 2.0]]])

    @given(_vector, st.integers(min_value=1, max_value=8))
    def test_copies_average_to_identity(self, z, k):
        out = average_logits([z] * k)
        np.testing.assert_array_equal(out.values, z)


class TestPredict:
    def test_plain_argmax(self):
        assert predict([0.1, 0.8, 0.1]) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict([0.5, 0.5]) == 0
        assert predict([0.2, 0.4, 0.4]) == 1

    def test_matches_logit_argmax_through_softmax(self):
        assert predict(softmax([3.0, 1.0, 2.0])) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            predict([])


class TestScoreMargin:
    def test_basic(self):
        assert score_margin([0.7, 0.2, 0.1]) == pytest.approx(0.5, abs=1e-12)

    def test_full_tie_is_zero(self):
        assert score_margin([0.25, 0.25, 0.25, 0.25]) == 0.0

    def test_duplicated_maximum_is_zero(self):
        assert score_margin([0.4, 0.4, 0.2]) == 0.0
        assert score_margin(softmax([7.0, 7.0, 0.0])) == 0.0

    def test_softmax_two_one_zero(self):
        # independent closed form: (e^2 - e) / (e^2 + e + 1)
        p = softmax([2.0, 1.0, 0.0])
        expected = (math.exp(2.0) - math.exp(1.0)) / (math.exp(2.0) + math.exp(1.0) + 1.0)
        assert score_margin(p) == pytest.approx(expected, abs=1e-12)
        assert score_margin(p) == pytest.approx(0.4205, abs=1e-4)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            score_margin([1.0])

    @given(_vector)
    def test_bounds_on_softmax_input(self, z):
        m = score_margin(softmax(z))
        assert 0.0 <= m < 1.0


class TestAgreesWithStageTables:
    def test_one_d_chain_matches_every_sample_and_prefix(self, dataset_factory):
        # running mean here, cumsum-then-divide in the engine: ulps apart at most
        ds = dataset_factory(np.random.default_rng(13), num_models=5, num_samples=40)
        tables = stage_tables(ds)
        for sample in range(ds.num_samples):
            for k in range(1, ds.num_models + 1):
                averaged = average_logits(list(ds.logits[:k, sample]))
                probabilities = softmax(averaged.values)
                assert abs(score_margin(probabilities) - tables.margins[k - 1, sample]) <= 1e-12
                assert predict(probabilities) == tables.predictions[k - 1, sample]
