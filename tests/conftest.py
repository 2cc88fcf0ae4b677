from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from flexens.dataset_io import _CHUNK_VALUES, EnsembleDataset, _sample_chunks
from flexens.synthgen import SynthConfig, generate

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

SEED42_CONFIG = SynthConfig(num_models=7, num_samples=10000, num_classes=10, seed=42)


def chunk_step(num_models: int, num_classes: int) -> int:
    """The samples in a full chunk of a logit_chunks pass at these dimensions;
    a chunk never holds more than _CHUNK_VALUES samples."""
    return _sample_chunks(num_models, _CHUNK_VALUES + 1, num_classes)[0].stop


@pytest.fixture(scope="session")
def seed42_dataset() -> EnsembleDataset:
    """The canonical N=7, M=10000, C=10 synthetic dataset (generated once)."""
    return generate(SEED42_CONFIG)


@pytest.fixture
def dataset_factory():
    """Random well-behaved datasets; logits stay small enough that softmax never saturates."""

    def make(
        rng: np.random.Generator,
        num_models: int = 3,
        num_samples: int = 50,
        num_classes: int = 4,
        unit_costs: bool = False,
    ) -> EnsembleDataset:
        logits = rng.normal(0.0, 2.0, size=(num_models, num_samples, num_classes))
        labels = rng.integers(0, num_classes, size=num_samples).astype(np.int64)
        if unit_costs:
            costs = np.ones(num_models)
        else:
            costs = rng.uniform(0.5, 3.0, size=num_models)
        return EnsembleDataset(logits.astype(np.float32), labels, costs)

    return make
