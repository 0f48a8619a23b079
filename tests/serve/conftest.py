"""Shared fixtures for the serving test suite.

Models are trained once per session on the shared MUTAG-style dataset and
saved to one directory; individual tests load/serve those archives.  Servers always
bind port 0 (ephemeral) so the suite is parallel-safe.
"""

from __future__ import annotations

import pytest

from repro.core.encoding import GraphHDConfig
from repro.core.model import GraphHDClassifier
from repro.datasets.synthetic import make_benchmark_dataset

DIMENSION = 1024


@pytest.fixture(scope="session")
def serve_dataset():
    return make_benchmark_dataset("MUTAG", scale=0.3, seed=5)


def _train_and_save(dataset, path, backend: str, seed: int = 0) -> str:
    model = GraphHDClassifier(
        GraphHDConfig(dimension=DIMENSION, seed=seed, backend=backend)
    )
    model.fit(dataset.graphs, dataset.labels)
    model.save(path)
    return str(path)


@pytest.fixture(scope="session")
def serve_model_dir(tmp_path_factory):
    """One directory for every archive, so ``/reload`` may move between them."""
    return tmp_path_factory.mktemp("serve-models")


@pytest.fixture(scope="session")
def dense_model_path(serve_dataset, serve_model_dir) -> str:
    return _train_and_save(serve_dataset, serve_model_dir / "dense.npz", "dense")


@pytest.fixture(scope="session")
def packed_model_path(serve_dataset, serve_model_dir) -> str:
    return _train_and_save(serve_dataset, serve_model_dir / "packed.npz", "packed")


@pytest.fixture(scope="session")
def retrained_model_path(serve_dataset, serve_model_dir) -> str:
    """A second, distinguishable packed model (different basis seed)."""
    path = serve_model_dir / "packed-v2.npz"
    return _train_and_save(serve_dataset, path, "packed", seed=11)
