"""Model lifecycle of the inference service: load once, swap atomically.

The service loads a saved :class:`~repro.core.model.GraphHDClassifier` once
at startup and serves every request from that object.  A *handle* wraps the
model together with a monotone version number; hot swap builds a complete
replacement handle off to the side (loading and warming the new model while
traffic keeps flowing) and then publishes it with a single reference
assignment.  Readers grab the current handle once per micro-batch, so an
in-flight batch always finishes on the model it started with — no request
ever observes a half-swapped model.

The class-vector reference matrix is warmed (and thereby frozen read-only,
see :meth:`AssociativeMemory._reference_matrix_native`) before a handle is
published, so concurrent HTTP worker threads share one immutable matrix and
the first request after startup or swap pays no normalization cost.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.core.model import GraphHDClassifier

__all__ = ["ModelHandle", "ModelManager", "StaleVersionError"]


class StaleVersionError(RuntimeError):
    """A version-checked reload lost the compare-and-swap race (HTTP 409)."""


@dataclass(frozen=True)
class ModelHandle:
    """An immutable (model, version) pair served to request batches.

    The handle, not the manager, travels with a micro-batch: everything a
    batch needs (encoder, class vectors, metric) hangs off one object whose
    identity never changes after publication.
    """

    model: GraphHDClassifier
    version: int
    path: str
    loaded_at: float = field(default_factory=time.time)

    @property
    def num_classes(self) -> int:
        return len(self.model.classes)

    def describe(self) -> dict:
        """JSON-ready summary used by /healthz and /stats."""
        from repro.serve.schemas import json_safe_label

        return {
            "version": self.version,
            "path": self.path,
            "loaded_at": self.loaded_at,
            "backend": self.model.config.backend,
            "metric": self.model.metric,
            "dimension": self.model.config.dimension,
            "classes": [json_safe_label(label) for label in self.model.classes],
        }


def _load_and_warm(path: str) -> GraphHDClassifier:
    """Load a saved model and pre-compute its serving-time invariants."""
    model = GraphHDClassifier.load(path)
    if not model.classes:
        raise ValueError(
            f"model archive {path} holds no trained classes; "
            "serve a fitted model"
        )
    # Warming materializes the memoized read-only reference matrix so the
    # first served batch doesn't pay class-vector normalization, and so the
    # shared matrix is frozen before any worker thread can see it.
    model.classifier.memory._reference_matrix_native()
    return model


class ModelManager:
    """Owns the live :class:`ModelHandle` and performs atomic hot swaps."""

    def __init__(self, path: str) -> None:
        self._swap_lock = threading.Lock()
        #: Reloads may only name archives under this directory (the one
        #: holding the startup archive): ``POST /reload`` takes its path from
        #: the network, and loading an archive unpickles it.
        self.directory = os.path.realpath(os.path.dirname(os.path.abspath(path)))
        self._handle = ModelHandle(
            model=_load_and_warm(path), version=1, path=os.fspath(path)
        )

    def current(self) -> ModelHandle:
        """The live handle.

        A bare attribute read — atomic under the GIL — so the request path
        never takes a lock; batches pin the handle they start with.
        """
        return self._handle

    def reload(
        self, path: str | None = None, expected_version: int | None = None
    ) -> ModelHandle:
        """Load a model and publish it as the new live handle.

        ``path`` defaults to the currently served archive (re-reading an
        updated file in place); an explicit ``path`` whose real path lies
        outside :attr:`directory` is refused with ``ValueError``.  When
        ``expected_version`` is given the swap is compare-and-swap: it only
        publishes if the live version still matches, otherwise
        :class:`StaleVersionError` — so two concurrent operators cannot
        silently overwrite each other's swap.  The new model is fully loaded
        and warmed *before* the pointer moves, and the old handle stays
        valid for batches already holding it.
        """
        with self._swap_lock:
            live = self._handle
            if expected_version is not None and live.version != expected_version:
                raise StaleVersionError(
                    f"live model is version {live.version}, reload expected "
                    f"{expected_version}; re-read /healthz and retry"
                )
            target = live.path
            if path is not None:
                target = os.fspath(path)
                real = os.path.realpath(target)
                if os.path.commonpath([self.directory, real]) != self.directory:
                    raise ValueError(
                        f"{target} lies outside the model directory "
                        f"{self.directory}"
                    )
            model = _load_and_warm(target)
            handle = ModelHandle(model=model, version=live.version + 1, path=target)
            self._handle = handle
            return handle
