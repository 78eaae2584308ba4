"""Noise distribution collection and sampling (paper §2.5).

Shredder does not deploy a single noise tensor: it repeats noise training
from different Laplace initialisations until it has a *collection* of
tensors, all with similar accuracy and privacy.  The collection is the
empirical noise distribution; at inference time one member is sampled per
request and injected — no training happens in deployment.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError, NoiseOwnershipError, TrainingError


class NoiseStream:
    """Single-owner handle on the noise-sampling generator.

    The parity guarantee of the serving runtime rests on every request's
    noise members being drawn *in arrival order from one generator*.  The
    multi-worker engine keeps that true by construction — the dispatcher
    thread samples noise before micro-batches are handed to cloud workers —
    and this wrapper makes the handoff explicit rather than accidental: the
    first thread to draw becomes the owner, and a draw from any other
    thread raises :class:`~repro.errors.NoiseOwnershipError` (a
    :class:`~repro.errors.ConfigurationError` subclass) instead of silently
    interleaving the bit stream (which would make multi-worker runs
    irreproducible).

    ``draws`` counts the rows sampled so far, so callers can audit that the
    batched path consumed the generator exactly as the sequential reference
    would (one draw per sample).

    Args:
        rng: The generator to guard (or a seed; ``None`` seeds from OS
            entropy).
    """

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        if isinstance(rng, np.random.Generator):
            self._rng = rng
        else:
            self._rng = np.random.default_rng(rng)
        self._owner: int | None = None
        self._guard = threading.Lock()
        self.draws = 0

    def acquire(self, rows: int = 0) -> np.random.Generator:
        """The wrapped generator, after asserting calling-thread ownership.

        Args:
            rows: Samples about to be drawn; accounted in :attr:`draws`.
        """
        ident = threading.get_ident()
        with self._guard:
            if self._owner is None:
                self._owner = ident
            elif self._owner != ident:
                raise NoiseOwnershipError(
                    "noise stream drawn from two threads: the dispatcher must "
                    "be the single generator owner (call release() to hand "
                    "the stream to a new owner explicitly)"
                )
            self.draws += int(rows)
        return self._rng

    def release(self) -> None:
        """Explicitly hand the stream over: the next drawing thread owns it."""
        with self._guard:
            self._owner = None


def _sampling_generator(
    rng: "np.random.Generator | NoiseStream", rows: int
) -> np.random.Generator:
    """Unwrap a :class:`NoiseStream` (enforcing ownership) or pass a bare
    generator through untouched."""
    if isinstance(rng, NoiseStream):
        return rng.acquire(rows)
    return rng


@dataclass(frozen=True)
class NoiseSample:
    """One trained noise tensor with its measured qualities."""

    tensor: np.ndarray
    accuracy: float
    in_vivo_privacy: float


class NoiseCollection:
    """An empirical distribution over trained noise tensors.

    Args:
        activation_shape: Per-sample activation shape every member must
            match (e.g. ``(C, H, W)``); the broadcast batch dim is stripped.
    """

    def __init__(self, activation_shape: tuple[int, ...]) -> None:
        self.activation_shape = tuple(activation_shape)
        self._samples: list[NoiseSample] = []
        self._stacked: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, tensor: np.ndarray, accuracy: float, in_vivo_privacy: float) -> None:
        """Add a trained tensor to the collection."""
        tensor = np.asarray(tensor, dtype=np.float32)
        if tensor.ndim == len(self.activation_shape) + 1 and tensor.shape[0] == 1:
            tensor = tensor[0]
        if tensor.shape != self.activation_shape:
            raise ConfigurationError(
                f"noise shape {tensor.shape} does not match collection shape "
                f"{self.activation_shape}"
            )
        self._samples.append(
            NoiseSample(tensor=tensor.copy(), accuracy=accuracy, in_vivo_privacy=in_vivo_privacy)
        )
        self._stacked = None  # invalidate the member-stack cache

    def _member_stack(self) -> np.ndarray:
        """All members as one cached ``(M, *activation_shape)`` array.

        Sampling is a per-inference hot path (one draw per request in the
        §2.5 deployment story); re-stacking every member tensor on every
        call made it O(M · tensor) in Python.  The stack is built once and
        invalidated by :meth:`add`.
        """
        if self._stacked is None:
            self._stacked = np.stack([s.tensor for s in self._samples])
        return self._stacked

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[NoiseSample]:
        return list(self._samples)

    # ------------------------------------------------------------------
    # Sampling (deployment path)
    # ------------------------------------------------------------------
    def sample(self, rng: "np.random.Generator | NoiseStream") -> np.ndarray:
        """Draw one noise tensor uniformly (with the batch dim restored)."""
        if not self._samples:
            raise TrainingError("cannot sample from an empty noise collection")
        index = int(_sampling_generator(rng, 1).integers(0, len(self._samples)))
        return self._samples[index].tensor[None]

    def sample_batch(self, rng: "np.random.Generator | NoiseStream", n: int) -> np.ndarray:
        """Draw ``n`` independent member tensors, one per inference.

        This is the deployment behaviour of §2.5 — and the reason Shredder
        reduces mutual information at all: a *fixed* tensor added to every
        activation is a constant shift with ``I(x; a+c) = I(x; a)``, whereas
        per-inference draws from the collection realise a genuinely noisy
        channel.
        """
        if not self._samples:
            raise TrainingError("cannot sample from an empty noise collection")
        indices = _sampling_generator(rng, n).integers(0, len(self._samples), size=n)
        return self._member_stack().take(indices, 0)

    def sample_splits(
        self, rng: "np.random.Generator | NoiseStream", splits: Sequence[int]
    ) -> np.ndarray:
        """Per-request draws for a micro-batch of ``splits`` row counts.

        One vectorised ``rng.integers`` call of ``sum(splits)`` values and
        one stacked member gather.  NumPy's bounded-integer generation
        consumes the bit stream element by element, so this draws exactly
        the indices the equivalent sequence of per-request
        :meth:`sample_batch` calls would — the serving runtime's parity
        contract, locked in by ``tests/core/test_sampler.py``.
        """
        if not self._samples:
            raise TrainingError("cannot sample from an empty noise collection")
        total = int(sum(splits))
        indices = _sampling_generator(rng, total).integers(
            0, len(self._samples), size=total
        )
        return self._member_stack().take(indices, 0)

    def sample_elementwise(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a *new* tensor from the per-element empirical marginals.

        An extension beyond uniform member sampling: each element is drawn
        independently from the values that element took across the
        collection, enlarging the effective support of the distribution.
        """
        if len(self._samples) < 2:
            raise TrainingError("element-wise sampling needs >= 2 members")
        picks = rng.integers(0, len(self._samples), size=self.activation_shape)
        flat = self._member_stack().reshape(len(self._samples), -1)
        chosen = flat[picks.reshape(-1), np.arange(flat.shape[1])]
        return chosen.reshape(self.activation_shape)[None]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean_accuracy(self) -> float:
        self._require_nonempty()
        return float(np.mean([s.accuracy for s in self._samples]))

    def mean_in_vivo_privacy(self) -> float:
        self._require_nonempty()
        return float(np.mean([s.in_vivo_privacy for s in self._samples]))

    def _require_nonempty(self) -> None:
        if not self._samples:
            raise TrainingError("noise collection is empty")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the collection as an ``.npz`` archive."""
        self._require_nonempty()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            tensors=np.stack([s.tensor for s in self._samples]),
            accuracies=np.array([s.accuracy for s in self._samples]),
            privacies=np.array([s.in_vivo_privacy for s in self._samples]),
        )
        if not path.name.endswith(".npz"):
            path = path.with_name(path.name + ".npz")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "NoiseCollection":
        """Read a collection previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"no noise collection at {path}")
        with np.load(path) as archive:
            tensors = archive["tensors"]
            accuracies = archive["accuracies"]
            privacies = archive["privacies"]
        collection = cls(tensors.shape[1:])
        for tensor, accuracy, privacy in zip(tensors, accuracies, privacies):
            collection.add(tensor, float(accuracy), float(privacy))
        return collection


def collect_noise_distribution(
    train_one: Callable[[int], NoiseSample],
    n_members: int,
) -> NoiseCollection:
    """Build a collection by repeated noise training (paper §2.5).

    Args:
        train_one: Callable mapping a member index (used to vary the
            initialisation seed) to a trained :class:`NoiseSample`.
        n_members: Number of training repetitions.
    """
    if n_members < 1:
        raise ConfigurationError(f"need at least one member, got {n_members}")
    first = train_one(0)
    shape = first.tensor.shape[1:] if first.tensor.shape[0] == 1 else first.tensor.shape
    collection = NoiseCollection(shape)
    collection.add(first.tensor, first.accuracy, first.in_vivo_privacy)
    for index in range(1, n_members):
        sample = train_one(index)
        collection.add(sample.tensor, sample.accuracy, sample.in_vivo_privacy)
    return collection
