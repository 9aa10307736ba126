"""Random decentralized storage placement and storage-class profiles.

Each worker independently stores a uniformly random M-subset of the K
datasets, drawn from its own counter-based stream.  Streams are keyed by
(seed, worker index), so growing the fleet never perturbs the subsets of
the workers already present.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (
    ClassProfile,
    ProfileMode,
    StructureError,
    as_fraction,
)


def _worker_rng(seed: int, stream_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream_key])))


def _sample_subset(K: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform M-subset of {0..K-1} via a partial Fisher-Yates pass.

    One batched uniform draw per element; the float-to-index map has bias
    below 2^-53 per swap, far under any tolerance used on these samples.
    """
    if M == 0:
        out = np.empty(0, dtype=np.int64)
        out.setflags(write=False)
        return out
    pool = np.arange(K, dtype=np.int64)
    u = rng.random(M)
    for i in range(M):
        j = i + int(u[i] * (K - i))
        pool[i], pool[j] = pool[j], pool[i]
    out = np.sort(pool[:M])
    out.setflags(write=False)
    return out


def generate_worker_subset(K: int, M: int, seed: int) -> np.ndarray:
    """Storage of a single worker with its own seed (catalog use)."""
    if not 0 <= M <= K:
        raise StructureError(f"M must lie in [0, K]; got M={M}, K={K}")
    return _sample_subset(K, M, _worker_rng(seed, 0))


@dataclass(frozen=True)
class ExplicitStorage:
    """Concrete placement: per_worker[i] is the sorted dataset array of worker i+1."""

    K: int
    M: int
    per_worker: tuple[np.ndarray, ...]
    seed: int | None = None

    def __post_init__(self):
        if not 0 <= self.M <= self.K:
            raise StructureError(f"M must lie in [0, K]; got M={self.M}, K={self.K}")
        if not self.per_worker:
            raise StructureError("storage needs at least one worker")
        for i, arr in enumerate(self.per_worker):
            if len(arr) != self.M:
                raise StructureError(f"worker {i + 1} stores {len(arr)} datasets, expected {self.M}")
            if len(arr) and (arr.min() < 0 or arr.max() >= self.K):
                raise StructureError(f"worker {i + 1} stores a dataset outside [0, {self.K})")
            if len(np.unique(arr)) != len(arr):
                raise StructureError(f"worker {i + 1} stores a duplicate dataset")

    @property
    def n_workers(self) -> int:
        return len(self.per_worker)

    @cached_property
    def class_index(self) -> np.ndarray:
        """For each dataset, the mask of workers storing it (0 = stored nowhere)."""
        if self.n_workers > 62:
            raise StructureError("class masks limited to 62 workers")
        idx = np.zeros(self.K, dtype=np.int64)
        for i, arr in enumerate(self.per_worker):
            idx[arr] |= np.int64(1 << i)
        idx.setflags(write=False)
        return idx

    def class_counts(self) -> np.ndarray:
        """Dataset count per class mask (length 2^N array, index = mask)."""
        return np.bincount(self.class_index, minlength=1 << self.n_workers)

    @property
    def sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(int(d) for d in arr) for arr in self.per_worker)

    def subset(self, worker_numbers: Sequence[int]) -> "ExplicitStorage":
        """Storage restricted to the given workers, in the given order."""
        return ExplicitStorage(
            K=self.K,
            M=self.M,
            per_worker=tuple(self.per_worker[n - 1] for n in worker_numbers),
            seed=None,
        )

    def to_json_obj(self) -> dict:
        return {
            "K": self.K,
            "M": self.M,
            "N": self.n_workers,
            "seed": self.seed,
            "perVm": [[int(d) for d in arr] for arr in self.per_worker],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExplicitStorage":
        try:
            K = int(obj["K"])
            M = int(obj["M"])
            N = int(obj["N"])
            per_vm = obj["perVm"]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"storage object missing/invalid field: {exc}") from exc
        if len(per_vm) != N:
            raise StructureError(f"perVm has {len(per_vm)} workers, N says {N}")
        arrays = []
        for lst in per_vm:
            arr = np.asarray(sorted(int(d) for d in lst), dtype=np.int64)
            arr.setflags(write=False)
            arrays.append(arr)
        seed = obj.get("seed")
        return cls(K=K, M=M, per_worker=tuple(arrays), seed=None if seed is None else int(seed))


def generate_decentralized(K: int, M: int, N: int, seed: int = 0) -> ExplicitStorage:
    """Independent uniform M-subsets for workers 1..N.

    Worker n's subset depends only on (seed, n): generating with N+1
    workers reproduces the first N subsets bit for bit.
    """
    if N < 1:
        raise StructureError("N must be >= 1")
    if not 0 <= M <= K:
        raise StructureError(f"M must lie in [0, K]; got M={M}, K={K}")
    per_worker = tuple(_sample_subset(K, M, _worker_rng(seed, n)) for n in range(1, N + 1))
    return ExplicitStorage(K=K, M=M, per_worker=per_worker, seed=seed)


def exact_profile(storage: ExplicitStorage) -> ClassProfile:
    """Measured class sizes a(V) = |datasets stored by exactly V| / K."""
    n = storage.n_workers
    if n > 20:
        raise StructureError(f"exact profile limited to 20 workers, got {n}")
    counts = storage.class_counts()
    sizes = tuple(Fraction(int(counts[mask]), storage.K) for mask in range(1, 1 << n))
    alpha = None if storage.M == storage.K else Fraction(storage.K, storage.K - storage.M)
    beta = Fraction(storage.K - storage.M, storage.K) ** n
    return ClassProfile(
        mode=ProfileMode.EXACT,
        n_workers=n,
        alpha=alpha,
        beta=beta,
        class_sizes=sizes,
    )


def profile_from_alpha(alpha, n_workers: int) -> ClassProfile:
    """Formula profile from the normalized storage ratio alpha = K/(K-M).

    alpha may be None (every worker stores everything): the only class is
    the full worker set, with size 1.
    """
    if n_workers < 1:
        raise StructureError("N must be >= 1")
    if alpha is None:
        by_card = tuple(
            Fraction(1) if k == n_workers else Fraction(0) for k in range(n_workers + 1)
        )
        return ClassProfile(
            mode=ProfileMode.ASYMPTOTIC,
            n_workers=n_workers,
            alpha=None,
            beta=Fraction(0),
            sizes_by_card=by_card,
        )
    a = as_fraction(alpha)
    if a < 1:
        raise StructureError(f"alpha must be >= 1, got {a}")
    beta = (1 / a) ** n_workers
    by_card = tuple(beta * (a - 1) ** k for k in range(n_workers + 1))
    return ClassProfile(
        mode=ProfileMode.ASYMPTOTIC,
        n_workers=n_workers,
        alpha=a,
        beta=beta,
        sizes_by_card=by_card,
    )

