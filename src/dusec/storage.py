"""Random decentralized storage placement and storage-class profiles.

Each worker independently stores a uniformly random M-subset of the K
datasets, drawn from its own counter-based stream.  Streams are keyed by
(seed, worker index), so growing the fleet never perturbs the subsets of
the workers already present.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import ClassProfile, StructureError, UnitMap, check_count, check_counts, int64_rows

MASK_MAX_WORKERS = 62  # largest N of a measured placement's class masks (int64 arrays)


def _increasing(arr: np.ndarray) -> bool:
    """Whether ``arr`` is strictly increasing: sorted, with no duplicates."""
    return bool((arr[1:] > arr[:-1]).all())


def _worker_rng(seed: int, stream_key: int) -> np.random.Generator:
    """Worker ``stream_key``'s stream; the seed is refused unless it is an int >= 0."""
    check_count("seed", seed, low=0)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream_key])))


def _sample_subset(K: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform M-subset of {0..K-1}: the front of a partial Fisher-Yates pass.

    One batched uniform draw per element; the float-to-index map has bias
    below 2^-53 per swap, far under any tolerance used on these samples.
    No swap runs, since only the set in positions 0..M-1 is returned.  Swap
    i fixes position i for good, so a tail position p >= M ends in the front
    when some swap drew it, and keeps the value that the last such swap i
    carried out of position i.  That value is the index reached by following
    the last swaps into position i back to one that no swap moved into.
    """
    offsets = np.arange(M, dtype=np.int64)
    # swap i takes j = i + floor(u_i * (K - i)); the stream is pinned by a test
    swaps = offsets + (rng.random(M) * (K - offsets)).astype(np.int64)
    last = np.full(K, -1, dtype=np.int64)  # the last swap that drew each position
    # a swap that draws its own position moves nothing; no chain below goes through it
    np.maximum.at(last, swaps, offsets)
    root = np.where(last[:M] < 0, offsets, last[:M])
    while not np.array_equal(step := root[root], root):  # pointer doubling: O(M log M)
        root = step
    keep = last >= 0  # in the tail: the positions that some swap drew
    keep[:M] = True
    keep[root[last[M:][keep[M:]]]] = False  # the values the last swaps into them carried out
    out = np.flatnonzero(keep).astype(np.int64, copy=False)
    out.setflags(write=False)
    return out


def generate_worker_subset(K: int, M: int, seed: int) -> np.ndarray:
    """Storage of a single worker with its own seed (catalog use)."""
    check_counts(K, M)
    return _sample_subset(K, M, _worker_rng(seed, 0))


@dataclass(frozen=True)
class ExplicitStorage:
    """Concrete placement: per_worker[i] is the sorted dataset array of worker i+1."""

    K: int
    M: int
    per_worker: tuple[np.ndarray, ...]
    seed: int | None = None

    def __post_init__(self):
        check_counts(self.K, self.M)
        if self.seed is not None:
            check_count("seed", self.seed, low=0)
        if not self.per_worker:
            raise StructureError("storage needs at least one worker")
        for i, arr in enumerate(self.per_worker):
            # a float or boolean array names no datasets
            if not isinstance(arr, np.ndarray) or arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise StructureError(f"worker {i + 1} needs a 1-D integer array of dataset indices")
            if len(arr) != self.M:
                raise StructureError(f"worker {i + 1} stores {len(arr)} datasets, expected {self.M}")
            if len(arr) and (arr.min() < 0 or arr.max() >= self.K):
                raise StructureError(f"worker {i + 1} stores a dataset outside [0, {self.K})")
            if not _increasing(arr) and len(np.unique(arr)) != len(arr):
                raise StructureError(f"worker {i + 1} stores a duplicate dataset")

    @property
    def n_workers(self) -> int:
        return len(self.per_worker)

    @cached_property
    def class_index(self) -> np.ndarray:
        """For each dataset, the mask of workers storing it (0 = stored nowhere)."""
        if self.n_workers > MASK_MAX_WORKERS:
            raise StructureError(f"class masks limited to {MASK_MAX_WORKERS} workers")
        idx = np.zeros(self.K, dtype=np.int64)
        for i, arr in enumerate(self.per_worker):
            idx[arr] |= np.int64(1 << i)
        idx.setflags(write=False)
        return idx

    def class_counts(self) -> np.ndarray:
        """Dataset count per class mask (length 2^N array, index = mask)."""
        return np.bincount(self.class_index, minlength=1 << self.n_workers)

    def subset(self, worker_numbers: Sequence[int]) -> "ExplicitStorage":
        """Storage restricted to the given workers (numbered 1..N), in the given order."""
        for n in worker_numbers:
            if not 1 <= n <= self.n_workers:
                raise StructureError(f"no worker {n}: storage has workers 1..{self.n_workers}")
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
            "perVm": [arr.tolist() for arr in self.per_worker],  # integer dtypes give ints
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExplicitStorage":
        """Storage from the object :meth:`to_json_obj` writes.

        Each ``perVm`` row lists one worker's datasets as JSON integers in
        [0, K) with no duplicates.  Rows may come in any order: they are
        sorted on read.  A float (even ``3.0``), a string, a boolean,
        ``null``, a nested list or an integer outside int64 is refused
        with :class:`StructureError`, never truncated to an integer.
        :func:`~dusec.model.int64_rows` reads each row unsigned (14 ns per
        element, 30 ns signed), and refuses 2^63 to 2^64 - 1 in range.
        """
        try:
            K, M, N, per_vm = obj["K"], obj["M"], obj["N"], obj["perVm"]
        except (KeyError, TypeError) as exc:
            raise StructureError(f"storage object missing/invalid field: {exc}") from exc
        check_count("N", N)  # K, M and the seed are the constructor's to check
        if not isinstance(per_vm, list):
            raise StructureError("perVm must be a list of per-worker lists")
        if len(per_vm) != N:
            raise StructureError(f"perVm has {len(per_vm)} workers, N says {N}")
        arrays = []
        for i, lst in enumerate(per_vm):
            # int64_rows refuses a float, string, None, list or int outside int64, but reads
            # True as 1; a valid row holds 0 and 1 at most once each, so few entries are looked at
            rows = int64_rows([lst]) if isinstance(lst, list) else None
            if rows is None or any(type(lst[j]) is bool for j in np.flatnonzero(rows[0] <= 1)):
                raise StructureError(f"perVm[{i}] must be a list of integers")
            arr = rows[0] if _increasing(rows[0]) else np.sort(rows[0])  # to_json_obj writes sorted rows
            arr.setflags(write=False)
            arrays.append(arr)
        return cls(K=K, M=M, per_worker=tuple(arrays), seed=obj.get("seed"))


def generate_decentralized(K: int, M: int, N: int, seed: int = 0) -> ExplicitStorage:
    """Independent uniform M-subsets for workers 1..N.

    Worker n's subset depends only on (seed, n): generating with N+1
    workers reproduces the first N subsets bit for bit.
    """
    check_count("N", N)
    check_counts(K, M)
    per_worker = tuple(_sample_subset(K, M, _worker_rng(seed, n)) for n in range(1, N + 1))
    return ExplicitStorage(K=K, M=M, per_worker=per_worker, seed=seed)


def exact_profile(storage: ExplicitStorage) -> ClassProfile:
    """Measured class sizes a(V) = |datasets stored by exactly V| / K, held
    as the dataset counts over K (each divided by their gcd with K)."""
    masks, counts = np.unique(storage.class_index, return_counts=True)
    counts_by_mask = dict(zip(masks.tolist(), counts.tolist()))
    counts_by_mask.pop(0, None)  # datasets stored nowhere
    return ClassProfile(
        n_workers=storage.n_workers, class_sizes=UnitMap(counts_by_mask, storage.K)
    )


def profile_from_alpha(alpha, n_workers: int) -> ClassProfile:
    """Formula profile from the normalized storage ratio alpha = K/(K-M).

    alpha may be None (every worker stores everything): the only class is
    the full worker set, with size 1.
    """
    return ClassProfile(n_workers=n_workers, alpha=alpha)

