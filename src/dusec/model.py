"""Core types for storage-class based load assignment.

Conventions used across the package:

* Workers are numbered 1..N and always ordered by ascending speed.
* A set of workers is an N-bit mask: worker n corresponds to bit n-1.
  Storage classes (the datasets stored by exactly the workers in V) are
  identified by these masks.
* Every quantity that enters solver arithmetic is an exact
  ``fractions.Fraction``.  Floats appear only in rendered output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

SCHEMA_VERSION = 1  # of every JSON document read or written (scenarios, reports, CLI output)


class StructureError(ValueError):
    """Shape mismatch between objects (wrong N, wrong lengths, bad mask).

    Distinct from a :class:`Violation`: a violation is a well-formed
    assignment breaking a numeric invariant, a StructureError means the
    objects cannot even be compared.
    """


def as_fraction(value) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Floats are rejected: they would silently launder rounding error into
    the exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise StructureError(f"refusing inexact float {value!r}; pass str or Fraction")
    return Fraction(value)


def frac_str(x: Fraction) -> str:
    """Exact JSON form of a rational: always "p/q", integers included."""
    return f"{x.numerator}/{x.denominator}"


def frac_json(x: Fraction) -> dict:
    """A rational as both its exact form and a decimal for plotting."""
    return {"frac": frac_str(x), "decimal": float(x)}


def mask_of(workers: Iterable[int]) -> int:
    mask = 0
    for n in workers:
        if n < 1:
            raise StructureError(f"worker index {n} out of range (workers are 1-based)")
        mask |= 1 << (n - 1)
    return mask


def workers_of(mask: int) -> tuple[int, ...]:
    out = []
    n = 1
    while mask:
        if mask & 1:
            out.append(n)
        mask >>= 1
        n += 1
    return tuple(out)


def iter_class_masks(n_workers: int) -> range:
    """All nonempty worker subsets of [1..n_workers] as masks."""
    return range(1, 1 << n_workers)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def check_pair(instance: ProblemInstance, profile: ClassProfile) -> None:
    """Refuse a profile built for a different number of workers than the instance."""
    if profile.n_workers != instance.N:
        raise StructureError(
            f"profile covers {profile.n_workers} workers, instance has {instance.N}"
        )


@dataclass(frozen=True)
class ProblemInstance:
    """K datasets, each worker stores M of them, speeds sorted ascending.

    ``speeds`` is normalized at construction: entries are coerced to
    Fraction and sorted.  ``source_order[i]`` is the position in the
    caller's sequence that ended up in sorted slot i, so the original
    ordering is recoverable (see :meth:`original_speeds`).
    """

    K: int
    M: int
    speeds: tuple[Fraction, ...]
    source_order: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.K < 1:
            raise StructureError(f"K must be >= 1, got {self.K}")
        if not 0 <= self.M <= self.K:
            raise StructureError(f"M must lie in [0, K]; got M={self.M}, K={self.K}")
        if not self.speeds:
            raise StructureError("at least one worker is required")
        coerced = tuple(as_fraction(s) for s in self.speeds)
        if any(s <= 0 for s in coerced):
            raise StructureError("speeds must be positive")
        order = tuple(sorted(range(len(coerced)), key=lambda i: coerced[i]))
        object.__setattr__(self, "speeds", tuple(coerced[i] for i in order))
        object.__setattr__(self, "source_order", order)

    @property
    def N(self) -> int:
        return len(self.speeds)

    @property
    def alpha(self) -> Fraction | None:
        """Normalized storage ratio K/(K-M); None when M = K."""
        if self.M == self.K:
            return None
        return Fraction(self.K, self.K - self.M)

    @property
    def beta(self) -> Fraction:
        """Probability a given dataset misses one worker: ((K-M)/K)^N."""
        return Fraction(self.K - self.M, self.K) ** self.N

    def original_speeds(self) -> tuple[Fraction, ...]:
        out: list[Fraction | None] = [None] * self.N
        for slot, src in enumerate(self.source_order):
            out[src] = self.speeds[slot]
        return tuple(out)  # type: ignore[arg-type]

    def prefix_speed_sums(self) -> tuple[Fraction, ...]:
        """S[n] = s_1 + ... + s_n for n = 0..N (S[0] = 0)."""
        sums = [Fraction(0)]
        for s in self.speeds:
            sums.append(sums[-1] + s)
        return tuple(sums)

    @classmethod
    def from_alpha(cls, alpha, speeds) -> "ProblemInstance":
        """Instance with the smallest integral (K, M) realizing a rational alpha."""
        a = as_fraction(alpha)
        if a < 1:
            raise StructureError(f"alpha must be >= 1, got {a}")
        if a == 1:
            return cls(K=1, M=0, speeds=tuple(speeds))
        return cls(K=a.numerator, M=a.numerator - a.denominator, speeds=tuple(speeds))


class ProfileMode(enum.Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ClassProfile:
    """Normalized storage-class sizes a(V) for the nonempty worker subsets V.

    A measured (exact) profile carries ``class_sizes``: only its nonzero
    classes, as a read-only mask -> size map in ascending mask order.  Each
    dataset lands in exactly one class, so there are at most
    min(K, 2^N - 1) of them.  A formula (asymptotic) profile has no
    ``class_sizes``: N and ``alpha`` = K/(K-M) >= 1 fix it, and
    ``alpha=None`` is full storage, as in :attr:`ProblemInstance.alpha`.
    Its law a(V) = beta*(alpha-1)^|V| depends on V through |V| alone, so it
    stays usable where 2^N tables are impossible.  Read classes through
    :attr:`classes`.
    """

    n_workers: int
    alpha: Fraction | None = None
    class_sizes: Mapping[int, Fraction] | None = None

    def __post_init__(self):
        if self.n_workers < 1:
            raise StructureError("profile needs at least one worker")
        if self.alpha is not None:
            if self.class_sizes is not None:
                raise StructureError("a measured profile takes class_sizes without alpha")
            object.__setattr__(self, "alpha", as_fraction(self.alpha))
            if self.alpha < 1:
                raise StructureError(f"alpha must be >= 1, got {self.alpha}")
        if self.class_sizes is None:
            return
        clean: dict[int, Fraction] = {}
        limit = 1 << self.n_workers
        for mask, raw in sorted(self.class_sizes.items()):
            if not 0 < mask < limit:
                raise StructureError(f"class mask {mask} out of range for N={self.n_workers}")
            size = as_fraction(raw)
            if size.numerator < 0:
                raise StructureError(f"class {mask} has negative size {size}")
            if size:
                clean[mask] = size
        object.__setattr__(self, "class_sizes", MappingProxyType(clean))

    @property
    def mode(self) -> ProfileMode:
        return ProfileMode.ASYMPTOTIC if self.class_sizes is None else ProfileMode.EXACT

    @property
    def beta(self) -> Fraction | None:
        """Formula profiles: the share stored nowhere, alpha^-N (0 at full storage)."""
        if self.class_sizes is not None:
            return None
        return Fraction(0) if self.alpha is None else (1 / self.alpha) ** self.n_workers

    @cached_property
    def sizes_by_card(self) -> tuple[Fraction, ...] | None:
        """Formula profiles: a(V) for |V| = 0..N; None on measured profiles."""
        if self.class_sizes is not None:
            return None
        if self.alpha is None:
            return tuple(Fraction(k == self.n_workers) for k in range(self.n_workers + 1))
        return tuple(self.beta * (self.alpha - 1) ** k for k in range(self.n_workers + 1))

    def a(self, mask: int) -> Fraction:
        """Normalized size of class ``mask`` (fraction of all datasets)."""
        if not 0 < mask < (1 << self.n_workers):
            raise StructureError(f"class mask {mask} out of range for N={self.n_workers}")
        if self.class_sizes is not None:
            return self.class_sizes.get(mask, Fraction(0))
        return self.sizes_by_card[mask.bit_count()]  # type: ignore[index]

    @cached_property
    def classes(self) -> Mapping[int, Fraction]:
        """The nonzero classes: a read-only mask -> size map, ascending by mask.

        Formula profiles materialize it from their per-cardinality sizes.
        """
        if self.class_sizes is not None:
            return self.class_sizes
        if self.n_workers > 22:
            raise StructureError(f"refusing to materialize 2^{self.n_workers} classes")
        by_card = self.sizes_by_card
        return MappingProxyType({
            mask: by_card[mask.bit_count()]
            for mask in iter_class_masks(self.n_workers)
            if by_card[mask.bit_count()] != 0
        })

    @cached_property
    def cumulative(self) -> tuple[Fraction, ...]:
        """L[n] = sum of a(V) over nonempty V contained in workers 1..n.

        L[N] is the covered fraction of the dataset; 1 - L[N] is the share
        stored nowhere (beta on formula profiles).
        """
        n = self.n_workers
        if self.class_sizes is None:
            if self.alpha is None:
                # full-storage profile: only the all-workers class exists
                return tuple([Fraction(0)] * n + [Fraction(1)])
            return tuple(self.beta * (self.alpha**k - 1) for k in range(n + 1))
        by_top = [Fraction(0)] * (n + 1)
        for mask, size in self.classes.items():
            by_top[mask.bit_length()] += size
        return tuple(accumulate(by_top))


@dataclass(frozen=True)
class LoadAssignment:
    """Fractional computation shares mu[(n, V)] of class V given to worker n.

    Only nonzero shares are stored.  ``redundancy`` r says each class must
    be covered r times in total (r = 1 for the plain elastic assignment,
    r = s + m for straggler-coded plans).
    """

    n_workers: int
    redundancy: int
    shares: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        if self.redundancy < 1:
            raise StructureError("redundancy must be >= 1")
        clean: dict[tuple[int, int], Fraction] = {}
        for (n, mask), raw in self.shares.items():
            if not 1 <= n <= self.n_workers:
                raise StructureError(f"share worker {n} out of range 1..{self.n_workers}")
            if not 0 < mask < (1 << self.n_workers):
                raise StructureError(f"share class mask {mask} out of range for N={self.n_workers}")
            value = as_fraction(raw)
            if value != 0:
                clean[(n, mask)] = value
        object.__setattr__(self, "shares", MappingProxyType(clean))

    def share(self, worker: int, mask: int) -> Fraction:
        return self.shares.get((worker, mask), Fraction(0))

    def per_worker_loads(self) -> tuple[Fraction, ...]:
        loads = [Fraction(0)] * self.n_workers
        for (n, _), v in self.shares.items():
            loads[n - 1] += v
        return tuple(loads)

    def class_totals(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for (_, mask), v in self.shares.items():
            totals[mask] = totals.get(mask, Fraction(0)) + v
        return totals

    def sorted_items(self) -> list[tuple[int, int, Fraction]]:
        """(worker, mask, share) triples in a deterministic order."""
        return sorted((n, m, v) for (n, m), v in self.shares.items())

    def to_json_obj(self) -> list[dict]:
        return [
            {"n": n, "classMask": m, "share": frac_str(v)}
            for n, m, v in self.sorted_items()
        ]


@dataclass(frozen=True)
class TimeResult:
    """Min-max completion time c*, critical worker count n*, per-worker times."""

    c_star: Fraction
    n_star: int
    per_worker_time: tuple[Fraction, ...]

    def to_json_obj(self) -> dict:
        return {
            "cStar": frac_json(self.c_star),
            "nStar": self.n_star,
            "perVmTime": [frac_json(t) for t in self.per_worker_time],
        }


@dataclass(frozen=True)
class Violation:
    """One broken numeric invariant of an assignment."""

    kind: str  # "coverage" | "bounds" | "domain"
    worker: int | None
    class_mask: int | None
    detail: str


def validate(
    instance: ProblemInstance,
    profile: ClassProfile,
    assignment: LoadAssignment,
) -> list[Violation]:
    """Check an assignment against a profile; return all violations.

    Checks, per the coverage semantics of ``assignment.redundancy`` r:

    * domain: a worker may only hold a share of a class it belongs to;
    * bounds: 0 <= mu[n, V] <= a(V) for every share;
    * coverage: sum_n mu[n, V] == r * a(V) for classes with |V| >= r,
      and == 0 for classes too small to be covered r times.

    Shape mismatches raise StructureError instead of being reported as
    violations.
    """
    check_pair(instance, profile)
    if assignment.n_workers != instance.N:
        raise StructureError(
            f"assignment covers {assignment.n_workers} workers, instance has {instance.N}"
        )
    r = assignment.redundancy
    classes = profile.classes
    violations: list[Violation] = []
    for n, mask, value in assignment.sorted_items():
        if not mask & (1 << (n - 1)):
            violations.append(
                Violation("domain", n, mask, f"worker {n} holds class {mask} it does not store")
            )
        size = classes.get(mask, Fraction(0))
        if value < 0 or value > size:
            violations.append(
                Violation(
                    "bounds", n, mask, f"share {value} outside [0, {size}] for class {mask}"
                )
            )
    totals = assignment.class_totals()
    for mask in sorted(classes.keys() | totals.keys()):
        size = classes.get(mask, Fraction(0))
        expected = r * size if mask.bit_count() >= r else Fraction(0)
        got = totals.get(mask, Fraction(0))
        if got != expected:
            violations.append(
                Violation(
                    "coverage", None, mask, f"class {mask} covered {got}, expected {expected}"
                )
            )
    return violations
