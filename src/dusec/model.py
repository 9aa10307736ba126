"""Core types for storage-class based load assignment.

Conventions used across the package:

* Workers are numbered 1..N and always ordered by ascending speed.
* A set of workers is an N-bit mask: worker n corresponds to bit n-1.
  Storage classes (the datasets stored by exactly the workers in V) are
  identified by these masks.
* Every quantity that enters solver arithmetic is an exact rational:
  a ``fractions.Fraction``, or integers over one stated denominator
  (:class:`UnitMap`, as measured profiles and all assignments hold
  them).  Floats appear only in rendered output.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from types import MappingProxyType

import numpy as np

SCHEMA_VERSION = 1  # of every JSON document read or written (scenarios, reports, CLI output)
CLASS_MAP_MAX_WORKERS = 22  # largest N whose formula profile builds its 2^N - 1 class map
_UNSIGNED = "L" if array("L").itemsize == 8 else "Q"  # an 8-byte unsigned typecode, for int64_rows


class StructureError(ValueError):
    """Shape mismatch between objects (wrong N, wrong lengths, bad mask).

    Distinct from a :class:`Violation`: a violation is a well-formed
    assignment breaking a numeric invariant, a StructureError means the
    objects cannot even be compared.
    """


def as_fraction(value) -> Fraction:
    """Coerce int / str / Fraction to an exact Fraction.

    Floats are rejected: they would silently launder rounding error into
    the exact pipeline.  Booleans (ints to Python, not numbers to JSON) and
    zero denominators are rejected too.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise StructureError(f"refusing inexact float {value!r}; pass str or Fraction")
    if isinstance(value, bool):
        raise StructureError(f"refusing boolean {value!r} as a number")
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:
        raise StructureError(f"zero denominator in {value!r}") from exc


def as_alpha(value) -> Fraction:
    """The normalized storage ratio alpha = K/(K-M) as an exact Fraction, refused below 1."""
    alpha = as_fraction(value)
    if alpha < 1:
        raise StructureError(f"alpha must be >= 1, got {alpha}")
    return alpha


def is_int(value) -> bool:
    """Whether a parsed JSON value is an integer: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def int64_rows(rows) -> np.ndarray | None:
    """Equal-length rows of integers, lists or tuples, as one (rows, width) int64 array.

    An element is an integer when ``operator.index`` takes it: ints,
    booleans, numpy integers and any type with ``__index__``.  Returns
    ``None``, and words no refusal, when a row is neither a list nor a
    tuple, the rows differ in length, or an element fails
    ``operator.index`` or lies outside int64.

    Rows are read through an unsigned 8-byte ``array``, because CPython
    converts an element for an unsigned typecode with one
    ``PyLong_AsUnsignedLong`` call and for a signed one through
    ``PyArg_Parse``: 14 against 30 ns per element on Python 3.11 on a
    2-core Xeon, and 2.2 to 2.6 times faster on 3.10 to 3.13 alike.
    Only a row holding a negative, which makes that read raise
    ``OverflowError``, is read again with the signed ``'q'``; the rows read
    unsigned must lie below 2^63, or they would wrap to negative int64.
    """
    if not all(isinstance(row, (list, tuple)) for row in rows) or len(set(map(len, rows))) > 1:
        return None
    buf, signed = array(_UNSIGNED), []
    try:
        for i, row in enumerate(rows):
            row = row if isinstance(row, list) else list(row)
            try:
                buf.fromlist(row)
            except OverflowError:
                buf.frombytes(array("q", row).tobytes())
                signed.append(i)
    except (TypeError, OverflowError):
        return None
    out = np.frombuffer(buf, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)
    unsigned = np.delete(out, signed, axis=0) if signed else out
    return None if unsigned.size and unsigned.min() < 0 else out


def check_schema_version(obj: Mapping, error: type[ValueError] = StructureError) -> None:
    """Refuse a JSON document whose ``schemaVersion``, if it has one, is not :data:`SCHEMA_VERSION`."""
    version = obj.get("schemaVersion", SCHEMA_VERSION)
    if not is_int(version) or version != SCHEMA_VERSION:
        raise error(f"schemaVersion: unsupported version {version!r}")


def common_denominator(denominators: Iterable[int]) -> int:
    """The least common multiple of positive integer denominators (1 for none)."""
    return lcm(*denominators)


def over_one_denominator(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators of the Fractions ``values`` over their least common denominator."""
    denom = common_denominator({v.denominator for v in values})
    return tuple(v.numerator * (denom // v.denominator) for v in values), denom


class UnitMap(Mapping):
    """A read-only map to exact rationals, held as integers over one denominator.

    ``units`` maps each key to its integer numerator and ``denom`` is the
    one positive denominator.  Reading a value gives it as a ``Fraction``;
    the Fractions are built together, on the first such read.  Iteration,
    ``len`` and ``in`` read the keys alone.  The map keeps ``units``
    without a copy or a check: :class:`ClassProfile` and
    :class:`LoadAssignment` check it and keep their own copy.
    """

    __slots__ = ("units", "denom", "_fractions")

    def __init__(self, units: Mapping, denom: int):
        check_count("denominator", denom)
        self.units = MappingProxyType(units)
        self.denom = denom
        self._fractions: Mapping | None = None

    @classmethod
    def of(cls, fractions: Mapping) -> UnitMap:
        """The Fractions ``fractions`` over their least common denominator."""
        numerators, denom = over_one_denominator(fractions.values())
        return cls(dict(zip(fractions, numerators)), denom)

    def _values(self) -> Mapping:
        if self._fractions is None:
            denom = self.denom
            self._fractions = MappingProxyType(
                {key: Fraction(unit, denom) for key, unit in self.units.items()}
            )
        return self._fractions

    def __getitem__(self, key):
        return self._values()[key]

    def __iter__(self):
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def __contains__(self, key) -> bool:
        return key in self.units

    def items(self):
        return self._values().items()

    def values(self):
        return self._values().values()

    def __repr__(self) -> str:
        return f"UnitMap({dict(self.units)!r}, {self.denom})"


def frac_str(x: Fraction) -> str:
    """Exact JSON form of a rational: always "p/q", integers included."""
    return f"{x.numerator}/{x.denominator}"


def as_decimal(x: Fraction) -> float:
    """The float nearest ``x``, for rendered output; refuses what overflows a float."""
    try:
        return float(x)
    except OverflowError as exc:
        raise StructureError(f"value {frac_str(x)} is too large for a decimal") from exc


def frac_json(x: Fraction) -> dict:
    """A rational as both its exact form and a decimal for plotting."""
    return {"frac": frac_str(x), "decimal": as_decimal(x)}


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
    """Refuse a profile built for a different fleet than the instance: another
    number of workers, or, on a formula profile, another alpha (``None``,
    full storage, on both sides counts as equal)."""
    if profile.n_workers != instance.N:
        raise StructureError(
            f"profile covers {profile.n_workers} workers, instance has {instance.N}"
        )
    if profile.class_sizes is None and profile.alpha != instance.alpha:
        raise StructureError(
            f"formula profile has alpha {profile.alpha}, instance has {instance.alpha}"
        )


def check_count(name: str, value, low: int = 1, error: type[ValueError] = StructureError) -> None:
    """The one integer rule of counts, seeds, ``vm_index`` and coding parameters: raise
    ``error`` (each layer passes its own) unless ``value`` is an int, not a bool, >= ``low``."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")


def check_counts(K, M) -> None:
    """Refuse a dataset count K or a per-worker count M that is not an
    integer (booleans included), K < 1, or M outside [0, K]."""
    check_count("K", K)
    check_count("M", M, low=0)
    if M > K:
        raise StructureError(f"M must lie in [0, K]; got M={M}, K={K}")


@dataclass(frozen=True)
class ProblemInstance:
    """K datasets, each worker stores M of them, speeds sorted ascending.

    ``speeds`` is normalized at construction: entries are coerced to
    Fraction and sorted stably.  ``source_order[i]`` (computed, not an
    argument) is the position in the caller's sequence now in sorted slot i.
    """

    K: int
    M: int
    speeds: tuple[Fraction, ...]
    source_order: tuple[int, ...] = field(default=(), init=False)

    def __post_init__(self):
        check_counts(self.K, self.M)
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

    @cached_property
    def speed_units(self) -> tuple[tuple[int, ...], int]:
        """The speeds as integer numerators over their least common denominator."""
        return over_one_denominator(self.speeds)

    @property
    def alpha(self) -> Fraction | None:
        """Normalized storage ratio K/(K-M); None when M = K."""
        if self.M == self.K:
            return None
        return Fraction(self.K, self.K - self.M)

    @cached_property
    def prefix_speed_units(self) -> tuple[tuple[int, ...], int]:
        """S[n] = s_1 + ... + s_n for n = 0..N (S[0] = 0), as integers over
        the denominator of :attr:`speed_units`."""
        units, denom = self.speed_units
        return tuple(accumulate(units, initial=0)), denom

    @classmethod
    def from_alpha(cls, alpha, speeds) -> "ProblemInstance":
        """Instance with the smallest integral (K, M) realizing a rational alpha."""
        a = as_alpha(alpha)
        if a == 1:
            return cls(K=1, M=0, speeds=tuple(speeds))
        return cls(K=a.numerator, M=a.numerator - a.denominator, speeds=tuple(speeds))


class ProfileMode(enum.Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


def _check_numerators(units: UnitMap) -> None:
    """Refuse numerators that are not Python ints: a numpy integer would
    wrap on overflow once the solvers scale it."""
    if not set(map(type, units.units.values())) <= {int}:
        raise StructureError("numerators must be Python integers")


def _checked_sizes(sizes: UnitMap, limit: int) -> UnitMap:
    """Class sizes checked on their integers: masks in 1..limit-1, no
    negative size, zero sizes dropped, in ascending mask order; then the
    numerators and the denominator divided by their gcd."""
    _check_numerators(sizes)
    items = sorted(sizes.units.items())
    if items and not (0 < items[0][0] and items[-1][0] < limit):
        mask = next(mask for mask, _ in items if not 0 < mask < limit)
        raise StructureError(f"class mask {mask} out of range for N={limit.bit_length() - 1}")
    units = dict(items)
    if units and min(units.values()) <= 0:
        for mask, unit in items:
            if unit < 0:
                raise StructureError(
                    f"class {mask} has negative size {Fraction(unit, sizes.denom)}"
                )
        units = {mask: unit for mask, unit in items if unit}
    common = gcd(sizes.denom, *units.values())
    if common > 1:
        units = {mask: unit // common for mask, unit in units.items()}
    return UnitMap(units, sizes.denom // common)


@dataclass(frozen=True)
class ClassProfile:
    """Normalized storage-class sizes a(V) for the nonempty worker subsets V.

    A measured (exact) profile carries ``class_sizes``: only its nonzero
    classes, as a read-only mask -> size :class:`UnitMap` in ascending mask
    order.  Each dataset lands in exactly one class, so there are at most
    min(K, 2^N - 1) of them.  A formula (asymptotic) profile has no
    ``class_sizes``: N and ``alpha`` = K/(K-M) >= 1 fix it, and
    ``alpha=None`` is full storage, as in :attr:`ProblemInstance.alpha`.
    Its law a(V) = beta*(alpha-1)^|V| depends on V through |V| alone, so it
    stays usable where 2^N tables are impossible.  Read classes through
    :attr:`classes`, a :class:`UnitMap` on both modes: integers over one
    denominator in ``units`` and ``denom``, exact Fractions as a map.
    L(n), the size of the classes inside workers 1..n, is likewise
    :attr:`cumulative_units` on integers and :attr:`cumulative` in
    Fractions.  A formula profile holds one integer form, a(k) and L(k)
    over p^N for alpha = p/q, and derives its sizes, ``beta``, classes
    and L(n) from it.

    ``class_sizes`` may be given as a map to Fractions (or ints and
    strings) or as a :class:`UnitMap`, such as dataset counts over their
    total from :func:`~dusec.storage.exact_profile`.  Either way the
    profile keeps the sizes as integers over one denominator, divided by
    their gcd, and builds its Fractions only on a read.
    """

    n_workers: int
    alpha: Fraction | None = None
    class_sizes: Mapping[int, Fraction] | None = None

    def __post_init__(self):
        check_count("n_workers", self.n_workers)
        if self.alpha is not None:
            if self.class_sizes is not None:
                raise StructureError("a measured profile takes class_sizes without alpha")
            object.__setattr__(self, "alpha", as_alpha(self.alpha))
        if self.class_sizes is None:
            return
        sizes = self.class_sizes
        if not isinstance(sizes, UnitMap):
            sizes = UnitMap.of({mask: as_fraction(raw) for mask, raw in sizes.items()})
        object.__setattr__(self, "class_sizes", _checked_sizes(sizes, 1 << self.n_workers))

    @property
    def mode(self) -> ProfileMode:
        return ProfileMode.ASYMPTOTIC if self.class_sizes is None else ProfileMode.EXACT

    @cached_property
    def _formula_units(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Formula profiles: a(V) for |V| = 0..N and L(n) for n = 0..N, as
        integers over one denominator.  With alpha = p/q, a(k) is
        q^(N-k) (p-q)^k and L(k) is q^(N-k) (p^k - q^k), both over p^N."""
        n = self.n_workers
        if self.alpha is None:  # full storage: only the all-workers class exists
            only_full = tuple(int(k == n) for k in range(n + 1))
            return only_full, only_full, 1
        p, q = self.alpha.numerator, self.alpha.denominator
        return (
            tuple(q ** (n - k) * (p - q) ** k for k in range(n + 1)),
            tuple(q ** (n - k) * (p**k - q**k) for k in range(n + 1)),
            p**n,
        )

    @property
    def beta(self) -> Fraction | None:
        """Formula profiles: the share stored nowhere, alpha^-N (0 at full storage)."""
        if self.class_sizes is not None:
            return None
        return self.sizes_by_card[0]  # type: ignore[index]

    @cached_property
    def sizes_by_card(self) -> tuple[Fraction, ...] | None:
        """Formula profiles: a(V) for |V| = 0..N; None on measured profiles."""
        if self.class_sizes is not None:
            return None
        by_card, _, denom = self._formula_units
        return tuple(Fraction(unit, denom) for unit in by_card)

    def a(self, mask: int) -> Fraction:
        """Normalized size of class ``mask`` (fraction of all datasets)."""
        if not 0 < mask < (1 << self.n_workers):
            raise StructureError(f"class mask {mask} out of range for N={self.n_workers}")
        if self.class_sizes is not None:
            return self.class_sizes.get(mask, Fraction(0))
        return self.sizes_by_card[mask.bit_count()]  # type: ignore[index]

    @cached_property
    def classes(self) -> UnitMap:
        """The nonzero classes: a read-only mask -> size map, ascending by mask.

        A measured profile's is ``class_sizes``.  A formula profile gives
        each mask the integer size of its cardinality over their one
        denominator, p^N for alpha = p/q; at alpha = 1 it is empty,
        without a walk over the masks.
        """
        if self.class_sizes is not None:
            return self.class_sizes
        if self.alpha == 1:  # nothing is stored
            return UnitMap({}, 1)
        if self.n_workers > CLASS_MAP_MAX_WORKERS:
            raise StructureError(f"refusing to materialize 2^{self.n_workers} classes")
        by_card, _, denom = self._formula_units
        return UnitMap({
            mask: unit
            for mask in iter_class_masks(self.n_workers)
            if (unit := by_card[mask.bit_count()])
        }, denom)

    @cached_property
    def cumulative_units(self) -> tuple[tuple[int, ...], int]:
        """L[n] = sum of a(V) over nonempty V contained in workers 1..n, for
        n = 0..N, as integers over one denominator.

        A formula profile reads them from its closed form; a measured one
        is :func:`locked_prefix_units` at r = 1.
        """
        if self.class_sizes is None:
            _, cumulative, denom = self._formula_units
            return cumulative, denom
        return locked_prefix_units(self.class_sizes, self.n_workers, 1)

    @cached_property
    def cumulative(self) -> tuple[Fraction, ...]:
        """L[n] as Fractions, for n = 0..N.

        L[N] is the covered fraction of the dataset; 1 - L[N] is the share
        stored nowhere (beta on formula profiles).
        """
        units, denom = self.cumulative_units
        return tuple(Fraction(total, denom) for total in units)


def locked_prefix_units(classes: UnitMap, n_workers: int, redundancy: int) -> tuple[tuple[int, ...], int]:
    """L_r[n], the load that covering every class ``redundancy`` times locks
    onto workers 1..n, for n = 0..N, as integers over ``classes.denom``;
    L_1 is L(n).  A class locks one more copy onto the prefix each time the
    prefix takes in one of its r highest members (it needs at least r), so
    r rounds add each class's size at its top bit, peeling that bit off
    between rounds, and the gains are accumulated.
    """
    gain = [0] * (n_workers + 1)
    rest = classes.units.items()
    for peel in range(redundancy):
        if peel:
            rest = [(mask ^ (1 << (mask.bit_length() - 1)), unit) for mask, unit in rest]
        for mask, unit in rest:
            gain[mask.bit_length()] += unit
    return tuple(accumulate(gain)), classes.denom


@dataclass(frozen=True)
class LoadAssignment:
    """Fractional computation shares mu[(n, V)] of class V given to worker n.

    Only nonzero shares are stored.  ``redundancy`` r says each class must
    be covered r times in total (r = 1 for the plain elastic assignment,
    r = s + m for straggler-coded plans).

    ``shares`` may be given as a map to Fractions (or ints and strings) or
    as a :class:`UnitMap` of integer units over one denominator, as the
    solvers give it.  Either way the assignment keeps a :class:`UnitMap`,
    whose ``units`` and ``denom`` are the integer form, and builds its
    Fractions only on a read.
    """

    n_workers: int
    redundancy: int
    shares: Mapping[tuple[int, int], Fraction]  # a UnitMap once constructed

    def __post_init__(self):
        check_count("n_workers", self.n_workers)
        check_count("redundancy", self.redundancy)
        limit = 1 << self.n_workers
        given = self.shares
        if not isinstance(given, UnitMap):
            given = UnitMap.of({key: as_fraction(raw) for key, raw in given.items()})
        _check_numerators(given)
        clean: dict[tuple[int, int], int] = {}
        for key, unit in given.units.items():
            n, mask = key
            if not 1 <= n <= self.n_workers:
                raise StructureError(f"share worker {n} out of range 1..{self.n_workers}")
            if not 0 < mask < limit:
                raise StructureError(f"share class mask {mask} out of range for N={self.n_workers}")
            if unit:
                clean[key] = unit
        object.__setattr__(self, "shares", UnitMap(clean, given.denom))

    def per_worker_loads(self) -> tuple[Fraction, ...]:
        return self._per_worker_loads

    @cached_property
    def _per_worker_loads(self) -> tuple[Fraction, ...]:
        """Share sums per worker, added up on integer units on the first call only."""
        units = self.shares
        loads = [0] * self.n_workers
        for (n, _), unit in units.units.items():
            loads[n - 1] += unit
        return tuple(Fraction(load, units.denom) for load in loads)

    def class_totals(self) -> dict[int, Fraction]:
        totals: dict[int, Fraction] = {}
        for (_, mask), v in self.shares.items():
            totals[mask] = totals.get(mask, Fraction(0)) + v
        return totals

    def sorted_items(self) -> list[tuple[int, int, Fraction]]:
        """(worker, mask, share) triples in a deterministic order."""
        return sorted((n, m, v) for (n, m), v in self.shares.items())


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
