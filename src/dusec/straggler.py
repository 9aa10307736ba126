"""Straggler-tolerant redundant assignment and coded aggregation.

To survive any s of N workers going silent, every storage class is
covered s+m times and each class message is split into m parts, so the
redundant work buys back a factor m of efficiency.  Each worker sends one
linear combination of its computed parts over a prime field; the
combinations are evaluations of polynomials built so that

* a worker's combination only involves parts it actually computed, and
* for every part index j there is an anchor point where the aggregate
  sum over classes of part j appears, recoverable by interpolation from
  any N-s received combinations.

Only classes stored by at least s+m workers can tolerate the required
redundancy; smaller classes are excluded from the recoverable aggregate
and reported, never silently zeroed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    ProfileMode,
    StructureError,
    TimeResult,
    check_pair,
    iter_class_masks,
    workers_of,
)
from .oracle import flow_assign

DEFAULT_FIELD_MODULUS = (1 << 31) - 1  # Mersenne prime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CodingConfigError(ValueError):
    """Field or shape parameters unusable for the coding construction."""


class InsufficientResponses(ValueError):
    """Fewer than N - s transmissions: the aggregate is not recoverable."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class StragglerConfig:
    """Tolerate s stragglers, split every class message into m parts."""

    s: int
    m: int
    field_modulus: int = DEFAULT_FIELD_MODULUS

    def __post_init__(self):
        if self.s < 0:
            raise CodingConfigError(f"s must be >= 0, got {self.s}")
        if self.m < 1:
            raise CodingConfigError(f"m must be >= 1, got {self.m}")
        if not _is_prime(self.field_modulus):
            raise CodingConfigError(f"field modulus {self.field_modulus} is not prime")

    @property
    def redundancy(self) -> int:
        return self.s + self.m


@dataclass(frozen=True)
class CodedTransmission:
    """One worker's linear combination of its computed message parts.

    ``encoding_row`` maps (class mask, part index) to the field
    coefficient applied to that part; the coded vector is recomputable
    from the row and the raw messages (see :func:`recompute_transmission`).
    Deserialized transmissions carry no row (the wire format is the coded
    payload only); decoding never needs it.
    """

    vm_index: int
    coded_vector: tuple[int, ...]
    encoding_row: Mapping[tuple[int, int], int] | None

    def __post_init__(self):
        if self.vm_index < 1:
            raise StructureError(f"vm_index must be >= 1, got {self.vm_index}")
        if self.encoding_row is not None:
            object.__setattr__(self, "encoding_row", MappingProxyType(dict(self.encoding_row)))


@dataclass(frozen=True)
class StragglerPlan:
    """Redundant assignment plus its objective and the classes left out."""

    assignment: LoadAssignment
    time: TimeResult
    excluded_classes: tuple[int, ...]


def filtered_for_redundancy(profile: ClassProfile, r: int) -> ClassProfile:
    """The profile with every class stored by fewer than r workers zeroed.

    Such classes cannot be covered r times.  Returns ``profile`` itself
    when no class of nonzero size is too small.
    """
    sizes = profile.dense_sizes()
    filtered = tuple(
        Fraction(0) if mask.bit_count() < r else sizes[mask - 1]
        for mask in iter_class_masks(profile.n_workers)
    )
    if filtered == sizes:
        return profile
    return ClassProfile(
        mode=ProfileMode.EXACT,
        n_workers=profile.n_workers,
        alpha=profile.alpha,
        beta=profile.beta,
        class_sizes=filtered,
    )


def redundant_assign(
    instance: ProblemInstance, profile: ClassProfile, config: StragglerConfig
) -> StragglerPlan:
    """Optimal fractional (s+m)-fold coverage of the coverable classes.

    Classes with fewer than s+m members are dropped from the aggregate and
    listed in the plan.  With s=0, m=1 this is exactly the plain elastic
    assignment problem.
    """
    check_pair(instance, profile)
    r = config.redundancy
    filtered = filtered_for_redundancy(profile, r)
    sizes, kept = profile.dense_sizes(), filtered.dense_sizes()
    excluded = tuple(
        mask for mask in iter_class_masks(instance.N) if sizes[mask - 1] != kept[mask - 1]
    )
    assignment, time = flow_assign(instance, filtered, redundancy=r)
    return StragglerPlan(assignment=assignment, time=time, excluded_classes=excluded)


def part_schedule(
    assignment: LoadAssignment, config: StragglerConfig
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Integral split of each class into m parts, each computed by s+m workers.

    Worker n's share of class V entitles it to m*mu[n,V]/a(V) of the class's
    m*(s+m) part-slots; quotas are rounded by largest remainder (class totals
    stay exact) and slots are dealt round-robin across parts, so every part
    of every class ends up with exactly s+m distinct workers.
    Returns {(class mask, part j): sorted worker tuple}.
    """
    m = config.m
    r = config.redundancy
    schedule: dict[tuple[int, int], tuple[int, ...]] = {}
    totals = assignment.class_totals()
    for mask in sorted(totals):
        total = totals[mask]
        if total == 0:
            continue
        size = total / r  # coverage is r * a(V)
        members = workers_of(mask)
        quotas = [(n, m * assignment.share(n, mask) / size) for n in members]
        floors = {n: int(q) for n, q in quotas}
        deficit = m * r - sum(floors.values())
        if deficit < 0 or any(q > m for _, q in quotas):
            raise StructureError(f"class {mask} coverage is not exactly {r} times its size")
        remainders = sorted(
            ((q - floors[n], n) for n, q in quotas), key=lambda t: (-t[0], t[1])
        )
        for frac_part, n in remainders[:deficit]:
            if frac_part == 0:
                raise StructureError(f"class {mask} coverage is not exactly {r} times its size")
            floors[n] += 1
        tokens: list[int] = []
        for n in members:
            tokens.extend([n] * floors[n])
        assert len(tokens) == m * r
        for j in range(1, m + 1):
            part_workers = tuple(sorted(tokens[j - 1 :: m]))
            assert len(set(part_workers)) == r, "part landed on a duplicate worker"
            schedule[(mask, j)] = part_workers
    return schedule


def _points(n_workers: int, config: StragglerConfig) -> tuple[list[int], list[int]]:
    """Worker evaluation points x_n = n and anchor points y_j = p - j.

    Anchors count down from the modulus so they never depend on the fleet
    size; all points must be distinct mod p.
    """
    p = config.field_modulus
    if n_workers + config.m >= p:
        raise CodingConfigError(
            f"field modulus {p} too small for {n_workers} workers + {config.m} anchors"
        )
    return [n % p for n in range(1, n_workers + 1)], [p - j for j in range(1, config.m + 1)]


def encode(
    assignment: LoadAssignment,
    config: StragglerConfig,
    messages: Mapping[int, Sequence[int]],
) -> tuple[CodedTransmission, ...]:
    """Coded combination for every worker, from the plan's part schedule.

    ``messages`` maps each covered class mask to its message vector; all
    vectors must share one length divisible by m.  The combination sent by
    worker n evaluates, at x_n, polynomials that vanish on every worker not
    computing the given part and hit 1 at that part's anchor point, so the
    vector is supported exactly on parts worker n computes.
    """
    p = config.field_modulus
    m = config.m
    n_workers = assignment.n_workers
    totals = assignment.class_totals()
    covered = {mask for mask, total in totals.items() if total > 0}
    if set(messages) != covered:
        missing = sorted(covered - set(messages))
        extra = sorted(set(messages) - covered)
        raise StructureError(
            f"messages must cover exactly the assigned classes; missing {missing}, unassigned {extra}"
        )
    lengths = {len(v) for v in messages.values()}
    if len(lengths) > 1:
        raise CodingConfigError(f"message lengths differ: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    if length == 0 or length % m:
        raise CodingConfigError(f"message length {length} is not a positive multiple of m={m}")
    part_len = length // m
    xs, ys = _points(n_workers, config)
    schedule = part_schedule(assignment, config)

    vectors = {n: [0] * part_len for n in range(1, n_workers + 1)}
    rows: dict[int, dict[tuple[int, int], int]] = {n: {} for n in range(1, n_workers + 1)}
    for (mask, j), part_workers in sorted(schedule.items()):
        computing = set(part_workers)
        y_j = ys[j - 1]
        denom = 1
        for n in range(1, n_workers + 1):
            if n not in computing:
                denom = denom * (y_j - xs[n - 1]) % p
        for k in range(1, m + 1):
            if k != j:
                denom = denom * (y_j - ys[k - 1]) % p
        inv_denom = pow(denom, p - 2, p)
        message = messages[mask]
        part = [int(c) % p for c in message[(j - 1) * part_len : j * part_len]]
        for n in part_workers:
            x = xs[n - 1]
            coef = inv_denom
            for other in range(1, n_workers + 1):
                if other not in computing:
                    coef = coef * (x - xs[other - 1]) % p
            for k in range(1, m + 1):
                if k != j:
                    coef = coef * (x - ys[k - 1]) % p
            rows[n][(mask, j)] = coef
            acc = vectors[n]
            for i, c in enumerate(part):
                acc[i] = (acc[i] + coef * c) % p
    return tuple(
        CodedTransmission(
            vm_index=n, coded_vector=tuple(vectors[n]), encoding_row=rows[n]
        )
        for n in range(1, n_workers + 1)
    )


def recompute_transmission(
    transmission: CodedTransmission,
    config: StragglerConfig,
    messages: Mapping[int, Sequence[int]],
) -> tuple[int, ...]:
    """Re-derive the coded vector from the encoding row; must match exactly."""
    if transmission.encoding_row is None:
        raise StructureError("transmission carries no encoding row")
    p = config.field_modulus
    m = config.m
    lengths = {len(v) for v in messages.values()}
    if len(lengths) != 1:
        raise CodingConfigError("message lengths differ")
    part_len = lengths.pop() // m
    out = [0] * part_len
    for (mask, j), coef in transmission.encoding_row.items():
        part = messages[mask][(j - 1) * part_len : j * part_len]
        for i, c in enumerate(part):
            out[i] = (out[i] + coef * (int(c) % p)) % p
    return tuple(out)


def decode(
    received: Sequence[CodedTransmission],
    config: StragglerConfig,
    n_total: int,
) -> tuple[int, ...]:
    """Aggregate message (sum over covered classes) from any >= N-s responses.

    Interpolates each anchor point from the received evaluations; the fleet
    size ``n_total`` fixes the response threshold, which a surviving subset
    alone cannot reveal.
    """
    p = config.field_modulus
    m = config.m
    seen: dict[int, CodedTransmission] = {}
    for t in received:
        if t.vm_index in seen:
            raise StructureError(f"duplicate transmission from worker {t.vm_index}")
        if t.vm_index > n_total:
            raise StructureError(f"worker {t.vm_index} out of range 1..{n_total}")
        seen[t.vm_index] = t
    need = n_total - config.s
    if len(seen) < need or not seen:
        raise InsufficientResponses(
            f"got {len(seen)} responses, need at least {need} (N={n_total}, s={config.s})"
        )
    lengths = {len(t.coded_vector) for t in seen.values()}
    if len(lengths) != 1:
        raise StructureError(f"coded vector lengths differ: {sorted(lengths)}")
    part_len = lengths.pop()
    xs_all, ys = _points(n_total, config)
    survivors = sorted(seen)
    xs = [xs_all[n - 1] for n in survivors]
    out: list[int] = []
    for j in range(1, m + 1):
        y = ys[j - 1]
        part = [0] * part_len
        for n, x_n in zip(survivors, xs):
            num = 1
            den = 1
            for x_k in xs:
                if x_k != x_n:
                    num = num * (y - x_k) % p
                    den = den * (x_n - x_k) % p
            lam = num * pow(den, p - 2, p) % p
            vec = seen[n].coded_vector
            for i in range(part_len):
                part[i] = (part[i] + lam * vec[i]) % p
        out.extend(part)
    return tuple(out)


_HEADER = struct.Struct("<IQQ")
_ELEMENT = struct.Struct("<Q")


def serialize_transmission(transmission: CodedTransmission, config: StragglerConfig) -> bytes:
    """Wire format: header {vm_index u32, part length u64, modulus u64},
    then the coded vector as little-endian u64 elements."""
    chunks = [
        _HEADER.pack(
            transmission.vm_index, len(transmission.coded_vector), config.field_modulus
        )
    ]
    chunks.extend(_ELEMENT.pack(e) for e in transmission.coded_vector)
    return b"".join(chunks)


def deserialize_transmission(data: bytes) -> tuple[CodedTransmission, int]:
    """Parse one transmission; returns it plus the modulus from the header."""
    if len(data) < _HEADER.size:
        raise StructureError(f"transmission blob too short ({len(data)} bytes)")
    vm_index, part_len, modulus = _HEADER.unpack_from(data)
    expected = _HEADER.size + part_len * _ELEMENT.size
    if len(data) != expected:
        raise StructureError(f"transmission blob is {len(data)} bytes, header implies {expected}")
    vector = tuple(
        _ELEMENT.unpack_from(data, _HEADER.size + i * _ELEMENT.size)[0]
        for i in range(part_len)
    )
    return CodedTransmission(vm_index=vm_index, coded_vector=vector, encoding_row=None), modulus
