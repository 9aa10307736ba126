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

Both sides use one Lagrange basis, ``_basis_values``: a worker's
coefficient for a part is the value at x_n of the polynomial that is 1 at
the part's anchor and 0 at every other anchor and every worker not
computing the part; a survivor's decoding weight at an anchor is the value
there of the polynomial that is 1 at that survivor and 0 at the others.
``encode`` evaluates all its polynomials in one call, and so does
``decode``: the roots are one 2-D array, a row per polynomial, and the
values one (polynomials x points) array, with one modular inverse for all
the denominators.  ``part_schedule`` works out every class's quotas
together on arrays grouped by class.
The coded vectors and the aggregate are one field product each,
``_field_combine``, exact on float64 matrix products for primes below 2^31.
``encode`` holds messages to one shape rule, ``_part_length``: one length
for every message, a positive multiple of m.

Only classes stored by at least s+m workers can tolerate the required
redundancy; smaller classes are excluded from the recoverable aggregate
and reported, never silently zeroed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from math import prod
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    StructureError,
    TimeResult,
    UnitMap,
    check_count,
    check_pair,
    int64_rows,
)
from .oracle import flow_assign

DEFAULT_FIELD_MODULUS = (1 << 31) - 1  # Mersenne prime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CodingConfigError(ValueError):
    """Field or shape parameters unusable for the coding construction."""


class InsufficientResponses(ValueError):
    """Fewer than N - s transmissions: the aggregate is not recoverable."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 318665857834031151167461 (about
    3.18e23), the least strong pseudoprime to all twelve witnesses."""
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
    """Tolerate s stragglers, split every class message into m parts.

    The field modulus is a prime below 2^64, the range in which
    ``_is_prime``'s twelve Miller-Rabin witnesses decide primality exactly.
    """

    s: int
    m: int
    field_modulus: int = DEFAULT_FIELD_MODULUS

    def __post_init__(self):
        check_count("s", self.s, low=0, error=CodingConfigError)
        check_count("m", self.m, error=CodingConfigError)
        check_count("field_modulus", self.field_modulus, low=2, error=CodingConfigError)
        if self.field_modulus >= 1 << 64:
            raise CodingConfigError(
                f"field modulus {self.field_modulus} is not below 2^64, "
                "where the primality test is deterministic"
            )
        if not _is_prime(self.field_modulus):
            raise CodingConfigError(f"field modulus {self.field_modulus} is not prime")

    @property
    def redundancy(self) -> int:
        return self.s + self.m


@dataclass(frozen=True)
class CodedTransmission:
    """One worker's linear combination of its computed message parts.

    ``encoding_row`` maps (class mask, part index) to the field
    coefficient applied to that part; :func:`encode` lists the parts the
    worker computes, in schedule order.  The coded vector is the sum over
    the row of coefficient times message part, mod p.  :func:`decode`
    reads only the coded vector.
    """

    vm_index: int
    coded_vector: tuple[int, ...]
    encoding_row: Mapping[tuple[int, int], int]

    def __post_init__(self):
        check_count("vm_index", self.vm_index)
        object.__setattr__(self, "encoding_row", MappingProxyType(dict(self.encoding_row)))


@dataclass(frozen=True)
class StragglerPlan:
    """Redundant assignment (None if only times were asked for), its objective, the classes left out."""

    assignment: LoadAssignment | None
    time: TimeResult
    excluded_classes: tuple[int, ...]


def filtered_for_redundancy(profile: ClassProfile, r: int) -> ClassProfile:
    """The profile with every class stored by fewer than r workers zeroed.

    Such classes cannot be covered r times.  Returns ``profile`` itself
    when no class of nonzero size is too small.
    """
    sizes = profile.classes
    kept = {mask: unit for mask, unit in sizes.units.items() if mask.bit_count() >= r}
    if len(kept) == len(sizes):
        return profile
    return ClassProfile(n_workers=profile.n_workers, class_sizes=UnitMap(kept, sizes.denom))


def redundant_assign(
    instance: ProblemInstance, profile: ClassProfile, config: StragglerConfig
) -> StragglerPlan:
    """Optimal fractional (s+m)-fold coverage of the coverable classes.

    Classes with fewer than s+m members are dropped from the aggregate and
    listed in the plan.  With s=0, m=1 this is exactly the plain elastic
    assignment problem.  s+m > N is refused: no class could be covered.
    """
    check_pair(instance, profile)
    r = config.redundancy
    if r > instance.N:
        raise CodingConfigError(
            f"redundancy r = s + m = {r} exceeds N = {instance.N}: no class can be covered {r} times"
        )
    coverable = filtered_for_redundancy(profile, r)
    excluded = tuple(mask for mask in profile.classes if mask not in coverable.classes)
    assignment, time = flow_assign(instance, coverable, redundancy=r)
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

    The quotas are worked out on the assignment's integer units: the
    class's shares are numerators N_n summing to S, and the quota of
    worker n is m*(s+m)*N_n / S.  Only these ratios enter, so the common
    denominator does not matter.  A plan built for another redundancy than
    s + m, a negative share, or a share given to a worker outside its
    class, raises StructureError.

    All classes are worked out together on grouped arrays: the shares
    sorted by (class, worker), the class totals and maxima by ``reduceat``,
    the remainders ranked by (-remainder, worker) inside each class, and
    each class's holders repeated by their quotas into one row of m*(s+m)
    tokens, of which part j takes every m-th from the j-th.  The arrays are
    int64 when every mask and m*(s+m) times the sum of the units' absolute
    values are below 2^63, which bounds every product and sum the quotas
    form; otherwise they hold exact Python integers.
    """
    m = config.m
    r = config.redundancy
    if assignment.redundancy != r:
        raise StructureError(
            f"assignment covers each class {assignment.redundancy} times, the code needs s + m = {r}"
        )
    slots = m * r
    units = assignment.shares.units
    bound = max((1 << assignment.n_workers) - 1, slots * sum(map(abs, units.values())))
    dtype = np.int64 if bound < 1 << 63 else object
    workers, masks = np.array(list(units), dtype=dtype).reshape(len(units), 2).T
    shares = np.array(list(units.values()), dtype=dtype)
    negative = shares < 0
    bad = np.flatnonzero(negative | ((masks >> (workers - 1)) & 1 == 0))
    if bad.size:
        i = bad[0]
        n, mask = int(workers[i]), int(masks[i])
        if negative[i]:
            share = assignment.shares[n, mask]
            raise StructureError(f"class {mask} gives worker {n} a negative share {share}")
        raise StructureError(f"class {mask} gives a share to worker {n}, who does not store it")
    order = np.lexsort((workers, masks))
    workers, masks, shares = workers[order], masks[order], shares[order]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = masks[1:] != masks[:-1]
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    totals = np.add.reduceat(shares, starts)
    scaled = slots * shares
    floors = scaled // totals[group]
    remainders = scaled - floors * totals[group]
    # a member without a share would get floor 0 and remainder 0; the
    # remainders sum to deficit * total, each below total, so more than
    # deficit of them are positive and the deficit never reaches it
    deficits = slots - np.add.reduceat(floors, starts)
    ranked = np.lexsort((workers, -remainders, group))
    rank = np.empty(len(ranked), dtype=np.intp)
    rank[ranked] = np.arange(len(ranked)) - starts[group[ranked]]
    quotas = (floors + (rank < deficits[group])).astype(np.intp)
    # parts[c, j - 1] is every m-th token of class c from the j-th; tokens
    # ascend, so each part's workers do, and a repeat sits next to itself
    parts = np.repeat(workers, quotas).reshape(len(starts), r, m).transpose(0, 2, 1)
    over = r * np.maximum.reduceat(shares, starts) > totals
    repeated = (parts[:, :, 1:] == parts[:, :, :-1]).any(axis=2)
    wrong = np.flatnonzero(over | repeated.any(axis=1))
    if wrong.size:
        c = wrong[0]
        if over[c]:
            raise StructureError(f"class {masks[starts[c]]} coverage is not exactly {r} times its size")
        j = np.flatnonzero(repeated[c])[0] + 1
        raise StructureError(f"class {masks[starts[c]]} part {j} landed on a duplicate worker")
    part_keys = product(masks[starts].tolist(), range(1, m + 1))
    return dict(zip(part_keys, map(tuple, parts.reshape(len(starts) * m, r).tolist())))


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


def _field_dtype(p: int):
    """int64 residues for p < 2^31, whose product :func:`_field_combine`
    takes exactly on float64; larger primes use exact Python integers."""
    return np.int64 if p < 1 << 31 else object


def _residues(rows: Sequence[Sequence[int]], p: int, dtype) -> np.ndarray:
    """Equal-length rows of integers as one array of ``dtype`` holding c % p.

    An element is an integer when ``operator.index`` takes it: ints,
    booleans, numpy integers and any type with ``__index__``.  A float,
    string or other element raises :class:`CodingConfigError`; nothing is
    truncated to an integer.

    Rows that fit int64 are read by :func:`~dusec.model.int64_rows`, at
    about 14 ns per element on its unsigned read against 30 ns on a signed
    one, taken mod p only when an element lies outside [0, p) (a min and a
    max cost 0.3 ns per element, an int64 mod 4 ns), and turned into Python
    integers for the object dtype.  What it does not read takes numpy's
    inference below, which also gives the refusal.
    """
    if rows and (arr := int64_rows(rows)) is not None:
        if arr.size and (arr.min() < 0 or int(arr.max()) >= p):
            if p >> 63:  # an int64 mod needs p in int64
                arr = arr.astype(object)
            arr %= p
        return arr.astype(dtype, copy=False)
    arr = np.array(rows)
    if arr.dtype.kind == "i" and dtype is not object:
        return arr.astype(np.int64, copy=False) % p
    # numpy folds ints past int64, or ints beside uint64, into object or float arrays
    try:
        return np.array([[operator.index(c) % p for c in row] for row in rows], dtype=dtype)
    except TypeError:
        raise CodingConfigError("field elements must be integers") from None


# Terms per float64 product: a 16-bit coefficient limb times a residue below
# 2^31 is below 2^47, so every partial sum of 64 terms is an integer below
# 64 * 2^47 = 2^53, exact in float64 whatever order the sum is taken in.
_MAX_TERMS = 64


def _field_combine(coefs: np.ndarray, rows: np.ndarray, p: int) -> np.ndarray:
    """coefs @ rows mod p, exactly, for residues in [0, p) of :func:`_field_dtype`.

    ``coefs`` is one coefficient vector or a matrix of them, one per row of
    the result.  Object residues (p >= 2^31) take the product on Python
    integers.  int64 residues take it as float64 matrix products: each
    coefficient is split into two 16-bit limbs, stacked as twice as many
    coefficient rows against whole residues below 2^31, and at most
    ``_MAX_TERMS`` terms enter one product, so every partial sum stays an
    integer below 2^53 (FMA included).  The limb products recombine as
    ((hi mod p) << 16) + lo, mod p.
    """
    if rows.dtype == object:
        return coefs @ rows % p
    lead = coefs.shape[:-1]
    flat = coefs.reshape(prod(lead), coefs.shape[-1])
    limbs = np.concatenate((flat >> 16, flat & 0xFFFF)).astype(np.float64)
    whole = rows.astype(np.float64)
    out = 0
    for start in range(0, max(len(rows), 1), _MAX_TERMS):
        block = whole[start : start + _MAX_TERMS]
        hi, lo = np.split((limbs[:, start : start + _MAX_TERMS] @ block).astype(np.int64), 2)
        out = (out + (hi % p << 16) + lo) % p
    return out.reshape(lead + rows.shape[1:])


def _basis_values(
    points: Sequence[int], one_at: Sequence[int], roots: np.ndarray, p: int
) -> np.ndarray:
    """Values at ``points`` of a batch of polynomials, mod p, one row each.

    Polynomial i is 1 at ``one_at[i]`` and 0 at every entry of row i of
    the 2-D ``roots``: prod(x - z) / prod(one_at[i] - z) over that row.
    Every row has one length, possibly 0 (the constant 1).  Returns a
    (polynomials x points) array of :func:`_field_dtype`.

    The numerators and the denominators are one product over root columns,
    taken mod p after each factor: below 2^62 on int64 for p < 2^31, and
    on Python integers for larger primes.  The denominators are nonzero
    because all points are distinct mod the prime p, and they share one
    modular inverse (Montgomery's batched inversion): invert the product of
    all of them, then peel each one off.
    """
    dtype = _field_dtype(p)
    roots = np.asarray(roots, dtype=dtype)
    # the last column of ``at`` is each polynomial's one_at, where the
    # product over its roots is its denominator
    at = np.empty((len(roots), len(points) + 1), dtype=dtype)
    at[:, :-1] = points
    at[:, -1] = one_at
    values = np.ones_like(at)
    for column in roots.T:
        values = values * ((at - column[:, None]) % p) % p
    denoms = values[:, -1].tolist()
    running = [1]
    for d in denoms:
        running.append(running[-1] * d % p)
    inv = pow(running[-1], p - 2, p)
    inverses = [0] * len(denoms)
    for i in range(len(denoms) - 1, -1, -1):
        inverses[i] = inv * running[i] % p
        inv = inv * denoms[i] % p
    return values[:, :-1] * np.array(inverses, dtype=dtype)[:, None] % p


def _part_length(messages: Mapping[int, Sequence[int]], m: int) -> int:
    """Length of one message part: every message has one length, a positive
    multiple of m, else :class:`CodingConfigError`."""
    lengths = {len(v) for v in messages.values()}
    if len(lengths) > 1:
        raise CodingConfigError(f"message lengths differ: {sorted(lengths)}")
    length = lengths.pop() if lengths else 0
    if length == 0 or length % m:
        raise CodingConfigError(f"message length {length} is not a positive multiple of m={m}")
    return length // m


# Classes whose messages enter one field product; bounds the message rows
# held at once.
_CLASS_CHUNK = 64


def encode(
    assignment: LoadAssignment,
    config: StragglerConfig,
    messages: Mapping[int, Sequence[int]],
) -> tuple[CodedTransmission, ...]:
    """Coded combination for every worker, from the plan's part schedule.

    ``messages`` maps each covered class mask to its message vector; all
    vectors must share one length divisible by m and hold only integers
    (anything else raises :class:`CodingConfigError`).  The combination
    sent by worker n evaluates, at x_n, polynomials that vanish on every
    worker not computing the given part and hit 1 at that part's anchor
    point, so the vector is supported exactly on parts worker n computes.

    A coefficient depends only on the part's computing workers and its
    index j, so each distinct (workers, j) is one polynomial, and all of
    them are evaluated at every worker point in one :func:`_basis_values`
    call.  Its roots come from a membership matrix of those keys: row by
    row, the N - (s+m) worker points off the row and the m - 1 anchors
    other than y_j.  The coefficient matrix is the basis matrix's row for
    each scheduled part, transposed.  The vectors are one field product,
    coefficient matrix times message parts mod p, taken over chunks of
    ``_CLASS_CHUNK`` classes so that the message rows are never all held
    at once.
    """
    p = config.field_modulus
    m = config.m
    n_workers = assignment.n_workers
    covered = {mask for _, mask in assignment.shares}  # part_schedule refuses negative shares
    if set(messages) != covered:
        missing = sorted(covered - set(messages))
        extra = sorted(set(messages) - covered)
        raise StructureError(
            f"messages must cover exactly the assigned classes; missing {missing}, unassigned {extra}"
        )
    part_len = _part_length(messages, m)
    xs, ys = _points(n_workers, config)
    schedule = sorted(part_schedule(assignment, config).items())
    dtype = _field_dtype(p)

    # one polynomial per distinct (workers, j): 1 at anchor y_j, 0 at every
    # other anchor and every worker not computing part j
    key_index: dict[tuple[tuple[int, ...], int], int] = {}
    entry_keys = [
        key_index.setdefault((part_workers, j), len(key_index)) for (_, j), part_workers in schedule
    ]
    count = len(key_index)
    member = np.zeros((count, n_workers), dtype=bool)
    holders = np.array([part_workers for part_workers, _ in key_index])
    np.put_along_axis(member, holders - 1, True, axis=1)
    js = np.array([j for _, j in key_index])
    others = ~np.eye(m, dtype=bool)[js - 1]
    x_points, y_points = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
    roots = np.concatenate(
        (
            np.broadcast_to(x_points, member.shape)[~member].reshape(count, n_workers - holders.shape[1]),
            np.broadcast_to(y_points, others.shape)[others].reshape(count, m - 1),
        ),
        axis=1,
    )
    # column i*m + j - 1 of the matrix is part j of the i-th scheduled class
    coef_matrix = _basis_values(xs, y_points[js - 1], roots, p)[entry_keys].T
    # a column is 0 at each worker not computing its part, a root, and
    # nonzero at the others, the points being distinct mod p: a worker's
    # encoding row is the nonzeros of its matrix row, which one row-major
    # np.nonzero lists worker by worker, each in schedule order
    owners, cols = np.nonzero(coef_matrix)
    keys = [schedule[col][0] for col in cols.tolist()]
    values = coef_matrix[owners, cols].tolist()
    ends = np.searchsorted(owners, np.arange(n_workers + 1)).tolist()
    encoding_rows = [dict(zip(keys[a:b], values[a:b])) for a, b in zip(ends, ends[1:])]
    masks = [mask for (mask, j), _ in schedule if j == 1]
    vectors = np.zeros((n_workers, part_len), dtype=dtype)
    for start in range(0, len(masks), _CLASS_CHUNK):
        chunk = masks[start : start + _CLASS_CHUNK]
        block = _residues([messages[mask] for mask in chunk], p, dtype)
        cols = coef_matrix[:, start * m : (start + len(chunk)) * m]
        vectors = (vectors + _field_combine(cols, block.reshape(len(chunk) * m, part_len), p)) % p
    return tuple(
        CodedTransmission(vm_index=n, coded_vector=tuple(vector), encoding_row=row)
        for n, (vector, row) in enumerate(zip(vectors.tolist(), encoding_rows), 1)
    )


def decode(
    received: Sequence[CodedTransmission],
    config: StragglerConfig,
    n_total: int,
) -> tuple[int, ...]:
    """Aggregate message (sum over covered classes) from any >= N-s responses.

    Interpolates each anchor point from the received evaluations: the
    weights are one :func:`_basis_values` call, whose k survivors' root
    rows are the survivor points off the diagonal of a k x k array, with
    one modular inverse for all of them; the fleet size
    ``n_total`` fixes the response threshold, which a surviving subset
    alone cannot reveal.  The coded vectors, tuples, take the unsigned
    read of :func:`_residues` (14 ns per element, 30 ns signed).
    """
    check_count("n_total", n_total)
    p = config.field_modulus
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
    xs_all, ys = _points(n_total, config)
    survivors = sorted(seen)
    dtype = _field_dtype(p)
    xs = np.array([xs_all[n - 1] for n in survivors], dtype=dtype)
    k = len(xs)
    # survivor i's polynomial is 1 at x_i and 0 at every other survivor
    others = np.broadcast_to(xs, (k, k))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    weights = _basis_values(ys, xs, others, p)
    vectors = _residues([seen[n].coded_vector for n in survivors], p, dtype)
    out = _field_combine(weights.T, vectors, p)
    return tuple(out.ravel().tolist())
