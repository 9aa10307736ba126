"""Closed-form min-max completion time and the constructive load assignment.

With workers sorted by ascending speed and L(n) the total size of the
storage classes contained in the n slowest workers, the optimal min-max
completion time is

    c* = max_n L(n) / (s_1 + ... + s_n),

attained by the largest maximizing prefix n*.  The constructive route
walks workers slowest to fastest, tentatively gives worker n every class
it completes (the frontier L(n) - L(n-1)), and repairs any inversion by
pooling contiguous equal-time groups and shifting delta load from the
faster group onto the slower one.  Both routes are exact and run on
integers: the one staircase reads L(n) and the prefix speed sums as
integers over one denominator each and compares times by
cross-multiplication, and the sweep keeps its shares as integer numerators
over one denominator, reduced by their gcd after every merge.  ``Fraction``
is built only for what a caller reads: the times, the trace's events, and
the assignment's shares when they are read.  An LP-based oracle lives
separately in ``oracle``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    ProfileMode,
    StructureError,
    TimeResult,
    UnitMap,
    check_pair,
    common_denominator,
    iter_submasks,
)


@dataclass(frozen=True)
class RearrangeDelta:
    """One rebalancing step: move ``delta`` load from the donor group onto
    the receiver group so both land on ``group_time``.

    Groups are contiguous runs of workers in sorted-speed order, receiver
    directly below donor.
    """

    delta: Fraction
    receiver_start: int
    receiver_end: int
    donor_start: int
    donor_end: int
    group_time: Fraction


@dataclass(frozen=True)
class CutsetBound:
    kind: str  # "prefix" | "pooled-tail"
    n: int
    value: Fraction


def _staircase(
    L: tuple[int, ...],
    l_den: int,
    S: tuple[int, ...],
    s_den: int,
    events: list | None = None,
) -> list[tuple[int, int, int, int]]:
    """Equal-time groups (start, end, p, q) with strictly decreasing times p/q.

    L(n) is ``L[n] / l_den`` and the prefix speed sum S(n) is
    ``S[n] / s_den``, integers over one denominator each, for n = 0..N.
    Worker i tentatively finishes its frontier at (L(i) - L(i-1)) / s_i;
    whenever that ties or exceeds the group below, the two groups merge.
    A group keeps its load and speed differences as integers, and two
    times compare by cross-multiplication.  A returned time is the integer
    pair p/q, unreduced, so a caller builds ``Fraction`` only for the times
    it reads.  ``events``, when given, collects ("tentative", i, t) and
    ("merge", RearrangeDelta) in the order they happen, in Fractions; each
    delta is the load the merge moves from the faster group onto the
    slower one.
    """
    groups: list[tuple[int, int, int, int]] = []  # (start, end, L difference, S difference)
    for i in range(1, len(S)):
        start, load, speed = i, L[i] - L[i - 1], S[i] - S[i - 1]
        if events is not None:
            events.append(("tentative", i, Fraction(load * s_den, speed * l_den)))
        # the group start..i merges with the one below while its time ties or exceeds that one's
        while groups and load * groups[-1][3] >= groups[-1][2] * speed:
            prev = groups.pop()
            merged_load, merged_speed = prev[2] + load, prev[3] + speed
            if events is not None:
                # (merged time - receiver time) * receiver speed, with s_den cancelled
                events.append(("merge", RearrangeDelta(
                    delta=Fraction(merged_load * prev[3] - prev[2] * merged_speed, merged_speed * l_den),
                    receiver_start=prev[0],
                    receiver_end=prev[1],
                    donor_start=start,
                    donor_end=i,
                    group_time=Fraction(merged_load * s_den, merged_speed * l_den),
                )))
            start, load, speed = prev[0], merged_load, merged_speed
        groups.append((start, i, load, speed))
    return [(start, end, load * s_den, speed * l_den) for start, end, load, speed in groups]


def _check_formula_pair(instance: ProblemInstance, profile: ClassProfile) -> None:
    """Refuse measured profiles: their bottleneck need not be a speed prefix,
    so max_n L(n)/S(n) can fall below the optimum."""
    check_pair(instance, profile)
    if profile.mode is ProfileMode.EXACT:
        raise StructureError(
            "the closed form needs a formula profile; "
            "solve measured profiles with flow_assign or lp_oracle"
        )


def optimal_time(instance: ProblemInstance, profile: ClassProfile) -> TimeResult:
    """c*, the largest critical prefix n*, and the per-worker completion times.

    Workers 1..n* all finish exactly at c*; later workers finish at the
    strictly smaller times of their own equal-time groups.  Formula
    profiles only.
    """
    _check_formula_pair(instance, profile)
    groups = _staircase(*profile.cumulative_units, *instance.prefix_speed_units)
    times: list[Fraction] = []
    for start, end, p, q in groups:
        times.extend([Fraction(p, q)] * (end - start + 1))
    return TimeResult(c_star=times[0], n_star=groups[0][1], per_worker_time=tuple(times))


def cutset_bounds(instance: ProblemInstance, profile: ClassProfile) -> tuple[CutsetBound, ...]:
    """All prefix lower bounds plus the pooled-tail bounds above the critical n*.

    Prefix bound n: the classes inside the n slowest workers can run
    nowhere else, so c* >= L(n)/S(n).  Pooled-tail bound n > n*: the load
    beyond the critical prefix, pooled over workers n*+1..n, gives
    (L(n) - L(n*)) / (S(n) - S(n*)) <= c*.  The largest prefix bound is
    tight.  Formula profiles only.
    """
    k = optimal_time(instance, profile).n_star
    L, (S, s_den) = profile.cumulative, instance.prefix_speed_units
    bounds = [CutsetBound("prefix", n, L[n] * s_den / S[n]) for n in range(1, instance.N + 1)]
    bounds.extend(
        CutsetBound("pooled-tail", n, (L[n] - L[k]) * s_den / (S[n] - S[k]))
        for n in range(k + 1, instance.N + 1)
    )
    return tuple(bounds)


def _rearranged_shares(
    units: dict[tuple[int, int], int],
    den: int,
    rd: RearrangeDelta,
    sizes: Mapping[int, int],
) -> int:
    """Apply one merge of the sweep to the share table ``units``, in place,
    and return the table's new denominator.

    Share (n, V) is units[n, V] / den; ``sizes`` maps each class to its
    size, as integers over a denominator of their own (only their ratios
    enter).  One descending walk over the merged span fills the
    carrier table: the classes both groups store, keyed by (receiver part,
    donor part).  Current loads are summed per part and per worker.  The
    delta is split across donor/receiver worker pairs in proportion to the
    load each holds, and across the carriers of a pair of parts in
    proportion to class size, through one factor per pair of parts, held
    as a reduced integer numerator and denominator.  The table is scaled
    by the least common multiple of those denominators, so the moves run
    on integers, then divided by its gcd with ``den``, which keeps
    the numerators from growing merge after merge.  Per-class totals are
    conserved exactly.  Only ``assign_loads`` calls this, on formula
    profiles with alpha > 1: every class is nonzero and every group holds
    load, so every pair of parts has carriers.
    """
    if rd.delta == 0:
        return den
    recv_span = (1 << rd.receiver_end) - 1  # the prefix plus the receiver group
    span = (1 << rd.donor_end) - 1
    recv_mask = recv_span ^ ((1 << (rd.receiver_start - 1)) - 1)
    donor_mask = span ^ recv_span

    carriers: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for w in iter_submasks(span):
        if w & recv_mask and w & donor_mask:
            carriers.setdefault((w & recv_mask, w & donor_mask), []).append((w, sizes[w]))

    # Current loads: receivers keyed by the class part inside the receiver
    # group, donors by the part inside the donor group, then by worker.
    recv_held: dict[int, dict[int, int]] = {}
    donor_held: dict[int, dict[int, int]] = {}
    for (n, w), v in units.items():
        if v == 0 or n < rd.receiver_start or n > rd.donor_end:
            continue
        if n <= rd.receiver_end:
            held = recv_held.setdefault(w & recv_mask, {})
        else:
            held = donor_held.setdefault(w & donor_mask, {})
        held[n] = held.get(n, 0) + v
    recv_part_total = {part: sum(held.values()) for part, held in recv_held.items()}
    donor_part_total = {part: sum(held.values()) for part, held in donor_held.items()}
    # factor = delta * den / (receivers' load * donors' load * carriers' size),
    # one reduced integer pair per pair of parts
    scale = rd.delta.numerator * den
    scale_den = rd.delta.denominator * sum(recv_part_total.values()) * sum(donor_part_total.values())
    factors = {}
    for v_part in recv_held:
        for q_part in donor_held:
            factor_den = scale_den * sum(size for _, size in carriers[(v_part, q_part)])
            common = gcd(scale, factor_den)
            factors[(v_part, q_part)] = (scale // common, factor_den // common)
    grow = common_denominator({factor_den for _, factor_den in factors.values()})
    if grow > 1:
        for key in units:
            units[key] *= grow
        den *= grow
    for (v_part, q_part), (factor, factor_den) in factors.items():
        whole = factor * (grow // factor_den)  # factor * grow, an int
        recv_workers, donor_workers = recv_held[v_part], donor_held[q_part]
        for w, size in carriers[(v_part, q_part)]:
            gain = whole * size * donor_part_total[q_part]
            loss = whole * size * recv_part_total[v_part]
            for n, held in recv_workers.items():
                key = (n, w)
                units[key] = units.get(key, 0) + gain * held
            for n, held in donor_workers.items():
                key = (n, w)
                remaining = units.get(key, 0) - loss * held
                if remaining < 0:  # the sweep's own deltas never overdraw a donor
                    raise AssertionError(f"merge {rd} overdraws worker {n} on class {w}")
                units[key] = remaining
    common = gcd(den, *units.values())
    if common > 1:
        for key in units:
            units[key] //= common
    return den // common


def assign_loads(
    instance: ProblemInstance,
    profile: ClassProfile,
    trace: list | None = None,
) -> tuple[LoadAssignment, TimeResult]:
    """Constructive optimal assignment (redundancy 1).  Formula profiles only.

    Walks workers slowest to fastest.  Worker n tentatively takes every
    class of its frontier (classes whose fastest member is n), finishing
    at t_n = (L(n) - L(n-1)) / s_n.  Whenever a new tentative time ties or
    exceeds the group below, the groups merge and a rebalancing move
    equalizes them; at most N - 1 merges can ever run.  The result is
    group times strictly decreasing, with the first group at c*.  At full
    storage (alpha None) the merges would move load onto workers holding
    none, so the one class is split in proportion to speed directly.

    The staircase runs on the profile's integer L(n) and the instance's
    integer prefix speed sums, and the sweep on integer numerators over one
    denominator, reduced by their gcd after every merge; from the profile
    to the share table no ``Fraction`` enters the arithmetic.  The
    assignment keeps those integers and builds its ``Fraction`` shares
    only when they are read; the times are its per-worker loads over the
    speeds.

    ``trace``, when given, collects ("tentative", n, t) and
    ("merge", RearrangeDelta) events for inspection.
    """
    _check_formula_pair(instance, profile)
    events: list = []
    groups = _staircase(*profile.cumulative_units, *instance.prefix_speed_units, events)
    if profile.alpha is None:
        # one class, split in proportion to speed: speed numerators over their sum
        speed_units, _ = instance.speed_units
        full = (1 << instance.N) - 1
        total = instance.prefix_speed_units[0][-1]
        shares = UnitMap({(n, full): u for n, u in enumerate(speed_units, 1)}, total)
    else:
        # Tentative split: every class sits whole on its fastest member.
        sizes = profile.classes
        units = {(mask.bit_length(), mask): unit for mask, unit in sizes.units.items()}
        den = sizes.denom
        for event in events:
            if event[0] == "merge":
                den = _rearranged_shares(units, den, event[1], sizes.units)
        shares = UnitMap(units, den)
    assignment = LoadAssignment(n_workers=instance.N, redundancy=1, shares=shares)
    if trace is not None:
        trace.extend(events)
    times = tuple(load / s for load, s in zip(assignment.per_worker_loads(), instance.speeds))
    _, n_star, p, q = groups[0]
    result = TimeResult(c_star=Fraction(p, q), n_star=n_star, per_worker_time=times)
    return assignment, result
