"""Closed-form min-max completion time and the constructive load assignment.

With workers sorted by ascending speed and L(n) the total size of the
storage classes contained in the n slowest workers, the optimal min-max
completion time is

    c* = max_n L(n) / (s_1 + ... + s_n),

attained by the largest maximizing prefix n*.  The constructive route
walks workers slowest to fastest, tentatively gives worker n every class
it completes (the frontier L(n) - L(n-1)), and repairs any inversion by
pooling contiguous equal-time groups and shifting delta load from the
faster group onto the slower one.  Both routes are exact rational
arithmetic; an LP-based oracle lives separately in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    ProfileMode,
    StructureError,
    TimeResult,
    check_pair,
    iter_submasks,
)


class InfeasibleRearrangement(ValueError):
    """The requested delta cannot be carried by the classes the groups share."""


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

    def __post_init__(self):
        if not 1 <= self.receiver_start <= self.receiver_end:
            raise StructureError("bad receiver group")
        if self.donor_start != self.receiver_end + 1 or self.donor_end < self.donor_start:
            raise StructureError("donor group must directly follow the receiver group")


@dataclass(frozen=True)
class CutsetBound:
    kind: str  # "prefix" | "pooled-tail"
    n: int
    value: Fraction


def _staircase(
    L: tuple[Fraction, ...],
    S: tuple[Fraction, ...],
    n: int,
    events: list | None = None,
) -> list[list]:
    """Equal-time groups [start, end, time] with strictly decreasing times.

    Worker i tentatively finishes its frontier at (L(i) - L(i-1)) / s_i;
    whenever that ties or exceeds the group below, the two groups merge.
    ``events``, when given, collects ("tentative", i, t) and
    ("merge", RearrangeDelta) in the order they happen; each delta is the
    load the merge moves from the faster group onto the slower one.
    """
    groups: list[list] = []
    for i in range(1, n + 1):
        t = (L[i] - L[i - 1]) / (S[i] - S[i - 1])
        if events is not None:
            events.append(("tentative", i, t))
        groups.append([i, i, t])
        while len(groups) >= 2 and groups[-1][2] >= groups[-2][2]:
            top = groups.pop()
            prev = groups.pop()
            start, end = prev[0], top[1]
            merged_time = (L[end] - L[start - 1]) / (S[end] - S[start - 1])
            if events is not None:
                events.append(("merge", RearrangeDelta(
                    delta=(merged_time - prev[2]) * (S[prev[1]] - S[start - 1]),
                    receiver_start=prev[0],
                    receiver_end=prev[1],
                    donor_start=top[0],
                    donor_end=top[1],
                    group_time=merged_time,
                )))
            groups.append([start, end, merged_time])
    return groups


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
    groups = _staircase(profile.cumulative, instance.prefix_speed_sums(), instance.N)
    times: list[Fraction] = []
    for start, end, t in groups:
        times.extend([t] * (end - start + 1))
    return TimeResult(c_star=groups[0][2], n_star=groups[0][1], per_worker_time=tuple(times))


def cutset_bounds(instance: ProblemInstance, profile: ClassProfile) -> tuple[CutsetBound, ...]:
    """All prefix lower bounds plus the pooled-tail bounds above the critical n*.

    Prefix bound n: the classes inside the n slowest workers can run
    nowhere else, so c* >= L(n)/S(n).  Pooled-tail bound n > n*: the load
    beyond the critical prefix, pooled over workers n*+1..n, gives
    (L(n) - L(n*)) / (S(n) - S(n*)) <= c*.  The largest prefix bound is
    tight.  Formula profiles only.
    """
    n_star = optimal_time(instance, profile).n_star
    L = profile.cumulative
    S = instance.prefix_speed_sums()
    bounds = [
        CutsetBound("prefix", n, L[n] / S[n]) for n in range(1, instance.N + 1)
    ]
    bounds.extend(
        CutsetBound("pooled-tail", n, (L[n] - L[n_star]) / (S[n] - S[n_star]))
        for n in range(n_star + 1, instance.N + 1)
    )
    return tuple(bounds)


def _rearranged_shares(
    shares: Mapping[tuple[int, int], Fraction],
    rd: RearrangeDelta,
    profile: ClassProfile,
) -> dict[tuple[int, int], Fraction]:
    """Apply one rebalancing move and return the new share table.

    One descending walk over the merged span fills the carrier table: the
    nonzero classes both groups store, keyed by (receiver part, donor part).
    Current loads are summed per part and per worker.  The delta is split
    across donor/receiver worker pairs in proportion to the load each holds,
    and across the carriers of a pair of parts in proportion to class size.
    Per-class totals are conserved exactly; running out of room in the
    shared classes raises InfeasibleRearrangement (nothing is applied in
    that case).  Negative shares are refused.
    """
    if rd.delta < 0:
        raise StructureError("delta must be nonnegative")
    if rd.donor_end > profile.n_workers:
        raise StructureError("group extends past the last worker")
    new_shares = dict(shares)
    if rd.delta == 0:
        return new_shares
    recv_span = (1 << rd.receiver_end) - 1  # the prefix plus the receiver group
    span = (1 << rd.donor_end) - 1
    recv_mask = recv_span ^ ((1 << (rd.receiver_start - 1)) - 1)
    donor_mask = span ^ recv_span

    carriers: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for w in iter_submasks(span):
        if w & recv_mask and w & donor_mask:
            size = profile.a(w)
            if size:
                carriers.setdefault((w & recv_mask, w & donor_mask), []).append((w, size))
    shared_total = sum(size for group in carriers.values() for _, size in group)
    if rd.delta > shared_total:
        raise InfeasibleRearrangement(
            f"delta {rd.delta} exceeds shared class capacity {shared_total}"
        )

    # Current loads: receivers keyed by the class part inside the receiver
    # group, donors by the part inside the donor group, then by worker.
    recv_held: dict[int, dict[int, Fraction]] = {}
    donor_held: dict[int, dict[int, Fraction]] = {}
    for (n, w), v in shares.items():
        if v == 0:
            continue
        if v < 0:
            raise StructureError(f"worker {n} holds a negative share {v} of class {w}")
        if rd.receiver_start <= n <= rd.receiver_end:
            if w & ~recv_span:
                raise StructureError(
                    f"receiver worker {n} holds class {w} outside its prefix span"
                )
            held = recv_held.setdefault(w & recv_mask, {})
        elif rd.donor_start <= n <= rd.donor_end:
            if w & ~span:
                raise StructureError(
                    f"donor worker {n} holds class {w} outside the merged span"
                )
            held = donor_held.setdefault(w & donor_mask, {})
        else:
            continue
        held[n] = held.get(n, 0) + v
    if not recv_held or not donor_held:
        raise InfeasibleRearrangement("cannot rebalance between groups with zero load")
    recv_part_total = {part: sum(held.values()) for part, held in recv_held.items()}
    donor_part_total = {part: sum(held.values()) for part, held in donor_held.items()}
    scale = rd.delta / (sum(recv_part_total.values()) * sum(donor_part_total.values()))
    for v_part, recv_workers in recv_held.items():
        for q_part, donor_workers in donor_held.items():
            pair_carriers = carriers.get((v_part, q_part))
            if pair_carriers is None:
                raise InfeasibleRearrangement(
                    f"no shared class can carry load between parts {v_part} and {q_part}"
                )
            carrier_total = sum(size for _, size in pair_carriers)
            for w, size in pair_carriers:
                class_scale = scale * size / carrier_total
                gain_scale = class_scale * donor_part_total[q_part]
                loss_scale = class_scale * recv_part_total[v_part]
                for n, held in recv_workers.items():
                    key = (n, w)
                    new_shares[key] = new_shares.get(key, Fraction(0)) + gain_scale * held
                for n, held in donor_workers.items():
                    key = (n, w)
                    loss = loss_scale * held
                    remaining = new_shares.get(key, Fraction(0)) - loss
                    if remaining < 0:
                        raise InfeasibleRearrangement(
                            f"worker {n} lacks {loss} of class {w} to give away"
                        )
                    new_shares[key] = remaining
    return new_shares


def rearrange(
    assignment: LoadAssignment, rd: RearrangeDelta, profile: ClassProfile
) -> LoadAssignment:
    """Pure version of the rebalancing move; returns a new assignment."""
    if assignment.n_workers != profile.n_workers:
        raise StructureError("assignment and profile cover different worker counts")
    shares = _rearranged_shares(assignment.shares, rd, profile)
    return LoadAssignment(
        n_workers=assignment.n_workers,
        redundancy=assignment.redundancy,
        shares=shares,
    )


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

    ``trace``, when given, collects ("tentative", n, t) and
    ("merge", RearrangeDelta) events for inspection.
    """
    _check_formula_pair(instance, profile)
    events: list = []
    groups = _staircase(profile.cumulative, instance.prefix_speed_sums(), instance.N, events)
    if profile.alpha is None:
        total = sum(instance.speeds)
        shares = {(n, (1 << instance.N) - 1): s / total for n, s in enumerate(instance.speeds, 1)}
    else:
        # Tentative split: every class sits whole on its fastest member.
        shares = {(mask.bit_length(), mask): size for mask, size in profile.classes.items()}
        for event in events:
            if event[0] == "merge":
                shares = _rearranged_shares(shares, event[1], profile)
    if trace is not None:
        trace.extend(events)
    assignment = LoadAssignment(n_workers=instance.N, redundancy=1, shares=shares)
    loads = assignment.per_worker_loads()
    times = tuple(load / s for load, s in zip(loads, instance.speeds))
    result = TimeResult(
        c_star=groups[0][2], n_star=groups[0][1], per_worker_time=times
    )
    return assignment, result


def critical_conditions_hold(
    instance: ProblemInstance, profile: ClassProfile, result: TimeResult
) -> bool:
    """Literal check of the two optimality conditions at (c*, n*):

    every prefix n < n* satisfies L(n)/S(n) <= c*, and every pooled tail
    n > n* satisfies (L(n) - L(n*)) / (S(n) - S(n*)) <= c*, with equality
    of the prefix bound at n* itself.  Formula profiles only.
    """
    _check_formula_pair(instance, profile)
    L = profile.cumulative
    S = instance.prefix_speed_sums()
    c, k = result.c_star, result.n_star
    if L[k] / S[k] != c:
        return False
    for n in range(1, k):
        if L[n] / S[n] > c:
            return False
    for n in range(k + 1, instance.N + 1):
        if (L[n] - L[k]) / (S[n] - S[k]) > c:
            return False
    return True
