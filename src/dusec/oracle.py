"""Independent transportation-problem oracle for assignment optimality.

The min-max completion time of covering every storage class r times, with
per-worker-per-class shares capped at the class size, is the optimum of a
small linear program.  By max-flow/min-cut duality the optimum equals

    T* = max over worker subsets S of
         locked(S) / speed(S),   locked(S) = sum_V a(V) * max(0, r - |V \\ S|),

i.e. the load irrevocably locked onto some subset of workers divided by
that subset's speed.  Two routes compute it:

* ``flow_assign`` runs a Newton (Dinkelbach) search on one flow network,
  source -> class (r * a(V)) -> member workers (a(V)) -> sink (T * s_n).
  It starts T from the closed form's staircase over the locked prefix
  loads (``optimizer._staircase`` over ``model.locked_prefix_units``, the
  largest locked(slowest k) / speed(slowest k)) and runs one max-flow.
  The workers with no residual path to the sink are the largest S
  minimizing T * speed(S) - locked(S).  If the flow saturates, T is
  optimal, the flow is the assignment and n* = |S|; otherwise
  locked(S) > T * speed(S), and T <- locked(S) / speed(S) is the next,
  strictly larger, guess (Dinkelbach 1967; Radzik 1992).  There are finitely many
  cuts, so the search ends; it enumerates no subsets.  The search is one
  function with two readers, each paying only for what it reads:
  ``flow_assign`` builds the share table and the time result, and
  ``flow_time`` the time result alone (a worker's load is its sink
  capacity less its room, so no share is summed).  A flow is one table
  of (class, member) flows and per-worker room, and no network is built:
  Dinic's first phase, on this network a greedy pass over the class
  masks, fills the table, and only when that pass falls short do
  Dinic's later phases run on the same table.  The shares and S are read
  from it one way, whichever phase finished the flow.
* ``lp_oracle`` takes the maximum over every S from one ranked zeta
  transform in O(r * N * 2^N) (Bjorklund, Husfeldt, Kaski, Koivisto,
  "Fourier meets Mobius", STOC 2007), so it stops at
  ``ORACLE_MAX_WORKERS``.  A direct sum of locked(S) / speed(S) over the
  maximizing S then proves the value tight.  It runs no flow: by the
  supply-demand theorem (Gale 1957) the transport network saturates at T
  exactly when T * speed(S) >= locked(S) for every S, so the maximum over
  all S is feasible, and a flow could refute it only if the transform
  missed a set.

Both routes run on integers.  ``_active_classes`` checks the input and
returns the profile's ``classes``: the class sizes as numerators over one
denominator, on either profile mode.  The flow reads the speeds' integer
form from ``ProblemInstance.speed_units`` and scales every capacity by
the lcm of the sizes' denominator and T's times the speeds'.  The zeta
transform converts the speeds on its own, so a wrong ``speed_units``
fails its tightness sum.  Ratios are compared by cross-multiplying, and
each returned value is one Fraction; the assignment keeps the flow's
integers and their scale, and the times are the flow's loads over the
speeds.
The routes share the class map, ``model``'s checks, ``_active_classes``
and ``_locked_ratio``: ``--oracle`` catches a wrong flow or search, not a
wrong class map.  The only flow code is ``_Transport``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    TimeResult,
    UnitMap,
    check_count,
    check_pair,
    locked_prefix_units,
    over_one_denominator,
)
from .optimizer import _staircase

ORACLE_MAX_WORKERS = 12


class OracleScopeError(ValueError):
    """Instance too large for exhaustive subset enumeration."""


class InfeasibleRedundancy(ValueError):
    """Classes too small to be covered ``redundancy`` times."""

    def __init__(self, redundancy: int, class_masks: list[int]):
        self.redundancy = redundancy
        self.class_masks = class_masks
        super().__init__(
            f"classes {class_masks} have fewer than {redundancy} members and nonzero size"
        )


def _check_scope(n_workers: int) -> None:
    """Refuse a fleet too large for :func:`lp_oracle` to enumerate."""
    if n_workers > ORACLE_MAX_WORKERS:
        raise OracleScopeError(
            f"oracle enumerates worker subsets; N={n_workers} exceeds {ORACLE_MAX_WORKERS}"
        )


def _active_classes(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int
) -> UnitMap:
    """The profile's nonzero classes, once the input is checked."""
    check_pair(instance, profile)
    check_count("redundancy", redundancy)
    classes = profile.classes
    bad = [mask for mask in classes if mask.bit_count() < redundancy]
    if bad:
        raise InfeasibleRedundancy(redundancy, bad)
    return classes


def _bottleneck(instance: ProblemInstance, classes: UnitMap, redundancy: int) -> tuple[Fraction, int]:
    """max over S of locked(S) / speed(S), and the largest maximizing S.

    within[k][S], the size of the classes with at most k members outside S,
    comes from one ranked zeta pass over the bits; locked(S) is the sum of
    planes 0..r-1.  Plane 0 is the plain subset-sum (r = 1).  Ratios are
    compared by cross-multiplying, on the class numerators and on speeds
    converted here, not read from ``instance.speed_units``, which they check.
    """
    n = instance.N
    full = 1 << n
    locked = [0] * full
    for mask, unit in classes.units.items():
        locked[mask] = unit
    # r > n leaves no active class (none has more than n members), so n planes do
    within = [locked] + [locked.copy() for _ in range(1, min(redundancy, n))]
    for b in range(n):
        bit = 1 << b
        # descending k: plane k - 1 still holds its values from before bit b
        for k in range(len(within) - 1, 0, -1):
            plane, below = within[k], within[k - 1]
            for hi in range(full):
                if hi & bit:
                    lo = hi ^ bit
                    plane[hi], plane[lo] = plane[hi] + plane[lo], plane[lo] + below[hi]
        for s_mask in range(full):
            if s_mask & bit:
                locked[s_mask] += locked[s_mask ^ bit]
    for plane in within[1:]:  # plane 0 collects the sum
        for s_mask in range(full):
            locked[s_mask] += plane[s_mask]
    speed_units, speed_denom = over_one_denominator(instance.speeds)
    spd = [0] * full
    for s_mask in range(1, full):
        low = s_mask & -s_mask
        spd[s_mask] = spd[s_mask ^ low] + speed_units[low.bit_length() - 1]
    best_locked, best_spd = 0, 1  # the best ratio so far, locked / spd
    best_mask = full - 1
    for s_mask in range(1, full):
        lhs, rhs = locked[s_mask] * best_spd, best_locked * spd[s_mask]
        if lhs > rhs or (lhs == rhs and s_mask.bit_count() > best_mask.bit_count()):
            best_locked, best_spd = locked[s_mask], spd[s_mask]
            best_mask = s_mask
    return Fraction(best_locked * speed_denom, best_spd * classes.denom), best_mask


def _locked_ratio(
    instance: ProblemInstance, classes: UnitMap, redundancy: int, workers: int
) -> Fraction:
    """locked(S) / speed(S) for the worker set S = ``workers`` (a mask)."""
    locked = sum(
        unit * max(0, redundancy - (mask & ~workers).bit_count())
        for mask, unit in classes.units.items()
    )
    speed_units, speed_denom = instance.speed_units
    speed = sum(unit for i, unit in enumerate(speed_units) if workers >> i & 1)
    return Fraction(locked * speed_denom, speed * classes.denom)


def lp_oracle(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int = 1
) -> Fraction:
    """Exact optimal min-max time by subset enumeration, independent of the solvers.

    T* is the largest locked(S) / speed(S) over every worker set S: no
    time below it covers the load S locks, and by the supply-demand
    theorem the maximum over all S is feasible.  locked(S) / speed(S),
    summed again over the classes for the maximizing S, proves the value
    tight.  A set the zeta transform missed would make the value too low;
    ``--oracle``'s comparison with the solver reports that as a mismatch.
    """
    _check_scope(instance.N)
    classes = _active_classes(instance, profile, redundancy)
    value, workers = _bottleneck(instance, classes, redundancy)
    if _locked_ratio(instance, classes, redundancy, workers) != value:
        raise AssertionError(f"oracle candidate {value} is not tight")
    return value


class _Transport:
    """Max flow at time T on source -> class (r*a) -> member (a) -> sink (T*s).

    Capacities are integers on one scale L, the lcm of the class sizes'
    denominator and T.denominator * D, where worker n's speed is u_n / D:
    each sink cap T * u_n / D is then whole.  A flow f stands for f / L.
    The flow lives in one table from its first push to its last read:
    ``flows`` maps (class index, worker index) to the flow on that (class,
    member) edge, nonzero only, class by class and each class's members by
    ascending bit, and ``room`` holds each worker's slack to the sink.  The
    residual network is read off the table: a class sends r*a less its
    flows, a member takes a less its flow, a worker hands back a class's
    flow, and the sink takes a worker's room.  Dinic's first phase is a
    greedy pass (:meth:`_greedy`); only when it falls short do the later
    phases (:meth:`_later_phases`) run, on the same table.  The shares and
    the bottleneck set are read from it alone.
    """

    def __init__(self, instance: ProblemInstance, classes: UnitMap, redundancy: int, T: Fraction):
        speed_units, speed_denom = instance.speed_units
        cap_denom = T.denominator * speed_denom
        self.scale = lcm(classes.denom, cap_denom)
        factor = self.scale // classes.denom
        self.masks = list(classes.units)
        self.sizes = [unit * factor for unit in classes.units.values()]
        to_sink = T.numerator * (self.scale // cap_denom)  # T / D on scale L
        self.sink_caps = [to_sink * unit for unit in speed_units]
        self.room = list(self.sink_caps)
        self.flows: dict[tuple[int, int], int] = {}
        short = self._greedy(redundancy)
        if short:
            short = self._later_phases(redundancy)
            # the later phases add new edges at the end: put them in class order
            self.flows = dict(sorted(self.flows.items()))
        self.saturated = short == 0

    def _greedy(self, redundancy: int) -> int:
        """Dinic's first phase; returns the demand it leaves unrouted.

        Its level graph holds only source -> class -> worker -> sink paths,
        and its search takes the classes in order and each class's members
        by ascending bit, leaving an edge only once it or the worker behind
        it is saturated.  So the pass pushes min(demand left, class size,
        sink room left) on each (class, member) edge in that order.
        """
        room, flows = self.room, self.flows
        alive = sum(1 << w for w, left in enumerate(room) if left)
        short = 0
        for ci, (mask, size) in enumerate(zip(self.masks, self.sizes)):
            left = redundancy * size
            members = mask & alive
            while left and members:
                low = members & -members
                members ^= low
                w = low.bit_length() - 1
                pushed = min(left, size, room[w])
                flows[ci, w] = pushed
                left -= pushed
                room[w] -= pushed
                if not room[w]:
                    alive ^= low
            short += left
        return short

    def _later_phases(self, redundancy: int) -> int:
        """Dinic's phases after the first, on the table; returns the demand left unrouted.

        A phase's BFS levels the classes with demand left at 1, and stops
        at the first layer of workers with room: the sink's level is the
        next, and nodes past it push nothing.  Classes sit at odd levels
        and workers at even ones, so a path runs class, worker, ...,
        worker.  An edge with no residual capacity at the phase's start
        gains some only by a push on its reverse, which points one level
        down, so the search takes the same edges as Dinic on the whole
        network, in the same order: the source's to the classes in order,
        a class's to its members with slack by ascending bit (``arc``, the
        members not yet passed over), and a worker's to the classes it
        carries flow of, in class order (``carriers``, the last one first),
        then its edge to the sink.  A pointer moves past an edge once the
        edge is saturated or leads to a dead end; after a push the search
        resumes at the tail of the first edge the push saturated.
        """
        masks, sizes, room, flows = self.masks, self.sizes, self.room, self.flows
        n, n_classes = len(room), len(masks)
        left = [redundancy * size for size in sizes]
        for (ci, _), flow in flows.items():
            left[ci] -= flow
        short = sum(left)
        held, whole = self._carrying()
        while short:
            # the source's classes, the last one first, as ``carriers`` below
            tops = [ci for ci in range(n_classes - 1, -1, -1) if left[ci]]
            fresh = [not need for need in left]  # classes the BFS has not levelled
            arc = [0] * n_classes
            carriers: list[list[int]] = [[] for _ in range(n)]
            with_room = sum(1 << w for w, slack in enumerate(room) if slack)
            reached, layer = 0, tops
            while True:
                new = 0
                for ci in layer:
                    new |= masks[ci] & ~whole[ci]
                new &= ~reached
                if not new:
                    return short
                for ci in layer:
                    arc[ci] = masks[ci] & ~whole[ci] & new
                reached |= new
                if new & with_room:
                    break
                layer = []
                for ci in range(n_classes - 1, -1, -1):
                    carried = held[ci] & new
                    if carried and fresh[ci]:
                        fresh[ci] = False
                        layer.append(ci)
                        while carried:
                            low = carried & -carried
                            carried ^= low
                            carriers[low.bit_length() - 1].append(ci)
                if not layer:
                    return short
            path: list[int] = []  # class, worker, class, ..., from the source on
            while tops:
                if not path:
                    path.append(tops[-1])
                u = path[-1]
                if len(path) & 1:  # a class: its next member with slack
                    if arc[u]:
                        path.append((arc[u] & -arc[u]).bit_length() - 1)
                        continue
                elif room[u]:  # a worker on the sink's side with room
                    pushed = min(left[path[0]], room[u])
                    for i in range(1, len(path)):
                        a, b = path[i - 1], path[i]
                        slack = sizes[a] - flows.get((a, b), 0) if i & 1 else flows[b, a]
                        pushed = min(pushed, slack)
                    # some edge saturates; walked from the sink back, ``cut``
                    # ends at the first, where the search resumes
                    cut = len(path)
                    room[u] -= pushed
                    short -= pushed
                    for i in range(len(path) - 1, 0, -1):
                        a, b = path[i - 1], path[i]
                        if i & 1:  # class a sends member b more
                            bit = 1 << b
                            flow = flows.get((a, b), 0) + pushed
                            flows[a, b] = flow
                            held[a] |= bit
                            if flow == sizes[a]:
                                whole[a] |= bit
                                arc[a] ^= bit
                                cut = i
                        else:  # worker a hands class b back some of its flow
                            bit = 1 << a
                            flow = flows[b, a] - pushed
                            whole[b] &= ~bit
                            if flow:
                                flows[b, a] = flow
                            else:
                                del flows[b, a]
                                held[b] ^= bit
                                carriers[a].pop()
                                cut = i
                    left[path[0]] -= pushed
                    if not left[path[0]]:
                        tops.pop()
                        cut = 0
                    del path[cut:]
                    continue
                elif carriers[u]:
                    path.append(carriers[u][-1])
                    continue
                # a dead end: step back and pass over the edge that led here
                path.pop()
                if not path:
                    tops.pop()
                elif len(path) & 1:
                    arc[path[-1]] ^= 1 << u
                else:
                    carriers[path[-1]].pop()
        return short

    def _carrying(self) -> tuple[list[int], list[int]]:
        """Per class, the members carrying its flow, and those carrying all of the class's size."""
        sizes = self.sizes
        held = [0] * len(sizes)
        whole = [0] * len(sizes)
        for (ci, w), flow in self.flows.items():
            bit = 1 << w
            held[ci] |= bit
            if flow == sizes[ci]:
                whole[ci] |= bit
        return held, whole

    def bottleneck(self) -> int:
        """Mask of the workers with no residual path to the sink.

        In a maximum flow, saturated or short, the source lies on no path
        to the sink, so the sink is reached only through a worker with
        room, a class sending a reached member less than its size, and a
        worker holding flow of a reached class.  The loop walks exactly
        those edges on ``flows`` and ``room``.  The mask is the worker side
        of the maximal minimum cut, the largest S minimizing T * speed(S) -
        locked(S), and is the same for every maximum flow (Picard and
        Queyranne 1980).
        """
        held, whole = self._carrying()
        reached = sum(1 << w for w, left in enumerate(self.room) if left)
        pending = [(mask ^ full, hold) for mask, full, hold in zip(self.masks, whole, held)]
        while pending:
            grown = reached
            rest = []
            for open_to, hold in pending:
                if hold & ~grown:
                    if open_to & grown:
                        grown |= hold
                    else:
                        rest.append((open_to, hold))
            if grown == reached:
                break
            reached, pending = grown, rest
        return ((1 << len(self.room)) - 1) ^ reached


def _newton_search(
    instance: ProblemInstance, classes: UnitMap, redundancy: int
) -> tuple[Fraction, _Transport]:
    """T* and the saturated flow at T*, by a Newton search over max-flows.

    T starts from the closed form's staircase over the locked prefix loads:
    its first group's time is the largest locked(slowest k) / speed(slowest
    k), a lower bound on T*.  While the flow at T falls short of the
    demand, its bottleneck set S, the workers with no residual path to the
    sink, has locked(S) > T * speed(S), and T moves up to locked(S) /
    speed(S), summed directly.  The first flow that saturates is at T*;
    its bottleneck set is not walked here.
    """
    locked = locked_prefix_units(classes, instance.N, redundancy)
    value = Fraction(*_staircase(*locked, *instance.prefix_speed_units)[0][2:])
    while True:
        flow = _Transport(instance, classes, redundancy, value)
        if flow.saturated:
            return value, flow
        raised = _locked_ratio(instance, classes, redundancy, flow.bottleneck())
        if raised <= value:  # the bottleneck set of a short flow locks more than T * speed(S)
            raise AssertionError(f"Newton step from T = {value} did not raise T")
        value = raised


def _flow_time(instance: ProblemInstance, value: Fraction, flow: _Transport) -> TimeResult:
    """The time result of the saturated flow at T* = ``value``.

    By flow conservation a worker's load is its sink capacity less its
    room, so its time is that over its speed, on the flow's integers.  The
    flow's bottleneck set is the largest set attaining T*, so n* = |S|.
    """
    speed_units, speed_denom = instance.speed_units
    times = tuple(
        Fraction((cap - left) * speed_denom, flow.scale * unit)
        for cap, left, unit in zip(flow.sink_caps, flow.room, speed_units)
    )
    return TimeResult(c_star=value, n_star=flow.bottleneck().bit_count(), per_worker_time=times)


def flow_time(instance: ProblemInstance, profile: ClassProfile) -> TimeResult:
    """:func:`flow_assign`'s time result at r = 1, without building its share table."""
    value, flow = _newton_search(instance, _active_classes(instance, profile, 1), 1)
    return _flow_time(instance, value, flow)


def flow_assign(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int = 1
) -> tuple[LoadAssignment, TimeResult]:
    """Optimal assignment by a Newton search over max-flows.

    Used for profiles without prefix structure (measured placements) and
    for redundant coverage.  The search (``_newton_search``) raises T from
    the closed form's staircase over the locked prefix loads to T*, one
    flow per step; the first flow that saturates is the assignment, and
    its bottleneck set, the largest set attaining T*, gives n*.  The
    search has two readers: this function builds the share table from the
    flow, and :func:`flow_time` reads only the time result.  Each flow is a
    :class:`_Transport`; :func:`lp_oracle` runs no flow.
    """
    classes = _active_classes(instance, profile, redundancy)
    value, flow = _newton_search(instance, classes, redundancy)
    masks = flow.masks
    units = {(w + 1, masks[ci]): pushed for (ci, w), pushed in flow.flows.items()}
    assignment = LoadAssignment(
        n_workers=instance.N, redundancy=redundancy, shares=UnitMap(units, flow.scale)
    )
    return assignment, _flow_time(instance, value, flow)
