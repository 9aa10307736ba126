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
  capacity less its room, so no share is summed).  Each flow starts
  with Dinic's first phase, which on this network is a greedy pass over
  the class masks and builds no network.  Only when that pass falls
  short is the network built, in flat integer arrays carrying the greedy
  flow, for Dinic's later phases; it then hands its final flow back to
  the pass's table.  The shares and S are read from that table one way,
  whichever phase finished the flow.
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
wrong class map.  The only flow code is ``_Transport`` and ``_Residual``.
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


class _Residual:
    """Dinic max-flow on a residual network in flat integer arrays.

    Edge ``idx`` runs to node ``to[idx]`` with residual capacity
    ``cap[idx]``, and ``idx ^ 1`` is its reverse; node u's edges are
    ``adj[first[u]:first[u + 1]]``.  Search order follows that edge order,
    so a network laid out edge by edge as a plain Dinic would add its
    edges takes the same augmenting paths as that Dinic.
    """

    def __init__(self, to: list[int], cap: list[int], adj: list[int], first: list[int]):
        self.to, self.cap, self.adj, self.first = to, cap, adj, first

    def levels(self, s: int) -> list[int]:
        """BFS level of every node over residual edges from ``s`` (-1: unreached)."""
        to, cap, adj, first = self.to, self.cap, self.adj, self.first
        level = [-1] * (len(first) - 1)
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for idx in adj[first[u]:first[u + 1]]:
                v = to[idx]
                if cap[idx] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        return level

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Push along the first s-t path of the level graph until none is left.

        ``it[u]`` is the position of the next edge to try at u in ``adj``;
        it moves past an edge only when that edge leads to a dead end.
        After a push the search resumes at the tail of the first edge the
        push saturated: the path up to there is what a search from ``s``
        would walk again.
        """
        to, cap, adj, first = self.to, self.cap, self.adj, self.first
        it = first[:-1]
        total = 0
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min([cap[idx] for idx in path])
                total += pushed
                for idx in path:
                    cap[idx] -= pushed
                    cap[idx ^ 1] += pushed
                del path[[cap[idx] for idx in path].index(0):]
                u = to[path[-1]] if path else s
                continue
            want = level[u] + 1
            i, end = it[u], first[u + 1]
            while i < end:
                idx = adj[i]
                if cap[idx] > 0 and level[to[idx]] == want:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(adj[i])
                u = to[adj[i]]
            elif path:  # dead end: step back and skip the edge that led here
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return total

    def max_flow(self, s: int, t: int) -> int:
        """Flow from s to t on top of what the network already carries."""
        total = 0
        while True:
            level = self.levels(s)
            if level[t] < 0:
                return total
            total += self._blocking_flow(s, t, level)


class _Transport:
    """Max flow at time T on source -> class (r*a) -> member (a) -> sink (T*s).

    Capacities are integers on one scale L, the lcm of the class sizes'
    denominator and T.denominator * D, where worker n's speed is u_n / D:
    each sink cap T * u_n / D is then whole.  A flow f stands for f / L.
    Dinic's first phase on this network is a greedy pass: its level graph
    holds only source -> class -> worker -> sink paths, and its search takes
    the classes in order and each class's members by ascending bit, leaving
    an edge only once it or the worker behind it is saturated.  So the pass
    is run directly on the class masks, pushing min(demand left, class size,
    sink room left) on each (class, member) edge.  Only when it falls short
    is the network built, in :class:`_Residual`'s flat arrays, carrying the
    greedy flow; Dinic then goes on from its second phase and writes its
    final flow back.  Either way ``flows`` holds (class index, worker bit,
    flow) of every nonzero share, class by class, and ``room`` each worker's
    slack to the sink: the shares and the bottleneck set are read from
    that table alone.
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
        self.flows: list[tuple[int, int, int]] = []
        short = self._greedy(redundancy)
        if short:
            net = self._residual_network(redundancy)
            short -= net.max_flow(0, len(net.first) - 2)
            # hand the flow back to the table, class by class as the greedy
            # pass lists it; a reverse residual is the flow pushed
            to, cap, adj, first = net.to, net.cap, net.adj, net.first
            first_worker = 1 + len(self.masks)
            self.flows = [
                (ci, to[idx] - first_worker, cap[idx ^ 1])
                for ci in range(len(self.masks))
                for idx in adj[first[1 + ci] + 1:first[2 + ci]]
                if cap[idx ^ 1]
            ]
            # each worker's sink edge is the last of its edges
            self.room = [cap[adj[first[first_worker + w + 1] - 1]] for w in range(len(self.room))]
        self.saturated = short == 0

    def _greedy(self, redundancy: int) -> int:
        """Dinic's first phase; returns the demand it leaves unrouted."""
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
                flows.append((ci, w, pushed))
                left -= pushed
                room[w] -= pushed
                if not room[w]:
                    alive ^= low
            short += left
        return short

    def _residual_network(self, redundancy: int) -> _Residual:
        """The transport network, carrying the greedy flow.

        Node 0 is the source, then one node per class in order, one per
        worker, and the sink.  Each node's edges come in the order they
        would be added one by one: the source's to each class; each
        class's reverse edge to the source, then its members by ascending
        bit; each worker's reverse edges from its classes, then its edge
        to the sink.
        """
        n_classes, n = len(self.masks), len(self.room)
        first_worker = 1 + n_classes
        to: list[int] = []
        cap: list[int] = []
        source_adj: list[int] = []
        class_adj: list[int] = []
        first = [0, n_classes]
        worker_adj: list[list[int]] = [[] for _ in range(n)]
        flows = iter(self.flows)
        pending = next(flows, None)
        for ci, (mask, size) in enumerate(zip(self.masks, self.sizes)):
            node = 1 + ci
            out = len(to)
            source_adj.append(out)
            class_adj.append(out + 1)
            to += (node, 0)
            cap += (0, 0)  # set once the class's flow is summed
            sent = 0
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                flow = 0
                if pending is not None and pending[0] == ci and pending[1] == w:
                    flow = pending[2]
                    pending = next(flows, None)
                idx = len(to)
                class_adj.append(idx)
                worker_adj[w].append(idx + 1)
                to += (first_worker + w, node)
                cap += (size - flow, flow)
                sent += flow
            cap[out], cap[out + 1] = redundancy * size - sent, sent
            first.append(len(class_adj) + n_classes)
        sink = first_worker + n
        sink_adj = []
        for w, (full, left) in enumerate(zip(self.sink_caps, self.room)):
            idx = len(to)
            worker_adj[w].append(idx)
            sink_adj.append(idx + 1)
            to += (sink, first_worker + w)
            cap += (left, full - left)
        adj = source_adj + class_adj
        for edges in worker_adj:
            adj += edges
            first.append(len(adj))
        adj += sink_adj
        first.append(len(adj))
        return _Residual(to, cap, adj, first)

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
        held = [0] * len(self.masks)
        whole = [0] * len(self.masks)
        sizes = self.sizes
        for ci, w, flow in self.flows:
            bit = 1 << w
            held[ci] |= bit
            if flow == sizes[ci]:
                whole[ci] |= bit
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
    units = {(w + 1, masks[ci]): pushed for ci, w, pushed in flow.flows}
    assignment = LoadAssignment(
        n_workers=instance.N, redundancy=redundancy, shares=UnitMap(units, flow.scale)
    )
    return assignment, _flow_time(instance, value, flow)
