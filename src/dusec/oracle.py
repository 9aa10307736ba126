"""Independent transportation-problem oracle for assignment optimality.

The min-max completion time of covering every storage class r times, with
per-worker-per-class shares capped at the class size, is the optimum of a
small linear program.  This module solves it by exact parametric search:
by max-flow/min-cut duality the optimum equals

    T* = max over worker subsets S of
         sum_V a(V) * max(0, r - |V \\ S|)  /  sum_{n in S} s_n,

i.e. the load irrevocably locked onto some subset of workers divided by
that subset's speed.  The locked load of every S comes from one ranked
zeta transform in O(r * N * 2^N) (Bjorklund, Husfeldt, Kaski, Koivisto,
"Fourier meets Mobius", STOC 2007).  The candidate is then verified with
an exact rational max-flow: feasible at T*, infeasible just below it.

Everything here is Fraction arithmetic end to end; nothing is shared with
the closed-form solver in ``optimizer``, so the two routes check each
other.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    StructureError,
    TimeResult,
    check_pair,
)

ORACLE_MAX_WORKERS = 12

_EPS_SCALE = Fraction((1 << 40) - 1, 1 << 40)  # 1 - 2^-40


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


class _MaxFlow:
    """Dinic max-flow over exact rational capacities."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[Fraction] = []

    def add_edge(self, u: int, v: int, cap: Fraction) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(Fraction(0))
        return idx

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            for idx in self.adj[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, pushed: Fraction, level: list[int], it: list[int]) -> Fraction:
        if u == t:
            return pushed
        while it[u] < len(self.adj[u]):
            idx = self.adj[u][it[u]]
            v = self.to[idx]
            if self.cap[idx] > 0 and level[v] == level[u] + 1:
                flow = self._dfs(v, t, min(pushed, self.cap[idx]), level, it)
                if flow > 0:
                    self.cap[idx] -= flow
                    self.cap[idx ^ 1] += flow
                    return flow
            it[u] += 1
        return Fraction(0)

    def max_flow(self, s: int, t: int) -> Fraction:
        total = Fraction(0)
        inf = Fraction(1 << 62)
        while True:
            level = self._bfs(s, t)
            if level is None:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self._dfs(s, t, inf, level, it)
                if pushed == 0:
                    break
                total += pushed


def _active_classes(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int
) -> list[tuple[int, Fraction]]:
    """(mask, size) of every nonzero class; checks the input before enumerating."""
    check_pair(instance, profile)
    if redundancy < 1:
        raise StructureError("redundancy must be >= 1")
    if instance.N > ORACLE_MAX_WORKERS:
        raise OracleScopeError(
            f"oracle enumerates worker subsets; N={instance.N} exceeds {ORACLE_MAX_WORKERS}"
        )
    bad = [mask for mask in profile.classes if mask.bit_count() < redundancy]
    if bad:
        raise InfeasibleRedundancy(redundancy, bad)
    return list(profile.classes.items())


def _bottleneck(
    classes: list[tuple[int, Fraction]], speeds: tuple[Fraction, ...], redundancy: int
) -> tuple[Fraction, int]:
    """max over S of locked(S) / speed(S), and the largest maximizing S.

    within[k][S], the size of the classes with at most k members outside S,
    comes from one ranked zeta pass over the bits; locked(S) is the sum of
    planes 0..r-1.  Plane 0 is the plain subset-sum (r = 1).
    """
    n = len(speeds)
    full = 1 << n
    locked = [Fraction(0)] * full
    for mask, size in classes:
        locked[mask] = size
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
    spd = [Fraction(0)] * full
    for s_mask in range(1, full):
        low = s_mask & -s_mask
        spd[s_mask] = spd[s_mask ^ low] + speeds[low.bit_length() - 1]
    best = Fraction(0)
    best_mask = full - 1
    for s_mask in range(1, full):
        value = locked[s_mask] / spd[s_mask]
        if value > best or (value == best and s_mask.bit_count() > best_mask.bit_count()):
            best = value
            best_mask = s_mask
    return best, best_mask


def _build_flow(
    classes: list[tuple[int, Fraction]],
    speeds: tuple[Fraction, ...],
    redundancy: int,
    T: Fraction,
) -> tuple[_MaxFlow, Fraction, list[tuple[int, int, int]]]:
    """Flow network: source -> class (r*a) -> member workers (cap a) -> sink (T*s)."""
    n = len(speeds)
    n_nodes = 2 + len(classes) + n
    source = 0
    sink = n_nodes - 1
    net = _MaxFlow(n_nodes)
    demand = Fraction(0)
    share_edges: list[tuple[int, int, int]] = []  # (edge idx, worker, class mask)
    for ci, (mask, size) in enumerate(classes):
        net.add_edge(source, 1 + ci, redundancy * size)
        demand += redundancy * size
        for i in range(n):
            if mask >> i & 1:
                idx = net.add_edge(1 + ci, 1 + len(classes) + i, size)
                share_edges.append((idx, i + 1, mask))
    for i in range(n):
        net.add_edge(1 + len(classes) + i, sink, T * speeds[i])
    return net, demand, share_edges


def _saturates(classes: list, speeds: tuple[Fraction, ...], redundancy: int, T: Fraction) -> bool:
    net, demand, _ = _build_flow(classes, speeds, redundancy, T)
    return net.max_flow(0, len(net.adj) - 1) == demand


def feasible_at(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int, T: Fraction
) -> bool:
    """Exact feasibility of covering every class r times within time T."""
    classes = _active_classes(instance, profile, redundancy)
    return _saturates(classes, instance.speeds, redundancy, T)


def lp_oracle(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int = 1
) -> Fraction:
    """Exact optimal min-max time, independent of the closed-form solver.

    The enumerated candidate is cross-verified by max-flow: it must be
    feasible, and infeasible after shrinking by 2^-40.
    """
    classes = _active_classes(instance, profile, redundancy)
    value, _ = _bottleneck(classes, instance.speeds, redundancy)
    if not _saturates(classes, instance.speeds, redundancy, value):
        raise AssertionError(f"oracle candidate {value} unexpectedly infeasible")
    if value > 0 and _saturates(classes, instance.speeds, redundancy, value * _EPS_SCALE):
        raise AssertionError(f"oracle candidate {value} is not tight")
    return value


def flow_assign(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int = 1
) -> tuple[LoadAssignment, TimeResult]:
    """Optimal assignment extracted from a max-flow at the oracle optimum.

    Used for profiles without prefix structure (measured placements) and
    for redundant coverage.  The reported n* is the number of workers in
    the bottleneck subset.
    """
    classes = _active_classes(instance, profile, redundancy)
    value, bottleneck_mask = _bottleneck(classes, instance.speeds, redundancy)
    net, demand, share_edges = _build_flow(classes, instance.speeds, redundancy, value)
    if net.max_flow(0, len(net.adj) - 1) != demand:
        raise AssertionError("flow at the oracle optimum failed to saturate demand")
    shares: dict[tuple[int, int], Fraction] = {}
    for idx, worker, mask in share_edges:
        flow = net.cap[idx ^ 1]  # residual on the reverse edge = flow pushed
        if flow != 0:
            shares[(worker, mask)] = flow
    assignment = LoadAssignment(
        n_workers=instance.N, redundancy=redundancy, shares=shares
    )
    loads = assignment.per_worker_loads()
    times = tuple(load / s for load, s in zip(loads, instance.speeds))
    result = TimeResult(
        c_star=value, n_star=bottleneck_mask.bit_count(), per_worker_time=times
    )
    return assignment, result
