"""The tests' reference max-flow: a plain Dinic on the transport network.

``flow_assign`` runs its flows through ``oracle._Transport``, a greedy
first phase and Dinic's later phases on one table of (class, worker)
flows, with no network built.  The tests check every flow it returns
against this separate, straightforward code: :class:`_MaxFlow` on the
network :func:`_build_flow` builds, whose node and edge order the table's
search follows, so both take the same augmenting paths.  ``lp_oracle``
runs no flow at all, so this module is the only other max-flow in the
project.

It also holds known answers: the optimal times of the three centralized
placements that ``simulator.baseline_assign`` builds, written from the
placements' shape with no ``dusec`` code.  They reach past the 12 workers
``lp_oracle`` can enumerate.

It is imported by the tests and is not collected as a test module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from dusec.model import ClassProfile, ProblemInstance, UnitMap
from dusec.oracle import _active_classes


class _MaxFlow:
    """Dinic max-flow over integer capacities."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.adj[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def reached_from(self, s: int) -> list[int]:
        """BFS level of every node over residual edges from ``s`` (-1: unreached)."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * len(adj)
        level[s] = 0
        queue = [s]
        for u in queue:
            next_level = level[u] + 1
            for idx in adj[u]:
                v = to[idx]
                if cap[idx] > 0 and level[v] < 0:
                    level[v] = next_level
                    queue.append(v)
        return level

    def reaching(self, t: int) -> list[bool]:
        """Whether each node has a residual path to ``t``."""
        adj, to, cap = self.adj, self.to, self.cap
        seen = [False] * len(adj)
        seen[t] = True
        queue = [t]
        for v in queue:
            for idx in adj[v]:
                u = to[idx]
                if not seen[u] and cap[idx ^ 1] > 0:
                    seen[u] = True
                    queue.append(u)
        return seen

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push one path's bottleneck along the first s-t path of the level graph.

        ``it[u]`` is the next edge to try at u; it moves past an edge only
        when that edge leads to a dead end, so a saturated path is tried
        again from the same edges next time.  Returns 0 when no path is left.
        """
        adj, to, cap = self.adj, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            edges = adj[u]
            want = level[u] + 1
            i = it[u]
            while i < len(edges):
                idx = edges[i]
                if cap[idx] > 0 and level[to[idx]] == want:
                    break
                i += 1
            it[u] = i
            if i < len(edges):
                path.append(edges[i])
                u = to[edges[i]]
            elif path:  # dead end: step back and skip the edge that led here
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return 0
        pushed = min(cap[idx] for idx in path)
        for idx in path:
            cap[idx] -= pushed
            cap[idx ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        """Max flow from s to t."""
        total = 0
        while True:
            level = self.reached_from(s)
            if level[t] < 0:
                return total
            it = [0] * len(self.adj)
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed


def _build_flow(
    classes: UnitMap, speeds: tuple[Fraction, ...], redundancy: int, T: Fraction
) -> tuple[_MaxFlow, int, int, list[tuple[int, int, int]]]:
    """Flow network: source -> class (r*a) -> member workers (cap a) -> sink (T*s).

    The sink caps are the Fractions T * s, built here from the speeds as
    given.  Every capacity is scaled by L, the lcm of their denominators,
    so the network is integral.  Returns (network, demand, L, share edges);
    a flow f on the network stands for f / L.
    """
    n = len(speeds)
    sink_caps = [T * s for s in speeds]
    scale = lcm(classes.denom, *{cap.denominator for cap in sink_caps})
    factor = scale // classes.denom
    first_worker = 1 + len(classes)
    net = _MaxFlow(first_worker + n + 1)
    demand = 0
    share_edges: list[tuple[int, int, int]] = []  # (edge idx, worker, class mask)
    for ci, (mask, unit) in enumerate(classes.units.items()):
        size = unit * factor
        net.add_edge(0, 1 + ci, redundancy * size)
        demand += redundancy * size
        rest = mask
        while rest:
            worker = (rest & -rest).bit_length()
            idx = net.add_edge(1 + ci, first_worker + worker - 1, size)
            share_edges.append((idx, worker, mask))
            rest &= rest - 1
    for i, cap in enumerate(sink_caps):
        net.add_edge(first_worker + i, first_worker + n, cap.numerator * (scale // cap.denominator))
    return net, demand, scale, share_edges


def feasible_at(
    instance: ProblemInstance, profile: ClassProfile, redundancy: int, T: Fraction
) -> bool:
    """Exact feasibility of covering every class r times within time T."""
    classes = _active_classes(instance, profile, redundancy)
    net, demand, _, _ = _build_flow(classes, instance.speeds, redundancy, T)
    return net.max_flow(0, len(net.adj) - 1) == demand


def repetition_time(speeds: list[Fraction], r: int) -> Fraction:
    """T* of the repetition placement: ``speeds`` slowest first, split into
    G = N/r groups of r consecutive workers, each group alone holding its
    own 1/G of the data, so each group finishes its block on its own."""
    G = len(speeds) // r
    return max(Fraction(1, G) / sum(speeds[g * r : (g + 1) * r]) for g in range(G))


def man_time(speeds: list[Fraction], r: int) -> Fraction:
    """T* of the all-subsets (MAN) placement: one block on every r-subset, so
    a set of k workers locks C(k, r)/C(N, r) of the data, and the k slowest
    have the least speed: the maximum over k of C(k, r)/C(N, r)/S(k)."""
    N, best, total = len(speeds), Fraction(0), 0
    for k, speed in enumerate(sorted(speeds), 1):
        total += speed
        best = max(best, Fraction(comb(k, r), comb(N, r)) / total)
    return best


def cyclic_time(ring: list[Fraction], r: int) -> Fraction:
    """T* of the cyclic placement on workers in ``ring`` order, in any order
    of speeds: N blocks, each on an arc of r consecutive workers.  A set of
    separated arcs locks the blocks inside each arc, so its ratio is at
    most its best arc's: the largest of 1/speed(all) and, over the proper
    arcs A, max(0, |A| - r + 1)/N/speed(A)."""
    N = len(ring)
    best = Fraction(1) / sum(ring)
    for start in range(N):
        speed = 0
        for length in range(1, N):
            speed += ring[(start + length - 1) % N]
            best = max(best, Fraction(max(0, length - r + 1), N) / speed)
    return best
