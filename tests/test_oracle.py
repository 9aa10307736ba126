import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dusec import oracle
from dusec.model import (
    ClassProfile,
    ProblemInstance,
    StructureError,
    UnitMap,
    iter_class_masks,
    locked_prefix_units,
    validate,
    workers_of,
)
from dusec.oracle import (
    ORACLE_MAX_WORKERS,
    InfeasibleRedundancy,
    OracleScopeError,
    flow_assign,
    flow_time,
    lp_oracle,
)
from dusec.storage import (
    ExplicitStorage,
    exact_profile,
    generate_decentralized,
    profile_from_alpha,
)
from dusec.straggler import (
    CodingConfigError,
    StragglerConfig,
    filtered_for_redundancy,
    redundant_assign,
)
import flow_reference
from flow_reference import _build_flow, cyclic_time, feasible_at

scipy_opt = pytest.importorskip("scipy.optimize")


def _reference_fleet():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(5)))
    return inst, profile_from_alpha(F(2), 4)


def test_worked_example_value():
    inst, prof = _reference_fleet()
    assert lp_oracle(inst, prof) == F(15, 208)


def test_flow_assignment_is_valid_and_tight():
    inst, prof = _reference_fleet()
    asg, res = flow_assign(inst, prof)
    assert validate(inst, prof, asg) == []
    assert res.c_star == F(15, 208)
    assert res.n_star == 4
    assert max(res.per_worker_time) == res.c_star


def test_feasibility_thresholds():
    inst, prof = _reference_fleet()
    t = F(15, 208)
    assert feasible_at(inst, prof, 1, t)
    assert feasible_at(inst, prof, 1, t * F(11, 10))
    assert not feasible_at(inst, prof, 1, t * F(9, 10))


def test_oracle_refuses_a_value_no_set_attains(monkeypatch):
    # 15/208 * (1 + 2^-50) is above T*, so every time that high is feasible,
    # but no worker set locks that much load per speed: the direct sum refuses it
    inst, prof = _reference_fleet()
    bottleneck = oracle._bottleneck
    monkeypatch.setattr(
        oracle,
        "_bottleneck",
        lambda *a: (bottleneck(*a)[0] * (1 + F(1, 1 << 50)), bottleneck(*a)[1]),
    )
    with pytest.raises(AssertionError, match="not tight"):
        lp_oracle(inst, prof)


def test_scope_guard():
    speeds = tuple(F(i + 1) for i in range(ORACLE_MAX_WORKERS + 1))
    inst = ProblemInstance.from_alpha(F(2), speeds)
    prof = profile_from_alpha(F(2), inst.N)
    with pytest.raises(OracleScopeError):
        lp_oracle(inst, prof)


def test_redundancy_needs_large_enough_classes():
    inst, prof = _reference_fleet()
    with pytest.raises(InfeasibleRedundancy) as exc:
        lp_oracle(inst, prof, redundancy=2)
    assert 0b0001 in exc.value.class_masks  # singletons can't be covered twice
    for solve in (lp_oracle, flow_assign):
        with pytest.raises(StructureError, match="redundancy must be >= 1"):
            solve(inst, prof, redundancy=0)


def _all_but_one_profile():
    # worker n misses exactly dataset n-1, so every class has 3 members
    K, N = 4, 4
    full = (1 << N) - 1
    prof = ClassProfile(n_workers=N, class_sizes={full ^ (1 << d): F(1, K) for d in range(K)})
    inst = ProblemInstance(K=K, M=3, speeds=(F(1), F(2), F(3), F(4)))
    return inst, prof


def test_time_grows_with_redundancy():
    inst, prof = _all_but_one_profile()
    t1 = lp_oracle(inst, prof, redundancy=1)
    t2 = lp_oracle(inst, prof, redundancy=2)
    t3 = lp_oracle(inst, prof, redundancy=3)
    assert t1 < t2 < t3
    with pytest.raises(InfeasibleRedundancy):
        lp_oracle(inst, prof, redundancy=4)
    for r in (1, 2, 3):
        asg, res = flow_assign(inst, prof, redundancy=r)
        assert validate(inst, prof, asg) == []
        assert res.c_star == lp_oracle(inst, prof, redundancy=r)


def _fast_worker_profile():
    # the fastest worker exclusively stores most of the data
    prof = ClassProfile(
        n_workers=3, class_sizes={0b001: F(1, 20), 0b010: F(1, 20), 0b100: F(9, 10)}
    )
    return ProblemInstance(K=20, M=7, speeds=(F(1), F(2), F(10))), prof


def _newton_then_network_profile():
    # the flow at the prefix bound falls short; after one Newton step the greedy pass
    # falls short again and the network finishes the flow at c* = 2/35, n* = 2
    prof = ClassProfile(
        n_workers=3, class_sizes={0b101: F(3, 10), 0b011: F(1, 10), 0b100: F(1, 10)}
    )
    return ProblemInstance(K=10, M=4, speeds=(F(1), F(3), F(6))), prof


def test_bottleneck_need_not_be_a_speed_prefix():
    inst, prof = _fast_worker_profile()
    value = lp_oracle(inst, prof)
    assert value == F(9, 100)
    asg, res = flow_assign(inst, prof)
    assert res.n_star == 1  # the binding subset is just the fastest worker
    assert validate(inst, prof, asg) == []


def _scipy_reference(inst, prof, r):
    """Float LP solved by an outside library, same constraint system."""
    classes = [
        (mask, prof.a(mask))
        for mask in iter_class_masks(inst.N)
        if prof.a(mask) > 0 and mask.bit_count() >= r
    ]
    pairs = [
        (n, mask) for mask, _ in classes for n in workers_of(mask)
    ]
    col = {pair: i for i, pair in enumerate(pairs)}
    n_vars = len(pairs) + 1  # mu's then T
    c = [0.0] * len(pairs) + [1.0]
    a_eq, b_eq = [], []
    for mask, size in classes:
        row = [0.0] * n_vars
        for n in workers_of(mask):
            row[col[(n, mask)]] = 1.0
        a_eq.append(row)
        b_eq.append(float(r * size))
    a_ub, b_ub = [], []
    for n in range(1, inst.N + 1):
        row = [0.0] * n_vars
        for (w, mask), i in col.items():
            if w == n:
                row[i] = 1.0
        row[-1] = -float(inst.speeds[n - 1])
        a_ub.append(row)
        b_ub.append(0.0)
    bounds = [
        (0.0, float(prof.a(mask))) for (_, mask) in pairs
    ] + [(0.0, None)]
    res = scipy_opt.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_against_scipy_linprog():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        K = rng.randint(8, 24)
        M = rng.randint(1, K)
        storage = generate_decentralized(K, M, n, seed=seed)
        prof = exact_profile(storage)
        speeds = tuple(F(rng.randint(1, 12)) for _ in range(n))
        inst = ProblemInstance(K=K, M=M, speeds=speeds)
        exact = lp_oracle(inst, prof)
        ref = _scipy_reference(inst, prof, 1)
        assert abs(float(exact) - ref) <= 1e-9 * max(1.0, ref)


def test_against_scipy_linprog_redundant():
    for seed in range(10):
        rng = random.Random(100 + seed)
        inst, prof = _all_but_one_profile()
        speeds = tuple(F(rng.randint(1, 9)) for _ in range(4))
        inst = ProblemInstance(K=4, M=3, speeds=speeds)
        for r in (2, 3):
            exact = lp_oracle(inst, prof, redundancy=r)
            ref = _scipy_reference(inst, prof, r)
            assert abs(float(exact) - ref) <= 1e-9 * max(1.0, ref)


@st.composite
def _placements(draw):
    """A measured placement in sorted-speed order, with a redundancy in 1..N+1."""
    n = draw(st.integers(1, 6))
    K = draw(st.integers(1, 12))
    M = draw(st.one_of(st.just(K), st.integers(0, K)))  # full storage on purpose
    per_worker = tuple(
        np.array(sorted(draw(st.permutations(range(K)))[:M]), dtype=np.int64)
        for _ in range(n)
    )
    # a small pool forces ties; denominators 2, 3, 4 and 7 put the speeds over
    # a common denominator of up to 84; list order is the caller's, so usually unsorted
    speeds = draw(st.lists(
        st.sampled_from([F(1), F(3, 2), F(2), F(5), F(2, 3), F(7, 4), F(9, 7)]),
        min_size=n,
        max_size=n,
    ))
    inst = ProblemInstance(K=K, M=M, speeds=speeds)
    storage = ExplicitStorage(K=K, M=M, per_worker=per_worker)
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    return inst, prof, draw(st.integers(1, n + 1))


@settings(max_examples=150, deadline=None)
@given(case=_placements())
def test_oracle_equals_locked_load_formula(case):
    inst, prof, r = case
    classes = list(iter_class_masks(inst.N))
    too_small = [v for v in classes if prof.a(v) > 0 and v.bit_count() < r]
    if too_small:
        for solve in (lp_oracle, flow_assign):
            with pytest.raises(InfeasibleRedundancy) as exc:
                solve(inst, prof, r)
            assert exc.value.class_masks == too_small
        return
    # T* = max over S of sum_V a(V) * max(0, r - |V minus S|) / speed(S)
    value = {}
    for s in classes:
        inside = set(workers_of(s))
        locked = sum(
            (prof.a(v) * max(0, r - len(set(workers_of(v)) - inside)) for v in classes), F(0)
        )
        value[s] = locked / sum(inst.speeds[n - 1] for n in inside)
    best = max(value.values())
    assert lp_oracle(inst, prof, r) == best
    asg, res = flow_assign(inst, prof, r)
    assert res.c_star == best
    assert res.n_star == max(s.bit_count() for s in classes if value[s] == best)
    assert validate(inst, prof, asg) == []


@settings(max_examples=100, deadline=None)
@given(case=_placements())
def test_redundant_assign_equals_oracle_on_measured_placements(case):
    inst, prof, _ = case  # every redundancy is tried below
    n = inst.N
    for r in range(1, n + 1):
        too_small = tuple(v for v in iter_class_masks(n) if prof.a(v) > 0 and v.bit_count() < r)
        best = lp_oracle(inst, filtered_for_redundancy(prof, r), r)
        for s in range(r):
            plan = redundant_assign(inst, prof, StragglerConfig(s=s, m=r - s))
            assert plan.excluded_classes == too_small
            assert plan.time.c_star == best
            assert plan.assignment.redundancy == r
            assert validate(inst, prof, plan.assignment) == []
    for s in range(n + 1):
        with pytest.raises(CodingConfigError):
            redundant_assign(inst, prof, StragglerConfig(s=s, m=n + 1 - s))


@settings(max_examples=60, deadline=None)
@given(case=_placements(), lam=st.sampled_from([F(2), F(1, 3), F(7, 4), F(5, 6), F(11, 14)]))
def test_speed_scaling_on_measured_placements(case, lam):
    # every speed times lam: the same flow on the same classes, so the same
    # shares and n*, and every time divided by lam
    inst, prof, _ = case  # every redundancy is tried below
    scaled = ProblemInstance(K=inst.K, M=inst.M, speeds=[s * lam for s in inst.speeds])
    for r in range(1, inst.N + 1):
        coverable = filtered_for_redundancy(prof, r)
        asg, res = flow_assign(inst, coverable, r)
        asg_scaled, res_scaled = flow_assign(scaled, coverable, r)
        assert res_scaled.c_star == res.c_star / lam
        assert res_scaled.per_worker_time == tuple(t / lam for t in res.per_worker_time)
        assert res_scaled.n_star == res.n_star
        assert dict(asg_scaled.shares) == dict(asg.shares)
        assert lp_oracle(scaled, coverable, r) == lp_oracle(inst, coverable, r) / lam


def test_flow_assign_past_the_enumeration_cap(monkeypatch):
    # the Newton search runs max-flows only, so the 12-worker cap of lp_oracle does not apply;
    # feasible_at checks the answer on the reference flow network
    monkeypatch.setattr(oracle, "_bottleneck", None)
    for n, K, seed in ((ORACLE_MAX_WORKERS + 2, 2000, 14), (20, 16000, 20)):
        rng = random.Random(seed)
        speeds = [F(rng.randint(1, 20), rng.randint(1, 3)) for _ in range(n)]
        inst = ProblemInstance(K=K, M=K // 2, speeds=speeds)
        storage = generate_decentralized(K, K // 2, n, seed=seed)
        prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
        asg, res = flow_assign(inst, prof)
        assert validate(inst, prof, asg) == []
        assert max(res.per_worker_time) == res.c_star
        assert feasible_at(inst, prof, 1, res.c_star)
        assert not feasible_at(inst, prof, 1, res.c_star * (1 - F(1, 1 << 40)))
        with pytest.raises(OracleScopeError):
            lp_oracle(inst, prof)


def _locked(prof, r, workers):
    """locked(S) for the worker set S = ``workers``, summed on Fractions."""
    return sum((a * max(0, r - (mask & ~workers).bit_count()) for mask, a in prof.classes.items()), F(0))


def _ratio(inst, prof, r, workers):
    """locked(S) / speed(S) for the worker set S = ``workers``, summed on Fractions."""
    return _locked(prof, r, workers) / sum(s for i, s in enumerate(inst.speeds) if workers >> i & 1)


def _prefix_bound_of(inst, prof, r):
    """The best slowest-k prefix bound; the speeds ascend."""
    return max(_ratio(inst, prof, r, (1 << k) - 1) for k in range(1, inst.N + 1))


def _reference_flow(inst, prof, r):
    """flow_assign's outputs from the reference max-flow in flow_reference.

    A Newton loop of its own starts at the best slowest-k prefix bound and
    steps on the workers the source still reaches, the minimal cut, where
    flow_assign steps on the maximal one; locked(S) / speed(S) is summed
    here directly.
    """
    classes = oracle._active_classes(inst, prof, r)
    first_worker = 1 + len(classes)
    value = _prefix_bound_of(inst, prof, r)
    while True:
        net, demand, scale, share_edges = _build_flow(classes, inst.speeds, r, value)
        sink = len(net.adj) - 1
        if net.max_flow(0, sink) == demand:
            break
        level = net.reached_from(0)
        raised = _ratio(inst, prof, r, sum(1 << i for i in range(inst.N) if level[first_worker + i] >= 0))
        assert raised > value
        value = raised
    shares = [
        ((worker, mask), F(net.cap[idx ^ 1], scale))
        for idx, worker, mask in share_edges
        if net.cap[idx ^ 1]
    ]
    times = tuple(
        sum((f for (w, _), f in shares if w == n), F(0)) / s
        for n, s in enumerate(inst.speeds, start=1)
    )
    to_sink = net.reaching(sink)
    n_star = sum(not to_sink[first_worker + i] for i in range(inst.N))
    return shares, times, value, n_star


def _flow_outputs(inst, prof, r):
    asg, res = flow_assign(inst, prof, r)
    return list(asg.shares.items()), res.per_worker_time, res.c_star, res.n_star


def _bottleneck_profile(K, M, N, seed, speeds, r):
    inst = ProblemInstance(K=K, M=M, speeds=[F(s) for s in speeds.split(",")])
    storage = generate_decentralized(K, M, N, seed=seed)
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    return inst, filtered_for_redundancy(prof, r)


# the CI placements whose flows take one Newton step (newton5: 7/60 -> 2/15)
# and two (newton6: 9/400 -> 2/75 -> 3/100)
_NEWTON5 = (30, 10, 5, 0, "1,2,1,3,2", 1)
_NEWTON6 = (20, 3, 6, 7, "5,5,14,7,5,5", 1)


@settings(max_examples=100, deadline=None)
@given(case=_placements())
@example(case=(*_bottleneck_profile(*_NEWTON5), 1))
@example(case=(*_bottleneck_profile(*_NEWTON6), 1))
def test_flow_assign_equals_the_reference_flow(case):
    inst, prof, _ = case  # every redundancy is tried below
    for r in range(1, inst.N + 1):
        coverable = filtered_for_redundancy(prof, r)
        outputs = _flow_outputs(inst, coverable, r)
        assert outputs == _reference_flow(inst, coverable, r)
        if r == 1:  # the time-only route reads the same search, and builds no shares
            res = flow_time(inst, coverable)
            assert (res.per_worker_time, res.c_star, res.n_star) == outputs[1:]


# the minimal and maximal cuts of the first short flow differ: the reference
# steps on the source side straight to T*, flow_assign on the sink side takes
# one step more (1/55 -> 3/155 -> 1/50 and 1/28 -> 3/76 -> 1/24)
_TWO_CUTS = [
    ((30, 4, 6, 1190, "10/3,11/3,14/3,2,10/3,7/3", 2), F(1, 50)),
    ((12, 3, 8, 1204, "4,7/3,4,9,17/2,7,10,4", 3), F(1, 24)),
]


@pytest.mark.parametrize("args, c_star", _TWO_CUTS)
def test_either_minimum_cut_reaches_the_reference_optimum(args, c_star):
    inst, prof = _bottleneck_profile(*args)
    r = args[-1]
    outputs = _flow_outputs(inst, prof, r)
    assert outputs == _reference_flow(inst, prof, r)
    assert outputs[2] == c_star == lp_oracle(inst, prof, r)


@settings(max_examples=100, deadline=None)
@given(case=_placements())
def test_the_bottleneck_set_steps_newton_and_attains_c_star(case):
    # every flow's bottleneck set S, summed directly: a short flow's S locks
    # more than T * speed(S), and the last flow's S attains c* with |S| = n*;
    # the first flow runs at the best slowest-k prefix bound, each later one
    # at the ratio of the set before it
    inst, prof, _ = case  # every redundancy is tried below
    walk, build = oracle._Transport.bottleneck, oracle._Transport.__init__
    seen, times = [], []

    def spy(self):
        seen.append((self.saturated, walk(self)))
        return seen[-1][1]

    def spy_build(self, instance, classes, redundancy, T):
        times.append(T)
        build(self, instance, classes, redundancy, T)

    formula = profile_from_alpha(inst.alpha, inst.N)
    assert locked_prefix_units(formula.classes, inst.N, 1) == formula.cumulative_units
    for r in range(1, inst.N + 1):
        coverable = filtered_for_redundancy(prof, r)
        # the one owner of the locked prefix loads, against the direct sum on each prefix
        units, denom = locked_prefix_units(coverable.classes, inst.N, r)
        assert [F(u, denom) for u in units] == [_locked(coverable, r, (1 << k) - 1) for k in range(inst.N + 1)]
        if r == 1:
            assert (units, denom) == coverable.cumulative_units
        seen.clear()
        times.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle._Transport, "bottleneck", spy)
            patch.setattr(oracle._Transport, "__init__", spy_build)
            _, res = flow_assign(inst, coverable, r)
        values = [_prefix_bound_of(inst, coverable, r)]
        for saturated, workers in seen[:-1]:
            assert not saturated
            values.append(_ratio(inst, coverable, r, workers))
            assert values[-1] > values[-2]
        saturated, workers = seen[-1]
        assert saturated and values[-1] == res.c_star
        assert times == values
        assert _ratio(inst, coverable, r, workers) == res.c_star
        assert workers.bit_count() == res.n_star


@pytest.mark.parametrize(
    "case, r, flows",
    [
        # the greedy pass (Dinic's first phase) saturates: no network is built
        (_reference_fleet, 1, ["greedy"]),
        # the greedy pass falls short at r = 2; Dinic's later phases saturate the network
        (_all_but_one_profile, 2, ["network"]),
        # T* is above every prefix bound: the first flow falls short and Newton raises T once
        (_fast_worker_profile, 1, ["short", "greedy"]),
        # a flow read back from the network after a Newton step
        (_newton_then_network_profile, 1, ["short", "network"]),
        # two Newton steps: the first short flow's bottleneck set does not attain T*
        (lambda: _bottleneck_profile(*_TWO_CUTS[0][0]), 2, ["short", "short", "greedy"]),
    ],
)
def test_each_flow_branch_matches_the_reference(monkeypatch, case, r, flows):
    taken, built = [], []
    transport, phases = oracle._Transport.__init__, oracle._Transport._later_phases

    def spy(self, *args):
        before = len(built)
        transport(self, *args)
        taken.append("greedy" if len(built) == before else "network" if self.saturated else "short")

    def spy_phases(self, *args):
        built.append(self)
        return phases(self, *args)

    monkeypatch.setattr(oracle._Transport, "__init__", spy)
    monkeypatch.setattr(oracle._Transport, "_later_phases", spy_phases)
    inst, prof = case()
    assert _flow_outputs(inst, prof, r) == _reference_flow(inst, prof, r)
    assert taken == flows


def test_four_later_phases_match_the_reference(monkeypatch):
    # one flow, saturated at the first T, whose greedy pass leaves demand for
    # four more Dinic phases: the reference runs six BFS rounds (its own
    # first phase, the four, and the one that finds no path), a depth the
    # Hypothesis placements rarely reach
    inst, prof = _bottleneck_profile(1440, 720, 9, 9, "7,4,2,7,9,4,5,12,10", 4)
    levels, rounds = flow_reference._MaxFlow.reached_from, []

    def spy(self, s):
        rounds.append(s)
        return levels(self, s)

    monkeypatch.setattr(flow_reference._MaxFlow, "reached_from", spy)
    outputs = _flow_outputs(inst, prof, 4)
    assert outputs == _reference_flow(inst, prof, 4)
    assert len(rounds) == 6
    assert outputs[2] == lp_oracle(inst, prof, 4) == F(1261, 21600)


@pytest.mark.parametrize("args, c_star, flows", [(_NEWTON5, F(2, 15), 2), (_NEWTON6, F(3, 100), 3)])
def test_the_time_only_route_takes_the_newton_steps(monkeypatch, args, c_star, flows):
    # one flow per Newton step plus the saturated one, each walked once: the
    # short flows for the step, the saturated one for n*
    inst, prof = _bottleneck_profile(*args)
    transport, walk = oracle._Transport.__init__, oracle._Transport.bottleneck
    built, walked = [], []

    def spy(self, *rest):
        transport(self, *rest)
        built.append(self.saturated)

    def spy_walk(self):
        walked.append(self.saturated)
        return walk(self)

    monkeypatch.setattr(oracle._Transport, "__init__", spy)
    monkeypatch.setattr(oracle._Transport, "bottleneck", spy_walk)
    assert flow_time(inst, prof).c_star == c_star
    assert built == walked == [False] * (flows - 1) + [True]


def _ring_profile(ring, r):
    """The cyclic placement on workers in ``ring`` order (0-based sorted
    positions): block b sits on ring positions b - r + 1 .. b (mod N), and
    each block is 1/N of the data."""
    N, blocks = len(ring), {}
    for b in range(N):
        mask = sum(1 << ring[(b - t) % N] for t in range(r))
        blocks[mask] = blocks.get(mask, 0) + 1
    return ClassProfile(n_workers=N, class_sizes=UnitMap(blocks, N))


@st.composite
def _ring_cases(draw):
    # past lp_oracle's 12 workers; out of sorted order the slowest prefix need
    # not be the bottleneck, so most of these take Newton steps
    N = draw(st.integers(2, 40))
    r = draw(st.integers(1, min(N, 4)))
    if draw(st.booleans()):
        speeds = [F(draw(st.integers(1, 2))) for _ in range(N)]  # many ties
    else:
        speeds = [F(draw(st.integers(1, 40)), draw(st.integers(1, 5))) for _ in range(N)]
    return ProblemInstance(K=N, M=0, speeds=speeds), r, draw(st.permutations(range(N)))


@settings(max_examples=40, deadline=None)
@given(case=_ring_cases())
def test_flow_equals_the_arc_formula_on_a_shuffled_ring(case):
    inst, r, ring = case
    prof = _ring_profile(ring, r)
    expected = cyclic_time([inst.speeds[w] for w in ring], r)
    asg, res = flow_assign(inst, prof)
    assert res.c_star == flow_time(inst, prof).c_star == expected
    assert max(res.per_worker_time) == expected
    assert validate(inst, prof, asg) == []


def test_a_shuffled_ring_takes_four_newton_steps(monkeypatch):
    # 20 workers at speeds 1..20 on the ring 0, 7, 14, 1, 8, ... (stride 7):
    # the slowest-prefix start is below T* = 3/520, and the search needs five flows
    inst = ProblemInstance(K=20, M=0, speeds=[F(n) for n in range(1, 21)])
    ring = [(7 * i) % 20 for i in range(20)]
    transport, built = oracle._Transport.__init__, []

    def spy(self, *rest):
        transport(self, *rest)
        built.append(self.saturated)

    monkeypatch.setattr(oracle._Transport, "__init__", spy)
    res = flow_time(inst, _ring_profile(ring, 2))
    assert res.c_star == cyclic_time([inst.speeds[w] for w in ring], 2) == F(3, 520)
    assert built == [False] * 4 + [True]
