import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dusec.model import (
    ClassProfile,
    ProblemInstance,
    iter_class_masks,
    validate,
    workers_of,
)
from dusec.oracle import (
    ORACLE_MAX_WORKERS,
    InfeasibleRedundancy,
    OracleScopeError,
    feasible_at,
    flow_assign,
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


def test_bottleneck_need_not_be_a_speed_prefix():
    # the fastest worker exclusively stores most of the data
    prof = ClassProfile(
        n_workers=3, class_sizes={0b001: F(1, 20), 0b010: F(1, 20), 0b100: F(9, 10)}
    )
    inst = ProblemInstance(K=20, M=7, speeds=(F(1), F(2), F(10)))
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
    # a small pool forces ties; list order is the caller's, so usually unsorted
    speeds = draw(st.lists(
        st.sampled_from([F(1), F(3, 2), F(2), F(5)]), min_size=n, max_size=n
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
