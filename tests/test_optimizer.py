import ast
import hashlib
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dusec.optimizer
from dusec.model import (
    ClassProfile,
    ProblemInstance,
    StructureError,
    TimeResult,
    validate,
)
from dusec.optimizer import (
    RearrangeDelta,
    _rearranged_shares,
    assign_loads,
    cutset_bounds,
    optimal_time,
)
from dusec.oracle import flow_assign, lp_oracle
from dusec.storage import profile_from_alpha


def _worked_example():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(5)))
    return inst, profile_from_alpha(F(2), 4)


def test_worked_example_closed_form():
    inst, prof = _worked_example()
    res = optimal_time(inst, prof)
    assert res.c_star == F(15, 208)
    assert res.n_star == 4
    assert res.per_worker_time == (F(15, 208),) * 4


def test_worked_example_construction_trace():
    inst, prof = _worked_example()
    trace = []
    asg, res = assign_loads(inst, prof, trace=trace)
    tentative = [t for t in trace if t[0] == "tentative"]
    merges = [t[1] for t in trace if t[0] == "merge"]
    assert [t[2] for t in tentative] == [F(1, 16), F(1, 16), F(1, 20), F(1, 10)]
    # equal neighbours merge with a zero move, then two real moves follow
    assert [rd.delta for rd in merges] == [F(0), F(1, 8), F(3, 104)]
    assert merges[1].group_time == F(3, 40)
    assert (merges[1].receiver_start, merges[1].donor_end) == (3, 4)
    assert merges[2].group_time == F(15, 208)
    assert (merges[2].receiver_start, merges[2].receiver_end) == (1, 2)
    assert (merges[2].donor_start, merges[2].donor_end) == (3, 4)

    assert res.c_star == F(15, 208)
    assert res.n_star == 4
    assert asg.per_worker_loads() == (F(15, 208), F(15, 104), F(75, 208), F(75, 208))
    assert validate(inst, prof, asg) == []


def test_worked_example_share_table():
    inst, prof = _worked_example()
    asg, _ = assign_loads(inst, prof)
    # (worker, class mask, share) rows of the whole table
    rows = """
        1 1 1/16      1 5 1/312     1 9 1/312     1 13 1/312
        2 2 1/16      2 3 1/16      2 6 1/312     2 7 1/312
        2 10 1/312    2 11 1/312    2 14 1/312    2 15 1/312
        3 4 1/16      3 5 37/624    3 6 37/624    3 7 37/624
        3 12 1/32     3 13 37/1248  3 14 37/1248  3 15 37/1248
        4 8 1/16      4 9 37/624    4 10 37/624   4 11 37/624
        4 12 1/32     4 13 37/1248  4 14 37/1248  4 15 37/1248
    """.split()
    expected = {
        (int(n), int(mask)): F(share)
        for n, mask, share in zip(rows[0::3], rows[1::3], rows[2::3])
    }
    assert len(expected) == 28
    assert dict(asg.shares) == expected


def test_no_merge_instance():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(4), F(16)))
    prof = profile_from_alpha(F(2), 3)
    trace = []
    asg, res = assign_loads(inst, prof, trace=trace)
    assert not [t for t in trace if t[0] == "merge"]
    assert res.c_star == F(1, 8)
    assert res.n_star == 1
    assert res.per_worker_time == (F(1, 8), F(1, 16), F(1, 32))
    assert validate(inst, prof, asg) == []


def test_tie_prefers_largest_group():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2)))
    prof = profile_from_alpha(F(2), 2)
    res = optimal_time(inst, prof)
    assert res.c_star == F(1, 4)
    assert res.n_star == 2  # 1/4 is attained at n=1 and n=2; report the larger


def test_zero_storage_solves_to_zero():
    inst = ProblemInstance.from_alpha(F(1), (F(1), F(3)))
    prof = profile_from_alpha(F(1), 2)
    asg, res = assign_loads(inst, prof)
    assert res.c_star == 0
    assert asg.per_worker_loads() == (F(0), F(0))


def test_assign_loads_refuses_measured_before_the_sweep():
    # two workers with disjoint storage: the merge move would find no shared
    # class here; the refusal comes first
    prof = ClassProfile(n_workers=2, class_sizes={0b01: F(1, 4), 0b10: F(3, 4)})
    inst = ProblemInstance(K=4, M=2, speeds=(F(1), F(1)))
    trace = []
    with pytest.raises(StructureError, match="flow_assign or lp_oracle"):
        assign_loads(inst, prof, trace=trace)
    assert trace == []


def test_full_storage_splits_in_proportion_to_speed():
    for speeds in [(F(1), F(3)), (F(2), F(1), F(2), F(7, 3)), (F(5),)]:
        inst = ProblemInstance(K=4, M=4, speeds=speeds)
        n, total = inst.N, sum(speeds)
        prof = profile_from_alpha(None, n)
        trace = []
        asg, res = assign_loads(inst, prof, trace=trace)
        full = (1 << n) - 1
        assert dict(asg.shares) == {(i, full): s / total for i, s in enumerate(inst.speeds, 1)}
        assert res == TimeResult(c_star=1 / total, n_star=n, per_worker_time=(1 / total,) * n)
        assert validate(inst, prof, asg) == []
        # tentative times 0, ..., 0, 1/s_N: each new worker merges into the one group
        assert [e[0] for e in trace] == ["tentative"] + ["tentative", "merge"] * (n - 1)
        assert [e[1].donor_end for e in trace if e[0] == "merge"] == list(range(2, n + 1))


def test_merge_refuses_a_delta_past_what_the_donor_holds():
    # alpha 2, N 2: every class is 1/4.  Tentatively worker 1 holds class 1,
    # worker 2 classes 2 and 3 (1/2 in all); class 3 alone carries a move
    # from worker 2 onto worker 1, so a delta up to 1/4 fits, anything more
    # overdraws worker 2 on class 3
    sizes = profile_from_alpha(F(2), 2).classes
    tentative = {(mask.bit_length(), mask): unit for mask, unit in sizes.units.items()}

    def move(delta):
        rd = RearrangeDelta(delta, 1, 1, 2, 2, group_time=F(0))
        units = dict(tentative)
        den = _rearranged_shares(units, sizes.denom, rd, sizes.units)
        return {key: F(unit, den) for key, unit in units.items()}

    assert move(F(1, 4)) == {(1, 1): F(1, 4), (2, 2): F(1, 4), (2, 3): F(0), (1, 3): F(1, 4)}
    for delta in (F(1, 3), F(1)):
        with pytest.raises(AssertionError, match=r"overdraws worker 2 on class 3$"):
            move(delta)


def test_optimizer_does_not_import_the_oracle():
    # lp_oracle certifies the closed form and the sweep only while they share no code
    tree = ast.parse(Path(dusec.optimizer.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
    assert not [name for name in imported if "oracle" in name.split(".")]


def test_cutset_bounds_worked_example():
    inst, prof = _worked_example()
    res = optimal_time(inst, prof)
    bounds = cutset_bounds(inst, prof)
    by_key = {(b.kind, b.n): b.value for b in bounds}
    assert by_key[("prefix", 1)] == F(1, 16)
    assert by_key[("prefix", 2)] == F(1, 16)
    assert by_key[("prefix", 3)] == F(7, 128)
    assert by_key[("prefix", 4)] == F(15, 208)
    assert all(b.value <= res.c_star for b in bounds)
    assert max(b.value for b in bounds) == res.c_star


def test_cutset_bounds_tail_family():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(4), F(16)))
    prof = profile_from_alpha(F(2), 3)
    res = optimal_time(inst, prof)
    assert res.n_star == 1
    bounds = cutset_bounds(inst, prof)
    tails = {b.n: b.value for b in bounds if b.kind == "pooled-tail"}
    # pooled remainder over workers above the critical group
    assert tails == {2: F(1, 16), 3: F(3, 80)}
    assert all(b.value <= res.c_star for b in bounds)


def test_critical_conditions_worked_examples():
    for speeds, alpha in [
        ((F(1), F(2), F(5), F(5)), F(2)),
        ((F(1), F(4), F(16)), F(2)),
        ((F(1), F(3), F(9)), F(3, 2)),
    ]:
        inst = ProblemInstance.from_alpha(alpha, speeds)
        prof = profile_from_alpha(alpha, inst.N)
        res = optimal_time(inst, prof)
        # the prefix bound at n* is c*, and no prefix or pooled tail exceeds it
        bounds = {(b.kind, b.n): b.value for b in cutset_bounds(inst, prof)}
        assert bounds[("prefix", res.n_star)] == res.c_star
        assert max(bounds.values()) == res.c_star


def test_closed_form_refuses_measured_profiles():
    # the fastest worker alone stores most of the data, so the bottleneck
    # is not a speed prefix: max_n L(n)/S(n) is 1/13, the optimum is 9/100
    prof = ClassProfile(
        n_workers=3, class_sizes={0b001: F(1, 20), 0b010: F(1, 20), 0b100: F(9, 10)}
    )
    inst = ProblemInstance(K=20, M=7, speeds=(F(1), F(2), F(10)))
    _, flow = flow_assign(inst, prof)
    with pytest.raises(StructureError, match="flow_assign or lp_oracle"):
        optimal_time(inst, prof)
    with pytest.raises(StructureError, match="flow_assign or lp_oracle"):
        cutset_bounds(inst, prof)
    with pytest.raises(StructureError, match="flow_assign or lp_oracle"):
        assign_loads(inst, prof)
    assert flow.c_star == F(9, 100)


def test_formula_profile_for_another_alpha_is_refused():
    # the alpha = 3 profile would give c* = 80/1053 and full storage 1/13
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(5)))
    with pytest.raises(StructureError, match="alpha 3, instance has 2"):
        assign_loads(inst, profile_from_alpha(F(3), 4))
    with pytest.raises(StructureError, match="alpha None, instance has 2"):
        optimal_time(inst, profile_from_alpha(None, 4))
    full = ProblemInstance(K=8, M=8, speeds=inst.speeds)
    with pytest.raises(StructureError, match="alpha 2, instance has None"):
        lp_oracle(full, profile_from_alpha(F(2), 4))
    assert optimal_time(full, profile_from_alpha(None, 4)).c_star == F(1, 13)


def _pinned_cases():
    """Seeded sweeps: N 1-9 at every alpha, one N = 11; integer, rational and
    tied speeds in turn."""
    rng = random.Random(14)
    alphas = [F(1), F(11, 10), F(3, 2), F(2), F(5, 2), F(7, 3), F(3), F(13, 4)]
    kinds = [
        lambda: F(rng.randint(1, 9)),
        lambda: F(rng.randint(1, 30), rng.randint(1, 4)),
        lambda: rng.choice([F(1), F(3, 2), F(2), F(7, 3)]),
    ]
    cases = [(n, alpha) for n in range(1, 10) for alpha in alphas] + [(11, F(7, 3))]
    for i, (n, alpha) in enumerate(cases):
        yield alpha, tuple(kinds[i % 3]() for _ in range(n))


def test_sweep_outputs_are_pinned():
    # shares in insertion order, TimeResult and trace, byte for byte: the
    # sweep's arithmetic may change, its exact results may not
    digest = hashlib.sha256()
    for alpha, speeds in _pinned_cases():
        inst = ProblemInstance.from_alpha(alpha, speeds)
        trace = []
        asg, result = assign_loads(inst, profile_from_alpha(alpha, inst.N), trace=trace)
        digest.update(repr((list(asg.shares.items()), result, trace)).encode())
    assert digest.hexdigest() == (
        "6e01ce090760a519d2faf9be2a28e3bad0d0a4474acfddc02fe757b09cca53f1"
    )


def _random_case(rng):
    n = rng.randint(2, 7)
    den = rng.randint(1, 6)
    num = rng.randint(den + 1, 4 * den)
    alpha = F(num, den)
    speeds = tuple(F(rng.randint(1, 30), rng.choice([1, 1, 2, 3])) for _ in range(n))
    inst = ProblemInstance.from_alpha(alpha, speeds)
    return inst, profile_from_alpha(alpha, n)


def test_seeded_construction_invariants():
    for seed in range(60):
        rng = random.Random(seed)
        inst, prof = _random_case(rng)
        asg, res = assign_loads(inst, prof)
        assert validate(inst, prof, asg) == []
        assert res.c_star == optimal_time(inst, prof).c_star
        assert res.n_star == optimal_time(inst, prof).n_star
        assert max(res.per_worker_time) == res.c_star
        bounds = cutset_bounds(inst, prof)
        assert max(b.value for b in bounds) == res.c_star


def test_speed_scaling_equivariance():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        inst, prof = _random_case(rng)
        lam = F(rng.randint(2, 9), rng.randint(1, 3))
        scaled = ProblemInstance.from_alpha(
            inst.alpha, tuple(s * lam for s in inst.speeds)
        )
        assert optimal_time(scaled, prof).c_star == optimal_time(inst, prof).c_star / lam


def test_extra_speed_never_hurts():
    for seed in range(20):
        rng = random.Random(2000 + seed)
        inst, prof = _random_case(rng)
        faster = ProblemInstance.from_alpha(
            inst.alpha, inst.speeds + (inst.speeds[-1] * 2,)
        )
        bigger = profile_from_alpha(inst.alpha, inst.N + 1)
        # a larger fleet also stores more, so both effects push time down
        assert optimal_time(faster, bigger).c_star <= optimal_time(inst, prof).c_star


@settings(max_examples=60, deadline=None)
@given(
    # None is full storage; 1 is no storage at all
    alpha=st.one_of(
        st.none(), st.fractions(min_value=1, max_value=4, max_denominator=12).filter(lambda a: a < 4)
    ),
    # a small pool forces ties; list order is the caller's, so usually unsorted
    speeds=st.lists(
        st.sampled_from([F(1), F(3, 2), F(2), F(7, 3), F(5)]), min_size=1, max_size=7
    ),
)
def test_closed_form_equals_construction_and_oracle(alpha, speeds):
    if alpha is None:
        inst = ProblemInstance(K=1, M=1, speeds=speeds)
    else:
        inst = ProblemInstance.from_alpha(alpha, speeds)
    prof = profile_from_alpha(inst.alpha, inst.N)
    res = optimal_time(inst, prof)
    trace = []
    asg, built = assign_loads(inst, prof, trace=trace)
    assert built == res
    # the times come from the sweep's integer sums, the loads from the shares
    assert built.per_worker_time == tuple(
        load / s for load, s in zip(asg.per_worker_loads(), inst.speeds)
    )
    assert res.c_star == lp_oracle(inst, prof)
    assert validate(inst, prof, asg) == []
    # every merge moves load from a group onto the one directly below it
    for rd in (e[1] for e in trace if e[0] == "merge"):
        assert 1 <= rd.receiver_start <= rd.receiver_end
        assert rd.donor_start == rd.receiver_end + 1 <= rd.donor_end <= inst.N
        assert rd.delta >= 0
