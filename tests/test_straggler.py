import operator
import random
import re
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dusec.model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    StructureError,
    UnitMap,
    int64_rows,
    workers_of,
)
from dusec.optimizer import assign_loads
from dusec.oracle import flow_assign
from dusec.storage import (
    ExplicitStorage,
    exact_profile,
    generate_decentralized,
    profile_from_alpha,
)
from dusec.straggler import (
    DEFAULT_FIELD_MODULUS,
    CodedTransmission,
    CodingConfigError,
    InsufficientResponses,
    StragglerConfig,
    _basis_values,
    _field_combine,
    _residues,
    decode,
    encode,
    part_schedule,
    redundant_assign,
)
from coding_reference import reference_basis, reference_schedule, reference_vector


def test_config_validation():
    cfg = StragglerConfig(s=1, m=2)
    assert cfg.redundancy == 3
    assert cfg.field_modulus == DEFAULT_FIELD_MODULUS
    with pytest.raises(CodingConfigError):
        StragglerConfig(s=-1, m=1)
    with pytest.raises(CodingConfigError):
        StragglerConfig(s=0, m=0)
    with pytest.raises(CodingConfigError):
        StragglerConfig(s=1, m=1, field_modulus=91)  # 7 * 13
    # no witness divides these, so the Miller-Rabin rounds must refuse them;
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5 and 7
    for composite in (1763, 3215031751):  # 1763 = 41 * 43
        with pytest.raises(CodingConfigError, match="is not prime"):
            StragglerConfig(s=0, m=1, field_modulus=composite)
    # p - 1 = 2^t * d with t >= 2 runs the squaring rounds: 65537 - 1 = 2^16 and
    # 998244353 - 1 = 2^23 * 119 reach -1 there; 1373653 = 829 * 1657 (t = 2) is a
    # strong pseudoprime to bases 2 and 3, 25326001 = 2251 * 11251 (t = 4) to 2, 3 and 5
    for prime in (65537, 998244353):
        assert StragglerConfig(s=0, m=1, field_modulus=prime).field_modulus == prime
    for composite in (1373653, 25326001):
        with pytest.raises(CodingConfigError, match="is not prime"):
            StragglerConfig(s=0, m=1, field_modulus=composite)
    for field, kwargs in (
        ("field_modulus", dict(s=0, m=1, field_modulus=7.0)),
        ("m", dict(s=0, m=1.5)),
        ("s", dict(s=True, m=1)),
        ("s", dict(s=0.5, m=1)),
    ):
        with pytest.raises(CodingConfigError, match=rf"^{field} must be an integer"):
            StragglerConfig(**kwargs)
    with pytest.raises(CodingConfigError, match="^field_modulus must be >= 2, got 1$"):
        StragglerConfig(s=0, m=1, field_modulus=1)


def test_field_modulus_is_below_2_64_where_the_witnesses_decide():
    # 2^64 - 59, the largest prime below 2^64, is accepted
    top = (1 << 64) - 59
    assert StragglerConfig(s=0, m=1, field_modulus=top).field_modulus == top
    # 149491 * 747451 * 34233211 is a strong pseudoprime to 2..31; only 37 refuses it
    with pytest.raises(CodingConfigError, match="is not prime"):
        StragglerConfig(s=0, m=1, field_modulus=3825123056546413051)
    # 399165290221 * 798330580441, a strong pseudoprime to every witness 2..37,
    # and the prime 2^89 - 1: past 2^64 the twelve witnesses decide neither
    for modulus in (1 << 64, 318665857834031151167461, (1 << 89) - 1):
        with pytest.raises(CodingConfigError, match=r"below 2\^64"):
            StragglerConfig(s=0, m=1, field_modulus=modulus)


def test_two_fast_one_slow_plan():
    # one slow worker: double coverage forces each pair class fully onto
    # both members, and the slow worker is relieved of the triple class
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(100), F(100)))
    prof = profile_from_alpha(F(2), 3)
    plan = redundant_assign(inst, prof, StragglerConfig(s=1, m=1))
    assert plan.time.c_star == F(1, 4)
    assert plan.excluded_classes == (0b001, 0b010, 0b100)
    asg = plan.assignment
    for pair in (0b011, 0b101, 0b110):
        for n in workers_of(pair):
            assert asg.shares.get((n, pair), 0) == F(1, 8)
    assert asg.shares.get((1, 0b111), 0) == 0
    assert asg.shares.get((2, 0b111), 0) == F(1, 8)
    assert asg.shares.get((3, 0b111), 0) == F(1, 8)


def test_no_tolerance_reduces_to_plain_assignment():
    cfg = StragglerConfig(s=0, m=1)
    for seed in range(15):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        alpha = F(rng.randint(3, 8), 2)
        speeds = tuple(F(rng.randint(1, 10)) for _ in range(n))
        inst = ProblemInstance.from_alpha(alpha, speeds)
        prof = profile_from_alpha(alpha, n)
        plan = redundant_assign(inst, prof, cfg)
        _, res = assign_loads(inst, prof)
        assert plan.time.c_star == res.c_star
        assert plan.excluded_classes == ()


def test_redundancy_beyond_the_fleet_is_refused():
    # s + m = 18 > N = 4: no class can be covered 18 times, so there is no plan
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(5)))
    prof = profile_from_alpha(F(2), 4)
    with pytest.raises(CodingConfigError, match=r"r = s \+ m = 18 exceeds N = 4"):
        redundant_assign(inst, prof, StragglerConfig(s=9, m=9))
    plan = redundant_assign(inst, prof, StragglerConfig(s=2, m=2))  # r = N still plans
    assert plan.excluded_classes == tuple(range(1, 15))
    assert plan.time.c_star > 0


def test_part_schedule_structure():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(100), F(100)))
    prof = profile_from_alpha(F(2), 3)
    cfg = StragglerConfig(s=1, m=2)
    plan = redundant_assign(inst, prof, cfg)
    schedule = part_schedule(plan.assignment, cfg)
    assert set(schedule) == {(0b111, 1), (0b111, 2)}
    assert schedule[(0b111, 1)] == (1, 2, 3)
    assert schedule[(0b111, 2)] == (1, 2, 3)


def test_part_schedule_counts_match_plan():
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(5)))
    prof = profile_from_alpha(F(2), 4)
    for cfg in (StragglerConfig(1, 1), StragglerConfig(1, 2), StragglerConfig(2, 2)):
        plan = redundant_assign(inst, prof, cfg)
        schedule = part_schedule(plan.assignment, cfg)
        r = cfg.redundancy
        seen_masks = set()
        for (mask, j), workers in schedule.items():
            seen_masks.add(mask)
            assert 1 <= j <= cfg.m
            assert len(workers) == r
            assert len(set(workers)) == r
            assert all(mask & (1 << (n - 1)) for n in workers)
        covered = {m for m, t in plan.assignment.class_totals().items() if t > 0}
        assert seen_masks == covered
        # per-worker slot counts follow the plan's shares exactly in total
        slots = {}
        for (mask, j), workers in schedule.items():
            for n in workers:
                slots[(n, mask)] = slots.get((n, mask), 0) + 1
        for mask in covered:
            size = plan.assignment.class_totals()[mask] / r
            for n in workers_of(mask):
                expected = cfg.m * plan.assignment.shares.get((n, mask), 0) / size
                assert abs(slots.get((n, mask), 0) - expected) < 1


def _sum_mod(messages, length, p):
    return tuple(sum(v[i] for v in messages.values()) % p for i in range(length))


def test_encode_decode_all_survivor_subsets():
    p = DEFAULT_FIELD_MODULUS
    for seed, (s, m) in enumerate(
        [(1, 1), (1, 2), (2, 1), (2, 2), (0, 2), (1, 3)]
    ):
        cfg = StragglerConfig(s=s, m=m)
        n = max(3, s + m)
        rng = random.Random(seed)
        storage = generate_decentralized(24, 18, n, seed=seed)
        prof = exact_profile(storage)
        speeds = tuple(F(rng.randint(1, 9)) for _ in range(n))
        inst = ProblemInstance(K=24, M=18, speeds=speeds)
        plan = redundant_assign(inst, prof, cfg)
        covered = sorted(
            mask for mask, t in plan.assignment.class_totals().items() if t > 0
        )
        if not covered:
            continue
        length = 2 * m
        messages = {
            mask: tuple(rng.randrange(p) for _ in range(length)) for mask in covered
        }
        expected = _sum_mod(messages, length, p)
        transmissions = encode(plan.assignment, cfg, messages)
        assert len(transmissions) == n
        for t in transmissions:
            assert t.coded_vector == reference_vector(t, messages, p, 2)
        for survivors in combinations(transmissions, n - s):
            assert decode(list(survivors), cfg, n) == expected
        # more than the minimum is fine too
        assert decode(list(transmissions), cfg, n) == expected


def test_full_replication_sends_the_aggregate():
    # single class on every worker, tolerate all but one response
    n = 4
    prof = profile_from_alpha(None, n)
    inst = ProblemInstance(K=8, M=8, speeds=(F(1), F(2), F(3), F(4)))
    cfg = StragglerConfig(s=n - 1, m=1)
    plan = redundant_assign(inst, prof, cfg)
    assert plan.time.c_star == F(1, 1)  # slowest worker computes everything
    full = (1 << n) - 1
    message = (3, 1, 4, 1, 5)
    transmissions = encode(plan.assignment, cfg, {full: message})
    for t in transmissions:
        assert t.coded_vector == message
        assert decode([t], cfg, n) == message


def test_decode_input_validation():
    cfg = StragglerConfig(s=1, m=1)
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(3)))
    prof = profile_from_alpha(F(2), 3)
    plan = redundant_assign(inst, prof, cfg)
    covered = sorted(m for m, t in plan.assignment.class_totals().items() if t > 0)
    messages = {mask: (mask, mask + 1) for mask in covered}
    ts = encode(plan.assignment, cfg, messages)
    with pytest.raises(InsufficientResponses):
        decode([ts[0]], cfg, 3)
    with pytest.raises(StructureError):
        decode([ts[0], ts[0]], cfg, 3)
    with pytest.raises(InsufficientResponses):
        decode([], cfg, 3)
    with pytest.raises(StructureError, match=r"worker 3 out of range 1\.\.2"):
        decode(ts, cfg, 2)
    short = CodedTransmission(vm_index=2, coded_vector=(1,), encoding_row={})
    with pytest.raises(StructureError, match=r"coded vector lengths differ: \[1, 2\]"):
        decode([ts[0], short], cfg, 3)
    with pytest.raises(StructureError, match="vm_index must be >= 1, got 0"):
        CodedTransmission(vm_index=0, coded_vector=(1,), encoding_row={})
    # True used to decode as worker 1
    for index in (True, 1.5, "2"):
        with pytest.raises(StructureError, match=f"^vm_index must be an integer, got {re.escape(repr(index))}$"):
            CodedTransmission(vm_index=index, coded_vector=(1,), encoding_row={})
    # a fleet size of True used to decode as one worker, and 1.5 or "3" ended in bare TypeErrors
    for n_total in (True, 1.5, "3"):
        with pytest.raises(StructureError, match=f"^n_total must be an integer, got {re.escape(repr(n_total))}$"):
            decode(ts, cfg, n_total)
    with pytest.raises(StructureError, match="^n_total must be >= 1, got 0$"):
        decode(ts, cfg, 0)



def test_encode_message_validation():
    cfg = StragglerConfig(s=1, m=2)
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(100), F(100)))
    prof = profile_from_alpha(F(2), 3)
    plan = redundant_assign(inst, prof, cfg)
    with pytest.raises(StructureError):
        encode(plan.assignment, cfg, {0b011: (1, 2)})  # wrong class set
    with pytest.raises(CodingConfigError):
        encode(plan.assignment, cfg, {0b111: (1, 2, 3)})  # length not divisible by m
    cfg11 = StragglerConfig(s=1, m=1)
    plan11 = redundant_assign(inst, prof, cfg11)
    covered = sorted(m for m, t in plan11.assignment.class_totals().items() if t > 0)
    bad = {mask: (1, 2) for mask in covered}
    bad[covered[0]] = (1, 2, 3)
    with pytest.raises(CodingConfigError):
        encode(plan11.assignment, cfg11, bad)
    # elements that are not integers are refused, never truncated
    good = {mask: (1, 2) for mask in covered}
    for wide in (False, True):
        for element in (3.7, "5", np.float64(2.5)):
            row = (1 << 70 if wide else 1, element)
            messages = {**good, covered[0]: row}
            with pytest.raises(CodingConfigError, match="integers"):
                encode(plan11.assignment, cfg11, messages)


def test_small_modulus_rejected():
    # 4 workers + 1 anchor cannot all get distinct points mod 5
    cfg = StragglerConfig(s=0, m=1, field_modulus=5)
    shares = {(n, 0b1111): F(1, 4) for n in range(1, 5)}
    asg = LoadAssignment(n_workers=4, redundancy=1, shares=shares)
    with pytest.raises(CodingConfigError):
        encode(asg, cfg, {0b1111: (1,)})


def test_part_schedule_rounds_remainders_to_the_lowest_worker():
    # one class on 4 workers, s=1, m=2: 6 slots, quotas 2*share = 2, 1, 3/2, 3/2;
    # the floors leave one slot for the tied remainders of workers 3 and 4
    cfg = StragglerConfig(s=1, m=2)
    shares = {(1, 0b1111): F(1), (2, 0b1111): F(1, 2), (3, 0b1111): F(3, 4), (4, 0b1111): F(3, 4)}
    asg = LoadAssignment(n_workers=4, redundancy=3, shares=shares)
    assert part_schedule(asg, cfg) == {(0b1111, 1): (1, 2, 3), (0b1111, 2): (1, 3, 4)}


P31, P61 = (1 << 31) - 1, (1 << 61) - 1
P64 = (1 << 64) - 59  # the largest prime below 2^64


_WIDE = st.one_of(
    st.integers(0, P61), st.integers(-(1 << 70), -1), st.integers(1 << 63, 1 << 70)
)
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


@st.composite
def _coded_rounds(draw):
    """A measured placement, speeds, (s, m) with s + m <= N, a prime, a
    message container and one message row per possible class."""
    n = draw(st.integers(1, 7))
    K = draw(st.integers(1, 10))
    M = draw(st.integers(0, K))
    per_worker = tuple(
        np.array(sorted(draw(st.permutations(range(K)))[:M]), dtype=np.int64)
        for _ in range(n)
    )
    speeds = draw(st.lists(st.sampled_from([F(1), F(3, 2), F(2), F(5)]), min_size=n, max_size=n))
    s = draw(st.integers(0, n - 1))
    m = draw(st.integers(1, n - s))
    p = draw(st.sampled_from([P31, P61]))
    container = draw(st.sampled_from(["tuple", "list", "int64"]))
    length = m * draw(st.integers(1, 3))
    element = _INT64 if container == "int64" else _WIDE
    rows = draw(st.lists(st.lists(element, min_size=length, max_size=length), min_size=K, max_size=K))
    return ExplicitStorage(K=K, M=M, per_worker=per_worker), speeds, s, m, p, container, rows


def _round(K, M, per_worker, speeds, s, m, p, container, rows):
    arrays = tuple(np.array(datasets, dtype=np.int64) for datasets in per_worker)
    storage = ExplicitStorage(K=K, M=M, per_worker=arrays)
    return storage, [F(v) for v in speeds], s, m, p, container, rows


@settings(max_examples=100, deadline=None)
@given(case=_coded_rounds())
@example(case=_round(4, 3, [[0, 1, 2], [1, 2, 3], [0, 2, 3]], [1, 2, 5], 1, 1, P61, "tuple",
                     [[-5, 1 << 63], [1 << 70, -(1 << 70)], [P61, P61 + 1], [0, -1]]))
@example(case=_round(3, 3, [[0, 1, 2]] * 4, [1, 1, 2, 5], 1, 2, P31, "list",
                     [[-1, (1 << 64) + 3, P31, 1 << 63]] * 3))
@example(case=_round(5, 3, [[0, 1, 2], [2, 3, 4], [0, 3, 4], [1, 2, 4]], [5, 1, 2, 2], 2, 1, P31,
                     "int64", [[-(1 << 63)], [(1 << 63) - 1], [-1], [P31], [12345]]))
def test_coded_vectors_equal_the_element_wise_reference(case):
    storage, speeds, s, m, p, container, rows = case
    inst = ProblemInstance(K=storage.K, M=storage.M, speeds=speeds)
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    cfg = StragglerConfig(s=s, m=m, field_modulus=p)
    plan = redundant_assign(inst, prof, cfg)
    covered = sorted(mask for mask, t in plan.assignment.class_totals().items() if t > 0)
    if not covered:
        return
    wrap = {"tuple": tuple, "list": list, "int64": lambda r: np.array(r, dtype=np.int64)}[container]
    messages = {mask: wrap(row) for mask, row in zip(covered, rows)}
    length = len(rows[0])
    part_len = length // m
    transmissions = encode(plan.assignment, cfg, messages)
    for t in transmissions:
        assert t.coded_vector == reference_vector(t, messages, p, part_len)
    expected = tuple(sum(int(v[i]) for v in messages.values()) % p for i in range(length))
    n = inst.N
    for k in range(n - s, n + 1):
        for survivors in combinations(transmissions, k):
            assert decode(list(survivors), cfg, n) == expected


@settings(max_examples=60, deadline=None)
@given(case=_coded_rounds())
def test_part_schedule_on_python_integers_matches_int64(case):
    # every unit times 2^70 over the denominator times 2^70 is the same plan,
    # but its quota products pass 2^63, so its schedule is worked out on
    # Python integers; the plain plan's on int64; both equal the schedule
    # taken one class and one holder at a time
    storage, speeds, s, m, p, _, _ = case
    inst = ProblemInstance(K=storage.K, M=storage.M, speeds=speeds)
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    cfg = StragglerConfig(s=s, m=m, field_modulus=p)
    plain = redundant_assign(inst, prof, cfg).assignment
    units = {key: unit << 70 for key, unit in plain.shares.units.items()}
    wide = LoadAssignment(
        n_workers=plain.n_workers, redundancy=plain.redundancy, shares=UnitMap(units, plain.shares.denom << 70)
    )
    assert wide == plain
    schedule = part_schedule(plain, cfg)
    assert list(schedule.items()) == list(reference_schedule(plain, m, s + m).items())
    assert part_schedule(wide, cfg) == schedule
    assert all(type(n) is int for (mask, j), workers in schedule.items() for n in (mask, j, *workers))


@st.composite
def _basis_cases(draw):
    """A prime, evaluation points and polynomials with one root count,
    all drawn from one pool of distinct residues; a polynomial's one_at is
    never one of its roots, while a point may be."""
    p = draw(st.sampled_from([P31, P61]))
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10, unique=True))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    width = draw(st.integers(0, len(pool) - 1))
    one_at, roots = [], []
    for _ in range(draw(st.integers(1, 6))):
        drawn = draw(st.permutations(pool))
        one_at.append(drawn[0])
        roots.append(drawn[1 : width + 1])
    return p, points, one_at, roots


@settings(max_examples=100, deadline=None)
@given(case=_basis_cases())
# rows with no roots, the constant 1: encode at r = N with m = 1, and
# decode from one survivor
@example(case=(P31, [1, 2, 3], [P31 - 1], [[]]))
@example(case=(P61, [P61 - 1], [1], [[]]))
@example(case=(P61, [1, 2, P61 - 1], [P61 - 1, P61 - 2], [[1, 2], [2, P61 - 1]]))
def test_basis_values_equal_the_per_polynomial_reference(case):
    p, points, one_at, roots = case
    values = _basis_values(points, one_at, roots, p)
    assert values.dtype == (np.int64 if p < 1 << 31 else object)
    assert values.shape == (len(one_at), len(points))
    assert values.tolist() == reference_basis(points, one_at, roots, p)


def test_part_schedule_refuses_a_share_outside_its_class():
    # class {1, 2} with half on worker 3: that half would count in the class
    # total but deal no part-slot, leaving the schedule {(3, 1): (1,)}
    asg = LoadAssignment(n_workers=3, redundancy=1, shares={(1, 3): F(1, 2), (3, 3): F(1, 2)})
    with pytest.raises(StructureError, match="class 3 gives a share to worker 3"):
        part_schedule(asg, StragglerConfig(s=0, m=1))


def test_part_schedule_refuses_over_coverage():
    # at r = 2 worker 1 may hold at most half of class {1, 2}; 3/4 would give it
    # both part-slots of the class's one part
    asg = LoadAssignment(n_workers=2, redundancy=2, shares={(1, 3): F(3, 4), (2, 3): F(1, 4)})
    with pytest.raises(StructureError, match="class 3 coverage is not exactly 2 times its size"):
        part_schedule(asg, StragglerConfig(s=1, m=1))


def test_part_schedule_refuses_a_plan_for_another_redundancy():
    # an r = 1 plan under s = 1, m = 1 (r = 2): each worker's half of class
    # {1, 2} is a quota of one slot, so the schedule {(3, 1): (1, 2)} looks
    # whole, and one survivor would "decode" an aggregate from half a class
    asg = LoadAssignment(n_workers=2, redundancy=1, shares={(1, 3): F(1, 2), (2, 3): F(1, 2)})
    cfg = StragglerConfig(s=1, m=1)
    for run in (lambda: part_schedule(asg, cfg), lambda: encode(asg, cfg, {3: (5,)})):
        with pytest.raises(StructureError, match=r"covers each class 1 times, the code needs s \+ m = 2"):
            run()
    # the same shares at r = 2 are a valid plan
    asg = LoadAssignment(n_workers=2, redundancy=2, shares=asg.shares)
    assert part_schedule(asg, cfg) == {(3, 1): (1, 2)}


def test_part_schedule_refuses_a_negative_quota():
    # class {2, 3, 4} with shares 1/2, -1/2, -1/2: worker 2's quota would round to -1 slot
    asg = LoadAssignment(
        n_workers=4, redundancy=1, shares={(2, 14): F(1, 2), (3, 14): F(-1, 2), (4, 14): F(-1, 2)}
    )
    with pytest.raises(StructureError, match="class 14"):
        part_schedule(asg, StragglerConfig(s=0, m=1))
    # all shares negative: the quotas would be those of +2/3 each
    asg = LoadAssignment(n_workers=3, redundancy=2, shares={(n, 7): F(-2, 3) for n in (1, 2, 3)})
    with pytest.raises(StructureError, match="class 7 gives worker 1 a negative share"):
        part_schedule(asg, StragglerConfig(s=1, m=1))
    # the smallest negative unit, given as integers over one denominator
    asg = LoadAssignment(n_workers=2, redundancy=1, shares=UnitMap({(1, 3): 3, (2, 3): -1}, 2))
    with pytest.raises(StructureError, match="class 3 gives worker 2 a negative share -1/2"):
        part_schedule(asg, StragglerConfig(s=0, m=1))


class _Index:
    """An integer that Python knows only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_list_messages_convert_as_numpy_would():
    # list rows go through one int64 buffer; what it refuses falls back to
    # numpy's inference, which accepts or refuses exactly as before
    p = P31
    dtype = np.int64
    ints = _residues([[1, -2], [3, 4]], p, dtype)
    assert ints.dtype == np.int64 and ints.tolist() == [[1, p - 2], [3, 4]]
    # a float in the last row, after the buffer took the rows before it
    with pytest.raises(CodingConfigError, match="integers"):
        _residues([[1, 2], [3, 4], [5, 6.0]], p, dtype)
    with pytest.raises(CodingConfigError, match="integers"):
        _residues([[1, 2], ["3", 4]], p, dtype)
    # past int64: exact Python arithmetic
    assert _residues([[1 << 63, 1], [-(1 << 63) - 1, 2]], p, dtype).tolist() == [
        [(1 << 63) % p, 1], [(-(1 << 63) - 1) % p, 2]
    ]
    assert _residues([[np.int64(5), np.int64(-1)]], p, dtype).tolist() == [[5, p - 1]]
    assert _residues([[True, False], [2, True]], p, dtype).tolist() == [[1, 0], [2, 1]]
    assert _residues([[True, False]], p, dtype).tolist() == [[1, 0]]
    assert _residues([[], []], p, dtype).shape == (2, 0)
    assert _residues([], p, dtype).shape == (0,)
    # a type with __index__ is an integer on both paths
    for rows in ([[_Index(3), 2], [1, _Index(-1)]], [(_Index(3), 2), (1, _Index(-1))]):
        assert _residues(rows, p, dtype).tolist() == [[3, 2], [1, p - 1]]
        assert _residues(rows, (1 << 61) - 1, object).tolist() == [[3, 2], [1, (1 << 61) - 2]]
    # ragged rows are refused, even when their total would fill the shape
    with pytest.raises(ValueError, match="inhomogeneous"):
        _residues([[1, 2], [3], [4, 5, 6]], p, dtype)


# both ends of int64 and of uint64, and the field's own edge
_BOUNDARIES = (-(1 << 63) - 1, -1, 0, P31 - 1, P31, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64)


@st.composite
def _integer_rows(draw):
    """Equal-length list and tuple rows mixing the boundaries, other ints,
    booleans, numpy integers and an ``__index__`` type."""
    width = draw(st.integers(0, 6))
    element = st.one_of(
        st.sampled_from(_BOUNDARIES),
        st.integers(-(1 << 65), 1 << 65),
        st.booleans(),
        _INT64.map(np.int64),
        st.sampled_from(_BOUNDARIES).map(_Index),
    )
    return [
        draw(st.sampled_from([list, tuple]))(draw(st.lists(element, min_size=width, max_size=width)))
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=300, deadline=None)
@given(rows=_integer_rows(), bad=st.sampled_from([3.0, 0.5, "3"]), data=st.data())
@example(rows=[[-1, 1 << 63]], bad=3.0, data=None)
@example(rows=[(P31, -1), (1 << 63, 0)], bad="3", data=None)
def test_residues_equal_the_element_wise_reference(rows, bad, data):
    # the one integer-list reader takes exactly the rows that fit int64, each
    # sign through its own typecode, and _residues reduces whatever it reads
    values = [[operator.index(c) for c in row] for row in rows]
    read = int64_rows(rows)
    if all(-(1 << 63) <= v < 1 << 63 for row in values for v in row):
        assert read is not None and read.dtype == np.int64 and read.tolist() == values
    else:
        assert read is None
    got = _residues(rows, P31, np.int64)
    assert got.dtype == np.int64 and got.tolist() == [[v % P31 for v in row] for row in values]
    # past 2^31 the residues are Python integers, whichever way the rows were read;
    # 2^61 - 1 takes an int64 mod, the largest prime below 2^64 a Python one
    for p in (P61, P64):
        big = _residues(rows, p, object)
        assert big.dtype == object and big.shape == (len(rows), len(rows[0]))
        assert all(type(v) is int for v in big.flat)
        assert big.tolist() == [[v % p for v in row] for row in values]
    if data is not None and rows[0]:
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[0]) - 1))
        spoiled = [list(row) for row in rows]
        spoiled[i][j] = bad
        spoiled = [type(row)(new) for row, new in zip(rows, spoiled)]
        for p, dtype in ((P31, np.int64), (P61, object), (P64, object)):
            with pytest.raises(CodingConfigError, match="integers"):
                _residues(spoiled, p, dtype)


def test_encode_takes_list_messages_like_tuples():
    cfg = StragglerConfig(s=1, m=2)
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(100), F(100)))
    plan = redundant_assign(inst, profile_from_alpha(F(2), 3), cfg)
    covered = sorted({mask for _, mask in plan.assignment.shares})
    rows = {mask: [mask, 1 << 63, True, np.int64(-7)] for mask in covered}
    expected = encode(plan.assignment, cfg, {
        mask: tuple(int(v) % cfg.field_modulus for v in row) for mask, row in rows.items()
    })
    assert encode(plan.assignment, cfg, rows) == expected
    rows[covered[-1]] = [1, 2, 3, 4.0]
    with pytest.raises(CodingConfigError, match="integers"):
        encode(plan.assignment, cfg, rows)


@st.composite
def _measured_cases(draw):
    """A measured placement (N <= 7), speeds in storage order and r in 1..3."""
    n = draw(st.integers(1, 7))
    K = draw(st.integers(1, 24))
    M = draw(st.integers(0, K))
    per_worker = tuple(
        np.array(sorted(draw(st.permutations(range(K)))[:M]), dtype=np.int64)
        for _ in range(n)
    )
    speeds = draw(st.lists(st.sampled_from([F(1), F(3, 2), F(2), F(5)]), min_size=n, max_size=n))
    return ExplicitStorage(K=K, M=M, per_worker=per_worker), speeds, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(case=_measured_cases())
def test_integer_and_fraction_forms_agree(case):
    # exact_profile hands over dataset counts over K; the same classes given
    # as Fractions must give the same integers, so every flow is the same
    storage, speeds, r = case
    inst = ProblemInstance(K=storage.K, M=storage.M, speeds=speeds)
    counted = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    given = ClassProfile(n_workers=inst.N, class_sizes=dict(counted.classes))
    assert isinstance(counted.class_sizes, UnitMap)
    assert counted == given
    assert list(counted.classes.items()) == list(given.classes.items())
    assert counted.cumulative == given.cumulative
    assert dict(counted.classes.units) == dict(given.classes.units)
    assert counted.classes.denom == given.classes.denom
    flows = [flow_assign(inst, prof) for prof in (counted, given)]
    assert flows[0] == flows[1]
    assert list(flows[0][0].shares.items()) == list(flows[1][0].shares.items())
    if r > inst.N:
        return
    cfg = StragglerConfig(s=r - 1, m=1) if r % 2 else StragglerConfig(s=r - 2, m=2)
    plans = [redundant_assign(inst, prof, cfg) for prof in (counted, given)]
    assert plans[0] == plans[1]
    from_units = plans[0].assignment
    from_fractions = LoadAssignment(
        n_workers=inst.N, redundancy=r, shares=dict(from_units.shares)
    )
    assert isinstance(from_units.shares, UnitMap)
    assert from_units == from_fractions
    assert dict(from_units.shares) == dict(from_fractions.shares)
    assert from_units.per_worker_loads() == from_fractions.per_worker_loads()
    assert from_units.sorted_items() == from_fractions.sorted_items()
    schedule = part_schedule(from_units, cfg)
    assert part_schedule(from_fractions, cfg) == part_schedule(plans[1].assignment, cfg) == schedule
    messages = {mask: [mask, 2 * mask] for mask, _ in schedule}
    if messages:
        sent = encode(from_units, cfg, messages)
        assert encode(from_fractions, cfg, messages) == encode(plans[1].assignment, cfg, messages) == sent


@pytest.mark.parametrize("p, odd", [(P31, 0x7FFEFFFF), (7919, 7917)])
@pytest.mark.parametrize("terms", [1, 63, 64, 65, 129])
def test_field_combine_is_exact_at_its_bound(p, odd, terms):
    # every coefficient and residue at p - 1, the largest products; then odd
    # coefficients (low limb 0xFFFF at P31) against odd residues, whose sums
    # past 2^53 float64 cannot hold
    top = p - 1
    for coef, residue in ((top, top), (odd, p - 2)):
        rows = np.full((terms, 3), residue, dtype=np.int64)
        expected = [sum(coef * residue for _ in range(terms)) % p] * 3
        assert _field_combine(np.full(terms, coef, dtype=np.int64), rows, p).tolist() == expected
        assert _field_combine(np.full((4, terms), coef, dtype=np.int64), rows, p).tolist() == [expected] * 4
    # exact Python integers past 2^31
    top = P61 - 1
    rows = np.full((terms, 2), top, dtype=object)
    expected = [terms * top * top % P61] * 2
    assert _field_combine(np.full((2, terms), top, dtype=object), rows, P61).tolist() == [expected] * 2
    assert _field_combine(np.full(terms, top, dtype=object), rows, P61).tolist() == expected


def test_encode_takes_class_chunks_past_64_columns():
    # N = 8 at s = 1, m = 2 puts 64 classes of 2 parts, 128 coefficient columns,
    # into one field product; the Hypothesis property stays below that size
    storage = generate_decentralized(1440, 720, 8, seed=7)
    inst = ProblemInstance(K=1440, M=720, speeds=[F(n) for n in range(1, 9)])
    cfg = StragglerConfig(s=1, m=2)
    plan = redundant_assign(inst, exact_profile(storage), cfg)
    schedule = sorted(part_schedule(plan.assignment, cfg).items())
    covered = sorted({mask for (mask, _), _ in schedule})
    assert len(covered) > 64
    rng = random.Random(7)
    p = cfg.field_modulus
    messages = {mask: [rng.randrange(-p, 2 * p) for _ in range(6)] for mask in covered}
    transmissions = encode(plan.assignment, cfg, messages)
    for t in transmissions:
        assert t.coded_vector == reference_vector(t, messages, p, 3)
        assert list(t.encoding_row) == [part for part, workers in schedule if t.vm_index in workers]
    expected = tuple(sum(v[i] for v in messages.values()) % p for i in range(6))
    assert decode(transmissions[1:], cfg, 8) == expected
