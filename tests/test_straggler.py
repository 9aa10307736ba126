import random
import struct
from fractions import Fraction as F
from itertools import combinations

import pytest

from dusec.model import (
    LoadAssignment,
    ProblemInstance,
    StructureError,
    workers_of,
)
from dusec.optimizer import assign_loads
from dusec.storage import exact_profile, generate_decentralized, profile_from_alpha
from dusec.straggler import (
    DEFAULT_FIELD_MODULUS,
    CodingConfigError,
    InsufficientResponses,
    StragglerConfig,
    decode,
    deserialize_transmission,
    encode,
    part_schedule,
    recompute_transmission,
    redundant_assign,
    serialize_transmission,
)


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
            assert asg.share(n, pair) == F(1, 8)
    assert asg.share(1, 0b111) == 0
    assert asg.share(2, 0b111) == F(1, 8)
    assert asg.share(3, 0b111) == F(1, 8)


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
                expected = cfg.m * plan.assignment.share(n, mask) / size
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
            assert recompute_transmission(t, cfg, messages) == t.coded_vector
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


def test_small_modulus_rejected():
    # 4 workers + 1 anchor cannot all get distinct points mod 5
    cfg = StragglerConfig(s=0, m=1, field_modulus=5)
    shares = {(n, 0b1111): F(1, 4) for n in range(1, 5)}
    asg = LoadAssignment(n_workers=4, redundancy=1, shares=shares)
    with pytest.raises(CodingConfigError):
        encode(asg, cfg, {0b1111: (1,)})


def test_serialization_layout_and_roundtrip():
    cfg = StragglerConfig(s=1, m=1)
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(3)))
    prof = profile_from_alpha(F(2), 3)
    plan = redundant_assign(inst, prof, cfg)
    covered = sorted(m for m, t in plan.assignment.class_totals().items() if t > 0)
    messages = {mask: (mask * 7, mask * 11) for mask in covered}
    ts = encode(plan.assignment, cfg, messages)
    blob = serialize_transmission(ts[1], cfg)
    expected = struct.pack(
        "<IQQ", ts[1].vm_index, len(ts[1].coded_vector), cfg.field_modulus
    ) + b"".join(struct.pack("<Q", e) for e in ts[1].coded_vector)
    assert blob == expected
    back, modulus = deserialize_transmission(blob)
    assert modulus == cfg.field_modulus
    assert back.vm_index == ts[1].vm_index
    assert back.coded_vector == ts[1].coded_vector
    assert back.encoding_row is None
    with pytest.raises(StructureError):
        recompute_transmission(back, cfg, messages)
    with pytest.raises(StructureError):
        deserialize_transmission(blob[:10])
    with pytest.raises(StructureError):
        deserialize_transmission(blob + b"\x00" * 8)
    # parsed transmissions decode like the originals
    parsed = [deserialize_transmission(serialize_transmission(t, cfg))[0] for t in ts]
    expected_sum = _sum_mod(messages, 2, cfg.field_modulus)
    assert decode(parsed[:2], cfg, 3) == expected_sum
