import math
import random
from fractions import Fraction as F

import pytest

from dusec.model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    ProfileMode,
    StructureError,
    as_fraction,
    iter_class_masks,
    iter_submasks,
    mask_of,
    validate,
    workers_of,
)
from dusec.storage import profile_from_alpha


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 5
    assert workers_of(5) == (1, 3)
    for n in range(1, 7):
        for mask in iter_class_masks(n):
            assert mask_of(workers_of(mask)) == mask


def test_iter_class_masks_covers_all_nonempty():
    masks = list(iter_class_masks(4))
    assert len(masks) == 15
    assert min(masks) == 1 and max(masks) == 15


def test_iter_submasks():
    subs = set(iter_submasks(0b101))
    assert subs == {0b000, 0b001, 0b100, 0b101}
    for mask in range(64):
        assert len(list(iter_submasks(mask))) == 1 << mask.bit_count()


def test_as_fraction():
    assert as_fraction("1/2") == F(1, 2)
    assert as_fraction(3) == F(3)
    assert as_fraction(F(7, 5)) == F(7, 5)
    with pytest.raises(StructureError):
        as_fraction(0.5)  # silent binary rounding is never wanted here


def test_instance_validation():
    with pytest.raises(StructureError):
        ProblemInstance(K=0, M=0, speeds=(F(1),))
    with pytest.raises(StructureError):
        ProblemInstance(K=4, M=5, speeds=(F(1),))
    with pytest.raises(StructureError):
        ProblemInstance(K=4, M=-1, speeds=(F(1),))
    with pytest.raises(StructureError):
        ProblemInstance(K=4, M=2, speeds=())
    with pytest.raises(StructureError):
        ProblemInstance(K=4, M=2, speeds=(F(1), F(0)))
    with pytest.raises(StructureError):
        ProblemInstance(K=4, M=2, speeds=(1.5, 2.0))


def test_speed_sorting_roundtrip():
    inst = ProblemInstance(K=16, M=8, speeds=(F(5), F(1), F(2), F(5)))
    assert inst.speeds == (F(1), F(2), F(5), F(5))
    assert inst.original_speeds() == (F(5), F(1), F(2), F(5))
    # stable: equal speeds keep their input order
    assert inst.source_order[2] != inst.source_order[3]


def test_alpha_beta():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    assert inst.alpha == F(2)
    assert inst.beta == F(1, 16)
    assert inst.prefix_speed_sums() == (F(0), F(1), F(3), F(8), F(13))
    full = ProblemInstance(K=4, M=4, speeds=(F(1), F(1)))
    assert full.alpha is None
    assert full.beta == 0
    empty = ProblemInstance(K=4, M=0, speeds=(F(1), F(1)))
    assert empty.alpha == 1
    assert empty.beta == 1


def test_from_alpha():
    inst = ProblemInstance.from_alpha(F(3, 2), (F(1), F(3), F(9)))
    assert (inst.K, inst.M) == (3, 1)
    assert inst.alpha == F(3, 2)
    degenerate = ProblemInstance.from_alpha(F(1), (F(1),))
    assert (degenerate.K, degenerate.M) == (1, 0)
    with pytest.raises(StructureError):
        ProblemInstance.from_alpha(F(1, 2), (F(1),))


def test_profile_cumulative_binomial_identity():
    # summing the per-cardinality class sizes over all subsets of the n
    # slowest workers must reproduce the closed-form cumulative mass
    for alpha in (F(3, 2), F(2), F(3)):
        for n_workers in range(1, 7):
            prof = profile_from_alpha(alpha, n_workers)
            beta = prof.beta
            for n in range(n_workers + 1):
                total = sum(
                    math.comb(n, k) * beta * (alpha - 1) ** k for k in range(1, n + 1)
                )
                assert prof.cumulative[n] == total
                assert prof.cumulative[n] == beta * (alpha**n - 1)


def test_profile_cardinality_only():
    prof = profile_from_alpha(F(2), 4)
    for mask in iter_class_masks(4):
        assert prof.a(mask) == F(1, 16)


def test_degenerate_full_storage_profile():
    prof = profile_from_alpha(None, 3)
    assert prof.a(0b111) == 1
    assert prof.a(0b011) == 0
    assert prof.cumulative == (F(0), F(0), F(0), F(1))


def test_zero_storage_profile():
    prof = profile_from_alpha(F(1), 3)
    assert all(prof.a(mask) == 0 for mask in iter_class_masks(3))
    assert prof.cumulative == (F(0), F(0), F(0), F(0))


def test_formula_profile_is_n_and_alpha():
    prof = ClassProfile(n_workers=3, alpha=F(2))
    ref = profile_from_alpha(F(2), 3)
    assert prof.mode is ProfileMode.ASYMPTOTIC
    assert [prof.a(m) for m in iter_class_masks(3)] == [ref.a(m) for m in iter_class_masks(3)]
    assert dict(prof.classes) == dict(ref.classes) == {m: F(1, 8) for m in iter_class_masks(3)}
    assert prof.cumulative == ref.cumulative == (F(0), F(1, 8), F(3, 8), F(7, 8))
    assert ClassProfile(n_workers=3, alpha="5/2").alpha == F(5, 2)
    for bad in ({"alpha": 2.0}, {"alpha": F(1, 2)}, {"alpha": F(2), "class_sizes": {1: F(1)}}):
        with pytest.raises(StructureError):
            ClassProfile(n_workers=3, **bad)
    # sizes are derived from alpha, so they cannot be passed in to disagree with it
    with pytest.raises(TypeError):
        ClassProfile(n_workers=3, sizes_by_card=(F(0), F(1, 3), F(0), F(0)))


def test_exact_profile_checks_its_class_table():
    for bad in ({0: F(1, 2)}, {4: F(1, 2)}, {1: F(-1, 2)}, {1: 0.5}):
        with pytest.raises(StructureError):
            ClassProfile(n_workers=2, class_sizes=bad)  # masks of N = 2 are 1..3
    prof = ClassProfile(n_workers=2, class_sizes={3: "1/4", 2: F(0), 1: F(3, 4)})
    assert dict(prof.class_sizes) == {1: F(3, 4), 3: F(1, 4)}  # zero sizes are dropped
    assert list(prof.classes) == [1, 3]  # ascending by mask
    assert prof.mode is ProfileMode.EXACT
    assert prof.a(2) == 0 and prof.a(3) == F(1, 4)
    assert prof.cumulative == (F(0), F(3, 4), F(1))


def test_assignment_accessors():
    shares = {(1, 1): F(1, 8), (2, 3): F(1, 8), (2, 2): F(0), (1, 3): F(1, 16)}
    asg = LoadAssignment(n_workers=2, redundancy=1, shares=shares)
    assert asg.share(2, 2) == 0  # zero shares are dropped
    assert (2, 2) not in asg.shares
    assert asg.per_worker_loads() == (F(3, 16), F(1, 8))
    assert asg.class_totals() == {1: F(1, 8), 3: F(3, 16)}
    obj = asg.to_json_obj()
    assert {"n": 1, "classMask": 1, "share": "1/8"} in obj
    assert all(set(item) == {"n", "classMask", "share"} for item in obj)


def _half_storage_fleet():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    return inst, profile_from_alpha(F(2), 4)


def _fraction_table_assignment():
    """Hand-checked optimal split for speeds (1,2,5,5) at half storage,
    given as the fraction of each class routed to each worker."""
    q = F  # per-class fractions, exact decimals
    table = {
        0b0001: {1: q(1)},
        0b0010: {2: q(1)},
        0b0100: {3: q(1)},
        0b1000: {4: q(1)},
        0b0011: {2: q(1)},
        0b0101: {1: q(616, 10000), 3: q(9384, 10000)},
        0b1001: {1: q(616, 10000), 4: q(9384, 10000)},
        0b0110: {2: q(616, 10000), 3: q(9384, 10000)},
        0b1010: {2: q(616, 10000), 4: q(9384, 10000)},
        0b0111: {2: q(616, 10000), 3: q(9384, 10000)},
        0b1011: {2: q(616, 10000), 4: q(9384, 10000)},
        0b1100: {3: q(1, 2), 4: q(1, 2)},
        0b1101: {1: q(308, 10000), 3: q(4846, 10000), 4: q(4846, 10000)},
        0b1110: {2: q(308, 10000), 3: q(4846, 10000), 4: q(4846, 10000)},
        0b1111: {2: q(308, 10000), 3: q(4846, 10000), 4: q(4846, 10000)},
    }
    size = F(1, 16)
    shares = {
        (n, mask): frac * size
        for mask, row in table.items()
        for n, frac in row.items()
    }
    return LoadAssignment(n_workers=4, redundancy=1, shares=shares)


def test_validate_accepts_fraction_table():
    inst, prof = _half_storage_fleet()
    asg = _fraction_table_assignment()
    assert validate(inst, prof, asg) == []


def test_validate_zero_assignment_reports_every_class():
    inst, prof = _half_storage_fleet()
    empty = LoadAssignment(n_workers=4, redundancy=1, shares={})
    violations = validate(inst, prof, empty)
    assert len(violations) == 15
    assert all(v.kind == "coverage" for v in violations)


def test_validate_flags_single_perturbation():
    inst, prof = _half_storage_fleet()
    base = _fraction_table_assignment()
    rng = random.Random(7)
    keys = sorted(base.shares)
    for _ in range(20):
        n, mask = keys[rng.randrange(len(keys))]
        shares = dict(base.shares)
        shares[(n, mask)] += prof.a(mask) / 2
        bumped = LoadAssignment(n_workers=4, redundancy=1, shares=shares)
        violations = validate(inst, prof, bumped)
        kinds = sorted(v.kind for v in violations)
        # the bumped class breaks coverage; the share itself may also
        # exceed the per-class cap depending on its original value
        assert "coverage" in kinds
        assert all(v.class_mask == mask for v in violations)
        assert len(violations) <= 2


def test_validate_domain_violation():
    inst, prof = _half_storage_fleet()
    asg = LoadAssignment(n_workers=4, redundancy=1, shares={(2, 0b0101): F(1, 16)})
    kinds = {v.kind for v in validate(inst, prof, asg)}
    assert "domain" in kinds


def test_validate_reports_load_on_an_empty_class():
    # class 0b10 is empty: a share of it breaks both its cap and its coverage
    inst = ProblemInstance(K=2, M=1, speeds=(F(1), F(1)))
    prof = ClassProfile(n_workers=2, class_sizes={0b11: F(1, 2)})
    asg = LoadAssignment(n_workers=2, redundancy=1, shares={(1, 0b11): F(1, 2), (2, 0b10): F(1, 4)})
    violations = validate(inst, prof, asg)
    assert [(v.kind, v.worker, v.class_mask) for v in violations] == [
        ("bounds", 2, 0b10),
        ("coverage", None, 0b10),
    ]


def test_validate_shape_mismatch_raises():
    inst, prof = _half_storage_fleet()
    other = LoadAssignment(n_workers=3, redundancy=1, shares={})
    with pytest.raises(StructureError):
        validate(inst, prof, other)
