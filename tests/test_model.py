import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from dusec.model import (
    ClassProfile,
    LoadAssignment,
    ProblemInstance,
    ProfileMode,
    StructureError,
    UnitMap,
    as_fraction,
    iter_class_masks,
    iter_submasks,
    mask_of,
    over_one_denominator,
    validate,
    workers_of,
)
from dusec.optimizer import assign_loads, optimal_time
from dusec.oracle import flow_assign, lp_oracle
from dusec.storage import exact_profile, generate_decentralized, profile_from_alpha
from dusec.straggler import StragglerConfig, redundant_assign


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 5
    assert workers_of(5) == (1, 3)
    for n in range(1, 7):
        for mask in iter_class_masks(n):
            assert mask_of(workers_of(mask)) == mask
    for workers in ([0], [2, 0], [-1]):
        with pytest.raises(StructureError, match=r"worker index -?\d out of range \(workers are 1-based\)"):
            mask_of(workers)


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
    for bad in (True, False, "3/0", "0/0"):
        with pytest.raises(StructureError):
            as_fraction(bad)  # a JSON boolean is no number; n/0 is no rational


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
    # counts must be integers; a float or a boolean count is refused, not compared
    with pytest.raises(StructureError, match="K must be an integer, got 4.0"):
        ProblemInstance(K=4.0, M=2, speeds=(F(1),))
    with pytest.raises(StructureError, match="K must be an integer, got True"):
        ProblemInstance(K=True, M=0, speeds=(F(1),))
    with pytest.raises(StructureError, match="M must be an integer, got 2.0"):
        ProblemInstance(K=4, M=2.0, speeds=(F(1),))
    # the sort computes source_order; a value passed in would be overwritten
    with pytest.raises(TypeError, match="source_order"):
        ProblemInstance(K=4, M=2, speeds=(F(2), F(1)), source_order=(0, 1))


def test_speed_sorting_roundtrip():
    given = (F(5), F(1), F(2), F(5))
    inst = ProblemInstance(K=16, M=8, speeds=given)
    assert inst.speeds == (F(1), F(2), F(5), F(5))
    assert tuple(given[i] for i in inst.source_order) == inst.speeds
    # stable: equal speeds keep their input order
    assert inst.source_order == (1, 2, 0, 3)
    assert repr(inst) == (
        "ProblemInstance(K=16, M=8, speeds=(Fraction(1, 1), Fraction(2, 1), Fraction(5, 1), "
        "Fraction(5, 1)), source_order=(1, 2, 0, 3))"
    )
    assert inst == ProblemInstance(K=16, M=8, speeds=given)
    assert inst != ProblemInstance(K=16, M=8, speeds=(F(5), F(5), F(1), F(2)))


def test_alpha_beta():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    assert inst.alpha == F(2)
    assert profile_from_alpha(inst.alpha, inst.N).beta == F(1, 16)
    assert inst.prefix_speed_units == ((0, 1, 3, 8, 13), 1)
    full = ProblemInstance(K=4, M=4, speeds=(F(1), F(1)))
    assert full.alpha is None
    assert profile_from_alpha(full.alpha, full.N).beta == 0
    empty = ProblemInstance(K=4, M=0, speeds=(F(1), F(1)))
    assert empty.alpha == 1
    assert profile_from_alpha(empty.alpha, empty.N).beta == 1
    # nothing is stored, so the class map is empty even where 2^N is too many
    assert dict(profile_from_alpha(empty.alpha, 40).classes) == {}
    with pytest.raises(StructureError, match="2\\^23 classes"):
        profile_from_alpha(F(2), 23).classes


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
    # the empty set and sets past worker N are no class, on either profile mode
    measured = ClassProfile(n_workers=4, class_sizes={1: F(1)})
    for profile in (prof, measured):
        for mask in (0, 16, -1):
            with pytest.raises(StructureError, match=f"^class mask {mask} out of range for N=4$"):
                profile.a(mask)


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
    # a float or boolean worker count is refused, not run as a range bound or as N = 1
    for n in (2.0, True):
        with pytest.raises(StructureError, match=f"n_workers must be an integer, got {n}"):
            ClassProfile(n_workers=n, alpha=2)
    # sizes are derived from alpha, so they cannot be passed in to disagree with it
    with pytest.raises(TypeError):
        ClassProfile(n_workers=3, sizes_by_card=(F(0), F(1, 3), F(0), F(0)))


def test_formula_class_map_is_one_numerator_per_cardinality():
    # the integer map is built once, from the N + 1 sizes by cardinality
    for alpha in (F(3, 2), F(2), F(5, 2), F(3)):
        for n in range(1, 9):
            prof = profile_from_alpha(alpha, n)
            by_card, denom = over_one_denominator(prof.sizes_by_card)
            classes = prof.classes
            assert isinstance(classes, UnitMap) and classes.denom == denom
            assert list(classes.units) == list(iter_class_masks(n))
            assert all(classes.units[m] == by_card[m.bit_count()] for m in iter_class_masks(n))
            # read as a map, the sizes are the exact Fractions a() gives
            assert dict(classes) == {m: prof.a(m) for m in iter_class_masks(n)}
    empty = profile_from_alpha(F(1), 5).classes
    assert isinstance(empty, UnitMap) and (dict(empty.units), empty.denom) == ({}, 1)
    full = profile_from_alpha(None, 5).classes
    assert isinstance(full, UnitMap) and (dict(full.units), full.denom) == ({0b11111: 1}, 1)


def test_formula_profile_integer_form_matches_the_law():
    # sizes, beta and L(n) come from integers over p^N (alpha = p/q); read
    # back, they are beta*(alpha-1)^k and beta*(alpha^k - 1) taken in Fractions
    for alpha in (F(1), None, F(11, 10), F(3, 2), F(2), F(7, 3), F(13, 4), F(101, 100)):
        for n in range(1, 61):
            prof = profile_from_alpha(alpha, n)
            if alpha is None:
                only_full = tuple(F(k == n) for k in range(n + 1))
                assert (prof.sizes_by_card, prof.beta, prof.cumulative) == (only_full, 0, only_full)
                if n <= 10:
                    assert (dict(prof.classes.units), prof.classes.denom) == ({(1 << n) - 1: 1}, 1)
                continue
            beta = (1 / alpha) ** n
            assert prof.beta == beta
            assert prof.sizes_by_card == tuple(beta * (alpha - 1) ** k for k in range(n + 1))
            assert prof.cumulative == tuple(beta * (alpha**k - 1) for k in range(n + 1))
            if n <= 10:
                p, q = alpha.numerator, alpha.denominator
                classes = prof.classes
                assert classes.denom == prof.cumulative_units[1] == p**n
                for mask, unit in classes.units.items():
                    k = mask.bit_count()
                    assert unit == q ** (n - k) * (p - q) ** k, (alpha, n, mask)
                assert len(classes.units) == (0 if alpha == 1 else (1 << n) - 1)


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
    assert prof.beta is None and prof.sizes_by_card is None  # formula-profile reads


def test_profile_from_counts_checks_on_integers():
    # counts over a total: the same checks as Fractions, then divided by
    # their gcd with the total
    for bad in ({0: 1}, {4: 1}, {1: -1}):
        with pytest.raises(StructureError):
            ClassProfile(n_workers=2, class_sizes=UnitMap(bad, 4))
    for denom in (0, -4, 4.0, True):
        with pytest.raises(StructureError, match="denominator"):
            UnitMap({1: 1}, denom)
    for unit in (1.0, True, F(1), np.int64(1)):
        with pytest.raises(StructureError, match="numerators must be Python integers"):
            ClassProfile(n_workers=2, class_sizes=UnitMap({1: unit}, 4))
        with pytest.raises(StructureError, match="numerators must be Python integers"):
            LoadAssignment(n_workers=2, redundancy=1, shares=UnitMap({(1, 1): unit}, 4))
    prof = ClassProfile(n_workers=2, class_sizes=UnitMap({3: 2, 2: 0, 1: 6}, 16))
    assert dict(prof.class_sizes.units) == {1: 3, 3: 1} and prof.class_sizes.denom == 8
    assert list(prof.classes) == [1, 3] and 2 not in prof.classes
    assert dict(prof.classes) == {1: F(3, 8), 3: F(1, 8)}
    assert list(prof.classes.values()) == [F(3, 8), F(1, 8)]
    assert prof == ClassProfile(n_workers=2, class_sizes={1: F(3, 8), 3: F(1, 8)})
    assert prof.cumulative == (F(0), F(3, 8), F(1, 2))
    assert ClassProfile(n_workers=2, class_sizes=UnitMap({}, 5)).classes.denom == 1
    # the first mask out of range in ascending order is named
    with pytest.raises(StructureError, match="class mask 8 out of range for N=3"):
        ClassProfile(n_workers=3, class_sizes=UnitMap({16: 1, 1: 1, 8: 1}, 4))


def test_fraction_input_is_kept_as_integers_too():
    # sizes and shares given as Fractions are stored as the solvers' are:
    # integers over their least common denominator
    prof = ClassProfile(n_workers=2, class_sizes={3: "1/6", 2: 0, 1: F(1, 4)})
    assert isinstance(prof.class_sizes, UnitMap)
    assert dict(prof.class_sizes.units) == {1: 3, 3: 2} and prof.class_sizes.denom == 12
    assert prof.classes is prof.class_sizes
    asg = LoadAssignment(n_workers=2, redundancy=1, shares={(2, 3): F(1, 6), (1, 1): "1/4"})
    assert isinstance(asg.shares, UnitMap)
    assert dict(asg.shares.units) == {(2, 3): 2, (1, 1): 3} and asg.shares.denom == 12
    assert dict(asg.shares) == {(2, 3): F(1, 6), (1, 1): F(1, 4)}


def test_assignment_from_units_checks_on_integers():
    with pytest.raises(StructureError, match=r"share worker 3 out of range 1\.\.2"):
        LoadAssignment(n_workers=2, redundancy=1, shares=UnitMap({(3, 1): 1}, 2))
    with pytest.raises(StructureError, match="share class mask 4 out of range for N=2"):
        LoadAssignment(n_workers=2, redundancy=1, shares=UnitMap({(1, 4): 1}, 2))
    units = {(1, 1): 2, (2, 3): 2, (2, 2): 0, (1, 3): 1}
    asg = LoadAssignment(n_workers=2, redundancy=1, shares=UnitMap(units, 16))
    assert list(asg.shares) == [(1, 1), (2, 3), (1, 3)]  # zero shares dropped, order kept
    assert asg.shares.denom == 16
    assert asg == LoadAssignment(
        n_workers=2, redundancy=1, shares={(1, 1): F(1, 8), (2, 3): F(1, 8), (1, 3): F(1, 16)}
    )
    assert asg.per_worker_loads() == (F(3, 16), F(1, 8))
    assert asg.sorted_items() == [(1, 1, F(1, 8)), (1, 3, F(1, 16)), (2, 3, F(1, 8))]


def test_assignment_refuses_bad_shapes():
    with pytest.raises(StructureError, match="redundancy must be >= 1"):
        LoadAssignment(n_workers=2, redundancy=0, shares={})
    # counts must be integers: a fractional or boolean r is no number of copies
    for r in (1.5, True):
        with pytest.raises(StructureError, match=f"redundancy must be an integer, got {r}"):
            LoadAssignment(n_workers=2, redundancy=r, shares={})
    with pytest.raises(StructureError, match="n_workers must be an integer, got True"):
        LoadAssignment(n_workers=True, redundancy=1, shares={})
    inst = ProblemInstance.from_alpha(2, (1, 2))
    for solve in (flow_assign, lp_oracle):
        for r in (1.5, True):
            with pytest.raises(StructureError, match=f"redundancy must be an integer, got {r}"):
                solve(inst, profile_from_alpha(2, 2), redundancy=r)
    with pytest.raises(StructureError, match=r"share worker 3 out of range 1\.\.2"):
        LoadAssignment(n_workers=2, redundancy=1, shares={(3, 1): F(1)})
    with pytest.raises(StructureError, match=r"share worker 0 out of range"):
        LoadAssignment(n_workers=2, redundancy=1, shares={(0, 1): F(1)})
    for mask in (0, 4):
        with pytest.raises(StructureError, match=f"share class mask {mask} out of range for N=2"):
            LoadAssignment(n_workers=2, redundancy=1, shares={(1, mask): F(1)})


def test_assignment_accessors():
    shares = {(1, 1): F(1, 8), (2, 3): F(1, 8), (2, 2): F(0), (1, 3): F(1, 16)}
    asg = LoadAssignment(n_workers=2, redundancy=1, shares=shares)
    assert asg.shares.get((2, 2), 0) == 0  # zero shares are dropped
    assert (2, 2) not in asg.shares
    assert asg.per_worker_loads() == (F(3, 16), F(1, 8))
    assert asg.per_worker_loads() is asg.per_worker_loads()  # summed once
    assert asg.class_totals() == {1: F(1, 8), 3: F(3, 16)}


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


@pytest.mark.parametrize(
    "solve",
    [
        optimal_time,
        assign_loads,
        flow_assign,
        lp_oracle,
        lambda inst, prof: redundant_assign(inst, prof, StragglerConfig(s=0, m=1)),
        lambda inst, prof: validate(inst, prof, LoadAssignment(n_workers=4, redundancy=1, shares={})),
    ],
)
def test_profile_for_another_worker_count_is_refused(solve):
    inst, _ = _half_storage_fleet()
    for prof in (profile_from_alpha(F(2), 3), exact_profile(generate_decentralized(16, 8, 5, seed=1))):
        with pytest.raises(StructureError, match="profile covers [35] workers, instance has 4"):
            solve(inst, prof)
