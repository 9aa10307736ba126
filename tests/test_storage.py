import hashlib
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from storage_reference import all_last, chain, reference_subset

from dusec.model import ProblemInstance, StructureError, iter_class_masks
from dusec.storage import (
    ExplicitStorage,
    _sample_subset,
    _worker_rng,
    exact_profile,
    generate_decentralized,
    generate_worker_subset,
    profile_from_alpha,
)


def test_subset_is_deterministic_and_well_formed():
    for seed in range(10):
        a = generate_worker_subset(100, 37, seed)
        b = generate_worker_subset(100, 37, seed)
        assert np.array_equal(a, b)
        assert len(a) == 37
        assert len(np.unique(a)) == 37
        assert a.min() >= 0 and a.max() < 100
        assert np.array_equal(a, np.sort(a))
    assert not np.array_equal(
        generate_worker_subset(100, 37, 0), generate_worker_subset(100, 37, 1)
    )


@pytest.mark.parametrize(
    "seed, message",
    [
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (None, "seed must be an integer, got None"),
        (-1, "seed must be >= 0, got -1"),
    ],
)
def test_generators_refuse_a_seed_that_is_not_a_non_negative_integer(seed, message):
    # a string or boolean seed used to be drawn from and written into storage
    # that its own from_json_obj refuses; the others failed inside numpy
    for generate in (
        lambda: generate_decentralized(10, 4, 3, seed=seed),
        lambda: generate_worker_subset(10, 4, seed),
    ):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            generate()
    # 0 is the smallest seed, and what the generators write their own reader takes
    assert ExplicitStorage.from_json_obj(generate_decentralized(10, 4, 3, seed=0).to_json_obj()).seed == 0


def test_fleet_growth_keeps_existing_storage():
    # adding workers must not reshuffle what earlier workers hold
    small = generate_decentralized(60, 20, 3, seed=5)
    big = generate_decentralized(60, 20, 7, seed=5)
    for i in range(3):
        assert np.array_equal(small.per_worker[i], big.per_worker[i])


def test_generate_decentralized_shapes():
    storage = generate_decentralized(40, 15, 4, seed=2)
    assert storage.n_workers == 4
    assert storage.K == 40 and storage.M == 15
    for arr in storage.per_worker:
        assert len(arr) == 15


def test_storage_validation():
    ok = np.arange(3, dtype=np.int64)
    with pytest.raises(StructureError):
        ExplicitStorage(K=10, M=4, per_worker=(ok,))  # wrong size
    with pytest.raises(StructureError):
        ExplicitStorage(K=2, M=3, per_worker=(np.arange(3, dtype=np.int64),))
    with pytest.raises(StructureError):
        ExplicitStorage(
            K=10, M=3, per_worker=(np.array([0, 1, 10], dtype=np.int64),)
        )
    with pytest.raises(StructureError):
        ExplicitStorage(
            K=10, M=3, per_worker=(np.array([0, 1, 1], dtype=np.int64),)
        )
    # no datasets at all: ProblemInstance and scenarios refuse K = 0 too
    with pytest.raises(StructureError, match="K must be >= 1"):
        ExplicitStorage(K=0, M=0, per_worker=(np.empty(0, dtype=np.int64),))
    with pytest.raises(StructureError, match="K must be >= 1"):
        generate_decentralized(0, 0, 2)
    with pytest.raises(StructureError, match="storage needs at least one worker"):
        ExplicitStorage(K=10, M=3, per_worker=())
    with pytest.raises(StructureError, match="N must be >= 1"):
        generate_decentralized(10, 3, 0)
    with pytest.raises(StructureError, match="^M must be >= 0, got -1$"):
        generate_decentralized(10, -1, 2)
    with pytest.raises(StructureError, match=r"^M must lie in \[0, K\]; got M=11, K=10$"):
        generate_decentralized(10, 11, 2)
    # a placement's seed is None or what the generators take: an int >= 0
    for seed, message in (("x", "seed must be an integer, got 'x'"), (-1, "seed must be >= 0, got -1")):
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            ExplicitStorage(K=4, M=2, per_worker=(np.array([0, 3]),), seed=seed)
    # counts must be integers: booleans and floats are refused too
    for build, message in (
        (lambda: ExplicitStorage(K=4.5, M=0, per_worker=(np.empty(0, dtype=np.int64),)), "K"),
        (lambda: ExplicitStorage(K=True, M=0, per_worker=(np.empty(0, dtype=np.int64),)), "K"),
        (lambda: generate_decentralized(10.0, 5, 2), "K"),
        (lambda: generate_worker_subset(10, 5.0, 1), "M"),
        (lambda: generate_decentralized(10, 5, 2.0), "N"),
        (lambda: generate_decentralized(10, 5, True), "N"),
    ):
        with pytest.raises(StructureError, match=f"{message} must be an integer"):
            build()


def test_storage_refuses_arrays_that_are_not_integers():
    # a float or boolean array would be written out as other datasets by
    # to_json_obj, and fails class_index with a bare IndexError
    for bad in (np.array([0.5, 1.5]), np.array([0.0, 1.0]), np.array([False, True]),
                [0, 1], np.array([[0, 1]])):
        with pytest.raises(StructureError, match="1-D integer array of dataset indices"):
            ExplicitStorage(K=4, M=2, per_worker=(bad, np.array([0, 1])))
    storage = ExplicitStorage(K=4, M=2, per_worker=(np.array([1, 3], dtype=np.uint8),))
    per_vm = storage.to_json_obj()["perVm"]
    assert per_vm == [[1, 3]] and all(type(d) is int for d in per_vm[0])


def test_exact_profile_matches_set_arithmetic():
    storage = generate_decentralized(30, 11, 4, seed=7)
    prof = exact_profile(storage)
    sets = [set(arr.tolist()) for arr in storage.per_worker]
    for mask in iter_class_masks(4):
        members = [i for i in range(4) if mask & (1 << i)]
        others = [i for i in range(4) if not mask & (1 << i)]
        datasets = set.intersection(*(set(sets[i]) for i in members))
        for i in others:
            datasets -= sets[i]
        assert prof.a(mask) == F(len(datasets), 30)
    # cumulative mass counts datasets held only by the first n workers:
    # nobody else can compute those, which is what the prefix bound needs
    for n in range(5):
        exclusive = sum(
            1
            for d in range(30)
            if any(d in sets[i] for i in range(n))
            and all(d not in sets[i] for i in range(n, 4))
        )
        assert prof.cumulative[n] == F(exclusive, 30)


def test_class_counts_total():
    storage = generate_decentralized(50, 20, 5, seed=1)
    counts = storage.class_counts()
    assert counts.sum() == 50
    assert len(counts) == 32


def test_asymptotic_profile_values():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    prof = profile_from_alpha(inst.alpha, inst.N)
    for mask in iter_class_masks(4):
        assert prof.a(mask) == F(1, 16)
    assert prof.cumulative == (F(0), F(1, 16), F(3, 16), F(7, 16), F(15, 16))


def test_profile_from_alpha_matches_instance():
    inst = ProblemInstance.from_alpha(F(5, 2), (F(1), F(2), F(3)))
    assert profile_from_alpha(F(5, 2), 3).cumulative == profile_from_alpha(inst.alpha, inst.N).cumulative


def test_subset_reorders_workers():
    storage = generate_decentralized(20, 8, 3, seed=3)
    picked = storage.subset([3, 1])
    assert np.array_equal(picked.per_worker[0], storage.per_worker[2])
    assert np.array_equal(picked.per_worker[1], storage.per_worker[0])
    assert picked.n_workers == 2


def test_subset_refuses_a_worker_number_outside_the_storage():
    # 0 and -1 used to pick a worker from the end, and N + 1 raised a bare IndexError
    storage = generate_decentralized(10, 5, 3, seed=1)
    for n in (0, -1, 4):
        with pytest.raises(StructureError, match=rf"^no worker {n}: storage has workers 1\.\.3$"):
            storage.subset([1, n])
    twice = storage.subset([2, 2])  # a repeated number keeps both copies
    assert np.array_equal(twice.per_worker[0], storage.per_worker[1])
    assert np.array_equal(twice.per_worker[1], storage.per_worker[1])


def test_json_roundtrip():
    storage = generate_decentralized(25, 10, 3, seed=9)
    obj = storage.to_json_obj()
    assert obj["K"] == 25 and obj["M"] == 10 and obj["N"] == 3
    back = ExplicitStorage.from_json_obj(obj)
    assert back.K == storage.K and back.M == storage.M
    assert back.seed == storage.seed
    for a, b in zip(back.per_worker, storage.per_worker):
        assert np.array_equal(a, b)
    with pytest.raises(StructureError):
        ExplicitStorage.from_json_obj({"K": 5, "M": 2})


def test_json_parse_refuses_non_integer_entries():
    # neither truncated (3.7, 3.0) nor parsed ("3") nor wrapped past int64;
    # 2^63 + 5 and 2^64 - 1 fit the unsigned read, and still are not int64
    for bad in (3.7, 3.0, "3", True, None, [0], 2**63, -(2**63) - 1, 2**63 + 5, 2**64 - 1):
        obj = {"K": 10, "M": 3, "N": 2, "perVm": [[0, 1, 2], [5, bad, 7]]}
        with pytest.raises(StructureError, match=r"^perVm\[1\] must be a list of integers$"):
            ExplicitStorage.from_json_obj(obj)
    # a negative is an integer: the signed read takes it, and the range check refuses it
    with pytest.raises(StructureError, match=r"^worker 2 stores a dataset outside \[0, 10\)$"):
        ExplicitStorage.from_json_obj({"K": 10, "M": 3, "N": 2, "perVm": [[0, 1, 2], [5, -1, 7]]})
    with pytest.raises(StructureError, match=r"perVm\[0\]"):
        ExplicitStorage.from_json_obj({"K": 10, "M": 3, "N": 1, "perVm": ["123"]})
    empty = ExplicitStorage.from_json_obj({"K": 4, "M": 0, "N": 2, "perVm": [[], []]})
    assert all(arr.dtype == np.int64 and len(arr) == 0 for arr in empty.per_worker)
    with pytest.raises(StructureError, match="duplicate"):
        ExplicitStorage.from_json_obj({"K": 10, "M": 3, "N": 1, "perVm": [[4, 0, 4]]})


def test_json_parse_refuses_non_integer_scalars():
    good = {"K": 4, "M": 2, "N": 1, "seed": 7, "perVm": [[0, 3]]}
    assert ExplicitStorage.from_json_obj(good).seed == 7
    assert ExplicitStorage.from_json_obj({**good, "seed": None}).seed is None
    for field in ("K", "M", "N", "seed"):
        for bad in (4.9, "2", True, False):
            with pytest.raises(StructureError, match=f"^{field} must be an integer, got {bad!r}$"):
                ExplicitStorage.from_json_obj({**good, field: bad})
    # no generator writes a negative seed, and the reader used to keep one
    with pytest.raises(StructureError, match="^seed must be >= 0, got -1$"):
        ExplicitStorage.from_json_obj({**good, "seed": -1})
    with pytest.raises(StructureError, match="perVm must be a list"):
        ExplicitStorage.from_json_obj({**good, "perVm": 5})
    with pytest.raises(StructureError, match="^N must be >= 1, got 0$"):
        ExplicitStorage.from_json_obj({**good, "N": 0})
    with pytest.raises(StructureError, match="perVm has 1 workers, N says 2"):
        ExplicitStorage.from_json_obj({**good, "N": 2})


def test_json_parse_sorts_a_large_placement():
    storage = generate_decentralized(16000, 8000, 8, seed=4)
    obj = storage.to_json_obj()
    # the file need not be sorted; sorted rows are read without a sort
    obj["perVm"] = [row[::-1] if i % 2 else row for i, row in enumerate(obj["perVm"])]
    back = ExplicitStorage.from_json_obj(obj)
    for a, b in zip(back.per_worker, storage.per_worker):
        assert a.dtype == np.int64 and not a.flags.writeable
        assert np.array_equal(a, b)


@st.composite
def _stored_rows(draw):
    """A small placement's rows, each shuffled as a file may hold it."""
    K = draw(st.integers(1, 12))
    M = draw(st.integers(0, K))
    storage = generate_decentralized(K, M, draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**32)))
    rows = [draw(st.permutations(row)) for row in storage.to_json_obj()["perVm"]]
    return storage, rows


@settings(max_examples=100, deadline=None)
@given(case=_stored_rows(), data=st.data())
def test_json_parse_reads_shuffled_rows_and_refuses_any_non_integer(case, data):
    storage, rows = case
    obj = {**storage.to_json_obj(), "perVm": rows}
    back = ExplicitStorage.from_json_obj(obj)
    assert (back.K, back.M, back.seed, _digest(back)) == (storage.K, storage.M, storage.seed, _digest(storage))
    full = [i for i, row in enumerate(rows) if row]
    if not full:
        return
    i = data.draw(st.sampled_from(full))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    bad = data.draw(st.sampled_from([float(rows[i][j]), str(rows[i][j]), bool(rows[i][j] % 2), None, 2**63]))
    rows[i] = rows[i][:j] + [bad] + rows[i][j + 1 :]
    with pytest.raises(StructureError, match=rf"^perVm\[{i}\] must be a list of integers$"):
        ExplicitStorage.from_json_obj(obj)


def _digest(storage):
    h = hashlib.sha256()
    for arr in storage.per_worker:
        h.update(arr.tobytes())
    return h.hexdigest()


def test_sampler_draws_are_pinned():
    """The seeded storage stream: changing it changes every drawn placement."""
    pinned = {
        (16000, 8000, 12, 3): "1251d1220b91c6ab749a822c11d8b1b0c0dca6f50260c82a93b6b7bc6ca34485",
        (10, 10, 3, 1): "38973bc57d99bf38a4ee130384fb5f689d021728ec3a9d90017203fbc5b9cecc",
        (7, 3, 4, 9): "b5033d8e481e3106778f9c9cf1a92267a43e786244ad4d57a52df9d01f4a0f0a",
        (100, 99, 5, 2): "9cc9a2947c0e414fd87c29d502e04f543275d92653773b1622be1f942fbd9e71",
    }
    for (K, M, N, seed), digest in pinned.items():
        assert _digest(generate_decentralized(K, M, N, seed=seed)) == digest, (K, M, N, seed)
    empty = generate_decentralized(5, 0, 2, seed=1)
    assert all(arr.dtype == np.int64 and len(arr) == 0 for arr in empty.per_worker)


def _same_draw(got, want):
    assert got.dtype == np.int64 and not got.flags.writeable
    assert np.array_equal(got, want)


@st.composite
def _catalog_sizes(draw):
    K = draw(st.integers(1, 2000))
    return K, draw(st.integers(0, K))


@settings(max_examples=300, deadline=None)
@given(size=_catalog_sizes(), seed=st.integers(0, 2**64 - 1), key=st.integers(0, 2**32))
@example(size=(50, 0), seed=0, key=0)
@example(size=(50, 50), seed=3, key=1)
@example(size=(1, 1), seed=7, key=2)
@example(size=(1, 0), seed=7, key=2)
def test_sample_subset_equals_the_swap_loop(size, seed, key):
    # the front of the pass, worked out as a set, is exactly what the swaps leave there
    K, M = size
    _same_draw(_sample_subset(K, M, _worker_rng(seed, key)), reference_subset(K, M, _worker_rng(seed, key)))


@pytest.mark.parametrize("K, M", [(2, 1), (10, 9), (100, 50), (2000, 1999), (16000, 8000)])
def test_sample_subset_follows_deep_chains_and_repeated_swaps(K, M):
    # a chain of M swaps, each drawing the next position, carries value 0 to
    # position M; every swap on position K - 1 carries the front one step each
    for draws in (chain, all_last):
        _same_draw(_sample_subset(K, M, draws(K, M)), reference_subset(K, M, draws(K, M)))
    assert _sample_subset(K, M, chain(K, M)).tolist() == list(range(1, M + 1))
