import copy
import json
import re
from dataclasses import replace
from fractions import Fraction as F
from importlib import resources

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dusec.cli as cli
from dusec.model import ProblemInstance, ProfileMode, StructureError
from dusec.optimizer import assign_loads
from dusec.oracle import flow_assign, flow_time, lp_oracle
from dusec.simulator import (
    BASELINE_KINDS,
    CatalogEntry,
    ConfigurationError,
    ElasticTimeline,
    GradientDemoSpec,
    Scenario,
    ScenarioError,
    TimelineStep,
    baseline_assign,
    gradient_demo,
    load_scenario,
    reports_to_csv,
    reports_to_json_obj,
    run_timeline,
)
from dusec.storage import ExplicitStorage, exact_profile, generate_worker_subset, profile_from_alpha
from dusec.straggler import DEFAULT_FIELD_MODULUS, StragglerConfig
from flow_reference import cyclic_time, man_time, repetition_time


def _bundled(name):
    text = resources.files("dusec").joinpath("scenarios", name).read_text()
    return json.loads(text)


def _base_scenario():
    return {
        "schemaVersion": 1,
        "mode": "asymptotic",
        "vmCatalog": {
            "a": {"seed": 1, "storageFraction": "1/2"},
            "b": {"seed": 2, "storageFraction": "1/2"},
        },
        "steps": [
            {"available": ["a", "b"], "speeds": {"a": "1", "b": "2"}},
        ],
    }


def test_load_scenario_accepts_minimal():
    scenario = load_scenario(_base_scenario())
    assert scenario.mode is ProfileMode.ASYMPTOTIC
    assert scenario.timeline.K is None
    assert scenario.straggler is None
    assert scenario.baselines == ()


@pytest.mark.parametrize("obj", [[], "x", None, 1])
def test_load_scenario_refuses_a_non_object(obj):
    with pytest.raises(ScenarioError, match="scenario: expected a JSON object"):
        load_scenario(obj)


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda o: o.update(schemaVersion=99), "schemaVersion"),
        (lambda o: o.update(schemaVersion=True), "schemaVersion: unsupported version True"),
        (lambda o: o.update(schemaVersion=1.0), "schemaVersion: unsupported version 1.0"),
        (lambda o: o.update(mode="other"), "mode"),
        (lambda o: o.update(K=0), "K"),
        (lambda o: o.update(vmCatalog={}), "vmCatalog"),
        (lambda o: o["vmCatalog"].update(c={}), "vmCatalog.c"),
        (
            lambda o: o["vmCatalog"].update(c={"seed": 1, "datasets": [0], "storageFraction": "1/2"}),
            "vmCatalog.c",
        ),
        (
            lambda o: o["vmCatalog"].update(c={"seed": 1, "storageFraction": 0.5}),
            "storageFraction",
        ),
        (
            lambda o: (o.update(K=4), o["vmCatalog"].update(c={"datasets": [0], "storageFraction": "1/2"})),
            "vmCatalog.c: 'datasets' sets the storage fraction",
        ),
        (
            lambda o: o["vmCatalog"]["a"].update(storageFraction="1/0"),
            "vmCatalog.a.storageFraction: not a rational number ('1/0')",
        ),
        (
            lambda o: o["vmCatalog"]["a"].update(storageFraction=True),
            "vmCatalog.a.storageFraction: not a rational number (True)",
        ),
        (lambda o: o.update(steps=[]), "steps"),
        (lambda o: o["steps"].append({"available": ["zz"], "speeds": {}}), "steps[1].available"),
        (
            lambda o: o["steps"].append({"available": [["a"]], "speeds": {}}),
            "steps[1].available: vm id must be a string",
        ),
        (
            lambda o: o["steps"].append({"available": ["a", "a"], "speeds": {"a": "1"}}),
            "steps[1].available",
        ),
        (
            lambda o: o["steps"].append({"available": ["a"], "speeds": {}}),
            "steps[1].speeds",
        ),
        (
            lambda o: o["steps"].append({"available": ["a"], "speeds": {"a": "-1"}}),
            "steps[1].speeds.a",
        ),
        (
            lambda o: o["steps"].append({"available": ["a"], "speeds": {"a": "3/0"}}),
            "steps[1].speeds.a: not a rational number ('3/0')",
        ),
        (
            lambda o: o["steps"].append({"available": ["a"], "speeds": {"a": True}}),
            "steps[1].speeds.a: not a rational number (True)",
        ),
        (
            lambda o: o["steps"].append(
                {"available": ["a"], "speeds": {"a": "1"}, "stragglers": ["b"]}
            ),
            "steps[1].stragglers",
        ),
        (
            lambda o: o["steps"].append(
                {"available": ["a"], "speeds": {"a": "1"}, "stragglers": ["a"]}
            ),
            "steps[1].stragglers",
        ),
        (lambda o: o.update(baselines=[{"kind": "other", "replication": 2}]), "baselines[0]"),
        (lambda o: o.update(baselines=[{"kind": "cyclic", "replication": 0}]), "replication"),
        (lambda o: o.update(baselines=[{"kind": "cyclic", "replication": 2}]), "K"),
        (lambda o: o.update(mode="exact"), "K"),
        (lambda o: o.update(K=5), "steps[0]: fraction 1/2 times K=5 is not an integer"),
        (lambda o: o.update(K=5, mode="exact"), "steps[0]: fraction 1/2 times K=5 is not an integer"),
        # a negative seed used to load and fail only when a step drew the storage, in numpy's words
        (lambda o: o["vmCatalog"]["b"].update(seed=-3), "vmCatalog.b: seed must be >= 0, got -3"),
        # StragglerConfig's own refusals used to escape as a CodingConfigError with no path
        (lambda o: o.update(straggler={"s": -1}), "straggler: s must be >= 0, got -1"),
        (lambda o: o.update(straggler={"m": 0}), "straggler: m must be >= 1, got 0"),
        (lambda o: o.update(straggler={"fieldModulus": 9}), "straggler: field modulus 9 is not prime"),
        (
            lambda o: o.update(straggler={"fieldModulus": 1 << 64}),
            f"straggler: field modulus {1 << 64} is not below 2^64",
        ),
    ],
)
def test_load_scenario_names_the_offending_path(mutate, path_fragment):
    obj = _base_scenario()
    mutate(obj)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(obj)
    assert path_fragment in str(exc.value)


_CATALOG = {
    "a": CatalogEntry(fraction=F(1, 2), seed=1),
    "b": CatalogEntry(fraction=F(1, 2), seed=2),
    "c": CatalogEntry(fraction=F(1, 4), seed=3),
}


def _timeline(available=("a", "b"), speeds=None, stragglers=(), K=None):
    speeds = {v: F(1) for v in available} if speeds is None else speeds
    step = TimelineStep(available=available, speeds=speeds, stragglers=frozenset(stragglers))
    return ElasticTimeline(vm_catalog=_CATALOG, steps=(step,), K=K)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _timeline(available=("a", "zz")), r"steps\[0\]\.available: unknown vm 'zz'"),
        (lambda: _timeline(speeds={"a": F(1)}), r"steps\[0\]\.speeds: missing speed for 'b'"),
        (lambda: _timeline(stragglers=("c",)), r"steps\[0\]\.stragglers: 'c' is not available"),
        (
            lambda: Scenario(_timeline(stragglers=("a",)), ProfileMode.ASYMPTOTIC, None, ()),
            r"steps\[0\]\.stragglers: set but scenario has no straggler config",
        ),
        (
            lambda: Scenario(_timeline(), ProfileMode.ASYMPTOTIC, None, (("cyclic", 1),)),
            "K: required when baselines are requested",
        ),
        (lambda: _timeline(available=("a", "a")), r"steps\[0\]\.available: duplicate vm id"),
        (
            lambda: _timeline(speeds={"a": F(1), "b": F(0)}),
            r"steps\[0\]\.speeds\.b: speed must be positive",
        ),
        (lambda: _timeline(K=5), r"steps\[0\]: fraction 1/2 times K=5 is not an integer"),
        (
            lambda: Scenario(_timeline(available=("a", "c")), ProfileMode.ASYMPTOTIC, None, ()),
            r"steps\[0\]: storage fractions differ",
        ),
        (lambda: Scenario(_timeline(), ProfileMode.EXACT, None, ()), "K: required in exact mode"),
        # the baselines and the straggler budget are the type's rules, not only the loader's
        *(
            (
                lambda r=r: Scenario(_timeline(K=4), ProfileMode.ASYMPTOTIC, None, (("cyclic", r),)),
                rf"^baselines\[0\]\.replication {message}$",
            )
            for r, message in (
                (True, "must be an integer, got True"),
                (2.0, r"must be an integer, got 2\.0"),
                (0, "must be >= 1, got 0"),
            )
        ),
        (
            lambda: Scenario(_timeline(K=4), ProfileMode.ASYMPTOTIC, None, (("ring", 2),)),
            r"baselines\[0\]: expected \{kind: one of \('cyclic', 'repetition', 'man'\), replication\}",
        ),
        (
            lambda: Scenario(_timeline(K=4), ProfileMode.ASYMPTOTIC, None, ("cyclic",)),
            r"baselines\[0\]: expected \{kind: one of",
        ),
        (
            lambda: Scenario(
                _timeline(stragglers=("a", "b"), K=4), ProfileMode.EXACT, StragglerConfig(s=1, m=1)
            ),
            r"steps\[0\]: 2 stragglers exceed the configured s=1",
        ),
        (lambda: Scenario(_timeline(), "exact", None, ()), "mode: expected a ProfileMode, got 'exact'"),
        (
            lambda: Scenario(_timeline(K=4), ProfileMode.EXACT, (1, 1), ()),
            r"straggler: expected a StragglerConfig or None, got \(1, 1\)",
        ),
        (
            lambda: ElasticTimeline(vm_catalog=_CATALOG, steps=(), K=4),
            "steps: timeline has no steps",
        ),
        (
            lambda: gradient_demo(
                ElasticTimeline(vm_catalog=_CATALOG, steps=(), K=4), GradientDemoSpec()
            ),
            "steps: timeline has no steps",
        ),
        # explicit catalog entries are checked against K, whether a step names them or not
        (
            lambda: gradient_demo(_demo_timeline({"v": _entry((0, 9), K=4)}, K=4), GradientDemoSpec()),
            r"vmCatalog\.v\.datasets: dataset id outside \[0, 4\)",
        ),
        (
            lambda: gradient_demo(_demo_timeline({"v": _entry((1, 1), K=4)}, K=4), GradientDemoSpec()),
            r"vmCatalog\.v\.datasets: duplicate dataset id",
        ),
        (
            lambda: gradient_demo(
                _demo_timeline({"v": CatalogEntry(fraction=F(1, 4), datasets=(0, 1))}, K=4),
                GradientDemoSpec(),
            ),
            r"vmCatalog\.v\.datasets: 2 ids, but fraction 1/4 times K=4 is 1",
        ),
        (lambda: _timeline(K=0), "^K must be >= 1, got 0$"),
        (
            lambda: gradient_demo(_demo_timeline({"v": _entry((0,), K=4)}, K=0), GradientDemoSpec()),
            "^K must be >= 1, got 0$",
        ),
        (lambda: _timeline(K=4.0), r"^K must be an integer, got 4\.0$"),
        (lambda: _timeline(K=True), "^K must be an integer, got True$"),
        (
            lambda: run_timeline(
                Scenario(
                    ElasticTimeline(
                        vm_catalog={"a": CatalogEntry(fraction=F(1, 2), seed=1.5)},
                        steps=(TimelineStep(available=("a",), speeds={"a": F(1)}),),
                        K=4,
                    ),
                    ProfileMode.EXACT,
                )
            ),
            "seed must be an integer, got 1.5",
        ),
        (lambda: CatalogEntry(fraction=F(1, 2), seed=-1), "seed must be >= 0, got -1"),
        # the loader checks this before it builds an entry; an entry built in code meets it here
        (lambda: CatalogEntry(fraction=F(1, 2)), "catalog entry needs exactly one of seed/datasets"),
        (
            lambda: CatalogEntry(fraction=F(1, 2), seed=1, datasets=(0, 1)),
            "catalog entry needs exactly one of seed/datasets",
        ),
        (
            lambda: CatalogEntry(fraction=F(1, 2), datasets=(0, 1.0)),
            r"datasets: expected a tuple of integers, got \(0, 1\.0\)",
        ),
        (lambda: CatalogEntry(fraction=F(1, 2), datasets=[0, 1]), "datasets: expected a tuple"),
        # numbers built in code are coerced as ProblemInstance coerces speeds
        *(
            (
                lambda value=value: CatalogEntry(fraction=value, seed=1),
                rf"fraction: not a rational number \({value!r}\)",
            )
            for value in (0.5, True, "x")
        ),
        *(
            (
                lambda value=value: _timeline(available=("a",), speeds={"a": value}),
                rf"speeds\.a: not a rational number \({value!r}\)",
            )
            for value in (0.5, True, "x")
        ),
        (lambda: TimelineStep(available=("a",), speeds=None), "speeds: expected a mapping, got None"),
    ],
)
def test_scenarios_built_in_code_are_refused(build, message):
    with pytest.raises(ScenarioError, match=message):
        build()


def test_scenario_built_in_code_runs():
    scenario = Scenario(_timeline(stragglers=("a",), K=4), ProfileMode.EXACT, StragglerConfig(s=1, m=1))
    assert scenario.baselines == ()
    (report,) = run_timeline(scenario)
    assert report.vm_ids == ("a", "b") and report.task_value is not None


def test_scenario_numbers_built_in_code_are_coerced():
    entry = CatalogEntry(fraction="1/2", seed=1)
    assert entry.fraction == F(1, 2) and isinstance(entry.fraction, F)
    step = TimelineStep(available=("a",), speeds={"a": "1", "b": 2})
    assert step.speeds == {"a": F(1), "b": F(2)}
    assert all(isinstance(s, F) for s in step.speeds.values())
    timeline = ElasticTimeline(vm_catalog={"a": entry}, steps=(step,), K=4)
    (report,) = run_timeline(Scenario(timeline, ProfileMode.EXACT))
    assert report.vm_ids == ("a",) and report.time.c_star == F(1, 2)


def _full_scenario():
    """Every scenario feature at once: exact mode, a seeded and an explicit
    catalog entry, a straggler block, a straggling vm and baselines."""
    return {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 6,
        "vmCatalog": {
            "a": {"seed": 1, "storageFraction": "1/2"},
            "b": {"seed": 2, "storageFraction": "1/2"},
            "c": {"datasets": [0, 1, 2]},
        },
        "steps": [
            {
                "available": ["a", "b", "c"],
                "speeds": {"a": "1", "b": "2", "c": "3/2"},
                "stragglers": ["b"],
            },
            {"available": ["a", "c"], "speeds": {"a": "1", "c": "2"}},
        ],
        "straggler": {"s": 1, "m": 1, "fieldModulus": 7},
        "baselines": [
            {"kind": "cyclic", "replication": 1},
            {"kind": "man", "replication": 2},
        ],
    }


def _paths(node, path=()):
    """The key path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


_SUBSTITUTES = (None, True, False, 0, -1, 1.5, "x", "1/0", [], {}, [["a"]], {"a": 1})


def test_every_field_substitution_runs_or_is_refused():
    """Each field replaced by each odd JSON value either runs or raises a
    ValueError, which the CLI reports with exit 2; never another exception."""
    scenario = load_scenario(_full_scenario())
    reports = run_timeline(scenario)
    assert len(reports) == 2 and all(rep.baseline_times for rep in reports)
    crashes = []
    for path in _paths(_full_scenario()):
        for value in _SUBSTITUTES:
            obj = _full_scenario()
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(value)
            try:
                run_timeline(load_scenario(obj))
            except ValueError:
                pass
            except Exception as exc:  # anything but a ValueError is a crash
                crashes.append(f"{'.'.join(map(str, path))} = {value!r}: {exc!r}")
    assert not crashes, "\n".join(crashes)


def test_datasets_entries_require_k_and_bounds():
    obj = _base_scenario()
    obj["vmCatalog"]["a"] = {"datasets": [0, 1]}
    with pytest.raises(ScenarioError, match="require K"):
        load_scenario(obj)
    obj["K"] = 4
    obj["vmCatalog"]["a"] = {"datasets": [0, 7]}
    with pytest.raises(ScenarioError, match="outside"):
        load_scenario(obj)
    obj["vmCatalog"]["a"] = {"datasets": [1, 1]}
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(obj)


def test_catalog_integers_are_strict():
    for bad in (3.7, "3", True):
        obj = _base_scenario()
        obj["K"] = 4
        obj["vmCatalog"]["a"] = {"datasets": [0, bad]}
        with pytest.raises(ScenarioError, match=r"vmCatalog\.a\.datasets: expected an array of integers"):
            load_scenario(obj)
        obj = _base_scenario()
        obj["vmCatalog"]["b"]["seed"] = bad
        with pytest.raises(ScenarioError, match=r"^vmCatalog\.b: seed must be an integer"):
            load_scenario(obj)
        for field, name in (("s", "s"), ("m", "m"), ("fieldModulus", "field_modulus")):
            obj = _base_scenario()
            obj["straggler"] = {"s": 0, "m": 1, field: bad}
            with pytest.raises(ScenarioError, match=rf"^straggler: {name} must be an integer"):
                load_scenario(obj)
        obj = _base_scenario()
        obj.update(K=bad, baselines=[{"kind": "cyclic", "replication": True}])
        with pytest.raises(ScenarioError, match="^K must be an integer"):
            load_scenario(obj)
        obj["K"] = 4
        with pytest.raises(ScenarioError, match=r"baselines\[0\]\.replication"):
            load_scenario(obj)
    obj = _base_scenario()
    obj["K"] = 4
    obj["vmCatalog"]["a"] = {"datasets": "01"}
    with pytest.raises(ScenarioError, match=r"vmCatalog\.a\.datasets"):
        load_scenario(obj)


def test_bundled_showcase_scenario():
    reports = run_timeline(load_scenario(_bundled("paper_example.json")))
    first = reports[0]
    assert first.vm_ids == ("vm1", "vm2", "vm3", "vm4")
    assert first.time.c_star == F(15, 208)
    assert first.time.n_star == 4
    assert first.coverage == F(15, 16)
    assert first.baseline_times["cyclic_r2"] == F(1, 12)
    assert first.baseline_times["repetition_r2"] == F(1, 6)
    # two equal fast workers left alone
    second = reports[1]
    assert second.time.c_star == F(3, 40)
    assert second.baseline_times["cyclic_r2"] == F(1, 10)


def test_steps_are_solved_independently():
    scenario = load_scenario(_bundled("paper_example.json"))
    reports = run_timeline(replace(scenario, baselines=()))
    inst = ProblemInstance.from_alpha(F(2), (F(1), F(2), F(5), F(6)))
    _, res = assign_loads(inst, profile_from_alpha(F(2), 4))
    assert reports[2].time == res


def test_storage_frozen_across_steps():
    obj = {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 40,
        "vmCatalog": {"a": {"seed": 3, "storageFraction": "1/2"}},
        "steps": [
            {"available": ["a"], "speeds": {"a": "1"}},
            {"available": ["a"], "speeds": {"a": "4"}},
        ],
    }
    reports = run_timeline(load_scenario(obj))
    assert reports[0].coverage == reports[1].coverage  # same drawn subset
    assert reports[0].time.c_star == 4 * reports[1].time.c_star  # only the speed moved


def test_exact_mode_matches_direct_solve():
    # every step rebuilt on its own (vms by speed, ties by id; each vm's
    # storage drawn from its catalog seed; the measured profile): the report's
    # times equal flow_assign's, and each baseline the c* flow_assign gives
    # on baseline_assign's profile
    obj = _bundled("elastic_10step.json")
    reports = run_timeline(load_scenario(obj))
    K, catalog = obj["K"], obj["vmCatalog"]
    assert len(reports) == len(obj["steps"]) == 10
    for rep, step in zip(reports, obj["steps"]):
        speeds = {vm: F(s) for vm, s in step["speeds"].items()}
        order = tuple(sorted(step["available"], key=lambda vm: (speeds[vm], vm)))
        assert rep.vm_ids == order
        M = int(F(catalog[order[0]]["storageFraction"]) * K)
        inst = ProblemInstance(K=K, M=M, speeds=[speeds[vm] for vm in order])
        per_worker = tuple(generate_worker_subset(K, M, catalog[vm]["seed"]) for vm in order)
        prof = exact_profile(ExplicitStorage(K=K, M=M, per_worker=per_worker))
        assert rep.time == flow_assign(inst, prof)[1]
        assert max(rep.time.per_worker_time) == rep.time.c_star
        assert 0 < rep.coverage == prof.cumulative[inst.N] <= 1
        assert set(rep.baseline_times) == {"cyclic_r2", "man_r2"}
        for kind in ("cyclic", "man"):
            baseline_profile, _ = baseline_assign(kind, 2, inst)
            assert rep.baseline_times[f"{kind}_r2"] == flow_assign(inst, baseline_profile)[1].c_star


def _straggler_scenario(stragglers):
    return {
        "schemaVersion": 1,
        "mode": "asymptotic",
        "vmCatalog": {
            "a": {"seed": 1, "storageFraction": "1/2"},
            "b": {"seed": 2, "storageFraction": "1/2"},
            "c": {"seed": 3, "storageFraction": "1/2"},
        },
        "steps": [
            {
                "available": ["a", "b", "c"],
                "speeds": {"a": "1", "b": "100", "c": "100"},
                "stragglers": stragglers,
            },
            {"available": ["a", "b", "c"], "speeds": {"a": "1", "b": "100", "c": "100"}},
        ],
        "straggler": {"s": 1, "m": 2},
    }


def test_straggler_step_decodes_the_aggregate():
    reports = run_timeline(load_scenario(_straggler_scenario(["b"])))
    p = DEFAULT_FIELD_MODULUS
    # with triple coverage only the everyone-class survives exclusion
    expected = tuple((0b111 * 2654435761 + j) % p for j in range(2))
    assert reports[0].task_value == expected
    assert reports[1].task_value == expected  # losing one response changes nothing
    assert reports[0].time.c_star == F(1, 8)


def test_straggler_budget_enforced_per_step():
    with pytest.raises(ScenarioError, match=r"steps\[0\]: 2 stragglers exceed the configured s=1"):
        load_scenario(_straggler_scenario(["a", "b"]))


def test_coverage_matches_catalog_union():
    obj = {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 8,
        "vmCatalog": {
            "a": {"datasets": [0, 1, 2, 3]},
            "b": {"datasets": [2, 3, 4, 5]},
        },
        "steps": [{"available": ["a", "b"], "speeds": {"a": "1", "b": "1"}}],
    }
    reports = run_timeline(load_scenario(obj))
    assert reports[0].coverage == F(6, 8)


def test_baseline_constructions():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    profile, value = baseline_assign("cyclic", 2, inst)
    assert value == F(1, 12)
    # block b sits on workers b and b+1 (mod 4): the four adjacent pairs
    assert dict(profile.classes) == {0b0011: F(1, 4), 0b0110: F(1, 4), 0b1001: F(1, 4), 0b1100: F(1, 4)}
    # full replication: every worker stores everything
    _, value = baseline_assign("man", 4, inst)
    assert value == F(1, 13)
    # one worker per block, homogeneous speeds
    inst3 = ProblemInstance(K=9, M=3, speeds=(F(2), F(2), F(2)))
    _, value = baseline_assign("repetition", 1, inst3)
    assert value == F(1, 6)


def _naive_holdings(kind, r, N, K):
    """Each worker's dataset set, straight from baseline_assign's docstring."""
    if kind == "cyclic":
        block = K // N
        blocks = [{(n + t) % N for t in range(r)} for n in range(N)]
    elif kind == "repetition":
        block = K // (N // r)
        blocks = [{n // r} for n in range(N)]
    else:
        subsets = list(combinations(range(N), r))
        block = K // len(subsets)
        blocks = [{b for b, subset in enumerate(subsets) if n in subset} for n in range(N)]
    return [
        {d for b in held for d in range(b * block, (b + 1) * block)} for held in blocks
    ]


@st.composite
def _baseline_cases(draw):
    N = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(BASELINE_KINDS))
    rs = [r for r in range(1, N + 1) if kind != "repetition" or N % r == 0]
    r = draw(st.sampled_from(rs))
    blocks = {"cyclic": N, "repetition": N // r, "man": comb(N, r)}[kind]
    K = blocks * draw(st.integers(1, 3))
    if draw(st.booleans()):
        speeds = [F(draw(st.integers(1, 2))) for _ in range(N)]  # many ties
    else:
        speeds = [F(draw(st.integers(1, 40)), draw(st.integers(1, 5))) for _ in range(N)]
    return kind, r, ProblemInstance(K=K, M=0, speeds=tuple(sorted(speeds)))


@settings(max_examples=80, deadline=None)
@given(case=_baseline_cases())
def test_baseline_equals_oracle_on_its_placement(case):
    kind, r, inst = case
    profile, value = baseline_assign(kind, r, inst)
    assert value == lp_oracle(inst, profile)
    holdings = _naive_holdings(kind, r, inst.N, inst.K)
    storage = ExplicitStorage(
        K=inst.K,
        M=r * inst.K // inst.N,
        per_worker=tuple(np.array(sorted(held), dtype=np.int64) for held in holdings),
    )
    assert list(profile.classes.items()) == list(exact_profile(storage).classes.items())


@st.composite
def _known_answer_cases(draw):
    # up to 40 workers, past lp_oracle's 12; MAN's C(N, r) blocks are capped
    N = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(BASELINE_KINDS))
    rs = [
        r
        for r in range(1, N + 1)
        if (kind != "repetition" or N % r == 0) and (kind != "man" or comb(N, r) <= 300)
    ]
    r = draw(st.sampled_from(rs))
    blocks = {"cyclic": N, "repetition": N // r, "man": comb(N, r)}[kind]
    if draw(st.booleans()):
        speeds = [F(draw(st.integers(1, 2))) for _ in range(N)]  # many ties
    else:
        speeds = [F(draw(st.integers(1, 40)), draw(st.integers(1, 5))) for _ in range(N)]
    return kind, r, ProblemInstance(K=blocks, M=0, speeds=tuple(speeds))


_KNOWN_ANSWERS = {"cyclic": cyclic_time, "repetition": repetition_time, "man": man_time}


@settings(max_examples=60, deadline=None)
@given(case=_known_answer_cases())
def test_baseline_equals_its_known_answer(case):
    # the placements' optimum from their shape (tests/flow_reference.py), the
    # value baseline_assign reads from the staircase, and the flow search on
    # its profile all agree
    kind, r, inst = case
    profile, value = baseline_assign(kind, r, inst)
    assert value == _KNOWN_ANSWERS[kind](list(inst.speeds), r) == flow_time(inst, profile).c_star


def test_baseline_past_the_class_mask_limit(tmp_path):
    # 63 workers: more than a measured placement's class masks can hold
    inst = ProblemInstance(K=63, M=1, speeds=tuple(F(n) for n in range(1, 64)))
    profile, value = baseline_assign("cyclic", 1, inst)
    assert dict(profile.classes) == {1 << n: F(1, 63) for n in range(63)}
    assert value == F(1, 63)  # the slowest worker computes its own block
    ids = [f"w{i}" for i in range(63)]
    obj = {
        "schemaVersion": 1,
        "mode": "asymptotic",
        "K": 126,
        "vmCatalog": {v: {"seed": i, "storageFraction": "1/2"} for i, v in enumerate(ids)},
        "steps": [{"available": ids, "speeds": {v: str(1 + i % 5) for i, v in enumerate(ids)}}],
        "baselines": [{"kind": "cyclic", "replication": 2}, {"kind": "repetition", "replication": 3}],
    }
    path = tmp_path / "n63.json"
    path.write_text(json.dumps(obj))
    assert cli.run(["simulate", "--scenario", str(path), "--out", str(tmp_path / "n63.csv")]) == 0


def _fourteen_worker_scenario(mode):
    ids = [f"w{i}" for i in range(14)]
    return {
        "schemaVersion": 1,
        "mode": mode,
        "K": 182,  # divisible by N = 14, N/2 = 7 and C(14, 2) = 91
        "vmCatalog": {v: {"seed": i, "storageFraction": "1/2"} for i, v in enumerate(ids)},
        "steps": [{"available": ids, "speeds": {v: str(1 + i % 5) for i, v in enumerate(ids)}}],
        "baselines": [{"kind": kind, "replication": 2} for kind in BASELINE_KINDS],
    }


@pytest.mark.parametrize("mode", ["exact", "asymptotic"])
def test_baselines_past_the_oracle_cap(mode, tmp_path):
    path = tmp_path / "n14.json"
    path.write_text(json.dumps(_fourteen_worker_scenario(mode)))
    out = tmp_path / "n14.csv"
    assert cli.run(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    header, row = out.read_text().strip().split("\n")
    assert header.endswith("baseline_cyclic_r2,baseline_man_r2,baseline_repetition_r2")
    assert row.split(",")[1] == "14" and all(row.split(",")[-3:])


def test_baseline_divisibility_errors():
    inst = ProblemInstance(K=16, M=8, speeds=(F(1), F(2), F(5), F(5)))
    with pytest.raises(ConfigurationError, match="unknown baseline kind 'ring'"):
        baseline_assign("ring", 2, inst)
    with pytest.raises(ConfigurationError, match="^replication must be an integer, got True$"):
        baseline_assign("cyclic", True, inst)  # not run as r = 1
    with pytest.raises(ConfigurationError, match=r"^replication must be an integer, got 2\.0$"):
        baseline_assign("cyclic", 2.0, inst)
    with pytest.raises(ConfigurationError, match="^replication must be >= 1, got 0$"):
        baseline_assign("cyclic", 0, inst)
    with pytest.raises(ConfigurationError, match="^replication 5 exceeds N = 4$"):
        baseline_assign("cyclic", 5, inst)  # r > N
    with pytest.raises(ConfigurationError):
        baseline_assign("repetition", 3, inst)  # 3 does not divide N=4
    inst10 = ProblemInstance(K=10, M=5, speeds=(F(1), F(1), F(1), F(1)))
    with pytest.raises(ConfigurationError):
        baseline_assign("cyclic", 2, inst10)  # 4 does not divide 10
    with pytest.raises(ConfigurationError):
        baseline_assign("man", 2, inst10)  # C(4,2)=6 does not divide 10


def test_baseline_error_names_the_step():
    obj = {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 10,
        "vmCatalog": {
            "a": {"datasets": [0, 1, 2, 3, 4]},
            "b": {"datasets": [5, 6, 7, 8, 9]},
            "c": {"datasets": [0, 2, 4, 6, 8]},
            "d": {"datasets": [1, 3, 5, 7, 9]},
        },
        "steps": [
            {
                "available": ["a", "b", "c", "d"],
                "speeds": {"a": "1", "b": "1", "c": "1", "d": "1"},
            }
        ],
        "baselines": [{"kind": "cyclic", "replication": 2}],
    }
    scenario = load_scenario(obj)
    with pytest.raises(ConfigurationError, match=r"steps\[0\]"):
        run_timeline(scenario)


def test_any_refusal_in_a_step_names_the_step():
    # the formula class map refuses 23 workers; the straggler block's coded
    # round needs that map, and the refusal keeps its type and names the step
    ids = [f"w{i}" for i in range(23)]
    obj = {
        "schemaVersion": 1,
        "mode": "asymptotic",
        "vmCatalog": {v: {"seed": i, "storageFraction": "1/2"} for i, v in enumerate(ids)},
        "steps": [
            {"available": ids[:3], "speeds": {v: "1" for v in ids[:3]}},
            {"available": ids, "speeds": {v: str(1 + i % 5) for i, v in enumerate(ids)}},
        ],
        "straggler": {"s": 0, "m": 2},
    }
    with pytest.raises(StructureError) as exc:
        run_timeline(load_scenario(obj))
    assert str(exc.value).startswith("steps[1]: refusing to materialize 2^23 classes")


def _generated_exact_scenario():
    # eight catalog vms at half storage with tied and rational speeds; K = 840
    # takes every baseline at r = 2 on the 8-, 6- and 4-vm steps.  Two fast
    # vms put n* at N - 2 or below, where c* depends on which vm holds which
    # storage (L(N - 1) is the coverage less M whatever the order)
    ids = [f"g{i}" for i in range(8)]
    speeds = ["1", "1", "2", "2", "5/2", "3", "40", "60"]
    return {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 840,
        "vmCatalog": {v: {"seed": 40 + i, "storageFraction": "1/2"} for i, v in enumerate(ids)},
        "steps": [
            {"available": ids, "speeds": dict(zip(ids, speeds))},
            {"available": ids[2:], "speeds": dict(zip(ids[2:], reversed(speeds[2:])))},
            {"available": ids[::2], "speeds": {v: "4/3" for v in ids[::2]}},
        ],
        "baselines": [{"kind": kind, "replication": 2} for kind in BASELINE_KINDS],
    }


_METAMORPHIC_SCENARIOS = {
    "paper_example": lambda: _bundled("paper_example.json"),
    "elastic_10step": lambda: _bundled("elastic_10step.json"),
    "generated_exact": _generated_exact_scenario,
}


def _renamed(obj):
    """The scenario with every vm renamed, the sort order of the ids reversed."""
    ids = sorted(obj["vmCatalog"])
    name = {v: f"vm-{len(ids) - i:03d}" for i, v in enumerate(ids)}
    out = copy.deepcopy(obj)
    out["vmCatalog"] = {name[v]: entry for v, entry in obj["vmCatalog"].items()}
    for step in out["steps"]:
        step["available"] = [name[v] for v in step["available"]]
        step["speeds"] = {name[v]: speed for v, speed in step["speeds"].items()}
        step["stragglers"] = [name[v] for v in step.get("stragglers", [])]
    return out


def _steps(reports):
    return reports_to_json_obj(reports)["steps"]


@pytest.mark.parametrize("scenario", sorted(_METAMORPHIC_SCENARIOS))
def test_renaming_the_vms_moves_no_result(scenario):
    # ties sort by vm id, so the renaming reorders tied vms; no time, coverage
    # or baseline may move, so the CSV (cStar, nStar, coverage, baseline_*) is
    # byte-identical
    obj = _METAMORPHIC_SCENARIOS[scenario]()
    before, after = run_timeline(load_scenario(obj)), run_timeline(load_scenario(_renamed(obj)))
    assert reports_to_csv(after) == reports_to_csv(before)
    for old, new in zip(_steps(before), _steps(after), strict=True):
        for key in ("cStar", "nStar", "coverage", "baselines"):
            assert new[key] == old[key], key


@pytest.mark.parametrize("scenario", sorted(_METAMORPHIC_SCENARIOS))
def test_scaling_the_speeds_divides_the_times(scenario):
    # every speed times lam: c* and every baseline divided by lam exactly,
    # n* and the coverage unchanged
    lam = F(7, 3)
    obj = _METAMORPHIC_SCENARIOS[scenario]()
    scaled = copy.deepcopy(obj)
    for step in scaled["steps"]:
        step["speeds"] = {v: str(F(speed) * lam) for v, speed in step["speeds"].items()}
    before, after = run_timeline(load_scenario(obj)), run_timeline(load_scenario(scaled))
    for old, new in zip(_steps(before), _steps(after), strict=True):
        assert F(new["cStar"]["frac"]) == F(old["cStar"]["frac"]) / lam
        assert (new["nStar"], new["coverage"]) == (old["nStar"], old["coverage"])
        assert old["baselines"]
        assert {kind: F(v["frac"]) for kind, v in new["baselines"].items()} == {
            kind: F(v["frac"]) / lam for kind, v in old["baselines"].items()
        }


def test_csv_layout():
    reports = run_timeline(load_scenario(_bundled("paper_example.json")))
    csv = reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "step,N_t,cStar,nStar,coverage,baseline_cyclic_r2,baseline_repetition_r2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "4" and first[3] == "4"
    assert abs(float(first[2]) - 15 / 208) < 1e-15
    obj = reports_to_json_obj(reports)
    assert obj["schemaVersion"] == 1
    assert obj["steps"][0]["cStar"] == {"frac": "15/208", "decimal": 15 / 208}


def _entry(datasets, K=16):
    return CatalogEntry(fraction=F(len(datasets), K), datasets=tuple(sorted(datasets)))


def _demo_timeline(catalog, K=16):
    ids = tuple(sorted(catalog))
    step = TimelineStep(available=ids, speeds={v: F(1) for v in ids})
    return ElasticTimeline(vm_catalog=catalog, steps=(step,), K=K)


def test_gradient_demo_full_coverage_is_bitwise_centralized():
    catalog = {
        "v1": _entry(range(0, 8)),
        "v2": _entry(range(8, 16)),
        "v3": _entry(range(4, 12)),
        "v4": _entry(list(range(0, 4)) + list(range(12, 16))),
    }
    spec = GradientDemoSpec(iterations=50)
    losses = gradient_demo(_demo_timeline(catalog), spec)
    # reference: same arithmetic over every shard in ascending order
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.seed])))
    X = rng.standard_normal((spec.n_samples, spec.n_features))
    w_true = rng.standard_normal(spec.n_features)
    y = X @ w_true
    shard = spec.n_samples // 16
    w = np.zeros(spec.n_features)

    def loss(weights):
        residual = X @ weights - y
        return 0.5 * float(residual @ residual) / spec.n_samples

    ref = [loss(w)]
    for _ in range(spec.iterations):
        grad = np.zeros(spec.n_features)
        for k in range(16):
            rows = slice(k * shard, (k + 1) * shard)
            grad = grad + X[rows].T @ (X[rows] @ w - y[rows])
        w = w - spec.learning_rate * (grad / spec.n_samples)
        ref.append(loss(w))
    assert np.array_equal(losses, np.asarray(ref))


def test_gradient_demo_partial_coverage_still_converges():
    # shard 7 is stored nowhere; every worker still holds 8 shards
    catalog = {
        "v1": _entry([0, 1, 2, 3, 4, 5, 6, 8]),
        "v2": _entry([8, 9, 10, 11, 12, 13, 14, 15]),
        "v3": _entry([4, 5, 6, 8, 9, 10, 11, 12]),
        "v4": _entry([0, 1, 2, 3, 12, 13, 14, 15]),
    }
    losses = gradient_demo(_demo_timeline(catalog), GradientDemoSpec(iterations=50))
    assert (np.diff(losses) < 0).all()


def test_gradient_demo_zero_coverage_changes_nothing():
    catalog = {"v1": _entry([]), "v2": _entry([])}
    losses = gradient_demo(_demo_timeline(catalog), GradientDemoSpec(iterations=5))
    assert (losses == losses[0]).all()


def test_gradient_demo_validation():
    catalog = {"v1": _entry([0, 1])}
    timeline = _demo_timeline(catalog)
    with pytest.raises(ScenarioError, match="divisible"):
        gradient_demo(timeline, GradientDemoSpec(n_samples=250))
    bare = ElasticTimeline(vm_catalog=catalog, steps=timeline.steps, K=None)
    with pytest.raises(ScenarioError, match="K"):
        gradient_demo(bare, GradientDemoSpec())
    # zero iterations is a valid spec: the loss before any update
    assert len(gradient_demo(timeline, GradientDemoSpec(iterations=0))) == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        # each of these used to run (one loss, one step) or end in a bare error
        ("iterations", -1, "iterations must be >= 0, got -1"),
        ("iterations", True, "iterations must be an integer, got True"),
        ("iterations", 2.5, "iterations must be an integer, got 2.5"),
        ("n_samples", 0, "n_samples must be >= 1, got 0"),
        ("n_features", 2.0, "n_features must be an integer, got 2.0"),
        ("n_features", 0, "n_features must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_gradient_demo_spec_counts(field, value, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        GradientDemoSpec(**{field: value})
