import contextlib
import importlib
import io
import json
import re
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dusec.cli as cli
import dusec.simulator as simulator
from dusec import oracle
from dusec.model import LoadAssignment, ProblemInstance, validate
from dusec.oracle import lp_oracle
from dusec.storage import ExplicitStorage, exact_profile, generate_decentralized
from dusec.straggler import filtered_for_redundancy
from flow_reference import feasible_at


def _run(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_golden(capsys):
    code, out, _ = _run(capsys, ["solve", "--speeds", "1,3,9", "--alpha", "3/2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schemaVersion"] == 1
    assert obj["cStar"] == {"frac": "4/27", "decimal": float(F(4, 27))}
    assert obj["nStar"] == 1
    assert obj["mode"] == "asymptotic"
    assert obj["speedsSorted"] == ["1/1", "3/1", "9/1"]
    assert obj["perVmTime"][0] == {"frac": "4/27", "decimal": float(F(4, 27))}


def test_solve_with_oracle_agrees(capsys):
    code, out, _ = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["cStar"]["frac"] == "15/208"
    assert obj["nStar"] == 4
    assert obj["oracle"]["value"]["frac"] == "15/208"
    loads = {(item["n"], item["classMask"]): item["share"] for item in obj["loads"]}
    assert loads and all("/" in share for share in loads.values())


def test_solve_unsorted_speeds_reports_source_order(capsys):
    code, out, _ = _run(capsys, ["solve", "--speeds", "5,1,2,5", "--alpha", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["speedsSorted"] == ["1/1", "2/1", "5/1", "5/1"]
    # position i of the sorted arrays came from input slot sourceOrder[i]
    assert sorted(obj["sourceOrder"]) == [0, 1, 2, 3]
    assert obj["sourceOrder"][0] == 1


def test_solve_straggler(capsys):
    code, out, _ = _run(
        capsys,
        ["solve", "--speeds", "1,100,100", "--alpha", "2", "--straggler", "1,1", "--oracle"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["redundancy"] == 2
    assert obj["excludedClasses"] == [1, 2, 4]
    assert obj["cStar"]["frac"] == "1/4"


def test_straggler_beyond_the_fleet_exits_2(capsys):
    code, out, err = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--straggler", "9,9"]
    )
    assert code == 2 and out == ""
    assert "r = s + m = 18 exceeds N = 4" in err


def test_simulate_straggler_beyond_a_step_names_the_step(tmp_path, capsys):
    scenario = json.loads(
        (Path(cli.__file__).parent / "scenarios" / "paper_example.json").read_text()
    )
    scenario["straggler"] = {"s": 1, "m": 2}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(
        capsys, ["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2 and out == ""
    assert "error: steps[1]: redundancy r = s + m = 3 exceeds N = 2" in err


def test_simulate_coding_error_names_the_step(tmp_path, capsys):
    # the solver accepts p = 2; encoding the plan needs 2 worker points and
    # 1 anchor point, distinct in the field
    scenario = {
        "schemaVersion": 1,
        "mode": "exact",
        "K": 4,
        "vmCatalog": {"a": {"datasets": [0, 1]}, "b": {"datasets": [0, 1]}},
        "steps": [{"available": ["a", "b"], "speeds": {"a": "1", "b": "2"}}],
        "straggler": {"s": 1, "m": 1, "fieldModulus": 2},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(
        capsys, ["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]
    )
    assert (code, out) == (2, "")
    assert err == "error: steps[0]: field modulus 2 too small for 2 workers + 1 anchors\n"


def test_profile_and_solve_roundtrip(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["profile", "--K", "40", "--M", "20", "--N", "4", "--seed", "5", "--exact"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["storage"]["K"] == 40
    assert obj["storage"]["seed"] == 5
    assert len(obj["storage"]["perVm"]) == 4
    assert all(len(z) == 20 for z in obj["storage"]["perVm"])
    # classSizes cover all mass
    total = sum(F(v) for v in obj["profile"]["classSizes"].values())
    assert total == F(obj["profile"]["cumulative"][-1])
    # drawn storage matches the library call with the same seed
    direct = generate_decentralized(40, 20, 4, seed=5)
    assert obj["storage"]["perVm"] == [[int(d) for d in arr] for arr in direct.per_worker]

    path = tmp_path / "storage.json"
    path.write_text(out)
    code, out2, _ = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--profile-file", str(path), "--oracle"]
    )
    assert code == 0
    solved = json.loads(out2)
    assert solved["mode"] == "exact"
    assert solved["oracle"]["value"] == solved["cStar"]


def test_solve_profile_file_reads_only_schema_version_1(tmp_path, capsys):
    # the file's schemaVersion used to be ignored, and a negative seed loaded
    storage = generate_decentralized(10, 4, 3, seed=2).to_json_obj()
    path = tmp_path / "storage.json"
    solve = ["solve", "--speeds", "1,2,3", "--profile-file", str(path)]
    outputs = []
    for obj in ({"schemaVersion": 1, "storage": storage}, {"storage": storage}, storage):
        path.write_text(json.dumps(obj))
        code, out, _ = _run(capsys, solve)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    for obj, message in (
        ({"schemaVersion": 2, "storage": storage}, "schemaVersion: unsupported version 2"),
        ({"schemaVersion": True, "storage": storage}, "schemaVersion: unsupported version True"),
        ({**storage, "schemaVersion": "1"}, "schemaVersion: unsupported version '1'"),
        ({"schemaVersion": 1, "storage": {**storage, "seed": -1}}, "seed must be >= 0, got -1"),
    ):
        path.write_text(json.dumps(obj))
        assert _run(capsys, solve) == (2, "", f"error: {message}\n")


def test_profile_exact_past_twenty_workers(capsys):
    code, out, _ = _run(capsys, ["profile", "--K", "64", "--M", "32", "--N", "21", "--exact"])
    assert code == 0
    profile = json.loads(out)["profile"]
    total = sum(F(v) for v in profile["classSizes"].values())
    assert total == F(profile["cumulative"][21])
    code, _, err = _run(capsys, ["profile", "--K", "4", "--M", "2", "--N", "63", "--exact"])
    assert code == 2 and "62 workers" in err


def test_profile_refuses_what_solve_would_refuse(capsys):
    # a storage file with no datasets would only fail later, in solve --profile-file
    code, out, err = _run(capsys, ["profile", "--K", "0", "--M", "0", "--N", "2"])
    assert (code, out) == (2, "")
    assert "K must be >= 1" in err


def test_profile_refuses_a_negative_seed(capsys):
    code, out, err = _run(capsys, ["profile", "--K", "10", "--M", "4", "--N", "3", "--seed", "-1"])
    assert (code, out, err) == (2, "", "error: seed must be >= 0, got -1\n")


def test_solve_alpha_one_past_the_class_map_limit(capsys):
    # nothing is stored, so there is nothing to solve at any fleet size;
    # above 22 workers a formula profile refuses to materialize its classes
    code, out, _ = _run(capsys, ["solve", "--alpha", "1", "--speeds", ",".join(["1"] * 23)])
    assert code == 0
    obj = json.loads(out)
    assert obj["cStar"] == {"frac": "0/1", "decimal": 0.0}
    assert obj["perVmLoad"] == [{"frac": "0/1", "decimal": 0.0}] * 23
    assert obj["loads"] == []


def test_readme_worker_limits_name_their_constants():
    # each row of the README's worker-limits table: the limit, then the module constant setting it
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (\d+) \| `(\w+)\.(\w+)` \|", readme, re.MULTILINE)
    assert [name for _, _, name in rows] == [
        "ORACLE_MAX_WORKERS", "CLASS_MAP_MAX_WORKERS", "MASK_MAX_WORKERS"
    ]
    for limit, module, name in rows:
        assert getattr(importlib.import_module(f"dusec.{module}"), name) == int(limit)



def test_readme_scenario_example_simulates(tmp_path, capsys):
    # the README's scenario file runs as printed: an exact step with a
    # straggler, so the run encodes, drops vm2 and decodes the aggregate
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```json\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    path = tmp_path / "scenario.json"
    path.write_text(block, encoding="utf-8")
    report = tmp_path / "report.json"
    code, _, err = _run(
        capsys, ["simulate", "--scenario", str(path), "--out", str(tmp_path / "r.csv"), "--json", str(report)]
    )
    assert code == 0, err
    (step,) = json.loads(report.read_text(encoding="utf-8"))["steps"]
    assert step["taskValue"] is not None

def test_profile_file_past_the_oracle_cap(tmp_path, capsys):
    storage = generate_decentralized(200, 100, 13, seed=13)
    path = tmp_path / "storage.json"
    path.write_text(json.dumps(storage.to_json_obj()))
    argv = ["solve", "--speeds", ",".join(str(i % 5 + 1) for i in range(13)), "--profile-file", str(path)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    inst = ProblemInstance(K=200, M=100, speeds=[F(i % 5 + 1) for i in range(13)])
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    assert feasible_at(inst, prof, 1, F(obj["cStar"]["frac"]))
    code, out, err = _run(capsys, argv + ["--oracle"])
    assert code == 2 and out == ""
    assert "N=13 exceeds 12" in err


def test_oracle_cap_is_checked_before_solving(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran before the oracle cap check")

    for name in ("assign_loads", "flow_assign", "redundant_assign"):
        monkeypatch.setattr(simulator, name, refuse)
    path = tmp_path / "storage.json"
    path.write_text(json.dumps(generate_decentralized(40, 20, 13, seed=3).to_json_obj()))
    speeds = ",".join(str(i + 1) for i in range(13))
    for source in (["--alpha", "2"], ["--profile-file", str(path)]):
        for extra in ([], ["--straggler", "1,1"]):
            argv = ["solve", "--speeds", speeds, *source, *extra, "--oracle"]
            code, out, err = _run(capsys, argv)
            assert code == 2 and out == ""
            assert "N=13 exceeds 12" in err


def test_profile_file_with_unsorted_speeds(tmp_path, capsys):
    path = tmp_path / "storage.json"
    path.write_text(json.dumps({"K": 4, "M": 2, "N": 3, "perVm": [[0, 1], [0, 1], [2, 3]]}))
    code, out, _ = _run(
        capsys, ["solve", "--speeds", "9,1,1", "--profile-file", str(path), "--oracle"]
    )
    assert code == 0
    obj = json.loads(out)
    # the third worker (speed 1) alone holds datasets 2 and 3, half the data
    assert obj["cStar"]["frac"] == "1/2"
    assert obj["oracle"]["value"]["frac"] == "1/2"


@st.composite
def _storages(draw):
    """A measured placement and its speeds, both in the caller's worker order."""
    n = draw(st.integers(1, 6))
    K = draw(st.integers(1, 12))
    M = draw(st.one_of(st.just(0), st.just(K), st.integers(0, K)))
    per_worker = tuple(
        np.array(sorted(draw(st.permutations(range(K)))[:M]), dtype=np.int64)
        for _ in range(n)
    )
    # a small pool forces ties; list order is the caller's, so usually unsorted
    speeds = draw(st.lists(
        st.sampled_from([F(1), F(3, 2), F(2), F(5)]), min_size=n, max_size=n
    ))
    return ExplicitStorage(K=K, M=M, per_worker=per_worker), speeds


def _placement(K, M, per_worker, speeds):
    arrays = tuple(np.array(datasets, dtype=np.int64) for datasets in per_worker)
    return ExplicitStorage(K=K, M=M, per_worker=arrays), [F(s) for s in speeds]


@settings(max_examples=25, deadline=None)
@given(case=_storages())
@example(case=_placement(4, 0, [[], [], []], ["2", "1", "2"]))
@example(case=_placement(3, 3, [[0, 1, 2]] * 3, ["5", "3/2", "1"]))
@example(case=_placement(6, 3, [[0, 1, 2], [2, 3, 4], [0, 4, 5], [1, 3, 5]], ["2", "1", "5", "1"]))
def test_solve_profile_file_equals_oracle(case):
    storage, speeds = case
    inst = ProblemInstance(K=storage.K, M=storage.M, speeds=speeds)
    prof = exact_profile(storage.subset([i + 1 for i in inst.source_order]))
    n = inst.N
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "storage.json"
        path.write_text(json.dumps({"storage": storage.to_json_obj()}))
        argv = ["solve", "--profile-file", str(path),
                "--speeds", ",".join(map(str, speeds)), "--oracle"]
        runs = [(1, argv)] + [
            (s + m, argv + ["--straggler", f"{s},{m}"])
            for s in range(n + 1) for m in range(1, n + 2 - s)
        ]
        for r, args in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(args)
            if r > n:
                assert code == 2
                continue
            assert code == 0
            obj = json.loads(out.getvalue())
            assert F(obj["cStar"]["frac"]) == lp_oracle(inst, filtered_for_redundancy(prof, r), r)
            shares = {(x["n"], x["classMask"]): F(x["share"]) for x in obj["loads"]}
            asg = LoadAssignment(n_workers=n, redundancy=r, shares=shares)
            assert validate(inst, prof, asg) == []


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["solve", "--speeds", "1,2"])  # neither --alpha nor --profile-file
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["solve", "--speeds", "1,x", "--alpha", "2"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.run(["nosuchcommand"])
    assert exc.value.code == 1
    for straggler in ("1", "1,2,3", "1,x"):
        with pytest.raises(SystemExit) as exc:
            cli.run(["solve", "--speeds", "1,2", "--alpha", "2", "--straggler", straggler])
        assert exc.value.code == 1
        assert "expected s,m integers" in capsys.readouterr().err


@pytest.mark.parametrize("speeds", ["1,,2", "1,2,", ",1,2", "", " , "])
def test_empty_speed_entry_is_a_usage_error(speeds, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["solve", "--speeds", speeds, "--alpha", "2"])
    assert exc.value.code == 1
    assert "comma-separated speed list" in capsys.readouterr().err


def test_speed_entries_may_carry_spaces(capsys):
    code, out, _ = _run(capsys, ["solve", "--speeds", " 1 , 3/2,9 ", "--alpha", "3/2"])
    assert code == 0
    assert json.loads(out)["speedsSorted"] == ["1/1", "3/2", "9/1"]


@pytest.mark.parametrize(
    "source",
    [
        ["--alpha", "7/3"],
        ["--profile-file", "STORAGE"],
        ["--alpha", "5/2", "--straggler", "1,1"],
        ["--profile-file", "STORAGE", "--straggler", "1,2"],
    ],
)
def test_per_vm_load_sums_the_share_table(source, tmp_path, capsys):
    path = tmp_path / "storage.json"
    path.write_text(json.dumps(generate_decentralized(60, 36, 6, seed=21).to_json_obj()))
    argv = ["solve", "--speeds", "3,1/2,7/3,2,5,1", *[str(path) if a == "STORAGE" else a for a in source]]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    sums = [F(0)] * obj["n"]
    for row in obj["loads"]:
        sums[row["n"] - 1] += F(row["share"])
    assert any(sums)
    assert [F(x["frac"]) for x in obj["perVmLoad"]] == sums


def test_validation_errors_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, ["solve", "--speeds", "1,2", "--alpha", "1/2"])
    assert code == 2 and "alpha" in err
    code, _, err = _run(
        capsys, ["simulate", "--scenario", "missing.json", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "exact"}')
    code, _, err = _run(
        capsys, ["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    # three-worker storage fed a two-speed fleet
    storage = generate_decentralized(10, 4, 3, seed=0)
    prof = tmp_path / "p.json"
    prof.write_text(json.dumps({"storage": storage.to_json_obj()}))
    code, _, err = _run(
        capsys, ["solve", "--speeds", "1,2", "--profile-file", str(prof)]
    )
    assert code == 2 and "workers" in err


def test_share_rows_are_written_from_the_assignment():
    shares = {(1, 1): F(1, 8), (2, 3): F(1, 8), (2, 2): F(0), (1, 3): F(1, 16)}
    asg = LoadAssignment(n_workers=2, redundancy=1, shares=shares)
    rows = json.loads(cli._dumps({"loads": asg}))["loads"]
    assert rows == [  # sorted by (worker, mask); the zero share is not written
        {"n": 1, "classMask": 1, "share": "1/8"},
        {"n": 1, "classMask": 3, "share": "1/16"},
        {"n": 2, "classMask": 3, "share": "1/8"},
    ]
    assert all(list(row) == ["n", "classMask", "share"] for row in rows)


_big = st.integers(min_value=-(1 << 80), max_value=1 << 80)
_fracs = st.builds(F, _big, _big.filter(bool))
_frac_json = _fracs.map(lambda x: {"frac": f"{x.numerator}/{x.denominator}", "decimal": float(x)})


@st.composite
def _solve_objects(draw):
    """A `solve` output: the object for the writer and its json.dumps reference."""
    n = draw(st.integers(1, 4))
    obj = {
        "schemaVersion": 1,
        "mode": draw(st.sampled_from(["exact", "asymptotic"])),
        "n": n,
        "speedsSorted": draw(st.lists(_fracs.map(str), min_size=n, max_size=n)),
        "sourceOrder": draw(st.permutations(range(n))),
    }
    if draw(st.booleans()):
        obj["redundancy"] = draw(st.integers(1, n))
        obj["excludedClasses"] = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=3))
    obj["cStar"] = draw(_frac_json)
    obj["nStar"] = draw(st.integers(1, n))
    obj["perVmTime"] = draw(st.lists(_frac_json, min_size=n, max_size=n))
    obj["perVmLoad"] = draw(st.lists(_frac_json, min_size=n, max_size=n))
    cells = st.tuples(st.integers(1, n), st.integers(1, (1 << n) - 1))
    shares = draw(st.dictionaries(cells, _fracs, max_size=draw(st.sampled_from([0, 1, 6]))))
    asg = LoadAssignment(n_workers=n, redundancy=1, shares=shares)
    obj["loads"] = asg
    ref = dict(obj, loads=[
        {"n": w, "classMask": m, "share": f"{v.numerator}/{v.denominator}"}
        for w, m, v in asg.sorted_items()
    ])
    if draw(st.booleans()):
        ref["oracle"] = obj["oracle"] = {"checked": True, "value": draw(_frac_json)}
    return obj, ref


@settings(max_examples=200, deadline=None)
@given(case=_solve_objects())
def test_writer_matches_json_dumps(case):
    obj, ref = case
    assert cli._dumps(obj) == json.dumps(ref, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [[]], {"a": {}}, [1, True, None, 2.5, "x\n\u00e9"], {"a": [1, [2, {"b": ()}]]},
    {"k": float("inf"), "j": (3, 4)}, [{"a": 1}, 2],
])
def test_writer_matches_json_dumps_on_mixed_values(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_decimal_overflow_exits_2(tmp_path, capsys):
    code, out, err = _run(capsys, ["solve", "--speeds", "1e-400,1", "--alpha", "2"])
    assert (code, out) == (2, "")
    assert "too large for a decimal" in err
    scenario = json.loads(
        (Path(cli.__file__).parent / "scenarios" / "paper_example.json").read_text()
    )
    scenario["steps"][1]["speeds"]["vm3"] = "1e-400"
    path, csv = tmp_path / "s.json", tmp_path / "x.csv"
    path.write_text(json.dumps(scenario))
    code, out, err = _run(capsys, ["simulate", "--scenario", str(path), "--out", str(csv)])
    assert (code, out) == (2, "")
    assert "too large for a decimal" in err
    assert not csv.exists()


def test_oracle_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lp_oracle", lambda *a, **k: F(1, 3))
    code, out, err = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"]
    )
    assert code == 3
    assert "mismatch" in err
    obj = json.loads(out)  # the result is still printed for inspection
    assert obj["oracle"]["value"]["frac"] == "1/3"


def test_oracle_missing_the_bottleneck_set_exits_3(capsys, monkeypatch):
    # lp_oracle runs no flow, so a zeta transform that misses the maximizing
    # set yields a tight but too-low value; the comparison with the solver catches it
    def slowest_alone(instance, classes, r):
        return oracle._locked_ratio(instance, classes, r, 0b1), 0b1

    monkeypatch.setattr(oracle, "_bottleneck", slowest_alone)
    code, out, err = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"]
    )
    assert code == 3
    assert "oracle mismatch: solver 15/208 vs oracle " in err
    obj = json.loads(out)
    assert F(obj["oracle"]["value"]["frac"]) < F(obj["cStar"]["frac"]) == F(15, 208)


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = _run(
        capsys,
        ["simulate", "--scenario", "elastic_10step.json", "--out", str(out1), "--json", str(j1)],
    )
    assert code == 0
    code, _, _ = _run(
        capsys,
        ["simulate", "--scenario", "elastic_10step.json", "--out", str(out2), "--json", str(j2)],
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert j1.read_bytes() == j2.read_bytes()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dusec", "solve", "--speeds", "1,3,9", "--alpha", "3/2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cStar"]["frac"] == "4/27"


def test_parser_reuse_carries_no_option_over(capsys, tmp_path):
    csv, js = tmp_path / "r.csv", tmp_path / "r.json"
    calls = [
        ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--straggler", "1,1"],
        ["simulate", "--scenario", "paper_example.json", "--out", str(csv), "--json", str(js)],
        ["solve", "--speeds", "1,2,5,5", "--alpha", "2"],
    ]
    in_process = []
    for argv in calls:
        code, out, err = _run(capsys, argv)
        files = csv.read_bytes() + js.read_bytes() if argv[0] == "simulate" else b""
        in_process.append((code, out, err, files))
    assert cli._build_parser() is cli._build_parser()
    assert "redundancy" in in_process[0][1] and "redundancy" not in in_process[2][1]
    for argv, seen in zip(calls, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "dusec", *argv], capture_output=True, text=True
        )
        files = csv.read_bytes() + js.read_bytes() if argv[0] == "simulate" else b""
        assert (proc.returncode, proc.stdout, proc.stderr, files) == seen, argv
