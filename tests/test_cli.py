import contextlib
import io
import json
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
from dusec.model import LoadAssignment, ProblemInstance, validate
from dusec.oracle import lp_oracle
from dusec.storage import ExplicitStorage, exact_profile, generate_decentralized
from dusec.straggler import filtered_for_redundancy


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


def test_profile_exact_past_twenty_workers(capsys):
    code, out, _ = _run(capsys, ["profile", "--K", "64", "--M", "32", "--N", "21", "--exact"])
    assert code == 0
    profile = json.loads(out)["profile"]
    total = sum(F(v) for v in profile["classSizes"].values())
    assert total == F(profile["cumulative"][21])
    code, _, err = _run(capsys, ["profile", "--K", "4", "--M", "2", "--N", "63", "--exact"])
    assert code == 2 and "62 workers" in err


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


def test_oracle_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "lp_oracle", lambda *a, **k: F(1, 3))
    code, out, err = _run(
        capsys, ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"]
    )
    assert code == 3
    assert "mismatch" in err
    obj = json.loads(out)  # the result is still printed for inspection
    assert obj["oracle"]["value"]["frac"] == "1/3"


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
