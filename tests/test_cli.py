import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dusec.cli as cli
from dusec.storage import generate_decentralized


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
