"""Tests of the benchmark itself: generators, tracing, verifiers, statistics."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import tracing
import verify
import workloads

ROOT = Path(run.__file__).resolve().parents[1]


def _make(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir)


def _snaps(workload, count):
    return [(op.n, op.snap) for op in map(workload.op, range(count))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    first = _make(name, 5, tmp_path / "a")
    again = _make(name, 5, tmp_path / "b")
    other = _make(name, 6, tmp_path / "c")
    count = 2 * first.pass_len
    # generated scenario paths name their workdir; compare the content
    strip = lambda snaps: [(n, getattr(s, "generated", s)) for n, s in snaps]  # noqa: E731
    assert strip(_snaps(first, count)) == strip(_snaps(again, count))
    assert strip(_snaps(first, count)) != strip(_snaps(other, count))
    if hasattr(first, "catalog"):
        assert all((a == b).all() for a, b in zip(first.catalog.per_worker, again.catalog.per_worker))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pass_shape_holds_for_every_seed(name, tmp_path):
    wl = _make(name, 11, tmp_path)
    if name != "simulate":
        sizes = [op.n for op in map(wl.op, range(3 * wl.pass_len))]
        assert sizes == list(wl.PASS) * 3
        assert all(abs(a - b) <= 1 for a, b in zip(wl.PASS, wl.PASS[1:] + wl.PASS[:1]))


# cheap operations of each workload: small fleets, one exact generated scenario
CHEAP = {"formula-solve": [0, 1, 2], "measured-flow": [0], "measured-solve": [0], "coded-round": [0],
         "simulate": [0, 3]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(name, tmp_path):
    import dusec.cli
    import dusec.oracle

    originals = (dusec.cli.run, dusec.cli.flow_assign, dusec.ExplicitStorage.from_json_obj)
    wl = _make(name, 3, tmp_path)
    check = verify.VERIFIERS[name]()
    plain = [run.run_op(wl, check, wl.op(i)) for i in CHEAP[name]]
    tracer = tracing.Tracer()
    tracer.install()
    assert dusec.cli.flow_assign is not originals[1]
    try:
        traced = [run.run_op(wl, check, wl.op(i), tracer) for i in CHEAP[name]]
    finally:
        tracer.uninstall()
    assert [p[2] for p in plain] == [t[2] for t in traced]
    assert all(not p[1] or name == "measured-solve" for p in plain)
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert "bench.op" in names and len(names) > 2
    assert not tracing.op_consistency(tracer.spans)
    assert (dusec.cli.run, dusec.cli.flow_assign, dusec.ExplicitStorage.from_json_obj) == originals


def test_tracer_follows_calls_between_modules(tmp_path):
    wl = _make("measured-solve", 3, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_op(wl, verify.VERIFIERS["measured-solve"](), wl.op(0), tracer)
    finally:
        tracer.uninstall()
    by_name = {rec[tracing.NAME]: rec for rec in tracer.spans}
    for child in ("storage.from_json_obj", "storage.exact_profile", "oracle.flow_assign"):
        parent = tracer.spans[by_name[child][tracing.PARENT]]
        assert parent[tracing.NAME] == "cli.run"
    assert by_name["oracle.flow_assign"][tracing.SIZES] == {"N": 4, "K": 16000, "r": 1}
    assert by_name["oracle.flow_assign"][tracing.RESULT] == {"subsets_enumerated": 15}


def test_computed_counts_repeat_for_a_seed(tmp_path):
    def counts(tag):
        wl = _make("formula-solve", 9, tmp_path / tag)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i in CHEAP["formula-solve"]:
                run.run_op(wl, verify.VERIFIERS["formula-solve"](), wl.op(i), tracer)
        finally:
            tracer.uninstall()
        units = tracing.metric_units()
        layer = tracing.layer_metrics(tracer.spans, 3, set(CHEAP["formula-solve"]))
        return {k: v for k, v in layer.items() if units[k] in ("count", "bits")}

    first = counts("a")
    assert first == counts("b")
    assert first["optimizer.assign_loads.calls"] == 3 and first["optimizer.shares"] > 0


def test_verifier_flags_perturbed_cstar(tmp_path):
    wl = _make("formula-solve", 1, tmp_path)
    op = wl.op(2)
    rc, out, err = wl.call(op)
    check = verify.FormulaVerifier()
    assert check(wl, op, (rc, out, err)) == []
    obj = json.loads(out)
    c = Fraction(obj["cStar"]["frac"]) * Fraction(1001, 1000)
    obj["cStar"]["frac"] = f"{c.numerator}/{c.denominator}"
    causes = check(wl, op, (rc, json.dumps(obj), err))
    assert "cStar differs from lp_oracle" in causes
    assert "largest per-worker time differs from cStar" in causes
    obj = json.loads(out)
    obj["loads"][0]["share"] = "0/1" if obj["loads"][0]["share"] != "0/1" else "1/1"
    assert check(wl, op, (rc, json.dumps(obj), err))


def test_verifier_flags_corrupted_decoded_element(tmp_path):
    wl = _make("coded-round", 1, tmp_path)
    op = wl.op(0)
    wl.prepare(op)
    plan, decoded = wl.call(op)
    check = verify.CodedVerifier()
    assert check(wl, op, (plan, decoded)) == []
    bad = list(decoded)
    bad[len(bad) // 2] = (bad[len(bad) // 2] + 1) % op.prepared.config.field_modulus
    assert check(wl, op, (plan, tuple(bad))) == ["decoded vector differs from the message sum mod p"]


def test_verifier_flags_simulate_changes(tmp_path):
    wl = _make("simulate", 1, tmp_path)
    op = wl.op(0)
    output = wl.collect(op, wl.call(op))
    check = verify.SimulateVerifier()
    assert check(wl, op, output) == []
    rc, out, err, csv_bytes, json_bytes = output
    obj = json.loads(json_bytes)
    obj["steps"][0]["cStar"]["frac"] = "16/208"
    causes = check(wl, op, (rc, out, err, csv_bytes.replace(b"0.07", b"0.08"), json.dumps(obj).encode()))
    assert len(causes) == 3


class _OneFile:
    """Stand-in measured workload: the README's three-worker storage file."""

    K, M = 4, 2

    def storage(self, snap):
        import dusec

        return dusec.ExplicitStorage.from_json_obj({"K": 4, "M": 2, "N": 3, "perVm": [[0, 1], [0, 1], [2, 3]]})


def test_verifier_names_the_profile_file_ordering_defect(tmp_path):
    path = tmp_path / "storage.json"
    path.write_text(json.dumps({"K": 4, "M": 2, "N": 3, "perVm": [[0, 1], [0, 1], [2, 3]]}))
    op = workloads.Op(0, 3, workloads.MeasuredSnap((0, 1, 2), (9, 1, 1)))
    output = workloads.run_cli(["solve", "--profile-file", str(path), "--speeds", "9,1,1"])
    causes = verify.MeasuredVerifier()(_OneFile(), op, output)
    assert any(c.startswith("cStar differs from lp_oracle") for c in causes)
    assert all(verify.ORDERING_DEFECT in c for c in causes)
    sorted_op = workloads.Op(0, 3, workloads.MeasuredSnap((0, 1, 2), (1, 1, 9)))
    output = workloads.run_cli(["solve", "--profile-file", str(path), "--speeds", "1,1,9"])
    assert verify.MeasuredVerifier()(_OneFile(), sorted_op, output) == []


def test_measured_flow_solves_the_defect_example_and_flags_a_wrong_cstar(tmp_path):
    import dusec

    wl = _OneFile()
    wl.profile_file = lambda op: tmp_path / "storage.json"
    wl.profile_file(None).write_text(json.dumps(
        {"storage": {"K": 4, "M": 2, "N": 3, "perVm": [[0, 1], [0, 1], [2, 3]]}}))
    op = workloads.Op(0, 3, workloads.MeasuredSnap((0, 1, 2), (9, 1, 1)))
    instance, (assignment, time) = workloads.MeasuredFlow.call(wl, op)
    assert time.c_star == Fraction(1, 2)
    check = verify.MeasuredFlowVerifier()
    assert check(wl, op, (instance, (assignment, time))) == []
    wrong = dusec.TimeResult(c_star=Fraction(1, 4), n_star=time.n_star,
                             per_worker_time=time.per_worker_time)
    causes = check(wl, op, (instance, (assignment, wrong)))
    assert "cStar differs from lp_oracle" in causes


@pytest.mark.parametrize("n, percent, index", [
    (100, 90.0, 89),  # p90 with exactly ten beyond
    (104, 90.38461538461539, 93),
    (99, 89.8989898989899, 88),  # p90 would leave nine beyond: keep ten
    (54, 81.48148148148148, 43),
    (11, 9.090909090909092, 0),
    (5, 100.0, 4),  # too few: the maximum
])
def test_tail_percentile_rule(n, percent, index):
    assert run.tail_index(n) == (percent, index)
    if n > 10:
        assert n - 1 - index == 10 or (index == 89 and n == 100)


def test_scaled_latency_uses_each_runs_calibration():
    rec = run.Record(0, [0.1, 0.2, 0.3], [], None, 0,
                     cals=[run.CAL_REF_S, 2 * run.CAL_REF_S, run.CAL_REF_S])
    assert run.op_latency(rec) == 0.2
    assert run.op_latency(rec, scaled=True) == pytest.approx(0.1)
    rec.latencies[1] = None
    assert run.op_latency(rec, scaled=True) is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == sorted(tracing.metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    # measured-solve is runnable but left out until the ordering defect is fixed
    assert [w["name"] for w in spec["workloads"]] + ["measured-solve"] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["op_p50_ms", "op_p90_ms", "ops_per_s", "setup_s", "peak_rss_mb"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
