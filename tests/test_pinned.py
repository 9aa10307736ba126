"""Exact outputs of the coding round, the oracle, the simulator and the CLI,
pinned by sha256: their arithmetic may change, their results may not."""

import hashlib
import random
from fractions import Fraction as F

import dusec.cli as cli
from dusec.model import ProblemInstance
from dusec.oracle import InfeasibleRedundancy, flow_assign, lp_oracle
from dusec.storage import exact_profile, generate_decentralized
from dusec.straggler import (
    StragglerConfig,
    decode,
    encode,
    redundant_assign,
)
from coding_reference import reference_vector

_MODULI = (7919, (1 << 31) - 1, (1 << 61) - 1)


def _placement(rng, seed):
    """A seeded measured placement, class masks in sorted-speed order."""
    n = rng.randint(2, 7)
    K = rng.choice((12, 30, 60))
    M = rng.randint(1, K - 1)
    speeds = [F(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(n)]
    instance = ProblemInstance(K=K, M=M, speeds=speeds)
    storage = generate_decentralized(K, M, n, seed=seed)
    return instance, exact_profile(storage.subset([i + 1 for i in instance.source_order]))


def test_coding_rounds_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(1501)
    for i in range(90):
        instance, profile = _placement(rng, 9000 + i)
        p = _MODULI[i % 3]
        s = rng.randint(0, min(2, instance.N - 1))
        config = StragglerConfig(s=s, m=rng.randint(1, instance.N - s), field_modulus=p)
        plan = redundant_assign(instance, profile, config)
        part_len = rng.randint(1, 3)
        messages = {
            mask: tuple(rng.randrange(p) for _ in range(config.m * part_len))
            for mask in sorted(plan.assignment.class_totals())
        }
        if not messages:  # every class excluded: nothing to encode
            digest.update(repr(plan.excluded_classes).encode())
            continue
        sent = encode(plan.assignment, config, messages)
        survivors = rng.sample(sent, instance.N - s)
        digest.update(
            repr((
                [(t.vm_index, t.coded_vector, sorted(t.encoding_row.items())) for t in sent],
                [reference_vector(t, messages, p, part_len) for t in sent],
                decode(survivors, config, instance.N),
            )).encode()
        )
    assert digest.hexdigest() == (
        "e2bcad0af02ca11d4a37971f0da8bafca222ccabb8dbedaff536edeaaeb1cbe5"
    )


def test_oracle_and_flow_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(1502)
    for i in range(150):
        instance, profile = _placement(rng, 8000 + i)
        for r in range(1, instance.N + 1):
            try:
                outcome = [lp_oracle(instance, profile, redundancy=r)]
            except InfeasibleRedundancy as exc:
                outcome = [exc.class_masks]
            try:
                assignment, time = flow_assign(instance, profile, redundancy=r)
                outcome += [list(assignment.shares.items()), time]
            except InfeasibleRedundancy as exc:
                outcome += [exc.class_masks]
            digest.update(repr((r, outcome)).encode())
    assert digest.hexdigest() == (
        "1a7c8c193883849b41035a59e47baab1bc02410c964e0e6f6f27d2fbfc25a1eb"
    )


def test_simulate_reports_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for name in ("paper_example.json", "elastic_10step.json"):
        csv, js = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert cli.run(["simulate", "--scenario", name, "--out", str(csv), "--json", str(js)]) == 0
        digest.update(csv.read_bytes() + js.read_bytes())
    assert digest.hexdigest() == (
        "bab9221c9ad8064b21037ca4f5e06b4821d5439ee7005b58c3d935242cbed520"
    )


def test_cli_output_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    """`dusec solve` and `dusec profile`: stdout, stderr and exit code, byte for byte."""
    profile = tmp_path / "storage.json"
    cases = [
        ["profile", "--K", "40", "--M", "20", "--N", "4", "--seed", "5", "--exact"],
        ["profile", "--K", "30", "--M", "12", "--N", "6", "--seed", "2"],
        ["profile", "--K", "60", "--M", "25", "--N", "7", "--seed", "3", "--exact"],
        ["solve", "--speeds", "1,2,5,5", "--alpha", "2"],
        ["solve", "--speeds", "7", "--alpha", "1"],  # N = 1, nothing stored: empty loads
        ["solve", "--speeds", "7", "--alpha", "5/2"],
        ["solve", "--speeds", "1,3,9", "--alpha", "1"],
        ["solve", "--speeds", "5,1/3,2,5,8,13/7", "--alpha", "7/4"],
        ["solve", "--speeds", "1,2,3,4,5,6,7,8,9", "--alpha", "9/7"],  # shares past 2^64
        ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"],
        ["solve", "--speeds", "1,100,100", "--alpha", "2", "--straggler", "1,1", "--oracle"],
        ["solve", "--speeds", "1,2,3,4,5", "--alpha", "3", "--straggler", "1,2"],
        ["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--straggler", "9,9"],
        ["solve", "--speeds", "5,1,2,5", "--profile-file", profile],
        ["solve", "--speeds", "5,1,2,5", "--profile-file", profile, "--oracle"],
        ["solve", "--speeds", "5,1,2,5", "--profile-file", profile, "--straggler", "1,1"],
    ]
    digest = hashlib.sha256()

    def record(argv):
        code = cli.run([str(a) for a in argv])
        out, err = capsys.readouterr()
        if argv[0] == "profile" and argv[2] == "40":
            profile.write_text(out)
        label = ["PROFILE" if a is profile else a for a in argv]
        digest.update(repr((label, code, out, err)).encode())

    for argv in cases:
        record(argv)
    # the exit-3 path prints the result, with "oracle" after "loads", before failing
    monkeypatch.setattr(cli, "lp_oracle", lambda *a, **k: F(1, 3))
    record(["solve", "--speeds", "1,2,5,5", "--alpha", "2", "--oracle"])
    record(["solve", "--speeds", "5,1,2,5", "--profile-file", profile, "--oracle"])
    assert digest.hexdigest() == (
        "86f85bfece5542c9b3fe38344b2a8786426d2761cc6c53b5b72c36e32fab7a91"
    )
