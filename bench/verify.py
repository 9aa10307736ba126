"""Untimed checks of every benchmark operation.

Each checker returns a list of failure causes (empty when the operation is
correct).  Expected values come from ``lp_oracle`` on correctly ordered
inputs: workers sorted by speed, storage reordered to match with
``storage.subset([i + 1 for i in instance.source_order])``.  Oracle values
are cached per input, since schedules revisit inputs.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

import dusec

PAPER_EXAMPLE_STEP0 = Fraction(15, 208)

ORDERING_DEFECT = (
    "profile-file ordering defect: solve read the storage in file order but "
    "sorted the speeds, so class masks name the wrong workers"
)


def fingerprint(output) -> str:
    """Digest of an operation's output, to compare traced and untraced runs."""
    if isinstance(output, tuple) and output and isinstance(output[0], int):
        blob = repr(output).encode()
    elif isinstance(output[0], dusec.ProblemInstance):
        instance, (assignment, time) = output
        blob = repr((instance, time, assignment.sorted_items())).encode()
    else:
        plan, decoded = output
        blob = repr((
            plan.time, plan.excluded_classes,
            plan.assignment.sorted_items(), decoded,
        )).encode()
    return hashlib.sha256(blob).hexdigest()


def _assignment(obj: dict, n: int) -> dusec.LoadAssignment:
    shares = {(d["n"], d["classMask"]): Fraction(d["share"]) for d in obj["loads"]}
    return dusec.LoadAssignment(n_workers=n, redundancy=1, shares=shares)


def check_solve(instance, profile, obj: dict, expected: Fraction) -> list[str]:
    """A CLI solve result against the sorted-order instance and profile."""
    return check_plan(instance, profile, _assignment(obj, instance.N),
                      Fraction(obj["cStar"]["frac"]), expected)


def check_plan(instance, profile, assignment, c_star: Fraction, expected: Fraction) -> list[str]:
    """Loads and c* against the sorted-order instance and profile."""
    causes = []
    if dusec.validate(instance, profile, assignment):
        causes.append("loads violate coverage/bounds/domain")
    times = [load / s for load, s in zip(assignment.per_worker_loads(), instance.speeds)]
    if max(times) != c_star:
        causes.append("largest per-worker time differs from cStar")
    if c_star != expected:
        causes.append("cStar differs from lp_oracle")
    return causes


def _solve_output(output) -> tuple[dict | None, list[str]]:
    rc, out, err = output[:3]
    if rc != 0:
        return None, [f"exit code {rc}: {err.strip()[:120]}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


class FormulaVerifier:
    def __init__(self):
        self.oracle: dict = {}

    def __call__(self, workload, op, output) -> list[str]:
        obj, causes = _solve_output(output)
        if obj is None:
            return causes
        alpha = Fraction(op.snap.alpha)
        instance = dusec.ProblemInstance.from_alpha(alpha, op.snap.speeds)
        profile = dusec.profile_from_alpha(alpha, instance.N)
        key = (op.snap.alpha, instance.speeds)
        if key not in self.oracle:
            self.oracle[key] = dusec.lp_oracle(instance, profile)
        return check_solve(instance, profile, obj, self.oracle[key])


class MeasuredVerifier:
    def __init__(self):
        self.oracle: dict = {}

    def expected(self, workload, snap):
        """(sorted instance, its profile, lp_oracle optimum) of a snapshot."""
        instance = dusec.ProblemInstance(K=workload.K, M=workload.M, speeds=snap.speeds)
        in_file_order = workload.storage(snap)
        sorted_storage = in_file_order.subset([i + 1 for i in instance.source_order])
        profile = dusec.exact_profile(sorted_storage)
        key = (snap.workers, snap.speeds)
        if key not in self.oracle:
            self.oracle[key] = dusec.lp_oracle(instance, profile)
        return instance, profile, self.oracle[key]

    def __call__(self, workload, op, output) -> list[str]:
        obj, causes = _solve_output(output)
        if obj is None:
            return causes
        snap = op.snap
        instance, profile, expected = self.expected(workload, snap)
        in_file_order = workload.storage(snap)
        causes = check_solve(instance, profile, obj, expected)
        if causes and instance.source_order != tuple(range(instance.N)):
            # name the known cause when the loads are a valid plan for the
            # storage read in file order, paired with the sorted speeds
            file_profile = dusec.exact_profile(in_file_order)
            if not check_solve(instance, file_profile, obj, Fraction(obj["cStar"]["frac"])):
                causes = [f"{c} [{ORDERING_DEFECT}]" for c in causes]
        return causes


class MeasuredFlowVerifier(MeasuredVerifier):
    def __call__(self, workload, op, output) -> list[str]:
        _, (assignment, time) = output
        instance, profile, expected = self.expected(workload, op.snap)
        return check_plan(instance, profile, assignment, time.c_star, expected)


class CodedVerifier:
    def __call__(self, workload, op, output) -> list[str]:
        _, decoded = output
        pay = op.prepared
        # residues are below 2^31 and there are under 2^9 classes: int64 is exact
        rows = np.asarray(list(pay.messages.values()), dtype=np.int64)
        expected = tuple((rows.sum(axis=0) % pay.config.field_modulus).tolist())
        return [] if tuple(decoded) == expected else ["decoded vector differs from the message sum mod p"]


class SimulateVerifier:
    def __init__(self):
        self.first_csv: dict[str, bytes] = {}
        self.expected: dict[str, list[Fraction]] = {}

    def __call__(self, workload, op, output) -> list[str]:
        rc, out, err, csv_bytes, json_bytes = output
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[:120]}"]
        name = op.snap.scenario
        causes = []
        first = self.first_csv.setdefault(name, csv_bytes)
        if csv_bytes != first:
            causes.append("CSV differs from the first run of this scenario")
        steps = json.loads(json_bytes)["steps"]
        got = [Fraction(step["cStar"]["frac"]) for step in steps]
        if name == "paper_example.json" and got[:1] != [PAPER_EXAMPLE_STEP0]:
            causes.append(f"paper_example step 0 cStar {got[:1]} is not 15/208")
        if name not in self.expected:
            self.expected[name] = scenario_optima(_scenario_text(name))
        if got != self.expected[name]:
            causes.append("a step's cStar differs from lp_oracle")
        return causes


def _scenario_text(name: str) -> str:
    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    return resources.files("dusec").joinpath("scenarios", name).read_text(encoding="utf-8")


def scenario_optima(text: str) -> list[Fraction]:
    """lp_oracle optimum of every step of a scenario (no straggler block)."""
    scenario = dusec.load_scenario(json.loads(text))
    timeline = scenario.timeline
    out = []
    stored = {}
    for step in timeline.steps:
        order = sorted(step.available, key=lambda v: (step.speeds[v], v))
        fraction = timeline.vm_catalog[order[0]].fraction
        speeds = [step.speeds[v] for v in order]
        if timeline.K is not None:
            instance = dusec.ProblemInstance(K=timeline.K, M=int(fraction * timeline.K), speeds=speeds)
        else:
            instance = dusec.ProblemInstance(K=fraction.denominator, M=fraction.numerator, speeds=speeds)
        if scenario.mode is dusec.ProfileMode.EXACT:
            for v in order:
                if v not in stored:
                    entry = timeline.vm_catalog[v]
                    stored[v] = (np.asarray(entry.datasets, dtype=np.int64)
                                 if entry.datasets is not None
                                 else dusec.generate_worker_subset(timeline.K, instance.M, entry.seed))
            storage = dusec.ExplicitStorage(K=instance.K, M=instance.M,
                                            per_worker=tuple(stored[v] for v in order))
            profile = dusec.exact_profile(storage)
        else:
            profile = dusec.profile_from_alpha(instance.alpha, instance.N)
        out.append(dusec.lp_oracle(instance, profile))
    return out


VERIFIERS = {
    "formula-solve": FormulaVerifier,
    "measured-flow": MeasuredFlowVerifier,
    "coded-round": CodedVerifier,
    "simulate": SimulateVerifier,
    "measured-solve": MeasuredVerifier,
}
