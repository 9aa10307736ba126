"""Seeded workloads for the dusec benchmark.

Each workload turns a seed into a schedule of snapshots and knows how to
prepare one snapshot (untimed), run it as one operation through dusec's
public entry points (timed), and check the result (untimed, in verify.py).

Schedules are join/leave walks over a worker catalog.  Within one pass the
fleet grows one worker at a time from the smallest to the largest size,
holds there while workers restart with new speeds, and shrinks back.  The
seed picks which worker joins or leaves, the speeds, and every payload;
the pass shape fixes how many snapshots of each size a pass holds, so runs
with different seeds measure the same mix of problem sizes.  Per-snapshot
settings that change the cost a lot (alpha, the straggler config, the
message length) rotate with the snapshot index instead of being drawn, so
every size sees each setting equally often whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import dusec
import dusec.cli

SPEED_RANGE = (1, 50)


def fleet_walk(rng: random.Random, catalog_size: int, pass_sizes: tuple[int, ...]):
    """Endless join/leave walk; yields (workers in join order, their speeds).

    Fleet sizes follow ``pass_sizes`` round after round; consecutive sizes
    differ by at most one.  A join draws a fresh speed; a step at the same
    size restarts one worker with a new speed (it rejoins at the end of the
    order).  Speeds may tie.
    """
    members = rng.sample(range(catalog_size), pass_sizes[-1])
    speeds = {w: rng.randint(*SPEED_RANGE) for w in members}
    while True:
        for target in pass_sizes:
            if target > len(members):
                joiner = rng.choice([w for w in range(catalog_size) if w not in speeds])
                members.append(joiner)
                speeds[joiner] = rng.randint(*SPEED_RANGE)
            elif target < len(members):
                leaver = rng.choice(members)
                members.remove(leaver)
                del speeds[leaver]
            else:
                restarted = rng.choice(members)
                members.remove(restarted)
                members.append(restarted)
                speeds[restarted] = rng.randint(*SPEED_RANGE)
            yield tuple(members), tuple(speeds[w] for w in members)


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dusec.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One scheduled operation: its index, fleet size and payload."""

    index: int
    n: int
    snap: object
    prepared: object = None


class Workload:
    """Seeded schedule plus prepare/call hooks; subclasses fill them in.

    ``PASS`` lists the fleet size of each snapshot in one pass.  It is laid
    out so that the median and the tail percentile fall inside a block of
    equal sizes, not on the edge between two, where a seed's draws would
    move them from one size to the next.  ``ops_per_run`` is a whole number
    of passes.  Operations run several times each (see run.py), which keeps
    a run near 25 s only with fewer than the 100 operations a p90 with ten
    samples beyond it needs; the tail is then a lower percentile.
    """

    name = ""
    PASS: tuple = ()
    catalog_size = 0
    ops_per_run = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._snaps = self._snapshots()
        self._made: list[Op] = []

    def _snapshots(self):
        raise NotImplementedError

    @property
    def pass_len(self) -> int:
        return len(self.PASS)

    def op(self, index: int) -> Op:
        """Operation ``index`` of the schedule (generated in order, kept)."""
        while len(self._made) <= index:
            n, snap = next(self._snaps)
            self._made.append(Op(len(self._made), n, snap))
        return self._made[index]

    def prepare(self, op: Op) -> None:
        """Untimed per-operation set-up (files, payloads)."""

    def release(self, op: Op) -> None:
        """Drop a prepared payload that is cheap to rebuild."""

    def call(self, op: Op):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def collect(self, op: Op, raw):
        """Untimed: turn the raw result into the output that gets verified."""
        return raw


@dataclass(frozen=True)
class FormulaSnap:
    alpha: str
    speeds: tuple[int, ...]


class FormulaSolve(Workload):
    name = "formula-solve"
    ALPHAS = ("3/2", "2", "3")
    # median mid-way through the N=6 block, tail (p83 at 60 ops) mid-way
    # through the N=8 block
    PASS = (3, 4, 5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 8, 8, 7, 6, 6, 5, 5, 4)
    catalog_size = 9
    ops_per_run = 3 * len(PASS)

    def _snapshots(self):
        walk = fleet_walk(_rng(self.name, self.seed, "walk"), self.catalog_size, self.PASS)
        for i, (members, speeds) in enumerate(walk):
            yield len(members), FormulaSnap(self.ALPHAS[i % len(self.ALPHAS)], speeds)

    def call(self, op: Op):
        snap = op.snap
        return run_cli(["solve", "--alpha", snap.alpha,
                        "--speeds", ",".join(map(str, snap.speeds))])


@dataclass(frozen=True)
class MeasuredSnap:
    workers: tuple[int, ...]  # catalog indices, in the storage file's order
    speeds: tuple[int, ...]  # same order as the file, not sorted


class MeasuredSolve(Workload):
    name = "measured-solve"
    K, M = 16000, 8000
    # median in the N=8 block, tail (p76 at 42 ops) in the N=10 block
    PASS = (4, 5, 6, 7, 8, 8, 8, 9, 10, 10, 11, 12, 11, 11, 10, 9, 8, 7, 7, 6, 5)
    catalog_size = 12
    ops_per_run = 2 * len(PASS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.catalog = dusec.generate_decentralized(self.K, self.M, self.catalog_size, seed=seed)

    def _snapshots(self):
        walk = fleet_walk(_rng(self.name, self.seed, "walk"), self.catalog_size, self.PASS)
        for members, speeds in walk:
            yield len(members), MeasuredSnap(members, speeds)

    def storage(self, snap: MeasuredSnap):
        """The available workers' storage, in the file's (join) order."""
        return self.catalog.subset([w + 1 for w in snap.workers])

    def profile_file(self, op: Op) -> Path:
        return self.workdir / f"storage_{op.index}.json"

    def prepare(self, op: Op) -> None:
        path = self.profile_file(op)
        if not path.exists():  # written once, reused by the operation's later runs
            obj = {"schemaVersion": 1, "storage": self.storage(op.snap).to_json_obj()}
            path.write_text(json.dumps(obj), encoding="utf-8")

    def call(self, op: Op):
        return run_cli(["solve", "--profile-file", str(self.profile_file(op)),
                        "--speeds", ",".join(map(str, op.snap.speeds))])


class MeasuredFlow(MeasuredSolve):
    """measured-solve's pass shape, catalog and storage files, solved
    through the library in sorted-speed order: the speeds go in unsorted, and the storage
    read from F is reordered with ``storage.subset`` and ``source_order``, as
    ``simulator`` and coded-round do.  It runs the same storage, profile and
    r = 1 flow layers without the CLI's ``--profile-file`` glue, which has
    the ordering defect measured-solve counts."""

    name = "measured-flow"

    def call(self, op: Op):
        with open(self.profile_file(op), encoding="utf-8") as fh:
            storage = dusec.ExplicitStorage.from_json_obj(json.load(fh)["storage"])
        instance = dusec.ProblemInstance(K=storage.K, M=storage.M, speeds=op.snap.speeds)
        ordered = storage.subset([i + 1 for i in instance.source_order])
        return instance, dusec.flow_assign(instance, dusec.exact_profile(ordered), redundancy=1)


@dataclass(frozen=True)
class CodedSnap:
    workers: tuple[int, ...]
    speeds: tuple[int, ...]
    s: int
    m: int
    length: int
    stragglers: tuple[int, ...]  # catalog indices that stay silent
    message_seed: int


@dataclass
class CodedPayload:
    instance: object
    storage: object
    config: object
    messages: dict
    straggler_slots: frozenset  # sorted-speed worker numbers that stay silent


class CodedRound(Workload):
    name = "coded-round"
    K, M = 1440, 720
    # median in the N=7 block, tail (p73 at 40 ops) inside the N=8 block
    PASS = (5, 6, 7, 7, 8, 8, 9, 8, 7, 6)
    CONFIGS = ((1, 1), (1, 2), (2, 2))
    LENGTHS = (256, 512, 768)
    catalog_size = 9
    ops_per_run = 4 * len(PASS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.catalog = dusec.generate_decentralized(self.K, self.M, self.catalog_size, seed=seed)

    def _snapshots(self):
        rng = _rng(self.name, self.seed, "round")
        walk = fleet_walk(_rng(self.name, self.seed, "walk"), self.catalog_size, self.PASS)
        for i, (members, speeds) in enumerate(walk):
            # the pass length is not a multiple of 3, so every position in
            # the pass meets each config in turn
            s, m = self.CONFIGS[i % len(self.CONFIGS)]
            count = rng.randint(0, s)
            silent = rng.sample(members, count)
            if count and rng.random() < 0.5:
                # some rounds lose the fastest worker, the costliest survivor to lose
                fastest = max(members, key=lambda w: speeds[members.index(w)])
                if fastest not in silent:
                    silent[0] = fastest
            yield len(members), CodedSnap(
                members, speeds, s, m, self.LENGTHS[i // len(self.CONFIGS) % len(self.LENGTHS)],
                tuple(sorted(silent)), rng.getrandbits(32),
            )

    def prepare(self, op: Op) -> None:
        snap = op.snap
        instance = dusec.ProblemInstance(K=self.K, M=self.M, speeds=snap.speeds)
        storage = self.catalog.subset([snap.workers[i] + 1 for i in instance.source_order])
        config = dusec.StragglerConfig(s=snap.s, m=snap.m)
        r = config.redundancy
        counts = storage.class_counts()
        covered = [mask for mask in range(1, 1 << instance.N)
                   if counts[mask] and mask.bit_count() >= r]
        gen = np.random.Generator(np.random.Philox(snap.message_seed))
        block = gen.integers(0, config.field_modulus, size=(len(covered), snap.length))
        messages = {mask: row for mask, row in zip(covered, block.tolist())}
        slot_of = {snap.workers[i]: slot for slot, i in enumerate(instance.source_order, 1)}
        op.prepared = CodedPayload(instance, storage, config, messages,
                                   frozenset(slot_of[w] for w in snap.stragglers))

    def release(self, op: Op) -> None:
        op.prepared = None

    def call(self, op: Op):
        pay = op.prepared
        profile = dusec.exact_profile(pay.storage)
        plan = dusec.redundant_assign(pay.instance, profile, pay.config)
        sent = dusec.encode(plan.assignment, pay.config, pay.messages)
        survivors = [t for t in sent if t.vm_index not in pay.straggler_slots]
        return plan, dusec.decode(survivors, pay.config, pay.instance.N)


@dataclass(frozen=True)
class SimSnap:
    scenario: str  # bundled name, or the file a generated scenario is written to
    generated: dict | None = None


class Simulate(Workload):
    name = "simulate"
    # a bundled scenario name, or the mode of a freshly generated scenario
    PASS = ("paper_example.json", "elastic_10step.json", "asymptotic", "exact", "asymptotic", "exact")
    K = 1680  # divisible by N, N/2 and C(N, 2) for every even N <= 8
    STEP_SIZES = (2, 4, 6, 8)
    catalog_size = 8
    ops_per_run = 8 * len(PASS)  # 48: the tail is the p79, in the asymptotic block

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out_csv = workdir / "report.csv"
        self.out_json = workdir / "report.json"

    def generate(self, rng: random.Random, mode: str) -> dict:
        """Scenario in the bundled format, one step of each even fleet size
        (so the repetition baseline, r = 2, divides every step) in seeded
        order: every generated scenario of a mode does the same work."""
        ids = [f"g{i}" for i in range(self.catalog_size)]
        catalog = {v: {"seed": rng.getrandbits(31), "storageFraction": "1/2"} for v in ids}
        sizes = list(self.STEP_SIZES)
        rng.shuffle(sizes)
        steps = []
        for size in sizes:
            available = rng.sample(ids, size)
            speeds = {v: str(Fraction(rng.randint(2, 100), 2)) for v in available}
            steps.append({"available": available, "speeds": speeds})
        return {
            "schemaVersion": 1,
            "mode": mode,
            "K": self.K,
            "vmCatalog": catalog,
            "steps": steps,
            "baselines": [
                {"kind": "cyclic", "replication": 2},
                {"kind": "repetition", "replication": 2},
                {"kind": "man", "replication": 2},
            ],
        }

    def _snapshots(self):
        rng = _rng(self.name, self.seed, "scenarios")
        index = 0
        while True:
            for entry in self.PASS:
                if entry.endswith(".json"):
                    yield 0, SimSnap(entry)
                else:
                    path = self.workdir / f"generated_{index}.json"
                    yield 0, SimSnap(str(path), self.generate(rng, entry))
                index += 1

    def prepare(self, op: Op) -> None:
        if op.snap.generated is not None:
            Path(op.snap.scenario).write_text(json.dumps(op.snap.generated, indent=1),
                                              encoding="utf-8")

    def call(self, op: Op):
        return run_cli(["simulate", "--scenario", op.snap.scenario,
                        "--out", str(self.out_csv), "--json", str(self.out_json)])

    def collect(self, op: Op, raw):
        rc, out, err = raw
        if rc != 0:
            return rc, out, err, b"", b""
        return rc, out, err, self.out_csv.read_bytes(), self.out_json.read_bytes()


WORKLOADS = {w.name: w for w in (FormulaSolve, MeasuredFlow, CodedRound, Simulate, MeasuredSolve)}
