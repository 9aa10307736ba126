"""Elastic timeline simulation with centralized placement baselines.

A timeline is a catalog of workers (each with frozen storage, fixed the
first time it appears) plus a sequence of steps naming which workers are
up, their current speeds, and optionally which of them straggle.  Every
step is solved independently: workers are sorted by speed (ties by vm
id), the step's storage-class profile is built, and ``solve_snapshot``,
which also serves ``dusec solve``, picks the solver and runs it.

Every scenario rule, the integer rule ``check_count`` included, lives in
the types; ``load_scenario`` checks the JSON shapes and hands the raw values
on, so a scenario built in code meets the same rules as one read from a file.

Baselines rebuild classical centralized placements (cyclic, repetition,
all-subsets) on the same fleet each step.  A placement is known by its
blocks' holders, so its class profile has one class per holder set.  On
these three placements the slowest k workers lock the most load any k
workers can, so the profile's optimum is the largest prefix ratio, the
first group time of the staircase that ``optimal_time`` and the flow
search's start share; no flow runs for a baseline.  A step reports times
only, so no share table is built: exact steps run ``flow_time``, the
Newton flow search read for its time result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .model import (
    SCHEMA_VERSION,
    ClassProfile,
    ProblemInstance,
    ProfileMode,
    StructureError,
    TimeResult,
    UnitMap,
    as_decimal,
    as_fraction,
    check_count,
    check_schema_version,
    frac_json,
    is_int,
)
from .optimizer import _staircase, assign_loads, optimal_time
from .oracle import flow_assign, flow_time
from .storage import (
    ExplicitStorage,
    exact_profile,
    generate_worker_subset,
    profile_from_alpha,
)
from .straggler import (
    DEFAULT_FIELD_MODULUS,
    CodingConfigError,
    StragglerConfig,
    StragglerPlan,
    decode,
    encode,
    redundant_assign,
)

BASELINE_KINDS = ("cyclic", "repetition", "man")


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input; message names the path."""


class ConfigurationError(ValueError):
    """Baseline parameters incompatible with the fleet (divisibility etc.)."""


def _fraction_at(obj, path: str) -> Fraction:
    try:
        return as_fraction(obj)
    except (StructureError, ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}: not a rational number ({obj!r})") from exc


@dataclass(frozen=True)
class CatalogEntry:
    """One worker's frozen storage: either an integer seed to draw it, or
    the explicit dataset list, a tuple of integer ids.  ``fraction`` is the
    stored share M/K, coerced to a Fraction as :func:`as_fraction` does."""

    fraction: Fraction
    seed: int | None = None
    datasets: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.seed is None) == (self.datasets is None):
            raise ScenarioError("catalog entry needs exactly one of seed/datasets")
        object.__setattr__(self, "fraction", _fraction_at(self.fraction, "fraction"))
        if not 0 <= self.fraction <= 1:
            raise ScenarioError(f"storage fraction {self.fraction} outside [0, 1]")
        if self.seed is not None:
            check_count("seed", self.seed, low=0, error=ScenarioError)
        if self.datasets is not None and not (
            isinstance(self.datasets, tuple) and all(map(is_int, self.datasets))
        ):
            raise ScenarioError(f"datasets: expected a tuple of integers, got {self.datasets!r}")


@dataclass(frozen=True)
class TimelineStep:
    """The vms up in one step, their speeds (coerced to Fractions as
    :func:`as_fraction` does) and the vms among them that straggle."""

    available: tuple[str, ...]
    speeds: Mapping[str, Fraction]
    stragglers: frozenset[str] = frozenset()

    def __post_init__(self):
        if not isinstance(self.speeds, Mapping):
            raise ScenarioError(f"speeds: expected a mapping, got {self.speeds!r}")
        speeds = {vm_id: _fraction_at(s, f"speeds.{vm_id}") for vm_id, s in self.speeds.items()}
        object.__setattr__(self, "speeds", speeds)


@dataclass(frozen=True)
class ElasticTimeline:
    """Steps over a worker catalog.  K, when given, is a positive integer,
    and every explicit catalog entry lists fraction * K distinct dataset
    ids in [0, K).  Each step names known, distinct vms, each with a
    positive speed; its stragglers are among them; with K given, fraction *
    K is whole for every vm a step names."""

    vm_catalog: Mapping[str, CatalogEntry]
    steps: tuple[TimelineStep, ...]
    K: int | None = None

    def __post_init__(self):
        if self.K is not None:
            check_count("K", self.K, error=ScenarioError)
        for vm_id, entry in self.vm_catalog.items():
            if self.K is None or entry.datasets is None:
                continue
            path, ds = f"vmCatalog.{vm_id}.datasets", entry.datasets
            if ds and (min(ds) < 0 or max(ds) >= self.K):
                raise ScenarioError(f"{path}: dataset id outside [0, {self.K})")
            if len(set(ds)) != len(ds):
                raise ScenarioError(f"{path}: duplicate dataset id")
            if len(ds) != entry.fraction * self.K:
                raise ScenarioError(
                    f"{path}: {len(ds)} ids, but fraction {entry.fraction} times K={self.K} "
                    f"is {entry.fraction * self.K}"
                )
        if not self.steps:
            raise ScenarioError("steps: timeline has no steps")
        for i, step in enumerate(self.steps):
            path = f"steps[{i}]"
            if not step.available:
                raise ScenarioError(f"{path}.available: expected a non-empty array")
            if len(set(step.available)) != len(step.available):
                raise ScenarioError(f"{path}.available: duplicate vm id")
            for vm_id in step.available:
                if vm_id not in self.vm_catalog:
                    raise ScenarioError(f"{path}.available: unknown vm {vm_id!r}")
                if vm_id not in step.speeds:
                    raise ScenarioError(f"{path}.speeds: missing speed for {vm_id!r}")
                if step.speeds[vm_id] <= 0:
                    raise ScenarioError(f"{path}.speeds.{vm_id}: speed must be positive")
                fraction = self.vm_catalog[vm_id].fraction
                if self.K is not None and (fraction * self.K).denominator != 1:
                    raise ScenarioError(
                        f"{path}: fraction {fraction} times K={self.K} is not an integer"
                    )
            for vm_id in sorted(step.stragglers, key=repr):
                if vm_id not in step.available:
                    raise ScenarioError(f"{path}.stragglers: {vm_id!r} is not available this step")


@dataclass(frozen=True)
class StepReport:
    step_index: int
    vm_ids: tuple[str, ...]  # available workers, slowest first
    time: TimeResult  # per-worker times in vm_ids order
    coverage: Fraction
    task_value: tuple[int, ...] | None
    baseline_times: Mapping[str, Fraction]

    def to_json_obj(self) -> dict:
        return {
            "step": self.step_index,
            "nAvailable": len(self.vm_ids),
            "vmIds": list(self.vm_ids),
            **self.time.to_json_obj(),
            "coverage": frac_json(self.coverage),
            "taskValue": list(self.task_value) if self.task_value is not None else None,
            "baselines": {k: frac_json(v) for k, v in sorted(self.baseline_times.items())},
        }


@dataclass(frozen=True)
class Scenario:
    """A timeline and how to run it.  Baselines are (kind in ``BASELINE_KINDS``,
    positive integer replication) pairs.  K is required in exact mode and with
    baselines; a step's stragglers need a straggler block and number at most
    its s; every step uses one storage fraction."""

    timeline: ElasticTimeline
    mode: ProfileMode
    straggler: StragglerConfig | None = None
    baselines: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.mode, ProfileMode):
            raise ScenarioError(f"mode: expected a ProfileMode, got {self.mode!r}")
        if self.straggler is not None and not isinstance(self.straggler, StragglerConfig):
            raise ScenarioError(f"straggler: expected a StragglerConfig or None, got {self.straggler!r}")
        for i, pair in enumerate(self.baselines):
            path = f"baselines[{i}]"
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] in BASELINE_KINDS):
                raise ScenarioError(f"{path}: expected {{kind: one of {BASELINE_KINDS}, replication}}")
            check_count(f"{path}.replication", pair[1], error=ScenarioError)
        if self.timeline.K is None:
            if self.mode is ProfileMode.EXACT:
                raise ScenarioError("K: required in exact mode")
            if self.baselines:
                raise ScenarioError("K: required when baselines are requested")
        catalog = self.timeline.vm_catalog
        for i, step in enumerate(self.timeline.steps):
            if step.stragglers and self.straggler is None:
                raise ScenarioError(f"steps[{i}].stragglers: set but scenario has no straggler config")
            if self.straggler is not None and len(step.stragglers) > self.straggler.s:
                k, s = len(step.stragglers), self.straggler.s
                raise ScenarioError(f"steps[{i}]: {k} stragglers exceed the configured s={s}")
            fractions = {catalog[v].fraction for v in step.available}
            if len(fractions) != 1:
                raise ScenarioError(
                    f"steps[{i}]: storage fractions differ across available vms "
                    f"({sorted(map(str, fractions))})"
                )


def load_scenario(obj: dict) -> Scenario:
    """Parse a scenario object (see README for the format).

    This checks the JSON shapes and hands the raw values to the types, which
    check the integers, the baselines and the straggler budget; a catalog
    entry's or the straggler block's refusal is prefixed with its JSON path.
    """
    if not isinstance(obj, dict):
        raise ScenarioError("scenario: expected a JSON object")
    check_schema_version(obj, error=ScenarioError)
    mode_raw = obj.get("mode")
    if mode_raw not in ("exact", "asymptotic"):
        raise ScenarioError(f"mode: must be 'exact' or 'asymptotic', got {mode_raw!r}")
    mode = ProfileMode(mode_raw)
    K = obj.get("K")
    if K is not None:  # the datasets entries divide by it
        check_count("K", K, error=ScenarioError)

    catalog_raw = obj.get("vmCatalog")
    if not isinstance(catalog_raw, dict) or not catalog_raw:
        raise ScenarioError("vmCatalog: expected a non-empty object")
    catalog: dict[str, CatalogEntry] = {}
    for vm_id, entry in catalog_raw.items():
        path = f"vmCatalog.{vm_id}"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{path}: expected an object")
        seed = entry.get("seed")
        datasets = entry.get("datasets")
        if seed is not None and datasets is not None:
            raise ScenarioError(f"{path}: give either 'seed' or 'datasets', not both")
        if datasets is not None and entry.get("storageFraction") is not None:
            raise ScenarioError(f"{path}: 'datasets' sets the storage fraction; drop 'storageFraction'")
        if datasets is not None:
            if K is None:
                raise ScenarioError(f"{path}.datasets: explicit datasets require K")
            if not isinstance(datasets, list) or not all(map(is_int, datasets)):
                raise ScenarioError(f"{path}.datasets: expected an array of integers")
            fraction, datasets = Fraction(len(datasets), K), tuple(sorted(datasets))
        elif seed is None:
            raise ScenarioError(f"{path}: needs 'seed' or 'datasets'")
        else:
            fraction = _fraction_at(entry.get("storageFraction"), f"{path}.storageFraction")
        try:
            catalog[vm_id] = CatalogEntry(fraction=fraction, seed=seed, datasets=datasets)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    steps_raw = obj.get("steps")
    if not isinstance(steps_raw, list) or not steps_raw:
        raise ScenarioError("steps: expected a non-empty array")
    straggler_raw = obj.get("straggler")
    straggler = None
    if straggler_raw is not None:
        if not isinstance(straggler_raw, dict):
            raise ScenarioError("straggler: expected an object")
        try:
            straggler = StragglerConfig(
                s=straggler_raw.get("s", 0),
                m=straggler_raw.get("m", 1),
                field_modulus=straggler_raw.get("fieldModulus", DEFAULT_FIELD_MODULUS),
            )
        except CodingConfigError as exc:
            raise ScenarioError(f"straggler: {exc}") from exc

    steps: list[TimelineStep] = []
    for i, step_raw in enumerate(steps_raw):
        path = f"steps[{i}]"
        if not isinstance(step_raw, dict):
            raise ScenarioError(f"{path}: expected an object")
        available = step_raw.get("available")
        if not isinstance(available, list):
            raise ScenarioError(f"{path}.available: expected a non-empty array")
        stragglers = step_raw.get("stragglers", [])
        if not isinstance(stragglers, list):
            raise ScenarioError(f"{path}.stragglers: expected an array")
        for field, vm_ids in (("available", available), ("stragglers", stragglers)):
            for vm_id in vm_ids:
                if not isinstance(vm_id, str):
                    raise ScenarioError(f"{path}.{field}: vm id must be a string, got {vm_id!r}")
        speeds_raw = step_raw.get("speeds")
        if not isinstance(speeds_raw, dict):
            raise ScenarioError(f"{path}.speeds: expected an object")
        speeds = {
            vm_id: _fraction_at(speeds_raw[vm_id], f"{path}.speeds.{vm_id}")
            for vm_id in available
            if vm_id in speeds_raw
        }
        steps.append(
            TimelineStep(
                available=tuple(available),
                speeds=speeds,
                stragglers=frozenset(stragglers),
            )
        )

    baselines_raw = obj.get("baselines", [])
    if not isinstance(baselines_raw, list):
        raise ScenarioError("baselines: expected an array")
    baselines = []
    for i, b in enumerate(baselines_raw):
        if not isinstance(b, dict):
            raise ScenarioError(f"baselines[{i}]: expected an object")
        baselines.append((b.get("kind"), b.get("replication")))

    timeline = ElasticTimeline(vm_catalog=catalog, steps=tuple(steps), K=K)
    return Scenario(timeline=timeline, mode=mode, straggler=straggler, baselines=tuple(baselines))


def _catalog_storage(timeline: ElasticTimeline) -> dict[str, np.ndarray]:
    """Storage of every worker some step names, drawn once, in order of first
    appearance; the timeline's K must be set."""
    K = timeline.K
    storage: dict[str, np.ndarray] = {}
    for step in timeline.steps:
        for vm_id in step.available:
            if vm_id in storage:
                continue
            entry = timeline.vm_catalog[vm_id]
            if entry.datasets is not None:
                arr = np.asarray(entry.datasets, dtype=np.int64)
                arr.setflags(write=False)
            else:
                arr = generate_worker_subset(K, int(entry.fraction * K), entry.seed)
            storage[vm_id] = arr
    return storage


def _step_instance(
    scenario: Scenario, step: TimelineStep, storage_cache: dict[str, np.ndarray]
) -> tuple[tuple[str, ...], ProblemInstance, ClassProfile]:
    """The step's vms slowest first (ties by id), its instance and its class
    profile.  K is the timeline's, or the storage fraction's denominator
    when the timeline has none.
    """
    ids = sorted(step.available)
    timeline = scenario.timeline
    fraction = timeline.vm_catalog[ids[0]].fraction  # one per step (Scenario)
    K = fraction.denominator if timeline.K is None else timeline.K
    instance = ProblemInstance(K=K, M=int(fraction * K), speeds=[step.speeds[v] for v in ids])
    order = tuple(ids[i] for i in instance.source_order)
    if scenario.mode is ProfileMode.EXACT:
        per_worker = tuple(storage_cache[v] for v in order)
        profile = exact_profile(ExplicitStorage(K=K, M=instance.M, per_worker=per_worker, seed=None))
    else:
        profile = profile_from_alpha(instance.alpha, instance.N)
    return order, instance, profile


def solve_snapshot(
    instance: ProblemInstance,
    profile: ClassProfile,
    straggler: StragglerConfig | None = None,
    shares: bool = True,
) -> StragglerPlan:
    """The optimal plan for one fleet snapshot: ``redundant_assign`` with a
    straggler block, else ``flow_assign`` on a measured profile, else
    ``assign_loads``.  With ``shares=False`` no share table is built and the
    plan has no assignment: its time comes from ``flow_time`` on a measured
    profile and from the closed form ``optimal_time`` on a formula profile.
    Only straggler plans exclude classes.
    """
    if straggler is not None:
        return redundant_assign(instance, profile, straggler)
    assignment = None
    if profile.mode is ProfileMode.EXACT and shares:
        assignment, time = flow_assign(instance, profile, redundancy=1)
    elif profile.mode is ProfileMode.EXACT:
        time = flow_time(instance, profile)
    elif shares:
        assignment, time = assign_loads(instance, profile)
    else:
        time = optimal_time(instance, profile)
    return StragglerPlan(assignment=assignment, time=time, excluded_classes=())


def _demo_messages(masks: Sequence[int], config: StragglerConfig) -> dict[int, tuple[int, ...]]:
    """Deterministic per-class message vectors (one element per part)."""
    p = config.field_modulus
    return {
        mask: tuple((mask * 2654435761 + j) % p for j in range(config.m))
        for mask in masks
    }


def _run_step(
    scenario: Scenario,
    step: TimelineStep,
    step_index: int,
    storage_cache: dict[str, np.ndarray],
) -> StepReport:
    straggler = scenario.straggler
    order, instance, profile = _step_instance(scenario, step, storage_cache)
    task_value = None
    plan = solve_snapshot(instance, profile, straggler, shares=False)
    if straggler is not None:
        covered = {mask for _, mask in plan.assignment.shares}
        messages = _demo_messages(sorted(covered), straggler)
        task_value = ()
        if messages:
            transmissions = encode(plan.assignment, straggler, messages)  # one per vm, in order
            survivors = [t for t, v in zip(transmissions, order) if v not in step.stragglers]
            task_value = decode(survivors, straggler, instance.N)
            expected = tuple(sum(part) % straggler.field_modulus for part in zip(*messages.values()))
            if task_value != expected:
                raise AssertionError(
                    f"steps[{step_index}]: decoded aggregate does not match the message sum"
                )
    baseline_times: dict[str, Fraction] = {}
    for kind, r in scenario.baselines:
        try:
            _, value = baseline_assign(kind, r, instance)
        except ConfigurationError as exc:
            exc.args = (f"baseline {kind} r={r}: {exc}",)
            raise
        baseline_times[f"{kind}_r{r}"] = value
    return StepReport(
        step_index=step_index,
        vm_ids=order,
        time=plan.time,
        coverage=profile.cumulative[instance.N],
        task_value=task_value,
        baseline_times=baseline_times,
    )


def run_timeline(scenario: Scenario) -> tuple[StepReport, ...]:
    """Solve every step of the scenario's timeline independently, in step order.

    Storage is drawn once per catalog worker (first appearance) and reused
    across steps.  A step with more stragglers than the straggler block's s
    never gets here: :class:`Scenario` refuses it.
    """
    exact = scenario.mode is ProfileMode.EXACT
    storage_cache = _catalog_storage(scenario.timeline) if exact else {}
    reports = []
    for i, step in enumerate(scenario.timeline.steps):
        try:
            reports.append(_run_step(scenario, step, i, storage_cache))
        except ValueError as exc:  # a refusal names its step, and keeps its type and attributes
            exc.args = (f"steps[{i}]: {exc}",)
            raise
    return tuple(reports)


def baseline_assign(
    kind: str, replication: int, instance: ProblemInstance
) -> tuple[ClassProfile, Fraction]:
    """Centralized placement with replication factor r, priced by the staircase.

    cyclic: K/N contiguous blocks, worker n stores blocks n..n+r-1 (mod N).
    repetition: workers in N/r groups, each group stores its own K/(N/r) block.
    man: one block per r-subset of workers, stored by exactly that subset.

    All three give every worker rK/N datasets.  The block count must divide
    K (ConfigurationError otherwise; checked before any block is listed).
    The placement is its class profile: each block adds 1/#blocks to the
    class of the workers holding it.  No share table is built for it.

    The value is that profile's optimum T*, the largest locked(S)/speed(S)
    over worker sets S, where locked(S) is the load of the blocks held
    inside S.  Among the sets of k workers the k slowest have the smallest
    speed sum, and on these placements they also lock the most blocks:

    * man: locked(S) is C(|S|, r) blocks, so it depends on |S| alone;
    * repetition: the k slowest hold floor(k/r) whole groups, the most any
      k workers can hold;
    * cyclic: the ring runs in sorted-speed order.  A proper subset made of
      separated arcs of lengths L_i locks sum max(0, L_i - r + 1) <=
      max(0, k - r + 1) blocks, which is what the k slowest (one arc) lock,
      and all N workers lock every block.

    So T* is max over k of L(k)/S(k), the first group time of
    ``_staircase``, which is where the flow search would start T; the flow
    would saturate there, and no flow runs.
    """
    N, K, r = instance.N, instance.K, replication
    if kind not in BASELINE_KINDS:
        raise ConfigurationError(f"unknown baseline kind {kind!r}")
    check_count("replication", r, error=ConfigurationError)
    if r > N:
        raise ConfigurationError(f"replication {r} exceeds N = {N}")
    if kind == "repetition" and N % r:
        raise ConfigurationError(f"repetition needs r | N; got N={N}, r={r}")
    n_blocks = N if kind == "cyclic" else N // r if kind == "repetition" else comb(N, r)
    if K % n_blocks:
        raise ConfigurationError(f"{kind} needs its {n_blocks} blocks to divide K={K}")
    # holders[b]: the mask of the workers that store block b
    if kind == "cyclic":
        holders = [sum(1 << ((b - t) % N) for t in range(r)) for b in range(N)]
    elif kind == "repetition":
        holders = [((1 << r) - 1) << (g * r) for g in range(n_blocks)]
    else:  # man
        holders = [sum(1 << n for n in subset) for subset in combinations(range(N), r)]
    blocks: dict[int, int] = {}
    for mask in holders:  # cyclic at r = N puts every block in one class
        blocks[mask] = blocks.get(mask, 0) + 1
    profile = ClassProfile(n_workers=N, class_sizes=UnitMap(blocks, n_blocks))
    _, _, p, q = _staircase(*profile.cumulative_units, *instance.prefix_speed_units)[0]
    return profile, Fraction(p, q)


@dataclass(frozen=True)
class GradientDemoSpec:
    """Synthetic least-squares problem for the end-to-end demo."""

    n_features: int = 4
    n_samples: int = 256
    learning_rate: float = 0.05
    iterations: int = 60
    seed: int = 0

    def __post_init__(self):
        check_count("n_features", self.n_features, error=ScenarioError)
        check_count("n_samples", self.n_samples, error=ScenarioError)
        check_count("iterations", self.iterations, low=0, error=ScenarioError)
        check_count("seed", self.seed, low=0, error=ScenarioError)


def gradient_demo(timeline: ElasticTimeline, spec: GradientDemoSpec) -> np.ndarray:
    """Gradient descent where each iteration sees only the covered shards.

    The K datasets are contiguous shards of a synthetic least-squares
    problem.  Iteration i uses timeline step i (cycling); its gradient sums
    per-shard contributions in ascending shard order over the shards stored
    by at least one available worker, so full coverage reproduces the
    centralized computation bitwise and zero coverage leaves the model
    untouched.  Returns the loss before each update plus the final loss
    (length iterations + 1).
    """
    K = timeline.K
    if K is None:
        raise ScenarioError("K: required for the gradient demo")
    if spec.n_samples % K:
        raise ScenarioError(f"n_samples={spec.n_samples} must be divisible by K={K}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([spec.seed])))
    X = rng.standard_normal((spec.n_samples, spec.n_features))
    w_true = rng.standard_normal(spec.n_features)
    y = X @ w_true
    shard = spec.n_samples // K

    storage = _catalog_storage(timeline)
    covered_per_step = [
        np.asarray(sorted({int(d) for v in step.available for d in storage[v]}), dtype=np.int64)
        for step in timeline.steps
    ]

    w = np.zeros(spec.n_features)
    losses = []

    def loss(weights: np.ndarray) -> float:
        residual = X @ weights - y
        return 0.5 * float(residual @ residual) / spec.n_samples

    losses.append(loss(w))
    for it in range(spec.iterations):
        covered = covered_per_step[it % len(covered_per_step)]
        grad = np.zeros(spec.n_features)
        for k in covered:
            rows = slice(k * shard, (k + 1) * shard)
            grad = grad + X[rows].T @ (X[rows] @ w - y[rows])
        w = w - spec.learning_rate * (grad / spec.n_samples)
        losses.append(loss(w))
    return np.asarray(losses)


def reports_to_csv(reports: Sequence[StepReport]) -> str:
    """One row per step; rationals rendered as decimals for plotting."""
    baseline_keys = sorted({k for rep in reports for k in rep.baseline_times})
    header = ["step", "N_t", "cStar", "nStar", "coverage"] + [
        f"baseline_{k}" for k in baseline_keys
    ]
    lines = [",".join(header)]
    for rep in reports:
        row = [
            str(rep.step_index),
            str(len(rep.vm_ids)),
            format(as_decimal(rep.time.c_star), ".17g"),
            str(rep.time.n_star),
            format(as_decimal(rep.coverage), ".17g"),
        ]
        for k in baseline_keys:
            value = rep.baseline_times.get(k)
            row.append("" if value is None else format(as_decimal(value), ".17g"))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reports_to_json_obj(reports: Sequence[StepReport]) -> dict:
    """Exact mirror of the CSV: every rational as both p/q and decimal."""
    return {
        "schemaVersion": SCHEMA_VERSION,
        "steps": [rep.to_json_obj() for rep in reports],
    }
