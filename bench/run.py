#!/usr/bin/env python3
"""dusec benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload formula-solve --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``.  One process, one
client: the next operation starts only when the previous one has returned.
Every operation is checked, untimed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each operation untraced and traced and prints
the per-layer metrics.  The last line of stdout is one JSON object with the
result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The first four are the ones BENCHMARK.json lists.  measured-solve runs the
# CLI's --profile-file path, which gives wrong answers on unsorted speeds
# (ROADMAP item 2): it reports every such run as failed and prints
# "correct": false until that defect is fixed.
WORKLOAD_NAMES = ("formula-solve", "measured-flow", "coded-round", "simulate", "measured-solve")
MIN_RUNS, MAX_RUNS, REPEAT_S = 3, 7, 0.25  # see needs_repeat
SETUP_SAMPLES = 3  # this process plus two fresh ones, median reported
PROBE_TIMEOUT_S = 120
# The calibration's usual time on the reference host; see calibration().
# A run is scaled by the median of the calibrations within CAL_WINDOW runs
# of it, which follows the host's phases and not a single noisy sample.
CAL_REF_S, CAL_WINDOW = 0.004, 4


class ProgramMissing(RuntimeError):
    pass


def tail_index(n: int) -> tuple[float, int]:
    """(percentile, 0-based index into the sorted sample) for the tail latency.

    p90 by nearest rank when at least ten samples lie beyond it (n >= 100);
    otherwise the highest percentile that keeps ten beyond, and the maximum
    when there are ten samples or fewer.
    """
    if n < 1:
        raise ValueError("no samples")
    index = math.ceil(0.9 * n) - 1
    if n - 1 - index < 10:
        index = max(n - 11, 0) if n > 10 else n - 1
    return 100.0 * (index + 1) / n, index


def load_program():
    """Import dusec from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import dusec

    if Path(dusec.__file__).resolve().parent != (SRC / "dusec").resolve():
        raise ProgramMissing(f"imported dusec from {dusec.__file__}, not from {SRC}")


def timed_setup(name: str, seed: int, workdir: Path):
    """Import, seeded input generation and catalog draws, one warm-up op."""
    start = time.perf_counter()
    load_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    warm = workload.op(0)
    workload.prepare(warm)
    workload.collect(warm, workload.call(warm))
    workload.release(warm)
    return workload, time.perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter (import included)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def new_workdir(name: str, seed: int, tag: str) -> Path:
    path = OUT / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Record:
    index: int
    latencies: list  # seconds, one per run; None when the call raised
    causes: list
    fingerprint: str | None
    output_bytes: int
    failed_runs: int = 0
    cals: list = field(default_factory=list)  # smoothed calibration of each run


def calibration() -> float:
    """Seconds taken by a fixed pure-Python computation that shares no code
    with dusec: Fraction, dict and int arithmetic, the mix dusec's solvers
    run.  On the reference host the speed of such code swings by up to 1.8x
    between 10-second windows, in CPU time as much as in wall time; a timed
    call divided by calibrations taken around it swung by 1.1x.  The
    collector is off while it runs, so the heap a workload leaves behind
    does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        sums: dict = {}
        total = Fraction(0)
        for i in range(1, 320):
            f = Fraction(i, i % 7 + 1)
            sums[i & 63] = sums.get(i & 63, 0) + f
            total += f * f
        acc = 0
        for i in range(16000):
            acc += i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def output_bytes(output) -> int:
    """Bytes the CLI emitted: stdout plus any report files."""
    if isinstance(output, tuple) and output and isinstance(output[0], int):
        return len(output[1].encode()) + sum(len(b) for b in output[3:])
    return 0


def run_op(workload, verifier, op, tracer=None, reuse=None):
    """One operation: prepare, call (timed), collect and verify (untimed).

    Returns (latency in seconds or None if the call raised, failure causes,
    output fingerprint, output bytes).  With ``reuse``, an earlier run of
    the same operation: an identical output gets that run's verdict, a
    different one is a failure.
    """
    import tracing
    import verify

    latency, causes, digest, size = None, [], None, 0
    try:
        if tracer is None or not tracer.active:
            workload.prepare(op)
            t0 = time.perf_counter()
            raw = workload.call(op)
            latency = time.perf_counter() - t0
            output = workload.collect(op, raw)
            if reuse is None:
                causes = verifier(workload, op, output)
            elif verify.fingerprint(output) == reuse.fingerprint:
                causes = list(dict.fromkeys(reuse.causes))
            else:
                causes = ["output differs from the operation's first run"]
        else:
            with tracer.paused():
                workload.prepare(op)
            with tracer.span("bench.op", op.index, {"N": op.n}) as rec:
                raw = workload.call(op)
            latency = rec[tracing.END] - rec[tracing.START]
            with tracer.paused():
                output = workload.collect(op, raw)
                causes = verifier(workload, op, output)
        digest = verify.fingerprint(output)
        size = output_bytes(output)
    except Exception as exc:  # a failed operation is counted, not fatal
        causes = causes or [f"raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.finish_op()
        workload.release(op)
    return latency, causes, digest, size


def needs_repeat(rec: Record) -> bool:
    """An operation is due until it has MIN_RUNS runs; a shorter one runs again
    until it has REPEAT_S of run time or MAX_RUNS runs.  On the reference
    host a CPU-bound call varies by up to 2x from run to run, with a rare
    fast mode well below its usual time; the median of runs spread across
    the whole run is steady where the fastest run is not."""
    runs = len(rec.latencies)
    if runs < MIN_RUNS:
        return True
    done = [t for t in rec.latencies if t is not None]
    return runs < MAX_RUNS and len(done) == runs and sum(done) < REPEAT_S


def run_rounds(workload, verifier, seconds: float) -> list[Record]:
    """Closed loop: the first round runs the workload's ``ops_per_run``
    operations (whole passes, so every seed measures the same mix); later
    rounds re-run the operations that need more runs (see ``needs_repeat``),
    so an operation's runs are spread seconds apart, and then the least-run
    operations.  Re-runs stop when ``seconds`` have passed, so a slow host
    gives fewer runs, not a longer run.  An operation's latency is the
    median of its runs; it failed if any run failed."""
    records: list[Record] = []
    log: list[float] = []  # calibration() before every run, in run order
    slots: dict[int, list[int]] = {}  # op index -> positions of its runs in log
    start = time.perf_counter()

    def calibrated_run(op, reuse=None):
        log.append(calibration())
        slots.setdefault(op.index, []).append(len(log) - 1)
        return run_op(workload, verifier, op, reuse=reuse)

    for i in range(workload.ops_per_run):
        op = workload.op(i)
        latency, causes, digest, size = calibrated_run(op)
        records.append(Record(i, [latency], causes, digest, size, int(bool(causes))))
    while time.perf_counter() - start < seconds:
        due = [rec for rec in records if needs_repeat(rec)]
        if not due:
            spare = [rec for rec in records if len(rec.latencies) < MAX_RUNS]
            due = sorted(spare, key=lambda rec: len(rec.latencies))[:1]
        if not due:
            break
        for rec in due:
            if time.perf_counter() - start >= seconds:
                break
            latency, causes, digest, _ = calibrated_run(workload.op(rec.index), reuse=rec)
            rec.latencies.append(latency)
            rec.causes += causes
            rec.failed_runs += bool(causes)
    for rec in records:
        rec.cals = [statistics.median(log[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
                    for j in slots[rec.index]]
    return records


def op_latency(rec: Record, scaled: bool = False) -> float | None:
    """Median of an operation's runs; ``scaled`` puts each run at the
    reference host speed first: its time times CAL_REF_S over its smoothed
    calibration."""
    if any(t is None for t in rec.latencies):
        return None
    if scaled:
        return statistics.median(t * CAL_REF_S / c for t, c in zip(rec.latencies, rec.cals))
    return statistics.median(rec.latencies)


def median_latency(records: list[Record]) -> float:
    return statistics.median(t for t in map(op_latency, records) if t is not None)


def latency_metrics(records: list[Record], scaled: bool) -> tuple[dict, str]:
    lat = sorted(t for t in (op_latency(r, scaled) for r in records) if t is not None)
    pct, idx = tail_index(len(lat))
    return {
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * lat[idx], "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
    }, f"op_p90_ms is the p{pct:.4g} by nearest rank of {len(lat)} latencies, {len(lat) - 1 - idx} beyond it"


def failure_lines(records: list[Record]) -> list[str]:
    causes = Counter(c for r in records for c in r.causes)
    return [f"  {n} x {cause}" for cause, n in causes.most_common()]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(metrics: dict, attempted: int, failed: int, correct: bool, notes: list[str]) -> None:
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced(name: str, seed: int, seconds: float) -> None:
    workdir = new_workdir(name, seed, "run")
    try:
        workload, own = timed_setup(name, seed, workdir)
        setups = [own] + [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        import verify

        records = run_rounds(workload, verify.VERIFIERS[name](), seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(r.latencies) for r in records)
    failed = sum(r.failed_runs for r in records)
    metrics, tail_note = latency_metrics(records, scaled=True)
    raw, _ = latency_metrics(records, scaled=False)
    speed = statistics.median(CAL_REF_S / c for r in records for c in r.cals)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes = [
        f"workload {name} seed {seed}: {len(records)} ops in "
        f"{len(records) // workload.pass_len} passes of {workload.pass_len}, {attempted} runs "
        f"by one closed-loop client; an op's latency is the median of its runs",
        tail_note,
        f"times are at the reference host speed; this run's host ran at {speed:.4f}x it "
        f"(median CAL_REF_S / smoothed calibration), and the unscaled figures were "
        + ", ".join(f"{k} {v:.6f} {u}" for k, (v, u) in raw.items()),
        f"failed_frac {failed / attempted:.6f} frac ({failed} of {attempted} runs failed verification)",
    ] + failure_lines(records)
    emit(metrics, attempted, failed, failed == 0, notes)


def traced(name: str, seed: int, seconds: float) -> None:
    """Each operation runs twice in a row, untraced and traced, alternating
    which goes first, so drift in machine speed cancels out of the overhead."""
    workdir = new_workdir(name, seed, "traced")
    load_program()
    import tracing
    import verify
    import workloads

    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.span("bench.setup", "setup"):
            workload = workloads.WORKLOADS[name](seed, workdir)
        tracer.finish_op()
        verifier = verify.VERIFIERS[name]()
        with tracer.paused():
            run_op(workload, verifier, workload.op(0))  # warm-up
        plain, traced_records = [], []
        start = time.perf_counter()
        i = 0
        while not (i % workload.pass_len == 0 and i >= workload.pass_len
                   and time.perf_counter() - start >= seconds):
            op = workload.op(i)
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    latency, causes, digest, size = run_op(workload, verifier, op, tracer)
                    traced_records.append(Record(i, [latency], causes, digest, size))
                else:
                    with tracer.paused():
                        latency, causes, digest, size = run_op(workload, verifier, op)
                    plain.append(Record(i, [latency], causes, digest, size))
            i += 1
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"op {a.index}: traced output differs from the untraced run"
                for a, b in zip(plain, traced_records) if a.fingerprint != b.fingerprint]
    problems += tracing.op_consistency(tracer.spans)
    first_pass = set(range(workload.pass_len)) | {"setup"}
    layer = tracing.layer_metrics(tracer.spans, len(traced_records), first_pass)
    layer["cli.output_bytes"] = sum(r.output_bytes for r in traced_records[:workload.pass_len])
    layer["trace.overhead_frac"] = median_latency(traced_records) / median_latency(plain) - 1.0

    units = tracing.metric_units()
    counts = {k: v for k, v in layer.items() if units[k] in ("count", "bits", "bytes")}
    problems += check_counts_repeat(name, seed, counts)
    write_spans(name, seed, tracer.spans)

    records = plain + traced_records
    failed = sum(1 for r in records if r.causes)
    notes = [
        f"workload {name} seed {seed} traced: {i} ops, each run untraced and traced; "
        f"calls and computed counts cover pass 0 ({workload.pass_len} ops) and the set-up",
        f"failed_frac {failed / len(records):.6f} ({failed} of {len(records)} failed verification)",
    ] + failure_lines(records) + [f"  trace check: {p}" for p in problems]
    metrics = {k: (float(v), units[k]) for k, v in sorted(layer.items())}
    emit(metrics, len(records), failed, failed == 0 and not problems, notes)


def check_counts_repeat(name: str, seed: int, counts: dict) -> list[str]:
    """Computed counts must repeat exactly across runs of one seed."""
    path = OUT / f"counts-{name}-seed{seed}.json"
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        return [f"computed count {k} was {before.get(k)} on an earlier run, now {v}"
                for k, v in counts.items() if before.get(k) != v]
    path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return []


def write_spans(name: str, seed: int, spans: list) -> None:
    import tracing

    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i, rec in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": rec[tracing.NAME], "start": rec[tracing.START],
                "end": rec[tracing.END], "parent": rec[tracing.PARENT],
                "op": rec[tracing.OP], "sizes": rec[tracing.SIZES],
                "counts": rec[tracing.RESULT],
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "dusec" / "__init__.py").is_file():
            raise ProgramMissing(f"no dusec sources under {SRC}")
        if args.setup_probe:
            workdir = new_workdir(args.workload, args.seed, "probe")
            try:
                print(repr(timed_setup(args.workload, args.seed, workdir)[1]))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        elif args.trace:
            traced(args.workload, args.seed, args.seconds)
        else:
            untraced(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
