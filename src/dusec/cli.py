"""Command line front end.

Subcommands:
  profile   draw per-worker storage and report the resulting classes
  solve     optimal load assignment for one fleet snapshot (simulator.solve_snapshot)
  simulate  run a multi-step scenario file and write CSV/JSON reports

``profile`` and ``solve`` print exactly ``json.dumps(obj, indent=2)`` and a
newline, written by :func:`_dumps` without the pure-Python encoder that
``indent`` selects; ``tests/test_pinned.py`` pins the bytes.

Exit codes: 0 success, 1 usage error, 2 invalid input or configuration,
3 primary solver disagrees with the independent oracle (--oracle).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from importlib import resources
from math import gcd
from pathlib import Path

from .model import (
    SCHEMA_VERSION,
    LoadAssignment,
    ProblemInstance,
    StructureError,
    check_schema_version,
    frac_json,
    frac_str,
)
from .oracle import _check_scope, flow_assign, lp_oracle  # bench/tests reads cli.flow_assign
from .simulator import (
    load_scenario,
    reports_to_csv,
    reports_to_json_obj,
    run_timeline,
    solve_snapshot,
)
from .storage import (
    ExplicitStorage,
    exact_profile,
    generate_decentralized,
    profile_from_alpha,
)
from .straggler import StragglerConfig
from .straggler import filtered_for_redundancy as _filtered_for_redundancy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_ORACLE_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for bad data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _speeds(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise argparse.ArgumentTypeError("expected a comma-separated speed list")
    return tuple(_frac(p) for p in parts)


def _straggler(text: str) -> tuple[int, int]:
    try:
        s_text, m_text = text.split(",")
        return int(s_text), int(m_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected s,m integers: {text!r}") from exc


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args keeps no state in it."""
    parser = _Parser(prog="dusec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="draw random per-worker storage")
    p.add_argument("--K", type=int, required=True, help="number of datasets")
    p.add_argument("--M", type=int, required=True, help="datasets stored per worker")
    p.add_argument("--N", type=int, required=True, help="number of workers")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--exact",
        action="store_true",
        help="also report measured class sizes",
    )

    s = sub.add_parser("solve", help="optimal assignment for one fleet snapshot")
    s.add_argument(
        "--speeds",
        type=_speeds,
        required=True,
        metavar="S1,S2,...",
        help="per-worker speeds, rationals allowed (e.g. 1,2,5,5)",
    )
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--alpha",
        type=_frac,
        metavar="P/Q",
        help="storage ratio K/(K-M); uses the large-K class model",
    )
    group.add_argument(
        "--profile-file",
        metavar="PATH",
        help="storage JSON (as written by 'profile'); uses measured classes",
    )
    s.add_argument(
        "--straggler",
        type=_straggler,
        metavar="S,M",
        help="tolerate S stragglers with messages split into M parts",
    )
    s.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the independent oracle (exit 3 on mismatch)",
    )

    m = sub.add_parser("simulate", help="run a scenario file")
    m.add_argument(
        "--scenario",
        required=True,
        metavar="PATH_OR_NAME",
        help="scenario path, or the name of a bundled scenario",
    )
    m.add_argument("--out", required=True, metavar="CSV", help="CSV report path")
    m.add_argument("--json", metavar="JSON", help="also write the JSON report here")

    return parser


_CONTAINERS = (dict, list, tuple, LoadAssignment)


def _nests(values) -> bool:
    """Whether any of ``values`` is a container; one test per type, not per item."""
    return any(issubclass(t, _CONTAINERS) for t in set(map(type, values)))


def _lowest_terms(num: int, den: int) -> str:
    """``frac_str(Fraction(num, den))`` for ``den > 0``, with one gcd and no Fraction."""
    common = gcd(num, den)
    return f"{num // common}/{den // common}"


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for ``value`` nested at
    the indentation ``pad`` ends with; a LoadAssignment is written as its share
    rows, ``{"n": worker, "classMask": mask, "share": "p/q"}``, sorted, from
    its integer units.

    ``indent`` sends ``json.dumps`` to CPython's pure-Python encoder.  Here
    only containers of containers (dict keys must be str) are walked in
    Python; each share row is one string step, and everything else, a leaf
    or a container of leaves, is one call to the C encoder, whose item
    separator carries the newline and indentation.
    """
    inner = pad + "  "
    if isinstance(value, LoadAssignment):
        units = value.shares
        items = [
            f'{{{inner}  "n": {n},{inner}  "classMask": {m},'
            f'{inner}  "share": "{_lowest_terms(u, units.denom)}"{inner}}}'
            for (n, m), u in sorted(units.units.items())
        ]
        brackets = "[]"
    elif isinstance(value, dict) and _nests(value.values()):
        brackets, items = "{}", [f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)) and _nests(value):
        brackets, items = "[]", [_dumps(v, inner) for v in value]
    else:
        text = json.dumps(value, separators=("," + inner, ": "))
        if isinstance(value, (dict, list, tuple)) and value:
            text = f"{text[0]}{inner}{text[1:-1]}{pad}{text[-1]}"
        return text
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}{pad}{brackets[1]}" if items else brackets


def _cmd_profile(args) -> int:
    storage = generate_decentralized(args.K, args.M, args.N, seed=args.seed)
    obj = {"schemaVersion": SCHEMA_VERSION, "storage": storage.to_json_obj()}
    if args.exact:
        profile = exact_profile(storage)
        sizes = profile.classes
        obj["profile"] = {
            "mode": "exact",
            "classSizes": {
                str(mask): _lowest_terms(unit, sizes.denom) for mask, unit in sizes.units.items()
            },
            "cumulative": [frac_str(x) for x in profile.cumulative],
        }
    print(_dumps(obj))
    return EXIT_OK


def _load_storage_file(path: str) -> ExplicitStorage:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):  # what profile writes, or a bare storage object
        check_schema_version(obj)
        obj = obj.get("storage", obj)
    return ExplicitStorage.from_json_obj(obj)


def _cmd_solve(args) -> int:
    speeds = args.speeds
    if args.profile_file is not None:
        storage = _load_storage_file(args.profile_file)
        if storage.n_workers != len(speeds):
            raise StructureError(
                f"storage has {storage.n_workers} workers but {len(speeds)} speeds given"
            )
        instance = ProblemInstance(K=storage.K, M=storage.M, speeds=speeds)
        # Class masks must name workers in sorted-speed order, as the instance does.
        profile = exact_profile(storage.subset([i + 1 for i in instance.source_order]))
    else:
        instance = ProblemInstance.from_alpha(args.alpha, speeds)
        profile = profile_from_alpha(instance.alpha, instance.N)
    if args.oracle:
        _check_scope(instance.N)
    config = None if args.straggler is None else StragglerConfig(*args.straggler)
    plan = solve_snapshot(instance, profile, config)
    time = plan.time

    obj = {
        "schemaVersion": SCHEMA_VERSION,
        "mode": profile.mode.value,
        "n": instance.N,
        "speedsSorted": [frac_str(s) for s in instance.speeds],
        "sourceOrder": list(instance.source_order),
    }
    if config is not None:
        obj["redundancy"] = config.redundancy
        obj["excludedClasses"] = list(plan.excluded_classes)
    obj.update(time.to_json_obj())
    obj["perVmLoad"] = [frac_json(load) for load in plan.assignment.per_worker_loads()]
    obj["loads"] = plan.assignment

    if args.oracle:
        r = plan.assignment.redundancy
        reference = lp_oracle(instance, _filtered_for_redundancy(profile, r), redundancy=r)
        obj["oracle"] = {"checked": True, "value": frac_json(reference)}

    print(_dumps(obj))  # also on a mismatch, for inspection
    if args.oracle and reference != time.c_star:
        print(
            f"oracle mismatch: solver {frac_str(time.c_star)} vs oracle {frac_str(reference)}",
            file=sys.stderr,
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _resolve_scenario(name_or_path: str) -> str:
    path = Path(name_or_path)
    if path.exists():
        return path.read_text(encoding="utf-8")
    bundled = resources.files("dusec").joinpath("scenarios", name_or_path)
    if bundled.is_file():
        return bundled.read_text(encoding="utf-8")
    raise FileNotFoundError(
        f"scenario {name_or_path!r} is neither a file nor a bundled scenario"
    )


def _cmd_simulate(args) -> int:
    text = _resolve_scenario(args.scenario)
    scenario = load_scenario(json.loads(text))
    reports = run_timeline(scenario)
    Path(args.out).write_text(reports_to_csv(reports), encoding="utf-8")
    if args.json:
        Path(args.json).write_text(
            json.dumps(reports_to_json_obj(reports), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    print(f"{len(reports)} steps -> {args.out}" + (f", {args.json}" if args.json else ""))
    return EXIT_OK


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_simulate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
