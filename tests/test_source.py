import ast
import dataclasses
import re
from pathlib import Path

import dusec

_REPO = Path(__file__).resolve().parents[1]


def _modules():
    for path in sorted(Path(dusec.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _functions():
    """Every top-level function and method, by ``module.name`` or ``module.Class.name``."""
    for path, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _names(node):
    """Every name and attribute read inside ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_reader():
    # a name in __all__ is read by another library module, or named by the
    # bench, the acceptance gate or the README; what only unit tests read
    # belongs in the tests
    loaded = {
        n.id if isinstance(n, ast.Name) else n.attr
        for path, tree in _modules()
        if path.name != "__init__.py"
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    texts = [path.read_text(encoding="utf-8") for path in sorted((_REPO / "bench").glob("*.py"))]
    texts += [(_REPO / name).read_text(encoding="utf-8") for name in ("tests/test_acceptance.py", "README.md")]
    words = set(re.findall(r"\w+", "\n".join(texts)))
    assert [name for name in dusec.__all__ if name not in loaded | words] == []


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check that must hold raises a typed error instead
    found = []
    for path, tree in _modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_cli_reaches_lp_oracle():
    # lp_oracle certifies the solvers only while none of them calls it; the
    # package re-exports it and cli runs it for --oracle
    found = []
    for path, tree in _modules():
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if "lp_oracle" in names and path.name not in ("__init__.py", "oracle.py"):
            found.append(path.stem)
    assert found == ["cli"]


def test_one_function_picks_the_solver():
    # dusec solve and every simulate step leave the choice to solve_snapshot,
    # whose time-only route on a measured profile is flow_time; baseline_assign
    # calls no solver (it reads the staircase, see below)
    solvers = {"assign_loads", "optimal_time", "flow_assign", "flow_time", "redundant_assign"}
    calls = {}
    for path, tree in _modules():
        if path.stem not in ("cli", "simulator"):
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in solvers:
                        caller = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                        calls.setdefault(caller, set()).add(name)
    assert calls == {"simulator.solve_snapshot": solvers}


def test_baselines_are_priced_by_the_staircase():
    # on the cyclic, repetition and MAN placements the prefix bound is the
    # optimum, so baseline_assign reads the staircase once, outside any loop,
    # and runs no flow; the staircase's callers are the closed form, the
    # sweep, the flow search's start and the baselines
    functions = dict(_functions())
    baseline = functions["simulator.baseline_assign"]
    assert _calls(baseline, "_staircase") == [False]
    assert not _names(baseline) & {"flow_time", "flow_assign", "_newton_search", "_Transport"}
    assert {name for name, node in functions.items() if _calls(node, "_staircase")} == {
        "optimizer.optimal_time",
        "optimizer.assign_loads",
        "oracle._newton_search",
        "simulator.baseline_assign",
    }


def test_flow_assign_and_lp_oracle_share_no_flow_code():
    # --oracle checks flow_assign against a value taken without any flow;
    # the two share only the input check and the locked-load sum
    (tree,) = [tree for path, tree in _modules() if path.stem == "oracle"]
    top = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    uses = {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in top} - {name}
        for name, node in top.items()
    }

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            for used in uses[todo.pop()] - seen:
                seen.add(used)
                todo.append(used)
        return seen

    oracle_side, flow_side = reached("lp_oracle"), reached("flow_assign")
    assert {"_bottleneck", "_check_scope"} <= oracle_side
    flow_only = {"_Transport", "_newton_search", "_flow_time", "flow_time"}
    assert not flow_only & oracle_side
    assert "_Transport" in flow_side
    # the time-only reader runs the same search and flow
    time_side = reached("flow_time")
    assert {"_newton_search", "_flow_time", "_Transport"} <= time_side
    assert not {"_bottleneck", "_check_scope", "lp_oracle"} & time_side
    assert oracle_side & flow_side == {"_active_classes", "InfeasibleRedundancy", "_locked_ratio"}


def test_one_max_flow_in_the_library():
    # the tests' plain Dinic lives in tests/flow_reference.py, not in the
    # package; the package's one flow is _Transport's table, and no class
    # holds a residual network of its own
    found = [
        f"{path.stem}.{node.name}.{f.name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for f in node.body
        if isinstance(f, ast.FunctionDef) and f.name in ("max_flow", "levels", "_blocking_flow")
    ]
    assert found == []
    (tree,) = [tree for path, tree in _modules() if path.stem == "oracle"]
    # besides its errors, oracle's only class is the one that pushes flow
    others = {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and not any(getattr(base, "id", None) == "ValueError" for base in node.bases)
    }
    assert others == {"_Transport"}


def test_the_exact_pipeline_stays_on_integers():
    # a measured profile and a solver's assignment hold integers over one
    # denominator from exact_profile to the coded round; Fractions are built
    # only where a caller reads them, and no step takes an lcm to get back
    functions = dict(_functions())
    for name in ("storage.exact_profile", "straggler.part_schedule", "straggler.encode"):
        assert "Fraction" not in _names(functions[name]), name
    for name in ("straggler.part_schedule", "oracle._active_classes"):
        assert not _names(functions[name]) & {"over_one_denominator", "lcm"}, name
    # the formula sweep compares times and scales its merges on integers as well:
    # the staircase builds Fractions only for what it returns, the merge none
    assert "Fraction" not in _names(functions["optimizer._rearranged_shares"])
    for name in ("optimizer._staircase", "optimizer._rearranged_shares"):
        divisions = [n for n in ast.walk(functions[name]) if isinstance(getattr(n, "op", None), ast.Div)]
        assert divisions == [], name


def test_each_shared_value_has_one_owner():
    # the dataset-count rule, the integer class map and the per-worker load
    # sum are each built in one place, and the other layers read that one
    functions = dict(_functions())

    def texts(node):
        return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    def names(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    assert {name for name, node in functions.items() if any("M must lie in" in t for t in texts(node))} == {
        "model.check_counts"
    }
    assert not any("class_units" in names(node) for node in functions.values())
    for name in ("optimizer.assign_loads", "cli._cmd_solve"):
        assert "per_worker_loads" in names(functions[name]), name
    # one helper builds a flow's per-worker times, from its sink capacities
    # and rooms, and both flow routes call it; no flow reader sums shares
    (oracle_tree,) = [tree for path, tree in _modules() if path.stem == "oracle"]
    time_builders = {
        name
        for name, node in functions.items()
        if name.startswith("oracle.")
        and any(getattr(getattr(n, "func", None), "id", None) == "TimeResult" for n in ast.walk(node))
    }
    assert time_builders == {"oracle._flow_time"}
    assert {"sink_caps", "room", "scale"} <= names(functions["oracle._flow_time"])
    assert {name for name, node in functions.items() if "_flow_time" in _names(node)} == {
        "oracle.flow_assign",
        "oracle.flow_time",
    }
    assert "per_worker_loads" not in _names(oracle_tree)
    # the CLI reads loads from the assignment; it does not rebuild them from times
    assert not any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(functions["cli._cmd_solve"])
    )
    # the speeds' integer form is built once, on ProblemInstance; lp_oracle's
    # zeta transform converts them on its own so that --oracle stays independent
    speed_conversions = {
        name
        for name, node in functions.items()
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "over_one_denominator"
        and "speeds" in ast.unparse(n.args[0])
    }
    assert speed_conversions == {"model.ProblemInstance.speed_units", "oracle._bottleneck"}
    # one lcm for every set of denominators (over_one_denominator's and the
    # sweep's merge factors), and the flow's scale of two denominators
    assert {name for name, node in functions.items() if "lcm" in _names(node)} == {
        "model.common_denominator",
        "oracle._Transport.__init__",
    }
    assert "common_denominator" in _names(functions["model.over_one_denominator"])
    # each integer prefix sum is built in one place: S(n) on the instance, and
    # the load each slowest-n prefix locks in locked_prefix_units, whose r = 1
    # call is a measured profile's L(n) (a formula profile's comes from its
    # closed form); the Fraction form and the staircase's callers read those,
    # and add nothing up
    assert {name for name, node in functions.items() if "accumulate" in _names(node)} == {
        "model.ProblemInstance.prefix_speed_units",
        "model.locked_prefix_units",
    }
    assert _calls(functions["model.ClassProfile.cumulative_units"], "locked_prefix_units") == [False]
    staircase_callers = {"optimizer.optimal_time", "optimizer.assign_loads", "simulator.baseline_assign"}
    for attr, readers in (
        ("prefix_speed_units", staircase_callers | {"oracle._newton_search", "optimizer.cutset_bounds"}),
        ("cumulative_units", staircase_callers | {"model.ClassProfile.cumulative"}),
    ):
        assert {name for name, node in functions.items() if attr in _names(node)} == readers, attr
    assert not any(
        isinstance(getattr(n, "op", None), ast.Add) for n in ast.walk(functions["model.ClassProfile.cumulative"])
    )
    lcm_imports = {
        path.stem
        for path, tree in _modules()
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and any(alias.name == "lcm" for alias in n.names)
    }
    assert lcm_imports == {"model", "oracle"}
    # the flow and the sweep read the profile's UnitMap; no class copies it
    assert not any(
        isinstance(n, ast.ClassDef) and n.name == "_IntClasses" for _, tree in _modules() for n in ast.walk(tree)
    )



def _calls(node, name):
    """Whether each call of the function ``name`` inside ``node`` sits in a loop or comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []

    def visit(parent, looped):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                found.append(looped)
            visit(child, looped or isinstance(child, loops))

    visit(node, False)
    return found


def test_one_lagrange_basis_and_one_batched_inversion():
    # encode and decode each evaluate all their polynomials in one
    # _basis_values call, whose denominators share one modular inverse; no
    # other coding step inverts
    functions = dict(_functions())
    for name in ("straggler.encode", "straggler.decode"):
        assert _calls(functions[name], "_basis_values") == [False], name
    assert _calls(functions["straggler._basis_values"], "pow") == [False]
    (tree,) = [tree for path, tree in _modules() if path.stem == "straggler"]
    owners = {name for name, node in functions.items() if name.startswith("straggler.") and _calls(node, "pow")}
    assert owners == {"straggler._is_prime", "straggler._basis_values"}
    assert len(_calls(tree, "pow")) == sum(len(_calls(functions[name], "pow")) for name in owners)


def test_the_coding_layer_runs_on_arrays():
    # part_schedule works out every class's quotas together on grouped
    # arrays, with no Python loop; _basis_values loops over root columns
    # and over denominators, never one inside the other, so neither walks
    # classes x holders or polynomials x points element by element
    functions = dict(_functions())
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [n for n in ast.walk(functions["straggler.part_schedule"]) if isinstance(n, loops)]
    outer = [n for n in ast.walk(functions["straggler._basis_values"]) if isinstance(n, loops)]
    assert outer
    for loop in outer:
        assert not [n for n in ast.walk(loop) if n is not loop and isinstance(n, loops)]


def test_one_reader_of_integer_lists():
    # encode's messages, decode's coded vectors and a storage file's perVm
    # rows enter through model.int64_rows, the one function that fills an
    # array; model's only other call of array picks the unsigned typecode
    functions = dict(_functions())

    def fills(node):  # calls of the standard library's array, not numpy's
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        return [n for n in calls if ast.unparse(n.func) in ("array", "array.array")]

    assert {name for name, node in functions.items() if fills(node)} == {"model.int64_rows"}
    (model,) = [tree for path, tree in _modules() if path.stem == "model"]
    choices = [ast.unparse(n) for n in model.body if isinstance(n, ast.Assign) and fills(n)]
    assert choices == ["_UNSIGNED = 'L' if array('L').itemsize == 8 else 'Q'"]
    every = sum(len(fills(tree)) for _, tree in _modules())
    assert every == len(fills(functions["model.int64_rows"])) + 1
    for name in ("storage.ExplicitStorage.from_json_obj", "straggler._residues"):
        assert _calls(functions[name], "int64_rows"), name
    assert "_residues" in _names(functions["straggler.decode"])


def test_the_catalog_draw_runs_on_arrays():
    # _sample_subset works out the front of its partial Fisher-Yates pass as
    # a set on arrays; the swap loop over a list(range(K)) pool is the tests'
    # reference, in tests/storage_reference.py
    node = dict(_functions())["storage._sample_subset"]
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not [n for n in ast.walk(node) if isinstance(n, loops)]
    called = {ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    assert not called & {"list", "range"}


def test_each_scenario_rule_and_step_result_has_one_owner():
    # a Scenario built in code meets the baseline and straggler-budget rules
    # that a scenario file meets: the type states them, the loader and the
    # step runner only reach them through it
    functions = dict(_functions())

    def owners(text):
        return {
            name
            for name, node in functions.items()
            for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value
        }

    for text in ("expected {kind: one of", "stragglers exceed"):
        assert owners(text) == {"simulator.Scenario.__post_init__"}, text
    # the type holds a baseline's replication to the integer rule, and
    # baseline_assign a replication passed to it; the loader hands it on
    assert {
        name
        for name, node in functions.items()
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "check_count"
        and "replication" in ast.unparse(n.args[0])
    } == {"simulator.Scenario.__post_init__", "simulator.baseline_assign"}
    # baseline_assign keeps its own refusal of a kind it cannot build
    assert {name for name, node in functions.items() if "BASELINE_KINDS" in _names(node)} == {
        "simulator.Scenario.__post_init__",
        "simulator.baseline_assign",
    }
    # a step's c*, n* and per-worker times are the solver's TimeResult, written by its own to_json_obj
    json_keys = {
        name
        for name, node in functions.items()
        for n in ast.walk(node)
        if isinstance(n, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value in ("cStar", "nStar", "perVmTime") for k in n.keys)
    }
    assert json_keys == {"model.TimeResult.to_json_obj"}
    fields = {f.name for f in dataclasses.fields(dusec.StepReport)}
    assert "time" in fields and not fields & {"c_star", "n_star", "per_vm_time"}


def test_one_walk_gives_the_newton_set_and_n_star():
    # the flow classes keep no state past __init__ (Dinic keeps no labels once
    # it returns); one function holds the Newton loop, stepping on the
    # bottleneck walk of each short flow, and one reads n* from that walk of
    # the saturated flow: the workers with no residual path to the sink
    (tree,) = [tree for path, tree in _modules() if path.stem == "oracle"]
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    stored = [
        f"_Transport.{item.name}.{n.attr}"
        for item in classes["_Transport"].body
        if isinstance(item, ast.FunctionDef) and item.name != "__init__"
        for n in ast.walk(item)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
    ]
    assert stored == []
    functions = dict(_functions())

    def calls(node, name):
        """The calls inside ``node`` of the function or method ``name``."""
        return [
            n
            for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        ]

    # one Newton loop: a single function runs the flows, in a loop, and steps T
    # to the locked ratio of the short flow's bottleneck set
    runners = {name for name, node in functions.items() if calls(node, "_Transport")}
    assert runners == {"oracle._newton_search"}
    search = functions["oracle._newton_search"]
    (loop,) = [n for n in ast.walk(search) if isinstance(n, ast.While)]
    assert calls(loop, "_Transport")
    steps = {
        name
        for name, node in functions.items()
        for call in calls(node, "_locked_ratio")
        if calls(call.args[-1], "bottleneck")
    }
    assert steps == {"oracle._newton_search"}
    (step,) = calls(search, "_locked_ratio")
    assert ast.unparse(step) == "_locked_ratio(instance, classes, redundancy, flow.bottleneck())"
    # T starts from the closed form's staircase, imported from optimizer and
    # called once before the loop; oracle keeps no prefix maximum of its own
    assert "oracle._prefix_bound" not in functions and "oracle._staircase" not in functions
    assert any(
        isinstance(n, ast.ImportFrom) and n.module == "optimizer" and [a.name for a in n.names] == ["_staircase"]
        for n in tree.body
    )
    (start,) = calls(search, "_staircase")
    assert start.lineno < loop.lineno
    # a saturated flow leaves the search before any walk
    (leave,) = [n for n in ast.walk(loop) if isinstance(n, ast.If) and "saturated" in _names(n.test)]
    assert isinstance(leave.body[0], ast.Return) and not calls(leave, "bottleneck")
    # n* is read from the walk in exactly one place, and the flow is walked only there and in the step
    walks = {name: len(found) for name, node in functions.items() if (found := calls(node, "bottleneck"))}
    assert walks == {"oracle._newton_search": 1, "oracle._flow_time": 1}
    n_star = [
        (name, ast.unparse(n))
        for name, node in functions.items()
        for n in ast.walk(node)
        if isinstance(n, ast.keyword) and n.arg == "n_star" and calls(n.value, "bottleneck")
    ]
    assert n_star == [("oracle._flow_time", "n_star=flow.bottleneck().bit_count()")]


def _strings(node):
    """Each string literal inside ``node``; an f-string is one text, its fields as written."""
    inner = {id(v) for n in ast.walk(node) if isinstance(n, ast.JoinedStr) for v in n.values}
    return [
        ast.unparse(n) if isinstance(n, ast.JoinedStr) else n.value
        for n in ast.walk(node)
        if id(n) not in inner
        and (isinstance(n, ast.JoinedStr) or isinstance(n, ast.Constant) and isinstance(n.value, str))
    ]


_INTEGER_REFUSALS = ("must be an integer", "must be >= ", "must be a positive integer", "is not an integer")
# bounds on rationals, not integer rules: alpha >= 1, and a storage fraction times K that is whole
_RATIONAL_BOUNDS = ("alpha must be >= 1", "times K={self.K} is not an integer")


def test_one_integer_rule():
    # every count, seed and coding parameter meets model.check_count, the one
    # place that words an integer refusal; each layer passes its own error type
    def refusals(node):
        return [
            text
            for text in _strings(node)
            if any(w in text for w in _INTEGER_REFUSALS) and not any(b in text for b in _RATIONAL_BOUNDS)
        ]

    functions = dict(_functions())
    assert {name for name, node in functions.items() if refusals(node)} == {"model.check_count"}
    assert sum(len(refusals(tree)) for _, tree in _modules()) == len(refusals(functions["model.check_count"]))
    # outside model, is_int only tests the elements of a datasets array, mapped
    # over them; a scalar goes to check_count (or, a schemaVersion, to
    # check_schema_version)
    for path, tree in _modules():
        if path.stem == "model":
            continue
        mapped = {
            id(n.args[0])
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "map" and n.args
        }
        scalar = [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)
            and (n.id if isinstance(n, ast.Name) else n.attr) == "is_int"
            and id(n) not in mapped
        ]
        assert scalar == [], scalar
    assert {name for name, node in functions.items() if "check_schema_version" in _names(node)} == {
        "simulator.load_scenario",
        "cli._load_storage_file",
    }


def test_one_alpha_bound():
    # alpha >= 1 is a bound on a rational, kept out of the integer rule above;
    # model.as_alpha words it, and both ways to give a formula alpha call it
    functions = dict(_functions())
    worded = [name for name, node in functions.items() for text in _strings(node) if "alpha must be >= 1" in text]
    assert worded == ["model.as_alpha"]
    assert sum("alpha must be >= 1" in text for _, tree in _modules() for text in _strings(tree)) == 1
    assert {name for name, node in functions.items() if "as_alpha" in _names(node)} == {
        "model.ProblemInstance.from_alpha",
        "model.ClassProfile.__post_init__",
    }
