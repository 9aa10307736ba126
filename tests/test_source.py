import ast
from pathlib import Path

import dusec


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check that must hold raises a typed error instead
    found = []
    for path in sorted(Path(dusec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
