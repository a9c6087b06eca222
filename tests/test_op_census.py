"""Census of the graph ops in ``diffcore``: each one has a caller in the package or the benchmark, and a gradcheck.

An op is a top-level ``diffcore`` function that calls ``_node``. One that no
model, pipeline stage or benchmark workload calls is dead code that the
tests alone keep alive; ops only the tests need live in
``tests/gradcheck_ops.py``. Every op's hand-written backward is checked
against central differences: it is named in a test function that calls
``gradcheck``, directly or through a helper of its test module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIFFCORE = ROOT / "src" / "bpcse" / "diffcore.py"
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def names_in(tree):
    """Every identifier ``tree`` reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def called_names(function):
    """The names ``function`` calls, bare (``f(...)``) or as an attribute (``m.f(...)``)."""
    for c in ast.walk(function):
        if isinstance(c, ast.Call):
            name = getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            if name:
                yield name


def calls_node(function):
    return "_node" in called_names(function)


def diffcore_ops():
    """The top-level functions of ``diffcore`` that call ``_node``, by name."""
    tree = ast.parse(DIFFCORE.read_text("utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef) and calls_node(node)}


def test_the_census_finds_the_ops():
    assert {"matmul", "linear", "attention_sublayer", "feed_forward_sublayer", "lstm_sequence", "attention_decoder"} <= set(
        diffcore_ops()
    )


def test_every_op_has_a_caller_outside_its_own_definition():
    ops = diffcore_ops()
    references = {name: 0 for name in ops}
    for path in CALLERS:
        for name in names_in(ast.parse(path.read_text("utf-8"))):
            if name in references:
                references[name] += 1
    for name, definition in ops.items():
        references[name] -= sum(n == name for n in names_in(definition))
    dead = sorted(name for name, n in references.items() if n < 1)
    assert not dead, f"diffcore ops with no caller in src/ or bench/: {dead}; delete them or move them to the tests"


def test_every_op_is_named_in_a_gradcheck_test():
    checked = set()
    for path in TESTS:
        functions = [n for n in ast.walk(ast.parse(path.read_text("utf-8"))) if isinstance(n, ast.FunctionDef)]
        checkers = {"gradcheck"} | {f.name for f in functions if "gradcheck" in called_names(f)}
        for f in functions:
            if f.name.startswith("test") and checkers & set(called_names(f)):
                checked.update(names_in(f))
    missing = sorted(set(diffcore_ops()) - checked)
    assert not missing, f"diffcore ops named in no test function that calls gradcheck: {missing}"
