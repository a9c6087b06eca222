"""Census of the graph ops: each one lives in ``diffcore``, has a caller in the package or the benchmark, and a gradcheck.

An op is a top-level function of a ``src/`` module that calls ``_node``.
Only ``diffcore`` knows how a graph node is built, so every op is in it and
no other module reads a private ``diffcore`` name. An op that no model,
pipeline stage or benchmark workload calls is dead code that the tests
alone keep alive; ops only the tests need live in
``tests/gradcheck_ops.py``. Every op's hand-written backward is checked
against central differences: it is named in a test function that calls
``gradcheck``, directly or through a helper of its test module. A weight's
shape is written once, in the layout table of the op that reads it: every
``init_params`` call outside ``diffcore`` is given a ``{prefix: layout}`` dict
whose every layout is a ``dc.*_layout(...)`` call or a union of them. The
dict is a display, a comprehension, or a name that the calling function
binds to those and fills in by key.
"""

import ast

from census import BENCH, PACKAGE, ROOT, reads

TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def called_names(function):
    """The names ``function`` calls, bare (``f(...)``) or as an attribute (``m.f(...)``)."""
    for c in ast.walk(function):
        if isinstance(c, ast.Call):
            name = getattr(c.func, "id", None) or getattr(c.func, "attr", None)
            if name:
                yield name


def calls_node(function):
    return "_node" in called_names(function)


def graph_ops():
    """The top-level functions of the ``src/`` modules that call ``_node``, as ``{"module.name": node}``."""
    return {
        f"{module}.{node.name}": node
        for module, tree in PACKAGE.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and calls_node(node)
    }


def ops_by_name():
    return {q.split(".", 1)[1]: node for q, node in graph_ops().items()}


def init_params_layouts(node, scope=None):
    """``(line, layouts)`` of each ``init_params`` call under ``node``, in source order: the layout expressions of
    its ``{prefix: layout}`` argument, read in the innermost function around the call (:func:`layout_values`)."""
    if scope is None or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node
    if isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "init_params":
        yield node.lineno, layout_values(node.args[1], scope) if len(node.args) > 1 else None
    for child in ast.iter_child_nodes(node):
        yield from init_params_layouts(child, scope)


def layout_values(layouts, scope, names=True):
    """The layout expressions of the ``{prefix: layout}`` dict ``layouts``, or None for a form the census cannot read.

    A display gives its values, a comprehension its value, and a union (``|``)
    the values of both sides. A name gives the values of every dict ``scope``
    binds it to (``=`` or ``|=``) and of every key it sets (``name[key] = ...``),
    and None if ``scope`` never binds it; a dict so bound is read with
    ``names`` off, so a name in it gives None.
    """
    if isinstance(layouts, ast.Dict):
        return list(layouts.values)
    if isinstance(layouts, ast.DictComp):
        return [layouts.value]
    if isinstance(layouts, ast.BinOp) and isinstance(layouts.op, ast.BitOr):
        left, right = layout_values(layouts.left, scope, names), layout_values(layouts.right, scope, names)
        return None if left is None or right is None else left + right
    if not (names and isinstance(layouts, ast.Name)):
        return None
    values, bound = [], False
    for node in ast.walk(scope):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AugAssign) else []
        for target in targets:
            if isinstance(target, ast.Name) and target.id == layouts.id:
                if isinstance(node, ast.AugAssign) and not isinstance(node.op, ast.BitOr):
                    return None
                bound, more = True, layout_values(node.value, scope, names=False)
                if more is None:
                    return None
                values += more
            elif isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == layouts.id:
                values.append(node.value)
    return values if bound else None


def from_layout_tables(layout):
    """Whether ``layout`` is a ``dc.<name>_layout(...)`` call or a union (``|``) of them."""
    if isinstance(layout, ast.BinOp) and isinstance(layout.op, ast.BitOr):
        return from_layout_tables(layout.left) and from_layout_tables(layout.right)
    func = getattr(layout, "func", None)
    return isinstance(func, ast.Attribute) and func.attr.endswith("_layout") and getattr(func.value, "id", None) == "dc"


def private_diffcore_reads(tree):
    """Each private ``diffcore`` name ``tree`` imports, or reads as ``alias._name`` through an import of the module."""
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("diffcore"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name.endswith("diffcore")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr.startswith("_"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_census_finds_the_ops():
    ops = {"matmul", "linear", "attention_sublayer", "feed_forward_sublayer", "blstm_layer", "attention_decoder", "ctc_loss"}
    assert {f"diffcore.{name}" for name in ops} <= set(graph_ops())


def test_the_census_finds_private_reads():
    tree = ast.parse("from . import diffcore as dc\nfrom .diffcore import BLANK, _lift\ndc._node(1)\ndc.Tensor\nx._node")
    assert sorted(private_diffcore_reads(tree)) == ["_lift", "dc._node"]


def test_only_diffcore_builds_graph_nodes():
    outside = sorted(q for q in graph_ops() if not q.startswith("diffcore."))
    assert not outside, f"src/ functions outside diffcore that call _node: {outside}; move the op into diffcore"


def test_no_module_reads_private_diffcore_names():
    reads = {m: private_diffcore_reads(tree) for m, tree in PACKAGE.items() if m != "diffcore"}
    reads = {m: names for m, names in reads.items() if names}
    assert not reads, f"modules that read private diffcore names: {reads}; give diffcore the op instead"


def all_from_layout_tables(values):
    """Whether ``values``, the layouts of one ``init_params`` call, could be read and each comes from the tables."""
    return values is not None and all(from_layout_tables(v) for v in values)


# (source, whether its one init_params call takes every layout from the tables)
CENSUS_CASES = {
    "display": ("dc.init_params(r, {'a': dc.linear_layout(2, 3) | dc.layer_norm_layout(3), 'b': dc.linear_layout(3, 1)})",
                True),
    "comprehension": ("dc.init_params(r, {f'c{i}': dc.linear_layout(2, 3) for i in range(2)})", True),
    "by_key": ("def f(r):\n    ls = {f'c{i}': dc.linear_layout(2, 3) for i in range(2)}\n    ls |= {'n': dc.layer_norm_layout(3)}\n"
               "    ls['o'] = dc.linear_layout(3, 1)\n    return dc.init_params(r, ls)", True),
    "union": ("dc.init_params(r, {'a': dc.linear_layout(2, 3)} | {'b': dc.linear_layout(3, 1)})", True),
    "inline": ("dc.init_params(r, {'a': {'w': (2, 3)}})", False),
    "inline_union": ("dc.init_params(r, {'a': dc.linear_layout(2, 3) | {}})", False),
    "inline_comprehension": ("dc.init_params(r, {f'c{i}': {'w': (i, 3)} for i in range(2)})", False),
    "inline_key": ("def f(r):\n    ls = {'a': dc.linear_layout(2, 3)}\n    ls['b'] = {'w': (2, 3)}\n"
                   "    return dc.init_params(r, ls)", False),
    "inline_rebinding": ("def f(r):\n    ls = {'a': dc.linear_layout(2, 3)}\n    ls = {'b': {'w': (2, 3)}}\n"
                         "    return dc.init_params(r, ls)", False),
    "self_union": ("def f(r):\n    ls = {}\n    ls = ls | {'a': dc.linear_layout(2, 3)}\n    return dc.init_params(r, ls)", False),
    "unbound_name": ("def f(r, ls):\n    return dc.init_params(r, ls)", False),
    "spread": ("dc.init_params(r, {**other, 'a': dc.linear_layout(2, 3)})", False),
    "no_layouts": ("dc.init_params(r)", False),
}


def test_the_census_finds_inline_layouts():
    found = {}
    for case, (source, _) in CENSUS_CASES.items():
        [(_, values)] = init_params_layouts(ast.parse(source))
        found[case] = all_from_layout_tables(values)
    assert found == {case: from_tables for case, (_, from_tables) in CENSUS_CASES.items()}


def test_every_weight_outside_diffcore_comes_from_a_layout_table():
    calls = {f"{m}:{n}": values for m, tree in PACKAGE.items() if m != "diffcore" for n, values in init_params_layouts(tree)}
    assert len(calls) >= 2  # both models make weights
    inline = sorted(call for call, values in calls.items() if not all_from_layout_tables(values))
    assert not inline, f"init_params calls given a layout that is no dc.*_layout(...) call: {inline}; add the op's table to diffcore"


def test_every_op_has_a_caller_outside_its_own_definition():
    ops = ops_by_name()
    references = {name: 0 for name in ops}
    for name in reads([*PACKAGE.values(), *BENCH]):
        if name in references:
            references[name] += 1
    for name, definition in ops.items():
        references[name] -= sum(n == name for n in reads([definition]))
    dead = sorted(name for name, n in references.items() if n < 1)
    assert not dead, f"graph ops with no caller in src/ or bench/: {dead}; delete them or move them to the tests"


def test_every_op_is_named_in_a_gradcheck_test():
    checked = set()
    for path in TESTS:
        functions = [n for n in ast.walk(ast.parse(path.read_text("utf-8"))) if isinstance(n, ast.FunctionDef)]
        checkers = {"gradcheck"} | {f.name for f in functions if "gradcheck" in called_names(f)}
        for f in functions:
            if f.name.startswith("test") and checkers & set(called_names(f)):
                checked.update(reads([f]))
    missing = sorted(set(ops_by_name()) - checked)
    assert not missing, f"graph ops named in no test function that calls gradcheck: {missing}"
