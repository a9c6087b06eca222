"""Census of the package's public names: each one has a caller in the package or the benchmark.

A public name is a top-level function, class or constant of a ``src/``
module, or a public method of one of its top-level classes; names with a
leading underscore are out of scope. Code reads a name bare (``f``) or as an
attribute (``m.f``), and the census matches on the name alone, so a read of
``x.save`` counts for every ``save``. A name is live when code in ``bench/``
reads it, or code in ``src/`` outside its own definition and outside every
definition that is not live. Dead names are found to a fixed point: a
constant that only a dead function reads is dead too.

``KEPT`` holds the names no pipeline stage or benchmark workload runs yet,
each with the ROADMAP item that gives it its first caller. They are exempt,
but their reads keep nothing alive, so what only they read is listed with
them and the list shows all the code that waits for that work. Tests are
not callers: a name only the tests need lives in the tests.
"""

import ast
from collections import Counter

from census import BENCH, PACKAGE, reads

KEPT = {  # name: the ROADMAP item that calls it first
    "asr_model.AsrModel.decode": 1,  # the census also counts checkpoint code's bytes.decode for it
    "asr_model.decode_greedy": 1,
    "asr_model.label_error_rate": 1,
    "asr_model.levenshtein": 1,
    "asr_model.deep_feature_loss": 3,
    "asr_model.AsrModel.save": 4,
    "asr_model.AsrModel.load": 4,
    "asr_model.AsrModel.ids_to_labels": 4,
    "asr_model.AsrModel.labels_to_ids": 4,
    "se_model.SeModel.save": 4,
    "se_model.SeModel.load": 4,
    "corpus.Manifest.save": 4,
    "corpus.Manifest.load": 4,
    "corpus.Manifest.from_json": 4,
    "diffcore.CKPT_MAGIC": 4,
    "diffcore.save_checkpoint": 4,
    "diffcore.load_model": 4,
    "bpc.place_scheme": 8,
    "bpc.ENGLISH_PLACE_CLASSES": 8,
}


def public_definitions(modules):
    """``{"module.name": [node, ...]}``, with ``"module.Class.method"`` for methods, over ``{module: tree}``.

    The nodes hold the definition's code, and no node holds another: a class
    is its bases, decorators and class-level statements plus one node per
    method, private methods included.
    """
    found = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [(node.name, [node])]
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                rest = [*node.bases, *node.keywords, *node.decorator_list, *(n for n in node.body if n not in methods)]
                names = [(node.name, rest + methods)] + [(f"{node.name}.{m.name}", [m]) for m in methods]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(t.id, [node]) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found.update({f"{module}.{q}": n for q, n in names if not any(p.startswith("_") for p in q.split("."))})
    return found


def dead_names(modules, callers, kept=()):
    """The public names of ``modules`` that nothing live in ``modules`` or ``callers`` reads, sorted.

    A dead class stands for its methods, which are not listed apart.
    """
    definitions = public_definitions(modules)
    total = Counter(reads([*modules.values(), *callers]))
    idle = set(kept) & set(definitions)  # definitions whose reads keep nothing alive
    while True:
        idle_code = {id(n): n for q in idle for n in definitions[q]}
        live = total - Counter(reads(idle_code.values()))
        dead = set()
        for q, code in definitions.items():
            if q in idle:
                continue
            name = q.rsplit(".", 1)[1]
            own = Counter(reads(n for n in code if id(n) not in idle_code))
            if live[name] - own[name] < 1:
                dead.add(q)
        if not dead:
            return sorted(q for q in idle - set(kept) if q.rsplit(".", 1)[0] not in idle)
        idle |= dead


def test_the_census_finds_the_public_names():
    found = public_definitions(PACKAGE)
    want = {"bpc.PhoneInventory", "bpc.manner_scheme", "diffcore.ADAM_EPS", "corpus.Manifest.save", "asr_model.AsrModel.decode"}
    assert want <= set(found)
    assert not [q for q in found if "._" in q]


def test_dead_names_are_found_to_a_fixed_point():
    module = """
A = 1
B = 2
_C = 3
def used():
    return A
def dead():
    return B + dead()
def kept():
    return helper()
def helper():
    return 0
class K:
    def run(self):
        return self.step()
    def step(self):
        return 1
    def unread(self):
        return K
class Gone:
    def method(self):
        return 2
"""
    callers = [ast.parse("import m\nm.used()\nm.K().run()")]
    dead = dead_names({"m": ast.parse(module)}, callers, kept=["m.kept"])
    assert dead == ["m.B", "m.Gone", "m.K.unread", "m.dead", "m.helper"]


def test_every_public_name_has_a_caller():
    dead = dead_names(PACKAGE, BENCH, KEPT)
    assert not dead, (
        f"public names with no caller in src/ or bench/: {dead}; delete them, move them to the tests, "
        "or add them to KEPT with the ROADMAP item that calls them"
    )


def test_every_kept_name_is_defined():
    missing = sorted(set(KEPT) - set(public_definitions(PACKAGE)))
    assert not missing, f"KEPT names no public definition in src/: {missing}; take them off the list"
