"""Census of the settings the package exposes: they may shrink, and grow only on purpose.

Each defaulted parameter and each model config field is one more setting
that tests and benchmarks have to cover. The bounds below are the counts
the code has; a change that adds a setting raises the bound in the same
diff and says in CHANGES.md which caller needs a second value.
"""

import ast
import dataclasses

from bpcse.asr_model import AsrConfig
from bpcse.se_model import SeConfig
from census import PACKAGE

MAX_DEFAULTED_PARAMETERS = 8
MAX_MODEL_CONFIG_FIELDS = 8

RAISE = "raise the bound in the same diff and give the reason in CHANGES.md"


def defaulted_parameters():
    """``file:function`` for each parameter with a default value, over every signature in ``src/``."""
    found = []
    for module, tree in PACKAGE.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n = len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                found += [f"{module}.py:{getattr(node, 'name', '<lambda>')}"] * n
    return found


def test_defaulted_parameters_within_bound():
    found = defaulted_parameters()
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, (
        f"{len(found)} defaulted parameters in src/, bound {MAX_DEFAULTED_PARAMETERS}: {sorted(found)}; "
        f"to add one, {RAISE}"
    )


def test_model_config_fields_within_bound():
    fields = [f"{cls.__name__}.{f.name}" for cls in (SeConfig, AsrConfig) for f in dataclasses.fields(cls)]
    assert len(fields) <= MAX_MODEL_CONFIG_FIELDS, (
        f"{len(fields)} SeConfig/AsrConfig fields, bound {MAX_MODEL_CONFIG_FIELDS}: {fields}; to add one, {RAISE}"
    )
