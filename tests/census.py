"""What the census tests share: one parse of the package's and the benchmark's code, and its name-read walker."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "src" / "bpcse").glob("*.py"))}
BENCH = [ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "bench").rglob("*.py"))]


def reads(trees):
    """Every name ``trees`` read, bare or as an attribute; assignment targets are not reads."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield node.id
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                yield node.attr
