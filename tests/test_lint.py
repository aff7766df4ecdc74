"""Source checks: guards that survive ``python -O``, no module-level
caches, and no enumeration bound knobs."""

import ast
from fnmatch import fnmatch
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qstrat"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements vanish under python -O; raise instead: {found}"


def test_library_has_no_module_level_caches():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {target.id}"
                for target in targets
                if isinstance(target, ast.Name) and fnmatch(target.id, "*_CACHE")
            ]
    assert not found, f"module-level caches outlive every call and grow without limit: {found}"


def test_library_has_no_bound_parameters():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            found += [
                f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if arg.arg in ("bound", "enum_bound")
            ]
    assert not found, f"size bounds are module constants, not parameters: {found}"
