"""What a caller can set in the package: the parameters of public functions
and methods (constructors included, self and cls not) plus the init fields
of public dataclasses, per module and in total.

Run as a script from the repository root (``python3 tests/settable_values.py``)
it counts every module of ``src/vgsynth``; given paths, it counts those
files instead. ROADMAP.md tracks the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def parameters(fn: ast.FunctionDef, method: bool) -> int:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p]
    bound = method and "staticmethod" not in map(ast.unparse, fn.decorator_list)
    return len(names) - (bound and names[:1] in (["self"], ["cls"]))


def init_field(item: ast.AnnAssign) -> bool:
    value = item.value
    return "ClassVar" not in ast.unparse(item.annotation) and not (
        isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
        and any(k.arg == "init" and ast.unparse(k.value) == "False" for k in value.keywords))


def settable_values(source: str) -> int:
    """The count for one module's source."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            count += parameters(node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")):
                    count += parameters(item, True)
                elif dataclass and isinstance(item, ast.AnnAssign) and init_field(item):
                    count += 1
    return count


def main(paths: list[str]) -> None:
    if not paths:
        paths = sorted(str(p) for p in Path("src/vgsynth").glob("*.py"))
    total = 0
    for path in paths:
        count = settable_values(Path(path).read_text())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
