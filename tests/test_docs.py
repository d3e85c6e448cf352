"""Checks that the names README.md cites still exist, and that each export is used.

Every backticked dotted name whose first part the package exports, such
as `LogisticProblem.block_gradient` or `theorem_bound(tc, k)` (the call's
arguments are dropped), must resolve on `trish`.  A README that still
names a removed function, class or method fails here, and so does one
that leaves a file of scripts/ or demos/ unnamed.

Every name in `trish.__all__` must be read by the package itself, a demo,
a script or an acceptance criterion.  A name that only tests read belongs
in the tests.  Every local name a package function assigns must be read
in that function or in one nested in it.
"""

import ast
import re
from pathlib import Path

import trish

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
USERS = [
    *sorted((ROOT / "src" / "trish").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
# A dotted name, optionally called: `a.b.c` or `a.b(x, y)`.
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")


def cited_names() -> list[str]:
    names = CITED.findall(README.read_text(encoding="utf-8"))
    return sorted({name for name in names if name.split(".")[0] in trish.__all__})


def test_readme_cites_exported_names():
    assert {"LogisticProblem.block_gradient", "theorem_bound"} <= set(cited_names())


def test_every_cited_name_resolves():
    missing = []
    for name in cited_names():
        target = trish
        for part in name.split("."):
            if not hasattr(target, part):
                missing.append(name)
                break
            target = getattr(target, part)
    assert missing == []


def test_readme_names_every_script_and_demo():
    files = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    text = README.read_text(encoding="utf-8")
    assert files
    assert [path.name for path in files if path.name not in text] == []


def names_read(tree: ast.AST) -> set[str]:
    """Each Name or Attribute read in tree, outside the def or class of that name."""
    found = set()

    def visit(node, enclosing):
        read = isinstance(getattr(node, "ctx", None), ast.Load)
        if read and isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif read and isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_export_is_read_outside_the_tests():
    read = set()
    for path in USERS:
        read |= names_read(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(trish.__all__) - read) == []


def test_every_local_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "trish").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assigned = {
                    node.id
                    for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                }
                unread += [
                    f"{path.name}:{func.name}:{name}"
                    for name in sorted(assigned - names_read(func) - {"_"})
                ]
    assert unread == []
