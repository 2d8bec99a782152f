"""Static checks of the package source."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "configforge"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_package_root_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"])
    assert sorted(exported) == sorted(imported)


ROOT = PACKAGE.parent.parent
# outside src/, the code that stands for the library's users: the bench and
# the two suites that stay as they are
CALLERS = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "oracles.py",
                                                    ROOT / "tests" / "test_acceptance.py"]


def _names(node, skip=None):
    """Every name ``node`` reads, looks up as an attribute or imports,
    leaving out the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _public_members(tree):
    """(qualified name, name, def node) of each top-level function or
    class and each method whose name has no leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def test_every_public_member_has_a_caller_or_a_readme_mention():
    sources = sorted(PACKAGE.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sources + CALLERS}
    names = {p: _names(tree) for p, tree in trees.items()}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    mentioned = {word for span in re.findall(r"`([^`\n]+)`", readme)
                 for word in re.findall(r"\w+", span)}
    uncalled = []
    for path in MODULES:
        elsewhere = set().union(*(found for p, found in names.items() if p != path))
        for qualname, name, node in _public_members(trees[path]):
            if (name not in elsewhere and name not in _names(trees[path], skip=node)
                    and name not in mentioned):
                uncalled.append(f"{path.name}: {qualname}")
    assert not uncalled, ("public members that no module, bench workload, frozen suite or "
                          f"README mention uses: {', '.join(uncalled)}")
