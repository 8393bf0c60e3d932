"""The package's public surface is the one README's Library section documents."""

import ast
import re
from pathlib import Path

import swimsim

SRC = Path(swimsim.__file__).resolve().parent
ROOT = SRC.parent.parent
README = (ROOT / "README.md").read_text()
LIBRARY = README.split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", LIBRARY, re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) < 1.0
    assert (tmp_path / "contacts.csv").exists()
    assert (tmp_path / "metrics.json").exists()


def test_every_exported_name_resolves():
    for name in swimsim.__all__:
        assert getattr(swimsim, name, None) is not None, name


def test_every_exported_name_is_documented():
    documented = set(re.findall(r"`(\w+)`", LIBRARY))
    assert set(swimsim.__all__) <= documented, set(swimsim.__all__) - documented


def _references(tree: ast.AST, outside: ast.AST | None = None) -> set[str]:
    """The names and attribute names read in `tree`, apart from the subtree `outside`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is outside:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definitions(tree: ast.Module):
    """(label, name, node) of each module-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_src_name_is_read_outside_tests():
    # a name that only tests read is not the library's: each function,
    # class and public method of src is read by another src module, by its
    # own module outside its definition, by a demo, by perfbench, or is
    # named in backticks in README's Library section
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", LIBRARY))))
    for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/**/*.py")]:
        outside |= _references(ast.parse(path.read_text()))
    unread = []
    for path, tree in modules.items():
        others = set().union(*(_references(t) for p, t in modules.items() if p != path))
        for label, name, node in _definitions(tree):
            if name not in outside | others | _references(tree, outside=node):
                unread.append(f"{path.stem}.{label}")
    assert not unread, unread
