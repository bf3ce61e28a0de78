"""Every module in src/maploc uses each name it imports, every private
module-level name it defines is read somewhere in the package, and every
module-level function, class or constant, and every method or property of
a module-level class, it defines is read somewhere in src/, tests/ or
perfbench/ outside its own definition.

No linter is installed, so this stands in for one: an import left behind
when the code that used it moves fails here, and so does a helper, class,
constant or method that a change left with no caller. `from __future__
import annotations` is exempt; it binds no name.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "maploc"


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom a import b as c, d\nd(os.sep)\n")
    assert unused_imports(source) == [(3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unused_private_names(sources):
    """(module, line, name) of each module-level _name, defined in one of
    sources (module name -> source text), that no module reads, by name or
    as an attribute. Dunder names are exempt."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_guard_finds_an_unused_private_name():
    sources = {"a": "_used = 1\n_dead = 2\n__version__ = '1'\n"
                    "def _helper():\n    return _used\n",
               "b": "import a\nclass _Gone:\n    pass\nx = a._helper()\n"}
    assert unused_private_names(sources) == [("a", 2, "_dead"),
                                             ("b", 2, "_Gone")]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def _defined_names(node):
    """The names a module-level statement defines as a function, class or
    constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(node):
    """The names a statement reads: loaded names, attributes, and string
    constants (a name looked up with getattr or patched by its name)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unreferenced_names(package, sources):
    """(module, line, name) of each module-level function, class or
    constant defined in `package` (module name -> source text) that no
    statement of `package` or `sources` (more texts) reads, other than the
    statement defining it. Dunder names are exempt."""
    defined, reads = [], []
    for key, source in [*package.items(), *enumerate(sources)]:
        for index, node in enumerate(ast.parse(source).body):
            here = (key, index)
            reads.append((here, _read_names(node)))
            if key in package:
                defined += [(key, node.lineno, name, here)
                            for name in _defined_names(node)
                            if not name.endswith("__")]
    return sorted((module, line, name)
                  for module, line, name, here in defined
                  if not any(name in read for where, read in reads
                             if where != here))


def test_guard_finds_an_unreferenced_name():
    package = {"a": "X = 1\nY = 2\n__version__ = '1'\n"
                    "def f(n):\n    return f(n - 1) + X\n"
                    "class C:\n    pass\n",
               "b": "def g():\n    return getattr(a, 'C')\n"}
    assert unreferenced_names(package, ["import a\nprint(a.g)\n"]) == [
        ("a", 2, "Y"), ("a", 4, "f")]


def test_every_module_level_name_is_read():
    package = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unreferenced_names(package, others) == []


def _method_reads(tree):
    """How often a tree reads each name in each way a method or property
    can be read: ("attr", name) for any attribute, ("call", name) for an
    attribute called, ("of", owner, name) for an attribute of a name or an
    attribute `owner`, and ("str", name) for a string constant."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads["attr", node.attr] += 1
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            reads["of", owner, node.attr] += 1
        elif isinstance(node, ast.Call) and isinstance(node.func,
                                                       ast.Attribute):
            reads["call", node.func.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads["str", node.value] += 1
    return reads


def unread_methods(package, sources):
    """(module, line, "Class.name") of each method or property of a
    module-level class in `package` (module name -> source text) that no
    code of `package` or `sources` (more texts) reads outside its own
    definition. A property is read as any attribute of its name. A method
    is read where it is called as an attribute (x.name(...)), taken from
    its class (Class.name), or named by a string (getattr, monkeypatch);
    an attribute of the same name on some other object, such as a field,
    does not read it. Dunder methods are exempt."""
    methods, total = [], Counter()
    for key, source in [*package.items(), *enumerate(sources)]:
        tree = ast.parse(source)
        total += _method_reads(tree)
        if key in package:
            methods += [(key, cls.name, node)
                        for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.endswith("__")]
    unread = []
    for module, owner, node in methods:
        name = node.name
        if any(getattr(d, "id", None) == "property"
               for d in node.decorator_list):
            ways = [("attr", name)]
        else:
            ways = [("call", name), ("of", owner, name)]
        own = _method_reads(node)
        if not any(total[way] > own[way] for way in [*ways, ("str", name)]):
            unread.append((module, node.lineno, f"{owner}.{name}"))
    return sorted(unread)


def test_guard_finds_an_unread_method():
    package = {"a": "class Rows:\n"
                    "    def cloud(self):\n        return self.cloud()\n"
                    "    def used(self):\n        return 1\n"
                    "    @property\n    def size(self):\n        return 2\n"
                    "    @staticmethod\n    def make():\n        pass\n"
                    "    def patched(self):\n        pass\n"
                    "    def __len__(self):\n        return 0\n"
                    "    @property\n    def gone(self):\n        pass\n"
                    "class Map:\n    cloud = None\n"}
    others = ["import a\nm = a.Map()\nprint(m.cloud, a.Rows().used())\n"
              "print(m.size, a.Rows.make)\n"
              "setattr(a.Rows, 'patched', None)\n"]
    assert unread_methods(package, others) == [
        ("a", 2, "Rows.cloud"), ("a", 17, "Rows.gone")]


def test_every_method_is_read():
    package = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    others = [path.read_text() for folder in ("tests", "perfbench")
              for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unread_methods(package, others) == []
